//! Workspace file discovery and the lint driver.

use crate::rules::{check_crate_root, check_dead_pub, check_file, Finding};
use std::path::{Path, PathBuf};

/// Directories never scanned: external stand-ins, build output, VCS.
const SKIP_DIRS: [&str; 4] = ["vendor", "target", ".git", "results"];

/// Returns the workspace root this binary was built from.
#[must_use]
pub fn default_root() -> PathBuf {
    // crates/audit/ -> crates/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Every `.rs` file under `root` (excluding [`SKIP_DIRS`]), as paths
/// relative to `root`, sorted for deterministic output.
#[must_use]
pub fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    files.push(rel.to_path_buf());
                }
            }
        }
    }
    files.sort();
    files
}

/// Runs the lint rules over every workspace `.rs` file (R7 over all of
/// them at once) and returns all findings, in path order. Files that
/// cannot be read are skipped (the walker only yields paths it just saw,
/// so this is a race, not an error class worth failing the audit over).
#[must_use]
pub fn check_workspace(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut files = Vec::new();
    for rel in rust_files(root) {
        let Ok(source) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        findings.extend(check_file(&rel_str, &source));
        if is_crate_root(&rel_str) {
            findings.extend(check_crate_root(&rel_str, &source));
        }
        files.push((rel_str, source));
    }
    let pairs: Vec<(&str, &str)> = files.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    findings.extend(check_dead_pub(&pairs));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// True for library crate roots: the facade `src/lib.rs` and every
/// `crates/*/src/lib.rs`.
fn is_crate_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs"
        || (rel_path.starts_with("crates/") && rel_path.ends_with("/src/lib.rs"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_finds_this_file_and_skips_vendor() {
        let root = default_root();
        let files = rust_files(&root);
        assert!(files.iter().any(|f| f.ends_with("crates/audit/src/workspace.rs")));
        assert!(!files.iter().any(|f| f.starts_with("vendor")));
        assert!(!files.iter().any(|f| f.starts_with("target")));
    }

    #[test]
    fn crate_roots_are_recognized() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/tlb/src/lib.rs"));
        assert!(!is_crate_root("crates/tlb/src/l1.rs"));
        assert!(!is_crate_root("crates/bench/src/bin/ablations.rs"));
    }

    #[test]
    fn the_workspace_is_clean() {
        let findings = check_workspace(&default_root());
        let rendered: Vec<String> = findings.iter().map(ToString::to_string).collect();
        assert!(rendered.is_empty(), "audit findings:\n{}", rendered.join("\n"));
    }
}
