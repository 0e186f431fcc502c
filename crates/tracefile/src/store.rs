//! `TraceStore`: a directory of recorded traces keyed by
//! (workload, footprint, seed), with a JSON corpus manifest.
//!
//! Layout:
//!
//! ```text
//! <root>/manifest.json                   — corpus manifest (sorted entries)
//! <root>/<workload>/fp<pages>-s<seed>.htr2
//! ```
//!
//! The manifest is the source of truth for lookups; the per-file
//! header repeats the key so a stray `.htr2` file is still
//! self-describing. Recording rewrites the manifest atomically
//! (write-new + rename), so a crash mid-record leaves the previous
//! manifest intact.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::error::{Result, TraceFileError};
use crate::format::TraceMeta;
use crate::reader::TraceReader;
use crate::writer::{TraceWriter, WriteSummary};

/// Manifest schema version.
const MANIFEST_VERSION: u32 = 1;

/// One recorded trace in the corpus.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CorpusEntry {
    /// Workload label.
    pub workload: String,
    /// Footprint in 4 KiB pages.
    pub footprint_pages: u64,
    /// Generator seed.
    pub seed: u64,
    /// Accesses recorded.
    pub accesses: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Path of the trace file, relative to the store root.
    pub path: String,
}

#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct Manifest {
    version: u32,
    entries: Vec<CorpusEntry>,
}

/// A directory of recorded traces plus its manifest.
#[derive(Debug)]
pub struct TraceStore {
    root: PathBuf,
    entries: Vec<CorpusEntry>,
}

impl TraceStore {
    /// Opens the store at `root`, creating the directory and an empty
    /// manifest if nothing is there yet.
    pub fn open_or_create(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let manifest_path = root.join("manifest.json");
        let entries = if manifest_path.exists() {
            let text = fs::read_to_string(&manifest_path)?;
            let manifest: Manifest = serde_json::from_str(&text).map_err(|e| {
                TraceFileError::Store { detail: format!("manifest.json is unreadable: {e}") }
            })?;
            if manifest.version != MANIFEST_VERSION {
                return Err(TraceFileError::Store {
                    detail: format!("manifest version {} not supported", manifest.version),
                });
            }
            manifest.entries
        } else {
            Vec::new()
        };
        Ok(TraceStore { root, entries })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// All entries, in manifest order (sorted by key).
    #[must_use]
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Looks up the entry for `(workload, footprint_pages, seed)`.
    #[must_use]
    pub fn find(&self, workload: &str, footprint_pages: u64, seed: u64) -> Option<&CorpusEntry> {
        self.entries.iter().find(|e| {
            e.workload == workload && e.footprint_pages == footprint_pages && e.seed == seed
        })
    }

    /// Records `addresses` as a new trace, replacing any existing entry
    /// with the same key, and rewrites the manifest.
    pub fn record(
        &mut self,
        workload: &str,
        footprint_pages: u64,
        seed: u64,
        addresses: impl IntoIterator<Item = u64>,
    ) -> Result<WriteSummary> {
        let relative = format!("{workload}/fp{footprint_pages}-s{seed}.htr2");
        let full = self.root.join(&relative);
        if let Some(parent) = full.parent() {
            fs::create_dir_all(parent)?;
        }
        let meta = TraceMeta::new(workload, footprint_pages, seed);
        let mut writer = TraceWriter::new(BufWriter::new(File::create(&full)?), &meta)?;
        writer.extend(addresses)?;
        let summary = writer.finish()?;
        self.entries.retain(|e| {
            !(e.workload == workload && e.footprint_pages == footprint_pages && e.seed == seed)
        });
        self.entries.push(CorpusEntry {
            workload: workload.to_string(),
            footprint_pages,
            seed,
            accesses: summary.accesses,
            bytes: summary.bytes,
            path: relative,
        });
        self.entries.sort_by(|a, b| {
            (&a.workload, a.footprint_pages, a.seed).cmp(&(&b.workload, b.footprint_pages, b.seed))
        });
        self.save_manifest()?;
        Ok(summary)
    }

    /// Loads the first `accesses` addresses of the recorded trace for
    /// the key, or `None` when the corpus has no long-enough recording.
    /// Generators are deterministic streams, so the prefix of a longer
    /// recording is bit-identical to a shorter generation.
    ///
    /// The whole file is read and checked, footer included, so damage
    /// past the prefix is still an error; a file whose header or totals
    /// disagree with the manifest is one too.
    pub fn load_prefix(
        &self,
        workload: &str,
        footprint_pages: u64,
        seed: u64,
        accesses: u64,
    ) -> Result<Option<Vec<u64>>> {
        let Some(entry) = self.find(workload, footprint_pages, seed) else {
            return Ok(None);
        };
        if entry.accesses < accesses {
            return Ok(None);
        }
        let file = File::open(self.root.join(&entry.path))?;
        // Every access takes at least one byte on disk, so the file size
        // bounds the allocation even when the manifest overstates it.
        let file_bytes = usize::try_from(file.metadata()?.len()).unwrap_or(usize::MAX);
        let mut reader = TraceReader::new(BufReader::new(file))?;
        let meta = reader.meta();
        if meta.workload != workload || meta.footprint_pages != footprint_pages || meta.seed != seed
        {
            return Err(TraceFileError::Store {
                detail: format!("{}: file header disagrees with the manifest", entry.path),
            });
        }
        let wanted = usize::try_from(accesses).unwrap_or(usize::MAX);
        let mut prefix = Vec::with_capacity(wanted.min(file_bytes));
        while prefix.len() < wanted {
            let Some(block) = reader.next_block()? else { break };
            let take = block.addresses.len().min(wanted - prefix.len());
            prefix.extend_from_slice(&block.addresses[..take]);
        }
        let totals = reader.finish()?;
        if totals.accesses != entry.accesses {
            return Err(TraceFileError::Store {
                detail: format!(
                    "{}: file holds {} accesses but the manifest records {}",
                    entry.path, totals.accesses, entry.accesses
                ),
            });
        }
        Ok(Some(prefix))
    }

    fn save_manifest(&self) -> Result<()> {
        let manifest = Manifest { version: MANIFEST_VERSION, entries: self.entries.clone() };
        let text = serde_json::to_string_pretty(&manifest)
            .map_err(|e| TraceFileError::Store { detail: format!("manifest serialize: {e}") })?;
        let tmp = self.root.join("manifest.json.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.write_all(b"\n")?;
        }
        fs::rename(&tmp, self.root.join("manifest.json"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hytlb_store_{tag}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn walk(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i / 5) * 4096 + (i * 37) % 4096).collect()
    }

    #[test]
    fn record_find_load_roundtrip() {
        let root = scratch_store("roundtrip");
        let mut store = TraceStore::open_or_create(&root).unwrap();
        assert!(store.find("gups", 512, 7).is_none());

        let addresses = walk(1000);
        let summary = store.record("gups", 512, 7, addresses.iter().copied()).unwrap();
        assert_eq!(summary.accesses, 1000);

        let entry = store.find("gups", 512, 7).expect("recorded entry");
        assert_eq!(entry.accesses, 1000);
        assert_eq!(entry.path, "gups/fp512-s7.htr2");
        assert!(root.join(&entry.path).exists());

        assert_eq!(store.load_prefix("gups", 512, 7, 1000).unwrap().unwrap(), addresses);
        assert_eq!(store.load_prefix("gups", 512, 7, 100).unwrap().unwrap(), addresses[..100]);
        assert!(store.load_prefix("gups", 512, 7, 1001).unwrap().is_none(), "too short");
        assert!(store.load_prefix("gups", 512, 8, 10).unwrap().is_none(), "wrong seed");

        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn manifest_survives_reopen_and_rerecord_replaces() {
        let root = scratch_store("reopen");
        let mut store = TraceStore::open_or_create(&root).unwrap();
        store.record("mcf", 256, 1, walk(50)).unwrap();
        store.record("gups", 512, 2, walk(60)).unwrap();
        drop(store);

        let mut store = TraceStore::open_or_create(&root).unwrap();
        assert_eq!(store.entries().len(), 2);
        // Entries are sorted by key: gups before mcf.
        assert_eq!(store.entries()[0].workload, "gups");

        store.record("mcf", 256, 1, walk(80)).unwrap();
        assert_eq!(store.entries().len(), 2, "re-record replaces, not duplicates");
        assert_eq!(store.find("mcf", 256, 1).unwrap().accesses, 80);

        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_manifest_is_a_store_error() {
        let root = scratch_store("badmanifest");
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join("manifest.json"), b"not json").unwrap();
        let err = TraceStore::open_or_create(&root).unwrap_err();
        assert!(matches!(err, TraceFileError::Store { .. }), "{err}");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn header_manifest_disagreement_is_detected() {
        let root = scratch_store("disagree");
        let mut store = TraceStore::open_or_create(&root).unwrap();
        store.record("gups", 512, 7, walk(40)).unwrap();
        store.record("mcf", 512, 7, walk(40)).unwrap();
        // Swap the two files on disk behind the manifest's back.
        let a = root.join("gups/fp512-s7.htr2");
        let b = root.join("mcf/fp512-s7.htr2");
        let tmp = root.join("swap.tmp");
        fs::rename(&a, &tmp).unwrap();
        fs::rename(&b, &a).unwrap();
        fs::rename(&tmp, &b).unwrap();

        let err = store.load_prefix("gups", 512, 7, 10).unwrap_err();
        assert!(matches!(err, TraceFileError::Store { .. }), "{err}");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn file_totals_disagreeing_with_the_manifest_are_detected() {
        let root = scratch_store("totals");
        let mut store = TraceStore::open_or_create(&root).unwrap();
        store.record("gups", 512, 7, walk(60)).unwrap();
        let longer = fs::read(root.join("gups/fp512-s7.htr2")).unwrap();
        store.record("gups", 512, 7, walk(40)).unwrap();
        // The manifest says 40 accesses; the file on disk now holds 60.
        fs::write(root.join("gups/fp512-s7.htr2"), longer).unwrap();

        let err = store.load_prefix("gups", 512, 7, 10).unwrap_err();
        assert!(matches!(err, TraceFileError::Store { .. }), "{err}");
        fs::remove_dir_all(&root).ok();
    }

    /// Truncation at every length and every single-bit flip after the
    /// header make `load_prefix` fail, whether it wants the whole trace
    /// or only a prefix of it: damaged bytes on disk never replay.
    #[test]
    fn damaged_corpus_files_never_load() {
        let root = scratch_store("damaged");
        let mut store = TraceStore::open_or_create(&root).unwrap();
        store.record("gups", 512, 7, walk(40)).unwrap();
        let path = root.join("gups/fp512-s7.htr2");
        let clean = fs::read(&path).unwrap();
        let header_len = u32::from_le_bytes(clean[8..12].try_into().unwrap()) as usize;

        let mut damaged: Vec<(String, Vec<u8>)> =
            (0..clean.len()).map(|cut| (format!("cut at {cut}"), clean[..cut].to_vec())).collect();
        for pos in 12 + header_len..clean.len() {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[pos] ^= 1 << bit;
                damaged.push((format!("bit {bit} of byte {pos} flipped"), bad));
            }
        }
        for (what, bytes) in &damaged {
            fs::write(&path, bytes).unwrap();
            for n in [10, 40] {
                let loaded = store.load_prefix("gups", 512, 7, n);
                assert!(loaded.is_err(), "{what}: loading {n} accesses returned {loaded:?}");
            }
        }

        fs::write(&path, &clean).unwrap();
        assert_eq!(store.load_prefix("gups", 512, 7, 40).unwrap().unwrap(), walk(40));
        fs::remove_dir_all(&root).ok();
    }
}
