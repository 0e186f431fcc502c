#!/usr/bin/env bash
# Counts non-test lines of Rust source: for every `.rs` file under
# `crates/*/src` and `src/`, the lines before the file's first
# `#[cfg(test)]` (all of its lines when it has none). Prints one line per
# crate (`src/` is the root `hytlb` package) and the workspace total.
#
# Usage: scripts/count_lines.sh [REPO_ROOT]   (defaults to this checkout)
set -euo pipefail

root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$root"

# Lines before the first `#[cfg(test)]` of each file named on stdin.
non_test_lines() {
    local total=0 n file
    while IFS= read -r file; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        total=$((total + n))
    done
    echo "$total"
}

total=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    case $dir in
        src) name=hytlb ;;
        *) name=$(basename "$(dirname "$dir")") ;;
    esac
    n=$(find "$dir" -name '*.rs' | sort | non_test_lines)
    printf '%-16s %7d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-16s %7d\n' total "$total"
