#!/usr/bin/env bash
# Byte-identity gate: rebuilds every figure/table regenerator's `--quick`
# JSON output and checks it against the sha256 digests committed in
# scripts/quick_digests.sha256. A change that must leave every simulated
# result untouched (a refactor, a performance change) passes only if all
# sixteen outputs come out byte for byte as recorded.
#
# A `--quick` run overwrites the committed default-scale results/*.{txt,json},
# so the script copies results/ aside first and puts it back on exit: the
# working tree is left exactly as it was found.
#
# Usage: scripts/check_quick_digests.sh
#
# To re-record the digests after a change that is meant to alter results,
# run each regenerator with --quick and then, from the repository root:
#   sha256sum results/<name>.json ... > scripts/quick_digests.sha256
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
digests=scripts/quick_digests.sha256

cargo build --release --quiet -p hytlb-bench --bins

saved=$(mktemp -d)
cp -a results "$saved/results"
restore() {
    rm -rf results
    cp -a "$saved/results" results
    rm -rf "$saved"
}
trap restore EXIT

for json in $(awk '{print $2}' "$digests"); do
    name=$(basename "$json" .json)
    cargo run --release --quiet -p hytlb-bench --bin "$name" -- --quick > /dev/null
done
sha256sum --check --quiet "$digests"
echo "all $(wc -l < "$digests") --quick outputs match their digests"
