#!/usr/bin/env bash
# Byte-identity gate: runs `regenerate --quick` once, rebuilding every
# artifact's JSON output, and checks each against the sha256 digests
# committed in scripts/quick_digests.sha256. A change that must leave every
# simulated result untouched (a refactor, a performance change) passes only
# if all sixteen outputs come out byte for byte as recorded.
#
# A `--quick` run overwrites the committed default-scale results/*.{txt,json},
# so the script copies results/ aside first and puts it back on exit: the
# working tree is left exactly as it was found.
#
# Usage: scripts/check_quick_digests.sh
#
# To re-record the digests after a change that is meant to alter results,
# run `regenerate --quick` and then, from the repository root:
#   sha256sum results/<name>.json ... > scripts/quick_digests.sha256
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
digests=scripts/quick_digests.sha256

saved=$(mktemp -d)
cp -a results "$saved/results"
restore() {
    rm -rf results
    cp -a "$saved/results" results
    rm -rf "$saved"
}
trap restore EXIT

cargo run --release --quiet -p hytlb-bench --bin regenerate -- --quick > /dev/null
sha256sum --check --quiet "$digests"
echo "all $(wc -l < "$digests") --quick outputs match their digests"
