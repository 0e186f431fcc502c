#!/usr/bin/env bash
# Byte-identity gate at the default scale: runs `regenerate` once with no
# flags, rebuilding all sixteen artifacts, and checks each one's text and
# JSON output against the sha256 digests committed in
# scripts/default_digests.sha256. These are the files archived under
# results/, so the gate fails both when a change alters a simulated result
# and when the committed archive falls behind the code.
#
# The script copies results/ aside first and puts it back on exit: the
# working tree is left exactly as it was found.
#
# Usage: scripts/check_default_digests.sh
#
# To re-record the digests after a change that is meant to alter results,
# run `regenerate`, commit the new results/, and then, from the repository
# root:
#   sha256sum results/<name>.json results/<name>.txt ... > scripts/default_digests.sha256
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
digests=scripts/default_digests.sha256

saved=$(mktemp -d)
cp -a results "$saved/results"
restore() {
    rm -rf results
    cp -a "$saved/results" results
    rm -rf "$saved"
}
trap restore EXIT

cargo run --release --quiet -p hytlb-bench --bin regenerate > /dev/null
sha256sum --check --quiet "$digests"
echo "all $(wc -l < "$digests") default-scale outputs match their digests"
