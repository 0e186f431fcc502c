#!/usr/bin/env bash
# Runs a command and reports its peak resident set size (the largest
# VmHWM among the processes it waited for, from getrusage(RUSAGE_CHILDREN))
# and its wall time, then fails when that peak is above a limit. The child
# is forked from a Python interpreter, whose pages count until the exec,
# so the reported peak never reads below that interpreter's size (≈ 14 MiB).
#
# Usage: scripts/peak_rss.sh <limit MiB> -- <command> [args...]
#
# The command's stdout and stderr pass through; one summary line,
#   peak_rss_mib=<MiB> wall_s=<s> limit_mib=<limit>
# goes to stderr after it. Exit status: the command's own when it fails,
# 1 when the peak is above the limit, 2 on a usage error, else 0.
set -euo pipefail

usage() {
    echo "usage: scripts/peak_rss.sh <limit MiB> -- <command> [args...]" >&2
    exit 2
}
[ $# -ge 3 ] && [ "$2" = "--" ] || usage
limit=$1
shift 2
[[ $limit =~ ^[0-9]+$ ]] || usage

exec python3 -c '
import resource, subprocess, sys, time

limit, command = int(sys.argv[1]), sys.argv[2:]
start = time.monotonic()
try:
    status = subprocess.call(command)
except OSError as e:
    print(f"{command[0]}: {e.strerror}", file=sys.stderr)
    sys.exit(127)
wall = time.monotonic() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB -> MiB
print(f"peak_rss_mib={peak:.1f} wall_s={wall:.3f} limit_mib={limit}", file=sys.stderr)
if status != 0:
    sys.exit(status if status > 0 else 1)
if peak > limit:
    print(f"peak RSS {peak:.1f} MiB is above the {limit} MiB limit", file=sys.stderr)
    sys.exit(1)
' "$limit" "$@"
