#!/usr/bin/env bash
# Gate a run of the end-to-end benchmark (`e2e_bench`) on named
# metrics of its result.
#
# The gate fails unless the run is `correct` (every verdict, cone and
# repeat check held) and every named metric is present and at most its
# bound. CI uses it on traced runs, for example:
#   - edit-replay: each front-end `<layer>.scale_ratio = t(5000)/t(1000)`
#     ≤ 10 (linear code reads about 5; a per-call-site program scan
#     reads 12 and up);
#   - daemon-repeat: `server.wait_ms` ≤ 10 (the client's wait for a
#     reply minus the server's verify time).
#
# Usage: scripts/bench_gate.sh FILE METRIC MAX [METRIC MAX ...]
#   FILE holds the benchmark's standard output; its last line is the
#   result JSON object.
set -euo pipefail

if [ $# -lt 3 ] || [ $(( ($# - 1) % 2 )) -ne 0 ]; then
    echo "usage: $0 FILE METRIC MAX [METRIC MAX ...]" >&2
    exit 2
fi
file=$1
shift

line=$(tail -n 1 "$file")
case "$line" in
    "{"*) ;;
    *)
        echo "error: the last line of $file is not the benchmark's result JSON" >&2
        exit 1
        ;;
esac

status=0
if ! printf '%s' "$line" | grep -q '"correct":true'; then
    echo "FAIL correct: the run reported a wrong verdict, cone or count" >&2
    status=1
fi
while [ $# -gt 0 ]; do
    metric=$1
    max=$2
    shift 2
    pattern=$(printf '%s' "$metric" | sed 's/\./\\./g')
    value=$(printf '%s' "$line" | grep -o "\"$pattern\":{\"value\":[^,}]*" | sed 's/.*://' || true)
    if [ -z "$value" ]; then
        echo "FAIL $metric: missing from the result" >&2
        status=1
    elif awk -v v="$value" -v max="$max" 'BEGIN { exit !(v <= max) }'; then
        echo "ok   $metric = $value (<= $max)"
    else
        echo "FAIL $metric = $value (> $max)" >&2
        status=1
    fi
done
exit "$status"
