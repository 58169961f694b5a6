#!/usr/bin/env bash
# Front-end linearity gate over a traced `edit-replay` run of the
# end-to-end benchmark (`e2e_bench ... --workload edit-replay --trace 1`).
#
# The traced run times each front-end layer (parse, wf, fingerprints,
# dependency planning) on a 5000-method corpus and on a 1000-method one
# and reports `<layer>.scale_ratio = t(5000) / t(1000)`. Linear code
# reads about 5; a pass that scans the program per method or per call
# site reads 12 and up. The gate fails unless the run is `correct` and
# every ratio is at most MAX_RATIO.
#
# Usage: scripts/front_end_linearity.sh FILE
#   FILE holds the benchmark's standard output; its last line is the
#   result JSON object.
set -euo pipefail

MAX_RATIO=10
LAYERS="parser wf fingerprint depgraph"

line=$(tail -n 1 "$1")
case "$line" in
    "{"*) ;;
    *)
        echo "error: the last line of $1 is not the benchmark's result JSON" >&2
        exit 1
        ;;
esac

status=0
if ! printf '%s' "$line" | grep -q '"correct":true'; then
    echo "FAIL correct: the run reported a wrong verdict or cone" >&2
    status=1
fi
for layer in $LAYERS; do
    metric="$layer.scale_ratio"
    value=$(printf '%s' "$line" | grep -o "\"$metric\":{\"value\":[^,}]*" | sed 's/.*://' || true)
    if [ -z "$value" ]; then
        echo "FAIL $metric: missing from the result" >&2
        status=1
    elif awk -v v="$value" -v max="$MAX_RATIO" 'BEGIN { exit !(v <= max) }'; then
        echo "ok   $metric = $value (<= $MAX_RATIO)"
    else
        echo "FAIL $metric = $value (> $MAX_RATIO)" >&2
        status=1
    fi
done
exit "$status"
