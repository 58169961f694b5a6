#!/usr/bin/env bash
# Runs `cargo test "$@"` and fails when the run executed no test.
#
# A name filter that matches nothing makes `cargo test` report
# "0 passed" and exit 0, so a renamed or deleted test would silently
# turn a CI gate into a no-op. This wrapper sums the passed counts over
# every test binary and exits 1 when the total is zero.
#
# Usage: scripts/cargo_test_named.sh -p CRATE [--lib | --test NAME] FILTER
set -euo pipefail

log=$(mktemp)
trap 'rm -f "$log"' EXIT

cargo test "$@" 2>&1 | tee "$log"

passed=$(grep -Eo 'test result: ok\. [0-9]+ passed' "$log" | awk '{ n += $4 } END { print n + 0 }')
if [ "$passed" -eq 0 ]; then
    echo "error: \`cargo test $*\` ran no test; its name filter matches nothing" >&2
    exit 1
fi
