#!/usr/bin/env bash
# Server smoke: start the daemon, chaos-replay the F1 corpus over it
# (full wire-fault matrix + a fault-free reference pass), SIGTERM, and
# assert a graceful drain — the daemon exits 0 on its own, reports
# zero leaked sessions, and leaves a flushed, uncorrupted verdict
# store with zero contained panics. `server_replay` enforces the
# bit-identical chaos gate AND the admission conservation invariant
# (its mid-run health scrapes) via its own exit code.
#
# The admin plane is smoked alongside: daenerys-top scrapes live
# metrics/health while the chaos replay hammers the daemon, the trace
# tail must revalidate through trace_validate, SIGUSR1 must produce a
# live snapshot line without stopping the daemon, and the final health
# scrape must conserve. Artifacts: the daemon's final metrics snapshot,
# the mid-run daenerys-top frames (with their per-phase table), the
# health body, and the streamed trace tail.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR=${1:-target/server-smoke}
STORE_DIR="$OUT_DIR/store"
mkdir -p "$OUT_DIR"
rm -rf "$STORE_DIR"

cargo build --release -p daenerysd -p daenerys-bench

LOG="$OUT_DIR/daenerysd.log"
./target/release/daenerysd \
    --cache-dir "$STORE_DIR" \
    --metrics-out "$OUT_DIR/metrics.json" > "$LOG" 2>&1 &
DAEMON_PID=$!

# Scrape the ephemeral port from the startup line.
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^daenerysd listening on //p' "$LOG" | head -1)
    [ -n "$ADDR" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "daemon died during startup"; cat "$LOG"; exit 1;
    }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "daemon never reported an address"; cat "$LOG"; exit 1; }

# Chaos replay against the live daemon; non-zero exit = gate failure
# (a lost request, a verdict that diverged under chaos, a mid-run
# health scrape that violated the conservation ledger, ...). The admin
# plane is scraped concurrently: daenerys-top renders live frames off
# the same listener while the replay saturates it.
./target/release/daenerys-top --addr "$ADDR" --interval-ms 500 \
    --frames 8 --no-clear > "$OUT_DIR/daenerys-top.txt" 2>&1 &
TOP_PID=$!
./target/release/server_replay --addr "$ADDR" --requests 96
TOP_STATUS=0
wait "$TOP_PID" || TOP_STATUS=$?
[ "$TOP_STATUS" -eq 0 ] || {
    echo "daenerys-top exited $TOP_STATUS under load"
    cat "$OUT_DIR/daenerys-top.txt"; exit 1;
}
grep -q 'conserved yes' "$OUT_DIR/daenerys-top.txt"
grep -q '^tenant-' "$OUT_DIR/daenerys-top.txt"
# The live frames carry server-side phase attribution under load.
grep -q '^PHASE' "$OUT_DIR/daenerys-top.txt"

# The replay's own conservation gate ran mid-chaos; the final ledger
# must conserve too (daenerys-top --health exits non-zero otherwise).
./target/release/daenerys-top --addr "$ADDR" --health \
    > "$OUT_DIR/health.json"

# The trace tail is a stream: every tailed event must revalidate as
# JSONL through the same validator the bench traces use.
./target/release/daenerys-top --addr "$ADDR" --tail \
    > "$OUT_DIR/trace_tail.jsonl" 2> "$OUT_DIR/trace_tail.summary"
test -s "$OUT_DIR/trace_tail.jsonl"
./target/release/trace_validate "$OUT_DIR/trace_tail.jsonl"

# SIGUSR1: a live snapshot line on stdout, daemon keeps serving.
kill -USR1 "$DAEMON_PID"
SNAPSHOT_SEEN=""
for _ in $(seq 1 100); do
    if grep -q '^daenerysd snapshot {' "$LOG"; then SNAPSHOT_SEEN=1; break; fi
    sleep 0.1
done
[ -n "$SNAPSHOT_SEEN" ] || { echo "no snapshot after SIGUSR1"; cat "$LOG"; exit 1; }
./target/release/daenerys-top --addr "$ADDR" --health > /dev/null \
    || { echo "daemon stopped answering after SIGUSR1"; exit 1; }

# Graceful drain: on SIGTERM the daemon must finish in-flight work,
# flush the store, write its snapshot, and exit 0 by itself.
kill -TERM "$DAEMON_PID"
DAEMON_STATUS=0
wait "$DAEMON_PID" || DAEMON_STATUS=$?
[ "$DAEMON_STATUS" -eq 0 ] || {
    echo "daemon exited $DAEMON_STATUS after SIGTERM"; cat "$LOG"; exit 1;
}

# Zero leaked sessions, zero contained panics, store flushed and
# clean, in DAES1 shards.
grep -q '"leaked_sessions":0' "$OUT_DIR/metrics.json"
grep -q '"internal_crashes":0' "$OUT_DIR/metrics.json"
grep -q '"store_corrupt_lines":0' "$OUT_DIR/metrics.json"
ls "$STORE_DIR"/verdicts-*.daes > /dev/null

echo "server smoke PASSED ($ADDR)"
cat "$OUT_DIR/metrics.json"
