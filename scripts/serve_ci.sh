#!/bin/bash
# CI check for the serving subsystem: build a partition store from a
# 100k-edge Chung-Lu graph, serve it over TCP, and assert
#   1. a 50k-op 90/10 loadgen run completes with zero protocol errors
#      and emits BENCH_serve_latency.json through the obs bench writer;
#   2. a saturating connection burst gets typed Overloaded refusals
#      from a queue-bounded server (admission control, not buffering);
#   3. a write-only single-client run's flushed placements diff clean,
#      byte for byte, against a direct seeded streaming replay.
# Invoked from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
# Every server this script started must be gone by exit: a survivor is
# killed and fails the run.
cleanup() {
    local status=$? leaked=0
    if [ -f "$WORK/serve.pids" ]; then
        while read -r pid; do
            if kill -0 "$pid" 2>/dev/null; then
                echo "serve CI: server pid $pid still running at exit" >&2
                kill "$pid" 2>/dev/null || true
                leaked=1
            fi
        done < "$WORK/serve.pids"
    fi
    rm -rf "$WORK"
    if [ "$leaked" -ne 0 ] && [ "$status" -eq 0 ]; then
        exit 1
    fi
}
trap cleanup EXIT

cli() { cargo run --release -q --bin tlp-cli -- "$@"; }
loadgen() { cargo run --release -q -p tlp-serve --bin tlp-loadgen -- "$@"; }

# Build the bins up front; servers launch the built binary directly, so
# `$!` is the server's own pid rather than a `cargo run` wrapper's.
cargo build --release -q -p tlp -p tlp-serve
SERVE_BIN="${CARGO_TARGET_DIR:-target}/release/tlp-serve"

cli generate --family chung-lu --vertices 30000 --edges 100000 --seed 11 \
    --output "$WORK/graph.txt"
cli partition --input "$WORK/graph.txt" --format text --algorithm hdrf \
    --partitions 8 --out-store "$WORK/store" > /dev/null
test -f "$WORK/store/MANIFEST.tlp"

# The direct-replay copy must start byte-identical to the served store.
cp -r "$WORK/store" "$WORK/store_direct"
diff -r "$WORK/store" "$WORK/store_direct"

# Starts tlp-serve on an ephemeral port. Sets ADDR to the bound address
# and SERVE_PID to the server's pid (runs in the parent shell so the pid
# survives for wait/kill; pids are also logged for the exit trap).
start_server() {
    local out="$1"
    shift
    "$SERVE_BIN" "$@" --addr 127.0.0.1:0 > "$out" 2> "$out.err" &
    SERVE_PID=$!
    echo "$SERVE_PID" >> "$WORK/serve.pids"
    ADDR=""
    for _ in $(seq 1 100); do
        if grep -q "listening on" "$out" 2>/dev/null; then
            ADDR=$(awk '/listening on/ {print $NF}' "$out")
            return 0
        fi
        sleep 0.1
    done
    echo "server did not come up:" >&2
    cat "$out" "$out.err" >&2
    return 1
}

# --- 1. Mixed 90/10 load: zero protocol errors + bench artifact. -------
start_server "$WORK/serve1.out" "$WORK/store" --placer hdrf
loadgen "$ADDR" --ops 50000 --threads 4 --read-ratio 0.9 --zipf 1.1 --seed 42 \
    --bench "$WORK/BENCH_serve_latency.json" --shutdown | tee "$WORK/load.out"
grep -q " 0 protocol errors" "$WORK/load.out"
test -f "$WORK/BENCH_serve_latency.json"
# The bench artifact went through the shared obs writer: top-level keys
# must include the latency percentiles, throughput, and the failure
# taxonomy split (timeouts/resets) plus retry accounting.
for key in latency throughput ops protocol_errors timeouts resets retries; do
    grep -q "\"$key\"" "$WORK/BENCH_serve_latency.json"
done
wait "$SERVE_PID"   # --shutdown drains the server; it must exit 0

# The store data files are untouched (no flush was requested) — but the
# write mix must have left its placements in the durable WAL.
diff -r -x wal.tlpw "$WORK/store" "$WORK/store_direct"
test -f "$WORK/store/wal.tlpw"
test "$(stat -c %s "$WORK/store/wal.tlpw")" -gt 8

# --- 2. Saturating burst: typed Overloaded refusals. -------------------
start_server "$WORK/serve2.out" "$WORK/store" --placer hdrf \
    --workers 1 --queue-depth 0
loadgen "$ADDR" --burst 64 | tee "$WORK/burst.out"
overloaded=$(sed -n 's/^burst:.* \([0-9][0-9]*\) overloaded.*/\1/p' "$WORK/burst.out")
test -n "$overloaded"
test "$overloaded" -gt 0
kill "$SERVE_PID"
wait "$SERVE_PID" || true   # reap it; killed by SIGTERM, so nonzero

# --- 3. Bit-identity: served flush == direct seeded replay. ------------
# Phase 1's unflushed WAL records would replay into the served store on
# reopen and skew it against the direct run; this phase starts clean.
rm -f "$WORK/store/wal.tlpw"
start_server "$WORK/serve3.out" "$WORK/store" --placer hdrf
loadgen "$ADDR" --ops 5000 --threads 1 --read-ratio 0.0 --seed 777 \
    --flush --shutdown | tee "$WORK/writeonly.out"
grep -q " 0 protocol errors" "$WORK/writeonly.out"
wait "$SERVE_PID"

loadgen --replay "$WORK/store_direct" --placer hdrf \
    --ops 5000 --read-ratio 0.0 --seed 777 | tee "$WORK/replay.out"

# The flushed stores must be byte-identical, segment files and manifest.
diff -r "$WORK/store" "$WORK/store_direct"

echo "serve CI: mixed load clean, overload typed, flush bit-identical"
