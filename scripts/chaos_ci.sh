#!/bin/bash
# Chaos CI for the serving layer: a seeded fault proxy sits between the
# load generator and a live tlp-serve; the server is SIGKILLed mid-run
# with acked placements living only in the WAL; a restarted server must
# report the recovered records, ride out a retry storm through the
# proxy, and — after re-running the identical idempotent stream — flush
# a store that is byte-for-byte identical to an uninterrupted offline
# replay of the same seed.
# Invoked from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
# Every process this script started must be gone by exit: a survivor is
# killed and fails the run.
cleanup() {
    local status=$? leaked=0
    if [ -f "$WORK/chaos.pids" ]; then
        while read -r pid; do
            if kill -0 "$pid" 2>/dev/null; then
                echo "chaos CI: pid $pid still running at exit" >&2
                kill -9 "$pid" 2>/dev/null || true
                leaked=1
            fi
        done < "$WORK/chaos.pids"
    fi
    rm -rf "$WORK"
    if [ "$leaked" -ne 0 ] && [ "$status" -eq 0 ]; then
        exit 1
    fi
}
trap cleanup EXIT

# Build the bins up front. Background processes launch the built binary
# itself (not through `cargo run` or a shell function), so `$!` is the
# server's, proxy's or load generator's own pid and the mid-run `kill -9`
# hits the server.
cargo build --release -q -p tlp -p tlp-serve
BIN="${CARGO_TARGET_DIR:-target}/release"
cli() { "$BIN/tlp-cli" "$@"; }
loadgen() { "$BIN/tlp-loadgen" "$@"; }

cli generate --family chung-lu --vertices 10000 --edges 30000 --seed 19 \
    --output "$WORK/graph.txt"
cli partition --input "$WORK/graph.txt" --format text --algorithm hdrf \
    --partitions 8 --out-store "$WORK/store" > /dev/null
cp -r "$WORK/store" "$WORK/store_direct"

# Waits for a "listening on" line in $1 and puts the address in ADDR.
wait_addr() {
    local out="$1"
    ADDR=""
    for _ in $(seq 1 100); do
        if grep -q "listening on" "$out" 2>/dev/null; then
            ADDR=$(awk '/listening on/ {print $NF}' "$out")
            return 0
        fi
        sleep 0.1
    done
    echo "process did not come up:" >&2
    cat "$out" "$out.err" >&2
    return 1
}

start_server() {
    local out="$1"
    "$BIN/tlp-serve" "$WORK/store" --placer hdrf --addr 127.0.0.1:0 \
        > "$out" 2> "$out.err" &
    SERVE_PID=$!
    echo "$SERVE_PID" >> "$WORK/chaos.pids"
    wait_addr "$out"
    SERVE_ADDR=$ADDR
}

# --- 1. Kill -9 during load: acked placements live only in the WAL. ----
start_server "$WORK/serve1.out"
"$BIN/tlp-chaos" 127.0.0.1:0 "$SERVE_ADDR" --seed 1234 --clean-every 2 --stall-ms 200 \
    > "$WORK/chaos.out" 2> "$WORK/chaos.err" &
CHAOS_PID=$!
echo "$CHAOS_PID" >> "$WORK/chaos.pids"
wait_addr "$WORK/chaos.out"
PROXY_ADDR=$ADDR

# Write-only single-client stream through the proxy, fsync per ack, no
# flush — every ack is backed by the WAL and nothing else.
"$BIN/tlp-loadgen" "$PROXY_ADDR" --ops 20000 --threads 1 --read-ratio 0.0 --seed 777 \
    --retry-attempts 10 --retry-deadline-ms 30000 \
    > "$WORK/load1.out" 2>&1 &
LOAD_PID=$!
echo "$LOAD_PID" >> "$WORK/chaos.pids"
sleep 2
kill -9 "$SERVE_PID"        # the machine "dies" mid-run
wait "$SERVE_PID" 2>/dev/null || true
kill -9 "$LOAD_PID" 2>/dev/null || true
wait "$LOAD_PID" 2>/dev/null || true

# The WAL holds the acked prefix.
test -f "$WORK/store/wal.tlpw"
test "$(stat -c %s "$WORK/store/wal.tlpw")" -gt 8

# --- 2. Restart: the server replays the WAL and says so. ---------------
start_server "$WORK/serve2.out"
recovered=$(sed -n 's/.* \([0-9][0-9]*\) wal records recovered.*/\1/p' "$WORK/serve2.out.err")
test -n "$recovered"
test "$recovered" -gt 0
echo "chaos CI: restart recovered $recovered wal records"

# --- 3. Retry storm through the proxy against the live server. ---------
# The proxy still points at the dead server's address; restart it at the
# new upstream so faulted connections hit a live service.
kill -9 "$CHAOS_PID" 2>/dev/null || true
wait "$CHAOS_PID" 2>/dev/null || true
"$BIN/tlp-chaos" 127.0.0.1:0 "$SERVE_ADDR" --seed 4321 --clean-every 2 --stall-ms 200 \
    > "$WORK/chaos2.out" 2> "$WORK/chaos2.err" &
CHAOS_PID=$!
echo "$CHAOS_PID" >> "$WORK/chaos.pids"
wait_addr "$WORK/chaos2.out"
PROXY_ADDR=$ADDR

# Read-only so the byte-identity stream below stays exactly seed 777.
# Multiple threads force multiple connections into the fault schedule;
# retries must absorb every reset/truncation/corruption/stall.
loadgen "$PROXY_ADDR" --ops 800 --threads 4 --read-ratio 1.0 --seed 55 \
    --retry-attempts 10 --retry-deadline-ms 30000 | tee "$WORK/storm.out"
grep -q " 0 protocol errors" "$WORK/storm.out"
kill -9 "$CHAOS_PID" 2>/dev/null || true
wait "$CHAOS_PID" 2>/dev/null || true
cat "$WORK/chaos2.err" >&2 || true

# --- 4. Idempotent re-run + flush == uninterrupted offline replay. -----
# The same seed regenerates the same placement stream; the acked prefix
# dedups (fresh:false) without consulting the placer, so the decision
# sequence — and therefore the flushed bytes — match a run that never
# crashed.
loadgen "$SERVE_ADDR" --ops 20000 --threads 1 --read-ratio 0.0 --seed 777 \
    --flush --shutdown | tee "$WORK/load2.out"
grep -q " 0 protocol errors" "$WORK/load2.out"
wait "$SERVE_PID"

loadgen --replay "$WORK/store_direct" --placer hdrf \
    --ops 20000 --threads 1 --read-ratio 0.0 --seed 777 | tee "$WORK/replay.out"

# Byte-for-byte: every file, including the truncated (magic-only) WAL.
for f in "$WORK/store"/*; do
    cmp "$f" "$WORK/store_direct/$(basename "$f")"
done
diff -r "$WORK/store" "$WORK/store_direct"

echo "chaos CI: kill -9 lost zero acked placements, storm absorbed, flush bit-identical"
