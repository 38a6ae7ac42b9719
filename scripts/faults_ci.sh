#!/bin/bash
# CI check for the fault-tolerance pipeline: generate a 100k-edge Chung-Lu
# graph, SIGKILL a checkpointed TLP run at a seeded (and logged) random
# point mid-run, resume from the checkpoint directory, and require the
# final edge assignment to be byte-identical to the uninterrupted run.
# Invoked from the repo root. Override the kill point with FAULTS_CI_SEED.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# The crash run is killed with SIGKILL, so $! must be the partitioner
# process itself — build once and background the binary directly. Both
# `cargo run` and a backgrounded shell function would put an intermediate
# process in $!, and killing that orphans the partitioner, which then
# races the resume run for the checkpoint directory.
cargo build --release -q --bin tlp-cli
BIN=./target/release/tlp-cli
cli() { "$BIN" "$@"; }
metrics() { grep -E '^(replication factor|balance|spanned vertices):' "$1"; }

SEED="${FAULTS_CI_SEED:-11}"
P=32
RUN_SEED=7

cli generate --family chung-lu --vertices 30000 --edges 100000 --seed "$SEED" \
    --output "$WORK/graph.txt"

# Baseline: the uninterrupted run whose assignment the resumed run must
# reproduce bit for bit. Its wall time scales the kill point below.
BASE_START=$(date +%s%N)
cli partition --input "$WORK/graph.txt" --format text --algorithm tlp \
    --partitions "$P" --seed "$RUN_SEED" --output "$WORK/base.tsv" \
    > "$WORK/base.txt"
BASE_MS=$(( ($(date +%s%N) - BASE_START) / 1000000 ))
metrics "$WORK/base.txt" > "$WORK/base.metrics"

# Seeded, logged kill point: 10..70% of the baseline's wall time into the
# checkpointed run (the multiplier is Knuth's 2654435761, so nearby seeds
# scatter widely).
KILL_PCT=$(( (SEED * 2654435761 + 12345) % 61 + 10 ))
KILL_MS=$(( BASE_MS * KILL_PCT / 100 ))
echo "crash run: SIGKILL after ${KILL_MS}ms, ${KILL_PCT}% of the ${BASE_MS}ms baseline (FAULTS_CI_SEED=$SEED)"
"$BIN" partition --input "$WORK/graph.txt" --format text --algorithm tlp \
    --partitions "$P" --seed "$RUN_SEED" --checkpoint "$WORK/ckpt" \
    --output "$WORK/crash.tsv" > "$WORK/crash.txt" 2>&1 &
PID=$!
sleep "$(awk -v ms="$KILL_MS" 'BEGIN { printf "%.3f", ms / 1000 }')"
kill -9 "$PID" 2>/dev/null || true
STATUS=0
wait "$PID" 2>/dev/null || STATUS=$?
if [ "$STATUS" -eq 0 ]; then
    echo "error: the crash run finished before the kill fired, so the resume" \
        "would test nothing (FAULTS_CI_SEED=$SEED: kill at ${KILL_MS}ms," \
        "baseline ${BASE_MS}ms)" >&2
    exit 1
fi
echo "killed pid $PID mid-run (exit status $STATUS)"

if [ -f "$WORK/ckpt/checkpoint.tlpc" ]; then
    echo "checkpoint survived: $(stat -c%s "$WORK/ckpt/checkpoint.tlpc") bytes"
else
    echo "killed before the first round committed; resume restarts from round 0"
fi

# Resume and require bit-identity with the baseline: same assignment
# bytes, same metrics lines.
cli partition --input "$WORK/graph.txt" --format text --algorithm tlp \
    --partitions "$P" --seed "$RUN_SEED" --checkpoint "$WORK/ckpt" --resume \
    --output "$WORK/resumed.tsv" > "$WORK/resumed.txt" 2> "$WORK/resumed.log"
grep -E '^(resuming from|no checkpoint in)' "$WORK/resumed.log"
metrics "$WORK/resumed.txt" > "$WORK/resumed.metrics"
cmp "$WORK/base.tsv" "$WORK/resumed.tsv"
diff "$WORK/base.metrics" "$WORK/resumed.metrics"

rf=$(awk '/^replication factor:/ {print $NF}' "$WORK/resumed.txt")
echo "faults pipeline OK: resumed run is bit-identical to the baseline, RF $rf"
