#!/bin/bash
# CI check for the out-of-core store pipeline: generate a 100k-edge
# Chung-Lu graph, convert it to a .tlpg binary store, partition it
# streaming off disk with a 1024-edge budget, and require the metrics to
# match the in-memory run line for line. Invoked from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

cli() { cargo run --release -q --bin tlp-cli -- "$@"; }
convert() { cargo run --release -q -p tlp-store --bin tlp-convert -- "$@"; }
metrics() { grep -E '^(replication factor|balance|spanned vertices):' "$1"; }

cli generate --family chung-lu --vertices 30000 --edges 100000 --seed 11 \
    --output "$WORK/graph.txt"
convert to-bin "$WORK/graph.txt" "$WORK/graph.tlpg"
convert info "$WORK/graph.tlpg"

# HDRF streamed off the binary store at a 1024-edge budget vs. the same
# placement with every edge in memory at once (budget > m, single chunk).
cli partition --input "$WORK/graph.tlpg" --format bin --algorithm hdrf \
    --partitions 8 --stream-budget 1024 --out-store "$WORK/store" \
    > "$WORK/hdrf_stream.txt"
cli partition --input "$WORK/graph.txt" --format text --algorithm hdrf \
    --partitions 8 --stream-budget 100000000 > "$WORK/hdrf_memory.txt"
metrics "$WORK/hdrf_stream.txt" > "$WORK/hdrf_stream.metrics"
metrics "$WORK/hdrf_memory.txt" > "$WORK/hdrf_memory.metrics"
diff "$WORK/hdrf_stream.metrics" "$WORK/hdrf_memory.metrics"

# The streamed run's peak buffer must respect the budget.
peak=$(awk '/^peak edge buffer:/ {print $NF}' "$WORK/hdrf_stream.txt")
test "$peak" -le 1024

# The CLI also wrote a partition store; its manifest must exist and carry
# the same replication factor the run reported. The manifest's RF is
# replicas / covered, the same f64 division the CLI prints with {:.4}.
test -f "$WORK/store/MANIFEST.tlp"
rf_run=$(awk '/^replication factor:/ {print $NF}' "$WORK/hdrf_stream.txt")
rf_manifest=$(awk '$1 == "replicas" {r = $2} $1 == "covered" {c = $2}
    END {printf "%.4f", (c > 0 ? r / c : 1)}' "$WORK/store/MANIFEST.tlp")
if [ "$rf_manifest" != "$rf_run" ]; then
    echo "manifest RF '$rf_manifest' != reported RF '$rf_run'" >&2
    exit 1
fi

# DBH: streamed binary vs. the plain materialized partitioner (both walk
# the edges in natural order with the same seed).
cli partition --input "$WORK/graph.tlpg" --format bin --algorithm dbh \
    --partitions 8 --stream-budget 1024 > "$WORK/dbh_stream.txt"
cli partition --input "$WORK/graph.txt" --format text --algorithm dbh \
    --partitions 8 > "$WORK/dbh_memory.txt"
metrics "$WORK/dbh_stream.txt" > "$WORK/dbh_stream.metrics"
metrics "$WORK/dbh_memory.txt" > "$WORK/dbh_memory.metrics"
diff "$WORK/dbh_stream.metrics" "$WORK/dbh_memory.metrics"

echo "store pipeline OK: streamed (budget 1024, peak $peak) == in-memory, RF $rf_run"
