#!/bin/bash
# Harness smoke: the Table VI experiment (TLP's per-selection trace) and the
# Figs. 9-11 TLP_R sweep (TLP plus TLP_R at R = 0.0 .. 1.0), run on the
# quick G1 dataset. Both CSVs must match the checked-in goldens byte for
# byte. Every run is seeded, and trial/thread fan-out never changes a
# result, so the numbers are bit-stable across machines and thread counts.
#
# Regenerate the goldens after an intentional algorithm change with:
#   bash scripts/harness_ci.sh --regen
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

EXPERIMENTS=(table6 fig9_10_11)

cargo build --release -q -p tlp-harness
for exp in "${EXPERIMENTS[@]}"; do
    "target/release/$exp" --quick --datasets G1 --threads 2 \
        --out-dir "$WORK" > /dev/null
    golden="scripts/harness_${exp}_golden.csv"
    if [[ "${1:-}" == "--regen" ]]; then
        cp "$WORK/$exp.csv" "$golden"
        echo "regenerated $golden"
    else
        diff "$golden" "$WORK/$exp.csv"
        echo "harness smoke OK: $exp.csv matches $golden"
    fi
done
