#!/usr/bin/env bash
# Build the benchmark and run every workload (or one), printing
# `workload metric value unit n` lines; each run also leaves a JSON
# document under benchmark/out/.
#
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--trace] [--quick]
#
# --trace  also take the traced run (per-layer metrics, spans under out/)
# --quick  smoke mode: scale 1, one set-up, one pass per workload
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=0x10b3
workloads=(lubm16_warm small_cold lubm4_matrix lubm4_serve_rw)
traces=(0)
extra=()
while (($#)); do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --workload) workloads=("$2"); shift 2 ;;
        --seconds) extra+=(--seconds "$2"); shift 2 ;;
        --trace) traces=(0 1); shift ;;
        --quick) extra+=(--quick); shift ;;
        *) sed -n '2,9p' "${BASH_SOURCE[0]}" >&2; exit 2 ;;
    esac
done

JUCQ_E2E_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export JUCQ_E2E_COMMIT
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/jucq-e2e"

for workload in "${workloads[@]}"; do
    for trace in "${traces[@]}"; do
        # The last line is the driver's result object; people read the rest.
        "$bin" --workload "$workload" --seed "$seed" --trace "$trace" ${extra[@]+"${extra[@]}"} | sed '$d'
    done
done
echo "JSON documents: $here/out/" >&2
