#!/usr/bin/env bash
# Reproduce every experiment (the analog of the paper's SLURM batch
# scripts, Appendix A). Run from the repository root.
set -euo pipefail

OUT=${OUT:-results}
mkdir -p "$OUT"

echo "== Table 1: the experiment matrix =="
cargo run --release -p bench --bin harness -- table1

echo
echo "== Figures 2 and 3: the 8-case placement/execution sweep =="
cargo run --release -p bench --bin harness -- figure2 --out "$OUT"

echo
echo "== Figure 1: n-body + mass-sum binning in the x-y and x-z planes =="
cargo run --release -p bench --bin figure1 -- --out "$OUT/figure1"

echo
echo "== The paper's 90-operation XML workload, both execution methods =="
cargo run --release -p bench --bin harness -- run-config configs/sensei_xml/binning_90ops_lockstep.xml --steps 5
cargo run --release -p bench --bin harness -- run-config configs/sensei_xml/binning_90ops_async.xml --steps 5
cargo run --release -p bench --bin harness -- run-config configs/sensei_xml/binning_90ops_fused.xml --steps 5

echo
echo "== The A/B modes: rows and claims to $OUT/BENCH_<mode>.jsonl =="
for mode in binning chaos snapshot dag scale adaptive serve; do
    cargo run --release -p bench --bin harness -- "$mode" --out "$OUT"
done

echo
echo "== Benchmark spine: four workloads, end-to-end + per-layer metrics =="
bash benchmarks/run.sh

echo
echo "All experiment outputs are under $OUT/ and benchmarks/out/."
