#!/usr/bin/env bash
# The checks CI runs, runnable locally: formatting, lints, tier-1 build
# and tests. Everything is offline — the workspace vendors its few
# dependencies as path crates.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== harness binning smoke (fused apparent cost <= per-op)"
# Exits non-zero if the fused arm's lockstep apparent in situ cost
# exceeds the per-op reference, or if the fused counters are off
# (allreduces != 1/step, kernels/downloads != 1 per fetched block).
cargo run --release -p bench --bin harness -- binning \
    --bodies 512 --steps 4 --resolution 32 --out /tmp/ci_binning

echo "== harness chaos smoke (fault injection + recovery)"
# The harness hard-asserts the recovery claims itself (retry recovers
# every injected fault with bit-identical results, skip_step drops
# exactly one step and finishes); the grep re-checks the written report
# so a silently-empty JSON also fails CI.
cargo run --release -p bench --bin harness -- chaos \
    --seed 7 --out /tmp/ci_chaos
grep -q '"arm": "retry".*"faults_recovered": 4.*"faults_aborted": 0.*"bit_identical_to_baseline": true' \
    /tmp/ci_chaos/BENCH_chaos.json
grep -q '"arm": "skip_step".*"faults_skipped": 1.*"faults_aborted": 0' \
    /tmp/ci_chaos/BENCH_chaos.json

echo "== harness snapshot smoke (deep vs CoW snapshots)"
# The harness hard-asserts the deterministic snapshot claims itself
# (cow results bit-identical to the deep reference, cow
# eager-copies nothing and its fault traffic never exceeds deep's; the
# scheduling-sensitive >=70% byte reduction only warns); the greps
# re-check the written report: deep never shares or faults, cow shares
# every capture, eager-copies nothing, and stays bit-identical.
cargo run --release -p bench --bin harness -- snapshot \
    --bodies 512 --steps 6 --out /tmp/ci_snapshot
grep -Eq '"mode": "deep".*"arrays_shared": 0, .*"cow_faults": 0' \
    /tmp/ci_snapshot/BENCH_snapshot.json
grep -Eq '"mode": "cow".*"arrays_shared": [1-9][0-9]*, "arrays_copied": 0, .*"bit_identical_to_deep": true' \
    /tmp/ci_snapshot/BENCH_snapshot.json

echo "== harness dag smoke (work-stealing dataflow execution)"
# The harness hard-asserts the dag claims itself (every arm bit-identical
# to the inline engine, the dag arm beating the async-fused arm on both
# total wall time and apparent cost); the grep re-checks the written
# report for the scheduler evidence — a nonzero steal count and zero
# aborted tasks on the dag arm.
cargo run --release -p bench --bin harness -- dag \
    --steps 6 --out /tmp/ci_dag
grep -Eq '"arm": "dag/deep".*"steals": [1-9][0-9]*.*"faults_aborted": 0.*"bit_identical_to_inline": true' \
    /tmp/ci_dag/BENCH_dag.json

echo "== harness scale smoke (hierarchical vs flat collectives)"
# The harness hard-asserts the scale claims itself (bit identity at
# every rank count, fewer inter-node messages on every multi-node
# point, a modeled-total win at the largest count, and the fused
# suite's 1-allreduce-per-step invariant on the tiered path); the greps
# re-check the written report — every point bit-identical, the 16-rank
# multi-node points beating flat on inter-node traffic, and the check
# arm's counters populated.
cargo run --release -p bench --bin harness -- scale \
    --rank-counts 4,16 --out /tmp/ci_scale
grep -q '"bit_identical": true' /tmp/ci_scale/BENCH_scale.json
! grep -q '"bit_identical": false' /tmp/ci_scale/BENCH_scale.json
grep -Eq '"ranks": 16.*"hier_fewer_inter_messages": true' \
    /tmp/ci_scale/BENCH_scale.json
grep -q '"fused_one_allreduce_per_step": true, "tier_counters_populated": true' \
    /tmp/ci_scale/BENCH_scale.json

echo "== harness adaptive smoke (closed-loop placement & autotuning)"
# The harness hard-asserts the adaptive claims itself (the steady
# adaptive arm starts from the worst static configuration and settles
# within the step bound at a steady-state apparent cost within 10% of
# the best static arm; the drift adaptive arm beats every static arm
# end-to-end; every arm bit-identical; zero aborted dispatches); the
# greps re-check the written report so a silently-empty JSON also
# fails CI.
cargo run --release -p bench --bin harness -- adaptive \
    --out /tmp/ci_adaptive
grep -q '"converged_within_tolerance": true' /tmp/ci_adaptive/BENCH_adaptive.json
grep -q '"drift_adaptive_beats_all_statics": true' /tmp/ci_adaptive/BENCH_adaptive.json
grep -q '"all_bit_identical": true' /tmp/ci_adaptive/BENCH_adaptive.json
grep -q '"zero_aborts": true' /tmp/ci_adaptive/BENCH_adaptive.json
! grep -q '"aborted": [1-9]' /tmp/ci_adaptive/BENCH_adaptive.json

echo "== harness serve smoke (zero-copy fan-out + steering)"
# The harness hard-asserts the serving claims itself (bytes serialized
# per step identical across session counts, zero missed frames for
# block-policy fast clients, binned results independent of the
# audience, steered run bit-identical to its direct-reconfiguration
# replay); the greps re-check the written report so a silently-empty
# JSON also fails CI.
cargo run --release -p bench --bin harness -- serve \
    --sessions 16,64 --out /tmp/ci_serve
grep -q '"flat_bytes_across_sessions": true' /tmp/ci_serve/BENCH_serve.json
grep -q '"zero_fast_drops": true' /tmp/ci_serve/BENCH_serve.json
grep -q '"results_identical_across_arms": true' /tmp/ci_serve/BENCH_serve.json
grep -q '"steering_bit_identical": true' /tmp/ci_serve/BENCH_serve.json
grep -Eq '"steers_applied": [1-9]' /tmp/ci_serve/BENCH_serve.json

echo "== benchmark spine smoke + contract tests"
# The spine is its own package (benchmarks/), outside the workspace, so
# nothing above builds it. The smoke run walks all four workloads at tiny
# sizes and fails on a bit-identity mismatch against the host per-op
# oracle or a wrong in-range row count — what a broken binning kernel
# trips first; the contract tests pin the public crate API the spine
# drives.
bash benchmarks/run.sh all --smoke
# The launch structure of the fused step, read off the smoke run's traced
# rows_real counters — a guard that times nothing. One of the workload's
# three segments is device-placed and two are host-placed, each over one
# table per rank: one kernel launch and one packed download per table is
# a third of each per step, one host pass per table is two thirds. A
# slide back to a launch per coordinate system reads 3, not 1/3.
traced=benchmarks/out/rows_real.traced.json
for want in 'kernel_launches_per_step": {"value": 0.3333' \
            'downloads_per_step": {"value": 0.3333' \
            'table_passes_per_step": {"value": 0.6666'; do
    if ! grep -q "\"binning.$want" "$traced"; then
        echo "FAIL: $traced: binning.${want%%\"*} is not ${want##* } (one pass per table)"
        exit 1
    fi
done
(cd benchmarks && cargo test --release --offline)

echo "== documented results present"
# Every BENCH_*.json a doc references must exist in results/ — a
# documented experiment whose committed report is missing is a doc bug
# (this is how BENCH_binning/BENCH_snapshot/BENCH_chaos went missing).
for f in $(grep -ohE 'BENCH_[a-z0-9_]+\.json' EXPERIMENTS.md README.md | sort -u); do
    if [ ! -f "results/$f" ]; then
        echo "FAIL: $f is referenced by the docs but missing from results/"
        exit 1
    fi
done

echo "ci.sh: all checks passed"
