#!/usr/bin/env bash
# The checks CI runs, runnable locally: formatting, lints, tier-1 build
# and tests. Everything is offline — the workspace vendors its few
# dependencies as path crates.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
# Every crate root under crates/ denies `unsafe_code`; the one module
# allowed it is devsim's lease module (crates/devsim/src/lease.rs), next to
# the SAFETY argument its read-view casts rest on. The build enforces it.
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps --workspace (warnings denied)"
# Broken intra-doc links, and public docs linking to private items, fail
# here rather than rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== CoW and version-table suites, 20 release passes"
# These suites find races only in the interleavings the OS scheduler
# happens to produce, so one tier-1 pass is a weak gate for the version
# table they exercise: run each 20 more times against one release build.
executables() { grep -o '"executable":"[^"]*"' | sed 's/^"executable":"//; s/"$//'; }
soak() {
    "$@" > target/ci/soak.log 2>&1 || { cat target/ci/soak.log; echo "FAIL: $*"; exit 1; }
}
mkdir -p target/ci
start=$SECONDS
memory_tests=$(cargo test --release --no-run -q --message-format=json -p devsim --lib | executables)
suites=$(cargo test --release --no-run -q --message-format=json \
    -p devsim -p hamr -p sensei -p binning --test proptest_leases --test proptest_buffers \
    --test proptest_snapshot_cow --test serve_cow_stress --test cow_borrow --test residency |
    executables)
built=$SECONDS
for _ in $(seq 20); do
    soak "$memory_tests" -q memory::tests
    for suite in $suites; do
        soak "$suite" -q
    done
done
echo "release test build $((built - start)) s, 20 passes $((SECONDS - built)) s"

echo "== harness smokes"
# One A/B per mode at smoke sizes. Each mode's claims are defined once,
# in its `impl Report` under crates/bench/src; the harness writes
# BENCH_<mode>.jsonl and then exits non-zero iff a gating claim failed
# (or the report could not be written), so the exit status is the gate.
for smoke in "binning --bodies 512 --steps 4 --resolution 32" \
             "chaos --seed 7" \
             "snapshot --bodies 512 --steps 6" \
             "dag --steps 6" \
             "scale --rank-counts 4,16" \
             "adaptive" \
             "serve --sessions 16,64"; do
    # shellcheck disable=SC2086
    cargo run --release -p bench --bin harness -- $smoke --out "target/ci/${smoke%% *}"
done

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
# Beside it, what crosses the link. The smoke's producer rewrites x, y, z
# of its twelve 4 096-row columns, so the device_to_host segment moves
# 3 columns x 2 ranks x 32 768 B = 196 608 B a step. The device segment
# downloads each rank's block only as far as its kernel filled it: a
# header of 1 + 9 cells, then per spec its touched bins' indices and 11
# values each — all nine sparse here, 111 115 touched bins over the 3
# timed steps x 2 ranks x 9 specs (50 % of 4 096). That is
# (3 x 2 x 10 + 111 115 x 12) x 8 B / 3 = 3 555 840 B a step, and the
# mean of the three segments (3 555 840 + 196 608) / 3 = 1 250 816 B.
# Dense grids read 2 228 224; moving the nine unchanged columns again,
# every step, adds 196 608 more.
traced=benchmarks/out/rows_real.traced.json
for want in 'binning.kernel_launches_per_step": {"value": 0.3333' \
            'binning.downloads_per_step": {"value": 0.3333' \
            'binning.table_passes_per_step": {"value": 0.6666' \
            'devsim.d2h_bytes_per_step": {"value": 1250816,'; do
    if ! grep -q "\"$want" "$traced"; then
        echo "FAIL: $traced: ${want%%\"*} is not ${want##* }"
        exit 1
    fi
done
# The same structure where the two executors of the step's one task graph
# meet: fused90_real runs its nine-spec suite over one table per rank in
# lockstep (the in-order executor) and under dag (work stealing), both on
# a device with auto bounds. Lockstep launches the bounds kernel and one
# fused kernel over every spec, each with its download: 2 of each a step.
# The work-stealing graph keeps one stealable kernel, and download, per
# spec: 1 + 9 = 10. The mean of the two segments is 6. Only dag counts
# scheduler tasks: fetch, 9 kernels, 9 downloads, reduce and publish are
# 21 a step, a mean of 10.5. A whole-table kernel under dag reads 2
# launches and 2.5 tasks; an in-order executor that counted its five
# tasks, 13 tasks; a kernel per spec in lockstep, 10 launches.
traced=benchmarks/out/fused90_real.traced.json
for want in 'binning.kernel_launches_per_step": {"value": 6,' \
            'binning.downloads_per_step": {"value": 6,' \
            'sensei.sched_tasks_per_step": {"value": 10.5,'; do
    if ! grep -q "\"$want" "$traced"; then
        echo "FAIL: $traced: ${want%%\"*} is not ${want##* }"
        exit 1
    fi
done
(cd benchmarks && cargo test --release --offline)

echo "== documented results present"
# Every BENCH_*.jsonl a doc references must exist in results/ — a
# documented experiment whose committed report is missing is a doc bug.
for f in $(grep -ohE 'BENCH_[a-z0-9_]+\.jsonl' EXPERIMENTS.md README.md | sort -u); do
    if [ ! -f "results/$f" ]; then
        echo "FAIL: $f is referenced by the docs but missing from results/"
        exit 1
    fi
done

echo "ci.sh: all checks passed"
