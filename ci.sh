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

echo "== recovery suites, 5 release passes"
# The step runner applies a back-end's recovery policy per node, through
# one function, under every method, so a race or hang on a recovery path
# shows up in these suites: the runner's and the policy's own unit tests
# (sensei's lib tests `scheduler::tests` and `recovery::tests`), the
# engine's failure paths, and the multi-rank binning step under injected
# faults (watchdogged, so a hang fails in seconds).
start=$SECONDS
runner=$(cargo test --release --no-run -q --message-format=json -p sensei --lib | executables)
suites=$(cargo test --release --no-run -q --message-format=json \
    -p sensei -p binning --test engine_failures --test dag_execution | executables)
built=$SECONDS
for _ in $(seq 5); do
    soak "$runner" -q scheduler::tests recovery::tests
    for suite in $suites; do
        soak "$suite" -q
    done
done
echo "release test build $((built - start)) s, 5 passes $((SECONDS - built)) s"

echo "== binning fold, one release pass"
# The fused kernel's fold is compiled once per lane shape, and only a
# release build optimises those instantiations: the property tests and
# the unit tests of both kernels that fold through it (host and device)
# run here against the code the benchmark times, not only in the debug
# build of `cargo test -q`, and so does the step's reduce-scatter.
start=$SECONDS
unit=$(cargo test --release --no-run -q --message-format=json -p binning --lib | executables)
props=$(cargo test --release --no-run -q --message-format=json -p binning \
    --test proptest_invariants | executables)
scatter=$(cargo test --release --no-run -q --message-format=json -p minimpi \
    --test proptest_reduce_scatter | executables)
built=$SECONDS
soak "$unit" -q host_impl::tests device_impl::tests
soak "$props" -q
soak "$scatter" -q
echo "release test build $((built - start)) s, 1 pass $((SECONDS - built)) s"

echo "== harness smokes"
# One A/B per mode at smoke sizes. Each mode's claims are defined once,
# in its `impl Report` under crates/bench/src; the harness writes
# BENCH_<mode>.jsonl and then exits non-zero iff a gating claim failed
# (or the report could not be written), so the exit status is the gate.
# The run-config smoke runs the one shipped config that builds a
# multi-node world (4 ranks on 2 nodes, tiered collectives, network
# charged at time scale 1); it writes no report, and fails on a panic.
for smoke in "binning --bodies 512 --steps 4 --resolution 32" \
             "chaos --seed 7" \
             "snapshot --bodies 512 --steps 6" \
             "dag --steps 6" \
             "scale --rank-counts 4,16" \
             "serve --sessions 16,64" \
             "run-config configs/sensei_xml/binning_hierarchical.xml --bodies 512 --steps 2"; do
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
# header of 1 + 9 cells, then per spec its touched bins' indices and 10
# values each (the count grid and nine ops: the spec's own count() reads
# the count grid, it is no grid of its own) — all nine sparse here,
# 111 115 touched bins over the 3 timed steps x 2 ranks x 9 specs (50 %
# of 4 096). That is (3 x 2 x 10 + 111 115 x 11) x 8 B / 3 =
# 3 259 533.33 B a step, and the mean of the three segments
# ((3·2·10 + 111 115·11)·8/3 + 196 608)/3 = 1 152 047.11 B. A duplicate
# count grid reads 1 250 816; dense grids 2 228 224; moving the nine
# unchanged columns again, every step, adds 196 608 more.
# Beside them, what the grid round moves, per step over both ranks (the
# three segments move alike). Rank 0 owns specs 0-3 and rank 1 specs 4-8
# (nine equal specs, the remainder to the higher rank). The
# reduce-scatter sends rank 0's cut of specs 4-8 to rank 1 and rank 1's
# cut of specs 0-3 to rank 0: headers of 1 + 5 and 1 + 4 cells and a
# trailing word each (13 cells), then 11 cells per touched bin, 55 351
# bins over the 3 timed steps. Then rank 1 sends its five finished specs
# up, dense: 5 x 10 arrays x 4 096 bins x 8 B = 1 638 400 B. Per rank:
# ((3·13 + 55 351·11)·8/3 + 1 638 400)/2 = 1 631 066.67 B. The grid
# allreduce it replaced (rank 1's whole block up, the merged block down)
# read 1 802 070.67.
traced=benchmarks/out/rows_real.traced.json
for want in 'binning.kernel_launches_per_step": {"value": 0.3333' \
            'binning.downloads_per_step": {"value": 0.3333' \
            'binning.table_passes_per_step": {"value": 0.6666' \
            'devsim.d2h_bytes_per_step": {"value": 1152047.11' \
            'minimpi.bytes_per_step": {"value": 1631066.66'; do
    if ! grep -q "\"$want" "$traced"; then
        echo "FAIL: $traced: ${want%%\"*} is not ${want##* }"
        exit 1
    fi
done
# The same structure where the step's one task graph runs two ways:
# fused90_real runs its nine-spec suite over one table per rank in
# lockstep (one kernel per table, default streams) and under dag (one
# kernel per spec, spread over the devices when the graph is planned),
# both on a device with auto bounds. Lockstep launches the bounds kernel
# and one fused kernel over every spec, each with its download: 2 of
# each a step. The dag graph keeps one kernel, and download, per spec:
# 1 + 9 = 10. The mean of the two segments is 6. Only dag counts
# scheduler tasks: fetch, 9 kernels, 9 downloads, reduce and publish are
# 21 a step, a mean of 10.5. A whole-table kernel under dag reads 2
# launches and 2.5 tasks; an in-order scheduler that counted its five
# tasks, 13 tasks; a kernel per spec in lockstep, 10 launches.
# Beside them, the spread's signature. Each rank's placement is its own
# device (of 2), and the planner deals its nine equal specs greedily: 5
# stay, 4 go to the other device, whose kernels read the table's union
# columns there. Of the twelve, the solver rewrites eleven every step
# (not mass, whose kept version is granted), so the dag segment moves
# 11 columns x 512 rows x 8 B = 45 056 B per rank and step; over 2 ranks
# and the mean of the two segments (lockstep moves none), 45 056 B a
# step. 0 means no kernel left the placement device; 49 152 that the
# unchanged column moves again. The downloads are the lockstep ones plus
# headers: a per-spec block carries a 2-cell header where the per-table
# block carries 1 + 9, so the dag segment downloads 8 cells more per rank
# and step, 376 816 B a step in all, the solver's x, y, z of its 1 024
# bodies among them (its masses gather once, at set-up: downloading them
# every step too, 8 B x 1 024 more, reads 385 008); a kernel per table
# under dag reads 64 B less, dense blocks far more. Nothing moves a task
# once planned: no steals.
traced=benchmarks/out/fused90_real.traced.json
for want in 'binning.kernel_launches_per_step": {"value": 6,' \
            'binning.downloads_per_step": {"value": 6,' \
            'sensei.sched_tasks_per_step": {"value": 10.5,' \
            'devsim.d2d_bytes_per_step": {"value": 45056,' \
            'devsim.d2h_bytes_per_step": {"value": 376816,' \
            'sensei.sched_steals_per_step": {"value": 0,'; do
    if ! grep -q "\"$want" "$traced"; then
        echo "FAIL: $traced: ${want%%\"*} is not ${want##* }"
        exit 1
    fi
done
# The paper's nine one-spec data_binning back-ends share one engine and
# run one fused step between them, like the hand-written suite: per rank
# and step one svtk fetch, the bounds allreduce and the grid
# reduce-scatter (2 reduction rounds), and minimpi's 6 collectives — the
# bounds allreduce's reduce and broadcast, the reduce-scatter and the
# results gather (4), plus the solver's own 2. Nine engines read 9
# fetches, 18 rounds and 38 collectives.
# Beside them, what those collectives carry, per step over both ranks.
# The bounds round: 6 auto-bounded axis columns x (lo, hi) x 8 B, up and
# down, 192 B. The solver's exchange: rank 1's 1 030 bodies x 3
# positions up, the 2 lengths and all 2 048 bodies x 3 down, (3 090 + 2 +
# 6 144) x 8 = 73 888 B (masses gather once, at set-up; with them every
# step, x 4 values, 98 512). The grid round: rank 0 owns specs 0-3 and
# rank 1 specs 4-8, and each rank sends the other its cut of the other's
# specs — a header of 1 + 5 or 1 + 4 cells and a trailing word (13
# cells), then 11 cells per touched bin (its index, the count grid and
# nine ops: at about 1 024 rows a rank the nine specs never go dense).
# Over the 3 timed steps those cuts touch 9 032 bins: (3·13 + 9 032·11)
# x 8 / 3 = 265 042.67 B a step. The results: rank 1's five finished specs go up,
# 5 x 10 arrays x 4 096 bins x 8 B = 1 638 400 B. Per rank: (192 +
# 73 888 + 265 042.67 + 1 638 400) / 2 = 988 761.33 B. The grid
# allreduce it replaced (rank 1's block up, the merged block down) read
# 428 902.67 beside the old exchange.
# Beside them, what the solver uploads: each rank the other's x, y, z,
# 3 x 8 B x 1 030 + 3 x 8 B x 1 018 = 49 152 B a step over both ranks.
# Its own bodies stay on its device and every mass went up at set-up;
# uploading every body's (x, y, z, m) each step read 131 072.
traced=benchmarks/out/paper90_lockstep_modeled.traced.json
for want in 'minimpi.collectives_per_step": {"value": 6,' \
            'binning.allreduces_per_step": {"value": 2,' \
            'svtk.fetch_calls_per_step": {"value": 1,' \
            'minimpi.bytes_per_step": {"value": 988761.33' \
            'devsim.h2d_bytes_per_step": {"value": 49152,'; do
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

echo "== documented targets present"
# Every example, binary and shipped XML config the docs tell a reader to
# run must exist: a doc naming a deleted target is a doc bug.
missing() { echo "FAIL: $1 is named by the docs but $2 is missing"; exit 1; }
run_docs="README.md .claude/skills/verify/SKILL.md configs/run/run_all.sh"
# shellcheck disable=SC2086
for name in $(grep -ohE -- '--example [A-Za-z0-9_]+' $run_docs | cut -d' ' -f2 | sort -u); do
    [ -f "examples/$name.rs" ] || missing "--example $name" "examples/$name.rs"
done
# shellcheck disable=SC2086
for name in $(grep -ohE -- '--bin [A-Za-z0-9_]+' $run_docs | cut -d' ' -f2 | sort -u); do
    compgen -G "crates/*/src/bin/$name.rs" > /dev/null || missing "--bin $name" "crates/*/src/bin/$name.rs"
done
# shellcheck disable=SC2086
for name in $(grep -ohE '[A-Za-z0-9_]+\.xml' $run_docs configs/README.md | sort -u); do
    [ -f "configs/sensei_xml/$name" ] || missing "$name" "configs/sensei_xml/$name"
done
# Every harness mode the docs run — `harness -- <mode>`, read across
# backslash-continued lines, and run_all.sh's mode loop — must be one
# harness.rs's argument `match` accepts.
harness=crates/bench/src/bin/harness.rs
known=$(sed -n '/match args\[i\].as_str() {/,/"--/p' "$harness" | grep -oE '"[a-z0-9-]+"' |
    tr -d '"' | grep -v '^-')
# shellcheck disable=SC2086
modes=$(sed -e ':a' -e '/\\$/{N; s/[[:space:]]*\\\n[[:space:]]*/ /; ba' -e '}' $run_docs configs/README.md |
    grep -ohE 'harness -- [a-z][a-z0-9-]*' | cut -d' ' -f3)
modes="$modes $(sed -n 's/^for mode in \(.*\); do$/\1/p' configs/run/run_all.sh)"
for mode in $modes; do
    grep -qx "$mode" <<< "$known" || missing "harness -- $mode" "that mode in $harness"
done

echo "== docs stay small"
# A reader can finish the two long docs: history lives in git and
# CHANGES.md, not in tables re-pasted into them.
for doc in EXPERIMENTS.md DESIGN.md; do
    lines=$(wc -l < "$doc")
    if [ "$lines" -gt 800 ]; then
        echo "FAIL: $doc has $lines lines (at most 800)"
        exit 1
    fi
done

echo "== DESIGN.md citations resolve"
# Every `DESIGN.md §N` (or `DESIGN §N`, or a list `§N, §M` after it)
# anywhere in the repo, read across line breaks and comment markers,
# must name a `## N.` heading of DESIGN.md.
cited=$(grep -rlZ --exclude-dir=.git --exclude-dir=target --exclude-dir=out -e DESIGN . |
    xargs -0 sed -E 's@^[[:space:]]*(//[/!]?|#+|\*)?[[:space:]]*@@' | tr '\n' ' ' |
    { grep -oE 'DESIGN(\.md)?`? +§[0-9]+(, §[0-9]+)*' || true; } | grep -oE '[0-9]+' | sort -un)
for n in $cited; do
    if ! grep -q "^## $n\. " DESIGN.md; then
        echo "FAIL: DESIGN.md §$n is cited but DESIGN.md has no '## $n.' heading"
        exit 1
    fi
done

echo "== doc test citations resolve"
# Every test DESIGN.md or EXPERIMENTS.md cites in backticks —
# `<path/>name.rs::fn`, `name.rs::{a, b}` (or `name.rs::prefix_{a, b}`) and
# `module::tests::fn`, read across line breaks — must be a `fn` in a file
# name.rs (module.rs) under crates/, tests/ or src/: a doc naming a deleted
# or renamed test is a doc bug.
cites=$(for doc in DESIGN.md EXPERIMENTS.md; do
    tr '\n' ' ' < "$doc" | { grep -oE '`[^`]+`' || true; } |
        { grep -oE '[a-z0-9_]+(\.rs|::tests)::[a-z0-9_]*(\{[^}]*\})?' || true; }
done | sed -E 's/(\.rs|::tests)::/ /; s/\{/ { /; s/[},]/ /g' |
    awk '$2 != "{" && $3 != "{" { print $1, $2 }
         $2 == "{" || $3 == "{" { p = ($2 == "{") ? "" : $2
                                  for (i = ($2 == "{") ? 3 : 4; i <= NF; i++) print $1, p $i }' |
    sort -u)
while read -r file fn; do
    [ -n "$file" ] || continue
    files=$(find crates tests src -name "$file.rs")
    # shellcheck disable=SC2086
    if [ -z "$files" ] || ! grep -qE "fn $fn\b" $files; then
        echo "FAIL: the docs cite $file.rs::$fn but no $file.rs under crates/, tests/ or src/ has fn $fn"
        exit 1
    fi
done <<< "$cites"

echo "ci.sh: all checks passed"
