#!/usr/bin/env bash
# Build the benchmark offline, then run it.
#
#   benchmarks/run.sh                          every workload, end-to-end then traced (= all)
#   benchmarks/run.sh all --repeat 2           two sets + the repeatability gate
#   benchmarks/run.sh all --smoke              tiny sizes, a few seconds: checks the plumbing
#   benchmarks/run.sh compare A B              regression rule on two rows.jsonl sets
#   benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1
#                                              one run; the last stdout line is its JSON result
#
# Works from any directory. The build goes to $CARGO_TARGET_DIR when set
# (relative paths are relative to the caller's directory, as for cargo),
# otherwise to benchmarks/target. Build output goes to stderr.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/spine"
case "${1:-all}" in
  --*) exec "$bin" run "$@" ;;
  *) exec "$bin" "${@:-all}" ;;
esac
