//! # spine — the benchmark spine
//!
//! Four named workloads, five end-to-end metrics measured with tracing
//! off, and per-layer spans, counters and probes measured from outside
//! the program in a separate traced run. See `README.md` for how to run
//! it, what every metric means, and which public signatures it holds.

pub mod calib;
pub mod check;
pub mod compare;
pub mod env;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod procstat;
pub mod run;
pub mod segment;
pub mod stats;
pub mod synth;
pub mod trace;
pub mod workloads;

/// Seconds one run measures for unless `--seconds` says otherwise; equal
/// to `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_RUN_SECONDS: f64 = 18.0;
