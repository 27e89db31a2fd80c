//! # bench — the experiment harness
//!
//! Reproduces the paper's empirical evaluation (§4.3–§4.4): Newton++
//! coupled through SENSEI to the data-binning analysis on a simulated
//! four-device node, swept over the four in situ placements × two
//! execution methods of Table 1. The paper's 128-node/512-GPU runs scale
//! down to one simulated node; body counts, steps, and the time model
//! are configurable so the *shapes* — who wins, by what factor — can be
//! compared against the paper's Figures 2 and 3.

#![deny(unsafe_code)]

mod adaptive;
mod case;
mod chaos;
mod chart;
mod dag;
pub mod report;
mod scale;
mod serve;
mod snapshot;
mod workload;

pub use adaptive::{
    controls_label, run_adaptive_arm, run_adaptive_bench, AdaptiveArm, AdaptiveBenchConfig,
    AdaptiveBenchReport, AdaptiveSweep, Workload, ADAPTIVE_TOLERANCE, STATIC_ARMS,
};
pub use case::{
    bench_node_config, run_binning_bench, run_case, AggregatedCase, BinningReport, CaseConfig,
    CaseOutcome, PoolReport,
};
pub use chaos::{results_bit_identical, run_chaos, ChaosArm, ChaosConfig, ChaosReport};
pub use chart::{ascii_bars, ascii_stack};
pub use dag::{
    run_dag_arm, run_dag_bench, skewed_binning_specs, DagArm, DagBenchConfig, DagBenchReport,
};
pub use scale::{
    run_scale_bench, ScaleArm, ScaleBenchConfig, ScaleCheck, ScalePoint, ScaleReport, ScaleSweep,
};
pub use serve::{
    run_serve_arm, run_serve_bench, run_steering_pair, ServeArm, ServeBenchConfig,
    ServeBenchReport, SteeringOutcome,
};
pub use snapshot::{run_snapshot_bench, SnapshotArm, SnapshotBenchConfig, SnapshotReport};
pub use workload::{
    paper_binning_specs, paper_binning_specs_bounded, COORDINATE_SYSTEMS, VARIABLE_OPS,
};

/// Taken by every in-lib test that runs ranks. The adaptive and snapshot
/// tests assert on slept (modeled) costs, and any other test computing
/// beside them on the runner's two cores stretches those sleeps past the
/// margins they assert (phantom drift, a probe that loses to noise).
/// Almost all of this binary's time is sleep, so one at a time costs
/// ~0.2 s.
#[cfg(test)]
pub(crate) fn serial() -> parking_lot::MutexGuard<'static, ()> {
    static SERIAL: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    SERIAL.lock()
}
