//! Snapshot mode: the bounded fused binning workload under the two
//! snapshot capture modes.
//!
//! Two arms of the same asynchronous, host-placed workload (Newton++
//! feeding a [`binning::BinningSuite`] over the bounded paper specs),
//! differing only in how the bridge's snapshot layer captures the
//! solver's arrays each step:
//!
//! 1. **deep** — the reference arm: every selected array is deep-copied
//!    at every capture, as the pre-CoW bridge always did.
//! 2. **cow** — every array is shared zero-copy at capture; a copy is
//!    materialized lazily only when the solver overwrites a still-pinned
//!    array. Because the host-placed suite fetches (and thereby detaches
//!    from) the shares early in the step while the solver's next kernels
//!    are still queued behind modeled launch overheads, only the arrays
//!    the first kernel writes fault — the steady-state copy traffic
//!    drops by the share of arrays that outrun the consumer.
//!
//! The arms run the identical simulation (same IC seed), so rank 0's
//! [`BinnedResult`] streams must be bit-identical across both: CoW
//! sharing must never let a capture observe post-capture writes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use devsim::{NodeConfig, SimNode};
use minimpi::World;
use newtonpp::{forces::Gravity, ic::UniformIc, IcKind, Newton, NewtonAdaptor, NewtonConfig};
use parking_lot::Mutex;
use sensei::{
    select_device, BackendControls, Bridge, ExecutionMethod, Placement, SnapshotCounterSnapshot,
    SnapshotMode,
};

use binning::{BinnedResult, BinningSuite, ResultSink};

use crate::case::bench_node_config;
use crate::chaos::results_bit_identical;
use crate::report::{Claim, Label, Report, Row};
use crate::workload::paper_binning_specs_bounded;

/// Scale of the snapshot A/B workload.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotBenchConfig {
    /// Global body count.
    pub bodies: usize,
    /// Simulation steps per arm (one capture per step).
    pub steps: u64,
    /// Binning mesh resolution per axis.
    pub resolution: usize,
    /// Binning instances in the suite.
    pub instances: usize,
    /// Multiplier on modeled durations.
    pub time_scale: f64,
}

impl Default for SnapshotBenchConfig {
    fn default() -> Self {
        SnapshotBenchConfig {
            bodies: 2048,
            steps: 10,
            resolution: 32,
            instances: 9,
            time_scale: 1.0,
        }
    }
}

/// Outcome of one snapshot arm.
#[derive(Debug, Clone)]
pub struct SnapshotArm {
    /// The capture mode the arm ran under.
    pub mode: SnapshotMode,
    /// Rank 0's sink: one [`BinnedResult`] per (delivered step, spec).
    pub results: Vec<BinnedResult>,
    /// The snapshot layer's counters at finalize.
    pub counters: SnapshotCounterSnapshot,
    /// Mean solver time per iteration.
    pub mean_solver: Duration,
    /// Mean *apparent* in situ time per iteration (submission + capture).
    pub mean_insitu: Duration,
    /// Wall time for the whole arm.
    pub total: Duration,
}

impl SnapshotArm {
    /// Capture-copy bytes per step (eager copies plus CoW fault copies).
    pub fn bytes_per_step(&self, steps: u64) -> f64 {
        self.counters.bytes_copied as f64 / steps.max(1) as f64
    }
}

/// The two arms of one snapshot A/B run.
#[derive(Debug, Clone)]
pub struct SnapshotReport {
    /// The configuration that produced this report.
    pub config: SnapshotBenchConfig,
    /// Unconditional per-step deep copies (the reference).
    pub deep: SnapshotArm,
    /// Zero-copy shares with lazy fault copies.
    pub cow: SnapshotArm,
}

impl SnapshotReport {
    /// The arms in report order.
    pub fn arms(&self) -> [&SnapshotArm; 2] {
        [&self.deep, &self.cow]
    }

    /// True when `arm`'s results match the deep arm bit for bit.
    pub fn bit_identical_to_deep(&self, arm: &SnapshotArm) -> bool {
        results_bit_identical(&self.deep.results, &arm.results)
    }

    /// Fraction of the deep arm's copy traffic the CoW arm avoided
    /// (1.0 = no bytes copied at all).
    pub fn cow_bytes_reduction(&self) -> f64 {
        let deep = self.deep.counters.bytes_copied as f64;
        if deep == 0.0 {
            return 0.0;
        }
        1.0 - self.cow.counters.bytes_copied as f64 / deep
    }
}

impl Report for SnapshotReport {
    fn mode(&self) -> &'static str {
        "snapshot"
    }

    fn config(&self) -> String {
        format!("{:?}", self.config)
    }

    fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for a in self.arms() {
            let (arm, c) = (a.mode.name(), &a.counters);
            let counters = [
                ("results", a.results.len() as u64),
                ("arrays_shared", c.arrays_shared),
                ("arrays_copied", c.arrays_copied),
                ("cow_faults", c.cow_faults),
            ];
            rows.extend(Row::counts(arm, &counters));
            rows.push(Row::new(arm, "bytes_copied", "B", Label::Count, c.bytes_copied as f64));
            let per_step = a.bytes_per_step(self.config.steps);
            rows.push(Row::new(arm, "bytes_per_step", "B", Label::Count, per_step));
            rows.push(Row::ms(arm, "insitu_ms", Label::Wall, a.mean_insitu));
            rows.push(Row::new(arm, "total_s", "s", Label::Wall, a.total.as_secs_f64()));
        }
        let reduction = self.cow_bytes_reduction();
        rows.push(Row::new("cow", "bytes_reduction_vs_deep", "ratio", Label::Count, reduction));
        rows
    }

    fn claims(&self) -> Vec<Claim> {
        let (d, c) = (&self.deep.counters, &self.cow.counters);
        let expected = self.config.steps * self.config.instances as u64;
        let reduction = self.cow_bytes_reduction();
        vec![
            // The deep reference behaves like the pre-CoW bridge.
            Claim::eq("deep.delivers_every_step", self.deep.results.len() as u64, expected),
            Claim::eq("deep.never_shares", d.arrays_shared, 0),
            Claim::eq("deep.never_faults", d.cow_faults, 0),
            Claim::lt("deep.copies_every_capture", 0, d.bytes_copied),
            // Correctness before savings: sharing must never leak
            // post-capture writes into a capture.
            Claim::eq("cow.delivers_every_step", self.cow.results.len() as u64, expected),
            Claim::gate("cow.bit_identical_to_deep", self.bit_identical_to_deep(&self.cow), ""),
            // Independent of how the OS schedules the consumer: a cow
            // capture shares, never copies (all of its bytes come from
            // CoW faults), and a fault copies a pinned array at most once
            // per capture — so cow traffic cannot exceed deep's.
            Claim::lt("cow.shares_every_capture", 0, c.arrays_shared),
            Claim::eq("cow.eager_copies_nothing", c.arrays_copied, 0),
            Claim::gate(
                "cow.fault_traffic_le_deep",
                c.bytes_copied <= d.bytes_copied,
                format!("{} B <= {} B", c.bytes_copied, d.bytes_copied),
            ),
            // The headline reduction relies on the consumer releasing its
            // shares within the modeled kernel-launch gap; a loaded runner
            // delays it and faults more arrays, so a shortfall only warns.
            Claim::warn(
                "cow.bytes_reduction_ge_70pct",
                reduction >= 0.70,
                format!("{:.1}% fewer bytes than deep", reduction * 100.0),
            ),
        ]
    }
}

/// The modeled node for the snapshot arms. Built from the bench node
/// with a larger kernel launch overhead and a faster link: the CoW
/// claim under test is about *ordering* — the host-placed consumer
/// fetches and releases its shares while the solver's next kernel is
/// still pending launch — so the gap between consecutive kernel bodies
/// must comfortably cover the worker's fetch turnaround, keeping the
/// steady-state fault set at the first kernel's write set rather than
/// racing CI scheduling jitter.
fn snapshot_node_config(time_scale: f64) -> NodeConfig {
    let mut cfg = bench_node_config(1, time_scale);
    cfg.device.launch_overhead = Duration::from_millis(2);
    cfg.link.latency = Duration::from_micros(5);
    cfg
}

/// Run both arms and collect their outcomes.
pub fn run_snapshot_bench(cfg: &SnapshotBenchConfig) -> SnapshotReport {
    SnapshotReport {
        config: *cfg,
        deep: run_arm(cfg, SnapshotMode::Deep),
        cow: run_arm(cfg, SnapshotMode::Cow),
    }
}

fn run_arm(cfg: &SnapshotBenchConfig, mode: SnapshotMode) -> SnapshotArm {
    let node = SimNode::new(snapshot_node_config(cfg.time_scale));
    let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));

    let cfg = *cfg;
    let run_node = node.clone();
    let run_sink = sink.clone();
    let outcomes: Vec<(SnapshotCounterSnapshot, Duration, Duration, Duration)> =
        World::new(1).run(move |comm| {
            let node = run_node.clone();
            let t0 = Instant::now();

            // Solver on the node's one device; the suite host-placed and
            // asynchronous, so every capture feeds a threaded worker.
            let placement = Placement::Host;
            let sim_selector = placement.sim_selector(1);
            let sim_device = select_device(comm.rank(), 1, &sim_selector);
            let (device_spec, selector) = placement.insitu_spec(1);
            let controls = BackendControls {
                execution: ExecutionMethod::Asynchronous,
                device: device_spec,
                selector,
                queue_depth: cfg.steps.max(1) as usize,
                ..Default::default()
            };

            let specs: Vec<binning::BinningSpec> = paper_binning_specs_bounded(cfg.resolution)
                .into_iter()
                .take(cfg.instances)
                .collect();
            let mut suite =
                BinningSuite::new(specs).expect("suite over paper specs").with_controls(controls);
            if comm.rank() == 0 {
                suite = suite.with_sink(run_sink.clone());
            }
            let mut bridge = Bridge::new(node.clone());
            bridge.set_snapshot_mode(mode);
            bridge.add_analysis(Box::new(suite), &comm).expect("attach suite");

            // Fixed IC seed: both arms simulate identical data, so
            // the bit-identical claim compares capture modes, not seeds.
            let newton_cfg = NewtonConfig {
                ic: IcKind::Uniform(UniformIc {
                    n: cfg.bodies,
                    seed: 20230817,
                    half_width: 1.0,
                    mass_range: (0.5, 1.5),
                    velocity_scale: 0.1,
                    central_mass: cfg.bodies as f64,
                }),
                dt: 1e-4,
                grav: Gravity { g: 1.0, eps: 0.05 },
                x_extent: (-2.0, 2.0),
                repartition_every: None,
            };
            let mut sim = Newton::new(node.clone(), &comm, sim_device, newton_cfg)
                .expect("simulation initialization");

            for _ in 0..cfg.steps {
                let solver_time = sim.step(&comm).expect("solver step");
                let adaptor = NewtonAdaptor::new(&sim);
                bridge.execute(&adaptor, &comm, solver_time).expect("in situ execute");
            }
            let profiler = bridge.finalize(&comm).expect("finalize");
            let counters =
                profiler.snapshot_samples().last().map(|s| s.counters).unwrap_or_default();
            let summary = profiler.summary();
            (counters, summary.mean_solver, summary.mean_insitu, t0.elapsed())
        });

    let (counters, mean_solver, mean_insitu, total) = outcomes[0];
    let results = sink.lock().clone();
    SnapshotArm { mode, results, counters, mean_solver, mean_insitu, total }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SnapshotBenchConfig {
        SnapshotBenchConfig { bodies: 64, steps: 4, resolution: 8, instances: 3, time_scale: 1.0 }
    }

    #[test]
    fn arms_are_bit_identical_and_cow_copies_less() {
        let _serial = crate::serial();
        let report = run_snapshot_bench(&tiny());
        crate::report::assert_gates(&report);

        let d = &report.deep;
        // CoW shares everything and only fault-copies what the solver
        // overwrites while the consumer still holds the pin.
        assert_eq!(report.cow.counters.arrays_shared, d.counters.arrays_copied);
        assert!(report.cow.counters.bytes_copied < d.counters.bytes_copied);
    }
}
