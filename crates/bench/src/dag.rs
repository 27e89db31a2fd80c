//! DAG vs threaded execution A/B on a skewed mixed-cost binning workload.
//!
//! Four arms of the same workload (a static particle table feeding a
//! [`binning::BinningSuite`] over specs with deliberately unequal kernel
//! costs — heavy multi-op instances interleaved with count-only ones):
//!
//! 1. **inline** — a lockstep [`sensei::Engine`], which runs the suite's
//!    task graph in order on the simulation's thread; captures the
//!    reference [`BinnedResult`]s and the full apparent in situ cost.
//! 2. **async_fused** — the engine under `asynchronous`: the same graph
//!    in order on a persistent worker, one kernel over every spec on one
//!    device's default stream.
//! 3. **dag/{deep,cow}** (two arms) — the engine under `dag`: the suite's
//!    graph has one kernel per spec, and the work-stealing
//!    [`sensei::DagScheduler`] spreads those kernel tasks across *every*
//!    device on the node, overlapping downloads by construction.
//!
//! The snapshot queue is kept shallow (`queue_depth`), so once it fills
//! the producer runs at the in situ worker's pace and the *apparent*
//! cost of the threaded and dag arms measures their actual throughput —
//! which is what the harness's `dag` mode asserts on: the dag arms must
//! beat the threaded arm on both apparent cost and total wall time,
//! with a nonzero steal count and results bit-identical to the inline
//! reference.

use std::sync::Arc;
use std::time::{Duration, Instant};

use devsim::SimNode;
use minimpi::World;
use parking_lot::Mutex;
use sensei::{
    BackendControls, Bridge, DeviceSpec, ExecutionMethod, MeshMetadata, Result, SchedulerSnapshot,
    SnapshotMode,
};
use svtk::{Allocator, DataObject, HamrDataArray, HamrStream, StreamMode, TableData};

use binning::{BinOp, BinnedResult, BinningSpec, BinningSuite, ResultSink, VarOp};

use crate::case::bench_node_config;
use crate::report::{Claim, Label, Report, Row};

/// Scale of the dag A/B workload.
#[derive(Debug, Clone, Copy)]
pub struct DagBenchConfig {
    /// Rows of the particle table (the binning kernels' `n`). Kept
    /// modest on purpose: devsim models device parallelism with
    /// overlapping sleeps, so the workload must be dominated by
    /// *modeled* kernel time (see `time_scale`), not by the real host
    /// math that computes the bin contents.
    pub rows: usize,
    /// Simulation steps per arm.
    pub steps: u64,
    /// Binning mesh resolution per axis.
    pub resolution: usize,
    /// Devices on the simulated node. The dag arms recruit all of them;
    /// the inline/threaded arms are pinned to device 0 by the controls.
    pub num_devices: usize,
    /// Multiplier on modeled durations (see `devsim::timemodel`).
    /// High by default so modeled kernel time dwarfs the real closure
    /// math: overlap across devices only shortens the modeled part,
    /// which is exactly what the dag arms exploit.
    pub time_scale: f64,
    /// Snapshot queue depth for the threaded and dag arms. Shallow on
    /// purpose: a full queue makes submission wait, so apparent cost
    /// tracks worker throughput instead of hiding it.
    pub queue_depth: usize,
    /// Instances binning the full heavy op set (13 ops).
    pub heavy_instances: usize,
    /// Instances binning only `count()` (1 op).
    pub light_instances: usize,
}

impl Default for DagBenchConfig {
    fn default() -> Self {
        DagBenchConfig {
            rows: 8_000,
            steps: 6,
            resolution: 48,
            num_devices: 2,
            time_scale: 10.0,
            queue_depth: 2,
            heavy_instances: 3,
            light_instances: 3,
        }
    }
}

impl DagBenchConfig {
    /// Total binning instances (results per step).
    pub fn instances(&self) -> usize {
        self.heavy_instances + self.light_instances
    }
}

/// The skewed spec set: heavy 13-op instances interleaved with light
/// count-only ones, so consecutive kernels differ ~6x in modeled cost.
/// Round-robin dispatch (by index) would alternate them regardless of
/// cost; the least-loaded and work-stealing claims are about cost.
/// Bounds are prescribed so the packed grid reduction is the step's only
/// collective.
pub fn skewed_binning_specs(cfg: &DagBenchConfig) -> Vec<BinningSpec> {
    let heavy_ops = || -> Vec<VarOp> {
        let mut ops = vec![VarOp { var: String::new(), op: BinOp::Count }];
        for var in ["m", "x", "z"] {
            for op in [BinOp::Sum, BinOp::Min, BinOp::Max, BinOp::Average] {
                ops.push(VarOp { var: var.to_string(), op });
            }
        }
        ops
    };
    let light_ops = || vec![VarOp { var: String::new(), op: BinOp::Count }];

    const AXES: [(&str, &str); 8] = [
        ("x", "y"),
        ("x", "z"),
        ("y", "z"),
        ("y", "m"),
        ("z", "m"),
        ("x", "m"),
        ("m", "x"),
        ("z", "x"),
    ];
    let mut kinds = Vec::new();
    for i in 0..cfg.heavy_instances.max(cfg.light_instances) {
        if i < cfg.heavy_instances {
            kinds.push(true);
        }
        if i < cfg.light_instances {
            kinds.push(false);
        }
    }
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, heavy)| {
            let (a, b) = AXES[i % AXES.len()];
            let mut s = BinningSpec::new(
                "bodies",
                (a, b),
                cfg.resolution,
                if heavy { heavy_ops() } else { light_ops() },
            );
            s.bounds = Some(([-1.0, 1.0], [-1.0, 1.0]));
            s
        })
        .collect()
}

/// Static particle table with four device-resident columns; the solver
/// is a no-op, so total wall time is the in situ pipeline's throughput.
/// Shared with the scale harness's fused-suite check arm.
pub(crate) struct SkewTable {
    table: TableData,
    pub(crate) step: u64,
}

impl SkewTable {
    pub(crate) fn new(node: Arc<SimNode>, rank: usize, rows: usize) -> Self {
        let col = |seed: usize| -> Vec<f64> {
            (0..rows).map(|i| (((i * seed + rank * 7919) % 1000) as f64) / 500.0 - 1.0).collect()
        };
        let mut table = TableData::new();
        for (name, seed) in [("x", 37), ("y", 53), ("z", 71), ("m", 97)] {
            let arr = HamrDataArray::<f64>::from_slice(
                name,
                node.clone(),
                &col(seed),
                1,
                Allocator::OpenMp,
                Some(0),
                HamrStream::default_stream(),
                StreamMode::Sync,
            )
            .expect("allocate workload column");
            table.set_column(arr.as_array_ref());
        }
        SkewTable { table, step: 0 }
    }
}

impl sensei::DataAdaptor for SkewTable {
    fn num_meshes(&self) -> usize {
        1
    }
    fn mesh_metadata(&self, _i: usize) -> Result<MeshMetadata> {
        Ok(MeshMetadata { name: "bodies".into(), arrays: vec![] })
    }
    fn mesh(&self, _name: &str) -> Result<DataObject> {
        Ok(DataObject::Table(self.table.clone()))
    }
    fn time(&self) -> f64 {
        self.step as f64 * 0.1
    }
    fn time_step(&self) -> u64 {
        self.step
    }
}

/// Outcome of one dag A/B arm.
#[derive(Debug, Clone)]
pub struct DagArm {
    /// Arm name: `inline`, `async_fused`, or `dag/<snapshot mode>`.
    pub arm: String,
    /// Total wall time: init + steps + queue drain at finalize.
    pub total: Duration,
    /// Mean apparent in situ time per iteration.
    pub mean_insitu: Duration,
    /// Rank 0's sink: one [`BinnedResult`] per (step, spec).
    pub results: Vec<BinnedResult>,
    /// Scheduler totals (zero for the non-dag arms).
    pub sched: SchedulerSnapshot,
    /// Work/fault counters summed over the arm's back-ends.
    pub counters: sensei::CounterSnapshot,
}

/// The four arms of one dag A/B run.
#[derive(Debug, Clone)]
pub struct DagBenchReport {
    /// The configuration that produced this report.
    pub config: DagBenchConfig,
    /// Lockstep inline reference.
    pub inline_arm: DagArm,
    /// Asynchronous threaded arm (the incumbent the dag must beat).
    pub threaded: DagArm,
    /// Dag arms, one per snapshot mode: deep, cow.
    pub dag: Vec<DagArm>,
}

impl DagBenchReport {
    /// Every arm in presentation order.
    pub fn arms(&self) -> Vec<&DagArm> {
        let mut all = vec![&self.inline_arm, &self.threaded];
        all.extend(self.dag.iter());
        all
    }

    /// The deep-snapshot dag arm (the headline comparison).
    pub fn dag_deep(&self) -> &DagArm {
        &self.dag[0]
    }

    /// True when `arm`'s results match the inline reference bit for bit.
    pub fn bit_identical_to_inline(&self, arm: &DagArm) -> bool {
        crate::chaos::results_bit_identical(&self.inline_arm.results, &arm.results)
    }
}

impl Report for DagBenchReport {
    fn mode(&self) -> &'static str {
        "dag"
    }

    fn config(&self) -> String {
        format!("{:?}", self.config)
    }

    fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for a in self.arms() {
            let (arm, s, c) = (a.arm.as_str(), &a.sched, &a.counters);
            rows.push(Row::new(arm, "total_s", "s", Label::Wall, a.total.as_secs_f64()));
            rows.push(Row::ms(arm, "insitu_ms", Label::Wall, a.mean_insitu));
            rows.extend(Row::counts(arm, &[("tasks", s.tasks), ("steals", s.steals)]));
            rows.push(Row::ms(arm, "idle_ms", Label::Wall, Duration::from_nanos(s.idle_ns)));
            let critical_path = Duration::from_nanos(s.critical_path_ns);
            rows.push(Row::ms(arm, "critical_path_ms", Label::Wall, critical_path));
            let counters = [
                ("kernel_launches", c.kernel_launches),
                ("downloads", c.downloads),
                ("allreduces", c.allreduces),
                ("faults_aborted", c.faults.aborted),
            ];
            rows.extend(Row::counts(arm, &counters));
        }
        rows
    }

    fn claims(&self) -> Vec<Claim> {
        let arms_where = |arms: Vec<&DagArm>, bad: &dyn Fn(&DagArm) -> bool| -> Vec<String> {
            arms.into_iter().filter(|a| bad(a)).map(|a| a.arm.clone()).collect()
        };
        let dag_arms = || self.dag.iter().collect();
        let (dag, threaded) = (self.dag_deep(), &self.threaded);
        vec![
            // Correctness before speed: stealing across devices must not
            // perturb a single bit of any arm's published grids.
            Claim::none(
                "all_arms_bit_identical_to_inline",
                arms_where(self.arms(), &|a| !self.bit_identical_to_inline(a)),
            ),
            Claim::none(
                "dag_arms_run_the_dataflow_path",
                arms_where(dag_arms(), &|a| a.sched.tasks == 0),
            ),
            Claim::none(
                "dag_arms_abort_nothing",
                arms_where(dag_arms(), &|a| a.counters.faults.aborted != 0),
            ),
            // With every kernel task homed on the primary device and
            // multi-millisecond modeled kernels, the other device workers
            // must steal; stolen parallelism plus by-construction download
            // overlap must beat the single-device threaded worker on both
            // throughput measures.
            Claim::lt("dag_deep_steals", 0, dag.sched.steals),
            Claim::lt("dag_deep_beats_async_fused_on_total", dag.total, threaded.total),
            Claim::lt(
                "dag_deep_beats_async_fused_on_insitu",
                dag.mean_insitu,
                threaded.mean_insitu,
            ),
        ]
    }
}

/// Run one arm of the dag A/B.
pub fn run_dag_arm(
    cfg: &DagBenchConfig,
    arm: &str,
    execution: ExecutionMethod,
    snapshot: SnapshotMode,
) -> DagArm {
    let node = SimNode::new(bench_node_config(cfg.num_devices, cfg.time_scale));
    let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));

    let cfg = *cfg;
    let run_node = node.clone();
    let run_sink = sink.clone();
    let out = World::new(1).run(move |comm| {
        let node = run_node.clone();
        let controls = BackendControls {
            execution,
            device: DeviceSpec::Explicit(0),
            queue_depth: cfg.queue_depth,
            ..Default::default()
        };
        let suite = BinningSuite::new(skewed_binning_specs(&cfg))
            .expect("suite over skewed specs")
            .with_sink(run_sink.clone())
            .with_controls(controls);
        let mut bridge = Bridge::new(node.clone());
        bridge.set_snapshot_mode(snapshot);
        bridge.add_analysis(Box::new(suite), &comm).expect("attach suite");

        let mut sim = SkewTable::new(node.clone(), comm.rank(), cfg.rows);
        let t0 = Instant::now();
        for step in 0..cfg.steps {
            sim.step = step;
            bridge.execute(&sim, &comm, Duration::ZERO).expect("in situ execute");
        }
        let profiler = bridge.finalize(&comm).expect("finalize");
        let total = t0.elapsed();
        let summary = profiler.summary();
        (total, summary.mean_insitu, profiler.scheduler_total(), profiler.counters_total())
    });

    let (total, mean_insitu, sched, counters) = out.into_iter().next().expect("one rank");
    let results = sink.lock().clone();
    DagArm { arm: arm.to_string(), total, mean_insitu, results, sched, counters }
}

/// Run all four arms and collect their outcomes.
pub fn run_dag_bench(cfg: &DagBenchConfig) -> DagBenchReport {
    let inline_arm = run_dag_arm(cfg, "inline", ExecutionMethod::Lockstep, SnapshotMode::Deep);
    let threaded =
        run_dag_arm(cfg, "async_fused", ExecutionMethod::Asynchronous, SnapshotMode::Deep);
    let dag = [SnapshotMode::Deep, SnapshotMode::Cow]
        .into_iter()
        .map(|mode| run_dag_arm(cfg, &format!("dag/{}", mode.name()), ExecutionMethod::Dag, mode))
        .collect();
    DagBenchReport { config: *cfg, inline_arm, threaded, dag }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DagBenchConfig {
        DagBenchConfig {
            rows: 2000,
            steps: 2,
            resolution: 8,
            num_devices: 2,
            time_scale: 0.0,
            queue_depth: 2,
            heavy_instances: 2,
            light_instances: 2,
        }
    }

    #[test]
    fn skewed_specs_interleave_heavy_and_light() {
        let specs = skewed_binning_specs(&tiny());
        assert_eq!(specs.len(), 4);
        let op_counts: Vec<usize> = specs.iter().map(|s| s.ops.len()).collect();
        assert_eq!(op_counts, vec![13, 1, 13, 1], "heavy and light instances alternate");
        assert!(specs.iter().all(|s| s.bounds.is_some()), "bounds are prescribed");
    }

    #[test]
    fn all_arms_deliver_bit_identical_results() {
        let _serial = crate::serial();
        let cfg = tiny();
        let report = run_dag_bench(&cfg);
        let expected = cfg.steps as usize * cfg.instances();
        assert_eq!(report.inline_arm.results.len(), expected, "inline delivers every step");
        // (Steals and the two beats-threaded claims need the time model
        // on; `tiny` turns it off.)
        crate::report::assert_claims(
            &report,
            &[
                "all_arms_bit_identical_to_inline",
                "dag_arms_run_the_dataflow_path",
                "dag_arms_abort_nothing",
            ],
        );
        assert_eq!(report.threaded.sched, SchedulerSnapshot::default(), "threaded arm has no dag");
    }
}
