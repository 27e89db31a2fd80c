//! DAG vs asynchronous execution A/B on a skewed mixed-cost binning
//! workload.
//!
//! Five arms of the same workload (a static particle table feeding
//! [`binning::BinningSuite`]s over specs with deliberately unequal kernel
//! costs — heavy multi-op instances interleaved with count-only ones):
//!
//! 1. **inline** — a lockstep [`sensei::Engine`], which runs the suite's
//!    task graph in order on the simulation's thread; captures the
//!    reference [`BinnedResult`]s and the full apparent in situ cost.
//! 2. **async_fused** — the engine under `asynchronous`: the same graph
//!    in order on a persistent worker, one kernel over every spec on one
//!    device's default stream.
//! 3. **async_split** — the same devices as `dag` by placement alone: the
//!    specs dealt in (heavy, light) pairs over `device=0..n-1`, one
//!    asynchronous suite per device.
//! 4. **dag/{deep,cow}** (two arms) — the engine under `dag`: the suite's
//!    graph has one kernel per spec, each placed when the graph is planned
//!    on the device least loaded so far, and runs on the scheduler's own
//!    compute and copy stream per device, overlapping downloads by
//!    construction.
//!
//! The snapshot queue is kept shallow (`queue_depth`), so once it fills
//! the producer runs at the in situ worker's pace and the *apparent*
//! cost of the asynchronous and dag arms measures their actual
//! throughput — which is what the harness's `dag` mode asserts on: the
//! dag arms must beat `async_fused` on both apparent cost and total wall
//! time, move columns between devices exactly where kernels run on more
//! than one, and publish results bit-identical to the inline reference.

use std::sync::Arc;
use std::time::{Duration, Instant};

use devsim::SimNode;
use minimpi::World;
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
    /// Devices on the simulated node. The dag arms spread their kernels
    /// over all of them and `async_split` its suites; the inline and
    /// `async_fused` arms are pinned to device 0 by the controls.
    pub num_devices: usize,
    /// Multiplier on modeled durations (see `devsim::timemodel`).
    /// High by default so modeled kernel time dwarfs the real closure
    /// math: overlap across devices only shortens the modeled part,
    /// which is exactly what the dag arms exploit.
    pub time_scale: f64,
    /// Snapshot queue depth for the asynchronous and dag arms. Shallow on
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
/// Round-robin placement (by index) would alternate them regardless of
/// cost; the dag arms place them by cost.
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
    /// Arm name: `inline`, `async_fused`, `async_split` or
    /// `dag/<snapshot mode>`.
    pub arm: String,
    /// Devices the arm places kernels on.
    pub planned_devices: usize,
    /// Devices whose memory pool served the arm a block: those its
    /// kernels ran on.
    pub used_devices: usize,
    /// Total wall time: init + steps + queue drain at finalize.
    pub total: Duration,
    /// Mean apparent in situ time per iteration.
    pub mean_insitu: Duration,
    /// Rank 0's results, in the inline arm's order: per step, one
    /// [`BinnedResult`] per spec.
    pub results: Vec<BinnedResult>,
    /// Scheduler totals (zero for the non-dag arms).
    pub sched: SchedulerSnapshot,
    /// Work/fault counters summed over the arm's back-ends.
    pub counters: sensei::CounterSnapshot,
    /// Device-to-device copies on the node: deep snapshots of the
    /// device-0 table, and its columns moved to another device.
    pub copies_d2d: u64,
}

/// The five arms of one dag A/B run.
#[derive(Debug, Clone)]
pub struct DagBenchReport {
    /// The configuration that produced this report.
    pub config: DagBenchConfig,
    /// Lockstep inline reference.
    pub inline_arm: DagArm,
    /// Asynchronous arm on device 0 (the incumbent the dag must beat).
    pub threaded: DagArm,
    /// Asynchronous arms spread over every device by placement.
    pub split: DagArm,
    /// Dag arms, one per snapshot mode: deep, cow.
    pub dag: Vec<DagArm>,
}

impl DagBenchReport {
    /// Every arm in presentation order.
    pub fn arms(&self) -> Vec<&DagArm> {
        let mut all = vec![&self.inline_arm, &self.threaded, &self.split];
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
            let (arm, c) = (a.arm.as_str(), &a.counters);
            rows.push(Row::new(arm, "total_s", "s", Label::Wall, a.total.as_secs_f64()));
            rows.push(Row::ms(arm, "insitu_ms", Label::Wall, a.mean_insitu));
            let counters = [
                ("tasks", a.sched.tasks),
                ("kernel_launches", c.kernel_launches),
                ("downloads", c.downloads),
                ("allreduces", c.allreduces),
                ("copies_d2d", a.copies_d2d),
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
        let (dag, threaded, split) = (self.dag_deep(), &self.threaded, &self.split);
        let beats = |name: &str, a: Duration, b: Duration| {
            Claim::warn(name, a < b, format!("{a:.3?} < {b:.3?}"))
        };
        vec![
            // Correctness before speed: spreading kernels across devices
            // must not perturb a single bit of any arm's published grids.
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
            // Kernels run exactly where they were placed: the dag arms
            // over every device by their planned spread, async_split by
            // placement, the other arms on device 0 alone.
            Claim::none(
                "kernels_run_on_the_planned_devices",
                arms_where(self.arms(), &|a| a.used_devices != a.planned_devices),
            ),
            // Spread kernels plus by-construction download overlap must
            // beat the single-device asynchronous worker on both
            // throughput measures.
            Claim::lt("dag_deep_beats_async_fused_on_total", dag.total, threaded.total),
            Claim::lt(
                "dag_deep_beats_async_fused_on_insitu",
                dag.mean_insitu,
                threaded.mean_insitu,
            ),
            // The fair arm: the same devices by placement alone. Reported,
            // not gating: the margin is the fused step's, and it depends
            // on how the OS scheduled the two asynchronous workers.
            beats("dag_deep_beats_async_split_on_total", dag.total, split.total),
            beats("dag_deep_beats_async_split_on_insitu", dag.mean_insitu, split.mean_insitu),
        ]
    }
}

/// The specs dealt in (heavy, light) pairs round-robin over `devices`:
/// per device, the indices of the specs it bins (none past the last pair).
fn deal_spec_pairs(nspecs: usize, devices: usize) -> Vec<Vec<usize>> {
    let devices = devices.max(1);
    let mut dealt = vec![Vec::new(); devices];
    for si in 0..nspecs {
        dealt[(si / 2) % devices].push(si);
    }
    dealt
}

/// Run one arm of the dag A/B: one suite per entry of `dealt` (the spec
/// indices it bins), on the device of that entry's index.
pub fn run_dag_arm(
    cfg: &DagBenchConfig,
    arm: &str,
    execution: ExecutionMethod,
    snapshot: SnapshotMode,
    dealt: &[Vec<usize>],
) -> DagArm {
    let node = SimNode::new(bench_node_config(cfg.num_devices, cfg.time_scale));
    let specs = skewed_binning_specs(cfg);
    let suites: Vec<(usize, &[usize], ResultSink)> = dealt
        .iter()
        .enumerate()
        .filter(|(_, indices)| !indices.is_empty())
        .map(|(device, indices)| (device, &indices[..], ResultSink::default()))
        .collect();

    let cfg = *cfg;
    let out = World::new(1).run(|comm| {
        let mut bridge = Bridge::new(node.clone());
        bridge.set_snapshot_mode(snapshot);
        for (device, indices, sink) in &suites {
            let controls = BackendControls {
                execution,
                device: DeviceSpec::Explicit(*device),
                queue_depth: cfg.queue_depth,
                ..Default::default()
            };
            let suite = BinningSuite::new(indices.iter().map(|&si| specs[si].clone()).collect())
                .expect("suite over skewed specs")
                .with_sink(sink.clone())
                .with_controls(controls);
            bridge.add_analysis(Box::new(suite), &comm).expect("attach suite");
        }

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
    // Back in spec order: each suite published its specs in order, step
    // after step.
    let mut owner = vec![(0, 0); specs.len()];
    for (s, (_, indices, _)) in suites.iter().enumerate() {
        for (k, &si) in indices.iter().enumerate() {
            owner[si] = (s, k);
        }
    }
    let published: Vec<Vec<BinnedResult>> = suites.iter().map(|(.., s)| s.lock().clone()).collect();
    let results = (0..cfg.steps as usize)
        .flat_map(|step| owner.iter().map(move |&(s, k)| (step, s, k)))
        .filter_map(|(step, s, k)| published[s].get(step * suites[s].1.len() + k).cloned())
        .collect();
    let served =
        |d: usize| node.device(d).map(|d| d.pool_stats()).is_ok_and(|p| p.hits + p.misses > 0);
    DagArm {
        arm: arm.to_string(),
        planned_devices: match execution {
            ExecutionMethod::Dag => cfg.num_devices.min(specs.len()),
            _ => suites.len(),
        },
        used_devices: (0..cfg.num_devices).filter(|&d| served(d)).count(),
        total,
        mean_insitu,
        results,
        sched,
        counters,
        copies_d2d: node.stats().copies_d2d,
    }
}

/// Run all five arms and collect their outcomes.
pub fn run_dag_bench(cfg: &DagBenchConfig) -> DagBenchReport {
    let all = [(0..cfg.instances()).collect()];
    let run = |arm: &str, execution, snapshot, dealt: &[Vec<usize>]| {
        run_dag_arm(cfg, arm, execution, snapshot, dealt)
    };
    let inline_arm = run("inline", ExecutionMethod::Lockstep, SnapshotMode::Deep, &all);
    let threaded = run("async_fused", ExecutionMethod::Asynchronous, SnapshotMode::Deep, &all);
    let dealt = deal_spec_pairs(cfg.instances(), cfg.num_devices);
    let split = run("async_split", ExecutionMethod::Asynchronous, SnapshotMode::Deep, &dealt);
    let dag = [SnapshotMode::Deep, SnapshotMode::Cow]
        .into_iter()
        .map(|mode| run(&format!("dag/{}", mode.name()), ExecutionMethod::Dag, mode, &all))
        .collect();
    DagBenchReport { config: *cfg, inline_arm, threaded, split, dag }
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
    fn spec_pairs_are_dealt_round_robin() {
        assert_eq!(deal_spec_pairs(6, 2), [vec![0, 1, 4, 5], vec![2, 3]]);
        assert_eq!(deal_spec_pairs(4, 4), [vec![0, 1], vec![2, 3], vec![], vec![]]);
        assert_eq!(deal_spec_pairs(3, 1), [vec![0, 1, 2]]);
    }

    #[test]
    fn all_arms_deliver_bit_identical_results() {
        let _serial = crate::serial();
        let cfg = tiny();
        let report = run_dag_bench(&cfg);
        let expected = cfg.steps as usize * cfg.instances();
        for arm in report.arms() {
            assert_eq!(arm.results.len(), expected, "{} delivers every step", arm.arm);
        }
        // (The beats claims need the time model on; `tiny` turns it off.)
        crate::report::assert_claims(
            &report,
            &[
                "all_arms_bit_identical_to_inline",
                "dag_arms_run_the_dataflow_path",
                "dag_arms_abort_nothing",
                "kernels_run_on_the_planned_devices",
            ],
        );
        assert_eq!(report.threaded.sched, SchedulerSnapshot::default(), "async arm has no dag");
        assert_eq!(report.split.used_devices, 2, "async_split spans both devices");
        assert_eq!(report.dag_deep().used_devices, 2, "dag spreads over both devices");
    }
}
