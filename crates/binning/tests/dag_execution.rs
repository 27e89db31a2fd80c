//! Task-graph equivalence: a fused [`binning::BinningAnalysis`] — one spec
//! (`data_binning`) or a suite of them (`binning_suite`) — runs its step
//! as one task graph under every execution method: one kernel per table
//! under `lockstep` and `asynchronous`, one per spec spread over the
//! node's devices when the graph is planned under `dag`. The results
//! must be bit-identical across the methods — across spec sets, device
//! placements, snapshot modes, tables per rank, and under injected
//! `stream.launch` faults recovered per task node by the retry policy.

use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use devsim::fault::{site, FaultConfig, FaultRule};
use devsim::{DeviceParams, KernelCost, NodeConfig, SimNode};
use minimpi::World;
use parking_lot::Mutex;
use proptest::prelude::*;
use proptest::sample;
use sensei::{
    AnalysisAdaptor, BackendControls, Bridge, DagScheduler, DeviceSpec, ExecContext,
    ExecutionMethod, MeshMetadata, RecoveryPolicy, Result, SchedulerCounters, SnapshotMode,
};
use svtk::{Allocator, DataObject, HamrDataArray, HamrStream, StreamMode, TableData};

use binning::{BinOp, BinnedResult, BinningAnalysis, BinningSpec, BinningSuite, ResultSink, VarOp};

/// Particle table with four columns; each rank owns a deterministic
/// pseudo-random slice (same fixture as the fused-suite tests).
struct Particles {
    /// One table, published bare, or several, as the local blocks of a
    /// multiblock.
    tables: Vec<TableData>,
    step: u64,
}

impl Particles {
    fn new(node: Arc<SimNode>, device: Option<usize>, rank: usize) -> Self {
        Self::with_tables(node, device, rank, 1)
    }

    /// `tables` tables of 200 rows each; table `t` of rank `r` draws the
    /// slice a one-table run gives rank `r * tables + t`.
    fn with_tables(node: Arc<SimNode>, device: Option<usize>, rank: usize, tables: usize) -> Self {
        let n = 200;
        let alloc = if device.is_some() { Allocator::OpenMp } else { Allocator::Malloc };
        let table = |salt: usize| {
            let mut table = TableData::new();
            for (name, seed) in [("x", 37), ("y", 53), ("z", 71), ("m", 97)] {
                let col: Vec<f64> = (0..n)
                    .map(|i| (((i * seed + salt * 7919) % 1000) as f64) / 500.0 - 1.0)
                    .collect();
                let arr = HamrDataArray::<f64>::from_slice(
                    name,
                    node.clone(),
                    &col,
                    1,
                    alloc,
                    device,
                    HamrStream::default_stream(),
                    StreamMode::Sync,
                )
                .unwrap();
                table.set_column(arr.as_array_ref());
            }
            table
        };
        Particles { tables: (0..tables).map(|t| table(rank * tables + t)).collect(), step: 0 }
    }

    /// Overwrite the first table's `x` in place, where it lives, with its
    /// values for `step`; complete on return.
    fn rewrite_x(&self, node: &SimNode, rank: usize, step: u64) {
        let x = svtk::downcast::<f64>(self.tables[0].column("x").unwrap()).unwrap().data();
        let seed = 37 + 2 * step as usize;
        let values: Vec<f64> = (0..x.len())
            .map(|i| (((i * seed + rank * 7919) % 1000) as f64) / 500.0 - 1.0)
            .collect();
        match x.space().device() {
            None => x.host_f64().unwrap().copy_from_slice(&values),
            Some(d) => {
                let stream = node.device(d).unwrap().default_stream();
                stream
                    .launch("rewrite_x", KernelCost::ZERO, move |scope| {
                        x.f64_view(scope)?.copy_from_slice(&values);
                        Ok(())
                    })
                    .unwrap();
                stream.synchronize().unwrap();
            }
        }
    }
}

impl sensei::DataAdaptor for Particles {
    fn num_meshes(&self) -> usize {
        1
    }
    fn mesh_metadata(&self, _i: usize) -> Result<MeshMetadata> {
        Ok(MeshMetadata { name: "bodies".into(), arrays: vec![] })
    }
    fn mesh(&self, _name: &str) -> Result<DataObject> {
        if let [table] = &self.tables[..] {
            return Ok(DataObject::Table(table.clone()));
        }
        let mut mb = svtk::MultiBlock::new(self.tables.len());
        for (i, table) in self.tables.iter().enumerate() {
            mb.set_block(i, DataObject::Table(table.clone()));
        }
        Ok(DataObject::Multi(mb))
    }
    fn time(&self) -> f64 {
        self.step as f64 * 0.1
    }
    fn time_step(&self) -> u64 {
        self.step
    }
}

/// Up to four coordinate systems, five ops each, optionally auto-bounded.
fn spec_set(nspecs: usize, resolution: usize, auto_bounds: bool) -> Vec<BinningSpec> {
    [("x", "y"), ("x", "z"), ("y", "z"), ("y", "m")]
        .iter()
        .take(nspecs)
        .map(|(a, b)| {
            let mut s = BinningSpec::new(
                "bodies",
                (*a, *b),
                resolution,
                vec![
                    VarOp { var: String::new(), op: BinOp::Count },
                    VarOp { var: "m".into(), op: BinOp::Sum },
                    VarOp { var: "x".into(), op: BinOp::Min },
                    VarOp { var: "z".into(), op: BinOp::Max },
                    VarOp { var: "m".into(), op: BinOp::Average },
                ],
            );
            if !auto_bounds {
                s.bounds = Some(([-1.0, 1.0], [-1.0, 1.0]));
            }
            s
        })
        .collect()
}

#[derive(Clone, Copy)]
struct Run {
    ranks: usize,
    device: DeviceSpec,
    execution: ExecutionMethod,
    snapshot: SnapshotMode,
    recovery: RecoveryPolicy,
    steps: u64,
    /// Tables per rank.
    tables: usize,
}

type Build<'a> = &'a (dyn Fn(ResultSink, BackendControls) -> Vec<BinningAnalysis> + Sync);

/// Drive the bridge-hosted back-ends `build` makes around a sink and the
/// run's controls, and return the published results plus the run's
/// scheduler totals and the first back-end's work/fault counters.
fn run_backends(
    cfg: Run,
    build: Build<'_>,
    fault: Option<FaultConfig>,
) -> (Vec<BinnedResult>, sensei::SchedulerSnapshot, sensei::CounterSnapshot) {
    let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
    let out = World::new(cfg.ranks).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));
        if let Some(f) = &fault {
            node.fault().configure(f.clone());
        }
        let controls = BackendControls {
            execution: cfg.execution,
            device: cfg.device,
            recovery: cfg.recovery,
            ..Default::default()
        };
        let backends = build(sink.clone(), controls);
        let counters = backends[0].counters().unwrap();
        let mut bridge = Bridge::new(node.clone());
        bridge.set_snapshot_mode(cfg.snapshot);
        for backend in backends {
            bridge.add_analysis(Box::new(backend), &comm).unwrap();
        }
        let device = match cfg.device {
            DeviceSpec::Host => None,
            DeviceSpec::Explicit(d) => Some(d),
            DeviceSpec::Auto => Some(comm.rank() % 2),
        };
        let mut sim = Particles::with_tables(node.clone(), device, comm.rank(), cfg.tables);
        for step in 0..cfg.steps {
            sim.step = step;
            bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap();
        }
        let profiler = bridge.finalize(&comm).unwrap();
        node.fault().clear();
        (profiler.scheduler_total(), counters.snapshot())
    });
    let results = sink.lock().clone();
    let (sched, counters) = out.into_iter().next().unwrap();
    (results, sched, counters)
}

/// [`run_backends`] over one fused suite of `specs`.
fn run_binning(
    cfg: Run,
    specs: Vec<BinningSpec>,
    fault: Option<FaultConfig>,
) -> (Vec<BinnedResult>, sensei::SchedulerSnapshot, sensei::CounterSnapshot) {
    let build = |sink, controls| {
        vec![BinningSuite::new(specs.clone()).unwrap().with_sink(sink).with_controls(controls)]
    };
    run_backends(cfg, &build, fault)
}

/// One `data_binning` back-end per spec, all fused or all per-op.
fn one_per_spec(
    specs: &[BinningSpec],
    fused: bool,
) -> impl Fn(ResultSink, BackendControls) -> Vec<BinningAnalysis> + Sync + '_ {
    move |sink, controls| {
        specs
            .iter()
            .map(|spec| {
                BinningAnalysis::new(spec.clone())
                    .with_fused(fused)
                    .with_sink(sink.clone())
                    .with_controls(controls)
            })
            .collect()
    }
}

fn inline_run(ranks: usize, device: DeviceSpec, steps: u64) -> Run {
    Run {
        ranks,
        device,
        execution: ExecutionMethod::Lockstep,
        snapshot: SnapshotMode::Deep,
        recovery: RecoveryPolicy::Abort,
        steps,
        tables: 1,
    }
}

fn dag_run(ranks: usize, device: DeviceSpec, snapshot: SnapshotMode, steps: u64) -> Run {
    Run { execution: ExecutionMethod::Dag, snapshot, ..inline_run(ranks, device, steps) }
}

fn assert_results_bit_identical(dag: &[BinnedResult], inline: &[BinnedResult], what: &str) {
    assert_eq!(dag.len(), inline.len(), "{what}: published result count");
    for (i, (d, r)) in dag.iter().zip(inline).enumerate() {
        assert_eq!(d.step, r.step, "{what}: result {i} step");
        assert_eq!(d.axes, r.axes, "{what}: result {i} axes");
        assert_eq!(d.arrays.len(), r.arrays.len(), "{what}: result {i} array count");
        for ((dn, dv), (rn, rv)) in d.arrays.iter().zip(&r.arrays) {
            assert_eq!(dn, rn, "{what}: result {i} array name");
            assert_eq!(
                dv.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                rv.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{what}: result {i} array {dn}"
            );
        }
    }
}

#[test]
fn dag_matches_inline_on_host() {
    let specs = spec_set(3, 4, false);
    let (dag, sched, _) =
        run_binning(dag_run(2, DeviceSpec::Host, SnapshotMode::Deep, 3), specs.clone(), None);
    let (inline, _, _) = run_binning(inline_run(2, DeviceSpec::Host, 3), specs, None);
    assert!(sched.tasks > 0, "dataflow path must actually run");
    assert_results_bit_identical(&dag, &inline, "host placement");
}

#[test]
fn dag_matches_inline_on_device() {
    let specs = spec_set(3, 4, false);
    let (dag, sched, counters) = run_binning(
        dag_run(2, DeviceSpec::Explicit(0), SnapshotMode::Deep, 3),
        specs.clone(),
        None,
    );
    let (inline, _, _) = run_binning(inline_run(2, DeviceSpec::Explicit(0), 3), specs, None);
    assert!(sched.tasks > 0, "dataflow path must actually run");
    assert_eq!(counters.kernel_launches, 3 * 3, "one fused kernel per spec per step");
    assert_results_bit_identical(&dag, &inline, "device placement");
}

#[test]
fn dag_matches_inline_with_auto_bounds_across_snapshot_modes() {
    for mode in [SnapshotMode::Deep, SnapshotMode::Cow] {
        let specs = spec_set(3, 4, true);
        let (dag, sched, _) =
            run_binning(dag_run(2, DeviceSpec::Auto, mode, 2), specs.clone(), None);
        let (inline, _, _) = run_binning(inline_run(2, DeviceSpec::Auto, 2), specs, None);
        assert!(sched.tasks > 0, "dataflow path must actually run ({})", mode.name());
        assert_results_bit_identical(&dag, &inline, mode.name());
    }
}

#[test]
fn dag_retry_recovers_injected_launch_faults_bit_identically() {
    let specs = spec_set(3, 4, false);
    let fault = FaultConfig::seeded(11)
        .with_rule(FaultRule::error(site::STREAM_LAUNCH).with_max_injections(2).for_rank(0));
    let mut cfg = dag_run(1, DeviceSpec::Explicit(0), SnapshotMode::Deep, 3);
    cfg.recovery = RecoveryPolicy::Retry { max_retries: 4, backoff_ms: 0 };
    let (dag, _, counters) = run_binning(cfg, specs.clone(), Some(fault));
    let (inline, _, _) = run_binning(inline_run(1, DeviceSpec::Explicit(0), 3), specs, None);
    assert!(counters.faults.injected >= 1, "faults were actually injected");
    assert!(counters.faults.recovered >= 1, "retry recovered the failed task nodes");
    assert_eq!(counters.faults.aborted, 0, "nothing escaped to abort");
    assert_results_bit_identical(&dag, &inline, "fault-injected retry");
}

#[test]
fn finalize_returns_the_arena_to_the_pool_under_every_engine() {
    // The suite keeps its device blocks, host staging and streams across
    // steps; `finalize` hands them back. After `Bridge::finalize` the
    // node's live pool bytes are what they were before `add_analysis`
    // (the simulation's own columns), whichever engine ran the steps —
    // also with the suite on the host, where every access request leaves
    // a host replica on the simulation's device columns, and also when a
    // step failed and the run ends through `finalize_partial`.
    for execution in
        [ExecutionMethod::Lockstep, ExecutionMethod::Asynchronous, ExecutionMethod::Dag]
    {
        for (device, fail) in
            [(DeviceSpec::Explicit(0), false), (DeviceSpec::Host, false), (DeviceSpec::Host, true)]
        {
            World::new(2).run(move |comm| {
                let node = SimNode::new(NodeConfig::fast_test(2));
                let mut sim = Particles::new(node.clone(), Some(0), comm.rank());
                let baseline = node.pool_stats_total().live_bytes;
                let suite = BinningSuite::new(spec_set(3, 8, true))
                    .unwrap()
                    .with_controls(BackendControls { execution, device, ..Default::default() });
                let counters = suite.counters().expect("the suite counts its work");
                let mut bridge = Bridge::new(node.clone());
                bridge.set_snapshot_mode(SnapshotMode::Cow);
                bridge.add_analysis(Box::new(suite), &comm).unwrap();
                for step in 0..3 {
                    sim.step = step;
                    bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
                }
                assert!(
                    execution != ExecutionMethod::Lockstep
                        || node.pool_stats_total().live_bytes > baseline,
                    "the arena (and the replicas) are resident between steps"
                );
                if fail {
                    // An asynchronous worker may still be inside step 2.
                    // Arming the fault then can fail one rank's step 2
                    // before its collectives while the other rank's waits
                    // in them for good, so wait until both rounds of every
                    // step (the bounds, then the grids) have completed:
                    // a step's rounds are counted once they return.
                    let deadline = Instant::now() + Duration::from_secs(60);
                    while counters.snapshot().allreduces < 3 * 2 {
                        assert!(Instant::now() < deadline, "step 2 never finished its rounds");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    // Every later copy submitted by the in situ side
                    // fails, the first access request's fill included:
                    // the step errors on both ranks before its first
                    // collective (here, or in its worker and then out of
                    // the drain).
                    node.fault().configure(
                        FaultConfig::seeded(1).with_rule(FaultRule::error(site::STREAM_COPY)),
                    );
                    sim.step = 3;
                    let step = bridge.execute(&sim, &comm, Duration::ZERO);
                    let (_, drain) = bridge.finalize_partial(&comm);
                    node.fault().configure(FaultConfig::default());
                    assert!(step.is_err() || drain.is_some(), "the injected failure surfaced");
                } else {
                    bridge.finalize(&comm).unwrap();
                }
                assert_eq!(
                    node.pool_stats_total().live_bytes,
                    baseline,
                    "rank {} under {} on {device:?} (failed: {fail}): pool blocks still live \
                     after finalize",
                    comm.rank(),
                    execution.name()
                );
            });
        }
    }
}

/// The three execution methods.
const EXECUTIONS: [ExecutionMethod; 3] =
    [ExecutionMethod::Lockstep, ExecutionMethod::Asynchronous, ExecutionMethod::Dag];

/// Run `f` on a thread of its own and wait at most `limit` for its value:
/// a world whose ranks wait for each other forever fails the test in
/// seconds instead of stalling the suite.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    match rx.recv_timeout(limit) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => {
            panic!("{what}: no result within {limit:?}: a rank hangs")
        }
        Err(RecvTimeoutError::Disconnected) => panic!("{what}: the run panicked"),
    }
}

#[test]
fn a_retried_launch_never_re_enters_a_collective_another_rank_left() {
    // Rank 0's binning kernel fails to launch once. With auto bounds the
    // step's bounds collective lies before it, and rank 1 has left that
    // collective for the grid allreduce: retrying the whole step would
    // send rank 0 back into it, where no one joins it. Recovery per task
    // node re-runs the launch alone, under every execution method. With
    // manual bounds there is no collective before the kernel: the control.
    for auto_bounds in [true, false] {
        let specs = spec_set(2, 4, auto_bounds);
        let clean = run_binning(inline_run(2, DeviceSpec::Explicit(0), 3), specs.clone(), None).0;
        for execution in EXECUTIONS {
            // The first armed launch on rank 0 is the bounds kernel (auto)
            // or step 0's binning kernel (manual); the second fails.
            let fault = FaultConfig::seeded(5).with_rule(
                FaultRule::error(site::STREAM_LAUNCH)
                    .with_after(1)
                    .with_max_injections(1)
                    .for_rank(0),
            );
            let cfg = Run {
                execution,
                recovery: RecoveryPolicy::Retry { max_retries: 4, backoff_ms: 0 },
                ..inline_run(2, DeviceSpec::Explicit(0), 3)
            };
            let what = format!("{} (auto bounds: {auto_bounds})", execution.name());
            let specs = specs.clone();
            let (got, _, counters) = within(Duration::from_secs(20), &what, move || {
                run_binning(cfg, specs, Some(fault))
            });
            assert_results_bit_identical(&got, &clean, &what);
            let f = counters.faults;
            assert_eq!((f.injected, f.retried, f.recovered, f.aborted), (1, 1, 1, 0), "{what}");
        }
    }
}

/// One step of a suite on each of two ranks, each rank's suite built by
/// `build(rank)`, under `execution`: what the step and the finalize
/// returned on each rank, and the allreduce rounds its counters charged,
/// in rank order.
fn one_step_per_rank(
    execution: ExecutionMethod,
    build: impl Fn(usize) -> BinningAnalysis + Send + Sync + 'static,
) -> Vec<(Result<bool>, Option<sensei::Error>, u64)> {
    World::new(2).run(move |comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));
        let controls = BackendControls { execution, ..Default::default() };
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(build(comm.rank()).with_controls(controls)), &comm).unwrap();
        let sim = Particles::new(node, None, comm.rank());
        let step = bridge.execute(&sim, &comm, Duration::ZERO);
        let (profiler, drain) = bridge.finalize_partial(&comm);
        (step, drain, profiler.counters_total().allreduces)
    })
}

#[test]
fn a_malformed_part_fails_the_step_on_both_ranks_without_a_hang() {
    // Two specs on two ranks: rank 0 owns the first, rank 1 the second.
    // Rank 0 bins the second on a finer grid than rank 1 does, so the
    // part of it rank 0 sends its owner is malformed there. Rank 1 fails
    // its step once the reduce-scatter is over, and its error reaches rank
    // 0 through the results gather instead of leaving rank 0 waiting in it.
    // The failed step's round is charged all the same (the bounds are
    // fixed, so the reduce-scatter is the step's one round).
    for execution in EXECUTIONS {
        let what = format!("{} with a malformed part", execution.name());
        let got = within(Duration::from_secs(20), &what, move || {
            one_step_per_rank(execution, |rank| {
                let mut specs = spec_set(2, 4, false);
                if rank == 0 {
                    specs[1].resolution = (8, 8);
                }
                BinningSuite::new(specs).unwrap()
            })
        });
        for (rank, (step, drain, allreduces)) in got.into_iter().enumerate() {
            let error = step.err().or(drain);
            assert!(
                matches!(error, Some(sensei::Error::Analysis(_))),
                "{what}: rank {rank} returned {error:?}"
            );
            assert_eq!(allreduces, 1, "{what}: rank {rank}'s reduce-scatter round");
        }
    }
}

#[test]
fn a_sink_on_rank_0_alone_receives_every_result_without_a_hang() {
    // Rank 1 has no consumer of its own, yet owns two of the three specs:
    // rank 0's wish for results rides to it in the reduce-scatter, so it
    // finalizes them and rank 0's gather completes.
    let specs = spec_set(3, 4, true);
    let oracle =
        run_backends(inline_run(2, DeviceSpec::Host, 1), &one_per_spec(&specs, false), None);
    assert_eq!(oracle.0.len(), 3, "the per-op oracle publishes every spec");
    for execution in EXECUTIONS {
        let what = format!("{} with a sink on rank 0 alone", execution.name());
        let sink: ResultSink = Arc::default();
        let (specs, rank0) = (specs.clone(), sink.clone());
        let got = within(Duration::from_secs(20), &what, move || {
            one_step_per_rank(execution, move |rank| {
                let suite = BinningSuite::new(specs.clone()).unwrap();
                match rank {
                    0 => suite.with_sink(rank0.clone()),
                    _ => suite,
                }
            })
        });
        for (rank, (step, drain, _)) in got.into_iter().enumerate() {
            assert!(step.is_ok() && drain.is_none(), "{what}: rank {rank} failed");
        }
        assert!(bits_of(&sink.lock()) == bits_of(&oracle.0), "{what}: differs from the oracle");
    }
}

#[test]
fn multi_table_steps_land_table_major_under_every_execution_method() {
    // Three local tables per rank: the graph's partials land table-major
    // whether one kernel covers a table's specs (in order) or each spec
    // has its own (dag), and equal the per-op oracle's grids.
    const STEPS: u64 = 3;
    const TABLES: u64 = 3;
    let specs = spec_set(3, 4, true);
    for device in [DeviceSpec::Explicit(0), DeviceSpec::Host] {
        let lockstep = Run { tables: TABLES as usize, ..inline_run(2, device, STEPS) };
        let oracle = run_backends(lockstep, &one_per_spec(&specs, false), None).0;
        let reference = run_binning(lockstep, specs.clone(), None).0;
        assert!(bits_of(&reference) == bits_of(&oracle), "{device:?}: differs from the oracle");
        for execution in EXECUTIONS {
            let cfg = Run { execution, ..lockstep };
            let (got, sched, counters) = run_binning(cfg, specs.clone(), None);
            let what = format!("{device:?} {}", execution.name());
            assert_results_bit_identical(&got, &reference, &what);
            if execution == ExecutionMethod::Dag {
                assert!(sched.tasks > 0, "{what}: the dag scheduler counted its tasks");
                continue;
            }
            assert_eq!(sched.tasks, 0, "{what}: the in-order executor counts no tasks");
            // Per table and step, auto bounds add one min/max stage (a
            // kernel and its download, or a host pass) to the step's one
            // fused kernel and download, or one fused host pass.
            let per_table = match device {
                DeviceSpec::Host => (2, 0, 0),
                _ => (0, 2, 2),
            };
            let c = (counters.table_passes, counters.kernel_launches, counters.downloads);
            let n = STEPS * TABLES;
            assert_eq!(c, (per_table.0 * n, per_table.1 * n, per_table.2 * n), "{what}");
        }
    }
}

/// Every published array as `(step, axes/name, bits)`, sorted: one spec's
/// fused result and its per-operation back-end's compare equal, whatever
/// order concurrent back-ends published them in.
fn bits_of(results: &[BinnedResult]) -> Vec<(u64, String, Vec<u64>)> {
    let mut out = Vec::new();
    for r in results {
        for (name, values) in &r.arrays {
            let key = format!("{}/{}/{name}", r.axes.0, r.axes.1);
            out.push((r.step, key, values.iter().map(|v| v.to_bits()).collect()));
        }
    }
    out.sort();
    out
}

#[test]
fn spread_kernels_are_granted_their_columns_kept_versions() {
    const STEPS: u64 = 6;
    /// The union of the two specs' variables: x, y, z, m.
    const COLUMNS: u64 = 4;
    /// One per spec, each with a packed block the arena keeps on the
    /// device it is placed on: spec 0 on the placement device 0, spec 1
    /// — as costly, and device 1 idle — on device 1.
    const KERNELS: u64 = 2;
    let specs = spec_set(KERNELS as usize, 4, false);

    // The oracle: one per-operation back-end per spec, on host data, in
    // lockstep, with `x` rewritten between steps.
    let oracle: ResultSink = Arc::default();
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let mut bridge = Bridge::new(node.clone());
        for spec in specs.clone() {
            let analysis = BinningAnalysis::new(spec)
                .with_fused(false)
                .with_sink(oracle.clone())
                .with_controls(BackendControls { device: DeviceSpec::Host, ..Default::default() });
            bridge.add_analysis(Box::new(analysis), &comm).unwrap();
        }
        let mut sim = Particles::new(node.clone(), None, comm.rank());
        for step in 0..STEPS {
            sim.step = step;
            bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
            sim.rewrite_x(&node, comm.rank(), step + 1);
        }
        bridge.finalize(&comm).unwrap();
    });

    // Two devices with modeled time: each kernel holds its device for
    // 40 ms, so the odd steps' rewrites of `x` race the kernels' reads.
    let sink: ResultSink = Arc::default();
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig {
            num_devices: 2,
            device: DeviceParams {
                launch_overhead: Duration::from_millis(40),
                ..Default::default()
            },
            ..NodeConfig::default()
        });
        let mut sim = Particles::new(node.clone(), Some(0), comm.rank());
        let baseline = node.pool_stats_total().live_bytes;
        let suite = BinningSuite::new(specs.clone())
            .unwrap()
            .with_sink(sink.clone())
            .with_controls(BackendControls {
                execution: ExecutionMethod::Dag,
                device: DeviceSpec::Explicit(0),
                ..Default::default()
            });
        let mut bridge = Bridge::new(node.clone());
        bridge.set_snapshot_mode(SnapshotMode::Cow);
        bridge.add_analysis(Box::new(suite), &comm).unwrap();
        let other = node.device(1).unwrap();
        let (mut moved_at, mut granted) = (None, 0);
        for step in 0..STEPS {
            let (before, pool) = (node.stats(), other.pool_stats());
            sim.step = step;
            bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
            // Odd steps rewrite `x` at once, racing the step's reads of
            // its CoW shares; even ones once the step has published.
            if step % 2 == 1 {
                sim.rewrite_x(&node, comm.rank(), step + 1);
            }
            let deadline = Instant::now() + Duration::from_secs(60);
            while sink.lock().len() < 2 * (step as usize + 1) {
                assert!(Instant::now() < deadline, "step {step} never published");
                std::thread::sleep(Duration::from_millis(1));
            }
            if step % 2 == 0 {
                sim.rewrite_x(&node, comm.rank(), step + 1);
            }
            let (after, now) = (node.stats(), other.pool_stats());
            let copies = after.copies_d2d - before.copies_d2d;
            let refreshes = after.replica_refreshes - before.replica_refreshes;
            let grants = after.replica_hits - before.replica_hits + refreshes;
            let requests = now.hits + now.misses - pool.hits - pool.misses;
            match moved_at {
                // The first step a kernel runs on device 1 moves its
                // columns there.
                None if copies > 0 => {
                    assert_eq!((copies, grants), (COLUMNS, 0), "step {step}: the first move");
                    moved_at = Some(step);
                }
                None => {}
                Some(_) => {
                    assert_eq!(copies, refreshes, "step {step}: a column moved again");
                    assert!(grants == 0 || grants == COLUMNS, "step {step}: {grants} grants");
                    // A column never asks the pool; a kernel whose device
                    // changed since its last step brings its packed block.
                    assert!(requests <= KERNELS, "step {step}: {requests} pool requests");
                    granted += grants;
                }
            }
            // Where each kernel ran: one on device 1 from the first step
            // on, asking for the columns there on every step, and the
            // same one — only the first step asks device 1's pool: for
            // the column replicas and the kernel's packed block.
            assert_eq!(grants, COLUMNS * u64::from(step > 0), "step {step}: device 1 grants");
            let first = if step == 0 { COLUMNS + 1 } else { 0 };
            assert_eq!(requests, first, "step {step}: device 1 pool requests");
        }
        assert_eq!(moved_at, Some(0), "the first step runs a kernel on device 1");
        assert!(granted > 0, "no later step ran a kernel on device 1 again");
        bridge.finalize(&comm).unwrap();
        assert_eq!(node.pool_stats_total().live_bytes, baseline, "pool blocks live after finalize");
    });
    assert!(
        bits_of(&sink.lock()) == bits_of(&oracle.lock()),
        "a kernel on device 1 read a column it should not"
    );
}

#[test]
fn dag_places_each_spec_by_cost_the_same_on_every_step() {
    // Two five-grid specs around two count-only ones, on two devices with
    // the data and the placement on device 0. Per row a five-grid kernel
    // models 188 units of work and a one-grid one 60, so the planner's
    // greedy deal reads: spec 0 on device 0 (a tie goes to the placement
    // device), spec 1 on the idle device 1, spec 2 on device 1 (60 < 188),
    // spec 3 on device 0 (188 < 248). Round robin would read [0, 1, 0, 1].
    const STEPS: u64 = 3;
    let mut specs = spec_set(4, 4, false);
    for light in [1, 3] {
        specs[light].ops.truncate(1);
    }
    let lockstep = run_binning(inline_run(1, DeviceSpec::Explicit(0), STEPS), specs.clone(), None);
    let sink: ResultSink = Arc::default();
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));
        let ctx = ExecContext::new(&comm, &node);
        let controls = BackendControls {
            execution: ExecutionMethod::Dag,
            device: DeviceSpec::Explicit(0),
            ..Default::default()
        };
        let mut suite = BinningSuite::new(specs.clone())
            .unwrap()
            .with_sink(sink.clone())
            .with_controls(controls);
        let mut sched = DagScheduler::new(node.clone(), SchedulerCounters::new());
        let mut sim = Particles::new(node.clone(), Some(0), comm.rank());
        for step in 0..STEPS {
            sim.step = step;
            suite.execute_dag(&sim, &ctx, &mut sched).unwrap();
            assert_eq!(suite.kernel_devices(), [0, 1, 1, 0], "step {step}");
        }
        suite.finalize(&ctx).unwrap();
    });
    assert_results_bit_identical(&sink.lock(), &lockstep.0, "spread over two devices");
}

#[test]
fn a_fused_data_binning_back_end_plans_task_graphs_under_dag() {
    // `data_binning` is a suite of one: under `dag` each fused one-spec
    // back-end plans the same task graph, on a device and on the host, and
    // publishes what the per-op lockstep oracle does, bit for bit.
    let specs = spec_set(2, 4, true);
    for device in [DeviceSpec::Explicit(0), DeviceSpec::Host] {
        let dag = dag_run(2, device, SnapshotMode::Deep, 3);
        let (fused, sched, _) = run_backends(dag, &one_per_spec(&specs, true), None);
        let (oracle, _, _) =
            run_backends(inline_run(2, device, 3), &one_per_spec(&specs, false), None);
        assert!(sched.tasks > 0, "{device:?}: data_binning fell back to monolithic dispatch");
        assert!(bits_of(&fused) == bits_of(&oracle), "{device:?}: dag differs from the oracle");
    }
}

#[test]
fn a_per_op_suite_equals_one_per_op_back_end_per_spec() {
    // The merged type's oracle path for a suite: every spec's per-op
    // stages over one shared fetch. It plans no task graph, so under
    // `dag` the engine runs its `execute` as one node a step, and it
    // publishes what one per-op back-end per spec does.
    let specs = spec_set(3, 4, true);
    let suite = |sink, controls| {
        let suite = BinningSuite::new(specs.clone()).unwrap().with_fused(false);
        vec![suite.with_sink(sink).with_controls(controls)]
    };
    for device in [DeviceSpec::Explicit(0), DeviceSpec::Host] {
        for snapshot in [SnapshotMode::Deep, SnapshotMode::Cow] {
            let (per_op, sched, _) = run_backends(dag_run(2, device, snapshot, 3), &suite, None);
            let (oracle, _, _) =
                run_backends(inline_run(2, device, 3), &one_per_spec(&specs, false), None);
            assert_eq!(sched.tasks, 3, "{device:?}: the per-op path planned a graph");
            assert!(bits_of(&per_op) == bits_of(&oracle), "{device:?} {}", snapshot.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random spec sets, placements, snapshot modes, rank counts: the
    /// spread dag execution is always bit-identical to lockstep.
    #[test]
    fn dag_is_bit_identical_to_inline_across_random_configs(
        placement in sample::select(vec![
            DeviceSpec::Host,
            DeviceSpec::Explicit(0),
            DeviceSpec::Explicit(1),
            DeviceSpec::Auto,
        ]),
        mode in sample::select(vec![SnapshotMode::Deep, SnapshotMode::Cow]),
        nspecs in 1usize..5,
        resolution in 2usize..5,
        steps in 1u64..3,
        ranks in 1usize..3,
        auto_bounds in any::<bool>(),
    ) {
        let specs = spec_set(nspecs, resolution, auto_bounds);
        let (dag, sched, _) = run_binning(dag_run(ranks, placement, mode, steps), specs.clone(), None);
        let (inline, _, _) = run_binning(inline_run(ranks, placement, steps), specs, None);
        prop_assert!(sched.tasks > 0, "dataflow path must actually run");
        assert_results_bit_identical(&dag, &inline, "random config");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fault-injected arm: injected `stream.launch` failures recovered by
    /// the per-task retry policy must not perturb a single bit of the
    /// published grids relative to a clean inline run.
    #[test]
    fn dag_retry_under_random_fault_seeds_stays_bit_identical(
        seed in 1u64..1024,
        injections in 1u64..3,
        nspecs in 1usize..4,
    ) {
        let specs = spec_set(nspecs, 4, false);
        let fault = FaultConfig::seeded(seed).with_rule(
            FaultRule::error(site::STREAM_LAUNCH).with_max_injections(injections).for_rank(0),
        );
        let mut cfg = dag_run(1, DeviceSpec::Explicit(0), SnapshotMode::Deep, 2);
        cfg.recovery = RecoveryPolicy::Retry { max_retries: 4, backoff_ms: 0 };
        let (dag, _, counters) = run_binning(cfg, specs.clone(), Some(fault));
        let (inline, _, _) = run_binning(inline_run(1, DeviceSpec::Explicit(0), 2), specs, None);
        prop_assert!(counters.faults.aborted == 0, "nothing escaped to abort");
        assert_results_bit_identical(&dag, &inline, "fault-injected random seed");
    }
}
