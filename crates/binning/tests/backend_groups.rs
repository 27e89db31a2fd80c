//! Back-end groups: the paper's nine one-spec `data_binning` back-ends,
//! attached one by one, share one engine and run one fused step between
//! them. Their per-spec results must be bit-identical to nine per-op
//! back-ends' and to one `binning_suite`'s under every execution method,
//! placement and snapshot mode; the group must do the suite's work (one
//! fetch, two allreduces a step); each member must write its own
//! `output` directory as an ungrouped back-end does; and a fault in the
//! merged step must be counted once and reach every member alike.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use devsim::fault::{site, FaultConfig, FaultRule};
use devsim::{NodeConfig, SimNode};
use minimpi::World;
use sensei::{
    AnalysisAdaptor, BackendControls, Bridge, CounterSnapshot, DataAdaptor, DeviceSpec,
    ExecutionMethod, MeshMetadata, RecoveryPolicy, Result, SnapshotMode,
};
use svtk::{Allocator, DataObject, HamrDataArray, HamrStream, StreamMode, TableData};

use binning::{BinOp, BinnedResult, BinningAnalysis, BinningSpec, BinningSuite, ResultSink, VarOp};

/// A particle table with four columns per rank, resident where the run
/// puts it, counting the `mesh()` calls made on it.
struct Particles {
    table: TableData,
    step: u64,
    fetches: AtomicU64,
}

impl Particles {
    fn new(node: Arc<SimNode>, device: Option<usize>, rank: usize) -> Self {
        let alloc = if device.is_some() { Allocator::OpenMp } else { Allocator::Malloc };
        let mut table = TableData::new();
        for (name, seed) in [("x", 37), ("y", 53), ("z", 71), ("m", 97)] {
            let col: Vec<f64> = (0..200)
                .map(|i| (((i * seed + rank * 7919) % 1000) as f64) / 500.0 - 1.0)
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
        Particles { table, step: 0, fetches: AtomicU64::new(0) }
    }
}

impl DataAdaptor for Particles {
    fn num_meshes(&self) -> usize {
        1
    }
    fn mesh_metadata(&self, _i: usize) -> Result<MeshMetadata> {
        Ok(MeshMetadata { name: "bodies".into(), arrays: vec![] })
    }
    fn mesh(&self, _name: &str) -> Result<DataObject> {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        Ok(DataObject::Table(self.table.clone()))
    }
    fn time(&self) -> f64 {
        self.step as f64 * 0.1
    }
    fn time_step(&self) -> u64 {
        self.step
    }
}

/// Nine coordinate systems over the four columns, each with its own op
/// list: `count()` first, in the middle, listed twice, or absent.
fn nine_specs(auto_bounds: bool) -> Vec<BinningSpec> {
    let op = |var: &str, op| VarOp { var: var.into(), op };
    let count = || op("", BinOp::Count);
    let ops = [
        vec![count(), op("m", BinOp::Sum), op("x", BinOp::Min)],
        vec![op("m", BinOp::Sum), count(), op("z", BinOp::Max), op("m", BinOp::Average)],
        vec![count(), op("y", BinOp::Min), count(), op("m", BinOp::Average)],
        vec![op("m", BinOp::Sum), op("z", BinOp::Max)],
    ];
    let axes = [
        ("x", "y"),
        ("x", "z"),
        ("x", "m"),
        ("y", "z"),
        ("y", "m"),
        ("z", "m"),
        ("y", "x"),
        ("z", "x"),
        ("m", "x"),
    ];
    axes.iter()
        .enumerate()
        .map(|(i, axes)| {
            let mut s = BinningSpec::new("bodies", *axes, 4, ops[i % ops.len()].clone());
            if !auto_bounds {
                s.bounds = Some(([-1.0, 1.0], [-1.0, 1.0]));
            }
            s
        })
        .collect()
}

/// How the specs are attached.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Attach {
    /// One fused `data_binning` back-end per spec: the bridge groups them.
    Grouped,
    /// One per-op `data_binning` back-end per spec: never grouped.
    PerOp,
    /// One fused `binning_suite` over every spec.
    Suite,
}

#[derive(Debug, Clone, Copy)]
struct Run {
    ranks: usize,
    /// Ranks per node: `ranks` puts every rank on one node.
    per_node: usize,
    execution: ExecutionMethod,
    device: DeviceSpec,
    snapshot: SnapshotMode,
    recovery: RecoveryPolicy,
    auto_bounds: bool,
    steps: u64,
}

fn run_of(execution: ExecutionMethod, device: DeviceSpec, snapshot: SnapshotMode) -> Run {
    let recovery = RecoveryPolicy::Abort;
    let (ranks, per_node) = (2, 2);
    Run { ranks, per_node, execution, device, snapshot, recovery, auto_bounds: true, steps: 3 }
}

/// What a run left behind, seen from rank 0.
struct Outcome {
    /// Every result, ordered by step, then by spec.
    results: Vec<BinnedResult>,
    engines: usize,
    /// `mesh()` calls on the simulation's adaptor.
    fetch_calls: u64,
    /// Summed over every back-end.
    counters: CounterSnapshot,
}

/// The back-ends `attach` makes, spec `i`'s output under `out/spec<i>`.
fn backends(
    attach: Attach,
    specs: &[BinningSpec],
    sink: &ResultSink,
    controls: BackendControls,
    out: Option<&Path>,
) -> Vec<BinningAnalysis> {
    if attach == Attach::Suite {
        let suite = BinningSuite::new(specs.to_vec()).unwrap().with_sink(sink.clone());
        return vec![suite.with_controls(controls)];
    }
    let backend = |(i, spec): (usize, &BinningSpec)| {
        let b = BinningAnalysis::new(spec.clone())
            .with_fused(attach == Attach::Grouped)
            .with_sink(sink.clone())
            .with_controls(controls);
        match out {
            Some(dir) => b.with_output_dir(dir.join(format!("spec{i}"))),
            None => b,
        }
    };
    specs.iter().enumerate().map(backend).collect()
}

fn run(cfg: Run, attach: Attach, fault: Option<FaultConfig>, out: Option<PathBuf>) -> Outcome {
    let specs = nine_specs(cfg.auto_bounds);
    let sink: ResultSink = Arc::default();
    let outs = World::new(cfg.ranks).with_ranks_per_node(cfg.per_node).run(|comm| {
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
        let backends = backends(attach, &specs, &sink, controls, out.as_deref());
        let counters: Vec<_> = backends.iter().map(|b| b.counters().unwrap()).collect();
        let mut bridge = Bridge::new(node.clone());
        bridge.set_snapshot_mode(cfg.snapshot);
        for b in backends {
            bridge.add_analysis(Box::new(b), &comm).unwrap();
        }
        let engines = bridge.num_engines();
        let device = match cfg.device {
            DeviceSpec::Host => None,
            DeviceSpec::Explicit(d) => Some(d),
            DeviceSpec::Auto => Some(comm.rank() % 2),
        };
        let mut sim = Particles::new(node.clone(), device, comm.rank());
        for step in 0..cfg.steps {
            sim.step = step;
            bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
        }
        bridge.finalize(&comm).unwrap();
        node.fault().clear();
        let mut total = CounterSnapshot::default();
        for c in &counters {
            total.accumulate(&c.snapshot());
        }
        (engines, sim.fetches.load(Ordering::Relaxed), total)
    });
    let (engines, fetch_calls, counters) = outs.into_iter().next().unwrap();
    let mut results = std::mem::take(&mut *sink.lock());
    let order = |r: &BinnedResult| (r.step, specs.iter().position(|s| s.axes == r.axes).unwrap());
    // Workers of separate engines deliver in any interleaving.
    results.sort_by_key(order);
    Outcome { results, engines, fetch_calls, counters }
}

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

/// [`run`] under a 60 s watchdog.
fn watched(cfg: Run, attach: Attach, fault: Option<FaultConfig>, out: Option<PathBuf>) -> Outcome {
    let what = format!("{attach:?} {cfg:?}");
    within(Duration::from_secs(60), &what, move || run(cfg, attach, fault, out))
}

/// Every result as (step, axes, array name, value bits).
fn bits_of(results: &[BinnedResult]) -> Vec<(u64, String, String, Vec<u64>)> {
    let mut out = Vec::new();
    for r in results {
        for (name, values) in &r.arrays {
            let axes = format!("{}-{}", r.axes.0, r.axes.1);
            out.push((r.step, axes, name.clone(), values.iter().map(|v| v.to_bits()).collect()));
        }
    }
    out
}

const EXECUTIONS: [ExecutionMethod; 3] =
    [ExecutionMethod::Lockstep, ExecutionMethod::Asynchronous, ExecutionMethod::Dag];

#[test]
fn nine_data_binning_back_ends_equal_per_op_back_ends_and_one_suite() {
    for execution in EXECUTIONS {
        for device in [DeviceSpec::Host, DeviceSpec::Explicit(0)] {
            for snapshot in [SnapshotMode::Deep, SnapshotMode::Cow] {
                let cfg = run_of(execution, device, snapshot);
                let what = format!("{} on {device:?}, {}", execution.name(), snapshot.name());
                let grouped = watched(cfg, Attach::Grouped, None, None);
                let per_op = watched(cfg, Attach::PerOp, None, None);
                let suite = watched(cfg, Attach::Suite, None, None);
                assert_eq!(grouped.results.len(), 9 * 3, "{what}: one result per spec and step");
                assert!(bits_of(&grouped.results) == bits_of(&per_op.results), "{what}: per-op");
                assert!(bits_of(&grouped.results) == bits_of(&suite.results), "{what}: suite");
                assert_eq!((grouped.engines, per_op.engines, suite.engines), (1, 9, 1), "{what}");

                // The group does the suite's work: one fetch of the four
                // columns, the bounds and the grid allreduce, a step.
                let (g, s) = (grouped.counters, suite.counters);
                assert_eq!(grouped.fetch_calls, 3, "{what}: one mesh() call a step");
                assert_eq!((g.allreduces, g.fetches), (2 * 3, 4 * 3), "{what}");
                let work = |c: CounterSnapshot| {
                    (c.fetches, c.allreduces, c.table_passes, c.kernel_launches, c.downloads)
                };
                assert_eq!(work(g), work(s), "{what}: the group works like the suite");
            }
        }
    }
}

#[test]
fn nine_grouped_back_ends_equal_per_op_back_ends_on_more_ranks_and_nodes() {
    // Nine specs dealt over three ranks, and over four ranks on two
    // nodes: each owner's share of the merged step reaches rank 0 and
    // every member gets its own results, as nine per-op back-ends publish.
    for (ranks, per_node) in [(3, 3), (4, 2)] {
        for device in [DeviceSpec::Host, DeviceSpec::Explicit(0)] {
            let cfg = Run {
                ranks,
                per_node,
                ..run_of(ExecutionMethod::Lockstep, device, SnapshotMode::Deep)
            };
            let what = format!("{ranks} ranks, {per_node} per node, on {device:?}");
            let grouped = watched(cfg, Attach::Grouped, None, None);
            let per_op = watched(cfg, Attach::PerOp, None, None);
            assert_eq!(grouped.results.len(), 9 * 3, "{what}: one result per spec and step");
            assert!(bits_of(&grouped.results) == bits_of(&per_op.results), "{what}: per-op");
        }
    }
}

/// Every file under `dir`, by path relative to it, with its bytes.
fn files_under(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut todo = vec![dir.to_path_buf()];
    while let Some(d) = todo.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                todo.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                out.push((path.strip_prefix(dir).unwrap().to_path_buf(), bytes));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn each_member_writes_its_own_output_like_an_ungrouped_back_end() {
    let root = std::env::temp_dir().join(format!("binning_groups_{}", std::process::id()));
    for execution in [ExecutionMethod::Lockstep, ExecutionMethod::Dag] {
        let cfg = run_of(execution, DeviceSpec::Explicit(0), SnapshotMode::Cow);
        let (grouped, per_op) = (root.join("grouped"), root.join("per_op"));
        watched(cfg, Attach::Grouped, None, Some(grouped.clone()));
        watched(cfg, Attach::PerOp, None, Some(per_op.clone()));
        let written = files_under(&grouped);
        let names: Vec<_> = written.iter().map(|(p, _)| p.parent().unwrap()).collect();
        for i in 0..9 {
            let dir = PathBuf::from(format!("spec{i}"));
            assert!(names.contains(&dir.as_path()), "{}: spec{i} wrote nothing", execution.name());
        }
        assert!(written == files_under(&per_op), "{}: grouped output differs", execution.name());
        std::fs::remove_dir_all(&root).unwrap();
    }
}

#[test]
fn a_retried_fault_in_the_merged_step_is_counted_once_and_every_member_recovers() {
    // Rank 0's second launch fails once, at the sites of
    // `dag_execution.rs::a_retried_launch_never_re_enters_a_collective_
    // another_rank_left`: with auto bounds after the bounds collective
    // rank 1 has left, with manual bounds before any collective. Retried per task node, the
    // group recovers bit-identically, and the fault is counted once over
    // all nine members.
    for auto_bounds in [true, false] {
        let clean = Run {
            auto_bounds,
            ..run_of(EXECUTIONS[0], DeviceSpec::Explicit(0), SnapshotMode::Deep)
        };
        let clean = watched(clean, Attach::PerOp, None, None);
        for execution in EXECUTIONS {
            let fault = FaultConfig::seeded(5).with_rule(
                FaultRule::error(site::STREAM_LAUNCH)
                    .with_after(1)
                    .with_max_injections(1)
                    .for_rank(0),
            );
            let cfg = Run {
                execution,
                recovery: RecoveryPolicy::Retry { max_retries: 4, backoff_ms: 0 },
                auto_bounds,
                ..run_of(execution, DeviceSpec::Explicit(0), SnapshotMode::Deep)
            };
            let what = format!("{} (auto bounds: {auto_bounds})", execution.name());
            let got = watched(cfg, Attach::Grouped, Some(fault), None);
            assert!(bits_of(&got.results) == bits_of(&clean.results), "{what}");
            let f = got.counters.faults;
            assert_eq!((f.injected, f.retried, f.recovered, f.aborted), (1, 1, 1, 0), "{what}");
        }
    }
}

#[test]
fn a_skipped_merged_step_is_dropped_for_every_member() {
    // One rank: a failed launch drops the step for the whole group, and
    // every other step reaches every member intact.
    for execution in EXECUTIONS {
        let cfg =
            Run { ranks: 1, ..run_of(execution, DeviceSpec::Explicit(0), SnapshotMode::Deep) };
        let clean = watched(cfg, Attach::Grouped, None, None);
        let fault = FaultConfig::seeded(3)
            .with_rule(FaultRule::error(site::STREAM_LAUNCH).with_after(1).with_max_injections(1));
        let cfg = Run { recovery: RecoveryPolicy::SkipStep, ..cfg };
        let got = watched(cfg, Attach::Grouped, Some(fault), None);
        let what = execution.name();
        let per_step: Vec<usize> =
            (0..3).map(|s| got.results.iter().filter(|r| r.step == s).count()).collect();
        assert_eq!(per_step.iter().filter(|&&n| n == 0).count(), 1, "{what}: {per_step:?}");
        assert!(per_step.iter().all(|&n| n == 0 || n == 9), "{what}: {per_step:?}");
        let kept: Vec<_> =
            clean.results.into_iter().filter(|r| per_step[r.step as usize] > 0).collect();
        assert!(bits_of(&got.results) == bits_of(&kept), "{what}: the other steps");
        let f = got.counters.faults;
        assert_eq!((f.injected, f.skipped, f.aborted), (1, 1, 0), "{what}");
    }
}
