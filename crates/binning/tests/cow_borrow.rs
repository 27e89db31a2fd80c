//! A host-placed fused step reads the snapshot's CoW shares in place: it
//! holds read views of the producer's own columns for the length of its
//! pass and tells the snapshot to let go only once they are dropped.
//!
//! The producer here rewrites a column it has just published while the
//! asynchronous back-end is in the middle of the pass over it. The write
//! must fault a pre-write copy for the snapshot and wait for the live
//! views — not tear the rows being binned — and when the run is over no
//! share or view of the columns may be left behind.

use std::sync::Arc;
use std::time::Duration;

use devsim::{HostParams, NodeConfig, SimNode};
use minimpi::World;
use sensei::{
    AnalysisAdaptor, BackendControls, Bridge, DataAdaptor, DeviceSpec, ExecutionMethod,
    MeshMetadata, Result, SnapshotMode,
};
use svtk::{downcast, Allocator, DataObject, HamrDataArray, HamrStream, StreamMode, TableData};

use binning::{BinOp, BinnedResult, BinningSpec, BinningSuite, ResultSink, VarOp};

const ROWS: usize = 20_000;
const STEPS: u64 = 3;

/// Column `name` of `rank`'s table as the solver leaves it for `step`.
fn column(name: &str, rank: usize, step: u64) -> Vec<f64> {
    let seed = match name {
        "x" => 37,
        "y" => 53,
        _ => 97 + 2 * step as usize,
    };
    (0..ROWS).map(|i| (((i * seed + rank * 7919) % 1000) as f64) / 500.0 - 1.0).collect()
}

/// A solver stand-in with three host-resident columns; it overwrites `m`
/// in place every step.
struct Solver {
    table: TableData,
    rank: usize,
    step: u64,
}

impl Solver {
    fn new(node: &Arc<SimNode>, rank: usize) -> Self {
        let mut table = TableData::new();
        for name in ["x", "y", "m"] {
            let col = HamrDataArray::<f64>::from_slice(
                name,
                node.clone(),
                &column(name, rank, 0),
                1,
                Allocator::Malloc,
                None,
                HamrStream::default_stream(),
                StreamMode::Sync,
            )
            .unwrap();
            table.set_column(col.as_array_ref());
        }
        Solver { table, rank, step: 0 }
    }

    /// Advance to `step`: overwrite `m` through a write-intent host view,
    /// the path that faults an unresolved CoW pin.
    fn advance(&mut self, step: u64) {
        self.step = step;
        let cells = downcast::<f64>(self.table.column("m").unwrap()).unwrap().data();
        cells.host_f64().unwrap().copy_from_slice(&column("m", self.rank, step));
    }
}

impl DataAdaptor for Solver {
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

/// Two coordinate systems with prescribed bounds: one table pass per step.
fn specs() -> Vec<BinningSpec> {
    [("x", "y"), ("y", "x")]
        .iter()
        .map(|(a, b)| {
            let mut s = BinningSpec::new(
                "bodies",
                (*a, *b),
                8,
                vec![
                    VarOp { var: String::new(), op: BinOp::Count },
                    VarOp { var: "m".into(), op: BinOp::Sum },
                    VarOp { var: "m".into(), op: BinOp::Min },
                    VarOp { var: "m".into(), op: BinOp::Max },
                ],
            );
            s.bounds = Some(([-1.0, 1.0], [-1.0, 1.0]));
            s
        })
        .collect()
}

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

/// The lockstep oracle: the same steps with the solver waiting for every
/// analysis before it touches `m`.
fn lockstep_oracle() -> Vec<(u64, String, Vec<u64>)> {
    let sink: ResultSink = Arc::default();
    World::new(2).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let suite = BinningSuite::new(specs())
            .unwrap()
            .with_sink(sink.clone())
            .with_controls(BackendControls { device: DeviceSpec::Host, ..Default::default() });
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(suite), &comm).unwrap();
        let mut sim = Solver::new(&node, comm.rank());
        for step in 0..STEPS {
            sim.advance(step);
            bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
        }
        bridge.finalize(&comm).unwrap();
    });
    let results = sink.lock().clone();
    bits_of(&results)
}

#[test]
fn producer_write_mid_pass_faults_a_copy_and_the_borrowed_step_stays_exact() {
    let oracle = lockstep_oracle();
    assert_eq!(oracle.len(), STEPS as usize * 2 * 4);

    let sink: ResultSink = Arc::default();
    let faults = World::new(2).run(|comm| {
        // A host task is held for at least 100 ms of modeled time: once
        // the back-end is seen entering its table pass, it keeps its views
        // of the columns for that long.
        let node = SimNode::new(NodeConfig {
            num_devices: 1,
            time_scale: 1.0,
            host: HostParams { task_overhead: Duration::from_millis(100), ..Default::default() },
            ..Default::default()
        });
        let empty = node.pool_stats_total().live_bytes;
        let mut sim = Solver::new(&node, comm.rank());
        let baseline = node.pool_stats_total().live_bytes;

        let suite = BinningSuite::new(specs()).unwrap().with_sink(sink.clone()).with_controls(
            BackendControls {
                execution: ExecutionMethod::Asynchronous,
                device: DeviceSpec::Host,
                ..Default::default()
            },
        );
        let counters = suite.counters().unwrap();
        let mut bridge = Bridge::new(node.clone());
        bridge.set_snapshot_mode(SnapshotMode::Cow);
        bridge.add_analysis(Box::new(suite), &comm).unwrap();

        for step in 0..STEPS {
            bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
            // The back-end counts a table pass when it has fetched the
            // step's columns and is about to walk them: from here on it
            // reads `m` in place.
            while counters.snapshot().table_passes <= step {
                std::thread::yield_now();
            }
            sim.advance(step + 1);
        }
        let (profiler, err) = bridge.finalize_partial(&comm);
        assert!(err.is_none(), "rank {}: {err:?}", comm.rank());

        // The arena went back to the pool; with the solver's table gone
        // nothing holds a column any more — no snapshot share, no view,
        // hence no pin.
        assert_eq!(node.pool_stats_total().live_bytes, baseline, "arena released at finalize");
        drop(sim);
        assert_eq!(node.pool_stats_total().live_bytes, empty, "a share or view outlived the run");

        let snap = &profiler.snapshot_samples()[0].counters;
        assert_eq!(snap.arrays_copied, 0, "cow captures copy nothing eagerly");
        snap.cow_faults
    });

    let results = sink.lock().clone();
    assert!(bits_of(&results) == oracle, "a borrowed column was read after the producer's write");
    for (rank, faults) in faults.iter().enumerate() {
        assert!(
            (1..=STEPS).contains(faults),
            "rank {rank}: {faults} faults; a write that met live views must fault exactly once"
        );
    }
}
