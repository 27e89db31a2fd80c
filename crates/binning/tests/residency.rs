//! Residency: an array keeps what an access request moved. A replica of
//! its contents in another memory space stays with the allocation, tagged
//! with the write generation it was filled at, so the link carries a
//! column only when the producer has rewritten it since — whoever asks,
//! however often, through whichever adoption of the memory.
//!
//! The producer here publishes Newton++'s twelve variables from device
//! memory, re-adopting its buffers on every `mesh()` call as Newton++'s
//! adaptor does, and rewrites a chosen subset in place each step. Every
//! arm is checked bit for bit against the per-operation oracle on host
//! data.

use std::sync::Arc;
use std::time::Duration;

use devsim::{CellBuffer, DeviceParams, KernelCost, NodeConfig, SimNode, Stream};
use minimpi::World;
use sensei::{
    AnalysisAdaptor, BackendControls, Bridge, DataAdaptor, DeviceSpec, ExecutionMethod,
    MeshMetadata, Result, SnapshotMode,
};
use svtk::{Allocator, DataObject, HamrDataArray, HamrStream, StreamMode, TableData};

use binning::{BinOp, BinnedResult, BinningAnalysis, BinningSpec, BinningSuite, ResultSink, VarOp};

const VARIABLES: [&str; 12] =
    ["x", "y", "z", "vx", "vy", "vz", "mass", "px", "py", "pz", "ke", "speed"];
const POSITIONS: [&str; 3] = ["x", "y", "z"];

/// Element `i` of column `var` on `rank` as the producer leaves it at
/// `step` (in [-1, 1)).
fn value(var: usize, rank: usize, step: u64, i: usize) -> f64 {
    let seed = 37 + 16 * var + 2 * step as usize;
    (((i * seed + rank * 7919) % 1000) as f64) / 500.0 - 1.0
}

/// The producer: twelve columns on `home`, rewritten in place on its own
/// stream, adopted afresh by every `mesh()` call.
struct Bodies {
    node: Arc<SimNode>,
    /// `Some` when the columns live on a device.
    stream: Option<Arc<Stream>>,
    cells: Vec<CellBuffer>,
    rows: usize,
    rank: usize,
    step: u64,
}

impl Bodies {
    fn new(node: &Arc<SimNode>, home: Option<usize>, rank: usize, rows: usize) -> Self {
        let stream = home.map(|d| node.device(d).unwrap().create_stream());
        let cells = (0..VARIABLES.len())
            .map(|_| match home {
                Some(d) => node.device(d).unwrap().alloc_f64(rows).unwrap(),
                None => node.host_alloc_f64(rows),
            })
            .collect();
        let mut bodies = Bodies { node: node.clone(), stream, cells, rows, rank, step: 0 };
        bodies.write(&VARIABLES);
        bodies
    }

    /// Overwrite `vars` with their values for the current step, where the
    /// data is; complete on return.
    fn write(&mut self, vars: &[&str]) {
        let columns: Vec<(CellBuffer, Vec<f64>)> = vars
            .iter()
            .map(|name| {
                let var = VARIABLES.iter().position(|v| v == name).unwrap();
                let values = (0..self.rows).map(|i| value(var, self.rank, self.step, i)).collect();
                (self.cells[var].clone(), values)
            })
            .collect();
        match &self.stream {
            Some(stream) => {
                stream
                    .launch("rewrite", KernelCost::ZERO, move |scope| {
                        for (cells, values) in &columns {
                            cells.f64_view(scope)?.copy_from_slice(values);
                        }
                        Ok(())
                    })
                    .unwrap();
                stream.synchronize().unwrap();
            }
            None => {
                for (cells, values) in &columns {
                    cells.host_f64().unwrap().copy_from_slice(values);
                }
            }
        }
    }

    /// The next step: `vars` rewritten, the rest untouched.
    fn advance(&mut self, vars: &[&str]) {
        self.step += 1;
        self.write(vars);
    }
}

impl DataAdaptor for Bodies {
    fn num_meshes(&self) -> usize {
        1
    }
    fn mesh_metadata(&self, _i: usize) -> Result<MeshMetadata> {
        Ok(MeshMetadata { name: "bodies".into(), arrays: vec![] })
    }
    fn mesh(&self, _name: &str) -> Result<DataObject> {
        let mut table = TableData::new();
        for (name, cells) in VARIABLES.iter().zip(&self.cells) {
            let (allocator, stream, mode) = match &self.stream {
                Some(s) => (Allocator::OpenMp, HamrStream::new(s.clone()), StreamMode::Async),
                None => (Allocator::Malloc, HamrStream::default_stream(), StreamMode::Sync),
            };
            let arr = HamrDataArray::<f64>::adopt(
                *name,
                self.node.clone(),
                cells.clone(),
                1,
                allocator,
                stream,
                mode,
            )?;
            table.set_column(arr.as_array_ref());
        }
        Ok(DataObject::Table(table))
    }
    fn time(&self) -> f64 {
        self.step as f64 * 0.1
    }
    fn time_step(&self) -> u64 {
        self.step
    }
}

/// The paper's nine coordinate systems with ten operations each: between
/// them they read all twelve variables.
fn specs() -> Vec<BinningSpec> {
    let op = |var: &str, op| VarOp { var: var.into(), op };
    [("x", "y"), ("x", "z"), ("y", "z"), ("vx", "vy"), ("vx", "vz"), ("vy", "vz")]
        .iter()
        .chain(&[("x", "vx"), ("y", "vy"), ("z", "vz")])
        .map(|(a, b)| {
            BinningSpec::new(
                "bodies",
                (*a, *b),
                8,
                vec![
                    op("", BinOp::Count),
                    op("mass", BinOp::Sum),
                    op("ke", BinOp::Sum),
                    op("px", BinOp::Sum),
                    op("py", BinOp::Sum),
                    op("pz", BinOp::Sum),
                    op("vx", BinOp::Min),
                    op("vy", BinOp::Max),
                    op("vz", BinOp::Average),
                    op("speed", BinOp::Average),
                ],
            )
        })
        .collect()
}

fn bits_of(sink: &ResultSink) -> Vec<(u64, String, Vec<u64>)> {
    let mut out = Vec::new();
    for r in sink.lock().iter() {
        let r: &BinnedResult = r;
        for (name, values) in &r.arrays {
            let key = format!("{}/{}/{name}", r.axes.0, r.axes.1);
            out.push((r.step, key, values.iter().map(|v| v.to_bits()).collect()));
        }
    }
    out.sort();
    out
}

/// The oracle: the same steps over host data, one per-operation
/// `data_binning` back-end per coordinate system, in lockstep on the host.
fn oracle(
    ranks: usize,
    rows: usize,
    steps: u64,
    rewritten: &'static [&str],
) -> Vec<(u64, String, Vec<u64>)> {
    let sink: ResultSink = Arc::default();
    World::new(ranks).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let mut bridge = Bridge::new(node.clone());
        for spec in specs() {
            let analysis = BinningAnalysis::new(spec)
                .with_fused(false)
                .with_sink(sink.clone())
                .with_controls(BackendControls { device: DeviceSpec::Host, ..Default::default() });
            bridge.add_analysis(Box::new(analysis), &comm).unwrap();
        }
        let mut sim = Bodies::new(&node, None, comm.rank(), rows);
        for _ in 0..steps {
            bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
            sim.advance(rewritten);
        }
        bridge.finalize(&comm).unwrap();
    });
    let bits = bits_of(&sink);
    assert_eq!(bits.len(), steps as usize * 9 * 10, "one array per operation per step");
    bits
}

#[test]
fn a_host_suite_moves_only_the_columns_the_producer_rewrote() {
    const RANKS: usize = 2;
    const ROWS: usize = 3_000;
    const STEPS: u64 = 4;
    let expected = oracle(RANKS, ROWS, STEPS, &POSITIONS);

    let sink: ResultSink = Arc::default();
    let node = SimNode::new(NodeConfig::fast_test(1));
    let barrier = std::sync::Barrier::new(RANKS);
    World::new(RANKS).run(|comm| {
        let mut sim = Bodies::new(&node, Some(0), comm.rank(), ROWS);
        let suite = BinningSuite::new(specs())
            .unwrap()
            .with_sink(sink.clone())
            .with_controls(BackendControls { device: DeviceSpec::Host, ..Default::default() });
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(suite), &comm).unwrap();
        for step in 0..STEPS {
            barrier.wait();
            let before = node.stats();
            barrier.wait();
            bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
            barrier.wait();
            let after = node.stats();
            // The first step moves the table; every later one re-copies
            // the three position columns and is granted the other nine.
            let moved = if step == 0 { VARIABLES.len() } else { POSITIONS.len() } as u64;
            let ranks = RANKS as u64;
            assert_eq!(after.copies_d2h - before.copies_d2h, moved * ranks, "step {step}");
            assert_eq!(
                after.bytes_d2h - before.bytes_d2h,
                moved * ranks * ROWS as u64 * 8,
                "step {step}: d2h bytes"
            );
            assert_eq!(
                after.total_link_bytes() - before.total_link_bytes(),
                after.bytes_d2h - before.bytes_d2h
            );
            let (hits, refreshes) = if step == 0 { (0, 0) } else { (9, 3) };
            assert_eq!(after.replica_hits - before.replica_hits, hits * ranks, "step {step}");
            assert_eq!(after.replica_refreshes - before.replica_refreshes, refreshes * ranks);
            sim.advance(&POSITIONS);
        }
        bridge.finalize(&comm).unwrap();
    });
    assert!(bits_of(&sink) == expected, "a granted column was not the producer's current one");
}

#[test]
fn nine_back_ends_on_a_dedicated_device_move_each_distinct_column_once_per_step() {
    const ROWS: usize = 1_024;
    const STEPS: u64 = 3;
    /// Newton++ recomputes everything but the masses.
    const REWRITTEN: [&str; 11] =
        ["x", "y", "z", "vx", "vy", "vz", "px", "py", "pz", "ke", "speed"];
    let expected = oracle(1, ROWS, STEPS, &REWRITTEN);

    let sink: ResultSink = Arc::default();
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));
        let mut sim = Bodies::new(&node, Some(0), comm.rank(), ROWS);
        let mut bridge = Bridge::new(node.clone());
        let mut fetches = Vec::new();
        // Distinct queue depths, which lockstep ignores, keep the nine
        // from sharing one engine and one merged step: each fetches its
        // own columns, and only the residency layer can spare the moves.
        for (i, spec) in specs().into_iter().enumerate() {
            let analysis =
                BinningAnalysis::new(spec).with_sink(sink.clone()).with_controls(BackendControls {
                    device: DeviceSpec::Explicit(1),
                    queue_depth: 1 + i,
                    ..Default::default()
                });
            fetches.push(analysis.counters().unwrap());
            bridge.add_analysis(Box::new(analysis), &comm).unwrap();
        }
        for step in 0..STEPS {
            let before = node.stats();
            bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
            let after = node.stats();
            let moved = if step == 0 { 12 } else { 11 };
            assert_eq!(after.copies_d2d - before.copies_d2d, moved, "step {step}: d2d copies");
            assert_eq!(after.bytes_d2d - before.bytes_d2d, moved * ROWS as u64 * 8);
            sim.advance(&REWRITTEN);
        }
        let requested: u64 = fetches.iter().map(|c| c.snapshot().fetches).sum();
        assert_eq!(requested, 90 * STEPS, "the back-ends still ask for every column they read");
        bridge.finalize(&comm).unwrap();
    });
    assert!(bits_of(&sink) == expected);
}

#[test]
fn asynchronous_device_to_host_with_a_mid_step_rewrite_matches_lockstep() {
    const RANKS: usize = 2;
    const ROWS: usize = 4_000;
    const STEPS: u64 = 6;
    let expected = oracle(RANKS, ROWS, STEPS, &POSITIONS);

    for mode in [SnapshotMode::Deep, SnapshotMode::Cow] {
        let sink: ResultSink = Arc::default();
        let node = SimNode::new(NodeConfig::fast_test(1));
        let baseline = node.pool_stats_total().live_bytes;
        World::new(RANKS).run(|comm| {
            let mut sim = Bodies::new(&node, Some(0), comm.rank(), ROWS);
            let suite = BinningSuite::new(specs()).unwrap().with_sink(sink.clone()).with_controls(
                BackendControls {
                    execution: ExecutionMethod::Asynchronous,
                    device: DeviceSpec::Host,
                    ..Default::default()
                },
            );
            let counters = suite.counters().unwrap();
            let mut bridge = Bridge::new(node.clone());
            bridge.set_snapshot_mode(mode);
            bridge.add_analysis(Box::new(suite), &comm).unwrap();
            for step in 0..STEPS {
                bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
                // Odd steps rewrite at once, racing the worker's access
                // requests; even ones wait until it has been granted its
                // columns and is walking them.
                while step % 2 == 0 && counters.snapshot().table_passes <= step {
                    std::thread::yield_now();
                }
                sim.advance(&POSITIONS);
            }
            bridge.finalize(&comm).unwrap();
            drop(sim);
        });
        assert!(
            bits_of(&sink) == expected,
            "{}: a worker read a column as the producer left it later",
            mode.name()
        );
        assert_eq!(node.pool_stats_total().live_bytes, baseline, "{}", mode.name());
    }
}

#[test]
fn a_device_full_of_unheld_replicas_still_satisfies_the_next_allocation() {
    const CELLS: usize = 2_048;
    const COLUMNS: usize = 4;
    let node = SimNode::new(NodeConfig {
        device: DeviceParams { memory_bytes: COLUMNS * CELLS * 8, ..DeviceParams::default() },
        ..NodeConfig::fast_test(1)
    });
    let dev = node.device(0).unwrap();
    let columns: Vec<_> = (0..COLUMNS)
        .map(|c| {
            HamrDataArray::<f64>::from_slice(
                format!("c{c}"),
                node.clone(),
                &vec![c as f64; CELLS],
                1,
                Allocator::Malloc,
                None,
                HamrStream::default_stream(),
                StreamMode::Sync,
            )
            .unwrap()
        })
        .collect();
    let request = || -> Vec<_> { columns.iter().map(|c| c.cuda_accessible(0).unwrap()).collect() };

    // Held replicas are not evictable: the device is full, and says so.
    let views = request();
    assert_eq!(dev.free_bytes(), 0);
    assert!(matches!(dev.alloc_f64(CELLS), Err(devsim::Error::OutOfMemory { .. })));

    // Unheld, they give way to the request, as cached blocks do.
    drop(views);
    assert_eq!(dev.free_bytes(), 0, "the replicas outlive their views");
    let moved = node.stats().copies_h2d;
    drop(request());
    assert_eq!(
        node.stats().copies_h2d,
        moved,
        "and are granted again while nothing needs the room"
    );
    let block = dev.alloc_f64(CELLS).unwrap();
    drop(block);

    // Evicted replicas come back as moves.
    drop(request());
    assert_eq!(node.stats().copies_h2d, moved + COLUMNS as u64);
}
