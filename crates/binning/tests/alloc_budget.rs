//! Allocation budget of a warm fused step: once a suite's arena has seen
//! a step, the next ones allocate nothing grid- or column-sized except
//! the result arrays they publish, and ask the node's pool for no raw
//! block. The fetch copies nothing: a host-placed step reads the columns
//! where the access API granted them.
//!
//! This binary holds a single `#[test]`: the counting allocator sees every
//! thread of the process, so nothing else may run beside the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use devsim::{NodeConfig, SimNode};
use minimpi::World;
use sensei::{
    AnalysisAdaptor, DagScheduler, DataAdaptor, DeviceSpec, ExecContext, ExecutionMethod,
    MeshMetadata, Result, SchedulerCounters,
};
use svtk::{Allocator, DataObject, HamrDataArray, HamrStream, StreamMode, TableData};

use binning::{BinOp, BinningSpec, BinningSuite, ResultSink, VarOp};

/// Allocations at least this large are "grid-sized" here; so is a copy
/// of one of the tables' columns ([`ROWS`]).
const BIG: usize = 64 * 1024;

static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BIG_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting every request of [`BIG`] bytes or more.
struct Counting;

fn note(size: usize) {
    if size >= BIG {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        BIG_BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// 128 x 128 bins: one grid is 131 072 B, so every grid-shaped buffer of
/// the step — and every published array — counts as big.
const RESOLUTION: usize = 128;
const GRID_BYTES: usize = RESOLUTION * RESOLUTION * 8;

/// Rows per table: a column is 72 000 B.
const ROWS: usize = 9_000;

/// Three coordinate systems of six grids each: 2.4 MB of accumulators in
/// a host pass over all of them, which therefore walks its rows in long
/// blocks — the kernel scratch's index and stage are big too, and grow to
/// their size in the first step.
fn specs() -> Vec<BinningSpec> {
    [("x", "y"), ("y", "z"), ("x", "z")]
        .iter()
        .map(|(a, b)| {
            BinningSpec::new(
                "bodies",
                (*a, *b),
                RESOLUTION,
                vec![
                    VarOp { var: String::new(), op: BinOp::Count },
                    VarOp { var: "m".into(), op: BinOp::Sum },
                    VarOp { var: "m".into(), op: BinOp::Min },
                    VarOp { var: "z".into(), op: BinOp::Max },
                    VarOp { var: "m".into(), op: BinOp::Average },
                ],
            )
        })
        .collect()
}

/// `tables` particle tables per rank (auto bounds: the step issues both
/// of its collectives).
struct Tables {
    tables: Vec<TableData>,
    step: u64,
}

impl Tables {
    /// Tables resident on `home` (`None`: the host).
    fn new(node: &Arc<SimNode>, home: Option<usize>, rank: usize, tables: usize) -> Self {
        let alloc = if home.is_some() { Allocator::OpenMp } else { Allocator::Malloc };
        let table = |salt: usize| {
            let mut table = TableData::new();
            for (name, seed) in [("x", 37), ("y", 53), ("z", 71), ("m", 97)] {
                let col: Vec<f64> =
                    (0..ROWS).map(|i| (((i * seed + salt * 7919) % 1000) as f64) / 500.0).collect();
                let arr = HamrDataArray::<f64>::from_slice(
                    name,
                    node.clone(),
                    &col,
                    1,
                    alloc,
                    home,
                    HamrStream::default_stream(),
                    StreamMode::Sync,
                )
                .unwrap();
                table.set_column(arr.as_array_ref());
            }
            table
        };
        Tables { tables: (0..tables).map(|t| table(rank * tables + t)).collect(), step: 0 }
    }
}

impl DataAdaptor for Tables {
    fn num_meshes(&self) -> usize {
        1
    }
    fn mesh_metadata(&self, _i: usize) -> Result<MeshMetadata> {
        Ok(MeshMetadata { name: "bodies".into(), arrays: vec![] })
    }
    fn mesh(&self, _name: &str) -> Result<DataObject> {
        let mut mb = svtk::MultiBlock::new(self.tables.len());
        for (i, table) in self.tables.iter().enumerate() {
            mb.set_block(i, DataObject::Table(table.clone()));
        }
        Ok(DataObject::Multi(mb))
    }
    fn time(&self) -> f64 {
        self.step as f64
    }
    fn time_step(&self) -> u64 {
        self.step
    }
}

const WARMUP: u64 = 2;
const MEASURED: u64 = 3;

/// Run one configuration — tables resident on `home`, the suite placed on
/// `device` — and return the big allocations (count, bytes) the process
/// made during the measured steps, and the bytes rank 0 saw requested
/// from the host pool in them; asserts per rank that the pool made no raw
/// allocation in them.
fn measure(
    home: Option<usize>,
    device: Option<usize>,
    dag: bool,
    tables: usize,
) -> (usize, usize, u64) {
    let out = World::new(2).run(move |comm| {
        // One device: a `dag` graph's kernels cannot be spread to another
        // device, so what the arena holds after warm-up is what it needs.
        let node = SimNode::new(NodeConfig::fast_test(1));
        let ctx = ExecContext::new(&comm, &node);
        let mut sim = Tables::new(&node, home, comm.rank(), tables);
        let sink: ResultSink = Arc::default();
        let mut suite = BinningSuite::new(specs()).unwrap().with_sink(sink.clone());
        suite.controls_mut().device = device.map_or(DeviceSpec::Host, DeviceSpec::Explicit);
        if dag {
            suite.controls_mut().execution = ExecutionMethod::Dag;
        }
        let mut sched = DagScheduler::new(node.clone(), SchedulerCounters::new());
        let mut step = |sim: &mut Tables, n: u64| {
            for _ in 0..n {
                sim.step += 1;
                if dag {
                    suite.execute_dag(sim, &ctx, &mut sched).unwrap();
                } else {
                    suite.execute(sim, &ctx).unwrap();
                }
                // Dropping drained results frees memory; it allocates none.
                sink.lock().clear();
            }
        };
        step(&mut sim, WARMUP);
        comm.barrier();
        let before = (BIG_ALLOCS.load(Ordering::Relaxed), BIG_BYTES.load(Ordering::Relaxed));
        let raw_before = node.pool_stats_total().raw_allocs;
        let host_served = || node.pool_stats(devsim::MemSpace::Host).bytes_served_from_cache;
        let served_before = host_served();
        comm.barrier();
        step(&mut sim, MEASURED);
        comm.barrier();
        let after = (BIG_ALLOCS.load(Ordering::Relaxed), BIG_BYTES.load(Ordering::Relaxed));
        assert_eq!(
            node.pool_stats_total().raw_allocs,
            raw_before,
            "rank {}: raw pool allocations in warm steps",
            comm.rank()
        );
        let served = host_served() - served_before;
        comm.barrier();
        suite.finalize(&ctx).unwrap();
        (after.0 - before.0, after.1 - before.1, served)
    });
    out[0]
}

#[test]
fn warm_fused_steps_allocate_only_the_arrays_they_publish() {
    // Rank 0 alone consumes results: one array per requested op per spec.
    let arrays: usize = specs().iter().map(|s| s.ops.len()).sum::<usize>() * MEASURED as usize;
    // Data and suite on the host, both on the device, and data on the
    // device with the suite on the host: there the access API grants
    // every column from the host replica its array keeps — nothing these
    // steps rewrite, so a warm step asks the host pool for no more than
    // it does with the data on the host: no column-sized block.
    for dag in [false, true] {
        for tables in [1, 2] {
            let mut host_pool_bytes = Vec::new();
            for (home, device) in [(None, None), (Some(0), Some(0)), (Some(0), None)] {
                let (count, bytes, served) = measure(home, device, dag, tables);
                assert_eq!(
                    (count, bytes),
                    (arrays, arrays * GRID_BYTES),
                    "data {home:?} suite {device:?} dag {dag} tables {tables}: big allocations \
                     beyond the published arrays"
                );
                host_pool_bytes.push(served);
            }
            assert_eq!(
                host_pool_bytes[2], host_pool_bytes[0],
                "dag {dag} tables {tables}: device data under a host suite asked the host pool \
                 for column blocks in warm steps"
            );
        }
    }
}
