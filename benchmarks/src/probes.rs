//! Probes: one public function of one layer called in a loop with the
//! workload's shapes (rows per rank, mesh resolution, rank count) on a
//! node with the time model off, so every figure is real host time.
//! Each probe warms up, then samples until it has `MAX_SAMPLES` or has
//! used its time budget, and reports the median.

use std::time::{Duration, Instant};

use devsim::{KernelCost, SimNode};
use hamr::{Allocator, HamrStream, StreamMode};
use minimpi::{Segment, SegmentOp, World};
use sensei::{
    AnalysisRegistry, ConfigurableAnalysis, CreateContext, DataRequirements, ExecContext,
    OverflowPolicy, ServeHub, SessionConfig, SnapshotMode, SnapshotPipeline, StepPayload, Topic,
};
use svtk::HamrDataArray;

use crate::stats::{median, quantile_sorted};
use crate::synth::{self, SynthBodies};
use crate::workloads::{
    node_config, segment_xml, DataHome, Workload, HOST_LOCKSTEP, RANKS, RESOLUTION,
};

/// Sampling limits of one probe.
#[derive(Debug, Clone, Copy)]
pub struct ProbePlan {
    pub warmups: usize,
    pub max_samples: usize,
    /// Stop sampling after this long (at least `MIN_SAMPLES` are taken).
    pub budget: Duration,
}

impl ProbePlan {
    pub const FULL: ProbePlan =
        ProbePlan { warmups: 20, max_samples: 200, budget: Duration::from_millis(250) };
    pub const SMOKE: ProbePlan =
        ProbePlan { warmups: 1, max_samples: 5, budget: Duration::from_millis(20) };
}

const MIN_SAMPLES: usize = 5;

/// One probe's result, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeResult {
    pub name: &'static str,
    pub median_ns: f64,
    pub p95_ns: f64,
    pub samples: usize,
    /// Operations per sample.
    pub ops: u64,
    /// Bytes one sample touches, computed from the shapes (not measured).
    pub computed_bytes: u64,
}

fn sample(
    name: &'static str,
    plan: ProbePlan,
    ops: u64,
    computed_bytes: u64,
    mut f: impl FnMut(),
) -> ProbeResult {
    let warming = Instant::now();
    for done in 0..plan.warmups {
        // Slow probes (a 90-op pass over half a million rows) cut their
        // warm-up short rather than blow the run's time budget.
        if done >= 1 && warming.elapsed() > plan.budget / 2 {
            break;
        }
        f();
    }
    let started = Instant::now();
    let mut ns = Vec::with_capacity(plan.max_samples);
    while ns.len() < plan.max_samples && (ns.len() < MIN_SAMPLES || started.elapsed() < plan.budget)
    {
        let t0 = Instant::now();
        f();
        ns.push(t0.elapsed().as_nanos() as f64);
    }
    let med = median(&ns);
    ns.sort_by(f64::total_cmp);
    ProbeResult {
        name,
        median_ns: med,
        p95_ns: quantile_sorted(&ns, 0.95),
        samples: ns.len(),
        ops,
        computed_bytes,
    }
}

fn expect<T, E: std::fmt::Debug>(what: &str, r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| panic!("probe: {what}: {e:?}"))
}

/// A registry with the repository's own binning factories and no sink.
fn plain_registry() -> AnalysisRegistry {
    let mut reg = AnalysisRegistry::new();
    binning::register(&mut reg);
    binning::register_suite(&mut reg);
    reg
}

/// Run every probe with `workload`'s shapes.
pub fn run_all(workload: &Workload, rows: usize, seed: u64, plan: ProbePlan) -> Vec<ProbeResult> {
    let node = SimNode::new(node_config(2, 0.0));
    let dev = expect("device 0", node.device(0));
    let stream = dev.create_stream();
    let col_bytes = (rows * 8) as u64;
    let grid_cells = 10 * RESOLUTION * RESOLUTION;
    let mut out = Vec::new();

    // The timer itself: the floor under every other number.
    out.push(sample("probe.null_ns", plan, 1, 0, || {
        std::hint::black_box(());
    }));

    // hamr: access in place (a refcount bump) vs access that moves.
    let ones = vec![1.0f64; rows];
    let host_arr = expect(
        "host array",
        HamrDataArray::<f64>::from_slice(
            "h",
            node.clone(),
            &ones,
            1,
            Allocator::Malloc,
            None,
            HamrStream::default_stream(),
            StreamMode::Sync,
        ),
    );
    out.push(sample("probe.hamr.access_inplace_ns", plan, 1, 0, || {
        std::hint::black_box(expect("host access", host_arr.host_accessible()));
    }));
    let dev_arr = expect(
        "device array",
        HamrDataArray::<f64>::from_slice(
            "d",
            node.clone(),
            &ones,
            1,
            Allocator::OpenMp,
            Some(0),
            HamrStream::new(stream.clone()),
            StreamMode::Sync,
        ),
    );
    out.push(sample("probe.hamr.access_move_us", plan, 1, col_bytes, || {
        std::hint::black_box(expect("moving access", dev_arr.host_accessible()));
    }));
    out.push(sample("probe.hamr.alloc_init_us", plan, 1, col_bytes, || {
        let arr = HamrDataArray::<f64>::new_init(
            "t",
            node.clone(),
            rows,
            1,
            0.5,
            Allocator::OpenMp,
            Some(0),
            HamrStream::new(stream.clone()),
            StreamMode::Sync,
        );
        std::hint::black_box(expect("alloc + init", arr));
    }));
    out.push(sample("probe.svtk.deep_copy_us", plan, 1, 2 * col_bytes, || {
        let copy = expect("deep copy", dev_arr.deep_copy("c"));
        expect("sync", copy.synchronize());
    }));

    // devsim: launch + sync, pooled allocation, host-to-device copy.
    out.push(sample("probe.devsim.launch_sync_us", plan, 1, 0, || {
        expect("launch", stream.launch("probe_noop", KernelCost::ZERO, |_| Ok(())));
        expect("sync", stream.synchronize());
    }));
    out.push(sample("probe.devsim.alloc_hit_us", plan, 1, col_bytes, || {
        std::hint::black_box(expect("alloc", dev.alloc_f64(rows)));
    }));
    let (h, d) = (node.host_alloc_f64(rows), expect("alloc", dev.alloc_f64(rows)));
    out.push(sample("probe.devsim.copy_h2d_us", plan, 1, col_bytes, || {
        expect("copy", stream.copy(&h, &d));
        expect("sync", stream.synchronize());
    }));

    // minimpi: the fused suite's packed grid reduction, and a barrier.
    // Every rank runs the same loop; rank 0 holds the stopwatch.
    let mut mpi = World::new(RANKS).run(|comm| {
        let segs = [Segment::new(SegmentOp::Sum, grid_cells)];
        let reduce = sample(
            "probe.minimpi.allreduce_packed_us",
            ProbePlan { budget: Duration::MAX, ..plan },
            1,
            (grid_cells * 8) as u64,
            || {
                let data = vec![1.0f64; grid_cells];
                std::hint::black_box(expect("allreduce", comm.allreduce_packed(data, &segs)));
            },
        );
        let barrier = sample(
            "probe.minimpi.barrier_us",
            ProbePlan { budget: Duration::MAX, ..plan },
            1,
            0,
            || comm.barrier(),
        );
        [reduce, barrier]
    });
    out.extend(mpi.swap_remove(0));

    // xmlcfg + sensei configuration: what set-up pays per instantiate.
    let xml = segment_xml(workload, &workload.segments[0]);
    out.push(sample("probe.xmlcfg.parse_us", plan, 1, xml.len() as u64, || {
        std::hint::black_box(expect("parse", xmlcfg::parse(&xml)));
    }));
    let reg = plain_registry();
    let ctx = CreateContext { node: node.clone(), rank: 0, size: 1 };
    out.push(sample("probe.sensei.instantiate_us", plan, 1, xml.len() as u64, || {
        let cfg = expect("from_xml", ConfigurableAnalysis::from_xml(&xml));
        std::hint::black_box(expect("instantiate", cfg.instantiate(&reg, &ctx)).len());
    }));

    // sensei snapshot: one deep capture of the whole device table.
    let cols = synth::generate(seed, 0, rows);
    let table = expect("device table", SynthBodies::new(node.clone(), DataHome::Device, 0, &cols));
    let mut pipeline = SnapshotPipeline::new(SnapshotMode::Deep);
    let table_bytes = col_bytes * synth::VARIABLES.len() as u64;
    out.push(sample("probe.sensei.snapshot_capture_us", plan, 1, 2 * table_bytes, || {
        drop(expect("capture", pipeline.capture(&table, &DataRequirements::all(), &node)));
    }));

    // binning: one step of the workload's own back-ends (all 90
    // operations) over a host table of this shape, placed on the host,
    // on one rank.
    let host_table = expect("host table", SynthBodies::new(node.clone(), DataHome::Host, 0, &cols));
    let host_xml = segment_xml(workload, &HOST_LOCKSTEP);
    let mut binned = World::new(1).run(|comm| {
        let cfg = expect("host xml", ConfigurableAnalysis::from_xml(&host_xml));
        let ctx = CreateContext { node: node.clone(), rank: 0, size: 1 };
        let mut backends = expect("instantiate", cfg.instantiate(&plain_registry(), &ctx));
        let exec = ExecContext::new(&comm, &node);
        sample("probe.binning.execute_us", plan, 90, table_bytes, || {
            for b in &mut backends {
                expect("execute", b.execute(&host_table, &exec));
            }
        })
    });
    out.push(binned.swap_remove(0));

    // sensei::serve: one 10·r² payload fanned out to 64 sessions.
    let hub = ServeHub::new(false);
    let sessions: Vec<_> = (0..64)
        .map(|_| {
            let config = SessionConfig { queue_depth: 2, overflow: OverflowPolicy::DropOldest };
            hub.subscribe(Topic::new("*", "x:y"), config)
        })
        .collect();
    let columns: Vec<(String, Vec<f64>)> =
        (0..10).map(|i| (format!("op{i}"), vec![1.0; RESOLUTION * RESOLUTION])).collect();
    let payload = StepPayload { step: 1, time: 0.0, columns };
    let payload_bytes = payload.bytes() as u64;
    out.push(sample("probe.serve.publish_us", plan, 64, payload_bytes, || {
        std::hint::black_box(hub.publish("x:y", payload.clone()));
    }));
    drop(sessions);
    out
}

/// Convert probe results to metric values (the unit is in the name).
pub fn to_values(results: &[ProbeResult]) -> Vec<(String, f64)> {
    let mut values = Vec::new();
    for r in results {
        let scaled = if r.name.ends_with("_ns") { r.median_ns } else { r.median_ns / 1e3 };
        values.push((r.name.to_string(), scaled));
        if r.name == "probe.serve.publish_us" {
            values.push(("probe.serve.bytes_per_publish".to_string(), r.computed_bytes as f64));
        }
    }
    values
}
