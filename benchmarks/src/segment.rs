//! Running one segment of a workload: a fresh simulated node and a fresh
//! two-rank world, the workload's XML specialized for the segment and
//! instantiated through the public registry path, a warm-up checked
//! against the oracle, then the timed closed loop.
//!
//! The loop is closed: each rank steps its producer, calls
//! `Bridge::execute`, and only then starts the next step. The only
//! threads beyond the two ranks are the program's own stream executors
//! and in situ workers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use binning::{BinningAnalysis, BinningSpec, BinningSuite, ResultSink};
use devsim::{PoolStats, SimNode, StatsSnapshot};
use minimpi::{Comm, TierSnapshot, World};
use newtonpp::{forces::Gravity, ic::UniformIc, IcKind, Newton, NewtonAdaptor, NewtonConfig};
use parking_lot::Mutex;
use sensei::{
    AnalysisAdaptor, AnalysisCounters, AnalysisRegistry, Bridge, ConfigurableAnalysis,
    CounterSnapshot, CreateContext, DataAdaptor, SchedulerSnapshot, SnapshotCounterSnapshot,
};

use crate::calib;
use crate::check::{fold_oracle, Checker, Oracle};
use crate::metrics::{CALIBRATION_MS, CPU_MS, INSITU_MS, LINK_BYTES, RUN_MS, SETUP_S};
use crate::procstat::{self, CpuTimes};
use crate::stats::median;
use crate::synth::{self, SynthBodies};
use crate::trace::{self, Span, SpanSummary, TracedAnalysis, TracedData};
use crate::workloads::{
    document, instances, node_config, oracle_xml, segment_xml, DataHome, Segment, Source, Workload,
    RANKS,
};

/// How many timed steps a round runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepPlan {
    /// As many as fit in `seconds` of wall time at `step_s` seconds per
    /// step, drain included. Without `step_s` (no earlier round of this
    /// segment to go by) the warm-up's median step is used.
    Budget { seconds: f64, step_s: Option<f64> },
    /// Exactly this many.
    Fixed(u64),
}

/// Abort the whole run on a program error. A rank that returned early
/// would leave the other one waiting in a collective forever, so an `Err`
/// from the program ends the process with no result line.
fn must<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("spine: {what} failed: {e}");
        std::process::exit(2)
    })
}

/// Every binning spec of the workload's XML, in configuration order.
pub fn specs_of(workload: &Workload) -> Vec<BinningSpec> {
    instances(&document(workload))
        .into_iter()
        .map(|el| must("reading a binning spec", BinningSpec::from_element(el)))
        .collect()
}

/// The benchmark's registry: the repository's binning back-ends, each
/// with the result sink attached and wrapped in the span-recording
/// delegate. The wrapped back-end's counters are also handed out so the
/// rank can read them before and after the timed loop.
fn registry(
    sink: &ResultSink,
    rank: usize,
    counters: &Arc<Mutex<Vec<Arc<AnalysisCounters>>>>,
) -> AnalysisRegistry {
    fn wrap(
        backend: Box<dyn AnalysisAdaptor>,
        rank: usize,
        counters: &Mutex<Vec<Arc<AnalysisCounters>>>,
    ) -> Box<dyn AnalysisAdaptor> {
        if let Some(c) = backend.counters() {
            counters.lock().push(c);
        }
        Box::new(TracedAnalysis::new(backend, rank))
    }
    let mut reg = AnalysisRegistry::new();
    let (s, c) = (sink.clone(), counters.clone());
    reg.register("data_binning", move |el, _ctx| {
        let spec = BinningSpec::from_element(el)?;
        let per_op = el.attr("fused") == Some("off");
        let backend = BinningAnalysis::new(spec).with_fused(!per_op).with_sink(s.clone());
        Ok(wrap(Box::new(backend), rank, &c))
    });
    let (s, c) = (sink.clone(), counters.clone());
    reg.register("binning_suite", move |el, _ctx| {
        let specs = el
            .find_all("instance")
            .map(BinningSpec::from_element)
            .collect::<sensei::Result<Vec<_>>>()?;
        let backend = BinningSuite::new(specs)?.with_sink(s.clone());
        Ok(wrap(Box::new(backend), rank, &c))
    });
    reg
}

/// The producer side of a segment.
enum Producer {
    Newton(Box<Newton>),
    Rows(SynthBodies),
}

impl Producer {
    fn step(&mut self, comm: &Comm) -> sensei::Result<Duration> {
        match self {
            Producer::Newton(sim) => sim.step(comm),
            Producer::Rows(table) => {
                let t0 = Instant::now();
                table.advance()?;
                Ok(t0.elapsed())
            }
        }
    }

    fn time_step(&self) -> u64 {
        match self {
            Producer::Newton(sim) => sim.step_count(),
            Producer::Rows(table) => table.time_step(),
        }
    }

    /// Call `Bridge::execute` on the current state through the
    /// span-recording data adaptor.
    fn execute(&self, bridge: &mut Bridge, comm: &Comm, solver: Duration) -> sensei::Result<bool> {
        let rank = comm.rank();
        match self {
            Producer::Newton(sim) => {
                bridge.execute(&TracedData::new(&NewtonAdaptor::new(sim), rank), comm, solver)
            }
            Producer::Rows(table) => bridge.execute(&TracedData::new(table, rank), comm, solver),
        }
    }
}

/// What a segment run needs to know about its input.
#[derive(Clone, Copy)]
struct Input {
    source: Source,
    home: DataHome,
    seed: u64,
}

/// Build this rank's producer and report the in-range row count of every
/// spec (global over ranks; collective for the synthetic table).
fn build_producer(
    node: &Arc<SimNode>,
    comm: &Comm,
    input: Input,
    specs: &[BinningSpec],
) -> (Producer, Vec<u64>) {
    match input.source {
        Source::Newton { bodies } => {
            // The paper's evaluation IC at reduced scale, seeded by the
            // benchmark. Repartitioning is off, as in section 4.3.
            let cfg = NewtonConfig {
                ic: IcKind::Uniform(UniformIc {
                    n: bodies,
                    seed: input.seed,
                    half_width: 1.0,
                    mass_range: (0.5, 1.5),
                    velocity_scale: 0.1,
                    central_mass: bodies as f64,
                }),
                dt: 1e-4,
                grav: Gravity { g: 1.0, eps: 0.05 },
                x_extent: (-2.0, 2.0),
                repartition_every: None,
            };
            let sim = must("Newton::new", Newton::new(node.clone(), comm, comm.rank(), cfg));
            // Newton++ is only ever binned with bounds computed on the
            // fly, which keep every row in range: each count grid must
            // sum to all bodies.
            assert!(specs.iter().all(|s| s.bounds.is_none()), "Newton++ needs auto bounds");
            let rows = vec![sim.num_global() as u64; specs.len()];
            (Producer::Newton(Box::new(sim)), rows)
        }
        Source::Rows { rows_per_rank } => {
            let cols = synth::generate(input.seed, comm.rank(), rows_per_rank);
            let local: Vec<u64> = specs
                .iter()
                .map(|s| {
                    let bounds = s.bounds.expect("the synthetic table is binned with fixed bounds");
                    synth::rows_in_range(&cols, (&s.axes.0, &s.axes.1), bounds)
                })
                .collect();
            let global =
                comm.allreduce(local, |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect());
            let table = SynthBodies::new(node.clone(), input.home, comm.rank(), &cols);
            (Producer::Rows(must("placing the synthetic table", table)), global)
        }
    }
}

/// Attach the XML's back-ends to a fresh bridge on this rank.
fn build_bridge(
    node: &Arc<SimNode>,
    comm: &Comm,
    xml: &str,
    sink: &ResultSink,
    counters: &Arc<Mutex<Vec<Arc<AnalysisCounters>>>>,
) -> Bridge {
    let config = must("ConfigurableAnalysis::from_xml", ConfigurableAnalysis::from_xml(xml));
    let ctx = CreateContext { node: node.clone(), rank: comm.rank(), size: comm.size() };
    let reg = registry(sink, comm.rank(), counters);
    let backends = must("instantiating the back-ends", config.instantiate(&reg, &ctx));
    let mut bridge = Bridge::new(node.clone());
    if let Some(mode) = config.snapshot_mode() {
        bridge.set_snapshot_mode(mode);
    }
    for b in backends {
        must("Bridge::add_analysis", bridge.add_analysis(b, comm));
    }
    bridge
}

/// One producer step followed by one `Bridge::execute`, both timed.
/// Returns `(step + execute, execute)` wall seconds.
fn one_step(producer: &mut Producer, bridge: &mut Bridge, comm: &Comm) -> (f64, f64) {
    let rank = comm.rank();
    let t0 = Instant::now();
    // Spans carry the step id the data will have once the step is done.
    let next = producer.time_step() + 1;
    let solver = trace::span(trace::SOLVER_STEP, rank, next, || producer.step(comm));
    let solver = must("the producer step", solver);
    let t1 = Instant::now();
    let out =
        trace::span(trace::BRIDGE_EXECUTE, rank, next, || producer.execute(bridge, comm, solver));
    must("Bridge::execute", out);
    let t2 = Instant::now();
    ((t2 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
}

/// The oracle: the same specs and seed on the host, in lockstep, per
/// operation, with the time model off, for the first `steps` steps.
fn run_oracle(
    workload: &Workload,
    segment: &Segment,
    input: Input,
    specs: &[BinningSpec],
) -> Oracle {
    let node = SimNode::new(node_config(segment.devices, 0.0));
    let sink: ResultSink = Arc::default();
    let xml = oracle_xml(workload);
    let host_input = Input { home: DataHome::Host, ..input };
    World::new(RANKS).run(|comm| {
        let counters = Arc::default();
        let (mut producer, _) = build_producer(&node, &comm, host_input, specs);
        let mut bridge = build_bridge(&node, &comm, &xml, &sink, &counters);
        for _ in 0..workload.oracle_steps {
            one_step(&mut producer, &mut bridge, &comm);
        }
        must("the oracle's finalize", bridge.finalize(&comm));
    });
    fold_oracle(specs, &sink)
}

/// What rank 0 samples around the timed loop (node- and process-wide).
struct Rank0 {
    stats: (StatsSnapshot, StatsSnapshot),
    pool: (PoolStats, PoolStats),
    cpu: CpuTimes,
    ctx_switches: u64,
    threads: u64,
    checker: Checker,
}

/// What every rank reports.
struct RankOut {
    /// Seconds from the start of the set-up to the end of the warm-up.
    setup_s: f64,
    /// Mean of the calibration kernel's time before and after the loop.
    calibration_ms: f64,
    step_wall: Vec<f64>,
    exec_wall: Vec<f64>,
    drain_s: f64,
    collectives: u64,
    tier: TierSnapshot,
    analysis: CounterSnapshot,
    snapshot: SnapshotCounterSnapshot,
    sched: SchedulerSnapshot,
    rank0: Option<Rank0>,
}

fn analysis_total(counters: &Mutex<Vec<Arc<AnalysisCounters>>>) -> CounterSnapshot {
    let mut total = CounterSnapshot::default();
    for c in counters.lock().iter() {
        total.accumulate(&c.snapshot());
    }
    total
}

fn analysis_delta(after: &CounterSnapshot, before: &CounterSnapshot) -> CounterSnapshot {
    CounterSnapshot {
        table_passes: after.table_passes - before.table_passes,
        kernel_launches: after.kernel_launches - before.kernel_launches,
        downloads: after.downloads - before.downloads,
        allreduces: after.allreduces - before.allreduces,
        fetches: after.fetches - before.fetches,
        comm: after.comm.delta_since(&before.comm),
        ..*after
    }
}

/// Longest the warm-up may take to deliver its results before the run is
/// declared stuck.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(60);

/// Until a round has measured it, an asynchronous segment's drain is
/// assumed to cost as much again as its timed loop.
const UNMEASURED_DRAIN_FACTOR: f64 = 2.0;

/// One round of a segment: set-up and warm-up on a fresh node and world,
/// the timed loop, the drain.
pub fn run_round(
    workload: &Workload,
    segment: &'static Segment,
    seed: u64,
    plan: StepPlan,
    traced: bool,
) -> RoundOutcome {
    let t_setup = Instant::now();
    let input = Input { source: workload.source, home: segment.data, seed };
    let specs = specs_of(workload);
    let specs = specs.as_slice();
    let oracle = run_oracle(workload, segment, input, specs);
    let node = SimNode::new(node_config(segment.devices, workload.time_scale));
    let xml = segment_xml(workload, segment);
    let sink: ResultSink = Arc::default();
    let barrier = Barrier::new(RANKS);
    let warm = workload.warmup_steps;
    let oracle = Mutex::new(Some(oracle));
    let max_steps = match workload.source {
        Source::Rows { .. } => synth::MAX_STEPS - warm,
        Source::Newton { .. } => 100_000,
    };
    // Rank 0 picks the step count after the warm-up; rank 1 reads it
    // behind the barrier.
    let planned_steps = AtomicU64::new(0);

    let outs = World::new(RANKS).run(|comm| {
        let rank = comm.rank();
        let collectives = Arc::new(AtomicU64::new(0));
        let hook_count = collectives.clone();
        // Inherited by the duplicates the asynchronous engines make, so
        // worker collectives are counted too.
        comm.set_collective_hook(Arc::new(move |_seq| {
            hook_count.fetch_add(1, Ordering::Relaxed);
        }));
        let counters = Arc::default();
        let (mut producer, expected_rows) = build_producer(&node, &comm, input, specs);
        let mut bridge = build_bridge(&node, &comm, &xml, &sink, &counters);
        let mut checker = (rank == 0)
            .then(|| Checker::new(specs, expected_rows, oracle.lock().take().expect("taken once")));

        // Warm-up: pool fill, lazy threads; checked against the oracle.
        let mut warm_wall = Vec::with_capacity(warm as usize);
        let t_warm = Instant::now();
        for _ in 0..warm {
            warm_wall.push(one_step(&mut producer, &mut bridge, &comm).0);
            if let Some(c) = &mut checker {
                c.drain(&sink);
            }
        }
        // Wait until every warm-up result has arrived, so asynchronous
        // workers start the timed loop with an empty queue and the
        // oracle comparison is complete before anything is timed.
        if let Some(c) = &mut checker {
            while !c.has_all(1, warm) {
                if t_warm.elapsed() > QUIESCE_TIMEOUT {
                    eprintln!("spine: warm-up results never arrived: {:?}", c.messages);
                    std::process::exit(2);
                }
                std::thread::sleep(Duration::from_micros(200));
                c.drain(&sink);
            }
        }
        barrier.wait();
        let setup_s = t_setup.elapsed().as_secs_f64();
        // Both ranks at once, as in the loop that follows.
        let calibration_before = calib::kernel_ms();

        // Samples before the timed loop. Rank 0 takes the node- and
        // process-wide ones while rank 1 waits at the second barrier.
        let before = (rank == 0).then(|| {
            let steps = match plan {
                StepPlan::Fixed(n) => n,
                StepPlan::Budget { seconds, step_s } => {
                    let drain = if segment.lockstep() { 1.0 } else { UNMEASURED_DRAIN_FACTOR };
                    let step_s = step_s.unwrap_or_else(|| median(&warm_wall) * drain);
                    (seconds / step_s).floor() as u64
                }
            };
            planned_steps
                .store(steps.clamp(workload.min_steps.min(max_steps), max_steps), Ordering::SeqCst);
            if traced {
                trace::set_enabled(true);
            }
            (
                node.stats(),
                node.pool_stats_total(),
                procstat::cpu_times(),
                procstat::context_switches(),
            )
        });
        let analysis_before = analysis_total(&counters);
        let tier_before = comm.tier_stats();
        let collectives_before = collectives.load(Ordering::Relaxed);
        barrier.wait();
        let steps = planned_steps.load(Ordering::SeqCst);

        let mut step_wall = Vec::with_capacity(steps as usize);
        let mut exec_wall = Vec::with_capacity(steps as usize);
        for _ in 0..steps {
            let (step_s, exec_s) = one_step(&mut producer, &mut bridge, &comm);
            step_wall.push(step_s);
            exec_wall.push(exec_s);
            if let Some(c) = &mut checker {
                c.drain(&sink);
            }
        }
        // Sampled while the in situ workers are still alive.
        let live = (rank == 0).then(|| (procstat::context_switches(), procstat::thread_count()));
        let last = warm + steps;
        let t0 = Instant::now();
        let profiler = trace::span(trace::BRIDGE_FINALIZE, rank, last, || bridge.finalize(&comm));
        let profiler = must("Bridge::finalize", profiler);
        let drain_s = t0.elapsed().as_secs_f64();
        barrier.wait();

        let rank0 = before.map(|(stats0, pool0, cpu0, ctx0)| {
            if traced {
                trace::set_enabled(false);
            }
            let (ctx1, threads) = live.expect("sampled on rank 0");
            let mut checker = checker.take().expect("rank 0 owns the checker");
            checker.drain(&sink);
            checker.finish(warm + 1, last);
            Rank0 {
                stats: (stats0, node.stats()),
                pool: (pool0, node.pool_stats_total()),
                cpu: procstat::cpu_times().since(&cpu0),
                ctx_switches: ctx1.saturating_sub(ctx0),
                threads,
                checker,
            }
        });
        trace::flush_thread();
        barrier.wait();
        let calibration_ms = 0.5 * (calibration_before + calib::kernel_ms());
        RankOut {
            setup_s,
            calibration_ms,
            step_wall,
            exec_wall,
            drain_s,
            collectives: collectives.load(Ordering::Relaxed) - collectives_before,
            tier: comm.tier_stats().delta_since(&tier_before),
            analysis: analysis_delta(&analysis_total(&counters), &analysis_before),
            snapshot: profiler.snapshot_samples().iter().fold(
                SnapshotCounterSnapshot::default(),
                |mut acc, s| {
                    acc.accumulate(&s.counters);
                    acc
                },
            ),
            sched: profiler.scheduler_total(),
            rank0,
        }
    });
    let spans = if traced { trace::take_all() } else { Vec::new() };
    fold_round(workload, segment, &outs, spans)
}

/// What one round of a segment measured.
#[derive(Debug, Default)]
pub struct RoundOutcome {
    /// Timed steps executed per rank.
    pub steps: u64,
    /// Wall seconds the timed loop and the drain took.
    pub timed_s: f64,
    /// Failed operations (missing, duplicate or wrong results).
    pub failed: u64,
    pub messages: Vec<String>,
    /// Metric name → per-step value for this round.
    pub values: BTreeMap<String, f64>,
    /// Spans of the timed loop (traced rounds only).
    pub spans: Vec<Span>,
}

/// Turn the ranks' raw samples into per-step figures.
fn fold_round(
    workload: &Workload,
    segment: &Segment,
    outs: &[RankOut],
    spans: Vec<Span>,
) -> RoundOutcome {
    let r0 = outs[0].rank0.as_ref().expect("rank 0 reports the node-wide samples");
    let steps = outs[0].step_wall.len() as u64;
    let n = steps as f64;
    let ranks = RANKS as f64;
    // A step ends at the slower rank; the drain is paid once.
    let run_s: f64 = (0..steps as usize)
        .map(|i| outs.iter().map(|o| o.step_wall[i]).fold(0.0, f64::max))
        .sum::<f64>()
        + outs.iter().map(|o| o.drain_s).fold(0.0, f64::max);

    // Time-like figures are reported at reference machine speed (see
    // `calib`): scaled by this round's own calibration reading.
    let calibration_ms = outs.iter().map(|o| o.calibration_ms).fold(0.0, f64::max);
    let speed = calib::REFERENCE_MS / calibration_ms;

    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    put(CALIBRATION_MS, calibration_ms);
    put(SETUP_S, outs.iter().map(|o| o.setup_s).fold(0.0, f64::max) * speed);
    put(RUN_MS, run_s / n * 1e3 * speed);
    put(INSITU_MS, median(&outs[0].exec_wall) * 1e3 * speed);
    put(CPU_MS, r0.cpu.total_s() / n * 1e3 * speed);
    let (s0, s1) = r0.stats;
    put(LINK_BYTES, (s1.total_link_bytes() - s0.total_link_bytes()) as f64 / n);

    // devsim: node-wide operation counters over the timed loop and drain.
    let d = |a: u64, b: u64| (b - a) as f64 / n;
    put("devsim.kernels_per_step", d(s0.kernels_launched, s1.kernels_launched));
    put("devsim.host_tasks_per_step", d(s0.host_tasks, s1.host_tasks));
    put("devsim.copies_per_step", d(s0.total_copies(), s1.total_copies()));
    put("devsim.h2d_bytes_per_step", d(s0.bytes_h2d, s1.bytes_h2d));
    put("devsim.d2h_bytes_per_step", d(s0.bytes_d2h, s1.bytes_d2h));
    put("devsim.d2d_bytes_per_step", d(s0.bytes_d2d, s1.bytes_d2d));
    put("devsim.stream_syncs_per_step", d(s0.stream_syncs, s1.stream_syncs));
    put("devsim.device_allocs_per_step", d(s0.device_allocs, s1.device_allocs));
    let (p0, p1) = (&r0.pool.0, &r0.pool.1);
    let requests = (p1.hits + p1.misses - p0.hits - p0.misses) as f64;
    let hit_rate = if requests > 0.0 { (p1.hits - p0.hits) as f64 / requests } else { 0.0 };
    put("devsim.pool_hit_rate", hit_rate);
    put("devsim.pool_raw_allocs_per_step", d(p0.raw_allocs, p1.raw_allocs));
    put("devsim.pool_high_water_mb", p1.high_water_bytes as f64 / (1 << 20) as f64);

    // binning: the wrapped back-ends' own work counters, per rank.
    let per_rank_step = n * ranks;
    let sum = |f: fn(&RankOut) -> u64| outs.iter().map(f).sum::<u64>() as f64 / per_rank_step;
    put("binning.table_passes_per_step", sum(|o| o.analysis.table_passes));
    put("binning.kernel_launches_per_step", sum(|o| o.analysis.kernel_launches));
    put("binning.downloads_per_step", sum(|o| o.analysis.downloads));
    put("binning.allreduces_per_step", sum(|o| o.analysis.allreduces));
    put("binning.fetches_per_step", sum(|o| o.analysis.fetches));

    // minimpi: the solver's communicator plus, under asynchronous
    // engines, the workers' duplicates (which account separately and are
    // visible through the back-ends' comm counters).
    let tiers: Vec<TierSnapshot> = outs
        .iter()
        .map(|o| {
            let mut t = o.tier;
            if !segment.lockstep() {
                t.accumulate(&o.analysis.comm);
            }
            t
        })
        .collect();
    put("minimpi.collectives_per_step", sum(|o| o.collectives));
    put(
        "minimpi.messages_per_step",
        tiers.iter().map(TierSnapshot::messages).sum::<u64>() as f64 / per_rank_step,
    );
    put(
        "minimpi.bytes_per_step",
        tiers.iter().map(TierSnapshot::bytes).sum::<u64>() as f64 / per_rank_step,
    );
    put(
        "minimpi.modeled_us_per_step",
        tiers.iter().map(|t| t.modeled().as_secs_f64()).sum::<f64>() * 1e6 / per_rank_step,
    );

    // sensei snapshot and scheduler layers: the profiler only reports
    // run totals, so these are averaged over warm-up and timed steps.
    let all_steps = (workload.warmup_steps + steps) as f64 * ranks;
    let snap = |f: fn(&SnapshotCounterSnapshot) -> u64| {
        outs.iter().map(|o| f(&o.snapshot)).sum::<u64>() as f64 / all_steps
    };
    put("sensei.snapshot_bytes_per_step", snap(|s| s.bytes_copied));
    put("sensei.snapshot_arrays_copied_per_step", snap(|s| s.arrays_copied));
    put("sensei.snapshot_arrays_shared_per_step", snap(|s| s.arrays_shared));
    put("sensei.cow_faults_per_step", snap(|s| s.cow_faults));
    let sched = |f: fn(&SchedulerSnapshot) -> u64| {
        outs.iter().map(|o| f(&o.sched)).sum::<u64>() as f64 / all_steps
    };
    put("sensei.sched_tasks_per_step", sched(|s| s.tasks));
    put("sensei.sched_steals_per_step", sched(|s| s.steals));

    // process
    put("proc.cpu_user_ms_per_step", r0.cpu.user_s / n * 1e3 * speed);
    put("proc.cpu_sys_ms_per_step", r0.cpu.sys_s / n * 1e3 * speed);
    put("proc.ctx_switches_per_step", r0.ctx_switches as f64 / n);
    put("proc.threads_peak", r0.threads as f64);
    put("proc.peak_rss_mb", procstat::peak_rss_mb());

    RoundOutcome {
        steps,
        timed_s: run_s,
        failed: r0.checker.failed,
        messages: r0.checker.messages.clone(),
        values: v,
        spans,
    }
}

/// Fold a traced round's span summary into `values`, at reference
/// machine speed by the traced round's own calibration reading.
pub fn put_span_metrics(values: &mut BTreeMap<String, f64>, s: &SpanSummary, calibration_ms: f64) {
    let speed = calib::REFERENCE_MS / calibration_ms;
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    put("newtonpp.step_ms", s.solver_step_ms * speed);
    put("sensei.execute_p95_ms", s.execute_p95_ms * speed);
    put("sensei.execute_self_ms", s.execute_self_ms * speed);
    put("sensei.finalize_ms", s.finalize_ms * speed);
    put("binning.execute_ms", s.backend_execute_ms * speed);
    put("svtk.fetch_ms", s.fetch_ms * speed);
    put("svtk.fetch_calls_per_step", s.fetch_calls);
}
