//! Live result serving: the `sensei::serve` fan-out under the bounded
//! fused binning workload, swept over session counts, plus the steering
//! round trip.
//!
//! Two experiments:
//!
//! * **fan-out sweep** — one Newton++ rank runs the suite
//!   asynchronously under CoW snapshots while N simulated clients
//!   (mixed ~80% fast / ~15% slow / ~5% continuously churning)
//!   subscribe by (variable × coordinate system). Each step the new
//!   binned results are serialized **once** per coordinate system and
//!   published through the hub; the sweep repeats at growing N and the
//!   report hard-asserts that bytes serialized per step are *flat*
//!   across session counts (the zero-copy claim), that every
//!   block-policy fast client received every frame it subscribed to
//!   (backpressure loses nothing), and that the binned results
//!   themselves are bit-identical whatever the audience size.
//! * **steering pair** — a two-rank run where a rank-0 session submits
//!   steering commands (frequency, resolution, pause, resume) at fixed
//!   steps; the bridge drains them at step boundaries, rank 0 decides
//!   and broadcasts, and every rank rebuilds through the ordinary
//!   reconfiguration path. A second run replays the identical schedule
//!   by calling [`sensei::Bridge::reconfigure_backend`] directly; the
//!   two sinks must match bit for bit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use devsim::SimNode;
use minimpi::World;
use newtonpp::{forces::Gravity, ic::UniformIc, IcKind, Newton, NewtonAdaptor, NewtonConfig};
use parking_lot::Mutex;
use sensei::{
    select_device, AnalysisAdaptor, BackendControls, Bridge, ExecutionMethod, OverflowPolicy,
    Placement, ServeHub, ServeKnobs, ServeStepStats, SessionConfig, SessionHandle, SnapshotMode,
    SteeringCommand, StepPayload, Topic,
};

use binning::{BinnedResult, BinningSpec, BinningSuite, ResultSink};

use crate::case::bench_node_config;
use crate::chaos::results_bit_identical;
use crate::report::{Claim, Label, Report, Row};
use crate::workload::paper_binning_specs_bounded;

/// Scale of the serving bench.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Global body count.
    pub bodies: usize,
    /// Simulation steps per arm.
    pub steps: u64,
    /// Binning mesh resolution per axis.
    pub resolution: usize,
    /// Binning instances (coordinate systems published per step).
    pub instances: usize,
    /// The fan-out sweep's session counts, in run order.
    pub session_counts: Vec<usize>,
    /// Per-session delivery queue depth.
    pub queue_depth: usize,
    /// Client worker threads per arm (each polls a slice of sessions).
    pub client_threads: usize,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            bodies: 256,
            steps: 10,
            resolution: 16,
            instances: 3,
            session_counts: vec![64, 512, 4096],
            queue_depth: 4,
            client_threads: 4,
        }
    }
}

/// How a simulated client behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientClass {
    /// Block-policy, drains eagerly: must never lose a frame.
    Fast,
    /// Drop-oldest, drains rarely: stays current, may skip frames.
    Slow,
}

/// Outcome of one fan-out arm (one session count).
#[derive(Debug, Clone)]
pub struct ServeArm {
    /// Sessions opened up front (fast + slow; churners come and go on
    /// top of these).
    pub sessions: usize,
    /// Block-policy fast clients among them.
    pub fast: usize,
    /// Drop-oldest slow clients among them.
    pub slow: usize,
    /// Total attach/detach cycles the churner thread performed.
    pub churned: u64,
    /// Per-step serving samples (`Profiler::serve_samples`).
    pub step_stats: Vec<ServeStepStats>,
    /// Frames delivered, run total.
    pub delivered: u64,
    /// Frames dropped (slow evictions; never fast clients), run total.
    pub dropped: u64,
    /// Bytes serialized per step, in step order — the flat-bytes claim
    /// compares these vectors across arms.
    pub bytes_per_step: Vec<u64>,
    /// Frames the fast clients were owed but did not receive (hard
    /// assert: zero).
    pub fast_missing: u64,
    /// Median of the per-step p50 delivery latencies, nanoseconds.
    pub p50_ns: u64,
    /// Worst per-step p99 delivery latency, nanoseconds.
    pub p99_ns: u64,
    /// Rank 0's sink: one [`BinnedResult`] per (step, instance).
    pub results: Vec<BinnedResult>,
    /// Wall time for the arm.
    pub wall: Duration,
}

/// Outcome of the steering pair.
#[derive(Debug, Clone)]
pub struct SteeringOutcome {
    /// Sink of the session-steered run.
    pub steered: Vec<BinnedResult>,
    /// Sink of the run replaying the same schedule by direct
    /// reconfiguration.
    pub replayed: Vec<BinnedResult>,
    /// Steering commands the bridge applied (both ranks).
    pub steers_applied: u64,
    /// Rank 0's `step action detail` steering log.
    pub steer_log: Vec<String>,
}

impl SteeringOutcome {
    /// True when the steered and replayed sinks match bit for bit.
    pub fn bit_identical(&self) -> bool {
        results_bit_identical(&self.steered, &self.replayed)
    }
}

/// The full serving report: the fan-out sweep plus the steering pair.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// The configuration that produced this report.
    pub config: ServeBenchConfig,
    /// One arm per session count, in `session_counts` order.
    pub arms: Vec<ServeArm>,
    /// The steering round trip.
    pub steering: SteeringOutcome,
}

impl ServeBenchReport {
    /// The zero-copy claim: bytes serialized per step are identical
    /// across every session count.
    pub fn flat_bytes(&self) -> bool {
        let reference = &self.arms[0].bytes_per_step;
        self.arms.iter().all(|a| &a.bytes_per_step == reference)
    }

    /// The backpressure claim: no block-policy fast client missed a
    /// frame, at any session count.
    pub fn zero_fast_drops(&self) -> bool {
        self.arms.iter().all(|a| a.fast_missing == 0)
    }

    /// The audience-independence claim: the binned results are
    /// bit-identical whatever the session count.
    pub fn results_identical_across_arms(&self) -> bool {
        let reference = &self.arms[0].results;
        self.arms.iter().all(|a| results_bit_identical(reference, &a.results))
    }

    /// The steering claim: steered == replayed, bit for bit.
    pub fn steering_bit_identical(&self) -> bool {
        self.steering.bit_identical()
    }
}

impl Report for ServeBenchReport {
    fn mode(&self) -> &'static str {
        "serve"
    }

    fn config(&self) -> String {
        format!("{:?}", self.config)
    }

    fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for a in &self.arms {
            let arm = format!("s{}", a.sessions);
            let counters = [
                ("sessions", a.sessions as u64),
                ("fast", a.fast as u64),
                ("slow", a.slow as u64),
                ("churned", a.churned),
                ("delivered", a.delivered),
                ("dropped", a.dropped),
                ("fast_missing", a.fast_missing),
            ];
            rows.extend(Row::counts(&arm, &counters));
            rows.push(Row::new(&arm, "p50_us", "us", Label::Wall, a.p50_ns as f64 / 1e3));
            rows.push(Row::new(&arm, "p99_us", "us", Label::Wall, a.p99_ns as f64 / 1e3));
            let bytes = |metric, v: Option<u64>| {
                Row::new(&arm, metric, "B", Label::Count, v.unwrap_or(0) as f64)
            };
            rows.push(bytes("bytes_per_step_min", a.bytes_per_step.iter().copied().min()));
            rows.push(bytes("bytes_per_step_max", a.bytes_per_step.iter().copied().max()));
            rows.push(Row::ms(&arm, "wall_ms", Label::Wall, a.wall));
        }
        let s = &self.steering;
        let counters = [
            ("steers_applied", s.steers_applied),
            ("steered_results", s.steered.len() as u64),
            ("replayed_results", s.replayed.len() as u64),
        ];
        rows.extend(Row::counts("steering", &counters));
        rows
    }

    fn claims(&self) -> Vec<Claim> {
        let per_arm = |f: &dyn Fn(&ServeArm) -> u64| -> String {
            let pairs = self.arms.iter().map(|a| format!("{}: {}", a.sessions, f(a)));
            format!("by sessions: {}", pairs.collect::<Vec<_>>().join(", "))
        };
        let first_step_bytes = per_arm(&|a| a.bytes_per_step.first().copied().unwrap_or(0));
        vec![
            Claim::gate("flat_bytes_across_sessions", self.flat_bytes(), first_step_bytes),
            Claim::gate("zero_fast_drops", self.zero_fast_drops(), per_arm(&|a| a.fast_missing)),
            Claim::gate("results_identical_across_arms", self.results_identical_across_arms(), ""),
            Claim::gate("steering_bit_identical", self.steering_bit_identical(), ""),
            Claim::lt("steers_applied", 0, self.steering.steers_applied),
        ]
    }
}

fn newton_config(bodies: usize) -> NewtonConfig {
    NewtonConfig {
        ic: IcKind::Uniform(UniformIc {
            n: bodies,
            seed: 20230817,
            half_width: 1.0,
            mass_range: (0.5, 1.5),
            velocity_scale: 0.1,
            central_mass: bodies as f64,
        }),
        dt: 1e-4,
        grav: Gravity { g: 1.0, eps: 0.05 },
        x_extent: (-2.0, 2.0),
        repartition_every: None,
    }
}

/// The arm's binning instances and their coordinate-system labels.
fn serve_specs(resolution: usize, instances: usize) -> (Vec<BinningSpec>, Vec<String>) {
    let specs: Vec<BinningSpec> =
        paper_binning_specs_bounded(resolution).into_iter().take(instances).collect();
    let coords = specs.iter().map(|s| format!("{}:{}", s.axes.0, s.axes.1)).collect();
    (specs, coords)
}

/// Serialize one binned result for publication: the columns are the
/// finalized per-bin output arrays, already host-resident.
fn payload_of(r: &BinnedResult) -> (String, StepPayload) {
    let coords = format!("{}:{}", r.axes.0, r.axes.1);
    (coords, StepPayload { step: r.step, time: r.time, columns: r.arrays.clone() })
}

/// One client worker: polls its sessions until the hub closes them,
/// returning per-session received-frame counts in input order. Fast
/// clients drain everything available each pass; slow clients take at
/// most one frame every 64th pass (their drop-oldest queues evict).
fn client_worker(mut sessions: Vec<(ClientClass, SessionHandle)>) -> Vec<(ClientClass, u64)> {
    let mut counts = vec![0u64; sessions.len()];
    let mut open: Vec<usize> = (0..sessions.len()).collect();
    let mut pass = 0u64;
    while !open.is_empty() {
        pass += 1;
        let mut progressed = false;
        open.retain(|&i| {
            let (class, h) = &mut sessions[i];
            match class {
                ClientClass::Fast => {
                    while let Some(frame) = h.try_recv() {
                        counts[i] += 1;
                        progressed = true;
                        drop(frame);
                    }
                }
                ClientClass::Slow => {
                    if pass.is_multiple_of(64) {
                        if let Some(frame) = h.try_recv() {
                            counts[i] += 1;
                            progressed = true;
                            drop(frame);
                        }
                    }
                }
            }
            !h.is_closed()
        });
        if !progressed {
            std::thread::yield_now();
        }
    }
    let classes: Vec<ClientClass> = sessions.iter().map(|(c, _)| *c).collect();
    drop(sessions); // unsubscribe + flush buffered latency samples
    classes.into_iter().zip(counts).collect()
}

/// Run one fan-out arm at `sessions` concurrent clients.
pub fn run_serve_arm(cfg: &ServeBenchConfig, sessions: usize) -> ServeArm {
    let node = SimNode::new(bench_node_config(1, 0.0));
    let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
    let hub = ServeHub::new(false);

    let fast = (sessions * 8).div_ceil(10).max(1);
    let slow = (sessions * 15 / 100).min(sessions - fast);
    let churn_slots = (sessions - fast - slow).max(1);

    let cfg = cfg.clone();
    let run_node = node.clone();
    let run_sink = sink.clone();
    let run_hub = hub.clone();
    type ArmOut = (Vec<ServeStepStats>, Vec<(ClientClass, u64)>, u64, Duration);
    let outcomes: Vec<ArmOut> = World::new(1).run(move |comm| {
        let node = run_node.clone();
        let hub = run_hub.clone();
        let t0 = Instant::now();

        let (specs, coords) = serve_specs(cfg.resolution, cfg.instances);
        let suite = BinningSuite::new(specs)
            .expect("suite over paper specs")
            .with_controls(BackendControls {
                execution: ExecutionMethod::Asynchronous,
                queue_depth: cfg.steps.max(1) as usize,
                ..Default::default()
            })
            .with_sink(run_sink.clone());

        let mut bridge = Bridge::new(node.clone());
        bridge.set_snapshot_mode(SnapshotMode::Cow);
        bridge.attach_serve(hub.clone());
        bridge.add_analysis(Box::new(suite), &comm).expect("attach suite");

        // The standing audience: fast block-policy clients that must
        // see every frame, slow drop-oldest clients that may not. Each
        // subscribes to one coordinate system, alternating between the
        // wildcard variable and the count output every instance
        // publishes.
        let block = SessionConfig { queue_depth: cfg.queue_depth, overflow: OverflowPolicy::Block };
        let lossy =
            SessionConfig { queue_depth: cfg.queue_depth, overflow: OverflowPolicy::DropOldest };
        let mut clients: Vec<(ClientClass, SessionHandle)> = (0..fast + slow)
            .map(|i| {
                let variable = if i % 2 == 0 { "*" } else { "count" };
                let topic = Topic::new(variable, coords[i % coords.len()].clone());
                if i < fast {
                    (ClientClass::Fast, hub.subscribe(topic, block))
                } else {
                    (ClientClass::Slow, hub.subscribe(topic, lossy))
                }
            })
            .collect();

        let threads = cfg.client_threads.max(1);
        let chunk = (clients.len()).div_ceil(threads).max(1);
        let mut workers = Vec::new();
        while !clients.is_empty() {
            let batch: Vec<_> = clients.drain(..chunk.min(clients.len())).collect();
            workers.push(std::thread::spawn(move || client_worker(batch)));
        }

        // The churners: short-lived sessions continuously attaching and
        // detaching while publication runs, exercising the sharded
        // registry under churn.
        let stop = Arc::new(AtomicBool::new(false));
        let churner = {
            let hub = hub.clone();
            let stop = stop.clone();
            let coords = coords.clone();
            std::thread::spawn(move || {
                let config = SessionConfig { queue_depth: 1, overflow: OverflowPolicy::DropOldest };
                let mut cycles = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let mut batch: Vec<SessionHandle> = (0..churn_slots)
                        .map(|i| {
                            hub.subscribe(Topic::new("*", coords[i % coords.len()].clone()), config)
                        })
                        .collect();
                    for h in &mut batch {
                        let _ = h.try_recv();
                    }
                    cycles += churn_slots as u64;
                    drop(batch);
                    std::thread::yield_now();
                }
                cycles
            })
        };

        let sim_selector = Placement::Host.sim_selector(1);
        let sim_device = select_device(comm.rank(), 1, &sim_selector);
        let mut sim =
            Newton::new(node.clone(), &comm, sim_device, newton_config(cfg.bodies)).expect("sim");

        let mut published = 0usize;
        for step in 0..cfg.steps {
            let solver_time = sim.step(&comm).expect("solver step");
            let adaptor = NewtonAdaptor::new(&sim);
            bridge.execute(&adaptor, &comm, solver_time).expect("in situ execute");

            // The suite runs asynchronously: wait for this step's
            // results to land in the sink, then serialize each
            // coordinate system once and fan it out.
            let expected = (step as usize + 1) * cfg.instances;
            let waited = Instant::now();
            let fresh: Vec<(String, StepPayload)> = loop {
                {
                    let all = run_sink.lock();
                    if all.len() >= expected {
                        break all[published..expected].iter().map(payload_of).collect();
                    }
                }
                assert!(
                    waited.elapsed() < Duration::from_secs(60),
                    "in situ worker stalled before step {step}"
                );
                std::thread::yield_now();
            };
            published = expected;
            for (coords, payload) in fresh {
                hub.publish(&coords, payload);
            }
        }

        // Shut the serving side down before finalize so the client
        // threads drain, flush their latency samples, and unsubscribe;
        // finalize then folds the per-step stats into the profiler.
        hub.shutdown();
        stop.store(true, Ordering::Release);
        let mut counts = Vec::new();
        for w in workers {
            counts.extend(w.join().expect("client worker"));
        }
        let churned = churner.join().expect("churner");
        let profiler = bridge.finalize(&comm).expect("finalize");
        (profiler.serve_samples().to_vec(), counts, churned, t0.elapsed())
    });

    let (step_stats, counts, churned, wall) = outcomes.into_iter().next().expect("one rank");
    let fast_missing: u64 = counts
        .iter()
        .filter(|(class, _)| *class == ClientClass::Fast)
        .map(|(_, got)| cfg.steps.saturating_sub(*got))
        .sum();
    let snapshot = hub.counter_snapshot();
    let results = sink.lock().clone();
    let mut p50s: Vec<u64> = step_stats.iter().map(|s| s.p50_ns).collect();
    p50s.sort_unstable();
    ServeArm {
        sessions,
        fast,
        slow,
        churned,
        delivered: snapshot.delivered,
        dropped: snapshot.dropped,
        bytes_per_step: step_stats.iter().map(|s| s.bytes_copied).collect(),
        fast_missing,
        p50_ns: p50s.get(p50s.len() / 2).copied().unwrap_or(0),
        p99_ns: step_stats.iter().map(|s| s.p99_ns).max().unwrap_or(0),
        step_stats,
        results,
        wall,
    }
}

/// The steering schedule, as `(step, command)` pairs submitted (or
/// replayed) immediately before that step's `bridge.execute`.
const STEER_AT_FREQUENCY: u64 = 2;
const STEER_AT_RESOLUTION: u64 = 4;
const STEER_AT_PAUSE: u64 = 6;
const STEER_AT_RESUME: u64 = 8;

/// Run the two-rank steering arm. With `steered` the schedule flows
/// through a rank-0 session and the bridge's drain/broadcast path;
/// otherwise the identical schedule is replayed by direct
/// reconfiguration against a standalone knobs instance.
fn run_steering_run(
    cfg: &ServeBenchConfig,
    steered: bool,
) -> (Vec<BinnedResult>, u64, Vec<String>) {
    let ranks = 2;
    let node = SimNode::new(bench_node_config(ranks, 0.0));
    let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
    let applied = Arc::new(Mutex::new(0u64));
    let log = Arc::new(Mutex::new(Vec::new()));

    let cfg = cfg.clone();
    let run_node = node.clone();
    let run_sink = sink.clone();
    let run_applied = applied.clone();
    let run_log = log.clone();
    World::new(ranks).run(move |comm| {
        let node = run_node.clone();
        let rank = comm.rank();

        // Steered runs read the binning resolution off their rank's hub
        // knobs (every rank's hub applies the broadcast schedule); the
        // replay reads a standalone knobs instance the loop sets
        // directly at the scheduled step.
        let hub = steered.then(|| ServeHub::new(true));
        let knobs: Arc<ServeKnobs> =
            hub.as_ref().map(|h| h.knobs()).unwrap_or_else(|| Arc::new(ServeKnobs::default()));

        let base_resolution = cfg.resolution;
        let instances = cfg.instances;
        let factory_knobs = knobs.clone();
        let factory_sink = (rank == 0).then(|| run_sink.clone());
        let factory: sensei::AdaptorFactory = Box::new(move |controls: &BackendControls| {
            let resolution = match factory_knobs.resolution() {
                0 => base_resolution,
                r => r,
            };
            let (specs, _) = serve_specs(resolution, instances);
            let mut suite = BinningSuite::new(specs)
                .map_err(|e| sensei::Error::Analysis(format!("binning suite: {e}")))?
                .with_controls(*controls);
            if let Some(sink) = &factory_sink {
                suite = suite.with_sink(sink.clone());
            }
            Ok(Box::new(suite) as Box<dyn AnalysisAdaptor>)
        });

        let mut controls = BackendControls::default();
        let mut bridge = Bridge::new(node.clone());
        if let Some(hub) = &hub {
            bridge.attach_serve(hub.clone());
        }
        bridge.add_reconfigurable_analysis(controls, factory, &comm).expect("attach suite");

        // The steering session lives on rank 0; it only submits (its
        // one-slot lossy queue never backpressures the publisher-less
        // run).
        let session = hub.as_ref().and_then(|h| {
            (rank == 0).then(|| {
                h.subscribe(
                    Topic::new("*", "x:y"),
                    SessionConfig { queue_depth: 1, overflow: OverflowPolicy::DropOldest },
                )
            })
        });

        let sim_selector = Placement::Host.sim_selector(ranks);
        let sim_device = select_device(rank, ranks, &sim_selector);
        let mut sim =
            Newton::new(node.clone(), &comm, sim_device, newton_config(cfg.bodies)).expect("sim");

        let mut paused_from = controls.frequency;
        for step in 0..cfg.steps {
            if let Some(session) = &session {
                // Steered: the session queues the command; the bridge
                // drains, broadcasts, and applies it at this step's
                // boundary inside `execute`.
                match step {
                    STEER_AT_FREQUENCY => {
                        session.steer(0, SteeringCommand::SetFrequency(2));
                    }
                    STEER_AT_RESOLUTION => {
                        session.steer(0, SteeringCommand::SetResolution(base_resolution * 2));
                    }
                    STEER_AT_PAUSE => session.steer(0, SteeringCommand::Pause),
                    STEER_AT_RESUME => session.steer(0, SteeringCommand::Resume),
                    _ => {}
                }
            } else if !steered {
                // Replay: every rank applies the identical schedule
                // through the ordinary reconfiguration path.
                match step {
                    STEER_AT_FREQUENCY => {
                        controls.frequency = 2;
                        bridge.reconfigure_backend(0, controls, &comm).expect("reconfigure");
                    }
                    STEER_AT_RESOLUTION => {
                        knobs.set_resolution(base_resolution * 2);
                        bridge.reconfigure_backend(0, controls, &comm).expect("reconfigure");
                    }
                    STEER_AT_PAUSE => {
                        paused_from = controls.frequency;
                        controls.frequency = u64::MAX;
                        bridge.reconfigure_backend(0, controls, &comm).expect("reconfigure");
                    }
                    STEER_AT_RESUME => {
                        controls.frequency = paused_from;
                        bridge.reconfigure_backend(0, controls, &comm).expect("reconfigure");
                    }
                    _ => {}
                }
            }
            let solver_time = sim.step(&comm).expect("solver step");
            let adaptor = NewtonAdaptor::new(&sim);
            bridge.execute(&adaptor, &comm, solver_time).expect("in situ execute");
        }

        let steers = hub.as_ref().map_or(0, |h| h.counter_snapshot().steers);
        let profiler = bridge.finalize(&comm).expect("finalize");
        if rank == 0 {
            *run_applied.lock() += steers;
            *run_log.lock() = profiler
                .adaptive_samples()
                .iter()
                .filter(|s| s.action == "steer")
                .map(|s| format!("{} {} {}", s.step, s.action, s.detail))
                .collect();
        }
    });

    let results = sink.lock().clone();
    let steers = *applied.lock();
    let steer_log = log.lock().clone();
    (results, steers, steer_log)
}

/// Run the steering pair: session-steered vs direct-replay.
pub fn run_steering_pair(cfg: &ServeBenchConfig) -> SteeringOutcome {
    let (steered, steers_applied, steer_log) = run_steering_run(cfg, true);
    let (replayed, _, _) = run_steering_run(cfg, false);
    SteeringOutcome { steered, replayed, steers_applied, steer_log }
}

/// Run the full serving bench: the fan-out sweep plus the steering pair.
pub fn run_serve_bench(cfg: &ServeBenchConfig) -> ServeBenchReport {
    let arms = cfg.session_counts.iter().map(|&n| run_serve_arm(cfg, n)).collect();
    ServeBenchReport { config: cfg.clone(), arms, steering: run_steering_pair(cfg) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeBenchConfig {
        ServeBenchConfig {
            bodies: 96,
            steps: 5,
            resolution: 8,
            instances: 2,
            session_counts: vec![16, 48],
            queue_depth: 4,
            client_threads: 2,
        }
    }

    #[test]
    fn fan_out_bytes_stay_flat_and_fast_clients_lose_nothing() {
        let _serial = crate::serial();
        let cfg = tiny();
        let report = run_serve_bench(&cfg);
        for arm in &report.arms {
            assert_eq!(arm.step_stats.len(), cfg.steps as usize, "one stats row per step");
            assert!(arm.delivered >= arm.fast as u64 * cfg.steps);
            assert_eq!(
                arm.results.len(),
                cfg.steps as usize * cfg.instances,
                "the workload itself is unchanged by serving"
            );
            assert!(arm.bytes_per_step.iter().all(|&b| b > 0));
        }
        crate::report::assert_claims(
            &report,
            &["flat_bytes_across_sessions", "zero_fast_drops", "results_identical_across_arms"],
        );
    }

    #[test]
    fn steering_replay_is_bit_identical() {
        let _serial = crate::serial();
        let cfg = ServeBenchConfig { steps: 10, session_counts: vec![4], ..tiny() };
        let report = run_serve_bench(&cfg);
        crate::report::assert_claims(&report, &["steering_bit_identical", "steers_applied"]);
        let outcome = &report.steering;
        assert_eq!(outcome.steers_applied, 4, "frequency, resolution, pause, resume");
        assert_eq!(outcome.steer_log.len(), 4);
        assert!(
            outcome.steer_log.iter().any(|l| l.contains("pause"))
                && outcome.steer_log.iter().any(|l| l.contains("resume")),
            "log: {:?}",
            outcome.steer_log
        );
        assert!(
            !outcome.steered.is_empty() && outcome.steered.len() < 10 * cfg.instances,
            "pause and frequency must thin the stream: {} results",
            outcome.steered.len()
        );
    }
}
