//! The two executors of [`TaskGraph`]s (DESIGN.md §13).
//!
//! [`DagScheduler::run`] executes one step's task graph. A scheduler made
//! with [`DagScheduler::in_order`] runs every task on the calling thread in
//! push order (which is topological), with the placement device's default
//! stream as compute and copy stream — the `lockstep` and `asynchronous`
//! execution methods. One made with [`DagScheduler::new`] spreads the graph
//! over every device slot and stream of the node — the `dag` method:
//!
//! * one worker thread per participating device (all devices whenever the
//!   graph contains an [`TaskSite::AnyDevice`] task — that is what makes
//!   stealing across devices possible), plus host workers when host tasks
//!   are present;
//! * each worker owns a deque; ready tasks are routed to their home /
//!   pinned / least-loaded worker, and an idle worker steals stealable
//!   tasks (`AnyDevice`, `Host`) from the *back* of other deques;
//! * coordinator tasks (collectives, `!Sync` planner state) run FIFO on
//!   the calling thread, which also polls [`devsim::Event`] gates and
//!   [`devsim::Stream::query`] for asynchronous stream errors.
//!
//! Under both executors recovery policies apply **per task node**:
//! `Retry` re-runs just the failed node, `SkipStep` cancels the remainder
//! of the graph and reports [`DagOutcome::Skipped`], `Abort` fails the
//! run. A retry therefore never re-enters a collective node that already
//! completed, which another rank may have left.
//!
//! [`SchedulerCounters`] record the work-stealing executor's tasks, steals,
//! worker idle time and critical path (longest dependency chain of
//! measured task durations) so harnesses can assert it actually overlapped
//! work instead of trusting it. The in-order executor records nothing.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use devsim::{Event, SimNode};
use parking_lot::{Condvar, Mutex};

use crate::counters::AnalysisCounters;
use crate::dag::{
    CoordRun, DeviceStreams, TaskBody, TaskCtx, TaskGraph, TaskId, TaskKind, TaskSite, WorkerRun,
};
use crate::error::{Error, Result};
use crate::recovery::{run_with_recovery, RecoveryPolicy};

/// How long an idle worker parks before re-checking the deques; also the
/// coordinator's event/stream polling period.
const IDLE_PARK: Duration = Duration::from_micros(200);

/// Cumulative counters of one scheduler (shared, lock-free).
#[derive(Debug, Default)]
pub struct SchedulerCounters {
    tasks: AtomicU64,
    steals: AtomicU64,
    idle_ns: AtomicU64,
    critical_path_ns: AtomicU64,
}

impl SchedulerCounters {
    /// Fresh zeroed counters behind an `Arc`.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn add_tasks(&self, n: u64) {
        self.tasks.fetch_add(n, Ordering::Relaxed);
    }

    fn add_steals(&self, n: u64) {
        self.steals.fetch_add(n, Ordering::Relaxed);
    }

    fn add_idle_ns(&self, n: u64) {
        self.idle_ns.fetch_add(n, Ordering::Relaxed);
    }

    fn add_critical_path_ns(&self, n: u64) {
        self.critical_path_ns.fetch_add(n, Ordering::Relaxed);
    }

    /// Consistent-enough point-in-time copy of all counters.
    pub fn snapshot(&self) -> SchedulerSnapshot {
        SchedulerSnapshot {
            tasks: self.tasks.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            idle_ns: self.idle_ns.load(Ordering::Relaxed),
            critical_path_ns: self.critical_path_ns.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of [`SchedulerCounters`]; flows through profiler
/// CSVs and harness JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerSnapshot {
    /// Task nodes executed (all kinds, successful attempts only count 1).
    pub tasks: u64,
    /// Tasks taken from another worker's deque.
    pub steals: u64,
    /// Total worker time spent parked with no runnable task.
    pub idle_ns: u64,
    /// Sum over steps of the longest dependency chain of task durations.
    pub critical_path_ns: u64,
}

impl SchedulerSnapshot {
    /// Fold `other` into `self` (summing all fields).
    pub fn accumulate(&mut self, other: &SchedulerSnapshot) {
        self.tasks += other.tasks;
        self.steals += other.steals;
        self.idle_ns += other.idle_ns;
        self.critical_path_ns += other.critical_path_ns;
    }
}

/// How a graph run ended (errors are reported through `Result` instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagOutcome {
    /// Every task executed.
    Completed,
    /// A `SkipStep` task node failed: the rest of the graph was cancelled
    /// and the step's outputs were dropped.
    Skipped,
}

/// Run one task node's `body` under `policy`, recording the outcome on
/// `counters` (both executors). `Ok(false)`: the node failed under
/// `SkipStep`, and the rest of the step is to be dropped.
fn run_node(
    policy: RecoveryPolicy,
    counters: &AnalysisCounters,
    label: &str,
    ctx: &TaskCtx,
    body: &mut dyn FnMut(&TaskCtx) -> Result<()>,
) -> Result<bool> {
    match policy {
        RecoveryPolicy::SkipStep => Ok(body(ctx).is_ok() || {
            counters.faults().add_injected(1);
            counters.faults().add_skipped(1);
            false
        }),
        policy => run_with_recovery(policy, counters, label, || body(ctx).map(|()| true)),
    }
}

/// Send + Sync metadata of one task, split off the (possibly `!Send`)
/// bodies so worker threads can share it.
struct Meta {
    kind: TaskKind,
    label: String,
    site: TaskSite,
    home: Option<usize>,
    cost: f64,
    policy: RecoveryPolicy,
    deps: Vec<TaskId>,
    wait_events: Vec<Event>,
}

/// Shared mutable run state.
struct RunState {
    pending: Vec<AtomicUsize>,
    dependents: Vec<Vec<TaskId>>,
    /// One deque per worker thread.
    queues: Vec<Mutex<VecDeque<TaskId>>>,
    /// Ready coordinator tasks (FIFO keeps collective order deterministic
    /// across ranks).
    coord_queue: Mutex<VecDeque<TaskId>>,
    /// Dep-satisfied tasks still waiting on event gates.
    gated: Mutex<Vec<TaskId>>,
    /// Accumulated routed cost per worker (fixed-point, for least-loaded).
    loads: Vec<AtomicU64>,
    dur_ns: Vec<AtomicU64>,
    done: AtomicUsize,
    cancelled: AtomicBool,
    skipped: AtomicBool,
    shutdown: AtomicBool,
    failed: Mutex<Option<Error>>,
    sleep: Mutex<()>,
    wake: Condvar,
}

impl RunState {
    fn fail(&self, err: Error) {
        self.failed.lock().get_or_insert(err);
        self.cancelled.store(true, Ordering::Release);
        self.wake.notify_all();
    }
}

/// Everything a worker thread needs, shared by reference.
struct Exec<'a, 's> {
    metas: &'a [Meta],
    bodies: &'a [Mutex<Option<WorkerRun<'s>>>],
    state: &'a RunState,
    /// Worker index -> owned device (`None` = host worker).
    workers: &'a [Option<usize>],
    /// Device id -> worker index.
    device_worker: &'a [Option<usize>],
    streams: &'a [Option<DeviceStreams>],
    acounters: &'a Arc<AnalysisCounters>,
    scounters: &'a Arc<SchedulerCounters>,
    backend: &'a str,
    rank: usize,
}

impl<'a, 's> Exec<'a, 's> {
    /// Can tasks at `site` be *stolen* by `thief`? (Pinned sites cannot.)
    fn stealable_by(&self, thief: usize, site: TaskSite) -> bool {
        matches!(
            (self.workers[thief], site),
            (Some(_), TaskSite::AnyDevice) | (None, TaskSite::Host)
        )
    }

    fn least_loaded(&self, device_class: bool) -> Option<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_some() == device_class)
            .min_by_key(|(w, _)| self.state.loads[*w].load(Ordering::Relaxed))
            .map(|(w, _)| w)
    }

    fn push_worker(&self, worker: usize, t: TaskId) {
        let cost = (self.metas[t].cost * 1000.0) as u64 + 1;
        self.state.loads[worker].fetch_add(cost, Ordering::Relaxed);
        self.state.queues[worker].lock().push_back(t);
    }

    /// Route a task whose deps and event gates are all satisfied.
    fn dispatch(&self, t: TaskId) {
        let m = &self.metas[t];
        match m.site {
            TaskSite::Coordinator => self.state.coord_queue.lock().push_back(t),
            TaskSite::Device(d) => match self.device_worker.get(d).copied().flatten() {
                Some(w) => self.push_worker(w, t),
                None => {
                    self.state.fail(Error::Analysis(format!(
                        "task '{}' pinned to unavailable device {d}",
                        m.label
                    )));
                    return;
                }
            },
            TaskSite::AnyDevice => {
                let w = m
                    .home
                    .and_then(|d| self.device_worker.get(d).copied().flatten())
                    .or_else(|| self.least_loaded(true));
                match w {
                    Some(w) => self.push_worker(w, t),
                    None => {
                        self.state.fail(Error::Analysis(format!(
                            "task '{}' needs a device worker but none exist",
                            m.label
                        )));
                        return;
                    }
                }
            }
            TaskSite::Host => match self.least_loaded(false) {
                Some(w) => self.push_worker(w, t),
                None => {
                    self.state.fail(Error::Analysis(format!(
                        "task '{}' needs a host worker but none exist",
                        m.label
                    )));
                    return;
                }
            },
        }
        self.state.wake.notify_all();
    }

    /// A task's dependencies are met: dispatch now or hold on event gates.
    fn on_ready(&self, t: TaskId) {
        if self.metas[t].wait_events.iter().all(|e| e.is_signaled()) {
            self.dispatch(t);
        } else {
            self.state.gated.lock().push(t);
        }
    }

    /// Promote event-gated tasks whose gates have signaled (coordinator).
    fn promote_gated(&self) {
        let mut promoted = Vec::new();
        {
            let mut g = self.state.gated.lock();
            let mut i = 0;
            while i < g.len() {
                if self.metas[g[i]].wait_events.iter().all(|e| e.is_signaled()) {
                    promoted.push(g.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        for t in promoted {
            self.dispatch(t);
        }
    }

    /// Poll provisioned streams for sticky asynchronous errors without
    /// blocking (coordinator, every parking period).
    fn poll_streams(&self) {
        for ds in self.streams.iter().flatten() {
            for stream in [&ds.compute, &ds.copy] {
                if let Err(e) = stream.query() {
                    self.state.fail(Error::Device(e));
                }
            }
        }
    }

    fn complete(&self, t: TaskId) {
        for &d in &self.state.dependents[t] {
            if self.state.pending[d].fetch_sub(1, Ordering::AcqRel) == 1
                && !self.state.cancelled.load(Ordering::Acquire)
            {
                self.on_ready(d);
            }
        }
        if self.state.done.fetch_add(1, Ordering::AcqRel) + 1 == self.metas.len() {
            self.state.wake.notify_all();
        }
    }

    /// Execute one task body under the node's recovery policy.
    fn execute(&self, t: TaskId, ctx: &TaskCtx, body: &mut dyn FnMut(&TaskCtx) -> Result<()>) {
        let m = &self.metas[t];
        let t0 = Instant::now();
        let label = format!("{}/{}:{}", self.backend, m.kind.name(), m.label);
        let outcome = run_node(m.policy, self.acounters, &label, ctx, body);
        self.state.dur_ns[t].store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.scounters.add_tasks(1);
        match outcome {
            Ok(true) => self.complete(t),
            // The node failed but the policy degrades gracefully: drop
            // the rest of the step, keep the solver running.
            Ok(false) => {
                self.state.skipped.store(true, Ordering::Release);
                self.state.cancelled.store(true, Ordering::Release);
                self.state.wake.notify_all();
            }
            Err(e) => self.state.fail(e),
        }
    }

    fn run_worker_task(&self, worker: usize, t: TaskId) {
        let ctx = TaskCtx { device: self.workers[worker], streams: self.streams };
        let mut body = self.bodies[t].lock().take().expect("worker task body present");
        self.execute(t, &ctx, &mut *body);
    }

    /// Can `worker` admit a kernel task right now? Kernel bodies only
    /// *submit* — they return long before the modeled kernel drains from
    /// the device — so admission is throttled on the worker's compute
    /// stream: while it is still busy, queued kernels stay in the deques
    /// where genuinely idle devices can steal them. Without this the home
    /// worker would enqueue the whole step onto one device in
    /// microseconds and stealing could never rebalance modeled time.
    fn admits_kernel(&self, worker: usize) -> bool {
        match self.workers[worker] {
            // Host kernel bodies run synchronously, self-throttling.
            None => true,
            Some(d) => {
                self.streams.get(d).and_then(|s| s.as_ref()).is_none_or(|ds| ds.compute.is_idle())
            }
        }
    }

    /// Pop the next runnable task for `worker`: own deque first, then
    /// steal from the back of other deques. Kernel tasks are skipped
    /// while the worker's own compute stream is saturated (see
    /// [`Exec::admits_kernel`]); non-kernel tasks (downloads on copy
    /// streams, fast coordinator-adjacent work) always flow.
    fn next_task(&self, worker: usize) -> Option<TaskId> {
        let admit = self.admits_kernel(worker);
        {
            let mut q = self.state.queues[worker].lock();
            for i in 0..q.len() {
                if admit || self.metas[q[i]].kind != TaskKind::Kernel {
                    return q.remove(i);
                }
            }
        }
        let n = self.state.queues.len();
        for off in 1..n {
            let victim = (worker + off) % n;
            let mut q = self.state.queues[victim].lock();
            for i in (0..q.len()).rev() {
                let m = &self.metas[q[i]];
                if self.stealable_by(worker, m.site) && (admit || m.kind != TaskKind::Kernel) {
                    let t = q.remove(i).expect("index in range");
                    self.scounters.add_steals(1);
                    return Some(t);
                }
            }
        }
        None
    }

    fn worker_loop(&self, worker: usize) {
        // Worker threads inherit the owning rank's fault-injection arming
        // so injected device faults target them like any analysis thread.
        let _arm = devsim::fault::arm(self.rank);
        loop {
            if self.state.shutdown.load(Ordering::Acquire)
                || self.state.cancelled.load(Ordering::Acquire)
            {
                return;
            }
            match self.next_task(worker) {
                Some(t) => self.run_worker_task(worker, t),
                None => {
                    let t0 = Instant::now();
                    let mut g = self.state.sleep.lock();
                    self.state.wake.wait_for(&mut g, IDLE_PARK);
                    drop(g);
                    self.scounters.add_idle_ns(t0.elapsed().as_nanos() as u64);
                }
            }
        }
    }
}

/// A task-graph executor bound to one node and one rank: in order on the
/// calling thread, or work-stealing (see the module docs).
///
/// The scheduler owns a lazily provisioned per-device stream pair
/// (compute + copy) reused across steps — the device's default stream as
/// both when it runs in order — and the work-stealing executor's
/// cumulative [`SchedulerCounters`], shared with whoever created it
/// (typically the `dag` engine, which surfaces them through the profiler).
pub struct DagScheduler {
    node: Arc<SimNode>,
    rank: usize,
    counters: Arc<SchedulerCounters>,
    in_order: bool,
    device_streams: Vec<Option<DeviceStreams>>,
}

impl DagScheduler {
    /// A work-stealing scheduler for `rank` on `node`, reporting into
    /// `counters`.
    pub fn new(node: Arc<SimNode>, rank: usize, counters: Arc<SchedulerCounters>) -> Self {
        let n = node.num_devices();
        DagScheduler { node, rank, counters, in_order: false, device_streams: vec![None; n] }
    }

    /// A scheduler for `rank` on `node` that runs each graph in push order
    /// on the calling thread and records no scheduler counters.
    pub fn in_order(node: Arc<SimNode>, rank: usize) -> Self {
        DagScheduler { in_order: true, ..Self::new(node, rank, SchedulerCounters::new()) }
    }

    /// True when graphs run in push order on the calling thread, so a
    /// planner gains nothing by splitting work into stealable nodes.
    pub fn runs_in_order(&self) -> bool {
        self.in_order
    }

    /// The counters this scheduler reports into (never written when it
    /// runs in order).
    pub fn counters(&self) -> &Arc<SchedulerCounters> {
        &self.counters
    }

    /// The node this scheduler executes on.
    pub fn node(&self) -> &Arc<SimNode> {
        &self.node
    }

    /// The MPI rank this scheduler serves (fault-injection arming).
    pub fn rank(&self) -> usize {
        self.rank
    }

    fn ensure_streams(&mut self, device: usize) -> Result<()> {
        if self.device_streams.get(device).is_none() {
            return Err(Error::Analysis(format!("no such device {device} on this node")));
        }
        if self.device_streams[device].is_none() {
            let dev = self.node.device(device).map_err(Error::Device)?;
            self.device_streams[device] = Some(if self.in_order {
                let stream = dev.default_stream();
                DeviceStreams { compute: stream.clone(), copy: stream }
            } else {
                DeviceStreams { compute: dev.create_stream(), copy: dev.create_stream() }
            });
        }
        Ok(())
    }

    /// Block until every provisioned stream has drained; the first sticky
    /// error any of them held.
    fn synchronize(&self) -> Result<()> {
        let mut first = Ok(());
        for ds in self.device_streams.iter().flatten() {
            let copy = (!Arc::ptr_eq(&ds.compute, &ds.copy)).then_some(&ds.copy);
            for stream in std::iter::once(&ds.compute).chain(copy) {
                if let Err(e) = stream.synchronize() {
                    first = first.and(Err(Error::Device(e)));
                }
            }
        }
        first
    }

    /// Execute `graph` to completion, skip, or failure.
    pub fn run(&mut self, graph: TaskGraph<'_>) -> Result<DagOutcome> {
        let n = graph.len();
        if n == 0 {
            return Ok(DagOutcome::Completed);
        }
        if self.in_order {
            return self.run_in_order(graph);
        }
        let acounters = graph.counters().clone();
        let backend = graph.backend().to_string();

        // Split Send+Sync metadata off the bodies.
        let mut metas: Vec<Meta> = Vec::with_capacity(n);
        let mut coord_bodies: Vec<Option<CoordRun<'_>>> = Vec::with_capacity(n);
        let mut worker_bodies: Vec<Mutex<Option<WorkerRun<'_>>>> = Vec::with_capacity(n);
        for task in graph.tasks {
            let (coord, worker) = match task.body {
                Some(TaskBody::Coordinator(b)) => (Some(b), None),
                Some(TaskBody::Worker(b)) => (None, Some(b)),
                None => (None, None),
            };
            coord_bodies.push(coord);
            worker_bodies.push(Mutex::new(worker));
            metas.push(Meta {
                kind: task.kind,
                label: task.label,
                site: task.site,
                home: task.home,
                cost: task.cost,
                policy: task.policy,
                deps: task.deps,
                wait_events: task.wait_events,
            });
        }

        // Which devices participate? Any `AnyDevice` task recruits every
        // device on the node — that is what enables cross-device stealing.
        let mut devices: BTreeSet<usize> = BTreeSet::new();
        let mut any_device = false;
        let mut host_tasks = 0usize;
        for m in &metas {
            match m.site {
                TaskSite::Device(d) => {
                    devices.insert(d);
                }
                TaskSite::AnyDevice => {
                    any_device = true;
                    if let Some(h) = m.home {
                        devices.insert(h);
                    }
                }
                TaskSite::Host => host_tasks += 1,
                TaskSite::Coordinator => {}
            }
        }
        if any_device {
            for d in 0..self.node.num_devices() {
                devices.insert(d);
            }
        }
        for &d in &devices {
            self.ensure_streams(d)?;
        }

        // Worker layout: device workers first, then host workers.
        let mut workers: Vec<Option<usize>> = devices.iter().map(|&d| Some(d)).collect();
        let host_workers = host_tasks.min(2);
        workers.extend(std::iter::repeat_n(None, host_workers));
        let mut device_worker: Vec<Option<usize>> = vec![None; self.node.num_devices()];
        for (w, d) in devices.iter().enumerate() {
            device_worker[*d] = Some(w);
        }

        let mut dependents: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (t, m) in metas.iter().enumerate() {
            for &d in &m.deps {
                dependents[d].push(t);
            }
        }
        let state = RunState {
            pending: metas.iter().map(|m| AtomicUsize::new(m.deps.len())).collect(),
            dependents,
            queues: workers.iter().map(|_| Mutex::new(VecDeque::new())).collect(),
            coord_queue: Mutex::new(VecDeque::new()),
            gated: Mutex::new(Vec::new()),
            loads: workers.iter().map(|_| AtomicU64::new(0)).collect(),
            dur_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            done: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            skipped: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            failed: Mutex::new(None),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
        };

        let exec = Exec {
            metas: &metas,
            bodies: &worker_bodies,
            state: &state,
            workers: &workers,
            device_worker: &device_worker,
            streams: &self.device_streams,
            acounters: &acounters,
            scounters: &self.counters,
            backend: &backend,
            rank: self.rank,
        };

        std::thread::scope(|scope| {
            for (w, owned) in workers.iter().enumerate() {
                let exec = &exec;
                std::thread::Builder::new()
                    .name(match owned {
                        Some(d) => format!("sensei-dag-d{d}"),
                        None => format!("sensei-dag-h{w}"),
                    })
                    .spawn_scoped(scope, move || exec.worker_loop(w))
                    .expect("spawn dag worker");
            }

            // Seed the roots, then run the coordinator loop on this thread.
            for (t, m) in metas.iter().enumerate() {
                if m.deps.is_empty() {
                    exec.on_ready(t);
                }
            }
            loop {
                if state.done.load(Ordering::Acquire) == n
                    || state.cancelled.load(Ordering::Acquire)
                {
                    break;
                }
                exec.promote_gated();
                exec.poll_streams();
                let next = state.coord_queue.lock().pop_front();
                match next {
                    Some(t) => {
                        let ctx = TaskCtx { device: None, streams: &self.device_streams };
                        let mut body =
                            coord_bodies[t].take().expect("coordinator task body present");
                        exec.execute(t, &ctx, &mut *body);
                    }
                    None => {
                        let mut g = state.sleep.lock();
                        state.wake.wait_for(&mut g, IDLE_PARK);
                    }
                }
            }
            state.shutdown.store(true, Ordering::Release);
            state.wake.notify_all();
        });

        let outcome = match (state.failed.into_inner(), state.skipped.load(Ordering::Acquire)) {
            (Some(err), _) => Err(err),
            (None, true) => Ok(DagOutcome::Skipped),
            (None, false) => Ok(DagOutcome::Completed),
        };
        let outcome = self.quiesce(outcome)?;
        if outcome == DagOutcome::Completed {
            // Critical path: longest chain of measured task durations along
            // dependency edges (ids are topological, so one forward pass).
            let mut cp = vec![0u64; n];
            for t in 0..n {
                let longest_dep = metas[t].deps.iter().map(|&d| cp[d]).max().unwrap_or(0);
                cp[t] = longest_dep + state.dur_ns[t].load(Ordering::Relaxed);
            }
            self.counters.add_critical_path_ns(cp.into_iter().max().unwrap_or(0));
        }
        Ok(outcome)
    }

    /// The in-order executor: every task on this thread in push order,
    /// each on its placement device's default stream (an `AnyDevice`
    /// task's home, device 0 without one). The streams are
    /// synchronized before an event-gated task — which is what it waits
    /// for, and a failure there surfaces as the stream's sticky error
    /// instead of an event that never fires — and at the end.
    fn run_in_order(&mut self, graph: TaskGraph<'_>) -> Result<DagOutcome> {
        let counters = graph.counters().clone();
        let backend = graph.backend().to_string();
        let mut outcome = Ok(DagOutcome::Completed);
        for mut task in graph.tasks {
            let device = match task.site {
                TaskSite::Device(d) => Some(d),
                TaskSite::AnyDevice => Some(task.home.unwrap_or(0)),
                TaskSite::Host | TaskSite::Coordinator => None,
            };
            let ready = device.map_or(Ok(()), |d| self.ensure_streams(d));
            let ready = ready.and_then(|()| match task.wait_events.is_empty() {
                true => Ok(()),
                false => self.synchronize(),
            });
            let body: &mut dyn FnMut(&TaskCtx) -> Result<()> = match &mut task.body {
                Some(TaskBody::Worker(body)) => &mut **body,
                Some(TaskBody::Coordinator(body)) => &mut **body,
                None => continue,
            };
            let label = format!("{backend}/{}:{}", task.kind.name(), task.label);
            let ctx = TaskCtx { device, streams: &self.device_streams };
            outcome =
                match ready.and_then(|()| run_node(task.policy, &counters, &label, &ctx, body)) {
                    Ok(true) => continue,
                    Ok(false) => Ok(DagOutcome::Skipped),
                    Err(e) => Err(e),
                };
            break;
        }
        self.quiesce(outcome)
    }

    /// Drain every provisioned stream after a run ended with `outcome`. A
    /// failed run keeps its own error and a skipped step drops whatever
    /// its cancelled tail left on the streams; a completed run fails with
    /// the first sticky stream error.
    fn quiesce(&self, outcome: Result<DagOutcome>) -> Result<DagOutcome> {
        let synced = self.synchronize();
        match outcome {
            Ok(DagOutcome::Completed) => synced.map(|()| DagOutcome::Completed),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::TaskGraph;
    use devsim::NodeConfig;
    use std::sync::atomic::AtomicU32;

    fn sched_on(devices: usize) -> DagScheduler {
        let node = SimNode::new(NodeConfig::fast_test(devices.max(1)));
        DagScheduler::new(node, 0, SchedulerCounters::new())
    }

    fn graph() -> TaskGraph<'static> {
        TaskGraph::new("test", AnalysisCounters::new(), RecoveryPolicy::Abort)
    }

    #[test]
    fn empty_graph_completes_immediately() {
        let mut s = sched_on(1);
        assert_eq!(s.run(graph()).unwrap(), DagOutcome::Completed);
        assert_eq!(s.counters().snapshot().tasks, 0);
    }

    #[test]
    fn dependency_order_is_respected_across_sites() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut s = sched_on(2);
        let mut g = graph();
        let mark = |order: &Arc<Mutex<Vec<u32>>>, v: u32| {
            let order = order.clone();
            move |_: &TaskCtx<'_>| {
                order.lock().push(v);
                Ok(())
            }
        };
        let a = g.add_coordinator_task(TaskKind::Fetch, "a", mark(&order, 0));
        let b = g.add_worker_task(TaskKind::Kernel, "b", TaskSite::AnyDevice, mark(&order, 1));
        let c = g.add_worker_task(TaskKind::Kernel, "c", TaskSite::AnyDevice, mark(&order, 2));
        let d = g.add_coordinator_task(TaskKind::Reduce, "d", mark(&order, 3));
        g.add_dep(b, a);
        g.add_dep(c, a);
        g.add_dep(d, b);
        g.add_dep(d, c);
        assert_eq!(s.run(g).unwrap(), DagOutcome::Completed);
        let seen = order.lock().clone();
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0], 0);
        assert_eq!(seen[3], 3);
        assert_eq!(s.counters().snapshot().tasks, 4);
        assert!(s.counters().snapshot().critical_path_ns > 0);
    }

    #[test]
    fn idle_workers_steal_ready_tasks_from_loaded_deques() {
        // All kernels homed on device 0 of a 4-device node; each body
        // parks ~2 ms so device 0 cannot drain them alone before the
        // other workers wake up and steal.
        let mut s = sched_on(4);
        let mut g = graph();
        let seen_devices = Arc::new(Mutex::new(BTreeSet::new()));
        let root = g.add_coordinator_task(TaskKind::Fetch, "root", |_| Ok(()));
        for i in 0..16 {
            let seen = seen_devices.clone();
            let k = g.add_worker_task(
                TaskKind::Kernel,
                format!("k{i}"),
                TaskSite::AnyDevice,
                move |ctx| {
                    seen.lock().insert(ctx.device().expect("device worker"));
                    std::thread::sleep(Duration::from_millis(2));
                    Ok(())
                },
            );
            g.set_home(k, 0);
            g.add_dep(k, root);
        }
        assert_eq!(s.run(g).unwrap(), DagOutcome::Completed);
        let snap = s.counters().snapshot();
        assert_eq!(snap.tasks, 17);
        assert!(snap.steals > 0, "expected cross-device steals, got {snap:?}");
        assert!(seen_devices.lock().len() > 1, "work should spread past device 0");
        assert!(snap.idle_ns > 0, "some worker must have parked");
    }

    #[test]
    fn pinned_device_tasks_are_never_stolen() {
        let mut s = sched_on(3);
        let mut g = graph();
        let ok = Arc::new(AtomicBool::new(true));
        for i in 0..9 {
            let pin = i % 3;
            let ok = ok.clone();
            g.add_worker_task(
                TaskKind::Kernel,
                format!("p{i}"),
                TaskSite::Device(pin),
                move |ctx| {
                    if ctx.device() != Some(pin) {
                        ok.store(false, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                    Ok(())
                },
            );
        }
        assert_eq!(s.run(g).unwrap(), DagOutcome::Completed);
        assert!(ok.load(Ordering::Relaxed), "a pinned task ran on the wrong device");
        assert_eq!(s.counters().snapshot().steals, 0);
    }

    #[test]
    fn event_gates_hold_tasks_until_signaled() {
        let mut s = sched_on(1);
        let mut g = graph();
        let gate = Event::new();
        let fired = Arc::new(AtomicBool::new(false));
        let root = {
            let gate = gate.clone();
            g.add_worker_task(TaskKind::Kernel, "signaler", TaskSite::AnyDevice, move |_| {
                std::thread::sleep(Duration::from_millis(2));
                gate.signal();
                Ok(())
            })
        };
        let gated = {
            let fired = fired.clone();
            let gate = gate.clone();
            g.add_coordinator_task(TaskKind::Reduce, "gated", move |_| {
                assert!(gate.is_signaled(), "gate must be signaled before the task runs");
                fired.store(true, Ordering::Relaxed);
                Ok(())
            })
        };
        let _ = root;
        g.gate_on_event(gated, gate.clone());
        assert_eq!(s.run(g).unwrap(), DagOutcome::Completed);
        assert!(fired.load(Ordering::Relaxed));
    }

    #[test]
    fn abort_policy_fails_the_run_and_cancels_the_tail() {
        let mut s = sched_on(1);
        let counters = AnalysisCounters::new();
        let mut g = TaskGraph::new("t", counters.clone(), RecoveryPolicy::Abort);
        let ran_tail = Arc::new(AtomicBool::new(false));
        let bad = g.add_worker_task(TaskKind::Kernel, "bad", TaskSite::AnyDevice, |_| {
            Err(Error::Analysis("boom".into()))
        });
        let tail = {
            let ran = ran_tail.clone();
            g.add_coordinator_task(TaskKind::Publish, "tail", move |_| {
                ran.store(true, Ordering::Relaxed);
                Ok(())
            })
        };
        g.add_dep(tail, bad);
        assert!(s.run(g).is_err());
        assert!(!ran_tail.load(Ordering::Relaxed), "dependents of a failed node must not run");
        let f = counters.snapshot().faults;
        assert_eq!((f.injected, f.aborted), (1, 1));
    }

    #[test]
    fn skip_step_cancels_the_graph_but_reports_skipped() {
        let mut s = sched_on(1);
        let counters = AnalysisCounters::new();
        let mut g = TaskGraph::new("t", counters.clone(), RecoveryPolicy::SkipStep);
        let ran_tail = Arc::new(AtomicBool::new(false));
        let bad = g.add_worker_task(TaskKind::Kernel, "bad", TaskSite::AnyDevice, |_| {
            Err(Error::Analysis("boom".into()))
        });
        let tail = {
            let ran = ran_tail.clone();
            g.add_coordinator_task(TaskKind::Publish, "tail", move |_| {
                ran.store(true, Ordering::Relaxed);
                Ok(())
            })
        };
        g.add_dep(tail, bad);
        assert_eq!(s.run(g).unwrap(), DagOutcome::Skipped);
        assert!(!ran_tail.load(Ordering::Relaxed), "skipped steps drop their tail");
        let f = counters.snapshot().faults;
        assert_eq!((f.injected, f.skipped, f.aborted), (1, 1, 0));
    }

    #[test]
    fn retry_policy_reruns_only_the_failed_node() {
        let mut s = sched_on(1);
        let counters = AnalysisCounters::new();
        let mut g = TaskGraph::new(
            "t",
            counters.clone(),
            RecoveryPolicy::Retry { max_retries: 3, backoff_ms: 0 },
        );
        let attempts = Arc::new(AtomicU32::new(0));
        let sibling_runs = Arc::new(AtomicU32::new(0));
        {
            let attempts = attempts.clone();
            g.add_worker_task(TaskKind::Kernel, "flaky", TaskSite::AnyDevice, move |_| {
                if attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                    Err(Error::Analysis("flaky".into()))
                } else {
                    Ok(())
                }
            });
        }
        {
            let runs = sibling_runs.clone();
            g.add_worker_task(TaskKind::Kernel, "solid", TaskSite::AnyDevice, move |_| {
                runs.fetch_add(1, Ordering::Relaxed);
                Ok(())
            });
        }
        assert_eq!(s.run(g).unwrap(), DagOutcome::Completed);
        assert_eq!(attempts.load(Ordering::Relaxed), 3, "two failures + the recovery");
        assert_eq!(sibling_runs.load(Ordering::Relaxed), 1, "siblings run exactly once");
        let f = counters.snapshot().faults;
        assert_eq!((f.injected, f.retried, f.recovered), (1, 2, 1));
    }

    #[test]
    fn host_tasks_run_on_host_workers() {
        let mut s = sched_on(1);
        let mut g = graph();
        let ok = Arc::new(AtomicBool::new(false));
        {
            let ok = ok.clone();
            g.add_worker_task(TaskKind::Kernel, "host-pass", TaskSite::Host, move |ctx| {
                if ctx.device().is_none() {
                    ok.store(true, Ordering::Relaxed);
                }
                Ok(())
            });
        }
        assert_eq!(s.run(g).unwrap(), DagOutcome::Completed);
        assert!(ok.load(Ordering::Relaxed), "host task must see no owned device");
    }
}
