//! The execution engine.
//!
//! An [`Engine`] owns one analysis back-end and runs its steps relative
//! to the simulation: on the simulation's thread with zero-copy access to
//! the live data under `lockstep`, on a persistent worker thread fed
//! snapshots through a bounded queue under `asynchronous` and `dag`.
//!
//! Whatever the thread, a step is one function. A back-end that plans task
//! graphs ([`AnalysisAdaptor::supports_dag`]) runs `execute_dag` with
//! recovery per task node — in push order on the engine's thread under
//! `lockstep` and `asynchronous`, under the work-stealing
//! [`DagScheduler`] over every device of the node under `dag` — so no
//! retry re-enters a collective another rank has already left. Any other
//! back-end runs `execute` under whole-step recovery.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;

use devsim::SimNode;
use minimpi::Comm;

use crate::adaptor::{AnalysisAdaptor, DataAdaptor, ExecContext};
use crate::controls::BackendControls;
use crate::counters::AnalysisCounters;
use crate::error::{Error, Result};
use crate::execution::ExecutionMethod;
use crate::queue::{bounded, BoundedSender, SendError};
use crate::recovery::run_with_recovery;
use crate::requirements::DataRequirements;
use crate::scheduler::{DagScheduler, SchedulerCounters};
use crate::snapshot::SnapshotAdaptor;

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One guarded attempt at running a back-end's step: fault injection is
/// armed for this rank for the duration of the call, and a panicking
/// back-end is caught and converted to [`Error::Analysis`] so the engine's
/// recovery policy gets to decide what happens, instead of the panic
/// unwinding into the solver loop (or killing a worker thread silently).
fn guarded(name: &str, rank: usize, step: impl FnOnce() -> Result<bool>) -> Result<bool> {
    let _armed = devsim::fault::arm(rank);
    match std::panic::catch_unwind(AssertUnwindSafe(step)) {
        Ok(result) => result,
        Err(payload) => Err(Error::Analysis(format!(
            "analysis '{name}' panicked: {}",
            panic_message(payload.as_ref())
        ))),
    }
}

/// A back-end with what runs its steps, on whichever thread the engine
/// gives it.
struct Stepper {
    name: String,
    adaptor: Box<dyn AnalysisAdaptor>,
    /// Present when the back-end plans task graphs.
    sched: Option<DagScheduler>,
    /// The adaptor's counters, or engine-owned ones for back-ends without
    /// any — recovery outcomes need somewhere to be recorded either way.
    counters: Arc<AnalysisCounters>,
}

impl Stepper {
    /// The one step function (see the module docs).
    fn step(&mut self, data: &dyn DataAdaptor, ctx: &ExecContext<'_>) -> Result<bool> {
        let Stepper { name, adaptor, sched, counters } = self;
        let rank = ctx.comm.rank();
        match sched {
            // Recovery applies per task node inside the scheduler; wrapping
            // the whole step again would double-count faults and re-run
            // collectives. Panics (plan-time, or escaping a scoped worker)
            // are still contained here.
            Some(sched) => guarded(name, rank, || adaptor.execute_dag(data, ctx, sched)),
            None => run_with_recovery(adaptor.controls().recovery, counters, name, || {
                guarded(name, rank, || adaptor.execute(data, ctx))
            }),
        }
    }
}

/// The worker thread of an `asynchronous` or `dag` engine.
struct Worker {
    tx: Option<BoundedSender<Arc<SnapshotAdaptor>>>,
    handle: Option<JoinHandle<Result<()>>>,
    /// A failure already observed (spawn failure, or a dead worker found
    /// by an earlier dispatch): every later dispatch returns it, and
    /// `finalize` surfaces it instead of silently reporting success.
    failed: Option<Error>,
}

impl Worker {
    /// Move `stepper` onto a new thread that owns `comm` and runs one step
    /// per snapshot received. A failure to spawn the OS thread does not
    /// panic: the worker comes back failed.
    fn spawn(mut stepper: Stepper, comm: Comm, node: Arc<SimNode>, c: &BackendControls) -> Self {
        let (tx, rx) = bounded::<Arc<SnapshotAdaptor>>(c.queue_depth, c.overflow);
        let name = stepper.name.clone();
        let spawned = std::thread::Builder::new().name(format!("sensei-insitu-{name}")).spawn(
            move || -> Result<()> {
                let ctx = ExecContext::new(&comm, &node);
                while let Some(snapshot) = rx.recv() {
                    // A fault in one iteration is retried or skipped per
                    // policy without killing the worker; only an abort (or
                    // exhausted retries) ends it.
                    let outcome = stepper.step(snapshot.as_ref(), &ctx);
                    // This worker is done with the snapshot either way;
                    // the last consumer's finish drops the CoW pins so
                    // later producer writes skip the fault copy.
                    snapshot.consumer_finished();
                    outcome?;
                }
                stepper.adaptor.finalize(&ctx)
            },
        );
        match spawned {
            Ok(handle) => Worker { tx: Some(tx), handle: Some(handle), failed: None },
            Err(io) => Worker {
                tx: None,
                handle: None,
                failed: Some(Error::Analysis(format!(
                    "failed to spawn in situ worker thread for '{name}': {io}"
                ))),
            },
        }
    }

    /// Join the thread and translate its exit into a `Result` (used both
    /// when a send finds the worker gone and at finalize).
    fn join(&mut self, name: &str) -> Result<()> {
        match self.handle.take().map(JoinHandle::join) {
            Some(Ok(result)) => result,
            Some(Err(_)) => Err(Error::Analysis(format!("in situ worker '{name}' panicked"))),
            None => Ok(()),
        }
    }

    /// Hand `snapshot` to the thread.
    fn send(
        &mut self,
        name: &str,
        depth: usize,
        snapshot: Option<&Arc<SnapshotAdaptor>>,
    ) -> Result<bool> {
        if let Some(err) = &self.failed {
            return Err(err.clone());
        }
        // A missing snapshot is a bridge-side contract violation; report
        // it as an analysis error instead of panicking the solver thread.
        let Some(snapshot) = snapshot else {
            return Err(Error::Analysis(format!(
                "in situ engine '{name}' expected a snapshot but the bridge supplied none"
            )));
        };
        let tx = self.tx.as_ref().ok_or(Error::Finalized)?;
        let err = match tx.send(snapshot.clone()) {
            Ok(_) => return Ok(true),
            Err(SendError::Full) => {
                return Err(Error::Analysis(format!(
                    "in situ queue for '{name}' is full ({depth} snapshots in flight, overflow \
                     policy 'error')"
                )))
            }
            // A dispatch into a closed queue drops the iteration: stashed
            // below, so finalize surfaces it even when the caller swallows
            // this error.
            Err(SendError::Closed) => {
                Error::Analysis(format!("in situ queue for '{name}' is closed"))
            }
            // The worker exited early — an analysis error or a panic.
            // Joining it (non-blocking: the thread is gone) recovers the
            // reason.
            Err(SendError::Disconnected) => {
                self.tx = None;
                self.join(name).err().unwrap_or_else(|| {
                    Error::Analysis(format!("in situ worker '{name}' terminated early"))
                })
            }
        };
        self.failed = Some(err.clone());
        Err(err)
    }

    /// Close the queue, let the thread drain it and finalize the back-end.
    fn finalize(&mut self, name: &str) -> Result<()> {
        if let Some(tx) = self.tx.take() {
            tx.close();
        }
        let joined = self.join(name);
        // A stashed failure (spawn error, dead worker seen at dispatch)
        // takes precedence: it is the root cause.
        self.failed.take().map_or(joined, Err)
    }
}

/// Where an engine's steps run.
enum Thread {
    /// Lockstep: on the simulation's thread, on its live data.
    Caller(Box<Stepper>),
    /// Asynchronous and dag: on a worker, on snapshots.
    Worker(Worker),
}

/// One back-end attached to a bridge, run on the thread its
/// [`ExecutionMethod`] calls for (see the module docs).
///
/// Every step runs under the back-end's
/// [`RecoveryPolicy`](crate::RecoveryPolicy) with fault injection armed
/// for this rank, so injected device faults and analysis panics are
/// retried, skipped, or surfaced per policy — and counted in the
/// back-end's [`FaultCounters`](crate::FaultCounters). A worker's queue
/// depth and overflow policy come from the back-end's
/// [`BackendControls`]; a worker that fails or panics surfaces as
/// [`Error::Analysis`] from the next `dispatch` or from `finalize`.
pub struct Engine {
    name: String,
    controls: BackendControls,
    requirements: DataRequirements,
    counters: Arc<AnalysisCounters>,
    /// Present under `dag`, so the profiler gets a scheduler row even for
    /// a back-end that plans no task graphs.
    scheduler_counters: Option<Arc<SchedulerCounters>>,
    thread: Thread,
}

impl Engine {
    /// Attach `adaptor` for `rank` of `comm` on `node`. Off lockstep the
    /// back-end moves onto a worker thread with a dedicated duplicate of
    /// `comm` (collective: analysis traffic must not interfere with the
    /// simulation's communicator).
    pub fn new(adaptor: Box<dyn AnalysisAdaptor>, comm: &Comm, node: &Arc<SimNode>) -> Self {
        let name = adaptor.name().to_string();
        let controls = *adaptor.controls();
        let requirements = adaptor.required_arrays();
        // Captured before the adaptor may move to a worker: the counters
        // are shared atomics, so the bridge reads live totals.
        let counters = adaptor.counters().unwrap_or_default();
        let scheduler_counters =
            (controls.execution == ExecutionMethod::Dag).then(SchedulerCounters::new);
        let rank = comm.rank();
        let sched = adaptor.supports_dag().then(|| match &scheduler_counters {
            Some(c) => DagScheduler::new(node.clone(), rank, c.clone()),
            None => DagScheduler::in_order(node.clone(), rank),
        });
        let stepper = Stepper { name: name.clone(), adaptor, sched, counters: counters.clone() };
        let thread = match controls.execution {
            ExecutionMethod::Lockstep => Thread::Caller(Box::new(stepper)),
            ExecutionMethod::Asynchronous | ExecutionMethod::Dag => {
                Thread::Worker(Worker::spawn(stepper, comm.dup(), node.clone(), &controls))
            }
        };
        Engine { name, controls, requirements, counters, scheduler_counters, thread }
    }

    /// The owned back-end's instance name (for profiling and errors).
    pub fn backend_name(&self) -> &str {
        &self.name
    }

    /// The owned back-end's execution-model controls.
    pub fn controls(&self) -> &BackendControls {
        &self.controls
    }

    /// What the back-end needs captured when it runs off a snapshot.
    pub fn requirements(&self) -> DataRequirements {
        self.requirements.clone()
    }

    /// True when `dispatch` consumes a snapshot instead of accessing the
    /// simulation's live data.
    pub fn needs_snapshot(&self) -> bool {
        matches!(self.thread, Thread::Worker(_))
    }

    /// The back-end's work and fault counters.
    pub fn counters(&self) -> &Arc<AnalysisCounters> {
        &self.counters
    }

    /// The work-stealing scheduler's counters, under `dag`; the bridge
    /// records them into the profiler at finalize.
    pub fn scheduler_counters(&self) -> Option<&Arc<SchedulerCounters>> {
        self.scheduler_counters.as_ref()
    }

    /// Run (or hand off) one iteration. `snapshot` is `Some` iff
    /// [`needs_snapshot`](Self::needs_snapshot); it may contain the union
    /// of several back-ends' requirements. Returns `Ok(false)` when the
    /// back-end requests the simulation stop.
    pub fn dispatch(
        &mut self,
        data: &dyn DataAdaptor,
        snapshot: Option<&Arc<SnapshotAdaptor>>,
        comm: &Comm,
        node: &Arc<SimNode>,
    ) -> Result<bool> {
        match &mut self.thread {
            Thread::Caller(stepper) => stepper.step(data, &ExecContext::new(comm, node)),
            Thread::Worker(worker) => worker.send(&self.name, self.controls.queue_depth, snapshot),
        }
    }

    /// Complete all outstanding work and finalize the back-end.
    pub fn finalize(&mut self, comm: &Comm, node: &Arc<SimNode>) -> Result<()> {
        match &mut self.thread {
            Thread::Caller(stepper) => stepper.adaptor.finalize(&ExecContext::new(comm, node)),
            Thread::Worker(worker) => worker.finalize(&self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devsim::NodeConfig;
    use minimpi::World;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The execution methods that run on a worker thread.
    const WORKER_MODES: [ExecutionMethod; 2] =
        [ExecutionMethod::Asynchronous, ExecutionMethod::Dag];

    /// Every execution method.
    const MODES: [ExecutionMethod; 3] =
        [ExecutionMethod::Lockstep, ExecutionMethod::Asynchronous, ExecutionMethod::Dag];

    /// How often each entry point of a [`Counting`] back-end ran.
    #[derive(Clone, Default)]
    struct Calls {
        execute: Arc<AtomicU64>,
        execute_dag: Arc<AtomicU64>,
    }

    impl Calls {
        fn totals(&self) -> (u64, u64) {
            (self.execute.load(Ordering::SeqCst), self.execute_dag.load(Ordering::SeqCst))
        }
    }

    /// Counts monolithic and task-graph executes separately; optionally
    /// claims task-graph support.
    #[derive(Default)]
    struct Counting {
        controls: BackendControls,
        plans_graphs: bool,
        calls: Calls,
    }

    impl AnalysisAdaptor for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn controls(&self) -> &BackendControls {
            &self.controls
        }
        fn controls_mut(&mut self) -> &mut BackendControls {
            &mut self.controls
        }
        fn required_arrays(&self) -> DataRequirements {
            DataRequirements::none().with_mesh("bodies")
        }
        fn execute(&mut self, _d: &dyn DataAdaptor, _c: &ExecContext<'_>) -> Result<bool> {
            self.calls.execute.fetch_add(1, Ordering::SeqCst);
            Ok(true)
        }
        fn supports_dag(&self) -> bool {
            self.plans_graphs
        }
        fn execute_dag(
            &mut self,
            _d: &dyn DataAdaptor,
            _c: &ExecContext<'_>,
            _s: &mut DagScheduler,
        ) -> Result<bool> {
            self.calls.execute_dag.fetch_add(1, Ordering::SeqCst);
            Ok(true)
        }
    }

    /// A data adaptor publishing nothing (snapshots of it are empty).
    struct EmptyData;

    impl DataAdaptor for EmptyData {
        fn num_meshes(&self) -> usize {
            0
        }
        fn mesh_metadata(&self, _i: usize) -> Result<crate::adaptor::MeshMetadata> {
            Err(Error::NoSuchMesh { name: "none".into() })
        }
        fn mesh(&self, name: &str) -> Result<svtk::DataObject> {
            Err(Error::NoSuchMesh { name: name.into() })
        }
        fn time(&self) -> f64 {
            0.0
        }
        fn time_step(&self) -> u64 {
            0
        }
    }

    /// Attach an engine around `build`'s back-end on a one-rank world,
    /// hand it to `body`, and return the (execute, execute_dag) call counts
    /// once the world has joined.
    fn with_engine(
        build: impl Fn(Calls) -> Counting + Send + Sync,
        body: impl Fn(&mut Engine, &Comm, &Arc<SimNode>) + Send + Sync,
    ) -> (u64, u64) {
        let calls = Calls::default();
        World::new(1).run(|comm| {
            let node = SimNode::new(NodeConfig::fast_test(1));
            let mut engine = Engine::new(Box::new(build(calls.clone())), &comm, &node);
            body(&mut engine, &comm, &node);
        });
        calls.totals()
    }

    /// Dispatch one (empty) snapshot.
    fn dispatch(engine: &mut Engine, comm: &Comm, node: &Arc<SimNode>) -> Result<bool> {
        let snap = Arc::new(SnapshotAdaptor::capture(&EmptyData).unwrap());
        engine.dispatch(&EmptyData, Some(&snap), comm, node)
    }

    #[test]
    fn closed_queue_dispatch_failure_surfaces_at_finalize() {
        for execution in WORKER_MODES {
            let controls = BackendControls { execution, ..Default::default() };
            let totals = with_engine(
                |calls| Counting { controls, calls, ..Default::default() },
                |engine, comm, node| {
                    // Close the queue through a second sender handle, as
                    // a finalizer racing a dispatch on another thread
                    // would.
                    let Thread::Worker(worker) = &engine.thread else { unreachable!() };
                    worker.tx.as_ref().unwrap().clone().close();
                    let err = dispatch(engine, comm, node).unwrap_err();
                    assert!(matches!(err, Error::Analysis(_)), "({execution:?}) got {err:?}");

                    // The dropped iteration must surface at finalize even
                    // though the caller swallowed the dispatch error.
                    let fin = engine.finalize(comm, node);
                    assert!(
                        matches!(fin, Err(Error::Analysis(ref m)) if m.contains("closed")),
                        "({execution:?}) finalize must report the dropped dispatch, got {fin:?}"
                    );
                },
            );
            assert_eq!(totals, (0, 0));
        }
    }

    #[test]
    fn missing_snapshot_is_an_analysis_error_not_a_panic() {
        for execution in WORKER_MODES {
            let controls = BackendControls { execution, ..Default::default() };
            let totals = with_engine(
                |calls| Counting { controls, calls, ..Default::default() },
                |engine, comm, node| {
                    let err = engine.dispatch(&EmptyData, None, comm, node).unwrap_err();
                    assert!(
                        matches!(err, Error::Analysis(ref m) if m.contains("expected a snapshot")),
                        "({execution:?}) got {err:?}"
                    );
                    // A contract violation by the bridge does not poison
                    // the engine: the worker is alive and finalizes.
                    engine.finalize(comm, node).unwrap();
                },
            );
            assert_eq!(totals, (0, 0));
        }
    }

    #[test]
    fn graph_capable_back_ends_run_execute_dag_under_every_mode() {
        // A back-end that plans task graphs runs them under every mode —
        // in order under lockstep and asynchronous, work-stealing under
        // dag — and one that cannot runs `execute` under every mode. Only
        // dag reports scheduler counters.
        for execution in MODES {
            for plans_graphs in [false, true] {
                let controls = BackendControls { execution, ..Default::default() };
                let dag = execution == ExecutionMethod::Dag;
                let totals = with_engine(
                    |calls| Counting { controls, plans_graphs, calls },
                    |engine, comm, node| {
                        // The profiler's scheduler row follows the mode,
                        // not the back-end's capabilities.
                        let sc = engine.scheduler_counters().cloned();
                        assert_eq!(sc.is_some(), dag, "({execution:?})");
                        for _ in 0..3 {
                            assert!(dispatch(engine, comm, node).unwrap());
                        }
                        engine.finalize(comm, node).unwrap();
                        if let Some(sc) = sc {
                            assert_eq!(sc.snapshot().tasks, 0, "no graph reached the scheduler");
                        }
                    },
                );
                let expect = if plans_graphs { (0, 3) } else { (3, 0) };
                assert_eq!(
                    totals, expect,
                    "({execution:?}, plans_graphs={plans_graphs}) (execute, execute_dag) calls"
                );
            }
        }
    }

    #[test]
    fn engines_expose_backend_controls_and_requirements() {
        for execution in MODES {
            let controls = BackendControls { execution, frequency: 2, ..Default::default() };
            with_engine(
                |calls| Counting { controls, calls, ..Default::default() },
                |engine, comm, node| {
                    assert_eq!(engine.backend_name(), "counting");
                    assert_eq!(engine.controls().frequency, 2);
                    assert_eq!(engine.needs_snapshot(), execution != ExecutionMethod::Lockstep);
                    assert_eq!(engine.requirements(), DataRequirements::none().with_mesh("bodies"));
                    engine.finalize(comm, node).unwrap();
                },
            );
        }
    }
}
