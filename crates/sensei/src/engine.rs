//! The execution-engine layer.
//!
//! An [`ExecutionEngine`] owns one analysis back-end and decides *how* it
//! runs relative to the simulation. There are two: [`InlineEngine`] runs
//! lockstep back-ends on the simulation's thread with zero-copy access to
//! the live data, and [`WorkerEngine`] feeds snapshots to a persistent
//! worker thread for the `asynchronous` and `dag` modes — the mode is the
//! worker's policy (monolithic dispatch or task graphs), not a third
//! engine. The bridge picks between them by matching the back-end's
//! [`crate::ExecutionMethod`].

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

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

/// How a back-end's work is scheduled relative to the simulation.
///
/// The bridge calls [`dispatch`](Self::dispatch) for every iteration the
/// back-end is due and [`finalize`](Self::finalize) once at shutdown.
/// Engines that run the analysis on another thread report the *apparent*
/// cost (what the simulation waits for) through the bridge's timing of
/// `dispatch`; the analysis itself overlaps the solver.
pub trait ExecutionEngine: Send {
    /// The owned back-end's instance name (for profiling and errors).
    fn backend_name(&self) -> &str;

    /// The owned back-end's execution-model controls.
    fn controls(&self) -> &BackendControls;

    /// What the back-end needs deep-copied when it runs off a snapshot.
    fn requirements(&self) -> DataRequirements;

    /// True when `dispatch` consumes a deep-copied snapshot instead of
    /// accessing the simulation's live data.
    fn needs_snapshot(&self) -> bool;

    /// The owned back-end's work counters, if it keeps any. Engines that
    /// move the back-end onto a worker thread must capture the handle
    /// before the move so the bridge can still read the totals.
    fn counters(&self) -> Option<Arc<AnalysisCounters>> {
        None
    }

    /// Work-stealing scheduler counters, for engines that execute steps
    /// as task graphs ([`WorkerEngine`] under `dag`); the bridge records
    /// them into the profiler at finalize.
    fn scheduler_counters(&self) -> Option<Arc<SchedulerCounters>> {
        None
    }

    /// Run (or hand off) one iteration. `snapshot` is `Some` iff
    /// [`needs_snapshot`](Self::needs_snapshot); it may contain the union
    /// of several back-ends' requirements. Returns `Ok(false)` when the
    /// back-end requests the simulation stop.
    fn dispatch(
        &mut self,
        data: &dyn DataAdaptor,
        snapshot: Option<&Arc<SnapshotAdaptor>>,
        comm: &Comm,
        node: &Arc<SimNode>,
    ) -> Result<bool>;

    /// Complete all outstanding work and finalize the back-end.
    fn finalize(&mut self, comm: &Comm, node: &Arc<SimNode>) -> Result<()>;
}

/// Lockstep execution: the back-end runs inline on the simulation's
/// thread, with zero-copy access to the live data (§3's lockstep method).
///
/// Each dispatch runs under the back-end's
/// [`RecoveryPolicy`](crate::RecoveryPolicy) with fault injection armed
/// for this rank, so injected device faults and analysis panics are
/// retried, skipped, or surfaced per policy — and counted in the
/// back-end's [`FaultCounters`](crate::FaultCounters).
pub struct InlineEngine {
    name: String,
    adaptor: Box<dyn AnalysisAdaptor>,
    /// The adaptor's counters, or engine-owned ones for back-ends without
    /// any — recovery outcomes need somewhere to be recorded either way.
    counters: Arc<AnalysisCounters>,
}

impl InlineEngine {
    /// Wrap `adaptor` for inline execution.
    pub fn new(adaptor: Box<dyn AnalysisAdaptor>) -> Self {
        let name = adaptor.name().to_string();
        let counters = adaptor.counters().unwrap_or_default();
        InlineEngine { name, adaptor, counters }
    }
}

impl ExecutionEngine for InlineEngine {
    fn backend_name(&self) -> &str {
        &self.name
    }

    fn controls(&self) -> &BackendControls {
        self.adaptor.controls()
    }

    fn requirements(&self) -> DataRequirements {
        self.adaptor.required_arrays()
    }

    fn needs_snapshot(&self) -> bool {
        false
    }

    fn counters(&self) -> Option<Arc<AnalysisCounters>> {
        Some(self.counters.clone())
    }

    fn dispatch(
        &mut self,
        data: &dyn DataAdaptor,
        _snapshot: Option<&Arc<SnapshotAdaptor>>,
        comm: &Comm,
        node: &Arc<SimNode>,
    ) -> Result<bool> {
        let ctx = ExecContext::new(comm, node);
        let InlineEngine { name, adaptor, counters } = self;
        let rank = comm.rank();
        run_with_recovery(adaptor.controls().recovery, counters, name, || {
            guarded(name, rank, || adaptor.execute(data, &ctx))
        })
    }

    fn finalize(&mut self, comm: &Comm, node: &Arc<SimNode>) -> Result<()> {
        let ctx = ExecContext::new(comm, node);
        self.adaptor.finalize(&ctx)
    }
}

/// Snapshot-fed execution: a persistent worker thread owns the back-end
/// and a dedicated duplicate communicator; `dispatch` hands the step's
/// snapshot through a bounded queue and returns immediately (§4.3).
///
/// The back-end's [`ExecutionMethod`] is the worker's policy, not a
/// different engine. Under `asynchronous` every snapshot runs as one
/// monolithic `execute` with per-snapshot recovery. Under `dag`, back-ends
/// that plan task graphs ([`AnalysisAdaptor::supports_dag`]) run each
/// step under a work-stealing [`DagScheduler`] spanning every device slot
/// and stream of the node (DESIGN.md §13), with recovery per task node;
/// back-ends that do not are dispatched exactly as under `asynchronous`.
///
/// The queue depth and overflow policy come from the back-end's
/// [`BackendControls`]; a worker that fails or panics surfaces as
/// [`Error::Analysis`] from the next `dispatch` or from `finalize`.
pub struct WorkerEngine {
    name: String,
    controls: BackendControls,
    requirements: DataRequirements,
    counters: Arc<AnalysisCounters>,
    /// Present under `dag`, so the profiler gets a scheduler row even
    /// when the back-end fell back to monolithic dispatch.
    scheduler_counters: Option<Arc<SchedulerCounters>>,
    tx: Option<BoundedSender<Arc<SnapshotAdaptor>>>,
    handle: Option<std::thread::JoinHandle<Result<()>>>,
    /// A failure already observed (spawn failure, or a dead worker found
    /// by an earlier dispatch): every later dispatch returns it, and
    /// `finalize` surfaces it instead of silently reporting success.
    failed: Option<Error>,
}

impl WorkerEngine {
    /// Move `adaptor` onto a new worker thread. `comm` must be a
    /// dedicated duplicate (the worker owns it; analysis traffic must not
    /// interfere with the simulation's communicator).
    ///
    /// A failure to spawn the OS thread does not panic: the engine comes
    /// back constructed-but-failed, the first `dispatch` and `finalize`
    /// return the spawn error as [`Error::Analysis`].
    pub fn spawn(mut adaptor: Box<dyn AnalysisAdaptor>, comm: Comm, node: Arc<SimNode>) -> Self {
        let name = adaptor.name().to_string();
        let controls = *adaptor.controls();
        let requirements = adaptor.required_arrays();
        // Captured before the adaptor moves to the worker: the counters
        // are shared atomics, so the bridge reads live totals. Back-ends
        // without counters get engine-owned ones so recovery outcomes are
        // still recorded.
        let counters = adaptor.counters().unwrap_or_default();
        let dag = controls.execution == ExecutionMethod::Dag;
        let scheduler_counters = dag.then(SchedulerCounters::new);
        // Dataflow: only under `dag`, and only a back-end that plans task
        // graphs gets a scheduler to hand them to.
        let dataflow_counters = scheduler_counters.clone().filter(|_| adaptor.supports_dag());
        let (tx, rx) = bounded::<Arc<SnapshotAdaptor>>(controls.queue_depth, controls.overflow);
        let worker_name = name.clone();
        let worker_counters = counters.clone();
        let policy = controls.recovery;
        let spawned = std::thread::Builder::new().name(format!("sensei-insitu-{name}")).spawn(
            move || -> Result<()> {
                let rank = comm.rank();
                let mut sched = dataflow_counters.map(|c| DagScheduler::new(node.clone(), rank, c));
                let ctx = ExecContext::new(&comm, &node);
                while let Some(snapshot) = rx.recv() {
                    let outcome = match &mut sched {
                        // Recovery applies per task node inside the
                        // scheduler; wrapping the whole step again would
                        // double-count faults and re-run collectives.
                        // Panics (plan-time or escaping a scoped worker)
                        // are still contained here.
                        Some(sched) => guarded(&worker_name, rank, || {
                            adaptor.execute_dag(snapshot.as_ref(), &ctx, sched)
                        }),
                        // Per-snapshot recovery: a fault in one iteration
                        // is retried or skipped per policy without killing
                        // the worker; only an abort (or exhausted retries)
                        // ends it.
                        None => run_with_recovery(policy, &worker_counters, &worker_name, || {
                            guarded(&worker_name, rank, || adaptor.execute(snapshot.as_ref(), &ctx))
                        }),
                    };
                    // This worker is done with the snapshot either way;
                    // the last consumer's finish drops the CoW pins so
                    // later producer writes skip the fault copy.
                    snapshot.consumer_finished();
                    outcome?;
                }
                adaptor.finalize(&ctx)
            },
        );
        let (tx, handle, failed) = match spawned {
            Ok(handle) => (Some(tx), Some(handle), None),
            Err(io) => {
                let failed = Error::Analysis(format!(
                    "failed to spawn in situ worker thread for '{name}': {io}"
                ));
                (None, None, Some(failed))
            }
        };
        WorkerEngine {
            name,
            controls,
            requirements,
            counters,
            scheduler_counters,
            tx,
            handle,
            failed,
        }
    }

    /// Join the worker and translate its exit into a `Result` (used both
    /// when a send finds the worker gone and at finalize).
    fn join_worker(&mut self) -> Result<()> {
        match self.handle.take() {
            Some(h) => match h.join() {
                Ok(result) => result,
                Err(_) => Err(Error::Analysis(format!("in situ worker '{}' panicked", self.name))),
            },
            None => Ok(()),
        }
    }
}

impl ExecutionEngine for WorkerEngine {
    fn backend_name(&self) -> &str {
        &self.name
    }

    fn controls(&self) -> &BackendControls {
        &self.controls
    }

    fn requirements(&self) -> DataRequirements {
        self.requirements.clone()
    }

    fn needs_snapshot(&self) -> bool {
        true
    }

    fn counters(&self) -> Option<Arc<AnalysisCounters>> {
        Some(self.counters.clone())
    }

    fn scheduler_counters(&self) -> Option<Arc<SchedulerCounters>> {
        self.scheduler_counters.clone()
    }

    fn dispatch(
        &mut self,
        _data: &dyn DataAdaptor,
        snapshot: Option<&Arc<SnapshotAdaptor>>,
        _comm: &Comm,
        _node: &Arc<SimNode>,
    ) -> Result<bool> {
        if let Some(err) = &self.failed {
            return Err(err.clone());
        }
        // A missing snapshot is a bridge-side contract violation; report
        // it as an analysis error instead of panicking the solver thread.
        let Some(snapshot) = snapshot else {
            return Err(Error::Analysis(format!(
                "in situ engine '{}' expected a snapshot but the bridge supplied none",
                self.name
            )));
        };
        let tx = self.tx.as_ref().ok_or(Error::Finalized)?;
        match tx.send(snapshot.clone()) {
            Ok(_) => Ok(true),
            Err(SendError::Full) => Err(Error::Analysis(format!(
                "in situ queue for '{}' is full ({} snapshots in flight, overflow policy \
                 'error')",
                self.name, self.controls.queue_depth
            ))),
            Err(SendError::Closed) => {
                // Stash the error like the disconnect arm below: a
                // dispatch into a closed queue drops the iteration, and
                // finalize must surface that instead of silently
                // reporting success when the caller swallows this error.
                let err = Error::Analysis(format!("in situ queue for '{}' is closed", self.name));
                self.failed = Some(err.clone());
                Err(err)
            }
            Err(SendError::Disconnected) => {
                // The worker exited early — an analysis error or a panic.
                // Joining it (non-blocking: the thread is gone) recovers
                // the reason; stash it so finalize reports the failure
                // even if the caller swallows this dispatch error.
                self.tx = None;
                let err = match self.join_worker() {
                    Ok(()) => {
                        Error::Analysis(format!("in situ worker '{}' terminated early", self.name))
                    }
                    Err(e) => e,
                };
                self.failed = Some(err.clone());
                Err(err)
            }
        }
    }

    fn finalize(&mut self, _comm: &Comm, _node: &Arc<SimNode>) -> Result<()> {
        if let Some(tx) = self.tx.take() {
            // Closing the queue ends the worker loop after it drains.
            tx.close();
        }
        let join_result = self.join_worker();
        // A stashed failure (spawn error, dead worker seen at dispatch)
        // takes precedence: it is the root cause.
        match self.failed.take() {
            Some(err) => Err(err),
            None => join_result,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devsim::NodeConfig;
    use minimpi::World;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The two policies of the one worker engine.
    const WORKER_MODES: [ExecutionMethod; 2] =
        [ExecutionMethod::Asynchronous, ExecutionMethod::Dag];

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

    /// Spawn a worker engine around `build`'s back-end on a one-rank
    /// world, hand it to `body`, and return the (execute, execute_dag)
    /// call counts once the world has joined.
    fn with_engine(
        build: impl Fn(Calls) -> Counting + Send + Sync,
        body: impl Fn(&mut WorkerEngine, &Comm, &Arc<SimNode>) + Send + Sync,
    ) -> (u64, u64) {
        let calls = Calls::default();
        World::new(1).run(|comm| {
            let node = SimNode::new(NodeConfig::fast_test(1));
            let adaptor = Box::new(build(calls.clone()));
            let mut engine = WorkerEngine::spawn(adaptor, comm.dup(), node.clone());
            body(&mut engine, &comm, &node);
        });
        calls.totals()
    }

    /// Dispatch one (empty) snapshot.
    fn dispatch(engine: &mut WorkerEngine, comm: &Comm, node: &Arc<SimNode>) -> Result<bool> {
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
                    engine.tx.as_ref().unwrap().clone().close();
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
    fn task_graphs_are_planned_only_under_dag_and_only_when_supported() {
        // The mode is the worker's policy: `asynchronous` keeps
        // monolithic dispatch even for a back-end that could plan graphs,
        // and `dag` falls back to it for a back-end that cannot.
        for execution in WORKER_MODES {
            for plans_graphs in [false, true] {
                let controls = BackendControls { execution, ..Default::default() };
                let dag = execution == ExecutionMethod::Dag;
                let totals = with_engine(
                    |calls| Counting { controls, plans_graphs, calls },
                    |engine, comm, node| {
                        // The profiler's scheduler row follows the mode,
                        // not the back-end's capabilities.
                        let sc = engine.scheduler_counters();
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
                let expect = if dag && plans_graphs { (0, 3) } else { (3, 0) };
                assert_eq!(
                    totals, expect,
                    "({execution:?}, plans_graphs={plans_graphs}) (execute, execute_dag) calls"
                );
            }
        }
    }

    #[test]
    fn engines_expose_backend_controls_and_requirements() {
        for execution in WORKER_MODES {
            let controls = BackendControls { execution, frequency: 2, ..Default::default() };
            with_engine(
                |calls| Counting { controls, calls, ..Default::default() },
                |engine, comm, node| {
                    assert_eq!(engine.backend_name(), "counting");
                    assert_eq!(engine.controls().frequency, 2);
                    assert!(engine.needs_snapshot());
                    assert_eq!(engine.requirements(), DataRequirements::none().with_mesh("bodies"));
                    engine.finalize(comm, node).unwrap();
                },
            );
        }
    }
}
