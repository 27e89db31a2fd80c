//! The execution engine.
//!
//! An [`Engine`] owns a group of one or more analysis back-ends and runs
//! their steps relative to the simulation: on the simulation's thread
//! with zero-copy access to the live data under `lockstep`, on a
//! persistent worker thread fed snapshots through a bounded queue under
//! `asynchronous` and `dag`.
//!
//! Whatever the thread, a step is one [`DagScheduler::step`] of the
//! engine's scheduler, which runs the step's typed nodes as its code
//! reaches them — on the engine's thread, on default streams under
//! `lockstep` and `asynchronous`, on the scheduler's own stream pair per
//! device under `dag` — with the back-end's recovery policy applied per
//! node. A back-end that plans its own nodes
//! ([`AnalysisAdaptor::supports_dag`]) runs them in `execute_dag`, so no
//! retry re-enters a collective another rank has already left; any other
//! back-end's step is one host node calling `execute`.
//!
//! A group's members are back-ends that plan their own nodes and that the
//! bridge proved compatible ([`Engine::join`]). They run in attach order,
//! on one scheduler, one thread and one queue, and each sees the step's
//! [`GroupSlot`] through its [`ExecContext`]: a member can hand its work
//! forward there, so the last member runs one merged step for the group.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;

use devsim::SimNode;
use minimpi::Comm;

use crate::adaptor::{AnalysisAdaptor, DataAdaptor, ExecContext, GroupSlot};
use crate::controls::BackendControls;
use crate::counters::AnalysisCounters;
use crate::dag::{TaskCtx, TaskKind};
use crate::error::{Error, Result};
use crate::execution::ExecutionMethod;
use crate::queue::{bounded, BoundedSender, SendError};
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

/// One back-end of an engine's group, with the counters its recovery
/// outcomes are recorded on.
struct Member {
    name: String,
    adaptor: Box<dyn AnalysisAdaptor>,
    /// The adaptor's counters, or engine-owned ones for back-ends without
    /// any — recovery outcomes need somewhere to be recorded either way.
    counters: Arc<AnalysisCounters>,
}

impl Member {
    /// A member around `adaptor`. Its counters are captured before the
    /// adaptor may move to a worker: they are shared atomics, so the
    /// bridge reads live totals.
    fn new(adaptor: Box<dyn AnalysisAdaptor>) -> Self {
        let counters = adaptor.counters().unwrap_or_default();
        Member { name: adaptor.name().to_string(), adaptor, counters }
    }

    /// The one step function (see the module docs). Panics — plan-time,
    /// escaping a scoped worker, or in `execute` — are contained here.
    fn step(
        &mut self,
        data: &dyn DataAdaptor,
        ctx: &ExecContext<'_>,
        sched: &mut DagScheduler,
    ) -> Result<bool> {
        let Member { name, adaptor, counters } = self;
        let rank = ctx.comm.rank();
        if adaptor.supports_dag() {
            return guarded(name, rank, || adaptor.execute_dag(data, ctx, sched));
        }
        let policy = adaptor.controls().recovery;
        let execute = |_: &TaskCtx| guarded(name, rank, || adaptor.execute(data, ctx));
        let proceed = sched.step(name, counters, policy, |s| {
            s.run(TaskKind::Kernel, || "execute".into(), None, &[], execute)
        })?;
        Ok(proceed.unwrap_or(true))
    }
}

/// An engine's group with what runs its steps, on whichever thread the
/// engine gives it.
struct Stepper {
    /// In attach order; never empty.
    members: Vec<Member>,
    sched: DagScheduler,
}

impl Stepper {
    /// One step of every member, in attach order. A group of two or more
    /// shares one fresh [`GroupSlot`] per step.
    fn step(&mut self, data: &dyn DataAdaptor, ctx: &ExecContext<'_>) -> Result<bool> {
        let Stepper { members, sched } = self;
        if let [member] = members.as_mut_slice() {
            return member.step(data, ctx, sched);
        }
        let slot = GroupSlot::default();
        let last = members.len() - 1;
        let mut proceed = true;
        for (i, member) in members.iter_mut().enumerate() {
            let ctx = ExecContext::new(ctx.comm, ctx.node).in_group(&slot, i == last);
            proceed &= member.step(data, &ctx, sched)?;
        }
        Ok(proceed)
    }

    /// Finalize every member, in attach order; the first failure wins.
    fn finalize(&mut self, ctx: &ExecContext<'_>) -> Result<()> {
        let mut outcome = Ok(());
        for member in &mut self.members {
            let finalized = member.adaptor.finalize(ctx);
            outcome = outcome.and(finalized);
        }
        outcome
    }
}

/// The worker thread of an `asynchronous` or `dag` engine, spawned at
/// its first dispatch (or finalize) so that members can still join the
/// group until then.
struct Worker {
    /// Before the thread starts: the group and the communicator duplicate
    /// the thread will own.
    unstarted: Option<Box<(Stepper, Comm)>>,
    tx: Option<BoundedSender<Arc<SnapshotAdaptor>>>,
    handle: Option<JoinHandle<Result<()>>>,
    /// A failure already observed (spawn failure, or a dead worker found
    /// by an earlier dispatch): every later dispatch returns it, and
    /// `finalize` surfaces it instead of silently reporting success.
    failed: Option<Error>,
}

impl Worker {
    /// A worker that will run `stepper` on a thread owning `comm`.
    fn new(stepper: Stepper, comm: Comm) -> Self {
        Worker { unstarted: Some(Box::new((stepper, comm))), tx: None, handle: None, failed: None }
    }

    /// On first use, move the group onto a new thread that runs one step
    /// per snapshot received. A failure to spawn the OS thread does not
    /// panic: the worker is left failed.
    fn start(&mut self, node: &Arc<SimNode>, c: &BackendControls) {
        let Some(unstarted) = self.unstarted.take() else { return };
        let (mut stepper, comm) = *unstarted;
        let (tx, rx) = bounded::<Arc<SnapshotAdaptor>>(c.queue_depth, c.overflow);
        let name = stepper.members[0].name.clone();
        let node = node.clone();
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
                stepper.finalize(&ctx)
            },
        );
        match spawned {
            Ok(handle) => (self.tx, self.handle) = (Some(tx), Some(handle)),
            Err(io) => {
                self.failed = Some(Error::Analysis(format!(
                    "failed to spawn in situ worker thread for '{name}': {io}"
                )))
            }
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

    /// Hand `snapshot` to the thread, starting it first if need be.
    fn send(
        &mut self,
        name: &str,
        c: &BackendControls,
        node: &Arc<SimNode>,
        snapshot: Option<&Arc<SnapshotAdaptor>>,
    ) -> Result<bool> {
        self.start(node, c);
        let depth = c.queue_depth;
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

    /// Close the queue, let the thread drain it and finalize the group
    /// (a worker never dispatched to starts just for that).
    fn finalize(&mut self, name: &str, c: &BackendControls, node: &Arc<SimNode>) -> Result<()> {
        self.start(node, c);
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

/// A group of back-ends attached to a bridge — usually one, see
/// [`Engine::join`] — run on the thread their [`ExecutionMethod`] calls
/// for (see the module docs).
///
/// Every step runs under the group's
/// [`RecoveryPolicy`](crate::RecoveryPolicy) with fault injection armed
/// for this rank, so injected device faults and analysis panics are
/// retried, skipped, or surfaced per policy — and counted in the
/// [`FaultCounters`](crate::FaultCounters) of the back-end that met them. A
/// worker's queue depth and overflow policy come from the group's
/// [`BackendControls`]; a worker that fails or panics surfaces as
/// [`Error::Analysis`] from the next `dispatch` or from `finalize`.
pub struct Engine {
    name: String,
    controls: BackendControls,
    /// The union of every member's requirements.
    requirements: DataRequirements,
    /// Every member plans its own nodes.
    plans_graphs: bool,
    /// Per member, in attach order.
    counters: Vec<Arc<AnalysisCounters>>,
    scheduler_counters: Arc<SchedulerCounters>,
    thread: Thread,
}

impl Engine {
    /// Attach `adaptor` for `rank` of `comm` on `node`, as a group of one.
    /// Off lockstep the group will run on a worker thread with a dedicated
    /// duplicate of `comm` (collective: analysis traffic must not
    /// interfere with the simulation's communicator).
    pub fn new(adaptor: Box<dyn AnalysisAdaptor>, comm: &Comm, node: &Arc<SimNode>) -> Self {
        let controls = *adaptor.controls();
        let requirements = adaptor.required_arrays();
        let plans_graphs = adaptor.supports_dag();
        let member = Member::new(adaptor);
        let (name, counters) = (member.name.clone(), vec![member.counters.clone()]);
        let scheduler_counters = SchedulerCounters::new();
        let sched = match controls.execution {
            ExecutionMethod::Dag => DagScheduler::new(node.clone(), scheduler_counters.clone()),
            _ => DagScheduler::in_order(node.clone()),
        };
        let stepper = Stepper { members: vec![member], sched };
        let thread = match controls.execution {
            ExecutionMethod::Lockstep => Thread::Caller(Box::new(stepper)),
            ExecutionMethod::Asynchronous | ExecutionMethod::Dag => {
                Thread::Worker(Worker::new(stepper, comm.dup()))
            }
        };
        Engine { name, controls, requirements, plans_graphs, counters, scheduler_counters, thread }
    }

    /// Add `adaptor` to this engine's group and return its counters, or
    /// hand it back when the two cannot share an engine. They can when
    /// both plan their own nodes, return the same name and equal
    /// [`BackendControls`], and each requires one and the same mesh — and
    /// this engine's worker, if it has one, has not started yet.
    pub fn join(
        &mut self,
        adaptor: Box<dyn AnalysisAdaptor>,
    ) -> std::result::Result<Arc<AnalysisCounters>, Box<dyn AnalysisAdaptor>> {
        let requirements = adaptor.required_arrays();
        let mesh = requirements.single_mesh();
        let compatible = self.plans_graphs
            && adaptor.supports_dag()
            && adaptor.name() == self.name
            && *adaptor.controls() == self.controls
            && mesh.is_some()
            && mesh == self.requirements.single_mesh();
        let stepper = match &mut self.thread {
            Thread::Caller(stepper) if compatible => stepper,
            Thread::Worker(Worker { unstarted: Some(unstarted), .. }) if compatible => {
                &mut unstarted.0
            }
            _ => return Err(adaptor),
        };
        let member = Member::new(adaptor);
        let counters = member.counters.clone();
        stepper.members.push(member);
        self.requirements.union_with(&requirements);
        self.counters.push(counters.clone());
        Ok(counters)
    }

    /// The back-ends' name (for profiling and errors): every member of a
    /// group shares it.
    pub fn backend_name(&self) -> &str {
        &self.name
    }

    /// The group's execution-model controls: every member's are equal.
    pub fn controls(&self) -> &BackendControls {
        &self.controls
    }

    /// What the group needs captured when it runs off a snapshot.
    pub fn requirements(&self) -> DataRequirements {
        self.requirements.clone()
    }

    /// True when `dispatch` consumes a snapshot instead of accessing the
    /// simulation's live data.
    pub fn needs_snapshot(&self) -> bool {
        matches!(self.thread, Thread::Worker(_))
    }

    /// Each member's work and fault counters, in attach order.
    pub fn counters(&self) -> &[Arc<AnalysisCounters>] {
        &self.counters
    }

    /// The step scheduler's counters (zero unless the engine runs under
    /// `dag`); the bridge records them into the profiler at finalize.
    pub fn scheduler_counters(&self) -> &Arc<SchedulerCounters> {
        &self.scheduler_counters
    }

    /// Run (or hand off) one iteration of every member. `snapshot` is
    /// `Some` iff [`needs_snapshot`](Self::needs_snapshot); it may contain
    /// the union of several engines' requirements. Returns `Ok(false)`
    /// when a member requests the simulation stop.
    pub fn dispatch(
        &mut self,
        data: &dyn DataAdaptor,
        snapshot: Option<&Arc<SnapshotAdaptor>>,
        comm: &Comm,
        node: &Arc<SimNode>,
    ) -> Result<bool> {
        match &mut self.thread {
            Thread::Caller(stepper) => stepper.step(data, &ExecContext::new(comm, node)),
            Thread::Worker(worker) => worker.send(&self.name, &self.controls, node, snapshot),
        }
    }

    /// Complete all outstanding work and finalize every member.
    pub fn finalize(&mut self, comm: &Comm, node: &Arc<SimNode>) -> Result<()> {
        match &mut self.thread {
            Thread::Caller(stepper) => stepper.finalize(&ExecContext::new(comm, node)),
            Thread::Worker(worker) => worker.finalize(&self.name, &self.controls, node),
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

    /// Counts monolithic and node-planning executes separately; optionally
    /// claims node planning, or has `execute` fail or request a stop.
    #[derive(Default)]
    struct Counting {
        controls: BackendControls,
        plans_graphs: bool,
        fails: bool,
        stops: bool,
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
            match self.fails {
                true => Err(Error::Analysis("boom".into())),
                false => Ok(!self.stops),
            }
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
                    let Thread::Worker(worker) = &mut engine.thread else { unreachable!() };
                    worker.start(node, &controls);
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
    fn every_step_runs_through_the_scheduler_under_every_mode() {
        // A back-end that plans its own nodes runs `execute_dag` under
        // every mode, and one that cannot runs `execute` as one node of the
        // same scheduler: in order on default streams under lockstep and
        // asynchronous, which counts nothing, and under dag, which counts
        // that node once per dispatch. (`Counting`'s `execute_dag` runs no
        // node.)
        for execution in MODES {
            for plans_graphs in [false, true] {
                let controls = BackendControls { execution, ..Default::default() };
                let what = format!("({execution:?}, plans_graphs={plans_graphs})");
                let one_node = execution == ExecutionMethod::Dag && !plans_graphs;
                let totals = with_engine(
                    |calls| Counting { controls, plans_graphs, calls, ..Default::default() },
                    |engine, comm, node| {
                        let sc = engine.scheduler_counters().clone();
                        for _ in 0..3 {
                            assert!(dispatch(engine, comm, node).unwrap());
                        }
                        engine.finalize(comm, node).unwrap();
                        assert_eq!(sc.snapshot().tasks, if one_node { 3 } else { 0 }, "{what}");
                    },
                );
                let expect = if plans_graphs { (0, 3) } else { (3, 0) };
                assert_eq!(totals, expect, "{what} (execute, execute_dag) calls");
            }
        }
    }

    #[test]
    fn a_one_node_step_keeps_stop_requests_and_names_the_back_end() {
        // `Ok(false)` from `execute` still stops the simulation, and an
        // exhausted retry budget still names the back-end.
        let recovery = crate::RecoveryPolicy::Retry { max_retries: 2, backoff_ms: 0 };
        let controls = BackendControls { recovery, ..Default::default() };
        for (fails, stops) in [(false, true), (true, false)] {
            let totals = with_engine(
                |calls| Counting { controls, fails, stops, calls, ..Default::default() },
                |engine, comm, node| match dispatch(engine, comm, node) {
                    Ok(proceed) => assert!(!proceed, "a stop request reaches the solver"),
                    Err(e) => {
                        let msg = e.to_string();
                        assert!(msg.contains("'counting/") && msg.contains("2 retries"), "{msg}");
                        let f = engine.counters()[0].snapshot().faults;
                        assert_eq!((f.injected, f.retried, f.aborted), (1, 2, 1));
                    }
                },
            );
            assert_eq!(totals, (if fails { 3 } else { 1 }, 0));
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
