//! Task-graph representation of one bridge step (DESIGN.md §13).
//!
//! Instead of dispatching an analysis as one opaque call bound to a single
//! worker thread, a back-end that supports dataflow execution *plans* its
//! step as a DAG of typed tasks — `Fetch → Kernel → Download → Reduce →
//! Publish` — with explicit dependency edges and optional [`Event`] gates.
//! A [`crate::DagScheduler`] then executes the graph: in push order on the
//! calling thread (lockstep and asynchronous), or with work-stealing
//! workers over every device slot and stream (dag), where downloads
//! overlap kernels by construction and idle devices steal ready kernel
//! tasks. Either way the packed allreduce is a single sync node placed
//! last, and recovery applies per node.
//!
//! Two body flavours keep the borrow story honest:
//!
//! * **worker tasks** (`FnMut(&TaskCtx) -> Result<()> + Send`) may run on
//!   any eligible scheduler worker thread and must only capture `Send`
//!   state (`Arc`s, indices, shared slots);
//! * **coordinator tasks** (no `Send` bound) run on the thread that built
//!   the graph — MPI collectives, host-side merges and anything touching
//!   the planner's `!Sync` state (e.g. cached `Arc<Stream>` pools) live
//!   here.
//!
//! Tasks must be pushed in a topological order (an edge may only point at
//! an already-added task); this keeps readiness tracking allocation-free
//! and makes cycles unrepresentable.

use std::sync::Arc;

use devsim::{Event, Stream};

use crate::counters::AnalysisCounters;
use crate::error::Result;
use crate::recovery::RecoveryPolicy;

/// Index of a task inside its [`TaskGraph`] (also its topological rank).
pub type TaskId = usize;

/// The typed phases of one in situ step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Pull arrays from the data adaptor / snapshot.
    Fetch,
    /// Run compute (device kernel or host table pass).
    Kernel,
    /// Move device partials back to host-visible memory.
    Download,
    /// Combine partials: local merge + the packed allreduce sync node.
    Reduce,
    /// Materialize results for consumers (sink, cached last-result).
    Publish,
}

impl TaskKind {
    /// Short lowercase name used in labels and profiler rows.
    pub fn name(&self) -> &'static str {
        match self {
            TaskKind::Fetch => "fetch",
            TaskKind::Kernel => "kernel",
            TaskKind::Download => "download",
            TaskKind::Reduce => "reduce",
            TaskKind::Publish => "publish",
        }
    }
}

/// Where a task is allowed to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskSite {
    /// On the planning thread (implied for coordinator-body tasks).
    Coordinator,
    /// On a host worker (host execution slots).
    Host,
    /// Pinned to the worker owning one device (not stealable).
    Device(usize),
    /// Any device worker; ready tasks start on their home device's deque
    /// and idle workers of *other* devices may steal them.
    AnyDevice,
}

/// Per-device stream pair the scheduler provisions: kernels go to
/// `compute`, downloads to `copy`, so a device's D2H traffic overlaps its
/// own kernel queue exactly as CUDA's dual-stream pattern does. The
/// in-order executor uses the device's default stream as both.
#[derive(Clone)]
pub struct DeviceStreams {
    /// Kernel launch queue (one per device worker, worker-exclusive).
    pub compute: Arc<Stream>,
    /// Transfer queue (downloads never serialize behind kernels).
    pub copy: Arc<Stream>,
}

/// Execution context handed to every task body.
pub struct TaskCtx<'a> {
    pub(crate) device: Option<usize>,
    pub(crate) streams: &'a [Option<DeviceStreams>],
}

impl TaskCtx<'_> {
    /// The device owned by the executing worker (`None` on host and
    /// coordinator workers).
    pub fn device(&self) -> Option<usize> {
        self.device
    }

    /// The executing worker's own compute stream, if it owns a device.
    pub fn stream(&self) -> Option<&Arc<Stream>> {
        self.device.and_then(|d| self.compute_stream(d))
    }

    /// Compute (kernel) stream of device `d`, if the scheduler provisioned
    /// one for this run.
    pub fn compute_stream(&self, d: usize) -> Option<&Arc<Stream>> {
        self.streams.get(d).and_then(|s| s.as_ref()).map(|s| &s.compute)
    }

    /// Copy (transfer) stream of device `d` — downloads issued here overlap
    /// the same device's kernel queue.
    pub fn copy_stream(&self, d: usize) -> Option<&Arc<Stream>> {
        self.streams.get(d).and_then(|s| s.as_ref()).map(|s| &s.copy)
    }
}

/// A task body that may run on any eligible worker thread.
pub(crate) type WorkerRun<'s> = Box<dyn FnMut(&TaskCtx) -> Result<()> + Send + 's>;

/// A task body pinned to the planning thread (no `Send` bound).
pub(crate) type CoordRun<'s> = Box<dyn FnMut(&TaskCtx) -> Result<()> + 's>;

pub(crate) enum TaskBody<'s> {
    Worker(WorkerRun<'s>),
    Coordinator(CoordRun<'s>),
}

pub(crate) struct Task<'s> {
    pub(crate) kind: TaskKind,
    pub(crate) label: String,
    pub(crate) site: TaskSite,
    /// Preferred device for `AnyDevice` tasks (locality hint; stealable).
    pub(crate) home: Option<usize>,
    /// Relative modeled cost used for least-loaded routing (arbitrary
    /// units, only compared against other tasks of the same graph).
    pub(crate) cost: f64,
    pub(crate) policy: RecoveryPolicy,
    pub(crate) deps: Vec<TaskId>,
    /// Event gates: the task is held back until every event is signaled
    /// (polled by the scheduler via [`Event::is_signaled`]).
    pub(crate) wait_events: Vec<Event>,
    pub(crate) body: Option<TaskBody<'s>>,
}

/// One bridge step as a DAG of typed tasks.
///
/// Built by an analysis adaptor inside
/// [`crate::AnalysisAdaptor::execute_dag`], then consumed by
/// [`crate::DagScheduler::run`]. Task ids are assigned in push order and
/// push order must be topological: [`TaskGraph::add_dep`] only accepts
/// edges pointing at already-added tasks.
pub struct TaskGraph<'s> {
    backend: String,
    counters: Arc<AnalysisCounters>,
    default_policy: RecoveryPolicy,
    pub(crate) tasks: Vec<Task<'s>>,
}

impl<'s> TaskGraph<'s> {
    /// Start an empty graph for back-end `backend`. Per-task recovery
    /// outcomes are recorded on `counters` (the back-end's own fault
    /// counters); `default_policy` seeds every added task and can be
    /// overridden per node with [`TaskGraph::set_policy`].
    pub fn new(
        backend: impl Into<String>,
        counters: Arc<AnalysisCounters>,
        default_policy: RecoveryPolicy,
    ) -> Self {
        TaskGraph { backend: backend.into(), counters, default_policy, tasks: Vec::new() }
    }

    /// The back-end name (used in recovery error messages).
    pub fn backend(&self) -> &str {
        &self.backend
    }

    pub(crate) fn counters(&self) -> &Arc<AnalysisCounters> {
        &self.counters
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no task has been added.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    fn push(
        &mut self,
        kind: TaskKind,
        label: String,
        site: TaskSite,
        body: TaskBody<'s>,
    ) -> TaskId {
        let id = self.tasks.len();
        self.tasks.push(Task {
            kind,
            label,
            site,
            home: None,
            cost: 0.0,
            policy: self.default_policy,
            deps: Vec::new(),
            wait_events: Vec::new(),
            body: Some(body),
        });
        id
    }

    /// Add a task that may run on any eligible worker thread. The body
    /// must be `Send` and — when its node's policy is `Retry` — safe to
    /// re-run from scratch (publish side effects only after the last
    /// fallible operation).
    pub fn add_worker_task<F>(
        &mut self,
        kind: TaskKind,
        label: impl Into<String>,
        site: TaskSite,
        body: F,
    ) -> TaskId
    where
        F: FnMut(&TaskCtx) -> Result<()> + Send + 's,
    {
        assert!(site != TaskSite::Coordinator, "coordinator tasks use add_coordinator_task");
        self.push(kind, label.into(), site, TaskBody::Worker(Box::new(body)))
    }

    /// Add a task pinned to the planning thread (site is implicitly
    /// [`TaskSite::Coordinator`]). No `Send` bound: collectives and
    /// `!Sync` planner state are allowed here.
    pub fn add_coordinator_task<F>(
        &mut self,
        kind: TaskKind,
        label: impl Into<String>,
        body: F,
    ) -> TaskId
    where
        F: FnMut(&TaskCtx) -> Result<()> + 's,
    {
        self.push(kind, label.into(), TaskSite::Coordinator, TaskBody::Coordinator(Box::new(body)))
    }

    /// Make `task` wait for `dep`. Edges must point backwards in push
    /// order (the graph is built topologically), which also makes cycles
    /// unrepresentable.
    pub fn add_dep(&mut self, task: TaskId, dep: TaskId) {
        assert!(
            dep < task && task < self.tasks.len(),
            "dependency edges must point at earlier tasks (dep {dep} -> task {task})"
        );
        if !self.tasks[task].deps.contains(&dep) {
            self.tasks[task].deps.push(dep);
        }
    }

    /// Hold `task` back until `event` is signaled, in addition to its
    /// dependency edges. The scheduler polls the event; it never blocks a
    /// worker on it.
    pub fn gate_on_event(&mut self, task: TaskId, event: Event) {
        self.tasks[task].wait_events.push(event);
    }

    /// Record the relative modeled cost of `task` (least-loaded routing).
    pub fn set_cost(&mut self, task: TaskId, cost: f64) {
        self.tasks[task].cost = cost.max(0.0);
    }

    /// Prefer `device` for an `AnyDevice` task (locality; still stealable).
    pub fn set_home(&mut self, task: TaskId, device: usize) {
        self.tasks[task].home = Some(device);
    }

    /// Override the recovery policy of one task node.
    pub fn set_policy(&mut self, task: TaskId, policy: RecoveryPolicy) {
        self.tasks[task].policy = policy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> TaskGraph<'static> {
        TaskGraph::new("t", AnalysisCounters::new(), RecoveryPolicy::Abort)
    }

    #[test]
    fn push_order_assigns_sequential_topological_ids() {
        let mut g = graph();
        let a = g.add_coordinator_task(TaskKind::Fetch, "f", |_| Ok(()));
        let b = g.add_worker_task(TaskKind::Kernel, "k", TaskSite::AnyDevice, |_| Ok(()));
        let c = g.add_coordinator_task(TaskKind::Reduce, "r", |_| Ok(()));
        assert_eq!((a, b, c), (0, 1, 2));
        g.add_dep(b, a);
        g.add_dep(c, b);
        g.add_dep(c, b); // duplicate edges collapse
        assert_eq!(g.tasks[c].deps, vec![b]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    #[should_panic(expected = "earlier tasks")]
    fn forward_edges_are_rejected() {
        let mut g = graph();
        let a = g.add_coordinator_task(TaskKind::Fetch, "f", |_| Ok(()));
        g.add_dep(a, a);
    }

    #[test]
    fn policy_cost_and_home_are_per_node() {
        let mut g = TaskGraph::new("t", AnalysisCounters::new(), RecoveryPolicy::SkipStep);
        let k = g.add_worker_task(TaskKind::Kernel, "k", TaskSite::AnyDevice, |_| Ok(()));
        assert_eq!(g.tasks[k].policy, RecoveryPolicy::SkipStep);
        g.set_policy(k, RecoveryPolicy::Abort);
        g.set_cost(k, 7.5);
        g.set_home(k, 1);
        assert_eq!(g.tasks[k].policy, RecoveryPolicy::Abort);
        assert_eq!(g.tasks[k].cost, 7.5);
        assert_eq!(g.tasks[k].home, Some(1));
    }

    #[test]
    fn kind_names_are_stable() {
        let names: Vec<_> = [
            TaskKind::Fetch,
            TaskKind::Kernel,
            TaskKind::Download,
            TaskKind::Reduce,
            TaskKind::Publish,
        ]
        .iter()
        .map(|k| k.name())
        .collect();
        assert_eq!(names, ["fetch", "kernel", "download", "reduce", "publish"]);
    }
}
