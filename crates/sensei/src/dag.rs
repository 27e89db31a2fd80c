//! Task-graph representation of one bridge step (DESIGN.md §13).
//!
//! Instead of dispatching an analysis as one opaque call, a back-end that
//! supports dataflow execution *plans* its step as a list of typed tasks —
//! `Fetch → Kernel → Download → Reduce → Publish` — with optional
//! [`Event`] gates. A [`crate::DagScheduler`] then runs the tasks in push
//! order on the calling thread, each on the streams of the device it
//! names: placement is decided when the graph is planned, and the
//! concurrency is the streams' (kernels placed on different devices run
//! side by side, and a device's downloads overlap its kernels when the
//! scheduler gives it a copy stream of its own). The packed allreduce is
//! a single node placed last, and the graph's one recovery policy applies
//! per node.
//!
//! Push order must be a topological order of the step's dataflow: a task
//! may only read what earlier tasks produced.

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

/// Per-device stream pair: kernels go to `compute`, downloads to `copy`.
/// Under `dag` the two are the scheduler's own streams, so a device's D2H
/// traffic overlaps its own kernel queue exactly as CUDA's dual-stream
/// pattern does; the in-order scheduler uses the device's default stream
/// as both.
#[derive(Clone)]
pub struct DeviceStreams {
    /// Kernel launch queue.
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
    /// The device the task names (`None` for a host task).
    pub fn device(&self) -> Option<usize> {
        self.device
    }

    /// The compute stream of the task's device, if it names one.
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

/// A task body: runs once per attempt on the thread that runs the graph.
pub(crate) type TaskBody<'s> = Box<dyn FnMut(&TaskCtx) -> Result<()> + 's>;

pub(crate) struct Task<'s> {
    pub(crate) kind: TaskKind,
    pub(crate) label: String,
    /// The device whose streams the task uses; `None` runs it on the host.
    pub(crate) device: Option<usize>,
    /// Event gates: the task is held back until every event is signaled.
    pub(crate) wait_events: Vec<Event>,
    pub(crate) body: TaskBody<'s>,
}

/// One bridge step as a list of typed tasks.
///
/// Built by an analysis adaptor inside
/// [`crate::AnalysisAdaptor::execute_dag`], then consumed by
/// [`crate::DagScheduler::run`]. Task ids are assigned in push order, the
/// order the tasks run in.
pub struct TaskGraph<'s> {
    /// The back-end name (used in recovery error messages).
    pub(crate) backend: String,
    pub(crate) counters: Arc<AnalysisCounters>,
    pub(crate) policy: RecoveryPolicy,
    pub(crate) tasks: Vec<Task<'s>>,
}

impl<'s> TaskGraph<'s> {
    /// Start an empty graph for back-end `backend`. `policy` applies to
    /// every task node, and each node's recovery outcomes are recorded on
    /// `counters` (the back-end's own fault counters).
    pub fn new(
        backend: impl Into<String>,
        counters: Arc<AnalysisCounters>,
        policy: RecoveryPolicy,
    ) -> Self {
        TaskGraph { backend: backend.into(), counters, policy, tasks: Vec::new() }
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no task has been added.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Add a task on `device`'s streams, or on the host (`None`), to run
    /// after every task added before it. When the graph's policy is
    /// `Retry` the body must be safe to re-run from scratch (publish side
    /// effects only after the last fallible operation).
    pub fn add_task<F>(
        &mut self,
        kind: TaskKind,
        label: impl Into<String>,
        device: Option<usize>,
        body: F,
    ) -> TaskId
    where
        F: FnMut(&TaskCtx) -> Result<()> + 's,
    {
        let id = self.tasks.len();
        let (label, wait_events, body) = (label.into(), Vec::new(), Box::new(body));
        self.tasks.push(Task { kind, label, device, wait_events, body });
        id
    }

    /// Hold `task` back until `event` is signaled: the scheduler waits for
    /// the streams the event is recorded on before it runs the task.
    pub fn gate_on_event(&mut self, task: TaskId, event: Event) {
        self.tasks[task].wait_events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_order_assigns_sequential_topological_ids() {
        let mut g = TaskGraph::new("t", AnalysisCounters::new(), RecoveryPolicy::Abort);
        let a = g.add_task(TaskKind::Fetch, "f", None, |_| Ok(()));
        let b = g.add_task(TaskKind::Kernel, "k", Some(1), |_| Ok(()));
        let c = g.add_task(TaskKind::Reduce, "r", None, |_| Ok(()));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(g.len(), 3);
        let devices: Vec<_> = g.tasks.iter().map(|t| t.device).collect();
        assert_eq!(devices, [None, Some(1), None], "a task names its device, or none");
    }

    #[test]
    fn cost_and_home_are_per_node() {
        // The cost hint is spent when the graph is planned (it picks each
        // kernel's device); what a node keeps is its home, the device it
        // names, under the graph's one policy.
        let mut g = TaskGraph::new("t", AnalysisCounters::new(), RecoveryPolicy::SkipStep);
        let k0 = g.add_task(TaskKind::Kernel, "k0", Some(1), |_| Ok(()));
        let k1 = g.add_task(TaskKind::Kernel, "k1", Some(0), |_| Ok(()));
        assert_eq!(g.policy, RecoveryPolicy::SkipStep, "one policy per graph");
        assert_eq!((g.tasks[k0].device, g.tasks[k1].device), (Some(1), Some(0)));
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
