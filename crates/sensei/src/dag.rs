//! The typed nodes of one bridge step (DESIGN.md §13).
//!
//! Instead of dispatching an analysis as one opaque call, a back-end that
//! supports dataflow execution runs its step as a sequence of typed nodes
//! — `Fetch → Kernel → Download → Reduce → Publish` — each through
//! [`crate::Step::run`], which executes it at once on the streams of the
//! device it names: placement is decided by the code that reaches the
//! node, and the concurrency is the streams' (kernels placed on different
//! devices run side by side, and a device's downloads overlap its kernels
//! when the scheduler gives it a copy stream of its own). The packed
//! allreduce is a single node run last, and the back-end's one recovery
//! policy applies per node.

use std::sync::Arc;

use devsim::Stream;

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

/// Execution context handed to every node body.
pub struct TaskCtx<'a> {
    pub(crate) device: Option<usize>,
    pub(crate) streams: &'a [Option<DeviceStreams>],
}

impl TaskCtx<'_> {
    /// The device the node names (`None` for a host node).
    pub fn device(&self) -> Option<usize> {
        self.device
    }

    /// The compute stream of the node's device, if it names one.
    pub fn stream(&self) -> Option<&Arc<Stream>> {
        self.device.and_then(|d| self.compute_stream(d))
    }

    /// Compute (kernel) stream of device `d`, if the scheduler provisioned
    /// one.
    pub fn compute_stream(&self, d: usize) -> Option<&Arc<Stream>> {
        self.streams.get(d).and_then(|s| s.as_ref()).map(|s| &s.compute)
    }

    /// Copy (transfer) stream of device `d` — downloads issued here overlap
    /// the same device's kernel queue.
    pub fn copy_stream(&self, d: usize) -> Option<&Arc<Stream>> {
        self.streams.get(d).and_then(|s| s.as_ref()).map(|s| &s.copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
