//! The executor of [`TaskGraph`]s (DESIGN.md §13).
//!
//! [`DagScheduler::run`] executes one step's task graph — every step of
//! every back-end: the engine runs a back-end that plans no graph as a
//! one-node graph whose body calls `execute`. It runs every task on the
//! calling thread in push order (which is topological), each on the
//! streams of the device the task names. The method decides the streams:
//!
//! * [`DagScheduler::in_order`] — the `lockstep` and `asynchronous`
//!   methods — gives a device its default stream as compute and copy
//!   stream;
//! * [`DagScheduler::new`] — the `dag` method — gives each device a
//!   compute and a copy stream of the scheduler's own, so kernels the
//!   planner placed on different devices run side by side and a device's
//!   downloads overlap its kernels. Where each kernel runs is decided
//!   when the graph is planned; the executor never moves work.
//!
//! The graph's recovery policy applies **per task node**, through the one
//! function that applies a policy (`recovery::recover`): `Retry` re-runs
//! just the failed node, `SkipStep` drops the remainder of the graph and
//! reports [`DagOutcome::Skipped`], `Abort` fails the run. A retry
//! therefore never re-enters a collective node that already completed,
//! which another rank may have left.
//!
//! [`SchedulerCounters`] count the tasks a `dag` scheduler ran; the
//! in-order scheduler records nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use devsim::{Event, SimNode, Stream};

use crate::dag::{DeviceStreams, TaskCtx, TaskGraph};
use crate::error::{Error, Result};
use crate::recovery::recover;

/// Cumulative counters of one scheduler (shared, lock-free).
#[derive(Debug, Default)]
pub struct SchedulerCounters {
    tasks: AtomicU64,
}

impl SchedulerCounters {
    /// Fresh zeroed counters behind an `Arc`.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> SchedulerSnapshot {
        SchedulerSnapshot { tasks: self.tasks.load(Ordering::Relaxed), steals: 0 }
    }
}

/// Plain-data snapshot of [`SchedulerCounters`]; flows through profiler
/// CSVs and harness JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerSnapshot {
    /// Task nodes executed (all kinds, successful attempts only count 1).
    pub tasks: u64,
    /// Always 0: the executor never moves a task. Kept for the benchmark's
    /// row.
    pub steals: u64,
}

impl SchedulerSnapshot {
    /// Fold `other` into `self` (summing all fields).
    pub fn accumulate(&mut self, other: &SchedulerSnapshot) {
        self.tasks += other.tasks;
        self.steals += other.steals;
    }
}

/// How a graph run — or one of its nodes under the graph's recovery
/// policy — ended (errors are reported through `Result` instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagOutcome {
    /// Every task executed.
    Completed,
    /// A `SkipStep` task node failed: the rest of the graph was dropped
    /// and the step's outputs with it.
    Skipped,
}

/// The task-graph executor of one node (see the module docs).
///
/// The scheduler owns a lazily provisioned per-device stream pair
/// (compute + copy) reused across steps — the device's default stream as
/// both when it runs in order — and, under `dag`, the cumulative
/// [`SchedulerCounters`] it shares with whoever created it (the engine,
/// which surfaces them through the profiler).
pub struct DagScheduler {
    node: Arc<SimNode>,
    /// `None` in order: default streams, nothing counted.
    counters: Option<Arc<SchedulerCounters>>,
    device_streams: Vec<Option<DeviceStreams>>,
}

impl DagScheduler {
    /// The `dag` scheduler on `node`: private streams per device,
    /// reporting into `counters`.
    pub fn new(node: Arc<SimNode>, counters: Arc<SchedulerCounters>) -> Self {
        let n = node.num_devices();
        DagScheduler { node, counters: Some(counters), device_streams: vec![None; n] }
    }

    /// The in-order scheduler on `node`: default streams, no counters.
    pub fn in_order(node: Arc<SimNode>) -> Self {
        let n = node.num_devices();
        DagScheduler { node, counters: None, device_streams: vec![None; n] }
    }

    fn ensure_streams(&mut self, device: usize) -> Result<()> {
        if self.device_streams.get(device).is_none() {
            return Err(Error::Analysis(format!("no such device {device} on this node")));
        }
        if self.device_streams[device].is_none() {
            let dev = self.node.device(device).map_err(Error::Device)?;
            self.device_streams[device] = Some(match self.counters {
                None => {
                    let stream = dev.default_stream();
                    DeviceStreams { compute: stream.clone(), copy: stream }
                }
                Some(_) => {
                    DeviceStreams { compute: dev.create_stream(), copy: dev.create_stream() }
                }
            });
        }
        Ok(())
    }

    /// Drain every provisioned stream with `drain`; the first sticky error
    /// any of them held.
    fn drain(&self, drain: fn(&Stream) -> devsim::Result<()>) -> Result<()> {
        let mut first = Ok(());
        for ds in self.device_streams.iter().flatten() {
            let copy = (!Arc::ptr_eq(&ds.compute, &ds.copy)).then_some(&ds.copy);
            for stream in std::iter::once(&ds.compute).chain(copy) {
                first = first.and(drain(stream).map_err(Error::Device));
            }
        }
        first
    }

    /// Execute `graph` to completion, skip, or failure: every task on
    /// this thread in push order, on the streams of the device it names,
    /// and the streams drained at the end. An event-gated task first
    /// waits: for its events, on the scheduler's own streams, which carry
    /// nothing else; by synchronizing, on default streams, which the
    /// solver shares — a failure then surfaces as the stream's sticky
    /// error, and the closing drain need not wait for the solver's work.
    pub fn run(&mut self, graph: TaskGraph<'_>) -> Result<DagOutcome> {
        let TaskGraph { backend, counters, policy, tasks } = graph;
        let mut outcome = Ok(DagOutcome::Completed);
        // A device task ran since the streams were last synchronized.
        let mut in_flight = false;
        for mut task in tasks {
            let mut ready = task.device.map_or(Ok(()), |d| self.ensure_streams(d));
            if ready.is_ok() && !task.wait_events.is_empty() {
                match self.counters {
                    Some(_) => task.wait_events.iter().for_each(Event::wait),
                    None => {
                        ready = self.drain(Stream::synchronize);
                        in_flight = false;
                    }
                }
            }
            in_flight |= task.device.is_some();
            let label = || format!("{backend}/{}:{}", task.kind.name(), task.label);
            let ctx = TaskCtx { device: task.device, streams: &self.device_streams };
            let body = &mut task.body;
            let result = ready.and_then(|()| recover(policy, &counters, label, || body(&ctx)));
            if let Some(c) = &self.counters {
                c.tasks.fetch_add(1, Ordering::Relaxed);
            }
            outcome = match result {
                Ok(DagOutcome::Completed) => continue,
                other => other,
            };
            break;
        }
        self.quiesce(outcome, in_flight)
    }

    /// Drain every provisioned stream after a run ended with `outcome`. A
    /// stream is synchronized only if it is busy and the run may still
    /// have work on it (`in_flight`: the default stream an in-order run
    /// shares with the solver is often busy with the solver's work alone);
    /// otherwise it is queried, which takes its sticky error all the same
    /// without blocking. A failed run keeps its own error and a skipped
    /// step drops whatever its cancelled tail left on the streams; a
    /// completed run fails with the first sticky stream error.
    fn quiesce(&self, outcome: Result<DagOutcome>, in_flight: bool) -> Result<DagOutcome> {
        let drained = match in_flight {
            true => self.drain(|stream| match stream.is_idle() {
                true => stream.query().map(drop),
                false => stream.synchronize(),
            }),
            false => self.drain(|stream| stream.query().map(drop)),
        };
        match outcome {
            Ok(DagOutcome::Completed) => drained.map(|()| DagOutcome::Completed),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::AnalysisCounters;
    use crate::dag::{TaskGraph, TaskKind};
    use crate::recovery::RecoveryPolicy;
    use devsim::{KernelCost, NodeConfig};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::time::Duration;

    /// A `dag` scheduler on a node of `devices` devices, and its counters.
    fn sched_on(devices: usize) -> (DagScheduler, Arc<SchedulerCounters>) {
        let node = SimNode::new(NodeConfig::fast_test(devices.max(1)));
        let counters = SchedulerCounters::new();
        (DagScheduler::new(node, counters.clone()), counters)
    }

    fn graph() -> TaskGraph<'static> {
        TaskGraph::new("test", AnalysisCounters::new(), RecoveryPolicy::Abort)
    }

    #[test]
    fn empty_graph_completes_immediately() {
        let (mut s, counters) = sched_on(1);
        assert_eq!(s.run(graph()).unwrap(), DagOutcome::Completed);
        assert_eq!(counters.snapshot(), SchedulerSnapshot::default());
    }

    #[test]
    fn dependency_order_is_respected_across_sites() {
        // Push order is the dependency order, whichever device — or the
        // host — each task names.
        let order = Arc::new(Mutex::new(Vec::new()));
        let (mut s, counters) = sched_on(2);
        let mut g = graph();
        for (v, device) in [None, Some(1), Some(0), None].into_iter().enumerate() {
            let order = order.clone();
            g.add_task(TaskKind::Kernel, format!("t{v}"), device, move |ctx| {
                order.lock().push((v, ctx.device()));
                Ok(())
            });
        }
        assert_eq!(s.run(g).unwrap(), DagOutcome::Completed);
        assert_eq!(*order.lock(), [(0, None), (1, Some(1)), (2, Some(0)), (3, None)]);
        assert_eq!(counters.snapshot(), SchedulerSnapshot { tasks: 4, steals: 0 });
    }

    #[test]
    fn device_tasks_run_on_private_streams_per_device() {
        // Under `dag` each named device has a private compute and copy
        // stream, kept across runs; a host task sees no device.
        let (mut s, _) = sched_on(2);
        let seen = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..2 {
            let mut g = graph();
            for device in [Some(0), Some(1), None] {
                let seen = seen.clone();
                g.add_task(TaskKind::Kernel, "k", device, move |ctx| {
                    let ids = ctx.device().map(|d| {
                        let (compute, copy) = (ctx.stream().unwrap(), ctx.copy_stream(d).unwrap());
                        assert_eq!((compute.device(), copy.device()), (d, d));
                        (compute.id(), copy.id())
                    });
                    seen.lock().push((ctx.device(), ids));
                    Ok(())
                });
            }
            assert_eq!(s.run(g).unwrap(), DagOutcome::Completed);
        }
        let seen = seen.lock().clone();
        assert_eq!(seen[..3], seen[3..], "the streams are reused across runs");
        let default0 = s.node.device(0).unwrap().default_stream().id();
        let [(Some(0), Some((c0, p0))), (Some(1), Some((c1, p1))), (None, None)] = seen[..3] else {
            panic!("unexpected contexts {seen:?}");
        };
        let ids = [c0, p0, c1, p1, default0];
        assert!(ids.iter().enumerate().all(|(i, a)| ids[i + 1..].iter().all(|b| a != b)));
    }

    #[test]
    fn host_tasks_run_on_host_workers() {
        // The host's one worker is the thread that runs the graph.
        let (mut s, counters) = sched_on(1);
        let mut g = graph();
        let caller = std::thread::current().id();
        let ok = Arc::new(AtomicBool::new(false));
        {
            let ok = ok.clone();
            g.add_task(TaskKind::Kernel, "host-pass", None, move |ctx| {
                if ctx.device().is_none() && ctx.stream().is_none() {
                    ok.store(std::thread::current().id() == caller, Ordering::Relaxed);
                }
                Ok(())
            });
        }
        assert_eq!(s.run(g).unwrap(), DagOutcome::Completed);
        assert!(ok.load(Ordering::Relaxed), "host task must see no owned device");
        assert_eq!(counters.snapshot(), SchedulerSnapshot { tasks: 1, steals: 0 });
    }

    #[test]
    fn event_gates_hold_tasks_until_signaled() {
        let (mut s, _) = sched_on(1);
        let mut g = graph();
        let gate = Event::new();
        let fired = Arc::new(AtomicBool::new(false));
        {
            let gate = gate.clone();
            g.add_task(TaskKind::Kernel, "signaler", Some(0), move |ctx| {
                let stream = ctx.stream().expect("a device stream");
                let slow = |_: &_| {
                    std::thread::sleep(Duration::from_millis(2));
                    Ok(())
                };
                stream.launch("slow", KernelCost::ZERO, slow).map_err(Error::Device)?;
                stream.record(&gate).map_err(Error::Device)
            });
        }
        let gated = {
            let fired = fired.clone();
            let gate = gate.clone();
            g.add_task(TaskKind::Reduce, "gated", None, move |_| {
                assert!(gate.is_signaled(), "gate must be signaled before the task runs");
                fired.store(true, Ordering::Relaxed);
                Ok(())
            })
        };
        g.gate_on_event(gated, gate.clone());
        assert_eq!(s.run(g).unwrap(), DagOutcome::Completed);
        assert!(fired.load(Ordering::Relaxed));
    }

    #[test]
    fn an_in_order_device_graph_synchronizes_once_per_run() {
        // The event-gated node synchronizes the default stream it waits
        // behind; the closing drain only queries it, although a solver
        // sharing the stream keeps it busy until the run has returned.
        let node = SimNode::new(NodeConfig::fast_test(1));
        let mut s = DagScheduler::in_order(node.clone());
        let solver = node.device(0).unwrap().default_stream();
        for run in 0..3 {
            let mut g = graph();
            let landed = Event::new();
            let ev = landed.clone();
            g.add_task(TaskKind::Kernel, "k", Some(0), move |ctx| {
                let stream = ctx.stream().expect("a device stream");
                stream.launch("k", KernelCost::ZERO, |_| Ok(())).map_err(Error::Device)?;
                stream.record(&ev).map_err(Error::Device)
            });
            let (release, held) = std::sync::mpsc::channel::<()>();
            let (stream, mut held) = (solver.clone(), Some(held));
            let r = g.add_task(TaskKind::Reduce, "r", None, move |_| {
                let held = held.take().expect("the reduce runs once");
                // Bounded, so a drain that waits for it fails, not hangs.
                let busy = move |_: &_| {
                    let _released = held.recv_timeout(Duration::from_secs(2));
                    Ok(())
                };
                stream.launch("solver", KernelCost::ZERO, busy).map_err(Error::Device)
            });
            g.gate_on_event(r, landed);
            let before = node.stats().stream_syncs;
            assert_eq!(s.run(g).unwrap(), DagOutcome::Completed);
            assert!(!solver.is_idle(), "run {run}: the solver's kernel is still running");
            assert_eq!(node.stats().stream_syncs - before, 1, "run {run}");
            drop(release);
        }
    }

    #[test]
    fn a_sticky_error_on_an_idle_stream_fails_a_completed_run() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let mut s = DagScheduler::in_order(node.clone());
        let mut g = graph();
        g.add_task(TaskKind::Kernel, "k", Some(0), |ctx| {
            let stream = ctx.stream().expect("a device stream");
            let fail = |_: &_| Err(devsim::Error::FaultInjected { site: "kernel".into() });
            stream.launch("k", KernelCost::ZERO, fail).map_err(Error::Device)?;
            // Leave the stream idle, its error sticky, for the closing drain.
            while !stream.is_idle() {
                std::thread::yield_now();
            }
            Ok(())
        });
        let before = node.stats().stream_syncs;
        let err = s.run(g).unwrap_err();
        assert!(matches!(err, Error::Device(devsim::Error::FaultInjected { .. })), "{err:?}");
        assert_eq!(node.stats().stream_syncs, before, "an idle stream is queried, not synced");
        // The query took the error: the next run completes.
        let mut g = graph();
        g.add_task(TaskKind::Kernel, "k", Some(0), |_| Ok(()));
        assert_eq!(s.run(g).unwrap(), DagOutcome::Completed);
    }

    #[test]
    fn abort_policy_fails_the_run_and_cancels_the_tail() {
        let (mut s, _) = sched_on(1);
        let counters = AnalysisCounters::new();
        let mut g = TaskGraph::new("t", counters.clone(), RecoveryPolicy::Abort);
        let ran_tail = Arc::new(AtomicBool::new(false));
        g.add_task(TaskKind::Kernel, "bad", Some(0), |_| Err(Error::Analysis("boom".into())));
        {
            let ran = ran_tail.clone();
            g.add_task(TaskKind::Publish, "tail", None, move |_| {
                ran.store(true, Ordering::Relaxed);
                Ok(())
            })
        };
        assert!(s.run(g).is_err());
        assert!(!ran_tail.load(Ordering::Relaxed), "dependents of a failed node must not run");
        let f = counters.snapshot().faults;
        assert_eq!((f.injected, f.aborted), (1, 1));
    }

    #[test]
    fn skip_step_cancels_the_graph_but_reports_skipped() {
        let (mut s, _) = sched_on(1);
        let counters = AnalysisCounters::new();
        let mut g = TaskGraph::new("t", counters.clone(), RecoveryPolicy::SkipStep);
        let ran_tail = Arc::new(AtomicBool::new(false));
        g.add_task(TaskKind::Kernel, "bad", Some(0), |_| Err(Error::Analysis("boom".into())));
        {
            let ran = ran_tail.clone();
            g.add_task(TaskKind::Publish, "tail", None, move |_| {
                ran.store(true, Ordering::Relaxed);
                Ok(())
            })
        };
        assert_eq!(s.run(g).unwrap(), DagOutcome::Skipped);
        assert!(!ran_tail.load(Ordering::Relaxed), "skipped steps drop their tail");
        let f = counters.snapshot().faults;
        assert_eq!((f.injected, f.skipped, f.aborted), (1, 1, 0));
    }

    #[test]
    fn retry_policy_reruns_only_the_failed_node() {
        let (mut s, _) = sched_on(1);
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
            g.add_task(TaskKind::Kernel, "flaky", Some(0), move |_| {
                if attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                    Err(Error::Analysis("flaky".into()))
                } else {
                    Ok(())
                }
            });
        }
        {
            let runs = sibling_runs.clone();
            g.add_task(TaskKind::Kernel, "solid", Some(0), move |_| {
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
}
