//! The runner of a step's nodes (DESIGN.md §13).
//!
//! [`DagScheduler::step`] opens one step of one back-end — every step of
//! every back-end: the engine runs a back-end that plans no nodes as one
//! node whose body calls `execute` — and hands its body a [`Step`]. The
//! body is plain sequential code: each [`Step::run`] executes one typed
//! node at once, on the calling thread, on the streams of the device the
//! node names, and returns the node's value. The method decides the
//! streams:
//!
//! * [`DagScheduler::in_order`] — the `lockstep` and `asynchronous`
//!   methods — gives a device its default stream as compute and copy
//!   stream;
//! * [`DagScheduler::new`] — the `dag` method — gives each device a
//!   compute and a copy stream of the scheduler's own, so kernels the
//!   planner placed on different devices run side by side and a device's
//!   downloads overlap its kernels. Where each kernel runs is decided by
//!   the planner; the runner never moves work.
//!
//! The back-end's recovery policy applies **per node**, through the one
//! function that applies a policy (`recovery::recover`): `Retry` re-runs
//! just the failed node, `SkipStep` makes `run` return [`Halt::Skipped`]
//! and `Abort` [`Halt::Failed`], which the body passes on with `?`. A
//! retry therefore never re-enters a collective node that already
//! completed, which another rank may have left.
//!
//! [`SchedulerCounters`] count the nodes a `dag` scheduler ran; the
//! in-order scheduler records nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use devsim::{Event, SimNode, Stream};

use crate::counters::AnalysisCounters;
use crate::dag::{DeviceStreams, TaskCtx, TaskKind};
use crate::error::{Error, Result};
use crate::recovery::{recover, RecoveryPolicy};

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
    /// Nodes run (all kinds; a retried node counts once).
    pub tasks: u64,
    /// Always 0: the runner never moves a node. Kept for the benchmark's
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

/// How one node ended under the back-end's recovery policy (errors are
/// reported through `Result` instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagOutcome {
    /// The node ran, perhaps after retries.
    Completed,
    /// The node failed under `SkipStep`: the step is dropped, and its
    /// outputs with it.
    Skipped,
}

/// Why a step's body stopped before its end: what [`Step::run`] returns
/// when a node does not complete, passed on with `?`.
#[derive(Debug)]
pub enum Halt {
    /// A node failed under `SkipStep`: [`DagScheduler::step`] reports the
    /// step skipped, not failed.
    Skipped,
    /// A node failed for good, or the body's own code did.
    Failed(Error),
}

impl From<Error> for Halt {
    fn from(e: Error) -> Self {
        Halt::Failed(e)
    }
}

/// The node runner of one engine (see the module docs).
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

    /// Run one step of back-end `backend`: `body` runs its nodes through
    /// [`Step::run`], under `policy`, each node's recovery outcomes
    /// recorded on `counters` (the back-end's own fault counters). The
    /// streams are quiesced when the body returns, whatever it returns.
    /// `Some` of the body's value when it completed, `None` when a node
    /// skipped the step.
    pub fn step<T>(
        &mut self,
        backend: &str,
        counters: &AnalysisCounters,
        policy: RecoveryPolicy,
        body: impl FnOnce(&mut Step<'_>) -> std::result::Result<T, Halt>,
    ) -> Result<Option<T>> {
        let mut step = Step { sched: self, backend, counters, policy, in_flight: false };
        let outcome = match body(&mut step) {
            Ok(value) => Ok(Some(value)),
            Err(Halt::Skipped) => Ok(None),
            Err(Halt::Failed(e)) => Err(e),
        };
        let in_flight = step.in_flight;
        self.quiesce(outcome, in_flight)
    }

    /// Drain every provisioned stream after a step ended with `outcome`. A
    /// stream is synchronized only if it is busy and the step may still
    /// have work on it (`in_flight`: the default stream an in-order step
    /// shares with the solver is often busy with the solver's work alone);
    /// otherwise it is queried, which takes its sticky error all the same
    /// without blocking. A failed step keeps its own error and a skipped
    /// step drops whatever its nodes left on the streams; a completed step
    /// fails with the first sticky stream error.
    fn quiesce<T>(&self, outcome: Result<Option<T>>, in_flight: bool) -> Result<Option<T>> {
        let drained = match in_flight {
            true => self.drain(|stream| match stream.is_idle() {
                true => stream.query().map(drop),
                false => stream.synchronize(),
            }),
            false => self.drain(|stream| stream.query().map(drop)),
        };
        match outcome {
            Ok(Some(value)) => drained.map(|()| Some(value)),
            other => other,
        }
    }
}

/// One open step of [`DagScheduler::step`]: runs its nodes as they come.
pub struct Step<'a> {
    sched: &'a mut DagScheduler,
    backend: &'a str,
    counters: &'a AnalysisCounters,
    policy: RecoveryPolicy,
    /// A device node ran since the streams were last synchronized.
    in_flight: bool,
}

impl Step<'_> {
    /// Run one node now, on `device`'s streams or on the host (`None`),
    /// under the step's recovery policy, and return what its body
    /// returned. A node waiting on `waits` first waits: for the events, on
    /// the scheduler's own streams, which carry nothing else; by
    /// synchronizing, on default streams, which the solver shares — a
    /// failure then surfaces as the stream's sticky error, and the step's
    /// closing drain need not wait for the solver's work. `label` names
    /// the node in the error of exhausted retries, and is built only then.
    /// Under `Retry` the body must be safe to re-run from scratch.
    pub fn run<R>(
        &mut self,
        kind: TaskKind,
        label: impl FnOnce() -> String,
        device: Option<usize>,
        waits: &[Event],
        mut body: impl FnMut(&TaskCtx) -> Result<R>,
    ) -> std::result::Result<R, Halt> {
        let Step { sched, backend, counters, policy, in_flight } = self;
        let mut ready = device.map_or(Ok(()), |d| sched.ensure_streams(d));
        if ready.is_ok() && !waits.is_empty() {
            match sched.counters {
                Some(_) => waits.iter().for_each(Event::wait),
                None => {
                    ready = sched.drain(Stream::synchronize);
                    *in_flight = false;
                }
            }
        }
        *in_flight |= device.is_some();
        let label = || format!("{backend}/{}:{}", kind.name(), label());
        let ctx = TaskCtx { device, streams: &sched.device_streams };
        let mut value = None;
        let attempt = || body(&ctx).map(|v| value = Some(v));
        let result = ready.and_then(|()| recover(*policy, counters, label, attempt));
        if let Some(c) = &sched.counters {
            c.tasks.fetch_add(1, Ordering::Relaxed);
        }
        match result? {
            DagOutcome::Completed => Ok(value.expect("a completed node returned its value")),
            DagOutcome::Skipped => Err(Halt::Skipped),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devsim::{KernelCost, NodeConfig};
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::time::Duration;

    /// A `dag` scheduler on a node of `devices` devices, and its counters.
    fn sched_on(devices: usize) -> (DagScheduler, Arc<SchedulerCounters>) {
        let node = SimNode::new(NodeConfig::fast_test(devices.max(1)));
        let counters = SchedulerCounters::new();
        (DagScheduler::new(node, counters.clone()), counters)
    }

    /// One step of `s` under `policy`, recording on `counters`.
    fn step_with<T>(
        s: &mut DagScheduler,
        counters: &AnalysisCounters,
        policy: RecoveryPolicy,
        body: impl FnOnce(&mut Step<'_>) -> std::result::Result<T, Halt>,
    ) -> Result<Option<T>> {
        s.step("t", counters, policy, body)
    }

    /// One step of `s` under `Abort`.
    fn step<T>(
        s: &mut DagScheduler,
        body: impl FnOnce(&mut Step<'_>) -> std::result::Result<T, Halt>,
    ) -> Result<Option<T>> {
        step_with(s, &AnalysisCounters::default(), RecoveryPolicy::Abort, body)
    }

    fn label() -> String {
        "n".into()
    }

    #[test]
    fn empty_graph_completes_immediately() {
        let (mut s, counters) = sched_on(1);
        assert_eq!(step(&mut s, |_| Ok(())).unwrap(), Some(()));
        assert_eq!(counters.snapshot(), SchedulerSnapshot::default());
    }

    #[test]
    fn dependency_order_is_respected_across_sites() {
        // Nodes run in the order the body reaches them, whichever device —
        // or the host — each names, and hand their values on.
        let (mut s, counters) = sched_on(2);
        let order = step(&mut s, |s| {
            let mut order = Vec::new();
            for (v, device) in [None, Some(1), Some(0), None].into_iter().enumerate() {
                order.push(
                    s.run(TaskKind::Kernel, label, device, &[], |ctx| Ok((v, ctx.device())))?,
                );
            }
            Ok(order)
        });
        assert_eq!(order.unwrap().unwrap(), [(0, None), (1, Some(1)), (2, Some(0)), (3, None)]);
        assert_eq!(counters.snapshot(), SchedulerSnapshot { tasks: 4, steals: 0 });
    }

    #[test]
    fn device_tasks_run_on_private_streams_per_device() {
        // Under `dag` each named device has a private compute and copy
        // stream, kept across steps; a host node sees no device.
        let (mut s, _) = sched_on(2);
        let mut seen = Vec::new();
        for _ in 0..2 {
            let ran = step(&mut s, |s| {
                for device in [Some(0), Some(1), None] {
                    let ids = s.run(TaskKind::Kernel, label, device, &[], |ctx| {
                        Ok(ctx.device().map(|d| {
                            let (compute, copy) =
                                (ctx.stream().unwrap(), ctx.copy_stream(d).unwrap());
                            assert_eq!((compute.device(), copy.device()), (d, d));
                            (compute.id(), copy.id())
                        }))
                    })?;
                    seen.push((device, ids));
                }
                Ok(())
            });
            assert_eq!(ran.unwrap(), Some(()));
        }
        assert_eq!(seen[..3], seen[3..], "the streams are reused across steps");
        let default0 = s.node.device(0).unwrap().default_stream().id();
        let [(Some(0), Some((c0, p0))), (Some(1), Some((c1, p1))), (None, None)] = seen[..3] else {
            panic!("unexpected contexts {seen:?}");
        };
        let ids = [c0, p0, c1, p1, default0];
        assert!(ids.iter().enumerate().all(|(i, a)| ids[i + 1..].iter().all(|b| a != b)));
    }

    #[test]
    fn host_tasks_run_on_host_workers() {
        // The host's one worker is the thread that runs the step.
        let (mut s, counters) = sched_on(1);
        let caller = std::thread::current().id();
        let ok = step(&mut s, |s| {
            s.run(TaskKind::Kernel, label, None, &[], |ctx| {
                let no_device = ctx.device().is_none() && ctx.stream().is_none();
                Ok(no_device && std::thread::current().id() == caller)
            })
        });
        assert_eq!(ok.unwrap(), Some(true), "host node must see no owned device");
        assert_eq!(counters.snapshot(), SchedulerSnapshot { tasks: 1, steals: 0 });
    }

    #[test]
    fn event_gates_hold_tasks_until_signaled() {
        let (mut s, _) = sched_on(1);
        let gate = Event::new();
        let fired = step(&mut s, |s| {
            s.run(TaskKind::Kernel, label, Some(0), &[], |ctx| {
                let stream = ctx.stream().expect("a device stream");
                let slow = |_: &_| {
                    std::thread::sleep(Duration::from_millis(2));
                    Ok(())
                };
                stream.launch("slow", KernelCost::ZERO, slow).map_err(Error::Device)?;
                stream.record(&gate).map_err(Error::Device)
            })?;
            s.run(TaskKind::Reduce, label, None, std::slice::from_ref(&gate), |_| {
                assert!(gate.is_signaled(), "gate must be signaled before the node runs");
                Ok(true)
            })
        });
        assert_eq!(fired.unwrap(), Some(true));
    }

    #[test]
    fn an_in_order_device_graph_synchronizes_once_per_run() {
        // The node waiting on an event synchronizes the default stream it
        // waits behind; the closing drain only queries it, although a
        // solver sharing the stream keeps it busy until the step has
        // returned.
        let node = SimNode::new(NodeConfig::fast_test(1));
        let mut s = DagScheduler::in_order(node.clone());
        let solver = node.device(0).unwrap().default_stream();
        for run in 0..3 {
            let landed = Event::new();
            let (release, held) = std::sync::mpsc::channel::<()>();
            let mut held = Some(held);
            let before = node.stats().stream_syncs;
            let ran = step(&mut s, |s| {
                s.run(TaskKind::Kernel, label, Some(0), &[], |ctx| {
                    let stream = ctx.stream().expect("a device stream");
                    stream.launch("k", KernelCost::ZERO, |_| Ok(())).map_err(Error::Device)?;
                    stream.record(&landed).map_err(Error::Device)
                })?;
                s.run(TaskKind::Reduce, label, None, std::slice::from_ref(&landed), |_| {
                    let held = held.take().expect("the reduce runs once");
                    // Bounded, so a drain that waits for it fails, not hangs.
                    let busy = move |_: &_| {
                        let _released = held.recv_timeout(Duration::from_secs(2));
                        Ok(())
                    };
                    solver.launch("solver", KernelCost::ZERO, busy).map_err(Error::Device)
                })
            });
            assert_eq!(ran.unwrap(), Some(()));
            assert!(!solver.is_idle(), "run {run}: the solver's kernel is still running");
            assert_eq!(node.stats().stream_syncs - before, 1, "run {run}");
            drop(release);
        }
    }

    #[test]
    fn a_sticky_error_on_an_idle_stream_fails_a_completed_run() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let mut s = DagScheduler::in_order(node.clone());
        let before = node.stats().stream_syncs;
        let err = step(&mut s, |s| {
            s.run(TaskKind::Kernel, label, Some(0), &[], |ctx| {
                let stream = ctx.stream().expect("a device stream");
                let fail = |_: &_| Err(devsim::Error::FaultInjected { site: "kernel".into() });
                stream.launch("k", KernelCost::ZERO, fail).map_err(Error::Device)?;
                // Leave the stream idle, its error sticky, for the closing drain.
                while !stream.is_idle() {
                    std::thread::yield_now();
                }
                Ok(())
            })
        })
        .unwrap_err();
        assert!(matches!(err, Error::Device(devsim::Error::FaultInjected { .. })), "{err:?}");
        assert_eq!(node.stats().stream_syncs, before, "an idle stream is queried, not synced");
        // The query took the error: the next step completes.
        let ran = step(&mut s, |s| s.run(TaskKind::Kernel, label, Some(0), &[], |_| Ok(())));
        assert_eq!(ran.unwrap(), Some(()));
    }

    /// A step whose device node fails once, followed by a publish node
    /// recording that it ran: what the step returned, and whether the
    /// publish node ran.
    fn failing_then_tail(
        policy: RecoveryPolicy,
        counters: &AnalysisCounters,
    ) -> (Result<Option<()>>, bool) {
        let (mut s, _) = sched_on(1);
        let ran_tail = AtomicBool::new(false);
        let out = step_with(&mut s, counters, policy, |s| {
            s.run(TaskKind::Kernel, label, Some(0), &[], |_| {
                Err::<(), _>(Error::Analysis("boom".into()))
            })?;
            s.run(TaskKind::Publish, label, None, &[], |_| {
                ran_tail.store(true, Ordering::Relaxed);
                Ok(())
            })
        });
        (out, ran_tail.load(Ordering::Relaxed))
    }

    #[test]
    fn abort_policy_fails_the_run_and_cancels_the_tail() {
        let counters = AnalysisCounters::default();
        let (out, ran_tail) = failing_then_tail(RecoveryPolicy::Abort, &counters);
        assert!(out.is_err());
        assert!(!ran_tail, "dependents of a failed node must not run");
        let f = counters.snapshot().faults;
        assert_eq!((f.injected, f.aborted), (1, 1));
    }

    #[test]
    fn skip_step_cancels_the_graph_but_reports_skipped() {
        let counters = AnalysisCounters::default();
        let (out, ran_tail) = failing_then_tail(RecoveryPolicy::SkipStep, &counters);
        assert_eq!(out.unwrap(), None);
        assert!(!ran_tail, "skipped steps drop their tail");
        let f = counters.snapshot().faults;
        assert_eq!((f.injected, f.skipped, f.aborted), (1, 1, 0));
    }

    #[test]
    fn retry_policy_reruns_only_the_failed_node() {
        let (mut s, _) = sched_on(1);
        let counters = AnalysisCounters::default();
        let policy = RecoveryPolicy::Retry { max_retries: 3, backoff_ms: 0 };
        let attempts = AtomicU32::new(0);
        let sibling_runs = AtomicU32::new(0);
        let out = step_with(&mut s, &counters, policy, |s| {
            s.run(TaskKind::Kernel, label, Some(0), &[], |_| {
                match attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                    true => Err(Error::Analysis("flaky".into())),
                    false => Ok(()),
                }
            })?;
            s.run(TaskKind::Kernel, label, Some(0), &[], |_| {
                sibling_runs.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
        });
        assert_eq!(out.unwrap(), Some(()));
        assert_eq!(attempts.load(Ordering::Relaxed), 3, "two failures + the recovery");
        assert_eq!(sibling_runs.load(Ordering::Relaxed), 1, "siblings run exactly once");
        let f = counters.snapshot().faults;
        assert_eq!((f.injected, f.retried, f.recovered), (1, 2, 1));
    }
}
