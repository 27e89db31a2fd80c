//! Live result serving: fan one step's published results out to
//! thousands of subscribed steering sessions, zero-copy.
//!
//! The placement/execution machinery exists to get analysis results off
//! the simulation fast; this layer makes the pipeline an *interactive
//! service* (the ISAAC direction): N concurrent consumer sessions
//! subscribe to binned results by (variable × coordinate system), each
//! step's publication serializes the result **once** into a refcounted
//! [`StepPayload`], and every session receives an [`Arc`] view of it
//! through its own bounded queue — bytes serialized per step are
//! independent of the session count, which is the whole perf claim.
//!
//! Three pieces make that safe and non-serializing:
//!
//! * **CoW pin accounting.** The session pool registers as *one* extra
//!   consumer of the bridge's per-step snapshot
//!   ([`SnapshotAdaptor::expect_consumers`]); the hub wraps the snapshot
//!   in a [`StepPin`] whose last dropped [`Arc`] calls
//!   `consumer_finished` — so CoW pins drop exactly when the last
//!   session of a step lets go of its frame, and never earlier.
//! * **Bounded per-session queues.** Delivery reuses
//!   [`crate::queue`]'s overflow policies: `block` applies backpressure
//!   (an in-budget client never loses a frame), `drop_oldest` keeps
//!   slow viewers current at the cost of skipped frames, `error`
//!   rejects. Evictions and rejections are counted as dropped frames.
//! * **A sharded session registry.** Sessions hash into `N_SHARDS`
//!   independently-locked maps, and publication snapshots each shard's
//!   matching senders *before* sending, so subscribe/unsubscribe and a
//!   blocking delivery never serialize on one lock.
//!
//! Steering flows the other way: sessions submit [`SteeringCommand`]s
//! (resolution, analysis frequency, pause/resume), the bridge drains
//! them at the next step boundary, rank 0 decides and broadcasts, and
//! every rank applies the identical schedule through the existing
//! mid-run [`crate::Bridge::reconfigure_backend`] rebuild path — so a
//! steered run stays bit-identical to an unsteered run replaying the
//! same schedule.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::counters::{ServeCounters, ServeSnapshot};
use crate::payload::StepPayload;
use crate::queue::{bounded, BoundedReceiver, BoundedSender, OverflowPolicy, SendError};
use crate::snapshot::SnapshotAdaptor;

/// What one session subscribed to: a variable (column name, `*` for
/// all) within a coordinate system (the binning axes label).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Topic {
    /// Column name the session wants, or `"*"` for every variable.
    pub variable: String,
    /// Coordinate-system label (e.g. `"x:y"` for Cartesian binning).
    pub coords: String,
}

impl Topic {
    /// A topic for `variable` binned in `coords`.
    pub fn new(variable: impl Into<String>, coords: impl Into<String>) -> Self {
        Topic { variable: variable.into(), coords: coords.into() }
    }

    /// Does a payload published for `coords` with these columns match?
    fn matches(&self, coords: &str, payload: &StepPayload) -> bool {
        self.coords == coords
            && (self.variable == "*" || payload.columns.iter().any(|(n, _)| n == &self.variable))
    }
}

/// Holds the step's CoW snapshot pinned on behalf of the session pool.
/// The hub registers as one consumer of the bridge's snapshot; dropping
/// the last [`Arc<StepPin>`] — hub hand-off, queue eviction, or the
/// final session finishing its frame — releases that consumer slot, and
/// with it (once the engines are done too) the CoW pins.
pub struct StepPin {
    snap: Arc<SnapshotAdaptor>,
}

impl StepPin {
    /// The pinned snapshot (sessions may read the step's arrays through
    /// it zero-copy while the pin lives).
    pub fn adaptor(&self) -> &SnapshotAdaptor {
        &self.snap
    }
}

impl Drop for StepPin {
    fn drop(&mut self) {
        self.snap.consumer_finished();
    }
}

/// One delivered result view: a refcounted handle onto the step's
/// shared payload (never a copy) plus the pin keeping the step's CoW
/// snapshot alive while any session still holds the frame.
pub struct Frame {
    /// Topic this frame was matched under.
    pub topic: Topic,
    /// The step's shared serialized result — one allocation per
    /// (step × coordinate system), `Arc`-shared by every receiving
    /// session.
    pub payload: Arc<StepPayload>,
    /// CoW snapshot pin for the step, when the bridge captured one.
    pub pin: Option<Arc<StepPin>>,
    /// When the hub published the payload (delivery latency is measured
    /// against this at receive time).
    pub published: Instant,
}

impl Frame {
    /// Step the frame belongs to.
    pub fn step(&self) -> u64 {
        self.payload.step
    }
}

/// A steering command a session sends back to the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteeringCommand {
    /// Change the binning resolution (takes effect through the
    /// [`ServeKnobs`] the back-end factory reads at rebuild).
    SetResolution(usize),
    /// Change how often the analysis runs (every `n` steps).
    SetFrequency(u64),
    /// Stop dispatching the analysis until [`SteeringCommand::Resume`].
    Pause,
    /// Resume a paused analysis at its pre-pause frequency.
    Resume,
}

/// A steering command addressed to one attached back-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Steer {
    /// Back-end index (bridge attach order).
    pub backend: usize,
    /// What to change.
    pub command: SteeringCommand,
}

/// Shared knobs steering can turn that live outside [`crate::BackendControls`]
/// — the back-end factory reads them when the bridge rebuilds it, so a
/// [`SteeringCommand::SetResolution`] is: set the knob, rebuild.
#[derive(Debug, Default)]
pub struct ServeKnobs {
    resolution: AtomicUsize,
}

impl ServeKnobs {
    /// Current resolution override (0 until steering sets one).
    pub fn resolution(&self) -> usize {
        self.resolution.load(Ordering::Acquire)
    }

    /// Set the resolution override.
    pub fn set_resolution(&self, r: usize) {
        self.resolution.store(r, Ordering::Release);
    }
}

/// Per-session configuration: the delivery queue's depth and overflow
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Frames buffered per session before the overflow policy applies.
    pub queue_depth: usize,
    /// What publication does when this session's queue is full.
    pub overflow: OverflowPolicy,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { queue_depth: 4, overflow: OverflowPolicy::Block }
    }
}

/// `<serve>` run-time configuration (see [`crate::ConfigurableAnalysis`]):
/// how many sessions the traffic generator opens and how their queues
/// behave, plus whether steering commands are accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Sessions the harness traffic generator opens.
    pub sessions: usize,
    /// Per-session queue depth.
    pub queue_depth: usize,
    /// Per-session overflow policy.
    pub overflow: OverflowPolicy,
    /// Accept steering commands back from sessions.
    pub steering: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            sessions: 64,
            queue_depth: 4,
            overflow: OverflowPolicy::Block,
            steering: true,
        }
    }
}

/// What one `publish` did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Frames enqueued into session queues.
    pub delivered: u64,
    /// Frames lost: drop-oldest evictions plus error-policy rejections.
    pub dropped: u64,
    /// Bytes serialized for this publication (independent of sessions).
    pub payload_bytes: u64,
}

/// Aggregated per-step serving statistics (one `Profiler::serve_samples` entry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStepStats {
    /// Simulation step.
    pub step: u64,
    /// Sessions registered when the step published.
    pub sessions: u64,
    /// Frames delivered.
    pub delivered: u64,
    /// Frames dropped.
    pub dropped: u64,
    /// Median delivery latency (publish → receive), nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile delivery latency, nanoseconds.
    pub p99_ns: u64,
    /// Bytes serialized at publication (once, not per session).
    pub bytes_copied: u64,
}

struct Session {
    topic: Topic,
    tx: BoundedSender<Frame>,
}

#[derive(Default)]
struct Shard {
    sessions: Mutex<HashMap<u64, Session>>,
}

#[derive(Default)]
struct StepAccum {
    sessions: u64,
    delivered: u64,
    dropped: u64,
    bytes: u64,
    latencies_ns: Vec<u64>,
}

/// The fan-out hub: sharded session registry, per-step publication, and
/// the steering inbox. One per bridge (attach with
/// [`crate::Bridge::attach_serve`]); clones are cheap (`Arc` inside).
pub struct ServeHub {
    shards: Vec<Shard>,
    next_id: AtomicU64,
    session_count: AtomicUsize,
    counters: Arc<ServeCounters>,
    knobs: Arc<ServeKnobs>,
    /// The current step's pin; replaced each offer, so the hub itself
    /// never holds more than one step pinned.
    current_pin: Mutex<Option<Arc<StepPin>>>,
    steering_enabled: bool,
    steering: Mutex<Vec<Steer>>,
    /// Per-step delivery/drop/latency accumulators, drained at finalize.
    step_stats: Mutex<BTreeMap<u64, StepAccum>>,
}

/// Shards in the session registry. More than enough for the thread
/// counts the simulated clients use; the point is that two concurrent
/// subscribes (or a subscribe racing a publish snapshot of another
/// shard) don't contend.
const N_SHARDS: usize = 16;

impl ServeHub {
    /// A hub with the default shard count. `steering` gates whether
    /// session steering commands are accepted.
    pub fn new(steering: bool) -> Arc<Self> {
        Self::with_shards(steering, N_SHARDS)
    }

    /// A hub with an explicit shard count (tests use 1 to force
    /// contention, benches can oversize).
    pub fn with_shards(steering: bool, shards: usize) -> Arc<Self> {
        Arc::new(ServeHub {
            shards: (0..shards.max(1)).map(|_| Shard::default()).collect(),
            next_id: AtomicU64::new(0),
            session_count: AtomicUsize::new(0),
            counters: ServeCounters::new(),
            knobs: Arc::new(ServeKnobs::default()),
            current_pin: Mutex::new(None),
            steering_enabled: steering,
            steering: Mutex::new(Vec::new()),
            step_stats: Mutex::new(BTreeMap::new()),
        })
    }

    /// The hub's work counters.
    pub fn counters(&self) -> &Arc<ServeCounters> {
        &self.counters
    }

    /// A plain-value copy of the counter totals.
    pub fn counter_snapshot(&self) -> ServeSnapshot {
        self.counters.snapshot()
    }

    /// The steering knobs shared with back-end factories.
    pub fn knobs(&self) -> Arc<ServeKnobs> {
        self.knobs.clone()
    }

    /// Whether steering commands are accepted.
    pub fn steering_enabled(&self) -> bool {
        self.steering_enabled
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        self.session_count.load(Ordering::Acquire)
    }

    /// True when at least one session is subscribed (the bridge counts
    /// the pool as a snapshot consumer only then).
    pub fn has_sessions(&self) -> bool {
        self.session_count() > 0
    }

    fn shard_of(&self, id: u64) -> &Shard {
        &self.shards[(id as usize) % self.shards.len()]
    }

    /// Open a session subscribed to `topic`. The returned handle owns
    /// the receive side; dropping it unsubscribes.
    pub fn subscribe(self: &Arc<Self>, topic: Topic, config: SessionConfig) -> SessionHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(config.queue_depth, config.overflow);
        self.shard_of(id).sessions.lock().insert(id, Session { topic: topic.clone(), tx });
        self.session_count.fetch_add(1, Ordering::AcqRel);
        self.counters.add_subscribed(1);
        SessionHandle { hub: self.clone(), id, topic, rx, pending: Vec::new() }
    }

    /// Remove session `id` (idempotent: publish-side disconnect cleanup
    /// and handle drop may race; only the actual remover counts it).
    fn remove_session(&self, id: u64) {
        let removed = self.shard_of(id).sessions.lock().remove(&id).is_some();
        if removed {
            self.session_count.fetch_sub(1, Ordering::AcqRel);
            self.counters.add_unsubscribed(1);
        }
    }

    /// Take over pinning the step's snapshot: the bridge registered the
    /// session pool as one consumer; the hub now owes exactly one
    /// `consumer_finished`, paid when the last `Arc<StepPin>` drops
    /// (immediately, if no publication attaches it to a frame).
    pub fn offer_snapshot(&self, snap: &Arc<SnapshotAdaptor>) {
        *self.current_pin.lock() = Some(Arc::new(StepPin { snap: snap.clone() }));
    }

    /// Publish one coordinate system's step result to every matching
    /// session. Serializes nothing per session: the payload is wrapped
    /// in an `Arc` once and each delivery clones the handle. Senders are
    /// collected under the shard locks but sends happen *outside* them,
    /// so a `block`-policy session exerting backpressure stalls only the
    /// publisher, never subscribes on its shard.
    pub fn publish(&self, coords: &str, payload: StepPayload) -> PublishStats {
        let step = payload.step;
        let bytes = payload.bytes() as u64;
        let payload = Arc::new(payload);
        let pin = self.current_pin.lock().clone();
        let published = Instant::now();

        let mut matched: Vec<(u64, Topic, BoundedSender<Frame>)> = Vec::new();
        for shard in &self.shards {
            let sessions = shard.sessions.lock();
            for (id, s) in sessions.iter() {
                if s.topic.matches(coords, &payload) {
                    matched.push((*id, s.topic.clone(), s.tx.clone()));
                }
            }
        }

        let mut stats = PublishStats { payload_bytes: bytes, ..Default::default() };
        let mut dead = Vec::new();
        for (id, topic, tx) in matched {
            let frame = Frame { topic, payload: Arc::clone(&payload), pin: pin.clone(), published };
            match tx.send(frame) {
                Ok(ok) => {
                    stats.delivered += 1;
                    stats.dropped += ok.evicted;
                }
                Err(SendError::Full) => stats.dropped += 1,
                Err(SendError::Disconnected) | Err(SendError::Closed) => dead.push(id),
            }
        }
        for id in dead {
            self.remove_session(id);
        }

        self.counters.add_delivered(stats.delivered);
        self.counters.add_dropped(stats.dropped);
        self.counters.add_payload_bytes(bytes);

        let mut all = self.step_stats.lock();
        let acc = all.entry(step).or_default();
        acc.sessions = acc.sessions.max(self.session_count() as u64);
        acc.delivered += stats.delivered;
        acc.dropped += stats.dropped;
        acc.bytes += bytes;
        stats
    }

    /// Submit a steering command (no-op unless steering is enabled).
    pub fn submit_steer(&self, steer: Steer) {
        if self.steering_enabled {
            self.steering.lock().push(steer);
        }
    }

    /// Take the queued steering commands (the bridge drains this on
    /// rank 0 at each step boundary and broadcasts the result).
    pub fn drain_steering(&self) -> Vec<Steer> {
        std::mem::take(&mut *self.steering.lock())
    }

    /// Count `n` steering commands actually applied.
    pub fn note_steers_applied(&self, n: u64) {
        self.counters.add_steers(n);
    }

    /// Record a batch of client-side delivery latency samples
    /// (`(step, nanoseconds)`); session handles flush these as they
    /// receive.
    pub fn record_latencies(&self, samples: &[(u64, u64)]) {
        if samples.is_empty() {
            return;
        }
        let mut all = self.step_stats.lock();
        for &(step, ns) in samples {
            all.entry(step).or_default().latencies_ns.push(ns);
        }
    }

    /// Drain the per-step aggregates, computing latency percentiles.
    pub fn drain_step_stats(&self) -> Vec<ServeStepStats> {
        let all = std::mem::take(&mut *self.step_stats.lock());
        all.into_iter()
            .map(|(step, mut acc)| {
                acc.latencies_ns.sort_unstable();
                ServeStepStats {
                    step,
                    sessions: acc.sessions,
                    delivered: acc.delivered,
                    dropped: acc.dropped,
                    p50_ns: percentile(&acc.latencies_ns, 0.50),
                    p99_ns: percentile(&acc.latencies_ns, 0.99),
                    bytes_copied: acc.bytes,
                }
            })
            .collect()
    }

    /// Shut the hub down: close every session queue (clients drain what
    /// is buffered, then see end-of-stream) and drop the hub's pin on
    /// the final step.
    pub fn shutdown(&self) {
        for shard in &self.shards {
            let sessions = shard.sessions.lock();
            for s in sessions.values() {
                s.tx.close();
            }
        }
        *self.current_pin.lock() = None;
    }
}

/// `values` must be sorted ascending. Empty → 0.
fn percentile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let idx = ((values.len() - 1) as f64 * q).round() as usize;
    values[idx.min(values.len() - 1)]
}

/// A live client session: the receive side of one subscription plus the
/// steering path back. Dropping the handle unsubscribes (flushing any
/// buffered latency samples first).
pub struct SessionHandle {
    hub: Arc<ServeHub>,
    id: u64,
    topic: Topic,
    rx: BoundedReceiver<Frame>,
    /// Locally buffered latency samples, flushed in batches so receive
    /// loops don't take the hub lock per frame.
    pending: Vec<(u64, u64)>,
}

/// Latency samples buffered per handle before a flush.
const LATENCY_FLUSH: usize = 64;

impl SessionHandle {
    /// This session's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// What this session subscribed to.
    pub fn topic(&self) -> &Topic {
        &self.topic
    }

    /// Receive the next frame, blocking until one arrives; `None` once
    /// the hub has shut down and the queue is drained.
    pub fn recv(&mut self) -> Option<Frame> {
        let frame = self.rx.recv()?;
        self.note(&frame);
        Some(frame)
    }

    /// Receive without blocking: `None` when nothing is queued right
    /// now (use [`SessionHandle::is_closed`] to tell end-of-stream
    /// apart). Lets one client thread poll many sessions.
    pub fn try_recv(&mut self) -> Option<Frame> {
        let frame = self.rx.try_recv()?;
        self.note(&frame);
        Some(frame)
    }

    /// True once the hub shut down and every buffered frame was drained.
    pub fn is_closed(&self) -> bool {
        self.rx.is_closed()
    }

    /// Submit a steering command through this session.
    pub fn steer(&self, backend: usize, command: SteeringCommand) {
        self.hub.submit_steer(Steer { backend, command });
    }

    fn note(&mut self, frame: &Frame) {
        let ns = frame.published.elapsed().as_nanos() as u64;
        self.pending.push((frame.step(), ns));
        if self.pending.len() >= LATENCY_FLUSH {
            self.flush();
        }
    }

    /// Push buffered latency samples to the hub now.
    pub fn flush(&mut self) {
        self.hub.record_latencies(&self.pending);
        self.pending.clear();
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        self.flush();
        self.hub.remove_session(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(step: u64, cols: &[(&str, &[f64])]) -> StepPayload {
        StepPayload {
            step,
            time: step as f64 * 0.1,
            columns: cols.iter().map(|(n, v)| (n.to_string(), v.to_vec())).collect(),
        }
    }

    #[test]
    fn fan_out_matches_topics_and_shares_one_payload() {
        let hub = ServeHub::new(false);
        let mut density = hub.subscribe(Topic::new("density", "x:y"), SessionConfig::default());
        let mut any = hub.subscribe(Topic::new("*", "x:y"), SessionConfig::default());
        let mut other_coords =
            hub.subscribe(Topic::new("density", "r:z"), SessionConfig::default());
        assert_eq!(hub.session_count(), 3);

        let stats = hub.publish("x:y", payload(3, &[("density", &[1.0, 2.0])]));
        assert_eq!(stats.delivered, 2, "r:z session must not match");
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.payload_bytes, "density".len() as u64 + 16);

        let f1 = density.try_recv().expect("density frame");
        let f2 = any.try_recv().expect("wildcard frame");
        assert!(other_coords.try_recv().is_none());
        assert_eq!(f1.step(), 3);
        assert!(
            Arc::ptr_eq(&f1.payload, &f2.payload),
            "both sessions must view the same allocation"
        );
    }

    #[test]
    fn payload_bytes_are_counted_once_regardless_of_sessions() {
        for n in [1usize, 8, 64] {
            let hub = ServeHub::new(false);
            let _handles: Vec<SessionHandle> = (0..n)
                .map(|_| {
                    hub.subscribe(
                        Topic::new("*", "x:y"),
                        SessionConfig { queue_depth: 4, overflow: OverflowPolicy::DropOldest },
                    )
                })
                .collect();
            let stats = hub.publish("x:y", payload(0, &[("m", &[0.0; 100])]));
            assert_eq!(stats.delivered, n as u64);
            assert_eq!(stats.payload_bytes, 801, "bytes independent of {n} sessions");
            assert_eq!(hub.counter_snapshot().payload_bytes, 801);
        }
    }

    #[test]
    fn overflow_policies_count_drops() {
        let hub = ServeHub::with_shards(false, 1);
        let mut dropper = hub.subscribe(
            Topic::new("*", "x:y"),
            SessionConfig { queue_depth: 1, overflow: OverflowPolicy::DropOldest },
        );
        let _rejecter = hub.subscribe(
            Topic::new("*", "x:y"),
            SessionConfig { queue_depth: 1, overflow: OverflowPolicy::Error },
        );
        hub.publish("x:y", payload(0, &[("m", &[1.0])]));
        let stats = hub.publish("x:y", payload(1, &[("m", &[2.0])]));
        // Dropper evicted step 0; rejecter refused step 1.
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.dropped, 2);
        let freshest = dropper.try_recv().expect("kept newest");
        assert_eq!(freshest.step(), 1, "drop_oldest keeps the freshest frame");
        let s = hub.counter_snapshot();
        assert_eq!((s.delivered, s.dropped), (3, 2));
    }

    #[test]
    fn dropping_a_handle_unsubscribes_and_publish_reaps_dead_sessions() {
        let hub = ServeHub::new(false);
        let h1 = hub.subscribe(Topic::new("*", "x:y"), SessionConfig::default());
        drop(h1);
        assert_eq!(hub.session_count(), 0, "handle drop unsubscribes");

        // Simulate a client that died without unsubscribing: a registry
        // entry whose receive side is already gone.
        let (tx, rx) = bounded::<Frame>(1, OverflowPolicy::Block);
        drop(rx);
        hub.shard_of(99).sessions.lock().insert(99, Session { topic: Topic::new("*", "x:y"), tx });
        hub.session_count.fetch_add(1, Ordering::AcqRel);
        assert_eq!(hub.session_count(), 1, "dead entry still registered");

        let stats = hub.publish("x:y", payload(0, &[("m", &[1.0])]));
        assert_eq!(stats.delivered, 0);
        assert_eq!(hub.session_count(), 0, "publish reaped the dead session");
        assert_eq!(hub.counter_snapshot().unsubscribed, 2);
    }

    #[test]
    fn steering_queue_drains_once_and_respects_enable_flag() {
        let hub = ServeHub::new(true);
        let h = hub.subscribe(Topic::new("*", "x:y"), SessionConfig::default());
        h.steer(0, SteeringCommand::SetResolution(128));
        h.steer(1, SteeringCommand::Pause);
        let drained = hub.drain_steering();
        assert_eq!(
            drained,
            vec![
                Steer { backend: 0, command: SteeringCommand::SetResolution(128) },
                Steer { backend: 1, command: SteeringCommand::Pause },
            ]
        );
        assert!(hub.drain_steering().is_empty(), "drain takes, not copies");

        let disabled = ServeHub::new(false);
        let h2 = disabled.subscribe(Topic::new("*", "x:y"), SessionConfig::default());
        h2.steer(0, SteeringCommand::SetResolution(32));
        assert!(disabled.drain_steering().is_empty(), "steering disabled");
    }

    #[test]
    fn step_stats_aggregate_latency_percentiles() {
        let hub = ServeHub::new(false);
        let mut h = hub.subscribe(Topic::new("*", "x:y"), SessionConfig::default());
        hub.publish("x:y", payload(5, &[("m", &[1.0, 2.0])]));
        let _ = h.try_recv().expect("frame");
        h.flush();
        // Add a synthetic spread so the percentiles are distinguishable.
        hub.record_latencies(&(0..100).map(|i| (5u64, (i + 1) * 1000)).collect::<Vec<_>>());
        let stats = hub.drain_step_stats();
        assert_eq!(stats.len(), 1);
        let s = stats[0];
        assert_eq!(s.step, 5);
        assert_eq!(s.sessions, 1);
        assert_eq!(s.delivered, 1);
        assert!(s.p50_ns <= s.p99_ns);
        assert!(s.p99_ns >= 99_000, "p99 lands in the synthetic tail, got {}", s.p99_ns);
        assert!(hub.drain_step_stats().is_empty(), "drain takes");
    }

    #[test]
    fn shutdown_closes_sessions_after_draining() {
        let hub = ServeHub::new(false);
        let mut h = hub.subscribe(Topic::new("*", "x:y"), SessionConfig::default());
        hub.publish("x:y", payload(0, &[("m", &[1.0])]));
        hub.shutdown();
        assert!(!h.is_closed(), "buffered frame still pending");
        assert!(h.recv().is_some(), "buffered frame survives shutdown");
        assert!(h.recv().is_none(), "then end-of-stream");
        assert!(h.is_closed());
    }

    #[test]
    fn percentiles_on_small_samples() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 3);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.99), 4);
    }
}
