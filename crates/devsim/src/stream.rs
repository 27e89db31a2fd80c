//! Streams: in-order, asynchronous command queues.
//!
//! A [`Stream`] mirrors a CUDA/HIP stream: commands (kernels, copies,
//! event records/waits) execute strictly in submission order, but
//! asynchronously with respect to the submitting thread. Each stream owns
//! a worker thread; kernels additionally contend for their device's
//! concurrent-kernel slots, so two streams on one device serialize when
//! the device is saturated while streams on different devices overlap
//! freely — the behaviour the paper's placement study depends on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::mpsc::{channel, Sender};

use parking_lot::{Condvar, Mutex};

use crate::device::DeviceCore;
use crate::error::{Error, Result};
use crate::event::Event;
use crate::fault::{self, FaultInjector};
use crate::memory::{CellBuffer, Fill, KernelScope, MemSpace, Version};
use crate::stats::NodeStats;
use crate::timemodel::{self, KernelCost, LinkParams};

type Cmd = Box<dyn FnOnce(&WorkerCtx, &mut Duration) + Send>;

/// Modeled remainders below this floor are not slept inline (the OS
/// overshoot would dwarf them); they accumulate in the stream's deficit
/// and are slept in one batch when the queue drains, preserving total
/// modeled time without per-operation overshoot.
const SLEEP_FLOOR: Duration = Duration::from_millis(1);

/// Sleep `remaining` now if it is large enough to be slept accurately,
/// otherwise defer it to the stream's deficit.
fn sleep_or_defer(remaining: Duration, deficit: &mut Duration) {
    if remaining >= SLEEP_FLOOR {
        std::thread::sleep(remaining);
    } else {
        *deficit += remaining;
    }
}

pub(crate) struct WorkerCtx {
    device: Option<Arc<DeviceCore>>,
    stats: Arc<NodeStats>,
    link: LinkParams,
    time_scale: f64,
}

/// Execution half of a transfer that copied `bytes` from `src` into `dst`
/// starting at `t0`: hold the stream for the modeled link time and count
/// the traffic by direction (h2d / d2h / d2d / h2h, from the buffers'
/// spaces).
fn charge_transfer(
    ctx: &WorkerCtx,
    deficit: &mut Duration,
    src: &CellBuffer,
    dst: &CellBuffer,
    bytes: usize,
    t0: Instant,
) {
    let host_involved = src.space() == MemSpace::Host || dst.space() == MemSpace::Host;
    let duration = timemodel::transfer_duration(bytes, host_involved, &ctx.link, ctx.time_scale);
    let elapsed = t0.elapsed();
    if duration > elapsed {
        sleep_or_defer(duration - elapsed, deficit);
    }
    // Unified memory is homed on a device; count it as device-side.
    let is_host = |s: MemSpace| s == MemSpace::Host;
    match (is_host(src.space()), is_host(dst.space())) {
        (true, true) => NodeStats::bump(&ctx.stats.copies_h2h),
        (true, false) => {
            NodeStats::bump(&ctx.stats.copies_h2d);
            NodeStats::add(&ctx.stats.bytes_h2d, bytes as u64);
        }
        (false, true) => {
            NodeStats::bump(&ctx.stats.copies_d2h);
            NodeStats::add(&ctx.stats.bytes_d2h, bytes as u64);
        }
        (false, false) => {
            NodeStats::bump(&ctx.stats.copies_d2d);
            NodeStats::add(&ctx.stats.bytes_d2d, bytes as u64);
        }
    }
}

/// Monotone progress counters of one stream, shared with the memory pool.
///
/// `submitted` counts commands ever enqueued; `completed` counts commands
/// whose closure has returned (and therefore dropped its buffer clones).
/// A buffer freed after being used on the stream is safe to hand to
/// *other* streams once `completed` reaches the `submitted` watermark
/// observed at free time — the pool's stand-in for recording an event on
/// the last-use stream and waiting for it, as `cudaMallocAsync` pools do.
pub(crate) struct StreamTimeline {
    submitted: AtomicU64,
    completed: AtomicU64,
}

impl StreamTimeline {
    pub(crate) fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Acquire)
    }

    pub(crate) fn completed(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
    }
}

/// Process-wide stream id allocator (ids are never reused).
static NEXT_STREAM_ID: AtomicU64 = AtomicU64::new(0);

struct Shared {
    pending: Mutex<u64>,
    idle: Condvar,
    /// First asynchronous failure (sticky until the next synchronize).
    error: Mutex<Option<Error>>,
}

/// An in-order asynchronous command queue bound to one device.
///
/// Streams are created by [`crate::Device::create_stream`]; they are cheap
/// to share behind an `Arc` and safe to submit to from any thread
/// (submissions from one thread retain their order).
pub struct Stream {
    id: u64,
    device_id: usize,
    stats: Arc<NodeStats>,
    tx: Sender<Cmd>,
    shared: Arc<Shared>,
    timeline: Arc<StreamTimeline>,
    fault: Arc<FaultInjector>,
}

impl Stream {
    pub(crate) fn spawn(
        device: Arc<DeviceCore>,
        stats: Arc<NodeStats>,
        fault: Arc<FaultInjector>,
        link: LinkParams,
        time_scale: f64,
    ) -> Arc<Stream> {
        let (tx, rx) = channel::<Cmd>();
        let shared = Arc::new(Shared {
            pending: Mutex::new(0),
            idle: Condvar::new(),
            error: Mutex::new(None),
        });
        let timeline =
            Arc::new(StreamTimeline { submitted: AtomicU64::new(0), completed: AtomicU64::new(0) });
        let id = NEXT_STREAM_ID.fetch_add(1, Ordering::Relaxed);
        let device_id = device.id;
        let ctx = WorkerCtx { device: Some(device), stats: stats.clone(), link, time_scale };
        let worker_shared = shared.clone();
        let worker_timeline = timeline.clone();
        std::thread::Builder::new()
            .name(format!("devsim-stream-d{device_id}"))
            .spawn(move || {
                let mut deficit = Duration::ZERO;
                while let Ok(cmd) = rx.recv() {
                    cmd(&ctx, &mut deficit);
                    // The command's closure (and its buffer clones) is gone;
                    // advance the completion watermark the pool reclaims on.
                    worker_timeline.completed.fetch_add(1, Ordering::Release);
                    let mut p = worker_shared.pending.lock();
                    // Flush deferred modeled time before reporting idle.
                    // `pending` counts submitted-but-unfinished commands,
                    // so 1 here means this was the last queued command.
                    if *p == 1 && !deficit.is_zero() {
                        drop(p);
                        std::thread::sleep(deficit);
                        deficit = Duration::ZERO;
                        p = worker_shared.pending.lock();
                    }
                    *p -= 1;
                    if *p == 0 {
                        worker_shared.idle.notify_all();
                    }
                }
            })
            .expect("spawn stream worker");
        Arc::new(Stream { id, device_id, stats, tx, shared, timeline, fault })
    }

    /// The device this stream issues to.
    pub fn device(&self) -> usize {
        self.device_id
    }

    /// Process-unique id of this stream (never reused).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of commands ever submitted (diagnostic).
    pub fn submitted(&self) -> u64 {
        self.timeline.submitted()
    }

    /// The (id, timeline) pair the pool uses to track last-use ordering.
    pub(crate) fn use_token(&self) -> (u64, Arc<StreamTimeline>) {
        (self.id, self.timeline.clone())
    }

    fn enqueue(&self, cmd: Cmd) -> Result<()> {
        *self.shared.pending.lock() += 1;
        self.timeline.submitted.fetch_add(1, Ordering::Release);
        self.tx.send(cmd).map_err(|_| {
            // Undo the pending count if the worker is gone.
            *self.shared.pending.lock() -= 1;
            Error::StreamClosed
        })
    }

    /// Launch a kernel: enqueue `body` to run on the device, occupying a
    /// device slot for at least the modeled duration of `cost`.
    ///
    /// `body` receives a [`KernelScope`] with which it creates device-side
    /// views of buffers. Errors returned by `body` (and panics inside it)
    /// are captured and surface from the next [`Stream::synchronize`].
    pub fn launch<F>(&self, name: &str, cost: KernelCost, body: F) -> Result<()>
    where
        F: FnOnce(&KernelScope) -> KernelResult + Send + 'static,
    {
        // Injected launch failures surface at submission, like a failed
        // `cudaLaunchKernel` return code (not an async stream error).
        self.fault.check(fault::site::STREAM_LAUNCH)?;
        let shared = self.shared.clone();
        let name = name.to_string();
        let stream_use = self.use_token();
        self.enqueue(Box::new(move |ctx, deficit| {
            let dev = ctx.device.as_ref().expect("kernel launched on a device stream");
            let duration = timemodel::kernel_duration(cost, &dev.params, ctx.time_scale);
            dev.slots.with(|| {
                let t0 = Instant::now();
                let scope = KernelScope { device: dev.id, stream: Some(stream_use) };
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&scope)));
                let elapsed = t0.elapsed();
                if duration > elapsed {
                    // Long kernels sleep while holding the slot (they are
                    // the contention carriers); short remainders defer.
                    sleep_or_defer(duration - elapsed, deficit);
                }
                match outcome {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        let mut err = shared.error.lock();
                        err.get_or_insert(e);
                    }
                    Err(_) => {
                        // A panicking kernel poisons the stream with a
                        // generic error; the panic message went to stderr.
                        let mut err = shared.error.lock();
                        err.get_or_insert(Error::StreamClosed);
                        eprintln!("devsim: kernel '{name}' panicked on device {}", dev.id);
                    }
                }
            });
            NodeStats::bump(&ctx.stats.kernels_launched);
        }))
    }

    /// Enqueue an ordered copy of all cells from `src` to `dst`.
    ///
    /// Direction (h2d / d2h / d2d / h2h) is derived from the buffers'
    /// memory spaces; the transfer holds the stream for the modeled link
    /// time. Lengths must match (checked at submission).
    pub fn copy(&self, src: &CellBuffer, dst: &CellBuffer) -> Result<()> {
        if src.len() != dst.len() {
            return Err(Error::CopyLengthMismatch { src: src.len(), dst: dst.len() });
        }
        let (src, dst) = self.transfer_ends(src, dst)?;
        let shared = self.shared.clone();
        self.enqueue(Box::new(move |ctx, deficit| {
            let t0 = Instant::now();
            match dst.copy_cells_from(&src) {
                Ok(()) => charge_transfer(ctx, deficit, &src, &dst, src.len() * 8, t0),
                Err(e) => drop(shared.error.lock().get_or_insert(e)),
            }
        }))
    }

    /// Enqueue an ordered copy of the leading cells of `src` its first
    /// cell counts — that cell included, as a `u64` — into `dst`.
    ///
    /// The count is read **when the copy executes**, after everything
    /// queued on this stream before it: a kernel ahead of it in the stream
    /// writes how much of a worst-case-sized block it filled, and only that
    /// much crosses the link and is charged. On a real GPU this is the
    /// kernel writing into mapped pinned host memory; a copy sized on the
    /// host would need the count read back first, one more round trip.
    ///
    /// A count of zero or one beyond either buffer is an asynchronous
    /// [`Error::CopyCountOutOfRange`], reported by the next
    /// [`Stream::synchronize`]; nothing is copied.
    pub fn copy_counted(&self, src: &CellBuffer, dst: &CellBuffer) -> Result<()> {
        let (src, dst) = self.transfer_ends(src, dst)?;
        let shared = self.shared.clone();
        self.enqueue(Box::new(move |ctx, deficit| {
            let t0 = Instant::now();
            match dst.copy_counted_from(&src) {
                Ok(n) => charge_transfer(ctx, deficit, &src, &dst, n * 8, t0),
                Err(e) => drop(shared.error.lock().get_or_insert(e)),
            }
        }))
    }

    /// Enqueue the fill of `replica`, a version of `src` in another
    /// space. When the command executes — after everything queued on this
    /// stream before it — it copies only if the replica does not already
    /// hold the contents `src` reads then ([`Version::fill_from`]), counts
    /// a hit or a refresh (the first move counts as neither), and signals
    /// the version ready.
    pub(crate) fn fill(&self, src: &CellBuffer, replica: &Arc<Version>) -> Result<()> {
        // The queued command holds the block, so nothing refills or
        // evicts it before this fill has run.
        let (src, dst) = self.transfer_ends(src, replica.block())?;
        let replica = replica.clone();
        let shared = self.shared.clone();
        self.enqueue(Box::new(move |ctx, deficit| {
            let t0 = Instant::now();
            match replica.fill_from(&src) {
                Ok(Fill::Hit) => NodeStats::bump(&ctx.stats.replica_hits),
                Ok(fill) => {
                    if fill == Fill::Refresh {
                        NodeStats::bump(&ctx.stats.replica_refreshes);
                    }
                    charge_transfer(ctx, deficit, &src, &dst, src.len() * 8, t0);
                }
                Err(e) => drop(shared.error.lock().get_or_insert(e)),
            }
            // Let go of the block first: whoever the signal wakes may
            // find the replica unheld.
            drop(dst);
            replica.fill_done();
        }))
    }

    /// Submission half of a transfer: the injected-fault check, and both
    /// endpoints tagged as used by this stream — their pooled blocks must
    /// not be handed to another stream until the transfer has completed.
    fn transfer_ends(
        &self,
        src: &CellBuffer,
        dst: &CellBuffer,
    ) -> Result<(CellBuffer, CellBuffer)> {
        self.fault.check(fault::site::STREAM_COPY)?;
        let (sid, timeline) = self.use_token();
        src.note_stream_use(sid, &timeline);
        dst.note_stream_use(sid, &timeline);
        Ok((src.clone(), dst.clone()))
    }

    /// Block the calling thread until every command submitted to this
    /// stream so far has executed. Unlike [`Stream::synchronize`] it does
    /// not wait for later submissions and leaves a sticky error in place.
    pub(crate) fn reach(&self) -> Result<()> {
        if !self.is_idle() {
            let here = Event::new();
            self.record(&here)?;
            here.wait();
        }
        Ok(())
    }

    /// Enqueue an event record: the event signals once every previously
    /// submitted command on this stream has completed.
    pub fn record(&self, event: &Event) -> Result<()> {
        let event = event.clone();
        self.enqueue(Box::new(move |_, deficit| {
            // Events order later work: deferred modeled time must elapse
            // before the event is visible.
            if !deficit.is_zero() {
                std::thread::sleep(*deficit);
                *deficit = Duration::ZERO;
            }
            event.signal()
        }))
    }

    /// Enqueue a wait: commands submitted after this one do not execute
    /// until `event` has been signaled (cross-stream ordering).
    pub fn wait_event(&self, event: &Event) -> Result<()> {
        let event = event.clone();
        self.enqueue(Box::new(move |_, _| event.wait()))
    }

    /// Block the calling thread until every submitted command has
    /// completed; returns (and clears) the first asynchronous error.
    pub fn synchronize(&self) -> Result<()> {
        NodeStats::bump(&self.stats.stream_syncs);
        let mut p = self.shared.pending.lock();
        while *p > 0 {
            self.shared.idle.wait(&mut p);
        }
        drop(p);
        match self.shared.error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// True when no submitted command is outstanding.
    pub fn is_idle(&self) -> bool {
        *self.shared.pending.lock() == 0
    }

    /// Non-blocking completion query, mirroring `cudaStreamQuery`:
    /// `Ok(true)` when every submitted command has completed, `Ok(false)`
    /// while work is still outstanding. A sticky asynchronous error is
    /// taken (and cleared) instead, exactly as [`Stream::synchronize`]
    /// would report it — pollers harvest stream failures without blocking.
    pub fn query(&self) -> Result<bool> {
        if let Some(e) = self.shared.error.lock().take() {
            return Err(e);
        }
        Ok(*self.shared.pending.lock() == 0)
    }
}

/// Result type kernels return; `Err` surfaces at the next synchronize.
pub type KernelResult = Result<()>;

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use crate::fault::{self, site, FaultConfig, FaultRule};
    use crate::{Error, KernelCost, NodeConfig, SimNode};

    /// A device block of `len` cells and a host block of `len` cells.
    fn blocks(node: &SimNode, len: usize) -> (crate::CellBuffer, crate::CellBuffer) {
        (node.device(0).unwrap().alloc_f64(len).unwrap(), node.host_alloc_f64(len))
    }

    #[test]
    fn a_counted_copy_charges_exactly_the_cells_it_copies() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let s = node.device(0).unwrap().create_stream();
        let (dev, host) = blocks(&node, 64);
        let src = node.host_alloc_f64(64);
        {
            let v = src.host_f64().unwrap();
            v.fill(7.0);
            v.store_words(0, [5u64].into_iter());
        }
        s.copy(&src, &dev).unwrap();
        s.synchronize().unwrap();
        let before = node.stats();
        s.copy_counted(&dev, &host).unwrap();
        s.synchronize().unwrap();
        let after = node.stats();
        assert_eq!(after.bytes_d2h - before.bytes_d2h, 5 * 8, "five cells crossed the link");
        assert_eq!(after.copies_d2h - before.copies_d2h, 1);
        let got = host.host_u64_ro().unwrap();
        assert_eq!(got[0], 5);
        assert_eq!(&got[1..5], &[7.0f64.to_bits(); 4]);
        assert!(got[5..].iter().all(|&w| w == 0), "nothing past the count is written");
    }

    #[test]
    fn the_count_is_read_after_the_kernel_ahead_of_the_copy() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let s = node.device(0).unwrap().create_stream();
        let (dev, host) = blocks(&node, 32);
        let block = dev.clone();
        // A slow kernel writes the header: a copy sized at submission
        // would see the zeroed block and copy nothing.
        s.launch("header", KernelCost::ZERO, move |scope| {
            std::thread::sleep(Duration::from_millis(20));
            let v = block.f64_view(scope)?;
            v.store_words(0, [3u64, 11, 12].into_iter());
            Ok(())
        })
        .unwrap();
        let before = node.stats();
        s.copy_counted(&dev, &host).unwrap();
        s.synchronize().unwrap();
        assert_eq!(node.stats().bytes_d2h - before.bytes_d2h, 3 * 8);
        assert_eq!(&host.host_u64_ro().unwrap()[..4], &[3, 11, 12, 0]);
    }

    #[test]
    fn a_count_beyond_either_buffer_is_a_typed_stream_error() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let s = node.device(0).unwrap().create_stream();
        let (dev, host) = blocks(&node, 16);
        let short = node.host_alloc_f64(8);
        let write_count = |count: u64| {
            let block = dev.clone();
            s.launch("header", KernelCost::ZERO, move |scope| {
                block.f64_view(scope)?.store_words(0, [count].into_iter());
                Ok(())
            })
            .unwrap();
        };
        let before = node.stats();
        for (count, dst) in [(17, &host), (12, &short), (0, &host)] {
            write_count(count);
            s.copy_counted(&dev, dst).unwrap();
            let err = s.synchronize().unwrap_err();
            let expect = Error::CopyCountOutOfRange { count, src: 16, dst: dst.len() };
            assert_eq!(err, expect);
        }
        assert_eq!(node.stats().bytes_d2h, before.bytes_d2h, "a refused copy moves nothing");
        // The error was taken by the synchronize: the stream goes on.
        write_count(16);
        s.copy_counted(&dev, &host).unwrap();
        s.synchronize().unwrap();
        assert_eq!(node.stats().bytes_d2h - before.bytes_d2h, 16 * 8);
        // An empty source has no count to read.
        let empty = node.device(0).unwrap().alloc_f64(0).unwrap();
        s.copy_counted(&empty, &host).unwrap();
        let err = s.synchronize().unwrap_err();
        assert_eq!(err, Error::CopyCountOutOfRange { count: 0, src: 0, dst: 16 });
    }

    #[test]
    fn an_injected_copy_fault_fires_on_a_counted_copy() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let s = node.device(0).unwrap().create_stream();
        let (dev, host) = blocks(&node, 4);
        node.fault()
            .configure(FaultConfig::seeded(1).with_rule(FaultRule::error(site::STREAM_COPY)));
        let armed = fault::arm(0);
        let err = s.copy_counted(&dev, &host).unwrap_err();
        drop(armed);
        assert!(matches!(err, Error::FaultInjected { ref site } if site == site::STREAM_COPY));
        node.fault().configure(FaultConfig::default());
        assert_eq!(node.stats().copies_d2h, 0, "the faulted copy was never enqueued");
    }
}
