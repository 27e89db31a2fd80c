//! Memory spaces, buffers, and access views.
//!
//! All simulated memory is an array of 64-bit cells (`AtomicU64`). Using
//! atomic cells makes concurrent kernels on multi-slot devices race-safe
//! and gives kernels a faithful `atomicAdd` — the operation the paper
//! singles out as the reason data binning "is not an ideal algorithm for
//! GPUs". Typed access is by bit reinterpretation (`f64`/`u64`).
//!
//! The space discipline is enforced at the API level:
//!
//! * host code can obtain [`HostF64View`]/[`HostU64View`] only for buffers
//!   whose [`MemSpace`] is `Host`;
//! * kernels obtain [`F64View`]/[`U64View`] through a [`KernelScope`],
//!   which proves the code is running on a particular device and checks
//!   the buffer is resident there.
//!
//! Views come in two kinds, kept apart by the allocation's leases (the
//! `lease` module): write views share atomic cells, while read-only
//! views ([`ReadView`]) are plain slices — and a request for one kind
//! while the other is held fails with [`Error::Aliased`].
//!
//! Moving data between spaces requires a [`crate::Stream`] copy, exactly
//! like a real accelerator.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use crate::error::{Error, Result};
use crate::event::Event;
use crate::lease::{Leases, ReadLease, ReadView, SourceHold, Word, WriteLease};
use crate::stats::NodeStats;
use crate::stream::{Stream, StreamTimeline};

/// Where a buffer's cells live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Ordinary host memory: directly accessible by host code.
    Host,
    /// Memory of device `id`: accessible only from kernels on that device.
    Device(usize),
    /// Universally addressable (managed) memory homed on device `id`:
    /// accessible from host code and from kernels on *any* device, with
    /// migration handled by the runtime (`cudaMallocManaged`-style).
    Unified(usize),
}

impl MemSpace {
    /// The device id the memory is homed on, or `None` for host memory.
    pub fn device(&self) -> Option<usize> {
        match self {
            MemSpace::Host => None,
            MemSpace::Device(d) | MemSpace::Unified(d) => Some(*d),
        }
    }

    /// True when host code may access the cells directly.
    pub fn host_accessible(&self) -> bool {
        matches!(self, MemSpace::Host | MemSpace::Unified(_))
    }

    /// True when a kernel on `device` may access the cells directly.
    pub fn device_accessible(&self, device: usize) -> bool {
        match self {
            MemSpace::Host => false,
            MemSpace::Device(d) => *d == device,
            MemSpace::Unified(_) => true,
        }
    }
}

/// Lifecycle hook attached to an allocation. The last drop of the guard
/// (buffer clones *and* views share it) releases the allocation — back to
/// the caching pool, or straight to the device's capacity accounting.
///
/// `note_stream_use` records the stream a buffer was last touched by, so
/// the pool can defer reuse until that stream has drained past the use
/// (stream-ordered reclamation). Guards without stream semantics keep the
/// default no-op.
pub(crate) trait BufferGuard: Send + Sync {
    fn note_stream_use(&self, _stream_id: u64, _timeline: &Arc<StreamTimeline>) {}
}

/// Process-wide allocation identity allocator (ids are never reused), so
/// the snapshot layer can tell "same name, different allocation" apart
/// from "same allocation, unchanged contents".
static NEXT_ALLOC_ID: AtomicU64 = AtomicU64::new(0);

/// Counters a copy-on-write fault reports into: how many lazy fault
/// copies the write path performed on behalf of read-pinned snapshots,
/// and how many bytes they materialized. Shared by reference so the
/// memory layer stays decoupled from whoever aggregates the numbers.
#[derive(Debug, Default)]
pub struct PinStats {
    faults: AtomicU64,
    bytes: AtomicU64,
}

impl PinStats {
    /// Fresh, zeroed counters behind an `Arc` (the shape `cow_pinned` takes).
    pub fn new_shared() -> Arc<PinStats> {
        Arc::new(PinStats::default())
    }

    /// Number of copy-on-write faults (lazy pre-write copies) performed.
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Bytes materialized by those fault copies.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// [`Version::generation`] of a replica block no fill has landed in yet.
const UNFILLED: u64 = u64::MAX;
/// [`Version::generation`] of a replica block that holds no generation's
/// contents but stands in for one that did: it replaced a stale block
/// some view still reads, or a writer overlapped its last fill. Write
/// generations count views taken and never reach either sentinel.
const STALE: u64 = u64::MAX - 1;

/// What a replica fill did when it executed (see [`Version::fill_from`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fill {
    /// The block already held the source's current contents: no copy.
    Hit,
    /// First fill of the block: the move, whose result is kept.
    Move,
    /// The block (or the one it replaced) held older contents: re-copied.
    Refresh,
}

/// One copy of an allocation's contents: what it held at write generation
/// [`Version::generation`], in memory space `space`. Every copy an
/// allocation has is one of these, in its [`Track`]'s table (DESIGN.md
/// §18, *Versions*):
///
/// * a **pinned version** lives in the allocation's own space. Every CoW
///   pin taken at one generation holds the same one. While the live cells
///   still hold that generation it has no cells of its own; the first
///   write after it makes them if a pin is still active — the fault, one
///   private copy however many pins share it;
/// * a **replica** lives in another space: a block filled in stream order
///   by [`Stream::fill`] and re-tagged with the generation each fill
///   copied. The table keeps one per space, the newest asked for.
pub(crate) struct Version {
    space: MemSpace,
    /// A pinned version's generation is fixed. A replica's is written by
    /// its fills only, and reads [`UNFILLED`] / [`STALE`] while its block
    /// holds no generation's contents.
    generation: AtomicU64,
    /// A replica's block from the start; a pinned version's fault copy
    /// once a write has made it — raw and unpooled, because faults fire on
    /// stream workers where a pool round trip could self-deadlock.
    cells: OnceLock<CellBuffer>,
    /// Unsignaled from the moment a replica fill is enqueued until it has
    /// executed; at most one is in flight, because enqueuing one needs
    /// the block unheld and the queued command holds it. A pinned version
    /// is always ready.
    ready: Event,
    /// Pinned versions: the active pins holding it, and the counters its
    /// fault reports into (those of the pin that opened it).
    pins: AtomicUsize,
    stats: Option<Arc<PinStats>>,
}

impl Version {
    fn replica(block: CellBuffer, generation: u64) -> Arc<Version> {
        Arc::new(Version {
            space: block.space,
            generation: AtomicU64::new(generation),
            cells: OnceLock::from(block),
            ready: Event::new(),
            pins: AtomicUsize::new(0),
            stats: None,
        })
    }

    fn pinned(space: MemSpace, generation: u64, stats: &Arc<PinStats>) -> Arc<Version> {
        let ready = Event::new();
        ready.signal();
        Arc::new(Version {
            space,
            generation: AtomicU64::new(generation),
            cells: OnceLock::new(),
            ready,
            pins: AtomicUsize::new(0),
            stats: Some(stats.clone()),
        })
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// True when the version holds a later generation than `want` — one
    /// a request for `want` must not turn back.
    fn newer_than(&self, want: u64) -> bool {
        let have = self.generation();
        have < STALE && have > want
    }

    /// A replica's block.
    pub(crate) fn block(&self) -> &CellBuffer {
        self.cells.get().expect("a replica holds its block")
    }

    /// The fault: copy the pre-write contents `live` into the version's
    /// own cells, before the writer that calls it stores anything.
    fn fault(&self, live: &[AtomicU64]) {
        if let Some(stats) = &self.stats {
            stats.faults.fetch_add(1, Ordering::Relaxed);
            stats.bytes.fetch_add(live.len() as u64 * 8, Ordering::Relaxed);
        }
        let cells: Arc<[AtomicU64]> =
            live.iter().map(|c| AtomicU64::new(c.load(Ordering::Relaxed))).collect();
        let copy = CellBuffer::from_parts(cells, live.len(), self.space, None);
        assert!(self.cells.set(copy).is_ok(), "one fault per pinned version");
    }

    /// The fill itself, run by the stream command in stream order: copy
    /// `src` into the block unless the block already holds the contents a
    /// read of `src` observes now, and tag the block with the generation
    /// of what was actually copied.
    pub(crate) fn fill_from(&self, src: &CellBuffer) -> Result<Fill> {
        let want = src.read_generation();
        let had = self.generation();
        if had == want {
            return Ok(Fill::Hit);
        }
        self.block().copy_cells_from(src)?;
        // A pinned source reads pin-time contents whatever its writers
        // do; a live one that was written meanwhile left a torn copy.
        let tag = if src.read_generation() == want { want } else { STALE };
        self.generation.store(tag, Ordering::Release);
        Ok(if had == UNFILLED { Fill::Move } else { Fill::Refresh })
    }

    /// The enqueued fill has executed (or could not be enqueued).
    pub(crate) fn fill_done(&self) {
        self.ready.signal();
    }
}

/// One holder's CoW pin on a pinned [`Version`], shared by the clones of
/// the buffer [`CellBuffer::cow_pinned`] returned. Counted in the
/// version's active pins until [`CellBuffer::release_pin`] or its drop.
struct Pin {
    version: Arc<Version>,
    active: AtomicBool,
}

impl Pin {
    fn release(&self) {
        if self.active.swap(false, Ordering::AcqRel) {
            self.version.pins.fetch_sub(1, Ordering::Release);
        }
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        self.release();
    }
}

/// The node-wide registry's handle on one allocation that holds replicas.
pub(crate) struct ReplicaOwner(Weak<Track>);

impl ReplicaOwner {
    /// Drop the allocation's replicas (all, or those in `space`) that
    /// nothing but its table holds — no view, no queued fill. Returns
    /// whether the allocation is alive and still holds replicas, i.e.
    /// whether it stays registered. A table some request is working on
    /// right now is left alone.
    pub(crate) fn evict(&self, space: Option<MemSpace>) -> bool {
        let Some(track) = self.0.upgrade() else { return false };
        let Some(mut table) = track.versions.try_lock() else { return true };
        table.retain(|v| {
            !v.cells.get().is_some_and(|b| b.unheld() && space.is_none_or(|s| s == b.space))
        });
        holds_replicas(&table)
    }

    pub(crate) fn is_alive(&self) -> bool {
        self.0.strong_count() > 0
    }
}

/// True when a version table holds a replica: pinned versions leave it at
/// their fault, so every version with cells in it is one.
fn holds_replicas(table: &[Arc<Version>]) -> bool {
    table.iter().any(|v| v.cells.get().is_some())
}

/// Per-allocation tracking state shared by every clone of a buffer (it
/// travels with [`CellBuffer::clone`], surviving re-adoption into new
/// wrapper objects): a monotonically increasing write generation, the
/// leases of live views, and the version table.
pub(crate) struct Track {
    id: u64,
    generation: AtomicU64,
    leases: Leases,
    /// Every copy of the allocation's contents: the pinned version of the
    /// current generation, if a pin was taken since the last write, and
    /// at most one replica per other space. Never held while waiting.
    versions: Mutex<Vec<Arc<Version>>>,
    /// Serializes [`CellBuffer::begin_write`] per allocation: the fault
    /// and the reader drain must look atomic to other writers, or a second
    /// writer could find the pinned version gone from the table and mutate
    /// cells the first is still copying into the fault copy.
    write_serial: Mutex<()>,
}

impl Track {
    fn fresh() -> Arc<Track> {
        Arc::new(Track {
            id: NEXT_ALLOC_ID.fetch_add(1, Ordering::Relaxed),
            generation: AtomicU64::new(0),
            leases: Leases::default(),
            versions: Mutex::new(Vec::new()),
            write_serial: Mutex::new(()),
        })
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn leases(&self) -> &Leases {
        &self.leases
    }
}

/// A buffer of 64-bit cells in some memory space.
///
/// Cloning is shallow (the clones share the cells), which is how zero-copy
/// handoff between the simulation and the in situ layer is expressed.
///
/// The backing allocation may be larger than the buffer (the caching pool
/// rounds requests up to a size class); `len` is the logical length every
/// public operation is bounded by.
#[derive(Clone)]
pub struct CellBuffer {
    cells: Arc<[AtomicU64]>,
    len: usize,
    space: MemSpace,
    guard: Option<Arc<dyn BufferGuard>>,
    /// Write generation, leases and versions, shared by all clones.
    track: Arc<Track>,
    /// `Some` on clones produced by [`CellBuffer::cow_pinned`]: reads
    /// through this clone read the pinned version — its fault copy once
    /// the live cells have been written.
    pin: Option<Arc<Pin>>,
}

impl CellBuffer {
    /// Direct (pool-bypassing) constructor, used only by unit tests; real
    /// allocations go through `CellBuffer::from_parts` via the pool.
    #[cfg(test)]
    pub(crate) fn new(len: usize, space: MemSpace, guard: Option<Arc<dyn BufferGuard>>) -> Self {
        let cells: Arc<[AtomicU64]> = (0..len).map(|_| AtomicU64::new(0)).collect();
        CellBuffer { cells, len, space, guard, track: Track::fresh(), pin: None }
    }

    /// Wrap an existing (possibly size-class-rounded) backing allocation.
    pub(crate) fn from_parts(
        cells: Arc<[AtomicU64]>,
        len: usize,
        space: MemSpace,
        guard: Option<Arc<dyn BufferGuard>>,
    ) -> Self {
        debug_assert!(len <= cells.len(), "logical length exceeds backing allocation");
        CellBuffer { cells, len, space, guard, track: Track::fresh(), pin: None }
    }

    /// Number of 64-bit cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Record that `stream_id` touched this buffer (kernel view or copy);
    /// pooled blocks use it to order their reclamation.
    pub(crate) fn note_stream_use(&self, stream_id: u64, timeline: &Arc<StreamTimeline>) {
        if let Some(guard) = &self.guard {
            guard.note_stream_use(stream_id, timeline);
        }
    }

    /// The memory space the cells live in.
    pub fn space(&self) -> MemSpace {
        self.space
    }

    /// True when both buffers share the same cells (zero-copy aliases).
    pub fn same_allocation(&self, other: &CellBuffer) -> bool {
        Arc::ptr_eq(&self.cells, &other.cells)
    }

    /// Process-unique identity of the backing allocation (never reused;
    /// pooled blocks get a fresh id each time they are handed out).
    pub fn alloc_id(&self) -> u64 {
        self.track.id
    }

    /// The allocation's write generation: bumped by every write-intent
    /// view acquisition and by every stream copy landing in it. Clones
    /// share the counter; it survives re-adoption into new wrappers.
    pub fn generation(&self) -> u64 {
        self.track.generation.load(Ordering::Acquire)
    }

    /// A zero-copy clone pinned to the allocation's *current* contents.
    ///
    /// Reads through the returned clone (and its clones — access views,
    /// kernel captures) see the data as of pin time: if a writer touches
    /// the live cells while the pin is held, the write path first
    /// materializes a pre-write copy (the CoW fault, reported into
    /// `stats`) and the pinned clone's reads route to it from then on.
    /// The pin dies with the last clone holding it, or earlier via
    /// [`CellBuffer::release_pin`].
    pub fn cow_pinned(&self, stats: &Arc<PinStats>) -> CellBuffer {
        // Under the table lock, where `begin_write` advances the
        // generation: a writer either finds this pin's version and
        // preserves its generation's contents, or came first.
        let mut table = self.track.versions.lock();
        let version = match table.iter().find(|v| v.space == self.space) {
            Some(version) => version.clone(),
            None => {
                let version = Version::pinned(self.space, self.generation(), stats);
                table.push(version.clone());
                version
            }
        };
        // Relaxed: the table lock orders it before a writer's check.
        version.pins.fetch_add(1, Ordering::Relaxed);
        drop(table);
        let pin = Pin { version, active: AtomicBool::new(true) };
        CellBuffer { pin: Some(Arc::new(pin)), ..self.clone() }
    }

    /// Deactivate this clone's read-pin: the holder promises not to read
    /// through it again, so later writes skip the fault copy. No-op on
    /// unpinned buffers.
    pub fn release_pin(&self) {
        if let Some(pin) = &self.pin {
            pin.release();
        }
    }

    /// A read view of what this clone reads: the live cells under a
    /// shared read lease; on a pinned clone, its version's fault copy once
    /// a writer has made it, and the live cells under a pinned lease —
    /// which writers wait for instead of failing — until then.
    fn read_view<T: Word>(&self) -> Result<ReadView<T>> {
        let Some(pin) = &self.pin else {
            let lease = ReadLease::shared(&self.track)?;
            return Ok(ReadView::live(self.cells.clone(), self.len, self.guard.clone(), lease));
        };
        // Register *before* looking for the copy (see `ReadLease::pinned`).
        // A released pin that no write faulted reads the live cells again,
        // as a shared reader.
        let pinned = pin.active.load(Ordering::Acquire).then(|| ReadLease::pinned(&self.track));
        if let Some(copy) = pin.version.cells.get() {
            return copy.read_view();
        }
        let lease = pinned.unwrap_or_else(|| ReadLease::shared(&self.track))?;
        Ok(ReadView::live(self.cells.clone(), self.len, self.guard.clone(), lease))
    }

    /// The write generation of the version a request through this clone
    /// asks for: its pin's, or the live one. (A released pin still names
    /// its version: its holder promised not to read through it again.)
    fn read_generation(&self) -> u64 {
        self.pin.as_ref().map_or_else(|| self.generation(), |pin| pin.version.generation())
    }

    /// True when this is the only handle on the allocation: no other
    /// buffer clone, view or queued stream command shares the cells.
    fn unheld(&self) -> bool {
        match &self.guard {
            Some(guard) => Arc::strong_count(guard) == 1,
            None => Arc::strong_count(&self.cells) == 1,
        }
    }

    /// The cells of this allocation's version in `space` (another space
    /// than its own) that a read of this clone observes — once the work
    /// this enqueues on `stream` has run, at the request's place in
    /// `stream`'s order. The table's replica in `space` serves it:
    ///
    /// * a replica nothing else holds is reused: one [`Stream::fill`]
    ///   command compares generations *when it executes* and re-copies
    ///   into the same block only if they differ, so writes queued on
    ///   `stream` ahead of the request are neither missed nor guessed at;
    /// * a replica a view (or a fill in flight) still holds cannot be
    ///   re-copied under its readers, so the choice between sharing it
    ///   and replacing it is needed now: the caller waits for its place
    ///   on `stream` and for the fill — without the table, which a writer
    ///   queued ahead of it needs — then compares on this thread;
    /// * no replica: `alloc` a block, fill it, and keep it.
    ///
    /// The table keeps the newest generation asked for: a pinned clone
    /// asking for an older one than its replica holds is filled a block
    /// the table does not keep, and waits for it.
    pub(crate) fn replica(
        &self,
        space: MemSpace,
        stream: &Stream,
        stats: &NodeStats,
        register: impl FnOnce(ReplicaOwner),
        alloc: impl FnOnce() -> Result<CellBuffer>,
    ) -> Result<CellBuffer> {
        // Granted in place: the own space's version is the pinned one.
        if space == self.space {
            return Ok(self.clone());
        }
        let mut table = self.track.versions.lock();
        let mut waited: Option<Arc<Version>> = None;
        loop {
            let want = self.read_generation();
            let slot = table.iter().position(|v| v.space == space);
            let kept = slot.filter(|&i| !table[i].newer_than(want));
            if let Some(i) = kept {
                let kept = table[i].clone();
                if kept.block().unheld() {
                    kept.ready.reset();
                    if let Err(e) = stream.fill(self, &kept) {
                        kept.fill_done();
                        return Err(e);
                    }
                    return Ok(kept.block().clone());
                }
                if !waited.as_ref().is_some_and(|w| Arc::ptr_eq(w, &kept)) {
                    drop(table);
                    stream.reach()?;
                    kept.ready.wait();
                    if kept.generation() == self.read_generation() {
                        NodeStats::bump(&stats.replica_hits);
                        return Ok(kept.block().clone());
                    }
                    // Decide again: the table may have moved on meanwhile.
                    waited = Some(kept);
                    table = self.track.versions.lock();
                    continue;
                }
            }
            // A block of its own: the first in `space`, in the place of a
            // stale one that is still being read, or — not kept — an older
            // version than the table's.
            let fresh = Version::replica(alloc()?, if kept.is_some() { STALE } else { UNFILLED });
            stream.fill(self, &fresh)?;
            match (kept, slot) {
                (Some(i), _) => table[i] = fresh.clone(),
                (None, None) => {
                    if !holds_replicas(&table) {
                        register(ReplicaOwner(Arc::downgrade(&self.track)));
                    }
                    table.push(fresh.clone());
                }
                // No `sync_replicas` finds a block the table does not
                // keep: the request returns once it is filled.
                (None, Some(_)) => {
                    drop(table);
                    fresh.ready.wait();
                }
            }
            return Ok(fresh.block().clone());
        }
    }

    /// Wait until no fill of this allocation's replicas is in flight:
    /// afterwards every replica handed out so far holds its data, whoever
    /// enqueued the fill and on whichever stream.
    pub fn sync_replicas(&self) {
        // Collected first: a wait under the table's lock would stall the
        // requests that are not waiting for anything. Allocates only
        // when a fill is in flight.
        let in_flight: Vec<Arc<Version>> = {
            let table = self.track.versions.lock();
            table.iter().filter(|v| !v.ready.is_signaled()).cloned().collect()
        };
        for version in in_flight {
            version.ready.wait();
        }
    }

    /// Write-intent entry point: bump the generation, take the pinned
    /// version of the generation it ends out of the table and, if a pin
    /// on it is still active, make its fault copy; then take a write lease
    /// — which waits for pinned readers that were already reading the
    /// live cells, so nobody mid-read observes the caller's upcoming
    /// writes.
    ///
    /// Fails with [`Error::Aliased`] while a shared read view of the
    /// allocation is alive — the caller's own included, where waiting
    /// would deadlock. A pinned reader is waited for instead, so a caller
    /// must still not hold one of its own while writing.
    pub(crate) fn begin_write(&self) -> Result<WriteLease> {
        // One writer faults at a time, and taking the pinned version is
        // only decisive while this lock is held: a concurrent writer must
        // not find it gone and mutate while the first is still copying
        // the cells the pinned readers are about to be routed to.
        let _serial = self.track.write_serial.lock();
        let pinned = {
            let mut table = self.track.versions.lock();
            self.track.generation.fetch_add(1, Ordering::Release);
            let at = table.iter().position(|v| v.space == self.space);
            at.map(|i| table.swap_remove(i))
        };
        if let Some(version) = pinned.filter(|v| v.pins.load(Ordering::Acquire) > 0) {
            version.fault(&self.cells[..self.len]);
        }
        WriteLease::acquire(&self.track)
    }

    /// Host-side `f64` view with write intent (bumps the generation and
    /// faults a pinned version). Fails unless the buffer is host-resident.
    pub fn host_f64(&self) -> Result<HostF64View> {
        self.require_host()?;
        Ok(HostF64View(self.write_view()?))
    }

    /// Host-side `u64` view with write intent. Fails unless host-resident.
    pub fn host_u64(&self) -> Result<HostU64View> {
        self.require_host()?;
        Ok(HostU64View(self.write_view()?))
    }

    /// Read-only host-side `f64` view: does not advance the generation,
    /// and on a pinned clone routes to the pinned (pre-write) contents.
    pub fn host_f64_ro(&self) -> Result<ReadView<f64>> {
        self.require_host()?;
        self.read_view()
    }

    /// Read-only host-side `u64` view (see [`CellBuffer::host_f64_ro`]).
    pub fn host_u64_ro(&self) -> Result<ReadView<u64>> {
        self.require_host()?;
        self.read_view()
    }

    /// Kernel-side `f64` view with write intent; `scope` proves execution
    /// on the right device.
    pub fn f64_view(&self, scope: &KernelScope) -> Result<F64View> {
        self.require_device(scope)?;
        self.note_scope_use(scope);
        Ok(F64View(self.write_view()?))
    }

    /// Kernel-side `u64` view with write intent; `scope` proves execution
    /// on the right device.
    pub fn u64_view(&self, scope: &KernelScope) -> Result<U64View> {
        self.require_device(scope)?;
        self.note_scope_use(scope);
        Ok(U64View(self.write_view()?))
    }

    /// Read-only kernel-side `f64` view: no generation bump; on a pinned
    /// clone the view targets the pinned (pre-write) contents.
    pub fn f64_view_ro(&self, scope: &KernelScope) -> Result<ReadView<f64>> {
        self.require_device(scope)?;
        self.note_scope_use(scope);
        self.read_view()
    }

    /// Read-only kernel-side `u64` view (see [`CellBuffer::f64_view_ro`]).
    pub fn u64_view_ro(&self, scope: &KernelScope) -> Result<ReadView<u64>> {
        self.require_device(scope)?;
        self.note_scope_use(scope);
        self.read_view()
    }

    fn write_view(&self) -> Result<WriteCells> {
        let lease = self.begin_write()?;
        Ok(WriteCells {
            cells: self.cells.clone(),
            len: self.len,
            _guard: self.guard.clone(),
            _lease: lease,
        })
    }

    fn note_scope_use(&self, scope: &KernelScope) {
        if let Some((stream_id, timeline)) = &scope.stream {
            self.note_stream_use(*stream_id, timeline);
        }
    }

    fn require_host(&self) -> Result<()> {
        if self.space.host_accessible() {
            Ok(())
        } else {
            Err(Error::WrongSpace { expected: MemSpace::Host, actual: self.space })
        }
    }

    fn require_device(&self, scope: &KernelScope) -> Result<()> {
        if self.space.device_accessible(scope.device) {
            Ok(())
        } else {
            Err(Error::CrossDeviceAccess { stream_device: scope.device, buffer_space: self.space })
        }
    }

    /// Raw cell copy used by the transfer engine. Not public: user code
    /// must go through stream copies.
    ///
    /// Write-routed on the destination (generation bump, the fault, a
    /// write lease while it stores) and read-routed on the source (a
    /// pinned source clone copies its pinned contents), so stream copies
    /// participate in CoW tracking. The source is read with atomic loads
    /// and takes no read lease: a copy may read an allocation a write view
    /// is still open on.
    pub(crate) fn copy_cells_from(&self, src: &CellBuffer) -> Result<()> {
        if self.len != src.len {
            return Err(Error::CopyLengthMismatch { src: src.len, dst: self.len });
        }
        self.copy_prefix_from(src, |_| Ok(self.len)).map(drop)
    }

    /// [`Self::copy_cells_from`] of the leading cells of `src` its first
    /// cell counts, that cell included: reads the count from the contents
    /// the copy reads, and returns it. A count of zero, or one beyond
    /// either buffer, is [`Error::CopyCountOutOfRange`] and copies nothing.
    pub(crate) fn copy_counted_from(&self, src: &CellBuffer) -> Result<usize> {
        self.copy_prefix_from(src, |first| {
            let out_of_range = || Error::CopyCountOutOfRange {
                count: first.unwrap_or(0),
                src: src.len,
                dst: self.len,
            };
            let count = usize::try_from(first.ok_or_else(out_of_range)?).ok();
            count.filter(|&n| n > 0 && n <= src.len && n <= self.len).ok_or_else(out_of_range)
        })
    }

    /// Copy the first `count(first cell of src)` cells of `src` into
    /// `self`, under the routing [`Self::copy_cells_from`] describes.
    fn copy_prefix_from(
        &self,
        src: &CellBuffer,
        count: impl FnOnce(Option<u64>) -> Result<usize>,
    ) -> Result<usize> {
        // Destination first: if src aliases dst (same allocation), the
        // fault happens here and the read below routes to its copy.
        let _write = self.begin_write()?;
        // Registered before looking for the copy, like a pinned reader.
        let source = src.pin.as_ref().map(|_| SourceHold::register(&src.track));
        let from = match src.pin.as_ref().and_then(|pin| pin.version.cells.get()) {
            Some(copy) => {
                drop(source);
                copy
            }
            None => src,
        };
        let cells = &from.cells[..from.len];
        let n = count(cells.first().map(|c| c.load(Ordering::Relaxed)))?;
        for (d, s) in self.cells[..n].iter().zip(&cells[..n]) {
            d.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        Ok(n)
    }
}

impl std::fmt::Debug for CellBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellBuffer").field("len", &self.len()).field("space", &self.space).finish()
    }
}

/// Proof that the current closure is executing as a kernel on `device`.
/// Constructed only by the stream worker.
pub struct KernelScope {
    pub(crate) device: usize,
    /// The launching stream's (id, timeline), used to tag buffers the
    /// kernel views for stream-ordered pool reclamation. `None` only in
    /// unit tests that fabricate a scope.
    pub(crate) stream: Option<(u64, Arc<StreamTimeline>)>,
}

impl KernelScope {
    /// The device this kernel is running on.
    pub fn device(&self) -> usize {
        self.device
    }
}

/// What every write view holds: the allocation's cells, the pool guard
/// that keeps them out of the pool, and the write lease that keeps read
/// views off them.
struct WriteCells {
    cells: Arc<[AtomicU64]>,
    len: usize,
    _guard: Option<Arc<dyn BufferGuard>>,
    _lease: WriteLease,
}

impl WriteCells {
    /// The cell backing element `i`, bounds-checked against the
    /// *logical* length (the backing may be size-class padded).
    #[inline]
    fn cell(&self, i: usize) -> &AtomicU64 {
        assert!(i < self.len, "index {i} out of bounds for view of {} elements", self.len);
        &self.cells[i]
    }

    fn cells(&self) -> &[AtomicU64] {
        &self.cells[..self.len]
    }
}

macro_rules! view_bounds {
    () => {
        /// Number of elements.
        pub fn len(&self) -> usize {
            self.0.len
        }

        /// True when the view is empty.
        pub fn is_empty(&self) -> bool {
            self.0.len == 0
        }
    };
}

/// The tie rule of every minimum the system folds: `v` where it is
/// smaller, else `acc` — a NaN value is skipped and a tie (`-0.0` against
/// `+0.0` too) keeps the accumulator. One select, where `f64::min`
/// (`minnum`) leaves a signed-zero tie to the compiler and pays a NaN
/// fixup for an accumulator that, starting at its identity, is never NaN.
#[inline(always)]
pub fn min_select(acc: f64, v: f64) -> f64 {
    if v < acc {
        v
    } else {
        acc
    }
}

/// [`min_select`]'s rule for a maximum: `v` where it is larger, else `acc`.
#[inline(always)]
pub fn max_select(acc: f64, v: f64) -> f64 {
    if v > acc {
        v
    } else {
        acc
    }
}

macro_rules! f64_ops {
    ($name:ident) => {
        impl $name {
            view_bounds!();

            /// Read element `i`.
            #[inline]
            pub fn get(&self, i: usize) -> f64 {
                f64::from_bits(self.0.cell(i).load(Ordering::Relaxed))
            }

            /// Write element `i`.
            #[inline]
            pub fn set(&self, i: usize, v: f64) {
                self.0.cell(i).store(v.to_bits(), Ordering::Relaxed);
            }

            /// Atomic `+=` on element `i` (CAS loop) — the `atomicAdd` the
            /// paper's binning kernel depends on.
            #[inline]
            pub fn atomic_add(&self, i: usize, v: f64) {
                let cell = self.0.cell(i);
                let mut cur = cell.load(Ordering::Relaxed);
                loop {
                    let next = (f64::from_bits(cur) + v).to_bits();
                    match cell.compare_exchange_weak(
                        cur,
                        next,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return,
                        Err(seen) => cur = seen,
                    }
                }
            }

            /// Atomic minimum on element `i`, by [`min_select`].
            #[inline]
            pub fn atomic_min(&self, i: usize, v: f64) {
                self.atomic_rmw(i, |cur| min_select(cur, v));
            }

            /// Atomic maximum on element `i`, by [`max_select`].
            #[inline]
            pub fn atomic_max(&self, i: usize, v: f64) {
                self.atomic_rmw(i, |cur| max_select(cur, v));
            }

            #[inline]
            fn atomic_rmw(&self, i: usize, f: impl Fn(f64) -> f64) {
                let cell = self.0.cell(i);
                let mut cur = cell.load(Ordering::Relaxed);
                loop {
                    let next = f(f64::from_bits(cur)).to_bits();
                    if next == cur {
                        return;
                    }
                    match cell.compare_exchange_weak(
                        cur,
                        next,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return,
                        Err(seen) => cur = seen,
                    }
                }
            }

            /// Copy all elements out into a `Vec`.
            pub fn to_vec(&self) -> Vec<f64> {
                self.0.cells().iter().map(|c| f64::from_bits(c.load(Ordering::Relaxed))).collect()
            }

            /// Store the words `words` as the raw bits of the elements
            /// from `start` on (counts and indices kept beside `f64`s).
            ///
            /// # Panics
            /// Panics if the words run past the end of the view.
            pub fn store_words(&self, start: usize, words: impl ExactSizeIterator<Item = u64>) {
                let cells = &self.0.cells()[start..start + words.len()];
                for (cell, w) in cells.iter().zip(words) {
                    cell.store(w, Ordering::Relaxed);
                }
            }

            /// Fill every element with `v`.
            pub fn fill(&self, v: f64) {
                for c in self.0.cells() {
                    c.store(v.to_bits(), Ordering::Relaxed);
                }
            }

            /// Copy from a slice; panics if lengths differ.
            pub fn copy_from_slice(&self, src: &[f64]) {
                assert_eq!(src.len(), self.len(), "copy_from_slice length mismatch");
                for (c, v) in self.0.cells().iter().zip(src) {
                    c.store(v.to_bits(), Ordering::Relaxed);
                }
            }
        }
    };
}

macro_rules! u64_ops {
    ($name:ident) => {
        impl $name {
            view_bounds!();

            /// Read element `i`.
            #[inline]
            pub fn get(&self, i: usize) -> u64 {
                self.0.cell(i).load(Ordering::Relaxed)
            }

            /// Write element `i`.
            #[inline]
            pub fn set(&self, i: usize, v: u64) {
                self.0.cell(i).store(v, Ordering::Relaxed);
            }

            /// Atomic increment, returning the previous value.
            #[inline]
            pub fn atomic_add(&self, i: usize, v: u64) -> u64 {
                self.0.cell(i).fetch_add(v, Ordering::Relaxed)
            }

            /// Copy all elements out into a `Vec`.
            pub fn to_vec(&self) -> Vec<u64> {
                self.0.cells().iter().map(|c| c.load(Ordering::Relaxed)).collect()
            }
        }
    };
}

macro_rules! write_view {
    ($(#[$doc:meta])* $name:ident, $ops:ident) => {
        $(#[$doc])*
        pub struct $name(WriteCells);

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}(len={})", stringify!($name), self.0.len)
            }
        }

        $ops!($name);
    };
}

write_view!(
    /// `f64` write view of a device-resident buffer, usable only inside a
    /// kernel: shared atomic cells under a write lease.
    F64View,
    f64_ops
);
write_view!(
    /// `u64` write view of a device-resident buffer, usable only inside a
    /// kernel.
    U64View,
    u64_ops
);
write_view!(
    /// `f64` write view of a host-resident buffer, usable from host code.
    HostF64View,
    f64_ops
);
write_view!(
    /// `u64` write view of a host-resident buffer, usable from host code.
    HostU64View,
    u64_ops
);

#[cfg(test)]
mod tests {
    use super::*;

    fn host_buf(n: usize) -> CellBuffer {
        CellBuffer::new(n, MemSpace::Host, None)
    }

    #[test]
    fn host_view_reads_and_writes() {
        let b = host_buf(4);
        let v = b.host_f64().unwrap();
        v.set(0, 1.5);
        v.set(3, -2.25);
        assert_eq!(v.get(0), 1.5);
        assert_eq!(v.get(3), -2.25);
        assert_eq!(v.to_vec(), vec![1.5, 0.0, 0.0, -2.25]);
    }

    #[test]
    fn bulk_view_ops_honour_the_logical_length_on_a_padded_block() {
        // Three logical cells on an eight-cell size-class block.
        let cells: Arc<[AtomicU64]> = (0..8).map(|_| AtomicU64::new(7.0f64.to_bits())).collect();
        let b = CellBuffer::from_parts(cells.clone(), 3, MemSpace::Host, None);
        let v = b.host_f64().unwrap();
        assert_eq!(v.to_vec(), vec![7.0; 3]);
        v.fill(1.0);
        v.copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(v.to_vec(), vec![1.0, 2.0, 3.0]);
        drop(v);
        assert_eq!(b.host_u64_ro().unwrap().len(), 3);
        let padding: Vec<f64> =
            cells[3..].iter().map(|c| f64::from_bits(c.load(Ordering::Relaxed))).collect();
        assert_eq!(padding, vec![7.0; 5], "padding cells are never touched");
    }

    #[test]
    fn device_buffer_refuses_host_view() {
        let b = CellBuffer::new(4, MemSpace::Device(1), None);
        let err = b.host_f64().unwrap_err();
        assert_eq!(
            err,
            Error::WrongSpace { expected: MemSpace::Host, actual: MemSpace::Device(1) }
        );
    }

    #[test]
    fn kernel_scope_gates_device_views() {
        let b = CellBuffer::new(4, MemSpace::Device(2), None);
        let right = KernelScope { device: 2, stream: None };
        let wrong = KernelScope { device: 0, stream: None };
        assert!(b.f64_view(&right).is_ok());
        assert!(matches!(b.f64_view(&wrong), Err(Error::CrossDeviceAccess { .. })));
        // Host buffers are also not implicitly visible to kernels.
        let hb = host_buf(2);
        assert!(hb.f64_view(&right).is_err());
    }

    #[test]
    fn clones_alias_the_same_cells() {
        let a = host_buf(2);
        let b = a.clone();
        a.host_f64().unwrap().set(1, 7.0);
        assert_eq!(b.host_f64().unwrap().get(1), 7.0);
        assert!(a.same_allocation(&b));
        assert!(!a.same_allocation(&host_buf(2)));
    }

    #[test]
    fn atomic_add_sums_under_contention() {
        let b = host_buf(1);
        let v = std::sync::Arc::new(b.host_f64().unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let v = v.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        v.atomic_add(0, 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.get(0), 4000.0);
    }

    #[test]
    fn atomic_min_max_converge() {
        let b = host_buf(2);
        let v = b.host_f64().unwrap();
        v.set(0, f64::INFINITY);
        v.set(1, f64::NEG_INFINITY);
        for x in [3.0, -1.0, 7.0, 0.5] {
            v.atomic_min(0, x);
            v.atomic_max(1, x);
        }
        assert_eq!(v.get(0), -1.0);
        assert_eq!(v.get(1), 7.0);
    }

    #[test]
    fn u64_counter_view() {
        let b = host_buf(3);
        let v = b.host_u64().unwrap();
        assert_eq!(v.atomic_add(1, 5), 0);
        assert_eq!(v.atomic_add(1, 2), 5);
        assert_eq!(v.to_vec(), vec![0, 7, 0]);
    }

    #[test]
    fn copy_cells_requires_equal_lengths() {
        let a = host_buf(3);
        let b = host_buf(4);
        assert!(matches!(a.copy_cells_from(&b), Err(Error::CopyLengthMismatch { .. })));
    }

    #[test]
    fn buffer_guard_runs_on_last_drop() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct TestGuard {
            bytes: usize,
            released: Arc<AtomicUsize>,
        }
        impl BufferGuard for TestGuard {}
        impl Drop for TestGuard {
            fn drop(&mut self) {
                self.released.fetch_add(self.bytes, Ordering::SeqCst);
            }
        }

        let released = Arc::new(AtomicUsize::new(0));
        let guard: Arc<dyn BufferGuard> =
            Arc::new(TestGuard { bytes: 128, released: released.clone() });
        let a = CellBuffer::new(1, MemSpace::Host, Some(guard));
        let b = a.clone();
        let view = b.host_f64().unwrap();
        drop(a);
        drop(b);
        // A live view pins the allocation even after every buffer clone is
        // gone — a pooled block must not be recycled under a view.
        assert_eq!(released.load(Ordering::SeqCst), 0, "view still pins the allocation");
        drop(view);
        assert_eq!(released.load(Ordering::SeqCst), 128);
    }

    #[test]
    fn fill_and_copy_from_slice() {
        let b = host_buf(3);
        let v = b.host_f64().unwrap();
        v.fill(9.0);
        assert_eq!(v.to_vec(), vec![9.0; 3]);
        v.copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(v.to_vec(), vec![1.0, 2.0, 3.0]);
        drop(v);
        // A read view is the same cells as a slice.
        let r = b.host_f64_ro().unwrap();
        assert_eq!(r[1..], [2.0, 3.0]);
        assert_eq!(r.iter().skip(1).copied().collect::<Vec<_>>(), vec![2.0, 3.0]);
        assert_eq!(r.get(2), 3.0);
    }

    #[test]
    fn generation_bumps_on_write_intent_only() {
        let b = host_buf(2);
        let g0 = b.generation();
        let _ = b.host_f64_ro().unwrap();
        let _ = b.host_u64_ro().unwrap();
        assert_eq!(b.generation(), g0, "read-only views must not advance the generation");
        let _ = b.host_f64().unwrap();
        assert_eq!(b.generation(), g0 + 1);
        let _ = b.host_u64().unwrap();
        assert_eq!(b.generation(), g0 + 2);
        // Clones share the counter.
        let c = b.clone();
        let _ = c.host_f64().unwrap();
        assert_eq!(b.generation(), g0 + 3);
    }

    #[test]
    fn generation_tracks_stream_copy_destination() {
        let a = host_buf(2);
        let b = host_buf(2);
        a.host_f64().unwrap().copy_from_slice(&[1.0, 2.0]);
        let (ga, gb) = (a.generation(), b.generation());
        b.copy_cells_from(&a).unwrap();
        assert_eq!(a.generation(), ga, "copy source is a read");
        assert_eq!(b.generation(), gb + 1, "copy destination is a write");
        assert_eq!(b.host_f64_ro().unwrap().to_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn alloc_ids_are_unique_and_shared_by_clones() {
        let a = host_buf(1);
        let b = host_buf(1);
        assert_ne!(a.alloc_id(), b.alloc_id());
        assert_eq!(a.alloc_id(), a.clone().alloc_id());
    }

    #[test]
    fn cow_pin_preserves_pre_write_contents() {
        let b = host_buf(3);
        b.host_f64().unwrap().copy_from_slice(&[1.0, 2.0, 3.0]);
        let stats = PinStats::new_shared();
        let pinned = b.cow_pinned(&stats);
        assert!(
            std::ptr::eq(pinned.host_f64_ro().unwrap().as_ptr(), b.host_f64_ro().unwrap().as_ptr()),
            "an unwritten pin reads the live cells"
        );
        assert!(b.same_allocation(&pinned), "pin is zero-copy until a write lands");

        // Solver writes through the live buffer → fault copies first.
        b.host_f64().unwrap().copy_from_slice(&[9.0, 9.0, 9.0]);
        assert_eq!(stats.faults(), 1);
        assert_eq!(stats.bytes(), 3 * 8);
        assert_eq!(pinned.host_f64_ro().unwrap().to_vec(), vec![1.0, 2.0, 3.0]);
        assert_eq!(b.host_f64_ro().unwrap().to_vec(), vec![9.0, 9.0, 9.0]);

        // A second write does not fault again (pin already resolved).
        b.host_f64().unwrap().set(0, 5.0);
        assert_eq!(stats.faults(), 1);
        assert_eq!(pinned.host_f64_ro().unwrap().get(0), 1.0);
    }

    #[test]
    fn multiple_pins_share_one_fault_copy() {
        let b = host_buf(4);
        b.host_f64().unwrap().fill(2.0);
        let stats = PinStats::new_shared();
        let p1 = b.cow_pinned(&stats);
        let p2 = b.cow_pinned(&stats);
        b.host_f64().unwrap().fill(8.0);
        assert_eq!(stats.faults(), 1, "both pins hold the same pre-write state");
        assert_eq!(stats.bytes(), 4 * 8);
        assert_eq!(p1.host_f64_ro().unwrap().to_vec(), vec![2.0; 4]);
        assert!(std::ptr::eq(
            p1.host_f64_ro().unwrap().as_ptr(),
            p2.host_f64_ro().unwrap().as_ptr()
        ));
    }

    #[test]
    fn released_and_dropped_pins_cost_nothing() {
        let b = host_buf(2);
        b.host_f64().unwrap().fill(1.0);
        let stats = PinStats::new_shared();
        let released = b.cow_pinned(&stats);
        released.release_pin();
        let read = released.host_f64_ro().unwrap();
        assert_eq!(
            b.host_f64().unwrap_err(),
            Error::Aliased { alloc_id: b.alloc_id() },
            "a released pin reads the live cells as a shared reader"
        );
        drop(read);
        let dropped = b.cow_pinned(&stats);
        drop(dropped);
        b.host_f64().unwrap().fill(7.0);
        assert_eq!(stats.faults(), 0, "no live active pin → no fault copy");
        // A released pin's reads follow the live cells.
        assert_eq!(released.host_f64_ro().unwrap().to_vec(), vec![7.0; 2]);
    }

    #[test]
    fn pinned_source_copy_reads_pinned_contents() {
        let src = host_buf(2);
        src.host_f64().unwrap().copy_from_slice(&[1.0, 2.0]);
        let stats = PinStats::new_shared();
        let pinned = src.cow_pinned(&stats);
        src.host_f64().unwrap().copy_from_slice(&[8.0, 8.0]);
        let dst = host_buf(2);
        dst.copy_cells_from(&pinned).unwrap();
        assert_eq!(dst.host_f64_ro().unwrap().to_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn concurrent_writers_fault_a_share_pin_exactly_once() {
        // Two writers race into `begin_write` on a share-pinned
        // allocation. Whichever wins takes the pin registry and
        // materializes the fault copy; the loser must neither fault
        // again nor store into the live cells while that copy is being
        // read out of them.
        const N: usize = 1 << 18;
        let b = host_buf(N);
        b.host_f64().unwrap().fill(1.0);
        let stats = PinStats::new_shared();
        let pinned = b.cow_pinned(&stats);
        let start = Arc::new(std::sync::Barrier::new(2));
        let writers: Vec<_> = [8.0, 9.0]
            .into_iter()
            .map(|v| {
                let (b, start) = (b.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    b.host_f64().unwrap().fill(v);
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(stats.faults(), 1, "one fault copy serves both writers");
        assert_eq!(stats.bytes(), N as u64 * 8);
        assert_eq!(pinned.host_f64_ro().unwrap().to_vec(), vec![1.0; N]);
        assert!(b.host_f64_ro().unwrap().iter().all(|&v| v == 8.0 || v == 9.0));
    }

    #[test]
    fn fault_waits_for_registered_reader() {
        let b = host_buf(1);
        b.host_f64().unwrap().set(0, 1.0);
        let stats = PinStats::new_shared();
        let pinned = Arc::new(b.cow_pinned(&stats));
        // Reader holds a live-cell view through the unresolved pin.
        let view = pinned.host_f64_ro().unwrap();
        let started = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let (b, started, done) = (b.clone(), started.clone(), done.clone());
            std::thread::spawn(move || {
                started.store(true, Ordering::SeqCst);
                b.host_f64().unwrap().set(0, 9.0);
                done.store(true, Ordering::SeqCst);
            })
        };
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!done.load(Ordering::SeqCst), "writer must drain the registered reader");
        assert_eq!(view.get(0), 1.0, "reader still sees pre-write data");
        drop(view);
        writer.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
        // Post-fault reads through the pin route to the holder copy.
        assert_eq!(pinned.host_f64_ro().unwrap().get(0), 1.0);
        assert_eq!(b.host_f64_ro().unwrap().get(0), 9.0);
    }

    mod leases {
        use super::*;
        use crate::node::{NodeConfig, SimNode};

        fn aliased(b: &CellBuffer) -> Error {
            Error::Aliased { alloc_id: b.alloc_id() }
        }

        #[test]
        fn a_read_lease_refuses_writes_copies_and_fills() {
            let node = SimNode::new(NodeConfig::fast_test(1));
            let stream = node.device(0).unwrap().create_stream();
            let b = node.host_alloc_f64(4);
            b.host_f64().unwrap().fill(1.0);
            let src = node.host_alloc_f64(4);
            src.host_f64().unwrap().fill(2.0);
            let view = b.host_f64_ro().unwrap();
            let generation = b.generation();

            assert_eq!(b.host_f64().unwrap_err(), aliased(&b));
            assert_eq!(b.clone().host_u64().unwrap_err(), aliased(&b), "clones share the lease");
            stream.copy(&src, &b).unwrap();
            assert_eq!(stream.synchronize().unwrap_err(), aliased(&b));
            let replica = Version::replica(b.clone(), UNFILLED);
            stream.fill(&src, &replica).unwrap();
            assert_eq!(stream.synchronize().unwrap_err(), aliased(&b));
            assert_eq!(replica.generation.load(Ordering::Acquire), UNFILLED);

            assert_eq!(*view, [1.0; 4], "nothing was stored under the lease");
            assert!(b.generation() > generation, "a refused writer still counts");
            // Read leases share.
            assert_eq!(*b.host_f64_ro().unwrap(), *view);
        }

        #[test]
        fn a_write_view_refuses_read_leases() {
            let b = host_buf(3);
            let w = b.host_f64().unwrap();
            assert_eq!(b.host_f64_ro().unwrap_err(), aliased(&b));
            assert_eq!(b.host_u64_ro().unwrap_err(), aliased(&b));
            // Writers share: their stores are atomic.
            let w2 = b.host_f64().unwrap();
            w2.set(0, 4.0);
            assert_eq!(w.get(0), 4.0);
            // A pin taken while a writer is open pins a half-written
            // generation: its live read is refused like any other.
            let pinned = b.cow_pinned(&PinStats::new_shared());
            assert_eq!(pinned.host_f64_ro().unwrap_err(), aliased(&b));
            // The copy engine's atomic read of a source is not a lease.
            let dst = host_buf(3);
            dst.copy_cells_from(&b).unwrap();
            assert_eq!(dst.host_f64_ro().unwrap()[0], 4.0);
        }

        #[test]
        fn dropping_either_lease_frees_the_other_side() {
            let b = host_buf(2);
            let r = b.host_f64_ro().unwrap();
            assert!(b.host_f64().is_err());
            drop(r);
            let w = b.host_f64().unwrap();
            w.fill(3.0);
            assert!(b.host_f64_ro().is_err());
            drop(w);
            assert_eq!(*b.host_f64_ro().unwrap(), [3.0; 2]);
            let src = host_buf(2);
            let r = b.host_u64_ro().unwrap();
            assert!(b.copy_cells_from(&src).is_err());
            drop(r);
            b.copy_cells_from(&src).unwrap();
            assert_eq!(*b.host_f64_ro().unwrap(), [0.0; 2]);
        }

        #[test]
        fn a_pinned_reader_under_a_concurrent_writer_reads_pin_time_contents() {
            const N: usize = 1 << 12;
            let b = host_buf(N);
            b.host_f64().unwrap().fill(1.0);
            let stats = PinStats::new_shared();
            let pinned = b.cow_pinned(&stats);
            let start = std::sync::Barrier::new(2);
            let reads = std::thread::scope(|scope| {
                scope.spawn(|| {
                    start.wait();
                    for v in 2..40 {
                        b.host_f64().unwrap().fill(v as f64);
                    }
                });
                let reader = scope.spawn(|| {
                    start.wait();
                    (0..200)
                        .map(|_| {
                            let view = pinned.host_f64_ro().expect("a pinned read never fails");
                            view.iter().all(|&v| v == 1.0)
                        })
                        .collect::<Vec<_>>()
                });
                reader.join().unwrap()
            });
            assert!(reads.iter().all(|&pin_time| pin_time), "every read sees pin-time bytes");
            assert_eq!(stats.faults(), 1);
            assert_eq!(*b.host_f64_ro().unwrap(), [39.0; N]);
        }
    }

    mod replicas {
        use super::*;
        use crate::node::{NodeConfig, SimNode};
        use crate::timemodel::KernelCost;

        /// A node, a stream on device 0, and a device-0 buffer holding `data`.
        fn device_source(data: &[f64]) -> (Arc<SimNode>, Arc<Stream>, CellBuffer) {
            let node = SimNode::new(NodeConfig::fast_test(2));
            let dev = node.device(0).unwrap();
            let stream = dev.create_stream();
            let staging = node.host_alloc_f64(data.len());
            staging.host_f64().unwrap().copy_from_slice(data);
            let src = dev.alloc_f64(data.len()).unwrap();
            stream.copy(&staging, &src).unwrap();
            stream.synchronize().unwrap();
            (node, stream, src)
        }

        fn kernel_fill(stream: &Stream, buf: &CellBuffer, v: f64) {
            let b = buf.clone();
            stream
                .launch("write", KernelCost::ZERO, move |scope| {
                    b.f64_view(scope)?.fill(v);
                    Ok(())
                })
                .unwrap();
        }

        /// Request the host replica and wait for it.
        fn host_replica(node: &SimNode, stream: &Stream, src: &CellBuffer) -> CellBuffer {
            let r = node.replica(src, None, stream).unwrap();
            stream.synchronize().unwrap();
            src.sync_replicas();
            r
        }

        fn contents(host: &CellBuffer) -> Vec<f64> {
            host.host_f64_ro().unwrap().to_vec()
        }

        #[test]
        fn second_request_without_a_write_is_a_hit() {
            let (node, stream, src) = device_source(&[1.0, 2.0, 3.0]);
            let first = host_replica(&node, &stream, &src);
            assert_eq!(contents(&first), vec![1.0, 2.0, 3.0]);
            let moved = node.stats();
            assert_eq!((moved.copies_d2h, moved.replica_hits, moved.replica_refreshes), (1, 0, 0));
            drop(first);

            let pool = node.pool_stats(MemSpace::Host);
            let again = host_replica(&node, &stream, &src);
            assert_eq!(contents(&again), vec![1.0, 2.0, 3.0]);
            let hit = node.stats();
            assert_eq!((hit.copies_d2h, hit.replica_hits, hit.replica_refreshes), (1, 1, 0));
            assert_eq!(hit.total_link_bytes(), moved.total_link_bytes());
            let after = node.pool_stats(MemSpace::Host);
            assert_eq!(after.hits + after.misses, pool.hits + pool.misses, "no pool request");

            // A second holder shares the block while the first is alive.
            let shared = host_replica(&node, &stream, &src);
            assert!(shared.same_allocation(&again));
            assert_eq!(node.stats().replica_hits, 2);
            assert_eq!(node.stats().copies_d2h, 1);
        }

        #[test]
        fn a_write_view_makes_the_replica_stale_host_or_kernel() {
            // Kernel write view on a device source.
            let (node, stream, src) = device_source(&[1.0; 4]);
            drop(host_replica(&node, &stream, &src));
            kernel_fill(&stream, &src, 5.0);
            assert_eq!(contents(&host_replica(&node, &stream, &src)), vec![5.0; 4]);
            assert_eq!(node.stats().replica_refreshes, 1);
            assert_eq!(node.stats().copies_d2h, 2);

            // Host write view on a host source replicated to device 1.
            let host = node.host_alloc_f64(4);
            host.host_f64().unwrap().fill(2.0);
            let s1 = node.device(1).unwrap().create_stream();
            let read_back = |replica: &CellBuffer| {
                let out = node.host_alloc_f64(4);
                s1.copy(replica, &out).unwrap();
                s1.synchronize().unwrap();
                contents(&out)
            };
            let r = node.replica(&host, Some(1), &s1).unwrap();
            assert_eq!(read_back(&r), vec![2.0; 4]);
            drop(r);
            host.host_f64().unwrap().fill(7.0);
            let r = node.replica(&host, Some(1), &s1).unwrap();
            assert_eq!(read_back(&r), vec![7.0; 4]);
            assert_eq!(node.stats().copies_h2d, 2 + 1, "the set-up upload, the move, the refresh");
            assert_eq!(node.stats().replica_refreshes, 2);
            // Read-only views leave it current.
            drop(r);
            let _ = host.host_f64_ro().unwrap();
            drop(node.replica(&host, Some(1), &s1).unwrap());
            s1.synchronize().unwrap();
            assert_eq!(node.stats().copies_h2d, 3);
        }

        #[test]
        fn a_queued_write_is_seen_by_the_request_behind_it() {
            // The write has not executed when the request is made: the
            // decision is the fill command's, taken in stream order.
            let (node, stream, src) = device_source(&[1.0; 4]);
            drop(host_replica(&node, &stream, &src));
            let gate = Event::new();
            stream.wait_event(&gate).unwrap();
            kernel_fill(&stream, &src, 9.0);
            let generation = src.generation();
            let r = node.replica(&src, None, &stream).unwrap();
            assert_eq!(src.generation(), generation, "the write is still queued");
            gate.signal();
            stream.synchronize().unwrap();
            assert_eq!(contents(&r), vec![9.0; 4]);
            assert_eq!(node.stats().replica_refreshes, 1);
        }

        #[test]
        fn refresh_reuses_an_unheld_block_and_replaces_a_held_one() {
            let (node, stream, src) = device_source(&[1.0; 4]);
            let first = host_replica(&node, &stream, &src);
            let first_id = first.alloc_id();
            drop(first);
            kernel_fill(&stream, &src, 2.0);
            let second = host_replica(&node, &stream, &src);
            assert_eq!(second.alloc_id(), first_id, "unheld: re-copied in place");
            assert_eq!(contents(&second), vec![2.0; 4]);

            // `second` is still alive when the next refresh is due.
            let old_view = second.host_f64_ro().unwrap();
            kernel_fill(&stream, &src, 3.0);
            let third = host_replica(&node, &stream, &src);
            assert!(!third.same_allocation(&second), "held: a fresh block takes the entry");
            assert_eq!(contents(&third), vec![3.0; 4]);
            assert_eq!(old_view.to_vec(), vec![2.0; 4], "the old view keeps its generation");
            assert_eq!(node.stats().replica_refreshes, 2);
            assert_eq!(node.stats().copies_d2h, 3);
            // The replaced block dies with its last holder; the entry lives on.
            let live = node.pool_stats(MemSpace::Host).live_bytes;
            drop((old_view, second));
            assert!(node.pool_stats(MemSpace::Host).live_bytes < live);
            let third_id = third.alloc_id();
            drop(third);
            assert_eq!(host_replica(&node, &stream, &src).alloc_id(), third_id);
            assert_eq!(node.stats().replica_hits, 1);
        }

        #[test]
        fn replicas_die_with_the_source_or_at_drop_replicas() {
            let (node, stream, src) = device_source(&[1.0; 64]);
            let host0 = node.pool_stats(MemSpace::Host).live_bytes;
            let dev1 = node.device(1).unwrap();
            drop(host_replica(&node, &stream, &src));
            drop(node.replica(&src, Some(1), &stream).unwrap());
            stream.synchronize().unwrap();
            assert_eq!(node.pool_stats(MemSpace::Host).live_bytes, host0 + 512);
            assert_eq!(dev1.used_bytes(), 512);

            // A held replica survives the sweep, an unheld one does not.
            let held = host_replica(&node, &stream, &src);
            node.drop_replicas();
            assert_eq!(dev1.used_bytes(), 0);
            assert_eq!(node.pool_stats(MemSpace::Host).live_bytes, host0 + 512);
            assert!(host_replica(&node, &stream, &src).same_allocation(&held));
            drop(held);

            drop(node.replica(&src, Some(1), &stream).unwrap());
            stream.synchronize().unwrap();
            drop(src);
            assert_eq!(node.pool_stats(MemSpace::Host).live_bytes, host0);
            assert_eq!(dev1.used_bytes(), 0);
        }

        #[test]
        fn a_fill_racing_a_write_tags_the_contents_it_copied() {
            // A share pinned at generation g asks for a replica; the
            // producer writes (generation g + 1, the pin resolves) before
            // the fill executes. The fill copies the pinned contents and
            // must tag them g: the live buffer's next request may not be
            // granted that block.
            let (node, stream, src) = device_source(&[1.0; 4]);
            let pin_stats = PinStats::new_shared();
            let share = src.cow_pinned(&pin_stats);
            let copy_stream = node.device(0).unwrap().create_stream();
            let gate = Event::new();
            copy_stream.wait_event(&gate).unwrap();
            let pinned = node.replica(&share, None, &copy_stream).unwrap();
            kernel_fill(&stream, &src, 8.0);
            stream.synchronize().unwrap();
            assert_eq!(pin_stats.faults(), 1);
            gate.signal();
            copy_stream.synchronize().unwrap();
            assert_eq!(contents(&pinned), vec![1.0; 4], "the share reads pin-time contents");

            let live = host_replica(&node, &stream, &src);
            assert_eq!(contents(&live), vec![8.0; 4], "not granted the older generation");
            assert!(!live.same_allocation(&pinned), "the share's view still holds its block");
            assert_eq!(contents(&pinned), vec![1.0; 4]);

            // Resolved, the share reads the fault copy: a private block,
            // and the allocation's table is left to the live contents.
            let private = node.replica(&share, None, &copy_stream).unwrap();
            copy_stream.synchronize().unwrap();
            assert_eq!(contents(&private), vec![1.0; 4]);
            assert!(!private.same_allocation(&live) && !private.same_allocation(&pinned));
            drop(private);
            assert!(host_replica(&node, &stream, &src).same_allocation(&live));
        }

        #[test]
        fn concurrent_requesters_share_one_move() {
            let (node, stream, src) = device_source(&[4.0; 256]);
            let gate = Event::new();
            stream.wait_event(&gate).unwrap();
            let start = std::sync::Barrier::new(4);
            let blocks: Vec<CellBuffer> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..4)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            let r = node.replica(&src, None, &stream).unwrap();
                            stream.synchronize().unwrap();
                            src.sync_replicas();
                            assert_eq!(contents(&r), vec![4.0; 256]);
                            r
                        })
                    })
                    .collect();
                // The first fill is queued behind the gate; the others
                // find its entry held and wait for it.
                while stream.submitted() < 3 {
                    std::thread::yield_now();
                }
                gate.signal();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            assert!(blocks.iter().all(|b| b.same_allocation(&blocks[0])));
            let stats = node.stats();
            assert_eq!(stats.copies_d2h, 1, "one move per (allocation, space, generation)");
            assert_eq!(stats.replica_hits, 3);
        }
    }
}
