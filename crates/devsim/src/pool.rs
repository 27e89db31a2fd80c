//! Stream-aware caching memory pool.
//!
//! Every allocation on a [`crate::SimNode`] — device, unified, and host —
//! flows through a per-memory-space [`MemoryPool`]. The design follows the
//! stream-ordered caching allocators production GPU stacks use
//! (`cudaMallocAsync` pools, PyTorch's CUDACachingAllocator):
//!
//! * requests round up to a **size class** (a multiple of
//!   [`GRANULARITY`] cells) and are served from a per-class free list when
//!   possible, skipping the raw allocator entirely;
//! * a freed block re-enters the free list **stream-ordered**: if its last
//!   use was on stream *S*, it becomes reusable by other streams only once
//!   *S* has drained past that use (tracked by the stream's
//!   submitted/completed watermarks — the moral equivalent of recording an
//!   event at free time and waiting on it). Reuse *on S itself* is
//!   immediate, because stream order already serializes the old use before
//!   the new one — exactly `cudaMallocAsync` semantics;
//! * device capacity accounting is preserved: `used_bytes` counts live
//!   allocations only, cached blocks are tracked separately (the cache
//!   itself has no ceiling), and a request that does not fit trims ready
//!   cached blocks — and, once, evicts the replicas no view holds (see
//!   [`crate::SimNode::drop_replicas`]) — before failing with the same
//!   `OutOfMemory` error the failure-injection tests rely on (now
//!   carrying pool diagnostics);
//! * blocks served from the cache are zeroed, so pooled and raw
//!   allocations are bit-identical to consumers.
//!
//! [`PoolStats`] exposes hit/miss counts, bytes served from cache, the
//! high-water mark, and reclaim latency; the bench harness and the SENSEI
//! profiler surface them per case.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::error::{Error, Result};
use crate::fault::{self, FaultInjector};
use crate::memory::{BufferGuard, CellBuffer, MemSpace, ReplicaOwner};
use crate::stream::StreamTimeline;

/// Size-class granularity in 64-bit cells: requests round up to the next
/// multiple, so buffers within one class share blocks.
const GRANULARITY: usize = 64;

/// The caching pool's one switch, a [`crate::NodeConfig`] field fixed when
/// the node is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Master switch. Disabled, every request is a raw allocation and
    /// released blocks are freed immediately (the pre-pool behaviour).
    pub enabled: bool,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { enabled: true }
    }
}

impl PoolConfig {
    /// The size class (in cells) a request of `len` cells is served from.
    pub fn class_cells(&self, len: usize) -> usize {
        if self.enabled {
            len.div_ceil(GRANULARITY) * GRANULARITY
        } else {
            len
        }
    }
}

/// Counters of one memory space's pool (or a sum over spaces).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from the cache (no raw allocation).
    pub hits: u64,
    /// Requests that fell through to a raw allocation.
    pub misses: u64,
    /// Bytes served from cached blocks.
    pub bytes_served_from_cache: u64,
    /// Raw allocations performed (equals `misses` while enabled).
    pub raw_allocs: u64,
    /// Bytes raw-allocated.
    pub raw_alloc_bytes: u64,
    /// Bytes currently held by live buffers.
    pub live_bytes: usize,
    /// Bytes currently sitting in free lists (ready or pending reclaim).
    pub cached_bytes: usize,
    /// Highest `live_bytes + cached_bytes` ever observed.
    pub high_water_bytes: usize,
    /// Blocks that transitioned pending → reusable (their last-use stream
    /// drained past the use).
    pub reclaims: u64,
    /// Total wall time blocks spent pending before reclaim.
    pub reclaim_latency: Duration,
    /// Cached blocks freed (capacity pressure or an explicit trim).
    pub trims: u64,
    /// Bytes freed by trimming.
    pub trimmed_bytes: u64,
}

impl PoolStats {
    /// Fraction of requests served from cache (0.0 when nothing happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Add another space's counters into this one (high-water marks add,
    /// so a total is an upper bound, not a node-wide simultaneous peak).
    pub fn accumulate(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bytes_served_from_cache += other.bytes_served_from_cache;
        self.raw_allocs += other.raw_allocs;
        self.raw_alloc_bytes += other.raw_alloc_bytes;
        self.live_bytes += other.live_bytes;
        self.cached_bytes += other.cached_bytes;
        self.high_water_bytes += other.high_water_bytes;
        self.reclaims += other.reclaims;
        self.reclaim_latency += other.reclaim_latency;
        self.trims += other.trims;
        self.trimmed_bytes += other.trimmed_bytes;
    }
}

/// Capacity callbacks a bounded space (a device) registers with the pool.
/// Spaces without hooks (the host) are uncapped.
pub(crate) struct SpaceHooks {
    /// Charge bytes unconditionally (cache hit: the bytes merely move from
    /// the cached ledger back to the live one).
    pub charge: Box<dyn Fn(usize) + Send + Sync>,
    /// Charge bytes if `live + cached + bytes` fits the capacity; on
    /// failure returns the bytes still free.
    pub try_charge: Box<dyn Fn(usize, usize) -> std::result::Result<(), usize> + Send + Sync>,
    /// Release previously charged bytes.
    pub release: Box<dyn Fn(usize) + Send + Sync>,
    /// A raw allocation happened (node stats accounting).
    pub on_raw_alloc: Box<dyn Fn(usize) + Send + Sync>,
}

struct Block {
    cells: Arc<[AtomicU64]>,
    bytes: usize,
}

struct PendingBlock {
    block: Block,
    stream_id: u64,
    /// The last-use stream's `submitted` watermark at release time; the
    /// block is reusable by other streams once `completed` reaches it.
    ready_at: u64,
    timeline: Arc<StreamTimeline>,
    released: Instant,
}

#[derive(Default)]
struct ClassList {
    ready: Vec<Block>,
    pending: Vec<PendingBlock>,
}

#[derive(Default)]
struct SpaceState {
    classes: HashMap<usize, ClassList>,
    stats: PoolStats,
    hooks: Option<SpaceHooks>,
}

/// The node-wide pool: one free-list set per memory space.
pub struct MemoryPool {
    config: PoolConfig,
    spaces: Mutex<HashMap<MemSpace, SpaceState>>,
    /// The allocations that hold replicas in other spaces (weakly): what
    /// capacity pressure and the end of a run evict from.
    replicated: Mutex<Vec<ReplicaOwner>>,
    fault: Arc<FaultInjector>,
}

/// Unified memory is homed on (and charged to) a device; pool it with
/// that device's space.
fn normalize(space: MemSpace) -> MemSpace {
    match space {
        MemSpace::Unified(d) => MemSpace::Device(d),
        other => other,
    }
}

impl MemoryPool {
    pub(crate) fn new(config: PoolConfig, fault: Arc<FaultInjector>) -> Arc<MemoryPool> {
        Arc::new(MemoryPool {
            config,
            spaces: Mutex::new(HashMap::new()),
            replicated: Mutex::new(Vec::new()),
            fault,
        })
    }

    pub(crate) fn register_space(&self, space: MemSpace, hooks: SpaceHooks) {
        self.spaces.lock().entry(normalize(space)).or_default().hooks = Some(hooks);
    }

    /// Serve an allocation of `len` cells in `space`, preferring a cached
    /// block. `stream` is the requesting stream, if any: pending blocks
    /// whose last use was on that same stream are reusable immediately.
    ///
    /// Returns the buffer and whether a raw allocation was performed (the
    /// caller charges the modeled `alloc_overhead` only then).
    pub(crate) fn alloc(
        self: &Arc<Self>,
        space: MemSpace,
        len: usize,
        stream: Option<(u64, Arc<StreamTimeline>)>,
    ) -> Result<(CellBuffer, bool)> {
        let key = normalize(space);
        let class = self.config.class_cells(len);
        let bytes = class * 8;

        // Transient allocation failure: fails before any ledger movement,
        // so a retried request sees the pool exactly as it was.
        self.fault.check(fault::site::POOL_ALLOC)?;

        let mut spaces = self.spaces.lock();
        let state = spaces.entry(key).or_default();
        let SpaceState { classes, stats, hooks } = state;

        // Forced OOM: reports the space's *real* ledger so diagnostics
        // stay truthful even for injected failures.
        if self.fault.fires(fault::site::POOL_OOM) {
            return Err(Error::OutOfMemory {
                device: key.device().unwrap_or(usize::MAX),
                requested: bytes,
                free: 0,
                live_bytes: stats.live_bytes,
                cached_bytes: stats.cached_bytes,
                high_water_bytes: stats.high_water_bytes,
                pool_hits: stats.hits,
                pool_misses: stats.misses,
            });
        }

        let mut served: Option<Block> = None;
        if self.config.enabled {
            let list = classes.entry(class).or_default();
            harvest(list, stats);
            if let Some(block) = list.ready.pop() {
                served = Some(block);
            } else if let Some((stream_id, _)) = &stream {
                // Same-stream reuse: in-order execution serializes the
                // block's old use before anything the requester submits.
                if let Some(i) = list.pending.iter().position(|p| p.stream_id == *stream_id) {
                    let p = list.pending.swap_remove(i);
                    stats.reclaims += 1;
                    stats.reclaim_latency += p.released.elapsed();
                    served = Some(p.block);
                }
            }
        }

        if let Some(block) = served {
            stats.hits += 1;
            stats.bytes_served_from_cache += bytes as u64;
            stats.cached_bytes -= block.bytes;
            if let Some(h) = hooks {
                (h.charge)(block.bytes);
            }
            stats.live_bytes += block.bytes;
            // Zero the block: pooled and raw allocations are bit-identical.
            for c in block.cells.iter() {
                c.store(0, std::sync::atomic::Ordering::Relaxed);
            }
            let guard = self.make_guard(key, class, block.bytes, block.cells.clone());
            return Ok((CellBuffer::from_parts(block.cells, len, space, Some(guard)), false));
        }

        stats.misses += 1;
        let mut evicted = false;
        loop {
            let SpaceState { classes, stats, hooks } = spaces.entry(key).or_default();
            let Some(h) = hooks else { break };
            let Err(free) = (h.try_charge)(bytes, stats.cached_bytes) else {
                (h.on_raw_alloc)(bytes);
                break;
            };
            if trim_one(classes, stats) {
                continue;
            }
            if !evicted {
                // Last resort before OOM: replicas nothing holds go back
                // to the free lists, where the next round trims them.
                // Their release takes the pool lock, so let go of it.
                evicted = true;
                drop(spaces);
                self.evict_replicas(Some(key));
                spaces = self.spaces.lock();
                continue;
            }
            return Err(Error::OutOfMemory {
                device: key.device().unwrap_or(usize::MAX),
                requested: bytes,
                free,
                live_bytes: stats.live_bytes,
                cached_bytes: stats.cached_bytes,
                high_water_bytes: stats.high_water_bytes,
                pool_hits: stats.hits,
                pool_misses: stats.misses,
            });
        }
        let stats = &mut spaces.entry(key).or_default().stats;
        stats.raw_allocs += 1;
        stats.raw_alloc_bytes += bytes as u64;
        stats.live_bytes += bytes;
        stats.high_water_bytes = stats.high_water_bytes.max(stats.live_bytes + stats.cached_bytes);

        let cells: Arc<[AtomicU64]> = (0..class).map(|_| AtomicU64::new(0)).collect();
        let guard = self.make_guard(key, class, bytes, cells.clone());
        Ok((CellBuffer::from_parts(cells, len, space, Some(guard)), true))
    }

    fn make_guard(
        self: &Arc<Self>,
        key: MemSpace,
        class: usize,
        bytes: usize,
        cells: Arc<[AtomicU64]>,
    ) -> Arc<dyn BufferGuard> {
        Arc::new(PoolGuard {
            pool: self.clone(),
            key,
            class,
            bytes,
            cells,
            last_use: Mutex::new(None),
        })
    }

    /// Return a block to the pool (last buffer clone / view dropped).
    fn release(
        &self,
        key: MemSpace,
        class: usize,
        bytes: usize,
        cells: Arc<[AtomicU64]>,
        last_use: Option<(u64, Arc<StreamTimeline>)>,
    ) {
        let mut spaces = self.spaces.lock();
        let state = spaces.entry(key).or_default();
        state.stats.live_bytes = state.stats.live_bytes.saturating_sub(bytes);
        if self.config.enabled {
            state.stats.cached_bytes += bytes;
            let block = Block { cells, bytes };
            let list = state.classes.entry(class).or_default();
            match last_use {
                Some((stream_id, timeline)) => {
                    let ready_at = timeline.submitted();
                    if timeline.completed() >= ready_at {
                        list.ready.push(block);
                    } else {
                        list.pending.push(PendingBlock {
                            block,
                            stream_id,
                            ready_at,
                            timeline,
                            released: Instant::now(),
                        });
                    }
                }
                None => list.ready.push(block),
            }
        }
        // Release the capacity charge *after* the cached ledger is updated:
        // a concurrent observer may transiently overcount, never under.
        if let Some(h) = &state.hooks {
            (h.release)(bytes);
        }
    }

    /// Remember that an allocation now holds replicas.
    pub(crate) fn track_replicas(&self, owner: ReplicaOwner) {
        let mut owners = self.replicated.lock();
        if owners.len() == owners.capacity() {
            // About to grow: forget the allocations that have died.
            owners.retain(ReplicaOwner::is_alive);
        }
        owners.push(owner);
    }

    /// Drop every replica no view (and no queued fill) holds, in `space`
    /// or on the whole node; their blocks return to the free lists.
    pub(crate) fn evict_replicas(&self, space: Option<MemSpace>) {
        self.replicated.lock().retain(|owner| owner.evict(space));
    }

    /// Counters of one space (unified spaces report with their device).
    pub fn stats(&self, space: MemSpace) -> PoolStats {
        self.with_stats(space, |stats| stats)
    }

    /// Run `f` on one space's counters while the pool lock is held, so
    /// whatever else `f` reads that only moves under that lock (a device's
    /// capacity charge) belongs to the same instant.
    pub(crate) fn with_stats<R>(&self, space: MemSpace, f: impl FnOnce(PoolStats) -> R) -> R {
        let spaces = self.spaces.lock();
        f(spaces.get(&normalize(space)).map(|s| s.stats).unwrap_or_default())
    }

    /// Sum of all spaces' counters.
    pub fn stats_total(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for state in self.spaces.lock().values() {
            total.accumulate(&state.stats);
        }
        total
    }

    /// Free every reclaimable cached block of `space` (explicit trim; the
    /// analogue of `cudaMemPoolTrimTo(0)`).
    pub fn trim(&self, space: MemSpace) {
        let mut spaces = self.spaces.lock();
        if let Some(state) = spaces.get_mut(&normalize(space)) {
            let SpaceState { classes, stats, .. } = state;
            while trim_one(classes, stats) {}
        }
    }

    /// Bytes currently cached for `space`.
    pub fn cached_bytes(&self, space: MemSpace) -> usize {
        self.stats(space).cached_bytes
    }
}

/// Promote pending blocks whose last-use stream has drained past the use.
fn harvest(list: &mut ClassList, stats: &mut PoolStats) {
    let mut i = 0;
    while i < list.pending.len() {
        if list.pending[i].timeline.completed() >= list.pending[i].ready_at {
            let p = list.pending.swap_remove(i);
            stats.reclaims += 1;
            stats.reclaim_latency += p.released.elapsed();
            list.ready.push(p.block);
        } else {
            i += 1;
        }
    }
}

/// Free one cached block (largest class first), harvesting pendings so
/// completed-but-unpromoted blocks count as trimmable. Returns false when
/// nothing reclaimable is cached.
fn trim_one(classes: &mut HashMap<usize, ClassList>, stats: &mut PoolStats) -> bool {
    for list in classes.values_mut() {
        harvest(list, stats);
    }
    let victim = classes
        .iter_mut()
        .filter(|(_, list)| !list.ready.is_empty())
        .max_by_key(|(class, _)| **class);
    // Checked pop: the filter above guarantees a non-empty ready list,
    // but an OOM-path reclaim must degrade to "nothing trimmable" rather
    // than panic if that invariant is ever violated.
    match victim.and_then(|(_, list)| list.ready.pop()) {
        Some(block) => {
            stats.cached_bytes -= block.bytes;
            stats.trims += 1;
            stats.trimmed_bytes += block.bytes as u64;
            true
        }
        None => false,
    }
}

/// Guard attached to every pooled buffer: remembers the last stream that
/// touched the allocation and, on final drop, hands the block back to the
/// pool (which re-lists it stream-ordered) and releases the capacity
/// charge.
struct PoolGuard {
    pool: Arc<MemoryPool>,
    key: MemSpace,
    class: usize,
    bytes: usize,
    cells: Arc<[AtomicU64]>,
    last_use: Mutex<Option<(u64, Arc<StreamTimeline>)>>,
}

impl BufferGuard for PoolGuard {
    fn note_stream_use(&self, stream_id: u64, timeline: &Arc<StreamTimeline>) {
        *self.last_use.lock() = Some((stream_id, timeline.clone()));
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let last_use = self.last_use.lock().take();
        self.pool.release(self.key, self.class, self.bytes, self.cells.clone(), last_use);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::node::{NodeConfig, SimNode};
    use crate::timemodel::{DeviceParams, KernelCost};

    fn pooled_node(n: usize) -> Arc<SimNode> {
        SimNode::new(NodeConfig::fast_test(n))
    }

    #[test]
    fn requests_round_up_to_size_classes() {
        let cfg = PoolConfig::default();
        assert_eq!(cfg.class_cells(0), 0);
        assert_eq!(cfg.class_cells(1), 64);
        assert_eq!(cfg.class_cells(64), 64);
        assert_eq!(cfg.class_cells(65), 128);
        let raw = PoolConfig { enabled: false };
        assert_eq!(raw.class_cells(65), 65);
    }

    #[test]
    fn reuse_within_a_class_is_a_hit() {
        let node = pooled_node(1);
        let dev = node.device(0).unwrap();
        let a = dev.alloc_f64(10).unwrap(); // class 64
        drop(a);
        let b = dev.alloc_f64(40).unwrap(); // same class -> cache hit
        let s = dev.pool_stats();
        assert_eq!(s.raw_allocs, 1, "second request must be served from cache");
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.bytes_served_from_cache, 64 * 8);
        assert_eq!(s.live_bytes, 64 * 8);
        assert_eq!(s.cached_bytes, 0);
        assert_eq!(s.high_water_bytes, 64 * 8);
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
        drop(b);
    }

    #[test]
    fn pooled_blocks_are_zeroed_on_reuse() {
        let node = pooled_node(1);
        let dev = node.device(0).unwrap();
        let s = dev.create_stream();
        let a = dev.alloc_f64(8).unwrap();
        let av = a.clone();
        s.launch("dirty", KernelCost::ZERO, move |scope| {
            av.f64_view(scope)?.fill(3.25);
            Ok(())
        })
        .unwrap();
        s.synchronize().unwrap();
        drop(a);
        let b = dev.alloc_f64(8).unwrap();
        assert_eq!(dev.pool_stats().hits, 1, "same class must be served from cache");
        let host = node.host_alloc_f64(8);
        s.copy(&b, &host).unwrap();
        s.synchronize().unwrap();
        assert_eq!(host.host_f64().unwrap().to_vec(), vec![0.0; 8], "reused block must be zeroed");
    }

    #[test]
    fn cross_stream_reuse_waits_for_the_last_use_stream() {
        let node = pooled_node(1);
        let dev = node.device(0).unwrap();
        let s = dev.create_stream();
        let gate = Event::new();
        let done = Event::new();

        let buf = dev.alloc_f64(32).unwrap();
        let bv = buf.clone();
        s.launch("use", KernelCost::ZERO, move |scope| {
            bv.f64_view(scope)?.set(0, 1.0);
            Ok(())
        })
        .unwrap();
        s.record(&done).unwrap();
        s.wait_event(&gate).unwrap(); // parks the worker: stream not drained
        done.wait(); // the kernel itself has completed
        drop(buf); // freed with the stream still blocked -> pending

        // A requester with no stream affinity must NOT get the pending
        // block: its last-use stream has not drained past the use.
        let other = dev.alloc_f64(32).unwrap();
        let stats = dev.pool_stats();
        assert_eq!(stats.hits, 0, "pending block must not be handed out cross-stream");
        assert_eq!(stats.raw_allocs, 2);

        // The same stream may reuse it immediately (in-order execution
        // serializes the old use before anything submitted after).
        let same = dev.alloc_cells_on_stream(32, &s).unwrap();
        assert_eq!(dev.pool_stats().hits, 1, "same-stream reuse is immediate");

        // Unblock and drain the stream: the next release->acquire cycle
        // reclaims normally.
        gate.signal();
        s.synchronize().unwrap();
        drop(same);
        drop(other);
        let final_alloc = dev.alloc_f64(32).unwrap();
        let stats = dev.pool_stats();
        assert_eq!(stats.hits, 2, "drained stream's block is reusable by anyone");
        assert!(stats.reclaims >= 1, "pending->ready transitions are counted");
        drop(final_alloc);
    }

    #[test]
    fn capacity_pressure_trims_cached_blocks_before_failing() {
        let cfg = NodeConfig {
            num_devices: 1,
            device: DeviceParams { memory_bytes: 1024, ..DeviceParams::default() },
            time_scale: 0.0,
            ..NodeConfig::default()
        };
        let node = SimNode::new(cfg);
        let dev = node.device(0).unwrap();
        let a = dev.alloc_f64(64).unwrap(); // 512 B live
        drop(a); // -> 512 B cached
        assert_eq!(dev.used_bytes(), 0);
        assert_eq!(dev.pool_stats().cached_bytes, 512);
        // 128 cells (1024 B) only fits if the cached block is trimmed.
        let big = dev.alloc_f64(128).unwrap();
        assert_eq!(dev.used_bytes(), 1024);
        let s = dev.pool_stats();
        assert_eq!(s.cached_bytes, 0, "cached block trimmed under pressure");
        assert!(s.trims >= 1);
        assert_eq!(s.trimmed_bytes, 512);
        drop(big);
    }

    #[test]
    fn oom_reports_pool_diagnostics() {
        let cfg = NodeConfig {
            num_devices: 1,
            device: DeviceParams { memory_bytes: 1024, ..DeviceParams::default() },
            time_scale: 0.0,
            ..NodeConfig::default()
        };
        let node = SimNode::new(cfg);
        let dev = node.device(0).unwrap();
        let _a = dev.alloc_f64(128).unwrap(); // fills the device
        match dev.alloc_f64(64).unwrap_err() {
            Error::OutOfMemory {
                device,
                requested,
                free,
                live_bytes,
                cached_bytes,
                high_water_bytes,
                pool_hits,
                pool_misses,
            } => {
                assert_eq!(device, 0);
                assert_eq!(requested, 512);
                assert_eq!(free, 0);
                assert_eq!(live_bytes, 1024);
                assert_eq!(cached_bytes, 0);
                assert_eq!(high_water_bytes, 1024);
                assert_eq!(pool_hits, 0);
                assert_eq!(pool_misses, 2);
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
    }

    #[test]
    fn disabled_pool_goes_raw() {
        let node = SimNode::new(NodeConfig {
            pool: PoolConfig { enabled: false },
            ..NodeConfig::fast_test(1)
        });
        let dev = node.device(0).unwrap();
        let a = dev.alloc_f64(10).unwrap();
        assert_eq!(dev.used_bytes(), 10 * 8, "no size class: the request as asked");
        drop(a);
        let b = dev.alloc_f64(10).unwrap();
        drop(b);
        let s = dev.pool_stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.cached_bytes, 0, "released blocks are freed, not cached");
        assert_eq!(s.trims, 0, "nothing cached, so nothing trimmed");
        assert_eq!(s.raw_allocs, 2);
    }

    #[test]
    fn explicit_trim_releases_everything_reclaimable() {
        let node = pooled_node(1);
        let dev = node.device(0).unwrap();
        let bufs: Vec<_> = (0..3).map(|_| dev.alloc_f64(64).unwrap()).collect();
        drop(bufs);
        assert_eq!(dev.pool_stats().cached_bytes, 3 * 512);
        node.pool().trim(MemSpace::Device(0));
        assert_eq!(dev.pool_stats().cached_bytes, 0);
    }

    #[test]
    fn host_allocations_are_pooled_too() {
        let node = pooled_node(1);
        let a = node.host_alloc_f64(100); // class 128
        drop(a);
        let b = node.host_alloc_f64(128);
        let s = node.pool_stats(MemSpace::Host);
        assert_eq!(s.hits, 1);
        assert_eq!(s.raw_allocs, 1);
        drop(b);
    }

    #[test]
    fn unified_memory_pools_with_its_home_device() {
        let node = pooled_node(1);
        let dev = node.device(0).unwrap();
        let u = dev.alloc_unified(64).unwrap();
        assert_eq!(u.space(), MemSpace::Unified(0));
        assert_eq!(dev.used_bytes(), 512);
        drop(u);
        assert_eq!(dev.used_bytes(), 0);
        let d = dev.alloc_f64(64).unwrap(); // same class, same space key
        assert_eq!(dev.pool_stats().hits, 1, "unified block reused for a device request");
        drop(d);
    }

    #[test]
    fn stats_total_sums_spaces() {
        let node = pooled_node(2);
        let _a = node.device(0).unwrap().alloc_f64(64).unwrap();
        let _b = node.device(1).unwrap().alloc_f64(64).unwrap();
        let _h = node.host_alloc_f64(64);
        let total = node.pool_stats_total();
        assert_eq!(total.raw_allocs, 3);
        assert_eq!(total.live_bytes, 3 * 512);
    }
}
