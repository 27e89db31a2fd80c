//! A simulated accelerator: memory space, kernel slots, and streams.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::Result;
use crate::fault::FaultInjector;
use crate::memory::{CellBuffer, MemSpace};
use crate::pool::{MemoryPool, PoolStats, SpaceHooks};
use crate::sem::Semaphore;
use crate::stats::NodeStats;
use crate::stream::Stream;
use crate::timemodel::{self, DeviceParams, LinkParams};

/// Shared interior of a device, referenced by its streams.
pub(crate) struct DeviceCore {
    pub id: usize,
    pub params: DeviceParams,
    pub slots: Semaphore,
    used_bytes: Mutex<usize>,
}

/// A consistent snapshot of one device's memory ledger ([`Device::ledger`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLedger {
    /// Bytes held by live allocations (the capacity charge).
    pub used_bytes: usize,
    /// Bytes still allocatable: capacity minus live allocations minus
    /// pool-cached blocks (the latter are reclaimed under pressure, but
    /// they are not free *now*).
    pub free_bytes: usize,
    /// The pool's counters for this device's space (live, cached, ...).
    pub pool: PoolStats,
}

/// One simulated accelerator on a [`crate::SimNode`].
///
/// A device owns a bounded memory space (allocate with
/// [`Device::alloc_f64`] / [`Device::alloc_cells`]) and executes kernels
/// submitted through its [`Stream`]s. At most `params.slots` kernels run
/// concurrently; additional kernels queue, which is how a shared in situ
/// device slows down the simulation in the paper's *same device* placement.
///
/// Allocations flow through the node's stream-aware caching
/// [`MemoryPool`]; `used_bytes` counts *live* allocations (blocks sitting
/// in the pool's free lists are accounted separately and trimmed under
/// capacity pressure).
pub struct Device {
    core: Arc<DeviceCore>,
    stats: Arc<NodeStats>,
    pool: Arc<MemoryPool>,
    fault: Arc<FaultInjector>,
    link: LinkParams,
    time_scale: f64,
    default_stream: Mutex<Option<Arc<Stream>>>,
}

impl Device {
    pub(crate) fn new(
        id: usize,
        params: DeviceParams,
        stats: Arc<NodeStats>,
        pool: Arc<MemoryPool>,
        fault: Arc<FaultInjector>,
        link: LinkParams,
        time_scale: f64,
    ) -> Device {
        let core = Arc::new(DeviceCore {
            id,
            params,
            slots: Semaphore::new(params.slots),
            used_bytes: Mutex::new(0),
        });
        // Teach the pool this space's capacity accounting. The pool calls
        // these while holding its own lock; lock order is always
        // pool → device, so the getters below (device lock only) are safe.
        let charge = {
            let core = core.clone();
            Box::new(move |bytes: usize| {
                *core.used_bytes.lock() += bytes;
            })
        };
        let try_charge = {
            let core = core.clone();
            Box::new(move |bytes: usize, cached: usize| {
                let mut used = core.used_bytes.lock();
                if *used + cached + bytes > core.params.memory_bytes {
                    Err(core.params.memory_bytes.saturating_sub(*used + cached))
                } else {
                    *used += bytes;
                    Ok(())
                }
            })
        };
        let release = {
            let core = core.clone();
            Box::new(move |bytes: usize| {
                *core.used_bytes.lock() -= bytes;
            })
        };
        let on_raw_alloc = {
            let stats = stats.clone();
            Box::new(move |bytes: usize| {
                NodeStats::bump(&stats.device_allocs);
                NodeStats::add(&stats.device_alloc_bytes, bytes as u64);
            })
        };
        pool.register_space(
            MemSpace::Device(id),
            SpaceHooks { charge, try_charge, release, on_raw_alloc },
        );
        Device { core, stats, pool, fault, link, time_scale, default_stream: Mutex::new(None) }
    }

    /// This device's id on the node.
    pub fn id(&self) -> usize {
        self.core.id
    }

    /// The modeled device parameters.
    pub fn params(&self) -> &DeviceParams {
        &self.core.params
    }

    /// One reading of the device's memory ledger, taken under the pool's
    /// lock — the lock every capacity hook above runs under — so its
    /// fields are mutually consistent even while a stream thread is
    /// releasing blocks.
    pub fn ledger(&self) -> DeviceLedger {
        let capacity = self.core.params.memory_bytes;
        self.pool.with_stats(MemSpace::Device(self.core.id), |pool| {
            let used_bytes = *self.core.used_bytes.lock();
            DeviceLedger {
                used_bytes,
                free_bytes: capacity.saturating_sub(used_bytes + pool.cached_bytes),
                pool,
            }
        })
    }

    /// Bytes currently held by live allocations on the device.
    pub fn used_bytes(&self) -> usize {
        self.ledger().used_bytes
    }

    /// Bytes still allocatable (see [`DeviceLedger::free_bytes`]).
    pub fn free_bytes(&self) -> usize {
        self.ledger().free_bytes
    }

    /// This device's pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.ledger().pool
    }

    /// Allocate `len` 64-bit cells in this device's memory space.
    pub fn alloc_cells(&self, len: usize) -> Result<CellBuffer> {
        self.alloc_impl(MemSpace::Device(self.core.id), len, None)
    }

    /// Allocate `len` cells for use on `stream` (`cudaMallocAsync`): the
    /// pool may serve a block whose previous use was on that same stream
    /// without waiting for the stream to drain, since in-order execution
    /// already serializes the old use before the new one.
    pub fn alloc_cells_on_stream(&self, len: usize, stream: &Stream) -> Result<CellBuffer> {
        self.alloc_impl(MemSpace::Device(self.core.id), len, Some(stream))
    }

    /// Allocate `len` `f64` elements on this device.
    pub fn alloc_f64(&self, len: usize) -> Result<CellBuffer> {
        self.alloc_cells(len)
    }

    /// Allocate `len` cells of universally addressable (managed) memory
    /// homed on this device: directly accessible from host code and from
    /// kernels on any device (`cudaMallocManaged`). Charged against this
    /// device's capacity and pooled with its space.
    pub fn alloc_unified(&self, len: usize) -> Result<CellBuffer> {
        self.alloc_impl(MemSpace::Unified(self.core.id), len, None)
    }

    fn alloc_impl(
        &self,
        space: MemSpace,
        len: usize,
        stream: Option<&Stream>,
    ) -> Result<CellBuffer> {
        let token = stream.map(|s| s.use_token());
        let (buf, raw) = self.pool.alloc(space, len, token)?;
        if raw {
            // Only raw allocations pay the cudaMalloc-class overhead; pool
            // hits are the fast path the refactor exists to create.
            let d = timemodel::alloc_duration(&self.core.params, self.time_scale);
            if !d.is_zero() {
                std::thread::sleep(d);
            }
        }
        Ok(buf)
    }

    /// Create a new stream issuing to this device.
    pub fn create_stream(&self) -> Arc<Stream> {
        Stream::spawn(
            self.core.clone(),
            self.stats.clone(),
            self.fault.clone(),
            self.link,
            self.time_scale,
        )
    }

    /// The device's lazily created default stream (the "null stream").
    pub fn default_stream(&self) -> Arc<Stream> {
        let mut slot = self.default_stream.lock();
        slot.get_or_insert_with(|| {
            Stream::spawn(
                self.core.clone(),
                self.stats.clone(),
                self.fault.clone(),
                self.link,
                self.time_scale,
            )
        })
        .clone()
    }
}
