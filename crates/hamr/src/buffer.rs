//! The HAMR buffer: a typed array with host/device memory management.

use std::marker::PhantomData;
use std::sync::Arc;

use devsim::{CellBuffer, KernelCost, MemSpace, PinStats, SimNode};
use parking_lot::RwLock;

use crate::access::AccessView;
use crate::allocator::{Allocator, Pm};
use crate::element::Element;
use crate::error::{Error, Result};
use crate::stream::{HamrStream, StreamMode};

/// A typed array managed by the heterogeneous memory resource.
///
/// This is the Rust counterpart of the storage inside
/// `svtkHAMRDataArray`: it knows which [`Allocator`] (and therefore which
/// PM) owns the memory, where the data currently resides, which
/// [`HamrStream`] orders its operations, and whether operations are
/// synchronous or asynchronous ([`StreamMode`]).
pub struct HamrBuffer<T: Element> {
    node: Arc<SimNode>,
    /// The managed cells; where they live is the buffer's residency.
    cells: RwLock<CellBuffer>,
    len: usize,
    allocator: Allocator,
    stream: HamrStream,
    mode: StreamMode,
    _marker: PhantomData<T>,
}

impl<T: Element> HamrBuffer<T> {
    /// Allocate a zero-initialized buffer of `len` elements.
    ///
    /// `device` selects the target device for device allocators (the C++
    /// API uses the *currently active* device; an explicit parameter is
    /// the Rust-idiomatic spelling of the same control). Asynchronous
    /// allocators require an explicit `stream`, as in the paper.
    pub fn new(
        node: Arc<SimNode>,
        len: usize,
        allocator: Allocator,
        device: Option<usize>,
        stream: HamrStream,
        mode: StreamMode,
    ) -> Result<Self> {
        if allocator.is_stream_ordered() && stream.is_default() {
            return Err(Error::AsyncNeedsStream { allocator: allocator.name() });
        }
        let cells = match (allocator.is_device(), device) {
            (true, Some(d)) if allocator.is_unified() => {
                // Universally addressable memory: homed on the device but
                // directly accessible everywhere.
                node.device(d)?.alloc_unified(len)?
            }
            (true, Some(d)) if allocator.is_stream_ordered() => {
                // cudaMallocAsync-class allocators allocate *on the
                // stream*: the pool may immediately recycle a block whose
                // last use was on that same stream.
                let s = stream.resolve(&node, d)?;
                node.device(d)?.alloc_cells_on_stream(len, &s)?
            }
            (true, Some(d)) => node.device(d)?.alloc_cells(len)?,
            (true, None) => {
                return Err(Error::PlacementMismatch {
                    allocator: allocator.name(),
                    wanted_device: false,
                })
            }
            (false, None) => node.try_host_alloc_f64(len)?,
            (false, Some(_)) => {
                return Err(Error::PlacementMismatch {
                    allocator: allocator.name(),
                    wanted_device: true,
                })
            }
        };
        Ok(HamrBuffer {
            node,
            cells: RwLock::new(cells),
            len,
            allocator,
            stream,
            mode,
            _marker: PhantomData,
        })
    }

    /// Allocate and fill every element with `value`. Device fills run as a
    /// kernel on the buffer's stream; in [`StreamMode::Async`] the fill
    /// may still be in flight when this returns.
    pub fn new_init(
        node: Arc<SimNode>,
        len: usize,
        value: T,
        allocator: Allocator,
        device: Option<usize>,
        stream: HamrStream,
        mode: StreamMode,
    ) -> Result<Self> {
        let buf = Self::new(node, len, allocator, device, stream, mode)?;
        buf.fill(value)?;
        Ok(buf)
    }

    /// Allocate and initialize from host data (deep copy).
    pub fn from_slice(
        node: Arc<SimNode>,
        data: &[T],
        allocator: Allocator,
        device: Option<usize>,
        stream: HamrStream,
        mode: StreamMode,
    ) -> Result<Self> {
        let buf = Self::new(node.clone(), data.len(), allocator, device, stream, mode)?;
        {
            let cells = buf.cells.read();
            match cells.space().device() {
                None => {
                    let v = cells.host_u64()?;
                    for (i, x) in data.iter().enumerate() {
                        v.set(i, x.to_cell());
                    }
                }
                Some(d) => {
                    // Stage on the host, then an ordered h2d copy.
                    let staging = node.try_host_alloc_f64(data.len())?;
                    let v = staging.host_u64()?;
                    for (i, x) in data.iter().enumerate() {
                        v.set(i, x.to_cell());
                    }
                    let stream = buf.stream.resolve(&node, d)?;
                    stream.copy(&staging, &cells)?;
                    if buf.mode == StreamMode::Sync {
                        stream.synchronize()?;
                    }
                }
            }
        }
        Ok(buf)
    }

    /// Zero-copy adoption of externally allocated memory (the paper's
    /// Listing 1): wrap `cells` without copying. The adopted memory's
    /// life cycle is shared — it is freed when the last holder (simulation
    /// or HAMR) drops its handle. `allocator` records which PM allocated
    /// the memory so later accesses know how to interoperate with it.
    pub fn adopt(
        node: Arc<SimNode>,
        cells: CellBuffer,
        allocator: Allocator,
        stream: HamrStream,
        mode: StreamMode,
    ) -> Result<Self> {
        if allocator.is_stream_ordered() && stream.is_default() {
            return Err(Error::AsyncNeedsStream { allocator: allocator.name() });
        }
        let device = cells.space().device();
        if allocator.is_device() != device.is_some() {
            return Err(Error::PlacementMismatch {
                allocator: allocator.name(),
                wanted_device: device.is_some(),
            });
        }
        let len = cells.len();
        Ok(HamrBuffer {
            node,
            cells: RwLock::new(cells),
            len,
            allocator,
            stream,
            mode,
            _marker: PhantomData,
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The allocator that owns the memory.
    pub fn allocator(&self) -> Allocator {
        self.allocator
    }

    /// The programming model managing the memory.
    pub fn pm(&self) -> Pm {
        self.allocator.pm()
    }

    /// Current residency: `None` = host, `Some(d)` = device `d`.
    pub fn device(&self) -> Option<usize> {
        self.cells.read().space().device()
    }

    /// The stream ordering this buffer's operations.
    pub fn stream(&self) -> &HamrStream {
        &self.stream
    }

    /// The synchronization mode.
    pub fn mode(&self) -> StreamMode {
        self.mode
    }

    /// The node this buffer lives on.
    pub fn node(&self) -> &Arc<SimNode> {
        &self.node
    }

    /// Direct access to the managed cells — the `GetData()` fast path used
    /// when the caller knows location and PM (Listing 3, line 24).
    pub fn data(&self) -> CellBuffer {
        self.cells.read().clone()
    }

    /// The write generation of the managed allocation: bumped by every
    /// mutable access (host write views, kernel views, copies landing
    /// here). The counter lives on the allocation itself, so it survives
    /// adoption into new wrappers — re-adopting the same simulation
    /// memory each step observes one continuous generation sequence.
    pub fn write_generation(&self) -> u64 {
        self.cells.read().generation()
    }

    /// Process-unique identity of the managed allocation. Together with
    /// [`write_generation`](Self::write_generation) this lets a consumer
    /// decide "same data I already copied" vs "new or modified data".
    pub fn allocation_id(&self) -> u64 {
        self.cells.read().alloc_id()
    }

    /// A zero-copy copy-on-write share of this buffer, pinned to its
    /// current contents.
    ///
    /// The returned buffer aliases the same cells until the owner writes
    /// again; the first such write lazily materializes a pre-write copy
    /// (reported into `stats`) that the share's reads route to from then
    /// on. The share's operations are ordered on `stream` — typically a
    /// dedicated snapshot copy stream — so consumers fetching through it
    /// never serialize on the owner's compute stream.
    pub fn cow_share(&self, stats: &Arc<PinStats>, stream: HamrStream) -> HamrBuffer<T> {
        HamrBuffer {
            node: self.node.clone(),
            cells: RwLock::new(self.cells.read().cow_pinned(stats)),
            len: self.len,
            allocator: self.allocator,
            stream,
            mode: self.mode,
            _marker: PhantomData,
        }
    }

    /// Deactivate the CoW pin this buffer holds (if any): the holder
    /// promises not to read through it again, so the owner's later writes
    /// skip the lazy fault copy.
    pub fn release_cow(&self) {
        self.cells.read().release_pin();
    }

    /// Wait until all in-flight operations on this buffer's stream have
    /// completed (the paper's `Synchronize()`), and with them every fill
    /// of the allocation's replicas — whichever stream carries it: the
    /// target device's default stream for a default-stream host buffer,
    /// or another wrapper's stream when that wrapper's request moved the
    /// data this one's was granted.
    pub fn synchronize(&self) -> Result<()> {
        match self.stream.get() {
            Some(s) => s.synchronize()?,
            None => {
                // Default-stream buffers synchronize their device's default
                // stream; host-resident ones have no stream of their own.
                if let Some(d) = self.device() {
                    self.node.device(d)?.default_stream().synchronize()?;
                }
            }
        }
        self.cells.read().sync_replicas();
        Ok(())
    }

    /// Fill every element with `value` (host write or device kernel,
    /// ordered on the buffer's stream).
    pub fn fill(&self, value: T) -> Result<()> {
        let cells = self.cells.read();
        match cells.space().device() {
            None => {
                let v = cells.host_u64()?;
                let cell = value.to_cell();
                for i in 0..v.len() {
                    v.set(i, cell);
                }
                Ok(())
            }
            Some(d) => {
                let stream = self.stream.resolve(&self.node, d)?;
                let cells = cells.clone();
                let cell = value.to_cell();
                stream.launch(
                    "hamr_fill",
                    KernelCost::bytes((self.len * 8) as f64),
                    move |scope| {
                        let v = cells.u64_view(scope)?;
                        for i in 0..v.len() {
                            v.set(i, cell);
                        }
                        Ok(())
                    },
                )?;
                if self.mode == StreamMode::Sync {
                    stream.synchronize()?;
                }
                Ok(())
            }
        }
    }

    /// A view of the data accessible from host code (`GetHostAccessible`).
    ///
    /// Zero-copy when the data is host-resident; otherwise the view is of
    /// the allocation's host replica (see [`Self::replica`]), ordered on
    /// the buffer's stream; synchronize first in async mode.
    pub fn host_accessible(&self) -> Result<AccessView<T>> {
        let cells = self.cells.read();
        let replica = match cells.space() {
            // Host memory and universally addressable memory are granted
            // in place; only plain device memory moves.
            MemSpace::Host | MemSpace::Unified(_) => {
                return Ok(AccessView::new(cells.clone(), true, false))
            }
            MemSpace::Device(d) => self.replica(&cells, None, d)?,
        };
        Ok(AccessView::new(replica, false, false))
    }

    /// A view of the data accessible from `pm` code on `device`
    /// (`GetDeviceAccessible` / `GetCUDAAccessible` / ...).
    ///
    /// Zero-copy when the data already resides on `device` — including
    /// when `pm` differs from the managing PM, in which case the grant is
    /// flagged [`AccessView::pm_converted`]. Otherwise the view is of the
    /// allocation's replica on `device` (h2d or d2d).
    pub fn device_accessible(&self, device: usize, pm: Pm) -> Result<AccessView<T>> {
        let cells = self.cells.read();
        let pm_converted = pm != self.allocator.pm();
        // Universally addressable memory is in place on every device.
        if cells.space().device_accessible(device) {
            return Ok(AccessView::new(cells.clone(), true, pm_converted));
        }
        // An inter-device move is ordered on the source device's stream,
        // a host-to-device one on the target's.
        let on = cells.space().device().unwrap_or(device);
        let replica = self.replica(&cells, Some(device), on)?;
        Ok(AccessView::new(replica, false, pm_converted))
    }

    /// The one cross-space path behind both access calls: the cells of
    /// the allocation's replica on `target` (`None` = host), asked for on
    /// this buffer's stream as resolved for `stream_device`. The node
    /// keeps the replica with the allocation, tagged with the write
    /// generation it was filled at, so the request is a hit (the replica
    /// is current: nothing allocated, nothing copied), a refresh (stale:
    /// re-copied) or a move (none yet: allocated, copied, kept) — decided
    /// in stream order, see [`SimNode::replica`]. Not a direct grant in
    /// any of the three: the view reads a copy.
    fn replica(
        &self,
        cells: &CellBuffer,
        target: Option<usize>,
        stream_device: usize,
    ) -> Result<CellBuffer> {
        let stream = self.stream.resolve(&self.node, stream_device)?;
        let replica = self.node.replica(cells, target, &stream)?;
        if self.mode == StreamMode::Sync {
            stream.synchronize()?;
        }
        Ok(replica)
    }

    /// Sugar: a CUDA-PM view on `device` (`GetCUDAAccessible`).
    pub fn cuda_accessible(&self, device: usize) -> Result<AccessView<T>> {
        self.device_accessible(device, Pm::Cuda)
    }

    /// Sugar: a HIP-PM view on `device`.
    pub fn hip_accessible(&self, device: usize) -> Result<AccessView<T>> {
        self.device_accessible(device, Pm::Hip)
    }

    /// Sugar: an OpenMP-offload view on `device`.
    pub fn openmp_accessible(&self, device: usize) -> Result<AccessView<T>> {
        self.device_accessible(device, Pm::OpenMp)
    }

    /// Sugar: a SYCL view on `device`.
    pub fn sycl_accessible(&self, device: usize) -> Result<AccessView<T>> {
        self.device_accessible(device, Pm::Sycl)
    }

    /// Sugar: a Kokkos view on `device`.
    pub fn kokkos_accessible(&self, device: usize) -> Result<AccessView<T>> {
        self.device_accessible(device, Pm::Kokkos)
    }

    /// Move the managed data itself (not a temporary) to `target`
    /// (`None` = host). Subsequent direct accesses see the new location;
    /// previously handed-out views keep the old allocation alive.
    pub fn move_to(&self, target: Option<usize>) -> Result<()> {
        let mut cells = self.cells.write();
        let resident = cells.space().device();
        if resident == target {
            return Ok(());
        }
        // Order the move on a stream touching whichever device is involved;
        // both sides on the host means there is nothing to move.
        let Some(stream_dev) = resident.or(target) else {
            return Ok(());
        };
        let stream = self.stream.resolve(&self.node, stream_dev)?;
        let new_cells = match target {
            None => self.node.try_host_alloc_f64(self.len)?,
            Some(d) => self.node.device(d)?.alloc_cells_on_stream(self.len, &stream)?,
        };
        stream.copy(&cells, &new_cells)?;
        stream.synchronize()?; // moves are always completed (they swap the canonical storage)
        *cells = new_cells;
        Ok(())
    }

    /// Copy the data out to a host `Vec`, synchronizing as needed.
    pub fn to_vec(&self) -> Result<Vec<T>> {
        let view = self.host_accessible()?;
        self.synchronize()?;
        view.to_vec()
    }
}

impl<T: Element> std::fmt::Debug for HamrBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HamrBuffer")
            .field("type", &T::TYPE_NAME)
            .field("len", &self.len)
            .field("allocator", &self.allocator.name())
            .field("device", &self.device())
            .field("mode", &self.mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devsim::NodeConfig;

    fn node(n: usize) -> Arc<SimNode> {
        SimNode::new(NodeConfig::fast_test(n))
    }

    fn dbuf(node: &Arc<SimNode>, dev: usize, data: &[f64]) -> HamrBuffer<f64> {
        HamrBuffer::from_slice(
            node.clone(),
            data,
            Allocator::Cuda,
            Some(dev),
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap()
    }

    #[test]
    fn host_allocators_allocate_on_host() {
        let n = node(1);
        for alloc in [Allocator::Malloc, Allocator::New, Allocator::CudaHostPinned] {
            let b: HamrBuffer<f64> = HamrBuffer::new(
                n.clone(),
                8,
                alloc,
                None,
                HamrStream::default_stream(),
                StreamMode::Sync,
            )
            .unwrap();
            assert_eq!(b.device(), None);
            assert_eq!(b.len(), 8);
            assert!(b.host_accessible().unwrap().is_direct());
        }
    }

    #[test]
    fn device_allocators_allocate_on_device() {
        let n = node(2);
        for alloc in [Allocator::Cuda, Allocator::CudaUva, Allocator::Hip, Allocator::OpenMp] {
            let b: HamrBuffer<f64> = HamrBuffer::new(
                n.clone(),
                8,
                alloc,
                Some(1),
                HamrStream::default_stream(),
                StreamMode::Sync,
            )
            .unwrap();
            assert_eq!(b.device(), Some(1));
            assert_eq!(b.pm(), alloc.pm());
        }
    }

    #[test]
    fn async_allocator_requires_stream() {
        let n = node(1);
        let err = HamrBuffer::<f64>::new(
            n.clone(),
            8,
            Allocator::CudaAsync,
            Some(0),
            HamrStream::default_stream(),
            StreamMode::Async,
        )
        .unwrap_err();
        assert!(matches!(err, Error::AsyncNeedsStream { .. }));

        let s = HamrStream::new(n.device(0).unwrap().create_stream());
        HamrBuffer::<f64>::new(n, 8, Allocator::CudaAsync, Some(0), s, StreamMode::Async).unwrap();
    }

    #[test]
    fn placement_mismatches_are_rejected() {
        let n = node(1);
        // Device allocator without a device.
        assert!(matches!(
            HamrBuffer::<f64>::new(
                n.clone(),
                4,
                Allocator::Cuda,
                None,
                HamrStream::default_stream(),
                StreamMode::Sync
            ),
            Err(Error::PlacementMismatch { .. })
        ));
        // Host allocator with a device.
        assert!(matches!(
            HamrBuffer::<f64>::new(
                n,
                4,
                Allocator::Malloc,
                Some(0),
                HamrStream::default_stream(),
                StreamMode::Sync
            ),
            Err(Error::PlacementMismatch { .. })
        ));
    }

    #[test]
    fn from_slice_roundtrips_through_device() {
        let n = node(1);
        let data = [1.5, -2.0, 3.25, 0.0];
        let b = dbuf(&n, 0, &data);
        assert_eq!(b.to_vec().unwrap(), data);
    }

    #[test]
    fn new_init_fills_on_device_and_host() {
        let n = node(1);
        let d: HamrBuffer<f64> = HamrBuffer::new_init(
            n.clone(),
            5,
            7.5,
            Allocator::Cuda,
            Some(0),
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap();
        assert_eq!(d.to_vec().unwrap(), vec![7.5; 5]);
        let h: HamrBuffer<i32> = HamrBuffer::new_init(
            n,
            3,
            -9,
            Allocator::Malloc,
            None,
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap();
        assert_eq!(h.to_vec().unwrap(), vec![-9; 3]);
    }

    #[test]
    fn host_access_of_host_data_is_zero_copy() {
        let n = node(1);
        let b: HamrBuffer<f64> = HamrBuffer::from_slice(
            n.clone(),
            &[1.0, 2.0],
            Allocator::Malloc,
            None,
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap();
        let before = n.stats();
        let v = b.host_accessible().unwrap();
        assert!(v.is_direct());
        assert_eq!(v.to_vec().unwrap(), vec![1.0, 2.0]);
        let after = n.stats();
        assert_eq!(before.total_copies(), after.total_copies(), "no copy for in-place access");
    }

    #[test]
    fn host_access_of_device_data_moves_into_temporary() {
        let n = node(1);
        let b = dbuf(&n, 0, &[4.0, 5.0]);
        let before = n.stats();
        let v = b.host_accessible().unwrap();
        b.synchronize().unwrap();
        assert!(!v.is_direct());
        assert_eq!(v.to_vec().unwrap(), vec![4.0, 5.0]);
        assert_eq!(n.stats().copies_d2h, before.copies_d2h + 1);
    }

    #[test]
    fn same_device_access_is_zero_copy_even_across_pms() {
        let n = node(1);
        // OpenMP-allocated data accessed from CUDA on the same device:
        // the paper's central interoperability scenario.
        let b: HamrBuffer<f64> = HamrBuffer::from_slice(
            n.clone(),
            &[9.0],
            Allocator::OpenMp,
            Some(0),
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap();
        let before = n.stats();
        let v = b.cuda_accessible(0).unwrap();
        assert!(v.is_direct());
        assert!(v.pm_converted());
        assert!(v.cells().same_allocation(&b.data()));
        assert_eq!(n.stats().total_copies(), before.total_copies());
    }

    #[test]
    fn cross_device_access_moves_d2d() {
        let n = node(3);
        let b = dbuf(&n, 1, &[1.0, 2.0, 3.0]);
        let before = n.stats();
        let v = b.cuda_accessible(2).unwrap();
        b.synchronize().unwrap();
        assert!(!v.is_direct());
        assert_eq!(v.space(), MemSpace::Device(2));
        assert_eq!(n.stats().copies_d2d, before.copies_d2d + 1);
        // The managed buffer itself has not moved.
        assert_eq!(b.device(), Some(1));
    }

    #[test]
    fn host_to_device_access_moves_h2d() {
        let n = node(2);
        let b: HamrBuffer<f64> = HamrBuffer::from_slice(
            n.clone(),
            &[6.0, 7.0],
            Allocator::New,
            None,
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap();
        let v = b.device_accessible(1, Pm::Hip).unwrap();
        assert!(!v.is_direct());
        assert!(v.pm_converted());
        assert_eq!(v.space(), MemSpace::Device(1));
        assert_eq!(n.stats().copies_h2d, 1);
    }

    #[test]
    fn adopt_is_zero_copy_with_shared_lifecycle() {
        let n = node(1);
        let dev = n.device(0).unwrap();
        // "Simulation" allocates and initializes device memory...
        let sim_mem = dev.alloc_f64(4).unwrap();
        let stream = dev.create_stream();
        let c = sim_mem.clone();
        stream
            .launch("init", KernelCost::ZERO, move |scope| {
                let v = c.f64_view(scope)?;
                for i in 0..v.len() {
                    v.set(i, -2.75);
                }
                Ok(())
            })
            .unwrap();
        stream.synchronize().unwrap();
        let used_before_adopt = dev.used_bytes();

        // ...and passes it to HAMR zero-copy (Listing 1).
        let b: HamrBuffer<f64> = HamrBuffer::adopt(
            n.clone(),
            sim_mem.clone(),
            Allocator::OpenMp,
            HamrStream::new(stream),
            StreamMode::Sync,
        )
        .unwrap();
        assert_eq!(dev.used_bytes(), used_before_adopt, "no new allocation");
        assert!(b.data().same_allocation(&sim_mem));
        assert_eq!(b.to_vec().unwrap(), vec![-2.75; 4]);

        // The simulation drops its handle; memory stays alive for HAMR.
        drop(sim_mem);
        assert_eq!(b.to_vec().unwrap(), vec![-2.75; 4]);
        // HAMR drops the last handle; the device memory is released.
        drop(b);
        assert_eq!(dev.used_bytes(), 0);
    }

    #[test]
    fn adopt_rejects_mismatched_allocator() {
        let n = node(1);
        let host_cells = n.host_alloc_f64(2);
        assert!(matches!(
            HamrBuffer::<f64>::adopt(
                n.clone(),
                host_cells,
                Allocator::Cuda,
                HamrStream::default_stream(),
                StreamMode::Sync
            ),
            Err(Error::PlacementMismatch { .. })
        ));
        let dev_cells = n.device(0).unwrap().alloc_f64(2).unwrap();
        assert!(matches!(
            HamrBuffer::<f64>::adopt(
                n,
                dev_cells,
                Allocator::Malloc,
                HamrStream::default_stream(),
                StreamMode::Sync
            ),
            Err(Error::PlacementMismatch { .. })
        ));
    }

    #[test]
    fn move_to_changes_residency() {
        let n = node(2);
        let b = dbuf(&n, 0, &[1.0, 2.0]);
        b.move_to(None).unwrap();
        assert_eq!(b.device(), None);
        assert!(b.host_accessible().unwrap().is_direct());
        assert_eq!(b.to_vec().unwrap(), vec![1.0, 2.0]);
        b.move_to(Some(1)).unwrap();
        assert_eq!(b.device(), Some(1));
        assert_eq!(b.to_vec().unwrap(), vec![1.0, 2.0]);
        // Moving to the current location is a no-op.
        let copies = n.stats().total_copies();
        b.move_to(Some(1)).unwrap();
        assert_eq!(n.stats().total_copies(), copies);
    }

    #[test]
    fn async_mode_requires_explicit_synchronize() {
        let n = node(1);
        let stream = HamrStream::new(n.device(0).unwrap().create_stream());
        let b: HamrBuffer<f64> = HamrBuffer::from_slice(
            n.clone(),
            &[0.5; 1000],
            Allocator::CudaAsync,
            Some(0),
            stream,
            StreamMode::Async,
        )
        .unwrap();
        // The access view may be in flight; after synchronize it is valid.
        let v = b.host_accessible().unwrap();
        b.synchronize().unwrap();
        assert_eq!(v.to_vec().unwrap(), vec![0.5; 1000]);
    }

    #[test]
    fn typed_buffers_roundtrip() {
        let n = node(1);
        let ints: HamrBuffer<i64> = HamrBuffer::from_slice(
            n.clone(),
            &[-5, 0, 7],
            Allocator::Cuda,
            Some(0),
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap();
        assert_eq!(ints.to_vec().unwrap(), vec![-5, 0, 7]);
        let bytes: HamrBuffer<u8> = HamrBuffer::from_slice(
            n,
            &[1, 2, 255],
            Allocator::Malloc,
            None,
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap();
        assert_eq!(bytes.to_vec().unwrap(), vec![1, 2, 255]);
    }

    #[test]
    fn replica_outlives_the_view_and_dies_with_the_allocation() {
        let n = node(2);
        let b = dbuf(&n, 0, &[1.0; 100]);
        let dev1 = n.device(1).unwrap();
        let before = dev1.used_bytes();
        let v = b.cuda_accessible(1).unwrap();
        assert!(!v.is_direct(), "a replica is a copy, never a direct grant");
        let replica_bytes = dev1.used_bytes() - before;
        assert!(replica_bytes > 0, "replica allocated on device 1");
        drop(v);
        assert_eq!(dev1.used_bytes(), before + replica_bytes, "kept for the next request");

        // The next request is granted the same block: no copy, no allocation.
        let (copies, requests) = (n.stats().total_copies(), dev1.pool_stats());
        let again = b.cuda_accessible(1).unwrap();
        assert!(!again.is_direct());
        assert_eq!(n.stats().total_copies(), copies);
        assert_eq!(n.stats().replica_hits, 1);
        let after = dev1.pool_stats();
        assert_eq!(after.hits + after.misses, requests.hits + requests.misses);
        drop(again);

        drop(b);
        assert_eq!(dev1.used_bytes(), before, "replica released with the allocation");
    }

    #[test]
    fn synchronize_waits_for_a_move_on_the_target_devices_default_stream() {
        // A host-resident, default-stream, asynchronous buffer has no
        // stream of its own: the h2d move of `device_accessible` rides
        // the target device's default stream, here behind a slow kernel.
        let n = SimNode::new(NodeConfig {
            device: devsim::DeviceParams { slots: 2, ..Default::default() },
            ..NodeConfig::fast_test(1)
        });
        let data = [3.0, 4.0, 5.0];
        let b: HamrBuffer<f64> = HamrBuffer::from_slice(
            n.clone(),
            &data,
            Allocator::Malloc,
            None,
            HamrStream::default_stream(),
            StreamMode::Async,
        )
        .unwrap();
        let dev = n.device(0).unwrap();
        dev.default_stream()
            .launch("busy", KernelCost::ZERO, |_| {
                std::thread::sleep(std::time::Duration::from_millis(50));
                Ok(())
            })
            .unwrap();
        let view = b.cuda_accessible(0).unwrap();
        b.synchronize().unwrap();
        assert!(dev.default_stream().is_idle(), "the move has landed");
        // A consumer on another stream of the device reads filled cells.
        let other = dev.create_stream();
        let out = n.host_alloc_f64(data.len());
        other.copy(view.cells(), &out).unwrap();
        other.synchronize().unwrap();
        assert_eq!(out.host_f64_ro().unwrap().to_vec(), data);
    }

    #[test]
    fn a_second_wrapper_on_another_stream_is_granted_the_first_ones_move() {
        // Two adoptions of one allocation (Newton++ re-adopts per call),
        // each with a stream of its own: the second request finds the
        // first one's replica still held and in flight, waits for it,
        // and moves nothing.
        let n = node(1);
        let dev = n.device(0).unwrap();
        let cells = dbuf(&n, 0, &[6.0; 8]).data();
        let adopt = |stream| {
            HamrBuffer::<f64>::adopt(
                n.clone(),
                cells.clone(),
                Allocator::Cuda,
                HamrStream::new(stream),
                StreamMode::Async,
            )
            .unwrap()
        };
        let (s1, s2) = (dev.create_stream(), dev.create_stream());
        let (w1, w2) = (adopt(s1.clone()), adopt(s2));
        let gate = devsim::Event::new();
        s1.wait_event(&gate).unwrap();
        let v1 = w1.host_accessible().unwrap();
        let second = std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let v2 = w2.host_accessible().unwrap();
                w2.synchronize().unwrap();
                v2.to_vec().unwrap()
            });
            gate.signal();
            worker.join().unwrap()
        });
        assert_eq!(second, vec![6.0; 8]);
        w1.synchronize().unwrap();
        assert_eq!(v1.to_vec().unwrap(), vec![6.0; 8]);
        assert_eq!(n.stats().copies_d2h, 1);
        assert_eq!(n.stats().replica_hits, 1);
    }

    #[test]
    fn uva_memory_is_accessible_everywhere_in_place() {
        let n = node(2);
        let b: HamrBuffer<f64> = HamrBuffer::from_slice(
            n.clone(),
            &[1.0, 2.0],
            Allocator::CudaUva,
            Some(0),
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap();
        let before = n.stats();
        // Host access: direct, no transfer.
        let hv = b.host_accessible().unwrap();
        assert!(hv.is_direct());
        assert_eq!(hv.to_vec().unwrap(), vec![1.0, 2.0]);
        // Access from the *other* device: also direct.
        let dv = b.device_accessible(1, Pm::Cuda).unwrap();
        assert!(dv.is_direct());
        assert_eq!(n.stats().total_copies(), before.total_copies(), "UVA never copies");
        // Capacity is charged to the home device and released on drop.
        assert!(n.device(0).unwrap().used_bytes() > 0);
        drop((b, hv, dv));
        assert_eq!(n.device(0).unwrap().used_bytes(), 0);
    }

    #[test]
    fn index_out_of_bounds_is_reported() {
        let n = node(1);
        let b: HamrBuffer<f64> = HamrBuffer::from_slice(
            n,
            &[1.0],
            Allocator::Malloc,
            None,
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap();
        let v = b.host_accessible().unwrap();
        assert_eq!(v.get(0).unwrap(), 1.0);
        assert!(matches!(v.get(1), Err(Error::IndexOutOfBounds { index: 1, len: 1 })));
    }
}
