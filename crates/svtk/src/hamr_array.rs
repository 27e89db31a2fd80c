//! `svtkHAMRDataArray` — the heterogeneous data array.

use std::any::Any;
use std::ops::Deref;
use std::sync::Arc;

use devsim::{CellBuffer, SimNode};
use hamr::{Allocator, Element, HamrBuffer, HamrStream, StreamMode};

use crate::data_array::{ArrayRef, DataArray};

/// A data array backed by the HAMR memory resource — host *and* device
/// memory management plus PM interoperability behind the `svtkDataArray`
/// interface (the paper's HDA, §2).
///
/// Constructors mirror the `svtkHAMRDoubleArray::New` overloads:
/// allocate-and-own ([`HamrDataArray::new`], [`new_init`](Self::new_init),
/// [`from_slice`](Self::from_slice)) or adopt externally allocated memory
/// zero-copy with coordinated life-cycle management
/// ([`adopt`](Self::adopt), Listing 1).
///
/// The HDA accessors are its [`HamrBuffer`]'s, reached through `Deref`:
/// `arr.cuda_accessible(d)` is the paper's `GetCUDAAccessible`, and
/// `host_accessible`, `device_accessible`, the other PM views, `data`,
/// `synchronize`, `to_vec` and `write_generation` read the same way.
pub struct HamrDataArray<T: Element> {
    name: String,
    components: usize,
    buffer: Arc<HamrBuffer<T>>,
}

/// `svtkHAMRDoubleArray`.
pub type HamrDoubleArray = HamrDataArray<f64>;
/// `svtkHAMRFloatArray`.
pub type HamrFloatArray = HamrDataArray<f32>;
/// `svtkHAMRIntArray`.
pub type HamrIntArray = HamrDataArray<i32>;
/// `svtkHAMRIdTypeArray` (64-bit ids).
pub type HamrIdArray = HamrDataArray<i64>;
/// `svtkHAMRUnsignedCharArray`.
pub type HamrUCharArray = HamrDataArray<u8>;

impl<T: Element> HamrDataArray<T> {
    /// Allocate a zero-initialized array of `tuples * components` elements
    /// through `allocator` (on `device` for device allocators).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        node: Arc<SimNode>,
        tuples: usize,
        components: usize,
        allocator: Allocator,
        device: Option<usize>,
        stream: HamrStream,
        mode: StreamMode,
    ) -> hamr::Result<Arc<Self>> {
        let buffer = HamrBuffer::new(node, tuples * components, allocator, device, stream, mode)?;
        Ok(Arc::new(HamrDataArray { name: name.into(), components, buffer: Arc::new(buffer) }))
    }

    /// Allocate and fill with `value` (Listing 1's initialize-on-device).
    #[allow(clippy::too_many_arguments)]
    pub fn new_init(
        name: impl Into<String>,
        node: Arc<SimNode>,
        tuples: usize,
        components: usize,
        value: T,
        allocator: Allocator,
        device: Option<usize>,
        stream: HamrStream,
        mode: StreamMode,
    ) -> hamr::Result<Arc<Self>> {
        let buffer = HamrBuffer::new_init(
            node,
            tuples * components,
            value,
            allocator,
            device,
            stream,
            mode,
        )?;
        Ok(Arc::new(HamrDataArray { name: name.into(), components, buffer: Arc::new(buffer) }))
    }

    /// Allocate and deep-copy from host data.
    #[allow(clippy::too_many_arguments)]
    pub fn from_slice(
        name: impl Into<String>,
        node: Arc<SimNode>,
        data: &[T],
        components: usize,
        allocator: Allocator,
        device: Option<usize>,
        stream: HamrStream,
        mode: StreamMode,
    ) -> hamr::Result<Arc<Self>> {
        assert!(
            components > 0 && data.len().is_multiple_of(components),
            "data length must be a multiple of components"
        );
        let buffer = HamrBuffer::from_slice(node, data, allocator, device, stream, mode)?;
        Ok(Arc::new(HamrDataArray { name: name.into(), components, buffer: Arc::new(buffer) }))
    }

    /// Zero-copy construction from externally allocated memory with
    /// coordinated life-cycle management (Listing 1): the simulation keeps
    /// its handle, the array shares the same cells, and the memory is
    /// freed when the last holder drops.
    pub fn adopt(
        name: impl Into<String>,
        node: Arc<SimNode>,
        cells: CellBuffer,
        components: usize,
        allocator: Allocator,
        stream: HamrStream,
        mode: StreamMode,
    ) -> hamr::Result<Arc<Self>> {
        let buffer = HamrBuffer::adopt(node, cells, allocator, stream, mode)?;
        Ok(Arc::new(HamrDataArray { name: name.into(), components, buffer: Arc::new(buffer) }))
    }

    /// The underlying HAMR buffer.
    pub fn buffer(&self) -> &Arc<HamrBuffer<T>> {
        &self.buffer
    }

    /// Deep-copy this array into a new allocation with the same placement
    /// — the explicit copy the asynchronous execution path takes before
    /// handing data to the in situ thread (§4.3).
    ///
    /// The copy is **stream-ordered** on the array's stream: for
    /// device-resident arrays this call enqueues the transfer and returns;
    /// operations submitted later on the same stream see the copied data,
    /// and out-of-stream consumers must [`synchronize`](HamrBuffer::synchronize)
    /// first. Batching many copies behind a single synchronization point
    /// is what keeps the asynchronous execution method's apparent cost
    /// small.
    pub fn deep_copy(&self, name: impl Into<String>) -> hamr::Result<Arc<Self>> {
        let node = self.buffer.node().clone();
        let device = self.buffer.device();
        let copy = HamrBuffer::<T>::new(
            node.clone(),
            self.buffer.len(),
            self.allocator(),
            device,
            self.buffer.stream().clone(),
            self.buffer.mode(),
        )?;
        let src = self.buffer.data();
        let dst = copy.data();
        match device {
            Some(d) => {
                self.buffer.stream().resolve(&node, d)?.copy(&src, &dst)?;
            }
            None => {
                // Host-to-host: copy through host views (read-only on the
                // source so a pinned source yields its pinned contents).
                let s = src.host_u64_ro()?;
                let d = dst.host_u64()?;
                for i in 0..s.len() {
                    d.set(i, s.get(i));
                }
            }
        }
        Ok(Arc::new(HamrDataArray {
            name: name.into(),
            components: self.components,
            buffer: Arc::new(copy),
        }))
    }

    /// A zero-copy copy-on-write share of this array pinned to its
    /// current contents (see [`HamrBuffer::cow_share`]); its operations
    /// are ordered on `stream`.
    pub fn cow_share(
        self: &Arc<Self>,
        stats: &Arc<devsim::PinStats>,
        stream: hamr::HamrStream,
    ) -> Arc<Self> {
        Arc::new(HamrDataArray {
            name: self.name.clone(),
            components: self.components,
            buffer: Arc::new(self.buffer.cow_share(stats, stream)),
        })
    }

    /// Type-erase into an [`ArrayRef`].
    pub fn as_array_ref(self: &Arc<Self>) -> ArrayRef {
        self.clone()
    }
}

impl<T: Element> Deref for HamrDataArray<T> {
    type Target = HamrBuffer<T>;

    fn deref(&self) -> &HamrBuffer<T> {
        &self.buffer
    }
}

impl<T: Element> DataArray for HamrDataArray<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_tuples(&self) -> usize {
        self.buffer.len() / self.components
    }

    fn num_components(&self) -> usize {
        self.components
    }

    fn type_name(&self) -> &'static str {
        T::TYPE_NAME
    }

    fn device(&self) -> Option<usize> {
        self.buffer.device()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn deep_copy_erased(&self) -> hamr::Result<ArrayRef> {
        Ok(self.deep_copy(self.name.clone())? as ArrayRef)
    }

    fn synchronize_erased(&self) -> hamr::Result<()> {
        self.synchronize()
    }

    fn generation_erased(&self) -> Option<(u64, u64)> {
        Some((self.buffer.allocation_id(), self.buffer.write_generation()))
    }

    fn cow_share_erased(
        &self,
        stats: &Arc<devsim::PinStats>,
        stream: HamrStream,
    ) -> Option<ArrayRef> {
        Some(Arc::new(HamrDataArray {
            name: self.name.clone(),
            components: self.components,
            buffer: Arc::new(self.buffer.cow_share(stats, stream)),
        }) as ArrayRef)
    }

    fn release_cow_erased(&self) {
        self.buffer.release_cow();
    }
}

/// Downcast a type-erased array to a concrete `HamrDataArray<T>`.
pub fn downcast<T: Element>(array: &ArrayRef) -> Option<&HamrDataArray<T>> {
    array.as_any().downcast_ref::<HamrDataArray<T>>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use devsim::NodeConfig;
    use hamr::Pm;

    fn node() -> Arc<SimNode> {
        SimNode::new(NodeConfig::fast_test(2))
    }

    fn simple(name: &str, data: &[f64]) -> Arc<HamrDoubleArray> {
        HamrDataArray::from_slice(
            name,
            node(),
            data,
            1,
            Allocator::Malloc,
            None,
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap()
    }

    #[test]
    fn implements_the_data_array_interface() {
        let a = HamrDataArray::<f64>::from_slice(
            "velocity",
            node(),
            &[1., 2., 3., 4., 5., 6.],
            3,
            Allocator::Cuda,
            Some(1),
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap();
        assert_eq!(a.name(), "velocity");
        assert_eq!(a.num_tuples(), 2);
        assert_eq!(a.num_components(), 3);
        assert_eq!(a.len(), 6);
        assert_eq!(a.type_name(), "double");
        assert_eq!(DataArray::device(a.as_ref()), Some(1));
    }

    #[test]
    fn downcast_from_array_ref() {
        let a = simple("x", &[1.0]);
        let r: ArrayRef = a.as_array_ref();
        assert!(downcast::<f64>(&r).is_some());
        assert!(downcast::<i32>(&r).is_none());
        assert_eq!(downcast::<f64>(&r).unwrap().to_vec().unwrap(), vec![1.0]);
    }

    #[test]
    fn debug_formatting_of_trait_object() {
        let a = simple("rho", &[0.5, 0.6]);
        let r: ArrayRef = a.as_array_ref();
        let s = format!("{:?}", r.as_ref());
        assert!(s.contains("rho"));
        assert!(s.contains("double"));
    }

    #[test]
    fn deep_copy_is_independent() {
        let n = node();
        let a = HamrDataArray::<f64>::from_slice(
            "orig",
            n.clone(),
            &[1.0, 2.0],
            1,
            Allocator::Cuda,
            Some(0),
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap();
        let b = a.deep_copy("copy").unwrap();
        assert_eq!(b.name(), "copy");
        assert!(!a.data().same_allocation(&b.data()));
        assert_eq!(b.to_vec().unwrap(), vec![1.0, 2.0]);
        assert_eq!(b.device(), Some(0));
    }

    #[test]
    fn deep_copy_of_a_host_array() {
        let a = simple("h", &[3.0, 4.0]);
        let b = a.deep_copy("h2").unwrap();
        assert_eq!(b.to_vec().unwrap(), vec![3.0, 4.0]);
        assert_eq!(b.device(), None);
    }

    #[test]
    fn adopt_shares_cells_via_interface() {
        let n = node();
        let sim_mem = n.device(0).unwrap().alloc_f64(3).unwrap();
        let a = HamrDataArray::<f64>::adopt(
            "simData",
            n,
            sim_mem.clone(),
            1,
            Allocator::OpenMp,
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap();
        assert!(a.data().same_allocation(&sim_mem));
        assert_eq!(a.num_tuples(), 3);
        assert_eq!(a.pm(), Pm::OpenMp);
    }

    #[test]
    #[should_panic(expected = "multiple of components")]
    fn component_mismatch_is_rejected() {
        let _ = HamrDataArray::<f64>::from_slice(
            "bad",
            node(),
            &[1.0, 2.0, 3.0],
            2,
            Allocator::Malloc,
            None,
            HamrStream::default_stream(),
            StreamMode::Sync,
        );
    }
}
