//! The abstract data-array interface (`svtkDataArray`).

use std::any::Any;
use std::sync::Arc;

use devsim::PinStats;
use hamr::HamrStream;

/// Shared handle to a type-erased data array.
pub type ArrayRef = Arc<dyn DataArray>;

/// The interface every array in the data model implements — the role
/// `svtkDataArray` plays in VTK/SENSEI. Datasets store `ArrayRef`s; codes
/// that need typed access downcast with [`DataArray::as_any`] or the
/// [`HamrDataArray`](crate::HamrDataArray) conveniences.
pub trait DataArray: Send + Sync {
    /// The array's name (how simulations and analyses address it).
    fn name(&self) -> &str;

    /// Number of tuples (logical elements).
    fn num_tuples(&self) -> usize;

    /// Components per tuple (1 for scalars, 3 for vectors, ...).
    fn num_components(&self) -> usize;

    /// C++-style element type name ("double", "int", ...).
    fn type_name(&self) -> &'static str;

    /// Current residency: `None` = host, `Some(d)` = device `d`.
    fn device(&self) -> Option<usize>;

    /// Downcasting support.
    fn as_any(&self) -> &dyn Any;

    /// Deep-copy the array (same name, same placement) behind the erased
    /// interface — the copy the asynchronous execution path takes before
    /// handing data to the in situ thread. The copy is **stream-ordered**:
    /// enqueue-only on device-resident arrays; call
    /// [`synchronize_erased`](Self::synchronize_erased) on the returned
    /// array before consuming it out of stream order.
    fn deep_copy_erased(&self) -> hamr::Result<ArrayRef>;

    /// Wait for in-flight operations on this array's stream.
    fn synchronize_erased(&self) -> hamr::Result<()>;

    /// A zero-copy copy-on-write share pinned to the array's current
    /// contents, ordered on `stream` (a snapshot layer's dedicated copy
    /// stream). `None` when the array type cannot share — the caller
    /// falls back to a deep copy.
    fn cow_share_erased(&self, _stats: &Arc<PinStats>, _stream: HamrStream) -> Option<ArrayRef> {
        None
    }

    /// Deactivate a CoW pin held by this array (no-op on unpinned or
    /// untracked arrays): the holder promises not to read through this
    /// array again, so the producer's later writes skip the fault copy.
    fn release_cow_erased(&self) {}

    /// Total scalar element count (`tuples * components`).
    fn len(&self) -> usize {
        self.num_tuples() * self.num_components()
    }

    /// True when the array holds no data.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for dyn DataArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DataArray(name={:?}, type={}, tuples={}, components={}, device={:?})",
            self.name(),
            self.type_name(),
            self.num_tuples(),
            self.num_components(),
            self.device()
        )
    }
}
