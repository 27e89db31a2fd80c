//! Location- and PM-agnostic access views.

use std::marker::PhantomData;

use devsim::{CellBuffer, MemSpace, ReadView};

use crate::element::Element;
use crate::error::{Error, Result};

/// A read view of a buffer's data in the place the caller asked for.
///
/// Returned by [`crate::HamrBuffer::host_accessible`] and
/// [`crate::HamrBuffer::device_accessible`]. When the data was already
/// accessible where requested the view is **direct** (zero-copy); when it
/// was not, the view shares the allocation's **replica** in that place —
/// a block the data was moved into by this request or an earlier one,
/// kept alive by the view for as long as it reads it (the role the
/// returned `std::shared_ptr` plays in the C++ implementation) and by the
/// allocation for the next request. A later write to the allocation
/// never shows through a view handed out before it.
///
/// In asynchronous stream mode the movement may still be in flight when
/// the view is returned; call [`crate::HamrBuffer::synchronize`] before
/// consuming the data, as the paper's Listings 3 and 4 do.
pub struct AccessView<T: Element> {
    cells: CellBuffer,
    direct: bool,
    pm_converted: bool,
    _marker: PhantomData<T>,
}

impl<T: Element> AccessView<T> {
    pub(crate) fn new(cells: CellBuffer, direct: bool, pm_converted: bool) -> Self {
        AccessView { cells, direct, pm_converted, _marker: PhantomData }
    }

    /// Number of elements visible through the view.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when access was granted in place (zero-copy): the view reads
    /// the allocation's own cells. False when it reads a replica, whether
    /// this request moved the data or found it already there.
    pub fn is_direct(&self) -> bool {
        self.direct
    }

    /// True when the grant crossed programming models (e.g. OpenMP-managed
    /// data accessed from CUDA) — the interoperability path of §2.
    pub fn pm_converted(&self) -> bool {
        self.pm_converted
    }

    /// The underlying cells, for handing to kernels (device views) or the
    /// transfer engine.
    pub fn cells(&self) -> &CellBuffer {
        &self.cells
    }

    /// Where the viewed data lives.
    pub fn space(&self) -> MemSpace {
        self.cells.space()
    }

    /// Read element `i` — host-resident views only.
    pub fn get(&self, i: usize) -> Result<T> {
        if i >= self.len() {
            return Err(Error::IndexOutOfBounds { index: i, len: self.len() });
        }
        let v = self.cells.host_u64_ro()?;
        Ok(T::from_cell(v.get(i)))
    }

    /// An iterator over the elements — host-resident views only.
    pub fn iter(&self) -> Result<AccessIter<T>> {
        let view = self.cells.host_u64_ro()?;
        Ok(AccessIter { view, i: 0, len: self.len(), _marker: PhantomData })
    }

    /// Copy the elements out — host-resident views only.
    pub fn to_vec(&self) -> Result<Vec<T>> {
        Ok(self.iter()?.collect())
    }
}

/// Iterator returned by [`AccessView::iter`].
pub struct AccessIter<T: Element> {
    view: ReadView<u64>,
    i: usize,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Element> Iterator for AccessIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.i >= self.len {
            return None;
        }
        let cell = self.view.get(self.i);
        self.i += 1;
        Some(T::from_cell(cell))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.i;
        (rem, Some(rem))
    }
}

impl<T: Element> ExactSizeIterator for AccessIter<T> {}

impl<T: Element> std::fmt::Debug for AccessView<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessView")
            .field("len", &self.len())
            .field("space", &self.space())
            .field("direct", &self.direct)
            .field("pm_converted", &self.pm_converted)
            .finish()
    }
}
