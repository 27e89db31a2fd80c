//! The fused step's resident memory.
//!
//! Every grid-sized buffer a step touches — the kernels' accumulators, the
//! packed device blocks, the host blocks they download into, the host
//! kernels' blocks, the step's merged block and its cuts that are the
//! reduce-scatter's parts, and the merges' scratch — is owned here,
//! allocated when a step first needs it and reused by every later step.
//! A part another rank sent joins this rank's blocks once merged, so each
//! rank keeps as many as it hands out. In steady state a step allocates
//! nothing grid-sized.

use std::sync::Arc;

use devsim::{CellBuffer, MemSpace, SimNode, Stream};
use parking_lot::Mutex;
use sensei::Result;

use crate::block;
use crate::host_impl::ScratchPool;

/// One kernel node's packed grids on the device that ran it, and the host
/// block they are downloaded into.
#[derive(Clone)]
pub(crate) struct Slot {
    pub packed: CellBuffer,
    pub host: CellBuffer,
}

/// What the arena holds on the placement device. Rebuilt when the
/// resolved device changes, so a block of the old device never meets a
/// buffer of the new one.
struct DeviceSide {
    device: usize,
    /// Indexed by kernel node, in the task graph's (table, spec range)
    /// order.
    slots: Vec<Option<Slot>>,
}

/// One back-end's resident step memory (see the module docs).
#[derive(Default)]
pub(crate) struct StepArena {
    /// Host blocks between steps ([`Self::take_block`]).
    blocks: Mutex<Vec<Vec<f64>>>,
    /// The block merges' scratch between steps.
    merge: Mutex<block::Scratch>,
    scratches: Arc<ScratchPool>,
    device: Mutex<Option<DeviceSide>>,
}

impl StepArena {
    /// Start a step placed on `device`: device-side state of any other
    /// placement is released.
    pub fn place(&self, device: Option<usize>) {
        let mut side = self.device.lock();
        if side.as_ref().map(|s| s.device) != device {
            *side = device.map(|device| DeviceSide { device, slots: Vec::new() });
        }
    }

    /// An empty host block with room for `cells`: a step asks with the
    /// cells of its block at its largest, so no block it fills grows. The
    /// reduce-scatter hands blocks between ranks, so which one comes back
    /// is not fixed, but each has that room once it has been used.
    pub fn take_block(&self, cells: usize) -> Vec<f64> {
        let mut block = self.blocks.lock().pop().unwrap_or_default();
        block.clear();
        block.reserve_exact(cells);
        block
    }

    /// Keep `block` for a later [`Self::take_block`].
    pub fn keep_block(&self, block: Vec<f64>) {
        self.blocks.lock().push(block);
    }

    /// The block merges' scratch, with room for blocks of `cells` cells.
    pub fn take_merge(&self, cells: usize) -> block::Scratch {
        let mut scratch = std::mem::take(&mut *self.merge.lock());
        scratch.reserve(cells);
        scratch
    }

    /// Keep `scratch` for the next step's merges.
    pub fn keep_merge(&self, scratch: block::Scratch) {
        *self.merge.lock() = scratch;
    }

    /// The kernels' scratch pool.
    pub fn scratches(&self) -> &Arc<ScratchPool> {
        &self.scratches
    }

    /// The state on the device the step was [placed](Self::place) on.
    fn side<R>(&self, f: impl FnOnce(&mut DeviceSide) -> R) -> R {
        f(self.device.lock().as_mut().expect("device work in a step placed on the host"))
    }

    /// Slot `idx`, for a kernel of `len` packed cells that runs on device
    /// `on` (a spread kernel may run off the placement device) and allocates
    /// stream-ordered on `stream`.
    pub fn slot(
        &self,
        node: &SimNode,
        idx: usize,
        on: usize,
        len: usize,
        stream: &Stream,
    ) -> Result<Slot> {
        self.side(|side| {
            if side.slots.len() <= idx {
                side.slots.resize(idx + 1, None);
            }
            let fits = |s: &Slot| s.packed.len() == len && s.packed.space() == MemSpace::Device(on);
            if let Some(slot) = side.slots[idx].as_ref().filter(|s| fits(s)) {
                return Ok(slot.clone());
            }
            // Keep a host block that still fits: only the kernel moved.
            let host = match side.slots[idx].take() {
                Some(old) if old.host.len() == len => old.host,
                _ => node.try_host_alloc_f64(len)?,
            };
            let packed = node.device(on)?.alloc_cells_on_stream(len, stream)?;
            Ok(side.slots[idx].insert(Slot { packed, host }).clone())
        })
    }

    /// The device each slot's packed block lives on, in slot order.
    pub fn kernel_devices(&self) -> Vec<usize> {
        let side = self.device.lock();
        let slots = side.iter().flat_map(|side| side.slots.iter().flatten());
        slots
            .filter_map(|slot| match slot.packed.space() {
                MemSpace::Device(d) => Some(d),
                _ => None,
            })
            .collect()
    }

    /// Return every block to the node's pools and free the host memory.
    pub fn release(&self) {
        *self.device.lock() = None;
        *self.blocks.lock() = Vec::new();
        *self.merge.lock() = block::Scratch::default();
        self.scratches.clear();
    }
}
