//! The fused step's resident memory.
//!
//! Every grid-sized buffer a step touches — the kernels' accumulators, the
//! packed device blocks, the host blocks they download into, the flat
//! accumulator that doubles as the allreduce payload — is owned here,
//! allocated when a step first needs it and reused by every later step.
//! In steady state a step allocates nothing grid-sized.

use std::sync::Arc;

use devsim::{CellBuffer, MemSpace, SimNode, Stream};
use parking_lot::Mutex;
use sensei::Result;

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
    /// Last step's reduced buffer, overwritten in place as this step's
    /// flat accumulator.
    flat: Mutex<Vec<f64>>,
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

    /// The flat accumulator, `len` long, holding whatever the last step
    /// left in it: the caller overwrites every element.
    pub fn take_flat(&self, len: usize) -> Vec<f64> {
        let mut flat = std::mem::take(&mut *self.flat.lock());
        flat.resize(len, 0.0);
        flat
    }

    /// Keep `flat` for the next step.
    pub fn keep_flat(&self, flat: Vec<f64>) {
        *self.flat.lock() = flat;
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
        *self.flat.lock() = Vec::new();
        self.scratches.clear();
    }
}
