//! Allocation budget of a warm Newton++ step: once the exchange's buffers
//! have grown to the bodies' count, a step allocates nothing body-column
//! sized — the bundle a rank sends, the buffer the allgather lands every
//! rank's bundle in, the messages between them and the buffer the other
//! ranks' bundles are packed into for the upload are all kept.
//!
//! This binary holds a single `#[test]`: the counting allocator sees every
//! thread of the process, so nothing else may run beside the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use devsim::{NodeConfig, SimNode};
use minimpi::World;
use newtonpp::forces::Gravity;
use newtonpp::ic::UniformIc;
use newtonpp::{IcKind, Newton, NewtonConfig};

/// Allocations at least this large are "column-sized" here: one rank's
/// half of a column of [`BODIES`] is 32 KiB, a whole column 64 KiB.
const BIG: usize = 64 * 1024;

const BODIES: usize = 8_192;

static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting every request of [`BIG`] bytes or more.
struct Counting;

fn note(size: usize) {
    if size >= BIG {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARMUP: usize = 2;
const MEASURED: usize = 2;

#[test]
fn warm_steps_allocate_nothing_column_sized() {
    let cfg = NewtonConfig {
        ic: IcKind::Uniform(UniformIc {
            n: BODIES,
            seed: 3,
            half_width: 1.0,
            mass_range: (0.5, 1.5),
            velocity_scale: 0.2,
            central_mass: 100.0,
        }),
        grav: Gravity { g: 1.0, eps: 0.05 },
        ..NewtonConfig::default()
    };
    let big = World::new(2).run(move |comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));
        let mut sim = Newton::new(node, &comm, comm.rank(), cfg).unwrap();
        for _ in 0..WARMUP {
            sim.step(&comm).unwrap();
        }
        comm.barrier();
        let before = BIG_ALLOCS.load(Ordering::Relaxed);
        comm.barrier();
        for _ in 0..MEASURED {
            sim.step(&comm).unwrap();
        }
        comm.barrier();
        BIG_ALLOCS.load(Ordering::Relaxed) - before
    });
    assert_eq!(big[0], 0, "column-sized allocations in warm Newton++ steps");
}
