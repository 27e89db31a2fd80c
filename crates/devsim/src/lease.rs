//! Leases: the checked rule that lets a read view be a plain slice.
//!
//! Every simulated cell is an `AtomicU64`, so a write view's stores and
//! atomics race safely with each other. A *read* view instead hands out
//! `&[f64]` / `&[u64]` over the same cells — plain loads the compiler can
//! vectorise — which is only sound while nothing stores to them. Each
//! allocation therefore keeps one lease word counting three kinds of
//! holder:
//!
//! * **shared readers** — read views of the live cells. While one is
//!   held, a write lease is refused with [`Error::Aliased`];
//! * **pinned readers** — read views of the live cells through a
//!   copy-on-write pin whose version no writer has copied yet, and
//!   copy-engine reads through such a pin. A writer does not fail on them:
//!   it makes the fault copy first (which later reads route to) and then
//!   waits for the ones already reading to let go;
//! * **writers** — write views, copy destinations and replica fills. They
//!   share the cells with each other (their stores are atomic), and a
//!   read lease requested while one is held is refused with
//!   [`Error::Aliased`].
//!
//! This module is the only place in the crate allowed `unsafe`: the slice
//! [`ReadView`]'s `Deref` builds over the cells, whose soundness rests on
//! the counts kept here.

use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::memory::{BufferGuard, Track};

/// Bits per count in the lease word: shared readers in the low field,
/// pinned readers in the middle one, writers in the high one.
const FIELD_BITS: u32 = 21;
const FIELD: u64 = (1 << FIELD_BITS) - 1;
const SHARED: u64 = 1;
const PINNED: u64 = 1 << FIELD_BITS;
const WRITER: u64 = 1 << (2 * FIELD_BITS);

fn shared(word: u64) -> u64 {
    word & FIELD
}

fn pinned(word: u64) -> u64 {
    (word >> FIELD_BITS) & FIELD
}

fn writers(word: u64) -> u64 {
    word >> (2 * FIELD_BITS)
}

/// One allocation's lease word (see the module documentation).
#[derive(Default)]
pub(crate) struct Leases(AtomicU64);

/// One count held in an allocation's lease word, returned on drop.
struct Hold {
    track: Arc<Track>,
    unit: u64,
}

impl Hold {
    /// Add `unit` unless a writer holds a lease.
    fn unless_written(track: &Arc<Track>, unit: u64) -> Result<Hold> {
        track
            .leases()
            .0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |w| {
                (writers(w) == 0).then_some(w + unit)
            })
            .map_err(|_| Error::Aliased { alloc_id: track.id() })?;
        Ok(Hold { track: track.clone(), unit })
    }
}

impl Drop for Hold {
    fn drop(&mut self) {
        self.track.leases().0.fetch_sub(self.unit, Ordering::SeqCst);
    }
}

/// A reader's lease on an allocation's live cells: what makes a
/// [`ReadView`] of them legal.
pub(crate) struct ReadLease {
    _hold: Hold,
}

impl ReadLease {
    /// A shared read lease, refused while a writer holds one.
    pub(crate) fn shared(track: &Arc<Track>) -> Result<ReadLease> {
        Ok(ReadLease { _hold: Hold::unless_written(track, SHARED)? })
    }

    /// A pinned reader's lease, refused while a writer holds one. The
    /// caller looks for its version's fault copy *after* this returns: a
    /// writer makes it before it takes its lease, so a reader either sees
    /// the copy, or is registered before the writer looks and is waited
    /// for, or meets a writer that made no copy for it — one whose lease
    /// predates the pin — and is refused.
    pub(crate) fn pinned(track: &Arc<Track>) -> Result<ReadLease> {
        let _hold = Hold::unless_written(track, PINNED)?;
        // Pairs with the fence in `WriteLease::acquire`: this count is
        // visible to the writer's drain, or its resolution to the caller.
        fence(Ordering::SeqCst);
        Ok(ReadLease { _hold })
    }
}

/// The copy engine's registration while it reads a pinned clone's live
/// cells with atomic loads: waited for by writers like a pinned reader,
/// but granted whatever else holds the allocation — the copy's loads
/// never form a slice, so they may overlap a live write view.
pub(crate) struct SourceHold {
    _hold: Hold,
}

impl SourceHold {
    pub(crate) fn register(track: &Arc<Track>) -> SourceHold {
        track.leases().0.fetch_add(PINNED, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        SourceHold { _hold: Hold { track: track.clone(), unit: PINNED } }
    }
}

/// A writer's lease: held by write views, and by copy destinations and
/// replica fills while they store.
pub(crate) struct WriteLease {
    _hold: Hold,
}

impl WriteLease {
    /// Wait until no pinned reader reads the live cells, then take a
    /// write lease — refused while a shared reader holds one. Call it
    /// after making the allocation's fault copy.
    pub(crate) fn acquire(track: &Arc<Track>) -> Result<WriteLease> {
        // Pairs with the fence in `ReadLease::pinned`.
        fence(Ordering::SeqCst);
        let word = &track.leases().0;
        let mut cur = word.load(Ordering::SeqCst);
        loop {
            if shared(cur) > 0 {
                return Err(Error::Aliased { alloc_id: track.id() });
            }
            if pinned(cur) > 0 {
                std::thread::yield_now();
                cur = word.load(Ordering::SeqCst);
                continue;
            }
            match word.compare_exchange_weak(cur, cur + WRITER, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    return Ok(WriteLease { _hold: Hold { track: track.clone(), unit: WRITER } })
                }
                Err(seen) => cur = seen,
            }
        }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for u64 {}
}

/// An element type a [`ReadView`] presents its 64-bit cells as: `f64` or
/// `u64`, for each of which every bit pattern is a value.
pub trait Word: Copy + Send + Sync + 'static + sealed::Sealed {}
impl Word for f64 {}
impl Word for u64 {}

const _: () = {
    use std::mem::{align_of, size_of};
    assert!(size_of::<f64>() == 8 && align_of::<f64>() <= align_of::<AtomicU64>());
    assert!(size_of::<u64>() == 8 && align_of::<u64>() <= align_of::<AtomicU64>());
};

/// A read-only view: a lease on the cells that `Deref`s to `&[T]`.
///
/// Obtained from [`crate::CellBuffer::host_f64_ro`] and
/// [`crate::CellBuffer::f64_view_ro`] (and their `u64` forms). While a
/// view of an allocation's live cells lives, a write view, copy or
/// replica fill into the allocation fails with [`Error::Aliased`] — drop
/// it before writing — except when the view reads through a copy-on-write
/// pin, for which the writer makes the fault copy and then waits.
pub struct ReadView<T: Word> {
    cells: Arc<[AtomicU64]>,
    len: usize,
    _lease: ReadLease,
    /// Keeps the allocation out of the pool while the view is alive.
    _guard: Option<Arc<dyn BufferGuard>>,
    _word: PhantomData<T>,
}

impl<T: Word> ReadView<T> {
    /// A view of the first `len` of `cells` — the cells of the
    /// allocation `lease` was taken on.
    pub(crate) fn live(
        cells: Arc<[AtomicU64]>,
        len: usize,
        guard: Option<Arc<dyn BufferGuard>>,
        lease: ReadLease,
    ) -> Self {
        assert!(len <= cells.len(), "logical length exceeds backing allocation");
        ReadView { cells, len, _lease: lease, _guard: guard, _word: PhantomData }
    }

    /// Element `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        self[i]
    }
}

impl<T: Word> Deref for ReadView<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: the cells are `self.len` initialised 8-byte cells
        // (checked against the backing length at construction), kept
        // alive by the `Arc` this view owns for as long as the returned
        // borrow of `self`. `AtomicU64` has the size and bit validity of
        // `u64` and an alignment of 8, which covers `T` (asserted above
        // for both `Word` types), and every bit pattern is a valid `T`.
        // Nothing stores to the cells while the slice exists: they are
        // under a `ReadLease`. Every store to an allocation's cells — a
        // write view's, a copy destination's, a replica fill's — is made
        // while holding a `WriteLease` on it (a fault copy is stored
        // before it is shared, and never again), and the pool zeroes a
        // block only once every holder of its guard, this view included,
        // has dropped. A `ReadLease` is only granted while the word counts
        // no writer, and from then on `WriteLease::acquire` refuses a
        // shared reader and waits for a pinned one to drop before
        // counting itself — it cannot succeed while this lease is held.
        unsafe { std::slice::from_raw_parts(self.cells.as_ptr().cast::<T>(), self.len) }
    }
}

impl<T: Word> std::fmt::Debug for ReadView<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReadView(len={})", self.len)
    }
}
