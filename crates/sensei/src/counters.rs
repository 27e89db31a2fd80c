//! Work counters for analysis back-ends: how many data passes, kernel
//! launches, result downloads, and allreduce rounds a back-end actually
//! performed.
//!
//! A fused execution path claims to collapse N per-op passes into one;
//! these counters make that claim checkable. A back-end increments its
//! [`AnalysisCounters`] as it works (they are shared atomics, so a worker
//! thread owning the back-end and the simulation thread reading the totals
//! never race), the owning engine exposes them, and the bridge snapshots
//! them into the profiler at finalize so harnesses can assert on
//! communication and launch counts instead of trusting the implementation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use devsim::PinStats;
use minimpi::TierSnapshot;

/// Shared, thread-safe work counters one analysis back-end increments.
#[derive(Debug, Default)]
pub struct AnalysisCounters {
    table_passes: AtomicU64,
    kernel_launches: AtomicU64,
    downloads: AtomicU64,
    allreduces: AtomicU64,
    fetches: AtomicU64,
    faults: FaultCounters,
    comm: CommCounters,
}

/// Per-tier communication counters: traffic the back-end's collectives put
/// on the intra-node fabric vs the inter-node interconnect, captured as
/// [`minimpi::Comm::tier_stats`] deltas around each collective phase.
#[derive(Debug, Default)]
pub struct CommCounters {
    intra_messages: AtomicU64,
    intra_bytes: AtomicU64,
    intra_modeled_ns: AtomicU64,
    inter_messages: AtomicU64,
    inter_bytes: AtomicU64,
    inter_modeled_ns: AtomicU64,
}

impl CommCounters {
    /// Fold a tier-counter delta into the totals.
    pub fn add(&self, d: &TierSnapshot) {
        self.intra_messages.fetch_add(d.intra_messages, Ordering::Relaxed);
        self.intra_bytes.fetch_add(d.intra_bytes, Ordering::Relaxed);
        self.intra_modeled_ns.fetch_add(d.intra_modeled_ns, Ordering::Relaxed);
        self.inter_messages.fetch_add(d.inter_messages, Ordering::Relaxed);
        self.inter_bytes.fetch_add(d.inter_bytes, Ordering::Relaxed);
        self.inter_modeled_ns.fetch_add(d.inter_modeled_ns, Ordering::Relaxed);
    }

    /// A plain-value copy of the current totals.
    pub fn snapshot(&self) -> TierSnapshot {
        TierSnapshot {
            intra_messages: self.intra_messages.load(Ordering::Relaxed),
            intra_bytes: self.intra_bytes.load(Ordering::Relaxed),
            intra_modeled_ns: self.intra_modeled_ns.load(Ordering::Relaxed),
            inter_messages: self.inter_messages.load(Ordering::Relaxed),
            inter_bytes: self.inter_bytes.load(Ordering::Relaxed),
            inter_modeled_ns: self.inter_modeled_ns.load(Ordering::Relaxed),
        }
    }
}

/// Failure/recovery outcome counters, kept by the execution engines as
/// they apply a back-end's [`crate::RecoveryPolicy`]. Shared atomics like
/// the work counters: the worker thread increments, the bridge and the
/// harness read.
#[derive(Debug, Default)]
pub struct FaultCounters {
    injected: AtomicU64,
    retried: AtomicU64,
    recovered: AtomicU64,
    skipped: AtomicU64,
    aborted: AtomicU64,
}

impl FaultCounters {
    /// Count `n` dispatches whose first attempt failed (an injected or
    /// organic fault was observed).
    pub fn add_injected(&self, n: u64) {
        self.injected.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` retry attempts made under `RecoveryPolicy::Retry`.
    pub fn add_retried(&self, n: u64) {
        self.retried.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` failed dispatches that eventually succeeded on retry.
    pub fn add_recovered(&self, n: u64) {
        self.recovered.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` in situ iterations dropped by `RecoveryPolicy::SkipStep`.
    pub fn add_skipped(&self, n: u64) {
        self.skipped.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` failures propagated to the caller (policy `Abort`, or a
    /// retry budget exhausted).
    pub fn add_aborted(&self, n: u64) {
        self.aborted.fetch_add(n, Ordering::Relaxed);
    }

    /// A plain-value copy of the current totals.
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            injected: self.injected.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value copy of [`FaultCounters`] at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// Dispatches whose first attempt failed.
    pub injected: u64,
    /// Retry attempts made.
    pub retried: u64,
    /// Failures that recovered on retry.
    pub recovered: u64,
    /// Iterations dropped by skip-step degradation.
    pub skipped: u64,
    /// Failures propagated to the caller.
    pub aborted: u64,
}

impl FaultSnapshot {
    /// Add `other`'s totals into `self`.
    pub fn accumulate(&mut self, other: &FaultSnapshot) {
        self.injected += other.injected;
        self.retried += other.retried;
        self.recovered += other.recovered;
        self.skipped += other.skipped;
        self.aborted += other.aborted;
    }
}

impl AnalysisCounters {
    /// Fresh zeroed counters behind an `Arc` (the back-end keeps one
    /// handle, the engine another).
    pub fn new() -> Arc<Self> {
        Arc::new(AnalysisCounters::default())
    }

    /// Count `n` full traversals of fetched rows (one per-op pass = 1;
    /// one fused pass covering many ops = 1).
    pub fn add_table_passes(&self, n: u64) {
        self.table_passes.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` device kernel launches.
    pub fn add_kernel_launches(&self, n: u64) {
        self.kernel_launches.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` device-to-host result downloads (a packed download of
    /// many grids = 1).
    pub fn add_downloads(&self, n: u64) {
        self.downloads.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` reduction rounds (a packed allreduce = 1, a
    /// reduce-scatter = 1).
    pub fn add_allreduces(&self, n: u64) {
        self.allreduces.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` per-variable fetch/move requests into the execution space.
    pub fn add_fetches(&self, n: u64) {
        self.fetches.fetch_add(n, Ordering::Relaxed);
    }

    /// The failure/recovery counters the owning engine updates.
    pub fn faults(&self) -> &FaultCounters {
        &self.faults
    }

    /// Fold a per-tier communication delta into the comm counters (the
    /// engine captures [`minimpi::Comm::tier_stats`] around a collective
    /// phase and reports the difference here).
    pub fn add_comm(&self, delta: &TierSnapshot) {
        self.comm.add(delta);
    }

    /// A consistent-enough copy of the current totals (exact once the
    /// back-end has been finalized).
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            table_passes: self.table_passes.load(Ordering::Relaxed),
            kernel_launches: self.kernel_launches.load(Ordering::Relaxed),
            downloads: self.downloads.load(Ordering::Relaxed),
            allreduces: self.allreduces.load(Ordering::Relaxed),
            fetches: self.fetches.load(Ordering::Relaxed),
            faults: self.faults.snapshot(),
            comm: self.comm.snapshot(),
        }
    }
}

/// A plain-value copy of [`AnalysisCounters`] at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Full traversals of fetched rows.
    pub table_passes: u64,
    /// Device kernel launches.
    pub kernel_launches: u64,
    /// Device-to-host result downloads.
    pub downloads: u64,
    /// Reduction rounds issued: allreduces and reduce-scatters
    /// (`minimpi::Comm::allreduce_count`).
    pub allreduces: u64,
    /// Per-variable fetch/move requests.
    pub fetches: u64,
    /// Failure/recovery outcomes.
    pub faults: FaultSnapshot,
    /// Per-tier communication traffic (intra- vs inter-node).
    pub comm: TierSnapshot,
}

impl CounterSnapshot {
    /// Add `other`'s totals into `self` (for summing across back-ends or
    /// ranks).
    pub fn accumulate(&mut self, other: &CounterSnapshot) {
        self.table_passes += other.table_passes;
        self.kernel_launches += other.kernel_launches;
        self.downloads += other.downloads;
        self.allreduces += other.allreduces;
        self.fetches += other.fetches;
        self.faults.accumulate(&other.faults);
        self.comm.accumulate(&other.comm);
    }
}

/// Counters for the snapshot layer: how many arrays each capture shared
/// zero-copy vs copied, and the bytes those copies (and any lazy CoW
/// fault copies) materialized.
///
/// The fault half lives in a [`devsim::PinStats`] handle so the memory
/// layer can report faults without knowing about sensei; `snapshot()`
/// folds both halves into one plain-value view.
#[derive(Debug)]
pub struct SnapshotCounters {
    arrays_shared: AtomicU64,
    arrays_copied: AtomicU64,
    /// Bytes materialized by *eager* capture-time copies (deep mode);
    /// lazy CoW fault bytes are tracked in `pin_stats`.
    bytes_copied: AtomicU64,
    pin_stats: Arc<PinStats>,
}

impl Default for SnapshotCounters {
    fn default() -> Self {
        SnapshotCounters {
            arrays_shared: AtomicU64::new(0),
            arrays_copied: AtomicU64::new(0),
            bytes_copied: AtomicU64::new(0),
            pin_stats: PinStats::new_shared(),
        }
    }
}

impl SnapshotCounters {
    /// Fresh zeroed counters behind an `Arc` (the pipeline keeps one
    /// handle, the bridge/profiler another).
    pub fn new() -> Arc<Self> {
        Arc::new(SnapshotCounters::default())
    }

    /// Count `n` arrays taken zero-copy (shared, possibly CoW-pinned).
    pub fn add_shared(&self, n: u64) {
        self.arrays_shared.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` arrays copied eagerly at capture time, totalling `bytes`.
    pub fn add_copied(&self, n: u64, bytes: u64) {
        self.arrays_copied.fetch_add(n, Ordering::Relaxed);
        self.bytes_copied.fetch_add(bytes, Ordering::Relaxed);
    }

    /// The fault-copy counters the devsim write path reports into when a
    /// solver write hits a still-pinned array.
    pub fn pin_stats(&self) -> &Arc<PinStats> {
        &self.pin_stats
    }

    /// A plain-value copy of the totals, folding eager-copy and lazy
    /// CoW-fault bytes together (`bytes_copied` is the honest total cost).
    pub fn snapshot(&self) -> SnapshotCounterSnapshot {
        SnapshotCounterSnapshot {
            arrays_shared: self.arrays_shared.load(Ordering::Relaxed),
            arrays_copied: self.arrays_copied.load(Ordering::Relaxed),
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed) + self.pin_stats.bytes(),
            cow_faults: self.pin_stats.faults(),
        }
    }
}

/// A plain-value copy of [`SnapshotCounters`] at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotCounterSnapshot {
    /// Arrays taken zero-copy across all captures.
    pub arrays_shared: u64,
    /// Arrays copied (eagerly at capture time).
    pub arrays_copied: u64,
    /// Total bytes materialized: eager capture copies plus lazy CoW
    /// fault copies.
    pub bytes_copied: u64,
    /// Lazy pre-write copies triggered by solver writes to pinned arrays.
    pub cow_faults: u64,
}

impl SnapshotCounterSnapshot {
    /// Add `other`'s totals into `self` (for summing across ranks).
    pub fn accumulate(&mut self, other: &SnapshotCounterSnapshot) {
        self.arrays_shared += other.arrays_shared;
        self.arrays_copied += other.arrays_copied;
        self.bytes_copied += other.bytes_copied;
        self.cow_faults += other.cow_faults;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = AnalysisCounters::new();
        c.add_table_passes(2);
        c.add_kernel_launches(9);
        c.add_downloads(9);
        c.add_allreduces(1);
        c.add_fetches(11);
        let s = c.snapshot();
        assert_eq!(
            s,
            CounterSnapshot {
                table_passes: 2,
                kernel_launches: 9,
                downloads: 9,
                allreduces: 1,
                fetches: 11,
                faults: FaultSnapshot::default(),
                comm: TierSnapshot::default(),
            }
        );
        let mut total = CounterSnapshot::default();
        total.accumulate(&s);
        total.accumulate(&s);
        assert_eq!(total.allreduces, 2);
        assert_eq!(total.kernel_launches, 18);
    }

    #[test]
    fn comm_deltas_fold_into_tier_totals() {
        let c = AnalysisCounters::new();
        c.add_comm(&TierSnapshot {
            intra_messages: 3,
            intra_bytes: 96,
            intra_modeled_ns: 10,
            inter_messages: 1,
            inter_bytes: 32,
            inter_modeled_ns: 40,
        });
        c.add_comm(&TierSnapshot { intra_messages: 1, intra_bytes: 8, ..Default::default() });
        let s = c.snapshot().comm;
        assert_eq!((s.intra_messages, s.intra_bytes), (4, 104));
        assert_eq!((s.inter_messages, s.inter_bytes), (1, 32));
        assert_eq!(s.messages(), 5);
        assert_eq!(s.bytes(), 136);
    }

    #[test]
    fn counters_are_shared_across_threads() {
        let c = AnalysisCounters::new();
        let c2 = c.clone();
        let h = std::thread::spawn(move || {
            for _ in 0..100 {
                c2.add_allreduces(1);
            }
        });
        h.join().unwrap();
        assert_eq!(c.snapshot().allreduces, 100);
    }
}
