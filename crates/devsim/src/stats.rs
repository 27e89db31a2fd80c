//! Node-wide operation counters.
//!
//! The zero-copy guarantees in the data-model extensions are tested against
//! these counters: "accessing data already in place performs no transfer"
//! is an assertion on `copies_*` staying flat.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters updated by devices, streams, and the host executor.
#[derive(Default)]
pub struct NodeStats {
    pub(crate) kernels_launched: AtomicU64,
    pub(crate) host_tasks: AtomicU64,
    pub(crate) copies_h2d: AtomicU64,
    pub(crate) copies_d2h: AtomicU64,
    pub(crate) copies_d2d: AtomicU64,
    pub(crate) copies_h2h: AtomicU64,
    pub(crate) bytes_h2d: AtomicU64,
    pub(crate) bytes_d2h: AtomicU64,
    pub(crate) bytes_d2d: AtomicU64,
    pub(crate) device_allocs: AtomicU64,
    pub(crate) device_alloc_bytes: AtomicU64,
    pub(crate) stream_syncs: AtomicU64,
    pub(crate) replica_hits: AtomicU64,
    pub(crate) replica_refreshes: AtomicU64,
}

/// A point-in-time copy of [`NodeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub kernels_launched: u64,
    pub host_tasks: u64,
    pub copies_h2d: u64,
    pub copies_d2h: u64,
    pub copies_d2d: u64,
    pub copies_h2h: u64,
    pub bytes_h2d: u64,
    pub bytes_d2h: u64,
    pub bytes_d2d: u64,
    pub device_allocs: u64,
    pub device_alloc_bytes: u64,
    pub stream_syncs: u64,
    /// Cross-space access requests granted from a replica that already
    /// held the allocation's current contents: no allocation, no copy.
    pub replica_hits: u64,
    /// Requests that found a replica of older contents and re-copied
    /// (counted in `copies_*` too). A request that found none is a move:
    /// a copy counted in neither field.
    pub replica_refreshes: u64,
}

impl NodeStats {
    /// Snapshot all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            kernels_launched: self.kernels_launched.load(Ordering::Relaxed),
            host_tasks: self.host_tasks.load(Ordering::Relaxed),
            copies_h2d: self.copies_h2d.load(Ordering::Relaxed),
            copies_d2h: self.copies_d2h.load(Ordering::Relaxed),
            copies_d2d: self.copies_d2d.load(Ordering::Relaxed),
            copies_h2h: self.copies_h2h.load(Ordering::Relaxed),
            bytes_h2d: self.bytes_h2d.load(Ordering::Relaxed),
            bytes_d2h: self.bytes_d2h.load(Ordering::Relaxed),
            bytes_d2d: self.bytes_d2d.load(Ordering::Relaxed),
            device_allocs: self.device_allocs.load(Ordering::Relaxed),
            device_alloc_bytes: self.device_alloc_bytes.load(Ordering::Relaxed),
            stream_syncs: self.stream_syncs.load(Ordering::Relaxed),
            replica_hits: self.replica_hits.load(Ordering::Relaxed),
            replica_refreshes: self.replica_refreshes.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Total number of copies in any direction.
    pub fn total_copies(&self) -> u64 {
        self.copies_h2d + self.copies_d2h + self.copies_d2d + self.copies_h2h
    }

    /// Total bytes moved over links (h2h copies are not link traffic).
    pub fn total_link_bytes(&self) -> u64 {
        self.bytes_h2d + self.bytes_d2h + self.bytes_d2d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_updates() {
        let s = NodeStats::default();
        NodeStats::bump(&s.kernels_launched);
        NodeStats::bump(&s.kernels_launched);
        NodeStats::add(&s.bytes_h2d, 100);
        let snap = s.snapshot();
        assert_eq!(snap.kernels_launched, 2);
        assert_eq!(snap.bytes_h2d, 100);
        assert_eq!(snap.total_link_bytes(), 100);
    }

    #[test]
    fn totals_aggregate_directions() {
        let snap = StatsSnapshot {
            copies_h2d: 1,
            copies_d2h: 2,
            copies_d2d: 3,
            copies_h2h: 4,
            ..Default::default()
        };
        assert_eq!(snap.total_copies(), 10);
    }
}
