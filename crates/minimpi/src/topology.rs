//! The simulated node topology and per-tier traffic accounting.
//!
//! A [`Topology`] groups a communicator's ranks into *nodes*, mirroring a
//! real cluster where ranks on one node exchange over shared memory or an
//! NVLink-class fabric while ranks on different nodes cross the cluster
//! interconnect. Every message a [`crate::Comm`] sends is charged against
//! one of the two tiers using [`devsim::NetworkParams`], and the
//! hierarchical collectives use the grouping to route node-local traffic
//! over the cheap tier (see `collectives.rs`).
//!
//! The default topology is a single node containing every rank: all
//! traffic is intra-node and collectives take the direct all-to-root path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Ranks grouped into simulated nodes.
///
/// Node indices are dense (`0..num_nodes`) and each node's member list is
/// sorted ascending by rank; the *leader* of a node is its lowest rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// `node_of[rank]` — the node index each rank lives on.
    node_of: Vec<usize>,
    /// `nodes[node]` — member ranks, ascending.
    nodes: Vec<Vec<usize>>,
}

impl Topology {
    /// Every rank on one node: the default.
    pub fn single_node(size: usize) -> Self {
        Topology::from_nodes(vec![0; size])
    }

    /// Consecutive ranks grouped `ranks_per_node` at a time, the way
    /// `mpirun` fills nodes; the last node may be partial.
    ///
    /// # Panics
    /// Panics if `size == 0` or `ranks_per_node == 0`.
    pub fn grouped(size: usize, ranks_per_node: usize) -> Self {
        assert!(ranks_per_node > 0, "a node holds at least one rank");
        Topology::from_nodes((0..size).map(|r| r / ranks_per_node).collect())
    }

    /// Build from an explicit rank → node assignment. Node ids are
    /// normalised to dense indices in order of first appearance, so any
    /// labelling works.
    ///
    /// # Panics
    /// Panics if `node_of` is empty.
    pub fn from_nodes(node_of: Vec<usize>) -> Self {
        assert!(!node_of.is_empty(), "a topology needs at least one rank");
        let mut dense: Vec<usize> = Vec::new();
        let mut node_of_dense = Vec::with_capacity(node_of.len());
        for &raw in &node_of {
            let idx = match dense.iter().position(|&d| d == raw) {
                Some(i) => i,
                None => {
                    dense.push(raw);
                    dense.len() - 1
                }
            };
            node_of_dense.push(idx);
        }
        let mut nodes = vec![Vec::new(); dense.len()];
        for (rank, &n) in node_of_dense.iter().enumerate() {
            nodes[n].push(rank);
        }
        Topology { node_of: node_of_dense, nodes }
    }

    /// Number of ranks covered.
    pub fn size(&self) -> usize {
        self.node_of.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node index `rank` lives on.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// Member ranks of `node`, ascending.
    pub fn members(&self, node: usize) -> &[usize] {
        &self.nodes[node]
    }

    /// The leader (lowest rank) of `node`.
    pub fn leader(&self, node: usize) -> usize {
        self.nodes[node][0]
    }

    /// Whether `rank` is its node's leader.
    pub fn is_leader(&self, rank: usize) -> bool {
        self.leader(self.node_of(rank)) == rank
    }

    /// `rank`'s position within its node's member list.
    pub fn node_rank(&self, rank: usize) -> usize {
        self.members(self.node_of(rank))
            .iter()
            .position(|&r| r == rank)
            .expect("rank is a member of its own node")
    }

    /// Whether two ranks share a node (their traffic rides the cheap tier).
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of[a] == self.node_of[b]
    }

    /// Whether every rank shares one node — the fast path that skips the
    /// inter-node tier entirely.
    pub fn is_single_node(&self) -> bool {
        self.nodes.len() == 1
    }
}

/// Per-tier traffic counters, shared by a communicator handle and the
/// internal node-local/leader sub-communicators its hierarchical
/// collectives create (so a handle's stats cover the whole tiered
/// exchange). Atomics because the scheduler may drive a comm's collectives
/// from coordinator threads.
#[derive(Debug, Default)]
pub(crate) struct TierCounters {
    intra_messages: AtomicU64,
    intra_bytes: AtomicU64,
    intra_modeled_ns: AtomicU64,
    inter_messages: AtomicU64,
    inter_bytes: AtomicU64,
    inter_modeled_ns: AtomicU64,
}

impl TierCounters {
    pub fn record(&self, inter: bool, bytes: u64, modeled_ns: u64) {
        if inter {
            self.inter_messages.fetch_add(1, Ordering::Relaxed);
            self.inter_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.inter_modeled_ns.fetch_add(modeled_ns, Ordering::Relaxed);
        } else {
            self.intra_messages.fetch_add(1, Ordering::Relaxed);
            self.intra_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.intra_modeled_ns.fetch_add(modeled_ns, Ordering::Relaxed);
        }
    }

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

/// A point-in-time copy of a communicator's per-tier traffic, from
/// [`crate::Comm::tier_stats`]. Message counts, payload bytes, and the
/// modeled network time (per [`devsim::NetworkParams`]) per tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierSnapshot {
    /// Messages between ranks sharing a node.
    pub intra_messages: u64,
    /// Payload bytes between ranks sharing a node.
    pub intra_bytes: u64,
    /// Modeled nanoseconds of intra-node network time (serialised).
    pub intra_modeled_ns: u64,
    /// Messages crossing nodes.
    pub inter_messages: u64,
    /// Payload bytes crossing nodes.
    pub inter_bytes: u64,
    /// Modeled nanoseconds of inter-node network time (serialised).
    pub inter_modeled_ns: u64,
}

impl TierSnapshot {
    /// Traffic recorded since `earlier` (a previous snapshot of the same
    /// communicator).
    pub fn delta_since(&self, earlier: &TierSnapshot) -> TierSnapshot {
        TierSnapshot {
            intra_messages: self.intra_messages - earlier.intra_messages,
            intra_bytes: self.intra_bytes - earlier.intra_bytes,
            intra_modeled_ns: self.intra_modeled_ns - earlier.intra_modeled_ns,
            inter_messages: self.inter_messages - earlier.inter_messages,
            inter_bytes: self.inter_bytes - earlier.inter_bytes,
            inter_modeled_ns: self.inter_modeled_ns - earlier.inter_modeled_ns,
        }
    }

    /// Fold another snapshot into this one (for cross-rank aggregation).
    pub fn accumulate(&mut self, other: &TierSnapshot) {
        self.intra_messages += other.intra_messages;
        self.intra_bytes += other.intra_bytes;
        self.intra_modeled_ns += other.intra_modeled_ns;
        self.inter_messages += other.inter_messages;
        self.inter_bytes += other.inter_bytes;
        self.inter_modeled_ns += other.inter_modeled_ns;
    }

    /// Total messages across both tiers.
    pub fn messages(&self) -> u64 {
        self.intra_messages + self.inter_messages
    }

    /// Total payload bytes across both tiers.
    pub fn bytes(&self) -> u64 {
        self.intra_bytes + self.inter_bytes
    }

    /// Total modeled network time across both tiers (serialised: every
    /// message charged end-to-end, a deterministic upper bound).
    pub fn modeled(&self) -> Duration {
        Duration::from_nanos(self.intra_modeled_ns + self.inter_modeled_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_fills_nodes_in_order() {
        let t = Topology::grouped(10, 4);
        assert_eq!(t.size(), 10);
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.members(0), &[0, 1, 2, 3]);
        assert_eq!(t.members(2), &[8, 9]);
        assert_eq!(t.leader(1), 4);
        assert!(t.is_leader(8));
        assert!(!t.is_leader(9));
        assert_eq!(t.node_rank(6), 2);
        assert!(t.same_node(4, 7));
        assert!(!t.same_node(3, 4));
        assert!(!t.is_single_node());
    }

    #[test]
    fn single_node_is_flat() {
        let t = Topology::single_node(5);
        assert!(t.is_single_node());
        assert_eq!(t.num_nodes(), 1);
        assert!(t.same_node(0, 4));
        assert_eq!(t.node_rank(3), 3);
    }

    #[test]
    fn from_nodes_normalises_sparse_labels() {
        let t = Topology::from_nodes(vec![7, 2, 7, 9]);
        assert_eq!(t.num_nodes(), 3);
        // Dense ids in order of first appearance: 7 -> 0, 2 -> 1, 9 -> 2.
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(1), 1);
        assert_eq!(t.node_of(2), 0);
        assert_eq!(t.node_of(3), 2);
        assert_eq!(t.members(0), &[0, 2]);
    }

    #[test]
    fn tier_snapshot_delta_and_accumulate() {
        let c = TierCounters::default();
        c.record(false, 100, 10);
        let early = c.snapshot();
        c.record(true, 200, 20);
        c.record(true, 50, 5);
        let late = c.snapshot();
        let d = late.delta_since(&early);
        assert_eq!(d.intra_messages, 0);
        assert_eq!(d.inter_messages, 2);
        assert_eq!(d.inter_bytes, 250);
        assert_eq!(d.messages(), 2);
        assert_eq!(d.bytes(), 250);
        assert_eq!(d.modeled(), Duration::from_nanos(25));
        let mut total = early;
        total.accumulate(&d);
        assert_eq!(total, late);
    }
}
