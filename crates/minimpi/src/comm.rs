//! The communicator handle and point-to-point operations.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use devsim::NetworkParams;
use parking_lot::Mutex;

use crate::barrier::Barrier;
use crate::error::{Error, Result};
use crate::mailbox::{Key, Mailbox};
use crate::topology::{CollectiveMode, TierCounters, TierSnapshot, Topology};
use crate::ANY_SOURCE;

/// State shared by every rank of a [`crate::World`].
pub(crate) struct WorldShared {
    pub mailbox: Mailbox,
    /// One reusable barrier per communicator id.
    barriers: Mutex<HashMap<u64, Arc<Barrier>>>,
    /// Source of fresh communicator ids (the world communicator is id 0).
    next_comm_id: AtomicU64,
    /// Cost model for the simulated cluster network; every message is
    /// charged against its intra- or inter-node tier.
    pub net: NetworkParams,
    /// Multiplier on modeled message durations (0 disables modeled time
    /// but keeps message/byte counts).
    pub time_scale: f64,
}

impl WorldShared {
    pub fn new(net: NetworkParams, time_scale: f64) -> Self {
        WorldShared {
            mailbox: Mailbox::new(),
            barriers: Mutex::new(HashMap::new()),
            next_comm_id: AtomicU64::new(1),
            net,
            time_scale,
        }
    }

    /// All members of a communicator call this with the same `(id, n)`; the
    /// first caller creates the barrier and the rest share it.
    pub fn barrier_for(&self, id: u64, n: usize) -> Arc<Barrier> {
        self.barriers.lock().entry(id).or_insert_with(|| Arc::new(Barrier::new(n))).clone()
    }

    /// Reserve `count` consecutive fresh communicator ids, returning the first.
    pub fn reserve_comm_ids(&self, count: u64) -> u64 {
        self.next_comm_id.fetch_add(count, Ordering::Relaxed)
    }
}

/// A communicator: this rank's endpoint for messaging with its peers.
///
/// `Comm` is deliberately not `Clone`: collective calls keep an internal
/// sequence number that must stay in lockstep across ranks, and cloning
/// would silently fork it. Use [`Comm::dup`] (a collective) to obtain an
/// independent communicator over the same group, as in MPI.
pub struct Comm {
    shared: Arc<WorldShared>,
    comm_id: u64,
    rank: usize,
    size: usize,
    barrier: Arc<Barrier>,
    /// Per-rank collective sequence number; advances identically on every
    /// rank because collectives must be called in the same order everywhere.
    pub(crate) coll_seq: Cell<u64>,
    /// Allreduce rounds issued through this handle (packed or plain); the
    /// observable a fused analysis path optimises, so callers can assert on
    /// communication counts rather than trusting the implementation.
    pub(crate) allreduce_rounds: Cell<u64>,
    /// Collective observer (fault injection, tracing); see
    /// [`CollectiveHook`].
    coll_hook: RefCell<Option<CollectiveHook>>,
    /// The node grouping of this communicator's ranks.
    topology: Arc<Topology>,
    /// Whether collectives take the tiered or the flat path.
    mode: CollectiveMode,
    /// Per-tier traffic charged through this handle. Shared with the
    /// internal node/leader sub-communicators (see [`Hier`]) so a handle's
    /// stats cover its whole tiered exchange.
    tiers: Arc<TierCounters>,
    /// Lazily built node-local/leader sub-communicators for the
    /// hierarchical collective path.
    hier: RefCell<Option<Box<Hier>>>,
    /// [`Comm::allgather_into`]'s messages, kept between rounds.
    pub(crate) gather_spares: RefCell<Vec<Vec<f64>>>,
}

/// The internal sub-communicators one rank uses on the tiered path.
pub(crate) struct Hier {
    /// This rank's node-local sub-communicator (single-node topology, so
    /// its own collectives stay flat). Node rank 0 is the node leader.
    pub node: Comm,
    /// The inter-node leader sub-communicator; `Some` only on leaders.
    /// Its topology places each leader on its own node, so every message
    /// on it is charged to the inter-node tier.
    pub leader: Option<Comm>,
    /// The node index this rank lives on.
    pub node_index: usize,
}

/// Tag space reserved for collectives; user tags must stay below this.
pub(crate) const COLLECTIVE_TAG_BASE: u64 = 1 << 63;

/// Id space reserved for the internal hierarchical sub-communicators.
/// Ids are derived from the parent's id rather than negotiated, so
/// building the hierarchy costs no communication and cannot perturb the
/// parent's collective sequence: the leader comm of parent `p` is
/// `HIER_ID_BASE + p * HIER_ID_STRIDE`, and node `k`'s comm is that plus
/// `1 + k`.
const HIER_ID_BASE: u64 = 1 << 62;
const HIER_ID_STRIDE: u64 = 4096;

/// Observer invoked at the top of every collective on a communicator
/// (barrier excepted), with the collective's sequence number. Installed
/// with [`Comm::set_collective_hook`] and inherited by communicators
/// derived through `dup`/`split`; used for fault injection (slow-rank
/// delays) and tracing without coupling this crate to the simulator.
pub type CollectiveHook = Arc<dyn Fn(u64) + Send + Sync>;

impl Comm {
    pub(crate) fn new(
        shared: Arc<WorldShared>,
        comm_id: u64,
        rank: usize,
        size: usize,
        topology: Arc<Topology>,
        mode: CollectiveMode,
    ) -> Self {
        Comm::with_parts(shared, comm_id, rank, size, topology, mode, Arc::default())
    }

    fn with_parts(
        shared: Arc<WorldShared>,
        comm_id: u64,
        rank: usize,
        size: usize,
        topology: Arc<Topology>,
        mode: CollectiveMode,
        tiers: Arc<TierCounters>,
    ) -> Self {
        debug_assert_eq!(topology.size(), size, "topology must cover every rank");
        let barrier = shared.barrier_for(comm_id, size);
        Comm {
            shared,
            comm_id,
            rank,
            size,
            barrier,
            coll_seq: Cell::new(0),
            allreduce_rounds: Cell::new(0),
            coll_hook: RefCell::new(None),
            topology,
            mode,
            tiers,
            hier: RefCell::new(None),
            gather_spares: RefCell::default(),
        }
    }

    /// Install a [`CollectiveHook`] invoked at the top of every collective
    /// on this handle; communicators later derived via `dup`/`split`
    /// inherit it, as do the internal node-local/leader sub-communicators
    /// the hierarchical path creates (so fault sites fire on every tier).
    /// Must not be called from inside a hook.
    pub fn set_collective_hook(&self, hook: CollectiveHook) {
        if let Some(h) = self.hier.borrow().as_deref() {
            h.node.set_collective_hook(hook.clone());
            if let Some(l) = &h.leader {
                l.set_collective_hook(hook.clone());
            }
        }
        *self.coll_hook.borrow_mut() = Some(hook);
    }

    /// Remove the collective hook from this handle (and from the internal
    /// tier sub-communicators, if built). Must not be called from inside a
    /// hook.
    pub fn clear_collective_hook(&self) {
        if let Some(h) = self.hier.borrow().as_deref() {
            h.node.clear_collective_hook();
            if let Some(l) = &h.leader {
                l.clear_collective_hook();
            }
        }
        *self.coll_hook.borrow_mut() = None;
    }

    /// Internal: run the hook for collective number `seq`. The hook is
    /// cloned out before the call so it may itself inspect the comm.
    pub(crate) fn notify_collective(&self, seq: u64) {
        let hook = self.coll_hook.borrow().clone();
        if let Some(hook) = hook {
            hook(seq);
        }
    }

    /// Number of allreduce rounds issued through this handle so far. A
    /// packed allreduce counts as one round regardless of segment count.
    pub fn allreduce_count(&self) -> u64 {
        self.allreduce_rounds.get()
    }

    /// The node grouping of this communicator's ranks.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Per-tier traffic charged through this handle so far, including the
    /// internal tier sub-communicators of hierarchical collectives.
    /// Handles derived via `dup`/`split` account separately.
    pub fn tier_stats(&self) -> TierSnapshot {
        self.tiers.snapshot()
    }

    /// This rank's index within the communicator, in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.size
    }

    fn check_rank(&self, rank: usize) -> Result<()> {
        if rank < self.size {
            Ok(())
        } else {
            Err(Error::RankOutOfRange { rank, size: self.size })
        }
    }

    fn key(&self, src: usize, dst: usize, tag: u64) -> Key {
        Key { comm: self.comm_id, src, dst, tag }
    }

    /// Charge one message to `dst` against its network tier: counts, bytes,
    /// and the modeled duration under the world's [`NetworkParams`].
    pub(crate) fn charge_message(&self, dst: usize, bytes: usize) {
        let inter = !self.topology.same_node(self.rank, dst);
        let d = devsim::message_duration(bytes, inter, &self.shared.net, self.shared.time_scale);
        self.tiers.record(inter, bytes as u64, d.as_nanos() as u64);
    }

    /// Send `value` to `dst` with matching `tag`. Buffered: never blocks.
    ///
    /// Payloads are moved, not serialised, so tier accounting charges the
    /// shallow `size_of::<T>()`; collectives with known payload sizes
    /// charge exact byte counts instead.
    pub fn send<T: Send + 'static>(&self, dst: usize, tag: u64, value: T) -> Result<()> {
        self.check_rank(dst)?;
        debug_assert!(tag < COLLECTIVE_TAG_BASE, "user tags must be < 2^63");
        self.charge_message(dst, std::mem::size_of::<T>());
        self.shared.mailbox.post(self.key(self.rank, dst, tag), Box::new(value));
        Ok(())
    }

    /// Block until a message with `tag` from `src` arrives and return it.
    /// Pass [`crate::ANY_SOURCE`] as `src` to match any sender (use
    /// [`Comm::recv_any`] if you also need the source rank).
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u64) -> Result<T> {
        if src == ANY_SOURCE {
            return self.recv_any(tag).map(|(_, v)| v);
        }
        self.check_rank(src)?;
        self.shared.mailbox.take(self.key(src, self.rank, tag))
    }

    /// Blocking receive from any source; returns `(source_rank, value)`.
    pub fn recv_any<T: Send + 'static>(&self, tag: u64) -> Result<(usize, T)> {
        self.shared.mailbox.take_any(self.comm_id, self.rank, tag)
    }

    /// Receive with a timeout; [`Error::Timeout`] if nothing matched in time.
    pub fn recv_timeout<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<T> {
        self.check_rank(src)?;
        self.shared.mailbox.take_timeout(self.key(src, self.rank, tag), timeout)
    }

    /// Non-blocking receive: `None` if no matching message is queued.
    pub fn try_recv<T: Send + 'static>(&self, src: usize, tag: u64) -> Result<Option<T>> {
        self.check_rank(src)?;
        self.shared.mailbox.try_take(self.key(src, self.rank, tag)).transpose()
    }

    /// Combined send to `dst` and receive from `src` on the same tag, safe
    /// against the cyclic-exchange deadlock because sends are buffered.
    pub fn sendrecv<T: Send + 'static>(
        &self,
        dst: usize,
        src: usize,
        tag: u64,
        value: T,
    ) -> Result<T> {
        self.send(dst, tag, value)?;
        self.recv(src, tag)
    }

    /// Wait until every rank of the communicator has reached the barrier.
    ///
    /// Single-rank communicators return immediately; on a multi-node
    /// topology the wait is tiered (node barrier → leader barrier → node
    /// barrier) so only node leaders synchronise across the interconnect.
    pub fn barrier(&self) {
        if self.size == 1 {
            return;
        }
        if self.hierarchical() {
            self.with_hier(|h| {
                h.node.barrier();
                if let Some(l) = &h.leader {
                    l.barrier();
                }
                h.node.barrier();
            });
        } else {
            self.barrier.wait();
        }
    }

    pub(crate) fn shared(&self) -> &Arc<WorldShared> {
        &self.shared
    }

    /// Internal: send on the reserved collective tag space, charging the
    /// shallow payload size.
    pub(crate) fn coll_send<T: Send + 'static>(&self, dst: usize, tag: u64, value: T) {
        self.coll_send_metered(dst, tag, value, std::mem::size_of::<T>());
    }

    /// Internal: collective-tag send charging an exact payload size (used
    /// where the wire size is known, e.g. packed `f64` buffers).
    pub(crate) fn coll_send_metered<T: Send + 'static>(
        &self,
        dst: usize,
        tag: u64,
        value: T,
        bytes: usize,
    ) {
        self.charge_message(dst, bytes);
        self.shared.mailbox.post(self.key(self.rank, dst, tag), Box::new(value));
    }

    /// Internal: receive on the reserved collective tag space.
    pub(crate) fn coll_recv<T: Send + 'static>(&self, src: usize, tag: u64) -> Result<T> {
        self.shared.mailbox.take(self.key(src, self.rank, tag))
    }

    /// Internal: construct a sibling communicator handle (used by split/dup).
    /// The child inherits this handle's collective hook and mode.
    pub(crate) fn make(&self, comm_id: u64, rank: usize, size: usize, topology: Topology) -> Comm {
        let child =
            Comm::new(self.shared.clone(), comm_id, rank, size, Arc::new(topology), self.mode);
        *child.coll_hook.borrow_mut() = self.coll_hook.borrow().clone();
        child
    }

    /// Whether collectives on this handle take the tiered path: the mode
    /// allows it, the topology actually spans nodes (single-node worlds —
    /// the default — skip the inter-node tier entirely), and the id leaves
    /// room in the derived-id space (internal sub-comms never recurse).
    pub(crate) fn hierarchical(&self) -> bool {
        self.mode == CollectiveMode::Hierarchical
            && !self.topology.is_single_node()
            && self.comm_id < HIER_ID_BASE / HIER_ID_STRIDE
    }

    /// Run `f` with this rank's tier sub-communicators, building and
    /// caching them on first use. Construction is pure derivation — no
    /// messages, no collective slots — so it cannot perturb the parent's
    /// sequence numbers. Only meaningful when [`Comm::hierarchical`].
    pub(crate) fn with_hier<R>(&self, f: impl FnOnce(&Hier) -> R) -> R {
        debug_assert!(self.hierarchical());
        if self.hier.borrow().is_none() {
            *self.hier.borrow_mut() = Some(Box::new(self.build_hier()));
        }
        let guard = self.hier.borrow();
        f(guard.as_deref().expect("hierarchy built above"))
    }

    fn build_hier(&self) -> Hier {
        let topo = &self.topology;
        let num_nodes = topo.num_nodes();
        assert!(
            (num_nodes as u64) < HIER_ID_STRIDE,
            "derived-id space supports at most {} nodes",
            HIER_ID_STRIDE - 1
        );
        let node_index = topo.node_of(self.rank);
        let members = topo.members(node_index);
        let hook = self.coll_hook.borrow().clone();

        let node_id = HIER_ID_BASE + self.comm_id * HIER_ID_STRIDE + 1 + node_index as u64;
        let node = Comm::with_parts(
            self.shared.clone(),
            node_id,
            topo.node_rank(self.rank),
            members.len(),
            Arc::new(Topology::single_node(members.len())),
            self.mode,
            self.tiers.clone(),
        );
        *node.coll_hook.borrow_mut() = hook.clone();

        let leader = (topo.leader(node_index) == self.rank).then(|| {
            let leader_id = HIER_ID_BASE + self.comm_id * HIER_ID_STRIDE;
            // One node per leader: every leader-tier message is inter-node.
            let l = Comm::with_parts(
                self.shared.clone(),
                leader_id,
                node_index,
                num_nodes,
                Arc::new(Topology::from_nodes((0..num_nodes).collect())),
                self.mode,
                self.tiers.clone(),
            );
            *l.coll_hook.borrow_mut() = hook.clone();
            l
        });
        Hier { node, leader, node_index }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Error, World, ANY_SOURCE};
    use std::time::Duration;

    #[test]
    fn rank_and_size_are_consistent() {
        let got = World::new(3).run(|c| (c.rank(), c.size()));
        assert_eq!(got, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn ring_exchange_delivers_in_order() {
        let got = World::new(4).run(|c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            for i in 0..5u32 {
                c.send(next, 7, (c.rank() as u32, i)).unwrap();
            }
            (0..5u32).map(|_| c.recv::<(u32, u32)>(prev, 7).unwrap()).collect::<Vec<_>>()
        });
        for (rank, msgs) in got.iter().enumerate() {
            let prev = (rank + 4 - 1) % 4;
            let expect: Vec<_> = (0..5).map(|i| (prev as u32, i)).collect();
            assert_eq!(*msgs, expect);
        }
    }

    #[test]
    fn send_to_invalid_rank_errors() {
        World::new(2).run(|c| {
            assert!(matches!(c.send(5, 0, 1u8), Err(Error::RankOutOfRange { rank: 5, size: 2 })));
        });
    }

    #[test]
    fn recv_any_source_reports_sender() {
        let got = World::new(3).run(|c| {
            if c.rank() == 0 {
                let mut seen = vec![];
                for _ in 0..2 {
                    let (src, v): (usize, u64) = c.recv_any(3).unwrap();
                    seen.push((src, v));
                }
                seen.sort_unstable();
                seen
            } else {
                c.send(0, 3, c.rank() as u64 * 10).unwrap();
                vec![]
            }
        });
        assert_eq!(got[0], vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn recv_with_wildcard_constant() {
        let got = World::new(2).run(|c| {
            if c.rank() == 0 {
                c.recv::<i32>(ANY_SOURCE, 0).unwrap()
            } else {
                c.send(0, 0, 17i32).unwrap();
                0
            }
        });
        assert_eq!(got[0], 17);
    }

    #[test]
    fn sendrecv_cyclic_shift_does_not_deadlock() {
        let got = World::new(5).run(|c| {
            let dst = (c.rank() + 1) % c.size();
            let src = (c.rank() + c.size() - 1) % c.size();
            c.sendrecv(dst, src, 0, c.rank()).unwrap()
        });
        assert_eq!(got, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn recv_timeout_expires() {
        World::new(2).run(|c| {
            if c.rank() == 0 {
                let err = c.recv_timeout::<i32>(1, 0, Duration::from_millis(10)).unwrap_err();
                assert_eq!(err, Error::Timeout);
            }
            c.barrier();
        });
    }

    #[test]
    fn try_recv_sees_buffered_message_after_barrier() {
        World::new(2).run(|c| {
            if c.rank() == 1 {
                c.send(0, 2, 5u8).unwrap();
            }
            c.barrier();
            if c.rank() == 0 {
                assert_eq!(c.try_recv::<u8>(1, 2).unwrap(), Some(5));
                assert_eq!(c.try_recv::<u8>(1, 2).unwrap(), None);
            }
        });
    }

    #[test]
    fn collective_hook_fires_and_is_inherited() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let ok = World::new(2).run(|c| {
            let n = Arc::new(AtomicU64::new(0));
            let n2 = n.clone();
            c.set_collective_hook(Arc::new(move |_seq| {
                n2.fetch_add(1, Ordering::SeqCst);
            }));
            c.bcast(0, 7u8).unwrap();
            let after_bcast = n.load(Ordering::SeqCst);

            // dup's internal collectives run on the parent; the child
            // inherits the hook for its own collectives.
            let d = c.dup();
            let after_dup = n.load(Ordering::SeqCst);
            d.bcast(0, 9u8).unwrap();
            let after_child = n.load(Ordering::SeqCst);

            c.clear_collective_hook();
            c.bcast(0, 1u8).unwrap();
            let after_clear = n.load(Ordering::SeqCst);

            after_bcast == 1
                && after_dup > after_bcast
                && after_child == after_dup + 1
                && after_clear == after_child
        });
        assert!(ok.iter().all(|&b| b), "hook counts wrong on some rank: {ok:?}");
    }

    #[test]
    fn moves_non_clone_payloads() {
        struct Token(#[allow(dead_code)] Vec<u8>);
        let ok = World::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 0, Token(vec![1, 2, 3])).unwrap();
                true
            } else {
                c.recv::<Token>(0, 0).unwrap().0 == vec![1, 2, 3]
            }
        });
        assert!(ok.iter().all(|&b| b));
    }
}
