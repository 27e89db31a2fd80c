//! Collective operations over a [`Comm`].
//!
//! Every rank of the communicator must call each collective in the same
//! order (the standard MPI contract). Internally each collective claims a
//! fresh slice of the reserved tag space so that back-to-back collectives
//! and user point-to-point traffic can never cross-match.

use std::cell::RefCell;

use crate::comm::{Comm, COLLECTIVE_TAG_BASE};
use crate::error::{Error, Result};
use crate::topology::Topology;

/// What a message of `T` is charged by default: the shallow size of the
/// value moved (payloads are moved, not serialised).
fn shallow<T>(_: &T) -> usize {
    std::mem::size_of::<T>()
}

/// Sub-tags within one collective's tag slice.
const SLOT_DATA: u64 = 0;
const SLOT_RESULT: u64 = 1;
const SLOTS_PER_COLLECTIVE: u64 = 4;

/// Fold rank-ordered per-rank contributions in the topology's *canonical
/// merge order*: each node's members left-to-right in rank order, then the
/// node partials combined pairwise along a binomial tree over node indices
/// (`gap = 1, 2, 4, …`; at each gap, partial `i` absorbs partial
/// `i + gap`). `None` entries act as absent contributions.
///
/// This one parenthesisation is realised *physically* by the tiered
/// allreduce (node-local reduce → leader binomial tree) and
/// *arithmetically* by [`Comm::reduce`]'s root, which is what keeps an
/// allreduce bit-identical to `reduce` then `bcast` for non-associative
/// ops such as `f64` sums. With a single-node topology it degenerates to a
/// plain left fold in rank order.
fn canonical_combine<T, F>(mut parts: Vec<Option<T>>, topology: &Topology, op: &F) -> Option<T>
where
    F: Fn(T, T) -> T,
{
    debug_assert_eq!(parts.len(), topology.size());
    let merge = |a: Option<T>, b: Option<T>| match (a, b) {
        (Some(a), Some(b)) => Some(op(a, b)),
        (a, None) => a,
        (None, b) => b,
    };
    let mut partials: Vec<Option<T>> = Vec::with_capacity(topology.num_nodes());
    for node in 0..topology.num_nodes() {
        let mut acc: Option<T> = None;
        for &rank in topology.members(node) {
            acc = merge(acc, parts[rank].take());
        }
        partials.push(acc);
    }
    let m = partials.len();
    let mut gap = 1;
    while gap < m {
        let mut i = 0;
        while i + gap < m {
            let b = partials[i + gap].take();
            let a = partials[i].take();
            partials[i] = merge(a, b);
            i += 2 * gap;
        }
        gap *= 2;
    }
    partials.into_iter().next().flatten()
}

/// Element-wise merge semantics for one segment of a packed `f64`
/// collective (see [`Comm::allreduce_packed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise minimum; NaN elements lose to any finite value.
    Min,
    /// Element-wise maximum; NaN elements lose to any finite value.
    Max,
}

impl SegmentOp {
    /// `acc[i] = acc[i] ⊕ part[i]` over one segment. The op is matched
    /// once, outside the loop, so each arm is a plain zipped slice loop the
    /// compiler vectorises.
    fn merge(self, acc: &mut [f64], part: &[f64]) {
        let pairs = acc.iter_mut().zip(part);
        match self {
            SegmentOp::Sum => pairs.for_each(|(a, b)| *a += *b),
            // `f64::min`/`max` are NaN-ignoring: if one side is NaN the
            // other wins, which is what empty-bin Min/Max identities need.
            SegmentOp::Min => pairs.for_each(|(a, b)| *a = a.min(*b)),
            SegmentOp::Max => pairs.for_each(|(a, b)| *a = a.max(*b)),
        }
    }
}

/// One segment of a packed collective: `len` consecutive elements merged
/// with `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Merge semantics for this segment's elements.
    pub op: SegmentOp,
    /// Number of consecutive elements the segment covers.
    pub len: usize,
}

impl Segment {
    /// Convenience constructor.
    pub fn new(op: SegmentOp, len: usize) -> Self {
        Segment { op, len }
    }
}

impl Comm {
    /// Claim the tag slice for the next collective on this communicator,
    /// running the collective hook (slow-rank injection, tracing) first.
    fn next_coll_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        self.notify_collective(seq);
        COLLECTIVE_TAG_BASE + seq * SLOTS_PER_COLLECTIVE
    }

    /// Broadcast `value` from `root` to every rank. Non-root ranks pass
    /// their own (ignored) `value`; all ranks return the root's value.
    ///
    /// Single-rank communicators short-circuit (the slot is still claimed
    /// so the hook observes the collective); on a multi-node topology the
    /// broadcast is tiered — root to the other nodes' leaders over the
    /// interconnect, then node-local fan-out.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, value: T) -> Result<T> {
        self.bcast_metered(root, value, &T::clone, &shallow)
    }

    /// [`Comm::bcast`] charging `bytes(message)` per message. Every copy a
    /// sender hands out is made by `dup` — `T::clone`, or a caller with
    /// buffers to reuse.
    pub(crate) fn bcast_metered<T: Send + 'static>(
        &self,
        root: usize,
        value: T,
        dup: &impl Fn(&T) -> T,
        bytes: &impl Fn(&T) -> usize,
    ) -> Result<T> {
        let tag = self.next_coll_tag();
        if self.size() == 1 {
            return Ok(value);
        }
        if self.hierarchical() {
            return self.bcast_hier(root, value, dup, bytes, tag);
        }
        if self.rank() == root {
            for dst in 0..self.size() {
                if dst != root {
                    self.coll_send_metered(dst, tag + SLOT_DATA, dup(&value), bytes(&value));
                }
            }
            Ok(value)
        } else {
            self.coll_recv(root, tag + SLOT_DATA)
        }
    }

    /// Tiered broadcast: `root` hands the value to every other node's
    /// leader (inter-node tier, on this comm's tag), then each node fans
    /// out locally on the node sub-communicator. The value is duplicated
    /// verbatim, so every rank gets the root's value whatever the route.
    fn bcast_hier<T: Send + 'static>(
        &self,
        root: usize,
        value: T,
        dup: &impl Fn(&T) -> T,
        bytes: &impl Fn(&T) -> usize,
        tag: u64,
    ) -> Result<T> {
        self.with_hier(|h| {
            let topo = self.topology();
            let root_node = topo.node_of(root);
            // Within root's node the original root is the local source;
            // elsewhere the node leader is (it receives from root first).
            let src = if h.node_index == root_node { root } else { topo.leader(h.node_index) };
            let node_tag = h.node.next_coll_tag();
            if self.rank() == src {
                let v = if self.rank() == root {
                    for node in 0..topo.num_nodes() {
                        if node != root_node {
                            self.coll_send_metered(
                                topo.leader(node),
                                tag + SLOT_DATA,
                                dup(&value),
                                bytes(&value),
                            );
                        }
                    }
                    value
                } else {
                    self.coll_recv(root, tag + SLOT_DATA)?
                };
                for nr in 0..h.node.size() {
                    if nr != h.node.rank() {
                        h.node.coll_send_metered(nr, node_tag + SLOT_DATA, dup(&v), bytes(&v));
                    }
                }
                Ok(v)
            } else {
                h.node.coll_recv(topo.node_rank(src), node_tag + SLOT_DATA)
            }
        })
    }

    /// Reduce every rank's `value` with `op` at `root`. Returns
    /// `Some(result)` on the root and `None` elsewhere. The fold follows
    /// the topology's canonical merge order — plain rank order on the
    /// default single-node topology — so non-commutative `op`s behave
    /// deterministically and the result matches the tiered
    /// [`Comm::allreduce`] bit for bit.
    pub fn reduce<T, F>(&self, root: usize, value: T, op: F) -> Result<Option<T>>
    where
        T: Send + 'static,
        F: Fn(T, T) -> T,
    {
        self.reduce_metered(root, value, &op, &shallow)
    }

    pub(crate) fn reduce_metered<T, F>(
        &self,
        root: usize,
        value: T,
        op: &F,
        bytes: &impl Fn(&T) -> usize,
    ) -> Result<Option<T>>
    where
        T: Send + 'static,
        F: Fn(T, T) -> T,
    {
        let tag = self.next_coll_tag();
        if self.rank() == root {
            let mut parts: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            parts[root] = Some(value);
            for (src, part) in parts.iter_mut().enumerate() {
                if src != root {
                    *part = Some(self.coll_recv(src, tag + SLOT_DATA)?);
                }
            }
            Ok(canonical_combine(parts, self.topology(), op))
        } else {
            let bytes = bytes(&value);
            self.coll_send_metered(root, tag + SLOT_DATA, value, bytes);
            Ok(None)
        }
    }

    /// Reduce with `op` and distribute the result to every rank.
    ///
    /// On a multi-node topology this is tiered: node-local reduce to each
    /// node's leader, a binomial tree among leaders over the inter-node
    /// tier, then node-local broadcast — the canonical merge order
    /// [`Comm::reduce`] applies at its root, so the result equals `reduce`
    /// then `bcast` bit for bit. A single-node communicator takes exactly
    /// that direct path.
    pub fn allreduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        self.allreduce_metered(value, &op, &T::clone, &shallow)
    }

    /// [`Comm::allreduce`] charging `bytes(message)` per message, the
    /// copies of the result handed back down made by `dup` (see
    /// [`Comm::bcast_metered`]). Every rank sends down exactly as many
    /// copies as it merged partials on the way up, on the direct and the
    /// tiered path alike.
    fn allreduce_metered<T, F, D, B>(&self, value: T, op: &F, dup: &D, bytes: &B) -> T
    where
        T: Send + 'static,
        F: Fn(T, T) -> T,
        D: Fn(&T) -> T,
        B: Fn(&T) -> usize,
    {
        self.allreduce_rounds.set(self.allreduce_rounds.get() + 1);
        if self.size() == 1 {
            // Single-rank communicators: the reduction of one value is the
            // value itself, so skip the reduce + bcast mailbox round-trip.
            // The round still counts (above) and still claims one
            // collective slot, so the hook (slow-rank injection, tracing)
            // observes it like any other collective.
            let _ = self.next_coll_tag();
            return value;
        }
        if self.hierarchical() {
            return self.allreduce_hier(value, op, dup, bytes);
        }
        let reduced = self.reduce_metered(0, value, op, bytes).expect("rank 0 is always valid");
        let down = |v: &Option<T>| v.as_ref().map_or(0, bytes);
        self.bcast_metered(0, reduced, &|v: &Option<T>| v.as_ref().map(dup), &down)
            .expect("rank 0 is always valid")
            .expect("root always holds the reduced value")
    }

    /// The tiered allreduce. One collective slot is claimed on the parent
    /// (the hook observes the logical allreduce), then each tier's
    /// collective claims its own slot on its sub-communicator — so a hook
    /// such as the `mpi.collective` fault site fires on every tier.
    fn allreduce_hier<T, F, D, B>(&self, value: T, op: &F, dup: &D, bytes: &B) -> T
    where
        T: Send + 'static,
        F: Fn(T, T) -> T,
        D: Fn(&T) -> T,
        B: Fn(&T) -> usize,
    {
        let _ = self.next_coll_tag();
        self.with_hier(|h| {
            // Tier 1 (intra-node): reduce to the node leader, folding
            // members left-to-right in rank order.
            let partial = h.node.reduce_metered(0, value, op, bytes).expect("node rank 0 valid");
            // Tier 2 (inter-node): binomial-tree allreduce among leaders.
            let result = h.leader.as_ref().map(|l| {
                let partial = partial.expect("leader holds its node partial");
                leader_allreduce(l, partial, op, dup, bytes)
            });
            // Tier 3 (intra-node): node-local broadcast of the result.
            let node_tag = h.node.next_coll_tag();
            if h.node.rank() == 0 {
                let v = result.expect("node leader ran the leader tier");
                for nr in 1..h.node.size() {
                    h.node.coll_send_metered(nr, node_tag + SLOT_DATA, dup(&v), bytes(&v));
                }
                v
            } else {
                h.node.coll_recv(0, node_tag + SLOT_DATA).expect("node leader broadcasts")
            }
        })
    }

    /// One allreduce round over a `Vec<f64>` whose merge the caller
    /// gives: `merge(acc, part)` folds `part` into `acc`, and may change
    /// its length (a compacted payload grows by the entries `part` adds).
    /// The fold follows the canonical merge order of [`Comm::allreduce`],
    /// on the direct and the tiered path alike, and counts as one round.
    /// Each message is charged its own length × 8 bytes.
    ///
    /// A merged-in partial's buffer is dead weight its rank already holds:
    /// the copies of the result sent back down are written into those, so
    /// once they have grown to the result's size a round allocates nothing
    /// payload-sized, and every non-merging rank gets the allocation it
    /// sent back.
    pub fn allreduce_with(
        &self,
        data: Vec<f64>,
        merge: impl Fn(&mut Vec<f64>, &[f64]),
    ) -> Vec<f64> {
        let spares = RefCell::new(Vec::new());
        let op = |mut a: Vec<f64>, b: Vec<f64>| {
            merge(&mut a, &b);
            spares.borrow_mut().push(b);
            a
        };
        let dup = |result: &Vec<f64>| match spares.borrow_mut().pop() {
            Some(mut spare) => {
                spare.clear();
                spare.extend_from_slice(result);
                spare
            }
            None => result.clone(),
        };
        self.allreduce_metered(data, &op, &dup, &|v: &Vec<f64>| std::mem::size_of_val(&v[..]))
    }

    /// One reduction round that leaves each rank a share of the result:
    /// `parts[d]` is this rank's contribution to rank `d`'s share, and rank
    /// `d` returns every rank's `parts[d]` folded by `merge(acc, part)`.
    /// The fold follows the canonical merge order [`Comm::reduce`] and
    /// [`Comm::allreduce_with`] apply at their root, on any topology, so
    /// each share equals the matching slice of an allreduce bit for bit.
    /// `merge` is handed each folded-in part by value, so the caller may
    /// keep its allocation for a later round's parts.
    ///
    /// The exchange is direct, as [`Comm::reduce`]'s is: every rank sends
    /// each other rank its part, on whatever tier joins the two. It claims
    /// one collective slot, counts as one round, and charges each message
    /// its own length × 8 bytes; a rank's own part is not sent.
    ///
    /// # Panics
    ///
    /// If `parts` does not hold one part per rank.
    pub fn reduce_scatter_with(
        &self,
        parts: Vec<Vec<f64>>,
        merge: impl Fn(&mut Vec<f64>, Vec<f64>),
    ) -> Vec<f64> {
        assert_eq!(parts.len(), self.size(), "reduce_scatter_with takes one part per rank");
        self.allreduce_rounds.set(self.allreduce_rounds.get() + 1);
        let tag = self.next_coll_tag();
        let mut got: Vec<Option<Vec<f64>>> = Vec::with_capacity(self.size());
        for (dst, part) in parts.into_iter().enumerate() {
            if dst == self.rank() {
                got.push(Some(part));
            } else {
                let bytes = std::mem::size_of_val(&part[..]);
                self.coll_send_metered(dst, tag + SLOT_DATA, part, bytes);
                got.push(None);
            }
        }
        for (src, slot) in got.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(self.coll_recv(src, tag + SLOT_DATA).expect("every rank sends"));
            }
        }
        let op = |mut acc: Vec<f64>, part: Vec<f64>| {
            merge(&mut acc, part);
            acc
        };
        canonical_combine(got, self.topology(), &op).expect("every rank contributes a part")
    }

    /// One allreduce round over a packed `f64` buffer with per-segment
    /// merge semantics: `segments[i]` describes the op applied element-wise
    /// to the `i`-th run of consecutive elements. This is how N independent
    /// reductions collapse into a single communication round — the
    /// segment layout must be identical on every rank. It is
    /// [`Comm::allreduce_with`] with the segment merge, so on a multi-node
    /// topology the round is tiered but still counts as one round.
    ///
    /// Errors (before communicating) if the segment lengths do not sum to
    /// `data.len()`.
    pub fn allreduce_packed(&self, data: Vec<f64>, segments: &[Segment]) -> Result<Vec<f64>> {
        let expected: usize = segments.iter().map(|s| s.len).sum();
        if expected != data.len() {
            return Err(Error::LengthMismatch { expected, got: data.len() });
        }
        Ok(self.allreduce_with(data, |a, b| {
            assert_eq!(a.len(), b.len(), "packed buffers must agree across ranks");
            let (mut acc, mut part) = (&mut a[..], b);
            for seg in segments {
                let (head, tail) = acc.split_at_mut(seg.len);
                seg.op.merge(head, &part[..seg.len]);
                (acc, part) = (tail, &part[seg.len..]);
            }
        }))
    }

    /// Gather every rank's `value` at `root`, in rank order: `Some` of
    /// every rank's value on the root, `None` elsewhere. Each message is
    /// charged `bytes(value)`: payloads are moved, not serialised, so only
    /// the caller knows what one would put on the wire.
    pub fn gather<T: Send + 'static>(
        &self,
        root: usize,
        value: T,
        bytes: impl Fn(&T) -> usize,
    ) -> Result<Option<Vec<T>>> {
        let tag = self.next_coll_tag();
        if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value);
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.coll_recv(src, tag + SLOT_DATA)?);
                }
            }
            Ok(Some(out.into_iter().map(|v| v.expect("all ranks filled")).collect()))
        } else {
            let bytes = bytes(&value);
            self.coll_send_metered(root, tag + SLOT_DATA, value, bytes);
            Ok(None)
        }
    }

    /// Gather every rank's `value` and hand the full rank-ordered vector to
    /// every rank. Each message is charged the shallow size of what it
    /// moves.
    pub fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        let gathered = self.gather(0, value, shallow).expect("rank 0 is always valid");
        let tag = self.next_coll_tag();
        if self.rank() == 0 {
            let all = gathered.expect("root has the gathered vector");
            for dst in 1..self.size() {
                self.coll_send(dst, tag + SLOT_RESULT, all.clone());
            }
            all
        } else {
            self.coll_recv(0, tag + SLOT_RESULT).expect("root broadcasts to all")
        }
    }

    /// [`Comm::allgather`] of `f64` slices into buffers the caller keeps:
    /// `out` is overwritten with every rank's `mine`, back to back in rank
    /// order, and `lens` with their lengths. This is the allocation-free
    /// form: each rank's message comes back to it as the result, so the
    /// allocation it travels in goes to the root and back, round after
    /// round, and once `out` and the messages have grown to a round's size
    /// a round allocates nothing payload-sized. It claims the same two
    /// collective slots as [`Comm::allgather`] (so hooks see it alike), and
    /// charges each message the bytes of the `f64`s it carries — on the way
    /// down, the ranks' lengths and every rank's values.
    pub fn allgather_into(&self, mine: &[f64], out: &mut Vec<f64>, lens: &mut Vec<usize>) {
        let tag = self.next_coll_tag();
        let root = self.rank() == 0;
        // The root holds the received messages until it sends them back;
        // every other rank holds its one message between rounds.
        let mut held = self.gather_spares.take();
        if root {
            out.clear();
            out.extend_from_slice(mine);
            lens.clear();
            lens.push(mine.len());
            for src in 1..self.size() {
                let part: Vec<f64> = self.coll_recv(src, tag + SLOT_DATA).expect("ranks send");
                out.extend_from_slice(&part);
                lens.push(part.len());
                held.push(part);
            }
        } else {
            let mut msg = held.pop().unwrap_or_default();
            msg.clear();
            msg.extend_from_slice(mine);
            let bytes = std::mem::size_of_val(&msg[..]);
            self.coll_send_metered(0, tag + SLOT_DATA, msg, bytes);
        }
        // The result goes down headed by the ranks' lengths, each exact
        // as an `f64`.
        let tag = self.next_coll_tag();
        if root {
            for (dst, mut msg) in (1..self.size()).zip(held.drain(..)) {
                msg.clear();
                msg.extend(lens.iter().map(|&n| n as f64));
                msg.extend_from_slice(out);
                let bytes = std::mem::size_of_val(&msg[..]);
                self.coll_send_metered(dst, tag + SLOT_RESULT, msg, bytes);
            }
        } else {
            let all: Vec<f64> = self.coll_recv(0, tag + SLOT_RESULT).expect("root broadcasts");
            let (header, data) = all.split_at(self.size());
            lens.clear();
            lens.extend(header.iter().map(|&n| n as usize));
            out.clear();
            out.extend_from_slice(data);
            held.push(all);
        }
        self.gather_spares.replace(held);
    }

    /// Personalized all-to-all: `values[i]` is delivered to rank `i`; the
    /// result's slot `j` holds what rank `j` sent to this rank. Over `Vec`s
    /// it moves variable-size payloads, which Newton++'s body
    /// repartitioning is built on. Each message is charged `bytes(value)`:
    /// payloads are moved, not serialised, so only the caller knows what
    /// one would put on the wire.
    pub fn alltoall<T: Send + 'static>(
        &self,
        values: Vec<T>,
        bytes: impl Fn(&T) -> usize,
    ) -> Result<Vec<T>> {
        if values.len() != self.size() {
            return Err(Error::LengthMismatch { expected: self.size(), got: values.len() });
        }
        let tag = self.next_coll_tag();
        let mut own: Option<T> = None;
        for (dst, v) in values.into_iter().enumerate() {
            if dst == self.rank() {
                own = Some(v);
            } else {
                let bytes = bytes(&v);
                self.coll_send_metered(dst, tag + SLOT_DATA, v, bytes);
            }
        }
        let mut out = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == self.rank() {
                out.push(own.take().expect("own slot set above"));
            } else {
                out.push(self.coll_recv(src, tag + SLOT_DATA)?);
            }
        }
        Ok(out)
    }

    /// Duplicate the communicator: same group and topology; fresh id and
    /// tag space. Collective.
    pub fn dup(&self) -> Comm {
        let id = if self.rank() == 0 { self.shared().fresh_comm_id() } else { 0 };
        let id = self.bcast(0, id).expect("rank 0 is always valid");
        self.sibling(id)
    }
}

/// Binomial-tree allreduce among node leaders (the inter-node tier).
/// Reduction walks `gap = 1, 2, 4, …`: at each gap, the leader at index
/// `i + gap` sends its partial to leader `i` (a multiple of `2·gap`),
/// which folds it on the right — exactly the parenthesisation
/// [`canonical_combine`] applies to node partials. The result then walks
/// the mirrored tree back down. One collective slot on the leader comm
/// covers both sweeps, so hooks (fault sites) observe one leader-tier
/// collective per allreduce.
fn leader_allreduce<T, F, D, B>(l: &Comm, mine: T, op: &F, dup: &D, bytes: &B) -> T
where
    T: Send + 'static,
    F: Fn(T, T) -> T,
    D: Fn(&T) -> T,
    B: Fn(&T) -> usize,
{
    let tag = l.next_coll_tag();
    let m = l.size();
    let i = l.rank();
    let mut acc = Some(mine);
    let mut gap = 1;
    while gap < m {
        if i % (2 * gap) == gap {
            let partial = acc.take().expect("unsent partial");
            let bytes = bytes(&partial);
            l.coll_send_metered(i - gap, tag + SLOT_DATA, partial, bytes);
            break;
        }
        debug_assert_eq!(i % (2 * gap), 0, "non-senders are merge targets at every gap");
        if i + gap < m {
            let other: T = l.coll_recv(i + gap, tag + SLOT_DATA).expect("tree peer sends");
            acc = Some(op(acc.take().expect("merge target holds a partial"), other));
        }
        gap *= 2;
    }
    // Broadcast back down: highest power of two first, receivers become
    // senders at the smaller gaps below them.
    let mut top = 1;
    while top < m {
        top *= 2;
    }
    let mut gap = top / 2;
    while gap >= 1 {
        if i.is_multiple_of(2 * gap) {
            if i + gap < m {
                let v = dup(acc.as_ref().expect("holders forward the result"));
                let bytes = bytes(&v);
                l.coll_send_metered(i + gap, tag + SLOT_RESULT, v, bytes);
            }
        } else if i % (2 * gap) == gap {
            acc = Some(l.coll_recv(i - gap, tag + SLOT_RESULT).expect("tree parent sends"));
        }
        gap /= 2;
    }
    acc.expect("every leader ends with the result")
}

#[cfg(test)]
mod tests {
    use crate::{Comm, Segment, SegmentOp, Topology, World};

    #[test]
    fn allreduce_packed_merges_per_segment() {
        let got = World::new(3).run(|c| {
            let r = c.rank() as f64;
            // [sum sum | min | max max]
            let data = vec![r, 10.0 * r, r, r, 100.0 - r];
            let segs = [
                Segment::new(SegmentOp::Sum, 2),
                Segment::new(SegmentOp::Min, 1),
                Segment::new(SegmentOp::Max, 2),
            ];
            c.allreduce_packed(data, &segs).unwrap()
        });
        for v in got {
            assert_eq!(v, vec![3.0, 30.0, 0.0, 2.0, 100.0]);
        }
    }

    #[test]
    fn allreduce_packed_min_max_ignore_nan() {
        let got = World::new(2).run(|c| {
            let data = if c.rank() == 0 { vec![f64::NAN, 5.0] } else { vec![2.0, f64::NAN] };
            let segs = [Segment::new(SegmentOp::Min, 1), Segment::new(SegmentOp::Max, 1)];
            c.allreduce_packed(data, &segs).unwrap()
        });
        for v in got {
            assert_eq!(v, vec![2.0, 5.0]);
        }
    }

    #[test]
    fn allreduce_packed_rejects_bad_segment_layout() {
        World::new(2).run(|c| {
            let segs = [Segment::new(SegmentOp::Sum, 3)];
            assert!(c.allreduce_packed(vec![1.0, 2.0], &segs).is_err());
            // The error fires before any communication, so both ranks stay
            // aligned without recovery.
            c.barrier();
        });
    }

    #[test]
    fn allreduce_counter_counts_packed_as_one_round() {
        let got = World::new(2).run(|c| {
            c.allreduce(1u64, |a, b| a + b);
            let segs = [Segment::new(SegmentOp::Sum, 2), Segment::new(SegmentOp::Min, 1)];
            c.allreduce_packed(vec![0.0; 3], &segs).unwrap();
            c.allreduce_count()
        });
        assert_eq!(got, vec![2, 2]);
    }

    #[test]
    fn single_rank_allreduce_short_circuits() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        World::new(1).run(|c| {
            // The hook still observes exactly one collective per round,
            // so sequencing/fault-injection semantics are preserved.
            let fired = Arc::new(AtomicU64::new(0));
            let f2 = fired.clone();
            c.set_collective_hook(Arc::new(move |_| {
                f2.fetch_add(1, Ordering::SeqCst);
            }));

            assert_eq!(c.allreduce(41i64, |a, b| a + b), 41);
            assert_eq!(c.allreduce_count(), 1);
            assert_eq!(fired.load(Ordering::SeqCst), 1);

            // Non-commutative op: the lone value passes through untouched.
            assert_eq!(c.allreduce("solo".to_string(), |a, b| a + &b), "solo");
            assert_eq!(c.allreduce_count(), 2);

            // Packed variant rides the same fast path — but validates the
            // segment layout first, without counting a round.
            let bad = [Segment::new(SegmentOp::Sum, 2)];
            assert!(c.allreduce_packed(vec![1.0], &bad).is_err());
            assert_eq!(c.allreduce_count(), 2);
            let segs = [Segment::new(SegmentOp::Sum, 1), Segment::new(SegmentOp::Min, 1)];
            assert_eq!(c.allreduce_packed(vec![3.0, 7.0], &segs).unwrap(), vec![3.0, 7.0]);
            assert_eq!(c.allreduce_count(), 3);
        });
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..4 {
            let got = World::new(4).run(move |c| {
                let v = if c.rank() == root { 42 + root } else { 0 };
                c.bcast(root, v).unwrap()
            });
            assert_eq!(got, vec![42 + root; 4]);
        }
    }

    #[test]
    fn reduce_sum_matches_sequential() {
        let got = World::new(6).run(|c| c.reduce(2, c.rank() as i64 + 1, |a, b| a + b).unwrap());
        assert_eq!(got[2], Some(21));
        for (r, v) in got.iter().enumerate() {
            if r != 2 {
                assert_eq!(*v, None);
            }
        }
    }

    #[test]
    fn reduce_is_rank_ordered_for_noncommutative_op() {
        // String concatenation is non-commutative; rank order must hold.
        let got = World::new(4).run(|c| c.reduce(0, c.rank().to_string(), |a, b| a + &b).unwrap());
        assert_eq!(got[0].as_deref(), Some("0123"));
    }

    #[test]
    fn allreduce_min_and_max() {
        let vals = [5i64, -3, 9, 0];
        let mins = World::new(4).run(move |c| c.allreduce(vals[c.rank()], i64::min));
        assert_eq!(mins, vec![-3; 4]);
        let maxs = World::new(4).run(move |c| c.allreduce(vals[c.rank()], i64::max));
        assert_eq!(maxs, vec![9; 4]);
    }

    #[test]
    fn gather_orders_by_rank() {
        let got = World::new(5).run(|c| c.gather(1, c.rank() * 10, super::shallow).unwrap());
        assert_eq!(got[1], Some(vec![0, 10, 20, 30, 40]));
        assert_eq!(got[0], None);
    }

    #[test]
    fn allgather_into_lands_every_rank_in_the_callers_buffers() {
        let got = World::new(3).run(|c| {
            let (mut out, mut lens) = (vec![f64::NAN; 7], vec![9]);
            let cap = out.capacity();
            for step in 0..3 {
                let mine: Vec<f64> =
                    (0..=c.rank()).map(|i| (10 * c.rank() + i + step) as f64).collect();
                c.allgather_into(&mine, &mut out, &mut lens);
            }
            (out, lens, cap)
        });
        for (out, lens, _) in &got {
            assert_eq!(lens, &[1, 2, 3]);
            assert_eq!(out, &[2.0, 12.0, 13.0, 22.0, 23.0, 24.0]);
        }
        assert_eq!(got[0].0.capacity(), got[0].2, "the root's buffer was kept");
    }

    #[test]
    fn f64_payloads_are_charged_eight_bytes_per_value() {
        let got = World::new(3).run(|c| {
            let (mut out, mut lens) = (Vec::new(), Vec::new());
            let before = c.tier_stats().bytes();
            c.allgather_into(&vec![1.0; c.rank() + 1], &mut out, &mut lens);
            let gathered = c.tier_stats().bytes() - before;
            // A merge that keeps the longer payload: the result has 3 values.
            let merged = c.allreduce_with(vec![0.0; c.rank() + 1], |a, b| {
                if b.len() > a.len() {
                    a.clear();
                    a.extend_from_slice(b);
                }
            });
            (gathered, c.tier_stats().bytes() - before - gathered, merged.len())
        });
        let total = |f: fn(&(u64, u64, usize)) -> u64| got.iter().map(f).sum::<u64>();
        // Up, ranks 1 and 2 send 2 and 3 values; down, each gets the 3
        // lengths and all 6 values.
        assert_eq!(total(|g| g.0), (2 + 3 + 2 * 9) * 8);
        // Up, the same 2 and 3 values; down, each gets the 3-value result.
        assert_eq!(total(|g| g.1), (2 + 3 + 2 * 3) * 8);
        assert!(got.iter().all(|g| g.2 == 3));
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        let got = World::new(4).run(|c| c.allgather(format!("r{}", c.rank())));
        for v in got {
            assert_eq!(v, vec!["r0", "r1", "r2", "r3"]);
        }
    }

    #[test]
    fn alltoall_transposes() {
        let got = World::new(3).run(|c| {
            let outgoing: Vec<u32> = (0..3).map(|d| (c.rank() * 10 + d) as u32).collect();
            c.alltoall(outgoing, std::mem::size_of_val).unwrap()
        });
        // rank r receives j*10 + r from each rank j
        for (r, incoming) in got.iter().enumerate() {
            let expect: Vec<u32> = (0..3).map(|j| (j * 10 + r) as u32).collect();
            assert_eq!(*incoming, expect);
        }
    }

    #[test]
    fn alltoallv_moves_variable_payloads() {
        let got = World::new(3).run(|c| {
            let outgoing: Vec<Vec<usize>> = (0..3).map(|d| vec![c.rank(); d]).collect();
            c.alltoall(outgoing, |v| std::mem::size_of_val(&v[..])).unwrap()
        });
        for (r, incoming) in got.iter().enumerate() {
            for (j, part) in incoming.iter().enumerate() {
                assert_eq!(*part, vec![j; r]);
            }
        }
    }

    #[test]
    fn alltoall_length_mismatch_errors() {
        World::new(2).run(|c| {
            assert!(c.alltoall(vec![1, 2, 3], std::mem::size_of_val).is_err());
            // Recover the collective sequence so both ranks stay aligned.
            c.barrier();
        });
    }

    #[test]
    fn dup_isolates_tag_space() {
        let ok = World::new(2).run(|c| {
            let d = c.dup();
            if c.rank() == 0 {
                c.send(1, 5, 1u8).unwrap();
                d.send(1, 5, 2u8).unwrap();
                true
            } else {
                // Receive in the opposite order: messages must not cross
                // between the two communicators.
                let on_dup: u8 = d.recv(0, 5).unwrap();
                let on_parent: u8 = c.recv(0, 5).unwrap();
                on_dup == 2 && on_parent == 1
            }
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_match() {
        let got = World::new(4).run(|c| {
            let a = c.allreduce(1u64, |a, b| a + b);
            let b = c.allreduce(10u64, |a, b| a + b);
            let g = c.allgather(c.rank());
            (a, b, g)
        });
        for (a, b, g) in got {
            assert_eq!(a, 4);
            assert_eq!(b, 40);
            assert_eq!(g, vec![0, 1, 2, 3]);
        }
    }

    /// The flat, all-to-root route: [`Comm::reduce`] folds at the root in the
    /// canonical merge order, then the root's value is broadcast.
    fn reduce_then_bcast<T, F>(c: &Comm, value: T, op: F) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let reduced = c.reduce(0, value, op).unwrap();
        c.bcast(0, reduced).unwrap().expect("the root holds the fold")
    }

    /// Per rank: the tiered packed allreduce and the all-to-root fold of
    /// the same buffers, as bits.
    fn sweep(ranks_per_node: usize) -> Vec<(Vec<u64>, Vec<u64>)> {
        World::new(8).with_ranks_per_node(ranks_per_node).run(|c| {
            // Values whose f64 sums are order-sensitive, so any
            // re-parenthesisation of the merge shows up in the bits.
            let r = c.rank() as f64;
            let data = vec![0.1 + r * 1e-3, 1e16 * if c.rank() % 2 == 0 { 1.0 } else { -1.0 }, r];
            let segs = [Segment::new(SegmentOp::Sum, 2), Segment::new(SegmentOp::Max, 1)];
            let tiered = c.allreduce_packed(data.clone(), &segs).unwrap();
            let direct = reduce_then_bcast(&c, data, |a: Vec<f64>, b: Vec<f64>| {
                vec![a[0] + b[0], a[1] + b[1], a[2].max(b[2])]
            });
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
            (bits(&tiered), bits(&direct))
        })
    }

    #[test]
    fn hierarchical_allreduce_is_bit_identical_to_flat() {
        for ranks_per_node in [1, 2, 3, 4, 8] {
            for (rank, (tiered, direct)) in sweep(ranks_per_node).iter().enumerate() {
                assert_eq!(tiered, direct, "rank {rank} diverges at {ranks_per_node} ranks/node");
            }
        }
    }

    #[test]
    fn hierarchical_allreduce_cuts_inter_node_traffic() {
        let total = |stats: Vec<crate::TierSnapshot>| {
            let mut sum = crate::TierSnapshot::default();
            for s in &stats {
                sum.accumulate(s);
            }
            sum
        };
        let world = || World::new(8).with_ranks_per_node(2);
        let tiered = total(world().run(|c| {
            c.allreduce(c.rank() as u64, |a, b| a + b);
            c.tier_stats()
        }));
        let direct = total(world().run(|c| {
            reduce_then_bcast(&c, c.rank() as u64, |a, b| a + b);
            c.tier_stats()
        }));
        // Tiered: only the 4-leader binomial tree crosses nodes, 3 up and
        // 3 down: 2·(nodes − 1). All-to-root: the 6 ranks off rank 0's
        // node send to it, and its broadcast reaches the 3 other leaders.
        assert_eq!(tiered.inter_messages, 6);
        assert_eq!(direct.inter_messages, 9);
        // The node tiers trade that for cheap intra-node messages.
        assert!(tiered.intra_messages > 0);
    }

    #[test]
    fn single_node_topology_skips_inter_tier() {
        // All ranks on one node: the direct path, so no inter-node
        // traffic at all.
        let got = World::new(4).with_ranks_per_node(4).run(|c| {
            let v = c.allreduce(c.rank() as f64 + 0.5, |a, b| a + b);
            let b = c.bcast(2, c.rank()).unwrap();
            c.barrier();
            (v, b, c.tier_stats())
        });
        for (v, b, t) in got {
            assert_eq!(v, 0.5 + 1.5 + 2.5 + 3.5);
            assert_eq!(b, 2);
            assert_eq!(t.inter_messages, 0);
            assert_eq!(t.inter_bytes, 0);
        }
    }

    #[test]
    fn hierarchical_bcast_from_non_leader_root() {
        for root in 0..6 {
            let got = World::new(6).with_ranks_per_node(2).run(move |c| {
                let v = if c.rank() == root { 42 + root } else { 0 };
                c.bcast(root, v).unwrap()
            });
            assert_eq!(got, vec![42 + root; 6], "root {root}");
        }
    }

    #[test]
    fn hierarchical_barrier_synchronises_all_ranks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let arrived = AtomicUsize::new(0);
        World::new(6).with_ranks_per_node(2).run(|c| {
            arrived.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the tiered barrier every rank must have arrived.
            assert_eq!(arrived.load(Ordering::SeqCst), 6);
            c.barrier();
        });
    }

    #[test]
    fn single_rank_barrier_and_bcast_short_circuit() {
        World::new(1).run(|c| {
            // Neither may touch the mailbox or block.
            c.barrier();
            assert_eq!(c.bcast(0, 9u8).unwrap(), 9);
            let t = c.tier_stats();
            assert_eq!(t.messages(), 0);
        });
    }

    #[test]
    fn hook_fires_on_every_tier() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let got = World::new(4).with_ranks_per_node(2).run(|c| {
            // Build the hierarchy first, then install the hook: it must
            // still reach the cached node/leader sub-communicators.
            c.allreduce(1u64, |a, b| a + b);
            let n = Arc::new(AtomicU64::new(0));
            let n2 = n.clone();
            c.set_collective_hook(Arc::new(move |_| {
                n2.fetch_add(1, Ordering::SeqCst);
            }));
            c.allreduce(1u64, |a, b| a + b);
            let fired = n.load(Ordering::SeqCst);
            c.clear_collective_hook();
            c.allreduce(1u64, |a, b| a + b);
            (fired, n.load(Ordering::SeqCst))
        });
        for (rank, (fired, after_clear)) in got.iter().enumerate() {
            // Parent slot + node reduce + node bcast = 3 on every rank;
            // leaders also observe the leader-tier collective.
            let expect = if rank % 2 == 0 { 4 } else { 3 };
            assert_eq!(*fired, expect, "rank {rank}");
            assert_eq!(after_clear, fired, "clear must reach the tiers on rank {rank}");
        }
    }

    #[test]
    fn explicit_topology_groups_arbitrarily() {
        // Interleaved nodes: ranks 0,2 on node A, ranks 1,3 on node B.
        let topo = Topology::from_nodes(vec![0, 1, 0, 1]);
        let got = World::new(4).with_topology(topo).run(|c| {
            let v = 0.1 * (c.rank() as f64 + 1.0);
            let tiered = c.allreduce(v, |a, b| a + b);
            (tiered.to_bits(), reduce_then_bcast(&c, v, |a, b| a + b).to_bits())
        });
        for (tiered, direct) in got {
            assert_eq!(tiered, direct);
        }
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let got = World::new(1).run(|c| {
            let a = c.allreduce(7, |a, b| a + b);
            let g = c.allgather(3u8);
            let t = c.alltoall(vec![9i32], std::mem::size_of_val).unwrap();
            (a, g, t)
        });
        assert_eq!(got[0], (7, vec![3u8], vec![9i32]));
    }
}
