//! The [`World`]: spawns one thread per rank and hands each a [`Comm`].

use std::sync::Arc;

use devsim::NetworkParams;

use crate::comm::{Comm, WorldShared};
use crate::topology::Topology;

/// A fixed-size group of ranks, each run on its own OS thread.
///
/// This replaces `mpirun -n <N>`: [`World::run`] spawns `N` scoped threads,
/// passes each a rank-`i` [`Comm`] over the world communicator, and returns
/// the per-rank results in rank order.
///
/// By default all ranks share one simulated node, and collectives take the
/// direct all-to-root path. [`World::with_ranks_per_node`] /
/// [`World::with_topology`] group ranks into nodes, after which collectives
/// take the tiered path and every message is charged against the intra- or
/// inter-node tier of [`NetworkParams`].
pub struct World {
    n: usize,
    topology: Topology,
    net: NetworkParams,
    time_scale: f64,
}

impl World {
    /// Create a world of `n` ranks on a single simulated node.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a world needs at least one rank");
        World {
            n,
            topology: Topology::single_node(n),
            net: NetworkParams::default(),
            time_scale: 0.0,
        }
    }

    /// Group consecutive ranks into simulated nodes of `ranks_per_node`
    /// (the last node may be partial), as `mpirun` fills nodes.
    pub fn with_ranks_per_node(mut self, ranks_per_node: usize) -> Self {
        self.topology = Topology::grouped(self.n, ranks_per_node);
        self
    }

    /// Use an explicit rank → node assignment.
    ///
    /// # Panics
    /// Panics if the topology does not cover exactly `n` ranks.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        assert_eq!(topology.size(), self.n, "topology must cover every rank");
        self.topology = topology;
        self
    }

    /// Set the network cost model and the time scale applied to modeled
    /// message durations (`0.0`, the default, records message/byte counts
    /// but no modeled time — what unit tests want).
    pub fn with_net(mut self, net: NetworkParams, time_scale: f64) -> Self {
        self.net = net;
        self.time_scale = time_scale;
        self
    }

    /// Number of ranks this world will spawn.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Run `f` on every rank concurrently and collect the results in rank
    /// order. `f` may borrow from the caller's stack (scoped threads).
    ///
    /// # Panics
    /// If any rank panics, the panic is propagated after all ranks have
    /// been joined.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        let shared = Arc::new(WorldShared::new(self.net, self.time_scale));
        let topology = Arc::new(self.topology.clone());
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.n)
                .map(|rank| {
                    let shared = shared.clone();
                    let topology = topology.clone();
                    let n = self.n;
                    scope.spawn(move || f(Comm::new(shared, 0, rank, n, topology)))
                })
                .collect();
            let mut results = Vec::with_capacity(self.n);
            let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
            for h in handles {
                match h.join() {
                    Ok(r) => results.push(r),
                    Err(p) => panic = Some(p),
                }
            }
            if let Some(p) = panic {
                std::panic::resume_unwind(p);
            }
            results
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_rank_order() {
        let got = World::new(8).run(|c| c.rank() * c.rank());
        assert_eq!(got, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn closures_can_borrow_caller_state() {
        let data = [10, 20, 30];
        let got = World::new(3).run(|c| data[c.rank()] + 1);
        assert_eq!(got, vec![11, 21, 31]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        World::new(0);
    }

    #[test]
    fn worlds_are_isolated_from_each_other() {
        // Two sequential worlds must not share mailboxes or barriers.
        let a = World::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 0, 1u8).unwrap(); // never received
            }
            c.barrier();
            c.rank()
        });
        let b = World::new(2).run(|c| {
            // A fresh world: the stale message from world `a` never matches.
            if c.rank() == 0 {
                c.send(1, 0, 2u8).unwrap();
            } else {
                assert_eq!(c.recv::<u8>(0, 0).unwrap(), 2);
            }
            c.barrier();
            c.rank()
        });
        assert_eq!(a, b);
    }

    #[test]
    fn rank_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            World::new(2).run(|c| {
                if c.rank() == 1 {
                    panic!("rank 1 exploded");
                }
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn default_world_is_single_node() {
        World::new(4).run(|c| {
            assert!(c.topology().is_single_node());
            assert_eq!(c.topology().num_nodes(), 1);
        });
    }

    #[test]
    fn grouped_world_exposes_its_topology() {
        let got = World::new(6)
            .with_ranks_per_node(2)
            .run(|c| (c.topology().node_of(c.rank()), c.topology().is_leader(c.rank())));
        assert_eq!(got, vec![(0, true), (0, false), (1, true), (1, false), (2, true), (2, false)]);
    }

    #[test]
    #[should_panic(expected = "cover every rank")]
    fn mismatched_topology_rejected() {
        let _ = World::new(4).with_topology(Topology::single_node(3));
    }
}
