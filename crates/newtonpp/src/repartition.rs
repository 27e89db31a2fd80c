//! Body migration: move bodies to the ranks that own their subdomains.

use minimpi::Comm;

use crate::body::BodySet;
use crate::domain::Domain;

/// Exchange bodies so every body lives on the rank owning its position —
/// the "repartitioning phase" of §4.1. Collective. Returns the rank's
/// new body set.
pub fn repartition(comm: &Comm, domain: &Domain, mut mine: BodySet) -> BodySet {
    assert_eq!(domain.slabs, comm.size(), "one slab per rank");
    // Sort local bodies into per-destination sets.
    let mut outgoing: Vec<BodySet> = (0..comm.size()).map(|_| BodySet::new()).collect();
    let mut i = 0;
    while i < mine.len() {
        let dst = domain.owner_of(mine.x[i]);
        if dst == comm.rank() {
            i += 1;
        } else {
            // transfer() swap-removes: don't advance i.
            mine.transfer(i, &mut outgoing[dst]);
        }
    }
    let incoming = comm
        .alltoall(outgoing, BodySet::payload_bytes)
        .expect("repartition alltoall: vector length equals communicator size");
    for (src, set) in incoming.into_iter().enumerate() {
        if src != comm.rank() {
            mine.extend(&set);
        }
    }
    mine
}

#[cfg(test)]
mod tests {
    use super::*;
    use minimpi::World;

    /// Build a body at `x` with a mass encoding its identity.
    fn body_at(set: &mut BodySet, x: f64, id: f64) {
        set.push([x, 0.0, 0.0], [0.0; 3], id);
    }

    #[test]
    fn bodies_migrate_to_their_owners() {
        let got = World::new(4).run(|comm| {
            let domain = Domain::new(0.0, 4.0, 4);
            // Every rank starts holding one body destined for each rank.
            let mut mine = BodySet::new();
            for dst in 0..4 {
                body_at(&mut mine, dst as f64 + 0.5, (comm.rank() * 10 + dst) as f64);
            }
            let after = repartition(&comm, &domain, mine);
            let mut ids: Vec<f64> = after.m.clone();
            ids.sort_by(f64::total_cmp);
            (after.len(), ids)
        });
        for (rank, (n, ids)) in got.iter().enumerate() {
            assert_eq!(*n, 4, "each rank receives one body from each rank");
            let expect: Vec<f64> = (0..4).map(|src| (src * 10 + rank) as f64).collect();
            assert_eq!(*ids, expect);
        }
    }

    #[test]
    fn conservation_of_bodies_and_mass() {
        let got = World::new(3).run(|comm| {
            let domain = Domain::new(-1.0, 1.0, 3);
            let mut mine = BodySet::new();
            // Deterministic pseudo-random scatter, different per rank.
            for i in 0..50 {
                let x = ((comm.rank() * 50 + i) as f64 * 0.7919).rem_euclid(2.0) - 1.0;
                body_at(&mut mine, x, 1.0 + i as f64 * 0.01);
            }
            let before_mass = mine.total_mass();
            let total_before = comm.allreduce(before_mass, |a, b| a + b);
            let after = repartition(&comm, &domain, mine);
            let total_after = comm.allreduce(after.total_mass(), |a, b| a + b);
            let count_after = comm.allreduce(after.len(), |a, b| a + b);
            // Every surviving body is owned correctly.
            let all_owned = after.x.iter().all(|&x| domain.owner_of(x) == comm.rank());
            (total_before, total_after, count_after, all_owned, after.is_consistent())
        });
        for (tb, ta, count, owned, consistent) in got {
            assert!((tb - ta).abs() < 1e-9, "mass conserved");
            assert_eq!(count, 150, "bodies conserved");
            assert!(owned, "every body on its owner");
            assert!(consistent);
        }
    }

    #[test]
    fn a_repartition_is_metered_at_the_moved_bodies_column_bytes() {
        let got = World::new(2).run(|comm| {
            let domain = Domain::new(0.0, 2.0, 2);
            // Rank r keeps r + 1 bodies and sends 2 + 3r to the other rank.
            let mut mine = BodySet::new();
            let (lo, _) = domain.slab(comm.rank());
            let (other, _) = domain.slab(1 - comm.rank());
            for i in 0..comm.rank() + 1 {
                body_at(&mut mine, lo + 0.5, i as f64);
            }
            for i in 0..2 + 3 * comm.rank() {
                body_at(&mut mine, other + 0.5, i as f64);
            }
            let before = comm.tier_stats().bytes();
            let after = repartition(&comm, &domain, mine);
            (comm.tier_stats().bytes() - before, after.len())
        });
        // Seven f64 columns per moved body, not the set's shallow size
        // (168 B a message, whatever it holds).
        assert_eq!(got, [(2 * 7 * 8, 1 + 5), (5 * 7 * 8, 2 + 2)]);
    }

    #[test]
    fn already_partitioned_data_is_a_fixed_point() {
        let got = World::new(2).run(|comm| {
            let domain = Domain::new(0.0, 2.0, 2);
            let mut mine = BodySet::new();
            let (lo, _) = domain.slab(comm.rank());
            for i in 0..5 {
                body_at(&mut mine, lo + 0.1 + 0.15 * i as f64, i as f64);
            }
            let before = mine.clone();
            let after = repartition(&comm, &domain, mine);
            before == after
        });
        assert!(got.iter().all(|&b| b), "no spurious migration");
    }

    #[test]
    fn single_rank_is_identity() {
        let got = World::new(1).run(|comm| {
            let domain = Domain::new(0.0, 1.0, 1);
            let mut mine = BodySet::new();
            body_at(&mut mine, 5.0, 1.0); // even out-of-range stays put
            repartition(&comm, &domain, mine).len()
        });
        assert_eq!(got[0], 1);
    }
}
