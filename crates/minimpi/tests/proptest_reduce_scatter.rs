//! Property tests for [`Comm::reduce_scatter_with`]: on 1–6 ranks, flat
//! or 1, 2 and 3 ranks per node, with as many owners as ranks or fewer,
//! each rank's share is the matching slice of [`Comm::allreduce_with`]'s
//! result bit for bit under a non-commutative merge, the round counts as
//! one, and the meter charges exactly the parts a rank sends. Given one
//! part per owner only, a rank past the owners receives nothing.

use minimpi::{Comm, World};
use proptest::prelude::*;

/// A merge that is neither commutative nor associative, so any other
/// order or parenthesisation of the fold shows in the bits.
fn merge(acc: &mut [f64], part: &[f64]) {
    assert_eq!(acc.len(), part.len(), "shares agree in length across ranks");
    acc.iter_mut().zip(part).for_each(|(a, &b)| *a = *a * 0.75 - b);
}

/// Owner `d`'s slice of a buffer laid out as `lens`, back to back; a rank
/// past the owners owns the empty slice at the end.
fn slice_of(lens: &[usize], d: usize) -> std::ops::Range<usize> {
    let start: usize = lens.iter().take(d).sum();
    start..start + lens.get(d).copied().unwrap_or(0)
}

/// What one rank sees: its share and the allreduce's result (as bits),
/// the bytes the reduce-scatter charged, the bytes of the parts it sent,
/// and the rounds the reduce-scatter counted.
struct Seen {
    share: Vec<u64>,
    sliced: Vec<u64>,
    charged: u64,
    sent: u64,
    rounds: u64,
}

/// One rank's round over `data` cut as `lens`, handing `parts` parts: one
/// per rank, or one per owner.
fn run(c: &Comm, data: &[Vec<f64>], lens: &[usize], parts: usize) -> Seen {
    let mine = &data[c.rank()];
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let all = c.allreduce_with(mine.clone(), |a, b| merge(a, b));
    let parts: Vec<Vec<f64>> = (0..parts).map(|d| mine[slice_of(lens, d)].to_vec()).collect();
    let sent: usize = (0..parts.len()).filter(|&d| d != c.rank()).map(|d| parts[d].len() * 8).sum();
    let (bytes, rounds) = (c.tier_stats().bytes(), c.allreduce_count());
    let share = c.reduce_scatter_with(parts, |acc, part| merge(acc, &part));
    Seen {
        share: bits(&share),
        sliced: bits(&all[slice_of(lens, c.rank())]),
        charged: c.tier_stats().bytes() - bytes,
        sent: sent as u64,
        rounds: c.allreduce_count() - rounds,
    }
}

/// A world of `ranks` ranks, flat (`ranks_per_node` 0) or tiered.
fn world(ranks: usize, ranks_per_node: usize) -> World {
    match ranks_per_node {
        0 => World::new(ranks),
        n => World::new(ranks).with_ranks_per_node(n),
    }
}

/// Each rank's data: `len` values drawn from `pool`.
fn rank_data(ranks: usize, len: usize, pool: &[f64]) -> Vec<Vec<f64>> {
    (0..ranks).map(|r| (0..len).map(|i| pool[(r * 5 + i * 3) % pool.len()]).collect()).collect()
}

fn values() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        proptest::sample::select(vec![0.1, -0.3, 1.0e15, -1.0e15, 3.5e-3, -7.25, 0.0, -0.0]),
        16..17,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn each_share_is_the_allreduce_sliced(
        ranks in 1usize..7,
        ranks_per_node in 0usize..4,
        owners in 1usize..7,
        owned_lens in proptest::collection::vec(0usize..4, 6..7),
        pool in values(),
    ) {
        // Owners fewer than or as many as the ranks; the rest own nothing,
        // and every rank hands each of them an empty part.
        let owners = owners.min(ranks);
        let lens = &owned_lens[..owners];
        let data = rank_data(ranks, lens.iter().sum(), &pool);
        let seen = world(ranks, ranks_per_node).run(|c| run(&c, &data, lens, ranks));
        for (rank, s) in seen.iter().enumerate() {
            let what = format!("rank {rank} of {ranks} ({ranks_per_node} per node), {owners} owners");
            prop_assert_eq!(&s.share, &s.sliced, "{}", what);
            prop_assert_eq!(s.charged, s.sent, "{}", what);
            prop_assert_eq!(s.rounds, 1, "{}", what);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn given_a_part_per_owner_only_the_other_ranks_receive_nothing(
        ranks in 2usize..7,
        ranks_per_node in 0usize..4,
        owners in 1usize..6,
        owned_lens in proptest::collection::vec(1usize..4, 5..6),
        pool in values(),
    ) {
        let owners = owners.min(ranks - 1);
        let lens = &owned_lens[..owners];
        let data = rank_data(ranks, lens.iter().sum(), &pool);
        let seen = world(ranks, ranks_per_node).run(|c| {
            let seen = run(&c, &data, lens, owners);
            (seen, c.tier_stats().messages())
        });
        let mut messages = 0;
        for (rank, (s, sent)) in seen.iter().enumerate() {
            let what = format!("rank {rank} of {ranks} ({ranks_per_node} per node), {owners} owners");
            prop_assert_eq!(&s.share, &s.sliced, "{}", what);
            prop_assert_eq!(s.charged, s.sent, "{}", what);
            prop_assert_eq!(s.rounds, 1, "{}", what);
            messages += sent;
        }
        // Each rank sends its parts to the owners but itself; the
        // allreduce before it sends each rank's partial up and the result
        // back down.
        let allreduce = 2 * (ranks as u64 - 1);
        prop_assert_eq!(messages, allreduce + (ranks * owners - owners) as u64);
    }
}

#[test]
fn a_lone_rank_keeps_its_part_and_sends_nothing() {
    let got = World::new(1).run(|c| {
        let share = c.reduce_scatter_with(vec![vec![1.5, -2.0]], |_, _| panic!("nothing to fold"));
        (share, c.tier_stats().messages(), c.allreduce_count())
    });
    assert_eq!(got, vec![(vec![1.5, -2.0], 0, 1)]);
}
