//! Property tests for the tiered collective path: for any rank count,
//! node grouping, segment layout, and segment op, the tiered allreduce
//! must produce bit-identical results to the flat all-to-root fold
//! (`reduce` then `bcast`) and to an element-wise reference — including
//! when a leader-tier collective is delayed by fault injection.

use std::sync::Arc;
use std::time::Duration;

use devsim::fault::{self, site};
use devsim::{FaultConfig, FaultInjector, FaultRule};
use minimpi::{Comm, Segment, SegmentOp, Topology, World};
use proptest::prelude::*;

/// Run a packed allreduce on an arbitrary topology and return the
/// per-rank result bits.
fn packed_bits(node_of: &[usize], data: &[Vec<f64>], segments: &[Segment]) -> Vec<Vec<u64>> {
    let n = node_of.len();
    let data = data.to_vec();
    let segments = segments.to_vec();
    World::new(n).with_topology(Topology::from_nodes(node_of.to_vec())).run(move |c| {
        let out = c.allreduce_packed(data[c.rank()].clone(), &segments).unwrap();
        assert_eq!(c.allreduce_count(), 1, "one packed round on any topology");
        out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
    })
}

/// The flat all-to-root route: [`Comm::reduce`] folds at rank 0 in the
/// topology's canonical merge order, then rank 0 broadcasts the result.
fn reduce_then_bcast<T, F>(c: &Comm, value: T, op: F) -> T
where
    T: Clone + Send + 'static,
    F: Fn(T, T) -> T,
{
    let reduced = c.reduce(0, value, op).unwrap();
    c.bcast(0, reduced).unwrap().expect("the root holds the fold")
}

fn segment_strategy() -> impl Strategy<Value = Vec<Segment>> {
    proptest::collection::vec(
        (proptest::sample::select(vec![SegmentOp::Sum, SegmentOp::Min, SegmentOp::Max]), 0usize..5),
        1..5,
    )
    .prop_map(|segs| segs.into_iter().map(|(op, len)| Segment::new(op, len)).collect())
}

/// Values that expose any re-parenthesisation of f64 sums: mixed
/// magnitudes so addition is far from associative, including exact
/// cancellation pairs and NaN for the Min/Max identities.
fn value_strategy() -> impl Strategy<Value = f64> {
    proptest::sample::select(vec![0.1, -0.3, 1.0e15, -1.0e15, 3.5e-3, 1234.5, -7.25, f64::NAN])
}

/// The packed merge as it was first written — one element at a time, the
/// op matched per element.
fn elementwise_merge(mut a: Vec<f64>, b: &[f64], segments: &[Segment]) -> Vec<f64> {
    let mut base = 0;
    for seg in segments {
        for i in base..base + seg.len {
            a[i] = match seg.op {
                SegmentOp::Sum => a[i] + b[i],
                SegmentOp::Min => a[i].min(b[i]),
                SegmentOp::Max => a[i].max(b[i]),
            };
        }
        base += seg.len;
    }
    a
}

/// [`elementwise_merge`] folded over the ranks' buffers in the topology's
/// canonical merge order: each node's members left to right, then the
/// node partials pairwise up a binomial tree over node indices.
fn elementwise_reference(topo: &Topology, data: &[Vec<f64>], segments: &[Segment]) -> Vec<u64> {
    let merge = |a: Vec<f64>, b: &[f64]| elementwise_merge(a, b, segments);
    let mut partials: Vec<Vec<f64>> = (0..topo.num_nodes())
        .map(|node| {
            let (first, rest) = topo.members(node).split_first().expect("nodes are non-empty");
            rest.iter().fold(data[*first].clone(), |acc, &r| merge(acc, &data[r]))
        })
        .collect();
    let mut gap = 1;
    while gap < partials.len() {
        for i in (0..partials.len() - gap).step_by(2 * gap) {
            let b = std::mem::take(&mut partials[i + gap]);
            partials[i] = merge(std::mem::take(&mut partials[i]), &b);
        }
        gap *= 2;
    }
    partials[0].iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hierarchical_packed_allreduce_matches_flat_bitwise(
        node_of in proptest::collection::vec(0usize..4, 1..9),
        segments in segment_strategy(),
        seed_values in proptest::collection::vec(value_strategy(), 32..33),
    ) {
        let n = node_of.len();
        let len: usize = segments.iter().map(|s| s.len).sum();
        // Per-rank buffers drawn deterministically from the value pool.
        let data: Vec<Vec<f64>> = (0..n)
            .map(|r| (0..len).map(|i| seed_values[(r * 7 + i) % seed_values.len()]).collect())
            .collect();
        let hier = packed_bits(&node_of, &data, &segments);
        let flat = World::new(n).with_topology(Topology::from_nodes(node_of.clone())).run(|c| {
            let mine = data[c.rank()].clone();
            let out = reduce_then_bcast(&c, mine, |a, b| elementwise_merge(a, &b, &segments));
            out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        });
        prop_assert_eq!(&flat, &hier);
        // And every rank agrees with every other rank.
        for bits in &hier {
            prop_assert_eq!(bits, &hier[0]);
        }
    }

    /// The zipped, op-hoisted segment merge (and the broadcast that
    /// reuses merged-in buffers) changes no bit of the result: on 1-8
    /// ranks over any node grouping, one node or many, with zero-length
    /// segments, NaN and infinities in min/max segments and signed zeros
    /// in sums, every rank holds the element-wise reference. (Sums stay
    /// finite: which of two different NaNs an addition returns is up to
    /// the instruction selected, not to the merge.)
    #[test]
    fn packed_allreduce_equals_the_elementwise_reference(
        node_of in proptest::collection::vec(0usize..4, 1..9),
        segments in segment_strategy(),
        finite in proptest::collection::vec(
            proptest::sample::select(vec![0.1, -0.3, 1.0e15, -1.0e15, 3.5e-3, -7.25, 0.0, -0.0]),
            32..33,
        ),
        extreme in proptest::collection::vec(
            proptest::sample::select(vec![
                0.1, -0.3, 1.0e15, -7.25, f64::NAN, f64::INFINITY, f64::NEG_INFINITY,
            ]),
            32..33,
        ),
    ) {
        let ops: Vec<SegmentOp> =
            segments.iter().flat_map(|s| std::iter::repeat_n(s.op, s.len)).collect();
        let data: Vec<Vec<f64>> = (0..node_of.len())
            .map(|r| {
                let pick = |i: usize, pool: &[f64]| pool[(r * 11 + i) % pool.len()];
                ops.iter()
                    .enumerate()
                    .map(|(i, op)| pick(i, if *op == SegmentOp::Sum { &finite } else { &extreme }))
                    .collect()
            })
            .collect();
        let expect = elementwise_reference(&Topology::from_nodes(node_of.clone()), &data, &segments);
        for (rank, bits) in packed_bits(&node_of, &data, &segments).iter().enumerate() {
            prop_assert_eq!(bits, &expect, "rank {} on nodes {:?}", rank, node_of);
        }
    }

    #[test]
    fn hierarchical_generic_allreduce_matches_flat(
        node_of in proptest::collection::vec(0usize..3, 1..8),
    ) {
        // String concatenation is non-commutative, so the bytes it
        // produces change if the merge *order* changes; the tiered path
        // and the flat all-to-root fold must realise the same canonical
        // order.
        let got = World::new(node_of.len())
            .with_topology(Topology::from_nodes(node_of.clone()))
            .run(|c| {
                let tiered = c.allreduce(format!("[{}]", c.rank()), |a, b| a + &b);
                (tiered, reduce_then_bcast(&c, format!("[{}]", c.rank()), |a, b| a + &b))
            });
        for (tiered, flat) in got {
            prop_assert_eq!(tiered, flat);
        }
    }

    #[test]
    fn delayed_leader_tier_collective_stays_bit_identical(
        ranks_per_node in 1usize..4,
        n in 2usize..9,
        slow_rank in 0usize..9,
        seed in 0u64..64,
    ) {
        // A chaos-style hook delays collectives on one rank — including
        // the leader-tier collective the hierarchy introduces (hooks are
        // inherited by the internal tier sub-communicators). The delayed
        // run must still produce the undelayed run's exact bits.
        let slow_rank = slow_rank % n;
        let topo = Topology::from_nodes((0..n).map(|r| r / ranks_per_node).collect());
        let payload: Vec<f64> = (0..6).map(|i| 1.0e15 * (i as f64) - 0.3).collect();
        let segs = [Segment::new(SegmentOp::Sum, 4), Segment::new(SegmentOp::Min, 2)];

        let undelayed = World::new(n).with_topology(topo.clone()).run(|c| {
            let mut v = payload.clone();
            v[0] += c.rank() as f64;
            c.allreduce_packed(v, &segs).unwrap()
        });

        let injector = FaultInjector::new();
        injector.configure(FaultConfig::seeded(seed).with_rule(
            FaultRule::delay(site::MPI_COLLECTIVE, Duration::from_micros(200))
                .for_rank(slow_rank)
                .with_max_injections(3),
        ));
        let inj2 = injector.clone();
        let hier = World::new(n).with_topology(topo).run(move |c| {
            let _armed = fault::arm(c.rank());
            let inj = inj2.clone();
            c.set_collective_hook(Arc::new(move |_| {
                let _ = inj.check(site::MPI_COLLECTIVE);
            }));
            let mut v = payload.clone();
            v[0] += c.rank() as f64;
            c.allreduce_packed(v, &segs).unwrap()
        });

        let fb: Vec<Vec<u64>> =
            undelayed.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect();
        let hb: Vec<Vec<u64>> =
            hier.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect();
        prop_assert_eq!(fb, hb);
        // The slow rank's hook observes at least the parent collective
        // slot (and the tier slots on multi-node runs), so the
        // always-firing delay rule must actually have injected.
        prop_assert!(injector.stats().injected_delays > 0);
    }
}
