//! Property tests: every collective agrees with its sequential
//! definition for arbitrary inputs and communicator sizes.

use minimpi::World;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn allreduce_equals_sequential_fold(
        values in proptest::collection::vec(-1000i64..1000, 1..6),
    ) {
        let n = values.len();
        let v2 = values.clone();
        let got = World::new(n).run(move |c| c.allreduce(v2[c.rank()], |a, b| a + b));
        let expect: i64 = values.iter().sum();
        prop_assert!(got.into_iter().all(|g| g == expect));
    }

    #[test]
    fn reduce_respects_rank_order_for_noncommutative_ops(
        words in proptest::collection::vec("[a-z]{1,4}", 1..5),
        root in 0usize..5,
    ) {
        let n = words.len();
        let root = root % n;
        let w2 = words.clone();
        let got = World::new(n).run(move |c| {
            c.reduce(root, w2[c.rank()].clone(), |a, b| a + &b).unwrap()
        });
        let expect: String = words.concat();
        prop_assert_eq!(got[root].clone(), Some(expect));
    }

    #[test]
    fn allgather_returns_rank_ordered_values(
        values in proptest::collection::vec(any::<u32>(), 1..6),
    ) {
        let n = values.len();
        let v2 = values.clone();
        let got = World::new(n).run(move |c| c.allgather(v2[c.rank()]));
        prop_assert!(got.into_iter().all(|g| g == values));
    }

    #[test]
    fn alltoall_is_a_transpose(
        n in 1usize..5,
        seed in any::<u32>(),
    ) {
        let got = World::new(n).run(move |c| {
            let outgoing: Vec<u64> = (0..n)
                .map(|d| seed as u64 ^ (c.rank() as u64 * 1000 + d as u64))
                .collect();
            c.alltoall(outgoing).unwrap()
        });
        for (r, incoming) in got.iter().enumerate() {
            for (j, &v) in incoming.iter().enumerate() {
                prop_assert_eq!(v, seed as u64 ^ (j as u64 * 1000 + r as u64));
            }
        }
    }


}
