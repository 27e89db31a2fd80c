//! Property tests on the simulated runtime: stream ordering, transfer
//! fidelity, and capacity accounting hold under arbitrary programs.

use devsim::{KernelCost, NodeConfig, SimNode};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Transfers preserve arbitrary bit patterns through any chain of
    /// h2d / d2d / d2h hops.
    #[test]
    fn transfer_chains_are_lossless(
        data in proptest::collection::vec(any::<u64>(), 1..64),
        hops in proptest::collection::vec(0usize..3, 1..5),
    ) {
        let node = SimNode::new(NodeConfig::fast_test(3));
        let n = data.len();
        let start = node.host_alloc_f64(n);
        let hv = start.host_u64().unwrap();
        for (i, &v) in data.iter().enumerate() {
            hv.set(i, v);
        }
        // Walk the data across devices.
        let mut current = start;
        let stream = node.device(0).unwrap().create_stream();
        for d in hops {
            let next = node.device(d).unwrap().alloc_f64(n).unwrap();
            stream.copy(&current, &next).unwrap();
            current = next;
        }
        let end = node.host_alloc_f64(n);
        stream.copy(&current, &end).unwrap();
        stream.synchronize().unwrap();
        prop_assert_eq!(end.host_u64().unwrap().to_vec(), data);
    }

    /// Commands on one stream execute strictly in submission order: a
    /// random arithmetic chain evaluates exactly as sequential code.
    #[test]
    fn stream_order_is_program_order(ops in proptest::collection::vec((0u8..3, -5i64..6), 1..24)) {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let dev = node.device(0).unwrap();
        let buf = dev.alloc_f64(1).unwrap();
        let stream = dev.create_stream();
        let mut expect = 0.0f64;
        for &(op, arg) in &ops {
            let b = buf.clone();
            let a = arg as f64;
            stream.launch("op", KernelCost::ZERO, move |scope| {
                let v = b.f64_view(scope)?;
                let cur = v.get(0);
                v.set(0, match op {
                    0 => cur + a,
                    1 => cur * 2.0 + a,
                    _ => -cur + a,
                });
                Ok(())
            }).unwrap();
            expect = match op {
                0 => expect + a,
                1 => expect * 2.0 + a,
                _ => -expect + a,
            };
        }
        let host = node.host_alloc_f64(1);
        stream.copy(&buf, &host).unwrap();
        stream.synchronize().unwrap();
        prop_assert_eq!(host.host_f64().unwrap().get(0), expect);
    }

    /// Capacity accounting: used bytes always equals the sum of live
    /// allocations (size-class rounded, since the caching pool reserves
    /// whole classes), and everything is released on drop.
    #[test]
    fn capacity_accounting_is_exact(sizes in proptest::collection::vec(1usize..200, 1..12)) {
        let cfg = NodeConfig::fast_test(1);
        let class_bytes = |len: usize| cfg.pool.class_cells(len) * 8;
        let node = SimNode::new(cfg);
        let dev = node.device(0).unwrap();
        let mut live = Vec::new();
        let mut expect = 0usize;
        for (i, &len) in sizes.iter().enumerate() {
            live.push(dev.alloc_f64(len).unwrap());
            expect += class_bytes(len);
            prop_assert_eq!(dev.used_bytes(), expect);
            if i % 3 == 2 {
                let freed = live.remove(0);
                expect -= class_bytes(freed.len());
                drop(freed);
                prop_assert_eq!(dev.used_bytes(), expect);
            }
        }
        drop(live);
        prop_assert_eq!(dev.used_bytes(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Stream-ordered reclamation: while the last-use stream has not
    /// drained past a freed block's use, the pool never hands the block
    /// to another requester — but the same stream reuses it immediately,
    /// and once the stream drains anyone may have it.
    #[test]
    fn reclaim_waits_for_last_use_stream(
        len in 1usize..256,
        extra_cmds in 0usize..4,
    ) {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let dev = node.device(0).unwrap();
        let stream = dev.create_stream();
        let gate = devsim::Event::new();
        let done = devsim::Event::new();

        let buf = dev.alloc_f64(len).unwrap();
        let b = buf.clone();
        stream.launch("touch", KernelCost::ZERO, move |scope| {
            b.f64_view(scope)?.set(0, 1.0);
            Ok(())
        }).unwrap();
        stream.record(&done).unwrap();
        stream.wait_event(&gate).unwrap();
        for _ in 0..extra_cmds {
            stream.launch("later", KernelCost::ZERO, |_| Ok(())).unwrap();
        }
        done.wait();
        drop(buf); // stream still parked on the gate -> block is pending

        // Stream-less requester: must miss (raw allocation), never the
        // pending block.
        let cross = dev.alloc_f64(len).unwrap();
        prop_assert_eq!(dev.pool_stats().hits, 0);
        prop_assert_eq!(dev.pool_stats().raw_allocs, 2);

        // Same-stream requester: immediate reuse.
        let same = dev.alloc_cells_on_stream(len, &stream).unwrap();
        prop_assert_eq!(dev.pool_stats().hits, 1);

        gate.signal();
        stream.synchronize().unwrap();
        drop(same);
        drop(cross);

        // Drained: the blocks are ready for anyone.
        let after = dev.alloc_f64(len).unwrap();
        prop_assert_eq!(dev.pool_stats().hits, 2);
        prop_assert_eq!(dev.pool_stats().raw_allocs, 2, "no new raw allocation after drain");
        drop(after);
    }
}
