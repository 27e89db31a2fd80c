//! Stress and interleaving tests: heavy concurrent traffic across many
//! communicators, the pattern the asynchronous execution method creates
//! (every async back-end owns a duplicate communicator whose collectives
//! run on in situ worker threads, interleaved with the simulation's).

use minimpi::World;

#[test]
fn concurrent_collectives_on_duplicate_communicators() {
    // Each rank spawns a worker thread per duplicate; all duplicates run
    // allreduces concurrently with the parent's own traffic.
    const DUPS: usize = 4;
    const ROUNDS: usize = 25;
    let results = World::new(3).run(|comm| {
        let dups: Vec<_> = (0..DUPS).map(|_| comm.dup()).collect();
        let mut sums = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (d, dup) in dups.into_iter().enumerate() {
                handles.push(scope.spawn(move || {
                    let mut acc = 0u64;
                    for round in 0..ROUNDS {
                        let v = (dup.rank() + d * round) as u64;
                        acc = acc.wrapping_add(dup.allreduce(v, |a, b| a + b));
                    }
                    acc
                }));
            }
            // The "simulation" keeps using the parent concurrently.
            for _ in 0..ROUNDS {
                comm.barrier();
                let _ = comm.allgather(comm.rank());
            }
            for h in handles {
                sums.push(h.join().unwrap());
            }
        });
        sums
    });
    // Every rank's worker d must have computed the same sequence of
    // global sums: sum over ranks of (rank + d*round).
    for d in 0..DUPS {
        let expect: u64 =
            (0..ROUNDS).map(|round| (0..3).map(|r| (r + d * round) as u64).sum::<u64>()).sum();
        for rank_result in &results {
            assert_eq!(rank_result[d], expect, "duplicate {d}");
        }
    }
}

#[test]
fn heavy_tag_interleaving_preserves_per_tag_fifo() {
    const MSGS: usize = 200;
    const TAGS: u64 = 5;
    let ok = World::new(2).run(|comm| {
        if comm.rank() == 0 {
            // Interleave sends across tags.
            for i in 0..MSGS {
                let tag = (i as u64) % TAGS;
                comm.send(1, tag, (tag, i)).unwrap();
            }
            true
        } else {
            // Blocking receives per tag: within a tag, sequence numbers
            // must arrive in send order even though sends interleaved.
            let per_tag = MSGS / TAGS as usize;
            let mut all_in_order = true;
            for tag in 0..TAGS {
                let mut last = -1i64;
                for _ in 0..per_tag {
                    let (t, i): (u64, usize) = comm.recv(0, tag).unwrap();
                    all_in_order &= t == tag && i as i64 > last;
                    last = i as i64;
                }
            }
            all_in_order
        }
    });
    assert!(ok.iter().all(|&b| b));
}

#[test]
fn many_ranks_allreduce_scales() {
    // 16 rank-threads, vector payloads.
    let got = World::new(16).run(|comm| {
        let local = vec![comm.rank() as f64; 256];
        comm.allreduce(local, minimpi::ops::vec_sum)
    });
    let expect = (0..16).sum::<usize>() as f64;
    for v in got {
        assert!(v.iter().all(|&x| x == expect));
    }
}
