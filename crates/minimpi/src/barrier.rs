//! A reusable sense-reversing barrier.
//!
//! `std::sync::Barrier` would suffice for a single communicator, but
//! communicators created by [`crate::Comm::dup`] and the tiered path's
//! node sub-communicators need barriers created dynamically and shared by
//! an agreed subset of ranks, so we keep our own small implementation
//! with an explicit generation counter.

use parking_lot::{Condvar, Mutex};

struct State {
    /// Ranks still to arrive in the current generation.
    remaining: usize,
    /// Incremented every time the barrier trips; waiters key off this so a
    /// fast rank re-entering the barrier cannot consume the previous trip.
    generation: u64,
}

/// A barrier usable any number of times by a fixed set of `n` participants.
pub(crate) struct Barrier {
    n: usize,
    state: Mutex<State>,
    tripped: Condvar,
}

impl Barrier {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier requires at least one participant");
        Barrier {
            n,
            state: Mutex::new(State { remaining: n, generation: 0 }),
            tripped: Condvar::new(),
        }
    }

    /// Block until all `n` participants have called `wait` in this
    /// generation. Returns `true` on exactly one participant per generation
    /// (the last to arrive), mirroring `std::sync::Barrier`.
    pub fn wait(&self) -> bool {
        let mut s = self.state.lock();
        s.remaining -= 1;
        if s.remaining == 0 {
            s.remaining = self.n;
            s.generation = s.generation.wrapping_add(1);
            drop(s);
            self.tripped.notify_all();
            true
        } else {
            let gen = s.generation;
            while s.generation == gen {
                self.tripped.wait(&mut s);
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_participant_never_blocks() {
        let b = Barrier::new(1);
        for _ in 0..100 {
            assert!(b.wait());
        }
    }

    #[test]
    fn all_threads_pass_each_generation_together() {
        const N: usize = 8;
        const ROUNDS: usize = 50;
        let barrier = Arc::new(Barrier::new(N));
        let counter = Arc::new(AtomicUsize::new(0));

        let handles: Vec<_> = (0..N)
            .map(|_| {
                let barrier = barrier.clone();
                let counter = counter.clone();
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        counter.fetch_add(1, Ordering::SeqCst);
                        barrier.wait();
                        // After the barrier every thread must observe the
                        // full count for this round.
                        assert!(counter.load(Ordering::SeqCst) >= (round + 1) * N);
                        barrier.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), N * ROUNDS);
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        const N: usize = 4;
        let barrier = Arc::new(Barrier::new(N));
        let leaders = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let barrier = barrier.clone();
                let leaders = leaders.clone();
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        if barrier.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 20);
    }
}
