//! Ledger-invariant property test for the caching memory pool.
//!
//! Drives a capacity-bounded device through randomized (but seeded and
//! reproducible) alloc / free / trim / stream-use sequences and asserts
//! the pool's byte ledger after every operation. In particular it pins
//! the trim-before-OOM path: a block trimmed to satisfy a tight request
//! must leave both the cached ledger and the device's capacity charge
//! exactly once — double-counting trimmed bytes would break the
//! conservation law checked here.

use devsim::{
    CellBuffer, DeviceParams, Error, KernelCost, MemSpace, NodeConfig, PoolConfig, SimNode,
};

/// xorshift64*: enough randomness for schedule generation, fully seeded.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

const CAPACITY: usize = 8 * 1024; // bytes; small enough to hit OOM paths

/// `live_expected` is `Some` only at stream-quiescent points: a kernel
/// closure in flight holds buffer clones, keeping blocks live past the
/// test's own drop.
fn check_ledger(node: &SimNode, live_expected: Option<usize>) {
    // One snapshot under one lock: the stream thread may release blocks
    // at any moment, so fields read across two calls need not agree.
    let ledger = node.device(0).unwrap().ledger();
    let s = ledger.pool;
    // Conservation: every raw-allocated byte is live, cached, or trimmed.
    assert_eq!(
        s.live_bytes as u64 + s.cached_bytes as u64 + s.trimmed_bytes,
        s.raw_alloc_bytes,
        "ledger conservation violated: live {} + cached {} + trimmed {} != raw {}",
        s.live_bytes,
        s.cached_bytes,
        s.trimmed_bytes,
        s.raw_alloc_bytes
    );
    // The device's capacity charge is exactly the live ledger.
    assert_eq!(ledger.used_bytes, s.live_bytes, "capacity charge out of sync with live ledger");
    if let Some(expected) = live_expected {
        assert_eq!(s.live_bytes, expected, "live ledger out of sync with held buffers");
    }
    // Live + cached never exceeds capacity (cached blocks are charged
    // against the space until trimmed).
    assert!(
        s.live_bytes + s.cached_bytes <= CAPACITY,
        "live {} + cached {} exceeds capacity {}",
        s.live_bytes,
        s.cached_bytes,
        CAPACITY
    );
    assert!(s.high_water_bytes >= s.live_bytes + s.cached_bytes);
    assert_eq!(ledger.free_bytes, CAPACITY - s.live_bytes - s.cached_bytes);
}

fn run_schedule(seed: u64, trim_threshold: usize) {
    let node = SimNode::new(NodeConfig {
        num_devices: 1,
        device: DeviceParams { memory_bytes: CAPACITY, ..DeviceParams::default() },
        time_scale: 0.0,
        pool: PoolConfig { trim_threshold, ..PoolConfig::default() },
        ..NodeConfig::default()
    });
    let dev = node.device(0).unwrap();
    let stream = dev.create_stream();
    let mut rng = Rng(seed | 1);
    let mut held: Vec<(CellBuffer, usize)> = Vec::new();
    let mut live = 0usize;

    for step in 0..400 {
        match rng.below(10) {
            // Allocate (possibly on the stream, possibly too big to fit).
            0..=4 => {
                let len = (rng.below(192) + 1) as usize;
                let class_bytes = PoolConfig::default().class_cells(len) * 8;
                let result = if rng.below(2) == 0 {
                    dev.alloc_cells_on_stream(len, &stream)
                } else {
                    dev.alloc_f64(len)
                };
                match result {
                    Ok(buf) => {
                        live += class_bytes;
                        held.push((buf, class_bytes));
                    }
                    Err(Error::OutOfMemory { requested, live_bytes, cached_bytes, .. }) => {
                        assert_eq!(requested, class_bytes);
                        // The OOM-path reclaim ran: nothing reclaimable
                        // may remain if the request still failed.
                        assert!(
                            live_bytes + cached_bytes + requested > CAPACITY || cached_bytes > 0,
                            "OOM with {requested} B requested, {live_bytes} live, \
                             {cached_bytes} cached at step {step}"
                        );
                    }
                    Err(other) => panic!("unexpected alloc failure: {other:?}"),
                }
            }
            // Touch a held buffer on the stream (creates pending blocks
            // on release while the stream has unfinished work).
            5 => {
                if let Some((buf, _)) = held.last() {
                    let b = buf.clone();
                    stream
                        .launch("touch", KernelCost::ZERO, move |scope| {
                            b.f64_view(scope)?.set(0, 1.0);
                            Ok(())
                        })
                        .unwrap();
                }
            }
            // Free a random held buffer.
            6..=8 => {
                if !held.is_empty() {
                    let i = (rng.below(held.len() as u64)) as usize;
                    let (_, bytes) = held.swap_remove(i);
                    live -= bytes;
                }
            }
            // Explicit trim.
            _ => {
                stream.synchronize().unwrap();
                node.pool().trim(MemSpace::Device(0));
            }
        }
        let quiescent = step % 7 == 0;
        if quiescent {
            stream.synchronize().unwrap();
        }
        check_ledger(&node, quiescent.then_some(live));
    }

    drop(held);
    stream.synchronize().unwrap();
    check_ledger(&node, Some(0));
    node.pool().trim(MemSpace::Device(0));
    let s = dev.pool_stats();
    assert_eq!(s.cached_bytes, 0, "explicit trim after drain empties the cache");
    assert_eq!(s.live_bytes + s.cached_bytes, 0);
    assert_eq!(s.trimmed_bytes, s.raw_alloc_bytes, "all raw bytes end up trimmed");
}

#[test]
fn ledger_invariants_hold_under_randomized_schedules() {
    for seed in [1u64, 0xDEAD_BEEF, 42, 7_777_777, 0x5EED] {
        run_schedule(seed, usize::MAX);
    }
}

#[test]
fn ledger_invariants_hold_with_tight_trim_threshold() {
    // A low threshold forces the release-path trim branch constantly;
    // trim-before-OOM and release-trim must not double-count.
    for seed in [3u64, 99, 0xABCDEF] {
        run_schedule(seed, 1024);
    }
}

#[test]
fn trim_before_oom_accounts_trimmed_bytes_once() {
    let node = SimNode::new(NodeConfig {
        num_devices: 1,
        device: DeviceParams { memory_bytes: 1024, ..DeviceParams::default() },
        time_scale: 0.0,
        ..NodeConfig::default()
    });
    let dev = node.device(0).unwrap();
    let a = dev.alloc_f64(64).unwrap(); // 512 B live
    drop(a); // -> 512 B cached
    let before = dev.pool_stats();
    assert_eq!(before.cached_bytes, 512);
    // Needs the whole device: the cached block must be trimmed exactly once.
    let big = dev.alloc_f64(128).unwrap();
    let s = dev.pool_stats();
    assert_eq!(s.trimmed_bytes, 512, "trimmed exactly the one cached block");
    assert_eq!(s.cached_bytes, 0);
    assert_eq!(s.live_bytes, 1024);
    assert_eq!(s.live_bytes as u64 + s.cached_bytes as u64 + s.trimmed_bytes, s.raw_alloc_bytes);
    assert_eq!(dev.used_bytes(), 1024);
    drop(big);
    let s = dev.pool_stats();
    assert_eq!(dev.used_bytes(), 0);
    assert_eq!(s.live_bytes, 0);
}
