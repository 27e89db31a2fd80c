//! The calibration kernel: a fixed piece of work timed on both rank
//! threads at once, right before and right after every timed loop.
//!
//! The reference box is a 2-vCPU virtual machine whose speed moves in
//! regimes: for minutes at a time the same instructions on both cores
//! take up to 25–30 % longer (process CPU time included — the cores slow
//! down, not the scheduler), then it recovers. Inside a regime a workload
//! repeats within a few percent; across regimes raw wall time spreads
//! 13–24 %. Every time-like metric is therefore reported **at reference
//! speed**: multiplied by `REFERENCE_MS / calibration ms` of its own
//! round, so that a change of the machine between two runs largely
//! cancels and a change of the program does not. Over 40 back-to-back
//! runs spanning both regimes this cut the spread of `run_ms_per_step`
//! from 16 / 17 / 13 % to 4 / 10 / 5 % (`rows_real` / `fused90_real` /
//! `paper90_lockstep_modeled`); the kernel's reading correlates 0.8 with
//! raw step time on the compute-bound workloads and 0.6 on the
//! hand-off-bound `fused90_real`, whose remaining noise is thread wake-up
//! latency. The raw reading is reported too (`proc.calibration_ms`), so
//! raw wall time can be recovered from any reported figure.

use std::time::Instant;

/// Cells of the scatter target (512 KiB: larger than L1, inside L2, like
/// the ten 64² grids a binning pass updates).
const CELLS: usize = 1 << 16;
/// Iterations of the kernel: ~30 ms, long enough for a stable reading,
/// short enough to bracket every round.
const ITERATIONS: u64 = 8_000_000;

/// What the kernel takes on the reference box in its fast regime, in
/// milliseconds. Only a scale: it makes figures at reference speed read
/// like the raw ones measured there.
pub const REFERENCE_MS: f64 = 29.0;

/// Run the kernel once on the calling thread; returns wall milliseconds.
/// The work mirrors what the program's hot loops do — a softened
/// inverse-square evaluation (divide, square root) per element and a
/// scattered read-modify-write into a grid — and is identical every call.
pub fn kernel_ms() -> f64 {
    let mut grid = vec![0.0f64; CELLS];
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0.0f64;
    for i in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (CELLS - 1);
        let r2 = (i & 1023) as f64 * 1e-3 + 0.0025;
        let w = 1.0 / (r2 * r2.sqrt());
        grid[j] += w;
        acc += grid[j ^ 1];
    }
    std::hint::black_box((acc, &grid));
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_a_measurable_and_repeatable_time() {
        let a = kernel_ms();
        let b = kernel_ms();
        assert!(a > 1.0 && b > 1.0, "{a} {b}");
        assert!((a / b) < 3.0 && (b / a) < 3.0, "{a} vs {b}");
    }
}
