//! A local stand-in for the `rand` crate (the build environment has no
//! crates.io access). Provides a seedable xoshiro256** generator behind
//! the slice of the rand 0.9 API the workspace uses: `rngs::StdRng`,
//! `SeedableRng::seed_from_u64`, and `Rng::random_range` over half-open
//! numeric ranges.
//!
//! Deterministic for a given seed, which is all the initial-condition
//! generators and tests rely on; statistical quality is xoshiro-grade,
//! not cryptographic.

#![deny(unsafe_code)]

use std::ops::Range;

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling API (the subset of `rand::Rng` in use).
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform sample from `range` (half-open).
    fn random_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// A uniform sample of the type's full "unit" domain: `[0, 1)` for
    /// floats.
    fn random<T: SampleUnit>(&mut self) -> T {
        T::sample_unit(self)
    }
}

/// Types samplable from a half-open range.
pub trait SampleRange: Copy + PartialOrd {
    /// Uniform sample in `[range.start, range.end)`.
    fn sample<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

/// Types with a canonical unit domain.
pub trait SampleUnit {
    /// Uniform sample of the unit domain.
    fn sample_unit<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl SampleRange for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "random_range needs a non-empty range");
        let unit = f64::sample_unit(rng);
        range.start + unit * (range.end - range.start)
    }
}

impl SampleRange for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "random_range needs a non-empty range");
        let unit = f64::sample_unit(rng) as f32;
        range.start + unit * (range.end - range.start)
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "random_range needs a non-empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // Modulo bias is negligible for the spans used here
                // (tiny compared to 2^64).
                let v = (rng.next_u64() as u128) % span;
                (range.start as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUnit for f64 {
    fn sample_unit<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Generator implementations.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard generator: xoshiro256**.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed, as the xoshiro authors
            // recommend, so nearby seeds give unrelated streams.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.random_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn int_ranges_stay_in_bounds_and_cover() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = rng.random_range(0usize..5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let v = rng.random_range(-3i64..4);
            assert!((-3..4).contains(&v));
        }
    }

    #[test]
    fn unit_floats_are_uniformish() {
        let mut rng = StdRng::seed_from_u64(3);
        let mean: f64 = (0..10_000).map(|_| rng.random::<f64>()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
