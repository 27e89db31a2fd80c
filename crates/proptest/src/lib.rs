//! A local stand-in for the `proptest` crate (the build environment has
//! no crates.io access).
//!
//! Implements the strategy-combinator API surface the workspace's
//! property tests use — ranges, tuples, `collection::vec`, `option::of`,
//! `sample::select`, regex-literal string strategies, `prop_map` /
//! `prop_filter` / `prop_recursive`, `any::<T>()` — driven by a
//! deterministic per-case RNG. Differences from real proptest: no
//! shrinking (a failing case panics with the generated inputs fixed by
//! the deterministic seed, so it reproduces exactly), and `prop_assert*`
//! are plain `assert*`.

#![deny(unsafe_code)]

pub mod test_runner;

pub mod strategy;

pub use strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};

/// Run-time configuration accepted by `#![proptest_config(..)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test body runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec`s with lengths drawn from `len` and elements
    /// from `element`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// A vector strategy: each value is a fresh vector of `element`
    /// samples with a length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "vec length range must be non-empty");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.below(self.len.end - self.len.start) + self.len.start;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies (`proptest::option::of`).
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Option<S::Value>`, `None` about a quarter of the
    /// time.
    #[derive(Clone, Debug)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// An `Option` strategy over `inner`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Sampling strategies (`proptest::sample::select`).
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy drawing uniformly from a fixed set of values.
    #[derive(Clone, Debug)]
    pub struct Select<T> {
        items: Vec<T>,
    }

    /// A strategy selecting uniformly from `items`.
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select needs at least one item");
        Select { items }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.items[rng.below(self.items.len())].clone()
        }
    }
}

/// Numeric strategies (`proptest::num::f64::ANY`).
pub mod num {
    /// `f64` strategies.
    pub mod f64 {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Strategy over every `f64` bit pattern: finite values of all
        /// magnitudes, infinities, NaNs, signed zeros.
        #[derive(Clone, Copy, Debug)]
        pub struct Any;

        /// Any `f64`, including non-finite values.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = f64;
            fn generate(&self, rng: &mut TestRng) -> f64 {
                // Mix raw bit patterns (hits NaN/inf/denormals) with
                // moderate-magnitude values so both paths are exercised.
                match rng.below(4) {
                    0 => f64::from_bits(rng.next_u64()),
                    1 => {
                        let m = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                        (m - 0.5) * 2e6
                    }
                    2 => {
                        let m = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                        (m - 0.5) * 2.0
                    }
                    _ => [0.0, -0.0, 1.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, f64::MAX]
                        [rng.below(7)],
                }
            }
        }
    }
}

/// `prop_assert!`: plain `assert!` (no shrinking in this stand-in).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `prop_assert_eq!`: plain `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `prop_assert_ne!`: plain `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// `prop_assume!`: skip the rest of this case when the assumption fails.
/// The stand-in simply `continue`s to the next case (it expands inside
/// the per-case loop of [`proptest!`]).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
}

/// The `proptest!` block macro: declares `#[test]` functions whose
/// arguments are drawn from strategies, run for `ProptestConfig::cases`
/// deterministic cases each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg); $($rest)*);
    };
    (@impl ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident( $($pat:pat in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(__case as u64);
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::ProptestConfig::default()); $($rest)*);
    };
}
