//! Offline stand-in for the `proptest` property-testing crate.
//!
//! Supports the subset this workspace uses: the [`proptest!`] macro with
//! `arg in strategy` bindings, integer-range strategies, tuple strategies,
//! [`collection::vec`], `any::<bool>()` and the `prop_assert*` /
//! `prop_assume!` macros. Each test runs a fixed number of deterministic
//! seeded cases (`PROPTEST_CASES` env var overrides the default of 64);
//! failing inputs are *not* shrunk — the assertion message plus the
//! deterministic seed are the reproduction recipe.

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Produces values of type `Value` from a seeded RNG.
    pub trait Strategy {
        /// The type of the generated values.
        type Value;
        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let lo = self.start as i128;
                    let hi = self.end as i128;
                    assert!(lo < hi, "cannot sample from empty range");
                    let span = (hi - lo) as u128;
                    (lo + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let lo = *self.start() as i128;
                    let hi = *self.end() as i128;
                    assert!(lo <= hi, "cannot sample from empty range");
                    let span = (hi - lo) as u128 + 1;
                    (lo + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }

    /// Uniform `bool` strategy (what `any::<bool>()` returns).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct BoolStrategy;

    impl Strategy for BoolStrategy {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Types with a canonical strategy, reachable through [`crate::any`].
    pub trait Arbitrary: Sized {
        /// The canonical strategy for this type.
        type Strategy: Strategy<Value = Self>;
        /// Returns the canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    impl Arbitrary for bool {
        type Strategy = BoolStrategy;
        fn arbitrary() -> BoolStrategy {
            BoolStrategy
        }
    }
}

/// Returns the canonical strategy of a type, `proptest::any::<T>()`-style.
pub fn any<A: strategy::Arbitrary>() -> A::Strategy {
    A::arbitrary()
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Strategy for `Vec<T>` with a sampled length.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// Length specifications accepted by [`vec()`]: a fixed `usize` or any
    /// `usize`-valued strategy (ranges in particular) — the stand-in for
    /// proptest's `Into<SizeRange>` bound.
    pub trait IntoLenStrategy {
        /// The strategy the specification converts into.
        type Strategy: Strategy<Value = usize>;
        /// Performs the conversion.
        fn into_len_strategy(self) -> Self::Strategy;
    }

    /// A strategy that always yields the same length.
    #[derive(Debug, Clone, Copy)]
    pub struct FixedLen(usize);

    impl Strategy for FixedLen {
        type Value = usize;
        fn sample(&self, _rng: &mut TestRng) -> usize {
            self.0
        }
    }

    impl IntoLenStrategy for usize {
        type Strategy = FixedLen;
        fn into_len_strategy(self) -> FixedLen {
            FixedLen(self)
        }
    }

    impl IntoLenStrategy for Range<usize> {
        type Strategy = Range<usize>;
        fn into_len_strategy(self) -> Self {
            self
        }
    }

    impl IntoLenStrategy for RangeInclusive<usize> {
        type Strategy = RangeInclusive<usize>;
        fn into_len_strategy(self) -> Self {
            self
        }
    }

    /// Generates vectors whose length is drawn from `len` and whose elements
    /// are drawn from `element`.
    pub fn vec<S: Strategy, L: IntoLenStrategy>(element: S, len: L) -> VecStrategy<S, L::Strategy> {
        VecStrategy {
            element,
            len: len.into_len_strategy(),
        }
    }

    impl<S: Strategy, L: Strategy<Value = usize>> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.len.sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! The (minimal) case-running machinery behind [`crate::proptest!`].

    /// Deterministic splitmix64 generator driving every strategy.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from a test name, so every property test has
        /// its own reproducible stream.
        pub fn from_name(name: &str) -> Self {
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for byte in name.bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: hash }
        }

        /// Returns the next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Number of cases each property runs (`PROPTEST_CASES`, default 64).
    pub fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }
}

/// Declares property tests: each `arg in strategy` binding is sampled per
/// case and the body re-runs for every case.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __proptest_rng =
                    $crate::test_runner::TestRng::from_name(stringify!($name));
                for __proptest_case in 0..$crate::test_runner::cases() {
                    let _ = __proptest_case;
                    $(let $arg =
                        $crate::strategy::Strategy::sample(&($strat), &mut __proptest_rng);)+
                    $body
                }
            }
        )*
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when its sampled inputs are not applicable.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::collection;
    pub use crate::strategy::{Arbitrary, Strategy};
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u16..9, y in -4i32..=4) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-4..=4).contains(&y));
        }

        #[test]
        fn vec_of_tuples_respects_len(v in collection::vec((0u64..10, 1u32..5), 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            for (a, b) in &v {
                prop_assert!(*a < 10);
                prop_assert!((1..5).contains(b));
            }
        }

        #[test]
        fn assume_skips_cases(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn any_bool_takes_both_values(b in any::<bool>()) {
            let _ = b;
        }
    }
}
