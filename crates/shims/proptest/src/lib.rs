//! Offline shim for the `proptest` 1 API surface used by this
//! workspace: the `proptest!` test macro, `prop_assert*!`, and a
//! [`Strategy`] algebra (ranges, tuples, `Just`, `prop_map`,
//! `prop_flat_map`, `collection::vec`, `bool::ANY`, `num::*::ANY`).
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case reports its case number and seed;
//!   inputs are reproducible (seeds derive deterministically from the
//!   test name and case index) but not minimized.
//! * Case count is [`ProptestConfig::cases`] (default 256), overridable
//!   with the `PROPTEST_CASES` environment variable like upstream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// The generator handed to strategies; fixed concrete type to keep the
/// strategy algebra object-simple.
pub type TestRng = StdRng;

/// Subset of proptest's run configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per test.
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
        ProptestConfig { cases: 256 }
    }
}

/// A generator of random values of type `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Derive a dependent strategy from each generated value.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// Always yields a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn gen_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn gen_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.gen_value(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn gen_value(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.gen_value(rng)).gen_value(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($(($($t:ident $idx:tt),+))*) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);
            fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.gen_value(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

/// Collection strategies.
pub mod collection {
    use super::{Range, Rng, Strategy, TestRng};

    /// Length specifications accepted by [`vec()`] (proptest's
    /// `SizeRange` conversions): an exact `usize` or a `usize` range.
    pub trait IntoSizeRange {
        /// The equivalent half-open range.
        fn into_size_range(self) -> Range<usize>;
    }

    impl IntoSizeRange for usize {
        fn into_size_range(self) -> Range<usize> {
            self..self + 1
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn into_size_range(self) -> Range<usize> {
            self
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn into_size_range(self) -> Range<usize> {
            *self.start()..*self.end() + 1
        }
    }

    /// A `Vec` of `element` values with length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: impl IntoSizeRange) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into_size_range(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

/// `bool` strategies.
pub mod bool {
    use super::{Rng, Strategy, TestRng};

    /// Strategy type of [`ANY`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    impl Strategy for Any {
        type Value = bool;
        fn gen_value(&self, rng: &mut TestRng) -> bool {
            rng.gen()
        }
    }

    /// A fair coin.
    pub const ANY: Any = Any;
}

/// Numeric full-range strategies (`proptest::num::u64::ANY` etc.).
pub mod num {
    macro_rules! num_any_mod {
        ($($m:ident: $t:ty),*) => {$(
            pub mod $m {
                use crate::{Rng, Strategy, TestRng};

                /// Strategy type of [`ANY`].
                #[derive(Debug, Clone, Copy)]
                pub struct Any;

                impl Strategy for Any {
                    type Value = $t;
                    fn gen_value(&self, rng: &mut TestRng) -> $t {
                        rng.gen()
                    }
                }

                /// The full range of the type, uniformly.
                pub const ANY: Any = Any;
            }
        )*};
    }
    num_any_mod!(u8: u8, u16: u16, u32: u32, u64: u64, usize: usize,
                 i8: i8, i16: i16, i32: i32, i64: i64, isize: isize);
}

/// Run `f` for each case of a property test; used by the `proptest!`
/// macro expansion, not called directly.
pub fn run_cases<F>(config: &ProptestConfig, test_name: &str, mut f: F)
where
    F: FnMut(&mut TestRng) -> Result<(), String>,
{
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(config.cases);
    for case in 0..cases {
        // FNV-1a over the test name, mixed with the case index: stable
        // across runs, distinct across tests.
        let mut seed: u64 = 0xcbf29ce484222325;
        for b in test_name.bytes() {
            seed = (seed ^ b as u64).wrapping_mul(0x100000001b3);
        }
        seed = seed.wrapping_add((case as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let mut rng = TestRng::seed_from_u64(seed);
        if let Err(msg) = f(&mut rng) {
            panic!(
                "proptest `{test_name}` failed at case {case}/{cases} (seed {seed:#x}):\n{msg}\n\
                 (offline proptest shim: inputs are reproducible from the seed but not shrunk)"
            );
        }
    }
}

/// Property-test entry macro; see the crate docs for shim caveats.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __pt_config: $crate::ProptestConfig = $cfg;
            let __pt_strats = ( $($strat,)+ );
            $crate::run_cases(&__pt_config, stringify!($name), |__pt_rng| {
                let ( $($pat,)+ ) = $crate::Strategy::gen_value(&__pt_strats, __pt_rng);
                let mut __pt_case = || -> ::std::result::Result<(), ::std::string::String> {
                    $body
                    ::std::result::Result::Ok(())
                };
                __pt_case()
            });
        }
    )*};
}

/// `assert!` that fails the current proptest case instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "{} at {}:{}", format!($($fmt)*), file!(), line!()
            ));
        }
    };
}

/// `assert_eq!` that fails the current proptest case instead of panicking.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__pa, __pb) = (&$a, &$b);
        $crate::prop_assert!(
            *__pa == *__pb,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($a),
            stringify!($b),
            __pa,
            __pb
        );
    }};
}

/// `assert_ne!` that fails the current proptest case instead of panicking.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__pa, __pb) = (&$a, &$b);
        $crate::prop_assert!(
            *__pa != *__pb,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            __pa
        );
    }};
}

/// The glob-import surface matching `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in -2i64..9, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2..9).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn combinators_compose(
            v in crate::collection::vec((0u32..10, crate::bool::ANY), 2..6),
            j in Just(41u8).prop_map(|x| x + 1),
            (a, b) in (0usize..5).prop_flat_map(|n| (Just(n), n..n + 3)),
        ) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|(x, _)| *x < 10));
            prop_assert_eq!(j, 42);
            prop_assert!(b >= a && b < a + 3);
        }
    }

    #[test]
    fn failing_case_reports_seed() {
        let err = std::panic::catch_unwind(|| {
            crate::run_cases(&ProptestConfig::with_cases(5), "doomed", |_rng| {
                Err("nope".to_string())
            });
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("doomed") && msg.contains("seed"), "{msg}");
    }

    #[test]
    fn cases_are_deterministic_per_test_name() {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut drawn = Vec::new();
            crate::run_cases(&ProptestConfig::with_cases(8), "det", |rng| {
                drawn.push((0u64..1_000_000).gen_value(rng));
                Ok(())
            });
            runs.push(drawn);
        }
        assert_eq!(runs[0], runs[1]);
        assert!(runs[0].windows(2).any(|w| w[0] != w[1]));
    }
}
