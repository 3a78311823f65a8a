//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API the workspace's property
//! tests use: the [`strategy::Strategy`] trait with `prop_map`/`prop_flat_map`,
//! range and tuple strategies, [`collection::vec`], [`arbitrary::any`],
//! [`strategy::Just`], the [`proptest!`] macro with
//! `#![proptest_config(..)]`, and `prop_assert!`/`prop_assert_eq!`.
//!
//! Differences from upstream: no shrinking (a failing case is reported
//! with its generated value via `Debug` where available, but not
//! minimized) and a fixed deterministic seed sequence per test case, so
//! failures always reproduce.

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng as _;
    use std::ops::Range;

    /// A generator of values for property tests.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { base: self, f }
        }

        /// Feeds generated values into a strategy-producing function and
        /// samples the produced strategy.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { base: self, f }
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn generate(&self, rng: &mut StdRng) -> U {
            (self.f)(self.base.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;

        fn generate(&self, rng: &mut StdRng) -> T::Value {
            (self.f)(self.base.generate(rng)).generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(f64, usize, u64, u32, i64, i32, u8, i8, u16, i16);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, G);
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng as _;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Generates one arbitrary value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut StdRng) -> u64 {
            rng.gen()
        }
    }

    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut StdRng) -> u32 {
            rng.gen()
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> bool {
            rng.gen()
        }
    }

    impl Arbitrary for usize {
        fn arbitrary(rng: &mut StdRng) -> usize {
            rng.gen::<u64>() as usize
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut StdRng) -> f64 {
            // Finite, sign-balanced and spanning several magnitudes — the
            // useful slice of "any f64" for numeric property tests.
            let m: f64 = rng.gen_range(-1.0..1.0);
            let e: i32 = rng.gen_range(-8i32..9);
            m * 10f64.powi(e)
        }
    }

    /// Strategy produced by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng as _;

    /// A fixed or ranged element count for [`vec()`].
    pub trait IntoSizeRange {
        /// Samples a concrete length.
        fn sample_len(&self, rng: &mut StdRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn sample_len(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl IntoSizeRange for std::ops::Range<i32> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.start as usize..self.end as usize)
        }
    }

    /// Strategy for vectors of `element` values with a given length.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `proptest::collection::vec(element, len)`.
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

pub mod test_runner {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng as _;

    /// A failed property-test case.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Builds a failure with a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    /// Runner configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Configuration running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Drives a property over `config.cases` generated inputs.
    pub struct TestRunner {
        config: ProptestConfig,
    }

    impl TestRunner {
        /// Creates the runner.
        pub fn new(config: ProptestConfig) -> Self {
            TestRunner { config }
        }

        /// Runs the property; panics on the first failing case with its
        /// case number (the seed sequence is fixed, so reruns reproduce).
        pub fn run<S, F>(&mut self, strategy: &S, mut test: F)
        where
            S: Strategy,
            S::Value: std::fmt::Debug,
            F: FnMut(S::Value) -> Result<(), TestCaseError>,
        {
            for case in 0..self.config.cases {
                // Fixed per-case seeds: failures are reproducible without
                // a persistence file.
                let mut rng = StdRng::seed_from_u64(
                    0xC0FF_EE00_D15E_A5ED ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let value = strategy.generate(&mut rng);
                let shown = format!("{value:?}");
                if let Err(TestCaseError(msg)) = test(value) {
                    panic!(
                        "proptest case {case}/{total} failed: {msg}\n  input: {shown}",
                        total = self.config.cases
                    );
                }
            }
        }
    }
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Declares property tests; see the crate docs for the supported shape.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let mut runner = $crate::test_runner::TestRunner::new($cfg);
            runner.run(
                &($($strat,)+),
                |($($pat,)+)| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    Ok(())
                },
            );
        }
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    (($cfg:expr);) => {};
}

/// Fails the current property case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current property case unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {:?} != {:?}", l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    }};
}
