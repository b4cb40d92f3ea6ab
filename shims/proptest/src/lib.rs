//! Offline stand-in for the `proptest` crate.
//!
//! The workspace builds without crates.io access, so this shim provides
//! the subset of proptest's API the workspace uses: the
//! [`Strategy`](strategy::Strategy) trait (`prop_map`, `prop_recursive`,
//! `boxed`), [`BoxedStrategy`](strategy::BoxedStrategy),
//! `any::<T>()`, range and string-pattern strategies, tuples,
//! `collection::{vec, btree_map}`, `option::of`, `array::uniform3`,
//! `sample::Index`, and the `proptest!` / `prop_compose!` /
//! `prop_oneof!` / `prop_assert*!` macros.
//!
//! Differences from proptest proper: generation is deterministic (the
//! per-case RNG is seeded from the test name and case number), and
//! there is **no shrinking** — a failing case reports its case number
//! and message and panics as-is. That trades minimal counterexamples
//! for zero dependencies, which is the right trade when the registry is
//! unreachable.

#![forbid(unsafe_code)]

/// Deterministic RNG and test-case plumbing.
pub mod test_runner {
    /// Splitmix64-based generator; cheap, deterministic, good enough
    /// for test-case generation (never used for anything else).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    impl TestRng {
        /// RNG for one named test case: same (name, case) → same stream.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            TestRng {
                state: fnv1a(test_name.as_bytes())
                    ^ (0x9E37_79B9_7F4A_7C15u64).wrapping_mul(case as u64 + 1),
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `0..n`. Panics if `n == 0`.
        pub fn below(&mut self, n: usize) -> usize {
            assert!(n > 0, "cannot draw below 0");
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Runner configuration; only `cases` is meaningful in the shim.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// A failed (or rejected) test case.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The property does not hold; the message explains why.
        Fail(String),
        /// The inputs were unsuitable (treated the same as Fail here).
        Reject(String),
    }

    impl TestCaseError {
        /// A failure with the given explanation.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// A rejection with the given explanation.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            }
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and core combinators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;
    use std::rc::Rc;

    /// Something that can generate values of `Self::Value`.
    ///
    /// Generate-only: no shrinking, no value trees.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }

        /// Builds a depth-bounded recursive strategy: `recurse` wraps
        /// the strategy-so-far, and every level can also fall back to
        /// the leaf. (`_desired_size` / `_expected_branch` are accepted
        /// for API compatibility and ignored.)
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let leaf = self.boxed();
            let mut cur = leaf.clone();
            for _ in 0..depth {
                cur = Union::new(vec![leaf.clone(), recurse(cur).boxed()]).boxed();
            }
            cur
        }
    }

    /// A type-erased, cloneable strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> std::fmt::Debug for BoxedStrategy<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("BoxedStrategy")
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// Picks uniformly among several strategies of the same value type.
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `options` (must be non-empty).
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "Union of zero strategies");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let pick = rng.below(self.options.len());
            self.options[pick].generate(rng)
        }
    }

    macro_rules! impl_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let draw = rng.next_u64() as u128 % span;
                    (self.start as i128 + draw as i128) as $t
                }
            }
        )*};
    }

    impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            self.start + unit * (self.end - self.start)
        }
    }

    /// `&'static str` patterns of the shape `[class]{m}` / `[class]{m,n}`
    /// generate strings over the class; anything else generates the
    /// literal itself.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            match parse_class_pattern(self) {
                Some((chars, lo, hi)) if !chars.is_empty() => {
                    let len = lo + rng.below(hi - lo + 1);
                    (0..len).map(|_| chars[rng.below(chars.len())]).collect()
                }
                _ => (*self).to_string(),
            }
        }
    }

    fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pat.strip_prefix('[')?;
        let close = rest.find(']')?;
        let class: Vec<char> = rest[..close].chars().collect();
        let mut chars = Vec::new();
        let mut i = 0;
        while i < class.len() {
            if i + 2 < class.len() && class[i + 1] == '-' {
                let (lo, hi) = (class[i] as u32, class[i + 2] as u32);
                for c in lo..=hi {
                    chars.push(char::from_u32(c)?);
                }
                i += 3;
            } else {
                chars.push(class[i]);
                i += 1;
            }
        }
        let counts = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
        let (lo, hi) = match counts.split_once(',') {
            Some((l, h)) => (l.trim().parse().ok()?, h.trim().parse().ok()?),
            None => {
                let n = counts.trim().parse().ok()?;
                (n, n)
            }
        };
        if lo > hi {
            return None;
        }
        Some((chars, lo, hi))
    }

    macro_rules! impl_tuple_strategy {
        ($($S:ident . $idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A.0);
    impl_tuple_strategy!(A.0, B.1);
    impl_tuple_strategy!(A.0, B.1, C.2);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10, L.11);
}

/// `any::<T>()` and the [`Arbitrary`](arbitrary::Arbitrary) trait.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    #[derive(Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeMap;
    use std::ops::Range;

    /// Strategy for `Vec<T>` with length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec` whose length is drawn from `size` (half-open).
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.end.saturating_sub(self.size.start).max(1);
            let len = self.size.start + rng.below(span);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap<K, V>`.
    #[derive(Debug, Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    /// A `BTreeMap` with up to `size` entries (duplicate keys collapse,
    /// so the result may be smaller than the draw).
    pub fn btree_map<K, V>(key: K, value: V, size: Range<usize>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Ord,
    {
        BTreeMapStrategy { key, value, size }
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let span = self.size.end.saturating_sub(self.size.start).max(1);
            let len = self.size.start + rng.below(span);
            (0..len)
                .map(|_| (self.key.generate(rng), self.value.generate(rng)))
                .collect()
        }
    }
}

/// `Option` strategies.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Option<T>`.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Some` three times out of four, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Fixed-size array strategies.
pub mod array {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `[T; 3]`, all cells drawn from the same strategy.
    #[derive(Debug, Clone)]
    pub struct Uniform3<S> {
        inner: S,
    }

    /// Three values from one strategy.
    pub fn uniform3<S: Strategy>(inner: S) -> Uniform3<S> {
        Uniform3 { inner }
    }

    impl<S: Strategy> Strategy for Uniform3<S> {
        type Value = [S::Value; 3];
        fn generate(&self, rng: &mut TestRng) -> [S::Value; 3] {
            [
                self.inner.generate(rng),
                self.inner.generate(rng),
                self.inner.generate(rng),
            ]
        }
    }
}

/// Sampling helpers.
pub mod sample {
    use crate::arbitrary::Arbitrary;
    use crate::test_runner::TestRng;

    /// An index into a collection whose size is only known at use time.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        /// Projects onto `0..size`. Panics if `size == 0`, like
        /// proptest proper.
        pub fn index(&self, size: usize) -> usize {
            assert!(size > 0, "Index::index on empty collection");
            (self.0 % size as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Index {
            Index(rng.next_u64())
        }
    }
}

/// Everything tests usually import.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, prop_oneof, proptest,
    };

    /// Namespaced access to the strategy modules (`prop::collection`,
    /// `prop::option`, `prop::array`, `prop::sample`).
    pub mod prop {
        pub use crate::array;
        pub use crate::collection;
        pub use crate::option;
        pub use crate::sample;
    }
}

/// Defines `#[test]` functions whose arguments are drawn from
/// strategies. Runs `config.cases` deterministic cases; a failing case
/// panics with its case number (no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg); $($rest)*);
    };
    (@run ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::TestRng::for_case(stringify!($name), case);
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!("proptest {} failed at case {}/{}: {}", stringify!($name), case, config.cases, e);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

/// Defines a function returning a composite strategy:
/// `fn name(params)(bindings in strategies) -> T { body }`.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($param:ident: $pty:ty),* $(,)?)($($arg:pat in $strat:expr),+ $(,)?) -> $ret:ty $body:block) => {
        $(#[$meta])*
        $vis fn $name($($param: $pty),*) -> impl $crate::strategy::Strategy<Value = $ret> {
            $crate::strategy::Strategy::prop_map(
                ($($strat,)+),
                move |($($arg,)+)| $body,
            )
        }
    };
}

/// Picks uniformly among the listed strategies (weights, if given, are
/// accepted and ignored).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$({ let _ = $weight; $crate::strategy::Strategy::boxed($strat) }),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::Strategy::boxed($strat)),+])
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(left == right, "assertion failed: {:?} != {:?}", left, right);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(left == right, $($fmt)+);
    }};
}

/// Fails the current case unless the two values differ.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(left != right, "assertion failed: {:?} == {:?}", left, right);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(left != right, $($fmt)+);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case("ranges", 0);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u32..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = Strategy::generate(&(0.0f64..1.0), &mut rng);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn string_patterns_respect_class_and_len() {
        let mut rng = TestRng::for_case("strings", 0);
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z0-9 ]{0,12}", &mut rng);
            assert!(s.len() <= 12);
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == ' '));
            let t = Strategy::generate(&"[a-z]{1,6}", &mut rng);
            assert!((1..=6).contains(&t.len()));
        }
    }

    #[test]
    fn recursion_terminates() {
        let leaf = prop_oneof![Just(0u64), any::<u64>()];
        let tree = Strategy::prop_recursive(leaf, 3, 24, 4, |inner| {
            prop::collection::vec(inner, 0..4)
                .prop_map(|v| v.iter().fold(0u64, |a, x| a.wrapping_add(*x)))
        });
        let mut rng = TestRng::for_case("rec", 1);
        for _ in 0..100 {
            let _ = Strategy::generate(&tree, &mut rng);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_pipeline_works(
            xs in prop::collection::vec(0u8..10, 0..8),
            pick in any::<prop::sample::Index>(),
            flag in any::<bool>(),
        ) {
            prop_assert!(xs.len() < 8);
            if !xs.is_empty() {
                let x = xs[pick.index(xs.len())];
                prop_assert!(x < 10, "x = {} out of range", x);
            }
            prop_assert_ne!(u64::from(flag), 2u64);
        }
    }
}
