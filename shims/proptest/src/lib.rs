//! Offline stand-in for the `proptest` crate.
//!
//! Implements the strategy combinators and macros this workspace's property
//! tests use — `proptest!`, `prop_oneof!`, `prop_assert*!`, `prop_assume!`,
//! `Just`, `any`, regex-subset string strategies, numeric ranges, tuples,
//! `prop::collection::{vec, hash_set}`, `prop_map`, and `prop_recursive` —
//! over a deterministic seeded RNG.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its case number and the run
//!   seed; rerun with `PROPTEST_SEED=<seed>` to reproduce.
//! * **Regex strategies** support the subset used here: char classes
//!   (`[a-z0-9' €$%.,_-]`, ranges + literals), `.`, and `{n}` / `{m,n}`
//!   quantifiers over a whole-string class pattern.
//! * Collection sizes are sampled uniformly; `hash_set` deduplicates after
//!   generation, so small target sizes can come up short of the upper
//!   bound (bounds stay respected).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof,
        proptest, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic generator driving all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed ^ 0x9E37_79B9_7F4A_7C15 }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sampling bound");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------------
// Config / runner / failure plumbing
// ---------------------------------------------------------------------------

/// Subset of proptest's config: number of cases per property.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
    /// `prop_assert*!` failed with this message.
    Fail(String),
}

impl TestCaseError {
    /// Build a failure with a formatted message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// Drives the cases of one property (used by the `proptest!` expansion).
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
    seed: u64,
}

impl TestRunner {
    /// Build from a config and the property's name (mixed into the seed).
    pub fn new(config: ProptestConfig, name: &str) -> Self {
        let seed = match std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse().ok()) {
            Some(s) => s,
            None => {
                // Deterministic per-property default: tests are stable
                // across runs and differ from one another.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in name.bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01B3);
                }
                h
            }
        };
        TestRunner { config, seed }
    }

    /// Number of cases to run.
    pub fn cases(&self) -> u32 {
        self.config.cases
    }

    /// The seed in use (printed on failure).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// RNG for one case.
    pub fn rng_for(&self, case: u32) -> TestRng {
        TestRng::new(self.seed.wrapping_add(0x0001_0000_0007_u64.wrapping_mul(u64::from(case) + 1)))
    }
}

// ---------------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------------

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }

    /// Filter generated values (retries until `f` passes, giving up after a
    /// bounded number of attempts by returning the last candidate).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        _whence: &'static str,
        f: F,
    ) -> FilterStrategy<Self, F>
    where
        Self: Sized,
    {
        FilterStrategy { base: self, f }
    }

    /// Build a recursive strategy: `self` generates leaves, `branch` wraps
    /// an inner strategy into one nesting level, `depth` bounds nesting.
    fn prop_recursive<S, F>(self, depth: u32, _size: u32, _branch_size: u32, branch: F) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S + 'static,
    {
        let base: BoxedStrategy<Self::Value> = self.boxed();
        let mut tower = base.clone();
        for _ in 0..depth.max(1) {
            // Each level chooses leaf-or-branch so every depth can
            // terminate; deeper towers allow more nesting.
            let next = branch(tower).boxed();
            tower = Union { options: vec![base.clone(), next] }.boxed();
        }
        tower
    }

    /// Type-erase into a cloneable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// Object-safe view of [`Strategy`] (implementation detail of boxing).
trait DynStrategy<T> {
    fn dyn_generate(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A cloneable, type-erased strategy handle.
pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.dyn_generate(rng)
    }
}

impl<T> fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.base.generate(rng))
    }
}

/// `prop_filter` adapter.
pub struct FilterStrategy<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for FilterStrategy<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1_000 {
            let v = self.base.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 candidates in a row");
    }
}

/// Uniform choice between same-valued strategies (`prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Build from the options (must be non-empty).
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

// ---------------------------------------------------------------------------
// Primitive strategies
// ---------------------------------------------------------------------------

/// Strategy for "any value of `T`" ([`any`]).
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

/// `any::<T>()`: full-domain strategy with edge-case bias for integers.
pub fn any<T>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

impl Strategy for AnyStrategy<bool> {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for AnyStrategy<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                // 1-in-8 edge case, 3-in-8 small magnitude, else raw bits.
                match rng.below(8) {
                    0 => [0 as $t, 1 as $t, <$t>::MIN, <$t>::MAX]
                        [rng.below(4) as usize],
                    1..=3 => (rng.next_u64() % 32) as $t,
                    _ => rng.next_u64() as $t,
                }
            }
        }
    )*};
}

impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (start as i128 + rng.below(span + 1) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

// Tuple strategies (generated left to right).
macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
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
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

// ---------------------------------------------------------------------------
// Regex-subset string strategies
// ---------------------------------------------------------------------------

/// One parsed atom of the pattern subset: the alphabet plus a length range.
#[derive(Debug, Clone)]
struct CharClassPattern {
    alphabet: Vec<char>,
    min_len: usize,
    max_len: usize,
}

thread_local! {
    // Pattern parses are cached: collection strategies re-generate the same
    // &'static str pattern thousands of times per test.
    static PATTERN_CACHE: RefCell<Vec<(String, CharClassPattern)>> = const { RefCell::new(Vec::new()) };
}

/// `.` alphabet: printable ASCII plus a few multi-byte characters so
/// Unicode handling stays exercised.
fn any_char_alphabet() -> Vec<char> {
    let mut chars: Vec<char> = (' '..='~').collect();
    chars.extend(['é', 'Ж', '€', '中', '𝐀']);
    chars
}

fn parse_pattern(pattern: &str) -> CharClassPattern {
    let mut chars = pattern.chars().peekable();
    let mut alphabet: Vec<char>;
    match chars.next() {
        Some('[') => {
            let mut pending: Vec<char> = Vec::new();
            loop {
                match chars.next() {
                    Some(']') => break,
                    Some('-') if !pending.is_empty() && chars.peek().is_some_and(|&c| c != ']') => {
                        let lo = *pending.last().unwrap();
                        let hi = chars.next().unwrap();
                        assert!(lo <= hi, "bad class range {lo}-{hi} in {pattern:?}");
                        // `lo` itself is already pending; add the rest.
                        let mut c = lo;
                        while c < hi {
                            c = char::from_u32(c as u32 + 1).expect("class range");
                            pending.push(c);
                        }
                    }
                    Some('\\') => pending.push(chars.next().expect("escape in class")),
                    Some(c) => pending.push(c),
                    None => panic!("unterminated char class in {pattern:?}"),
                }
            }
            alphabet = pending;
        }
        Some('.') => alphabet = any_char_alphabet(),
        other => panic!(
            "unsupported pattern {pattern:?} (shim supports `[class]` or `.` with optional {{m,n}}): {other:?}"
        ),
    }
    assert!(!alphabet.is_empty(), "empty alphabet in {pattern:?}");
    alphabet.sort_unstable();
    alphabet.dedup();

    let (min_len, max_len) = match chars.next() {
        None => (1, 1),
        Some('{') => {
            let rest: String = chars.collect();
            let body = rest.strip_suffix('}').expect("unterminated quantifier");
            match body.split_once(',') {
                Some((m, n)) => (
                    m.trim().parse().expect("quantifier min"),
                    n.trim().parse().expect("quantifier max"),
                ),
                None => {
                    let n = body.trim().parse().expect("quantifier count");
                    (n, n)
                }
            }
        }
        Some(c) => panic!("unsupported pattern tail {c:?} in {pattern:?}"),
    };
    assert!(min_len <= max_len, "inverted quantifier in {pattern:?}");
    CharClassPattern { alphabet, min_len, max_len }
}

fn cached_pattern(pattern: &str) -> CharClassPattern {
    PATTERN_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some((_, parsed)) = cache.iter().find(|(p, _)| p == pattern) {
            return parsed.clone();
        }
        let parsed = parse_pattern(pattern);
        cache.push((pattern.to_owned(), parsed.clone()));
        parsed
    })
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let parsed = cached_pattern(pattern);
    let len = parsed.min_len
        + rng.below((parsed.max_len - parsed.min_len + 1) as u64) as usize;
    (0..len)
        .map(|_| parsed.alphabet[rng.below(parsed.alphabet.len() as u64) as usize])
        .collect()
}

impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

// ---------------------------------------------------------------------------
// prop:: namespace (num, collection)
// ---------------------------------------------------------------------------

pub mod prop {
    //! The `prop::` namespace mirroring real proptest's module layout.

    pub mod num {
        //! Numeric sub-strategies.

        pub mod f64 {
            //! `f64`-specific strategies.
            use crate::{Strategy, TestRng};

            /// Generates normal (non-zero, non-subnormal, finite) floats.
            #[derive(Debug, Clone, Copy)]
            pub struct NormalF64;

            /// Normal floats of either sign.
            pub const NORMAL: NormalF64 = NormalF64;

            impl Strategy for NormalF64 {
                type Value = f64;

                fn generate(&self, rng: &mut TestRng) -> f64 {
                    loop {
                        // Mix raw bit patterns (huge dynamic range) with
                        // human-scale values so both regimes are covered.
                        let candidate = if rng.below(2) == 0 {
                            f64::from_bits(rng.next_u64())
                        } else {
                            (rng.unit_f64() - 0.5) * 2e6
                        };
                        if candidate.is_normal() {
                            return candidate;
                        }
                    }
                }
            }
        }
    }

    pub mod collection {
        //! Collection strategies.
        use crate::{Strategy, TestRng};
        use std::collections::HashSet;
        use std::hash::Hash;

        /// Size specification: exact or a half-open range.
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            min: usize,
            max_exclusive: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { min: n, max_exclusive: n + 1 }
            }
        }

        impl From<core::ops::Range<usize>> for SizeRange {
            fn from(r: core::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty collection size range");
                SizeRange { min: r.start, max_exclusive: r.end }
            }
        }

        impl SizeRange {
            fn sample(self, rng: &mut TestRng) -> usize {
                self.min + rng.below((self.max_exclusive - self.min) as u64) as usize
            }
        }

        /// `Vec<T>` strategy with sizes from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy { element, size: size.into() }
        }

        /// `HashSet<T>` strategy; sizes are pre-dedup targets.
        pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
        where
            S: Strategy,
            S::Value: Hash + Eq,
        {
            HashSetStrategy { element, size: size.into() }
        }

        /// Strategy returned by [`vec()`].
        #[derive(Debug)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.size.sample(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// Strategy returned by [`hash_set`].
        #[derive(Debug)]
        pub struct HashSetStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S> Strategy for HashSetStrategy<S>
        where
            S: Strategy,
            S::Value: Hash + Eq,
        {
            type Value = HashSet<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
                let n = self.size.sample(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Define property tests (the shim's `proptest!` block form).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { (<$crate::ProptestConfig as ::core::default::Default>::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr); $(
        #[test]
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let runner = $crate::TestRunner::new(config, stringify!($name));
            for case in 0..runner.cases() {
                let mut rng = runner.rng_for(case);
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                let outcome: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                match outcome {
                    ::core::result::Result::Ok(()) => {}
                    ::core::result::Result::Err($crate::TestCaseError::Reject) => {}
                    ::core::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "property {} failed at case {}/{} (seed {}; rerun with PROPTEST_SEED={}):\n{}",
                            stringify!($name), case, runner.cases(), runner.seed(),
                            runner.seed(), msg,
                        );
                    }
                }
            }
        }
    )*};
}

/// Uniform choice among strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Assert a condition inside a property (fails the case, no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)*), l, r
        );
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left), stringify!($right), l
        );
    }};
}

/// Skip the case unless the assumption holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn pattern_parsing_shapes() {
        let mut rng = TestRng::new(5);
        for _ in 0..200 {
            let s = generate_from_pattern("[a-z]{1,6}", &mut rng);
            assert!((1..=6).contains(&s.chars().count()), "{s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let t = generate_from_pattern("[a-c]", &mut rng);
            assert_eq!(t.chars().count(), 1);
            assert!("abc".contains(&t));
            let u = generate_from_pattern("[a-zA-Z0-9' €$%.,]{0,24}", &mut rng);
            assert!(u.chars().count() <= 24);
            let dot = generate_from_pattern(".{0,60}", &mut rng);
            assert!(dot.chars().count() <= 60);
        }
    }

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..500 {
            let (a, b) = (0u32..64, -10.0f64..10.0).generate(&mut rng);
            assert!(a < 64);
            assert!((-10.0..10.0).contains(&b));
            let c = (2usize..8).generate(&mut rng);
            assert!((2..8).contains(&c));
            let d = (1..=12u8).generate(&mut rng);
            assert!((1..=12).contains(&d));
        }
    }

    #[test]
    fn collections_and_union() {
        let mut rng = TestRng::new(2);
        let v = prop::collection::vec("[a-z]{1,4}", 0..10).generate(&mut rng);
        assert!(v.len() < 10);
        let exact = prop::collection::vec(any::<bool>(), 15).generate(&mut rng);
        assert_eq!(exact.len(), 15);
        let hs = prop::collection::hash_set("[a-z]{1,5}", 0..10).generate(&mut rng);
        assert!(hs.len() < 10);
        let u = prop_oneof![Just(1i64), Just(2), 10i64..20];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(u.generate(&mut rng));
        }
        assert!(seen.contains(&1) && seen.contains(&2) && seen.iter().any(|&x| x >= 10));
    }

    #[test]
    fn recursion_terminates_and_nests() {
        #[derive(Debug, Clone, PartialEq)]
        enum V {
            Leaf(i64),
            Node(Vec<V>),
        }
        let strat = (0i64..10).prop_map(V::Leaf).prop_recursive(3, 16, 3, |inner| {
            prop::collection::vec(inner, 0..3).prop_map(V::Node)
        });
        let mut rng = TestRng::new(3);
        let mut saw_node = false;
        for _ in 0..300 {
            match strat.generate(&mut rng) {
                V::Leaf(n) => assert!((0..10).contains(&n)),
                V::Node(_) => saw_node = true,
            }
        }
        assert!(saw_node, "recursive branch never taken");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn macro_wires_args_and_asserts(a in 0i64..100, s in "[a-z]{1,8}") {
            prop_assert!(a >= 0);
            prop_assert!(a < 100, "a out of range: {}", a);
            prop_assert_eq!(s.len(), s.chars().count());
            prop_assume!(a != 5);
            prop_assert_ne!(a, 5);
        }
    }

    proptest! {
        #[test]
        fn default_config_form_works(flag in any::<bool>()) {
            prop_assert_eq!(flag as u8 <= 1, true);
        }
    }
}
