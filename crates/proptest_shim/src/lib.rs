//! Minimal deterministic stand-in for the subset of the `proptest` API this
//! workspace uses.
//!
//! The build environment is offline, so the real `proptest` crate cannot be
//! fetched.  This shim keeps the property-test sources unmodified: the
//! [`proptest!`] macro expands each property into a plain `#[test]` that
//! samples its range strategies a configurable number of times from a
//! generator seeded by the test's name — deterministic across runs and
//! platforms, so failures are reproducible (there is no shrinking; the
//! failing case's values are reported instead).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;
use std::ops::Range;

/// Configuration of a property block (subset of proptest's).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of sampled cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run each property `cases` times.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 32 }
    }
}

/// A failed property case (returned by `prop_assert!`).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Value generators; implemented for the range strategies the workspace
/// uses (`lo..hi` over integers and `f64`).
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Draw one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.random::<u64>() % span) as $t
            }
        }
    )*};
}

int_strategy!(u8, u16, u32, u64, usize, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.random::<f64>() * (self.end - self.start)
    }
}

/// Deterministic per-test generator, seeded by the test's name.  Public
/// only because [`proptest!`] expands to a call of it in the caller's crate.
#[doc(hidden)]
pub fn rng_for_test(name: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Everything the test sources import.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, TestCaseError};
}

/// Expand properties into plain `#[test]` functions (subset of proptest's
/// macro: named arguments bound with `name in strategy`).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $( $arg:ident in $strategy:expr ),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rng = $crate::rng_for_test(stringify!($name));
                for case in 0..config.cases {
                    $( let $arg = $crate::Strategy::sample(&($strategy), &mut rng); )+
                    let outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        Ok(())
                    })();
                    if let Err(e) = outcome {
                        panic!(
                            "property {} failed at case {case} with {}: {e}",
                            stringify!($name),
                            [$( format!("{} = {:?}", stringify!($arg), $arg) ),+].join(", "),
                        );
                    }
                }
            }
        )*
    };
    ( $( $(#[$meta:meta])* fn $name:ident $rest:tt $body:block )* ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $( $(#[$meta])* fn $name $rest $body )*
        }
    };
}

/// Fallible assertion inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} ({})",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

/// Fallible equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(left == right, "{left:?} != {right:?}");
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::Strategy;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn sampled_values_stay_in_range(
            x in 3u64..10,
            y in -2.0f64..2.0,
            s in 1usize..4,
        ) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y), "y = {y}");
            prop_assert!((1..4).contains(&s));
            prop_assert_eq!(s, s);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_test_name() {
        let mut a = crate::rng_for_test("some_test");
        let mut b = crate::rng_for_test("some_test");
        for _ in 0..10 {
            assert_eq!((0u64..100).sample(&mut a), (0u64..100).sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failing_property_reports_case_values() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            #[allow(dead_code)]
            fn always_fails(x in 0u64..5) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }
}
