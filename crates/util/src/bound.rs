//! Legal ranges of numeric config keys.
//!
//! The fault plan's and the scenario spec's key tables give every numeric
//! key a [`Bound`]; parsing a key's text through its bound yields either the
//! value or a typed [`SpecErrorKind`] that names the key, the offending text
//! and the legal range.

use crate::args::SpecErrorKind;

/// The legal range of a numeric config key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Any value of the key's type (finite, for floats).
    Any,
    /// An integer in `min..=max`; `unit` names what it counts.
    Int {
        /// Smallest legal value.
        min: u64,
        /// Largest legal value.
        max: u64,
        /// What the integer counts, for the range text.
        unit: &'static str,
    },
    /// A finite number `> 0`.
    Positive,
    /// A finite number `>= 0`.
    NonNegative,
    /// A finite number in `[0, 1]`.
    Probability,
    /// A finite number `>= 1`.
    Factor,
}

impl Bound {
    /// Integers `>= min`.
    pub const fn at_least(min: u64, unit: &'static str) -> Bound {
        Bound::Int {
            min,
            max: u64::MAX,
            unit,
        }
    }

    /// Integers in `min..=max`.
    pub const fn within(min: u64, max: u64, unit: &'static str) -> Bound {
        Bound::Int { min, max, unit }
    }

    /// Parse `text` as a `u64` within this bound.
    pub fn int(self, key: &str, text: &str) -> Result<u64, SpecErrorKind> {
        let n: u64 = text.parse().map_err(|_| bad(key, text, "a u64"))?;
        match self {
            Bound::Int { min, max, unit } if n < min || n > max => {
                let range = if max == u64::MAX {
                    format!(">= {min} {unit}")
                } else {
                    format!("{min}..={max} {unit}")
                };
                Err(out_of_range(key, text, range))
            }
            _ => Ok(n),
        }
    }

    /// Parse `text` as a finite `f64` within this bound.
    pub fn real(self, key: &str, text: &str) -> Result<f64, SpecErrorKind> {
        let x: f64 = text.parse().map_err(|_| bad(key, text, "a number"))?;
        if !x.is_finite() {
            return Err(bad(key, text, "a finite number"));
        }
        let range = match self {
            Bound::Positive if x <= 0.0 => "> 0",
            Bound::NonNegative if x < 0.0 => ">= 0",
            Bound::Probability if !(0.0..=1.0).contains(&x) => "a probability in [0, 1]",
            Bound::Factor if x < 1.0 => ">= 1",
            _ => return Ok(x),
        };
        Err(out_of_range(key, text, range.to_string()))
    }
}

fn bad(key: &str, value: &str, want: &str) -> SpecErrorKind {
    SpecErrorKind::BadValue {
        key: key.to_string(),
        value: value.to_string(),
        want: want.to_string(),
    }
}

fn out_of_range(key: &str, value: &str, range: String) -> SpecErrorKind {
    SpecErrorKind::OutOfRange {
        key: key.to_string(),
        value: value.to_string(),
        range,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_bounds_name_key_value_and_range() {
        assert_eq!(Bound::Any.int("n", "18446744073709551615"), Ok(u64::MAX));
        assert_eq!(Bound::within(1, 1024, "shards").int("n", "1024"), Ok(1024));
        match Bound::within(1, 1024, "shards").int("shards", "1025") {
            Err(SpecErrorKind::OutOfRange { key, value, range }) => {
                assert_eq!((key.as_str(), value.as_str()), ("shards", "1025"));
                assert_eq!(range, "1..=1024 shards");
            }
            other => panic!("{other:?}"),
        }
        match Bound::at_least(2, "rows").int("window", "1") {
            Err(SpecErrorKind::OutOfRange { range, .. }) => assert_eq!(range, ">= 2 rows"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            Bound::Any.int("n", "-1"),
            Err(SpecErrorKind::BadValue { .. })
        ));
    }

    #[test]
    fn real_bounds_reject_just_outside() {
        let out =
            |b: Bound, t: &str| matches!(b.real("x", t), Err(SpecErrorKind::OutOfRange { .. }));
        assert!(out(Bound::Positive, "0") && Bound::Positive.real("x", "1e-300").is_ok());
        assert!(out(Bound::NonNegative, "-1e-300") && Bound::NonNegative.real("x", "0").is_ok());
        assert!(
            out(Bound::Probability, "1.0000000000000002") && out(Bound::Probability, "-1e-300")
        );
        assert!(out(Bound::Factor, "0.9999999999999999") && Bound::Factor.real("x", "1").is_ok());
        for t in ["nan", "inf", "-inf", "1e400", "two"] {
            assert!(matches!(
                Bound::Any.real("x", t),
                Err(SpecErrorKind::BadValue { .. })
            ));
        }
    }
}
