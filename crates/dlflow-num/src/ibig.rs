//! Signed arbitrary-precision integers (sign–magnitude over [`UBig`]).

// u128↔u64 limb splitting and carry casts are the algorithm here, not
// lossy conversions.
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

use crate::ubig::{ParseUBigError, UBig};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Sign of an [`IBig`]. Zero is always [`Sign::Plus`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Sign {
    /// Non-negative.
    Plus,
    /// Strictly negative.
    Minus,
}

impl Sign {
    /// The opposite sign.
    #[inline]
    pub fn flip(self) -> Sign {
        match self {
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        }
    }

    /// Product-of-signs rule.
    #[inline]
    #[allow(clippy::should_implement_trait)] // deliberate: Sign is Copy and this is not an ops overload
    pub fn mul(self, other: Sign) -> Sign {
        if self == other {
            Sign::Plus
        } else {
            Sign::Minus
        }
    }
}

/// A signed arbitrary-precision integer.
///
/// Invariant: when the magnitude is zero the sign is [`Sign::Plus`], so
/// equality is structural.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IBig {
    sign: Sign,
    mag: UBig,
}

impl IBig {
    /// The value 0.
    #[inline]
    pub fn zero() -> Self {
        IBig {
            sign: Sign::Plus,
            mag: UBig::zero(),
        }
    }

    /// The value 1.
    #[inline]
    pub fn one() -> Self {
        IBig {
            sign: Sign::Plus,
            mag: UBig::one(),
        }
    }

    /// Builds from sign and magnitude, normalizing the sign of zero.
    pub fn from_sign_mag(sign: Sign, mag: UBig) -> Self {
        if mag.is_zero() {
            IBig::zero()
        } else {
            IBig { sign, mag }
        }
    }

    /// Builds from an `i64`.
    pub fn from_i64(v: i64) -> Self {
        if v >= 0 {
            IBig {
                sign: Sign::Plus,
                mag: UBig::from_u64(v as u64),
            }
        } else {
            IBig {
                sign: Sign::Minus,
                mag: UBig::from_u64(v.unsigned_abs()),
            }
        }
    }

    /// Builds from an `i128`.
    pub fn from_i128(v: i128) -> Self {
        if v >= 0 {
            IBig {
                sign: Sign::Plus,
                mag: UBig::from_u128(v as u128),
            }
        } else {
            IBig {
                sign: Sign::Minus,
                mag: UBig::from_u128(v.unsigned_abs()),
            }
        }
    }

    /// The sign.
    #[inline]
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude.
    #[inline]
    pub fn magnitude(&self) -> &UBig {
        &self.mag
    }

    /// Consumes self, returning the magnitude.
    #[inline]
    pub(crate) fn into_magnitude(self) -> UBig {
        self.mag
    }

    /// `true` iff the value is 0.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.mag.is_zero()
    }

    /// `true` iff the value is strictly negative.
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Minus
    }

    /// `true` iff the value is strictly positive.
    #[inline]
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Plus && !self.mag.is_zero()
    }

    /// Absolute value.
    pub fn abs(&self) -> IBig {
        IBig {
            sign: Sign::Plus,
            mag: self.mag.clone(),
        }
    }

    /// Sum.
    pub fn add_ref(&self, other: &IBig) -> IBig {
        if self.sign == other.sign {
            IBig::from_sign_mag(self.sign, self.mag.add(&other.mag))
        } else {
            match self.mag.cmp(&other.mag) {
                Ordering::Equal => IBig::zero(),
                Ordering::Greater => IBig::from_sign_mag(self.sign, self.mag.sub(&other.mag)),
                Ordering::Less => IBig::from_sign_mag(other.sign, other.mag.sub(&self.mag)),
            }
        }
    }

    /// Difference.
    pub fn sub_ref(&self, other: &IBig) -> IBig {
        self.add_ref(&other.neg_ref())
    }

    /// Product.
    pub fn mul_ref(&self, other: &IBig) -> IBig {
        IBig::from_sign_mag(self.sign.mul(other.sign), self.mag.mul(&other.mag))
    }

    /// Negation.
    pub fn neg_ref(&self) -> IBig {
        IBig::from_sign_mag(self.sign.flip(), self.mag.clone())
    }

    /// Truncated division (quotient rounds toward zero) with remainder:
    /// `self = q * other + r`, `|r| < |other|`, `sign(r) ∈ {0, sign(self)}`.
    pub fn div_rem(&self, other: &IBig) -> (IBig, IBig) {
        let (q, r) = self.mag.div_rem(&other.mag);
        (
            IBig::from_sign_mag(self.sign.mul(other.sign), q),
            IBig::from_sign_mag(self.sign, r),
        )
    }

    /// GCD of magnitudes (always non-negative).
    pub fn gcd(&self, other: &IBig) -> UBig {
        self.mag.gcd(&other.mag)
    }

    /// Exponentiation by squaring.
    pub fn pow(&self, exp: u32) -> IBig {
        let sign = if self.sign == Sign::Minus && exp % 2 == 1 {
            Sign::Minus
        } else {
            Sign::Plus
        };
        IBig::from_sign_mag(sign, self.mag.pow(exp))
    }

    /// Converts to `i64` if it fits.
    pub(crate) fn to_i64(&self) -> Option<i64> {
        let m = self.mag.to_u64()?;
        match self.sign {
            Sign::Plus => i64::try_from(m).ok(),
            Sign::Minus => {
                if m <= i64::MAX as u64 + 1 {
                    Some((m as i64).wrapping_neg())
                } else {
                    None
                }
            }
        }
    }

    /// Lossy conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        let m = self.mag.to_f64();
        match self.sign {
            Sign::Plus => m,
            Sign::Minus => -m,
        }
    }

    /// Parses a decimal string with optional leading `-` or `+`.
    pub fn from_decimal_str(s: &str) -> Result<IBig, ParseUBigError> {
        let (sign, digits) = match s.as_bytes().first() {
            Some(b'-') => (Sign::Minus, &s[1..]),
            Some(b'+') => (Sign::Plus, &s[1..]),
            _ => (Sign::Plus, s),
        };
        Ok(IBig::from_sign_mag(sign, UBig::from_decimal_str(digits)?))
    }
}

impl Ord for IBig {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.sign, other.sign) {
            (Sign::Plus, Sign::Minus) => Ordering::Greater,
            (Sign::Minus, Sign::Plus) => Ordering::Less,
            (Sign::Plus, Sign::Plus) => self.mag.cmp(&other.mag),
            (Sign::Minus, Sign::Minus) => other.mag.cmp(&self.mag),
        }
    }
}

impl PartialOrd for IBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for IBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Minus {
            write!(f, "-")?;
        }
        write!(f, "{}", self.mag)
    }
}

impl fmt::Debug for IBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<i64> for IBig {
    fn from(v: i64) -> Self {
        IBig::from_i64(v)
    }
}

impl From<u64> for IBig {
    fn from(v: u64) -> Self {
        IBig::from_sign_mag(Sign::Plus, UBig::from_u64(v))
    }
}

impl From<UBig> for IBig {
    fn from(mag: UBig) -> Self {
        IBig::from_sign_mag(Sign::Plus, mag)
    }
}

impl std::str::FromStr for IBig {
    type Err = ParseUBigError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        IBig::from_decimal_str(s)
    }
}

impl Neg for IBig {
    type Output = IBig;
    fn neg(self) -> IBig {
        self.neg_ref()
    }
}

impl Neg for &IBig {
    type Output = IBig;
    fn neg(self) -> IBig {
        self.neg_ref()
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $inner:ident) => {
        impl $trait for IBig {
            type Output = IBig;
            fn $method(self, rhs: IBig) -> IBig {
                self.$inner(&rhs)
            }
        }
        impl $trait<&IBig> for IBig {
            type Output = IBig;
            fn $method(self, rhs: &IBig) -> IBig {
                self.$inner(rhs)
            }
        }
        impl $trait<IBig> for &IBig {
            type Output = IBig;
            fn $method(self, rhs: IBig) -> IBig {
                self.$inner(&rhs)
            }
        }
        impl $trait for &IBig {
            type Output = IBig;
            fn $method(self, rhs: &IBig) -> IBig {
                self.$inner(rhs)
            }
        }
    };
}

forward_binop!(Add, add, add_ref);
forward_binop!(Sub, sub, sub_ref);
forward_binop!(Mul, mul, mul_ref);

impl AddAssign<&IBig> for IBig {
    fn add_assign(&mut self, rhs: &IBig) {
        *self = self.add_ref(rhs);
    }
}

impl SubAssign<&IBig> for IBig {
    fn sub_assign(&mut self, rhs: &IBig) {
        *self = self.sub_ref(rhs);
    }
}

impl MulAssign<&IBig> for IBig {
    fn mul_assign(&mut self, rhs: &IBig) {
        *self = self.mul_ref(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ib(v: i64) -> IBig {
        IBig::from_i64(v)
    }

    #[test]
    fn zero_sign_normalized() {
        let z = IBig::from_sign_mag(Sign::Minus, UBig::zero());
        assert_eq!(z, IBig::zero());
        assert_eq!(z.sign(), Sign::Plus);
        assert_eq!(ib(5).sub_ref(&ib(5)), IBig::zero());
    }

    #[test]
    fn add_all_sign_combinations() {
        assert_eq!(ib(3) + ib(4), ib(7));
        assert_eq!(ib(3) + ib(-4), ib(-1));
        assert_eq!(ib(-3) + ib(4), ib(1));
        assert_eq!(ib(-3) + ib(-4), ib(-7));
        assert_eq!(ib(4) + ib(-3), ib(1));
        assert_eq!(ib(-4) + ib(3), ib(-1));
    }

    #[test]
    fn sub_and_neg() {
        assert_eq!(ib(3) - ib(10), ib(-7));
        assert_eq!(-ib(3), ib(-3));
        assert_eq!(-IBig::zero(), IBig::zero());
        assert_eq!(ib(-5).abs(), ib(5));
    }

    #[test]
    fn mul_signs() {
        assert_eq!(ib(3) * ib(4), ib(12));
        assert_eq!(ib(-3) * ib(4), ib(-12));
        assert_eq!(ib(3) * ib(-4), ib(-12));
        assert_eq!(ib(-3) * ib(-4), ib(12));
        assert_eq!(ib(0) * ib(-4), ib(0));
    }

    #[test]
    fn div_rem_truncates_toward_zero() {
        for (a, b) in [(7i64, 2i64), (-7, 2), (7, -2), (-7, -2)] {
            let (q, r) = ib(a).div_rem(&ib(b));
            assert_eq!(q, ib(a / b), "q for {a}/{b}");
            assert_eq!(r, ib(a % b), "r for {a}%{b}");
        }
    }

    #[test]
    fn ordering_across_signs() {
        assert!(ib(-2) < ib(1));
        assert!(ib(-5) < ib(-2));
        assert!(ib(3) > ib(2));
        assert!(ib(0) > ib(-1));
    }

    #[test]
    fn i64_roundtrip_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(ib(v).to_i64(), Some(v));
        }
        let too_big = IBig::from_i64(i64::MAX) + IBig::one();
        assert_eq!(too_big.to_i64(), None);
        let min_exact = IBig::from_i64(i64::MIN);
        assert_eq!(min_exact.to_i64(), Some(i64::MIN));
        assert_eq!((min_exact - IBig::one()).to_i64(), None);
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in [
            "0",
            "-1",
            "12345678901234567890123",
            "-999999999999999999999",
        ] {
            let v = IBig::from_decimal_str(s).unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert_eq!(IBig::from_decimal_str("+42").unwrap(), ib(42));
        assert!(IBig::from_decimal_str("--1").is_err());
    }

    #[test]
    fn pow_signs() {
        assert_eq!(ib(-2).pow(3), ib(-8));
        assert_eq!(ib(-2).pow(4), ib(16));
        assert_eq!(ib(5).pow(0), ib(1));
    }

    #[test]
    fn to_f64_signed() {
        assert_eq!(ib(-12345).to_f64(), -12345.0);
        assert_eq!(ib(0).to_f64(), 0.0);
    }
}
