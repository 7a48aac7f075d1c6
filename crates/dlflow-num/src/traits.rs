//! The [`Scalar`] ordered-field abstraction.
//!
//! The LP solver and the scheduling algorithms are generic over the scalar
//! type: `f64` for fast approximate sweeps, [`Rat`] for exact optimality
//! (the milestone binary search of the paper requires exact arithmetic to
//! return *the* optimum rather than an approximation).

use crate::rational::Rat;
use std::cmp::Ordering;
use std::fmt::{Debug, Display};

/// An ordered field with enough structure for simplex pivoting.
///
/// Implementations must be totally ordered on the values the algorithms
/// produce (no NaNs). [`Scalar::tolerance`] returns the comparison slack:
/// zero for exact types, a small epsilon for floating point.
pub trait Scalar: Clone + PartialEq + PartialOrd + Debug + Display + Send + Sync + 'static {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Embeds a signed integer.
    fn from_i64(v: i64) -> Self;
    /// Embeds an integer ratio (`den != 0`).
    fn from_ratio(num: i64, den: i64) -> Self;
    /// Sum by reference.
    fn add(&self, o: &Self) -> Self;
    /// Difference by reference.
    fn sub(&self, o: &Self) -> Self;
    /// Product by reference.
    fn mul(&self, o: &Self) -> Self;
    /// Quotient by reference (`o` nonzero).
    fn div(&self, o: &Self) -> Self;
    /// Negation.
    fn neg(&self) -> Self;
    /// Absolute value.
    fn abs(&self) -> Self;
    /// Comparison slack: 0 for exact types, an epsilon for floats.
    fn tolerance() -> Self;
    /// Lossy conversion to `f64` for reporting.
    fn to_f64(&self) -> f64;
    /// Best-effort embedding of an `f64` (exact for [`Rat`]).
    fn from_f64_approx(v: f64) -> Self;
    /// The value as `num/den` in machine integers: `Some` for an exact
    /// scalar whose reduced numerator fits an `i128` and denominator a
    /// `u128`, `None` otherwise and always for an inexact one (the
    /// default). Lets generic code run exact arithmetic over integers.
    fn to_i128_ratio(&self) -> Option<(i128, u128)> {
        None
    }

    /// The exact value `num/den` (`den ≥ 1`), or `None` for an inexact
    /// scalar (the default): the way back from [`Scalar::to_i128_ratio`].
    fn from_i128_ratio(_num: i128, _den: u128) -> Option<Self> {
        None
    }

    /// Total-order comparison; panics on incomparable values (float NaN).
    fn cmp_total(&self, o: &Self) -> Ordering {
        self.partial_cmp(o)
            .expect("Scalar::cmp_total: incomparable values")
    }

    /// Multiplicative inverse.
    fn recip(&self) -> Self {
        Self::one().div(self)
    }

    /// `|self| <= tolerance` — treat as zero.
    fn is_negligible(&self) -> bool {
        self.abs() <= Self::tolerance()
    }

    /// `self < o − tolerance` — strictly less, beyond the slack.
    fn lt_tol(&self, o: &Self) -> bool {
        self.add(&Self::tolerance()) < *o
    }

    /// `self > o + tolerance` — strictly greater, beyond the slack.
    fn gt_tol(&self, o: &Self) -> bool {
        *self > o.add(&Self::tolerance())
    }

    /// `self <= o + tolerance`.
    fn le_tol(&self, o: &Self) -> bool {
        !self.gt_tol(o)
    }

    /// `self >= o − tolerance`.
    fn ge_tol(&self, o: &Self) -> bool {
        !self.lt_tol(o)
    }

    /// Strictly positive beyond the slack.
    fn is_positive_tol(&self) -> bool {
        self.gt_tol(&Self::zero())
    }

    /// Strictly negative beyond the slack.
    fn is_negative_tol(&self) -> bool {
        self.lt_tol(&Self::zero())
    }

    /// Minimum of two values.
    fn min_val(a: Self, b: Self) -> Self {
        if a.cmp_total(&b) == Ordering::Greater {
            b
        } else {
            a
        }
    }

    /// Maximum of two values.
    fn max_val(a: Self, b: Self) -> Self {
        if a.cmp_total(&b) == Ordering::Less {
            b
        } else {
            a
        }
    }
}

impl Scalar for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_i64(v: i64) -> Self {
        v as f64
    }
    fn from_ratio(num: i64, den: i64) -> Self {
        assert!(den != 0, "from_ratio zero denominator");
        num as f64 / den as f64
    }
    fn add(&self, o: &Self) -> Self {
        self + o
    }
    fn sub(&self, o: &Self) -> Self {
        self - o
    }
    fn mul(&self, o: &Self) -> Self {
        self * o
    }
    fn div(&self, o: &Self) -> Self {
        self / o
    }
    fn neg(&self) -> Self {
        -self
    }
    fn abs(&self) -> Self {
        f64::abs(*self)
    }
    fn tolerance() -> Self {
        1e-9
    }
    fn to_f64(&self) -> f64 {
        *self
    }
    fn from_f64_approx(v: f64) -> Self {
        v
    }
}

impl Scalar for Rat {
    fn zero() -> Self {
        Rat::zero()
    }
    fn one() -> Self {
        Rat::one()
    }
    fn from_i64(v: i64) -> Self {
        Rat::from_i64(v)
    }
    fn from_ratio(num: i64, den: i64) -> Self {
        Rat::from_ratio(num, den)
    }
    fn add(&self, o: &Self) -> Self {
        self.add_ref(o)
    }
    fn sub(&self, o: &Self) -> Self {
        self.sub_ref(o)
    }
    fn mul(&self, o: &Self) -> Self {
        self.mul_ref(o)
    }
    fn div(&self, o: &Self) -> Self {
        self.div_ref(o)
    }
    fn neg(&self) -> Self {
        self.neg_ref()
    }
    fn abs(&self) -> Self {
        Rat::abs(self)
    }
    fn tolerance() -> Self {
        Rat::zero()
    }
    fn to_f64(&self) -> f64 {
        Rat::to_f64(self)
    }
    fn from_f64_approx(v: f64) -> Self {
        Rat::from_f64(v)
    }
    // The slack is zero: compare directly rather than add it first, which
    // would cost a reduction of the sum.
    fn lt_tol(&self, o: &Self) -> bool {
        self < o
    }
    fn gt_tol(&self, o: &Self) -> bool {
        self > o
    }
    fn to_i128_ratio(&self) -> Option<(i128, u128)> {
        Some((self.numer_i128()?, self.denom_u128()?))
    }
    fn from_i128_ratio(num: i128, den: u128) -> Option<Self> {
        Some(Rat::from_i128_parts(num, den))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_field<S: Scalar>() {
        let two = S::from_i64(2);
        let three = S::from_i64(3);
        let five = S::from_i64(5);
        assert_eq!(two.add(&three), five);
        assert_eq!(five.sub(&three), two);
        assert_eq!(two.mul(&three), S::from_i64(6));
        assert_eq!(S::from_i64(6).div(&three), two);
        assert_eq!(two.neg().abs(), two);
        assert_eq!(S::from_ratio(1, 2).add(&S::from_ratio(1, 2)), S::one());
        assert_eq!(S::from_ratio(-4, 2), S::from_i64(-2));
        assert!(S::zero() < S::one());
        assert_eq!(two.recip().mul(&two), S::one());
    }

    #[test]
    fn f64_field_laws() {
        exercise_field::<f64>();
    }

    #[test]
    fn rat_field_laws() {
        exercise_field::<Rat>();
    }

    #[test]
    fn tolerance_behaviour() {
        // Exact type: nothing nonzero is negligible.
        assert!(Rat::from_ratio(1, 1_000_000_000_000).is_positive_tol());
        assert!(!Rat::from_ratio(1, i64::MAX).is_negligible());
        assert!(Rat::zero().is_negligible());
        // Float: tiny values are negligible.
        assert!(1e-12f64.is_negligible());
        assert!(!1e-3f64.is_negligible());
        assert!(1e-3f64.is_positive_tol());
        assert!((-1e-3f64).is_negative_tol());
        assert!(!(1e-12f64).is_positive_tol());
    }

    #[test]
    fn tol_comparisons() {
        assert!(1.0f64.lt_tol(&2.0));
        assert!(!1.0f64.lt_tol(&(1.0 + 1e-12)));
        assert!(2.0f64.gt_tol(&1.0));
        assert!(1.0f64.le_tol(&(1.0 - 1e-12)));
        assert!(Rat::from_i64(1).lt_tol(&Rat::from_ratio(1_000_000_001, 1_000_000_000)));
    }

    #[test]
    fn min_max_val() {
        assert_eq!(f64::min_val(2.0, 1.0), 1.0);
        assert_eq!(f64::max_val(2.0, 1.0), 2.0);
        assert_eq!(
            Rat::min_val(Rat::from_i64(2), Rat::from_i64(1)),
            Rat::from_i64(1)
        );
    }

    #[test]
    fn only_exact_scalars_expose_integer_ratios() {
        let x = Rat::from_ratio(-7, 12);
        assert_eq!(x.to_i128_ratio(), Some((-7, 12)));
        assert_eq!(Rat::from_i128_ratio(-14, 24), Some(x));
        assert_eq!(0.5f64.to_i128_ratio(), None);
        assert_eq!(f64::from_i128_ratio(1, 2), None);
    }

    #[test]
    fn f64_approx_embedding() {
        assert_eq!(Rat::from_f64_approx(0.5), Rat::from_ratio(1, 2));
        assert_eq!(f64::from_f64_approx(0.5), 0.5);
        assert!((Rat::from_ratio(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
    }
}
