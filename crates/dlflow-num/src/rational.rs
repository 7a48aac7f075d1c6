//! Exact rational numbers with an inline small-value fast path.
//!
//! [`Rat`] is a tagged union: values whose reduced numerator fits an `i64`
//! and whose reduced denominator fits a `u64` live inline (no heap
//! allocation at all), and every arithmetic op on two inline values runs
//! in machine integers with overflow checks, promoting to the
//! arbitrary-precision ([`IBig`]/[`UBig`]) path only when an intermediate
//! genuinely overflows. Every bignum result is *demoted* back to the
//! inline form when it fits, so the representation is canonical: two equal
//! values always share a variant, and derived `Eq`/`Hash` stay structural.
//!
//! This matters because the simplex pivots of `dlflow-lp` spend most of
//! their time on coefficients like 0, 1 and small ratios; with the dense
//! bignum representation every one of those heap-allocated.

use crate::ibig::{IBig, Sign};
use crate::ubig::UBig;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number.
///
/// Invariants: the denominator is ≥ 1 and `gcd(|num|, den) = 1`
/// (fully reduced); the sign lives on the numerator; any value
/// representable inline (`i64` numerator, `u64` denominator) is stored
/// inline.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rat {
    repr: Repr,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Inline fast path: `num / den`, reduced, `den ≥ 1`.
    Small { num: i64, den: u64 },
    /// Bignum fallback for values outside the inline range.
    Big(Box<BigRat>),
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct BigRat {
    num: IBig,
    den: UBig,
}

/// Euclidean GCD on `u64` (`b ≥ 1` in all internal uses).
#[inline]
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Euclidean GCD on `u128`.
#[inline]
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Narrows a signed magnitude to `i64`, honouring the full `i64::MIN` range.
#[inline]
fn narrow_i64(negative: bool, mag: u128) -> Option<i64> {
    if !negative {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "guarded: mag <= i64::MAX on this line"
        )]
        (mag <= i64::MAX as u128).then_some(mag as i64)
    } else if mag <= i64::MAX as u128 + 1 {
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_possible_wrap,
            reason = "mag <= 2^63: wrapping-neg encodes i64::MIN exactly"
        )]
        Some((mag as u64).wrapping_neg() as i64)
    } else {
        None
    }
}

impl Rat {
    /// The value 0.
    #[inline]
    pub fn zero() -> Self {
        Rat {
            repr: Repr::Small { num: 0, den: 1 },
        }
    }

    /// The value 1.
    #[inline]
    pub fn one() -> Self {
        Rat {
            repr: Repr::Small { num: 1, den: 1 },
        }
    }

    #[inline]
    fn small(num: i64, den: u64) -> Self {
        debug_assert!(den >= 1);
        debug_assert!(num == 0 || gcd_u64(num.unsigned_abs(), den) == 1);
        debug_assert!(num != 0 || den == 1);
        Rat {
            repr: Repr::Small { num, den },
        }
    }

    /// Builds from an *already reduced* sign + magnitude over a wide
    /// denominator, choosing the inline or bignum representation.
    fn from_u128_reduced(negative: bool, mag: u128, den: u128) -> Self {
        debug_assert!(den >= 1);
        if mag == 0 {
            return Rat::zero();
        }
        if den <= u64::MAX as u128 {
            if let Some(n) = narrow_i64(negative, mag) {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "guarded: den <= u64::MAX two lines up"
                )]
                return Rat::small(n, den as u64);
            }
        }
        let sign = if negative { Sign::Minus } else { Sign::Plus };
        Rat {
            repr: Repr::Big(Box::new(BigRat {
                num: IBig::from_sign_mag(sign, UBig::from_u128(mag)),
                den: UBig::from_u128(den),
            })),
        }
    }

    /// Builds from an *already reduced* `num / den` in wide integers.
    #[inline]
    fn from_i128_reduced(num: i128, den: u128) -> Self {
        Rat::from_u128_reduced(num < 0, num.unsigned_abs(), den)
    }

    /// Builds from unreduced `num / den` in wide integers; panics when
    /// `den` is zero. With [`Rat::numer_i128`] and [`Rat::denom_u128`] it
    /// lets exact code run over machine integers where values fit:
    ///
    /// ```
    /// use dlflow_num::Rat;
    ///
    /// let x = Rat::from_i128_parts(-6, 4);
    /// assert_eq!(x, Rat::from_ratio(-3, 2));
    /// assert_eq!((x.numer_i128(), x.denom_u128()), (Some(-3), Some(2)));
    /// ```
    pub fn from_i128_parts(num: i128, den: u128) -> Self {
        assert!(den != 0, "Rat::from_i128_parts zero denominator");
        if num == 0 {
            return Rat::zero();
        }
        let mag = num.unsigned_abs();
        let g = gcd_u128(mag, den);
        Rat::from_u128_reduced(num < 0, mag / g, den / g)
    }

    /// Materializes the bignum form of the value (cheap for inline values).
    fn big_parts(&self) -> (IBig, UBig) {
        match &self.repr {
            Repr::Small { num, den } => (IBig::from_i64(*num), UBig::from_u64(*den)),
            Repr::Big(b) => (b.num.clone(), b.den.clone()),
        }
    }

    /// Builds and normalizes `num / den`; panics when `den` is zero.
    pub fn new(num: IBig, den: IBig) -> Self {
        assert!(!den.is_zero(), "Rat::new zero denominator");
        let num = if den.is_negative() {
            num.neg_ref()
        } else {
            num
        };
        Rat::from_parts(num, den.into_magnitude())
    }

    /// Builds and normalizes a signed numerator over an unsigned
    /// denominator, demoting to the inline representation when it fits.
    pub fn from_parts(num: IBig, den: UBig) -> Self {
        assert!(!den.is_zero(), "Rat::from_parts zero denominator");
        if num.is_zero() {
            return Rat::zero();
        }
        let g = num.magnitude().gcd(&den);
        let (nm, dn) = if g.is_one() {
            (num.magnitude().clone(), den)
        } else {
            (num.magnitude().div_rem(&g).0, den.div_rem(&g).0)
        };
        if let (Some(d), Some(m)) = (dn.to_u64(), nm.to_u128()) {
            if let Some(n) = narrow_i64(num.is_negative(), m) {
                return Rat::small(n, d);
            }
        }
        Rat {
            repr: Repr::Big(Box::new(BigRat {
                num: IBig::from_sign_mag(num.sign(), nm),
                den: dn,
            })),
        }
    }

    /// Builds from an integer.
    #[inline]
    pub fn from_i64(v: i64) -> Self {
        Rat::small(v, 1)
    }

    /// Builds from an integer ratio; panics when `den == 0`.
    pub fn from_ratio(num: i64, den: i64) -> Self {
        assert!(den != 0, "Rat::from_ratio zero denominator");
        let n = if den < 0 { -(num as i128) } else { num as i128 };
        Rat::from_i128_parts(n, den.unsigned_abs() as u128)
    }

    /// Builds from an [`IBig`] integer.
    pub fn from_ibig(v: IBig) -> Self {
        Rat::from_parts(v, UBig::one())
    }

    /// The (signed) numerator.
    ///
    /// Returned by value: inline values materialize it on demand.
    pub fn numer(&self) -> IBig {
        match &self.repr {
            Repr::Small { num, .. } => IBig::from_i64(*num),
            Repr::Big(b) => b.num.clone(),
        }
    }

    /// The (positive) denominator.
    ///
    /// Returned by value: inline values materialize it on demand.
    pub fn denom(&self) -> UBig {
        match &self.repr {
            Repr::Small { den, .. } => UBig::from_u64(*den),
            Repr::Big(b) => b.den.clone(),
        }
    }

    /// The reduced numerator as an `i128`, or `None` when it does not fit.
    /// Never allocates.
    pub fn numer_i128(&self) -> Option<i128> {
        match &self.repr {
            Repr::Small { num, .. } => Some(i128::from(*num)),
            Repr::Big(b) => {
                let mag = b.num.magnitude().to_u128()?;
                if b.num.is_negative() {
                    0i128.checked_sub_unsigned(mag)
                } else {
                    i128::try_from(mag).ok()
                }
            }
        }
    }

    /// The reduced (positive) denominator as a `u128`, or `None` when it
    /// does not fit. Never allocates.
    pub fn denom_u128(&self) -> Option<u128> {
        match &self.repr {
            Repr::Small { den, .. } => Some(u128::from(*den)),
            Repr::Big(b) => b.den.to_u128(),
        }
    }

    /// `true` iff the value is stored in the inline (non-allocating)
    /// representation. Exposed for tests and diagnostics.
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Small { .. })
    }

    /// `true` iff the value is 0.
    #[inline]
    pub fn is_zero(&self) -> bool {
        match &self.repr {
            Repr::Small { num, .. } => *num == 0,
            Repr::Big(b) => b.num.is_zero(),
        }
    }

    /// `true` iff the value is strictly negative.
    #[inline]
    pub fn is_negative(&self) -> bool {
        match &self.repr {
            Repr::Small { num, .. } => *num < 0,
            Repr::Big(b) => b.num.is_negative(),
        }
    }

    /// `true` iff the value is strictly positive.
    #[inline]
    pub fn is_positive(&self) -> bool {
        match &self.repr {
            Repr::Small { num, .. } => *num > 0,
            Repr::Big(b) => b.num.is_positive(),
        }
    }

    /// Sum.
    pub fn add_ref(&self, o: &Rat) -> Rat {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &o.repr)
        {
            // Fast path: both integers.
            if *b == 1 && *d == 1 {
                if let Some(n) = a.checked_add(*c) {
                    return Rat::small(n, 1);
                }
            }
            // a/b + c/d = (a·(d/g) + c·(b/g)) / ((b/g)·d)  with g = gcd(b, d).
            let g = gcd_u64(*b, *d);
            let (b1, d1) = (b / g, d / g);
            let x = *a as i128 * d1 as i128; // |a|·d1 < 2^127: never overflows
            let y = *c as i128 * b1 as i128;
            if let Some(n) = x.checked_add(y) {
                return Rat::from_i128_parts(n, b1 as u128 * *d as u128);
            }
            // Intermediate overflow: fall through to the bignum path.
        }
        let (an, ad) = self.big_parts();
        let (bn, bd) = o.big_parts();
        let n = an
            .mul_ref(&IBig::from(bd.clone()))
            .add_ref(&bn.mul_ref(&IBig::from(ad.clone())));
        Rat::from_parts(n, ad.mul(&bd))
    }

    /// Difference.
    pub fn sub_ref(&self, o: &Rat) -> Rat {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &o.repr)
        {
            if *b == 1 && *d == 1 {
                if let Some(n) = a.checked_sub(*c) {
                    return Rat::small(n, 1);
                }
            }
            let g = gcd_u64(*b, *d);
            let (b1, d1) = (b / g, d / g);
            let x = *a as i128 * d1 as i128;
            let y = *c as i128 * b1 as i128;
            if let Some(n) = x.checked_sub(y) {
                return Rat::from_i128_parts(n, b1 as u128 * *d as u128);
            }
        }
        self.add_ref(&o.neg_ref())
    }

    /// Product.
    pub fn mul_ref(&self, o: &Rat) -> Rat {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &o.repr)
        {
            if *a == 0 || *c == 0 {
                return Rat::zero();
            }
            // Cross-reduce before multiplying; the result is then already
            // in lowest terms and every product fits a wide integer.
            let g1 = gcd_u64(a.unsigned_abs(), *d);
            let g2 = gcd_u64(c.unsigned_abs(), *b);
            let n = (*a as i128 / g1 as i128) * (*c as i128 / g2 as i128);
            let den = (b / g2) as u128 * (d / g1) as u128;
            return Rat::from_i128_reduced(n, den);
        }
        let (an, ad) = self.big_parts();
        let (bn, bd) = o.big_parts();
        Rat::from_parts(an.mul_ref(&bn), ad.mul(&bd))
    }

    /// Quotient; panics when `o` is zero.
    pub fn div_ref(&self, o: &Rat) -> Rat {
        assert!(!o.is_zero(), "Rat::div_ref division by zero");
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &o.repr)
        {
            if *a == 0 {
                return Rat::zero();
            }
            // (a/b) / (c/d) = (a·d) / (b·c), sign carried by c.
            let g1 = gcd_u64(a.unsigned_abs(), c.unsigned_abs());
            let g2 = gcd_u64(*d, *b);
            let mut n = (*a as i128 / g1 as i128) * (d / g2) as i128;
            if *c < 0 {
                n = -n;
            }
            let den = (b / g2) as u128 * (c.unsigned_abs() / g1) as u128;
            return Rat::from_i128_reduced(n, den);
        }
        let (an, ad) = self.big_parts();
        let (bn, bd) = o.big_parts();
        let n = an.mul_ref(&IBig::from(bd));
        let d = IBig::from(ad).mul_ref(&bn);
        Rat::new(n, d)
    }

    /// Negation.
    pub fn neg_ref(&self) -> Rat {
        match &self.repr {
            Repr::Small { num, den } => Rat::from_i128_reduced(-(*num as i128), *den as u128),
            Repr::Big(b) => {
                // Already reduced; only the sign flips, so demotion needs
                // no gcd — just a fit check (relevant at exactly −i64::MIN).
                let num = b.num.neg_ref();
                if let (Some(n), Some(d)) = (num.to_i64(), b.den.to_u64()) {
                    return Rat::small(n, d);
                }
                Rat {
                    repr: Repr::Big(Box::new(BigRat {
                        num,
                        den: b.den.clone(),
                    })),
                }
            }
        }
    }

    /// Multiplicative inverse; panics on zero.
    pub fn recip(&self) -> Rat {
        assert!(!self.is_zero(), "Rat::recip of zero");
        match &self.repr {
            Repr::Small { num, den } => {
                let n = if *num < 0 {
                    -(*den as i128)
                } else {
                    *den as i128
                };
                Rat::from_i128_reduced(n, num.unsigned_abs() as u128)
            }
            Repr::Big(b) => Rat::new(IBig::from(b.den.clone()), b.num.clone()),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rat {
        if self.is_negative() {
            self.neg_ref()
        } else {
            self.clone()
        }
    }

    /// Exponentiation by a (possibly negative) integer power.
    pub fn powi(&self, exp: i32) -> Rat {
        if exp >= 0 {
            let (n, d) = self.big_parts();
            #[expect(
                clippy::cast_sign_loss,
                reason = "guarded: exp >= 0 on the branch, so it fits u32"
            )]
            Rat::from_parts(n.pow(exp as u32), d.pow(exp as u32))
        } else {
            // `unsigned_abs` rather than `-exp`: negating i32::MIN overflows.
            let e = exp.unsigned_abs();
            let (n, d) = self.recip().big_parts();
            Rat::from_parts(n.pow(e), d.pow(e))
        }
    }

    /// Lossy conversion to `f64`, robust to magnitudes far outside the
    /// `f64` range of either numerator or denominator alone.
    pub fn to_f64(&self) -> f64 {
        if let Repr::Small { num, den } = &self.repr {
            // Both operands exactly representable: the single rounding of
            // the division yields the correctly rounded result.
            const EXACT: u64 = 1 << 53;
            if num.unsigned_abs() <= EXACT && *den <= EXACT {
                return *num as f64 / *den as f64;
            }
        }
        if self.is_zero() {
            return 0.0;
        }
        let (num, den) = self.big_parts();
        #[expect(
            clippy::cast_possible_wrap,
            reason = "bit lengths are bounded far below i64::MAX"
        )]
        let nbits = num.magnitude().bit_len() as i64;
        #[expect(
            clippy::cast_possible_wrap,
            reason = "bit lengths are bounded far below i64::MAX"
        )]
        let dbits = den.bit_len() as i64;
        // Scale the numerator so the integer quotient has ~64 significant bits.
        let shift = dbits + 64 - nbits;
        let scaled = if shift >= 0 {
            #[expect(clippy::cast_sign_loss, reason = "guarded: shift >= 0 on the branch")]
            num.magnitude().shl(shift as u64)
        } else {
            #[expect(
                clippy::cast_sign_loss,
                reason = "guarded: shift < 0, so -shift is positive"
            )]
            num.magnitude().shr((-shift) as u64)
        };
        let q = scaled.div_rem(&den).0;
        let mag = mul_pow2(q.to_f64(), -shift);
        if num.is_negative() {
            -mag
        } else {
            mag
        }
    }

    /// Builds the exact rational equal to a finite `f64`.
    ///
    /// Panics on NaN or infinity.
    pub fn from_f64(v: f64) -> Rat {
        assert!(v.is_finite(), "Rat::from_f64 of non-finite value");
        if v == 0.0 {
            return Rat::zero();
        }
        let bits = v.to_bits();
        let sign = if bits >> 63 == 1 {
            Sign::Minus
        } else {
            Sign::Plus
        };
        #[expect(
            clippy::cast_possible_wrap,
            reason = "masked to the 11-bit exponent field"
        )]
        let exp_bits = ((bits >> 52) & 0x7FF) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mantissa, exp) = if exp_bits == 0 {
            (frac, -1074i64) // subnormal
        } else {
            (frac | (1u64 << 52), exp_bits - 1075)
        };
        let m = IBig::from_sign_mag(sign, UBig::from_u64(mantissa));
        if exp >= 0 {
            #[expect(clippy::cast_sign_loss, reason = "guarded: exp >= 0 on the branch")]
            Rat::from_parts(
                IBig::from_sign_mag(m.sign(), m.magnitude().shl(exp as u64)),
                UBig::one(),
            )
        } else {
            #[expect(
                clippy::cast_sign_loss,
                reason = "guarded: exp < 0, so -exp is positive"
            )]
            Rat::from_parts(m, UBig::one().shl((-exp) as u64))
        }
    }

    /// Parses `"a/b"` or `"a"` (decimal integers, optional sign).
    pub fn from_str_ratio(s: &str) -> Result<Rat, crate::ubig::ParseUBigError> {
        match s.split_once('/') {
            Some((n, d)) => Ok(Rat::new(
                IBig::from_decimal_str(n.trim())?,
                IBig::from_decimal_str(d.trim())?,
            )),
            None => Ok(Rat::from_ibig(IBig::from_decimal_str(s.trim())?)),
        }
    }

    /// Floor (greatest integer ≤ self) as an [`IBig`].
    pub fn floor(&self) -> IBig {
        if let Repr::Small { num, den } = &self.repr {
            return IBig::from_i128((*num as i128).div_euclid(*den as i128));
        }
        let (num, den) = self.big_parts();
        let den = IBig::from(den);
        let (q, r) = num.div_rem(&den);
        if num.is_negative() && !r.is_zero() {
            q.sub_ref(&IBig::one())
        } else {
            q
        }
    }

    /// Ceiling (least integer ≥ self) as an [`IBig`].
    pub fn ceil(&self) -> IBig {
        self.neg_ref().floor().neg_ref()
    }
}

/// Multiplies by 2^e in steps that keep every intermediate factor a
/// *normal* f64, so precision is not lost to subnormal intermediates.
#[expect(
    clippy::cast_possible_truncation,
    reason = "loop exit bounds |e| <= STEP = 900"
)]
fn mul_pow2(mut x: f64, mut e: i64) -> f64 {
    const STEP: i64 = 900; // comfortably below the f64 exponent range
    #[expect(clippy::cast_possible_truncation, reason = "STEP is the constant 900")]
    while e > STEP {
        x *= 2f64.powi(STEP as i32);
        e -= STEP;
    }
    #[expect(clippy::cast_possible_truncation, reason = "STEP is the constant 900")]
    while e < -STEP {
        x *= 2f64.powi(-STEP as i32);
        e += STEP;
    }
    x * 2f64.powi(e as i32)
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  ⇔  a·d ? c·b   (b, d > 0)
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &other.repr)
        {
            let lhs = *a as i128 * *d as i128;
            let rhs = *c as i128 * *b as i128;
            return lhs.cmp(&rhs);
        }
        let (an, ad) = self.big_parts();
        let (bn, bd) = other.big_parts();
        let lhs = an.mul_ref(&IBig::from(bd));
        let rhs = bn.mul_ref(&IBig::from(ad));
        lhs.cmp(&rhs)
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Small { num, den } => {
                if *den == 1 {
                    write!(f, "{num}")
                } else {
                    write!(f, "{num}/{den}")
                }
            }
            Repr::Big(b) => {
                if b.den.is_one() {
                    write!(f, "{}", b.num)
                } else {
                    write!(f, "{}/{}", b.num, b.den)
                }
            }
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::zero()
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Self {
        Rat::from_i64(v)
    }
}

impl From<IBig> for Rat {
    fn from(v: IBig) -> Self {
        Rat::from_ibig(v)
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        self.neg_ref()
    }
}

impl Neg for &Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        self.neg_ref()
    }
}

macro_rules! forward_rat_binop {
    ($trait:ident, $method:ident, $inner:ident) => {
        impl $trait for Rat {
            type Output = Rat;
            fn $method(self, rhs: Rat) -> Rat {
                self.$inner(&rhs)
            }
        }
        impl $trait<&Rat> for Rat {
            type Output = Rat;
            fn $method(self, rhs: &Rat) -> Rat {
                self.$inner(rhs)
            }
        }
        impl $trait<Rat> for &Rat {
            type Output = Rat;
            fn $method(self, rhs: Rat) -> Rat {
                self.$inner(&rhs)
            }
        }
        impl $trait for &Rat {
            type Output = Rat;
            fn $method(self, rhs: &Rat) -> Rat {
                self.$inner(rhs)
            }
        }
    };
}

forward_rat_binop!(Add, add, add_ref);
forward_rat_binop!(Sub, sub, sub_ref);
forward_rat_binop!(Mul, mul, mul_ref);
forward_rat_binop!(Div, div, div_ref);

impl AddAssign<&Rat> for Rat {
    fn add_assign(&mut self, rhs: &Rat) {
        *self = self.add_ref(rhs);
    }
}

impl SubAssign<&Rat> for Rat {
    fn sub_assign(&mut self, rhs: &Rat) {
        *self = self.sub_ref(rhs);
    }
}

impl MulAssign<&Rat> for Rat {
    fn mul_assign(&mut self, rhs: &Rat) {
        *self = self.mul_ref(rhs);
    }
}

impl DivAssign<&Rat> for Rat {
    fn div_assign(&mut self, rhs: &Rat) {
        *self = self.div_ref(rhs);
    }
}

// Serialization: `Rat` round-trips losslessly through its `Display` form
// (`"n/d"`) and `Rat::from_str_ratio`, so callers that need serde support
// can wrap it in a newtype with string-based impls. The build environment
// has no registry access, so serde itself is not a dependency here.

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rat {
        Rat::from_ratio(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, 4), r(1, -2));
        assert_eq!(r(0, 5), Rat::zero());
        assert_eq!(r(6, 3), Rat::from_i64(2));
        assert!(r(1, -2).is_negative());
        assert_eq!(r(-3, -6), r(1, 2));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn field_ops() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), Rat::from_i64(2));
        assert_eq!(-r(1, 2), r(-1, 2));
        assert_eq!(r(3, 7).recip(), r(7, 3));
    }

    #[test]
    fn comparisons() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(2, 4) == r(1, 2));
        assert!(r(7, 2) > Rat::from_i64(3));
        assert!(Rat::zero() < r(1, 1_000_000));
    }

    #[test]
    fn powi_and_midpoint() {
        assert_eq!(r(2, 3).powi(2), r(4, 9));
        assert_eq!(r(2, 3).powi(-1), r(3, 2));
        assert_eq!(r(2, 3).powi(0), Rat::one());
    }

    #[test]
    fn powi_extreme_negative_exponent() {
        // -(i32::MIN) overflows i32; powi must not recurse on it.
        assert_eq!(Rat::one().powi(i32::MIN), Rat::one());
        assert_eq!(Rat::from_i64(-1).powi(i32::MIN), Rat::one()); // even exponent
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor(), IBig::from_i64(3));
        assert_eq!(r(7, 2).ceil(), IBig::from_i64(4));
        assert_eq!(r(-7, 2).floor(), IBig::from_i64(-4));
        assert_eq!(r(-7, 2).ceil(), IBig::from_i64(-3));
        assert_eq!(Rat::from_i64(5).floor(), IBig::from_i64(5));
        assert_eq!(Rat::from_i64(5).ceil(), IBig::from_i64(5));
    }

    #[test]
    fn f64_roundtrip_exact() {
        for v in [
            0.0,
            1.0,
            -1.5,
            0.1,
            3.25,
            -1024.0,
            1e-300,
            1e300,
            f64::MIN_POSITIVE,
        ] {
            let rat = Rat::from_f64(v);
            assert_eq!(rat.to_f64(), v, "roundtrip {v}");
        }
    }

    #[test]
    fn from_f64_known_values() {
        assert_eq!(Rat::from_f64(0.5), r(1, 2));
        assert_eq!(Rat::from_f64(0.25), r(1, 4));
        assert_eq!(Rat::from_f64(-3.0), Rat::from_i64(-3));
    }

    #[test]
    fn to_f64_huge_magnitudes() {
        // num and den both overflow f64 individually; the ratio must not.
        let big = IBig::from_decimal_str(&("1".to_owned() + &"0".repeat(400))).unwrap();
        let x = Rat::new(big.mul_ref(&IBig::from_i64(3)), big.clone());
        assert!((x.to_f64() - 3.0).abs() < 1e-12);
        let y = Rat::new(big.clone(), big.mul_ref(&IBig::from_i64(4)));
        assert!((y.to_f64() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn parse_ratio() {
        assert_eq!(Rat::from_str_ratio("3/4").unwrap(), r(3, 4));
        assert_eq!(Rat::from_str_ratio("-3/4").unwrap(), r(-3, 4));
        assert_eq!(Rat::from_str_ratio("5").unwrap(), Rat::from_i64(5));
        assert_eq!(Rat::from_str_ratio(" 1 / 2 ").unwrap(), r(1, 2));
        assert!(Rat::from_str_ratio("x/2").is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(r(1, 2).to_string(), "1/2");
        assert_eq!(Rat::from_i64(-7).to_string(), "-7");
        assert_eq!(Rat::zero().to_string(), "0");
    }

    // ---- inline fast-path specifics ----

    /// Bignum-only reference implementation of `a/b + c/d`.
    fn big_add(a: &Rat, b: &Rat) -> Rat {
        let (an, ad) = a.big_parts();
        let (bn, bd) = b.big_parts();
        let n = an
            .mul_ref(&IBig::from(bd.clone()))
            .add_ref(&bn.mul_ref(&IBig::from(ad.clone())));
        Rat::from_parts(n, ad.mul(&bd))
    }

    #[test]
    fn small_values_stay_inline() {
        assert!(Rat::zero().is_inline());
        assert!(Rat::one().is_inline());
        assert!(r(1, 3).is_inline());
        assert!(Rat::from_i64(i64::MAX).is_inline());
        assert!(Rat::from_i64(i64::MIN).is_inline());
        let sum = r(1, 3).add_ref(&r(1, 7));
        assert!(sum.is_inline());
        assert_eq!(sum, r(10, 21));
    }

    #[test]
    fn overflow_promotes_then_demotes() {
        let big = Rat::from_i64(i64::MAX);
        let two_pow_126 = big.add_ref(&Rat::one()).powi(2); // (2^63)^2
        assert!(!two_pow_126.is_inline());
        // Dividing back down re-enters the inline representation.
        let back = two_pow_126.div_ref(&two_pow_126.div_ref(&Rat::from_i64(4)));
        assert!(back.is_inline());
        assert_eq!(back, Rat::from_i64(4));
    }

    #[test]
    fn i64_min_edge_cases() {
        let min = Rat::from_i64(i64::MIN);
        let negated = min.neg_ref(); // 2^63 does not fit i64 → big
        assert!(!negated.is_inline());
        assert_eq!(negated.neg_ref(), min);
        assert!(negated.neg_ref().is_inline());
        // |i64::MIN| as a denominator fits u64.
        let recip = min.recip();
        assert!(recip.is_inline());
        assert_eq!(recip.mul_ref(&min), Rat::one());
    }

    #[test]
    fn add_near_i64_boundary_matches_big_path() {
        let cases = [
            (i64::MAX, 1, i64::MAX, 1),
            (i64::MAX, 2, i64::MAX, 3),
            (i64::MIN, 1, i64::MIN, 1),
            (i64::MAX, 1, 1, i64::MAX),
            (i64::MIN, 3, i64::MAX, 2),
        ];
        for (a, b, c, d) in cases {
            let x = r(a, b);
            let y = r(c, d);
            assert_eq!(
                x.add_ref(&y),
                big_add(&x, &y),
                "add {a}/{b} + {c}/{d} diverges from bignum path"
            );
        }
    }

    #[test]
    fn mixed_repr_arithmetic() {
        let small = r(3, 4);
        let big = Rat::from_i64(i64::MAX).powi(3); // far outside i64
        assert!(!big.is_inline());
        let s = small.add_ref(&big).sub_ref(&big);
        assert_eq!(s, small);
        assert!(s.is_inline());
        assert_eq!(big.mul_ref(&big.recip()), Rat::one());
        assert!(small < big);
        assert!(big.neg_ref() < small);
    }

    #[test]
    fn hash_eq_canonical_across_reprs() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let via_small = r(1, 2);
        let via_big = Rat::from_parts(IBig::from_i64(1), UBig::from_u64(2));
        assert!(via_big.is_inline(), "from_parts must demote");
        assert_eq!(via_small, via_big);
        let h = |v: &Rat| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&via_small), h(&via_big));
    }

    #[test]
    fn wide_integer_parts_round_trip_when_they_fit() {
        for v in [r(0, 1), r(-3, 8), r(i64::MIN, 1), r(7, i64::MAX)] {
            let (n, d) = (v.numer_i128().unwrap(), v.denom_u128().unwrap());
            assert_eq!(Rat::from_i128_parts(n, d), v);
        }
        // A bignum value inside the i128 range: −2^127 / (2^64 + 1).
        let v = Rat::from_i128_parts(i128::MIN, (1u128 << 64) + 1);
        assert!(!v.is_inline());
        assert_eq!(v.numer_i128(), Some(i128::MIN));
        assert_eq!(v.denom_u128(), Some((1u128 << 64) + 1));
        // Unreduced parts are reduced; values past the i128 range say so.
        assert_eq!(Rat::from_i128_parts(-6, 4), r(-3, 2));
        let huge = Rat::from_parts(
            IBig::from_i128(i128::MAX).add_ref(&IBig::one()),
            UBig::one(),
        );
        assert_eq!(huge.numer_i128(), None);
        let tiny = Rat::from_parts(IBig::one(), UBig::from_u128(u128::MAX).add(&UBig::one()));
        assert_eq!((tiny.numer_i128(), tiny.denom_u128()), (Some(1), None));
    }

    #[test]
    fn to_f64_inline_is_exact_for_dyadic() {
        assert_eq!(r(1, 4).to_f64(), 0.25);
        assert_eq!(r(-3, 8).to_f64(), -0.375);
        // 63-bit operands fall back to the high-precision path.
        let v = r(i64::MAX, 1 << 62);
        assert!((v.to_f64() - 2.0).abs() < 1e-15);
    }
}
