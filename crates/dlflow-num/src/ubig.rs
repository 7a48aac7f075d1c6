//! Unsigned arbitrary-precision integers.
//!
//! [`UBig`] stores magnitude as little-endian `u64` limbs with no trailing
//! zero limbs (the canonical form; zero is the empty limb vector). All
//! arithmetic is exact. Multiplication switches from schoolbook to
//! Karatsuba above [`KARATSUBA_THRESHOLD`] limbs; division is Knuth's
//! Algorithm D (TAOCP vol. 2, 4.3.1).

// u128↔u64 limb splitting and carry casts are the algorithm here, not
// lossy conversions.
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

use std::cmp::Ordering;
use std::fmt;

/// Limb count above which multiplication uses Karatsuba splitting.
pub const KARATSUBA_THRESHOLD: usize = 32;

const BITS: u32 = 64;

/// An unsigned arbitrary-precision integer.
///
/// Invariant: `limbs` has no trailing zeros; `limbs.is_empty()` ⇔ value 0.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct UBig {
    limbs: Vec<u64>,
}

impl UBig {
    /// The value 0.
    #[inline]
    pub fn zero() -> Self {
        UBig { limbs: Vec::new() }
    }

    /// The value 1.
    #[inline]
    pub fn one() -> Self {
        UBig { limbs: vec![1] }
    }

    /// Builds from a `u64`.
    #[inline]
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            UBig { limbs: vec![v] }
        }
    }

    /// Builds from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        if hi == 0 {
            Self::from_u64(lo)
        } else {
            UBig {
                limbs: vec![lo, hi],
            }
        }
    }

    /// Builds from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        UBig { limbs }
    }

    /// Read-only view of the little-endian limbs.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// `true` iff the value is 0.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` iff the value is 1.
    #[inline]
    pub(crate) fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Number of significant bits (0 for the value 0).
    pub(crate) fn bit_len(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() as u64 - 1) * BITS as u64 + (BITS - top.leading_zeros()) as u64
            }
        }
    }

    /// Number of trailing zero bits; `None` for the value 0.
    pub(crate) fn trailing_zeros(&self) -> Option<u64> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i as u64 * BITS as u64 + l.trailing_zeros() as u64);
            }
        }
        None
    }

    /// Converts to `u64` if it fits.
    pub(crate) fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if it fits.
    pub(crate) fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    /// Lossy conversion to `f64` (round-to-nearest on the top 53 bits).
    pub fn to_f64(&self) -> f64 {
        match self.limbs.len() {
            0 => 0.0,
            1 => self.limbs[0] as f64,
            // dlflint:allow(float-into-exact, "exact-to-f64 conversion: the result leaves the exact domain and never returns to it")
            2 => self.limbs[0] as f64 + self.limbs[1] as f64 * 2f64.powi(64),
            n => {
                // Use the top 128 bits and scale by the remaining bit count.
                let hi = self.limbs[n - 1] as u128;
                let mid = self.limbs[n - 2] as u128;
                let top = (hi << 64) | mid;
                // dlflint:allow(float-into-exact, "exact-to-f64 conversion: the result leaves the exact domain and never returns to it")
                top as f64 * 2f64.powi(((n - 2) * 64) as i32)
            }
        }
    }

    /// Sum of two values.
    pub fn add(&self, other: &UBig) -> UBig {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let s = short.get(i).copied().unwrap_or(0);
            let (v1, c1) = long[i].overflowing_add(s);
            let (v2, c2) = v1.overflowing_add(carry);
            out.push(v2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        UBig::from_limbs(out)
    }

    /// Difference `self − other`; `None` when `self < other`.
    pub fn checked_sub(&self, other: &UBig) -> Option<UBig> {
        if self.cmp(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let s = other.limbs.get(i).copied().unwrap_or(0);
            let (v1, b1) = self.limbs[i].overflowing_sub(s);
            let (v2, b2) = v1.overflowing_sub(borrow);
            out.push(v2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(UBig::from_limbs(out))
    }

    /// Difference `self − other`; panics when `self < other`.
    pub fn sub(&self, other: &UBig) -> UBig {
        self.checked_sub(other).expect("UBig::sub underflow")
    }

    /// Product of two values.
    pub fn mul(&self, other: &UBig) -> UBig {
        if self.is_zero() || other.is_zero() {
            return UBig::zero();
        }
        if self.limbs.len() >= KARATSUBA_THRESHOLD && other.limbs.len() >= KARATSUBA_THRESHOLD {
            mul_karatsuba(&self.limbs, &other.limbs)
        } else {
            mul_schoolbook(&self.limbs, &other.limbs)
        }
    }

    /// Product with a single `u64`.
    pub(crate) fn mul_u64(&self, m: u64) -> UBig {
        if m == 0 || self.is_zero() {
            return UBig::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let t = l as u128 * m as u128 + carry;
            out.push(t as u64);
            carry = t >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        UBig::from_limbs(out)
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: u64) -> UBig {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = (bits / BITS as u64) as usize;
        let bit_shift = (bits % BITS as u64) as u32;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (BITS - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        UBig::from_limbs(out)
    }

    /// Right shift by `bits` (towards zero).
    pub(crate) fn shr(&self, bits: u64) -> UBig {
        let limb_shift = (bits / BITS as u64) as usize;
        if limb_shift >= self.limbs.len() {
            return UBig::zero();
        }
        let bit_shift = (bits % BITS as u64) as u32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi.checked_shl(BITS - bit_shift).unwrap_or(0)));
            }
        }
        UBig::from_limbs(out)
    }

    /// Quotient and remainder; panics when `divisor` is zero.
    pub fn div_rem(&self, divisor: &UBig) -> (UBig, UBig) {
        assert!(!divisor.is_zero(), "UBig::div_rem division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (UBig::zero(), self.clone()),
            Ordering::Equal => return (UBig::one(), UBig::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, UBig::from_u64(r));
        }
        div_rem_knuth(self, divisor)
    }

    /// Quotient and remainder by a single `u64`; panics when `d == 0`.
    pub(crate) fn div_rem_u64(&self, d: u64) -> (UBig, u64) {
        assert!(d != 0, "UBig::div_rem_u64 division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (UBig::from_limbs(out), rem as u64)
    }

    /// Greatest common divisor (binary GCD). `gcd(0, x) = x`.
    pub fn gcd(&self, other: &UBig) -> UBig {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let za = a.trailing_zeros().unwrap();
        let zb = b.trailing_zeros().unwrap();
        let shift = za.min(zb);
        a = a.shr(za);
        b = b.shr(zb);
        // Both odd now.
        loop {
            match a.cmp(&b) {
                Ordering::Equal => break,
                Ordering::Greater => {
                    a = a.sub(&b);
                    a = a.shr(a.trailing_zeros().unwrap());
                }
                Ordering::Less => {
                    b = b.sub(&a);
                    b = b.shr(b.trailing_zeros().unwrap());
                }
            }
        }
        a.shl(shift)
    }

    /// Integer exponentiation by squaring.
    pub fn pow(&self, mut exp: u32) -> UBig {
        let mut base = self.clone();
        let mut acc = UBig::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul(&base);
            }
        }
        acc
    }

    /// Parses a decimal string (ASCII digits only, optional leading zeros).
    pub fn from_decimal_str(s: &str) -> Result<UBig, ParseUBigError> {
        if s.is_empty() {
            return Err(ParseUBigError::Empty);
        }
        let mut acc = UBig::zero();
        // Consume 19-digit chunks: 10^19 fits in u64.
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let end = (i + 19).min(bytes.len());
            let chunk = &s[i..end];
            let v: u64 = chunk.parse().map_err(|_| ParseUBigError::InvalidDigit)?;
            let scale = 10u64.pow((end - i) as u32);
            acc = acc.mul_u64(scale).add(&UBig::from_u64(v));
            i = end;
        }
        Ok(acc)
    }

    /// Decimal string rendering.
    pub fn to_decimal_string(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        const CHUNK: u64 = 10_000_000_000_000_000_000; // 10^19
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(CHUNK);
            chunks.push(r);
            cur = q;
        }
        let mut s = chunks.last().unwrap().to_string();
        for c in chunks.iter().rev().skip(1) {
            s.push_str(&format!("{c:019}"));
        }
        s
    }
}

/// Error parsing a [`UBig`] from text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseUBigError {
    /// The input string was empty.
    Empty,
    /// A non-digit character was found.
    InvalidDigit,
}

impl fmt::Display for ParseUBigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseUBigError::Empty => write!(f, "empty string"),
            ParseUBigError::InvalidDigit => write!(f, "invalid digit"),
        }
    }
}

impl std::error::Error for ParseUBigError {}

fn mul_schoolbook(a: &[u64], b: &[u64]) -> UBig {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let t = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    UBig::from_limbs(out)
}

fn mul_karatsuba(a: &[u64], b: &[u64]) -> UBig {
    let n = a.len().min(b.len());
    if n < KARATSUBA_THRESHOLD {
        return mul_schoolbook(a, b);
    }
    let half = a.len().max(b.len()).div_ceil(2);
    let (a0, a1) = split_at_limb(a, half);
    let (b0, b1) = split_at_limb(b, half);
    let a0 = UBig::from_limbs(a0.to_vec());
    let a1 = UBig::from_limbs(a1.to_vec());
    let b0 = UBig::from_limbs(b0.to_vec());
    let b1 = UBig::from_limbs(b1.to_vec());

    let z0 = a0.mul(&b0);
    let z2 = a1.mul(&b1);
    let s1 = a0.add(&a1);
    let s2 = b0.add(&b1);
    let z1 = s1.mul(&s2).sub(&z0).sub(&z2);

    let shift = (half * 64) as u64;
    z2.shl(shift * 2).add(&z1.shl(shift)).add(&z0)
}

fn split_at_limb(x: &[u64], at: usize) -> (&[u64], &[u64]) {
    if at >= x.len() {
        (x, &[])
    } else {
        x.split_at(at)
    }
}

/// Knuth Algorithm D long division. Requires `u > v`, `v.limbs.len() >= 2`.
fn div_rem_knuth(u: &UBig, v: &UBig) -> (UBig, UBig) {
    let n = v.limbs.len();
    let m = u.limbs.len() - n;
    // D1: normalize so the divisor's top limb has its high bit set.
    let shift = v.limbs[n - 1].leading_zeros() as u64;
    let vn = v.shl(shift);
    let un_big = u.shl(shift);
    let mut un: Vec<u64> = un_big.limbs.clone();
    un.resize(u.limbs.len() + 1, 0); // one extra high limb
    let vn = &vn.limbs;
    debug_assert_eq!(vn.len(), n);

    let mut q = vec![0u64; m + 1];
    let b = 1u128 << 64;

    // D2..D7: main loop.
    for j in (0..=m).rev() {
        // D3: estimate qhat.
        let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
        let mut qhat = num / vn[n - 1] as u128;
        let mut rhat = num % vn[n - 1] as u128;
        loop {
            if qhat >= b || qhat * vn[n - 2] as u128 > ((rhat << 64) | un[j + n - 2] as u128) {
                qhat -= 1;
                rhat += vn[n - 1] as u128;
                if rhat < b {
                    continue;
                }
            }
            break;
        }
        // D4: multiply and subtract.
        let mut borrow: i128 = 0;
        let mut carry: u128 = 0;
        for i in 0..n {
            let p = qhat * vn[i] as u128 + carry;
            carry = p >> 64;
            let sub = (un[j + i] as i128) - (p as u64 as i128) + borrow;
            un[j + i] = sub as u64;
            borrow = sub >> 64;
        }
        let sub = (un[j + n] as i128) - (carry as i128) + borrow;
        un[j + n] = sub as u64;
        borrow = sub >> 64;

        q[j] = qhat as u64;
        // D5/D6: add back when the estimate was one too large.
        if borrow < 0 {
            q[j] -= 1;
            let mut carry = 0u128;
            for i in 0..n {
                let t = un[j + i] as u128 + vn[i] as u128 + carry;
                un[j + i] = t as u64;
                carry = t >> 64;
            }
            un[j + n] = un[j + n].wrapping_add(carry as u64);
        }
    }

    // D8: denormalize the remainder.
    let rem = UBig::from_limbs(un[..n].to_vec()).shr(shift);
    (UBig::from_limbs(q), rem)
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> Ordering {
        let lc = self.limbs.len().cmp(&other.limbs.len());
        if lc != Ordering::Equal {
            return lc;
        }
        for i in (0..self.limbs.len()).rev() {
            let c = self.limbs[i].cmp(&other.limbs[i]);
            if c != Ordering::Equal {
                return c;
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "", &self.to_decimal_string())
    }
}

impl fmt::Debug for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<u64> for UBig {
    fn from(v: u64) -> Self {
        UBig::from_u64(v)
    }
}

impl From<u128> for UBig {
    fn from(v: u128) -> Self {
        UBig::from_u128(v)
    }
}

impl std::str::FromStr for UBig {
    type Err = ParseUBigError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        UBig::from_decimal_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ub(v: u128) -> UBig {
        UBig::from_u128(v)
    }

    #[test]
    fn zero_is_canonical() {
        assert!(UBig::zero().is_zero());
        assert_eq!(UBig::from_limbs(vec![0, 0, 0]), UBig::zero());
        assert_eq!(UBig::zero().bit_len(), 0);
    }

    #[test]
    fn add_small() {
        assert_eq!(ub(2).add(&ub(3)), ub(5));
        assert_eq!(ub(0).add(&ub(7)), ub(7));
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = ub(u64::MAX as u128);
        assert_eq!(a.add(&ub(1)), ub(1u128 << 64));
        let b = UBig::from_limbs(vec![u64::MAX, u64::MAX]);
        assert_eq!(b.add(&ub(1)), UBig::from_limbs(vec![0, 0, 1]));
    }

    #[test]
    fn sub_basics() {
        assert_eq!(ub(5).sub(&ub(3)), ub(2));
        assert_eq!(ub(5).sub(&ub(5)), UBig::zero());
        assert_eq!(ub(5).checked_sub(&ub(6)), None);
        let a = ub(1u128 << 64);
        assert_eq!(a.sub(&ub(1)), ub(u64::MAX as u128));
    }

    #[test]
    fn mul_basics() {
        assert_eq!(ub(6).mul(&ub(7)), ub(42));
        assert_eq!(ub(0).mul(&ub(7)), UBig::zero());
        let a = ub(u64::MAX as u128);
        assert_eq!(a.mul(&a), ub((u64::MAX as u128) * (u64::MAX as u128)));
    }

    #[test]
    fn mul_u64_matches_mul() {
        let a = UBig::from_decimal_str("123456789012345678901234567890").unwrap();
        assert_eq!(a.mul_u64(98765), a.mul(&ub(98765)));
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Deterministic pseudo-random limbs, big enough to hit Karatsuba.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let a: Vec<u64> = (0..80).map(|_| next()).collect();
        let b: Vec<u64> = (0..70).map(|_| next()).collect();
        let ka = mul_karatsuba(&a, &b);
        let sb = mul_schoolbook(&a, &b);
        assert_eq!(ka, sb);
    }

    #[test]
    fn shifts_roundtrip() {
        let a = UBig::from_decimal_str("987654321987654321987654321").unwrap();
        for bits in [0u64, 1, 17, 63, 64, 65, 128, 200] {
            assert_eq!(a.shl(bits).shr(bits), a, "bits={bits}");
        }
        assert_eq!(ub(5).shr(3), UBig::zero());
        assert_eq!(ub(5).shr(1), ub(2));
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = ub(17).div_rem(&ub(5));
        assert_eq!((q, r), (ub(3), ub(2)));
        let (q, r) = ub(4).div_rem(&ub(5));
        assert_eq!((q, r), (UBig::zero(), ub(4)));
        let (q, r) = ub(5).div_rem(&ub(5));
        assert_eq!((q, r), (UBig::one(), UBig::zero()));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = ub(1).div_rem(&UBig::zero());
    }

    #[test]
    fn div_rem_multi_limb() {
        let a = UBig::from_decimal_str("340282366920938463463374607431768211456").unwrap(); // 2^128
        let b = UBig::from_decimal_str("18446744073709551629").unwrap(); // prime > 2^64
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn div_rem_reconstructs() {
        // A battery of division identities with pseudo-random values.
        let mut state = 42u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for nl in 1..6usize {
            for dl in 1..4usize {
                let a = UBig::from_limbs((0..nl).map(|_| next()).collect());
                let mut d = UBig::from_limbs((0..dl).map(|_| next()).collect());
                if d.is_zero() {
                    d = UBig::one();
                }
                let (q, r) = a.div_rem(&d);
                assert_eq!(q.mul(&d).add(&r), a);
                assert!(r < d);
            }
        }
    }

    #[test]
    fn knuth_add_back_case() {
        // Crafted to trigger the rare D6 add-back branch: u = b^2/2 - 1 style values.
        let u = UBig::from_limbs(vec![0, u64::MAX - 1, u64::MAX / 2]);
        let v = UBig::from_limbs(vec![u64::MAX, u64::MAX / 2 + 1]);
        let (q, r) = u.div_rem(&v);
        assert_eq!(q.mul(&v).add(&r), u);
        assert!(r < v);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(ub(12).gcd(&ub(18)), ub(6));
        assert_eq!(ub(0).gcd(&ub(5)), ub(5));
        assert_eq!(ub(5).gcd(&UBig::zero()), ub(5));
        assert_eq!(ub(1).gcd(&ub(999)), ub(1));
        let a = ub(2 * 3 * 5 * 7 * 11 * 13);
        let b = ub(3 * 7 * 13 * 17);
        assert_eq!(a.gcd(&b), ub(3 * 7 * 13));
    }

    #[test]
    fn gcd_large() {
        let a = UBig::from_decimal_str("123456789012345678901234567890").unwrap();
        let g = ub(30);
        let b = UBig::from_decimal_str("987654321098765432109876543210").unwrap();
        let got = a.gcd(&b);
        // gcd must divide both.
        assert_eq!(a.div_rem(&got).1, UBig::zero());
        assert_eq!(b.div_rem(&got).1, UBig::zero());
        assert_eq!(got.div_rem(&g).1, UBig::zero());
    }

    #[test]
    fn pow_works() {
        assert_eq!(ub(2).pow(10), ub(1024));
        assert_eq!(ub(10).pow(0), UBig::one());
        assert_eq!(ub(3).pow(5), ub(243));
        assert_eq!(
            ub(10).pow(30),
            UBig::from_decimal_str("1000000000000000000000000000000").unwrap()
        );
    }

    #[test]
    fn decimal_roundtrip() {
        for s in [
            "0",
            "1",
            "9",
            "10",
            "18446744073709551616",
            "123456789012345678901234567890123456789",
        ] {
            let v = UBig::from_decimal_str(s).unwrap();
            assert_eq!(v.to_decimal_string(), s);
        }
        assert!(UBig::from_decimal_str("").is_err());
        assert!(UBig::from_decimal_str("12a").is_err());
        assert!(UBig::from_decimal_str("-1").is_err());
    }

    #[test]
    fn ordering() {
        assert!(ub(3) < ub(4));
        assert!(UBig::from_limbs(vec![0, 1]) > ub(u64::MAX as u128));
        assert_eq!(ub(7).cmp(&ub(7)), Ordering::Equal);
    }

    #[test]
    fn bit_len_and_trailing() {
        assert_eq!(ub(1).bit_len(), 1);
        assert_eq!(ub(255).bit_len(), 8);
        assert_eq!(ub(256).bit_len(), 9);
        assert_eq!(ub(1u128 << 64).bit_len(), 65);
        assert_eq!(ub(12).trailing_zeros(), Some(2));
        assert_eq!(UBig::zero().trailing_zeros(), None);
        assert_eq!(ub(1u128 << 64).trailing_zeros(), Some(64));
    }

    #[test]
    fn to_f64_reasonable() {
        assert_eq!(ub(0).to_f64(), 0.0);
        assert_eq!(ub(12345).to_f64(), 12345.0);
        let big = UBig::from_decimal_str("100000000000000000000").unwrap();
        let rel = (big.to_f64() - 1e20).abs() / 1e20;
        assert!(rel < 1e-12);
    }

    #[test]
    fn ubig_predicates_and_bit_ops() {
        let one = UBig::from_u64(1);
        assert!(one.is_one());
        let x = UBig::from_u64(40); // 0b101000
        assert!(!x.is_one());
        assert_eq!(x.bit_len(), 6);
        assert_eq!(x.trailing_zeros(), Some(3));
        assert_eq!(x.shr(3).to_u64(), Some(5));
    }

    #[test]
    fn ubig_wide_round_trips_and_single_limb_arith() {
        let wide = u128::from(u64::MAX) + 7;
        let big = UBig::from_u128(wide);
        assert_eq!(big.to_u128(), Some(wide));
        assert_eq!(big.to_u64(), None);

        let prod = UBig::from_u64(123).mul_u64(1_000_000_007);
        let (q, r) = prod.div_rem_u64(1_000_000_007);
        assert_eq!(q.to_u64(), Some(123));
        assert_eq!(r, 0);
    }
}
