//! Exact rational arithmetic.
//!
//! Provenance coefficients in the paper are products and sums of small
//! decimals (call durations × per-minute prices), e.g. `522 × 0.4 = 208.8`.
//! Reproducing the paper's tables exactly requires exact arithmetic, so the
//! whole pipeline runs on [`Rat`], a reduced `i128` fraction. Conversion to
//! `f64` is provided for the timing-oriented valuation benchmarks where
//! exactness is irrelevant and speed matters.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number `num / den`, always kept in canonical form:
/// `den > 0` and `gcd(|num|, den) == 1` (and `0` is `0/1`).
///
/// Addition is exact for every representable result: when the `i128`
/// intermediates of the reducing slow path would overflow, the sum is
/// computed in 256-bit arithmetic and reduced by its gcd (the `wide`
/// module), so
/// results whose canonical form fits `i128` are always produced.
/// Multiplication cross-reduces before it multiplies, which has the same
/// property. Both panic (instead of silently wrapping) only when the exact
/// *reduced* value itself does not fit; [`Rat::checked_add`] and
/// [`Rat::checked_mul`] report that case as `None`. The workloads in this
/// repository stay far below these limits
/// (denominators are products of price denominators, ≤ 10⁴).
///
/// The layout is `#[repr(C)]` — two `i128`s — so persisted coefficient
/// arrays can be reloaded as zero-copy slices by the persistence layer.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct Rat {
    num: i128,
    den: i128, // invariant: den > 0, gcd(|num|, den) == 1
}

const fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a < 0 {
        -a
    } else {
        a
    }
}

/// True iff every value fits in `i64`, so products of two of them (and
/// sums of two such products) cannot overflow `i128` — the guard for the
/// small-integer fast paths that skip gcd normalization.
#[inline]
fn all_fit_i64(values: [i128; 4]) -> bool {
    values
        .iter()
        .all(|&v| i64::try_from(v).is_ok())
}

/// `a · b`, `None` on overflow. Operands that fit `i64` — all but
/// adversarial ones — cannot overflow and take one widening multiply;
/// `i128::checked_mul` costs three times a plain `i128` product, which the
/// exact sweeps would feel.
#[inline]
fn mul_i128(a: i128, b: i128) -> Option<i128> {
    match (i64::try_from(a), i64::try_from(b)) {
        (Ok(a), Ok(b)) => Some(a as i128 * b as i128),
        _ => a.checked_mul(b),
    }
}

impl Rat {
    /// The rational zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates `num / den` in canonical form.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "Rat denominator must be non-zero");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        if g == 0 {
            return Rat::ZERO;
        }
        Rat {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// Creates an integer rational.
    pub const fn int(n: i64) -> Rat {
        Rat {
            num: n as i128,
            den: 1,
        }
    }

    /// Numerator of the canonical form (sign-carrying).
    pub fn numer(self) -> i128 {
        self.num
    }

    /// Denominator of the canonical form (always positive).
    pub fn denom(self) -> i128 {
        self.den
    }

    /// True iff the value is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// True iff the value is one.
    pub fn is_one(self) -> bool {
        self.num == 1 && self.den == 1
    }

    /// True iff the value is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Absolute value.
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "division by zero Rat");
        Rat::new(self.den, self.num)
    }

    /// Nearest `f64` approximation.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Parses a decimal literal such as `"0.35"`, `"-12"`, `"208.80"` into
    /// the exact rational it denotes. Also accepts `a/b` fraction syntax.
    pub fn parse(s: &str) -> Result<Rat, ParseRatError> {
        s.parse()
    }

    /// Exact checked addition: `None` iff the canonical form of the exact
    /// sum — after full gcd reduction — does not fit `i128`.
    ///
    /// Where [`Add`] panics on such unrepresentable sums,
    /// this reports them; representable sums are identical on both paths.
    pub fn checked_add(self, rhs: Rat) -> Option<Rat> {
        // Small-integer fast paths (the hot shape in batched exact sweeps):
        // both paths produce the canonical form without running gcd on the
        // result, guarded so the skipped-reduction arithmetic stays within
        // i128. Integer + integer is trivially reduced; for coprime
        // denominators `a/b + c/d = (a·d + c·b)/(b·d)` is already in lowest
        // terms (any common factor of the numerator and `b·d` would divide
        // one of the coprime pairs).
        if self.den == 1 && rhs.den == 1 {
            return match self.num.checked_add(rhs.num) {
                Some(num) => Some(Rat { num, den: 1 }),
                None => wide::add_exact(self, rhs),
            };
        }
        if all_fit_i64([self.num, self.den, rhs.num, rhs.den]) {
            let g = gcd(self.den, rhs.den);
            if g == 1 {
                return Some(Rat {
                    num: self.num * rhs.den + rhs.num * self.den,
                    den: self.den * rhs.den,
                });
            }
        }
        // Reduce cross terms first to delay overflow (a/b + c/d with
        // g = gcd(b, d)); if the i128 intermediates still overflow, fall
        // back to the exact 256-bit reducing path instead of wrapping.
        let g = gcd(self.den, rhs.den);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)
            .zip(rhs.num.checked_mul(rhs_scale))
            .and_then(|(a, b)| a.checked_add(b));
        let den = self.den.checked_mul(lhs_scale);
        match (num, den) {
            (Some(n), Some(d)) => Some(Rat::new(n, d)),
            _ => wide::add_exact(self, rhs),
        }
    }

    /// Exact checked multiplication: `None` iff the canonical form of the
    /// exact product does not fit `i128`. Where [`Mul`] panics on such
    /// products, this reports them; representable products are identical
    /// on both paths.
    #[inline]
    pub fn checked_mul(self, rhs: Rat) -> Option<Rat> {
        // Integer × integer stays canonical with no reduction at all.
        if self.den == 1 && rhs.den == 1 {
            return mul_i128(self.num, rhs.num).map(|num| Rat { num, den: 1 });
        }
        // Cross-reducing first leaves the product in lowest terms, so the
        // two checked multiplications fail only when the canonical form
        // itself is out of range (denominators are positive: no gcd is 0).
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        Some(Rat {
            num: mul_i128(self.num / g1, rhs.num / g2)?,
            den: mul_i128(self.den / g2, rhs.den / g1)?,
        })
    }

    /// Raises to a non-negative integer power by repeated squaring.
    pub fn pow(self, mut exp: u32) -> Rat {
        let mut base = self;
        let mut acc = Rat::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            exp >>= 1;
            if exp > 0 {
                base *= base;
            }
        }
        acc
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Self {
        Rat::int(n)
    }
}

impl From<i32> for Rat {
    fn from(n: i32) -> Self {
        Rat::int(n as i64)
    }
}

impl From<u32> for Rat {
    fn from(n: u32) -> Self {
        Rat::int(n as i64)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        match self.checked_add(rhs) {
            Some(sum) => sum,
            None => panic!("Rat overflow: {self:?} + {rhs:?} is not representable in i128"),
        }
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    #[inline]
    fn mul(self, rhs: Rat) -> Rat {
        match self.checked_mul(rhs) {
            Some(product) => product,
            None => mul_overflow(self, rhs),
        }
    }
}

/// Out of line, so the multiplication itself stays small enough to inline
/// into the exact kernels' loops.
#[cold]
#[inline(never)]
fn mul_overflow(a: Rat, b: Rat) -> ! {
    panic!("Rat overflow: {a:?} * {b:?} is not representable in i128")
}

impl Div for Rat {
    type Output = Rat;
    #[allow(clippy::suspicious_arithmetic_impl)] // division *is* multiply-by-reciprocal
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}
impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}
impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}
impl DivAssign for Rat {
    fn div_assign(&mut self, rhs: Rat) {
        *self = *self / rhs;
    }
}

impl Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |a, b| a + b)
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // a/b vs c/d  (b, d > 0)  ⇔  a·d vs c·b; boundary-sized components
        // overflow the i128 cross products, so those compare in 256-bit.
        match (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
            _ => wide::cmp_cross(self.num, other.den, other.num, self.den),
        }
    }
}

/// Overflow-proof 256-bit helpers for the rare additions and comparisons
/// whose i128 cross terms wrap: with both components of both operands near
/// `2^63`, `a·d + c·b` reaches `2·2^126` and exceeds `i128::MAX` even
/// though the *reduced* exact result often fits. Everything here is
/// sign-magnitude over a `(hi, lo)` pair of `u128` limbs; it only runs on
/// the cold path after a `checked_*` failure.
mod wide {
    use super::{gcd, Rat};
    use std::cmp::Ordering;

    /// Unsigned 256-bit integer: `hi · 2^128 + lo`. Field order matters:
    /// the derived `Ord` compares `hi` first.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct U256 {
        hi: u128,
        lo: u128,
    }

    impl U256 {
        const ZERO: U256 = U256 { hi: 0, lo: 0 };

        fn is_zero(self) -> bool {
            self.hi == 0 && self.lo == 0
        }

        /// Full 128×128 → 256 bit widening multiply via 64-bit limbs.
        fn mul_u128(a: u128, b: u128) -> U256 {
            const MASK: u128 = (1 << 64) - 1;
            let (a1, a0) = (a >> 64, a & MASK);
            let (b1, b0) = (b >> 64, b & MASK);
            let ll = a0 * b0;
            let (mid, mid_carry) = (a0 * b1).overflowing_add(a1 * b0);
            let (lo, lo_carry) = ll.overflowing_add(mid << 64);
            let hi = a1 * b1 + (mid >> 64) + ((mid_carry as u128) << 64) + lo_carry as u128;
            U256 { hi, lo }
        }

        /// Addition; the magnitudes this module produces stay below
        /// `2^255`, so the carry out of `hi` cannot occur.
        fn add(self, o: U256) -> U256 {
            let (lo, carry) = self.lo.overflowing_add(o.lo);
            U256 {
                hi: self.hi + o.hi + carry as u128,
                lo,
            }
        }

        /// Subtraction, requiring `self >= o`.
        fn sub(self, o: U256) -> U256 {
            let (lo, borrow) = self.lo.overflowing_sub(o.lo);
            U256 {
                hi: self.hi - o.hi - borrow as u128,
                lo,
            }
        }

        fn trailing_zeros(self) -> u32 {
            if self.lo != 0 {
                self.lo.trailing_zeros()
            } else {
                128 + self.hi.trailing_zeros()
            }
        }

        fn leading_zeros(self) -> u32 {
            if self.hi != 0 {
                self.hi.leading_zeros()
            } else {
                128 + self.lo.leading_zeros()
            }
        }

        /// Right shift by `n < 256` bits.
        fn shr(self, n: u32) -> U256 {
            match n {
                0 => self,
                1..=127 => U256 {
                    hi: self.hi >> n,
                    lo: (self.lo >> n) | (self.hi << (128 - n)),
                },
                128 => U256 { hi: 0, lo: self.hi },
                _ => U256 {
                    hi: 0,
                    lo: self.hi >> (n - 128),
                },
            }
        }

        /// Left shift by `n < 256` bits (used only where no bits shift out).
        fn shl(self, n: u32) -> U256 {
            match n {
                0 => self,
                1..=127 => U256 {
                    hi: (self.hi << n) | (self.lo >> (128 - n)),
                    lo: self.lo << n,
                },
                128 => U256 { hi: self.lo, lo: 0 },
                _ => U256 {
                    hi: self.lo << (n - 128),
                    lo: 0,
                },
            }
        }

        /// Shift-subtract division; only reached with non-zero divisors.
        fn div(self, d: U256) -> U256 {
            debug_assert!(!d.is_zero());
            if self < d {
                return U256::ZERO;
            }
            let shift = d.leading_zeros() - self.leading_zeros();
            let mut divisor = d.shl(shift);
            let mut rem = self;
            let mut quot = U256::ZERO;
            for _ in 0..=shift {
                quot = quot.shl(1);
                if rem >= divisor {
                    rem = rem.sub(divisor);
                    quot.lo |= 1;
                }
                divisor = divisor.shr(1);
            }
            quot
        }

        fn to_u128(self) -> Option<u128> {
            if self.hi == 0 {
                Some(self.lo)
            } else {
                None
            }
        }
    }

    /// Binary gcd of two non-zero 256-bit values.
    fn gcd_u256(mut a: U256, mut b: U256) -> U256 {
        debug_assert!(!a.is_zero() && !b.is_zero());
        let shift = a.trailing_zeros().min(b.trailing_zeros());
        a = a.shr(a.trailing_zeros());
        loop {
            b = b.shr(b.trailing_zeros());
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(a);
            if b.is_zero() {
                return a.shl(shift);
            }
        }
    }

    /// Signed 256-bit value in sign-magnitude form (`neg` ignored at zero).
    #[derive(Clone, Copy)]
    struct I256 {
        neg: bool,
        mag: U256,
    }

    impl I256 {
        fn mul_i128(a: i128, b: i128) -> I256 {
            I256 {
                neg: (a < 0) != (b < 0),
                mag: U256::mul_u128(a.unsigned_abs(), b.unsigned_abs()),
            }
        }

        fn add(self, o: I256) -> I256 {
            if self.neg == o.neg {
                I256 {
                    neg: self.neg,
                    mag: self.mag.add(o.mag),
                }
            } else if self.mag >= o.mag {
                I256 {
                    neg: self.neg,
                    mag: self.mag.sub(o.mag),
                }
            } else {
                I256 {
                    neg: o.neg,
                    mag: o.mag.sub(self.mag),
                }
            }
        }
    }

    fn mag_to_i128(mag: U256, neg: bool) -> Option<i128> {
        let mag = mag.to_u128()?;
        if neg {
            if mag == i128::MIN.unsigned_abs() {
                Some(i128::MIN)
            } else {
                i128::try_from(mag).ok().map(|v| -v)
            }
        } else {
            i128::try_from(mag).ok()
        }
    }

    /// Exact `a + b` with 256-bit cross terms and full gcd reduction;
    /// `None` iff the reduced result does not fit `i128`.
    pub(super) fn add_exact(a: Rat, b: Rat) -> Option<Rat> {
        let g = gcd(a.den, b.den);
        let lhs_scale = b.den / g;
        let rhs_scale = a.den / g;
        let num = I256::mul_i128(a.num, lhs_scale).add(I256::mul_i128(b.num, rhs_scale));
        if num.mag.is_zero() {
            return Some(Rat::ZERO);
        }
        let den = U256::mul_u128(a.den.unsigned_abs(), lhs_scale.unsigned_abs());
        let reduce = gcd_u256(num.mag, den);
        let num_mag = num.mag.div(reduce);
        let den_mag = den.div(reduce);
        Some(Rat {
            num: mag_to_i128(num_mag, num.neg)?,
            den: mag_to_i128(den_mag, false)?,
        })
    }

    /// Reference for [`Rat::checked_mul`]: multiply numerators and
    /// denominators unreduced in 256 bits, reduce afterwards — no
    /// cross-reduction, so nothing shared with the implementation.
    #[cfg(test)]
    pub(super) fn mul_exact(a: Rat, b: Rat) -> Option<Rat> {
        let num = I256::mul_i128(a.num, b.num);
        if num.mag.is_zero() {
            return Some(Rat::ZERO);
        }
        let den = U256::mul_u128(a.den.unsigned_abs(), b.den.unsigned_abs());
        let reduce = gcd_u256(num.mag, den);
        Some(Rat {
            num: mag_to_i128(num.mag.div(reduce), num.neg)?,
            den: mag_to_i128(den.div(reduce), false)?,
        })
    }

    /// `sign(a·d) cmp sign(c·b)` with 256-bit products (`d, b > 0`).
    pub(super) fn cmp_cross(a: i128, d: i128, c: i128, b: i128) -> Ordering {
        let lhs = I256::mul_i128(a, d);
        let rhs = I256::mul_i128(c, b);
        match (lhs.mag.is_zero() || !lhs.neg, rhs.mag.is_zero() || !rhs.neg) {
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (true, true) => lhs.mag.cmp(&rhs.mag),
            (false, false) => rhs.mag.cmp(&lhs.mag),
        }
    }
}

/// Error returned when parsing a decimal or fraction literal fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatError {
    input: String,
}

impl fmt::Display for ParseRatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {:?}", self.input)
    }
}

impl std::error::Error for ParseRatError {}

impl FromStr for Rat {
    type Err = ParseRatError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseRatError {
            input: s.to_owned(),
        };
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let n: i128 = n.trim().parse().map_err(|_| err())?;
            let d: i128 = d.trim().parse().map_err(|_| err())?;
            if d == 0 {
                return Err(err());
            }
            return Ok(Rat::new(n, d));
        }
        let (sign, body) = match s.strip_prefix('-') {
            Some(rest) => (-1i128, rest),
            None => (1i128, s.strip_prefix('+').unwrap_or(s)),
        };
        if body.is_empty() {
            return Err(err());
        }
        let (int_part, frac_part) = match body.split_once('.') {
            Some((i, f)) => (i, f),
            None => (body, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(err());
        }
        let digits_ok = |d: &str| d.chars().all(|c| c.is_ascii_digit());
        if !digits_ok(int_part) || !digits_ok(frac_part) {
            return Err(err());
        }
        let int_val: i128 = if int_part.is_empty() {
            0
        } else {
            int_part.parse().map_err(|_| err())?
        };
        if frac_part.len() > 30 {
            return Err(err());
        }
        let mut den: i128 = 1;
        let mut frac_val: i128 = 0;
        for c in frac_part.chars() {
            den = den.checked_mul(10).ok_or_else(err)?;
            frac_val = frac_val
                .checked_mul(10)
                .and_then(|v| v.checked_add((c as u8 - b'0') as i128))
                .ok_or_else(err)?;
        }
        let num = mul_i128(int_val, den)
            .and_then(|v| v.checked_add(frac_val))
            .ok_or_else(err)?;
        Ok(Rat::new(sign * num, den))
    }
}

impl fmt::Display for Rat {
    /// Renders as a terminating decimal when the denominator is of the form
    /// `2^a·5^b` (always the case for price/duration data), otherwise as
    /// `num/den`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            return write!(f, "{}", self.num);
        }
        // Check for a terminating decimal expansion.
        let mut d = self.den;
        let mut pow2 = 0u32;
        let mut pow5 = 0u32;
        while d % 2 == 0 {
            d /= 2;
            pow2 += 1;
        }
        while d % 5 == 0 {
            d /= 5;
            pow5 += 1;
        }
        if d != 1 || pow2.max(pow5) > 30 {
            return write!(f, "{}/{}", self.num, self.den);
        }
        let digits = pow2.max(pow5);
        // Scale numerator so the denominator becomes 10^digits.
        let scale = 2i128.pow(digits - pow2) * 5i128.pow(digits - pow5);
        let Some(scaled) = self.num.checked_mul(scale) else {
            return write!(f, "{}/{}", self.num, self.den);
        };
        let sign = if scaled < 0 { "-" } else { "" };
        let scaled = scaled.unsigned_abs();
        let ten = 10u128.pow(digits);
        let int_part = scaled / ten;
        let frac = scaled % ten;
        let frac_str = format!("{:0width$}", frac, width = digits as usize);
        let frac_str = frac_str.trim_end_matches('0');
        if frac_str.is_empty() {
            write!(f, "{}{}", sign, int_part)
        } else {
            write!(f, "{}{}.{}", sign, int_part, frac_str)
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rat({})", self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, 4), Rat::new(1, -2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
        assert_eq!(Rat::new(0, -7).denom(), 1);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a + b, Rat::new(5, 6));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 6));
        assert_eq!(a / b, Rat::new(3, 2));
        assert_eq!(-a, Rat::new(-1, 2));
        assert_eq!(a.pow(3), Rat::new(1, 8));
        assert_eq!(a.pow(0), Rat::ONE);
    }

    #[test]
    fn paper_coefficients_exact() {
        // Example 2 of the paper: 522 × 0.4 = 208.8, 364 × 0.35 = 127.4, …
        let dur = Rat::int(522);
        let ppm = Rat::parse("0.4").unwrap();
        assert_eq!(dur * ppm, Rat::parse("208.8").unwrap());
        assert_eq!(
            Rat::int(364) * Rat::parse("0.35").unwrap(),
            Rat::parse("127.4").unwrap()
        );
        assert_eq!(
            Rat::int(671) * Rat::parse("0.15").unwrap(),
            Rat::parse("100.65").unwrap()
        );
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0", "1", "-1", "0.5", "-0.25", "208.8", "100.65", "42"] {
            let r = Rat::parse(s).unwrap();
            assert_eq!(r.to_string(), s.trim_start_matches('+'));
        }
        assert_eq!(Rat::parse("3/4").unwrap(), Rat::new(3, 4));
        assert_eq!(Rat::parse("-6/8").unwrap(), Rat::new(-3, 4));
        assert_eq!(Rat::new(1, 3).to_string(), "1/3");
        // A decimal whose scaled numerator would overflow falls back to
        // the fraction, and the most negative numerator keeps its sign.
        assert_eq!(
            Rat::new(i128::MAX, 4).to_string(),
            format!("{}/4", i128::MAX)
        );
        assert_eq!(Rat::int(i64::MIN).to_string(), i64::MIN.to_string());
        assert_eq!(
            Rat::new(i128::MIN, 1).to_string(),
            i128::MIN.to_string()
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", ".", "1.2.3", "a", "1/0", "--2", "1e5"] {
            assert!(Rat::parse(s).is_err(), "should reject {s:?}");
        }
        // 38 integer digits fit i128, but not once scaled by the fraction's
        // power of ten (release builds used to wrap this to garbage)
        assert!(Rat::parse("99999999999999999999999999999999999999").is_ok());
        assert!(Rat::parse("99999999999999999999999999999999999999.5").is_err());
    }

    #[test]
    fn ordering() {
        let mut v = vec![
            Rat::new(1, 2),
            Rat::new(-1, 2),
            Rat::ZERO,
            Rat::int(3),
            Rat::new(1, 3),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Rat::new(-1, 2),
                Rat::ZERO,
                Rat::new(1, 3),
                Rat::new(1, 2),
                Rat::int(3)
            ]
        );
    }

    #[test]
    fn sum_iterator() {
        let total: Rat = (1..=4).map(|i| Rat::new(1, i)).sum();
        assert_eq!(total, Rat::new(25, 12));
    }

    #[test]
    fn to_f64() {
        assert_eq!(Rat::new(1, 2).to_f64(), 0.5);
        assert_eq!(Rat::parse("208.8").unwrap().to_f64(), 208.8);
    }

    /// The always-normalizing reference implementations the fast paths
    /// must match: cross-reduce, combine, then re-canonicalize via
    /// `Rat::new` (the pre-fast-path code).
    fn add_slow(a: Rat, b: Rat) -> Rat {
        let g = gcd(a.den, b.den);
        let lhs_scale = b.den / g;
        let rhs_scale = a.den / g;
        Rat::new(a.num * lhs_scale + b.num * rhs_scale, a.den * lhs_scale)
    }

    fn mul_slow(a: Rat, b: Rat) -> Rat {
        if a.num == 0 || b.num == 0 {
            return Rat::ZERO;
        }
        Rat::new(a.num * b.num, a.den * b.den)
    }

    fn canonical(r: Rat) -> bool {
        if r.num == 0 {
            return r.den == 1;
        }
        r.den > 0 && gcd(r.num, r.den) == 1
    }

    fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }

    /// Independent exact reference for addition of operands small enough
    /// (components near `2^63`, as every strategy below generates) that the
    /// gcd-reduced cross products fit `u128`: plain u128 sign-magnitude
    /// arithmetic then suffices — no shared code with the impl's 256-bit
    /// path. Panics if an operand exceeds the precondition (never, for the
    /// generators); `None` means the exact reduced sum is unrepresentable
    /// in `i128`.
    fn add_ref_small_components(a: Rat, b: Rat) -> Option<Rat> {
        let g = gcd(a.den, b.den);
        let lhs_scale = (b.den / g) as u128;
        let rhs_scale = (a.den / g) as u128;
        let pre = "reference precondition: cross products fit u128";
        let m1 = a.num.unsigned_abs().checked_mul(lhs_scale).expect(pre);
        let m2 = b.num.unsigned_abs().checked_mul(rhs_scale).expect(pre);
        let (neg, mag) = match (a.num < 0, b.num < 0) {
            (n1, n2) if n1 == n2 => (n1, m1.checked_add(m2).expect(pre)),
            (n1, _) if m1 >= m2 => (n1, m1 - m2),
            (_, n2) => (n2, m2 - m1),
        };
        if mag == 0 {
            return Some(Rat::ZERO);
        }
        let den_mag = (a.den as u128).checked_mul(lhs_scale).expect(pre);
        let reduce = gcd_u128(mag, den_mag);
        let num = i128::try_from(mag / reduce).ok()?;
        let den = i128::try_from(den_mag / reduce).ok()?;
        Some(Rat {
            num: if neg { -num } else { num },
            den,
        })
    }

    mod fast_path_props {
        use super::*;
        use proptest::prelude::*;

        fn rat_strategy() -> impl Strategy<Value = Rat> {
            // Mix of integers (the gcd-free hot shape), decimal-like
            // denominators (2^a·5^b, the telephony coefficients), and
            // arbitrary fractions — all within the i64 fast-path guard
            // and beyond it.
            prop_oneof![
                3 => (-1_000_000i64..1_000_000).prop_map(Rat::int),
                3 => ((-10_000_000i64..10_000_000), (0u32..5, 0u32..5)).prop_map(
                    |(n, (p2, p5))| Rat::new(n as i128, 2i128.pow(p2) * 5i128.pow(p5))
                ),
                2 => ((-100_000i64..100_000), (1i64..100_000)).prop_map(
                    |(n, d)| Rat::new(n as i128, d as i128)
                ),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn add_fast_path_matches_slow_path(
                a in rat_strategy(),
                b in rat_strategy(),
            ) {
                let fast = a + b;
                let slow = add_slow(a, b);
                prop_assert_eq!(fast, slow);
                prop_assert_eq!(fast.num, slow.num, "canonical numerator");
                prop_assert_eq!(fast.den, slow.den, "canonical denominator");
                prop_assert!(canonical(fast), "gcd-skipped result must stay reduced");
            }

            #[test]
            fn mul_fast_path_matches_slow_path(
                a in rat_strategy(),
                b in rat_strategy(),
            ) {
                let fast = a * b;
                let slow = mul_slow(a, b);
                prop_assert_eq!(fast.num, slow.num);
                prop_assert_eq!(fast.den, slow.den);
                prop_assert!(canonical(fast));
            }

            #[test]
            fn guard_boundary_fast_and_slow_paths_agree(
                a in boundary_rat(),
                b in prop_oneof![boundary_rat(), rat_strategy()],
            ) {
                // Addition / subtraction against the independent exact
                // reference. Representable sums must come out exact and
                // canonical through whichever path (fast, checked-i128,
                // 256-bit wide) the operands select; unrepresentable sums
                // must be *detected* (checked_add → None), never wrapped.
                for (x, y) in [(a, b), (a, -b)] {
                    match add_ref_small_components(x, y) {
                        Some(want) => {
                            let got = x + y;
                            prop_assert_eq!(got, want);
                            prop_assert_eq!(got.num, want.num, "canonical numerator");
                            prop_assert_eq!(got.den, want.den, "canonical denominator");
                            prop_assert!(canonical(got));
                            prop_assert_eq!(x.checked_add(y), Some(want));
                        }
                        None => prop_assert_eq!(x.checked_add(y), None),
                    }
                }
                // Comparisons share the widening cross products.
                if let Some(diff) = add_ref_small_components(a, -b) {
                    prop_assert_eq!(a.cmp(&b), diff.num.cmp(&0));
                }
                let prod = a * b;
                let slow = mul_slow(a, b);
                prop_assert_eq!(prod.num, slow.num);
                prop_assert_eq!(prod.den, slow.den);
                prop_assert!(canonical(prod));
            }
        }

        /// Components of 2^60 … 2^126: about half of the products leave
        /// `i128`, the rest land close under its edge.
        fn wide_component() -> impl Strategy<Value = i128> {
            (60u32..127, -4i64..5, 0u8..2).prop_map(|(k, d, neg)| {
                let v = (1i128 << k) + d as i128;
                if neg == 1 {
                    -v
                } else {
                    v
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn checked_mul_matches_the_256_bit_reference(
                a in (wide_component(), prop_oneof![Just(1i128), 1i128..9, wide_component()]),
                b in (wide_component(), prop_oneof![Just(1i128), 1i128..9, wide_component()]),
            ) {
                let a = Rat::new(a.0, a.1.abs());
                let b = Rat::new(b.0, b.1.abs());
                let want = wide::mul_exact(a, b);
                prop_assert_eq!(a.checked_mul(b), want);
                if let Some(p) = want {
                    prop_assert!(canonical(p));
                    prop_assert_eq!(a * b, p);
                }
            }
        }

        /// Components hugging the `±i64` guard from **both** sides: the
        /// largest magnitudes the gcd-skipping fast path accepts and the
        /// smallest it must route to the normalizing slow path. Any
        /// off-by-one in [`all_fit_i64`] — accepting `i64::MAX + 1`, or
        /// mishandling `i64::MIN`'s asymmetric magnitude — shows up here
        /// as a non-canonical or unequal result.
        fn guard_adjacent() -> impl Strategy<Value = i128> {
            let anchors = prop_oneof![
                Just(i64::MAX as i128),
                Just(i64::MIN as i128),
                Just(-(i64::MAX as i128)),
            ];
            (anchors, -4i64..5).prop_map(|(a, d)| a + d as i128)
        }

        /// Boundary-sized components in either or **both** positions.
        /// With both components near `2^63` the cross terms of addition
        /// reach `2·2^126` and overflow `i128` on the checked slow path;
        /// those pairs route through the 256-bit reducing path, which
        /// either produces the exact canonical sum or reports it
        /// unrepresentable — so they are generated, not excluded.
        fn boundary_rat() -> impl Strategy<Value = Rat> {
            prop_oneof![
                (guard_adjacent(), 1i128..9).prop_map(|(n, d)| Rat::new(n, d)),
                (-8i128..9, guard_adjacent().prop_map(|v| v.abs().max(2)))
                    .prop_map(|(n, d)| Rat::new(n, d)),
                (guard_adjacent(), guard_adjacent().prop_map(|v| v.abs().max(2)))
                    .prop_map(|(n, d)| Rat::new(n, d)),
            ]
        }
    }

    /// Both components of both operands near `2^63`: the i128 cross terms
    /// of the slow path overflow, but the exact reduced sum fits — the
    /// 256-bit wide path must produce it rather than wrapping or panicking.
    #[test]
    fn both_components_huge_addition_takes_wide_path() {
        let p = (1i128 << 63) + 13; // odd
        let q = (1i128 << 63) + 15; // odd, coprime with p (both odd, differ by 2)
        let a = Rat::new((1i128 << 63) + 3, 2 * p);
        let b = Rat::new((1i128 << 63) + 9, 2 * q);
        // Cross terms ≈ 2·2^126 overflow i128; the shared factor 2 in the
        // denominators guarantees the reduced sum fits.
        let sum = a + b;
        let want = add_ref_small_components(a, b).expect("sum is representable");
        assert_eq!(sum, want);
        assert!(canonical(sum));
        // Round-trip back out of the huge-denominator sum (cross terms
        // ≈ 2^190 — deep into the wide path again).
        assert_eq!(sum - b, a);
        assert_eq!(sum - a, b);
        // Ordering across the widening comparison path.
        assert!(a < sum);
        assert!(b < sum);
        assert_eq!(a.cmp(&b), (a - b).numer().cmp(&0));
    }

    /// When even the gcd-reduced exact sum cannot fit `i128`, the checked
    /// API reports `None` — the old behavior was a silent wrap in release
    /// builds.
    #[test]
    fn unrepresentable_sum_detected_not_wrapped() {
        let a = Rat::new((1i128 << 63) + 3, (1i128 << 63) + 9);
        let b = Rat::new((1i128 << 63) + 5, (1i128 << 63) + 29);
        assert_eq!(a.checked_add(b), add_ref_small_components(a, b));
        assert_eq!(a.checked_add(b), None);
        // The same magnitudes with opposite signs cancel to a representable
        // (tiny) difference, served exactly.
        let diff = a - b;
        assert!(canonical(diff));
        assert_eq!(diff + b, a);
    }

    /// Products at the edge of `i128`: representable ones come out exact
    /// and canonical, unrepresentable ones are reported (release builds
    /// used to wrap them: `i128::MAX · i128::MAX` read 1).
    #[test]
    fn checked_mul_boundaries_match_the_256_bit_reference() {
        let max = Rat::new(i128::MAX, 1);
        let cases = [
            (max, max),
            (max, Rat::int(-1)),
            (max, Rat::int(2)),
            (Rat::new(1 << 64, 1), Rat::new(1 << 62, 1)),
            (Rat::new(1 << 64, 1), Rat::new(1 << 63, 1)),
            // −2^127 is i128::MIN: the one product of this magnitude that fits
            (Rat::new(-(1 << 64), 1), Rat::new(1 << 63, 1)),
            (Rat::new(i128::MAX, 3), Rat::new(3, i128::MAX)),
            (Rat::new(i128::MAX, 3), Rat::new(6, 5)),
            (Rat::new(1 << 100, 3), Rat::new(9, 1 << 90)),
            (Rat::new(1, 1 << 64), Rat::new(1, 1 << 64)),
            (Rat::new(1, 1 << 64), Rat::new(1 << 64, 3)),
            (Rat::ZERO, max),
        ];
        let mut unrepresentable = 0;
        for (a, b) in cases {
            let want = wide::mul_exact(a, b);
            assert_eq!(a.checked_mul(b), want, "{a:?} * {b:?}");
            assert_eq!(b.checked_mul(a), want, "{b:?} * {a:?}");
            match want {
                Some(p) => {
                    assert!(canonical(p) || p.num == i128::MIN, "{p:?}");
                    assert_eq!(a * b, p);
                }
                None => unrepresentable += 1,
            }
        }
        assert_eq!(unrepresentable, 5);
        assert_eq!(max.checked_mul(max), None);
        assert_eq!(Rat::new(i128::MAX, 3) * Rat::new(3, i128::MAX), Rat::ONE);
    }

    #[test]
    #[should_panic(expected = "Rat overflow: Rat(170141183460469231731687303715884105727) * ")]
    fn unrepresentable_product_panics_with_the_overflow_prefix() {
        let max = Rat::new(i128::MAX, 1);
        let _ = max * max;
    }

    /// Components beyond the i64 guard must fall through to the reducing
    /// slow path and still produce canonical results.
    #[test]
    fn oversized_components_take_slow_path() {
        let huge = Rat::new(1i128 << 70, 3); // numerator exceeds i64
        let small = Rat::new(1, 6);
        let sum = huge + small;
        assert_eq!(sum, Rat::new((1i128 << 71) + 1, 6));
        assert!(canonical(sum));
        let prod = huge * small;
        assert_eq!(prod, Rat::new(1i128 << 70, 18));
        // and the integer fast path handles i128-scale integers unchanged
        let big_int = Rat::int(i64::MAX) + Rat::int(i64::MAX);
        assert_eq!(big_int.num, i64::MAX as i128 * 2);
        assert_eq!(big_int.den, 1);
    }
}
