#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! IEEE 754 binary16 ("half precision") arithmetic, built from scratch.
//!
//! The paper's GPGPU-Sim extension used the `half` C++ header-only library
//! to add 16-bit floating point support to the simulator (§V-A). This crate
//! is the equivalent substrate for the Rust reproduction: a bit-exact
//! binary16 type with correctly rounded arithmetic and conversions.
//!
//! # Correct rounding via binary64
//!
//! binary16 has precision p = 11. binary64 has p = 53 ≥ 2·11 + 2, so by the
//! classic double-rounding theorem (Figueroa, *When is double rounding
//! innocuous?*), computing `+ - * / sqrt` in binary64 and rounding the
//! result once to binary16 yields exactly the correctly rounded binary16
//! result. All arithmetic here goes through binary64 intermediates; the
//! final rounding is performed by [`F16::from_f64`], which implements
//! round-to-nearest-even directly on the bit pattern (including subnormals,
//! overflow to infinity, and NaN propagation).
//!
//! # Example
//!
//! ```
//! use tcsim_f16::F16;
//!
//! let a = F16::from_f32(1.5);
//! let b = F16::from_f32(2.25);
//! assert_eq!((a * b).to_f32(), 3.375);
//! assert_eq!(F16::ONE + F16::ONE, F16::from_f32(2.0));
//! ```

pub mod bf16;
mod f16x2;
pub mod tf32;

pub use bf16::Bf16;
pub use f16x2::F16x2;
pub use tf32::Tf32;

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::num::ParseFloatError;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// Number of significand bits stored in a binary16 (excluding hidden bit).
pub const MANTISSA_BITS: u32 = 10;
/// Number of exponent bits in a binary16.
pub const EXPONENT_BITS: u32 = 5;
/// Exponent bias of binary16.
pub const EXPONENT_BIAS: i32 = 15;

const SIGN_MASK: u16 = 0x8000;
const EXP_MASK: u16 = 0x7C00;
const MAN_MASK: u16 = 0x03FF;

/// An IEEE 754 binary16 floating-point number.
///
/// Stored as its raw bit pattern; all operations are performed with a single
/// correctly rounded step (see crate docs). `PartialEq`/`PartialOrd` follow
/// IEEE semantics: `NaN != NaN`, `-0.0 == +0.0`.
#[derive(Clone, Copy, Default)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value, -65504.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, 2^-24.
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon (2^-10).
    pub const EPSILON: F16 = F16(0x1400);

    /// Creates an `F16` from its raw IEEE 754 binary16 bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Returns the raw IEEE 754 binary16 bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts a binary32 value to binary16 with round-to-nearest-even.
    ///
    /// Overflow produces an infinity of the same sign; values below half the
    /// smallest subnormal round to (signed) zero; NaN payload top bits are
    /// preserved, and signaling NaNs are quieted.
    pub fn from_f32(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN.
            return if man == 0 {
                F16(sign | EXP_MASK)
            } else {
                // Keep the top 10 payload bits; force quiet bit so the
                // result is never the infinity pattern.
                F16(sign | EXP_MASK | 0x0200 | (man >> 13) as u16)
            };
        }

        let unbiased = exp - 127;
        let half_exp = unbiased + EXPONENT_BIAS;

        if half_exp >= 0x1F {
            // Overflow region. The midpoint between MAX and the next binade
            // (65520) must round to infinity (ties-to-even: the candidate
            // above MAX is the infinity binade); anything below it rounds to
            // MAX and is handled by the normal path (half_exp == 0x1E with
            // mantissa carry). half_exp >= 0x1F means |value| >= 65536.
            return F16(sign | EXP_MASK);
        }

        if half_exp >= 1 {
            // Normal range: round 23-bit mantissa to 10 bits (RNE).
            let mut out = ((half_exp as u32) << 10) | (man >> 13);
            let round_bits = man & 0x1FFF;
            if round_bits > 0x1000 || (round_bits == 0x1000 && (out & 1) != 0) {
                out += 1; // May carry into the exponent (next binade or inf);
                          // that is the correctly rounded result.
            }
            return F16(sign | (out & 0x7FFF) as u16);
        }

        // Subnormal or underflow-to-zero range.
        if exp == 0 || half_exp < -10 {
            // f32 subnormals (< 2^-126) and anything below half the smallest
            // f16 subnormal round to signed zero. half_exp == -10
            // corresponds to magnitudes in [2^-25, 2^-24) which can round up.
            return F16(sign);
        }
        // Shift the hidden-bit-extended 24-bit significand right so the
        // result counts units of 2^-24 (f16 subnormal ulps), keeping the
        // remainder for rounding. value = full · 2^(unbiased − 23), so
        // units = full · 2^(unbiased − 23 + 24) = full >> (−1 − unbiased).
        let full = man | 0x0080_0000;
        let shift = (-1 - unbiased) as u32;
        debug_assert!((14..=24).contains(&shift));
        let sub = full >> shift;
        let rem = full & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut out = sub;
        if rem > halfway || (rem == halfway && (out & 1) != 0) {
            out += 1;
        }
        F16(sign | out as u16)
    }

    /// Converts a binary64 value to binary16 with round-to-nearest-even.
    ///
    /// This is the single-rounding step that makes f64-intermediate
    /// arithmetic correctly rounded (see crate docs).
    pub fn from_f64(value: f64) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 48) & 0x8000) as u16;
        let exp = ((bits >> 52) & 0x7FF) as i32;
        let man = bits & 0x000F_FFFF_FFFF_FFFF;

        if exp == 0x7FF {
            return if man == 0 {
                F16(sign | EXP_MASK)
            } else {
                F16(sign | EXP_MASK | 0x0200 | (man >> 42) as u16)
            };
        }

        let unbiased = exp - 1023;
        let half_exp = unbiased + EXPONENT_BIAS;

        if half_exp >= 0x1F {
            return F16(sign | EXP_MASK);
        }

        if half_exp >= 1 {
            let mut out = ((half_exp as u32) << 10) | (man >> 42) as u32;
            let round_bits = man & 0x3FF_FFFF_FFFF; // low 42 bits
            let halfway = 1u64 << 41;
            if round_bits > halfway || (round_bits == halfway && (out & 1) != 0) {
                out += 1;
            }
            return F16(sign | (out & 0x7FFF) as u16);
        }

        if exp == 0 || half_exp < -10 {
            return F16(sign);
        }
        // value = full · 2^(unbiased − 52); units of 2^-24:
        // units = full · 2^(unbiased − 52 + 24) = full >> (28 − unbiased).
        let full = man | 0x0010_0000_0000_0000;
        let shift = (28 - unbiased) as u32;
        debug_assert!((43..=53).contains(&shift));
        let sub = (full >> shift) as u32;
        let rem = full & ((1u64 << shift) - 1);
        let halfway = 1u64 << (shift - 1);
        let mut out = sub;
        if rem > halfway || (rem == halfway && (out & 1) != 0) {
            out += 1;
        }
        F16(sign | out as u16)
    }

    /// Converts to binary32. This conversion is exact.
    pub fn to_f32(self) -> f32 {
        let sign = (self.0 & SIGN_MASK) as u32;
        let exp = ((self.0 & EXP_MASK) >> 10) as u32;
        let man = (self.0 & MAN_MASK) as u32;

        let out = if exp == 0x1F {
            // Inf/NaN.
            (sign << 16) | (0xFFu32 << 23) | (man << 13)
        } else if exp == 0 {
            if man == 0 {
                sign << 16
            } else {
                // Subnormal: normalize into an f32 normal.
                let lz = man.leading_zeros() - 22; // zeros above the 10-bit field
                let shifted = (man << (lz + 1)) & MAN_MASK as u32;
                let e = (127 - 15 - (lz as i32)) as u32; // biased exp of 2^(-15-lz)
                (sign << 16) | (e << 23) | (shifted << 13)
            }
        } else {
            (sign << 16) | ((exp + 127 - 15) << 23) | (man << 13)
        };
        f32::from_bits(out)
    }

    /// [`F16::to_f32`] without a branch, for loops over many halves (a
    /// tensor-core operand tile), which it lets the compiler vectorise.
    /// The same bits as `to_f32` for every pattern.
    ///
    /// `to_f32` itself keeps its case analysis: the warp executor's
    /// half-precision lane loops are built on it, and vectorising those
    /// lets the compiler commute their adds and multiplies, which changes
    /// the payload that survives when both operands are NaN.
    #[inline]
    pub fn to_f32_branchless(self) -> f32 {
        let sign = ((self.0 & SIGN_MASK) as u32) << 16;
        // Exponent and mantissa moved to their binary32 positions: read as
        // binary32 this is the half's magnitude scaled by 2^(15-127), a
        // binary32 subnormal when the half is one.
        let abs = ((self.0 & !SIGN_MASK) as u32) << 13;
        // Zero, subnormals and normals: multiplying by 2^112 re-biases the
        // exponent and normalises a subnormal. A power-of-two scaling of
        // an 11-bit significand that stays in range is exact.
        let finite = (f32::from_bits(abs) * f32::from_bits(0x7780_0000)).to_bits();
        // Inf/NaN (half exponent all ones): all-ones binary32 exponent,
        // payload kept.
        let magnitude = if abs >= 0x0F80_0000 {
            abs | 0x7F80_0000
        } else {
            finite
        };
        f32::from_bits(sign | magnitude)
    }

    /// Converts to binary64. This conversion is exact.
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// Returns `true` if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) != 0
    }

    /// Returns `true` if this value is positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & !SIGN_MASK) == EXP_MASK
    }

    /// Returns `true` if this value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// Returns `true` if this value is subnormal (nonzero with zero exponent).
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & EXP_MASK) == 0 && (self.0 & MAN_MASK) != 0
    }

    /// Returns `true` if this value is ±0.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & !SIGN_MASK) == 0
    }

    /// Returns `true` if the sign bit is set (including -0.0 and NaNs with a
    /// negative sign).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & SIGN_MASK) != 0
    }

    /// Absolute value (clears the sign bit; preserves NaN payload).
    #[inline]
    pub fn abs(self) -> F16 {
        F16(self.0 & !SIGN_MASK)
    }

    /// Correctly rounded square root.
    pub fn sqrt(self) -> F16 {
        F16::from_f64(self.to_f64().sqrt())
    }

    /// Fused multiply-add `self * a + b` with a **single** rounding.
    ///
    /// The exact product of two binary16 values fits in 22 significand bits
    /// and the subsequent binary64 addition of a binary16 addend is exact
    /// (aligned sum always fits 53 bits), so the only rounding is the final
    /// conversion back to binary16.
    pub fn mul_add(self, a: F16, b: F16) -> F16 {
        F16::from_f64(self.to_f64() * a.to_f64() + b.to_f64())
    }

    /// IEEE 754 `minNum`: returns the smaller value, preferring a number
    /// over a NaN.
    pub fn min(self, other: F16) -> F16 {
        if self.is_nan() {
            return other;
        }
        if other.is_nan() {
            return self;
        }
        if self <= other {
            self
        } else {
            other
        }
    }

    /// IEEE 754 `maxNum`: returns the larger value, preferring a number
    /// over a NaN.
    pub fn max(self, other: F16) -> F16 {
        if self.is_nan() {
            return other;
        }
        if other.is_nan() {
            return self;
        }
        if self >= other {
            self
        } else {
            other
        }
    }

    /// IEEE 754-2008 totalOrder key: orders −NaN < −Inf < … < +Inf < +NaN.
    ///
    /// Useful for deterministic sorting in tests and workload generators.
    pub fn total_order_key(self) -> i32 {
        let bits = self.0 as i32;
        if bits & (SIGN_MASK as i32) != 0 {
            // Negative: larger magnitude sorts first.
            -(bits & 0x7FFF) - 1
        } else {
            bits
        }
    }
}

impl PartialEq for F16 {
    fn eq(&self, other: &F16) -> bool {
        if self.is_nan() || other.is_nan() {
            return false;
        }
        if self.is_zero() && other.is_zero() {
            return true;
        }
        self.0 == other.0
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        if self.is_nan() || other.is_nan() {
            return None;
        }
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl Neg for F16 {
    type Output = F16;
    fn neg(self) -> F16 {
        F16(self.0 ^ SIGN_MASK)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait for F16 {
            type Output = F16;
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f64(self.to_f64() $op rhs.to_f64())
            }
        }
        impl $assign_trait for F16 {
            fn $assign_method(&mut self, rhs: F16) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_binop!(Add, add, AddAssign, add_assign, +);
impl_binop!(Sub, sub, SubAssign, sub_assign, -);
impl_binop!(Mul, mul, MulAssign, mul_assign, *);
impl_binop!(Div, div, DivAssign, div_assign, /);

impl Sum for F16 {
    fn sum<I: Iterator<Item = F16>>(iter: I) -> F16 {
        iter.fold(F16::ZERO, |acc, x| acc + x)
    }
}

impl From<F16> for f32 {
    fn from(value: F16) -> f32 {
        value.to_f32()
    }
}

impl From<F16> for f64 {
    fn from(value: F16) -> f64 {
        value.to_f64()
    }
}

impl From<f32> for F16 {
    fn from(value: f32) -> F16 {
        F16::from_f32(value)
    }
}

impl From<i8> for F16 {
    fn from(value: i8) -> F16 {
        F16::from_f32(value as f32)
    }
}

impl From<u8> for F16 {
    fn from(value: u8) -> F16 {
        F16::from_f32(value as f32)
    }
}

impl FromStr for F16 {
    type Err = ParseFloatError;
    fn from_str(s: &str) -> Result<F16, ParseFloatError> {
        Ok(F16::from_f64(s.parse::<f64>()?))
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl fmt::LowerHex for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(v: f32) -> F16 {
        F16::from_f32(v)
    }

    #[test]
    fn constants_have_expected_bit_patterns() {
        assert_eq!(F16::ZERO.to_bits(), 0x0000);
        assert_eq!(F16::ONE.to_bits(), 0x3C00);
        assert_eq!(F16::INFINITY.to_bits(), 0x7C00);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
    }

    #[test]
    fn branchless_to_f32_agrees_with_to_f32_on_every_bit_pattern() {
        for bits in 0u16..=u16::MAX {
            let h = F16::from_bits(bits);
            assert_eq!(
                h.to_f32_branchless().to_bits(),
                h.to_f32().to_bits(),
                "bits {bits:#06x}"
            );
        }
    }

    #[test]
    fn f32_roundtrip_is_exact_for_all_bit_patterns() {
        for bits in 0u16..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(
                    F16::from_f32(h.to_f32()).to_bits(),
                    bits,
                    "bits {bits:#06x}"
                );
            }
        }
    }

    #[test]
    fn f64_roundtrip_is_exact_for_all_bit_patterns() {
        for bits in 0u16..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f64(h.to_f64()).is_nan());
            } else {
                assert_eq!(
                    F16::from_f64(h.to_f64()).to_bits(),
                    bits,
                    "bits {bits:#06x}"
                );
            }
        }
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1 and 1+2^-10: ties to even (1).
        assert_eq!(F16::from_f32(1.0 + 2f32.powi(-11)).to_bits(), 0x3C00);
        // 1 + 3·2^-11 is halfway between 1+2^-10 and 1+2^-9: ties to even (1+2^-9).
        assert_eq!(F16::from_f32(1.0 + 3.0 * 2f32.powi(-11)).to_bits(), 0x3C02);
        // Just above halfway rounds up.
        assert_eq!(
            F16::from_f32(1.0 + 2f32.powi(-11) + 2f32.powi(-20)).to_bits(),
            0x3C01
        );
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        // 65520 is the midpoint between MAX (65504) and 65536: ties-to-even → inf.
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY);
        assert_eq!(F16::from_f32(1e6), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e6), F16::NEG_INFINITY);
        assert_eq!(F16::from_f32(65519.0).to_bits(), 0x7BFF); // below the tie → MAX
    }

    #[test]
    fn underflow_rounds_to_zero_or_subnormal() {
        assert_eq!(F16::from_f32(2f32.powi(-25)).to_bits(), 0x0000); // tie with 0: even
        assert_eq!(F16::from_f32(2f32.powi(-25) * 1.0001).to_bits(), 0x0001);
        assert_eq!(F16::from_f32(2f32.powi(-24)).to_bits(), 0x0001);
        assert_eq!(F16::from_f32(-2f32.powi(-24)).to_bits(), 0x8001);
        assert_eq!(F16::from_f32(2f32.powi(-30)).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-2f32.powi(-30)).to_bits(), 0x8000);
        // f32 subnormals collapse to signed zero.
        assert_eq!(F16::from_f32(f32::from_bits(1)).to_bits(), 0x0000);
    }

    #[test]
    fn subnormal_f16_to_f32_is_exact() {
        for man in 1u16..=MAN_MASK {
            let h = F16::from_bits(man);
            let expect = man as f32 * 2f32.powi(-24);
            assert_eq!(h.to_f32(), expect, "man {man:#06x}");
        }
    }

    #[test]
    fn nan_propagates_and_is_quieted() {
        let snan32 = f32::from_bits(0x7F80_0001);
        let h = F16::from_f32(snan32);
        assert!(h.is_nan());
        assert!(h.to_bits() & 0x0200 != 0, "quiet bit set");
        assert!((F16::NAN + F16::ONE).is_nan());
        assert!((F16::NAN * F16::ZERO).is_nan());
        assert!(F16::NAN != F16::NAN);
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(f(1.5) + f(2.5), f(4.0));
        assert_eq!(f(1.5) - f(2.5), f(-1.0));
        assert_eq!(f(1.5) * f(2.0), f(3.0));
        assert_eq!(f(3.0) / f(2.0), f(1.5));
        assert_eq!(-f(1.5), f(-1.5));
        assert_eq!(f(4.0).sqrt(), f(2.0));
    }

    #[test]
    fn addition_rounds_correctly_at_precision_edge() {
        // ulp at 2048 is 2: 2048 + 1 ties to even 2048.
        assert_eq!(f(2048.0) + f(1.0), f(2048.0));
        // 2051 ties between 2050 (odd mantissa) and 2052 (even): → 2052.
        assert_eq!(f(2048.0) + f(3.0), f(2052.0));
        assert_eq!(f(2048.0) + f(4.0), f(2052.0));
        assert_eq!(F16::ONE + F16::from_f32(2f32.powi(-11)), F16::ONE);
    }

    #[test]
    fn mul_add_matches_exact_single_rounding() {
        let a = f(1.0 + 2f32.powi(-10));
        let b = f(1.0 + 2f32.powi(-10));
        let c = f(2f32.powi(-11));
        let fused = a.mul_add(b, c);
        let exact = a.to_f64() * b.to_f64() + c.to_f64();
        assert_eq!(fused, F16::from_f64(exact));
        let unfused = a * b + c;
        let ulp = 2f64.powi(-10);
        assert!((unfused.to_f64() - exact).abs() <= ulp);
    }

    #[test]
    fn zero_signs_compare_equal_but_differ_in_bits() {
        assert_eq!(F16::ZERO, F16::NEG_ZERO);
        assert_ne!(F16::ZERO.to_bits(), F16::NEG_ZERO.to_bits());
        assert!(F16::NEG_ZERO.is_sign_negative());
    }

    #[test]
    fn comparisons_follow_ieee() {
        assert!(f(1.0) < f(2.0));
        assert!(f(-1.0) < f(1.0));
        assert!(F16::NEG_INFINITY < F16::MIN);
        assert!(F16::MAX < F16::INFINITY);
        assert_eq!(F16::NAN.partial_cmp(&F16::ONE), None);
        assert_eq!(f(1.0).min(f(2.0)), f(1.0));
        assert_eq!(f(1.0).max(f(2.0)), f(2.0));
        assert_eq!(F16::NAN.min(f(2.0)), f(2.0));
        assert_eq!(F16::NAN.max(f(2.0)), f(2.0));
    }

    #[test]
    fn total_order_key_sorts_all_values() {
        let vals = [
            F16::NEG_INFINITY,
            f(-2.0),
            F16::NEG_ZERO,
            F16::ZERO,
            F16::MIN_POSITIVE_SUBNORMAL,
            f(1.0),
            F16::MAX,
            F16::INFINITY,
        ];
        let mut sorted = vals;
        sorted.sort_by_key(|v| v.total_order_key());
        assert_eq!(
            vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            sorted.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn classification_predicates() {
        assert!(F16::INFINITY.is_infinite());
        assert!(!F16::INFINITY.is_finite());
        assert!(!F16::INFINITY.is_nan());
        assert!(F16::MIN_POSITIVE_SUBNORMAL.is_subnormal());
        assert!(!F16::MIN_POSITIVE.is_subnormal());
        assert!(F16::ZERO.is_zero());
        assert!(F16::NEG_ZERO.is_zero());
        assert!(F16::MAX.is_finite());
    }

    #[test]
    fn display_and_parse_roundtrip() {
        let x = f(1.5);
        assert_eq!(x.to_string(), "1.5");
        assert_eq!("1.5".parse::<F16>().unwrap(), x);
        assert_eq!(format!("{x:?}"), "F16(1.5)");
        assert_eq!(format!("{:04x}", F16::ONE), "3c00");
    }

    #[test]
    fn infinity_arithmetic() {
        assert_eq!(F16::INFINITY + F16::ONE, F16::INFINITY);
        assert!((F16::INFINITY - F16::INFINITY).is_nan());
        assert!((F16::ZERO * F16::INFINITY).is_nan());
        assert_eq!(F16::ONE / F16::ZERO, F16::INFINITY);
        assert_eq!(F16::NEG_ONE / F16::ZERO, F16::NEG_INFINITY);
    }

    #[test]
    fn sum_saturates_at_precision_limit() {
        // 2048 + 1 rounds back to 2048, so a running f16 sum of ones sticks.
        let s: F16 = std::iter::repeat_n(F16::ONE, 4096).sum();
        assert_eq!(s, f(2048.0));
    }
}
