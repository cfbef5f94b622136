//! The Q8.8 signed fixed-point format of the aggregation core.
//!
//! §III-B of the paper: batch normalisation "involves real-valued
//! multiplications, performed by fixed-point multipliers", with "accumulated
//! spikes and batchnorm coefficients ... represented in higher precision
//! (16 bit)". We model those coefficients as signed 16-bit values with 8
//! fractional bits (range −128.0 … +127.996, resolution 1/256), the natural
//! choice for coefficients `G = γ·q_w/√(σ²+ε)` and `H = μ·G/q_w − β` whose
//! magnitudes for trained networks sit well inside ±128.

use crate::sat::{clamp16, Saturation};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Number of fractional bits in [`Q8_8`].
pub const FRAC_BITS: u32 = 8;

/// Scale factor (2^8) between a [`Q8_8`] raw value and the real it encodes.
pub const ONE_RAW: i16 = 1 << FRAC_BITS;

/// Signed 16-bit fixed point with 8 integer and 8 fractional bits.
///
/// Arithmetic saturates at the 16-bit rails, mirroring the hardware
/// multiplier/adder in the aggregation core. Rounding is round-half-away-
/// from-zero, which is what a hardware "add half LSB then truncate toward
/// zero" rounder produces.
///
/// # Examples
///
/// ```
/// use sia_fixed::Q8_8;
/// let a = Q8_8::from_f32(2.5);
/// let b = Q8_8::from_f32(-0.5);
/// assert_eq!((a * b).to_f32(), -1.25);
/// assert_eq!((a + b).to_f32(), 2.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Q8_8(i16);

impl Q8_8 {
    /// The value 0.0.
    pub const ZERO: Q8_8 = Q8_8(0);
    /// The value 1.0.
    pub const ONE: Q8_8 = Q8_8(ONE_RAW);
    /// Largest representable value (+127.99609375).
    pub const MAX: Q8_8 = Q8_8(i16::MAX);
    /// Smallest representable value (−128.0).
    pub const MIN: Q8_8 = Q8_8(i16::MIN);

    /// Builds a value from its raw 16-bit two's-complement encoding.
    ///
    /// # Examples
    ///
    /// ```
    /// use sia_fixed::Q8_8;
    /// assert_eq!(Q8_8::from_raw(256), Q8_8::ONE);
    /// ```
    #[inline]
    #[must_use]
    pub const fn from_raw(raw: i16) -> Self {
        Q8_8(raw)
    }

    /// Returns the raw 16-bit encoding, as it would be streamed over AXI to
    /// the accelerator's configuration registers.
    #[inline]
    #[must_use]
    pub const fn to_raw(self) -> i16 {
        self.0
    }

    /// Converts from `f32`, rounding to the nearest representable value and
    /// saturating out-of-range inputs (including infinities). NaN maps to 0,
    /// mirroring a hardware converter that treats an invalid pattern as zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use sia_fixed::Q8_8;
    /// assert_eq!(Q8_8::from_f32(1.0 / 256.0).to_raw(), 1);
    /// assert_eq!(Q8_8::from_f32(1e9), Q8_8::MAX);
    /// assert_eq!(Q8_8::from_f32(f32::NAN), Q8_8::ZERO);
    /// ```
    #[must_use]
    pub fn from_f32(v: f32) -> Self {
        Self::try_from_f32(v).0
    }

    /// Checked variant of [`Q8_8::from_f32`]: returns the converted value
    /// together with a [`Saturation`] status telling whether the input was
    /// representable. The runtime converter and the static checker
    /// (`sia-check`) share this single saturation definition.
    ///
    /// # Examples
    ///
    /// ```
    /// use sia_fixed::{Q8_8, Saturation};
    /// assert_eq!(Q8_8::try_from_f32(1.5), (Q8_8::from_f32(1.5), Saturation::Exact));
    /// assert_eq!(Q8_8::try_from_f32(500.0), (Q8_8::MAX, Saturation::Clamped));
    /// assert_eq!(Q8_8::try_from_f32(f32::NAN), (Q8_8::ZERO, Saturation::Clamped));
    /// ```
    #[must_use]
    pub fn try_from_f32(v: f32) -> (Self, Saturation) {
        if v.is_nan() {
            return (Q8_8::ZERO, Saturation::Clamped);
        }
        let scaled = (v * ONE_RAW as f32).round();
        if scaled > i16::MAX as f32 {
            (Q8_8::MAX, Saturation::Clamped)
        } else if scaled < i16::MIN as f32 {
            (Q8_8::MIN, Saturation::Clamped)
        } else {
            (Q8_8(scaled as i16), Saturation::Exact)
        }
    }

    /// Converts back to `f32` (exact: every Q8.8 value is an f32).
    #[inline]
    #[must_use]
    pub fn to_f32(self) -> f32 {
        f32::from(self.0) / ONE_RAW as f32
    }

    /// Multiplies a 16-bit integer (an accumulated partial sum) by this
    /// coefficient and rounds back to an integer, saturating at the rails:
    /// the core of the aggregation-core batchnorm `y·G`.
    ///
    /// Branch-free: a negative product adds one less than half an LSB
    /// (`prod >> 31` is −1 there and 0 otherwise), so the flooring shift
    /// lands on the away-from-zero neighbour for both signs — the same
    /// result as negating, rounding the magnitude and negating back.
    ///
    /// # Examples
    ///
    /// ```
    /// use sia_fixed::Q8_8;
    /// assert_eq!(Q8_8::from_f32(0.5).mul_int(5), 3); // 2.5 rounds away from zero
    /// assert_eq!(Q8_8::from_f32(0.5).mul_int(-5), -3);
    /// assert_eq!(Q8_8::from_f32(2.0).mul_int(20_000), i16::MAX);
    /// ```
    #[inline]
    #[must_use]
    pub fn mul_int(self, y: i16) -> i16 {
        let prod = i32::from(self.0) * i32::from(y); // Q8.8 × Q16.0 = Q24.8
        let half = 1i32 << (FRAC_BITS - 1);
        clamp16((prod + half + (prod >> 31)) >> FRAC_BITS)
    }

    /// Like [`Q8_8::mul_int`] but for a 32-bit integer operand — the
    /// PS-side frame-conversion path, where the dense-input partial sum
    /// exceeds 16 bits before batch-norm scaling brings it back into the
    /// membrane range. Identical rounding; saturates to the 16-bit rails.
    ///
    /// # Examples
    ///
    /// ```
    /// use sia_fixed::Q8_8;
    /// assert_eq!(Q8_8::from_f32(0.0078125).mul_int_wide(400_000), 3125);
    /// assert_eq!(Q8_8::ONE.mul_int_wide(400_000), i16::MAX);
    /// ```
    #[must_use]
    pub fn mul_int_wide(self, y: i32) -> i16 {
        let prod = i64::from(self.0) * i64::from(y); // Q8.8 × Q32.0 = Q40.8
        let half = 1i64 << (FRAC_BITS - 1);
        let rounded = if prod >= 0 {
            (prod + half) >> FRAC_BITS
        } else {
            -((-prod + half) >> FRAC_BITS)
        };
        if rounded > i64::from(i16::MAX) {
            i16::MAX
        } else if rounded < i64::from(i16::MIN) {
            i16::MIN
        } else {
            rounded as i16
        }
    }

    /// Saturating fixed-point multiply (Q8.8 × Q8.8 → Q8.8).
    #[must_use]
    pub fn saturating_mul(self, rhs: Q8_8) -> Q8_8 {
        let prod = i32::from(self.0) * i32::from(rhs.0); // Q16.16
        let half = 1i32 << (FRAC_BITS - 1);
        let rounded = if prod >= 0 {
            (prod + half) >> FRAC_BITS
        } else {
            -((-prod + half) >> FRAC_BITS)
        };
        Q8_8(clamp16(rounded))
    }

    /// Saturating addition.
    #[inline]
    #[must_use]
    pub fn saturating_add(self, rhs: Q8_8) -> Q8_8 {
        Q8_8(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    #[must_use]
    pub fn saturating_sub(self, rhs: Q8_8) -> Q8_8 {
        Q8_8(self.0.saturating_sub(rhs.0))
    }

    /// Absolute value, saturating (|MIN| → MAX).
    #[inline]
    #[must_use]
    pub fn abs(self) -> Q8_8 {
        Q8_8(self.0.checked_abs().unwrap_or(i16::MAX))
    }

    /// Worst-case representation error of a single `f32 → Q8_8` conversion
    /// for an in-range input: half an LSB.
    #[must_use]
    pub fn max_conversion_error() -> f32 {
        0.5 / ONE_RAW as f32
    }
}

impl Add for Q8_8 {
    type Output = Q8_8;
    fn add(self, rhs: Q8_8) -> Q8_8 {
        self.saturating_add(rhs)
    }
}

impl Sub for Q8_8 {
    type Output = Q8_8;
    fn sub(self, rhs: Q8_8) -> Q8_8 {
        self.saturating_sub(rhs)
    }
}

impl Mul for Q8_8 {
    type Output = Q8_8;
    fn mul(self, rhs: Q8_8) -> Q8_8 {
        self.saturating_mul(rhs)
    }
}

impl Neg for Q8_8 {
    type Output = Q8_8;
    fn neg(self) -> Q8_8 {
        Q8_8(self.0.checked_neg().unwrap_or(i16::MAX))
    }
}

impl From<i8> for Q8_8 {
    /// Widens an INT8 integer value to Q8.8 (exact).
    fn from(v: i8) -> Self {
        Q8_8(i16::from(v) << FRAC_BITS)
    }
}

impl fmt::Debug for Q8_8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q8_8({})", self.to_f32())
    }
}

impl fmt::Display for Q8_8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sign-branching rounding `mul_int` used before it went
    /// branch-free, kept as the oracle its replacement is tested against.
    fn mul_int_two_branch(g: Q8_8, y: i16) -> i16 {
        let prod = i32::from(g.0) * i32::from(y);
        let half = 1i32 << (FRAC_BITS - 1);
        let rounded = if prod >= 0 {
            (prod + half) >> FRAC_BITS
        } else {
            -((-prod + half) >> FRAC_BITS)
        };
        clamp16(rounded)
    }

    #[test]
    fn one_round_trips() {
        assert_eq!(Q8_8::from_f32(1.0), Q8_8::ONE);
        assert_eq!(Q8_8::ONE.to_f32(), 1.0);
    }

    #[test]
    fn from_f32_rounds_to_nearest() {
        // 0.0017 * 256 = 0.4352 → rounds to 0
        assert_eq!(Q8_8::from_f32(0.0017).to_raw(), 0);
        // 0.002 * 256 = 0.512 → rounds to 1
        assert_eq!(Q8_8::from_f32(0.002).to_raw(), 1);
    }

    #[test]
    fn from_f32_saturates() {
        assert_eq!(Q8_8::from_f32(200.0), Q8_8::MAX);
        assert_eq!(Q8_8::from_f32(-200.0), Q8_8::MIN);
        assert_eq!(Q8_8::from_f32(f32::INFINITY), Q8_8::MAX);
        assert_eq!(Q8_8::from_f32(f32::NEG_INFINITY), Q8_8::MIN);
    }

    #[test]
    fn mul_int_identity() {
        for y in [-300i16, -1, 0, 1, 7, 300] {
            assert_eq!(Q8_8::ONE.mul_int(y), y);
        }
    }

    #[test]
    fn mul_int_half_scales() {
        assert_eq!(Q8_8::from_f32(0.5).mul_int(100), 50);
        assert_eq!(Q8_8::from_f32(0.25).mul_int(100), 25);
    }

    #[test]
    fn mul_int_rounds_half_away_from_zero() {
        let half = Q8_8::from_f32(0.5);
        assert_eq!(half.mul_int(1), 1);
        assert_eq!(half.mul_int(-1), -1);
        assert_eq!(half.mul_int(3), 2); // 1.5 → 2
        assert_eq!(half.mul_int(-3), -2);
    }

    #[test]
    fn mul_int_matches_the_two_branch_oracle_for_every_operand() {
        // All 2³² (G, y) pairs: about 1 s in the test and release
        // profiles, 7 s in CI's overflow-checked pass.
        for g in (i16::MIN..=i16::MAX).map(Q8_8::from_raw) {
            let mut differs = false;
            for y in i16::MIN..=i16::MAX {
                differs |= g.mul_int(y) != mul_int_two_branch(g, y);
            }
            assert!(!differs, "g={g:?}: some operand rounds differently");
        }
    }

    #[test]
    fn mul_int_saturates() {
        assert_eq!(Q8_8::MAX.mul_int(i16::MAX), i16::MAX);
        assert_eq!(Q8_8::MIN.mul_int(i16::MAX), i16::MIN);
    }

    #[test]
    fn fixed_mul_is_commutative_and_signed() {
        let a = Q8_8::from_f32(1.5);
        let b = Q8_8::from_f32(-2.0);
        assert_eq!(a * b, b * a);
        assert_eq!((a * b).to_f32(), -3.0);
    }

    #[test]
    fn add_sub_inverse() {
        let a = Q8_8::from_f32(3.25);
        let b = Q8_8::from_f32(1.75);
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn neg_of_min_saturates() {
        assert_eq!((-Q8_8::MIN), Q8_8::MAX);
    }

    #[test]
    fn from_i8_is_exact() {
        assert_eq!(Q8_8::from(-128i8).to_f32(), -128.0);
        assert_eq!(Q8_8::from(127i8).to_f32(), 127.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", Q8_8::ONE), "1");
        assert_eq!(format!("{:?}", Q8_8::ZERO), "Q8_8(0)");
    }
}

#[cfg(test)]
mod wide_tests {
    use super::*;

    #[test]
    fn mul_int_wide_agrees_with_mul_int_in_range() {
        for g in [-300i16, -7, 0, 5, 129, 20000] {
            let q = Q8_8::from_raw(g);
            for y in [-2000i16, -3, 0, 8, 1500] {
                assert_eq!(q.mul_int(y), q.mul_int_wide(i32::from(y)), "g={g} y={y}");
            }
        }
    }

    #[test]
    fn mul_int_wide_saturates_symmetrically() {
        assert_eq!(Q8_8::ONE.mul_int_wide(i32::MAX), i16::MAX);
        assert_eq!(Q8_8::ONE.mul_int_wide(i32::MIN), i16::MIN);
    }
}
