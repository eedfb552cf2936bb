//! Runtime Q-format descriptors.

use std::fmt;

/// A two's-complement fixed-point format: `total_bits` bits of which
/// `frac_bits` are fractional (the sign bit counts toward the integer part).
///
/// A raw word `r` represents the real value `r / 2^frac_bits`, with `r`
/// ranging over `[-2^(total_bits-1), 2^(total_bits-1) - 1]`.
///
/// ```
/// use cta_fixed::QFormat;
///
/// let q = QFormat::new(13, 7); // the paper's token format, Q6.7
/// assert_eq!(q.resolution(), 1.0 / 128.0);
/// assert_eq!(q.quantize(0.5), 64);
/// assert_eq!(q.dequantize(64), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    total_bits: u32,
    frac_bits: u32,
}

impl QFormat {
    /// Creates a format with `total_bits` total bits, `frac_bits` of them
    /// fractional.
    ///
    /// # Panics
    ///
    /// Panics (at compile time in const contexts) if `total_bits` is 0,
    /// greater than 32, or not strictly greater than `frac_bits` (at least
    /// the sign bit must remain).
    pub const fn new(total_bits: u32, frac_bits: u32) -> Self {
        assert!(total_bits > 0 && total_bits <= 32, "total_bits must be in 1..=32");
        assert!(frac_bits < total_bits, "frac_bits must leave at least the sign bit");
        Self { total_bits, frac_bits }
    }

    /// Total word width in bits.
    pub const fn total_bits(self) -> u32 {
        self.total_bits
    }

    /// Number of fractional bits.
    pub const fn frac_bits(self) -> u32 {
        self.frac_bits
    }

    /// Number of integer bits (including the sign bit).
    pub const fn int_bits(self) -> u32 {
        self.total_bits - self.frac_bits
    }

    /// Smallest representable increment, `2^-frac_bits`.
    pub fn resolution(self) -> f32 {
        (self.frac_bits as f64).exp2().recip() as f32
    }

    /// Largest representable raw word.
    pub const fn max_raw(self) -> i64 {
        (1i64 << (self.total_bits - 1)) - 1
    }

    /// Smallest (most negative) representable raw word.
    pub const fn min_raw(self) -> i64 {
        -(1i64 << (self.total_bits - 1))
    }

    /// Largest representable real value.
    pub fn max_value(self) -> f32 {
        self.dequantize(self.max_raw())
    }

    /// Smallest representable real value.
    pub fn min_value(self) -> f32 {
        self.dequantize(self.min_raw())
    }

    /// Quantizes a real value: scale by `2^frac_bits`, round to nearest,
    /// saturate to the representable range. NaN quantizes to 0.
    pub fn quantize(self, x: f32) -> i64 {
        if x.is_nan() {
            return 0;
        }
        let scaled = (x as f64) * (self.frac_bits as f64).exp2();
        let rounded = scaled.round() as i64;
        rounded.clamp(self.min_raw(), self.max_raw())
    }

    /// Reconstructs the real value of a raw word.
    pub fn dequantize(self, raw: i64) -> f32 {
        (raw as f64 / (self.frac_bits as f64).exp2()) as f32
    }

    /// Quantizes and immediately dequantizes — the value the hardware
    /// actually sees for input `x`.
    pub fn round_trip(self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }

    /// Saturating addition of two raw words in this format.
    pub fn saturating_add(self, a: i64, b: i64) -> i64 {
        (a + b).clamp(self.min_raw(), self.max_raw())
    }

    /// Multiplies raw words in formats `self` and `rhs`, requantising the
    /// exact product into `out` (round-to-nearest on the discarded
    /// fractional bits, saturating on overflow).
    pub fn multiply_into(self, a: i64, rhs: QFormat, b: i64, out: QFormat) -> i64 {
        let product = a as i128 * b as i128; // frac = self.frac + rhs.frac
        let in_frac = self.frac_bits + rhs.frac_bits;
        rescale(product, in_frac, out)
    }
}

/// Rescales a raw value with `in_frac` fractional bits into format `out`,
/// rounding to nearest and saturating.
///
/// This is the **authoritative write-back rounding rule** for every
/// kernel path (scalar and SIMD): round to nearest, ties
/// **away from zero** — the same rule `QFormat::quantize` applies via
/// f64 `round()`. The negative branch spells it as
/// `-((-raw + half) >> shift)` because an arithmetic right shift on a
/// negative value truncates toward −∞, which would bias ties toward
/// −∞ instead; negating first makes the tie at `-half` round to `-1`,
/// not `0` (truncation) or `-0`-wards. The
/// `rescale_agrees_with_quantize_*` tests pin the two paths together
/// at the ± half-ULP boundaries.
pub(crate) fn rescale(raw: i128, in_frac: u32, out: QFormat) -> i64 {
    let out_frac = out.frac_bits();
    let shifted = if out_frac >= in_frac {
        raw << (out_frac - in_frac)
    } else {
        let shift = in_frac - out_frac;
        let half = 1i128 << (shift - 1);
        // Round half away from zero, matching QFormat::quantize.
        if raw >= 0 {
            (raw + half) >> shift
        } else {
            -((-raw + half) >> shift)
        }
    };
    shifted.clamp(out.min_raw() as i128, out.max_raw() as i128) as i64
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{} ({} bits)", self.int_bits(), self.frac_bits, self.total_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TOKEN: QFormat = QFormat::new(13, 7);

    #[test]
    fn resolution_matches_frac_bits() {
        assert_eq!(TOKEN.resolution(), 1.0 / 128.0);
        assert_eq!(QFormat::new(12, 6).resolution(), 1.0 / 64.0);
    }

    #[test]
    fn range_matches_paper_token_format() {
        // Q6.7: raw in [-4096, 4095] => values in [-32, 31.9921875].
        assert_eq!(TOKEN.max_raw(), 4095);
        assert_eq!(TOKEN.min_raw(), -4096);
        assert_eq!(TOKEN.min_value(), -32.0);
        assert!((TOKEN.max_value() - 31.992_188).abs() < 1e-6);
    }

    #[test]
    fn quantize_rounds_to_nearest() {
        // 0.5039... is closer to 0.5078125 (raw 65)? 0.504 * 128 = 64.51 -> 65.
        assert_eq!(TOKEN.quantize(0.504), 65);
        assert_eq!(TOKEN.quantize(0.5), 64);
        assert_eq!(TOKEN.quantize(-0.5), -64);
    }

    #[test]
    fn quantize_saturates() {
        assert_eq!(TOKEN.quantize(1000.0), TOKEN.max_raw());
        assert_eq!(TOKEN.quantize(-1000.0), TOKEN.min_raw());
        assert_eq!(TOKEN.quantize(f32::NAN), 0);
    }

    #[test]
    fn saturating_add_clamps() {
        assert_eq!(TOKEN.saturating_add(4000, 4000), TOKEN.max_raw());
        assert_eq!(TOKEN.saturating_add(-4000, -4000), TOKEN.min_raw());
        assert_eq!(TOKEN.saturating_add(10, 20), 30);
    }

    #[test]
    fn multiply_into_exact_when_formats_allow() {
        // 0.5 (Q6.7) * 2.0 (Q6.6) = 1.0 in Q6.6.
        let a = TOKEN.quantize(0.5);
        let c = QFormat::new(12, 6);
        let b = c.quantize(2.0);
        let r = TOKEN.multiply_into(a, c, b, c);
        assert_eq!(c.dequantize(r), 1.0);
    }

    #[test]
    fn display_shows_q_notation() {
        assert_eq!(format!("{TOKEN}"), "Q6.7 (13 bits)");
    }

    #[test]
    fn rescale_rounds_negative_half_ulp_away_from_zero() {
        // in_frac 10 -> TOKEN (frac 7): shift = 3, half = 4. A raw of
        // exactly ±half is a tie on the true quotient ±0.5 and must
        // round away from zero — truncation would give 0 for both.
        assert_eq!(rescale(4, 10, TOKEN), 1);
        assert_eq!(rescale(-4, 10, TOKEN), -1);
        // Odd multiples of half are all ties: ±1.5 -> ±2.
        assert_eq!(rescale(12, 10, TOKEN), 2);
        assert_eq!(rescale(-12, 10, TOKEN), -2);
        // Just inside the tie rounds toward zero.
        assert_eq!(rescale(3, 10, TOKEN), 0);
        assert_eq!(rescale(-3, 10, TOKEN), 0);
        assert_eq!(rescale(5, 10, TOKEN), 1);
        assert_eq!(rescale(-5, 10, TOKEN), -1);
    }

    #[test]
    fn rescale_agrees_with_quantize_at_half_ulp_boundaries() {
        // A raw word with in_frac fractional bits is the exact real
        // value raw / 2^in_frac; rescaling it must land on the same
        // word quantize picks for that value. Scan every tie and
        // near-tie around zero plus the representable rails.
        let in_frac = 12u32; // shift = 5 into TOKEN's 7 frac bits
        for raw in -2048i128..=2048 {
            let value = raw as f64 / f64::from(1u32 << in_frac);
            let direct = TOKEN.quantize(value as f32);
            let rescaled = rescale(raw, in_frac, TOKEN);
            assert_eq!(rescaled, direct, "raw={raw} value={value}");
        }
    }

    proptest! {
        #[test]
        fn rescale_matches_round_half_away_reference(
            raw in -(1i64 << 40)..(1i64 << 40),
            in_frac in 0u32..24,
        ) {
            let raw = raw as i128;
            // |raw| < 2^40 and a power-of-two divisor: the f64 quotient
            // is exact, and f64 round() is round-half-away-from-zero —
            // an independent spelling of the authoritative rule.
            let out = QFormat::new(32, 7);
            let quotient = raw as f64 / f64::from(1u32 << in_frac) * 128.0;
            let expected =
                (quotient.round() as i128).clamp(out.min_raw() as i128, out.max_raw() as i128);
            prop_assert_eq!(rescale(raw, in_frac, out) as i128, expected);
        }

        #[test]
        fn round_trip_error_bounded_by_half_lsb(x in -31.0f32..31.0) {
            let err = (TOKEN.round_trip(x) - x).abs();
            prop_assert!(err <= TOKEN.resolution() / 2.0 + 1e-6);
        }

        #[test]
        fn quantize_is_monotone(a in -40.0f32..40.0, b in -40.0f32..40.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(TOKEN.quantize(lo) <= TOKEN.quantize(hi));
        }

        #[test]
        fn dequantize_inverts_quantize_on_representable(r in -4096i64..=4095) {
            prop_assert_eq!(TOKEN.quantize(TOKEN.dequantize(r)), r);
        }
    }
}
