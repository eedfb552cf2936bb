//! Matrices of raw fixed-point words with integer arithmetic.
//!
//! The products dispatch on [`KernelPolicy`] like the f32 kernels in
//! `cta-tensor`. Integer accumulation is *exact* — reassociating or
//! re-tiling a sum of products cannot change a single bit as long as no
//! intermediate overflows — so the SIMD path here is bitwise identical
//! to the scalar loops by construction: it runs 4-wide i64 lane
//! accumulators behind an explicit bit-budget guard
//! (`(bits_a - 1) + (bits_b - 1) + ceil_log2(K) <= 62`), and falls back
//! to contiguous i128 dots over packed operands whenever a lane could
//! overflow. The guard reads only the operand formats and `K`.

use cta_tensor::{KernelPolicy, Matrix};

use crate::qformat::rescale;
use crate::QFormat;

/// `ceil(log2(k))` for `k >= 1`; `0` for `k <= 1`.
fn ceil_log2(k: usize) -> u32 {
    if k <= 1 {
        0
    } else {
        usize::BITS - (k - 1).leading_zeros()
    }
}

/// Whether a `K`-term dot product of raw words in formats `fa` and `fb`
/// fits an i64 lane accumulator: the worst-case magnitude is
/// `K * 2^(bits_a-1) * 2^(bits_b-1)`, which stays below `2^63` exactly
/// when `(bits_a - 1) + (bits_b - 1) + ceil_log2(K) <= 62`.
fn lane_dot_fits_i64(fa: QFormat, fb: QFormat, k: usize) -> bool {
    (fa.total_bits() - 1) + (fb.total_bits() - 1) + ceil_log2(k) <= 62
}

/// Exact i128 dot product of two contiguous raw-word slices.
fn dot_i128(a: &[i64], b: &[i64]) -> i128 {
    let mut acc: i128 = 0;
    for (&x, &y) in a.iter().zip(b) {
        acc += x as i128 * y as i128;
    }
    acc
}

/// Exact dot product over narrowed i32 words with four i64 lane
/// accumulators. Caller must have checked [`lane_dot_fits_i64`]; under
/// that guard every lane sum is exact, so the final i128 total equals
/// [`dot_i128`] bit for bit.
fn dot_i32_lanes(a: &[i32], b: &[i32]) -> i128 {
    let mut lanes = [0i64; 4];
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (a4, b4) in (&mut ac).zip(&mut bc) {
        for l in 0..4 {
            lanes[l] += a4[l] as i64 * b4[l] as i64;
        }
    }
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        lanes[0] += x as i64 * y as i64;
    }
    lanes.iter().map(|&l| l as i128).sum()
}

/// Packs the `k×n` row-major raw words into an `n×k` transpose so every
/// dot product in the i128 fallback streams both operands contiguously.
fn pack_transpose_i64(raw: &[i64], k: usize, n: usize) -> Vec<i64> {
    let mut packed = vec![0i64; n * k];
    for p in 0..k {
        for j in 0..n {
            packed[j * k + p] = raw[p * n + j];
        }
    }
    packed
}

/// Element-wise saturating `a + b` (or `a - b`), policy-dispatched.
/// Saturation clamps per element, so chunking cannot change a bit; the
/// SIMD spelling runs 8 independent elements per chunk.
fn saturating_zip(
    policy: KernelPolicy,
    a: &[i64],
    b: &[i64],
    format: QFormat,
    negate_b: bool,
) -> Vec<i64> {
    let sign = if negate_b { -1i64 } else { 1i64 };
    match policy {
        KernelPolicy::Scalar => {
            a.iter().zip(b).map(|(&x, &y)| format.saturating_add(x, sign * y)).collect()
        }
        KernelPolicy::Simd => {
            let (lo, hi) = (format.min_raw(), format.max_raw());
            let mut out = vec![0i64; a.len()];
            let mut oc = out.chunks_exact_mut(8);
            let mut ac = a.chunks_exact(8);
            let mut bc = b.chunks_exact(8);
            for ((o8, a8), b8) in (&mut oc).zip(&mut ac).zip(&mut bc) {
                for l in 0..8 {
                    o8[l] = (a8[l] + sign * b8[l]).clamp(lo, hi);
                }
            }
            for ((o, &x), &y) in
                oc.into_remainder().iter_mut().zip(ac.remainder()).zip(bc.remainder())
            {
                *o = (x + sign * y).clamp(lo, hi);
            }
            out
        }
    }
}

/// A matrix stored as raw fixed-point words in a single [`QFormat`].
///
/// This mirrors what lives in the accelerator's SRAMs: token memory holds
/// Q6.7 words, weight memory holds 12-bit words, and the systolic array
/// multiplies raw words with wide accumulators before requantising results
/// on the way back to memory. All arithmetic here is integer arithmetic —
/// bit-exact with a fixed-point RTL implementation of the same widths.
///
/// ```
/// use cta_fixed::{formats, QuantizedMatrix};
/// use cta_tensor::Matrix;
///
/// let a = QuantizedMatrix::quantize(&Matrix::from_rows(&[&[1.0, 2.0]]), formats::TOKEN);
/// let b = QuantizedMatrix::quantize(&Matrix::from_rows(&[&[3.0], &[4.0]]), formats::CENTROID);
/// let c = a.matmul(&b, formats::SCORE);
/// assert_eq!(c.dequantize()[(0, 0)], 11.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    raw: Vec<i64>,
    format: QFormat,
}

impl QuantizedMatrix {
    /// Quantizes a real matrix into `format`.
    pub fn quantize(m: &Matrix, format: QFormat) -> Self {
        Self {
            rows: m.rows(),
            cols: m.cols(),
            raw: m.as_slice().iter().map(|&x| format.quantize(x)).collect(),
            format,
        }
    }

    /// Builds a quantized matrix directly from raw words.
    ///
    /// # Panics
    ///
    /// Panics if `raw.len() != rows * cols` or any word is outside the
    /// format's representable range.
    pub fn from_raw(rows: usize, cols: usize, raw: Vec<i64>, format: QFormat) -> Self {
        assert_eq!(raw.len(), rows * cols, "raw data length mismatch");
        for &r in &raw {
            assert!(
                (format.min_raw()..=format.max_raw()).contains(&r),
                "raw word {r} out of range for {format}"
            );
        }
        Self { rows, cols, raw, format }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The storage format.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// The raw words, row-major.
    pub fn raw(&self) -> &[i64] {
        &self.raw
    }

    /// Raw word at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn raw_at(&self, r: usize, c: usize) -> i64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.raw[r * self.cols + c]
    }

    /// Reconstructs the real-valued matrix the raw words represent.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.raw.iter().map(|&r| self.format.dequantize(r)).collect(),
        )
    }

    /// Integer matrix product, requantised into `out_format`, on the
    /// SIMD path ([`KernelPolicy::current`]).
    ///
    /// Accumulation is exact (i128 partial sums with
    /// `self.frac + other.frac` fractional bits); only the final write-back
    /// rounds and saturates, which matches a systolic array with wide
    /// accumulators in each PE. Both policies are bitwise identical.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &QuantizedMatrix, out_format: QFormat) -> QuantizedMatrix {
        self.matmul_with(other, out_format, KernelPolicy::current())
    }

    /// [`QuantizedMatrix::matmul`] under an explicit [`KernelPolicy`].
    ///
    /// The scalar reference walks `other` column-strided. The SIMD path
    /// packs `Bᵀ` once, narrows the packed words to i32 and accumulates
    /// in four i64 lanes when the formats' bit budget guarantees a lane
    /// cannot overflow; otherwise it runs contiguous i128 dots over the
    /// packed `Bᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_with(
        &self,
        other: &QuantizedMatrix,
        out_format: QFormat,
        policy: KernelPolicy,
    ) -> QuantizedMatrix {
        assert_eq!(
            self.cols, other.rows,
            "quantized matmul dimension mismatch: {}x{} . {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, n) = (self.cols, other.cols);
        let in_frac = self.format.frac_bits() + other.format.frac_bits();
        let mut raw = vec![0i64; self.rows * n];
        match policy {
            KernelPolicy::Scalar => {
                for i in 0..self.rows {
                    for j in 0..n {
                        let mut acc: i128 = 0;
                        for p in 0..k {
                            acc += self.raw[i * k + p] as i128 * other.raw[p * n + j] as i128;
                        }
                        raw[i * n + j] = rescale(acc, in_frac, out_format);
                    }
                }
            }
            KernelPolicy::Simd if !lane_dot_fits_i64(self.format, other.format, k) => {
                // A lane could overflow: exact i128 dots over a packed Bᵀ.
                let bt = pack_transpose_i64(&other.raw, k, n);
                for i in 0..self.rows {
                    let a_row = &self.raw[i * k..(i + 1) * k];
                    for j in 0..n {
                        let acc = dot_i128(a_row, &bt[j * k..(j + 1) * k]);
                        raw[i * n + j] = rescale(acc, in_frac, out_format);
                    }
                }
            }
            KernelPolicy::Simd => {
                // Raw words of any <=32-bit format fit i32 exactly.
                let bt: Vec<i32> = {
                    let mut packed = vec![0i32; n * k];
                    for p in 0..k {
                        for j in 0..n {
                            packed[j * k + p] = other.raw[p * n + j] as i32;
                        }
                    }
                    packed
                };
                let mut a32 = vec![0i32; k];
                for i in 0..self.rows {
                    for (w, &x) in a32.iter_mut().zip(&self.raw[i * k..(i + 1) * k]) {
                        *w = x as i32;
                    }
                    for j in 0..n {
                        let acc = dot_i32_lanes(&a32, &bt[j * k..(j + 1) * k]);
                        raw[i * n + j] = rescale(acc, in_frac, out_format);
                    }
                }
            }
        }
        QuantizedMatrix { rows: self.rows, cols: n, raw, format: out_format }
    }

    /// Integer matrix product with the second operand transposed:
    /// `self · otherᵀ`, requantised into `out_format`. This is the
    /// natural layout for quantized attention scores `Q̄ · K̄ᵀ`: both
    /// operands keep rows = vectors, so no explicit transpose (and no
    /// column-strided walk) is ever materialised.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transpose_b(
        &self,
        other: &QuantizedMatrix,
        out_format: QFormat,
    ) -> QuantizedMatrix {
        self.matmul_transpose_b_with(other, out_format, KernelPolicy::current())
    }

    /// [`QuantizedMatrix::matmul_transpose_b`] under an explicit
    /// [`KernelPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transpose_b_with(
        &self,
        other: &QuantizedMatrix,
        out_format: QFormat,
        policy: KernelPolicy,
    ) -> QuantizedMatrix {
        assert_eq!(
            self.cols, other.cols,
            "quantized matmul_transpose_b dimension mismatch: {}x{} . ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (d, n) = (self.cols, other.rows);
        let in_frac = self.format.frac_bits() + other.format.frac_bits();
        let mut raw = vec![0i64; self.rows * n];
        match policy {
            KernelPolicy::Scalar => {
                for i in 0..self.rows {
                    for j in 0..n {
                        let mut acc: i128 = 0;
                        for p in 0..d {
                            acc += self.raw[i * d + p] as i128 * other.raw[j * d + p] as i128;
                        }
                        raw[i * n + j] = rescale(acc, in_frac, out_format);
                    }
                }
            }
            KernelPolicy::Simd if !lane_dot_fits_i64(self.format, other.format, d) => {
                // A lane could overflow: exact i128 dots instead. Both
                // operands are already row-contiguous; blocking tiles
                // the B rows so a panel stays cache-hot across every
                // output row.
                const JT: usize = 64;
                for jt in (0..n).step_by(JT) {
                    let jt_end = (jt + JT).min(n);
                    for i in 0..self.rows {
                        let a_row = &self.raw[i * d..(i + 1) * d];
                        for j in jt..jt_end {
                            let acc = dot_i128(a_row, &other.raw[j * d..(j + 1) * d]);
                            raw[i * n + j] = rescale(acc, in_frac, out_format);
                        }
                    }
                }
            }
            KernelPolicy::Simd => {
                let b32: Vec<i32> = other.raw.iter().map(|&x| x as i32).collect();
                let mut a32 = vec![0i32; d];
                for i in 0..self.rows {
                    for (w, &x) in a32.iter_mut().zip(&self.raw[i * d..(i + 1) * d]) {
                        *w = x as i32;
                    }
                    for j in 0..n {
                        let acc = dot_i32_lanes(&a32, &b32[j * d..(j + 1) * d]);
                        raw[i * n + j] = rescale(acc, in_frac, out_format);
                    }
                }
            }
        }
        QuantizedMatrix { rows: self.rows, cols: n, raw, format: out_format }
    }

    /// Element-wise saturating subtraction (both operands must share a
    /// format), on the SIMD path ([`KernelPolicy::current`]). Models the
    /// adder column on the left edge of the SA that computes residual
    /// tokens (paper Fig. 7).
    ///
    /// # Panics
    ///
    /// Panics if shapes or formats differ.
    pub fn sub(&self, other: &QuantizedMatrix) -> QuantizedMatrix {
        self.sub_with(other, KernelPolicy::current())
    }

    /// [`QuantizedMatrix::sub`] under an explicit [`KernelPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if shapes or formats differ.
    pub fn sub_with(&self, other: &QuantizedMatrix, policy: KernelPolicy) -> QuantizedMatrix {
        assert_eq!(self.format, other.format, "sub requires matching formats");
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "sub shape mismatch");
        let raw = saturating_zip(policy, &self.raw, &other.raw, self.format, true);
        QuantizedMatrix { rows: self.rows, cols: self.cols, raw, format: self.format }
    }

    /// Element-wise saturating addition (both operands must share a
    /// format), on the SIMD path ([`KernelPolicy::current`]).
    ///
    /// # Panics
    ///
    /// Panics if shapes or formats differ.
    pub fn add(&self, other: &QuantizedMatrix) -> QuantizedMatrix {
        self.add_with(other, KernelPolicy::current())
    }

    /// [`QuantizedMatrix::add`] under an explicit [`KernelPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if shapes or formats differ.
    pub fn add_with(&self, other: &QuantizedMatrix, policy: KernelPolicy) -> QuantizedMatrix {
        assert_eq!(self.format, other.format, "add requires matching formats");
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add shape mismatch");
        let raw = saturating_zip(policy, &self.raw, &other.raw, self.format, false);
        QuantizedMatrix { rows: self.rows, cols: self.cols, raw, format: self.format }
    }

    /// Re-quantises into a different format (round-to-nearest, saturating).
    pub fn convert(&self, format: QFormat) -> QuantizedMatrix {
        let raw =
            self.raw.iter().map(|&r| rescale(r as i128, self.format.frac_bits(), format)).collect();
        QuantizedMatrix { rows: self.rows, cols: self.cols, raw, format }
    }

    /// Maximum absolute quantisation error of representing `m` in `format`,
    /// i.e. `max |round_trip(x) - x|`. Diagnostic used by the quantisation
    /// ablation.
    pub fn max_quantization_error(m: &Matrix, format: QFormat) -> f32 {
        m.as_slice().iter().map(|&x| (format.round_trip(x) - x).abs()).fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats;
    use proptest::prelude::*;

    #[test]
    fn quantize_dequantize_round_trip_within_resolution() {
        let m = Matrix::from_rows(&[&[0.3, -1.7, 5.25], &[-0.01, 30.0, -31.0]]);
        let q = QuantizedMatrix::quantize(&m, formats::TOKEN);
        assert!(q.dequantize().approx_eq(&m, formats::TOKEN.resolution()));
    }

    #[test]
    fn matmul_matches_float_for_exactly_representable_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]);
        let qa = QuantizedMatrix::quantize(&a, formats::TOKEN);
        let qb = QuantizedMatrix::quantize(&b, formats::CENTROID);
        let qc = qa.matmul(&qb, formats::SCORE);
        assert!(qc.dequantize().approx_eq(&a.matmul(&b), 1e-6));
    }

    #[test]
    fn matmul_saturates_on_overflow() {
        let big = Matrix::filled(1, 8, 30.0);
        let qa = QuantizedMatrix::quantize(&big, formats::TOKEN);
        let qb = QuantizedMatrix::quantize(&big.transpose(), formats::TOKEN);
        // 8 * 900 = 7200 overflows SCORE's Q8.8 max of ~127.996.
        let qc = qa.matmul(&qb, formats::SCORE);
        assert_eq!(qc.raw_at(0, 0), formats::SCORE.max_raw());
    }

    #[test]
    fn sub_computes_residuals() {
        let x = Matrix::from_rows(&[&[1.5, -2.0]]);
        let c = Matrix::from_rows(&[&[1.0, -1.0]]);
        let qx = QuantizedMatrix::quantize(&x, formats::TOKEN);
        let qc = QuantizedMatrix::quantize(&c, formats::TOKEN);
        let r = qx.sub(&qc);
        assert!(r.dequantize().approx_eq(&x.sub(&c), 1e-6));
    }

    #[test]
    #[should_panic(expected = "matching formats")]
    fn sub_rejects_format_mismatch() {
        let m = Matrix::zeros(1, 1);
        let a = QuantizedMatrix::quantize(&m, formats::TOKEN);
        let b = QuantizedMatrix::quantize(&m, formats::CENTROID);
        let _ = a.sub(&b);
    }

    #[test]
    fn convert_preserves_value_when_widening() {
        let m = Matrix::from_rows(&[&[1.25, -0.5]]);
        let q = QuantizedMatrix::quantize(&m, formats::CENTROID);
        let w = q.convert(formats::SCORE);
        assert!(w.dequantize().approx_eq(&q.dequantize(), 1e-9));
    }

    #[test]
    fn from_raw_validates_range() {
        let q = QuantizedMatrix::from_raw(1, 2, vec![0, 100], formats::CENTROID);
        assert_eq!(q.raw_at(0, 1), 100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_raw_rejects_out_of_range_words() {
        let _ = QuantizedMatrix::from_raw(1, 1, vec![1 << 20], formats::CENTROID);
    }

    #[test]
    fn max_quantization_error_bounded_by_half_lsb() {
        let m = Matrix::from_rows(&[&[0.123, -4.567, 9.999]]);
        let err = QuantizedMatrix::max_quantization_error(&m, formats::TOKEN);
        assert!(err <= formats::TOKEN.resolution() / 2.0 + 1e-6);
    }

    /// A seeded raw-word matrix spanning the full representable range,
    /// rails included, so saturating paths are exercised.
    fn lcg_quantized(rows: usize, cols: usize, seed: u64, format: QFormat) -> QuantizedMatrix {
        let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let span = (format.max_raw() - format.min_raw() + 1) as u128;
        let raw: Vec<i64> = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_041);
                format.min_raw() + ((state as u128 * span) >> 64) as i64
            })
            .collect();
        QuantizedMatrix::from_raw(rows, cols, raw, format)
    }

    #[test]
    fn matmul_policies_are_bitwise_identical_on_edge_shapes() {
        // Empty, 1xN, non-square, and lane/block-tail shapes, then the
        // paper's SQuAD score product: k₀ = 96 centroid queries against
        // k₁ + k₂ = 96 + 24 centroid keys at d = 64.
        let shapes =
            [(0, 0, 0), (0, 3, 2), (2, 0, 3), (1, 1, 1), (1, 9, 33), (5, 7, 3), (96, 64, 120)];
        for (m, k, n) in shapes {
            let a = lcg_quantized(m, k, 11, formats::TOKEN);
            let b = lcg_quantized(k, n, 12, formats::CENTROID);
            let bt = lcg_quantized(n, k, 13, formats::CENTROID);
            assert_eq!(
                a.matmul_with(&b, formats::SCORE, KernelPolicy::Simd),
                a.matmul_with(&b, formats::SCORE, KernelPolicy::Scalar),
                "{m}x{k}x{n}"
            );
            assert_eq!(
                a.matmul_transpose_b_with(&bt, formats::SCORE, KernelPolicy::Simd),
                a.matmul_transpose_b_with(&bt, formats::SCORE, KernelPolicy::Scalar),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn matmul_policies_are_bitwise_identical_under_saturation() {
        // Rails-to-rails products overflow SCORE; both policies must
        // saturate on exactly the same elements to the same rails.
        let a = lcg_quantized(6, 40, 21, formats::TOKEN);
        let b = lcg_quantized(40, 5, 22, formats::TOKEN);
        let scalar = a.matmul_with(&b, formats::SCORE, KernelPolicy::Scalar);
        assert!(
            scalar.raw().iter().any(|&r| r == formats::SCORE.max_raw()),
            "test shape must actually saturate"
        );
        assert_eq!(a.matmul_with(&b, formats::SCORE, KernelPolicy::Simd), scalar);
    }

    #[test]
    fn simd_lane_guard_falls_back_for_wide_formats() {
        // Two 32-bit formats over a long K blow the i64 lane budget:
        // (31 + 31 + ceil_log2(64)) > 62, so the SIMD path must take
        // the exact i128 route — and still match scalar bitwise.
        let wide = QFormat::new(32, 7);
        assert!(!lane_dot_fits_i64(wide, wide, 64));
        let a = lcg_quantized(3, 64, 31, wide);
        let b = lcg_quantized(64, 3, 32, wide);
        let bt = lcg_quantized(3, 64, 33, wide);
        assert_eq!(
            a.matmul_with(&b, wide, KernelPolicy::Simd),
            a.matmul_with(&b, wide, KernelPolicy::Scalar)
        );
        assert_eq!(
            a.matmul_transpose_b_with(&bt, wide, KernelPolicy::Simd),
            a.matmul_transpose_b_with(&bt, wide, KernelPolicy::Scalar)
        );
    }

    #[test]
    fn elementwise_policies_are_bitwise_identical() {
        // Lane tails, then the paper's SQuAD token block (n = 384,
        // d = 64) — the level-2 residual subtract.
        for len in [(1, 1), (1, 7), (3, 8), (5, 17), (384, 64)] {
            let a = lcg_quantized(len.0, len.1, 41, formats::TOKEN);
            let b = lcg_quantized(len.0, len.1, 42, formats::TOKEN);
            let (scalar, simd) = (KernelPolicy::Scalar, KernelPolicy::Simd);
            assert_eq!(a.sub_with(&b, simd), a.sub_with(&b, scalar), "{len:?}");
            assert_eq!(a.add_with(&b, simd), a.add_with(&b, scalar), "{len:?}");
        }
    }

    #[test]
    fn add_saturates_at_the_rails() {
        let m = Matrix::filled(1, 2, 30.0);
        let q = QuantizedMatrix::quantize(&m, formats::TOKEN);
        let s = q.add(&q);
        assert_eq!(s.raw_at(0, 0), formats::TOKEN.max_raw());
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let a = lcg_quantized(4, 9, 51, formats::TOKEN);
        let bt = lcg_quantized(6, 9, 52, formats::CENTROID);
        // Rebuild B = (Bᵀ)ᵀ through from_raw to compare against matmul.
        let mut braw = vec![0i64; 9 * 6];
        for r in 0..6 {
            for c in 0..9 {
                braw[c * 6 + r] = bt.raw_at(r, c);
            }
        }
        let b = QuantizedMatrix::from_raw(9, 6, braw, formats::CENTROID);
        assert_eq!(a.matmul_transpose_b(&bt, formats::SCORE), a.matmul(&b, formats::SCORE));
    }

    proptest! {
        #[test]
        fn quantized_matmul_policies_match_scalar_bitwise(
            m in 1usize..8,
            k in 1usize..20,
            n in 1usize..8,
            seed in 0u64..500,
        ) {
            let a = lcg_quantized(m, k, seed, formats::TOKEN);
            let b = lcg_quantized(k, n, seed.wrapping_add(1), formats::CENTROID);
            prop_assert_eq!(
                a.matmul_with(&b, formats::SCORE, KernelPolicy::Simd),
                a.matmul_with(&b, formats::SCORE, KernelPolicy::Scalar)
            );
        }

        #[test]
        fn quantized_matmul_close_to_float_matmul(
            seed in 0u64..1000,
        ) {
            use cta_tensor::MatrixRng;
            let mut rng = MatrixRng::new(seed);
            let a = rng.normal_matrix(3, 5, 0.0, 1.0);
            let b = rng.normal_matrix(5, 2, 0.0, 0.2);
            let qa = QuantizedMatrix::quantize(&a, formats::TOKEN);
            let qb = QuantizedMatrix::quantize(&b, formats::LINEAR_WEIGHT);
            let qc = qa.matmul(&qb, formats::SCORE).dequantize();
            let c = a.matmul(&b);
            // Error per element is bounded by accumulated rounding noise.
            let tol = 5.0 * (formats::TOKEN.resolution() + formats::LINEAR_WEIGHT.resolution())
                + formats::SCORE.resolution();
            prop_assert!(qc.approx_eq(&c, tol), "qc={qc:?} c={c:?}");
        }
    }
}
