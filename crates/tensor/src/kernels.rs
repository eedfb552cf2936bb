//! The two f32 kernel paths: the scalar reference and the SIMD kernels
//! every un-suffixed entry point runs.
//!
//! [`KernelPolicy::current`] is always [`KernelPolicy::Simd`]; the
//! scalar loops stay reachable through the `_with(policy)` spellings as
//! the reference the differential tests compare against. The SIMD path
//! is **bitwise identical** to the scalar one — the same contract
//! `par_matmul` established for worker counts, extended to lane widths
//! and cache blocking:
//!
//! * each output element accumulates its terms in exactly the scalar
//!   order (ascending `k`), so no reduction is ever split across lanes;
//! * vectorization happens across *independent output elements* (the
//!   `j` axis), where f32 multiply/add per lane is IEEE-identical to the
//!   scalar instruction;
//! * the zero-skip in `matmul` (`a[i][k] == 0.0` skips the whole `k`
//!   term) is replicated exactly, because `0.0 * NaN` would otherwise
//!   change bits;
//! * no FMA is ever emitted from these kernels (`mul` then `add` only):
//!   a fused multiply-add rounds once where the scalar kernel rounds
//!   twice, which would break the pin.
//!
//! Cache blocking reorders *which* element is worked on when, never the
//! term order *within* an element, so it is bit-exact for free.

use crate::Matrix;

/// Which implementation the hot inner loops use. Both produce
/// bitwise-identical results; they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPolicy {
    /// The reference loops: naive order, no blocking, no lanes.
    Scalar,
    /// Cache blocking plus lane-parallel arithmetic across independent
    /// output elements (8-wide f32 / 4-wide i64 chunks the
    /// autovectorizer lowers to vector instructions).
    Simd,
}

impl KernelPolicy {
    /// The policy the un-suffixed entry points (`Matrix::matmul` and
    /// friends) use: always [`KernelPolicy::Simd`], which is safe
    /// precisely because it is pinned bitwise to scalar.
    #[must_use]
    pub const fn current() -> Self {
        Self::Simd
    }

    /// The canonical lower-case name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Simd => "simd",
        }
    }
}

impl std::fmt::Display for KernelPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// f32 lanes per chunk in the SIMD variants (AVX2-width; the tail is
/// handled element-wise in the same order).
const LANES: usize = 8;

/// Columns of packed `B` kept hot in an L1/L2-resident panel.
const NC: usize = 256;

/// Depth (`k`) slab per blocking pass.
const KC: usize = 64;

/// `out[j] += a * b[j]` over a row, in ascending-`j` order. Dispatches
/// to AVX2 intrinsics when the CPU has them (detected once, cached by
/// `std`), otherwise to a portable lane-array loop the autovectorizer
/// lowers to whatever vector width the target offers. Both do one mul +
/// one add per element — IEEE-identical per lane to the scalar loop.
#[inline]
fn axpy_lanes(out: &mut [f32], b: &[f32], a: f32) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { axpy_avx2(out, b, a) };
        return;
    }
    axpy_portable(out, b, a);
}

/// The portable fallback for [`axpy_lanes`]: eight independent elements
/// in flight per chunk, tail handled element-wise in the same order.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
#[inline]
fn axpy_portable(out: &mut [f32], b: &[f32], a: f32) {
    let mut oc = out.chunks_exact_mut(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (o8, b8) in (&mut oc).zip(&mut bc) {
        for l in 0..LANES {
            o8[l] += a * b8[l];
        }
    }
    for (o, &x) in oc.into_remainder().iter_mut().zip(bc.remainder()) {
        *o += a * x;
    }
}

/// [`axpy_lanes`] on AVX2: `vmulps` + `vaddps` (never FMA — a fused
/// multiply-add rounds once where the scalar kernel rounds twice, which
/// would break the bitwise pin).
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(out: &mut [f32], b: &[f32], a: f32) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    let n = out.len().min(b.len());
    let chunks = n / LANES;
    let av = _mm256_set1_ps(a);
    for c in 0..chunks {
        let i = c * LANES;
        // SAFETY: i + LANES <= n bounds both slices.
        let ov = _mm256_loadu_ps(out.as_ptr().add(i));
        let bv = _mm256_loadu_ps(b.as_ptr().add(i));
        let prod = _mm256_mul_ps(av, bv);
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_add_ps(ov, prod));
    }
    for i in chunks * LANES..n {
        out[i] += a * b[i];
    }
}

/// Computes rows `row0..` of `a · b` into `panel` (`panel.len()` must be
/// a multiple of `b.cols()`). Shared by the serial entry points and the
/// `par_matmul` row-panel tasks so every path uses the same kernels.
pub(crate) fn matmul_panel(
    policy: KernelPolicy,
    a: &Matrix,
    b: &Matrix,
    row0: usize,
    panel: &mut [f32],
) {
    let (k, n) = (a.cols(), b.cols());
    if n == 0 {
        return;
    }
    match policy {
        KernelPolicy::Scalar => {
            for (local_r, out_row) in panel.chunks_mut(n).enumerate() {
                let a_row = a.row(row0 + local_r);
                // The reference i-k-j order with zero-skip.
                for (p, &a_ip) in a_row.iter().enumerate().take(k) {
                    if a_ip == 0.0 {
                        continue;
                    }
                    let b_row = b.row(p);
                    for (j, o) in out_row.iter_mut().enumerate() {
                        *o += a_ip * b_row[j];
                    }
                }
            }
        }
        KernelPolicy::Simd => {
            // jt → kt → i → k → j tiling: for any fixed output element
            // (i, j) the k-tiles arrive in ascending order and k ascends
            // within each tile, so the per-element term order is exactly
            // the scalar one.
            let rows = panel.len() / n;
            for jt in (0..n).step_by(NC) {
                let jt_end = (jt + NC).min(n);
                for kt in (0..k).step_by(KC) {
                    let kt_end = (kt + KC).min(k);
                    for local_r in 0..rows {
                        let a_row = a.row(row0 + local_r);
                        let out_row = &mut panel[local_r * n + jt..local_r * n + jt_end];
                        for (p, &a_ip) in a_row.iter().enumerate().take(kt_end).skip(kt) {
                            if a_ip == 0.0 {
                                continue;
                            }
                            axpy_lanes(out_row, &b.row(p)[jt..jt_end], a_ip);
                        }
                    }
                }
            }
        }
    }
}

/// Computes rows `row0..` of `a · bᵀ` into `panel` (`panel.len()` must
/// be a multiple of `b.rows()`). Shared by the serial entry points and
/// the `par_matmul_transpose_b` row-panel tasks.
pub(crate) fn matmul_tb_panel(
    policy: KernelPolicy,
    a: &Matrix,
    b: &Matrix,
    row0: usize,
    panel: &mut [f32],
) {
    let n = b.rows();
    if n == 0 {
        return;
    }
    match policy {
        KernelPolicy::Scalar => {
            for (local_r, out_row) in panel.chunks_mut(n).enumerate() {
                let a_row = a.row(row0 + local_r);
                // The reference per-(i, j) sequential-k dot product.
                for (j, o) in out_row.iter_mut().enumerate().take(n) {
                    let b_row = b.row(j);
                    let mut acc = 0.0f32;
                    for (x, y) in a_row.iter().zip(b_row) {
                        acc += x * y;
                    }
                    *o = acc;
                }
            }
        }
        KernelPolicy::Simd => {
            // A dot product must stay sequential to keep its bits, so
            // the lane parallelism comes from four *independent* output
            // columns in flight per pass (instruction-level
            // parallelism), each accumulated in scalar order.
            for (local_r, out_row) in panel.chunks_mut(n).enumerate() {
                let a_row = a.row(row0 + local_r);
                let mut j = 0;
                while j + 4 <= n {
                    let (b0, b1, b2, b3) = (b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3));
                    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                    for (p, &x) in a_row.iter().enumerate() {
                        s0 += x * b0[p];
                        s1 += x * b1[p];
                        s2 += x * b2[p];
                        s3 += x * b3[p];
                    }
                    out_row[j] = s0;
                    out_row[j + 1] = s1;
                    out_row[j + 2] = s2;
                    out_row[j + 3] = s3;
                    j += 4;
                }
                for (o, jj) in out_row[j..].iter_mut().zip(j..n) {
                    let b_row = b.row(jj);
                    let mut acc = 0.0f32;
                    for (x, y) in a_row.iter().zip(b_row) {
                        acc += x * y;
                    }
                    *o = acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_is_the_simd_path() {
        assert_eq!(KernelPolicy::current(), KernelPolicy::Simd);
        assert_eq!(KernelPolicy::current().to_string(), "simd");
        assert_eq!(KernelPolicy::Scalar.label(), "scalar");
    }

    #[test]
    fn axpy_lanes_matches_scalar_axpy() {
        for len in [0usize, 1, 7, 8, 9, 16, 31] {
            let b: Vec<f32> = (0..len).map(|i| (i as f32).sin()).collect();
            let mut lanes: Vec<f32> = (0..len).map(|i| (i as f32) * 0.25 - 1.0).collect();
            let mut portable = lanes.clone();
            let mut scalar = lanes.clone();
            axpy_lanes(&mut lanes, &b, 1.5);
            axpy_portable(&mut portable, &b, 1.5);
            for (o, &x) in scalar.iter_mut().zip(&b) {
                *o += 1.5 * x;
            }
            assert_eq!(lanes, scalar, "len={len}");
            assert_eq!(portable, scalar, "len={len}");
        }
    }
}
