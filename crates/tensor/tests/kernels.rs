//! Bitwise equality of the SIMD f32 kernels against the scalar
//! reference, over random shapes plus the edge shapes named in the
//! kernel contract: empty, 1×N, non-square, and the paper's SQuAD shape.
//!
//! The assertion is exact `==` on `Matrix` (element-for-element `f32`
//! equality), not `approx_eq`: the SIMD path promises the *same
//! floating-point operation order* per output element, so its lane
//! width and blocking factors must reproduce the scalar result to the
//! bit. This is the property that lets golden-file tests stay
//! byte-stable on the SIMD kernels.
//!
//! The awkward-value cases feed `±0.0`, `±inf`, NaN and all-zero rows
//! through every tail of the tiled kernels, serial and parallel, and pin
//! the one place the two products differ: `matmul` skips zero `a`
//! terms, `matmul_transpose_b` does not.

use cta_parallel::Parallelism;
use cta_tensor::{standard_normal_matrix, KernelPolicy, Matrix};
use proptest::prelude::*;

/// A seeded random matrix with exact zeros sprinkled in so the
/// `matmul` zero-skip branch is exercised by the property.
fn sparse_random(seed: u64, rows: usize, cols: usize) -> Matrix {
    let dense = standard_normal_matrix(seed, rows, cols);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    Matrix::from_fn(rows, cols, |r, c| {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        if state >> 61 == 0 {
            0.0
        } else {
            dense[(r, c)]
        }
    })
}

fn assert_all_policies_match(a: &Matrix, b: &Matrix, bt: &Matrix, label: &str) {
    assert_eq!(
        a.matmul_with(b, KernelPolicy::Simd),
        a.matmul_with(b, KernelPolicy::Scalar),
        "{label}: matmul"
    );
    assert_eq!(
        a.matmul_transpose_b_with(bt, KernelPolicy::Simd),
        a.matmul_transpose_b_with(bt, KernelPolicy::Scalar),
        "{label}: matmul_transpose_b"
    );
}

#[test]
fn empty_shapes_are_bitwise_identical() {
    for (m, k, n) in [(0, 0, 0), (0, 5, 3), (4, 0, 3), (4, 5, 0), (0, 0, 7)] {
        let a = sparse_random(9, m, k);
        let b = sparse_random(10, k, n);
        let bt = sparse_random(11, n, k);
        assert_all_policies_match(&a, &b, &bt, &format!("{m}x{k}x{n}"));
    }
}

#[test]
fn one_by_n_shapes_are_bitwise_identical() {
    for (m, k, n) in [(1, 1, 1), (1, 17, 33), (33, 17, 1), (1, 1, 64), (64, 1, 1)] {
        let a = sparse_random(21, m, k);
        let b = sparse_random(22, k, n);
        let bt = sparse_random(23, n, k);
        assert_all_policies_match(&a, &b, &bt, &format!("{m}x{k}x{n}"));
    }
}

#[test]
fn shapes_straddling_the_block_boundaries_are_bitwise_identical() {
    // Long `k`, wide outputs with 16-column tile tails, and the 4-column
    // dot path's tails. The last case is the paper's SQuAD shape
    // (n = 384, d = 64): `n×d · d×n` and `n×d · (n×d)ᵀ`.
    for (m, k, n) in [(3, 63, 255), (2, 65, 257), (5, 64, 256), (7, 130, 300), (384, 64, 384)] {
        let a = sparse_random(31, m, k);
        let b = sparse_random(32, k, n);
        let bt = sparse_random(33, n, k);
        assert_all_policies_match(&a, &b, &bt, &format!("{m}x{k}x{n}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SIMD `matmul` equals scalar bitwise over random non-square
    /// shapes and seeds.
    fn matmul_policies_match_scalar_bitwise(
        m in 1usize..40,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let a = sparse_random(seed, m, k);
        let b = sparse_random(seed.wrapping_add(1), k, n);
        prop_assert_eq!(a.matmul_with(&b, KernelPolicy::Simd), a.matmul_with(&b, KernelPolicy::Scalar));
    }

    /// SIMD `matmul_transpose_b` equals scalar bitwise over random
    /// non-square shapes and seeds.
    fn matmul_transpose_b_policies_match_scalar_bitwise(
        m in 1usize..40,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let a = sparse_random(seed, m, k);
        let b = sparse_random(seed.wrapping_add(2), n, k);
        prop_assert_eq!(
            a.matmul_transpose_b_with(&b, KernelPolicy::Simd),
            a.matmul_transpose_b_with(&b, KernelPolicy::Scalar)
        );
    }
}

/// A seeded matrix drawn from a palette of awkward values: ordinary
/// normals most of the time, plus `±0.0`, `±inf` and NaN. When
/// `zero_rows` is set, every third row is all zeros (signs mixed), so
/// the `matmul` zero-skip sees whole skipped rows.
fn awkward(seed: u64, rows: usize, cols: usize, zero_rows: bool) -> Matrix {
    let dense = standard_normal_matrix(seed, rows, cols);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7);
    Matrix::from_fn(rows, cols, |r, c| {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        if zero_rows && r % 3 == 2 {
            return if (state >> 63) == 0 { 0.0 } else { -0.0 };
        }
        match state >> 59 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => f32::NAN,
            _ => dense[(r, c)],
        }
    })
}

/// Element bits, with every NaN mapped to one value. Sign of zero and
/// of infinity is compared exactly; a NaN's payload is not, because
/// Rust does not pin NaN payloads through arithmetic.
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

fn assert_bits_eq(got: &Matrix, want: &Matrix, label: &str) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape");
    let (g, w) = (bits(got), bits(want));
    if let Some(i) = g.iter().zip(&w).position(|(x, y)| x != y) {
        panic!(
            "{label}: element {i} is {} ({:#010x}), scalar gives {} ({:#010x})",
            got.as_slice()[i],
            g[i],
            want.as_slice()[i],
            w[i]
        );
    }
}

/// Rows ≢ 0 mod 4, output widths ≢ 0 mod 16 and narrow 1–15-column
/// outputs, with `k` from 0 up past one tile: the shapes every tail path
/// of the tiled kernels takes.
const AWKWARD_SHAPES: [(usize, usize, usize); 14] = [
    (1, 0, 17),
    (5, 0, 3),
    (3, 1, 1),
    (9, 1, 17),
    (13, 1, 6),
    (6, 2, 15),
    (7, 3, 16),
    (10, 7, 33),
    (11, 16, 9),
    (17, 33, 31),
    (4, 64, 48),
    (21, 64, 6),
    (9, 65, 49),
    (19, 130, 70),
];

#[test]
fn non_finite_and_signed_zero_inputs_are_bitwise_identical() {
    for (s, &(m, k, n)) in AWKWARD_SHAPES.iter().enumerate() {
        let seed = 100 + s as u64 * 3;
        let a = awkward(seed, m, k, true);
        let b = awkward(seed + 1, k, n, false);
        let bt = awkward(seed + 2, n, k, false);
        let label = format!("{m}x{k}x{n}");
        let want = a.matmul_with(&b, KernelPolicy::Scalar);
        let want_t = a.matmul_transpose_b_with(&bt, KernelPolicy::Scalar);
        assert_bits_eq(&a.matmul_with(&b, KernelPolicy::Simd), &want, &format!("{label}: matmul"));
        assert_bits_eq(
            &a.matmul_transpose_b_with(&bt, KernelPolicy::Simd),
            &want_t,
            &format!("{label}: matmul_transpose_b"),
        );
        for jobs in [2, 3] {
            let par = Parallelism::jobs(jobs);
            assert_bits_eq(
                &a.par_matmul(&b, par),
                &want,
                &format!("{label}: par_matmul jobs={jobs}"),
            );
            assert_bits_eq(
                &a.par_matmul_transpose_b(&bt, par),
                &want_t,
                &format!("{label}: par_matmul_transpose_b jobs={jobs}"),
            );
        }
    }
}

/// `matmul` skips a zero `a[i][p]` outright, so `0 · inf` never enters
/// its sum; `matmul_transpose_b` is a plain dot product, so it does and
/// the element is NaN. Both kernels, on both policies, keep that split.
#[test]
fn zero_skip_applies_to_matmul_only() {
    for (m, n) in [(1, 1), (5, 17), (9, 40)] {
        let a = Matrix::from_fn(m, 2, |_, c| if c == 0 { 0.0 } else { 1.0 });
        let b = Matrix::from_fn(2, n, |r, _| if r == 0 { f32::INFINITY } else { 2.0 });
        let bt = b.transpose();
        for policy in [KernelPolicy::Scalar, KernelPolicy::Simd] {
            let c = a.matmul_with(&b, policy);
            assert!(c.as_slice().iter().all(|&x| x == 2.0), "{m}x{n} {policy}: matmul");
            let ct = a.matmul_transpose_b_with(&bt, policy);
            assert!(
                ct.as_slice().iter().all(|x| x.is_nan()),
                "{m}x{n} {policy}: matmul_transpose_b"
            );
        }
        let par = Parallelism::jobs(2);
        assert!(a.par_matmul(&b, par).as_slice().iter().all(|&x| x == 2.0), "{m}x{n}: par_matmul");
        assert!(
            a.par_matmul_transpose_b(&bt, par).as_slice().iter().all(|x| x.is_nan()),
            "{m}x{n}: par_matmul_transpose_b"
        );
    }
}

/// An element whose every term is `-0.0`, and an element with no terms
/// at all, are both `+0.0`: the sums start from `+0.0`, on every path.
#[test]
fn all_negative_zero_terms_sum_to_positive_zero() {
    for (m, k, n) in [(1, 0, 1), (5, 0, 20), (1, 2, 1), (6, 3, 20), (9, 2, 33)] {
        let a = Matrix::from_fn(m, k, |_, _| 1.0);
        let b = Matrix::from_fn(k, n, |_, _| -0.0);
        let bt = b.transpose();
        let par = Parallelism::jobs(2);
        for c in [
            a.matmul_with(&b, KernelPolicy::Scalar),
            a.matmul_with(&b, KernelPolicy::Simd),
            a.matmul_transpose_b_with(&bt, KernelPolicy::Scalar),
            a.matmul_transpose_b_with(&bt, KernelPolicy::Simd),
            a.par_matmul(&b, par),
            a.par_matmul_transpose_b(&bt, par),
        ] {
            assert!(c.as_slice().iter().all(|x| x.to_bits() == 0), "{m}x{k}x{n}");
        }
    }
}
