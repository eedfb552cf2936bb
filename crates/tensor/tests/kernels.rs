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
    // KC = 64 and NC = 256 internally; straddle both, plus the 8-lane
    // and 4-column chunk tails. The last case is the paper's SQuAD
    // shape (n = 384, d = 64): `n×d · d×n` and `n×d · (n×d)ᵀ`.
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
