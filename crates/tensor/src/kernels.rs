//! The two f32 kernel paths: the scalar reference and the SIMD kernels
//! every un-suffixed entry point runs.
//!
//! [`KernelPolicy::current`] is always [`KernelPolicy::Simd`]; the
//! scalar loops stay reachable through the `_with(policy)` spellings as
//! the reference the differential tests compare against. The SIMD path
//! is **bitwise identical** to the scalar one — the same contract
//! `par_matmul` established for worker counts, extended to lane widths
//! and register tiling.
//!
//! Both products run one register-tiled microkernel. A tile holds
//! [`TILE_ROWS`] × [`TILE_COLS`] output elements (4 rows × two 8-lane
//! vectors) in accumulators for the whole of `k`, loads each `B` row
//! slice once per tile, and broadcasts one `A` element per row:
//!
//! * each output element starts at `+0.0` and adds its terms in exactly
//!   the scalar order (ascending `k`), so no reduction is ever split
//!   across lanes; the lanes are *independent output elements* (the `j`
//!   axis), where f32 multiply/add per lane is IEEE-identical to the
//!   scalar instruction;
//! * no FMA is ever emitted from these kernels (`mul` then `add` only):
//!   a fused multiply-add rounds once where the scalar kernel rounds
//!   twice, which would break the pin;
//! * `matmul` keeps the scalar per-row zero-skip (`a[i][k] == 0.0`
//!   skips that row's whole `k` term), because `0.0 * inf` is NaN and
//!   would otherwise change bits;
//! * `matmul_transpose_b` transposes `B` once per call (to `d × rows`)
//!   and runs the same tile *without* the skip: each element then adds
//!   `a[i][p]·b[j][p]` in ascending `p` from `+0.0`, which is the scalar
//!   dot product exactly, inf and NaN included;
//! * a product narrower than one tile (fewer than [`TILE_COLS`] output
//!   columns, e.g. the LSH hash projections) or shorter than one (fewer
//!   than [`TILE_ROWS`] rows, e.g. a single query row) keeps the
//!   transpose-free dot path instead: four output columns in flight,
//!   each a sequential dot.
//!
//! Row and column tails run the same tile: missing rows repeat a real
//! row and are never stored, missing columns are masked off on load and
//! store. The tile has an AVX2 body (detected once per panel) and a
//! portable lane-array twin with the same per-lane operations, which
//! other targets run.

use crate::Matrix;

/// Which implementation the hot inner loops use. Both produce
/// bitwise-identical results; they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPolicy {
    /// The reference loops: naive order, no blocking, no lanes.
    Scalar,
    /// The fast kernels: the f32 products' register tile (4 rows × 16
    /// columns), the quantized kernels' 4-wide i64 lanes and the
    /// hoisted PAG gather.
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

/// Output rows held in one register tile.
const TILE_ROWS: usize = 4;

/// f32 lanes per vector (AVX2 width).
const LANES: usize = 8;

/// Output columns held in one register tile: two vectors per row.
const TILE_COLS: usize = 2 * LANES;

/// The `A` rows one tile reads. Rows past the end of the panel repeat a
/// real row, so the tile always computes [`TILE_ROWS`] rows; only the
/// first `live` are stored.
type TileRows<'a> = [&'a [f32]; TILE_ROWS];

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
        KernelPolicy::Simd => tiled_panel::<true>(a, b.as_slice(), n, row0, panel),
    }
}

/// The operand [`matmul_tb_panel`] reads for `a · bᵀ`: `bᵀ` when the
/// product runs on the tile, `None` when it takes the scalar reference
/// or the narrow dot path. Computed once per product, so the parallel
/// row panels share one transposed copy.
pub(crate) fn transpose_for_tiles(policy: KernelPolicy, a: &Matrix, b: &Matrix) -> Option<Matrix> {
    let tiled = policy == KernelPolicy::Simd && b.rows() >= TILE_COLS && a.rows() >= TILE_ROWS;
    tiled.then(|| b.transpose())
}

/// Computes rows `row0..` of `a · bᵀ` into `panel` (`panel.len()` must
/// be a multiple of `b.rows()`). `bt` is what [`transpose_for_tiles`]
/// returned for the same operands. Shared by the serial entry points
/// and the `par_matmul_transpose_b` row-panel tasks.
pub(crate) fn matmul_tb_panel(
    policy: KernelPolicy,
    a: &Matrix,
    b: &Matrix,
    bt: Option<&Matrix>,
    row0: usize,
    panel: &mut [f32],
) {
    let n = b.rows();
    if n == 0 {
        return;
    }
    match (policy, bt) {
        (KernelPolicy::Scalar, _) => {
            for (local_r, out_row) in panel.chunks_mut(n).enumerate() {
                let a_row = a.row(row0 + local_r);
                // The reference per-(i, j) sequential-k dot product.
                for (j, o) in out_row.iter_mut().enumerate().take(n) {
                    *o = Matrix::dot(a_row, b.row(j));
                }
            }
        }
        (KernelPolicy::Simd, Some(bt)) => tiled_panel::<false>(a, bt.as_slice(), n, row0, panel),
        (KernelPolicy::Simd, None) => {
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
                    *o = Matrix::dot(a_row, b.row(jj));
                }
            }
        }
    }
}

/// Computes rows `row0..` of `a · b` into `panel` on the register tile,
/// where `b` is the row-major `a.cols() × n` right operand. `SKIP`
/// selects `matmul`'s zero-skip.
fn tiled_panel<const SKIP: bool>(a: &Matrix, b: &[f32], n: usize, row0: usize, panel: &mut [f32]) {
    let k = a.cols();
    let rows = panel.len() / n;
    #[cfg(target_arch = "x86_64")]
    let avx2 = is_x86_feature_detected!("avx2");
    for i in (0..rows).step_by(TILE_ROWS) {
        let live = (rows - i).min(TILE_ROWS);
        let a_rows: TileRows<'_> = std::array::from_fn(|r| a.row(row0 + i + r.min(live - 1)));
        let out = &mut panel[i * n..(i + live) * n];
        for j0 in (0..n).step_by(TILE_COLS) {
            let width = (n - j0).min(TILE_COLS);
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: AVX2 support was verified at runtime above.
                unsafe {
                    if width == TILE_COLS {
                        tile_avx2::<SKIP, false>(a_rows, k, b, n, j0, width, out, live);
                    } else {
                        tile_avx2::<SKIP, true>(a_rows, k, b, n, j0, width, out, live);
                    }
                }
                continue;
            }
            tile_portable::<SKIP>(a_rows, k, b, n, j0, width, out, live);
        }
    }
}

/// One tile, portable: the lane-array twin of [`tile_avx2`], with the
/// same mul-then-add per lane. Writes `out[r·n + j0 ..][..width]` for
/// the first `live` rows; `b` is row-major with `n` columns.
#[allow(clippy::too_many_arguments)]
fn tile_portable<const SKIP: bool>(
    a_rows: TileRows<'_>,
    k: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    width: usize,
    out: &mut [f32],
    live: usize,
) {
    let mut acc = [[0.0f32; TILE_COLS]; TILE_ROWS];
    let mut b_p = [0.0f32; TILE_COLS];
    for p in 0..k {
        b_p[..width].copy_from_slice(&b[p * n + j0..p * n + j0 + width]);
        for (acc_r, a_row) in acc.iter_mut().zip(a_rows) {
            let x = a_row[p];
            if SKIP && x == 0.0 {
                continue;
            }
            for (o, &y) in acc_r.iter_mut().zip(&b_p) {
                *o += x * y;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(live) {
        out[r * n + j0..r * n + j0 + width].copy_from_slice(&acc_r[..width]);
    }
}

/// One tile on AVX2: `vmulps` + `vaddps` (never FMA — a fused
/// multiply-add rounds once where the scalar kernel rounds twice, which
/// would break the bitwise pin). `MASKED` tiles (`width < TILE_COLS`)
/// load and store through a lane mask; arguments as [`tile_portable`].
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_avx2<const SKIP: bool, const MASKED: bool>(
    a_rows: TileRows<'_>,
    k: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    width: usize,
    out: &mut [f32],
    live: usize,
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_cmpgt_epi32, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps,
        _mm256_setr_epi32, _mm256_setzero_ps,
    };
    assert!((1..=TILE_COLS).contains(&width) && j0 + width <= n);
    assert!(b.len() >= k * n && out.len() >= live * n && a_rows.iter().all(|r| r.len() >= k));
    // Lane l of half h is live when 8h + l < width.
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mask = [
        _mm256_cmpgt_epi32(_mm256_set1_epi32(width as i32), lane),
        _mm256_cmpgt_epi32(_mm256_set1_epi32(width as i32 - LANES as i32), lane),
    ];
    let mut acc = [[_mm256_setzero_ps(); 2]; TILE_ROWS];
    let a_ptr = a_rows.map(<[f32]>::as_ptr);
    for p in 0..k {
        let b_ptr = b.as_ptr().wrapping_add(p * n + j0);
        // SAFETY: the live lanes of row `p` lie inside `b` (asserted).
        let b_p =
            [load::<MASKED>(b_ptr, mask[0]), load::<MASKED>(b_ptr.wrapping_add(LANES), mask[1])];
        for (acc_r, &a_row) in acc.iter_mut().zip(&a_ptr) {
            // SAFETY: every tile row holds at least `k` elements.
            let x = *a_row.add(p);
            if SKIP && x == 0.0 {
                continue;
            }
            let xv = _mm256_set1_ps(x);
            acc_r[0] = _mm256_add_ps(acc_r[0], _mm256_mul_ps(xv, b_p[0]));
            acc_r[1] = _mm256_add_ps(acc_r[1], _mm256_mul_ps(xv, b_p[1]));
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(live) {
        let o_ptr = out.as_mut_ptr().wrapping_add(r * n + j0);
        // SAFETY: the live lanes of output row `r` lie inside `out`.
        store::<MASKED>(o_ptr, mask[0], acc_r[0]);
        store::<MASKED>(o_ptr.wrapping_add(LANES), mask[1], acc_r[1]);
    }
}

/// Loads eight lanes from `ptr`, or only those `mask` selects.
///
/// # Safety
///
/// AVX2 must be available, and every lane read must lie in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn load<const MASKED: bool>(
    ptr: *const f32,
    mask: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::{_mm256_loadu_ps, _mm256_maskload_ps};
    if MASKED {
        _mm256_maskload_ps(ptr, mask)
    } else {
        _mm256_loadu_ps(ptr)
    }
}

/// Stores eight lanes to `ptr`, or only those `mask` selects.
///
/// # Safety
///
/// AVX2 must be available, and every lane written must lie in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn store<const MASKED: bool>(
    ptr: *mut f32,
    mask: std::arch::x86_64::__m256i,
    v: std::arch::x86_64::__m256,
) {
    use std::arch::x86_64::{_mm256_maskstore_ps, _mm256_storeu_ps};
    if MASKED {
        _mm256_maskstore_ps(ptr, mask, v);
    } else {
        _mm256_storeu_ps(ptr, v);
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

    /// The scalar loop one tile must reproduce: rows `0..live` of
    /// `a · b` over columns `j0..j0 + width`, zero-skip when `skip`.
    fn scalar_tile(
        a: &[Vec<f32>],
        b: &[f32],
        n: usize,
        j0: usize,
        width: usize,
        skip: bool,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; a.len() * n];
        for (r, a_row) in a.iter().enumerate() {
            for (p, &x) in a_row.iter().enumerate() {
                if skip && x == 0.0 {
                    continue;
                }
                for j in j0..j0 + width {
                    out[r * n + j] += x * b[p * n + j];
                }
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    #[test]
    fn tiles_match_the_scalar_loop_on_tail_shapes() {
        let special = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let mut state = 0x2545_f491_u32;
        let mut next = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            match state >> 27 {
                v @ 0..=4 => special[v as usize],
                _ => (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5,
            }
        };
        for live in 1..=TILE_ROWS {
            for k in [0usize, 1, 5, 33] {
                for (n, j0, width) in
                    [(16, 0, 16), (19, 16, 3), (40, 16, 16), (40, 32, 8), (7, 0, 7), (1, 0, 1)]
                {
                    let a: Vec<Vec<f32>> =
                        (0..live).map(|_| (0..k).map(|_| next()).collect()).collect();
                    let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
                    let a_rows: TileRows<'_> =
                        std::array::from_fn(|r| a[r.min(live - 1)].as_slice());
                    for skip in [false, true] {
                        let want = scalar_tile(&a, &b, n, j0, width, skip);
                        let mut portable = vec![0.0f32; live * n];
                        if skip {
                            tile_portable::<true>(a_rows, k, &b, n, j0, width, &mut portable, live);
                        } else {
                            tile_portable::<false>(
                                a_rows,
                                k,
                                &b,
                                n,
                                j0,
                                width,
                                &mut portable,
                                live,
                            );
                        }
                        let label =
                            format!("live={live} k={k} n={n} j0={j0} width={width} skip={skip}");
                        assert_eq!(bits(&portable), bits(&want), "portable {label}");
                        #[cfg(target_arch = "x86_64")]
                        if is_x86_feature_detected!("avx2") {
                            let mut avx2 = vec![0.0f32; live * n];
                            // SAFETY: AVX2 support was just verified.
                            unsafe {
                                match (skip, width == TILE_COLS) {
                                    (true, true) => tile_avx2::<true, false>(
                                        a_rows, k, &b, n, j0, width, &mut avx2, live,
                                    ),
                                    (true, false) => tile_avx2::<true, true>(
                                        a_rows, k, &b, n, j0, width, &mut avx2, live,
                                    ),
                                    (false, true) => tile_avx2::<false, false>(
                                        a_rows, k, &b, n, j0, width, &mut avx2, live,
                                    ),
                                    (false, false) => tile_avx2::<false, true>(
                                        a_rows, k, &b, n, j0, width, &mut avx2, live,
                                    ),
                                }
                            }
                            assert_eq!(bits(&avx2), bits(&want), "avx2 {label}");
                        }
                    }
                }
            }
        }
    }
}
