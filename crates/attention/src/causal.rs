//! Causal (autoregressive) attention and a blocked-causal CTA variant.
//!
//! The paper evaluates GPT-2 but does not spell out how token compression
//! interacts with the causal mask — centroids mix past and future tokens,
//! which a causal model must never see. This module supplies the missing
//! construction as a documented extension:
//!
//! * [`attention_exact_causal`] — the masked reference;
//! * [`cta_forward_causal`] — **blocked-causal CTA**: the sequence is cut
//!   into blocks of `block` tokens; queries in block `c` attend over (a)
//!   the *compressed centroids of strictly earlier blocks*, weighted by
//!   their populations, and (b) their own block's past tokens *exactly*.
//!   Because centroids only ever aggregate strictly-past tokens, the
//!   scheme is leakage-free **by construction**; because the in-block
//!   part is exact, the approximation error comes only from the same
//!   centroid substitution the non-causal scheme makes.
//!
//! Two limits recover exactness (tested): `block ≥ n` (everything
//! in-block) and vanishing bucket widths (singleton clusters).

use cta_lsh::StreamingCompressor;
use cta_tensor::Matrix;

use crate::scheme::sample_families;
use crate::{AttentionWeights, CtaConfig};

/// Runs exact causal self-attention (`scores[i][j] = -inf` for `j > i`).
///
/// # Panics
///
/// Panics if `tokens.cols() != weights.token_dim()` or `tokens` is empty.
pub fn attention_exact_causal(tokens: &Matrix, weights: &AttentionWeights) -> Matrix {
    assert!(tokens.rows() > 0, "empty token matrix");
    assert_eq!(tokens.cols(), weights.token_dim(), "token dim mismatch");
    let q = tokens.matmul(weights.wq());
    let k = tokens.matmul(weights.wk());
    let v = tokens.matmul(weights.wv());
    let n = tokens.rows();
    let scale = 1.0 / (weights.head_dim() as f32).sqrt();

    let mut output = Matrix::zeros(n, weights.head_dim());
    for i in 0..n {
        let qrow = q.row(i);
        let mut scores = Vec::with_capacity(i + 1);
        let mut max = f32::NEG_INFINITY;
        for j in 0..=i {
            let s = Matrix::dot(qrow, k.row(j)) * scale;
            max = max.max(s);
            scores.push(s);
        }
        let mut den = 0.0f32;
        let weights_row: Vec<f32> = scores
            .iter()
            .map(|&s| {
                let w = (s - max).exp();
                den += w;
                w
            })
            .collect();
        let out = output.row_mut(i);
        for (j, &w) in weights_row.iter().enumerate() {
            for (o, &vv) in out.iter_mut().zip(v.row(j)) {
                *o += w / den * vv;
            }
        }
    }
    output
}

/// Configuration of the blocked-causal CTA scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CausalCtaConfig {
    /// Block size: earlier blocks are compressed, the current block is
    /// attended exactly.
    pub block: usize,
    /// The compression configuration (its `kv_bucket_width` drives the
    /// one-level centroid clustering of past blocks).
    pub inner: CtaConfig,
}

/// Result of a blocked-causal CTA pass.
#[derive(Debug, Clone)]
pub struct CausalCtaAttention {
    /// `n × d` causal attention output.
    pub output: Matrix,
    /// Centroid count visible to the *last* block's queries (the steady
    /// state of the compressed past).
    pub final_centroids: usize,
    /// Score evaluations spent, compressed + exact (versus `n(n+1)/2`
    /// exact-causal).
    pub score_evals: u64,
}

/// Runs blocked-causal CTA self-attention.
///
/// The loop is block-tiled. K̄ and V̄ (the projected centroids of the
/// compressed past) live for the whole forward; at each block only the
/// centroids the previous block's pushes touched are re-projected, and
/// each block then runs one scores product and one output product over
/// `[K̄; K_block]` and `[V̄; V_block]`. Every product element adds its
/// terms from `+0.0` in the order the per-query reference loop does
/// (centroids, then in-block tokens up to the query), so the result is
/// that loop's bit for bit on finite inputs. The one difference: the
/// output product skips an exactly-zero weight (masked or underflowed),
/// so a non-finite value row may differ from the per-query loop only
/// where its weight is exactly 0 (the loop would add `0·inf = NaN`).
///
/// # Panics
///
/// Panics if `tokens` is empty, dimensions mismatch, or `block == 0`.
pub fn cta_forward_causal(
    tokens: &Matrix,
    weights: &AttentionWeights,
    config: &CausalCtaConfig,
) -> CausalCtaAttention {
    assert!(tokens.rows() > 0, "empty token matrix");
    assert_eq!(tokens.cols(), weights.token_dim(), "token dim mismatch");
    assert!(config.block > 0, "block size must be positive");
    let n = tokens.rows();
    let d = weights.head_dim();
    let scale = 1.0 / (d as f32).sqrt();

    let q = tokens.matmul(weights.wq());
    let k = tokens.matmul(weights.wk());
    let v = tokens.matmul(weights.wv());

    // Streaming one-level compressor over the strictly-past blocks.
    let [_, f1, _] = sample_families(&config.inner, weights.token_dim());
    let mut past = StreamingCompressor::new(f1);

    let mut output = Matrix::zeros(n, d);
    let mut score_evals = 0u64;
    let mut final_centroids = 0usize;

    // `[K̄; K_block]` and `[V̄; V_block]`, flattened: the first `k̄` rows
    // persist across blocks, the block's own rows are replaced per block.
    let mut keys: Vec<f32> = Vec::new();
    let mut values: Vec<f32> = Vec::new();
    // Clusters the previous block's pushes touched (new ones included).
    let mut dirty: Vec<usize> = Vec::new();
    // The block's `b × (k̄ + b)` softmax weights, zero past each causal prefix.
    let mut probs: Vec<f32> = Vec::new();

    let mut block_start = 0usize;
    while block_start < n {
        let block_end = (block_start + config.block).min(n);
        let b = block_end - block_start;
        let view = past.as_compression();
        let centroids = view.k();
        final_centroids = centroids;

        // Only a touched cluster's centroid moved, so only its row of
        // `C·Wk` / `C·Wv` changes. Matmul rows are independent (each
        // element sums from +0.0 in ascending order), so a gathered row
        // has the bits it would have in the full product. Resizing drops
        // the previous block's own rows; any row that leaves in place or
        // adds belongs to a new cluster, which is dirty.
        keys.resize(centroids * d, 0.0);
        values.resize(centroids * d, 0.0);
        if !dirty.is_empty() {
            dirty.sort_unstable();
            dirty.dedup();
            let mut rows = Vec::with_capacity(dirty.len() * view.dim());
            for &c in &dirty {
                rows.extend_from_slice(view.centroid(c));
            }
            let cents = Matrix::from_vec(dirty.len(), view.dim(), rows);
            let (k_dirty, v_dirty) = (cents.matmul(weights.wk()), cents.matmul(weights.wv()));
            for (i, &c) in dirty.iter().enumerate() {
                keys[c * d..(c + 1) * d].copy_from_slice(k_dirty.row(i));
                values[c * d..(c + 1) * d].copy_from_slice(v_dirty.row(i));
            }
            dirty.clear();
        }
        keys.extend_from_slice(&k.as_slice()[block_start * d..block_end * d]);
        values.extend_from_slice(&v.as_slice()[block_start * d..block_end * d]);
        let m = centroids + b;

        // One `m × b` scores product: element (t, r) is `dot(key_t, q_r)`,
        // which is `Matrix::dot(q_r, key_t)` exactly (`x·y == y·x` in
        // IEEE). This orientation transposes only the block's queries.
        let key_mat = Matrix::from_vec(m, d, std::mem::take(&mut keys));
        let scores = key_mat.matmul_transpose_b(&q.slice_rows(block_start, block_end));
        keys = key_mat.into_vec();
        let scores = scores.as_slice();

        // Query r sees every centroid and the block's tokens 0..=r.
        let counts = view.counts();
        probs.clear();
        probs.resize(b * m, 0.0);
        for (r, row) in probs.chunks_mut(m).enumerate() {
            let row = &mut row[..centroids + r + 1];
            let mut max = f32::NEG_INFINITY;
            for (t, p) in row.iter_mut().enumerate() {
                let s = scores[t * b + r] * scale;
                max = max.max(s);
                *p = s;
            }
            let mut den = 0.0f32;
            for (t, p) in row.iter_mut().enumerate() {
                let cnt = if t < centroids { counts[t] as f32 } else { 1.0 };
                *p = cnt * (*p - max).exp();
                den += *p;
            }
            for p in row.iter_mut() {
                *p /= den;
            }
            score_evals += row.len() as u64;
        }

        // One `b × d` output product: it adds `w·v` in ascending t from
        // +0.0 with mul then add, as the per-query loop did; its zero-skip
        // drops the masked entries, and an underflowed `w == 0` only ever
        // added a ±0 to an accumulator that cannot be −0.0.
        let prob_mat = Matrix::from_vec(b, m, std::mem::take(&mut probs));
        let value_mat = Matrix::from_vec(m, d, std::mem::take(&mut values));
        let block_out = prob_mat.matmul(&value_mat);
        output.as_mut_slice()[block_start * d..block_end * d].copy_from_slice(block_out.as_slice());
        probs = prob_mat.into_vec();
        values = value_mat.into_vec();

        // The finished block joins the compressed past.
        for t in block_start..block_end {
            dirty.push(past.push(tokens.row(t)));
        }
        block_start = block_end;
    }

    CausalCtaAttention { output, final_centroids, score_evals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_tensor::{relative_error, standard_normal_matrix};

    fn setup(n: usize) -> (Matrix, AttentionWeights) {
        (standard_normal_matrix(3, n, 8), AttentionWeights::random(8, 4, 4))
    }

    #[test]
    fn exact_causal_masks_the_future() {
        // Output at position 0 depends only on token 0: change the tail,
        // position 0 must not move.
        let (x, w) = setup(12);
        let base = attention_exact_causal(&x, &w);
        let mut altered = x.clone();
        for j in 0..8 {
            altered[(11, j)] += 5.0;
        }
        let after = attention_exact_causal(&altered, &w);
        assert_eq!(base.row(0), after.row(0));
        assert_ne!(base.row(11), after.row(11));
    }

    #[test]
    fn block_covering_everything_is_exact() {
        let (x, w) = setup(20);
        let cfg = CausalCtaConfig { block: 20, inner: CtaConfig::uniform(2.0, 5) };
        let cta = cta_forward_causal(&x, &w, &cfg);
        let exact = attention_exact_causal(&x, &w);
        assert!(relative_error(&cta.output, &exact) < 1e-5);
        assert_eq!(cta.final_centroids, 0);
    }

    #[test]
    fn singleton_clusters_are_exact_at_any_block_size() {
        let (x, w) = setup(24);
        let cfg = CausalCtaConfig { block: 4, inner: CtaConfig::new(6, 1e-5, 1e-5, 1e-5, 7) };
        let cta = cta_forward_causal(&x, &w, &cfg);
        let exact = attention_exact_causal(&x, &w);
        let err = relative_error(&cta.output, &exact);
        assert!(err < 1e-4, "singleton causal error {err}");
    }

    #[test]
    fn compression_is_leakage_free() {
        // Changing future tokens never changes earlier outputs, at any
        // compression level.
        let (x, w) = setup(32);
        let cfg = CausalCtaConfig { block: 8, inner: CtaConfig::uniform(4.0, 9) };
        let base = cta_forward_causal(&x, &w, &cfg);
        let mut altered = x.clone();
        for j in 0..8 {
            altered[(31, j)] += 3.0;
        }
        let after = cta_forward_causal(&altered, &w, &cfg);
        for i in 0..24 {
            assert_eq!(base.output.row(i), after.output.row(i), "position {i} saw the future");
        }
    }

    #[test]
    fn compression_reduces_score_evaluations() {
        let x = {
            // Redundant sequence: repeat 8 distinct rows.
            let base = standard_normal_matrix(11, 8, 8);
            let idx: Vec<usize> = (0..64).map(|i| i % 8).collect();
            base.gather_rows(&idx)
        };
        let w = AttentionWeights::random(8, 4, 12);
        let cfg = CausalCtaConfig { block: 8, inner: CtaConfig::uniform(1.0, 13) };
        let cta = cta_forward_causal(&x, &w, &cfg);
        let exact_evals = (64 * 65 / 2) as u64;
        assert!(
            cta.score_evals < exact_evals / 2,
            "evals {} vs exact {exact_evals}",
            cta.score_evals
        );
        let exact = attention_exact_causal(&x, &w);
        let err = relative_error(&cta.output, &exact);
        assert!(err < 0.05, "causal error {err}");
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_rejected() {
        let (x, w) = setup(4);
        let _ = cta_forward_causal(
            &x,
            &w,
            &CausalCtaConfig { block: 0, inner: CtaConfig::uniform(1.0, 1) },
        );
    }
}
