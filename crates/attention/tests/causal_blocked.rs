//! Differential test of the block-tiled [`cta_forward_causal`] against
//! the per-query loop it replaced: output bits, `final_centroids` and
//! `score_evals` must all match on every seeded shape.
//!
//! The shapes cover block 1, blocks covering the whole sequence, ragged
//! tail blocks (fewer than 4 and fewer than 16 queries, where the scores
//! product leaves the register tile for its dot path), bucket widths
//! from singleton clusters to a single cluster, and tokens holding ±0.

use cta_attention::{
    cta_forward_causal, sample_families, AttentionWeights, CausalCtaAttention, CausalCtaConfig,
    CtaConfig,
};
use cta_lsh::StreamingCompressor;
use cta_tensor::{Matrix, MatrixRng};

/// The per-query loop `cta_forward_causal` ran before block tiling,
/// kept verbatim as the reference: every block re-projects every
/// centroid, and every query scores and sums its terms one by one.
fn per_query_reference(
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

    let mut block_start = 0usize;
    while block_start < n {
        let block_end = (block_start + config.block).min(n);

        // Compressed view of the past: centroids in token space, projected
        // once per block (the amortised analogue of the CTA linears).
        let (k_bar, v_bar, counts) = if past.is_empty() {
            (Matrix::zeros(0, d), Matrix::zeros(0, d), Vec::new())
        } else {
            // Borrowing view: O(k) per block instead of cloning the full
            // snapshot (whose cluster table grows with the prefix).
            let view = past.as_compression();
            let cents = Matrix::from_vec(view.k(), view.dim(), view.centroids_flat().to_vec());
            (cents.matmul(weights.wk()), cents.matmul(weights.wv()), view.counts().to_vec())
        };
        final_centroids = k_bar.rows();

        for i in block_start..block_end {
            let qrow = q.row(i);
            // Scores vs past centroids (population-weighted) and exact
            // scores vs in-block past tokens.
            let mut terms: Vec<(f32, f32, usize, bool)> = Vec::new(); // (score, weight_count, idx, is_centroid)
            let mut max = f32::NEG_INFINITY;
            for (c, &cnt) in counts.iter().enumerate().take(k_bar.rows()) {
                let s = Matrix::dot(qrow, k_bar.row(c)) * scale;
                max = max.max(s);
                terms.push((s, cnt as f32, c, true));
                score_evals += 1;
            }
            for j in block_start..=i {
                let s = Matrix::dot(qrow, k.row(j)) * scale;
                max = max.max(s);
                terms.push((s, 1.0, j, false));
                score_evals += 1;
            }
            let mut den = 0.0f32;
            let exps: Vec<f32> = terms
                .iter()
                .map(|&(s, cnt, _, _)| {
                    let w = cnt * (s - max).exp();
                    den += w;
                    w
                })
                .collect();
            let out = output.row_mut(i);
            for (t, &(_, _, idx, is_centroid)) in terms.iter().enumerate() {
                let w = exps[t] / den;
                let src = if is_centroid { v_bar.row(idx) } else { v.row(idx) };
                for (o, &vv) in out.iter_mut().zip(src) {
                    *o += w * vv;
                }
            }
        }

        // The finished block joins the compressed past.
        for t in block_start..block_end {
            past.push(tokens.row(t));
        }
        block_start = block_end;
    }

    CausalCtaAttention { output, final_centroids, score_evals }
}

/// Runs both paths on one input and asserts they agree bit for bit.
fn assert_same(tokens: &Matrix, weights: &AttentionWeights, config: &CausalCtaConfig, case: &str) {
    let blocked = cta_forward_causal(tokens, weights, config);
    let reference = per_query_reference(tokens, weights, config);
    assert_eq!(blocked.final_centroids, reference.final_centroids, "{case}: final_centroids");
    assert_eq!(blocked.score_evals, reference.score_evals, "{case}: score_evals");
    assert_eq!(blocked.output.shape(), reference.output.shape(), "{case}: shape");
    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (got, want) = (bits(&blocked.output), bits(&reference.output));
    if let Some(i) = got.iter().zip(&want).position(|(a, b)| a != b) {
        panic!(
            "{case}: output element {i} differs: {} vs {}",
            blocked.output.as_slice()[i],
            reference.output.as_slice()[i]
        );
    }
}

/// A seeded input: `n` tokens of width `token_dim`, a `head_dim` head.
fn input(seed: u64, n: usize, token_dim: usize, head_dim: usize) -> (Matrix, AttentionWeights) {
    let mut rng = MatrixRng::new(seed);
    (rng.normal_matrix(n, token_dim, 0.0, 1.0), AttentionWeights::random(token_dim, head_dim, seed))
}

fn config(block: usize, width: f32, seed: u64) -> CausalCtaConfig {
    CausalCtaConfig { block, inner: CtaConfig::uniform(width, seed) }
}

#[test]
fn random_shapes_match_the_per_query_loop() {
    let mut rng = MatrixRng::new(2024);
    for case in 0..150u64 {
        let n = 1 + rng.index(90);
        let block = 1 + rng.index(20);
        let token_dim = 1 + rng.index(12);
        let head_dim = 1 + rng.index(20);
        let width = rng.uniform(0.5, 4.0);
        let (x, w) = input(case, n, token_dim, head_dim);
        let cfg = config(block, width, case + 7);
        assert_same(&x, &w, &cfg, &format!("case {case}: n {n} block {block} width {width}"));
    }
}

#[test]
fn block_edges_match_the_per_query_loop() {
    // (n, block): block 1, block = n, block > n, n not a multiple of
    // block, tails of 3 and of 10 queries behind full 32- and 16-query
    // blocks, and blocks below the 16-query tile throughout.
    let shapes = [(40, 1), (48, 48), (30, 64), (50, 7), (67, 32), (74, 32), (35, 16), (29, 3)];
    for (i, &(n, block)) in shapes.iter().enumerate() {
        for width in [1.0, 2.5] {
            let (x, w) = input(100 + i as u64, n, 16, 16);
            let cfg = config(block, width, 200 + i as u64);
            assert_same(&x, &w, &cfg, &format!("n {n} block {block} width {width}"));
        }
    }
}

#[test]
fn bucket_widths_from_singletons_to_one_cluster_match() {
    for (i, width) in [1e-5f32, 0.1, 1.0, 4.0, 32.0, 1e4].into_iter().enumerate() {
        let (x, w) = input(300 + i as u64, 70, 8, 12);
        let cfg = config(9, width, 400 + i as u64);
        assert_same(&x, &w, &cfg, &format!("width {width}"));
    }
    // The extremes really are the extremes: all singletons, one cluster.
    let (x, w) = input(300, 70, 8, 12);
    let singletons = cta_forward_causal(&x, &w, &config(9, 1e-5, 400));
    assert_eq!(singletons.final_centroids, 63);
    let one = cta_forward_causal(&x, &w, &config(9, 1e4, 405));
    assert_eq!(one.final_centroids, 1);
}

#[test]
fn signed_zero_tokens_match() {
    let mut rng = MatrixRng::new(77);
    for case in 0..6u64 {
        let (mut x, w) = input(500 + case, 60, 8, 16);
        for r in 0..x.rows() {
            match rng.index(4) {
                0 => x.row_mut(r).fill(0.0),
                1 => x.row_mut(r).fill(-0.0),
                2 => {
                    for v in x.row_mut(r).iter_mut() {
                        if rng.index(2) == 0 {
                            *v = if rng.index(2) == 0 { 0.0 } else { -0.0 };
                        }
                    }
                }
                _ => {}
            }
        }
        let cfg = config(1 + rng.index(16), rng.uniform(0.5, 4.0), 600 + case);
        assert_same(&x, &w, &cfg, &format!("signed zeros, case {case}"));
    }
}

#[test]
fn benchmark_shaped_input_matches() {
    // The benchmark's head shape (d = 64, block 32) at a quarter of its
    // length, where most blocks revisit clusters earlier blocks made.
    let (x, w) = input(9, 256, 64, 64);
    let cfg = config(32, 4.0, 11);
    let got = cta_forward_causal(&x, &w, &cfg);
    assert!(got.final_centroids > 0 && got.final_centroids < 224, "{}", got.final_centroids);
    assert_same(&x, &w, &cfg, "benchmark shape");
}
