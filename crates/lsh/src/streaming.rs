//! Incremental token compression for generative decoding.
//!
//! The paper evaluates GPT-2, where inference is *incremental*: each
//! decode step appends one token to the key/value sequence. The cluster
//! tree is naturally incremental — assigning a new token touches one
//! root-to-leaf path and the centroid update is a running mean — so the
//! whole compression state can be maintained in O(l + d) per token instead
//! of recompressing the growing prefix every step. This module provides
//! that maintenance; batch equivalence with [`compress`](crate::compress)
//! is the defining property (tested below).
//!
//! # Two-level residual streaming
//!
//! The KV side of CTA is *two-level*: level 1 clusters the tokens, level 2
//! clusters the residuals `X_i − C¹_{CT₁[i]}` (paper Fig. 3b). Batch
//! compression computes every residual against the *final* level-1
//! centroids; a streaming compressor cannot — when token `t` arrives, the
//! centroid of its cluster will keep moving as later tokens join. The
//! scheme here (enabled by [`StreamingCompressor::two_level`]) therefore
//! maintains:
//!
//! * **stale residuals** — each appended token's residual is taken against
//!   its level-1 centroid *as of that push* and streamed into an inner
//!   one-level compressor (so level 2 is itself exactly batch-equivalent
//!   over the residual stream it saw);
//! * a **drift estimate** — every push that moves a level-1 centroid by
//!   `‖δ‖` leaves the stale residuals of that cluster's prior members off
//!   by the same displacement; the accumulated `Σ (n_c − 1)·‖δ‖`,
//!   normalised by the accumulated token norm, is a proxy for how far the
//!   streamed level-2 state has drifted from what a batch re-cluster
//!   would produce ([`StreamingCompressor::drift`]);
//! * a **re-cluster trigger** — when the drift estimate exceeds the
//!   configured threshold, [`StreamingCompressor::recluster`] rebuilds
//!   level 2 from the retained token buffer (the KV cache of the decode
//!   idiom): residuals are recomputed against the *current* level-1
//!   centroids and re-streamed, which makes the full two-level snapshot
//!   bitwise-equal to [`compress_two_level`](crate::compress_two_level)
//!   of the prefix at that instant (pinned by proptest below).

use cta_tensor::Matrix;

use crate::{ClusterTable, ClusterTree, Compression, LshFamily, TwoLevelCompression};

/// A borrowing view of the current compression state — the allocation-free
/// counterpart of [`StreamingCompressor::snapshot`], so per-token
/// telemetry over a long decode stays O(1) per step instead of cloning
/// the full centroid matrix and cluster table every token.
#[derive(Debug, Clone, Copy)]
pub struct CompressionView<'a> {
    d: usize,
    centroids: &'a [f32],
    counts: &'a [usize],
    assignments: &'a [usize],
}

impl<'a> CompressionView<'a> {
    /// Number of clusters `k`.
    pub fn k(&self) -> usize {
        self.counts.len()
    }

    /// Token dimension `d`.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Number of tokens compressed.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether no tokens have been pushed.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Centroid of cluster `c` (`d` elements).
    ///
    /// # Panics
    ///
    /// Panics if `c >= k()`.
    pub fn centroid(&self, c: usize) -> &'a [f32] {
        &self.centroids[c * self.d..(c + 1) * self.d]
    }

    /// The flattened `k × d` centroid matrix.
    pub fn centroids_flat(&self) -> &'a [f32] {
        self.centroids
    }

    /// Per-cluster populations.
    pub fn counts(&self) -> &'a [usize] {
        self.counts
    }

    /// Token → cluster assignments in push order.
    pub fn assignments(&self) -> &'a [usize] {
        self.assignments
    }

    /// Materialises an owned [`Compression`] (bitwise-equal to
    /// [`StreamingCompressor::snapshot`]).
    pub fn to_compression(&self) -> Compression {
        Compression {
            centroids: Matrix::from_vec(self.k(), self.d, self.centroids.to_vec()),
            counts: self.counts.to_vec(),
            table: ClusterTable::new(self.assignments.to_vec(), self.k()),
        }
    }
}

/// The residual (level-2) state of a two-level streaming compressor.
#[derive(Debug, Clone)]
struct ResidualLevel {
    /// Inner one-level compressor over the stale residual stream.
    stream: StreamingCompressor,
    /// Pristine family for re-cluster rebuilds (the inner stream's tree
    /// state is discarded and re-grown on every re-cluster).
    family: LshFamily,
    /// Retained token buffer (flattened `n × d` — the decode KV cache);
    /// re-clustering recomputes residuals from it.
    tokens: Vec<f32>,
    /// Accumulated `Σ (n_c − 1)·‖δ‖` of level-1 centroid displacements
    /// since the last re-cluster.
    drift_abs: f64,
    /// Accumulated `Σ ‖x_i‖` over all pushed tokens (drift normaliser).
    token_norm: f64,
    /// Re-cluster when `drift()` exceeds this (∞ disables the trigger).
    threshold: f64,
    /// Re-clusters performed so far.
    reclusters: usize,
    /// Token count at the last re-cluster.
    reclustered_at: usize,
    /// Scratch row for the residual being streamed, reused per token.
    residual_row: Vec<f32>,
}

/// An incrementally maintained compression: one-level by default
/// ([`StreamingCompressor::new`]), or the full two-level residual-centroid
/// scheme of the paper's KV side ([`StreamingCompressor::two_level`]).
///
/// ```
/// use cta_lsh::{compress, LshFamily, LshParams, StreamingCompressor};
/// use cta_tensor::standard_normal_matrix;
///
/// let family = LshFamily::sample(8, LshParams::new(4, 2.0), 1);
/// let tokens = standard_normal_matrix(2, 10, 8);
///
/// let mut stream = StreamingCompressor::new(family.clone());
/// for t in 0..tokens.rows() {
///     stream.push(tokens.row(t));
/// }
/// // Identical to compressing the batch at once.
/// assert_eq!(stream.snapshot(), compress(&tokens, &family));
/// ```
#[derive(Debug, Clone)]
pub struct StreamingCompressor {
    family: LshFamily,
    tree: ClusterTree,
    /// Per-cluster running sums, flattened `k × d`.
    sums: Vec<f32>,
    counts: Vec<usize>,
    assignments: Vec<usize>,
    /// Cached centroids, flattened `k × d`: only the pushed token's
    /// cluster row is recomputed per push, so reading the state is
    /// allocation-free ([`Self::as_compression`]). Values are bitwise the
    /// batch centroids — untouched rows' sums and counts are unchanged,
    /// and the touched row uses the same reciprocal-multiply expression
    /// as `aggregate_centroids`.
    centroids: Vec<f32>,
    /// Level-2 residual state, present in two-level mode.
    residual: Option<Box<ResidualLevel>>,
    /// Scratch hash code of the token being pushed, reused per token.
    code: Vec<i32>,
}

impl StreamingCompressor {
    /// Creates an empty one-level compressor for the given family.
    pub fn new(family: LshFamily) -> Self {
        let l = family.hash_length();
        Self {
            family,
            tree: ClusterTree::new(l),
            sums: Vec::new(),
            counts: Vec::new(),
            assignments: Vec::new(),
            centroids: Vec::new(),
            residual: None,
            code: Vec::with_capacity(l),
        }
    }

    /// Creates an empty *two-level* compressor: `family1` clusters the
    /// tokens, `family2` clusters the stale residuals, and a re-cluster
    /// is triggered whenever [`Self::drift`] exceeds
    /// `recluster_threshold` (pass `f64::INFINITY` to disable the
    /// automatic trigger and re-cluster manually).
    ///
    /// # Panics
    ///
    /// Panics if the families' dimensions differ or the threshold is NaN
    /// or non-positive.
    pub fn two_level(family1: LshFamily, family2: LshFamily, recluster_threshold: f64) -> Self {
        assert_eq!(family1.dim(), family2.dim(), "family dimensions must match");
        assert!(
            recluster_threshold > 0.0 && !recluster_threshold.is_nan(),
            "re-cluster threshold must be positive (inf disables the trigger)"
        );
        let mut s = Self::new(family1);
        s.residual = Some(Box::new(ResidualLevel {
            stream: StreamingCompressor::new(family2.clone()),
            family: family2,
            tokens: Vec::new(),
            drift_abs: 0.0,
            token_norm: 0.0,
            threshold: recluster_threshold,
            reclusters: 0,
            reclustered_at: 0,
            residual_row: Vec::new(),
        }));
        s
    }

    /// Whether the compressor maintains the residual (second) level.
    pub fn is_two_level(&self) -> bool {
        self.residual.is_some()
    }

    /// Number of tokens pushed so far.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether no tokens have been pushed.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Current cluster count `k` (level 1).
    pub fn cluster_count(&self) -> usize {
        self.counts.len()
    }

    /// Appends one token, returning its level-1 cluster index. Cost: `l`
    /// hash values, one tree walk, one `d`-wide sum update — twice that
    /// plus a `d`-wide subtraction in two-level mode. May trigger a
    /// re-cluster (O(n·(l + d)) against the retained buffer) when the
    /// drift estimate crosses the threshold. The hash code and the
    /// residual go through scratch buffers the compressor owns, so a push
    /// allocates only to grow its state (a new cluster, tree node or
    /// retained token).
    ///
    /// # Panics
    ///
    /// Panics if `token.len() != family.dim()`.
    pub fn push(&mut self, token: &[f32]) -> usize {
        self.family.hash_code_into(token, &mut self.code);
        let cluster = self.tree.assign(&self.code);
        let d = self.family.dim();
        if cluster == self.counts.len() {
            self.counts.push(0);
            self.sums.extend(std::iter::repeat_n(0.0, d));
            self.centroids.extend(std::iter::repeat_n(0.0, d));
        }
        let prior_members = self.counts[cluster];
        self.counts[cluster] += 1;
        for (s, &x) in self.sums[cluster * d..(cluster + 1) * d].iter_mut().zip(token) {
            *s += x;
        }
        // Refresh the cached centroid row. The reciprocal multiply (not a
        // divide) keeps the cache bit-identical to `aggregate_centroids`.
        let inv = 1.0 / self.counts[cluster] as f32;
        let mut displacement_sq = 0.0f64;
        for j in 0..d {
            let new = self.sums[cluster * d + j] * inv;
            if prior_members > 0 {
                let delta = (new - self.centroids[cluster * d + j]) as f64;
                displacement_sq += delta * delta;
            }
            self.centroids[cluster * d + j] = new;
        }
        self.assignments.push(cluster);

        if let Some(res) = &mut self.residual {
            // Stale residual against the post-push centroid; prior members
            // of the cluster are now off by the displacement — account it.
            res.drift_abs += prior_members as f64 * displacement_sq.sqrt();
            res.token_norm += token.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt();
            res.tokens.extend_from_slice(token);
            let base = &self.centroids[cluster * d..(cluster + 1) * d];
            res.residual_row.clear();
            res.residual_row.extend(token.iter().zip(base).map(|(&x, &c)| x - c));
            res.stream.push(&res.residual_row);
            if self.drift() > self.recluster_threshold() {
                self.recluster();
            }
        }
        cluster
    }

    /// The relative drift estimate: accumulated level-1 centroid
    /// displacement weighted by affected members, over the accumulated
    /// token norm. 0 for a one-level compressor, and reset to 0 by
    /// [`Self::recluster`].
    pub fn drift(&self) -> f64 {
        match &self.residual {
            Some(res) if res.token_norm > 0.0 => res.drift_abs / res.token_norm,
            _ => 0.0,
        }
    }

    /// The configured re-cluster threshold (∞ for one-level compressors
    /// and disabled triggers).
    pub fn recluster_threshold(&self) -> f64 {
        self.residual.as_ref().map_or(f64::INFINITY, |r| r.threshold)
    }

    /// Re-clusters performed so far (0 in one-level mode).
    pub fn reclusters(&self) -> usize {
        self.residual.as_ref().map_or(0, |r| r.reclusters)
    }

    /// Tokens pushed since the last re-cluster (= [`Self::len`] if none
    /// has happened).
    pub fn tokens_since_recluster(&self) -> usize {
        self.len() - self.residual.as_ref().map_or(0, |r| r.reclustered_at)
    }

    /// Rebuilds level 2 from the retained token buffer: residuals are
    /// recomputed against the *current* level-1 centroids and re-streamed
    /// through a fresh inner compressor, then the drift estimate resets.
    /// Afterwards [`Self::two_level_snapshot`] is bitwise-equal to
    /// [`compress_two_level`](crate::compress_two_level) of the prefix.
    ///
    /// No-op for a one-level compressor.
    pub fn recluster(&mut self) {
        let d = self.family.dim();
        let Some(res) = &mut self.residual else { return };
        let mut fresh = StreamingCompressor::new(res.family.clone());
        for (i, &cluster) in self.assignments.iter().enumerate() {
            let token = &res.tokens[i * d..(i + 1) * d];
            let base = &self.centroids[cluster * d..(cluster + 1) * d];
            res.residual_row.clear();
            res.residual_row.extend(token.iter().zip(base).map(|(&x, &c)| x - c));
            fresh.push(&res.residual_row);
        }
        res.stream = fresh;
        res.drift_abs = 0.0;
        res.reclusters += 1;
        res.reclustered_at = self.assignments.len();
    }

    /// The current level-1 centroid matrix (`k × d`, running means).
    pub fn centroids(&self) -> Matrix {
        Matrix::from_vec(self.counts.len(), self.family.dim(), self.centroids.clone())
    }

    /// The current level-1 cluster table.
    pub fn table(&self) -> ClusterTable {
        ClusterTable::new(self.assignments.clone(), self.counts.len())
    }

    /// A borrowing view of the level-1 state: no clone, no allocation.
    /// Use this for per-token telemetry; [`Self::snapshot`] for an owned
    /// copy.
    pub fn as_compression(&self) -> CompressionView<'_> {
        CompressionView {
            d: self.family.dim(),
            centroids: &self.centroids,
            counts: &self.counts,
            assignments: &self.assignments,
        }
    }

    /// A borrowing view of the level-2 (stale-residual) state, if the
    /// compressor is two-level.
    pub fn residual_compression(&self) -> Option<CompressionView<'_>> {
        self.residual.as_ref().map(|r| r.stream.as_compression())
    }

    /// A full owned [`Compression`] snapshot of the level-1 state.
    pub fn snapshot(&self) -> Compression {
        self.as_compression().to_compression()
    }

    /// A full owned [`TwoLevelCompression`] snapshot: level 1 plus the
    /// current (stale-residual) level 2. Bitwise-equal to
    /// [`compress_two_level`](crate::compress_two_level) of the prefix
    /// immediately after a [`Self::recluster`].
    ///
    /// # Panics
    ///
    /// Panics if the compressor is one-level.
    pub fn two_level_snapshot(&self) -> TwoLevelCompression {
        let res = self.residual.as_ref().expect("two_level_snapshot needs a two-level compressor");
        TwoLevelCompression { level1: self.snapshot(), level2: res.stream.snapshot() }
    }

    /// Scalar operations spent per pushed token: `l·d` hash MACs plus the
    /// `d` centroid-sum additions per maintained level (the tree walk is
    /// `l` pointer steps), plus the `d`-wide residual subtraction in
    /// two-level mode.
    pub fn ops_per_token(&self) -> u64 {
        let per_level = (self.family.hash_length() * self.family.dim() + self.family.dim()) as u64;
        if self.residual.is_some() {
            2 * per_level + self.family.dim() as u64
        } else {
            per_level
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, compress_two_level, LshParams};
    use cta_tensor::MatrixRng;
    use proptest::prelude::*;

    fn family(seed: u64) -> LshFamily {
        LshFamily::sample(6, LshParams::new(4, 1.5), seed)
    }

    /// A coarse family (few, wide hashes) so tokens actually share
    /// clusters and level-1 centroids move — needed by the drift tests.
    fn coarse_family(seed: u64) -> LshFamily {
        LshFamily::sample(6, LshParams::new(2, 20.0), seed)
    }

    #[test]
    fn streaming_equals_batch_compression() {
        let mut rng = MatrixRng::new(3);
        let tokens = rng.normal_matrix(40, 6, 0.0, 1.0);
        let fam = family(9);
        let mut stream = StreamingCompressor::new(fam.clone());
        for t in 0..tokens.rows() {
            stream.push(tokens.row(t));
        }
        assert_eq!(stream.snapshot(), compress(&tokens, &fam));
    }

    #[test]
    fn snapshots_are_consistent_at_every_prefix() {
        let mut rng = MatrixRng::new(5);
        let tokens = rng.normal_matrix(24, 6, 0.0, 1.0);
        let fam = family(11);
        let mut stream = StreamingCompressor::new(fam.clone());
        for t in 0..tokens.rows() {
            stream.push(tokens.row(t));
            let prefix = tokens.slice_rows(0, t + 1);
            assert_eq!(stream.snapshot(), compress(&prefix, &fam), "prefix {t}");
        }
    }

    #[test]
    fn view_borrows_without_cloning_and_matches_snapshot() {
        let mut rng = MatrixRng::new(6);
        let tokens = rng.normal_matrix(20, 6, 0.0, 1.0);
        let mut stream = StreamingCompressor::new(family(19));
        for t in 0..tokens.rows() {
            stream.push(tokens.row(t));
            let view = stream.as_compression();
            assert_eq!(view.len(), t + 1);
            assert_eq!(view.counts().iter().sum::<usize>(), t + 1);
            assert_eq!(view.to_compression(), stream.snapshot(), "prefix {t}");
            // Centroid rows index the flat cache consistently.
            for c in 0..view.k() {
                assert_eq!(view.centroid(c), &view.centroids_flat()[c * 6..(c + 1) * 6]);
            }
        }
    }

    #[test]
    fn push_returns_tree_assignment() {
        let fam = family(13);
        let mut stream = StreamingCompressor::new(fam);
        let a = stream.push(&[0.0; 6]);
        let b = stream.push(&[0.0; 6]);
        let c = stream.push(&[10.0; 6]);
        assert_eq!(a, 0);
        assert_eq!(b, 0);
        assert_eq!(c, 1);
        assert_eq!(stream.cluster_count(), 2);
        assert_eq!(stream.len(), 3);
        assert!(!stream.is_two_level());
        assert_eq!(stream.drift(), 0.0, "one-level compressors never drift");
    }

    #[test]
    fn ops_per_token_is_constant_in_sequence_length() {
        let fam = family(17);
        let mut stream = StreamingCompressor::new(fam);
        let before = stream.ops_per_token();
        for _ in 0..50 {
            stream.push(&[1.0; 6]);
        }
        assert_eq!(stream.ops_per_token(), before);
        assert_eq!(before, (4 * 6 + 6) as u64);
        // Two levels cost two maintenance passes plus the residual
        // subtraction.
        let two = StreamingCompressor::two_level(family(17), family(18), f64::INFINITY);
        assert_eq!(two.ops_per_token(), 2 * before + 6);
    }

    #[test]
    fn two_level_drift_grows_and_recluster_resets_it() {
        let mut rng = MatrixRng::new(8);
        let tokens = rng.normal_matrix(40, 6, 0.0, 1.5);
        let mut stream =
            StreamingCompressor::two_level(coarse_family(21), coarse_family(22), f64::INFINITY);
        let mut last = 0.0;
        let mut grew = false;
        for t in 0..tokens.rows() {
            stream.push(tokens.row(t));
            let d = stream.drift();
            assert!(d >= 0.0 && d.is_finite());
            if d > last {
                grew = true;
            }
            last = d;
        }
        assert!(grew, "drift never accumulated over 40 tokens");
        assert!(stream.drift() > 0.0);
        stream.recluster();
        assert_eq!(stream.drift(), 0.0);
        assert_eq!(stream.reclusters(), 1);
        assert_eq!(stream.tokens_since_recluster(), 0);
    }

    #[test]
    fn tight_threshold_triggers_automatic_reclusters() {
        let mut rng = MatrixRng::new(9);
        let tokens = rng.normal_matrix(60, 6, 0.0, 1.5);
        let mut auto = StreamingCompressor::two_level(coarse_family(23), coarse_family(24), 1e-6);
        for t in 0..tokens.rows() {
            auto.push(tokens.row(t));
            assert!(
                auto.drift() <= 1e-6 || auto.tokens_since_recluster() == 0,
                "drift {} above threshold without a re-cluster",
                auto.drift()
            );
        }
        assert!(auto.reclusters() > 0, "tight threshold must re-cluster");
        // A slack threshold on the same stream never triggers.
        let mut slack =
            StreamingCompressor::two_level(coarse_family(23), coarse_family(24), f64::INFINITY);
        for t in 0..tokens.rows() {
            slack.push(tokens.row(t));
        }
        assert_eq!(slack.reclusters(), 0);
    }

    #[test]
    fn recluster_matches_batch_two_level_exactly() {
        let mut rng = MatrixRng::new(10);
        let tokens = rng.normal_matrix(32, 6, 0.0, 1.0);
        let f1 = family(25);
        let f2 = family(26);
        let mut stream = StreamingCompressor::two_level(f1.clone(), f2.clone(), f64::INFINITY);
        for t in 0..tokens.rows() {
            stream.push(tokens.row(t));
        }
        stream.recluster();
        assert_eq!(stream.two_level_snapshot(), compress_two_level(&tokens, &f1, &f2));
    }

    #[test]
    #[should_panic(expected = "re-cluster threshold must be positive")]
    fn zero_threshold_rejected() {
        let _ = StreamingCompressor::two_level(family(1), family(2), 0.0);
    }

    #[test]
    #[should_panic(expected = "two_level_snapshot needs a two-level compressor")]
    fn one_level_snapshot_of_two_levels_rejected() {
        let _ = StreamingCompressor::new(family(1)).two_level_snapshot();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn equivalence_with_batch(seed in 0u64..500, n in 1usize..60) {
            let mut rng = MatrixRng::new(seed);
            let tokens = rng.normal_matrix(n, 6, 0.0, 1.5);
            let fam = family(seed + 1);
            let mut stream = StreamingCompressor::new(fam.clone());
            for t in 0..n {
                stream.push(tokens.row(t));
            }
            prop_assert_eq!(stream.snapshot(), compress(&tokens, &fam));
        }

        /// The two-level equivalence pin at *every* prefix length:
        /// re-clustering a clone of the streamed state is bitwise-equal
        /// to batch `compress_two_level` of the prefix, level 1 alone is
        /// bitwise-equal to batch `compress`, and the streamed level 2 is
        /// bitwise-equal to batch `compress` of the stale residual stream
        /// it was fed.
        #[test]
        fn two_level_equivalence_with_batch_at_every_prefix(
            seed in 0u64..200,
            n in 1usize..40,
        ) {
            let mut rng = MatrixRng::new(seed);
            let tokens = rng.normal_matrix(n, 6, 0.0, 1.5);
            let f1 = family(seed + 1);
            let f2 = family(seed + 2);
            let mut stream =
                StreamingCompressor::two_level(f1.clone(), f2.clone(), f64::INFINITY);
            let mut stale_rows: Vec<Vec<f32>> = Vec::new();
            for t in 0..n {
                let cluster = stream.push(tokens.row(t));
                let view = stream.as_compression();
                stale_rows.push(
                    tokens.row(t).iter().zip(view.centroid(cluster)).map(|(&x, &c)| x - c).collect(),
                );
                let prefix = tokens.slice_rows(0, t + 1);

                // Level 1 is exactly batch at every prefix.
                prop_assert_eq!(stream.snapshot(), compress(&prefix, &f1));

                // Level 2 is exactly batch over the stale residual stream.
                let refs: Vec<&[f32]> = stale_rows.iter().map(|r| r.as_slice()).collect();
                let stale = Matrix::from_rows(&refs);
                prop_assert_eq!(
                    stream.residual_compression().expect("two-level").to_compression(),
                    compress(&stale, &f2)
                );

                // Re-clustering a clone lands exactly on batch two-level.
                let mut reclustered = stream.clone();
                reclustered.recluster();
                prop_assert_eq!(
                    reclustered.two_level_snapshot(),
                    compress_two_level(&prefix, &f1, &f2)
                );
            }
        }
    }
}
