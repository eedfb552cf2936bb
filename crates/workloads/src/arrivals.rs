//! Case-derived serving workloads.
//!
//! The serving experiments (the `cta-serve` fleet runtime and its sweeps)
//! replay whole-model requests. [`case_task`] derives the request shape
//! from an evaluation [`TestCase`] so the served workload matches the
//! accuracy experiments: the case's model (layers × heads at the
//! dataset's sequence length) with per-head compression counts at
//! CTA-0-grade ratios. The arrival processes themselves live in
//! `cta-serve`'s load generators.

use cta_sim::AttentionTask;

use crate::TestCase;

/// The per-head attention task a `case` presents to the accelerator,
/// with compression counts at the CTA-0-grade ratios the operating-point
/// search typically lands on (`k₀ ≈ 0.4·m`, `k₁ ≈ 0.36·n`, `k₂ ≈ 0.08·n`,
/// 6-bit hashes).
pub fn case_task(case: &TestCase) -> AttentionTask {
    let n = case.dataset.seq_len;
    AttentionTask::from_counts(
        n,
        n,
        case.model.head_dim,
        ((n as f64 * 0.40) as usize).max(1),
        ((n as f64 * 0.36) as usize).max(1),
        ((n as f64 * 0.08) as usize).max(1),
        6,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_cases;

    #[test]
    fn case_task_matches_case_dimensions() {
        for case in paper_cases() {
            let t = case_task(&case);
            assert_eq!(t.num_queries, case.dataset.seq_len);
            assert_eq!(t.num_keys, case.dataset.seq_len);
            assert_eq!(t.head_dim, case.model.head_dim);
            assert!(t.k0 <= t.num_queries && t.k1 <= t.num_keys && t.k2 <= t.num_keys);
            assert!(t.k2 < t.k1, "coarse centers outnumber fine survivors");
        }
    }
}
