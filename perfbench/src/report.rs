//! Metric names and units, and the result every run prints.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's contract with
//! `BENCHMARK.json` (a self-test checks the two agree). Every run prints
//! every name of its list; a per-layer metric whose layer does no work on
//! the workload reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("items_per_s", "1/s"), ("op_best_ms_p50", "ms"), ("peak_heap_mb", "MB")];

/// Per-layer metrics, printed by every traced run. Layers are the crates.
pub const PER_LAYER: &[(&str, &str)] = &[
    // prefill: stages of one `cta_forward`, recomposed from public calls
    ("lsh.compress_ms", "ms"),
    ("lsh.compress_two_level_ms", "ms"),
    ("lsh.k0", "count"),
    ("lsh.k1", "count"),
    ("lsh.k2", "count"),
    ("tensor.linears_ms", "ms"),
    ("tensor.scores_ms", "ms"),
    ("attention.pag_ms", "ms"),
    ("tensor.output_ms", "ms"),
    ("tensor.linears_gflop_s", "GFLOP/s"),
    ("tensor.scores_gflop_s", "GFLOP/s"),
    ("tensor.output_gflop_s", "GFLOP/s"),
    ("attention.prefill_allocs", "count"),
    ("attention.prefill_alloc_mb", "MB"),
    ("attention.prefill_rel_err", "1"),
    ("attention.exact_ms", "ms"),
    ("attention.cta_over_exact", "1"),
    ("sim.compression_us", "us"),
    ("sim.linear_us", "us"),
    ("sim.attention_us", "us"),
    ("sim.pag_stall_us", "us"),
    // decode: one `cta_forward_causal`, its parts replayed
    ("tensor.qkv_ms", "ms"),
    ("lsh.stream_push_us", "us"),
    ("attention.causal_centroid_proj_ms", "ms"),
    ("attention.causal_loop_ms", "ms"),
    ("attention.causal_score_evals", "count"),
    ("attention.causal_final_centroids", "count"),
    ("attention.decode_allocs", "count"),
    ("attention.decode_alloc_mb", "MB"),
    ("attention.decode_rel_err", "1"),
    // fleet and chaos: the serving simulator
    ("serve.sim_s", "s"),
    ("serve.allocs_per_event", "count"),
    ("serve.alloc_bytes_per_event", "B"),
    ("serve.cost_step_layer_ns", "ns"),
    ("serve.cost_shapes", "count"),
    ("events.hold_ns", "ns"),
    ("events.queue_len_mean", "count"),
    ("events.queue_len_max", "count"),
    ("serve.events", "count"),
    ("serve.requests", "count"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.retried", "count"),
    ("serve.goodput_rps", "1/s"),
    ("serve.p99_s", "s"),
    ("workloads.trace_gen_s", "s"),
    ("serve.config_build_us", "us"),
    // chaos: one seed's steps
    ("chaos.sample_us", "us"),
    ("chaos.trace_us", "us"),
    ("chaos.config_us", "us"),
    ("chaos.sim_us", "us"),
    ("chaos.check_us", "us"),
    ("chaos.events_per_seed", "count"),
    ("chaos.share.tenancy", "1"),
    ("chaos.share.brownout", "1"),
    ("chaos.share.detector", "1"),
    ("chaos.share.sessions", "1"),
    ("chaos.share.crash", "1"),
    ("chaos.share.zone", "1"),
    ("chaos.share.partition", "1"),
    ("chaos.share.gray", "1"),
    ("chaos.share.slow", "1"),
    ("chaos.share.stall", "1"),
    ("chaos.violations", "count"),
    // self time per layer and per operation, and the tracing cost
    ("lsh.self_ms", "ms"),
    ("tensor.self_ms", "ms"),
    ("attention.self_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("events.self_ms", "ms"),
    ("workloads.self_ms", "ms"),
    ("chaos.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines printed above the result: context that is not a metric.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Prints the notes, a `name value unit` table of `names`, and, as the
    /// last line, the JSON result. Returns whether every check passed.
    pub fn print(&self, names: &[(&'static str, &'static str)]) -> bool {
        for line in &self.notes {
            println!("{line}");
        }
        let fail_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!("{:<36} {:>16} count", "attempted", self.attempted);
        println!("{:<36} {:>16} count", "failed", self.failed);
        println!("{:<36} {:>16} 1", "fail_rate", fail_rate);
        let mut json = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            println!("{name:<36} {v:>16.6} {unit}");
            json.push(format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"));
        }
        let correct = self.failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            json.join(",")
        );
        correct
    }
}
