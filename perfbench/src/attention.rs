//! The `prefill` and `decode` workloads: the paper core on one attention
//! head.
//!
//! * `prefill` — one operation is one `cta_forward` self-attention pass at
//!   n = 2048, d = 64 on IMDB-profile tokens for a BERT-large head,
//!   cycling [`PREFILL_INPUTS`] seeded inputs.
//! * `decode` — one operation is one blocked-causal `cta_forward_causal`
//!   pass at n = 1024, block 32, on GPT-2/WikiText-2-profile tokens,
//!   cycling [`DECODE_INPUTS`] seeded inputs: the streaming compressor
//!   takes every token as it is produced.
//!
//! Set-up computes each input's exact attention once, and the CTA output
//! every later operation must reproduce bit for bit.

use std::collections::BTreeMap;
use std::hint::black_box;

use cta_attention::{
    aggregate_probabilities_with, attention_exact, attention_exact_causal, cta_forward,
    cta_forward_causal, cta_ops, sample_families, AttentionDims, AttentionWeights, CausalCtaConfig,
    CtaConfig,
};
use cta_lsh::{compress, compress_two_level, ClusterTable, StreamingCompressor};
use cta_sim::{AttentionTask, CtaSystem, HwConfig, SystemConfig};
use cta_tensor::{relative_error, Matrix};
use cta_workloads::{bert_large, generate_tokens, gpt2_large, imdb, wikitext2};

use crate::alloc;
use crate::report::Outcome;
use crate::run::{
    best_mean, closed_loop, digest, end_to_end, overhead_pct, time, Meter, RunCfg, Setup,
};
use crate::stats::mean;
use crate::trace::Tracer;

/// Seeded inputs a prefill run cycles through.
const PREFILL_INPUTS: usize = 3;
/// Seeded inputs a decode run cycles through: a decode forward is cheaper
/// to set up, and more inputs average out how much work each seed's
/// tokens happen to make.
const DECODE_INPUTS: usize = 6;
/// Token and head width: one BERT-large / GPT-2 head.
const HEAD_DIM: usize = 64;
/// LSH bucket width of every level (`CtaConfig::uniform`).
const BUCKET_WIDTH: f32 = 4.0;
/// Largest relative error against exact attention a prefill output may
/// have before the operation counts as failed.
const PREFILL_REL_ERR_MAX: f64 = 0.1;
/// The same for decode, against exact causal attention.
const DECODE_REL_ERR_MAX: f64 = 0.02;

/// One prefill input with its set-up reference.
struct Prefill {
    tokens: Matrix,
    weights: AttentionWeights,
    cfg: CtaConfig,
    /// `cta_forward`'s output, which every operation must reproduce.
    reference: Matrix,
    rel_err: f64,
}

/// One decode input with its set-up reference.
struct Decode {
    tokens: Matrix,
    weights: AttentionWeights,
    cfg: CausalCtaConfig,
    reference: Matrix,
    final_centroids: usize,
    score_evals: u64,
    rel_err: f64,
}

fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn inputs_digest(tokens: impl Iterator<Item = u64>) -> String {
    format!("inputs: {:016x}", digest(tokens))
}

fn token_words(m: &Matrix) -> impl Iterator<Item = u64> + '_ {
    m.as_slice().iter().map(|x| u64::from(x.to_bits()))
}

fn prefill_inputs(run: &RunCfg) -> Vec<Prefill> {
    let n = run.size(2048, 128);
    (0..PREFILL_INPUTS as u64)
        .map(|i| {
            let tokens =
                generate_tokens(&bert_large(), &imdb().with_seq_len(n), n, run.derive(1, i));
            let weights = AttentionWeights::random(HEAD_DIM, HEAD_DIM, run.derive(2, i));
            let cfg = CtaConfig::uniform(BUCKET_WIDTH, run.derive(3, i));
            let exact = attention_exact(&tokens, &tokens, &weights).output;
            let reference = cta_forward(&tokens, &tokens, &weights, &cfg).output;
            let rel_err = relative_error(&reference, &exact);
            Prefill { tokens, weights, cfg, reference, rel_err }
        })
        .collect()
}

fn decode_inputs(run: &RunCfg) -> Vec<Decode> {
    let n = run.size(1024, 96);
    let block = run.size(32, 16);
    (0..DECODE_INPUTS as u64)
        .map(|i| {
            let tokens =
                generate_tokens(&gpt2_large(), &wikitext2().with_seq_len(n), n, run.derive(4, i));
            let weights = AttentionWeights::random(HEAD_DIM, HEAD_DIM, run.derive(5, i));
            let cfg = CausalCtaConfig {
                block,
                inner: CtaConfig::uniform(BUCKET_WIDTH, run.derive(6, i)),
            };
            let exact = attention_exact_causal(&tokens, &weights);
            let cta = cta_forward_causal(&tokens, &weights, &cfg);
            let rel_err = relative_error(&cta.output, &exact);
            Decode {
                tokens,
                weights,
                cfg,
                reference: cta.output,
                final_centroids: cta.final_centroids,
                score_evals: cta.score_evals,
                rel_err,
            }
        })
        .collect()
}

/// The untraced prefill run.
pub fn prefill(run: &RunCfg) -> Outcome {
    let (mut setup, inputs) = Setup::first(|| prefill_inputs(run));
    let mut meter = Meter::start();
    let mut out = Outcome::default();
    out.note(inputs_digest(inputs.iter().flat_map(|p| token_words(&p.tokens))));
    let n = inputs[0].tokens.rows();
    let mut op_s = Vec::new();
    closed_loop(run.seconds, &mut setup, |_| {
        for p in &inputs {
            let (cta, s) = meter.op(|| cta_forward(&p.tokens, &p.tokens, &p.weights, &p.cfg));
            out.check(p.rel_err <= PREFILL_REL_ERR_MAX && same_bits(&cta.output, &p.reference));
            op_s.push(s);
        }
    });
    end_to_end(
        &mut out,
        setup.median_s(),
        &meter,
        &op_s,
        inputs.len(),
        (inputs.len() * n) as f64,
        "prefill tokens",
    );
    for (i, p) in inputs.iter().enumerate() {
        out.note(format!(
            "input {i}: n {n}, rel_err {:.6} (bound {PREFILL_REL_ERR_MAX})",
            p.rel_err
        ));
    }
    out
}

/// The untraced decode run.
pub fn decode(run: &RunCfg) -> Outcome {
    let (mut setup, inputs) = Setup::first(|| decode_inputs(run));
    let mut meter = Meter::start();
    let mut out = Outcome::default();
    out.note(inputs_digest(inputs.iter().flat_map(|d| token_words(&d.tokens))));
    let n = inputs[0].tokens.rows();
    let mut op_s = Vec::new();
    closed_loop(run.seconds, &mut setup, |_| {
        for d in &inputs {
            let (cta, s) = meter.op(|| cta_forward_causal(&d.tokens, &d.weights, &d.cfg));
            out.check(decode_ok(d, &cta.output, cta.final_centroids, cta.score_evals));
            op_s.push(s);
        }
    });
    end_to_end(
        &mut out,
        setup.median_s(),
        &meter,
        &op_s,
        inputs.len(),
        (inputs.len() * n) as f64,
        "decoded tokens",
    );
    for (i, d) in inputs.iter().enumerate() {
        out.note(format!(
            "input {i}: n {n}, rel_err {:.6} (bound {DECODE_REL_ERR_MAX})",
            d.rel_err
        ));
    }
    out
}

fn decode_ok(d: &Decode, output: &Matrix, final_centroids: usize, score_evals: u64) -> bool {
    d.rel_err <= DECODE_REL_ERR_MAX
        && same_bits(output, &d.reference)
        && final_centroids == d.final_centroids
        && score_evals == d.score_evals
}

/// The PPE max-subtraction of `cta_forward`'s score stage: per row, the
/// maximum of the first `k1` columns is subtracted from the others.
fn subtract_level1_row_max(scores: &mut Matrix, k1: usize) {
    for r in 0..scores.rows() {
        let row = scores.row_mut(r);
        let max = row[..k1].iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        for x in &mut row[k1..] {
            *x -= max;
        }
    }
}

/// `cta_forward`'s output recovery: query `i` reads row `CT₀[i]` of
/// `Ō` divided by that row's `ΣAP/2`.
fn recover(ap: &Matrix, output_bar: &Matrix, table: &ClusterTable) -> Matrix {
    let mut output = Matrix::zeros(table.len(), output_bar.cols());
    let denominators: Vec<f32> =
        (0..ap.rows()).map(|c| ap.row(c).iter().sum::<f32>() / 2.0).collect();
    for i in 0..table.len() {
        let c = table.cluster_of(i);
        let den = denominators[c];
        for (o, &x) in output.row_mut(i).iter_mut().zip(output_bar.row(c)) {
            *o = x / den;
        }
    }
    output
}

/// What one recomposed prefill produced besides its output.
struct Stages {
    output: Matrix,
    k: (usize, usize, usize),
}

/// One prefill recomposed from the public stage calls, each in a span.
fn recomposed(tr: &mut Tracer, p: &Prefill) -> Stages {
    let x = &p.tokens;
    let w = &p.weights;
    let [f0, f1, f2] = tr.span("attention.families", |_| sample_families(&p.cfg, w.token_dim()));
    let qc = tr.span("lsh.compress", |_| compress(x, &f0));
    let kvc = tr.span("lsh.compress_two_level", |_| compress_two_level(x, &f1, &f2));
    let c_cat = tr.span("lsh.concat", |_| kvc.concatenated_centroids());
    let (q_bar, k_bar, v_bar) = tr.span("tensor.linears", |_| {
        (qc.centroids.matmul(w.wq()), c_cat.matmul(w.wk()), c_cat.matmul(w.wv()))
    });
    let k1 = kvc.k1();
    let scale = 1.0 / (w.head_dim() as f32).sqrt();
    let mut scores = tr.span("tensor.scores", |_| q_bar.matmul_transpose_b(&k_bar).scale(scale));
    tr.span("attention.max_sub", |_| subtract_level1_row_max(&mut scores, k1));
    let ap = tr.span("attention.pag", |_| {
        aggregate_probabilities_with(&scores, &kvc.level1.table, &kvc.level2.table, k1, f32::exp)
    });
    let output_bar = tr.span("tensor.output", |_| ap.matmul(&v_bar));
    let output = tr.span("attention.recover", |_| recover(&ap, &output_bar, &qc.table));
    Stages { output, k: (qc.k(), k1, kvc.k2()) }
}

/// Each span name's total duration so far, in nanoseconds.
fn totals(tr: &Tracer, names: &[&'static str]) -> BTreeMap<&'static str, u64> {
    names.iter().map(|&n| (n, tr.total_ns(n))).collect()
}

/// Seconds recorded under `name` since `before` was taken.
fn since(tr: &Tracer, before: &BTreeMap<&str, u64>, name: &'static str) -> f64 {
    (tr.total_ns(name) - before.get(name).copied().unwrap_or(0)) as f64 / 1e9
}

/// The traced prefill run: each round times every input once plainly and
/// once recomposed stage by stage, and one exact attention pass.
pub fn prefill_traced(run: &RunCfg, tr: &mut Tracer) -> Outcome {
    let (mut setup, inputs) = Setup::first(|| prefill_inputs(run));
    let mut out = Outcome::default();
    out.note(inputs_digest(inputs.iter().flat_map(|p| token_words(&p.tokens))));
    let n = inputs[0].tokens.rows();
    // The paper's system, its sequence buffers sized to the input.
    let system =
        CtaSystem::new(SystemConfig::paper().with_hw(HwConfig::paper().with_max_seq_len(n)));

    // Deterministic per-input facts: allocations of one forward, cluster
    // counts, FLOPs of the linears, scores and output stages, and the
    // cycle model's phase split for that forward's shape.
    let mut allocs = Vec::new();
    let mut alloc_mb = Vec::new();
    let mut ks = Vec::new();
    let mut flops = Vec::new();
    let mut phases = Vec::new();
    for p in &inputs {
        let scope = alloc::Scope::start();
        let cta = cta_forward(&p.tokens, &p.tokens, &p.weights, &p.cfg);
        let (a, b) = scope.read();
        allocs.push(a as f64);
        alloc_mb.push(b as f64 / 1e6);
        ks.push((cta.k0(), cta.k1(), cta.k2()));
        let dims = AttentionDims::self_attention(n, HEAD_DIM, HEAD_DIM);
        let ops = cta_ops(&dims, cta.k0(), cta.k1(), cta.k2(), p.cfg.hash_length);
        // `cta_ops` counts scores and output as equal MAC halves.
        let macs = [ops.linears.macs, ops.attention.macs / 2, ops.attention.macs / 2];
        flops.push(macs.map(|m| 2.0 * m as f64));
        let task = AttentionTask::from_cta(&cta, p.cfg.hash_length);
        phases.push(system.head_phase_split(&task));
    }

    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut exact_s = Vec::new();
    closed_loop(run.seconds, &mut setup, |round| {
        for (i, p) in inputs.iter().enumerate() {
            let (_, s) = time(|| cta_forward(&p.tokens, &p.tokens, &p.weights, &p.cfg));
            plain_s.push(s);
            tr.next_op();
            let (stages, s) = time(|| tr.span("bench.prefill", |tr| recomposed(tr, p)));
            traced_s.push(s);
            out.check(
                p.rel_err <= PREFILL_REL_ERR_MAX
                    && same_bits(&stages.output, &p.reference)
                    && stages.k == ks[i],
            );
        }
        let p = &inputs[round % inputs.len()];
        let (exact, s) = time(|| attention_exact(&p.tokens, &p.tokens, &p.weights));
        black_box(exact);
        exact_s.push(s);
    });

    let cycle = inputs.len();
    out.set("lsh.compress_ms", tr.best_ms("lsh.compress", cycle));
    out.set("lsh.compress_two_level_ms", tr.best_ms("lsh.compress_two_level", cycle));
    out.set("lsh.k0", mean(ks.iter().map(|k| k.0 as f64)));
    out.set("lsh.k1", mean(ks.iter().map(|k| k.1 as f64)));
    out.set("lsh.k2", mean(ks.iter().map(|k| k.2 as f64)));
    out.set("attention.pag_ms", tr.best_ms("attention.pag", cycle));
    let stages = [
        ("tensor.linears", "tensor.linears_ms", "tensor.linears_gflop_s"),
        ("tensor.scores", "tensor.scores_ms", "tensor.scores_gflop_s"),
        ("tensor.output", "tensor.output_ms", "tensor.output_gflop_s"),
    ];
    for (j, (span, ms, gflop_s)) in stages.into_iter().enumerate() {
        let best_ms = tr.best_ms(span, cycle);
        out.set(ms, best_ms);
        let mean_flops = mean(flops.iter().map(|f| f[j]));
        out.set(gflop_s, mean_flops / (best_ms * 1e-3) / 1e9);
    }
    out.set("attention.prefill_allocs", mean(allocs.iter().copied()));
    out.set("attention.prefill_alloc_mb", mean(alloc_mb.iter().copied()));
    out.set("attention.prefill_rel_err", mean(inputs.iter().map(|p| p.rel_err)));
    out.set("attention.exact_ms", best_mean(&exact_s, cycle) * 1e3);
    out.set("attention.cta_over_exact", best_mean(&plain_s, cycle) / best_mean(&exact_s, cycle));
    out.set("sim.compression_us", mean(phases.iter().map(|s| s.compression_s * 1e6)));
    out.set("sim.linear_us", mean(phases.iter().map(|s| s.linear_s * 1e6)));
    out.set("sim.attention_us", mean(phases.iter().map(|s| s.attention_s * 1e6)));
    out.set("sim.pag_stall_us", mean(phases.iter().map(|s| s.pag_stall_s * 1e6)));
    out.set("trace.overhead_pct", overhead_pct(&traced_s, &plain_s, cycle));
    out
}

/// The parts of one `cta_forward_causal` the benchmark can call itself,
/// each in a span: the Q/K/V projections, the streaming compressor's
/// pushes, and each block's centroid projection. Returns the centroid
/// count the last block saw.
fn decode_parts(tr: &mut Tracer, d: &Decode) -> usize {
    let x = &d.tokens;
    let w = &d.weights;
    let qkv = tr.span("tensor.qkv", |_| (x.matmul(w.wq()), x.matmul(w.wk()), x.matmul(w.wv())));
    black_box(qkv);
    let [_, f1, _] =
        tr.span("attention.families", |_| sample_families(&d.cfg.inner, w.token_dim()));
    let mut past = StreamingCompressor::new(f1);
    let mut final_centroids = 0;
    let n = x.rows();
    let mut start = 0;
    while start < n {
        let end = (start + d.cfg.block).min(n);
        final_centroids = if past.is_empty() {
            0
        } else {
            tr.span("attention.causal_centroid_proj", |_| {
                let view = past.as_compression();
                let cents = Matrix::from_vec(view.k(), view.dim(), view.centroids_flat().to_vec());
                let kv = (cents.matmul(w.wk()), cents.matmul(w.wv()));
                black_box(kv);
                view.k()
            })
        };
        tr.span("lsh.stream_push", |_| {
            for t in start..end {
                past.push(x.row(t));
            }
        });
        start = end;
    }
    final_centroids
}

/// The traced decode run: each round times every input's plain
/// `cta_forward_causal`, then replays its parts in spans; the per-query
/// loop's time is the remainder, recorded as inferred.
pub fn decode_traced(run: &RunCfg, tr: &mut Tracer) -> Outcome {
    let (mut setup, inputs) = Setup::first(|| decode_inputs(run));
    let mut out = Outcome::default();
    out.note(inputs_digest(inputs.iter().flat_map(|d| token_words(&d.tokens))));
    let n = inputs[0].tokens.rows();

    let mut allocs = Vec::new();
    let mut alloc_mb = Vec::new();
    for d in &inputs {
        let scope = alloc::Scope::start();
        black_box(cta_forward_causal(&d.tokens, &d.weights, &d.cfg));
        let (a, b) = scope.read();
        allocs.push(a as f64);
        alloc_mb.push(b as f64 / 1e6);
    }

    const PARTS: [&str; 4] =
        ["tensor.qkv", "lsh.stream_push", "attention.causal_centroid_proj", "attention.families"];
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut loop_ms = Vec::new();
    let mut push_us_per_token = Vec::new();
    let mut proj_ms = Vec::new();
    closed_loop(run.seconds, &mut setup, |_| {
        for d in &inputs {
            tr.next_op();
            let (cta, plain) = time(|| cta_forward_causal(&d.tokens, &d.weights, &d.cfg));
            let before = totals(tr, &PARTS);
            let (centroids, s) = time(|| tr.span("bench.decode_parts", |tr| decode_parts(tr, d)));
            out.check(
                decode_ok(d, &cta.output, cta.final_centroids, cta.score_evals)
                    && centroids == d.final_centroids,
            );
            plain_s.push(plain);
            traced_s.push(plain + s);
            let parts: f64 = PARTS.iter().map(|name| since(tr, &before, name)).sum();
            let rest = (plain - parts).max(0.0);
            tr.add_inferred("attention.causal_loop", (rest * 1e9) as u64);
            loop_ms.push(rest * 1e3);
            push_us_per_token.push(since(tr, &before, "lsh.stream_push") * 1e6 / n as f64);
            proj_ms.push(since(tr, &before, "attention.causal_centroid_proj") * 1e3);
        }
    });

    let cycle = inputs.len();
    out.set("tensor.qkv_ms", tr.best_ms("tensor.qkv", cycle));
    out.set("lsh.stream_push_us", best_mean(&push_us_per_token, cycle));
    out.set("attention.causal_centroid_proj_ms", best_mean(&proj_ms, cycle));
    out.set("attention.causal_loop_ms", best_mean(&loop_ms, cycle));
    out.note(
        "attention.causal_loop_ms is inferred: the plain call minus its replayed parts".into(),
    );
    out.set("attention.causal_score_evals", mean(inputs.iter().map(|d| d.score_evals as f64)));
    out.set(
        "attention.causal_final_centroids",
        mean(inputs.iter().map(|d| d.final_centroids as f64)),
    );
    out.set("attention.decode_allocs", mean(allocs.iter().copied()));
    out.set("attention.decode_alloc_mb", mean(alloc_mb.iter().copied()));
    out.set("attention.decode_rel_err", mean(inputs.iter().map(|d| d.rel_err)));
    out.set("trace.overhead_pct", overhead_pct(&traced_s, &plain_s, cycle));
    out
}
