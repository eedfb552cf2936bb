//! What every workload shares: run settings, seeding, set-up timing and
//! the closed measurement loop.

use std::time::{Duration, Instant};

use cta_chaos::Mutation;
use cta_events::mix64;

use crate::alloc;
use crate::report::Outcome;
use crate::stats::{mean, median, tail};

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed: every input is a pure function of it.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Small sizes, for the benchmark's self-tests.
    pub tiny: bool,
    /// Chaos only: how to corrupt every report before it is checked;
    /// `Mutation::DropShed` proves that the failure count is live.
    pub mutation: Mutation,
}

impl RunCfg {
    /// The `i`-th derived seed of stream `stream`.
    pub fn derive(&self, stream: u64, i: u64) -> u64 {
        mix64(mix64(self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ i)
    }

    /// `full` normally, `tiny` under `--tiny`.
    pub fn size(&self, full: usize, tiny: usize) -> usize {
        if self.tiny {
            tiny
        } else {
            full
        }
    }
}

/// Set-up repetitions: set-up is built once before measurement and
/// rebuilt at evenly spaced moments during it, and the median time is
/// reported. A short set-up is at the mercy of the shared host's bursts,
/// so sampling several moments of the run keeps `setup_s` from reading
/// one burst.
pub const SETUP_REPS: usize = 5;

/// A workload's set-up and the times of every build of it.
pub struct Setup<F> {
    build: F,
    times: Vec<f64>,
}

impl<S, F: FnMut() -> S> Setup<F> {
    /// Builds the state the run measures, timing the build.
    pub fn first(mut build: F) -> (Self, S) {
        let (state, s) = time(&mut build);
        (Self { build, times: vec![s] }, state)
    }

    /// Builds and drops another copy, timing the build.
    fn again(&mut self) {
        let (state, s) = time(&mut self.build);
        drop(state);
        self.times.push(s);
    }

    /// Median build time in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// Runs `round` until `seconds` have passed, at least once, rebuilding
/// `setup` each time another `1/SETUP_REPS` of the run has passed (and at
/// the end, for runs too short to reach every mark). Returns how many
/// rounds ran.
pub fn closed_loop<S, F: FnMut() -> S>(
    seconds: f64,
    setup: &mut Setup<F>,
    mut round: impl FnMut(usize),
) -> usize {
    let start = Instant::now();
    let total = Duration::from_secs_f64(seconds);
    let mark = |k: usize| total.mul_f64(k as f64 / SETUP_REPS as f64);
    let mut rounds = 0;
    loop {
        round(rounds);
        rounds += 1;
        while setup.times.len() < SETUP_REPS && start.elapsed() >= mark(setup.times.len()) {
            setup.again();
        }
        if start.elapsed() >= total {
            break;
        }
    }
    while setup.times.len() < SETUP_REPS {
        setup.again();
    }
    rounds
}

/// Times operations and tracks the heap they need: the bytes live when
/// measurement starts (what set-up built) plus the largest transient any
/// one operation added on top. Bookkeeping the benchmark grows between
/// operations is left out, so the figure does not depend on how many
/// operations fit in a run.
pub struct Meter {
    base: usize,
    extra: usize,
}

impl Meter {
    /// Starts measuring from the bytes live now.
    pub fn start() -> Self {
        Self { base: alloc::live(), extra: 0 }
    }

    /// Runs one operation; returns its result and the seconds it took.
    pub fn op<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = alloc::reset_peak();
        let out = time(f);
        self.extra = self.extra.max(alloc::peak().saturating_sub(before));
        out
    }

    /// Peak heap in MB: set-up's live bytes plus the largest operation.
    pub fn peak_mb(&self) -> f64 {
        (self.base + self.extra) as f64 / 1e6
    }
}

/// Each input's fastest repetition, for samples taken while operations
/// cycle over `cycle` inputs in order (sample `j` belongs to input
/// `j % cycle`). Inputs without a sample are left out.
///
/// The host this benchmark runs on is shared: neighbours' memory traffic
/// slows every stage that leaves the core's private cache by up to 2x,
/// in bursts lasting seconds, so a median over one run mostly measures
/// how busy the neighbours were. An input's fastest repetition estimates
/// its cost when they are quiet, and it repeats across runs.
pub fn best_per_input(samples: &[f64], cycle: usize) -> Vec<f64> {
    (0..cycle)
        .filter_map(|k| samples.iter().skip(k).step_by(cycle).copied().reduce(f64::min))
        .collect()
}

/// Mean over inputs of [`best_per_input`]; 0 without samples.
pub fn best_mean(samples: &[f64], cycle: usize) -> f64 {
    mean(best_per_input(samples, cycle))
}

/// Sets the end-to-end metrics of a run whose operations cycled over
/// `cycle` inputs, `op_s` holding every operation's seconds in order and
/// `items` the items (tokens, events, seeds) one whole cycle processes.
///
/// * `items_per_s` — `items` over the sum of each input's best time;
/// * `op_best_ms_p50` — the median over inputs of each input's best time;
/// * `peak_heap_mb` and `setup_s` as measured.
///
/// The plain median and tail over every operation are printed beside them.
pub fn end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    meter: &Meter,
    op_s: &[f64],
    cycle: usize,
    items: f64,
    unit: &str,
) {
    let best = best_per_input(op_s, cycle);
    out.set("setup_s", setup_s);
    out.set("items_per_s", items / best.iter().sum::<f64>());
    out.set("op_best_ms_p50", median(&best) * 1e3);
    out.set("peak_heap_mb", meter.peak_mb());
    let op_ms: Vec<f64> = op_s.iter().map(|s| s * 1e3).collect();
    out.note(format!(
        "items: {unit}; {} operations over {} inputs; median of all operations {:.4} ms",
        op_ms.len(),
        best.len(),
        median(&op_ms)
    ));
    match tail(&op_ms) {
        Some((p, v)) => out.note(format!(
            "tail of all operations: p{p} = {v:.4} ms, {} samples beyond it",
            op_ms.iter().filter(|&&x| x > v).count()
        )),
        None => out.note(format!("tail of all operations: n/a, {} samples", op_ms.len())),
    }
}

/// Tracing overhead: `100 × (traced / untraced − 1)` on the
/// [`best_mean`] operation times of one traced run.
pub fn overhead_pct(traced_s: &[f64], plain_s: &[f64], cycle: usize) -> f64 {
    100.0 * (best_mean(traced_s, cycle) / best_mean(plain_s, cycle) - 1.0)
}

/// Seconds `f` took, and its result.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// FNV-1a over a stream of 64-bit words: a digest of a run's inputs, so a
/// test can tell whether two seeds produced the same ones.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x100_0000_01b3))
}
