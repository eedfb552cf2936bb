//! Diurnal and flash-crowd arrival-rate composition.
//!
//! The planet-scale fleet sweeps drive thousands of replicas through a
//! day/night traffic cycle with an optional flash-crowd overlay — the
//! load shape that stresses overload control hardest, because the fleet
//! must ride a slow rate swell *and* absorb a sudden multiplicative
//! burst on top of it. This module composes that rate function and
//! samples a seeded arrival trace from it.
//!
//! The process is a Markov-modulated Poisson process whose modulating
//! state is driven by wall-clock time rather than a hidden chain: the
//! rate is `base_rate_rps` during the day fraction of each period,
//! `night_scale` times that at night, and multiplied by the flash
//! crowd's factor inside its window. Sampling uses Lewis–Shedler
//! thinning at the peak rate, so the trace is exact for the composed
//! rate function and deterministic in the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A flash-crowd overlay: a multiplicative rate spike over one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Window start, seconds from trace start.
    pub start_s: f64,
    /// Window length, seconds.
    pub duration_s: f64,
    /// Rate multiplier inside the window (`> 1`).
    pub multiplier: f64,
}

impl FlashCrowd {
    /// Validated constructor.
    ///
    /// # Panics
    ///
    /// Panics if `start_s < 0`, `duration_s <= 0`, or `multiplier <= 1`.
    pub fn new(start_s: f64, duration_s: f64, multiplier: f64) -> Self {
        assert!(start_s >= 0.0, "flash-crowd start must be non-negative");
        assert!(duration_s > 0.0, "flash-crowd duration must be positive");
        assert!(multiplier > 1.0, "flash-crowd multiplier must exceed 1");
        Self { start_s, duration_s, multiplier }
    }

    fn covers(&self, t: f64) -> bool {
        t >= self.start_s && t < self.start_s + self.duration_s
    }
}

/// A diurnally modulated Poisson arrival process with an optional
/// flash-crowd overlay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalSpec {
    /// Daytime arrival rate, requests/second.
    pub base_rate_rps: f64,
    /// Length of one day/night cycle, seconds.
    pub period_s: f64,
    /// Fraction of each period spent at the day rate, in `(0, 1)`.
    pub day_frac: f64,
    /// Rate multiplier during the night phase, in `(0, 1]`.
    pub night_scale: f64,
    /// Optional flash-crowd spike layered on top of the cycle.
    pub flash: Option<FlashCrowd>,
}

impl DiurnalSpec {
    /// Validated constructor (flash crowd added via [`with_flash`]).
    ///
    /// # Panics
    ///
    /// Panics if `base_rate_rps` is not positive and finite (thinning at
    /// an infinite rate never advances the clock), `period_s <= 0`,
    /// `day_frac` is outside `(0, 1)`, or `night_scale` is outside
    /// `(0, 1]`.
    ///
    /// [`with_flash`]: DiurnalSpec::with_flash
    pub fn new(base_rate_rps: f64, period_s: f64, day_frac: f64, night_scale: f64) -> Self {
        assert!(
            base_rate_rps > 0.0 && base_rate_rps.is_finite(),
            "base rate must be positive and finite"
        );
        assert!(period_s > 0.0, "period must be positive");
        assert!(day_frac > 0.0 && day_frac < 1.0, "day fraction must be in (0, 1)");
        assert!(night_scale > 0.0 && night_scale <= 1.0, "night scale must be in (0, 1]");
        Self { base_rate_rps, period_s, day_frac, night_scale, flash: None }
    }

    /// The same cycle with a flash crowd overlaid.
    pub fn with_flash(mut self, flash: FlashCrowd) -> Self {
        self.flash = Some(flash);
        self
    }

    /// The instantaneous arrival rate at time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        let phase = (t / self.period_s).fract();
        let cycle = if phase < self.day_frac { 1.0 } else { self.night_scale };
        let spike = self.flash.filter(|f| f.covers(t)).map_or(1.0, |f| f.multiplier);
        self.base_rate_rps * cycle * spike
    }

    /// The maximum the rate function ever attains — the thinning
    /// envelope.
    pub fn peak_rate(&self) -> f64 {
        // night_scale <= 1, so the day rate bounds the cycle; the flash
        // multiplier sits on top of whichever phase its window covers.
        self.base_rate_rps * self.flash.map_or(1.0, |f| f.multiplier)
    }

    /// A seeded arrival trace of `count` timestamps drawn from the
    /// composed rate function by thinning: candidate arrivals come from
    /// a homogeneous Poisson process at [`peak_rate`], and each is kept
    /// with probability `rate_at(t) / peak_rate`. Timestamps are
    /// strictly increasing.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    ///
    /// [`peak_rate`]: DiurnalSpec::peak_rate
    pub fn arrival_times(&self, count: usize, seed: u64) -> Vec<f64> {
        assert!(count > 0, "at least one arrival");
        let peak = self.peak_rate();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0f64;
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let u: f64 = rng.gen_range(1e-12..1.0);
            t += -u.ln() / peak;
            let keep: f64 = rng.gen_range(0.0..1.0);
            if keep < self.rate_at(t) / peak {
                out.push(t);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DiurnalSpec {
        DiurnalSpec::new(100.0, 10.0, 0.6, 0.2)
    }

    #[test]
    fn rate_follows_day_night_cycle_and_flash_window() {
        let s = spec().with_flash(FlashCrowd::new(2.0, 1.0, 5.0));
        assert_eq!(s.rate_at(0.0), 100.0, "daytime outside the flash window");
        assert_eq!(s.rate_at(2.5), 500.0, "daytime inside the flash window");
        assert_eq!(s.rate_at(3.0), 100.0, "window end is exclusive");
        assert_eq!(s.rate_at(7.0), 20.0, "night phase at 0.2x");
        assert_eq!(s.rate_at(17.0), 20.0, "cycle repeats each period");
        assert_eq!(s.rate_at(12.5), 100.0, "flash does not recur in later periods");
    }

    #[test]
    fn trace_is_strictly_increasing_and_deterministic() {
        let s = spec().with_flash(FlashCrowd::new(3.0, 2.0, 8.0));
        let a = s.arrival_times(500, 11);
        let b = s.arrival_times(500, 11);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_ne!(a, s.arrival_times(500, 12), "different seeds diverge");
    }

    #[test]
    fn night_phase_thins_arrivals() {
        let s = spec();
        let times = s.arrival_times(5_000, 3);
        let span = times.last().copied().expect("nonempty");
        let full_cycles = (span / s.period_s).floor().max(1.0);
        let horizon = full_cycles * s.period_s;
        let phase_of = |t: f64| (t / s.period_s).fract();
        let day = times.iter().filter(|&&t| t < horizon && phase_of(t) < s.day_frac).count();
        let night = times.iter().filter(|&&t| t < horizon && phase_of(t) >= s.day_frac).count();
        // Day occupies 60% of each period at 5x the night rate, so the
        // expected day:night count ratio is (0.6·1.0) : (0.4·0.2) = 7.5.
        let ratio = day as f64 / night.max(1) as f64;
        assert!(ratio > 4.0, "day/night arrival ratio {ratio} too flat");
    }

    #[test]
    fn flash_crowd_densifies_its_window() {
        let base = spec();
        let flash = FlashCrowd::new(4.0, 2.0, 10.0);
        let s = base.with_flash(flash);
        let times = s.arrival_times(5_000, 9);
        let in_window = times.iter().filter(|&&t| flash.covers(t)).count();
        let window_rate = in_window as f64 / flash.duration_s;
        // The window is daytime, so its rate is 10x the base day rate.
        assert!(
            window_rate > 4.0 * base.base_rate_rps,
            "flash window rate {window_rate} rps vs base {}",
            base.base_rate_rps
        );
    }

    #[test]
    fn peak_rate_bounds_the_rate_function() {
        let s = spec().with_flash(FlashCrowd::new(1.0, 3.0, 6.0));
        let peak = s.peak_rate();
        for i in 0..1_000 {
            let t = i as f64 * 0.02;
            assert!(s.rate_at(t) <= peak, "rate at {t} exceeds envelope");
        }
    }

    #[test]
    #[should_panic(expected = "base rate must be positive and finite")]
    fn infinite_base_rate_rejected() {
        let _ = DiurnalSpec::new(f64::INFINITY, 10.0, 0.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "day fraction")]
    fn full_day_fraction_rejected() {
        let _ = DiurnalSpec::new(1.0, 10.0, 1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "night scale")]
    fn zero_night_scale_rejected() {
        let _ = DiurnalSpec::new(1.0, 10.0, 0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "multiplier")]
    fn weak_flash_rejected() {
        let _ = FlashCrowd::new(0.0, 1.0, 1.0);
    }
}
