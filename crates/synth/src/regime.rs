//! Noise families beyond the paper's uniform regime.
//!
//! The paper injects uniform multiplicative noise (Sec. IV-D); real
//! campaigns exhibit richer regimes. This module names four families the
//! sweep harness grids against each other:
//!
//! - **Uniform** — the paper's regime: every point perturbed by
//!   `U(1 − level/2, 1 + level/2)`, identical draws to
//!   [`crate::noisy_repetitions`].
//! - **Heteroscedastic** — the effective level grows linearly along the
//!   measurement line, from `0` at the smallest configuration to
//!   `2 · level` at the largest, averaging `level`. Larger runs really are
//!   noisier: more memory traffic, more OS jitter, more contention.
//! - **Spike-contaminated** — uniform base noise plus rare multiplicative
//!   spikes (a repetition lands on a congested node, a daemon wakes up):
//!   with probability `spike_rate` a repetition is multiplied by
//!   `spike_factor`.
//! - **Device-variation** — Gaussian multiplicative noise with standard
//!   deviation `level/2`, the shape memristive/analog device models use
//!   for write variation (`dev_var` in the CIM literature); tails are
//!   unbounded, unlike the uniform band.
//!
//! Every family is mean-preserving except the spike regime, whose mean is
//! inflated by exactly `spike_rate · (spike_factor − 1)` — the quantity
//! the moment proptests pin down.

use crate::noise::apply_noise;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default spike probability for [`NoiseFamily::spike_contaminated`].
pub const DEFAULT_SPIKE_RATE: f64 = 0.05;

/// Default spike multiplier for [`NoiseFamily::spike_contaminated`] —
/// matches the 10× winsorization bound of the sanitizer, so spikes sit
/// right at the edge of what input repair catches.
pub const DEFAULT_SPIKE_FACTOR: f64 = 10.0;

/// A multiplicative noise family. The *scale* of the noise (the paper's
/// "noise level") stays a separate knob; the family decides its shape.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NoiseFamily {
    /// The paper's uniform regime: `v · U(1 − level/2, 1 + level/2)`.
    #[default]
    Uniform,
    /// Level grows linearly along the line: point at position fraction
    /// `pos` sees an effective level of `2 · level · pos` (mean `level`).
    Heteroscedastic,
    /// Uniform base noise plus rare multiplicative spikes.
    SpikeContaminated {
        /// Probability that one repetition is a spike.
        spike_rate: f64,
        /// Multiplier applied to a spiked repetition.
        spike_factor: f64,
    },
    /// Gaussian multiplicative noise, `v · N(1, (level/2)²)`, clamped to
    /// stay positive (runtimes cannot go negative).
    DeviceVariation,
}

impl NoiseFamily {
    /// The spike regime with its default rate and factor.
    pub fn spike_contaminated() -> Self {
        NoiseFamily::SpikeContaminated {
            spike_rate: DEFAULT_SPIKE_RATE,
            spike_factor: DEFAULT_SPIKE_FACTOR,
        }
    }

    /// The four families at their default parameters — the sweep grid.
    pub fn all() -> [NoiseFamily; 4] {
        [
            NoiseFamily::Uniform,
            NoiseFamily::Heteroscedastic,
            NoiseFamily::spike_contaminated(),
            NoiseFamily::DeviceVariation,
        ]
    }

    /// Parses a CLI regime name (`uniform`, `heteroscedastic`/`hetero`,
    /// `spike`, `device`).
    pub fn parse(name: &str) -> Option<NoiseFamily> {
        match name.trim().to_ascii_lowercase().as_str() {
            "uniform" => Some(NoiseFamily::Uniform),
            "heteroscedastic" | "hetero" => Some(NoiseFamily::Heteroscedastic),
            "spike" | "spike-contaminated" => Some(NoiseFamily::spike_contaminated()),
            "device" | "device-variation" => Some(NoiseFamily::DeviceVariation),
            _ => None,
        }
    }

    /// Perturbs one repetition of `value` at noise scale `level`, for a
    /// point at position fraction `pos` (`0` = first point of the line,
    /// `1` = last). `pos` only matters to the heteroscedastic family.
    pub fn perturb(&self, value: f64, level: f64, pos: f64, rng: &mut impl Rng) -> f64 {
        if level <= 0.0 {
            return value;
        }
        match *self {
            NoiseFamily::Uniform => apply_noise(value, level, rng),
            NoiseFamily::Heteroscedastic => {
                apply_noise(value, 2.0 * level * pos.clamp(0.0, 1.0), rng)
            }
            NoiseFamily::SpikeContaminated {
                spike_rate,
                spike_factor,
            } => {
                let v = apply_noise(value, level, rng);
                if spike_rate > 0.0 && rng.gen_range(0.0..1.0) < spike_rate {
                    v * spike_factor
                } else {
                    v
                }
            }
            NoiseFamily::DeviceVariation => {
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                value * (1.0 + 0.5 * level * z).max(1e-12)
            }
        }
    }

    /// Simulates `rep` noisy repetitions of one measurement. The uniform
    /// family draws exactly like [`crate::noisy_repetitions`], so corpora
    /// generated under the default family are bitwise identical to the
    /// pre-family generator.
    pub fn repetitions(
        &self,
        value: f64,
        level: f64,
        pos: f64,
        rep: usize,
        rng: &mut impl Rng,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(rep);
        self.repetitions_into(value, level, pos, rep, rng, &mut out);
        out
    }

    /// [`Self::repetitions`] into a caller's buffer (cleared first), so a
    /// corpus generator reuses one allocation for every point. Uniform
    /// draws are [`crate::apply_noise`] per repetition, exactly as
    /// [`crate::noisy_repetitions`] makes them.
    pub fn repetitions_into(
        &self,
        value: f64,
        level: f64,
        pos: f64,
        rep: usize,
        rng: &mut impl Rng,
        out: &mut Vec<f64>,
    ) {
        assert!(rep >= 1, "at least one repetition required");
        out.clear();
        out.extend((0..rep).map(|_| self.perturb(value, level, pos, rng)));
    }

    /// The expected value of a perturbed measurement divided by its truth.
    /// `1` for the mean-preserving families; `1 + rate · (factor − 1)` for
    /// the spike regime.
    pub fn expected_mean_factor(&self) -> f64 {
        match *self {
            NoiseFamily::SpikeContaminated {
                spike_rate,
                spike_factor,
            } => 1.0 + spike_rate * (spike_factor - 1.0),
            _ => 1.0,
        }
    }

    /// The expected standard deviation of one perturbed repetition of a
    /// unit measurement at scale `level`, at line position `pos` — the
    /// second moment the proptests check.
    pub fn expected_std(&self, level: f64, pos: f64) -> f64 {
        // A U(1 − h, 1 + h) factor has std h/√3.
        let uniform_std = |width: f64| width / 2.0 / 3.0_f64.sqrt();
        match *self {
            NoiseFamily::Uniform => uniform_std(level),
            NoiseFamily::Heteroscedastic => uniform_std(2.0 * level * pos.clamp(0.0, 1.0)),
            NoiseFamily::SpikeContaminated {
                spike_rate,
                spike_factor,
            } => {
                // Var = E[f²]·E[b²] − (E[f]·E[b])², with b the base
                // uniform factor and f the spike factor (factor w.p. rate,
                // 1 otherwise).
                let eb = 1.0;
                let eb2 = uniform_std(level).powi(2) + 1.0;
                let ef = 1.0 + spike_rate * (spike_factor - 1.0);
                let ef2 = 1.0 + spike_rate * (spike_factor * spike_factor - 1.0);
                (ef2 * eb2 - (ef * eb).powi(2)).max(0.0).sqrt()
            }
            NoiseFamily::DeviceVariation => 0.5 * level,
        }
    }
}

impl fmt::Display for NoiseFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseFamily::Uniform => write!(f, "uniform"),
            NoiseFamily::Heteroscedastic => write!(f, "heteroscedastic"),
            NoiseFamily::SpikeContaminated { .. } => write!(f, "spike"),
            NoiseFamily::DeviceVariation => write!(f, "device"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::noisy_repetitions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_family_draws_exactly_like_noisy_repetitions() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let family = NoiseFamily::Uniform;
        for (value, level, rep) in [(10.0, 0.3, 5), (2.0, 0.0, 3), (7.5, 1.0, 1)] {
            assert_eq!(
                family.repetitions(value, level, 0.7, rep, &mut a),
                noisy_repetitions(value, level, rep, &mut b),
            );
        }
    }

    #[test]
    fn heteroscedastic_noise_grows_along_the_line() {
        let mut rng = StdRng::seed_from_u64(3);
        let spread = |pos: f64, rng: &mut StdRng| {
            let reps = NoiseFamily::Heteroscedastic.repetitions(100.0, 0.4, pos, 400, rng);
            let mean = reps.iter().sum::<f64>() / reps.len() as f64;
            (reps.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / reps.len() as f64).sqrt()
        };
        let early = spread(0.1, &mut rng);
        let late = spread(0.9, &mut rng);
        assert!(late > 3.0 * early, "late {late} !>> early {early}");
        // The first point of a line is noiseless under this family.
        let first = NoiseFamily::Heteroscedastic.repetitions(100.0, 0.4, 0.0, 3, &mut rng);
        assert!(first.iter().all(|&v| v == 100.0));
    }

    #[test]
    fn spikes_occur_at_the_configured_rate() {
        let mut rng = StdRng::seed_from_u64(5);
        let family = NoiseFamily::SpikeContaminated {
            spike_rate: 0.1,
            spike_factor: 50.0,
        };
        let reps = family.repetitions(1.0, 0.1, 0.5, 20_000, &mut rng);
        let spiked = reps.iter().filter(|&&v| v > 10.0).count();
        let rate = spiked as f64 / reps.len() as f64;
        assert!((rate - 0.1).abs() < 0.01, "spike rate {rate}");
    }

    #[test]
    fn device_variation_is_gaussian_shaped() {
        let mut rng = StdRng::seed_from_u64(9);
        let reps = NoiseFamily::DeviceVariation.repetitions(1.0, 0.4, 0.5, 20_000, &mut rng);
        let mean = reps.iter().sum::<f64>() / reps.len() as f64;
        let std = (reps.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / reps.len() as f64).sqrt();
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!((std - 0.2).abs() < 0.01, "std {std} vs level/2 = 0.2");
        // Unlike the uniform band, the tails exceed ±level/2.
        assert!(reps.iter().any(|&v| !(0.75..=1.25).contains(&v)));
        assert!(reps.iter().all(|&v| v > 0.0), "values stay positive");
    }

    #[test]
    fn zero_level_is_identity_for_every_family() {
        let mut rng = StdRng::seed_from_u64(1);
        for family in NoiseFamily::all() {
            assert_eq!(family.perturb(42.0, 0.0, 0.5, &mut rng), 42.0, "{family}");
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        for family in NoiseFamily::all() {
            assert_eq!(
                NoiseFamily::parse(&family.to_string()),
                Some(family),
                "{family}"
            );
        }
        assert_eq!(
            NoiseFamily::parse("hetero"),
            Some(NoiseFamily::Heteroscedastic)
        );
        assert_eq!(NoiseFamily::parse("bogus"), None);
    }
}
