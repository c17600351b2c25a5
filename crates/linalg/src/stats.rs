//! Descriptive statistics used throughout the modeling pipeline: medians for
//! repetition aggregation, quantiles for noise distributions, confidence
//! summaries for the benchmark harness.

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample median. Sorts a copy; `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (type 7, the numpy/R default).
///
/// `q` is clamped to `[0, 1]`. `NaN` values in the input are ignored —
/// measurement pipelines upstream can leak them (faulted repetitions,
/// 0/0 ratios) and a panic here would take a whole serving worker down.
/// Returns `NaN` when no finite-or-infinite values remain.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let sorted = sorted_ignoring_nan(xs);
    if sorted.is_empty() {
        return f64::NAN;
    }
    quantile_sorted(&sorted, q)
}

/// Copies `xs` without its `NaN` entries and sorts the rest ascending.
fn sorted_ignoring_nan(xs: &[f64]) -> Vec<f64> {
    let mut sorted = xs.to_vec();
    sort_ignoring_nan(&mut sorted);
    sorted
}

/// Drops the `NaN` entries of `xs` and sorts the rest ascending, in place.
fn sort_ignoring_nan(xs: &mut Vec<f64>) {
    xs.retain(|v| !v.is_nan());
    xs.sort_unstable_by(f64::total_cmp);
}

/// [`median`] without the copy: drops the `NaN` entries of `xs` and sorts
/// it in place. Hot loops reuse one buffer through it.
pub fn median_in_place(xs: &mut Vec<f64>) -> f64 {
    sort_ignoring_nan(xs);
    quantile_sorted(xs, 0.5)
}

/// Quantile over data that is already sorted ascending.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Unbiased sample variance (`n - 1` denominator); `NaN` for fewer than two
/// samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum value; `NaN` for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Maximum value; `NaN` for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::max)
}

/// Five-number-plus-mean summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (0.5 quantile).
    pub median: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Computes the summary of `xs`, ignoring `NaN` values. Returns `None`
    /// when no non-`NaN` samples remain (including the empty slice); the
    /// reported `count` is the number of samples actually summarized.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let sorted = sorted_ignoring_nan(xs);
        if sorted.is_empty() {
            return None;
        }
        Some(Summary {
            count: sorted.len(),
            mean: mean(&sorted),
            median: quantile_sorted(&sorted, 0.5),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            q1: quantile_sorted(&sorted, 0.25),
            q3: quantile_sorted(&sorted, 0.75),
        })
    }
}

/// Wilson score interval for a binomial proportion.
///
/// Returns the `(lo, hi)` bounds for `successes / total` at the given
/// normal quantile `z` (`z = 2.576` for a 99 % interval, the level the
/// paper reports). Returns `None` when `total` is zero.
pub fn wilson_interval(successes: usize, total: usize, z: f64) -> Option<(f64, f64)> {
    if total == 0 {
        return None;
    }
    assert!(successes <= total, "successes exceed total");
    let n = total as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    Some(((center - half).max(0.0), (center + half).min(1.0)))
}

/// Bootstrap confidence interval of the median.
///
/// Resamples `xs` with replacement `resamples` times using the caller's RNG
/// (kept abstract as a closure returning uniform indices so this crate does
/// not depend on `rand`), then takes the `(alpha/2, 1 - alpha/2)` quantiles
/// of the resampled medians.
pub fn bootstrap_median_ci(
    xs: &[f64],
    resamples: usize,
    alpha: f64,
    mut uniform_index: impl FnMut(usize) -> usize,
) -> Option<(f64, f64)> {
    if xs.is_empty() || resamples == 0 {
        return None;
    }
    let mut medians = Vec::with_capacity(resamples);
    let mut sample = vec![0.0; xs.len()];
    for _ in 0..resamples {
        for slot in &mut sample {
            *slot = xs[uniform_index(xs.len())];
        }
        medians.push(median(&sample));
    }
    // `median` ignores NaN inputs, but an all-NaN resample still yields a
    // NaN median; drop those instead of letting them poison the quantiles.
    let medians = sorted_ignoring_nan(&medians);
    if medians.is_empty() {
        return None;
    }
    let lo = quantile_sorted(&medians, alpha / 2.0);
    let hi = quantile_sorted(&medians, 1.0 - alpha / 2.0);
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_in_place_equals_median_bitwise() {
        for xs in [
            vec![3.0, 1.0, 2.0],
            vec![4.0, f64::NAN, -1.5, 2.25, 0.0, -0.0],
            vec![f64::INFINITY, 5.0, f64::NEG_INFINITY, 1e-310],
            vec![f64::NAN],
            vec![],
        ] {
            let mut buf = xs.clone();
            assert_eq!(
                median_in_place(&mut buf).to_bits(),
                median(&xs).to_bits(),
                "{xs:?}"
            );
        }
    }

    #[test]
    fn mean_and_median_of_simple_samples() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(mean(&[]).is_nan());
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantiles_interpolate_linearly() {
        let xs = [0.0, 10.0];
        assert_eq!(quantile(&xs, 0.25), 2.5);
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        // clamped
        assert_eq!(quantile(&xs, 2.0), 10.0);
        assert_eq!(quantile(&xs, -1.0), 0.0);
    }

    #[test]
    fn variance_matches_definition() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        // mean 5, squared deviations sum = 32, n-1 = 7
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!(variance(&[1.0]).is_nan());
        assert!((std_dev(&xs) - (32.0_f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn min_max() {
        assert_eq!(min(&[3.0, -1.0, 2.0]), -1.0);
        assert_eq!(max(&[3.0, -1.0, 2.0]), 3.0);
        assert!(min(&[]).is_nan());
    }

    #[test]
    fn summary_collects_consistent_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn bootstrap_ci_brackets_the_median_for_tight_data() {
        let xs = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02];
        // deterministic "rng": round-robin indices
        let mut i = 0usize;
        let ci = bootstrap_median_ci(&xs, 200, 0.01, |n| {
            i = (i + 3) % n;
            i
        })
        .unwrap();
        assert!(ci.0 <= 10.0 + 1e-9 && ci.1 >= 10.0 - 0.2, "ci = {ci:?}");
        assert!(ci.0 <= ci.1);
    }

    #[test]
    fn wilson_interval_brackets_the_proportion() {
        let (lo, hi) = wilson_interval(80, 100, 2.576).unwrap();
        assert!(lo < 0.8 && 0.8 < hi);
        assert!(lo > 0.65 && hi < 0.92, "({lo}, {hi})");
        // Wider at the same level with fewer samples.
        let (lo2, hi2) = wilson_interval(8, 10, 2.576).unwrap();
        assert!(hi2 - lo2 > hi - lo);
        // Degenerate cases stay within [0, 1].
        let (lo3, hi3) = wilson_interval(0, 50, 2.576).unwrap();
        assert!(lo3 >= 0.0 && hi3 < 0.3);
        let (lo4, hi4) = wilson_interval(50, 50, 2.576).unwrap();
        assert!(lo4 > 0.7 && hi4 <= 1.0);
        assert!(wilson_interval(0, 0, 2.576).is_none());
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn wilson_rejects_impossible_counts() {
        let _ = wilson_interval(5, 3, 1.96);
    }

    #[test]
    fn bootstrap_rejects_degenerate_input() {
        assert!(bootstrap_median_ci(&[], 10, 0.05, |_| 0).is_none());
        assert!(bootstrap_median_ci(&[1.0], 0, 0.05, |_| 0).is_none());
    }

    #[test]
    fn quantile_ignores_nan_instead_of_panicking() {
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(quantile(&xs, 0.5), 2.0);
        assert_eq!(median(&xs), 2.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 3.0);
        // All-NaN degrades like the empty slice, not a panic.
        assert!(quantile(&[f64::NAN, f64::NAN], 0.5).is_nan());
        assert!(median(&[f64::NAN]).is_nan());
    }

    #[test]
    fn summary_ignores_nan_and_counts_survivors() {
        let s = Summary::of(&[5.0, f64::NAN, 1.0, f64::NAN, 3.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert!(Summary::of(&[f64::NAN, f64::NAN]).is_none());
    }

    #[test]
    fn bootstrap_tolerates_nan_in_the_sample() {
        let xs = [10.0, f64::NAN, 9.9, 10.1, 10.0];
        let mut i = 0usize;
        let ci = bootstrap_median_ci(&xs, 100, 0.05, |n| {
            i = (i + 1) % n;
            i
        })
        .unwrap();
        assert!(ci.0.is_finite() && ci.1.is_finite());
        assert!(ci.0 <= ci.1);
        // Resamples that are entirely NaN are dropped, not propagated.
        assert!(bootstrap_median_ci(&[f64::NAN], 10, 0.05, |_| 0).is_none());
    }

    #[test]
    fn summary_still_handles_infinities() {
        let s = Summary::of(&[f64::NEG_INFINITY, 0.0, f64::INFINITY]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, f64::NEG_INFINITY);
        assert_eq!(s.max, f64::INFINITY);
        assert_eq!(s.median, 0.0);
    }
}
