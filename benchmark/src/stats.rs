//! Percentiles with their sample counts, and the rate-ladder rule.
//!
//! Every percentile goes through `nrpm_linalg::stats::quantile_sorted`.
//! A timing is reported as its median, its p90 and the highest percentile
//! (at most p99) that still has at least ten samples beyond it, with the
//! sample count. Limits and gated tails use p90: on a shared two-core
//! virtual machine, scheduling stalls of several milliseconds move p99 of
//! a sub-millisecond request by an order of magnitude from run to run.

use nrpm_linalg::stats::quantile_sorted;

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// The highest whole percentile, capped at p99, with at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it; the median when `n` is too
/// small for anything higher.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let beyond = TAIL_SAMPLES as f64 / n as f64;
    let whole = ((1.0 - beyond) * 100.0 + 1e-9).floor() / 100.0;
    whole.clamp(0.5, 0.99)
}

/// Median and tail of one sample, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub tail_q: f64,
    pub tail: f64,
}

impl Dist {
    pub fn of(samples: &[f64]) -> Dist {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_unstable_by(f64::total_cmp);
        let tail_q = tail_quantile(sorted.len());
        Dist {
            n: sorted.len(),
            p50: quantile_sorted(&sorted, 0.5),
            p90: quantile_sorted(&sorted, 0.9),
            tail_q,
            tail: quantile_sorted(&sorted, tail_q),
        }
    }

    /// `p50 1.23 ms, p90 2.34 ms, p99 4.56 ms (n=1000)`.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit}, p90 {:.4} {unit}, p{} {:.4} {unit} (n={})",
            self.p50,
            self.p90,
            (self.tail_q * 100.0).round(),
            self.tail,
            self.n
        )
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Dist::of(samples).p50
}

/// The `q`-quantile of the finite samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_unstable_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// `true` when latencies (in send order) keep rising across the phase:
/// the last quarter's median is more than twice the first quarter's and
/// the rise exceeds `slack_ms`. A queue that drains between requests
/// shows no such trend, whatever its tail.
pub fn backlog_grows(latencies_in_order: &[f64], slack_ms: f64) -> bool {
    let n = latencies_in_order.len();
    if n < 8 {
        return false;
    }
    let first = median(&latencies_in_order[..n / 4]);
    let last = median(&latencies_in_order[n - n / 4..]);
    last > 2.0 * first && last - first > slack_ms
}

/// One rung of a fixed rate ladder.
#[derive(Debug, Clone)]
pub struct Rung {
    pub rate: f64,
    pub latency: Dist,
    pub failed: usize,
    pub backlog: bool,
}

impl Rung {
    /// A rung passes when nothing failed, no backlog built up, and its
    /// p90 met the limit. A failed request counts as missing the limit.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0 && !self.backlog && self.latency.p90 <= limit_ms
    }
}

/// The highest rate of the ladder's passing prefix: rungs run in rising
/// order and the climb stops at the first rung that misses. `0` when even
/// the first rung misses.
pub fn max_rate(rungs: &[Rung], limit_ms: f64) -> f64 {
    rungs
        .iter()
        .take_while(|r| r.passes(limit_ms))
        .map(|r| r.rate)
        .last()
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(5000), 0.99, "capped at p99");
        assert_eq!(tail_quantile(400), 0.97);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(78), 0.87);
        assert_eq!(tail_quantile(12), 0.5, "falls back to the median");
        for n in [20usize, 50, 78, 100, 333, 400, 999, 1000] {
            let q = tail_quantile(n);
            assert!(
                n as f64 * (1.0 - q) >= TAIL_SAMPLES as f64 - 1e-9,
                "n={n} q={q}"
            );
        }
    }

    #[test]
    fn quantile_ignores_order_and_non_finite_samples() {
        let samples = [5.0, f64::NAN, 1.0, 4.0, 2.0, 3.0, f64::INFINITY];
        assert_eq!(quantile(&samples, 0.5), 3.0);
        assert!((quantile(&samples, 0.8) - 4.2).abs() < 1e-12);
    }

    #[test]
    fn dist_reports_count_and_interpolated_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        let d = Dist::of(&samples);
        assert_eq!(d.n, 100);
        assert_eq!(d.p50, 50.5);
        assert!((d.p90 - 90.1).abs() < 1e-9);
        assert_eq!(d.tail_q, 0.9);
        assert_eq!(d.tail, d.p90);
    }

    fn rung(rate: f64, latencies: &[f64]) -> Rung {
        Rung {
            rate,
            latency: Dist::of(latencies),
            failed: 0,
            backlog: backlog_grows(latencies, 1.0),
        }
    }

    #[test]
    fn max_rate_is_the_top_of_the_passing_prefix() {
        let flat = vec![2.0; 400];
        let slow = vec![30.0; 400];
        let rungs = vec![
            rung(100.0, &flat),
            rung(200.0, &flat),
            rung(300.0, &slow),
            rung(400.0, &flat),
        ];
        assert_eq!(
            max_rate(&rungs, 10.0),
            200.0,
            "the climb stops at the first miss"
        );
        assert_eq!(max_rate(&rungs[2..], 10.0), 0.0);
    }

    #[test]
    fn a_growing_backlog_disqualifies_a_rung_whose_tail_meets_the_limit() {
        // Latency climbs steadily from 1 ms to 9 ms: p90 is under the
        // 10 ms limit, but the queue never drains.
        let growing: Vec<f64> = (0..400).map(|i| 1.0 + 8.0 * i as f64 / 399.0).collect();
        let r = rung(300.0, &growing);
        assert!(r.latency.p90 <= 10.0);
        assert!(r.backlog);
        let flat = vec![2.0; 400];
        assert_eq!(max_rate(&[rung(200.0, &flat), r], 10.0), 200.0);
    }

    #[test]
    fn a_failed_request_misses_the_limit() {
        let mut r = rung(100.0, &[1.0; 400]);
        r.failed = 1;
        assert!(!r.passes(10.0));
    }

    #[test]
    fn noise_without_trend_is_not_a_backlog() {
        let jitter: Vec<f64> = (0..400)
            .map(|i| if i % 7 == 0 { 20.0 } else { 2.0 })
            .collect();
        assert!(!backlog_grows(&jitter, 1.0));
    }
}
