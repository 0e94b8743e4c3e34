//! Order statistics for latency samples.
//!
//! A tail percentile is only reported when enough samples lie beyond it:
//! with fewer than [`MIN_TAIL`] samples above the cut, a "p99" is really the
//! maximum of a handful of values and moves with every outlier.

use std::time::Instant;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// Hard cap on a measured phase, whatever its sample count.
pub const MAX_SECONDS: f64 = 150.0;

/// Samples a run needs before `q` may be reported: `n · (1 − q) ≥ MIN_TAIL`.
pub fn samples_needed(q: f64) -> usize {
    (MIN_TAIL as f64 / (1.0 - q)).ceil() as usize
}

/// The stop rule of every measured phase: at least `seconds` and enough
/// `samples` for a p99, or [`MAX_SECONDS`] whatever the count.
pub fn should_stop(started: Instant, seconds: f64, samples: usize) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    (elapsed >= seconds && samples >= samples_needed(0.99)) || elapsed >= MAX_SECONDS
}

/// Nearest-rank `q`-quantile of `samples` (unsorted; `+inf` entries stand
/// for failed operations, which miss any latency limit). `None` when fewer
/// than [`MIN_TAIL`] samples would lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "quantile {q} outside [0, 1)");
    if samples.len() < samples_needed(q) || samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // nearest rank: the smallest value with at least q·n samples at or below
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank - 1])
}

/// Median of `samples` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&few, 0.99), None);
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        // exactly ten samples (991..=1000) lie beyond the reported value
        assert_eq!(percentile(&enough, 0.99), Some(990.0));
        assert_eq!(enough.iter().filter(|&&v| v > 990.0).count(), MIN_TAIL);
    }

    #[test]
    fn stop_needs_both_time_and_samples() {
        let now = Instant::now();
        assert!(!should_stop(now, 0.0, 999));
        assert!(should_stop(now, 0.0, 1000));
        assert!(!should_stop(now, 60.0, 1000));
    }

    #[test]
    fn percentile_ignores_input_order_and_counts_failures_as_slowest() {
        let mut s: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(20.0));
        // the two fastest operations failed: everything shifts up two ranks
        s[38] = f64::INFINITY;
        s[39] = f64::INFINITY;
        assert_eq!(percentile(&s, 0.5), Some(22.0));
    }

    #[test]
    fn median_and_mean_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
