//! Order statistics for the benchmark's reported numbers.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by the nearest-rank
/// rule, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// it: a tail percentile is reported only when the run has enough
/// samples to support it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..1.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // nearest rank: the smallest sample with at least q*n samples at or below it
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Smallest sample count for which [`percentile`] reports `q`.
#[cfg(test)]
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| n - ((q * n as f64).ceil() as usize).clamp(1, n) >= MIN_BEYOND)
        .expect("some sample count supports every q < 1")
}

/// The median (mean of the two middle samples for an even count);
/// `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let q = 0.99;
        assert_eq!(min_samples_for(q), 1000);
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&short, q), None);
        let full: Vec<f64> = (0..1000).map(f64::from).collect();
        // rank 990: 10 samples (990..=999) lie beyond it
        assert_eq!(percentile(&full, q), Some(989.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(min_samples_for(0.5), 20);
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        // rank 10: the ten samples 11..=20 lie beyond it
        assert_eq!(percentile(&s, 0.5), Some(10.0));
        assert_eq!(percentile(&s[..19], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut s: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = percentile(&s, 0.99);
        s.reverse();
        assert_eq!(a, percentile(&s, 0.99));
        assert_eq!(a, Some(1979.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
