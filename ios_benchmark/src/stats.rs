//! The harness's own arithmetic: nearest-rank percentiles, the "ten
//! samples beyond" rule, quartile spread, and per-round medians.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    sorted[rank(sorted.len(), p) - 1]
}

/// One-based nearest rank of percentile `p` among `n >= 1` samples. The
/// product is nudged down before rounding up, so that 99.9 % of 10 000 is
/// rank 9 990 and not, by a floating-point hair, 9 991.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank position of percentile `p`
/// among `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n.max(1), p).min(n)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` when not even the median does.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Sorts a copy ascending (samples are finite by construction).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// How many of a run's fastest samples make up its gated timing.
pub const BEST_OF: usize = 3;

/// Mean of the `BEST_OF` fastest samples — the statistic every gated timing
/// is reported as. The host this runs on alternates, for seconds at a time,
/// between states up to 2x apart in speed, and a median (or any fixed
/// percentile) moves with the share of the run each state filled.
/// Interference only ever adds time, so the fastest operations are the ones
/// the host did not disturb; three of them, so one fluke cannot set the
/// number.
///
/// # Panics
///
/// Panics on no samples.
pub fn best(values: &[f64]) -> f64 {
    let fastest = sorted(values);
    mean(&fastest[..BEST_OF.min(fastest.len())])
}

/// Median by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Mean, 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Quartiles by the exclusive method, matching Python's
/// `statistics.quantiles(values, n=4)`.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Python computes the weight after clamping `j`, so tiny samples
        // extrapolate; do the same.
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// Inter-quartile distance as a share of the median — the spread the
/// benchmark's bounds are set against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Number of rounds a run's samples are split into so in-run spread is
/// visible beside every median.
pub const ROUNDS: usize = 5;

/// Medians of `ROUNDS` consecutive equal slices of `values` (in arrival
/// order); fewer slices when there are fewer samples than rounds.
pub fn round_medians(values: &[f64]) -> Vec<f64> {
    let rounds = ROUNDS.min(values.len());
    (0..rounds)
        .map(|r| {
            let lo = r * values.len() / rounds;
            let hi = (r + 1) * values.len() / rounds;
            median(&values[lo..hi])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Nearest rank never interpolates and never under-reports.
        let w = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&w, 50.0), 2.0);
        assert_eq!(percentile(&w, 51.0), 3.0);
        assert_eq!(percentile(&w, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn best_is_the_mean_of_the_three_fastest() {
        assert_eq!(best(&[9.0, 1.0, 5.0, 2.0, 3.0, 100.0]), 2.0);
        assert_eq!(best(&[4.0, 2.0]), 3.0);
        assert_eq!(best(&[7.0]), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 100 samples: p90 sits at rank 90, ten beyond; p95 has only five.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn rounds_cover_every_sample_once() {
        let v: Vec<f64> = (0..23).map(f64::from).collect();
        let m = round_medians(&v);
        assert_eq!(m.len(), ROUNDS);
        assert!(m.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(round_medians(&[4.0, 2.0]), vec![4.0, 2.0]);
    }
}
