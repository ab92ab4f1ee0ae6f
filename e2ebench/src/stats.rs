//! Exact summaries of raw samples: nearest-rank percentiles over latency
//! samples, medians over small per-pass series, and the quartiles the
//! bound calibration uses.

/// Fewest samples that must lie beyond a tail percentile for it to be
/// reported: with fewer, the "percentile" is one or two stragglers.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// How many samples the distribution held.
    pub samples: usize,
}

/// Nearest-rank index (0-based) of percentile `p` (in percent) over `n`
/// sorted samples: the smallest rank whose share of samples reaches `p`.
fn rank(p: f64, n: usize) -> usize {
    let k = (p / 100.0 * n as f64).ceil() as usize;
    k.clamp(1, n) - 1
}

/// The median of raw samples by nearest rank. `None` when empty.
pub fn p50(samples: &[f64]) -> Option<Percentile> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (!sorted.is_empty()).then(|| Percentile {
        value: sorted[rank(50.0, sorted.len())],
        samples: sorted.len(),
    })
}

/// Tail percentile `p` (in percent) by nearest rank, reported only when at
/// least [`MIN_BEYOND`] samples lie beyond it; `None` otherwise.
pub fn tail(samples: &[f64], p: f64) -> Option<Percentile> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return None;
    }
    let k = rank(p, sorted.len());
    (sorted.len() - 1 - k >= MIN_BEYOND).then(|| Percentile {
        value: sorted[k],
        samples: sorted.len(),
    })
}

/// The conventional median (mean of the middle two for an even count),
/// for short per-pass series where nearest rank would pick an extreme.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles with the default (`exclusive`) method of
/// Python's `statistics.quantiles(values, n=4)`, so a spread computed here
/// matches one computed by a script over the same values. `None` for fewer
/// than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_percentiles() {
        assert_eq!(p50(&[]), None);
        assert_eq!(tail(&[], 99.0), None);
        assert!(median(&[]).is_nan());
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn single_sample_is_its_own_median_but_never_a_tail() {
        let one = [4.5];
        assert_eq!(
            p50(&one),
            Some(Percentile {
                value: 4.5,
                samples: 1
            })
        );
        assert_eq!(median(&one), 4.5);
        assert_eq!(tail(&one, 99.0), None);
        assert_eq!(quartiles(&one), None);
    }

    #[test]
    fn nearest_rank_picks_exact_samples() {
        // 1..=100 shuffled: the p-th percentile is exactly p.
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(p50(&samples).unwrap().value, 50.0);
        assert_eq!(tail(&samples, 90.0).unwrap().value, 90.0);
        assert_eq!(tail(&samples, 90.0).unwrap().samples, 100);
        // Rank rounds up: p25 of four samples is the first one.
        assert_eq!(p50(&[3.0, 1.0, 4.0, 2.0]).unwrap().value, 2.0);
        assert_eq!(rank(25.0, 4), 0);
        assert_eq!(rank(100.0, 4), 3);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand, 99.0).unwrap().value, 990.0);
        // One sample fewer leaves nine beyond: not reported.
        assert_eq!(tail(&thousand[..999], 99.0), None);
        // p90 needs a hundred samples.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(tail(&hundred, 90.0).is_some());
        assert_eq!(tail(&hundred[..99], 90.0), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
    }
}
