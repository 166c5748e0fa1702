//! Summary statistics under the benchmark's reporting rules.

/// Samples that must lie strictly after a reported percentile's rank, so a
/// tail figure never rests on a handful of observations.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`pct` in whole percent) of ascending samples.
///
/// Returns `None` when fewer than [`MIN_BEYOND`] samples rank after the
/// percentile: such a run is too short to report that tail.
pub fn percentile(sorted: &[u64], pct: usize) -> Option<u64> {
    let n = sorted.len();
    if n == 0 || pct > 100 {
        return None;
    }
    // 1-based nearest rank, ceil(n * pct / 100), in integer arithmetic so
    // that 99% of 1000 samples is rank 990 exactly.
    let rank = (n * pct).div_ceil(100).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Smallest sample count for which [`percentile`] reports `pct`.
/// `pct` must be below 100 (no sample can lie beyond the maximum).
pub fn min_samples_for(pct: usize) -> usize {
    assert!(pct < 100, "no sample lies beyond the 100th percentile");
    (1..).find(|&n| n - (n * pct).div_ceil(100) >= MIN_BEYOND).expect("pct < 100 terminates")
}

/// `num / den` as a float, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of a non-empty slice of seconds (mean of the middle pair for
/// even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let samples: Vec<u64> = (1..=1000).collect();
        // Rank 990 leaves exactly 10 samples beyond.
        assert_eq!(percentile(&samples, 99), Some(990));
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&short, 99), None, "999 samples leave only 9 beyond rank 990");
        assert_eq!(min_samples_for(99), 1000);
    }

    #[test]
    fn median_rank_and_small_runs() {
        let samples: Vec<u64> = (1..=21).collect();
        assert_eq!(percentile(&samples, 50), Some(11));
        assert_eq!(percentile(&samples[..19], 50), None, "rank 10 of 19 leaves 9 beyond");
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(min_samples_for(50), 20);
    }

    #[test]
    fn every_reported_sample_count_satisfies_the_rule() {
        for n in [1000usize, 1001, 1500, 12_345] {
            let samples: Vec<u64> = (0..n as u64).collect();
            let p99 = percentile(&samples, 99).expect("n >= 1000");
            let beyond = samples.iter().filter(|&&s| s > p99).count();
            assert!(beyond >= MIN_BEYOND, "n={n}: {beyond} beyond p99");
        }
    }

    #[test]
    fn median_of_seconds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
