//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for even counts).
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Geometric mean of positive `xs`. Panics on an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of no samples");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Percentile levels tried, highest first, when reporting a tail.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(level, value)`, using the
/// nearest-rank definition (the value at 1-based rank `ceil(p/100 · n)`;
/// the samples beyond it are the `n − rank` larger-ranked ones). `None`
/// when even the median has too few samples beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = nearest_rank(p, n);
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| (p, s[rank - 1]))
    })
}

fn nearest_rank(p: f64, n: usize) -> usize {
    // Integer arithmetic on per-mille levels keeps e.g. 99.9 % of 1000
    // at rank 999 instead of a float-rounded 1000.
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helper has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_weighs_each_value_once() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn tail_picks_the_highest_level_with_ten_samples_beyond() {
        // 1000 samples: p99.9 is rank 999 (1 beyond), p99 rank 990 (10 beyond).
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 is rank 990 (9 beyond) — too few; p95 is rank 950.
        assert_eq!(tail(&ramp(999)), Some((95.0, 950.0)));
        // 200 samples: p95 is rank 190, exactly 10 beyond.
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
        // 100 samples: p90 is rank 90, exactly 10 beyond.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 40 samples: p75 is rank 30, exactly 10 beyond.
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 20 samples: only the median (rank 10) has 10 beyond.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
    }

    #[test]
    fn tail_is_none_when_no_level_has_ten_samples_beyond() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn every_reported_tail_has_ten_samples_strictly_beyond_its_rank() {
        for n in 20..1500 {
            let xs = ramp(n);
            let (p, v) = tail(&xs).expect("n >= 20 always has a median tail");
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} p={p}: {beyond} beyond");
            // ... and the next level up (if any) would not have had enough.
            if let Some(higher) = TAIL_LADDER.iter().rev().find(|&&q| q > p) {
                let rank = nearest_rank(*higher, n);
                assert!(n - rank < TAIL_MIN_BEYOND, "n={n}: {higher} also qualifies");
            }
        }
    }
}
