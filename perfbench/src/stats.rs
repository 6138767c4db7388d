//! Medians, quartiles and the tail-percentile rule.

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples needed beyond a percentile before it may serve as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count); 0 for
/// no samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A latency tail: the percentile used, its value and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported; 100 means the maximum.
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The tail of `values`: the highest of p99/p95/p90/p75/p50 that has at
/// least [`TAIL_MIN_BEYOND`] samples beyond it. With fewer than 20 samples
/// no percentile qualifies and the maximum is reported instead.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    let percentile = TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n.max(1), p)) >= TAIL_MIN_BEYOND)
        .unwrap_or(100.0);
    Tail {
        percentile,
        value: percentile_or_max(values, percentile),
        samples: n,
    }
}

fn percentile_or_max(values: &[f64], p: f64) -> f64 {
    if p >= 100.0 {
        values.iter().copied().fold(0.0, f64::max)
    } else {
        percentile(values, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_uses_the_highest_percentile_with_ten_samples_beyond() {
        // 40 samples: p75 leaves exactly 10 beyond, p90 only 4.
        let t = tail(&ramp(40));
        assert_eq!((t.percentile, t.value, t.samples), (75.0, 30.0, 40));
        // 100 samples: p90 leaves exactly 10 beyond.
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        // 99 samples: p90 (rank 90) leaves 9, so p75 it is.
        assert_eq!(tail(&ramp(99)).percentile, 75.0);
        // 1000 samples: p99 leaves 10.
        assert_eq!(tail(&ramp(1000)).percentile, 99.0);
        // 20 samples: p50 leaves 10.
        assert_eq!(tail(&ramp(20)).percentile, 50.0);
    }

    #[test]
    fn too_few_samples_fall_back_to_the_maximum() {
        let t = tail(&[2.0, 7.0, 5.0]);
        assert_eq!((t.percentile, t.value, t.samples), (100.0, 7.0, 3));
        assert_eq!(tail(&ramp(19)).percentile, 100.0);
        assert_eq!(tail(&[]).samples, 0);
    }
}
