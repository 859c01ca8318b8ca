//! Sample statistics: the median and the tail-percentile rule.

/// The median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail latency: the value and the percentile it sits at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile in `50..=100`.
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
}

/// The highest percentile with at least ten samples beyond it.
///
/// Percentiles are nearest-rank: the `i`-th smallest of `n` samples
/// (0-based) sits at `100 * (i + 1) / n` and has `n - 1 - i` samples
/// beyond it, so the answer is index `n - 11`. The rule never reports
/// below the median: when fewer than ten samples lie beyond the median
/// (`n < 21`), the sample supports no tail and the median is returned at
/// p50. Panics on an empty sample.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if let Some(i) = n.checked_sub(11) {
        let percentile = 100.0 * (i + 1) as f64 / n as f64;
        if percentile > 50.0 {
            return Tail {
                percentile,
                value: sorted(xs)[i],
            };
        }
    }
    Tail {
        percentile: 50.0,
        value: median(xs),
    }
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
        // Shuffled so the rule cannot rely on input order.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [21usize, 40, 100, 1000] {
            let xs = ramp(n);
            let t = tail(&xs);
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, 10, "n = {n}");
            assert!(t.percentile > 50.0);
        }
        // 100 samples: the 90th value, at p90.
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        // 200 samples: p95.
        assert_eq!(tail(&ramp(200)).percentile, 95.0);
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        for n in [1usize, 2, 5, 10, 11, 20] {
            let xs = ramp(n);
            let t = tail(&xs);
            assert_eq!(t.percentile, 50.0, "n = {n}");
            assert_eq!(t.value, median(&xs));
        }
    }
}
