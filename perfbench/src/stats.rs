//! Exact order statistics over raw samples — never bucketed histograms.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile: the `⌈p/100 · n⌉`-th smallest sample (the
/// smallest for `p = 0`). `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The median (nearest rank, so always an observed sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it:
/// the `(n − 10)`-th smallest sample, which has exactly ten larger-ranked
/// samples above it. Returns `(value, percentile)`, or `None` when fewer
/// than eleven samples exist.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let v = sorted(samples);
    let rank = n - TAIL_BEYOND;
    Some((v[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// Interquartile mean: the mean of the samples left after dropping the
/// lowest and highest `⌊n/4⌋`. Robust to the outlying quarter on either
/// side, and steadier than the median on broad distributions. `None` for an
/// empty slice.
pub fn interquartile_mean(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Metric names `BENCHMARK.json` allows: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
pub fn is_valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: order statistics must not depend on input order.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [11usize, 20, 40, 64, 150, 1000] {
            let samples = ramp(n);
            let (value, pct) = tail(&samples).expect("n > 10");
            let beyond = samples.iter().filter(|&&s| s > value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(value, (n - TAIL_BEYOND) as f64);
            assert!((pct - 100.0 * (n - TAIL_BEYOND) as f64 / n as f64).abs() < 1e-12);
        }
        assert_eq!(tail(&ramp(10)), None);
        // The percentile climbs with the sample count: p75 at 40, p90 at 100.
        assert_eq!(tail(&ramp(40)).map(|t| t.1), Some(75.0));
        assert_eq!(tail(&ramp(100)).map(|t| t.1), Some(90.0));
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let samples = ramp(100);
        assert_eq!(median(&samples), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        // 1..=8: drop {1, 2} and {7, 8}, mean of 3..=6.
        assert_eq!(interquartile_mean(&ramp(8)), Some(4.5));
        // An outlier in the top quarter does not move it.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 1e9]), Some(2.5));
        assert_eq!(interquartile_mean(&[7.0]), Some(7.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn metric_names_are_validated() {
        for good in ["poses_per_s", "signal.mim_ms", "a", "0-x", "link.delivered_share"] {
            assert!(is_valid_metric_name(good), "{good}");
        }
        for bad in ["", "_lead", ".x", "has space", "slash/y", "ünicode", &"x".repeat(65)] {
            assert!(!is_valid_metric_name(bad), "{bad}");
        }
    }
}
