//! Order statistics for the reported figures.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail figure: the value, the percentile it sits at and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// Percentile of that rank, `100·(n − 10)/n`.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it:
/// the `(n − 10)`-th smallest of `n` samples. `None` below 11 samples,
/// where no rank has ten samples above it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    Some(Tail {
        value: v[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).expect("11 samples");
        assert_eq!(t.value, 0.0);
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [11usize, 12, 40, 100, 1000] {
            // Shuffled input: the rule is about ranks, not input order.
            let values: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let t = tail(&values).expect("enough samples");
            let beyond = values.iter().filter(|&&v| v > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert!((t.percentile - 100.0 * (n - 10) as f64 / n as f64).abs() < 1e-12);
        }
        let t = tail(&(0..1000).map(f64::from).collect::<Vec<_>>()).expect("n");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 989.0);
    }
}
