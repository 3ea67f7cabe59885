//! Summary statistics for Monte-Carlo experiment results.

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (0 for fewer than two samples).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Standard error of the mean.
pub fn std_error(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    std_dev(xs) / (xs.len() as f64).sqrt()
}

/// Quantile via linear interpolation between order statistics
/// (the "type 7" estimator used by NumPy and R).
///
/// `q` is clamped to `[0, 1]`. Returns NaN for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let h = q * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Nearest-rank percentile of an already **sorted** slice: the smallest
/// element with at least `p`% of the samples at or below it. `p` is in
/// percent; `p <= 0` gives the minimum and `p >= 100` the maximum.
/// Returns 0 for an empty slice.
///
/// Unlike [`quantile`] it never interpolates, so every result is an
/// observed sample — the convention of latency tail reports.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Minimum (NaN for an empty slice). NaN inputs are ignored.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(f64::NAN, |m, x| if m.is_nan() || x < m { x } else { m })
}

/// Maximum (NaN for an empty slice). NaN inputs are ignored.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(f64::NAN, |m, x| if m.is_nan() || x > m { x } else { m })
}

/// Histogram with uniform bins over `[lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
    underflow: usize,
    overflow: usize,
}

impl Histogram {
    /// Creates an empty histogram with `bins` uniform bins over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram needs lo < hi");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Adds every observation from a slice.
    pub fn extend_from(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Count of observations below `lo`.
    pub fn underflow(&self) -> usize {
        self.underflow
    }

    /// Count of observations at or above `hi`.
    pub fn overflow(&self) -> usize {
        self.overflow
    }

    /// Total observations recorded, including under/overflow.
    pub fn total(&self) -> usize {
        self.counts.iter().sum::<usize>() + self.underflow + self.overflow
    }

    /// Center of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin {i} out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample variance (n-1): Σ(x-5)² = 32, /7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(std_error(&[]), 0.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn quantile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 99.9), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        // An observed sample, never an interpolation between two.
        assert_eq!(percentile(&xs[..4], 50.0), 2.0);
        assert_eq!(quantile(&xs[..4], 0.5), 2.5);
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(median(&xs), 5.0);
    }

    #[test]
    fn min_max_ignore_nan() {
        let xs = [f64::NAN, 2.0, -1.0, f64::NAN, 5.0];
        assert_eq!(min(&xs), -1.0);
        assert_eq!(max(&xs), 5.0);
        assert!(min(&[]).is_nan());
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.extend_from(&[0.5, 1.5, 2.5, 9.9, -1.0, 10.0, 100.0]);
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
        assert!((h.bin_center(0) - 1.0).abs() < 1e-12);
        assert!((h.bin_center(4) - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
