//! Order statistics and the spread arithmetic every metric goes through.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice, so a missing measurement can never read as 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `count`
/// samples — the number the "at least ten beyond it" rule looks at.
pub fn samples_beyond(count: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * count as f64).ceil() as usize;
    count - rank.clamp(usize::from(count > 0), count)
}

/// A metric's value over the windows (or repeats) of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Spread {
    /// The reported value — the median, unless the caller pooled.
    pub median: f64,
    /// Smallest single value.
    pub min: f64,
    /// Largest single value.
    pub max: f64,
}

impl Spread {
    /// Summarises single values by their median and range.
    pub fn of(values: &[f64]) -> Spread {
        Spread {
            median: median(values),
            min: values.iter().copied().fold(f64::NAN, f64::min),
            max: values.iter().copied().fold(f64::NAN, f64::max),
        }
    }

    /// `(max − min) ÷ median`: how far the values of one run disagree.
    pub fn relative_width(&self) -> f64 {
        if self.median == 0.0 {
            return if self.max == self.min {
                0.0
            } else {
                f64::INFINITY
            };
        }
        (self.max - self.min) / self.median.abs()
    }

    /// Whether two runs' ranges share any value.
    pub fn overlaps(&self, other: &Spread) -> bool {
        self.min <= other.max && other.min <= self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        // 240 samples: p95 is rank 228, so 12 samples lie beyond it.
        assert_eq!(samples_beyond(240, 95.0), 12);
        assert_eq!(samples_beyond(0, 95.0), 0);
    }

    #[test]
    fn spread_width_and_overlap() {
        let a = Spread::of(&[10.0, 11.0, 12.0, 9.0, 10.0]);
        assert_eq!(a.median, 10.0);
        assert_eq!((a.min, a.max), (9.0, 12.0));
        assert!((a.relative_width() - 0.3).abs() < 1e-12);
        let b = Spread::of(&[12.5, 13.0, 14.0]);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&Spread::of(&[11.5, 13.0])));
    }
}
