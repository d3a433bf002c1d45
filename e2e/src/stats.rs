//! Order statistics and the segment reporter.
//!
//! Every timing metric of a run is the **median of five per-segment
//! values**: the measured window is cut into five equal slices of wall
//! time, each statistic is computed inside each slice, and the median of
//! the five is reported together with the distance between the first and
//! third quartile (the `.spread`). A stall that lands in one slice —
//! another tenant of the shared host, a page-cache hiccup — moves one of
//! five values and leaves the median alone.

/// Number of equal slices a measured window is cut into.
pub const SEGMENTS: usize = 5;

/// A percentile is reported only when this many samples lie beyond it.
const MIN_BEYOND: usize = 10;

/// Quartile cut points as Python's `statistics.quantiles(v, n=4)` gives
/// them (the "exclusive" method) — the driver computes spreads this way, so
/// the benchmark's own `.spread` and `--compare` use the same arithmetic.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // CPython: j, delta = divmod(i * (n + 1), 4); j is clamped to
        // [1, n - 1] and delta recomputed from the clamped j, so the ends
        // extrapolate.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median and inter-quartile distance of a set of per-segment (or per-run)
/// values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// Q3 − Q1, in the metric's own unit.
    pub iqr: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let iqr = quartiles(values).map(|(q1, _, q3)| q3 - q1).unwrap_or(0.0);
        Summary {
            median: median(values),
            iqr,
        }
    }

    /// Spread as a share of the median (what the bounds are stated in).
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr / self.median.abs()
        }
    }
}

/// The `q`-quantile (0..1) of an ascending-sorted slice, nearest-rank.
pub fn percentile_sorted(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The tail percentile a sample of `n` supports: the highest of
/// p99 / p95 / p90 with at least [`MIN_BEYOND`] samples beyond it.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|q| (n as f64 * (1.0 - q)) >= MIN_BEYOND as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0]), Some((10.0, 20.0, 30.0)));
    }

    #[test]
    fn summary_is_median_and_iqr() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.iqr, 3.0);
        assert_eq!(s.rel_spread(), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(150), Some(0.90));
        assert_eq!(supported_tail(99), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
    }
}
