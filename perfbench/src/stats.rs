//! The metric arithmetic: percentiles under the ten-samples-beyond rule,
//! log-log slopes, and span self time.

/// Nearest-rank position (1-based) of quantile `q` in `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples ranked strictly above the `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The `q`-quantile of `sorted` (nearest rank), or `None` unless at least
/// ten samples lie beyond it — a tail figure resting on fewer samples
/// is one outlier, not a percentile.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (samples_beyond(sorted.len(), q) >= 10).then(|| sorted[rank(sorted.len(), q) - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Log-log slope of time against size between each adjacent pair of
/// `(size, time)` points: 1 is linear growth, 2 quadratic.
pub fn loglog_slopes(points: &[(f64, f64)]) -> Vec<f64> {
    points
        .windows(2)
        .map(|w| (w[1].1 / w[0].1).ln() / (w[1].0 / w[0].0).ln())
        .collect()
}

/// A closed span `[start, end]` in nanoseconds with its parent's index.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children may overlap one another (they can run on
/// different threads), so the covered part is the length of their union,
/// clipped to the parent.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start.max(parent.start), s.end.min(parent.end));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.9), Some(90.0));
        assert_eq!(samples_beyond(100, 0.9), 10);
        // 99 samples leave only 9 above the p90 rank
        assert_eq!(percentile(&sorted[..99], 0.9), None);
        assert_eq!(percentile(&sorted, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(990.0));
        assert_eq!(percentile(&sorted[..19], 0.5), None);
        assert_eq!(percentile(&sorted[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn loglog_slope_reads_growth_order() {
        let quadratic = [(10.0, 1.0), (20.0, 4.0), (40.0, 16.0)];
        for s in loglog_slopes(&quadratic) {
            assert!((s - 2.0).abs() < 1e-12);
        }
        let linear = [(1e4, 3.0), (8e4, 24.0)];
        assert!((loglog_slopes(&linear)[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            // root 0..100 with children 10..40 and 30..50 (overlapping,
            // union 40) and a grandchild that must not count twice
            Interval {
                start: 0,
                end: 100,
                parent: None,
            },
            Interval {
                start: 10,
                end: 40,
                parent: Some(0),
            },
            Interval {
                start: 30,
                end: 50,
                parent: Some(0),
            },
            Interval {
                start: 12,
                end: 20,
                parent: Some(1),
            },
            // a child that outlives its parent is clipped to it
            Interval {
                start: 200,
                end: 210,
                parent: None,
            },
            Interval {
                start: 205,
                end: 230,
                parent: Some(4),
            },
        ];
        assert_eq!(self_times(&spans), vec![60, 22, 20, 8, 5, 25]);
    }
}
