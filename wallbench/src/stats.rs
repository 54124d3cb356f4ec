//! Latency samples, nearest-rank percentiles and the tail-count rule.

use std::time::Duration;

/// A p99 is reported only when at least this many samples lie beyond
/// it; a run with fewer fails its own check.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 · n)` (1-based). `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n ≥ 1` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples sit at ranks above the `p`-th percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Wall-clock samples of one operation, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    us: Vec<f64>,
}

impl Samples {
    /// Record one duration.
    pub fn push(&mut self, d: Duration) {
        self.us.push(d.as_secs_f64() * 1e6);
    }

    #[cfg(test)]
    fn push_value(&mut self, v: f64) {
        self.us.push(v);
    }

    /// Summarize: p50, p99 and the count beyond p99.
    pub fn summary(&self) -> Summary {
        let mut sorted = self.us.clone();
        sorted.sort_by(f64::total_cmp);
        Summary {
            count: sorted.len(),
            p50: percentile(&sorted, 50.0).unwrap_or(0.0),
            p99: percentile(&sorted, 99.0).unwrap_or(0.0),
            beyond_p99: beyond(sorted.len(), 99.0),
        }
    }
}

/// A latency summary with its sample counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Samples ranked above the p99.
    pub beyond_p99: usize,
}

impl Summary {
    /// Whether the p99 rests on enough tail samples to report.
    pub fn tail_ok(&self) -> bool {
        self.beyond_p99 >= MIN_TAIL_SAMPLES
    }
}

/// Median of unsorted values (the lower middle for an even count, so a
/// reported set-up time is always one that was measured).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_rule_needs_a_thousand_samples() {
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(2500, 99.0), 25);
        assert_eq!(beyond(0, 99.0), 0);
        let mut s = Samples::default();
        for i in 0..999 {
            s.push_value(i as f64);
        }
        assert!(!s.summary().tail_ok());
        s.push_value(5.0);
        let sum = s.summary();
        assert!(sum.tail_ok());
        assert_eq!(sum.count, 1000);
        assert_eq!(sum.p99, 988.0);
    }

    #[test]
    fn median_is_a_measured_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
