//! Sample summaries and process-level readings.

/// Nearest rank (1-based) of a percentile given in tenths of a percent,
/// in whole numbers so that p90 of 100 samples is rank 90 exactly.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n.max(1))
}

/// A latency sample set, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn median(&self) -> f64 {
        self.at(50.0)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    pub fn at(&self, percentile: f64) -> f64 {
        match self.0.len() {
            0 => 0.0,
            n => self.0[rank(n, (percentile * 10.0).round() as usize) - 1],
        }
    }

    /// The highest of p50/p90/p95/p99/p99.9 that still has at least ten
    /// samples beyond it, with its value; `None` under 20 samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.0.len();
        [999, 990, 950, 900, 500]
            .into_iter()
            .find(|&p| n >= 20 && n - rank(n, p) >= 10)
            .map(|p| (p as f64 / 10.0, self.0[rank(n, p) - 1]))
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0 where `/proc`
/// has no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let of = |n: usize| Samples::new((1..=n).map(|i| i as f64).collect());
        assert_eq!(of(19).tail(), None);
        assert_eq!(of(20).tail(), Some((50.0, 10.0)));
        assert_eq!(of(99).tail(), Some((50.0, 50.0)));
        assert_eq!(of(100).tail(), Some((90.0, 90.0)));
        assert_eq!(of(200).tail(), Some((95.0, 190.0)));
        assert_eq!(of(1000).tail(), Some((99.0, 990.0)));
        assert_eq!(of(10_000).tail(), Some((99.9, 9990.0)));
    }

    #[test]
    fn median_and_mean_of_small_sets() {
        assert_eq!(Samples::default().median(), 0.0);
        let s = Samples::new(vec![9.0, 1.0, 5.0]);
        assert_eq!((s.median(), s.mean(), s.len()), (5.0, 5.0, 3));
        assert_eq!(Samples::new(vec![4.0, 2.0]).median(), 2.0);
    }

    #[test]
    fn peak_rss_reads_a_positive_number_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
