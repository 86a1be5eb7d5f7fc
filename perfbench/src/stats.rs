//! Sample statistics: nearest-rank percentiles and medians.

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank `⌈q·n⌉`, clamped to `1..=n`. `q` is in `(0, 1]`.
///
/// # Panics
///
/// Panics on an empty sample or a `q` outside `(0, 1]`.
#[must_use]
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(q > 0.0 && q <= 1.0, "q must be in (0, 1]");
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of quantile `q` in a sample of `n`.
#[must_use]
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// How many samples lie strictly beyond the nearest-rank `q` quantile:
/// a percentile is only reported when at least ten do.
#[must_use]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).min(n)
}

/// Median of an unsorted sample (nearest rank, like the percentiles).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    nearest_rank(&sorted, 0.5)
}

/// Mean of a sample (`0` when empty).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sorts ascending; infinities (failed requests) sort last.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Rounds a measured phase is cut into. The end-to-end rates and
/// latencies are taken from the upper-quartile round: the speed of a
/// shared machine drifts by a fifth over seconds, and other load only
/// ever slows a round down, so the better rounds repeat from run to run
/// while the median follows the drift.
pub const ROUNDS: usize = 10;

/// The round statistic: of the rounds sorted best first, the one at
/// this nearest-rank quantile.
const ROUND_QUANTILE: f64 = 0.25;

/// The per-round measurements of one measured phase.
#[derive(Debug, Default)]
pub struct Rounds {
    /// (operations, seconds, latencies) per completed round.
    done: Vec<(f64, f64, Vec<f64>)>,
    open: (f64, f64, Vec<f64>),
}

impl Rounds {
    /// Adds `ops` operations that took `secs` and their latencies to the
    /// open round.
    pub fn add(&mut self, ops: usize, secs: f64, latencies: impl IntoIterator<Item = f64>) {
        self.open.0 += ops as f64;
        self.open.1 += secs;
        self.open.2.extend(latencies);
    }

    /// Closes the open round.
    pub fn close(&mut self) {
        if self.open.0 > 0.0 {
            let mut round = std::mem::take(&mut self.open);
            sort(&mut round.2);
            self.done.push(round);
        }
    }

    /// Operations in the open round so far.
    #[must_use]
    pub fn open_ops(&self) -> usize {
        self.open.0 as usize
    }

    /// Closed rounds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether no round was closed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Operations per second of the upper-quartile round.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let mut rates: Vec<f64> = self.done.iter().map(|(ops, secs, _)| ops / secs).collect();
        sort(&mut rates);
        nearest_rank(&rates, 1.0 - ROUND_QUANTILE)
    }

    /// The nearest-rank `q` latency of the upper-quartile round.
    #[must_use]
    pub fn latency(&self, q: f64) -> f64 {
        let mut per_round: Vec<f64> = self
            .done
            .iter()
            .map(|(_, _, lat)| nearest_rank(lat, q))
            .collect();
        sort(&mut per_round);
        nearest_rank(&per_round, ROUND_QUANTILE)
    }

    /// Spread of the per-round rates: (max − min) / median.
    #[must_use]
    pub fn throughput_range(&self) -> f64 {
        let rates: Vec<f64> = self.done.iter().map(|(ops, secs, _)| ops / secs).collect();
        let (lo, hi) = rates
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
        ratio(hi - lo, median(&rates))
    }

    /// Latency samples in the smallest round (the percentile support).
    #[must_use]
    pub fn min_samples(&self) -> usize {
        self.done.iter().map(|r| r.2.len()).min().unwrap_or(0)
    }

    /// Seconds over all rounds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.done.iter().map(|r| r.1).sum()
    }
}

/// `part / whole`, or `0` when nothing was attempted.
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let sample: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&sample, 0.5), 5.0);
        assert_eq!(nearest_rank(&sample, 0.51), 6.0);
        assert_eq!(nearest_rank(&sample, 0.99), 10.0);
        assert_eq!(nearest_rank(&sample, 0.01), 1.0);
        assert_eq!(nearest_rank(&sample, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        // p99 of 1000 samples is rank 990: ten samples lie beyond it.
        assert_eq!(rank(1000, 0.99), 990);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(100, 0.5), 50);
        assert_eq!(samples_beyond(1, 0.99), 0);
    }

    #[test]
    fn failed_requests_sort_last_and_miss_the_percentile() {
        let mut sample = vec![f64::INFINITY, 3.0, 1.0, 2.0];
        sort(&mut sample);
        assert_eq!(sample[..3], [1.0, 2.0, 3.0]);
        assert_eq!(nearest_rank(&sample, 1.0), f64::INFINITY);
    }

    #[test]
    fn rounds_report_the_upper_quartile_round() {
        let mut rounds = Rounds::default();
        for (ops, secs, lat) in [
            (100, 1.0, 5.0),
            (100, 2.0, 9.0),
            (100, 0.5, 1.0),
            (100, 4.0, 3.0),
        ] {
            rounds.add(ops, secs, [lat; 4]);
            rounds.close();
        }
        rounds.close(); // nothing open: no empty round
        assert_eq!(rounds.len(), 4);
        // Rates 25, 50, 100, 200: rank 3 of 4 ascending.
        assert_eq!(rounds.throughput(), 100.0);
        // Latencies 1, 3, 5, 9: rank 1 of 4 ascending.
        assert_eq!(rounds.latency(0.5), 1.0);
        assert_eq!(rounds.min_samples(), 4);
        assert_eq!(rounds.seconds(), 7.5);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }
}
