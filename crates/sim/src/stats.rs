//! Measurement utilities: scalar summaries, time-weighted values and
//! percentiles.

use crate::time::Time;

/// Running summary of a scalar sample stream (latencies, sizes, ...).
///
/// ```
/// use dmx_sim::Summary;
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0] { s.record(v); }
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration sample in seconds.
    pub(crate) fn record_time(&mut self, t: Time) {
        self.record(t.as_secs_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of samples; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample; zero when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; zero when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Geometric mean of a slice of positive values; `None` when empty or
/// when any value is non-positive.
///
/// The paper reports most aggregate results (speedups, kernel-speedup
/// geomean of 6.5x) as geometric means.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Time-weighted average of a piecewise-constant signal (queue depths,
/// active-job counts).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    value: f64,
    last: Time,
    integral: f64,
}

impl TimeWeighted {
    /// Starts tracking with an initial value at time zero.
    pub(crate) fn new(initial: f64) -> Self {
        TimeWeighted {
            value: initial,
            last: Time::ZERO,
            integral: 0.0,
        }
    }

    /// Sets the signal to `value` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub(crate) fn set(&mut self, now: Time, value: f64) {
        assert!(now >= self.last, "TimeWeighted updated backwards");
        self.integral += self.value * (now - self.last).as_secs_f64();
        self.last = now;
        self.value = value;
    }

    /// Time-weighted mean over `[0, now]`, flushing up to `now`.
    pub(crate) fn mean(&mut self, now: Time) -> f64 {
        self.set(now, self.value);
        if now.is_zero() {
            self.value
        } else {
            self.integral / now.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        s.record(2.0);
        s.record(4.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_none());
        assert!(geomean(&[1.0, 0.0]).is_none());
        assert!(geomean(&[1.0, -2.0]).is_none());
    }

    #[test]
    fn geomean_of_identical_values() {
        let g = geomean(&[6.5; 5]).unwrap();
        assert!((g - 6.5).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::new(0.0);
        tw.set(Time::from_secs(1), 10.0); // 0 for 1s
        tw.set(Time::from_secs(3), 0.0); // 10 for 2s
        let m = tw.mean(Time::from_secs(4)); // 0 for 1s
        assert!((m - 5.0).abs() < 1e-9);
    }
}

/// Collects samples for quantile queries (exact; sorted at most once
/// per snapshot, so querying p50/p99/p999 on the same data pays one
/// sort, not three).
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    /// True while `samples` is known to be sorted; cleared by `record`.
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The `q`-quantile (0..=1) by nearest-rank; `None` when empty.
    /// Sorts in place on the first query after a record; subsequent
    /// queries index directly. NaN samples sort to the end (IEEE total
    /// order) rather than aborting the whole report.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub(crate) fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        Some(self.samples[rank - 1])
    }

    /// Median.
    pub fn p50(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile (the tail the overload experiments watch).
    pub fn p999(&mut self) -> Option<f64> {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod percentile_tests {
    use super::Percentiles;

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut p = Percentiles::new();
        for v in 1..=100 {
            p.record(v as f64);
        }
        assert_eq!(p.p50(), Some(50.0));
        assert_eq!(p.p99(), Some(99.0));
        assert_eq!(p.p999(), Some(100.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.count(), 100);
    }

    #[test]
    fn empty_is_none() {
        assert_eq!(Percentiles::new().p50(), None);
    }

    #[test]
    fn single_sample() {
        let mut p = Percentiles::new();
        p.record(7.0);
        assert_eq!(p.p50(), Some(7.0));
        assert_eq!(p.p99(), Some(7.0));
    }
}
