//! Per-bucket mean inference time (Figure 8).
//!
//! This module is the workspace's only sanctioned home for wall-clock reads
//! in result-affecting crates (R5, clippy's `disallowed_types`): timing is a
//! *reported metric* here, never an input to detection. Everything else
//! must take a [`Stopwatch`] or a [`Duration`] instead of touching the clock.

#![expect(
    clippy::disallowed_types,
    reason = "the sanctioned wall-clock home: timing here is a reported metric, never a detection input"
)]

use crate::buckets::Bucket;
use std::time::{Duration, Instant};

/// A started wall-clock timer.
///
/// The sanctioned way to measure training/inference wall-clock outside this
/// module: callers start a `Stopwatch` and read [`Self::elapsed`], keeping
/// the raw `Instant::now` calls confined to this module.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Time elapsed since [`Self::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// Inference-time accumulator per stay-point bucket.
#[derive(Debug, Clone, Default)]
pub struct BucketTiming {
    sums: [Duration; 4],
    counts: [usize; 4],
}

impl BucketTiming {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one detection's wall-clock duration.
    pub fn record(&mut self, n_stays: usize, elapsed: Duration) {
        let b = Bucket::of(n_stays).index();
        self.sums[b] += elapsed;
        self.counts[b] += 1;
    }

    /// Mean inference time in milliseconds for one bucket; `None` when empty.
    pub fn mean_ms(&self, bucket: Bucket) -> Option<f64> {
        let i = bucket.index();
        (self.counts[i] > 0).then(|| self.sums[i].as_secs_f64() * 1_000.0 / self.counts[i] as f64)
    }

    /// Mean inference time in milliseconds across all buckets.
    pub fn overall_mean_ms(&self) -> Option<f64> {
        let total: usize = self.counts.iter().sum();
        let sum: Duration = self.sums.iter().sum();
        (total > 0).then(|| sum.as_secs_f64() * 1_000.0 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_are_per_bucket() {
        let mut t = BucketTiming::new();
        t.record(4, Duration::from_millis(10));
        t.record(4, Duration::from_millis(30));
        t.record(10, Duration::from_millis(100));
        assert_eq!(t.mean_ms(Bucket::B3to5), Some(20.0));
        assert_eq!(t.mean_ms(Bucket::B9to11), Some(100.0));
        assert_eq!(t.mean_ms(Bucket::B6to8), None);
        assert_eq!(t.overall_mean_ms(), Some(140.0 / 3.0));
    }

    #[test]
    fn empty_reports_none() {
        assert_eq!(BucketTiming::new().overall_mean_ms(), None);
    }
}
