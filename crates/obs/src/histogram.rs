//! A fixed-size log₂-bucketed histogram.

/// Number of buckets: bucket `b` holds values whose bit-length is `b`,
/// i.e. `[2^(b−1), 2^b)`, with bucket 0 reserved for the value 0. 48
/// bits comfortably covers picosecond durations (2⁴⁸ ps ≈ 4.7 min).
const BUCKETS: usize = 48;

/// A quantile: a fraction of the samples, in `[0, 1]`.
///
/// The median is [`Quantile::P50`] (0.5), never `50.0`: a percentile
/// cannot be passed where a quantile is expected, and out-of-range
/// fractions are rejected at construction instead of clamped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile(f64);

impl Quantile {
    /// The median.
    pub const P50: Quantile = Quantile(0.5);
    /// The 99th percentile.
    pub const P99: Quantile = Quantile(0.99);

    /// The quantile `q`, or `None` unless `0 <= q <= 1`.
    pub fn new(q: f64) -> Option<Quantile> {
        (0.0..=1.0).contains(&q).then_some(Quantile(q))
    }

    /// The fraction, in `[0, 1]`.
    pub fn get(self) -> f64 {
        self.0
    }
}

/// A log₂-bucketed histogram of `u64` samples.
///
/// Constant-size (no allocation per sample), so the recording observer
/// can feed it from the hot path. Exact `count`/`sum`/`min`/`max` are
/// kept alongside the buckets; percentiles are bucket-resolution
/// approximations (reported as the bucket's upper bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros() as usize).min(BUCKETS - 1);
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Bucket-resolution quantile: the upper bound of the bucket that
    /// contains the `q`-quantile sample, clamped to the exact min/max.
    /// `None` if empty.
    pub fn quantile(&self, q: Quantile) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.get() * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if b == 0 { 0 } else { (1u64 << b) - 1 };
                return Some(upper.min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Non-empty buckets as `(lower, upper, count)` value ranges.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| {
                if b == 0 {
                    (0, 0, c)
                } else {
                    (1u64 << (b - 1), (1u64 << b) - 1, c)
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(Quantile::P50), None);
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    fn exact_stats_and_buckets() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1_001_006);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1_000_000));
        // value 0 -> bucket 0; 1 -> [1,1]; 2,3 -> [2,3]; 1000 -> [512,1023].
        let buckets: Vec<_> = h.buckets().collect();
        assert!(buckets.contains(&(0, 0, 1)));
        assert!(buckets.contains(&(1, 1, 1)));
        assert!(buckets.contains(&(2, 3, 2)));
        assert!(buckets.contains(&(512, 1023, 1)));
    }

    #[test]
    fn quantile_is_bucket_resolution() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        // p50 lands in the [8,15] bucket.
        assert_eq!(h.quantile(Quantile::P50), Some(15));
        // p100 is clamped to the exact max.
        let max = Quantile::new(1.0).and_then(|q| h.quantile(q));
        assert_eq!(max, Some(1_000_000));
    }

    #[test]
    fn quantiles_outside_the_unit_interval_do_not_exist() {
        assert_eq!(Quantile::new(0.5), Some(Quantile::P50));
        assert_eq!(Quantile::new(50.0), None, "a percentile is not a quantile");
        assert_eq!(Quantile::new(-0.1), None);
        assert_eq!(Quantile::new(f64::NAN), None);
    }
}
