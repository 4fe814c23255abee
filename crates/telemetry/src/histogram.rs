//! A log-bucketed latency histogram.
//!
//! [`Histogram`] records `u64` samples (by convention: nanoseconds)
//! into logarithmically spaced buckets — base-2 octaves split into
//! [`SUB_BUCKETS`] linear sub-buckets, so any bucket's width is at most
//! 1/[`SUB_BUCKETS`] (12.5%) of its lower bound. That bounds the error
//! of every reported quantile to one bucket while keeping the whole
//! structure a fixed 496-slot array: no allocation per sample and no
//! rebinning.
//!
//! Buckets and totals are [`Cell`]s: recording through `&self` is a
//! handful of plain adds, and the histogram is `!Sync`, so it is read
//! and written from the one thread that owns its
//! [`Telemetry`](crate::Telemetry) handle.
//!
//! # Examples
//!
//! ```
//! use cirlearn_telemetry::Histogram;
//!
//! let h = Histogram::new();
//! for v in 1..=1000u64 {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 1000);
//! assert_eq!(h.max(), 1000);
//! // p50 of 1..=1000 is 500; the log bucket puts it within 12.5%.
//! let p50 = h.quantile(0.5);
//! assert!((437..=563).contains(&p50), "p50 estimate {p50}");
//! ```

use std::cell::Cell;
use std::time::Duration;

use crate::json::Json;

/// Linear sub-buckets per base-2 octave (8 → ≤ 12.5% bucket width).
pub const SUB_BUCKETS: u64 = 8;
const SUB_BITS: u32 = 3; // log2(SUB_BUCKETS)
/// Total bucket count: an exact linear range `[0, SUB_BUCKETS)` plus
/// `SUB_BUCKETS` sub-buckets for each of the remaining 61 octaves.
pub const NUM_BUCKETS: usize = (SUB_BUCKETS + (64 - SUB_BITS as u64) * SUB_BUCKETS) as usize;

/// The bucket index a value lands in. Total order: bucket indices are
/// monotone in the value.
pub fn bucket_of(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let h = 63 - value.leading_zeros(); // floor(log2(value)) >= SUB_BITS
    let octave = (h - SUB_BITS) as u64;
    let sub = (value >> (h - SUB_BITS)) - SUB_BUCKETS; // in [0, SUB_BUCKETS)
    (SUB_BUCKETS + octave * SUB_BUCKETS + sub) as usize
}

/// The smallest value that lands in bucket `index` (the bucket's lower
/// bound, which is also the value [`Histogram::quantile`] reports for
/// samples inside it).
///
/// # Panics
///
/// Panics if `index >= NUM_BUCKETS`.
pub fn bucket_lower_bound(index: usize) -> u64 {
    assert!(index < NUM_BUCKETS, "bucket index {index} out of range");
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let octave = (index - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = (index - SUB_BUCKETS) % SUB_BUCKETS;
    (SUB_BUCKETS + sub) << octave
}

/// A log-bucketed histogram of `u64` samples (see the module docs).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[Cell<u64>; NUM_BUCKETS]>,
    count: Cell<u64>,
    sum: Cell<u64>,
    min: Cell<u64>,
    max: Cell<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new(std::array::from_fn(|_| Cell::new(0))),
            count: Cell::new(0),
            sum: Cell::new(0),
            min: Cell::new(u64::MAX),
            max: Cell::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value in O(1).
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.min.set(self.min.get().min(value));
        self.max.set(self.max.get().max(value));
        // panic-ok: `bucket_of` is below `NUM_BUCKETS` for every value.
        let bucket = &self.buckets[bucket_of(value)];
        bucket.set(bucket.get() + n);
        self.sum
            .set(self.sum.get().wrapping_add(value.saturating_mul(n)));
        self.count.set(self.count.get() + n);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`,
    /// ~584 years).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Sum of all samples (each sample's `value * n` saturates; the
    /// total wraps).
    pub fn sum(&self) -> u64 {
        self.sum.get()
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.get()
        }
    }

    /// Largest recorded sample (exact, not bucketed; 0 when empty).
    pub fn max(&self) -> u64 {
        self.max.get()
    }

    /// The `q`-quantile (`q` in `[0, 1]`), reported as the lower bound
    /// of the bucket holding the rank-`ceil(q * count)` sample — within
    /// one bucket (≤ 12.5%) of the exact quantile. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the quantile sample, 1-based; q=0 maps to rank 1.
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        if rank == count {
            // The top-ranked sample is the maximum, tracked exactly.
            return self.max();
        }
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.get();
            if seen >= rank {
                return bucket_lower_bound(i);
            }
        }
        self.max()
    }

    /// Snapshots the headline statistics.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Headline statistics of one [`Histogram`]: the form that goes into
/// run reports and `BENCH_*.json`. Values are in the histogram's
/// recording unit (nanoseconds for the pipeline's latency histograms).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (exact).
    pub min: u64,
    /// Largest sample (exact).
    pub max: u64,
    /// Median estimate (bucket lower bound).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Serializes to the run-report JSON form.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("min", Json::from(self.min)),
            ("max", Json::from(self.max)),
            ("p50", Json::from(self.p50)),
            ("p90", Json::from(self.p90)),
            ("p99", Json::from(self.p99)),
        ])
    }

    /// Parses the run-report JSON form.
    pub fn from_json(json: &Json) -> Result<HistogramSummary, String> {
        let field = |name: &str| -> Result<u64, String> {
            json.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing u64 field histogram.{name}"))
        };
        Ok(HistogramSummary {
            count: field("count")?,
            sum: field("sum")?,
            min: field("min")?,
            max: field("max")?,
            p50: field("p50")?,
            p90: field("p90")?,
            p99: field("p99")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_monotone_and_consistent() {
        let mut prev = None;
        for i in 0..NUM_BUCKETS {
            let lo = bucket_lower_bound(i);
            if let Some(p) = prev {
                assert!(lo > p, "bucket {i} bound {lo} not above {p}");
            }
            assert_eq!(bucket_of(lo), i, "lower bound of bucket {i} maps back");
            prev = Some(lo);
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_width_is_bounded() {
        // Every bucket's width is at most 1/SUB_BUCKETS of its lower
        // bound (for buckets past the exact linear range).
        for i in SUB_BUCKETS as usize..NUM_BUCKETS - 1 {
            let lo = bucket_lower_bound(i);
            let hi = bucket_lower_bound(i + 1);
            assert!(
                (hi - lo).saturating_mul(SUB_BUCKETS) <= lo,
                "bucket {i}: [{lo}, {hi}) wider than {}%",
                100 / SUB_BUCKETS
            );
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0, "empty min must be 0, not the u64::MAX sentinel");
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn quantiles_of_uniform_samples_are_close() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        for (q, exact) in [(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900)] {
            let got = h.quantile(q);
            assert_eq!(
                bucket_of(got),
                bucket_of(exact),
                "q={q}: estimate {got} not in the exact value's bucket ({exact})"
            );
        }
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_n(42, 5);
        for _ in 0..5 {
            b.record(42);
        }
        assert_eq!(a.summary(), b.summary());
        a.record_n(7, 0); // no-op
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn durations_record_as_nanoseconds() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(5));
        assert_eq!(h.min(), 5_000);
        assert_eq!(h.max(), 5_000);
        // Saturation instead of overflow for absurd durations.
        h.record_duration(Duration::MAX);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let h = Histogram::new();
        for v in [10u64, 200, 3_000, 3_000, 40_000] {
            h.record(v);
        }
        let s = h.summary();
        let text = s.to_json().to_pretty();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(HistogramSummary::from_json(&parsed).expect("schema"), s);
        assert!(s.mean() > 0.0);
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let h = Histogram::new();
        for v in [1u64, 10, 100, 1_000, 10_000] {
            h.record_n(v, 10);
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile not monotone at q={q}");
            prev = v;
        }
        assert_eq!(h.quantile(1.0), 10_000);
    }

    #[test]
    fn extreme_values_land_in_the_top_bucket() {
        let h = Histogram::new();
        h.record(2);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.5), 2);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }
}
