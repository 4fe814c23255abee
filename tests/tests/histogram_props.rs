//! Property-based tests of the telemetry latency histogram: bucket
//! bounds must stay monotone, and quantiles must land within one
//! log-bucket of the exact value.

use cirlearn_telemetry::Histogram;
use proptest::prelude::*;

/// Strategy: a batch of latency samples mixing the regimes the
/// histogram sees in practice — sub-bucket values, realistic
/// nanosecond latencies, and arbitrary magnitudes.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((any::<u64>(), 0u8..3), 1..200).prop_map(|raw| {
        raw.into_iter()
            .map(|(v, regime)| match regime {
                0 => v % 16,
                1 => 100 + v % 1_000_000,
                _ => v,
            })
            .collect()
    })
}

/// Strategy: a quantile in `[0, 1]` (the shim has no f64 ranges).
fn quantile() -> impl Strategy<Value = f64> {
    (0u32..=1000).prop_map(|q| q as f64 / 1000.0)
}

fn record_all(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// The exact rank-based quantile the histogram approximates:
/// `sorted[ceil(q * count) - 1]`, ranks clamped to `1..=count`.
fn exact_quantile(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn count_sum_min_max_are_exact(values in samples()) {
        let h = record_all(&values);
        prop_assert_eq!(h.count(), values.len() as u64);
        // Per-sample recording saturates the n-fold multiply, but the
        // accumulator itself is a plain wrapping atomic add.
        let sum: u64 = values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        prop_assert_eq!(h.sum(), sum);
        prop_assert_eq!(h.min(), *values.iter().min().expect("non-empty"));
        prop_assert_eq!(h.max(), *values.iter().max().expect("non-empty"));
    }

    #[test]
    fn quantile_is_within_one_bucket_of_exact(values in samples(), q in quantile()) {
        let h = record_all(&values);
        let exact = exact_quantile(&values, q);
        let approx = h.quantile(q);
        // The estimate is the lower bound of the bucket holding the
        // rank-th sample (capped at the exact max), so it can only
        // undershoot, and by at most the bucket width: one part in
        // eight plus integer truncation.
        prop_assert!(approx <= exact, "estimate {approx} overshoots exact {exact}");
        let width = exact / 8 + 1;
        prop_assert!(
            exact - approx <= width,
            "estimate {approx} misses exact {exact} by more than a bucket ({width})"
        );
    }

    #[test]
    fn quantile_is_monotone_in_q(values in samples(), q1 in quantile(), q2 in quantile()) {
        let h = record_all(&values);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(h.quantile(lo) <= h.quantile(hi));
    }

    #[test]
    // `v * n` must not overflow: bulk recording saturates the multiply
    // while the loop wraps the accumulator, so the sums would diverge.
    fn record_n_equals_repeated_record(v in 0..(u64::MAX / 128), n in 1u64..100) {
        let bulk = Histogram::new();
        bulk.record_n(v, n);
        let looped = Histogram::new();
        for _ in 0..n {
            looped.record(v);
        }
        prop_assert_eq!(bulk.summary(), looped.summary());
    }
}
