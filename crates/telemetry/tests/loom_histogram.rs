//! Model checking the lock-free histogram with the weak-memory loom shim.
//!
//! Built only under `RUSTFLAGS="--cfg loom"`: the crate's `sync` alias then
//! routes every atomic through the model checker, so each test runs the
//! *exact production code path* — `RawHistogram` is the same generic the
//! `Histogram` alias instantiates — with every atomic op a scheduling point
//! and every load a value branch point. The checker exhaustively explores
//! the interleavings (up to the preemption bound) *and* the stale-read
//! behaviors the orderings permit for concurrent `record` and snapshot
//! calls.
//!
//! The publication discipline these tests pin down: writers update
//! min/max/buckets/sum with relaxed RMWs and publish them with a Release
//! `count` increment; readers gate on an Acquire `count` load first, so no
//! reader ever observes the empty histogram's `u64::MAX` min sentinel.

#![cfg(loom)]

use cirlearn_telemetry::histogram::RawHistogram;
use loom::sync::Arc;

/// A histogram small enough for exhaustive interleaving exploration; values
/// past bucket 3 clamp into it, which none of these statistics depend on.
type ModelHistogram = RawHistogram<4>;

#[test]
fn concurrent_records_lose_nothing() {
    loom::model(|| {
        let h = Arc::new(ModelHistogram::new());
        let h2 = Arc::clone(&h);
        let t = loom::thread::spawn(move || {
            h2.record(3);
        });
        h.record(9);
        t.join().unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 12);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 9);
    });
}

#[test]
fn reader_never_observes_the_min_sentinel() {
    // The PR-5 bugfix: with the old update order (count before min) a
    // concurrent reader could see count > 0 while min still held the
    // u64::MAX empty sentinel. The checker walks every interleaving of
    // the reader's loads with the writer's stores.
    loom::model(|| {
        let h = Arc::new(ModelHistogram::new());
        let h2 = Arc::clone(&h);
        let t = loom::thread::spawn(move || {
            h2.record(7);
        });
        let min = h.min();
        let max = h.max();
        assert!(min == 0 || min == 7, "min sentinel leaked: {min}");
        assert!(max == 0 || max == 7, "impossible max: {max}");
        t.join().unwrap();
        assert_eq!(h.min(), 7);
        assert_eq!(h.max(), 7);
    });
}

#[test]
fn snapshot_during_concurrent_record_is_coherent() {
    // A summary taken mid-write may or may not include the in-flight
    // sample, but it must never report impossible statistics: a nonzero
    // count with sentinel extrema, min above max, or a sum from nowhere.
    loom::model(|| {
        let h = Arc::new(ModelHistogram::new());
        let h2 = Arc::clone(&h);
        let t = loom::thread::spawn(move || {
            h2.record(6);
        });
        let s = h.summary();
        assert!(s.count <= 1, "at most one sample is in flight");
        if s.count == 1 {
            assert_eq!(s.min, 6);
            assert_eq!(s.max, 6);
            assert_eq!(s.sum, 6);
            assert_eq!(s.p50, 6);
        } else {
            // The fields of a count-0 snapshot are loaded at separate
            // points, so later loads may already see the sample — but
            // never the sentinel.
            assert!(s.min == 0 || s.min == 6, "min sentinel leaked: {}", s.min);
        }
        t.join().unwrap();
        assert_eq!(h.summary().count, 1);
    });
}
