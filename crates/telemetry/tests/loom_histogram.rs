//! Model checking the lock-free histogram with the weak-memory loom shim.
//!
//! Built only under `RUSTFLAGS="--cfg loom"`: the crate's `sync` alias then
//! routes every atomic through the model checker, so each test runs the
//! *exact production code path* — `RawHistogram` is the same generic the
//! `Histogram` alias instantiates — with every atomic op a scheduling point
//! and every load a value branch point. The checker exhaustively explores
//! the interleavings (up to the preemption bound) *and* the stale-read
//! behaviors the orderings permit for concurrent `record`, `merge` and
//! snapshot calls.
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
fn record_and_merge_interleave_cleanly() {
    loom::model(|| {
        let src = ModelHistogram::new();
        src.record(5); // populated before the threads race
        let src = Arc::new(src);
        let dst = Arc::new(ModelHistogram::new());
        let (s2, d2) = (Arc::clone(&src), Arc::clone(&dst));
        let t = loom::thread::spawn(move || {
            d2.merge(&s2);
        });
        dst.record(1);
        t.join().unwrap();
        assert_eq!(dst.count(), 2);
        assert_eq!(dst.sum(), 6);
        assert_eq!(dst.min(), 1);
        assert_eq!(dst.max(), 5);
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

#[test]
fn local_shard_drop_merge_races_a_snapshot_coherently() {
    // A sharded recording: a worker thread records into a private
    // histogram (uncontended) and publishes the whole shard via one
    // `merge`, while the reporting thread snapshots the
    // shared histogram concurrently. The snapshot may land before or
    // after the publish, but never in an incoherent in-between state.
    loom::model(|| {
        let shared = Arc::new(ModelHistogram::new());
        let s2 = Arc::clone(&shared);
        let t = loom::thread::spawn(move || {
            // Thread-private recording: loom sees no scheduling points
            // that matter here, only the merge below races the reader.
            let local = ModelHistogram::new();
            local.record(4);
            local.record(8);
            s2.merge(&local);
        });
        let s = shared.summary();
        assert!(s.count <= 2, "shard published too many samples");
        if s.count > 0 {
            assert!(s.min == 4 || s.min == 8, "min sentinel leaked: {}", s.min);
            assert!(s.max == 4 || s.max == 8, "impossible max: {}", s.max);
            assert!(s.min <= s.max);
        }
        t.join().unwrap();
        let end = shared.summary();
        assert_eq!(end.count, 2);
        assert_eq!(end.sum, 12);
        assert_eq!(end.min, 4);
        assert_eq!(end.max, 8);
    });
}

#[test]
fn concurrent_merges_from_two_shards_accumulate() {
    // The telemetry counter/histogram aggregation pattern: worker shards
    // merged into one accumulator from two threads at once.
    loom::model(|| {
        let a = ModelHistogram::new();
        a.record(2);
        let b = ModelHistogram::new();
        b.record(9);
        let (a, b) = (Arc::new(a), Arc::new(b));
        let total = Arc::new(ModelHistogram::new());
        let (t2, a2) = (Arc::clone(&total), Arc::clone(&a));
        let t = loom::thread::spawn(move || {
            t2.merge(&a2);
        });
        total.merge(&b);
        t.join().unwrap();
        assert_eq!(total.count(), 2);
        assert_eq!(total.sum(), 11);
        assert_eq!(total.min(), 2);
        assert_eq!(total.max(), 9);
    });
}
