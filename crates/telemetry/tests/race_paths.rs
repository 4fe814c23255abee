//! Running the happens-before race detector over the telemetry's
//! lock-free recording paths on real threads.
//!
//! Built only under `RUSTFLAGS="--cfg race"`: the crate's `sync` alias
//! then routes every mutex and atomic through `vendor/tsan`'s
//! instrumented wrappers, which ride vector clocks alongside the real
//! full-speed operations. Threads are spawned with `tsan::thread` so
//! fork/join edges are recorded; inside, the code under test is the
//! unmodified production path — direct `Histogram` record/snapshot
//! traffic, and a `Telemetry` handle's counter and histogram tables
//! recorded from one thread while another opens spans and reports. A
//! detected race panics with both conflicting stacks, which these
//! tests would surface as a failed `join`.
//!
//! The final test seeds a genuine race through a `RacyCell` to prove
//! the harness is live — that the clean run above is clean because
//! the path synchronizes, not because the detector is asleep.

#![cfg(race)]

use cirlearn_telemetry::{counters, histograms, Counter, Hist, Histogram, Telemetry};
use tsan::RacyCell;

use std::sync::Arc;

#[test]
fn direct_histogram_records_and_snapshots_are_race_free() {
    let h = Arc::new(Histogram::new());
    let writers: Vec<_> = (0..2)
        .map(|_| {
            let h = Arc::clone(&h);
            tsan::thread::spawn(move || {
                for i in 1..=200u64 {
                    h.record(i);
                }
            })
        })
        .collect();
    let reader = {
        let h = Arc::clone(&h);
        tsan::thread::spawn(move || {
            for _ in 0..50 {
                let s = h.summary();
                assert!(s.count <= 400);
                if s.count > 0 {
                    assert!(s.min >= 1, "min sentinel leaked: {}", s.min);
                    assert!(s.min <= s.max);
                }
            }
        })
    };
    for w in writers {
        w.join().expect("no race on the record path");
    }
    reader.join().expect("no race on the snapshot path");
    assert_eq!(h.count(), 400);
    assert_eq!(h.sum(), 2 * (1..=200u64).sum::<u64>());
}

#[test]
fn counter_table_records_are_race_free_beside_spans_and_reports() {
    let telemetry = Telemetry::recording();
    let recorder = {
        let telemetry = telemetry.clone();
        tsan::thread::spawn(move || {
            for i in 1..=200u64 {
                telemetry.add(Counter::FbdtSplits, 2);
                telemetry.incr(Counter::CubesCollected);
                telemetry.record(Hist::FbdtNodeNs, i);
            }
        })
    };
    for _ in 0..50 {
        let _span = telemetry.span("fbdt");
        let report = telemetry.report();
        assert!(report.counter(counters::FBDT_SPLITS) <= 400);
        assert!(report.counter(counters::CUBES_COLLECTED) <= 200);
    }
    recorder.join().expect("no race on the counter table");
    let report = telemetry.report();
    assert_eq!(report.counter(counters::FBDT_SPLITS), 400);
    assert_eq!(report.counter(counters::CUBES_COLLECTED), 200);
    let nodes = &report.histograms[histograms::FBDT_NODE_NS];
    assert_eq!((nodes.count, nodes.sum), (200, (1..=200u64).sum::<u64>()));
    let fbdt = report.stage("fbdt").expect("the spans closed");
    assert_eq!(fbdt.calls, 50);
    // The spans saw only part of the traffic, never more than all of it.
    assert!(
        fbdt.counters
            .get(counters::FBDT_SPLITS)
            .copied()
            .unwrap_or(0)
            <= 400
    );
}

#[test]
fn the_detector_is_live_on_this_configuration() {
    // A seeded race: two sibling threads write a RacyCell with no
    // synchronization between them. Fork edges order each against the
    // parent, not against each other, so the second write must be
    // flagged. If this test fails, the clean results above are
    // meaningless.
    let cell = Arc::new(RacyCell::new(0u64));
    let (c1, c2) = (Arc::clone(&cell), Arc::clone(&cell));
    let t1 = tsan::thread::spawn(move || c1.write(|v| *v += 1));
    let t2 = tsan::thread::spawn(move || c2.write(|v| *v += 1));
    let r1 = t1.join();
    let r2 = t2.join();
    assert!(
        r1.is_err() || r2.is_err(),
        "seeded unsynchronized writes were not detected"
    );
}
