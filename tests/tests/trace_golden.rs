//! Golden trace shape: one budgeted learner run, traced and dumped
//! through the flight recorder, must produce exactly the recorded
//! event stream once every clock is masked.
//!
//! The run is a pure function of its seed and query cap (no wall
//! budget binds), so the masked stream pins the event kinds, their
//! order, stage paths and every non-clock field byte for byte. The
//! flight dump is checked against the same stream: its recorded lines
//! ahead of the trailer must be a whole-line suffix of it.
//!
//! On a mismatch the masked stream is written next to the system temp
//! dir as `cirlearn-trace-golden.actual.jsonl`, so a deliberate change
//! of the trace format can be reviewed and copied over the fixture.

use std::time::Duration;

use cirlearn::{Learner, LearnerConfig};
use cirlearn_oracle::generate;
use cirlearn_telemetry::{json::Json, Telemetry, TraceWriter};

const FIXTURE: &str = include_str!("../data/trace_golden/neq_budgeted.jsonl");

/// Fields that carry a clock reading (or, for `tid`, a per-process
/// thread counter) and so vary from run to run.
const MASKED: [&str; 7] = [
    "t_us",
    "elapsed_us",
    "verify_us",
    "at_us",
    "remaining_us",
    "query_ns",
    "tid",
];

/// Rewrites one JSONL stream into its clock-free shape: `metrics`
/// lines (throttled by wall time) are dropped, and every non-null
/// masked field becomes `0`.
fn mask(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let Json::Object(pairs) = Json::parse(line).expect("trace line parses") else {
            panic!("trace line is not an object: {line}");
        };
        let kind = pairs.iter().find(|(k, _)| k == "kind").map(|(_, v)| v);
        if kind.and_then(Json::as_str) == Some("metrics") {
            continue;
        }
        let masked: Vec<(String, Json)> = pairs
            .into_iter()
            .map(|(k, v)| {
                if MASKED.contains(&k.as_str()) && v != Json::Null {
                    (k, Json::from(0u64))
                } else {
                    (k, v)
                }
            })
            .collect();
        out.push_str(&Json::Object(masked).to_compact());
        out.push('\n');
    }
    out
}

/// Learns a two-output NEQ case under a query cap, with a trace
/// stream and a flight dump path attached, and returns the raw trace
/// text and the raw flight dump.
fn budgeted_run() -> (String, String) {
    let dir = std::env::temp_dir().join(format!("cirlearn-trace-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let dump_path = dir.join("flight.jsonl");

    let mut oracle = generate::neq_case_with_support(28, 2, 22, 11);
    let telemetry = Telemetry::recording();
    let (trace, sink) = TraceWriter::to_shared_buffer();
    telemetry.set_trace(trace);
    telemetry.set_flight_dump_path(Some(dump_path.clone()));

    let mut cfg = LearnerConfig::fast();
    // Force the FBDT strategy, cap the queries and lift every wall
    // budget out of reach, so only the seed and the cap decide the run.
    cfg.fbdt.exhaustive_threshold = 4;
    cfg.max_queries = Some(150_000);
    cfg.time_budget = Duration::from_secs(24 * 3600);
    if let Some(opt) = cfg.optimize.as_mut() {
        opt.time_budget = Duration::from_secs(24 * 3600);
    }
    let result = Learner::with_telemetry(cfg, telemetry.clone()).learn(&mut oracle);
    assert!(result.queries > 0, "the learner must query the oracle");

    // The CLI's finish sequence, then a dump of the flight recorder.
    telemetry.flush_trace();
    telemetry.trace_attribution();
    telemetry.flush_trace();
    let written = telemetry.dump_flight("golden").expect("dump path is set");
    assert_eq!(written, dump_path);
    let dump = std::fs::read_to_string(&dump_path).expect("dump written");
    let _ = std::fs::remove_dir_all(&dir);
    (sink.take_string(), dump)
}

#[test]
fn budgeted_run_matches_the_recorded_trace_shape() {
    let (trace, dump) = budgeted_run();
    let actual = mask(&trace);
    if actual != FIXTURE {
        let path = std::env::temp_dir().join("cirlearn-trace-golden.actual.jsonl");
        let _ = std::fs::write(&path, &actual);
        let first_diff = actual
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| actual.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "masked trace differs from the fixture at line {} ({} vs {} lines); \
             actual stream written to {}",
            first_diff + 1,
            actual.lines().count(),
            FIXTURE.lines().count(),
            path.display()
        );
    }

    // The dump: recorded lines, then the `flight` marker and its
    // trailer. The recorded part is a whole-line suffix of the stream.
    let marker = dump
        .lines()
        .position(|l| {
            Json::parse(l)
                .expect("dump line parses")
                .get("kind")
                .and_then(Json::as_str)
                == Some("flight")
        })
        .expect("dump carries the flight marker");
    let recorded: String = dump
        .lines()
        .take(marker)
        .map(|l| format!("{l}\n"))
        .collect();
    let recorded = mask(&recorded);
    assert!(!recorded.is_empty(), "the flight log kept recent events");
    assert!(
        actual.ends_with(&recorded),
        "the dump's recorded lines are not a whole-line suffix of the trace"
    );
    assert!(
        actual.len() > recorded.len(),
        "the run outgrows the flight log, so the dump evicts old lines"
    );
    let trailer: Vec<String> = dump
        .lines()
        .skip(marker + 1)
        .map(|l| {
            Json::parse(l)
                .expect("trailer line parses")
                .get("kind")
                .and_then(Json::as_str)
                .expect("kind")
                .to_owned()
        })
        .collect();
    assert_eq!(trailer.first().map(String::as_str), Some("metrics"));
    assert!(trailer[1..].iter().all(|k| k == "attr"), "{trailer:?}");
    assert_eq!(
        trailer.len() - 1,
        actual
            .lines()
            .filter(|l| l.contains("\"kind\":\"attr\""))
            .count(),
        "one trailer attr line per ledger cell"
    );
}
