//! Golden trace shape: one budgeted learner run, traced and dumped
//! through the flight recorder, must produce exactly the recorded
//! event stream once every clock is masked.
//!
//! The run is a pure function of its seed and query cap (no wall
//! budget binds), so the masked stream pins the event kinds, their
//! order, stage paths and every non-clock field byte for byte. The
//! flight dump is checked against the same stream: its recorded lines
//! ahead of the trailer must be a whole-line suffix of it, byte for
//! byte with every clock, because each event is formatted once and the
//! same line feeds both sinks.
//!
//! The same run's `report().to_json()` is pinned the same way: with
//! its clocks masked it fixes the counter names and totals, the
//! per-stage counters, the attribution ledger with its `by_depth`
//! buckets and the histogram names and sample counts, none of which
//! the trace stream carries.
//!
//! On a mismatch the masked stream is written next to the system temp
//! dir as `cirlearn-trace-golden.actual.jsonl` (the report as
//! `cirlearn-report-golden.actual.json`), so a deliberate change of the
//! format can be reviewed and copied over the fixture.

use std::time::Duration;

use cirlearn::{Learner, LearnerConfig};
use cirlearn_oracle::generate;
use cirlearn_telemetry::{json::Json, Telemetry, TraceWriter};

const FIXTURE: &str = include_str!("../data/trace_golden/neq_budgeted.jsonl");
const REPORT_FIXTURE: &str = include_str!("../data/trace_golden/neq_budgeted.report.json");

/// Fields that carry a clock reading and so vary from run to run.
/// `tid` is the constant 0 and is compared as is.
const MASKED: [&str; 6] = [
    "t_us",
    "elapsed_us",
    "verify_us",
    "at_us",
    "remaining_us",
    "query_ns",
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

/// Report fields that carry a clock reading: wall times of the run,
/// its stages, outputs and passes, checkpoint stamps, histogram
/// statistics other than `count`, and attributed query nanoseconds.
const REPORT_MASKED: [&str; 11] = [
    "elapsed_s",
    "verify_s",
    "at_s",
    "remaining_s",
    "sum",
    "min",
    "max",
    "p50",
    "p90",
    "p99",
    "query_ns",
];

/// Rewrites a run report into its clock-free shape: every non-null
/// masked field, at any depth, becomes `0`. No counter, meta key or
/// depth bucket shares a name with a masked field.
fn mask_report(json: Json) -> Json {
    match json {
        Json::Object(pairs) => Json::Object(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    if REPORT_MASKED.contains(&k.as_str()) && v != Json::Null {
                        (k, Json::from(0u64))
                    } else {
                        (k, mask_report(v))
                    }
                })
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.into_iter().map(mask_report).collect()),
        other => other,
    }
}

/// What one budgeted run leaves behind: the raw trace text, the raw
/// flight dump and the run report's JSON.
struct Run {
    trace: String,
    dump: String,
    report: Json,
}

/// Learns a two-output NEQ case under a query cap, with a trace
/// stream and a flight dump path attached. `tag` keeps the scratch
/// directories of concurrent tests apart.
fn budgeted_run(tag: &str) -> Run {
    let dir = std::env::temp_dir().join(format!(
        "cirlearn-trace-golden-{tag}-{}",
        std::process::id()
    ));
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
    Run {
        trace: sink.take_string(),
        dump,
        report: telemetry.report().to_json(),
    }
}

#[test]
fn budgeted_run_matches_the_recorded_trace_shape() {
    let Run { trace, dump, .. } = budgeted_run("trace");
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
    // trailer. The recorded part is a whole-line suffix of the stream,
    // clocks included: one formatted line feeds both sinks.
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
    assert!(!recorded.is_empty(), "the flight log kept recent events");
    let evicted = trace
        .strip_suffix(recorded.as_str())
        .expect("the dump's recorded lines, timestamps included, end the trace");
    assert!(
        evicted.ends_with('\n'),
        "the run outgrows the flight log, so the dump evicts whole old lines"
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

#[test]
fn budgeted_run_matches_the_recorded_report_shape() {
    let Run { report, .. } = budgeted_run("report");
    let actual = mask_report(report).to_pretty();
    if actual != REPORT_FIXTURE {
        let path = std::env::temp_dir().join("cirlearn-report-golden.actual.json");
        let _ = std::fs::write(&path, &actual);
        let first_diff = actual
            .lines()
            .zip(REPORT_FIXTURE.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| actual.lines().count().min(REPORT_FIXTURE.lines().count()));
        panic!(
            "masked report differs from the fixture at line {} ({} vs {} lines); \
             actual report written to {}",
            first_diff + 1,
            actual.lines().count(),
            REPORT_FIXTURE.lines().count(),
            path.display()
        );
    }
}
