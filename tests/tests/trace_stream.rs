//! End-to-end trace stream: run the full learner with a tracing
//! [`Telemetry`] handle and check that the JSONL event stream is
//! well-formed — every line parses, carries `tid` 0, timestamps are
//! monotone, and span open/close events nest with stack discipline.

use cirlearn::{Learner, LearnerConfig};
use cirlearn_oracle::generate;
use cirlearn_telemetry::{analysis, json::Json, Telemetry, TraceWriter};

/// Learns one NEQ case (not template-solvable, so the FBDT stage must
/// expand nodes) with tracing on and returns the captured JSONL text
/// plus the run's query count.
fn traced_run() -> (String, u64) {
    let mut oracle = generate::neq_case_with_support(24, 1, 16, 7);
    let telemetry = Telemetry::recording();
    let (trace, sink) = TraceWriter::to_shared_buffer();
    telemetry.set_trace(trace);
    // Force the FBDT strategy (the sampled support of this case sits
    // around 10, under the fast-mode exhaustive threshold of 12).
    let mut cfg = LearnerConfig::fast();
    cfg.fbdt.exhaustive_threshold = 4;
    let result = Learner::with_telemetry(cfg, telemetry.clone()).learn(&mut oracle);
    assert!(result.queries > 0, "the learner must query the oracle");
    // Mirror the CLI's finish sequence: drain buffered lines, then
    // append the final attribution ledger.
    telemetry.flush_trace();
    telemetry.trace_attribution();
    telemetry.flush_trace();
    (sink.take_string(), result.queries)
}

#[test]
fn trace_lines_parse_with_monotone_timestamps_and_balanced_spans() {
    let (text, _) = traced_run();
    assert!(!text.is_empty(), "a traced run must emit events");

    let mut last_t = 0;
    let mut open_stack: Vec<u64> = Vec::new();
    let mut kinds: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let parsed = Json::parse(line)
            .unwrap_or_else(|e| panic!("trace line {i} is not valid JSON ({e}): {line}"));

        // Every event carries the common envelope, which has no `tid`.
        let t = parsed
            .get("t_us")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("trace line {i} has no t_us: {line}"));
        assert_eq!(
            parsed.get("tid"),
            None,
            "trace line {i} carries a tid: {line}"
        );
        let kind = parsed
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("trace line {i} has no kind: {line}"));
        assert!(
            parsed.get("stage").and_then(Json::as_str).is_some(),
            "trace line {i} has no stage: {line}"
        );

        // Timestamps are monotone µs.
        assert!(
            t >= last_t,
            "line {i}: t_us {t} went backwards from {last_t}"
        );
        last_t = t;

        // Spans close in LIFO order, each close matching the last open.
        match kind {
            "span_open" => {
                let id = parsed.get("id").and_then(Json::as_u64).expect("span id");
                open_stack.push(id);
            }
            "span_close" => {
                let id = parsed.get("id").and_then(Json::as_u64).expect("span id");
                let top = open_stack
                    .pop()
                    .unwrap_or_else(|| panic!("line {i}: close without open: {line}"));
                assert_eq!(top, id, "line {i}: spans closed out of order: {line}");
            }
            _ => {}
        }
        kinds.push(kind.to_owned());
    }
    assert!(
        open_stack.is_empty(),
        "spans left open at end of run: {open_stack:?}"
    );

    // A real learner run exercises spans, FBDT node expansions and the
    // final attribution flush.
    for expected in ["span_open", "span_close", "node", "attr", "metrics"] {
        assert!(
            kinds.iter().any(|k| k == expected),
            "trace stream has no {expected} event"
        );
    }
}

#[test]
fn node_events_report_their_disposition_and_cost() {
    let (text, _) = traced_run();
    let mut nodes = 0usize;
    for line in text.lines().filter(|l| l.contains("\"node\"")) {
        let parsed = Json::parse(line).expect("node line parses");
        if parsed.get("kind").and_then(Json::as_str) != Some("node") {
            continue;
        }
        nodes += 1;
        let disposition = parsed
            .get("disposition")
            .and_then(Json::as_str)
            .expect("node events carry a disposition");
        assert!(
            [
                "leaf_one",
                "leaf_zero",
                "split",
                "forced_leaf",
                "no_split_leaf"
            ]
            .contains(&disposition),
            "unexpected disposition {disposition}"
        );
        assert!(parsed.get("elapsed_us").and_then(Json::as_u64).is_some());
        assert!(parsed.get("depth").and_then(Json::as_u64).is_some());
    }
    assert!(nodes > 0, "the FBDT stage must expand at least one node");
}

#[test]
fn attribution_events_account_for_every_query() {
    let (text, queries) = traced_run();
    let events = analysis::parse_trace(&text).expect("stream parses");
    let summary = analysis::summarize(&events);
    assert_eq!(
        summary.total_attributed_queries(),
        queries,
        "the traced ledger must sum to LearnResult::queries"
    );
    // The same stream converts to Chrome trace-event JSON with at
    // least one complete span and all-monotone event structure.
    let chrome = analysis::to_chrome_trace(&events);
    let parsed = Json::parse(&chrome.to_compact()).expect("export is valid JSON");
    let trace_events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents");
    assert!(trace_events
        .iter()
        .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
}
