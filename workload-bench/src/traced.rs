//! The traced run: per-layer metrics.
//!
//! A run with `--trace 1` works on the first presentation in the
//! seed's order only.
//! It measures untraced repetitions for half its time (the baseline of
//! the tracing overhead), then one repetition with the learner's
//! telemetry recording into an in-memory trace stream. The benchmark
//! wraps that repetition in `bench.workload` and `bench.case` spans,
//! and its `TimedOracle` adds an `oracle.call` span per oracle call, so
//! each learner stage's self time is its span minus the oracle calls
//! inside it. The stream is written to
//! `<out>/trace_<workload>.jsonl` at the end, in the format
//! `cirlearn trace summary` reads. Fixed-input layer replays follow.

use std::time::Duration;

use cirlearn_telemetry::analysis::{parse_trace, span_forest, span_stats, SpanStat};
use cirlearn_telemetry::{counters, RunReport, Telemetry, TraceWriter};

use crate::replay;
use crate::workload::{
    measure, median, percentile, run_rep, tally, Metric, Outcome, Plan, Rep, Workload,
};

/// Span path of a learner stage inside the benchmark's spans.
fn stage_path(stage: &str) -> String {
    format!("bench.workload/bench.case/{stage}")
}

pub fn run(w: &Workload, seed: u64, seconds: f64, out_dir: &str) -> Result<Outcome, String> {
    let plan = Plan::new(w, seed)?;
    let first = &plan.run_order[..1];
    let reps = measure(&plan, first, seconds / 2.0);
    let untraced_learn_s = median(&reps.iter().map(Rep::learn_s).collect::<Vec<_>>());

    let (writer, sink) = TraceWriter::to_shared_buffer();
    let telemetry = Telemetry::recording();
    telemetry.set_trace(writer);
    let traced = {
        let _span = telemetry.span("bench.workload");
        run_rep(&plan, first[0], &telemetry, reps.first())
    };
    telemetry.trace_attribution();
    telemetry.flush_trace();
    let text = sink.take_string();
    let path = format!("{out_dir}/trace_{}.jsonl", w.name);
    std::fs::write(&path, &text).map_err(|e| format!("writing {path}: {e}"))?;
    let events = parse_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    let spans = span_stats(&span_forest(&events));
    let report = telemetry.report();
    eprintln!(
        "{}: traced learn_s={:.4} (untraced {:.4}); trace in {path}",
        w.name,
        traced.learn_s(),
        untraced_learn_s
    );

    let mut metrics = layer_metrics(&traced, &report, &spans, untraced_learn_s);
    metrics.extend(replay::run()?);
    let mut all: Vec<&Rep> = reps.iter().collect();
    all.push(&traced);
    let (attempted, failed, correct) = tally(&all);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// The per-layer metrics of the traced repetition. Stage times are
/// shares of its `learn_s`: a stage a workload never enters reads 0 as
/// a ratio rather than as a constant time, and machine speed, which
/// drifts by a tenth or more within minutes on a shared host, cancels
/// out. The absolute times are in the trace.
fn layer_metrics(
    traced: &Rep,
    report: &RunReport,
    spans: &[SpanStat],
    untraced_learn_s: f64,
) -> Vec<Metric> {
    let cases = &traced.cases;
    let learn_s = traced.learn_s();
    let patterns: u64 = cases.iter().map(|c| c.patterns).sum();
    let busy_s: f64 = cases.iter().map(|c| c.busy.as_secs_f64()).sum();
    let mut call_ns: Vec<u64> = cases
        .iter()
        .flat_map(|c| c.call_ns.iter().copied())
        .collect();
    call_ns.sort_unstable();
    let calls = call_ns.len() as f64;
    let retries: u64 = cases.iter().map(|c| c.retries).sum();

    // (total, self) seconds in a learner stage.
    let stage_s = |stage: &str| {
        let path = stage_path(stage);
        spans
            .iter()
            .find(|s| s.path == path)
            .map_or((0.0, 0.0), |s| {
                (s.total_us as f64 / 1e6, s.self_us as f64 / 1e6)
            })
    };
    let stage_queries = |stage: &str| {
        report
            .stage(&stage_path(stage))
            .and_then(|s| s.counters.get(counters::ORACLE_QUERIES))
            .copied()
            .unwrap_or(0) as f64
    };
    // Each optimization starts with a round-1 balance pass, whose
    // input is the circuit handed to the optimizer.
    let gates_in: u64 = report
        .passes
        .iter()
        .filter(|p| p.pass == "balance" && p.round == 1)
        .map(|p| p.gates_before)
        .sum();
    let gates_out: usize = cases.iter().map(|c| c.aig_gates).sum();
    let pass_s = |name: &str| {
        report
            .passes
            .iter()
            .filter(|p| p.pass == name)
            .map(|p| p.elapsed)
            .sum::<Duration>()
            .as_secs_f64()
    };
    let verify_s: f64 = report
        .passes
        .iter()
        .map(|p| p.verify_elapsed)
        .sum::<Duration>()
        .as_secs_f64();
    let synth_s = stage_s("optimize").0;
    let (support_s, support_self_s) = stage_s("support");
    let (fbdt_s, fbdt_self_s) = stage_s("fbdt");
    let mut metrics = vec![
        Metric::new("oracle.calls", calls, "count"),
        Metric::new("oracle.patterns", patterns as f64, "count"),
        Metric::new("oracle.patterns_per_call", patterns as f64 / calls, "count"),
        Metric::new("oracle.busy_s", busy_s, "s"),
        Metric::new("oracle.busy_share", busy_s / learn_s, "ratio"),
        Metric::new(
            "oracle.ns_per_pattern",
            busy_s * 1e9 / patterns as f64,
            "ns",
        ),
        Metric::new("oracle.call_us_p50", percentile(&call_ns, 0.50) / 1e3, "us"),
        Metric::new("oracle.call_us_p99", percentile(&call_ns, 0.99) / 1e3, "us"),
        Metric::new("oracle.retries", retries as f64, "count"),
        Metric::new(
            "oracle.retry_share",
            retries as f64 / patterns as f64,
            "ratio",
        ),
        Metric::new("learner.self_s", learn_s - busy_s, "s"),
        Metric::new("support.share", support_s / learn_s, "ratio"),
        Metric::new("support.self_share", support_self_s / learn_s, "ratio"),
        Metric::new("support.queries", stage_queries("support"), "count"),
        Metric::new("fbdt.share", fbdt_s / learn_s, "ratio"),
        Metric::new("fbdt.self_share", fbdt_self_s / learn_s, "ratio"),
        Metric::new("fbdt.queries", stage_queries("fbdt"), "count"),
        Metric::new(
            "fbdt.nodes",
            (report.counter(counters::FBDT_SPLITS) + report.counter(counters::FBDT_LEAVES)) as f64,
            "count",
        ),
        Metric::new(
            "fbdt.forced_leaf_share",
            report.counter(counters::FBDT_FORCED_LEAVES) as f64
                / report.counter(counters::FBDT_LEAVES) as f64,
            "ratio",
        ),
        Metric::new(
            "exhaustive.share",
            stage_s("exhaustive").0 / learn_s,
            "ratio",
        ),
        Metric::new("exhaustive.queries", stage_queries("exhaustive"), "count"),
        Metric::new("templates.share", stage_s("templates").0 / learn_s, "ratio"),
        Metric::new("templates.queries", stage_queries("templates"), "count"),
        Metric::new("synth.share", synth_s / learn_s, "ratio"),
    ];
    for pass in ["balance", "rewrite", "refactor", "fraig", "collapse"] {
        metrics.push(Metric::new(
            format!("synth.pass_s.{pass}"),
            pass_s(pass),
            "s",
        ));
    }
    metrics.extend([
        Metric::new("synth.gates_in", gates_in as f64, "count"),
        Metric::new("synth.gates_out", gates_out as f64, "count"),
        Metric::new(
            "synth.saved_share",
            1.0 - gates_out as f64 / gates_in as f64,
            "ratio",
        ),
        Metric::new("synth.verify_share", verify_s / synth_s, "ratio"),
        Metric::new(
            "synth.rejected_passes",
            report.counter(counters::VERIFY_REJECTED_PASSES) as f64,
            "count",
        ),
        Metric::new(
            "trace.overhead_share",
            learn_s / untraced_learn_s - 1.0,
            "ratio",
        ),
    ]);
    metrics
}
