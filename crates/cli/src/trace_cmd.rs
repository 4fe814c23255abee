//! The `cirlearn trace` subcommand family: offline analysis of JSONL
//! trace streams written by `--trace`.
//!
//! ```text
//! cirlearn trace summary <trace.jsonl> [...] [--top N]
//! cirlearn trace export <trace.jsonl> --chrome [-o out.json]
//! cirlearn trace diff <old.jsonl> <new.jsonl> [--pct P] [--min-ms N]
//! ```
//!
//! `summary` prints the hot-span table, the per-(stage, output)
//! attribution table and the critical path; given several files it
//! treats them as the segments of one checkpoint/resume run and merges
//! their accounts (summing the per-segment ledgers, so the query total
//! matches the resumed run's final count); `export --chrome` converts
//! the stream into Chrome trace-event JSON loadable in Perfetto or
//! `chrome://tracing`; `diff` compares two traces and exits nonzero
//! when an attribution cell's queries rose at all, or a span's time
//! clears both the relative threshold and the absolute noise floor.

use cirlearn_telemetry::analysis::{self, DiffConfig, TraceEvent, TraceSummary};
use cirlearn_telemetry::json::Json;

use crate::Opts;

pub fn cmd_trace(args: &[String]) -> Result<(), String> {
    let Some(sub) = args.first() else {
        return Err("trace expects a subcommand: summary|export|diff".to_owned());
    };
    let rest = &args[1..];
    match sub.as_str() {
        "summary" => cmd_summary(rest),
        "export" => cmd_export(rest),
        "diff" => cmd_diff(rest),
        other => Err(format!(
            "unknown trace subcommand {other} (summary|export|diff)"
        )),
    }
}

fn load_events(path: &str) -> Result<Vec<TraceEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    analysis::parse_trace(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_summary(path: &str) -> Result<TraceSummary, String> {
    Ok(analysis::summarize(&load_events(path)?))
}

fn cmd_summary(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["top"])?;
    if opts.positional.is_empty() {
        return Err("trace summary expects one or more trace files".to_owned());
    }
    let top = opts.number("top", 12usize)?;
    if let [input] = opts.positional.as_slice() {
        out!("{}", load_summary(input)?.render(top))?;
        return Ok(());
    }
    // Several files = the segments of one checkpoint/resume run, in
    // order. Per-segment ledgers restart from zero, so the merge sums
    // them; the total then matches the resumed run's final query count.
    let segments = opts
        .positional
        .iter()
        .map(|p| load_summary(p))
        .collect::<Result<Vec<_>, _>>()?;
    let resumes: u64 = segments
        .iter()
        .map(|s| s.counts_by_kind.get("resume").copied().unwrap_or(0))
        .sum();
    let merged = analysis::merge_summaries(&segments);
    outln!(
        "merged {} trace segment(s) ({} resume event(s))",
        segments.len(),
        resumes
    )?;
    out!("{}", merged.render(top))?;
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &[])?;
    let [input] = opts.positional.as_slice() else {
        return Err("trace export expects exactly one trace file".to_owned());
    };
    if !opts.present("chrome") {
        return Err("trace export requires a format flag (--chrome)".to_owned());
    }
    let events = load_events(input)?;
    let chrome = analysis::to_chrome_trace(&events);
    // Report the count actually written: spans collapse open/close
    // pairs into one complete event, so it differs from the input.
    let written = chrome
        .get("traceEvents")
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    match opts.value("o") {
        Some(path) => {
            cirlearn_telemetry::persist::write_atomic(path, chrome.to_pretty())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path} ({written} events)");
        }
        None => outln!("{}", chrome.to_pretty())?,
    }
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["pct", "min-ms"])?;
    let [old_path, new_path] = opts.positional.as_slice() else {
        return Err("trace diff expects two trace files".to_owned());
    };
    let default = DiffConfig::default();
    let cfg = DiffConfig {
        pct_threshold: opts.number("pct", default.pct_threshold)?,
        min_us: opts.number("min-ms", default.min_us / 1000)? * 1000,
    };
    let old = load_summary(old_path)?;
    let new = load_summary(new_path)?;
    let deltas = analysis::diff(&old, &new, &cfg);
    if deltas.is_empty() {
        outln!(
            "no regressions (exact queries; spans +{:.0}% threshold, {}ms floor)",
            cfg.pct_threshold,
            cfg.min_us / 1000
        )?;
        return Ok(());
    }
    for d in &deltas {
        outln!("{d}")?;
    }
    Err(format!("{} regression(s)", deltas.len()))
}
