//! Regression-gated benchmark harness.
//!
//! Runs the table2 / ablation suites and writes schema-versioned
//! `BENCH_table2.json` / `BENCH_ablation.json` documents that carry,
//! per benchmark, the contest metrics (size / accuracy / time /
//! queries) and the telemetry layer's latency-histogram summaries
//! (oracle query latency, per-node FBDT cost, per-pass synthesis
//! cost). A separate `compare` mode diffs two such documents and
//! exits nonzero on regressions, so the harness slots directly into
//! CI as a gate.
//!
//! Usage:
//!
//! ```text
//! bench run [--suite table2|ablation|all] [--full] [--out DIR] [case ...]
//! bench compare <old.json> <new.json>
//! bench validate <file.json> ...
//! ```
//!
//! `run` defaults to the quick scale (a 4M-query cap per case) over
//! both suites; `--full` uses a 40M-query cap and the paper's
//! evaluation size. The learner runs under the query cap alone, so a
//! run's queries, gates and accuracy depend only on the seed and the
//! scale. Positional case names restrict the table2 suite.
//!
//! `compare` is exact: it prints each regression (any rise in
//! `queries` or `gates`, any drop in `accuracy`, or a benchmark
//! missing from the new file) and exits 1 when any exist. It also
//! prints each `wall_s` change, which never fails the comparison.
//!
//! `validate` parses each file against the BENCH schema and exits
//! nonzero on the first invalid one.

use std::process::ExitCode;

use std::collections::BTreeMap;

use cirlearn::LearnerConfig;
use cirlearn_bench::report::{compare, BenchRecord, BenchReport, StageCost};
use cirlearn_bench::{run_learner_case, Scale};
use cirlearn_oracle::{contest_suite, Category, ContestCase};
use cirlearn_telemetry::Telemetry;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some(other) => Err(format!("unknown subcommand {other}")),
        None => Err("missing subcommand".to_owned()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  bench run [--suite table2|ablation|all] [--full] [--out DIR] [case ...]
  bench compare <old.json> <new.json>
  bench validate <file.json> ...";

/// Runs one learner configuration on one case and converts the row +
/// telemetry histograms into a [`BenchRecord`].
fn bench_record(
    case: &ContestCase,
    name: String,
    cfg: LearnerConfig,
    scale: &Scale,
) -> BenchRecord {
    // A fresh silent telemetry per benchmark keeps the histograms
    // scoped to a single run.
    let telemetry = Telemetry::recording();
    let row = run_learner_case(case, cfg, scale, &telemetry);
    let report = telemetry.report();
    let histograms = report.histograms;
    // Collapse the per-(stage, output) ledger to per-stage totals —
    // BENCH files track stage-level drift across commits; per-output
    // detail lives in `--report` / trace files.
    let mut attribution: BTreeMap<String, StageCost> = BTreeMap::new();
    for a in &report.attribution {
        let cell = attribution.entry(a.stage.clone()).or_default();
        cell.queries += a.queries;
        cell.query_ns += a.query_ns;
        cell.gates += a.gates;
    }
    eprintln!(
        "  {name}: size={} accuracy={:.3}% time={:.2}s queries={}",
        row.size, row.accuracy, row.seconds, row.queries
    );
    BenchRecord {
        name,
        contestant: "ours".to_owned(),
        wall_s: row.seconds,
        queries: row.queries,
        gates: row.size,
        accuracy: row.accuracy,
        histograms,
        attribution,
        budget_limited: row.budget_limited,
    }
}

fn run_table2(scale: &Scale, scale_name: &str, wanted: &[String]) -> BenchReport {
    let suite = contest_suite();
    let cases: Vec<&ContestCase> = suite
        .iter()
        .filter(|c| wanted.is_empty() || wanted.iter().any(|w| w == c.name))
        .collect();
    eprintln!(
        "bench: table2 suite, {} case(s) at {scale_name} scale",
        cases.len()
    );
    let records = cases
        .iter()
        .map(|case| bench_record(case, case.name.to_owned(), LearnerConfig::fast(), scale))
        .collect();
    BenchReport {
        suite: "table2".to_owned(),
        scale: scale_name.to_owned(),
        records,
    }
}

fn run_ablation(scale: &Scale, scale_name: &str) -> BenchReport {
    let suite = contest_suite();
    let cases: Vec<&ContestCase> = suite
        .iter()
        .filter(|c| matches!(c.category, Category::Diag | Category::Data))
        .collect();
    eprintln!(
        "bench: ablation suite, {} case(s) x 2 configs at {scale_name} scale",
        cases.len()
    );
    let mut records = Vec::new();
    for case in cases {
        records.push(bench_record(
            case,
            case.name.to_owned(),
            LearnerConfig::fast(),
            scale,
        ));
        let mut cfg = LearnerConfig::fast();
        cfg.preprocessing = false;
        records.push(bench_record(
            case,
            format!("{}/no-preproc", case.name),
            cfg,
            scale,
        ));
    }
    BenchReport {
        suite: "ablation".to_owned(),
        scale: scale_name.to_owned(),
        records,
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut suite = "all".to_owned();
    let mut full = false;
    let mut out_dir = ".".to_owned();
    let mut wanted: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => full = true,
            "--suite" | "--out" => {
                let flag = args[i].clone();
                i += 1;
                let value = args
                    .get(i)
                    .ok_or_else(|| format!("{flag} expects a value"))?
                    .clone();
                if flag == "--suite" {
                    suite = value;
                } else {
                    out_dir = value;
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            case => wanted.push(case.to_owned()),
        }
        i += 1;
    }
    let (scale, scale_name) = if full {
        (Scale::full(), "full")
    } else {
        (Scale::quick(), "quick")
    };
    if !matches!(suite.as_str(), "table2" | "ablation" | "all") {
        return Err(format!("--suite expects table2|ablation|all, got {suite}"));
    }

    let mut reports = Vec::new();
    if suite == "table2" || suite == "all" {
        reports.push(run_table2(&scale, scale_name, &wanted));
    }
    if suite == "ablation" || suite == "all" {
        reports.push(run_ablation(&scale, scale_name));
    }
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;
    for report in &reports {
        let path = format!("{out_dir}/BENCH_{}.json", report.suite);
        cirlearn_telemetry::persist::write_atomic(&path, report.to_json().to_pretty())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path} ({} record(s))", report.records.len());
    }
    Ok(ExitCode::SUCCESS)
}

fn load(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    BenchReport::from_text(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag {flag}"));
    }
    let [old_path, new_path] = args else {
        return Err("compare expects exactly two BENCH files".to_owned());
    };
    let old = load(old_path)?;
    let new = load(new_path)?;
    if old.suite != new.suite {
        eprintln!(
            "warning: comparing different suites ({} vs {})",
            old.suite, new.suite
        );
    }
    let (regressions, wall): (Vec<_>, Vec<_>) = compare(&old, &new)
        .into_iter()
        .partition(|d| d.is_regression());
    for d in &wall {
        println!("wall {d}");
    }
    if regressions.is_empty() {
        println!(
            "ok: no regressions across {} benchmark(s) (queries, gates and accuracy exact; wall time not gated)",
            old.records.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    for d in &regressions {
        println!("REGRESSION {d}");
    }
    println!(
        "{} regression(s) across {} benchmark(s)",
        regressions.len(),
        old.records.len()
    );
    Ok(ExitCode::FAILURE)
}

fn cmd_validate(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Err("validate expects one or more BENCH files".to_owned());
    }
    for path in args {
        let report = load(path)?;
        let with_histograms = report
            .records
            .iter()
            .filter(|r| !r.histograms.is_empty())
            .count();
        println!(
            "{path}: valid (suite {}, scale {}, {} record(s), {} with histograms)",
            report.suite,
            report.scale,
            report.records.len(),
            with_histograms
        );
    }
    Ok(ExitCode::SUCCESS)
}
