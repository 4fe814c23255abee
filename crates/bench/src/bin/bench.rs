//! Regression-gated benchmark harness, and the one runner of the
//! paper's evaluation.
//!
//! Runs the table2 / ablation / baselines suites and writes
//! schema-versioned `BENCH_<suite>.json` documents that carry, per
//! benchmark, the contest metrics (size / accuracy / time / queries)
//! and the telemetry layer's latency-histogram summaries (oracle query
//! latency, per-node FBDT cost, per-pass synthesis cost). A separate
//! `compare` mode diffs two such documents and exits nonzero on
//! regressions, so the harness slots directly into CI as a gate, and
//! `table` prints the paper's Table II and ablation layouts from them.
//!
//! Usage:
//!
//! ```text
//! bench run [--suite table2|ablation|baselines|all] [--full] [--out DIR] [case ...]
//! bench compare <old.json> <new.json>
//! bench validate <file.json> ...
//! bench table <file.json> ...
//! ```
//!
//! `run` defaults to the quick scale (a 4M-query cap per case) over
//! the table2 and ablation suites; `--full` uses a 40M-query cap and
//! the paper's evaluation size. The learner runs under the query cap
//! alone, so a run's queries, gates and accuracy depend only on the
//! seed and the scale. The `baselines` suite runs the two
//! second-place-style learners of Table II over the table2 cases;
//! the greedy tree keeps a wall budget (15 s per case, 300 s with
//! `--full`), so its numbers depend on the machine, and `all` leaves
//! it out. Positional case names restrict the table2 and baselines
//! suites.
//!
//! `compare` is exact: it prints each regression (any rise in
//! `queries` or `gates`, any drop in `accuracy`, or a benchmark
//! missing from the new file) and exits 1 when any exist. It also
//! prints each `wall_s` change, which never fails the comparison.
//!
//! `validate` parses each file against the BENCH schema and exits
//! nonzero on the first invalid one.
//!
//! `table` joins the records of all its files into the paper's tables
//! (see [`cirlearn_bench::tables`]).

use std::process::ExitCode;

use cirlearn::LearnerConfig;
use cirlearn_bench::report::{compare, BenchRecord, BenchReport};
use cirlearn_bench::{run_baseline_case, run_learner_case, tables, Scale, NO_PREPROC};
use cirlearn_oracle::{contest_suite, Category, ContestCase};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("table") => cmd_table(&args[1..]),
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
  bench run [--suite table2|ablation|baselines|all] [--full] [--out DIR] [case ...]
  bench compare <old.json> <new.json>
  bench validate <file.json> ...
  bench table <file.json> ...";

/// Prints one record's contest metrics as progress.
fn progress(record: BenchRecord) -> BenchRecord {
    eprintln!(
        "  {}/{}: size={} accuracy={:.3}% time={:.2}s queries={}",
        record.name,
        record.contestant,
        record.gates,
        record.accuracy,
        record.wall_s,
        record.queries
    );
    record
}

/// Runs one suite and returns its records. Positional case names
/// (`wanted`) restrict the table2 and baselines suites.
fn run_suite(suite: &str, scale: &Scale, wanted: &[String]) -> Vec<BenchRecord> {
    let suite_cases = contest_suite();
    let cases = suite_cases
        .iter()
        .filter(|c| wanted.is_empty() || wanted.iter().any(|w| w == c.name));
    let ours = |case: &ContestCase, name: String, cfg: LearnerConfig| {
        progress(run_learner_case(case, name, cfg, scale))
    };
    match suite {
        "table2" => cases
            .map(|case| ours(case, case.name.to_owned(), LearnerConfig::fast()))
            .collect(),
        "ablation" => suite_cases
            .iter()
            .filter(|c| matches!(c.category, Category::Diag | Category::Data))
            .flat_map(|case| {
                let mut off = LearnerConfig::fast();
                off.preprocessing = false;
                [
                    ours(case, case.name.to_owned(), LearnerConfig::fast()),
                    ours(case, format!("{}{NO_PREPROC}", case.name), off),
                ]
            })
            .collect(),
        _ => cases
            .flat_map(|case| run_baseline_case(case, scale))
            .map(progress)
            .collect(),
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
    let suites: &[&str] = match suite.as_str() {
        "all" => &["table2", "ablation"],
        "table2" => &["table2"],
        "ablation" => &["ablation"],
        "baselines" => &["baselines"],
        _ => {
            return Err(format!(
                "--suite expects table2|ablation|baselines|all, got {suite}"
            ))
        }
    };
    let reports: Vec<BenchReport> = suites
        .iter()
        .map(|&suite| {
            eprintln!("bench: {suite} suite at {scale_name} scale");
            BenchReport {
                suite: suite.to_owned(),
                scale: scale_name.to_owned(),
                records: run_suite(suite, &scale, &wanted),
            }
        })
        .collect();
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

fn cmd_table(args: &[String]) -> Result<ExitCode, String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag {flag}"));
    }
    if args.is_empty() {
        return Err("table expects one or more BENCH files".to_owned());
    }
    let reports = args
        .iter()
        .map(|path| load(path))
        .collect::<Result<Vec<_>, _>>()?;
    let text = tables(&reports);
    if text.is_empty() {
        return Err("no Table II or ablation records in these files".to_owned());
    }
    print!("{text}");
    Ok(ExitCode::SUCCESS)
}
