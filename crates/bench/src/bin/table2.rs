//! Regenerates the paper's Table II: per-case size / accuracy / time
//! for our learner and the two second-place-style baselines over the
//! 20-case contest suite.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cirlearn-bench --bin table2 \
//!     [--full] [--ours-only] [--verbose] [--report <path>] [case ...]
//! ```
//!
//! The default (quick) scale caps our learner at 4M queries per case,
//! gives each baseline a 15 s wall budget and evaluates on 3×20k
//! patterns; `--full` switches to a 40M-query cap, 300 s baseline
//! budgets and the contest's 3×500k patterns. `--verbose` raises the narration level to debug
//! and prints a per-stage wall-clock / oracle-query breakdown after
//! each of our learner's runs; `--report <path>` writes every run's
//! telemetry report into one JSON document for offline analysis.
//! Absolute numbers differ from the paper (synthetic benchmarks,
//! different machine); the comparison *shape* — who wins, by what
//! order of magnitude, which cases stay unsolved — is the reproduction
//! target (see EXPERIMENTS.md).

use cirlearn_bench::{print_table, run_case_with, Contestant, Scale};
use cirlearn_oracle::contest_suite;
use cirlearn_telemetry::json::Json;
use cirlearn_telemetry::{Level, Reporter, StderrReporter, Telemetry, SCHEMA_VERSION};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut full = false;
    let mut ours_only = false;
    let mut verbose = false;
    let mut report_path: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => full = true,
            "--ours-only" => ours_only = true,
            "--verbose" => verbose = true,
            "--report" => {
                i += 1;
                match args.get(i) {
                    Some(path) => report_path = Some(path.clone()),
                    None => {
                        eprintln!("error: --report requires a path");
                        std::process::exit(2);
                    }
                }
            }
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag {flag}");
                std::process::exit(2);
            }
            case => wanted.push(case.to_owned()),
        }
        i += 1;
    }

    let scale = if full { Scale::full() } else { Scale::quick() };
    let contestants: Vec<Contestant> = if ours_only {
        vec![Contestant::Ours]
    } else {
        vec![
            Contestant::Ours,
            Contestant::GreedyDt,
            Contestant::SampleSop,
        ]
    };

    let suite = contest_suite();
    let cases: Vec<_> = suite
        .iter()
        .filter(|c| wanted.is_empty() || wanted.iter().any(|w| w == c.name))
        .collect();

    let level = if verbose { Level::Debug } else { Level::Info };
    let mut reporter = StderrReporter::new(level);
    reporter.event(
        Level::Info,
        "table2",
        &format!(
            "running {} case(s) x {} contestant(s) at {} scale",
            cases.len(),
            contestants.len(),
            if full { "full" } else { "quick" }
        ),
    );

    let mut rows = Vec::new();
    let mut runs: Vec<Json> = Vec::new();
    for case in cases {
        for &c in &contestants {
            reporter.event(Level::Info, "table2", &format!("{} / {c} ...", case.name));
            let telemetry = Telemetry::new(Box::new(StderrReporter::new(level)));
            let row = run_case_with(case, c, &scale, &telemetry);
            reporter.event(
                Level::Info,
                "table2",
                &format!(
                    "size={} accuracy={:.3}% time={:.1}s queries={}",
                    row.size, row.accuracy, row.seconds, row.queries
                ),
            );
            let report = telemetry.report();
            if verbose && c == Contestant::Ours {
                eprint!("{}", report.stage_breakdown());
            }
            if report_path.is_some() {
                runs.push(report.to_json());
            }
            rows.push(row);
        }
    }
    println!();
    print_table(&rows, &contestants);

    if let Some(path) = report_path {
        let count = runs.len();
        let doc = Json::object([
            ("schema_version", Json::Number(SCHEMA_VERSION as f64)),
            ("command", Json::Str("table2".to_owned())),
            (
                "scale",
                Json::Str(if full { "full" } else { "quick" }.to_owned()),
            ),
            ("runs", Json::Array(runs)),
        ]);
        if let Err(err) = cirlearn_telemetry::persist::write_atomic(&path, doc.to_pretty()) {
            eprintln!("error: cannot write report to {path}: {err}");
            std::process::exit(1);
        }
        reporter.event(
            Level::Info,
            "table2",
            &format!("wrote {count} run report(s) to {path}"),
        );
    }
}
