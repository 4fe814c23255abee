//! Regenerates the paper's §V preprocessing ablation: learning the
//! DIAG and DATA cases with name grouping + template matching turned
//! off.
//!
//! The paper reports that without preprocessing six of the eight
//! DIAG/DATA cases stay above 99.7% accuracy (the FBDT is robust), two
//! drop to ~20%, and circuit size / runtime increase by 28× / 227× on
//! average. This binary prints the with/without comparison per case so
//! those three effects can be checked. Each run goes through the
//! shared harness at the `bench` scales (a 4M-query cap, or 40M with
//! `--full`), so its rows equal the `bench` ablation suite's records.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cirlearn-bench --bin ablation \
//!     [--full] [--verbose] [--report <path>]
//! ```
//!
//! `--verbose` narrates each run through the telemetry reporter and
//! prints a per-stage wall-clock / oracle-query breakdown, which makes
//! the "time increases without preprocessing" effect attributable to a
//! concrete stage (FBDT construction) instead of a single total.
//! `--report <path>` writes every run's telemetry report (meta
//! including the preprocessing toggle and measured metrics, per-stage
//! spans, counters, histograms) into one JSON document, so the
//! machine-readable summary comes from the same source as the text
//! table and the two cannot drift.

use cirlearn::LearnerConfig;
use cirlearn_bench::{run_learner_case, Scale};
use cirlearn_oracle::contest_suite;
use cirlearn_telemetry::json::Json;
use cirlearn_telemetry::{Level, Reporter, StderrReporter, Telemetry, SCHEMA_VERSION};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let verbose = args.iter().any(|a| a == "--verbose");
    let report_path = args
        .iter()
        .position(|a| a == "--report")
        .map(|i| match args.get(i + 1) {
            Some(path) => path.clone(),
            None => {
                eprintln!("error: --report requires a path");
                std::process::exit(2);
            }
        });
    let level = if verbose { Level::Debug } else { Level::Warn };
    let mut reporter = StderrReporter::new(level);
    let scale = if full { Scale::full() } else { Scale::quick() };

    let suite = contest_suite();
    let targets: Vec<_> = suite
        .iter()
        .filter(|c| {
            matches!(
                c.category,
                cirlearn_oracle::Category::Diag | cirlearn_oracle::Category::Data
            )
        })
        .collect();

    println!(
        "{:<9} {:<5} | {:>10} {:>8} {:>8} | {:>10} {:>8} {:>8} | {:>7} {:>7}",
        "case", "type", "size+", "acc%+", "time+", "size-", "acc%-", "time-", "size x", "time x"
    );

    let mut size_ratios = Vec::new();
    let mut time_ratios = Vec::new();
    let mut runs: Vec<Json> = Vec::new();
    for case in targets {
        let mut run = |preprocessing: bool| {
            reporter.event(
                Level::Debug,
                "ablation",
                &format!(
                    "{} with preprocessing {} ...",
                    case.name,
                    if preprocessing { "on" } else { "off" }
                ),
            );
            let mut cfg = LearnerConfig::fast();
            cfg.preprocessing = preprocessing;
            let telemetry = Telemetry::new(Box::new(StderrReporter::new(level)));
            telemetry.set_meta("preprocessing", preprocessing);
            let row = run_learner_case(case, cfg, &scale, &telemetry);
            telemetry.set_meta("size", row.size);
            telemetry.set_meta("accuracy_pct", format!("{:.3}", row.accuracy));
            telemetry.set_meta("seconds", format!("{:.3}", row.seconds));
            let report = telemetry.report();
            if verbose {
                eprint!("{}", report.stage_breakdown());
            }
            if report_path.is_some() {
                runs.push(report.to_json());
            }
            (row.size, row.accuracy, row.seconds)
        };
        let (s_on, a_on, t_on) = run(true);
        let (s_off, a_off, t_off) = run(false);
        let size_x = s_off as f64 / s_on.max(1) as f64;
        let time_x = t_off / t_on.max(1e-3);
        size_ratios.push(size_x);
        time_ratios.push(time_x);
        println!(
            "{:<9} {:<5} | {:>10} {:>8.3} {:>8.1} | {:>10} {:>8.3} {:>8.1} | {:>7.1} {:>7.1}",
            case.name, case.category, s_on, a_on, t_on, s_off, a_off, t_off, size_x, time_x
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\naverage increase without preprocessing: size {:.1}x, time {:.1}x (paper: 28x, 227x)",
        avg(&size_ratios),
        avg(&time_ratios)
    );

    if let Some(path) = report_path {
        let count = runs.len();
        let doc = Json::object([
            ("schema_version", Json::Number(SCHEMA_VERSION as f64)),
            ("command", Json::Str("ablation".to_owned())),
            (
                "scale",
                Json::Str(if full { "full" } else { "quick" }.to_owned()),
            ),
            (
                "summary",
                Json::object([
                    ("avg_size_x", Json::Number(avg(&size_ratios))),
                    ("avg_time_x", Json::Number(avg(&time_ratios))),
                ]),
            ),
            ("runs", Json::Array(runs)),
        ]);
        if let Err(err) = cirlearn_telemetry::persist::write_atomic(&path, doc.to_pretty()) {
            eprintln!("error: cannot write report to {path}: {err}");
            std::process::exit(1);
        }
        reporter.event(
            Level::Info,
            "ablation",
            &format!("wrote {count} run report(s) to {path}"),
        );
    }
}
