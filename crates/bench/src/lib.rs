//! Shared harness for regenerating the paper's evaluation.
//!
//! The [`bench`](../bench/index.html) binary runs learners over the
//! contest suite through this library, writes and compares the
//! schema-versioned [`report`]s, and prints the paper's Table II and
//! §V ablation layouts from them with [`tables`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cirlearn::baseline::{GreedyDtLearner, SampleSopLearner};
use cirlearn::{LearnResult, Learner, LearnerConfig};
use cirlearn_oracle::{contest_suite, evaluate_accuracy, CircuitOracle, ContestCase, EvalConfig};
use cirlearn_telemetry::Telemetry;

use report::{BenchRecord, BenchReport, StageCost};

pub mod report;

/// Harness effort scale.
///
/// The paper learner runs under a query cap, so its queries, gates and
/// accuracy are a pure function of the seed and the scale: `bench
/// compare` gates them exactly. Only the two baselines keep the
/// contest's wall-clock regime.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Query cap of the paper learner per case
    /// ([`LearnerConfig::max_queries`]). The cap covers the FBDTs
    /// only: support sampling and exhaustive conquest spend queries on
    /// top of it, so under a 4M cap case_9 spends 4,087,331 queries,
    /// case_14 4,001,288 and case_18 4,349,394.
    pub max_queries: u64,
    /// Wall-clock budget per case of the greedy decision-tree baseline
    /// (the `baselines` suite's contest regime).
    pub budget: Duration,
    /// Evaluation patterns per group (paper: 500 000).
    pub eval_patterns: usize,
}

impl Scale {
    /// Quick harness scale: the whole `bench` suite runs in seconds.
    pub fn quick() -> Self {
        Scale {
            max_queries: 4_000_000,
            budget: Duration::from_secs(15),
            eval_patterns: 20_000,
        }
    }

    /// Paper-faithful evaluation (500 k patterns per group) under a
    /// tenfold query cap. Expect a long run.
    pub fn full() -> Self {
        Scale {
            max_queries: 40_000_000,
            budget: Duration::from_secs(300),
            eval_patterns: 500_000,
        }
    }
}

/// Wall-clock ceiling of the query-capped paper learner and of its
/// synthesis: far above any quick or full run, so it never binds and
/// the run's result does not depend on machine speed.
const WALL_CEILING: Duration = Duration::from_secs(600);

/// Runs the paper learner with an explicit configuration and returns
/// its record, named `name`, for contestant `ours` — the ablation
/// suite toggles `cfg.preprocessing` through this. The scale's query
/// cap overrides `cfg.max_queries`, and the learner's and synthesis's
/// wall budgets are lifted to a ceiling that never binds. The record
/// carries the run's histograms and its cost ledger summed per stage.
pub fn run_learner_case(
    case: &ContestCase,
    name: String,
    mut cfg: LearnerConfig,
    scale: &Scale,
) -> BenchRecord {
    // A fresh telemetry per run keeps the histograms scoped to it.
    let telemetry = Telemetry::recording();
    cfg.max_queries = Some(scale.max_queries);
    cfg.time_budget = WALL_CEILING;
    if let Some(opt) = &mut cfg.optimize {
        opt.time_budget = WALL_CEILING;
    }
    let mut record = measure(case, name, "ours", scale, |o| {
        Learner::with_telemetry(cfg, telemetry.clone()).learn(o)
    });
    let report = telemetry.report();
    record.histograms = report.histograms;
    // BENCH files track stage-level drift across commits; per-output
    // detail lives in `cirlearn learn --report` and trace files.
    for a in &report.attribution {
        let cell: &mut StageCost = record.attribution.entry(a.stage.clone()).or_default();
        cell.queries += a.queries;
        cell.query_ns += a.query_ns;
        cell.gates += a.gates;
    }
    record
}

/// Runs the two second-place-style baselines on one case and returns
/// their records, contestants `2nd-(i)` (greedy decision tree under
/// [`Scale::budget`]) and `2nd-(ii)` (sampled-minterm SOP). Their
/// results depend on machine speed, so nothing gates them.
pub fn run_baseline_case(case: &ContestCase, scale: &Scale) -> [BenchRecord; 2] {
    let greedy = GreedyDtLearner {
        time_budget: scale.budget,
        ..GreedyDtLearner::default()
    };
    let name = || case.name.to_owned();
    [
        measure(case, name(), "2nd-(i)", scale, |o| greedy.learn(o)),
        measure(case, name(), "2nd-(ii)", scale, |o| {
            SampleSopLearner::default().learn(o)
        }),
    ]
}

/// Builds the case's oracle, times `learn` on it and scores the learned
/// circuit against the hidden golden one.
fn measure(
    case: &ContestCase,
    name: String,
    contestant: &str,
    scale: &Scale,
    learn: impl FnOnce(&mut CircuitOracle) -> LearnResult,
) -> BenchRecord {
    let mut oracle = case.build();
    let start = Instant::now();
    let result = learn(&mut oracle);
    let wall_s = start.elapsed().as_secs_f64();
    let acc = evaluate_accuracy(
        oracle.reveal(),
        &result.circuit,
        &EvalConfig {
            patterns_per_group: scale.eval_patterns,
            ..EvalConfig::default()
        },
    );
    BenchRecord {
        name,
        contestant: contestant.to_owned(),
        wall_s,
        queries: result.queries,
        // Contest metric: 2-input primitive gates after technology
        // mapping (XOR/MUX detection), not raw AND nodes.
        gates: cirlearn_synth::map::map_gates(&result.circuit).gate_count(),
        accuracy: acc.percent(),
        histograms: BTreeMap::new(),
        attribution: BTreeMap::new(),
        budget_limited: result.outputs.iter().any(|o| o.forced_leaves > 0),
    }
}

/// Suffix of an ablated record's name (`case_2/no-preproc`).
pub const NO_PREPROC: &str = "/no-preproc";

/// Formats the paper's tables from BENCH records.
///
/// *Table II* has one row per case (records whose name has no `/`)
/// and one size / accuracy / time column group per contestant, in the
/// order they first appear across `reports`; the first record of a
/// (case, contestant) pair wins and a missing pair prints `-`. The
/// *ablation table* pairs each `X/no-preproc` record with the record
/// `X` of the same contestant in the same report and prints the size
/// and time ratios, then their averages against the paper's 28× and
/// 227×. A table with no rows is left out.
pub fn tables(reports: &[BenchReport]) -> String {
    let suite = contest_suite();
    let row_head = |case: &str| match suite.iter().find(|c| c.name == case) {
        Some(c) => format!(
            "{case:<9} {:<5} {:>4} {:>4} |",
            c.category.to_string(),
            c.num_inputs,
            c.num_outputs
        ),
        None => format!("{case:<9} {:<5} {:>4} {:>4} |", "?", "?", "?"),
    };
    let head = format!("{:<9} {:<5} {:>4} {:>4} |", "case", "type", "#PI", "#PO");
    let metrics = |r: &BenchRecord| format!("{:>9} {:>8.3} {:>7.3}", r.gates, r.accuracy, r.wall_s);
    let records = || reports.iter().flat_map(|r| &r.records);
    let mut cases: Vec<&str> = Vec::new();
    let mut contestants: Vec<&str> = Vec::new();
    for r in records().filter(|r| !r.name.contains('/')) {
        if !cases.contains(&r.name.as_str()) {
            cases.push(&r.name);
        }
        if !contestants.contains(&r.contestant.as_str()) {
            contestants.push(&r.contestant);
        }
    }

    let mut out = String::new();
    if !cases.is_empty() {
        out.push_str("Table II: size (mapped gates) / accuracy % / time (s)\n");
        out.push_str(&head);
        for c in &contestants {
            let _ = write!(out, " {:>26} |", format!("{c}: size/acc%/time"));
        }
        for case in &cases {
            out.push('\n');
            out.push_str(&row_head(case));
            for c in &contestants {
                let cell = match records().find(|r| r.name == *case && r.contestant == *c) {
                    Some(r) => metrics(r),
                    None => "-".to_owned(),
                };
                let _ = write!(out, " {cell:>26} |");
            }
        }
        out.push('\n');
    }

    let pairs: Vec<(&BenchRecord, &BenchRecord)> = reports
        .iter()
        .flat_map(|report| {
            report.records.iter().filter_map(|off| {
                let base = off.name.strip_suffix(NO_PREPROC)?;
                Some((report.record(base, &off.contestant)?, off))
            })
        })
        .collect();
    if !pairs.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(
            "Preprocessing ablation: with (+) and without (-) name grouping and templates\n",
        );
        let _ = writeln!(
            out,
            "{head} {:>9} {:>8} {:>7} | {:>9} {:>8} {:>7} | {:>7} {:>7}",
            "size+", "acc%+", "time+", "size-", "acc%-", "time-", "size x", "time x"
        );
        let (mut size_sum, mut time_sum) = (0.0, 0.0);
        for (on, off) in &pairs {
            let size_x = off.gates as f64 / on.gates.max(1) as f64;
            let time_x = off.wall_s / on.wall_s.max(1e-3);
            size_sum += size_x;
            time_sum += time_x;
            let _ = writeln!(
                out,
                "{} {} | {} | {size_x:>7.1} {time_x:>7.1}",
                row_head(&on.name),
                metrics(on),
                metrics(off)
            );
        }
        let n = pairs.len() as f64;
        let _ = writeln!(
            out,
            "average increase without preprocessing: size {:.1}x, time {:.1}x (paper: 28x, 227x)",
            size_sum / n,
            time_sum / n
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str) -> ContestCase {
        contest_suite()
            .into_iter()
            .find(|c| c.name == name)
            .expect("exists")
    }

    #[test]
    fn quick_row_on_smallest_case() {
        // case_16: DIAG 26x4, solved by templates in well under the
        // budget.
        let scale = Scale {
            eval_patterns: 2_000,
            ..Scale::quick()
        };
        let record = run_learner_case(&case("case_16"), "x".into(), LearnerConfig::fast(), &scale);
        assert_eq!(
            (record.name.as_str(), record.contestant.as_str()),
            ("x", "ours")
        );
        assert!(record.accuracy > 99.9, "accuracy {}", record.accuracy);
        assert!(record.gates < 500, "gates {}", record.gates);
        let attributed: u64 = record.attribution.values().map(|c| c.queries).sum();
        assert_eq!(attributed, record.queries);
    }

    #[test]
    fn a_capped_run_is_a_pure_function_of_seed_and_cap() {
        // case_18 under a cap small enough to bind: its FBDTs force
        // leaves, and a second run still matches the first exactly.
        let scale = Scale {
            max_queries: 100_000,
            eval_patterns: 2_000,
            ..Scale::quick()
        };
        let run = || {
            let r = run_learner_case(
                &case("case_18"),
                "case_18".into(),
                LearnerConfig::fast(),
                &scale,
            );
            (r.queries, r.gates, r.accuracy, r.budget_limited)
        };
        let first = run();
        assert!(first.3, "the cap must bind: {first:?}");
        assert_eq!(first, run());
    }

    fn record(name: &str, contestant: &str, gates: usize, wall_s: f64) -> BenchRecord {
        BenchRecord {
            name: name.to_owned(),
            contestant: contestant.to_owned(),
            wall_s,
            queries: 42,
            gates,
            accuracy: 100.0,
            histograms: BTreeMap::new(),
            attribution: BTreeMap::new(),
            budget_limited: false,
        }
    }

    fn report(suite: &str, records: Vec<BenchRecord>) -> BenchReport {
        BenchReport {
            suite: suite.to_owned(),
            scale: "quick".to_owned(),
            records,
        }
    }

    #[test]
    fn table_two_joins_contestants_by_case_and_marks_missing_pairs() {
        let ours = report(
            "table2",
            vec![
                record("case_7", "ours", 22, 0.1),
                record("case_3", "ours", 37, 0.2),
            ],
        );
        let baselines = report("baselines", vec![record("case_3", "2nd-(i)", 4796, 8.4)]);
        let text = tables(&[ours, baselines]);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("ours: size/acc%/time"), "{text}");
        assert!(lines[1].contains("2nd-(i): size/acc%/time"), "{text}");
        // Rows follow first appearance; case metadata comes from the
        // contest suite.
        assert!(
            lines[2].starts_with("case_7    ECO     43    7 |"),
            "{text}"
        );
        assert!(lines[2].trim_end().ends_with("- |"), "{text}");
        assert!(
            lines[3].starts_with("case_3    DIAG    72    1 |"),
            "{text}"
        );
        assert!(lines[3].contains("4796"), "{text}");
        assert!(!text.contains("ablation"), "{text}");
    }

    #[test]
    fn ablation_table_pairs_within_a_report_and_averages_the_ratios() {
        let ablation = report(
            "ablation",
            vec![
                record("case_2", "ours", 100, 0.5),
                record("case_2/no-preproc", "ours", 300, 1.0),
                record("case_6", "ours", 10, 0.1),
                record("case_6/no-preproc", "ours", 10, 0.3),
                // No partner in this report: left out.
                record("case_9/no-preproc", "ours", 5, 0.1),
            ],
        );
        let text = tables(&[ablation]);
        let (table_two, ablation) = text
            .split_once("Preprocessing ablation")
            .expect("both tables print");
        // The unablated records also make Table II rows.
        assert_eq!(table_two.lines().count(), 1 + 1 + 2 + 1, "{text}");
        let rows: Vec<&str> = ablation.lines().skip(2).collect();
        assert_eq!(rows.len(), 2 + 1, "{text}");
        assert!(rows[0].starts_with("case_2    DATA "), "{text}");
        assert!(rows[0].ends_with("    3.0     2.0"), "{text}");
        assert!(rows[1].ends_with("    1.0     3.0"), "{text}");
        assert!(
            text.contains("size 2.0x, time 2.5x (paper: 28x, 227x)"),
            "{text}"
        );
    }

    #[test]
    fn records_with_no_table_print_nothing() {
        let other = report(
            "support_sweep",
            vec![record("case_7/plain", "ours", 1, 0.1)],
        );
        assert!(tables(&[other]).is_empty());
        assert!(tables(&[]).is_empty());
    }
}
