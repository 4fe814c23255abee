//! Shared harness for regenerating the paper's evaluation.
//!
//! The binaries [`table2`](../table2/index.html),
//! [`ablation`](../ablation/index.html) and
//! [`bench`](../bench/index.html) use this library to run learners
//! over the contest suite: the first two print Table II-style rows
//! (size / accuracy / time per case and per contestant), and `bench`
//! writes and compares the schema-versioned [`report`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use cirlearn::baseline::{GreedyDtLearner, SampleSopLearner};
use cirlearn::{Learner, LearnerConfig};
use cirlearn_oracle::{evaluate_accuracy, ContestCase, EvalConfig};
use cirlearn_telemetry::Telemetry;

pub mod report;

/// Which learner produced a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contestant {
    /// The paper's approach (this crate's [`Learner`]).
    Ours,
    /// Baseline (i): greedy decision tree, no preprocessing.
    GreedyDt,
    /// Baseline (ii): sampled-minterm SOP memorization.
    SampleSop,
}

impl std::fmt::Display for Contestant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Contestant::Ours => "ours",
            Contestant::GreedyDt => "2nd-(i)",
            Contestant::SampleSop => "2nd-(ii)",
        };
        f.write_str(s)
    }
}

/// One table row: the three columns the paper reports per contestant.
#[derive(Debug, Clone)]
pub struct Row {
    /// Case name.
    pub case: String,
    /// Case category.
    pub category: String,
    /// Inputs / outputs of the case.
    pub pi: usize,
    /// Outputs of the case.
    pub po: usize,
    /// Who produced this row.
    pub contestant: Contestant,
    /// Gate count of the produced circuit.
    pub size: usize,
    /// Accuracy percentage (0–100).
    pub accuracy: f64,
    /// Wall-clock seconds spent learning.
    pub seconds: f64,
    /// Oracle queries spent.
    pub queries: u64,
    /// Whether some output's FBDT had to force leaves instead of
    /// expanding them: its query cap, its node cap or a wall budget
    /// ran out, or an impure node had no support variable left to
    /// split on. Reported, never gated.
    pub budget_limited: bool,
}

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
    /// Wall-clock budget per case of the two baselines (the
    /// contest-regime columns of `table2`).
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

/// Runs one contestant on one case and returns the row.
pub fn run_case(case: &ContestCase, contestant: Contestant, scale: &Scale) -> Row {
    run_case_with(case, contestant, scale, &Telemetry::disabled())
}

/// Like [`run_case`], but records the paper pipeline's spans, counters
/// and per-stage query attribution into `telemetry` (baselines are not
/// instrumented; only the [`Contestant::Ours`] learner reports).
pub fn run_case_with(
    case: &ContestCase,
    contestant: Contestant,
    scale: &Scale,
    telemetry: &Telemetry,
) -> Row {
    match contestant {
        Contestant::Ours => run_learner_case(case, LearnerConfig::fast(), scale, telemetry),
        Contestant::GreedyDt | Contestant::SampleSop => {
            let mut oracle = case.build();
            telemetry.set_meta("case", case.name);
            telemetry.set_meta("category", case.category);
            telemetry.set_meta("contestant", contestant);
            let start = Instant::now();
            let result = match contestant {
                Contestant::GreedyDt => GreedyDtLearner {
                    time_budget: scale.budget,
                    ..GreedyDtLearner::default()
                }
                .learn(&mut oracle),
                _ => SampleSopLearner::default().learn(&mut oracle),
            };
            let seconds = start.elapsed().as_secs_f64();
            finish_row(case, contestant, scale, &mut oracle, &result, seconds)
        }
    }
}

/// Runs the paper learner with an explicit configuration — the
/// ablation suites toggle `cfg.preprocessing` through this. The
/// scale's query cap overrides `cfg.max_queries`, and the learner's
/// and synthesis's wall budgets are lifted to a ceiling that never
/// binds.
pub fn run_learner_case(
    case: &ContestCase,
    mut cfg: LearnerConfig,
    scale: &Scale,
    telemetry: &Telemetry,
) -> Row {
    let mut oracle = case.build();
    telemetry.set_meta("case", case.name);
    telemetry.set_meta("category", case.category);
    telemetry.set_meta("contestant", Contestant::Ours);
    cfg.max_queries = Some(scale.max_queries);
    cfg.time_budget = WALL_CEILING;
    if let Some(opt) = &mut cfg.optimize {
        opt.time_budget = WALL_CEILING;
    }
    let start = Instant::now();
    let result = Learner::with_telemetry(cfg, telemetry.clone()).learn(&mut oracle);
    let seconds = start.elapsed().as_secs_f64();
    finish_row(case, Contestant::Ours, scale, &mut oracle, &result, seconds)
}

/// Scores a finished learning run against the hidden golden circuit
/// and assembles the table row.
fn finish_row(
    case: &ContestCase,
    contestant: Contestant,
    scale: &Scale,
    oracle: &mut cirlearn_oracle::CircuitOracle,
    result: &cirlearn::LearnResult,
    seconds: f64,
) -> Row {
    let acc = evaluate_accuracy(
        oracle.reveal(),
        &result.circuit,
        &EvalConfig {
            patterns_per_group: scale.eval_patterns,
            ..EvalConfig::default()
        },
    );
    Row {
        case: case.name.to_owned(),
        category: case.category.to_string(),
        pi: case.num_inputs,
        po: case.num_outputs,
        contestant,
        // Contest metric: 2-input primitive gates after technology
        // mapping (XOR/MUX detection), not raw AND nodes.
        size: cirlearn_synth::map::map_gates(&result.circuit).gate_count(),
        accuracy: acc.percent(),
        seconds,
        queries: result.queries,
        budget_limited: result.outputs.iter().any(|o| o.forced_leaves > 0),
    }
}

/// Prints rows grouped per case in the paper's column layout.
pub fn print_table(rows: &[Row], contestants: &[Contestant]) {
    print!("{:<9} {:<5} {:>4} {:>4} |", "case", "type", "#PI", "#PO");
    for c in contestants {
        print!(" {:>24} |", format!("{c}: size/acc%/time(s)"));
    }
    println!();
    let mut cases: Vec<&str> = rows.iter().map(|r| r.case.as_str()).collect();
    cases.dedup();
    for case in cases {
        let any = rows.iter().find(|r| r.case == case).expect("case exists");
        print!(
            "{:<9} {:<5} {:>4} {:>4} |",
            any.case, any.category, any.pi, any.po
        );
        for c in contestants {
            match rows.iter().find(|r| r.case == case && r.contestant == *c) {
                Some(r) => print!(" {:>9} {:>7.3} {:>6.1} |", r.size, r.accuracy, r.seconds),
                None => print!(" {:>24} |", "-"),
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_oracle::contest_suite;

    #[test]
    fn quick_row_on_smallest_case() {
        // case_16: DIAG 26x4, solved by templates in well under the
        // budget.
        let suite = contest_suite();
        let case = suite.iter().find(|c| c.name == "case_16").expect("exists");
        let scale = Scale {
            eval_patterns: 2_000,
            ..Scale::quick()
        };
        let row = run_case(case, Contestant::Ours, &scale);
        assert_eq!(row.po, 4);
        assert!(row.accuracy > 99.9, "accuracy {}", row.accuracy);
        assert!(row.size < 500, "size {}", row.size);
    }

    #[test]
    fn a_capped_run_is_a_pure_function_of_seed_and_cap() {
        // case_18 under a cap small enough to bind: its FBDTs force
        // leaves, and a second run still matches the first exactly.
        let suite = contest_suite();
        let case = suite.iter().find(|c| c.name == "case_18").expect("exists");
        let scale = Scale {
            max_queries: 100_000,
            eval_patterns: 2_000,
            ..Scale::quick()
        };
        let run = || {
            let row = run_case(case, Contestant::Ours, &scale);
            (row.queries, row.size, row.accuracy, row.budget_limited)
        };
        let first = run();
        assert!(first.3, "the cap must bind: {first:?}");
        assert_eq!(first, run());
    }

    #[test]
    fn table_printer_handles_missing_rows() {
        let rows = vec![Row {
            case: "case_x".into(),
            category: "ECO".into(),
            pi: 3,
            po: 1,
            contestant: Contestant::Ours,
            size: 5,
            accuracy: 100.0,
            seconds: 0.1,
            queries: 42,
            budget_limited: false,
        }];
        // Must not panic with a contestant that has no row.
        print_table(&rows, &[Contestant::Ours, Contestant::GreedyDt]);
    }
}
