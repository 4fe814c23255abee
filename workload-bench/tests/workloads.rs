//! Smoke versions of the workloads: two small cases, a low query cap,
//! and a black box that answers every 500th query with garbage.
//!
//! Run with `cargo test --release --manifest-path workload-bench/Cargo.toml`.

use std::path::PathBuf;

use cirlearn_oracle::RetryPolicy;
use cirlearn_telemetry::{counters, Telemetry};
use cirlearn_workload_bench::workload::{run_rep, tally, Plan, Rep, Workload};

const IN_PROCESS: Workload = Workload {
    name: "smoke",
    cases: &["case_10", "case_16"],
    presentations: 2,
    max_queries: 20_000,
    sat_checked: true,
    blackbox: None,
};

const PIPE: Workload = Workload {
    name: "smoke_pipe",
    cases: &["case_10", "case_16"],
    presentations: 2,
    max_queries: 20_000,
    sat_checked: false,
    blackbox: Some(500),
};

fn plan(w: &Workload, seed: u64) -> Plan<'_> {
    let mut plan = Plan::new(w, seed).expect("the smoke cases exist");
    plan.server = PathBuf::from(env!("CARGO_BIN_EXE_cirlearn-workload-bench"));
    plan
}

/// Queries, gates, accuracy bits and circuit of every case.
fn outputs(rep: &Rep) -> Vec<(u64, usize, u64, Option<String>)> {
    rep.cases
        .iter()
        .map(|c| {
            let accuracy = c.accuracy_pct.expect("accuracy was evaluated");
            (c.queries, c.gates, accuracy.to_bits(), c.aiger.clone())
        })
        .collect()
}

#[test]
fn independent_repetitions_are_bit_identical_under_every_seed() {
    for w in [&IN_PROCESS, &PIPE] {
        // Presentation 1 shuffles the inputs; seed 1 runs twice.
        let reps: Vec<Rep> = [0, 1, 1]
            .into_iter()
            .map(|seed| run_rep(&plan(w, seed), 1, &Telemetry::disabled(), None))
            .collect();
        assert_eq!(
            tally(&reps.iter().collect::<Vec<_>>()),
            (6, 0, true),
            "{}",
            w.name
        );
        for rep in &reps[1..] {
            assert_eq!(outputs(&reps[0]), outputs(rep), "{}", w.name);
        }
    }
}

#[test]
fn oracle_patterns_equal_queries_and_their_stage_attribution() {
    let plan = plan(&IN_PROCESS, 0);
    let telemetry = Telemetry::recording();
    let rep = {
        let _span = telemetry.span("bench.workload");
        run_rep(&plan, 0, &telemetry, None)
    };
    // The run's own output check compares the patterns the oracle
    // answered with the learner's query count.
    assert_eq!(tally(&[&rep]), (2, 0, true));
    let queries: u64 = rep.cases.iter().map(|c| c.queries).sum();
    let patterns: u64 = rep.cases.iter().map(|c| c.patterns).sum();
    assert_eq!(patterns, queries);
    let by_stage: u64 = telemetry
        .report()
        .stages
        .iter()
        .filter(|s| {
            s.path
                .strip_prefix("bench.workload/bench.case/")
                .is_some_and(|stage| !stage.contains('/'))
        })
        .filter_map(|s| s.counters.get(counters::ORACLE_QUERIES))
        .sum();
    assert_eq!(by_stage, queries);
}

#[test]
fn flaky_black_box_is_retried_without_failures() {
    let rep = run_rep(&plan(&PIPE, 0), 0, &Telemetry::disabled(), None);
    assert_eq!(tally(&[&rep]), (2, 0, true));
    assert!(rep.cases.iter().map(|c| c.retries).sum::<u64>() > 0);
}

#[test]
fn fatal_black_box_fault_fails_the_run_not_the_workload() {
    let mut plan = plan(&PIPE, 0);
    plan.retry = RetryPolicy::none();
    let rep = run_rep(&plan, 0, &Telemetry::disabled(), None);
    let (attempted, failed, correct) = tally(&[&rep]);
    assert_eq!(attempted, 2, "the workload carries on past the fault");
    assert!(failed > 0, "the faulted run counts as failed");
    assert!(correct, "a degraded run is reported, not a wrong one");
}
