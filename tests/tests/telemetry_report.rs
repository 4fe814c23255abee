//! End-to-end telemetry: run the full learner with a recording
//! [`Telemetry`] handle and check the structured run report against
//! the learner's own results: per-stage oracle-query attribution must
//! partition the total, and stage time must fit in the run's time.

use cirlearn::{Learner, LearnerConfig};
use cirlearn_oracle::generate;
use cirlearn_telemetry::{counters, RunReport, Telemetry};

/// Learns one mixed case (templates + FBDT outputs) and returns the
/// learner result plus the recorded report.
fn learn_with_report() -> (cirlearn::LearnResult, RunReport) {
    let mut oracle = generate::eco_case_with_support(16, 3, 7, 401);
    let telemetry = Telemetry::recording();
    let mut learner = Learner::with_telemetry(LearnerConfig::fast(), telemetry.clone());
    let result = learner.learn(&mut oracle);
    let report = telemetry.report();
    (result, report)
}

#[test]
fn stage_query_counts_partition_the_learner_total() {
    let (result, report) = learn_with_report();
    assert!(result.queries > 0, "the learner must query the oracle");

    // Every oracle query happens inside exactly one top-level span, so
    // the per-stage breakdown sums to the learner's own total.
    let staged = report.top_level_counter_sum(counters::ORACLE_QUERIES);
    assert_eq!(
        staged, result.queries,
        "per-stage queries must sum to LearnResult::queries"
    );
    // ... and the global counter agrees with both.
    assert_eq!(report.counter(counters::ORACLE_QUERIES), result.queries);

    // The per-output breakdown can only account for queries that were
    // issued inside a per-output stage, never more than the total.
    let per_output: u64 = report.outputs.iter().map(|o| o.queries).sum();
    assert!(
        per_output <= result.queries,
        "per-output queries {per_output} exceed total {}",
        result.queries
    );
    assert_eq!(report.outputs.len(), result.outputs.len());
}

#[test]
fn report_stage_elapsed_is_bounded_by_run_elapsed() {
    let (_, report) = learn_with_report();
    let top_level: std::time::Duration = report.top_level_stages().map(|s| s.elapsed).sum();
    // Top-level stages are disjoint slices of the run.
    assert!(
        top_level <= report.elapsed,
        "stage time {top_level:?} exceeds run time {:?}",
        report.elapsed
    );
}
