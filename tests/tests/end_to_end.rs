//! End-to-end integration: learn black boxes of every contest category
//! and check the learned circuits against the hidden ones — exactly
//! (SAT) where the paper achieves 100%, statistically elsewhere.

use cirlearn::{Learner, LearnerConfig, Strategy};
use cirlearn_oracle::{evaluate_accuracy, generate, EvalConfig};
use cirlearn_sat::check_equivalence;

fn eval_cfg() -> EvalConfig {
    EvalConfig {
        patterns_per_group: 5_000,
        ..EvalConfig::default()
    }
}

#[test]
fn diag_category_is_learned_exactly_and_small() {
    let mut oracle = generate::diag_case(28, 3, 101);
    let mut learner = Learner::new(LearnerConfig::fast());
    let result = learner.learn(&mut oracle);
    // The paper: DIAG cases solve via templates at 100% with the
    // smallest circuits.
    assert!(check_equivalence(oracle.reveal(), &result.circuit).is_equivalent());
    assert!(
        result.circuit.gate_count() <= oracle.reveal().gate_count() * 2,
        "learned {} vs hidden {}",
        result.circuit.gate_count(),
        oracle.reveal().gate_count()
    );
}

#[test]
fn data_category_is_learned_exactly() {
    let mut oracle = generate::data_case(16, 8, 102);
    let mut learner = Learner::new(LearnerConfig::fast());
    let result = learner.learn(&mut oracle);
    assert!(check_equivalence(oracle.reveal(), &result.circuit).is_equivalent());
    assert!(result
        .outputs
        .iter()
        .all(|s| s.strategy == Strategy::LinearTemplate));
}

#[test]
fn eco_category_small_supports_are_exact() {
    let mut oracle = generate::eco_case_with_support(24, 4, 8, 103);
    let mut learner = Learner::new(LearnerConfig::fast());
    let result = learner.learn(&mut oracle);
    assert!(
        check_equivalence(oracle.reveal(), &result.circuit).is_equivalent(),
        "small-support ECO must be learned exactly"
    );
}

#[test]
fn neq_category_meets_high_accuracy() {
    let mut oracle = generate::neq_case_with_support(20, 2, 8, 104);
    let mut learner = Learner::new(LearnerConfig::fast());
    let result = learner.learn(&mut oracle);
    let acc = evaluate_accuracy(oracle.reveal(), &result.circuit, &eval_cfg());
    assert!(acc.ratio() > 0.999, "NEQ accuracy {acc}");
}

#[test]
fn learner_is_deterministic_given_seed() {
    let run = || {
        let mut oracle = generate::eco_case_with_support(14, 2, 6, 105);
        let mut learner = Learner::new(LearnerConfig::fast());
        let r = learner.learn(&mut oracle);
        (r.circuit.gate_count(), r.queries)
    };
    assert_eq!(run(), run());
}

#[test]
fn learned_circuit_ports_mirror_oracle() {
    use cirlearn_oracle::Oracle;
    let mut oracle = generate::diag_case(16, 2, 106);
    let in_names = oracle.input_names().to_vec();
    let out_names = oracle.output_names().to_vec();
    let mut learner = Learner::new(LearnerConfig::fast());
    let result = learner.learn(&mut oracle);
    assert_eq!(result.circuit.input_names(), &in_names[..]);
    let got: Vec<&str> = result
        .circuit
        .outputs()
        .iter()
        .map(|(_, n)| n.as_str())
        .collect();
    let want: Vec<&str> = out_names.iter().map(String::as_str).collect();
    assert_eq!(got, want);
}

#[test]
fn anytime_behaviour_under_tiny_budget() {
    use std::time::Duration;
    // Even with a budget far too small for the function the learner
    // must emit a full circuit for every output — degraded, not
    // missing. The budget is a query cap, not a wall clock, so the run
    // is the same on every machine: support 22 keeps the outputs out
    // of exhaustive conquest, and the cap forces FBDT leaves.
    let mut oracle = generate::neq_case_with_support(30, 4, 22, 107);
    let mut cfg = LearnerConfig::fast();
    cfg.max_queries = Some(1_000_000);
    cfg.time_budget = Duration::from_secs(24 * 3600);
    cfg.optimize = None;
    let mut learner = Learner::new(cfg);
    let result = learner.learn(&mut oracle);
    assert_eq!(result.circuit.num_outputs(), 4);
    assert!(
        result.outputs.iter().any(|o| o.forced_leaves > 0),
        "the query cap must bind on some output"
    );
    let acc = evaluate_accuracy(oracle.reveal(), &result.circuit, &eval_cfg());
    // NEQ miters are sparse; even the constant-0 approximation scores
    // well — that is exactly the paper's early-stop story.
    assert!(acc.ratio() > 0.5, "degraded accuracy {acc}");
}

#[test]
fn mixed_case_dispatches_per_output() {
    // Half comparator outputs (template), half random cones
    // (exhaustive/FBDT) — one run must route each output correctly.
    let mut oracle = generate::mixed_case(24, 4, 401);
    let mut learner = Learner::new(LearnerConfig::fast());
    let result = learner.learn(&mut oracle);
    assert_eq!(result.outputs[0].strategy, Strategy::ComparatorTemplate);
    assert_eq!(result.outputs[2].strategy, Strategy::ComparatorTemplate);
    assert!(matches!(
        result.outputs[1].strategy,
        Strategy::Exhaustive | Strategy::Fbdt
    ));
    let acc = evaluate_accuracy(oracle.reveal(), &result.circuit, &eval_cfg());
    assert!(acc.ratio() >= 0.9999, "mixed case accuracy {acc}");
}
