//! Fault-injection self-tests: each check behind [`analyze`] must catch
//! its defect class when injected through the unchecked mutators
//! (`set_fanin_unchecked` / `set_output_unchecked`), driven through
//! `analyze` itself rather than the individual checks.

use cirlearn_aig::{Aig, Edge};
use cirlearn_verify::{analyze, LintViolation, Severity};

/// The default `cirlearn analyze --fanout-threshold`.
const FANOUT_THRESHOLD: usize = 64;

/// A healthy little circuit: two outputs over shared logic.
fn healthy() -> Aig {
    let mut aig = Aig::new();
    let inputs = aig.add_inputs("x", 4);
    let a = aig.and(inputs[0], inputs[1]);
    let b = aig.xor(a, inputs[2]);
    let c = aig.mux(inputs[3], b, a);
    aig.add_output(b, "f");
    aig.add_output(c, "g");
    aig
}

fn findings_of(aig: &Aig) -> Vec<LintViolation> {
    analyze(aig, FANOUT_THRESHOLD).findings
}

#[test]
fn healthy_circuit_is_clean_at_default_severity() {
    let analysis = analyze(&healthy(), FANOUT_THRESHOLD);
    assert_eq!(
        analysis.count_at_least(Severity::Warning),
        0,
        "unexpected findings: {:?}",
        analysis.findings
    );
}

#[test]
fn injected_dead_cone_is_caught_by_the_dead_analysis() {
    let mut aig = healthy();
    // Redirect output 1 at an input: its private cone goes dead.
    aig.set_output_unchecked(1, aig.input_edge(0));
    let findings = findings_of(&aig);
    let dead: Vec<&LintViolation> = findings
        .iter()
        .filter(|f| matches!(f, LintViolation::DanglingAnd { .. }))
        .collect();
    assert!(!dead.is_empty(), "dead analysis missed the stranded cone");
    assert!(dead
        .iter()
        .all(|f| f.analysis() == "dead" && f.severity() == Severity::Warning));
}

#[test]
fn injected_duplicate_pair_is_caught_by_the_dup_analysis() {
    let mut aig = healthy();
    // Rewire the last AND to recompute the first AND's fanin pair.
    let (first, a0, a1) = aig.ands().next().unwrap();
    let last = aig.ands().last().map(|(n, _, _)| n).unwrap();
    aig.set_fanin_unchecked(last, 0, a0);
    aig.set_fanin_unchecked(last, 1, a1);
    let findings = findings_of(&aig);
    assert!(
        findings.iter().any(|f| f.analysis() == "dup"
            && *f
                == LintViolation::DuplicateFaninPair {
                    node: last.index(),
                    first: first.index(),
                }),
        "dup analysis missed the injected duplicate: {findings:?}"
    );
}

#[test]
fn injected_constant_fanin_is_caught_by_the_lint_analysis() {
    let mut aig = healthy();
    let (first, _, _) = aig.ands().next().unwrap();
    aig.set_fanin_unchecked(first, 0, Edge::FALSE);
    let findings = findings_of(&aig);
    assert!(
        findings.iter().any(|f| f.analysis() == "lint"
            && f.severity() == Severity::Warning
            && *f
                == LintViolation::ConstantFanin {
                    node: first.index(),
                    slot: 0
                }),
        "lint analysis missed the injected constant fanin: {findings:?}"
    );
}

#[test]
fn fanout_hotspot_is_caught_by_the_metrics_analysis() {
    let mut aig = Aig::new();
    let inputs = aig.add_inputs("x", 6);
    let hub = aig.and(inputs[0], inputs[1]);
    for (i, &input) in inputs[2..].iter().enumerate() {
        let leaf = aig.and(hub, input);
        aig.add_output(leaf, format!("f{i}"));
    }
    let analysis = analyze(&aig, 4);
    assert!(
        analysis.findings.iter().any(|f| f.analysis() == "metrics"
            && matches!(*f, LintViolation::HighFanout { node, fanout }
                if node == hub.node().index() && fanout >= 4)),
        "metrics analysis missed the fanout hotspot: {:?}",
        analysis.findings
    );
    // Info findings never trip the default (warning) gate.
    assert_eq!(analysis.count_at_least(Severity::Warning), 0);
    assert_ne!(analysis.count_at_least(Severity::Info), 0);
}

#[test]
fn structural_corruption_is_caught_by_the_lint_layer() {
    let mut aig = healthy();
    let (first, _, _) = aig.ands().next().unwrap();
    aig.set_fanin_unchecked(first, 0, Edge::from_code(40_000));
    let analysis = analyze(&aig, FANOUT_THRESHOLD);
    assert_ne!(analysis.count_at_least(Severity::Error), 0);
    assert!(analysis
        .findings
        .iter()
        .any(|f| f.analysis() == "lint" && f.severity() == Severity::Error));
    // On a structurally unsafe graph the walk must stand down rather
    // than follow out-of-range fanins.
    assert!(analysis.metrics.is_none());
}

#[test]
fn cleanup_removes_everything_the_analyses_flag() {
    // The export path's guarantee: after `Aig::cleanup()` the graph is
    // analyze-clean at the default severity even if the in-memory
    // source accumulated dead cones.
    let mut aig = healthy();
    let a = aig.input_edge(0);
    let b = aig.input_edge(3);
    let _stranded = aig.and(!a, !b);
    assert_ne!(
        analyze(&aig, FANOUT_THRESHOLD).count_at_least(Severity::Warning),
        0
    );
    let analysis = analyze(&aig.cleanup(), FANOUT_THRESHOLD);
    assert_eq!(
        analysis.count_at_least(Severity::Warning),
        0,
        "cleanup left analyzable waste: {:?}",
        analysis.findings
    );
}
