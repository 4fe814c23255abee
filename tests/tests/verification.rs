//! Mutation self-checks for the verification subsystem.
//!
//! Each test corrupts a sound circuit in a way the subsystem claims to
//! detect and proves the responsible layer — structural linter, random
//! simulation, SAT equivalence — actually catches it. Every functional
//! witness is re-simulated on both circuits, so a vacuous "caught it"
//! (right error, wrong counterexample) fails the suite.

use cirlearn_aig::{Aig, Edge, NodeId};
use cirlearn_synth::{optimize_with, CheckedPass, OptimizeConfig};
use cirlearn_telemetry::{Counter, Telemetry};
use cirlearn_verify::{
    lint, verify_pass, LintViolation, Linter, VerifyConfig, VerifyLevel, Violation,
};

/// A full adder: two non-trivial outputs over three inputs, enough AND
/// nodes to corrupt in every class.
fn full_adder() -> Aig {
    let mut g = Aig::new();
    let a = g.add_input("a");
    let b = g.add_input("b");
    let c = g.add_input("c");
    let s = g.xor(a, b);
    let sum = g.xor(s, c);
    let ab = g.and(a, b);
    let sc = g.and(s, c);
    let carry = g.or(ab, sc);
    g.add_output(sum, "sum");
    g.add_output(carry, "carry");
    g
}

fn and_nodes(g: &Aig) -> Vec<NodeId> {
    g.ands().map(|(n, _, _)| n).collect()
}

#[test]
fn sound_circuit_is_clean_under_the_strict_linter() {
    let g = full_adder().cleanup();
    assert!(lint(&g).is_empty());
}

#[test]
fn linter_catches_every_structural_mutation_class() {
    let base = full_adder();
    let nodes = and_nodes(&base);
    let first = nodes[0];
    let last = *nodes.last().expect("adder has AND nodes");

    // Each entry: a named mutator plus a predicate for the violation
    // class it must trip. The linter must also never panic, whatever
    // the damage.
    type Mutator = fn(&mut Aig, NodeId, NodeId);
    type Expected = fn(&LintViolation) -> bool;
    let battery: Vec<(&str, Mutator, Expected)> = vec![
        (
            "fanin past the node table",
            |g, first, _| {
                let far = Edge::new(NodeId::from_index(g.node_count() + 3), false);
                g.set_fanin_unchecked(first, 1, far);
            },
            |v| matches!(v, LintViolation::FaninOutOfRange { .. }),
        ),
        (
            "fanin pointing forward (topological order broken)",
            |g, first, last| {
                g.set_fanin_unchecked(first, 0, Edge::new(last, false));
            },
            |v| matches!(v, LintViolation::NonTopologicalFanin { .. }),
        ),
        (
            "fanins swapped out of canonical order",
            |g, _, last| {
                let [a, b] = g.fanins(last);
                g.set_fanin_unchecked(last, 0, b);
                g.set_fanin_unchecked(last, 1, a);
            },
            |v| matches!(v, LintViolation::UnorderedFanins { .. }),
        ),
        (
            "two nodes computing the same fanin pair",
            |g, first, last| {
                let [a, b] = g.fanins(first);
                g.set_fanin_unchecked(last, 0, a);
                g.set_fanin_unchecked(last, 1, b);
            },
            |v| matches!(v, LintViolation::DuplicateFaninPair { .. }),
        ),
        (
            "constant fanin survived folding",
            |g, _, last| {
                g.set_fanin_unchecked(last, 0, Edge::TRUE);
            },
            |v| matches!(v, LintViolation::ConstantFanin { .. }),
        ),
        (
            "trivial AND of a node with itself",
            |g, _, last| {
                let [a, _] = g.fanins(last);
                g.set_fanin_unchecked(last, 0, a);
                g.set_fanin_unchecked(last, 1, a);
            },
            |v| matches!(v, LintViolation::TrivialAnd { .. }),
        ),
        (
            "output pointing past the node table",
            |g, _, _| {
                let far = Edge::new(NodeId::from_index(g.node_count() + 1), true);
                g.set_output_unchecked(0, far);
            },
            |v| matches!(v, LintViolation::OutputOutOfRange { .. }),
        ),
    ];

    for (name, mutate, expected) in battery {
        let mut broken = full_adder();
        mutate(&mut broken, first, last);
        let violations = Linter::new().allow_dangling(true).lint(&broken);
        assert!(
            violations.iter().any(expected),
            "{name}: expected violation class missing, got {violations:?}"
        );
    }
}

#[test]
fn dangling_node_is_strict_only() {
    let mut g = full_adder();
    let a = g.input_edge(0);
    let c = g.input_edge(2);
    let _ = g.and(!a, !c);
    let strict = lint(&g);
    assert!(
        strict
            .iter()
            .any(|v| matches!(v, LintViolation::DanglingAnd { .. })),
        "{strict:?}"
    );
    assert!(Linter::new().allow_dangling(true).lint(&g).is_empty());
}

#[test]
fn semantic_mutations_yield_resimulated_witnesses_at_sim_and_sat() {
    let base = full_adder();
    let mutants: Vec<(&str, Aig)> = vec![
        ("sum output complemented", {
            let mut g = full_adder();
            let e = g.output_edge(0);
            g.set_output_unchecked(0, !e);
            g
        }),
        ("carry output complemented", {
            let mut g = full_adder();
            let e = g.output_edge(1);
            g.set_output_unchecked(1, !e);
            g
        }),
        ("sum retargeted to input a", {
            let mut g = full_adder();
            let a = g.input_edge(0);
            g.set_output_unchecked(0, a);
            g
        }),
        ("carry stuck at 1", {
            let mut g = full_adder();
            g.set_output_unchecked(1, Edge::TRUE);
            g
        }),
    ];

    for (name, broken) in &mutants {
        // Structure is untouched, so the lint level must stay silent...
        assert_eq!(
            verify_pass(&base, broken, &VerifyConfig::at_level(VerifyLevel::Lint)),
            Ok(()),
            "{name}: lint cannot see semantic damage"
        );
        // ...while both functional levels must produce a witness that
        // genuinely separates the two circuits.
        for level in [VerifyLevel::Sim, VerifyLevel::Sat] {
            match verify_pass(&base, broken, &VerifyConfig::at_level(level)) {
                Err(Violation::Functional(w)) => {
                    let l = base.eval(&w.inputs);
                    let r = broken.eval(&w.inputs);
                    assert_ne!(
                        l[w.output], r[w.output],
                        "{name} at {level}: witness does not distinguish the circuits"
                    );
                }
                other => panic!("{name} at {level}: expected a witness, got {other:?}"),
            }
        }
    }
}

#[test]
fn structural_corruption_is_linted_before_simulation_can_panic() {
    let base = full_adder();
    let mut broken = full_adder();
    let nodes = and_nodes(&broken);
    let first = nodes[0];
    let last = *nodes.last().expect("adder has AND nodes");
    // A forward edge would send `simulate` and the CNF encoder reading
    // an uninitialized slot; every level must stop at the lint stage.
    broken.set_fanin_unchecked(first, 0, Edge::new(last, true));
    for level in [VerifyLevel::Lint, VerifyLevel::Sim, VerifyLevel::Sat] {
        assert!(
            matches!(
                verify_pass(&base, &broken, &VerifyConfig::at_level(level)),
                Err(Violation::Lint(_))
            ),
            "level {level} must report the lint violation"
        );
    }
}

#[test]
fn checked_pass_heals_a_corrupting_pass_and_counts_it() {
    let base = full_adder();
    let telemetry = Telemetry::recording();
    let cfg = VerifyConfig::at_level(VerifyLevel::Sat);
    let checked = CheckedPass::new("saboteur", &cfg, &telemetry);
    let outcome = checked.run(&base, |g| {
        let mut bad = g.clone();
        let e = bad.output_edge(0);
        bad.set_output_unchecked(0, !e);
        bad
    });
    let violation = outcome.violation.as_ref().expect("pass must be rejected");
    assert!(matches!(violation, Violation::Functional(_)), "{violation}");
    // The harness hands back the pre-pass circuit, so the pipeline keeps
    // a provably correct result.
    assert!(cirlearn_sat::check_equivalence(&base, &outcome.circuit).is_equivalent());
    assert_eq!(telemetry.counter(Counter::VerifyChecks), 1);
    assert_eq!(telemetry.counter(Counter::VerifyRejectedPasses), 1);
    assert_eq!(telemetry.counter(Counter::VerifyWitnesses), 1);
}

#[test]
fn optimization_under_every_verify_level_preserves_equivalence() {
    use cirlearn_oracle::generate;
    use std::time::Duration;

    let oracle = generate::case(generate::Category::Eco, 12, 2, 5);
    let golden = oracle.reveal();
    for level in VerifyLevel::ALL {
        let telemetry = Telemetry::recording();
        let cfg = OptimizeConfig {
            time_budget: Duration::from_secs(5),
            max_rounds: 1,
            verify: VerifyConfig::at_level(level),
            ..OptimizeConfig::default()
        };
        let best = optimize_with(golden, &cfg, &telemetry);
        assert!(
            cirlearn_sat::check_equivalence(golden, &best).is_equivalent(),
            "level {level}: optimization changed the function"
        );
        assert_eq!(
            telemetry.counter(Counter::VerifyRejectedPasses),
            0,
            "level {level}: no bundled pass may be rejected"
        );
        if level != VerifyLevel::Off {
            assert!(telemetry.counter(Counter::VerifyChecks) > 0);
        }
    }
}
