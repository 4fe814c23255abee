//! Golden test for `refactor`: the pass must reproduce recorded AIGER
//! text byte for byte, and every result must stay equivalent to its
//! input.
//!
//! The fixtures under `tests/data/refactor_golden/` were recorded from
//! the BDD implementation of the pass (one BDD manager per node, covers
//! from `Bdd::isop_bounded`). Each input is refactored under the default
//! configuration and under a four-cube bound, so both the accepted
//! covers and the over-bound path are pinned. The inputs are the ones
//! `rewrite_golden` records.

mod common;

use cirlearn_aig::Aig;
use cirlearn_sat::check_equivalence;
use cirlearn_synth::{refactor, RefactorConfig};

use common::{load, random_aig, redundancy_miter, RANDOM_CASES};

/// The configurations each input is recorded under, with their fixture
/// suffixes.
fn configs() -> [(&'static str, RefactorConfig); 2] {
    [
        ("default", RefactorConfig::default()),
        (
            "cubes4",
            RefactorConfig {
                max_cubes: 4,
                ..RefactorConfig::default()
            },
        ),
    ]
}

fn assert_golden(case: &str, input: &Aig) {
    for (suffix, config) in configs() {
        let result = refactor(input, &config);
        let expected = load("refactor_golden", &format!("{case}.{suffix}.aag"));
        assert_eq!(
            result.to_aiger_ascii(),
            expected,
            "{case}.{suffix}: refactor no longer reproduces the recorded AIGER text"
        );
        assert!(
            check_equivalence(input, &result).is_equivalent(),
            "{case}.{suffix}: refactor changed the function"
        );
    }
}

#[test]
fn redundancy_miter_sides_match_recorded_refactors() {
    for side in ["left", "right"] {
        assert_golden(&format!("redundancy_miter_{side}"), &redundancy_miter(side));
    }
}

#[test]
fn random_circuits_match_recorded_refactors() {
    for seed in 1..=RANDOM_CASES {
        assert_golden(&format!("random_{seed}"), &random_aig(seed));
    }
}
