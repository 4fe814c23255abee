//! Golden test for `rewrite`: the pass must reproduce recorded AIGER
//! text byte for byte, and every result must stay equivalent to its
//! input.
//!
//! The fixtures under `tests/data/rewrite_golden/` were recorded from
//! the exhaustive-canonisation implementation of the pass (one NPN
//! search per cut, cut functions evaluated per cut). They pin the exact
//! choice of replacement for every node, so a faster canonisation or a
//! different way of computing cut functions must make the same choices.

mod common;

use cirlearn_aig::Aig;
use cirlearn_sat::check_equivalence;
use cirlearn_synth::rewrite;

use common::{load, random_aig, redundancy_miter, RANDOM_CASES};

const DATA: &str = "rewrite_golden";

fn assert_golden(case: &str, input: &Aig) {
    let result = rewrite(input);
    let expected = load(DATA, &format!("{case}.rewritten.aag"));
    assert_eq!(
        result.to_aiger_ascii(),
        expected,
        "{case}: rewrite no longer reproduces the recorded AIGER text"
    );
    assert!(
        check_equivalence(input, &result).is_equivalent(),
        "{case}: rewrite changed the function"
    );
}

#[test]
fn redundancy_miter_sides_match_recorded_rewrites() {
    for side in ["left", "right"] {
        let input = redundancy_miter(side);
        assert_golden(&format!("redundancy_miter_{side}"), &input);
    }
}

#[test]
fn random_circuits_match_recorded_rewrites() {
    for seed in 1..=RANDOM_CASES {
        let input = random_aig(seed);
        // The recorded input pins the generator too.
        assert_eq!(
            input.to_aiger_ascii(),
            load(DATA, &format!("random_{seed}.aag")),
            "random_{seed}: generator output changed"
        );
        assert_golden(&format!("random_{seed}"), &input);
    }
}
