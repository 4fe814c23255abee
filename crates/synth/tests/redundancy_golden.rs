//! Golden test for `redundancy_removal`: the pass must reproduce
//! recorded AIGER text byte for byte, and every result must stay
//! equivalent to its input.
//!
//! The fixtures under `tests/data/redundancy_golden/` were recorded from
//! the one-forward-scan implementation of the pass (after an accepted
//! removal the scan stays at the same AND position of the rebuilt
//! circuit). The inputs are the ones `rewrite_golden` records. The
//! ignored test runs the pass on two raw contest covers; it takes
//! seconds in release, so CI runs it there with `--include-ignored`.

mod common;

use cirlearn_aig::Aig;
use cirlearn_sat::check_equivalence;
use cirlearn_synth::redundancy_removal;

use common::{load, random_aig, redundancy_miter, RANDOM_CASES};

fn assert_golden(case: &str, input: &Aig) {
    let result = redundancy_removal(input);
    let expected = load("redundancy_golden", &format!("{case}.aag"));
    assert_eq!(
        result.to_aiger_ascii(),
        expected,
        "{case}: redundancy removal no longer reproduces the recorded AIGER text"
    );
    assert!(
        check_equivalence(input, &result).is_equivalent(),
        "{case}: redundancy removal changed the function"
    );
}

#[test]
fn redundancy_miter_sides_match_recorded_removals() {
    for side in ["left", "right"] {
        assert_golden(&format!("redundancy_miter_{side}"), &redundancy_miter(side));
    }
}

#[test]
fn random_circuits_match_recorded_removals() {
    for seed in 1..=RANDOM_CASES {
        assert_golden(&format!("random_{seed}"), &random_aig(seed));
    }
}

#[test]
#[ignore = "seconds in release; CI runs it with --include-ignored"]
fn contest_raw_covers_reach_recorded_sizes() {
    for (case, ands) in [("case_2", 811), ("case_12", 591)] {
        let text = load("collapse_golden", &format!("{case}.raw.aag"));
        let input = Aig::from_aiger_ascii(&text).expect("fixture parses");
        let first = redundancy_removal(&input);
        let second = redundancy_removal(&input);
        assert!(
            check_equivalence(&input, &first).is_equivalent(),
            "{case}: redundancy removal changed the function"
        );
        assert_eq!(
            first.to_aiger_ascii(),
            second.to_aiger_ascii(),
            "{case}: two calls on the same input disagree"
        );
        assert_eq!(first.and_count(), ands, "{case}: AND count moved");
    }
}
