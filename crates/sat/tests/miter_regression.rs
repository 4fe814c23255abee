//! Regression: a miter whose SAT model used to violate its own clauses.
//!
//! The pair is one step of `redundancy_removal` on the raw (unoptimized)
//! cover of contest case_1: the left circuit has 226 AND nodes, the
//! right one is the same circuit with one AND node replaced by a fanin
//! wire. `check_equivalence` used to get `Sat` from the solver with a
//! model under which both circuits agree on every output, and panicked
//! with "SAT model of the miter must distinguish some output".
//!
//! The cause was in the solver: a restart right after learning a unit
//! clause backtracked to level 0 and marked the freshly enqueued unit as
//! already propagated, so clauses watching its negation were never
//! visited and the final model could falsify them.

use cirlearn_aig::Aig;
use cirlearn_sat::{check_equivalence, Equivalence};

fn load(text: &str) -> Aig {
    Aig::from_aiger_ascii(text).expect("test circuit parses")
}

#[test]
fn redundancy_miter_yields_a_verified_verdict() {
    let left = load(include_str!("data/redundancy_miter_left.aag"));
    let right = load(include_str!("data/redundancy_miter_right.aag"));
    assert_eq!(left.and_count(), 226);
    match check_equivalence(&left, &right) {
        Equivalence::Equivalent => {}
        Equivalence::Counterexample(cex) => {
            let bits: Vec<bool> = cex.inputs.iter().collect();
            let (l, r) = (left.eval_bits(&bits), right.eval_bits(&bits));
            assert_ne!(l[cex.output], r[cex.output], "reported output agrees");
        }
    }
}

#[test]
fn redundancy_miter_is_symmetric() {
    let left = load(include_str!("data/redundancy_miter_left.aag"));
    let right = load(include_str!("data/redundancy_miter_right.aag"));
    assert_eq!(
        check_equivalence(&left, &right).is_equivalent(),
        check_equivalence(&right, &left).is_equivalent()
    );
}
