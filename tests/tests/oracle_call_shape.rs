//! Call-shape conformance: every in-repo oracle implements only
//! `try_query_batch`, and the trait's adapters (`query`, `try_query`,
//! `query_batch`) must answer exactly what that one method answers on
//! a fresh twin, and count the same queries.

use cirlearn::compress::{Delegate, DelegateOracle};
use cirlearn::template::Predicate;
use cirlearn::OracleGuard;
use cirlearn_logic::Assignment;
use cirlearn_oracle::{
    generate, CircuitOracle, FaultKind, FaultSchedule, FaultyOracle, InstrumentedOracle, Oracle,
    OracleError, ResilientOracle, RetryPolicy,
};
use cirlearn_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The hidden circuit every case wraps.
fn base() -> CircuitOracle {
    generate::eco_case(12, 3, 5)
}

/// A comparator delegate absorbing inputs 0-5 (two 3-bit buses).
fn delegate() -> Delegate {
    Delegate {
        lhs_positions: vec![0, 1, 2],
        rhs_positions: Some(vec![3, 4, 5]),
        constant: 0,
        predicate: Predicate::Lt,
        witness0: (1, 0),
        witness1: (0, 1),
    }
}

/// A case builds a fresh oracle stack around [`base`] and lends it out.
type Case = (&'static str, fn(&mut dyn FnMut(&mut dyn Oracle)));

const CASES: &[Case] = &[
    ("CircuitOracle", |f| f(&mut base())),
    ("InstrumentedOracle", |f| {
        f(&mut InstrumentedOracle::new(base(), Telemetry::recording()));
    }),
    ("FaultyOracle", |f| {
        f(&mut FaultyOracle::new(base(), FaultSchedule::new()));
    }),
    ("ResilientOracle", |f| {
        f(&mut ResilientOracle::new(base(), RetryPolicy::default()));
    }),
    ("OracleGuard", |f| f(&mut OracleGuard::new(base()))),
    ("DelegateOracle", |f| {
        let mut inner = base();
        f(&mut DelegateOracle::new(&mut inner, vec![delegate()]));
    }),
    ("&mut O", |f| {
        let mut inner = base();
        f(&mut &mut inner);
    }),
];

/// Seeded patterns of the given width; more than one 64-pattern word.
fn patterns(width: usize) -> Vec<Assignment> {
    let mut rng = StdRng::seed_from_u64(0xCA11);
    (0..70)
        .map(|_| Assignment::from_bits((0..width).map(|_| rng.gen_bool(0.5))))
        .collect()
}

/// Runs `call` on a fresh oracle of `case` and returns its rows and
/// how far `queries()` moved.
fn on_fresh(
    case: &Case,
    call: impl Fn(&mut dyn Oracle, &[Assignment]) -> Vec<Vec<bool>>,
) -> (Vec<Vec<bool>>, u64) {
    let mut out = None;
    (case.1)(&mut |o: &mut dyn Oracle| {
        let ps = patterns(o.num_inputs());
        let before = o.queries();
        let rows = call(o, &ps);
        out = Some((rows, o.queries() - before));
    });
    out.expect("every case lends its oracle")
}

#[test]
fn adapters_answer_and_count_like_the_batch_method() {
    for case in CASES {
        let name = case.0;
        let (want, counted) = on_fresh(case, |o, ps| {
            o.try_query_batch(ps).expect("a healthy oracle answers")
        });
        assert_eq!(want.len(), 70, "{name}: one row per pattern");
        assert_eq!(counted, 70, "{name}: try_query_batch count");

        let singles = on_fresh(case, |o, ps| ps.iter().map(|p| o.query(p)).collect());
        assert_eq!(singles, (want.clone(), 70), "{name}: query");

        let tried = on_fresh(case, |o, ps| {
            ps.iter()
                .map(|p| o.try_query(p).expect("a healthy oracle answers"))
                .collect()
        });
        assert_eq!(tried, (want.clone(), 70), "{name}: try_query");

        let batched = on_fresh(case, |o, ps| o.query_batch(ps));
        assert_eq!(batched, (want, 70), "{name}: query_batch");

        let empty = on_fresh(case, |o, _| o.query_batch(&[]));
        assert_eq!(empty, (Vec::new(), 0), "{name}: empty batch");
    }
}

/// A base oracle whose first query slot faults with `kind`.
fn faulting(kind: FaultKind) -> FaultyOracle<CircuitOracle> {
    FaultyOracle::new(base(), FaultSchedule::new().at(0, kind))
}

#[test]
fn a_single_query_faults_like_a_batch_of_one() {
    let p = Assignment::zeros(12);
    for kind in [FaultKind::Crash, FaultKind::Hang, FaultKind::Malformed] {
        let single: OracleError = faulting(kind).try_query(&p).expect_err("slot 0 faults");
        let batch = faulting(kind)
            .try_query_batch(std::slice::from_ref(&p))
            .expect_err("slot 0 faults");
        assert_eq!(
            std::mem::discriminant(&single),
            std::mem::discriminant(&batch),
            "{kind:?}: {single} vs {batch}"
        );
        assert_eq!(single.needs_respawn(), batch.needs_respawn(), "{kind:?}");
    }
}

#[test]
#[should_panic(expected = "oracle query failed")]
fn query_panics_on_a_fault() {
    faulting(FaultKind::Crash).query(&Assignment::zeros(12));
}

#[test]
#[should_panic(expected = "oracle query failed")]
fn query_batch_panics_on_a_fault() {
    faulting(FaultKind::Crash).query_batch(&[Assignment::zeros(12)]);
}
