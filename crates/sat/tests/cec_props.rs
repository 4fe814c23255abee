//! `check_equivalence` against exhaustive truth tables.
//!
//! The property pairs share part of their structure: `right` rebuilds
//! `left` node by node, keeping some ANDs as they are (strashing merges
//! those) and re-deriving others in an equivalent but different shape
//! (the sweep has to prove those). Half the pairs also get one gate
//! mutated. Pairs over 20 inputs that differ on a minterm at most, and
//! the regression tests, cover the paths random simulation cannot
//! decide on its own.

use cirlearn_aig::{Aig, Edge};
use cirlearn_sat::{check_equivalence, Equivalence};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pick(pool: &[Edge], rng: &mut StdRng) -> Edge {
    pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.5))
}

/// A random multi-output AIG over `inputs` inputs.
///
/// Up to two of its nodes are minterms over every input: true on one
/// pattern in `2^inputs`, which the simulation block is likely to miss,
/// so they land in the constant's class and the sweep has to refute
/// them with SAT.
fn random_aig(inputs: usize, rng: &mut StdRng) -> Aig {
    let mut g = Aig::new();
    let mut pool = g.add_inputs("x", inputs);
    pool.push(Edge::TRUE);
    for _ in 0..rng.gen_range(0..=2) {
        let literals: Vec<Edge> = pool[..inputs]
            .iter()
            .map(|x| x.complement_if(rng.gen_bool(0.5)))
            .collect();
        let minterm = g.and_many(&literals);
        pool.push(minterm);
    }
    for _ in 0..rng.gen_range(1..=40) {
        let (a, b) = (pick(&pool, rng), pick(&pool, rng));
        let n = g.and(a, b);
        pool.push(n);
    }
    for k in 0..rng.gen_range(1..=4) {
        // Favour the deep end of the pool, where the logic is.
        let deep = &pool[pool.len() / 2..];
        let e = pick(deep, rng);
        g.add_output(e, format!("y{k}"));
    }
    g
}

/// Rebuilds `left` node by node in a fresh graph. Each AND is kept as
/// it is, or re-derived as an equivalent structure:
///
/// * `a & b` as `a & !(a & !b)`;
/// * `(c & d) & b` reassociated to `c & (d & b)`;
/// * `a & !(c & d)` by De Morgan as `(a & !c) | (a & !d)`.
///
/// `mutate` names one AND whose second fanin is complemented instead.
fn rebuild(left: &Aig, mutate: Option<usize>, rng: &mut StdRng) -> Aig {
    let mut g = Aig::new();
    let mut map = g.add_inputs("x", left.num_inputs());
    map.insert(0, Edge::FALSE);
    let at = |map: &[Edge], e: Edge| map[e.node().index()].complement_if(e.is_complemented());
    for (k, (n, a, b)) in left.ands().enumerate() {
        let (ma, mb) = (at(&map, a), at(&map, b));
        let edge = if mutate == Some(k) {
            g.and(ma, !mb)
        } else {
            match rng.gen_range(0..4) {
                0 => g.and(ma, mb),
                1 => {
                    let inner = g.and(ma, !mb);
                    g.and(ma, !inner)
                }
                2 if left.is_and(a.node()) && !a.is_complemented() => {
                    let [c, d] = left.fanins(a.node());
                    let db = g.and(at(&map, d), mb);
                    g.and(at(&map, c), db)
                }
                3 if left.is_and(b.node()) && b.is_complemented() => {
                    let [c, d] = left.fanins(b.node());
                    let ac = g.and(ma, !at(&map, c));
                    let ad = g.and(ma, !at(&map, d));
                    g.or(ac, ad)
                }
                _ => g.and(ma, mb),
            }
        };
        debug_assert_eq!(map.len(), n.index());
        map.push(edge);
    }
    for (e, name) in left.outputs() {
        let edge = at(&map, *e);
        g.add_output(edge, name.clone());
    }
    g
}

/// Checks one verdict against the exhaustive truth tables.
fn check_verdict(left: &Aig, right: &Aig) -> Result<(), TestCaseError> {
    let (tl, tr) = (
        left.output_truth_tables().expect("few inputs"),
        right.output_truth_tables().expect("few inputs"),
    );
    let verdict = check_equivalence(left, right);
    prop_assert_eq!(verdict.is_equivalent(), tl == tr);
    if let Equivalence::Counterexample(cex) = verdict {
        let bits: Vec<bool> = cex.inputs.iter().collect();
        prop_assert_eq!(bits.len(), left.num_inputs());
        let (ol, or) = (left.eval_bits(&bits), right.eval_bits(&bits));
        prop_assert!(ol[cex.output] != or[cex.output], "reported output agrees");
        prop_assert_eq!(
            &ol[..cex.output],
            &or[..cex.output],
            "an earlier output differs too"
        );
    }
    Ok(())
}

fn check_pair(inputs: usize, seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let left = random_aig(inputs, &mut rng);
    let mutate = rng
        .gen_bool(0.5)
        .then(|| rng.gen_range(0..left.and_count().max(1)));
    let right = rebuild(&left, mutate, &mut rng);
    check_verdict(&left, &right)?;
    check_verdict(&right, &left)
}

/// A copy of `g` whose output 0 is OR-ed with the minterm of `point`.
fn or_minterm(g: &Aig, point: &[bool]) -> Aig {
    let mut out = Aig::with_inputs_like(g);
    let mut map: Vec<Edge> = (0..=g.num_inputs())
        .map(|i| Edge::from_code(i as u32 * 2))
        .collect();
    let at = |map: &[Edge], e: Edge| map[e.node().index()].complement_if(e.is_complemented());
    for (_, a, b) in g.ands() {
        let (ma, mb) = (at(&map, a), at(&map, b));
        let edge = out.and(ma, mb);
        map.push(edge);
    }
    let literals: Vec<Edge> = point
        .iter()
        .enumerate()
        .map(|(i, &bit)| out.input_edge(i).complement_if(!bit))
        .collect();
    let minterm = out.and_many(&literals);
    for (k, (e, name)) in g.outputs().iter().enumerate() {
        let mut edge = at(&map, *e);
        if k == 0 {
            edge = out.or(edge, minterm);
        }
        out.add_output(edge, name.clone());
    }
    out
}

/// A pair over 20 inputs that can differ on two patterns at most:
/// `left` is a random circuit with output 0 OR-ed with the minterm of
/// one pattern, `right` an equivalent rebuild OR-ed with the minterm of
/// the same pattern or of one a bit flip away. Simulation almost surely
/// misses both minterms, so the sweep and the output proofs decide, and
/// evaluating the two patterns gives the exact verdict.
fn check_rare_pair(seed: u64) -> Result<(), TestCaseError> {
    const INPUTS: usize = 20;
    let mut rng = StdRng::seed_from_u64(seed);
    let f = random_aig(INPUTS, &mut rng);
    let g = rebuild(&f, None, &mut rng);
    let point: Vec<bool> = (0..INPUTS).map(|_| rng.gen_bool(0.5)).collect();
    let mut other = point.clone();
    if rng.gen_bool(0.5) {
        let i = rng.gen_range(0..INPUTS);
        other[i] = !other[i];
    }
    let (left, right) = (or_minterm(&f, &point), or_minterm(&g, &other));
    let equal = [&point, &other]
        .iter()
        .all(|p| left.eval_bits(p) == right.eval_bits(p));
    for (l, r) in [(&left, &right), (&right, &left)] {
        let verdict = check_equivalence(l, r);
        prop_assert_eq!(verdict.is_equivalent(), equal);
        if let Equivalence::Counterexample(cex) = verdict {
            let bits: Vec<bool> = cex.inputs.iter().collect();
            prop_assert!(bits == point || bits == other, "no minterm: {}", cex);
            prop_assert_eq!(cex.output, 0);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn verdict_matches_truth_tables(inputs in 1usize..=10, seed in any::<u64>()) {
        check_pair(inputs, seed)?;
    }

    #[test]
    fn verdict_matches_on_rare_differences(seed in any::<u64>()) {
        check_rare_pair(seed)?;
    }
}

/// An unmutated rebuild is always equivalent, whatever shapes the
/// rebuild picked.
#[test]
fn unmutated_rebuilds_are_equivalent() {
    for seed in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let left = random_aig(8, &mut rng);
        let right = rebuild(&left, None, &mut rng);
        assert!(
            check_equivalence(&left, &right).is_equivalent(),
            "seed {seed}"
        );
    }
}

/// A 20-input AND is 0 on all but one pattern, so simulation sees it
/// as the constant 0 and only the SAT call on the outputs finds the
/// difference. Output 0 is identical in both circuits and strashes to
/// one edge, so the counterexample must name output 1.
#[test]
fn rare_difference_behind_an_identical_output() {
    let build = |second: Option<Edge>| {
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 20);
        let y0 = g.xor(xs[0], xs[1]);
        g.add_output(y0, "y0");
        let y1 = second.unwrap_or_else(|| g.and_many(&xs));
        g.add_output(y1, "y1");
        g
    };
    let left = build(None);
    let right = build(Some(Edge::FALSE));
    for (l, r) in [(&left, &right), (&right, &left)] {
        match check_equivalence(l, r) {
            Equivalence::Counterexample(cex) => {
                assert_eq!(cex.output, 1);
                assert_eq!(cex.inputs.count_ones(), 20, "only all ones differs");
            }
            Equivalence::Equivalent => panic!("AND20 and 0 reported equivalent"),
        }
    }
}

/// ANDs that no output reaches take no part in the verdict.
#[test]
fn dangling_ands_do_not_change_the_verdict() {
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..32 {
        let left = random_aig(6, &mut rng);
        let mutate = (round % 2 == 1).then(|| rng.gen_range(0..left.and_count().max(1)));
        let right = rebuild(&left, mutate, &mut rng);
        let mut dangling = right.clone();
        let mut pool: Vec<Edge> = (0..dangling.num_inputs())
            .map(|i| dangling.input_edge(i))
            .collect();
        for _ in 0..10 {
            let (a, b) = (pick(&pool, &mut rng), pick(&pool, &mut rng));
            let n = dangling.and(a, b);
            pool.push(n);
        }
        assert_eq!(
            check_equivalence(&left, &dangling),
            check_equivalence(&left, &right),
            "round {round}"
        );
    }
}

#[test]
fn a_circuit_is_equivalent_to_itself() {
    let mut rng = StdRng::seed_from_u64(3);
    for inputs in [0, 1, 5, 10] {
        let g = random_aig(inputs, &mut rng);
        assert_eq!(check_equivalence(&g, &g), Equivalence::Equivalent);
    }
}
