//! The counterexample-guided sweep against the fraig and CEC it replaced.
//!
//! `reference` below is the earlier `fraig` and `check_equivalence`:
//! fraig proves every class member against the lowest-id member in
//! hash-map order with no counterexample kept, and CEC runs its own
//! sweep that sends every candidate pair to the solver. The sweep in
//! `cirlearn_sat::Sweep` may only skip pairs the solver would answer
//! `Sat` for, so on every circuit `fraig` must write the same AIGER byte
//! for byte and `check_equivalence` must give the same kind of verdict,
//! each counterexample re-simulating as distinguishing.
//!
//! One deliberate difference from the earlier fraig: the reference's
//! classes hold the primary inputs as well as the constant, as the
//! sweep's do, so a node equal to an input merges onto the input in
//! both. The earlier CEC pinned equalities through the solver directly;
//! the reference uses the equivalent `AigCnf::assert_equal`.
//!
//! The circuits are seeded random graphs with planted equal and
//! complement-equal copies of cones, near-miss copies that differ on a
//! single minterm (which the 2,048 and 1,024 simulation patterns rarely
//! hit), 12-bit comparators against a copy with one minterm flipped, and
//! case_12's learned cover before optimization.

use cirlearn::{Learner, LearnerConfig};
use cirlearn_aig::{Aig, Edge};
use cirlearn_oracle::contest_suite;
use cirlearn_sat::{check_equivalence_with_stats, Equivalence};
use cirlearn_synth::{fraig, fraig_with_stats, FraigConfig};
use std::time::Duration;

/// Fraig and CEC as they were before the shared sweep.
mod reference {
    use std::collections::HashMap;

    use cirlearn_aig::{Aig, Edge, NodeId};
    use cirlearn_logic::{Assignment, SimVector};
    use cirlearn_sat::{AigCnf, Counterexample, Equivalence, SolveResult};
    use cirlearn_synth::FraigConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub fn fraig(aig: &Aig, config: &FraigConfig) -> Aig {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let patterns = config.patterns.max(64);
        let inputs: Vec<SimVector> = (0..aig.num_inputs())
            .map(|_| SimVector::random(patterns, &mut rng))
            .collect();
        let signatures = aig.simulate_nodes(&inputs);

        let mut classes: HashMap<Vec<u64>, Vec<(NodeId, bool)>> = HashMap::new();
        let all_nodes = (0..=aig.num_inputs())
            .map(NodeId::from_index)
            .chain(aig.ands().map(|(n, _, _)| n));
        for n in all_nodes {
            let sig = &signatures[n.index()];
            let (key, phase) = canonical_signature(sig);
            classes.entry(key).or_default().push((n, phase));
        }

        let mut cnf = AigCnf::new(aig);
        let mut merged: HashMap<NodeId, Edge> = HashMap::new();
        let mut queries = 0usize;
        for members in classes.values() {
            if members.len() < 2 {
                continue;
            }
            let (rep, rep_phase) = *members
                .iter()
                .min_by_key(|(n, _)| n.index())
                .expect("nonempty class");
            let rep_edge = Edge::new(rep, false);
            for &(n, phase) in members {
                if n == rep || queries >= config.max_sat_queries {
                    continue;
                }
                queries += 1;
                let target = rep_edge.complement_if(phase != rep_phase);
                let sel = cnf.add_difference_selector(Edge::new(n, false), target);
                if cnf.solve_with_assumptions(&[sel]) == SolveResult::Unsat {
                    merged.insert(n, target);
                }
            }
        }

        let mut out = Aig::with_inputs_like(aig);
        let mut map: Vec<Edge> = vec![Edge::FALSE; aig.node_count()];
        for (i, m) in map.iter_mut().enumerate().take(aig.num_inputs() + 1) {
            *m = Edge::from_code(i as u32 * 2);
        }
        for (n, a, b) in aig.ands() {
            let new_edge = if let Some(target) = merged.get(&n) {
                map[target.node().index()].complement_if(target.is_complemented())
            } else {
                let na = map[a.node().index()].complement_if(a.is_complemented());
                let nb = map[b.node().index()].complement_if(b.is_complemented());
                out.and(na, nb)
            };
            map[n.index()] = new_edge;
        }
        for (e, name) in aig.outputs() {
            let ne = map[e.node().index()].complement_if(e.is_complemented());
            out.add_output(ne, name.clone());
        }
        out.cleanup()
    }

    fn canonical_signature(sig: &SimVector) -> (Vec<u64>, bool) {
        let words = sig.words();
        let complement = words.first().is_some_and(|w| w & 1 == 1);
        if complement {
            let mut c = sig.clone();
            c.not_assign();
            (c.words().to_vec(), true)
        } else {
            (words.to_vec(), false)
        }
    }

    const SIM_PATTERNS: usize = 1024;
    const SIM_SEED: u64 = 0x5EED_CEC0;

    pub fn check_equivalence(left: &Aig, right: &Aig) -> Equivalence {
        let mut miter = Aig::new();
        let _ = miter.add_inputs("x", left.num_inputs());
        let left_outputs = import_into(&mut miter, &left.cleanup());
        let right_outputs = import_into(&mut miter, &right.cleanup());
        let pairs: Vec<(Edge, Edge)> = left_outputs
            .into_iter()
            .zip(right_outputs)
            .filter(|(a, b)| a != b)
            .collect();
        if pairs.is_empty() {
            return Equivalence::Equivalent;
        }

        let patterns = sim_patterns(miter.num_inputs());
        let signatures = miter.simulate_nodes(&patterns);
        for &(a, b) in &pairs {
            if let Some(k) = first_difference(&signatures, a, b) {
                let inputs = Assignment::from_bits(patterns.iter().map(|p| p.bit(k)));
                return counterexample(left, right, inputs);
            }
        }

        let mut cnf = AigCnf::new(&miter);
        sweep(&miter, &signatures, &mut cnf);
        for (a, b) in pairs {
            if !prove_equal(&mut cnf, a, b) {
                return counterexample(left, right, cnf.model_inputs());
            }
        }
        Equivalence::Equivalent
    }

    fn import_into(miter: &mut Aig, aig: &Aig) -> Vec<Edge> {
        let mut map: Vec<Edge> = (0..=aig.num_inputs())
            .map(|i| Edge::from_code(i as u32 * 2))
            .collect();
        let edge = |map: &[Edge], e: Edge| map[e.node().index()].complement_if(e.is_complemented());
        for (_, a, b) in aig.ands() {
            let (na, nb) = (edge(&map, a), edge(&map, b));
            map.push(miter.and(na, nb));
        }
        aig.outputs().iter().map(|(e, _)| edge(&map, *e)).collect()
    }

    fn sim_patterns(inputs: usize) -> Vec<SimVector> {
        let mut state = SIM_SEED;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..inputs)
            .map(|_| {
                let words = (0..SIM_PATTERNS / 64).map(|_| next()).collect();
                SimVector::from_words(words, SIM_PATTERNS)
            })
            .collect()
    }

    fn first_difference(signatures: &[SimVector], a: Edge, b: Edge) -> Option<usize> {
        let flip = if a.is_complemented() == b.is_complemented() {
            0
        } else {
            u64::MAX
        };
        let (wa, wb) = (
            signatures[a.node().index()].words(),
            signatures[b.node().index()].words(),
        );
        wa.iter().zip(wb).enumerate().find_map(|(k, (x, y))| {
            let diff = x ^ y ^ flip;
            (diff != 0).then(|| k * 64 + diff.trailing_zeros() as usize)
        })
    }

    fn sweep(miter: &Aig, signatures: &[SimVector], cnf: &mut AigCnf) {
        use std::collections::hash_map::Entry;
        let mut classes: HashMap<Vec<u64>, Edge> = HashMap::new();
        let canonical = |node: usize| {
            let words = signatures[node].words();
            let phase = words.first().is_some_and(|w| w & 1 == 1);
            let key: Vec<u64> = words.iter().map(|w| if phase { !w } else { *w }).collect();
            (key, Edge::new(NodeId::from_index(node), phase))
        };
        for node in 0..=miter.num_inputs() {
            let (key, edge) = canonical(node);
            classes.entry(key).or_insert(edge);
        }
        for (n, _, _) in miter.ands() {
            let (key, edge) = canonical(n.index());
            match classes.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(edge);
                }
                Entry::Occupied(rep) => {
                    prove_equal(cnf, edge, *rep.get());
                }
            }
        }
    }

    fn prove_equal(cnf: &mut AigCnf, a: Edge, b: Edge) -> bool {
        let selector = cnf.add_difference_selector(a, b);
        if cnf.solve_with_assumptions(&[selector]) == SolveResult::Sat {
            return false;
        }
        cnf.assert_equal(a, b);
        true
    }

    fn counterexample(left: &Aig, right: &Aig, inputs: Assignment) -> Equivalence {
        let bits: Vec<bool> = inputs.iter().collect();
        let output = left
            .eval_bits(&bits)
            .iter()
            .zip(&right.eval_bits(&bits))
            .position(|(a, b)| a != b)
            .expect("counterexample of the miter must distinguish some output");
        Equivalence::Counterexample(Counterexample { inputs, output })
    }
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }

    fn pick(&mut self, pool: &[Edge]) -> Edge {
        pool[self.below(pool.len() as u64) as usize].complement_if(self.below(3) == 0)
    }
}

/// A structurally new copy of the cone of `root`, equal to it. A gate
/// whose fanins are both unchanged becomes `(a & b) & (a | b)`, a new
/// node equal to it, so every gate above it is new as well.
fn copy_cone(g: &mut Aig, root: Edge, memo: &mut Vec<Option<Edge>>) -> Edge {
    let node = root.node();
    if !g.is_and(node) {
        return root;
    }
    if memo.len() < g.node_count() {
        memo.resize(g.node_count(), None);
    }
    let copy = match memo[node.index()] {
        Some(copy) => copy,
        None => {
            let [a, b] = g.fanins(node);
            let (ca, cb) = (copy_cone(g, a, memo), copy_cone(g, b, memo));
            let copy = if (ca, cb) == (a, b) {
                let inner = g.and(a, b);
                let or = g.or(a, b);
                g.and(inner, or)
            } else {
                g.and(ca, cb)
            };
            memo[node.index()] = Some(copy);
            copy
        }
    };
    copy.complement_if(root.is_complemented())
}

/// The conjunction of every input at a random polarity: one minterm.
fn minterm(g: &mut Aig, inputs: &[Edge], rng: &mut Rng) -> Edge {
    let literals: Vec<Edge> = inputs
        .iter()
        .map(|&x| x.complement_if(rng.below(2) == 0))
        .collect();
    g.and_many(&literals)
}

/// A random graph with planted equal, complement-equal and near-miss
/// copies of its cones; `scale` multiplies its size.
fn planted(seed: u64, scale: usize) -> Aig {
    let mut rng = Rng(seed);
    let n = 14 + rng.below(6) as usize;
    let mut g = Aig::new();
    let inputs = g.add_inputs("x", n);
    let mut pool = inputs.clone();
    let mut memo = Vec::new();
    for _ in 0..scale * (30 + rng.below(40) as usize) {
        let (a, b) = (rng.pick(&pool), rng.pick(&pool));
        let e = match rng.below(8) {
            0 | 1 => g.and(a, b),
            2 => g.or(a, b),
            3 => g.xor(a, b),
            4 => {
                let c = rng.pick(&pool);
                g.mux(a, b, c)
            }
            5 => copy_cone(&mut g, a, &mut memo),
            6 => {
                // Complement-equal: the node computes !f.
                let f = copy_cone(&mut g, a, &mut memo);
                let fb = g.and(f, b);
                g.and(!f, !fb)
            }
            _ => {
                // Near miss: equal to `a` except on one minterm.
                let copy = copy_cone(&mut g, a, &mut memo);
                let m = minterm(&mut g, &inputs, &mut rng);
                g.xor(copy, m)
            }
        };
        if g.is_and(e.node()) {
            pool.push(e);
        }
    }
    let outputs = 3 + rng.below(6) as usize;
    for k in 0..outputs {
        let e = pool[pool.len() - 1 - rng.below(pool.len().min(40) as u64) as usize];
        g.add_output(e, format!("y{k}"));
    }
    g
}

/// `a < b` over two 12-bit words, rippled from the least significant
/// bit (`lsb_first`) or from the most significant one.
fn less_than(g: &mut Aig, a: &[Edge], b: &[Edge], lsb_first: bool) -> Edge {
    if lsb_first {
        let mut lt = Edge::FALSE;
        for (&x, &y) in a.iter().zip(b) {
            let bit_lt = g.and(!x, y);
            let eq = g.xnor(x, y);
            let keep = g.and(eq, lt);
            lt = g.or(bit_lt, keep);
        }
        lt
    } else {
        let (mut lt, mut eq) = (Edge::FALSE, Edge::TRUE);
        for (&x, &y) in a.iter().zip(b).rev() {
            let bit_lt = g.and(!x, y);
            let here = g.and(eq, bit_lt);
            lt = g.or(lt, here);
            let same = g.xnor(x, y);
            eq = g.and(eq, same);
        }
        lt
    }
}

/// Two 12-bit comparators over shared inputs: the second is built the
/// other way round and has the minterm of `seed` flipped.
fn comparators(seed: u64) -> (Aig, Aig) {
    let mut rng = Rng(seed);
    let build = |flip: Option<u64>| {
        let mut g = Aig::new();
        let x = g.add_inputs("x", 24);
        let (a, b) = x.split_at(12);
        let lt = less_than(&mut g, a, b, flip.is_none());
        let y = match flip {
            None => lt,
            Some(bits) => {
                let literals: Vec<Edge> = x
                    .iter()
                    .enumerate()
                    .map(|(i, &e)| e.complement_if(bits >> i & 1 == 0))
                    .collect();
                let m = g.and_many(&literals);
                g.xor(lt, m)
            }
        };
        g.add_output(y, "lt");
        g
    };
    (build(None), build(Some(rng.below(1 << 24))))
}

/// Both comparators as outputs of one graph, for fraig.
fn comparator_pair(seed: u64) -> Aig {
    let (left, right) = comparators(seed);
    let mut g = Aig::new();
    let x = g.add_inputs("x", 24);
    for side in [&left, &right] {
        let mut map: Vec<Edge> = std::iter::once(Edge::FALSE)
            .chain(x.iter().copied())
            .collect();
        for (_, a, b) in side.ands() {
            let fanin = |e: Edge| map[e.node().index()].complement_if(e.is_complemented());
            let (na, nb) = (fanin(a), fanin(b));
            map.push(g.and(na, nb));
        }
        let (y, _) = &side.outputs()[0];
        g.add_output(
            map[y.node().index()].complement_if(y.is_complemented()),
            "lt",
        );
    }
    g
}

/// `g` with one output XORed with a minterm: differs on one pattern.
fn near_miss(g: &Aig, seed: u64) -> Aig {
    let mut rng = Rng(seed);
    let mut h = g.clone();
    let inputs: Vec<Edge> = (0..h.num_inputs()).map(|i| h.input_edge(i)).collect();
    let m = minterm(&mut h, &inputs, &mut rng);
    let position = rng.below(h.num_outputs() as u64) as usize;
    let y = h.output_edge(position);
    let flipped = h.xor(y, m);
    h.set_output_unchecked(position, flipped);
    h
}

fn assert_fraig_matches(g: &Aig, what: &str) -> Aig {
    let config = FraigConfig::default();
    let ours = fraig(g, &config);
    assert_eq!(
        ours.to_aiger_ascii(),
        reference::fraig(g, &config).to_aiger_ascii(),
        "{what}: fraig differs from the reference"
    );
    ours
}

fn assert_cec_matches(left: &Aig, right: &Aig, what: &str) -> Equivalence {
    let (ours, _) = check_equivalence_with_stats(left, right);
    let theirs = reference::check_equivalence(left, right);
    assert_eq!(
        ours.is_equivalent(),
        theirs.is_equivalent(),
        "{what}: verdicts differ"
    );
    for verdict in [&ours, &theirs] {
        if let Some(cex) = verdict.counterexample() {
            let bits: Vec<bool> = cex.inputs.iter().collect();
            assert_ne!(
                left.eval_bits(&bits)[cex.output],
                right.eval_bits(&bits)[cex.output],
                "{what}: counterexample does not distinguish output {}",
                cex.output
            );
        }
    }
    ours
}

fn check_planted(seeds: std::ops::Range<u64>, scale: usize) {
    for seed in seeds {
        let g = planted(seed, scale);
        let what = format!("planted seed {seed}");
        let reduced = assert_fraig_matches(&g, &what);
        assert!(assert_cec_matches(&g, &reduced, &what).is_equivalent());
        assert_cec_matches(&g, &near_miss(&g, seed), &format!("{what} near miss"));
    }
}

#[test]
fn planted_cones_match_the_reference() {
    check_planted(0..12, 1);
}

#[test]
#[ignore = "larger randomized sweep; run in CI with --include-ignored"]
fn planted_cones_match_the_reference_at_scale() {
    check_planted(1000..1150, 3);
}

#[test]
fn near_miss_comparators_match_the_reference() {
    for seed in 0..4 {
        let what = format!("comparators seed {seed}");
        let (left, right) = comparators(seed);
        let verdict = assert_cec_matches(&left, &right, &what);
        assert!(!verdict.is_equivalent(), "{what}: one minterm differs");
        let both = comparator_pair(seed);
        let reduced = assert_fraig_matches(&both, &what);
        assert!(assert_cec_matches(&both, &reduced, &what).is_equivalent());
    }
}

/// case_12's learned cover before optimization, learned the way the
/// workload benchmark learns it.
fn case_12_raw_cover() -> Aig {
    let case = contest_suite()
        .into_iter()
        .find(|c| c.name == "case_12")
        .expect("case_12 is in the suite");
    let mut oracle = case.build();
    let mut config = LearnerConfig::fast();
    config.time_budget = Duration::from_secs(600);
    config.max_queries = Some(3_000_000);
    config.optimize = None;
    Learner::new(config).learn(&mut oracle).circuit
}

#[test]
fn case_12_matches_the_reference_with_few_sat_answers() {
    let raw = case_12_raw_cover();
    let reduced = assert_fraig_matches(&raw, "case_12");
    assert!(assert_cec_matches(&raw, &reduced, "case_12").is_equivalent());
    // Each sweep answers most candidate pairs that differ from its
    // counterexamples instead of the solver: 106 and 120 solver calls
    // answered SAT when no counterexample was kept.
    let (_, fraig_stats) = fraig_with_stats(&raw, &FraigConfig::default());
    let (_, cec_stats) = check_equivalence_with_stats(&raw, &reduced);
    assert!(
        fraig_stats.disproved <= 20,
        "fraig on case_12: {fraig_stats:?}"
    );
    assert!(cec_stats.disproved <= 20, "CEC on case_12: {cec_stats:?}");
}
