//! Functional reduction of AIGs (fraiging).
//!
//! The fraig transformation [Mishchenko et al., 2005] merges nodes that
//! compute the same function (up to complement). Candidate equivalences
//! are discovered by random bit-parallel simulation; every merge is then
//! *proved* by a SAT equivalence query, so the transformation is exact.
//! The proving is [`Sweep`]: topological order, one incremental CNF, and
//! no solver call for a pair an earlier counterexample already separates.
//!
//! The paper relies on ABC's fraiging to remove the isomorphic subtrees
//! an FBDT necessarily duplicates (a tree shares nothing); this pass is
//! what makes the tree-shaped learner output competitive in gate count.

use cirlearn_aig::{Aig, Edge};
use cirlearn_logic::SimVector;
use cirlearn_sat::{Sweep, SweepStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for [`fraig`].
#[derive(Debug, Clone)]
pub struct FraigConfig {
    /// Number of random simulation patterns used to form candidate
    /// equivalence classes.
    pub patterns: usize,
    /// Seed for the simulation patterns.
    pub seed: u64,
    /// Upper bound on SAT solver calls (guards runtime on huge graphs);
    /// candidates the sweep reaches after the budget is spent are left
    /// unmerged. A candidate an earlier counterexample already rules
    /// out costs no call.
    pub max_sat_queries: usize,
}

impl Default for FraigConfig {
    fn default() -> Self {
        FraigConfig {
            patterns: 2048,
            seed: 0xF4A16,
            max_sat_queries: 50_000,
        }
    }
}

/// Merges functionally equivalent nodes, returning the reduced AIG.
///
/// Nodes whose simulation signatures coincide (up to complement) become
/// merge candidates; a candidate is merged only after a SAT proof of
/// equivalence, so the output is always functionally identical to the
/// input. Classes hold the constant and the inputs too, so a node equal
/// to a constant or to an input is merged onto it. The result is a pure
/// function of the graph and `config`, also when the query budget binds.
///
/// # Examples
///
/// ```
/// use cirlearn_aig::Aig;
/// use cirlearn_synth::{fraig, FraigConfig};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// // Two structurally different XOR implementations.
/// let x1 = aig.xor(a, b);
/// let or = aig.or(a, b);
/// let nand = !aig.and(a, b);
/// let x2 = aig.and(or, nand);
/// let y = aig.and(x1, x2); // = x1 = x2
/// aig.add_output(y, "y");
/// let reduced = fraig(&aig, &FraigConfig::default());
/// assert!(reduced.gate_count() < aig.gate_count());
/// ```
pub fn fraig(aig: &Aig, config: &FraigConfig) -> Aig {
    fraig_with_stats(aig, config).0
}

/// [`fraig`], also returning what its sweep did: the candidate pairs the
/// solver proved and disproved, and the ones a stored counterexample
/// separated without a solver call.
pub fn fraig_with_stats(aig: &Aig, config: &FraigConfig) -> (Aig, SweepStats) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let patterns = config.patterns.max(64);
    let inputs: Vec<SimVector> = (0..aig.num_inputs())
        .map(|_| SimVector::random(patterns, &mut rng))
        .collect();
    let signatures = aig.simulate_nodes(&inputs);
    let mut sweep = Sweep::new(aig);
    let merged = sweep.merge_classes(&signatures, config.max_sat_queries);

    // Rebuild with substitutions.
    let mut out = Aig::with_inputs_like(aig);
    let mut map: Vec<Edge> = vec![Edge::FALSE; aig.node_count()];
    for (i, m) in map.iter_mut().enumerate().take(aig.num_inputs() + 1) {
        *m = Edge::from_code(i as u32 * 2);
    }
    for (n, a, b) in aig.ands() {
        let new_edge = if let Some(target) = merged[n.index()] {
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
    (out.cleanup(), sweep.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_sat::check_equivalence;

    #[test]
    fn merges_duplicate_xor_structures() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let x1 = g.xor(a, b);
        let or = g.or(a, b);
        let nand = !g.and(a, b);
        let x2 = g.and(or, nand);
        let y = g.or(x1, x2);
        g.add_output(y, "y");
        let r = fraig(&g, &FraigConfig::default());
        assert!(check_equivalence(&g, &r).is_equivalent());
        // y == xor(a, b): 3 AND nodes suffice.
        assert!(r.gate_count() <= 3, "gate_count = {}", r.gate_count());
    }

    #[test]
    fn detects_constant_nodes() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        // (a & b) & (!a | !b) == 0, built without the trivial rule firing.
        let ab = g.and(a, b);
        let n = g.or(!a, !b);
        let zero = g.and(ab, n);
        let y = g.or(zero, b); // == b
        g.add_output(y, "y");
        let r = fraig(&g, &FraigConfig::default());
        assert!(check_equivalence(&g, &r).is_equivalent());
        assert_eq!(r.gate_count(), 0, "y should collapse to input b");
    }

    #[test]
    fn merges_complement_pairs() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let xor = g.xor(a, b);
        // xnor built separately (not as !xor).
        let ab = g.and(a, b);
        let nanb = g.and(!a, !b);
        let xnor = g.or(ab, nanb);
        let f = g.and(xor, xnor); // constant 0
        g.add_output(f, "y");
        let r = fraig(&g, &FraigConfig::default());
        assert!(check_equivalence(&g, &r).is_equivalent());
        assert_eq!(r.gate_count(), 0);
    }

    #[test]
    fn preserves_random_circuits() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..8 {
            let mut g = Aig::new();
            let mut pool: Vec<Edge> = (0..5).map(|i| g.add_input(format!("x{i}"))).collect();
            for _ in 0..30 {
                let a = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.4));
                let b = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.4));
                let n = g.and(a, b);
                pool.push(n);
            }
            for k in 0..3 {
                let e = pool[pool.len() - 1 - k];
                g.add_output(e, format!("y{k}"));
            }
            let r = fraig(
                &g,
                &FraigConfig {
                    patterns: 256,
                    seed: round,
                    max_sat_queries: 10_000,
                },
            );
            assert!(
                check_equivalence(&g, &r).is_equivalent(),
                "round {round}: fraig changed the function"
            );
            assert!(r.gate_count() <= g.gate_count());
        }
    }

    /// Twelve classes of three structurally different XORs of their
    /// own input pair (96 AND nodes), each XOR an output.
    fn xor_classes() -> Aig {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 24);
        for (k, pair) in inputs.chunks(2).enumerate() {
            let (a, b) = (pair[0], pair[1]);
            let x1 = g.xor(a, b);
            let or = g.or(a, b);
            let ab = g.and(a, b);
            let x2 = g.and(or, !ab);
            let ab_again = g.and(a, ab);
            let x3 = g.and(or, !ab_again);
            for (i, x) in [x1, x2, x3].into_iter().enumerate() {
                g.add_output(x, format!("x{k}_{i}"));
            }
        }
        g
    }

    #[test]
    fn binding_query_budget_gives_the_same_graph_every_call() {
        let g = xor_classes();
        assert_eq!(g.gate_count(), 96);
        let config = FraigConfig {
            max_sat_queries: 5,
            ..FraigConfig::default()
        };
        let (first, stats) = fraig_with_stats(&g, &config);
        assert_eq!(stats.solver_calls(), 5);
        assert!(check_equivalence(&g, &first).is_equivalent());
        assert!(first.gate_count() < g.gate_count());
        let aiger = first.to_aiger_ascii();
        for call in 1..20 {
            assert_eq!(
                fraig(&g, &config).to_aiger_ascii(),
                aiger,
                "call {call} merged a different set of candidates"
            );
        }
        // Unbounded, every class collapses to one XOR.
        let (full, stats) = fraig_with_stats(&g, &FraigConfig::default());
        assert_eq!(full.gate_count(), 36);
        assert_eq!(stats.proved, 36);
    }

    #[test]
    fn merges_nodes_onto_equal_inputs() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let ab = g.and(a, b);
        let anb = g.and(a, !b);
        let y = g.or(ab, anb); // == a
        let z = g.and(y, b); // == a & b, once y is a
        g.add_output(y, "y");
        g.add_output(z, "z");
        let r = fraig(&g, &FraigConfig::default());
        assert!(check_equivalence(&g, &r).is_equivalent());
        assert_eq!(r.output_edge(0), r.input_edge(0));
        assert_eq!(r.gate_count(), 1);
    }

    #[test]
    fn idempotent_on_reduced_graphs() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let y = g.xor(a, b);
        g.add_output(y, "y");
        let r1 = fraig(&g, &FraigConfig::default());
        let r2 = fraig(&r1, &FraigConfig::default());
        assert_eq!(r1.gate_count(), r2.gate_count());
    }
}
