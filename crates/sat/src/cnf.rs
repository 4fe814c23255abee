//! Tseitin encoding of AIGs and SAT-sweeping equivalence checking.

use cirlearn_aig::{Aig, Edge};
use cirlearn_logic::{Assignment, Var};

use crate::{Lit, SolveResult, Solver, Sweep, SweepStats};

/// An incremental CNF encoding of an [`Aig`].
///
/// Every node gets a solver variable; AND nodes are constrained by the
/// usual three Tseitin clauses. The encoding supports repeated
/// equivalence queries under assumptions, which is how fraiging proves
/// (or refutes) candidate node equivalences without rebuilding the CNF.
///
/// # Examples
///
/// ```
/// use cirlearn_aig::Aig;
/// use cirlearn_sat::{AigCnf, SolveResult};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let ab = aig.and(a, b);
/// let ba = aig.and(b, a); // hashed to the same node
/// aig.add_output(ab, "y");
///
/// let mut cnf = AigCnf::new(&aig);
/// let sel = cnf.add_difference_selector(ab, ba);
/// // The two edges are identical, so asserting a difference is UNSAT.
/// assert_eq!(cnf.solve_with_assumptions(&[sel]), SolveResult::Unsat);
/// ```
#[derive(Debug)]
pub struct AigCnf {
    solver: Solver,
    node_lits: Vec<Lit>,
    num_inputs: usize,
}

impl AigCnf {
    /// Encodes the given AIG.
    pub fn new(aig: &Aig) -> Self {
        let mut solver = Solver::new();
        let input_lits: Vec<Lit> = (0..aig.num_inputs()).map(|_| solver.new_var()).collect();
        // Constant node: a fresh variable pinned to false.
        let const_lit = solver.new_var();
        solver.add_clause(&[!const_lit]);
        let mut node_lits = Vec::with_capacity(aig.node_count());
        node_lits.push(const_lit);
        node_lits.extend(input_lits);
        let mut cnf = AigCnf {
            solver,
            node_lits,
            num_inputs: aig.num_inputs(),
        };
        for (_, a, b) in aig.ands() {
            let n = cnf.solver.new_var();
            let (la, lb) = (cnf.lit(a), cnf.lit(b));
            // n <-> la & lb
            cnf.solver.add_clause(&[!n, la]);
            cnf.solver.add_clause(&[!n, lb]);
            cnf.solver.add_clause(&[n, !la, !lb]);
            cnf.node_lits.push(n);
        }
        cnf
    }

    /// Returns the solver literal corresponding to an AIG edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge does not belong to the encoded AIG.
    pub fn lit(&self, edge: Edge) -> Lit {
        let base = self.node_lits[edge.node().index()];
        if edge.is_complemented() {
            !base
        } else {
            base
        }
    }

    /// Permanently asserts that `a` and `b` are equal, with two binary
    /// clauses.
    pub fn assert_equal(&mut self, a: Edge, b: Edge) {
        let (la, lb) = (self.lit(a), self.lit(b));
        self.solver.add_clause(&[!la, lb]);
        self.solver.add_clause(&[la, !lb]);
    }

    /// Creates a selector literal `t` with `t → (e1 ≠ e2)`.
    ///
    /// Solving with assumption `t` asks whether the two edges can
    /// differ: `Unsat` proves them functionally equivalent, `Sat` yields
    /// a distinguishing input via [`AigCnf::model_inputs`]. Because the
    /// constraint is guarded by `t`, it is inert in later queries.
    pub fn add_difference_selector(&mut self, e1: Edge, e2: Edge) -> Lit {
        let t = self.solver.new_var();
        let x = self.solver.new_var();
        let (a, b) = (self.lit(e1), self.lit(e2));
        // x <-> a xor b
        self.solver.add_clause(&[!x, a, b]);
        self.solver.add_clause(&[!x, !a, !b]);
        self.solver.add_clause(&[x, !a, b]);
        self.solver.add_clause(&[x, a, !b]);
        // t -> x
        self.solver.add_clause(&[!t, x]);
        t
    }

    /// Solves the current constraints.
    pub fn solve(&mut self) -> SolveResult {
        self.solver.solve()
    }

    /// Solves under assumptions (typically difference selectors).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solver.solve_with_assumptions(assumptions)
    }

    /// After `Sat`, extracts the primary-input assignment of the model.
    pub fn model_inputs(&self) -> Assignment {
        Assignment::from_bits(
            self.node_lits[1..=self.num_inputs]
                .iter()
                .map(|&l| self.solver.value(l)),
        )
    }
}

/// A concrete witness that two circuits differ: an input assignment and
/// the position of an output that disagrees under it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The distinguishing primary-input assignment.
    pub inputs: Assignment,
    /// The position of (one) output that differs under `inputs`.
    pub output: usize,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "output {} differs on input {}", self.output, self.inputs)
    }
}

/// The verdict of [`check_equivalence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// The two circuits compute the same function on every output.
    Equivalent,
    /// A witness on which some output differs.
    Counterexample(Counterexample),
}

impl Equivalence {
    /// Returns `true` for [`Equivalence::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Equivalence::Equivalent)
    }

    /// Returns the witness, if the circuits differ.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Equivalence::Equivalent => None,
            Equivalence::Counterexample(cex) => Some(cex),
        }
    }
}

/// Patterns in the simulation block that [`check_equivalence`] classes
/// miter nodes by: a multiple of 64, so no signature word is partial.
const SIM_PATTERNS: usize = 1024;

/// Seed of the splitmix64 stream the simulation patterns are drawn from.
const SIM_SEED: u64 = 0x5EED_CEC0;

/// Checks combinational equivalence of two AIGs over the same inputs by
/// SAT sweeping, the way ABC's `cec` does:
///
/// 1. **strash** — the output cones of both circuits are imported into
///    one structurally hashed miter over shared inputs, so identical
///    substructure collapses; an output pair that hashes to one edge is
///    proven without a SAT call;
/// 2. **simulate** — a fixed block of 1,024 pseudo-random patterns runs
///    through the miter, and an output pair that differs on one of
///    them returns that pattern as the counterexample;
/// 3. **sweep** — a [`Sweep`] proves each AND node whose simulation
///    signature matches an earlier node's (up to complement) equal to
///    that representative, in topological order on one incremental CNF,
///    pinning every proven equality; a pair that a counterexample found
///    earlier in the sweep already separates is never sent to the
///    solver;
/// 4. **outputs** — each remaining output pair goes through the same
///    sweep, and the first one that differs yields the counterexample.
///
/// Inputs are matched by position, outputs by position. Every
/// counterexample is re-simulated on `left` and `right`, and its
/// `output` is the first position at which they differ.
///
/// # Panics
///
/// Panics if the two AIGs differ in input or output count.
pub fn check_equivalence(left: &Aig, right: &Aig) -> Equivalence {
    check_equivalence_with_stats(left, right).0
}

/// [`check_equivalence`], also returning what its sweep did: the pairs
/// the solver proved and disproved, and the pairs a stored
/// counterexample separated without a solver call. The counts are zero
/// when strashing or simulation alone decides.
///
/// # Panics
///
/// Panics if the two AIGs differ in input or output count.
pub fn check_equivalence_with_stats(left: &Aig, right: &Aig) -> (Equivalence, SweepStats) {
    assert_eq!(
        left.num_inputs(),
        right.num_inputs(),
        "circuits have different input counts"
    );
    assert_eq!(
        left.num_outputs(),
        right.num_outputs(),
        "circuits have different output counts"
    );
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
        return (Equivalence::Equivalent, SweepStats::default());
    }

    let patterns = sim_patterns(miter.num_inputs());
    let signatures = miter.simulate_nodes(&patterns);
    for &(a, b) in &pairs {
        if let Some(k) = first_difference(&signatures, a, b) {
            let pattern = Var::new(k as u32);
            let inputs = Assignment::from_bits(patterns.iter().map(|p| p.get(pattern)));
            return (counterexample(left, right, inputs), SweepStats::default());
        }
    }

    let mut sweep = Sweep::new(&miter);
    sweep.merge_classes(&signatures, usize::MAX);
    for (a, b) in pairs {
        if let Err(inputs) = sweep.prove_equal(a, b) {
            return (counterexample(left, right, inputs), sweep.stats());
        }
    }
    (Equivalence::Equivalent, sweep.stats())
}

/// Imports `aig` into `miter`, whose inputs are `aig`'s by position,
/// and returns the miter edge of each of `aig`'s outputs.
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

/// The fixed simulation block: one column of [`SIM_PATTERNS`] bits per
/// input, drawn from a splitmix64 stream seeded with [`SIM_SEED`].
fn sim_patterns(inputs: usize) -> Vec<Assignment> {
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
            Assignment::from_words(words, SIM_PATTERNS)
        })
        .collect()
}

/// The first pattern on which edges `a` and `b` of the simulated miter
/// differ.
fn first_difference(signatures: &[Assignment], a: Edge, b: Edge) -> Option<usize> {
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

/// The counterexample `inputs` witnesses: the first output at which
/// `left` and `right` differ under it, found by re-simulating both.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_aig() -> Aig {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let y = g.xor(a, b);
        g.add_output(y, "y");
        g
    }

    /// XOR built the "other way": (a|b) & !(a&b).
    fn xor_aig_alt() -> Aig {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let or = g.or(a, b);
        let and = g.and(a, b);
        let y = g.and(or, !and);
        g.add_output(y, "y");
        g
    }

    #[test]
    fn equivalent_structures() {
        assert_eq!(
            check_equivalence(&xor_aig(), &xor_aig_alt()),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn inequivalent_yields_counterexample() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let y = g.or(a, b);
        g.add_output(y, "y");
        let verdict = check_equivalence(&xor_aig(), &g);
        match verdict {
            Equivalence::Counterexample(cex) => {
                // XOR and OR differ exactly on a=b=1, on the only output.
                let bits: Vec<bool> = cex.inputs.iter().collect();
                assert_eq!(bits, vec![true, true]);
                assert_eq!(cex.output, 0);
            }
            Equivalence::Equivalent => panic!("xor and or reported equivalent"),
        }
    }

    #[test]
    fn multi_output_equivalence() {
        let build = |swap: bool| {
            let mut g = Aig::new();
            let a = g.add_input("a");
            let b = g.add_input("b");
            let c = g.add_input("c");
            let s = g.xor(a, b);
            let s2 = g.xor(s, c);
            let maj = {
                let ab = g.and(a, b);
                let ac = g.and(a, c);
                let bc = g.and(b, c);
                let t = g.or(ab, ac);
                g.or(t, bc)
            };
            if swap {
                // Same functions built in a different order.
                g.add_output(s2, "sum");
                g.add_output(maj, "carry");
            } else {
                g.add_output(s2, "sum");
                g.add_output(maj, "carry");
            }
            g
        };
        assert!(check_equivalence(&build(false), &build(true)).is_equivalent());
    }

    #[test]
    fn multi_output_difference_detected() {
        let mut g1 = Aig::new();
        let a = g1.add_input("a");
        g1.add_output(a, "y0");
        g1.add_output(!a, "y1");
        let mut g2 = Aig::new();
        let a2 = g2.add_input("a");
        g2.add_output(a2, "y0");
        g2.add_output(a2, "y1"); // differs on y1
        match check_equivalence(&g1, &g2) {
            Equivalence::Counterexample(cex) => {
                let bits: Vec<bool> = cex.inputs.iter().collect();
                // y1 differs whenever !a != a, i.e. always; any input works.
                assert_eq!(bits.len(), 1);
                assert_eq!(cex.output, 1, "the differing output is y1");
            }
            Equivalence::Equivalent => panic!("should differ"),
        }
    }

    #[test]
    fn constant_circuits() {
        let mut g1 = Aig::new();
        let a = g1.add_input("a");
        let f = g1.and(a, !a); // constant 0
        g1.add_output(f, "y");
        let mut g2 = Aig::new();
        let _ = g2.add_input("a");
        g2.add_output(Edge::FALSE, "y");
        assert!(check_equivalence(&g1, &g2).is_equivalent());
        let mut g3 = Aig::new();
        let _ = g3.add_input("a");
        g3.add_output(Edge::TRUE, "y");
        assert!(!check_equivalence(&g1, &g3).is_equivalent());
    }

    #[test]
    fn difference_selector_is_reusable() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let f1 = g.and(a, b);
        let f2 = g.and(a, !b);
        let or12 = g.or(f1, f2); // = a
        g.add_output(or12, "y");

        let mut cnf = AigCnf::new(&g);
        // a & b differs from a & !b.
        let s1 = cnf.add_difference_selector(f1, f2);
        assert_eq!(cnf.solve_with_assumptions(&[s1]), SolveResult::Sat);
        let cex = cnf.model_inputs();
        let bits: Vec<bool> = cex.iter().collect();
        assert!(bits[0], "difference requires a=1");
        // or12 is equivalent to input a.
        let s2 = cnf.add_difference_selector(or12, a);
        assert_eq!(cnf.solve_with_assumptions(&[s2]), SolveResult::Unsat);
        // First selector still usable afterwards.
        assert_eq!(cnf.solve_with_assumptions(&[s1]), SolveResult::Sat);
        // And the un-assumed solver remains satisfiable.
        assert_eq!(cnf.solve(), SolveResult::Sat);
    }

    #[test]
    fn equivalence_with_counterexample_verified_by_simulation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..20 {
            // Two random 5-input AIGs; compare and verify the verdict by
            // exhaustive simulation.
            let build = |rng: &mut StdRng| {
                let mut g = Aig::new();
                let mut pool: Vec<Edge> = (0..5).map(|i| g.add_input(format!("x{i}"))).collect();
                for _ in 0..15 {
                    let i = rng.gen_range(0..pool.len());
                    let j = rng.gen_range(0..pool.len());
                    let a = pool[i].complement_if(rng.gen_bool(0.5));
                    let b = pool[j].complement_if(rng.gen_bool(0.5));
                    let n = g.and(a, b);
                    pool.push(n);
                }
                let out = *pool.last().expect("nonempty");
                g.add_output(out, "y");
                g
            };
            let g1 = build(&mut rng);
            let g2 = build(&mut rng);
            let verdict = check_equivalence(&g1, &g2);
            let mut truly_equal = true;
            for m in 0..32u32 {
                let bits: Vec<bool> = (0..5).map(|k| m >> k & 1 == 1).collect();
                if g1.eval_bits(&bits) != g2.eval_bits(&bits) {
                    truly_equal = false;
                    break;
                }
            }
            assert_eq!(verdict.is_equivalent(), truly_equal, "round {round}");
            if let Equivalence::Counterexample(cex) = verdict {
                let bits: Vec<bool> = cex.inputs.iter().collect();
                let (o1, o2) = (g1.eval_bits(&bits), g2.eval_bits(&bits));
                assert_ne!(o1, o2, "round {round}: bad cex");
                assert_ne!(
                    o1[cex.output], o2[cex.output],
                    "round {round}: reported output does not differ"
                );
            }
        }
    }
}
