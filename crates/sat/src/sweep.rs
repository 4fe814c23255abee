//! Counterexample-guided SAT sweeping, shared by fraiging and by
//! [`check_equivalence`](crate::check_equivalence).
//!
//! A sweep walks the constant, the primary inputs and the AND nodes of
//! one AIG in topological order and groups them by simulation signature
//! up to complement; the first node of a class is its representative.
//! Each later AND node of a class is a candidate for being equal to the
//! representative. A candidate pair goes to the solver only if no model
//! found so far already tells the two apart: every satisfying model is
//! simulated through the graph into a block of counterexamples, and a
//! pair that the block separates is one the solver would answer `Sat`
//! for anyway. An `Unsat` answer records the merge and pins the equality
//! in the one incremental [`AigCnf`], so later queries are mostly
//! propagation.

use std::collections::HashMap;

use cirlearn_aig::{Aig, Edge, NodeId};
use cirlearn_logic::Assignment;

use crate::{AigCnf, SolveResult};

/// What a sweep did with the node pairs it looked at.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Pairs the solver proved equal (it answered `Unsat`).
    pub proved: usize,
    /// Pairs the solver told apart (it answered `Sat`).
    pub disproved: usize,
    /// Pairs a stored counterexample already told apart, with no
    /// solver call.
    pub skipped: usize,
}

impl SweepStats {
    /// The number of solver calls: pairs proved plus pairs disproved.
    pub fn solver_calls(&self) -> usize {
        self.proved + self.disproved
    }
}

/// SAT sweeping of one AIG on a single incremental CNF, keeping every
/// counterexample the solver returns.
///
/// # Examples
///
/// ```
/// use cirlearn_aig::Aig;
/// use cirlearn_sat::Sweep;
///
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let x1 = aig.xor(a, b);
/// let or = aig.or(a, b);
/// let nand = !aig.and(a, b);
/// let x2 = aig.and(or, nand);
/// let mut sweep = Sweep::new(&aig);
/// assert!(sweep.prove_equal(x1, x2).is_ok());
/// // xor(a, b) differs from a exactly where b = 1.
/// let cex = sweep.prove_equal(x1, a).expect_err("xor is not a");
/// assert!(cex.iter().nth(1) == Some(true));
/// assert_eq!(sweep.stats().solver_calls(), 2);
/// ```
#[derive(Debug)]
pub struct Sweep<'a> {
    aig: &'a Aig,
    cnf: AigCnf,
    cexes: CexBlock,
    stats: SweepStats,
}

impl<'a> Sweep<'a> {
    /// Encodes `aig` for sweeping, with no counterexample stored yet.
    pub fn new(aig: &'a Aig) -> Self {
        Sweep {
            aig,
            cnf: AigCnf::new(aig),
            cexes: CexBlock::new(aig.node_count()),
            stats: SweepStats::default(),
        }
    }

    /// Proves each AND node equal to the representative of its signature
    /// class where it is, and returns the merges: entry `n` is the
    /// representative edge node `n` was proven equal to, or `None`.
    ///
    /// `signatures` holds one simulation column per node (as
    /// [`Aig::simulate_nodes`] returns them). Classes are formed by
    /// signature up to complement over the constant, the inputs and the
    /// AND nodes, in topological order; only AND nodes are ever merged.
    /// A class is never re-split: a node a counterexample separates from
    /// its representative stays unmerged. After `max_solver_calls`
    /// solver calls the remaining candidates stay unmerged too.
    ///
    /// # Panics
    ///
    /// Panics if `signatures` does not hold one column per node.
    pub fn merge_classes(
        &mut self,
        signatures: &[Assignment],
        max_solver_calls: usize,
    ) -> Vec<Option<Edge>> {
        let nodes = self.aig.node_count();
        assert_eq!(signatures.len(), nodes, "one signature per node");
        let width = signatures.first().map_or(0, |s| s.words().len());
        let tail = match signatures.first().map_or(0, Assignment::len) % 64 {
            0 => !0,
            bits => (1u64 << bits) - 1,
        };
        // Complement-normalised signatures (pattern 0 reads 0), flat.
        let mut canonical: Vec<u64> = Vec::with_capacity(nodes * width);
        let mut phases: Vec<bool> = Vec::with_capacity(nodes);
        for signature in signatures {
            let words = signature.words();
            let phase = words.first().is_some_and(|w| w & 1 == 1);
            let flip = if phase { !0 } else { 0 };
            canonical.extend(words.iter().map(|w| w ^ flip));
            if let Some(last) = canonical.last_mut().filter(|_| width > 0) {
                *last &= tail;
            }
            phases.push(phase);
        }

        let mut classes: HashMap<&[u64], Edge> = HashMap::with_capacity(nodes);
        let mut merges = vec![None; nodes];
        for (index, &phase) in phases.iter().enumerate() {
            let node = NodeId::from_index(index);
            let key = &canonical[index * width..(index + 1) * width];
            let edge = Edge::new(node, phase);
            let representative = *classes.entry(key).or_insert(edge);
            if representative == edge || !self.aig.is_and(node) {
                continue;
            }
            let candidate = Edge::new(node, false);
            let target = representative.complement_if(phase);
            if self.separated(candidate, target).is_some() {
                continue;
            }
            if self.stats.solver_calls() >= max_solver_calls {
                break;
            }
            if self.solve(candidate, target) {
                merges[index] = Some(target);
            }
        }
        merges
    }

    /// Decides whether edges `a` and `b` are equal. `Ok` means proven
    /// equal, and the equality is pinned for later queries; `Err` holds
    /// an input assignment under which they differ, taken from the
    /// stored counterexamples when one separates them and from the
    /// solver otherwise.
    pub fn prove_equal(&mut self, a: Edge, b: Edge) -> Result<(), Assignment> {
        let model = match self.separated(a, b) {
            Some(model) => model,
            None if self.solve(a, b) => return Ok(()),
            None => self.cexes.models - 1,
        };
        Err(self.cexes.inputs(model, self.aig.num_inputs()))
    }

    /// The counts of pairs proved, disproved and skipped so far.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// The first stored counterexample that separates `a` and `b`,
    /// counted as a skipped pair.
    fn separated(&mut self, a: Edge, b: Edge) -> Option<usize> {
        let model = self.cexes.separating(a, b)?;
        self.stats.skipped += 1;
        Some(model)
    }

    /// One difference-selector solve. On `Unsat` pins `a == b` and
    /// returns `true`; on `Sat` stores the model and returns `false`.
    fn solve(&mut self, a: Edge, b: Edge) -> bool {
        let selector = self.cnf.add_difference_selector(a, b);
        match self.cnf.solve_with_assumptions(&[selector]) {
            SolveResult::Unsat => {
                self.cnf.assert_equal(a, b);
                self.stats.proved += 1;
                true
            }
            SolveResult::Sat => {
                self.cexes
                    .push_model(self.aig, self.cnf.model_inputs().iter());
                self.stats.disproved += 1;
                false
            }
        }
    }
}

/// Every counterexample found so far, simulated through the graph.
///
/// Model `k` is bit `k % 64` of column `k / 64`, and a column holds one
/// word per node, so the block is one word per node per 64 models. The
/// bits past the last model hold the simulation of the all-zero input,
/// which no solver call returned: they are masked off whenever the block
/// is read, so the block separates a pair only by a stored model.
#[derive(Debug)]
struct CexBlock {
    nodes: usize,
    columns: Vec<u64>,
    models: usize,
}

impl CexBlock {
    fn new(nodes: usize) -> Self {
        CexBlock {
            nodes,
            columns: Vec::new(),
            models: 0,
        }
    }

    /// Stores the model with primary-input values `inputs` and simulates
    /// its column through `aig`.
    fn push_model(&mut self, aig: &Aig, inputs: impl Iterator<Item = bool>) {
        let bit = self.models % 64;
        if bit == 0 {
            self.columns.resize(self.columns.len() + self.nodes, 0);
        }
        let start = self.columns.len() - self.nodes;
        let column = &mut self.columns[start..];
        for (word, value) in column[1..=aig.num_inputs()].iter_mut().zip(inputs) {
            *word |= u64::from(value) << bit;
        }
        let value = |column: &[u64], e: Edge| {
            column[e.node().index()] ^ if e.is_complemented() { !0 } else { 0 }
        };
        for (n, a, b) in aig.ands() {
            column[n.index()] = value(column, a) & value(column, b);
        }
        self.models += 1;
    }

    /// The first stored model on which edges `a` and `b` differ.
    fn separating(&self, a: Edge, b: Edge) -> Option<usize> {
        let flip = if a.is_complemented() == b.is_complemented() {
            0
        } else {
            !0
        };
        let (a, b) = (a.node().index(), b.node().index());
        self.columns
            .chunks_exact(self.nodes)
            .enumerate()
            .find_map(|(c, column)| {
                let valid = match self.models - 64 * c {
                    filled @ 1..=63 => (1u64 << filled) - 1,
                    _ => !0,
                };
                let diff = (column[a] ^ column[b] ^ flip) & valid;
                (diff != 0).then(|| 64 * c + diff.trailing_zeros() as usize)
            })
    }

    /// The primary-input values of stored model `k`.
    fn inputs(&self, k: usize, num_inputs: usize) -> Assignment {
        let column = &self.columns[k / 64 * self.nodes..][..self.nodes];
        Assignment::from_bits(
            column[1..=num_inputs]
                .iter()
                .map(|w| w >> (k % 64) & 1 == 1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inputs `a`, `b`, `c` and the node `a & b`.
    fn and_graph() -> (Aig, [Edge; 3], Edge) {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let ab = g.and(a, b);
        (g, [a, b, c], ab)
    }

    fn block_of(g: &Aig, models: &[[bool; 3]]) -> CexBlock {
        let mut block = CexBlock::new(g.node_count());
        for m in models {
            block.push_model(g, m.iter().copied());
        }
        block
    }

    #[test]
    fn partly_filled_column_does_not_separate_a_complemented_pair() {
        let (g, [a, ..], ab) = and_graph();
        // On the one model, a=1 and b=0, `ab` and `!a` both read 0. The
        // column's 63 empty bits simulate the all-zero input, where
        // `ab` reads 0 but `!a` reads 1: read as models, they would
        // separate a pair that agrees on every stored model.
        let block = block_of(&g, &[[true, false, false]]);
        assert_eq!(block.separating(ab, !a), None);
        assert_eq!(block.separating(!ab, a), None);
        assert_eq!(block.separating(ab, a), Some(0));
        assert_eq!(block.separating(!ab, !a), Some(0));
    }

    #[test]
    fn models_at_column_boundaries_are_all_read() {
        let (g, [a, b, c], ab) = and_graph();
        for count in [63, 64, 65] {
            // Every model but the last has a=b=1, c=0 (ab == a there);
            // the last has a=1, b=0, c=1, the only one separating ab
            // from a. Every model has c == !b.
            let mut models = vec![[true, true, false]; count - 1];
            models.push([true, false, true]);
            let block = block_of(&g, &models);
            assert_eq!(block.models, count);
            assert_eq!(block.columns.len(), count.div_ceil(64) * g.node_count());
            assert_eq!(block.separating(ab, a), Some(count - 1), "{count} models");
            assert_eq!(block.separating(!ab, !a), Some(count - 1), "{count} models");
            assert_eq!(block.separating(ab, ab), None, "{count} models");
            assert_eq!(block.separating(c, !b), None, "{count} models");
            assert_eq!(block.separating(ab, !a), Some(0), "{count} models");
            let bits: Vec<bool> = block.inputs(count - 1, 3).iter().collect();
            assert_eq!(bits, vec![true, false, true]);
            let bits: Vec<bool> = block.inputs(count - 2, 3).iter().collect();
            assert_eq!(bits, vec![true, true, false]);
        }
    }

    #[test]
    fn sat_answers_pin_nothing_and_feed_the_block() {
        let (g, [a, ..], ab) = and_graph();
        let mut sweep = Sweep::new(&g);
        let cex = sweep.prove_equal(ab, a).expect_err("a & b differs from a");
        let bits: Vec<bool> = cex.iter().collect();
        assert!(bits[0] && !bits[1], "a=1, b=0 is the only difference");
        assert_eq!(sweep.stats().disproved, 1);
        // No pin: the solver can still make the two differ.
        let selector = sweep.cnf.add_difference_selector(ab, a);
        assert_eq!(
            sweep.cnf.solve_with_assumptions(&[selector]),
            SolveResult::Sat
        );
        // The same pair, asked again, is answered from the block.
        assert_eq!(sweep.prove_equal(ab, a), Err(cex));
        assert_eq!(
            sweep.stats(),
            SweepStats {
                proved: 0,
                disproved: 1,
                skipped: 1
            }
        );
    }

    #[test]
    fn unsat_answers_pin_the_equality() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let x1 = g.xor(a, b);
        let or = g.or(a, b);
        let nand = !g.and(a, b);
        let x2 = g.and(or, nand);
        let mut sweep = Sweep::new(&g);
        assert_eq!(sweep.prove_equal(x1, x2), Ok(()));
        assert_eq!(sweep.stats().proved, 1);
        // Pinned: no assignment makes them differ, even unassumed.
        let selector = sweep.cnf.add_difference_selector(x1, x2);
        assert_eq!(
            sweep.cnf.solve_with_assumptions(&[selector]),
            SolveResult::Unsat
        );
        assert_eq!(sweep.cnf.solve(), SolveResult::Sat);
    }

    #[test]
    fn classes_merge_equal_and_complement_equal_nodes_onto_the_first() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let x1 = g.xor(a, b); // the node computes xnor
        let or = g.or(a, b);
        let nand = !g.and(a, b);
        let x2 = g.and(or, nand); // xor, as a node
        let t = g.and(a, c);
        let t_or_b = g.or(t, b);
        let dup = g.and(t, t_or_b); // == a & c
                                    // All eight minterms: the signatures are the truth tables.
        let patterns: Vec<Assignment> = [0xAAAA, 0xCCCC, 0xF0F0]
            .map(|w: u64| Assignment::from_words(vec![w * 0x0001_0001_0001_0001], 64))
            .to_vec();
        let signatures = g.simulate_nodes(&patterns);
        let mut sweep = Sweep::new(&g);
        let merges = sweep.merge_classes(&signatures, usize::MAX);
        assert_eq!(
            merges[x2.node().index()],
            Some(x1.complement_if(x2.is_complemented()))
        );
        assert_eq!(merges[dup.node().index()], Some(t));
        assert_eq!(merges[x1.node().index()], None);
        assert!(merges[..=3].iter().all(Option::is_none));
        let stats = sweep.stats();
        assert_eq!(stats.proved, 2);
        assert_eq!(stats.disproved + stats.skipped, 0);
    }
}
