//! The and-inverter graph container.

use std::collections::HashMap;
use std::fmt;

use cirlearn_logic::{Sop, TruthTable};

use crate::{Edge, NodeId};

/// A multi-output and-inverter graph.
///
/// Invariants:
///
/// * node 0 is the constant-false node,
/// * nodes `1..=num_inputs` are primary inputs, created before any AND,
/// * AND nodes are stored in topological order (fanins precede fanouts),
/// * structural hashing guarantees no two AND nodes have the same
///   (ordered) fanin pair.
///
/// # Examples
///
/// ```
/// use cirlearn_aig::Aig;
///
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let c = aig.and(a, b);
/// let c2 = aig.and(b, a); // structurally hashed
/// assert_eq!(c, c2);
/// aig.add_output(c, "y");
/// assert_eq!(aig.gate_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Aig {
    /// Fanins, indexed by node id. Entries for the constant node and the
    /// primary inputs are `[Edge::FALSE; 2]` sentinels and never read.
    fanins: Vec<[Edge; 2]>,
    num_inputs: usize,
    input_names: Vec<String>,
    outputs: Vec<(Edge, String)>,
    strash: HashMap<(u32, u32), u32>,
}

impl Aig {
    /// Creates an empty AIG containing only the constant node.
    pub fn new() -> Self {
        Aig {
            fanins: vec![[Edge::FALSE; 2]],
            num_inputs: 0,
            input_names: Vec::new(),
            outputs: Vec::new(),
            strash: HashMap::new(),
        }
    }

    /// Creates an empty AIG with the same primary inputs (and names) as
    /// `other` — the canvas on which optimization passes rebuild.
    pub fn with_inputs_like(other: &Aig) -> Self {
        let mut aig = Aig::new();
        for name in &other.input_names {
            aig.add_input(name.clone());
        }
        aig
    }

    /// Adds a primary input and returns its (positive) edge.
    ///
    /// # Panics
    ///
    /// Panics if any AND node has already been created; inputs must come
    /// first so ids `1..=num_inputs` are exactly the inputs.
    pub fn add_input(&mut self, name: impl Into<String>) -> Edge {
        assert_eq!(
            self.fanins.len(),
            self.num_inputs + 1,
            "inputs must be added before any AND node"
        );
        self.fanins.push([Edge::FALSE; 2]);
        self.num_inputs += 1;
        self.input_names.push(name.into());
        Edge::new(NodeId(self.num_inputs as u32), false)
    }

    /// Adds `count` anonymous inputs named `prefix0..`, returning their edges.
    pub fn add_inputs(&mut self, prefix: &str, count: usize) -> Vec<Edge> {
        (0..count)
            .map(|i| self.add_input(format!("{prefix}{i}")))
            .collect()
    }

    /// Registers `edge` as a primary output with the given name.
    pub fn add_output(&mut self, edge: Edge, name: impl Into<String>) {
        self.assert_valid(edge);
        debug_assert!(
            edge.node() == NodeId::CONST || self.is_input(edge.node()) || self.is_and(edge.node()),
            "output edge {edge} does not point at a constant, input or AND node"
        );
        self.outputs.push((edge, name.into()));
    }

    /// Returns the AND of two edges, reusing existing structure.
    ///
    /// Applies the trivial simplifications (constants, idempotence,
    /// complementation) before consulting the structural-hash table.
    pub fn and(&mut self, a: Edge, b: Edge) -> Edge {
        self.assert_valid(a);
        self.assert_valid(b);
        // Trivial cases.
        if a == Edge::FALSE || b == Edge::FALSE || a == !b {
            return Edge::FALSE;
        }
        if a == Edge::TRUE {
            return b;
        }
        if b == Edge::TRUE || a == b {
            return a;
        }
        let (a, b) = if a.code() <= b.code() { (a, b) } else { (b, a) };
        if let Some(&node) = self.strash.get(&(a.code(), b.code())) {
            return Edge::new(NodeId(node), false);
        }
        let id = self.fanins.len() as u32;
        debug_assert!(
            a.code() <= b.code(),
            "AND fanins must be stored in canonical (ordered) form"
        );
        debug_assert!(
            a.node().index() < id as usize && b.node().index() < id as usize,
            "AND fanins must precede the node (topological order)"
        );
        self.fanins.push([a, b]);
        self.strash.insert((a.code(), b.code()), id);
        Edge::new(NodeId(id), false)
    }

    /// Returns the OR of two edges.
    pub fn or(&mut self, a: Edge, b: Edge) -> Edge {
        !self.and(!a, !b)
    }

    /// Returns the XOR of two edges (3 AND nodes in the worst case).
    pub fn xor(&mut self, a: Edge, b: Edge) -> Edge {
        let n0 = self.and(a, !b);
        let n1 = self.and(!a, b);
        self.or(n0, n1)
    }

    /// Returns the XNOR of two edges.
    pub fn xnor(&mut self, a: Edge, b: Edge) -> Edge {
        !self.xor(a, b)
    }

    /// Returns `if sel then t else e`.
    pub fn mux(&mut self, sel: Edge, t: Edge, e: Edge) -> Edge {
        let a = self.and(sel, t);
        let b = self.and(!sel, e);
        self.or(a, b)
    }

    /// Returns the conjunction of all edges, as a balanced tree.
    ///
    /// An empty slice yields the constant-true edge.
    pub fn and_many(&mut self, edges: &[Edge]) -> Edge {
        self.balanced(edges, Edge::TRUE, Self::and)
    }

    /// Returns the disjunction of all edges, as a balanced tree.
    ///
    /// An empty slice yields the constant-false edge.
    pub fn or_many(&mut self, edges: &[Edge]) -> Edge {
        self.balanced(edges, Edge::FALSE, Self::or)
    }

    fn balanced(
        &mut self,
        edges: &[Edge],
        unit: Edge,
        mut op: impl FnMut(&mut Self, Edge, Edge) -> Edge,
    ) -> Edge {
        match edges {
            [] => unit,
            [e] => *e,
            _ => {
                let mut layer = edges.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        next.push(if pair.len() == 2 {
                            op(self, pair[0], pair[1])
                        } else {
                            pair[0]
                        });
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    /// Builds an [`Sop`] over this AIG, mapping SOP variable `x_k` to
    /// `var_map[k]`.
    ///
    /// # Panics
    ///
    /// Panics if the SOP mentions a variable with no entry in `var_map`.
    pub fn add_sop(&mut self, sop: &Sop, var_map: &[Edge]) -> Edge {
        let mut cube_edges = Vec::with_capacity(sop.cubes().len());
        for cube in sop.cubes() {
            let lits: Vec<Edge> = cube
                .literals()
                .iter()
                .map(|l| var_map[l.var().index() as usize].complement_if(l.is_negated()))
                .collect();
            cube_edges.push(self.and_many(&lits));
        }
        self.or_many(&cube_edges)
    }

    /// Returns the number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Returns the number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Returns the total number of nodes (constant + inputs + ANDs).
    pub fn node_count(&self) -> usize {
        self.fanins.len()
    }

    /// Returns the number of AND nodes, including dangling ones.
    pub fn and_count(&self) -> usize {
        self.fanins.len() - 1 - self.num_inputs
    }

    /// Returns the number of AND nodes reachable from the outputs — the
    /// circuit-size metric of the contest (2-input gates; inverters are
    /// absorbed into gate polarities).
    pub fn gate_count(&self) -> usize {
        let mut mark = vec![false; self.fanins.len()];
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|(e, _)| e.node()).collect();
        let mut count = 0;
        while let Some(n) = stack.pop() {
            if mark[n.index()] || !self.is_and(n) {
                continue;
            }
            mark[n.index()] = true;
            count += 1;
            stack.push(self.fanins[n.index()][0].node());
            stack.push(self.fanins[n.index()][1].node());
        }
        count
    }

    /// Returns the number of AND nodes in the transitive fanin cone of
    /// the `position`-th output. Cones of different outputs may share
    /// nodes, so the per-output cone sizes can sum to more than
    /// [`Aig::gate_count`].
    ///
    /// # Panics
    ///
    /// Panics if `position ≥ num_outputs`.
    pub fn output_cone_size(&self, position: usize) -> usize {
        let mut mark = vec![false; self.fanins.len()];
        let mut stack = vec![self.outputs[position].0.node()];
        let mut count = 0;
        while let Some(n) = stack.pop() {
            if mark[n.index()] || !self.is_and(n) {
                continue;
            }
            mark[n.index()] = true;
            count += 1;
            stack.push(self.fanins[n.index()][0].node());
            stack.push(self.fanins[n.index()][1].node());
        }
        count
    }

    /// Returns the logic level of every node (inputs and the constant
    /// at level 0; an AND is one above its deepest fanin).
    pub fn node_levels(&self) -> Vec<usize> {
        let mut levels = vec![0usize; self.fanins.len()];
        for i in self.num_inputs + 1..self.fanins.len() {
            let [a, b] = self.fanins[i];
            levels[i] = 1 + levels[a.node().index()].max(levels[b.node().index()]);
        }
        levels
    }

    /// Returns the circuit depth: the maximum logic level over the
    /// outputs (0 for a circuit of wires and constants).
    pub fn depth(&self) -> usize {
        let levels = self.node_levels();
        self.outputs
            .iter()
            .map(|(e, _)| levels[e.node().index()])
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` if `node` is an AND node.
    pub fn is_and(&self, node: NodeId) -> bool {
        node.index() > self.num_inputs && node.index() < self.fanins.len()
    }

    /// Returns `true` if `node` is a primary input.
    pub fn is_input(&self, node: NodeId) -> bool {
        (1..=self.num_inputs).contains(&node.index())
    }

    /// Returns the primary-input position of `node`, if it is an input.
    pub fn input_position(&self, node: NodeId) -> Option<usize> {
        self.is_input(node).then(|| node.index() - 1)
    }

    /// Returns the edge of the `position`-th primary input.
    ///
    /// # Panics
    ///
    /// Panics if `position ≥ num_inputs`.
    pub fn input_edge(&self, position: usize) -> Edge {
        assert!(position < self.num_inputs, "input {position} out of range");
        Edge::new(NodeId(position as u32 + 1), false)
    }

    /// Returns the name of the `position`-th primary input.
    ///
    /// # Panics
    ///
    /// Panics if `position ≥ num_inputs`.
    pub fn input_name(&self, position: usize) -> &str {
        &self.input_names[position]
    }

    /// Returns all input names in input order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Replaces all input names at once (e.g. after parsing a symbol
    /// table).
    ///
    /// # Panics
    ///
    /// Panics if `names.len() != num_inputs`.
    pub fn rename_inputs(&mut self, names: &[String]) {
        assert_eq!(names.len(), self.num_inputs, "wrong name count");
        self.input_names = names.to_vec();
    }

    /// Returns the outputs as `(edge, name)` pairs in output order.
    pub fn outputs(&self) -> &[(Edge, String)] {
        &self.outputs
    }

    /// Returns the edge driving the `position`-th output.
    ///
    /// # Panics
    ///
    /// Panics if `position ≥ num_outputs`.
    pub fn output_edge(&self, position: usize) -> Edge {
        self.outputs[position].0
    }

    /// Returns the fanins of an AND node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an AND node.
    pub fn fanins(&self, node: NodeId) -> [Edge; 2] {
        assert!(self.is_and(node), "{node} is not an AND node");
        self.fanins[node.index()]
    }

    /// Iterates over the AND nodes in topological order as
    /// `(node, fanin0, fanin1)`.
    pub fn ands(&self) -> impl Iterator<Item = (NodeId, Edge, Edge)> + '_ {
        let first = self.num_inputs + 1;
        self.and_fanins()
            .iter()
            .enumerate()
            .map(move |(k, &[a, b])| (NodeId((first + k) as u32), a, b))
    }

    /// The fanin pairs of the AND nodes in topological order: entry `k`
    /// belongs to node `num_inputs + 1 + k`.
    pub(crate) fn and_fanins(&self) -> &[[Edge; 2]] {
        self.fanins.get(self.num_inputs + 1..).unwrap_or_default()
    }

    /// Evaluates all outputs on a single input pattern given as a bit
    /// slice in input order.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != num_inputs`.
    pub fn eval_bits(&self, bits: &[bool]) -> Vec<bool> {
        // panic-ok: documented `# Panics` contract guard, once per
        // evaluation (not per node).
        assert_eq!(bits.len(), self.num_inputs, "wrong input width");
        let mut values = vec![false; self.fanins.len()];
        for (i, &b) in bits.iter().enumerate() {
            // panic-ok: `i < num_inputs ≤ fanins.len() - 1` after the
            // width guard; slot 0 is the constant node.
            values[i + 1] = b;
        }
        for i in self.num_inputs + 1..self.fanins.len() {
            // panic-ok: `i` ranges over `fanins` indices.
            let [a, b] = self.fanins[i];
            // panic-ok: fanin edges point at earlier nodes (the graph
            // is topologically ordered by construction).
            let va = values[a.node().index()] != a.is_complemented();
            // panic-ok: same topological-order invariant.
            let vb = values[b.node().index()] != b.is_complemented();
            // panic-ok: `i < fanins.len() == values.len()`.
            values[i] = va && vb;
        }
        self.outputs
            .iter()
            // panic-ok: output edges point at existing nodes (checked
            // when the output was added).
            .map(|(e, _)| values[e.node().index()] != e.is_complemented())
            .collect()
    }

    /// Removes dangling AND nodes, returning a compacted copy with the
    /// same inputs, outputs and names.
    #[must_use]
    pub fn cleanup(&self) -> Aig {
        let mut keep = vec![false; self.fanins.len()];
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|(e, _)| e.node()).collect();
        while let Some(n) = stack.pop() {
            if keep[n.index()] || !self.is_and(n) {
                continue;
            }
            keep[n.index()] = true;
            stack.push(self.fanins[n.index()][0].node());
            stack.push(self.fanins[n.index()][1].node());
        }
        let mut out = Aig::with_inputs_like(self);
        let mut map: Vec<Edge> = vec![Edge::FALSE; self.fanins.len()];
        for (i, m) in map.iter_mut().enumerate().take(self.num_inputs + 1) {
            *m = Edge::new(NodeId(i as u32), false);
        }
        for i in self.num_inputs + 1..self.fanins.len() {
            if keep[i] {
                let [a, b] = self.fanins[i];
                let na = map[a.node().index()].complement_if(a.is_complemented());
                let nb = map[b.node().index()].complement_if(b.is_complemented());
                map[i] = out.and(na, nb);
            }
        }
        for (e, name) in &self.outputs {
            let ne = map[e.node().index()].complement_if(e.is_complemented());
            out.add_output(ne, name.clone());
        }
        out
    }

    /// Computes the exact truth table of every output by symbolic
    /// simulation with truth-table values.
    ///
    /// # Errors
    ///
    /// Returns an error if the AIG has more than
    /// [`TruthTable::MAX_VARS`] inputs.
    pub fn output_truth_tables(&self) -> cirlearn_logic::Result<Vec<TruthTable>> {
        let n = self.num_inputs;
        let mut values: Vec<TruthTable> = Vec::with_capacity(self.fanins.len());
        values.push(TruthTable::zeros(n)?);
        for i in 0..n {
            values.push(TruthTable::var(n, cirlearn_logic::Var::new(i as u32))?);
        }
        for i in n + 1..self.fanins.len() {
            let [a, b] = self.fanins[i];
            let ta = resolve_tt(&values, a);
            let tb = resolve_tt(&values, b);
            values.push(ta & tb);
        }
        Ok(self
            .outputs
            .iter()
            .map(|(e, _)| resolve_tt(&values, *e))
            .collect())
    }

    /// Overwrites one fanin of an AND node **without** re-hashing or
    /// re-checking any structural invariant.
    ///
    /// This is a fault-injection hook for verification tooling: it lets
    /// tests corrupt a well-formed circuit (flip a complement bit,
    /// redirect an edge, create a duplicate fanin pair) and assert that
    /// the linter and the checked-pass harness catch the damage. The
    /// structural-hash table is intentionally left stale; do not keep
    /// building logic with [`Aig::and`] after calling this.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an AND node or `slot ≥ 2`.
    pub fn set_fanin_unchecked(&mut self, node: NodeId, slot: usize, edge: Edge) {
        assert!(self.is_and(node), "{node} is not an AND node");
        assert!(slot < 2, "fanin slot {slot} out of range");
        self.fanins[node.index()][slot] = edge;
    }

    /// Redirects the `position`-th output **without** validating the new
    /// edge.
    ///
    /// Like [`Aig::set_fanin_unchecked`], this exists so verification
    /// tests can seed corruptions (e.g. an output pointing outside the
    /// graph) that the safe API refuses to construct.
    ///
    /// # Panics
    ///
    /// Panics if `position ≥ num_outputs`.
    pub fn set_output_unchecked(&mut self, position: usize, edge: Edge) {
        self.outputs[position].0 = edge;
    }

    fn assert_valid(&self, e: Edge) {
        assert!(
            e.node().index() < self.fanins.len(),
            "edge {e} refers to a node outside this AIG"
        );
    }
}

fn resolve_tt(values: &[TruthTable], e: Edge) -> TruthTable {
    let t = values[e.node().index()].clone();
    if e.is_complemented() {
        !t
    } else {
        t
    }
}

impl fmt::Display for Aig {
    /// Formats a short statistics line, e.g. `aig: i=3 o=1 and=5`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "aig: i={} o={} and={}",
            self.num_inputs,
            self.outputs.len(),
            self.and_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_and_rules() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        assert_eq!(g.and(a, Edge::FALSE), Edge::FALSE);
        assert_eq!(g.and(Edge::TRUE, a), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Edge::FALSE);
        assert_eq!(g.and_count(), 0);
    }

    #[test]
    fn output_cone_sizes_count_shared_nodes_per_output() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let ab = g.and(a, b);
        let abc = g.and(ab, c);
        g.add_output(ab, "y0");
        g.add_output(abc, "y1");
        g.add_output(a, "y2");
        assert_eq!(g.output_cone_size(0), 1);
        assert_eq!(g.output_cone_size(1), 2);
        assert_eq!(g.output_cone_size(2), 0);
        // Shared nodes count once globally but per output in cones.
        assert_eq!(g.gate_count(), 2);
    }

    #[test]
    fn structural_hashing_is_commutative() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let ab = g.and(a, b);
        assert_eq!(g.and(b, a), ab);
        assert_eq!(g.and(a, b), ab);
        assert_eq!(g.and_count(), 1);
        // Complemented variants are distinct nodes.
        let n = g.and(!a, b);
        assert_ne!(n, ab);
        assert_eq!(g.and_count(), 2);
    }

    #[test]
    #[should_panic(expected = "inputs must be added before")]
    fn inputs_after_ands_panic() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        g.and(a, b);
        g.add_input("late");
    }

    #[test]
    fn eval_basic_gates() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let and = g.and(a, b);
        let or = g.or(a, b);
        let xor = g.xor(a, b);
        let xnor = g.xnor(a, b);
        g.add_output(and, "and");
        g.add_output(or, "or");
        g.add_output(xor, "xor");
        g.add_output(xnor, "xnor");
        for (bits, expect) in [
            ([false, false], [false, false, false, true]),
            ([false, true], [false, true, true, false]),
            ([true, false], [false, true, true, false]),
            ([true, true], [true, true, false, true]),
        ] {
            assert_eq!(g.eval_bits(&bits), expect.to_vec(), "{bits:?}");
        }
    }

    #[test]
    fn mux_semantics() {
        let mut g = Aig::new();
        let s = g.add_input("s");
        let t = g.add_input("t");
        let e = g.add_input("e");
        let m = g.mux(s, t, e);
        g.add_output(m, "m");
        for bits in 0..8u32 {
            let vals = [bits & 1 == 1, bits >> 1 & 1 == 1, bits >> 2 & 1 == 1];
            let expect = if vals[0] { vals[1] } else { vals[2] };
            assert_eq!(g.eval_bits(&vals), vec![expect]);
        }
    }

    #[test]
    fn and_many_or_many() {
        let mut g = Aig::new();
        let edges = g.add_inputs("x", 5);
        let all = g.and_many(&edges);
        let any = g.or_many(&edges);
        g.add_output(all, "all");
        g.add_output(any, "any");
        assert_eq!(g.and_many(&[]), Edge::TRUE);
        assert_eq!(g.or_many(&[]), Edge::FALSE);
        for pattern in 0..32u32 {
            let bits: Vec<bool> = (0..5).map(|i| pattern >> i & 1 == 1).collect();
            let out = g.eval_bits(&bits);
            assert_eq!(out[0], bits.iter().all(|&b| b));
            assert_eq!(out[1], bits.iter().any(|&b| b));
        }
    }

    #[test]
    fn add_sop_matches_semantics() {
        use cirlearn_logic::{Cube, Var};
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 3);
        // x0 & !x1 | x2
        let sop = Sop::from_cubes([
            Cube::from_literals([Var::new(0).positive(), Var::new(1).negative()]).unwrap(),
            Cube::from_literals([Var::new(2).positive()]).unwrap(),
        ]);
        let f = g.add_sop(&sop, &inputs);
        g.add_output(f, "f");
        for m in 0..8u64 {
            let bits: Vec<bool> = (0..3).map(|i| m >> i & 1 == 1).collect();
            let expect = sop.eval_with(|v| m >> v.index() & 1 == 1);
            assert_eq!(g.eval_bits(&bits), vec![expect], "m={m}");
        }
    }

    #[test]
    fn sop_constants() {
        let mut g = Aig::new();
        let _ = g.add_inputs("x", 2);
        let zero = g.add_sop(&Sop::zero(), &[]);
        let one = g.add_sop(&Sop::one(), &[]);
        assert_eq!(zero, Edge::FALSE);
        assert_eq!(one, Edge::TRUE);
    }

    #[test]
    fn gate_count_reachable_only() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let used = g.and(a, b);
        let _dangling = g.and(!a, !b);
        g.add_output(used, "y");
        assert_eq!(g.and_count(), 2);
        assert_eq!(g.gate_count(), 1);
    }

    #[test]
    fn cleanup_removes_dangling_preserves_function() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let used = g.xor(a, b);
        let _dangling = g.and(a, b); // also shared with xor internals
        let _more = g.and(!a, !b);
        g.add_output(used, "y");
        let clean = g.cleanup();
        assert_eq!(clean.num_inputs(), 2);
        assert_eq!(clean.gate_count(), clean.and_count());
        for bits in [[false, false], [false, true], [true, false], [true, true]] {
            assert_eq!(clean.eval_bits(&bits), g.eval_bits(&bits));
        }
        assert_eq!(clean.input_names(), g.input_names());
        assert_eq!(clean.outputs()[0].1, "y");
    }

    #[test]
    fn output_truth_tables_match_eval() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let ab = g.and(a, b);
        let f = g.or(ab, !c);
        g.add_output(f, "f");
        g.add_output(!f, "g");
        let tts = g.output_truth_tables().expect("3 inputs");
        for m in 0..8u64 {
            let bits: Vec<bool> = (0..3).map(|i| m >> i & 1 == 1).collect();
            let ev = g.eval_bits(&bits);
            assert_eq!(tts[0].get(m), ev[0]);
            assert_eq!(tts[1].get(m), ev[1]);
        }
    }

    #[test]
    fn input_accessors() {
        let mut g = Aig::new();
        let a = g.add_input("alpha");
        assert_eq!(g.input_name(0), "alpha");
        assert_eq!(g.input_edge(0), a);
        assert_eq!(g.input_position(a.node()), Some(0));
        assert_eq!(g.input_position(NodeId::CONST), None);
        assert!(g.is_input(a.node()));
        assert!(!g.is_and(a.node()));
    }

    #[test]
    fn display_stats() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let y = g.and(a, b);
        g.add_output(y, "y");
        assert_eq!(g.to_string(), "aig: i=2 o=1 and=1");
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;

    #[test]
    fn depth_of_chain_and_tree() {
        let mut g = Aig::new();
        let x = g.add_inputs("x", 4);
        let mut acc = x[0];
        for &e in &x[1..] {
            acc = g.and(acc, e);
        }
        g.add_output(acc, "chain");
        assert_eq!(g.depth(), 3);
        let mut t = Aig::new();
        let x = t.add_inputs("x", 4);
        let l = t.and(x[0], x[1]);
        let r = t.and(x[2], x[3]);
        let y = t.and(l, r);
        t.add_output(y, "tree");
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn depth_of_wires_is_zero() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        g.add_output(!a, "na");
        g.add_output(Edge::TRUE, "one");
        assert_eq!(g.depth(), 0);
        let empty = Aig::new();
        assert_eq!(empty.depth(), 0);
    }
}
