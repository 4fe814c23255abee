//! DAG-aware cut rewriting.
//!
//! For every AND node the pass enumerates 4-feasible cuts on fixed-size
//! leaf arrays, gives each kept cut its function — a ≤ 16-bit truth
//! table — during enumeration, and resynthesizes it from an irredundant
//! SOP, accepting the replacement when it adds fewer nodes to the
//! rebuilt graph than copying the node would — counting the node's
//! maximum fanout-free cone (MFFC) as reclaimable. This is the rewriting
//! discipline of ABC's `rewrite`, with the precomputed NPN subgraph
//! library replaced by on-the-fly ISOP + factoring of the NPN-canonical
//! representative (the deviation is recorded in DESIGN.md). The library
//! is keyed by the exact cut function, so each distinct function is
//! canonized and factored once per pass and every repeat is one hash
//! lookup.
//!
//! A cut's table comes from walking the root's cone down to the first
//! leaf on every path, with per-node buffers reused across cuts (the
//! walk `refactor` uses too, on wider tables). ABC
//! instead merges the fanin cuts' tables over the merged leaf set; that
//! differs when one leaf lies inside the cone of a fanin cut (the merge
//! expands that leaf's cone, the walk stops at it), and on such cuts it
//! would pick other replacements.
//!
//! The pass is conservative: the rebuilt graph is compared against the
//! input and the smaller one is returned, so `rewrite` never increases
//! gate count.

use std::collections::HashMap;

use cirlearn_aig::{Aig, Edge, NodeId};
use cirlearn_logic::{NpnTransform, TruthTable};

use crate::cone::ConeEval;
use crate::factor;

/// Maximum cut width.
const CUT_SIZE: usize = 4;
/// Maximum cuts stored per node.
const CUTS_PER_NODE: usize = 8;
/// Bit masks selecting the minterms where variable `i` is 1, over
/// [`CUT_SIZE`] variables.
const VAR_MASKS: [u16; CUT_SIZE] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

/// Resynthesis per exact cut function `(num_vars, truth)`: the factored
/// expression of its NPN-canonical representative and the transform
/// mapping the function onto that representative.
type Library = HashMap<(usize, u16), (factor::Expr, NpnTransform)>;

/// Rewrites the AIG with 4-input cut resynthesis. The result computes
/// the same functions and never has more gates than the input.
///
/// # Examples
///
/// ```
/// use cirlearn_aig::Aig;
/// use cirlearn_synth::rewrite;
///
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// // mux(a, b, b) is just b.
/// let m = aig.mux(a, b, b);
/// aig.add_output(m, "y");
/// let r = rewrite(&aig);
/// assert_eq!(r.gate_count(), 0);
/// ```
pub fn rewrite(aig: &Aig) -> Aig {
    let cuts = enumerate_cuts(aig);
    let fanouts = fanout_lists(aig);
    let mut library = Library::new();

    let mut out = Aig::with_inputs_like(aig);
    let mut map: Vec<Edge> = vec![Edge::FALSE; aig.node_count()];
    for (i, m) in map.iter_mut().enumerate().take(aig.num_inputs() + 1) {
        *m = Edge::from_code(i as u32 * 2);
    }

    for (n, a, b) in aig.ands() {
        // Candidate 0: plain copy.
        let before = out.node_count();
        let na = map[a.node().index()].complement_if(a.is_complemented());
        let nb = map[b.node().index()].complement_if(b.is_complemented());
        let copy_edge = out.and(na, nb);
        let copy_delta = out.node_count() - before;

        let mut best_edge = copy_edge;
        let mut best_score = copy_delta as isize;

        for cut in cuts.of(n) {
            let leaves = cut.leaves();
            if leaves.len() < 2 {
                continue; // the trivial cut {n}
            }
            let reclaim = mffc_size(aig, n, leaves, &fanouts) as isize;
            let before = out.node_count();
            let leaf_edges: Vec<Edge> = leaves.iter().map(|l| map[l.index()]).collect();
            let cand = build_from_tt(cut.function(), &mut out, &leaf_edges, &mut library);
            let delta = (out.node_count() - before) as isize;
            let score = delta - reclaim;
            if score < best_score {
                best_score = score;
                best_edge = cand;
            }
        }
        map[n.index()] = best_edge;
    }
    for (e, name) in aig.outputs() {
        let ne = map[e.node().index()].complement_if(e.is_complemented());
        out.add_output(ne, name.clone());
    }
    let out = out.cleanup();
    if out.gate_count() < aig.gate_count() {
        out
    } else {
        aig.cleanup()
    }
}

/// A cut: up to [`CUT_SIZE`] sorted leaves and the root's function over
/// them (leaf `k` ↦ variable `x_k`).
#[derive(Debug, Clone, Copy)]
struct Cut {
    leaves: [NodeId; CUT_SIZE],
    len: usize,
    /// The function as a [`CUT_SIZE`]-variable table; it does not
    /// depend on the variables at or above `len`.
    truth: u16,
}

impl Cut {
    /// The trivial cut `{node}`: the function is the leaf itself.
    fn trivial(node: NodeId) -> Cut {
        Cut {
            leaves: [node; CUT_SIZE],
            len: 1,
            truth: VAR_MASKS[0],
        }
    }

    fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len]
    }

    /// The cut function as `(num_vars, truth)`, the truth table over
    /// exactly the cut's leaves.
    fn function(&self) -> (usize, u16) {
        let minterms = 1u32 << self.len;
        (self.len, self.truth & ((1u32 << minterms) - 1) as u16)
    }

    /// The sorted union of two cuts' leaves, or `None` if it is wider
    /// than [`CUT_SIZE`]. The truth table is left for the caller.
    fn merge_leaves(&self, other: &Cut) -> Option<Cut> {
        let (a, b) = (self.leaves(), other.leaves());
        let mut merged = Cut::trivial(NodeId::CONST);
        let (mut i, mut j, mut len) = (0, 0, 0);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (_, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!("loop condition"),
            };
            if len == CUT_SIZE {
                return None;
            }
            merged.leaves[len] = next;
            len += 1;
        }
        merged.len = len;
        Some(merged)
    }
}

/// Up to [`CUTS_PER_NODE`] cuts of width ≤ [`CUT_SIZE`] per node, stored
/// flat in node order.
struct CutSets {
    cuts: Vec<Cut>,
    /// Cuts of node `i` are `cuts[start[i]..start[i + 1]]`.
    start: Vec<usize>,
}

impl CutSets {
    fn of(&self, node: NodeId) -> &[Cut] {
        &self.cuts[self.start[node.index()]..self.start[node.index() + 1]]
    }
}

/// Enumerates cuts bottom-up. Each cut's leaves are sorted; the trivial
/// cut `{n}` is always included and comes first. Merged cuts keep the
/// order in which the fanin cut pairs produce them, then are stably
/// sorted by width and truncated; the kept ones get their truth tables.
fn enumerate_cuts(aig: &Aig) -> CutSets {
    let mut sets = CutSets {
        cuts: Vec::with_capacity(aig.node_count() * CUTS_PER_NODE),
        start: Vec::with_capacity(aig.node_count() + 1),
    };
    sets.start.push(0);
    // Constant and inputs, in node order: only the trivial cut.
    for i in 0..=aig.num_inputs() {
        sets.cuts
            .push(Cut::trivial(Edge::from_code(i as u32 * 2).node()));
        sets.start.push(sets.cuts.len());
    }
    let mut cone = ConeEval::new(aig);
    let mut set: Vec<Cut> = Vec::new();
    for (n, a, b) in aig.ands() {
        debug_assert_eq!(sets.start.len(), n.index() + 1, "AND nodes follow in order");
        set.clear();
        set.push(Cut::trivial(n));
        for ca in sets.of(a.node()) {
            for cb in sets.of(b.node()) {
                if let Some(merged) = ca.merge_leaves(cb) {
                    if !set.iter().any(|c| c.leaves() == merged.leaves()) {
                        set.push(merged);
                    }
                }
            }
        }
        set.sort_by_key(|c| c.len);
        set.truncate(CUTS_PER_NODE);
        for cut in &mut set[1..] {
            let leaves = cut.leaves().iter().copied().zip(VAR_MASKS);
            cut.truth = cone.cone_table(aig, n, leaves);
        }
        sets.cuts.extend_from_slice(&set);
        sets.start.push(sets.cuts.len());
    }
    sets
}

/// Number of AND nodes in the cone of `root` above `leaves` whose every
/// fanout stays inside that cone (the reclaimable MFFC volume).
fn mffc_size(aig: &Aig, root: NodeId, leaves: &[NodeId], fanouts: &[Vec<NodeId>]) -> usize {
    // Collect the cone.
    let mut cone: Vec<NodeId> = Vec::new();
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        if cone.contains(&n) || leaves.contains(&n) || !aig.is_and(n) {
            continue;
        }
        cone.push(n);
        let [a, b] = aig.fanins(n);
        stack.push(a.node());
        stack.push(b.node());
    }
    // Internal nodes (≠ root) count only when all fanouts are in-cone.
    cone.iter()
        .filter(|&&n| n == root || fanouts[n.index()].iter().all(|f| cone.contains(f)))
        .count()
}

fn fanout_lists(aig: &Aig) -> Vec<Vec<NodeId>> {
    let mut lists: Vec<Vec<NodeId>> = vec![Vec::new(); aig.node_count()];
    for (n, a, b) in aig.ands() {
        lists[a.node().index()].push(n);
        lists[b.node().index()].push(n);
    }
    lists
}

/// Builds the cut function `(num_vars, truth)` over the given leaf
/// edges from the library, resynthesizing it on first sight.
///
/// The library holds a factored expression of the *canonical* function
/// and the transform to it. The instance is recovered through the
/// transform: with `canon(x) = oneg ⊕ f(y)`, `y[perm[i]] = x[i] ⊕
/// ineg[i]`, building `canon` over the remapped/complemented leaf edges
/// and complementing the result yields exactly `f` over the original
/// leaves.
fn build_from_tt(
    (num_vars, truth): (usize, u16),
    out: &mut Aig,
    leaf_edges: &[Edge],
    library: &mut Library,
) -> Edge {
    let (expr, t) = library.entry((num_vars, truth)).or_insert_with(|| {
        let tt = TruthTable::from_fn(num_vars, |m| truth >> m & 1 == 1);
        let (canon, t) = tt.npn_canonical().expect("cut width is within NPN limits");
        (factor::factor(&canon.isop()), t)
    });
    // canon's variable i reads leaf perm[i], complemented per ineg.
    let var_map: Vec<Edge> = t
        .perm
        .iter()
        .enumerate()
        .map(|(i, &p)| leaf_edges[p as usize].complement_if(t.input_neg >> i & 1 == 1))
        .collect();
    expr.to_aig(out, &var_map).complement_if(t.output_neg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_sat::check_equivalence;

    #[test]
    fn removes_redundant_mux() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let m = g.mux(a, b, b);
        g.add_output(m, "y");
        let r = rewrite(&g);
        assert!(check_equivalence(&g, &r).is_equivalent());
        assert_eq!(r.gate_count(), 0);
    }

    #[test]
    fn compacts_sum_of_minterms() {
        // All four minterms of (a, b) with output 1 except a=b=1: = !(a&b).
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let m0 = g.and(!a, !b);
        let m1 = g.and(a, !b);
        let m2 = g.and(!a, b);
        let t = g.or(m0, m1);
        let y = g.or(t, m2);
        g.add_output(y, "y");
        let r = rewrite(&g);
        assert!(check_equivalence(&g, &r).is_equivalent());
        assert!(r.gate_count() <= 1, "got {}", r.gate_count());
    }

    #[test]
    fn never_grows() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for round in 0..8 {
            let mut g = Aig::new();
            let mut pool: Vec<Edge> = (0..6).map(|i| g.add_input(format!("x{i}"))).collect();
            for _ in 0..40 {
                let a = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.4));
                let b = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.4));
                let n = g.and(a, b);
                pool.push(n);
            }
            let out_edge = *pool.last().expect("nonempty");
            g.add_output(out_edge, "y");
            let r = rewrite(&g);
            assert!(r.gate_count() <= g.gate_count(), "round {round}");
            assert!(
                check_equivalence(&g, &r).is_equivalent(),
                "round {round}: rewrite changed the function"
            );
        }
    }

    #[test]
    fn preserves_multi_output() {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 4);
        let s = g.add_word(&inputs[..2], &inputs[2..]);
        for (i, e) in s.iter().enumerate() {
            g.add_output(*e, format!("s{i}"));
        }
        let r = rewrite(&g);
        assert!(check_equivalence(&g, &r).is_equivalent());
    }

    #[test]
    fn cut_function_stops_at_the_first_leaf() {
        // n = (p & z) & p with p = x & y. The cut {x, y, z, p} holds p
        // inside the cone of p & z; the walk stops at p, so the function
        // is p & z, not the p & x & y & z a merge of the fanin cuts'
        // tables would give.
        let mut g = Aig::new();
        let [x, y, z] = [0, 1, 2].map(|i| g.add_input(format!("x{i}")));
        let p = g.and(x, y);
        let a = g.and(p, z);
        let n = g.and(a, p);
        g.add_output(n, "y");
        let cuts = enumerate_cuts(&g);
        let leaves = [x, y, z, p].map(|e| e.node());
        let cut = cuts
            .of(n.node())
            .iter()
            .find(|c| c.leaves() == leaves)
            .expect("the four-leaf cut is enumerated");
        assert_eq!(cut.function(), (4, VAR_MASKS[2] & VAR_MASKS[3]));
    }

    #[test]
    fn cut_functions_match_simulation() {
        // Every non-trivial cut of an XOR/MUX chain: evaluate the root
        // under each leaf assignment by simulating the cone directly.
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 4);
        let t = g.xor(xs[0], xs[1]);
        let u = g.mux(t, xs[2], !xs[3]);
        let v = g.xor(u, xs[0]);
        g.add_output(v, "y");
        let cuts = enumerate_cuts(&g);
        for (n, _, _) in g.ands() {
            for cut in &cuts.of(n)[1..] {
                let (num_vars, truth) = cut.function();
                for m in 0..1u16 << num_vars {
                    let mut value = vec![None; g.node_count()];
                    for (k, l) in cut.leaves().iter().enumerate() {
                        value[l.index()] = Some(m >> k & 1 == 1);
                    }
                    for (node, a, b) in g.ands() {
                        if value[node.index()].is_none() {
                            let get =
                                |e: Edge| value[e.node().index()].map(|v| v != e.is_complemented());
                            value[node.index()] = get(a).zip(get(b)).map(|(a, b)| a && b);
                        }
                    }
                    assert_eq!(
                        value[n.index()],
                        Some(truth >> m & 1 == 1),
                        "node {n:?} cut {:?}",
                        cut.leaves()
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod npn_build_tests {
    use super::*;
    use cirlearn_aig::Aig;

    #[test]
    fn npn_library_build_matches_function() {
        let mut state = 12345u64;
        for trial in 0..50 {
            let mut truth = 0u16;
            for m in 0..16 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(m + trial);
                truth |= ((state >> 33 & 1) as u16) << m;
            }
            let mut g = Aig::new();
            let leaves = g.add_inputs("x", 4);
            let mut lib = Library::new();
            let e = build_from_tt((4, truth), &mut g, &leaves, &mut lib);
            g.add_output(e, "y");
            for m in 0..16u64 {
                let bits: Vec<bool> = (0..4).map(|k| m >> k & 1 == 1).collect();
                assert_eq!(
                    g.eval_bits(&bits)[0],
                    truth >> m & 1 == 1,
                    "trial {trial} m={m}"
                );
            }
        }
    }
}
