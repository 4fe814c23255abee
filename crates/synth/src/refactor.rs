//! Large-cone refactoring.
//!
//! Where [`rewrite`](crate::rewrite) works on 4-input cuts, `refactor`
//! (ABC's pass of the same name) takes one *large* cut per node — grown
//! from the node's fanins until a leaf bound is hit — computes its
//! global function as a word truth table by walking the cone, and
//! resynthesizes it from a factored irredundant cover: the cover a
//! BDD's bounded ISOP gives, computed on the table. Replacements are
//! accepted when they add fewer nodes than the cone's reclaimable
//! volume.

use cirlearn_aig::{Aig, Edge, NodeId};

use crate::cone::ConeEval;
use crate::factor;
use crate::isop::{self, leaf_table, MAX_LEAVES};

/// Configuration for [`refactor`].
#[derive(Debug, Clone)]
pub struct RefactorConfig {
    /// Maximum leaves of the refactoring cut; values above 10 act as 10.
    pub max_leaves: usize,
    /// Cube bound for the extracted cover (arithmetic cones explode).
    pub max_cubes: usize,
}

impl Default for RefactorConfig {
    fn default() -> Self {
        RefactorConfig {
            max_leaves: 10,
            max_cubes: 64,
        }
    }
}

/// Refactors every node's large cut; the result computes the same
/// functions and never has more gates than the input.
///
/// # Examples
///
/// ```
/// use cirlearn_aig::Aig;
/// use cirlearn_synth::{refactor, RefactorConfig};
///
/// // A 5-input AND built in a skewed, duplicated way.
/// let mut aig = Aig::new();
/// let x = aig.add_inputs("x", 5);
/// let t1 = aig.and(x[0], x[1]);
/// let t2 = aig.and(t1, x[2]);
/// let t1b = aig.and(x[1], x[0]); // shares with t1 via hashing
/// let t3 = aig.and(t1b, x[3]);
/// let t4 = aig.and(t2, t3);
/// let y = aig.and(t4, x[4]);
/// aig.add_output(y, "y");
/// let r = refactor(&aig, &RefactorConfig::default());
/// assert_eq!(r.gate_count(), 4); // plain 5-input AND tree
/// ```
pub fn refactor(aig: &Aig, config: &RefactorConfig) -> Aig {
    let mut out = Aig::with_inputs_like(aig);
    let mut map: Vec<Edge> = vec![Edge::FALSE; aig.node_count()];
    for (i, m) in map.iter_mut().enumerate().take(aig.num_inputs() + 1) {
        *m = Edge::from_code(i as u32 * 2);
    }
    // Fanout counts for MFFC-style reclaim estimation.
    let mut fanout = vec![0usize; aig.node_count()];
    for (_, a, b) in aig.ands() {
        fanout[a.node().index()] += 1;
        fanout[b.node().index()] += 1;
    }
    for (e, _) in aig.outputs() {
        fanout[e.node().index()] += 1;
    }
    let max_leaves = config.max_leaves.min(MAX_LEAVES);
    let mut leaves = Vec::with_capacity(max_leaves + 1);
    let mut cone = ConeEval::new(aig);

    for (n, a, b) in aig.ands() {
        let before = out.node_count();
        let na = map[a.node().index()].complement_if(a.is_complemented());
        let nb = map[b.node().index()].complement_if(b.is_complemented());
        let copy_edge = out.and(na, nb);
        let copy_delta = (out.node_count() - before) as isize;

        let mut best_edge = copy_edge;

        let volume = grow_cut(aig, n, max_leaves, &fanout, &mut leaves);
        if leaves.len() >= 3 {
            let num_leaves = leaves.len();
            let leaf_tables = (0..num_leaves).map(|k| leaf_table(k, num_leaves));
            let f = cone.cone_table(aig, n, leaves.iter().copied().zip(leaf_tables));
            if let Some(sop) = isop::cover(&f, num_leaves, config.max_cubes) {
                let expr = factor::factor(&sop);
                let leaf_edges: Vec<Edge> = leaves.iter().map(|l| map[l.index()]).collect();
                let before = out.node_count();
                let cand = expr.to_aig(&mut out, &leaf_edges);
                let delta = (out.node_count() - before) as isize;
                if delta - (volume as isize) < copy_delta {
                    best_edge = cand;
                }
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

/// Grows a cut from `root`'s fanins into `leaves`, each step expanding
/// the AND leaf with the largest id (deepest) whose fanins keep the cut
/// within `max_leaves`, until no leaf can be expanded. Leaves the cut
/// sorted and returns the number of single-fanout AND nodes inside the
/// cone, the root included (the reclaimable volume).
fn grow_cut(
    aig: &Aig,
    root: NodeId,
    max_leaves: usize,
    fanout: &[usize],
    leaves: &mut Vec<NodeId>,
) -> usize {
    let insert = |leaves: &mut Vec<NodeId>, node: NodeId| {
        if let Err(pos) = leaves.binary_search(&node) {
            leaves.insert(pos, node);
        }
    };
    leaves.clear();
    let [a, b] = aig.fanins(root);
    insert(leaves, a.node());
    insert(leaves, b.node());
    let mut volume = 1;
    // Shared leaves are expanded too when the bound permits; only
    // single-fanout ones add to the volume.
    while let Some(i) = (0..leaves.len()).rev().find(|&i| {
        let l = leaves[i];
        if !aig.is_and(l) {
            return false;
        }
        let [fa, fb] = aig.fanins(l).map(Edge::node);
        let new_a = leaves.binary_search(&fa).is_err();
        let new_b = fb != fa && leaves.binary_search(&fb).is_err();
        leaves.len() - 1 + new_a as usize + new_b as usize <= max_leaves
    }) {
        let l = leaves.remove(i);
        if fanout[l.index()] == 1 {
            volume += 1;
        }
        let [fa, fb] = aig.fanins(l);
        insert(leaves, fa.node());
        insert(leaves, fb.node());
    }
    volume
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_sat::check_equivalence;
    use std::collections::HashSet;

    /// The set-based cut growth `grow_cut` replaced: each step clones the
    /// leaf set per candidate, in the same deepest-first order.
    fn grow_cut_with_sets(
        aig: &Aig,
        root: NodeId,
        max_leaves: usize,
        fanout: &[usize],
    ) -> (Vec<NodeId>, usize) {
        let mut leaves: HashSet<NodeId> = HashSet::new();
        let [a, b] = aig.fanins(root);
        leaves.insert(a.node());
        leaves.insert(b.node());
        let mut volume = 1usize;
        loop {
            let mut candidates: Vec<NodeId> =
                leaves.iter().copied().filter(|&l| aig.is_and(l)).collect();
            candidates.sort_by_key(|l| std::cmp::Reverse(l.index()));
            let mut expanded = false;
            for l in candidates {
                let [fa, fb] = aig.fanins(l);
                let mut next = leaves.clone();
                next.remove(&l);
                next.insert(fa.node());
                next.insert(fb.node());
                if next.len() <= max_leaves {
                    if fanout[l.index()] == 1 {
                        volume += 1;
                    }
                    leaves = next;
                    expanded = true;
                    break;
                }
            }
            if !expanded {
                break;
            }
        }
        let mut sorted: Vec<NodeId> = leaves.into_iter().collect();
        sorted.sort_unstable();
        (sorted, volume)
    }

    #[test]
    fn grow_cut_matches_the_set_based_growth() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let (mut checked, mut constant_leaf) = (0, 0);
        for round in 0..40 {
            // Fanins mostly from the last few nodes, so cones reconverge.
            let mut g = Aig::new();
            let mut pool: Vec<Edge> = g.add_inputs("x", rng.gen_range(3..14));
            for _ in 0..rng.gen_range(20..120) {
                let mut pick = || {
                    let back = rng.gen_range(1..=pool.len().min(6));
                    pool[pool.len() - back].complement_if(rng.gen_bool(0.4))
                };
                let (a, b) = (pick(), pick());
                let n = if rng.gen_bool(0.3) {
                    g.xor(a, b)
                } else {
                    g.and(a, b)
                };
                if g.is_and(n.node()) {
                    pool.push(n);
                }
            }
            g.add_output(*pool.last().expect("nonempty"), "y");
            // Tie a few fanins to constants, so the constant node is a leaf.
            let ands: Vec<NodeId> = g.ands().map(|(n, _, _)| n).collect();
            for _ in 0..round % 4 {
                let n = ands[rng.gen_range(0..ands.len())];
                g.set_fanin_unchecked(n, rng.gen_range(0..2), Edge::TRUE);
            }
            let mut fanout = vec![0usize; g.node_count()];
            for (_, a, b) in g.ands() {
                fanout[a.node().index()] += 1;
                fanout[b.node().index()] += 1;
            }
            let mut leaves = Vec::new();
            for max_leaves in [6, 10] {
                for &n in &ands {
                    let volume = grow_cut(&g, n, max_leaves, &fanout, &mut leaves);
                    assert_eq!(
                        (leaves.clone(), volume),
                        grow_cut_with_sets(&g, n, max_leaves, &fanout),
                        "round {round}, node {n:?}, max_leaves {max_leaves}"
                    );
                    checked += 1;
                    constant_leaf += leaves.contains(&NodeId::CONST) as usize;
                }
            }
        }
        assert!(checked > 1000, "only {checked} cuts compared");
        assert!(constant_leaf > 0, "no cut had the constant node as a leaf");
    }

    #[test]
    fn refactors_duplicated_logic() {
        let mut g = Aig::new();
        let x = g.add_inputs("x", 4);
        // (x0 & x1) | (x0 & x1 & x2) | x3, built without sharing hints.
        let t1 = g.and(x[0], x[1]);
        let t2 = {
            let a = g.and(x[1], x[2]);
            g.and(x[0], a)
        };
        let o1 = g.or(t1, t2);
        let y = g.or(o1, x[3]);
        g.add_output(y, "y");
        let r = refactor(&g, &RefactorConfig::default());
        assert!(check_equivalence(&g, &r).is_equivalent());
        // x0 x1 + x3 : 2 gates.
        assert!(r.gate_count() <= 2, "got {}", r.gate_count());
    }

    #[test]
    fn never_grows_random_circuits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        for round in 0..6 {
            let mut g = Aig::new();
            let mut pool: Vec<Edge> = (0..6).map(|i| g.add_input(format!("x{i}"))).collect();
            for _ in 0..30 {
                let a = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.4));
                let b = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.4));
                let n = g.and(a, b);
                pool.push(n);
            }
            let out_edge = *pool.last().expect("nonempty");
            g.add_output(out_edge, "y");
            let r = refactor(&g, &RefactorConfig::default());
            assert!(r.gate_count() <= g.gate_count(), "round {round}");
            assert!(
                check_equivalence(&g, &r).is_equivalent(),
                "round {round}: refactor changed the function"
            );
        }
    }

    #[test]
    fn handles_multi_output_word_circuits() {
        let mut g = Aig::new();
        let a = g.add_inputs("a", 4);
        let b = g.add_inputs("b", 4);
        let s = g.add_word(&a, &b);
        for (i, e) in s.iter().enumerate() {
            g.add_output(*e, format!("s{i}"));
        }
        let r = refactor(&g, &RefactorConfig::default());
        assert!(check_equivalence(&g, &r).is_equivalent());
    }
}
