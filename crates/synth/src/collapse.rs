//! BDD collapse: global two-level re-extraction of output cones.
//!
//! ABC's `collapse` (which the paper runs once during optimization)
//! rebuilds each output from its *global* function, wiping out any
//! structural bias left by the learner. We reproduce it by converting
//! each output cone to a BDD, extracting an irredundant SOP with the
//! BDD ISOP procedure, factoring it, and rebuilding. Cones whose
//! support, BDD size or cover exceeds the configured guards keep their
//! original structure — mirroring how collapse is only applied where
//! BDDs stay tractable. Each cone's manager holds that cone's nodes and
//! nothing else, so the size guard measures the cone itself.

use cirlearn_aig::{Aig, Edge, NodeId};
use cirlearn_bdd::{Bdd, BddRef};

use crate::factor;

/// Configuration for [`collapse`].
#[derive(Debug, Clone)]
pub struct CollapseConfig {
    /// Maximum structural support of a cone to attempt collapsing.
    pub max_support: usize,
    /// Abort threshold on BDD manager nodes per cone. The manager
    /// holds the cone's nodes only, not those of other outputs.
    pub max_bdd_nodes: usize,
    /// Abort threshold on extracted cover cubes per cone — arithmetic
    /// cones have exponential covers and must keep their structure.
    pub max_cubes: usize,
}

impl Default for CollapseConfig {
    fn default() -> Self {
        CollapseConfig {
            max_support: 24,
            max_bdd_nodes: 200_000,
            max_cubes: 2_000,
        }
    }
}

/// Collapses every tractable output cone through a BDD and rebuilds it
/// from a factored irredundant SOP. Returns the smaller of the original
/// and the collapsed circuit.
///
/// # Examples
///
/// ```
/// use cirlearn_aig::Aig;
/// use cirlearn_synth::{collapse, CollapseConfig};
///
/// // A redundantly built function: x0 & x1 | x0 & !x1  ==  x0.
/// let mut aig = Aig::new();
/// let x0 = aig.add_input("x0");
/// let x1 = aig.add_input("x1");
/// let a = aig.and(x0, x1);
/// let b = aig.and(x0, !x1);
/// let y = aig.or(a, b);
/// aig.add_output(y, "y");
/// let c = collapse(&aig, &CollapseConfig::default());
/// assert_eq!(c.gate_count(), 0); // collapses to the input itself
/// ```
pub fn collapse(aig: &Aig, config: &CollapseConfig) -> Aig {
    let out = collapse_cones(aig, config);
    if out.gate_count() < aig.gate_count() {
        out
    } else {
        aig.cleanup()
    }
}

/// Rebuilds every tractable output cone from its factored cover and
/// copies the others, whether or not the result is smaller.
fn collapse_cones(aig: &Aig, config: &CollapseConfig) -> Aig {
    let mut out = Aig::with_inputs_like(aig);
    // Map from old nodes to new edges for outputs that are *not*
    // collapsed (they are copied structurally).
    let mut copy_map: Vec<Option<Edge>> = vec![None; aig.node_count()];
    copy_map[0] = Some(Edge::FALSE);
    for (i, m) in copy_map
        .iter_mut()
        .enumerate()
        .take(aig.num_inputs() + 1)
        .skip(1)
    {
        *m = Some(Edge::from_code(i as u32 * 2));
    }

    for (e, name) in aig.outputs() {
        let cone = Cone::of(aig, *e);
        let collapsed = if cone.support.len() <= config.max_support {
            build_bdd_cone(aig, *e, &cone, config.max_bdd_nodes).and_then(|(mut bdd, f)| {
                let sop = bdd.isop_bounded(f, config.max_cubes)?;
                let expr = factor::factor(&sop);
                let var_map: Vec<Edge> = cone
                    .support
                    .iter()
                    .map(|&pos| out.input_edge(pos))
                    .collect();
                Some(expr.to_aig(&mut out, &var_map))
            })
        } else {
            None
        };
        let new_edge = match collapsed {
            Some(edge) => edge,
            None => copy_cone(aig, *e, &mut out, &mut copy_map),
        };
        out.add_output(new_edge, name.clone());
    }
    out.cleanup()
}

/// The transitive fanin of an output: its structural support and its
/// AND nodes.
struct Cone {
    /// Input positions, ascending.
    support: Vec<usize>,
    /// AND nodes, in topological (ascending) order.
    ands: Vec<NodeId>,
}

impl Cone {
    fn of(aig: &Aig, root: Edge) -> Cone {
        let mut mark = vec![false; aig.node_count()];
        let mut stack = vec![root.node()];
        let mut cone = Cone {
            support: Vec::new(),
            ands: Vec::new(),
        };
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut mark[n.index()], true) {
                continue;
            }
            if let Some(pos) = aig.input_position(n) {
                cone.support.push(pos);
            } else if aig.is_and(n) {
                cone.ands.push(n);
                stack.extend(aig.fanins(n).map(Edge::node));
            }
        }
        cone.support.sort_unstable();
        cone.ands.sort_unstable();
        cone
    }
}

/// Builds the BDD of a cone over variables indexed by position within
/// its support. Returns `None` if the manager exceeds the node budget.
fn build_bdd_cone(aig: &Aig, root: Edge, cone: &Cone, max_nodes: usize) -> Option<(Bdd, BddRef)> {
    let mut bdd = Bdd::new(cone.support.len());
    let mut values = vec![BddRef::FALSE; aig.node_count()];
    for (k, &pos) in cone.support.iter().enumerate() {
        let node = aig.input_edge(pos).node();
        values[node.index()] = bdd.var(k as u32);
    }
    let edge_value = |bdd: &mut Bdd, values: &[BddRef], e: Edge| {
        let v = values[e.node().index()];
        if e.is_complemented() {
            bdd.not(v)
        } else {
            v
        }
    };
    for &n in &cone.ands {
        let [a, b] = aig.fanins(n);
        let fa = edge_value(&mut bdd, &values, a);
        let fb = edge_value(&mut bdd, &values, b);
        values[n.index()] = bdd.and(fa, fb);
        if bdd.node_count() > max_nodes {
            return None;
        }
    }
    let f = edge_value(&mut bdd, &values, root);
    Some((bdd, f))
}

/// Structurally copies the cone of `root` into `out`, reusing the map.
fn copy_cone(aig: &Aig, root: Edge, out: &mut Aig, map: &mut [Option<Edge>]) -> Edge {
    for (n, a, b) in aig.ands() {
        if map[n.index()].is_some() {
            continue;
        }
        let (Some(ma), Some(mb)) = (map[a.node().index()], map[b.node().index()]) else {
            continue;
        };
        let na = ma.complement_if(a.is_complemented());
        let nb = mb.complement_if(b.is_complemented());
        map[n.index()] = Some(out.and(na, nb));
    }
    map[root.node().index()]
        .expect("cone nodes are mapped in topological order")
        .complement_if(root.is_complemented())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_sat::check_equivalence;

    #[test]
    fn collapses_redundant_cover() {
        // Minterm-style construction of x0 | x1 over 3 vars: 4 cubes.
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 3);
        let mut cubes = Vec::new();
        for m in 0..8u32 {
            if m & 1 == 1 || m >> 1 & 1 == 1 {
                let lits: Vec<Edge> = (0..3)
                    .map(|k| inputs[k].complement_if(m >> k & 1 == 0))
                    .collect();
                cubes.push(g.and_many(&lits));
            }
        }
        let y = g.or_many(&cubes);
        g.add_output(y, "y");
        let c = collapse(&g, &CollapseConfig::default());
        assert!(check_equivalence(&g, &c).is_equivalent());
        assert_eq!(c.gate_count(), 1, "x0 | x1 is a single gate");
    }

    #[test]
    fn preserves_multi_output_functions() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let s = g.xor(a, b);
        let s2 = g.xor(s, c);
        let ab = g.and(a, b);
        let sc = g.and(s, c);
        let carry = g.or(ab, sc);
        g.add_output(s2, "sum");
        g.add_output(carry, "carry");
        let col = collapse(&g, &CollapseConfig::default());
        assert!(check_equivalence(&g, &col).is_equivalent());
        assert!(col.gate_count() <= g.gate_count());
    }

    #[test]
    fn wide_cones_are_left_alone() {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 30);
        let y = g.and_many(&inputs);
        g.add_output(y, "y");
        let cfg = CollapseConfig {
            max_support: 24,
            ..CollapseConfig::default()
        };
        let c = collapse(&g, &cfg);
        assert!(check_equivalence(&g, &c).is_equivalent());
        assert_eq!(c.gate_count(), g.gate_count());
    }

    #[test]
    fn node_budget_guard_falls_back_to_copy() {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 8);
        // A multiplier-like structure with an intentionally tiny budget.
        let a = g.mul_const_word(&inputs[..4], 5, 6);
        let b = g.mul_const_word(&inputs[4..], 3, 6);
        let lt = g.cmp_ult(&a, &b);
        g.add_output(lt, "lt");
        let cfg = CollapseConfig {
            max_support: 24,
            max_bdd_nodes: 8,
            ..CollapseConfig::default()
        };
        let c = collapse(&g, &cfg);
        assert!(check_equivalence(&g, &c).is_equivalent());
    }

    #[test]
    fn unbounded_cube_count_still_collapses() {
        // x0 & x1 | x0 & !x1 == x0, under every cube bound it fits.
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 2);
        let a = g.and(inputs[0], inputs[1]);
        let b = g.and(inputs[0], !inputs[1]);
        let y = g.or(a, b);
        g.add_output(y, "y");
        for max_cubes in [1, 2_000, usize::MAX] {
            let cfg = CollapseConfig {
                max_cubes,
                ..CollapseConfig::default()
            };
            assert_eq!(collapse(&g, &cfg).gate_count(), 0, "max_cubes {max_cubes}");
        }
    }

    #[test]
    fn node_budget_counts_the_cone_only() {
        // The sibling's fanins lie inside the small cone's support, so a
        // guard that built every such AND would count its BDD too.
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 8);
        let small = {
            let t = g.and(inputs[0], inputs[1]);
            let u = g.and(inputs[0], !inputs[1]);
            let v = g.or(t, u);
            let w = g.and(inputs[2], inputs[3]);
            let z = g.and(inputs[4], inputs[5]);
            let r = g.or(w, z);
            let q = g.and(inputs[6], inputs[7]);
            let p = g.or(r, q);
            g.and(v, p)
        };
        let a = g.mul_const_word(&inputs[..4], 5, 6);
        let b = g.mul_const_word(&inputs[4..], 3, 6);
        let large = g.cmp_ult(&a, &b);
        g.add_output(small, "small");
        g.add_output(large, "large");

        let size = |root: Edge| {
            let cone = Cone::of(&g, root);
            build_bdd_cone(&g, root, &cone, usize::MAX)
                .expect("no budget")
                .0
                .node_count()
        };
        let (small_nodes, large_nodes) = (size(small), size(large));
        assert!(small_nodes < large_nodes, "{small_nodes} vs {large_nodes}");
        let cfg = CollapseConfig {
            max_bdd_nodes: small_nodes,
            ..CollapseConfig::default()
        };
        let c = collapse_cones(&g, &cfg);
        assert!(check_equivalence(&g, &c).is_equivalent());
        // The small cone, x0 & (x2 x3 | x4 x5 | x6 x7), is rebuilt from
        // its cover; the large one is copied.
        let rebuilt = Cone::of(&c, c.output_edge(0));
        assert_eq!(rebuilt.ands.len(), 6);
        assert!(Cone::of(&g, small).ands.len() > 6);
    }

    /// Reads `tests/data/collapse_golden/<case>.<kind>.aag`.
    fn golden(case: &str, kind: &str) -> String {
        let path = format!(
            "{}/tests/data/collapse_golden/{case}.{kind}.aag",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
    }

    /// The fixtures are learned circuits before optimization (case_2 and
    /// case_12 under the workload benchmark's 3M-query cap, case_18
    /// under its 400k cap, each in the Table II input order), and the
    /// circuit `collapse_cones` made of them when the manager held
    /// every AND whose fanins lie in the cone's support and its covers
    /// came from the literal-vector ISOP. `collapse` keeps that circuit
    /// on case_18 only; on the others it is larger than the input.
    #[test]
    fn learned_covers_match_recorded_collapses() {
        let config = CollapseConfig::default();
        for (case, shrinks) in [("case_2", false), ("case_12", false), ("case_18", true)] {
            let raw = Aig::from_aiger_ascii(&golden(case, "raw")).expect("fixture parses");
            let cones = collapse_cones(&raw, &config);
            assert_eq!(
                cones.to_aiger_ascii(),
                golden(case, "cones"),
                "{case}: collapse no longer reproduces the recorded cones"
            );
            assert!(
                check_equivalence(&raw, &cones).is_equivalent(),
                "{case}: collapse changed the function"
            );
            let expected = if shrinks { &cones } else { &raw };
            assert_eq!(
                collapse(&raw, &config).to_aiger_ascii(),
                expected.to_aiger_ascii(),
                "{case}"
            );
        }
    }

    #[test]
    fn mixed_collapsed_and_copied_outputs() {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 26);
        // Output 0: small cone (collapsible). Output 1: wide cone.
        let small = {
            let t = g.and(inputs[0], inputs[1]);
            let u = g.and(inputs[0], !inputs[1]);
            g.or(t, u)
        };
        let wide = g.or_many(&inputs);
        g.add_output(small, "small");
        g.add_output(wide, "wide");
        let cfg = CollapseConfig {
            max_support: 10,
            ..CollapseConfig::default()
        };
        let c = collapse(&g, &cfg);
        assert!(check_equivalence(&g, &c).is_equivalent());
    }
}
