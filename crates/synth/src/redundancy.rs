//! SAT-based redundancy removal.
//!
//! The paper's optimization script includes ABC's don't-care-based
//! passes (`dc2`, `mfs` family): a connection is *redundant* when
//! replacing it by a constant cannot be observed at any output — the
//! circuit's satisfiability/observability don't cares hide it. This
//! pass tests, for every AND fanin, whether tying it to constant 1
//! (which turns the AND into a wire) changes any output; the test is a
//! SAT miter, so accepted removals are exact.

use cirlearn_aig::{Aig, Edge, NodeId};
use cirlearn_sat::{check_equivalence, Equivalence};

/// Circuits with more AND nodes than this are returned unchanged: each
/// candidate costs a whole-circuit rebuild and SAT miter.
const MAX_NODES: usize = 1_500;

/// Removes SAT-provably redundant AND fanins. The result is always
/// functionally equivalent and never larger.
///
/// One forward scan visits the AND nodes in order. At each position it
/// tries to replace the AND by its second fanin, then by its first
/// (the other fanin tied to constant 1), and accepts the first
/// replacement that shrinks the circuit and passes a SAT equivalence
/// check. After an acceptance the scan stays at the same position of
/// the rebuilt circuit; otherwise it moves on. A visit either advances
/// the position or removes at least one AND, so the pass makes at most
/// 2 × (ANDs + removals) candidate checks, and never more than
/// 4 × ANDs. There is no clock and no removal cap: the result is a pure
/// function of the input. Inputs above 1,500 AND nodes are returned
/// unchanged (after `cleanup`).
///
/// # Examples
///
/// ```
/// use cirlearn_aig::Aig;
/// use cirlearn_synth::redundancy_removal;
///
/// // y = a & (a | b): the (a | b) branch is redundant.
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let or = aig.or(a, b);
/// let y = aig.and(a, or);
/// aig.add_output(y, "y");
/// let r = redundancy_removal(&aig);
/// assert_eq!(r.gate_count(), 0); // y == a
/// ```
pub fn redundancy_removal(aig: &Aig) -> Aig {
    let mut current = aig.cleanup();
    if current.and_count() > MAX_NODES {
        return current;
    }
    let mut ands: Vec<(NodeId, Edge, Edge)> = current.ands().collect();
    let mut position = 0;
    while let Some(&(n, a, b)) = ands.get(position) {
        let smaller = [b, a].into_iter().find_map(|keep| {
            let candidate = rebuild_with_wire(&current, n, keep);
            (candidate.gate_count() < current.gate_count()
                && check_equivalence(&current, &candidate) == Equivalence::Equivalent)
                .then_some(candidate)
        });
        match smaller {
            Some(candidate) => {
                current = candidate;
                ands = current.ands().collect();
            }
            None => position += 1,
        }
    }
    current
}

/// Rebuilds the AIG with node `n` replaced by the edge `keep` (i.e.
/// the other fanin treated as constant 1).
fn rebuild_with_wire(aig: &Aig, target: NodeId, keep: Edge) -> Aig {
    let mut out = Aig::with_inputs_like(aig);
    let mut map: Vec<Edge> = vec![Edge::FALSE; aig.node_count()];
    for (i, m) in map.iter_mut().enumerate().take(aig.num_inputs() + 1) {
        *m = Edge::from_code(i as u32 * 2);
    }
    for (n, a, b) in aig.ands() {
        let na = map[a.node().index()].complement_if(a.is_complemented());
        let nb = map[b.node().index()].complement_if(b.is_complemented());
        map[n.index()] = if n == target {
            map[keep.node().index()].complement_if(keep.is_complemented())
        } else {
            out.and(na, nb)
        };
    }
    for (e, name) in aig.outputs() {
        let ne = map[e.node().index()].complement_if(e.is_complemented());
        out.add_output(ne, name.clone());
    }
    out.cleanup()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removes_classic_redundancy() {
        // y = (a & b) | (a & !b & c) — the !b literal is NOT redundant,
        // but y = a & (b | (b | c)) has one: b | (b | c) == b | c.
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let inner = g.or(b, c);
        let outer = g.or(b, inner);
        let y = g.and(a, outer);
        g.add_output(y, "y");
        let r = redundancy_removal(&g);
        assert!(check_equivalence(&g, &r).is_equivalent());
        assert!(r.gate_count() <= 2, "got {}", r.gate_count());
    }

    #[test]
    fn keeps_irredundant_circuits() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let y = g.xor(a, b);
        g.add_output(y, "y");
        let r = redundancy_removal(&g);
        assert!(check_equivalence(&g, &r).is_equivalent());
        assert_eq!(r.gate_count(), 3);
    }

    /// `pairs` outputs `y_i = x_i & (x_i | x_{i+1})`: two ANDs each, and
    /// one redundant connection each, since `y_i == x_i`.
    fn redundant_pairs(pairs: usize) -> Aig {
        let mut g = Aig::new();
        let x = g.add_inputs("x", pairs + 1);
        for i in 0..pairs {
            let or = g.or(x[i], x[i + 1]);
            let y = g.and(x[i], or);
            g.add_output(y, format!("y{i}"));
        }
        g
    }

    #[test]
    fn removes_more_than_sixty_four_in_one_call() {
        let g = redundant_pairs(70);
        assert_eq!(g.and_count(), 140);
        let r = redundancy_removal(&g);
        assert!(check_equivalence(&g, &r).is_equivalent());
        assert_eq!(r.gate_count(), 0);
    }

    #[test]
    fn respects_node_guard() {
        // One AND over the guard: the redundant pairs stay untouched.
        let mut g = redundant_pairs(MAX_NODES / 2);
        let extra = g.and(g.input_edge(0), g.input_edge(1));
        g.add_output(extra, "extra");
        assert_eq!(g.and_count(), MAX_NODES + 1);
        let r = redundancy_removal(&g);
        assert_eq!(r.gate_count(), g.gate_count());
    }

    #[test]
    fn random_circuits_stay_equivalent() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for round in 0..6 {
            let mut g = Aig::new();
            let mut pool: Vec<Edge> = (0..5).map(|i| g.add_input(format!("x{i}"))).collect();
            for _ in 0..20 {
                let a = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.4));
                let b = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.4));
                let n = g.and(a, b);
                pool.push(n);
            }
            let out = *pool.last().expect("nonempty");
            g.add_output(out, "y");
            let r = redundancy_removal(&g);
            assert!(
                check_equivalence(&g, &r).is_equivalent(),
                "round {round}: redundancy removal changed the function"
            );
            assert!(r.gate_count() <= g.gate_count());
        }
    }
}
