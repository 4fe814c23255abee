//! Structural support of edges and outputs.

use crate::{Aig, Edge};

impl Aig {
    /// Returns the primary-input positions in the structural support of
    /// `edge` (inputs reachable backward from it), sorted ascending.
    ///
    /// The structural support over-approximates the functional support:
    /// an input may be reachable yet not affect the function.
    pub fn structural_support(&self, edge: Edge) -> Vec<usize> {
        let mut mark = vec![false; self.node_count()];
        let mut stack = vec![edge.node()];
        let mut support = Vec::new();
        while let Some(n) = stack.pop() {
            if mark[n.index()] {
                continue;
            }
            mark[n.index()] = true;
            if let Some(pos) = self.input_position(n) {
                support.push(pos);
            } else if self.is_and(n) {
                let [a, b] = self.fanins(n);
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        support.sort_unstable();
        support
    }

    /// Returns the structural support of the `position`-th output.
    ///
    /// # Panics
    ///
    /// Panics if `position ≥ num_outputs`.
    pub fn output_support(&self, position: usize) -> Vec<usize> {
        self.structural_support(self.output_edge(position))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_of_input_and_constant() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let _b = g.add_input("b");
        assert_eq!(g.structural_support(a), vec![0]);
        assert_eq!(g.structural_support(Edge::TRUE), Vec::<usize>::new());
    }

    #[test]
    fn support_ignores_unreachable_inputs() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let _b = g.add_input("b");
        let c = g.add_input("c");
        let f = g.and(a, c);
        g.add_output(f, "f");
        assert_eq!(g.output_support(0), vec![0, 2]);
    }
}
