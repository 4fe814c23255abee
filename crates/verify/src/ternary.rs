//! Ternary (0/1/X) constant propagation.
//!
//! The value domain is the flat three-point lattice `{0, 1, X}`: a node
//! is `Zero`/`One` when it provably takes that value under *every*
//! assignment of the unconstrained (`X`) inputs, and `X` otherwise.
//! The transfer functions are Kleene's strong three-valued logic:
//! `0 ∧ v = 0` even when `v = X`, so constants propagate through
//! dominated gates arbitrarily deep into the cone.
//!
//! The propagation is sound but (deliberately) incomplete: it is
//! pointwise per node, so it cannot prove `x ∧ ¬x = 0` — that
//! reconvergent case is the linter's `TrivialAnd` and the SAT layer's
//! job. Soundness w.r.t. concrete simulation is property-tested in
//! `tests/ternary_props.rs`.

use cirlearn_aig::{Aig, Edge};

/// A value in the three-point lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ternary {
    /// Provably 0 under all assignments of the X inputs.
    Zero,
    /// Provably 1 under all assignments of the X inputs.
    One,
    /// Not provably constant.
    X,
}

/// Kleene negation: flips constants, preserves X.
impl std::ops::Not for Ternary {
    type Output = Ternary;

    fn not(self) -> Ternary {
        match self {
            Ternary::Zero => Ternary::One,
            Ternary::One => Ternary::Zero,
            Ternary::X => Ternary::X,
        }
    }
}

impl Ternary {
    /// Kleene conjunction: 0 dominates even an X operand.
    pub fn and(self, other: Ternary) -> Ternary {
        match (self, other) {
            (Ternary::Zero, _) | (_, Ternary::Zero) => Ternary::Zero,
            (Ternary::One, Ternary::One) => Ternary::One,
            _ => Ternary::X,
        }
    }

    /// The constant this value proves, if any.
    pub fn const_value(self) -> Option<bool> {
        match self {
            Ternary::Zero => Some(false),
            Ternary::One => Some(true),
            Ternary::X => None,
        }
    }

    /// Does concrete `bit` refine this abstract value?
    pub fn admits(self, bit: bool) -> bool {
        match self {
            Ternary::Zero => !bit,
            Ternary::One => bit,
            Ternary::X => true,
        }
    }

    /// The value of `edge` given one value per node.
    pub(crate) fn of_edge(values: &[Ternary], edge: Edge) -> Ternary {
        let v = values[edge.node().index()];
        if edge.is_complemented() {
            !v
        } else {
            v
        }
    }
}

/// Evaluates `aig` under a ternary input vector (missing entries are
/// `X`), returning one value per node. One forward pass: fanins precede
/// their node, so every AND is evaluated once.
///
/// Requires a structurally well-formed graph (fanins in range and
/// topologically ordered); [`analyze`](crate::analyze) lints first.
pub fn ternary_eval(aig: &Aig, inputs: &[Ternary]) -> Vec<Ternary> {
    let mut values = vec![Ternary::X; aig.node_count()];
    values[0] = Ternary::Zero;
    for (slot, &value) in values[1..=aig.num_inputs()].iter_mut().zip(inputs) {
        *slot = value;
    }
    for (node, a, b) in aig.ands() {
        values[node.index()] = Ternary::of_edge(&values, a).and(Ternary::of_edge(&values, b));
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, LintViolation};
    use cirlearn_aig::NodeId;

    fn constant_findings(aig: &Aig) -> Vec<LintViolation> {
        analyze(aig, 0)
            .findings
            .into_iter()
            .filter(|f| f.analysis() == "ternary")
            .collect()
    }

    #[test]
    fn kleene_tables() {
        use Ternary::*;
        assert_eq!(Zero.and(X), Zero);
        assert_eq!(X.and(Zero), Zero);
        assert_eq!(One.and(One), One);
        assert_eq!(One.and(X), X);
        assert_eq!(!X, X);
        assert_eq!(!Zero, One);
        assert!(X.admits(true) && X.admits(false));
        assert!(One.admits(true) && !One.admits(false));
    }

    #[test]
    fn clean_circuit_has_no_constant_findings() {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs("x", 2);
        let x = aig.xor(inputs[0], inputs[1]);
        aig.add_output(x, "f");
        assert!(constant_findings(&aig).is_empty());
    }

    #[test]
    fn injected_constant_fanin_propagates_through_the_cone() {
        // Build x&y feeding (x&y)&z, then corrupt the deep node's fanin
        // to constant false: the corrupted node and its consumer must
        // be flagged, and the output driven by it becomes constant.
        let mut aig = Aig::new();
        let inputs = aig.add_inputs("x", 3);
        let xy = aig.and(inputs[0], inputs[1]);
        let xyz = aig.and(xy, inputs[2]);
        aig.add_output(xyz, "f");
        assert!(constant_findings(&aig).is_empty());

        aig.set_fanin_unchecked(xy.node(), 1, Edge::FALSE);
        let findings = constant_findings(&aig);
        let constant_nodes: Vec<usize> = findings
            .iter()
            .filter_map(|f| match *f {
                LintViolation::ConstantNode { node, .. } => Some(node),
                _ => None,
            })
            .collect();
        // The corrupted node AND its downstream consumer are both
        // provably zero: the constant propagated through the cone.
        assert_eq!(constant_nodes, vec![xy.node().index(), xyz.node().index()]);
        assert!(findings.contains(&LintViolation::ConstantOutput {
            output: 0,
            value: false
        }));
    }

    #[test]
    fn literal_constant_output_is_not_reported() {
        let mut aig = Aig::new();
        let _ = aig.add_inputs("x", 1);
        aig.add_output(Edge::TRUE, "always");
        assert!(constant_findings(&aig).is_empty());
    }

    #[test]
    fn pinned_inputs_specialize_the_cone() {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs("x", 2);
        let x = aig.and(inputs[0], inputs[1]);
        aig.add_output(x, "f");
        let values = ternary_eval(&aig, &[Ternary::Zero, Ternary::X]);
        assert_eq!(values[x.node().index()], Ternary::Zero);
        let values = ternary_eval(&aig, &[Ternary::One, Ternary::X]);
        assert_eq!(values[x.node().index()], Ternary::X);
        assert_eq!(values[NodeId::CONST.index()], Ternary::Zero);
    }
}
