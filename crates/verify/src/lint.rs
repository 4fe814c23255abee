//! Structural linting of and-inverter graphs.
//!
//! The linter is a pure static pass: it never mutates the graph, never
//! panics on malformed input, and reports every violation it finds as a
//! typed [`LintViolation`] carrying the offending node id. It checks
//! exactly the invariants [`Aig`] promises — topological fanin order,
//! canonical structural hashing, no constant-reducible gates, valid
//! output references — so a clean report means downstream consumers
//! (simulation, CNF encoding, AIGER export) are safe to run.

use std::collections::HashMap;
use std::fmt;

use cirlearn_aig::{Aig, NodeId};

/// How serious a finding is. The order is total: `Info < Warning <
/// Error`, so a `--deny warning` gate trips on warnings *and* errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Observational: a fact worth surfacing, not a defect.
    Info,
    /// The circuit computes the right thing wastefully (dead nodes,
    /// duplicates, foldable ANDs) — a missed optimization.
    Warning,
    /// The graph violates a structural invariant and is unsafe to
    /// simulate or encode.
    Error,
}

impl Severity {
    /// The lowercase name used in tables, JSON and `--deny` flags.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Severity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "info" => Ok(Severity::Info),
            "warn" | "warning" => Ok(Severity::Warning),
            "error" => Ok(Severity::Error),
            other => Err(format!(
                "unknown severity '{other}' (expected info|warning|error)"
            )),
        }
    }
}

/// One finding about an AIG: a defect found by [`lint`], or the
/// high-fanout fact only [`analyze`](crate::analyze) reports.
///
/// Node and fanin ids are raw node indices (0 = constant, `1..=i` =
/// inputs, the rest ANDs), matching [`cirlearn_aig::NodeId::index`].
///
/// Some findings can never come from a file. `Aig::from_aiger_ascii`
/// builds every AND through the structural hash and rejects a file
/// whose AND folds ("node folds to …; reencode the file"), so a graph
/// read from AIGER holds no repeated fanin pair, no constant fanin and
/// no `x∧x` or `x∧¬x`. [`DuplicateFaninPair`], [`ConstantFanin`] and
/// [`TrivialAnd`] therefore fire only on graphs built or broken in
/// memory: a faulty optimization pass, or `Aig::set_fanin_unchecked`.
///
/// [`DuplicateFaninPair`]: LintViolation::DuplicateFaninPair
/// [`ConstantFanin`]: LintViolation::ConstantFanin
/// [`TrivialAnd`]: LintViolation::TrivialAnd
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintViolation {
    /// An AND fanin refers to a node id outside the graph.
    FaninOutOfRange {
        /// The AND node holding the bad edge.
        node: usize,
        /// Which fanin slot (0 or 1).
        slot: usize,
        /// The out-of-range node id the edge points at.
        fanin: usize,
    },
    /// An AND fanin refers to itself or a later node, breaking the
    /// topological order (and with it acyclicity).
    NonTopologicalFanin {
        /// The AND node holding the bad edge.
        node: usize,
        /// Which fanin slot (0 or 1).
        slot: usize,
        /// The node id the edge points at (≥ `node`).
        fanin: usize,
    },
    /// An AND node stores its fanins out of canonical order
    /// (`fanin0.code() > fanin1.code()`), defeating structural hashing.
    UnorderedFanins {
        /// The offending AND node.
        node: usize,
    },
    /// Two AND nodes share the same ordered fanin pair — a structural-
    /// hashing miss that wastes a gate. Never found in a graph read
    /// from a file, which the import strashes.
    DuplicateFaninPair {
        /// The later (redundant) AND node.
        node: usize,
        /// The earlier AND node with the identical fanin pair.
        first: usize,
    },
    /// An AND has a constant fanin, so it reduces to a constant or a
    /// wire (`x∧0`, `x∧1`). Never found in a graph read from a file,
    /// which the import constant-folds.
    ConstantFanin {
        /// The offending AND node.
        node: usize,
        /// Which fanin slot (0 or 1) is constant.
        slot: usize,
    },
    /// An AND of a node with itself (`x∧x`) or its complement (`x∧¬x`)
    /// — always reducible to a wire or constant false. Never found in
    /// a graph read from a file, which the import folds.
    TrivialAnd {
        /// The offending AND node.
        node: usize,
    },
    /// An AND node is unreachable from every primary output.
    DanglingAnd {
        /// The unreachable AND node.
        node: usize,
    },
    /// A primary output points at a node id outside the graph.
    OutputOutOfRange {
        /// The output position.
        output: usize,
        /// The out-of-range node id the output points at.
        node: usize,
    },
    /// A node's fanout is at or above the analysis's fanout threshold
    /// — fine functionally, but a depth/congestion hotspot.
    HighFanout {
        /// The node with the large fanout.
        node: usize,
        /// How many fanin slots and outputs reference it.
        fanout: usize,
    },
}

impl LintViolation {
    /// Returns the id of the node the finding anchors to (for an
    /// out-of-range output, the node id it points at).
    pub fn node(&self) -> usize {
        match *self {
            LintViolation::FaninOutOfRange { node, .. }
            | LintViolation::NonTopologicalFanin { node, .. }
            | LintViolation::UnorderedFanins { node }
            | LintViolation::DuplicateFaninPair { node, .. }
            | LintViolation::ConstantFanin { node, .. }
            | LintViolation::TrivialAnd { node }
            | LintViolation::DanglingAnd { node }
            | LintViolation::OutputOutOfRange { node, .. }
            | LintViolation::HighFanout { node, .. } => node,
        }
    }

    /// Where the finding sits on the severity scale: structural
    /// violations are errors, high fanout is informational, and
    /// everything else is wasted area.
    pub fn severity(&self) -> Severity {
        match self {
            v if v.is_structural() => Severity::Error,
            LintViolation::HighFanout { .. } => Severity::Info,
            _ => Severity::Warning,
        }
    }

    /// The short name of the check that reports the finding in
    /// [`analyze`](crate::analyze): `dead`, `dup`, `metrics`, or `lint`
    /// for the rest.
    pub fn analysis(&self) -> &'static str {
        match self {
            LintViolation::DanglingAnd { .. } => "dead",
            LintViolation::DuplicateFaninPair { .. } => "dup",
            LintViolation::HighFanout { .. } => "metrics",
            _ => "lint",
        }
    }

    /// Returns `true` if the violation makes the graph unsafe to
    /// simulate or encode (as opposed to merely suboptimal).
    pub fn is_structural(&self) -> bool {
        matches!(
            self,
            LintViolation::FaninOutOfRange { .. }
                | LintViolation::NonTopologicalFanin { .. }
                | LintViolation::OutputOutOfRange { .. }
        )
    }
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintViolation::FaninOutOfRange { node, slot, fanin } => {
                write!(
                    f,
                    "node {node}: fanin {slot} points outside the graph (node {fanin})"
                )
            }
            LintViolation::NonTopologicalFanin { node, slot, fanin } => {
                write!(
                    f,
                    "node {node}: fanin {slot} breaks topological order (node {fanin})"
                )
            }
            LintViolation::UnorderedFanins { node } => {
                write!(f, "node {node}: fanins are not in canonical order")
            }
            LintViolation::DuplicateFaninPair { node, first } => {
                write!(
                    f,
                    "node {node}: duplicate fanin pair (same as node {first})"
                )
            }
            LintViolation::ConstantFanin { node, slot } => {
                write!(f, "node {node}: fanin {slot} is a constant")
            }
            LintViolation::TrivialAnd { node } => {
                write!(
                    f,
                    "node {node}: trivial AND of a node with itself or its complement"
                )
            }
            LintViolation::DanglingAnd { node } => {
                write!(f, "node {node}: AND unreachable from every output")
            }
            LintViolation::OutputOutOfRange { output, node } => {
                write!(f, "output {output}: points outside the graph (node {node})")
            }
            LintViolation::HighFanout { node, fanout } => {
                write!(
                    f,
                    "node {node}: fanout {fanout} is at or above the threshold"
                )
            }
        }
    }
}

/// Checks every structural invariant of `aig`, dangling ANDs included,
/// returning all violations found (empty means clean). Never panics.
///
/// # Examples
///
/// ```
/// use cirlearn_aig::Aig;
/// use cirlearn_verify::lint;
///
/// let mut g = Aig::new();
/// let a = g.add_input("a");
/// let b = g.add_input("b");
/// let y = g.and(a, b);
/// g.add_output(y, "y");
/// assert!(lint(&g).is_empty());
/// ```
pub fn lint(aig: &Aig) -> Vec<LintViolation> {
    let mut violations = lint_structure(aig);
    let live = reachable(aig);
    violations.extend(
        aig.ands()
            .filter(|(node, _, _)| !live[node.index()])
            .map(|(node, _, _)| LintViolation::DanglingAnd { node: node.index() }),
    );
    violations
}

/// The structural half of [`lint`]: every check but the reachability
/// sweep, so dangling ANDs pass. Optimization passes legitimately
/// strand nodes mid-pipeline (reachable gate count is the metric), so
/// [`verify_pass`](crate::verify_pass) lints its results with this.
pub(crate) fn lint_structure(aig: &Aig) -> Vec<LintViolation> {
    let mut violations = Vec::new();
    let node_count = aig.node_count();
    let mut seen_pairs: HashMap<(u32, u32), usize> = HashMap::new();

    for (node, a, b) in aig.ands() {
        let id = node.index();
        let mut structurally_sound = true;
        for (slot, e) in [a, b].into_iter().enumerate() {
            let fanin = e.node().index();
            if fanin >= node_count {
                violations.push(LintViolation::FaninOutOfRange {
                    node: id,
                    slot,
                    fanin,
                });
                structurally_sound = false;
            } else if fanin >= id {
                violations.push(LintViolation::NonTopologicalFanin {
                    node: id,
                    slot,
                    fanin,
                });
                structurally_sound = false;
            }
        }
        if a.code() > b.code() {
            violations.push(LintViolation::UnorderedFanins { node: id });
        }
        if a == b || a == !b {
            violations.push(LintViolation::TrivialAnd { node: id });
        } else {
            for (slot, e) in [a, b].into_iter().enumerate() {
                if e.node() == NodeId::CONST {
                    violations.push(LintViolation::ConstantFanin { node: id, slot });
                }
            }
        }
        if structurally_sound {
            let key = if a.code() <= b.code() {
                (a.code(), b.code())
            } else {
                (b.code(), a.code())
            };
            if let Some(&first) = seen_pairs.get(&key) {
                violations.push(LintViolation::DuplicateFaninPair { node: id, first });
            } else {
                seen_pairs.insert(key, id);
            }
        }
    }

    for (position, (e, _)) in aig.outputs().iter().enumerate() {
        if e.node().index() >= node_count {
            violations.push(LintViolation::OutputOutOfRange {
                output: position,
                node: e.node().index(),
            });
        }
    }

    violations
}

/// Which nodes lie in the cone of at least one primary output, indexed
/// by node id. Out-of-range output references and fanins that break
/// the topological order are skipped, so this never panics.
pub(crate) fn reachable(aig: &Aig) -> Vec<bool> {
    let n = aig.node_count();
    let mut reachable = vec![false; n];
    for (edge, _) in aig.outputs() {
        if let Some(slot) = reachable.get_mut(edge.node().index()) {
            *slot = true;
        }
    }
    // Fanins precede their node, so one reverse sweep closes the cone:
    // by the time a node is visited, every path from an output to it
    // has already marked it.
    for index in (aig.num_inputs() + 1..n).rev() {
        if !reachable[index] {
            continue;
        }
        for edge in aig.fanins(NodeId::from_index(index)) {
            let fanin = edge.node().index();
            if fanin < index {
                reachable[fanin] = true;
            }
        }
    }
    reachable
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_aig::Edge;

    fn clean_aig() -> Aig {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let ab = g.and(a, b);
        let f = g.or(ab, c);
        g.add_output(f, "f");
        g
    }

    #[test]
    fn clean_graph_has_no_violations() {
        assert!(lint(&clean_aig()).is_empty());
    }

    #[test]
    fn detects_dangling_and_only_when_strict() {
        let mut g = clean_aig();
        let a = g.input_edge(0);
        let c = g.input_edge(2);
        let _stranded = g.and(a, c);
        let strict = lint(&g);
        assert_eq!(strict.len(), 1);
        assert!(matches!(strict[0], LintViolation::DanglingAnd { .. }));
        assert!(lint_structure(&g).is_empty());
    }

    #[test]
    fn detects_unordered_fanins() {
        let mut g = clean_aig();
        let node = g.ands().next().expect("has an AND").0;
        let [a, b] = g.fanins(node);
        g.set_fanin_unchecked(node, 0, b);
        g.set_fanin_unchecked(node, 1, a);
        let v = lint(&g);
        assert!(
            v.iter()
                .any(|v| matches!(v, LintViolation::UnorderedFanins { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn detects_non_topological_fanin_and_self_loop() {
        let mut g = clean_aig();
        let last = g.ands().last().expect("has ANDs").0;
        let first = g.ands().next().expect("has ANDs").0;
        // Redirect the first AND's fanin forward to the last AND.
        g.set_fanin_unchecked(first, 0, Edge::new(last, false));
        let v = lint(&g);
        assert!(
            v.iter()
                .any(|v| matches!(v, LintViolation::NonTopologicalFanin { slot: 0, .. })),
            "{v:?}"
        );
        // A self-loop is also non-topological.
        let mut g2 = clean_aig();
        g2.set_fanin_unchecked(first, 1, Edge::new(first, true));
        assert!(g2
            .ands()
            .next()
            .map(|(n, _, b)| n == b.node())
            .expect("has ANDs"));
        let v2 = lint(&g2);
        assert!(
            v2.iter()
                .any(|v| matches!(v, LintViolation::NonTopologicalFanin { slot: 1, .. })),
            "{v2:?}"
        );
    }

    #[test]
    fn detects_fanin_out_of_range() {
        let mut g = clean_aig();
        let node = g.ands().next().expect("has an AND").0;
        let bogus = Edge::from_code(2 * (g.node_count() as u32 + 5));
        g.set_fanin_unchecked(node, 1, bogus);
        let v = lint(&g);
        assert!(
            v.iter()
                .any(|v| matches!(v, LintViolation::FaninOutOfRange { slot: 1, .. })),
            "{v:?}"
        );
        assert!(v.iter().any(LintViolation::is_structural));
    }

    #[test]
    fn detects_duplicate_pair() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let ab = g.and(a, b);
        let other = g.and(!a, b);
        let y = g.and(ab, other);
        g.add_output(y, "y");
        // Turn `other` into a copy of `ab`'s fanin pair behind the
        // strash table's back.
        g.set_fanin_unchecked(other.node(), 0, a);
        g.set_fanin_unchecked(other.node(), 1, b);
        let v = lint(&g);
        assert!(
            v.iter().any(|v| matches!(
                v,
                LintViolation::DuplicateFaninPair { first, .. } if *first == ab.node().index()
            )),
            "{v:?}"
        );
    }

    #[test]
    fn mirrored_pair_counts_as_duplicate() {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 2);
        let first = g.and(inputs[0], inputs[1]);
        let second = g.and(first, inputs[0]);
        g.add_output(second, "f");
        // Swap the later node's fanins: same pair, mirrored order.
        g.set_fanin_unchecked(second.node(), 0, inputs[1]);
        g.set_fanin_unchecked(second.node(), 1, inputs[0]);
        let v = lint(&g);
        assert!(
            v.contains(&LintViolation::DuplicateFaninPair {
                node: second.node().index(),
                first: first.node().index(),
            }),
            "{v:?}"
        );
    }

    #[test]
    fn detects_constant_and_trivial_ands() {
        let mut g = clean_aig();
        let node = g.ands().next().expect("has an AND").0;
        let [a, _] = g.fanins(node);
        // x ∧ 1 — constant fanin.
        g.set_fanin_unchecked(node, 1, Edge::TRUE);
        let v = lint(&g);
        assert!(
            v.iter()
                .any(|v| matches!(v, LintViolation::ConstantFanin { slot: 1, .. })),
            "{v:?}"
        );
        // x ∧ ¬x — trivial AND.
        g.set_fanin_unchecked(node, 1, !a);
        let v = lint(&g);
        assert!(
            v.iter()
                .any(|v| matches!(v, LintViolation::TrivialAnd { .. })),
            "{v:?}"
        );
        // x ∧ x — also trivial.
        g.set_fanin_unchecked(node, 1, a);
        let v = lint(&g);
        assert!(
            v.iter()
                .any(|v| matches!(v, LintViolation::TrivialAnd { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn detects_output_out_of_range() {
        let mut g = clean_aig();
        let bogus = Edge::from_code(2 * (g.node_count() as u32 + 1) + 1);
        g.set_output_unchecked(0, bogus);
        let v = lint(&g);
        assert!(
            v.iter()
                .any(|v| matches!(v, LintViolation::OutputOutOfRange { output: 0, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn violations_display_node_ids() {
        let mut g = clean_aig();
        let node = g.ands().next().expect("has an AND").0;
        g.set_fanin_unchecked(node, 1, Edge::TRUE);
        let v = lint(&g);
        let text = v[0].to_string();
        assert!(text.contains(&node.index().to_string()), "{text}");
        assert_eq!(v[0].node(), node.index());
    }

    #[test]
    fn lint_never_panics_on_corruption() {
        // Even a graph whose output points past the end and whose
        // fanins cycle must produce a report, not a panic.
        let mut g = clean_aig();
        let first = g.ands().next().expect("has ANDs").0;
        g.set_fanin_unchecked(first, 0, Edge::from_code(9999));
        g.set_output_unchecked(0, Edge::from_code(8888));
        let v = lint(&g);
        assert!(!v.is_empty());
    }
}
