//! Static analysis: the strict linter's findings, plus what one walk
//! over a well-formed graph measures — high fanout, levels, dead ANDs
//! and output cone sizes.
//!
//! Every finding is a [`LintViolation`] on the shared [`Severity`]
//! scale. The dead-node and duplicate-pair findings are the linter's
//! own `DanglingAnd` and `DuplicateFaninPair`.

use std::cmp::Reverse;

use cirlearn_aig::Aig;

use crate::lint::{lint, reachable, LintViolation, Severity};

/// The checks in the order their findings are listed when severity and
/// node tie (see [`LintViolation::analysis`]).
const ANALYSES: [&str; 4] = ["lint", "dead", "dup", "metrics"];

/// A structural snapshot of one AIG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    /// Primary inputs.
    pub num_inputs: usize,
    /// Primary outputs.
    pub num_outputs: usize,
    /// Stored AND nodes (dead or alive).
    pub and_count: usize,
    /// AND nodes reachable from at least one output.
    pub live_ands: usize,
    /// Stored minus live: the dead-node count.
    pub dead_ands: usize,
    /// Longest input→output path in AND gates.
    pub depth: usize,
    /// The largest fanout in the graph.
    pub max_fanout: usize,
    /// The node carrying the largest fanout (the last one on a tie;
    /// `None` when nothing is referenced).
    pub max_fanout_node: Option<usize>,
    /// Per-output cone sizes in AND gates.
    pub output_cones: Vec<usize>,
}

/// The outcome of analyzing one graph.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All findings: most severe first, then by node.
    pub findings: Vec<LintViolation>,
    /// Structural snapshot; `None` when the graph was too broken to
    /// walk (structural lint errors present).
    pub metrics: Option<Metrics>,
}

impl Analysis {
    /// How many findings sit at or above `severity`.
    pub fn count_at_least(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity() >= severity)
            .count()
    }
}

/// Analyzes one graph: strict lint first, then — if the graph is
/// structurally safe to walk — metrics and a
/// [`LintViolation::HighFanout`] for every node with at least
/// `fanout_threshold` references (0 disables that check).
///
/// On a structurally broken graph only the linter's other findings are
/// trustworthy, so its dead and duplicate findings are dropped too.
///
/// On a graph read by `Aig::from_aiger_ascii` duplicate pairs,
/// constant fanins and trivial ANDs never fire: the import strashes
/// and constant-folds every AND (see [`LintViolation`]). These findings
/// serve graphs broken in memory.
///
/// # Examples
///
/// ```
/// use cirlearn_aig::Aig;
/// use cirlearn_verify::{analyze, Severity};
///
/// let mut g = Aig::new();
/// let a = g.add_input("a");
/// let b = g.add_input("b");
/// let y = g.and(a, b);
/// let _stranded = g.and(!a, b);
/// g.add_output(y, "y");
/// let analysis = analyze(&g, 64);
/// assert_eq!(analysis.count_at_least(Severity::Warning), 1);
/// assert_eq!(analysis.findings[0].analysis(), "dead");
/// assert_eq!(analysis.metrics.unwrap().dead_ands, 1);
/// ```
pub fn analyze(aig: &Aig, fanout_threshold: usize) -> Analysis {
    let mut findings = lint(aig);
    let metrics = if findings.iter().any(LintViolation::is_structural) {
        findings.retain(|f| {
            !matches!(
                f,
                LintViolation::DanglingAnd { .. } | LintViolation::DuplicateFaninPair { .. }
            )
        });
        None
    } else {
        Some(walk(aig, fanout_threshold, &mut findings))
    };
    findings.sort_by_key(|f| {
        let rank = ANALYSES.iter().position(|&a| a == f.analysis());
        (Reverse(f.severity()), f.node(), rank)
    });
    Analysis { findings, metrics }
}

/// One walk over a well-formed graph: forward for fanout and levels,
/// backward for reachability. Pushes the high-fanout findings and
/// returns the metrics.
fn walk(aig: &Aig, fanout_threshold: usize, findings: &mut Vec<LintViolation>) -> Metrics {
    let n = aig.node_count();
    let mut fanout = vec![0usize; n];
    let mut level = vec![0usize; n];
    for (node, a, b) in aig.ands() {
        let (a, b) = (a.node().index(), b.node().index());
        level[node.index()] = 1 + level[a].max(level[b]);
        fanout[a] += 1;
        fanout[b] += 1;
    }
    for (edge, _) in aig.outputs() {
        fanout[edge.node().index()] += 1;
    }
    let live = reachable(aig);

    let live_ands = aig.ands().filter(|(node, _, _)| live[node.index()]).count();
    if fanout_threshold > 0 {
        findings.extend(
            fanout
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count >= fanout_threshold)
                .map(|(node, &count)| LintViolation::HighFanout {
                    node,
                    fanout: count,
                }),
        );
    }

    let (max_fanout_node, max_fanout) = fanout
        .iter()
        .copied()
        .enumerate()
        .max_by_key(|&(_, count)| count)
        .unwrap_or((0, 0));
    Metrics {
        num_inputs: aig.num_inputs(),
        num_outputs: aig.num_outputs(),
        and_count: aig.and_count(),
        live_ands,
        dead_ands: aig.and_count() - live_ands,
        depth: aig
            .outputs()
            .iter()
            .map(|(edge, _)| level[edge.node().index()])
            .max()
            .unwrap_or(0),
        max_fanout,
        max_fanout_node: (max_fanout > 0).then_some(max_fanout_node),
        output_cones: (0..aig.num_outputs())
            .map(|position| aig.output_cone_size(position))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_aig::Edge;

    fn sample() -> Aig {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs("x", 3);
        let x = aig.xor(inputs[0], inputs[1]);
        let y = aig.mux(inputs[2], x, inputs[0]);
        aig.add_output(y, "f");
        aig
    }

    #[test]
    fn clean_graph_analyzes_clean() {
        let analysis = analyze(&sample(), 64);
        assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
        assert!(analysis.metrics.is_some());
    }

    #[test]
    fn findings_sort_most_severe_first() {
        let mut aig = sample();
        // A dead node (warning) plus an out-of-range fanin (error).
        let inputs: Vec<Edge> = (0..2).map(|i| aig.input_edge(i)).collect();
        let _dead = aig.and(!inputs[0], !inputs[1]);
        let node = aig.ands().next().map(|(n, _, _)| n).unwrap();
        aig.set_fanin_unchecked(node, 0, Edge::from_code(9999));
        let analysis = analyze(&aig, 64);
        assert!(analysis.metrics.is_none(), "broken graph skips metrics");
        assert_eq!(
            analysis.findings.first().map(LintViolation::severity),
            Some(Severity::Error)
        );
        assert!(
            analysis.findings.iter().all(|f| f.analysis() == "lint"),
            "a broken graph reports no dead or duplicate nodes: {:?}",
            analysis.findings
        );
    }

    #[test]
    fn structurally_safe_defects_get_full_reports() {
        let mut aig = sample();
        let dead_edge = {
            let inputs: Vec<Edge> = (0..2).map(|i| aig.input_edge(i)).collect();
            aig.and(!inputs[0], !inputs[1])
        };
        let analysis = analyze(&aig, 64);
        assert_eq!(analysis.count_at_least(Severity::Error), 0);
        assert_eq!(analysis.count_at_least(Severity::Warning), 1);
        assert_eq!(
            analysis.findings[0],
            LintViolation::DanglingAnd {
                node: dead_edge.node().index()
            }
        );
        assert_eq!(analysis.metrics.map(|m| m.dead_ands), Some(1));
    }

    #[test]
    fn severity_parses_and_orders() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!("warning".parse::<Severity>().unwrap(), Severity::Warning);
        assert_eq!("warn".parse::<Severity>().unwrap(), Severity::Warning);
        assert!("fatal".parse::<Severity>().is_err());
    }

    #[test]
    fn metrics_of_a_small_circuit() {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs("x", 2);
        let x = aig.xor(inputs[0], inputs[1]);
        aig.add_output(x, "f");
        let m = analyze(&aig, 64).metrics.unwrap();
        assert_eq!(m.num_inputs, 2);
        assert_eq!(m.num_outputs, 1);
        assert_eq!(m.and_count, 3);
        assert_eq!(m.live_ands, 3);
        assert_eq!(m.dead_ands, 0);
        assert_eq!(m.depth, aig.depth());
        assert_eq!(m.output_cones, vec![3]);
        // Each input feeds both first-level ANDs of the xor.
        assert_eq!(m.max_fanout, 2);
    }

    #[test]
    fn star_node_trips_the_fanout_threshold() {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs("x", 5);
        let hub = aig.and(inputs[0], inputs[1]);
        for (i, &input) in inputs[2..].iter().enumerate() {
            let leaf = aig.and(hub, input);
            aig.add_output(leaf, format!("f{i}"));
        }
        let hot = |threshold| -> Vec<LintViolation> {
            analyze(&aig, threshold)
                .findings
                .into_iter()
                .filter(|f| f.analysis() == "metrics")
                .collect()
        };
        let findings = hot(3);
        assert!(findings.iter().any(|f| f.node() == hub.node().index()));
        assert!(findings.iter().all(|f| f.severity() == Severity::Info));
        assert!(hot(100).is_empty());
        assert!(hot(0).is_empty(), "0 disables the check");
    }

    #[test]
    fn dead_ands_show_up_in_the_snapshot() {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs("x", 2);
        let live = aig.and(inputs[0], inputs[1]);
        let _dead = aig.and(live, !inputs[0]);
        aig.add_output(live, "f");
        let m = analyze(&aig, 64).metrics.unwrap();
        assert_eq!(m.and_count, 2);
        assert_eq!(m.live_ands, 1);
        assert_eq!(m.dead_ands, 1);
    }
}
