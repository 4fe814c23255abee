//! Free-binary-decision-tree circuit construction (paper §IV-D,
//! Algorithm 2).
//!
//! The learner recursively cofactors the unknown function, always on
//! the *most significant input* (the free input with the highest
//! dependency count at the current tree node), exploring the tree in
//! levelized (breadth-first) order. A node whose sampled `TruthRatio`
//! approaches 0% or 100% becomes a constant leaf; the learned function
//! is the disjunction of the constant-1 leaf cubes — or, per the
//! onset/offset selection trick, the complement of the constant-0
//! cubes when the output is biased toward 1.
//!
//! Three additional paper tricks are implemented here:
//!
//! * **conquering small functions** — supports of ≤ 18 inputs are
//!   enumerated exhaustively instead ([`learn_exhaustive`]),
//! * **onset/offset selection** — whichever polarity has fewer
//!   minterms is learned,
//! * **early stopping** — on budget exhaustion pending nodes become
//!   majority-vote leaves, so a partial, still-accurate circuit is
//!   always available.

use std::collections::VecDeque;
use std::time::Instant;

use cirlearn_logic::{Cube, Sop, TruthTable, Var};
use cirlearn_oracle::Oracle;
use cirlearn_telemetry::json::Json;
use cirlearn_telemetry::{Counter, Hist, Telemetry};
use rand::rngs::StdRng;

use crate::budget::Budget;
use crate::sampling::{pattern_sampling, SamplingConfig};
use cirlearn_logic::Assignment;

/// A learned two-level cover, possibly representing the complement.
///
/// `complemented == true` means the function is `NOT sop` (the cover
/// collects the offset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnedCover {
    /// The cover over primary-input positions.
    pub sop: Sop,
    /// Whether the function is the complement of `sop`.
    pub complemented: bool,
}

impl LearnedCover {
    /// Evaluates the learned function under per-variable values.
    pub fn eval_with<F: FnMut(Var) -> bool>(&self, value_of: F) -> bool {
        self.sop.eval_with(value_of) != self.complemented
    }

    /// The constant-false cover.
    pub fn zero() -> Self {
        LearnedCover {
            sop: Sop::zero(),
            complemented: false,
        }
    }
}

/// Tree exploration order (paper §IV-D: levelized exploration is one
/// of the method's design choices — "it is more beneficial to explore
/// the tree evenly rather than to focus on a specific branch").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exploration {
    /// Breadth-first (the paper's levelized order): under early
    /// stopping every subtree is refined to a similar depth.
    Levelized,
    /// Depth-first: drills one branch to leaves first; under a budget
    /// the untouched branches degrade to root-level majority guesses.
    DepthFirst,
}

/// Configuration for [`build_fbdt`].
#[derive(Debug, Clone)]
pub struct FbdtConfig {
    /// Per-node sampling effort (the paper uses r = 60).
    pub node_sampling: SamplingConfig,
    /// Leaf tolerance: a node with `TruthRatio ≤ ε` or `≥ 1 − ε` is
    /// declared constant (the paper's early-stopping deviation; 0
    /// means only perfectly pure samples become leaves).
    pub epsilon: f64,
    /// Hard cap on expanded nodes, a second budget axis besides time.
    pub max_nodes: usize,
    /// Hard cap on oracle queries for this tree (`None` = unlimited) —
    /// the query-count analogue of the contest's wall-clock limit,
    /// making budgeted runs machine-independent.
    pub max_queries: Option<u64>,
    /// Support size up to which [`learn_exhaustive`] is used instead of
    /// tree construction (the paper uses 18).
    pub exhaustive_threshold: usize,
    /// Tree exploration order.
    pub exploration: Exploration,
    /// Whether to pick onset or offset cubes by the observed truth
    /// ratio (paper §IV-D trick 2); `false` always collects the onset.
    pub onset_offset_selection: bool,
}

impl Default for FbdtConfig {
    fn default() -> Self {
        FbdtConfig {
            node_sampling: SamplingConfig::node_default(),
            epsilon: 0.02,
            max_nodes: 20_000,
            max_queries: None,
            exhaustive_threshold: 18,
            exploration: Exploration::Levelized,
            onset_offset_selection: true,
        }
    }
}

impl FbdtConfig {
    /// A reduced-effort configuration for tests.
    pub fn fast() -> Self {
        FbdtConfig {
            node_sampling: SamplingConfig {
                rounds: 48,
                ratios: vec![0.5, 0.25, 0.75],
            },
            epsilon: 0.01,
            max_nodes: 4_000,
            max_queries: None,
            exhaustive_threshold: 12,
            exploration: Exploration::Levelized,
            onset_offset_selection: true,
        }
    }
}

/// Statistics of one tree construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FbdtStats {
    /// Internal nodes expanded (splits performed).
    pub splits: usize,
    /// Leaves declared.
    pub leaves: usize,
    /// Leaves forced by budget exhaustion (majority-approximated).
    pub forced_leaves: usize,
    /// Oracle queries spent.
    pub queries: u64,
}

impl FbdtStats {
    /// Adds these statistics onto the telemetry counters
    /// (`fbdt.splits`, `fbdt.leaves`, `fbdt.forced_leaves`).
    pub fn record(&self, telemetry: &cirlearn_telemetry::Telemetry) {
        telemetry.add(Counter::FbdtSplits, self.splits as u64);
        telemetry.add(Counter::FbdtLeaves, self.leaves as u64);
        telemetry.add(Counter::FbdtForcedLeaves, self.forced_leaves as u64);
    }
}

/// A serializable snapshot of an in-progress tree construction.
///
/// Captures everything [`FbdtBuilder::restore`] needs to continue the
/// construction bit-identically: the collected onset/offset cubes, the
/// unexpanded frontier in queue order, and the running statistics.
/// The builder's configuration is *not* part of the snapshot — a
/// resumed run re-derives it from the (fingerprint-checked) learner
/// config, the same way the original segment did.
#[derive(Debug, Clone, PartialEq)]
pub struct FbdtSnapshot {
    /// Output being learned.
    pub output: usize,
    /// The (approximate) support over which the tree splits.
    pub support: Vec<usize>,
    /// Unconstrained truth ratio from support identification.
    pub truth_ratio_hint: f64,
    /// Whether offset cubes are collected (cover complemented).
    pub collect_offset: bool,
    /// Constant-1 leaf cubes collected so far.
    pub onset: Vec<Cube>,
    /// Constant-0 leaf cubes collected so far.
    pub offset: Vec<Cube>,
    /// Unexpanded nodes, in queue order (front first).
    pub frontier: Vec<Cube>,
    /// Splits performed so far.
    pub splits: usize,
    /// Leaves declared so far.
    pub leaves: usize,
    /// Budget-forced leaves so far.
    pub forced_leaves: usize,
    /// Oracle queries spent on this tree so far.
    pub queries: u64,
}

/// Incremental FBDT construction: the loop of [`build_fbdt`] exposed
/// one node expansion at a time, so the learner can suspend between
/// steps, snapshot the frontier into a checkpoint, and resume later.
#[derive(Debug)]
pub struct FbdtBuilder {
    output: usize,
    support: Vec<usize>,
    truth_ratio_hint: f64,
    collect_offset: bool,
    config: FbdtConfig,
    onset: Vec<Cube>,
    offset: Vec<Cube>,
    queue: VecDeque<Cube>,
    stats: FbdtStats,
    /// Pattern storage reused by every node's sampling; scratch only,
    /// so it is not part of [`FbdtSnapshot`].
    block: Vec<Assignment>,
}

impl FbdtBuilder {
    /// Starts a fresh tree rooted at the unconstrained cube.
    ///
    /// `truth_ratio_hint` is the unconstrained truth ratio from support
    /// identification; it drives the onset/offset selection (more 1s →
    /// collect offset cubes).
    pub fn new(
        output: usize,
        support: &[usize],
        truth_ratio_hint: f64,
        config: &FbdtConfig,
    ) -> Self {
        let mut queue = VecDeque::new();
        queue.push_back(Cube::top());
        FbdtBuilder {
            output,
            support: support.to_vec(),
            truth_ratio_hint,
            collect_offset: config.onset_offset_selection && truth_ratio_hint > 0.5,
            config: config.clone(),
            onset: Vec::new(),
            offset: Vec::new(),
            queue,
            stats: FbdtStats::default(),
            block: Vec::new(),
        }
    }

    /// Rebuilds a suspended tree from its checkpoint snapshot.
    ///
    /// `collect_offset` is taken from the snapshot (not re-derived from
    /// the config) so the cover polarity decided by the first segment
    /// is honored verbatim.
    pub fn restore(snapshot: FbdtSnapshot, config: &FbdtConfig) -> Self {
        FbdtBuilder {
            output: snapshot.output,
            support: snapshot.support,
            truth_ratio_hint: snapshot.truth_ratio_hint,
            collect_offset: snapshot.collect_offset,
            config: config.clone(),
            onset: snapshot.onset,
            offset: snapshot.offset,
            queue: snapshot.frontier.into(),
            stats: FbdtStats {
                splits: snapshot.splits,
                leaves: snapshot.leaves,
                forced_leaves: snapshot.forced_leaves,
                queries: snapshot.queries,
            },
            block: Vec::new(),
        }
    }

    /// Captures the construction state for checkpointing.
    pub fn snapshot(&self) -> FbdtSnapshot {
        FbdtSnapshot {
            output: self.output,
            support: self.support.clone(),
            truth_ratio_hint: self.truth_ratio_hint,
            collect_offset: self.collect_offset,
            onset: self.onset.clone(),
            offset: self.offset.clone(),
            frontier: self.queue.iter().cloned().collect(),
            splits: self.stats.splits,
            leaves: self.stats.leaves,
            forced_leaves: self.stats.forced_leaves,
            queries: self.stats.queries,
        }
    }

    /// Output being learned.
    pub fn output(&self) -> usize {
        self.output
    }

    /// Running statistics.
    pub fn stats(&self) -> &FbdtStats {
        &self.stats
    }

    /// Expands one tree node: samples the next frontier cube and
    /// declares it a leaf or splits it. Returns `false` when the
    /// frontier was already empty (nothing left to do).
    ///
    /// Per-node expansion cost lands in the `fbdt.node_ns` histogram,
    /// each expansion emits a `node` event (to the trace stream and the
    /// flight recorder), and queries issued during node sampling are
    /// tagged with the current tree depth in the attribution ledger;
    /// pass [`Telemetry::disabled`] to observe nothing.
    pub fn step<O: Oracle + ?Sized>(
        &mut self,
        oracle: &mut O,
        budget: &Budget,
        rng: &mut StdRng,
        telemetry: &Telemetry,
    ) -> bool {
        let Some(cube) = (match self.config.exploration {
            Exploration::Levelized => self.queue.pop_front(),
            Exploration::DepthFirst => self.queue.pop_back(),
        }) else {
            return false;
        };
        let free: Vec<usize> = self
            .support
            .iter()
            .copied()
            .filter(|&i| !cube.contains_var(Var::new(i as u32)))
            .collect();
        let depth = cube.literals().len();
        telemetry.set_fbdt_depth(Some(depth as u64));
        let node_start = Instant::now();
        let node = pattern_sampling(
            oracle,
            self.output,
            &cube,
            &free,
            &self.config.node_sampling,
            rng,
            &mut self.block,
        );
        self.stats.queries += node.queries;

        let disposition;
        if node.truth_ratio >= 1.0 - self.config.epsilon {
            self.onset.push(cube);
            self.stats.leaves += 1;
            disposition = "leaf_one";
        } else if node.truth_ratio <= self.config.epsilon {
            self.offset.push(cube);
            self.stats.leaves += 1;
            disposition = "leaf_zero";
        } else {
            let out_of_budget = budget.exhausted()
                || self.stats.splits >= self.config.max_nodes
                || self
                    .config
                    .max_queries
                    .is_some_and(|cap| self.stats.queries >= cap);
            let split = if out_of_budget || free.is_empty() {
                None
            } else {
                node.most_significant(&free)
            };
            match split {
                Some(i) => {
                    self.stats.splits += 1;
                    let v = Var::new(i as u32);
                    // panic-ok: `v` comes from `free`, which holds only
                    // variables the cube leaves unconstrained, so
                    // `and_literal` cannot conflict (Algorithm 2 splits
                    // on fresh variables by construction).
                    self.queue
                        .push_back(cube.and_literal(v.negative()).expect("fresh variable"));
                    // panic-ok: same invariant as the negative branch.
                    self.queue
                        .push_back(cube.and_literal(v.positive()).expect("fresh variable"));
                    disposition = "split";
                }
                None => {
                    // Majority leaf. Forced when a budget ran out
                    // (Algorithm 2, timeout arm); otherwise the impure
                    // node has no free or significant support variable
                    // left, which is missed support, not budget.
                    if node.truth_ratio > 0.5 {
                        self.onset.push(cube);
                    } else {
                        self.offset.push(cube);
                    }
                    self.stats.leaves += 1;
                    if out_of_budget {
                        self.stats.forced_leaves += 1;
                        disposition = "forced_leaf";
                    } else {
                        disposition = "no_split_leaf";
                    }
                }
            }
        }
        if telemetry.is_enabled() {
            let node_elapsed = node_start.elapsed();
            telemetry.record_time(Hist::FbdtNodeNs, node_elapsed);
            telemetry.trace(
                "node",
                &[
                    ("output", Json::from(self.output)),
                    ("depth", Json::from(depth)),
                    ("truth_ratio", Json::from(node.truth_ratio)),
                    ("queries", Json::from(node.queries)),
                    ("disposition", Json::from(disposition)),
                    (
                        "elapsed_us",
                        Json::from(u64::try_from(node_elapsed.as_micros()).unwrap_or(u64::MAX)),
                    ),
                ],
            );
        }
        true
    }

    /// Abandons the remaining frontier: each unexpanded region falls
    /// back to the cover's default polarity, which (by onset/offset
    /// selection) is the output's global majority value — the same
    /// guess a budget-forced leaf would make with zero extra samples.
    /// Used when the wall is spent to turn a half-built tree into a
    /// usable cover immediately.
    pub fn finish_now(&mut self) {
        let dropped = self.queue.len();
        self.stats.leaves += dropped;
        self.stats.forced_leaves += dropped;
        self.queue.clear();
    }

    /// Assembles the learned cover from the collected cubes.
    ///
    /// Call after the frontier is exhausted (or [`finish_now`]
    /// abandoned it); any cubes still queued are dropped to the default
    /// polarity *without* being counted as forced leaves.
    ///
    /// [`finish_now`]: FbdtBuilder::finish_now
    pub fn finish(self) -> (LearnedCover, FbdtStats) {
        let mut cover = if self.collect_offset {
            LearnedCover {
                sop: Sop::from_cubes(self.offset),
                complemented: true,
            }
        } else {
            LearnedCover {
                sop: Sop::from_cubes(self.onset),
                complemented: false,
            }
        };
        cover.sop.make_single_cube_minimal();
        (cover, self.stats)
    }
}

/// Builds the FBDT for `output` over the given (approximate) support
/// and returns the learned cover plus statistics.
///
/// `truth_ratio_hint` is the unconstrained truth ratio from support
/// identification; it drives the onset/offset selection (more 1s →
/// collect offset cubes).
///
/// This is the run-to-completion convenience wrapper over
/// [`FbdtBuilder`]; the learner drives the builder directly so it can
/// checkpoint between node expansions.
#[allow(clippy::too_many_arguments)]
pub fn build_fbdt<O: Oracle + ?Sized>(
    oracle: &mut O,
    output: usize,
    support: &[usize],
    truth_ratio_hint: f64,
    config: &FbdtConfig,
    budget: &Budget,
    rng: &mut StdRng,
    telemetry: &Telemetry,
) -> (LearnedCover, FbdtStats) {
    let mut builder = FbdtBuilder::new(output, support, truth_ratio_hint, config);
    while builder.step(oracle, budget, rng, telemetry) {}
    telemetry.set_fbdt_depth(None);
    builder.finish()
}

/// Conquers a small-support function exhaustively (paper §IV-D trick 1):
/// enumerates all `2^|support|` assignments in one batch, builds the
/// exact truth table, and returns the smaller of the onset and offset
/// ISOP covers.
///
/// Inputs outside the support are fixed to random values — by the
/// support assumption they do not affect the output.
///
/// # Panics
///
/// Panics if `support.len() > 24` (batch would not fit a truth table).
pub fn learn_exhaustive<O: Oracle + ?Sized>(
    oracle: &mut O,
    output: usize,
    support: &[usize],
    rng: &mut StdRng,
) -> (LearnedCover, u64) {
    let k = support.len();
    assert!(k <= 24, "exhaustive enumeration limited to 24 inputs");
    let n = oracle.num_inputs();
    let base = Assignment::random(n, rng);
    let patterns: Vec<Assignment> = (0..1u64 << k)
        .map(|m| {
            let mut a = base.clone();
            for (bit, &pos) in support.iter().enumerate() {
                a.set(Var::new(pos as u32), m >> bit & 1 == 1);
            }
            a
        })
        .collect();
    let outs = oracle.query_batch(&patterns);
    let mut tt = TruthTable::zeros(k).expect("k <= 24");
    for (m, row) in outs.iter().enumerate() {
        if row[output] {
            tt.set(m as u64, true);
        }
    }
    // Onset/offset selection: take the smaller cover.
    let onset = tt.isop();
    let offset = (!tt).isop();
    let (local, complemented) = if cover_cost(&offset) < cover_cost(&onset) {
        (offset, true)
    } else {
        (onset, false)
    };
    // Remap local variables x_bit -> global input positions.
    let sop = remap_sop(&local, support);
    (LearnedCover { sop, complemented }, 1u64 << k)
}

fn cover_cost(sop: &Sop) -> usize {
    sop.cubes().len() * 100 + sop.literal_count()
}

/// Remaps cube variables from local indices to global positions.
fn remap_sop(sop: &Sop, support: &[usize]) -> Sop {
    sop.cubes()
        .iter()
        .map(|c| {
            Cube::from_literals(c.literals().iter().map(|l| {
                let pos = support[l.var().index() as usize];
                Var::new(pos as u32).literal(l.polarity())
            }))
            .expect("distinct variables stay distinct")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::seeded_rng;
    use cirlearn_aig::Aig;
    use cirlearn_oracle::CircuitOracle;

    /// Checks a learned cover against a hidden circuit exhaustively.
    fn exact_match(oracle: &CircuitOracle, cover: &LearnedCover, n: usize) -> bool {
        for m in 0..1u64 << n {
            let bits: Vec<bool> = (0..n).map(|k| m >> k & 1 == 1).collect();
            let want = oracle.reveal().eval_bits(&bits)[0];
            let got = cover.eval_with(|v| bits[v.index() as usize]);
            if want != got {
                return false;
            }
        }
        true
    }

    fn oracle_of(
        f: impl Fn(&mut Aig, &[cirlearn_aig::Edge]) -> cirlearn_aig::Edge,
        n: usize,
    ) -> CircuitOracle {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", n);
        let y = f(&mut g, &inputs);
        g.add_output(y, "y");
        CircuitOracle::new(g)
    }

    #[test]
    fn fbdt_learns_conjunction() {
        let mut o = oracle_of(|g, i| g.and(i[1], i[3]), 6);
        let mut rng = seeded_rng(21);
        let (cover, stats) = build_fbdt(
            &mut o,
            0,
            &[1, 3],
            0.25,
            &FbdtConfig::fast(),
            &Budget::unlimited(),
            &mut rng,
            &Telemetry::disabled(),
        );
        assert!(exact_match(&o, &cover, 6), "cover: {:?}", cover);
        assert!(stats.splits >= 1);
        assert_eq!(stats.forced_leaves, 0);
        assert!(!cover.complemented, "AND is 1-sparse: onset collected");
    }

    #[test]
    fn fbdt_learns_disjunction_as_offset() {
        // OR of 3 inputs is 1-heavy: the offset (single cube) is
        // collected and the cover complemented.
        let mut o = oracle_of(|g, i| g.or_many(&i[..3]), 5);
        let mut rng = seeded_rng(22);
        let (cover, _) = build_fbdt(
            &mut o,
            0,
            &[0, 1, 2],
            0.875,
            &FbdtConfig::fast(),
            &Budget::unlimited(),
            &mut rng,
            &Telemetry::disabled(),
        );
        assert!(cover.complemented);
        assert!(exact_match(&o, &cover, 5));
        assert_eq!(cover.sop.cubes().len(), 1);
    }

    #[test]
    fn fbdt_learns_xor_exactly() {
        let mut o = oracle_of(
            |g, i| {
                let t = g.xor(i[0], i[2]);
                g.xor(t, i[4])
            },
            5,
        );
        let mut rng = seeded_rng(23);
        let (cover, stats) = build_fbdt(
            &mut o,
            0,
            &[0, 2, 4],
            0.5,
            &FbdtConfig::fast(),
            &Budget::unlimited(),
            &mut rng,
            &Telemetry::disabled(),
        );
        assert!(exact_match(&o, &cover, 5));
        // XOR of 3 vars: the tree must split on all of them: 1+2+4 = 7 splits.
        assert_eq!(stats.splits, 7);
        assert_eq!(stats.leaves, 8);
    }

    #[test]
    fn constant_functions_are_single_leaves() {
        let mut o = oracle_of(|_, _| cirlearn_aig::Edge::TRUE, 4);
        let mut rng = seeded_rng(24);
        let (cover, stats) = build_fbdt(
            &mut o,
            0,
            &[],
            1.0,
            &FbdtConfig::fast(),
            &Budget::unlimited(),
            &mut rng,
            &Telemetry::disabled(),
        );
        assert_eq!(stats.splits, 0);
        assert_eq!(stats.leaves, 1);
        assert!(exact_match(&o, &cover, 4));
    }

    #[test]
    fn zero_budget_forces_majority_leaf() {
        let mut o = oracle_of(|g, i| g.and(i[0], i[1]), 4);
        let mut rng = seeded_rng(25);
        let (cover, stats) = build_fbdt(
            &mut o,
            0,
            &[0, 1],
            0.25,
            &FbdtConfig::fast(),
            &Budget::new(std::time::Duration::ZERO),
            &mut rng,
            &Telemetry::disabled(),
        );
        assert_eq!(stats.forced_leaves, 1);
        assert_eq!(stats.splits, 0);
        // Majority of an AND is 0: the learned cover is constant 0 —
        // which is still 75% accurate.
        assert!(!cover.eval_with(|_| true));
    }

    #[test]
    fn missed_support_leaf_is_not_a_forced_leaf() {
        // XOR of inputs 0 and 1 learned over the support {0}: both
        // children of the root split stay impure with no variable left
        // to split on. They become majority leaves, but no budget ran
        // out, so none of them counts as forced.
        let mut o = oracle_of(|g, i| g.xor(i[0], i[1]), 4);
        let mut rng = seeded_rng(26);
        let (_, stats) = build_fbdt(
            &mut o,
            0,
            &[0],
            0.5,
            &FbdtConfig::fast(),
            &Budget::unlimited(),
            &mut rng,
            &Telemetry::disabled(),
        );
        assert_eq!((stats.splits, stats.leaves), (1, 2));
        assert_eq!(stats.forced_leaves, 0);
    }

    #[test]
    fn exhaustive_learns_exactly_and_picks_smaller_polarity() {
        // 1-heavy function: offset cover is smaller.
        let mut o = oracle_of(|g, i| g.or_many(&i[..4]), 6);
        let mut rng = seeded_rng(26);
        let (cover, queries) = learn_exhaustive(&mut o, 0, &[0, 1, 2, 3], &mut rng);
        assert_eq!(queries, 16);
        assert!(cover.complemented);
        assert!(exact_match(&o, &cover, 6));
    }

    #[test]
    fn exhaustive_handles_empty_support() {
        let mut o = oracle_of(|_, _| cirlearn_aig::Edge::FALSE, 3);
        let mut rng = seeded_rng(27);
        let (cover, queries) = learn_exhaustive(&mut o, 0, &[], &mut rng);
        assert_eq!(queries, 1);
        assert!(exact_match(&o, &cover, 3));
    }

    #[test]
    fn suspend_snapshot_restore_is_bit_identical() {
        // Reference: uninterrupted run.
        let mut o = oracle_of(
            |g, i| {
                let t = g.xor(i[0], i[2]);
                g.xor(t, i[4])
            },
            5,
        );
        let cfg = FbdtConfig::fast();
        let mut rng = seeded_rng(23);
        let (want_cover, want_stats) = build_fbdt(
            &mut o,
            0,
            &[0, 2, 4],
            0.5,
            &cfg,
            &Budget::unlimited(),
            &mut rng,
            &Telemetry::disabled(),
        );

        // Suspend after k steps, serialize the frontier + RNG words,
        // restore into a fresh builder and run to completion: the
        // result must be identical for every suspension point.
        for k in 0..16 {
            let mut o = oracle_of(
                |g, i| {
                    let t = g.xor(i[0], i[2]);
                    g.xor(t, i[4])
                },
                5,
            );
            let mut rng = seeded_rng(23);
            let mut builder = FbdtBuilder::new(0, &[0, 2, 4], 0.5, &cfg);
            for _ in 0..k {
                builder.step(
                    &mut o,
                    &Budget::unlimited(),
                    &mut rng,
                    &Telemetry::disabled(),
                );
            }
            let snapshot = builder.snapshot();
            let rng_words = rng.state();
            drop(builder);

            // The original `rng` is shadowed below: the restored run
            // may only see the serialized state words.
            let mut restored = FbdtBuilder::restore(snapshot, &cfg);
            let mut rng = rand::rngs::StdRng::from_state(rng_words);
            while restored.step(
                &mut o,
                &Budget::unlimited(),
                &mut rng,
                &Telemetry::disabled(),
            ) {}
            let (cover, stats) = restored.finish();
            assert_eq!(cover, want_cover, "suspended at step {k}");
            assert_eq!(stats, want_stats, "suspended at step {k}");
        }
    }

    #[test]
    fn finish_now_degrades_frontier_to_majority() {
        // 1-heavy OR: after a couple of steps abandon the frontier; the
        // cover must still predict the majority value everywhere the
        // frontier was dropped.
        let mut o = oracle_of(|g, i| g.or_many(&i[..3]), 4);
        let mut rng = seeded_rng(31);
        let cfg = FbdtConfig::fast();
        let mut builder = FbdtBuilder::new(0, &[0, 1, 2], 0.875, &cfg);
        builder.step(
            &mut o,
            &Budget::unlimited(),
            &mut rng,
            &Telemetry::disabled(),
        );
        let before = builder.stats().clone();
        let frontier = builder.snapshot().frontier.len();
        assert!(frontier > 0, "the root split");
        builder.finish_now();
        // Every frontier node became a forced leaf.
        let (cover, stats) = builder.finish();
        assert_eq!(stats.forced_leaves, before.forced_leaves + frontier);
        assert_eq!(stats.leaves, before.leaves + frontier);
        // Dropped regions default to the majority (1 for an OR), so the
        // all-ones input must evaluate true.
        assert!(cover.eval_with(|_| true));
    }

    /// Paper Fig. 4: FBDT construction of
    /// `F = ¬v¬c¬e ∨ ¬vc¬d ∨ v¬e¬d ∨ ve¬c` over variables
    /// `(v, c, d, e)`. The learned cover must represent exactly `F`.
    #[test]
    fn paper_fig4_example() {
        use cirlearn_logic::{Cube, Sop};
        // Variable positions: v=0, c=1, d=2, e=3.
        let v = Var::new(0);
        let c = Var::new(1);
        let d = Var::new(2);
        let e = Var::new(3);
        let f = Sop::from_cubes([
            Cube::from_literals([v.negative(), c.negative(), e.negative()]).expect("ok"),
            Cube::from_literals([v.negative(), c.positive(), d.negative()]).expect("ok"),
            Cube::from_literals([v.positive(), e.negative(), d.negative()]).expect("ok"),
            Cube::from_literals([v.positive(), e.positive(), c.negative()]).expect("ok"),
        ]);
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 4);
        let root = g.add_sop(&f, &inputs);
        g.add_output(root, "F");
        let mut o = CircuitOracle::new(g);
        let mut rng = seeded_rng(29);
        let (cover, stats) = build_fbdt(
            &mut o,
            0,
            &[0, 1, 2, 3],
            0.5,
            &FbdtConfig::fast(),
            &Budget::unlimited(),
            &mut rng,
            &Telemetry::disabled(),
        );
        assert!(exact_match(&o, &cover, 4), "Fig. 4 function must be exact");
        // The tree terminates without forced leaves and stays small.
        assert_eq!(stats.forced_leaves, 0);
        assert!(stats.leaves <= 16);
    }

    #[test]
    fn exhaustive_remaps_to_global_positions() {
        // Function over inputs {2, 5} of 8; check literal positions.
        let mut o = oracle_of(|g, i| g.xor(i[2], i[5]), 8);
        let mut rng = seeded_rng(28);
        let (cover, _) = learn_exhaustive(&mut o, 0, &[2, 5], &mut rng);
        assert!(exact_match(&o, &cover, 8));
        let sup: Vec<u32> = cover.sop.support().iter().map(|v| v.index()).collect();
        assert_eq!(sup, vec![2, 5]);
    }
}

#[cfg(test)]
mod exploration_tests {
    use super::*;
    use crate::sampling::seeded_rng;
    use cirlearn_oracle::CircuitOracle;

    #[test]
    fn depth_first_is_exact_without_budget_pressure() {
        use cirlearn_aig::Aig;
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 5);
        let t = g.xor(inputs[0], inputs[2]);
        let y = g.and(t, inputs[4]);
        g.add_output(y, "y");
        let mut o = CircuitOracle::new(g);
        let mut rng = seeded_rng(71);
        let cfg = FbdtConfig {
            exploration: Exploration::DepthFirst,
            ..FbdtConfig::fast()
        };
        let (cover, stats) = build_fbdt(
            &mut o,
            0,
            &[0, 2, 4],
            0.25,
            &cfg,
            &Budget::unlimited(),
            &mut rng,
            &Telemetry::disabled(),
        );
        assert_eq!(stats.forced_leaves, 0);
        for m in 0..32u64 {
            let bits: Vec<bool> = (0..5).map(|k| m >> k & 1 == 1).collect();
            let want = o.reveal().eval_bits(&bits)[0];
            assert_eq!(cover.eval_with(|v| bits[v.index() as usize]), want, "m={m}");
        }
    }

    #[test]
    fn onset_only_mode_never_complements() {
        use cirlearn_aig::Aig;
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 4);
        let y = g.or_many(&inputs[..3]); // 1-heavy
        g.add_output(y, "y");
        let mut o = CircuitOracle::new(g);
        let mut rng = seeded_rng(72);
        let cfg = FbdtConfig {
            onset_offset_selection: false,
            ..FbdtConfig::fast()
        };
        let (cover, _) = build_fbdt(
            &mut o,
            0,
            &[0, 1, 2],
            0.875,
            &cfg,
            &Budget::unlimited(),
            &mut rng,
            &Telemetry::disabled(),
        );
        assert!(!cover.complemented);
        for m in 0..16u64 {
            let bits: Vec<bool> = (0..4).map(|k| m >> k & 1 == 1).collect();
            let want = o.reveal().eval_bits(&bits)[0];
            assert_eq!(cover.eval_with(|v| bits[v.index() as usize]), want, "m={m}");
        }
    }

    #[test]
    fn offset_selection_shrinks_a_one_heavy_cover() {
        use cirlearn_aig::Aig;
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 6);
        let y = g.or_many(&inputs); // truth ratio 63/64
        g.add_output(y, "y");
        let mut o = CircuitOracle::new(g);
        let mut learn = |selection: bool| {
            let cfg = FbdtConfig {
                onset_offset_selection: selection,
                ..FbdtConfig::fast()
            };
            let (cover, _) = build_fbdt(
                &mut o,
                0,
                &[0, 1, 2, 3, 4, 5],
                63.0 / 64.0,
                &cfg,
                &Budget::unlimited(),
                &mut seeded_rng(73),
                &Telemetry::disabled(),
            );
            cover
        };
        let with = learn(true);
        let without = learn(false);
        assert!(with.complemented);
        assert!(!without.complemented);
        assert!(
            with.sop.cubes().len() < without.sop.cubes().len(),
            "offset {} cubes vs onset {}",
            with.sop.cubes().len(),
            without.sop.cubes().len()
        );
        for m in 0..64u64 {
            let bits: Vec<bool> = (0..6).map(|k| m >> k & 1 == 1).collect();
            let want = o.reveal().eval_bits(&bits)[0];
            for cover in [&with, &without] {
                assert_eq!(cover.eval_with(|v| bits[v.index() as usize]), want, "m={m}");
            }
        }
    }
}
