//! The end-to-end learning pipeline (paper Fig. 1).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cirlearn_aig::{Aig, Edge};
use cirlearn_oracle::Oracle;
use cirlearn_synth::{optimize_with, OptimizeConfig};
use cirlearn_telemetry::json::Json;
use cirlearn_telemetry::{Counter, Hist, Level, OutputReport, Telemetry};
use rand::rngs::StdRng;

use crate::budget::Budget;
use crate::checkpoint::{config_fingerprint, CheckpointError, Cursor, LearnState};
use crate::fbdt::{build_fbdt, learn_exhaustive, FbdtBuilder, FbdtConfig, LearnedCover};
use crate::guard::OracleGuard;
use crate::naming::{group_names, Grouping};
use crate::sampling::{seeded_rng, SamplingConfig};
use crate::support::identify_support;
use crate::template::{
    match_comparator_const, match_comparator_pair, match_linear, TemplateConfig,
};

/// Which algorithm produced an output's circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Matched by the linear-arithmetic template.
    LinearTemplate,
    /// Matched by the comparator template.
    ComparatorTemplate,
    /// Exhaustively enumerated (small support).
    Exhaustive,
    /// Learned by FBDT construction.
    Fbdt,
    /// Learned over a compressed input space after a hidden comparator
    /// was detected and delegated (paper §IV-B1, Fig. 3).
    CompressedFbdt,
    /// Degraded to a baseline constant (majority-vote) circuit because
    /// the oracle died permanently or the budget expired before this
    /// output could be learned.
    Degraded,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::LinearTemplate => "linear",
            Strategy::ComparatorTemplate => "comparator",
            Strategy::Exhaustive => "exhaustive",
            Strategy::Fbdt => "fbdt",
            Strategy::CompressedFbdt => "compressed-fbdt",
            Strategy::Degraded => "degraded",
        };
        f.write_str(s)
    }
}

impl Strategy {
    /// Parses the [`Display`](std::fmt::Display) form back; used by
    /// checkpoint deserialization.
    pub fn parse(s: &str) -> Option<Strategy> {
        Some(match s {
            "linear" => Strategy::LinearTemplate,
            "comparator" => Strategy::ComparatorTemplate,
            "exhaustive" => Strategy::Exhaustive,
            "fbdt" => Strategy::Fbdt,
            "compressed-fbdt" => Strategy::CompressedFbdt,
            "degraded" => Strategy::Degraded,
            _ => return None,
        })
    }
}

/// Summary of oracle faults observed during a [`Learner::learn`] run.
///
/// Transient faults are absorbed inside the oracle stack (see
/// [`ResilientOracle`](cirlearn_oracle::ResilientOracle)); what
/// surfaces here is terminal: the oracle died beyond recovery, and the
/// learner degraded the affected outputs instead of panicking.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Fallback (constant-false) answers served after the oracle died.
    pub fallback_answers: u64,
    /// Outputs degraded to a baseline circuit.
    pub degraded_outputs: u64,
    /// Display form of the terminal oracle error, if one occurred.
    pub oracle_error: Option<String>,
}

impl FaultSummary {
    /// Whether the run saw any terminal fault.
    pub fn any(&self) -> bool {
        self.oracle_error.is_some() || self.degraded_outputs > 0
    }
}

/// Per-output learning statistics.
#[derive(Debug, Clone)]
pub struct OutputStats {
    /// Output position.
    pub output: usize,
    /// Output port name.
    pub name: String,
    /// Winning strategy.
    pub strategy: Strategy,
    /// Size of the estimated support (0 for template matches).
    pub support_size: usize,
    /// Leaves the FBDT had to force on budget exhaustion.
    pub forced_leaves: usize,
    /// Wall clock spent learning this output (zero for template
    /// matches, whose work happens in the shared template stage).
    pub elapsed: Duration,
    /// Oracle queries issued while learning this output (zero for
    /// template matches — their validation queries are attributed to
    /// the shared template stage).
    pub queries: u64,
    /// AND gates in this output's fanin cone before optimization.
    pub gates_before_opt: usize,
    /// AND gates in this output's fanin cone after optimization (equal
    /// to `gates_before_opt` when optimization is disabled).
    pub gates_after_opt: usize,
}

impl OutputStats {
    /// The run-report form of these statistics.
    pub fn to_report(&self) -> OutputReport {
        OutputReport {
            output: self.output as u64,
            name: self.name.clone(),
            strategy: self.strategy.to_string(),
            support: self.support_size as u64,
            forced_leaves: self.forced_leaves as u64,
            queries: self.queries,
            elapsed: self.elapsed,
            gates_before_opt: self.gates_before_opt as u64,
            gates_after_opt: self.gates_after_opt as u64,
        }
    }
}

/// The result of a [`Learner::learn`] run.
///
/// Always a *complete* circuit: one output per oracle output, even when
/// the oracle died or the budget expired mid-run — affected outputs are
/// listed in [`LearnResult::degraded`] and carry
/// [`Strategy::Degraded`] in their stats.
#[derive(Debug, Clone)]
pub struct LearnResult {
    /// The learned circuit, with the oracle's port names.
    pub circuit: Aig,
    /// Per-output statistics, in output order.
    pub outputs: Vec<OutputStats>,
    /// Total wall-clock time spent.
    pub elapsed: Duration,
    /// Total oracle queries spent.
    pub queries: u64,
    /// Positions of outputs degraded to a baseline circuit, in output
    /// order (empty for fault-free runs that finished in budget).
    pub degraded: Vec<usize>,
    /// Terminal-fault summary (all-default for clean runs).
    pub faults: FaultSummary,
}

/// External control of a [`Learner::learn_with`] run: periodic
/// checkpointing, a cooperative stop flag, and a flight-dump flag. The
/// run's one wall is [`LearnerConfig::time_budget`].
///
/// The run honors these at *safe points* — before each output and
/// between FBDT node expansions — so a suspension always lands on a
/// state [`Learner::resume`] can continue bit-identically.
#[derive(Debug, Clone)]
pub struct RunControl {
    /// Where to write checkpoints. Written on the
    /// [`checkpoint_interval`](RunControl::checkpoint_interval) cadence
    /// and on suspension; `None` writes nothing (suspension still
    /// returns the state in memory).
    pub checkpoint_path: Option<PathBuf>,
    /// Minimum interval between periodic checkpoint writes.
    pub checkpoint_interval: Duration,
    /// Cooperative stop flag (typically set from a signal handler):
    /// when it reads `true` at a safe point, the run suspends.
    pub stop: Option<Arc<AtomicBool>>,
    /// Cooperative flight-dump flag (typically set from a SIGUSR1
    /// handler): when it reads `true` at a safe point, the flag is
    /// cleared and the flight recorder is dumped — the run continues
    /// undisturbed.
    pub dump: Option<Arc<AtomicBool>>,
    /// Suspend unconditionally once this many safe points have been
    /// passed (`Some(0)` suspends at the first). A deterministic
    /// suspension trigger for tests — wall-clock intervals are not
    /// reproducible, safe-point counts are.
    pub stop_after_safe_points: Option<u64>,
}

impl Default for RunControl {
    fn default() -> Self {
        RunControl {
            checkpoint_path: None,
            checkpoint_interval: Duration::from_secs(30),
            stop: None,
            dump: None,
            stop_after_safe_points: None,
        }
    }
}

/// Outcome of a controllable run ([`Learner::learn_with`] /
/// [`Learner::resume`]): completion or suspension at a safe point.
#[derive(Debug)]
pub enum LearnOutcome {
    /// The run finished; the circuit is complete (boxed to keep the
    /// enum small — the result embeds per-output stats).
    Completed(Box<LearnResult>),
    /// A stop was requested; the state continues the run via
    /// [`Learner::resume`] (boxed — it embeds the partial circuit).
    Suspended(Box<LearnState>),
}

impl LearnOutcome {
    /// The completed result.
    ///
    /// # Panics
    ///
    /// Panics if the run was suspended.
    pub fn expect_completed(self) -> LearnResult {
        match self {
            LearnOutcome::Completed(result) => *result,
            LearnOutcome::Suspended(_) => {
                panic!("run was suspended, not completed")
            }
        }
    }

    /// The suspension state, or `None` if the run completed.
    pub fn suspended(self) -> Option<Box<LearnState>> {
        match self {
            LearnOutcome::Completed(_) => None,
            LearnOutcome::Suspended(state) => Some(state),
        }
    }
}

/// Configuration of the full pipeline.
#[derive(Debug, Clone)]
pub struct LearnerConfig {
    /// Master switch for steps 1–2 (name grouping + templates); turned
    /// off for the paper's §V preprocessing ablation.
    pub preprocessing: bool,
    /// Support-identification sampling (paper: r = 7200).
    pub support_sampling: SamplingConfig,
    /// FBDT construction settings.
    pub fbdt: FbdtConfig,
    /// Template matching settings.
    pub template: TemplateConfig,
    /// Total wall-clock budget (the paper ran under 2700 s), the run's
    /// one wall. It is cumulative across resumed segments and may
    /// change between them. Each output's FBDT gets an equal share of
    /// what is left and forces leaves when its share runs out. Once the
    /// whole wall is spent, the tree in flight is synthesized from the
    /// cubes it collected, every output not yet started becomes a
    /// constant, and optimization is skipped.
    pub time_budget: Duration,
    /// Optional total query budget: unlike wall-clock time it is
    /// machine-independent, so budgeted runs reproduce exactly. It
    /// caps the FBDTs only, split over the outputs still to learn:
    /// support sampling and exhaustive conquest spend queries on top
    /// of it (under a 4M cap the `bench` suite's case_18 spends
    /// 4,349,394).
    pub max_queries: Option<u64>,
    /// Post-optimization settings; `None` skips optimization.
    pub optimize: Option<OptimizeConfig>,
    /// Covers larger than this many cubes skip espresso minimization
    /// (factoring still applies) to bound post-processing time.
    pub espresso_cube_limit: usize,
    /// RNG seed for the whole run.
    pub seed: u64,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            preprocessing: true,
            support_sampling: SamplingConfig::support_default(),
            fbdt: FbdtConfig::default(),
            template: TemplateConfig::default(),
            time_budget: Duration::from_secs(2700),
            max_queries: None,
            optimize: Some(OptimizeConfig::default()),
            espresso_cube_limit: 256,
            seed: 0x1CCAD,
        }
    }
}

impl LearnerConfig {
    /// A CI-scale configuration: reduced sampling, small budgets.
    pub fn fast() -> Self {
        LearnerConfig {
            preprocessing: true,
            support_sampling: SamplingConfig::fast(),
            fbdt: FbdtConfig::fast(),
            template: TemplateConfig {
                validate_samples: 192,
                ..TemplateConfig::default()
            },
            time_budget: Duration::from_secs(30),
            max_queries: None,
            optimize: Some(OptimizeConfig {
                time_budget: Duration::from_secs(2),
                max_rounds: 1,
                enable_redundancy_removal: false,
                ..OptimizeConfig::default()
            }),
            espresso_cube_limit: 128,
            seed: 0x1CCAD,
        }
    }
}

/// The circuit learner: runs grouping, template matching, support
/// identification, FBDT construction and optimization.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Learner {
    config: LearnerConfig,
    telemetry: Telemetry,
}

impl Learner {
    /// Creates a learner with the given configuration and telemetry
    /// disabled.
    pub fn new(config: LearnerConfig) -> Self {
        Learner {
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Creates a learner that records spans, counters and events into
    /// `telemetry`. Oracle queries are counted at the source and
    /// attributed to the pipeline stage that issued them, so the run
    /// report's top-level stage breakdown of `oracle.queries` sums to
    /// [`LearnResult::queries`].
    pub fn with_telemetry(config: LearnerConfig, telemetry: Telemetry) -> Self {
        Learner { config, telemetry }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &LearnerConfig {
        &self.config
    }

    /// Returns the telemetry handle (disabled unless constructed with
    /// [`Learner::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Learns a circuit for the black box.
    ///
    /// Always returns a complete circuit with one output per oracle
    /// output; once the wall ([`LearnerConfig::time_budget`]) is spent,
    /// the tree in flight is synthesized from the cubes it collected
    /// and the outputs not yet started degrade to constants (the
    /// paper's early-stop behaviour) rather than being dropped.
    ///
    /// Queries flow through the oracle's *fallible* path
    /// ([`Oracle::try_query`]). If the oracle dies beyond recovery the
    /// learner does not panic: outputs whose learning overlapped the
    /// failure degrade to a baseline constant circuit, the rest keep
    /// whatever was validly learned before the fault, and
    /// [`LearnResult::degraded`] / [`LearnResult::faults`] record what
    /// happened.
    pub fn learn<O: Oracle + ?Sized>(&mut self, oracle: &mut O) -> LearnResult {
        match self.learn_with(oracle, &RunControl::default()) {
            LearnOutcome::Completed(result) => *result,
            LearnOutcome::Suspended(_) => {
                unreachable!("default RunControl has no stop source; the run cannot suspend")
            }
        }
    }

    /// Learns under external run control: periodic checkpoints, a
    /// cooperative stop flag, and flight dumps (see [`RunControl`]).
    ///
    /// Returns [`LearnOutcome::Suspended`] when a stop was requested at
    /// a safe point; pass the state to [`Learner::resume`] to continue
    /// the run bit-identically. Without a stop source this behaves
    /// exactly like [`Learner::learn`].
    pub fn learn_with<O: Oracle + ?Sized>(
        &mut self,
        oracle: &mut O,
        ctl: &RunControl,
    ) -> LearnOutcome {
        let mut run = Run::new(self, oracle, ctl);
        run.templates();
        run.learn()
    }

    /// Resumes a suspended run from checkpoint state.
    ///
    /// The continuation is bit-identical to the uninterrupted run (for
    /// machine-independent budgets — wall-clock budgets portion time by
    /// whatever remains at resume): the RNG continues from its
    /// checkpointed words, the partial circuit is rebuilt node-id
    /// identical from its embedded AIGER, and the oracle stack's own
    /// state (fault schedules, retry-jitter positions) is restored via
    /// [`Oracle::restore_state`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Mismatch`] when the state does not
    /// belong to this run: different configuration fingerprint (any
    /// field but `time_budget`, which a segment may move),
    /// different oracle port names, an embedded circuit that fails to
    /// parse, edge codes pointing outside that circuit, or an oracle
    /// stack that rejects its nested state. Nothing is learned and the
    /// oracle is not queried in that case.
    pub fn resume<O: Oracle + ?Sized>(
        &mut self,
        state: LearnState,
        oracle: &mut O,
        ctl: &RunControl,
    ) -> Result<LearnOutcome, CheckpointError> {
        let run = self.validate(state, oracle, ctl)?;
        run.report_resume();
        Ok(run.learn())
    }

    /// Converts checkpoint state into live run state, performing every
    /// fallible check up front so the run itself is infallible.
    fn validate<'a, O: Oracle + ?Sized>(
        &'a self,
        state: LearnState,
        oracle: &'a mut O,
        ctl: &'a RunControl,
    ) -> Result<Run<'a, O>, CheckpointError> {
        let fp = config_fingerprint(&self.config);
        if fp != state.config_fingerprint {
            return Err(CheckpointError::Mismatch(format!(
                "config fingerprint {fp:016x} differs from the checkpoint's {:016x} \
                 (the configuration, apart from the time budget, must not change \
                 between segments)",
                state.config_fingerprint
            )));
        }
        if oracle.input_names() != state.input_names.as_slice()
            || oracle.output_names() != state.output_names.as_slice()
        {
            return Err(CheckpointError::Mismatch(
                "oracle port names differ from the checkpointed run".into(),
            ));
        }
        let circuit = Aig::from_aiger_ascii(&state.circuit_aiger)
            .map_err(|e| CheckpointError::Mismatch(format!("embedded circuit: {e}")))?;
        if circuit.num_inputs() != oracle.num_inputs() {
            return Err(CheckpointError::Mismatch(format!(
                "embedded circuit has {} inputs, oracle has {}",
                circuit.num_inputs(),
                oracle.num_inputs()
            )));
        }
        let num_outputs = oracle.num_outputs();
        let max_node = circuit.num_inputs() + circuit.and_count();
        let mut edges: Vec<Option<Edge>> = Vec::with_capacity(num_outputs);
        for code in &state.edges {
            edges.push(match code {
                Some(c) => {
                    let e = Edge::from_code(*c);
                    if e.node().index() > max_node {
                        return Err(CheckpointError::Mismatch(format!(
                            "edge code {c} points outside the embedded circuit"
                        )));
                    }
                    Some(e)
                }
                None => None,
            });
        }
        let tree = match state.cursor {
            Cursor::NextOutput => None,
            Cursor::Fbdt {
                snapshot,
                max_queries,
                partial_elapsed,
                partial_queries,
            } => {
                if snapshot.output >= num_outputs {
                    return Err(CheckpointError::Mismatch(format!(
                        "in-flight output {} out of range ({num_outputs} outputs)",
                        snapshot.output
                    )));
                }
                if edges[snapshot.output].is_some() {
                    return Err(CheckpointError::Mismatch(format!(
                        "in-flight output {} already has a learned edge",
                        snapshot.output
                    )));
                }
                if let Some(&p) = snapshot
                    .support
                    .iter()
                    .find(|&&p| p >= circuit.num_inputs())
                {
                    return Err(CheckpointError::Mismatch(format!(
                        "in-flight support position {p} out of range"
                    )));
                }
                let mut fbdt_cfg = self.config.fbdt.clone();
                fbdt_cfg.max_queries = max_queries;
                Some(Tree {
                    builder: FbdtBuilder::restore(snapshot, &fbdt_cfg),
                    cap: max_queries,
                    partial_elapsed,
                    partial_queries,
                })
            }
        };
        if let Some(oracle_state) = &state.oracle {
            oracle
                .restore_state(oracle_state)
                .map_err(|e| CheckpointError::Mismatch(e.to_string()))?;
        }
        Ok(Run {
            circuit,
            rng: StdRng::from_state(state.rng),
            edges,
            strategies: state.strategies,
            support_sizes: state.support_sizes,
            forced: state.forced,
            out_elapsed: state.out_elapsed,
            out_queries: state.out_queries,
            truth_bias: state.truth_bias,
            queries_used: state.queries_used,
            elapsed_before: state.elapsed_before,
            // The budget covers the whole run, not this segment: time
            // spent in prior segments is already gone.
            budget: Budget::new(self.config.time_budget.saturating_sub(state.elapsed_before)),
            tree,
            ..Run::new(self, oracle, ctl)
        })
    }
}

/// The identity variable map: cover variable `x_k` is primary input `k`.
fn identity_var_map(circuit: &Aig) -> Vec<Edge> {
    (0..circuit.num_inputs())
        .map(|p| circuit.input_edge(p))
        .collect()
}

/// The state of one run segment. [`Learner::learn_with`] builds it
/// fresh and [`Learner::validate`] from a checkpoint; each pipeline
/// stage is one method, and [`Run::safe_point`] is the only place a run
/// checkpoints or suspends.
struct Run<'a, O: ?Sized> {
    config: &'a LearnerConfig,
    telemetry: &'a Telemetry,
    ctl: &'a RunControl,
    /// The caller's oracle, counted at the source and guarded.
    oracle: OracleGuard<&'a mut O>,
    /// Input name grouping (step 1); `None` without preprocessing.
    grouping: Option<Grouping>,
    /// The partial circuit: outputs are attached only at the end.
    circuit: Aig,
    rng: StdRng,
    // Per-output progress; everything but `cut_short` is checkpointed.
    edges: Vec<Option<Edge>>,
    strategies: Vec<Option<Strategy>>,
    support_sizes: Vec<usize>,
    forced: Vec<usize>,
    out_elapsed: Vec<Duration>,
    out_queries: Vec<u64>,
    truth_bias: Vec<Option<f64>>,
    /// Outputs whose FBDT the spent wall cut short: they keep their
    /// partial-cube circuit but are reported as degraded.
    cut_short: Vec<bool>,
    /// Queries and wall clock spent in prior segments.
    queries_used: u64,
    elapsed_before: Duration,
    /// The oracle's query count when this segment started.
    start_queries: u64,
    budget: Budget,
    /// Safe points passed in this segment.
    safe_points: u64,
    last_ckpt: Instant,
    wall_dumped: bool,
    /// An in-flight FBDT restored from a checkpoint, waiting for its
    /// output's turn (it always goes first).
    tree: Option<Tree>,
}

/// An FBDT driven one node expansion at a time.
struct Tree {
    builder: FbdtBuilder,
    /// The query cap assigned when the tree started (the budget share
    /// must not be re-portioned mid-tree).
    cap: Option<u64>,
    /// Wall clock and queries this output spent in prior segments.
    partial_elapsed: Duration,
    partial_queries: u64,
}

/// How one output's circuit gets built: either the edge is already
/// decided (exhaustive/compressed, both atomic), or an FBDT is driven
/// step by step with safe points in between.
enum Arm {
    Edge(Edge),
    Tree(Box<Tree>, Budget),
}

impl<'a, O: Oracle + ?Sized> Run<'a, O> {
    /// A fresh run: an empty circuit over the oracle's inputs, the
    /// seeded RNG, and no output learned.
    fn new(learner: &'a Learner, oracle: &'a mut O, ctl: &'a RunControl) -> Self {
        let config = &learner.config;
        let telemetry = &learner.telemetry;
        // Count queries at the source: every query the pipeline issues
        // from here on lands on the `oracle.queries` counter and is
        // attributed to the stage span active when it was served.
        // The guard routes them through the fallible path and latches
        // the first terminal failure for per-output isolation, dumping
        // the flight recorder at the moment of the fault.
        let oracle = OracleGuard::with_telemetry(oracle, telemetry.clone());
        let n = oracle.num_outputs();
        let mut circuit = Aig::new();
        for name in oracle.input_names() {
            circuit.add_input(name.clone());
        }
        Run {
            config,
            telemetry,
            ctl,
            // Grouping is a pure function of the port names, so every
            // segment recomputes it.
            grouping: config
                .preprocessing
                .then(|| group_names(oracle.input_names())),
            circuit,
            rng: seeded_rng(config.seed),
            edges: vec![None; n],
            strategies: vec![None; n],
            support_sizes: vec![0; n],
            forced: vec![0; n],
            out_elapsed: vec![Duration::ZERO; n],
            out_queries: vec![0; n],
            truth_bias: vec![None; n],
            cut_short: vec![false; n],
            queries_used: 0,
            elapsed_before: Duration::ZERO,
            start_queries: oracle.queries(),
            budget: Budget::new(config.time_budget),
            safe_points: 0,
            last_ckpt: Instant::now(),
            wall_dumped: false,
            tree: None,
            oracle,
        }
    }

    /// Oracle queries spent across all segments so far.
    fn queries(&self) -> u64 {
        self.queries_used + (self.oracle.queries() - self.start_queries)
    }

    /// Wall clock spent across all segments so far.
    fn elapsed(&self) -> Duration {
        self.elapsed_before + self.budget.elapsed()
    }

    fn outputs_done(&self) -> usize {
        self.edges.iter().filter(|e| e.is_some()).count()
    }

    /// Whether the whole wall is spent. `budget` is what `time_budget`
    /// left this segment, so the check counts across segments; the
    /// first check that trips dumps the flight recorder.
    fn wall_hit(&mut self) -> bool {
        let hit = self.budget.exhausted();
        if hit && !self.wall_dumped {
            self.wall_dumped = true;
            self.telemetry.dump_flight("deadline");
        }
        hit
    }

    /// Snapshots the run. `queries_used` and `elapsed_before` are
    /// *cumulative across segments* — a future resume subtracts them
    /// from the budgets and adds them to the final totals.
    fn state(&self, cursor: Cursor) -> LearnState {
        LearnState {
            seed: self.config.seed,
            config_fingerprint: config_fingerprint(self.config),
            rng: self.rng.state(),
            input_names: self.oracle.input_names().to_vec(),
            output_names: self.oracle.output_names().to_vec(),
            queries_used: self.queries(),
            elapsed_before: self.elapsed(),
            circuit_aiger: self.circuit.to_aiger_ascii(),
            edges: self.edges.iter().map(|e| e.map(|e| e.code())).collect(),
            strategies: self.strategies.clone(),
            support_sizes: self.support_sizes.clone(),
            forced: self.forced.clone(),
            out_elapsed: self.out_elapsed.clone(),
            out_queries: self.out_queries.clone(),
            truth_bias: self.truth_bias.clone(),
            cursor,
            oracle: self.oracle.checkpoint_state(),
        }
    }

    /// A safe point: before each output and between FBDT node
    /// expansions. Serves a pending flight dump, then takes a state
    /// when a stop or a cadence checkpoint is due — `cursor` says where
    /// a resume picks up and runs only then. Writes the checkpoint, and
    /// on a stop returns the state to suspend with.
    fn safe_point(&mut self, cursor: impl FnOnce(&Self) -> Cursor) -> Result<(), Box<LearnState>> {
        let ctl = self.ctl;
        // Swap, not load: the flag is an edge trigger — each SIGUSR1
        // produces exactly one dump at the next safe point.
        // relaxed-ok: the flag is a standalone edge trigger; no other
        // memory is published through it, and the swap's
        // read-modify-write atomicity alone guarantees one dump per
        // signal.
        if ctl
            .dump
            .as_ref()
            .is_some_and(|d| d.swap(false, Ordering::Relaxed))
        {
            self.telemetry.dump_flight("signal");
        }
        let reached = self.safe_points;
        self.safe_points += 1;
        let want_stop = ctl.stop.as_ref().is_some_and(|s| s.load(Ordering::Relaxed))
            || ctl.stop_after_safe_points.is_some_and(|cap| reached >= cap);
        let cadence_due =
            ctl.checkpoint_path.is_some() && self.last_ckpt.elapsed() >= ctl.checkpoint_interval;
        if !want_stop && !cadence_due {
            return Ok(());
        }
        let state = self.state(cursor(self));
        if let Some(path) = &ctl.checkpoint_path {
            write_checkpoint(self.telemetry, path, &state);
            self.last_ckpt = Instant::now();
        }
        if want_stop {
            return Err(Box::new(state));
        }
        Ok(())
    }

    /// Announces a resumed segment.
    fn report_resume(&self) {
        let telemetry = self.telemetry;
        let (done, queries_used, elapsed_before) =
            (self.outputs_done(), self.queries_used, self.elapsed_before);
        telemetry.incr(Counter::CkptResumes);
        telemetry.trace(
            "resume",
            &[
                ("outputs_done", Json::from(done)),
                ("queries_used", Json::from(queries_used)),
                (
                    "elapsed_before_us",
                    Json::from(u64::try_from(elapsed_before.as_micros()).unwrap_or(u64::MAX)),
                ),
            ],
        );
        telemetry.event(
            Level::Info,
            &format!(
                "resumed: {done}/{} outputs learned, {queries_used} queries \
                 and {elapsed_before:.1?} spent in prior segments",
                self.edges.len()
            ),
        );
    }

    /// Steps 1–2: name based grouping + template matching. Only the
    /// first segment runs them: the template stage is atomic, never
    /// suspended into a checkpoint, so a resumed run skips it.
    fn templates(&mut self) {
        let telemetry = self.telemetry;
        if let Some(grouping) = &self.grouping {
            telemetry.event(
                Level::Info,
                &format!(
                    "grouping: {} buses, {} scalars",
                    grouping.groups.len(),
                    grouping.scalars.len()
                ),
            );
            for g in &grouping.groups {
                telemetry.event(Level::Debug, &format!("bus {} width {}", g.stem, g.width()));
            }
            let out_grouping = group_names(self.oracle.output_names());
            let _span = telemetry.span("templates");
            self.match_templates(&out_grouping);
        }
        self.budget.checkpoint(telemetry, "templates");
        if self.oracle.failed() {
            // The fault hit during the shared template stage: any match
            // may have validated against fallback answers, so none can
            // be trusted. Discard them all; every output degrades.
            telemetry.event(
                Level::Warn,
                "oracle failed during template matching; discarding template matches",
            );
            self.edges.fill(None);
            self.strategies.fill(None);
        }
        telemetry.event(
            Level::Info,
            &format!(
                "templates matched {} of {} outputs",
                self.outputs_done(),
                self.edges.len()
            ),
        );
    }

    /// Runs template matching (step 2), filling in edges for every
    /// output a template explains.
    fn match_templates(&mut self, out_grouping: &Grouping) {
        let Some(in_grouping) = &self.grouping else {
            return;
        };
        if in_grouping.groups.is_empty() {
            return;
        }
        // For linear matching, scalar inputs participate as singleton
        // pseudo-buses: a lone wire can still carry a coefficient.
        let mut linear_groups = in_grouping.groups.clone();
        for &pos in &in_grouping.scalars {
            linear_groups.push(crate::naming::VarGroup {
                stem: self.oracle.input_names()[pos].clone(),
                positions: vec![pos],
                bits: vec![0],
            });
        }
        let template = &self.config.template;
        // Linear arithmetic over output buses first: one match explains
        // a whole bus of outputs.
        for out_group in &out_grouping.groups {
            if out_group.width() < 2 {
                continue;
            }
            if let Some(m) = match_linear(
                &mut self.oracle,
                out_group,
                &linear_groups,
                template,
                &mut self.rng,
            ) {
                let gates_at = self.circuit.and_count();
                let words = m.build(&mut self.circuit, &linear_groups);
                self.telemetry
                    .attribute_gates(self.circuit.and_count().saturating_sub(gates_at) as u64);
                for (edge, &pos) in words.iter().zip(&m.output_group.positions) {
                    self.edges[pos] = Some(*edge);
                    self.strategies[pos] = Some(Strategy::LinearTemplate);
                }
            }
        }
        // Comparators for the remaining single outputs.
        for o in 0..self.edges.len() {
            if self.edges[o].is_some() {
                continue;
            }
            let groups = &in_grouping.groups;
            let matched =
                match_comparator_pair(&mut self.oracle, o, groups, template, &mut self.rng)
                    .or_else(|| {
                        match_comparator_const(&mut self.oracle, o, groups, template, &mut self.rng)
                    });
            if let Some(m) = matched {
                let gates_at = self.circuit.and_count();
                let edge = m.build(&mut self.circuit, groups);
                self.telemetry
                    .attribute_gates(self.circuit.and_count().saturating_sub(gates_at) as u64);
                self.edges[o] = Some(edge);
                self.strategies[o] = Some(Strategy::ComparatorTemplate);
            }
        }
    }

    /// The driver of every segment: steps 3–4 per output, then
    /// degradation, optimization and the result — or the suspension
    /// state, if a stop arrived at a safe point.
    fn learn(mut self) -> LearnOutcome {
        if let Err(state) = self.learn_outputs() {
            // The ring holds the run's last moments; a suspension is
            // exactly when a post-mortem wants them on disk.
            self.telemetry.dump_flight("suspend");
            return LearnOutcome::Suspended(state);
        }
        self.budget.checkpoint(self.telemetry, "learning");
        let degraded = self.degrade();
        LearnOutcome::Completed(Box::new(self.result(degraded)))
    }

    /// Steps 3–4 for every output without an edge, with a safe point
    /// before each. On resume an in-flight FBDT output goes first (it
    /// was first among the unfinished outputs when it suspended, so the
    /// budget-share arithmetic is unchanged).
    fn learn_outputs(&mut self) -> Result<(), Box<LearnState>> {
        let num_outputs = self.edges.len();
        let mut remaining: Vec<usize> = (0..num_outputs)
            .filter(|&o| self.edges[o].is_none())
            .collect();
        if let Some(tree) = &self.tree {
            let o = tree.builder.output();
            remaining.retain(|&x| x != o);
            remaining.insert(0, o);
        }
        self.telemetry
            .set_progress(self.outputs_done() as u64, num_outputs as u64);
        for (k, &o) in remaining.iter().enumerate() {
            self.safe_point(|_| Cursor::NextOutput)?;
            if self.oracle.failed() {
                // Per-output isolation: a dead oracle answers constant
                // fallbacks instantly, but learning from them would
                // only launder junk into the circuit. Leave the edge
                // empty; it degrades to a baseline constant below.
                continue;
            }
            let resumed = self.tree.as_ref().is_some_and(|t| t.builder.output() == o);
            if !resumed && self.wall_hit() {
                // Past the wall there is no time left to sample
                // honestly: an output not yet started degrades to a
                // constant below. A resumed tree still enters its arm,
                // so the cubes it already collected are synthesized,
                // not discarded.
                continue;
            }
            self.learn_output(o, remaining.len() - k)?;
        }
        Ok(())
    }

    /// Learns output `o`, one of `left` outputs still to do, each of
    /// which gets an equal share of the remaining budget.
    fn learn_output(&mut self, o: usize, left: usize) -> Result<(), Box<LearnState>> {
        let started = Instant::now();
        let queries_before = self.oracle.queries();
        // Everything from here on is this output's work: tag queries
        // and gate builds with it.
        let _out_scope = self.telemetry.output_scope(o);
        let arm = match self.tree.take_if(|t| t.builder.output() == o) {
            // A resumed tree continues directly.
            Some(tree) => {
                let node_budget = self.budget.fraction_of_remaining(1.0 / left as f64);
                Arm::Tree(Box::new(tree), node_budget)
            }
            None => self.choose_arm(o, left),
        };
        let (edge, partial_elapsed, partial_queries) = match arm {
            Arm::Edge(edge) => (edge, Duration::ZERO, 0),
            Arm::Tree(tree, node_budget) => {
                let (elapsed, queries) = (tree.partial_elapsed, tree.partial_queries);
                (
                    self.drive_tree(tree, &node_budget, started, queries_before)?,
                    elapsed,
                    queries,
                )
            }
        };
        if self.oracle.failed() {
            // The fault hit mid-output: the learned cover mixes
            // real and fallback answers and cannot be trusted.
            self.strategies[o] = None;
        } else {
            self.edges[o] = Some(edge);
        }
        self.out_elapsed[o] = partial_elapsed + started.elapsed();
        self.out_queries[o] = partial_queries + (self.oracle.queries() - queries_before);
        // `and_count`, not `gate_count`: outputs are not attached
        // until the end, so reachability-based counts would read zero
        // here.
        self.telemetry
            .set_aig_nodes(self.circuit.and_count() as u64);
        self.telemetry
            .set_progress(self.outputs_done() as u64, self.edges.len() as u64);
        Ok(())
    }

    /// Step 3 for a fresh output, and the choice of arm it leads to:
    /// exhaustive conquest for a small support, the compressed space
    /// when a hidden comparator is found, and an FBDT otherwise.
    fn choose_arm(&mut self, o: usize, left: usize) -> Arm {
        let telemetry = self.telemetry;
        let info = {
            let _span = telemetry.span("support");
            identify_support(
                &mut self.oracle,
                o,
                &self.config.support_sampling,
                &mut self.rng,
            )
        };
        self.support_sizes[o] = info.support.len();
        self.truth_bias[o] = Some(info.truth_ratio);
        telemetry.event(
            Level::Debug,
            &format!(
                "output {o} ({}): support {} truth_ratio {:.3}",
                self.oracle.output_names()[o],
                info.support.len(),
                info.truth_ratio
            ),
        );
        let node_budget = self.budget.fraction_of_remaining(1.0 / left as f64);
        if info.support.len() <= self.config.fbdt.exhaustive_threshold {
            self.strategies[o] = Some(Strategy::Exhaustive);
            let _span = telemetry.span("exhaustive");
            let (cover, _) = learn_exhaustive(&mut self.oracle, o, &info.support, &mut self.rng);
            let var_map = identity_var_map(&self.circuit);
            return Arm::Edge(self.cover_to_edge(&cover, &var_map));
        }
        let compressed = {
            let _span = telemetry.span("compressed");
            self.try_compressed(o, &info.support, &node_budget)
        };
        if let Some(edge) = compressed {
            self.strategies[o] = Some(Strategy::CompressedFbdt);
            return Arm::Edge(edge);
        }
        self.strategies[o] = Some(Strategy::Fbdt);
        // Portion any query budget over the outputs still to do —
        // counting queries spent in prior segments.
        let mut fbdt_cfg = self.config.fbdt.clone();
        if let Some(total) = self.config.max_queries {
            fbdt_cfg.max_queries = Some(total.saturating_sub(self.queries()) / left as u64);
        }
        let tree = Tree {
            builder: FbdtBuilder::new(o, &info.support, info.truth_ratio, &fbdt_cfg),
            cap: fbdt_cfg.max_queries,
            partial_elapsed: Duration::ZERO,
            partial_queries: 0,
        };
        Arm::Tree(Box::new(tree), node_budget)
    }

    /// Step 4 for an FBDT: one node expansion per safe point until the
    /// frontier is empty or the spent wall cuts the tree short, then the
    /// cover's circuit. `started` and `queries_before` mark where this
    /// segment's work on the output began.
    fn drive_tree(
        &mut self,
        mut tree: Box<Tree>,
        node_budget: &Budget,
        started: Instant,
        queries_before: u64,
    ) -> Result<Edge, Box<LearnState>> {
        let telemetry = self.telemetry;
        let o = tree.builder.output();
        let _span = telemetry.span("fbdt");
        let cut_short = loop {
            let at = self.safe_point(|run| Cursor::Fbdt {
                snapshot: tree.builder.snapshot(),
                max_queries: tree.cap,
                partial_elapsed: tree.partial_elapsed + started.elapsed(),
                partial_queries: tree.partial_queries + (run.oracle.queries() - queries_before),
            });
            if let Err(state) = at {
                telemetry.set_fbdt_depth(None);
                return Err(state);
            }
            if self.wall_hit() {
                tree.builder.finish_now();
                break true;
            }
            if !tree
                .builder
                .step(&mut self.oracle, node_budget, &mut self.rng, telemetry)
            {
                break false;
            }
        };
        telemetry.set_fbdt_depth(None);
        let (cover, stats) = tree.builder.finish();
        stats.record(telemetry);
        if cut_short {
            telemetry.incr(Counter::CkptDeadlinePartialOutputs);
            self.cut_short[o] = true;
            telemetry.event(
                Level::Warn,
                &format!(
                    "output {o} ({}): wall hit, synthesized from {} collected cubes",
                    self.oracle.output_names()[o],
                    cover.sop.cubes().len()
                ),
            );
        } else if stats.forced_leaves > 0 {
            telemetry.event(
                Level::Warn,
                &format!(
                    "output {o}: budget forced {} leaves to majority votes",
                    stats.forced_leaves
                ),
            );
        }
        self.forced[o] = stats.forced_leaves;
        let var_map = identity_var_map(&self.circuit);
        Ok(self.cover_to_edge(&cover, &var_map))
    }

    /// Attempts the paper's §IV-B1 input compression: if a hidden
    /// comparator is detected for this output, learn the output over
    /// the compressed input space (delegate bit instead of the bus
    /// bits) and build the composition `F'(kept, O_s)` with the
    /// comparator subcircuit feeding the delegate variable.
    fn try_compressed(
        &mut self,
        output: usize,
        support: &[usize],
        node_budget: &Budget,
    ) -> Option<Edge> {
        // Only worth probing when some bus lies (mostly) inside the
        // estimated support.
        let candidate_groups: Vec<crate::naming::VarGroup> = self
            .grouping
            .as_ref()?
            .groups
            .iter()
            .filter(|g| {
                let inside = g.positions.iter().filter(|p| support.contains(p)).count();
                inside * 10 >= g.width() * 7
            })
            .cloned()
            .collect();
        if candidate_groups.len() < 2 {
            return None;
        }
        let config = self.config;
        let delegate = crate::compress::find_hidden_comparator(
            &mut self.oracle,
            output,
            &candidate_groups,
            &config.template,
            &mut self.rng,
        )?;

        // Build the comparator subcircuit (the delegate's function).
        let circuit = &mut self.circuit;
        let lhs: Vec<Edge> = delegate
            .lhs_positions
            .iter()
            .map(|&p| circuit.input_edge(p))
            .collect();
        let rhs: Vec<Edge> = match &delegate.rhs_positions {
            Some(r) => r.iter().map(|&p| circuit.input_edge(p)).collect(),
            None => circuit.const_word(delegate.constant, lhs.len()),
        };
        let gates_at = circuit.and_count();
        let os_edge = delegate.predicate.build(circuit, &lhs, &rhs);
        self.telemetry
            .attribute_gates(circuit.and_count().saturating_sub(gates_at) as u64);

        // Learn the output over the compressed space.
        let rng = &mut self.rng;
        let mut compressed = crate::compress::DelegateOracle::new(&mut self.oracle, vec![delegate]);
        let info = identify_support(&mut compressed, output, &config.support_sampling, rng);
        let cover = if info.support.len() <= config.fbdt.exhaustive_threshold {
            let (cover, _) = learn_exhaustive(&mut compressed, output, &info.support, rng);
            cover
        } else {
            let (cover, stats) = build_fbdt(
                &mut compressed,
                output,
                &info.support,
                info.truth_ratio,
                &config.fbdt,
                node_budget,
                rng,
                self.telemetry,
            );
            stats.record(self.telemetry);
            cover
        };
        // Virtual variable k maps to the kept input's edge; the final
        // virtual variable is the delegate's comparator output.
        let mut var_map: Vec<Edge> = compressed
            .kept_positions()
            .iter()
            .map(|&p| self.circuit.input_edge(p))
            .collect();
        var_map.push(os_edge);
        Some(self.cover_to_edge(&cover, &var_map))
    }

    /// Converts a learned cover into circuit structure: espresso
    /// minimization (size-guarded), algebraic factoring, and final
    /// complementation for offset covers. Cover variable `x_k` maps to
    /// `var_map[k]`. Its wall time is one `cover.build_ns` sample.
    fn cover_to_edge(&mut self, cover: &LearnedCover, var_map: &[Edge]) -> Edge {
        let started = Instant::now();
        let telemetry = self.telemetry;
        telemetry.add(Counter::CubesCollected, cover.sop.cubes().len() as u64);
        let gates_at = self.circuit.and_count();
        let edge = if cover.sop.cubes().len() <= self.config.espresso_cube_limit {
            telemetry.incr(Counter::EspressoCalls);
            cirlearn_synth::factor::sop_to_circuit(&cover.sop, &mut self.circuit, var_map)
        } else {
            let expr = cirlearn_synth::factor::factor(&cover.sop);
            expr.to_aig(&mut self.circuit, var_map)
        };
        telemetry.attribute_gates(self.circuit.and_count().saturating_sub(gates_at) as u64);
        telemetry.record_time(Hist::CoverBuildNs, started.elapsed());
        edge.complement_if(cover.complemented)
    }

    /// Graceful degradation: any output still without an edge (the
    /// oracle died, the wall was spent, or its learned cover was
    /// discarded) falls back to a constant — the majority vote of its
    /// support-sampling truth ratio, the same baseline a budget-forced
    /// FBDT leaf uses, or 0 for an output never started — so the
    /// result is always a complete, valid circuit. Returns the degraded
    /// outputs: those and the ones the spent wall cut short.
    fn degrade(&mut self) -> Vec<usize> {
        let degraded: Vec<usize> = (0..self.edges.len())
            .filter(|&o| self.edges[o].is_none() || self.cut_short[o])
            .collect();
        for &o in &degraded {
            if self.edges[o].is_some() {
                // Cut short by the wall: the partial-cube circuit
                // stays, but its accuracy was not driven to the leaf
                // tolerance.
                continue;
            }
            let majority = self.truth_bias[o].is_some_and(|r| r >= 0.5);
            self.edges[o] = Some(if majority { Edge::TRUE } else { Edge::FALSE });
            self.strategies[o] = Some(Strategy::Degraded);
            self.telemetry.incr(Counter::FaultDegradedOutputs);
            self.telemetry.event(
                Level::Warn,
                &format!(
                    "output {o} ({}) degraded to constant {majority}",
                    self.oracle.output_names()[o]
                ),
            );
        }
        // Every output now has an edge (learned or degraded).
        let n = self.edges.len() as u64;
        self.telemetry.set_progress(n, n);
        degraded
    }

    /// Step 5: circuit optimization — skipped past the wall (the
    /// degradation ladder trades gates for finishing at all).
    fn optimize(&self, circuit: Aig) -> Aig {
        let telemetry = self.telemetry;
        let circuit = match &self.config.optimize {
            Some(_) if self.budget.exhausted() => {
                telemetry.event(Level::Warn, "wall spent: skipping optimization");
                circuit
            }
            Some(opt_cfg) => {
                let _span = telemetry.span("optimize");
                let before = circuit.gate_count();
                let mut cfg = opt_cfg.clone();
                cfg.time_budget = cfg.time_budget.min(self.budget.remaining());
                let circuit = optimize_with(&circuit, &cfg, telemetry);
                telemetry.event(
                    Level::Info,
                    &format!(
                        "optimization: {before} -> {} AND nodes",
                        circuit.gate_count()
                    ),
                );
                circuit
            }
            None => circuit,
        };
        self.budget.checkpoint(telemetry, "optimize");
        telemetry.set_aig_nodes(circuit.gate_count() as u64);
        telemetry.emit_metrics_snapshot();
        circuit
    }

    /// The finished run: outputs attached, optimized, and reported.
    fn result(mut self, degraded: Vec<usize>) -> LearnResult {
        let names = self.oracle.output_names();
        for (o, name) in names.iter().enumerate() {
            self.circuit
                .add_output(self.edges[o].unwrap_or(Edge::FALSE), name.clone());
        }
        let circuit = self.circuit.cleanup();
        let gates_before_opt: Vec<usize> = (0..names.len())
            .map(|o| circuit.output_cone_size(o))
            .collect();
        let circuit = self.optimize(circuit);

        let outputs: Vec<OutputStats> = (0..names.len())
            .map(|o| OutputStats {
                output: o,
                name: names[o].clone(),
                strategy: self.strategies[o].unwrap_or(Strategy::Degraded),
                support_size: self.support_sizes[o],
                forced_leaves: self.forced[o],
                elapsed: self.out_elapsed[o],
                queries: self.out_queries[o],
                gates_before_opt: gates_before_opt[o],
                gates_after_opt: circuit.output_cone_size(o),
            })
            .collect();
        self.telemetry
            .set_outputs(outputs.iter().map(OutputStats::to_report).collect());
        if let Some(e) = self.oracle.failure() {
            self.telemetry.event(
                Level::Error,
                &format!(
                    "oracle died beyond recovery ({e}); {} of {} outputs degraded",
                    degraded.len(),
                    names.len()
                ),
            );
        }
        let faults = FaultSummary {
            fallback_answers: self.oracle.fallback_answers(),
            degraded_outputs: degraded.len() as u64,
            oracle_error: self.oracle.failure().map(|e| e.to_string()),
        };
        LearnResult {
            circuit,
            outputs,
            elapsed: self.elapsed(),
            queries: self.queries(),
            degraded,
            faults,
        }
    }
}

/// Writes a checkpoint, recording `ckpt.*` counters and a `ckpt` trace
/// event. A failed write warns and keeps running — losing one
/// checkpoint cadence beats dying with the work in memory.
fn write_checkpoint(telemetry: &Telemetry, path: &std::path::Path, state: &LearnState) {
    match state.save(path) {
        Ok(bytes) => {
            telemetry.incr(Counter::CkptWrites);
            telemetry.add(Counter::CkptBytes, bytes as u64);
            telemetry.trace(
                "ckpt",
                &[
                    ("bytes", Json::from(bytes)),
                    ("queries", Json::from(state.queries_used)),
                    ("outputs_done", Json::from(state.outputs_done())),
                ],
            );
        }
        Err(e) => telemetry.event(
            Level::Warn,
            &format!("checkpoint write to {} failed: {e}", path.display()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_oracle::{evaluate_accuracy, generate, CircuitOracle, EvalConfig};
    use cirlearn_telemetry::{counters, histograms};

    fn check_exact(oracle: &CircuitOracle, result: &LearnResult) -> bool {
        cirlearn_sat::check_equivalence(oracle.reveal(), &result.circuit).is_equivalent()
    }

    #[test]
    fn learns_small_random_logic_exactly() {
        let mut oracle = generate::eco_case_with_support(16, 3, 6, 42);
        let mut learner = Learner::new(LearnerConfig::fast());
        let result = learner.learn(&mut oracle);
        assert!(check_exact(&oracle, &result), "small ECO must be exact");
        assert!(result
            .outputs
            .iter()
            .all(|s| s.strategy == Strategy::Exhaustive));
    }

    #[test]
    fn learns_diag_case_via_templates() {
        let mut oracle = generate::diag_case(20, 3, 5);
        let mut learner = Learner::new(LearnerConfig::fast());
        let result = learner.learn(&mut oracle);
        assert!(
            result
                .outputs
                .iter()
                .all(|s| s.strategy == Strategy::ComparatorTemplate),
            "DIAG outputs should match the comparator template: {:?}",
            result.outputs
        );
        let acc = evaluate_accuracy(
            oracle.reveal(),
            &result.circuit,
            &EvalConfig {
                patterns_per_group: 2000,
                ..EvalConfig::default()
            },
        );
        assert_eq!(acc.hits, acc.total, "template match must be exact");
    }

    #[test]
    fn learns_data_case_via_linear_template() {
        let mut oracle = generate::data_case(12, 8, 9);
        let mut learner = Learner::new(LearnerConfig::fast());
        let result = learner.learn(&mut oracle);
        assert!(
            result
                .outputs
                .iter()
                .all(|s| s.strategy == Strategy::LinearTemplate),
            "DATA outputs should match the linear template: {:?}",
            result.outputs
        );
        assert!(check_exact(&oracle, &result));
    }

    #[test]
    fn preprocessing_off_still_learns() {
        let mut oracle = generate::diag_case(12, 1, 31);
        let mut cfg = LearnerConfig::fast();
        cfg.preprocessing = false;
        let mut learner = Learner::new(cfg);
        let result = learner.learn(&mut oracle);
        assert!(matches!(
            result.outputs[0].strategy,
            Strategy::Exhaustive | Strategy::Fbdt
        ));
        let acc = evaluate_accuracy(
            oracle.reveal(),
            &result.circuit,
            &EvalConfig {
                patterns_per_group: 2000,
                ..EvalConfig::default()
            },
        );
        assert!(acc.ratio() > 0.95, "accuracy {acc}");
    }

    #[test]
    fn cover_build_histogram_has_one_sample_per_output_built_from_a_cover() {
        let mut oracle = generate::eco_case(14, 3, 55);
        let telemetry = Telemetry::recording();
        let mut learner = Learner::with_telemetry(LearnerConfig::fast(), telemetry.clone());
        let result = learner.learn(&mut oracle);
        let from_cover = result
            .outputs
            .iter()
            .filter(|s| {
                matches!(
                    s.strategy,
                    Strategy::Exhaustive | Strategy::Fbdt | Strategy::CompressedFbdt
                )
            })
            .count() as u64;
        assert!(
            from_cover > 0,
            "the case must build some output from a cover"
        );
        let report = telemetry.report();
        let samples = &report.histograms[histograms::COVER_BUILD_NS];
        assert_eq!(samples.count, from_cover);
        assert!(samples.sum > 0);
    }

    #[test]
    fn telemetry_stage_queries_sum_to_result_queries() {
        let mut oracle = generate::eco_case(14, 3, 55);
        let telemetry = Telemetry::recording();
        let mut learner = Learner::with_telemetry(LearnerConfig::fast(), telemetry.clone());
        let result = learner.learn(&mut oracle);
        let report = telemetry.report();
        // Every oracle query is issued inside exactly one top-level
        // stage span, so the per-stage breakdown partitions the total.
        assert_eq!(
            report.top_level_counter_sum(counters::ORACLE_QUERIES),
            result.queries,
            "stage query counts must partition the run total"
        );
        assert_eq!(report.counter(counters::ORACLE_QUERIES), result.queries);
        // The cost ledger is fed by the same source (the guarded
        // oracle tags each query with the active top-level stage), so
        // its cells partition the run total exactly, per stage and
        // overall.
        assert_eq!(
            report.attribution_total_queries(),
            result.queries,
            "attribution ledger must account for every query"
        );
        for stage in report.stages.iter().filter(|s| !s.path.contains('/')) {
            assert_eq!(
                report.attribution_stage_queries(&stage.path),
                stage
                    .counters
                    .get(counters::ORACLE_QUERIES)
                    .copied()
                    .unwrap_or(0),
                "ledger and stage breakdown disagree for {}",
                stage.path
            );
        }
        // Per-output queries are a subset of the total (template
        // matches contribute zero).
        let per_output: u64 = result.outputs.iter().map(|s| s.queries).sum();
        assert!(per_output <= result.queries);
        // Cone sizes never grow under optimization.
        for s in &result.outputs {
            assert!(
                s.gates_after_opt <= s.gates_before_opt,
                "output {}",
                s.output
            );
        }
    }

    #[test]
    fn output_count_and_names_preserved() {
        let mut oracle = generate::eco_case(14, 4, 77);
        let mut learner = Learner::new(LearnerConfig::fast());
        let result = learner.learn(&mut oracle);
        assert_eq!(result.circuit.num_outputs(), 4);
        let names: Vec<&str> = result
            .circuit
            .outputs()
            .iter()
            .map(|(_, n)| n.as_str())
            .collect();
        assert_eq!(
            names,
            oracle
                .output_names()
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        );
        assert!(result.queries > 0);
    }
}

#[cfg(test)]
mod degradation_tests {
    use super::*;
    use cirlearn_oracle::{generate, FaultKind, FaultSchedule, FaultyOracle};

    #[test]
    fn clean_run_reports_no_faults() {
        let mut oracle = generate::eco_case(12, 3, 11);
        let result = Learner::new(LearnerConfig::fast()).learn(&mut oracle);
        assert!(result.degraded.is_empty());
        assert!(!result.faults.any());
        assert_eq!(result.faults.fallback_answers, 0);
        assert!(result.faults.oracle_error.is_none());
    }

    #[test]
    fn permanent_oracle_death_degrades_instead_of_panicking() {
        // The oracle crashes early and is never respawned: every answer
        // after the crash is a fallback. The learner must still return
        // a complete circuit, with the affected outputs degraded.
        let schedule = FaultSchedule::new().at(40, FaultKind::Crash);
        let mut oracle = FaultyOracle::new(generate::eco_case(14, 3, 23), schedule);
        let mut cfg = LearnerConfig::fast();
        cfg.preprocessing = false;
        let result = Learner::new(cfg).learn(&mut oracle);
        assert_eq!(result.circuit.num_outputs(), 3, "circuit stays complete");
        assert!(!result.degraded.is_empty(), "crash must degrade outputs");
        assert!(result.faults.any());
        assert_eq!(result.faults.degraded_outputs, result.degraded.len() as u64);
        assert!(result
            .faults
            .oracle_error
            .as_deref()
            .is_some_and(|e| e.contains("died")));
        for &o in &result.degraded {
            assert_eq!(result.outputs[o].strategy, Strategy::Degraded);
        }
        // Degraded constants still lint: every output edge resolves.
        assert!(result.circuit.cleanup().num_outputs() == 3);
    }

    #[test]
    fn death_during_templates_degrades_every_output() {
        // A fault inside the shared template stage poisons all matches.
        let schedule = FaultSchedule::new().at(5, FaultKind::Crash);
        let mut oracle = FaultyOracle::new(generate::diag_case(16, 2, 9), schedule);
        let result = Learner::new(LearnerConfig::fast()).learn(&mut oracle);
        assert_eq!(result.degraded, vec![0, 1]);
        assert!(result
            .outputs
            .iter()
            .all(|s| s.strategy == Strategy::Degraded));
        assert!(result.faults.fallback_answers > 0);
    }

    #[test]
    fn zero_time_budget_degrades_gracefully() {
        let mut oracle = generate::eco_case(12, 4, 31);
        let mut cfg = LearnerConfig::fast();
        cfg.preprocessing = false;
        cfg.time_budget = Duration::ZERO;
        let result = Learner::new(cfg).learn(&mut oracle);
        assert_eq!(result.circuit.num_outputs(), 4);
        assert_eq!(result.degraded, vec![0, 1, 2, 3]);
        // Budget expiry is degradation without an oracle fault.
        assert!(result.faults.oracle_error.is_none());
        assert!(result.faults.any());
    }

    #[test]
    fn telemetry_counts_degraded_outputs() {
        let schedule = FaultSchedule::new().at(0, FaultKind::Crash);
        let mut oracle = FaultyOracle::new(generate::eco_case(10, 2, 7), schedule);
        let telemetry = Telemetry::recording();
        let mut learner = Learner::with_telemetry(LearnerConfig::fast(), telemetry.clone());
        let result = learner.learn(&mut oracle);
        assert_eq!(
            telemetry.counter(Counter::FaultDegradedOutputs),
            result.degraded.len() as u64
        );
        let report = telemetry.report();
        assert_eq!(report.faults.degraded_outputs, result.degraded.len() as u64);
    }
}

#[cfg(test)]
mod resume_tests {
    use super::*;
    use cirlearn_logic::Assignment;
    use cirlearn_oracle::{generate, CircuitOracle, OracleError};

    fn fingerprint(circuit: &Aig) -> u64 {
        let text = circuit.to_aiger_ascii();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn config() -> LearnerConfig {
        // Query-budgeted and unoptimized: machine-independent, so a
        // suspended-and-resumed run must be *bit-identical* to the
        // uninterrupted one, not merely equivalent.
        let mut cfg = LearnerConfig::fast();
        cfg.optimize = None;
        cfg.max_queries = Some(60_000);
        cfg
    }

    fn reference(case_seed: u64) -> LearnResult {
        let mut oracle = generate::neq_case_with_support(26, 2, 22, case_seed);
        Learner::new(config()).learn(&mut oracle)
    }

    #[test]
    fn suspend_resume_is_bit_identical_at_every_safe_point() {
        let want = reference(97);
        assert!(want.queries > 0);
        // Suspend at every safe point in turn — output boundaries and
        // deep mid-tree — resume, and compare, until the run passes its
        // last safe point and completes.
        let mut n = 0;
        loop {
            let mut oracle = generate::neq_case_with_support(26, 2, 22, 97);
            let mut learner = Learner::new(config());
            let ctl = RunControl {
                stop_after_safe_points: Some(n),
                ..RunControl::default()
            };
            let outcome = learner.learn_with(&mut oracle, &ctl);
            let Some(state) = outcome.suspended() else {
                break;
            };
            // Roundtrip through the file bytes so the on-disk format is
            // part of what the bit-identity proof covers.
            let state = LearnState::from_file_bytes(&state.to_file_bytes()).expect("roundtrip");
            let got = learner
                .resume(state, &mut oracle, &RunControl::default())
                .expect("state validates")
                .expect_completed();
            assert_eq!(
                fingerprint(&got.circuit),
                fingerprint(&want.circuit),
                "resume after {n} safe points diverged"
            );
            assert_eq!(got.queries, want.queries, "cumulative queries at n={n}");
            assert_eq!(
                got.outputs.iter().map(|s| s.queries).collect::<Vec<_>>(),
                want.outputs.iter().map(|s| s.queries).collect::<Vec<_>>(),
                "per-output query ledger at n={n}"
            );
            assert!(got.degraded.is_empty());
            n += 1;
        }
        // Pinned so that no change can add or drop a safe point unseen.
        assert_eq!(n, 58, "the run passes exactly 58 safe points");
    }

    #[test]
    fn chained_suspensions_accumulate_queries_exactly() {
        // Suspend repeatedly — each segment does a sliver of work — and
        // check the final totals match the uninterrupted run.
        let want = reference(131);
        let mut oracle = generate::neq_case_with_support(26, 2, 22, 131);
        let mut learner = Learner::new(config());
        let ctl = RunControl {
            stop_after_safe_points: Some(15),
            ..RunControl::default()
        };
        let mut outcome = learner.learn_with(&mut oracle, &ctl);
        let mut segments = 1;
        let got = loop {
            match outcome {
                LearnOutcome::Completed(result) => break *result,
                LearnOutcome::Suspended(state) => {
                    segments += 1;
                    assert!(segments < 1000, "resume loop did not converge");
                    outcome = learner
                        .resume(*state, &mut oracle, &ctl)
                        .expect("state validates");
                }
            }
        };
        assert!(segments >= 3, "test should actually chain segments");
        assert_eq!(fingerprint(&got.circuit), fingerprint(&want.circuit));
        assert_eq!(got.queries, want.queries);
        let per_output: u64 = got.outputs.iter().map(|s| s.queries).sum();
        assert!(per_output <= got.queries);
    }

    #[test]
    fn resume_rejects_mismatched_config_and_oracle() {
        let mut oracle = generate::neq_case_with_support(26, 2, 22, 11);
        let mut learner = Learner::new(config());
        let ctl = RunControl {
            stop_after_safe_points: Some(1),
            ..RunControl::default()
        };
        let state = learner
            .learn_with(&mut oracle, &ctl)
            .suspended()
            .expect("suspends at safe point 1");

        // Different config: fingerprint mismatch.
        let mut other = Learner::new(LearnerConfig::fast());
        let err = other
            .resume((*state).clone(), &mut oracle, &RunControl::default())
            .expect_err("config changed");
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");

        // Different oracle shape: port-name mismatch.
        let mut wrong_oracle = generate::eco_case(8, 2, 3);
        let err = learner
            .resume((*state).clone(), &mut wrong_oracle, &RunControl::default())
            .expect_err("oracle changed");
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");

        // The matching pair still works.
        let got = learner
            .resume(*state, &mut oracle, &RunControl::default())
            .expect("valid resume")
            .expect_completed();
        assert_eq!(got.circuit.num_outputs(), 2);
    }

    #[test]
    fn checkpoint_cadence_writes_files_and_counters() {
        let dir = std::env::temp_dir().join(format!("cirlearn-cadence-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("run.ckpt");
        let mut oracle = generate::neq_case_with_support(26, 2, 22, 55);
        let telemetry = Telemetry::recording();
        let mut learner = Learner::with_telemetry(config(), telemetry.clone());
        let ctl = RunControl {
            checkpoint_path: Some(path.clone()),
            checkpoint_interval: Duration::ZERO, // every safe point
            ..RunControl::default()
        };
        let result = learner.learn_with(&mut oracle, &ctl).expect_completed();
        assert!(result.degraded.is_empty());
        let writes = telemetry.counter(Counter::CkptWrites);
        assert!(writes >= 2, "cadence should have written checkpoints");
        // `ckpt.bytes` sums every write, so it exceeds the one file the
        // last write left behind.
        let on_disk = std::fs::metadata(&path).expect("checkpoint on disk").len();
        assert!(telemetry.counter(Counter::CkptBytes) > on_disk);
        // The file on disk is a valid checkpoint of the finished run.
        let state = LearnState::load(&path).expect("valid checkpoint on disk");
        assert_eq!(state.output_names.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_degrades_instead_of_overshooting() {
        // A wall spent before the first output: every output degrades
        // instead of the run overshooting, under a query cap too.
        let mut oracle = generate::neq_case_with_support(26, 3, 22, 77);
        let mut cfg = config();
        cfg.time_budget = Duration::ZERO;
        let result = Learner::new(cfg)
            .learn_with(&mut oracle, &RunControl::default())
            .expect_completed();
        // Complete circuit, every output degraded, nobody panicked.
        assert_eq!(result.circuit.num_outputs(), 3);
        assert_eq!(result.degraded, vec![0, 1, 2]);
        assert!(result.faults.any());
        assert!(result.faults.oracle_error.is_none());
    }

    #[test]
    fn wall_mid_tree_synthesizes_from_collected_cubes() {
        // Suspend mid-tree, then resume with the whole wall already
        // spent: the in-flight output must be synthesized from its
        // collected cubes (Strategy::Fbdt, reported degraded), not
        // thrown away, and no further query is issued.
        let mut oracle = generate::neq_case_with_support(26, 1, 22, 97);
        let mut learner = Learner::new(config());
        // Burn enough safe points to be deep inside the FBDT.
        let ctl = RunControl {
            stop_after_safe_points: Some(30),
            ..RunControl::default()
        };
        let mut state = learner
            .learn_with(&mut oracle, &ctl)
            .suspended()
            .expect("deep suspension");
        assert!(
            matches!(state.cursor, Cursor::Fbdt { .. }),
            "30 safe points on one output should land mid-tree"
        );
        state.elapsed_before = config().time_budget;
        let queries_used = state.queries_used;
        let telemetry = Telemetry::recording();
        let mut learner = Learner::with_telemetry(config(), telemetry.clone());
        let result = learner
            .resume(*state, &mut oracle, &RunControl::default())
            .expect("state validates")
            .expect_completed();
        assert_eq!(result.degraded, vec![0], "cut output reported degraded");
        assert_eq!(result.outputs[0].strategy, Strategy::Fbdt);
        assert_eq!(telemetry.counter(Counter::CkptDeadlinePartialOutputs), 1);
        assert_eq!(result.queries, queries_used, "no query past the wall");
    }

    #[test]
    fn resume_accepts_a_different_time_budget() {
        // The wall is cumulative and may move between segments: a
        // resumed segment under another `time_budget` is the same run.
        let want = reference(97);
        let mut oracle = generate::neq_case_with_support(26, 2, 22, 97);
        let ctl = RunControl {
            stop_after_safe_points: Some(30),
            ..RunControl::default()
        };
        let state = Learner::new(config())
            .learn_with(&mut oracle, &ctl)
            .suspended()
            .expect("suspends mid-run");
        let mut longer = config();
        longer.time_budget *= 2;
        let got = Learner::new(longer)
            .resume(*state, &mut oracle, &RunControl::default())
            .expect("a new wall validates")
            .expect_completed();
        assert_eq!(fingerprint(&got.circuit), fingerprint(&want.circuit));
        assert_eq!(got.queries, want.queries);
    }

    /// An oracle that dies after `delay` on its first call (the guard
    /// never calls a dead oracle again).
    struct DiesSlowly {
        inner: CircuitOracle,
        delay: Duration,
    }

    impl Oracle for DiesSlowly {
        fn num_inputs(&self) -> usize {
            self.inner.num_inputs()
        }

        fn num_outputs(&self) -> usize {
            self.inner.num_outputs()
        }

        fn input_names(&self) -> &[String] {
            self.inner.input_names()
        }

        fn output_names(&self) -> &[String] {
            self.inner.output_names()
        }

        fn try_query_batch(&mut self, _: &[Assignment]) -> Result<Vec<Vec<bool>>, OracleError> {
            std::thread::sleep(self.delay);
            Err(OracleError::Died("killed mid-query".into()))
        }

        fn queries(&self) -> u64 {
            self.inner.queries()
        }
    }

    #[test]
    fn wall_after_oracle_death_lists_the_output_once() {
        // Resume mid-tree; the first query outlives the wall and kills
        // the oracle, so the output is both cut short by the wall and
        // stripped of its untrustworthy cover.
        let mut oracle = generate::neq_case_with_support(26, 1, 22, 97);
        let mut learner = Learner::new(config());
        let ctl = RunControl {
            stop_after_safe_points: Some(30),
            ..RunControl::default()
        };
        let mut state = learner
            .learn_with(&mut oracle, &ctl)
            .suspended()
            .expect("deep suspension");
        assert!(matches!(state.cursor, Cursor::Fbdt { .. }));
        state.elapsed_before = config().time_budget - Duration::from_millis(300);
        let mut oracle = DiesSlowly {
            inner: oracle,
            delay: Duration::from_millis(600),
        };
        let result = learner
            .resume(*state, &mut oracle, &RunControl::default())
            .expect("state validates")
            .expect_completed();
        assert!(result.faults.oracle_error.is_some());
        assert_eq!(result.degraded, vec![0], "one output, listed once");
        assert_eq!(result.faults.degraded_outputs, 1);
        assert_eq!(result.outputs[0].strategy, Strategy::Degraded);
    }
}

#[cfg(test)]
mod query_budget_tests {
    use super::*;
    use cirlearn_oracle::generate;

    #[test]
    fn query_budget_is_respected_and_deterministic() {
        let run = |cap: u64| {
            let mut oracle = generate::neq_case_with_support(30, 2, 24, 321);
            let mut cfg = LearnerConfig::fast();
            cfg.max_queries = Some(cap);
            cfg.optimize = None;
            let r = Learner::new(cfg).learn(&mut oracle);
            (r.queries, r.circuit.gate_count())
        };
        let (q1, g1) = run(60_000);
        let (q2, g2) = run(60_000);
        assert_eq!((q1, g1), (q2, g2), "same budget must reproduce exactly");
        // The budget caps FBDT queries; support identification and the
        // per-node sampling of the final forced leaves still run, so
        // allow bounded overshoot rather than an exact ceiling.
        assert!(q1 < 200_000, "queries {q1} far beyond the 60k budget");
        // A tighter budget must not use more queries.
        let (q3, _) = run(20_000);
        assert!(q3 <= q1, "tighter budget used more queries: {q3} > {q1}");
    }
}
