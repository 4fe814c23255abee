//! The end-to-end learning pipeline (paper Fig. 1).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cirlearn_aig::{Aig, Edge};
use cirlearn_oracle::{InstrumentedOracle, Oracle};
use cirlearn_synth::{optimize_with, OptimizeConfig};
use cirlearn_telemetry::json::Json;
use cirlearn_telemetry::{counters, histograms, Level, OutputReport, Telemetry};
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
/// checkpointing, a cooperative stop flag, and a hard deadline.
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
    /// Hard deadline on *cumulative* run time across all segments.
    /// Once exceeded, in-flight FBDT construction stops and each
    /// unfinished output is synthesized from its already-collected
    /// cubes (falling back to the majority constant), instead of the
    /// run overshooting or dying.
    pub deadline: Option<Duration>,
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
            deadline: None,
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
    /// Total wall-clock budget (the paper ran under 2700 s).
    pub time_budget: Duration,
    /// Optional total query budget: unlike wall-clock time it is
    /// machine-independent, so budgeted runs reproduce exactly.
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
    /// output; on budget exhaustion the remaining outputs degrade to
    /// majority-vote approximations (the paper's early-stop behaviour)
    /// rather than being dropped.
    ///
    /// Queries flow through the oracle's *fallible* path
    /// ([`Oracle::try_query`]). If the oracle dies beyond recovery the
    /// learner does not panic: outputs whose learning overlapped the
    /// failure degrade to a baseline constant circuit, the rest keep
    /// whatever was validly learned before the fault, and
    /// [`LearnResult::degraded`] / [`LearnResult::faults`] record what
    /// happened.
    pub fn learn<O: Oracle + ?Sized>(&mut self, oracle: &mut O) -> LearnResult {
        match self.run(oracle, &RunControl::default(), None) {
            LearnOutcome::Completed(result) => *result,
            LearnOutcome::Suspended(_) => {
                unreachable!("default RunControl has no stop source; the run cannot suspend")
            }
        }
    }

    /// Learns under external run control: periodic checkpoints, a
    /// cooperative stop flag, and a hard deadline (see [`RunControl`]).
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
        self.run(oracle, ctl, None)
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
    /// belong to this run: different configuration fingerprint,
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
        let restored = self.validate(state, oracle)?;
        Ok(self.run(oracle, ctl, Some(restored)))
    }

    /// Converts checkpoint state into live run state, performing every
    /// fallible check up front so `run` itself is infallible.
    fn validate<O: Oracle + ?Sized>(
        &self,
        state: LearnState,
        oracle: &mut O,
    ) -> Result<Restored, CheckpointError> {
        let fp = config_fingerprint(&self.config);
        if fp != state.config_fingerprint {
            return Err(CheckpointError::Mismatch(format!(
                "config fingerprint {fp:016x} differs from the checkpoint's {:016x} \
                 (the configuration must not change between segments)",
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
        let fbdt = match state.cursor {
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
                Some(FbdtResume {
                    builder: FbdtBuilder::restore(snapshot, &fbdt_cfg),
                    max_queries,
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
        Ok(Restored {
            circuit,
            rng: StdRng::from_state(state.rng),
            progress: Progress {
                edges,
                strategies: state.strategies,
                support_sizes: state.support_sizes,
                forced: state.forced,
                out_elapsed: state.out_elapsed,
                out_queries: state.out_queries,
                truth_bias: state.truth_bias,
            },
            queries_used: state.queries_used,
            elapsed_before: state.elapsed_before,
            fbdt,
        })
    }

    /// The run engine behind [`Learner::learn`], [`Learner::learn_with`]
    /// and [`Learner::resume`]: infallible, with all resume validation
    /// already done by [`Learner::validate`].
    fn run<O: Oracle + ?Sized>(
        &mut self,
        oracle: &mut O,
        ctl: &RunControl,
        restored: Option<Restored>,
    ) -> LearnOutcome {
        let telemetry = self.telemetry.clone();
        // Count queries at the source: every query the pipeline issues
        // from here on lands on the `oracle.queries` counter and is
        // attributed to the stage span active when it was served.
        // The guard outside routes them through the fallible path and
        // latches the first terminal failure for per-output isolation,
        // dumping the flight recorder at the moment of the fault.
        let mut oracle = OracleGuard::with_telemetry(
            InstrumentedOracle::new(oracle, telemetry.clone()),
            telemetry.clone(),
        );
        let resuming = restored.is_some();
        let num_outputs = oracle.num_outputs();
        let input_names: Vec<String> = oracle.input_names().to_vec();
        let output_names: Vec<String> = oracle.output_names().to_vec();

        let (mut circuit, mut rng, mut progress, queries_used, elapsed_before, mut fbdt_resume) =
            match restored {
                Some(r) => (
                    r.circuit,
                    r.rng,
                    r.progress,
                    r.queries_used,
                    r.elapsed_before,
                    r.fbdt,
                ),
                None => {
                    let mut circuit = Aig::new();
                    for name in &input_names {
                        circuit.add_input(name.clone());
                    }
                    (
                        circuit,
                        seeded_rng(self.config.seed),
                        Progress::fresh(num_outputs),
                        0,
                        Duration::ZERO,
                        None,
                    )
                }
            };
        // The budget covers the whole run, not this segment: time spent
        // in prior segments is already gone.
        let budget = Budget::new(self.config.time_budget.saturating_sub(elapsed_before));
        let start_queries = oracle.queries();

        if resuming {
            telemetry.incr(counters::CKPT_RESUMES);
            let done = progress.edges.iter().filter(|e| e.is_some()).count();
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
                    "resumed: {done}/{num_outputs} outputs learned, {queries_used} queries \
                     and {elapsed_before:.1?} spent in prior segments"
                ),
            );
        }

        // Steps 1–2: name based grouping + template matching. Grouping
        // is recomputed on resume (it is a pure function of the port
        // names), but the template stage ran to completion in the first
        // segment — it is atomic, never suspended into a checkpoint —
        // so a resumed run skips it.
        let in_grouping = self.config.preprocessing.then(|| group_names(&input_names));
        if !resuming {
            if let Some(grouping) = &in_grouping {
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
                let out_grouping = group_names(&output_names);
                let _span = telemetry.span("templates");
                self.match_templates(
                    &mut oracle,
                    grouping,
                    &out_grouping,
                    &mut circuit,
                    &mut progress.edges,
                    &mut progress.strategies,
                    &mut rng,
                );
            }
            budget.checkpoint(&telemetry, "templates");
            if oracle.failed() {
                // The fault hit during the shared template stage: any match
                // may have validated against fallback answers, so none can
                // be trusted. Discard them all; every output degrades.
                telemetry.event(
                    Level::Warn,
                    "oracle failed during template matching; discarding template matches",
                );
                progress.edges.fill(None);
                progress.strategies.fill(None);
            }
        }

        // Steps 3–4 for the remaining outputs. On resume the set is
        // recomputed from the learned edges; an in-flight FBDT output
        // goes first (it was first among the unfinished outputs when it
        // suspended, so the budget-share arithmetic is unchanged).
        let mut remaining: Vec<usize> = (0..num_outputs)
            .filter(|&o| progress.edges[o].is_none())
            .collect();
        if let Some(f) = &fbdt_resume {
            let o = f.builder.output();
            remaining.retain(|&x| x != o);
            remaining.insert(0, o);
        }
        if !resuming {
            telemetry.event(
                Level::Info,
                &format!(
                    "templates matched {} of {} outputs",
                    num_outputs - remaining.len(),
                    num_outputs
                ),
            );
        }

        telemetry.set_progress(
            progress.edges.iter().filter(|e| e.is_some()).count() as u64,
            num_outputs as u64,
        );

        let stop_flag = ctl.stop.clone();
        let stop_requested = move || {
            stop_flag
                .as_ref()
                .is_some_and(|s| s.load(Ordering::Relaxed))
        };
        let dump_flag = ctl.dump.clone();
        let dump_requested = move || {
            // Swap, not load: the flag is an edge trigger — each
            // SIGUSR1 produces exactly one dump at the next safe point.
            // relaxed-ok: the flag is a standalone edge trigger; no
            // other memory is published through it, and the swap's
            // read-modify-write atomicity alone guarantees one dump
            // per signal.
            dump_flag
                .as_ref()
                .is_some_and(|d| d.swap(false, Ordering::Relaxed))
        };
        let deadline_hit = |budget: &Budget| {
            ctl.deadline
                .is_some_and(|d| elapsed_before + budget.elapsed() >= d)
        };
        let mut deadline_dumped = false;
        let mut safe_points: u64 = 0;
        let mut last_ckpt = Instant::now();
        let mut suspended: Option<Box<LearnState>> = None;
        // Outputs whose FBDT the deadline cut short: they keep their
        // partial-cube circuit but are reported as degraded.
        let mut deadline_partials: Vec<usize> = Vec::new();

        'outputs: for (k, &o) in remaining.iter().enumerate() {
            // Safe point: output boundary.
            if dump_requested() {
                telemetry.dump_flight("signal");
            }
            let reached = safe_points;
            safe_points += 1;
            let want_stop =
                stop_requested() || ctl.stop_after_safe_points.is_some_and(|cap| reached >= cap);
            let cadence_due =
                ctl.checkpoint_path.is_some() && last_ckpt.elapsed() >= ctl.checkpoint_interval;
            if want_stop || cadence_due {
                let state = progress.to_state(
                    &self.config,
                    &rng,
                    &circuit,
                    &input_names,
                    &output_names,
                    queries_used + (oracle.queries() - start_queries),
                    elapsed_before + budget.elapsed(),
                    Cursor::NextOutput,
                    oracle.checkpoint_state(),
                );
                if let Some(path) = &ctl.checkpoint_path {
                    write_checkpoint(&telemetry, path, &state);
                    last_ckpt = Instant::now();
                }
                if want_stop {
                    suspended = Some(Box::new(state));
                    break 'outputs;
                }
            }
            if oracle.failed() || budget.exhausted() {
                // Per-output isolation: a dead oracle answers constant
                // fallbacks instantly, but learning from them would
                // only launder junk into the circuit — and past the
                // budget there is no time left to sample honestly.
                // Leave the edge empty; it degrades to a baseline
                // constant below.
                continue;
            }
            let has_resumed_tree = fbdt_resume
                .as_ref()
                .is_some_and(|f| f.builder.output() == o);
            if deadline_hit(&budget) && !has_resumed_tree {
                if !deadline_dumped {
                    deadline_dumped = true;
                    telemetry.dump_flight("deadline");
                }
                // Degradation ladder, bottom rung: outputs not yet
                // started get the majority constant below. An in-flight
                // resumed tree still enters its arm so the cubes it
                // already collected are synthesized, not discarded.
                continue;
            }
            let out_start = Instant::now();
            let queries_before = oracle.queries();
            // Everything from here to the end of the iteration is this
            // output's work: tag queries and gate builds with it.
            let _out_scope = telemetry.output_scope(o);

            let resumed_tree = match &fbdt_resume {
                Some(f) if f.builder.output() == o => fbdt_resume.take(),
                _ => None,
            };
            let (partial_elapsed, partial_queries) =
                resumed_tree.as_ref().map_or((Duration::ZERO, 0), |f| {
                    (f.partial_elapsed, f.partial_queries)
                });

            // Pick the arm: a resumed tree continues directly; fresh
            // outputs go through support identification first.
            let arm = if let Some(resume) = resumed_tree {
                let share = 1.0 / (remaining.len() - k) as f64;
                Arm::Tree {
                    builder: Box::new(resume.builder),
                    node_budget: budget.fraction_of_remaining(share),
                    cap: resume.max_queries,
                }
            } else {
                let info = {
                    let _span = telemetry.span("support");
                    identify_support(&mut oracle, o, &self.config.support_sampling, &mut rng)
                };
                progress.support_sizes[o] = info.support.len();
                progress.truth_bias[o] = Some(info.truth_ratio);
                telemetry.event(
                    Level::Debug,
                    &format!(
                        "output {o} ({}): support {} truth_ratio {:.3}",
                        output_names[o],
                        info.support.len(),
                        info.truth_ratio
                    ),
                );
                let share = 1.0 / (remaining.len() - k) as f64;
                let node_budget = budget.fraction_of_remaining(share);
                if info.support.len() <= self.config.fbdt.exhaustive_threshold {
                    progress.strategies[o] = Some(Strategy::Exhaustive);
                    let _span = telemetry.span("exhaustive");
                    let (cover, _) = learn_exhaustive(&mut oracle, o, &info.support, &mut rng);
                    let var_map = identity_var_map(&circuit);
                    Arm::Edge(self.cover_to_edge(&cover, &mut circuit, &var_map))
                } else if let Some(edge) = {
                    let _span = telemetry.span("compressed");
                    self.try_compressed(
                        &mut oracle,
                        o,
                        in_grouping.as_ref(),
                        &info.support,
                        &node_budget,
                        &mut circuit,
                        &mut rng,
                    )
                } {
                    progress.strategies[o] = Some(Strategy::CompressedFbdt);
                    Arm::Edge(edge)
                } else {
                    progress.strategies[o] = Some(Strategy::Fbdt);
                    // Portion any query budget over the outputs still to
                    // do — counting queries spent in prior segments.
                    let mut fbdt_cfg = self.config.fbdt.clone();
                    if let Some(total) = self.config.max_queries {
                        let used = queries_used + (oracle.queries() - start_queries);
                        let left = total.saturating_sub(used);
                        fbdt_cfg.max_queries = Some(left / (remaining.len() - k) as u64);
                    }
                    Arm::Tree {
                        cap: fbdt_cfg.max_queries,
                        builder: Box::new(FbdtBuilder::new(
                            o,
                            &info.support,
                            info.truth_ratio,
                            &fbdt_cfg,
                        )),
                        node_budget,
                    }
                }
            };

            let edge = match arm {
                Arm::Edge(edge) => edge,
                Arm::Tree {
                    mut builder,
                    node_budget,
                    cap,
                } => {
                    let _span = telemetry.span("fbdt");
                    let mut cut_short = false;
                    loop {
                        // Safe point: between node expansions.
                        if dump_requested() {
                            telemetry.dump_flight("signal");
                        }
                        let reached = safe_points;
                        safe_points += 1;
                        let want_stop = stop_requested()
                            || ctl.stop_after_safe_points.is_some_and(|cap| reached >= cap);
                        let cadence_due = ctl.checkpoint_path.is_some()
                            && last_ckpt.elapsed() >= ctl.checkpoint_interval;
                        if want_stop || cadence_due {
                            let state = progress.to_state(
                                &self.config,
                                &rng,
                                &circuit,
                                &input_names,
                                &output_names,
                                queries_used + (oracle.queries() - start_queries),
                                elapsed_before + budget.elapsed(),
                                Cursor::Fbdt {
                                    snapshot: builder.snapshot(),
                                    max_queries: cap,
                                    partial_elapsed: partial_elapsed + out_start.elapsed(),
                                    partial_queries: partial_queries
                                        + (oracle.queries() - queries_before),
                                },
                                oracle.checkpoint_state(),
                            );
                            if let Some(path) = &ctl.checkpoint_path {
                                write_checkpoint(&telemetry, path, &state);
                                last_ckpt = Instant::now();
                            }
                            if want_stop {
                                telemetry.set_fbdt_depth(None);
                                suspended = Some(Box::new(state));
                                break 'outputs;
                            }
                        }
                        if deadline_hit(&budget) {
                            if !deadline_dumped {
                                deadline_dumped = true;
                                telemetry.dump_flight("deadline");
                            }
                            builder.finish_now();
                            cut_short = true;
                            break;
                        }
                        if !builder.step(&mut oracle, &node_budget, &mut rng, &telemetry) {
                            break;
                        }
                    }
                    telemetry.set_fbdt_depth(None);
                    let (cover, stats) = builder.finish();
                    stats.record(&telemetry);
                    if cut_short {
                        telemetry.incr(counters::CKPT_DEADLINE_PARTIAL_OUTPUTS);
                        deadline_partials.push(o);
                        telemetry.event(
                            Level::Warn,
                            &format!(
                                "output {o} ({}): deadline hit, synthesized from {} collected cubes",
                                output_names[o],
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
                    progress.forced[o] = stats.forced_leaves;
                    let var_map = identity_var_map(&circuit);
                    self.cover_to_edge(&cover, &mut circuit, &var_map)
                }
            };
            if oracle.failed() {
                // The fault hit mid-output: the learned cover mixes
                // real and fallback answers and cannot be trusted.
                progress.strategies[o] = None;
            } else {
                progress.edges[o] = Some(edge);
            }
            progress.out_elapsed[o] = partial_elapsed + out_start.elapsed();
            progress.out_queries[o] = partial_queries + (oracle.queries() - queries_before);
            // `and_count`, not `gate_count`: outputs are not attached
            // until after the loop, so reachability-based counts would
            // read zero here.
            telemetry.set_aig_nodes(circuit.and_count() as u64);
            telemetry.set_progress(
                progress.edges.iter().filter(|e| e.is_some()).count() as u64,
                num_outputs as u64,
            );
        }
        if let Some(state) = suspended {
            // The ring holds the run's last moments; a suspension is
            // exactly when a post-mortem wants them on disk.
            telemetry.dump_flight("suspend");
            return LearnOutcome::Suspended(state);
        }
        budget.checkpoint(&telemetry, "learning");

        // Graceful degradation: any output still without an edge (the
        // oracle died, the budget or deadline expired, or its learned
        // cover was discarded above) falls back to the majority-vote
        // constant — the same baseline a budget-forced FBDT leaf uses —
        // so the result is always a complete, valid circuit.
        let mut degraded: Vec<usize> = Vec::new();
        for (o, name) in output_names.iter().enumerate() {
            if progress.edges[o].is_none() {
                let majority = progress.truth_bias[o].is_some_and(|r| r >= 0.5);
                progress.edges[o] = Some(if majority { Edge::TRUE } else { Edge::FALSE });
                progress.strategies[o] = Some(Strategy::Degraded);
                degraded.push(o);
                telemetry.incr(counters::FAULT_DEGRADED_OUTPUTS);
                telemetry.event(
                    Level::Warn,
                    &format!("output {o} ({name}) degraded to constant {majority}"),
                );
            }
        }
        // Deadline-cut outputs keep their partial-cube circuits but are
        // reported as degraded: their accuracy was not driven to the
        // leaf tolerance.
        degraded.extend(deadline_partials);
        degraded.sort_unstable();
        // Every output now has an edge (learned or degraded).
        telemetry.set_progress(num_outputs as u64, num_outputs as u64);

        for (o, name) in output_names.iter().enumerate() {
            circuit.add_output(progress.edges[o].unwrap_or(Edge::FALSE), name.clone());
        }
        let mut circuit = circuit.cleanup();
        let gates_before_opt: Vec<usize> = (0..num_outputs)
            .map(|o| circuit.output_cone_size(o))
            .collect();

        // Step 5: circuit optimization — skipped past the deadline (the
        // degradation ladder trades gates for finishing at all).
        if deadline_hit(&budget) {
            if self.config.optimize.is_some() {
                telemetry.event(Level::Warn, "deadline exceeded: skipping optimization");
            }
        } else if let Some(opt_cfg) = &self.config.optimize {
            let _span = telemetry.span("optimize");
            let before = circuit.gate_count();
            let mut cfg = opt_cfg.clone();
            cfg.time_budget = cfg.time_budget.min(budget.remaining());
            circuit = optimize_with(&circuit, &cfg, &telemetry);
            telemetry.event(
                Level::Info,
                &format!(
                    "optimization: {before} -> {} AND nodes",
                    circuit.gate_count()
                ),
            );
        }
        budget.checkpoint(&telemetry, "optimize");
        telemetry.set_aig_nodes(circuit.gate_count() as u64);
        telemetry.emit_metrics_snapshot();

        let outputs: Vec<OutputStats> = (0..num_outputs)
            .map(|o| OutputStats {
                output: o,
                name: output_names[o].clone(),
                strategy: progress.strategies[o].unwrap_or(Strategy::Degraded),
                support_size: progress.support_sizes[o],
                forced_leaves: progress.forced[o],
                elapsed: progress.out_elapsed[o],
                queries: progress.out_queries[o],
                gates_before_opt: gates_before_opt[o],
                gates_after_opt: circuit.output_cone_size(o),
            })
            .collect();
        telemetry.set_outputs(outputs.iter().map(OutputStats::to_report).collect());
        if let Some(e) = oracle.failure() {
            telemetry.event(
                Level::Error,
                &format!(
                    "oracle died beyond recovery ({e}); {} of {num_outputs} outputs degraded",
                    degraded.len()
                ),
            );
        }
        let faults = FaultSummary {
            fallback_answers: oracle.fallback_answers(),
            degraded_outputs: degraded.len() as u64,
            oracle_error: oracle.failure().map(|e| e.to_string()),
        };
        LearnOutcome::Completed(Box::new(LearnResult {
            circuit,
            outputs,
            elapsed: elapsed_before + budget.elapsed(),
            queries: queries_used + (oracle.queries() - start_queries),
            degraded,
            faults,
        }))
    }

    /// Runs template matching (step 2), filling in edges for every
    /// output a template explains.
    #[allow(clippy::too_many_arguments)]
    fn match_templates<O: Oracle + ?Sized>(
        &self,
        oracle: &mut O,
        in_grouping: &Grouping,
        out_grouping: &Grouping,
        circuit: &mut Aig,
        edges: &mut [Option<Edge>],
        strategies: &mut [Option<Strategy>],
        rng: &mut rand::rngs::StdRng,
    ) {
        if in_grouping.groups.is_empty() {
            return;
        }
        // For linear matching, scalar inputs participate as singleton
        // pseudo-buses: a lone wire can still carry a coefficient.
        let mut linear_groups = in_grouping.groups.clone();
        for &pos in &in_grouping.scalars {
            linear_groups.push(crate::naming::VarGroup {
                stem: oracle.input_names()[pos].clone(),
                positions: vec![pos],
                bits: vec![0],
            });
        }
        // Linear arithmetic over output buses first: one match explains
        // a whole bus of outputs.
        for out_group in &out_grouping.groups {
            if out_group.width() < 2 {
                continue;
            }
            if let Some(m) = match_linear(
                oracle,
                out_group,
                &linear_groups,
                &self.config.template,
                rng,
            ) {
                let gates_at = circuit.and_count();
                let words = m.build(circuit, &linear_groups);
                self.telemetry
                    .attribute_gates(circuit.and_count().saturating_sub(gates_at) as u64);
                for (edge, &pos) in words.iter().zip(&m.output_group.positions) {
                    edges[pos] = Some(*edge);
                    strategies[pos] = Some(Strategy::LinearTemplate);
                }
            }
        }
        // Comparators for the remaining single outputs.
        for o in 0..edges.len() {
            if edges[o].is_some() {
                continue;
            }
            let matched =
                match_comparator_pair(oracle, o, &in_grouping.groups, &self.config.template, rng)
                    .or_else(|| {
                        match_comparator_const(
                            oracle,
                            o,
                            &in_grouping.groups,
                            &self.config.template,
                            rng,
                        )
                    });
            if let Some(m) = matched {
                let gates_at = circuit.and_count();
                let edge = m.build(circuit, &in_grouping.groups);
                self.telemetry
                    .attribute_gates(circuit.and_count().saturating_sub(gates_at) as u64);
                edges[o] = Some(edge);
                strategies[o] = Some(Strategy::ComparatorTemplate);
            }
        }
    }

    /// Attempts the paper's §IV-B1 input compression: if a hidden
    /// comparator is detected for this output, learn the output over
    /// the compressed input space (delegate bit instead of the bus
    /// bits) and build the composition `F'(kept, O_s)` with the
    /// comparator subcircuit feeding the delegate variable.
    #[allow(clippy::too_many_arguments)]
    fn try_compressed<O: Oracle + ?Sized>(
        &self,
        oracle: &mut O,
        output: usize,
        in_grouping: Option<&Grouping>,
        support: &[usize],
        node_budget: &Budget,
        circuit: &mut Aig,
        rng: &mut rand::rngs::StdRng,
    ) -> Option<Edge> {
        let grouping = in_grouping?;
        // Only worth probing when some bus lies (mostly) inside the
        // estimated support.
        let candidate_groups: Vec<crate::naming::VarGroup> = grouping
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
        let delegate = crate::compress::find_hidden_comparator(
            oracle,
            output,
            &candidate_groups,
            &self.config.template,
            rng,
        )?;

        // Build the comparator subcircuit (the delegate's function).
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
        let mut compressed = crate::compress::DelegateOracle::new(oracle, vec![delegate]);
        let info = identify_support(&mut compressed, output, &self.config.support_sampling, rng);
        let cover = if info.support.len() <= self.config.fbdt.exhaustive_threshold {
            let (cover, _) = learn_exhaustive(&mut compressed, output, &info.support, rng);
            cover
        } else {
            let (cover, stats) = build_fbdt(
                &mut compressed,
                output,
                &info.support,
                info.truth_ratio,
                &self.config.fbdt,
                node_budget,
                rng,
                &self.telemetry,
            );
            stats.record(&self.telemetry);
            cover
        };
        // Virtual variable k maps to the kept input's edge; the final
        // virtual variable is the delegate's comparator output.
        let mut var_map: Vec<Edge> = compressed
            .kept_positions()
            .iter()
            .map(|&p| circuit.input_edge(p))
            .collect();
        var_map.push(os_edge);
        Some(self.cover_to_edge(&cover, circuit, &var_map))
    }

    /// Converts a learned cover into circuit structure: espresso
    /// minimization (size-guarded), algebraic factoring, and final
    /// complementation for offset covers. Cover variable `x_k` maps to
    /// `var_map[k]`. Its wall time is one `cover.build_ns` sample.
    fn cover_to_edge(&self, cover: &LearnedCover, circuit: &mut Aig, var_map: &[Edge]) -> Edge {
        let started = Instant::now();
        self.telemetry
            .add(counters::CUBES_COLLECTED, cover.sop.cubes().len() as u64);
        let gates_at = circuit.and_count();
        let edge = if cover.sop.cubes().len() <= self.config.espresso_cube_limit {
            self.telemetry.incr(counters::ESPRESSO_CALLS);
            cirlearn_synth::factor::sop_to_circuit(&cover.sop, circuit, var_map)
        } else {
            let expr = cirlearn_synth::factor::factor(&cover.sop);
            expr.to_aig(circuit, var_map)
        };
        self.telemetry
            .attribute_gates(circuit.and_count().saturating_sub(gates_at) as u64);
        self.telemetry
            .record_time(histograms::COVER_BUILD_NS, started.elapsed());
        edge.complement_if(cover.complemented)
    }
}

/// The identity variable map: cover variable `x_k` is primary input `k`.
fn identity_var_map(circuit: &Aig) -> Vec<Edge> {
    (0..circuit.num_inputs())
        .map(|p| circuit.input_edge(p))
        .collect()
}

/// How one output's circuit gets built: either the edge is already
/// decided (template/exhaustive/compressed, all atomic), or an FBDT is
/// driven step by step with safe points in between.
enum Arm {
    Edge(Edge),
    Tree {
        // Boxed: the builder dwarfs the `Edge` variant.
        builder: Box<FbdtBuilder>,
        node_budget: Budget,
        cap: Option<u64>,
    },
}

/// Per-output progress arrays, grouped so safe points can snapshot the
/// whole set into a [`LearnState`] without fighting the borrow checker.
struct Progress {
    edges: Vec<Option<Edge>>,
    strategies: Vec<Option<Strategy>>,
    support_sizes: Vec<usize>,
    forced: Vec<usize>,
    out_elapsed: Vec<Duration>,
    out_queries: Vec<u64>,
    truth_bias: Vec<Option<f64>>,
}

impl Progress {
    fn fresh(n: usize) -> Progress {
        Progress {
            edges: vec![None; n],
            strategies: vec![None; n],
            support_sizes: vec![0; n],
            forced: vec![0; n],
            out_elapsed: vec![Duration::ZERO; n],
            out_queries: vec![0; n],
            truth_bias: vec![None; n],
        }
    }

    /// Snapshots the run at a safe point. `queries_used` and
    /// `elapsed_before` are *cumulative across segments* — a future
    /// resume subtracts them from the budgets and adds them to the
    /// final totals.
    #[allow(clippy::too_many_arguments)]
    fn to_state(
        &self,
        config: &LearnerConfig,
        rng: &StdRng,
        circuit: &Aig,
        input_names: &[String],
        output_names: &[String],
        queries_used: u64,
        elapsed_before: Duration,
        cursor: Cursor,
        oracle: Option<Json>,
    ) -> LearnState {
        LearnState {
            seed: config.seed,
            config_fingerprint: config_fingerprint(config),
            rng: rng.state(),
            input_names: input_names.to_vec(),
            output_names: output_names.to_vec(),
            queries_used,
            elapsed_before,
            circuit_aiger: circuit.to_aiger_ascii(),
            edges: self.edges.iter().map(|e| e.map(|e| e.code())).collect(),
            strategies: self.strategies.clone(),
            support_sizes: self.support_sizes.clone(),
            forced: self.forced.clone(),
            out_elapsed: self.out_elapsed.clone(),
            out_queries: self.out_queries.clone(),
            truth_bias: self.truth_bias.clone(),
            cursor,
            oracle,
        }
    }
}

/// An in-flight FBDT restored from a checkpoint, waiting for its
/// output's turn in the learning loop (it always goes first).
struct FbdtResume {
    builder: FbdtBuilder,
    max_queries: Option<u64>,
    partial_elapsed: Duration,
    partial_queries: u64,
}

/// Checkpoint state converted to live run state, with every fallible
/// check already behind us.
struct Restored {
    circuit: Aig,
    rng: StdRng,
    progress: Progress,
    queries_used: u64,
    elapsed_before: Duration,
    fbdt: Option<FbdtResume>,
}

/// Writes a checkpoint, recording `ckpt.*` counters and a `ckpt` trace
/// event. A failed write warns and keeps running — losing one
/// checkpoint cadence beats dying with the work in memory.
fn write_checkpoint(telemetry: &Telemetry, path: &std::path::Path, state: &LearnState) {
    match state.save(path) {
        Ok(bytes) => {
            telemetry.incr(counters::CKPT_WRITES);
            telemetry.add(counters::CKPT_BYTES, bytes as u64);
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
        // The cost ledger is fed by the same source (the instrumented
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
            telemetry.counter(counters::FAULT_DEGRADED_OUTPUTS),
            result.degraded.len() as u64
        );
        let report = telemetry.report();
        assert_eq!(report.faults.degraded_outputs, result.degraded.len() as u64);
    }
}

#[cfg(test)]
mod resume_tests {
    use super::*;
    use cirlearn_oracle::generate;

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
        // Suspend at a spread of safe points — output boundaries (small
        // n) and deep mid-tree (large n) — resume, and compare.
        for n in [0, 1, 2, 50, 500] {
            let mut oracle = generate::neq_case_with_support(26, 2, 22, 97);
            let mut learner = Learner::new(config());
            let ctl = RunControl {
                stop_after_safe_points: Some(n),
                ..RunControl::default()
            };
            let outcome = learner.learn_with(&mut oracle, &ctl);
            let Some(state) = outcome.suspended() else {
                // The run finished before reaching n safe points; the
                // uninterrupted result was already produced.
                continue;
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
        }
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
        let writes = telemetry.counter(counters::CKPT_WRITES);
        assert!(writes > 0, "cadence should have written checkpoints");
        assert!(telemetry.counter(counters::CKPT_BYTES) > 0);
        // The file on disk is a valid checkpoint of the finished run.
        let state = LearnState::load(&path).expect("valid checkpoint on disk");
        assert_eq!(state.output_names.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_degrades_instead_of_overshooting() {
        let mut oracle = generate::neq_case_with_support(26, 3, 22, 77);
        let telemetry = Telemetry::recording();
        let mut learner = Learner::with_telemetry(config(), telemetry.clone());
        let ctl = RunControl {
            deadline: Some(Duration::ZERO),
            ..RunControl::default()
        };
        let result = learner.learn_with(&mut oracle, &ctl).expect_completed();
        // Complete circuit, every output degraded, nobody panicked.
        assert_eq!(result.circuit.num_outputs(), 3);
        assert_eq!(result.degraded, vec![0, 1, 2]);
        assert!(result.faults.any());
        assert!(result.faults.oracle_error.is_none());
    }

    #[test]
    fn deadline_mid_tree_synthesizes_from_collected_cubes() {
        // Suspend mid-tree, then resume with an already-exceeded
        // deadline: the in-flight output must be synthesized from its
        // collected cubes (Strategy::Fbdt, reported degraded), not
        // thrown away.
        let mut oracle = generate::neq_case_with_support(26, 1, 22, 97);
        let mut learner = Learner::new(config());
        // Burn enough safe points to be deep inside the FBDT.
        let ctl = RunControl {
            stop_after_safe_points: Some(30),
            ..RunControl::default()
        };
        let state = learner
            .learn_with(&mut oracle, &ctl)
            .suspended()
            .expect("deep suspension");
        assert!(
            matches!(state.cursor, Cursor::Fbdt { .. }),
            "30 safe points on one output should land mid-tree"
        );
        let telemetry = Telemetry::recording();
        let mut learner = Learner::with_telemetry(config(), telemetry.clone());
        let ctl = RunControl {
            deadline: Some(Duration::ZERO),
            ..RunControl::default()
        };
        let result = learner
            .resume(*state, &mut oracle, &ctl)
            .expect("state validates")
            .expect_completed();
        assert_eq!(result.degraded, vec![0], "cut output reported degraded");
        assert_eq!(result.outputs[0].strategy, Strategy::Fbdt);
        assert_eq!(
            telemetry.counter(counters::CKPT_DEADLINE_PARTIAL_OUTPUTS),
            1
        );
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
