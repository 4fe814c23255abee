//! Optimization script runner with checked-pass verification.

use std::time::{Duration, Instant};

use cirlearn_aig::Aig;
use cirlearn_telemetry::{Counter, Level, Telemetry};
use cirlearn_verify::{verify_pass, VerifyConfig, VerifyLevel, Violation};

use crate::{
    balance, collapse, fraig, redundancy_removal, refactor, rewrite, CollapseConfig, FraigConfig,
    RefactorConfig,
};

/// Configuration for [`optimize`].
///
/// The defaults mirror the paper's postprocessing setup: a compression
/// script run repeatedly under a 60-second budget with one collapse
/// attempt.
#[derive(Debug, Clone)]
pub struct OptimizeConfig {
    /// Wall-clock budget for the whole script (the paper allots 60 s).
    pub time_budget: Duration,
    /// Maximum number of script rounds (each round = balance, rewrite,
    /// refactor, fraig; collapse and redundancy removal run in the first
    /// round only).
    pub max_rounds: usize,
    /// Whether to run the (single) SAT redundancy-removal attempt.
    pub enable_redundancy_removal: bool,
    /// Guards for the collapse pass.
    pub collapse: CollapseConfig,
    /// Settings for the fraig pass.
    pub fraig: FraigConfig,
    /// Settings for the refactor pass.
    pub refactor: RefactorConfig,
    /// Per-pass verification (off by default, matching the historical
    /// unguarded behavior).
    pub verify: VerifyConfig,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        OptimizeConfig {
            time_budget: Duration::from_secs(60),
            max_rounds: 3,
            enable_redundancy_removal: true,
            collapse: CollapseConfig::default(),
            fraig: FraigConfig::default(),
            refactor: RefactorConfig::default(),
            verify: VerifyConfig::default(),
        }
    }
}

/// A verification wrapper around one optimization pass.
///
/// `CheckedPass::run` applies the pass, then validates the result
/// against the input at the configured [`VerifyLevel`]. A result that
/// fails verification is **rejected**: the input circuit is returned
/// unchanged, the violation (with its counterexample witness, when
/// functional) is reported as an error event, and the
/// `verify.rejected_passes` counter is bumped — so one unsound rewrite
/// degrades the run instead of silently corrupting it.
///
/// # Examples
///
/// ```
/// use cirlearn_aig::Aig;
/// use cirlearn_synth::CheckedPass;
/// use cirlearn_telemetry::Telemetry;
/// use cirlearn_verify::{VerifyConfig, VerifyLevel};
///
/// let mut g = Aig::new();
/// let a = g.add_input("a");
/// let b = g.add_input("b");
/// let y = g.xor(a, b);
/// g.add_output(y, "y");
///
/// let cfg = VerifyConfig::at_level(VerifyLevel::Sat);
/// let telemetry = Telemetry::disabled();
/// let checked = CheckedPass::new("broken", &cfg, &telemetry);
/// // A "pass" that replaces the circuit with constant 0 is rejected.
/// let outcome = checked.run(&g, |before| {
///     let mut out = Aig::with_inputs_like(before);
///     out.add_output(cirlearn_aig::Edge::FALSE, "y");
///     out
/// });
/// assert!(outcome.violation.is_some());
/// assert_eq!(outcome.circuit.gate_count(), g.gate_count());
/// ```
#[derive(Debug)]
pub struct CheckedPass<'a> {
    name: &'a str,
    verify: &'a VerifyConfig,
    telemetry: &'a Telemetry,
}

/// What [`CheckedPass::run`] produced.
#[derive(Debug)]
pub struct CheckedOutcome {
    /// The accepted circuit: the pass result when it verified, the
    /// untouched input when it was rejected.
    pub circuit: Aig,
    /// Wall clock spent verifying (zero at [`VerifyLevel::Off`]).
    pub verify_elapsed: Duration,
    /// The violation that caused a rejection, if any.
    pub violation: Option<Violation>,
}

impl<'a> CheckedPass<'a> {
    /// Wraps the pass named `name` (used in reports and events).
    pub fn new(name: &'a str, verify: &'a VerifyConfig, telemetry: &'a Telemetry) -> Self {
        CheckedPass {
            name,
            verify,
            telemetry,
        }
    }

    /// Applies `pass` to `before` and verifies the result.
    pub fn run(&self, before: &Aig, pass: impl FnOnce(&Aig) -> Aig) -> CheckedOutcome {
        let after = pass(before);
        if self.verify.level == VerifyLevel::Off {
            return CheckedOutcome {
                circuit: after,
                verify_elapsed: Duration::ZERO,
                violation: None,
            };
        }
        let verify_start = Instant::now();
        let verdict = verify_pass(before, &after, self.verify);
        let verify_elapsed = verify_start.elapsed();
        self.telemetry.incr(Counter::VerifyChecks);
        match verdict {
            Ok(()) => CheckedOutcome {
                circuit: after,
                verify_elapsed,
                violation: None,
            },
            Err(violation) => {
                match &violation {
                    Violation::Lint(violations) => self
                        .telemetry
                        .add(Counter::VerifyLintViolations, violations.len() as u64),
                    Violation::Functional(_) => self.telemetry.incr(Counter::VerifyWitnesses),
                    Violation::Interface { .. } => {}
                }
                self.telemetry.incr(Counter::VerifyRejectedPasses);
                self.telemetry.event(
                    Level::Error,
                    &format!("pass {} rejected: {violation}", self.name),
                );
                CheckedOutcome {
                    circuit: before.clone(),
                    verify_elapsed,
                    violation: Some(violation),
                }
            }
        }
    }
}

/// Runs the optimization script on a circuit and returns the smallest
/// equivalent circuit found.
///
/// The script alternates [`balance`], [`rewrite`], [`refactor`] and
/// [`fraig`] rounds (the `compress2rs` spirit). In the first round it
/// also attempts one BDD [`collapse`] — like the paper's single heavy
/// `collapse` call — and, when
/// [`OptimizeConfig::enable_redundancy_removal`] is set, one
/// [`redundancy_removal`] scan. Every pass preserves the functions; the
/// best intermediate (by [`Aig::gate_count`]) is returned.
///
/// # Examples
///
/// ```
/// use cirlearn_aig::Aig;
/// use cirlearn_synth::{optimize, OptimizeConfig};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let t = aig.and(a, b);
/// let u = aig.and(a, !b);
/// let y = aig.or(t, u); // == a
/// aig.add_output(y, "y");
/// let best = optimize(&aig, &OptimizeConfig::default());
/// assert_eq!(best.gate_count(), 0);
/// ```
pub fn optimize(aig: &Aig, config: &OptimizeConfig) -> Aig {
    optimize_with(aig, config, &Telemetry::disabled())
}

/// Like [`optimize`], but records every applied pass (gate and level
/// deltas, wall clock) into the given [`Telemetry`] handle.
pub fn optimize_with(aig: &Aig, config: &OptimizeConfig, telemetry: &Telemetry) -> Aig {
    let deadline = Instant::now() + config.time_budget;
    let mut current = aig.cleanup();
    let mut best = current.clone();

    let mut collapsed = false;
    let mut swept = false;
    for round in 0..config.max_rounds {
        let start_count = best.gate_count();

        for pass in [
            PassKind::Balance,
            PassKind::Rewrite,
            PassKind::Refactor,
            PassKind::Fraig,
            PassKind::Collapse,
            PassKind::Redundancy,
        ] {
            if Instant::now() >= deadline {
                return best;
            }
            if pass == PassKind::Collapse && collapsed {
                continue;
            }
            if pass == PassKind::Redundancy && (swept || !config.enable_redundancy_removal) {
                continue;
            }
            let gates_before = current.gate_count();
            let levels_before = current.depth();
            let pass_start = Instant::now();
            let checked = CheckedPass::new(pass.name(), &config.verify, telemetry);
            let outcome = checked.run(&current, |before| match pass {
                PassKind::Balance => balance(before),
                PassKind::Rewrite => rewrite(before),
                PassKind::Refactor => refactor(before, &config.refactor),
                PassKind::Fraig => fraig(before, &config.fraig),
                PassKind::Collapse => {
                    collapsed = true;
                    collapse(before, &config.collapse)
                }
                PassKind::Redundancy => {
                    swept = true;
                    redundancy_removal(before)
                }
            });
            let next = outcome.circuit;
            if next.gate_count() <= current.gate_count() {
                current = next;
            }
            if telemetry.is_enabled() {
                telemetry.record_pass(
                    pass.name(),
                    round as u64 + 1,
                    gates_before as u64,
                    current.gate_count() as u64,
                    levels_before as u64,
                    current.depth() as u64,
                    pass_start.elapsed(),
                    outcome.verify_elapsed,
                );
            }
            if current.gate_count() < best.gate_count() {
                best = current.clone();
            }
        }

        if best.gate_count() >= start_count {
            break; // converged
        }
    }
    best
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PassKind {
    Balance,
    Rewrite,
    Refactor,
    Fraig,
    Collapse,
    Redundancy,
}

impl PassKind {
    fn name(self) -> &'static str {
        match self {
            PassKind::Balance => "balance",
            PassKind::Rewrite => "rewrite",
            PassKind::Refactor => "refactor",
            PassKind::Fraig => "fraig",
            PassKind::Collapse => "collapse",
            PassKind::Redundancy => "redundancy",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_aig::Edge;
    use cirlearn_sat::check_equivalence;

    #[test]
    fn optimizes_redundant_sop() {
        // Flat minterm cover of a 4-var function with heavy sharing.
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 4);
        let mut cubes = Vec::new();
        for m in 0..16u32 {
            if m & 1 == 1 {
                let lits: Vec<Edge> = (0..4)
                    .map(|k| inputs[k].complement_if(m >> k & 1 == 0))
                    .collect();
                cubes.push(g.and_many(&lits));
            }
        }
        let y = g.or_many(&cubes);
        g.add_output(y, "y"); // == x0
        let best = optimize(&g, &OptimizeConfig::default());
        assert!(check_equivalence(&g, &best).is_equivalent());
        assert_eq!(best.gate_count(), 0);
    }

    #[test]
    fn respects_zero_budget() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let y = g.and(a, b);
        g.add_output(y, "y");
        let cfg = OptimizeConfig {
            time_budget: Duration::from_secs(0),
            ..OptimizeConfig::default()
        };
        let best = optimize(&g, &cfg);
        assert!(check_equivalence(&g, &best).is_equivalent());
    }

    #[test]
    fn never_increases_gate_count() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..5 {
            let mut g = Aig::new();
            let mut pool: Vec<Edge> = (0..6).map(|i| g.add_input(format!("x{i}"))).collect();
            for _ in 0..50 {
                let a = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.4));
                let b = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.4));
                let n = g.and(a, b);
                pool.push(n);
            }
            for k in 0..2 {
                let e = pool[pool.len() - 1 - k];
                g.add_output(e, format!("y{k}"));
            }
            let best = optimize(&g, &OptimizeConfig::default());
            assert!(best.gate_count() <= g.gate_count(), "round {round}");
            assert!(
                check_equivalence(&g, &best).is_equivalent(),
                "round {round}: optimization changed the function"
            );
        }
    }

    #[test]
    fn telemetry_records_applied_passes() {
        use cirlearn_telemetry::{counters, Telemetry};
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 4);
        let a = g.and(inputs[0], inputs[1]);
        let b = g.and(inputs[1], inputs[0]);
        let y = g.or(a, b);
        g.add_output(y, "y");
        let telemetry = Telemetry::recording();
        let best = optimize_with(&g, &OptimizeConfig::default(), &telemetry);
        assert!(check_equivalence(&g, &best).is_equivalent());
        let report = telemetry.report();
        assert!(!report.passes.is_empty());
        assert_eq!(
            report.counter(counters::OPT_PASSES),
            report.passes.len() as u64
        );
        for p in &report.passes {
            assert!(
                p.gates_after <= p.gates_before,
                "pass {} grew the circuit",
                p.pass
            );
        }
        let saved: u64 = report
            .passes
            .iter()
            .map(|p| p.gates_before - p.gates_after)
            .sum();
        assert_eq!(report.counter(counters::OPT_GATES_SAVED), saved);
    }

    #[test]
    fn optimize_under_sat_verification_stays_clean() {
        use cirlearn_telemetry::{counters, Telemetry};
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 4);
        let mut cubes = Vec::new();
        for m in 0..16u32 {
            if (m & 1 == 1) != (m >> 3 & 1 == 1) {
                let lits: Vec<Edge> = (0..4)
                    .map(|k| inputs[k].complement_if(m >> k & 1 == 0))
                    .collect();
                cubes.push(g.and_many(&lits));
            }
        }
        let y = g.or_many(&cubes);
        g.add_output(y, "y");
        let telemetry = Telemetry::recording();
        let cfg = OptimizeConfig {
            verify: VerifyConfig::at_level(VerifyLevel::Sat),
            ..OptimizeConfig::default()
        };
        let best = optimize_with(&g, &cfg, &telemetry);
        assert!(check_equivalence(&g, &best).is_equivalent());
        let report = telemetry.report();
        // Every recorded pass was verified, none was rejected, and
        // verification time was accounted per pass.
        assert_eq!(
            report.counter(counters::VERIFY_CHECKS),
            report.passes.len() as u64
        );
        assert_eq!(report.counter(counters::VERIFY_REJECTED_PASSES), 0);
        assert_eq!(report.counter(counters::VERIFY_WITNESSES), 0);
        assert!(report
            .passes
            .iter()
            .all(|p| p.verify_elapsed > Duration::ZERO));
    }

    #[test]
    fn checked_pass_accepts_sound_pass_and_rejects_broken_one() {
        use cirlearn_telemetry::Telemetry;
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let y = g.xor(a, b);
        g.add_output(y, "y");
        let cfg = VerifyConfig::at_level(VerifyLevel::Sat);
        let telemetry = Telemetry::recording();

        let sound = CheckedPass::new("balance", &cfg, &telemetry);
        let outcome = sound.run(&g, balance);
        assert!(outcome.violation.is_none());
        assert!(check_equivalence(&g, &outcome.circuit).is_equivalent());

        let broken = CheckedPass::new("bad-rewrite", &cfg, &telemetry);
        let outcome = broken.run(&g, |before| {
            // Rebuild with the output complemented: structurally clean,
            // functionally wrong — only sim/sat can catch it.
            let mut out = before.clone();
            let e = out.output_edge(0);
            out.set_output_unchecked(0, !e);
            out
        });
        let violation = outcome.violation.expect("broken pass must be rejected");
        match violation {
            Violation::Functional(w) => {
                assert_eq!(w.output, 0, "the broken output is reported");
            }
            other => panic!("expected functional violation, got {other:?}"),
        }
        // The rejected result was rolled back to the input circuit.
        assert!(check_equivalence(&g, &outcome.circuit).is_equivalent());
        assert_eq!(telemetry.counter(Counter::VerifyChecks), 2);
        assert_eq!(telemetry.counter(Counter::VerifyRejectedPasses), 1);
        assert_eq!(telemetry.counter(Counter::VerifyWitnesses), 1);
    }

    #[test]
    fn checked_pass_off_level_skips_verification() {
        use cirlearn_telemetry::Telemetry;
        let mut g = Aig::new();
        let a = g.add_input("a");
        g.add_output(a, "y");
        let cfg = VerifyConfig::default(); // level off
        let telemetry = Telemetry::recording();
        let checked = CheckedPass::new("noop", &cfg, &telemetry);
        let outcome = checked.run(&g, |before| before.clone());
        assert!(outcome.violation.is_none());
        assert_eq!(outcome.verify_elapsed, Duration::ZERO);
        assert_eq!(telemetry.counter(Counter::VerifyChecks), 0);
    }
}
