//! Differential verification of optimization passes.

use std::fmt;
use std::str::FromStr;

use cirlearn_aig::Aig;
use cirlearn_logic::{Assignment, Var};
use cirlearn_sat::{check_equivalence, Equivalence};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{LintViolation, Linter, Witness};

/// How hard [`verify_pass`] works to validate an optimization step.
///
/// The levels are cumulative: `sim` also lints, `sat` also simulates
/// (cheap simulation refutes most broken passes before the solver is
/// ever invoked).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum VerifyLevel {
    /// No checking (the historical behavior).
    #[default]
    Off,
    /// Structural linting of the result only.
    Lint,
    /// Lint plus a 64-bit parallel random-simulation differential check.
    Sim,
    /// Lint, simulation, and a full SAT equivalence check (CEC).
    Sat,
}

impl VerifyLevel {
    /// All levels in increasing strength, for help texts and tests.
    pub const ALL: [VerifyLevel; 4] = [
        VerifyLevel::Off,
        VerifyLevel::Lint,
        VerifyLevel::Sim,
        VerifyLevel::Sat,
    ];
}

impl fmt::Display for VerifyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl VerifyLevel {
    /// The canonical lowercase name (`off`, `lint`, `sim`, `sat`).
    pub fn as_str(self) -> &'static str {
        match self {
            VerifyLevel::Off => "off",
            VerifyLevel::Lint => "lint",
            VerifyLevel::Sim => "sim",
            VerifyLevel::Sat => "sat",
        }
    }
}

/// Error returned when parsing an unknown [`VerifyLevel`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVerifyLevelError(String);

impl fmt::Display for ParseVerifyLevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown verify level `{}` (expected off, lint, sim or sat)",
            self.0
        )
    }
}

impl std::error::Error for ParseVerifyLevelError {}

impl FromStr for VerifyLevel {
    type Err = ParseVerifyLevelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(VerifyLevel::Off),
            "lint" => Ok(VerifyLevel::Lint),
            "sim" => Ok(VerifyLevel::Sim),
            "sat" => Ok(VerifyLevel::Sat),
            other => Err(ParseVerifyLevelError(other.to_string())),
        }
    }
}

/// Number of random patterns for the simulation differential check.
const SIM_PATTERNS: usize = 256;

/// Seed for the simulation patterns, so a check is deterministic.
const SIM_SEED: u64 = 0xC1AC_1EA7;

/// Configuration of the checked-pass harness.
///
/// The simulation check draws 256 random patterns from a fixed seed,
/// and every functional witness is minimized by greedy bit-flipping
/// before it is reported.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyConfig {
    /// How much verification to run after each pass.
    pub level: VerifyLevel,
}

impl VerifyConfig {
    /// A configuration at the given level.
    pub fn at_level(level: VerifyLevel) -> Self {
        VerifyConfig { level }
    }
}

/// What [`verify_pass`] found wrong with an optimization step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The pass changed the circuit interface, which no optimization
    /// may do.
    Interface {
        /// `"inputs"` or `"outputs"`.
        what: &'static str,
        /// Count before the pass.
        before: usize,
        /// Count after the pass.
        after: usize,
    },
    /// The result circuit fails structural linting.
    Lint(Vec<LintViolation>),
    /// The result circuit computes a different function, demonstrated
    /// by a concrete (minimized) witness.
    Functional(Witness),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Interface {
                what,
                before,
                after,
            } => {
                write!(f, "pass changed {what}: {before} -> {after}")
            }
            Violation::Lint(violations) => {
                write!(f, "{} lint violation(s)", violations.len())?;
                if let Some(first) = violations.first() {
                    write!(f, ", first: {first}")?;
                }
                Ok(())
            }
            Violation::Functional(witness) => write!(f, "functional difference: {witness}"),
        }
    }
}

/// Verifies that an optimization pass turned `before` into an
/// equivalent, structurally sound `after`, at the strength selected by
/// `config.level`.
///
/// Dangling AND nodes in `after` are tolerated (passes legitimately
/// strand nodes mid-pipeline; reachable gate count is the metric). The
/// caller is expected to hand in a structurally sound `before` — in the
/// harness it is always the previously verified circuit.
///
/// # Panics
///
/// May panic (inside simulation or CNF encoding) if `before` itself is
/// structurally corrupt.
pub fn verify_pass(before: &Aig, after: &Aig, config: &VerifyConfig) -> Result<(), Violation> {
    if config.level == VerifyLevel::Off {
        return Ok(());
    }
    if before.num_inputs() != after.num_inputs() {
        return Err(Violation::Interface {
            what: "inputs",
            before: before.num_inputs(),
            after: after.num_inputs(),
        });
    }
    if before.num_outputs() != after.num_outputs() {
        return Err(Violation::Interface {
            what: "outputs",
            before: before.num_outputs(),
            after: after.num_outputs(),
        });
    }
    let lints = Linter::new().allow_dangling(true).lint(after);
    if !lints.is_empty() {
        return Err(Violation::Lint(lints));
    }
    if config.level >= VerifyLevel::Sim {
        if let Some(witness) = simulate_difference(before, after) {
            return Err(Violation::Functional(witness.minimize(before, after)));
        }
    }
    if config.level >= VerifyLevel::Sat {
        if let Equivalence::Counterexample(cex) = check_equivalence(before, after) {
            return Err(Violation::Functional(
                Witness::from(cex).minimize(before, after),
            ));
        }
    }
    Ok(())
}

/// Runs the bit-parallel random-simulation differential check,
/// returning a raw witness on the first disagreement.
fn simulate_difference(before: &Aig, after: &Aig) -> Option<Witness> {
    let n = before.num_inputs();
    let mut rng = StdRng::seed_from_u64(SIM_SEED);
    let inputs: Vec<Assignment> = (0..n)
        .map(|_| Assignment::random(SIM_PATTERNS, &mut rng))
        .collect();
    let left = before.simulate(&inputs);
    let right = after.simulate(&inputs);
    for (output, (vl, vr)) in left.iter().zip(&right).enumerate() {
        let differing = vl
            .words()
            .iter()
            .zip(vr.words())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        if let Some((word, (a, b))) = differing {
            let k = word * 64 + (a ^ b).trailing_zeros() as usize;
            let pattern = Var::new(k as u32);
            let assignment = Assignment::from_bits(inputs.iter().map(|column| column.get(pattern)));
            return Some(Witness {
                inputs: assignment,
                output,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_aig::Edge;

    fn adder() -> Aig {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let s = g.xor(a, b);
        let sum = g.xor(s, c);
        let ab = g.and(a, b);
        let sc = g.and(s, c);
        let carry = g.or(ab, sc);
        g.add_output(sum, "sum");
        g.add_output(carry, "carry");
        g
    }

    #[test]
    fn level_parsing_roundtrips() {
        for level in VerifyLevel::ALL {
            assert_eq!(level.as_str().parse::<VerifyLevel>(), Ok(level));
            assert_eq!(level.to_string(), level.as_str());
        }
        assert!("cec".parse::<VerifyLevel>().is_err());
        assert!(VerifyLevel::Lint < VerifyLevel::Sim);
        assert!(VerifyLevel::Sim < VerifyLevel::Sat);
    }

    #[test]
    fn identical_circuits_pass_all_levels() {
        let g = adder();
        for level in VerifyLevel::ALL {
            assert_eq!(verify_pass(&g, &g, &VerifyConfig::at_level(level)), Ok(()));
        }
    }

    #[test]
    fn off_level_accepts_anything() {
        let g = adder();
        let mut broken = adder();
        broken.set_output_unchecked(0, Edge::TRUE);
        assert_eq!(
            verify_pass(&g, &broken, &VerifyConfig::at_level(VerifyLevel::Off)),
            Ok(())
        );
    }

    #[test]
    fn interface_change_is_reported_first() {
        let g = adder();
        let mut fewer = Aig::new();
        let _ = fewer.add_inputs("x", 3);
        fewer.add_output(Edge::FALSE, "y");
        match verify_pass(&g, &fewer, &VerifyConfig::at_level(VerifyLevel::Lint)) {
            Err(Violation::Interface {
                what: "outputs",
                before: 2,
                after: 1,
            }) => {}
            other => panic!("expected interface violation, got {other:?}"),
        }
    }

    #[test]
    fn flipped_output_caught_by_sim_with_genuine_witness() {
        let g = adder();
        let mut broken = adder();
        let edge = broken.output_edge(1);
        broken.set_output_unchecked(1, !edge);
        let cfg = VerifyConfig::at_level(VerifyLevel::Sim);
        match verify_pass(&g, &broken, &cfg) {
            Err(Violation::Functional(w)) => {
                assert_eq!(w.output, 1);
                assert!(w.distinguishes(&g, &broken));
            }
            other => panic!("expected functional violation, got {other:?}"),
        }
    }

    #[test]
    fn rare_difference_caught_by_sat() {
        // before = AND of 16 inputs, after = constant 0: they differ on
        // exactly one of 65536 patterns, which the simulation check
        // misses — the SAT stage must still find it.
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 16);
        let y = g.and_many(&xs);
        g.add_output(y, "y");
        let mut broken = Aig::new();
        let _ = broken.add_inputs("x", 16);
        broken.add_output(Edge::FALSE, "y");
        assert_eq!(
            verify_pass(&g, &broken, &VerifyConfig::at_level(VerifyLevel::Sim)),
            Ok(())
        );
        match verify_pass(&g, &broken, &VerifyConfig::at_level(VerifyLevel::Sat)) {
            Err(Violation::Functional(w)) => {
                assert!(w.distinguishes(&g, &broken));
                // The only difference is the all-ones input.
                assert_eq!(w.inputs.count_ones(), 16);
            }
            other => panic!("expected functional violation, got {other:?}"),
        }
    }

    #[test]
    fn lint_level_catches_structural_damage_but_not_semantics() {
        let g = adder();
        // Structural damage: unordered fanins (function preserved).
        let mut unordered = adder();
        let node = unordered.ands().next().expect("has ANDs").0;
        let [a, b] = unordered.fanins(node);
        unordered.set_fanin_unchecked(node, 0, b);
        unordered.set_fanin_unchecked(node, 1, a);
        assert!(matches!(
            verify_pass(&g, &unordered, &VerifyConfig::at_level(VerifyLevel::Lint)),
            Err(Violation::Lint(_))
        ));
        // Semantic damage with clean structure: lint level misses it,
        // sim level catches it.
        let mut flipped = adder();
        let edge = flipped.output_edge(0);
        flipped.set_output_unchecked(0, !edge);
        assert_eq!(
            verify_pass(&g, &flipped, &VerifyConfig::at_level(VerifyLevel::Lint)),
            Ok(())
        );
        assert!(matches!(
            verify_pass(&g, &flipped, &VerifyConfig::at_level(VerifyLevel::Sim)),
            Err(Violation::Functional(_))
        ));
    }

    #[test]
    fn dangling_nodes_are_tolerated_by_the_harness() {
        let g = adder();
        let mut with_dangling = adder();
        let a = with_dangling.input_edge(0);
        let c = with_dangling.input_edge(2);
        let _ = with_dangling.and(!a, !c);
        assert_eq!(
            verify_pass(
                &g,
                &with_dangling,
                &VerifyConfig::at_level(VerifyLevel::Sat)
            ),
            Ok(())
        );
    }

    #[test]
    fn witnesses_are_minimized_when_asked() {
        // before = OR of 8 inputs, after = constant 1: every nonzero
        // assignment agrees, only all-zeros differs... actually OR=0
        // only at all-zeros, so the witness must be all-zeros either
        // way. Use AND instead: before = x0, after = constant 0; any
        // input with x0=1 differs, minimal witness has exactly one bit.
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 8);
        g.add_output(xs[0], "y");
        let mut broken = Aig::new();
        let _ = broken.add_inputs("x", 8);
        broken.add_output(Edge::FALSE, "y");
        let cfg = VerifyConfig::at_level(VerifyLevel::Sim);
        match verify_pass(&g, &broken, &cfg) {
            Err(Violation::Functional(w)) => {
                assert_eq!(w.inputs.count_ones(), 1);
            }
            other => panic!("expected functional violation, got {other:?}"),
        }
    }

    #[test]
    fn violations_render_for_humans() {
        let v = Violation::Interface {
            what: "inputs",
            before: 4,
            after: 3,
        };
        assert_eq!(v.to_string(), "pass changed inputs: 4 -> 3");
        let w = Violation::Functional(Witness {
            inputs: Assignment::from_bits([true, false]),
            output: 2,
        });
        assert!(w.to_string().contains("output 2"));
    }
}
