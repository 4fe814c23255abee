//! A self-contained CDCL SAT solver with AIG bindings.
//!
//! The paper's toolchain relies on ABC, whose fraiging and verification
//! steps are powered by an internal SAT solver. This crate provides the
//! equivalent substrate:
//!
//! * [`Solver`] — a conflict-driven clause-learning solver with two
//!   watched literals, first-UIP learning, VSIDS branching, phase saving
//!   and Luby restarts,
//! * [`AigCnf`] — an incremental Tseitin encoding of an
//!   [`Aig`](cirlearn_aig::Aig) suitable for repeated equivalence
//!   queries (as fraiging issues),
//! * [`Sweep`] — counterexample-guided SAT sweeping: simulation-equal
//!   node pairs are proven in topological order on one incremental
//!   [`AigCnf`], and a pair that a counterexample found earlier already
//!   separates never reaches the solver; fraiging and
//!   [`check_equivalence`] both run it,
//! * [`check_equivalence`] — a SAT-sweeping combinational equivalence
//!   check between two AIGs: strash both into one miter, simulate a
//!   fixed pattern block, sweep it, then decide each remaining output
//!   pair; returns a counterexample when they differ.
//!
//! # Examples
//!
//! ```
//! use cirlearn_sat::{Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[a, b]);
//! s.add_clause(&[!a]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert!(s.value(b));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cnf;
mod dimacs;
mod solver;
mod sweep;

pub use cnf::{
    check_equivalence, check_equivalence_with_stats, AigCnf, Counterexample, Equivalence,
};
pub use dimacs::ParseDimacsError;
pub use solver::{Lit, SolveResult, Solver};
pub use sweep::{Sweep, SweepStats};
