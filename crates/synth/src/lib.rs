//! Logic optimization for learned circuits.
//!
//! The paper postprocesses its learned SOPs with ABC (`dc2`, `rewrite`,
//! `resyn3`, `compress2rs`, one `collapse`, fraiging). This crate
//! provides the same algorithmic families, implemented from scratch on
//! the workspace's [`Aig`](cirlearn_aig::Aig):
//!
//! * [`espresso`] — heuristic two-level (SOP) minimization with
//!   recursive tautology checking: `expand` + `irredundant`,
//! * [`factor`] — algebraic factoring of an SOP into a multi-level
//!   form, the main lever for turning flat learned covers into small
//!   circuits,
//! * [`balance`] — depth-reducing reconstruction of AND trees,
//! * [`fraig`] — functional reduction: random-simulation candidate
//!   classes proven by one counterexample-guided SAT sweep,
//! * [`collapse`] — per-output BDD collapse and ISOP re-extraction,
//!   guarded by support size like ABC's practice,
//! * [`rewrite`] — DAG-aware cut rewriting with NPN-canonical library
//!   lookup,
//! * [`refactor`] — large-cone resynthesis from the irredundant cover of
//!   the cone's word truth table,
//! * [`redundancy_removal`] — SAT-proven removal of unobservable
//!   connections (the don't-care-based `dc2`/`mfs` role),
//! * [`optimize`] — a `compress2rs`-style script combining the above
//!   under a time budget,
//! * [`map`] — technology mapping onto 2-input primitive gates with
//!   XOR/MUX detection (the contest's exact size metric).
//!
//! Every pass is semantics-preserving; the test-suite checks this with
//! exhaustive simulation and SAT equivalence.
//!
//! # Examples
//!
//! ```
//! use cirlearn_aig::Aig;
//! use cirlearn_synth::{optimize, OptimizeConfig};
//!
//! let mut aig = Aig::new();
//! let inputs = aig.add_inputs("x", 4);
//! // A deliberately redundant construction.
//! let a = aig.and(inputs[0], inputs[1]);
//! let b = aig.and(inputs[1], inputs[0]);
//! let c = aig.or(a, b);
//! aig.add_output(c, "y");
//! let opt = optimize(&aig, &OptimizeConfig::default());
//! assert!(opt.gate_count() <= aig.gate_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balance;
mod collapse;
mod cone;
pub mod espresso;
pub mod factor;
mod fraig;
mod isop;
pub mod map;
mod redundancy;
mod refactor;
mod rewrite;
mod script;

pub use balance::balance;
pub use cirlearn_verify::{VerifyConfig, VerifyLevel, Violation};
pub use collapse::{collapse, CollapseConfig};
pub use fraig::{fraig, fraig_with_stats, FraigConfig};
pub use redundancy::redundancy_removal;
pub use refactor::{refactor, RefactorConfig};
pub use rewrite::rewrite;
pub use script::{optimize, optimize_with, CheckedOutcome, CheckedPass, OptimizeConfig};
