//! Circuit verification: structural linting and checked optimization.
//!
//! The learning pipeline is only as sound as its weakest rewrite — a
//! single unsound pass silently destroys the accuracy the paper's flow
//! is built to deliver. This crate makes soundness checkable *inside*
//! the pipeline instead of only in out-of-band tests:
//!
//! * [`lint`] — a pure static pass over an
//!   [`Aig`](cirlearn_aig::Aig) that checks every structural invariant
//!   (topological order, canonical structural hashing, no
//!   constant-reducible gates, valid references, no dangling ANDs) and
//!   returns typed [`LintViolation`]s with node ids instead of
//!   panicking,
//! * [`verify_pass`] — a differential check between a circuit and its
//!   optimized successor at a configurable [`VerifyLevel`]: structural
//!   lint only (dangling ANDs allowed), 64-bit parallel random
//!   simulation, or a full SAT equivalence check,
//! * [`Witness`] — a concrete counterexample (input assignment plus
//!   differing output index), minimized by greedy bit-flipping and
//!   re-checkable by simulation via [`Witness::distinguishes`],
//! * [`analyze`] — the strict linter plus one walk over the graph:
//!   high fanout, dead ANDs and structural [`Metrics`], every finding
//!   on one [`Severity`] scale. `cirlearn analyze` runs it on files.
//!
//! # Examples
//!
//! ```
//! use cirlearn_aig::Aig;
//! use cirlearn_verify::{verify_pass, VerifyConfig, VerifyLevel, Violation};
//!
//! let mut g = Aig::new();
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let y = g.xor(a, b);
//! g.add_output(y, "y");
//!
//! // A "pass" that flips the output is caught with a witness.
//! let mut broken = g.clone();
//! let e = broken.output_edge(0);
//! broken.set_output_unchecked(0, !e);
//! let cfg = VerifyConfig::at_level(VerifyLevel::Sim);
//! match verify_pass(&g, &broken, &cfg) {
//!     Err(Violation::Functional(w)) => assert!(w.distinguishes(&g, &broken)),
//!     other => panic!("expected a functional violation, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod check;
mod lint;
mod witness;

pub use analyze::{analyze, Analysis, Metrics};
pub use check::{verify_pass, ParseVerifyLevelError, VerifyConfig, VerifyLevel, Violation};
pub use lint::{lint, LintViolation, Severity};
pub use witness::Witness;
