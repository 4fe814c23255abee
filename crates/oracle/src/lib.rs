//! Black-box IO-generator substrate and benchmark suite.
//!
//! The paper evaluates on 20 hidden industrial benchmarks from the 2019
//! ICCAD CAD Contest, exposed to contestants only as black-box
//! input-output pattern generators. This crate reproduces that
//! substrate:
//!
//! * [`Oracle`] — the query interface (full assignment in, output bits
//!   out) with query accounting,
//! * [`CircuitOracle`] — an oracle wrapping a hidden
//!   [`Aig`](cirlearn_aig::Aig),
//! * [`generate`] — synthetic circuit families for the contest's four
//!   application categories (NEQ miters, ECO patches, DIAG bus
//!   predicates, DATA arithmetic datapaths) with realistic port naming,
//! * [`suite`] — the 20-case roster mirroring the paper's Table II
//!   (category, #PI, #PO per case),
//! * [`eval`] — the contest accuracy metric: exact-match hit rate over
//!   a three-way mix of biased and uniform random patterns,
//! * [`ResilientOracle`] — fault tolerance (retry/backoff/timeout/
//!   respawn with replay-consistency probing) around any oracle,
//! * [`FaultyOracle`] — deterministic chaos injection (crash, hang,
//!   malformed answer, silent bit flip) for testing the above.
//!
//! # Examples
//!
//! ```
//! use cirlearn_oracle::{generate, Category, Oracle};
//! use cirlearn_logic::Assignment;
//!
//! let mut oracle = generate::diag_case(16, 2, 42);
//! let zeros = Assignment::zeros(oracle.num_inputs());
//! let out = oracle.query(&zeros);
//! assert_eq!(out.len(), oracle.num_outputs());
//! assert_eq!(oracle.queries(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
mod faulty;
pub mod generate;
mod oracle;
mod process;
mod resilient;
pub mod suite;

pub use eval::{evaluate_accuracy, Accuracy, EvalConfig};
pub use faulty::{FaultKind, FaultSchedule, FaultyOracle, InjectedFaults};
pub use generate::Category;
pub use oracle::{CircuitOracle, Oracle, OracleError};
pub use process::{ProcessOracle, ProcessOracleError};
pub use resilient::{FaultStats, ResilientOracle, Respawn, RetryPolicy};
pub use suite::{contest_suite, ContestCase};
