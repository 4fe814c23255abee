//! Boolean foundations for the `cirlearn` logic-regression toolkit.
//!
//! This crate provides the vocabulary types shared by every other crate in
//! the workspace:
//!
//! * [`Var`] and [`Literal`] — Boolean variables and their phases,
//! * [`Cube`] — conjunctions of literals, the currency of the paper's
//!   free-binary-decision-tree (FBDT) learner,
//! * [`Sop`] — sum-of-products expressions (disjunctions of cubes),
//! * [`Assignment`] — packed full assignments used to query black-box
//!   IO generators,
//! * [`TruthTable`] — word-packed truth tables for functions of up to
//!   [`TruthTable::MAX_VARS`] variables, with cofactoring, support
//!   computation and irredundant SOP extraction (Minato–Morreale ISOP,
//!   run on the table's words by [`isop::cover`]),
//! * [`SimVector`] — 64-way bit-parallel simulation values.
//!
//! # Examples
//!
//! Build the majority-of-three function as a truth table and extract an
//! irredundant sum-of-products for it:
//!
//! ```
//! use cirlearn_logic::TruthTable;
//!
//! let tt = TruthTable::from_fn(3, |bits| bits.count_ones() >= 2);
//! let sop = tt.isop();
//! assert_eq!(sop.cubes().len(), 3); // ab + bc + ac
//! for cube in sop.cubes() {
//!     assert_eq!(cube.len(), 2);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod cube;
mod error;
pub mod isop;
pub mod npn;
mod parse;
mod sim;
mod sop;
mod truth;
mod var;

pub use assignment::Assignment;
pub use cube::Cube;
pub use error::{Error, Result};
pub use npn::NpnTransform;
pub use parse::ParseBooleanError;
pub use sim::SimVector;
pub use sop::Sop;
pub use truth::TruthTable;
pub use var::{Literal, Var};
