//! And-inverter graphs (AIGs) for the `cirlearn` toolkit.
//!
//! An AIG represents a multi-output Boolean circuit with two-input AND
//! nodes and complemented edges. It is the circuit representation used
//! throughout the workspace:
//!
//! * the black-box oracle substrate evaluates hidden AIGs,
//! * the learner emits its result as an AIG built from an SOP,
//! * the optimization passes of `cirlearn-synth` transform AIGs,
//! * the SAT crate checks AIG equivalence.
//!
//! The main type is [`Aig`]. Edges ([`Edge`]) carry an optional
//! complement bit, so inverters are free; the *gate count* reported by
//! [`Aig::gate_count`] is the number of AND nodes, matching the
//! contest's 2-input primitive-gate metric up to polarity absorption.
//!
//! The [`build`] module offers word-level constructors (adders,
//! comparators, scaled sums) used both by the synthetic benchmark
//! generators and by the learner's template instantiation.
//!
//! # Examples
//!
//! ```
//! use cirlearn_aig::Aig;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let xor = aig.xor(a, b);
//! aig.add_output(xor, "y");
//! assert_eq!(aig.gate_count(), 3); // xor = 3 ANDs
//!
//! let out = aig.eval_bits(&[true, false]);
//! assert_eq!(out, vec![true]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
mod edge;
mod export;
mod graph;
mod import;
mod sim;
mod support;

pub use edge::{Edge, NodeId};
pub use graph::Aig;
pub use import::ParseAigerError;
