//! Clock-free workload benchmark for the cirlearn learner; see
//! `README.md` for the workloads, the metrics and how to run it.

pub mod replay;
pub mod timed;
pub mod traced;
pub mod workload;
