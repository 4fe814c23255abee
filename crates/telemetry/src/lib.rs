//! Telemetry substrate for the cirlearn pipeline.
//!
//! This crate gives the learning pipeline one observability spine
//! instead of scattered `eprintln!`s:
//!
//! - **Spans** ([`Telemetry::span`]): RAII stage guards that time
//!   nested pipeline stages (`support`, `fbdt`, `optimize`, ...) and
//!   attribute counter activity to them.
//! - **Counters** ([`Telemetry::add`], [`Counter`]): monotonic
//!   counters for oracle queries, FBDT expansion, cube collection,
//!   espresso calls and optimization gate deltas, each a typed id
//!   with a `Cell` slot in a fixed table. Queries are counted at the source by
//!   the learner's `OracleGuard`, so the top-level stage
//!   breakdown of `oracle.queries` sums to the run's total query count
//!   by construction. Reports key them by name ([`counters`]).
//! - **Histograms** ([`Telemetry::record`], [`Hist`]): fixed-size
//!   log-bucketed latency distributions (p50/p90/p99/max) for oracle
//!   round-trips, FBDT node expansion and synth passes.
//! - **Traces** ([`TraceWriter`]): a JSONL event stream (span
//!   open/close, node expansions, passes, events) for
//!   offline replay and flamegraphs. Each event is formatted once,
//!   stamped with microseconds since the handle was created, and the
//!   same line feeds the trace stream and the flight recorder.
//! - **Reporters** ([`Reporter`]): pluggable human-readable event
//!   sinks; [`StderrReporter`] replaces the old `--verbose` output.
//! - **Run reports** ([`RunReport`]): machine-readable JSON snapshots
//!   (`--report <path>` in the CLI) with per-stage wall clock, counter
//!   breakdowns, per-pass AIG deltas and per-output records.
//! - **Cost attribution** ([`Telemetry::output_scope`],
//!   [`AttributionRecord`]): a per-(stage, output) ledger of oracle
//!   queries, query nanoseconds and gates built, fed by the span
//!   context that `OracleGuard` records into, emitted in the
//!   report, the status snapshot and as `attr` trace events, all with
//!   the one cell type. A batch is two plain adds, settled into the
//!   ledger when the context changes.
//! - **Trace analysis** ([`analysis`]): offline parsing of trace
//!   streams into span trees, hot-span summaries, critical paths,
//!   Chrome trace-event exports and run diffs — the
//!   engine behind the `cirlearn trace` subcommands.
//! - **Flight recorder** ([`Telemetry::dump_flight`]): an always-on
//!   bounded log of the most recent trace lines, kept beside the
//!   trace stream and dumped atomically as JSONL on panic, fault,
//!   the spent wall, suspension or SIGUSR1 — a black box for runs that
//!   were not started with `--trace`.
//! - **Live status** ([`StatusSnapshot`]): the compact run-progress
//!   snapshot `--status <path>` rewrites atomically every 250ms and
//!   `cirlearn top` renders.
//!
//! The [`Telemetry`] handle is cheap to clone and belongs to one
//! thread: the learner is one sequential loop, so the handle shares
//! its state through an `Rc`, records counters and histograms into
//! `Cell`s, and keeps spans, the ledger and the sinks in a `RefCell`.
//! It is neither `Send` nor `Sync`, so a second writer does not
//! compile. [`Telemetry::disabled`] is a no-op handle so instrumented
//! code pays nothing when observation is off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod histogram;
pub mod json;
mod metric;
pub mod persist;
mod report;
mod reporter;
mod status;
mod telemetry;
mod trace;

pub use crate::histogram::{Histogram, HistogramSummary};
pub use crate::metric::{counters, histograms, Counter, Hist};
pub use crate::persist::write_atomic;
pub use crate::report::{
    AttributionRecord, FaultsReport, OutputReport, PassReport, RunReport, StageReport,
    SCHEMA_VERSION,
};
pub use crate::reporter::{BufferReporter, Level, NullReporter, Reporter, StderrReporter};
pub use crate::status::{StatusSnapshot, STATUS_SCHEMA_VERSION};
pub use crate::telemetry::{OutputScope, Span, Telemetry};
pub use crate::trace::{SharedBuffer, TraceWriter};
