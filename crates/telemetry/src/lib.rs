//! Telemetry substrate for the cirlearn pipeline.
//!
//! This crate gives the learning pipeline one observability spine
//! instead of scattered `eprintln!`s:
//!
//! - **Spans** ([`Telemetry::span`]): RAII stage guards that time
//!   nested pipeline stages (`support`, `fbdt`, `optimize`, ...) and
//!   attribute counter activity to them.
//! - **Counters** ([`Telemetry::add`], [`counters`]): monotonic
//!   counters for oracle queries, FBDT expansion, cube collection,
//!   espresso calls and optimization gate deltas. Queries are counted
//!   at the source by the oracle crate's `InstrumentedOracle`, so the
//!   top-level stage breakdown of `oracle.queries` sums to the run's
//!   total query count by construction.
//! - **Histograms** ([`Histogram`], [`histograms`]): lock-free
//!   log-bucketed latency distributions (p50/p90/p99/max) for oracle
//!   round-trips, FBDT node expansion and synth passes.
//! - **Traces** ([`TraceWriter`]): a JSONL event stream (span
//!   open/close, node expansions, passes, checkpoints, events) with
//!   monotonic timestamps, for offline replay and flamegraphs.
//! - **Reporters** ([`Reporter`]): pluggable human-readable event
//!   sinks; [`StderrReporter`] replaces the old `--verbose` output.
//! - **Run reports** ([`RunReport`]): machine-readable JSON snapshots
//!   (`--report <path>` in the CLI) with per-stage wall clock, counter
//!   breakdowns, per-pass AIG deltas, budget checkpoints and
//!   per-output records.
//! - **Cost attribution** ([`Telemetry::output_scope`],
//!   [`AttributionRecord`]): a per-(stage, output) ledger of oracle
//!   queries, query nanoseconds and gates built, fed by the span
//!   context that `InstrumentedOracle` records into, emitted in the
//!   report and as `attr` trace events.
//! - **Trace analysis** ([`analysis`]): offline parsing of trace
//!   streams into span trees, hot-span summaries, critical paths,
//!   Chrome trace-event exports and noise-floored run diffs — the
//!   engine behind the `cirlearn trace` subcommands.
//! - **Flight recorder** ([`FlightRecorder`]): always-on bounded
//!   per-thread rings of recent trace events, dumped atomically as
//!   JSONL on panic, fault, deadline, suspension or SIGUSR1 — a black
//!   box for runs that were not started with `--trace`.
//! - **Live status** ([`StatusSnapshot`]): the compact run-progress
//!   snapshot `--status <path>` rewrites atomically every 250ms and
//!   `cirlearn top` renders.
//!
//! The [`Telemetry`] handle is cheap to clone and share;
//! [`Telemetry::disabled`] is a no-op handle so instrumented code pays
//! nothing when observation is off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod flight;
pub mod histogram;
pub mod json;
pub mod persist;
mod report;
mod reporter;
mod status;
pub mod sync;
mod telemetry;
mod trace;

pub use crate::flight::{FlightRecorder, FlightRing, DEFAULT_RING_BYTES};
pub use crate::histogram::{Histogram, HistogramSummary, RawHistogram};
pub use crate::persist::write_atomic;
pub use crate::report::{
    AttributionRecord, CheckpointReport, FaultsReport, OutputReport, PassReport, RunReport,
    StageReport, SCHEMA_VERSION,
};
pub use crate::reporter::{BufferReporter, Level, NullReporter, Reporter, StderrReporter};
pub use crate::status::{StatusAttr, StatusSnapshot, STATUS_SCHEMA_VERSION};
pub use crate::telemetry::{
    counters, histograms, HistogramHandle, LocalRecorder, OutputScope, Span, Telemetry,
};
pub use crate::trace::{current_tid, SharedBuffer, TraceLocal, TraceWriter};
