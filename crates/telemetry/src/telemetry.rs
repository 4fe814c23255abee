//! The [`Telemetry`] handle: stage-scoped spans, monotonic counters,
//! latency histograms, trace emission and events.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::histogram::Histogram;
use crate::json::Json;
use crate::report::{
    AttributionRecord, CheckpointReport, OutputReport, PassReport, RunReport, StageReport,
};
use crate::reporter::{Level, Reporter};
use crate::status::{StatusAttr, StatusSnapshot};
use crate::sync::{Arc, Mutex, MutexGuard};
use crate::trace::{current_tid, format_line, TraceWriter};

/// Well-known counter names used across the pipeline.
pub mod counters {
    /// Oracle queries, counted at the source by `InstrumentedOracle`.
    pub const ORACLE_QUERIES: &str = "oracle.queries";
    /// FBDT internal nodes expanded (splits performed).
    pub const FBDT_SPLITS: &str = "fbdt.splits";
    /// FBDT leaves declared.
    pub const FBDT_LEAVES: &str = "fbdt.leaves";
    /// FBDT leaves forced by budget exhaustion.
    pub const FBDT_FORCED_LEAVES: &str = "fbdt.forced_leaves";
    /// Cubes collected into learned covers.
    pub const CUBES_COLLECTED: &str = "cover.cubes";
    /// Espresso minimization invocations.
    pub const ESPRESSO_CALLS: &str = "espresso.calls";
    /// Optimization passes executed.
    pub const OPT_PASSES: &str = "optimize.passes";
    /// AND gates removed across all optimization passes.
    pub const OPT_GATES_SAVED: &str = "optimize.gates_saved";
    /// Pass results verified by the checked-pass harness.
    pub const VERIFY_CHECKS: &str = "verify.checks";
    /// Structural lint violations found during verification.
    pub const VERIFY_LINT_VIOLATIONS: &str = "verify.lint_violations";
    /// Counterexample witnesses produced (functional differences).
    pub const VERIFY_WITNESSES: &str = "verify.witnesses";
    /// Pass results rejected (rolled back) by the harness.
    pub const VERIFY_REJECTED_PASSES: &str = "verify.rejected_passes";
    /// Oracle queries retried after a transient fault.
    pub const FAULT_RETRIES: &str = "faults.retries";
    /// Oracle queries that hit the watchdog read deadline.
    pub const FAULT_TIMEOUTS: &str = "faults.timeouts";
    /// Black-box processes respawned after a fatal fault.
    pub const FAULT_RESPAWNS: &str = "faults.respawns";
    /// Outputs degraded to a baseline circuit after the oracle died or
    /// the budget expired mid-output.
    pub const FAULT_DEGRADED_OUTPUTS: &str = "faults.degraded_outputs";
    /// Pass results audited by the static analyzer (pre-SAT gate).
    pub const ANALYZE_PASS_AUDITS: &str = "analyze.pass_audits";
    /// Dead (output-unreachable) AND nodes introduced by passes.
    pub const ANALYZE_DEAD_INTRODUCED: &str = "analyze.dead_introduced";
    /// Structurally duplicate AND nodes introduced by passes.
    pub const ANALYZE_DUPLICATES_INTRODUCED: &str = "analyze.duplicates_introduced";
    /// Ternary-provable constant AND nodes introduced by passes.
    pub const ANALYZE_CONSTANTS_INTRODUCED: &str = "analyze.constants_introduced";
    /// Structural lint errors observed by the pass audit (graphs unsafe
    /// to run semantic analyses on).
    pub const ANALYZE_STRUCTURAL_ERRORS: &str = "analyze.structural_errors";
    /// Checkpoints written (atomic tmp + fsync + rename completed).
    pub const CKPT_WRITES: &str = "ckpt.writes";
    /// Bytes in the most recently written checkpoint payload.
    pub const CKPT_BYTES: &str = "ckpt.bytes";
    /// Runs resumed from a checkpoint (1 per resumed segment).
    pub const CKPT_RESUMES: &str = "ckpt.resumes";
    /// Outputs synthesized from partial covers because the deadline
    /// expired mid-FBDT (deadline-aware degradation, step above the
    /// majority-constant fallback).
    pub const CKPT_DEADLINE_PARTIAL_OUTPUTS: &str = "ckpt.deadline_partial_outputs";
    /// Flight-recorder dumps written (by any trigger); a dump whose
    /// write failed is not counted.
    pub const FLIGHT_DUMPS: &str = "flight.dumps";
}

/// Well-known histogram names used across the pipeline. All record
/// nanoseconds except [`histograms::ORACLE_BATCH_SIZE`], which records
/// patterns.
pub mod histograms {
    /// Oracle round-trip latency: one sample per answered call (a
    /// single query is a batch of one), recorded at the source by
    /// `InstrumentedOracle`.
    pub const ORACLE_BATCH_NS: &str = "oracle.batch_ns";
    /// Patterns per answered oracle call: one sample per call, next
    /// to [`ORACLE_BATCH_NS`].
    pub const ORACLE_BATCH_SIZE: &str = "oracle.batch_size";
    /// Latency of one guarded call through the fault-tolerant layer
    /// (`ResilientOracle`), including retries, backoff sleeps and
    /// respawns: one sample per call, a single query or a whole batch.
    pub const ORACLE_GUARDED_QUERY_NS: &str = "oracle.guarded_query_ns";
    /// Per-node FBDT expansion cost (one pattern-sampling round).
    pub const FBDT_NODE_NS: &str = "fbdt.node_ns";
    /// Building one output's circuit from its learned cover: espresso
    /// minimization, factoring and AIG construction, one sample per
    /// cover.
    pub const COVER_BUILD_NS: &str = "cover.build_ns";
    /// Per-pass synthesis time (excluding verification).
    pub const SYNTH_PASS_NS: &str = "synth.pass_ns";
    /// Per-pass static-analysis audit time (the pre-SAT gate).
    pub const ANALYZE_AUDIT_NS: &str = "analyze.audit_ns";
}

struct ActiveSpan {
    id: u64,
    name: String,
    start: Instant,
    counters_at_entry: BTreeMap<String, u64>,
}

/// Accumulated cost for one `(top-level stage, output)` attribution
/// key (the internal form of [`AttributionRecord`]).
#[derive(Debug, Default, Clone)]
struct LedgerCell {
    queries: u64,
    query_ns: u64,
    gates: u64,
    /// Queries issued while an FBDT depth was in context, keyed by
    /// that depth.
    by_depth: BTreeMap<u64, u64>,
}

impl LedgerCell {
    /// The fields of this cell's `attr` event.
    fn attr_fields(&self, output: Option<u64>) -> [(&'static str, Json); 4] {
        [
            ("output", output.map(Json::from).unwrap_or(Json::Null)),
            ("queries", Json::from(self.queries)),
            ("query_ns", Json::from(self.query_ns)),
            ("gates", Json::from(self.gates)),
        ]
    }
}

/// Minimum spacing between periodic `metrics` snapshot events on the
/// trace stream.
const METRICS_INTERVAL: Duration = Duration::from_millis(250);

/// Peak resident set size in kB (`VmHWM`), when the platform exposes
/// it.
fn peak_rss_kb() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    // blocking-ok: procfs read taken at snapshot/finish points, not on
    // the per-query path.
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Writes a status payload produced under the telemetry lock (see
/// [`Inner::maybe_emit_metrics`]). Best-effort: a full disk or an
/// unlinked directory must not take the run down.
fn write_status(payload: Option<(PathBuf, String)>) {
    if let Some((path, contents)) = payload {
        let _ = crate::persist::write_atomic(&path, contents);
    }
}

/// Capacity of the flight log in bytes: a few hundred recent events.
const FLIGHT_LOG_BYTES: usize = 32 * 1024;

/// The always-on flight recorder: the most recent trace lines, whole
/// and oldest first, at most [`FLIGHT_LOG_BYTES`] in total.
///
/// It lives in [`Inner`], so every append and every dump copy happens
/// under the telemetry lock; lines are stamped with the log's own
/// clock, so a dump has one timeline whether or not a trace stream is
/// attached.
struct FlightLog {
    start: Instant,
    lines: VecDeque<String>,
    bytes: usize,
}

impl FlightLog {
    fn new() -> FlightLog {
        FlightLog {
            start: Instant::now(),
            lines: VecDeque::new(),
            bytes: 0,
        }
    }

    /// Formats one event line in the standard envelope, stamped with
    /// the log's clock and the calling thread's tid, without
    /// recording it.
    fn format(&self, kind: &str, stage: &str, fields: &[(&'static str, Json)]) -> String {
        let t_us = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        format_line(t_us, current_tid(), kind, stage, fields)
    }

    /// Appends one `\n`-terminated line, evicting the oldest whole
    /// lines until it fits. A line larger than the whole log is
    /// dropped.
    fn push(&mut self, line: String) {
        if line.len() > FLIGHT_LOG_BYTES {
            return;
        }
        while self.bytes + line.len() > FLIGHT_LOG_BYTES {
            let Some(oldest) = self.lines.pop_front() else {
                break;
            };
            self.bytes -= oldest.len();
        }
        self.bytes += line.len();
        self.lines.push_back(line);
    }

    /// The recorded lines, oldest first, as one JSONL string.
    fn contents(&self) -> String {
        let mut out = String::with_capacity(self.bytes);
        for line in &self.lines {
            out.push_str(line);
        }
        out
    }
}

struct Inner {
    reporter: Box<dyn Reporter>,
    start: Instant,
    next_span_id: u64,
    stack: Vec<ActiveSpan>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Arc<Histogram>>,
    trace: Option<TraceWriter>,
    stages: BTreeMap<String, StageReport>,
    passes: Vec<PassReport>,
    checkpoints: Vec<CheckpointReport>,
    outputs: Vec<OutputReport>,
    meta: BTreeMap<String, String>,
    /// Attribution context: the output index the pipeline is currently
    /// learning, if any (see [`Telemetry::output_scope`]).
    context_output: Option<u64>,
    /// Attribution context: the FBDT depth currently being expanded.
    context_depth: Option<u64>,
    /// The per-(top-level stage, output) cost ledger.
    ledger: BTreeMap<(String, Option<u64>), LedgerCell>,
    /// Last AIG node count published by the learner (a gauge for
    /// `metrics` snapshots).
    gauge_aig_nodes: u64,
    metrics_last: Instant,
    metrics_last_queries: u64,
    /// Queries/s over the last metrics interval (a gauge for status
    /// snapshots, refreshed by [`Inner::maybe_emit_metrics`]).
    gauge_queries_per_s: u64,
    /// The always-on flight recorder (None only for handles that
    /// explicitly opted out).
    flight: Option<FlightLog>,
    /// Where [`Telemetry::dump_flight`] writes its JSONL snapshot.
    flight_dump_path: Option<PathBuf>,
    /// Where the live status snapshot is atomically rewritten (the
    /// `--status <path>` channel), on the metrics throttle.
    status_path: Option<PathBuf>,
    /// Learner progress cursor: (outputs done, outputs total).
    progress: (u64, u64),
}

impl Inner {
    fn path_of(&self, upto: usize) -> String {
        // panic-ok: callers pass `upto <= stack.len()` (span indices
        // come from the same stack).
        self.stack[..upto]
            .iter()
            .map(|s| s.name.as_str())
            .collect::<Vec<_>>()
            .join("/")
    }

    fn current_path(&self) -> String {
        self.path_of(self.stack.len())
    }

    /// The top-level stage name — the first segment of the span path
    /// (`""` outside any span). Top-level stages partition the run, so
    /// ledger entries keyed by them sum to run totals.
    fn top_stage(&self) -> &str {
        self.stack.first().map(|s| s.name.as_str()).unwrap_or("")
    }

    /// Emits a `metrics` snapshot event — to the trace stream and the
    /// flight recorder — if any sink wants it and (unless `force`d) at
    /// most once per [`METRICS_INTERVAL`].
    ///
    /// Returns the status-channel payload to write, if a `--status`
    /// path is set and the throttle fired. The *caller* must write it
    /// after releasing the telemetry mutex: the atomic rewrite fsyncs,
    /// and that must never happen under the lock.
    fn maybe_emit_metrics(&mut self, force: bool) -> Option<(PathBuf, String)> {
        if self.trace.is_none() && self.flight.is_none() && self.status_path.is_none() {
            return None;
        }
        let now = Instant::now();
        let dt = now.duration_since(self.metrics_last);
        if !force && dt < METRICS_INTERVAL {
            return None;
        }
        let queries = self
            .counters
            .get(counters::ORACLE_QUERIES)
            .copied()
            .unwrap_or(0);
        let qps = if dt.as_secs_f64() > 0.0 {
            ((queries.saturating_sub(self.metrics_last_queries)) as f64 / dt.as_secs_f64()) as u64
        } else {
            0
        };
        let stage = self.current_path();
        let mut fields = vec![
            ("queries", Json::from(queries)),
            ("queries_per_s", Json::from(qps)),
            ("aig_nodes", Json::from(self.gauge_aig_nodes)),
        ];
        if let Some(kb) = peak_rss_kb() {
            fields.push(("peak_rss_kb", Json::from(kb)));
        }
        self.trace("metrics", &stage, &fields);
        self.metrics_last = now;
        self.metrics_last_queries = queries;
        self.gauge_queries_per_s = qps;
        self.status_payload(false)
    }

    /// Builds the `--status` channel payload (path + serialized
    /// snapshot) for the caller to `write_atomic` outside the lock.
    fn status_payload(&self, done: bool) -> Option<(PathBuf, String)> {
        let path = self.status_path.clone()?;
        Some((path, self.status_snapshot(done).to_json().to_pretty()))
    }

    /// The current run state as a compact [`StatusSnapshot`].
    fn status_snapshot(&self, done: bool) -> StatusSnapshot {
        let counter = |name: &str| self.counters.get(name).copied().unwrap_or(0);
        let mut attribution: Vec<StatusAttr> = self
            .ledger
            .iter()
            .map(|((stage, output), cell)| StatusAttr {
                stage: stage.clone(),
                output: *output,
                queries: cell.queries,
                query_ns: cell.query_ns,
                gates: cell.gates,
            })
            .collect();
        attribution.sort_by_key(|cell| std::cmp::Reverse(cell.query_ns));
        attribution.truncate(StatusSnapshot::TOP_K);
        StatusSnapshot {
            pid: std::process::id() as u64,
            meta: self.meta.clone(),
            elapsed_s: self.start.elapsed().as_secs_f64(),
            stage: self.current_path(),
            queries: counter(counters::ORACLE_QUERIES),
            queries_per_s: self.gauge_queries_per_s,
            aig_nodes: self.gauge_aig_nodes,
            peak_rss_kb: peak_rss_kb().unwrap_or(0),
            outputs_done: self.progress.0,
            outputs_total: self.progress.1,
            ckpt_writes: counter(counters::CKPT_WRITES),
            ckpt_bytes: counter(counters::CKPT_BYTES),
            degraded_outputs: counter(counters::FAULT_DEGRADED_OUTPUTS),
            attribution,
            done,
        }
    }

    /// The tee point: every event goes to the attached trace stream
    /// (if any) *and* into the flight log (if the recorder is on). The
    /// flight copy is stamped with the log's own clock so a dump has
    /// one timeline.
    fn trace(&mut self, kind: &str, stage: &str, fields: &[(&'static str, Json)]) {
        if let Some(trace) = &self.trace {
            trace.emit(kind, stage, fields);
        }
        if let Some(flight) = &mut self.flight {
            let line = flight.format(kind, stage, fields);
            flight.push(line);
        }
    }

    /// Closes the deepest span with `id` (and, defensively, anything
    /// nested below it that leaked past its guard).
    fn exit_span(&mut self, id: u64) {
        let Some(pos) = self.stack.iter().rposition(|s| s.id == id) else {
            return; // double drop or foreign guard: ignore.
        };
        while self.stack.len() > pos {
            let depth = self.stack.len();
            let path = self.path_of(depth);
            let span = self.stack.pop().expect("nonempty");
            let elapsed = span.start.elapsed();
            let entry = self
                .stages
                .entry(path.clone())
                .or_insert_with(|| StageReport {
                    path: path.clone(),
                    ..StageReport::default()
                });
            entry.calls += 1;
            entry.elapsed += elapsed;
            for (name, &now) in &self.counters {
                let before = span.counters_at_entry.get(name).copied().unwrap_or(0);
                if now > before {
                    *entry.counters.entry(name.clone()).or_insert(0) += now - before;
                }
            }
            self.trace(
                "span_close",
                &path,
                &[
                    ("id", Json::from(span.id)),
                    ("name", Json::from(span.name.as_str())),
                    (
                        "elapsed_us",
                        Json::from(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)),
                    ),
                ],
            );
            let parent = self.current_path();
            self.reporter.event(
                Level::Debug,
                if parent.is_empty() { &path } else { &parent },
                &format!("{} done in {:.3}s", span.name, elapsed.as_secs_f64()),
            );
        }
    }
}

/// A cheaply clonable handle collecting spans, counters and events for
/// one pipeline run.
///
/// Clones share state, so the handle can be embedded wherever the
/// pipeline needs it; [`Telemetry::disabled`] is a zero-cost no-op
/// handle for callers that do not observe the run.
///
/// # Examples
///
/// ```
/// use cirlearn_telemetry::{counters, Telemetry};
///
/// let telemetry = Telemetry::disabled();
/// {
///     let _span = telemetry.span("support");
///     telemetry.add(counters::ORACLE_QUERIES, 100);
/// }
/// // A disabled handle records nothing.
/// assert_eq!(telemetry.counter(counters::ORACLE_QUERIES), 0);
/// ```
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Telemetry(disabled)"),
            Some(_) => f.write_str("Telemetry(enabled)"),
        }
    }
}

impl Telemetry {
    /// A no-op handle: every method returns immediately.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A collecting handle reporting events to `reporter`.
    pub fn new(reporter: Box<dyn Reporter>) -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Inner {
                reporter,
                start: Instant::now(),
                next_span_id: 0,
                stack: Vec::new(),
                counters: BTreeMap::new(),
                histograms: BTreeMap::new(),
                trace: None,
                stages: BTreeMap::new(),
                passes: Vec::new(),
                checkpoints: Vec::new(),
                outputs: Vec::new(),
                meta: BTreeMap::new(),
                context_output: None,
                context_depth: None,
                ledger: BTreeMap::new(),
                gauge_aig_nodes: 0,
                metrics_last: Instant::now(),
                metrics_last_queries: 0,
                gauge_queries_per_s: 0,
                flight: Some(FlightLog::new()),
                flight_dump_path: None,
                status_path: None,
                progress: (0, 0),
            }))),
        }
    }

    /// A collecting handle that discards events (counters and spans
    /// are still recorded).
    pub fn recording() -> Self {
        Telemetry::new(Box::new(crate::reporter::NullReporter))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, Inner>> {
        self.inner
            .as_ref()
            // blocking-ok: the telemetry mutex is the documented
            // aggregation point — the learner records from one thread,
            // so it is never contended, and a disabled handle skips it
            // entirely.
            .map(|m| m.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Enters a stage span; the returned guard closes it on drop.
    /// Nested spans form `/`-joined paths; the counter increments that
    /// happen while a span is open are attributed to its path (and to
    /// every enclosing path) when it closes.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &str) -> Span {
        let Some(mut inner) = self.lock() else {
            return Span {
                telemetry: Telemetry::disabled(),
                id: 0,
            };
        };
        let id = inner.next_span_id;
        inner.next_span_id += 1;
        let snapshot = inner.counters.clone();
        let parent = inner.current_path();
        let path = if parent.is_empty() {
            name.to_owned()
        } else {
            format!("{parent}/{name}")
        };
        inner.trace(
            "span_open",
            &path,
            &[("id", Json::from(id)), ("name", Json::from(name))],
        );
        inner.reporter.event(
            Level::Trace,
            if parent.is_empty() { name } else { &parent },
            &format!("enter {name}"),
        );
        inner.stack.push(ActiveSpan {
            id,
            name: name.to_owned(),
            start: Instant::now(),
            counters_at_entry: snapshot,
        });
        drop(inner);
        Span {
            telemetry: self.clone(),
            id,
        }
    }

    /// Adds `delta` to a monotonic counter.
    pub fn add(&self, counter: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        // blocking-ok: `Telemetry::lock` — uncontended telemetry
        // mutex, justified at its definition.
        if let Some(mut inner) = self.lock() {
            match inner.counters.get_mut(counter) {
                Some(v) => *v += delta,
                None => {
                    inner.counters.insert(counter.to_owned(), delta);
                }
            }
        }
    }

    /// Increments a monotonic counter by one.
    pub fn incr(&self, counter: &str) {
        self.add(counter, 1);
    }

    /// Counts `n` oracle queries that together took `total_ns`,
    /// attributing them to the active `(top-level stage, output)`
    /// ledger cell — and, when an FBDT depth is in context, to that
    /// depth's bucket. Called at the source by `InstrumentedOracle`;
    /// also drives the periodic `metrics` snapshot events.
    pub fn record_oracle_queries(&self, n: u64, total_ns: u64) {
        if n == 0 {
            return;
        }
        // blocking-ok: `Telemetry::lock` — uncontended telemetry
        // mutex, justified at its definition.
        let status = if let Some(mut inner) = self.lock() {
            match inner.counters.get_mut(counters::ORACLE_QUERIES) {
                Some(v) => *v += n,
                None => {
                    inner
                        .counters
                        .insert(counters::ORACLE_QUERIES.to_owned(), n);
                }
            }
            let stage = inner.top_stage().to_owned();
            let output = inner.context_output;
            let depth = inner.context_depth;
            let cell = inner.ledger.entry((stage, output)).or_default();
            cell.queries += n;
            cell.query_ns += total_ns;
            if let Some(d) = depth {
                *cell.by_depth.entry(d).or_insert(0) += n;
            }
            inner.maybe_emit_metrics(false)
        } else {
            None
        };
        write_status(status);
    }

    /// Marks the output the pipeline is about to learn; queries and
    /// gate deltas recorded until the guard drops are attributed to
    /// it. Scopes nest — the guard restores the previous output.
    #[must_use = "the output scope ends when the guard drops"]
    pub fn output_scope(&self, output: usize) -> OutputScope {
        let prev = match self.lock() {
            None => None,
            Some(mut inner) => {
                let prev = inner.context_output;
                inner.context_output = Some(output as u64);
                prev
            }
        };
        OutputScope {
            telemetry: self.clone(),
            prev,
        }
    }

    /// Sets (or clears) the FBDT depth in the attribution context, so
    /// queries issued while expanding a node are tagged with its
    /// depth.
    pub fn set_fbdt_depth(&self, depth: Option<u64>) {
        // blocking-ok: `Telemetry::lock` — uncontended telemetry
        // mutex, justified at its definition.
        if let Some(mut inner) = self.lock() {
            inner.context_depth = depth;
        }
    }

    /// Attributes `gates` AND gates built to the active ledger cell.
    pub fn attribute_gates(&self, gates: u64) {
        if gates == 0 {
            return;
        }
        if let Some(mut inner) = self.lock() {
            let stage = inner.top_stage().to_owned();
            let output = inner.context_output;
            inner.ledger.entry((stage, output)).or_default().gates += gates;
        }
    }

    /// Publishes the current AIG node count — the gauge reported in
    /// `metrics` snapshot events.
    pub fn set_aig_nodes(&self, nodes: u64) {
        if let Some(mut inner) = self.lock() {
            inner.gauge_aig_nodes = nodes;
        }
    }

    /// Publishes the learner's progress cursor: `done` of `total`
    /// outputs finished — surfaced on the status channel.
    pub fn set_progress(&self, done: u64, total: u64) {
        if let Some(mut inner) = self.lock() {
            inner.progress = (done, total);
        }
    }

    /// Points the live status channel at `path` (or detaches it with
    /// `None`): the run then atomically rewrites a compact JSON
    /// [`StatusSnapshot`](crate::StatusSnapshot) there, at most once
    /// per metrics interval, plus a final one from
    /// [`Telemetry::finalize_status`].
    pub fn set_status_path(&self, path: Option<PathBuf>) {
        if let Some(mut inner) = self.lock() {
            inner.status_path = path;
        }
    }

    /// Sets (or clears) where [`Telemetry::dump_flight`] writes its
    /// JSONL snapshot. With no path set, dumps are skipped.
    pub fn set_flight_dump_path(&self, path: Option<PathBuf>) {
        if let Some(mut inner) = self.lock() {
            inner.flight_dump_path = path;
        }
    }

    /// Turns the always-on flight recorder off for this handle — the
    /// escape hatch behind `--flight off` (overhead experiments).
    pub fn disable_flight(&self) {
        if let Some(mut inner) = self.lock() {
            inner.flight = None;
        }
    }

    /// Writes a final status snapshot marked `done` (ignoring the
    /// throttle) so `cirlearn top` followers see the run finish.
    pub fn finalize_status(&self) {
        let payload = self.lock().and_then(|inner| inner.status_payload(true));
        write_status(payload);
    }

    /// Dumps the flight recorder to the configured dump path: the
    /// recent events (whole lines, oldest first) plus a trailer — a
    /// `flight` marker carrying `reason`, a final `metrics` snapshot
    /// and the attribution ledger — written atomically as well-formed
    /// JSONL that `trace summary` and `trace export --chrome` accept.
    ///
    /// Returns the path written, or `None` when the recorder is off,
    /// no dump path is set, or the write failed; only a written dump
    /// counts under [`counters::FLIGHT_DUMPS`]. Called on panic
    /// (drop-guard), fault degradation, deadline expiry, checkpoint
    /// suspension and SIGUSR1.
    pub fn dump_flight(&self, reason: &str) -> Option<PathBuf> {
        // Flush the trace stream first so the file on disk is not
        // behind the dump that accompanies it.
        self.flush_trace();
        let (path, dump) = {
            // blocking-ok: flight dump path (crash/debug), not the
            // per-query path.
            let inner = self.lock()?;
            let flight = inner.flight.as_ref()?;
            let path = inner.flight_dump_path.clone()?;
            let stage = inner.current_path();
            // The trailer is formatted with the log's clock but never
            // recorded into it: it must sit after the recorded lines,
            // which all predate it, so timestamps stay monotone.
            let mut dump = flight.contents();
            dump.push_str(&flight.format(
                "flight",
                &stage,
                &[
                    ("reason", Json::from(reason)),
                    ("pid", Json::from(std::process::id() as u64)),
                ],
            ));
            let queries = inner
                .counters
                .get(counters::ORACLE_QUERIES)
                .copied()
                .unwrap_or(0);
            let mut fields = vec![
                ("queries", Json::from(queries)),
                ("queries_per_s", Json::from(inner.gauge_queries_per_s)),
                ("aig_nodes", Json::from(inner.gauge_aig_nodes)),
            ];
            if let Some(kb) = peak_rss_kb() {
                fields.push(("peak_rss_kb", Json::from(kb)));
            }
            dump.push_str(&flight.format("metrics", &stage, &fields));
            for ((lstage, output), cell) in &inner.ledger {
                dump.push_str(&flight.format("attr", lstage, &cell.attr_fields(*output)));
            }
            (path, dump)
        };
        // The atomic write happens outside the lock: the fsync pair
        // can be slow and must never stall recording.
        crate::persist::write_atomic(&path, dump).ok()?;
        self.incr(counters::FLIGHT_DUMPS);
        Some(path)
    }

    /// Emits a `metrics` snapshot immediately (ignoring the periodic
    /// throttle) — a no-op unless a trace stream, the flight recorder
    /// or a status path is attached.
    pub fn emit_metrics_snapshot(&self) {
        let status = self
            .lock()
            .and_then(|mut inner| inner.maybe_emit_metrics(true));
        write_status(status);
    }

    /// Flushes the attribution ledger onto the trace stream and the
    /// flight recorder: one final `metrics` snapshot, then one `attr`
    /// event per ledger cell. Safe to call more than once (events
    /// repeat; the ledger itself is unchanged) — the CLI calls it
    /// right before writing the report, and the panic drop-guard calls
    /// it before the `aborted` marker.
    pub fn trace_attribution(&self) {
        // blocking-ok: `Telemetry::lock` — uncontended telemetry
        // mutex, justified at its definition.
        let status = if let Some(mut inner) = self.lock() {
            if inner.trace.is_none() && inner.flight.is_none() {
                return;
            }
            let status = inner.maybe_emit_metrics(true);
            let cells: Vec<(String, [(&'static str, Json); 4])> = inner
                .ledger
                .iter()
                .map(|((stage, output), cell)| (stage.clone(), cell.attr_fields(*output)))
                .collect();
            for (stage, fields) in &cells {
                inner.trace("attr", stage, fields);
            }
            status
        } else {
            None
        };
        write_status(status);
    }

    /// The current value of a counter (0 when absent or disabled).
    pub fn counter(&self, counter: &str) -> u64 {
        self.lock()
            .and_then(|inner| inner.counters.get(counter).copied())
            .unwrap_or(0)
    }

    /// Emits an event to the reporter, tagged with the current stage.
    ///
    /// When a trace stream is attached the event is mirrored onto it
    /// regardless of the reporter's level filter, so `Debug`-level
    /// fault events reach the trace without making stderr noisy.
    pub fn event(&self, level: Level, message: &str) {
        // blocking-ok: `Telemetry::lock` — uncontended telemetry
        // mutex, justified at its definition.
        if let Some(mut inner) = self.lock() {
            let stage = inner.current_path();
            inner.trace(
                "event",
                &stage,
                &[
                    ("level", Json::from(level.name())),
                    ("message", Json::from(message)),
                ],
            );
            inner.reporter.event(level, &stage, message);
        }
    }

    /// Attaches a JSONL trace stream; subsequent spans, passes,
    /// checkpoints and events are mirrored onto it.
    pub fn set_trace(&self, trace: TraceWriter) {
        if let Some(mut inner) = self.lock() {
            inner.trace = Some(trace);
        }
    }

    /// Whether a trace stream is attached (hot paths use this to skip
    /// building per-event fields).
    pub fn is_tracing(&self) -> bool {
        self.lock().is_some_and(|inner| inner.trace.is_some())
    }

    /// Emits a custom trace event tagged with the current stage —
    /// to the trace stream (if attached) and the flight recorder.
    pub fn trace(&self, kind: &str, fields: &[(&'static str, Json)]) {
        // blocking-ok: `Telemetry::lock` — uncontended telemetry
        // mutex, justified at its definition.
        if let Some(mut inner) = self.lock() {
            if inner.trace.is_some() || inner.flight.is_some() {
                let stage = inner.current_path();
                inner.trace(kind, &stage, fields);
            }
        }
    }

    /// Flushes the attached trace stream, if any.
    pub fn flush_trace(&self) {
        // blocking-ok: `Telemetry::lock` — uncontended telemetry
        // mutex, justified at its definition.
        if let Some(inner) = self.lock() {
            if let Some(trace) = &inner.trace {
                trace.flush();
            }
        }
    }

    /// A lock-free recording handle for the named histogram, creating
    /// it on first use. Grab the handle once outside a hot loop; the
    /// per-sample cost is then a few relaxed atomic ops. Disabled
    /// telemetry returns a no-op handle.
    pub fn histogram_handle(&self, name: &str) -> HistogramHandle {
        match self.lock() {
            None => HistogramHandle(None),
            Some(mut inner) => HistogramHandle(Some(Arc::clone(
                inner
                    .histograms
                    .entry(name.to_owned())
                    .or_insert_with(|| Arc::new(Histogram::new())),
            ))),
        }
    }

    /// Records one duration sample into the named histogram, creating
    /// it on first use.
    pub fn record_time(&self, name: &str, elapsed: Duration) {
        // blocking-ok: `Telemetry::lock` — uncontended telemetry
        // mutex, justified at its definition.
        if let Some(mut inner) = self.lock() {
            match inner.histograms.get(name) {
                Some(h) => h.record_duration(elapsed),
                None => {
                    let h = Arc::new(Histogram::new());
                    h.record_duration(elapsed);
                    inner.histograms.insert(name.to_owned(), h);
                }
            }
        }
    }

    /// Annotates the run (case name, seed, scale, ...).
    pub fn set_meta(&self, key: &str, value: impl std::fmt::Display) {
        if let Some(mut inner) = self.lock() {
            inner.meta.insert(key.to_owned(), value.to_string());
        }
    }

    /// Records one optimization pass application. `verify_elapsed` is
    /// the time the checked-pass harness spent validating the result
    /// (zero when verification is off).
    #[allow(clippy::too_many_arguments)]
    pub fn record_pass(
        &self,
        pass: &str,
        round: u64,
        gates_before: u64,
        gates_after: u64,
        levels_before: u64,
        levels_after: u64,
        elapsed: Duration,
        verify_elapsed: Duration,
    ) {
        if let Some(mut inner) = self.lock() {
            let stage = inner.current_path();
            inner
                .histograms
                .entry(histograms::SYNTH_PASS_NS.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new()))
                .record_duration(elapsed);
            inner.trace(
                "pass",
                &stage,
                &[
                    ("pass", Json::from(pass)),
                    ("round", Json::from(round)),
                    ("gates_before", Json::from(gates_before)),
                    ("gates_after", Json::from(gates_after)),
                    ("levels_before", Json::from(levels_before)),
                    ("levels_after", Json::from(levels_after)),
                    (
                        "elapsed_us",
                        Json::from(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)),
                    ),
                    (
                        "verify_us",
                        Json::from(u64::try_from(verify_elapsed.as_micros()).unwrap_or(u64::MAX)),
                    ),
                ],
            );
            inner.reporter.event(
                Level::Debug,
                &stage,
                &format!(
                    "pass {pass} (round {round}): {gates_before} -> {gates_after} gates, \
                     {levels_before} -> {levels_after} levels in {:.3}s",
                    elapsed.as_secs_f64()
                ),
            );
            inner.passes.push(PassReport {
                stage,
                pass: pass.to_owned(),
                round,
                gates_before,
                gates_after,
                levels_before,
                levels_after,
                elapsed,
                verify_elapsed,
            });
        }
        self.incr(counters::OPT_PASSES);
        self.add(
            counters::OPT_GATES_SAVED,
            gates_before.saturating_sub(gates_after),
        );
    }

    /// Records a budget checkpoint (see `Budget::checkpoint` in the
    /// core crate).
    pub fn checkpoint(&self, stage: &str, at: Duration, remaining: Option<Duration>) {
        if let Some(mut inner) = self.lock() {
            let current = inner.current_path();
            inner.trace(
                "checkpoint",
                &current,
                &[
                    ("label", Json::from(stage)),
                    (
                        "at_us",
                        Json::from(u64::try_from(at.as_micros()).unwrap_or(u64::MAX)),
                    ),
                    (
                        "remaining_us",
                        match remaining {
                            None => Json::Null,
                            Some(r) => Json::from(u64::try_from(r.as_micros()).unwrap_or(u64::MAX)),
                        },
                    ),
                ],
            );
            let message = match remaining {
                Some(r) => format!(
                    "checkpoint {stage}: {:.3}s elapsed, {:.3}s remaining",
                    at.as_secs_f64(),
                    r.as_secs_f64()
                ),
                None => format!(
                    "checkpoint {stage}: {:.3}s elapsed, unlimited budget",
                    at.as_secs_f64()
                ),
            };
            inner.reporter.event(Level::Debug, &current, &message);
            inner.checkpoints.push(CheckpointReport {
                stage: stage.to_owned(),
                at,
                remaining,
            });
        }
    }

    /// Records the per-output results (replacing any prior set).
    pub fn set_outputs(&self, outputs: Vec<OutputReport>) {
        if let Some(mut inner) = self.lock() {
            inner.outputs = outputs;
        }
    }

    /// Snapshots everything collected so far into a [`RunReport`].
    ///
    /// Open spans are not included — close them (drop their guards)
    /// before reporting.
    pub fn report(&self) -> RunReport {
        match self.lock() {
            None => RunReport::default(),
            Some(inner) => RunReport {
                meta: inner.meta.clone(),
                elapsed: inner.start.elapsed(),
                faults: crate::report::FaultsReport::from_counters(&inner.counters),
                counters: inner.counters.clone(),
                histograms: inner
                    .histograms
                    .iter()
                    .filter(|(_, h)| h.count() > 0)
                    .map(|(name, h)| (name.clone(), h.summary()))
                    .collect(),
                stages: inner.stages.values().cloned().collect(),
                passes: inner.passes.clone(),
                checkpoints: inner.checkpoints.clone(),
                outputs: inner.outputs.clone(),
                attribution: inner
                    .ledger
                    .iter()
                    .map(|((stage, output), cell)| AttributionRecord {
                        stage: stage.clone(),
                        output: *output,
                        queries: cell.queries,
                        query_ns: cell.query_ns,
                        gates: cell.gates,
                        by_depth: cell.by_depth.clone(),
                    })
                    .collect(),
            },
        }
    }

    fn exit_span(&self, id: u64) {
        if let Some(mut inner) = self.lock() {
            inner.exit_span(id);
        }
    }
}

/// A lock-free recording handle for one named histogram, obtained via
/// [`Telemetry::histogram_handle`]. Holds an `Arc` to the shared
/// histogram (or nothing, for disabled telemetry), so hot loops record
/// without touching the telemetry mutex.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(pub(crate) Option<Arc<Histogram>>);

impl HistogramHandle {
    /// A no-op handle.
    pub fn disabled() -> Self {
        HistogramHandle(None)
    }

    /// Whether samples are being recorded anywhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }

    /// Records a duration as nanoseconds.
    pub fn record_duration(&self, elapsed: Duration) {
        if let Some(h) = &self.0 {
            h.record_duration(elapsed);
        }
    }
}

/// A span guard; closes its stage when dropped.
#[derive(Debug)]
pub struct Span {
    telemetry: Telemetry,
    id: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.telemetry.exit_span(self.id);
    }
}

/// An attribution-context guard from [`Telemetry::output_scope`];
/// restores the previous output (and clears any FBDT depth) on drop.
#[derive(Debug)]
pub struct OutputScope {
    telemetry: Telemetry,
    prev: Option<u64>,
}

impl Drop for OutputScope {
    fn drop(&mut self) {
        if let Some(mut inner) = self.telemetry.lock() {
            inner.context_output = self.prev;
            inner.context_depth = None;
        }
    }
}

impl<R: Reporter> Reporter for Arc<Mutex<R>> {
    fn event(&mut self, level: Level, stage: &str, message: &str) {
        // blocking-ok: test/fan-in adapter — reporter events are
        // already rate-limited by level upstream.
        self.lock()
            .unwrap_or_else(|p| p.into_inner())
            .event(level, stage, message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reporter::BufferReporter;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        let _span = t.span("stage");
        t.add("c", 5);
        assert_eq!(t.counter("c"), 0);
        assert!(!t.is_enabled());
        assert_eq!(t.report(), RunReport::default());
    }

    #[test]
    fn counters_attribute_to_nested_spans() {
        let t = Telemetry::recording();
        {
            let _outer = t.span("learn");
            t.add("q", 10);
            {
                let _inner = t.span("support");
                t.add("q", 32);
            }
            t.add("q", 5);
        }
        let report = t.report();
        // The nested span sees only its own delta; the outer span sees
        // everything that happened while it was open.
        let support = report
            .stage("learn/support")
            .expect("nested span was closed, so its stage must exist");
        assert_eq!(support.counters["q"], 32);
        let learn = report
            .stage("learn")
            .expect("outer span was closed, so its stage must exist");
        assert_eq!(learn.counters["q"], 47);
        assert_eq!(report.counter("q"), 47);
        assert_eq!(learn.calls, 1);
    }

    #[test]
    fn repeated_spans_aggregate_calls_and_counters() {
        let t = Telemetry::recording();
        for k in 0..3 {
            let _span = t.span("support");
            t.add("q", k + 1);
        }
        let stage = t.report().stage("support").cloned().expect("recorded");
        assert_eq!(stage.calls, 3);
        assert_eq!(stage.counters["q"], 6);
    }

    #[test]
    fn sibling_spans_partition_counters() {
        let t = Telemetry::recording();
        {
            let _a = t.span("a");
            t.add("q", 7);
        }
        {
            let _b = t.span("b");
            t.add("q", 11);
        }
        let report = t.report();
        assert_eq!(report.top_level_counter_sum("q"), 18);
        assert_eq!(report.counter("q"), 18);
    }

    #[test]
    fn out_of_order_drops_are_tolerated() {
        let t = Telemetry::recording();
        let outer = t.span("outer");
        let inner = t.span("inner");
        t.add("q", 3);
        // Dropping the outer guard first force-closes the inner span.
        drop(outer);
        drop(inner);
        let report = t.report();
        let inner_stage = report
            .stage("outer/inner")
            .expect("force-closed span still records its stage");
        assert_eq!(inner_stage.counters["q"], 3);
        let outer_stage = report.stage("outer").expect("outer span records its stage");
        assert_eq!(outer_stage.counters["q"], 3);
    }

    #[test]
    fn events_carry_the_active_stage() {
        let buffer = Arc::new(Mutex::new(BufferReporter::new()));
        let t = Telemetry::new(Box::new(Arc::clone(&buffer)));
        {
            let _span = t.span("fbdt");
            t.event(Level::Info, "expanding");
        }
        t.event(Level::Warn, "done");
        let events = buffer
            .lock()
            .expect("no other thread touches the buffer in this test");
        let info: Vec<_> = events
            .events()
            .iter()
            .filter(|(l, _, _)| *l == Level::Info)
            .collect();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].1, "fbdt");
        assert_eq!(info[0].2, "expanding");
        let warn: Vec<_> = events
            .events()
            .iter()
            .filter(|(l, _, _)| *l == Level::Warn)
            .collect();
        assert_eq!(warn[0].1, "");
    }

    #[test]
    fn passes_and_checkpoints_are_recorded_in_order() {
        let t = Telemetry::recording();
        t.record_pass(
            "rewrite",
            1,
            100,
            80,
            9,
            8,
            Duration::from_millis(5),
            Duration::from_millis(1),
        );
        t.record_pass(
            "balance",
            1,
            80,
            80,
            8,
            7,
            Duration::from_millis(2),
            Duration::ZERO,
        );
        t.checkpoint("support", Duration::from_secs(1), None);
        let report = t.report();
        assert_eq!(report.passes.len(), 2);
        assert_eq!(report.passes[0].pass, "rewrite");
        assert_eq!(report.counter(counters::OPT_PASSES), 2);
        assert_eq!(report.counter(counters::OPT_GATES_SAVED), 20);
        assert_eq!(report.checkpoints.len(), 1);
        assert_eq!(report.checkpoints[0].remaining, None);
    }

    #[test]
    fn meta_and_outputs_round_into_report() {
        let t = Telemetry::recording();
        t.set_meta("case", "case_03");
        t.set_meta("seed", 117u64);
        t.set_outputs(vec![OutputReport {
            output: 0,
            name: "y".to_owned(),
            strategy: "fbdt".to_owned(),
            support: 4,
            forced_leaves: 0,
            queries: 10,
            elapsed: Duration::from_millis(3),
            gates_before_opt: 9,
            gates_after_opt: 5,
        }]);
        let report = t.report();
        assert_eq!(report.meta["case"], "case_03");
        assert_eq!(report.meta["seed"], "117");
        assert_eq!(report.outputs.len(), 1);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::recording();
        let t2 = t.clone();
        t2.add("q", 4);
        assert_eq!(t.counter("q"), 4);
    }

    #[test]
    fn histogram_handles_record_into_the_report() {
        let t = Telemetry::recording();
        let h = t.histogram_handle(crate::histograms::ORACLE_BATCH_NS);
        assert!(h.is_enabled());
        h.record(1_000);
        for _ in 0..3 {
            h.record(2_000);
        }
        t.record_time(crate::histograms::SYNTH_PASS_NS, Duration::from_micros(7));
        let report = t.report();
        let oracle = &report.histograms[crate::histograms::ORACLE_BATCH_NS];
        assert_eq!(oracle.count, 4);
        assert_eq!(oracle.max, 2_000);
        let synth = &report.histograms[crate::histograms::SYNTH_PASS_NS];
        assert_eq!(synth.count, 1);
        assert_eq!(synth.min, 7_000);
    }

    #[test]
    fn empty_histograms_stay_out_of_the_report() {
        let t = Telemetry::recording();
        let _unused = t.histogram_handle("never.recorded");
        assert!(t.report().histograms.is_empty());
    }

    #[test]
    fn disabled_handles_ignore_histograms_and_trace() {
        let t = Telemetry::disabled();
        let h = t.histogram_handle("x");
        assert!(!h.is_enabled());
        h.record(5);
        assert!(!t.is_tracing());
        t.trace("custom", &[]);
        t.flush_trace();
        assert!(t.report().histograms.is_empty());
    }

    #[test]
    fn trace_stream_sees_spans_passes_checkpoints_and_events() {
        use crate::trace::TraceWriter;
        let (trace, sink) = TraceWriter::to_shared_buffer();
        let t = Telemetry::recording();
        t.set_trace(trace);
        assert!(t.is_tracing());
        {
            let _outer = t.span("learn");
            let _inner = t.span("fbdt");
            t.trace("node", &[("depth", Json::from(2u64))]);
            t.event(Level::Debug, "expanding");
        }
        t.record_pass(
            "rewrite",
            1,
            10,
            8,
            3,
            3,
            Duration::from_millis(1),
            Duration::ZERO,
        );
        t.checkpoint("optimize", Duration::from_secs(1), None);
        t.flush_trace();
        let text = sink.take_string();
        let mut opens = 0i64;
        let mut kinds = Vec::new();
        for line in text.lines() {
            let parsed = Json::parse(line).expect("trace line parses");
            let kind = parsed.get("kind").and_then(Json::as_str).expect("kind");
            kinds.push(kind.to_owned());
            match kind {
                "span_open" => opens += 1,
                "span_close" => opens -= 1,
                _ => {}
            }
        }
        assert_eq!(opens, 0, "span open/close balanced");
        for expected in [
            "span_open",
            "span_close",
            "node",
            "event",
            "pass",
            "checkpoint",
        ] {
            assert!(kinds.iter().any(|k| k == expected), "missing {expected}");
        }
        // The node event carries the stage path of the enclosing spans.
        let node_line = text.lines().find(|l| l.contains("\"node\"")).expect("node");
        let parsed = Json::parse(node_line).expect("parses");
        assert_eq!(
            parsed.get("stage").and_then(Json::as_str),
            Some("learn/fbdt")
        );
    }

    #[test]
    fn oracle_queries_attribute_to_the_stage_output_ledger() {
        let t = Telemetry::recording();
        {
            let _stage = t.span("templates");
            t.record_oracle_queries(100, 5_000);
        }
        {
            let _scope = t.output_scope(0);
            let _stage = t.span("fbdt");
            t.set_fbdt_depth(Some(2));
            t.record_oracle_queries(40, 1_000);
            t.set_fbdt_depth(Some(3));
            t.record_oracle_queries(10, 200);
            t.attribute_gates(6);
        }
        {
            let _scope = t.output_scope(1);
            let _stage = t.span("exhaustive");
            t.record_oracle_queries(64, 800);
        }
        let report = t.report();
        assert_eq!(report.counter(counters::ORACLE_QUERIES), 214);
        assert_eq!(report.attribution.len(), 3);
        let total: u64 = report.attribution.iter().map(|a| a.queries).sum();
        assert_eq!(total, 214, "ledger partitions the query count");
        let fbdt = report
            .attribution
            .iter()
            .find(|a| a.stage == "fbdt")
            .expect("fbdt cell");
        assert_eq!(fbdt.output, Some(0));
        assert_eq!(fbdt.queries, 50);
        assert_eq!(fbdt.query_ns, 1_200);
        assert_eq!(fbdt.gates, 6);
        assert_eq!(fbdt.by_depth[&2], 40);
        assert_eq!(fbdt.by_depth[&3], 10);
        let templates = report
            .attribution
            .iter()
            .find(|a| a.stage == "templates")
            .expect("templates cell");
        assert_eq!(templates.output, None);
        assert!(templates.by_depth.is_empty());
    }

    #[test]
    fn output_scopes_nest_and_restore() {
        let t = Telemetry::recording();
        {
            let _a = t.span("s");
            let _outer = t.output_scope(4);
            {
                let _inner = t.output_scope(7);
                t.record_oracle_queries(1, 0);
            }
            t.record_oracle_queries(1, 0);
        }
        let report = t.report();
        let outputs: Vec<Option<u64>> = report.attribution.iter().map(|a| a.output).collect();
        assert_eq!(outputs, vec![Some(4), Some(7)]);
    }

    #[test]
    fn trace_attribution_emits_metrics_then_attr_events() {
        use crate::trace::TraceWriter;
        let (trace, sink) = TraceWriter::to_shared_buffer();
        let t = Telemetry::recording();
        t.set_trace(trace);
        {
            let _scope = t.output_scope(0);
            let _stage = t.span("fbdt");
            t.record_oracle_queries(25, 700);
        }
        t.set_aig_nodes(42);
        t.trace_attribution();
        t.flush_trace();
        let text = sink.take_string();
        let metrics: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("parses"))
            .filter(|p| p.get("kind").and_then(Json::as_str) == Some("metrics"))
            .collect();
        assert!(!metrics.is_empty(), "a final metrics snapshot is emitted");
        let last = metrics.last().expect("nonempty");
        assert_eq!(last.get("queries").and_then(Json::as_u64), Some(25));
        assert_eq!(last.get("aig_nodes").and_then(Json::as_u64), Some(42));
        assert!(last.get("queries_per_s").and_then(Json::as_u64).is_some());
        let attrs: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("parses"))
            .filter(|p| p.get("kind").and_then(Json::as_str) == Some("attr"))
            .collect();
        assert_eq!(attrs.len(), 1);
        assert_eq!(attrs[0].get("stage").and_then(Json::as_str), Some("fbdt"));
        assert_eq!(attrs[0].get("output").and_then(Json::as_u64), Some(0));
        assert_eq!(attrs[0].get("queries").and_then(Json::as_u64), Some(25));
        assert_eq!(attrs[0].get("query_ns").and_then(Json::as_u64), Some(700));
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cirlearn-telemetry-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    /// Dumps `t`'s flight recorder into a scratch dir and returns the
    /// recorded lines ahead of the `flight` marker.
    fn recorded_lines(t: &Telemetry, tag: &str) -> String {
        let dir = scratch_dir(tag);
        let path = dir.join("flight.jsonl");
        t.set_flight_dump_path(Some(path.clone()));
        t.dump_flight("test")
            .expect("recorder on and dump path set");
        let dump = std::fs::read_to_string(&path).expect("dump exists");
        let _ = std::fs::remove_dir_all(&dir);
        dump.lines()
            .take_while(|l| !l.contains("\"kind\":\"flight\""))
            .map(|l| format!("{l}\n"))
            .collect()
    }

    #[test]
    fn flight_recorder_captures_events_without_a_trace_stream() {
        let t = Telemetry::recording();
        assert!(!t.is_tracing(), "no --trace attached");
        {
            let _span = t.span("learn");
            t.event(Level::Debug, "expanding");
            t.trace("node", &[("depth", Json::from(2u64))]);
        }
        let lines = recorded_lines(&t, "capture");
        for expected in ["span_open", "event", "node", "span_close"] {
            assert!(
                lines.contains(&format!("\"kind\":\"{expected}\"")),
                "flight log is missing {expected}: {lines}"
            );
        }
        // Every line is one event in the standard envelope.
        for line in lines.lines() {
            let parsed = Json::parse(line).expect("every recorded line is valid JSON");
            assert!(parsed.get("t_us").and_then(Json::as_u64).is_some());
            assert_eq!(
                parsed.get("tid").and_then(Json::as_u64),
                Some(current_tid())
            );
        }
        let node = lines
            .lines()
            .find(|l| l.contains("\"node\""))
            .expect("node");
        let node = Json::parse(node).expect("parses");
        assert_eq!(node.get("stage").and_then(Json::as_str), Some("learn"));
        assert_eq!(node.get("depth").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn dump_flight_writes_a_parseable_jsonl_snapshot() {
        let dir = scratch_dir("dump");
        let path = dir.join("flight.jsonl");
        let t = Telemetry::recording();
        t.set_flight_dump_path(Some(path.clone()));
        {
            let _scope = t.output_scope(1);
            let _span = t.span("fbdt");
            t.record_oracle_queries(10, 500);
        }
        t.set_aig_nodes(7);
        let written = t.dump_flight("test").expect("dump path set");
        assert_eq!(written, path);
        assert_eq!(t.counter(counters::FLIGHT_DUMPS), 1);
        let text = std::fs::read_to_string(&path).expect("dump exists");
        let mut kinds = Vec::new();
        let mut last_t_us_by_tid: BTreeMap<u64, u64> = BTreeMap::new();
        for line in text.lines() {
            let parsed = Json::parse(line).expect("dump line parses");
            kinds.push(
                parsed
                    .get("kind")
                    .and_then(Json::as_str)
                    .expect("kind")
                    .to_owned(),
            );
            let tid = parsed.get("tid").and_then(Json::as_u64).expect("tid");
            let t_us = parsed.get("t_us").and_then(Json::as_u64).expect("t_us");
            let prev = last_t_us_by_tid.entry(tid).or_insert(0);
            assert!(t_us >= *prev, "per-tid timestamps are monotone: {line}");
            *prev = t_us;
        }
        let flight_pos = kinds
            .iter()
            .position(|k| k == "flight")
            .expect("dump carries the flight marker");
        assert!(
            kinds[..flight_pos].iter().any(|k| k == "span_open"),
            "recorded content"
        );
        // The trailer follows every recorded line: the marker, one
        // final metrics line, then the attribution ledger.
        assert_eq!(kinds[flight_pos + 1], "metrics", "final metrics line");
        assert_eq!(&kinds[flight_pos + 2..], ["attr"], "attribution trailer");
        let flight_line = text.lines().find(|l| l.contains("\"flight\"")).expect("");
        let parsed = Json::parse(flight_line).expect("parses");
        assert_eq!(parsed.get("reason").and_then(Json::as_str), Some("test"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_event_lines_parse_with_the_standard_envelope() {
        let t = Telemetry::recording();
        {
            let _span = t.span("learn");
            let _inner = t.span("fbdt");
            t.trace("event", &[("message", Json::from("hi"))]);
        }
        let lines = recorded_lines(&t, "envelope");
        let line = lines
            .lines()
            .find(|l| l.contains("\"kind\":\"event\""))
            .expect("the event is recorded");
        let parsed = Json::parse(line).expect("valid JSON");
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("event"));
        assert_eq!(
            parsed.get("stage").and_then(Json::as_str),
            Some("learn/fbdt")
        );
        assert_eq!(
            parsed.get("tid").and_then(Json::as_u64),
            Some(current_tid()),
            "the stamped tid is the recording thread's"
        );
        assert_eq!(parsed.get("message").and_then(Json::as_str), Some("hi"));
        assert!(parsed.get("t_us").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn flight_dump_appends_the_trailer_after_recorded_lines() {
        let dir = scratch_dir("trailer");
        let path = dir.join("flight.jsonl");
        let t = Telemetry::recording();
        t.set_flight_dump_path(Some(path.clone()));
        t.trace("node", &[]);
        t.dump_flight("test").expect("dump path set");
        let text = std::fs::read_to_string(&path).expect("dump exists");
        let _ = std::fs::remove_dir_all(&dir);
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].contains("\"kind\":\"node\""),
            "recorded line first"
        );
        assert!(lines[1].contains("\"kind\":\"flight\""), "then the marker");
        // Same thread, later stamp: the trailer is never dated before
        // the lines it follows.
        let t_us = |line: &str| {
            Json::parse(line)
                .expect("parses")
                .get("t_us")
                .and_then(Json::as_u64)
                .expect("t_us")
        };
        assert!(t_us(lines[0]) <= t_us(lines[1]));
    }

    #[test]
    fn dump_flight_without_a_path_is_a_clean_no_op() {
        let t = Telemetry::recording();
        t.event(Level::Info, "hello");
        assert_eq!(t.dump_flight("test"), None);
        assert_eq!(Telemetry::disabled().dump_flight("test"), None);
    }

    #[test]
    fn disabled_flight_recorder_stops_the_tee() {
        let (trace, sink) = crate::trace::TraceWriter::to_shared_buffer();
        let t = Telemetry::recording();
        t.disable_flight();
        t.trace("node", &[]);
        assert!(sink.take_string().is_empty(), "nothing to record into");
        t.set_trace(trace);
        t.trace("node", &[]);
        assert!(
            sink.take_string().contains("\"node\""),
            "the trace still sees it"
        );
        let dir = scratch_dir("flight-off");
        let path = dir.join("never.jsonl");
        t.set_flight_dump_path(Some(path.clone()));
        assert_eq!(t.dump_flight("test"), None);
        assert!(!path.exists());
        assert_eq!(t.counter(counters::FLIGHT_DUMPS), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_dump_is_not_counted() {
        let t = Telemetry::recording();
        t.event(Level::Info, "hello");
        let dir = scratch_dir("dump-fails");
        t.set_flight_dump_path(Some(dir.join("missing").join("flight.jsonl")));
        assert_eq!(t.dump_flight("test"), None);
        assert_eq!(t.counter(counters::FLIGHT_DUMPS), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A self-identifying line of `len` payload bytes: `"<i>:xxx…\n"`.
    fn numbered_line(i: usize, len: usize) -> String {
        format!("{i}:{}\n", "x".repeat(len))
    }

    #[test]
    fn flight_log_evicts_oldest_whole_lines() {
        let mut log = FlightLog::new();
        for i in 0..100 {
            log.push(numbered_line(i, 1_000));
        }
        let text = log.contents();
        assert!(text.len() <= FLIGHT_LOG_BYTES);
        let kept: Vec<usize> = text
            .lines()
            .map(|l| {
                l.split_once(':')
                    .and_then(|(i, _)| i.parse().ok())
                    .expect("whole line")
            })
            .collect();
        // The newest lines survive, consecutive and oldest first, and
        // the log holds as many as fit: one more would overflow it.
        assert_eq!(kept.last(), Some(&99));
        assert!(kept.windows(2).all(|w| w[1] == w[0] + 1));
        let next_older = numbered_line(kept[0] - 1, 1_000);
        assert!(text.len() + next_older.len() > FLIGHT_LOG_BYTES);
    }

    #[test]
    fn flight_log_below_capacity_is_exact() {
        let mut log = FlightLog::new();
        log.push("alpha\n".to_owned());
        log.push("beta\n".to_owned());
        assert_eq!(log.contents(), "alpha\nbeta\n");
    }

    #[test]
    fn flight_log_drops_a_line_larger_than_itself() {
        let mut log = FlightLog::new();
        log.push("kept\n".to_owned());
        log.push(numbered_line(1, FLIGHT_LOG_BYTES));
        assert_eq!(
            log.contents(),
            "kept\n",
            "earlier lines stay, the oversize one is dropped"
        );
        let exact = numbered_line(2, FLIGHT_LOG_BYTES - 3);
        assert_eq!(exact.len(), FLIGHT_LOG_BYTES);
        log.push(exact.clone());
        assert_eq!(
            log.contents(),
            exact,
            "a line of exactly the capacity fits alone"
        );
    }

    #[test]
    fn other_threads_record_into_the_one_flight_log() {
        let t = Telemetry::recording();
        t.trace("a", &[]);
        let t2 = t.clone();
        std::thread::spawn(move || t2.trace("b", &[]))
            .join()
            .expect("join");
        t.trace("c", &[]);
        let recorded = recorded_lines(&t, "threads");
        let parsed: Vec<Json> = recorded
            .lines()
            .map(|l| Json::parse(l).expect("parses"))
            .collect();
        let kinds: Vec<&str> = parsed
            .iter()
            .map(|p| p.get("kind").and_then(Json::as_str).expect("kind"))
            .collect();
        assert_eq!(kinds, ["a", "b", "c"], "one log, in append order");
        let tid = |i: usize| parsed[i].get("tid").and_then(Json::as_u64).expect("tid");
        assert_eq!(tid(0), tid(2));
        assert_ne!(tid(0), tid(1), "each line keeps its thread's tid");
    }

    #[test]
    fn distinct_handles_keep_separate_flight_logs() {
        let a = Telemetry::recording();
        let b = Telemetry::recording();
        a.trace("a", &[]);
        b.trace("b", &[]);
        let at = recorded_lines(&a, "distinct-a");
        let bt = recorded_lines(&b, "distinct-b");
        assert!(at.contains("\"kind\":\"a\"") && !at.contains("\"kind\":\"b\""));
        assert!(bt.contains("\"kind\":\"b\"") && !bt.contains("\"kind\":\"a\""));
    }

    #[test]
    fn status_channel_rewrites_snapshots_and_finalizes_done() {
        let dir = scratch_dir("status");
        let path = dir.join("status.json");
        let t = Telemetry::recording();
        t.set_status_path(Some(path.clone()));
        t.set_meta("case", "case_42");
        t.set_progress(2, 8);
        {
            let _scope = t.output_scope(3);
            let _span = t.span("fbdt");
            t.record_oracle_queries(50, 2_000);
        }
        t.emit_metrics_snapshot();
        let snap = crate::StatusSnapshot::parse(
            &std::fs::read_to_string(&path).expect("status file written"),
        )
        .expect("status parses");
        assert_eq!(snap.pid, std::process::id() as u64);
        assert_eq!(snap.meta.get("case").map(String::as_str), Some("case_42"));
        assert_eq!(snap.queries, 50);
        assert_eq!(snap.outputs_done, 2);
        assert_eq!(snap.outputs_total, 8);
        assert!(!snap.done);
        assert_eq!(snap.attribution.len(), 1);
        assert_eq!(snap.attribution[0].stage, "fbdt");
        assert_eq!(snap.attribution[0].output, Some(3));
        t.finalize_status();
        let done = crate::StatusSnapshot::parse(
            &std::fs::read_to_string(&path).expect("final status written"),
        )
        .expect("final status parses");
        assert!(done.done);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_attribution_is_top_k_by_query_ns() {
        let dir = scratch_dir("status-topk");
        let path = dir.join("status.json");
        let t = Telemetry::recording();
        t.set_status_path(Some(path.clone()));
        for output in 0..10u64 {
            let _scope = t.output_scope(output as usize);
            let _span = t.span("fbdt");
            // Later outputs are more expensive, so they must win.
            t.record_oracle_queries(1, 1_000 * (output + 1));
        }
        t.emit_metrics_snapshot();
        let snap = crate::StatusSnapshot::parse(&std::fs::read_to_string(&path).expect("written"))
            .expect("parses");
        assert_eq!(snap.attribution.len(), crate::StatusSnapshot::TOP_K);
        assert_eq!(snap.attribution[0].output, Some(9));
        assert!(snap
            .attribution
            .windows(2)
            .all(|w| w[0].query_ns >= w[1].query_ns));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_and_flight_both_see_hot_path_events() {
        use crate::trace::TraceWriter;
        let (trace, sink) = TraceWriter::to_shared_buffer();
        let t = Telemetry::recording();
        t.set_trace(trace);
        {
            let _span = t.span("fbdt");
            t.trace("node", &[("depth", Json::from(1u64))]);
        }
        t.flush_trace();
        assert!(sink.take_string().contains("\"node\""));
        let recorded = recorded_lines(&t, "tee");
        assert!(recorded.contains("\"node\""), "flight log also got it");
    }

    #[test]
    fn force_closed_spans_emit_balanced_close_events() {
        use crate::trace::TraceWriter;
        let (trace, sink) = TraceWriter::to_shared_buffer();
        let t = Telemetry::recording();
        t.set_trace(trace);
        let outer = t.span("outer");
        let inner = t.span("inner");
        drop(outer); // force-closes `inner` first
        drop(inner); // double close: ignored
        let text = sink.take_string();
        let opens = text.lines().filter(|l| l.contains("span_open")).count();
        let closes = text.lines().filter(|l| l.contains("span_close")).count();
        assert_eq!(opens, 2);
        assert_eq!(closes, 2);
    }
}
