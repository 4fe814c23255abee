//! The [`Telemetry`] handle: stage-scoped spans, monotonic counters,
//! latency histograms, trace emission and events.

use std::cell::{Cell, RefCell, RefMut};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::histogram::Histogram;
use crate::json::Json;
use crate::metric::{Counter, Hist};
use crate::report::{
    AttributionRecord, CheckpointReport, FaultsReport, OutputReport, PassReport, RunReport,
    StageReport,
};
use crate::reporter::{Level, Reporter};
use crate::status::StatusSnapshot;
use crate::trace::{format_line, TraceWriter};

struct ActiveSpan {
    id: u64,
    name: &'static str,
    /// The `/`-joined names of this span and every span below it.
    path: String,
    start: Instant,
    counters_at_entry: [u64; Counter::COUNT],
}

/// The `/`-joined path of the innermost open span (`""` outside any).
fn path(stack: &[ActiveSpan]) -> &str {
    stack.last().map_or("", |s| s.path.as_str())
}

/// Minimum spacing between periodic `metrics` snapshot events on the
/// trace stream.
const METRICS_INTERVAL: Duration = Duration::from_millis(250);

/// A duration in whole nanoseconds, saturating.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A duration in whole microseconds, saturating.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

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

/// Writes a status payload built by the recorder (see
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
/// It lives in [`Inner`], beside the trace stream. It records the very
/// lines the trace
/// stream gets, stamped with the run clock, so a dump and a trace of
/// the same run share one timeline.
#[derive(Default)]
struct FlightLog {
    lines: VecDeque<String>,
    bytes: usize,
}

impl FlightLog {
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

/// Everything behind an enabled handle: the fixed metric tables,
/// recorded with plain adds, beside the borrowed recorder.
struct Shared {
    /// When the handle was created: the run's clock.
    start: Instant,
    /// Counter values, indexed by [`Counter`].
    counters: [Cell<u64>; Counter::COUNT],
    /// Histograms, indexed by [`Hist`].
    histograms: [Histogram; Hist::COUNT],
    /// Nanoseconds of answered oracle calls (the ledger's, unreported).
    query_ns: Cell<u64>,
    /// When the next `metrics` snapshot is due, in ns since `start`.
    snapshot_due: Cell<u64>,
    inner: RefCell<Inner>,
}

impl Shared {
    fn counter(&self, counter: Counter) -> u64 {
        // panic-ok: a `Counter` discriminant is below `Counter::COUNT`.
        self.counters[counter as usize].get()
    }

    /// Every counter's current value, indexed by [`Counter`].
    fn counters(&self) -> [u64; Counter::COUNT] {
        Counter::ALL.map(|c| self.counter(c))
    }

    fn add(&self, counter: Counter, delta: u64) {
        // panic-ok: a `Counter` discriminant is below `Counter::COUNT`.
        let cell = &self.counters[counter as usize];
        cell.set(cell.get() + delta);
    }
}

struct Inner {
    reporter: Box<dyn Reporter>,
    next_span_id: u64,
    stack: Vec<ActiveSpan>,
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
    /// The per-(top-level stage, output) cost ledger, keyed by the
    /// top-level span's static name so that a settle allocates nothing.
    ledger: BTreeMap<(&'static str, Option<u64>), AttributionRecord>,
    /// The `oracle.queries` and query-ns totals already in the ledger.
    settled: (u64, u64),
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
    /// Moves the queries and query nanoseconds recorded since the last
    /// settle into the current context's ledger cell (and depth bucket).
    /// Called before the context changes and before the ledger is read;
    /// the pipeline changes context only between oracle batches, so
    /// every batch lands in the cell it was recorded under.
    fn settle(&mut self, shared: &Shared) {
        let queries = shared.counter(Counter::OracleQueries);
        let query_ns = shared.query_ns.get();
        let dq = queries.saturating_sub(self.settled.0);
        let dns = query_ns.saturating_sub(self.settled.1);
        self.settled = (queries, query_ns);
        if dq == 0 && dns == 0 {
            return;
        }
        let depth = self.context_depth;
        let cell = self.cell();
        cell.queries += dq;
        cell.query_ns += dns;
        if let (Some(d), true) = (depth, dq > 0) {
            *cell.by_depth.entry(d).or_insert(0) += dq;
        }
    }

    /// The ledger cell of the current context, created empty. Its stage
    /// is the top-level one (`""` outside any span): top-level stages
    /// partition the run, so the cells sum to run totals.
    fn cell(&mut self) -> &mut AttributionRecord {
        let stage = self.stack.first().map_or("", |s| s.name);
        let output = self.context_output;
        self.ledger
            .entry((stage, output))
            .or_insert_with(|| AttributionRecord {
                // alloc-ok: a new cell names its stage once; settling
                // into an existing cell allocates nothing.
                stage: stage.to_owned(),
                output,
                ..AttributionRecord::default()
            })
    }

    /// The fields of a `metrics` event: the query total, the gauges
    /// and the peak RSS.
    fn metrics_fields(&self, shared: &Shared) -> Vec<(&'static str, Json)> {
        let queries = shared.counter(Counter::OracleQueries);
        let mut fields = vec![
            ("queries", Json::from(queries)),
            ("queries_per_s", Json::from(self.gauge_queries_per_s)),
            ("aig_nodes", Json::from(self.gauge_aig_nodes)),
        ];
        if let Some(kb) = peak_rss_kb() {
            fields.push(("peak_rss_kb", Json::from(kb)));
        }
        fields
    }

    /// Refreshes the queries/s gauge and emits a `metrics` snapshot
    /// event — to the trace stream and the flight recorder — if any
    /// sink wants it, at most once per [`METRICS_INTERVAL`] unless
    /// `force`d. Publishes the next due time for the batch path.
    ///
    /// Returns the status-channel payload to write, if a `--status`
    /// path is set and the throttle fired; the caller writes it with
    /// [`write_status`].
    fn maybe_emit_metrics(&mut self, shared: &Shared, force: bool) -> Option<(PathBuf, String)> {
        let now = Instant::now();
        let dt = now.duration_since(self.metrics_last);
        if !force && dt < METRICS_INTERVAL {
            return None;
        }
        let queries = shared.counter(Counter::OracleQueries);
        self.gauge_queries_per_s = if dt.as_secs_f64() > 0.0 {
            ((queries.saturating_sub(self.metrics_last_queries)) as f64 / dt.as_secs_f64()) as u64
        } else {
            0
        };
        self.metrics_last = now;
        self.metrics_last_queries = queries;
        shared
            .snapshot_due
            .set(nanos(now.duration_since(shared.start) + METRICS_INTERVAL));
        if self.trace.is_none() && self.flight.is_none() && self.status_path.is_none() {
            return None;
        }
        let fields = self.metrics_fields(shared);
        self.trace(shared, "metrics", None, &fields);
        self.status_payload(shared, false)
    }

    /// Builds the `--status` channel payload (path + serialized
    /// snapshot) for the caller to write with [`write_status`].
    fn status_payload(&mut self, shared: &Shared, done: bool) -> Option<(PathBuf, String)> {
        let path = self.status_path.clone()?;
        let snapshot = self.status_snapshot(shared, done).to_json().to_pretty();
        Some((path, snapshot))
    }

    /// The current run state as a compact [`StatusSnapshot`].
    fn status_snapshot(&mut self, shared: &Shared, done: bool) -> StatusSnapshot {
        self.settle(shared);
        let mut attribution: Vec<AttributionRecord> = self
            .ledger
            .values()
            .map(|cell| AttributionRecord {
                stage: cell.stage.clone(),
                by_depth: BTreeMap::new(),
                ..*cell
            })
            .collect();
        attribution.sort_by_key(|cell| std::cmp::Reverse(cell.query_ns));
        attribution.truncate(StatusSnapshot::TOP_K);
        StatusSnapshot {
            pid: std::process::id() as u64,
            meta: self.meta.clone(),
            elapsed_s: shared.start.elapsed().as_secs_f64(),
            stage: path(&self.stack).to_owned(),
            queries: shared.counter(Counter::OracleQueries),
            queries_per_s: self.gauge_queries_per_s,
            aig_nodes: self.gauge_aig_nodes,
            peak_rss_kb: peak_rss_kb().unwrap_or(0),
            outputs_done: self.progress.0,
            outputs_total: self.progress.1,
            ckpt_writes: shared.counter(Counter::CkptWrites),
            ckpt_bytes: shared.counter(Counter::CkptBytes),
            degraded_outputs: shared.counter(Counter::FaultDegradedOutputs),
            attribution,
            done,
        }
    }

    /// The tee point, and the one place an event becomes a line: the
    /// event is formatted once, stamped with the run clock and tagged
    /// with `stage` (the innermost open span's path when `None`); the
    /// line goes to the attached trace stream (if any) and the same
    /// `String` into the flight log (if the recorder is on).
    fn trace(
        &mut self,
        shared: &Shared,
        kind: &str,
        stage: Option<&str>,
        fields: &[(&'static str, Json)],
    ) {
        if self.trace.is_none() && self.flight.is_none() {
            return;
        }
        let stage = stage.unwrap_or_else(|| path(&self.stack));
        let t_us = micros(shared.start.elapsed());
        let line = format_line(t_us, kind, stage, fields);
        if let Some(trace) = &mut self.trace {
            trace.write_line(kind, &line);
        }
        if let Some(flight) = &mut self.flight {
            flight.push(line);
        }
    }

    /// Closes the deepest span with `id` (and, defensively, anything
    /// nested below it that leaked past its guard).
    fn exit_span(&mut self, shared: &Shared, id: u64) {
        let Some(pos) = self.stack.iter().rposition(|s| s.id == id) else {
            return; // double drop or foreign guard: ignore.
        };
        self.settle(shared);
        let counters = shared.counters();
        while self.stack.len() > pos {
            let span = self.stack.pop().expect("nonempty");
            let elapsed = span.start.elapsed();
            let entry = self
                .stages
                .entry(span.path.clone())
                .or_insert_with(|| StageReport {
                    path: span.path.clone(),
                    ..StageReport::default()
                });
            entry.calls += 1;
            entry.elapsed += elapsed;
            for ((counter, now), before) in Counter::ALL
                .iter()
                .zip(counters)
                .zip(span.counters_at_entry)
            {
                if now > before {
                    *entry.counters.entry(counter.name().to_owned()).or_insert(0) += now - before;
                }
            }
            self.trace(
                shared,
                "span_close",
                Some(&span.path),
                &[
                    ("id", Json::from(span.id)),
                    ("name", Json::from(span.name)),
                    ("elapsed_us", Json::from(micros(elapsed))),
                ],
            );
            let parent = path(&self.stack);
            self.reporter.event(
                Level::Debug,
                if parent.is_empty() {
                    &span.path
                } else {
                    parent
                },
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
/// The handle belongs to one thread: clones share an `Rc`, counters
/// and histograms are `Cell`s, and the recorder is a `RefCell`, so
/// recording is a plain add and `Telemetry` is neither `Send` nor
/// `Sync`. The compiler rejects a second writer:
///
/// ```compile_fail,E0277
/// use cirlearn_telemetry::Telemetry;
///
/// let telemetry = Telemetry::recording();
/// let clone = telemetry.clone();
/// std::thread::spawn(move || clone.trace("elsewhere", &[]));
/// ```
///
/// Nothing records into the handle while its recorder is borrowed:
/// reporters and trace sinks never call back into the `Telemetry`
/// that drives them. A re-entrant call would panic on the borrow.
///
/// # Examples
///
/// ```
/// use cirlearn_telemetry::{Counter, Telemetry};
///
/// let telemetry = Telemetry::disabled();
/// {
///     let _span = telemetry.span("support");
///     telemetry.add(Counter::OracleQueries, 100);
/// }
/// // A disabled handle records nothing.
/// assert_eq!(telemetry.counter(Counter::OracleQueries), 0);
/// ```
#[derive(Clone)]
pub struct Telemetry {
    shared: Option<Rc<Shared>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.shared {
            None => f.write_str("Telemetry(disabled)"),
            Some(_) => f.write_str("Telemetry(enabled)"),
        }
    }
}

impl Telemetry {
    /// A no-op handle: every method returns immediately.
    pub fn disabled() -> Self {
        Telemetry { shared: None }
    }

    /// A collecting handle reporting events to `reporter`.
    pub fn new(reporter: Box<dyn Reporter>) -> Self {
        let start = Instant::now();
        let shared = Shared {
            start,
            counters: std::array::from_fn(|_| Cell::new(0)),
            histograms: std::array::from_fn(|_| Histogram::new()),
            query_ns: Cell::new(0),
            snapshot_due: Cell::new(nanos(METRICS_INTERVAL)),
            inner: RefCell::new(Inner {
                reporter,
                next_span_id: 0,
                stack: Vec::new(),
                trace: None,
                stages: BTreeMap::new(),
                passes: Vec::new(),
                checkpoints: Vec::new(),
                outputs: Vec::new(),
                meta: BTreeMap::new(),
                context_output: None,
                context_depth: None,
                ledger: BTreeMap::new(),
                settled: (0, 0),
                gauge_aig_nodes: 0,
                metrics_last: start,
                metrics_last_queries: 0,
                gauge_queries_per_s: 0,
                flight: Some(FlightLog::default()),
                flight_dump_path: None,
                status_path: None,
                progress: (0, 0),
            }),
        };
        Telemetry {
            shared: Some(Rc::new(shared)),
        }
    }

    /// A collecting handle that discards events (counters and spans
    /// are still recorded).
    pub fn recording() -> Self {
        Telemetry::new(Box::new(crate::reporter::NullReporter))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Applies `f` to the recorder; a no-op when disabled.
    fn update<R>(&self, f: impl FnOnce(&mut Inner) -> R) {
        if let Some((_, mut inner)) = self.recorder() {
            f(&mut inner);
        }
    }

    /// Borrows the recorder: spans, events, the ledger and the sinks.
    /// Counters, histograms and oracle batches record beside it, so the
    /// per-batch path borrows it only when a snapshot is due.
    fn recorder(&self) -> Option<(&Shared, RefMut<'_, Inner>)> {
        let shared = self.shared.as_deref()?;
        Some((shared, shared.inner.borrow_mut()))
    }

    /// Enters a stage span; the returned guard closes it on drop.
    /// Nested spans form `/`-joined paths; the counter increments that
    /// happen while a span is open are attributed to its path (and to
    /// every enclosing path) when it closes. `name` is a literal: a
    /// top-level span's name keys its attribution-ledger cells.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &'static str) -> Span {
        let Some((shared, mut guard)) = self.recorder() else {
            return Span {
                telemetry: Telemetry::disabled(),
                id: 0,
            };
        };
        let inner = &mut *guard;
        inner.settle(shared);
        let id = inner.next_span_id;
        inner.next_span_id += 1;
        let parent = path(&inner.stack);
        let joined = if parent.is_empty() {
            name.to_owned()
        } else {
            format!("{parent}/{name}")
        };
        inner.reporter.event(
            Level::Trace,
            if parent.is_empty() { name } else { parent },
            &format!("enter {name}"),
        );
        inner.trace(
            shared,
            "span_open",
            Some(&joined),
            &[("id", Json::from(id)), ("name", Json::from(name))],
        );
        inner.stack.push(ActiveSpan {
            id,
            name,
            path: joined,
            start: Instant::now(),
            counters_at_entry: shared.counters(),
        });
        drop(guard);
        Span {
            telemetry: self.clone(),
            id,
        }
    }

    /// Adds `delta` to a monotonic counter.
    pub fn add(&self, counter: Counter, delta: u64) {
        if let Some(shared) = &self.shared {
            shared.add(counter, delta);
        }
    }

    /// Increments a monotonic counter by one.
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Counts `n` oracle queries that together took `total_ns`; the
    /// active ledger cell (and FBDT depth bucket) takes them when the
    /// context next changes or the ledger is read. Called at the source
    /// by `OracleGuard`; borrows the recorder only when a
    /// periodic `metrics` snapshot is due.
    pub fn record_oracle_queries(&self, n: u64, total_ns: u64) {
        let Some(shared) = self.shared.as_deref().filter(|_| n > 0) else {
            return;
        };
        shared.query_ns.set(shared.query_ns.get() + total_ns);
        shared.add(Counter::OracleQueries, n);
        if nanos(shared.start.elapsed()) < shared.snapshot_due.get() {
            return;
        }
        let status = self
            .recorder()
            .and_then(|(shared, mut inner)| inner.maybe_emit_metrics(shared, false));
        write_status(status);
    }

    /// Marks the output the pipeline is about to learn; queries and
    /// gate deltas recorded until the guard drops are attributed to
    /// it. Scopes nest — the guard restores the previous output.
    #[must_use = "the output scope ends when the guard drops"]
    pub fn output_scope(&self, output: usize) -> OutputScope {
        let prev = self.recorder().and_then(|(shared, mut inner)| {
            inner.settle(shared);
            inner.context_output.replace(output as u64)
        });
        OutputScope {
            telemetry: self.clone(),
            prev,
        }
    }

    /// Sets (or clears) the FBDT depth in the attribution context, so
    /// queries issued while expanding a node are tagged with its
    /// depth.
    pub fn set_fbdt_depth(&self, depth: Option<u64>) {
        if let Some((shared, mut inner)) = self.recorder() {
            inner.settle(shared);
            inner.context_depth = depth;
        }
    }

    /// Attributes `gates` AND gates built to the active ledger cell.
    pub fn attribute_gates(&self, gates: u64) {
        if gates == 0 {
            return;
        }
        self.update(|inner| inner.cell().gates += gates);
    }

    /// Publishes the current AIG node count — the gauge reported in
    /// `metrics` snapshot events.
    pub fn set_aig_nodes(&self, nodes: u64) {
        self.update(|inner| inner.gauge_aig_nodes = nodes);
    }

    /// Publishes the learner's progress cursor: `done` of `total`
    /// outputs finished — surfaced on the status channel.
    pub fn set_progress(&self, done: u64, total: u64) {
        self.update(|inner| inner.progress = (done, total));
    }

    /// Points the live status channel at `path` (or detaches it with
    /// `None`): the run then atomically rewrites a compact JSON
    /// [`StatusSnapshot`](crate::StatusSnapshot) there, at most once
    /// per metrics interval, plus a final one from
    /// [`Telemetry::finalize_status`].
    pub fn set_status_path(&self, path: Option<PathBuf>) {
        self.update(|inner| inner.status_path = path);
    }

    /// Sets (or clears) where [`Telemetry::dump_flight`] writes its
    /// JSONL snapshot. With no path set, dumps are skipped.
    pub fn set_flight_dump_path(&self, path: Option<PathBuf>) {
        self.update(|inner| inner.flight_dump_path = path);
    }

    /// Turns the always-on flight recorder off for this handle — the
    /// escape hatch behind `--flight off` (overhead experiments).
    pub fn disable_flight(&self) {
        self.update(|inner| inner.flight = None);
    }

    /// Writes a final status snapshot marked `done` (ignoring the
    /// throttle) so `cirlearn top` followers see the run finish.
    pub fn finalize_status(&self) {
        let payload = self
            .recorder()
            .and_then(|(shared, mut inner)| inner.status_payload(shared, true));
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
    /// counts under [`Counter::FlightDumps`]. Called on panic
    /// (drop-guard), fault degradation, the spent wall, checkpoint
    /// suspension and SIGUSR1.
    pub fn dump_flight(&self, reason: &str) -> Option<PathBuf> {
        // Flush the trace stream first so the file on disk is not
        // behind the dump that accompanies it.
        self.flush_trace();
        let (path, dump) = {
            let (shared, mut inner) = self.recorder()?;
            inner.settle(shared);
            let flight = inner.flight.as_ref()?;
            let dump_path = inner.flight_dump_path.clone()?;
            let stage = path(&inner.stack);
            // The trailer is stamped with the run clock but never
            // recorded into the log: it must sit after the recorded
            // lines, which all predate it, so timestamps stay monotone.
            let t_us = micros(shared.start.elapsed());
            let line = |kind: &str, stage: &str, fields: &[(&'static str, Json)]| {
                format_line(t_us, kind, stage, fields)
            };
            let mut dump = flight.contents();
            dump.push_str(&line(
                "flight",
                stage,
                &[
                    ("reason", Json::from(reason)),
                    ("pid", Json::from(std::process::id() as u64)),
                ],
            ));
            dump.push_str(&line("metrics", stage, &inner.metrics_fields(shared)));
            for cell in inner.ledger.values() {
                dump.push_str(&line("attr", &cell.stage, &cell.fields()));
            }
            (dump_path, dump)
        };
        crate::persist::write_atomic(&path, dump).ok()?;
        self.incr(Counter::FlightDumps);
        Some(path)
    }

    /// Emits a `metrics` snapshot immediately (ignoring the periodic
    /// throttle) — a no-op unless a trace stream, the flight recorder
    /// or a status path is attached.
    pub fn emit_metrics_snapshot(&self) {
        let status = self
            .recorder()
            .and_then(|(shared, mut inner)| inner.maybe_emit_metrics(shared, true));
        write_status(status);
    }

    /// Flushes the attribution ledger onto the trace stream and the
    /// flight recorder: one final `metrics` snapshot, then one `attr`
    /// event per ledger cell. Safe to call more than once (events
    /// repeat; the ledger itself is unchanged) — the CLI calls it
    /// right before writing the report, and the panic drop-guard calls
    /// it before the `aborted` marker.
    pub fn trace_attribution(&self) {
        let Some((shared, mut inner)) = self.recorder() else {
            return;
        };
        if inner.trace.is_none() && inner.flight.is_none() {
            return;
        }
        inner.settle(shared);
        let status = inner.maybe_emit_metrics(shared, true);
        let ledger = std::mem::take(&mut inner.ledger);
        for cell in ledger.values() {
            inner.trace(shared, "attr", Some(&cell.stage), &cell.fields());
        }
        inner.ledger = ledger;
        drop(inner);
        write_status(status);
    }

    /// The current value of a counter (0 when disabled).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.shared.as_ref().map_or(0, |s| s.counter(counter))
    }

    /// Emits an event to the reporter, tagged with the current stage.
    ///
    /// When a trace stream is attached the event is mirrored onto it
    /// regardless of the reporter's level filter, so `Debug`-level
    /// fault events reach the trace without making stderr noisy.
    pub fn event(&self, level: Level, message: &str) {
        if let Some((shared, mut guard)) = self.recorder() {
            let inner = &mut *guard;
            inner.trace(
                shared,
                "event",
                None,
                &[
                    ("level", Json::from(level.name())),
                    ("message", Json::from(message)),
                ],
            );
            inner.reporter.event(level, path(&inner.stack), message);
        }
    }

    /// Attaches a JSONL trace stream, which the handle then owns;
    /// subsequent spans, passes, checkpoints and events are mirrored
    /// onto it, stamped with the handle's clock.
    pub fn set_trace(&self, trace: TraceWriter) {
        self.update(|inner| inner.trace = Some(trace));
    }

    /// Emits a custom trace event tagged with the current stage —
    /// to the trace stream (if attached) and the flight recorder.
    pub fn trace(&self, kind: &str, fields: &[(&'static str, Json)]) {
        if let Some((shared, mut inner)) = self.recorder() {
            inner.trace(shared, kind, None, fields);
        }
    }

    /// Flushes the attached trace stream, if any.
    pub fn flush_trace(&self) {
        if let Some((_, mut inner)) = self.recorder() {
            if let Some(trace) = &mut inner.trace {
                trace.flush();
            }
        }
    }

    /// Records one sample into a histogram.
    pub fn record(&self, hist: Hist, value: u64) {
        if let Some(shared) = &self.shared {
            // panic-ok: a `Hist` discriminant is below `Hist::COUNT`.
            shared.histograms[hist as usize].record(value);
        }
    }

    /// Records one duration sample, in nanoseconds, into a histogram.
    pub fn record_time(&self, hist: Hist, elapsed: Duration) {
        if let Some(shared) = &self.shared {
            // panic-ok: a `Hist` discriminant is below `Hist::COUNT`.
            shared.histograms[hist as usize].record_duration(elapsed);
        }
    }

    /// Annotates the run (case name, seed, scale, ...).
    pub fn set_meta(&self, key: &str, value: impl std::fmt::Display) {
        self.update(|inner| inner.meta.insert(key.to_owned(), value.to_string()));
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
        self.record_time(Hist::SynthPassNs, elapsed);
        if let Some((shared, mut guard)) = self.recorder() {
            let inner = &mut *guard;
            inner.trace(
                shared,
                "pass",
                None,
                &[
                    ("pass", Json::from(pass)),
                    ("round", Json::from(round)),
                    ("gates_before", Json::from(gates_before)),
                    ("gates_after", Json::from(gates_after)),
                    ("levels_before", Json::from(levels_before)),
                    ("levels_after", Json::from(levels_after)),
                    ("elapsed_us", Json::from(micros(elapsed))),
                    ("verify_us", Json::from(micros(verify_elapsed))),
                ],
            );
            let stage = path(&inner.stack);
            inner.reporter.event(
                Level::Debug,
                stage,
                &format!(
                    "pass {pass} (round {round}): {gates_before} -> {gates_after} gates, \
                     {levels_before} -> {levels_after} levels in {:.3}s",
                    elapsed.as_secs_f64()
                ),
            );
            inner.passes.push(PassReport {
                stage: stage.to_owned(),
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
        self.incr(Counter::OptPasses);
        self.add(
            Counter::OptGatesSaved,
            gates_before.saturating_sub(gates_after),
        );
    }

    /// Records a budget checkpoint (see `Budget::checkpoint` in the
    /// core crate).
    pub fn checkpoint(&self, stage: &str, at: Duration, remaining: Option<Duration>) {
        if let Some((shared, mut guard)) = self.recorder() {
            let inner = &mut *guard;
            inner.trace(
                shared,
                "checkpoint",
                None,
                &[
                    ("label", Json::from(stage)),
                    ("at_us", Json::from(micros(at))),
                    (
                        "remaining_us",
                        remaining.map_or(Json::Null, |r| Json::from(micros(r))),
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
            inner
                .reporter
                .event(Level::Debug, path(&inner.stack), &message);
            inner.checkpoints.push(CheckpointReport {
                stage: stage.to_owned(),
                at,
                remaining,
            });
        }
    }

    /// Records the per-output results (replacing any prior set).
    pub fn set_outputs(&self, outputs: Vec<OutputReport>) {
        self.update(|inner| inner.outputs = outputs);
    }

    /// Snapshots everything collected so far into a [`RunReport`].
    ///
    /// Open spans are not included — close them (drop their guards)
    /// before reporting.
    pub fn report(&self) -> RunReport {
        let Some((shared, mut inner)) = self.recorder() else {
            return RunReport::default();
        };
        inner.settle(shared);
        let counters = shared.counters();
        let counter = |c: Counter| counters[c as usize];
        RunReport {
            meta: inner.meta.clone(),
            elapsed: shared.start.elapsed(),
            faults: FaultsReport {
                retries: counter(Counter::FaultRetries),
                timeouts: counter(Counter::FaultTimeouts),
                respawns: counter(Counter::FaultRespawns),
                degraded_outputs: counter(Counter::FaultDegradedOutputs),
            },
            counters: Counter::ALL
                .iter()
                .zip(counters)
                .filter(|&(_, v)| v > 0)
                .map(|(c, v)| (c.name().to_owned(), v))
                .collect(),
            histograms: Hist::ALL
                .iter()
                .zip(&shared.histograms)
                .filter(|(_, h)| h.count() > 0)
                .map(|(hist, h)| (hist.name().to_owned(), h.summary()))
                .collect(),
            stages: inner.stages.values().cloned().collect(),
            passes: inner.passes.clone(),
            checkpoints: inner.checkpoints.clone(),
            outputs: inner.outputs.clone(),
            attribution: inner.ledger.values().cloned().collect(),
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
        if let Some((shared, mut inner)) = self.telemetry.recorder() {
            inner.exit_span(shared, self.id);
        }
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
        if let Some((shared, mut inner)) = self.telemetry.recorder() {
            inner.settle(shared);
            inner.context_output = self.prev;
            inner.context_depth = None;
        }
    }
}

impl<R: Reporter> Reporter for Rc<RefCell<R>> {
    fn event(&mut self, level: Level, stage: &str, message: &str) {
        self.borrow_mut().event(level, stage, message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reporter::BufferReporter;
    use crate::{counters, histograms};

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        let _span = t.span("stage");
        t.add(Counter::OracleQueries, 5);
        t.record(Hist::FbdtNodeNs, 5);
        assert_eq!(t.counter(Counter::OracleQueries), 0);
        assert!(!t.is_enabled());
        assert_eq!(t.report(), RunReport::default());
    }

    #[test]
    fn counters_attribute_to_nested_spans() {
        let t = Telemetry::recording();
        {
            let _outer = t.span("learn");
            t.add(Counter::OracleQueries, 10);
            {
                let _inner = t.span("support");
                t.add(Counter::OracleQueries, 32);
            }
            t.add(Counter::OracleQueries, 5);
        }
        let report = t.report();
        // The nested span sees only its own delta; the outer span sees
        // everything that happened while it was open.
        let support = report
            .stage("learn/support")
            .expect("nested span was closed, so its stage must exist");
        assert_eq!(support.counters[counters::ORACLE_QUERIES], 32);
        let learn = report
            .stage("learn")
            .expect("outer span was closed, so its stage must exist");
        assert_eq!(learn.counters[counters::ORACLE_QUERIES], 47);
        assert_eq!(report.counter(counters::ORACLE_QUERIES), 47);
        assert_eq!(learn.calls, 1);
    }

    #[test]
    fn repeated_spans_aggregate_calls_and_counters() {
        let t = Telemetry::recording();
        for k in 0..3 {
            let _span = t.span("support");
            t.add(Counter::OracleQueries, k + 1);
        }
        let stage = t.report().stage("support").cloned().expect("recorded");
        assert_eq!(stage.calls, 3);
        assert_eq!(stage.counters[counters::ORACLE_QUERIES], 6);
    }

    #[test]
    fn sibling_spans_partition_counters() {
        let t = Telemetry::recording();
        {
            let _a = t.span("a");
            t.add(Counter::OracleQueries, 7);
        }
        {
            let _b = t.span("b");
            t.add(Counter::OracleQueries, 11);
        }
        let report = t.report();
        assert_eq!(report.top_level_counter_sum(counters::ORACLE_QUERIES), 18);
        assert_eq!(report.counter(counters::ORACLE_QUERIES), 18);
    }

    #[test]
    fn out_of_order_drops_are_tolerated() {
        let t = Telemetry::recording();
        let outer = t.span("outer");
        let inner = t.span("inner");
        t.add(Counter::OracleQueries, 3);
        // Dropping the outer guard first force-closes the inner span.
        drop(outer);
        drop(inner);
        let report = t.report();
        let inner_stage = report
            .stage("outer/inner")
            .expect("force-closed span still records its stage");
        assert_eq!(inner_stage.counters[counters::ORACLE_QUERIES], 3);
        let outer_stage = report.stage("outer").expect("outer span records its stage");
        assert_eq!(outer_stage.counters[counters::ORACLE_QUERIES], 3);
    }

    #[test]
    fn events_carry_the_active_stage() {
        let buffer = Rc::new(RefCell::new(BufferReporter::new()));
        let t = Telemetry::new(Box::new(Rc::clone(&buffer)));
        {
            let _span = t.span("fbdt");
            t.event(Level::Info, "expanding");
        }
        t.event(Level::Warn, "done");
        let events = buffer.borrow();
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
        t2.add(Counter::OracleQueries, 4);
        assert_eq!(t.counter(Counter::OracleQueries), 4);
    }

    #[test]
    fn histogram_samples_record_into_the_report() {
        let t = Telemetry::recording();
        t.record(Hist::OracleBatchNs, 1_000);
        for _ in 0..3 {
            t.record(Hist::OracleBatchNs, 2_000);
        }
        t.record_time(Hist::SynthPassNs, Duration::from_micros(7));
        let report = t.report();
        let oracle = &report.histograms[histograms::ORACLE_BATCH_NS];
        assert_eq!(oracle.count, 4);
        assert_eq!(oracle.max, 2_000);
        let synth = &report.histograms[histograms::SYNTH_PASS_NS];
        assert_eq!(synth.count, 1);
        assert_eq!(synth.min, 7_000);
    }

    #[test]
    fn empty_histograms_stay_out_of_the_report() {
        let t = Telemetry::recording();
        t.add(Counter::OracleQueries, 1);
        assert!(t.report().histograms.is_empty());
    }

    #[test]
    fn disabled_handles_ignore_histograms_and_trace() {
        let t = Telemetry::disabled();
        t.record(Hist::OracleBatchNs, 5);
        t.record_time(Hist::FbdtNodeNs, Duration::from_micros(5));
        t.trace("custom", &[]);
        t.flush_trace();
        assert!(t.report().histograms.is_empty());
    }

    #[test]
    fn faults_derive_from_the_counter_table() {
        let t = Telemetry::recording();
        t.add(Counter::FaultRetries, 5);
        t.add(Counter::FaultRespawns, 2);
        let report = t.report();
        let f = report.faults;
        assert_eq!(
            (f.retries, f.respawns, f.timeouts, f.degraded_outputs),
            (5, 2, 0, 0)
        );
        assert_eq!(report.counter(counters::FAULT_RETRIES), 5);
        // Counters that never moved stay out of the counter map.
        assert_eq!(report.counters.len(), 2);
    }

    #[test]
    fn trace_stream_sees_spans_passes_checkpoints_and_events() {
        use crate::trace::TraceWriter;
        let (trace, sink) = TraceWriter::to_shared_buffer();
        let t = Telemetry::recording();
        t.set_trace(trace);
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
            assert_eq!(parsed.get("tid").and_then(Json::as_u64), Some(0));
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
        assert_eq!(t.counter(Counter::FlightDumps), 1);
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
            Some(0),
            "one thread records, so every tid is 0"
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
        assert_eq!(t.counter(Counter::FlightDumps), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_dump_is_not_counted() {
        let t = Telemetry::recording();
        t.event(Level::Info, "hello");
        let dir = scratch_dir("dump-fails");
        t.set_flight_dump_path(Some(dir.join("missing").join("flight.jsonl")));
        assert_eq!(t.dump_flight("test"), None);
        assert_eq!(t.counter(Counter::FlightDumps), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A self-identifying line of `len` payload bytes: `"<i>:xxx…\n"`.
    fn numbered_line(i: usize, len: usize) -> String {
        format!("{i}:{}\n", "x".repeat(len))
    }

    #[test]
    fn flight_log_evicts_oldest_whole_lines() {
        let mut log = FlightLog::default();
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
        let mut log = FlightLog::default();
        log.push("alpha\n".to_owned());
        log.push("beta\n".to_owned());
        assert_eq!(log.contents(), "alpha\nbeta\n");
    }

    #[test]
    fn flight_log_drops_a_line_larger_than_itself() {
        let mut log = FlightLog::default();
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
