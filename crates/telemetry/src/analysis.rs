//! Offline analysis of JSONL trace streams.
//!
//! This module is the engine behind the `cirlearn trace` subcommands:
//! it parses the event stream a [`TraceWriter`](crate::TraceWriter)
//! produced, rebuilds the span forest, and derives
//!
//! - [`summarize`]: hot-span statistics (total/self time), the
//!   per-(stage, output) attribution table from `attr` events, and the
//!   critical path through the span tree,
//! - [`to_chrome_trace`]: a Chrome trace-event JSON document loadable
//!   in Perfetto / `chrome://tracing`,
//! - [`diff`]: a regression comparison of two summaries: any rise in
//!   an attribution cell's queries flags, while span times flag only
//!   past a relative threshold AND an absolute noise floor, so
//!   wall-clock jitter on tiny runs does not.
//!
//! Everything here is pure and file-format driven — analyses run on
//! traces from crashed runs too, where unclosed spans are closed at
//! the stream's final timestamp.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::report::AttributionRecord;

/// One parsed trace event: the standard envelope plus the full parsed
/// object for kind-specific fields.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Microseconds since the recording telemetry handle was created
    /// (monotone).
    pub t_us: u64,
    /// Event kind (`span_open`, `node`, `metrics`, `attr`, ...).
    pub kind: String,
    /// `/`-joined span path active when the event fired.
    pub stage: String,
    /// The full parsed line, for kind-specific fields.
    pub json: Json,
}

impl TraceEvent {
    /// A kind-specific u64 field.
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        self.json.get(name).and_then(Json::as_u64)
    }

    /// A kind-specific string field.
    pub fn field_str(&self, name: &str) -> Option<&str> {
        self.json.get(name).and_then(Json::as_str)
    }
}

/// Parses a JSONL trace stream. Every line must be a JSON object with
/// the `t_us`/`kind`/`stage` envelope. The writer's `tid` field is the
/// constant 0 and is not read.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let t_us = json
            .get("t_us")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {}: missing t_us", i + 1))?;
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing kind", i + 1))?
            .to_owned();
        let stage = json
            .get("stage")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing stage", i + 1))?
            .to_owned();
        events.push(TraceEvent {
            t_us,
            kind,
            stage,
            json,
        });
    }
    Ok(events)
}

/// One node of the reconstructed span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span id from the stream.
    pub id: u64,
    /// Span name (one path segment).
    pub name: String,
    /// Full `/`-joined path.
    pub path: String,
    /// Open timestamp.
    pub start_us: u64,
    /// Close timestamp (the stream's last timestamp for spans left
    /// open by a crash).
    pub end_us: u64,
    /// Nested spans, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Wall clock between open and close.
    pub fn elapsed_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Elapsed time not covered by child spans.
    pub fn self_us(&self) -> u64 {
        let children: u64 = self.children.iter().map(SpanNode::elapsed_us).sum();
        self.elapsed_us().saturating_sub(children)
    }
}

/// Rebuilds the span forest from `span_open`/`span_close` events on
/// one stack. Spans still open when the stream ends (a crashed run) are
/// closed at the final timestamp.
pub fn span_forest(events: &[TraceEvent]) -> Vec<SpanNode> {
    let last_t = events.iter().map(|e| e.t_us).max().unwrap_or(0);
    let mut forest: Vec<SpanNode> = Vec::new();
    let mut stack: Vec<SpanNode> = Vec::new();
    let attach = |stack: &mut Vec<SpanNode>, forest: &mut Vec<SpanNode>, node: SpanNode| match stack
        .last_mut()
    {
        Some(parent) => parent.children.push(node),
        None => forest.push(node),
    };
    for ev in events {
        match ev.kind.as_str() {
            "span_open" => {
                stack.push(SpanNode {
                    id: ev.field_u64("id").unwrap_or(u64::MAX),
                    name: ev.field_str("name").unwrap_or("?").to_owned(),
                    path: ev.stage.clone(),
                    start_us: ev.t_us,
                    end_us: ev.t_us,
                    children: Vec::new(),
                });
            }
            "span_close" => {
                let id = ev.field_u64("id").unwrap_or(u64::MAX);
                // The writer emits balanced closes, but be defensive:
                // pop (and close) anything above a mismatched id.
                while let Some(mut node) = stack.pop() {
                    node.end_us = ev.t_us;
                    let matched = node.id == id;
                    attach(&mut stack, &mut forest, node);
                    if matched {
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    while let Some(mut node) = stack.pop() {
        node.end_us = last_t;
        attach(&mut stack, &mut forest, node);
    }
    forest
}

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Full `/`-joined path.
    pub path: String,
    /// Number of spans on this path.
    pub calls: u64,
    /// Total elapsed over all calls.
    pub total_us: u64,
    /// Total elapsed not covered by child spans.
    pub self_us: u64,
    /// Longest single call.
    pub max_us: u64,
}

/// Aggregates the forest per path, sorted by self time (descending).
pub fn span_stats(forest: &[SpanNode]) -> Vec<SpanStat> {
    fn walk(node: &SpanNode, acc: &mut BTreeMap<String, SpanStat>) {
        let stat = acc.entry(node.path.clone()).or_insert_with(|| SpanStat {
            path: node.path.clone(),
            ..SpanStat::default()
        });
        stat.calls += 1;
        stat.total_us += node.elapsed_us();
        stat.self_us += node.self_us();
        stat.max_us = stat.max_us.max(node.elapsed_us());
        for child in &node.children {
            walk(child, acc);
        }
    }
    let mut acc = BTreeMap::new();
    for node in forest {
        walk(node, &mut acc);
    }
    let mut stats: Vec<SpanStat> = acc.into_values().collect();
    stats.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.path.cmp(&b.path)));
    stats
}

/// Collects `attr` events into the attribution table. The ledger may
/// be emitted more than once (a final flush after an earlier periodic
/// one); the *last* event per (stage, output) key wins, since the
/// ledger is cumulative. `attr` events carry no `by_depth`, so each
/// row's stays empty.
pub fn attribution_rows(events: &[TraceEvent]) -> Vec<AttributionRecord> {
    let mut rows: BTreeMap<(String, Option<u64>), AttributionRecord> = BTreeMap::new();
    for ev in events.iter().filter(|e| e.kind == "attr") {
        let row = AttributionRecord::from_json(&ev.json);
        rows.insert((row.stage.clone(), row.output), row);
    }
    rows.into_values().collect()
}

/// One hop of the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalHop {
    /// Span path of this hop.
    pub path: String,
    /// Elapsed time of the hop's span.
    pub elapsed_us: u64,
    /// Elapsed time not covered by children.
    pub self_us: u64,
}

/// Extracts the critical path: starting from the longest root span,
/// repeatedly descend into the longest child.
pub fn critical_path(forest: &[SpanNode]) -> Vec<CriticalHop> {
    let mut path = Vec::new();
    let mut current = forest.iter().max_by_key(|n| n.elapsed_us());
    while let Some(node) = current {
        path.push(CriticalHop {
            path: node.path.clone(),
            elapsed_us: node.elapsed_us(),
            self_us: node.self_us(),
        });
        current = node.children.iter().max_by_key(|n| n.elapsed_us());
    }
    path
}

/// Everything [`summarize`] derives from one trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Number of parsed events.
    pub events: usize,
    /// Last timestamp in the stream.
    pub duration_us: u64,
    /// Event counts per kind.
    pub counts_by_kind: BTreeMap<String, u64>,
    /// Per-path span statistics, hottest (self time) first.
    pub spans: Vec<SpanStat>,
    /// The attribution table, sorted by stage then output.
    pub attribution: Vec<AttributionRecord>,
    /// The critical path through the span forest.
    pub critical_path: Vec<CriticalHop>,
}

impl TraceSummary {
    /// Total queries across the attribution table — equals the run's
    /// `LearnResult::queries` because top-level stages partition it.
    pub fn total_attributed_queries(&self) -> u64 {
        self.attribution.iter().map(|a| a.queries).sum()
    }

    /// Wall time not covered by any top-level span — instrumentation
    /// blind spots (saturating at zero).
    pub fn unattributed_us(&self) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| !s.path.contains('/'))
            .map(|s| s.total_us)
            .sum();
        self.duration_us.saturating_sub(covered)
    }

    /// Renders the summary as a human-readable report, listing the
    /// `top_k` hottest spans.
    pub fn render(&self, top_k: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events over {:.3}s",
            self.events,
            self.duration_us as f64 / 1e6
        );
        let kinds: Vec<String> = self
            .counts_by_kind
            .iter()
            .map(|(k, n)| format!("{k} {n}"))
            .collect();
        let _ = writeln!(out, "kinds: {}", kinds.join(", "));

        let _ = writeln!(out, "\nhot spans (by self time):");
        let _ = writeln!(
            out,
            "  {:<24} {:>6} {:>10} {:>10} {:>10}",
            "path", "calls", "total_s", "self_s", "max_s"
        );
        for s in self.spans.iter().take(top_k) {
            let _ = writeln!(
                out,
                "  {:<24} {:>6} {:>10.3} {:>10.3} {:>10.3}",
                s.path,
                s.calls,
                s.total_us as f64 / 1e6,
                s.self_us as f64 / 1e6,
                s.max_us as f64 / 1e6
            );
        }
        let _ = writeln!(
            out,
            "  unattributed (outside any span): {:.3}s",
            self.unattributed_us() as f64 / 1e6
        );

        if !self.attribution.is_empty() {
            let _ = writeln!(out, "\nattribution (stage x output):");
            let _ = writeln!(
                out,
                "  {:<14} {:>6} {:>12} {:>12} {:>8}",
                "stage", "output", "queries", "query_ms", "gates"
            );
            for a in &self.attribution {
                let output = a
                    .output
                    .map(|o| o.to_string())
                    .unwrap_or_else(|| "-".to_owned());
                let _ = writeln!(
                    out,
                    "  {:<14} {:>6} {:>12} {:>12.1} {:>8}",
                    a.stage,
                    output,
                    a.queries,
                    a.query_ns as f64 / 1e6,
                    a.gates
                );
            }
            let _ = writeln!(
                out,
                "  {:<14} {:>6} {:>12}",
                "total",
                "",
                self.total_attributed_queries()
            );
        }

        if !self.critical_path.is_empty() {
            let hops: Vec<String> = self
                .critical_path
                .iter()
                .map(|h| format!("{} {:.3}s", h.path, h.elapsed_us as f64 / 1e6))
                .collect();
            let _ = writeln!(out, "\ncritical path: {}", hops.join(" -> "));
        }
        out
    }
}

/// Merges the summaries of a multi-segment run (one trace stream per
/// checkpoint/resume segment) into one account of the whole run.
///
/// Each segment's attribution ledger is cumulative *within* that
/// segment only — a resumed process restarts its telemetry from zero —
/// so per-(stage, output) queries, times and gates are *summed* across
/// segments, as are span statistics and event counts. The merged query
/// total therefore equals the final `LearnResult::queries` of the
/// resumed run. The critical path of the longest segment (by wall
/// clock) is kept, since paths from different processes cannot be
/// spliced.
pub fn merge_summaries(segments: &[TraceSummary]) -> TraceSummary {
    let mut merged = TraceSummary::default();
    let mut spans: BTreeMap<String, SpanStat> = BTreeMap::new();
    let mut attr: BTreeMap<(String, Option<u64>), AttributionRecord> = BTreeMap::new();
    let mut longest: Option<&TraceSummary> = None;
    for seg in segments {
        merged.events += seg.events;
        merged.duration_us += seg.duration_us;
        for (kind, n) in &seg.counts_by_kind {
            *merged.counts_by_kind.entry(kind.clone()).or_insert(0) += n;
        }
        for s in &seg.spans {
            let e = spans.entry(s.path.clone()).or_insert_with(|| SpanStat {
                path: s.path.clone(),
                ..SpanStat::default()
            });
            e.calls += s.calls;
            e.total_us += s.total_us;
            e.self_us += s.self_us;
            e.max_us = e.max_us.max(s.max_us);
        }
        for a in &seg.attribution {
            let e = attr
                .entry((a.stage.clone(), a.output))
                .or_insert_with(|| AttributionRecord {
                    stage: a.stage.clone(),
                    output: a.output,
                    ..AttributionRecord::default()
                });
            e.queries += a.queries;
            e.query_ns += a.query_ns;
            e.gates += a.gates;
        }
        if longest.is_none_or(|l| seg.duration_us > l.duration_us) {
            longest = Some(seg);
        }
    }
    let mut span_stats: Vec<SpanStat> = spans.into_values().collect();
    span_stats.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.path.cmp(&b.path)));
    merged.spans = span_stats;
    merged.attribution = attr.into_values().collect();
    merged.critical_path = longest.map(|l| l.critical_path.clone()).unwrap_or_default();
    merged
}

/// Builds the full [`TraceSummary`] for a parsed event stream.
pub fn summarize(events: &[TraceEvent]) -> TraceSummary {
    let forest = span_forest(events);
    let mut counts_by_kind: BTreeMap<String, u64> = BTreeMap::new();
    for ev in events {
        *counts_by_kind.entry(ev.kind.clone()).or_insert(0) += 1;
    }
    TraceSummary {
        events: events.len(),
        duration_us: events.iter().map(|e| e.t_us).max().unwrap_or(0),
        counts_by_kind,
        spans: span_stats(&forest),
        attribution: attribution_rows(events),
        critical_path: critical_path(&forest),
    }
}

/// Converts a parsed trace into Chrome trace-event JSON (the
/// "JSON Array Format" with a `traceEvents` wrapper), loadable in
/// Perfetto and `chrome://tracing`:
///
/// - one `"ph": "M"` `thread_name` metadata event names the one
///   track (`tid` 0) `main`,
/// - spans become `"ph": "X"` complete events with `ts`/`dur`,
/// - `metrics` snapshots become `"ph": "C"` counter tracks,
/// - every other kind becomes a `"ph": "i"` thread-scoped instant.
pub fn to_chrome_trace(events: &[TraceEvent]) -> Json {
    let mut trace_events: Vec<Json> = vec![Json::object([
        ("name", Json::from("thread_name")),
        ("ph", Json::from("M")),
        ("pid", Json::from(1u64)),
        ("tid", Json::from(0u64)),
        ("args", Json::object([("name", Json::from("main"))])),
    ])];
    fn emit_span(node: &SpanNode, out: &mut Vec<Json>) {
        out.push(Json::object([
            ("name", Json::from(node.name.clone())),
            ("cat", Json::from("span")),
            ("ph", Json::from("X")),
            ("ts", Json::from(node.start_us)),
            ("dur", Json::from(node.elapsed_us())),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(0u64)),
            (
                "args",
                Json::object([("stage", Json::from(node.path.clone()))]),
            ),
        ]));
        for child in &node.children {
            emit_span(child, out);
        }
    }
    for root in &span_forest(events) {
        emit_span(root, &mut trace_events);
    }
    for ev in events {
        match ev.kind.as_str() {
            "span_open" | "span_close" => {}
            "metrics" => {
                let mut args = Vec::new();
                for key in ["queries_per_s", "aig_nodes", "peak_rss_kb"] {
                    if let Some(v) = ev.field_u64(key) {
                        args.push((key.to_owned(), Json::from(v)));
                    }
                }
                trace_events.push(Json::object([
                    ("name", Json::from("cirlearn")),
                    ("ph", Json::from("C")),
                    ("ts", Json::from(ev.t_us)),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(0u64)),
                    ("args", Json::Object(args)),
                ]));
            }
            kind => {
                let name = match kind {
                    "event" => ev.field_str("message").unwrap_or(kind).to_owned(),
                    "pass" => format!("pass:{}", ev.field_str("pass").unwrap_or("?")),
                    "checkpoint" => {
                        format!("checkpoint:{}", ev.field_str("label").unwrap_or("?"))
                    }
                    other => other.to_owned(),
                };
                // Carry the kind-specific payload through minus the
                // envelope, so Perfetto shows node depths etc.
                let args: Vec<(String, Json)> = match &ev.json {
                    Json::Object(pairs) => pairs
                        .iter()
                        .filter(|(k, _)| !matches!(k.as_str(), "t_us" | "kind" | "stage" | "tid"))
                        .cloned()
                        .collect(),
                    _ => Vec::new(),
                };
                trace_events.push(Json::object([
                    ("name", Json::from(name)),
                    ("cat", Json::from(kind)),
                    ("ph", Json::from("i")),
                    ("s", Json::from("t")),
                    ("ts", Json::from(ev.t_us)),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(0u64)),
                    ("args", Json::Object(args)),
                ]));
            }
        }
    }
    Json::object([
        ("traceEvents", Json::Array(trace_events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
}

/// Span-time noise floors for [`diff`]: a span's total time flags
/// only when it exceeds the relative threshold AND the absolute
/// floor. Query counts are exact and have no floor.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Relative growth (percent) below which span-time changes are
    /// noise.
    pub pct_threshold: f64,
    /// Absolute floor for span-time comparisons (µs).
    pub min_us: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            pct_threshold: 25.0,
            min_us: 50_000,
        }
    }
}

/// One regression found by [`diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDelta {
    /// What regressed, e.g. `"span fbdt total_us"`.
    pub what: String,
    /// Old value.
    pub old: f64,
    /// New value.
    pub new: f64,
}

impl std::fmt::Display for TraceDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pct = if self.old > 0.0 {
            (self.new - self.old) * 100.0 / self.old
        } else {
            f64::INFINITY
        };
        write!(
            f,
            "{}: {} -> {} (+{:.1}%)",
            self.what, self.old, self.new, pct
        )
    }
}

/// Compares two trace summaries, returning the regressions in `new`
/// relative to `old`: every attribution cell whose queries rose, and
/// every span whose total time clears both the relative threshold and
/// the absolute floor of `cfg`.
pub fn diff(old: &TraceSummary, new: &TraceSummary, cfg: &DiffConfig) -> Vec<TraceDelta> {
    let factor = 1.0 + cfg.pct_threshold / 100.0;
    let mut deltas = Vec::new();

    let old_spans: BTreeMap<&str, &SpanStat> =
        old.spans.iter().map(|s| (s.path.as_str(), s)).collect();
    for s in &new.spans {
        let old_us = old_spans.get(s.path.as_str()).map_or(0, |o| o.total_us) as f64;
        let new_us = s.total_us as f64;
        if new_us > old_us * factor && new_us - old_us > cfg.min_us as f64 {
            deltas.push(TraceDelta {
                what: format!("span {} total_us", s.path),
                old: old_us,
                new: new_us,
            });
        }
    }

    let old_attr: BTreeMap<(&str, Option<u64>), u64> = old
        .attribution
        .iter()
        .map(|a| ((a.stage.as_str(), a.output), a.queries))
        .collect();
    for a in &new.attribution {
        let key = (a.stage.as_str(), a.output);
        let old_q = old_attr.get(&key).copied().unwrap_or(0);
        if a.queries > old_q {
            deltas.push(TraceDelta {
                what: match a.output {
                    Some(o) => format!("attr {}[{}] queries", a.stage, o),
                    None => format!("attr {} queries", a.stage),
                },
                old: old_q as f64,
                new: a.queries as f64,
            });
        }
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic well-formed trace: two top-level spans, one nested
    /// span, node/metrics/attr events.
    fn sample_trace() -> String {
        [
            r#"{"t_us":0,"kind":"span_open","stage":"support","tid":0,"id":0,"name":"support"}"#,
            r#"{"t_us":100,"kind":"span_close","stage":"support","tid":0,"id":0,"name":"support","elapsed_us":100}"#,
            r#"{"t_us":110,"kind":"span_open","stage":"fbdt","tid":0,"id":1,"name":"fbdt"}"#,
            r#"{"t_us":120,"kind":"node","stage":"fbdt","tid":0,"depth":2,"disposition":"split","elapsed_us":4}"#,
            r#"{"t_us":130,"kind":"span_open","stage":"fbdt/cover","tid":0,"id":2,"name":"cover"}"#,
            r#"{"t_us":190,"kind":"span_close","stage":"fbdt/cover","tid":0,"id":2,"name":"cover","elapsed_us":60}"#,
            r#"{"t_us":310,"kind":"span_close","stage":"fbdt","tid":0,"id":1,"name":"fbdt","elapsed_us":200}"#,
            r#"{"t_us":320,"kind":"metrics","stage":"","tid":0,"queries":500,"queries_per_s":1000,"aig_nodes":32}"#,
            r#"{"t_us":330,"kind":"attr","stage":"support","tid":0,"output":null,"queries":300,"query_ns":600000,"gates":0}"#,
            r#"{"t_us":331,"kind":"attr","stage":"fbdt","tid":0,"output":0,"queries":200,"query_ns":400000,"gates":12}"#,
        ]
        .join("\n")
    }

    #[test]
    fn parses_and_rebuilds_the_span_forest() {
        let events = parse_trace(&sample_trace()).expect("parses");
        assert_eq!(events.len(), 10);
        let forest = span_forest(&events);
        assert_eq!(forest.len(), 2);
        assert_eq!(forest[0].path, "support");
        assert_eq!(forest[1].path, "fbdt");
        assert_eq!(forest[1].elapsed_us(), 200);
        assert_eq!(forest[1].children.len(), 1);
        assert_eq!(forest[1].children[0].path, "fbdt/cover");
        assert_eq!(forest[1].self_us(), 140);
    }

    #[test]
    fn unclosed_spans_close_at_the_last_timestamp() {
        let text = [
            r#"{"t_us":0,"kind":"span_open","stage":"fbdt","tid":0,"id":0,"name":"fbdt"}"#,
            r#"{"t_us":50,"kind":"node","stage":"fbdt","tid":0,"depth":1}"#,
        ]
        .join("\n");
        let events = parse_trace(&text).expect("parses");
        let forest = span_forest(&events);
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].end_us, 50, "closed at the stream's end");
    }

    #[test]
    fn summary_has_stats_attribution_and_critical_path() {
        let events = parse_trace(&sample_trace()).expect("parses");
        let summary = summarize(&events);
        assert_eq!(summary.events, 10);
        assert_eq!(summary.duration_us, 331);
        assert_eq!(summary.counts_by_kind["node"], 1);

        // Hottest span by self time is fbdt (140µs self).
        assert_eq!(summary.spans[0].path, "fbdt");
        assert_eq!(summary.spans[0].self_us, 140);

        assert_eq!(summary.attribution.len(), 2);
        assert_eq!(summary.total_attributed_queries(), 500);

        // The critical path descends the longest chain.
        let hops: Vec<&str> = summary
            .critical_path
            .iter()
            .map(|h| h.path.as_str())
            .collect();
        assert_eq!(hops, vec!["fbdt", "fbdt/cover"]);

        let text = summary.render(10);
        assert!(text.contains("hot spans"));
        assert!(text.contains("attribution"));
        assert!(text.contains("critical path: fbdt 0.000s -> fbdt/cover 0.000s"));
    }

    #[test]
    fn repeated_attr_events_keep_the_last_value() {
        let text = [
            r#"{"t_us":0,"kind":"attr","stage":"fbdt","tid":0,"output":0,"queries":10,"query_ns":1,"gates":0}"#,
            r#"{"t_us":9,"kind":"attr","stage":"fbdt","tid":0,"output":0,"queries":25,"query_ns":2,"gates":3}"#,
        ]
        .join("\n");
        let events = parse_trace(&text).expect("parses");
        let rows = attribution_rows(&events);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].queries, 25, "the ledger is cumulative");
        assert_eq!(rows[0].gates, 3);
    }

    #[test]
    fn chrome_export_is_valid_trace_event_json() {
        let events = parse_trace(&sample_trace()).expect("parses");
        let chrome = to_chrome_trace(&events);
        // Round-trip through text: the export must stay valid JSON.
        let parsed = Json::parse(&chrome.to_compact()).expect("valid JSON");
        let trace_events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert!(!trace_events.is_empty());
        let mut complete = 0;
        let mut counters = 0;
        let mut metadata = 0;
        for ev in trace_events {
            let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
            assert!(ev.get("pid").and_then(Json::as_u64).is_some());
            if ph != "M" {
                assert!(ev.get("ts").and_then(Json::as_u64).is_some(), "ts required");
            }
            match ph {
                "M" => {
                    metadata += 1;
                    assert_eq!(ev.get("name").and_then(Json::as_str), Some("thread_name"));
                    assert!(ev.get("tid").and_then(Json::as_u64).is_some());
                    let thread = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .expect("args.name carries the thread name");
                    assert!(!thread.is_empty());
                }
                "X" => {
                    complete += 1;
                    assert!(ev.get("dur").and_then(Json::as_u64).is_some());
                    assert!(ev.get("tid").and_then(Json::as_u64).is_some());
                    assert!(ev.get("name").and_then(Json::as_str).is_some());
                }
                "C" => {
                    counters += 1;
                    assert!(ev.get("tid").and_then(Json::as_u64).is_some());
                }
                "i" => {
                    assert!(ev.get("tid").and_then(Json::as_u64).is_some());
                }
                other => panic!("unexpected phase {other}"),
            }
        }
        assert_eq!(complete, 3, "three spans become X events");
        assert_eq!(counters, 1, "one metrics snapshot becomes a counter");
        assert_eq!(metadata, 1, "one thread_name event names the one track");
        assert_eq!(
            trace_events[0].get("ph").and_then(Json::as_str),
            Some("M"),
            "metadata leads the stream"
        );
    }

    #[test]
    fn diff_applies_threshold_and_floor() {
        let old_events = parse_trace(&sample_trace()).expect("parses");
        let old = summarize(&old_events);
        // Identical runs: no regressions.
        assert!(diff(&old, &old, &DiffConfig::default()).is_empty());

        // Inflate fbdt's queries.
        let text = sample_trace().replace(
            r#""output":0,"queries":200"#,
            r#""output":0,"queries":2000"#,
        );
        let new = summarize(&parse_trace(&text).expect("parses"));
        let cfg = DiffConfig {
            min_us: 1_000_000, // mute span-time noise in this tiny trace
            ..DiffConfig::default()
        };
        let deltas = diff(&old, &new, &cfg);
        assert_eq!(
            deltas.len(),
            1,
            "only the query regression flags: {deltas:?}"
        );
        assert!(deltas[0].what.contains("fbdt[0]"));

        // Queries are exact: a small rise flags too, and a fall does not.
        let text =
            sample_trace().replace(r#""output":0,"queries":200"#, r#""output":0,"queries":260"#);
        let new = summarize(&parse_trace(&text).expect("parses"));
        let deltas = diff(&old, &new, &cfg);
        assert_eq!(deltas.len(), 1, "any query rise flags: {deltas:?}");
        assert_eq!((deltas[0].old, deltas[0].new), (200.0, 260.0));
        assert!(diff(&new, &old, &cfg).is_empty(), "a fall is no regression");
    }

    #[test]
    fn merged_segments_sum_attribution_and_spans() {
        let events = parse_trace(&sample_trace()).expect("parses");
        let seg = summarize(&events);
        let merged = merge_summaries(&[seg.clone(), seg.clone()]);
        assert_eq!(merged.events, 2 * seg.events);
        assert_eq!(merged.duration_us, 2 * seg.duration_us);
        assert_eq!(
            merged.total_attributed_queries(),
            2 * seg.total_attributed_queries(),
            "segments are cumulative only within themselves, so merge sums"
        );
        let fbdt = merged
            .spans
            .iter()
            .find(|s| s.path == "fbdt")
            .expect("fbdt");
        assert_eq!(fbdt.calls, 2);
        assert_eq!(fbdt.total_us, 400);
        assert_eq!(merged.counts_by_kind["attr"], 4);
        // One critical path survives (the longest segment's), unspliced.
        assert_eq!(merged.critical_path, seg.critical_path);
    }

    #[test]
    fn parse_errors_name_the_line() {
        let text = "{\"t_us\":1,\"kind\":\"event\",\"stage\":\"\"}\nnot json";
        let err = parse_trace(text).expect_err("bad line");
        assert!(err.contains("line 2"), "{err}");
    }
}
