//! The live status channel: the compact run snapshot `--status <path>`
//! atomically rewrites and `cirlearn top` renders.
//!
//! A [`StatusSnapshot`] is a single small JSON document — not a log —
//! holding where the run is *right now*: the output-progress cursor,
//! cumulative query/gate ledgers, the queries/s and peak-RSS gauges
//! from the periodic `metrics` snapshots, the top-K attribution cells
//! by oracle time, and checkpoint counters. The telemetry layer
//! rewrites it through [`write_atomic`](crate::persist::write_atomic)
//! on the 250ms metrics throttle, so a reader (another process, a
//! dashboard, `cirlearn top --follow`) always sees either the previous
//! complete snapshot or the next one, never a torn file.
//!
//! Parsing is tolerant: missing fields default and unknown fields are
//! ignored, so old readers keep working when fields are added.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::report::AttributionRecord;

/// Version stamp written into every status snapshot.
pub const STATUS_SCHEMA_VERSION: u64 = 1;

/// The live run-status snapshot (see the `status` module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatusSnapshot {
    /// The writing process's pid (so `top` can tell whether the run is
    /// still alive).
    pub pid: u64,
    /// Run annotations (case name, seed, ...), mirrored from the
    /// telemetry meta table.
    pub meta: BTreeMap<String, String>,
    /// Seconds since the run's telemetry started.
    pub elapsed_s: f64,
    /// The `/`-joined span path active when the snapshot was taken.
    pub stage: String,
    /// Cumulative oracle queries.
    pub queries: u64,
    /// Queries/s over the last metrics interval.
    pub queries_per_s: u64,
    /// Current AIG node-count gauge.
    pub aig_nodes: u64,
    /// Peak resident set size in kB (0 when the platform hides it).
    pub peak_rss_kb: u64,
    /// Outputs finished so far.
    pub outputs_done: u64,
    /// Outputs the run will learn in total (0 until the learner
    /// publishes its plan).
    pub outputs_total: u64,
    /// Checkpoints written so far.
    pub ckpt_writes: u64,
    /// Checkpoint payload bytes written so far, over every checkpoint.
    pub ckpt_bytes: u64,
    /// Outputs degraded to fallback circuits so far.
    pub degraded_outputs: u64,
    /// Top-K attribution cells by oracle nanoseconds, largest first;
    /// their `by_depth` is not carried.
    pub attribution: Vec<AttributionRecord>,
    /// Whether the run has finished (the final snapshot sets this).
    pub done: bool,
}

impl StatusSnapshot {
    /// How many attribution cells a snapshot carries at most.
    pub const TOP_K: usize = 5;

    /// Serializes the snapshot (stable field order, schema-stamped).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("status_schema_version", Json::from(STATUS_SCHEMA_VERSION)),
            ("pid", Json::from(self.pid)),
            (
                "meta",
                Json::Object(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                        .collect(),
                ),
            ),
            ("elapsed_s", Json::from(self.elapsed_s)),
            ("stage", Json::from(self.stage.as_str())),
            ("queries", Json::from(self.queries)),
            ("queries_per_s", Json::from(self.queries_per_s)),
            ("aig_nodes", Json::from(self.aig_nodes)),
            ("peak_rss_kb", Json::from(self.peak_rss_kb)),
            ("outputs_done", Json::from(self.outputs_done)),
            ("outputs_total", Json::from(self.outputs_total)),
            ("ckpt_writes", Json::from(self.ckpt_writes)),
            ("ckpt_bytes", Json::from(self.ckpt_bytes)),
            ("degraded_outputs", Json::from(self.degraded_outputs)),
            (
                "attribution",
                Json::Array(
                    self.attribution
                        .iter()
                        .map(|cell| cell.to_json(false))
                        .collect(),
                ),
            ),
            ("done", Json::Bool(self.done)),
        ])
    }

    /// Deserializes a snapshot, tolerating missing fields (defaults)
    /// and unknown ones (ignored) so readers survive schema growth.
    pub fn from_json(value: &Json) -> StatusSnapshot {
        let u64_of = |key: &str| value.get(key).and_then(Json::as_u64).unwrap_or(0);
        StatusSnapshot {
            pid: u64_of("pid"),
            meta: value
                .get("meta")
                .and_then(Json::as_object)
                .map(|pairs| {
                    pairs
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_owned())))
                        .collect()
                })
                .unwrap_or_default(),
            elapsed_s: value.get("elapsed_s").and_then(Json::as_f64).unwrap_or(0.0),
            stage: value
                .get("stage")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            queries: u64_of("queries"),
            queries_per_s: u64_of("queries_per_s"),
            aig_nodes: u64_of("aig_nodes"),
            peak_rss_kb: u64_of("peak_rss_kb"),
            outputs_done: u64_of("outputs_done"),
            outputs_total: u64_of("outputs_total"),
            ckpt_writes: u64_of("ckpt_writes"),
            ckpt_bytes: u64_of("ckpt_bytes"),
            degraded_outputs: u64_of("degraded_outputs"),
            attribution: value
                .get("attribution")
                .and_then(Json::as_array)
                .map(|items| items.iter().map(AttributionRecord::from_json).collect())
                .unwrap_or_default(),
            done: matches!(value.get("done"), Some(Json::Bool(true))),
        }
    }

    /// Parses a snapshot file's contents.
    pub fn parse(text: &str) -> Result<StatusSnapshot, crate::json::ParseError> {
        Ok(StatusSnapshot::from_json(&Json::parse(text)?))
    }

    /// Renders the snapshot as the multi-line text `cirlearn top`
    /// prints: a header, the gauges, the progress bar and the
    /// attribution table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let case = self
            .meta
            .get("case")
            .map(String::as_str)
            .unwrap_or("(unnamed run)");
        let state = if self.done { "done" } else { "running" };
        let _ = writeln!(
            out,
            "cirlearn {case} — pid {} — {state} — {:.1}s elapsed",
            self.pid, self.elapsed_s
        );
        let stage = if self.stage.is_empty() {
            "(top level)"
        } else {
            &self.stage
        };
        let _ = writeln!(out, "stage     {stage}");
        let _ = writeln!(
            out,
            "progress  {}/{} outputs{}",
            self.outputs_done,
            self.outputs_total,
            render_bar(self.outputs_done, self.outputs_total)
        );
        let _ = writeln!(
            out,
            "oracle    {} queries ({} q/s)",
            self.queries, self.queries_per_s
        );
        let _ = writeln!(
            out,
            "circuit   {} AIG nodes — peak RSS {} kB",
            self.aig_nodes, self.peak_rss_kb
        );
        let _ = writeln!(
            out,
            "ckpt      {} written, {} bytes in total — {} degraded outputs",
            self.ckpt_writes, self.ckpt_bytes, self.degraded_outputs
        );
        if !self.attribution.is_empty() {
            let _ = writeln!(out, "hottest (stage, output) cells by oracle time:");
            for attr in &self.attribution {
                let output = match attr.output {
                    Some(o) => format!("y{o}"),
                    None => "-".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "  {:<12} {:>6}  {:>10} queries  {:>9.3}s  {:>8} gates",
                    attr.stage,
                    output,
                    attr.queries,
                    attr.query_ns as f64 / 1e9,
                    attr.gates
                );
            }
        }
        out
    }
}

fn render_bar(done: u64, total: u64) -> String {
    if total == 0 {
        return String::new();
    }
    const WIDTH: u64 = 20;
    let filled = (done.min(total) * WIDTH) / total;
    let mut bar = String::from("  [");
    for i in 0..WIDTH {
        bar.push(if i < filled { '#' } else { '.' });
    }
    bar.push(']');
    bar
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatusSnapshot {
        StatusSnapshot {
            pid: 4242,
            meta: [("case".to_owned(), "case_03".to_owned())].into(),
            elapsed_s: 12.5,
            stage: "learn/fbdt".to_owned(),
            queries: 100_000,
            queries_per_s: 8_000,
            aig_nodes: 512,
            peak_rss_kb: 20_480,
            outputs_done: 3,
            outputs_total: 8,
            ckpt_writes: 2,
            ckpt_bytes: 9_999,
            degraded_outputs: 0,
            attribution: vec![AttributionRecord {
                stage: "fbdt".to_owned(),
                output: Some(2),
                queries: 60_000,
                query_ns: 3_000_000_000,
                gates: 140,
                by_depth: BTreeMap::new(),
            }],
            done: false,
        }
    }

    #[test]
    fn roundtrips_through_json() {
        let snap = sample();
        let text = snap.to_json().to_pretty();
        let back = StatusSnapshot::parse(&text).expect("parses");
        assert_eq!(back, snap);
    }

    #[test]
    fn tolerates_missing_and_unknown_fields() {
        let back = StatusSnapshot::parse("{\"pid\":7,\"future_field\":[1,2,3]}").expect("parses");
        assert_eq!(back.pid, 7);
        assert_eq!(back.queries, 0);
        assert!(back.attribution.is_empty());
        assert!(!back.done);
    }

    #[test]
    fn render_mentions_the_key_gauges() {
        let text = sample().render();
        assert!(text.contains("case_03"));
        assert!(text.contains("3/8 outputs"));
        assert!(text.contains("100000 queries"));
        assert!(text.contains("8000 q/s"));
        assert!(text.contains("fbdt"));
        assert!(text.contains("ckpt      2 written, 9999 bytes in total"));
        assert!(text.contains('#'), "progress bar renders: {text}");
    }

    #[test]
    fn done_snapshot_renders_as_done() {
        let mut snap = sample();
        snap.done = true;
        assert!(snap.render().contains("done"));
    }

    #[test]
    fn bar_handles_zero_total() {
        assert_eq!(render_bar(0, 0), "");
        assert!(render_bar(5, 5).ends_with(']'));
    }
}
