//! The machine-readable run report.
//!
//! A [`RunReport`] is a snapshot of everything a [`crate::Telemetry`]
//! collected: per-stage wall clock and counter attribution, global
//! counters, optimization pass deltas and per-output results. It serializes to JSON (schema below), so bench
//! harnesses and scripts can read reports without this crate's
//! in-memory types.
//!
//! JSON schema (version 2):
//!
//! ```text
//! {
//!   "schema_version": 2,
//!   "meta":        { "<key>": "<value>", ... },
//!   "elapsed_s":   <f64>,
//!   "counters":    { "<counter>": <u64>, ... },
//!   "histograms":  { "<name>": { "count": <u64>, "sum": <u64>,
//!                                "min": <u64>, "max": <u64>,
//!                                "p50": <u64>, "p90": <u64>,
//!                                "p99": <u64> }, ... },
//!   "stages": [ { "path": "support", "calls": <u64>,
//!                 "elapsed_s": <f64>,
//!                 "counters": { "oracle.queries": <u64>, ... } } ],
//!   "passes": [ { "stage": "optimize", "pass": "rewrite",
//!                 "round": <u64>, "gates_before": <u64>,
//!                 "gates_after": <u64>, "levels_before": <u64>,
//!                 "levels_after": <u64>, "elapsed_s": <f64>,
//!                 "verify_s": <f64> } ],
//!   "outputs": [ { "output": <u64>, "name": "y0",
//!                  "strategy": "fbdt", "support": <u64>,
//!                  "forced_leaves": <u64>, "queries": <u64>,
//!                  "elapsed_s": <f64>, "gates_before_opt": <u64>,
//!                  "gates_after_opt": <u64> } ],
//!   "faults": { "retries": <u64>, "timeouts": <u64>,
//!               "respawns": <u64>, "degraded_outputs": <u64> },
//!   "attribution": [ { "stage": "fbdt", "output": <u64> | null,
//!                      "queries": <u64>, "query_ns": <u64>,
//!                      "gates": <u64>,
//!                      "by_depth": { "<depth>": <u64>, ... } } ]
//! }
//! ```
//!
//! Stage paths are `/`-joined span names; a nested span's activity is
//! attributed both to itself and to every enclosing span, so the
//! *top-level* stages (paths without `/`) partition the run.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::histogram::HistogramSummary;
use crate::json::Json;

/// Current schema version written by [`RunReport::to_json`].
pub const SCHEMA_VERSION: u64 = 2;

/// Aggregated statistics of one stage (one span path).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageReport {
    /// `/`-joined span path, e.g. `"fbdt"` or `"fbdt/cover"`.
    pub path: String,
    /// Number of spans that completed on this path.
    pub calls: u64,
    /// Total wall clock spent inside the path.
    pub elapsed: Duration,
    /// Counter deltas attributed while the path was active.
    pub counters: BTreeMap<String, u64>,
}

/// One optimization pass application.
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// Stage path active when the pass ran.
    pub stage: String,
    /// Pass name (`balance`, `rewrite`, ...).
    pub pass: String,
    /// 1-based script round.
    pub round: u64,
    /// AND-gate count before the pass.
    pub gates_before: u64,
    /// AND-gate count after the pass.
    pub gates_after: u64,
    /// Logic depth before the pass.
    pub levels_before: u64,
    /// Logic depth after the pass.
    pub levels_after: u64,
    /// Wall clock spent in the pass.
    pub elapsed: Duration,
    /// Wall clock spent verifying the pass result (zero when
    /// verification is off).
    pub verify_elapsed: Duration,
}

/// Per-output learning record.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputReport {
    /// Output position.
    pub output: u64,
    /// Output port name.
    pub name: String,
    /// Winning strategy (display form).
    pub strategy: String,
    /// Estimated support size.
    pub support: u64,
    /// Budget-forced leaves.
    pub forced_leaves: u64,
    /// Oracle queries attributed to this output.
    pub queries: u64,
    /// Wall clock attributed to this output.
    pub elapsed: Duration,
    /// Gate count of this output's cone before optimization.
    pub gates_before_opt: u64,
    /// Gate count of this output's cone after optimization.
    pub gates_after_opt: u64,
}

/// Fault-tolerance summary of one run.
///
/// Mirrors the `faults.*` counters (see `counters` in this crate):
/// the counts also appear in the flat counter map, but the dedicated
/// section keeps dashboards and CI assertions independent of counter
/// naming.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultsReport {
    /// Queries retried after a transient oracle fault.
    pub retries: u64,
    /// Queries that hit the watchdog read deadline.
    pub timeouts: u64,
    /// Black-box processes respawned after a fatal fault.
    pub respawns: u64,
    /// Outputs degraded to a baseline circuit.
    pub degraded_outputs: u64,
}

impl FaultsReport {
    /// Whether any fault was observed.
    pub fn any(&self) -> bool {
        self.retries > 0 || self.timeouts > 0 || self.respawns > 0 || self.degraded_outputs > 0
    }
}

/// One cost-ledger cell: the resources attributed to a `(top-level
/// stage, output)` pair.
///
/// Top-level stages partition the run, so summing `queries` over all
/// records yields the run's total oracle query count — the invariant
/// the e2e suite pins against `LearnResult::queries`. `output` is
/// `None` for work not tied to a single output (the shared template
/// matching stage).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttributionRecord {
    /// Top-level stage name (`templates`, `support`, `fbdt`, ...).
    pub stage: String,
    /// Output index the work was for, if any.
    pub output: Option<u64>,
    /// Oracle queries issued under this key.
    pub queries: u64,
    /// Total oracle wall clock (ns) under this key.
    pub query_ns: u64,
    /// AND gates built under this key.
    pub gates: u64,
    /// Queries issued per FBDT depth (empty outside the FBDT).
    pub by_depth: BTreeMap<u64, u64>,
}

impl AttributionRecord {
    /// The cell's `output`, `queries`, `query_ns` and `gates` fields,
    /// in the order the `attr` trace event, the status snapshot and
    /// the run report all write them.
    pub(crate) fn fields(&self) -> [(&'static str, Json); 4] {
        [
            ("output", self.output.map(Json::from).unwrap_or(Json::Null)),
            ("queries", Json::from(self.queries)),
            ("query_ns", Json::from(self.query_ns)),
            ("gates", Json::from(self.gates)),
        ]
    }

    /// The cell as one JSON object: `stage`, then [`fields`], then
    /// `by_depth` when `with_depth` is set (the run report only).
    ///
    /// [`fields`]: AttributionRecord::fields
    pub(crate) fn to_json(&self, with_depth: bool) -> Json {
        let by_depth = with_depth.then(|| {
            let buckets = self
                .by_depth
                .iter()
                .map(|(d, q)| (d.to_string(), Json::from(*q)));
            ("by_depth", Json::Object(buckets.collect()))
        });
        let stage = ("stage", Json::from(self.stage.as_str()));
        Json::object(std::iter::once(stage).chain(self.fields()).chain(by_depth))
    }

    /// Reads a cell back from an `attr` trace line or a status
    /// snapshot entry; missing counts read as zero and `by_depth`
    /// stays empty.
    pub(crate) fn from_json(value: &Json) -> AttributionRecord {
        let u64_of = |key: &str| value.get(key).and_then(Json::as_u64).unwrap_or(0);
        AttributionRecord {
            stage: value
                .get("stage")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            output: value.get("output").and_then(Json::as_u64),
            queries: u64_of("queries"),
            query_ns: u64_of("query_ns"),
            gates: u64_of("gates"),
            by_depth: BTreeMap::new(),
        }
    }
}

/// A full run snapshot; see the `report` module docs for the schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Free-form key/value annotations (case name, seed, ...).
    pub meta: BTreeMap<String, String>,
    /// Wall clock from telemetry creation to snapshot.
    pub elapsed: Duration,
    /// Global monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Latency histogram summaries, keyed by histogram name (see
    /// `histograms` in this crate); empty histograms are omitted.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Per-stage aggregation, sorted by path.
    pub stages: Vec<StageReport>,
    /// Optimization pass deltas, in execution order.
    pub passes: Vec<PassReport>,
    /// Per-output records, in output order.
    pub outputs: Vec<OutputReport>,
    /// Fault-tolerance summary (all zeros for fault-free runs).
    pub faults: FaultsReport,
    /// The per-(stage, output) cost ledger, sorted by stage then
    /// output (empty for runs without oracle activity).
    pub attribution: Vec<AttributionRecord>,
}

impl RunReport {
    /// The stage with the given path, if present.
    pub fn stage(&self, path: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.path == path)
    }

    /// Top-level stages (paths without `/`): these partition the run.
    pub fn top_level_stages(&self) -> impl Iterator<Item = &StageReport> {
        self.stages.iter().filter(|s| !s.path.contains('/'))
    }

    /// Sums a counter over the top-level stages.
    pub fn top_level_counter_sum(&self, counter: &str) -> u64 {
        self.top_level_stages()
            .filter_map(|s| s.counters.get(counter))
            .sum()
    }

    /// A global counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total oracle queries across the attribution ledger. Equal to
    /// the `oracle.queries` counter (and `LearnResult::queries`) by
    /// construction, because top-level stages partition the run.
    pub fn attribution_total_queries(&self) -> u64 {
        self.attribution.iter().map(|a| a.queries).sum()
    }

    /// Sums ledger queries for one top-level stage (over all outputs).
    pub fn attribution_stage_queries(&self, stage: &str) -> u64 {
        self.attribution
            .iter()
            .filter(|a| a.stage == stage)
            .map(|a| a.queries)
            .sum()
    }

    /// Serializes to the versioned JSON schema.
    pub fn to_json(&self) -> Json {
        let counter_obj = |counters: &BTreeMap<String, u64>| {
            Json::Object(
                counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect(),
            )
        };
        Json::object([
            ("schema_version", Json::from(SCHEMA_VERSION)),
            (
                "meta",
                Json::Object(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.clone())))
                        .collect(),
                ),
            ),
            ("elapsed_s", Json::from(self.elapsed.as_secs_f64())),
            ("counters", counter_obj(&self.counters)),
            (
                "histograms",
                Json::Object(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "stages",
                Json::Array(
                    self.stages
                        .iter()
                        .map(|s| {
                            Json::object([
                                ("path", Json::from(s.path.clone())),
                                ("calls", Json::from(s.calls)),
                                ("elapsed_s", Json::from(s.elapsed.as_secs_f64())),
                                ("counters", counter_obj(&s.counters)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "passes",
                Json::Array(
                    self.passes
                        .iter()
                        .map(|p| {
                            Json::object([
                                ("stage", Json::from(p.stage.clone())),
                                ("pass", Json::from(p.pass.clone())),
                                ("round", Json::from(p.round)),
                                ("gates_before", Json::from(p.gates_before)),
                                ("gates_after", Json::from(p.gates_after)),
                                ("levels_before", Json::from(p.levels_before)),
                                ("levels_after", Json::from(p.levels_after)),
                                ("elapsed_s", Json::from(p.elapsed.as_secs_f64())),
                                ("verify_s", Json::from(p.verify_elapsed.as_secs_f64())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "outputs",
                Json::Array(
                    self.outputs
                        .iter()
                        .map(|o| {
                            Json::object([
                                ("output", Json::from(o.output)),
                                ("name", Json::from(o.name.clone())),
                                ("strategy", Json::from(o.strategy.clone())),
                                ("support", Json::from(o.support)),
                                ("forced_leaves", Json::from(o.forced_leaves)),
                                ("queries", Json::from(o.queries)),
                                ("elapsed_s", Json::from(o.elapsed.as_secs_f64())),
                                ("gates_before_opt", Json::from(o.gates_before_opt)),
                                ("gates_after_opt", Json::from(o.gates_after_opt)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "faults",
                Json::object([
                    ("retries", Json::from(self.faults.retries)),
                    ("timeouts", Json::from(self.faults.timeouts)),
                    ("respawns", Json::from(self.faults.respawns)),
                    ("degraded_outputs", Json::from(self.faults.degraded_outputs)),
                ]),
            ),
            (
                "attribution",
                Json::Array(self.attribution.iter().map(|a| a.to_json(true)).collect()),
            ),
        ])
    }

    /// A compact human-readable per-stage breakdown (one line per
    /// top-level stage), for CLI summaries and bench output.
    pub fn stage_breakdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let total_q = self.counter(crate::counters::ORACLE_QUERIES).max(1);
        for s in self.top_level_stages() {
            let q = s
                .counters
                .get(crate::counters::ORACLE_QUERIES)
                .copied()
                .unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<12} {:>8.3}s  {:>12} queries ({:>5.1}%)  x{}",
                s.path,
                s.elapsed.as_secs_f64(),
                q,
                q as f64 * 100.0 / total_q as f64,
                s.calls
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            meta: BTreeMap::from([
                ("case".to_owned(), "case_01".to_owned()),
                ("seed".to_owned(), "117".to_owned()),
            ]),
            elapsed: Duration::from_millis(1500),
            counters: BTreeMap::from([
                ("oracle.queries".to_owned(), 1200),
                ("fbdt.splits".to_owned(), 37),
            ]),
            histograms: BTreeMap::from([(
                crate::histograms::ORACLE_BATCH_NS.to_owned(),
                HistogramSummary {
                    count: 1200,
                    sum: 2_400_000,
                    min: 900,
                    max: 40_000,
                    p50: 1_792,
                    p90: 3_584,
                    p99: 28_672,
                },
            )]),
            stages: vec![
                StageReport {
                    path: "support".to_owned(),
                    calls: 3,
                    elapsed: Duration::from_millis(400),
                    counters: BTreeMap::from([("oracle.queries".to_owned(), 900)]),
                },
                StageReport {
                    path: "fbdt".to_owned(),
                    calls: 2,
                    elapsed: Duration::from_millis(700),
                    counters: BTreeMap::from([("oracle.queries".to_owned(), 300)]),
                },
                StageReport {
                    path: "fbdt/cover".to_owned(),
                    calls: 2,
                    elapsed: Duration::from_millis(100),
                    counters: BTreeMap::new(),
                },
            ],
            passes: vec![PassReport {
                stage: "optimize".to_owned(),
                pass: "rewrite".to_owned(),
                round: 1,
                gates_before: 120,
                gates_after: 95,
                levels_before: 14,
                levels_after: 12,
                elapsed: Duration::from_millis(20),
                verify_elapsed: Duration::from_millis(4),
            }],
            outputs: vec![OutputReport {
                output: 0,
                name: "y0".to_owned(),
                strategy: "fbdt".to_owned(),
                support: 12,
                forced_leaves: 1,
                queries: 640,
                elapsed: Duration::from_millis(900),
                gates_before_opt: 80,
                gates_after_opt: 44,
            }],
            faults: FaultsReport {
                retries: 3,
                timeouts: 1,
                respawns: 2,
                degraded_outputs: 1,
            },
            attribution: vec![
                AttributionRecord {
                    stage: "support".to_owned(),
                    output: Some(0),
                    queries: 900,
                    query_ns: 1_800_000,
                    gates: 0,
                    by_depth: BTreeMap::new(),
                },
                AttributionRecord {
                    stage: "fbdt".to_owned(),
                    output: Some(0),
                    queries: 300,
                    query_ns: 600_000,
                    gates: 80,
                    by_depth: BTreeMap::from([(0, 180), (1, 120)]),
                },
            ],
        }
    }

    #[test]
    fn top_level_sum_ignores_nested_stages() {
        let report = sample_report();
        assert_eq!(report.top_level_counter_sum("oracle.queries"), 1200);
        assert_eq!(report.top_level_stages().count(), 2);
    }

    #[test]
    fn attribution_sums_by_stage_and_in_total() {
        let report = sample_report();
        assert_eq!(report.attribution_total_queries(), 1200);
        assert_eq!(report.attribution_stage_queries("support"), 900);
        assert_eq!(report.attribution_stage_queries("fbdt"), 300);
        assert_eq!(report.attribution_stage_queries("nope"), 0);
    }

    #[test]
    fn breakdown_lists_top_level_stages() {
        let text = sample_report().stage_breakdown();
        assert!(text.contains("support"));
        assert!(text.contains("fbdt"));
        assert!(!text.contains("fbdt/cover"));
    }
}
