//! The machine-readable run report.
//!
//! A [`RunReport`] is a snapshot of everything a [`crate::Telemetry`]
//! collected: per-stage wall clock and counter attribution, global
//! counters, optimization pass deltas, budget checkpoints and
//! per-output results. It serializes to JSON (schema below) and parses
//! back, so bench harnesses can consume reports without this crate's
//! in-memory types.
//!
//! JSON schema (version 1):
//!
//! ```text
//! {
//!   "schema_version": 1,
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
//!   "checkpoints": [ { "stage": "support", "at_s": <f64>,
//!                      "remaining_s": <f64> | null } ],
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
pub const SCHEMA_VERSION: u64 = 1;

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

/// One budget checkpoint observation.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointReport {
    /// Stage label passed to the checkpoint.
    pub stage: String,
    /// Elapsed budget time at the checkpoint.
    pub at: Duration,
    /// Remaining budget; `None` for unlimited budgets.
    pub remaining: Option<Duration>,
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
/// naming. Reports written before the fault-tolerance subsystem lack
/// the section; parsing tolerates its absence (all zeros).
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

    /// Derives the summary from a counter map.
    pub fn from_counters(counters: &BTreeMap<String, u64>) -> Self {
        let get = |name: &str| counters.get(name).copied().unwrap_or(0);
        FaultsReport {
            retries: get(crate::counters::FAULT_RETRIES),
            timeouts: get(crate::counters::FAULT_TIMEOUTS),
            respawns: get(crate::counters::FAULT_RESPAWNS),
            degraded_outputs: get(crate::counters::FAULT_DEGRADED_OUTPUTS),
        }
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
    /// Budget checkpoints, in execution order.
    pub checkpoints: Vec<CheckpointReport>,
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
                "checkpoints",
                Json::Array(
                    self.checkpoints
                        .iter()
                        .map(|c| {
                            Json::object([
                                ("stage", Json::from(c.stage.clone())),
                                ("at_s", Json::from(c.at.as_secs_f64())),
                                (
                                    "remaining_s",
                                    match c.remaining {
                                        Some(r) => Json::from(r.as_secs_f64()),
                                        None => Json::Null,
                                    },
                                ),
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
                Json::Array(
                    self.attribution
                        .iter()
                        .map(|a| {
                            Json::object([
                                ("stage", Json::from(a.stage.clone())),
                                ("output", a.output.map(Json::from).unwrap_or(Json::Null)),
                                ("queries", Json::from(a.queries)),
                                ("query_ns", Json::from(a.query_ns)),
                                ("gates", Json::from(a.gates)),
                                (
                                    "by_depth",
                                    Json::Object(
                                        a.by_depth
                                            .iter()
                                            .map(|(d, q)| (d.to_string(), Json::from(*q)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Reconstructs a report from its JSON form.
    pub fn from_json(json: &Json) -> Result<RunReport, String> {
        let version = json
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            ));
        }
        let counters_of = |j: &Json| -> Result<BTreeMap<String, u64>, String> {
            j.as_object()
                .ok_or("counters must be an object")?
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("counter {k} is not a u64"))
                })
                .collect()
        };
        let duration_of = |j: &Json, what: &str| -> Result<Duration, String> {
            j.as_f64()
                .filter(|s| *s >= 0.0)
                .map(Duration::from_secs_f64)
                .ok_or_else(|| format!("{what} is not a non-negative number"))
        };
        let str_of = |j: Option<&Json>, what: &str| -> Result<String, String> {
            j.and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string field {what}"))
        };
        let u64_of = |j: Option<&Json>, what: &str| -> Result<u64, String> {
            j.and_then(Json::as_u64)
                .ok_or_else(|| format!("missing u64 field {what}"))
        };

        let meta = json
            .get("meta")
            .and_then(Json::as_object)
            .ok_or("missing meta")?
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|v| (k.clone(), v.to_owned()))
                    .ok_or_else(|| format!("meta {k} is not a string"))
            })
            .collect::<Result<_, _>>()?;
        let elapsed = duration_of(
            json.get("elapsed_s").ok_or("missing elapsed_s")?,
            "elapsed_s",
        )?;
        let counters = counters_of(json.get("counters").ok_or("missing counters")?)?;

        // Absent in reports written before the performance
        // observability layer; treat as empty rather than rejecting.
        let histograms = match json.get("histograms") {
            None | Some(Json::Null) => BTreeMap::new(),
            Some(h) => h
                .as_object()
                .ok_or("histograms must be an object")?
                .iter()
                .map(|(k, v)| {
                    HistogramSummary::from_json(v)
                        .map(|s| (k.clone(), s))
                        .map_err(|e| format!("histogram {k}: {e}"))
                })
                .collect::<Result<_, _>>()?,
        };

        let stages = json
            .get("stages")
            .and_then(Json::as_array)
            .ok_or("missing stages")?
            .iter()
            .map(|s| {
                Ok(StageReport {
                    path: str_of(s.get("path"), "stage.path")?,
                    calls: u64_of(s.get("calls"), "stage.calls")?,
                    elapsed: duration_of(
                        s.get("elapsed_s").ok_or("missing stage.elapsed_s")?,
                        "stage.elapsed_s",
                    )?,
                    counters: counters_of(s.get("counters").ok_or("missing stage.counters")?)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        let passes = json
            .get("passes")
            .and_then(Json::as_array)
            .ok_or("missing passes")?
            .iter()
            .map(|p| {
                Ok(PassReport {
                    stage: str_of(p.get("stage"), "pass.stage")?,
                    pass: str_of(p.get("pass"), "pass.pass")?,
                    round: u64_of(p.get("round"), "pass.round")?,
                    gates_before: u64_of(p.get("gates_before"), "pass.gates_before")?,
                    gates_after: u64_of(p.get("gates_after"), "pass.gates_after")?,
                    levels_before: u64_of(p.get("levels_before"), "pass.levels_before")?,
                    levels_after: u64_of(p.get("levels_after"), "pass.levels_after")?,
                    elapsed: duration_of(
                        p.get("elapsed_s").ok_or("missing pass.elapsed_s")?,
                        "pass.elapsed_s",
                    )?,
                    // Absent in reports written before verification
                    // existed; treat as zero rather than rejecting.
                    verify_elapsed: match p.get("verify_s") {
                        None | Some(Json::Null) => Duration::ZERO,
                        Some(j) => duration_of(j, "pass.verify_s")?,
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        let checkpoints = json
            .get("checkpoints")
            .and_then(Json::as_array)
            .ok_or("missing checkpoints")?
            .iter()
            .map(|c| {
                let remaining = match c.get("remaining_s") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(duration_of(j, "checkpoint.remaining_s")?),
                };
                Ok(CheckpointReport {
                    stage: str_of(c.get("stage"), "checkpoint.stage")?,
                    at: duration_of(c.get("at_s").ok_or("missing checkpoint.at_s")?, "at_s")?,
                    remaining,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        let outputs = json
            .get("outputs")
            .and_then(Json::as_array)
            .ok_or("missing outputs")?
            .iter()
            .map(|o| {
                Ok(OutputReport {
                    output: u64_of(o.get("output"), "output.output")?,
                    name: str_of(o.get("name"), "output.name")?,
                    strategy: str_of(o.get("strategy"), "output.strategy")?,
                    support: u64_of(o.get("support"), "output.support")?,
                    forced_leaves: u64_of(o.get("forced_leaves"), "output.forced_leaves")?,
                    queries: u64_of(o.get("queries"), "output.queries")?,
                    elapsed: duration_of(
                        o.get("elapsed_s").ok_or("missing output.elapsed_s")?,
                        "output.elapsed_s",
                    )?,
                    gates_before_opt: u64_of(o.get("gates_before_opt"), "gates_before_opt")?,
                    gates_after_opt: u64_of(o.get("gates_after_opt"), "gates_after_opt")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        // Absent in reports written before the fault-tolerance
        // subsystem existed; treat as all-zero rather than rejecting.
        let faults = match json.get("faults") {
            None | Some(Json::Null) => FaultsReport::default(),
            Some(f) => FaultsReport {
                retries: u64_of(f.get("retries"), "faults.retries")?,
                timeouts: u64_of(f.get("timeouts"), "faults.timeouts")?,
                respawns: u64_of(f.get("respawns"), "faults.respawns")?,
                degraded_outputs: u64_of(f.get("degraded_outputs"), "faults.degraded_outputs")?,
            },
        };

        // Absent in reports written before the cost-attribution layer
        // existed; treat as empty rather than rejecting.
        let attribution = match json.get("attribution") {
            None | Some(Json::Null) => Vec::new(),
            Some(a) => a
                .as_array()
                .ok_or("attribution must be an array")?
                .iter()
                .map(|r| {
                    let output = match r.get("output") {
                        None | Some(Json::Null) => None,
                        Some(j) => Some(j.as_u64().ok_or("attribution.output is not a u64")?),
                    };
                    let by_depth = match r.get("by_depth") {
                        None | Some(Json::Null) => BTreeMap::new(),
                        Some(d) => d
                            .as_object()
                            .ok_or("attribution.by_depth must be an object")?
                            .iter()
                            .map(|(k, v)| {
                                let depth =
                                    k.parse::<u64>().map_err(|_| format!("bad depth key {k}"))?;
                                let q = v.as_u64().ok_or_else(|| {
                                    format!("attribution.by_depth[{k}] is not a u64")
                                })?;
                                Ok::<_, String>((depth, q))
                            })
                            .collect::<Result<_, _>>()?,
                    };
                    Ok(AttributionRecord {
                        stage: str_of(r.get("stage"), "attribution.stage")?,
                        output,
                        queries: u64_of(r.get("queries"), "attribution.queries")?,
                        query_ns: u64_of(r.get("query_ns"), "attribution.query_ns")?,
                        gates: u64_of(r.get("gates"), "attribution.gates")?,
                        by_depth,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
        };

        Ok(RunReport {
            meta,
            elapsed,
            counters,
            histograms,
            stages,
            passes,
            checkpoints,
            outputs,
            faults,
            attribution,
        })
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
            checkpoints: vec![
                CheckpointReport {
                    stage: "support".to_owned(),
                    at: Duration::from_millis(400),
                    remaining: Some(Duration::from_millis(2300)),
                },
                CheckpointReport {
                    stage: "fbdt".to_owned(),
                    at: Duration::from_millis(1100),
                    remaining: None,
                },
            ],
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
    fn json_roundtrip_preserves_report() {
        let report = sample_report();
        let text = report.to_json().to_pretty();
        let parsed = crate::json::Json::parse(&text).expect("valid JSON");
        let back = RunReport::from_json(&parsed).expect("valid schema");
        assert_eq!(back, report);
    }

    #[test]
    fn top_level_sum_ignores_nested_stages() {
        let report = sample_report();
        assert_eq!(report.top_level_counter_sum("oracle.queries"), 1200);
        assert_eq!(report.top_level_stages().count(), 2);
    }

    #[test]
    fn from_json_tolerates_missing_verify_time() {
        // Reports from before the verification subsystem lack
        // "verify_s"; they must still parse, defaulting to zero.
        let mut json = sample_report().to_json();
        if let Json::Object(pairs) = &mut json {
            for (key, value) in pairs.iter_mut() {
                if key != "passes" {
                    continue;
                }
                if let Json::Array(passes) = value {
                    for p in passes {
                        if let Json::Object(fields) = p {
                            fields.retain(|(k, _)| k != "verify_s");
                        }
                    }
                }
            }
        }
        let back = RunReport::from_json(&json).expect("tolerant schema");
        assert_eq!(back.passes[0].verify_elapsed, Duration::ZERO);
    }

    #[test]
    fn from_json_tolerates_missing_histograms_section() {
        // Reports from before the performance observability layer lack
        // "histograms"; they must still parse, defaulting to empty.
        let mut json = sample_report().to_json();
        if let Json::Object(pairs) = &mut json {
            pairs.retain(|(k, _)| k != "histograms");
        }
        let back = RunReport::from_json(&json).expect("tolerant schema");
        assert!(back.histograms.is_empty());
    }

    #[test]
    fn from_json_tolerates_missing_faults_section() {
        // Reports from before the fault-tolerance subsystem lack
        // "faults"; they must still parse, defaulting to all zeros.
        let mut json = sample_report().to_json();
        if let Json::Object(pairs) = &mut json {
            pairs.retain(|(k, _)| k != "faults");
        }
        let back = RunReport::from_json(&json).expect("tolerant schema");
        assert_eq!(back.faults, FaultsReport::default());
        assert!(!back.faults.any());
    }

    #[test]
    fn from_json_tolerates_missing_attribution_section() {
        // Reports from before the cost-attribution layer lack
        // "attribution"; they must still parse, defaulting to empty.
        let mut json = sample_report().to_json();
        if let Json::Object(pairs) = &mut json {
            pairs.retain(|(k, _)| k != "attribution");
        }
        let back = RunReport::from_json(&json).expect("tolerant schema");
        assert!(back.attribution.is_empty());
        assert_eq!(back.attribution_total_queries(), 0);
    }

    #[test]
    fn from_json_ignores_a_legacy_exec_section() {
        // Older reports carry an "exec" section of executor counters;
        // they must still parse, with the section ignored.
        let report = sample_report();
        let mut json = report.to_json();
        if let Json::Object(pairs) = &mut json {
            let at = pairs
                .iter()
                .position(|(k, _)| k == "attribution")
                .expect("the sample report has an attribution section");
            pairs.insert(
                at,
                (
                    "exec".to_owned(),
                    Json::object([
                        ("pushes", Json::from(5_000u64)),
                        ("pops", Json::from(4_200u64)),
                        ("steals", Json::from(800u64)),
                        ("steal_empty", Json::from(90u64)),
                        ("steal_retry", Json::from(12u64)),
                        ("depth_max", Json::from(64u64)),
                        ("workers", Json::from(4u64)),
                    ]),
                ),
            );
        }
        let back = RunReport::from_json(&json).expect("tolerant schema");
        assert_eq!(back, report);
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
    fn faults_derive_from_counters() {
        let counters = BTreeMap::from([
            (crate::counters::FAULT_RETRIES.to_owned(), 5),
            (crate::counters::FAULT_RESPAWNS.to_owned(), 2),
        ]);
        let faults = FaultsReport::from_counters(&counters);
        assert_eq!(faults.retries, 5);
        assert_eq!(faults.respawns, 2);
        assert_eq!(faults.timeouts, 0);
        assert!(faults.any());
    }

    #[test]
    fn from_json_rejects_wrong_version() {
        let mut json = sample_report().to_json();
        if let Json::Object(pairs) = &mut json {
            pairs[0].1 = Json::from(99u64);
        }
        assert!(RunReport::from_json(&json).is_err());
    }

    #[test]
    fn breakdown_lists_top_level_stages() {
        let text = sample_report().stage_breakdown();
        assert!(text.contains("support"));
        assert!(text.contains("fbdt"));
        assert!(!text.contains("fbdt/cover"));
    }
}
