//! Schema-versioned benchmark reports (`BENCH_*.json`) and the exact
//! comparison behind `bench compare`.
//!
//! A [`BenchReport`] is the machine-readable output of one harness
//! run: one [`BenchRecord`] per (case, contestant) pair, carrying the
//! contest metrics (size / accuracy / time / queries) plus the
//! latency-histogram summaries the telemetry layer collected during
//! the run. Reports are plain JSON so they can be archived as CI
//! artifacts and diffed across commits.
//!
//! # Schema (version 2)
//!
//! ```text
//! {
//!   "bench_schema_version": 2,
//!   "suite": "table2",            // which harness produced it
//!   "scale": "quick",             // quick | full
//!   "records": [
//!     {
//!       "name": "case_16",
//!       "contestant": "ours",
//!       "wall_s": 0.42,
//!       "queries": 12345,
//!       "gates": 210,
//!       "accuracy": 99.998,       // percent, 0-100
//!       "histograms": {           // name -> HistogramSummary JSON
//!         "oracle.batch_ns": { "count": ..., "p50": ..., ... }
//!       },
//!       "attribution": {          // per-stage cost ledger
//!         "support": { "queries": 9600, "query_ns": 812345, "gates": 0 },
//!         "fbdt":    { "queries": 2745, "query_ns": 230000, "gates": 180 }
//!       }
//!     }
//!   ]
//! }
//! ```
//!
//! Unknown keys are ignored on read so readers tolerate additive
//! extensions; a document of any other schema version is rejected.

use std::collections::BTreeMap;

use cirlearn_telemetry::json::Json;
use cirlearn_telemetry::HistogramSummary;

/// Version stamp written into every BENCH file. Bump on breaking
/// schema changes; additive fields keep the version.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Per-stage cost from the run report's attribution ledger, summed
/// over outputs (BENCH files track stage-level drift; per-output
/// resolution stays in `--report` / trace files).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCost {
    /// Oracle queries attributed to the stage.
    pub queries: u64,
    /// Oracle nanoseconds attributed to the stage.
    pub query_ns: u64,
    /// AND gates built under the stage.
    pub gates: u64,
}

impl StageCost {
    fn to_json(self) -> Json {
        Json::object([
            ("queries", Json::Number(self.queries as f64)),
            ("query_ns", Json::Number(self.query_ns as f64)),
            ("gates", Json::Number(self.gates as f64)),
        ])
    }

    fn from_json(json: &Json) -> StageCost {
        let num = |key: &str| json.get(key).and_then(Json::as_u64).unwrap_or(0);
        StageCost {
            queries: num("queries"),
            query_ns: num("query_ns"),
            gates: num("gates"),
        }
    }
}

/// One benchmark result: the contest metrics of a single (case,
/// contestant) run plus its latency-histogram summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name (e.g. `case_16`, or `case_17/no-preproc` for an
    /// ablated configuration).
    pub name: String,
    /// Which learner produced the result (`ours`, or the baselines
    /// `2nd-(i)` and `2nd-(ii)`).
    pub contestant: String,
    /// Wall-clock seconds spent learning (excludes evaluation).
    pub wall_s: f64,
    /// Oracle queries spent.
    pub queries: u64,
    /// Mapped gate count of the produced circuit.
    pub gates: usize,
    /// Accuracy percentage (0–100) on the contest evaluation mix.
    pub accuracy: f64,
    /// Histogram summaries recorded during the run, keyed by the
    /// telemetry histogram name (see `cirlearn_telemetry::histograms`).
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Per-stage cost attribution (queries, oracle time, gates built),
    /// keyed by top-level stage name, summed over outputs from the run
    /// report's cost ledger.
    pub attribution: BTreeMap<String, StageCost>,
    /// Whether some output's FBDT forced leaves because its query cap,
    /// its node cap or a wall budget ran out. An impure node with no
    /// support variable left to split on is missed support, not
    /// budget, and does not set it. Reported, never gated —
    /// under a query cap a forced leaf falls at the same node on every
    /// run. The workload benchmark also writes this field.
    /// Absent in older documents (parses as `false`).
    pub budget_limited: bool,
}

impl BenchRecord {
    /// Serializes the record into its schema JSON object.
    pub fn to_json(&self) -> Json {
        let mut json = Json::object([
            ("name", Json::Str(self.name.clone())),
            ("contestant", Json::Str(self.contestant.clone())),
            ("wall_s", Json::Number(self.wall_s)),
            ("queries", Json::Number(self.queries as f64)),
            ("gates", Json::Number(self.gates as f64)),
            ("accuracy", Json::Number(self.accuracy)),
            (
                "histograms",
                Json::Object(
                    self.histograms
                        .iter()
                        .map(|(name, h)| (name.clone(), h.to_json()))
                        .collect(),
                ),
            ),
            (
                "attribution",
                Json::Object(
                    self.attribution
                        .iter()
                        .map(|(stage, c)| (stage.clone(), c.to_json()))
                        .collect(),
                ),
            ),
        ]);
        // Additive tag: emitted only when set, so untagged documents
        // stay byte-identical to the pre-tag schema.
        if self.budget_limited {
            if let Json::Object(pairs) = &mut json {
                pairs.push(("budget_limited".to_owned(), Json::Bool(true)));
            }
        }
        json
    }

    /// Parses a record from its schema JSON object.
    pub fn from_json(json: &Json) -> Result<BenchRecord, String> {
        let str_field = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("record is missing string field {key:?}"))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("record is missing numeric field {key:?}"))
        };
        let mut histograms = BTreeMap::new();
        match json.get("histograms") {
            None | Some(Json::Null) => {}
            Some(h) => {
                let pairs = h
                    .as_object()
                    .ok_or_else(|| "histograms must be an object".to_owned())?;
                for (name, value) in pairs {
                    histograms.insert(
                        name.clone(),
                        HistogramSummary::from_json(value)
                            .map_err(|e| format!("histogram {name:?}: {e}"))?,
                    );
                }
            }
        }
        let mut attribution = BTreeMap::new();
        match json.get("attribution") {
            None | Some(Json::Null) => {}
            Some(a) => {
                let pairs = a
                    .as_object()
                    .ok_or_else(|| "attribution must be an object".to_owned())?;
                for (stage, value) in pairs {
                    attribution.insert(stage.clone(), StageCost::from_json(value));
                }
            }
        }
        Ok(BenchRecord {
            name: str_field("name")?,
            contestant: str_field("contestant")?,
            wall_s: num_field("wall_s")?,
            queries: num_field("queries")? as u64,
            gates: num_field("gates")? as usize,
            accuracy: num_field("accuracy")?,
            histograms,
            attribution,
            budget_limited: json
                .get("budget_limited")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }
}

/// A full harness run: suite + scale identification and one record per
/// benchmark executed.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Which suite produced the report (`table2`, `ablation` or
    /// `baselines`).
    pub suite: String,
    /// Effort scale the suite ran at (`quick` or `full`).
    pub scale: String,
    /// Per-benchmark results, in execution order.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// Serializes the report into its schema JSON document.
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "bench_schema_version",
                Json::Number(BENCH_SCHEMA_VERSION as f64),
            ),
            ("suite", Json::Str(self.suite.clone())),
            ("scale", Json::Str(self.scale.clone())),
            (
                "records",
                Json::Array(self.records.iter().map(BenchRecord::to_json).collect()),
            ),
        ])
    }

    /// Parses and validates a report from its schema JSON document.
    ///
    /// Rejects documents with a different `bench_schema_version`;
    /// unknown additional keys are ignored.
    pub fn from_json(json: &Json) -> Result<BenchReport, String> {
        let version = json
            .get("bench_schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing bench_schema_version")?;
        if version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "bench_schema_version {version} is not the supported {BENCH_SCHEMA_VERSION}"
            ));
        }
        let suite = json
            .get("suite")
            .and_then(Json::as_str)
            .ok_or("missing suite")?
            .to_owned();
        let scale = json
            .get("scale")
            .and_then(Json::as_str)
            .ok_or("missing scale")?
            .to_owned();
        let records = json
            .get("records")
            .and_then(Json::as_array)
            .ok_or("missing records array")?
            .iter()
            .enumerate()
            .map(|(i, r)| BenchRecord::from_json(r).map_err(|e| format!("records[{i}]: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            suite,
            scale,
            records,
        })
    }

    /// Parses a report from JSON text (convenience for file loading).
    pub fn from_text(text: &str) -> Result<BenchReport, String> {
        let json = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        BenchReport::from_json(&json)
    }

    /// Finds the record of one (name, contestant) pair.
    pub fn record(&self, name: &str, contestant: &str) -> Option<&BenchRecord> {
        self.records
            .iter()
            .find(|r| r.name == name && r.contestant == contestant)
    }
}

/// One change [`compare`] reports for a benchmark: a regression, or a
/// wall-time move in either direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Benchmark name.
    pub name: String,
    /// Contestant the record belongs to.
    pub contestant: String,
    /// Which metric moved (`queries`, `gates`, `accuracy`, `wall_s`,
    /// or `missing` when the record vanished).
    pub metric: &'static str,
    /// Old (baseline) value.
    pub old: f64,
    /// New value.
    pub new: f64,
}

impl Delta {
    /// Whether the move fails the gate: every delta but a wall-time
    /// one. A single wall sample, possibly from another machine,
    /// cannot be gated.
    pub fn is_regression(&self) -> bool {
        self.metric != "wall_s"
    }
}

impl std::fmt::Display for Delta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.metric == "missing" {
            return write!(
                f,
                "{}/{}: benchmark missing from new report",
                self.name, self.contestant
            );
        }
        write!(
            f,
            "{}/{}: {} {} -> {}",
            self.name, self.contestant, self.metric, self.old, self.new
        )?;
        if self.old > 0.0 {
            write!(f, " ({:+.1}%)", (self.new / self.old - 1.0) * 100.0)?;
        }
        Ok(())
    }
}

/// Diffs two reports exactly: any rise in queries or gates, any drop
/// in accuracy and any benchmark missing from `new` is a regression
/// (see [`Delta::is_regression`]); a wall-time change is returned
/// too, but only to be printed.
///
/// Comparison is keyed by (name, contestant); benchmarks present only
/// in `new` are ignored.
pub fn compare(old: &BenchReport, new: &BenchReport) -> Vec<Delta> {
    let mut deltas = Vec::new();
    for o in &old.records {
        let mut delta = |metric: &'static str, old_v: f64, new_v: f64| {
            deltas.push(Delta {
                name: o.name.clone(),
                contestant: o.contestant.clone(),
                metric,
                old: old_v,
                new: new_v,
            });
        };
        let Some(n) = new.record(&o.name, &o.contestant) else {
            delta("missing", 0.0, 0.0);
            continue;
        };
        if n.queries > o.queries {
            delta("queries", o.queries as f64, n.queries as f64);
        }
        if n.gates > o.gates {
            delta("gates", o.gates as f64, n.gates as f64);
        }
        if n.accuracy < o.accuracy {
            delta("accuracy", o.accuracy, n.accuracy);
        }
        if n.wall_s != o.wall_s {
            delta("wall_s", o.wall_s, n.wall_s);
        }
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(name: &str) -> BenchRecord {
        let mut histograms = BTreeMap::new();
        histograms.insert(
            cirlearn_telemetry::histograms::ORACLE_BATCH_NS.to_owned(),
            HistogramSummary {
                count: 1000,
                sum: 2_000_000,
                min: 800,
                max: 30_000,
                p50: 1_792,
                p90: 3_584,
                p99: 28_672,
            },
        );
        let mut attribution = BTreeMap::new();
        attribution.insert(
            "support".to_owned(),
            StageCost {
                queries: 9_600,
                query_ns: 1_600_000,
                gates: 0,
            },
        );
        attribution.insert(
            "fbdt".to_owned(),
            StageCost {
                queries: 400,
                query_ns: 400_000,
                gates: 280,
            },
        );
        BenchRecord {
            name: name.to_owned(),
            contestant: "ours".to_owned(),
            wall_s: 2.0,
            queries: 10_000,
            gates: 300,
            accuracy: 99.9,
            histograms,
            attribution,
            budget_limited: false,
        }
    }

    fn sample_report() -> BenchReport {
        BenchReport {
            suite: "table2".to_owned(),
            scale: "quick".to_owned(),
            records: vec![sample_record("case_a"), sample_record("case_b")],
        }
    }

    #[test]
    fn json_round_trip_preserves_the_report() {
        let report = sample_report();
        let text = report.to_json().to_pretty();
        let back = BenchReport::from_text(&text).expect("round trip parses");
        assert_eq!(back, report);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut json = sample_report().to_json();
        if let Json::Object(pairs) = &mut json {
            for (k, v) in pairs.iter_mut() {
                if k == "bench_schema_version" {
                    *v = Json::Number(999.0);
                }
            }
        }
        let err = BenchReport::from_json(&json).expect_err("must reject");
        assert!(err.contains("999"), "unexpected error: {err}");
    }

    #[test]
    fn self_compare_is_clean() {
        let report = sample_report();
        let deltas = compare(&report, &report);
        assert!(deltas.is_empty(), "self-compare found {deltas:?}");
    }

    /// The metric names of `compare`'s regressions, in order.
    fn regressed(old: &BenchReport, new: &BenchReport) -> Vec<&'static str> {
        compare(old, new)
            .into_iter()
            .filter(Delta::is_regression)
            .map(|d| d.metric)
            .collect()
    }

    #[test]
    fn one_query_one_gate_and_a_thousandth_point_are_flagged() {
        let old = sample_report();
        let mut new = sample_report();
        new.records[0].queries += 1;
        new.records[0].gates += 1;
        new.records[1].accuracy -= 0.001;
        assert_eq!(regressed(&old, &new), ["queries", "gates", "accuracy"]);
        // Fewer queries or gates and more accuracy are no regression.
        assert!(regressed(&new, &old).is_empty());
    }

    #[test]
    fn wall_slowdown_is_reported_but_not_a_regression() {
        let old = sample_report();
        let mut new = sample_report();
        new.records[0].wall_s *= 3.0;
        let deltas = compare(&old, &new);
        assert_eq!(deltas.len(), 1, "got {deltas:?}");
        assert_eq!((deltas[0].metric, deltas[0].new), ("wall_s", 6.0));
        assert!(!deltas[0].is_regression());
        assert!(deltas[0].to_string().contains("+200.0%"), "{}", deltas[0]);
    }

    #[test]
    fn budget_limited_records_are_gated_like_any_other() {
        let mut old = sample_report();
        old.records[0].budget_limited = true;
        let mut new = old.clone();
        new.records[0].queries += 1;
        new.records[0].gates += 1;
        new.records[0].accuracy -= 0.001;
        assert_eq!(regressed(&old, &new), ["queries", "gates", "accuracy"]);
    }

    #[test]
    fn missing_record_is_flagged() {
        let old = sample_report();
        let mut new = sample_report();
        new.records.remove(0);
        assert_eq!(regressed(&old, &new), ["missing"]);
        let missing = &compare(&old, &new)[0];
        assert_eq!(
            missing.to_string(),
            "case_a/ours: benchmark missing from new report"
        );
    }

    #[test]
    fn accuracy_drop_and_missing_benchmark_are_flagged() {
        let old = sample_report();
        let mut new = sample_report();
        new.records[0].accuracy -= 5.0;
        new.records.remove(1);
        assert_eq!(regressed(&old, &new), ["accuracy", "missing"]);
    }

    #[test]
    fn attribution_round_trips_and_sums_to_queries() {
        let record = sample_record("case_a");
        let total: u64 = record.attribution.values().map(|c| c.queries).sum();
        assert_eq!(total, record.queries);
        let back = BenchRecord::from_json(&record.to_json()).expect("parses");
        assert_eq!(back.attribution, record.attribution);
    }

    #[test]
    fn budget_limited_tag_round_trips_and_defaults_to_false() {
        let mut record = sample_record("case_9");
        record.budget_limited = true;
        let text = record.to_json().to_pretty();
        assert!(text.contains("\"budget_limited\": true"));
        let back = BenchRecord::from_json(&Json::parse(&text).unwrap()).expect("parses");
        assert!(back.budget_limited);
        // Untagged records omit the key entirely and parse as false.
        let plain = sample_record("case_a");
        let text = plain.to_json().to_pretty();
        assert!(!text.contains("budget_limited"));
        let back = BenchRecord::from_json(&Json::parse(&text).unwrap()).expect("parses");
        assert!(!back.budget_limited);
    }

    #[test]
    fn records_with_the_retired_single_query_histogram_still_parse() {
        // Baselines written before single queries were recorded as
        // batches of one carry `oracle.query_ns`.
        let mut record = sample_record("case_a");
        let summary = *record.histograms.values().next().expect("sample");
        record
            .histograms
            .insert("oracle.query_ns".to_owned(), summary);
        let back = BenchRecord::from_json(&record.to_json()).expect("parses");
        assert_eq!(back.histograms, record.histograms);
    }

    #[test]
    fn tolerates_missing_histograms_section() {
        let mut json = sample_record("case_a").to_json();
        if let Json::Object(pairs) = &mut json {
            pairs.retain(|(k, _)| k != "histograms");
        }
        let record = BenchRecord::from_json(&json).expect("parses without histograms");
        assert!(record.histograms.is_empty());
    }
}
