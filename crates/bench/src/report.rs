//! Schema-versioned benchmark reports (`BENCH_*.json`) and the
//! regression comparison behind `bench compare`.
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
//!   "scale": "quick",             // smoke | quick | full
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
//!       "attribution": {          // version 2: per-stage cost ledger
//!         "support": { "queries": 9600, "query_ns": 812345, "gates": 0 },
//!         "fbdt":    { "queries": 2745, "query_ns": 230000, "gates": 180 }
//!       }
//!     }
//!   ]
//! }
//! ```
//!
//! Unknown keys are ignored on read so readers tolerate additive
//! extensions. Version 2 added the per-stage `attribution` section
//! (summed over outputs from the run report's cost ledger); version-1
//! documents still parse — the section just comes back empty — while
//! any other version is rejected.

use std::collections::BTreeMap;

use cirlearn_telemetry::json::Json;
use cirlearn_telemetry::HistogramSummary;

/// Version stamp written into every BENCH file. Bump on breaking
/// schema changes; additive fields keep the version.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Older schema versions [`BenchReport::from_json`] still accepts
/// (version 2 only added the `attribution` section, so version-1
/// documents parse unchanged).
pub const BENCH_COMPAT_VERSIONS: &[u64] = &[1, BENCH_SCHEMA_VERSION];

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
    /// Which learner produced the result (e.g. `ours`).
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
    /// keyed by top-level stage name. Empty for version-1 documents.
    pub attribution: BTreeMap<String, StageCost>,
    /// Whether the run stopped on the scale's wall-clock budget rather
    /// than finishing naturally. Budget-limited cases (quick scale:
    /// case_9, case_14) stop the FBDT at a machine-speed-dependent
    /// node, so their query/gate counts drift far beyond the default
    /// noise floors — [`compare`] widens the floors to
    /// [`CompareConfig::budget_min_queries`] /
    /// [`CompareConfig::budget_min_gates`] when either side is tagged.
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
    /// Which suite produced the report (`table2` or `ablation`).
    pub suite: String,
    /// Effort scale the suite ran at (`smoke`, `quick` or `full`).
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
        if !BENCH_COMPAT_VERSIONS.contains(&version) {
            return Err(format!(
                "bench_schema_version {version} is not one of the supported {BENCH_COMPAT_VERSIONS:?}"
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

/// Thresholds for [`compare`].
///
/// Cost metrics (wall time, queries, gates) regress when the new value
/// exceeds the old by more than `pct_threshold` percent *and* clears a
/// per-metric absolute noise floor, so sub-noise jitter on trivially
/// cheap benchmarks does not trip the gate. Accuracy regresses on an
/// absolute drop of more than `accuracy_drop` percentage points.
#[derive(Debug, Clone)]
pub struct CompareConfig {
    /// Relative increase (percent) tolerated on wall time, queries and
    /// gates before flagging a regression.
    pub pct_threshold: f64,
    /// Absolute accuracy drop (percentage points) tolerated.
    pub accuracy_drop: f64,
    /// Wall-time noise floor: increases below this many seconds never
    /// regress, whatever the ratio.
    pub min_wall_s: f64,
    /// Query-count noise floor: increases below this many queries never
    /// regress. The learner is seeded — a back-to-back A/B of the same
    /// binary at quick scale reproduces 17/20 table2 cases bit-for-bit
    /// — but query counts drift wherever control flow consults the
    /// wall clock: on the two cases that run into the quick-scale time
    /// budget (case_9 and case_14, ~14–15 s wall) the FBDT stops at a
    /// machine-speed-dependent node, shifting tens to hundreds of
    /// thousands of queries in either direction. This floor absorbs
    /// sub-node jitter on cheap cases; budget-limited cases need the
    /// relative threshold (their drift is large but so are their
    /// totals — case_14's observed 556 k-query swing was 21 %, under
    /// the default 25 % gate).
    pub min_queries: f64,
    /// Gate-count noise floor: increases below this many mapped gates
    /// never regress. Covers small budget-timing drift (one extra
    /// forced leaf adds a handful of gates) without masking real size
    /// regressions. Budget-limited cases can still trip this gate
    /// legitimately rarely (case_9 once drifted +800 gates, +47 %);
    /// re-run before trusting a gate regression on a case whose wall
    /// time sits at the scale's budget.
    pub min_gates: f64,
    /// Query floor used in place of [`CompareConfig::min_queries`]
    /// when either record is tagged [`BenchRecord::budget_limited`].
    /// Sized from observed drift: case_14's largest same-binary A/B
    /// swing was 556 k queries, so the default floor sits above it.
    pub budget_min_queries: f64,
    /// Gate floor used in place of [`CompareConfig::min_gates`] when
    /// either record is tagged [`BenchRecord::budget_limited`].
    /// Case_9 once drifted +800 gates (+47 %), and a later same-binary
    /// A/B produced a 1 397-gate swing (1 674 → 3 071), purely from
    /// where the budget cut the FBDT; the default floor absorbs that
    /// class of jitter while still catching order-of-magnitude
    /// blowups.
    pub budget_min_gates: f64,
    /// Accuracy drop (percentage points) tolerated in place of
    /// [`CompareConfig::accuracy_drop`] when either record is tagged
    /// [`BenchRecord::budget_limited`]. Accuracy on budget-limited
    /// cases is not monotone in work done: same-binary A/B runs of
    /// case_9 landed at 77.9 / 77.2 / 75.9 % against a 79.5 %
    /// baseline (a 3.6-point spread with *more* queries on the lower
    /// scores). The default absorbs that band; a genuine collapse
    /// still trips it.
    pub budget_accuracy_drop: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            pct_threshold: 25.0,
            accuracy_drop: 0.5,
            min_wall_s: 0.25,
            min_queries: 200.0,
            min_gates: 8.0,
            budget_min_queries: 600_000.0,
            budget_min_gates: 2_000.0,
            budget_accuracy_drop: 5.0,
        }
    }
}

/// One regression found by [`compare`]: a metric of one benchmark got
/// meaningfully worse (or the benchmark disappeared entirely).
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Benchmark name.
    pub name: String,
    /// Contestant the record belongs to.
    pub contestant: String,
    /// Which metric regressed (`wall_s`, `queries`, `gates`,
    /// `accuracy`, or `missing` when the record vanished).
    pub metric: String,
    /// Old (baseline) value.
    pub old: f64,
    /// New value.
    pub new: f64,
}

impl std::fmt::Display for Regression {
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
            "{}/{}: {} regressed {} -> {}",
            self.name, self.contestant, self.metric, self.old, self.new
        )?;
        if self.old > 0.0 {
            write!(f, " ({:+.1}%)", (self.new / self.old - 1.0) * 100.0)?;
        }
        Ok(())
    }
}

/// Diffs two reports and returns every regression of `new` relative to
/// `old` under `cfg`'s thresholds.
///
/// Comparison is keyed by (name, contestant); benchmarks present only
/// in `new` are improvements by definition and ignored, benchmarks
/// present only in `old` are reported as `missing` regressions.
pub fn compare(old: &BenchReport, new: &BenchReport, cfg: &CompareConfig) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for o in &old.records {
        let Some(n) = new.record(&o.name, &o.contestant) else {
            regressions.push(Regression {
                name: o.name.clone(),
                contestant: o.contestant.clone(),
                metric: "missing".to_owned(),
                old: 0.0,
                new: 0.0,
            });
            continue;
        };
        let factor = 1.0 + cfg.pct_threshold / 100.0;
        let mut worse = |metric: &str, old_v: f64, new_v: f64, floor: f64| {
            if new_v > old_v * factor && new_v - old_v > floor {
                regressions.push(Regression {
                    name: o.name.clone(),
                    contestant: o.contestant.clone(),
                    metric: metric.to_owned(),
                    old: old_v,
                    new: new_v,
                });
            }
        };
        // Budget-limited runs stop the FBDT at a machine-speed-
        // dependent node, so their query/gate drift dwarfs the normal
        // noise floors; the tag (on either side — a case can cross
        // the budget line between commits) selects the wider ones.
        let limited = o.budget_limited || n.budget_limited;
        let (q_floor, g_floor, acc_drop) = if limited {
            (
                cfg.budget_min_queries,
                cfg.budget_min_gates,
                cfg.budget_accuracy_drop,
            )
        } else {
            (cfg.min_queries, cfg.min_gates, cfg.accuracy_drop)
        };
        worse("wall_s", o.wall_s, n.wall_s, cfg.min_wall_s);
        // Integer metrics: the configured absolute floors keep one-off
        // timing drift on tiny benchmarks from tripping the
        // percentage gate (see the CompareConfig field docs).
        worse("queries", o.queries as f64, n.queries as f64, q_floor);
        worse("gates", o.gates as f64, n.gates as f64, g_floor);
        if o.accuracy - n.accuracy > acc_drop {
            regressions.push(Regression {
                name: o.name.clone(),
                contestant: o.contestant.clone(),
                metric: "accuracy".to_owned(),
                old: o.accuracy,
                new: n.accuracy,
            });
        }
    }
    regressions
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
        let regressions = compare(&report, &report, &CompareConfig::default());
        assert!(regressions.is_empty(), "self-compare found {regressions:?}");
    }

    #[test]
    fn injected_twofold_slowdown_is_flagged() {
        let old = sample_report();
        let mut new = sample_report();
        new.records[0].wall_s *= 2.0;
        let regressions = compare(&old, &new, &CompareConfig::default());
        assert_eq!(regressions.len(), 1, "got {regressions:?}");
        assert_eq!(regressions[0].metric, "wall_s");
        assert_eq!(regressions[0].name, "case_a");
    }

    #[test]
    fn slowdown_under_the_noise_floor_is_ignored() {
        let mut old = sample_report();
        let mut new = sample_report();
        // 3x slower, but only by 100ms — below the 250ms floor.
        old.records[0].wall_s = 0.05;
        new.records[0].wall_s = 0.15;
        old.records[1].wall_s = 0.05;
        new.records[1].wall_s = 0.15;
        let regressions = compare(&old, &new, &CompareConfig::default());
        assert!(regressions.is_empty(), "got {regressions:?}");
    }

    #[test]
    fn accuracy_drop_and_missing_benchmark_are_flagged() {
        let old = sample_report();
        let mut new = sample_report();
        new.records[0].accuracy -= 5.0;
        new.records.remove(1);
        let regressions = compare(&old, &new, &CompareConfig::default());
        let metrics: Vec<&str> = regressions.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(metrics, ["accuracy", "missing"], "got {regressions:?}");
    }

    #[test]
    fn query_and_gate_growth_is_flagged_beyond_the_floor() {
        let old = sample_report();
        let mut new = sample_report();
        new.records[0].queries = 20_000;
        new.records[1].gates = 600;
        let regressions = compare(&old, &new, &CompareConfig::default());
        let metrics: Vec<&str> = regressions.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(metrics, ["queries", "gates"], "got {regressions:?}");
    }

    #[test]
    fn version_1_documents_still_parse_without_attribution() {
        let mut json = sample_report().to_json();
        if let Json::Object(pairs) = &mut json {
            for (k, v) in pairs.iter_mut() {
                if k == "bench_schema_version" {
                    *v = Json::Number(1.0);
                }
            }
        }
        // Strip the v2 section to mimic a genuine v1 file.
        let text = json.to_pretty();
        let report = BenchReport::from_text(&text).expect("v1 must stay readable");
        assert_eq!(report.records.len(), 2);
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
    fn noise_floors_are_configurable() {
        let old = sample_report();
        let mut new = sample_report();
        // +150 queries clears a 1% threshold but not the 200 floor…
        new.records[0].queries = old.records[0].queries + 150;
        let strict_pct = CompareConfig {
            pct_threshold: 1.0,
            ..CompareConfig::default()
        };
        assert!(compare(&old, &new, &strict_pct)
            .iter()
            .all(|r| r.metric != "queries"));
        // …and flags once the floor is tightened below the delta.
        let tight = CompareConfig {
            min_queries: 100.0,
            ..strict_pct
        };
        let regressions = compare(&old, &new, &tight);
        assert!(
            regressions.iter().any(|r| r.metric == "queries"),
            "got {regressions:?}"
        );
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
    fn budget_limited_records_get_the_wider_noise_floors() {
        let mut old = sample_report();
        let mut new = sample_report();
        // Realistic budget-limited magnitudes: the drift clears the
        // percentage gate and the default floors, but stays under the
        // budget floors.
        old.records[0].queries = 2_600_000;
        new.records[0].queries = 3_156_000; // +556k, +21% — case_14's observed swing
        old.records[0].gates = 1_700;
        new.records[0].gates = 3_100; // +1400, +82% — case_9's observed A/B swing
        old.records[0].accuracy = 79.5;
        new.records[0].accuracy = 75.9; // −3.6 points — case_9's observed swing
        let cfg = CompareConfig {
            pct_threshold: 15.0,
            ..CompareConfig::default()
        };
        // Untagged, the same drift is a regression on both metrics…
        let metrics: Vec<String> = compare(&old, &new, &cfg)
            .into_iter()
            .map(|r| r.metric)
            .collect();
        assert_eq!(
            metrics,
            ["queries", "gates", "accuracy"],
            "untagged drift must trip"
        );
        // …and the tag (on either side) absorbs it.
        old.records[0].budget_limited = true;
        assert!(compare(&old, &new, &cfg).is_empty(), "old-side tag");
        old.records[0].budget_limited = false;
        new.records[0].budget_limited = true;
        assert!(compare(&old, &new, &cfg).is_empty(), "new-side tag");
        // The widened floor is still a floor, not a blank check.
        new.records[0].queries = 30_000_000;
        let metrics: Vec<String> = compare(&old, &new, &cfg)
            .into_iter()
            .map(|r| r.metric)
            .collect();
        assert_eq!(
            metrics,
            ["queries"],
            "order-of-magnitude blowups still trip"
        );
        // A genuine accuracy collapse also trips through the widened
        // tolerance.
        new.records[0].queries = 3_156_000;
        new.records[0].accuracy = 40.0;
        let metrics: Vec<String> = compare(&old, &new, &cfg)
            .into_iter()
            .map(|r| r.metric)
            .collect();
        assert_eq!(metrics, ["accuracy"], "collapses still trip when tagged");
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
