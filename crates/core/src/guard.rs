//! Fault isolation between the learner and a fallible oracle.
//!
//! The learning pipeline's inner loops (sampling, FBDT expansion,
//! template validation) call the infallible adapters
//! [`Oracle::query_batch`] and [`Oracle::query`] — threading `Result`
//! through every cofactor split would contort the algorithms for a
//! condition that is terminal anyway: by the time an error escapes a
//! [`ResilientOracle`](cirlearn_oracle::ResilientOracle) the transport
//! is beyond recovery.
//!
//! [`OracleGuard`] bridges the two worlds. Its
//! [`Oracle::try_query_batch`] forwards to the inner oracle's and never
//! fails: on the first error it latches the failure and serves
//! constant-false fallback answers (without touching the dead
//! transport again), so the adapters never panic and the pipeline runs
//! to completion at full speed. The [`Learner`](crate::Learner) checks
//! [`OracleGuard::failed`] at output boundaries and degrades any output
//! whose learning overlapped the failure, instead of trusting circuits
//! built from fallback answers.

use std::time::Instant;

use cirlearn_logic::Assignment;
use cirlearn_oracle::{Oracle, OracleError};
use cirlearn_telemetry::{Hist, Telemetry};

/// A fail-fast adapter: fallible queries in, infallible answers out,
/// with the first failure latched for the learner to inspect.
///
/// Every batch the inner oracle answers is counted and timed into the
/// guard's [`Telemetry`] handle. Queries are bumped on the
/// `oracle.queries` counter as they are served (via
/// [`Telemetry::record_oracle_queries`]), so stage spans open in the
/// learner attribute them to the pipeline stage that issued them — the
/// run report's per-stage query breakdown and the total query count
/// agree by construction. The same call feeds the per-(stage, output)
/// cost ledger: queries are tagged with whatever attribution context
/// (output scope, FBDT depth) the learner has set at the time they are
/// served. Each answered call's round trip lands in `oracle.batch_ns`
/// and its pattern count in `oracle.batch_size` (one sample per call,
/// so a batch's tail latency stays visible; a single query is a call
/// of size 1). Fallback answers are neither counted nor timed.
///
/// # Examples
///
/// ```
/// use cirlearn::OracleGuard;
/// use cirlearn_aig::Aig;
/// use cirlearn_logic::Assignment;
/// use cirlearn_oracle::{CircuitOracle, Oracle};
/// use cirlearn_telemetry::{Counter, Telemetry};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// aig.add_output(a, "y");
///
/// let telemetry = Telemetry::recording();
/// let mut oracle = OracleGuard::with_telemetry(CircuitOracle::new(aig), telemetry.clone());
/// oracle.query(&Assignment::zeros(1));
/// assert_eq!(telemetry.counter(Counter::OracleQueries), 1);
/// assert_eq!(oracle.queries(), 1);
/// ```
#[derive(Debug)]
pub struct OracleGuard<O> {
    inner: O,
    num_outputs: usize,
    failure: Option<OracleError>,
    fallback_answers: u64,
    telemetry: Telemetry,
}

impl<O: Oracle> OracleGuard<O> {
    /// Wraps `inner`; queries flow through its fallible path and are
    /// recorded nowhere.
    pub fn new(inner: O) -> Self {
        OracleGuard::with_telemetry(inner, Telemetry::disabled())
    }

    /// Like [`OracleGuard::new`], but answered batches are counted and
    /// timed into `telemetry`, and the moment a failure latches the
    /// guard dumps the flight recorder through it — the ring still
    /// holds the events leading up to the fault, which is exactly the
    /// context a post-mortem needs.
    pub fn with_telemetry(inner: O, telemetry: Telemetry) -> Self {
        let num_outputs = inner.num_outputs();
        OracleGuard {
            inner,
            num_outputs,
            failure: None,
            fallback_answers: 0,
            telemetry,
        }
    }

    fn latch(&mut self, e: OracleError) {
        self.failure = Some(e);
        self.telemetry.dump_flight("fault");
    }

    /// Whether the oracle has failed; once true, every answer since the
    /// failure was a constant-false fallback.
    pub fn failed(&self) -> bool {
        self.failure.is_some()
    }

    /// The latched failure, if any.
    pub fn failure(&self) -> Option<&OracleError> {
        self.failure.as_ref()
    }

    /// How many fallback answers were served after the failure.
    pub fn fallback_answers(&self) -> u64 {
        self.fallback_answers
    }

    fn fallback(&mut self) -> Vec<bool> {
        self.fallback_answers += 1;
        vec![false; self.num_outputs]
    }
}

impl<O: Oracle> Oracle for OracleGuard<O> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    fn input_names(&self) -> &[String] {
        self.inner.input_names()
    }

    fn output_names(&self) -> &[String] {
        self.inner.output_names()
    }

    /// Never fails: once the inner oracle has faulted, every pattern
    /// gets a fallback answer.
    fn try_query_batch(&mut self, inputs: &[Assignment]) -> Result<Vec<Vec<bool>>, OracleError> {
        if self.failure.is_none() {
            let start = Instant::now();
            match self.inner.try_query_batch(inputs) {
                Ok(rows) => {
                    // Counted only on success, matching the inner
                    // oracle's own accounting (a faulted batch served
                    // no answer); an empty batch records nothing.
                    if !rows.is_empty() {
                        let total = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        self.telemetry.record(Hist::OracleBatchNs, total);
                        self.telemetry
                            .record(Hist::OracleBatchSize, rows.len() as u64);
                        self.telemetry
                            .record_oracle_queries(rows.len() as u64, total);
                    }
                    return Ok(rows);
                }
                Err(e) => self.latch(e),
            }
        }
        Ok(inputs.iter().map(|_| self.fallback()).collect())
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }

    fn checkpoint_state(&self) -> Option<cirlearn_telemetry::json::Json> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &cirlearn_telemetry::json::Json) -> Result<(), OracleError> {
        self.inner.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_aig::Aig;
    use cirlearn_oracle::{generate, CircuitOracle, FaultKind, FaultSchedule, FaultyOracle};
    use cirlearn_telemetry::{counters, histograms, Counter};

    fn sample() -> CircuitOracle {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let y = g.xor(a, b);
        g.add_output(y, "y");
        CircuitOracle::new(g)
    }

    #[test]
    fn counts_singles_and_batches_into_telemetry() {
        let telemetry = Telemetry::recording();
        let mut o = OracleGuard::with_telemetry(sample(), telemetry.clone());
        let z = Assignment::zeros(2);
        o.query(&z);
        o.query_batch(&[z.clone(), z.clone(), z.clone()]);
        assert_eq!(telemetry.counter(Counter::OracleQueries), 4);
        assert_eq!(o.queries(), 4);
    }

    #[test]
    fn attribution_lands_on_the_active_span() {
        let telemetry = Telemetry::recording();
        let mut o = OracleGuard::with_telemetry(sample(), telemetry.clone());
        let z = Assignment::zeros(2);
        {
            let _support = telemetry.span("support");
            o.query(&z);
            o.query(&z);
        }
        {
            let _fbdt = telemetry.span("fbdt");
            o.query(&z);
        }
        let report = telemetry.report();
        let support = report
            .stage("support")
            .expect("span closed above, so the stage must be recorded");
        assert_eq!(support.counters[counters::ORACLE_QUERIES], 2);
        let fbdt = report
            .stage("fbdt")
            .expect("span closed above, so the stage must be recorded");
        assert_eq!(fbdt.counters[counters::ORACLE_QUERIES], 1);
        assert_eq!(
            report.top_level_counter_sum(counters::ORACLE_QUERIES),
            report.counter(counters::ORACLE_QUERIES)
        );
    }

    #[test]
    fn every_answered_call_is_one_batch_sample() {
        let telemetry = Telemetry::recording();
        let mut o = OracleGuard::with_telemetry(sample(), telemetry.clone());
        let z = Assignment::zeros(2);
        o.query(&z);
        o.query_batch(&[z.clone(), z.clone(), z.clone()]);
        o.try_query(&z).expect("the guard never fails");
        o.try_query_batch(&[z.clone(), z.clone()])
            .expect("the guard never fails");
        o.query_batch(&[]);
        let report = telemetry.report();
        assert_eq!(report.counter(counters::ORACLE_QUERIES), 7);
        // One sample per answered call, a single query being a batch
        // of one; the empty batch records nothing.
        assert_eq!(report.histograms[histograms::ORACLE_BATCH_NS].count, 4);
        let sizes = &report.histograms[histograms::ORACLE_BATCH_SIZE];
        assert_eq!(sizes.count, 4);
        assert_eq!((sizes.min, sizes.max, sizes.sum), (1, 3, 7));
    }

    #[test]
    fn queries_feed_the_attribution_ledger_with_context() {
        let telemetry = Telemetry::recording();
        let mut o = OracleGuard::with_telemetry(sample(), telemetry.clone());
        let z = Assignment::zeros(2);
        {
            let _scope = telemetry.output_scope(3);
            let _span = telemetry.span("fbdt");
            o.query(&z);
            o.query_batch(&[z.clone(), z.clone()]);
        }
        {
            let _span = telemetry.span("templates");
            o.query(&z);
        }
        let report = telemetry.report();
        assert_eq!(report.attribution_total_queries(), 4);
        let fbdt = report
            .attribution
            .iter()
            .find(|a| a.stage == "fbdt")
            .expect("fbdt ledger cell");
        assert_eq!(fbdt.output, Some(3));
        assert_eq!(fbdt.queries, 3);
        assert!(fbdt.query_ns > 0, "query wall clock is attributed");
        let templates = report
            .attribution
            .iter()
            .find(|a| a.stage == "templates")
            .expect("templates ledger cell");
        assert_eq!(templates.output, None);
        assert_eq!(templates.queries, 1);
    }

    #[test]
    fn disabled_telemetry_passes_queries_through() {
        let mut o = OracleGuard::with_telemetry(sample(), Telemetry::disabled());
        let z = Assignment::zeros(2);
        let out = o.query(&z);
        assert_eq!(out, vec![false]);
        assert_eq!(o.queries(), 1);
    }

    #[test]
    fn fallback_answers_are_neither_counted_nor_timed() {
        let telemetry = Telemetry::recording();
        let schedule = FaultSchedule::new().at(1, FaultKind::Crash);
        let mut guarded = OracleGuard::with_telemetry(
            FaultyOracle::new(generate::eco_case(8, 2, 3), schedule),
            telemetry.clone(),
        );
        let z = Assignment::zeros(8);
        {
            let _span = telemetry.span("fbdt");
            // The good batch is a single query at slot 0; the next
            // batch reaches slot 1, crashes and latches.
            guarded.query(&z);
            guarded.query_batch(&[z.clone(), z.clone(), z.clone()]);
        }
        assert!(guarded.failed());
        let ledger_before = telemetry.report().attribution_total_queries();
        {
            let _span = telemetry.span("fbdt");
            guarded.query(&z);
            guarded.query_batch(&[z.clone(), z.clone()]);
        }
        assert_eq!(guarded.fallback_answers(), 6);
        let report = telemetry.report();
        // Only the inner oracle's answered patterns are counted.
        assert_eq!(report.counter(counters::ORACLE_QUERIES), guarded.queries());
        assert_eq!(guarded.queries(), 1);
        // The one answered batch is the one timed sample.
        assert_eq!(report.histograms[histograms::ORACLE_BATCH_NS].count, 1);
        assert_eq!(report.attribution_total_queries(), ledger_before);
        assert_eq!(ledger_before, 1);
    }

    #[test]
    fn healthy_oracle_passes_through_untouched() {
        let mut clean = generate::eco_case(8, 2, 3);
        let mut guarded = OracleGuard::new(generate::eco_case(8, 2, 3));
        let z = Assignment::zeros(8);
        assert_eq!(guarded.query(&z), clean.query(&z));
        assert!(!guarded.failed());
        assert_eq!(guarded.fallback_answers(), 0);
        assert_eq!(guarded.queries(), 1);
    }

    #[test]
    fn failure_latches_and_serves_fallbacks() {
        let schedule = FaultSchedule::new().at(1, FaultKind::Crash);
        let mut guarded =
            OracleGuard::new(FaultyOracle::new(generate::eco_case(8, 2, 3), schedule));
        let z = Assignment::zeros(8);
        guarded.query(&z);
        assert!(!guarded.failed());
        // The crash: fallback answer, failure latched.
        assert_eq!(guarded.query(&z), vec![false, false]);
        assert!(guarded.failed());
        // Subsequent queries never touch the dead transport.
        let before = guarded.queries();
        guarded.query(&z);
        guarded.query_batch(&[z.clone(), z.clone()]);
        assert_eq!(guarded.queries(), before);
        assert_eq!(guarded.fallback_answers(), 4);
        assert!(guarded.failure().is_some());
    }

    #[test]
    fn latching_a_failure_dumps_the_flight_recorder() {
        let dir = std::env::temp_dir().join(format!("cirlearn-guard-dump-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("flight.jsonl");
        let telemetry = Telemetry::recording();
        telemetry.set_flight_dump_path(Some(path.clone()));
        let schedule = FaultSchedule::new().at(0, FaultKind::Crash);
        let mut guarded = OracleGuard::with_telemetry(
            FaultyOracle::new(generate::eco_case(8, 2, 3), schedule),
            telemetry,
        );
        guarded.query(&Assignment::zeros(8));
        assert!(guarded.failed());
        let text = std::fs::read_to_string(&path).expect("fault dump written");
        assert!(
            text.contains("\"reason\":\"fault\""),
            "dump names the trigger: {text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_failure_serves_full_fallback_rows() {
        let schedule = FaultSchedule::new().at(0, FaultKind::Hang);
        let mut guarded =
            OracleGuard::new(FaultyOracle::new(generate::eco_case(6, 1, 2), schedule));
        let z = Assignment::zeros(6);
        let rows = guarded.query_batch(&[z.clone(), z.clone(), z]);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r == &vec![false]));
        assert!(guarded.failed());
    }
}
