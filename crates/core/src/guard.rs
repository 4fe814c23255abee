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

use cirlearn_logic::Assignment;
use cirlearn_oracle::{Oracle, OracleError};
use cirlearn_telemetry::Telemetry;

/// A fail-fast adapter: fallible queries in, infallible answers out,
/// with the first failure latched for the learner to inspect.
#[derive(Debug)]
pub struct OracleGuard<O> {
    inner: O,
    num_outputs: usize,
    failure: Option<OracleError>,
    fallback_answers: u64,
    telemetry: Telemetry,
}

impl<O: Oracle> OracleGuard<O> {
    /// Wraps `inner`; queries flow through its fallible path.
    pub fn new(inner: O) -> Self {
        OracleGuard::with_telemetry(inner, Telemetry::disabled())
    }

    /// Like [`OracleGuard::new`], but the moment a failure latches the
    /// guard dumps the flight recorder through `telemetry` — the ring
    /// still holds the events leading up to the fault, which is
    /// exactly the context a post-mortem needs.
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

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
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
            match self.inner.try_query_batch(inputs) {
                Ok(rows) => return Ok(rows),
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
    use cirlearn_oracle::{generate, FaultKind, FaultSchedule, FaultyOracle};

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
