//! The benchmark's own view of the oracle layer.

use std::time::{Duration, Instant};

use cirlearn_logic::Assignment;
use cirlearn_oracle::{Oracle, OracleError};
use cirlearn_telemetry::Telemetry;

/// Wraps whatever oracle the learner is handed and times every call
/// into it from outside the program.
///
/// Patterns are counted only for calls that returned an answer, the
/// same rule the learner's own query count follows, so a run passes
/// its output check only if both counts agree. With an enabled
/// telemetry handle each call is also an `oracle.call` span on the
/// trace stream, nested under the learner stage that issued it, and its
/// duration is kept in `call_ns`. An untraced run keeps only the two
/// totals, so its memory does not grow with the number of calls.
pub struct TimedOracle<O> {
    inner: O,
    telemetry: Telemetry,
    /// Answered patterns.
    pub patterns: u64,
    /// Wall clock inside the wrapped oracle.
    pub busy: Duration,
    /// Duration of every call, in nanoseconds; empty when untraced.
    pub call_ns: Vec<u64>,
}

impl<O: Oracle> TimedOracle<O> {
    pub fn new(inner: O, telemetry: Telemetry) -> Self {
        TimedOracle {
            inner,
            telemetry,
            patterns: 0,
            busy: Duration::ZERO,
            call_ns: Vec::new(),
        }
    }

    /// Runs one call into the wrapped oracle; `answered` counts the
    /// patterns its result answers.
    fn timed<T>(&mut self, call: impl FnOnce(&mut O) -> T, answered: impl Fn(&T) -> usize) -> T {
        let _span = self.telemetry.span("oracle.call");
        let start = Instant::now();
        let out = call(&mut self.inner);
        let elapsed = start.elapsed();
        self.busy += elapsed;
        if self.telemetry.is_enabled() {
            self.call_ns
                .push(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        }
        self.patterns += answered(&out) as u64;
        out
    }
}

impl<O: Oracle> Oracle for TimedOracle<O> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn input_names(&self) -> &[String] {
        self.inner.input_names()
    }

    fn output_names(&self) -> &[String] {
        self.inner.output_names()
    }

    fn query(&mut self, input: &Assignment) -> Vec<bool> {
        self.timed(|o| o.query(input), |_| 1)
    }

    fn query_batch(&mut self, inputs: &[Assignment]) -> Vec<Vec<bool>> {
        self.timed(|o| o.query_batch(inputs), Vec::len)
    }

    fn try_query(&mut self, input: &Assignment) -> Result<Vec<bool>, OracleError> {
        self.timed(|o| o.try_query(input), |r| usize::from(r.is_ok()))
    }

    fn try_query_batch(&mut self, inputs: &[Assignment]) -> Result<Vec<Vec<bool>>, OracleError> {
        self.timed(
            |o| o.try_query_batch(inputs),
            |r| r.as_ref().map_or(0, Vec::len),
        )
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }
}
