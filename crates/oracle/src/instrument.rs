//! Telemetry instrumentation for oracles.

use std::time::Instant;

use cirlearn_logic::Assignment;
use cirlearn_telemetry::{Hist, Telemetry};

use crate::oracle::Oracle;

/// An oracle wrapper that counts and times every query into a
/// [`Telemetry`] handle at the source.
///
/// Queries are bumped on the `oracle.queries` counter as they are
/// served (via [`Telemetry::record_oracle_queries`]), so stage spans
/// open in the learner attribute them to the pipeline stage that
/// issued them — the run report's per-stage query breakdown and the
/// total query count agree by construction. The same call feeds the
/// per-(stage, output) cost ledger: queries are tagged with whatever
/// attribution context (output scope, FBDT depth) the learner has set
/// at the time they are served.
///
/// Latency lands in the handle's histograms: each answered
/// call's round trip in `oracle.batch_ns`, with its pattern count in
/// `oracle.batch_size` (one sample per call, so a batch's tail latency
/// stays visible; a single query is a call of size 1).
///
/// # Examples
///
/// ```
/// use cirlearn_aig::Aig;
/// use cirlearn_logic::Assignment;
/// use cirlearn_oracle::{CircuitOracle, InstrumentedOracle, Oracle};
/// use cirlearn_telemetry::{Counter, Telemetry};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// aig.add_output(a, "y");
///
/// let telemetry = Telemetry::recording();
/// let mut oracle =
///     InstrumentedOracle::new(CircuitOracle::new(aig), telemetry.clone());
/// oracle.query(&Assignment::zeros(1));
/// assert_eq!(telemetry.counter(Counter::OracleQueries), 1);
/// assert_eq!(oracle.queries(), 1);
/// ```
#[derive(Debug)]
pub struct InstrumentedOracle<O> {
    inner: O,
    telemetry: Telemetry,
}

impl<O: Oracle> InstrumentedOracle<O> {
    /// Wraps `inner`, reporting its query traffic to `telemetry`.
    pub fn new(inner: O, telemetry: Telemetry) -> Self {
        InstrumentedOracle { inner, telemetry }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps back into the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: Oracle> Oracle for InstrumentedOracle<O> {
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

    fn try_query_batch(
        &mut self,
        inputs: &[Assignment],
    ) -> Result<Vec<Vec<bool>>, crate::oracle::OracleError> {
        // Counted only on success, matching the inner oracle's own
        // accounting (a faulted batch served no answer); an empty batch
        // records nothing.
        let start = Instant::now();
        let out = self.inner.try_query_batch(inputs)?;
        if !out.is_empty() {
            let total = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.telemetry.record(Hist::OracleBatchNs, total);
            self.telemetry
                .record(Hist::OracleBatchSize, out.len() as u64);
            self.telemetry
                .record_oracle_queries(out.len() as u64, total);
        }
        Ok(out)
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }

    fn checkpoint_state(&self) -> Option<cirlearn_telemetry::json::Json> {
        self.inner.checkpoint_state()
    }

    fn restore_state(
        &mut self,
        state: &cirlearn_telemetry::json::Json,
    ) -> Result<(), crate::oracle::OracleError> {
        self.inner.restore_state(state)
    }
}

impl<O: Oracle + ?Sized> Oracle for &mut O {
    fn num_inputs(&self) -> usize {
        (**self).num_inputs()
    }

    fn num_outputs(&self) -> usize {
        (**self).num_outputs()
    }

    fn input_names(&self) -> &[String] {
        (**self).input_names()
    }

    fn output_names(&self) -> &[String] {
        (**self).output_names()
    }

    fn try_query_batch(
        &mut self,
        inputs: &[Assignment],
    ) -> Result<Vec<Vec<bool>>, crate::oracle::OracleError> {
        (**self).try_query_batch(inputs)
    }

    fn queries(&self) -> u64 {
        (**self).queries()
    }

    fn checkpoint_state(&self) -> Option<cirlearn_telemetry::json::Json> {
        (**self).checkpoint_state()
    }

    fn restore_state(
        &mut self,
        state: &cirlearn_telemetry::json::Json,
    ) -> Result<(), crate::oracle::OracleError> {
        (**self).restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitOracle;
    use cirlearn_aig::Aig;
    use cirlearn_telemetry::{counters, Counter};

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
        let mut o = InstrumentedOracle::new(sample(), telemetry.clone());
        let z = Assignment::zeros(2);
        o.query(&z);
        o.query_batch(&[z.clone(), z.clone(), z.clone()]);
        assert_eq!(telemetry.counter(Counter::OracleQueries), 4);
        assert_eq!(o.queries(), 4);
    }

    #[test]
    fn attribution_lands_on_the_active_span() {
        let telemetry = Telemetry::recording();
        let mut o = InstrumentedOracle::new(sample(), telemetry.clone());
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
        use cirlearn_telemetry::histograms;
        let telemetry = Telemetry::recording();
        let mut o = InstrumentedOracle::new(sample(), telemetry.clone());
        let z = Assignment::zeros(2);
        o.query(&z);
        o.query_batch(&[z.clone(), z.clone(), z.clone()]);
        o.try_query(&z).expect("circuit oracle cannot fault");
        o.try_query_batch(&[z.clone(), z.clone()])
            .expect("circuit oracle cannot fault");
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
        let mut o = InstrumentedOracle::new(sample(), telemetry.clone());
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
        let mut o = InstrumentedOracle::new(sample(), Telemetry::disabled());
        let z = Assignment::zeros(2);
        let out = o.query(&z);
        assert_eq!(out, vec![false]);
        assert_eq!(o.queries(), 1);
    }
}
