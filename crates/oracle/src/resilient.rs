//! Fault tolerance around black-box oracles.
//!
//! A long anytime learning run issues millions of queries against an
//! opaque external generator; transient faults — hangs, crashes,
//! garbage answers — are a certainty at that scale. [`ResilientOracle`]
//! wraps any [`Oracle`] with a [`RetryPolicy`]: bounded retries with
//! exponential backoff and deterministic jitter, watchdog-timeout
//! awareness, and automatic respawn of dead transports (guarded by a
//! replay-consistency probe so a restarted black box that computes a
//! *different* function is rejected instead of silently corrupting the
//! learned circuit).
//!
//! # Examples
//!
//! ```
//! use cirlearn_oracle::{generate, Oracle, ResilientOracle, RetryPolicy};
//! use cirlearn_logic::Assignment;
//!
//! let inner = generate::eco_case(8, 2, 7);
//! let mut oracle = ResilientOracle::new(inner, RetryPolicy::default());
//! let out = oracle
//!     .try_query(&Assignment::zeros(8))
//!     .expect("in-process oracle cannot fault");
//! assert_eq!(out.len(), 2);
//! ```

use std::time::{Duration, Instant};

use cirlearn_logic::Assignment;
use cirlearn_telemetry::json::Json;
use cirlearn_telemetry::{counters, histograms, HistogramHandle, Level, Telemetry};

use crate::oracle::{Oracle, OracleError};

/// How a wrapped oracle can be brought back after a fatal fault.
///
/// [`ResilientOracle`] calls [`Respawn::respawn`] when a query fails in
/// a way a plain retry cannot fix (timeouts desynchronize the answer
/// stream; dead processes need a fresh child). In-process oracles that
/// never fault implement it as a no-op.
pub trait Respawn {
    /// Attempts to restore the oracle to a queryable state.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::RespawnUnsupported`] when the oracle has
    /// no recovery mechanism, or the underlying failure when recovery
    /// itself fails.
    fn respawn(&mut self) -> Result<(), OracleError> {
        Err(OracleError::RespawnUnsupported)
    }
}

impl Respawn for crate::CircuitOracle {
    /// In-process circuits never fault; respawn is a no-op.
    fn respawn(&mut self) -> Result<(), OracleError> {
        Ok(())
    }
}

/// Retry/backoff configuration of a [`ResilientOracle`].
///
/// Backoff for retry `k` (0-based) is `base * factor^k`, capped at
/// `cap`, then scaled by a deterministic jitter factor in
/// `[1 - jitter, 1 + jitter]` derived from `seed` — two runs with the
/// same seed retry on the same schedule, so budgeted runs reproduce.
/// All arithmetic saturates: no parameter combination can overflow a
/// [`Duration`] or panic.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries per query beyond the first attempt.
    pub max_retries: u32,
    /// Delay before the first retry.
    pub backoff_base: Duration,
    /// Multiplier applied per retry (values below 1 are clamped to 1).
    pub backoff_factor: f64,
    /// Upper bound on any single delay.
    pub backoff_cap: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Whether a dead transport is respawned (with a replay probe)
    /// instead of failing the query.
    pub respawn: bool,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base: Duration::from_millis(50),
            backoff_factor: 2.0,
            backoff_cap: Duration::from_secs(5),
            jitter: 0.25,
            respawn: true,
            seed: 0x1CCAD,
        }
    }
}

/// SplitMix64: a tiny deterministic mixer for the jitter stream.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// A policy that never retries (fail on the first fault).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            respawn: false,
            ..RetryPolicy::default()
        }
    }

    /// The un-jittered backoff for 0-based retry `attempt`:
    /// `base * factor^attempt`, capped at `cap`. Saturates instead of
    /// overflowing for any parameter combination.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = if self.backoff_factor.is_finite() {
            self.backoff_factor.max(1.0)
        } else {
            1.0
        };
        let cap_s = self.backoff_cap.as_secs_f64();
        let scale = factor.powi(attempt.min(i32::MAX as u32) as i32);
        let secs = self.backoff_base.as_secs_f64() * scale;
        let secs = if secs.is_finite() {
            secs.min(cap_s)
        } else {
            cap_s
        };
        Duration::try_from_secs_f64(secs.max(0.0)).unwrap_or(self.backoff_cap)
    }

    /// The jittered backoff for retry `attempt`, deterministic in
    /// `(seed, salt, attempt)`. `salt` distinguishes retry sequences of
    /// different queries so they do not thunder in lockstep.
    pub fn backoff_with_jitter(&self, attempt: u32, salt: u64) -> Duration {
        let base = self.backoff(attempt);
        let jitter = if self.jitter.is_finite() {
            self.jitter.clamp(0.0, 1.0)
        } else {
            0.0
        };
        if jitter == 0.0 {
            return base;
        }
        let bits = splitmix64(self.seed ^ splitmix64(salt.wrapping_add(u64::from(attempt))));
        // Uniform in [0, 1): 53 mantissa bits of the mixed word.
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 - jitter + unit * 2.0 * jitter;
        let secs = (base.as_secs_f64() * factor).min(
            self.backoff_cap.as_secs_f64().max(
                self.backoff_base.as_secs_f64(), // cap*(1+j) may exceed cap; bound by max(cap, base)*2
            ) * 2.0,
        );
        Duration::try_from_secs_f64(secs.max(0.0)).unwrap_or(base)
    }

    /// The delay to sleep before retry `attempt`, or `None` when the
    /// delay would land past the remaining deadline — a retry that
    /// cannot complete before the budget expires is never scheduled.
    pub fn delay_within(
        &self,
        attempt: u32,
        salt: u64,
        remaining: Option<Duration>,
    ) -> Option<Duration> {
        let delay = self.backoff_with_jitter(attempt, salt);
        match remaining {
            Some(left) if delay >= left => None,
            _ => Some(delay),
        }
    }
}

/// Counters of fault-handling activity, exposed by
/// [`ResilientOracle::fault_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Query attempts retried after a fault.
    pub retries: u64,
    /// Faults that were watchdog timeouts.
    pub timeouts: u64,
    /// Transport respawns performed.
    pub respawns: u64,
    /// Display form of the last fault observed, if any.
    pub last_error: Option<String>,
}

/// A fault-tolerant wrapper: retries, backoff, respawn and replay
/// consistency checking around any [`Oracle`].
///
/// Once a query exhausts its retries (or a respawned black box fails
/// the replay probe) the wrapper marks itself *dead*: every subsequent
/// fallible query fails fast without touching the transport, so an
/// anytime learner can degrade the remaining work instead of hanging.
#[derive(Debug)]
pub struct ResilientOracle<O> {
    inner: O,
    policy: RetryPolicy,
    telemetry: Telemetry,
    /// End-to-end latency per guarded call (a single query or a whole
    /// batch), including backoff sleeps, respawns and replay probes —
    /// the latency the learner actually experiences, as opposed to
    /// `oracle.batch_ns` transport time.
    latency: HistogramHandle,
    stats: FaultStats,
    /// First few successful (pattern, answer) pairs, replayed after a
    /// respawn to check the new incarnation is the same function.
    probes: Vec<(Assignment, Vec<bool>)>,
    /// Wall-clock deadline: no retry is scheduled past it.
    deadline: Option<Instant>,
    dead: bool,
    /// Salts the jitter stream per fault sequence.
    fault_seq: u64,
}

/// How many successful queries are remembered for the replay probe.
const PROBE_SET_SIZE: usize = 4;

impl<O: Oracle + Respawn> ResilientOracle<O> {
    /// Wraps `inner` with the given policy and telemetry disabled.
    pub fn new(inner: O, policy: RetryPolicy) -> Self {
        ResilientOracle::with_telemetry(inner, policy, Telemetry::disabled())
    }

    /// Wraps `inner`, reporting fault counters to `telemetry`
    /// (`faults.retries`, `faults.timeouts`, `faults.respawns`).
    pub fn with_telemetry(inner: O, policy: RetryPolicy, telemetry: Telemetry) -> Self {
        let latency = telemetry.histogram_handle(histograms::ORACLE_GUARDED_QUERY_NS);
        ResilientOracle {
            inner,
            policy,
            telemetry,
            latency,
            stats: FaultStats::default(),
            probes: Vec::new(),
            deadline: None,
            dead: false,
            fault_seq: 0,
        }
    }

    /// Sets the wall-clock deadline: retries whose backoff would land
    /// past it are not scheduled (the query fails instead).
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// The fault-handling activity so far.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Whether the oracle has been marked dead (retries exhausted or
    /// replay probe failed); every further fallible query fails fast.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps back into the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    fn record_fault(&mut self, e: &OracleError) {
        self.stats.last_error = Some(e.to_string());
        let timeout = matches!(e, OracleError::Timeout(_));
        if timeout {
            self.stats.timeouts += 1;
            self.telemetry.incr(counters::FAULT_TIMEOUTS);
        }
        self.telemetry.trace(
            "fault",
            &[
                ("error", Json::from(e.to_string())),
                ("timeout", Json::Bool(timeout)),
            ],
        );
        self.telemetry
            .event(Level::Debug, &format!("oracle fault: {e}"));
    }

    /// Replays the probe set against a freshly respawned transport.
    fn check_probes(&mut self) -> Result<(), OracleError> {
        for k in 0..self.probes.len() {
            // panic-ok: `k` ranges over `probes` indices.
            let pattern = self.probes[k].0.clone();
            // panic-ok: `k` ranges over `probes` indices.
            let want = self.probes[k].1.clone();
            let got = self.inner.try_query(&pattern)?;
            if got != want {
                return Err(OracleError::Inconsistent(format!(
                    "probe {k} answered {got:?}, original incarnation answered {want:?}"
                )));
            }
        }
        Ok(())
    }

    fn respawn_and_verify(&mut self) -> Result<(), OracleError> {
        self.inner.respawn()?;
        self.stats.respawns += 1;
        self.telemetry.incr(counters::FAULT_RESPAWNS);
        self.check_probes()
    }

    /// Fills the probe set with the first distinct answered patterns,
    /// in pattern order.
    fn remember_probes(&mut self, inputs: &[Assignment], answers: &[Vec<bool>]) {
        for (pattern, bits) in inputs.iter().zip(answers) {
            if self.probes.len() >= PROBE_SET_SIZE {
                break;
            }
            if !self.probes.iter().any(|(p, _)| p == pattern) {
                self.probes.push((pattern.clone(), bits.clone()));
            }
        }
    }

    /// One fully guarded batch: retry loop with backoff, respawn and
    /// deadline awareness. A faulted batch is retried whole. The
    /// end-to-end time of the call (retries included) is one sample of
    /// the `oracle.guarded_query_ns` histogram, however many patterns
    /// it carries; the fail-fast dead path is not recorded, as no
    /// transport work happens.
    fn query_guarded(&mut self, inputs: &[Assignment]) -> Result<Vec<Vec<bool>>, OracleError> {
        if self.dead {
            return Err(OracleError::Died(
                "oracle marked dead after an earlier fatal fault".into(),
            ));
        }
        let start = Instant::now();
        let out = self.query_guarded_inner(inputs);
        self.latency.record_duration(start.elapsed());
        out
    }

    fn query_guarded_inner(
        &mut self,
        inputs: &[Assignment],
    ) -> Result<Vec<Vec<bool>>, OracleError> {
        let salt = self.fault_seq;
        let mut attempt: u32 = 0;
        loop {
            match self.inner.try_query_batch(inputs) {
                Ok(answers) => {
                    self.remember_probes(inputs, &answers);
                    return Ok(answers);
                }
                Err(e) => {
                    self.fault_seq += 1;
                    self.record_fault(&e);
                    if attempt >= self.policy.max_retries {
                        self.dead = true;
                        return Err(OracleError::Exhausted(Box::new(e)));
                    }
                    let Some(delay) = self.policy.delay_within(attempt, salt, self.remaining())
                    else {
                        // No time left for another attempt: fail the
                        // query now rather than sleeping past the
                        // deadline.
                        self.dead = true;
                        return Err(OracleError::Exhausted(Box::new(e)));
                    };
                    if !delay.is_zero() {
                        // blocking-ok: deliberate backoff between retry
                        // attempts against a faulted transport — the
                        // deadline check above bounds the total sleep.
                        std::thread::sleep(delay);
                    }
                    if e.needs_respawn() {
                        if !self.policy.respawn {
                            self.dead = true;
                            return Err(OracleError::Exhausted(Box::new(e)));
                        }
                        if let Err(re) = self.respawn_and_verify() {
                            self.record_fault(&re);
                            if re.is_fatal() {
                                // An inconsistent replacement is not
                                // retryable: it computes a different
                                // function.
                                self.dead = true;
                                return Err(re);
                            }
                            // Respawn itself failed transiently; spend
                            // a retry and loop.
                        }
                    }
                    attempt += 1;
                    self.stats.retries += 1;
                    self.telemetry.incr(counters::FAULT_RETRIES);
                }
            }
        }
    }
}

impl<O: Oracle + Respawn> Oracle for ResilientOracle<O> {
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

    fn try_query_batch(&mut self, inputs: &[Assignment]) -> Result<Vec<Vec<bool>>, OracleError> {
        self.query_guarded(inputs)
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }

    /// Persists the jitter-salt position (`fault_seq`) plus the inner
    /// oracle's state. The dead flag and probe set are *not* persisted:
    /// a resumed run gets a fresh chance at a transport that may have
    /// recovered, and probes repopulate deterministically from the
    /// first successful queries of the new segment.
    fn checkpoint_state(&self) -> Option<Json> {
        let mut fields = vec![
            ("kind", Json::from("resilient")),
            ("fault_seq", Json::from(self.fault_seq)),
        ];
        if let Some(inner) = self.inner.checkpoint_state() {
            fields.push(("inner", inner));
        }
        Some(Json::object(fields))
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), OracleError> {
        if state.get("kind").and_then(Json::as_str) != Some("resilient") {
            return Err(OracleError::State(
                "state was not captured from a ResilientOracle".into(),
            ));
        }
        let fault_seq = state
            .get("fault_seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| OracleError::State("resilient `fault_seq` is not a count".into()))?;
        self.fault_seq = fault_seq;
        if let Some(inner) = state.get("inner") {
            self.inner.restore_state(inner)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::{FaultKind, FaultSchedule, FaultyOracle};
    use crate::generate;

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn passes_through_a_healthy_oracle() {
        let inner = generate::eco_case(10, 2, 3);
        let mut o = ResilientOracle::new(inner, fast_policy());
        let out = o.try_query(&Assignment::zeros(10)).expect("healthy");
        assert_eq!(out.len(), 2);
        assert_eq!(o.fault_stats(), &FaultStats::default());
        assert!(!o.is_dead());
    }

    #[test]
    fn retries_through_transient_malformed_answers() {
        let schedule = FaultSchedule::new()
            .at(1, FaultKind::Malformed)
            .at(3, FaultKind::Malformed);
        let inner = FaultyOracle::new(generate::eco_case(8, 1, 5), schedule);
        let mut o = ResilientOracle::new(inner, fast_policy());
        for k in 0..6u32 {
            let mut a = Assignment::zeros(8);
            if k % 2 == 0 {
                a.set(cirlearn_logic::Var::new(0), true);
            }
            o.try_query(&a).expect("transient faults are retried");
        }
        assert_eq!(o.fault_stats().retries, 2);
        assert_eq!(o.fault_stats().respawns, 0);
        assert!(!o.is_dead());
    }

    #[test]
    fn crash_triggers_respawn_and_replay_probe() {
        let schedule = FaultSchedule::new().at(5, FaultKind::Crash);
        let inner = FaultyOracle::new(generate::eco_case(8, 1, 5), schedule);
        let mut o = ResilientOracle::new(inner, fast_policy());
        for k in 0..10u32 {
            let mut a = Assignment::zeros(8);
            for b in 0..8 {
                if k >> b & 1 == 1 {
                    a.set(cirlearn_logic::Var::new(b as u32), true);
                }
            }
            o.try_query(&a).expect("crash is respawned through");
        }
        assert_eq!(o.fault_stats().respawns, 1);
        assert!(o.fault_stats().retries >= 1);
        assert!(!o.is_dead());
    }

    #[test]
    fn telemetry_counters_track_fault_activity() {
        let telemetry = Telemetry::recording();
        let schedule = FaultSchedule::new()
            .at(0, FaultKind::Hang)
            .at(4, FaultKind::Malformed);
        let inner = FaultyOracle::new(generate::eco_case(6, 1, 2), schedule);
        let mut o = ResilientOracle::with_telemetry(inner, fast_policy(), telemetry.clone());
        for _ in 0..6 {
            o.try_query(&Assignment::zeros(6)).expect("recovers");
        }
        assert!(telemetry.counter(counters::FAULT_RETRIES) >= 2);
        assert_eq!(telemetry.counter(counters::FAULT_TIMEOUTS), 1);
        assert_eq!(telemetry.counter(counters::FAULT_RESPAWNS), 1);
        let report = telemetry.report();
        assert!(report.faults.any());
        assert_eq!(report.faults.timeouts, 1);
    }

    #[test]
    fn guarded_latency_includes_retries() {
        use cirlearn_telemetry::{histograms, TraceWriter};
        let telemetry = Telemetry::recording();
        let (trace, sink) = TraceWriter::to_shared_buffer();
        telemetry.set_trace(trace);
        let schedule = FaultSchedule::new().at(0, FaultKind::Malformed);
        let inner = FaultyOracle::new(generate::eco_case(6, 1, 2), schedule);
        let mut o = ResilientOracle::with_telemetry(
            inner,
            RetryPolicy {
                backoff_base: Duration::from_millis(5),
                backoff_cap: Duration::from_millis(50),
                jitter: 0.0,
                ..fast_policy()
            },
            telemetry.clone(),
        );
        o.try_query(&Assignment::zeros(6)).expect("recovers");
        o.try_query(&Assignment::zeros(6)).expect("healthy");
        // A batch call is one guarded call: one sample, not one per
        // pattern.
        let batch = vec![Assignment::zeros(6); 5];
        o.try_query_batch(&batch).expect("healthy");
        let report = telemetry.report();
        let h = &report.histograms[histograms::ORACLE_GUARDED_QUERY_NS];
        assert_eq!(h.count, 3);
        // The retried query slept through at least the 5 ms backoff.
        assert!(h.max >= 5_000_000, "max {} ns misses the backoff", h.max);
        // The fault reached the trace stream as a dedicated event.
        let text = sink.take_string();
        assert!(
            text.lines().any(|l| l.contains("\"fault\"")),
            "no fault event in trace: {text}"
        );
    }

    /// Eight patterns over 8 inputs; position 1 repeats position 0.
    fn batch_with_a_repeat() -> Vec<Assignment> {
        let mut batch: Vec<Assignment> = (0..8u32)
            .map(|m| Assignment::from_bits((0..8).map(|k| m >> k & 1 == 1)))
            .collect();
        batch[1] = batch[0].clone();
        batch
    }

    #[test]
    fn faulted_batch_is_retried_whole() {
        // Slot 2 answers garbage and slot 5 crashes: both faults land
        // in the first attempt at the batch, which fails at the crash.
        let schedule = FaultSchedule::new()
            .at(2, FaultKind::Malformed)
            .at(5, FaultKind::Crash);
        let inner = FaultyOracle::new(generate::eco_case(8, 2, 5), schedule);
        let mut o = ResilientOracle::new(inner, fast_policy());
        let batch = batch_with_a_repeat();
        let answers = o
            .try_query_batch(&batch)
            .expect("faults are retried through");
        assert_eq!(answers, generate::eco_case(8, 2, 5).query_batch(&batch));
        // Only the retry that succeeded reached the circuit.
        assert_eq!(o.inner().queries(), batch.len() as u64);
        assert_eq!(o.fault_stats().retries, 1);
        assert_eq!(o.fault_stats().respawns, 1);
        assert!(!o.is_dead());
        // The probe set holds the batch's first distinct patterns.
        let probes: Vec<&Assignment> = o.probes.iter().map(|(p, _)| p).collect();
        let want: Vec<&Assignment> = [0, 2, 3, 4].iter().map(|&k| &batch[k]).collect();
        assert_eq!(probes, want);
        for (p, bits) in &o.probes {
            assert_eq!(bits, &generate::eco_case(8, 2, 5).query(p));
        }
    }

    #[test]
    fn malformed_batch_retries_without_respawn() {
        let schedule = FaultSchedule::new().at(3, FaultKind::Malformed);
        let inner = FaultyOracle::new(generate::eco_case(8, 2, 5), schedule);
        let mut o = ResilientOracle::new(inner, fast_policy());
        let batch = batch_with_a_repeat();
        let answers = o.try_query_batch(&batch).expect("retried through");
        assert_eq!(answers, generate::eco_case(8, 2, 5).query_batch(&batch));
        assert_eq!(o.inner().queries(), batch.len() as u64);
        assert_eq!(o.fault_stats().retries, 1);
        assert_eq!(o.fault_stats().respawns, 0);
    }

    #[test]
    fn permanent_death_exhausts_and_marks_dead() {
        // Crash every incarnation immediately: respawn cannot help.
        let schedule = FaultSchedule::new()
            .at(0, FaultKind::Crash)
            .at(1, FaultKind::Crash)
            .at(2, FaultKind::Crash)
            .at(3, FaultKind::Crash)
            .at(4, FaultKind::Crash)
            .at(5, FaultKind::Crash);
        let inner = FaultyOracle::new(generate::eco_case(6, 1, 2), schedule);
        let mut o = ResilientOracle::new(inner, fast_policy());
        let err = o.try_query(&Assignment::zeros(6)).unwrap_err();
        assert!(matches!(err, OracleError::Exhausted(_)), "got {err}");
        assert!(o.is_dead());
        // Fail-fast afterwards: no further transport activity.
        let q_before = o.queries();
        assert!(o.try_query(&Assignment::zeros(6)).is_err());
        assert_eq!(o.queries(), q_before);
    }

    #[test]
    fn respawn_disabled_fails_on_fatal_faults() {
        let schedule = FaultSchedule::new().at(0, FaultKind::Crash);
        let inner = FaultyOracle::new(generate::eco_case(6, 1, 2), schedule);
        let mut o = ResilientOracle::new(
            inner,
            RetryPolicy {
                respawn: false,
                ..fast_policy()
            },
        );
        let err = o.try_query(&Assignment::zeros(6)).unwrap_err();
        assert!(matches!(err, OracleError::Exhausted(_)));
        assert_eq!(o.fault_stats().respawns, 0);
    }

    #[test]
    fn deadline_blocks_retries_past_the_budget() {
        let schedule = FaultSchedule::new().at(0, FaultKind::Malformed);
        let inner = FaultyOracle::new(generate::eco_case(6, 1, 2), schedule);
        let mut o = ResilientOracle::new(
            inner,
            RetryPolicy {
                backoff_base: Duration::from_secs(10),
                backoff_cap: Duration::from_secs(10),
                jitter: 0.0,
                ..fast_policy()
            },
        );
        // Deadline closer than the first backoff: the retry must not be
        // scheduled, and the query must fail promptly.
        o.set_deadline(Some(Instant::now() + Duration::from_millis(50)));
        let start = Instant::now();
        let err = o.try_query(&Assignment::zeros(6)).unwrap_err();
        assert!(matches!(err, OracleError::Exhausted(_)));
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "slept past the deadline: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn checkpoint_state_nests_and_restores_the_stack() {
        let schedule = FaultSchedule::new()
            .at(1, FaultKind::Malformed)
            .at(3, FaultKind::Malformed);
        let inner = FaultyOracle::new(generate::eco_case(8, 1, 5), schedule.clone());
        let mut o = ResilientOracle::new(inner, fast_policy());
        for _ in 0..4 {
            o.try_query(&Assignment::zeros(8)).expect("retried through");
        }
        let state = o.checkpoint_state().expect("resilient state exists");
        assert_eq!(state.get("kind").and_then(Json::as_str), Some("resilient"));
        assert_eq!(
            state
                .get("inner")
                .and_then(|i| i.get("kind"))
                .and_then(Json::as_str),
            Some("faulty"),
            "inner FaultyOracle state must nest"
        );

        let inner2 = FaultyOracle::new(generate::eco_case(8, 1, 5), schedule);
        let mut restored = ResilientOracle::new(inner2, fast_policy());
        restored.restore_state(&state).expect("state round-trips");
        assert_eq!(restored.fault_seq, o.fault_seq);
        assert_eq!(restored.inner().injected(), o.inner().injected());
        // Dead flag is intentionally not persisted: a resumed run gets a
        // fresh chance on the transport.
        assert!(!restored.is_dead());
    }

    #[test]
    fn restore_rejects_foreign_state() {
        let inner = generate::eco_case(6, 1, 2);
        let mut o = ResilientOracle::new(inner, fast_policy());
        let foreign = Json::object([("kind", Json::from("faulty"))]);
        assert!(matches!(
            o.restore_state(&foreign),
            Err(OracleError::State(_))
        ));
    }

    #[test]
    fn backoff_is_monotone_capped_and_deterministic() {
        let p = RetryPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_factor: 2.0,
            backoff_cap: Duration::from_millis(500),
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        let mut prev = Duration::ZERO;
        for k in 0..20 {
            let b = p.backoff(k);
            assert!(b >= prev, "un-jittered backoff must be monotone");
            assert!(b <= p.backoff_cap);
            prev = b;
        }
        // Jitter is deterministic per (seed, salt, attempt).
        assert_eq!(p.backoff_with_jitter(3, 17), p.backoff_with_jitter(3, 17));
        // And bounded by [1-j, 1+j] around the un-jittered value.
        let base = p.backoff(3).as_secs_f64();
        let j = p.backoff_with_jitter(3, 17).as_secs_f64();
        assert!(j >= base * 0.5 - 1e-9 && j <= base * 1.5 + 1e-9);
    }

    #[test]
    fn extreme_policy_parameters_never_panic() {
        let p = RetryPolicy {
            max_retries: u32::MAX,
            backoff_base: Duration::MAX,
            backoff_factor: f64::INFINITY,
            backoff_cap: Duration::MAX,
            jitter: f64::NAN,
            respawn: true,
            seed: u64::MAX,
        };
        let _ = p.backoff(u32::MAX);
        let _ = p.backoff_with_jitter(u32::MAX, u64::MAX);
        let _ = p.delay_within(u32::MAX, 0, Some(Duration::ZERO));
    }
}
