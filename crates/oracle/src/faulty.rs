//! Deterministic fault injection for chaos-testing the learning
//! pipeline.
//!
//! [`FaultyOracle`] wraps any [`Oracle`] and injects faults according
//! to a [`FaultSchedule`]: crash-after-N, hangs (surfaced as watchdog
//! timeouts), malformed answers, and silent bit flips. Schedules are
//! either written out explicitly or generated from a seed, so a chaos
//! run is exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use cirlearn_logic::Assignment;
//! use cirlearn_oracle::{generate, FaultKind, FaultSchedule, FaultyOracle, Oracle};
//!
//! let schedule = FaultSchedule::new().at(1, FaultKind::Malformed);
//! let mut oracle = FaultyOracle::new(generate::eco_case(8, 1, 3), schedule);
//! assert!(oracle.try_query(&Assignment::zeros(8)).is_ok()); // slot 0
//! assert!(oracle.try_query(&Assignment::zeros(8)).is_err()); // slot 1: injected
//! assert!(oracle.try_query(&Assignment::zeros(8)).is_ok()); // slot 2
//! ```

use std::collections::BTreeMap;
use std::time::Duration;

use cirlearn_logic::Assignment;
use cirlearn_telemetry::json::Json;

use crate::oracle::{Oracle, OracleError};
use crate::resilient::Respawn;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The black box dies: this and every later query fails with
    /// [`OracleError::Died`] until the oracle is respawned.
    Crash,
    /// The black box hangs on this query; surfaced as the watchdog
    /// deadline firing ([`OracleError::Timeout`]).
    Hang,
    /// The black box answers garbage ([`OracleError::Malformed`]).
    Malformed,
    /// The black box answers, but with one output bit silently flipped
    /// — no error is raised; this models undetectable corruption.
    BitFlip,
}

/// A deterministic schedule mapping query slots to injected faults.
///
/// Slots count every pattern served by the [`FaultyOracle`], one per
/// pattern of a batch (including patterns of batches that fault), so a
/// schedule reads as "the N-th query the learner issues misbehaves".
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    faults: BTreeMap<u64, FaultKind>,
}

impl FaultSchedule {
    /// An empty schedule (no faults).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Injects `kind` at query slot `slot` (builder style).
    #[must_use]
    pub fn at(mut self, slot: u64, kind: FaultKind) -> Self {
        self.faults.insert(slot, kind);
        self
    }

    /// A seeded random schedule: about `count` faults spread uniformly
    /// over the first `horizon` query slots, with kinds drawn from
    /// `kinds`. Identical seeds produce identical schedules.
    pub fn random(seed: u64, horizon: u64, count: usize, kinds: &[FaultKind]) -> Self {
        let mut schedule = FaultSchedule::new();
        if horizon == 0 || kinds.is_empty() {
            return schedule;
        }
        let mut state = seed ^ 0x5EED_FA17;
        let mut next = move || {
            // SplitMix64 step, same mixer the retry jitter uses.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..count {
            let slot = next() % horizon;
            let kind = kinds[(next() % kinds.len() as u64) as usize];
            schedule.faults.insert(slot, kind);
        }
        schedule
    }

    /// The number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Counts of faults actually injected, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Crashes injected.
    pub crashes: u64,
    /// Hangs (timeouts) injected.
    pub hangs: u64,
    /// Malformed answers injected.
    pub malformed: u64,
    /// Silent bit flips injected.
    pub bit_flips: u64,
}

/// An oracle wrapper that injects faults from a [`FaultSchedule`].
///
/// After an injected [`FaultKind::Crash`] the oracle stays dead —
/// every query errors — until [`Respawn::respawn`] is called, which
/// revives it (and respawns the inner oracle, if it needs that too).
#[derive(Debug)]
pub struct FaultyOracle<O> {
    inner: O,
    schedule: FaultSchedule,
    served: u64,
    crashed: bool,
    injected: InjectedFaults,
}

impl<O: Oracle> FaultyOracle<O> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: O, schedule: FaultSchedule) -> Self {
        FaultyOracle {
            inner,
            schedule,
            served: 0,
            crashed: false,
            injected: InjectedFaults::default(),
        }
    }

    /// Counts of faults injected so far, by kind.
    pub fn injected(&self) -> InjectedFaults {
        self.injected
    }

    /// Whether the oracle is currently crashed (awaiting respawn).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Serves one batch the way a pipelined transport does: the batch
    /// takes one query slot per pattern, in order. A crash or hang ends
    /// the batch at its slot; a malformed answer fails the batch only
    /// after the remaining slots are served, as the stream stays in
    /// sync. The inner oracle answers only batches that are handed
    /// back.
    fn serve(&mut self, inputs: &[Assignment]) -> Result<Vec<Vec<bool>>, OracleError> {
        if self.crashed {
            return Err(OracleError::Died(
                "injected crash: black box is down until respawn".into(),
            ));
        }
        let first = self.served;
        let end = first + inputs.len() as u64;
        self.served = end;
        let mut malformed = None;
        let mut flips = Vec::new();
        for (&slot, &kind) in self.schedule.faults.range(first..end) {
            match kind {
                FaultKind::Crash => {
                    self.served = slot + 1;
                    self.crashed = true;
                    self.injected.crashes += 1;
                    return Err(OracleError::Died(format!(
                        "injected crash at query slot {slot}"
                    )));
                }
                FaultKind::Hang => {
                    self.served = slot + 1;
                    self.injected.hangs += 1;
                    return Err(OracleError::Timeout(Duration::from_secs(0)));
                }
                FaultKind::Malformed => {
                    self.injected.malformed += 1;
                    malformed.get_or_insert(slot);
                }
                FaultKind::BitFlip => flips.push(slot),
            }
        }
        if let Some(slot) = malformed {
            return Err(OracleError::Malformed(format!(
                "injected garbage at query slot {slot}"
            )));
        }
        let mut rows = self.inner.try_query_batch(inputs)?;
        for slot in flips {
            let row = rows.get_mut((slot - first) as usize);
            if let Some(bits) = row.filter(|bits| !bits.is_empty()) {
                let victim = (slot % bits.len() as u64) as usize;
                // panic-ok: `victim < bits.len()` by the modulo.
                bits[victim] = !bits[victim];
            }
            self.injected.bit_flips += 1;
        }
        Ok(rows)
    }
}

impl<O: Oracle> Oracle for FaultyOracle<O> {
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
        self.serve(inputs)
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }

    /// Persists the injector's position in its fault schedule (the
    /// served-slot counter plus crash/injection state) and nests the
    /// inner oracle's state, so a resumed chaos run replays the exact
    /// remaining schedule.
    fn checkpoint_state(&self) -> Option<Json> {
        let mut fields = vec![
            ("kind", Json::from("faulty")),
            ("served", Json::from(self.served)),
            ("crashed", Json::Bool(self.crashed)),
            (
                "injected",
                Json::object([
                    ("crashes", Json::from(self.injected.crashes)),
                    ("hangs", Json::from(self.injected.hangs)),
                    ("malformed", Json::from(self.injected.malformed)),
                    ("bit_flips", Json::from(self.injected.bit_flips)),
                ]),
            ),
        ];
        if let Some(inner) = self.inner.checkpoint_state() {
            fields.push(("inner", inner));
        }
        Some(Json::object(fields))
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), OracleError> {
        let field = |name: &str| {
            state
                .get(name)
                .ok_or_else(|| OracleError::State(format!("faulty oracle state missing `{name}`")))
        };
        if field("kind")?.as_str() != Some("faulty") {
            return Err(OracleError::State(
                "state was not captured from a FaultyOracle".into(),
            ));
        }
        let served = field("served")?
            .as_u64()
            .ok_or_else(|| OracleError::State("faulty `served` is not a count".into()))?;
        let crashed = match field("crashed")? {
            Json::Bool(b) => *b,
            _ => return Err(OracleError::State("faulty `crashed` is not a bool".into())),
        };
        let injected = field("injected")?;
        let count = |name: &str| {
            injected
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| OracleError::State(format!("faulty injected `{name}` missing")))
        };
        self.injected = InjectedFaults {
            crashes: count("crashes")?,
            hangs: count("hangs")?,
            malformed: count("malformed")?,
            bit_flips: count("bit_flips")?,
        };
        self.served = served;
        self.crashed = crashed;
        if let Some(inner) = state.get("inner") {
            self.inner.restore_state(inner)?;
        }
        Ok(())
    }
}

impl<O: Oracle + Respawn> Respawn for FaultyOracle<O> {
    /// Revives an injected crash and respawns the inner oracle.
    fn respawn(&mut self) -> Result<(), OracleError> {
        self.crashed = false;
        self.inner.respawn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn crash_is_sticky_until_respawn() {
        let schedule = FaultSchedule::new().at(1, FaultKind::Crash);
        let mut o = FaultyOracle::new(generate::eco_case(8, 1, 9), schedule);
        let z = Assignment::zeros(8);
        assert!(o.try_query(&z).is_ok());
        assert!(matches!(o.try_query(&z), Err(OracleError::Died(_))));
        assert!(o.is_crashed());
        assert!(matches!(o.try_query(&z), Err(OracleError::Died(_))));
        o.respawn().expect("circuit oracle respawn is a no-op");
        assert!(!o.is_crashed());
        assert!(o.try_query(&z).is_ok());
        assert_eq!(o.injected().crashes, 1);
    }

    #[test]
    fn bit_flip_corrupts_silently() {
        let schedule = FaultSchedule::new().at(0, FaultKind::BitFlip);
        let inner = generate::eco_case(8, 1, 9);
        let mut clean = generate::eco_case(8, 1, 9);
        let mut o = FaultyOracle::new(inner, schedule);
        let z = Assignment::zeros(8);
        let corrupted = o.try_query(&z).expect("bit flips are silent");
        let truth = clean.try_query(&z).expect("in-process");
        assert_ne!(corrupted, truth, "exactly one bit must differ");
        // Subsequent queries are clean again.
        assert_eq!(o.try_query(&z).expect("clean"), truth);
        assert_eq!(o.injected().bit_flips, 1);
    }

    #[test]
    fn seeded_schedules_reproduce() {
        let kinds = [FaultKind::Hang, FaultKind::Malformed, FaultKind::BitFlip];
        let a = FaultSchedule::random(99, 1000, 10, &kinds);
        let b = FaultSchedule::random(99, 1000, 10, &kinds);
        assert_eq!(a.faults, b.faults);
        assert!(!a.is_empty());
        assert!(a.len() <= 10);
        let c = FaultSchedule::random(100, 1000, 10, &kinds);
        assert_ne!(a.faults, c.faults, "different seeds should differ");
    }

    #[test]
    fn checkpointed_state_resumes_the_schedule_in_lockstep() {
        let kinds = [FaultKind::Malformed, FaultKind::BitFlip, FaultKind::Hang];
        let schedule = FaultSchedule::random(7, 40, 12, &kinds);
        let mut original = FaultyOracle::new(generate::eco_case(8, 1, 9), schedule.clone());
        let z = Assignment::zeros(8);
        for _ in 0..17 {
            let _ = original.try_query(&z);
        }
        let state = original.checkpoint_state().expect("faulty state exists");

        // A fresh oracle restored from the checkpoint must replay the
        // exact remaining schedule, matching the original step for step.
        let mut resumed = FaultyOracle::new(generate::eco_case(8, 1, 9), schedule);
        resumed.restore_state(&state).expect("state round-trips");
        assert_eq!(resumed.injected(), original.injected());
        for step in 0..40 {
            let a = original.try_query(&z);
            let b = resumed.try_query(&z);
            assert_eq!(a.is_ok(), b.is_ok(), "step {step} diverged");
            if let (Ok(a), Ok(b)) = (a, b) {
                assert_eq!(a, b, "step {step} answers diverged");
            }
        }
        assert_eq!(resumed.injected(), original.injected());
    }

    #[test]
    fn restore_rejects_foreign_and_malformed_state() {
        let mut o = FaultyOracle::new(generate::eco_case(8, 1, 9), FaultSchedule::new());
        let foreign = Json::object([("kind", Json::from("resilient"))]);
        assert!(matches!(
            o.restore_state(&foreign),
            Err(OracleError::State(_))
        ));
        let malformed = Json::object([
            ("kind", Json::from("faulty")),
            ("served", Json::from("not a number")),
        ]);
        assert!(matches!(
            o.restore_state(&malformed),
            Err(OracleError::State(_))
        ));
        // A failed restore leaves the oracle usable.
        assert!(o.try_query(&Assignment::zeros(8)).is_ok());
    }

    #[test]
    fn batches_fault_like_a_pipelined_transport() {
        let z = Assignment::zeros(8);
        let batch = vec![z.clone(); 4];
        // A malformed answer fails the batch after all four slots are
        // served; a bit flip lands on its own row.
        let schedule = FaultSchedule::new()
            .at(1, FaultKind::Malformed)
            .at(6, FaultKind::BitFlip);
        let mut o = FaultyOracle::new(generate::eco_case(8, 1, 9), schedule);
        assert!(matches!(
            o.try_query_batch(&batch),
            Err(OracleError::Malformed(_))
        ));
        assert_eq!(o.queries(), 0, "a failed batch never reaches the circuit");
        let rows = o.try_query_batch(&batch).expect("slots 4-7");
        let truth = generate::eco_case(8, 1, 9).query(&z);
        assert_eq!(rows[0], truth);
        assert_ne!(rows[2], truth, "slot 6 is row 2 of the batch");
        assert_eq!(o.queries(), 4);
        // A crash ends the batch at its slot: the next query is slot 10.
        let schedule = FaultSchedule::new()
            .at(9, FaultKind::Crash)
            .at(10, FaultKind::Hang);
        let mut o = FaultyOracle::new(generate::eco_case(8, 1, 9), schedule);
        o.try_query_batch(&[z.clone(), z.clone()])
            .expect("slots 0-1");
        let batch = vec![z.clone(); 10];
        assert!(matches!(
            o.try_query_batch(&batch),
            Err(OracleError::Died(_))
        ));
        o.respawn().expect("circuit oracle respawn is a no-op");
        assert!(matches!(o.try_query(&z), Err(OracleError::Timeout(_))));
        assert_eq!(o.injected().crashes, 1);
        assert_eq!(o.injected().hangs, 1);
    }

    #[test]
    fn fault_slots_count_faulted_queries_too() {
        let schedule = FaultSchedule::new()
            .at(0, FaultKind::Malformed)
            .at(1, FaultKind::Malformed);
        let mut o = FaultyOracle::new(generate::eco_case(8, 1, 9), schedule);
        let z = Assignment::zeros(8);
        assert!(o.try_query(&z).is_err());
        assert!(o.try_query(&z).is_err());
        assert!(o.try_query(&z).is_ok());
        assert_eq!(o.injected().malformed, 2);
        // Underlying query accounting only counts served queries.
        assert_eq!(o.queries(), 1);
    }
}
