//! The typed metric ids: every counter and histogram the pipeline
//! records, declared once with its report key and its doc. An enabled
//! [`Telemetry`](crate::Telemetry) handle holds one table slot per id;
//! run reports, read back from disk, stay keyed by [`Counter::name`].

/// Declares one id enum with `ALL`, `COUNT` and `name()`, and a module
/// of `&'static str` report keys defined from the ids.
macro_rules! metric_ids {
    (
        $(#[$enum_doc:meta])*
        pub enum $ty:ident;
        $(#[$mod_doc:meta])*
        pub mod $keys:ident;
        $( $(#[doc = $doc:literal])+ $variant:ident = $key:ident($name:literal), )+
    ) => {
        $(#[$enum_doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum $ty {
            $( $(#[doc = $doc])+ $variant, )+
        }

        impl $ty {
            /// Every id, in declaration (and table) order.
            pub const ALL: [$ty; $ty::COUNT] = [$($ty::$variant),+];
            /// The number of ids.
            pub const COUNT: usize = [$($name),+].len();

            /// The report key.
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }
        }

        $(#[$mod_doc])*
        pub mod $keys {
            use super::$ty;
            $(
                #[doc = concat!("Report key of [`", stringify!($ty), "::", stringify!($variant), "`].")]
                pub const $key: &str = $ty::$variant.name();
            )+
        }
    };
}

metric_ids! {
    /// A monotonic counter.
    pub enum Counter;
    /// Counter report keys.
    pub mod counters;
    /// Oracle queries, counted at the source by `InstrumentedOracle`.
    OracleQueries = ORACLE_QUERIES("oracle.queries"),
    /// FBDT internal nodes expanded (splits performed).
    FbdtSplits = FBDT_SPLITS("fbdt.splits"),
    /// FBDT leaves declared.
    FbdtLeaves = FBDT_LEAVES("fbdt.leaves"),
    /// FBDT leaves forced by budget exhaustion.
    FbdtForcedLeaves = FBDT_FORCED_LEAVES("fbdt.forced_leaves"),
    /// Cubes collected into learned covers.
    CubesCollected = CUBES_COLLECTED("cover.cubes"),
    /// Espresso minimization invocations.
    EspressoCalls = ESPRESSO_CALLS("espresso.calls"),
    /// Optimization passes executed.
    OptPasses = OPT_PASSES("optimize.passes"),
    /// AND gates removed across all optimization passes.
    OptGatesSaved = OPT_GATES_SAVED("optimize.gates_saved"),
    /// Pass results verified by the checked-pass harness.
    VerifyChecks = VERIFY_CHECKS("verify.checks"),
    /// Structural lint violations found during verification.
    VerifyLintViolations = VERIFY_LINT_VIOLATIONS("verify.lint_violations"),
    /// Counterexample witnesses produced (functional differences).
    VerifyWitnesses = VERIFY_WITNESSES("verify.witnesses"),
    /// Pass results rejected (rolled back) by the harness.
    VerifyRejectedPasses = VERIFY_REJECTED_PASSES("verify.rejected_passes"),
    /// Oracle queries retried after a transient fault.
    FaultRetries = FAULT_RETRIES("faults.retries"),
    /// Oracle queries that hit the watchdog read deadline.
    FaultTimeouts = FAULT_TIMEOUTS("faults.timeouts"),
    /// Black-box processes respawned after a fatal fault.
    FaultRespawns = FAULT_RESPAWNS("faults.respawns"),
    /// Outputs degraded to a baseline circuit after the oracle died or
    /// the budget expired mid-output.
    FaultDegradedOutputs = FAULT_DEGRADED_OUTPUTS("faults.degraded_outputs"),
    /// Checkpoints written (atomic tmp + fsync + rename completed).
    CkptWrites = CKPT_WRITES("ckpt.writes"),
    /// Checkpoint payload bytes written in total, over every completed
    /// checkpoint write.
    CkptBytes = CKPT_BYTES("ckpt.bytes"),
    /// Runs resumed from a checkpoint (1 per resumed segment).
    CkptResumes = CKPT_RESUMES("ckpt.resumes"),
    /// Outputs synthesized from partial covers because the learner's
    /// wall (`time_budget`) was spent mid-FBDT (the degradation step
    /// above the majority-constant fallback). The key keeps its old
    /// `deadline` name so report readers see no change.
    CkptDeadlinePartialOutputs = CKPT_DEADLINE_PARTIAL_OUTPUTS("ckpt.deadline_partial_outputs"),
    /// Flight-recorder dumps written (by any trigger); a dump whose
    /// write failed is not counted.
    FlightDumps = FLIGHT_DUMPS("flight.dumps"),
}

metric_ids! {
    /// A latency (or size) histogram. All record nanoseconds except
    /// [`Hist::OracleBatchSize`], which records patterns.
    pub enum Hist;
    /// Histogram report keys.
    pub mod histograms;
    /// Oracle round-trip latency: one sample per answered call (a
    /// single query is a batch of one), recorded at the source by
    /// `InstrumentedOracle`.
    OracleBatchNs = ORACLE_BATCH_NS("oracle.batch_ns"),
    /// Patterns per answered oracle call: one sample per call, next to
    /// [`Hist::OracleBatchNs`].
    OracleBatchSize = ORACLE_BATCH_SIZE("oracle.batch_size"),
    /// Latency of one guarded call through the fault-tolerant layer
    /// (`ResilientOracle`), including retries, backoff sleeps and
    /// respawns: one sample per call, a single query or a whole batch.
    OracleGuardedQueryNs = ORACLE_GUARDED_QUERY_NS("oracle.guarded_query_ns"),
    /// Per-node FBDT expansion cost (one pattern-sampling round).
    FbdtNodeNs = FBDT_NODE_NS("fbdt.node_ns"),
    /// Building one output's circuit from its learned cover: espresso
    /// minimization, factoring and AIG construction, one sample per
    /// cover.
    CoverBuildNs = COVER_BUILD_NS("cover.build_ns"),
    /// Per-pass synthesis time (excluding verification).
    SynthPassNs = SYNTH_PASS_NS("synth.pass_ns"),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_index_their_tables_and_names_are_distinct() {
        assert!((0..Counter::COUNT).all(|i| Counter::ALL[i] as usize == i));
        assert!((0..Hist::COUNT).all(|i| Hist::ALL[i] as usize == i));
        let mut names = Counter::ALL.map(Counter::name).to_vec();
        names.extend(Hist::ALL.map(Hist::name));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT + Hist::COUNT);
        assert_eq!(counters::ORACLE_QUERIES, "oracle.queries");
    }
}
