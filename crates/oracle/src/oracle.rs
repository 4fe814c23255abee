//! The black-box query interface.

use std::time::Duration;

use cirlearn_aig::Aig;
use cirlearn_logic::Assignment;
use cirlearn_telemetry::json::Json;

/// A fault observed while serving an oracle query.
///
/// The contest's black boxes are opaque external programs, so every
/// failure mode of an external process is a failure mode of a query:
/// broken pipes, hangs, garbage answers, outright crashes.
/// [`Oracle::try_query_batch`] surfaces them as values; the infallible
/// adapters [`Oracle::query`] and [`Oracle::query_batch`] are for
/// oracles that cannot fault (or callers that accept a panic).
#[derive(Debug)]
#[non_exhaustive]
pub enum OracleError {
    /// An I/O error while talking to the black box.
    Io(std::io::Error),
    /// The watchdog read deadline expired before an answer arrived.
    ///
    /// After a timeout the answer stream is out of sync with the query
    /// stream (a late answer could be mistaken for the next query's),
    /// so the transport must be respawned before further queries.
    Timeout(Duration),
    /// The black box answered, but not with `num_outputs` bits of 0/1.
    Malformed(String),
    /// The black box terminated (EOF on its answer stream or a dead
    /// child process).
    Died(String),
    /// All retries were spent without a good answer; the wrapped error
    /// is the last failure observed.
    Exhausted(Box<OracleError>),
    /// A respawned black box answered a replay probe differently than
    /// the original incarnation — it is not the same function, so
    /// learned results would silently mix two different oracles.
    Inconsistent(String),
    /// The oracle cannot be respawned (it has no recovery mechanism).
    RespawnUnsupported,
    /// A checkpointed oracle state could not be restored (missing
    /// fields, wrong shape, or a mismatched oracle stack).
    State(String),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Io(e) => write!(f, "oracle I/O error: {e}"),
            OracleError::Timeout(d) => {
                write!(f, "oracle answer timed out after {:.3}s", d.as_secs_f64())
            }
            OracleError::Malformed(l) => write!(f, "malformed oracle answer: {l:?}"),
            OracleError::Died(why) => write!(f, "oracle died: {why}"),
            OracleError::Exhausted(last) => write!(f, "oracle retries exhausted; last: {last}"),
            OracleError::Inconsistent(why) => {
                write!(f, "respawned oracle is inconsistent: {why}")
            }
            OracleError::RespawnUnsupported => f.write_str("oracle cannot be respawned"),
            OracleError::State(why) => write!(f, "invalid oracle resume state: {why}"),
        }
    }
}

impl std::error::Error for OracleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OracleError::Io(e) => Some(e),
            OracleError::Exhausted(last) => Some(last),
            _ => None,
        }
    }
}

impl OracleError {
    /// Whether retrying the same query on the same transport can
    /// succeed. Timeouts and deaths need a respawn first; malformed
    /// answers and I/O hiccups may be transient.
    pub fn needs_respawn(&self) -> bool {
        match self {
            OracleError::Timeout(_) | OracleError::Died(_) | OracleError::Io(_) => true,
            OracleError::Malformed(_) => false,
            OracleError::Exhausted(last) => last.needs_respawn(),
            OracleError::Inconsistent(_)
            | OracleError::RespawnUnsupported
            | OracleError::State(_) => false,
        }
    }

    /// Whether this error is terminal: no retry or respawn can help.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            OracleError::Exhausted(_)
                | OracleError::Inconsistent(_)
                | OracleError::RespawnUnsupported
                | OracleError::State(_)
        )
    }
}

/// A black-box input-output relation generator.
///
/// Matches the contest's interface exactly: the box accepts *full*
/// assignments to its primary inputs and returns a full assignment to
/// its outputs for each. Nothing else — no partial queries, no
/// structure, no satisfiability questions. Implementations count
/// queries so experiments can report sampling effort.
///
/// There is one call shape: [`Oracle::try_query_batch`], a batch of
/// patterns in, one answer row per pattern out, or the fault that
/// stopped it. It is the only query method an implementation writes.
/// [`Oracle::try_query`], [`Oracle::query_batch`] and [`Oracle::query`]
/// are adapters over it, defined once here: a single query is a batch
/// of one, and the infallible forms panic with the error. They are
/// trait methods rather than free functions only so that a wrapper
/// which times every call from outside can override all four names;
/// each adapter does nothing but call `try_query_batch`, so a wrapped
/// and an unwrapped oracle serve a query the same way.
///
/// # Examples
///
/// The required methods are enough for a working oracle:
///
/// ```
/// use cirlearn_logic::{Assignment, Var};
/// use cirlearn_oracle::{Oracle, OracleError};
///
/// /// The parity of two inputs.
/// struct Parity {
///     names: (Vec<String>, Vec<String>),
///     queries: u64,
/// }
///
/// impl Oracle for Parity {
///     fn num_inputs(&self) -> usize {
///         2
///     }
///     fn num_outputs(&self) -> usize {
///         1
///     }
///     fn input_names(&self) -> &[String] {
///         &self.names.0
///     }
///     fn output_names(&self) -> &[String] {
///         &self.names.1
///     }
///     fn try_query_batch(
///         &mut self,
///         inputs: &[Assignment],
///     ) -> Result<Vec<Vec<bool>>, OracleError> {
///         self.queries += inputs.len() as u64;
///         Ok(inputs
///             .iter()
///             .map(|a| vec![a.get(Var::new(0)) != a.get(Var::new(1))])
///             .collect())
///     }
///     fn queries(&self) -> u64 {
///         self.queries
///     }
/// }
///
/// let names = (vec!["a".into(), "b".into()], vec!["y".into()]);
/// let mut oracle = Parity { names, queries: 0 };
/// let one = Assignment::from_bits([true, false]);
/// assert_eq!(oracle.query(&one), vec![true]);
/// assert_eq!(oracle.try_query(&one).unwrap(), vec![true]);
/// assert_eq!(oracle.query_batch(&[one.clone(), one]).len(), 2);
/// assert_eq!(oracle.queries(), 4);
/// ```
pub trait Oracle {
    /// Number of primary inputs.
    fn num_inputs(&self) -> usize;

    /// Number of primary outputs.
    fn num_outputs(&self) -> usize;

    /// Port names of the inputs, in input order.
    ///
    /// The contest exposes names; the paper's preprocessing mines them
    /// for bus structure.
    fn input_names(&self) -> &[String];

    /// Port names of the outputs, in output order.
    fn output_names(&self) -> &[String];

    /// Evaluates the hidden function on a batch of full assignments:
    /// one answer row of `num_outputs()` bits per pattern, in pattern
    /// order.
    ///
    /// This is the one query method implementations write; the other
    /// three are adapters over it.
    ///
    /// # Errors
    ///
    /// Returns the first fault that stopped the batch. Answers already
    /// obtained are not handed back, and the patterns of a failed batch
    /// are not counted in [`Oracle::queries`].
    ///
    /// # Panics
    ///
    /// Implementations may panic if a pattern is not `num_inputs()`
    /// wide.
    fn try_query_batch(&mut self, inputs: &[Assignment]) -> Result<Vec<Vec<bool>>, OracleError>;

    /// Fallibly evaluates one full assignment: a batch of one.
    ///
    /// # Errors
    ///
    /// Returns the fault [`Oracle::try_query_batch`] reports, or
    /// [`OracleError::Malformed`] if the batch came back without a row.
    fn try_query(&mut self, input: &Assignment) -> Result<Vec<bool>, OracleError> {
        self.try_query_batch(std::slice::from_ref(input))
            .and_then(only_row)
    }

    /// Evaluates a batch: [`Oracle::try_query_batch`] for callers that
    /// cannot act on a fault.
    ///
    /// # Panics
    ///
    /// Panics with the error when the batch faults; callers that must
    /// survive a faulty black box use the fallible methods (or put an
    /// adapter such as the learner's oracle guard in between).
    fn query_batch(&mut self, inputs: &[Assignment]) -> Vec<Vec<bool>> {
        self.try_query_batch(inputs)
            // panic-ok: documented `# Panics` contract — the infallible
            // adapter cannot absorb a fault; fallible callers use
            // `try_query_batch`.
            .unwrap_or_else(|e| panic!("oracle query failed: {e}"))
    }

    /// Evaluates one full assignment: a batch of one.
    ///
    /// # Panics
    ///
    /// Panics with the error when the query faults, as
    /// [`Oracle::query_batch`] does.
    fn query(&mut self, input: &Assignment) -> Vec<bool> {
        self.try_query_batch(std::slice::from_ref(input))
            .and_then(only_row)
            // panic-ok: documented `# Panics` contract, as in
            // `query_batch`.
            .unwrap_or_else(|e| panic!("oracle query failed: {e}"))
    }

    /// Number of single-pattern queries served so far (batches count
    /// per pattern).
    fn queries(&self) -> u64;

    /// Serializable resume state of the oracle stack, if any.
    ///
    /// Wrappers that hold a position in a deterministic stream — fault
    /// injectors, retry-jitter salts — return it here so a checkpointed
    /// learning run resumes with the exact same fault schedule.
    /// Stateless transports return `None` (the default); wrapper
    /// oracles nest their inner oracle's state so the whole stack
    /// round-trips.
    fn checkpoint_state(&self) -> Option<Json> {
        None
    }

    /// Restores state captured by [`Oracle::checkpoint_state`].
    ///
    /// The default accepts anything and restores nothing, matching the
    /// default `checkpoint_state` of stateless oracles.
    ///
    /// # Errors
    ///
    /// Implementations return [`OracleError::State`] when the value
    /// does not describe this oracle stack.
    fn restore_state(&mut self, _state: &Json) -> Result<(), OracleError> {
        Ok(())
    }
}

/// The answer of a batch of one.
fn only_row(mut rows: Vec<Vec<bool>>) -> Result<Vec<bool>, OracleError> {
    rows.pop()
        .ok_or_else(|| OracleError::Malformed("no answer to a single query".into()))
}

/// An oracle wrapping a hidden combinational circuit.
///
/// The circuit is deliberately inaccessible: only the port names and
/// the query interface are public, mirroring the contest setup. Tests
/// and the evaluation harness may use [`CircuitOracle::reveal`] to
/// compare a learned circuit against the hidden one.
///
/// # Examples
///
/// ```
/// use cirlearn_aig::Aig;
/// use cirlearn_logic::Assignment;
/// use cirlearn_oracle::{CircuitOracle, Oracle};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let y = aig.xor(a, b);
/// aig.add_output(y, "y");
/// let mut oracle = CircuitOracle::new(aig);
///
/// let mut pat = Assignment::zeros(2);
/// pat.set(cirlearn_logic::Var::new(0), true);
/// assert_eq!(oracle.query(&pat), vec![true]);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitOracle {
    circuit: Aig,
    input_names: Vec<String>,
    output_names: Vec<String>,
    queries: u64,
}

impl CircuitOracle {
    /// Wraps a circuit as a black box.
    pub fn new(circuit: Aig) -> Self {
        let input_names = circuit.input_names().to_vec();
        let output_names = circuit
            .outputs()
            .iter()
            .map(|(_, name)| name.clone())
            .collect();
        CircuitOracle {
            circuit,
            input_names,
            output_names,
            queries: 0,
        }
    }

    /// Exposes the hidden circuit — for evaluation harnesses and tests
    /// only; the learner must never call this.
    pub fn reveal(&self) -> &Aig {
        &self.circuit
    }
}

impl Oracle for CircuitOracle {
    fn num_inputs(&self) -> usize {
        self.circuit.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.circuit.num_outputs()
    }

    fn input_names(&self) -> &[String] {
        &self.input_names
    }

    fn output_names(&self) -> &[String] {
        &self.output_names
    }

    fn try_query_batch(&mut self, inputs: &[Assignment]) -> Result<Vec<Vec<bool>>, OracleError> {
        // In-process evaluation cannot fault.
        self.queries += inputs.len() as u64;
        Ok(match inputs {
            // A lone pattern walks the graph faster bit by bit than
            // through the word kernel's transpose and buffers.
            [one] => vec![self.circuit.eval(one)],
            _ => self.circuit.eval_batch(inputs),
        })
    }

    fn queries(&self) -> u64 {
        self.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_logic::Var;

    fn sample() -> CircuitOracle {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let y0 = g.and(a, b);
        let y1 = g.or(a, b);
        g.add_output(y0, "and");
        g.add_output(y1, "or");
        CircuitOracle::new(g)
    }

    #[test]
    fn names_are_exposed() {
        let o = sample();
        assert_eq!(o.input_names(), &["a".to_owned(), "b".into()]);
        assert_eq!(o.output_names(), &["and".to_owned(), "or".into()]);
        assert_eq!(o.num_inputs(), 2);
        assert_eq!(o.num_outputs(), 2);
    }

    #[test]
    fn queries_are_counted() {
        let mut o = sample();
        let z = Assignment::zeros(2);
        o.query(&z);
        o.query(&z);
        assert_eq!(o.queries(), 2);
        o.query_batch(&[z.clone(), z.clone(), z.clone()]);
        assert_eq!(o.queries(), 5);
    }

    #[test]
    fn batch_matches_single_queries() {
        let mut o = sample();
        let mut pats = Vec::new();
        for m in 0..4u32 {
            let mut a = Assignment::zeros(2);
            a.set(Var::new(0), m & 1 == 1);
            a.set(Var::new(1), m >> 1 & 1 == 1);
            pats.push(a);
        }
        let batch = o.query_batch(&pats);
        for (i, p) in pats.iter().enumerate() {
            assert_eq!(batch[i], o.query(p), "pattern {i}");
        }
    }
}
