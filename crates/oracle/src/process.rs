//! Driving an external executable as the black box.
//!
//! The contest distributed its IO generators as opaque executables.
//! [`ProcessOracle`] speaks a minimal line protocol with any such
//! program, so the learner can run against real black boxes — not just
//! the in-process [`CircuitOracle`](crate::CircuitOracle):
//!
//! ```text
//! --> 0110...      one line per query: |I| characters of 0/1
//! <-- 1001...      one line per answer: |O| characters of 0/1
//! ```
//!
//! The child is spawned once and queried over stdin/stdout; port names
//! and widths are supplied by the caller (the contest shipped them in a
//! side file).
//!
//! The protocol stays one line per query, but a batch is pipelined: its
//! lines are written back to back in one write, and the answers are
//! read afterwards in the same order. A batch costs one pipe round trip
//! instead of one per pattern.
//!
//! Queries are written by a dedicated writer thread and answers pumped
//! back by a dedicated reader thread, so queries can carry a watchdog
//! deadline ([`ProcessOracle::set_read_timeout`]) on every answer line:
//! a hung black box surfaces as [`OracleError::Timeout`] instead of
//! blocking the learning session forever, even when it stops reading a
//! batch larger than the pipe buffer. After a timeout the answer
//! stream is out of sync with the query stream, so the transport must
//! be [respawned](ProcessOracle::respawn) before further queries — the
//! [`ResilientOracle`](crate::ResilientOracle) wrapper automates that.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use cirlearn_logic::Assignment;

use crate::oracle::OracleError;
use crate::resilient::Respawn;
use crate::Oracle;

/// Errors from spawning or talking to the external black box.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProcessOracleError {
    /// The child process could not be started, or its pipes could not
    /// be wired up.
    Spawn(std::io::Error),
    /// The child closed its pipes or an I/O error occurred.
    Io(std::io::Error),
    /// The child answered with the wrong number of output bits.
    BadAnswer(String),
    /// No answer arrived within the watchdog read deadline.
    Timeout(Duration),
}

impl std::fmt::Display for ProcessOracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessOracleError::Spawn(e) => write!(f, "spawning black box: {e}"),
            ProcessOracleError::Io(e) => write!(f, "talking to black box: {e}"),
            ProcessOracleError::BadAnswer(l) => write!(f, "malformed black-box answer: {l}"),
            ProcessOracleError::Timeout(d) => write!(
                f,
                "black box answered nothing within {:.3}s",
                d.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for ProcessOracleError {}

impl From<ProcessOracleError> for OracleError {
    fn from(e: ProcessOracleError) -> OracleError {
        match e {
            ProcessOracleError::Spawn(io) | ProcessOracleError::Io(io) => {
                if io.kind() == std::io::ErrorKind::UnexpectedEof {
                    OracleError::Died(io.to_string())
                } else {
                    OracleError::Io(io)
                }
            }
            ProcessOracleError::BadAnswer(l) => OracleError::Malformed(l),
            ProcessOracleError::Timeout(d) => OracleError::Timeout(d),
        }
    }
}

/// A black-box oracle backed by an external process.
///
/// # Examples
///
/// Using a tiny shell script as the unknown system (output = first
/// input bit):
///
/// ```no_run
/// use cirlearn_oracle::{Oracle, ProcessOracle};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut oracle = ProcessOracle::spawn(
///     "./my_blackbox",
///     &[],
///     vec!["a".into(), "b".into()],
///     vec!["y".into()],
/// )?;
/// let pattern = cirlearn_logic::Assignment::zeros(2);
/// let out = oracle.query(&pattern);
/// assert_eq!(out.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProcessOracle {
    program: String,
    args: Vec<String>,
    transport: Transport,
    input_names: Vec<String>,
    output_names: Vec<String>,
    read_timeout: Option<Duration>,
    queries: u64,
    /// The last batch that failed on malformed answers, with the good
    /// answers drained from it: a retry of that batch re-asks only the
    /// lines that came back malformed.
    salvage: Option<Salvage>,
}

/// A batch whose exchange failed on malformed answers. The stream
/// stayed in sync, so its other answers are the child's real answers.
#[derive(Debug)]
struct Salvage {
    patterns: Vec<Assignment>,
    answers: Vec<Option<Vec<bool>>>,
}

/// One incarnation of the child process: the child plus the writer
/// thread feeding its stdin and the reader thread pumping its answer
/// lines. Replaced wholesale on respawn.
#[derive(Debug)]
struct Transport {
    child: Child,
    /// Encoded batches, one buffer per batch, for the writer thread.
    batches: Sender<Vec<u8>>,
    /// Buffers the writer thread has written out, handed back for reuse.
    written: Receiver<Vec<u8>>,
    answers: Receiver<std::io::Result<String>>,
}

/// Kills and reaps a child whose transport could not be wired up.
fn abandon(mut child: Child, e: std::io::Error) -> ProcessOracleError {
    let _ = child.kill();
    // blocking-ok: reaping a just-killed child on the failure path of a
    // once-per-connect setup.
    let _ = child.wait();
    ProcessOracleError::Spawn(e)
}

impl Transport {
    fn open(program: &str, args: &[String]) -> Result<Transport, ProcessOracleError> {
        // blocking-ok: spawning the black-box process IS this oracle's
        // transport; it happens once per (re)connect, not per query.
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(ProcessOracleError::Spawn)?;
        let Some(stdin) = child.stdin.take() else {
            return Err(abandon(
                child,
                std::io::Error::other("child stdin was not piped"),
            ));
        };
        let Some(stdout) = child.stdout.take() else {
            return Err(abandon(
                child,
                std::io::Error::other("child stdout was not piped"),
            ));
        };
        // The writer thread owns the stdin pipe and writes each batch
        // with one `write_all`. A child that stops reading blocks only
        // this thread, never the query path, whose watchdog keeps
        // running on the answer channel. The thread exits when this
        // Transport is dropped (the batch channel closes) or when a
        // write fails because the child is gone (a kill on respawn or
        // drop breaks the pipe). Like the reader it is left detached:
        // a grandchild that inherited the pipe could hold a join for as
        // long as it lives, and neither thread does anything that can
        // panic.
        let (batches, queue) = mpsc::channel::<Vec<u8>>();
        let (done, written) = mpsc::channel();
        let writer = std::thread::Builder::new()
            .name("oracle-writer".into())
            .spawn(move || {
                let mut stdin = stdin;
                for batch in queue {
                    // blocking-ok: this is the dedicated writer thread
                    // whose whole job is to block on the child's stdin
                    // so the query path can time out instead.
                    if stdin
                        .write_all(&batch)
                        .and_then(|()| stdin.flush())
                        .is_err()
                    {
                        break; // Broken pipe: the reader reports the death.
                    }
                    if done.send(batch).is_err() {
                        break; // Receiver dropped: transport replaced.
                    }
                }
            });
        if let Err(e) = writer {
            return Err(abandon(child, e));
        }
        // The reader thread owns the stdout pipe; it exits when the
        // child closes its end (EOF, crash, or our kill on drop) or
        // when this Transport is dropped (send fails on a closed
        // channel). It never outlives the child by more than one read.
        let (tx, answers) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name("oracle-reader".into())
            .spawn(move || {
                let mut reader = BufReader::new(stdout);
                loop {
                    let mut line = String::new();
                    // blocking-ok: this is the dedicated reader thread
                    // whose whole job is to block on the child's
                    // stdout so the query path can time out instead.
                    let send = match reader.read_line(&mut line) {
                        Ok(0) => break, // EOF: child is gone.
                        Ok(_) => tx.send(Ok(line)),
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            break;
                        }
                    };
                    if send.is_err() {
                        break; // Receiver dropped: transport replaced.
                    }
                }
            });
        if let Err(e) = reader {
            return Err(abandon(child, e));
        }
        Ok(Transport {
            child,
            batches,
            written,
            answers,
        })
    }

    /// Hands one encoded batch to the writer thread.
    fn send(&self, batch: Vec<u8>) -> Result<(), ProcessOracleError> {
        self.batches.send(batch).map_err(|_| {
            ProcessOracleError::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "black box stopped reading its queries",
            ))
        })
    }

    /// Reads one answer line, honouring the optional deadline.
    fn read_answer(&mut self, timeout: Option<Duration>) -> Result<String, ProcessOracleError> {
        let received = match timeout {
            // blocking-ok: waiting for the black box's answer IS the
            // oracle query; the deadline bounds the wait.
            Some(deadline) => match self.answers.recv_timeout(deadline) {
                Ok(r) => r,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(ProcessOracleError::Timeout(deadline))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ProcessOracleError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "black box closed its answer stream",
                    )))
                }
            },
            // blocking-ok: deliberately unbounded wait when the caller
            // configured no deadline — the black box is the clock.
            None => match self.answers.recv() {
                Ok(r) => r,
                Err(_) => {
                    return Err(ProcessOracleError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "black box closed its answer stream",
                    )))
                }
            },
        };
        received.map_err(ProcessOracleError::Io)
    }

    fn shutdown(&mut self) {
        let _ = self.child.kill();
        // blocking-ok: reaping a just-killed child once per teardown —
        // no zombies across respawns.
        let _ = self.child.wait();
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ProcessOracle {
    /// Spawns `program` with `args` and wires up the query protocol.
    ///
    /// # Errors
    ///
    /// Returns [`ProcessOracleError::Spawn`] when the program cannot be
    /// started or its stdio pipes cannot be wired up.
    pub fn spawn(
        program: &str,
        args: &[&str],
        input_names: Vec<String>,
        output_names: Vec<String>,
    ) -> Result<Self, ProcessOracleError> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        let transport = Transport::open(program, &args)?;
        Ok(ProcessOracle {
            program: program.to_owned(),
            args,
            transport,
            input_names,
            output_names,
            read_timeout: None,
            queries: 0,
            salvage: None,
        })
    }

    /// Sets the watchdog read deadline for every subsequent query
    /// (`None` waits forever, the default).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.read_timeout = timeout;
    }

    /// The configured watchdog read deadline.
    pub fn read_timeout(&self) -> Option<Duration> {
        self.read_timeout
    }

    /// Whether the child process is still running.
    pub fn is_alive(&mut self) -> bool {
        matches!(self.transport.child.try_wait(), Ok(None))
    }

    /// Kills the current child (reaping it) and starts a fresh one with
    /// the same program and arguments.
    ///
    /// The query counter is preserved: respawns replace the transport,
    /// not the accounting. Callers are responsible for checking that
    /// the new incarnation computes the same function (see
    /// [`ResilientOracle`](crate::ResilientOracle)'s replay probe).
    ///
    /// # Errors
    ///
    /// Returns [`ProcessOracleError::Spawn`] when the replacement child
    /// cannot be started; the oracle is left without a live child.
    pub fn respawn_process(&mut self) -> Result<(), ProcessOracleError> {
        self.salvage = None;
        self.transport.shutdown();
        self.transport = Transport::open(&self.program, &self.args)?;
        Ok(())
    }

    /// Sends one query, reporting protocol errors as the transport's
    /// own [`ProcessOracleError`]: the same batch of one that
    /// [`Oracle::try_query`] sends.
    ///
    /// # Errors
    ///
    /// I/O failures, watchdog timeouts and malformed answers are
    /// reported. After a [`ProcessOracleError::Timeout`] the answer
    /// stream is desynchronized: call
    /// [`ProcessOracle::respawn_process`] before querying again.
    pub fn try_query_process(
        &mut self,
        input: &Assignment,
    ) -> Result<Vec<bool>, ProcessOracleError> {
        let mut answers = self.exchange(std::slice::from_ref(input))?;
        // panic-ok: a successful exchange answers every pattern it was
        // sent, so a batch of one holds exactly one answer.
        Ok(answers.pop().expect("one answer per pattern"))
    }

    /// One pipelined exchange: the patterns of `inputs` are encoded
    /// into one buffer and written in one go, then their answers are
    /// read back in order, each under the watchdog deadline.
    ///
    /// A malformed answer does not desynchronize the stream, so the
    /// rest of the batch's answers are still read before the first bad
    /// line is reported, and the good ones are kept: when the next
    /// exchange is the same batch (a retry), only the patterns that
    /// came back malformed are sent again. A timeout or I/O error
    /// returns at once; the transport then needs a respawn. `queries`
    /// counts only batches that are handed back.
    fn exchange(&mut self, inputs: &[Assignment]) -> Result<Vec<Vec<bool>>, ProcessOracleError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let width = self.input_names.len();
        // panic-ok: entry contract guard, once per batch — a wrong
        // width is a caller bug, not a transport fault.
        assert!(
            inputs.iter().all(|input| input.len() == width),
            "wrong input width"
        );
        let mut answers = match self.salvage.take() {
            Some(salvage) if salvage.patterns == inputs => salvage.answers,
            _ => vec![None; inputs.len()],
        };
        let mut batch = self.transport.written.try_iter().last().unwrap_or_default();
        batch.clear();
        batch.reserve(inputs.len() * (width + 1));
        for (input, _) in inputs.iter().zip(&answers).filter(|(_, a)| a.is_none()) {
            batch.extend(input.iter().map(|b| if b { b'1' } else { b'0' }));
            batch.push(b'\n');
        }
        self.transport.send(batch)?;
        let mut malformed = None;
        for answer in answers.iter_mut().filter(|a| a.is_none()) {
            let line = self.transport.read_answer(self.read_timeout)?;
            match parse_answer(&line, self.output_names.len()) {
                Some(bits) => *answer = Some(bits),
                None => {
                    malformed.get_or_insert(line);
                }
            }
        }
        if let Some(line) = malformed {
            self.salvage = Some(Salvage {
                patterns: inputs.to_vec(),
                answers,
            });
            return Err(ProcessOracleError::BadAnswer(line));
        }
        self.queries += inputs.len() as u64;
        Ok(answers.into_iter().flatten().collect())
    }
}

/// Parses one answer line: exactly `width` characters of 0/1.
fn parse_answer(line: &str, width: usize) -> Option<Vec<bool>> {
    let bits = line
        .trim()
        .bytes()
        .map(|c| match c {
            b'0' => Some(false),
            b'1' => Some(true),
            _ => None,
        })
        .collect::<Option<Vec<bool>>>()?;
    (bits.len() == width).then_some(bits)
}

impl Oracle for ProcessOracle {
    fn num_inputs(&self) -> usize {
        self.input_names.len()
    }

    fn num_outputs(&self) -> usize {
        self.output_names.len()
    }

    fn input_names(&self) -> &[String] {
        &self.input_names
    }

    fn output_names(&self) -> &[String] {
        &self.output_names
    }

    fn try_query_batch(&mut self, inputs: &[Assignment]) -> Result<Vec<Vec<bool>>, OracleError> {
        self.exchange(inputs).map_err(OracleError::from)
    }

    fn queries(&self) -> u64 {
        self.queries
    }
}

impl Respawn for ProcessOracle {
    fn respawn(&mut self) -> Result<(), OracleError> {
        self.respawn_process().map_err(OracleError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_logic::Var;

    /// A shell black box over `width` inputs: y0 = first bit, y1 = NOT
    /// first bit. `extra` is spliced in as the first `case` arms, so a
    /// test can make chosen patterns misbehave.
    fn spawn_sh_with(width: usize, extra: &str) -> ProcessOracle {
        let script = format!(
            "while read line; do case $line in {extra} 1*) echo 10;; *) echo 01;; esac; done"
        );
        ProcessOracle::spawn(
            "sh",
            &["-c", &script],
            (0..width).map(|k| format!("i{k}")).collect(),
            vec!["y0".into(), "y1".into()],
        )
        .expect("sh is available")
    }

    fn spawn_sh() -> ProcessOracle {
        spawn_sh_with(3, "")
    }

    /// A pattern of `width` bits with the given first two bits.
    fn pattern(width: usize, first: bool, second: bool) -> Assignment {
        let mut a = Assignment::zeros(width);
        a.set(Var::new(0), first);
        a.set(Var::new(1), second);
        a
    }

    /// The answer of `spawn_sh_with` to a well-behaved pattern.
    fn answer(first: bool) -> Vec<bool> {
        vec![first, !first]
    }

    #[test]
    fn round_trips_queries() {
        let mut o = spawn_sh();
        assert_eq!(o.num_inputs(), 3);
        assert_eq!(o.num_outputs(), 2);
        let zeros = Assignment::zeros(3);
        assert_eq!(o.query(&zeros), vec![false, true]);
        let mut ones = Assignment::zeros(3);
        ones.set(Var::new(0), true);
        assert_eq!(o.query(&ones), vec![true, false]);
        assert_eq!(o.queries(), 2);
    }

    #[test]
    fn batch_uses_single_process() {
        let mut o = spawn_sh();
        let patterns: Vec<Assignment> = (0..8u32)
            .map(|m| Assignment::from_bits((0..3).map(|k| m >> k & 1 == 1)))
            .collect();
        let outs = o.query_batch(&patterns);
        for (k, row) in outs.iter().enumerate() {
            assert_eq!(row[0], k % 2 == 1);
        }
        assert_eq!(o.queries(), 8);
        // The batch answers exactly what single queries answer.
        let singles: Vec<Vec<bool>> = patterns
            .iter()
            .map(|p| o.try_query(p).expect("healthy child"))
            .collect();
        assert_eq!(outs, singles);
        assert_eq!(o.queries(), 16);
    }

    #[test]
    fn empty_batch_writes_nothing() {
        let mut o = spawn_sh();
        assert_eq!(
            o.try_query_batch(&[]).expect("no-op"),
            Vec::<Vec<bool>>::new()
        );
        // A stray line would have been answered `01` and read as the
        // answer to this query.
        assert_eq!(o.query(&pattern(3, true, false)), answer(true));
        assert_eq!(o.queries(), 1);
    }

    #[test]
    fn batch_larger_than_the_pipe_buffer_completes() {
        // 5,000 lines of 200 bits is about 1 MB of queries, far beyond
        // a 64 KiB pipe buffer: the child must be able to answer while
        // the batch is still being written.
        let width = 200;
        let mut o = spawn_sh_with(width, "");
        let patterns: Vec<Assignment> = (0..5_000)
            .map(|k| pattern(width, k % 3 == 0, k % 2 == 0))
            .collect();
        let answers = o.try_query_batch(&patterns).expect("no deadlock");
        assert_eq!(answers.len(), patterns.len());
        for (k, row) in answers.iter().enumerate() {
            assert_eq!(row, &answer(k % 3 == 0), "pattern {k}");
        }
        assert_eq!(o.queries(), 5_000);
    }

    #[test]
    fn malformed_answer_mid_batch_keeps_the_stream_in_sync() {
        // Patterns whose second bit is 1 are answered `?`.
        let mut o = spawn_sh_with(3, "?1*) echo '?';;");
        let batch = [
            pattern(3, false, false),
            pattern(3, true, true),
            pattern(3, true, false),
            pattern(3, false, false),
        ];
        let r = o.try_query_batch(&batch);
        assert!(matches!(r, Err(OracleError::Malformed(_))), "got {r:?}");
        assert_eq!(o.queries(), 0, "a failed batch is not counted");
        // Every answer of the failed batch was drained: the next batch
        // on the same child reads its own answers.
        let next = [pattern(3, true, false), pattern(3, false, false)];
        assert_eq!(
            o.try_query_batch(&next).expect("stream in sync"),
            vec![answer(true), answer(false)]
        );
        assert_eq!(o.queries(), 2);
    }

    #[test]
    fn retrying_a_malformed_batch_resends_only_the_bad_lines() {
        // Every third line the child reads is answered `?`.
        let mut o = ProcessOracle::spawn(
            "sh",
            &[
                "-c",
                r#"n=0; while read line; do
                       n=$((n+1))
                       if [ $((n % 3)) -eq 0 ]; then echo '?';
                       else case $line in 1*) echo 10;; *) echo 01;; esac; fi
                   done"#,
            ],
            vec!["a".into(), "b".into()],
            vec!["y0".into(), "y1".into()],
        )
        .expect("sh is available");
        let batch: Vec<Assignment> = (0..4).map(|k| pattern(2, k % 2 == 0, false)).collect();
        // Lines 1-4: line 3 is bad.
        assert!(o.try_query_batch(&batch).is_err());
        // The retry sends only pattern 2, as line 5. Sending all four
        // again would hit the bad line 6.
        let answers = o
            .try_query_batch(&batch)
            .expect("only the bad line is re-asked");
        let want: Vec<Vec<bool>> = (0..4).map(|k| answer(k % 2 == 0)).collect();
        assert_eq!(answers, want);
        assert_eq!(o.queries(), 4);
        // Line 6 is bad: the salvage was used up by the retry.
        assert!(o.try_query(&batch[0]).is_err());
    }

    #[test]
    fn hang_mid_batch_trips_the_watchdog_and_respawn_recovers() {
        // A pattern whose second bit is 1 hangs the child for good. With
        // 2,000 lines of 200 bits the batch also outgrows the pipe
        // buffer, so the watchdog must fire while the child has stopped
        // reading the rest of the batch.
        let width = 200;
        for len in [4, 2_000] {
            let mut o = spawn_sh_with(width, "?1*) exec sleep 60;;");
            o.set_read_timeout(Some(Duration::from_millis(200)));
            let mut batch: Vec<Assignment> = (0..len)
                .map(|k| pattern(width, k % 2 == 0, false))
                .collect();
            batch[2] = pattern(width, true, true);
            let r = o.try_query_batch(&batch);
            assert!(matches!(r, Err(OracleError::Timeout(_))), "got {r:?}");
            assert_eq!(o.queries(), 0);
            o.respawn_process().expect("respawn");
            let next = [pattern(width, true, false), pattern(width, false, false)];
            assert_eq!(
                o.try_query_batch(&next).expect("fresh child"),
                vec![answer(true), answer(false)]
            );
            assert_eq!(o.queries(), 2);
        }
    }

    #[test]
    fn spawn_failure_is_reported() {
        let r = ProcessOracle::spawn(
            "/nonexistent/black_box_binary",
            &[],
            vec!["a".into()],
            vec!["y".into()],
        );
        assert!(matches!(r, Err(ProcessOracleError::Spawn(_))));
    }

    #[test]
    fn hang_hits_the_watchdog_deadline() {
        let mut o = ProcessOracle::spawn(
            "sh",
            &["-c", "read line; sleep 60"],
            vec!["a".into()],
            vec!["y".into()],
        )
        .expect("sh is available");
        o.set_read_timeout(Some(Duration::from_millis(80)));
        match o.try_query(&Assignment::zeros(1)) {
            // A timeout classifies as needing a respawn.
            Err(e @ OracleError::Timeout(_)) => assert!(e.needs_respawn()),
            r => panic!("expected a timeout, got {r:?}"),
        }
    }

    #[test]
    fn crash_surfaces_as_death_and_respawn_recovers() {
        let mut o = ProcessOracle::spawn(
            "sh",
            &[
                "-c",
                // Answer the first query, then exit.
                r#"read line; echo 0; exit 3"#,
            ],
            vec!["a".into()],
            vec!["y".into()],
        )
        .expect("sh is available");
        assert_eq!(o.query(&Assignment::zeros(1)), vec![false]);
        // The child has exited; the next query sees a dead transport.
        let r = o.try_query(&Assignment::zeros(1));
        match r {
            Err(e) => assert!(e.needs_respawn(), "unexpected error class: {e}"),
            Ok(_) => panic!("query against a dead child must fail"),
        }
        // Respawn brings a fresh incarnation of the same program.
        o.respawn_process().expect("respawn");
        assert!(o.is_alive());
        assert_eq!(
            o.try_query(&Assignment::zeros(1)).expect("fresh child"),
            vec![false]
        );
        // Query accounting survives the respawn.
        assert_eq!(o.queries(), 2);
    }

    #[test]
    fn malformed_answer_is_reported_not_panicked() {
        let mut o = ProcessOracle::spawn(
            "sh",
            &["-c", r#"while read line; do echo xyzzy; done"#],
            vec!["a".into()],
            vec!["y".into()],
        )
        .expect("sh is available");
        let r = o.try_query(&Assignment::zeros(1));
        assert!(matches!(r, Err(OracleError::Malformed(_))), "got {r:?}");
    }

    #[test]
    fn drop_reaps_the_child() {
        let mut o = ProcessOracle::spawn(
            "sh",
            &["-c", "while read line; do echo 0; done"],
            vec!["a".into()],
            vec!["y".into()],
        )
        .expect("sh is available");
        let pid = o.transport.child.id();
        assert!(o.is_alive());
        drop(o);
        // After drop the PID must no longer be one of our children; a
        // kill(0) probe from a different process object is racy, so
        // just check /proc when available (Linux CI) — the zombie
        // state would show as 'Z' if the child were unreaped.
        let status = std::fs::read_to_string(format!("/proc/{pid}/stat"));
        if let Ok(s) = status {
            assert!(
                !s.contains(") Z "),
                "child {pid} left as a zombie after drop: {s}"
            );
        }
    }
}
