//! `cirlearn` — the command-line front end of the circuit-learning
//! toolkit.
//!
//! ```text
//! cirlearn learn <hidden.aag> [-o learned.aag] [--verilog out.v]
//!                [--budget SECS] [--seed N] [--no-preprocessing] [--paper-scale]
//!                [--check off|lint|sim|sat]
//!                [--checkpoint ckpt.clck] [--checkpoint-interval SECS]
//!                [--resume ckpt.clck]
//!                [--report report.json] [--log-level LEVEL] [--verbose]
//! cirlearn learn-bb --cmd <program> [--args ARGSTR] --inputs a,b,c --outputs y,z
//!                [--oracle-timeout SECS] [--oracle-retries N]
//!                [--oracle-backoff SECS] [--oracle-respawn on|off]
//!                [--checkpoint ckpt.clck] [--resume ckpt.clck]
//! cirlearn eval <golden.aag> <candidate.aag> [--patterns N] [--seed N]
//! cirlearn gen <neq|eco|diag|data> <#PI> <#PO> [--seed N] [-o out.aag]
//! cirlearn blackbox <neq|eco|diag|data> <#PI> <#PO> [--seed N]
//!                [--support K] [--flake-every N]
//! cirlearn opt <input.aag> [-o out.aag] [--budget SECS] [--check off|lint|sim|sat]
//! cirlearn analyze <input.aag> [...] [--deny info|warning|error]
//!                [--report out.json] [--fanout-threshold N]
//! cirlearn stats <input.aag>
//! cirlearn trace summary <trace.jsonl> [--top N]
//! cirlearn trace export <trace.jsonl> --chrome [-o out.json]
//! cirlearn trace diff <old.jsonl> <new.jsonl> [--pct P] [--min-ms N]
//! ```
//!
//! `learn` treats the input circuit as a black box (only its query
//! interface is used), runs the DAC'20 pipeline and writes the learned
//! circuit; `eval` scores a candidate with the contest's three-way
//! biased pattern mix; `gen` emits a synthetic benchmark of the given
//! contest category.
//!
//! Verification: `--check` selects how hard every optimization pass is
//! validated (`lint` = structural linting of the result, `sim` = 256
//! random-pattern differential simulation, `sat` = full SAT equivalence
//! check); a failing pass is rejected and reported with a minimized
//! counterexample witness. `analyze` checks standalone AIGER files: it
//! runs [`cirlearn_verify::analyze`] — the strict structural lint
//! (dangling ANDs included), high-fanout detection and structural
//! metrics — prints a severity-ordered findings table, optionally
//! writes a JSON report, and exits nonzero when any finding reaches the
//! `--deny` severity (default `warning`), making it a drop-in CI
//! quality gate for exported circuits. `--deny error` tolerates the
//! unreferenced AND nodes foreign exporters sometimes leave behind;
//! files written by this CLI are compacted and pass the default gate.
//!
//! Output: a reader that closes stdout early (`cirlearn stats x.aag |
//! head -1`) is not an error. The rest of stdout is dropped, and the
//! command finishes its other work and exits as it would have.
//!
//! Crash safety: `--checkpoint <path>` makes `learn`/`learn-bb` write
//! a versioned, checksummed snapshot of the full learning state at
//! every `--checkpoint-interval` (default 30s) safe point, atomically
//! (tmp + fsync + rename); SIGINT/SIGTERM suspend the run into the
//! same checkpoint and exit 130. `--resume <path>` continues such a
//! run bit-identically — query and time budgets carry across segments.
//! `--budget SECS` is the one wall and bounds the *total* wall clock
//! across all segments; a resumed segment may set a new one. Past it,
//! the FBDT in flight is synthesized from its already-collected cubes,
//! outputs not yet started become constants, optimization is skipped,
//! and the affected outputs are reported in `degraded` rather than
//! aborting. The `blackbox` subcommand serves a deterministic
//! synthetic benchmark over the `learn-bb` line protocol, so
//! kill/resume drills need no external tooling.
//!
//! Fault tolerance: `learn-bb` wraps the external process in a
//! [`cirlearn_oracle::ResilientOracle`] — `--oracle-timeout` arms a
//! per-query watchdog deadline, `--oracle-retries`/`--oracle-backoff`
//! bound the retry loop (exponential backoff, deterministic jitter),
//! and `--oracle-respawn off` disables the automatic restart of dead
//! black boxes. When the oracle dies beyond recovery the learner
//! degrades the affected outputs to baseline constants instead of
//! aborting; the run report's `faults` section records the activity.
//!
//! Telemetry: `--log-level` (error|warn|info|debug|trace) controls the
//! pipeline narration on stderr (`--verbose` is an alias for `--log-level
//! debug`); `--report <path>` writes a machine-readable JSON run report
//! with per-stage wall clock, oracle-query and latency-histogram
//! breakdowns; `--trace <path>` streams JSONL trace events (span
//! open/close, FBDT node expansions, synthesis passes, oracle faults,
//! checkpoint writes) to a file as the run progresses. Both survive
//! crashes: a drop guard dumps the flight recorder, then flushes the
//! trace stream and a partial `--report` (with
//! `"aborted": "true"` in its meta) when the run panics instead of
//! finishing.
//!
//! Trace analysis: `trace summary` reads a `--trace` stream back and
//! prints hot spans, the per-(stage, output) cost-attribution table
//! (whose query total equals the run's query count) and the critical
//! path; `trace export --chrome` converts the stream to Chrome
//! trace-event JSON for Perfetto / `chrome://tracing`; `trace diff`
//! compares two streams under a relative threshold and absolute noise
//! floors and exits nonzero on regressions.

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use cirlearn::{LearnOutcome, LearnResult, LearnState, Learner, LearnerConfig, RunControl};
use cirlearn_aig::Aig;
use cirlearn_oracle::{
    evaluate_accuracy, generate, CircuitOracle, EvalConfig, Oracle, ResilientOracle, RetryPolicy,
};
use cirlearn_telemetry::{persist, Level, StderrReporter, Telemetry, TraceWriter};

/// `print!` for the subcommands, through [`write_stdout`]: evaluates to
/// a `Result<(), String>`.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` for the subcommands, through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod top_cmd;
mod trace_cmd;

/// Writes to stdout the way `print!` does, except that a reader that
/// has gone away is not an error: the text is dropped, where `print!`
/// would panic. Any other write error is the command's error.
fn write_stdout(args: std::fmt::Arguments<'_>) -> Result<(), String> {
    use std::io::Write as _;
    match std::io::stdout().lock().write_fmt(args) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(format!("writing to stdout: {e}"))
        }
        _ => Ok(()),
    }
}

/// Graceful-interrupt plumbing: SIGINT/SIGTERM set a shared flag the
/// learner polls at its safe points, so an interrupted run suspends
/// into a checkpoint instead of dying mid-stage.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    const SIGINT: i32 = 2;
    const SIGUSR1: i32 = 10; // Linux numbering; this module is cfg(unix) for Linux CI.
    const SIGTERM: i32 = 15;

    static STOP: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    static DUMP: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" fn on_signal(_signum: i32) {
        // Only lock-free atomics here: a signal handler may interrupt
        // arbitrary code, so it must stay async-signal-safe.
        if let Some(flag) = STOP.get() {
            // relaxed-ok: a standalone stop flag; the learner polls it
            // at safe points, no other memory is published through it.
            flag.store(true, Ordering::Relaxed);
        }
    }

    extern "C" fn on_dump_signal(_signum: i32) {
        // Store-only, same async-signal-safety discipline as
        // `on_signal`: the flight-recorder dump itself happens at the
        // learner's next safe point, never inside the handler.
        if let Some(flag) = DUMP.get() {
            // relaxed-ok: a standalone dump flag; the learner swaps it
            // at safe points, no other memory is published through it.
            flag.store(true, Ordering::Relaxed);
        }
    }

    // SAFETY: `signal(2)` is called with a valid signal number and a
    // non-capturing `extern "C"` handler that performs only
    // async-signal-safe operations (atomic load + atomic store).
    unsafe extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the SIGINT/SIGTERM handler (idempotent) and returns
    /// the stop flag it raises.
    pub fn install_stop_flag() -> Arc<AtomicBool> {
        let flag = STOP
            .get_or_init(|| Arc::new(AtomicBool::new(false)))
            .clone();
        // SAFETY: the handler is async-signal-safe (see `on_signal`)
        // and stays valid for the process lifetime (it is a plain fn).
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
        flag
    }

    /// Installs the SIGUSR1 handler (idempotent) and returns the
    /// flight-dump flag it raises. The learner clears the flag and
    /// dumps the flight recorder at its next safe point.
    pub fn install_dump_flag() -> Arc<AtomicBool> {
        let flag = DUMP
            .get_or_init(|| Arc::new(AtomicBool::new(false)))
            .clone();
        // SAFETY: the handler is async-signal-safe (see
        // `on_dump_signal`) and stays valid for the process lifetime.
        unsafe {
            signal(SIGUSR1, on_dump_signal);
        }
        flag
    }
}

#[cfg(not(unix))]
mod sig {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Non-Unix fallback: no handler; the flag never fires and runs
    /// rely on the checkpoint cadence alone.
    pub fn install_stop_flag() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(false))
    }

    /// Non-Unix fallback: no handler; flight dumps still happen on
    /// panic, fault, the spent wall and suspension.
    pub fn install_dump_flag() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(false))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  cirlearn learn <hidden.aag> [-o learned.aag] [--verilog out.v]
                 [--budget SECS] [--max-queries N] [--seed N]
                 [--no-preprocessing] [--paper-scale]
                 [--check off|lint|sim|sat]
                 [--checkpoint ckpt.clck] [--checkpoint-interval SECS]
                 [--resume ckpt.clck]
                 [--report report.json] [--trace trace.jsonl]
                 [--log-level LEVEL] [--verbose]
  cirlearn learn-bb --cmd <program> [--args ARGSTR] --inputs a,b,c --outputs y,z
                 [-o learned.aag] [--budget SECS] [--max-queries N]
                 [--seed N] [--check LEVEL]
                 [--oracle-timeout SECS] [--oracle-retries N]
                 [--oracle-backoff SECS] [--oracle-respawn on|off]
                 [--checkpoint ckpt.clck] [--checkpoint-interval SECS]
                 [--resume ckpt.clck]
                 [--report report.json] [--trace trace.jsonl]
                 [--log-level LEVEL] [--verbose]
  cirlearn eval <golden.aag> <candidate.aag> [--patterns N] [--seed N]
  cirlearn gen <neq|eco|diag|data> <#PI> <#PO> [--seed N] [-o out.aag]
  cirlearn blackbox <neq|eco|diag|data> <#PI> <#PO> [--seed N]
                 [--support K] [--flake-every N]
  cirlearn opt <input.aag> [-o out.aag] [--budget SECS] [--check LEVEL]
  cirlearn analyze <input.aag> [...] [--deny info|warning|error]
                 [--report out.json] [--fanout-threshold N]
  cirlearn stats <input.aag>
  cirlearn top <status.json> [--once] [--interval SECS]
  cirlearn trace summary <trace.jsonl> [...] [--top N]
  cirlearn trace export <trace.jsonl> --chrome [-o out.json]
  cirlearn trace diff <old.jsonl> <new.jsonl> [--pct P] [--min-ms N]

  learn/learn-bb also accept [--status status.json] (live progress
  snapshots for `cirlearn top`) and [--flight <path|off>] (where the
  always-on flight recorder dumps on panic/fault/wall/SIGUSR1).";

/// Minimal flag parser: returns positional arguments and a lookup for
/// `--flag value` / `--flag` options.
pub(crate) struct Opts {
    pub(crate) positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    pub(crate) fn parse(args: &[String], value_flags: &[&str]) -> Result<Opts, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if value_flags.contains(&name) {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("--{name} expects a value"))?;
                    flags.push((name.to_owned(), Some(v.clone())));
                } else {
                    flags.push((name.to_owned(), None));
                }
            } else if a == "-o" {
                let v = it.next().ok_or("-o expects a file name")?;
                flags.push(("o".to_owned(), Some(v.clone())));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Opts { positional, flags })
    }

    pub(crate) fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    pub(crate) fn present(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    pub(crate) fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got {v}")),
        }
    }

    /// A `--name SECS` flag as a duration. A negative, NaN or
    /// out-of-range value is an error, not a panic.
    pub(crate) fn seconds(&self, name: &str, default: f64) -> Result<Duration, String> {
        Duration::try_from_secs_f64(self.number(name, default)?).map_err(|_| {
            format!(
                "--{name} expects a non-negative number of seconds, got {}",
                self.value(name).unwrap_or_default()
            )
        })
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".to_owned());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "learn" => cmd_learn(rest),
        "learn-bb" => cmd_learn_bb(rest),
        "eval" => cmd_eval(rest),
        "gen" => cmd_gen(rest),
        "opt" => cmd_opt(rest),
        "analyze" => cmd_analyze(rest),
        "stats" => cmd_stats(rest),
        "trace" => trace_cmd::cmd_trace(rest),
        "top" => top_cmd::cmd_top(rest),
        "blackbox" => cmd_blackbox(rest),
        other => Err(format!("unknown subcommand {other}")),
    }
}

fn read_aig(path: &str) -> Result<Aig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Aig::from_aiger_ascii(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// All CLI artifacts (learned AIGER, reports, exports) go through the
/// tmp + fsync + rename protocol, so a crash mid-write can never leave
/// a torn half-file where a previous good artifact used to be.
fn write_file(path: &str, contents: &str) -> Result<(), String> {
    persist::write_atomic(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

/// Parses the crash-safety flags shared by `learn` and `learn-bb` into
/// the learner's [`RunControl`]. The SIGINT/SIGTERM handler is only
/// installed when there is a `--checkpoint` path to suspend into;
/// without one, the default die-on-signal behavior is the honest
/// choice (suspending would silently discard the progress anyway).
fn run_control_of(opts: &Opts) -> Result<RunControl, String> {
    let mut ctl = RunControl::default();
    if let Some(path) = opts.value("checkpoint") {
        ctl.checkpoint_path = Some(std::path::PathBuf::from(path));
        ctl.checkpoint_interval = opts.seconds("checkpoint-interval", 30.0)?;
        ctl.stop = Some(sig::install_stop_flag());
    }
    // SIGUSR1 is observability, not suspension: always armed, so any
    // running `learn`/`learn-bb` can be asked for a flight dump.
    ctl.dump = Some(sig::install_dump_flag());
    // Deterministic suspension for tests and scripts: stop at the Nth
    // safe point instead of on a signal.
    if opts.value("stop-after-safe-points").is_some() {
        ctl.stop_after_safe_points = Some(opts.number("stop-after-safe-points", 0u64)?);
    }
    Ok(ctl)
}

/// Terminal path of a suspended run. The engine already wrote the
/// checkpoint at the safe point it stopped on (when `--checkpoint` was
/// given); flush the report/trace and exit 130 so scripts can tell a
/// suspension from a completed run.
fn suspend_exit(
    state: &LearnState,
    ctl: &RunControl,
    telemetry: &Telemetry,
    opts: &Opts,
    guard: &mut ReportGuard,
) -> Result<(), String> {
    telemetry.set_meta("suspended", true);
    match &ctl.checkpoint_path {
        Some(path) => eprintln!(
            "interrupted at a safe point ({}/{} outputs done, {} queries spent); \
             resume with --resume {}",
            state.outputs_done(),
            state.output_names.len(),
            state.queries_used,
            path.display()
        ),
        None => eprintln!("interrupted at a safe point; no --checkpoint path, progress discarded"),
    }
    finish_run(telemetry, opts, guard)?;
    std::process::exit(130);
}

/// Loads the `--resume <checkpoint>` state, if one was given.
fn resume_state_of(opts: &Opts) -> Result<Option<(&str, LearnState)>, String> {
    opts.value("resume")
        .map(|rpath| {
            LearnState::load(rpath)
                .map(|state| (rpath, state))
                .map_err(|e| format!("loading checkpoint {rpath}: {e}"))
        })
        .transpose()
}

/// Runs the learner fresh or — from a loaded `--resume` state — from a
/// suspended run, returning the completed result or exiting through
/// [`suspend_exit`] on a mid-run suspension.
fn drive_learner<O: Oracle>(
    learner: &mut Learner,
    oracle: &mut O,
    resume: Option<(&str, LearnState)>,
    ctl: &RunControl,
    telemetry: &Telemetry,
    opts: &Opts,
    guard: &mut ReportGuard,
) -> Result<LearnResult, String> {
    let outcome = match resume {
        Some((rpath, state)) => learner
            .resume(state, oracle, ctl)
            .map_err(|e| format!("resuming from {rpath}: {e}"))?,
        None => learner.learn_with(oracle, ctl),
    };
    match outcome {
        LearnOutcome::Completed(result) => Ok(*result),
        LearnOutcome::Suspended(state) => {
            suspend_exit(&state, ctl, telemetry, opts, guard)?;
            unreachable!("suspend_exit never returns")
        }
    }
}

/// Parses `--check <off|lint|sim|sat>`; `None` when the flag is absent.
fn check_level_of(opts: &Opts) -> Result<Option<cirlearn_synth::VerifyLevel>, String> {
    match opts.value("check") {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|e| format!("--check: {e}")),
    }
}

/// Builds the telemetry handle from `--log-level` / `--verbose`.
///
/// Telemetry is always enabled in the CLI (the overhead is a handful of
/// span timestamps per output); the level only controls what the stderr
/// reporter prints.
fn telemetry_of(opts: &Opts) -> Result<Telemetry, String> {
    let level = match opts.value("log-level") {
        Some(v) => Level::from_str(v)?,
        None if opts.present("verbose") => Level::Debug,
        None => Level::Warn,
    };
    let telemetry = Telemetry::new(Box::new(StderrReporter::new(level)));
    if let Some(path) = opts.value("trace") {
        let writer = TraceWriter::to_file(std::path::Path::new(path))
            .map_err(|e| format!("opening trace file {path}: {e}"))?;
        telemetry.set_trace(writer);
    }
    if let Some(path) = opts.value("status") {
        telemetry.set_status_path(Some(std::path::PathBuf::from(path)));
    }
    // The flight recorder is always on; `--flight <path>` picks where
    // dumps land, `--flight off` turns the recorder off entirely. With
    // neither, dumps go next to the report or trace artifact when one
    // exists, otherwise to the temp dir — a panicking run always
    // leaves a black box somewhere.
    match opts.value("flight") {
        Some("off") => telemetry.disable_flight(),
        Some(path) => telemetry.set_flight_dump_path(Some(std::path::PathBuf::from(path))),
        None => {
            let derived = opts
                .value("report")
                .or_else(|| opts.value("trace"))
                .map(|p| std::path::PathBuf::from(format!("{p}.flight.jsonl")))
                .unwrap_or_else(|| {
                    std::env::temp_dir()
                        .join(format!("cirlearn-{}.flight.jsonl", std::process::id()))
                });
            telemetry.set_flight_dump_path(Some(derived));
        }
    }
    Ok(telemetry)
}

/// Flushes the `--report` JSON and the trace stream even when a run
/// panics or errors out mid-way, so a crashed run still leaves a
/// partial report behind for debugging.
///
/// On the normal path [`finish_run`] disarms the guard after writing
/// the complete report; the armed `Drop` path marks the report's meta
/// with `aborted` before writing whatever the telemetry accumulated.
struct ReportGuard {
    telemetry: Telemetry,
    report_path: Option<String>,
    armed: bool,
}

impl ReportGuard {
    fn new(telemetry: &Telemetry, opts: &Opts) -> ReportGuard {
        ReportGuard {
            telemetry: telemetry.clone(),
            report_path: opts.value("report").map(str::to_owned),
            armed: true,
        }
    }

    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for ReportGuard {
    fn drop(&mut self) {
        if self.armed {
            // The armed path is the black-box moment: dump the flight
            // recorder first (it flushes the trace stream itself, so
            // the file on disk keeps pace with the dump).
            let reason = if std::thread::panicking() {
                "panic"
            } else {
                "abort"
            };
            if let Some(path) = self.telemetry.dump_flight(reason) {
                eprintln!("wrote flight-recorder dump to {}", path.display());
            }
            self.telemetry.trace_attribution();
            self.telemetry.set_meta("aborted", true);
            self.telemetry
                .event(Level::Warn, "run aborted; flushing partial report");
            if let Some(path) = &self.report_path {
                let json = self.telemetry.report().to_json().to_pretty();
                if persist::write_atomic(path, json).is_ok() {
                    eprintln!("wrote partial report to {path}");
                }
            }
        }
        self.telemetry.flush_trace();
    }
}

/// Prints the per-output summary lines on stderr.
fn print_output_summary(result: &LearnResult) {
    for s in &result.outputs {
        eprintln!(
            "  output {:>3} ({}): {} (support {}, {} queries, {:.3}s, gates {} -> {})",
            s.output,
            s.name,
            s.strategy,
            s.support_size,
            s.queries,
            s.elapsed.as_secs_f64(),
            s.gates_before_opt,
            s.gates_after_opt
        );
    }
}

/// Writes the JSON run report when `--report <path>` was given, and
/// prints the per-stage breakdown at the end of a run. Disarms the
/// crash guard: from here the complete report is on disk.
fn finish_run(telemetry: &Telemetry, opts: &Opts, guard: &mut ReportGuard) -> Result<(), String> {
    guard.disarm();
    telemetry.trace_attribution();
    // The final status snapshot: progress pinned, `done: true`, so
    // `cirlearn top --follow` knows to stop.
    telemetry.finalize_status();
    let report = telemetry.report();
    eprint!("{}", report.stage_breakdown());
    if let Some(path) = opts.value("report") {
        write_file(path, &report.to_json().to_pretty())?;
        eprintln!("wrote {path}");
    }
    telemetry.flush_trace();
    Ok(())
}

fn cmd_learn(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &[
            "budget",
            "seed",
            "verilog",
            "check",
            "report",
            "trace",
            "log-level",
            "max-queries",
            "checkpoint",
            "checkpoint-interval",
            "resume",
            "stop-after-safe-points",
            "status",
            "flight",
        ],
    )?;
    let [input] = opts.positional.as_slice() else {
        return Err("learn expects exactly one input file".to_owned());
    };
    let hidden = read_aig(input)?;
    let mut oracle = CircuitOracle::new(hidden);

    let mut config = if opts.present("paper-scale") {
        LearnerConfig::default()
    } else {
        LearnerConfig::fast()
    };
    config.time_budget = opts.seconds("budget", 60.0)?;
    config.seed = opts.number("seed", config.seed)?;
    if opts.value("max-queries").is_some() {
        config.max_queries = Some(opts.number("max-queries", 0u64)?);
    }
    if opts.present("no-preprocessing") {
        config.preprocessing = false;
    }
    if let Some(level) = check_level_of(&opts)? {
        config
            .optimize
            .get_or_insert_with(cirlearn_synth::OptimizeConfig::default)
            .verify
            .level = level;
    }
    let telemetry = telemetry_of(&opts)?;
    telemetry.set_meta("command", "learn");
    telemetry.set_meta("case", input);
    telemetry.set_meta("seed", config.seed);
    telemetry.set_meta("budget_s", config.time_budget.as_secs_f64());
    let mut guard = ReportGuard::new(&telemetry, &opts);

    eprintln!(
        "learning {} ({} inputs, {} outputs) ...",
        input,
        oracle.num_inputs(),
        oracle.num_outputs()
    );
    let ctl = run_control_of(&opts)?;
    let resume = resume_state_of(&opts)?;
    let mut learner = Learner::with_telemetry(config, telemetry.clone());
    let result = drive_learner(
        &mut learner,
        &mut oracle,
        resume,
        &ctl,
        &telemetry,
        &opts,
        &mut guard,
    )?;
    print_output_summary(&result);
    if !result.degraded.is_empty() {
        eprintln!(
            "degraded outputs {:?}: synthesized from partial evidence or constants",
            result.degraded
        );
    }
    eprintln!(
        "learned {} gates in {:.1?} with {} queries",
        result.circuit.gate_count(),
        result.elapsed,
        result.queries
    );
    let acc = evaluate_accuracy(
        oracle.reveal(),
        &result.circuit,
        &EvalConfig {
            patterns_per_group: 20_000,
            ..EvalConfig::default()
        },
    );
    let mapped = cirlearn_synth::map::map_gates(&result.circuit).gate_count();
    outln!(
        "size={mapped} aig_ands={} accuracy={} time={:.3}s queries={}",
        result.circuit.gate_count(),
        acc,
        result.elapsed.as_secs_f64(),
        result.queries
    )?;
    if let Some(path) = opts.value("o") {
        // Compact before export so the file passes strict `lint`.
        write_file(path, &result.circuit.cleanup().to_aiger_ascii())?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = opts.value("verilog") {
        write_file(path, &result.circuit.to_verilog("learned"))?;
        eprintln!("wrote {path}");
    }
    finish_run(&telemetry, &opts, &mut guard)
}

/// Learns an *external* black box over the line protocol of
/// [`cirlearn_oracle::ProcessOracle`]. Accuracy cannot be reported (no
/// golden circuit); the learned AIGER is the deliverable.
fn cmd_learn_bb(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &[
            "cmd",
            "args",
            "inputs",
            "outputs",
            "budget",
            "seed",
            "check",
            "report",
            "trace",
            "log-level",
            "oracle-timeout",
            "oracle-retries",
            "oracle-backoff",
            "oracle-respawn",
            "max-queries",
            "checkpoint",
            "checkpoint-interval",
            "resume",
            "stop-after-safe-points",
            "status",
            "flight",
        ],
    )?;
    let program = opts.value("cmd").ok_or("learn-bb requires --cmd")?;
    let split_names = |s: &str| -> Vec<String> {
        s.split(',')
            .map(|t| t.trim().to_owned())
            .filter(|t| !t.is_empty())
            .collect()
    };
    let inputs = split_names(opts.value("inputs").ok_or("learn-bb requires --inputs")?);
    let outputs = split_names(opts.value("outputs").ok_or("learn-bb requires --outputs")?);
    if inputs.is_empty() || outputs.is_empty() {
        return Err("empty --inputs or --outputs".to_owned());
    }
    let extra_args: Vec<String> = opts
        .value("args")
        .map(|a| a.split_whitespace().map(str::to_owned).collect())
        .unwrap_or_default();
    let arg_refs: Vec<&str> = extra_args.iter().map(String::as_str).collect();
    let resume = resume_state_of(&opts)?;
    let mut inner = cirlearn_oracle::ProcessOracle::spawn(program, &arg_refs, inputs, outputs)
        .map_err(|e| e.to_string())?;
    if opts.value("oracle-timeout").is_some() {
        inner.set_read_timeout(Some(opts.seconds("oracle-timeout", 0.0)?));
    }
    let respawn = match opts.value("oracle-respawn").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(format!("--oracle-respawn expects on|off, got {other}")),
    };

    let mut config = LearnerConfig::fast();
    config.time_budget = opts.seconds("budget", 60.0)?;
    config.seed = opts.number("seed", config.seed)?;
    if opts.value("max-queries").is_some() {
        config.max_queries = Some(opts.number("max-queries", 0u64)?);
    }
    if let Some(level) = check_level_of(&opts)? {
        config
            .optimize
            .get_or_insert_with(cirlearn_synth::OptimizeConfig::default)
            .verify
            .level = level;
    }
    let telemetry = telemetry_of(&opts)?;
    telemetry.set_meta("command", "learn-bb");
    telemetry.set_meta("case", program);
    telemetry.set_meta("seed", config.seed);
    let mut guard = ReportGuard::new(&telemetry, &opts);

    let policy = RetryPolicy {
        max_retries: opts.number("oracle-retries", 3u32)?,
        backoff_base: opts.seconds("oracle-backoff", 0.05)?,
        respawn,
        seed: config.seed,
        ..RetryPolicy::default()
    };
    let mut oracle = ResilientOracle::with_telemetry(inner, policy, telemetry.clone());
    // No retry is scheduled past the wall; prior segments spent part
    // of it. A wall too far off to represent sets no deadline.
    let spent = resume
        .as_ref()
        .map_or(Duration::ZERO, |(_, s)| s.elapsed_before);
    oracle.set_deadline(
        std::time::Instant::now().checked_add(config.time_budget.saturating_sub(spent)),
    );
    let ctl = run_control_of(&opts)?;
    let mut learner = Learner::with_telemetry(config, telemetry.clone());
    let result = drive_learner(
        &mut learner,
        &mut oracle,
        resume,
        &ctl,
        &telemetry,
        &opts,
        &mut guard,
    )?;
    print_output_summary(&result);
    let stats = oracle.fault_stats();
    if stats.retries > 0 || stats.respawns > 0 {
        eprintln!(
            "oracle faults: {} retries, {} timeouts, {} respawns",
            stats.retries, stats.timeouts, stats.respawns
        );
    }
    if result.faults.any() {
        eprintln!(
            "degraded {} output(s){}",
            result.faults.degraded_outputs,
            result
                .faults
                .oracle_error
                .as_deref()
                .map(|e| format!(" ({e})"))
                .unwrap_or_default()
        );
    }
    let mapped = cirlearn_synth::map::map_gates(&result.circuit).gate_count();
    outln!(
        "size={mapped} aig_ands={} time={:.3}s queries={}",
        result.circuit.gate_count(),
        result.elapsed.as_secs_f64(),
        result.queries
    )?;
    if let Some(path) = opts.value("o") {
        write_file(path, &result.circuit.cleanup().to_aiger_ascii())?;
        eprintln!("wrote {path}");
    }
    finish_run(&telemetry, &opts, &mut guard)
}

fn cmd_eval(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["patterns", "seed"])?;
    let [golden_path, candidate_path] = opts.positional.as_slice() else {
        return Err("eval expects two input files".to_owned());
    };
    let golden = read_aig(golden_path)?;
    let candidate = read_aig(candidate_path)?;
    if golden.num_inputs() != candidate.num_inputs()
        || golden.num_outputs() != candidate.num_outputs()
    {
        return Err(format!(
            "interface mismatch: {}x{} vs {}x{}",
            golden.num_inputs(),
            golden.num_outputs(),
            candidate.num_inputs(),
            candidate.num_outputs()
        ));
    }
    let acc = evaluate_accuracy(
        &golden,
        &candidate,
        &EvalConfig {
            patterns_per_group: opts.number("patterns", 100_000usize)?,
            seed: opts.number("seed", 0xE7A1u64)?,
            ..EvalConfig::default()
        },
    );
    outln!(
        "accuracy={} hits={} total={} meets_bar={}",
        acc,
        acc.hits,
        acc.total,
        acc.meets_contest_bar()
    )?;
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["seed"])?;
    let [category, pi, po] = opts.positional.as_slice() else {
        return Err("gen expects: <category> <#PI> <#PO>".to_owned());
    };
    let pi: usize = pi.parse().map_err(|_| format!("bad #PI {pi}"))?;
    let po: usize = po.parse().map_err(|_| format!("bad #PO {po}"))?;
    let seed = opts.number("seed", 1u64)?;
    let cat = match category.to_ascii_lowercase().as_str() {
        "neq" => generate::Category::Neq,
        "eco" => generate::Category::Eco,
        "diag" => generate::Category::Diag,
        "data" => generate::Category::Data,
        other => return Err(format!("unknown category {other} (neq|eco|diag|data)")),
    };
    let oracle = generate::case(cat, pi, po, seed);
    // Compact before export so the benchmark passes strict `lint`.
    let text = oracle.reveal().cleanup().to_aiger_ascii();
    match opts.value("o") {
        Some(path) => {
            write_file(path, &text)?;
            eprintln!(
                "wrote {path}: {} ({} gates)",
                cat,
                oracle.reveal().gate_count()
            );
        }
        None => out!("{text}")?,
    }
    Ok(())
}

fn cmd_opt(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["budget", "check", "log-level"])?;
    let [input] = opts.positional.as_slice() else {
        return Err("opt expects exactly one input file".to_owned());
    };
    let aig = read_aig(input)?;
    let mut cfg = cirlearn_synth::OptimizeConfig {
        time_budget: opts.seconds("budget", 60.0)?,
        ..cirlearn_synth::OptimizeConfig::default()
    };
    if let Some(level) = check_level_of(&opts)? {
        cfg.verify.level = level;
    }
    let telemetry = telemetry_of(&opts)?;
    let before = aig.gate_count();
    let best = cirlearn_synth::optimize_with(&aig, &cfg, &telemetry);
    outln!("gates: {before} -> {}", best.gate_count())?;
    if let Some(path) = opts.value("o") {
        write_file(path, &best.cleanup().to_aiger_ascii())?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Runs [`cirlearn_verify::analyze`] over one or more AIGER files:
/// the strict structural lint plus high-fanout detection and
/// structural metrics.
///
/// Prints a severity-ordered findings table per file, writes a combined
/// JSON report when `--report <path>` is given, and fails (nonzero
/// exit) when any finding reaches the `--deny` severity (default
/// `warning`; `--deny error` tolerates waste but not corruption,
/// `--deny info` is the strictest gate).
fn cmd_analyze(args: &[String]) -> Result<(), String> {
    use cirlearn_telemetry::json::Json;
    use cirlearn_verify::Severity;

    let opts = Opts::parse(args, &["deny", "report", "fanout-threshold"])?;
    if opts.positional.is_empty() {
        return Err("analyze expects one or more input files".to_owned());
    }
    let deny = match opts.value("deny") {
        None => Severity::Warning,
        Some(v) => v.parse().map_err(|e| format!("--deny: {e}"))?,
    };
    let fanout_threshold = opts.number("fanout-threshold", 64usize)?;

    let mut dirty = 0usize;
    let mut file_reports: Vec<Json> = Vec::new();
    for path in &opts.positional {
        let aig = read_aig(path)?;
        let analysis = cirlearn_verify::analyze(&aig, fanout_threshold);
        let denied = analysis.count_at_least(deny);
        if denied == 0 {
            eprintln!(
                "{path}: clean at --deny {deny} ({} finding(s) below the gate)",
                analysis.findings.len()
            );
        } else {
            dirty += 1;
            outln!("{path}: {denied} finding(s) at or above {deny}")?;
        }
        out!("{}", analysis_table(&analysis))?;
        if opts.value("report").is_some() {
            let mut fields = vec![
                ("path", Json::from(path.as_str())),
                (
                    "findings",
                    Json::Array(analysis.findings.iter().map(finding_json).collect()),
                ),
            ];
            if let Some(m) = &analysis.metrics {
                fields.push(("metrics", metrics_json(m)));
            }
            file_reports.push(Json::object(fields));
        }
    }
    if let Some(path) = opts.value("report") {
        let json = Json::object([
            ("schema_version", Json::from(1u64)),
            ("deny", Json::from(deny.as_str())),
            ("files", Json::Array(file_reports)),
        ]);
        write_file(path, &json.to_pretty())?;
        eprintln!("wrote {path}");
    }
    if dirty > 0 {
        return Err(format!(
            "{dirty} of {} file(s) failed analysis at --deny {deny}",
            opts.positional.len()
        ));
    }
    Ok(())
}

/// A finding as `analyze` words it. Dead and duplicate ANDs read as
/// facts about the node here, not as the violations `Display` words.
fn finding_message(finding: &cirlearn_verify::LintViolation) -> String {
    use cirlearn_verify::LintViolation;
    match *finding {
        LintViolation::DanglingAnd { node } => {
            format!("node {node}: unreachable from every output")
        }
        LintViolation::DuplicateFaninPair { node, first } => {
            format!("node {node}: duplicates node {first} (same fanin pair)")
        }
        ref other => other.to_string(),
    }
}

/// The `--report` JSON form of one finding.
fn finding_json(finding: &cirlearn_verify::LintViolation) -> cirlearn_telemetry::json::Json {
    use cirlearn_telemetry::json::Json;
    Json::object([
        ("analysis", Json::from(finding.analysis())),
        ("severity", Json::from(finding.severity().as_str())),
        ("message", Json::from(finding_message(finding).as_str())),
        ("node", Json::from(finding.node() as u64)),
    ])
}

/// The `--report` JSON form of the structural metrics.
fn metrics_json(m: &cirlearn_verify::Metrics) -> cirlearn_telemetry::json::Json {
    use cirlearn_telemetry::json::Json;
    Json::object([
        ("inputs", Json::from(m.num_inputs as u64)),
        ("outputs", Json::from(m.num_outputs as u64)),
        ("ands", Json::from(m.and_count as u64)),
        ("live_ands", Json::from(m.live_ands as u64)),
        ("dead_ands", Json::from(m.dead_ands as u64)),
        ("depth", Json::from(m.depth as u64)),
        ("max_fanout", Json::from(m.max_fanout as u64)),
        (
            "output_cones",
            Json::Array(
                m.output_cones
                    .iter()
                    .map(|&c| Json::from(c as u64))
                    .collect(),
            ),
        ),
    ])
}

/// The human-readable findings table and metrics line of one file
/// (empty when there are neither).
fn analysis_table(analysis: &cirlearn_verify::Analysis) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if !analysis.findings.is_empty() {
        let _ = writeln!(
            out,
            "  {:<8} {:<8} {:>6}  finding",
            "severity", "analysis", "node"
        );
        for f in &analysis.findings {
            let _ = writeln!(
                out,
                "  {:<8} {:<8} {:>6}  {}",
                f.severity(),
                f.analysis(),
                f.node(),
                finding_message(f)
            );
        }
    }
    if let Some(m) = &analysis.metrics {
        let _ = write!(
            out,
            "  metrics: {} inputs, {} outputs, {} ands ({} live, {} dead), depth {}, max fanout {}",
            m.num_inputs,
            m.num_outputs,
            m.and_count,
            m.live_ands,
            m.dead_ands,
            m.depth,
            m.max_fanout
        );
        if let Some(node) = m.max_fanout_node {
            let _ = write!(out, " (node {node})");
        }
        let _ = writeln!(out);
    }
    out
}

/// Serves a deterministic synthetic benchmark over the
/// [`cirlearn_oracle::ProcessOracle`] line protocol (one line of 0/1
/// input bits in, one line of output bits out), so `learn-bb` — and
/// the kill/resume chaos harness — have a real external black box to
/// talk to without any extra tooling.
///
/// `--support K` picks the per-output cone size for the `neq`/`eco`
/// generators (the FBDT difficulty knob); `--flake-every N` answers
/// every Nth query with a deliberately malformed line, exercising the
/// resilient transport's retry path deterministically.
fn cmd_blackbox(args: &[String]) -> Result<(), String> {
    use std::io::{BufRead, Write};

    let opts = Opts::parse(args, &["seed", "support", "flake-every"])?;
    let [category, pi, po] = opts.positional.as_slice() else {
        return Err("blackbox expects: <category> <#PI> <#PO>".to_owned());
    };
    let pi: usize = pi.parse().map_err(|_| format!("bad #PI {pi}"))?;
    let po: usize = po.parse().map_err(|_| format!("bad #PO {po}"))?;
    let seed = opts.number("seed", 1u64)?;
    let flake_every: u64 = opts.number("flake-every", 0u64)?;
    let mut oracle = match (
        category.to_ascii_lowercase().as_str(),
        opts.value("support"),
    ) {
        ("neq", Some(_)) => {
            generate::neq_case_with_support(pi, po, opts.number("support", 0usize)?, seed)
        }
        ("eco", Some(_)) => {
            generate::eco_case_with_support(pi, po, opts.number("support", 0usize)?, seed)
        }
        (_, Some(_)) => {
            return Err("--support only applies to the neq|eco categories".to_owned());
        }
        ("neq", None) => generate::case(generate::Category::Neq, pi, po, seed),
        ("eco", None) => generate::case(generate::Category::Eco, pi, po, seed),
        ("diag", None) => generate::case(generate::Category::Diag, pi, po, seed),
        ("data", None) => generate::case(generate::Category::Data, pi, po, seed),
        (other, None) => return Err(format!("unknown category {other} (neq|eco|diag|data)")),
    };
    let stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();
    let mut served = 0u64;
    for line in stdin.lines() {
        let line = line.map_err(|e| format!("reading query: {e}"))?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.len() != pi || !line.bytes().all(|b| b == b'0' || b == b'1') {
            return Err(format!("malformed query (want {pi} bits of 0/1): {line}"));
        }
        served += 1;
        let answer = if flake_every > 0 && served.is_multiple_of(flake_every) {
            // A deliberately bad answer: wrong width, non-binary.
            "?".to_owned()
        } else {
            let assignment = cirlearn_logic::Assignment::from_bits(line.bytes().map(|b| b == b'1'));
            oracle
                .query(&assignment)
                .into_iter()
                .map(|b| if b { '1' } else { '0' })
                .collect()
        };
        match writeln!(stdout, "{answer}").and_then(|()| stdout.flush()) {
            // The learner closed the pipe: the session is over.
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => return Ok(()),
            Err(e) => return Err(format!("writing answer: {e}")),
            Ok(()) => {}
        }
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &[])?;
    let [input] = opts.positional.as_slice() else {
        return Err("stats expects exactly one input file".to_owned());
    };
    let aig = read_aig(input)?;
    outln!(
        "inputs={} outputs={} gates={} mapped={} depth={} nodes={}",
        aig.num_inputs(),
        aig.num_outputs(),
        aig.gate_count(),
        cirlearn_synth::map::map_gates(&aig).gate_count(),
        aig.depth(),
        aig.node_count()
    )?;
    for (k, (_, name)) in aig.outputs().iter().enumerate() {
        let sup = aig.output_support(k);
        outln!("  output {k} ({name}): structural support {}", sup.len())?;
    }
    Ok(())
}
