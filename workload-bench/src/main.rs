//! Clock-free workload benchmark for the cirlearn learner.
//!
//! ```text
//! workload-bench --workload <name> --seed N --seconds S --trace 0|1
//! workload-bench serve <case> <order> <flake-every>
//! ```
//!
//! The first form runs one workload (see `README.md`) for about `S`
//! seconds, and at least one round of its presentations, and prints, as the last line of stdout, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, measured with telemetry off;
//! with `--trace 1` they are the per-layer ones, from one traced
//! repetition plus fixed-input layer replays. Per-case rows and the
//! trace stream land in `.bench_out/` under the working directory.
//! The process exits 1 when an output check failed, and 2 without a
//! result line on bad arguments or when the benchmark cannot run.
//!
//! The second form is the external black box of the `blackbox_pipe`
//! workload: it serves one contest case, inputs in order `order` (see
//! `workload::Case`), over the line protocol of `ProcessOracle`,
//! answering every `flake-every`-th query with a malformed line.

use std::io::{BufRead, Write};
use std::process::ExitCode;

use cirlearn_oracle::Oracle;
use cirlearn_workload_bench::traced;
use cirlearn_workload_bench::workload::{self, find_workload, Outcome};

/// Where per-case records and trace streams are written.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage:
  workload-bench --workload <support_sweep|fbdt_capped|synth_checked|blackbox_pipe> \
--seed N --seconds S --trace 0|1
  workload-bench serve <case> <order> <flake-every>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("serve") {
        serve(&args[1..]).map(|()| ExitCode::SUCCESS)
    } else {
        match parse_args(&args) {
            Ok(args) => run(&args),
            Err(msg) => Err(format!("{msg}\n{USAGE}")),
        }
    };
    result.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        ExitCode::from(2)
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let w = find_workload(&args.workload)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let outcome = if args.trace {
        traced::run(w, args.seed, args.seconds, OUT_DIR)?
    } else {
        workload::run(w, args.seed, args.seconds, OUT_DIR)?
    };
    print_result(&outcome);
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Prints every metric by name and unit to stderr, then the JSON
/// result line to stdout.
fn print_result(outcome: &Outcome) {
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        // JSON has no NaN or infinity; a metric that is undefined on
        // this workload (a ratio over zero work) reads 0.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        ));
    }
    line.push_str("}}");
    println!("{line}");
}

/// The black-box child of `blackbox_pipe`: answers the line protocol
/// for one contest case until stdin closes. The loop is the one of
/// `cirlearn blackbox`, which builds its circuit from a generator
/// category instead of a contest case in a presentation order.
fn serve(args: &[String]) -> Result<(), String> {
    let [name, order, flake_every] = args else {
        return Err("serve expects: <case> <order> <flake-every>".to_owned());
    };
    let order: u64 = order.parse().map_err(|_| format!("bad order {order}"))?;
    let flake_every: u64 = flake_every
        .parse()
        .map_err(|_| format!("bad flake-every {flake_every}"))?;
    let mut oracle = workload::Case::new(name, order)?.build();
    let pi = oracle.num_inputs();
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
        let answer: String = if flake_every > 0 && served.is_multiple_of(flake_every) {
            "?".to_owned()
        } else {
            let pattern = cirlearn_logic::Assignment::from_bits(line.bytes().map(|b| b == b'1'));
            oracle
                .query(&pattern)
                .into_iter()
                .map(|b| if b { '1' } else { '0' })
                .collect()
        };
        writeln!(stdout, "{answer}").map_err(|e| format!("writing answer: {e}"))?;
        stdout
            .flush()
            .map_err(|e| format!("flushing answer: {e}"))?;
    }
    Ok(())
}
