//! Kill/resume chaos drill for the checkpoint state machine, end to
//! end through the real binary.
//!
//! A `learn-bb` process learns a deterministic external black box (the
//! `cirlearn blackbox` subcommand) while writing a checkpoint at every
//! safe point. The test SIGKILLs it at randomized times — no graceful
//! handler runs, exactly like a crash or OOM kill — resumes from
//! whatever checkpoint survived, and repeats until a segment finishes.
//! The stitched-together run must then be *equivalent* to an
//! uninterrupted reference run: same final query count (the budget
//! ledger carries across segments) and a SAT-proven identical circuit
//! function.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use cirlearn_aig::Aig;
use cirlearn_sat::check_equivalence;

const BIN: &str = env!("CARGO_BIN_EXE_cirlearn");
const NUM_INPUTS: usize = 26;
const BLACKBOX_ARGS: &str = "blackbox neq 26 2 --seed 131 --support 22";

/// xorshift64* — a tiny deterministic PRNG for the kill schedule, so a
/// failing schedule can be replayed from the seed.
struct KillRng(u64);

impl KillRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn input_names() -> String {
    (0..NUM_INPUTS)
        .map(|k| format!("i{k}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Spawns `learn-bb` against the synthetic black box. `resume_from`
/// continues from a checkpoint; `checkpoint` (interval 0 = every safe
/// point) arms crash recovery.
fn spawn_learn(out: &Path, checkpoint: Option<&Path>, resume_from: Option<&Path>) -> Child {
    let mut cmd = Command::new(BIN);
    cmd.arg("learn-bb")
        .args(["--cmd", BIN, "--args", BLACKBOX_ARGS])
        .args(["--inputs", &input_names(), "--outputs", "y0,y1"])
        .args(["--seed", "7", "--budget", "600", "--max-queries", "60000"])
        .args(["--check", "off"])
        .arg("-o")
        .arg(out)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(ck) = checkpoint {
        cmd.arg("--checkpoint").arg(ck);
        cmd.args(["--checkpoint-interval", "0"]);
    }
    if let Some(ck) = resume_from {
        cmd.arg("--resume").arg(ck);
    }
    cmd.spawn().expect("spawn learn-bb")
}

/// Runs a learn to completion, returning its stdout summary line.
fn run_to_completion(out: &Path, checkpoint: Option<&Path>, resume_from: Option<&Path>) -> String {
    let child = spawn_learn(out, checkpoint, resume_from);
    let output = child.wait_with_output().expect("wait learn-bb");
    assert!(
        output.status.success(),
        "learn-bb failed: {:?}",
        output.status
    );
    String::from_utf8(output.stdout).expect("utf8 stdout")
}

/// Extracts `queries=N` from the CLI's stdout summary line.
fn queries_of(stdout: &str) -> u64 {
    stdout
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("queries=")?.parse().ok())
        .expect("stdout carries queries=N")
}

fn read_aig(path: &Path) -> Aig {
    let text = std::fs::read_to_string(path).expect("read AIGER");
    Aig::from_aiger_ascii(&text).expect("parse AIGER")
}

#[test]
fn sigkilled_run_resumes_to_the_reference_circuit() {
    let dir = std::env::temp_dir().join(format!("cirlearn-kill-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ck: PathBuf = dir.join("run.clck");
    let ref_out = dir.join("reference.aag");
    let chaos_out = dir.join("chaos.aag");

    // Uninterrupted reference run (no checkpointing at all). Its wall
    // time sets the scale of the kill delays, so they land mid-run on
    // a fast host and a loaded one alike.
    let ref_start = std::time::Instant::now();
    let ref_stdout = run_to_completion(&ref_out, None, None);
    let ref_wall = ref_start.elapsed();
    let ref_queries = queries_of(&ref_stdout);

    // Chaos loop: SIGKILL at randomized points, then resume from the
    // surviving checkpoint. Kill delays are drawn from 2% to 80% of the
    // reference run's wall time, sweeping the whole run so kills land
    // in support sampling, FBDT expansion and the tail.
    let mut rng = KillRng(0x5EED_CAFE);
    let mut segments = 0u32;
    let mut kills = 0u32;
    let final_stdout = loop {
        segments += 1;
        assert!(segments <= 60, "chaos run failed to converge");
        let resume_from = ck.exists().then_some(ck.as_path());
        let mut child = spawn_learn(&chaos_out, Some(&ck), resume_from);
        let fraction = (20 + rng.next() % 780) as f64 / 1000.0;
        let delay = ref_wall.mul_f64(fraction);
        let deadline = std::time::Instant::now() + delay;
        let finished = loop {
            if let Some(status) = child.try_wait().expect("try_wait") {
                break Some(status);
            }
            if std::time::Instant::now() >= deadline {
                break None;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        match finished {
            Some(status) => {
                assert!(status.success(), "learn-bb segment failed: {status:?}");
                let mut stdout = String::new();
                use std::io::Read as _;
                child
                    .stdout
                    .take()
                    .expect("stdout piped")
                    .read_to_string(&mut stdout)
                    .expect("read stdout");
                break stdout;
            }
            None => {
                // SIGKILL: no handler, no atexit — a genuine crash.
                child.kill().expect("kill");
                child.wait().expect("reap");
                kills += 1;
            }
        }
    };

    assert!(
        kills >= 1,
        "kill delays never landed mid-run (reference run took {ref_wall:?})"
    );
    assert_eq!(
        queries_of(&final_stdout),
        ref_queries,
        "cumulative query ledger must match the uninterrupted run"
    );

    // SAT-CEC: the stitched-together circuit computes the reference
    // function on every input.
    let reference = read_aig(&ref_out);
    let chaos = read_aig(&chaos_out);
    assert!(
        check_equivalence(&reference, &chaos).is_equivalent(),
        "resumed circuit diverged from the uninterrupted reference"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigusr1_mid_run_dumps_a_parseable_flight_recording() {
    use cirlearn_telemetry::json::Json;

    // SIGUSR1 is observability, not suspension: the run must dump the
    // flight recorder at the next safe point and then finish normally,
    // and the dump must be readable by the offline trace tooling.
    let dir = std::env::temp_dir().join(format!("cirlearn-usr1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = dir.join("usr1.aag");
    let flight = dir.join("usr1.flight.jsonl");

    let mut child = Command::new(BIN)
        .arg("learn-bb")
        .args(["--cmd", BIN, "--args", BLACKBOX_ARGS])
        .args(["--inputs", &input_names(), "--outputs", "y0,y1"])
        .args(["--seed", "7", "--budget", "600", "--max-queries", "60000"])
        .args(["--check", "off"])
        .arg("--flight")
        .arg(&flight)
        .arg("-o")
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn learn-bb");

    // Let the run get going, then poke it until a dump lands (the
    // signal is re-sent on a short cadence so the test is robust to
    // machine speed; each dump atomically replaces the file).
    std::thread::sleep(Duration::from_millis(100));
    let mut signalled = false;
    for _ in 0..100 {
        if child.try_wait().expect("try_wait").is_some() {
            break;
        }
        let sent = Command::new("kill")
            .args(["-USR1", &child.id().to_string()])
            .status()
            .expect("send SIGUSR1");
        signalled |= sent.success();
        if flight.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        signalled,
        "never managed to signal the run; it exited too fast"
    );
    let status = child.wait().expect("wait learn-bb");
    assert!(
        status.success(),
        "SIGUSR1 must not disturb the run: {status:?}"
    );
    assert!(flight.exists(), "signal dump was written");

    // The dump is well-formed JSONL in the trace envelope: every line
    // parses, t_us is monotone per tid, and the flight marker names
    // the trigger.
    let text = std::fs::read_to_string(&flight).expect("read dump");
    let mut last_by_tid: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut kinds = std::collections::BTreeSet::new();
    let mut reason = None;
    for line in text.lines() {
        let parsed = Json::parse(line).expect("dump lines are valid JSON");
        let tid = parsed.get("tid").and_then(Json::as_u64).expect("tid");
        let t_us = parsed.get("t_us").and_then(Json::as_u64).expect("t_us");
        let last = last_by_tid.entry(tid).or_insert(0);
        assert!(*last <= t_us, "t_us went backwards within tid {tid}");
        *last = t_us;
        let kind = parsed.get("kind").and_then(Json::as_str).expect("kind");
        kinds.insert(kind.to_owned());
        if kind == "flight" {
            reason = parsed
                .get("reason")
                .and_then(Json::as_str)
                .map(str::to_owned);
        }
    }
    assert!(kinds.contains("flight"), "dump carries the flight marker");
    assert_eq!(
        reason.as_deref(),
        Some("signal"),
        "marker names the trigger"
    );
    assert!(kinds.contains("metrics"), "dump carries a metrics trailer");

    // The offline tooling accepts the dump unchanged.
    let summary = Command::new(BIN)
        .args(["trace", "summary"])
        .arg(&flight)
        .output()
        .expect("run trace summary");
    assert!(
        summary.status.success(),
        "trace summary rejected the dump: {}",
        String::from_utf8_lossy(&summary.stderr)
    );
    let export = Command::new(BIN)
        .args(["trace", "export", "--chrome"])
        .arg(&flight)
        .output()
        .expect("run trace export");
    assert!(
        export.status.success(),
        "trace export rejected the dump: {}",
        String::from_utf8_lossy(&export.stderr)
    );
    let chrome =
        Json::parse(&String::from_utf8(export.stdout).expect("utf-8")).expect("chrome JSON");
    assert!(
        chrome
            .get("traceEvents")
            .and_then(Json::as_array)
            .is_some_and(|evs| !evs.is_empty()),
        "chrome export carries events"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flaky_transport_and_checkpointing_compose() {
    // The retry path (malformed answers every 97th query) and the
    // checkpoint cadence running together must still converge and
    // stay deterministic enough to resume: suspend at a fixed safe
    // point, resume, and expect the run to complete cleanly.
    let dir = std::env::temp_dir().join(format!("cirlearn-flaky-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ck = dir.join("flaky.clck");
    let out = dir.join("flaky.aag");

    let status = Command::new(BIN)
        .arg("learn-bb")
        .args(["--cmd", BIN])
        .args(["--args", "blackbox neq 20 2 --seed 9 --flake-every 97"])
        .args([
            "--inputs",
            &(0..20)
                .map(|k| format!("i{k}"))
                .collect::<Vec<_>>()
                .join(","),
            "--outputs",
            "y0,y1",
        ])
        .args(["--seed", "5", "--budget", "600", "--max-queries", "20000"])
        .args(["--check", "off", "--stop-after-safe-points", "1"])
        .arg("--checkpoint")
        .arg(&ck)
        .arg("-o")
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run learn-bb");
    assert_eq!(status.code(), Some(130), "suspension exits 130");
    assert!(ck.exists(), "suspension wrote the checkpoint");

    let status = Command::new(BIN)
        .arg("learn-bb")
        .args(["--cmd", BIN])
        .args(["--args", "blackbox neq 20 2 --seed 9 --flake-every 97"])
        .args([
            "--inputs",
            &(0..20)
                .map(|k| format!("i{k}"))
                .collect::<Vec<_>>()
                .join(","),
            "--outputs",
            "y0,y1",
        ])
        .args(["--seed", "5", "--budget", "600", "--max-queries", "20000"])
        .args(["--check", "off"])
        .arg("--resume")
        .arg(&ck)
        .arg("-o")
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("resume learn-bb");
    assert!(status.success(), "resumed run completes");
    assert!(out.exists(), "resumed run wrote the circuit");

    let _ = std::fs::remove_dir_all(&dir);
}
