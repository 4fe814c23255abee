//! End-user integration: drive the `cirlearn` binary through a full
//! generate → inspect → learn → evaluate round trip.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cirlearn"))
}

/// The u64 at `keys` in a written run report, 0 when absent: a counter
/// that never moved is left out of the report.
fn report_u64(json: &cirlearn_telemetry::json::Json, keys: &[&str]) -> u64 {
    keys.iter()
        .try_fold(json, |j, k| j.get(k))
        .and_then(cirlearn_telemetry::json::Json::as_u64)
        .unwrap_or(0)
}

fn tempdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cirlearn-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn gen_learn_eval_roundtrip() {
    let dir = tempdir();
    let hidden = dir.join("hidden.aag");
    let learned = dir.join("learned.aag");
    let verilog = dir.join("learned.v");

    // gen
    let out = bin()
        .args(["gen", "diag", "24", "2", "--seed", "11", "-o"])
        .arg(&hidden)
        .output()
        .expect("run gen");
    assert!(
        out.status.success(),
        "gen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(hidden.exists());

    // stats
    let out = bin().arg("stats").arg(&hidden).output().expect("run stats");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("inputs=24"), "{stdout}");
    assert!(stdout.contains("outputs=2"), "{stdout}");

    // learn
    let out = bin()
        .args(["learn"])
        .arg(&hidden)
        .args(["--budget", "20", "-o"])
        .arg(&learned)
        .arg("--verilog")
        .arg(&verilog)
        .output()
        .expect("run learn");
    assert!(
        out.status.success(),
        "learn failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("accuracy=100.000%"), "{stdout}");
    assert!(learned.exists() && verilog.exists());
    let v = std::fs::read_to_string(&verilog).expect("read verilog");
    assert!(v.starts_with("module learned ("));

    // eval
    let out = bin()
        .arg("eval")
        .arg(&hidden)
        .arg(&learned)
        .args(["--patterns", "5000"])
        .output()
        .expect("run eval");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("meets_bar=true"), "{stdout}");

    // opt is a no-op-or-better on the learned circuit
    let out = bin()
        .arg("opt")
        .arg(&learned)
        .args(["--budget", "5"])
        .output()
        .expect("run opt");
    assert!(out.status.success());

    // Both export paths (gen and learn -o) are analyze-clean at the
    // default severity gate.
    let out = bin()
        .arg("analyze")
        .arg(&hidden)
        .arg(&learned)
        .output()
        .expect("run analyze");
    assert!(
        out.status.success(),
        "exported circuits failed analyze: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn learn_report_stage_queries_sum_to_stdout_total() {
    use cirlearn_telemetry::{counters, json::Json};

    // Own directory: gen_learn_eval_roundtrip removes the shared one.
    let dir = std::env::temp_dir().join(format!("cirlearn-cli-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let hidden = dir.join("hidden.aag");
    let report = dir.join("report.json");

    let out = bin()
        .args(["gen", "eco", "16", "2", "--seed", "31", "-o"])
        .arg(&hidden)
        .output()
        .expect("run gen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["learn"])
        .arg(&hidden)
        .args(["--budget", "30", "--report"])
        .arg(&report)
        .output()
        .expect("run learn");
    assert!(
        out.status.success(),
        "learn failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let queries: u64 = stdout
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("queries="))
        .expect("stdout reports queries=")
        .parse()
        .expect("queries= is a number");

    let text = std::fs::read_to_string(&report).expect("report file written");
    let json = Json::parse(&text).expect("report is valid JSON");
    let stages = json
        .get("stages")
        .and_then(Json::as_array)
        .expect("report has stages");
    let top_level_queries: u64 = stages
        .iter()
        .filter(|s| {
            !s.get("path")
                .and_then(Json::as_str)
                .unwrap_or("")
                .contains('/')
        })
        .map(|s| report_u64(s, &["counters", counters::ORACLE_QUERIES]))
        .sum();
    assert_eq!(
        top_level_queries, queries,
        "per-stage queries in {report:?} must sum to the stdout total"
    );
    assert_eq!(
        report_u64(&json, &["counters", counters::ORACLE_QUERIES]),
        queries
    );
    assert!(
        !json
            .get("outputs")
            .and_then(Json::as_array)
            .expect("report has outputs")
            .is_empty(),
        "report carries per-output stats"
    );
    assert_eq!(
        json.get("meta")
            .and_then(|m| m.get("command"))
            .and_then(Json::as_str),
        Some("learn")
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn learn_with_sat_checking_stays_clean_and_reports_counters() {
    use cirlearn_telemetry::{counters, json::Json};

    let dir = std::env::temp_dir().join(format!("cirlearn-cli-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let hidden = dir.join("hidden.aag");
    let report = dir.join("report.json");

    let out = bin()
        .args(["gen", "diag", "16", "2", "--seed", "7", "-o"])
        .arg(&hidden)
        .output()
        .expect("run gen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["learn"])
        .arg(&hidden)
        .args(["--budget", "30", "--check", "sat", "--report"])
        .arg(&report)
        .output()
        .expect("run learn");
    assert!(
        out.status.success(),
        "learn --check sat failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&report).expect("report file written");
    let json = Json::parse(&text).expect("report is valid JSON");
    let counter = |name: &str| report_u64(&json, &["counters", name]);
    assert!(
        counter(counters::VERIFY_CHECKS) > 0,
        "SAT checking must verify at least one optimization pass"
    );
    assert_eq!(
        counter(counters::VERIFY_REJECTED_PASSES),
        0,
        "no bundled pass may be rejected by the checker"
    );
    assert_eq!(counter(counters::VERIFY_LINT_VIOLATIONS), 0);
    assert_eq!(counter(counters::VERIFY_WITNESSES), 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_accepts_clean_files_and_rejects_dangling_nodes() {
    let dir = std::env::temp_dir().join(format!("cirlearn-cli-lint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let clean = dir.join("clean.aag");
    let dangling = dir.join("dangling.aag");

    let out = bin()
        .args(["gen", "neq", "12", "2", "--seed", "3", "-o"])
        .arg(&clean)
        .output()
        .expect("run gen");
    assert!(out.status.success());

    let out = bin().arg("lint").arg(&clean).output().expect("run lint");
    assert!(
        out.status.success(),
        "lint rejected a generated circuit: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("clean"));

    // Hand-written file whose single AND never feeds an output: parses
    // fine, but the strict linter must flag it.
    std::fs::write(&dangling, "aag 3 2 0 1 1\n2\n4\n2\n6 2 4\n").expect("write aag");
    let out = bin().arg("lint").arg(&dangling).output().expect("run lint");
    assert!(!out.status.success(), "dangling AND must fail lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unreachable from every output"), "{stdout}");

    // The escape hatch tolerates exactly that class of violation.
    let out = bin()
        .args(["lint", "--allow-dangling"])
        .arg(&dangling)
        .output()
        .expect("run lint");
    assert!(
        out.status.success(),
        "--allow-dangling must accept the file: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_gates_on_severity_and_writes_a_report() {
    use cirlearn_telemetry::json::Json;

    let dir = std::env::temp_dir().join(format!("cirlearn-cli-analyze-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let clean = dir.join("clean.aag");
    let dangling = dir.join("dangling.aag");
    let report = dir.join("analysis.json");

    let out = bin()
        .args(["gen", "data", "12", "2", "--seed", "5", "-o"])
        .arg(&clean)
        .output()
        .expect("run gen");
    assert!(out.status.success());

    // A generated circuit is clean at the default (warning) gate.
    let out = bin()
        .arg("analyze")
        .arg(&clean)
        .output()
        .expect("run analyze");
    assert!(
        out.status.success(),
        "analyze rejected a generated circuit: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("clean"));

    // Hand-written file with a dead AND: the parser accepts it, the
    // dead analysis must flag it, and the default gate must trip.
    std::fs::write(&dangling, "aag 3 2 0 1 1\n2\n4\n2\n6 2 4\n").expect("write aag");
    let out = bin()
        .arg("analyze")
        .arg(&dangling)
        .arg("--report")
        .arg(&report)
        .output()
        .expect("run analyze");
    assert!(!out.status.success(), "dead AND must fail the default gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unreachable from every output"), "{stdout}");

    // The JSON report names the file, the finding and the metrics.
    let text = std::fs::read_to_string(&report).expect("report written");
    let json = Json::parse(&text).expect("report is valid JSON");
    let files = json
        .get("files")
        .and_then(Json::as_array)
        .expect("files array");
    assert_eq!(files.len(), 1);
    let findings = files[0]
        .get("findings")
        .and_then(Json::as_array)
        .expect("findings array");
    assert!(!findings.is_empty());
    assert_eq!(
        findings[0].get("analysis").and_then(Json::as_str),
        Some("dead")
    );
    assert!(files[0].get("metrics").is_some(), "{text}");

    // Raising the gate to `error` tolerates the waste.
    let out = bin()
        .args(["analyze", "--deny", "error"])
        .arg(&dangling)
        .output()
        .expect("run analyze");
    assert!(
        out.status.success(),
        "--deny error must tolerate warnings: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Chaos test: `learn-bb` against a scripted flaky black box that
/// answers garbage once, hangs once and crashes once — the run must
/// complete, recover through retries and respawns, and still emit a
/// lint-clean circuit.
#[test]
fn learn_bb_survives_a_flaky_black_box() {
    use cirlearn_telemetry::json::Json;

    let dir = std::env::temp_dir().join(format!("cirlearn-cli-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let state = dir.join("state");
    std::fs::create_dir_all(&state).expect("create state dir");
    let script = dir.join("flaky.sh");
    let learned = dir.join("learned.aag");
    let report = dir.join("report.json");

    // y = a XOR b. The query counter persists in the state dir across
    // incarnations; each fault is marker-guarded so it fires exactly
    // once in the whole run: a malformed answer at query 5, a hang at
    // query 9 (the 1 s watchdog must fire long before the 5 s sleep
    // ends), a crash at query 13.
    std::fs::write(
        &script,
        r#"state=$1
n=0
[ -f "$state/count" ] && read n < "$state/count"
while read line; do
  n=$((n+1))
  echo "$n" > "$state/count"
  if [ "$n" -eq 5 ] && [ ! -e "$state/malformed" ]; then : > "$state/malformed"; echo zz; continue; fi
  if [ "$n" -eq 9 ] && [ ! -e "$state/hang" ]; then : > "$state/hang"; sleep 5; fi
  if [ "$n" -eq 13 ] && [ ! -e "$state/crash" ]; then : > "$state/crash"; exit 7; fi
  case "$line" in
    00*|11*) echo 0 ;;
    *) echo 1 ;;
  esac
done
"#,
    )
    .expect("write flaky black box");

    let out = bin()
        .args(["learn-bb", "--cmd", "sh", "--args"])
        .arg(format!("{} {}", script.display(), state.display()))
        .args([
            "--inputs",
            "a,b,n0,n1",
            "--outputs",
            "y",
            "--budget",
            "60",
            "--oracle-timeout",
            "1",
            "--oracle-retries",
            "4",
            "--oracle-backoff",
            "0.01",
            "--report",
        ])
        .arg(&report)
        .arg("-o")
        .arg(&learned)
        .output()
        .expect("run learn-bb");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "learn-bb failed: {stderr}");

    // Every scripted fault actually fired.
    for marker in ["malformed", "hang", "crash"] {
        assert!(
            state.join(marker).exists(),
            "fault {marker} never fired; the chaos run tested nothing"
        );
    }

    // The run report records the recovery.
    let text = std::fs::read_to_string(&report).expect("report file written");
    let json = Json::parse(&text).expect("report is valid JSON");
    let fault = |name: &str| report_u64(&json, &["faults", name]);
    assert!(fault("retries") > 0, "retries must be recorded: {text}");
    assert!(fault("respawns") > 0, "respawns must be recorded: {text}");
    assert!(fault("timeouts") > 0, "the hang must register: {text}");
    assert_eq!(
        fault("degraded_outputs"),
        0,
        "transient faults must be absorbed, not degraded: {text}"
    );

    // The learned circuit is still strict-lint clean.
    let out = bin().arg("lint").arg(&learned).output().expect("run lint");
    assert!(
        out.status.success(),
        "chaos-learned circuit failed lint: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_flag_rejects_unknown_levels() {
    let out = bin()
        .args(["learn", "whatever.aag", "--check", "paranoid"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--check"), "{stderr}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = bin()
        .args(["stats", "/nonexistent/file.aag"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: reading"), "{stderr}");
}

/// Runs `cirlearn <args>` with stdout on a pipe, reads one line, then
/// closes the pipe while the command still has output to write.
fn read_one_line_then_close(args: &[&str]) -> std::process::Output {
    use std::io::BufRead;
    use std::process::Stdio;

    let mut child = bin()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cirlearn");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read one line");
    assert!(!line.is_empty(), "{args:?} printed nothing");
    // The reader (and with it the pipe) is dropped here.
    child.wait_with_output().expect("wait for cirlearn")
}

#[test]
fn closed_stdout_ends_every_command_quietly() {
    let dir = std::env::temp_dir().join(format!("cirlearn-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    // 20,000 outputs: `stats` prints one line per output, far more than
    // the 64 KiB a pipe buffers.
    let wide = dir.join("wide.aag");
    let mut text = String::from("aag 1 1 0 20000 0\n2\n");
    text.push_str(&"2\n".repeat(20_000));
    std::fs::write(&wide, text).expect("write aag");
    let wide = wide.to_str().expect("utf-8 temp path");

    for args in [
        vec!["stats", wide],
        vec!["gen", "neq", "512", "256", "--seed", "1"],
    ] {
        let out = read_one_line_then_close(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
        assert!(out.status.success(), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn status_channel_feeds_the_top_subcommand() {
    use cirlearn_telemetry::{json::Json, StatusSnapshot};

    // A learn run with --status leaves a finalized snapshot behind;
    // `top --once` renders it (the live-follow loop exercises exactly
    // the same read path, then waits — --once is the scriptable mode).
    let dir = std::env::temp_dir().join(format!("cirlearn-cli-status-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let hidden = dir.join("hidden.aag");
    let status = dir.join("status.json");

    let out = bin()
        .args(["gen", "eco", "16", "2", "--seed", "31", "-o"])
        .arg(&hidden)
        .output()
        .expect("run gen");
    assert!(out.status.success());

    let out = bin()
        .arg("learn")
        .arg(&hidden)
        .args(["--budget", "20"])
        .arg("--status")
        .arg(&status)
        .output()
        .expect("run learn");
    assert!(
        out.status.success(),
        "learn failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(status.exists(), "--status wrote a snapshot");

    // The snapshot parses through the public API and is finalized.
    let text = std::fs::read_to_string(&status).expect("read status");
    let snap = StatusSnapshot::parse(&text).expect("status parses");
    assert!(snap.done, "finished runs leave a done snapshot");
    assert_eq!(snap.outputs_done, snap.outputs_total);
    assert!(snap.queries > 0, "query gauge advanced");
    assert!(
        Json::parse(&text).is_ok(),
        "snapshot stays plain JSON for other tooling"
    );

    // `top --once` renders it without error.
    let out = bin()
        .args(["top"])
        .arg(&status)
        .arg("--once")
        .output()
        .expect("run top");
    assert!(
        out.status.success(),
        "top failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("done"), "{stdout}");
    assert!(stdout.contains("outputs"), "{stdout}");
    assert!(stdout.contains("queries"), "{stdout}");

    // A missing file is a clean error in --once mode.
    let out = bin()
        .args(["top", "/nonexistent/status.json", "--once"])
        .output()
        .expect("run top");
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[cfg(unix)]
fn faulted_run_leaves_a_flight_dump_black_box() {
    use cirlearn_telemetry::json::Json;

    // The oracle fault-dump hook: a black box that dies mid-run and
    // refuses to respawn latches a terminal failure, and the latch
    // dumps the flight recorder — the events leading up to the fault
    // are exactly what a post-mortem needs. The wrapper script serves
    // 200 queries on its first life, then refuses every respawn (the
    // marker file), so the resilient layer's respawn + replay probe
    // path runs and still ends in a terminal fault.
    let dir = std::env::temp_dir().join(format!("cirlearn-cli-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let flight = dir.join("dead.flight.jsonl");
    let marker = dir.join("spawned-once");
    let script = dir.join("mortal-oracle.sh");
    // The relay must forward line by line (`head` would block-buffer
    // into the pipe and stall the query/answer lockstep), and it must
    // cut the feed after 200 queries so the blackbox sees EOF and
    // dies mid-run.
    std::fs::write(
        &script,
        format!(
            concat!(
                "#!/bin/sh\n",
                "if [ -e \"{m}\" ]; then exit 1; fi\n",
                "touch \"{m}\"\n",
                "n=0\n",
                "while [ $n -lt 200 ] && read -r line; do\n",
                "  echo \"$line\"\n",
                "  n=$((n+1))\n",
                "done | \"{bin}\" blackbox neq 16 2 --seed 9\n",
            ),
            m = marker.display(),
            bin = env!("CARGO_BIN_EXE_cirlearn"),
        ),
    )
    .expect("write wrapper script");
    use std::os::unix::fs::PermissionsExt as _;
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
        .expect("chmod wrapper");

    let out = bin()
        .arg("learn-bb")
        .args(["--cmd"])
        .arg(&script)
        .args([
            "--inputs",
            &(0..16)
                .map(|k| format!("i{k}"))
                .collect::<Vec<_>>()
                .join(","),
            "--outputs",
            "y0,y1",
        ])
        .args(["--seed", "5", "--budget", "60", "--check", "off"])
        .args(["--oracle-timeout", "5"])
        .arg("--flight")
        .arg(&flight)
        .arg("-o")
        .arg(dir.join("dead.aag"))
        .output()
        .expect("run learn-bb");
    // The run degrades and finishes (whatever the exit code policy for
    // faulted runs is); what matters here is the black box it left.
    assert!(
        flight.exists(),
        "the terminal fault left a flight dump (stderr: {})",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&flight).expect("read dump");
    let mut reasons = Vec::new();
    for line in text.lines() {
        let parsed = Json::parse(line).expect("dump lines are valid JSON");
        if parsed.get("kind").and_then(Json::as_str) == Some("flight") {
            if let Some(r) = parsed.get("reason").and_then(Json::as_str) {
                reasons.push(r.to_owned());
            }
        }
    }
    assert!(
        reasons.iter().any(|r| r == "fault"),
        "dump marker names the fault trigger, got {reasons:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
