//! Golden output of `cirlearn analyze`.
//!
//! Every run below is recorded in `data/analyze/golden.txt`: the
//! command line, the exit code, stdout, stderr up to the usage block,
//! and for `analyze --report` the JSON report. The inputs are the
//! example circuits plus hand-written AIGER fixtures with a dead cone
//! and a high-fanout node. Two more fixtures hold a duplicate AND pair
//! and a constant-provable node; the AIGER reader strashes and folds,
//! so both are rejected at parse time, and the golden pins that too.
//! (The in-memory findings for those two kinds are covered by
//! `cirlearn-verify`'s injection tests.)
//!
//! On a mismatch the actual output is written to the system temp dir
//! as `cirlearn-analyze-golden.actual.txt`, so a deliberate change of
//! the output can be reviewed and copied over the fixture.

use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDEN: &str = include_str!("data/analyze/golden.txt");

const FILES: [&str; 6] = [
    "examples/circuits/data_16x2.aag",
    "examples/circuits/diag_24x2.aag",
    "examples/circuits/eco_12x2.aag",
    "examples/circuits/neq_16x2.aag",
    "crates/cli/tests/data/analyze/dead_cone.aag",
    "crates/cli/tests/data/analyze/high_fanout.aag",
];

const DUPLICATE: &str = "crates/cli/tests/data/analyze/duplicate_pair.aag";
const CONSTANT: &str = "crates/cli/tests/data/analyze/constant_node.aag";
const DEAD: &str = "crates/cli/tests/data/analyze/dead_cone.aag";
const HUB: &str = "crates/cli/tests/data/analyze/high_fanout.aag";
const ECO: &str = "examples/circuits/eco_12x2.aag";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `cirlearn <args>` from the repository root and appends its
/// record to `out`. A `<report>` argument is replaced by a scratch
/// path, and the report it names is appended too.
fn record(out: &mut String, scratch: &Path, args: &[&str]) {
    let report = scratch.join("report.json");
    let _ = std::fs::remove_file(&report);
    let report_str = report.to_str().expect("utf-8 temp path");
    let argv: Vec<&str> = args
        .iter()
        .map(|&a| if a == "<report>" { report_str } else { a })
        .collect();
    let output = Command::new(env!("CARGO_BIN_EXE_cirlearn"))
        .current_dir(repo_root())
        .args(&argv)
        .output()
        .expect("run cirlearn");
    let stderr = String::from_utf8_lossy(&output.stderr).replace(report_str, "<report>");
    // The usage block after an error line is pinned elsewhere.
    let stderr = stderr.split("\n\n").next().unwrap_or_default();
    out.push_str(&format!("$ cirlearn {}\n", args.join(" ")));
    out.push_str(&format!("exit: {}\n", output.status.code().unwrap_or(-1)));
    out.push_str("--- stdout\n");
    out.push_str(&String::from_utf8_lossy(&output.stdout));
    out.push_str("--- stderr\n");
    out.push_str(stderr.trim_end());
    out.push('\n');
    if args.contains(&"<report>") {
        out.push_str("--- report\n");
        match std::fs::read_to_string(&report) {
            Ok(text) => out.push_str(text.trim_end()),
            Err(_) => out.push_str("(not written)"),
        }
        out.push('\n');
    }
    out.push('\n');
}

#[test]
fn analyze_and_lint_match_the_golden() {
    let scratch =
        std::env::temp_dir().join(format!("cirlearn-analyze-golden-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create temp dir");
    let mut out = String::new();

    let with_files = |head: &[&'static str]| -> Vec<&'static str> {
        let mut args = head.to_vec();
        args.extend(FILES);
        args
    };
    record(
        &mut out,
        &scratch,
        &with_files(&["analyze", "--report", "<report>"]),
    );
    for deny in ["info", "warning", "error"] {
        record(
            &mut out,
            &scratch,
            &with_files(&["analyze", "--deny", deny, "--report", "<report>"]),
        );
    }
    record(
        &mut out,
        &scratch,
        &[
            "analyze",
            "--fanout-threshold",
            "2",
            "--report",
            "<report>",
            ECO,
        ],
    );
    record(
        &mut out,
        &scratch,
        &["analyze", "--fanout-threshold", "0", "--deny", "info", HUB],
    );
    record(&mut out, &scratch, &["analyze", "--deny", "fatal", DEAD]);
    record(&mut out, &scratch, &["analyze", DUPLICATE]);
    record(&mut out, &scratch, &["analyze", CONSTANT]);

    std::fs::remove_dir_all(&scratch).ok();
    if out != GOLDEN {
        let actual = std::env::temp_dir().join("cirlearn-analyze-golden.actual.txt");
        std::fs::write(&actual, &out).expect("write actual output");
        panic!(
            "analyze output differs from data/analyze/golden.txt; actual written to {}",
            actual.display()
        );
    }
}
