//! End-to-end checks on the `cirlearn-lint` binary: nonzero exit on a
//! seeded violation of each rule, zero exit on the real workspace —
//! in both the per-line mode and the `--graph` call-graph mode.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

struct TempTree(PathBuf);

impl TempTree {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("cirlearn-lint-{}-{}", std::process::id(), tag));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp tree");
        TempTree(dir)
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.0.join(rel);
        fs::create_dir_all(path.parent().unwrap()).expect("create parents");
        fs::write(path, contents).expect("write seeded file");
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn run_lint(root: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cirlearn-lint"))
        .arg(root)
        .output()
        .expect("run cirlearn-lint");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn seeded_violations_of_every_rule_exit_nonzero() {
    let tree = TempTree::new("seeded");
    tree.write(
        "crates/x/src/bad_unsafe.rs",
        "fn f() {\n    let x = unsafe { danger() };\n}\n",
    );
    tree.write("crates/x/src/bad_static.rs", "static mut X: u64 = 0;\n");
    tree.write(
        "crates/x/src/bad_relaxed.rs",
        "fn f(a: &AtomicU64) {\n    a.store(1, Ordering::Relaxed);\n}\n",
    );
    let (code, stdout) = run_lint(&tree.0);
    assert_eq!(code, Some(1), "seeded tree must fail the lint:\n{stdout}");
    for rule in ["unsafe-safety-comment", "static-mut", "relaxed-store"] {
        assert!(
            stdout.contains(&format!("[{rule}]")),
            "missing [{rule}] in output:\n{stdout}"
        );
    }
}

#[test]
fn a_clean_tree_exits_zero() {
    let tree = TempTree::new("clean");
    tree.write(
        "crates/x/src/good.rs",
        "fn f() {\n    // SAFETY: nothing can go wrong.\n    let x = unsafe { danger() };\n}\n",
    );
    let (code, stdout) = run_lint(&tree.0);
    assert_eq!(code, Some(0), "clean tree must pass:\n{stdout}");
}

#[test]
fn the_real_workspace_exits_zero() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let (code, stdout) = run_lint(root);
    assert_eq!(code, Some(0), "workspace must be lint-clean:\n{stdout}");
}

// ---------------------------------------------------------------------------
// Graph mode.

fn run_graph(root: &Path, extra: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cirlearn-lint"))
        .arg("--graph")
        .arg(root)
        .args(extra)
        .output()
        .expect("run cirlearn-lint --graph");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A seeded crate where `hot_entry` reaches each rule's sin while a
/// cold twin commits the same sins unreached — proving both the rules
/// and the reachability scoping.
fn seeded_hot_tree(tag: &str) -> TempTree {
    let tree = TempTree::new(tag);
    tree.write(
        "crates/x/src/lib.rs",
        "pub fn hot_entry() {\n    middle();\n}\n\
         fn middle() {\n    panicky();\n    allocy();\n    blocky();\n}\n\
         fn panicky() {\n    let xs = [1];\n    let _ = xs[2];\n}\n\
         fn allocy() {\n    let mut v = Vec::new();\n    v.push(1);\n}\n\
         fn blocky(m: &std::sync::Mutex<u32>) {\n    let _g = m.lock();\n}\n\
         fn cold_twin() {\n    let xs = [1];\n    let _ = xs[2].unwrap();\n    let _ = std::fs::read(\"x\");\n}\n",
    );
    tree
}

#[test]
fn graph_mode_flags_each_rule_family_only_in_hot_code() {
    let tree = seeded_hot_tree("graph-seeded");
    let (code, stdout, stderr) = run_graph(&tree.0, &["--roots", "hot_entry@custom:5"]);
    // Advisory mode: findings print but the exit stays 0.
    assert_eq!(
        code,
        Some(0),
        "plain --graph is advisory:\n{stdout}{stderr}"
    );
    for rule in ["hot-panic", "hot-alloc", "hot-blocking"] {
        assert!(
            stdout.contains(&format!("[{rule}/")),
            "missing [{rule}] finding:\n{stdout}"
        );
    }
    // Reachability scoping: the cold twin commits the same sins but is
    // unreachable from the root, so it must not be flagged.
    assert!(
        !stdout.contains("cold_twin"),
        "cold code was flagged:\n{stdout}"
    );

    // --deny gates on the panic/blocking findings.
    let (code, _, _) = run_graph(&tree.0, &["--roots", "hot_entry@custom:5", "--deny"]);
    assert_eq!(code, Some(1), "--deny must fail on hot-panic/hot-blocking");
}

#[test]
fn graph_deny_passes_once_sites_are_justified() {
    let tree = TempTree::new("graph-justified");
    tree.write(
        "crates/x/src/lib.rs",
        "pub fn hot_entry(m: &std::sync::Mutex<u32>) {\n\
         \x20   // panic-ok: one-element array, constant index.\n\
         \x20   let _ = [1][0];\n\
         \x20   // blocking-ok: uncontended in this test.\n\
         \x20   let _g = m.lock();\n\
         \x20   // alloc-ok: setup, not steady state.\n\
         \x20   let _v: Vec<u32> = Vec::new();\n}\n",
    );
    let (code, stdout, stderr) = run_graph(&tree.0, &["--roots", "hot_entry@custom:5", "--deny"]);
    assert_eq!(
        code,
        Some(0),
        "justified sites must pass --deny:\n{stdout}{stderr}"
    );
    // The hottest table still reports the justified residue.
    assert!(
        stderr.contains("hot_entry"),
        "justified sites should keep the function in the hottest table:\n{stderr}"
    );
}

#[test]
fn graph_warnings_do_not_gate_deny() {
    let tree = TempTree::new("graph-warn");
    tree.write(
        "crates/x/src/lib.rs",
        "pub fn hot_entry() {\n    let mut v = Vec::new();\n    v.push(1);\n}\n",
    );
    let (code, stdout, _) = run_graph(&tree.0, &["--roots", "hot_entry@custom:5", "--deny"]);
    assert_eq!(
        code,
        Some(0),
        "hot-alloc warnings must never gate --deny:\n{stdout}"
    );
    assert!(stdout.contains("[hot-alloc/warn]"), "warning still prints");
}

#[test]
fn graph_deny_fails_when_any_root_matches_nothing() {
    let tree = TempTree::new("graph-unmatched");
    tree.write("crates/x/src/lib.rs", "pub fn hot_entry() {}\n");
    let roots = "hot_entry@custom:5,absent_fn@custom:1";
    // Advisory mode names the root but does not gate on it.
    let (code, _, stderr) = run_graph(&tree.0, &["--roots", roots]);
    assert_eq!(code, Some(0), "plain --graph is advisory:\n{stderr}");
    assert!(
        stderr.contains("`absent_fn`"),
        "unmatched root unnamed:\n{stderr}"
    );
    assert!(stderr.contains("1/2 roots matched"), "{stderr}");
    let (code, stdout, stderr) = run_graph(&tree.0, &["--roots", roots, "--deny"]);
    assert_eq!(
        code,
        Some(1),
        "--deny must fail while one root matches nothing:\n{stdout}{stderr}"
    );
    assert!(
        stderr.contains("`absent_fn`"),
        "the unmatched root must be named:\n{stderr}"
    );
    assert!(
        !stderr.contains("`hot_entry`"),
        "a matched root was reported unmatched:\n{stderr}"
    );
}

#[test]
fn graph_out_emits_json() {
    let tree = seeded_hot_tree("graph-json");
    let out_path = tree.0.join("graph.json");
    let (code, _, _) = run_graph(
        &tree.0,
        &[
            "--roots",
            "hot_entry@custom:5",
            "--graph-out",
            out_path.to_str().unwrap(),
        ],
    );
    assert_eq!(code, Some(0));
    let json = fs::read_to_string(&out_path).expect("graph JSON written");
    assert!(json.starts_with("{\"schema_version\":1,"));
    assert!(json.contains("\"fn\":\"hot_entry\""));
    assert!(json.contains("\"hot\":true"));
    assert!(json.contains("\"rule\":\"hot-panic\""));
}

#[test]
fn the_real_workspace_certifies_under_graph_deny() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let (code, stdout, stderr) = run_graph(root, &["--deny"]);
    assert_eq!(
        code,
        Some(0),
        "hot-path certification must pass on the workspace:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("0 deny"),
        "summary should report zero deny findings:\n{stderr}"
    );
    assert!(
        !stderr.contains("matched no function"),
        "every default root must match:\n{stderr}"
    );
}
