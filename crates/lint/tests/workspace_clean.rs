//! The real workspace must be lint-clean.
//!
//! This is the test that keeps the allow-lists honest: every `unsafe`
//! block in the repo carries a written `SAFETY:` argument, every
//! `Relaxed` store in a `src/` tree carries a `// relaxed-ok:` reason,
//! and nothing uses `static mut`.
//!
//! The call-graph pins live here too: the hot paths (oracle query
//! surface, FBDT expansion, packed simulation, pattern sampling)
//! certify panic-free and non-blocking — every surviving site carries
//! a written `panic-ok:` / `blocking-ok:` justification — and known
//! call chains stay resolvable so a resolver regression cannot
//! silently shrink the certified set.

use std::fs;
use std::path::{Path, PathBuf};

use cirlearn_lint::graph;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

/// Walks like the scanner does (every `.rs` under `crates/`, `vendor/`
/// and `tests/`), independently of `scan_tree`'s own collector, so a
/// count mismatch means files are silently skipping the lint.
fn count_rs(dir: &Path) -> usize {
    let mut n = 0;
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut dirs: Vec<PathBuf> = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            dirs.push(path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            n += 1;
        }
    }
    dirs.into_iter().map(|d| count_rs(&d)).sum::<usize>() + n
}

#[test]
fn the_workspace_has_zero_lint_violations() {
    let root = workspace_root();
    let report = cirlearn_lint::scan_tree(root).expect("scan the workspace");
    // Derive the expected count from an independent walk instead of a
    // hardcoded snapshot: new files can't silently skip scanning.
    let expected: usize = ["crates", "vendor", "tests"]
        .iter()
        .map(|d| count_rs(&root.join(d)))
        .sum();
    assert!(
        expected > 50,
        "independent walk found only {expected} files"
    );
    assert_eq!(
        report.files, expected,
        "scan_tree visited {} files but the tree holds {}; a directory \
         is escaping the lint",
        report.files, expected
    );
    let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "workspace lint violations:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn the_hot_paths_certify_with_zero_deny_findings() {
    let a = graph::analyze_tree(workspace_root(), graph::default_roots())
        .expect("analyze the workspace");
    // Every default root must match something — a root that matches
    // nothing certifies nothing.
    for (spec, matched) in a.roots.iter().zip(&a.root_matches) {
        assert!(
            !matched.is_empty(),
            "hot-path root `{}` matched no function; did it move?",
            spec.pattern
        );
    }
    assert!(
        a.hot_count() >= 50,
        "suspiciously small hot set ({} functions); the resolver is \
         dropping edges",
        a.hot_count()
    );
    let deny: Vec<String> = a
        .deny_violations()
        .map(|v| format!("{}:{}: [{}] {}", v.path, v.line, v.rule.name(), v.message))
        .collect();
    assert!(
        deny.is_empty(),
        "hot-path certification failed:\n{}",
        deny.join("\n")
    );
}

#[test]
fn known_hot_chains_stay_resolvable() {
    let a = graph::analyze_tree(workspace_root(), graph::default_roots())
        .expect("analyze the workspace");
    // The learning pipeline reaches the guarded oracle: a chain
    // from the public entry point down to a query root must exist.
    let chain = a
        .path_between("Learner::learn_with", "Oracle::query_batch")
        .expect("Learner::learn_with must reach the oracle query surface");
    assert!(
        chain.len() >= 2,
        "degenerate chain {chain:?} — the entry point is not a root"
    );
    // Sampling reaches the oracle; simulation feeds the in-process
    // oracle; the FBDT reaches sampling.
    assert!(a.reaches("pattern_sampling", "Oracle::query_batch"));
    // Every adapter is a call of the one required method.
    assert!(a.reaches("Oracle::query_batch", "Oracle::try_query_batch"));
    assert!(a.reaches("CircuitOracle::try_query_batch", "Aig::eval_batch"));
    assert!(a.reaches("FbdtBuilder::step", "pattern_sampling"));
    // The guard that counts every query is on the query path and
    // itself hot.
    let idx = a
        .find("OracleGuard::try_query_batch")
        .expect("OracleGuard::try_query_batch exists");
    assert!(
        a.hot[idx].is_some(),
        "OracleGuard::try_query_batch fell out of the hot set"
    );
}
