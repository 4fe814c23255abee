//! Offline supply-chain audit: the workspace must stay fully
//! self-contained. Every crate in the dependency graph is either an
//! in-tree workspace member or vendored under `vendor/`, so `Cargo.lock`
//! must contain no external sources at all. This is the zero-tooling
//! mirror of the `deny.toml` policy (`unknown-registry = "deny"`,
//! `unknown-git = "deny"`), enforced by the plain test suite so it runs
//! everywhere — including offline containers where `cargo deny` is not
//! installed.

use std::path::Path;

fn lockfile() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.lock");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn lockfile_has_no_external_sources() {
    let lock = lockfile();
    let external: Vec<&str> = lock
        .lines()
        .filter(|l| {
            let l = l.trim_start();
            l.starts_with("source = ") && (l.contains("registry+") || l.contains("git+"))
        })
        .collect();
    assert!(
        external.is_empty(),
        "Cargo.lock gained external sources — vendor the crate or drop \
         the dependency (deny.toml forbids registry/git sources):\n{}",
        external.join("\n")
    );
}

#[test]
fn lockfile_has_no_checksums() {
    // Path dependencies carry no checksum; a `checksum =` line is
    // another tell of a registry crate slipping in.
    let lock = lockfile();
    assert!(
        !lock.contains("\nchecksum = "),
        "Cargo.lock contains registry checksums; the workspace must stay \
         path-only"
    );
}

#[test]
fn every_locked_package_is_in_tree() {
    // Stronger form of the source audit: each `[[package]]` in the
    // lockfile must correspond to an in-tree directory — a workspace
    // crate under `crates/` (package `cirlearn-x` lives in `crates/x`),
    // the `tests/` harness crate, or a vendored crate under `vendor/`.
    let lock = lockfile();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let names = lock
        .lines()
        .filter_map(|l| l.strip_prefix("name = \""))
        .filter_map(|l| l.strip_suffix('"'));
    for name in names {
        let dir = match name.strip_prefix("cirlearn-") {
            Some("tests") => root.join("tests"),
            Some(rest) => root.join("crates").join(rest),
            // The core library is the plain `cirlearn` package.
            None if name == "cirlearn" => root.join("crates").join("core"),
            None => root.join("vendor").join(name),
        };
        assert!(
            dir.is_dir(),
            "locked package `{name}` has no in-tree home at {}",
            dir.display()
        );
    }
}

#[test]
fn the_lint_and_proptest_members_stay_in_the_graph() {
    // The lint binary and the property-test shim must remain workspace
    // members — dropping either silently disables a CI gate.
    let lock = lockfile();
    for member in ["cirlearn-lint", "proptest"] {
        assert!(
            lock.contains(&format!("name = \"{member}\"")),
            "`{member}` left the dependency graph; it must stay in-tree"
        );
    }
}

#[test]
fn deny_policy_is_checked_in_and_strict() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../deny.toml");
    let policy = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    for required in [
        "unknown-registry = \"deny\"",
        "unknown-git = \"deny\"",
        "allow-registry = []",
    ] {
        assert!(
            policy.contains(required),
            "deny.toml lost its strict source policy: missing `{required}`"
        );
    }
}
