//! Workspace lint driver.
//!
//! Line mode (default): `cirlearn-lint [root]` scans `.rs` files under
//! `{root}/crates`, `{root}/vendor`, and `{root}/tests` with the
//! per-line rules, prints each violation as
//! `path:line: [rule] message`, and exits nonzero if any were found.
//!
//! Graph mode: `cirlearn-lint --graph [root] [--deny] [--roots p,...]
//! [--graph-out file.json] [--top N]` runs the whole-workspace
//! call-graph analysis over `crates/*/src`, enforces the hot-path
//! rules (panic-freedom, allocation, blocking calls) on functions
//! reachable from the hot roots, and prints the "hottest
//! panic-reachable functions" table. Plain `--graph` is advisory
//! (exit 0 unless the scan itself fails); `--graph --deny` exits 1 on
//! any deny-severity finding (hot-panic, hot-blocking) or on any root
//! that matches no function — warnings (hot-alloc) never gate.

use std::path::Path;
use std::process::ExitCode;

use cirlearn_lint::graph::{self, RootSpec};

struct GraphArgs {
    root: String,
    deny: bool,
    roots: Option<Vec<String>>,
    graph_out: Option<String>,
    top: usize,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--graph") {
        return graph_mode(&args);
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("cirlearn-lint: unknown flag {flag} (line mode takes only [root])");
        return ExitCode::from(2);
    }
    let root = args.first().cloned().unwrap_or_else(|| ".".to_string());
    let report = match cirlearn_lint::scan_tree(Path::new(&root)) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("cirlearn-lint: failed to scan {root}: {e}");
            return ExitCode::from(2);
        }
    };
    for v in &report.violations {
        println!("{v}");
    }
    eprintln!(
        "cirlearn-lint: scanned {} files, {} violation(s)",
        report.files,
        report.violations.len()
    );
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_graph_args(args: &[String]) -> Result<GraphArgs, String> {
    let mut parsed = GraphArgs {
        root: ".".to_string(),
        deny: false,
        roots: None,
        graph_out: None,
        top: 10,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--graph" => {}
            "--deny" => parsed.deny = true,
            "--roots" => {
                let v = it.next().ok_or("--roots needs a comma-separated list")?;
                parsed.roots = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--graph-out" => {
                let v = it.next().ok_or("--graph-out needs a file path")?;
                parsed.graph_out = Some(v.clone());
            }
            "--top" => {
                let v = it.next().ok_or("--top needs a number")?;
                parsed.top = v.parse().map_err(|_| format!("bad --top value: {v}"))?;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}"));
            }
            pos => positional.push(pos.to_string()),
        }
    }
    if positional.len() > 1 {
        return Err(format!("too many positional arguments: {positional:?}"));
    }
    if let Some(root) = positional.into_iter().next() {
        parsed.root = root;
    }
    Ok(parsed)
}

fn graph_mode(args: &[String]) -> ExitCode {
    let parsed = match parse_graph_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cirlearn-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let roots: Vec<RootSpec> = match &parsed.roots {
        Some(specs) => specs
            .iter()
            .enumerate()
            .map(|(i, s)| graph::parse_root_spec(s, i, specs.len()))
            .collect(),
        None => graph::default_roots(),
    };
    let analysis = match graph::analyze_tree(Path::new(&parsed.root), roots) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cirlearn-lint: failed to analyze {}: {e}", parsed.root);
            return ExitCode::from(2);
        }
    };
    for v in &analysis.violations {
        println!(
            "{}:{}: [{}/{}] {}",
            v.path,
            v.line,
            v.rule.name(),
            v.rule.severity().name(),
            v.message
        );
    }
    let deny = analysis.deny_violations().count();
    let warn = analysis.warn_violations().count();
    let unmatched: Vec<&str> = analysis
        .roots
        .iter()
        .zip(&analysis.root_matches)
        .filter(|(_, m)| m.is_empty())
        .map(|(spec, _)| spec.pattern.as_str())
        .collect();
    let matched_fns: usize = analysis.root_matches.iter().map(|m| m.len()).sum();
    eprintln!(
        "cirlearn-lint: graph over {} files: {} functions, {} edges, {}/{} roots matched ({} functions), {} hot; {} deny, {} warn finding(s)",
        analysis.files,
        analysis.functions.len(),
        analysis.edges.len(),
        analysis.roots.len() - unmatched.len(),
        analysis.roots.len(),
        matched_fns,
        analysis.hot_count(),
        deny,
        warn
    );
    let table = analysis.render_hottest(parsed.top);
    if !table.is_empty() {
        eprint!("{table}");
    }
    if let Some(out) = &parsed.graph_out {
        if let Err(e) = std::fs::write(out, analysis.to_json()) {
            eprintln!("cirlearn-lint: failed to write {out}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("cirlearn-lint: graph written to {out}");
    }
    // A root that matches nothing certifies nothing: it was renamed,
    // moved or deleted, and its hot path went unchecked.
    for pattern in &unmatched {
        eprintln!("cirlearn-lint: warning: root `{pattern}` matched no function");
    }
    if parsed.deny && (deny > 0 || !unmatched.is_empty()) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
