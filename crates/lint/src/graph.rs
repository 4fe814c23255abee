//! Workspace call-graph analysis: hot-path certification.
//!
//! A two-pass, syn-free analyzer over every `crates/*/src` tree (same
//! string/comment-aware line scanner as the per-line rules — a project
//! lint, not a parser):
//!
//! 1. **Extraction** — records every `fn` definition (bare name,
//!    enclosing `impl`/`trait` context, `file:line`, body span) and
//!    every call site inside a function body (`name(...)`,
//!    `.name(...)`, `Path::name(...)`, turbofish included). Bodies of
//!    `#[cfg(test)]` / `#[test]` items are skipped — tests unwrap
//!    freely and are not hot code.
//! 2. **Resolution** — builds a conservative call graph. A qualified
//!    call `Q::f` resolves to every workspace `fn f` whose impl type
//!    *or* trait is `Q` (none ⇒ the call is external, e.g. `Vec::new`,
//!    and adds no edge). A method call `x.f(...)` resolves to **every**
//!    workspace method `f` (the receiver type is unknown — the
//!    ambiguity-widening rule: over-approximate rather than miss an
//!    edge — but a `.f()` call can never land on a free function). A
//!    bare call `f(...)` resolves to every free `fn f` (Rust has no
//!    `use Type::method`, so it cannot land on a method). Reachability
//!    can over-claim; it cannot under-claim. The lint crate's own
//!    sources are excluded: a compile-time tool never linked into the
//!    runtime binaries.
//!
//! Reachability is computed from declared hot-path roots (the oracle
//! query surface, FBDT node expansion, packed simulation,
//! `PatternSampling`), and three rule families are enforced on
//! reachable function bodies only:
//!
//! - **hot-panic** (deny) — `unwrap`/`expect`, `panic!`-family macros,
//!   `assert!`-family macros, and slice indexing `x[i]`. Opt-out per
//!   site with `// panic-ok: <reason>`. `debug_assert!` is exempt (it
//!   compiles out of release hot paths).
//! - **hot-alloc** (warn) — `Vec::new`/`with_capacity`/`vec![`,
//!   `Box::new`, `format!`, `to_vec`/`to_string`/`to_owned`, `clone`,
//!   `collect`, `push`. Opt-out with `// alloc-ok: <reason>`.
//! - **hot-blocking** (deny) — `Mutex::lock`, file/process I/O,
//!   channel `recv`, `thread::sleep`, `println!`/`eprintln!`. Opt-out
//!   with `// blocking-ok: <reason>`.
//!
//! Each root carries the attribution-ledger *stage* its traffic lands
//! on, with weights taken from the committed `BENCH_table2.json`
//! baseline (on case_1, about 70% of the wall clock is
//! `oracle.query_ns`), so findings and the "hottest panic-reachable
//! functions" table rank by measured cost attribution, not
//! alphabetically.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::{
    annotated, collect_rs, split_lines, word_positions, Rule, Severity, SplitLine, Violation,
};

/// A hot-path root: functions matching `pattern` seed reachability.
///
/// `pattern` is either `Type::name` (matches a `fn name` whose
/// enclosing impl type *or* trait is `Type`) or a bare `name` (matches
/// every `fn name`). `stage` names the attribution-ledger stage the
/// root's traffic lands on; `weight` ranks stages by measured cost
/// (higher = hotter).
#[derive(Debug, Clone)]
pub struct RootSpec {
    /// `Type::name` or bare `name`.
    pub pattern: String,
    /// Attribution-ledger stage (e.g. `oracle`, `support`, `fbdt`).
    pub stage: String,
    /// Stage heat: higher ranks hotter in reports.
    pub weight: u32,
}

impl RootSpec {
    /// A root with an explicit stage and weight.
    pub fn new(pattern: &str, stage: &str, weight: u32) -> RootSpec {
        RootSpec {
            pattern: pattern.to_string(),
            stage: stage.to_string(),
            weight,
        }
    }
}

/// The default root set: the oracle query, sampling, FBDT and
/// simulation hot paths.
///
/// Stage weights follow the committed attribution baseline
/// (`BENCH_table2.json`): the oracle query surface dominates wall
/// clock (about 70% on case_1), support-identification sampling
/// issues the bulk of those queries, FBDT expansion drives the
/// learning loop, and packed simulation underlies the in-process
/// oracle.
pub fn default_roots() -> Vec<RootSpec> {
    vec![
        RootSpec::new("Oracle::query", "oracle", 5),
        RootSpec::new("Oracle::try_query", "oracle", 5),
        RootSpec::new("Oracle::query_batch", "oracle", 5),
        RootSpec::new("Oracle::try_query_batch", "oracle", 5),
        RootSpec::new("pattern_sampling", "support", 4),
        RootSpec::new("FbdtBuilder::step", "fbdt", 3),
        RootSpec::new("Aig::simulate_nodes", "sim", 2),
        RootSpec::new("Aig::simulate", "sim", 2),
        RootSpec::new("Aig::eval_batch", "sim", 2),
    ]
}

/// Parses `--roots` specs: `pattern[@stage[:weight]]`, comma-split by
/// the caller. Unnamed stages default to `custom`; unstated weights
/// rank earlier specs hotter.
pub fn parse_root_spec(spec: &str, position: usize, total: usize) -> RootSpec {
    let (pattern, rest) = match spec.split_once('@') {
        Some((p, r)) => (p, Some(r)),
        None => (spec, None),
    };
    let (stage, weight) = match rest {
        Some(r) => match r.split_once(':') {
            Some((s, w)) => (s.to_string(), w.parse().unwrap_or(0)),
            None => (r.to_string(), (total - position) as u32),
        },
        None => ("custom".to_string(), (total - position) as u32),
    };
    RootSpec {
        pattern: pattern.trim().to_string(),
        stage,
        weight,
    }
}

/// One extracted function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Base name of the enclosing `impl` type, if any.
    pub type_ctx: Option<String>,
    /// Base name of the implemented (or declaring) trait, if any.
    pub trait_ctx: Option<String>,
    /// Root-relative, `/`-separated file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Call sites inside this function's body.
    pub calls: Vec<CallSite>,
}

impl FnDef {
    /// `Type::name` (or `Trait::name` for trait-default methods), or
    /// the bare name for free functions.
    pub fn qualified(&self) -> String {
        match self.type_ctx.as_ref().or(self.trait_ctx.as_ref()) {
            Some(ctx) => format!("{}::{}", ctx, self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Called name.
    pub name: String,
    /// Last path segment before the name (`Q` in `Q::f(...)`), with
    /// `Self` already resolved to the enclosing impl type. `None` for
    /// method calls and unqualified free calls.
    pub qualifier: Option<String>,
    /// Whether this is a `.name(...)` method call (widens to methods
    /// only) as opposed to a bare `name(...)` call (free functions
    /// only).
    pub method: bool,
    /// 1-based line number.
    pub line: usize,
}

/// Why a function is hot: the stage that reaches it and how far it
/// sits from that stage's roots.
#[derive(Debug, Clone)]
pub struct HotInfo {
    /// Hottest attribution stage reaching this function.
    pub stage: String,
    /// That stage's weight.
    pub weight: u32,
    /// Call-graph distance from the nearest root of that stage
    /// (0 = the function is itself a root).
    pub distance: usize,
}

/// Per-function rule-site tally (used by the hottest-functions table).
#[derive(Debug, Clone, Default)]
pub struct SiteCounts {
    /// Unjustified deny-severity findings.
    pub deny: usize,
    /// Unjustified warn-severity findings.
    pub warn: usize,
    /// Sites silenced by a `panic-ok:`/`alloc-ok:`/`blocking-ok:`
    /// marker (the justified residue the table still reports).
    pub justified: usize,
}

/// The result of a whole-workspace call-graph analysis.
#[derive(Debug)]
pub struct GraphAnalysis {
    /// Number of `.rs` files extracted.
    pub files: usize,
    /// Every extracted function, in file/line order.
    pub functions: Vec<FnDef>,
    /// Resolved call edges (caller index → callee index), deduplicated.
    pub edges: Vec<(usize, usize)>,
    /// Hot-reachability info per function index (`None` = cold).
    pub hot: Vec<Option<HotInfo>>,
    /// The root set used.
    pub roots: Vec<RootSpec>,
    /// Function indices matched by each root spec (parallel to
    /// `roots`).
    pub root_matches: Vec<Vec<usize>>,
    /// All rule findings, hot functions only, in file/line order.
    pub violations: Vec<Violation>,
    /// Per-function site tallies (parallel to `functions`).
    pub sites: Vec<SiteCounts>,
}

/// Analyzes the workspace rooted at `root`: every `.rs` file under
/// `crates/*/src`.
pub fn analyze_tree(root: &Path, roots: Vec<RootSpec>) -> io::Result<GraphAnalysis> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let dir = entry?.path();
            // The lint crate is a compile-time tool: it is never
            // linked into the runtime binaries, so its functions must
            // not be widened into the hot graph.
            if dir.file_name().is_some_and(|n| n == "lint") {
                continue;
            }
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let contents = fs::read_to_string(&file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, contents));
    }
    Ok(analyze_sources(&sources, roots))
}

/// Analyzes in-memory sources (`(root-relative path, contents)`
/// pairs). The pure core of [`analyze_tree`], used directly by tests.
pub fn analyze_sources(sources: &[(String, String)], roots: Vec<RootSpec>) -> GraphAnalysis {
    let mut functions: Vec<FnDef> = Vec::new();
    // Per file: split lines + owner (function index) per line.
    let mut file_lines: Vec<(String, Vec<SplitLine>, Vec<Option<usize>>)> = Vec::new();
    for (path, contents) in sources {
        let lines = split_lines(contents);
        let owners = extract_file(path, &lines, &mut functions);
        file_lines.push((path.clone(), lines, owners));
    }

    // Name index for resolution.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in functions.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }

    // Resolve call edges: qualified calls narrow by impl type/trait
    // (no match ⇒ external, no edge); unqualified calls widen to every
    // same-named definition.
    let mut edge_set: HashSet<(usize, usize)> = HashSet::new();
    for (caller, f) in functions.iter().enumerate() {
        for call in &f.calls {
            let candidates = by_name.get(call.name.as_str()).map_or(&[][..], |v| v);
            match &call.qualifier {
                Some(q) => {
                    for &callee in candidates {
                        let g = &functions[callee];
                        if g.type_ctx.as_deref() == Some(q) || g.trait_ctx.as_deref() == Some(q) {
                            edge_set.insert((caller, callee));
                        }
                    }
                }
                None if call.method => {
                    // Method call on an unknown receiver: widen to
                    // every *method* of that name (a `.f()` call can
                    // never land on a free function).
                    for &callee in candidates {
                        let g = &functions[callee];
                        if g.type_ctx.is_some() || g.trait_ctx.is_some() {
                            edge_set.insert((caller, callee));
                        }
                    }
                }
                None => {
                    // Bare call `f(...)`: free functions only (Rust
                    // has no `use Type::method`, so a bare path call
                    // cannot reach a method).
                    for &callee in candidates {
                        let g = &functions[callee];
                        if g.type_ctx.is_none() && g.trait_ctx.is_none() {
                            edge_set.insert((caller, callee));
                        }
                    }
                }
            }
        }
    }
    let mut edges: Vec<(usize, usize)> = edge_set.into_iter().collect();
    edges.sort_unstable();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); functions.len()];
    for &(a, b) in &edges {
        adj[a].push(b);
    }

    // Match roots and flood from the hottest stage down, so each
    // function is claimed by the hottest stage reaching it.
    let root_matches: Vec<Vec<usize>> = roots
        .iter()
        .map(|r| {
            functions
                .iter()
                .enumerate()
                .filter(|(_, f)| matches_root(&r.pattern, f))
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    let mut hot: Vec<Option<HotInfo>> = vec![None; functions.len()];
    let mut order: Vec<usize> = (0..roots.len()).collect();
    order.sort_by(|&a, &b| roots[b].weight.cmp(&roots[a].weight));
    for ri in order {
        let spec = &roots[ri];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &i in &root_matches[ri] {
            if hot[i].is_none() {
                hot[i] = Some(HotInfo {
                    stage: spec.stage.clone(),
                    weight: spec.weight,
                    distance: 0,
                });
                queue.push_back(i);
            }
        }
        while let Some(i) = queue.pop_front() {
            let d = hot[i].as_ref().map_or(0, |h| h.distance);
            for &j in &adj[i] {
                if hot[j].is_none() {
                    hot[j] = Some(HotInfo {
                        stage: spec.stage.clone(),
                        weight: spec.weight,
                        distance: d + 1,
                    });
                    queue.push_back(j);
                }
            }
        }
    }

    // Enforce the hot-path rules over the owned lines of each hot
    // function.
    let mut violations = Vec::new();
    let mut sites = vec![SiteCounts::default(); functions.len()];
    for (path, lines, owners) in &file_lines {
        for (idx, l) in lines.iter().enumerate() {
            let Some(owner) = owners.get(idx).copied().flatten() else {
                continue;
            };
            let Some(info) = hot[owner].as_ref() else {
                continue;
            };
            let ctx = RuleCtx {
                path,
                lines,
                idx,
                code: l.code.as_str(),
                owner: &functions[owner],
            };
            scan_panic_rule(&ctx, info, &mut violations, &mut sites[owner]);
            scan_alloc_rule(&ctx, info, &mut violations, &mut sites[owner]);
            scan_blocking_rule(&ctx, info, &mut violations, &mut sites[owner]);
        }
    }
    violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));

    GraphAnalysis {
        files: sources.len(),
        functions,
        edges,
        hot,
        roots,
        root_matches,
        violations,
        sites,
    }
}

impl GraphAnalysis {
    /// Number of hot (root-reachable) functions.
    pub fn hot_count(&self) -> usize {
        self.hot.iter().filter(|h| h.is_some()).count()
    }

    /// Findings at deny severity.
    pub fn deny_violations(&self) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(|v| v.rule.severity() == Severity::Deny)
    }

    /// Findings at warn severity.
    pub fn warn_violations(&self) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(|v| v.rule.severity() == Severity::Warn)
    }

    /// Index of the first function whose qualified name (or bare name)
    /// equals `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.functions
            .iter()
            .position(|f| f.qualified() == name || f.name == name)
    }

    /// Whether the call graph contains a path from the function named
    /// `from` to any function matching root-style pattern `to`.
    pub fn reaches(&self, from: &str, to: &str) -> bool {
        self.path_between(from, to).is_some()
    }

    /// A call chain (qualified names) from `from` to the first
    /// function matching root-style pattern `to`, if one exists.
    pub fn path_between(&self, from: &str, to: &str) -> Option<Vec<String>> {
        let start = self.find(from)?;
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.functions.len()];
        for &(a, b) in &self.edges {
            adj[a].push(b);
        }
        let mut prev: Vec<Option<usize>> = vec![None; self.functions.len()];
        let mut seen = vec![false; self.functions.len()];
        let mut queue = VecDeque::new();
        seen[start] = true;
        queue.push_back(start);
        while let Some(i) = queue.pop_front() {
            if matches_root(to, &self.functions[i]) {
                let mut chain = vec![i];
                let mut cur = i;
                while let Some(p) = prev[cur] {
                    chain.push(p);
                    cur = p;
                }
                chain.reverse();
                return Some(
                    chain
                        .into_iter()
                        .map(|k| self.functions[k].qualified())
                        .collect(),
                );
            }
            for &j in &adj[i] {
                if !seen[j] {
                    seen[j] = true;
                    prev[j] = Some(i);
                    queue.push_back(j);
                }
            }
        }
        None
    }

    /// The hottest panic-reachable functions: hot functions with at
    /// least one panic-capable site (unjustified finding or justified
    /// marker), ranked by attribution stage weight, then unjustified
    /// deny findings, then justified sites, then nearness to a root.
    pub fn hottest(&self, n: usize) -> Vec<usize> {
        let mut ranked: Vec<usize> = (0..self.functions.len())
            .filter(|&i| {
                self.hot[i].is_some() && (self.sites[i].deny > 0 || self.sites[i].justified > 0)
            })
            .collect();
        ranked.sort_by(|&a, &b| {
            let ha = self.hot[a].as_ref().expect("filtered to hot");
            let hb = self.hot[b].as_ref().expect("filtered to hot");
            hb.weight
                .cmp(&ha.weight)
                .then(self.sites[b].deny.cmp(&self.sites[a].deny))
                .then(self.sites[b].justified.cmp(&self.sites[a].justified))
                .then(ha.distance.cmp(&hb.distance))
                .then(
                    self.functions[a]
                        .qualified()
                        .cmp(&self.functions[b].qualified()),
                )
        });
        ranked.truncate(n);
        ranked
    }

    /// Renders the hottest-functions table (empty string when no hot
    /// function has a panic-capable site).
    pub fn render_hottest(&self, n: usize) -> String {
        let ranked = self.hottest(n);
        if ranked.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "hottest panic-reachable functions (top {}, by attribution stage):",
            ranked.len()
        );
        let _ = writeln!(
            out,
            "  {:<8} {:<4} {:<44} {:>4} {:>4}  location",
            "stage", "dist", "function", "deny", "ok"
        );
        for i in ranked {
            let h = self.hot[i].as_ref().expect("ranked functions are hot");
            let f = &self.functions[i];
            let _ = writeln!(
                out,
                "  {:<8} {:<4} {:<44} {:>4} {:>4}  {}:{}",
                h.stage,
                h.distance,
                f.qualified(),
                self.sites[i].deny,
                self.sites[i].justified,
                f.file,
                f.line
            );
        }
        out
    }

    /// The whole analysis as a JSON document (schema_version 1):
    /// roots with their matches, functions with hotness and call
    /// edges, and every finding.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema_version\":1,\"roots\":[");
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"pattern\":{},\"stage\":{},\"weight\":{},\"matched\":[",
                json_str(&r.pattern),
                json_str(&r.stage),
                r.weight
            );
            for (k, m) in self.root_matches[i].iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{m}");
            }
            out.push_str("]}");
        }
        out.push_str("],\"functions\":[");
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.functions.len()];
        for &(a, b) in &self.edges {
            adj[a].push(b);
        }
        for (i, f) in self.functions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"fn\":{},\"file\":{},\"line\":{}",
                i,
                json_str(&f.qualified()),
                json_str(&f.file),
                f.line
            );
            if let Some(h) = &self.hot[i] {
                let _ = write!(
                    out,
                    ",\"hot\":true,\"stage\":{},\"distance\":{}",
                    json_str(&h.stage),
                    h.distance
                );
            } else {
                out.push_str(",\"hot\":false");
            }
            out.push_str(",\"calls\":[");
            for (k, c) in adj[i].iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]}");
        }
        out.push_str("],\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"path\":{},\"line\":{},\"rule\":{},\"severity\":{},\"message\":{}}}",
                json_str(&v.path),
                v.line,
                json_str(v.rule.name()),
                json_str(v.rule.severity().name()),
                json_str(&v.message)
            );
        }
        out.push_str("]}");
        out
    }
}

/// Does `pattern` (`Type::name` or bare `name`) match this definition?
fn matches_root(pattern: &str, f: &FnDef) -> bool {
    match pattern.rsplit_once("::") {
        Some((ctx, name)) => {
            f.name == name
                && (f.type_ctx.as_deref() == Some(ctx) || f.trait_ctx.as_deref() == Some(ctx))
        }
        None => f.name == pattern,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Pass 1: extraction.

/// What kind of item header is being accumulated.
#[derive(Debug, Clone, Copy, PartialEq)]
enum HeaderKind {
    Fn,
    Impl,
    Trait,
    Mod,
}

/// An open brace-scoped context.
#[derive(Debug)]
struct Ctx {
    open_depth: usize,
    kind: CtxKind,
}

#[derive(Debug)]
enum CtxKind {
    /// `impl Type` / `impl Trait for Type`.
    Impl {
        type_name: Option<String>,
        trait_name: Option<String>,
    },
    /// `trait Name`.
    Trait { name: String },
    /// A `#[cfg(test)]`/`#[test]`-marked item (or a block inside one):
    /// definitions and calls are not recorded.
    Test,
    /// Anything else that opened a brace (block, struct, match, mod…).
    Other,
}

/// An open function body.
#[derive(Debug)]
struct OpenFn {
    index: usize,
    open_depth: usize,
}

/// Extracts definitions and call sites from one file's split lines,
/// appending to `functions`. Returns the per-line owner map (innermost
/// enclosing function index, measured at end of line).
pub(crate) fn extract_file(
    path: &str,
    lines: &[SplitLine],
    functions: &mut Vec<FnDef>,
) -> Vec<Option<usize>> {
    let mut owners: Vec<Option<usize>> = Vec::with_capacity(lines.len());
    let mut depth: usize = 0;
    let mut ctx_stack: Vec<Ctx> = Vec::new();
    let mut fn_stack: Vec<OpenFn> = Vec::new();
    // Header accumulation (`fn`/`impl`/`trait`/`mod` … up to `{`/`;`).
    let mut header: Option<(HeaderKind, String, usize)> = None;
    let mut pending_test_attr = false;

    for (line_idx, l) in lines.iter().enumerate() {
        let chars: Vec<char> = l.code.chars().collect();
        let mut i = 0;
        // The last completed path segments (for `a::b::c(` qualifiers),
        // reset at anything that breaks a path chain.
        let mut segments: Vec<String> = Vec::new();
        let mut prev_was_dot = false;
        // The innermost function open at any point during this line —
        // captured live so single-line bodies (`fn f() { … }`) keep
        // their owner even though the brace closes before end of line.
        let mut line_owner: Option<usize> = None;
        while i < chars.len() {
            if line_owner.is_none() {
                line_owner = fn_stack.last().map(|f| f.index);
            }
            let c = chars[i];
            if let Some((_, buf, _)) = header.as_mut() {
                if c == '{' {
                    let (kind, text, at_line) = header.take().expect("header is Some");
                    finalize_header(
                        kind,
                        &text,
                        at_line,
                        path,
                        depth,
                        &mut ctx_stack,
                        &mut fn_stack,
                        functions,
                        &mut pending_test_attr,
                    );
                    depth += 1;
                } else if c == ';' {
                    // Bodiless item (trait method decl, `mod x;`).
                    header = None;
                    pending_test_attr = false;
                } else {
                    buf.push(c);
                }
                i += 1;
                continue;
            }
            match c {
                '{' => {
                    ctx_stack.push(Ctx {
                        open_depth: depth,
                        kind: CtxKind::Other,
                    });
                    depth += 1;
                    i += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    while let Some(ctx) = ctx_stack.last() {
                        if ctx.open_depth >= depth {
                            ctx_stack.pop();
                        } else {
                            break;
                        }
                    }
                    while let Some(f) = fn_stack.last() {
                        if f.open_depth >= depth {
                            fn_stack.pop();
                        } else {
                            break;
                        }
                    }
                    segments.clear();
                    i += 1;
                }
                '#' if chars.get(i + 1) == Some(&'[') => {
                    // Attribute: scan to the matching `]`; a `test`
                    // word inside (`#[test]`, `#[cfg(test)]`) marks the
                    // next item as test-only.
                    let mut j = i + 2;
                    let mut level = 1;
                    let mut attr = String::new();
                    while j < chars.len() && level > 0 {
                        match chars[j] {
                            '[' => {
                                level += 1;
                                attr.push(' ');
                            }
                            ']' => {
                                level -= 1;
                                attr.push(' ');
                            }
                            c if c.is_alphanumeric() || c == '_' => attr.push(c),
                            _ => attr.push(' '),
                        }
                        j += 1;
                    }
                    // `#[test]` / `#[cfg(test)]` mark the next item as
                    // test-only; `#[cfg(not(test))]` is real code.
                    if !word_positions(&attr, "test").is_empty()
                        && word_positions(&attr, "not").is_empty()
                    {
                        pending_test_attr = true;
                    }
                    i = j;
                }
                c if c.is_alphabetic() || c == '_' => {
                    let start = i;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    let word: String = chars[start..i].iter().collect();
                    let was_dot = prev_was_dot;
                    prev_was_dot = false;
                    match word.as_str() {
                        "fn" | "impl" | "trait" | "mod" if !was_dot => {
                            let kind = match word.as_str() {
                                "fn" => HeaderKind::Fn,
                                "impl" => HeaderKind::Impl,
                                "trait" => HeaderKind::Trait,
                                _ => HeaderKind::Mod,
                            };
                            header = Some((kind, String::new(), line_idx));
                            segments.clear();
                        }
                        "self" | "Self" => {
                            // `Self::f(...)`: keep `Self` as a segment
                            // (resolved to the impl type later) and
                            // consume the `::` so the path chain holds.
                            let mut j = i;
                            while j < chars.len() && chars[j] == ' ' {
                                j += 1;
                            }
                            if chars.get(j) == Some(&':') && chars.get(j + 1) == Some(&':') {
                                segments.push(word);
                                i = j + 2;
                            } else {
                                segments.clear();
                            }
                        }
                        "if" | "else" | "while" | "for" | "loop" | "match" | "return" | "let"
                        | "in" | "as" | "move" | "ref" | "mut" | "pub" | "use" | "where"
                        | "break" | "continue" | "unsafe" | "async" | "await" | "const"
                        | "static" | "struct" | "enum" | "type" | "dyn" | "super" | "crate"
                        | "true" | "false" => {
                            segments.clear();
                        }
                        _ => {
                            // Peek past whitespace for `(`, `::`, `!`.
                            let mut j = i;
                            while j < chars.len() && chars[j] == ' ' {
                                j += 1;
                            }
                            let next = chars.get(j).copied();
                            let next2 = chars.get(j + 1).copied();
                            if next == Some('(') {
                                record_call(
                                    &word, &segments, was_dot, line_idx, &ctx_stack, &fn_stack,
                                    functions,
                                );
                                segments.clear();
                            } else if next == Some(':') && next2 == Some(':') {
                                if chars.get(j + 2) == Some(&'<') {
                                    // Turbofish `name::<T>(…)`: skip the
                                    // balanced angle block, then check
                                    // for the call parenthesis.
                                    let mut k = j + 3;
                                    let mut angle = 1;
                                    while k < chars.len() && angle > 0 {
                                        match chars[k] {
                                            '<' => angle += 1,
                                            '>' => angle -= 1,
                                            _ => {}
                                        }
                                        k += 1;
                                    }
                                    if chars.get(k) == Some(&'(') {
                                        record_call(
                                            &word, &segments, was_dot, line_idx, &ctx_stack,
                                            &fn_stack, functions,
                                        );
                                    }
                                    segments.clear();
                                    i = k;
                                } else {
                                    segments.push(word);
                                    i = j + 2;
                                }
                            } else {
                                segments.clear();
                            }
                        }
                    }
                }
                '.' => {
                    prev_was_dot = true;
                    segments.clear();
                    i += 1;
                }
                ';' => {
                    // A `#[cfg(test)] use …;`-style bodiless item
                    // consumes its attribute.
                    pending_test_attr = false;
                    segments.clear();
                    i += 1;
                }
                ' ' | '\t' => {
                    i += 1;
                }
                _ => {
                    prev_was_dot = false;
                    segments.clear();
                    i += 1;
                }
            }
        }
        // Multi-line headers: carry the buffer across the newline.
        if let Some((_, buf, _)) = header.as_mut() {
            buf.push(' ');
        }
        if line_owner.is_none() {
            line_owner = fn_stack.last().map(|f| f.index);
        }
        owners.push(line_owner);
    }
    owners
}

/// Pushes the context (or function) a completed header opens.
#[allow(clippy::too_many_arguments)]
fn finalize_header(
    kind: HeaderKind,
    text: &str,
    at_line: usize,
    path: &str,
    depth: usize,
    ctx_stack: &mut Vec<Ctx>,
    fn_stack: &mut Vec<OpenFn>,
    functions: &mut Vec<FnDef>,
    pending_test_attr: &mut bool,
) {
    let test = std::mem::take(pending_test_attr)
        || ctx_stack.iter().any(|c| matches!(c.kind, CtxKind::Test));
    if test {
        ctx_stack.push(Ctx {
            open_depth: depth,
            kind: CtxKind::Test,
        });
        return;
    }
    match kind {
        HeaderKind::Fn => {
            let Some(name) = leading_ident(text) else {
                // `fn`-pointer type or closure artifact: anonymous
                // block, nothing to record.
                ctx_stack.push(Ctx {
                    open_depth: depth,
                    kind: CtxKind::Other,
                });
                return;
            };
            let (type_ctx, trait_ctx) = enclosing_context(ctx_stack);
            functions.push(FnDef {
                name,
                type_ctx,
                trait_ctx,
                file: path.to_string(),
                line: at_line + 1,
                calls: Vec::new(),
            });
            fn_stack.push(OpenFn {
                index: functions.len() - 1,
                open_depth: depth,
            });
            ctx_stack.push(Ctx {
                open_depth: depth,
                kind: CtxKind::Other,
            });
        }
        HeaderKind::Impl => {
            let (type_name, trait_name) = parse_impl_header(text);
            ctx_stack.push(Ctx {
                open_depth: depth,
                kind: CtxKind::Impl {
                    type_name,
                    trait_name,
                },
            });
        }
        HeaderKind::Trait => {
            let name = leading_ident(text).unwrap_or_default();
            ctx_stack.push(Ctx {
                open_depth: depth,
                kind: CtxKind::Trait { name },
            });
        }
        HeaderKind::Mod => {
            ctx_stack.push(Ctx {
                open_depth: depth,
                kind: CtxKind::Other,
            });
        }
    }
}

/// The innermost impl/trait context on the stack.
fn enclosing_context(ctx_stack: &[Ctx]) -> (Option<String>, Option<String>) {
    for ctx in ctx_stack.iter().rev() {
        match &ctx.kind {
            CtxKind::Impl {
                type_name,
                trait_name,
            } => return (type_name.clone(), trait_name.clone()),
            CtxKind::Trait { name } => return (None, Some(name.clone())),
            _ => {}
        }
    }
    (None, None)
}

/// Records one call site on the innermost open function.
fn record_call(
    name: &str,
    segments: &[String],
    was_method: bool,
    line_idx: usize,
    ctx_stack: &[Ctx],
    fn_stack: &[OpenFn],
    functions: &mut [FnDef],
) {
    let Some(open) = fn_stack.last() else {
        return;
    };
    let qualifier = if was_method {
        None
    } else {
        segments.last().map(|q| {
            if q == "Self" || q == "self" {
                enclosing_context(ctx_stack).0.unwrap_or_else(|| q.clone())
            } else {
                q.clone()
            }
        })
    };
    functions[open.index].calls.push(CallSite {
        name: name.to_string(),
        qualifier,
        method: was_method,
        line: line_idx + 1,
    });
}

/// First identifier of a header body (the `fn`/`trait` name), skipping
/// nothing else.
fn leading_ident(text: &str) -> Option<String> {
    let trimmed = text.trim_start();
    let mut out = String::new();
    for c in trimmed.chars() {
        if c.is_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            break;
        }
    }
    (!out.is_empty() && !out.chars().next().is_some_and(|c| c.is_ascii_digit())).then_some(out)
}

/// Parses an `impl` header (text between `impl` and `{`) into
/// `(type base name, trait base name)`.
fn parse_impl_header(text: &str) -> (Option<String>, Option<String>) {
    // Strip leading generic parameters `<...>` (balanced).
    let trimmed = text.trim_start();
    let rest = if let Some(stripped) = trimmed.strip_prefix('<') {
        let mut level = 1;
        let mut end = 0;
        for (k, c) in stripped.char_indices() {
            match c {
                '<' => level += 1,
                '>' => level -= 1,
                _ => {}
            }
            if level == 0 {
                end = k + 1;
                break;
            }
        }
        &stripped[end.min(stripped.len())..]
    } else {
        trimmed
    };
    // Split `Trait for Type` at a top-level ` for `.
    let mut level = 0i32;
    let bytes = rest.as_bytes();
    let mut split_at = None;
    let mut k = 0;
    while k + 5 <= bytes.len() {
        match bytes[k] {
            b'<' | b'(' | b'[' => level += 1,
            b'>' | b')' | b']' => level -= 1,
            b'f' if level == 0
                && rest[k..].starts_with("for")
                && (k == 0 || !bytes[k - 1].is_ascii_alphanumeric() && bytes[k - 1] != b'_')
                && bytes
                    .get(k + 3)
                    .is_some_and(|&b| !b.is_ascii_alphanumeric() && b != b'_') =>
            {
                split_at = Some(k);
                break;
            }
            _ => {}
        }
        k += 1;
    }
    match split_at {
        Some(k) => (base_name(&rest[k + 3..]), base_name(&rest[..k])),
        None => (base_name(rest), None),
    }
}

/// The base identifier of a (possibly generic, possibly pathed) type:
/// `crate::foo::Bar<T>` → `Bar`; `&mut dyn Frob` → `Frob`.
fn base_name(s: &str) -> Option<String> {
    let mut last = None;
    let mut cur = String::new();
    for c in s.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else {
            if !cur.is_empty() && !matches!(cur.as_str(), "dyn" | "mut" | "where" | "const") {
                last = Some(std::mem::take(&mut cur));
            } else {
                cur.clear();
            }
            if c == '<' {
                break;
            }
        }
    }
    if !cur.is_empty() && !matches!(cur.as_str(), "dyn" | "mut" | "where" | "const") {
        last = Some(cur);
    }
    last
}

// ---------------------------------------------------------------------------
// Pass 3: reachability-scoped rules.

struct RuleCtx<'a> {
    path: &'a str,
    lines: &'a [SplitLine],
    idx: usize,
    code: &'a str,
    owner: &'a FnDef,
}

/// Panic-capable macros (matched as `name!`; word-bounding keeps
/// `debug_assert!` out).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Is there a `.name(`-style method call on this line?
fn method_call(code: &str, name: &str) -> bool {
    let bytes = code.as_bytes();
    word_positions(code, name)
        .into_iter()
        .any(|p| p > 0 && bytes[p - 1] == b'.' && bytes.get(p + name.len()) == Some(&b'('))
}

/// Is there a `.name(` or `.name::<…>(` method call on this line?
fn method_call_or_turbofish(code: &str, name: &str) -> bool {
    let bytes = code.as_bytes();
    word_positions(code, name).into_iter().any(|p| {
        p > 0
            && bytes[p - 1] == b'.'
            && matches!(bytes.get(p + name.len()), Some(&b'(') | Some(&b':'))
    })
}

/// Is there a `name!(`/`name![` macro invocation on this line?
fn macro_call(code: &str, name: &str) -> bool {
    let bytes = code.as_bytes();
    word_positions(code, name)
        .into_iter()
        .any(|p| bytes.get(p + name.len()) == Some(&b'!'))
}

/// A slice-indexing site: `ident[`, `)[`, or `][`, excluding the
/// full-range slice `[..]` (which cannot panic).
fn has_indexing(code: &str) -> bool {
    let bytes = code.as_bytes();
    for (p, &b) in bytes.iter().enumerate() {
        if b != b'[' || p == 0 {
            continue;
        }
        let prev = bytes[p - 1];
        let indexy = prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']';
        if !indexy {
            continue;
        }
        // Exempt the infallible full-range slice `[..]`.
        let rest = &code[p + 1..];
        if rest.trim_start().starts_with("..]") {
            continue;
        }
        return true;
    }
    false
}

fn hot_suffix(owner: &FnDef, info: &HotInfo) -> String {
    format!(
        "in hot function `{}` (stage {}, distance {} from a root)",
        owner.qualified(),
        info.stage,
        info.distance
    )
}

fn scan_panic_rule(
    ctx: &RuleCtx<'_>,
    info: &HotInfo,
    out: &mut Vec<Violation>,
    sites: &mut SiteCounts,
) {
    let mut what: Option<&str> = None;
    if method_call(ctx.code, "unwrap") {
        what = Some("`unwrap()`");
    } else if method_call(ctx.code, "expect") {
        what = Some("`expect()`");
    } else if let Some(m) = PANIC_MACROS.iter().find(|m| macro_call(ctx.code, m)) {
        what = match *m {
            "assert" | "assert_eq" | "assert_ne" => Some("`assert!`-family macro"),
            _ => Some("panic-family macro"),
        };
    } else if has_indexing(ctx.code) {
        what = Some("slice indexing");
    }
    let Some(what) = what else { return };
    if annotated(ctx.lines, ctx.idx, "panic-ok:") {
        sites.justified += 1;
        return;
    }
    sites.deny += 1;
    out.push(Violation {
        path: ctx.path.to_string(),
        line: ctx.idx + 1,
        rule: Rule::HotPanic,
        message: format!(
            "{what} {}; hot code must be panic-free or carry a \
             `// panic-ok: <reason>` justification",
            hot_suffix(ctx.owner, info)
        ),
    });
}

fn scan_alloc_rule(
    ctx: &RuleCtx<'_>,
    info: &HotInfo,
    out: &mut Vec<Violation>,
    sites: &mut SiteCounts,
) {
    let code = ctx.code;
    let found = code.contains("Vec::new(")
        || code.contains("Vec::with_capacity(")
        || word_positions(code, "with_capacity")
            .iter()
            .any(|&p| code.as_bytes().get(p + "with_capacity".len()) == Some(&b'('))
        || macro_call(code, "vec")
        || code.contains("Box::new(")
        || macro_call(code, "format")
        || code.contains("String::new(")
        || method_call(code, "to_vec")
        || method_call(code, "to_string")
        || method_call(code, "to_owned")
        || method_call(code, "clone")
        || method_call_or_turbofish(code, "collect")
        || method_call(code, "push");
    if !found {
        return;
    }
    if annotated(ctx.lines, ctx.idx, "alloc-ok:") {
        sites.justified += 1;
        return;
    }
    sites.warn += 1;
    out.push(Violation {
        path: ctx.path.to_string(),
        line: ctx.idx + 1,
        rule: Rule::HotAlloc,
        message: format!(
            "heap allocation {}; prefer reuse/preallocation or justify \
             with `// alloc-ok: <reason>`",
            hot_suffix(ctx.owner, info)
        ),
    });
}

/// Path-qualified blocking constructs.
const BLOCKING_PATHS: &[&str] = &[
    "std::fs::",
    "File::open",
    "File::create",
    "OpenOptions::new",
    "std::process::Command",
    "Command::new",
    "io::stdin",
    "io::stdout",
    "io::stderr",
    "thread::sleep",
];

/// Blocking macros.
const BLOCKING_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

/// Blocking method calls.
const BLOCKING_METHODS: &[&str] = &[
    "lock",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "read_line",
];

fn scan_blocking_rule(
    ctx: &RuleCtx<'_>,
    info: &HotInfo,
    out: &mut Vec<Violation>,
    sites: &mut SiteCounts,
) {
    let code = ctx.code;
    let found = BLOCKING_PATHS.iter().any(|p| code.contains(p))
        || BLOCKING_MACROS.iter().any(|m| macro_call(code, m))
        || BLOCKING_METHODS.iter().any(|m| method_call(code, m));
    if !found {
        return;
    }
    if annotated(ctx.lines, ctx.idx, "blocking-ok:") {
        sites.justified += 1;
        return;
    }
    sites.deny += 1;
    out.push(Violation {
        path: ctx.path.to_string(),
        line: ctx.idx + 1,
        rule: Rule::HotBlocking,
        message: format!(
            "blocking call {}; hot code must not block or must justify \
             with `// blocking-ok: <reason>`",
            hot_suffix(ctx.owner, info)
        ),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_file(src: &str) -> Vec<(String, String)> {
        vec![("crates/x/src/a.rs".to_string(), src.to_string())]
    }

    fn analyze(src: &str, roots: Vec<RootSpec>) -> GraphAnalysis {
        analyze_sources(&one_file(src), roots)
    }

    #[test]
    fn extracts_free_and_impl_functions_with_context() {
        let src = "\
pub fn free_one() {}
struct Foo;
impl Foo {
    pub fn method_a(&self) {}
}
impl Frob for Foo {
    fn frob(&self) {}
}
trait Frob {
    fn frob(&self);
    fn defaulted(&self) -> u32 { 7 }
}
";
        let a = analyze(src, vec![]);
        let names: Vec<String> = a.functions.iter().map(|f| f.qualified()).collect();
        assert_eq!(
            names,
            vec!["free_one", "Foo::method_a", "Foo::frob", "Frob::defaulted"]
        );
        let frob = &a.functions[2];
        assert_eq!(frob.trait_ctx.as_deref(), Some("Frob"));
        assert_eq!(frob.line, 7);
    }

    #[test]
    fn multi_line_signatures_and_generics_parse() {
        let src = "\
impl<O: Oracle + ?Sized> OracleGuard<O> {
    pub fn query_batch(
        &mut self,
        inputs: &[u64],
    ) -> Vec<u64> {
        helper(inputs)
    }
}
fn helper(xs: &[u64]) -> Vec<u64> { xs.to_vec() }
";
        let a = analyze(src, vec![]);
        assert_eq!(a.functions[0].qualified(), "OracleGuard::query_batch");
        assert_eq!(a.functions[0].calls.len(), 1);
        assert_eq!(a.functions[0].calls[0].name, "helper");
        // The unqualified call resolves to the free `helper`.
        assert_eq!(a.edges, vec![(0, 1)]);
    }

    #[test]
    fn qualified_calls_resolve_by_type_and_miss_externals() {
        let src = "\
struct A;
struct B;
impl A { fn make() {} }
impl B { fn make() {} }
fn caller() {
    A::make();
    Vec::new();
}
";
        let a = analyze(src, vec![]);
        let caller = a.find("caller").unwrap();
        let a_make = a.find("A::make").unwrap();
        // Exactly one edge: `A::make` resolves to A's impl only, and
        // `Vec::new` (no workspace def) resolves to nothing.
        assert_eq!(a.edges, vec![(caller, a_make)]);
    }

    #[test]
    fn ambiguous_method_calls_widen_to_every_candidate() {
        let src = "\
struct A;
struct B;
impl A { fn frob(&self) {} }
impl B { fn frob(&self) { danger().unwrap(); } }
fn danger() -> Result<(), ()> { Ok(()) }
fn driver(x: &A) {
    x.frob();
}
";
        let roots = vec![RootSpec::new("driver", "custom", 1)];
        let a = analyze(src, roots);
        // `x.frob()` has an unknown receiver: BOTH frobs get the edge,
        // so the unwrap inside B::frob is hot — over-approximation
        // keeps the edge rather than missing it.
        let b_frob = a.find("B::frob").unwrap();
        assert!(a.hot[b_frob].is_some(), "widening must keep B::frob hot");
        assert!(
            a.violations.iter().any(|v| v.rule == Rule::HotPanic),
            "unwrap in a widened callee must be flagged: {:?}",
            a.violations
        );
    }

    #[test]
    fn self_qualifier_resolves_to_the_impl_type() {
        let src = "\
struct S;
impl S {
    fn entry(&self) { Self::leaf(); }
    fn leaf() {}
}
";
        let a = analyze(src, vec![RootSpec::new("S::entry", "custom", 1)]);
        let leaf = a.find("S::leaf").unwrap();
        assert!(a.hot[leaf].is_some(), "Self::leaf must be reached");
    }

    #[test]
    fn turbofish_calls_still_form_edges() {
        let src = "\
struct P;
impl P { fn parse(s: &str) -> u32 { 0 } }
fn caller() {
    P::parse::<>(\"x\");
}
";
        let a = analyze(src, vec![]);
        assert_eq!(a.edges.len(), 1);
    }

    #[test]
    fn reachability_is_transitive_and_scoped() {
        let src = "\
fn root_fn() { middle(); }
fn middle() { leaf(); }
fn leaf() { xs.unwrap(); }
fn cold() { ys.unwrap(); }
";
        let a = analyze(src, vec![RootSpec::new("root_fn", "oracle", 5)]);
        assert_eq!(a.hot_count(), 3);
        let leaf = a.find("leaf").unwrap();
        assert_eq!(a.hot[leaf].as_ref().unwrap().distance, 2);
        assert!(a.hot[a.find("cold").unwrap()].is_none());
        // Only the hot unwrap is flagged.
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].line, 3);
    }

    #[test]
    fn test_modules_contribute_nothing() {
        let src = "\
fn hot_fn() { helper(); }
fn helper() {}
#[cfg(test)]
mod tests {
    fn helper() { panic!(\"in tests\"); }
    #[test]
    fn t() { hot_fn(); helper(); }
}
";
        let a = analyze(src, vec![RootSpec::new("hot_fn", "custom", 1)]);
        // The test-module helper is not extracted at all.
        assert_eq!(a.functions.len(), 2);
        assert!(a.violations.is_empty());
    }

    #[test]
    fn panic_rule_catches_each_construct_and_markers_silence() {
        let cases = [
            "fn root_fn() { x.unwrap(); }",
            "fn root_fn() { x.expect(\"m\"); }",
            "fn root_fn() { panic!(\"boom\"); }",
            "fn root_fn() { unreachable!(); }",
            "fn root_fn() { assert!(x > 0); }",
            "fn root_fn() { assert_eq!(a, b); }",
            "fn root_fn() { let y = xs[i]; }",
        ];
        for src in cases {
            let a = analyze(src, vec![RootSpec::new("root_fn", "custom", 1)]);
            assert_eq!(a.violations.len(), 1, "{src}");
            assert_eq!(a.violations[0].rule, Rule::HotPanic, "{src}");
        }
        let ok =
            "fn root_fn() {\n    // panic-ok: index bounded by loop above.\n    let y = xs[i];\n}";
        let a = analyze(ok, vec![RootSpec::new("root_fn", "custom", 1)]);
        assert!(a.violations.is_empty());
        let root = a.find("root_fn").unwrap();
        assert_eq!(a.sites[root].justified, 1);
    }

    #[test]
    fn debug_assert_and_full_range_slices_are_exempt() {
        let src = "fn root_fn() { debug_assert!(x); let s = &xs[..]; }";
        let a = analyze(src, vec![RootSpec::new("root_fn", "custom", 1)]);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
    }

    #[test]
    fn alloc_rule_warns_and_does_not_deny() {
        let src = "fn root_fn() { let v = Vec::new(); let w = x.clone(); }";
        let a = analyze(src, vec![RootSpec::new("root_fn", "custom", 1)]);
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].rule, Rule::HotAlloc);
        assert_eq!(a.violations[0].rule.severity(), Severity::Warn);
        assert_eq!(a.deny_violations().count(), 0);
        assert_eq!(a.warn_violations().count(), 1);
    }

    #[test]
    fn blocking_rule_fires_in_hot_code_only() {
        let hot = "fn root_fn() { let g = m.lock(); }";
        let a = analyze(hot, vec![RootSpec::new("root_fn", "custom", 1)]);
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].rule, Rule::HotBlocking);

        // A cold blocking call is fine.
        let cold = "fn cold_fn() { let g = m.lock(); }";
        let a = analyze(cold, vec![RootSpec::new("absent", "custom", 1)]);
        assert!(a.violations.is_empty());
    }

    #[test]
    fn root_patterns_match_type_or_trait_context() {
        let src = "\
trait Oracle {
    fn query(&mut self) -> bool { self.raw() }
    fn raw(&mut self) -> bool;
}
struct C;
impl Oracle for C {
    fn raw(&mut self) -> bool { data[0] }
}
";
        let a = analyze(src, vec![RootSpec::new("Oracle::query", "oracle", 5)]);
        // The trait-default `query` matches by trait context, and its
        // `self.raw()` call widens to C's impl.
        let raw = a.find("C::raw").unwrap();
        assert!(a.hot[raw].is_some());
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].rule, Rule::HotPanic);
    }

    #[test]
    fn hottest_table_ranks_by_stage_weight_not_name() {
        let src = "\
fn aaa_cool() { q[0]; }
fn zzz_hot() { q[0]; }
";
        let roots = vec![
            RootSpec::new("aaa_cool", "custom", 1),
            RootSpec::new("zzz_hot", "oracle", 5),
        ];
        let a = analyze(src, roots);
        let ranked = a.hottest(10);
        assert_eq!(a.functions[ranked[0]].name, "zzz_hot");
        let table = a.render_hottest(10);
        assert!(table.contains("oracle"), "{table}");
        let zpos = table.find("zzz_hot").unwrap();
        let apos = table.find("aaa_cool").unwrap();
        assert!(zpos < apos, "oracle-stage fn must rank first:\n{table}");
    }

    #[test]
    fn path_between_returns_the_chain() {
        let src = "\
fn a_fn() { b_fn(); }
fn b_fn() { c_fn(); }
fn c_fn() {}
";
        let a = analyze(src, vec![]);
        let chain = a.path_between("a_fn", "c_fn").expect("chain exists");
        assert_eq!(chain, vec!["a_fn", "b_fn", "c_fn"]);
        assert!(a.path_between("c_fn", "a_fn").is_none());
    }

    #[test]
    fn json_output_is_shaped_and_escaped() {
        let src = "fn root_fn() { x.unwrap(); }";
        let a = analyze(src, vec![RootSpec::new("root_fn", "oracle", 5)]);
        let json = a.to_json();
        assert!(json.starts_with("{\"schema_version\":1,"));
        assert!(json.contains("\"pattern\":\"root_fn\""));
        assert!(json.contains("\"hot\":true"));
        assert!(json.contains("\"rule\":\"hot-panic\""));
        assert!(json.contains("\"severity\":\"deny\""));
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn parse_root_spec_forms() {
        let r = parse_root_spec("Oracle::query", 0, 2);
        assert_eq!(r.pattern, "Oracle::query");
        assert_eq!(r.stage, "custom");
        assert_eq!(r.weight, 2);
        let r = parse_root_spec("step@fbdt:3", 1, 2);
        assert_eq!(
            (r.pattern.as_str(), r.stage.as_str(), r.weight),
            ("step", "fbdt", 3)
        );
        let r = parse_root_spec("sim@sim", 1, 2);
        assert_eq!((r.stage.as_str(), r.weight), ("sim", 1));
    }

    #[test]
    fn impl_header_forms_parse() {
        assert_eq!(
            parse_impl_header(" Oracle for OracleGuard<O> "),
            (Some("OracleGuard".into()), Some("Oracle".into()))
        );
        assert_eq!(
            parse_impl_header("<T: Clone> Wrapper<T> "),
            (Some("Wrapper".into()), None)
        );
        assert_eq!(
            parse_impl_header("<O: Oracle + ?Sized> Oracle for &mut O "),
            (Some("O".into()), Some("Oracle".into()))
        );
        assert_eq!(
            parse_impl_header(" std::fmt::Display for Strategy "),
            (Some("Strategy".into()), Some("Display".into()))
        );
    }
}
