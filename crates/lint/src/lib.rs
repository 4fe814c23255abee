//! Project concurrency lints for the cirlearn workspace.
//!
//! `cargo run -p cirlearn-lint` scans every `.rs` file under
//! `crates/`, `vendor/`, and `tests/` and enforces the conventions the
//! concurrency toolkit (weak-memory loom, the happens-before race
//! detector, miri in CI) relies on to stay meaningful:
//!
//! - **unsafe-safety-comment** — every `unsafe` block, `unsafe impl`,
//!   and `unsafe trait` carries a `SAFETY:` comment on the same line or
//!   in the contiguous comment block directly above it. An argument
//!   that was never written down cannot be reviewed.
//! - **static-mut** — `static mut` is banned outright; it is a data
//!   race waiting for a second thread. Use an atomic from the crate's
//!   `sync` alias or a lock instead.
//! - **relaxed-store** — a `Relaxed` *store* (plain store, swap, or
//!   `fetch_*` read-modify-write, or the success ordering of a
//!   compare-exchange) publishes nothing and is almost always a bug in
//!   code that later reads the location from another thread. Each
//!   legitimate site must be annotated `// relaxed-ok: <reason>` so the
//!   allow-list is explicit and greppable. `Relaxed` *loads* and
//!   compare-exchange *failure* orderings are exempt: the failure
//!   ordering governs a load. Applies to `src/` trees only — litmus
//!   tests and seeded-bug tests legitimately use `Relaxed` everywhere.
//! - **atomic-alias** — the concurrency-touched crate
//!   (`crates/telemetry`) must route atomics through its cfg-switchable
//!   `sync` alias rather than naming `std::sync::atomic`,
//!   `loom::sync::`, or `tsan::sync::` directly; a direct use silently
//!   escapes the model checker and the race detector. The alias module
//!   itself opts out with a `cirlearn-lint: allow(atomic-alias)` file
//!   marker.
//!
//! The scanner is deliberately syn-free: a line/token scanner over a
//! small state machine that strips string literals and separates
//! comments from code. That keeps it dependency-free and fast, at the
//! cost of being an approximation — it is a project lint, not a parser.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod graph;

/// How severe a violated rule is.
///
/// `Deny` rules gate exit codes (a panic or a blocking call in a hot
/// loop is a correctness hazard on the query path); `Warn`
/// rules are advisory (an allocation in a hot loop costs throughput,
/// not safety) and never fail a build on their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// Gates the exit code.
    Deny,
    /// Advisory only.
    Warn,
}

impl Severity {
    /// The lowercase name printed in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// Which lint rule a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// An `unsafe` block/impl/trait without a `SAFETY:` comment.
    UnsafeSafetyComment,
    /// A `static mut` item.
    StaticMut,
    /// A `Relaxed` store outside the `// relaxed-ok:` allow-list.
    RelaxedStore,
    /// A direct atomic import in an alias-enforced crate.
    AtomicAlias,
    /// A panic-capable construct (`unwrap`/`expect`/`panic!`/`assert!`/
    /// `unreachable!`/slice indexing) in a function reachable from a
    /// hot-path root, without a `// panic-ok:` justification.
    HotPanic,
    /// A heap allocation (`Vec::new`/`Box::new`/`format!`/`clone`/…)
    /// in a function reachable from a hot-path root, without an
    /// `// alloc-ok:` justification.
    HotAlloc,
    /// A blocking call (`Mutex::lock`, file/process I/O, `println!`)
    /// in a hot function, without a `// blocking-ok:` justification.
    HotBlocking,
}

impl Rule {
    /// The kebab-case name printed in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeSafetyComment => "unsafe-safety-comment",
            Rule::StaticMut => "static-mut",
            Rule::RelaxedStore => "relaxed-store",
            Rule::AtomicAlias => "atomic-alias",
            Rule::HotPanic => "hot-panic",
            Rule::HotAlloc => "hot-alloc",
            Rule::HotBlocking => "hot-blocking",
        }
    }

    /// The rule's severity. All line rules and two of the three
    /// hot-path families gate; allocation findings advise.
    pub fn severity(self) -> Severity {
        match self {
            Rule::UnsafeSafetyComment
            | Rule::StaticMut
            | Rule::RelaxedStore
            | Rule::AtomicAlias
            | Rule::HotPanic
            | Rule::HotBlocking => Severity::Deny,
            Rule::HotAlloc => Severity::Warn,
        }
    }
}

/// One finding: a rule violated at a specific line of a specific file.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path of the offending file, relative to the scanned root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Result of scanning a tree: how much was covered and what was found.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// All violations, in path/line order of discovery.
    pub violations: Vec<Violation>,
}

/// A source line split into its code text and its comment text.
///
/// String and char literal *contents* are blanked from the code text
/// (replaced by a single space) so literal bytes never trigger or
/// suppress a rule; comment text is preserved separately because two of
/// the rules key off `SAFETY:` / `relaxed-ok:` annotations.
#[derive(Debug, Default, Clone)]
pub(crate) struct SplitLine {
    pub(crate) code: String,
    pub(crate) comment: String,
}

impl SplitLine {
    fn is_pure_comment(&self) -> bool {
        self.code.trim().is_empty() && !self.comment.trim().is_empty()
    }

    fn is_blank(&self) -> bool {
        self.code.trim().is_empty() && self.comment.trim().is_empty()
    }
}

/// Lexer state carried across lines.
enum State {
    Code,
    /// Inside nested `/* */` comments, with the current depth.
    Block(u32),
    /// Inside a normal `"…"` string literal.
    Str,
    /// Inside a raw string literal closed by `"` plus this many `#`s.
    RawStr(usize),
}

/// Split a whole file into per-line (code, comment) pairs.
pub(crate) fn split_lines(contents: &str) -> Vec<SplitLine> {
    let mut out = Vec::new();
    let mut cur = SplitLine::default();
    let mut state = State::Code;
    let chars: Vec<char> = contents.chars().collect();
    let mut i = 0;

    // True when `chars[i]` could continue an identifier, meaning an
    // `r` / `b` at `i` is part of a word, not a literal prefix.
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            out.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let prev_ident = i > 0 && is_ident(chars[i - 1]);
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    // Line comment: the rest of the line is comment.
                    let mut j = i;
                    while j < chars.len() && chars[j] != '\n' {
                        cur.comment.push(chars[j]);
                        j += 1;
                    }
                    i = j;
                } else if c == '/' && next == Some('*') {
                    state = State::Block(1);
                    i += 2;
                } else if (c == 'r' || c == 'b') && !prev_ident {
                    // Possible raw/byte string prefix: r"…", r#"…"#,
                    // b"…", br#"…"#.
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let raw = c == 'r' || (c == 'b' && chars.get(i + 1) == Some(&'r'));
                    if chars.get(j) == Some(&'"') && (raw || hashes == 0) {
                        cur.code.push(' ');
                        if raw {
                            state = State::RawStr(hashes);
                        } else {
                            state = State::Str;
                        }
                        i = j + 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else if c == '"' {
                    cur.code.push(' ');
                    state = State::Str;
                    i += 1;
                } else if c == '\'' && !prev_ident {
                    // Char literal vs lifetime. A char literal closes
                    // with a `'` within a few characters; a lifetime
                    // never closes.
                    if next == Some('\\') {
                        // Escaped char literal: skip to the closing
                        // quote (bounded — `\u{10FFFF}` is the longest).
                        let mut j = i + 2;
                        let mut steps = 0;
                        while j < chars.len() && chars[j] != '\'' && steps < 10 {
                            j += 1;
                            steps += 1;
                        }
                        cur.code.push(' ');
                        i = j + 1;
                    } else if chars.get(i + 2) == Some(&'\'') {
                        cur.code.push(' ');
                        i += 3;
                    } else {
                        // Lifetime (or `'static` etc.): keep as code.
                        cur.code.push(c);
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::Block(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::Block(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::Block(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    i += 2;
                } else if c == '"' {
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        state = State::Code;
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
        }
    }
    out.push(cur);
    out
}

/// Does line `idx` carry `needle` in its own comment, in the
/// contiguous pure-comment block directly above it, or above the
/// statement it continues?
///
/// rustfmt may split a call across lines (`self.sum\n.fetch_add(...)`),
/// leaving the annotated comment above the *receiver* line — so the
/// walk also passes through code lines that are mid-statement (no
/// terminating `;`/`{`/`}`), checking their trailing comments on the
/// way. A blank line or a completed statement breaks contiguity.
pub(crate) fn annotated(lines: &[SplitLine], idx: usize, needle: &str) -> bool {
    if lines[idx].comment.contains(needle) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if l.is_pure_comment() {
            if l.comment.contains(needle) {
                return true;
            }
        } else if l.is_blank() {
            return false;
        } else {
            if l.comment.contains(needle) {
                return true;
            }
            let code = l.code.trim_end();
            if code.ends_with(';') || code.ends_with('{') || code.ends_with('}') {
                return false;
            }
            // Mid-statement continuation: keep walking up.
        }
    }
    false
}

/// Find word-boundary occurrences of `word` in `code`.
pub(crate) fn word_positions(code: &str, word: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(word) {
        let p = from + rel;
        let before_ok = p == 0 || !is_ident(bytes[p - 1]);
        let end = p + word.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            out.push(p);
        }
        from = end;
    }
    out
}

/// Method calls that make a `Relaxed` ordering on the same line a
/// *store* (or the success side of a read-modify-write).
const STORE_CALLS: &[&str] = &[
    ".store(",
    ".swap(",
    "fetch_add(",
    "fetch_sub(",
    "fetch_and(",
    "fetch_or(",
    "fetch_xor(",
    "fetch_min(",
    "fetch_max(",
    "fetch_update(",
];

/// Crate source trees that must route atomics through their `sync`
/// alias (relative, `/`-separated paths).
const ALIAS_ENFORCED: &[&str] = &["crates/telemetry/src"];

/// File marker opting an alias module itself out of the atomic-alias
/// rule.
const ALIAS_MARKER: &str = "cirlearn-lint: allow(atomic-alias)";

/// Paths the atomic-alias rule flags when used directly in enforced
/// crates.
const DIRECT_ATOMICS: &[&str] = &["std::sync::atomic", "loom::sync::", "tsan::sync::"];

/// Scan one file's contents. `path` is the root-relative,
/// `/`-separated path used both for diagnostics and for path-scoped
/// rules.
pub fn scan_source(path: &str, contents: &str) -> Vec<Violation> {
    let lines = split_lines(contents);
    let in_src = path.contains("/src/") || path.starts_with("src/");
    let alias_enforced =
        ALIAS_ENFORCED.iter().any(|d| path.starts_with(d)) && !contents.contains(ALIAS_MARKER);
    let mut out = Vec::new();
    let mut push = |line: usize, rule: Rule, message: String| {
        out.push(Violation {
            path: path.to_string(),
            line: line + 1,
            rule,
            message,
        });
    };

    for (idx, l) in lines.iter().enumerate() {
        let code = l.code.as_str();

        // Rule: unsafe-safety-comment.
        for p in word_positions(code, "unsafe") {
            let rest = code[p + "unsafe".len()..].trim_start();
            // `unsafe fn` is a declaration — the obligation sits on the
            // callers and on the inner blocks `unsafe_op_in_unsafe_fn`
            // forces. Everything else (`{`, `impl`, `trait`, or an
            // opening brace on the next line) needs a written argument.
            if rest.starts_with("fn") {
                continue;
            }
            if !annotated(&lines, idx, "SAFETY:") {
                push(
                    idx,
                    Rule::UnsafeSafetyComment,
                    "`unsafe` without a `SAFETY:` comment on this line or \
                     in the comment block directly above"
                        .to_string(),
                );
            }
        }

        // Rule: static-mut.
        if code.contains("static mut ") {
            push(
                idx,
                Rule::StaticMut,
                "`static mut` is banned; use an atomic from the crate's \
                 `sync` alias or a lock"
                    .to_string(),
            );
        }

        // Rule: relaxed-store (src trees only).
        if in_src && code.contains("Ordering::Relaxed") {
            let is_store_call = STORE_CALLS.iter().any(|c| code.contains(c));
            // In a compare-exchange, `Ordering::Relaxed,` (followed by
            // a comma) is the success ordering — a store; a trailing
            // `Ordering::Relaxed)` is the failure ordering — a load.
            let is_cas_success =
                code.contains("compare_exchange") && code.contains("Ordering::Relaxed,");
            if (is_store_call || is_cas_success) && !annotated(&lines, idx, "relaxed-ok:") {
                push(
                    idx,
                    Rule::RelaxedStore,
                    "`Relaxed` store without a `// relaxed-ok:` \
                     justification on this line or directly above"
                        .to_string(),
                );
            }
        }

        // Rule: atomic-alias (enforced crates only).
        if alias_enforced {
            for direct in DIRECT_ATOMICS {
                if code.contains(direct) {
                    push(
                        idx,
                        Rule::AtomicAlias,
                        format!(
                            "direct use of `{direct}` in an alias-enforced \
                             crate; route through the crate's `sync` alias \
                             so loom and the race detector see it"
                        ),
                    );
                }
            }
        }
    }
    out
}

/// Recursively collect `.rs` files under `dir`, skipping build output
/// and hidden directories.
pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan the workspace rooted at `root`: every `.rs` file under
/// `crates/`, `vendor/`, and `tests/`.
pub fn scan_tree(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for top in ["crates", "vendor", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut report = Report::default();
    for file in files {
        let contents = fs::read_to_string(&file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        report.violations.extend(scan_source(&rel, &contents));
        report.files += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, src: &str) -> Vec<Rule> {
        scan_source(path, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn unannotated_unsafe_block_is_flagged() {
        let src = "fn f() {\n    let x = unsafe { danger() };\n}\n";
        let found = scan_source("crates/x/src/a.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::UnsafeSafetyComment);
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn safety_comment_above_or_inline_satisfies_the_rule() {
        let above = "fn f() {\n    // SAFETY: danger() is fine here.\n    let x = unsafe { danger() };\n}\n";
        let inline = "fn f() {\n    let x = unsafe { danger() }; // SAFETY: fine.\n}\n";
        let multi = "fn f() {\n    // The pointer came from Box::into_raw.\n    // SAFETY: see above.\n    let x = unsafe { danger() };\n}\n";
        for src in [above, inline, multi] {
            assert!(rules("crates/x/src/a.rs", src).is_empty(), "{src}");
        }
    }

    #[test]
    fn a_blank_line_breaks_safety_comment_contiguity() {
        let src = "fn f() {\n    // SAFETY: stale, refers to something else.\n\n    let x = unsafe { danger() };\n}\n";
        assert_eq!(
            rules("crates/x/src/a.rs", src),
            vec![Rule::UnsafeSafetyComment]
        );
    }

    #[test]
    fn unsafe_impl_and_trait_need_safety_but_unsafe_fn_does_not() {
        let imp = "unsafe impl Send for Foo {}\n";
        assert_eq!(
            rules("crates/x/src/a.rs", imp),
            vec![Rule::UnsafeSafetyComment]
        );
        let tr = "unsafe trait Zeroable {}\n";
        assert_eq!(
            rules("crates/x/src/a.rs", tr),
            vec![Rule::UnsafeSafetyComment]
        );
        let f = "unsafe fn danger() {}\n";
        assert!(rules("crates/x/src/a.rs", f).is_empty());
    }

    #[test]
    fn the_word_unsafe_in_strings_and_comments_is_ignored() {
        let src = "// unsafe is a scary word\nfn f() {\n    let s = \"unsafe { }\";\n}\n";
        assert!(rules("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn static_mut_is_always_flagged() {
        let src = "static mut COUNTER: u64 = 0;\n";
        assert_eq!(rules("crates/x/src/a.rs", src), vec![Rule::StaticMut]);
        // ... even in tests.
        assert_eq!(rules("crates/x/tests/t.rs", src), vec![Rule::StaticMut]);
    }

    #[test]
    fn relaxed_store_without_annotation_is_flagged_in_src() {
        let src = "fn f(a: &AtomicU64) {\n    a.store(1, Ordering::Relaxed);\n}\n";
        assert_eq!(rules("crates/x/src/a.rs", src), vec![Rule::RelaxedStore]);
        let rmw = "fn f(a: &AtomicU64) {\n    a.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert_eq!(rules("crates/x/src/a.rs", rmw), vec![Rule::RelaxedStore]);
    }

    #[test]
    fn annotated_relaxed_store_passes() {
        let src = "fn f(a: &AtomicU64) {\n    // relaxed-ok: counter only ever read after join.\n    a.store(1, Ordering::Relaxed);\n}\n";
        assert!(rules("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn an_annotation_survives_a_rustfmt_split_statement() {
        // rustfmt may move the call onto a continuation line below the
        // receiver; the annotation above the statement still counts.
        let src = "fn f(a: &AtomicU64) {\n    // relaxed-ok: published by the Release add below.\n    a.counter\n        .fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(rules("crates/x/src/a.rs", src).is_empty());
        // ...but an annotation above a *completed* earlier statement
        // does not leak onto the next one.
        let leak = "fn f(a: &AtomicU64) {\n    // relaxed-ok: for the first store only.\n    a.store(1, Ordering::Relaxed);\n    a.store(2, Ordering::Relaxed);\n}\n";
        assert_eq!(rules("crates/x/src/a.rs", leak), vec![Rule::RelaxedStore]);
    }

    #[test]
    fn relaxed_loads_and_cas_failure_orderings_are_exempt() {
        let load = "fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Relaxed)\n}\n";
        assert!(rules("crates/x/src/a.rs", load).is_empty());
        let cas_fail = "fn f(a: &AtomicU64) {\n    let _ = a.compare_exchange(0, 1, Ordering::SeqCst, Ordering::Relaxed);\n}\n";
        assert!(rules("crates/x/src/a.rs", cas_fail).is_empty());
    }

    #[test]
    fn cas_success_relaxed_is_flagged() {
        let src = "fn f(a: &AtomicU64) {\n    let _ = a.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);\n}\n";
        assert_eq!(rules("crates/x/src/a.rs", src), vec![Rule::RelaxedStore]);
    }

    #[test]
    fn relaxed_stores_outside_src_trees_are_not_policed() {
        let src = "fn f(a: &AtomicU64) {\n    a.store(1, Ordering::Relaxed);\n}\n";
        assert!(rules("crates/x/tests/litmus.rs", src).is_empty());
        assert!(rules("vendor/loom/tests/weak.rs", src).is_empty());
    }

    #[test]
    fn direct_atomics_in_enforced_crates_are_flagged() {
        let src = "use std::sync::atomic::AtomicU64;\n";
        assert_eq!(
            rules("crates/telemetry/src/evil.rs", src),
            vec![Rule::AtomicAlias]
        );
        // Unenforced crates may talk to std atomics directly.
        assert!(rules("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn the_alias_marker_opts_a_file_out() {
        let src = "// cirlearn-lint: allow(atomic-alias)\nuse std::sync::atomic::AtomicU64;\nuse loom::sync::atomic::AtomicU64 as L;\n";
        assert!(rules("crates/telemetry/src/sync.rs", src).is_empty());
    }

    #[test]
    fn string_literals_never_trigger_or_suppress_rules() {
        // Patterns inside strings must not trigger...
        let s1 = "fn f() {\n    let s = \"static mut X: u64 = 0;\";\n}\n";
        assert!(rules("crates/x/src/a.rs", s1).is_empty());
        // ...and an annotation inside a string must not suppress.
        let s2 = "fn f(a: &AtomicU64) {\n    let s = \"relaxed-ok: nope\";\n    a.store(1, Ordering::Relaxed);\n}\n";
        assert_eq!(rules("crates/x/src/a.rs", s2), vec![Rule::RelaxedStore]);
    }

    #[test]
    fn raw_strings_and_char_literals_are_stripped() {
        let raw = "fn f() {\n    let s = r#\"unsafe { static mut }\"#;\n}\n";
        assert!(rules("crates/x/src/a.rs", raw).is_empty());
        let chars = "fn f() {\n    let q = '\"';\n    let e = '\\'';\n    let x = unsafe { danger() };\n}\n";
        assert_eq!(
            rules("crates/x/src/a.rs", chars),
            vec![Rule::UnsafeSafetyComment]
        );
    }

    #[test]
    fn block_comments_count_as_comment_text() {
        let src =
            "fn f() {\n    /* SAFETY: argued at length. */\n    let x = unsafe { danger() };\n}\n";
        assert!(rules("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn violations_render_with_path_line_and_rule() {
        let src = "static mut X: u64 = 0;\n";
        let v = &scan_source("crates/x/src/a.rs", src)[0];
        let rendered = v.to_string();
        assert!(
            rendered.starts_with("crates/x/src/a.rs:1: [static-mut]"),
            "{rendered}"
        );
    }
}
