//! Golden test for `espresso::minimize` on covers the learner really
//! builds: the minimized covers must match the recorded ones byte for
//! byte, and where the support is small enough, also by truth table.
//!
//! Each file under `tests/data/espresso_golden/` holds every cover
//! minimized while learning one case in one input order of the workload
//! benchmark (`fbdt_capped` on case_18, `support_sweep` on case_5 and
//! case_11), in call order:
//!
//! ```text
//! # <comment>
//! cover <n>
//! input <cube count>
//! <one cube per line, as `Cube`'s Display prints it: `x3 & !x17`, `1`>
//! minimized <cube count>
//! <cubes>
//! ```
//!
//! The minimized cubes were recorded from the cube-list implementation
//! that the packed one replaced.

use cirlearn_logic::{Cube, Literal, Sop, Var};
use cirlearn_synth::espresso;

/// Supports up to this many variables are also checked by truth table.
const TRUTH_TABLE_VARS: usize = 16;

fn parse_cube(line: &str) -> Cube {
    if line == "1" {
        return Cube::top();
    }
    let literals = line.split(" & ").map(|lit| {
        let (negated, var) = match lit.strip_prefix('!') {
            Some(var) => (true, var),
            None => (false, lit),
        };
        let index = var
            .strip_prefix('x')
            .and_then(|i| i.parse().ok())
            .unwrap_or_else(|| panic!("bad literal {lit:?}"));
        Literal::new(Var::new(index), negated)
    });
    Cube::from_literals(literals).expect("recorded cubes are consistent")
}

/// Reads `<keyword> <count>` and then `count` cubes.
fn parse_section<'a>(lines: &mut impl Iterator<Item = &'a str>, keyword: &str) -> Sop {
    let header = lines.next().expect("section header");
    let count: usize = header
        .strip_prefix(keyword)
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("expected `{keyword} <count>`, got {header:?}"));
    (0..count)
        .map(|_| parse_cube(lines.next().expect("cube line")))
        .collect()
}

fn write_section(text: &mut String, keyword: &str, cover: &Sop) {
    text.push_str(&format!("{keyword} {}\n", cover.cubes().len()));
    for cube in cover.cubes() {
        text.push_str(&format!("{cube}\n"));
    }
}

/// Minterm sets of the variables inside one table word.
const WORD_VARS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The truth table of `cover` over `support` (variable `support[i]` is
/// table variable `i`), 64 minterms per word.
fn truth_table(cover: &Sop, support: &[Var]) -> Vec<u64> {
    let k = support.len();
    let mut table = vec![0u64; (1usize << k).div_ceil(64)];
    for cube in cover.cubes() {
        for (w, word) in table.iter_mut().enumerate() {
            let mut minterms = !0u64;
            for lit in cube.literals() {
                let v = support
                    .binary_search(&lit.var())
                    .expect("variable in the support");
                let ones = match v {
                    0..=5 => WORD_VARS[v],
                    _ if w >> (v - 6) & 1 == 1 => !0,
                    _ => 0,
                };
                minterms &= if lit.polarity() { ones } else { !ones };
            }
            *word |= minterms;
        }
    }
    if k < 6 {
        table[0] &= (1 << (1 << k)) - 1;
    }
    table
}

/// Re-minimizes every cover of one fixture and rebuilds the file's
/// text; returns it with the number of covers and input cubes.
fn replay(name: &str, text: &str) -> (String, usize, usize) {
    let mut out = String::new();
    let mut lines = text.lines().peekable();
    let (mut covers, mut cubes) = (0, 0);
    while let Some(line) = lines.next_if(|l| l.starts_with('#')) {
        out.push_str(line);
        out.push('\n');
    }
    while let Some(header) = lines.next() {
        out.push_str(header);
        out.push('\n');
        let input = parse_section(&mut lines, "input");
        // The recorded output is compared as text, by the caller.
        parse_section(&mut lines, "minimized");
        let minimized = espresso::minimize(&input);
        write_section(&mut out, "input", &input);
        write_section(&mut out, "minimized", &minimized);
        let support = input.support();
        if support.len() <= TRUTH_TABLE_VARS {
            assert_eq!(
                truth_table(&minimized, &support),
                truth_table(&input, &support),
                "{name} {header}: minimize changed the function"
            );
        }
        covers += 1;
        cubes += input.cubes().len();
    }
    (out, covers, cubes)
}

#[test]
fn minimize_reproduces_the_recorded_covers() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/espresso_golden");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("fixture directory is readable")
        .map(|entry| {
            entry
                .expect("directory entry")
                .file_name()
                .into_string()
                .expect("UTF-8 name")
        })
        .collect();
    names.sort();
    let mut big_presentations = 0;
    for name in &names {
        let text = std::fs::read_to_string(format!("{dir}/{name}")).expect("fixture is readable");
        let (replayed, covers, cubes) = replay(name, &text);
        assert!(covers > 0, "{name}: no covers");
        if replayed != text {
            let at = replayed
                .lines()
                .zip(text.lines())
                .position(|(a, b)| a != b)
                .map_or(0, |i| i + 1);
            panic!("{name}: minimize no longer reproduces the recorded covers (first difference at line {at})");
        }
        if name.starts_with("fbdt_capped") && cubes >= 140 {
            big_presentations += 1;
        }
    }
    let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
    assert!(count("fbdt_capped.case_18.") >= 6);
    assert!(big_presentations >= 1, "no presentation with 140+ cubes");
    assert!(count("support_sweep.case_5.") >= 1);
    assert!(count("support_sweep.case_11.") >= 1);
}
