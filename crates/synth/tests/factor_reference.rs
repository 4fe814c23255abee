//! The mask-based `factor` against the literal-vector reference.
//!
//! `reference` below is `factor` written directly on `Cube`s: every
//! division clones the quotient and remainder cubes, and literal counts
//! live in a hash map. `cirlearn_synth::factor::factor` divides literal
//! masks over the cover's own support instead, with the same divisor
//! rule (most frequent literal, the lowest on ties) and the same cube
//! order, so on every cover it must return the same `Expr`.
//!
//! The covers are seeded and random, drawn from small variable pools so
//! that literal counts tie and cubes repeat, with sparse variable
//! indices past 64 and 128, single-literal cubes that empty a quotient,
//! and single-cube covers; plus every input and minimized cover of the
//! espresso golden fixtures, which the learner really built.

use cirlearn_logic::{Cube, Literal, Sop, Var};
use cirlearn_synth::factor::factor;

/// Factoring on cube lists, the implementation the mask one replaced.
mod reference {
    use std::collections::HashMap;

    use cirlearn_logic::{Cube, Literal, Sop};
    use cirlearn_synth::factor::Expr;

    pub fn factor(sop: &Sop) -> Expr {
        if sop.is_zero() {
            return Expr::Const(false);
        }
        if sop.is_one() {
            return Expr::Const(true);
        }
        factor_cubes(sop.cubes())
    }

    fn factor_cubes(cubes: &[Cube]) -> Expr {
        if cubes.is_empty() {
            return Expr::Const(false);
        }
        if cubes.iter().any(Cube::is_empty) {
            return Expr::Const(true);
        }
        if cubes.len() == 1 {
            return cube_expr(&cubes[0]);
        }
        let mut freq: HashMap<Literal, usize> = HashMap::new();
        for c in cubes {
            for l in c.literals() {
                *freq.entry(*l).or_default() += 1;
            }
        }
        let (&best, &count) = freq
            .iter()
            .max_by_key(|&(l, &n)| (n, std::cmp::Reverse(*l)))
            .expect("nonempty cubes have literals");
        if count < 2 {
            return Expr::Or(cubes.iter().map(cube_expr).collect());
        }
        let mut quotient = Vec::new();
        let mut remainder = Vec::new();
        for c in cubes {
            if c.literals().contains(&best) {
                quotient.push(c.without_var(best.var()));
            } else {
                remainder.push(c.clone());
            }
        }
        let q = factor_cubes(&quotient);
        let divided = match q {
            Expr::Const(true) => Expr::Lit(best),
            q => Expr::And(vec![Expr::Lit(best), q]),
        };
        if remainder.is_empty() {
            divided
        } else {
            let r = factor_cubes(&remainder);
            match r {
                Expr::Or(mut es) => {
                    es.insert(0, divided);
                    Expr::Or(es)
                }
                r => Expr::Or(vec![divided, r]),
            }
        }
    }

    fn cube_expr(cube: &Cube) -> Expr {
        match cube.literals() {
            [] => Expr::Const(true),
            [l] => Expr::Lit(*l),
            lits => Expr::And(lits.iter().map(|&l| Expr::Lit(l)).collect()),
        }
    }
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A seeded random cover of up to `max_cubes` cubes. Its variables come
/// from a pool of 1 to 100 indices spread below 8, 70, 140 or 300, and
/// its cubes have 1 to 6 literals, with a few phases biased so that
/// some literals are shared by many cubes and others tie.
fn random_cover(seed: u64, max_cubes: usize) -> Sop {
    let mut rng = Rng(seed);
    let span = [8, 70, 140, 300][rng.below(4)];
    let pool: Vec<Var> = (0..1 + rng.below(100))
        .map(|_| Var::new(rng.below(span) as u32))
        .collect();
    let bias = rng.below(3);
    let cubes = (0..1 + rng.below(max_cubes)).map(|_| {
        let width = 1 + rng.below(6);
        let literals: Vec<Literal> = (0..width)
            .map(|k| {
                let v = pool[rng.below(pool.len())];
                // The first `bias` literals of a cube lean positive.
                Literal::new(v, k >= bias && rng.next() & 1 == 1)
            })
            .collect();
        // Drop literals whose variable already appeared in the other phase.
        let mut kept: Vec<Literal> = Vec::new();
        for l in literals {
            if !kept.iter().any(|k| k.var() == l.var()) {
                kept.push(l);
            }
        }
        Cube::from_literals(kept).expect("one phase per variable")
    });
    Sop::from_cubes(cubes)
}

fn assert_same(cover: &Sop, what: &str) {
    assert_eq!(factor(cover), reference::factor(cover), "{what}: {cover}");
}

#[test]
fn constants_and_single_cubes_match_the_reference() {
    let x = |i: u32, negated: bool| Literal::new(Var::new(i), negated);
    let cube = |lits: &[Literal]| Cube::from_literals(lits.iter().copied()).expect("consistent");
    let covers = [
        Sop::zero(),
        Sop::one(),
        Sop::from_cubes([Cube::top(), cube(&[x(3, false)])]),
        Sop::from_cubes([cube(&[x(200, true)])]),
        Sop::from_cubes([cube(&[x(1, false), x(65, true), x(130, false)])]),
        // A single-literal cube empties the quotient of its literal.
        Sop::from_cubes([cube(&[x(0, false)]), cube(&[x(0, false), x(1, false)])]),
        // Two literals tie at every count.
        Sop::from_cubes([
            cube(&[x(0, false), x(1, false)]),
            cube(&[x(0, true), x(1, true)]),
            cube(&[x(0, false), x(1, true)]),
            cube(&[x(0, true), x(1, false)]),
        ]),
        // Duplicate cubes.
        Sop::from_cubes(vec![cube(&[x(5, false), x(9, true)]); 3]),
    ];
    for (k, cover) in covers.iter().enumerate() {
        assert_same(cover, &format!("cover {k}"));
    }
}

#[test]
fn random_covers_match_the_reference() {
    let (mut high_index, mut wide_support) = (false, false);
    for seed in 0..1_500 {
        let cover = random_cover(seed, 1 + (seed as usize % 5) * 40);
        let support = cover.support();
        high_index |= support.iter().any(|v| v.index() >= 128);
        wide_support |= support.len() > 64;
        assert_same(&cover, &format!("seed {seed}"));
    }
    assert!(high_index, "some cover must use variable indices past 128");
    assert!(wide_support, "some cover must have more than 64 variables");
}

/// Every cover of the espresso golden fixtures, input and minimized.
fn golden_covers() -> Vec<(String, Sop)> {
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
    let mut covers = Vec::new();
    for name in names {
        let text = std::fs::read_to_string(format!("{dir}/{name}")).expect("fixture is readable");
        let mut lines = text.lines().filter(|l| !l.starts_with('#'));
        let mut cover = String::new();
        while let Some(header) = lines.next() {
            let (keyword, count) = header.split_once(' ').expect("`<keyword> <count>`");
            let count: usize = count.parse().expect("a count");
            if keyword == "cover" {
                cover = header.to_owned();
                continue;
            }
            let sop = (0..count)
                .map(|_| parse_cube(lines.next().expect("cube line")))
                .collect();
            covers.push((format!("{name} {cover} {keyword}"), sop));
        }
    }
    covers
}

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

#[test]
fn learned_covers_match_the_reference() {
    let covers = golden_covers();
    assert!(covers.len() > 100, "{} covers", covers.len());
    assert!(covers.iter().any(|(_, sop)| sop.cubes().len() > 64));
    for (what, cover) in &covers {
        assert_same(cover, what);
    }
}

#[test]
#[ignore = "larger sweep; run with --include-ignored"]
fn larger_sweep_matches_the_reference() {
    for seed in 10_000..40_000 {
        assert_same(&random_cover(seed, 400), &format!("seed {seed}"));
    }
}
