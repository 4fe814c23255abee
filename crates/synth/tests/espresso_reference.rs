//! The packed espresso against a cube-list reference implementation.
//!
//! `reference` below is espresso written directly on `Sop`s and `Cube`s:
//! every cofactor is a new cover, and literal counts live in hash maps.
//! The packed implementation in `cirlearn_synth::espresso` must make the
//! same decisions, so on every cover `minimize` and `complement` return
//! the same cubes in the same order, and `tautology` and `cube_covered`
//! the same answers. The covers are seeded and random: decision-tree
//! covers, like the FBDT's, and loose random covers, over variable
//! universes of one, two and three 64-bit words with sparse high
//! indices, plus covers with an empty cube, duplicate cubes, contained
//! cubes and single-literal cubes.

use cirlearn_logic::{Cube, Sop, Var};
use cirlearn_synth::espresso;

/// Espresso on cube lists, the implementation the packed one replaced.
mod reference {
    use cirlearn_logic::{Cube, Literal, Sop, Var};

    pub fn tautology(cover: &Sop) -> bool {
        if cover.is_one() {
            return true;
        }
        if cover.is_zero() {
            return false;
        }
        match most_binate_var(cover) {
            None => false,
            Some(v) => {
                let pos = cofactor_cover(cover, v.positive());
                if !tautology(&pos) {
                    return false;
                }
                let neg = cofactor_cover(cover, v.negative());
                tautology(&neg)
            }
        }
    }

    pub fn cube_covered(cube: &Cube, cover: &Sop) -> bool {
        let mut reduced = cover.clone();
        for lit in cube.literals() {
            reduced = cofactor_cover(&reduced, *lit);
        }
        tautology(&reduced)
    }

    fn cofactor_cover(cover: &Sop, lit: Literal) -> Sop {
        cover
            .cubes()
            .iter()
            .filter(|c| c.phase_of(lit.var()) != Some(!lit.polarity()))
            .map(|c| c.without_var(lit.var()))
            .collect()
    }

    fn most_binate_var(cover: &Sop) -> Option<Var> {
        use std::collections::HashMap;
        let mut pos_count: HashMap<Var, usize> = HashMap::new();
        let mut neg_count: HashMap<Var, usize> = HashMap::new();
        for cube in cover.cubes() {
            for lit in cube.literals() {
                if lit.is_negated() {
                    *neg_count.entry(lit.var()).or_default() += 1;
                } else {
                    *pos_count.entry(lit.var()).or_default() += 1;
                }
            }
        }
        pos_count
            .iter()
            .filter_map(|(v, &p)| {
                let n = *neg_count.get(v)?;
                Some((*v, p + n, p.min(n)))
            })
            .max_by_key(|&(v, total, balanced)| (total, balanced, std::cmp::Reverse(v)))
            .map(|(v, _, _)| v)
    }

    fn expand(cover: &Sop, reference: &Sop) -> Sop {
        use std::collections::HashMap;
        let mut freq: HashMap<Literal, usize> = HashMap::new();
        for cube in cover.cubes() {
            for lit in cube.literals() {
                *freq.entry(*lit).or_default() += 1;
            }
        }
        let mut out = Sop::zero();
        for cube in cover.cubes() {
            let mut current = cube.clone();
            let mut lits: Vec<Literal> = current.literals().to_vec();
            lits.sort_by_key(|l| freq.get(l).copied().unwrap_or(0));
            for lit in lits {
                let candidate = current.without_var(lit.var());
                if cube_covered(&candidate, reference) {
                    current = candidate;
                }
            }
            out.push(current);
        }
        out
    }

    pub fn complement(cover: &Sop) -> Sop {
        if cover.is_one() {
            return Sop::zero();
        }
        if cover.is_zero() {
            return Sop::one();
        }
        let var = most_binate_var(cover).unwrap_or_else(|| {
            cover.cubes()[0]
                .literals()
                .first()
                .expect("non-constant cover has literals")
                .var()
        });
        let f1c = complement(&cofactor_cover(cover, var.positive()));
        let f0c = complement(&cofactor_cover(cover, var.negative()));
        let mut out = Sop::zero();
        for c in f1c.cubes() {
            if f0c.cubes().contains(c) {
                out.push(c.clone());
            } else {
                out.push(
                    c.and_literal(var.positive())
                        .expect("var eliminated by cofactor"),
                );
            }
        }
        for c in f0c.cubes() {
            if !f1c.cubes().contains(c) {
                out.push(
                    c.and_literal(var.negative())
                        .expect("var eliminated by cofactor"),
                );
            }
        }
        out.make_single_cube_minimal();
        out
    }

    fn reduce(cover: &Sop) -> Sop {
        let mut cubes: Vec<Cube> = cover.cubes().to_vec();
        cubes.sort_by_key(Cube::len);
        for i in 0..cubes.len() {
            let rest: Sop = cubes
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, c)| c.clone())
                .collect();
            let mut rest_in_cube = rest;
            for lit in cubes[i].literals() {
                rest_in_cube = cofactor_cover(&rest_in_cube, *lit);
            }
            if tautology(&rest_in_cube) {
                continue;
            }
            let essential = complement(&rest_in_cube);
            if essential.is_zero() {
                continue;
            }
            let bound = essential
                .cubes()
                .iter()
                .skip(1)
                .fold(essential.cubes()[0].clone(), |acc, c| acc.supercube(c));
            if let Some(reduced) = cubes[i].intersect(&bound) {
                cubes[i] = reduced;
            }
        }
        Sop::from_cubes(cubes)
    }

    fn irredundant(cover: &Sop) -> Sop {
        let mut cubes: Vec<Cube> = cover.cubes().to_vec();
        cubes.sort_by_key(|c| std::cmp::Reverse(c.len()));
        let mut keep: Vec<bool> = vec![true; cubes.len()];
        for i in 0..cubes.len() {
            let rest: Sop = cubes
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i && keep[j])
                .map(|(_, c)| c.clone())
                .collect();
            if cube_covered(&cubes[i], &rest) {
                keep[i] = false;
            }
        }
        cubes
            .into_iter()
            .zip(keep)
            .filter(|(_, k)| *k)
            .map(|(c, _)| c)
            .collect()
    }

    pub fn minimize(cover: &Sop) -> Sop {
        if cover.is_zero() {
            return Sop::zero();
        }
        if cover.is_one() || tautology(cover) {
            return Sop::one();
        }
        let reference = cover.clone();
        let mut current = cover.clone();
        current.make_single_cube_minimal();
        let mut current = {
            let mut irr = irredundant(&expand(&current, &reference));
            irr.make_single_cube_minimal();
            if cost(&irr) < cost(&current) {
                irr
            } else {
                current
            }
        };
        let mut best_cost = cost(&current);
        const REDUCE_CUBE_LIMIT: usize = 96;
        for _ in 0..8 {
            if current.cubes().len() > REDUCE_CUBE_LIMIT {
                break;
            }
            let reduced = reduce(&current);
            let mut candidate = irredundant(&expand(&reduced, &reference));
            candidate.make_single_cube_minimal();
            let c = cost(&candidate);
            if c < best_cost {
                best_cost = c;
                current = candidate;
            } else {
                break;
            }
        }
        current
    }

    fn cost(cover: &Sop) -> usize {
        cover.cubes().len() * 1000 + cover.literal_count()
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream of bounded draws.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        (splitmix64(&mut self.0) % bound as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// `count` distinct sorted variables drawn from `0..=max_index`, always
/// including `max_index`, so the universe's top word is used.
fn sparse_pool(rng: &mut Rng, count: usize, max_index: usize) -> Vec<Var> {
    let mut pool = vec![max_index];
    while pool.len() < count {
        let v = rng.below(max_index);
        if !pool.contains(&v) {
            pool.push(v);
        }
    }
    pool.sort_unstable();
    pool.into_iter().map(|v| Var::new(v as u32)).collect()
}

/// The onset leaves of a random decision tree over `pool`, as the FBDT
/// builds covers: every cube is one root-to-leaf path, each cube padded
/// with up to `pad` literals on variables the path does not test.
fn tree_cover(rng: &mut Rng, pool: &[Var], max_cubes: usize, pad: usize) -> Sop {
    let mut cubes = Vec::new();
    let mut frontier = vec![Cube::top()];
    let onset = 20 + rng.below(60);
    while let Some(path) = frontier.pop() {
        let open = path.len() < pool.len() && frontier.len() + cubes.len() < max_cubes;
        if open && (path.len() < 2 || rng.chance(75)) {
            let free: Vec<Var> = pool
                .iter()
                .copied()
                .filter(|&v| !path.contains_var(v))
                .collect();
            let v = free[rng.below(free.len())];
            frontier.extend(path.and_literal(v.positive()));
            frontier.extend(path.and_literal(v.negative()));
        } else if rng.chance(onset) {
            let mut cube = path;
            for _ in 0..rng.below(pad + 1) {
                let v = pool[rng.below(pool.len())];
                if !cube.contains_var(v) {
                    cube = cube
                        .and_literal(v.literal(rng.chance(50)))
                        .expect("free var");
                }
            }
            cubes.push(cube);
        }
    }
    Sop::from_cubes(cubes)
}

/// A cube of random literals over `pool`, each variable present with
/// probability `density` percent.
fn random_cube(rng: &mut Rng, pool: &[Var], density: usize) -> Cube {
    let mut literals = Vec::new();
    for &v in pool {
        if rng.chance(density) {
            literals.push(v.literal(rng.chance(50)));
        }
    }
    Cube::from_literals(literals).expect("one literal per variable")
}

/// `n` random cubes over `pool`, each variable present with probability
/// `density` percent.
fn loose_cover(rng: &mut Rng, pool: &[Var], n: usize, density: usize) -> Sop {
    (0..n).map(|_| random_cube(rng, pool, density)).collect()
}

/// Splices the degenerate cubes real covers can carry into `cover`:
/// an empty cube, a duplicate, a cube contained in another, and a
/// single-literal cube.
fn with_degenerate_cubes(rng: &mut Rng, cover: Sop, pool: &[Var]) -> Sop {
    let mut cubes = cover.cubes().to_vec();
    let mut extra = Vec::new();
    if !cubes.is_empty() && rng.chance(40) {
        extra.push(cubes[rng.below(cubes.len())].clone());
    }
    if !cubes.is_empty() && rng.chance(40) {
        let base = &cubes[rng.below(cubes.len())];
        let v = pool[rng.below(pool.len())];
        extra.extend(base.and_literal(v.literal(rng.chance(50))));
    }
    if rng.chance(40) {
        let v = pool[rng.below(pool.len())];
        extra.extend(Cube::from_literals([v.literal(rng.chance(50))]));
    }
    if rng.chance(8) {
        extra.push(Cube::top());
    }
    for cube in extra {
        let at = rng.below(cubes.len() + 1);
        cubes.insert(at, cube);
    }
    Sop::from_cubes(cubes)
}

/// Variable universes as `(variables, highest index)`, drawn sparsely.
/// The first two remap to one word; the last two need two and three
/// words once a cover touches enough of them.
const UNIVERSES: [(usize, usize); 4] = [(14, 101), (40, 170), (90, 170), (150, 230)];

/// A random cover for `minimize`, over universe `seed % 4`. Mostly tree
/// covers of up to 130 cubes in the first universe, which is the size of
/// the FBDT's covers, and up to `wider_cubes` in the others, where the
/// cube-list reference gets slow; then some loose covers.
fn minimize_case(seed: u64, wider_cubes: usize) -> Sop {
    let mut rng = Rng(seed);
    let universe = seed as usize % UNIVERSES.len();
    let (count, max_index) = UNIVERSES[universe];
    let pool = sparse_pool(&mut rng, count, max_index);
    let wide = count > 64;
    let cover = if wide || rng.chance(70) {
        let max_cubes = rng.below(if universe == 0 { 130 } else { wider_cubes } + 1);
        let pad = if wide && rng.chance(70) {
            count / 2
        } else {
            rng.below(3)
        };
        tree_cover(&mut rng, &pool, max_cubes, pad)
    } else {
        let small = &pool[..pool.len().min(8 + rng.below(5))];
        let (n, density) = (rng.below(40), 30 + rng.below(40));
        loose_cover(&mut rng, small, n, density)
    };
    with_degenerate_cubes(&mut rng, cover, &pool)
}

/// Random covers for `complement`, small enough for the exponential
/// worst case to stay cheap.
fn complement_case(seed: u64) -> Sop {
    let mut rng = Rng(seed);
    let (_, max_index) = UNIVERSES[rng.below(UNIVERSES.len())];
    let count = 4 + rng.below(9);
    let pool = sparse_pool(&mut rng, count, max_index);
    let cover = if rng.chance(50) {
        let max_cubes = rng.below(40);
        tree_cover(&mut rng, &pool, max_cubes, 1)
    } else {
        let (n, density) = (rng.below(16), 20 + rng.below(50));
        loose_cover(&mut rng, &pool, n, density)
    };
    with_degenerate_cubes(&mut rng, cover, &pool)
}

fn assert_same_minimize(seed: u64, wider_cubes: usize) {
    let cover = minimize_case(seed, wider_cubes);
    assert_eq!(
        espresso::minimize(&cover),
        reference::minimize(&cover),
        "seed {seed}: minimize differs on {cover}"
    );
}

fn assert_same_complement(seed: u64) {
    let cover = complement_case(seed);
    assert_eq!(
        espresso::complement(&cover),
        reference::complement(&cover),
        "seed {seed}: complement differs on {cover}"
    );
}

fn assert_same_tests(seed: u64) {
    let mut rng = Rng(seed);
    let cover = minimize_case(seed, 130);
    assert_eq!(
        espresso::tautology(&cover),
        reference::tautology(&cover),
        "seed {seed}: tautology differs on {cover}"
    );
    let support = cover.support();
    let pool: Vec<Var> = if support.is_empty() {
        vec![Var::new(3)]
    } else {
        support
    };
    for _ in 0..8 {
        // Mostly the cover's own variables, now and then one outside.
        let mut cube = random_cube(&mut rng, &pool, 20);
        if rng.chance(20) {
            cube = cube
                .and_literal(Var::new(300).positive())
                .expect("fresh var");
        }
        assert_eq!(
            espresso::cube_covered(&cube, &cover),
            reference::cube_covered(&cube, &cover),
            "seed {seed}: cube_covered({cube}) differs on {cover}"
        );
    }
}

/// Seeds and wide-universe cube bound of the default `minimize` check.
const MINIMIZE_SEEDS: std::ops::Range<u64> = 0..32;
const MINIMIZE_WIDER_CUBES: usize = 24;

#[test]
fn minimize_matches_the_reference() {
    for seed in MINIMIZE_SEEDS {
        assert_same_minimize(seed, MINIMIZE_WIDER_CUBES);
    }
}

#[test]
fn complement_matches_the_reference() {
    for seed in 0..300 {
        assert_same_complement(seed);
    }
}

#[test]
fn tautology_and_cube_covered_match_the_reference() {
    for seed in 0..200 {
        assert_same_tests(seed);
    }
}

#[test]
fn tree_covers_with_every_leaf_on_are_tautologies() {
    let mut rng = Rng(11);
    for _ in 0..20 {
        let pool = sparse_pool(&mut rng, 90, 170);
        let mut cubes = Vec::new();
        let mut frontier = vec![Cube::top()];
        while let Some(path) = frontier.pop() {
            if path.len() < 6 {
                let v = pool[rng.below(pool.len())];
                if !path.contains_var(v) {
                    frontier.extend(path.and_literal(v.positive()));
                    frontier.extend(path.and_literal(v.negative()));
                    continue;
                }
            }
            cubes.push(path);
        }
        let cover = Sop::from_cubes(cubes);
        assert!(espresso::tautology(&cover), "{cover}");
        assert!(espresso::minimize(&cover).is_one());
        assert!(espresso::complement(&cover).is_zero());
    }
}

#[test]
fn the_generators_reach_every_universe_width() {
    let mut widest = [false; 3];
    for seed in MINIMIZE_SEEDS {
        let support = minimize_case(seed, MINIMIZE_WIDER_CUBES).support().len();
        if support > 0 {
            widest[(support - 1) / 64] = true;
        }
    }
    assert_eq!(
        widest, [true; 3],
        "covers must need one, two and three words"
    );
}

#[test]
#[ignore = "larger sweep; run with --include-ignored"]
fn larger_sweep_matches_the_reference() {
    for seed in 1_000..1_200 {
        assert_same_minimize(seed, 64);
    }
    for seed in 1_000..3_000 {
        assert_same_tests(seed);
    }
    for seed in 1_000..6_000 {
        assert_same_complement(seed);
    }
}
