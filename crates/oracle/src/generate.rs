//! Synthetic benchmark circuit families.
//!
//! The contest's 20 hidden industrial benchmarks fall into four
//! application categories (paper §V). This module generates circuits of
//! each category with realistic port naming, so the whole learning
//! pipeline — name grouping, template matching, support identification,
//! FBDT — is exercised exactly as on the contest cases:
//!
//! * [`neq_case`] — miters of near-identical random logic cones (the
//!   output is 1 only where the two cones disagree),
//! * [`eco_case`] — random patch cones with small per-output support,
//! * [`diag_case`] — comparator predicates over named buses,
//! * [`data_case`] — a linear-arithmetic datapath
//!   `N_z = Σ aᵢ·N_vᵢ + b`.

use cirlearn_aig::{Aig, Edge};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::CircuitOracle;

/// The contest's four application categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Miter structures of non-equivalent logic cones.
    Neq,
    /// Patch or logic difference of ECO problems.
    Eco,
    /// Diagnosis: semantic conditions/expressions over bus variables.
    Diag,
    /// Logic recognition of arithmetic datapaths.
    Data,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Category::Neq => "NEQ",
            Category::Eco => "ECO",
            Category::Diag => "DIAG",
            Category::Data => "DATA",
        };
        f.write_str(s)
    }
}

/// A recorded random-cone recipe: each entry is
/// `(left index, left complement, right index, right complement,
/// is_xor)` over a growing node pool seeded with the cone's inputs.
type ConeRecipe = Vec<(usize, bool, usize, bool, bool)>;

/// Draws a random cone recipe. `xor_ratio` controls the share of XOR
/// gates: AND-only random cones degenerate toward sparse functions
/// (each AND halves the onset), so cones meant to stay *hard* for
/// sampling-based learners need XOR mixed in to keep the function
/// dense and the functional support wide.
fn random_recipe(rng: &mut StdRng, num_leaves: usize, gates: usize, xor_ratio: f64) -> ConeRecipe {
    let mut recipe = Vec::with_capacity(gates);
    // Phase 1 — leaf-covering chain: fold every leaf into a running
    // accumulator so the cone provably depends on its whole support
    // (a fully random recipe tends to drop leaves, collapsing the
    // functional support far below the structural one).
    for i in 1..num_leaves {
        let prev = if i == 1 { 0 } else { num_leaves + i - 2 };
        recipe.push((
            prev,
            rng.gen_bool(0.3),
            i,
            rng.gen_bool(0.3),
            rng.gen_bool(xor_ratio),
        ));
    }
    // Phase 2 — extra random structure on top.
    while recipe.len() < gates {
        let pool = num_leaves + recipe.len();
        // Bias toward recent nodes so the cone gains depth.
        let pick = |rng: &mut StdRng| {
            if rng.gen_bool(0.5) && pool > num_leaves {
                rng.gen_range(num_leaves.saturating_sub(1).min(pool - 1)..pool)
            } else {
                rng.gen_range(0..pool)
            }
        };
        recipe.push((
            pick(rng),
            rng.gen_bool(0.5),
            pick(rng),
            rng.gen_bool(0.5),
            rng.gen_bool(xor_ratio),
        ));
    }
    recipe
}

fn build_recipe(aig: &mut Aig, leaves: &[Edge], recipe: &ConeRecipe) -> Edge {
    let mut pool: Vec<Edge> = leaves.to_vec();
    for &(i, ci, j, cj, is_xor) in recipe {
        let a = pool[i].complement_if(ci);
        let b = pool[j].complement_if(cj);
        let n = if is_xor { aig.xor(a, b) } else { aig.and(a, b) };
        pool.push(n);
    }
    *pool.last().unwrap_or(&Edge::FALSE)
}

/// Flat, non-bussed port names as seen in netlists of random logic
/// (distinct prefixes so name-based grouping finds no spurious buses).
fn flat_input_names(rng: &mut StdRng, count: usize) -> Vec<String> {
    let prefixes = ["n", "u", "w", "sig", "net", "t"];
    (0..count)
        .map(|i| {
            let p = prefixes[rng.gen_range(0..prefixes.len())];
            format!("{p}{}_{i}", rng.gen_range(100..1000))
        })
        .collect()
}

/// Generates an NEQ case: each output is the miter of two cones that
/// differ by a single mutated gate, so the output is 1 on a sparse
/// disagreement region — the shape that makes NEQ benchmarks hard for
/// sampling-based learners.
pub fn neq_case(num_inputs: usize, num_outputs: usize, seed: u64) -> CircuitOracle {
    neq_case_with_support(num_inputs, num_outputs, default_support(num_inputs), seed)
}

/// [`neq_case`] with explicit per-output support size (difficulty knob).
pub fn neq_case_with_support(
    num_inputs: usize,
    num_outputs: usize,
    support: usize,
    seed: u64,
) -> CircuitOracle {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x004E_4551);
    let mut aig = Aig::new();
    let names = flat_input_names(&mut rng, num_inputs);
    let inputs: Vec<Edge> = names.iter().map(|n| aig.add_input(n.clone())).collect();
    for o in 0..num_outputs {
        let k = support.min(num_inputs).max(2);
        let leaves = choose_inputs(&mut rng, &inputs, k);
        let gates = (k * 3).max(8);
        // Wide-support miters get XOR-rich cones so the disagreement
        // region stays spread over the whole support (the paper's hard
        // NEQ cases resist sampling exactly because of this).
        let hard = k > 20;
        let xor_ratio = if hard { 0.5 } else { 0.25 };
        let recipe = random_recipe(&mut rng, k, gates, xor_ratio);
        let cone1 = build_recipe(&mut aig, &leaves, &recipe);
        // Derive the non-equivalent revision. Easy cases flip a single
        // complement bit (a local bug: sparse, learnable disagreement);
        // hard cases re-randomize the extra structure entirely, so the
        // miter is a dense function of the whole support — the shape on
        // which the paper's case_14/18 stay far below the accuracy bar.
        let mut miter = Edge::FALSE;
        for _attempt in 0..16 {
            let mut mutated = recipe.clone();
            if hard {
                for entry in mutated.iter_mut().skip(k - 1) {
                    entry.1 ^= rng.gen_bool(0.5);
                    entry.3 ^= rng.gen_bool(0.5);
                    if rng.gen_bool(0.5) {
                        entry.4 ^= true;
                    }
                }
            } else {
                let g = rng.gen_range(0..mutated.len());
                mutated[g].1 ^= true;
            }
            let cone2 = build_recipe(&mut aig, &leaves, &mutated);
            let candidate = aig.xor(cone1, cone2);
            if candidate != Edge::FALSE {
                miter = candidate;
                if miter_is_nonconstant(&aig, candidate, &mut rng) {
                    break;
                }
            }
        }
        aig.add_output(miter, format!("neq_{o}"));
    }
    CircuitOracle::new(aig)
}

/// Generates an ECO case: independent random patch cones, each with a
/// bounded support — the typical shape of an ECO patch function.
pub fn eco_case(num_inputs: usize, num_outputs: usize, seed: u64) -> CircuitOracle {
    eco_case_with_support(num_inputs, num_outputs, default_support(num_inputs), seed)
}

/// [`eco_case`] with explicit per-output support size.
pub fn eco_case_with_support(
    num_inputs: usize,
    num_outputs: usize,
    support: usize,
    seed: u64,
) -> CircuitOracle {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x45_434F);
    let mut aig = Aig::new();
    let names = flat_input_names(&mut rng, num_inputs);
    let inputs: Vec<Edge> = names.iter().map(|n| aig.add_input(n.clone())).collect();
    for o in 0..num_outputs {
        let k = rng
            .gen_range((support / 2).max(2)..=support.max(3))
            .min(num_inputs);
        let leaves = choose_inputs(&mut rng, &inputs, k);
        let gates = (k * 2).max(6);
        let xor_ratio = if k > 20 { 0.4 } else { 0.15 };
        let recipe = random_recipe(&mut rng, k, gates, xor_ratio);
        let cone = build_recipe(&mut aig, &leaves, &recipe);
        aig.add_output(cone, format!("po_{o}"));
    }
    CircuitOracle::new(aig)
}

/// Generates a DIAG case: every output is a comparator predicate over
/// named buses (`z = N_a ⋈ N_b` or `z = N_a ⋈ const`), the shape the
/// paper's comparator template matches with 100% accuracy.
pub fn diag_case(num_inputs: usize, num_outputs: usize, seed: u64) -> CircuitOracle {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4449_4147);
    let mut aig = Aig::new();
    // Split inputs into buses of width 4..=12 plus leftover scalars.
    let bus_names = ["addr", "data", "cnt", "idx", "len", "tag", "mask", "off"];
    let mut buses: Vec<(String, Vec<Edge>)> = Vec::new();
    let mut remaining = num_inputs;
    let mut b = 0;
    while remaining >= 4 && b < bus_names.len() {
        let width = rng.gen_range(4..=12usize.min(remaining));
        let name = bus_names[b].to_owned();
        // MSB-first naming: name[width-1] .. name[0]; inputs created
        // MSB first so the bus slice reads as N_v directly.
        let edges: Vec<Edge> = (0..width)
            .map(|k| aig.add_input(format!("{name}[{}]", width - 1 - k)))
            .collect();
        buses.push((name, edges));
        remaining -= width;
        b += 1;
    }
    for i in 0..remaining {
        let _scalar = aig.add_input(format!("en_{i}"));
    }
    assert!(!buses.is_empty(), "DIAG case needs at least 4 inputs");

    for o in 0..num_outputs {
        let (_, ref va) = buses[rng.gen_range(0..buses.len())];
        let pred = rng.gen_range(0..6);
        let rhs_is_bus = buses.len() >= 2 && rng.gen_bool(0.5);
        let rhs: Vec<Edge> = if rhs_is_bus {
            loop {
                let (_, ref vb) = buses[rng.gen_range(0..buses.len())];
                if vb != va || buses.len() == 1 {
                    break vb.clone();
                }
            }
        } else {
            let max = (1u64 << va.len().min(16)) - 1;
            let c = rng.gen_range(0..=max);
            aig.const_word(c, va.len())
        };
        let va = va.clone();
        let z = match pred {
            0 => aig.cmp_eq(&va, &rhs),
            1 => aig.cmp_ne(&va, &rhs),
            2 => aig.cmp_ult(&va, &rhs),
            3 => aig.cmp_ule(&va, &rhs),
            4 => aig.cmp_ugt(&va, &rhs),
            _ => aig.cmp_uge(&va, &rhs),
        };
        aig.add_output(z, format!("cond_{o}"));
    }
    CircuitOracle::new(aig)
}

/// Generates a DATA case: the outputs form a bus `z` computing the
/// linear arithmetic `N_z = Σ aᵢ·N_vᵢ + b (mod 2^|z|)` over named input
/// buses — the shape of the paper's linear-arithmetic template.
pub fn data_case(num_inputs: usize, num_outputs: usize, seed: u64) -> CircuitOracle {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4441_5441);
    let mut aig = Aig::new();
    let width = num_outputs;
    let bus_names = ["a", "b", "c", "d", "e", "f", "g", "h"];
    let mut buses: Vec<Vec<Edge>> = Vec::new();
    let mut remaining = num_inputs;
    let mut b = 0;
    while remaining > 0 && b < bus_names.len() {
        let max_w = remaining.min(width.max(2)).min(12);
        let w = if remaining <= 3 {
            remaining
        } else {
            rng.gen_range(2..=max_w.max(2))
        };
        let name = bus_names[b];
        let edges: Vec<Edge> = (0..w)
            .map(|k| aig.add_input(format!("{name}[{}]", w - 1 - k)))
            .collect();
        buses.push(edges);
        remaining -= w;
        b += 1;
    }
    // Any leftover inputs beyond 8 buses become unused scalars.
    for i in 0..remaining {
        let _ = aig.add_input(format!("spare_{i}"));
    }

    let terms: Vec<(i64, Vec<Edge>)> = buses
        .iter()
        .map(|bus| {
            let coef = *[1i64, 1, 2, 3, 5, -1, -2]
                .get(rng.gen_range(0..7))
                .expect("in range");
            (coef, bus.clone())
        })
        .collect();
    let offset = rng.gen_range(-8i64..=8);
    let z = aig.scale_sum(&terms, offset, width);
    for (k, e) in z.iter().enumerate() {
        aig.add_output(*e, format!("z[{}]", width - 1 - k));
    }
    CircuitOracle::new(aig)
}

/// Generates a *mixed* case: bus-comparator outputs interleaved with
/// random-logic cones over the remaining scalar inputs.
///
/// Real designs rarely fall into one clean category; a mixed black box
/// exercises the learner's dispatch — some outputs match templates,
/// the rest go through support identification and the FBDT — within a
/// single run.
pub fn mixed_case(num_inputs: usize, num_outputs: usize, seed: u64) -> CircuitOracle {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4D49_5845);
    assert!(num_inputs >= 12, "mixed cases need at least 12 inputs");
    let mut aig = Aig::new();
    // Two buses over roughly half the inputs.
    let bus_width = (num_inputs / 4).clamp(4, 10);
    let a: Vec<Edge> = (0..bus_width)
        .map(|k| aig.add_input(format!("a[{}]", bus_width - 1 - k)))
        .collect();
    let b: Vec<Edge> = (0..bus_width)
        .map(|k| aig.add_input(format!("b[{}]", bus_width - 1 - k)))
        .collect();
    let scalar_count = num_inputs - 2 * bus_width;
    let scalar_names = flat_input_names(&mut rng, scalar_count);
    let scalars: Vec<Edge> = scalar_names
        .iter()
        .map(|n| aig.add_input(n.clone()))
        .collect();

    for o in 0..num_outputs {
        if o % 2 == 0 {
            // Comparator output.
            let z = match rng.gen_range(0..6) {
                0 => aig.cmp_eq(&a, &b),
                1 => aig.cmp_ne(&a, &b),
                2 => aig.cmp_ult(&a, &b),
                3 => aig.cmp_ule(&a, &b),
                4 => aig.cmp_ugt(&a, &b),
                _ => aig.cmp_uge(&a, &b),
            };
            aig.add_output(z, format!("cond_{o}"));
        } else {
            // Random cone over the scalars.
            let k = scalars.len().min(rng.gen_range(3..=8));
            let leaves = choose_inputs(&mut rng, &scalars, k);
            let recipe = random_recipe(&mut rng, k, (k * 2).max(6), 0.2);
            let cone = build_recipe(&mut aig, &leaves, &recipe);
            aig.add_output(cone, format!("logic_{o}"));
        }
    }
    CircuitOracle::new(aig)
}

/// Generates a case of the given category.
pub fn case(category: Category, num_inputs: usize, num_outputs: usize, seed: u64) -> CircuitOracle {
    match category {
        Category::Neq => neq_case(num_inputs, num_outputs, seed),
        Category::Eco => eco_case(num_inputs, num_outputs, seed),
        Category::Diag => diag_case(num_inputs, num_outputs, seed),
        Category::Data => data_case(num_inputs, num_outputs, seed),
    }
}

/// Checks by random simulation that `edge` takes both values 0 and 1
/// on sampled patterns (mixing uniform and biased blocks) — a miter
/// that is constant in practice would make the case degenerate.
fn miter_is_nonconstant(aig: &Aig, edge: Edge, rng: &mut StdRng) -> bool {
    use cirlearn_logic::Assignment;
    let mut saw_one = false;
    let mut saw_zero = false;
    for bias in [None, Some(0.25), Some(0.75)] {
        let patterns = 512;
        let inputs: Vec<Assignment> = (0..aig.num_inputs())
            .map(|_| match bias {
                None => Assignment::random(patterns, rng),
                Some(p) => Assignment::random_biased(patterns, p, rng),
            })
            .collect();
        let values = aig.simulate_nodes(&inputs);
        let node = &values[edge.node().index()];
        let ones = if edge.is_complemented() {
            node.len() - node.count_ones()
        } else {
            node.count_ones()
        };
        saw_one |= ones > 0;
        saw_zero |= ones < node.len();
        if saw_one && saw_zero {
            return true;
        }
    }
    false
}

fn default_support(num_inputs: usize) -> usize {
    (num_inputs / 4).clamp(4, 16)
}

fn choose_inputs(rng: &mut StdRng, inputs: &[Edge], k: usize) -> Vec<Edge> {
    let mut idx: Vec<usize> = (0..inputs.len()).collect();
    // Partial Fisher–Yates.
    for i in 0..k.min(idx.len()) {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    idx[..k.min(inputs.len())]
        .iter()
        .map(|&i| inputs[i])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Oracle;
    use cirlearn_logic::Assignment;

    #[test]
    fn neq_outputs_are_nonconstant() {
        let mut o = neq_case(20, 3, 1);
        assert_eq!(o.num_inputs(), 20);
        assert_eq!(o.num_outputs(), 3);
        let mut rng = StdRng::seed_from_u64(2);
        let pats: Vec<Assignment> = (0..2000)
            .map(|_| Assignment::random(20, &mut rng))
            .collect();
        let outs = o.query_batch(&pats);
        let ones: usize = outs.iter().flat_map(|r| r.iter()).filter(|&&b| b).count();
        let total = 2000 * 3;
        // Miters must actually fire somewhere and also be falsifiable
        // (constant miters would make the case vacuous).
        assert!(ones > 0, "miter never fires");
        assert!(ones < total, "miter fires everywhere");
    }

    #[test]
    fn eco_supports_are_bounded() {
        let o = eco_case_with_support(40, 5, 8, 3);
        for pos in 0..o.num_outputs() {
            let sup = o.reveal().output_support(pos);
            assert!(sup.len() <= 8, "output {pos} support {}", sup.len());
        }
    }

    #[test]
    fn diag_ports_are_bussed() {
        let o = diag_case(30, 4, 7);
        assert_eq!(o.num_inputs(), 30);
        assert_eq!(o.num_outputs(), 4);
        let bussed = o.input_names().iter().filter(|n| n.contains('[')).count();
        assert!(bussed >= 8, "expected bussed names, got {bussed}");
    }

    #[test]
    fn diag_outputs_are_predicates() {
        // With a single bus and constant comparisons, verify one output
        // against direct integer comparison semantics.
        let mut o = diag_case(8, 3, 11);
        let mut rng = StdRng::seed_from_u64(0);
        // Sanity: query returns stable deterministic answers.
        let p = Assignment::random(8, &mut rng);
        let r1 = o.query(&p);
        let r2 = o.query(&p);
        assert_eq!(r1, r2);
    }

    #[test]
    fn data_case_is_linear() {
        // 2 buses, width-4 output; reconstruct coefficients by probing.
        let mut o = data_case(6, 4, 5);
        let n = o.num_inputs();
        // Find bus variable positions from names: a[?], b[?] MSB-first.
        let names = o.input_names().to_vec();
        let mut a_bus: Vec<(i32, usize)> = Vec::new();
        let mut b_bus: Vec<(i32, usize)> = Vec::new();
        for (i, name) in names.iter().enumerate() {
            if let Some(rest) = name.strip_prefix("a[") {
                a_bus.push((rest.trim_end_matches(']').parse().expect("bit"), i));
            } else if let Some(rest) = name.strip_prefix("b[") {
                b_bus.push((rest.trim_end_matches(']').parse().expect("bit"), i));
            }
        }
        a_bus.sort_by_key(|&(bit, _)| std::cmp::Reverse(bit));
        b_bus.sort_by_key(|&(bit, _)| std::cmp::Reverse(bit));

        let read_z =
            |out: &[bool]| -> u64 { out.iter().fold(0u64, |acc, &bit| acc << 1 | bit as u64) };
        let zeros = Assignment::zeros(n);
        let base = read_z(&o.query(&zeros)); // = b mod 16

        // Setting a=1 adds coefficient ca once.
        let mut a1 = Assignment::zeros(n);
        a1.set(
            cirlearn_logic::Var::new(a_bus.last().expect("bus").1 as u32),
            true,
        );
        let ca = (read_z(&o.query(&a1)) + 16 - base) % 16;

        // Then a=2 must add 2*ca.
        let mut a2 = Assignment::zeros(n);
        if a_bus.len() >= 2 {
            a2.set(
                cirlearn_logic::Var::new(a_bus[a_bus.len() - 2].1 as u32),
                true,
            );
            let got = (read_z(&o.query(&a2)) + 16 - base) % 16;
            assert_eq!(got, ca * 2 % 16, "linearity in bus a");
        }
        // And b bus likewise behaves linearly.
        let mut b1 = Assignment::zeros(n);
        b1.set(
            cirlearn_logic::Var::new(b_bus.last().expect("bus").1 as u32),
            true,
        );
        let cb = (read_z(&o.query(&b1)) + 16 - base) % 16;
        let mut ab = Assignment::zeros(n);
        ab.set(
            cirlearn_logic::Var::new(a_bus.last().expect("bus").1 as u32),
            true,
        );
        ab.set(
            cirlearn_logic::Var::new(b_bus.last().expect("bus").1 as u32),
            true,
        );
        let got = (read_z(&o.query(&ab)) + 16 - base) % 16;
        assert_eq!(got, (ca + cb) % 16, "superposition across buses");
    }

    #[test]
    fn generators_are_deterministic() {
        for cat in [Category::Neq, Category::Eco, Category::Diag, Category::Data] {
            let o1 = case(cat, 24, 4, 99);
            let o2 = case(cat, 24, 4, 99);
            assert_eq!(o1.input_names(), o2.input_names(), "{cat}");
            assert_eq!(o1.reveal().gate_count(), o2.reveal().gate_count(), "{cat}");
        }
    }

    #[test]
    fn port_counts_match_request() {
        for cat in [Category::Neq, Category::Eco, Category::Diag, Category::Data] {
            let o = case(cat, 33, 5, 1);
            assert_eq!(o.num_inputs(), 33, "{cat}");
            assert_eq!(o.num_outputs(), 5, "{cat}");
        }
    }
}

#[cfg(test)]
mod mixed_tests {
    use super::*;
    use crate::Oracle;

    #[test]
    fn mixed_case_interleaves_categories() {
        let o = mixed_case(24, 4, 9);
        assert_eq!(o.num_inputs(), 24);
        assert_eq!(o.num_outputs(), 4);
        assert!(o.output_names()[0].starts_with("cond_"));
        assert!(o.output_names()[1].starts_with("logic_"));
        // Comparator outputs read the buses; logic outputs only scalars.
        let sup_cmp = o.reveal().output_support(0);
        let sup_logic = o.reveal().output_support(1);
        assert!(sup_cmp.iter().all(|&p| p < 12), "comparator uses buses");
        assert!(sup_logic.iter().all(|&p| p >= 12), "cone uses scalars");
    }
}
