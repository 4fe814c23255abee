//! The word-parallel simulation kernel agrees with per-pattern
//! evaluation on every entry point (`eval_batch`, `simulate`,
//! `simulate_nodes`).
//!
//! Input widths cross the 64-input word boundary of the bit transpose;
//! batch sizes cross the 64-pattern word boundary and the 256-pattern
//! slice boundary. The circuits carry complemented outputs, constant
//! outputs, outputs wired straight to an input, and dangling ANDs.

use cirlearn_aig::{Aig, Edge};
use cirlearn_logic::{Assignment, SimVector, Var};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WIDTHS: [usize; 7] = [0, 1, 63, 64, 65, 128, 130];
const BATCHES: [usize; 9] = [0, 1, 63, 64, 65, 240, 256, 257, 4096];

fn pick(pool: &[Edge], rng: &mut StdRng) -> Edge {
    pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.5))
}

fn random_aig(inputs: usize, rng: &mut StdRng) -> Aig {
    let mut g = Aig::new();
    let mut pool = g.add_inputs("x", inputs);
    pool.push(Edge::TRUE);
    for _ in 0..rng.gen_range(0..=80) {
        let (a, b) = (pick(&pool, rng), pick(&pool, rng));
        let n = g.and(a, b);
        pool.push(n);
    }
    g.add_output(Edge::FALSE, "zero");
    g.add_output(Edge::TRUE, "one");
    if inputs > 0 {
        let wire = g.input_edge(rng.gen_range(0..inputs));
        g.add_output(wire, "wire");
        g.add_output(!wire, "nwire");
    }
    for k in 0..rng.gen_range(1..=4) {
        let e = pick(&pool, rng);
        g.add_output(e, format!("y{k}"));
        g.add_output(!e, format!("ny{k}"));
    }
    // At least one AND that no output reaches, when the inputs allow one.
    let (a, b) = (pick(&pool, rng), pick(&pool, rng));
    g.and(a, b);
    g
}

fn columns(patterns: &[Assignment], inputs: usize) -> Vec<SimVector> {
    (0..inputs)
        .map(|i| SimVector::from_bits(patterns.iter().map(|p| p.get(Var::new(i as u32)))))
        .collect()
}

fn bit(v: &SimVector, e: Edge, k: usize) -> bool {
    v.bit(k) != e.is_complemented()
}

fn check(inputs: usize, batch: usize, seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = random_aig(inputs, &mut rng);
    let patterns: Vec<Assignment> = (0..batch)
        .map(|_| Assignment::random(inputs, &mut rng))
        .collect();
    let expected: Vec<Vec<bool>> = patterns
        .iter()
        .map(|p| g.eval_bits(&p.iter().collect::<Vec<bool>>()))
        .collect();

    prop_assert_eq!(&g.eval_batch(&patterns), &expected);

    // The column API takes its pattern count from the input vectors, so
    // a circuit without inputs simulates zero patterns there.
    let cols = columns(&patterns, inputs);
    let batch = if inputs == 0 { 0 } else { batch };
    let outs = g.simulate(&cols);
    prop_assert_eq!(outs.len(), g.num_outputs());
    for (o, v) in outs.iter().enumerate() {
        prop_assert_eq!(v.len(), batch);
        prop_assert!(v.count_ones() <= batch, "bits set past the last pattern");
        for (k, row) in expected.iter().take(batch).enumerate() {
            prop_assert_eq!(v.bit(k), row[o], "output {} pattern {}", o, k);
        }
    }

    let nodes = g.simulate_nodes(&cols);
    prop_assert_eq!(nodes.len(), g.node_count());
    prop_assert_eq!(nodes[0].count_ones(), 0, "constant node");
    for (i, col) in cols.iter().enumerate() {
        prop_assert_eq!(&nodes[i + 1], col, "input {}", i);
    }
    // Every AND node, dangling or not, is the AND of its fanins.
    for (n, a, b) in g.ands() {
        let v = &nodes[n.index()];
        prop_assert!(v.count_ones() <= batch, "node {} has bits past the end", n);
        for k in 0..batch {
            let want = bit(&nodes[a.node().index()], a, k) && bit(&nodes[b.node().index()], b, k);
            prop_assert_eq!(v.bit(k), want, "node {} pattern {}", n, k);
        }
    }
    for ((e, _), v) in g.outputs().iter().zip(&outs) {
        for k in 0..batch {
            prop_assert_eq!(bit(&nodes[e.node().index()], *e, k), v.bit(k));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_matches_per_pattern_eval(
        w in 0..WIDTHS.len(),
        b in 0..BATCHES.len(),
        seed in any::<u64>(),
    ) {
        check(WIDTHS[w], BATCHES[b], seed)?;
    }
}

/// Every width × batch pair once, so each boundary is crossed on every
/// run whatever the property test happens to sample.
#[test]
fn kernel_matches_per_pattern_eval_on_every_boundary() {
    for (w, &inputs) in WIDTHS.iter().enumerate() {
        for (b, &batch) in BATCHES.iter().enumerate() {
            let seed = (w * BATCHES.len() + b) as u64;
            if let Err(e) = check(inputs, batch, seed) {
                panic!("{inputs} inputs, {batch} patterns: {e}");
            }
        }
    }
}
