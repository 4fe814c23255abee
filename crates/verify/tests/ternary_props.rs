//! Soundness of ternary constant propagation w.r.t. concrete simulation.
//!
//! The property: for a random AIG and a random ternary input vector,
//! every concrete assignment *refining* that vector (each X input
//! replaced by an arbitrary bit, pinned inputs kept) must produce, at
//! every node and every output, a value ternary propagation admits.
//! In particular an output the propagation proves
//! constant-0/1 must simulate to exactly that value on all refinements.

use cirlearn_aig::{Aig, Edge};
use cirlearn_verify::{ternary_eval, Ternary};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random AIG through the safe (strashing, folding) API:
/// `gates` attempted ANDs over random existing edges, then 1–2 outputs.
fn random_aig(seed: u64, num_inputs: usize, gates: usize) -> Aig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut aig = Aig::new();
    let mut edges: Vec<Edge> = aig.add_inputs("x", num_inputs);
    edges.push(Edge::FALSE);
    for _ in 0..gates {
        let a = edges[rng.gen_range(0..edges.len())].complement_if(rng.gen_bool(0.5));
        let b = edges[rng.gen_range(0..edges.len())].complement_if(rng.gen_bool(0.5));
        let e = aig.and(a, b);
        edges.push(e);
    }
    let num_outputs = rng.gen_range(1..=2usize);
    for i in 0..num_outputs {
        let e = edges[rng.gen_range(0..edges.len())].complement_if(rng.gen_bool(0.5));
        aig.add_output(e, format!("f{i}"));
    }
    aig
}

/// Concrete per-node simulation (independent of the ternary pass).
fn simulate_nodes(aig: &Aig, inputs: &[bool]) -> Vec<bool> {
    let mut values = vec![false; aig.node_count()];
    for (i, &b) in inputs.iter().enumerate() {
        values[i + 1] = b;
    }
    let eval = |values: &[bool], e: Edge| values[e.node().index()] ^ e.is_complemented();
    for (node, a, b) in aig.ands() {
        values[node.index()] = eval(&values, a) && eval(&values, b);
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ternary_fixpoint_admits_every_refinement(
        seed in any::<u64>(),
        num_inputs in 1..=5usize,
        gates in 0..=40usize,
        pins in prop::collection::vec(0..3u8, 5),
        refinements in prop::collection::vec(any::<u64>(), 4),
    ) {
        let aig = random_aig(seed, num_inputs, gates);
        let ternary_inputs: Vec<Ternary> = (0..num_inputs)
            .map(|i| match pins[i] {
                0 => Ternary::Zero,
                1 => Ternary::One,
                _ => Ternary::X,
            })
            .collect();
        let abstract_values = ternary_eval(&aig, &ternary_inputs);

        for &bits in &refinements {
            // A concrete assignment refining the ternary vector: pinned
            // inputs keep their constant, X inputs take arbitrary bits.
            let assignment: Vec<bool> = ternary_inputs
                .iter()
                .enumerate()
                .map(|(i, t)| match t {
                    Ternary::Zero => false,
                    Ternary::One => true,
                    Ternary::X => bits >> i & 1 == 1,
                })
                .collect();
            let concrete = simulate_nodes(&aig, &assignment);
            for (index, (&abst, &conc)) in
                abstract_values.iter().zip(concrete.iter()).enumerate()
            {
                prop_assert!(
                    abst.admits(conc),
                    "node {index}: propagation proved {abst:?} but simulation gave {conc} \
                     (seed {seed}, inputs {assignment:?})"
                );
            }
            // The headline form: outputs proven constant simulate to
            // exactly that constant.
            let outputs = aig.eval_bits(&assignment);
            for (position, (edge, _)) in aig.outputs().iter().enumerate() {
                let abst = abstract_values[edge.node().index()];
                let abst = if edge.is_complemented() { !abst } else { abst };
                if let Some(value) = abst.const_value() {
                    prop_assert_eq!(
                        outputs[position], value,
                        "output {} proven constant {} but simulated {} (seed {})",
                        position, value, outputs[position], seed
                    );
                }
            }
        }
    }
}
