//! Cross-crate invariant: every optimization pass preserves the
//! circuit's functions, proven by SAT on random circuits and by
//! exhaustive simulation on small ones.

use cirlearn_aig::{Aig, Edge};
use cirlearn_sat::check_equivalence;
use cirlearn_synth::{
    balance, collapse, fraig, optimize, redundancy_removal, refactor, rewrite, CollapseConfig,
    FraigConfig, OptimizeConfig, RefactorConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_circuit(seed: u64, inputs: usize, gates: usize, outputs: usize) -> Aig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Aig::new();
    let mut pool: Vec<Edge> = (0..inputs).map(|i| g.add_input(format!("x{i}"))).collect();
    for _ in 0..gates {
        let a = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.4));
        let b = pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.4));
        let n = g.and(a, b);
        pool.push(n);
    }
    for k in 0..outputs {
        let e = pool[pool.len() - 1 - k % pool.len()];
        g.add_output(e.complement_if(k % 2 == 1), format!("y{k}"));
    }
    g
}

#[test]
fn all_passes_preserve_functions_on_random_circuits() {
    for seed in 0..6 {
        let g = random_circuit(seed, 7, 35, 3);
        let passes: Vec<(&str, Aig)> = vec![
            ("balance", balance(&g)),
            ("rewrite", rewrite(&g)),
            ("refactor", refactor(&g, &RefactorConfig::default())),
            (
                "fraig",
                fraig(
                    &g,
                    &FraigConfig {
                        patterns: 256,
                        ..FraigConfig::default()
                    },
                ),
            ),
            ("collapse", collapse(&g, &CollapseConfig::default())),
            ("redundancy_removal", redundancy_removal(&g)),
            ("optimize", optimize(&g, &OptimizeConfig::default())),
        ];
        for (name, opt) in passes {
            assert!(
                check_equivalence(&g, &opt).is_equivalent(),
                "{name} broke seed {seed}"
            );
            assert!(
                opt.gate_count() <= g.gate_count() || name == "balance",
                "{name} grew seed {seed}: {} -> {}",
                g.gate_count(),
                opt.gate_count()
            );
        }
    }
}

#[test]
fn optimize_shrinks_fbdt_style_output() {
    // A tree-shaped circuit with duplicated subtrees, as an FBDT
    // produces: fraig + rewrite should reclaim the duplication.
    let mut g = Aig::new();
    let x = g.add_inputs("x", 6);
    // Two copies of the same cone, built separately (no strash hits
    // because of different construction order).
    let c1 = {
        let t = g.and(x[0], x[1]);
        let u = g.or(t, x[2]);
        g.and(u, x[3])
    };
    let c2 = {
        let u2 = {
            let t2 = g.and(x[1], x[0]);
            g.or(t2, x[2])
        };
        g.and(u2, x[3])
    };
    let y = g.mux(x[4], c1, c2); // c1 == c2, so y is just c1
    g.add_output(y, "y");
    let opt = optimize(&g, &OptimizeConfig::default());
    assert!(check_equivalence(&g, &opt).is_equivalent());
    assert!(
        opt.gate_count() <= 3,
        "duplication not reclaimed: {} gates",
        opt.gate_count()
    );
}

#[test]
fn optimization_handles_word_level_circuits() {
    let mut g = Aig::new();
    let a = g.add_inputs("a", 5);
    let b = g.add_inputs("b", 5);
    let s = g.add_word(&a, &b);
    let lt = g.cmp_ult(&a, &b);
    for (i, e) in s.iter().enumerate() {
        g.add_output(*e, format!("s{i}"));
    }
    g.add_output(lt, "lt");
    let opt = optimize(
        &g,
        &OptimizeConfig {
            max_rounds: 2,
            ..OptimizeConfig::default()
        },
    );
    assert!(check_equivalence(&g, &opt).is_equivalent());
}

#[test]
fn espresso_factor_roundtrip_matches_bdd() {
    // espresso + factoring of a cover must equal the BDD-computed
    // function — two independent engines agreeing.
    use cirlearn_bdd::Bdd;
    use cirlearn_logic::TruthTable;
    for seed in 0..5u64 {
        let tt = TruthTable::from_fn(7, |m| (m.wrapping_mul(seed * 2 + 0x9E37) >> 9) & 3 == 1);
        let minimized = cirlearn_synth::espresso::minimize(&tt.isop());
        let expr = cirlearn_synth::factor::factor(&minimized);
        let mut bdd = Bdd::new(7);
        let f = bdd.from_truth_table(&tt);
        for m in 0..128u64 {
            let bits: Vec<bool> = (0..7).map(|k| m >> k & 1 == 1).collect();
            assert_eq!(
                expr.eval_with(|v| bits[v.index() as usize]),
                bdd.eval_with(f, |v| bits[v.index() as usize]),
                "seed {seed} m={m}"
            );
        }
    }
}
