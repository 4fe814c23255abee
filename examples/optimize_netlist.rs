//! The optimization toolchain on its own: take a deliberately bloated
//! circuit (a flat minterm cover, the shape an FBDT emits), run each
//! pass, and watch the gate count fall — ending with technology
//! mapping to the contest's 2-input primitive-gate metric.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example optimize_netlist
//! ```

use cirlearn_aig::{Aig, Edge};
use cirlearn_sat::check_equivalence;
use cirlearn_synth::{
    balance, collapse, fraig, map::map_gates, optimize, redundancy_removal, refactor, rewrite,
    CollapseConfig, FraigConfig, OptimizeConfig, RefactorConfig,
};

/// Builds the minterm-by-minterm cover of `maj(x0,x1,x2) XOR x3` over
/// 6 inputs — massively redundant on purpose.
fn bloated() -> Aig {
    let mut g = Aig::new();
    let inputs = g.add_inputs("x", 6);
    let f = |m: u32| -> bool {
        let maj = (m & 1) + (m >> 1 & 1) + (m >> 2 & 1) >= 2;
        maj != (m >> 3 & 1 == 1)
    };
    let mut cubes = Vec::new();
    for m in 0..64u32 {
        if f(m) {
            let lits: Vec<Edge> = (0..6)
                .map(|k| inputs[k].complement_if(m >> k & 1 == 0))
                .collect();
            cubes.push(g.and_many(&lits));
        }
    }
    let y = g.or_many(&cubes);
    g.add_output(y, "y");
    g
}

fn main() {
    let original = bloated();
    println!(
        "original (flat minterm cover): {} AND nodes",
        original.gate_count()
    );

    let mut current = original.clone();
    type NamedPass = (&'static str, Box<dyn Fn(&Aig) -> Aig>);
    let passes: Vec<NamedPass> = vec![
        ("balance", Box::new(balance)),
        ("rewrite", Box::new(rewrite)),
        (
            "refactor",
            Box::new(|g| refactor(g, &RefactorConfig::default())),
        ),
        ("fraig", Box::new(|g| fraig(g, &FraigConfig::default()))),
        (
            "collapse",
            Box::new(|g| collapse(g, &CollapseConfig::default())),
        ),
        ("redundancy", Box::new(redundancy_removal)),
    ];
    for (name, pass) in &passes {
        let next = pass(&current);
        println!(
            "after {:<10}: {:>4} AND nodes{}",
            name,
            next.gate_count(),
            if next.gate_count() < current.gate_count() {
                "  (improved)"
            } else {
                ""
            }
        );
        assert!(
            check_equivalence(&current, &next).is_equivalent(),
            "{name} must preserve the function"
        );
        if next.gate_count() <= current.gate_count() {
            current = next;
        }
    }

    let best = optimize(&original, &OptimizeConfig::default());
    println!("\nfull optimize script: {} AND nodes", best.gate_count());
    assert!(check_equivalence(&original, &best).is_equivalent());

    let mapped = map_gates(&best);
    println!(
        "technology mapped: {} primitive gates ({} cells incl. XOR/MUX)",
        mapped.gate_count(),
        mapped.cell_count()
    );
    println!(
        "\nfinal circuit as Verilog:\n{}",
        best.to_verilog("optimized")
    );
}
