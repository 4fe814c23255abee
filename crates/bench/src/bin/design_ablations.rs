//! Ablations of the paper's individual design choices (§IV):
//!
//! 1. **Levelized vs depth-first tree exploration** — the paper claims
//!    even exploration is more beneficial under early stopping; we pit
//!    both against the same query budget on a hard cone and compare
//!    accuracy.
//! 2. **Onset/offset selection** — collecting the sparser polarity
//!    should shrink covers of 1-heavy functions.
//! 3. **Uneven-ratio sampling** — mixing biased 0/1 ratios should find
//!    larger supports `S'` on skew-sensitive outputs (the paper's
//!    claim in §IV-C).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cirlearn-bench --bin design_ablations [--report <path>]
//! ```
//!
//! `--report <path>` writes one JSON document with a telemetry run
//! report per configuration (meta holds the ablation name, the toggled
//! knob and the measured outcome; the body carries the usual counter /
//! histogram breakdown of the underlying FBDT build), so the
//! machine-readable summary shares its source with the text output.

use cirlearn::fbdt::{build_fbdt, Exploration, FbdtConfig};
use cirlearn::sampling::{seeded_rng, SamplingConfig};
use cirlearn::support::identify_support;
use cirlearn::Budget;
use cirlearn_aig::Aig;
use cirlearn_oracle::{evaluate_accuracy, generate, CircuitOracle, EvalConfig, Oracle};
use cirlearn_telemetry::json::Json;
use cirlearn_telemetry::{Telemetry, SCHEMA_VERSION};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report_path = args
        .iter()
        .position(|a| a == "--report")
        .map(|i| match args.get(i + 1) {
            Some(path) => path.clone(),
            None => {
                eprintln!("error: --report requires a path");
                std::process::exit(2);
            }
        });
    let mut runs: Vec<Json> = Vec::new();
    ablation_exploration(&mut runs);
    ablation_onset_offset(&mut runs);
    ablation_uneven_ratios(&mut runs);

    if let Some(path) = report_path {
        let count = runs.len();
        let doc = Json::object([
            ("schema_version", Json::Number(SCHEMA_VERSION as f64)),
            ("command", Json::Str("design_ablations".to_owned())),
            ("runs", Json::Array(runs)),
        ]);
        if let Err(err) = cirlearn_telemetry::persist::write_atomic(&path, doc.to_pretty()) {
            eprintln!("error: cannot write report to {path}: {err}");
            std::process::exit(1);
        }
        eprintln!("wrote {count} run report(s) to {path}");
    }
}

/// 1. Levelized vs depth-first under an equal query budget.
fn ablation_exploration(runs: &mut Vec<Json>) {
    println!("== exploration order (paper: levelized wins under early stopping) ==");
    println!(
        "{:<28} {:>12} {:>12} {:>10}",
        "case", "levelized %", "depth-1st %", "budget"
    );
    for (support, seed) in [(20usize, 31u64), (24, 32), (28, 33)] {
        let budget_queries = 150_000u64;
        let mut run = |exploration: Exploration| {
            let telemetry = Telemetry::recording();
            telemetry.set_meta("ablation", "exploration");
            telemetry.set_meta("case", format!("neq support={support}"));
            telemetry.set_meta("exploration", format!("{exploration:?}"));
            telemetry.set_meta("budget_queries", budget_queries);
            let mut oracle = generate::neq_case_with_support(40, 1, support, seed);
            let mut rng = seeded_rng(1);
            let info = identify_support(&mut oracle, 0, &SamplingConfig::fast(), &mut rng);
            let cfg = FbdtConfig {
                exploration,
                max_queries: Some(budget_queries),
                ..FbdtConfig::fast()
            };
            let (cover, _) = build_fbdt(
                &mut oracle,
                0,
                &info.support,
                info.truth_ratio,
                &cfg,
                &Budget::unlimited(),
                &mut rng,
                &telemetry,
            );
            // Build and score the cover.
            let mut circuit = Aig::new();
            for name in oracle.input_names() {
                circuit.add_input(name.clone());
            }
            let var_map: Vec<_> = (0..circuit.num_inputs())
                .map(|p| circuit.input_edge(p))
                .collect();
            let edge = circuit
                .add_sop(&cover.sop, &var_map)
                .complement_if(cover.complemented);
            circuit.add_output(edge, "y");
            let acc = evaluate_accuracy(
                oracle.reveal(),
                &circuit,
                &EvalConfig {
                    patterns_per_group: 10_000,
                    ..EvalConfig::default()
                },
            );
            telemetry.set_meta("accuracy_pct", format!("{:.3}", acc.percent()));
            runs.push(telemetry.report().to_json());
            acc.percent()
        };
        let lev = run(Exploration::Levelized);
        let dfs = run(Exploration::DepthFirst);
        println!(
            "{:<28} {:>12.3} {:>12.3} {:>10}",
            format!("neq support={support}"),
            lev,
            dfs,
            budget_queries
        );
    }
    println!();
}

/// 2. Onset/offset selection on a 1-heavy function.
fn ablation_onset_offset(runs: &mut Vec<Json>) {
    println!("== onset/offset selection (paper §IV-D trick 2) ==");
    // A dense function: OR of 6 literals (truth ratio 63/64 ~ 98.4%,
    // outside the FBDT's leaf threshold) — the offset is a single cube
    // while the onset needs one cube per literal.
    let mut g = Aig::new();
    let inputs = g.add_inputs("x", 16);
    let y = g.or_many(&inputs[..6]);
    g.add_output(y, "y");
    let mut oracle = CircuitOracle::new(g);

    let mut run = |selection: bool| {
        let telemetry = Telemetry::recording();
        telemetry.set_meta("ablation", "onset_offset");
        telemetry.set_meta("case", "or6 of 16");
        telemetry.set_meta("onset_offset_selection", selection);
        let mut rng = seeded_rng(2);
        let info = identify_support(&mut oracle, 0, &SamplingConfig::fast(), &mut rng);
        let cfg = FbdtConfig {
            onset_offset_selection: selection,
            ..FbdtConfig::fast()
        };
        let (cover, stats) = build_fbdt(
            &mut oracle,
            0,
            &info.support,
            info.truth_ratio,
            &cfg,
            &Budget::unlimited(),
            &mut rng,
            &telemetry,
        );
        telemetry.set_meta("cubes", cover.sop.cubes().len());
        telemetry.set_meta("complemented", cover.complemented);
        runs.push(telemetry.report().to_json());
        (cover.sop.cubes().len(), cover.complemented, stats.queries)
    };
    let (with_cubes, with_compl, _) = run(true);
    let (without_cubes, without_compl, _) = run(false);
    println!("selection on : {with_cubes} cubes (complemented: {with_compl})");
    println!("selection off: {without_cubes} cubes (complemented: {without_compl})");
    println!();
}

/// 3. Even-only vs mixed-ratio sampling for support identification.
fn ablation_uneven_ratios(runs: &mut Vec<Json>) {
    println!("== uneven-ratio sampling (paper §IV-C) ==");
    // y = AND of 14 inputs: a uniform flip changes the output only when
    // the other 13 are all 1 (p = 2^-13); biased patterns see it.
    let mut g = Aig::new();
    let inputs = g.add_inputs("x", 14);
    let y = g.and_many(&inputs);
    g.add_output(y, "y");
    let mut oracle = CircuitOracle::new(g);

    for (label, ratios) in [
        ("uniform only", vec![0.5]),
        ("mixed ratios", vec![0.5, 0.25, 0.75, 0.1, 0.9]),
    ] {
        let telemetry = Telemetry::recording();
        telemetry.set_meta("ablation", "uneven_ratios");
        telemetry.set_meta("case", "and14");
        telemetry.set_meta("ratios", label);
        let cfg = SamplingConfig {
            rounds: 600,
            ratios,
        };
        let mut rng = seeded_rng(3);
        let info = identify_support(&mut oracle, 0, &cfg, &mut rng);
        telemetry.set_meta("support_found", info.support.len());
        runs.push(telemetry.report().to_json());
        println!(
            "{label:<14}: |S'| = {:>2} of 14 actual support inputs",
            info.support.len()
        );
    }
}
