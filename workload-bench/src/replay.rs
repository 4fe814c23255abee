//! Fixed-input layer replays.
//!
//! Each replay times one layer's public functions from outside the
//! learner, on fixed inputs (presentation 0, the Table II order), so a
//! change to that layer moves its number whatever the learner around it
//! does.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cirlearn::fbdt::{learn_exhaustive, FbdtBuilder, FbdtConfig};
use cirlearn::sampling::{seeded_rng, SamplingConfig};
use cirlearn::support::identify_support;
use cirlearn::{Budget, Learner, LearnerConfig};
use cirlearn_aig::Aig;
use cirlearn_logic::Assignment;
use cirlearn_oracle::Oracle;
use cirlearn_synth::map::map_gates;
use cirlearn_synth::{balance, collapse, fraig, optimize, refactor, rewrite, OptimizeConfig};
use cirlearn_telemetry::Telemetry;

use crate::workload::{median, percentile, Case, Metric, WORKLOADS};

/// Timed samples per replay; each replay reports their median.
const SAMPLES: usize = 5;
/// FBDT node expansions timed on case_18.
const FBDT_STEPS: usize = 2_000;

pub fn run() -> Result<Vec<Metric>, String> {
    let mut metrics = vec![
        Metric::new(
            "replay.oracle_b48.mpatterns_per_s",
            oracle_throughput("case_14", 48)?,
            "Mpattern/s",
        ),
        Metric::new(
            "replay.oracle_b240.mpatterns_per_s",
            oracle_throughput("case_1", 240)?,
            "Mpattern/s",
        ),
        Metric::new("replay.support_ms", support_ms()?, "ms"),
    ];
    let (p50, p99) = fbdt_step_us()?;
    metrics.push(Metric::new("replay.fbdt_step_us_p50", p50, "us"));
    metrics.push(Metric::new("replay.fbdt_step_us_p99", p99, "us"));
    metrics.push(Metric::new(
        "replay.exhaustive_k12_ms",
        exhaustive_k12_ms()?,
        "ms",
    ));

    let raw = raw_cover("case_2")?;
    for (pass, ms) in pass_chain_ms(&raw) {
        metrics.push(Metric::new(format!("replay.pass_ms.{pass}"), ms, "ms"));
    }
    metrics.push(Metric::new(
        "replay.map_gates_ms",
        median_ms(|| drop(black_box(map_gates(&raw)))),
        "ms",
    ));
    metrics.push(Metric::new("replay.cec_ms", cec_ms("case_12")?, "ms"));
    Ok(metrics)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median over [`SAMPLES`] runs of `f`, in milliseconds.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            f();
            ms(start.elapsed())
        })
        .collect();
    median(&samples)
}

/// `CircuitOracle::query_batch` throughput on a case's hidden circuit,
/// in million patterns per second.
fn oracle_throughput(case: &str, batch: usize) -> Result<f64, String> {
    const PATTERNS_PER_SAMPLE: usize = 24_000;
    let mut oracle = Case::new(case, 0)?.build();
    let n = oracle.num_inputs();
    let mut rng = seeded_rng(48);
    let batches: Vec<Vec<Assignment>> = (0..PATTERNS_PER_SAMPLE / batch)
        .map(|_| {
            (0..batch)
                .map(|_| Assignment::random(n, &mut rng))
                .collect()
        })
        .collect();
    let sample_ms = median_ms(|| {
        for b in &batches {
            black_box(oracle.query_batch(black_box(b)));
        }
    });
    Ok((batches.len() * batch) as f64 / sample_ms / 1e3)
}

/// `identify_support` on case_1, output 0.
fn support_ms() -> Result<f64, String> {
    let mut oracle = Case::new("case_1", 0)?.build();
    let config = SamplingConfig::fast();
    Ok(median_ms(|| {
        black_box(identify_support(
            &mut oracle,
            0,
            &config,
            &mut seeded_rng(1),
        ));
    }))
}

/// `FbdtBuilder::step` on case_18, output 0: median and 99th
/// percentile over the first [`FBDT_STEPS`] expansions, in µs.
fn fbdt_step_us() -> Result<(f64, f64), String> {
    let mut oracle = Case::new("case_18", 0)?.build();
    let mut rng = seeded_rng(18);
    let info = identify_support(&mut oracle, 0, &SamplingConfig::fast(), &mut rng);
    let mut builder = FbdtBuilder::new(0, &info.support, info.truth_ratio, &FbdtConfig::fast());
    let budget = Budget::unlimited();
    let telemetry = Telemetry::disabled();
    let mut step_ns: Vec<u64> = Vec::with_capacity(FBDT_STEPS);
    for _ in 0..FBDT_STEPS {
        let start = Instant::now();
        if !builder.step(&mut oracle, &budget, &mut rng, &telemetry) {
            break;
        }
        step_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    step_ns.sort_unstable();
    Ok((
        percentile(&step_ns, 0.50) / 1e3,
        percentile(&step_ns, 0.99) / 1e3,
    ))
}

/// `learn_exhaustive` over the first 12-input output support among the
/// `support_sweep` cases.
fn exhaustive_k12_ms() -> Result<f64, String> {
    for name in WORKLOADS[0].cases {
        let mut oracle = Case::new(name, 0)?.build();
        for output in 0..oracle.num_outputs() {
            let support = oracle.reveal().output_support(output);
            if support.len() == 12 {
                return Ok(median_ms(|| {
                    black_box(learn_exhaustive(
                        &mut oracle,
                        output,
                        &support,
                        &mut seeded_rng(12),
                    ));
                }));
            }
        }
    }
    Err("no support_sweep output has a 12-input support".to_owned())
}

fn learner_config() -> LearnerConfig {
    let mut cfg = WORKLOADS[0].learner_config();
    cfg.optimize = None;
    cfg
}

/// A case's learned circuit before optimization.
fn raw_cover(case: &str) -> Result<Aig, String> {
    let mut oracle = Case::new(case, 0)?.build();
    Ok(Learner::new(learner_config()).learn(&mut oracle).circuit)
}

/// The optimizer's passes, chained the way `optimize_with` chains them
/// (a result replaces the circuit unless it grew it): the median time
/// of each pass, in ms.
fn pass_chain_ms(raw: &Aig) -> Vec<(&'static str, f64)> {
    let opt = fast_optimize_config();
    let passes = ["balance", "rewrite", "refactor", "fraig", "collapse"];
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); passes.len()];
    for _ in 0..SAMPLES {
        let mut current = raw.cleanup();
        for (&pass, times) in passes.iter().zip(&mut samples) {
            let start = Instant::now();
            let next = match pass {
                "balance" => balance(&current),
                "rewrite" => rewrite(&current),
                "refactor" => refactor(&current, &opt.refactor),
                "fraig" => fraig(&current, &opt.fraig),
                _ => collapse(&current, &opt.collapse),
            };
            times.push(ms(start.elapsed()));
            if next.gate_count() <= current.gate_count() {
                current = next;
            }
        }
    }
    passes
        .iter()
        .zip(&samples)
        .map(|(&pass, times)| (pass, median(times)))
        .collect()
}

fn fast_optimize_config() -> OptimizeConfig {
    WORKLOADS[0]
        .learner_config()
        .optimize
        .expect("the fast configuration optimizes")
}

/// `check_equivalence` of a case's raw cover against its optimized
/// circuit, timed once.
fn cec_ms(case: &str) -> Result<f64, String> {
    let raw = raw_cover(case)?;
    let optimized = optimize(&raw, &fast_optimize_config());
    let start = Instant::now();
    let verdict = cirlearn_sat::check_equivalence(&raw, &optimized);
    let elapsed = start.elapsed();
    if !verdict.is_equivalent() {
        return Err(format!("{case}: optimization changed the function"));
    }
    Ok(ms(elapsed))
}
