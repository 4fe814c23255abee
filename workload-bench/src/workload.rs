//! The four workloads, their set-up, and the untraced measurement loop.
//!
//! Every workload runs `LearnerConfig::fast()` with both wall-clock
//! budgets raised far past any run's length and a query cap, so no
//! clock decides control flow: queries, gates and accuracy are a pure
//! function of the cases and the cap, the same under every benchmark
//! seed, and wall time measures throughput only.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cirlearn::{LearnResult, Learner, LearnerConfig};
use cirlearn_aig::{Aig, Edge};
use cirlearn_bench::report::{BenchRecord, BenchReport};
use cirlearn_logic::Assignment;
use cirlearn_oracle::{
    contest_suite, evaluate_accuracy, CircuitOracle, ContestCase, EvalConfig, Oracle,
    ProcessOracle, ResilientOracle, RetryPolicy,
};
use cirlearn_synth::map::map_gates;
use cirlearn_synth::{VerifyConfig, VerifyLevel};
use cirlearn_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::timed::TimedOracle;

/// One benchmark workload: a fixed set of contest cases and how they
/// are served and learned.
pub struct Workload {
    pub name: &'static str,
    pub cases: &'static [&'static str],
    /// Input orders a run learns the cases in (see [`Case`]); sized so
    /// that one round of them takes about 15 s on a 2-core machine.
    pub presentations: usize,
    /// Learner query cap per case.
    pub max_queries: u64,
    /// Verify every synthesis pass by SAT (`--check sat`).
    pub sat_checked: bool,
    /// `Some(flake_every)`: serve each case from a child process over
    /// the line protocol, through a retrying transport, with every
    /// `flake_every`-th answer malformed.
    pub blackbox: Option<u64>,
}

/// Why each workload exists is recorded in `README.md` and
/// `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 4] = [
    // Support sampling dominates the queries; FBDT and synthesis are
    // light.
    Workload {
        name: "support_sweep",
        cases: &[
            "case_1", "case_4", "case_5", "case_7", "case_10", "case_11", "case_13", "case_17",
            "case_19",
        ],
        presentations: 6,
        max_queries: 3_000_000,
        sat_checked: false,
        blackbox: None,
    },
    // FBDT node sampling up to a query cap that binds, on case_18's
    // two outputs over 36-input supports. Its gate count swings by a
    // third from one presentation to the next, so it takes many for a
    // mean that a change in the learner's sampling moves little.
    Workload {
        name: "fbdt_capped",
        cases: &["case_18"],
        presentations: 24,
        max_queries: 400_000,
        sat_checked: false,
        blackbox: None,
    },
    // Template-solved cases: synthesis passes plus a SAT CEC after
    // each.
    Workload {
        name: "synth_checked",
        cases: &[
            "case_3", "case_6", "case_8", "case_12", "case_15", "case_16", "case_20",
        ],
        presentations: 4,
        max_queries: 3_000_000,
        sat_checked: true,
        blackbox: None,
    },
    // The support_sweep learner path, one pipe round trip per query.
    Workload {
        name: "blackbox_pipe",
        cases: &["case_7", "case_19"],
        presentations: 3,
        max_queries: 3_000_000,
        sat_checked: false,
        blackbox: Some(50_000),
    },
];

/// Patterns per group of the contest accuracy evaluation.
const EVAL_PATTERNS: usize = 20_000;
/// Random patterns on which the mapped netlist must match the AIG.
const MAP_CHECK_PATTERNS: usize = 1_000;
/// A case at or above this accuracy meets the contest bar.
const EXACT_PCT: f64 = 99.99;

pub fn find_workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))
}

impl Workload {
    pub fn learner_config(&self) -> LearnerConfig {
        let mut cfg = LearnerConfig::fast();
        cfg.time_budget = Duration::from_secs(600);
        cfg.max_queries = Some(self.max_queries);
        if let Some(opt) = &mut cfg.optimize {
            opt.time_budget = Duration::from_secs(600);
            if self.sat_checked {
                opt.verify = VerifyConfig::at_level(VerifyLevel::Sat);
            }
        }
        cfg
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One contest case, its inputs presented in one order.
///
/// Order 0 is the Table II circuit itself. Any other order shuffles
/// the inputs that are not bus bits (names without `[`); each keeps its
/// name. A new order presents the same function of the same size, but
/// every sample the learner draws lands differently, so a mean over
/// several orders moves less with a change to the learner's sampling
/// than one order does. Bus bits keep their places because template
/// matching searches buses in input order: shuffling them moved
/// `synth_checked` by 44% in time.
pub struct Case {
    pub spec: ContestCase,
    pub order: u64,
}

impl Case {
    pub fn new(name: &str, order: u64) -> Result<Case, String> {
        let spec = contest_suite()
            .into_iter()
            .find(|c| c.name == name)
            .ok_or_else(|| format!("unknown contest case {name}"))?;
        Ok(Case { spec, order })
    }

    pub fn name(&self) -> &'static str {
        self.spec.name
    }

    /// The hidden circuit, inputs in this case's order.
    pub fn build(&self) -> CircuitOracle {
        let table2 = self.spec.build();
        if self.order == 0 {
            return table2;
        }
        let hidden = table2.reveal();
        let mut order: Vec<usize> = (0..hidden.num_inputs()).collect();
        let movable: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| !hidden.input_name(i).contains('['))
            .collect();
        let mut rng = StdRng::seed_from_u64(self.order ^ self.spec.seed);
        for k in (1..movable.len()).rev() {
            order.swap(movable[k], movable[rng.gen_range(0..=k)]);
        }
        let mut aig = Aig::new();
        let mut map = vec![Edge::FALSE; hidden.node_count()];
        for &old in &order {
            map[hidden.input_edge(old).node().index()] = aig.add_input(hidden.input_name(old));
        }
        let lift = |map: &[Edge], e: Edge| map[e.node().index()].complement_if(e.is_complemented());
        for (node, a, b) in hidden.ands() {
            map[node.index()] = aig.and(lift(&map, a), lift(&map, b));
        }
        for (edge, name) in hidden.outputs() {
            aig.add_output(lift(&map, *edge), name.clone());
        }
        CircuitOracle::new(aig)
    }
}

/// The input order of presentation `k`; presentation 0 is the Table II
/// order.
fn order(k: usize) -> u64 {
    if k == 0 {
        0
    } else {
        splitmix64(k as u64) | 1
    }
}

/// What one invocation runs: a workload's cases in each presentation,
/// in the order a benchmark seed picks, and how black-box cases are
/// served.
///
/// The presentations are the same under every seed, so queries, gates
/// and accuracy are too, and a regression bound on them can be exact.
/// The seed picks the order the presentations run in and the random
/// patterns of the mapped-netlist check.
pub struct Plan<'a> {
    pub workload: &'a Workload,
    pub presentations: Vec<Vec<Case>>,
    /// Presentation indices in the order this seed runs them.
    pub run_order: Vec<usize>,
    /// Seed of the patterns the mapped netlist is checked on.
    pub check_seed: u64,
    /// The program serving black-box cases, run as
    /// `<server> serve <case> <order> <flake-every>`.
    pub server: PathBuf,
    /// Retry policy of the transport to a black box.
    pub retry: RetryPolicy,
}

impl<'a> Plan<'a> {
    /// `workload` at benchmark seed `seed`, black boxes served by this
    /// binary and retried without backoff. The learner's own seed
    /// never changes.
    pub fn new(workload: &'a Workload, seed: u64) -> Result<Plan<'a>, String> {
        let presentations = (0..workload.presentations)
            .map(|k| {
                workload
                    .cases
                    .iter()
                    .map(|name| Case::new(name, order(k)))
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        let mut run_order: Vec<usize> = (0..workload.presentations).collect();
        let mut rng = StdRng::seed_from_u64(splitmix64(seed));
        for k in (1..run_order.len()).rev() {
            run_order.swap(k, rng.gen_range(0..=k));
        }
        Ok(Plan {
            workload,
            presentations,
            run_order,
            check_seed: rng.gen(),
            server: std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?,
            retry: RetryPolicy {
                backoff_base: Duration::ZERO,
                jitter: 0.0,
                ..RetryPolicy::default()
            },
        })
    }
}

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one benchmark invocation reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The hidden circuit of one case, as the learner gets to see it.
enum Hidden {
    InProcess(CircuitOracle),
    Pipe {
        golden: CircuitOracle,
        oracle: Box<ResilientOracle<ProcessOracle>>,
    },
}

impl Hidden {
    fn set_up(case: &Case, plan: &Plan) -> Result<Hidden, String> {
        let golden = case.build();
        let Some(flake_every) = plan.workload.blackbox else {
            return Ok(Hidden::InProcess(golden));
        };
        let name = case.name();
        let server = plan.server.to_str().ok_or("server path is not UTF-8")?;
        let order = case.order.to_string();
        let flake = flake_every.to_string();
        let mut child = ProcessOracle::spawn(
            server,
            &["serve", name, &order, &flake],
            golden.input_names().to_vec(),
            golden.output_names().to_vec(),
        )
        .map_err(|e| format!("{name}: {e}"))?;
        // Set-up ends with the black box's first answer, so a slow
        // start shows in set-up time rather than in the learner's.
        let probe = Assignment::zeros(golden.num_inputs());
        let answer = child
            .try_query_process(&probe)
            .map_err(|e| format!("{name}: first answer: {e}"))?;
        if answer != golden.reveal().eval(&probe) {
            return Err(format!("{name}: black box answers a different function"));
        }
        Ok(Hidden::Pipe {
            golden,
            oracle: Box::new(ResilientOracle::new(child, plan.retry.clone())),
        })
    }

    fn golden(&self) -> &Aig {
        match self {
            Hidden::InProcess(oracle) | Hidden::Pipe { golden: oracle, .. } => oracle.reveal(),
        }
    }

    fn retries(&self) -> u64 {
        match self {
            Hidden::InProcess(_) => 0,
            Hidden::Pipe { oracle, .. } => oracle.fault_stats().retries,
        }
    }
}

/// One case of one repetition.
pub struct CaseRun {
    pub name: &'static str,
    pub setup_s: f64,
    pub learn_s: f64,
    pub queries: u64,
    /// Mapped 2-input gates, the contest size.
    pub gates: usize,
    /// AND nodes of the learned (optimized) circuit.
    pub aig_gates: usize,
    /// Contest accuracy; a repetition with a reference copies it once
    /// its circuit matched the reference's.
    pub accuracy_pct: Option<f64>,
    /// The learned circuit as AIGER text, for the determinism check;
    /// kept only by a repetition without a reference, so memory does
    /// not grow with the number of repetitions.
    pub aiger: Option<String>,
    /// Why the run failed (panic, degraded outputs, oracle fault, or a
    /// failed output check).
    pub failure: Option<String>,
    /// Set when an output check failed.
    pub incorrect: bool,
    pub patterns: u64,
    pub busy: Duration,
    /// Per-call oracle times; recorded only in a traced repetition.
    pub call_ns: Vec<u64>,
    pub retries: u64,
}

/// One repetition: every case of one presentation, learned once.
pub struct Rep {
    pub presentation: usize,
    pub cases: Vec<CaseRun>,
}

impl Rep {
    pub fn learn_s(&self) -> f64 {
        self.cases.iter().map(|c| c.learn_s).sum()
    }

    pub fn setup_s(&self) -> f64 {
        self.cases.iter().map(|c| c.setup_s).sum()
    }

    pub fn queries(&self) -> u64 {
        self.cases.iter().map(|c| c.queries).sum()
    }

    pub fn gates(&self) -> usize {
        self.cases.iter().map(|c| c.gates).sum()
    }

    pub fn accuracy_mean_pct(&self) -> f64 {
        let total: f64 = self
            .cases
            .iter()
            .map(|c| c.accuracy_pct.unwrap_or(0.0))
            .sum();
        total / self.cases.len() as f64
    }
}

/// Runs every case of presentation `presentation` once. Spans
/// `bench.case` (one per case) and the learner's own telemetry go to
/// `telemetry`; pass a disabled handle for an untraced repetition.
/// `reference` is an earlier repetition of the same presentation, whose
/// circuits this one must reproduce.
pub fn run_rep(
    plan: &Plan,
    presentation: usize,
    telemetry: &Telemetry,
    reference: Option<&Rep>,
) -> Rep {
    let cases = plan.presentations[presentation]
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let _span = telemetry.span("bench.case");
            run_case(plan, case, telemetry, reference.map(|r| &r.cases[i]))
        })
        .collect();
    Rep {
        presentation,
        cases,
    }
}

fn run_case(
    plan: &Plan,
    case: &Case,
    telemetry: &Telemetry,
    reference: Option<&CaseRun>,
) -> CaseRun {
    let mut run = CaseRun {
        name: case.name(),
        setup_s: 0.0,
        learn_s: 0.0,
        queries: 0,
        gates: 0,
        aig_gates: 0,
        accuracy_pct: None,
        aiger: None,
        failure: None,
        incorrect: false,
        patterns: 0,
        busy: Duration::ZERO,
        call_ns: Vec::new(),
        retries: 0,
    };
    let setup_start = Instant::now();
    let mut hidden = match Hidden::set_up(case, plan) {
        Ok(hidden) => hidden,
        Err(e) => {
            run.failure = Some(format!("set-up failed: {e}"));
            return run;
        }
    };
    run.setup_s = setup_start.elapsed().as_secs_f64();

    let oracle: &mut dyn Oracle = match &mut hidden {
        Hidden::InProcess(oracle) => oracle,
        Hidden::Pipe { oracle, .. } => oracle.as_mut(),
    };
    let mut timed = TimedOracle::new(oracle, telemetry.clone());
    let mut learner = Learner::with_telemetry(plan.workload.learner_config(), telemetry.clone());
    let start = Instant::now();
    let learned = catch_unwind(AssertUnwindSafe(|| learner.learn(&mut timed)));
    run.learn_s = start.elapsed().as_secs_f64();
    run.patterns = timed.patterns;
    run.busy = timed.busy;
    run.call_ns = std::mem::take(&mut timed.call_ns);
    drop(timed);
    run.retries = hidden.retries();

    let Ok(result) = learned else {
        run.failure = Some("learner panicked".to_owned());
        return run;
    };
    // A faulted batch is not answered, yet the answers the black box
    // served before the fault still count as the learner's queries.
    let faulted = result.faults.any();
    if faulted || !result.degraded.is_empty() {
        run.failure = Some(format!(
            "{} degraded output(s), oracle error {:?}",
            result.degraded.len(),
            result.faults.oracle_error
        ));
    }
    run.queries = result.queries;
    run.aig_gates = result.circuit.gate_count();
    let answered = (!faulted).then_some(run.patterns);
    match check_outputs(
        case.name(),
        hidden.golden(),
        &result,
        answered,
        plan.check_seed,
    ) {
        Ok(gates) => run.gates = gates,
        Err(e) => {
            run.failure = Some(e);
            run.incorrect = true;
            return run;
        }
    }
    let aiger = result.circuit.to_aiger_ascii();
    match reference.and_then(|r| r.aiger.as_ref()) {
        Some(earlier) if *earlier != aiger => {
            run.failure = Some("learned a different circuit than its reference".to_owned());
            run.incorrect = true;
        }
        Some(_) => run.accuracy_pct = reference.and_then(|r| r.accuracy_pct),
        None => {
            let acc = evaluate_accuracy(
                hidden.golden(),
                &result.circuit,
                &EvalConfig {
                    patterns_per_group: EVAL_PATTERNS,
                    ..EvalConfig::default()
                },
            );
            run.accuracy_pct = Some(acc.percent());
            run.aiger = Some(aiger);
        }
    }
    run
}

/// The output checks every learned circuit must pass; returns the
/// mapped gate count. `answered`, when known, is the number of patterns
/// the oracle answered, which must equal the learner's query count.
/// `check_seed` seeds the random patterns the mapped netlist is checked
/// on.
fn check_outputs(
    name: &str,
    golden: &Aig,
    result: &LearnResult,
    answered: Option<u64>,
    check_seed: u64,
) -> Result<usize, String> {
    let circuit = &result.circuit;
    if circuit.num_inputs() != golden.num_inputs() || circuit.num_outputs() != golden.num_outputs()
    {
        return Err(format!(
            "{name}: learned {}x{} ports, hidden circuit has {}x{}",
            circuit.num_inputs(),
            circuit.num_outputs(),
            golden.num_inputs(),
            golden.num_outputs()
        ));
    }
    if let Some(patterns) = answered.filter(|&p| p != result.queries) {
        return Err(format!(
            "{name}: the oracle answered {patterns} patterns, the learner reports {} queries",
            result.queries
        ));
    }
    let mapped = map_gates(circuit);
    let mut rng = StdRng::seed_from_u64(check_seed);
    for _ in 0..MAP_CHECK_PATTERNS {
        let pattern = Assignment::random(circuit.num_inputs(), &mut rng);
        let bits: Vec<bool> = pattern.iter().collect();
        if mapped.eval_bits(&bits) != circuit.eval(&pattern) {
            return Err(format!(
                "{name}: mapped netlist disagrees with the learned AIG"
            ));
        }
    }
    Ok(mapped.gate_count())
}

/// Runs untraced rounds of repetitions, one per presentation in
/// `presentations`, in that order, until the next round would end past
/// `seconds`; at least one round. Later rounds must reproduce the
/// first round's circuits.
pub fn measure(plan: &Plan, presentations: &[usize], seconds: f64) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        for &p in presentations {
            let reference = reps.iter().find(|r| r.presentation == p);
            let rep = run_rep(plan, p, &Telemetry::disabled(), reference);
            eprintln!(
                "{} rep {} (presentation {p}): learn_s={:.4} setup_s={:.5} queries={} gates={} \
                 accuracy={:.3}%",
                plan.workload.name,
                reps.len() + 1,
                rep.learn_s(),
                rep.setup_s(),
                rep.queries(),
                rep.gates(),
                rep.accuracy_mean_pct()
            );
            reps.push(rep);
        }
        let rounds = (reps.len() / presentations.len()) as f64;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / rounds > seconds {
            return reps;
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted values.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Counts, over all repetitions, case runs attempted, failed, and
/// failed an output check.
pub fn tally(reps: &[&Rep]) -> (u64, u64, bool) {
    let runs = || reps.iter().flat_map(|r| &r.cases);
    for run in runs() {
        if let Some(why) = &run.failure {
            eprintln!("FAILED {}: {why}", run.name);
        }
    }
    let attempted = runs().count() as u64;
    let failed = runs().filter(|c| c.failure.is_some()).count() as u64;
    let correct = runs().all(|c| !c.incorrect);
    (attempted, failed, correct)
}

/// The untraced benchmark: end-to-end metrics of workload `w`.
///
/// Counts and accuracy are means over the presentations, taken from
/// the first round in presentation order, so they do not depend on the
/// seed down to the last bit. Times are medians over every repetition,
/// which drops the ones a busy machine slowed.
pub fn run(w: &Workload, seed: u64, seconds: f64, out_dir: &str) -> Result<Outcome, String> {
    let plan = Plan::new(w, seed)?;
    let reps = measure(&plan, &plan.run_order, seconds);
    let (attempted, failed, correct) = tally(&reps.iter().collect::<Vec<_>>());
    let mut first_round: Vec<&Rep> = reps[..w.presentations].iter().collect();
    first_round.sort_by_key(|r| r.presentation);
    let over_round = |f: &dyn Fn(&Rep) -> f64| {
        first_round.iter().map(|r| f(r)).sum::<f64>() / first_round.len() as f64
    };
    let over_all = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let exact = first_round
        .iter()
        .flat_map(|r| &r.cases)
        .filter(|c| c.accuracy_pct.is_some_and(|a| a >= EXACT_PCT))
        .count();
    eprintln!(
        "{}: {} reps, {exact} of {} case runs exact, fail_share {}",
        w.name,
        reps.len(),
        first_round.len() * w.cases.len(),
        failed as f64 / attempted as f64
    );
    write_records(w, seed, &first_round, &reps, out_dir)?;
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: vec![
            Metric::new("learn_s", over_all(Rep::learn_s), "s"),
            Metric::new("queries", over_round(&|r| r.queries() as f64), "count"),
            Metric::new("gates", over_round(&|r| r.gates() as f64), "count"),
            Metric::new(
                "accuracy_mean_pct",
                over_round(&Rep::accuracy_mean_pct),
                "%",
            ),
            Metric::new("setup_s", over_all(Rep::setup_s), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
        ],
    })
}

/// Writes one `BenchRecord` per case and presentation (named
/// `<case>/<presentation>`, suite = workload name) to
/// `<out_dir>/BENCH_<workload>.json`, so `bench compare` can diff two
/// runs case by case. Wall time is the median over rounds.
fn write_records(
    w: &Workload,
    seed: u64,
    first_round: &[&Rep],
    reps: &[Rep],
    out_dir: &str,
) -> Result<(), String> {
    let mut records = Vec::new();
    for first in first_round {
        for (i, c) in first.cases.iter().enumerate() {
            let times: Vec<f64> = reps
                .iter()
                .filter(|r| r.presentation == first.presentation)
                .map(|r| r.cases[i].learn_s)
                .collect();
            records.push(BenchRecord {
                name: format!("{}/{}", c.name, first.presentation),
                contestant: "ours".to_owned(),
                wall_s: median(&times),
                queries: c.queries,
                gates: c.gates,
                accuracy: c.accuracy_pct.unwrap_or(0.0),
                histograms: Default::default(),
                attribution: Default::default(),
                budget_limited: false,
            });
        }
    }
    let report = BenchReport {
        suite: w.name.to_owned(),
        scale: format!("seed {seed}"),
        records,
    };
    let path = format!("{out_dir}/BENCH_{}.json", w.name);
    std::fs::write(&path, report.to_json().to_pretty()).map_err(|e| format!("writing {path}: {e}"))
}
