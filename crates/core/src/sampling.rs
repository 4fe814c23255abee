//! `PatternSampling` (paper Algorithm 1).
//!
//! The procedure takes the black-box generator and a constraining cube
//! `c`, and returns the *dependency count* `D_i` of every input not in
//! `c` plus the `TruthRatio` — the share of 1s among sampled outputs.
//!
//! `D_i` counts sampled assignment pairs `(α_i, α_{¬i})` on which the
//! output flips; `D_i ≠ 0` certifies input `i` is in the support, and
//! `argmax D_i` is the *most significant input* the FBDT splits on.
//!
//! Two implementation notes relative to the paper's pseudo code:
//!
//! * The paper draws fresh assignments for every input; we draw one
//!   base block of `r` assignments and flip each input against it, an
//!   optimization preserving the sampling distribution while cutting
//!   queries from `2r·|R|` to `r·(|R| + 1)`.
//! * The paper observes that uneven 0/1 ratios expose dependencies an
//!   even ratio misses; [`SamplingConfig::ratios`] cycles the blocks
//!   through `{0.5, 0.25, 0.75, 0.1, 0.9}` by default.
//!
//! The oracle sees the base block, then one flip block per probed
//! input in probe order, packed into one `query_batch` per at most
//! 1,024 patterns (one block per call when a block alone is larger). The patterns are built in a caller-owned block of
//! assignments that is reused across calls: the base is drawn in place
//! and each flip block is a word copy of the base with one column
//! flipped, so a call allocates no patterns once the block has grown.

use cirlearn_logic::{Assignment, Cube, Var};
use cirlearn_oracle::Oracle;
use rand::rngs::StdRng;

/// Configuration for [`pattern_sampling`].
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Number of base assignments `r` (the paper uses 7200 for support
    /// identification and 60 inside the FBDT).
    pub rounds: usize,
    /// The 1-ratios cycled across base assignments.
    pub ratios: Vec<f64>,
}

impl SamplingConfig {
    /// The paper's support-identification setting (`r = 7200`).
    pub fn support_default() -> Self {
        SamplingConfig {
            rounds: 7200,
            ratios: vec![0.5, 0.25, 0.75, 0.1, 0.9],
        }
    }

    /// The paper's FBDT node setting (`r = 60`).
    pub fn node_default() -> Self {
        SamplingConfig {
            rounds: 60,
            ratios: vec![0.5, 0.25, 0.75],
        }
    }

    /// A reduced-effort setting for tests.
    pub fn fast() -> Self {
        SamplingConfig {
            rounds: 240,
            ratios: vec![0.5, 0.25, 0.75],
        }
    }
}

/// The outcome of one `PatternSampling` call.
#[derive(Debug, Clone)]
pub struct SampleStats {
    /// Dependency count per primary-input position (entries for inputs
    /// constrained by the cube are 0 and must be ignored).
    pub dependency: Vec<u64>,
    /// Proportion of 1s among all sampled output values.
    pub truth_ratio: f64,
    /// Number of oracle queries spent.
    pub queries: u64,
}

impl SampleStats {
    /// The *most significant input*: the free input with the highest
    /// dependency count, or `None` if no dependency was observed.
    pub fn most_significant(&self, free: &[usize]) -> Option<usize> {
        free.iter()
            .copied()
            // panic-ok: callers pass `free ⊆ 0..num_inputs` and
            // `dependency` has exactly `num_inputs` slots.
            .max_by_key(|&i| self.dependency[i])
            // panic-ok: same bound as the `max_by_key` line.
            .filter(|&i| self.dependency[i] > 0)
    }

    /// The approximate support `S' = { i : D_i ≠ 0 }`.
    pub fn support(&self) -> Vec<usize> {
        self.dependency
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d > 0)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Upper bound on the patterns [`pattern_sampling`] sends in one
/// `query_batch`: `max(1, 1024 / r)` blocks of `r` patterns go out
/// together. Larger chunks save few further calls but keep more answer
/// rows in flight: on the workload benchmark's `blackbox_pipe`,
/// 4,096-pattern chunks raised peak RSS by 15–20%, 1,024 by 0–5%.
pub(crate) const MAX_PATTERNS_PER_CALL: usize = 1024;

/// Runs `PatternSampling(F, c)` for one output of the oracle.
///
/// Draws `config.rounds` base assignments constrained to satisfy
/// `cube`, then measures `D_i` for every input in `probe` (the paper's
/// `R = I \ C`; the caller restricts it further to the known support
/// inside the FBDT) and the truth ratio of output `output` over all
/// sampled values.
///
/// `block` is scratch storage for the patterns of one oracle call; pass
/// the same vector to consecutive calls so its assignments are reused.
/// Its contents on entry do not matter.
///
/// # Panics
///
/// Panics if `output` is out of range or `probe` contains an input
/// constrained by `cube`.
pub fn pattern_sampling<O: Oracle + ?Sized>(
    oracle: &mut O,
    output: usize,
    cube: &Cube,
    probe: &[usize],
    config: &SamplingConfig,
    rng: &mut StdRng,
    block: &mut Vec<Assignment>,
) -> SampleStats {
    // panic-ok: entry contract guard, once per sampling call (not per
    // pattern); everything below relies on `output` being in range.
    assert!(output < oracle.num_outputs(), "output index out of range");
    let n = oracle.num_inputs();
    for &i in probe {
        // panic-ok: entry contract guard — bounds every later
        // `dependency[i]` write and `flip` call.
        assert!(i < n, "probe input {i} out of range");
        // panic-ok: entry contract guard, once per probe input.
        assert!(
            !cube.contains_var(Var::new(i as u32)),
            "probe input {i} is fixed by the cube"
        );
    }
    let r = config.rounds.max(1);
    let per_call = (MAX_PATTERNS_PER_CALL / r).max(1);

    // Slots: the base block, then room for the flip blocks of one call.
    if block.first().is_some_and(|a| a.len() != n) {
        block.clear();
    }
    let slots = r * (1 + per_call.min(probe.len()));
    if block.len() < slots {
        block.resize_with(slots, || Assignment::zeros(n));
    }

    // Base block: r assignments satisfying the cube, with cycling
    // 1-ratios (an empty ratio list falls back to unbiased 0.5).
    // panic-ok: `block` was grown to at least `r` slots above.
    for (k, a) in block[..r].iter_mut().enumerate() {
        let ratio = config
            .ratios
            .get(k % config.ratios.len().max(1))
            .copied()
            .unwrap_or(0.5);
        if (ratio - 0.5).abs() < f64::EPSILON {
            a.redraw(rng);
        } else {
            a.redraw_biased(ratio, rng);
        }
        a.constrain(cube);
    }

    // alloc-ok: the returned counts, one vector per sampling call.
    let mut dependency = vec![0u64; n];
    // alloc-ok: one output bit per base pattern, once per sampling call.
    let mut base_bits: Vec<bool> = Vec::with_capacity(r);
    let mut ones: u64 = 0;
    let mut sent = 0;
    let mut first = true;
    loop {
        // The first call carries the base block and one block fewer of
        // flips; every later call is flips only.
        let take = (per_call - usize::from(first)).min(probe.len() - sent);
        // panic-ok: `sent + take <= probe.len()` by the `min` above.
        let chunk = &probe[sent..sent + take];
        let (base, flips) = block.split_at_mut(r);
        for (&i, flip_block) in chunk.iter().zip(flips.chunks_mut(r)) {
            let var = Var::new(i as u32);
            for (f, b) in flip_block.iter_mut().zip(base.iter()) {
                f.clone_from(b);
                f.flip(var);
            }
        }
        let from = if first { 0 } else { r };
        // panic-ok: `r + take * r <= slots <= block.len()` because
        // `take <= per_call.min(probe.len())`.
        let mut rows = oracle.query_batch(&block[from..r + take * r]).into_iter();
        if first {
            for row in rows.by_ref().take(r) {
                // panic-ok: `output` is bounded by the entry guard and
                // oracle rows have `num_outputs` entries by the Oracle
                // contract.
                let bit = row[output];
                ones += u64::from(bit);
                // alloc-ok: within the capacity reserved above.
                base_bits.push(bit);
            }
        }
        for &i in chunk {
            let mut d = 0u64;
            for (&b, row) in base_bits.iter().zip(rows.by_ref().take(r)) {
                // panic-ok: same bound as the base rows above.
                let f = row[output];
                d += u64::from(b != f);
                ones += u64::from(f);
            }
            // panic-ok: `i < n` checked by the entry guard and
            // `dependency` has exactly `n` slots.
            dependency[i] = d;
        }
        sent += take;
        first = false;
        if sent == probe.len() {
            break;
        }
    }

    let queries = (r * (probe.len() + 1)) as u64;
    SampleStats {
        dependency,
        truth_ratio: ones as f64 / queries as f64,
        queries,
    }
}

/// Convenience: a seeded RNG for deterministic experiments.
pub fn seeded_rng(seed: u64) -> StdRng {
    use rand::SeedableRng;
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_aig::Aig;
    use cirlearn_logic::Literal;
    use cirlearn_oracle::{generate, CircuitOracle};
    use rand::{Rng, RngCore};

    /// y = x0 & x5 over 8 inputs (x1..x4, x6, x7 irrelevant).
    fn and_oracle() -> CircuitOracle {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 8);
        let y = g.and(inputs[0], inputs[5]);
        g.add_output(y, "y");
        CircuitOracle::new(g)
    }

    #[test]
    fn dependency_counts_identify_support() {
        let mut o = and_oracle();
        let mut rng = seeded_rng(1);
        let probe: Vec<usize> = (0..8).collect();
        let stats = pattern_sampling(
            &mut o,
            0,
            &Cube::top(),
            &probe,
            &SamplingConfig::fast(),
            &mut rng,
            &mut Vec::new(),
        );
        assert_eq!(stats.support(), vec![0, 5]);
        assert!(stats.dependency[0] > 0 && stats.dependency[5] > 0);
        assert_eq!(stats.dependency[1], 0);
        let msi = stats.most_significant(&probe).expect("depends on inputs");
        assert!(msi == 0 || msi == 5);
    }

    #[test]
    fn truth_ratio_reflects_function() {
        let mut o = and_oracle();
        let mut rng = seeded_rng(2);
        // Under the cube x0=1, x5=1 the function is constant 1.
        let cube = Cube::from_literals([
            Literal::new(Var::new(0), false),
            Literal::new(Var::new(5), false),
        ])
        .expect("consistent");
        let stats = pattern_sampling(
            &mut o,
            0,
            &cube,
            &[1, 2, 3],
            &SamplingConfig::fast(),
            &mut rng,
            &mut Vec::new(),
        );
        assert!((stats.truth_ratio - 1.0).abs() < 1e-9);
        assert!(stats.support().is_empty());
    }

    #[test]
    fn constrained_sampling_respects_cube() {
        let mut o = and_oracle();
        let mut rng = seeded_rng(3);
        // x0=0 makes the output constant 0.
        let cube = Cube::from_literals([Literal::new(Var::new(0), true)]).expect("ok");
        let stats = pattern_sampling(
            &mut o,
            0,
            &cube,
            &[5],
            &SamplingConfig::fast(),
            &mut rng,
            &mut Vec::new(),
        );
        assert_eq!(stats.truth_ratio, 0.0);
        assert_eq!(stats.dependency[5], 0);
    }

    #[test]
    #[should_panic(expected = "fixed by the cube")]
    fn probing_fixed_input_panics() {
        let mut o = and_oracle();
        let mut rng = seeded_rng(4);
        let cube = Cube::from_literals([Literal::new(Var::new(0), false)]).expect("ok");
        pattern_sampling(
            &mut o,
            0,
            &cube,
            &[0],
            &SamplingConfig::fast(),
            &mut rng,
            &mut Vec::new(),
        );
    }

    #[test]
    fn uneven_ratios_find_skewed_dependencies() {
        // y = AND of 12 inputs: under uniform sampling a flip of one
        // input changes the output only when the other 11 are all 1
        // (probability 2^-11); the 0.9-biased block sees it readily.
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 12);
        let y = g.and_many(&inputs);
        g.add_output(y, "y");
        let mut o = CircuitOracle::new(g);
        let mut rng = seeded_rng(5);
        let probe: Vec<usize> = (0..12).collect();
        let cfg = SamplingConfig {
            rounds: 600,
            ratios: vec![0.5, 0.9],
        };
        let stats = pattern_sampling(
            &mut o,
            0,
            &Cube::top(),
            &probe,
            &cfg,
            &mut rng,
            &mut Vec::new(),
        );
        assert_eq!(stats.support().len(), 12, "all 12 inputs must be found");
    }

    #[test]
    fn query_accounting_matches_formula() {
        let mut o = and_oracle();
        let mut rng = seeded_rng(7);
        let cfg = SamplingConfig {
            rounds: 50,
            ratios: vec![0.5],
        };
        let stats = pattern_sampling(
            &mut o,
            0,
            &Cube::top(),
            &[0, 1, 2],
            &cfg,
            &mut rng,
            &mut Vec::new(),
        );
        // r * (|probe| + 1)
        assert_eq!(stats.queries, 50 * 4);
        assert_eq!(o.queries(), 50 * 4);
    }

    /// Logs every pattern the learner sends and the size of every call.
    struct Recording {
        inner: CircuitOracle,
        patterns: Vec<Assignment>,
        calls: Vec<usize>,
    }

    impl Recording {
        fn new(inner: CircuitOracle) -> Self {
            Recording {
                inner,
                patterns: Vec::new(),
                calls: Vec::new(),
            }
        }
    }

    impl Oracle for Recording {
        fn num_inputs(&self) -> usize {
            self.inner.num_inputs()
        }
        fn num_outputs(&self) -> usize {
            self.inner.num_outputs()
        }
        fn input_names(&self) -> &[String] {
            self.inner.input_names()
        }
        fn output_names(&self) -> &[String] {
            self.inner.output_names()
        }
        fn query(&mut self, input: &Assignment) -> Vec<bool> {
            self.query_batch(std::slice::from_ref(input))
                .pop()
                .expect("one row per pattern")
        }
        fn query_batch(&mut self, inputs: &[Assignment]) -> Vec<Vec<bool>> {
            self.patterns.extend_from_slice(inputs);
            self.calls.push(inputs.len());
            self.inner.query_batch(inputs)
        }
        fn queries(&self) -> u64 {
            self.inner.queries()
        }
    }

    /// The one-call-per-probe sampling `pattern_sampling` replaced: a
    /// per-bit `gen_bool` base draw, one call for the base block, then
    /// one call per probed input.
    fn one_call_per_probe<O: Oracle>(
        oracle: &mut O,
        output: usize,
        cube: &Cube,
        probe: &[usize],
        config: &SamplingConfig,
        rng: &mut StdRng,
    ) -> SampleStats {
        let n = oracle.num_inputs();
        let r = config.rounds.max(1);
        let mut base: Vec<Assignment> = Vec::with_capacity(r);
        for k in 0..r {
            let ratio = config
                .ratios
                .get(k % config.ratios.len().max(1))
                .copied()
                .unwrap_or(0.5);
            let mut a = if (ratio - 0.5).abs() < f64::EPSILON {
                Assignment::random(n, rng)
            } else {
                let mut a = Assignment::zeros(n);
                for i in 0..n {
                    if rng.gen_bool(ratio) {
                        a.set(Var::new(i as u32), true);
                    }
                }
                a
            };
            a.constrain(cube);
            base.push(a);
        }
        let base_out = oracle.query_batch(&base);
        let mut ones = base_out.iter().filter(|row| row[output]).count() as u64;
        let mut total = r as u64;
        let mut queries = r as u64;
        let mut dependency = vec![0u64; n];
        let mut flipped = base.clone();
        for &i in probe {
            let var = Var::new(i as u32);
            for f in &mut flipped {
                f.flip(var);
            }
            let flip_out = oracle.query_batch(&flipped);
            for f in &mut flipped {
                f.flip(var);
            }
            queries += r as u64;
            let mut d = 0u64;
            for (b, f) in base_out.iter().zip(&flip_out) {
                if b[output] != f[output] {
                    d += 1;
                }
                if f[output] {
                    ones += 1;
                }
                total += 1;
            }
            dependency[i] = d;
        }
        SampleStats {
            dependency,
            truth_ratio: ones as f64 / total as f64,
            queries,
        }
    }

    #[test]
    fn chunked_sampling_matches_one_call_per_probe() {
        let hidden = generate::eco_case(70, 2, 3);
        let n = hidden.num_inputs();
        let cube = Cube::from_literals([
            Literal::new(Var::new(2), false),
            Literal::new(Var::new(65), true),
        ])
        .expect("consistent");
        let every_third: Vec<usize> = (0..n).step_by(3).collect();
        let unfixed: Vec<usize> = (0..n).filter(|&i| i != 2 && i != 65).collect();
        // (cube, probe) per call, all sharing one block across calls.
        let calls: [(&Cube, &[usize]); 4] = [
            (&Cube::top(), &every_third),
            (&Cube::top(), &[]),
            (&cube, &unfixed),
            (&cube, &[7]),
        ];
        for r in [1usize, 48, 240, 1024, 1500] {
            let cfg = SamplingConfig {
                rounds: r,
                ratios: vec![0.5, 0.25, 0.75, 0.1, 0.9],
            };
            let mut new = Recording::new(hidden.clone());
            let mut old = Recording::new(hidden.clone());
            let mut new_rng = seeded_rng(r as u64);
            let mut old_rng = seeded_rng(r as u64);
            let mut block = Vec::new();
            for (k, &(c, probe)) in calls.iter().enumerate() {
                let new_calls = new.calls.len();
                let a = pattern_sampling(&mut new, 1, c, probe, &cfg, &mut new_rng, &mut block);
                let b = one_call_per_probe(&mut old, 1, c, probe, &cfg, &mut old_rng);
                let what = format!("r = {r}, call {k}");
                assert_eq!(a.dependency, b.dependency, "{what}");
                assert_eq!(a.truth_ratio.to_bits(), b.truth_ratio.to_bits(), "{what}");
                assert_eq!(a.queries, b.queries, "{what}");
                let per_call = (MAX_PATTERNS_PER_CALL / r).max(1);
                assert_eq!(
                    new.calls.len() - new_calls,
                    (probe.len() + 1).div_ceil(per_call),
                    "{what}"
                );
                assert!(new.calls.iter().all(|&c| c <= MAX_PATTERNS_PER_CALL.max(r)));
                assert_eq!(new.patterns, old.patterns, "{what}: pattern stream");
                assert_eq!(
                    new_rng.next_u64(),
                    old_rng.next_u64(),
                    "{what}: RNG position"
                );
            }
        }
    }
}
