//! Input compression via comparator delegates (paper §IV-B1,
//! Example 2 / Fig. 3).
//!
//! A comparator may be a *hidden* subcircuit: its output `O_s` is not a
//! primary output but feeds further logic. The paper detects it by
//! fixing the other inputs to a cube `c` that propagates `O_s` to some
//! observable output, then treats `O_s` as a **new primary input** and
//! discards the bus inputs `I_s` — *input compression* — before
//! running the decision-tree learner on the compressed input space.
//!
//! [`find_hidden_comparator`] performs the cube-probing detection;
//! [`DelegateOracle`] realizes the compressed black box: it forwards
//! queries to the original oracle, materializing each delegate bit by
//! writing *witness values* onto the underlying buses.

use cirlearn_logic::{Assignment, Var};
use cirlearn_oracle::{Oracle, OracleError};
use rand::rngs::StdRng;
use rand::Rng;

use crate::naming::VarGroup;
use crate::template::{Predicate, TemplateConfig};

/// A detected hidden comparator usable as a delegate input.
#[derive(Debug, Clone)]
pub struct Delegate {
    /// Left bus positions (MSB first).
    pub lhs_positions: Vec<usize>,
    /// Right bus positions, or `None` when comparing to a constant.
    pub rhs_positions: Option<Vec<usize>>,
    /// The constant, when `rhs_positions` is `None`.
    pub constant: u64,
    /// The matched predicate.
    pub predicate: Predicate,
    /// Bus values `(lhs, rhs)` forcing the predicate to 0.
    pub witness0: (u64, u64),
    /// Bus values `(lhs, rhs)` forcing the predicate to 1.
    pub witness1: (u64, u64),
}

impl Delegate {
    /// All original input positions this delegate absorbs.
    pub fn absorbed_positions(&self) -> Vec<usize> {
        let mut v = self.lhs_positions.clone();
        if let Some(r) = &self.rhs_positions {
            v.extend_from_slice(r);
        }
        v.sort_unstable();
        v
    }

    /// Writes bus values realizing `value` of the delegate bit into a
    /// full assignment.
    pub fn imprint(&self, a: &mut Assignment, value: bool) {
        let (lv, rv) = if value { self.witness1 } else { self.witness0 };
        write_positions(a, &self.lhs_positions, lv);
        if let Some(r) = &self.rhs_positions {
            write_positions(a, r, rv);
        }
    }
}

fn write_positions(a: &mut Assignment, msb_first: &[usize], value: u64) {
    let vars: Vec<Var> = msb_first.iter().map(|&p| Var::new(p as u32)).collect();
    a.write_vector(&vars, value);
}

fn mask_of(width: usize) -> u64 {
    if width >= 64 {
        !0
    } else {
        (1u64 << width) - 1
    }
}

/// Finds witness values for both polarities of `pred` over operand
/// domains of the given widths (rhs fixed to `constant` when
/// `rhs_width` is `None`). Returns `None` for predicates constant over
/// the domain (e.g. `< 0`).
fn find_witnesses(
    pred: Predicate,
    lhs_width: usize,
    rhs_width: Option<usize>,
    constant: u64,
) -> Option<((u64, u64), (u64, u64))> {
    let lmax = mask_of(lhs_width);
    let candidates_l = [
        0u64,
        1,
        constant,
        constant.wrapping_add(1),
        constant.wrapping_sub(1),
        lmax,
    ];
    let candidates_r: Vec<u64> = match rhs_width {
        Some(w) => vec![0, 1, mask_of(w)],
        None => vec![constant],
    };
    let mut w0 = None;
    let mut w1 = None;
    for &l in &candidates_l {
        if l > lmax {
            continue;
        }
        for &r in &candidates_r {
            let v = pred.eval(l, r);
            if v && w1.is_none() {
                w1 = Some((l, r));
            }
            if !v && w0.is_none() {
                w0 = Some((l, r));
            }
        }
    }
    Some((w0?, w1?))
}

/// Probes for a comparator hidden behind other logic: fixes the inputs
/// outside the candidate buses to random cubes and checks whether,
/// under some cube, the output behaves exactly as a predicate of the
/// bus values (in either polarity — downstream logic may invert).
///
/// Returns the delegate on success. The number of cubes tried and the
/// per-cube pair tests come from `config` (`rest_samples` ×
/// `pair_samples`).
pub fn find_hidden_comparator<O: Oracle + ?Sized>(
    oracle: &mut O,
    output: usize,
    groups: &[VarGroup],
    config: &TemplateConfig,
    rng: &mut StdRng,
) -> Option<Delegate> {
    let n = oracle.num_inputs();
    let cubes_to_try = config.rest_samples.max(2) * 2;
    for (li, lhs) in groups.iter().enumerate() {
        for (ri, rhs) in groups.iter().enumerate() {
            if li == ri {
                continue;
            }
            let lmask = mask_of(lhs.width());
            let rmask = mask_of(rhs.width());
            for _ in 0..cubes_to_try {
                // A full random assignment serves as the gating cube on
                // the non-bus inputs.
                let rest = Assignment::random(n, rng);
                let mut candidates: Vec<Predicate> = Predicate::ALL.to_vec();
                let mut saw_zero = false;
                let mut saw_one = false;
                let mut patterns = Vec::new();
                let mut values = Vec::new();
                for k in 0..config.pair_samples {
                    let x = rng.gen::<u64>() & lmask & rmask;
                    let (na, nb) = match k % 4 {
                        0 => (x, x),
                        1 => (x, x.wrapping_add(1) & rmask),
                        2 => (x.wrapping_add(1) & lmask, x),
                        _ => (rng.gen::<u64>() & lmask, rng.gen::<u64>() & rmask),
                    };
                    let mut a = rest.clone();
                    write_positions(&mut a, &lhs.positions, na);
                    write_positions(&mut a, &rhs.positions, nb);
                    patterns.push(a);
                    values.push((na, nb));
                }
                let outs = oracle.query_batch(&patterns);
                for (row, &(na, nb)) in outs.iter().zip(&values) {
                    let z = row[output];
                    saw_zero |= !z;
                    saw_one |= z;
                    candidates.retain(|p| p.eval(na, nb) == z);
                    if candidates.is_empty() {
                        break;
                    }
                }
                // Require genuine dependence on the buses under this
                // cube: both output values observed.
                if !(saw_zero && saw_one) || candidates.is_empty() {
                    continue;
                }
                let predicate = candidates[0];
                let (witness0, witness1) =
                    find_witnesses(predicate, lhs.width(), Some(rhs.width()), 0)?;
                return Some(Delegate {
                    lhs_positions: lhs.positions.clone(),
                    rhs_positions: Some(rhs.positions.clone()),
                    constant: 0,
                    predicate,
                    witness0,
                    witness1,
                });
            }
        }
    }
    None
}

/// A black box over a *compressed* input space: the inputs absorbed by
/// the delegates are replaced by one virtual input per delegate, placed
/// after the kept inputs.
///
/// Querying translates the virtual assignment into a real one by
/// copying kept bits and imprinting witness bus values per delegate —
/// valid under the paper's dominator assumption (every path from the
/// absorbed inputs to the outputs passes through the comparator
/// output).
#[derive(Debug)]
pub struct DelegateOracle<'a, O: Oracle + ?Sized> {
    inner: &'a mut O,
    delegates: Vec<Delegate>,
    /// Original positions of the kept (non-absorbed) inputs.
    kept: Vec<usize>,
    input_names: Vec<String>,
    output_names: Vec<String>,
}

impl<'a, O: Oracle + ?Sized> DelegateOracle<'a, O> {
    /// Wraps `inner`, absorbing the inputs of every delegate.
    pub fn new(inner: &'a mut O, delegates: Vec<Delegate>) -> Self {
        let n = inner.num_inputs();
        let mut absorbed = vec![false; n];
        for d in &delegates {
            for p in d.absorbed_positions() {
                absorbed[p] = true;
            }
        }
        let kept: Vec<usize> = (0..n).filter(|&p| !absorbed[p]).collect();
        let mut input_names: Vec<String> = kept
            .iter()
            .map(|&p| inner.input_names()[p].clone())
            .collect();
        for (k, d) in delegates.iter().enumerate() {
            input_names.push(format!("delegate_{k}_{}", d.predicate));
        }
        let output_names = inner.output_names().to_vec();
        DelegateOracle {
            inner,
            delegates,
            kept,
            input_names,
            output_names,
        }
    }

    /// The original positions of the kept inputs, in virtual order.
    pub fn kept_positions(&self) -> &[usize] {
        &self.kept
    }

    /// The delegates, in virtual-input order (after the kept inputs).
    pub fn delegates(&self) -> &[Delegate] {
        &self.delegates
    }

    fn translate(&self, virtual_input: &Assignment) -> Assignment {
        let mut real = Assignment::zeros(self.inner.num_inputs());
        for (v, &orig) in self.kept.iter().enumerate() {
            real.set(Var::new(orig as u32), virtual_input.get(Var::new(v as u32)));
        }
        for (k, d) in self.delegates.iter().enumerate() {
            let bit = virtual_input.get(Var::new((self.kept.len() + k) as u32));
            d.imprint(&mut real, bit);
        }
        real
    }
}

impl<O: Oracle + ?Sized> Oracle for DelegateOracle<'_, O> {
    fn num_inputs(&self) -> usize {
        self.kept.len() + self.delegates.len()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn input_names(&self) -> &[String] {
        &self.input_names
    }

    fn output_names(&self) -> &[String] {
        &self.output_names
    }

    fn try_query_batch(&mut self, inputs: &[Assignment]) -> Result<Vec<Vec<bool>>, OracleError> {
        let real: Vec<Assignment> = inputs.iter().map(|a| self.translate(a)).collect();
        self.inner.try_query_batch(&real)
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naming::group_names;
    use crate::sampling::seeded_rng;
    use cirlearn_aig::Aig;
    use cirlearn_oracle::CircuitOracle;

    /// Fig. 3-style circuit: a hidden comparator `v = (N_a < N_b)`
    /// whose output gates further logic: `z = v ? (c & d) : (c | e)`.
    fn gated_comparator() -> CircuitOracle {
        let mut g = Aig::new();
        let a: Vec<_> = (0..4)
            .map(|k| g.add_input(format!("a[{}]", 3 - k)))
            .collect();
        let b: Vec<_> = (0..4)
            .map(|k| g.add_input(format!("b[{}]", 3 - k)))
            .collect();
        let c = g.add_input("c");
        let d = g.add_input("d");
        let e = g.add_input("e");
        let v = g.cmp_ult(&a, &b);
        let t = g.and(c, d);
        let u = g.or(c, e);
        let z = g.mux(v, t, u);
        g.add_output(z, "z");
        CircuitOracle::new(g)
    }

    #[test]
    fn witnesses_exist_for_all_predicates() {
        for pred in Predicate::ALL {
            let (w0, w1) = find_witnesses(pred, 4, Some(4), 0).expect("witnesses exist");
            assert!(!pred.eval(w0.0, w0.1), "{pred} w0");
            assert!(pred.eval(w1.0, w1.1), "{pred} w1");
        }
    }

    #[test]
    fn detects_hidden_comparator() {
        let mut oracle = gated_comparator();
        let groups = group_names(oracle.input_names()).groups;
        let mut rng = seeded_rng(61);
        let d = find_hidden_comparator(
            &mut oracle,
            0,
            &groups,
            &TemplateConfig::default(),
            &mut rng,
        )
        .expect("hidden comparator must be found");
        // Lt between the buses (or an equivalent form under swap).
        assert_eq!(d.lhs_positions.len(), 4);
        assert!(d.rhs_positions.as_ref().map(Vec::len) == Some(4));
    }

    #[test]
    fn no_false_positive_on_parity() {
        // Output = parity of both buses: no comparator.
        let mut g = Aig::new();
        let a: Vec<_> = (0..4)
            .map(|k| g.add_input(format!("a[{}]", 3 - k)))
            .collect();
        let b: Vec<_> = (0..4)
            .map(|k| g.add_input(format!("b[{}]", 3 - k)))
            .collect();
        let mut z = a[0];
        for &e in a[1..].iter().chain(&b) {
            z = g.xor(z, e);
        }
        g.add_output(z, "z");
        let mut oracle = CircuitOracle::new(g);
        let groups = group_names(oracle.input_names()).groups;
        let mut rng = seeded_rng(62);
        assert!(find_hidden_comparator(
            &mut oracle,
            0,
            &groups,
            &TemplateConfig::default(),
            &mut rng
        )
        .is_none());
    }

    #[test]
    fn delegate_oracle_compresses_inputs() {
        let mut oracle = gated_comparator();
        let groups = group_names(oracle.input_names()).groups;
        let mut rng = seeded_rng(63);
        let d = find_hidden_comparator(
            &mut oracle,
            0,
            &groups,
            &TemplateConfig::default(),
            &mut rng,
        )
        .expect("found");
        let predicate = d.predicate;
        let lhs = d.lhs_positions.clone();
        let rhs = d.rhs_positions.clone().expect("pair");
        let mut compressed = DelegateOracle::new(&mut oracle, vec![d]);
        // 11 original inputs -> 3 kept + 1 delegate.
        assert_eq!(compressed.num_inputs(), 4);
        assert_eq!(compressed.kept_positions().len(), 3);
        assert!(compressed.input_names()[3].starts_with("delegate_0"));

        // Whatever polarity the detector picked, the delegate bit must
        // steer the hidden mux: flipping it changes the output exactly
        // when the two mux branches (c&d vs c|e) differ.
        let _ = (predicate, &lhs, &rhs);
        for m in 0..16u64 {
            let mut va = Assignment::zeros(4);
            for k in 0..4 {
                va.set(Var::new(k as u32), m >> k & 1 == 1);
            }
            let out = compressed.query(&va)[0];
            let (c, dd, e) = (m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1);
            let mut other = va.clone();
            other.flip(Var::new(3));
            let out_other = compressed.query(&other)[0];
            if (c && dd) != (c || e) {
                assert_ne!(out, out_other, "delegate bit must control the mux (m={m})");
            } else {
                assert_eq!(out, out_other, "m={m}");
            }
        }
    }

    #[test]
    fn fbdt_learns_over_compressed_inputs() {
        use crate::fbdt::learn_exhaustive;
        let mut oracle = gated_comparator();
        let groups = group_names(oracle.input_names()).groups;
        let mut rng = seeded_rng(64);
        let d = find_hidden_comparator(
            &mut oracle,
            0,
            &groups,
            &TemplateConfig::default(),
            &mut rng,
        )
        .expect("found");
        let mut compressed = DelegateOracle::new(&mut oracle, vec![d]);
        // 4 virtual inputs: exhaustive conquest applies directly.
        let support: Vec<usize> = (0..4).collect();
        let (cover, _) = learn_exhaustive(&mut compressed, 0, &support, &mut rng);
        // Check the learned cover against the compressed oracle.
        for m in 0..16u64 {
            let mut va = Assignment::zeros(4);
            for k in 0..4 {
                va.set(Var::new(k as u32), m >> k & 1 == 1);
            }
            let want = compressed.query(&va)[0];
            let got = cover.eval_with(|v| m >> v.index() & 1 == 1);
            assert_eq!(got, want, "m={m}");
        }
    }
}
