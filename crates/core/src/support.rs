//! Support identification (paper §IV-C).
//!
//! For each output, estimate the support `S' ⊆ S` by unconstrained
//! `PatternSampling`: an input with a nonzero dependency count provably
//! belongs to the support; inputs with zero count are *assumed*
//! independent (the black-box setting cannot prove independence).

use cirlearn_logic::Cube;
use cirlearn_oracle::Oracle;
use rand::rngs::StdRng;

use crate::sampling::{pattern_sampling, SampleStats, SamplingConfig};

/// The estimated support of one output.
#[derive(Debug, Clone)]
pub struct SupportInfo {
    /// Input positions with observed dependency, ascending.
    pub support: Vec<usize>,
    /// Dependency count per input position.
    pub dependency: Vec<u64>,
    /// Truth ratio observed during sampling.
    pub truth_ratio: f64,
    /// Oracle queries spent.
    pub queries: u64,
}

/// Identifies the approximate support `S'` of `output`.
///
/// This is the paper's §IV-C procedure: unconstrained sampling (empty
/// cube) over all inputs with mixed 0/1 ratios.
pub fn identify_support<O: Oracle + ?Sized>(
    oracle: &mut O,
    output: usize,
    config: &SamplingConfig,
    rng: &mut StdRng,
) -> SupportInfo {
    let probe: Vec<usize> = (0..oracle.num_inputs()).collect();
    let mut block = Vec::new();
    let stats: SampleStats = pattern_sampling(
        oracle,
        output,
        &Cube::top(),
        &probe,
        config,
        rng,
        &mut block,
    );
    SupportInfo {
        support: stats.support(),
        truth_ratio: stats.truth_ratio,
        queries: stats.queries,
        dependency: stats.dependency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::seeded_rng;
    use cirlearn_aig::Aig;
    use cirlearn_oracle::CircuitOracle;

    #[test]
    fn support_matches_structure() {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 10);
        let t = g.xor(inputs[2], inputs[7]);
        let y = g.or(t, inputs[9]);
        g.add_output(y, "y");
        let mut o = CircuitOracle::new(g);
        let mut rng = seeded_rng(11);
        let info = identify_support(&mut o, 0, &SamplingConfig::fast(), &mut rng);
        assert_eq!(info.support, vec![2, 7, 9]);
        assert!(info.dependency[2] > 0 && info.dependency[9] > 0);
    }

    #[test]
    fn constant_output_has_empty_support() {
        let mut g = Aig::new();
        let _ = g.add_inputs("x", 6);
        g.add_output(cirlearn_aig::Edge::TRUE, "one");
        let mut o = CircuitOracle::new(g);
        let mut rng = seeded_rng(12);
        let info = identify_support(&mut o, 0, &SamplingConfig::fast(), &mut rng);
        assert!(info.support.is_empty());
        assert!((info.truth_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multi_output_supports_are_independent() {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 6);
        let y0 = g.and(inputs[0], inputs[1]);
        let y1 = g.or(inputs[4], inputs[5]);
        g.add_output(y0, "y0");
        g.add_output(y1, "y1");
        let mut o = CircuitOracle::new(g);
        let mut rng = seeded_rng(13);
        let i0 = identify_support(&mut o, 0, &SamplingConfig::fast(), &mut rng);
        let i1 = identify_support(&mut o, 1, &SamplingConfig::fast(), &mut rng);
        assert_eq!(i0.support, vec![0, 1]);
        assert_eq!(i1.support, vec![4, 5]);
    }
}
