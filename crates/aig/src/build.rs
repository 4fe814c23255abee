//! Word-level circuit constructors.
//!
//! A *word* is a slice of edges in MSB-first order, matching the paper's
//! `N_v̄` convention (the first variable of a named bus is its most
//! significant bit). These builders are used by the synthetic benchmark
//! generators (DATA and DIAG circuit families) and by the learner when
//! it instantiates a matched comparator or linear-arithmetic template.
//!
//! All arithmetic is unsigned modulo `2^width` unless stated otherwise;
//! negative scale constants are handled in two's complement, which
//! coincides with the modular semantics.

use crate::{Aig, Edge};

impl Aig {
    /// Builds the constant word `value` over `width` bits, MSB first.
    pub fn const_word(&mut self, value: u64, width: usize) -> Vec<Edge> {
        (0..width)
            .rev()
            .map(|k| {
                if value >> k & 1 == 1 {
                    Edge::TRUE
                } else {
                    Edge::FALSE
                }
            })
            .collect()
    }

    /// Adds two words modulo `2^width` where `width` is the wider of the
    /// two; the narrower word is zero-extended. Returns an MSB-first word.
    pub fn add_word(&mut self, a: &[Edge], b: &[Edge]) -> Vec<Edge> {
        let width = a.len().max(b.len());
        let mut sum_lsb = Vec::with_capacity(width);
        let mut carry = Edge::FALSE;
        for k in 0..width {
            let x = bit_lsb(a, k);
            let y = bit_lsb(b, k);
            let xy = self.xor(x, y);
            let s = self.xor(xy, carry);
            // carry' = x&y | carry&(x^y)
            let g = self.and(x, y);
            let p = self.and(carry, xy);
            carry = self.or(g, p);
            sum_lsb.push(s);
        }
        sum_lsb.reverse();
        sum_lsb
    }

    /// Returns the two's-complement negation of a word.
    pub fn neg_word(&mut self, a: &[Edge]) -> Vec<Edge> {
        let inverted: Vec<Edge> = a.iter().map(|&e| !e).collect();
        let one = self.const_word(1, a.len());
        self.add_word(&inverted, &one)
    }

    /// Multiplies a word by a signed constant, producing a word of
    /// `width` bits (two's-complement wraparound).
    pub fn mul_const_word(&mut self, a: &[Edge], k: i64, width: usize) -> Vec<Edge> {
        let a = zero_extend(a, width);
        let mut acc = self.const_word(0, width);
        let mag = k.unsigned_abs();
        for bit in 0..64 {
            if mag >> bit & 1 == 1 {
                let shifted = shift_left(&a, bit as usize);
                acc = self.add_word(&acc, &shifted);
            }
        }
        if k < 0 {
            acc = self.neg_word(&acc);
        }
        acc
    }

    /// Builds the linear-arithmetic template
    /// `Σ scaleᵢ · wordᵢ + offset` over `width` bits — the paper's
    /// `N_z̄ = Σ aᵢ N_v̄ᵢ + b`.
    pub fn scale_sum(
        &mut self,
        terms: &[(i64, Vec<Edge>)],
        offset: i64,
        width: usize,
    ) -> Vec<Edge> {
        let mut acc = self.const_word(offset as u64 & mask(width), width);
        for (scale, word) in terms {
            let t = self.mul_const_word(word, *scale, width);
            acc = self.add_word(&acc, &t);
        }
        acc
    }

    /// Returns the single-bit `a == b` (words zero-extended to equal width).
    pub fn cmp_eq(&mut self, a: &[Edge], b: &[Edge]) -> Edge {
        let width = a.len().max(b.len());
        let bits: Vec<Edge> = (0..width)
            .map(|k| {
                let x = bit_lsb(a, k);
                let y = bit_lsb(b, k);
                self.xnor(x, y)
            })
            .collect();
        self.and_many(&bits)
    }

    /// Returns the single-bit `a != b`.
    pub fn cmp_ne(&mut self, a: &[Edge], b: &[Edge]) -> Edge {
        !self.cmp_eq(a, b)
    }

    /// Returns the single-bit unsigned `a < b`.
    pub fn cmp_ult(&mut self, a: &[Edge], b: &[Edge]) -> Edge {
        let width = a.len().max(b.len());
        // Accumulate from the LSB up: lt = (!x & y) | (x == y) & lt_lower
        let mut lt = Edge::FALSE;
        for k in 0..width {
            let x = bit_lsb(a, k);
            let y = bit_lsb(b, k);
            let here = self.and(!x, y);
            let eq = self.xnor(x, y);
            let chain = self.and(eq, lt);
            lt = self.or(here, chain);
        }
        lt
    }

    /// Returns the single-bit unsigned `a ≤ b`.
    pub fn cmp_ule(&mut self, a: &[Edge], b: &[Edge]) -> Edge {
        !self.cmp_ult(b, a)
    }

    /// Returns the single-bit unsigned `a > b`.
    pub fn cmp_ugt(&mut self, a: &[Edge], b: &[Edge]) -> Edge {
        self.cmp_ult(b, a)
    }

    /// Returns the single-bit unsigned `a ≥ b`.
    pub fn cmp_uge(&mut self, a: &[Edge], b: &[Edge]) -> Edge {
        !self.cmp_ult(a, b)
    }
}

/// Returns bit `k` (LSB-indexed) of an MSB-first word, `FALSE` beyond
/// the word's width.
fn bit_lsb(word: &[Edge], k: usize) -> Edge {
    if k < word.len() {
        word[word.len() - 1 - k]
    } else {
        Edge::FALSE
    }
}

fn zero_extend(word: &[Edge], width: usize) -> Vec<Edge> {
    let mut out = vec![Edge::FALSE; width.saturating_sub(word.len())];
    let keep = word.len().min(width);
    out.extend_from_slice(&word[word.len() - keep..]);
    out
}

fn shift_left(word: &[Edge], by: usize) -> Vec<Edge> {
    // MSB-first: shifting left drops high bits and appends zeros.
    let width = word.len();
    if by >= width {
        return vec![Edge::FALSE; width];
    }
    let mut out = word[by..].to_vec();
    out.extend(std::iter::repeat_n(Edge::FALSE, by));
    out
}

fn mask(width: usize) -> u64 {
    if width >= 64 {
        !0
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds an AIG with two input words of the given widths and runs
    /// `check` on every input combination.
    fn exhaustive2(
        wa: usize,
        wb: usize,
        build: impl Fn(&mut Aig, &[Edge], &[Edge]) -> Vec<Edge>,
        expect: impl Fn(u64, u64) -> u64,
        out_width: usize,
    ) {
        let mut g = Aig::new();
        let a = g.add_inputs("a", wa);
        let b = g.add_inputs("b", wb);
        let out = build(&mut g, &a, &b);
        assert_eq!(out.len(), out_width);
        for (i, e) in out.iter().enumerate() {
            g.add_output(*e, format!("z{i}"));
        }
        for va in 0..1u64 << wa {
            for vb in 0..1u64 << wb {
                let mut bits = Vec::new();
                // inputs are MSB-first in creation order
                for k in (0..wa).rev() {
                    bits.push(va >> k & 1 == 1);
                }
                for k in (0..wb).rev() {
                    bits.push(vb >> k & 1 == 1);
                }
                let got: u64 = g
                    .eval_bits(&bits)
                    .iter()
                    .fold(0, |acc, &bit| acc << 1 | bit as u64);
                assert_eq!(got, expect(va, vb) & mask(out_width), "a={va} b={vb}");
            }
        }
    }

    #[test]
    fn const_word_bits() {
        let mut g = Aig::new();
        let w = g.const_word(0b1010, 4);
        assert_eq!(w, vec![Edge::TRUE, Edge::FALSE, Edge::TRUE, Edge::FALSE]);
        // Truncation beyond width keeps the low bits.
        let w = g.const_word(0b111_0001, 4);
        assert_eq!(w[3], Edge::TRUE);
        assert_eq!(w[0], Edge::FALSE);
    }

    #[test]
    fn adder_exhaustive() {
        exhaustive2(4, 4, |g, a, b| g.add_word(a, b), |x, y| x + y, 4);
    }

    #[test]
    fn adder_mixed_width() {
        exhaustive2(5, 3, |g, a, b| g.add_word(a, b), |x, y| x + y, 5);
    }

    #[test]
    fn negation() {
        let mut g = Aig::new();
        let a = g.add_inputs("a", 4);
        let n = g.neg_word(&a);
        for (i, e) in n.iter().enumerate() {
            g.add_output(*e, format!("z{i}"));
        }
        for va in 0..16u64 {
            let bits: Vec<bool> = (0..4).rev().map(|k| va >> k & 1 == 1).collect();
            let got: u64 = g
                .eval_bits(&bits)
                .iter()
                .fold(0, |acc, &b| acc << 1 | b as u64);
            assert_eq!(got, va.wrapping_neg() & 0xf);
        }
    }

    #[test]
    fn mul_const_positive_negative() {
        for k in [-5i64, -1, 0, 1, 3, 7] {
            let mut g = Aig::new();
            let a = g.add_inputs("a", 4);
            let m = g.mul_const_word(&a, k, 6);
            for (i, e) in m.iter().enumerate() {
                g.add_output(*e, format!("z{i}"));
            }
            for va in 0..16u64 {
                let bits: Vec<bool> = (0..4).rev().map(|j| va >> j & 1 == 1).collect();
                let got: u64 = g
                    .eval_bits(&bits)
                    .iter()
                    .fold(0, |acc, &b| acc << 1 | b as u64);
                let expect = (va as i64 * k) as u64 & 0x3f;
                assert_eq!(got, expect, "k={k} a={va}");
            }
        }
    }

    #[test]
    fn scale_sum_matches_arithmetic() {
        let mut g = Aig::new();
        let a = g.add_inputs("a", 3);
        let b = g.add_inputs("b", 3);
        let z = g.scale_sum(&[(3, a.clone()), (-2, b.clone())], 5, 8);
        for (i, e) in z.iter().enumerate() {
            g.add_output(*e, format!("z{i}"));
        }
        for va in 0..8i64 {
            for vb in 0..8i64 {
                let mut bits = Vec::new();
                for k in (0..3).rev() {
                    bits.push(va >> k & 1 == 1);
                }
                for k in (0..3).rev() {
                    bits.push(vb >> k & 1 == 1);
                }
                let got: u64 = g
                    .eval_bits(&bits)
                    .iter()
                    .fold(0, |acc, &b| acc << 1 | b as u64);
                let expect = (3 * va - 2 * vb + 5) as u64 & 0xff;
                assert_eq!(got, expect, "a={va} b={vb}");
            }
        }
    }

    #[test]
    fn comparators_exhaustive() {
        type CmpFn = fn(&mut Aig, &[Edge], &[Edge]) -> Edge;
        type CmpCase = (CmpFn, fn(u64, u64) -> bool);
        let cases: Vec<CmpCase> = vec![
            (Aig::cmp_eq, |x, y| x == y),
            (Aig::cmp_ne, |x, y| x != y),
            (Aig::cmp_ult, |x, y| x < y),
            (Aig::cmp_ule, |x, y| x <= y),
            (Aig::cmp_ugt, |x, y| x > y),
            (Aig::cmp_uge, |x, y| x >= y),
        ];
        for (build, model) in cases {
            exhaustive2(
                3,
                4,
                |g, a, b| vec![build(g, a, b)],
                move |x, y| model(x, y) as u64,
                1,
            );
        }
    }

    #[test]
    fn cmp_against_constant() {
        let mut g = Aig::new();
        let a = g.add_inputs("a", 4);
        let c = g.const_word(9, 4);
        let ge = g.cmp_uge(&a, &c);
        g.add_output(ge, "ge9");
        for va in 0..16u64 {
            let bits: Vec<bool> = (0..4).rev().map(|k| va >> k & 1 == 1).collect();
            assert_eq!(g.eval_bits(&bits), vec![va >= 9], "a={va}");
        }
    }
}
