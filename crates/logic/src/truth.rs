//! Word-packed truth tables.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

use crate::{Cube, Error, Result, Sop, Var};

/// Bit masks selecting the positions where variable `i < 6` is 1.
pub(crate) const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A truth table of a completely specified Boolean function over
/// `num_vars ≤ MAX_VARS` variables, packed 64 minterms per word.
///
/// Minterm `m` (variable `x_k` contributing bit `k`, LSB first) is stored
/// in bit `m % 64` of word `m / 64`.
///
/// Truth tables are used wherever a function is small enough to
/// manipulate exactly: the learner's exhaustive "conquer small functions"
/// path (|S'| ≤ 18 in the paper), NPN canonization in the rewriting
/// engine, and as ground truth in tests.
///
/// # Examples
///
/// ```
/// use cirlearn_logic::{TruthTable, Var};
///
/// let a = TruthTable::var(2, Var::new(0)).expect("in range");
/// let b = TruthTable::var(2, Var::new(1)).expect("in range");
/// let xor = a.clone() ^ b.clone();
/// assert_eq!(xor.count_ones(), 2);
/// assert!(xor.depends_on(Var::new(0)));
/// let sop = xor.isop();
/// assert_eq!(sop.cubes().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    num_vars: usize,
    words: Vec<u64>,
}

impl TruthTable {
    /// The maximum supported number of variables.
    ///
    /// A table at this limit occupies 2 MiB; the library never allocates
    /// a truth table without an explicit caller request.
    pub const MAX_VARS: usize = 24;

    fn word_count(num_vars: usize) -> usize {
        if num_vars >= 6 {
            1 << (num_vars - 6)
        } else {
            1
        }
    }

    fn check_vars(num_vars: usize) -> Result<()> {
        if num_vars > Self::MAX_VARS {
            Err(Error::TooManyVars {
                requested: num_vars,
                max: Self::MAX_VARS,
            })
        } else {
            Ok(())
        }
    }

    /// Mask of the valid minterm bits in the (single) word of a table
    /// with fewer than 6 variables.
    pub(crate) fn tail_mask(num_vars: usize) -> u64 {
        if num_vars >= 6 {
            !0
        } else {
            (1u64 << (1 << num_vars)) - 1
        }
    }

    /// Creates the constant-0 function over `num_vars` variables.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyVars`] if `num_vars > MAX_VARS`.
    pub fn zeros(num_vars: usize) -> Result<Self> {
        Self::check_vars(num_vars)?;
        Ok(TruthTable {
            num_vars,
            words: vec![0; Self::word_count(num_vars)],
        })
    }

    /// Creates the constant-1 function over `num_vars` variables.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyVars`] if `num_vars > MAX_VARS`.
    pub fn ones(num_vars: usize) -> Result<Self> {
        Self::check_vars(num_vars)?;
        Ok(TruthTable {
            num_vars,
            words: vec![Self::tail_mask(num_vars); Self::word_count(num_vars)],
        })
    }

    /// Creates the projection function of variable `var`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyVars`] or [`Error::VarOutOfRange`].
    pub fn var(num_vars: usize, var: Var) -> Result<Self> {
        Self::check_vars(num_vars)?;
        let i = var.index() as usize;
        if i >= num_vars {
            return Err(Error::VarOutOfRange {
                var: var.index(),
                num_vars,
            });
        }
        let words = if i < 6 {
            // panic-ok: `i < 6` on this branch and VAR_MASKS has 6
            // entries.
            vec![VAR_MASKS[i] & Self::tail_mask(num_vars); Self::word_count(num_vars)]
        } else {
            let stride = 1usize << (i - 6);
            (0..Self::word_count(num_vars))
                .map(|w| if w / stride % 2 == 1 { !0u64 } else { 0 })
                .collect()
        };
        Ok(TruthTable { num_vars, words })
    }

    /// Wraps one word holding the whole table of a function over
    /// `num_vars ≤ 6` variables.
    pub(crate) fn from_word(num_vars: usize, word: u64) -> Self {
        debug_assert!(num_vars <= 6 && word & !Self::tail_mask(num_vars) == 0);
        TruthTable {
            num_vars,
            words: vec![word],
        }
    }

    /// Builds a table by evaluating `f` on every minterm.
    ///
    /// Bit `k` of the minterm passed to `f` is the value of variable
    /// `x_k`.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > MAX_VARS`; use [`TruthTable::zeros`] and
    /// explicit sets for a fallible path.
    pub fn from_fn<F: FnMut(u64) -> bool>(num_vars: usize, mut f: F) -> Self {
        let mut tt = TruthTable::zeros(num_vars).unwrap_or_else(|e| panic!("from_fn: {e}"));
        for m in 0..1u64 << num_vars {
            if f(m) {
                tt.set(m, true);
            }
        }
        tt
    }

    /// Builds the table of an [`Sop`] over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if the SOP mentions a variable `≥ num_vars` or if
    /// `num_vars > MAX_VARS`.
    pub fn from_sop(num_vars: usize, sop: &Sop) -> Self {
        TruthTable::from_fn(num_vars, |m| sop.eval_with(|v| m >> v.index() & 1 == 1))
    }

    /// Returns the number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Returns the raw words, 64 minterms per word, LSB-first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns the value of the function at minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m ≥ 2^num_vars`.
    pub fn get(&self, m: u64) -> bool {
        // panic-ok: documented `# Panics` contract guard.
        assert!(m < 1u64 << self.num_vars, "minterm {m} out of range");
        // panic-ok: `m < 2^num_vars` implies `m / 64 < words.len()`.
        self.words[(m / 64) as usize] >> (m % 64) & 1 == 1
    }

    /// Sets the value of the function at minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m ≥ 2^num_vars`.
    pub fn set(&mut self, m: u64, value: bool) {
        // panic-ok: documented `# Panics` contract guard.
        assert!(m < 1u64 << self.num_vars, "minterm {m} out of range");
        let mask = 1u64 << (m % 64);
        if value {
            // panic-ok: `m < 2^num_vars` implies `m / 64 < words.len()`.
            self.words[(m / 64) as usize] |= mask;
        } else {
            // panic-ok: `m < 2^num_vars` implies `m / 64 < words.len()`.
            self.words[(m / 64) as usize] &= !mask;
        }
    }

    /// Returns the number of onset minterms.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Returns `true` if the function is constant 0.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` if the function is constant 1.
    pub fn is_one(&self) -> bool {
        let tail = Self::tail_mask(self.num_vars);
        self.words.iter().all(|&w| w == tail)
    }

    /// Returns the cofactor of the function on `var` in the given phase,
    /// as a function over the same variable set (independent of `var`).
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    #[must_use]
    pub fn cofactor(&self, var: Var, phase: bool) -> Self {
        let i = var.index() as usize;
        assert!(i < self.num_vars, "variable {var} out of range");
        let mut out = self.clone();
        if i < 6 {
            let mask = VAR_MASKS[i];
            let shift = 1u32 << i;
            for w in &mut out.words {
                if phase {
                    let hi = *w & mask;
                    *w = hi | hi >> shift;
                } else {
                    let lo = *w & !mask;
                    *w = lo | lo << shift;
                }
            }
        } else {
            let stride = 1usize << (i - 6);
            for base in (0..out.words.len()).step_by(2 * stride) {
                for k in 0..stride {
                    let value = if phase {
                        out.words[base + stride + k]
                    } else {
                        out.words[base + k]
                    };
                    out.words[base + k] = value;
                    out.words[base + stride + k] = value;
                }
            }
        }
        out
    }

    /// Returns the cofactor of the function on every literal of `cube`.
    #[must_use]
    pub fn cofactor_cube(&self, cube: &Cube) -> Self {
        let mut tt = self.clone();
        for lit in cube.literals() {
            tt = tt.cofactor(lit.var(), lit.polarity());
        }
        tt
    }

    /// Returns `true` if the function depends on `var`
    /// (its two cofactors differ).
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn depends_on(&self, var: Var) -> bool {
        self.cofactor(var, false) != self.cofactor(var, true)
    }

    /// Returns the exact functional support, sorted by variable index.
    pub fn support(&self) -> Vec<Var> {
        (0..self.num_vars as u32)
            .map(Var::new)
            .filter(|&v| self.depends_on(v))
            .collect()
    }

    /// Computes an irredundant sum-of-products cover using the
    /// Minato–Morreale ISOP procedure ([`isop::cover`](crate::isop::cover)
    /// on this table's words).
    ///
    /// The returned SOP covers exactly this function; each cube is prime
    /// relative to the cover and no cube can be dropped.
    pub fn isop(&self) -> Sop {
        let mut word = [0];
        let table = if self.num_vars < 6 {
            // Repeat the valid minterms across the whole word.
            word[0] = (self.num_vars..6).fold(self.words[0], |w, v| w | w << (1 << v));
            &word[..]
        } else {
            &self.words[..]
        };
        crate::isop::cover(table, self.num_vars, usize::MAX, |v| Var::new(v as u32))
            .expect("no cube bound")
    }

    /// Evaluates the function under per-variable values.
    pub fn eval_with<F: FnMut(Var) -> bool>(&self, mut value_of: F) -> bool {
        let mut m = 0u64;
        for k in 0..self.num_vars {
            if value_of(Var::new(k as u32)) {
                m |= 1 << k;
            }
        }
        self.get(m)
    }

    fn assert_same_arity(&self, other: &Self) {
        assert_eq!(
            self.num_vars, other.num_vars,
            "truth tables have different variable counts"
        );
    }
}

impl Not for TruthTable {
    type Output = TruthTable;

    fn not(mut self) -> TruthTable {
        let tail = TruthTable::tail_mask(self.num_vars);
        for w in &mut self.words {
            *w = !*w & tail;
        }
        self
    }
}

macro_rules! impl_bitop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for TruthTable {
            type Output = TruthTable;

            /// # Panics
            ///
            /// Panics if the operands have different variable counts.
            // The `^` instantiation would be `*a ^= b`, but the macro
            // has to spell the operator out.
            #[allow(clippy::assign_op_pattern)]
            fn $method(mut self, rhs: TruthTable) -> TruthTable {
                self.assert_same_arity(&rhs);
                for (a, b) in self.words.iter_mut().zip(rhs.words) {
                    *a = *a $op b;
                }
                self
            }
        }
    };
}

impl_bitop!(BitAnd, bitand, &);
impl_bitop!(BitOr, bitor, |);
impl_bitop!(BitXor, bitxor, ^);

impl fmt::Display for TruthTable {
    /// Formats as hexadecimal words, most significant word first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, w) in self.words.iter().rev().enumerate() {
            if i > 0 {
                f.write_str("_")?;
            }
            if self.num_vars >= 6 {
                write!(f, "{w:016x}")?;
            } else {
                let digits = (1usize << self.num_vars).div_ceil(4).max(1);
                write!(f, "{w:0digits$x}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    #[test]
    fn constants() {
        for n in [0usize, 1, 3, 6, 8] {
            let z = TruthTable::zeros(n).expect("small");
            let o = TruthTable::ones(n).expect("small");
            assert!(z.is_zero() && !z.is_one());
            assert!(o.is_one());
            assert_eq!(z.count_ones(), 0);
            assert_eq!(o.count_ones(), 1u64 << n);
        }
    }

    #[test]
    fn too_many_vars_is_an_error() {
        assert!(matches!(
            TruthTable::zeros(25),
            Err(Error::TooManyVars {
                requested: 25,
                max: 24
            })
        ));
    }

    #[test]
    fn var_projection_small_and_large_index() {
        for n in [3usize, 7, 9] {
            for i in 0..n {
                let t = TruthTable::var(n, v(i as u32)).expect("in range");
                assert_eq!(t.count_ones(), 1u64 << (n - 1));
                for m in 0..1u64 << n {
                    assert_eq!(t.get(m), m >> i & 1 == 1, "n={n} i={i} m={m}");
                }
            }
        }
    }

    #[test]
    fn var_out_of_range() {
        assert!(matches!(
            TruthTable::var(3, v(3)),
            Err(Error::VarOutOfRange {
                var: 3,
                num_vars: 3
            })
        ));
    }

    #[test]
    fn boolean_ops_match_bitwise_semantics() {
        let a = TruthTable::var(7, v(0)).expect("ok");
        let b = TruthTable::var(7, v(6)).expect("ok");
        let and = a.clone() & b.clone();
        let or = a.clone() | b.clone();
        let xor = a.clone() ^ b.clone();
        for m in 0..128u64 {
            let (av, bv) = (m & 1 == 1, m >> 6 & 1 == 1);
            assert_eq!(and.get(m), av && bv);
            assert_eq!(or.get(m), av || bv);
            assert_eq!(xor.get(m), av != bv);
        }
        let not_a = !a;
        for m in 0..128u64 {
            assert_eq!(not_a.get(m), m & 1 == 0);
        }
    }

    #[test]
    fn not_respects_tail_mask() {
        let z = TruthTable::zeros(3).expect("ok");
        let o = !z;
        assert!(o.is_one());
        assert_eq!(o.count_ones(), 8);
    }

    #[test]
    fn cofactor_small_var() {
        // f = x0 & x1 over 3 vars
        let f = TruthTable::var(3, v(0)).expect("ok") & TruthTable::var(3, v(1)).expect("ok");
        let f1 = f.cofactor(v(0), true); // = x1
        let f0 = f.cofactor(v(0), false); // = 0
        assert_eq!(f1, TruthTable::var(3, v(1)).expect("ok"));
        assert!(f0.is_zero());
        assert!(!f1.depends_on(v(0)));
    }

    #[test]
    fn cofactor_large_var() {
        // 8 vars, f = x7 xor x2
        let f = TruthTable::var(8, v(7)).expect("ok") ^ TruthTable::var(8, v(2)).expect("ok");
        let f1 = f.cofactor(v(7), true); // = !x2
        let f0 = f.cofactor(v(7), false); // = x2
        assert_eq!(f0, TruthTable::var(8, v(2)).expect("ok"));
        assert_eq!(f1, !TruthTable::var(8, v(2)).expect("ok"));
    }

    #[test]
    fn shannon_expansion_reconstructs() {
        let f = TruthTable::from_fn(8, |m| m.wrapping_mul(0x9e37_79b9) >> 13 & 1 == 1);
        for i in 0..8u32 {
            let x = TruthTable::var(8, v(i)).expect("ok");
            let re = x.clone() & f.cofactor(v(i), true) | !x & f.cofactor(v(i), false);
            assert_eq!(re, f, "var {i}");
        }
    }

    #[test]
    fn support_exact() {
        // f = x1 | (x3 & !x3) = x1: support {x1} even though x3 appears
        let x1 = TruthTable::var(5, v(1)).expect("ok");
        let x3 = TruthTable::var(5, v(3)).expect("ok");
        let f = x1.clone() | (x3.clone() & !x3);
        assert_eq!(f.support(), vec![v(1)]);
    }

    #[test]
    fn cofactor_cube_fixes_all_literals() {
        let f = TruthTable::from_fn(4, |m| m.count_ones() % 2 == 1); // parity
        let cube = Cube::from_literals([v(0).positive(), v(3).negative()]).expect("ok");
        let g = f.cofactor_cube(&cube);
        // parity with x0=1, x3=0 = !(x1 xor x2)
        for m in 0..16u64 {
            let expect = 1 + (m >> 1 & 1) + (m >> 2 & 1);
            assert_eq!(g.get(m), expect % 2 == 1);
        }
    }

    #[test]
    fn from_fn_and_get_agree() {
        let f = TruthTable::from_fn(10, |m| m % 3 == 0);
        for m in 0..1024u64 {
            assert_eq!(f.get(m), m % 3 == 0);
        }
    }

    #[test]
    fn isop_majority() {
        let maj = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let sop = maj.isop();
        assert_eq!(TruthTable::from_sop(3, &sop), maj);
        assert_eq!(sop.cubes().len(), 3);
        assert!(sop.cubes().iter().all(|c| c.len() == 2));
    }

    #[test]
    fn isop_parity_needs_all_minterms() {
        let parity = TruthTable::from_fn(4, |m| m.count_ones() % 2 == 1);
        let sop = parity.isop();
        assert_eq!(TruthTable::from_sop(4, &sop), parity);
        assert_eq!(sop.cubes().len(), 8); // parity has no mergeable cubes
        assert!(sop.cubes().iter().all(|c| c.len() == 4));
    }

    #[test]
    fn isop_constants() {
        assert!(TruthTable::zeros(4).expect("ok").isop().is_zero());
        assert!(TruthTable::ones(4).expect("ok").isop().is_one());
    }

    #[test]
    fn isop_random_functions_roundtrip() {
        let mut state = 0x1234_5678_u64;
        for trial in 0..20 {
            let f = TruthTable::from_fn(6, |m| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(m + trial);
                state >> 40 & 1 == 1
            });
            assert_eq!(TruthTable::from_sop(6, &f.isop()), f, "trial {trial}");
        }
    }

    #[test]
    fn isop_is_irredundant_on_samples() {
        let f = TruthTable::from_fn(5, |m| (m * 7 + 3) % 5 < 2);
        let sop = f.isop();
        // Dropping any single cube must lose coverage.
        for skip in 0..sop.cubes().len() {
            let reduced: Sop = sop
                .cubes()
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, c)| c.clone())
                .collect();
            assert_ne!(
                TruthTable::from_sop(5, &reduced),
                f,
                "cube {skip} redundant"
            );
        }
    }

    #[test]
    fn display_hex() {
        let x0 = TruthTable::var(3, v(0)).expect("ok");
        assert_eq!(x0.to_string(), "aa");
        let x6 = TruthTable::var(7, v(6)).expect("ok");
        assert_eq!(x6.to_string(), "ffffffffffffffff_0000000000000000");
    }

    #[test]
    fn eval_with_matches_get() {
        let f = TruthTable::from_fn(5, |m| m % 7 == 1);
        for m in 0..32u64 {
            assert_eq!(f.eval_with(|v| m >> v.index() & 1 == 1), f.get(m));
        }
    }
}
