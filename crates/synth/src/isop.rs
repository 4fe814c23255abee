//! Bounded irredundant covers of cut functions given as word truth
//! tables, equal to the covers of [`Bdd::isop_bounded`].
//!
//! The Minato–Morreale recursion splits a function on one variable,
//! covers the part that needs `!x`, the part that needs `x` and the rest
//! without `x`, and joins the three covers in that order. Which variable
//! it splits on decides the cover. The BDD splits on the *lowest* leaf
//! index either bound depends on, while halving a truth table splits on
//! its *highest* variable. So leaf `k` of an `n`-leaf cut is loaded as
//! table variable `n - 1 - k` ([`leaf_table`]); splitting the table top
//! down then visits the leaves in the BDD's order, and [`cover`] returns
//! the BDD's cover cube for cube.
//!
//! Cubes stay `(pos, neg)` bit masks over table variables during the
//! recursion and become [`Cube`]s once at the end. The cube budget is
//! counted as the BDD counts it, one per constant-one leaf of the
//! recursion, so the cover is `None` exactly when the BDD's is.
//!
//! [`Bdd::isop_bounded`]: cirlearn_bdd::Bdd::isop_bounded

use std::ops::Range;

use cirlearn_logic::{Cube, Sop, Var};

use crate::cone::{WordTable, TABLE_WORDS};

/// Most leaves a [`WordTable`] holds.
pub(crate) const MAX_LEAVES: usize = 10;

/// Minterms where variable `v` is 1, for the six variables inside one
/// word.
const WORD_VARS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The table of leaf `k` of a `num_leaves`-leaf cut: table variable
/// `num_leaves - 1 - k`.
pub(crate) fn leaf_table(k: usize, num_leaves: usize) -> WordTable {
    debug_assert!(k < num_leaves && num_leaves <= MAX_LEAVES);
    let v = num_leaves - 1 - k;
    std::array::from_fn(|i| {
        if v < 6 {
            WORD_VARS[v]
        } else if i >> (v - 6) & 1 == 1 {
            !0
        } else {
            0
        }
    })
}

/// A product term as bit masks over table variables.
#[derive(Debug, Clone, Copy)]
struct MaskCube {
    pos: u16,
    neg: u16,
}

/// The irredundant cover of `f` over a `num_leaves`-leaf cut loaded by
/// [`leaf_table`], with leaf `k` as variable `x_k`: the cover
/// `Bdd::isop_bounded` returns for the same function, cube for cube, and
/// `None` when it has more than `max_cubes` cubes.
pub(crate) fn cover(f: &WordTable, num_leaves: usize, max_cubes: usize) -> Option<Sop> {
    debug_assert!(num_leaves <= MAX_LEAVES);
    let mut isop = Isop {
        cubes: Vec::new(),
        max_cubes,
    };
    let words = 1 << num_leaves.saturating_sub(6);
    let mut covered = [0; TABLE_WORDS];
    isop.cover_words(&f[..words], &f[..words], &mut covered[..words])?;
    let var = |v: usize| Var::new((num_leaves - 1 - v) as u32);
    Some(Sop::from_cubes(isop.cubes.iter().map(|c| {
        let literals = (0..num_leaves).filter_map(|v| {
            if c.pos >> v & 1 == 1 {
                Some(var(v).positive())
            } else if c.neg >> v & 1 == 1 {
                Some(var(v).negative())
            } else {
                None
            }
        });
        Cube::from_literals(literals).expect("one literal per variable")
    })))
}

/// The recursion's state: the cubes found so far and the budget.
struct Isop {
    cubes: Vec<MaskCube>,
    max_cubes: usize,
}

impl Isop {
    /// Adds the cube of a constant-one leaf; `None` once the budget is
    /// spent.
    fn push_full_cube(&mut self) -> Option<()> {
        if self.cubes.len() == self.max_cubes {
            return None;
        }
        self.cubes.push(MaskCube { pos: 0, neg: 0 });
        Some(())
    }

    /// Adds `!x_v` to the cubes in `negative` and `x_v` to those in
    /// `positive`: the first two parts of a split on `v`.
    fn add_split_literal(&mut self, negative: Range<usize>, positive: Range<usize>, v: usize) {
        for c in &mut self.cubes[negative] {
            c.neg |= 1 << v;
        }
        for c in &mut self.cubes[positive] {
            c.pos |= 1 << v;
        }
    }

    /// Covers every minterm of `lower` inside `upper` (`lower ⊆ upper`)
    /// with cubes over the word's variables below `vars`; both bounds
    /// repeat across the variables at and above `vars`. Returns the
    /// function of the cubes added, which lies between the bounds.
    fn cover_word(&mut self, lower: u64, upper: u64, vars: usize) -> Option<u64> {
        if lower == 0 {
            return Some(0);
        }
        if upper == !0 {
            self.push_full_cube()?;
            return Some(!0);
        }
        // Non-constant bounds depend on some variable below `vars`.
        let v = (0..vars)
            .rev()
            .find(|&v| depends(lower, v) || depends(upper, v))
            .expect("non-constant bounds have a support variable");
        let (l0, l1) = cofactors(lower, v);
        let (u0, u1) = cofactors(upper, v);

        let start0 = self.cubes.len();
        let f0 = self.cover_word(l0 & !u1, u0, v)?;
        let start1 = self.cubes.len();
        let f1 = self.cover_word(l1 & !u0, u1, v)?;
        let start2 = self.cubes.len();
        let f2 = self.cover_word((l0 & !f0) | (l1 & !f1), u0 & u1, v)?;

        self.add_split_literal(start0..start1, start1..start2, v);
        Some((!WORD_VARS[v] & f0) | (WORD_VARS[v] & f1) | f2)
    }

    /// [`Isop::cover_word`] for bounds over `6 + log2(len)` variables:
    /// above one word, the top variable selects the half of the slice.
    /// Writes the function of the added cubes into `covered`.
    fn cover_words(&mut self, lower: &[u64], upper: &[u64], covered: &mut [u64]) -> Option<()> {
        if lower.len() == 1 {
            covered[0] = self.cover_word(lower[0], upper[0], 6)?;
            return Some(());
        }
        if lower.iter().all(|&w| w == 0) {
            covered.fill(0);
            return Some(());
        }
        if upper.iter().all(|&w| w == !0) {
            self.push_full_cube()?;
            covered.fill(!0);
            return Some(());
        }
        let half = lower.len() / 2;
        let (l0, l1) = lower.split_at(half);
        let (u0, u1) = upper.split_at(half);
        let (c0, c1) = covered.split_at_mut(half);
        if l0 == l1 && u0 == u1 {
            // Neither bound depends on the top variable.
            self.cover_words(l0, u0, c0)?;
            c1.copy_from_slice(c0);
            return Some(());
        }
        let v = 6 + half.trailing_zeros() as usize;
        let mut bound = [0u64; TABLE_WORDS / 2];
        let mut f0 = [0u64; TABLE_WORDS / 2];
        let mut f1 = [0u64; TABLE_WORDS / 2];
        let mut upper_both = [0u64; TABLE_WORDS / 2];
        let (bound, f0, f1, upper_both) = (
            &mut bound[..half],
            &mut f0[..half],
            &mut f1[..half],
            &mut upper_both[..half],
        );

        let start0 = self.cubes.len();
        for (i, b) in bound.iter_mut().enumerate() {
            *b = l0[i] & !u1[i];
        }
        self.cover_words(bound, u0, f0)?;
        let start1 = self.cubes.len();
        for (i, b) in bound.iter_mut().enumerate() {
            *b = l1[i] & !u0[i];
        }
        self.cover_words(bound, u1, f1)?;
        let start2 = self.cubes.len();
        for (i, (b, u)) in bound.iter_mut().zip(upper_both.iter_mut()).enumerate() {
            *b = (l0[i] & !f0[i]) | (l1[i] & !f1[i]);
            *u = u0[i] & u1[i];
        }
        self.cover_words(bound, upper_both, c0)?;

        self.add_split_literal(start0..start1, start1..start2, v);
        for (i, (w0, w1)) in c0.iter_mut().zip(c1.iter_mut()).enumerate() {
            let f2 = *w0;
            *w0 = f0[i] | f2;
            *w1 = f1[i] | f2;
        }
        Some(())
    }
}

/// Whether a word table depends on variable `v` (< 6).
fn depends(t: u64, v: usize) -> bool {
    (t >> (1 << v) ^ t) & !WORD_VARS[v] != 0
}

/// The two cofactors of a word table on variable `v` (< 6), each
/// repeated across `v`.
fn cofactors(t: u64, v: usize) -> (u64, u64) {
    let shift = 1 << v;
    let t0 = t & !WORD_VARS[v];
    let t1 = t & WORD_VARS[v];
    (t0 | t0 << shift, t1 | t1 >> shift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cone::ConeTable;
    use cirlearn_bdd::Bdd;
    use cirlearn_logic::TruthTable;

    /// The cube bounds every comparison runs under.
    const BOUNDS: [usize; 3] = [1, 4, 64];

    /// `g` (leaf `k` as truth-table variable `k`) as a word table with
    /// leaf `k` as table variable `n - 1 - k`, repeated across the unused
    /// variables.
    fn word_table(g: &TruthTable) -> WordTable {
        let n = g.num_vars();
        let mut table = [0; TABLE_WORDS];
        for t in 0..64 * TABLE_WORDS {
            let leaf_minterm = (0..n).fold(0, |m, k| m | (t >> (n - 1 - k) & 1) << k);
            if g.get(leaf_minterm as u64) {
                table[t / 64] |= 1 << (t % 64);
            }
        }
        table
    }

    /// The BDD's bounded cover of `g`, with leaf `k` as BDD variable `k`.
    fn bdd_cover(g: &TruthTable, max_cubes: usize) -> Option<Sop> {
        let mut bdd = Bdd::new(g.num_vars());
        let f = bdd.from_truth_table(g);
        bdd.isop_bounded(f, max_cubes)
    }

    /// Asserts the word cover equals the BDD's under every bound and
    /// returns, per bound, whether it was `Some`.
    fn assert_same_cover(g: &TruthTable) -> [bool; BOUNDS.len()] {
        let table = word_table(g);
        BOUNDS.map(|max_cubes| {
            let expected = bdd_cover(g, max_cubes);
            assert_eq!(
                cover(&table, g.num_vars(), max_cubes),
                expected,
                "{} variables, bound {max_cubes}, table {:x?}",
                g.num_vars(),
                g.words()
            );
            expected.is_some()
        })
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random function of `n` variables: every minterm a coin flip, or
    /// a union of a few random cubes, so small covers occur as well as
    /// ones far over every bound.
    fn random_function(n: usize, state: &mut u64) -> TruthTable {
        if splitmix64(state) & 1 == 0 {
            let words: Vec<u64> = (0..1 << n.saturating_sub(6))
                .map(|_| splitmix64(state))
                .collect();
            return TruthTable::from_fn(n, |m| words[m as usize / 64] >> (m % 64) & 1 == 1);
        }
        let cubes: Vec<(u64, u64)> = (0..1 + splitmix64(state) % 8)
            .map(|_| {
                let care = splitmix64(state) & splitmix64(state);
                (care, splitmix64(state) & care)
            })
            .collect();
        TruthTable::from_fn(n, |m| {
            cubes
                .iter()
                .any(|&(care, value)| (m ^ value) & care & ((1 << n) - 1) == 0)
        })
    }

    #[test]
    fn leaf_tables_are_the_reversed_variables() {
        for n in 1..=MAX_LEAVES {
            for k in 0..n {
                let var = TruthTable::from_fn(n, |m| m >> k & 1 == 1);
                assert_eq!(leaf_table(k, n), word_table(&var), "leaf {k} of {n}");
            }
        }
        // Tables combine pointwise, so a cone built from leaf tables is
        // the word table of its function.
        let g = TruthTable::from_fn(3, |m| m & 1 == 1 && m >> 2 & 1 == 0);
        let built = leaf_table(0, 3).conjoin(leaf_table(2, 3).complement());
        assert_eq!(built, word_table(&g));
    }

    #[test]
    fn matches_the_bdd_on_every_small_function() {
        for n in 0..=3 {
            for bits in 0..1u64 << (1 << n) {
                assert_same_cover(&TruthTable::from_fn(n, |m| bits >> m & 1 == 1));
            }
        }
    }

    #[test]
    fn matches_the_bdd_on_random_functions() {
        let mut state = 0x5EED;
        let mut outcomes = [[false; 2]; BOUNDS.len()];
        for n in 4..=MAX_LEAVES {
            for _ in 0..150 {
                let some = assert_same_cover(&random_function(n, &mut state));
                for (seen, some) in outcomes.iter_mut().zip(some) {
                    seen[some as usize] = true;
                }
            }
        }
        assert_eq!(
            outcomes,
            [[true; 2]; BOUNDS.len()],
            "each bound must see covers both over it (None) and within it (Some)"
        );
    }

    #[test]
    #[ignore = "exhaustive; run in release with --ignored"]
    fn matches_the_bdd_on_every_four_variable_function() {
        for bits in 0..1u64 << 16 {
            assert_same_cover(&TruthTable::from_fn(4, |m| bits >> m & 1 == 1));
        }
    }
}
