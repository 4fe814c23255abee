//! Bounded irredundant covers of cut functions given as word truth
//! tables, equal to the covers of [`Bdd::isop_bounded`].
//!
//! [`cirlearn_logic::isop::cover`] runs the Minato–Morreale recursion
//! on the words and splits on the *highest* table variable either bound
//! depends on, while the BDD splits on the *lowest* leaf index. Which
//! variable the recursion splits on decides the cover. So leaf `k` of
//! an `n`-leaf cut is loaded as table variable `n - 1 - k`
//! ([`leaf_table`]); splitting the table top down then visits the
//! leaves in the BDD's order, and [`cover`] returns the BDD's cover cube
//! for cube, `None` exactly when the BDD's is.
//!
//! [`Bdd::isop_bounded`]: cirlearn_bdd::Bdd::isop_bounded

use cirlearn_logic::{Sop, Var};

use crate::cone::WordTable;

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

/// The irredundant cover of `f` over a `num_leaves`-leaf cut loaded by
/// [`leaf_table`], with leaf `k` as variable `x_k`: the cover
/// `Bdd::isop_bounded` returns for the same function, cube for cube, and
/// `None` when it has more than `max_cubes` cubes.
pub(crate) fn cover(f: &WordTable, num_leaves: usize, max_cubes: usize) -> Option<Sop> {
    debug_assert!(num_leaves <= MAX_LEAVES);
    let words = 1 << num_leaves.saturating_sub(6);
    cirlearn_logic::isop::cover(&f[..words], num_leaves, max_cubes, |v| {
        Var::new((num_leaves - 1 - v) as u32)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cone::{ConeTable, TABLE_WORDS};
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

    /// Asserts the word cover equals the BDD's under every bound, with
    /// no bound, and at the cover's cube count and one below, where it
    /// must just fit and just not; returns, per bound, whether it was
    /// `Some`.
    fn assert_same_cover(g: &TruthTable) -> [bool; BOUNDS.len()] {
        let table = word_table(g);
        let same = |max_cubes: usize| {
            let expected = bdd_cover(g, max_cubes);
            assert_eq!(
                cover(&table, g.num_vars(), max_cubes),
                expected,
                "{} variables, bound {max_cubes}, table {:x?}",
                g.num_vars(),
                g.words()
            );
            expected
        };
        let cubes = same(usize::MAX).expect("no bound").cubes().len();
        assert!(same(cubes).is_some(), "a cover fits its own cube count");
        if cubes > 0 {
            assert!(same(cubes - 1).is_none(), "a cover is over one cube less");
        }
        BOUNDS.map(|max_cubes| same(max_cubes).is_some())
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
