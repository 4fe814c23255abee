//! Checks `TruthTable::isop`, the word recursion of
//! `cirlearn_logic::isop`, against the Minato–Morreale procedure written
//! directly on `TruthTable` values, the implementation it replaced:
//! every cofactor and every interval bound is a new table.
//!
//! Both split on the highest variable either bound depends on and join
//! the `!x`, `x` and `x`-free parts in that order, so they must return
//! the same cover cube for cube. The functions are seeded and random:
//! coin-flip tables and unions of a few random cubes, each with its
//! complement, over 0 to 10 variables (the stack scratch) and a few
//! over 11 to 13 (the heap scratch).

use cirlearn_logic::{Sop, TruthTable, Var};

/// Minato–Morreale ISOP on the interval `[lower, upper]`.
///
/// Returns an SOP `S` with `lower ≤ S ≤ upper` together with the exact
/// function of `S`. `top` is the highest variable index still eligible
/// for splitting.
fn reference(lower: &TruthTable, upper: &TruthTable, top: usize) -> (Sop, TruthTable) {
    let n = lower.num_vars();
    if lower.is_zero() {
        return (Sop::zero(), TruthTable::zeros(n).expect("arity checked"));
    }
    if upper.is_one() {
        return (Sop::one(), TruthTable::ones(n).expect("arity checked"));
    }
    // Find the splitting variable: the highest-indexed variable below
    // `top` on which either bound depends.
    let mut split = None;
    for k in (0..top).rev() {
        let v = Var::new(k as u32);
        if lower.depends_on(v) || upper.depends_on(v) {
            split = Some((k, v));
            break;
        }
    }
    let (k, x) = split.expect("non-constant interval must depend on a variable");

    let l0 = lower.cofactor(x, false);
    let l1 = lower.cofactor(x, true);
    let u0 = upper.cofactor(x, false);
    let u1 = upper.cofactor(x, true);

    // Cubes that must contain literal !x: onset of the 0-cofactor not
    // coverable in the 1-cofactor.
    let (s0, f0) = reference(&(l0.clone() & !u1.clone()), &u0, k);
    // Cubes that must contain literal x.
    let (s1, f1) = reference(&(l1.clone() & !u0.clone()), &u1, k);
    // What remains must be covered by cubes independent of x.
    let l_rest = (l0 & !f0.clone()) | (l1 & !f1.clone());
    let (s2, f2) = reference(&l_rest, &(u0 & u1), k);

    let mut sop = Sop::zero();
    for c in s0 {
        sop.push(c.and_literal(x.negative()).expect("fresh variable"));
    }
    for c in s1 {
        sop.push(c.and_literal(x.positive()).expect("fresh variable"));
    }
    sop.extend(s2);

    let xt = TruthTable::var(lower.num_vars(), x).expect("in range");
    let cover = !xt.clone() & f0 | xt & f1 | f2;
    (sop, cover)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random function of `n` variables: every minterm a coin flip, or a
/// union of a few random cubes, so small covers occur as well as large
/// ones.
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

/// Asserts the word cover of `f` and of its complement equal the
/// reference's; returns how many functions it checked.
fn assert_same_cover(f: TruthTable) -> usize {
    for g in [f.clone(), !f] {
        let (expected, covered) = reference(&g, &g, g.num_vars());
        assert_eq!(covered, g, "the reference covers exactly");
        assert_eq!(
            g.isop(),
            expected,
            "{} variables, table {:x?}",
            g.num_vars(),
            g.words()
        );
    }
    2
}

#[test]
fn word_isop_matches_the_reference_up_to_ten_variables() {
    let mut state = 0x150F;
    let checked: usize = (0..=10)
        .flat_map(|n| std::iter::repeat_n(n, 400))
        .map(|n| assert_same_cover(random_function(n, &mut state)))
        .sum();
    assert_eq!(checked, 8_800);
}

#[test]
fn word_isop_matches_the_reference_on_heap_scratch() {
    let mut state = 0xBEEF;
    for n in 11..=13 {
        for _ in 0..4 {
            assert_same_cover(random_function(n, &mut state));
        }
    }
}
