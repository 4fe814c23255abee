//! Checks `TruthTable::npn_canonical` against a straightforward
//! exhaustive search that builds every transform with
//! `NpnTransform::apply`.
//!
//! The reference tries the permutations in Heap's order, the input
//! negation masks in ascending order and the output negation false
//! before true, and keeps the first strictly smaller table. The
//! canonisation under test must return the same representative *and*
//! the same transform, because rewriting builds its replacement through
//! that transform.

use cirlearn_logic::{NpnTransform, TruthTable};

fn reference_canonical(f: &TruthTable) -> (TruthTable, NpnTransform) {
    let n = f.num_vars();
    let mut best: Option<(TruthTable, NpnTransform)> = None;
    let mut perm: Vec<u8> = (0..n as u8).collect();
    heap_permutations(n, &mut perm, &mut |perm| {
        for input_neg in 0..1u32 << n {
            for output_neg in [false, true] {
                let t = NpnTransform {
                    perm: perm.to_vec(),
                    input_neg,
                    output_neg,
                };
                let candidate = t.apply(f);
                if best
                    .as_ref()
                    .is_none_or(|(b, _)| candidate.words() < b.words())
                {
                    best = Some((candidate, t));
                }
            }
        }
    });
    best.expect("the identity transform is always tried")
}

fn heap_permutations(k: usize, items: &mut [u8], visit: &mut impl FnMut(&[u8])) {
    if k <= 1 {
        visit(items);
        return;
    }
    for i in 0..k {
        heap_permutations(k - 1, items, visit);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn table(num_vars: usize, bits: u64) -> TruthTable {
    TruthTable::from_fn(num_vars, |m| bits >> m & 1 == 1)
}

fn assert_matches_reference(f: &TruthTable) {
    let got = f.npn_canonical().expect("at most six variables");
    let want = reference_canonical(f);
    assert_eq!(got, want, "function {f} over {} vars", f.num_vars());
}

#[test]
fn every_function_of_at_most_three_vars() {
    for n in 0..=3 {
        for bits in 0..1u64 << (1 << n) {
            assert_matches_reference(&table(n, bits));
        }
    }
}

#[test]
fn seeded_sample_of_four_var_functions() {
    let mut state = 0x4E50_4E34;
    for _ in 0..2_000 {
        assert_matches_reference(&table(4, splitmix64(&mut state) & 0xFFFF));
    }
}

#[test]
fn random_five_and_six_var_functions() {
    let mut state = 0x4E50_4E36;
    for n in [5, 6] {
        for _ in 0..20 {
            let word = splitmix64(&mut state);
            let bits = if n == 5 { word & 0xFFFF_FFFF } else { word };
            assert_matches_reference(&table(n, bits));
        }
    }
}

/// All 65,536 four-variable functions. Slow in debug builds; run with
/// `cargo test --release -p cirlearn-logic --test npn_reference -- --ignored`.
#[test]
#[ignore]
fn every_four_var_function() {
    for bits in 0..1u64 << 16 {
        assert_matches_reference(&table(4, bits));
    }
}
