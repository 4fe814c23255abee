//! Irredundant sum-of-products covers of word truth tables.
//!
//! The Minato–Morreale recursion splits a function on one variable,
//! covers the part that needs `!x`, the part that needs `x` and the rest
//! without `x`, and joins the three covers in that order. Here it runs
//! on the packed words of a truth table and always splits on the
//! *highest* table variable either bound depends on: inside a word that
//! is a mask test, above one it halves the slice of words.
//!
//! Cubes stay `(pos, neg)` bit masks over table variables during the
//! recursion and become [`Cube`]s once at the end. The scratch the
//! recursion needs is one buffer of five times the table's words: on
//! the stack up to 16 words (ten variables), on the heap above.

use std::ops::Range;

use crate::truth::VAR_MASKS;
use crate::{Cube, Sop, Var};

/// The largest table, in words, whose scratch lives on the stack.
const STACK_WORDS: usize = 16;

/// The irredundant cover of the function in `table`, with table
/// variable `v` written as `var(v)`, or `None` when it has more than
/// `max_cubes` cubes.
///
/// `table` holds minterm `m` in bit `m % 64` of word `m / 64`, over
/// `num_vars` variables: `2^(num_vars - 6)` words, or one word for
/// fewer than six variables, repeated across the variables `num_vars..6`
/// it does not depend on. The cube budget counts one cube per
/// constant-one leaf of the recursion, so the cover is `None` exactly
/// when its cube count would pass `max_cubes`.
///
/// # Panics
///
/// Panics if `num_vars` is over 24 or `table` has the wrong length.
///
/// # Examples
///
/// ```
/// use cirlearn_logic::{isop, Var};
///
/// // x0 & x1 | x2 over three variables, repeated across the word.
/// let f = 0xF8F8_F8F8_F8F8_F8F8;
/// let sop = isop::cover(&[f], 3, 8, |v| Var::new(v as u32)).expect("two cubes");
/// assert_eq!(sop.to_string(), "x2 | x0 & x1");
/// assert!(isop::cover(&[f], 3, 1, |v| Var::new(v as u32)).is_none());
/// ```
pub fn cover(
    table: &[u64],
    num_vars: usize,
    max_cubes: usize,
    var: impl Fn(usize) -> Var,
) -> Option<Sop> {
    assert!(
        num_vars <= 24,
        "{num_vars} variables do not fit the cube masks"
    );
    let words = 1 << num_vars.saturating_sub(6);
    assert_eq!(table.len(), words, "a {num_vars}-variable table");
    let mut isop = Isop {
        cubes: Vec::new(),
        max_cubes,
    };
    let mut stack = [0; 5 * STACK_WORDS];
    let mut heap = Vec::new();
    let scratch = if words <= STACK_WORDS {
        &mut stack[..5 * words]
    } else {
        heap.resize(5 * words, 0);
        &mut heap[..]
    };
    let (covered, scratch) = scratch.split_at_mut(words);
    isop.cover_words(table, table, covered, scratch)?;
    Some(Sop::from_cubes(isop.cubes.iter().map(|c| {
        let literals = (0..num_vars).filter_map(|v| {
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

/// A product term as bit masks over table variables.
#[derive(Debug, Clone, Copy)]
struct MaskCube {
    pos: u32,
    neg: u32,
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
        Some((!VAR_MASKS[v] & f0) | (VAR_MASKS[v] & f1) | f2)
    }

    /// [`Isop::cover_word`] for bounds over `6 + log2(len)` variables:
    /// above one word, the top variable selects the half of the slice.
    /// Writes the function of the added cubes into `covered`. A call on
    /// `len` words takes `2 * len` words of `scratch` for its halves
    /// and leaves the rest to the calls below it, so `4 * len` is
    /// enough for the whole recursion.
    fn cover_words(
        &mut self,
        lower: &[u64],
        upper: &[u64],
        covered: &mut [u64],
        scratch: &mut [u64],
    ) -> Option<()> {
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
            self.cover_words(l0, u0, c0, scratch)?;
            c1.copy_from_slice(c0);
            return Some(());
        }
        let v = 6 + half.trailing_zeros() as usize;
        let (bound, rest) = scratch.split_at_mut(half);
        let (f0, rest) = rest.split_at_mut(half);
        let (f1, rest) = rest.split_at_mut(half);
        let (upper_both, rest) = rest.split_at_mut(half);

        let start0 = self.cubes.len();
        for (i, b) in bound.iter_mut().enumerate() {
            *b = l0[i] & !u1[i];
        }
        self.cover_words(bound, u0, f0, rest)?;
        let start1 = self.cubes.len();
        for (i, b) in bound.iter_mut().enumerate() {
            *b = l1[i] & !u0[i];
        }
        self.cover_words(bound, u1, f1, rest)?;
        let start2 = self.cubes.len();
        for (i, (b, u)) in bound.iter_mut().zip(upper_both.iter_mut()).enumerate() {
            *b = (l0[i] & !f0[i]) | (l1[i] & !f1[i]);
            *u = u0[i] & u1[i];
        }
        self.cover_words(bound, upper_both, c0, rest)?;

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
    (t >> (1 << v) ^ t) & !VAR_MASKS[v] != 0
}

/// The two cofactors of a word table on variable `v` (< 6), each
/// repeated across `v`.
fn cofactors(t: u64, v: usize) -> (u64, u64) {
    let shift = 1 << v;
    let t0 = t & !VAR_MASKS[v];
    let t1 = t & VAR_MASKS[v];
    (t0 | t0 << shift, t1 | t1 >> shift)
}
