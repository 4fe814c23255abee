//! Algebraic factoring of sum-of-products covers.
//!
//! A flat SOP such as `ab + ac + ad` costs one AND per cube plus the OR
//! tree; its factored form `a(b + c + d)` shares the common literal.
//! This module implements quick factoring by recursive weak division on
//! the most frequent literal — the core of the classic SIS
//! `quick_factor` — and converts the resulting expression tree into an
//! AIG. The division runs on bit masks: each cube is a mask of literals
//! over the cover's own support, each set of cubes a mask over cube
//! indices, so counting a literal is a popcount and dividing by it is
//! two mask ANDs.
//!
//! Factoring is what turns the learner's two-level covers into genuinely
//! small multi-level circuits; together with [`espresso`](crate::espresso)
//! it accounts for most of the size reductions the paper attributes to
//! ABC postprocessing.

use std::cell::Cell;

use cirlearn_aig::{Aig, Edge};
use cirlearn_logic::{Literal, Sop, Var};

/// A factored Boolean expression.
///
/// # Examples
///
/// ```
/// use cirlearn_logic::{Cube, Sop, Var};
/// use cirlearn_synth::factor::{factor, Expr};
///
/// let a = Var::new(0);
/// let b = Var::new(1);
/// let c = Var::new(2);
/// // ab + ac
/// let sop = Sop::from_cubes([
///     Cube::from_literals([a.positive(), b.positive()]).expect("consistent"),
///     Cube::from_literals([a.positive(), c.positive()]).expect("consistent"),
/// ]);
/// let e = factor(&sop);
/// assert_eq!(e.literal_count(), 3); // a(b + c)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A Boolean constant.
    Const(bool),
    /// A single literal.
    Lit(Literal),
    /// Conjunction of subexpressions.
    And(Vec<Expr>),
    /// Disjunction of subexpressions.
    Or(Vec<Expr>),
}

impl Expr {
    /// Counts literal occurrences in the expression — the classic cost
    /// measure of factored forms.
    pub fn literal_count(&self) -> usize {
        match self {
            Expr::Const(_) => 0,
            Expr::Lit(_) => 1,
            Expr::And(es) | Expr::Or(es) => es.iter().map(Expr::literal_count).sum(),
        }
    }

    /// Evaluates the expression under per-variable values.
    pub fn eval_with<F: FnMut(cirlearn_logic::Var) -> bool + Copy>(&self, value_of: F) -> bool {
        match self {
            Expr::Const(b) => *b,
            Expr::Lit(l) => {
                let mut f = value_of;
                l.eval(f(l.var()))
            }
            Expr::And(es) => es.iter().all(|e| e.eval_with(value_of)),
            Expr::Or(es) => es.iter().any(|e| e.eval_with(value_of)),
        }
    }

    /// Builds the expression in an AIG, mapping variable `x_k` to
    /// `var_map[k]`.
    ///
    /// # Panics
    ///
    /// Panics if a literal's variable has no entry in `var_map`.
    pub fn to_aig(&self, aig: &mut Aig, var_map: &[Edge]) -> Edge {
        match self {
            Expr::Const(false) => Edge::FALSE,
            Expr::Const(true) => Edge::TRUE,
            Expr::Lit(l) => var_map[l.var().index() as usize].complement_if(l.is_negated()),
            Expr::And(es) => {
                let edges: Vec<Edge> = es.iter().map(|e| e.to_aig(aig, var_map)).collect();
                aig.and_many(&edges)
            }
            Expr::Or(es) => {
                let edges: Vec<Edge> = es.iter().map(|e| e.to_aig(aig, var_map)).collect();
                aig.or_many(&edges)
            }
        }
    }
}

/// Factors a cover into a multi-level expression by recursive weak
/// division on the most frequent literal, the lowest literal on ties.
///
/// The returned expression computes exactly the same function as `sop`.
pub fn factor(sop: &Sop) -> Expr {
    if sop.is_zero() {
        return Expr::Const(false);
    }
    if sop.is_one() {
        return Expr::Const(true);
    }
    if let [cube] = sop.cubes() {
        return cube_expr(cube.literals().iter().copied());
    }
    let mut cover = SCRATCH.take().unwrap_or_default();
    cover.set_cover(sop);
    let n = sop.cubes().len();
    let mut all = vec![!0; n / 64];
    if !n.is_multiple_of(64) {
        all.push((1 << (n % 64)) - 1);
    }
    let expr = cover.factor_set(all);
    SCRATCH.set(Some(cover));
    expr
}

thread_local! {
    /// The buffers of this thread's last [`MaskCover`], reused by the
    /// next [`factor`] call: a small cover allocates nothing before its
    /// first division.
    static SCRATCH: Cell<Option<MaskCover>> = const { Cell::new(None) };
}

/// The conjunction of a cube's literals.
fn cube_expr(mut literals: impl Iterator<Item = Literal>) -> Expr {
    match (literals.next(), literals.next()) {
        (None, _) => Expr::Const(true),
        (Some(l), None) => Expr::Lit(l),
        (Some(a), Some(b)) => {
            Expr::And([a, b].into_iter().chain(literals).map(Expr::Lit).collect())
        }
    }
}

/// A cover as bit masks for weak division. Literal `2i + negated`
/// stands for the `i`-th variable of the cover's support in that phase,
/// so literal order is [`Literal`] order. A set of cubes is a mask over
/// cube indices, so every division keeps the cover's cube order.
#[derive(Default)]
struct MaskCover {
    /// The cover's variables, ascending.
    support: Vec<Var>,
    /// Literals: twice the support.
    literals: usize,
    /// Words of a literal set.
    literal_words: usize,
    /// Cube `j`'s literal set, at `j * literal_words`.
    cubes: Vec<u64>,
    /// For word `w` of a cube set and literal `l`, the cubes of that
    /// word that contain `l`, at `w * literals + l`.
    columns: Vec<u64>,
    /// The literals divided out on the way to the current set: every
    /// cube in it contains them, and they are left out of its factors.
    divided: Vec<u64>,
    /// Per-literal counts, reused by every division.
    counts: Vec<u32>,
}

impl MaskCover {
    /// Loads `sop` into the buffers, reusing their allocations.
    fn set_cover(&mut self, sop: &Sop) {
        self.support.clear();
        self.support
            .extend(sop.cubes().iter().flat_map(|c| c.vars()));
        self.support.sort_unstable();
        self.support.dedup();
        self.literals = 2 * self.support.len();
        self.literal_words = self.literals.div_ceil(64);
        let literals = self.literals;
        let literal_words = self.literal_words;
        zeroed(&mut self.cubes, sop.cubes().len() * literal_words);
        zeroed(&mut self.columns, sop.cubes().len().div_ceil(64) * literals);
        zeroed(&mut self.divided, literal_words);
        zeroed(&mut self.counts, literals);
        for (j, cube) in sop.cubes().iter().enumerate() {
            for lit in cube.literals() {
                let i = self
                    .support
                    .binary_search(&lit.var())
                    .expect("a cube's variable is in the support");
                let l = 2 * i + usize::from(lit.is_negated());
                self.cubes[j * literal_words + l / 64] |= 1 << (l % 64);
                self.columns[j / 64 * literals + l] |= 1 << (j % 64);
            }
        }
    }

    /// Factors the cubes in `set` (not empty). The loop is the recursion
    /// on the remainder: each pass divides by the most frequent literal
    /// and goes on with the cubes that lack it.
    fn factor_set(&mut self, mut set: Vec<u64>) -> Expr {
        if ones(set.iter().copied()).any(|j| self.undivided(j).all(|w| w == 0)) {
            return Expr::Const(true);
        }
        let mut terms = Vec::new();
        loop {
            if set.iter().map(|w| w.count_ones()).sum::<u32>() == 1 {
                let j = ones(set.iter().copied()).next().expect("one cube");
                terms.push(self.cube_expr(j));
                break;
            }
            let (best, count) = self.most_frequent(&set);
            if count < 2 {
                // Nothing shared: flat OR of cube ANDs.
                terms.extend(ones(set.iter().copied()).map(|j| self.cube_expr(j)));
                break;
            }
            let column = &self.columns[best..];
            let quotient = set
                .iter()
                .zip(column.iter().step_by(self.literals))
                .map(|(&s, &c)| s & c)
                .collect();
            for (s, &c) in set.iter_mut().zip(column.iter().step_by(self.literals)) {
                *s &= !c;
            }
            let bit = 1 << (best % 64);
            self.divided[best / 64] |= bit;
            let q = self.factor_set(quotient);
            self.divided[best / 64] &= !bit;
            let lit = Expr::Lit(self.literal(best));
            terms.push(match q {
                Expr::Const(true) => lit,
                q => Expr::And(vec![lit, q]),
            });
            if set.iter().all(|&w| w == 0) {
                break;
            }
        }
        if terms.len() == 1 {
            terms.pop().expect("one term")
        } else {
            Expr::Or(terms)
        }
    }

    /// The most frequent literal of the cubes in `set` outside the
    /// divided ones, the lowest on ties, and its count.
    fn most_frequent(&mut self, set: &[u64]) -> (usize, u32) {
        self.counts.fill(0);
        for (w, &cubes) in set.iter().enumerate().filter(|&(_, &s)| s != 0) {
            let columns = &self.columns[w * self.literals..(w + 1) * self.literals];
            for (count, &column) in self.counts.iter_mut().zip(columns) {
                *count += (cubes & column).count_ones();
            }
        }
        let mut best = (0, 0);
        for (l, &count) in self.counts.iter().enumerate() {
            if count > best.1 && self.divided[l / 64] >> (l % 64) & 1 == 0 {
                best = (l, count);
            }
        }
        best
    }

    /// The words of cube `j`'s literal set without the divided literals.
    fn undivided(&self, j: usize) -> impl Iterator<Item = u64> + '_ {
        let row = &self.cubes[j * self.literal_words..(j + 1) * self.literal_words];
        row.iter().zip(&self.divided).map(|(&r, &d)| r & !d)
    }

    fn literal(&self, l: usize) -> Literal {
        Literal::new(self.support[l / 2], l % 2 == 1)
    }

    /// Cube `j` without the divided literals, as an expression.
    fn cube_expr(&self, j: usize) -> Expr {
        cube_expr(ones(self.undivided(j)).map(|l| self.literal(l)))
    }
}

/// Empties `v` and refills it with `len` zeros.
fn zeroed<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    v.clear();
    v.resize(len, T::default());
}

/// The indices of the set bits of a mask of words, ascending.
fn ones(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.into_iter().enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + b
            })
        })
    })
}

/// Minimizes an SOP with [`espresso`](crate::espresso), factors it, and
/// builds the result in an AIG — the standard route from a learned
/// cover to a circuit.
///
/// Returns the root edge.
pub fn sop_to_circuit(sop: &Sop, aig: &mut Aig, var_map: &[Edge]) -> Edge {
    let minimized = crate::espresso::minimize(sop);
    let expr = factor(&minimized);
    expr.to_aig(aig, var_map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_logic::{Cube, TruthTable};

    fn cube(lits: &[(u32, bool)]) -> Cube {
        Cube::from_literals(lits.iter().map(|&(v, n)| Literal::new(Var::new(v), n)))
            .expect("consistent")
    }

    #[test]
    fn constants() {
        assert_eq!(factor(&Sop::zero()), Expr::Const(false));
        assert_eq!(factor(&Sop::one()), Expr::Const(true));
    }

    #[test]
    fn single_cube() {
        let s = Sop::from_cubes([cube(&[(0, false), (1, true)])]);
        let e = factor(&s);
        assert_eq!(e.literal_count(), 2);
        let tt = TruthTable::from_sop(2, &s);
        for m in 0..4u64 {
            assert_eq!(e.eval_with(|v| m >> v.index() & 1 == 1), tt.get(m));
        }
    }

    #[test]
    fn common_literal_is_shared() {
        // ab + ac + ad -> a(b+c+d): 4 literals instead of 6.
        let s = Sop::from_cubes([
            cube(&[(0, false), (1, false)]),
            cube(&[(0, false), (2, false)]),
            cube(&[(0, false), (3, false)]),
        ]);
        let e = factor(&s);
        assert_eq!(e.literal_count(), 4);
        let tt = TruthTable::from_sop(4, &s);
        for m in 0..16u64 {
            assert_eq!(e.eval_with(|v| m >> v.index() & 1 == 1), tt.get(m), "m={m}");
        }
    }

    #[test]
    fn nested_factoring() {
        // abc + abd + e -> ab(c+d) + e: 5 literals instead of 7.
        let s = Sop::from_cubes([
            cube(&[(0, false), (1, false), (2, false)]),
            cube(&[(0, false), (1, false), (3, false)]),
            cube(&[(4, false)]),
        ]);
        let e = factor(&s);
        assert_eq!(e.literal_count(), 5);
    }

    #[test]
    fn factoring_preserves_function_randomly() {
        let mut state = 3u64;
        for trial in 0..30 {
            let tt = TruthTable::from_fn(6, |m| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(m * 3 + trial);
                state >> 38 & 1 == 1
            });
            let sop = tt.isop();
            let e = factor(&sop);
            for m in 0..64u64 {
                assert_eq!(
                    e.eval_with(|v| m >> v.index() & 1 == 1),
                    tt.get(m),
                    "trial {trial} m={m}"
                );
            }
            assert!(e.literal_count() <= sop.literal_count());
        }
    }

    #[test]
    fn to_aig_matches_expression() {
        let s = Sop::from_cubes([
            cube(&[(0, false), (1, false)]),
            cube(&[(0, false), (2, true)]),
            cube(&[(1, true), (2, false)]),
        ]);
        let e = factor(&s);
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 3);
        let root = e.to_aig(&mut g, &inputs);
        g.add_output(root, "f");
        for m in 0..8u64 {
            let bits: Vec<bool> = (0..3).map(|k| m >> k & 1 == 1).collect();
            assert_eq!(
                g.eval_bits(&bits)[0],
                e.eval_with(|v| m >> v.index() & 1 == 1),
                "m={m}"
            );
        }
    }

    #[test]
    fn sop_to_circuit_is_smaller_than_flat() {
        // Minterm cover of a function with lots of sharing.
        let tt = TruthTable::from_fn(5, |m| m & 1 == 1 && m.count_ones() >= 2);
        let minterms: Sop = (0..32u64)
            .filter(|&m| tt.get(m))
            .map(|m| {
                Cube::from_literals((0..5).map(|k| Var::new(k).literal(m >> k & 1 == 1)))
                    .expect("consistent")
            })
            .collect();
        let mut flat = Aig::new();
        let inputs = flat.add_inputs("x", 5);
        let f = flat.add_sop(&minterms, &inputs);
        flat.add_output(f, "f");

        let mut fac = Aig::new();
        let inputs2 = fac.add_inputs("x", 5);
        let f2 = sop_to_circuit(&minterms, &mut fac, &inputs2);
        fac.add_output(f2, "f");

        assert!(fac.gate_count() < flat.gate_count());
        for m in 0..32u64 {
            let bits: Vec<bool> = (0..5).map(|k| m >> k & 1 == 1).collect();
            assert_eq!(fac.eval_bits(&bits)[0], tt.get(m), "m={m}");
        }
    }
}
