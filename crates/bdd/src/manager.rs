//! The BDD manager.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use cirlearn_logic::{Cube, Sop, TruthTable, Var};

/// A handle to a BDD node owned by a [`Bdd`] manager.
///
/// Handles are only meaningful with the manager that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant-false function.
    pub const FALSE: BddRef = BddRef(0);
    /// The constant-true function.
    pub const TRUE: BddRef = BddRef(1);

    /// Returns `true` if this handle is a constant.
    pub const fn is_const(self) -> bool {
        self.0 < 2
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BddRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A multiply–rotate hasher for the manager's tables (the Fx hash of
/// the Rust compiler). Their keys are triples of small integers that no
/// adversary picks, so the collision resistance of the default SipHash
/// buys nothing and costs several times as much per lookup.
#[derive(Debug, Default, Clone, Copy)]
struct IntHasher(u64);

impl IntHasher {
    /// The Fx multiplier: 2^64 / π, rounded up to odd.
    const MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MULTIPLIER);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            self.add(chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed by integers through [`IntHasher`].
type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Sentinel variable index of the two terminal nodes.
const TERMINAL_VAR: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    low: BddRef,
    high: BddRef,
}

/// A reduced ordered BDD manager with a fixed variable order
/// `x0 < x1 < …` (index 0 closest to the root).
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Bdd {
    nodes: Vec<Node>,
    unique: IntMap<(u32, BddRef, BddRef), BddRef>,
    ite_cache: IntMap<(BddRef, BddRef, BddRef), BddRef>,
    num_vars: usize,
}

impl Bdd {
    /// Creates a manager over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        Bdd {
            nodes: vec![
                Node {
                    var: TERMINAL_VAR,
                    low: BddRef::FALSE,
                    high: BddRef::FALSE,
                },
                Node {
                    var: TERMINAL_VAR,
                    low: BddRef::TRUE,
                    high: BddRef::TRUE,
                },
            ],
            unique: IntMap::default(),
            ite_cache: IntMap::default(),
            num_vars,
        }
    }

    /// Returns the number of variables of this manager.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Returns the number of allocated nodes (including both terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Returns the number of nodes reachable from `f` (excluding
    /// terminals) — the conventional BDD size.
    pub fn size(&self, f: BddRef) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![f];
        let mut count = 0;
        while let Some(n) = stack.pop() {
            if n.is_const() || seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            count += 1;
            stack.push(self.nodes[n.index()].low);
            stack.push(self.nodes[n.index()].high);
        }
        count
    }

    /// Returns the projection function of variable `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ num_vars`.
    pub fn var(&mut self, index: u32) -> BddRef {
        // panic-ok: documented `# Panics` contract guard.
        assert!((index as usize) < self.num_vars, "variable out of range");
        self.mk(index, BddRef::FALSE, BddRef::TRUE)
    }

    /// Returns the negated projection of variable `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ num_vars`.
    pub fn nvar(&mut self, index: u32) -> BddRef {
        assert!((index as usize) < self.num_vars, "variable out of range");
        self.mk(index, BddRef::TRUE, BddRef::FALSE)
    }

    fn mk(&mut self, var: u32, low: BddRef, high: BddRef) -> BddRef {
        if low == high {
            return low;
        }
        if let Some(&r) = self.unique.get(&(var, low, high)) {
            return r;
        }
        let r = BddRef(self.nodes.len() as u32);
        self.nodes.push(Node { var, low, high });
        self.unique.insert((var, low, high), r);
        r
    }

    fn var_of(&self, f: BddRef) -> u32 {
        self.nodes[f.index()].var
    }

    fn cofactors(&self, f: BddRef, var: u32) -> (BddRef, BddRef) {
        let n = self.nodes[f.index()];
        if n.var == var {
            (n.low, n.high)
        } else {
            (f, f)
        }
    }

    /// If-then-else: `ite(f, g, h) = f·g ∨ ¬f·h` — the universal BDD
    /// operation from which the Boolean connectives derive.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        // Terminal cases.
        if f == BddRef::TRUE {
            return g;
        }
        if f == BddRef::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == BddRef::TRUE && h == BddRef::FALSE {
            return f;
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return r;
        }
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let low = self.ite(f0, g0, h0);
        let high = self.ite(f1, g1, h1);
        let r = self.mk(top, low, high);
        self.ite_cache.insert((f, g, h), r);
        r
    }

    /// Returns the complement of `f`.
    pub fn not(&mut self, f: BddRef) -> BddRef {
        self.ite(f, BddRef::FALSE, BddRef::TRUE)
    }

    /// Returns the conjunction of `f` and `g`.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.ite(f, g, BddRef::FALSE)
    }

    /// Returns `f ∧ ¬g` without building `¬g`.
    fn and_not(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.ite(g, BddRef::FALSE, f)
    }

    /// Returns the disjunction of `f` and `g`.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.ite(f, BddRef::TRUE, g)
    }

    /// Returns the exclusive OR of `f` and `g`.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> BddRef {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Restricts variable `var` of `f` to `value` (a cofactor).
    ///
    /// # Panics
    ///
    /// Panics if `var ≥ num_vars`.
    pub fn restrict(&mut self, f: BddRef, var: u32, value: bool) -> BddRef {
        assert!((var as usize) < self.num_vars, "variable out of range");
        if f.is_const() || self.var_of(f) > var {
            return f;
        }
        let n = self.nodes[f.index()];
        if n.var == var {
            return if value { n.high } else { n.low };
        }
        let low = self.restrict(n.low, var, value);
        let high = self.restrict(n.high, var, value);
        self.mk(n.var, low, high)
    }

    /// Existentially quantifies `var` out of `f`.
    pub fn exists(&mut self, f: BddRef, var: u32) -> BddRef {
        let f0 = self.restrict(f, var, false);
        let f1 = self.restrict(f, var, true);
        self.or(f0, f1)
    }

    /// Universally quantifies `var` out of `f`.
    pub fn forall(&mut self, f: BddRef, var: u32) -> BddRef {
        let f0 = self.restrict(f, var, false);
        let f1 = self.restrict(f, var, true);
        self.and(f0, f1)
    }

    /// Evaluates `f` under per-variable values.
    pub fn eval_with<F: FnMut(Var) -> bool>(&self, f: BddRef, mut value_of: F) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let n = self.nodes[cur.index()];
            cur = if value_of(Var::new(n.var)) {
                n.high
            } else {
                n.low
            };
        }
        cur == BddRef::TRUE
    }

    /// Returns the variables `f` depends on, sorted ascending.
    pub fn support(&self, f: BddRef) -> Vec<Var> {
        let mut seen = vec![false; self.nodes.len()];
        let mut vars = Vec::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_const() || seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            let node = self.nodes[n.index()];
            vars.push(Var::new(node.var));
            stack.push(node.low);
            stack.push(node.high);
        }
        vars.sort();
        vars.dedup();
        vars
    }

    /// Counts the onset minterms of `f` over the manager's full variable
    /// set.
    pub fn sat_count(&self, f: BddRef) -> u64 {
        let mut cache: HashMap<BddRef, u64> = HashMap::new();
        self.sat_count_rec(f, &mut cache)
    }

    fn sat_count_rec(&self, f: BddRef, cache: &mut HashMap<BddRef, u64>) -> u64 {
        // Counts minterms over variables strictly below `var_of(f)`,
        // then scales at the call site; here we normalize to "minterms
        // over all num_vars variables" by tracking levels explicitly.
        fn rec(bdd: &Bdd, f: BddRef, cache: &mut HashMap<BddRef, u64>) -> u64 {
            // Returns count over variables var_of(f)..num_vars.
            if f == BddRef::FALSE {
                return 0;
            }
            if f == BddRef::TRUE {
                return 1;
            }
            if let Some(&c) = cache.get(&f) {
                return c;
            }
            let n = bdd.nodes[f.index()];
            let lo = rec(bdd, n.low, cache);
            let hi = rec(bdd, n.high, cache);
            let lo_gap = bdd.level_of(n.low) - n.var as u64 - 1;
            let hi_gap = bdd.level_of(n.high) - n.var as u64 - 1;
            let c = (lo << lo_gap) + (hi << hi_gap);
            cache.insert(f, c);
            c
        }
        let total = rec(self, f, cache);
        total << self.level_of(f)
    }

    /// The level of a node: its variable index, or `num_vars` for
    /// terminals.
    fn level_of(&self, f: BddRef) -> u64 {
        if f.is_const() {
            self.num_vars as u64
        } else {
            self.var_of(f) as u64
        }
    }

    /// Builds the BDD of a truth table.
    ///
    /// # Panics
    ///
    /// Panics if the table has more variables than the manager.
    // The manager is the node factory, so `from_*` takes `&mut self`
    // here like in other BDD packages.
    #[allow(clippy::wrong_self_convention)]
    pub fn from_truth_table(&mut self, tt: &TruthTable) -> BddRef {
        assert!(tt.num_vars() <= self.num_vars, "table wider than manager");
        self.build_tt_rec(tt, 0)
    }

    fn build_tt_rec(&mut self, tt: &TruthTable, var: u32) -> BddRef {
        if tt.is_zero() {
            return BddRef::FALSE;
        }
        if tt.is_one() {
            return BddRef::TRUE;
        }
        let v = Var::new(var);
        let low = {
            let t = tt.cofactor(v, false);
            self.build_tt_rec(&t, var + 1)
        };
        let high = {
            let t = tt.cofactor(v, true);
            self.build_tt_rec(&t, var + 1)
        };
        self.mk(var, low, high)
    }

    /// Converts `f` to a truth table over the manager's variables.
    ///
    /// # Errors
    ///
    /// Returns an error if the manager has more than
    /// [`TruthTable::MAX_VARS`] variables.
    pub fn to_truth_table(&self, f: BddRef) -> cirlearn_logic::Result<TruthTable> {
        let n = self.num_vars;
        TruthTable::zeros(n)?; // arity check
        Ok(TruthTable::from_fn(n, |m| {
            self.eval_with(f, |v| m >> v.index() & 1 == 1)
        }))
    }

    /// Extracts an irredundant SOP cover of `f` using the BDD form of
    /// the Minato–Morreale ISOP procedure.
    pub fn isop(&mut self, f: BddRef) -> Sop {
        self.isop_bounded(f, usize::MAX)
            .expect("an unbounded cover never exceeds its bound")
    }

    /// Like [`Bdd::isop`], but gives up once the cover exceeds
    /// `max_cubes` — arithmetic functions (adder middle bits) have
    /// exponential covers, and callers such as the `collapse` pass must
    /// bail out rather than materialize them.
    ///
    /// Cubes stay `(pos, neg)` variable masks during the recursion and
    /// become [`Cube`]s once at the end.
    pub fn isop_bounded(&mut self, f: BddRef, max_cubes: usize) -> Option<Sop> {
        let mut cubes = MaskCubes {
            words: self.num_vars.div_ceil(64).max(1),
            masks: Vec::new(),
            max_cubes,
        };
        self.isop_rec(f, f, &mut cubes)?;
        Some(cubes.into_sop())
    }

    /// Covers every minterm of `lower` inside `upper` (`lower ⊆ upper`),
    /// appending the cubes to `cubes`, and returns the function of the
    /// cubes added; `None` once the cube budget is spent.
    fn isop_rec(&mut self, lower: BddRef, upper: BddRef, cubes: &mut MaskCubes) -> Option<BddRef> {
        if lower == BddRef::FALSE {
            return Some(BddRef::FALSE);
        }
        if upper == BddRef::TRUE {
            cubes.push_full_cube()?;
            return Some(BddRef::TRUE);
        }
        let top = self.var_of(lower).min(self.var_of(upper));
        let (l0, l1) = self.cofactors(lower, top);
        let (u0, u1) = self.cofactors(upper, top);

        // Cubes forced to carry !x.
        let start0 = cubes.len();
        let l0_only = self.and_not(l0, u1);
        let f0 = self.isop_rec(l0_only, u0, cubes)?;
        // Cubes forced to carry x.
        let start1 = cubes.len();
        let l1_only = self.and_not(l1, u0);
        let f1 = self.isop_rec(l1_only, u1, cubes)?;
        // Remainder, covered without x.
        let start2 = cubes.len();
        let r0 = self.and_not(l0, f0);
        let r1 = self.and_not(l1, f1);
        let l_rest = self.or(r0, r1);
        let u_both = self.and(u0, u1);
        let f2 = self.isop_rec(l_rest, u_both, cubes)?;

        cubes.add_literal(start0..start1, top, true);
        cubes.add_literal(start1..start2, top, false);

        // `f0` and `f1` depend on variables below `top` only, so
        // `!x·f0 ∨ x·f1` is one node.
        let split = self.mk(top, f0, f1);
        Some(self.or(split, f2))
    }

    /// Builds the BDD of a [`Cube`].
    pub fn cube(&mut self, cube: &Cube) -> BddRef {
        let mut acc = BddRef::TRUE;
        for lit in cube.literals().iter().rev() {
            let v = if lit.is_negated() {
                self.nvar(lit.var().index())
            } else {
                self.var(lit.var().index())
            };
            acc = self.and(v, acc);
        }
        acc
    }

    /// Builds the BDD of an [`Sop`].
    pub fn sop(&mut self, sop: &Sop) -> BddRef {
        let mut acc = BddRef::FALSE;
        for c in sop.cubes() {
            let cb = self.cube(c);
            acc = self.or(acc, cb);
        }
        acc
    }
}

/// The cubes of a cover under construction: per cube, a positive and
/// a negative variable mask of `words` words each, stored back to back.
struct MaskCubes {
    words: usize,
    masks: Vec<u64>,
    /// The most cubes the cover may have.
    max_cubes: usize,
}

impl MaskCubes {
    fn len(&self) -> usize {
        self.masks.len() / (2 * self.words)
    }

    /// Adds the cube of a constant-one leaf; `None` once the budget is
    /// spent.
    fn push_full_cube(&mut self) -> Option<()> {
        if self.len() == self.max_cubes {
            return None;
        }
        self.masks.resize(self.masks.len() + 2 * self.words, 0);
        Some(())
    }

    /// Adds the literal of `var` in the given phase to the cubes with
    /// indices in `cubes`.
    fn add_literal(&mut self, cubes: Range<usize>, var: u32, negated: bool) {
        let stride = 2 * self.words;
        let offset = var as usize / 64 + if negated { self.words } else { 0 };
        for cube in self.masks[cubes.start * stride..cubes.end * stride].chunks_exact_mut(stride) {
            cube[offset] |= 1 << (var % 64);
        }
    }

    fn into_sop(self) -> Sop {
        let words = self.words;
        Sop::from_cubes(self.masks.chunks_exact(2 * words).map(|cube| {
            let (pos, neg) = cube.split_at(words);
            let literals = (0..words).flat_map(|w| {
                let mut vars = pos[w] | neg[w];
                std::iter::from_fn(move || {
                    (vars != 0).then(|| {
                        let bit = vars.trailing_zeros();
                        vars &= vars - 1;
                        let var = Var::new(w as u32 * 64 + bit);
                        var.literal(pos[w] >> bit & 1 == 1)
                    })
                })
            });
            Cube::from_literals(literals).expect("one literal per variable")
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_vars() {
        let mut b = Bdd::new(3);
        let x = b.var(0);
        assert!(!x.is_const());
        assert!(b.eval_with(x, |v| v.index() == 0));
        assert!(!b.eval_with(x, |_| false));
        let nx = b.nvar(0);
        let union = b.or(x, nx);
        assert_eq!(union, BddRef::TRUE);
        let inter = b.and(x, nx);
        assert_eq!(inter, BddRef::FALSE);
    }

    #[test]
    fn reduction_is_canonical() {
        let mut b = Bdd::new(2);
        let x0 = b.var(0);
        let x1 = b.var(1);
        // Two syntactically different constructions of the same function.
        let f1 = b.and(x0, x1);
        let nx0 = b.not(x0);
        let nx1 = b.not(x1);
        let g = b.or(nx0, nx1);
        let f2 = b.not(g);
        assert_eq!(f1, f2, "canonical forms must coincide");
    }

    #[test]
    fn ite_matches_semantics() {
        let mut b = Bdd::new(3);
        let f = b.var(0);
        let g = b.var(1);
        let h = b.var(2);
        let r = b.ite(f, g, h);
        for m in 0..8u64 {
            let expect = if m & 1 == 1 {
                m >> 1 & 1 == 1
            } else {
                m >> 2 & 1 == 1
            };
            assert_eq!(b.eval_with(r, |v| m >> v.index() & 1 == 1), expect, "m={m}");
        }
    }

    #[test]
    fn truth_table_roundtrip() {
        let tt = TruthTable::from_fn(5, |m| (m * 11 + 2) % 7 < 3);
        let mut b = Bdd::new(5);
        let f = b.from_truth_table(&tt);
        assert_eq!(b.to_truth_table(f).expect("small"), tt);
    }

    #[test]
    fn restrict_and_quantify() {
        let mut b = Bdd::new(3);
        let x0 = b.var(0);
        let x1 = b.var(1);
        let f = b.xor(x0, x1);
        let f0 = b.restrict(f, 0, false);
        assert_eq!(f0, x1);
        let f1 = b.restrict(f, 0, true);
        let nx1 = b.not(x1);
        assert_eq!(f1, nx1);
        assert_eq!(b.exists(f, 0), BddRef::TRUE);
        assert_eq!(b.forall(f, 0), BddRef::FALSE);
    }

    #[test]
    fn support_is_exact() {
        let mut b = Bdd::new(4);
        let x1 = b.var(1);
        let x3 = b.var(3);
        let f = b.and(x1, x3);
        let sup: Vec<u32> = b.support(f).iter().map(|v| v.index()).collect();
        assert_eq!(sup, vec![1, 3]);
    }

    #[test]
    fn sat_count_various() {
        let mut b = Bdd::new(3);
        assert_eq!(b.sat_count(BddRef::FALSE), 0);
        assert_eq!(b.sat_count(BddRef::TRUE), 8);
        let x0 = b.var(0);
        assert_eq!(b.sat_count(x0), 4);
        let x1 = b.var(1);
        let f = b.and(x0, x1);
        assert_eq!(b.sat_count(f), 2);
        let g = b.or(x0, x1);
        assert_eq!(b.sat_count(g), 6);
        let x2 = b.var(2);
        let parity = {
            let t = b.xor(x0, x1);
            b.xor(t, x2)
        };
        assert_eq!(b.sat_count(parity), 4);
    }

    #[test]
    fn isop_covers_exactly() {
        let tt = TruthTable::from_fn(6, |m| m.wrapping_mul(0x45d9_f3b3) >> 17 & 1 == 1);
        let mut b = Bdd::new(6);
        let f = b.from_truth_table(&tt);
        let sop = b.isop(f);
        assert_eq!(TruthTable::from_sop(6, &sop), tt);
    }

    #[test]
    fn isop_majority_is_minimal() {
        let maj = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let mut b = Bdd::new(3);
        let f = b.from_truth_table(&maj);
        let sop = b.isop(f);
        assert_eq!(sop.cubes().len(), 3);
    }

    #[test]
    fn isop_bound_counts_cubes() {
        let maj = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let mut b = Bdd::new(3);
        let f = b.from_truth_table(&maj);
        let sop = b.isop(f);
        assert_eq!(b.isop_bounded(f, usize::MAX), Some(sop.clone()));
        assert_eq!(b.isop_bounded(f, 3), Some(sop));
        assert_eq!(b.isop_bounded(f, 2), None);
        assert_eq!(b.isop_bounded(BddRef::TRUE, usize::MAX), Some(Sop::one()));
        assert_eq!(b.isop_bounded(BddRef::TRUE, 0), None);
        assert_eq!(b.isop_bounded(BddRef::FALSE, 0), Some(Sop::zero()));
    }

    #[test]
    fn isop_past_one_mask_word() {
        let mut b = Bdd::new(130);
        let x3 = b.var(3);
        let nx70 = b.nvar(70);
        let x129 = b.var(129);
        let f = {
            let t = b.and(x3, nx70);
            b.or(t, x129)
        };
        let sop = b.isop(f);
        assert_eq!(sop.to_string(), "x3 & !x70 | x129");
        assert_eq!(b.sop(&sop), f);
    }

    #[test]
    fn cube_and_sop_builders() {
        use cirlearn_logic::Literal;
        let cube = Cube::from_literals([
            Literal::new(Var::new(0), false),
            Literal::new(Var::new(2), true),
        ])
        .expect("consistent");
        let mut b = Bdd::new(3);
        let cf = b.cube(&cube);
        assert_eq!(b.sat_count(cf), 2); // x0 & !x2 fixes 2 of 3 vars
        let sop = Sop::from_cubes([cube]);
        let sf = b.sop(&sop);
        assert_eq!(cf, sf);
        // Empty cube / empty SOP.
        let top = b.cube(&Cube::top());
        assert_eq!(top, BddRef::TRUE);
        let zero = b.sop(&Sop::zero());
        assert_eq!(zero, BddRef::FALSE);
    }

    #[test]
    fn size_counts_distinct_nodes() {
        let mut b = Bdd::new(3);
        let x0 = b.var(0);
        let x1 = b.var(1);
        let x2 = b.var(2);
        let parity = {
            let t = b.xor(x0, x1);
            b.xor(t, x2)
        };
        // Parity BDD: 2 nodes per level except the top = 1 + 2 + 2.
        assert_eq!(b.size(parity), 5);
        assert_eq!(b.size(BddRef::TRUE), 0);
    }
}
