//! Heuristic two-level minimization in the espresso style, on packed
//! cubes.
//!
//! The minimizer works on cube covers without ever materializing truth
//! tables, so it scales to the wide supports produced by the FBDT
//! learner. Each entry point remaps the cover's variables, in sorted
//! order, to dense indices `0..k` and packs every cube into two bit
//! masks, `pos` and `neg`, of `ceil(k / 64)` words each: the
//! positional-cube notation of Brayton et al., *Logic Minimization
//! Algorithms for VLSI Synthesis* (1984). A cover is one flat word
//! vector. Cofactoring a cube on a literal is one mask test and one mask
//! clear; the cofactors of a recursion are written onto one scratch
//! stack, and each level truncates its own on return, so no cofactor
//! allocates.
//!
//! The core is a recursive *tautology check* (Shannon splitting on the
//! most binate variable with the unate-cover leaf rule), on top of which
//! sit the classic loop phases:
//!
//! * **expand** — raise each cube (drop literals) while it stays
//!   contained in the original function,
//! * **irredundant** — drop cubes covered by the rest of the cover,
//! * **reduce** — shrink each cube to the smallest cube still covering
//!   its essential minterms (those no other cube covers), so the next
//!   expand can escape the current local optimum.
//!
//! Reduce relies on [`complement`], the recursive unate-style cover
//! complementation.
//!
//! Every decision is the one the cube-list formulation makes: the split
//! variable has the most occurrences, then the most balanced phases,
//! then the lowest index (the remap is monotone, so the lowest dense
//! index is the lowest variable); expand, irredundant, reduce and
//! single-cube containment keep their stable sorts; and complement
//! splits a unate cover on the lowest variable of its first cube. So
//! [`minimize`] and [`complement`] return the same cubes in the same
//! order as a cube-list implementation would, which
//! `tests/espresso_reference.rs` checks against one.

use cirlearn_logic::{Cube, Literal, Sop, Var};

/// Cover cost: cubes weighted above literals, matching the gate cost of
/// a two-level implementation.
fn cost(cover: &[u64], words: usize) -> usize {
    cover.len() / (2 * words) * 1000 + mask_literal_count(cover)
}

/// Covers above this many cubes skip reduce in [`minimize`]: cover
/// complementation can blow up on large covers, so expand and
/// irredundant alone remain.
const REDUCE_CUBE_LIMIT: usize = 96;

/// Returns `true` if the cover is a tautology (covers every minterm).
///
/// Uses Shannon splitting on the most binate variable; a unate cover is
/// a tautology exactly when it contains the universal cube.
///
/// # Examples
///
/// ```
/// use cirlearn_logic::{Cube, Sop, Var};
/// use cirlearn_synth::espresso::tautology;
///
/// let x = Var::new(0);
/// let cover = Sop::from_cubes([
///     Cube::from_literals([x.positive()]).expect("consistent"),
///     Cube::from_literals([x.negative()]).expect("consistent"),
/// ]);
/// assert!(tautology(&cover));
/// ```
pub fn tautology(cover: &Sop) -> bool {
    cube_covered(&Cube::top(), cover)
}

/// Returns `true` if every minterm of `cube` is covered by `cover`.
pub fn cube_covered(cube: &Cube, cover: &Sop) -> bool {
    let (mut space, packed) = Space::for_cover(cover);
    // Literals on variables outside the cover cofactor nothing away.
    let mut mask = vec![0; 2 * space.words];
    for lit in cube.literals() {
        if let Ok(v) = space.vars.binary_search(&lit.var()) {
            set_literal(&mut mask, space.words, v, lit.polarity());
        }
    }
    space.cube_in_cover(&mask, &packed, |_| true)
}

/// Complements a cover by recursive Shannon expansion on the most
/// binate variable (falling back to any variable of a unate cover).
///
/// The result covers exactly the minterms the input does not. Both the
/// input and the output are covers over the same (implicit) variable
/// universe; variables absent from both are unconstrained.
///
/// # Examples
///
/// ```
/// use cirlearn_logic::{Cube, Sop, Var};
/// use cirlearn_synth::espresso::complement;
///
/// let x = Var::new(0);
/// let cover = Sop::from_cubes([Cube::from_literals([x.positive()]).expect("ok")]);
/// let comp = complement(&cover);
/// assert_eq!(comp.cubes().len(), 1);
/// assert_eq!(comp.cubes()[0].literals(), &[x.negative()]);
/// ```
pub fn complement(cover: &Sop) -> Sop {
    let (mut space, packed) = Space::for_cover(cover);
    space.stack = packed;
    space.stack_complement(0);
    space.unpack_cover(&space.stack)
}

/// Minimizes a cover: single-cube containment, one expand + irredundant
/// pass, then the reduce → expand → irredundant loop while it lowers the
/// cost (reduce is skipped on covers above 96 cubes).
///
/// The result represents the same Boolean function with at most as many
/// cubes and usually far fewer literals.
///
/// # Examples
///
/// ```
/// use cirlearn_logic::{Sop, TruthTable};
/// use cirlearn_synth::espresso::minimize;
///
/// // The minterm cover of x0 (4 minterms over 3 vars).
/// let tt = TruthTable::from_fn(3, |m| m & 1 == 1);
/// let minterms: Sop = (0..8u64)
///     .filter(|&m| tt.get(m))
///     .map(|m| {
///         use cirlearn_logic::{Cube, Var};
///         Cube::from_literals((0..3).map(|k| Var::new(k).literal(m >> k & 1 == 1)))
///             .expect("consistent")
///     })
///     .collect();
/// let min = minimize(&minterms);
/// assert_eq!(min.cubes().len(), 1);
/// assert_eq!(min.literal_count(), 1);
/// assert_eq!(TruthTable::from_sop(3, &min), tt);
/// ```
pub fn minimize(cover: &Sop) -> Sop {
    if cover.is_zero() {
        return Sop::zero();
    }
    if cover.is_one() {
        return Sop::one();
    }
    let (mut space, reference) = Space::for_cover(cover);
    let words = space.words;
    if space.cube_in_cover(&vec![0; 2 * words], &reference, |_| true) {
        return Sop::one();
    }
    let mut current = space.single_cube_minimal(&reference);

    // Initial expand + irredundant.
    let expanded = space.expand_cover(&current, &reference);
    let irr = space.irredundant_cover(&expanded);
    let irr = space.single_cube_minimal(&irr);
    if cost(&irr, words) < cost(&current, words) {
        current = irr;
    }
    let mut best_cost = cost(&current, words);

    // Classic loop: reduce → expand → irredundant, until no gain.
    for _ in 0..8 {
        if current.len() / (2 * words) > REDUCE_CUBE_LIMIT {
            break;
        }
        let reduced = space.reduce_cover(&current);
        let expanded = space.expand_cover(&reduced, &reference);
        let candidate = space.irredundant_cover(&expanded);
        let candidate = space.single_cube_minimal(&candidate);
        let c = cost(&candidate, words);
        if c < best_cost {
            best_cost = c;
            current = candidate;
        } else {
            break;
        }
    }
    space.unpack_cover(&current)
}

/// How a cover splits, from one scan of its cubes.
enum Split {
    /// Some cube is universal: the cover is constant 1.
    Universal,
    /// No cubes: the cover is constant 0.
    Empty,
    /// No variable occurs in both phases.
    Unate,
    /// The most binate variable (dense index).
    Binate(usize),
}

/// The dense variable universe of one cover, with the scratch its
/// packed operations reuse.
///
/// A packed cube is `2 * words` words: the `pos` mask (bit `v` set when
/// `x_v` is a literal), then the `neg` mask (bit `v` set when `!x_v`
/// is). A packed cover is its cubes back to back.
struct Space {
    /// Dense index `i` stands for `vars[i]`; sorted, so the remap is
    /// monotone.
    vars: Vec<Var>,
    /// Words per mask: `ceil(vars.len() / 64)`, at least one.
    words: usize,
    /// Covers of the recursions in progress, each level's cofactor on
    /// top of its parent's cover.
    stack: Vec<u64>,
    /// Per dense variable, `[positive, negative]` literal counts; all
    /// zero between uses.
    counts: Vec<[u32; 2]>,
    /// `2 * words` words: the positive and the negative literals of the
    /// cover being split, then its binate variables in the first half.
    occurs: Vec<u64>,
    /// Cube order of the stable sorts.
    order: Vec<usize>,
}

impl Space {
    /// Packs `cover` over its own support.
    fn for_cover(cover: &Sop) -> (Space, Vec<u64>) {
        let vars = cover.support();
        let words = vars.len().div_ceil(64).max(1);
        let mut packed = vec![0; 2 * words * cover.cubes().len()];
        for (cube, mask) in cover.cubes().iter().zip(packed.chunks_exact_mut(2 * words)) {
            for lit in cube.literals() {
                // panic-ok: every literal's variable is in the support.
                let v = vars.binary_search(&lit.var()).expect("support variable");
                set_literal(mask, words, v, lit.polarity());
            }
        }
        let space = Space {
            counts: vec![[0; 2]; vars.len()],
            vars,
            words,
            stack: Vec::new(),
            occurs: vec![0; 2 * words],
            order: Vec::new(),
        };
        (space, packed)
    }

    /// The packed cover as an [`Sop`], cubes in the same order.
    fn unpack_cover(&self, cover: &[u64]) -> Sop {
        let w = self.words;
        cover
            .chunks_exact(2 * w)
            .map(|cube| {
                let mut literals = Vec::with_capacity(mask_literal_count(cube));
                for_each_literal(cube, w, |v, phase| {
                    literals.push(Literal::new(self.vars[v], phase == 1));
                });
                // panic-ok: a packed cube never holds both phases of a
                // variable.
                Cube::from_literals(literals).expect("consistent cube")
            })
            .collect()
    }

    /// Picks the split of the cover `stack[start..end]`: among the
    /// variables in both phases, the one in the most cubes, ties going
    /// to the more balanced one and then to the lowest index.
    fn binate_split(&mut self, start: usize, end: usize) -> Split {
        let w = self.words;
        let cover = &self.stack[start..end];
        if cover.is_empty() {
            return Split::Empty;
        }
        self.occurs.fill(0);
        let (pos, neg) = self.occurs.split_at_mut(w);
        for cube in cover.chunks_exact(2 * w) {
            if cube.iter().all(|&x| x == 0) {
                return Split::Universal;
            }
            for i in 0..w {
                pos[i] |= cube[i];
                neg[i] |= cube[w + i];
            }
        }
        for (p, n) in pos.iter_mut().zip(neg.iter()) {
            *p &= n;
        }
        let binate = &*pos;
        if binate.iter().all(|&x| x == 0) {
            return Split::Unate;
        }
        for cube in cover.chunks_exact(2 * w) {
            for (i, &mask) in binate.iter().enumerate() {
                for (phase, word) in [cube[i], cube[w + i]].into_iter().enumerate() {
                    let mut bits = word & mask;
                    while bits != 0 {
                        self.counts[64 * i + bits.trailing_zeros() as usize][phase] += 1;
                        bits &= bits - 1;
                    }
                }
            }
        }
        let mut best = (0, (0, 0));
        for (i, &mask) in binate.iter().enumerate() {
            let mut bits = mask;
            while bits != 0 {
                let v = 64 * i + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let [p, n] = std::mem::take(&mut self.counts[v]);
                // Strictly greater: the lowest variable wins a tie.
                if (p + n, p.min(n)) > best.1 {
                    best = (v, (p + n, p.min(n)));
                }
            }
        }
        Split::Binate(best.0)
    }

    /// Appends the cofactor of the cover `stack[start..end]` on the
    /// literal of variable `v` in phase `positive`: cubes with the
    /// opposite literal are dropped, the literal itself is cleared from
    /// the rest.
    fn push_literal_cofactor(&mut self, start: usize, end: usize, v: usize, positive: bool) {
        let w = self.words;
        let bit = 1u64 << (v % 64);
        let (kept, dropped) = if positive {
            (v / 64, w + v / 64)
        } else {
            (w + v / 64, v / 64)
        };
        let at = self.stack.len();
        self.stack.resize(at + end - start, 0);
        let (covers, top) = self.stack.split_at_mut(at);
        let mut len = 0;
        for cube in covers[start..end].chunks_exact(2 * w) {
            if cube[dropped] & bit == 0 {
                let out = &mut top[len..len + 2 * w];
                out.copy_from_slice(cube);
                out[kept] &= !bit;
                len += 2 * w;
            }
        }
        self.stack.truncate(at + len);
    }

    /// Appends the cofactor on `cube` of the cubes of `cover` whose
    /// index `include` admits.
    fn push_cube_cofactor(&mut self, cover: &[u64], cube: &[u64], include: impl Fn(usize) -> bool) {
        let w = self.words;
        for (j, c) in cover.chunks_exact(2 * w).enumerate() {
            if include(j) && !masks_conflict(c, cube, w) {
                self.stack.extend(c.iter().zip(cube).map(|(&x, &y)| x & !y));
            }
        }
    }

    /// Returns `true` if the cubes of `cover` whose index `include`
    /// admits cover every minterm of `cube`.
    fn cube_in_cover(
        &mut self,
        cube: &[u64],
        cover: &[u64],
        include: impl Fn(usize) -> bool,
    ) -> bool {
        let start = self.stack.len();
        self.push_cube_cofactor(cover, cube, include);
        let covered = self.stack_tautology(start);
        self.stack.truncate(start);
        covered
    }

    /// Returns `true` if the cover `stack[start..]` is a tautology. The
    /// stack is left as it was.
    fn stack_tautology(&mut self, start: usize) -> bool {
        let end = self.stack.len();
        let v = match self.binate_split(start, end) {
            Split::Universal => return true,
            // Unate, no universal cube: not a tautology.
            Split::Empty | Split::Unate => return false,
            Split::Binate(v) => v,
        };
        for positive in [true, false] {
            self.push_literal_cofactor(start, end, v, positive);
            let covered = self.stack_tautology(end);
            self.stack.truncate(end);
            if !covered {
                return false;
            }
        }
        true
    }

    /// Replaces the cover `stack[start..]` by its complement.
    fn stack_complement(&mut self, start: usize) {
        let w = self.words;
        let end = self.stack.len();
        // Splitting variable: most binate, else the lowest variable of
        // the first cube.
        let v = match self.binate_split(start, end) {
            Split::Universal => {
                self.stack.truncate(start);
                return;
            }
            Split::Empty => {
                self.stack.truncate(start);
                self.stack.resize(start + 2 * w, 0);
                return;
            }
            Split::Unate => lowest_var(&self.stack[start..start + 2 * w], w),
            Split::Binate(v) => v,
        };
        // ¬f = x·¬(f|x) ∨ ¬x·¬(f|¬x)
        self.push_literal_cofactor(start, end, v, true);
        self.stack_complement(end);
        let mid = self.stack.len();
        self.push_literal_cofactor(start, end, v, false);
        self.stack_complement(mid);
        let top = self.stack.len();
        // Cubes present in both branch complements need no literal.
        for (branch, other, positive) in [(end..mid, mid..top, true), (mid..top, end..mid, false)] {
            for j in branch.step_by(2 * w) {
                let cube = &self.stack[j..j + 2 * w];
                let shared = self.stack[other.clone()]
                    .chunks_exact(2 * w)
                    .any(|c| c == cube);
                if shared && !positive {
                    continue;
                }
                let at = self.stack.len();
                self.stack.extend_from_within(j..j + 2 * w);
                if !shared {
                    set_literal(&mut self.stack[at..], w, v, positive);
                }
            }
        }
        let merged = self.stack.len();
        self.push_single_cube_minimal(top, merged);
        self.stack.copy_within(merged.., start);
        self.stack.truncate(start + self.stack.len() - merged);
    }

    /// Appends the cover `stack[from..to]` without the cubes contained
    /// in another: cubes in a stable order by literal count, each kept
    /// unless it implies one kept before it.
    fn push_single_cube_minimal(&mut self, from: usize, to: usize) {
        let w2 = 2 * self.words;
        let stack = &self.stack;
        self.order.clear();
        self.order.extend((from..to).step_by(w2));
        self.order
            .sort_by_key(|&j| mask_literal_count(&stack[j..j + w2]));
        for &j in &self.order {
            let cube = &self.stack[j..j + w2];
            if !self.stack[to..]
                .chunks_exact(w2)
                .any(|kept| mask_implies(cube, kept))
            {
                self.stack.extend_from_within(j..j + w2);
            }
        }
    }

    /// Single-cube containment: [`Sop::make_single_cube_minimal`] on a
    /// packed cover.
    fn single_cube_minimal(&mut self, cover: &[u64]) -> Vec<u64> {
        let start = self.stack.len();
        self.stack.extend_from_slice(cover);
        let end = self.stack.len();
        self.push_single_cube_minimal(start, end);
        let minimal = self.stack[end..].to_vec();
        self.stack.truncate(start);
        minimal
    }

    /// The cubes of `cover` in a stable order by `key` of their literal
    /// counts.
    fn sorted_cubes<K: Ord>(&mut self, cover: &[u64], key: impl Fn(usize) -> K) -> Vec<u64> {
        let w2 = 2 * self.words;
        self.order.clear();
        self.order.extend((0..cover.len()).step_by(w2));
        self.order
            .sort_by_key(|&j| key(mask_literal_count(&cover[j..j + w2])));
        self.order
            .iter()
            .flat_map(|&j| &cover[j..j + w2])
            .copied()
            .collect()
    }

    /// The expand phase: tries to drop literals from every cube, keeping
    /// the cube inside the original function `reference`.
    ///
    /// Literals are attempted in ascending frequency over the cover, so
    /// commonly shared literals are kept and rare ones dropped first.
    fn expand_cover(&mut self, cover: &[u64], reference: &[u64]) -> Vec<u64> {
        let w = self.words;
        // Literal frequency across the cover (for the heuristic order).
        let mut freq = vec![[0u32; 2]; self.vars.len()];
        for cube in cover.chunks_exact(2 * w) {
            for_each_literal(cube, w, |v, phase| freq[v][phase] += 1);
        }
        let mut out = Vec::with_capacity(cover.len());
        let mut lits: Vec<(usize, usize)> = Vec::new();
        for cube in cover.chunks_exact(2 * w) {
            let at = out.len();
            out.extend_from_slice(cube);
            // Try dropping the rarest literals first.
            lits.clear();
            for_each_literal(cube, w, |v, phase| lits.push((v, phase)));
            lits.sort_by_key(|&(v, phase)| freq[v][phase]);
            for &(v, phase) in &lits {
                let word = at + phase * w + v / 64;
                let bit = 1u64 << (v % 64);
                out[word] &= !bit;
                if !self.cube_in_cover(&out[at..], reference, |_| true) {
                    out[word] |= bit;
                }
            }
        }
        out
    }

    /// The irredundant phase: drops every cube covered by the others.
    fn irredundant_cover(&mut self, cover: &[u64]) -> Vec<u64> {
        let w2 = 2 * self.words;
        // Try to drop bigger cubes first (more literals = more specific).
        let cubes = self.sorted_cubes(cover, std::cmp::Reverse);
        let mut keep = vec![true; cubes.len() / w2];
        for i in 0..keep.len() {
            let cube = &cubes[w2 * i..w2 * (i + 1)];
            if self.cube_in_cover(cube, &cubes, |j| j != i && keep[j]) {
                keep[i] = false;
            }
        }
        cubes
            .chunks_exact(w2)
            .zip(keep)
            .filter(|&(_, k)| k)
            .flat_map(|(c, _)| c)
            .copied()
            .collect()
    }

    /// The reduce phase: shrinks each cube to the smallest cube
    /// containing its *essential* minterms (those the rest of the cover
    /// misses), so a following expand can move to a different prime.
    /// The function is preserved.
    fn reduce_cover(&mut self, cover: &[u64]) -> Vec<u64> {
        let w = self.words;
        // Espresso order: biggest cubes (fewest literals) first.
        let mut cubes = self.sorted_cubes(cover, |len| len);
        let mut bound = vec![0; 2 * w];
        for i in 0..cubes.len() / (2 * w) {
            let range = 2 * w * i..2 * w * (i + 1);
            // Rest of the (current) cover, cofactored into cube i's
            // subspace.
            let start = self.stack.len();
            self.push_cube_cofactor(&cubes, &cubes[range.clone()], |j| j != i);
            if self.stack_tautology(start) {
                // Fully covered by the others (irredundant will drop it).
                self.stack.truncate(start);
                continue;
            }
            self.stack_complement(start);
            if self.stack.len() == start {
                continue;
            }
            // Bounding cube of the essential part, then re-anchored
            // inside cube i.
            bound.fill(!0);
            for c in self.stack[start..].chunks_exact(2 * w) {
                for (b, &x) in bound.iter_mut().zip(c) {
                    *b &= x;
                }
            }
            self.stack.truncate(start);
            let cube = &mut cubes[range];
            if !masks_conflict(cube, &bound, w) {
                for (c, &b) in cube.iter_mut().zip(&bound) {
                    *c |= b;
                }
            }
        }
        cubes
    }
}

/// Adds the literal of variable `v` in phase `positive` to a packed
/// cube.
fn set_literal(cube: &mut [u64], words: usize, v: usize, positive: bool) {
    let word = if positive { v / 64 } else { words + v / 64 };
    cube[word] |= 1 << (v % 64);
}

/// Calls `f(v, phase)` for each literal of a packed cube, in variable
/// order; phase 0 is positive, 1 negative.
fn for_each_literal(cube: &[u64], words: usize, mut f: impl FnMut(usize, usize)) {
    for i in 0..words {
        let mut bits = cube[i] | cube[words + i];
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            f(64 * i + b, (cube[words + i] >> b & 1) as usize);
        }
    }
}

/// Total literal count of packed cubes.
fn mask_literal_count(cubes: &[u64]) -> usize {
    cubes.iter().map(|x| x.count_ones() as usize).sum()
}

/// Returns `true` if two packed cubes hold opposite literals of some
/// variable, i.e. do not intersect.
fn masks_conflict(a: &[u64], b: &[u64], words: usize) -> bool {
    (0..words).any(|i| a[i] & b[words + i] | a[words + i] & b[i] != 0)
}

/// Returns `true` if packed `cube` implies packed `other`: `other`'s
/// literals are a subset of `cube`'s.
fn mask_implies(cube: &[u64], other: &[u64]) -> bool {
    cube.iter().zip(other).all(|(&c, &o)| o & !c == 0)
}

/// The lowest variable of a non-empty packed cube.
fn lowest_var(cube: &[u64], words: usize) -> usize {
    (0..words)
        .find_map(|i| {
            let bits = cube[i] | cube[words + i];
            (bits != 0).then(|| 64 * i + bits.trailing_zeros() as usize)
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_logic::TruthTable;

    fn lit(v: u32, neg: bool) -> Literal {
        Literal::new(Var::new(v), neg)
    }

    fn cube(lits: &[(u32, bool)]) -> Cube {
        Cube::from_literals(lits.iter().map(|&(v, n)| lit(v, n))).expect("consistent")
    }

    /// The reduce phase on an `Sop`.
    fn reduce(cover: &Sop) -> Sop {
        let (mut space, packed) = Space::for_cover(cover);
        let reduced = space.reduce_cover(&packed);
        space.unpack_cover(&reduced)
    }

    fn minterm_cover(tt: &TruthTable) -> Sop {
        (0..1u64 << tt.num_vars())
            .filter(|&m| tt.get(m))
            .map(|m| {
                Cube::from_literals(
                    (0..tt.num_vars() as u32).map(|k| Var::new(k).literal(m >> k & 1 == 1)),
                )
                .expect("consistent")
            })
            .collect()
    }

    #[test]
    fn tautology_base_cases() {
        assert!(tautology(&Sop::one()));
        assert!(!tautology(&Sop::zero()));
        assert!(!tautology(&Sop::from_cubes([cube(&[(0, false)])])));
    }

    #[test]
    fn tautology_split_cases() {
        // x | !x
        let t = Sop::from_cubes([cube(&[(0, false)]), cube(&[(0, true)])]);
        assert!(tautology(&t));
        // x | !x&y is not a tautology
        let nt = Sop::from_cubes([cube(&[(0, false)]), cube(&[(0, true), (1, false)])]);
        assert!(!tautology(&nt));
        // x&y | x&!y | !x = 1
        let t2 = Sop::from_cubes([
            cube(&[(0, false), (1, false)]),
            cube(&[(0, false), (1, true)]),
            cube(&[(0, true)]),
        ]);
        assert!(tautology(&t2));
    }

    #[test]
    fn tautology_agrees_with_truth_tables_randomly() {
        let mut state = 7u64;
        for trial in 0..40 {
            // Random cover over 5 vars with up to 8 cubes.
            let mut cubes = Vec::new();
            state = state.wrapping_mul(6364136223846793005).wrapping_add(trial);
            let ncubes = (state >> 13) % 8 + 1;
            for i in 0..ncubes {
                let mut lits = Vec::new();
                for v in 0..5u32 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(i + v as u64);
                    match (state >> 33) % 3 {
                        0 => lits.push(lit(v, false)),
                        1 => lits.push(lit(v, true)),
                        _ => {}
                    }
                }
                if let Some(c) = Cube::from_literals(lits) {
                    cubes.push(c);
                }
            }
            let cover = Sop::from_cubes(cubes);
            let tt = TruthTable::from_sop(5, &cover);
            assert_eq!(tautology(&cover), tt.is_one(), "trial {trial}: {cover}");
        }
    }

    #[test]
    fn cube_covered_simple() {
        let cover = Sop::from_cubes([cube(&[(0, false)]), cube(&[(1, false)])]); // x0 | x1
        assert!(cube_covered(&cube(&[(0, false), (1, true)]), &cover));
        assert!(cube_covered(&cube(&[(0, false)]), &cover));
        assert!(!cube_covered(&cube(&[(2, false)]), &cover));
        assert!(!cube_covered(&Cube::top(), &cover));
    }

    #[test]
    fn minimize_minterms_of_single_literal() {
        let tt = TruthTable::from_fn(4, |m| m >> 2 & 1 == 0); // !x2
        let min = minimize(&minterm_cover(&tt));
        assert_eq!(TruthTable::from_sop(4, &min), tt);
        assert_eq!(min.cubes().len(), 1);
        assert_eq!(min.literal_count(), 1);
    }

    #[test]
    fn minimize_majority_from_minterms() {
        let tt = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let min = minimize(&minterm_cover(&tt));
        assert_eq!(TruthTable::from_sop(3, &min), tt);
        assert_eq!(min.cubes().len(), 3);
        assert_eq!(min.literal_count(), 6);
    }

    #[test]
    fn minimize_constant_covers() {
        assert!(minimize(&Sop::zero()).is_zero());
        assert!(minimize(&Sop::one()).is_one());
        // A cover that is secretly a tautology.
        let t = Sop::from_cubes([cube(&[(0, false)]), cube(&[(0, true)])]);
        assert!(minimize(&t).is_one());
    }

    #[test]
    fn minimize_preserves_function_randomly() {
        let mut state = 99u64;
        for trial in 0..25 {
            let tt = TruthTable::from_fn(6, |m| {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(m + trial);
                state >> 43 & 1 == 1
            });
            let cover = minterm_cover(&tt);
            let min = minimize(&cover);
            assert_eq!(TruthTable::from_sop(6, &min), tt, "trial {trial}");
            assert!(min.cubes().len() <= cover.cubes().len());
        }
    }

    #[test]
    fn minimize_never_worse_than_isop() {
        // Feeding an already-irredundant ISOP through espresso must not
        // increase cost.
        let tt = TruthTable::from_fn(5, |m| (m * 13 + 1) % 11 < 4);
        let isop = tt.isop();
        let min = minimize(&isop);
        assert_eq!(TruthTable::from_sop(5, &min), tt);
        assert!(min.cubes().len() <= isop.cubes().len());
        assert!(min.literal_count() <= isop.literal_count());
    }

    #[test]
    fn complement_is_exact() {
        let mut state = 5u64;
        for trial in 0..30 {
            let mut cubes = Vec::new();
            state = state.wrapping_mul(6364136223846793005).wrapping_add(trial);
            let ncubes = (state >> 17) % 6 + 1;
            for i in 0..ncubes {
                let mut lits = Vec::new();
                for v in 0..5u32 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(i + v as u64);
                    match (state >> 29) % 3 {
                        0 => lits.push(lit(v, false)),
                        1 => lits.push(lit(v, true)),
                        _ => {}
                    }
                }
                if let Some(c) = Cube::from_literals(lits) {
                    cubes.push(c);
                }
            }
            let cover = Sop::from_cubes(cubes);
            let comp = complement(&cover);
            let tt = TruthTable::from_sop(5, &cover);
            assert_eq!(
                TruthTable::from_sop(5, &comp),
                !tt,
                "trial {trial}: {cover}"
            );
        }
    }

    #[test]
    fn complement_constants() {
        assert!(complement(&Sop::zero()).is_one());
        assert!(complement(&Sop::one()).is_zero());
    }

    #[test]
    fn reduce_expand_escapes_local_minimum() {
        // A cover of primes that is not minimum: reduce must allow the
        // loop to reshuffle. Function: x0 x1 + !x0 x2 + x1 x2 (the
        // consensus term x1 x2 is redundant).
        let cover = Sop::from_cubes([
            cube(&[(0, false), (1, false)]),
            cube(&[(0, true), (2, false)]),
            cube(&[(1, false), (2, false)]),
        ]);
        let min = minimize(&cover);
        let tt = TruthTable::from_sop(3, &cover);
        assert_eq!(TruthTable::from_sop(3, &min), tt);
        assert_eq!(min.cubes().len(), 2, "consensus cube must be dropped");
    }

    #[test]
    fn reduce_preserves_function_randomly() {
        let mut state = 77u64;
        for trial in 0..15 {
            let tt = TruthTable::from_fn(5, |m| {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(m * 5 + trial);
                state >> 41 & 1 == 1
            });
            let sop = tt.isop();
            let reduced = reduce(&sop);
            assert_eq!(TruthTable::from_sop(5, &reduced), tt, "trial {trial}");
        }
    }

    #[test]
    fn redundant_cube_removed() {
        // x0&x1 | x0&!x1 | x0  ->  x0
        let cover = Sop::from_cubes([
            cube(&[(0, false), (1, false)]),
            cube(&[(0, false), (1, true)]),
            cube(&[(0, false)]),
        ]);
        let min = minimize(&cover);
        assert_eq!(min.cubes().len(), 1);
        assert_eq!(min.cubes()[0], cube(&[(0, false)]));
    }
}
