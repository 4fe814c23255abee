//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! Feature set: two watched literals, first-UIP conflict analysis with
//! backjumping, VSIDS variable activities on an indexed binary heap,
//! phase saving, and Luby-sequence restarts. Learned clauses are kept
//! forever — the instances produced by this workspace (fraig queries,
//! miters of learned circuits) stay small enough that clause deletion
//! would not pay for its complexity.

use std::fmt;

/// A propositional literal, encoded as `2 * var + negated`.
///
/// Created by [`Solver::new_var`]; negate with `!`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Returns the 0-based variable index of this literal.
    pub const fn var(self) -> u32 {
        self.0 >> 1
    }

    /// Returns `true` for a negative-phase literal.
    pub const fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// Builds a literal from a variable index and a phase.
    pub const fn from_var(var: u32, negated: bool) -> Self {
        Lit(var << 1 | negated as u32)
    }

    const fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negated() {
            write!(f, "-{}", self.var() + 1)
        } else {
            write!(f, "{}", self.var() + 1)
        }
    }
}

/// The outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
}

/// Truth value of a variable during search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarValue {
    Unassigned,
    False,
    True,
}

impl VarValue {
    fn of(lit_true: bool) -> Self {
        if lit_true {
            VarValue::True
        } else {
            VarValue::False
        }
    }
}

const NO_REASON: u32 = u32::MAX;

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use cirlearn_sat::{SolveResult, Solver};
///
/// // (a | b) & (!a | b) & (!b)  is unsatisfiable
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a, b]);
/// s.add_clause(&[!a, b]);
/// s.add_clause(&[!b]);
/// assert_eq!(s.solve(), SolveResult::Unsat);
/// ```
#[derive(Debug, Default)]
pub struct Solver {
    /// Clause arena; learned clauses are appended after problem clauses.
    clauses: Vec<Vec<Lit>>,
    /// For each literal code, the clause indices watching that literal.
    watches: Vec<Vec<u32>>,
    assign: Vec<VarValue>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Clause index that implied each variable, or `NO_REASON`.
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// VSIDS.
    activity: Vec<f64>,
    var_inc: f64,
    /// Indexed max-heap of unassigned variables ordered by activity.
    heap: Vec<u32>,
    heap_pos: Vec<usize>,
    saved_phase: Vec<bool>,
    /// Set when a top-level conflict makes the instance trivially UNSAT.
    unsat: bool,
    conflicts: u64,
    /// Temporary marks for conflict analysis.
    seen: Vec<bool>,
}

const HEAP_ABSENT: usize = usize::MAX;

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            ..Solver::default()
        }
    }

    /// Allocates a fresh variable and returns its positive literal.
    pub fn new_var(&mut self) -> Lit {
        let v = self.assign.len() as u32;
        self.assign.push(VarValue::Unassigned);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_pos.push(HEAP_ABSENT);
        self.heap_insert(v);
        Lit::from_var(v, false)
    }

    /// Returns the number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Returns the number of conflicts encountered so far.
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Adds a clause. Returns `false` if the solver is already known to
    /// be unsatisfiable at the top level (the clause may then be
    /// ignored).
    ///
    /// Tautological clauses are dropped; duplicate and false-at-level-0
    /// literals are removed.
    ///
    /// Adding a clause after a `solve` call is allowed (the solver
    /// backtracks to the root level first), which is how incremental
    /// uses like fraiging interleave queries and constraints.
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backtrack_to(0);
        if self.unsat {
            return false;
        }
        let mut clause: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            assert!((l.var() as usize) < self.num_vars(), "unallocated variable");
            match self.lit_value(l) {
                VarValue::True => return true, // satisfied at level 0
                VarValue::False => continue,   // falsified at level 0: drop literal
                VarValue::Unassigned => {
                    if clause.contains(&!l) {
                        return true; // tautology
                    }
                    if !clause.contains(&l) {
                        clause.push(l);
                    }
                }
            }
        }
        match clause.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(clause[0], NO_REASON);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(clause);
                true
            }
        }
    }

    /// Solves the formula.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// Assumptions are temporary: they constrain only this call. After
    /// `Sat`, [`Solver::value`] reads the model; after `Unsat` under
    /// nonempty assumptions, the formula itself may still be
    /// satisfiable.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.unsat {
            return SolveResult::Unsat;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SolveResult::Unsat;
        }

        let mut restart_idx = 0u32;
        let mut conflicts_until_restart = 100 * luby(restart_idx);
        let result = loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                if self.trail_lim.is_empty() {
                    self.unsat = true;
                    break SolveResult::Unsat;
                }
                self.analyze_and_learn(conflict);
                if self.conflicts >= conflicts_until_restart {
                    restart_idx += 1;
                    conflicts_until_restart = self.conflicts + 100 * luby(restart_idx);
                    self.backtrack_to(0);
                }
            } else if self.trail_lim.len() < assumptions.len() {
                // (Re-)establish the next assumption as a decision.
                let a = assumptions[self.trail_lim.len()];
                match self.lit_value(a) {
                    VarValue::False => break SolveResult::Unsat,
                    VarValue::True => {
                        // Already implied; open an empty level to keep
                        // assumption indexing aligned.
                        self.trail_lim.push(self.trail.len());
                    }
                    VarValue::Unassigned => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(a, NO_REASON);
                    }
                }
            } else {
                match self.pick_branch_var() {
                    None => break SolveResult::Sat,
                    Some(v) => {
                        let phase = self.saved_phase[v as usize];
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(Lit::from_var(v, !phase), NO_REASON);
                    }
                }
            }
        };
        if result == SolveResult::Sat {
            // Save phases for the next call, keep the model readable.
            for v in 0..self.num_vars() {
                self.saved_phase[v] = self.assign[v] == VarValue::True;
            }
        }
        result
    }

    /// Returns the model value of a literal after a `Sat` answer.
    ///
    /// Unassigned variables (possible when the formula does not
    /// constrain them) read as `false`.
    pub fn value(&self, lit: Lit) -> bool {
        matches!(self.lit_value(lit), VarValue::True)
    }

    // ----- internals -------------------------------------------------

    fn lit_value(&self, l: Lit) -> VarValue {
        // panic-ok: literals are validated against `num_vars` when
        // clauses are added; `assign` holds one slot per variable.
        match self.assign[l.var() as usize] {
            VarValue::Unassigned => VarValue::Unassigned,
            VarValue::True => VarValue::of(!l.is_negated()),
            VarValue::False => VarValue::of(l.is_negated()),
        }
    }

    fn attach_clause(&mut self, clause: Vec<Lit>) -> u32 {
        debug_assert!(clause.len() >= 2);
        let idx = self.clauses.len() as u32;
        self.watches[clause[0].code()].push(idx);
        self.watches[clause[1].code()].push(idx);
        self.clauses.push(clause);
        idx
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.lit_value(l), VarValue::Unassigned);
        let v = l.var() as usize;
        self.assign[v] = VarValue::of(!l.is_negated());
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation. Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut keep = 0;
            let mut conflict = None;
            let mut i = 0;
            while i < watch_list.len() {
                let ci = watch_list[i];
                i += 1;
                let first = {
                    let clause = &mut self.clauses[ci as usize];
                    // Normalize: watched false literal in slot 1.
                    if clause[0] == false_lit {
                        clause.swap(0, 1);
                    }
                    debug_assert_eq!(clause[1], false_lit);
                    clause[0]
                };
                if self.lit_value_of(first) == VarValue::True {
                    watch_list[keep] = ci;
                    keep += 1;
                    continue;
                }
                // Look for a replacement watch.
                let mut replaced = false;
                let clause_len = self.clauses[ci as usize].len();
                for k in 2..clause_len {
                    let q = self.clauses[ci as usize][k];
                    if self.lit_value_of(q) != VarValue::False {
                        self.clauses[ci as usize].swap(1, k);
                        self.watches[q.code()].push(ci);
                        replaced = true;
                        break;
                    }
                }
                if replaced {
                    continue;
                }
                // No replacement: clause is unit or conflicting.
                watch_list[keep] = ci;
                keep += 1;
                if self.lit_value_of(first) == VarValue::False {
                    // Conflict: keep the remaining watches and stop.
                    while i < watch_list.len() {
                        watch_list[keep] = watch_list[i];
                        keep += 1;
                        i += 1;
                    }
                    conflict = Some(ci);
                    break;
                }
                self.enqueue(first, ci);
            }
            watch_list.truncate(keep);
            self.watches[false_lit.code()] = watch_list;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// `lit_value` without borrowing `self` mutably elsewhere.
    fn lit_value_of(&self, l: Lit) -> VarValue {
        self.lit_value(l)
    }

    /// First-UIP conflict analysis; learns the asserting clause,
    /// backjumps and enqueues the asserting literal.
    ///
    /// The caller must guarantee the conflict happened at a positive
    /// decision level.
    fn analyze_and_learn(&mut self, conflict: u32) {
        let current_level = self.trail_lim.len() as u32;
        debug_assert!(current_level > 0);
        let mut learnt: Vec<Lit> = vec![Lit::from_var(0, false)]; // slot for UIP
        let mut counter = 0usize;
        let mut trail_idx = self.trail.len();
        let mut reason_clause = conflict;
        let mut uip = None;

        loop {
            for k in 0..self.clauses[reason_clause as usize].len() {
                let q = self.clauses[reason_clause as usize][k];
                // Skip the implied literal itself when expanding a
                // reason clause (it is the one being resolved on).
                if Some(q) == uip {
                    continue;
                }
                let v = q.var() as usize;
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                self.seen[v] = true;
                self.bump_var(q.var());
                if self.level[v] == current_level {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Find the next marked literal on the trail.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var() as usize] {
                    break;
                }
            }
            let p = self.trail[trail_idx];
            self.seen[p.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                uip = Some(p);
                break;
            }
            reason_clause = self.reason[p.var() as usize];
            debug_assert_ne!(reason_clause, NO_REASON);
            uip = Some(p);
        }
        let uip = uip.expect("conflict at positive level has a UIP");
        learnt[0] = !uip;

        // Learned-clause minimization (local/basic form): a non-UIP
        // literal is redundant when every literal of its reason clause
        // is itself in the learnt clause (still `seen`) or assigned at
        // level 0 — resolving it away cannot introduce anything new.
        let minimized: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| {
                let reason = self.reason[l.var() as usize];
                if reason == NO_REASON {
                    return true; // a decision: cannot be resolved away
                }
                !self.clauses[reason as usize].iter().all(|&q| {
                    q.var() == l.var()
                        || self.seen[q.var() as usize]
                        || self.level[q.var() as usize] == 0
                })
            })
            .collect();

        // Clear marks of the remaining literals (before truncation so
        // dropped literals are unmarked too).
        for l in &learnt[1..] {
            self.seen[l.var() as usize] = false;
        }
        learnt.truncate(1);
        learnt.extend(minimized);

        // Backjump level = second highest level in the learnt clause.
        let backjump = learnt[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        debug_assert!(backjump < current_level);
        self.backtrack_to(backjump);
        self.decay_activities();

        if learnt.len() == 1 {
            self.enqueue(learnt[0], NO_REASON);
        } else {
            // Watch the asserting literal and one literal of the
            // backjump level.
            let max_pos = learnt[1..]
                .iter()
                .enumerate()
                .max_by_key(|(_, l)| self.level[l.var() as usize])
                .map(|(i, _)| i + 1)
                .expect("len >= 2");
            learnt.swap(1, max_pos);
            let assert_lit = learnt[0];
            let ci = self.attach_clause(learnt);
            self.enqueue(assert_lit, ci);
        }
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("nonempty");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("nonempty");
                let v = l.var() as usize;
                self.saved_phase[v] = self.assign[v] == VarValue::True;
                self.assign[v] = VarValue::Unassigned;
                self.reason[v] = NO_REASON;
                self.heap_insert(l.var());
            }
        }
        // Entries below the popped levels were propagated before the
        // next decision was made, but a literal enqueued at the target
        // level (a learned unit followed by a restart) may still be
        // pending: never move the queue head forward here.
        self.qhead = self.qhead.min(self.trail.len());
    }

    fn pick_branch_var(&mut self) -> Option<u32> {
        while let Some(v) = self.heap_pop() {
            if self.assign[v as usize] == VarValue::Unassigned {
                return Some(v);
            }
        }
        None
    }

    fn bump_var(&mut self, v: u32) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap_update(v);
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
    }

    // ----- indexed binary max-heap ------------------------------------

    fn heap_less(&self, a: u32, b: u32) -> bool {
        self.activity[a as usize] > self.activity[b as usize]
    }

    fn heap_insert(&mut self, v: u32) {
        if self.heap_pos[v as usize] != HEAP_ABSENT {
            return;
        }
        self.heap_pos[v as usize] = self.heap.len();
        self.heap.push(v);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("nonempty");
        self.heap_pos[top as usize] = HEAP_ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn heap_update(&mut self, v: u32) {
        let pos = self.heap_pos[v as usize];
        if pos != HEAP_ABSENT {
            self.heap_sift_up(pos);
        }
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i] as usize] = i;
        self.heap_pos[self.heap[j] as usize] = j;
    }
}

/// The Luby restart sequence 1,1,2,1,1,2,4,…
fn luby(i: u32) -> u64 {
    let mut k = 1u32;
    while (1u64 << k) < (i as u64 + 2) {
        k += 1;
    }
    let mut i = i;
    let mut size = (1u64 << k) - 1;
    while size > i as u64 + 1 {
        size /= 2;
        k -= 1;
        if i as u64 >= size {
            i -= size as u32;
        }
    }
    1u64 << (k - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_prefix() {
        let want = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..want.len() as u32).map(luby).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.value(a));
        assert!(!s.value(!a));
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn contradictory_units() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a]);
        s.add_clause(&[!a]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a, !a]));
        assert!(s.clauses.is_empty());
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let vars: Vec<Lit> = (0..10).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause(&[!w[0], w[1]]); // v_i -> v_{i+1}
        }
        s.add_clause(&[vars[0]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in &vars {
            assert!(s.value(*v));
        }
    }

    #[test]
    // Indexing `p[i][h]` / `p[j][h]` mirrors the constraint notation.
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: p[i][h] = pigeon i in hole h.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        for pigeon in &p {
            s.add_clause(pigeon); // every pigeon in some hole
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in i + 1..3 {
                    s.add_clause(&[!p[i][h], !p[j][h]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.num_conflicts() > 0);
    }

    #[test]
    fn xor_chain_sat_and_model() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 0 : satisfiable.
        let mut s = Solver::new();
        let x: Vec<Lit> = (0..3).map(|_| s.new_var()).collect();
        let xor = |s: &mut Solver, a: Lit, b: Lit, val: bool| {
            if val {
                s.add_clause(&[a, b]);
                s.add_clause(&[!a, !b]);
            } else {
                s.add_clause(&[!a, b]);
                s.add_clause(&[a, !b]);
            }
        };
        xor(&mut s, x[0], x[1], true);
        xor(&mut s, x[1], x[2], true);
        xor(&mut s, x[0], x[2], false);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_ne!(s.value(x[0]), s.value(x[1]));
        assert_ne!(s.value(x[1]), s.value(x[2]));
        assert_eq!(s.value(x[0]), s.value(x[2]));
    }

    #[test]
    fn xor_cycle_odd_unsat() {
        // x1^x2=1, x2^x3=1, x3^x1=1 over a cycle: parity argument fails.
        let mut s = Solver::new();
        let x: Vec<Lit> = (0..3).map(|_| s.new_var()).collect();
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            s.add_clause(&[x[a], x[b]]);
            s.add_clause(&[!x[a], !x[b]]);
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_do_not_stick() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a, b]);
        assert_eq!(s.solve_with_assumptions(&[!a, !b]), SolveResult::Unsat);
        // Still satisfiable without the assumptions.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with_assumptions(&[!a]), SolveResult::Sat);
        assert!(s.value(b));
    }

    #[test]
    fn assumption_conflicts_with_unit() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a]);
        assert_eq!(s.solve_with_assumptions(&[!a]), SolveResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[a]), SolveResult::Sat);
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        for round in 0..60 {
            let n = 8usize;
            let m = rng.gen_range(10..40);
            let clauses: Vec<Vec<(usize, bool)>> = (0..m)
                .map(|_| {
                    (0..3)
                        .map(|_| (rng.gen_range(0..n), rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();
            // Brute force.
            let mut brute_sat = false;
            for m in 0..1u32 << n {
                if clauses
                    .iter()
                    .all(|c| c.iter().any(|&(v, neg)| (m >> v & 1 == 1) != neg))
                {
                    brute_sat = true;
                    break;
                }
            }
            // Solver.
            let mut s = Solver::new();
            let vars: Vec<Lit> = (0..n).map(|_| s.new_var()).collect();
            for c in &clauses {
                let lits: Vec<Lit> = c
                    .iter()
                    .map(|&(v, neg)| if neg { !vars[v] } else { vars[v] })
                    .collect();
                s.add_clause(&lits);
            }
            let got = s.solve() == SolveResult::Sat;
            assert_eq!(got, brute_sat, "round {round}");
            if got {
                // Verify the model.
                for (i, c) in clauses.iter().enumerate() {
                    assert!(
                        c.iter().any(|&(v, neg)| s.value(vars[v]) != neg),
                        "round {round}: model violates clause {i}"
                    );
                }
            }
        }
    }

    /// A restart right after learning a unit backtracks to level 0 with
    /// the unit enqueued but not yet propagated; it must stay queued.
    #[test]
    fn root_backtrack_keeps_a_pending_unit_queued() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[!a, b]);
        s.enqueue(a, NO_REASON); // a learned unit at level 0
        s.backtrack_to(0); // the restart
        assert_eq!(s.propagate(), None);
        assert!(s.value(b), "the unit's consequence was never propagated");
    }
}
