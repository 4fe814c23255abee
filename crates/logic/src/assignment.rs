//! The packed bit vector: full assignments to a set of Boolean
//! variables, and simulation columns.

use std::fmt;

use rand::Rng;

use crate::{Cube, Var};

/// A packed bit vector of `len` bits, 64 per word: bit `k` is bit
/// `k % 64` of word `k / 64`, and bits past `len` are zero.
///
/// Bit `k` is either variable `x_k` of a full assignment
/// `α : X → B` to `x0 .. x(n-1)`, or pattern `k` of one simulated
/// signal: bit-parallel simulation (fraiging, equivalence checking,
/// accuracy evaluation) holds one `Assignment` per signal and evaluates
/// 64 patterns per word operation.
///
/// Assignments are the only thing a black-box IO generator accepts, so
/// this type is optimized for fast random generation (optionally biased
/// toward 0s or 1s, as the paper's uneven-ratio sampling requires) and for
/// being constrained to satisfy a [`Cube`].
///
/// # Examples
///
/// ```
/// use cirlearn_logic::{Assignment, Var};
///
/// let mut a = Assignment::zeros(8);
/// a.set(Var::new(3), true);
/// assert!(a.get(Var::new(3)));
/// assert_eq!(a.count_ones(), 1);
/// ```
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Assignment {
    words: Vec<u64>,
    len: usize,
}

impl Clone for Assignment {
    #[inline]
    fn clone(&self) -> Self {
        Assignment {
            words: self.words.clone(),
            len: self.len,
        }
    }

    /// Copies `source` into `self`, reusing `self`'s word storage — how
    /// sampling refills a reused pattern block without allocating.
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl Assignment {
    /// Creates an all-zero assignment over `len` variables.
    pub fn zeros(len: usize) -> Self {
        Assignment {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-one assignment over `len` variables.
    pub fn ones(len: usize) -> Self {
        let mut a = Assignment {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        a.mask_tail();
        a
    }

    /// Creates an assignment from an iterator of bits, least variable first.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut words = Vec::new();
        let mut len = 0;
        for bit in bits {
            if len % 64 == 0 {
                words.push(0);
            }
            if bit {
                *words.last_mut().expect("just pushed") |= 1u64 << (len % 64);
            }
            len += 1;
        }
        Assignment { words, len }
    }

    /// Creates an assignment of `len` bits from packed words, bit `k` at
    /// bit `k % 64` of word `k / 64`. Missing words read as zero, extra
    /// words are dropped, and bits past `len` are cleared.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(len.div_ceil(64), 0);
        let mut a = Assignment { words, len };
        a.mask_tail();
        a
    }

    /// Creates a uniformly random assignment over `len` variables.
    pub fn random<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        let mut a = Assignment::zeros(len);
        a.redraw(rng);
        a
    }

    /// Redraws every variable uniformly at random in place, one `u64`
    /// draw per word: the same draws and bits as
    /// [`Assignment::random`] over `self.len()` variables, without
    /// allocating.
    pub fn redraw<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for w in &mut self.words {
            *w = rng.gen();
        }
        self.mask_tail();
    }

    /// Creates a random assignment where each variable is 1 independently
    /// with probability `ratio`.
    ///
    /// This implements the paper's *uneven-ratio* sampling: some outputs
    /// only reveal their input dependencies under skewed input
    /// distributions, so support identification mixes even and uneven
    /// ratios.
    ///
    /// Variable `i` takes the value `rng.gen_bool(ratio)` would give on
    /// the `i`-th draw, but each `u64` word is built from 64 consecutive
    /// draws with an integer threshold: the vendored `gen_bool(p)` tests
    /// `(x >> 11) as f64 · 2⁻⁵³ < p` on one draw `x`, and since scaling
    /// by 2⁵³ is exact that is the same test as `(x >> 11) < ceil(p · 2⁵³)`.
    /// So the bits, the number of draws and the generator's position
    /// afterwards all match a per-bit `gen_bool` loop; the
    /// `biased_draws_match_per_bit_gen_bool` test guards this.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not in `[0, 1]`.
    pub fn random_biased<R: Rng + ?Sized>(len: usize, ratio: f64, rng: &mut R) -> Self {
        let mut a = Assignment::zeros(len);
        a.redraw_biased(ratio, rng);
        a
    }

    /// Redraws every variable in place, each 1 independently with
    /// probability `ratio`: the same draws and bits as
    /// [`Assignment::random_biased`] over `self.len()` variables, without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not in `[0, 1]`.
    pub fn redraw_biased<R: Rng + ?Sized>(&mut self, ratio: f64, rng: &mut R) {
        // panic-ok: documented `# Panics` contract guard, once per
        // assignment draw.
        assert!(
            (0.0..=1.0).contains(&ratio),
            "bias ratio {ratio} outside [0, 1]"
        );
        // At most 2^53, so the cast is exact.
        let threshold = (ratio * (1u64 << 53) as f64).ceil() as u64;
        let mut left = self.len;
        for w in &mut self.words {
            let bits = left.min(64);
            left -= bits;
            let mut word = 0u64;
            for b in 0..bits {
                let x: u64 = rng.gen();
                word |= u64::from(x >> 11 < threshold) << b;
            }
            *w = word;
        }
    }

    /// Returns the number of variables in this assignment.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the assignment covers no variables.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the packed words: variable `i` is bit `i % 64` of word
    /// `i / 64`, and bits past `len` are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns the value assigned to `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn get(&self, var: Var) -> bool {
        let i = var.index() as usize;
        // panic-ok: documented `# Panics` contract guard.
        assert!(
            i < self.len,
            "variable {var} out of range ({} vars)",
            self.len
        );
        // panic-ok: `i < len` above implies `i / 64 < words.len()`
        // (words holds ceil(len / 64) limbs).
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets the value assigned to `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set(&mut self, var: Var, value: bool) {
        let i = var.index() as usize;
        // panic-ok: documented `# Panics` contract guard.
        assert!(
            i < self.len,
            "variable {var} out of range ({} vars)",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if value {
            // panic-ok: `i < len` implies `i / 64 < words.len()`.
            self.words[i / 64] |= mask;
        } else {
            // panic-ok: `i < len` implies `i / 64 < words.len()`.
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips the value assigned to `var`.
    ///
    /// Together with [`Assignment::get`], this implements the paper's
    /// `α_i` / `α_{¬i}` pair: querying an oracle before and after a flip
    /// reveals whether the output depends on `var` at this point.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn flip(&mut self, var: Var) {
        let i = var.index() as usize;
        // panic-ok: documented `# Panics` contract guard.
        assert!(
            i < self.len,
            "variable {var} out of range ({} vars)",
            self.len
        );
        // panic-ok: `i < len` implies `i / 64 < words.len()`.
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Returns a copy of this assignment with `var` set to `value`
    /// (the paper's `α_v` / `α_{¬v}` notation).
    #[must_use]
    pub fn with(&self, var: Var, value: bool) -> Self {
        let mut a = self.clone();
        a.set(var, value);
        a
    }

    /// Returns the number of variables assigned 1.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if this assignment satisfies every literal of `cube`.
    ///
    /// # Panics
    ///
    /// Panics if the cube mentions a variable out of range.
    pub fn satisfies(&self, cube: &Cube) -> bool {
        cube.literals().iter().all(|l| l.eval(self.get(l.var())))
    }

    /// Forces this assignment to satisfy `cube` by overwriting the
    /// variables the cube constrains.
    ///
    /// This is how the FBDT learner draws samples `α ⊨ c` for a tree node
    /// with path cube `c`: draw any random assignment, then constrain it.
    ///
    /// # Panics
    ///
    /// Panics if the cube mentions a variable out of range.
    pub fn constrain(&mut self, cube: &Cube) {
        for l in cube.literals() {
            self.set(l.var(), l.polarity());
        }
    }

    /// Reads the unsigned integer encoded by the given variables,
    /// most significant bit first (the paper's `N_v̄` notation).
    ///
    /// # Panics
    ///
    /// Panics if more than 64 variables are given or any is out of range.
    pub fn read_vector(&self, msb_first: &[Var]) -> u64 {
        assert!(msb_first.len() <= 64, "vector wider than 64 bits");
        let mut value = 0u64;
        for &v in msb_first {
            value = value << 1 | self.get(v) as u64;
        }
        value
    }

    /// Writes the unsigned integer `value` into the given variables,
    /// most significant bit first.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 variables are given or any is out of range.
    pub fn write_vector(&mut self, msb_first: &[Var], value: u64) {
        // panic-ok: documented `# Panics` contract guard, once per
        // vector write.
        assert!(msb_first.len() <= 64, "vector wider than 64 bits");
        for (k, &v) in msb_first.iter().rev().enumerate() {
            self.set(v, value >> k & 1 == 1);
        }
    }

    /// Iterates over the assigned values, least variable first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(Var::new(i as u32)))
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl fmt::Display for Assignment {
    /// Formats the assignment as a bitstring, least variable first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for bit in self.iter() {
            f.write_str(if bit { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for Assignment {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Assignment::from_bits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Literal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_ones() {
        let z = Assignment::zeros(70);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.len(), 70);
        let o = Assignment::ones(70);
        assert_eq!(o.count_ones(), 70);
    }

    #[test]
    fn set_get_flip() {
        let mut a = Assignment::zeros(130);
        let v = Var::new(127);
        a.set(v, true);
        assert!(a.get(v));
        a.flip(v);
        assert!(!a.get(v));
        a.flip(v);
        assert!(a.get(v));
        assert_eq!(a.count_ones(), 1);
    }

    #[test]
    fn with_does_not_mutate_original() {
        let a = Assignment::zeros(4);
        let b = a.with(Var::new(2), true);
        assert!(!a.get(Var::new(2)));
        assert!(b.get(Var::new(2)));
    }

    #[test]
    fn words_pack_low_variables_first() {
        let mut a = Assignment::zeros(70);
        a.set(Var::new(1), true);
        a.set(Var::new(65), true);
        assert_eq!(a.words(), &[0b10, 0b10]);
        assert_eq!(Assignment::ones(70).words(), &[!0, 0b11_1111]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Assignment::zeros(3).get(Var::new(3));
    }

    #[test]
    fn from_bits_roundtrip() {
        let bits = [true, false, true, true, false];
        let a: Assignment = bits.iter().copied().collect();
        assert_eq!(a.len(), 5);
        let back: Vec<bool> = a.iter().collect();
        assert_eq!(back, bits);
        assert_eq!(a.to_string(), "10110");
    }

    #[test]
    fn random_is_reproducible_and_masked() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = Assignment::random(100, &mut r1);
        let b = Assignment::random(100, &mut r2);
        assert_eq!(a, b);
        // count_ones must not count bits beyond len
        assert!(a.count_ones() <= 100);
    }

    #[test]
    fn random_draws_one_u64_per_word() {
        use rand::RngCore;
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        let a = Assignment::random(130, &mut r1);
        let words = vec![r2.gen::<u64>(), r2.gen::<u64>(), r2.gen::<u64>()];
        assert_eq!(a, Assignment::from_words(words, 130));
        assert_eq!(r1.next_u64(), r2.next_u64(), "stream position differs");
    }

    #[test]
    fn from_words_masks_and_resizes() {
        let a = Assignment::from_words(vec![!0, !0, 7], 70);
        assert_eq!(a.words().len(), 2);
        assert_eq!(a.count_ones(), 70);
        let short = Assignment::from_words(vec![1], 130);
        assert_eq!(short.words(), &[1, 0, 0]);
        assert_eq!(Assignment::from_words(Vec::new(), 0), Assignment::zeros(0));
    }

    #[test]
    fn biased_ratio_is_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Assignment::random_biased(10_000, 0.1, &mut rng);
        let ones = a.count_ones();
        assert!((700..1300).contains(&ones), "ones = {ones}");
        let b = Assignment::random_biased(10_000, 0.9, &mut rng);
        assert!(b.count_ones() > 8700);
    }

    #[test]
    fn biased_extremes() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(Assignment::random_biased(64, 0.0, &mut rng).count_ones(), 0);
        assert_eq!(
            Assignment::random_biased(64, 1.0, &mut rng).count_ones(),
            64
        );
    }

    /// The per-bit draw `random_biased` replaced: one `gen_bool` and
    /// one `set` per variable.
    fn per_bit_biased(len: usize, ratio: f64, rng: &mut StdRng) -> Assignment {
        let mut a = Assignment::zeros(len);
        for i in 0..len {
            if rng.gen_bool(ratio) {
                a.set(Var::new(i as u32), true);
            }
        }
        a
    }

    #[test]
    fn biased_draws_match_per_bit_gen_bool() {
        use rand::RngCore;
        let ratios = [0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.75, 0.9, 1.0];
        let widths = [1, 63, 64, 65, 102, 173];
        for seed in 0..50 {
            for &ratio in &ratios {
                for &len in &widths {
                    let mut by_word = StdRng::seed_from_u64(seed);
                    let mut by_bit = StdRng::seed_from_u64(seed);
                    let a = Assignment::random_biased(len, ratio, &mut by_word);
                    let b = per_bit_biased(len, ratio, &mut by_bit);
                    assert_eq!(a, b, "seed {seed}, ratio {ratio}, width {len}");
                    assert_eq!(
                        by_word.next_u64(),
                        by_bit.next_u64(),
                        "stream position differs: seed {seed}, ratio {ratio}, width {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn redraw_reuses_storage_and_matches_constructors() {
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let mut a = Assignment::ones(130);
        a.redraw(&mut r1);
        assert_eq!(a, Assignment::random(130, &mut r2));
        a.redraw_biased(0.25, &mut r1);
        assert_eq!(a, Assignment::random_biased(130, 0.25, &mut r2));
        let mut c = Assignment::zeros(3);
        c.clone_from(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn satisfies_and_constrain() {
        let cube = Cube::from_literals([
            Literal::new(Var::new(1), false),
            Literal::new(Var::new(3), true),
        ])
        .expect("consistent cube");
        let mut a = Assignment::zeros(5);
        assert!(!a.satisfies(&cube)); // x1 must be 1
        a.constrain(&cube);
        assert!(a.satisfies(&cube));
        assert!(a.get(Var::new(1)));
        assert!(!a.get(Var::new(3)));
    }

    #[test]
    fn empty_cube_always_satisfied() {
        let a = Assignment::zeros(3);
        assert!(a.satisfies(&Cube::top()));
    }

    #[test]
    fn vector_read_write_msb_first() {
        let vars: Vec<Var> = (0..4).map(Var::new).collect();
        let mut a = Assignment::zeros(4);
        a.write_vector(&vars, 0b1010);
        assert!(a.get(Var::new(0))); // MSB
        assert!(!a.get(Var::new(1)));
        assert!(a.get(Var::new(2)));
        assert!(!a.get(Var::new(3)));
        assert_eq!(a.read_vector(&vars), 0b1010);
    }

    #[test]
    fn vector_roundtrip_all_values() {
        let vars: Vec<Var> = (2..7).map(Var::new).collect();
        let mut a = Assignment::zeros(8);
        for value in 0..32u64 {
            a.write_vector(&vars, value);
            assert_eq!(a.read_vector(&vars), value);
        }
    }
}
