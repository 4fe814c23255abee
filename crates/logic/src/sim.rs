//! Bit-parallel simulation vectors.

use rand::Rng;

/// A bit-parallel simulation value: one bit per simulated pattern,
/// packed 64 patterns per word.
///
/// Simulating a circuit with `SimVector`s evaluates 64 input patterns
/// per word operation — the standard trick used by fraiging and by the
/// accuracy evaluator.
///
/// # Examples
///
/// ```
/// use cirlearn_logic::SimVector;
///
/// let a = SimVector::from_bits([true, true, false, false]);
/// let b = SimVector::from_bits([true, false, true, false]);
/// let mut c = a.clone();
/// c.and_assign(&b);
/// assert_eq!(c.bit(0), true);
/// assert_eq!(c.bit(1), false);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SimVector {
    words: Vec<u64>,
    len: usize,
}

impl SimVector {
    /// Creates an all-zero vector of `len` patterns.
    pub fn zeros(len: usize) -> Self {
        SimVector {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-one vector of `len` patterns.
    pub fn ones(len: usize) -> Self {
        let mut v = SimVector {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Creates a vector from explicit pattern bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut v = SimVector::zeros(0);
        for bit in bits {
            v.push(bit);
        }
        v
    }

    /// Creates a uniformly random vector of `len` patterns.
    pub fn random<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        let mut v = SimVector {
            words: (0..len.div_ceil(64)).map(|_| rng.gen()).collect(),
            len,
        };
        v.mask_tail();
        v
    }

    /// Creates a vector of `len` patterns from packed words, pattern `k`
    /// at bit `k % 64` of word `k / 64`. Missing words read as zero,
    /// extra words are dropped, and bits past `len` are cleared.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(len.div_ceil(64), 0);
        let mut v = SimVector { words, len };
        v.mask_tail();
        v
    }

    /// Returns the number of patterns.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the raw words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns the bit of pattern `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ len`.
    pub fn bit(&self, k: usize) -> bool {
        // panic-ok: documented `# Panics` contract guard.
        assert!(
            k < self.len,
            "pattern {k} out of range ({} patterns)",
            self.len
        );
        // panic-ok: `k < len` implies `k / 64 < words.len()`.
        self.words[k / 64] >> (k % 64) & 1 == 1
    }

    /// Appends one pattern bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            // panic-ok: the branch above pushed a limb whenever
            // `len % 64 == 0`, so `words` is non-empty here.
            *self.words.last_mut().expect("just ensured") |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Returns the number of 1 bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place bitwise AND with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &SimVector) {
        self.assert_same_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place bitwise OR with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_assign(&mut self, other: &SimVector) {
        self.assert_same_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place bitwise XOR with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &SimVector) {
        self.assert_same_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// In-place bitwise complement.
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Iterates over the pattern bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |k| self.bit(k))
    }

    fn assert_same_len(&self, other: &SimVector) {
        // panic-ok: bitwise-op contract guard, once per vector op (not
        // per bit) — mixing pattern counts is a construction bug.
        assert_eq!(
            self.len, other.len,
            "simulation vectors have different pattern counts"
        );
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

impl FromIterator<bool> for SimVector {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        SimVector::from_bits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn push_and_bit() {
        let mut v = SimVector::zeros(0);
        for k in 0..130 {
            v.push(k % 3 == 0);
        }
        assert_eq!(v.len(), 130);
        for k in 0..130 {
            assert_eq!(v.bit(k), k % 3 == 0);
        }
    }

    #[test]
    fn ones_masks_tail() {
        let v = SimVector::ones(70);
        assert_eq!(v.count_ones(), 70);
    }

    #[test]
    fn bitwise_ops() {
        let a = SimVector::from_bits((0..100).map(|k| k % 2 == 0));
        let b = SimVector::from_bits((0..100).map(|k| k % 3 == 0));
        let mut and = a.clone();
        and.and_assign(&b);
        let mut or = a.clone();
        or.or_assign(&b);
        let mut xor = a.clone();
        xor.xor_assign(&b);
        for k in 0..100 {
            let (x, y) = (k % 2 == 0, k % 3 == 0);
            assert_eq!(and.bit(k), x && y);
            assert_eq!(or.bit(k), x || y);
            assert_eq!(xor.bit(k), x != y);
        }
    }

    #[test]
    fn not_respects_tail() {
        let mut v = SimVector::zeros(70);
        v.not_assign();
        assert_eq!(v.count_ones(), 70);
    }

    #[test]
    fn from_words_masks_and_resizes() {
        let v = SimVector::from_words(vec![!0, !0, 7], 70);
        assert_eq!(v.words().len(), 2);
        assert_eq!(v.count_ones(), 70);
        let short = SimVector::from_words(vec![1], 130);
        assert_eq!(short.words(), &[1, 0, 0]);
        assert_eq!(SimVector::from_words(Vec::new(), 0), SimVector::zeros(0));
    }

    #[test]
    fn random_reproducible() {
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        assert_eq!(
            SimVector::random(200, &mut r1),
            SimVector::random(200, &mut r2)
        );
    }

    #[test]
    #[should_panic(expected = "different pattern counts")]
    fn mismatched_lengths_panic() {
        let mut a = SimVector::zeros(10);
        a.and_assign(&SimVector::zeros(11));
    }
}
