//! Word-parallel and single-pattern simulation.
//!
//! Every multi-pattern entry point runs one kernel over a flat,
//! node-major `u64` buffer: with `w` words per node, node `i`'s words
//! sit at `i*w .. (i+1)*w`. The constant node's words stay zero, the
//! input nodes are written from the caller's patterns (a 64×64 bit
//! transpose of row-major assignments, or a copy of column vectors),
//! and the AND nodes are computed in topological order with complemented
//! fanins applied as XOR masks, so no node allocates anything.
//!
//! The kernel computes at most [`SLICE_WORDS`] words per node at a
//! time. `eval_batch` and `simulate` hold just one such slice per node,
//! so their buffer, allocated once per call, never exceeds
//! `node_count × 32` bytes however many patterns the batch holds.
//! `simulate_nodes` returns every word of every node, so its buffer
//! holds them all and the kernel walks it slice by slice.

use cirlearn_logic::{Assignment, SimVector};

use crate::{Aig, Edge};

/// Words per node in one simulation slice (256 patterns).
const SLICE_WORDS: usize = 4;

impl Aig {
    /// Simulates the whole graph on a block of patterns, returning one
    /// [`SimVector`] per node (indexed by node id).
    ///
    /// `inputs[k]` holds the pattern bits of the `k`-th primary input.
    /// All input vectors must have the same pattern count.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs` or pattern counts differ.
    pub fn simulate_nodes(&self, inputs: &[SimVector]) -> Vec<SimVector> {
        let patterns = self.check_columns(inputs);
        let words = patterns.div_ceil(64);
        if words == 0 {
            return (0..self.node_count())
                .map(|_| SimVector::zeros(0))
                .collect();
        }
        // The result holds every word of every node anyway, so the
        // buffer does too (`words` per node); the kernel walks it one
        // slice of words at a time.
        let mut buf = vec![0; self.node_count() * words];
        if let Some(dst) = buf.get_mut(words..) {
            fill_columns(inputs, 0, words, dst);
        }
        for offset in (0..words).step_by(SLICE_WORDS) {
            self.and_words(&mut buf, words, offset, (words - offset).min(SLICE_WORDS));
        }
        buf.chunks_exact(words)
            .map(|node| SimVector::from_words(node.to_vec(), patterns))
            .collect()
    }

    /// Simulates the graph on a block of patterns, returning one
    /// [`SimVector`] per primary output.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs` or pattern counts differ.
    pub fn simulate(&self, inputs: &[SimVector]) -> Vec<SimVector> {
        let patterns = self.check_columns(inputs);
        let words = patterns.div_ceil(64);
        let mut outputs: Vec<Vec<u64>> = self
            .outputs()
            .iter()
            .map(|_| Vec::with_capacity(words))
            .collect();
        let mut buf = self.slice_buffer(words);
        for offset in (0..words).step_by(SLICE_WORDS) {
            let w = (words - offset).min(SLICE_WORDS);
            let slice =
                self.simulate_slice(&mut buf, w, |dst| fill_columns(inputs, offset, w, dst));
            for (out, (e, _)) in outputs.iter_mut().zip(self.outputs()) {
                out.extend((0..w).map(|k| edge_word(slice, *e, w, k)));
            }
        }
        outputs
            .into_iter()
            .map(|words| SimVector::from_words(words, patterns))
            .collect()
    }

    /// Simulates a batch of full assignments, returning the output bits
    /// of each assignment in order.
    ///
    /// This is the access pattern of a black-box oracle: rows in, rows
    /// out. Internally each block of 64 rows is bit-transposed into
    /// input words, and the output bits of each row are read straight
    /// from the output nodes' words.
    ///
    /// # Panics
    ///
    /// Panics if any assignment is not exactly `num_inputs` wide.
    pub fn eval_batch(&self, patterns: &[Assignment]) -> Vec<Vec<bool>> {
        for p in patterns {
            // panic-ok: documented `# Panics` contract guard, once per
            // row (not per bit).
            assert_eq!(p.len(), self.num_inputs(), "wrong assignment width");
        }
        let mut rows = Vec::with_capacity(patterns.len());
        let mut out_words = Vec::with_capacity(self.num_outputs());
        let mut buf = self.slice_buffer(patterns.len().div_ceil(64));
        for slice_rows in patterns.chunks(64 * SLICE_WORDS) {
            let w = slice_rows.len().div_ceil(64);
            let slice = self.simulate_slice(&mut buf, w, |dst| fill_rows(slice_rows, w, dst));
            for (k, block) in slice_rows.chunks(64).enumerate() {
                out_words.clear();
                out_words.extend(
                    self.outputs()
                        .iter()
                        .map(|(e, _)| edge_word(slice, *e, w, k)),
                );
                rows.extend((0..block.len()).map(|r| {
                    out_words
                        .iter()
                        .map(|word| word >> r & 1 == 1)
                        .collect::<Vec<bool>>()
                }));
            }
        }
        rows
    }

    /// Evaluates all outputs on one full assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is not exactly `num_inputs` wide.
    pub fn eval(&self, assignment: &Assignment) -> Vec<bool> {
        let bits: Vec<bool> = assignment.iter().collect();
        self.eval_bits(&bits)
    }

    /// Checks the column-vector contract and returns the pattern count.
    fn check_columns(&self, inputs: &[SimVector]) -> usize {
        // panic-ok: documented `# Panics` contract guard, once per
        // simulated block (not per pattern).
        assert_eq!(inputs.len(), self.num_inputs(), "wrong input count");
        let patterns = inputs.first().map_or(0, SimVector::len);
        for v in inputs {
            // panic-ok: documented `# Panics` contract guard, once per
            // input vector.
            assert_eq!(v.len(), patterns, "pattern counts differ across inputs");
        }
        patterns
    }

    /// A zeroed node buffer for a batch of `words` pattern words: one
    /// slice wide at most.
    fn slice_buffer(&self, words: usize) -> Vec<u64> {
        vec![0; self.node_count() * words.min(SLICE_WORDS)]
    }

    /// Simulates one slice of `w ≤ SLICE_WORDS` words per node in the
    /// front of `buf` and returns that node-major view.
    ///
    /// `fill` writes the input nodes' words: input `k` at
    /// `k*w .. (k+1)*w` of the region it is handed. The constant node's
    /// words are never written, so they keep the zeros `buf` was
    /// created with; slices only narrow (all but the last are full), so
    /// a narrower slice's constant words lie inside an earlier one's.
    fn simulate_slice<'b>(
        &self,
        buf: &'b mut [u64],
        w: usize,
        fill: impl FnOnce(&mut [u64]),
    ) -> &'b [u64] {
        let nodes = buf.get_mut(..self.node_count() * w).unwrap_or_default();
        if let Some(inputs) = nodes.get_mut(w..(self.num_inputs() + 1) * w) {
            fill(inputs);
        }
        self.and_words(nodes, w, 0, w);
        nodes
    }

    /// Runs the kernel on words `offset .. offset + w` (`w ≤
    /// SLICE_WORDS`) of every node in a node-major buffer holding
    /// `stride` words per node.
    fn and_words(&self, buf: &mut [u64], stride: usize, offset: usize, w: usize) {
        match w {
            1 => self.and_pass::<1>(buf, stride, offset),
            2 => self.and_pass::<2>(buf, stride, offset),
            3 => self.and_pass::<3>(buf, stride, offset),
            _ => self.and_pass::<SLICE_WORDS>(buf, stride, offset),
        }
    }

    /// The kernel: computes `W` words of every AND node from the same
    /// words of its fanins, which precede it in the buffer (topological
    /// order).
    fn and_pass<const W: usize>(&self, buf: &mut [u64], stride: usize, offset: usize) {
        let at = |node: usize| node * stride + offset;
        let first = self.num_inputs() + 1;
        for (k, &[a, b]) in self.and_fanins().iter().enumerate() {
            let fanin = |e: Edge| {
                let words = buf.get(at(e.node().index())..)?.first_chunk::<W>()?;
                let mask = complement_mask(e);
                Some(words.map(|word| word ^ mask))
            };
            let (Some(x), Some(y)) = (fanin(a), fanin(b)) else {
                continue;
            };
            if let Some(slot) = buf
                .get_mut(at(first + k)..)
                .and_then(<[u64]>::first_chunk_mut::<W>)
            {
                for ((v, p), q) in slot.iter_mut().zip(x).zip(y) {
                    *v = p & q;
                }
            }
        }
    }
}

/// All ones for a complemented edge, zero otherwise.
fn complement_mask(e: Edge) -> u64 {
    0u64.wrapping_sub(u64::from(e.is_complemented()))
}

/// Word `k` of edge `e` in a node-major buffer of `w` words per node.
fn edge_word(nodes: &[u64], e: Edge, w: usize, k: usize) -> u64 {
    nodes
        .get(e.node().index() * w + k)
        .map_or(0, |word| word ^ complement_mask(e))
}

/// Copies words `offset .. offset + w` of each column vector into its
/// input node's words.
fn fill_columns(inputs: &[SimVector], offset: usize, w: usize, dst: &mut [u64]) {
    for (node, column) in dst.chunks_exact_mut(w).zip(inputs) {
        for (word, src) in node.iter_mut().zip(column.words().iter().skip(offset)) {
            *word = *src;
        }
    }
}

/// Writes the input nodes' words for up to `64 * w` row-major patterns:
/// each block of 64 rows and 64 inputs is one 64×64 bit transpose.
/// Rows past the end of `rows` simulate as all-zero patterns.
fn fill_rows(rows: &[Assignment], w: usize, dst: &mut [u64]) {
    for (group, nodes) in dst.chunks_mut(64 * w).enumerate() {
        for (k, block) in rows.chunks(64).enumerate() {
            let mut matrix = [0u64; 64];
            for (line, row) in matrix.iter_mut().zip(block) {
                *line = row.words().get(group).copied().unwrap_or(0);
            }
            transpose64(&mut matrix);
            for (node, &column) in nodes.chunks_exact_mut(w).zip(&matrix) {
                if let Some(word) = node.get_mut(k) {
                    *word = column;
                }
            }
        }
    }
}

/// Transposes a 64×64 bit matrix in place: bit `c` of word `r` moves
/// to bit `r` of word `c`.
///
/// Recursive block swap: at block size `j` (32, 16, .., 1) the
/// top-right `j×j` quarter of every `2j×2j` block trades places with
/// the bottom-left one.
fn transpose64(matrix: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        for block in matrix.chunks_exact_mut(2 * j) {
            let (top, bottom) = block.split_at_mut(j);
            for (x, y) in top.iter_mut().zip(bottom) {
                let t = ((*x >> j) ^ *y) & mask;
                *x ^= t << j;
                *y ^= t;
            }
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirlearn_logic::Var;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_aig() -> Aig {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let ab = g.xor(a, b);
        let f = g.mux(c, ab, !a);
        g.add_output(f, "f");
        g.add_output(!ab, "g");
        g
    }

    #[test]
    fn simulate_matches_eval_bits() {
        let g = sample_aig();
        let mut rng = StdRng::seed_from_u64(11);
        let patterns: Vec<Assignment> = (0..200).map(|_| Assignment::random(3, &mut rng)).collect();
        let batch = g.eval_batch(&patterns);
        for (row, p) in patterns.iter().enumerate() {
            let bits: Vec<bool> = p.iter().collect();
            assert_eq!(batch[row], g.eval_bits(&bits), "row {row}");
        }
    }

    #[test]
    fn eval_matches_eval_bits() {
        let g = sample_aig();
        let mut a = Assignment::zeros(3);
        a.set(Var::new(1), true);
        assert_eq!(g.eval(&a), g.eval_bits(&[false, true, false]));
    }

    #[test]
    fn simulate_complemented_output() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        g.add_output(!a, "na");
        let inputs = vec![SimVector::from_bits([true, false, true])];
        let out = g.simulate(&inputs);
        assert_eq!(out[0].iter().collect::<Vec<_>>(), vec![false, true, false]);
        // The complement does not leak into the bits past the last pattern.
        assert_eq!(out[0].count_ones(), 1);
    }

    #[test]
    fn empty_pattern_block() {
        let g = sample_aig();
        let out = g.eval_batch(&[]);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "wrong input count")]
    fn wrong_input_count_panics() {
        let g = sample_aig();
        g.simulate(&[SimVector::zeros(4)]);
    }

    #[test]
    #[should_panic(expected = "wrong assignment width")]
    fn wrong_assignment_width_panics() {
        let g = sample_aig();
        g.eval_batch(&[Assignment::zeros(4)]);
    }

    #[test]
    fn transpose_moves_bit_r_c_to_c_r() {
        for (r, c) in [
            (0, 0),
            (0, 63),
            (63, 0),
            (5, 40),
            (40, 5),
            (31, 32),
            (63, 63),
        ] {
            let mut m = [0u64; 64];
            m[r] = 1 << c;
            transpose64(&mut m);
            for (row, word) in m.iter().enumerate() {
                let expect = if row == c { 1u64 << r } else { 0 };
                assert_eq!(*word, expect, "bit ({r}, {c}) landed wrong in row {row}");
            }
        }
    }

    #[test]
    fn transpose_is_an_involution() {
        let mut rng = StdRng::seed_from_u64(64);
        for _ in 0..16 {
            let original: [u64; 64] = std::array::from_fn(|_| rng.gen());
            let mut m = original;
            transpose64(&mut m);
            for (r, row) in original.iter().enumerate() {
                for (c, column) in m.iter().enumerate() {
                    assert_eq!(column >> r & 1, row >> c & 1, "({r}, {c})");
                }
            }
            transpose64(&mut m);
            assert_eq!(m, original);
        }
    }
}
