//! The function of a node over a cut, by walking the node's cone.
//!
//! Both cut-based passes need a cut's function as a truth table:
//! [`rewrite`](crate::rewrite()) over ≤ 4 leaves in a `u16`,
//! [`refactor`](crate::refactor()) over ≤ 10 leaves in a [`WordTable`]. The
//! walk is the same for both: it starts at the root, stops at the first
//! leaf on every path and visits each cone node once. Its per-node
//! buffers live across walks, so one pass allocates them once.

use cirlearn_aig::{Aig, NodeId};

/// A truth table the cone walk can combine: constant false, complement
/// and conjunction, pointwise over all minterms.
pub(crate) trait ConeTable: Copy {
    /// The constant-false table.
    const FALSE: Self;
    /// The complemented table.
    fn complement(self) -> Self;
    /// The pointwise AND of two tables.
    fn conjoin(self, other: Self) -> Self;
}

impl ConeTable for u16 {
    const FALSE: u16 = 0;

    fn complement(self) -> u16 {
        !self
    }

    fn conjoin(self, other: u16) -> u16 {
        self & other
    }
}

/// Words of a [`WordTable`]: 2^10 minterms at 64 per word.
pub(crate) const TABLE_WORDS: usize = 16;

/// A truth table over up to 10 variables, minterm `m` at bit `m % 64` of
/// word `m / 64`. A function of fewer variables repeats across the
/// unused ones, so every table is a full 10-variable table.
pub(crate) type WordTable = [u64; TABLE_WORDS];

impl ConeTable for WordTable {
    const FALSE: WordTable = [0; TABLE_WORDS];

    fn complement(self) -> WordTable {
        self.map(|w| !w)
    }

    fn conjoin(self, other: WordTable) -> WordTable {
        std::array::from_fn(|i| self[i] & other[i])
    }
}

/// Evaluates nodes over cuts by walking their cones, memoising per node
/// in buffers reused across walks.
pub(crate) struct ConeEval<T> {
    /// `tables[slot[i]]` is node `i`'s table in the current walk iff
    /// `stamp[i] == walk`.
    slot: Vec<u32>,
    stamp: Vec<u32>,
    walk: u32,
    /// Tables of the current walk's nodes, in the order they were
    /// reached; only as long as the largest cone.
    tables: Vec<T>,
}

impl<T: ConeTable> ConeEval<T> {
    pub(crate) fn new(aig: &Aig) -> ConeEval<T> {
        ConeEval {
            slot: vec![0; aig.node_count()],
            stamp: vec![0; aig.node_count()],
            walk: 0,
            tables: Vec::new(),
        }
    }

    /// The function of `root` given each leaf's table. The walk stops at
    /// the first leaf on every path, so a leaf inside another leaf's cone
    /// hides the nodes below it. The leaves must cut every path from
    /// `root` to the inputs; the constant node reads as false unless it
    /// is a leaf.
    pub(crate) fn cone_table(
        &mut self,
        aig: &Aig,
        root: NodeId,
        leaves: impl IntoIterator<Item = (NodeId, T)>,
    ) -> T {
        self.walk += 1;
        self.tables.clear();
        for (leaf, table) in leaves {
            self.set_node_table(leaf, table);
        }
        let root_slot = self.slot_of(aig, root);
        self.tables[root_slot]
    }

    fn set_node_table(&mut self, node: NodeId, table: T) -> usize {
        let slot = self.tables.len();
        self.tables.push(table);
        self.slot[node.index()] = slot as u32;
        self.stamp[node.index()] = self.walk;
        slot
    }

    fn slot_of(&mut self, aig: &Aig, node: NodeId) -> usize {
        if self.stamp[node.index()] == self.walk {
            return self.slot[node.index()] as usize;
        }
        if node == NodeId::CONST {
            return self.set_node_table(node, T::FALSE);
        }
        debug_assert!(aig.is_and(node), "cut leaves must cover all inputs");
        let [a, b] = aig.fanins(node);
        let sa = self.slot_of(aig, a.node());
        let sb = self.slot_of(aig, b.node());
        let edge_table = |slot: usize, complemented: bool| {
            let t = self.tables[slot];
            if complemented {
                t.complement()
            } else {
                t
            }
        };
        let t = edge_table(sa, a.is_complemented()).conjoin(edge_table(sb, b.is_complemented()));
        self.set_node_table(node, t)
    }
}
