//! Internal helpers shared by the baseline partitioners.

use tlp_graph::{GraphView, VertexId};

/// Every vertex's degree in `graph`: the final degrees DBH places by.
pub(crate) fn degrees(graph: GraphView<'_>) -> Vec<u32> {
    graph.vertices().map(|v| graph.degree(v) as u32).collect()
}

/// SplitMix64: a fast, high-quality deterministic integer mixer, used where
/// a seeded stateless hash is needed (DBH, Random's per-edge draws).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The replica sets `A(v)` of every vertex (PowerGraph / HDRF terminology)
/// as one flat bitset table: `ceil(p / 64)` words per vertex, sized for
/// arbitrary `p`.
#[derive(Clone, Debug)]
pub(crate) struct ReplicaTable {
    words: usize,
    bits: Vec<u64>,
}

impl ReplicaTable {
    pub(crate) fn new(num_vertices: usize, num_partitions: usize) -> Self {
        let words = num_partitions.div_ceil(64);
        ReplicaTable {
            words,
            bits: vec![0; num_vertices * words],
        }
    }

    pub(crate) fn insert(&mut self, v: VertexId, pid: usize) {
        self.bits[v as usize * self.words + pid / 64] |= 1 << (pid % 64);
    }

    /// The words of `A(v)`: bit `pid % 64` of word `pid / 64`.
    pub(crate) fn row(&self, v: VertexId) -> &[u64] {
        let base = v as usize * self.words;
        &self.bits[base..base + self.words]
    }
}

/// Whether bit `pid` is set in the set `words`.
pub(crate) fn contains(words: &[u64], pid: usize) -> bool {
    words[pid / 64] >> (pid % 64) & 1 == 1
}

/// The set bits of `words`, ascending, where bit `b` of word `i` is
/// partition `64 * i + b`.
pub(crate) fn ones<I: Iterator<Item = u64>>(words: I) -> Ones<I> {
    Ones {
        words,
        base: 0usize.wrapping_sub(64),
        word: 0,
    }
}

/// The iterator of [`ones`]. Written out by hand: the `flat_map` form of
/// it cost HDRF about a quarter of its placement time.
pub(crate) struct Ones<I> {
    words: I,
    /// The partition of bit 0 of `word`.
    base: usize,
    /// What is left of the current word.
    word: u64,
}

impl<I: Iterator<Item = u64>> Iterator for Ones<I> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word = self.words.next()?;
            self.base = self.base.wrapping_add(64);
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

/// Picks the least-loaded partition from `candidates` (ties: lowest id).
/// Returns `None` when `candidates` is empty.
pub(crate) fn least_loaded(
    loads: &[usize],
    candidates: impl Iterator<Item = usize>,
) -> Option<usize> {
    // One integer key per candidate, `load << 64 | id`, so each step of
    // the minimum is a single compare.
    candidates
        .map(|pid| (loads[pid] as u128) << 64 | pid as u128)
        .min()
        .map(|key| key as u64 as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Low bits should differ across consecutive inputs.
        let a = splitmix64(100) % 16;
        let spread: std::collections::HashSet<u64> = (0..64).map(|i| splitmix64(i) % 16).collect();
        assert!(spread.len() > 8, "poor low-bit spread: {spread:?} {a}");
    }

    #[test]
    fn replica_table_rows_span_words() {
        let mut table = ReplicaTable::new(3, 130);
        table.insert(1, 0);
        table.insert(1, 64);
        table.insert(1, 129);
        let row = table.row(1);
        assert!(contains(row, 0) && contains(row, 64) && contains(row, 129));
        assert!(!contains(row, 1) && !contains(row, 63) && !contains(row, 65));
        assert_eq!(
            ones(row.iter().copied()).collect::<Vec<_>>(),
            vec![0, 64, 129]
        );
        assert!(table.row(0).iter().chain(table.row(2)).all(|&w| w == 0));
    }

    #[test]
    fn ones_intersects_across_words() {
        let mut table = ReplicaTable::new(2, 130);
        for pid in [3, 70, 129] {
            table.insert(0, pid);
        }
        for pid in [70, 129] {
            table.insert(1, pid);
        }
        let (a, b) = (table.row(0), table.row(1));
        let both = ones(a.iter().zip(b).map(|(x, y)| x & y));
        assert_eq!(both.collect::<Vec<_>>(), vec![70, 129]);
    }

    #[test]
    fn least_loaded_breaks_ties_by_id() {
        let loads = [5, 3, 3, 9];
        assert_eq!(least_loaded(&loads, 0..4), Some(1));
        assert_eq!(least_loaded(&loads, [3, 2].into_iter()), Some(2));
        assert_eq!(least_loaded(&loads, std::iter::empty()), None);
    }
}
