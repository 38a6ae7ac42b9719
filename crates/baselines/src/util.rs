//! Internal helpers shared by the baseline partitioners.

use tlp_graph::GraphView;

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

/// A small dense set of partition ids (replica sets `A(v)` in PowerGraph /
/// HDRF terminology), sized for arbitrary `p`.
#[derive(Clone, Debug, Default)]
pub(crate) struct PartitionSet {
    words: Vec<u64>,
}

impl PartitionSet {
    pub(crate) fn new(num_partitions: usize) -> Self {
        PartitionSet {
            words: vec![0; num_partitions.div_ceil(64)],
        }
    }

    pub(crate) fn insert(&mut self, pid: usize) {
        self.words[pid / 64] |= 1 << (pid % 64);
    }

    pub(crate) fn contains(&self, pid: usize) -> bool {
        self.words[pid / 64] >> (pid % 64) & 1 == 1
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| w >> b & 1 == 1)
                .map(move |b| wi * 64 + b)
        })
    }

    pub(crate) fn intersection<'a>(
        &'a self,
        other: &'a PartitionSet,
    ) -> impl Iterator<Item = usize> + 'a {
        self.iter().filter(move |&pid| other.contains(pid))
    }
}

/// Picks the least-loaded partition from `candidates` (ties: lowest id).
/// Returns `None` when `candidates` is empty.
pub(crate) fn least_loaded(
    loads: &[usize],
    candidates: impl Iterator<Item = usize>,
) -> Option<usize> {
    candidates.min_by_key(|&pid| (loads[pid], pid))
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
    fn partition_set_basic_ops() {
        let mut s = PartitionSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn intersection_works_across_words() {
        let mut a = PartitionSet::new(130);
        let mut b = PartitionSet::new(130);
        a.insert(3);
        a.insert(70);
        a.insert(129);
        b.insert(70);
        b.insert(129);
        assert_eq!(a.intersection(&b).collect::<Vec<_>>(), vec![70, 129]);
    }

    #[test]
    fn least_loaded_breaks_ties_by_id() {
        let loads = [5, 3, 3, 9];
        assert_eq!(least_loaded(&loads, 0..4), Some(1));
        assert_eq!(least_loaded(&loads, [3, 2].into_iter()), Some(2));
        assert_eq!(least_loaded(&loads, std::iter::empty()), None);
    }
}
