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
    fn least_loaded_breaks_ties_by_id() {
        let loads = [5, 3, 3, 9];
        assert_eq!(least_loaded(&loads, 0..4), Some(1));
        assert_eq!(least_loaded(&loads, [3, 2].into_iter()), Some(2));
        assert_eq!(least_loaded(&loads, std::iter::empty()), None);
    }
}
