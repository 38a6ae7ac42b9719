//! Neighborhood-intersection kernels.
//!
//! Stage I of TLP scores a frontier candidate `v_i` against a member `v_j`
//! by `|N(v_i) ∩ N(v_j)| / |N(v_j)|`, so set-intersection size over sorted
//! CSR adjacency slices is the single hottest primitive of the selection
//! path. Three kernels cover the degree regimes of power-law graphs:
//!
//! * [`merge_intersection_size`] — linear two-pointer merge; best when the
//!   lists are of comparable length.
//! * [`galloping_intersection_size`] — binary-search probes of the longer
//!   list, shrinking the search window after each hit; best when one list
//!   is much shorter (a low-degree candidate against a hub).
//! * [`IntersectionKernel::count_with_loaded`] — membership lookups against
//!   a reusable epoch-stamped mark array holding one preloaded
//!   neighborhood; best when *many* lists are intersected against the same
//!   high-degree vertex, which is exactly what happens when a member is
//!   admitted and all of its frontier neighbors must be rescored.
//!
//! [`sorted_intersection_size`] dispatches adaptively between the first
//! two; the kernel object adds the preloaded-neighborhood path plus a
//! per-load cache of counts so the engine never computes
//! `|N(u) ∩ N(member)|` twice for the same admitted member.
//!
//! All kernels return the exact same count for the same inputs — the
//! engine's bit-identical-selection guarantee depends on it, and the
//! property suite (`tests/intersect_props.rs`) plus the core crate's
//! differential tests enforce it.

use crate::{GraphView, VertexId};

/// When the longer list is at least this many times the shorter one,
/// galloping beats the linear merge (the crossover tracks `log2` of the
/// longer length; 8 is a conservative fit for CSR slices).
const GALLOP_RATIO: usize = 8;

/// Size of the intersection of two sorted, duplicate-free slices, by
/// linear two-pointer merge (`O(|a| + |b|)`).
///
/// # Example
///
/// ```
/// use tlp_graph::intersect::merge_intersection_size;
///
/// assert_eq!(merge_intersection_size(&[1, 3, 5, 9], &[2, 3, 4, 5]), 2);
/// assert_eq!(merge_intersection_size(&[], &[1]), 0);
/// ```
pub fn merge_intersection_size(a: &[VertexId], b: &[VertexId]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Size of the intersection of two sorted, duplicate-free slices, by
/// binary-search probes of the longer slice (`O(|short| log |long|)`).
///
/// The probed window shrinks after every search, so a run of hits near the
/// front of the long list keeps later probes cheap.
///
/// # Example
///
/// ```
/// use tlp_graph::intersect::galloping_intersection_size;
///
/// assert_eq!(galloping_intersection_size(&[3, 5], &(0..1000).collect::<Vec<_>>()), 2);
/// ```
pub fn galloping_intersection_size(a: &[VertexId], b: &[VertexId]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut count = 0;
    let mut rest = long;
    for &x in short {
        match rest.binary_search(&x) {
            Ok(pos) => {
                count += 1;
                rest = &rest[pos + 1..];
            }
            Err(pos) => rest = &rest[pos..],
        }
    }
    count
}

/// Size of the intersection of two sorted, duplicate-free slices, choosing
/// between [`merge_intersection_size`] and [`galloping_intersection_size`]
/// by the length ratio.
///
/// # Example
///
/// ```
/// use tlp_graph::intersect::sorted_intersection_size;
///
/// assert_eq!(sorted_intersection_size(&[1, 3, 5, 9], &[2, 3, 4, 5]), 2);
/// assert_eq!(sorted_intersection_size(&[], &[1]), 0);
/// ```
pub fn sorted_intersection_size(a: &[VertexId], b: &[VertexId]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return 0;
    }
    if long.len() / short.len() >= GALLOP_RATIO {
        galloping_intersection_size(short, long)
    } else {
        merge_intersection_size(short, long)
    }
}

/// Per-strategy call counts accumulated by an [`IntersectionKernel`]: one
/// field per path the engine runs.
///
/// Plain integers with no observability dependency: the engine drains
/// them once per round via [`IntersectionKernel::take_counters`] and
/// forwards the totals to whatever observer is attached, so the hot
/// per-intersection path never crosses a crate boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Neighborhood loads ([`IntersectionKernel::load`]).
    pub loads: u64,
    /// [`IntersectionKernel::count_with_loaded`] calls answered from the
    /// per-load memo.
    pub cache_hits: u64,
    /// `count_with_loaded` calls answered by membership-mark probes.
    pub mark_counts: u64,
    /// `count_with_loaded` calls answered by galloping search.
    pub gallop_counts: u64,
    /// Individual membership probes performed by mark counting (the
    /// inner-loop work the strategies are minimizing).
    pub probes: u64,
}

/// Reusable scratch for repeated intersections against one "loaded"
/// neighborhood, plus a per-load cache of counts.
///
/// The scratch is an epoch-stamped membership array (O(1) clearing:
/// bumping the epoch invalidates every mark at once). [`load`]
/// marks `N(v)`; [`count_with_loaded`] then counts any other vertex's
/// neighborhood against the marks in `O(deg)` lookups — or galloping when
/// the query degree dwarfs the loaded degree — and memoizes the result, so
/// asking twice for the same pair during one load is a cache hit.
///
/// The intended rhythm mirrors partition growth: when the engine admits a
/// member `v`, it loads `N(v)` once and rescored frontier neighbors reuse
/// the marks; candidates enrolled later in the same admission hit the
/// cache for their closeness term against `v`.
///
/// # Example
///
/// ```
/// use tlp_graph::intersect::IntersectionKernel;
/// use tlp_graph::GraphBuilder;
///
/// let g = GraphBuilder::new()
///     .add_edges([(0, 1), (1, 2), (2, 0), (1, 3), (3, 0)])
///     .build();
/// let mut kernel = IntersectionKernel::new(g.num_vertices());
/// kernel.load(&g, 0);
/// // |N(2) ∩ N(0)| = |{0, 1} ∩ {1, 2, 3}| = 1.
/// assert_eq!(kernel.count_with_loaded(&g, 2), 1);
/// assert_eq!(kernel.cached_with_loaded(2), Some(1));
/// ```
///
/// [`load`]: IntersectionKernel::load
/// [`count_with_loaded`]: IntersectionKernel::count_with_loaded
#[derive(Clone, Debug, Default)]
pub struct IntersectionKernel {
    /// `mark[u] == epoch` iff `u` is a neighbor of the loaded vertex.
    mark: Vec<u32>,
    /// `cache_stamp[u] == epoch` iff `cache_val[u]` holds
    /// `|N(u) ∩ N(loaded)|`.
    cache_stamp: Vec<u32>,
    /// Cached intersection counts, valid per `cache_stamp`.
    cache_val: Vec<u32>,
    /// Current load epoch; 0 means nothing was ever loaded.
    epoch: u32,
    /// The vertex whose neighborhood is currently marked.
    loaded: Option<VertexId>,
    /// Per-strategy call tallies, drained via [`take_counters`].
    ///
    /// [`take_counters`]: IntersectionKernel::take_counters
    counters: KernelCounters,
}

impl IntersectionKernel {
    /// Creates a kernel sized for vertex ids `< n`.
    pub fn new(n: usize) -> Self {
        IntersectionKernel {
            mark: vec![0; n],
            cache_stamp: vec![0; n],
            cache_val: vec![0; n],
            epoch: 0,
            loaded: None,
            counters: KernelCounters::default(),
        }
    }

    /// The vertex whose neighborhood is currently loaded, if any.
    pub fn loaded(&self) -> Option<VertexId> {
        self.loaded
    }

    /// The per-strategy call tallies since the last [`take_counters`].
    ///
    /// [`take_counters`]: IntersectionKernel::take_counters
    pub fn counters(&self) -> &KernelCounters {
        &self.counters
    }

    /// Returns the accumulated tallies and resets them to zero — the
    /// once-per-round drain point for observability.
    pub fn take_counters(&mut self) -> KernelCounters {
        std::mem::take(&mut self.counters)
    }

    /// Grows the scratch to cover vertex ids `< n` (no-op when already
    /// large enough).
    fn ensure_capacity(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.cache_stamp.resize(n, 0);
            self.cache_val.resize(n, 0);
        }
    }

    /// Starts a fresh epoch, resetting the stamp arrays if the counter
    /// would wrap (once every `u32::MAX` loads).
    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.cache_stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Loads `N(v)` into the scratch, invalidating the previous load and
    /// its cached counts.
    ///
    /// Accepts `&CsrGraph` or any [`GraphView`], so the kernel works over
    /// borrowed arenas as well as owned graphs.
    pub fn load<'a>(&mut self, graph: impl Into<GraphView<'a>>, v: VertexId) {
        let graph = graph.into();
        self.counters.loads += 1;
        self.ensure_capacity(graph.num_vertices());
        self.next_epoch();
        for &w in graph.neighbors(v) {
            self.mark[w as usize] = self.epoch;
        }
        self.loaded = Some(v);
    }

    /// The cached `|N(u) ∩ N(loaded)|` from an earlier
    /// [`count_with_loaded`](Self::count_with_loaded) in the current load,
    /// if any.
    pub fn cached_with_loaded(&self, u: VertexId) -> Option<usize> {
        let ui = u as usize;
        (self.epoch != 0 && self.cache_stamp.get(ui) == Some(&self.epoch))
            .then(|| self.cache_val[ui] as usize)
    }

    /// Counts `|N(u) ∩ N(v)|` for the loaded vertex `v` and memoizes the
    /// result for the duration of the load.
    ///
    /// Uses the membership marks (`O(deg(u))`) unless `deg(u)` dwarfs the
    /// loaded degree, where galloping over `N(u)` is cheaper.
    ///
    /// # Panics
    ///
    /// Panics if nothing is loaded.
    pub fn count_with_loaded<'a>(&mut self, graph: impl Into<GraphView<'a>>, u: VertexId) -> usize {
        let graph = graph.into();
        let v = self.loaded.expect("no neighborhood loaded");
        if let Some(count) = self.cached_with_loaded(u) {
            self.counters.cache_hits += 1;
            return count;
        }
        let nu = graph.neighbors(u);
        let count = if nu.len() / graph.degree(v).max(1) >= GALLOP_RATIO {
            self.counters.gallop_counts += 1;
            galloping_intersection_size(graph.neighbors(v), nu)
        } else {
            self.counters.mark_counts += 1;
            self.counters.probes += nu.len() as u64;
            nu.iter()
                .filter(|&&w| self.mark[w as usize] == self.epoch)
                .count()
        };
        let ui = u as usize;
        self.cache_stamp[ui] = self.epoch;
        self.cache_val[ui] = count as u32;
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn naive(a: &[VertexId], b: &[VertexId]) -> usize {
        a.iter().filter(|x| b.contains(x)).count()
    }

    #[test]
    fn kernels_agree_on_basic_cases() {
        let cases: &[(&[VertexId], &[VertexId])] = &[
            (&[], &[]),
            (&[1], &[]),
            (&[1, 2, 3], &[1, 2, 3]),
            (&[1, 2, 3], &[4, 5, 6]),
            (&[1, 5, 7], &[5]),
            (&[0, 2, 4, 6, 8], &[1, 2, 3, 4, 5]),
        ];
        for &(a, b) in cases {
            let expected = naive(a, b);
            assert_eq!(merge_intersection_size(a, b), expected);
            assert_eq!(galloping_intersection_size(a, b), expected);
            assert_eq!(sorted_intersection_size(a, b), expected);
        }
    }

    #[test]
    fn loaded_counts_match_plain_intersections_and_cache() {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 0)])
            .build();
        let mut kernel = IntersectionKernel::new(g.num_vertices());
        for v in g.vertices() {
            kernel.load(&g, v);
            assert_eq!(kernel.loaded(), Some(v));
            for u in g.vertices() {
                assert_eq!(kernel.cached_with_loaded(u), None);
                let expected = sorted_intersection_size(g.neighbors(u), g.neighbors(v));
                assert_eq!(kernel.count_with_loaded(&g, u), expected, "u={u} v={v}");
                assert_eq!(kernel.cached_with_loaded(u), Some(expected));
            }
        }
    }

    #[test]
    fn load_invalidates_previous_cache() {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build();
        let mut kernel = IntersectionKernel::new(g.num_vertices());
        kernel.load(&g, 0);
        let first = kernel.count_with_loaded(&g, 2);
        kernel.load(&g, 3);
        assert_eq!(kernel.cached_with_loaded(2), None);
        let second = kernel.count_with_loaded(&g, 2);
        assert_eq!(
            first,
            sorted_intersection_size(g.neighbors(2), g.neighbors(0))
        );
        assert_eq!(
            second,
            sorted_intersection_size(g.neighbors(2), g.neighbors(3))
        );
    }

    #[test]
    fn counters_track_strategies_and_drain() {
        let g = GraphBuilder::new()
            .add_edges([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 0)])
            .build();
        let mut kernel = IntersectionKernel::new(g.num_vertices());
        kernel.load(&g, 0);
        kernel.count_with_loaded(&g, 2);
        kernel.count_with_loaded(&g, 2); // memoized
        let counters = kernel.take_counters();
        assert_eq!(counters.loads, 1);
        assert_eq!(counters.cache_hits, 1);
        assert_eq!(counters.mark_counts + counters.gallop_counts, 1);
        assert!(counters.probes > 0);
        assert_eq!(*kernel.counters(), KernelCounters::default());
    }

    #[test]
    fn load_grows_capacity_on_demand() {
        let g = GraphBuilder::new()
            .add_edges([(1000, 2000), (2000, 3000)])
            .build();
        let mut kernel = IntersectionKernel::new(0);
        kernel.load(&g, 1000);
        assert_eq!(kernel.count_with_loaded(&g, 3000), 1);
    }
}
