//! Property-based tests of the graph substrate's invariants.

use proptest::prelude::*;
use tlp_graph::generators::{chung_lu, erdos_renyi, genealogy, power_law_community};
use tlp_graph::traversal::{bfs_distances, ConnectedComponents};
use tlp_graph::{CsrGraph, GraphBuilder, ResidualGraph};

fn arb_edges(max_v: u32, max_e: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    (2..max_v).prop_flat_map(move |n| prop::collection::vec((0..n, 0..n), 0..max_e))
}

fn build(edges: &[(u32, u32)]) -> CsrGraph {
    GraphBuilder::new().add_edges(edges.iter().copied()).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR structural invariants over arbitrary (dirty) edge lists.
    #[test]
    fn csr_invariants(edges in arb_edges(80, 300)) {
        let g = build(&edges);
        // Adjacency symmetry and degree consistency.
        let mut total_degree = 0usize;
        for v in g.vertices() {
            total_degree += g.degree(v);
            for &w in g.neighbors(v) {
                prop_assert_ne!(v, w, "self-loop survived");
                prop_assert!(g.neighbors(w).contains(&v));
            }
            // Sorted adjacency (relied upon by Stage I intersections).
            let nbrs = g.neighbors(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "unsorted/duplicated adjacency");
        }
        prop_assert_eq!(total_degree, 2 * g.num_edges());
        // Edge table and adjacency agree.
        for (id, e) in g.view().edge_iter().enumerate() {
            prop_assert_eq!(g.edge_id(e.source(), e.target()), Some(id as u32));
        }
    }

    /// Dedup: building from the edge list of a built graph is idempotent.
    #[test]
    fn build_is_idempotent(edges in arb_edges(60, 200)) {
        let g1 = build(&edges);
        let g2 = GraphBuilder::new()
            .reserve_vertices(g1.num_vertices())
            .add_edges(g1.view().edge_iter().map(|e| e.endpoints()))
            .build();
        prop_assert_eq!(g1, g2);
    }

    /// I/O roundtrip preserves label-independent structure.
    #[test]
    fn io_roundtrip_preserves_structure(edges in arb_edges(60, 200)) {
        let g = build(&edges);
        let mut buf = Vec::new();
        tlp_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let r = tlp_graph::io::read_edge_list(buf.as_slice()).unwrap().graph;
        prop_assert_eq!(r.num_edges(), g.num_edges());
        let mut dg: Vec<usize> = g.vertices().map(|v| g.degree(v)).filter(|&d| d > 0).collect();
        let mut dr: Vec<usize> = r.vertices().map(|v| r.degree(v)).filter(|&d| d > 0).collect();
        dg.sort_unstable();
        dr.sort_unstable();
        prop_assert_eq!(dg, dr);
    }

    /// Residual bookkeeping stays consistent under arbitrary allocation
    /// orders.
    #[test]
    fn residual_degrees_stay_consistent(edges in arb_edges(40, 120), order_seed in 0u64..16) {
        let g = build(&edges);
        let mut residual = ResidualGraph::new(&g);
        let mut ids: Vec<u32> = (0..g.num_edges() as u32).collect();
        // Cheap deterministic shuffle.
        let n = ids.len();
        for i in 0..n {
            let j = (order_seed as usize + i * 7919) % n.max(1);
            ids.swap(i, j);
        }
        for (step, &e) in ids.iter().enumerate() {
            residual.allocate(e);
            prop_assert_eq!(residual.remaining_edges(), g.num_edges() - step - 1);
        }
        for v in g.vertices() {
            prop_assert_eq!(residual.residual_degree(v), 0);
            prop_assert_eq!(residual.residual_incident(v).count(), 0);
        }
        prop_assert!(residual.is_exhausted());
    }

    /// BFS visits exactly the component of the start vertex, and distances
    /// respect the triangle property along edges.
    #[test]
    fn bfs_agrees_with_components(edges in arb_edges(50, 150)) {
        let g = build(&edges);
        if g.num_vertices() == 0 { return Ok(()); }
        let cc = ConnectedComponents::find(&g);
        let start = 0u32;
        let dist = bfs_distances(&g, start);
        for v in g.vertices() {
            prop_assert_eq!(dist[v as usize].is_some(), cc.same_component(start, v));
        }
        for e in g.view().edge_iter() {
            if let (Some(a), Some(b)) = (dist[e.source() as usize], dist[e.target() as usize]) {
                prop_assert!(a.abs_diff(b) <= 1, "edge spans distance gap > 1");
            }
        }
    }
}

/// Generator contracts hold across a seeded grid (cheaper than proptest for
/// expensive generators, still broad).
#[test]
fn generator_contracts() {
    for seed in 0..5u64 {
        let er = erdos_renyi(120, 400, seed);
        assert_eq!((er.num_vertices(), er.num_edges()), (120, 400));

        let cl = chung_lu(150, 600, 2.2, seed);
        assert_eq!((cl.num_vertices(), cl.num_edges()), (150, 600));

        let pc = power_law_community(150, 600, 2.2, 6, 0.25, seed);
        assert_eq!((pc.num_vertices(), pc.num_edges()), (150, 600));

        let ge = genealogy(100, 163, seed);
        assert_eq!((ge.num_vertices(), ge.num_edges()), (100, 163));
        assert_eq!(ConnectedComponents::find(&ge).count(), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The binary-search `has_edge`/`edge_id` agree with the old linear
    /// scan over the adjacency slice on every vertex pair.
    #[test]
    fn adjacency_lookup_matches_linear_scan(edges in arb_edges(60, 240)) {
        let g = build(&edges);
        for a in g.vertices() {
            for b in g.vertices() {
                let scan_hit = g.neighbors(a).contains(&b);
                let scan_id = g
                    .incident(a)
                    .find(|&(w, _)| w == b)
                    .map(|(_, id)| id);
                prop_assert_eq!(g.has_edge(a, b), scan_hit, "has_edge({}, {})", a, b);
                prop_assert_eq!(g.edge_id(a, b), scan_id, "edge_id({}, {})", a, b);
                let v = g.view();
                prop_assert_eq!(v.has_edge(a, b), scan_hit);
                prop_assert_eq!(v.edge_id(a, b), scan_id);
            }
        }
    }

    /// A `GraphView` over a `CsrGraph` mirrors every read accessor.
    #[test]
    fn view_mirrors_csr(edges in arb_edges(60, 240)) {
        let g = build(&edges);
        let v = g.view();
        prop_assert_eq!(v.num_vertices(), g.num_vertices());
        prop_assert_eq!(v.num_edges(), g.num_edges());
        for x in g.vertices() {
            prop_assert_eq!(v.degree(x), g.degree(x));
            prop_assert_eq!(v.neighbors(x), g.neighbors(x));
        }
        for e in 0..g.num_edges() as u32 {
            prop_assert_eq!(v.edge(e), g.edge(e));
        }
        prop_assert_eq!(v, g.view());
    }
}
