//! In-process partition service: the state machine behind the TCP server.
//!
//! [`PartitionService`] owns a served graph + partition pair and answers
//! every protocol request. Reads (vertex/edge/neighbor lookups) run under
//! a shared `RwLock` read guard; writes ([`Request::PlaceEdge`],
//! [`Request::Flush`]) take the write guard. The vertex cache sits in
//! front of the replica-set computation and is filled under the read lock
//! and invalidated under the write lock, so cached entries never outlive
//! the state they were derived from.
//!
//! The service owns every [`ServeStats`] counter except the cache's three
//! (hits, misses, evictions). Requests, overloads, drain refusals and
//! protocol errors only happen at the TCP layer, which increments them
//! here, so an in-process caller of [`PartitionService::handle`] sees
//! them stay zero.
//!
//! Online placement runs a [`StreamingPlacer`] whose fold is seeded from
//! the served partition (`seeded_streaming_placer`), so the sequence of
//! partitions handed out by a live server is bit-identical to a direct
//! streaming continuation over the same fresh edges — the property the
//! bit-identity test and the CI replay diff pin down.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Instant;

use tlp_baselines::StreamingPlacer;
use tlp_core::{EdgePartition, PartitionId};
use tlp_graph::{CsrGraph, Edge, GraphView, VertexId};
use tlp_obs::counter;
use tlp_store::{
    write_partition_store, LoadedGraph, PartitionStoreReader, PlacementWal, StoreError, WalRecord,
};

use crate::cache::{CachedVertex, VertexCache};
use crate::protocol::{ErrorCode, HealthReport, Request, Response, ServeStats};

/// Why a service could not be constructed.
#[derive(Debug)]
pub enum ServiceError {
    /// The backing partition store failed to open or load.
    Store(StoreError),
    /// The placement spec or the (graph, partition) pair was rejected.
    Config(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Store(e) => write!(f, "partition store error: {e}"),
            ServiceError::Config(msg) => write!(f, "service configuration error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Store(e) => Some(e),
            ServiceError::Config(_) => None,
        }
    }
}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}

/// Mutable half of the service: everything online placement touches.
struct MutableState {
    /// Seeded streaming placer; its fold's loads and replica sets already
    /// account for the base partition and every accepted placement.
    placer: StreamingPlacer,
    /// Canonical placed edge → partition, for idempotent replays and
    /// edge lookups. Disjoint from the base graph's edge set.
    placements: HashMap<(VertexId, VertexId), PartitionId>,
    /// Placed-edge adjacency: vertex → [(neighbor, partition)].
    adjacency: HashMap<VertexId, Vec<(VertexId, PartitionId)>>,
    /// Placements accumulated since the last successful flush.
    pending: u64,
    /// Placement WAL for store-backed services: appended (and fsynced)
    /// *before* a fresh placement is acknowledged. `None` for in-memory
    /// services, which make no durability promise.
    wal: Option<PlacementWal>,
    /// Set when a WAL append or truncate failed: the log no longer covers
    /// the in-memory state, so fresh placements are refused (typed
    /// [`ErrorCode::Internal`]) until a successful flush re-establishes
    /// a durable baseline.
    wal_poisoned: bool,
}

/// The event counts behind [`ServeStats`] and [`HealthReport::flushes`];
/// the vertex cache counts its own hits, misses and evictions.
#[derive(Default)]
pub(crate) struct Counters {
    /// Frames read by the TCP layer, decodable or not.
    pub(crate) requests: AtomicU64,
    lookups: AtomicU64,
    placements: AtomicU64,
    flushes: AtomicU64,
    /// Connections the TCP layer refused with [`ErrorCode::Overloaded`].
    pub(crate) overloads: AtomicU64,
    /// Connections and placements refused with [`ErrorCode::Draining`].
    pub(crate) drained: AtomicU64,
    /// Frames the TCP layer failed to read or decode.
    pub(crate) protocol_errors: AtomicU64,
}

/// Adds one to `counter`.
pub(crate) fn tick(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The served graph + partition pair and all request handling.
pub struct PartitionService {
    /// The base graph: a CSR built in memory or rebuilt from the store's
    /// segments, or the zero-copy arena of a graph file. Requests read it
    /// only through its view, so both answer identically.
    graph: LoadedGraph,
    base: EdgePartition,
    store_dir: Option<PathBuf>,
    state: RwLock<MutableState>,
    cache: VertexCache,
    counters: Counters,
    started: Instant,
    /// Microseconds after `started` of the last successful flush;
    /// `u64::MAX` = never flushed.
    last_flush_micros: AtomicU64,
}

impl PartitionService {
    /// Wraps an in-memory graph + partition, with online placement driven
    /// by `spec` (`"hdrf"` or `"greedy"`).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] if the spec is unknown or the partition
    /// does not cover the graph.
    pub fn new(
        graph: CsrGraph,
        partition: EdgePartition,
        spec: &str,
        cache_capacity: usize,
    ) -> Result<Self, ServiceError> {
        Self::build(graph.into(), partition, spec, cache_capacity)
    }

    fn build(
        graph: LoadedGraph,
        partition: EdgePartition,
        spec: &str,
        cache_capacity: usize,
    ) -> Result<Self, ServiceError> {
        let placer = tlp_pipeline::seeded_streaming_placer(spec, graph.view(), &partition)
            .map_err(|e| ServiceError::Config(e.to_string()))?;
        Ok(PartitionService {
            graph,
            base: partition,
            store_dir: None,
            state: RwLock::new(MutableState {
                placer,
                placements: HashMap::new(),
                adjacency: HashMap::new(),
                pending: 0,
                wal: None,
                wal_poisoned: false,
            }),
            cache: VertexCache::new(cache_capacity, 16),
            counters: Counters::default(),
            started: Instant::now(),
            last_flush_micros: AtomicU64::new(u64::MAX),
        })
    }

    /// Opens a partition store directory and serves it; flushes write
    /// back into the same directory.
    ///
    /// If the directory carries a placement WAL (`wal.tlpw`), its records
    /// — every placement acknowledged before a crash — are replayed
    /// through the normal dedup path before serving starts: records whose
    /// edge already reached the base graph (the crash hit between a flush
    /// and its WAL truncate) are skipped, the rest re-drive the seeded
    /// placer, which by construction re-derives the recorded partitions.
    /// Zero acknowledged placements are lost.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Store`] if the store is missing, torn, or corrupt
    /// (including a corrupt WAL record); [`ServiceError::Config`] for a
    /// bad placement spec or a WAL that disagrees with the replayed
    /// placer (a mismatched store/WAL pair).
    pub fn open_store(dir: &Path, spec: &str, cache_capacity: usize) -> Result<Self, ServiceError> {
        let reader = PartitionStoreReader::open(dir)?;
        let (graph, partition) = reader.load()?;
        let mut service = PartitionService::new(graph, partition, spec, cache_capacity)?;
        service.attach_store(dir)?;
        Ok(service)
    }

    /// Opens a partition store directory but serves the base graph from
    /// `graph_path` instead of rebuilding a CSR out of the store's
    /// segments: the file opens through [`LoadedGraph`] (for a v2 file,
    /// the zero-copy arena) and the segments contribute only the edge
    /// assignment, cross-checked edge by edge against the file. Flushes
    /// write back into `dir`, same as [`PartitionService::open_store`].
    ///
    /// # Errors
    ///
    /// Everything [`PartitionService::open_store`] reports, plus
    /// [`ServiceError::Store`] when the graph file and the store disagree
    /// on the edge set (they do not belong together).
    pub fn open_store_with_graph(
        dir: &Path,
        graph_path: &Path,
        spec: &str,
        cache_capacity: usize,
    ) -> Result<Self, ServiceError> {
        let loaded = LoadedGraph::open(graph_path)?;
        let reader = PartitionStoreReader::open(dir)?;
        let partition = reader.load_assignment(loaded.view())?;
        let mut service = Self::build(loaded, partition, spec, cache_capacity)?;
        service.attach_store(dir)?;
        Ok(service)
    }

    /// Marks `dir` as this service's backing store and replays its
    /// placement WAL (every placement acknowledged before a crash)
    /// through the normal dedup path: records whose edge already reached
    /// the base graph are skipped, the rest re-drive the seeded placer,
    /// which by construction re-derives the recorded partitions.
    fn attach_store(&mut self, dir: &Path) -> Result<(), ServiceError> {
        self.store_dir = Some(dir.to_path_buf());

        let (wal, replay) = PlacementWal::open(dir)?;
        let state = self.state.get_mut().unwrap_or_else(|e| e.into_inner());
        for record in &replay.records {
            let (source, target) = (record.u, record.v);
            // Dedup path, same as a live PlaceEdge: base-graph edges
            // were flushed before the crash, duplicates are impossible
            // by the append-only-on-fresh rule but harmless.
            if self.graph.view().edge_id(source, target).is_some()
                || state.placements.contains_key(&(source, target))
            {
                continue;
            }
            let pid = state.placer.place(source, target);
            if pid != record.partition {
                return Err(ServiceError::Config(format!(
                    "wal replay of edge ({source},{target}) placed into partition {pid}, \
                     but the log recorded {} — store and wal do not belong together",
                    record.partition
                )));
            }
            Self::register_placement(state, source, target, pid);
            counter("serve.wal.replayed", 1);
        }
        state.wal = Some(wal);
        Ok(())
    }

    /// Sets the WAL group-commit interval (see
    /// [`PlacementWal::set_group_commit`]); no-op for in-memory services.
    pub fn set_wal_group_commit(&self, every: u64) {
        let mut state = self.state.write().unwrap_or_else(|e| e.into_inner());
        if let Some(wal) = state.wal.as_mut() {
            wal.set_group_commit(every);
        }
    }

    /// A borrowed view of the served base graph.
    pub fn graph(&self) -> GraphView<'_> {
        self.graph.view()
    }

    /// Number of partitions served.
    pub fn num_partitions(&self) -> usize {
        self.base.num_partitions()
    }

    /// The vertex cache (for tests and counter export).
    pub fn cache(&self) -> &VertexCache {
        &self.cache
    }

    /// The counters the TCP layer increments.
    pub(crate) fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Handles one request against the service state. Infallible at this
    /// layer: failures become typed [`Response::Error`] replies.
    /// [`Request::Shutdown`] is acknowledged but drain orchestration
    /// belongs to the server in front of this service.
    pub fn handle(&self, request: &Request) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::VertexLookup { vertex } => self.vertex_lookup(*vertex),
            Request::EdgeLookup { u, v } => self.edge_lookup(*u, *v),
            Request::Neighbors { vertex, partition } => self.neighbors(*vertex, *partition),
            Request::PlaceEdge { u, v } => self.place_edge(*u, *v),
            Request::Stats => Response::StatsReport(self.stats()),
            Request::Health => Response::HealthReport(self.health()),
            Request::Flush => self.flush(),
            Request::Shutdown => Response::ShuttingDown,
        }
    }

    /// Durability snapshot (the `draining` field is false at this layer;
    /// the TCP server overlays its own drain state).
    pub fn health(&self) -> HealthReport {
        let state = self.state.read().unwrap_or_else(|e| e.into_inner());
        let last_flush = self.last_flush_micros.load(Ordering::Relaxed);
        HealthReport {
            wal_depth: state.wal.as_ref().map_or(0, PlacementWal::depth),
            pending_placements: state.pending,
            flushes: self.counters.flushes.load(Ordering::Relaxed),
            last_flush_age_secs: if last_flush == u64::MAX {
                u64::MAX
            } else {
                (self.started.elapsed().as_micros() as u64).saturating_sub(last_flush) / 1_000_000
            },
            durable: state.wal.is_some() && !state.wal_poisoned,
            draining: false,
        }
    }

    /// Counter snapshot. `requests`, `overloads`, `drained` and
    /// `protocol_errors` stay zero unless a TCP server fronts the service.
    pub fn stats(&self) -> ServeStats {
        let state = self.state.read().unwrap_or_else(|e| e.into_inner());
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        ServeStats {
            requests: load(&self.counters.requests),
            lookups: load(&self.counters.lookups),
            placements: load(&self.counters.placements),
            overloads: load(&self.counters.overloads),
            drained: load(&self.counters.drained),
            protocol_errors: load(&self.counters.protocol_errors),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_evictions: self.cache.evictions(),
            pending_placements: state.pending,
            num_vertices: self.graph.view().num_vertices() as u64,
            num_partitions: self.base.num_partitions() as u64,
            num_edges: self.graph.view().num_edges() as u64,
        }
    }

    fn in_range(&self, vertex: VertexId) -> bool {
        (vertex as usize) < self.graph.view().num_vertices()
    }

    /// Per-partition incident-edge counts for `vertex`, base + placed.
    fn partition_counts(&self, state: &MutableState, vertex: VertexId) -> Vec<u64> {
        let mut counts = vec![0u64; self.base.num_partitions()];
        for (_, eid) in self.graph.view().incident(vertex) {
            counts[self.base.partition_of(eid) as usize] += 1;
        }
        if let Some(placed) = state.adjacency.get(&vertex) {
            for &(_, pid) in placed {
                counts[pid as usize] += 1;
            }
        }
        counts
    }

    fn compute_vertex(&self, state: &MutableState, vertex: VertexId) -> CachedVertex {
        let counts = self.partition_counts(state, vertex);
        let mut master: Option<(u64, u32)> = None;
        let mut replicas = Vec::new();
        for (pid, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            replicas.push(pid as u32);
            // Strict > keeps the lowest pid on ties.
            if master.is_none_or(|(best, _)| count > best) {
                master = Some((count, pid as u32));
            }
        }
        CachedVertex {
            master: master.map(|(_, pid)| pid),
            replicas,
        }
    }

    fn vertex_lookup(&self, vertex: VertexId) -> Response {
        tick(&self.counters.lookups);
        if !self.in_range(vertex) {
            return Response::Error(ErrorCode::NotFound);
        }
        if let Some(cached) = self.cache.get(vertex) {
            return Response::VertexInfo {
                master: cached.master,
                replicas: cached.replicas,
            };
        }
        // Fill while holding the read lock: a concurrent writer cannot
        // commit (and invalidate) until this guard drops, so the entry we
        // insert matches the state we read.
        let state = self.state.read().unwrap_or_else(|e| e.into_inner());
        let info = self.compute_vertex(&state, vertex);
        self.cache.insert(vertex, info.clone());
        drop(state);
        Response::VertexInfo {
            master: info.master,
            replicas: info.replicas,
        }
    }

    fn edge_lookup(&self, u: VertexId, v: VertexId) -> Response {
        tick(&self.counters.lookups);
        if u == v || !self.in_range(u) || !self.in_range(v) {
            return Response::Error(if u == v {
                ErrorCode::BadRequest
            } else {
                ErrorCode::NotFound
            });
        }
        let edge = Edge::new(u, v);
        if let Some(eid) = self.graph.view().edge_id(edge.source(), edge.target()) {
            return Response::EdgeInfo {
                partition: self.base.partition_of(eid),
            };
        }
        let state = self.state.read().unwrap_or_else(|e| e.into_inner());
        match state.placements.get(&(edge.source(), edge.target())) {
            Some(&pid) => Response::EdgeInfo { partition: pid },
            None => Response::Error(ErrorCode::NotFound),
        }
    }

    fn neighbors(&self, vertex: VertexId, partition: u32) -> Response {
        tick(&self.counters.lookups);
        if partition as usize >= self.base.num_partitions() {
            return Response::Error(ErrorCode::BadRequest);
        }
        if !self.in_range(vertex) {
            return Response::Error(ErrorCode::NotFound);
        }
        let state = self.state.read().unwrap_or_else(|e| e.into_inner());
        let mut neighbors: Vec<u32> = self
            .graph
            .view()
            .incident(vertex)
            .filter(|&(_, eid)| self.base.partition_of(eid) == partition)
            .map(|(n, _)| n)
            .collect();
        if let Some(placed) = state.adjacency.get(&vertex) {
            neighbors.extend(
                placed
                    .iter()
                    .filter(|&&(_, pid)| pid == partition)
                    .map(|&(n, _)| n),
            );
        }
        drop(state);
        neighbors.sort_unstable();
        Response::NeighborList { neighbors }
    }

    /// Records an accepted fresh placement in the lookup maps. The placer
    /// itself was already advanced by the caller.
    fn register_placement(state: &mut MutableState, source: VertexId, target: VertexId, pid: u32) {
        state.placements.insert((source, target), pid);
        state
            .adjacency
            .entry(source)
            .or_default()
            .push((target, pid));
        state
            .adjacency
            .entry(target)
            .or_default()
            .push((source, pid));
        state.pending += 1;
    }

    fn place_edge(&self, u: VertexId, v: VertexId) -> Response {
        if u == v || !self.in_range(u) || !self.in_range(v) {
            return Response::Error(ErrorCode::BadRequest);
        }
        let edge = Edge::new(u, v);
        let (source, target) = edge.endpoints();
        // Base-graph edges and duplicate placements are idempotent: report
        // the existing partition without consulting the placer, so the
        // placer's decision sequence depends only on *fresh* edges.
        if let Some(eid) = self.graph.view().edge_id(source, target) {
            return Response::Placed {
                partition: self.base.partition_of(eid),
                fresh: false,
            };
        }
        let mut state = self.state.write().unwrap_or_else(|e| e.into_inner());
        // Poison check comes *before* the dedup check: a placement that was
        // applied in memory but never reached the log must not be re-acked
        // as a durable-looking duplicate on retry.
        if state.wal_poisoned {
            return Response::Error(ErrorCode::Internal);
        }
        if let Some(&pid) = state.placements.get(&(source, target)) {
            return Response::Placed {
                partition: pid,
                fresh: false,
            };
        }
        let pid = state.placer.place(source, target);
        // Append-before-ack: the record must be durable before the client
        // hears `Placed`. On failure the placement still enters the
        // in-memory maps (the placer already advanced; dropping it would
        // fork the decision sequence) but the ack is withheld and the
        // service refuses fresh placements until a flush re-baselines.
        let logged = match state.wal.as_mut() {
            Some(wal) => match wal.append(&WalRecord {
                u: source,
                v: target,
                partition: pid,
            }) {
                Ok(()) => {
                    counter("serve.wal.append", 1);
                    true
                }
                Err(_) => {
                    counter("serve.wal.append_failed", 1);
                    false
                }
            },
            None => true, // in-memory service: no durability promise
        };
        Self::register_placement(&mut state, source, target, pid);
        if !logged {
            state.wal_poisoned = true;
        }
        // Invalidate while still holding the write guard: a reader that
        // re-fills afterwards recomputes from the committed state.
        self.cache.invalidate(source);
        self.cache.invalidate(target);
        drop(state);
        if !logged {
            return Response::Error(ErrorCode::Internal);
        }
        tick(&self.counters.placements);
        Response::Placed {
            partition: pid,
            fresh: true,
        }
    }

    fn flush(&self) -> Response {
        let Some(dir) = &self.store_dir else {
            return Response::Error(ErrorCode::BadRequest);
        };
        let mut state = self.state.write().unwrap_or_else(|e| e.into_inner());
        let edges = state.placements.len() as u64;
        match self.write_merged(dir, &state) {
            Ok(()) => {
                state.pending = 0;
                tick(&self.counters.flushes);
                self.last_flush_micros
                    .store(self.started.elapsed().as_micros() as u64, Ordering::Relaxed);
                // The store now covers every logged placement, so the WAL
                // restarts empty. Truncation failure is non-fatal for this
                // flush (the store committed; replaying stale records is
                // idempotent) but poisons fresh placements until the next
                // successful flush re-baselines the log. Success clears an
                // earlier append poison for the same reason.
                if let Some(wal) = state.wal.as_mut() {
                    match wal.truncate() {
                        Ok(()) => state.wal_poisoned = false,
                        Err(_) => {
                            counter("serve.wal.truncate_failed", 1);
                            state.wal_poisoned = true;
                        }
                    }
                }
                Response::Flushed { edges }
            }
            Err(_) => Response::Error(ErrorCode::Internal),
        }
    }

    /// Merges base + placed edges into one sorted canonical list and
    /// rewrites the partition store atomically (manifest-last commit).
    fn write_merged(&self, dir: &Path, state: &MutableState) -> Result<(), ServiceError> {
        let mut placed: Vec<(Edge, PartitionId)> = state
            .placements
            .iter()
            .map(|(&(s, t), &pid)| (Edge::new(s, t), pid))
            .collect();
        placed.sort_unstable_by_key(|&(e, _)| e);

        let graph = self.graph.view();
        let base_len = graph.num_edges();
        let mut edges = Vec::with_capacity(base_len + placed.len());
        let mut assignment = Vec::with_capacity(base_len + placed.len());
        let mut bi = 0usize;
        let mut pi = 0usize;
        while bi < base_len || pi < placed.len() {
            let take_base = match (bi < base_len, placed.get(pi)) {
                (true, Some(&(p, _))) => graph.edge(bi as u32) < p,
                (true, None) => true,
                _ => false,
            };
            if take_base {
                edges.push(graph.edge(bi as u32));
                assignment.push(self.base.partition_of(bi as u32));
                bi += 1;
            } else {
                let (edge, pid) = placed[pi];
                edges.push(edge);
                assignment.push(pid);
                pi += 1;
            }
        }

        let merged_graph = CsrGraph::from_sorted_canonical_edges(graph.num_vertices(), edges)
            .map_err(|e| ServiceError::Config(e.to_string()))?;
        let merged_partition = EdgePartition::new(self.base.num_partitions(), assignment)
            .map_err(|e| ServiceError::Config(e.to_string()))?;
        write_partition_store(dir, &merged_graph, &merged_partition)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use tlp_graph::GraphBuilder;

    /// Path graph 0-1-2-3 plus edge 0-2: partitions chosen by hand.
    fn service() -> PartitionService {
        let graph = GraphBuilder::new()
            .reserve_vertices(5)
            .add_edges([(0, 1), (1, 2), (2, 3), (0, 2)])
            .build();
        // Canonical sorted order: (0,1) (0,2) (1,2) (2,3).
        let partition = EdgePartition::new(2, vec![0, 1, 0, 1]).unwrap();
        PartitionService::new(graph, partition, "greedy", 128).unwrap()
    }

    #[test]
    fn vertex_lookup_reports_master_and_replicas() {
        let svc = service();
        // Vertex 2 touches edges (0,2)=p1, (1,2)=p0, (2,3)=p1 → master 1.
        match svc.handle(&Request::VertexLookup { vertex: 2 }) {
            Response::VertexInfo { master, replicas } => {
                assert_eq!(master, Some(1));
                assert_eq!(replicas, vec![0, 1]);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Vertex 4 is isolated.
        match svc.handle(&Request::VertexLookup { vertex: 4 }) {
            Response::VertexInfo { master, replicas } => {
                assert_eq!(master, None);
                assert!(replicas.is_empty());
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Second lookup hits the cache.
        let before = svc.cache().hits();
        svc.handle(&Request::VertexLookup { vertex: 2 });
        assert_eq!(svc.cache().hits(), before + 1);
    }

    #[test]
    fn edge_and_neighbor_lookups() {
        let svc = service();
        assert_eq!(
            svc.handle(&Request::EdgeLookup { u: 2, v: 0 }),
            Response::EdgeInfo { partition: 1 },
            "endpoint order does not matter"
        );
        assert_eq!(
            svc.handle(&Request::EdgeLookup { u: 0, v: 3 }),
            Response::Error(ErrorCode::NotFound)
        );
        assert_eq!(
            svc.handle(&Request::Neighbors {
                vertex: 2,
                partition: 1
            }),
            Response::NeighborList {
                neighbors: vec![0, 3]
            }
        );
        assert_eq!(
            svc.handle(&Request::Neighbors {
                vertex: 2,
                partition: 9
            }),
            Response::Error(ErrorCode::BadRequest)
        );
    }

    #[test]
    fn placement_is_idempotent_and_updates_lookups() {
        let svc = service();
        // (1,3) is a fresh edge.
        let first = svc.handle(&Request::PlaceEdge { u: 3, v: 1 });
        let Response::Placed { partition, fresh } = first else {
            panic!("unexpected response {first:?}");
        };
        assert!(fresh);
        // Replay (either endpoint order) reports the same partition, stale.
        assert_eq!(
            svc.handle(&Request::PlaceEdge { u: 1, v: 3 }),
            Response::Placed {
                partition,
                fresh: false
            }
        );
        // The placed edge is now visible to lookups.
        assert_eq!(
            svc.handle(&Request::EdgeLookup { u: 1, v: 3 }),
            Response::EdgeInfo { partition }
        );
        // Base edges report their stored partition, stale.
        assert_eq!(
            svc.handle(&Request::PlaceEdge { u: 0, v: 1 }),
            Response::Placed {
                partition: 0,
                fresh: false
            }
        );
        // Self-loops and out-of-range endpoints are rejected.
        assert_eq!(
            svc.handle(&Request::PlaceEdge { u: 1, v: 1 }),
            Response::Error(ErrorCode::BadRequest)
        );
        assert_eq!(
            svc.handle(&Request::PlaceEdge { u: 1, v: 99 }),
            Response::Error(ErrorCode::BadRequest)
        );
        let stats = svc.stats();
        assert_eq!(stats.placements, 1);
        assert_eq!(stats.pending_placements, 1);
    }

    #[test]
    fn placement_invalidates_cached_vertices() {
        let svc = service();
        // Prime the cache for vertex 3 (edge (2,3)=p1 only).
        match svc.handle(&Request::VertexLookup { vertex: 3 }) {
            Response::VertexInfo { replicas, .. } => assert_eq!(replicas, vec![1]),
            other => panic!("unexpected response {other:?}"),
        }
        let Response::Placed { partition, .. } = svc.handle(&Request::PlaceEdge { u: 3, v: 1 })
        else {
            panic!("placement failed");
        };
        // The re-read must see the placed edge's partition.
        match svc.handle(&Request::VertexLookup { vertex: 3 }) {
            Response::VertexInfo { replicas, .. } => {
                assert!(
                    replicas.contains(&partition),
                    "replicas {replicas:?} missing placed partition {partition}"
                );
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn flush_without_store_dir_is_rejected() {
        let svc = service();
        assert_eq!(
            svc.handle(&Request::Flush),
            Response::Error(ErrorCode::BadRequest)
        );
    }

    #[test]
    fn flush_roundtrips_through_partition_store() {
        let dir = std::env::temp_dir().join(format!(
            "tlp-serve-flush-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = service();
        write_partition_store(&dir, svc.graph(), &svc.base).unwrap();
        let svc = PartitionService::open_store(&dir, "greedy", 128).unwrap();
        let Response::Placed { partition, .. } = svc.handle(&Request::PlaceEdge { u: 3, v: 1 })
        else {
            panic!("placement failed");
        };
        assert_eq!(svc.handle(&Request::Flush), Response::Flushed { edges: 1 });
        assert_eq!(svc.stats().pending_placements, 0);

        let reader = PartitionStoreReader::open(&dir).unwrap();
        let (graph, part) = reader.load().unwrap();
        assert_eq!(graph.num_edges(), 5);
        let eid = graph.edge_id(1, 3).expect("flushed edge present");
        assert_eq!(part.partition_of(eid), partition);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A seeded script of `len` requests over the vertices and edges of
    /// `graph` and `p` partitions: lookups of every kind, placements of
    /// fresh, base, repeated, self-loop and out-of-range edges, the odd
    /// `Stats`, and a `Flush` half-way through.
    fn request_script(graph: GraphView<'_>, p: u32, seed: u64, len: usize) -> Vec<Request> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = graph.num_vertices() as u32;
        let mut placed: Vec<(u32, u32)> = Vec::new();
        // Vertex ids run two past the graph, so some are out of range.
        let vertex = |rng: &mut StdRng| rng.gen_range(0..n + 2);
        let base_edge = |rng: &mut StdRng| {
            let (u, v) = graph
                .edge(rng.gen_range(0..graph.num_edges() as u32))
                .endpoints();
            if rng.gen_bool(0.5) {
                (u, v)
            } else {
                (v, u)
            }
        };
        let mut script = Vec::with_capacity(len + 1);
        for step in 0..len {
            if step == len / 2 {
                script.push(Request::Flush);
            }
            let request = match rng.gen_range(0..10) {
                0 | 1 => Request::VertexLookup {
                    vertex: vertex(&mut rng),
                },
                2 => {
                    let (u, v) = base_edge(&mut rng);
                    Request::EdgeLookup { u, v }
                }
                3 => Request::EdgeLookup {
                    u: vertex(&mut rng),
                    v: vertex(&mut rng),
                },
                4 | 5 => Request::Neighbors {
                    vertex: vertex(&mut rng),
                    partition: rng.gen_range(0..p + 1),
                },
                6 => {
                    let (u, v) = base_edge(&mut rng);
                    Request::PlaceEdge { u, v }
                }
                7 if !placed.is_empty() => {
                    let (u, v) = placed[rng.gen_range(0..placed.len())];
                    Request::PlaceEdge { u: v, v: u }
                }
                8 => Request::Stats,
                _ => {
                    let (u, v) = (vertex(&mut rng), vertex(&mut rng));
                    placed.push((u, v));
                    Request::PlaceEdge { u, v }
                }
            };
            script.push(request);
        }
        script
    }

    #[test]
    fn open_store_with_graph_serves_from_the_arena() {
        let dir = std::env::temp_dir().join(format!(
            "tlp-serve-arena-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let graph = tlp_graph::generators::chung_lu(60, 180, 2.2, 5);
        let p = 3u32;
        let assignment = (0..graph.num_edges() as u32).map(|e| e * 7 % p).collect();
        let partition = EdgePartition::new(p as usize, assignment).unwrap();
        // Each service gets its own copy of the store, so their flushes
        // and WAL appends cannot interfere.
        let (rebuilt_dir, arena_dir) = (dir.join("rebuilt"), dir.join("arena"));
        for store in [&rebuilt_dir, &arena_dir] {
            write_partition_store(store, &graph, &partition).unwrap();
        }
        let graph_path = dir.join("graph.tlpg");
        tlp_store::write_graph(&graph_path, &graph, &Default::default()).unwrap();

        // Every response from the arena must match the service whose CSR
        // is rebuilt from the segments, and so must the flushed stores.
        let rebuilt = PartitionService::open_store(&rebuilt_dir, "hdrf", 16).unwrap();
        let arena =
            PartitionService::open_store_with_graph(&arena_dir, &graph_path, "hdrf", 16).unwrap();
        let mut script = request_script(graph.view(), p, 0x5EED, 600);
        script.push(Request::Flush);
        let mut fresh = 0;
        for (step, request) in script.iter().enumerate() {
            let response = arena.handle(request);
            fresh += usize::from(matches!(response, Response::Placed { fresh: true, .. }));
            assert_eq!(
                response,
                rebuilt.handle(request),
                "step {step}: {request:?}"
            );
        }
        assert!(fresh > 10, "the script placed only {fresh} fresh edges");
        for file in std::fs::read_dir(&rebuilt_dir).unwrap() {
            let name = file.unwrap().file_name();
            assert_eq!(
                std::fs::read(rebuilt_dir.join(&name)).unwrap(),
                std::fs::read(arena_dir.join(&name)).unwrap(),
                "flushed {name:?} differs"
            );
        }

        // A graph that does not match the store is rejected, not served.
        let other = GraphBuilder::new()
            .reserve_vertices(5)
            .add_edges([(0, 1), (1, 2), (2, 3), (1, 3)])
            .build();
        let other_path = dir.join("other.tlpg");
        tlp_store::write_graph(&other_path, &other, &Default::default()).unwrap();
        let err =
            match PartitionService::open_store_with_graph(&arena_dir, &other_path, "greedy", 128) {
                Ok(_) => panic!("a graph that does not match the store was accepted"),
                Err(err) => err,
            };
        assert!(
            matches!(err, ServiceError::Store(StoreError::Corrupt(_))),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
