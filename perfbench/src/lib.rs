//! End-to-end and per-layer benchmark for the TLP workspace.
//!
//! Three workloads drive the layers from outside, through their public
//! functions only: `tlp-cl200k` (text ingest → TLP engine → partition
//! store), `stream-rmat1m` (text → `.tlpg` v2 → HDRF strictly streamed →
//! partition store) and `serve-rmat1m` (a million closed-loop requests
//! through the codec and `PartitionService::handle`). Every iteration of a
//! workload ends by serving the store it produced, so the serve metrics
//! exist on all three. See `README.md` for the reasons behind each
//! workload and the map from per-layer to end-to-end metrics.

#![forbid(unsafe_code)]

pub mod inputs;
mod load;
mod trace;
mod workloads;

use std::path::PathBuf;

pub use workloads::run;

/// Partitions of every partitioning and serve workload.
pub const PARTITIONS: usize = 32;
/// Edge budget of every streamed pass.
pub const STREAM_BUDGET: usize = 64 * 1024;
/// WAL group commit of the served store: one fsync per this many appends.
/// The work files sit on the checkout's disk, where an fsync took 0.1 to
/// 1.3 ms as other tenants' load came and went; at one fsync per 64
/// appends that alone moved throughput by 30% between runs.
pub const WAL_GROUP_COMMIT: u64 = 1024;
/// Placement policy of the served store.
pub const SERVE_PLACER: &str = "hdrf";
/// Set-ups per untraced iteration; `setup_s` is the median of all.
pub const SETUP_REPS: usize = 5;
/// Persists per untraced iteration; `persist_s` is the median of all.
pub const PERSIST_REPS: usize = 5;

/// End-to-end metrics printed by an untraced run, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("persist_s", "s"),
    ("rf", "ratio"),
    ("balance", "ratio"),
    ("store_bytes_per_edge", "B/edge"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
    ("lookup_p50_us", "us"),
    ("lookup_p99_us", "us"),
    ("neighbors_p50_us", "us"),
    ("place_p50_us", "us"),
];

/// Per-layer metrics printed by a traced run, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.text_parse_s", "s"),
    ("store.write_graph_s", "s"),
    ("store.graph_open_s", "s"),
    ("store.load_assignment_s", "s"),
    ("store.stream_s", "s"),
    ("store.stream_chunks", "count"),
    ("store.peak_buffer_edges", "edges"),
    ("store.bytes_written", "B"),
    ("store.fsync", "count"),
    ("core.round.select", "count"),
    ("core.scoring.rescored", "count"),
    ("core.scoring.cache_hits", "count"),
    ("core.scoring.skipped", "count"),
    ("core.kernel.probes", "count"),
    ("core.kernel.count.mark", "count"),
    ("core.kernel.count.gallop", "count"),
    ("core.kernel.load", "count"),
    ("core.rescored_per_select", "ratio"),
    ("core.round_ms_total", "ms"),
    ("baselines.place_s", "s"),
    ("baselines.seed_placer_s", "s"),
    ("serve.codec_s", "s"),
    ("serve.handle_s", "s"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.fresh_share", "ratio"),
    ("serve.wal.append", "count"),
    ("serve.neighbors_p99_us", "us"),
    ("serve.place_p99_us", "us"),
    ("serve.place_p999_us", "us"),
    ("serve.lookups", "count"),
    ("serve.neighbors", "count"),
    ("serve.placements", "count"),
    ("obs.trace_overhead", "ratio"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Text ingest and TLP at p = 32 on a 200k-edge Chung–Lu graph.
    TlpCl200k,
    /// Text → v2, then HDRF at p = 32 strictly streamed from the v2 file.
    StreamRmat1m,
    /// A million closed-loop requests against the HDRF store of the
    /// 1M-edge R-MAT graph.
    ServeRmat1m,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TlpCl200k,
        Workload::StreamRmat1m,
        Workload::ServeRmat1m,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TlpCl200k => "tlp-cl200k",
            Workload::StreamRmat1m => "stream-rmat1m",
            Workload::ServeRmat1m => "serve-rmat1m",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generated input the workload reads.
    pub fn input(self) -> inputs::InputKind {
        match self {
            Workload::TlpCl200k => inputs::InputKind::ChungLu,
            Workload::StreamRmat1m | Workload::ServeRmat1m => inputs::InputKind::Rmat,
        }
    }
}

/// Input sizes. The command line always uses [`Scale::FULL`]; the smoke
/// test runs [`Scale::TINY`].
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Chung–Lu vertices.
    pub cl_vertices: usize,
    /// Chung–Lu edges.
    pub cl_edges: usize,
    /// R-MAT has `2^rmat_scale` vertex ids.
    pub rmat_scale: u32,
    /// R-MAT edges.
    pub rmat_edges: usize,
    /// Requests per iteration of `serve-rmat1m`.
    pub serve_requests: usize,
    /// Requests per serve probe of the partitioning workloads.
    pub probe_requests: usize,
    /// Vertex-cache entries of every served store.
    pub cache_entries: usize,
    /// Requests per throughput sample; `ops_per_s` is the median sample.
    pub segment_requests: usize,
}

impl Scale {
    /// The sizes the benchmark reports.
    pub const FULL: Scale = Scale {
        cl_vertices: 40_000,
        cl_edges: 200_000,
        rmat_scale: 17,
        rmat_edges: 1_000_000,
        serve_requests: 1_000_000,
        probe_requests: 200_000,
        cache_entries: 65_536,
        segment_requests: 50_000,
    };

    /// Seconds-long sizes for the smoke test.
    pub const TINY: Scale = Scale {
        cl_vertices: 400,
        cl_edges: 2_000,
        rmat_scale: 9,
        rmat_edges: 4_000,
        serve_requests: 3_000,
        probe_requests: 1_000,
        cache_entries: 64,
        segment_requests: 500,
    };
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seeds input generation, the algorithm and the request stream.
    pub seed: u64,
    /// Measuring time; iterations repeat until it has passed.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an end-to-end run.
    pub trace: bool,
    /// Root of inputs, per-run scratch files and traces.
    pub work_dir: PathBuf,
    /// Input sizes.
    pub scale: Scale,
    /// Fault injection for the smoke test: move one edge of every
    /// partitioning result to another partition before it is checked.
    pub flip_one_partition_id: bool,
}

/// What a run measured: the last line of the benchmark's output.
#[derive(Clone, Debug)]
pub struct Report {
    /// Iterations run.
    pub attempted: u64,
    /// Iterations with a failed output check or an error reply.
    pub failed: u64,
    /// `(name, unit, value)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Provenance and settings, printed on the line before the result.
    pub context: Vec<(&'static str, String)>,
}

impl Report {
    /// True when every check of every iteration passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
    }

    /// The result object, one line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Provenance and settings as one JSON object.
    pub fn context_line(&self) -> String {
        let fields: Vec<String> = self
            .context
            .iter()
            .map(|(key, value)| format!("\"{key}\": \"{}\"", value.replace(['"', '\\'], "_")))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Formats a finite number as JSON, keeping every digit.
fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "metric value {value} is not finite");
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}
