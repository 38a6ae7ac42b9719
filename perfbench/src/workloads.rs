//! The three workloads, the checks every iteration runs on its outputs,
//! and the folding of iterations into the reported metrics.
//!
//! One iteration is one pass of a workload's pipeline. Untraced iterations
//! give the end-to-end metrics. A traced run alternates untraced and
//! traced iterations: the traced ones run under the benchmark's spans and a
//! counter-folding `tlp-obs` observer and give the per-layer metrics; the
//! untraced ones give the tails and the base of `obs.trace_overhead`.

use crate::inputs::{algo_config, InputSet};
use crate::load::{self, LoopOutcome};
use crate::trace::{CounterFold, Tracer};
use crate::{
    Config, Report, Workload, END_TO_END, PARTITIONS, PERSIST_REPS, PER_LAYER, SERVE_PLACER,
    SETUP_REPS, STREAM_BUDGET, WAL_GROUP_COMMIT,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tlp_core::{AlgorithmRegistry, EdgePartition, PartitionMetrics, PipelineError, RunArtifact};
use tlp_graph::{Edge, EdgeSource, GraphView, PassStats, SourceError};
use tlp_serve::{PartitionService, Request, Response};
use tlp_store::{
    write_graph, write_partition_store, BinaryFileSource, LoadedGraph, PartitionStoreReader,
    StoreReader, TextFileSource, WriteOptions, WAL_RECORD_LEN,
};

/// Per-layer times read from the benchmark's spans: (metric, span name).
const SPAN_METRICS: &[(&str, &str)] = &[
    ("graph.text_parse_s", "graph.text_parse"),
    ("store.write_graph_s", "store.write_graph"),
    ("store.graph_open_s", "store.graph_open"),
    ("store.load_assignment_s", "store.load_assignment"),
    ("store.stream_s", "store.stream_pass"),
    ("baselines.place_s", "baselines.place"),
    ("baselines.seed_placer_s", "baselines.seed_placer"),
    ("serve.codec_s", "serve.codec"),
    ("serve.handle_s", "serve.handle"),
];

/// Per-layer counts read from the program's `tlp-obs` counters.
const COUNTER_METRICS: &[(&str, &str)] = &[
    ("store.fsync", "store.fsync"),
    ("serve.wal.append", "serve.wal.append"),
    ("core.round.select", "round.select"),
    ("core.scoring.rescored", "scoring.rescored"),
    ("core.scoring.cache_hits", "scoring.cache_hits"),
    ("core.scoring.skipped", "scoring.skipped"),
    ("core.kernel.probes", "kernel.probes"),
    ("core.kernel.count.mark", "kernel.count.mark"),
    ("core.kernel.count.gallop", "kernel.count.gallop"),
    ("core.kernel.load", "kernel.load"),
];

/// Per-layer tails taken from the untraced iterations of a traced run.
const UNTRACED_LAYER_METRICS: &[&str] = &[
    "serve.neighbors_p99_us",
    "serve.place_p99_us",
    "serve.place_p999_us",
];

struct Ctx<'a> {
    cfg: &'a Config,
    inputs: &'a InputSet,
    run_dir: PathBuf,
    registry: AlgorithmRegistry,
    requests: Vec<Request>,
}

/// One pass of a workload.
#[derive(Default)]
struct Iteration {
    traced: bool,
    /// Metric samples by name (end-to-end and per-layer).
    values: BTreeMap<&'static str, Vec<f64>>,
    /// Counter totals of a traced iteration, by the program's names.
    counters: BTreeMap<String, u64>,
    failures: Vec<String>,
    sent: u64,
    answered: u64,
}

impl Iteration {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, vec![value]);
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    fn add(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_insert_with(|| vec![0.0])[0] += value;
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |samples| samples[0])
    }
}

/// Runs `cfg.workload` on the cached `inputs` for `cfg.seconds` and folds
/// its iterations into a report.
///
/// # Errors
///
/// A description of the first program call that returned an error (a
/// failed output check is not an error: it is counted in the report).
pub fn run(cfg: &Config, inputs: &InputSet) -> Result<Report, String> {
    let run_dir = cfg.work_dir.join("run").join(cfg.workload.name());
    remove_dir_if_present(&run_dir)?;
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {run_dir:?}: {e}"))?;

    let num_vertices = StoreReader::open(&inputs.v2())
        .map_err(fail("read v2 header"))?
        .header()
        .num_vertices as u32;
    let count = match cfg.workload {
        Workload::ServeRmat1m => cfg.scale.serve_requests,
        _ => cfg.scale.probe_requests,
    };
    let ctx = Ctx {
        cfg,
        inputs,
        run_dir,
        registry: tlp_pipeline::builtin_registry(),
        requests: load::requests(num_vertices, PARTITIONS as u32, count, cfg.seed),
    };

    let trace_path =
        cfg.work_dir
            .join("trace")
            .join(format!("{}-s{}.jsonl", cfg.workload.name(), cfg.seed));
    let mut trace_out = None;
    if cfg.trace {
        std::fs::create_dir_all(trace_path.parent().expect("trace file has a parent"))
            .map_err(|e| format!("create trace dir: {e}"))?;
        let file = std::fs::File::create(&trace_path).map_err(|e| format!("create trace: {e}"))?;
        trace_out = Some(std::io::BufWriter::new(file));
    }

    // Iterate while another iteration as long as the last one still fits
    // in the measuring time, so a run lasts about `cfg.seconds`.
    let min_iterations = if cfg.trace { 2 } else { 1 };
    let started = Instant::now();
    let peak_rss = if cfg.trace {
        0.0
    } else {
        run_phase_peak_rss(&ctx)?
    };
    let mut last_s = 0.0;
    let mut iterations: Vec<Iteration> = Vec::new();
    while iterations.len() < min_iterations
        || started.elapsed().as_secs_f64() + last_s <= cfg.seconds
    {
        let iteration_started = Instant::now();
        let traced = cfg.trace && iterations.len() % 2 == 1;
        let tracer = Tracer::new(traced);
        let iteration = if traced {
            let (result, fold) = tlp_obs::with_observer(CounterFold::default(), || {
                workload_iteration(&ctx, &tracer)
            });
            result.map(|mut it| {
                for (name, value) in fold.counters {
                    *it.counters.entry(name).or_default() += value;
                }
                it
            })?
        } else {
            workload_iteration(&ctx, &tracer)?
        };
        if let Some(out) = trace_out.as_mut() {
            tracer
                .write_jsonl(out, iterations.len())
                .map_err(|e| format!("write trace: {e}"))?;
        }
        let mut iteration = iteration;
        iteration.traced = traced;
        if traced {
            fold_traced_layers(&mut iteration, &tracer);
        }
        for failure in &iteration.failures {
            eprintln!("check failed (iteration {}): {failure}", iterations.len());
        }
        iterations.push(iteration);
        last_s = secs(iteration_started);
    }
    if let Some(mut out) = trace_out {
        out.flush().map_err(|e| format!("write trace: {e}"))?;
    }

    let mut context = vec![
        ("workload", cfg.workload.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
        ("iterations", iterations.len().to_string()),
        ("work_dir", cfg.work_dir.display().to_string()),
        ("wal_group_commit", WAL_GROUP_COMMIT.to_string()),
        ("partitions", PARTITIONS.to_string()),
        ("stream_budget_edges", STREAM_BUDGET.to_string()),
        ("requests_per_iteration", ctx.requests.len().to_string()),
    ];
    if cfg.trace {
        context.push(("trace_file", trace_path.display().to_string()));
    }
    Ok(fold_report(cfg, &iterations, peak_rss, context))
}

fn fail<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Traced iterations run each step once: their spans must cover one pass.
fn reps_unless_traced(reps: usize, tracer: &Tracer) -> usize {
    if tracer.enabled() {
        1
    } else {
        reps
    }
}

fn workload_iteration(ctx: &Ctx, tracer: &Tracer) -> Result<Iteration, String> {
    let _span = tracer.span("iteration");
    match ctx.cfg.workload {
        Workload::TlpCl200k | Workload::StreamRmat1m => partition_iteration(ctx, tracer),
        Workload::ServeRmat1m => serve_iteration(ctx, tracer),
    }
}

/// Ingest → partition → persist, then a serve probe of the written store.
fn partition_iteration(ctx: &Ctx, tracer: &Tracer) -> Result<Iteration, String> {
    let cfg = ctx.cfg;
    let streamed = cfg.workload == Workload::StreamRmat1m;
    let v2_path = if streamed {
        ctx.run_dir.join("graph.tlpg")
    } else {
        ctx.inputs.v2()
    };
    let mut it = Iteration::default();

    // Set-up: text parse → CSR (and, streamed, → v2 file → source open).
    let mut source: Option<Box<dyn EdgeSource>> = None;
    for _ in 0..reps_unless_traced(SETUP_REPS, tracer) {
        drop(source.take());
        let started = Instant::now();
        let (text, binary) = {
            let _span = tracer.span("setup");
            let mut text = TextFileSource::new(&ctx.inputs.text(), STREAM_BUDGET);
            let graph = {
                let _span = tracer.span("graph.text_parse");
                text.random_access().map_err(fail("parse text"))?
            };
            let binary = if streamed {
                {
                    let _span = tracer.span("store.write_graph");
                    write_graph(&v2_path, graph, &WriteOptions::default())
                        .map_err(fail("write v2"))?;
                }
                let _span = tracer.span("store.source_open");
                Some(
                    BinaryFileSource::open(&v2_path, STREAM_BUDGET)
                        .map_err(fail("open v2 source"))?
                        .strict_streaming(true),
                )
            } else {
                None
            };
            (text, binary)
        };
        it.push("setup_s", secs(started));
        // A streamed run holds only the binary source: the parsed CSR goes.
        source = Some(match binary {
            Some(binary) => Box::new(binary),
            None => Box::new(text),
        });
    }
    let mut source = source.expect("at least one set-up");
    if streamed {
        it.add("store.bytes_written", file_bytes(&v2_path)? as f64);
    }

    // Run: the registry, through a wrapper that times stream passes.
    let spec = if streamed { SERVE_PLACER } else { "tlp" };
    let mut timed = TimedSource {
        inner: source.as_mut(),
        tracer,
        chunks: 0,
        peak_buffer: 0,
    };
    let config = algo_config(cfg.seed);
    let started = Instant::now();
    let result: Result<RunArtifact, PipelineError> = {
        let _span = tracer.span("pipeline.run");
        if tracer.enabled() {
            ctx.registry
                .run_recorded(spec, &config, &mut timed, PARTITIONS)
                .map(|(artifact, _)| artifact)
        } else {
            ctx.registry.run(spec, &config, &mut timed, PARTITIONS)
        }
    };
    let mut artifact = result.map_err(fail("partition"))?;
    it.set("run_s", secs(started));
    it.set("store.stream_chunks", timed.chunks as f64);
    it.set("store.peak_buffer_edges", timed.peak_buffer as f64);
    drop(source);
    if let Some(report) = &artifact.obs {
        for counter in &report.counters {
            *it.counters.entry(counter.name.clone()).or_default() += counter.total;
        }
        let round_us: u64 = report
            .spans
            .iter()
            .filter(|s| s.name == "round")
            .map(|s| s.total_us)
            .sum();
        it.set("core.round_ms_total", round_us as f64 / 1000.0);
    }
    if cfg.flip_one_partition_id {
        artifact.partition = flip_one(&artifact.partition);
    }

    // Persist. The graph comes back from the v2 file (the same numbering
    // as the parse), outside any timing.
    let store_dir = ctx.run_dir.join("store");
    let loaded = LoadedGraph::open(&v2_path).map_err(fail("open v2 graph"))?;
    let graph = loaded.view();
    let num_edges = graph.num_edges();
    for _ in 0..reps_unless_traced(PERSIST_REPS, tracer) {
        remove_dir_if_present(&store_dir)?;
        let started = Instant::now();
        let _span = tracer.span("store.write_partition_store");
        write_partition_store(&store_dir, graph, &artifact.partition)
            .map_err(fail("write partition store"))?;
        it.push("persist_s", secs(started));
    }
    let store_bytes = dir_bytes(&store_dir)?;
    it.add("store.bytes_written", store_bytes as f64);
    it.set(
        "store_bytes_per_edge",
        store_bytes as f64 / num_edges as f64,
    );
    it.set("rf", artifact.rf());
    it.set("balance", artifact.balance());

    // TLP's capacity is C = ceil(m / p) edges, checked before each vertex
    // joins, so a partition overshoots C by less than one vertex's degree.
    // HDRF declares no capacity (its balance term only weighs the choice),
    // so its balance is left to the `balance` metric's bound.
    let bound = (!streamed).then(|| {
        let max_degree = graph.vertices().map(|v| graph.degree(v)).max().unwrap_or(0);
        (num_edges.div_ceil(PARTITIONS) + max_degree) as f64 * PARTITIONS as f64 / num_edges as f64
    });
    check_partition(&mut it.failures, &artifact, num_edges, bound, &store_dir)?;
    ctx.check_repeatable(&mut it.failures, artifact.rf(), artifact.balance());
    drop(loaded);

    // Serve probe of the store just written.
    let service = open_service(ctx, &store_dir, &v2_path, tracer)?;
    let sent = send_requests(&mut it, &service, ctx, tracer);
    let (response, _) = flush(&service, tracer);
    check_flushed(&mut it, &store_dir, &sent, &response)?;
    Ok(it)
}

/// Fresh store copy → open → a million requests → flush.
fn serve_iteration(ctx: &Ctx, tracer: &Tracer) -> Result<Iteration, String> {
    let store_dir = ctx.run_dir.join("store");
    remove_dir_if_present(&store_dir)?;
    copy_dir(&ctx.inputs.store(), &store_dir)?;
    let mut it = Iteration::default();
    let mut service = None;
    for _ in 0..reps_unless_traced(SETUP_REPS, tracer) {
        drop(service.take());
        let started = Instant::now();
        service = Some(open_service(ctx, &store_dir, &ctx.inputs.v2(), tracer)?);
        it.push("setup_s", secs(started));
    }
    let service = service.expect("at least one set-up");
    let sent = send_requests(&mut it, &service, ctx, tracer);
    it.set("run_s", sent.loop_s);
    // Later flushes rewrite the same merged store, so each is a sample of
    // the same work.
    let mut response = None;
    for _ in 0..reps_unless_traced(PERSIST_REPS, tracer) {
        let (reply, flush_s) = flush(&service, tracer);
        it.push("persist_s", flush_s);
        response = Some(reply);
    }
    let response = response.expect("at least one flush");
    let flushed = check_flushed(&mut it, &store_dir, &sent, &response)?;
    it.set("rf", flushed.rf);
    it.set("balance", flushed.balance);
    it.set(
        "store_bytes_per_edge",
        flushed.bytes as f64 / flushed.edges as f64,
    );
    ctx.check_repeatable(&mut it.failures, flushed.rf, flushed.balance);
    Ok(it)
}

/// The resident high-water mark of the workload's timed phase, in MiB: the
/// registry run over the set-up source, or the request loop over an opened
/// service. It runs once, first in the process, so the mark holds what that
/// phase and its inputs keep resident and no memory that an earlier
/// iteration freed but the allocator kept. The streamed run opens its
/// source on the cached v2 file without parsing the text, so no CSR is
/// resident and a regression that buffers the stream shows.
fn run_phase_peak_rss(ctx: &Ctx) -> Result<f64, String> {
    let config = algo_config(ctx.cfg.seed);
    match ctx.cfg.workload {
        Workload::TlpCl200k => {
            let mut text = TextFileSource::new(&ctx.inputs.text(), STREAM_BUDGET);
            text.random_access().map_err(fail("parse text"))?;
            reset_peak_rss()?;
            ctx.registry
                .run("tlp", &config, &mut text, PARTITIONS)
                .map_err(fail("partition"))?;
        }
        Workload::StreamRmat1m => {
            let mut binary = BinaryFileSource::open(&ctx.inputs.v2(), STREAM_BUDGET)
                .map_err(fail("open v2 source"))?
                .strict_streaming(true);
            reset_peak_rss()?;
            ctx.registry
                .run(SERVE_PLACER, &config, &mut binary, PARTITIONS)
                .map_err(fail("partition"))?;
        }
        Workload::ServeRmat1m => {
            let store_dir = ctx.run_dir.join("store");
            copy_dir(&ctx.inputs.store(), &store_dir)?;
            let tracer = Tracer::new(false);
            let service = open_service(ctx, &store_dir, &ctx.inputs.v2(), &tracer)?;
            reset_peak_rss()?;
            load::drive(
                &service,
                &ctx.requests,
                ctx.cfg.scale.segment_requests,
                &tracer,
            );
        }
    }
    peak_rss_mb()
}

impl Ctx<'_> {
    /// The same seed must give the same partition quality in every
    /// iteration and every run of one build: the first result is kept
    /// beside the build's cached inputs and later ones are compared with it
    /// bit for bit. Another build keeps its own record, so a change that
    /// moves rf is judged by the `rf` bound, not by this check.
    fn check_repeatable(&self, failures: &mut Vec<String>, rf: f64, balance: f64) {
        let path = self
            .inputs
            .dir
            .join(format!("expected-{}", self.cfg.workload.name()));
        let line = format!("{} {}", rf.to_bits(), balance.to_bits());
        match std::fs::read_to_string(&path) {
            Ok(previous) if previous != line => failures.push(format!(
                "rf/balance {rf}/{balance} differ from an earlier run of this seed ({previous})"
            )),
            Ok(_) => {}
            Err(_) => {
                if let Err(e) = std::fs::write(&path, &line) {
                    failures.push(format!("cannot record rf for later runs: {e}"));
                }
            }
        }
    }
}

/// Opens a served store the way `tlp-serve STORE --graph FILE` does. Traced,
/// the three layer calls inside the open are first replayed one by one so
/// each gets its own span.
fn open_service(
    ctx: &Ctx,
    store: &Path,
    graph: &Path,
    tracer: &Tracer,
) -> Result<PartitionService, String> {
    if tracer.enabled() {
        let loaded = {
            let _span = tracer.span("store.graph_open");
            LoadedGraph::open(graph).map_err(fail("open v2 graph"))?
        };
        let partition = {
            let _span = tracer.span("store.load_assignment");
            PartitionStoreReader::open(store)
                .and_then(|reader| reader.load_assignment(loaded.view()))
                .map_err(fail("load assignment"))?
        };
        let _span = tracer.span("baselines.seed_placer");
        tlp_pipeline::seeded_streaming_placer(SERVE_PLACER, loaded.view(), &partition)
            .map_err(fail("seed placer"))?;
    }
    let _span = tracer.span("serve.open");
    let service = PartitionService::open_store_with_graph(
        store,
        graph,
        SERVE_PLACER,
        ctx.cfg.scale.cache_entries,
    )
    .map_err(fail("open service"))?;
    service.set_wal_group_commit(WAL_GROUP_COMMIT);
    Ok(service)
}

/// Sends the request stream and records its latencies, throughput
/// samples and cache figures in `it`.
fn send_requests(
    it: &mut Iteration,
    service: &PartitionService,
    ctx: &Ctx,
    tracer: &Tracer,
) -> Sent {
    let mut outcome: LoopOutcome = load::drive(
        service,
        &ctx.requests,
        ctx.cfg.scale.segment_requests,
        tracer,
    );
    let stats = service.stats();
    it.sent += outcome.sent;
    it.answered += outcome.ok();
    for &ops in &outcome.segment_ops {
        it.push("ops_per_s", ops);
    }
    it.set(
        "lookup_p50_us",
        load::percentile_us(&mut outcome.lookup_ns, 50.0),
    );
    it.set(
        "lookup_p99_us",
        load::percentile_us(&mut outcome.lookup_ns, 99.0),
    );
    it.set(
        "neighbors_p50_us",
        load::percentile_us(&mut outcome.neighbors_ns, 50.0),
    );
    it.set(
        "serve.neighbors_p99_us",
        load::percentile_us(&mut outcome.neighbors_ns, 99.0),
    );
    it.set(
        "place_p50_us",
        load::percentile_us(&mut outcome.place_ns, 50.0),
    );
    it.set(
        "serve.place_p99_us",
        load::percentile_us(&mut outcome.place_ns, 99.0),
    );
    it.set(
        "serve.place_p999_us",
        load::percentile_us(&mut outcome.place_ns, 99.9),
    );
    it.set("serve.lookups", outcome.lookup_ns.len() as f64);
    it.set("serve.neighbors", outcome.neighbors_ns.len() as f64);
    it.set("serve.placements", outcome.place_ns.len() as f64);
    it.set(
        "serve.fresh_share",
        outcome.fresh_acks.len() as f64 / outcome.place_ns.len().max(1) as f64,
    );
    let probes = stats.cache_hits + stats.cache_misses;
    it.set(
        "serve.cache_hit_rate",
        stats.cache_hits as f64 / probes.max(1) as f64,
    );
    it.set("serve.cache_evictions", stats.cache_evictions as f64);
    Sent {
        loop_s: outcome.loop_s,
        base_edges: service.graph().num_edges() as u64,
        fresh_acks: outcome.fresh_acks,
        errors: outcome.errors,
    }
}

fn flush(service: &PartitionService, tracer: &Tracer) -> (Response, f64) {
    let started = Instant::now();
    let _span = tracer.span("serve.flush");
    let response = service.handle(&Request::Flush);
    (response, secs(started))
}

/// What a serve pass left to check after its flush.
struct Sent {
    loop_s: f64,
    base_edges: u64,
    fresh_acks: Vec<(u32, u32, u32)>,
    errors: u64,
}

/// Quality and size of a flushed store.
struct Flushed {
    rf: f64,
    balance: f64,
    bytes: u64,
    edges: u64,
}

/// Checks a flushed store: no error replies, the flush covered every fresh
/// acknowledgement, each acknowledged edge is stored in the partition it
/// was acknowledged with, and the manifest's quality figures match a
/// recomputation from the segments.
fn check_flushed(
    it: &mut Iteration,
    store_dir: &Path,
    sent: &Sent,
    response: &Response,
) -> Result<Flushed, String> {
    let acks = sent.fresh_acks.len() as u64;
    if sent.errors > 0 {
        it.failures
            .push(format!("{} error replies other than NotFound", sent.errors));
    }
    let expected = Response::Flushed { edges: acks };
    if *response != expected {
        it.failures
            .push(format!("flush replied {response:?}, expected {expected:?}"));
    }
    let reader = PartitionStoreReader::open(store_dir).map_err(fail("open flushed store"))?;
    let manifest = reader.manifest();
    let (graph, partition) = reader.load().map_err(fail("load flushed store"))?;
    // What `recompute_metrics` computes, without loading the store twice.
    let recomputed = PartitionMetrics::compute(&graph, &partition);
    if recomputed.replication_factor.to_bits() != manifest.replication_factor().to_bits()
        || recomputed.balance.to_bits() != manifest.balance().to_bits()
    {
        it.failures.push(format!(
            "flushed manifest rf/balance {}/{} but segments give {}/{}",
            manifest.replication_factor(),
            manifest.balance(),
            recomputed.replication_factor,
            recomputed.balance
        ));
    }
    if manifest.num_edges as u64 != sent.base_edges + acks {
        it.failures.push(format!(
            "flushed store holds {} edges, expected {} base + {acks} placed",
            manifest.num_edges, sent.base_edges
        ));
    }
    let missing = sent
        .fresh_acks
        .iter()
        .filter(|&&(u, v, pid)| {
            graph
                .edge_id(u, v)
                .is_none_or(|eid| partition.partition_of(eid) != pid)
        })
        .count();
    if missing > 0 {
        it.failures.push(format!(
            "{missing} acknowledged placements are missing from the flushed store"
        ));
    }
    // Each fresh acknowledgement appended one WAL record before the flush
    // truncated the log.
    let bytes = dir_bytes(store_dir)?;
    it.add(
        "store.bytes_written",
        (bytes + acks * WAL_RECORD_LEN as u64) as f64,
    );
    Ok(Flushed {
        rf: manifest.replication_factor(),
        balance: manifest.balance(),
        bytes,
        edges: manifest.num_edges as u64,
    })
}

/// Every edge assigned exactly once to a valid partition, load within the
/// algorithm's declared bound (if it declares one), and the persisted
/// store reproducing the run's quality figures bit for bit.
fn check_partition(
    failures: &mut Vec<String>,
    artifact: &RunArtifact,
    num_edges: usize,
    balance_bound: Option<f64>,
    store_dir: &Path,
) -> Result<(), String> {
    let partition = &artifact.partition;
    if partition.num_edges() != num_edges
        || partition.num_partitions() != PARTITIONS
        || partition
            .assignments()
            .iter()
            .any(|&pid| pid as usize >= PARTITIONS)
    {
        failures.push(format!(
            "assignment covers {} of {num_edges} edges over {} partitions",
            partition.num_edges(),
            partition.num_partitions()
        ));
    }
    if let Some(bound) = balance_bound.filter(|&bound| artifact.balance() > bound) {
        failures.push(format!(
            "balance {} exceeds the declared bound {bound}",
            artifact.balance()
        ));
    }
    let recomputed = PartitionStoreReader::open(store_dir)
        .and_then(|reader| reader.recompute_metrics())
        .map_err(fail("recompute persisted metrics"))?;
    if recomputed.replication_factor.to_bits() != artifact.rf().to_bits()
        || recomputed.balance.to_bits() != artifact.balance().to_bits()
        || recomputed.edge_counts != artifact.metrics.edge_counts
    {
        failures.push(format!(
            "persisted store gives rf/balance {}/{}, the run reported {}/{}",
            recomputed.replication_factor,
            recomputed.balance,
            artifact.rf(),
            artifact.balance()
        ));
    }
    Ok(())
}

/// Moves edge 0 to the next partition (the smoke test's injected fault).
fn flip_one(partition: &EdgePartition) -> EdgePartition {
    let mut assignment = partition.assignments().to_vec();
    if let Some(first) = assignment.first_mut() {
        *first = (*first + 1) % partition.num_partitions() as u32;
    }
    EdgePartition::new(partition.num_partitions(), assignment).expect("a rotated id stays in range")
}

/// Per-layer values of a traced iteration: span self times and counters.
fn fold_traced_layers(it: &mut Iteration, tracer: &Tracer) {
    let spans = tracer.self_seconds();
    for &(metric, span) in SPAN_METRICS {
        it.set(metric, spans.get(span).copied().unwrap_or(0.0));
    }
    for &(metric, counter) in COUNTER_METRICS {
        let total = it.counters.get(counter).copied().unwrap_or(0);
        it.set(metric, total as f64);
    }
    let selects = it.get("core.round.select");
    let rescored = it.get("core.scoring.rescored");
    it.set(
        "core.rescored_per_select",
        if selects > 0.0 {
            rescored / selects
        } else {
            0.0
        },
    );
}

/// Folds iterations into the reported metrics: medians over iterations,
/// the median of every set-up, and `ok_rate` = share of iterations whose
/// checks passed × share of requests answered without error.
fn fold_report(
    cfg: &Config,
    iterations: &[Iteration],
    peak_rss: f64,
    context: Vec<(&'static str, String)>,
) -> Report {
    let passed = iterations.iter().filter(|i| i.failures.is_empty()).count();
    let sent: u64 = iterations.iter().map(|i| i.sent).sum();
    let answered: u64 = iterations.iter().map(|i| i.answered).sum();
    let untraced: Vec<&Iteration> = iterations.iter().filter(|i| !i.traced).collect();
    let traced: Vec<&Iteration> = iterations.iter().filter(|i| i.traced).collect();
    let median_of = |its: &[&Iteration], name: &str| {
        median(
            its.iter()
                .filter_map(|i| i.values.get(name))
                .flatten()
                .copied()
                .collect(),
        )
    };

    let mut metrics = Vec::new();
    if cfg.trace {
        for &(name, unit) in PER_LAYER {
            let value = if name == "obs.trace_overhead" {
                median_of(&traced, "run_s") / median_of(&untraced, "run_s")
            } else if UNTRACED_LAYER_METRICS.contains(&name) {
                median_of(&untraced, name)
            } else {
                median_of(&traced, name)
            };
            metrics.push((name, unit, value));
        }
    } else {
        for &(name, unit) in END_TO_END {
            let value = match name {
                "peak_rss_mb" => peak_rss,
                "ok_rate" => {
                    passed as f64 / iterations.len() as f64 * answered as f64 / sent.max(1) as f64
                }
                _ => median_of(&untraced, name),
            };
            metrics.push((name, unit, value));
        }
    }
    let mut context = context;
    context.push(("rev", git_rev()));
    context.push(("host", host_name()));
    context.push((
        "nproc",
        std::thread::available_parallelism()
            .map_or(0, |n| n.get())
            .to_string(),
    ));
    Report {
        attempted: iterations.len() as u64,
        failed: (iterations.len() - passed) as u64,
        metrics,
        context,
    }
}

/// Median; 0 for no values.
fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// An [`EdgeSource`] wrapper that counts stream chunks and, traced, puts a
/// `store.stream_pass` span around each pass and a `baselines.place` span
/// around each sink call, so the pass's self time is the streaming cost
/// and the sink time is the placer's.
struct TimedSource<'a> {
    inner: &'a mut dyn EdgeSource,
    tracer: &'a Tracer,
    chunks: u64,
    peak_buffer: usize,
}

impl EdgeSource for TimedSource<'_> {
    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn num_vertices_hint(&self) -> Option<usize> {
        self.inner.num_vertices_hint()
    }

    fn num_edges_hint(&self) -> Option<usize> {
        self.inner.num_edges_hint()
    }

    fn degrees_hint(&self) -> Option<Vec<u32>> {
        self.inner.degrees_hint()
    }

    fn supports_random_access(&self) -> bool {
        self.inner.supports_random_access()
    }

    fn random_access(&mut self) -> Result<GraphView<'_>, SourceError> {
        self.inner.random_access()
    }

    fn stream_pass(&mut self, sink: &mut dyn FnMut(&[Edge])) -> Result<PassStats, SourceError> {
        let tracer = self.tracer;
        let _span = tracer.span("store.stream_pass");
        let mut chunks = 0u64;
        let stats = self.inner.stream_pass(&mut |chunk: &[Edge]| {
            let _span = tracer.span("baselines.place");
            chunks += 1;
            sink(chunk);
        })?;
        self.chunks += chunks;
        self.peak_buffer = self.peak_buffer.max(stats.peak_buffer);
        Ok(stats)
    }
}

fn remove_dir_if_present(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {dir:?}: {e}")),
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {to:?}: {e}"))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {from:?}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {from:?}: {e}"))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {:?}: {e}", entry.path()))?;
    }
    Ok(())
}

fn file_bytes(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat {path:?}: {e}"))
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {dir:?}: {e}"))?;
    let mut total = 0;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {dir:?}: {e}"))?;
        total += file_bytes(&entry.path())?;
    }
    Ok(total)
}

/// Resets the process's resident-set high-water mark to its current
/// resident set, so the next [`peak_rss_mb`] covers only what runs between.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset the peak resident set (/proc/self/clear_refs): {e}"))
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The commit being measured, when the checkout carries git metadata.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|rev| rev.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

fn host_name() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}
