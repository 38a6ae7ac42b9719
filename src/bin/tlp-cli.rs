//! `tlp-cli` — partition edge-list files from the command line.
//!
//! ```text
//! tlp-cli partition --input graph.txt --partitions 8 [--algorithm tlp]
//!                   [--seed 42] [--output assignment.tsv]
//! tlp-cli stats     --input graph.txt
//! tlp-cli generate  --family community --vertices 1000 --edges 5000
//!                   [--seed 42] [--output graph.txt]
//! ```
//!
//! `partition` reads a SNAP-style edge list (comments, duplicate and
//! directed edges, self-loops all tolerated) or a `.tlpg` binary store
//! (`--format bin`, or sniffed automatically), runs the chosen algorithm,
//! prints the quality metrics, and optionally writes one `u v partition`
//! line per edge (original vertex ids preserved) and/or an on-disk
//! partition store (`--out-store DIR`). For the streaming baselines,
//! `--stream-budget N` runs the placement out-of-core, holding at most `N`
//! edges in memory (reading `.tlpg` input straight off disk).

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use tlp::core::{run_tlp, AlgoConfig, Capability, RunArtifact};
use tlp::graph::generators as gen;
use tlp::graph::io;
use tlp::graph::CsrSource;
use tlp::pipeline::builtin_registry;
use tlp::store::{
    read_checkpoint, write_checkpoint, write_partition_store, BinaryFileSource, LoadedGraph,
    CHECKPOINT_NAME, MAGIC, VERSION,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("partition") => cmd_partition(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
tlp-cli — graph edge partitioning (TLP, ICDCS 2019)

subcommands:
  partition --input FILE --partitions P [--algorithm NAME] [--seed N] [--output FILE]
            [--trials T] [--threads N] [--format auto|text|bin]
            [--stream-budget N] [--out-store DIR]
            [--checkpoint DIR] [--resume]
            [--profile FILE.jsonl] [--obs-summary]
            algorithms (pipeline registry): tlp (default), tlp-r=<R>,
                        stage1, stage2, metis, ne, ldg, fennel,
                        greedy, hdrf, dbh, random
            --trials runs T independently seeded TLP trials (tlp only) and
            keeps the best replication factor; --threads caps the worker
            threads (default: all available cores)
            --format bin reads a .tlpg binary store (auto sniffs the magic);
            --stream-budget N streams edges out-of-core in natural order,
            at most N in memory (hdrf, dbh, greedy, random only);
            --out-store DIR writes per-partition edge segments + manifest
            --checkpoint DIR persists an engine snapshot after every
            completed partition (tlp only, single trial); --resume continues
            from DIR's snapshot — the result is bit-identical to the
            uninterrupted run with the same seed
            --profile FILE.jsonl records a structured event trace (inspect
            with tlp-obs-report); --obs-summary prints the aggregated
            span/counter table after the run. Observation never changes
            the partition: observed runs are bit-identical to plain ones
  stats     --input FILE
  generate  --family NAME --vertices N --edges M [--seed N] [--output FILE]
            families: community, chung-lu, erdos-renyi, barabasi-albert,
                      rmat, genealogy";

/// Flags that take no value.
const BOOLEAN_FLAGS: [&str; 2] = ["resume", "obs-summary"];

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut iter = args.iter();
    while let Some(key) = iter.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected a --flag, got {key:?}"));
        };
        if BOOLEAN_FLAGS.contains(&name) {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("flag --{name} requires a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn parsed<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("flag --{name} has invalid value {raw:?}")),
    }
}

/// Input format of the `partition` subcommand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InputFormat {
    Text,
    Bin,
}

/// Resolves `--format` (sniffing the `.tlpg` magic for `auto`).
fn resolve_format(flag: Option<&str>, input: &str) -> Result<InputFormat, String> {
    match flag.unwrap_or("auto") {
        "text" => Ok(InputFormat::Text),
        "bin" => Ok(InputFormat::Bin),
        "auto" => {
            use std::io::Read;
            let mut head = [0u8; 8];
            let mut file = std::fs::File::open(input).map_err(|e| format!("{input}: {e}"))?;
            match file.read_exact(&mut head) {
                Ok(()) if head == MAGIC => Ok(InputFormat::Bin),
                _ => Ok(InputFormat::Text),
            }
        }
        other => Err(format!(
            "--format must be auto, text, or bin, got {other:?}"
        )),
    }
}

fn cmd_partition(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let input = required(&flags, "input")?;
    let p: usize = parsed(&flags, "partitions", 0)?;
    if p == 0 {
        return Err("--partitions must be a positive integer".into());
    }
    let seed: u64 = parsed(&flags, "seed", 42)?;
    let trials: usize = parsed(&flags, "trials", 1)?;
    let threads: usize = parsed(&flags, "threads", 0)?;
    let algorithm = flags.get("algorithm").map(String::as_str).unwrap_or("tlp");
    if trials == 0 {
        return Err("--trials must be a positive integer".into());
    }
    if trials > 1 && algorithm != "tlp" {
        return Err(format!(
            "--trials is only supported for the tlp algorithm, not {algorithm:?}"
        ));
    }
    let format = resolve_format(flags.get("format").map(String::as_str), input)?;
    let stream_budget: Option<usize> = match flags.get("stream-budget") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("flag --stream-budget has invalid value {raw:?}"))?,
        ),
    };
    if stream_budget == Some(0) {
        return Err("--stream-budget must be a positive number of edges".into());
    }
    if stream_budget.is_some() && trials > 1 {
        return Err("--stream-budget cannot be combined with --trials".into());
    }
    let registry = builtin_registry();
    let entry = registry
        .entry_of(algorithm)
        .ok_or_else(|| format!("unknown algorithm {algorithm:?}\n{USAGE}"))?;
    if stream_budget.is_some() && entry.capability != Capability::Streaming {
        return Err(format!(
            "--stream-budget supports hdrf, dbh, greedy, random — not {algorithm:?}"
        ));
    }
    let checkpoint_dir = flags.get("checkpoint").map(String::as_str);
    let resume = flags.contains_key("resume");
    if resume && checkpoint_dir.is_none() {
        return Err("--resume requires --checkpoint DIR".into());
    }
    if checkpoint_dir.is_some() {
        if algorithm != "tlp" {
            return Err(format!(
                "--checkpoint is only supported for the tlp algorithm, not {algorithm:?}"
            ));
        }
        if trials > 1 {
            return Err("--checkpoint cannot be combined with --trials".into());
        }
        if stream_budget.is_some() {
            return Err("--checkpoint cannot be combined with --stream-budget".into());
        }
    }

    // Text parses into an owned CSR; a `.tlpg` v2 file is held as its
    // zero-copy arena, and every other (v1) file is decoded into a CSR.
    // Everything downstream works on the view, so the paths share all the
    // partitioning code.
    let loaded = match format {
        InputFormat::Text => io::read_edge_list_file(input)
            .map_err(|e| e.to_string())?
            .into(),
        InputFormat::Bin => LoadedGraph::open(Path::new(input)).map_err(|e| e.to_string())?,
    };
    let graph = loaded.view();
    let kind = match (&loaded, format) {
        (_, InputFormat::Text) => "text".to_string(),
        (LoadedGraph::Arena(buf), InputFormat::Bin) => format!("tlpg v{}", buf.header().version),
        (LoadedGraph::Owned { .. }, InputFormat::Bin) => format!("tlpg v{VERSION}"),
    };
    eprintln!(
        "loaded {input} ({kind}): {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    let config = AlgoConfig {
        seed,
        threads,
        trials,
        ..AlgoConfig::default()
    };
    let profile_path = flags.get("profile").cloned();
    let obs_summary = flags.contains_key("obs-summary");
    let compute = || -> Result<RunArtifact, String> {
        let artifact = if let Some(budget) = stream_budget {
            // Out-of-core path: binary inputs stream straight off disk (the
            // source refuses to materialize), text inputs stream the parsed
            // graph in natural order. Either way the placer sees at most
            // `budget` edges at a time.
            let artifact = match format {
                InputFormat::Bin => {
                    let mut source = BinaryFileSource::open(Path::new(input), budget)
                        .map_err(|e| e.to_string())?
                        .strict_streaming(true);
                    registry
                        .run(algorithm, &config, &mut source, p)
                        .map_err(|e| e.to_string())?
                }
                InputFormat::Text => {
                    let mut source = CsrSource::with_budget(graph, budget);
                    registry
                        .run(algorithm, &config, &mut source, p)
                        .map_err(|e| e.to_string())?
                }
            };
            println!("stream budget:      {budget}");
            println!(
                "peak edge buffer:   {}",
                artifact.peak_stream_buffer.unwrap_or(0)
            );
            // Historical CLI behavior: streamed runs report the registry name.
            RunArtifact {
                algorithm: algorithm.to_string(),
                ..artifact
            }
        } else if let Some(dir) = checkpoint_dir {
            // Checkpointed TLP runs the registry row's own function, with
            // the engine's resume point and per-round snapshot hook.
            let dir = Path::new(dir);
            let snapshot = if resume {
                let snapshot = read_checkpoint(dir).map_err(|e| {
                    format!(
                        "cannot resume from {}: {e}; rerun without --resume to start from round 0",
                        dir.join(CHECKPOINT_NAME).display()
                    )
                })?;
                match &snapshot {
                    Some(ckpt) => eprintln!(
                        "resuming from {} at round {} of {}",
                        dir.display(),
                        ckpt.next_round,
                        ckpt.num_partitions
                    ),
                    None => eprintln!("no checkpoint in {}, starting from round 0", dir.display()),
                }
                snapshot
            } else {
                None
            };
            let mut persist = |ckpt: &tlp::core::EngineCheckpoint| {
                write_checkpoint(dir, ckpt)
                    .map_err(|e| tlp::core::PartitionError::Checkpoint(e.to_string()))
            };
            run_tlp(
                &config,
                &mut CsrSource::new(graph),
                p,
                snapshot.as_ref(),
                Some(&mut persist),
            )
            .map_err(|e| e.to_string())?
        } else {
            registry
                .run(algorithm, &config, &mut CsrSource::new(graph), p)
                .map_err(|e| e.to_string())?
        };
        Ok(artifact)
    };
    // Observation is strictly passive: the same compute closure runs either
    // way, and observed partitions are bit-identical to unobserved ones.
    let artifact = if profile_path.is_some() || obs_summary {
        let (result, events) = tlp::obs::with_recording(compute);
        let mut artifact = result?;
        if let Some(path) = &profile_path {
            use tlp::obs::Observer;
            let mut writer = tlp::obs::JsonlObserver::create(Path::new(path))
                .map_err(|e| format!("{path}: {e}"))?;
            for event in &events {
                writer.record(event.clone());
            }
            writer.finish().map_err(|e| format!("{path}: {e}"))?;
            eprintln!("profile trace written to {path} ({} events)", events.len());
        }
        let report = tlp::obs::ObsReport::fold(&events);
        if obs_summary {
            println!("{}", report.render_table());
        }
        artifact.obs = Some(report);
        artifact
    } else {
        compute()?
    };
    if trials > 1 {
        let (best, worst) = artifact.rf_spread();
        println!("trials:             {trials}");
        println!(
            "per-trial RF:       {}",
            artifact
                .trial_rfs
                .iter()
                .map(|rf| format!("{rf:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        println!(
            "RF spread:          best {best:.4}, worst {worst:.4} (trial {} kept)",
            artifact.best_trial.unwrap_or(0)
        );
    }

    println!("algorithm:          {}", artifact.algorithm);
    println!("partitions:         {p}");
    println!(
        "replication factor: {:.4}",
        artifact.metrics.replication_factor
    );
    println!("balance:            {:.4}", artifact.metrics.balance);
    println!("spanned vertices:   {}", artifact.metrics.spanned_vertices);
    println!("time:               {:.2}s", artifact.seconds);

    if let Some(dir) = flags.get("out-store") {
        let manifest = write_partition_store(Path::new(dir), graph, &artifact.partition)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "partition store written to {dir} ({} segments, manifest RF {:.4}, balance {:.4})",
            manifest.segments.len(),
            manifest.replication_factor(),
            manifest.balance()
        );
    }

    if let Some(output) = flags.get("output") {
        let mut file = std::fs::File::create(output).map_err(|e| e.to_string())?;
        writeln!(file, "# source\ttarget\tpartition").map_err(|e| e.to_string())?;
        // External ids, or the internal ones when the input has none.
        let original_id = |v: u32| {
            loaded
                .original_ids()
                .map_or(u64::from(v), |ids| ids[v as usize])
        };
        for (eid, edge) in graph.edge_iter().enumerate() {
            let (u, v) = edge.endpoints();
            writeln!(
                file,
                "{}\t{}\t{}",
                original_id(u),
                original_id(v),
                artifact.partition.partition_of(eid as u32)
            )
            .map_err(|e| e.to_string())?;
        }
        eprintln!("assignment written to {output}");
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let input = required(&flags, "input")?;
    let list = io::read_edge_list_file(input).map_err(|e| e.to_string())?;
    let stats = tlp::graph::stats::GraphStats::of(&list.graph);
    println!("{stats}");
    if let Some(alpha) = tlp::graph::degree::power_law_exponent_mle(&list.graph, 5) {
        println!("power-law exponent (MLE, d_min=5): {alpha:.2}");
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let family = required(&flags, "family")?;
    let n: usize = parsed(&flags, "vertices", 1000)?;
    let m: usize = parsed(&flags, "edges", 5000)?;
    let seed: u64 = parsed(&flags, "seed", 42)?;
    let graph = match family {
        "community" => gen::power_law_community(n, m, 2.1, (n / 100).max(2), 0.25, seed),
        "chung-lu" => gen::chung_lu(n, m, 2.1, seed),
        "erdos-renyi" => gen::erdos_renyi(n, m, seed),
        "barabasi-albert" => gen::barabasi_albert(n, (m / n).max(1), seed),
        "rmat" => gen::rmat(
            (n as f64).log2().ceil() as u32,
            m,
            gen::RmatProbabilities::default(),
            seed,
        ),
        "genealogy" => gen::genealogy(n, m.max(n - 1), seed),
        other => return Err(format!("unknown family {other:?}\n{USAGE}")),
    };
    match flags.get("output") {
        Some(output) => {
            let file = std::fs::File::create(output).map_err(|e| e.to_string())?;
            io::write_edge_list(&graph, file).map_err(|e| e.to_string())?;
            eprintln!(
                "wrote {} vertices / {} edges to {output}",
                graph.num_vertices(),
                graph.num_edges()
            );
        }
        None => {
            io::write_edge_list(&graph, std::io::stdout().lock()).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}
