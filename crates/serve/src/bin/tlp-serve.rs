//! Serves a partition store over TCP.
//!
//! ```text
//! tlp-serve STORE_DIR [--graph FILE.tlpg] [--addr HOST:PORT] [--placer SPEC]
//!           [--workers N] [--queue-depth N] [--cache N]
//!           [--read-timeout-secs N] [--write-timeout-ms N]
//!           [--wal-group-commit N]
//! ```
//!
//! Prints `tlp-serve listening on ADDR` once the listener is bound (with
//! `--addr 127.0.0.1:0` the kernel-assigned port appears here), then
//! serves until a client sends `Shutdown` or the process is killed.
//! Placement uses a streaming placer (`hdrf` or `greedy`) seeded from
//! the served partition; every fresh placement is appended to the store's
//! durable WAL before it is acknowledged, and `Flush` rewrites the store
//! in place through the atomic manifest-last commit (then truncates the
//! WAL). On startup, WAL records left by a crash are replayed before
//! serving begins. With `--graph`, the base graph is served from the
//! given `.tlpg` file (for a v2 file, straight out of the zero-copy arena)
//! and the store contributes only the edge assignment, cross-checked
//! against the file.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use tlp_serve::{serve, PartitionService, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tlp-serve STORE_DIR [--graph FILE.tlpg] [--addr HOST:PORT] [--placer SPEC] \
         [--workers N] [--queue-depth N] [--cache N] [--read-timeout-secs N] \
         [--write-timeout-ms N] [--wal-group-commit N]"
    );
    ExitCode::from(2)
}

/// Everything the command line controls, parsed before any I/O happens.
#[derive(Debug)]
struct Cli {
    store: PathBuf,
    graph: Option<PathBuf>,
    addr: String,
    placer: String,
    config: ServerConfig,
    cache: usize,
    wal_group_commit: u64,
}

/// Parses the argument list. `Err(message)` is a usage error (exit 2);
/// an empty message means plain `--help`.
fn parse_args(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut store: Option<PathBuf> = None;
    let mut graph: Option<PathBuf> = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut placer = "hdrf".to_string();
    let mut config = ServerConfig::default();
    let mut cache = 4096usize;
    let mut wal_group_commit = 1u64;

    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--addr" => addr = value_for("--addr")?,
            "--graph" => graph = Some(PathBuf::from(value_for("--graph")?)),
            "--placer" => placer = value_for("--placer")?,
            "--workers" => config.workers = parse(&value_for("--workers")?)?,
            "--queue-depth" => config.queue_depth = parse(&value_for("--queue-depth")?)?,
            "--cache" => cache = parse(&value_for("--cache")?)?,
            "--read-timeout-secs" => {
                let secs: u64 = parse(&value_for("--read-timeout-secs")?)?;
                if secs == 0 {
                    return Err(
                        "--read-timeout-secs must be at least 1 (0 would let a dead peer \
                         pin a worker forever)"
                            .to_string(),
                    );
                }
                config.read_timeout = Duration::from_secs(secs);
            }
            "--write-timeout-ms" => {
                let millis: u64 = parse(&value_for("--write-timeout-ms")?)?;
                if millis == 0 {
                    return Err("--write-timeout-ms must be at least 1".to_string());
                }
                config.write_timeout = Duration::from_millis(millis);
            }
            "--wal-group-commit" => {
                wal_group_commit = parse(&value_for("--wal-group-commit")?)?;
                if wal_group_commit == 0 {
                    return Err("--wal-group-commit must be at least 1".to_string());
                }
            }
            _ if store.is_none() && !arg.starts_with('-') => store = Some(PathBuf::from(arg)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let Some(store) = store else {
        return Err("need a STORE_DIR".to_string());
    };
    Ok(Cli {
        store,
        graph,
        addr,
        placer,
        config,
        cache,
        wal_group_commit,
    })
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("tlp-serve: {message}");
            }
            return usage();
        }
    };

    let service = match &cli.graph {
        Some(graph) => {
            PartitionService::open_store_with_graph(&cli.store, graph, &cli.placer, cli.cache)
        }
        None => PartitionService::open_store(&cli.store, &cli.placer, cli.cache),
    };
    let service = match service {
        Ok(service) => service,
        Err(error) => return fail(&format!("{}: {error}", cli.store.display())),
    };
    service.set_wal_group_commit(cli.wal_group_commit);
    let health = service.health();
    eprintln!(
        "tlp-serve: store {} — {} vertices, {} edges, {} partitions, placer {}, \
         {} wal records recovered",
        cli.store.display(),
        service.graph().num_vertices(),
        service.graph().num_edges(),
        service.num_partitions(),
        cli.placer,
        health.pending_placements,
    );
    let handle = match serve(service, &cli.addr, cli.config) {
        Ok(handle) => handle,
        Err(error) => return fail(&format!("bind {}: {error}", cli.addr)),
    };
    println!("tlp-serve listening on {}", handle.addr());
    // The parent (a CI script) reads the line to learn the port; make
    // sure it is not stuck in the stdout buffer.
    let _ = std::io::stdout().flush();
    handle.wait();
    eprintln!("tlp-serve: drained, exiting");
    ExitCode::SUCCESS
}

fn parse<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("not a valid number: {raw:?}"))
}

fn fail(message: &str) -> ExitCode {
    eprintln!("tlp-serve: {message}");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn parse_line(line: &str) -> Result<Cli, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn defaults_and_overrides() {
        let cli = parse_line("store").unwrap();
        assert_eq!(cli.store, PathBuf::from("store"));
        assert_eq!(cli.addr, "127.0.0.1:0");
        assert_eq!(cli.placer, "hdrf");
        assert_eq!(cli.wal_group_commit, 1);

        let cli = parse_line(
            "store --addr 0.0.0.0:7070 --placer greedy --workers 2 --queue-depth 8 \
             --cache 64 --read-timeout-secs 5 --write-timeout-ms 50 --wal-group-commit 16",
        )
        .unwrap();
        assert_eq!(cli.addr, "0.0.0.0:7070");
        assert_eq!(cli.placer, "greedy");
        assert_eq!(cli.config.workers, 2);
        assert_eq!(cli.config.queue_depth, 8);
        assert_eq!(cli.cache, 64);
        assert_eq!(cli.config.read_timeout, Duration::from_secs(5));
        assert_eq!(cli.config.write_timeout, Duration::from_millis(50));
        assert_eq!(cli.wal_group_commit, 16);
    }

    #[test]
    fn zero_timeouts_are_usage_errors_not_silent_clamps() {
        let err = parse_line("store --read-timeout-secs 0").unwrap_err();
        assert!(err.contains("--read-timeout-secs"), "{err}");
        let err = parse_line("store --write-timeout-ms 0").unwrap_err();
        assert!(err.contains("--write-timeout-ms"), "{err}");
        let err = parse_line("store --wal-group-commit 0").unwrap_err();
        assert!(err.contains("--wal-group-commit"), "{err}");
    }

    #[test]
    fn missing_store_values_and_unknown_flags_are_rejected() {
        assert!(parse_line("").unwrap_err().contains("STORE_DIR"));
        assert!(parse_line("store --workers")
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_line("store --bogus")
            .unwrap_err()
            .contains("unknown argument"));
        assert!(parse_line("store --workers nope")
            .unwrap_err()
            .contains("not a valid number"));
        // --help is a clean (empty-message) usage exit.
        assert_eq!(parse_line("--help").unwrap_err(), "");
    }
}
