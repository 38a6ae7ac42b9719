//! End-to-end store pipeline through the CLI binary: text edge list →
//! `.tlpg` binary → `tlp-cli partition --format bin --stream-budget N
//! --out-store DIR` → metrics identical to an in-memory run, and the
//! written partition store recomputes those metrics exactly.

use std::path::{Path, PathBuf};
use std::process::Command;
use tlp::baselines::{EdgeOrder, StreamingKind, StreamingPartitioner};
use tlp::core::{EdgePartitioner, PartitionMetrics};
use tlp::graph::generators::chung_lu;
use tlp::graph::io;
use tlp::store::{write_graph, PartitionStoreReader, WriteOptions};

const P: usize = 8;
const BUDGET: usize = 1024;

struct Setup {
    dir: PathBuf,
    bin: PathBuf,
    /// The graph exactly as the CLI will see it (parsed back from text, so
    /// vertex ids went through the loader's first-seen interning).
    graph: tlp::graph::CsrGraph,
}

fn setup(tag: &str) -> Setup {
    let dir = std::env::temp_dir().join(format!("tlp-store-pipeline-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let generated = chung_lu(1_500, 6_000, 2.2, 31);
    let text = dir.join("graph.txt");
    let file = std::fs::File::create(&text).unwrap();
    io::write_edge_list(&generated, std::io::BufWriter::new(file)).unwrap();

    // Parse the text back so the reference graph matches the binary's
    // (interned) vertex ids, then convert that to the binary store.
    let loaded = io::read_edge_list_file(&text).unwrap();
    let bin = dir.join("graph.tlpg");
    let options = WriteOptions {
        original_ids: Some(loaded.original_ids),
        ..WriteOptions::default()
    };
    write_graph(&bin, &loaded.graph, &options).unwrap();

    Setup {
        dir,
        bin,
        graph: loaded.graph,
    }
}

fn run_cli(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_tlp-cli"))
        .args(args)
        .output()
        .expect("run tlp-cli");
    assert!(
        output.status.success(),
        "tlp-cli {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap()
}

fn field<'a>(stdout: &'a str, name: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .unwrap_or_else(|| panic!("no {name:?} line in output:\n{stdout}"))
        .trim()
}

#[test]
fn cli_streams_binary_store_and_roundtrips_the_partition_store() {
    let s = setup("bin");
    let store_dir = s.dir.join("parts");
    let stdout = run_cli(&[
        "partition",
        "--input",
        s.bin.to_str().unwrap(),
        "--partitions",
        &P.to_string(),
        "--algorithm",
        "hdrf",
        "--format",
        "bin",
        "--stream-budget",
        &BUDGET.to_string(),
        "--out-store",
        store_dir.to_str().unwrap(),
    ]);

    // The streamed run must report exactly what an in-memory natural-order
    // HDRF run computes.
    let reference = StreamingPartitioner {
        kind: StreamingKind::Hdrf,
        order: EdgeOrder::Natural,
        seed: 0,
    }
    .partition(&s.graph, P)
    .unwrap();
    let live = PartitionMetrics::compute(&s.graph, &reference);
    assert_eq!(
        field(&stdout, "replication factor:"),
        format!("{:.4}", live.replication_factor)
    );
    assert_eq!(field(&stdout, "balance:"), format!("{:.4}", live.balance));
    assert_eq!(
        field(&stdout, "spanned vertices:"),
        live.spanned_vertices.to_string()
    );
    let peak: usize = field(&stdout, "peak edge buffer:").parse().unwrap();
    assert!(peak <= BUDGET, "peak {peak} exceeds budget {BUDGET}");

    // The partition store the CLI wrote recomputes those metrics exactly —
    // manifest-level and from the reloaded segments.
    let reader = PartitionStoreReader::open(Path::new(&store_dir)).unwrap();
    assert_eq!(
        reader.manifest().replication_factor(),
        live.replication_factor
    );
    assert_eq!(reader.manifest().balance(), live.balance);
    let recomputed = reader.recompute_metrics().unwrap();
    assert_eq!(recomputed, live);

    std::fs::remove_dir_all(&s.dir).unwrap();
}

#[test]
fn format_auto_sniffs_binary_and_matches_text_input() {
    let s = setup("auto");
    let common = |input: &str, format: &str| {
        run_cli(&[
            "partition",
            "--input",
            input,
            "--partitions",
            &P.to_string(),
            "--algorithm",
            "hdrf",
            "--format",
            format,
            "--stream-budget",
            &BUDGET.to_string(),
        ])
    };
    let from_bin_auto = common(s.bin.to_str().unwrap(), "auto");
    let text = s.dir.join("graph.txt");
    let from_text = common(text.to_str().unwrap(), "text");
    for name in ["replication factor:", "balance:", "spanned vertices:"] {
        assert_eq!(
            field(&from_bin_auto, name),
            field(&from_text, name),
            "binary (auto) and text runs disagree on {name:?}"
        );
    }
    std::fs::remove_dir_all(&s.dir).unwrap();
}
