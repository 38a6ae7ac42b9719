//! Convert graphs between text edge lists and the `.tlpg` binary format.
//!
//! ```text
//! tlp-convert to-bin <input.txt> <output.tlpg>    text edge list -> binary (v2)
//! tlp-convert to-text <input.tlpg> <output.txt>   binary -> text edge list (original ids)
//! tlp-convert upgrade <input.tlpg>                rewrite a v1 file as v2 in place
//! tlp-convert info <input.tlpg>                   print header and section summary
//! ```

use std::path::Path;
use std::process::ExitCode;
use tlp_store::format::SourceStamp;
use tlp_store::{write_graph, LoadedGraph, StoreReader, WriteOptions, VERSION_V2};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["to-bin", input, output] => to_bin(Path::new(input), Path::new(output)),
        ["to-text", input, output] => to_text(Path::new(input), Path::new(output)),
        ["upgrade", input] => upgrade(Path::new(input)),
        ["info", input] => info(Path::new(input)),
        _ => {
            eprintln!(
                "usage: tlp-convert to-bin <input.txt> <output.tlpg>\n       \
                 tlp-convert to-text <input.tlpg> <output.txt>\n       \
                 tlp-convert upgrade <input.tlpg>\n       \
                 tlp-convert info <input.tlpg>"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("tlp-convert: {message}");
            ExitCode::FAILURE
        }
    }
}

fn to_bin(input: &Path, output: &Path) -> Result<(), String> {
    let list = tlp_graph::io::read_edge_list_file(input)
        .map_err(|e| format!("reading {}: {e}", input.display()))?;
    let options = WriteOptions {
        original_ids: Some(list.original_ids),
        source: SourceStamp::of_file(input).ok(),
        ..WriteOptions::default()
    };
    write_graph(output, &list.graph, &options)
        .map_err(|e| format!("writing {}: {e}", output.display()))?;
    println!(
        "wrote {} ({} vertices, {} edges, format v{VERSION_V2})",
        output.display(),
        list.graph.num_vertices(),
        list.graph.num_edges()
    );
    Ok(())
}

fn open(input: &Path) -> Result<StoreReader, String> {
    StoreReader::open(input).map_err(|e| format!("opening {}: {e}", input.display()))
}

/// Writes the graph as a text edge list, in the original vertex ids when
/// the file carries them and in dense ids otherwise.
fn to_text(input: &Path, output: &Path) -> Result<(), String> {
    let loaded =
        LoadedGraph::open(input).map_err(|e| format!("reading {}: {e}", input.display()))?;
    let graph = loaded.view();
    let file =
        std::fs::File::create(output).map_err(|e| format!("creating {}: {e}", output.display()))?;
    let out = std::io::BufWriter::new(file);
    tlp_graph::io::write_edge_list_with_ids(graph, loaded.original_ids(), out)
        .map_err(|e| format!("writing {}: {e}", output.display()))?;
    println!(
        "wrote {} ({} vertices, {} edges)",
        output.display(),
        graph.num_vertices(),
        graph.num_edges()
    );
    Ok(())
}

/// Rewrites a v1 file in the v2 (embedded-CSR) layout, in place. The write
/// goes through the store's atomic temp-file + rename path, so a crash
/// mid-upgrade leaves the original file intact. Already-v2 files are left
/// untouched.
fn upgrade(input: &Path) -> Result<(), String> {
    let reader = open(input)?;
    let version = reader.version();
    if version >= VERSION_V2 {
        println!("{} is already format v{version}", input.display());
        return Ok(());
    }
    let source = reader.header().source;
    let reading = |e| format!("reading {}: {e}", input.display());
    let graph = reader.read_graph().map_err(reading)?;
    let options = WriteOptions {
        original_ids: reader.read_original_ids().map_err(reading)?,
        source: (source != SourceStamp::UNKNOWN).then_some(source),
        ..WriteOptions::default()
    };
    write_graph(input, &graph, &options)
        .map_err(|e| format!("rewriting {}: {e}", input.display()))?;
    println!(
        "upgraded {} to format v{VERSION_V2} ({} vertices, {} edges)",
        input.display(),
        graph.num_vertices(),
        graph.num_edges()
    );
    Ok(())
}

fn info(input: &Path) -> Result<(), String> {
    let reader = open(input)?;
    let header = reader.header();
    println!("file:         {}", input.display());
    println!("format:       tlpg v{}", reader.version());
    println!("vertices:     {}", header.num_vertices);
    println!("edges:        {}", header.num_edges);
    println!(
        "original ids: {}",
        if header.has_original_ids { "yes" } else { "no" }
    );
    let source = header.source;
    if source == SourceStamp::UNKNOWN {
        println!("source:       unknown");
    } else {
        println!("source:       len={} mtime={}", source.len, source.mtime);
    }
    println!("sections:");
    for section in reader.section_infos() {
        println!(
            "  {:<4} offset={:<10} len={:<12} checksum={:016x}",
            section.name, section.payload_pos, section.payload_len, section.checksum
        );
    }
    Ok(())
}
