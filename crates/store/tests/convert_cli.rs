//! `tlp-convert` end to end: a text edge list with sparse vertex ids goes
//! through `to-bin` and back through `to-text`, and comes back with the
//! same edge set in its original ids.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use tlp_graph::io::read_edge_list_file;
use tlp_graph::GraphBuilder;
use tlp_store::{write_graph, FormatVersion, WriteOptions};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlp-convert-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn convert(args: &[&Path]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tlp-convert"))
        .args(args)
        .output()
        .unwrap();
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

/// The edges of a text edge list as unordered pairs of the file's ids.
fn edge_set(path: &Path) -> BTreeSet<(u64, u64)> {
    let list = read_edge_list_file(path).unwrap();
    let id = |v: u32| list.original_ids[v as usize];
    list.graph
        .view()
        .edge_iter()
        .map(|e| {
            let (a, b) = (id(e.source()), id(e.target()));
            (a.min(b), a.max(b))
        })
        .collect()
}

#[test]
fn to_text_writes_original_ids() {
    let dir = temp_dir("oids");
    let text = dir.join("sparse.txt");
    std::fs::write(&text, "100 200\n200 300\n100 300\n7 100\n").unwrap();
    let (bin, back) = (dir.join("sparse.tlpg"), dir.join("back.txt"));
    convert(&["to-bin".as_ref(), &text, &bin]);
    assert!(convert(&["info".as_ref(), &bin]).contains("original ids: yes"));
    convert(&["to-text".as_ref(), &bin, &back]);
    let expected = BTreeSet::from([(100, 200), (200, 300), (100, 300), (7, 100)]);
    assert_eq!(edge_set(&text), expected);
    assert_eq!(edge_set(&back), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn to_text_writes_dense_ids_without_an_id_section_in_either_version() {
    let dir = temp_dir("dense");
    let graph = GraphBuilder::new()
        .add_edges([(0, 1), (1, 2), (0, 3)])
        .build();
    for version in [FormatVersion::V1, FormatVersion::V2] {
        let (bin, back) = (dir.join("g.tlpg"), dir.join("back.txt"));
        let options = WriteOptions {
            version,
            ..WriteOptions::default()
        };
        write_graph(&bin, &graph, &options).unwrap();
        convert(&["to-text".as_ref(), &bin, &back]);
        assert_eq!(
            std::fs::read_to_string(&back).unwrap(),
            "# Undirected graph: 4 vertices, 3 edges\n0\t1\n0\t3\n1\t2\n",
            "{version:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
