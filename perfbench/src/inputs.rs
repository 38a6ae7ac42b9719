//! Seeded input generation, cached per (input, seed, build) outside the timed
//! region.
//!
//! The program sees only the generated files: a text edge list, its `.tlpg`
//! v2 conversion and, for R-MAT, the HDRF p = 32 partition store that the
//! serve workload copies fresh for every iteration. A directory counts as
//! ready only once its `READY` marker exists, so an interrupted generation
//! is redone.
//!
//! Every file here is a product of the build that wrote it (generator,
//! text writer, v2 writer, HDRF), and so is the rf record the repeat check
//! keeps beside them. The cache is therefore keyed by the build too: a
//! checkout that alternates two commits never measures one commit on the
//! other's inputs, nor checks one commit's rf against the other's.

use crate::{Scale, PARTITIONS};
use std::hash::Hasher;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use tlp_core::AlgoConfig;
use tlp_graph::generators::{chung_lu, rmat, RmatProbabilities};
use tlp_graph::CsrSource;
use tlp_store::{write_graph, write_partition_store, WriteOptions};

/// Power-law exponent of the Chung–Lu input (the CLI's default).
const CHUNG_LU_GAMMA: f64 = 2.1;

/// Which generated graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputKind {
    /// Chung–Lu power-law graph.
    ChungLu,
    /// R-MAT graph with the classic (0.57, 0.19, 0.19, 0.05) skew.
    Rmat,
}

impl InputKind {
    /// Directory-name prefix, also the `--generate` argument.
    pub fn name(self) -> &'static str {
        match self {
            InputKind::ChungLu => "cl",
            InputKind::Rmat => "rmat",
        }
    }

    /// Parses [`InputKind::name`].
    pub fn parse(name: &str) -> Option<InputKind> {
        [InputKind::ChungLu, InputKind::Rmat]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// The cached files of one (input, seed).
#[derive(Clone, Debug)]
pub struct InputSet {
    /// Directory holding the files.
    pub dir: PathBuf,
    kind: InputKind,
}

impl InputSet {
    /// Where the running build keeps the inputs of `kind` and `seed` under
    /// `work_dir`.
    ///
    /// # Errors
    ///
    /// The running executable cannot be read.
    pub fn locate(work_dir: &Path, kind: InputKind, seed: u64) -> Result<InputSet, String> {
        Ok(InputSet {
            dir: work_dir.join("inputs").join(format!(
                "{}-s{seed}-b{:016x}",
                kind.name(),
                build_id()?
            )),
            kind,
        })
    }

    /// Whether a finished generation is cached.
    pub fn is_ready(&self) -> bool {
        self.dir.join("READY").exists()
    }

    /// The text edge list.
    pub fn text(&self) -> PathBuf {
        self.dir.join("graph.txt")
    }

    /// The `.tlpg` v2 conversion of the parsed text.
    pub fn v2(&self) -> PathBuf {
        self.dir.join("graph.tlpg")
    }

    /// The HDRF p = 32 partition store (R-MAT only).
    pub fn store(&self) -> PathBuf {
        self.dir.join("store")
    }

    /// Generates the files, replacing any partial ones, and drops cached
    /// inputs of the same kind for other seeds and builds so the cache
    /// stays small.
    ///
    /// # Errors
    ///
    /// A description of the first failing step.
    pub fn generate(&self, seed: u64, scale: &Scale) -> Result<(), String> {
        if let Some(parent) = self.dir.parent() {
            if let Ok(entries) = std::fs::read_dir(parent) {
                let prefix = format!("{}-s", self.kind.name());
                for entry in entries.flatten() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    if name.starts_with(&prefix) && entry.path() != self.dir {
                        let _ = std::fs::remove_dir_all(entry.path());
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        std::fs::create_dir_all(&self.dir).map_err(|e| format!("create {:?}: {e}", self.dir))?;

        let generated = match self.kind {
            InputKind::ChungLu => chung_lu(scale.cl_vertices, scale.cl_edges, CHUNG_LU_GAMMA, seed),
            InputKind::Rmat => rmat(
                scale.rmat_scale,
                scale.rmat_edges,
                RmatProbabilities::default(),
                seed,
            ),
        };
        let file = std::fs::File::create(self.text()).map_err(|e| format!("create text: {e}"))?;
        let mut out = BufWriter::new(file);
        tlp_graph::io::write_edge_list(&generated, &mut out)
            .map_err(|e| format!("write text: {e}"))?;
        out.flush().map_err(|e| format!("write text: {e}"))?;
        drop(out);
        drop(generated);

        // Everything downstream uses the graph as the text parser numbers
        // it, exactly as the workloads see it.
        let graph = tlp_graph::io::read_edge_list_file(self.text())
            .map_err(|e| format!("parse text: {e}"))?
            .graph;
        write_graph(&self.v2(), &graph, &WriteOptions::default())
            .map_err(|e| format!("write v2: {e}"))?;
        if self.kind == InputKind::Rmat {
            let artifact = tlp_pipeline::builtin_registry()
                .run(
                    crate::SERVE_PLACER,
                    &algo_config(seed),
                    &mut CsrSource::new(&graph),
                    PARTITIONS,
                )
                .map_err(|e| format!("hdrf: {e}"))?;
            write_partition_store(&self.store(), &graph, &artifact.partition)
                .map_err(|e| format!("write store: {e}"))?;
        }
        std::fs::write(self.dir.join("READY"), b"").map_err(|e| format!("mark ready: {e}"))
    }
}

/// Identity of the running build: a hash of the executable's bytes.
fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut file = std::fs::File::open(&exe).map_err(|e| format!("open {exe:?}: {e}"))?;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    let mut buf = vec![0u8; 1 << 16];
    loop {
        match file.read(&mut buf) {
            Ok(0) => return Ok(hasher.finish()),
            Ok(n) => hasher.write(&buf[..n]),
            Err(e) => return Err(format!("read {exe:?}: {e}")),
        }
    }
}

/// One trial on one thread, seeded from the run's seed.
pub fn algo_config(seed: u64) -> AlgoConfig {
    AlgoConfig {
        seed,
        threads: 1,
        trials: 1,
        ..AlgoConfig::default()
    }
}
