//! Loading datasets: real SNAP files when available, synthetic otherwise.
//!
//! Real text edge lists are parsed **once**: the first load writes a
//! `.tlpg` binary cache next to the source file, and later loads open the
//! binary (validated against the source's length + mtime stamp) instead of
//! re-parsing text. Experiment grids that load the same dataset per cell
//! thus pay the text-parse cost once per file, not once per cell.

use crate::DatasetSpec;
use std::path::{Path, PathBuf};
use tlp_graph::{io, CsrGraph};
use tlp_store::format::SourceStamp;
use tlp_store::{write_graph, StoreReader, WriteOptions};

/// Where a loaded graph came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Parsed from a real edge-list file at this path (and, when possible,
    /// a `.tlpg` binary cache was written beside it).
    Real(PathBuf),
    /// Loaded from the `.tlpg` binary cache of a real edge-list file —
    /// no text parsing happened.
    BinaryCache {
        /// The original text file the cache was derived from.
        source: PathBuf,
        /// The `.tlpg` cache file that was actually read.
        cache: PathBuf,
    },
    /// Generated synthetically (see `DESIGN.md` §4) at this scale.
    Synthetic {
        /// Instantiation scale in `(0, 1]`.
        scale_milli: u32,
    },
}

/// What happened along the way while satisfying a [`load`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadOutcome {
    /// A stale or corrupt `.tlpg` cache was found and deleted during this
    /// load (it is rewritten from the fresh text parse, so the next load
    /// hits the cache again instead of re-probing the bad file forever).
    pub evicted_invalid_cache: bool,
}

/// How [`load_with`] treats a real dataset file's `.tlpg` binary cache —
/// the harness's `--format` flag maps onto this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Probe the cache, fall back to text, rewrite the cache best-effort
    /// (the [`load`] default).
    #[default]
    Auto,
    /// Always parse the text file; never probe (or evict) the cache.
    TextOnly,
    /// Require a valid, up-to-date binary cache; a real file without one
    /// is an error instead of a silent re-parse.
    BinaryOnly,
}

/// A dataset instance plus its provenance.
#[derive(Clone, Debug)]
pub struct LoadedDataset {
    /// The graph.
    pub graph: CsrGraph,
    /// Real file, its binary cache, or synthetic stand-in.
    pub provenance: Provenance,
    /// Side effects of this particular load (cache evictions).
    pub outcome: LoadOutcome,
}

/// Candidate file names for a dataset inside the data directory.
fn candidate_paths(dir: &Path, spec: &DatasetSpec) -> Vec<PathBuf> {
    vec![
        dir.join(format!("{}.txt", spec.name)),
        dir.join(format!("{}.edges", spec.name)),
        dir.join(format!("{}.txt", spec.id)),
    ]
}

/// The `.tlpg` cache path for a text dataset file.
fn cache_path(source: &Path) -> PathBuf {
    PathBuf::from(format!("{}.tlpg", source.display()))
}

/// Result of probing the binary cache beside a text dataset file.
enum CacheProbe {
    /// No cache file exists.
    Absent,
    /// A valid, up-to-date cache was read.
    Hit(CsrGraph),
    /// A cache file existed but was stale, corrupt, or unreadable; it has
    /// been deleted so later loads don't keep re-probing it.
    Evicted,
}

/// Probes the binary cache beside `source`. Never an error — on anything
/// short of a valid, up-to-date cache the caller falls back to the text
/// parse. An invalid cache file (stale stamp, corrupt payload, unreadable)
/// is deleted rather than left in place: the text parse that follows
/// rewrites it, and leaving it would make every future load pay the failed
/// probe again.
fn probe_cache(source: &Path) -> CacheProbe {
    let cache = cache_path(source);
    if !cache.is_file() {
        return CacheProbe::Absent;
    }
    let graph = (|| {
        let reader = StoreReader::open(&cache).ok()?;
        let stamp = SourceStamp::of_file(source).ok()?;
        if reader.header().source != stamp {
            return None; // text file changed since the cache was written
        }
        reader.read_graph().ok()
    })();
    match graph {
        Some(graph) => CacheProbe::Hit(graph),
        None => {
            let _ = std::fs::remove_file(&cache);
            CacheProbe::Evicted
        }
    }
}

/// Loads a dataset: the real file from `data_dir` when one exists
/// (`<name>.txt`, `<name>.edges`, or `<Gk>.txt`), otherwise the synthetic
/// stand-in at `scale`.
///
/// When a real file is found, a valid sibling `.tlpg` cache short-circuits
/// the text parse; otherwise the text is parsed and the cache (re)written
/// best-effort (cache-write failures are ignored — e.g. a read-only data
/// directory just means every load parses text). A stale or corrupt cache
/// is **deleted** before the text parse, recorded in the returned
/// [`LoadOutcome`] and counted as `dataset.cache_evict`. The returned
/// [`Provenance`] says whether the text was parsed: only
/// [`Provenance::Real`] means it was.
///
/// # Errors
///
/// Returns a [`tlp_graph::GraphError`] only when a real file exists but
/// fails to parse; the synthetic path is infallible.
///
/// # Example
///
/// ```
/// use tlp_datasets::{loader::load, DatasetId, DatasetSpec};
///
/// let spec = DatasetSpec::get(DatasetId::G1);
/// let ds = load(spec, "/nonexistent-dir", 0.05, 1)?;
/// assert!(ds.graph.num_edges() > 0);
/// # Ok::<(), tlp_graph::GraphError>(())
/// ```
pub fn load<P: AsRef<Path>>(
    spec: &DatasetSpec,
    data_dir: P,
    scale: f64,
    seed: u64,
) -> Result<LoadedDataset, tlp_graph::GraphError> {
    load_with(spec, data_dir, scale, seed, CachePolicy::Auto)
}

/// [`load`] with an explicit [`CachePolicy`] ([`CachePolicy::Auto`] is what
/// plain [`load`] does; the other policies let callers force the text path
/// or insist on the binary cache).
///
/// # Errors
///
/// Everything [`load`] reports, plus — under [`CachePolicy::BinaryOnly`] —
/// an [`Invalid`](tlp_graph::GraphError::Invalid) error when a real file
/// has no valid binary cache.
pub fn load_with<P: AsRef<Path>>(
    spec: &DatasetSpec,
    data_dir: P,
    scale: f64,
    seed: u64,
    policy: CachePolicy,
) -> Result<LoadedDataset, tlp_graph::GraphError> {
    for path in candidate_paths(data_dir.as_ref(), spec) {
        if !path.is_file() {
            continue;
        }
        let mut outcome = LoadOutcome::default();
        if policy != CachePolicy::TextOnly {
            match probe_cache(&path) {
                CacheProbe::Hit(graph) => {
                    return Ok(LoadedDataset {
                        graph,
                        provenance: Provenance::BinaryCache {
                            cache: cache_path(&path),
                            source: path,
                        },
                        outcome,
                    });
                }
                CacheProbe::Evicted => {
                    tlp_obs::counter("dataset.cache_evict", 1);
                    outcome.evicted_invalid_cache = true;
                }
                CacheProbe::Absent => {}
            }
            if policy == CachePolicy::BinaryOnly {
                return Err(tlp_graph::GraphError::Invalid(format!(
                    "binary-only load: no valid .tlpg cache beside {}",
                    path.display()
                )));
            }
        }
        let list = io::read_edge_list_file(&path)?;
        if policy != CachePolicy::TextOnly {
            let options = WriteOptions {
                original_ids: Some(list.original_ids),
                source: SourceStamp::of_file(&path).ok(),
                ..WriteOptions::default()
            };
            let _ = write_graph(&cache_path(&path), &list.graph, &options);
        }
        return Ok(LoadedDataset {
            graph: list.graph,
            provenance: Provenance::Real(path),
            outcome,
        });
    }
    Ok(LoadedDataset {
        graph: spec.instantiate(scale, seed),
        provenance: Provenance::Synthetic {
            scale_milli: (scale * 1000.0).round() as u32,
        },
        outcome: LoadOutcome::default(),
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::DatasetId;
    use std::io::Write;
    use tlp_obs::EventKind;

    /// Runs `f` and sums the `dataset.cache_evict` counter it emits.
    fn count_evictions<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let (value, events) = tlp_obs::with_recording(f);
        let evictions = events
            .iter()
            .map(|event| match &event.kind {
                EventKind::Counter { name, delta } if name == "dataset.cache_evict" => *delta,
                _ => 0,
            })
            .sum();
        (value, evictions)
    }

    #[test]
    fn falls_back_to_synthetic_when_no_file() {
        let spec = DatasetSpec::get(DatasetId::G1);
        let ds = load(spec, "/definitely/missing", 0.1, 3).unwrap();
        assert!(matches!(ds.provenance, Provenance::Synthetic { .. }));
        assert!(ds.graph.num_edges() > 0);
    }

    #[test]
    fn prefers_real_file_when_present() {
        let dir = std::env::temp_dir().join(format!("tlp-loader-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("email-Eu-core.txt");
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "# tiny stand-in\n0 1\n1 2").unwrap();
        drop(f);

        let spec = DatasetSpec::get(DatasetId::G1);
        let ds = load(spec, &dir, 1.0, 0).unwrap();
        assert_eq!(ds.provenance, Provenance::Real(path.clone()));
        assert_eq!(ds.graph.num_edges(), 2);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_real_file_is_an_error() {
        let dir = std::env::temp_dir().join(format!("tlp-loader-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("Wiki-Vote.txt");
        std::fs::write(&path, "not an edge list\n").unwrap();

        let spec = DatasetSpec::get(DatasetId::G2);
        assert!(load(spec, &dir, 1.0, 0).is_err());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn provenance_scale_is_recorded() {
        let spec = DatasetSpec::get(DatasetId::G1);
        let ds = load(spec, "/missing", 0.25, 1).unwrap();
        assert_eq!(ds.provenance, Provenance::Synthetic { scale_milli: 250 });
    }

    #[test]
    fn second_load_hits_the_binary_cache_without_reparsing() {
        let dir = std::env::temp_dir().join(format!("tlp-loader-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("email-Eu-core.txt");
        std::fs::write(&path, "# stand-in\n0 1\n1 2\n2 3\n").unwrap();

        let spec = DatasetSpec::get(DatasetId::G1);
        let first = load(spec, &dir, 1.0, 0).unwrap();
        assert_eq!(first.provenance, Provenance::Real(path.clone()));
        assert!(cache_path(&path).is_file(), "cache not written");

        // A cache-backed provenance means no text parse happened.
        let second = load(spec, &dir, 1.0, 0).unwrap();
        let third = load(spec, &dir, 1.0, 0).unwrap();
        let cached = Provenance::BinaryCache {
            source: path.clone(),
            cache: cache_path(&path),
        };
        assert_eq!(second.provenance, cached, "second load re-parsed the text");
        assert_eq!(third.provenance, cached, "third load re-parsed the text");
        assert_eq!(
            second.graph, first.graph,
            "cache returned a different graph"
        );
        assert_eq!(third.graph, first.graph);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_cache_is_ignored_and_rewritten() {
        let dir = std::env::temp_dir().join(format!("tlp-loader-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("email-Eu-core.txt");
        std::fs::write(&path, "0 1\n1 2\n").unwrap();

        let spec = DatasetSpec::get(DatasetId::G1);
        load(spec, &dir, 1.0, 0).unwrap(); // writes the cache

        // Change the source (different length => different stamp).
        std::fs::write(&path, "0 1\n1 2\n2 3\n3 4\n").unwrap();
        let (ds, evictions) = count_evictions(|| load(spec, &dir, 1.0, 0).unwrap());
        assert_eq!(ds.provenance, Provenance::Real(path.clone()));
        assert_eq!(ds.graph.num_edges(), 4, "stale cache served old graph");
        assert_eq!(evictions, 1);
        assert!(ds.outcome.evicted_invalid_cache, "eviction not reported");

        // And the rewritten cache now serves the new content.
        let again = load(spec, &dir, 1.0, 0).unwrap();
        assert!(matches!(again.provenance, Provenance::BinaryCache { .. }));
        assert_eq!(again.graph, ds.graph);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_cache_degrades_to_text_parse() {
        let dir = std::env::temp_dir().join(format!("tlp-loader-ccache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("email-Eu-core.txt");
        std::fs::write(&path, "0 1\n1 2\n").unwrap();

        let spec = DatasetSpec::get(DatasetId::G1);
        load(spec, &dir, 1.0, 0).unwrap();
        std::fs::write(cache_path(&path), b"garbage").unwrap();

        let (ds, evictions) = count_evictions(|| load(spec, &dir, 1.0, 0).unwrap());
        assert_eq!(ds.provenance, Provenance::Real(path.clone()));
        assert_eq!(ds.graph.num_edges(), 2);
        assert_eq!(evictions, 1);
        assert!(ds.outcome.evicted_invalid_cache, "eviction not reported");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evicted_cache_is_rewritten_not_reprobed() {
        let dir = std::env::temp_dir().join(format!("tlp-loader-evict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("email-Eu-core.txt");
        std::fs::write(&path, "0 1\n1 2\n").unwrap();

        let spec = DatasetSpec::get(DatasetId::G1);
        load(spec, &dir, 1.0, 0).unwrap();
        std::fs::write(cache_path(&path), b"garbage").unwrap();

        let ((ds, next), evictions) = count_evictions(|| {
            // The load that trips over the garbage evicts and rewrites it...
            let ds = load(spec, &dir, 1.0, 0).unwrap();
            assert!(ds.outcome.evicted_invalid_cache);
            assert!(
                cache_path(&path).is_file(),
                "cache not rewritten after eviction"
            );
            // ...so the next load is a clean cache hit.
            (ds, load(spec, &dir, 1.0, 0).unwrap())
        });
        assert!(matches!(next.provenance, Provenance::BinaryCache { .. }));
        assert!(!next.outcome.evicted_invalid_cache);
        assert_eq!(evictions, 1, "the rewritten cache was evicted again");
        assert_eq!(next.graph, ds.graph);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn text_only_policy_never_touches_the_cache() {
        let dir = std::env::temp_dir().join(format!("tlp-loader-textonly-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("email-Eu-core.txt");
        std::fs::write(&path, "0 1\n1 2\n").unwrap();

        let spec = DatasetSpec::get(DatasetId::G1);
        let ds = load_with(spec, &dir, 1.0, 0, CachePolicy::TextOnly).unwrap();
        assert_eq!(ds.provenance, Provenance::Real(path.clone()));
        assert!(!cache_path(&path).is_file(), "text-only load wrote a cache");

        // Even with a garbage cache present, text-only neither reads nor
        // evicts it.
        std::fs::write(cache_path(&path), b"garbage").unwrap();
        let (ds, evictions) =
            count_evictions(|| load_with(spec, &dir, 1.0, 0, CachePolicy::TextOnly).unwrap());
        assert_eq!(ds.provenance, Provenance::Real(path.clone()));
        assert!(!ds.outcome.evicted_invalid_cache);
        assert_eq!(evictions, 0);
        assert!(cache_path(&path).is_file());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_only_policy_requires_a_valid_cache() {
        let dir = std::env::temp_dir().join(format!("tlp-loader-binonly-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("email-Eu-core.txt");
        std::fs::write(&path, "0 1\n1 2\n").unwrap();

        let spec = DatasetSpec::get(DatasetId::G1);
        // No cache yet: binary-only refuses instead of silently parsing.
        assert!(load_with(spec, &dir, 1.0, 0, CachePolicy::BinaryOnly).is_err());

        // After an auto load writes the cache, binary-only serves it.
        load(spec, &dir, 1.0, 0).unwrap();
        let ds = load_with(spec, &dir, 1.0, 0, CachePolicy::BinaryOnly).unwrap();
        assert!(matches!(ds.provenance, Provenance::BinaryCache { .. }));

        // Synthetic fallback still works when no real file exists.
        let ds = load_with(spec, "/definitely/missing", 0.1, 3, CachePolicy::BinaryOnly).unwrap();
        assert!(matches!(ds.provenance, Provenance::Synthetic { .. }));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
