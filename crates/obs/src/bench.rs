//! Shared writer for bench reports (`tlp-loadgen --bench`).
//!
//! Every report gets the same envelope as profile traces — a leading
//! `"schema"` field carrying [`SCHEMA_VERSION`] — while each report keeps
//! its own top-level keys untouched.

use crate::event::SCHEMA_VERSION;
use serde::{Serialize, Value};
use std::io;
use std::path::Path;

/// Lowers `value` (which must serialize to a JSON object), prepends the
/// shared `"schema"` version field, and writes it pretty-printed to
/// `path` via a sibling temp file and rename so a crash never leaves a
/// half-written baseline.
pub fn write_bench_json<T: Serialize>(path: &Path, value: &T) -> io::Result<()> {
    let mut lowered = value.to_value();
    let Value::Object(entries) = &mut lowered else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "bench baseline must serialize to a JSON object",
        ));
    };
    if !entries.iter().any(|(key, _)| key == "schema") {
        entries.insert(0, ("schema".to_string(), Value::UInt(SCHEMA_VERSION)));
    }
    let mut text = serde_json::to_string_pretty(&lowered)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    text.push('\n');
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, &text)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sample;

    impl Serialize for Sample {
        fn to_value(&self) -> Value {
            Value::Object(vec![
                ("bench".into(), Value::String("sample".into())),
                ("seed".into(), Value::UInt(9)),
                ("speedup".into(), Value::Float(2.0)),
            ])
        }
    }

    #[test]
    fn writes_schema_first_and_reads_back() {
        let dir = std::env::temp_dir().join(format!("tlp-obs-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sample.json");
        write_bench_json(&path, &Sample).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let Value::Object(entries) = serde_json::from_str(&text).unwrap() else {
            panic!("expected object")
        };
        let keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, vec!["schema", "bench", "seed", "speedup"]);
        assert_eq!(entries[0].1, Value::UInt(SCHEMA_VERSION));
        assert_eq!(entries[2].1, Value::UInt(9));
        assert_eq!(entries[3].1, Value::Float(2.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_non_object_baselines() {
        let path = std::env::temp_dir().join("BENCH_bad.json");
        assert!(write_bench_json(&path, &3u64).is_err());
    }
}
