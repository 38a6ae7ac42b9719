//! Tiny-size smoke test of the benchmark itself: every metric that
//! `BENCHMARK.json` names is printed with its unit by every workload, and
//! a corrupted partition result is caught by the output checks.

use serde::Value;
use std::path::{Path, PathBuf};
use tlp_perfbench::inputs::InputSet;
use tlp_perfbench::{run, Config, Report, Scale, Workload};

const SEED: u64 = 7;

fn tiny_run(workload: Workload, trace: bool, flip: bool, dir: &Path) -> Report {
    let inputs = InputSet::locate(dir, workload.input(), SEED).expect("locate inputs");
    if !inputs.is_ready() {
        inputs.generate(SEED, &Scale::TINY).expect("tiny inputs");
    }
    let config = Config {
        workload,
        seed: SEED,
        seconds: 0.01,
        trace,
        work_dir: dir.to_path_buf(),
        scale: Scale::TINY,
        flip_one_partition_id: flip,
    };
    run(&config, &inputs).expect("tiny run")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn field<'v>(value: &'v Value, key: &str) -> &'v Value {
    match value {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key:?}")),
        other => panic!("expected an object holding {key:?}, got {other:?}"),
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn items(value: &Value) -> &[Value] {
    match value {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(benchmark: &Value, list: &str) -> Vec<(String, String)> {
    items(field(benchmark, list))
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let raw = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let benchmark = serde_json::from_str(&raw).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = items(field(&benchmark, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(
        workloads, names,
        "BENCHMARK.json lists the benchmark's workloads"
    );

    let dir = scratch("smoke-metrics");
    for workload in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = tiny_run(workload, trace, false, &dir);
            assert!(
                report.correct(),
                "{} trace={trace} failed its checks",
                workload.name()
            );
            let printed = serde_json::from_str(&report.result_line()).expect("result line parses");
            let metrics = field(&printed, "metrics");
            let Value::Object(entries) = metrics else {
                panic!("metrics is not an object");
            };
            let expected = declared(&benchmark, list);
            assert_eq!(
                entries.len(),
                expected.len(),
                "{} {list}: extra metrics",
                workload.name()
            );
            for (name, unit) in expected {
                let metric = field(metrics, &name);
                assert_eq!(
                    text(field(metric, "unit")),
                    unit,
                    "{} {name}",
                    workload.name()
                );
                assert!(
                    matches!(field(metric, "value"), Value::Float(_)),
                    "{} {name} is not a number",
                    workload.name()
                );
            }
            if !trace {
                assert_eq!(report.value("ok_rate"), Some(1.0), "{}", workload.name());
            }
        }
    }
}

#[test]
fn flipping_one_partition_id_drops_ok_rate() {
    let dir = scratch("smoke-flip");
    for workload in [Workload::TlpCl200k, Workload::StreamRmat1m] {
        let report = tiny_run(workload, false, true, &dir);
        let ok_rate = report.value("ok_rate").expect("ok_rate printed");
        assert!(ok_rate < 1.0, "{}: ok_rate {ok_rate}", workload.name());
        assert!(!report.correct());
    }
}
