//! Observability conformance: every built-in algorithm, run through the
//! registry with a recording observer, emits the mandatory span skeleton
//! (`run` → `trial` → `round`/`pass`) and a `run.edges` counter covering
//! every edge. Streaming algorithms additionally emit per-chunk
//! `stream.*` counters whose totals match the source's [`PassStats`]
//! accounting (one pass over every edge). A checkpointed
//! `tlp-cli partition --checkpoint` run writes the same skeleton to its
//! `--profile` trace.

use tlp::core::{AlgoConfig, Capability};
use tlp::graph::generators::chung_lu;
use tlp::graph::CsrSource;
use tlp::obs::{Event, EventKind, Field};
use tlp::pipeline::{builtin_names, builtin_registry};

const P: usize = 8;

fn spec_of(name: &str) -> String {
    if name == "tlp-r" {
        "tlp-r=0.3".to_string()
    } else {
        name.to_string()
    }
}

fn span_opens<'e>(events: &'e [Event], span: &str) -> Vec<&'e Event> {
    events
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::SpanOpen { name, .. } if name == span))
        .collect()
}

fn counter_total(events: &[Event], counter: &str) -> u64 {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Counter { name, delta } if name == counter => Some(*delta),
            _ => None,
        })
        .sum()
}

#[test]
fn every_builtin_emits_the_mandatory_span_skeleton() {
    let graph = chung_lu(800, 3200, 2.2, 19);
    let registry = builtin_registry();
    let config = AlgoConfig::seeded(29);

    for name in builtin_names() {
        let spec = spec_of(name);
        let entry = registry.entry_of(&spec).expect("registered");
        let (artifact, events) = registry
            .run_recorded(&spec, &config, &mut CsrSource::new(&graph), P)
            .unwrap_or_else(|e| panic!("{name}: {e}"));

        // The root `run` span carries the algorithm label and p.
        let runs = span_opens(&events, "run");
        assert_eq!(runs.len(), 1, "{name}: expected exactly one run span");
        let EventKind::SpanOpen { fields, parent, .. } = &runs[0].kind else {
            unreachable!()
        };
        assert_eq!(*parent, None, "{name}: run span must be the root");
        assert!(
            fields.iter().any(|(k, _)| k == "algorithm"),
            "{name}: run span lost its algorithm field"
        );
        assert!(
            fields
                .iter()
                .any(|(k, v)| k == "p" && *v == Field::U64(P as u64)),
            "{name}: run span lost its p field"
        );

        // At least one trial, and inside it real work: engine rounds or
        // streaming/materialized passes.
        assert!(
            !span_opens(&events, "trial").is_empty(),
            "{name}: no trial span"
        );
        let rounds = span_opens(&events, "round").len();
        let passes = span_opens(&events, "pass").len();
        assert!(
            rounds + passes > 0,
            "{name}: no round or pass span under the trial"
        );

        // Every edge is accounted for exactly once at the run level.
        assert_eq!(
            counter_total(&events, "run.edges"),
            graph.num_edges() as u64,
            "{name}: run.edges does not cover the graph"
        );

        // Streaming baselines read the source once and must report exactly
        // one pass's worth of edges.
        if entry.capability == Capability::Streaming {
            assert_eq!(
                counter_total(&events, "stream.edges"),
                graph.num_edges() as u64,
                "{name}: stream.edges != one full pass"
            );
            assert!(
                counter_total(&events, "stream.chunk") >= 1,
                "{name}: no stream chunk"
            );
        }

        // The folded report on the artifact agrees with the raw stream.
        let report = artifact.obs.expect("recorded run keeps its report");
        assert_eq!(report.events, events.len() as u64, "{name}");
        assert!(
            report.spans.iter().any(|s| s.name == "run"),
            "{name}: report lost the run span"
        );
    }
}

#[test]
fn kernel_and_scoring_counters_surface_for_the_paper_algorithm() {
    let graph = chung_lu(800, 3200, 2.2, 19);
    let registry = builtin_registry();
    let config = AlgoConfig::seeded(29);
    let (_, events) = registry
        .run_recorded("tlp", &config, &mut CsrSource::new(&graph), P)
        .expect("tlp run");
    for counter in [
        "round.select",
        "round.edges",
        "scoring.terms",
        "tri.triangles",
    ] {
        assert!(
            counter_total(&events, counter) > 0,
            "tlp run emitted no {counter} counts"
        );
    }
    // Every span that opens also closes, with balanced ids per trial.
    let mut open: std::collections::HashSet<(Option<u32>, u64)> = std::collections::HashSet::new();
    for event in &events {
        match &event.kind {
            EventKind::SpanOpen { id, .. } => {
                assert!(open.insert((event.trial, *id)), "span id reused while open");
            }
            EventKind::SpanClose { id, .. } => {
                assert!(open.remove(&(event.trial, *id)), "close without open");
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "spans left open: {open:?}");
}

/// `(id, parent)` of every span named `span`.
fn span_links(events: &[Event], span: &str) -> Vec<(u64, Option<u64>)> {
    span_opens(events, span)
        .into_iter()
        .filter_map(|e| match &e.kind {
            EventKind::SpanOpen { id, parent, .. } => Some((*id, *parent)),
            _ => None,
        })
        .collect()
}

#[test]
fn checkpointed_cli_runs_emit_the_span_skeleton() {
    let dir = std::env::temp_dir().join(format!("tlp-obs-checkpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let text = dir.join("graph.txt");
    let file = std::fs::File::create(&text).unwrap();
    tlp::graph::io::write_edge_list(
        &chung_lu(2_000, 8_000, 2.2, 7),
        std::io::BufWriter::new(file),
    )
    .unwrap();
    let m = tlp::graph::io::read_edge_list_file(&text)
        .unwrap()
        .graph
        .num_edges() as u64;
    let trace = dir.join("trace.jsonl");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_tlp-cli"))
        .args(["partition", "--input", text.to_str().unwrap()])
        .args(["--partitions", "4", "--seed", "3"])
        .args(["--checkpoint", dir.join("ckpt").to_str().unwrap()])
        .args(["--profile", trace.to_str().unwrap()])
        .output()
        .expect("run tlp-cli");
    assert!(
        output.status.success(),
        "tlp-cli failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let events = tlp::obs::read_jsonl(&trace).unwrap().events;

    let runs = span_opens(&events, "run");
    assert_eq!(runs.len(), 1, "expected exactly one run span");
    let EventKind::SpanOpen {
        id: run_id,
        parent,
        fields,
        ..
    } = &runs[0].kind
    else {
        unreachable!()
    };
    assert_eq!(*parent, None, "run span must be the root");
    assert!(fields.contains(&("algorithm".to_string(), Field::Str("TLP".to_string()))));
    assert!(fields.contains(&("p".to_string(), Field::U64(4))));

    let trials = span_links(&events, "trial");
    assert_eq!(trials.len(), 1, "expected exactly one trial span");
    let (trial_id, trial_parent) = trials[0];
    assert_eq!(
        trial_parent,
        Some(*run_id),
        "trial must sit under the run span"
    );

    let rounds = span_links(&events, "round");
    assert_eq!(rounds.len(), 4, "one round per partition");
    for (_, parent) in rounds {
        assert_eq!(parent, Some(trial_id), "round outside the trial span");
    }
    assert_eq!(counter_total(&events, "run.edges"), m);
    std::fs::remove_dir_all(&dir).unwrap();
}
