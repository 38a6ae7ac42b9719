//! The benchmark's own tracing: spans recorded around each call into a
//! layer, kept in memory and written as JSONL when the run ends, plus a
//! folding observer for the program's existing `tlp-obs` counters.
//!
//! No span is added inside the program; every span here wraps a public
//! call made from the benchmark. A disabled [`Tracer`] records nothing,
//! which is how the untraced (end-to-end) iterations run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};
use tlp_obs::{Event, EventKind, Observer};

/// One closed (or still open) span.
#[derive(Clone, Debug)]
struct SpanRecord {
    /// Layer-qualified name, e.g. `store.write_graph`.
    name: &'static str,
    /// Nanoseconds since the tracer's origin.
    start_ns: u64,
    /// Nanoseconds since the tracer's origin; equals `start_ns` while open.
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Calls folded into this record (1 for an ordinary span; more for an
    /// aggregate recorded by [`Tracer::aggregate`]).
    calls: u64,
}

impl SpanRecord {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct TraceState {
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
}

impl TraceState {
    /// Each span's duration minus the time its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
            .collect()
    }
}

/// Span recorder. Methods take `&self` so a tracer can be shared with
/// closures handed to the program (stream sinks).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<TraceState>,
}

/// Closes its span on drop.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let now = self.tracer.now_ns();
            let mut state = self.tracer.state.borrow_mut();
            state.spans[index].end_ns = now;
            let popped = state.stack.pop();
            debug_assert_eq!(popped, Some(index), "spans close in LIFO order");
        }
    }
}

impl Tracer {
    /// A tracer that records when `enabled`, and does nothing otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: RefCell::new(TraceState::default()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let now = self.now_ns();
        let mut state = self.state.borrow_mut();
        let index = state.spans.len();
        let parent = state.stack.last().copied();
        state.spans.push(SpanRecord {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            calls: 1,
        });
        state.stack.push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Records `calls` calls totalling `total` as one child of the
    /// innermost open span. Used where a span per call would not fit in
    /// memory (one per served request); it is laid out from the parent's
    /// start so self-time arithmetic stays exact.
    pub fn aggregate(&self, name: &'static str, total: Duration, calls: u64) {
        if !self.enabled {
            return;
        }
        let mut state = self.state.borrow_mut();
        let parent = state.stack.last().copied();
        let start_ns = parent.map_or(0, |p| state.spans[p].start_ns);
        state.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns + total.as_nanos() as u64,
            parent,
            calls,
        });
    }

    /// Self time (duration minus the time its children cover) summed per
    /// span name, in seconds, over every closed span so far.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let state = self.state.borrow();
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, own) in state.spans.iter().zip(state.self_ns()) {
            *totals.entry(span.name).or_default() += own as f64 / 1e9;
        }
        totals
    }

    /// Writes every span as one JSON line (iteration, id, name, parent,
    /// start, end, self time, calls) to `out`.
    ///
    /// # Errors
    ///
    /// I/O errors from `out`.
    pub fn write_jsonl(&self, out: &mut impl Write, iteration: usize) -> std::io::Result<()> {
        let state = self.state.borrow();
        for (id, (span, own)) in state.spans.iter().zip(state.self_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"iteration\":{iteration},\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"calls\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                own,
                span.calls
            )?;
        }
        Ok(())
    }
}

/// Sums the program's `tlp-obs` counters without keeping the events, so a
/// million-request serve loop can be observed in bounded memory.
#[derive(Debug, Default)]
pub struct CounterFold {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
}

impl Observer for CounterFold {
    fn record(&mut self, event: Event) {
        if let EventKind::Counter { name, delta } = event.kind {
            *self.counters.entry(name).or_default() += delta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("outer");
            std::thread::sleep(Duration::from_millis(2));
            tracer.aggregate("inner", Duration::from_millis(1), 10);
        }
        let totals = tracer.self_seconds();
        let outer = totals["outer"];
        assert!((totals["inner"] - 0.001).abs() < 1e-12);
        assert!((0.001..1.0).contains(&outer), "outer self time {outer}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let _span = tracer.span("x");
        }
        tracer.aggregate("y", Duration::from_millis(1), 1);
        assert!(tracer.self_seconds().is_empty());
    }
}
