//! The serve load: a seeded request mix sent closed loop from one caller
//! through the codec and `PartitionService::handle`.
//!
//! Closed loop because the callers it stands for (graph workers resolving
//! placement) wait for each reply. The mix is `tlp-loadgen`'s: 90% reads —
//! 7/8 `VertexLookup`, 1/8 `Neighbors`, zipf s = 1.1 over vertex ids — and
//! 10% `PlaceEdge` over uniform distinct pairs, so no request is malformed
//! and no reply should be an error.

use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use tlp_serve::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, PartitionService,
    Request, Response, ZipfSampler,
};

/// Zipf skew of read keys.
pub const ZIPF_S: f64 = 1.1;
/// Share of reads in the mix.
pub const READ_SHARE: f64 = 0.9;

/// The request stream of one run over a graph of `num_vertices` vertices:
/// the same for every iteration.
pub fn requests(num_vertices: u32, num_partitions: u32, count: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_10AD);
    let zipf = ZipfSampler::new(num_vertices, ZIPF_S);
    (0..count)
        .map(|_| {
            if rng.gen_bool(READ_SHARE) {
                if rng.gen_range(0u32..8) == 0 {
                    Request::Neighbors {
                        vertex: zipf.sample(&mut rng),
                        partition: rng.gen_range(0..num_partitions),
                    }
                } else {
                    Request::VertexLookup {
                        vertex: zipf.sample(&mut rng),
                    }
                }
            } else {
                let u = rng.gen_range(0..num_vertices);
                let mut v = rng.gen_range(0..num_vertices);
                if v == u {
                    v = (v + 1) % num_vertices;
                }
                Request::PlaceEdge { u, v }
            }
        })
        .collect()
}

/// What one pass over the request stream saw.
#[derive(Clone, Debug, Default)]
pub struct LoopOutcome {
    /// Requests sent.
    pub sent: u64,
    /// Wall time of the whole loop.
    pub loop_s: f64,
    /// Throughput of each run of `segment` consecutive requests.
    pub segment_ops: Vec<f64>,
    /// Error replies other than `NotFound`, and messages the codec did
    /// not round-trip.
    pub errors: u64,
    /// Per-request latency of `VertexLookup`, codec included.
    pub lookup_ns: Vec<u64>,
    /// Per-request latency of `Neighbors`.
    pub neighbors_ns: Vec<u64>,
    /// Per-request latency of `PlaceEdge`.
    pub place_ns: Vec<u64>,
    /// `(u, v, partition)` of every fresh placement acknowledged.
    pub fresh_acks: Vec<(u32, u32, u32)>,
}

impl LoopOutcome {
    /// Requests answered without an error (`NotFound` counts as answered).
    pub fn ok(&self) -> u64 {
        self.sent - self.errors
    }
}

/// Sends every request in order, waiting for each reply, and samples the
/// throughput every `segment` requests.
///
/// The untraced path takes two clock reads per request. Traced, the codec
/// and `handle` are timed apart and recorded as aggregate children of one
/// `serve.loop` span.
pub fn drive(
    service: &PartitionService,
    requests: &[Request],
    segment: usize,
    tracer: &Tracer,
) -> LoopOutcome {
    let mut out = LoopOutcome {
        sent: requests.len() as u64,
        ..LoopOutcome::default()
    };
    let mut codec = Duration::ZERO;
    let mut handle = Duration::ZERO;
    let traced = tracer.enabled();
    let span = tracer.span("serve.loop");
    let started = Instant::now();
    let mut segment_started = started;
    for (index, request) in requests.iter().enumerate() {
        let t0 = Instant::now();
        let body = encode_request(request);
        let decoded = decode_request(&body);
        let t1 = traced.then(Instant::now);
        let response = match &decoded {
            Ok(decoded) => service.handle(decoded),
            Err(_) => Response::Error(ErrorCode::BadRequest),
        };
        let t2 = traced.then(Instant::now);
        let reply = encode_response(&response);
        let answered = decode_response(&reply);
        let latency = t0.elapsed();
        if let (Some(t1), Some(t2)) = (t1, t2) {
            codec += (t1 - t0) + latency.saturating_sub(t2 - t0);
            handle += t2 - t1;
        }

        let round_trip = decoded.as_ref().is_ok_and(|d| d == request)
            && answered.as_ref().is_ok_and(|a| *a == response);
        let failed = match response {
            Response::Error(ErrorCode::NotFound) => false,
            Response::Error(_) => true,
            _ => !round_trip,
        };
        out.errors += u64::from(failed);
        let ns = latency.as_nanos() as u64;
        match *request {
            Request::VertexLookup { .. } => out.lookup_ns.push(ns),
            Request::Neighbors { .. } => out.neighbors_ns.push(ns),
            Request::PlaceEdge { u, v } => {
                out.place_ns.push(ns);
                if let Response::Placed {
                    partition,
                    fresh: true,
                } = response
                {
                    out.fresh_acks.push((u.min(v), u.max(v), partition));
                }
            }
            _ => {}
        }
        if (index + 1) % segment == 0 {
            let now = Instant::now();
            out.segment_ops
                .push(segment as f64 / (now - segment_started).as_secs_f64());
            segment_started = now;
        }
    }
    out.loop_s = started.elapsed().as_secs_f64();
    tracer.aggregate("serve.codec", codec, out.sent);
    tracer.aggregate("serve.handle", handle, out.sent);
    drop(span);
    out
}

/// Nearest-rank percentile `q` (0–100) of nanosecond `samples`, in
/// microseconds; `tlp_obs::percentiles` stops at p99 and works in whole
/// units, too coarse for microsecond requests. Sorts in place; 0 for no
/// samples.
pub fn percentile_us(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = (q / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_never_malformed() {
        let a = requests(100, 4, 2_000, 7);
        assert_eq!(a, requests(100, 4, 2_000, 7));
        assert_ne!(a, requests(100, 4, 2_000, 8));
        let places = a
            .iter()
            .filter(|r| matches!(r, Request::PlaceEdge { .. }))
            .count();
        assert!((100..300).contains(&places), "{places} placements");
        assert!(a
            .iter()
            .all(|r| !matches!(r, Request::PlaceEdge { u, v } if u == v)));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut samples: Vec<u64> = (1..=100).map(|x| x * 1000).collect();
        assert_eq!(percentile_us(&mut samples, 50.0), 50.0);
        assert_eq!(percentile_us(&mut samples, 99.0), 99.0);
        assert_eq!(percentile_us(&mut [], 50.0), 0.0);
    }
}
