//! Blocking clients for the `tlp-serve` protocol.
//!
//! [`ServeClient`] is the bare one-connection client. [`RetryingClient`]
//! wraps it with a [`RetryPolicy`]: reconnect-and-retry on transport
//! failures and typed [`ErrorCode::Overloaded`]/[`ErrorCode::Draining`]
//! refusals, with decorrelated-jitter backoff from a seeded RNG so test
//! runs are deterministic. Only idempotent requests are retried — see
//! [`request_is_idempotent`] for the taxonomy.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tlp_obs::counter;

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, ErrorCode, ProtocolError, Request,
    Response,
};

/// One framed TCP connection to a `tlp-serve` server.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl ServeClient {
    /// Connects and applies a read timeout (a server drain or overload
    /// close surfaces as an error rather than a hang).
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] if the connection cannot be established.
    pub fn connect(addr: &str, read_timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ServeClient {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one request and reads its reply. An EOF where a reply was
    /// expected decodes as [`ProtocolError::Truncated`].
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`]: socket failures, undecodable replies, or a
    /// server-side close before the reply.
    pub fn request(&mut self, request: &Request) -> Result<Response, ProtocolError> {
        write_frame(&mut self.writer, &encode_request(request))?;
        match read_frame(&mut self.reader)? {
            Some(body) => decode_response(&body),
            None => Err(ProtocolError::Truncated {
                what: "response frame",
            }),
        }
    }
}

/// Whether a request may be safely re-sent when its outcome is unknown
/// (the transport failed after the request may have been applied).
///
/// * Reads (`Ping`, `VertexLookup`, `EdgeLookup`, `Neighbors`, `Stats`,
///   `Health`) — trivially idempotent.
/// * `PlaceEdge` — idempotent *by service construction*: the dedup path
///   answers a redelivered edge with the already-chosen partition
///   (`fresh: false`) instead of consulting the placer, and WAL replay
///   preserves that across a server restart.
/// * `Flush` — idempotent: it rewrites the store to the same merged
///   state; a duplicate flush is a no-op rewrite.
/// * `Shutdown` — **not** idempotent: redelivering a drain after a
///   restart would kill the replacement server.
pub fn request_is_idempotent(request: &Request) -> bool {
    !matches!(request, Request::Shutdown)
}

/// Retry tunables for [`RetryingClient`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included) before giving up.
    pub max_attempts: u32,
    /// Wall-clock budget across all attempts and backoffs.
    pub deadline: Duration,
    /// Floor of the decorrelated-jitter backoff.
    pub base_backoff: Duration,
    /// Cap of the decorrelated-jitter backoff.
    pub max_backoff: Duration,
    /// Seed for the jitter RNG — equal seeds give equal backoff
    /// sequences, which keeps chaos tests deterministic.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            deadline: Duration::from_secs(10),
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            seed: 0,
        }
    }
}

/// Decorrelated jitter: `sleep = min(cap, uniform(base, prev * 3))`.
/// Pure in `(rng state, prev)`, so backoff sequences are testable.
fn next_backoff(rng: &mut StdRng, prev: Duration, policy: &RetryPolicy) -> Duration {
    let base = policy.base_backoff.as_micros() as u64;
    let hi = (prev.as_micros() as u64).saturating_mul(3).max(base);
    let jittered = rng.gen_range(base..=hi);
    Duration::from_micros(jittered.min(policy.max_backoff.as_micros() as u64))
}

/// What the last attempt died of.
#[derive(Debug)]
pub enum AttemptError {
    /// The connection, write, read, or decode failed.
    Transport(ProtocolError),
    /// The server answered with a retryable refusal
    /// ([`ErrorCode::Overloaded`] or [`ErrorCode::Draining`]).
    Refused(ErrorCode),
}

impl std::fmt::Display for AttemptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptError::Transport(e) => write!(f, "transport error: {e}"),
            AttemptError::Refused(code) => write!(f, "refused: {code:?}"),
        }
    }
}

/// Why a [`RetryingClient`] request gave up.
#[derive(Debug)]
pub enum ClientError {
    /// The request is not idempotent, so the failed attempt was not
    /// repeated (its outcome on the server is unknown).
    NotRetryable(AttemptError),
    /// Every allowed attempt failed (or the deadline expired).
    Exhausted {
        /// Attempts actually made.
        attempts: u32,
        /// The failure from the final attempt.
        last_error: AttemptError,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::NotRetryable(e) => write!(f, "not retryable: {e}"),
            ClientError::Exhausted {
                attempts,
                last_error,
            } => write!(f, "exhausted after {attempts} attempts: {last_error}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A [`ServeClient`] that survives flaky transport: reconnects lazily,
/// retries idempotent requests under a [`RetryPolicy`], and treats
/// `Overloaded`/`Draining` refusals as retryable-after-backoff rather
/// than terminal.
pub struct RetryingClient {
    addr: String,
    read_timeout: Duration,
    policy: RetryPolicy,
    conn: Option<ServeClient>,
    rng: StdRng,
    retries: u64,
}

impl RetryingClient {
    /// Creates a client for `addr`; no connection is made until the
    /// first request (so a not-yet-listening server costs a retry, not a
    /// construction failure).
    pub fn new(addr: &str, read_timeout: Duration, policy: RetryPolicy) -> Self {
        let rng = StdRng::seed_from_u64(policy.seed);
        RetryingClient {
            addr: addr.to_string(),
            read_timeout,
            policy,
            conn: None,
            rng,
            retries: 0,
        }
    }

    /// Retries performed so far (attempts beyond the first, summed over
    /// all requests).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn attempt(&mut self, request: &Request) -> Result<Response, ProtocolError> {
        if self.conn.is_none() {
            self.conn = Some(
                ServeClient::connect(&self.addr, self.read_timeout).map_err(ProtocolError::Io)?,
            );
        }
        match self.conn.as_mut() {
            Some(conn) => conn.request(request),
            None => unreachable!("connection established above"),
        }
    }

    /// Sends `request`, retrying per the policy.
    ///
    /// Application-level answers — including terminal refusals like
    /// [`ErrorCode::NotFound`] or [`ErrorCode::Internal`] — are returned
    /// as-is; only transport failures and `Overloaded`/`Draining`
    /// refusals trigger a reconnect + backoff + retry.
    ///
    /// # Errors
    ///
    /// [`ClientError::NotRetryable`] for a failed non-idempotent request,
    /// [`ClientError::Exhausted`] when attempts or deadline run out.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let started = Instant::now();
        let mut attempts = 0u32;
        let mut backoff = self.policy.base_backoff;
        loop {
            attempts += 1;
            let last_error = match self.attempt(request) {
                Ok(Response::Error(code @ (ErrorCode::Overloaded | ErrorCode::Draining))) => {
                    // The refusal frame precedes a server-side close;
                    // the next attempt needs a fresh connection.
                    self.conn = None;
                    AttemptError::Refused(code)
                }
                Ok(response) => return Ok(response),
                Err(e) => {
                    self.conn = None;
                    AttemptError::Transport(e)
                }
            };
            if !request_is_idempotent(request) {
                return Err(ClientError::NotRetryable(last_error));
            }
            if attempts >= self.policy.max_attempts
                || started.elapsed() + backoff > self.policy.deadline
            {
                return Err(ClientError::Exhausted {
                    attempts,
                    last_error,
                });
            }
            backoff = next_backoff(&mut self.rng, backoff, &self.policy);
            std::thread::sleep(backoff);
            self.retries += 1;
            counter("serve.client.retry", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn idempotency_taxonomy() {
        assert!(request_is_idempotent(&Request::Ping));
        assert!(request_is_idempotent(&Request::VertexLookup { vertex: 1 }));
        assert!(request_is_idempotent(&Request::PlaceEdge { u: 1, v: 2 }));
        assert!(request_is_idempotent(&Request::Flush));
        assert!(request_is_idempotent(&Request::Health));
        assert!(!request_is_idempotent(&Request::Shutdown));
    }

    #[test]
    fn backoff_sequence_is_deterministic_bounded_and_jittered() {
        let policy = RetryPolicy {
            seed: 42,
            ..RetryPolicy::default()
        };
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut prev = policy.base_backoff;
            let mut seq = Vec::new();
            for _ in 0..32 {
                prev = next_backoff(&mut rng, prev, &policy);
                seq.push(prev);
            }
            seq
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed, same backoff sequence");
        for d in &a {
            assert!(*d >= policy.base_backoff, "floor respected: {d:?}");
            assert!(*d <= policy.max_backoff, "cap respected: {d:?}");
        }
        // With a 100x cap-to-base span, 32 draws landing on one value
        // would mean the jitter is broken.
        assert!(
            a.iter().collect::<std::collections::HashSet<_>>().len() > 1,
            "jitter actually varies"
        );
        let c = run(7);
        assert_ne!(a, c, "different seeds diverge");
    }
}
