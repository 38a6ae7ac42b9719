//! Bounded TCP front-end for [`PartitionService`].
//!
//! Architecture: one acceptor thread pushes fresh connections into a
//! bounded queue; a fixed pool of worker threads pops connections and
//! runs each to completion (one in-flight request per connection,
//! pipelined frames are handled in arrival order). When the queue is
//! full the acceptor replies [`ErrorCode::Overloaded`] and closes — the
//! server never buffers beyond its configured bounds, so a saturating
//! client burst costs O(queue) memory, not O(burst).
//!
//! Graceful drain: a [`Request::Shutdown`] (or
//! [`ServerHandle::shutdown`]) flips the draining flag, stops the
//! acceptor, shuts down the read half of every registered connection so
//! blocked workers wake, and replies [`ErrorCode::Draining`] to
//! connections still waiting in the queue. Workers finish the request
//! they are on — no reply is abandoned mid-write.
//!
//! The server keeps no counters of its own: it increments the service's
//! `requests`, `overloads`, `drained` and `protocol_errors`, so a
//! [`Request::Stats`] reply and [`ServerHandle::stats`] are both just
//! [`PartitionService::stats`].

use std::collections::VecDeque;
use std::io::BufWriter;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use tlp_obs::counter;

use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, ErrorCode, ProtocolError, Request,
    Response, ServeStats,
};
use crate::service::{tick, PartitionService};

/// Tunables for the TCP front-end.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Bounded pending-connection queue; beyond this, connections are
    /// refused with [`ErrorCode::Overloaded`].
    pub queue_depth: usize,
    /// Per-read socket timeout — a safety net so a dead peer cannot pin
    /// a worker forever. Idle timeouts close the connection.
    pub read_timeout: Duration,
    /// Write timeout on refusal frames, so a peer that never reads cannot
    /// stall the acceptor.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_millis(200),
        }
    }
}

/// Queue + drain coordination shared by acceptor and workers.
struct Shared {
    service: PartitionService,
    queue: Mutex<QueueState>,
    wake: Condvar,
    config: ServerConfig,
}

struct QueueState {
    pending: VecDeque<TcpStream>,
    /// Read-half clones of live connections, shut down on drain so
    /// blocked workers wake immediately.
    live: Vec<TcpStream>,
    draining: bool,
    /// Workers currently inside `serve_connection`.
    busy: usize,
}

/// A running server: owns the listener address and the thread handles.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot of the service behind the server.
    pub fn stats(&self) -> ServeStats {
        self.shared.service.stats()
    }

    /// Triggers a drain (idempotent) and waits for every thread to exit.
    pub fn shutdown(mut self) {
        begin_drain(&self.shared, self.addr);
        self.join_threads();
    }

    /// Waits for the server to finish draining after a client-initiated
    /// [`Request::Shutdown`].
    pub fn wait(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        begin_drain(&self.shared, self.addr);
        self.join_threads();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
/// the acceptor + worker pool around `service`.
///
/// # Errors
///
/// [`std::io::Error`] if the listener cannot bind.
pub fn serve(
    service: PartitionService,
    addr: &str,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        service,
        queue: Mutex::new(QueueState {
            pending: VecDeque::new(),
            live: Vec::new(),
            draining: false,
            busy: 0,
        }),
        wake: Condvar::new(),
        config: config.clone(),
    });

    let workers = (0..config.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };

    Ok(ServerHandle {
        shared,
        addr: local_addr,
        acceptor: Some(acceptor),
        workers,
    })
}

/// Flips the draining flag and wakes everything that might be blocked:
/// queued workers (condvar), mid-read workers (socket shutdown), and the
/// acceptor itself (a throwaway self-connection unblocks `accept`).
fn begin_drain(shared: &Shared, addr: SocketAddr) {
    {
        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.draining {
            return;
        }
        queue.draining = true;
        for live in queue.live.drain(..) {
            let _ = live.shutdown(Shutdown::Read);
        }
    }
    shared.wake.notify_all();
    // Unblock a parked accept() so the acceptor observes the flag.
    let _ = TcpStream::connect(addr);
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.draining {
            drop(queue);
            refuse(stream, ErrorCode::Draining, shared.config.write_timeout);
            tick(&shared.service.counters().drained);
            return;
        }
        if queue.pending.len() >= shared.config.queue_depth {
            drop(queue);
            tick(&shared.service.counters().overloads);
            refuse(stream, ErrorCode::Overloaded, shared.config.write_timeout);
            continue;
        }
        queue.pending.push_back(stream);
        drop(queue);
        shared.wake.notify_one();
    }
}

/// Applies a socket option best-effort; failures are survivable (the
/// request path still works, just without the tuning) but no longer
/// silent — they tick `serve.sock_opt_failed`.
fn apply_sock_opt(result: std::io::Result<()>) {
    if result.is_err() {
        counter("serve.sock_opt_failed", 1);
    }
}

/// Best-effort typed refusal: one error frame, then close. Never blocks
/// the acceptor past the configured write timeout (tiny write into the
/// socket buffer).
fn refuse(stream: TcpStream, code: ErrorCode, write_timeout: Duration) {
    apply_sock_opt(stream.set_write_timeout(Some(write_timeout)));
    let mut writer = BufWriter::new(&stream);
    let _ = write_frame(&mut writer, &encode_response(&Response::Error(code)));
    let _ = stream.shutdown(Shutdown::Both);
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if queue.draining {
                    // Refuse everything still waiting, then retire.
                    let leftovers: Vec<TcpStream> = queue.pending.drain(..).collect();
                    drop(queue);
                    for stream in leftovers {
                        refuse(stream, ErrorCode::Draining, shared.config.write_timeout);
                        tick(&shared.service.counters().drained);
                    }
                    return;
                }
                if let Some(stream) = queue.pending.pop_front() {
                    queue.busy += 1;
                    if let Ok(clone) = stream.try_clone() {
                        queue.live.push(clone);
                    }
                    break stream;
                }
                queue = shared.wake.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        serve_connection(shared, &stream);
        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.busy -= 1;
        // Forget the read-half clone of a finished connection.
        if let Ok(addr) = stream.peer_addr() {
            queue.live.retain(|s| s.peer_addr().ok() != Some(addr));
        }
    }
}

/// Runs one connection to completion: frames in, frames out, in order.
fn serve_connection(shared: &Shared, stream: &TcpStream) {
    let counters = shared.service.counters();
    apply_sock_opt(stream.set_read_timeout(Some(shared.config.read_timeout)));
    apply_sock_opt(stream.set_nodelay(true));
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        let body = match read_frame(&mut reader) {
            Ok(Some(body)) => body,
            // Clean EOF between frames, idle timeout, or drain-triggered
            // read shutdown: close quietly.
            Ok(None) => return,
            Err(ProtocolError::Io(_)) => return,
            Err(_) => {
                tick(&counters.protocol_errors);
                let reply = encode_response(&Response::Error(ErrorCode::BadRequest));
                let _ = write_frame(&mut writer, &reply);
                return;
            }
        };
        tick(&counters.requests);
        let response = match decode_request(&body) {
            Err(_) => {
                tick(&counters.protocol_errors);
                Response::Error(ErrorCode::BadRequest)
            }
            Ok(Request::Health) => {
                let mut report = shared.service.health();
                report.draining = {
                    let queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                    queue.draining
                };
                Response::HealthReport(report)
            }
            Ok(Request::Shutdown) => {
                let _ = write_frame(&mut writer, &encode_response(&Response::ShuttingDown));
                begin_drain(
                    shared,
                    stream
                        .local_addr()
                        .unwrap_or_else(|_| SocketAddr::from(([127, 0, 0, 1], 0))),
                );
                return;
            }
            Ok(request) => {
                let draining = {
                    let queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                    queue.draining
                };
                if draining && matches!(request, Request::PlaceEdge { .. }) {
                    tick(&counters.drained);
                    Response::Error(ErrorCode::Draining)
                } else {
                    shared.service.handle(&request)
                }
            }
        };
        if write_frame(&mut writer, &encode_response(&response)).is_err() {
            return;
        }
    }
}
