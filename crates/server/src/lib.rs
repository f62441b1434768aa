//! # dpmg-server
//!
//! Network-facing multi-tenant query API over the epoch-driven DP
//! service — the socket in front of
//! [`DpmgService`](dpmg_service::DpmgService) /
//! [`DurableService`](dpmg_service::DurableService) that turns the
//! in-process query layer into something "heavy traffic from millions of
//! users" can actually reach.
//!
//! Kept inside the workspace's vendoring discipline: a hand-rolled
//! HTTP/1.1 framing layer over `std::net::TcpListener`, a fixed worker
//! pool, and a minimal JSON codec — no crates.io dependencies.
//!
//! ## Endpoints
//!
//! | route              | method | answer                                     |
//! |--------------------|--------|--------------------------------------------|
//! | `/topk?n=`         | GET    | top-`n` released keys with estimates; in windowed mode `?window=N` asserts the expected window width (400 on mismatch) |
//! | `/point/{key}`     | GET    | cumulative released estimate of one key (window-scoped in windowed mode) |
//! | `/window`          | GET    | epoch composition mode + window width      |
//! | `/epoch`           | GET    | released-epoch clock + released key count  |
//! | `/budget[?tenant=]`| GET    | remaining `(ε, δ)` — global or per tenant  |
//! | `/ingest`          | POST   | batched ingestion (`{"items": [..]}`)      |
//! | `/epoch/end`       | POST   | release the open epoch                     |
//! | `/healthz`         | GET    | liveness (lock-free)                       |
//! | `/metrics`         | GET    | plain-text counters and latency quantiles  |
//!
//! Reads are lock-free: each connection owns a
//! [`QueryHandle`](dpmg_service::QueryHandle) over the service's snapshot
//! chain, kept at the newest snapshot so it never pins superseded ones.
//! Mutations serialize through one `std::sync::Mutex`, whose poisoning
//! maps to `503`.
//!
//! ## Tenants
//!
//! A `?tenant=` parameter (or `x-dpmg-tenant` header) scopes budget
//! accounting: each tenant gets its own
//! [`Accountant`](dpmg_noise::accounting::Accountant) with the configured
//! per-tenant budget, charged per explicit `/epoch/end`. An exhausted
//! tenant receives `429` *before* the service spends anything globally,
//! so it cannot starve other tenants; the service's own accountant
//! remains the outer guard across all tenants.
//!
//! ```no_run
//! use dpmg_core::mechanism::GshmMechanism;
//! use dpmg_noise::accounting::PrivacyParams;
//! use dpmg_server::{AppState, Server, ServerConfig, ServiceBackend};
//! use dpmg_service::{DpmgService, ServiceConfig};
//!
//! let per_epoch = PrivacyParams::new(0.5, 1e-8).unwrap();
//! let service = DpmgService::<u64>::new(
//!     ServiceConfig::new(2, 64),
//!     Box::new(GshmMechanism::new(per_epoch).unwrap()),
//!     PrivacyParams::new(8.0, 1e-6).unwrap(),
//!     42,
//! )
//! .unwrap();
//! let state = AppState::new(
//!     ServiceBackend::InMemory(service),
//!     per_epoch,
//!     PrivacyParams::new(2.0, 1e-7).unwrap(),
//! );
//! let server = Server::start(ServerConfig::default(), state).unwrap();
//! println!("listening on http://{}", server.addr());
//! ```

#![forbid(unsafe_code)]

pub mod api_types;
pub mod handlers;
pub mod http;
pub mod metrics;
pub mod state;
pub mod tenant;

pub use http::{HttpError, Request, Response};
pub use state::{AppState, ServiceBackend};
pub use tenant::TenantRegistry;

use crate::http::{is_timeout, read_request_within};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a request that has begun may keep pausing, from the first read
/// of it that times out. A client may pause mid-request for longer than
/// [`ServerConfig::poll_interval`]; one that has not finished by this
/// deadline gets 400 and a closed connection.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Fixed handler-thread count.
    pub threads: usize,
    /// `POST` body cap in bytes; larger declared bodies get `413`.
    pub max_body_bytes: usize,
    /// Poll granularity for idle keep-alive connections and for requests
    /// whose bytes pause: bounds shutdown latency. A paused request is
    /// waited on for up to 2 s from its first pause, then refused with 400.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            max_body_bytes: 1 << 20,
            poll_interval: Duration::from_millis(100),
        }
    }
}

impl ServerConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the handler-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the request-body cap.
    pub fn with_max_body_bytes(mut self, bytes: usize) -> Self {
        self.max_body_bytes = bytes;
        self
    }
}

/// A running server: an acceptor thread feeding a fixed worker pool.
///
/// Dropping the server shuts it down and joins every thread; the wrapped
/// service state (and with it, a durable backend's `Drop` flush) is
/// released once the last worker exits.
pub struct Server {
    addr: SocketAddr,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts the acceptor plus
    /// `config.threads` workers.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn start(config: ServerConfig, state: AppState) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(state);
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = channel();
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(config.threads);
        for _ in 0..config.threads {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            let config = config.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(&rx, &state, &shutdown, &config);
            }));
        }

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if shutdown.load(Ordering::SeqCst) {
                            return; // tx drops; workers drain and exit
                        }
                        if tx.send(stream).is_err() {
                            return;
                        }
                    }
                    Err(_) => {
                        if shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                }
            })
        };

        Ok(Self {
            addr,
            state,
            shutdown,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (metrics, tenants).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Stops accepting, drains the workers, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept() with one throwaway
        // connection; it observes the flag and exits, dropping the
        // channel sender so the workers drain out.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    state: &AppState,
    shutdown: &AtomicBool,
    config: &ServerConfig,
) {
    loop {
        let stream = {
            let rx = rx.lock().expect("connection queue poisoned");
            rx.recv()
        };
        match stream {
            Ok(stream) => serve_connection(stream, state, shutdown, config),
            Err(_) => return, // acceptor gone: shutdown
        }
    }
}

/// Serves one (keep-alive) connection until close, error, or shutdown.
///
/// The connection owns one lock-free read handle. The snapshot chain links
/// forward, so a handle keeps every snapshot published after its position
/// alive: it is moved to the newest snapshot after every request and every
/// idle poll, and dropped with the connection, so a worker waiting for a
/// connection pins nothing.
fn serve_connection(
    stream: TcpStream,
    state: &AppState,
    shutdown: &AtomicBool,
    config: &ServerConfig,
) {
    if stream.set_read_timeout(Some(config.poll_interval)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let Ok(reader_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_half);
    let mut writer = stream;
    let mut handle = state.connection_handle();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stop = || shutdown.load(Ordering::SeqCst);
        match read_request_within(&mut reader, config.max_body_bytes, REQUEST_DEADLINE, &stop) {
            Ok(None) => return, // peer closed cleanly
            Ok(Some(req)) => {
                let started = Instant::now();
                let close = req.wants_close();
                let response = handlers::handle(state, &mut handle, &req);
                state
                    .metrics
                    .record(response.status, started.elapsed().as_micros() as u64);
                handle.snapshot(); // past anything this request released
                if response.write_to(&mut writer, close).is_err() || close {
                    return;
                }
            }
            // A timeout before the first request byte is an idle
            // keep-alive connection: catch up with releases served on other
            // connections, poll the shutdown flag and wait on.
            Err(HttpError::Io(e)) if is_timeout(&e) => {
                handle.snapshot();
            }
            Err(HttpError::Io(_)) => return,
            Err(e) => {
                let (status, message) = match &e {
                    HttpError::BodyTooLarge { .. } => (413, e.to_string()),
                    HttpError::Unsupported(_) => (501, e.to_string()),
                    _ => (400, e.to_string()),
                };
                state.metrics.record(status, 0);
                let response = Response::json(status, api_types::error_body(status, &message));
                // Framing is broken or not implemented; close after reporting.
                let _ = response.write_to(&mut writer, true);
                return;
            }
        }
    }
}
