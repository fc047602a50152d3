//! The TCP edge: a bounded accept/worker model over
//! `std::net::TcpListener` — no async runtime, no external crates.
//!
//! One accept thread hands each connection to its own handler thread
//! (bounded by
//! [`GatewayConfig::max_connections`](crate::GatewayConfig::max_connections);
//! connections beyond the cap receive an immediate 503 and are closed).
//! Handler threads run a keep-alive loop: read with a short timeout,
//! feed the incremental parser, dispatch complete requests to the
//! [`Gateway`], and write responses back — including pipelined requests
//! that arrive back-to-back in one segment.
//!
//! Shutdown is cooperative: [`ServerHandle::stop`] flips a flag, nudges
//! the accept loop awake with a loopback connect, stops the gateway's
//! scheduler (failing queued work explicitly), and joins the accept
//! thread. Handler threads notice the flag at their next read timeout.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ttlg_obs::{next_id, TraceContext};

use crate::gateway::Gateway;
use crate::http::{parse_request, HttpResponse};

/// An error produced at the edge, before any request was parsed. There
/// is no inbound trace context to honor, so a fresh root context and
/// request id are minted — every response path carries both headers.
fn edge_error(status: u16, message: &str) -> HttpResponse {
    HttpResponse::error(status, message)
        .with_header("x-request-id", format!("{:016x}", next_id()))
        .with_header(
            "traceparent",
            TraceContext::generate().traceparent(next_id()),
        )
}

/// How long a handler thread blocks in `read` before re-checking the
/// shutdown flag and idle deadline.
const READ_TICK: Duration = Duration::from_millis(100);

/// Running server; dropping it does NOT stop the server — call
/// [`stop`](Self::stop).
pub struct ServerHandle {
    addr: SocketAddr,
    gateway: Arc<Gateway>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (real port even when spawned on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The gateway behind this listener.
    pub fn gateway(&self) -> &Arc<Gateway> {
        &self.gateway
    }

    /// Stop accepting, shut the gateway down, and join the accept
    /// thread. Idempotent.
    pub fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop: it re-checks the flag per connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.gateway.stop();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
/// `gateway` until [`ServerHandle::stop`].
pub fn spawn(gateway: Arc<Gateway>, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));

    let accept_gw = Arc::clone(&gateway);
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_thread = std::thread::Builder::new()
        .name("ttlg-accept".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match stream {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let cap = accept_gw.config().max_connections.max(1);
                if active.load(Ordering::SeqCst) >= cap {
                    accept_gw.metrics().connection_rejected();
                    let mut s = stream;
                    let _ =
                        s.write_all(&edge_error(503, "connection limit reached").serialize(false));
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                let gw = Arc::clone(&accept_gw);
                let sd = Arc::clone(&accept_shutdown);
                let act = Arc::clone(&active);
                let spawned = std::thread::Builder::new()
                    .name("ttlg-conn".to_string())
                    .spawn(move || {
                        gw.metrics().connection_opened();
                        handle_connection(&gw, stream, &sd);
                        gw.metrics().connection_closed();
                        act.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    active.fetch_sub(1, Ordering::SeqCst);
                }
            }
        })?;

    Ok(ServerHandle {
        addr: bound,
        gateway,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

/// Keep-alive request loop for one connection.
fn handle_connection(gw: &Arc<Gateway>, mut stream: TcpStream, shutdown: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let limits = gw.config().limits;
    let idle_timeout = Duration::from_millis(gw.config().idle_timeout_ms.max(1));
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let mut last_activity = Instant::now();
    // Set when the first byte of the request currently being assembled
    // arrived; cleared once that request is dispatched.
    let mut first_byte_at: Option<Instant> = None;

    loop {
        // Drain every complete request already buffered (pipelining).
        loop {
            match parse_request(&buf, &limits) {
                Ok(Some((req, consumed))) => {
                    buf.drain(..consumed);
                    let network_ns = first_byte_at
                        .take()
                        .map(|t| t.elapsed().as_nanos() as u64)
                        .unwrap_or(0);
                    if !buf.is_empty() {
                        // More pipelined bytes already buffered: the
                        // next request's clock starts now.
                        first_byte_at = Some(Instant::now());
                    }
                    let keep_alive = req.keep_alive;
                    let resp = gw.handle(&req, network_ns);
                    if stream.write_all(&resp.serialize(keep_alive)).is_err() {
                        return;
                    }
                    if !keep_alive {
                        return;
                    }
                    last_activity = Instant::now();
                }
                Ok(None) => break,
                Err(e) => {
                    gw.metrics().parse_error();
                    let resp = edge_error(e.status, &e.message);
                    let _ = stream.write_all(&resp.serialize(false));
                    return;
                }
            }
        }

        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                if first_byte_at.is_none() {
                    first_byte_at = Some(Instant::now());
                }
                buf.extend_from_slice(&chunk[..n]);
                last_activity = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if buf.is_empty() && last_activity.elapsed() > idle_timeout {
                    return; // idle keep-alive expiry
                }
                if !buf.is_empty() && last_activity.elapsed() > idle_timeout {
                    // A half-sent request that stalled: don't hold the
                    // connection (slow-loris guard).
                    let resp = edge_error(408, "request timed out");
                    let _ = stream.write_all(&resp.serialize(false));
                    return;
                }
            }
            Err(_) => return,
        }
    }
}
