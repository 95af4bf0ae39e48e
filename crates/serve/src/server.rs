//! The server: a `TcpListener`, a small pool of acceptor/handler threads,
//! one campaign-runner thread, and a graceful drain protocol.
//!
//! One request per connection (`Connection: close`) keeps the hand-rolled
//! HTTP layer honest: no keep-alive bookkeeping, no pipelining, and a
//! handler thread is never parked on an idle socket. The runner executes
//! campaigns one at a time — the executor parallelizes *inside* a campaign
//! and owns the thread budget, so stacking campaigns would oversubscribe
//! the host.
//!
//! Drain protocol: [`Server::begin_drain`] flips the state flag, wakes the
//! runner, and unblocks every acceptor with a dummy self-connection.
//! Acceptors finish the request in hand and exit; the runner finishes the
//! queue (accepted work always completes) and exits; [`Server::wait`] joins
//! everything and returns, letting `main` exit 0.

use crate::http::{read_request, ChunkedWriter, RequestError, Response};
use crate::queue::ServeState;
use crate::routes::{route, Reply};
use dspatch_harness::{HarnessError, Json};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server configuration; every knob has a CLI flag in `dspatch-serve`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address.
    pub addr: String,
    /// Bind port; `0` picks an ephemeral port (tests).
    pub port: u16,
    /// Acceptor/handler threads.
    pub http_threads: usize,
    /// Bounded campaign queue length.
    pub queue_capacity: usize,
    /// Result-store directory (`results.jsonl` + `campaigns.jsonl`).
    pub store_dir: PathBuf,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1".to_owned(),
            port: 0,
            http_threads: 2,
            queue_capacity: 16,
            store_dir: PathBuf::from("dspatch-store"),
        }
    }
}

/// A running server.
pub struct Server {
    state: Arc<ServeState>,
    local_addr: SocketAddr,
    acceptors: Vec<JoinHandle<()>>,
    runner: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("acceptors", &self.acceptors.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds, replays recorded campaigns from the store directory, and
    /// spawns the acceptor pool and the runner.
    ///
    /// # Errors
    ///
    /// Store open failures (typed) and bind failures (as
    /// [`HarnessError::Io`]).
    pub fn start(config: &ServerConfig) -> Result<Server, HarnessError> {
        let state = ServeState::open(&config.store_dir, config.queue_capacity)?;
        let replayed = state.replay_recorded();
        if replayed > 0 {
            eprintln!("dspatch-serve: replaying {replayed} recorded campaign(s) from the store");
        }
        let bind_to = format!("{}:{}", config.addr, config.port);
        let listener = TcpListener::bind(&bind_to)
            .map_err(|error| HarnessError::io(&*bind_to, "bind", &error))?;
        let local_addr = listener
            .local_addr()
            .map_err(|error| HarnessError::io(&*bind_to, "local_addr", &error))?;
        let mut acceptors = Vec::new();
        for worker in 0..config.http_threads.max(1) {
            let listener = listener
                .try_clone()
                .map_err(|error| HarnessError::io(&*bind_to, "clone listener", &error))?;
            let state = state.clone();
            let handle = std::thread::Builder::new()
                .name(format!("serve-http-{worker}"))
                .spawn(move || accept_loop(&listener, &state))
                .map_err(|error| HarnessError::io("serve-http", "spawn", &error))?;
            acceptors.push(handle);
        }
        let runner_state = state.clone();
        let runner = std::thread::Builder::new()
            .name("serve-runner".to_owned())
            .spawn(move || runner_state.runner_loop())
            .map_err(|error| HarnessError::io("serve-runner", "spawn", &error))?;
        Ok(Server {
            state,
            local_addr,
            acceptors,
            runner: Some(runner),
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared service state.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Whether a drain has been requested (signal handler or
    /// `POST /admin/shutdown`).
    pub fn draining(&self) -> bool {
        self.state.draining()
    }

    /// Starts the graceful drain; idempotent. Acceptors stop taking
    /// connections, the runner finishes the queue.
    pub fn begin_drain(&self) {
        self.state.begin_drain();
        // Unblock every acceptor parked in accept(): each dummy connection
        // wakes exactly one.
        for _ in 0..self.acceptors.len() {
            drop(TcpStream::connect(self.local_addr));
        }
    }

    /// Joins every thread. Call after [`Server::begin_drain`]; returns when
    /// accepted work has completed and all sockets are closed.
    pub fn wait(mut self) {
        for handle in self.acceptors.drain(..) {
            drop(handle.join());
        }
        if let Some(runner) = self.runner.take() {
            drop(runner.join());
        }
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServeState>) {
    loop {
        if state.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // A drain wake-up connection carries no request;
                // handle_connection reads EOF and returns immediately.
                handle_connection(stream, state);
            }
            Err(_) => {
                if state.draining() {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    }
}

fn handle_connection(stream: TcpStream, state: &Arc<ServeState>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut write_half = stream;
    let request = match read_request(&mut reader) {
        Ok(Some(request)) => request,
        // Immediate EOF: a drain wake-up or a client that connected and
        // left. Nothing to answer.
        Ok(None) => return,
        Err(error) => {
            let (status, message) = match &error {
                RequestError::Bad(message) => (400, message.as_str()),
                RequestError::TooLarge(message) => (413, message.as_str()),
                RequestError::Io(_) => return,
            };
            let body = Json::obj([
                ("error", Json::str(message)),
                ("status", Json::num(f64::from(status))),
            ]);
            drop(Response::json(status, body.render()).write_to(&mut write_half));
            return;
        }
    };
    match route(state, &request) {
        Reply::Full(response) => {
            drop(response.write_to(&mut write_half));
        }
        Reply::Events(campaign) => {
            stream_events(&mut write_half, &campaign);
        }
    }
}

/// Streams a campaign's event feed as chunked JSON lines until the campaign
/// reaches a terminal phase and every event has been delivered.
fn stream_events(stream: &mut TcpStream, campaign: &Arc<crate::queue::Campaign>) {
    let Ok(mut writer) = ChunkedWriter::begin(stream, 200, "application/jsonl") else {
        return;
    };
    let mut cursor = 0;
    loop {
        let (events, drained) = campaign.wait_events(cursor);
        cursor += events.len();
        for event in events {
            if writer.chunk(format!("{event}\n").as_bytes()).is_err() {
                // Client went away; stop streaming.
                return;
            }
        }
        if drained {
            drop(writer.finish());
            return;
        }
    }
}

/// A decoded response: status, lower-cased headers, body (de-chunked).
pub type RawResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// A convenience used by tests and the binary: full request/response over a
/// fresh connection to `addr`.
///
/// # Errors
///
/// I/O errors talking to the server.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<RawResponse> {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr)?;
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: dspatch-serve\r\n");
    if let Some(body) = body {
        request.push_str(&format!("Content-Length: {}\r\n", body.len()));
        request.push_str("Content-Type: application/json\r\n");
    }
    request.push_str("Connection: close\r\n\r\n");
    if let Some(body) = body {
        request.push_str(body);
    }
    stream.write_all(request.as_bytes())?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_http_response(&raw)
}

/// Parses a raw HTTP/1.1 response, decoding chunked transfer encoding.
///
/// # Errors
///
/// `InvalidData` on malformed responses.
pub fn parse_http_response(raw: &[u8]) -> std::io::Result<RawResponse> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 headers"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    let mut body = raw[split + 4..].to_vec();
    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    if chunked {
        body = decode_chunked(&body).ok_or_else(|| bad("bad chunked body"))?;
    }
    Ok((status, headers, body))
}

fn decode_chunked(mut body: &[u8]) -> Option<Vec<u8>> {
    let mut decoded = Vec::new();
    loop {
        let line_end = body.windows(2).position(|w| w == b"\r\n")?;
        let size_text = std::str::from_utf8(&body[..line_end]).ok()?;
        let size = usize::from_str_radix(size_text.trim(), 16).ok()?;
        body = &body[line_end + 2..];
        if size == 0 {
            return Some(decoded);
        }
        if body.len() < size + 2 {
            return None;
        }
        decoded.extend_from_slice(&body[..size]);
        body = &body[size + 2..];
    }
}
