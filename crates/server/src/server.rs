//! The CROSNET1 TCP front-end: accept loop, per-connection handlers,
//! admission control, deadlines, and graceful drain.
//!
//! One [`Server`] owns a listening socket and a shared [`SesqlEngine`].
//! Each accepted connection gets its own thread (the *I/O* thread-per-
//! connection model); execution concurrency is bounded separately by the
//! [`AdmissionGate`] — a connection thread executes its own query while
//! holding a gate permit, so the "bounded worker pool" is the set of
//! connection threads currently holding permits. This keeps results
//! streaming on the thread that owns the socket, and makes *client
//! disconnect frees the slot* automatic: a failed write unwinds the
//! handler, dropping the permit and the session.
//!
//! Robustness properties, each exercised by `cargo xtask chaos`:
//!
//! - **Backpressure**: past `max_active` running + `queue_depth` waiting
//!   queries, new queries are shed with a typed `BUSY` — never
//!   accept-then-hang.
//! - **Deadlines**: every query gets a [`CancelToken`]; queue time and
//!   execution time both count. Expiry surfaces as a typed
//!   `DEADLINE_EXCEEDED` mid-stream.
//! - **Slowloris / idle defense**: a frame must complete within
//!   `read_timeout` of its first byte; a connection with no traffic for
//!   `idle_timeout` is closed.
//! - **Frame/row budgets**: oversized frames are rejected before
//!   allocation; results are capped at `row_budget` rows with a typed
//!   error.
//! - **Graceful drain**: [`ServerHandle::shutdown`] stops accepting,
//!   lets in-flight queries finish for `drain_timeout`, then cancels
//!   their tokens cooperatively.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crosse_core::session::{Lang, Rows, Session, Statement};
use crosse_core::sqm::SesqlEngine;
use crosse_exec::CancelToken;
use crosse_relational::Params;
use parking_lot::Mutex;

use crate::admit::{AdmissionGate, AdmitError};
use crate::frame::{write_frame, ProtocolError, MAGIC};
use crate::proto::{params_of, ErrorCode, Request, Response, RowBatchFrame};
use crate::stats::ServerStats;

/// Server identity sent in `HELLO_OK`.
const SERVER_IDENT: &str = concat!("crosse-server/", env!("CARGO_PKG_VERSION"));

/// Rows per `ROW_BATCH` frame.
const BATCH_ROWS: usize = 256;

/// Tuning knobs; the [`Default`] is sized for tests and small deployments.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Maximum simultaneously open connections; beyond it new connections
    /// are greeted and immediately refused with a typed `BUSY`.
    pub max_conns: usize,
    /// Queries allowed to execute concurrently.
    pub max_active: usize,
    /// Queries allowed to wait for a slot before shedding starts.
    pub queue_depth: usize,
    /// Deadline applied when a query frame carries none (0 = unlimited).
    pub default_deadline_ms: u32,
    /// Ceiling on client-requested deadlines (0 = no ceiling).
    pub max_deadline_ms: u32,
    /// A started frame must complete within this (slowloris defense).
    pub read_timeout: Duration,
    /// A connection with no traffic for this long is closed.
    pub idle_timeout: Duration,
    /// Per-connection frame payload limit.
    pub max_frame_len: u32,
    /// Maximum result rows streamed per query before a typed error.
    pub row_budget: u64,
    /// How long shutdown waits for in-flight queries before cancelling.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_conns: 64,
            max_active: 4,
            queue_depth: 16,
            default_deadline_ms: 30_000,
            max_deadline_ms: 300_000,
            read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
            max_frame_len: 1024 * 1024,
            row_budget: 1_000_000,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// State shared by the acceptor, every connection thread, and the handle.
struct Shared {
    engine: SesqlEngine,
    config: ServerConfig,
    gate: AdmissionGate,
    stats: ServerStats,
    shutdown: AtomicBool,
    /// Cancel tokens of queries executing right now, keyed by connection
    /// id — shutdown cancels them after the drain grace period.
    active_tokens: Mutex<HashMap<u64, CancelToken>>,
    next_conn_id: AtomicU64,
}

impl Shared {
    fn new(engine: SesqlEngine, config: ServerConfig) -> Self {
        Shared {
            gate: AdmissionGate::new(config.max_active, config.queue_depth),
            stats: ServerStats::new(),
            shutdown: AtomicBool::new(false),
            active_tokens: Mutex::new_labeled("server.active_tokens", HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            engine,
            config,
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct Server;

pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `engine` on `config.addr`. Returns once the
    /// listener is live (the accept loop runs on a background thread).
    pub fn start(engine: SesqlEngine, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(engine, config));
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("crosse-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(ServerHandle { addr, shared, accept_thread: Some(accept_thread) })
    }
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot, identical to the wire `STATS` reply.
    pub fn stats(&self) -> Vec<(String, u64)> {
        let (active, queued) = self.shared.gate.depth();
        self.shared.stats.snapshot(active, queued)
    }

    /// Drain-then-stop: stop accepting, wait up to `drain_timeout` for
    /// in-flight queries, then cancel their tokens cooperatively and wait
    /// for the connection threads to unwind. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        while Instant::now() < deadline {
            let (active, _) = self.shared.gate.depth();
            if active == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Grace period over: cancel whatever is still running. The tokens
        // are polled at batch boundaries, so the queries stop promptly
        // with typed `Cancelled` errors.
        for (_, token) in self.shared.active_tokens.lock().iter() {
            token.cancel();
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Wait briefly for connection threads to observe shutdown/cancel
        // and unwind (they poll at ≤100ms granularity).
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            if self.shared.stats.active_conns.load(Ordering::Relaxed) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                ServerStats::bump(&shared.stats.accepted_conns);
                let open = shared.stats.active_conns.fetch_add(1, Ordering::Relaxed) + 1;
                let conn_shared = Arc::clone(&shared);
                let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                let over_capacity = open as usize > shared.config.max_conns;
                let spawned = std::thread::Builder::new()
                    .name(format!("crosse-conn-{conn_id}"))
                    .spawn(move || {
                        if over_capacity {
                            ServerStats::bump(&conn_shared.stats.rejected_conns);
                            refuse_over_capacity(stream);
                        } else {
                            handle_conn(stream, &conn_shared, conn_id);
                        }
                        conn_shared.stats.active_conns.fetch_sub(1, Ordering::Relaxed);
                    });
                if spawned.is_err() {
                    // Thread spawn failed (resource exhaustion): undo the
                    // connection count and drop the socket.
                    shared.stats.active_conns.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // Transient accept error (e.g. aborted connection): retry.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Greet an over-capacity connection with a typed `BUSY` and close it —
/// refusal must be as protocol-shaped as acceptance.
fn refuse_over_capacity(mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut magic = [0u8; 8];
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    if stream.read_exact(&mut magic).is_err() || &magic != MAGIC {
        return;
    }
    if stream.write_all(MAGIC).is_err() {
        return;
    }
    let rsp = Response::Error {
        code: ErrorCode::Busy,
        message: "server at connection capacity".into(),
    };
    let _ = write_frame(&mut stream, &mut rsp.frame());
}

/// How one attempt to receive a frame ended.
enum Recv {
    Frame(Vec<u8>),
    /// Clean close between frames.
    Eof,
    /// Server draining; the handler says goodbye.
    ShuttingDown,
    /// No traffic for `idle_timeout`.
    Idle,
    /// A frame started but did not complete within `read_timeout`.
    SlowFrame,
    /// The length prefix itself was invalid (stream is unsyncable).
    Malformed(ProtocolError),
    /// Transport error.
    Io,
}

/// Incrementally receive one frame. The socket has a 100ms read timeout,
/// so the loop can observe shutdown, idle, and slow-frame conditions
/// without losing partially read bytes (unlike `read_exact`).
fn recv_frame(stream: &mut TcpStream, shared: &Shared) -> Recv {
    let idle_since = Instant::now();
    let mut len_buf = [0u8; 4];
    let mut have = 0usize;
    let mut payload: Vec<u8> = Vec::new();
    let mut in_payload = false;
    let mut frame_started: Option<Instant> = None;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Recv::ShuttingDown;
        }
        match frame_started {
            Some(t0) => {
                if t0.elapsed() > shared.config.read_timeout {
                    return Recv::SlowFrame;
                }
            }
            None => {
                if idle_since.elapsed() > shared.config.idle_timeout {
                    return Recv::Idle;
                }
            }
        }
        let res = if in_payload {
            stream.read(&mut payload[have..])
        } else {
            stream.read(&mut len_buf[have..])
        };
        match res {
            Ok(0) => {
                return if !in_payload && have == 0 { Recv::Eof } else { Recv::Io };
            }
            Ok(n) => {
                if frame_started.is_none() {
                    frame_started = Some(Instant::now());
                }
                have += n;
                if !in_payload && have == 4 {
                    let len = u32::from_le_bytes(len_buf);
                    if len == 0 {
                        return Recv::Malformed(ProtocolError::EmptyFrame);
                    }
                    let max =
                        shared.config.max_frame_len.min(crate::frame::ABSOLUTE_MAX_FRAME);
                    if len > max {
                        return Recv::Malformed(ProtocolError::FrameTooLarge { len, max });
                    }
                    payload = vec![0u8; len as usize];
                    have = 0;
                    in_payload = true;
                } else if in_payload && have == payload.len() {
                    return Recv::Frame(payload);
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => return Recv::Io,
        }
    }
}

/// Send a response frame; `false` means the peer is gone (socket writes
/// are a tracked blocking region — no engine lock may be held here).
fn send(stream: &mut impl Write, rsp: &Response) -> bool {
    parking_lot::tracking::blocking_region("server.socket.write");
    write_frame(stream, &mut rsp.frame()).is_ok()
}

/// Send a row batch as one frame and empty it (see [`send`]).
fn send_batch(stream: &mut impl Write, batch: &mut RowBatchFrame) -> bool {
    parking_lot::tracking::blocking_region("server.socket.write");
    batch.write_to(stream).is_ok()
}

fn send_error(stream: &mut impl Write, code: ErrorCode, message: impl Into<String>) -> bool {
    send(stream, &Response::Error { code, message: message.into() })
}

fn handle_conn(mut stream: TcpStream, shared: &Shared, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));

    // Handshake: the peer's first 8 bytes must be the magic. Anything
    // else is not our protocol — close without a reply (we cannot assume
    // the peer understands frames).
    let mut magic = [0u8; 8];
    let start = Instant::now();
    let mut have = 0;
    while have < 8 {
        if shared.shutdown.load(Ordering::SeqCst)
            || start.elapsed() > shared.config.read_timeout
        {
            return;
        }
        match stream.read(&mut magic[have..]) {
            Ok(0) => return,
            Ok(n) => have += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
    if &magic != MAGIC {
        ServerStats::bump(&shared.stats.protocol_errors);
        return;
    }
    {
        parking_lot::tracking::blocking_region("server.socket.write");
        if stream.write_all(MAGIC).is_err() {
            return;
        }
    }

    let mut session: Option<Session> = None;
    // Client-named prepared statements.
    let mut prepared: HashMap<String, Statement> = HashMap::new();

    loop {
        let payload = match recv_frame(&mut stream, shared) {
            Recv::Frame(p) => p,
            Recv::Eof | Recv::Io | Recv::Idle => return,
            Recv::ShuttingDown => {
                let _ = send_error(
                    &mut stream,
                    ErrorCode::ShuttingDown,
                    "server is shutting down",
                );
                return;
            }
            Recv::SlowFrame => {
                ServerStats::bump(&shared.stats.protocol_errors);
                let _ = send_error(
                    &mut stream,
                    ErrorCode::Protocol,
                    "frame not completed within the read timeout",
                );
                return;
            }
            Recv::Malformed(e) => {
                ServerStats::bump(&shared.stats.protocol_errors);
                let code = match e {
                    ProtocolError::FrameTooLarge { .. } => ErrorCode::TooLarge,
                    _ => ErrorCode::Protocol,
                };
                // The stream cannot be re-synchronised after a bad length
                // prefix; answer typed, then close.
                let _ = send_error(&mut stream, code, e.to_string());
                return;
            }
        };
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                // Frame boundaries are intact (the whole frame was read),
                // so a semantically malformed frame is answered typed and
                // the connection keeps serving.
                ServerStats::bump(&shared.stats.protocol_errors);
                if !send_error(&mut stream, ErrorCode::Protocol, e.to_string()) {
                    return;
                }
                continue;
            }
        };

        match request {
            Request::Hello { user } => {
                let reply = match Session::login(&shared.engine, &user) {
                    Ok(s) => {
                        session = Some(s);
                        Response::HelloOk { server: SERVER_IDENT.into() }
                    }
                    Err(e) => Response::Error { code: ErrorCode::Query, message: e.to_string() },
                };
                if !send(&mut stream, &reply) {
                    return;
                }
            }
            Request::Ping => {
                if !send(&mut stream, &Response::Pong) {
                    return;
                }
            }
            Request::Stats => {
                let (active, queued) = shared.gate.depth();
                let entries = shared.stats.snapshot(active, queued);
                if !send(&mut stream, &Response::StatsReply { entries }) {
                    return;
                }
            }
            Request::Close => {
                let _ = send(&mut stream, &Response::Pong);
                return;
            }
            other => {
                let Some(sess) = session.as_ref() else {
                    if !send_error(
                        &mut stream,
                        ErrorCode::Protocol,
                        "expected HELLO before queries",
                    ) {
                        return;
                    }
                    continue;
                };
                let keep_going = match other {
                    Request::Query { lang, deadline_ms, text } => {
                        run_query(&mut stream, shared, conn_id, deadline_ms, || {
                            sess.prepare(lang, &text)?.execute(&Params::new())
                        })
                    }
                    Request::Execute { name, deadline_ms, params } => match prepared.get(&name) {
                        Some(stmt) => run_query(&mut stream, shared, conn_id, deadline_ms, || {
                            stmt.execute(&params_of(&params))
                        }),
                        None => send_error(
                            &mut stream,
                            ErrorCode::Query,
                            format!("no prepared statement named `{name}`"),
                        ),
                    },
                    Request::Prepare { lang, name, text } => match sess.prepare(lang, &text) {
                        Ok(stmt) => {
                            let params = stmt.param_slots().len() as u16;
                            prepared.insert(name.clone(), stmt);
                            send(&mut stream, &Response::PreparedOk { name, params })
                        }
                        Err(e) => send_error(&mut stream, ErrorCode::Query, e.to_string()),
                    },
                    Request::Explain { text } => match sess.explain(Lang::Sesql, &text) {
                        Ok(t) => send(&mut stream, &Response::Text { text: t }),
                        Err(e) => send_error(&mut stream, ErrorCode::Query, e.to_string()),
                    },
                    Request::Lint { text } => match sess.lint(Lang::Sesql, &text) {
                        Ok(diags) => {
                            let rendered = diags
                                .iter()
                                .map(|d| d.to_string())
                                .collect::<Vec<_>>()
                                .join("\n");
                            send(&mut stream, &Response::Text { text: rendered })
                        }
                        Err(e) => send_error(&mut stream, ErrorCode::Query, e.to_string()),
                    },
                    // Hello/Ping/Stats/Close handled above.
                    _ => true,
                };
                if !keep_going {
                    return;
                }
            }
        }
    }
}

/// Clamp/choose the effective deadline for a query frame.
fn effective_deadline(shared: &Shared, requested_ms: u32) -> Option<Duration> {
    let max = shared.config.max_deadline_ms;
    let ms = match (requested_ms, shared.config.default_deadline_ms) {
        (0, 0) => return None,
        (0, d) => d,
        (r, _) if max > 0 => r.min(max),
        (r, _) => r,
    };
    Some(Duration::from_millis(u64::from(ms)))
}

/// Admission → execution → streaming for one query, whether a `QUERY`
/// (`open` prepares the text) or an `EXECUTE` (`open` binds a held
/// statement). `open` runs after admission under the query's token, so
/// its failures — an enriched statement runs its pipeline when the cursor
/// opens — are reported by their own code. Returns `false` when the
/// connection should close (peer gone).
fn run_query(
    stream: &mut TcpStream,
    shared: &Shared,
    conn_id: u64,
    deadline_ms: u32,
    open: impl FnOnce() -> crosse_core::Result<Box<dyn Rows>>,
) -> bool {
    if shared.shutdown.load(Ordering::SeqCst) {
        return send_error(stream, ErrorCode::ShuttingDown, "server is shutting down");
    }
    let token = match effective_deadline(shared, deadline_ms) {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::new(),
    };
    let t0 = Instant::now();
    // Queue time counts against the deadline: enter() polls the token.
    let permit = match shared.gate.enter(&token) {
        Ok(p) => p,
        Err(AdmitError::Busy { active, queued }) => {
            ServerStats::bump(&shared.stats.shed);
            return send_error(
                stream,
                ErrorCode::Busy,
                format!("server busy: {active} active, {queued} queued"),
            );
        }
        Err(AdmitError::Interrupted(i)) => {
            ServerStats::bump(&shared.stats.deadline_exceeded);
            return send_error(
                stream,
                interrupt_code(i),
                format!("{i} while waiting for an execution slot"),
            );
        }
    };
    ServerStats::bump(&shared.stats.accepted_queries);
    shared.active_tokens.lock().insert(conn_id, token.clone());

    let keep_going = {
        // The ambient token reaches every layer — relational cursors, SQM
        // pipeline phases, SPARQL legs — without explicit plumbing.
        let _ambient = token.make_current();
        match open() {
            Ok(cursor) => stream_cursor(stream, shared, cursor),
            Err(e) => report_engine_error(stream, shared, &e),
        }
    };

    shared.active_tokens.lock().remove(&conn_id);
    drop(permit);
    shared.stats.record_latency_us(t0.elapsed().as_micros() as u64);
    if !keep_going {
        // Peer gone mid-stream: make sure nothing lingers on this token
        // (defensive — the cursor died with the handler's stack).
        token.cancel();
    }
    keep_going
}

fn interrupt_code(i: crosse_exec::Interrupt) -> ErrorCode {
    match i {
        crosse_exec::Interrupt::Cancelled => ErrorCode::Cancelled,
        crosse_exec::Interrupt::DeadlineExceeded => ErrorCode::DeadlineExceeded,
    }
}

/// Map an engine error to its wire code and record it in the stats.
fn report_engine_error(
    stream: &mut impl Write,
    shared: &Shared,
    e: &crosse_core::error::Error,
) -> bool {
    match e.as_interrupt() {
        Some(i) => {
            match i {
                crosse_exec::Interrupt::Cancelled => {
                    ServerStats::bump(&shared.stats.cancelled)
                }
                crosse_exec::Interrupt::DeadlineExceeded => {
                    ServerStats::bump(&shared.stats.deadline_exceeded)
                }
            }
            send_error(stream, interrupt_code(i), e.to_string())
        }
        None => {
            ServerStats::bump(&shared.stats.query_errors);
            send_error(stream, ErrorCode::Query, e.to_string())
        }
    }
}

fn send_done(stream: &mut impl Write, rows: u64, rows_scanned: u64, t0: Instant) -> bool {
    send(
        stream,
        &Response::Done {
            rows,
            rows_scanned,
            elapsed_us: t0.elapsed().as_micros() as u64,
        },
    )
}

/// Stream a cursor: `SCHEMA`, row batches, then `DONE` (or a typed error
/// mid-stream — cancellation, deadline, row budget, engine failure). A
/// write answers `DONE` with its affected-row count alone. Each row is
/// encoded into the batch frame as the cursor yields it, and each frame
/// leaves in one write.
fn stream_cursor(stream: &mut impl Write, shared: &Shared, mut cursor: Box<dyn Rows>) -> bool {
    let t0 = Instant::now();
    if let Some(n) = cursor.affected() {
        ServerStats::bump(&shared.stats.completed);
        return send_done(stream, n, u64::MAX, t0);
    }
    if !send(stream, &Response::Schema { columns: cursor.columns() }) {
        return false;
    }
    let mut sent: u64 = 0;
    let mut batch = RowBatchFrame::new();
    loop {
        match cursor.next_row() {
            Some(Ok(row)) => {
                batch.push(&row);
                sent += 1;
                if sent >= shared.config.row_budget {
                    ServerStats::bump(&shared.stats.row_budget_hits);
                    if !send_batch(stream, &mut batch) {
                        return false;
                    }
                    return send_error(
                        stream,
                        ErrorCode::RowBudget,
                        format!(
                            "result exceeded the {}-row budget",
                            shared.config.row_budget
                        ),
                    );
                }
                if batch.len() >= BATCH_ROWS && !send_batch(stream, &mut batch) {
                    return false;
                }
            }
            Some(Err(e)) => {
                return report_engine_error(stream, shared, &e);
            }
            None => {
                if !batch.is_empty() && !send_batch(stream, &mut batch) {
                    return false;
                }
                ServerStats::bump(&shared.stats.completed);
                let scanned = cursor.rows_scanned().unwrap_or(u64::MAX);
                return send_done(stream, sent, scanned, t0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosse_relational::Value;
    use crosse_smartground::{standard_engine, SmartGroundConfig};

    /// A sink that counts the `write` calls reaching it.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The reference framing: a little-endian length, then the payload.
    fn framed(rsp: &Response) -> Vec<u8> {
        let payload = rsp.encode();
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&payload);
        out
    }

    #[test]
    fn streamed_result_is_one_write_per_frame_with_unchanged_bytes() {
        let engine = standard_engine(&SmartGroundConfig::tiny(), "director").unwrap();
        let db = engine.database().clone();
        db.execute("CREATE TABLE wire_t (k INT, s TEXT, f FLOAT, b BOOLEAN)").unwrap();
        let rows: Vec<Vec<Value>> = (0..300i64)
            .map(|i| {
                vec![
                    Value::Int(i - 150),
                    if i % 11 == 0 { Value::Null } else { Value::from(format!("row-{i}-é")) },
                    Value::Float(i as f64 / 8.0),
                    Value::Bool(i % 3 == 0),
                ]
            })
            .collect();
        db.catalog().get_table("wire_t").unwrap().insert_many(rows.clone()).unwrap();
        let shared = Shared::new(engine, ServerConfig::default());
        let cursor = db.query_cursor("SELECT k, s, f, b FROM wire_t").unwrap();
        let columns = crosse_core::session::Rows::columns(&cursor);

        let mut out = CountingWriter::default();
        assert!(stream_cursor(&mut out, &shared, Box::new(cursor)));

        let mut expected = framed(&Response::Schema { columns });
        expected.extend(framed(&Response::RowBatch { rows: rows[..BATCH_ROWS].to_vec() }));
        expected.extend(framed(&Response::RowBatch { rows: rows[BATCH_ROWS..].to_vec() }));
        // DONE carries the server's elapsed time; take that one field from
        // the stream and compare the rest byte for byte.
        let done = Response::decode(&out.bytes[expected.len() + 4..]).unwrap();
        let Response::Done { elapsed_us, .. } = done else { panic!("expected DONE, got {done:?}") };
        expected.extend(framed(&Response::Done { rows: 300, rows_scanned: 300, elapsed_us }));
        assert_eq!(out.bytes, expected);
        assert_eq!(out.writes, 4, "one write per frame: SCHEMA, two ROW_BATCHes, DONE");
    }
}
