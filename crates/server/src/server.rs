//! The server: TCP listener, admission control, worker pool, sessions.
//!
//! ## Threading model
//!
//! One *accept thread* pulls connections off the listener and pushes them
//! onto a bounded admission queue; `workers` *session threads* pop
//! connections and serve them to completion, one at a time. A connection
//! arriving while the queue is full is rejected immediately with a
//! `server_busy` error frame — the server never queues unboundedly and
//! never blocks the accept loop on a slow client.
//!
//! Each session owns one [`bfq::Connection`] (so `SET` state and prepared
//! statements are per-session) multiplexed onto the one shared
//! [`Engine`]. Queries execute on the engine's morsel-parallel pipelines;
//! the session thread streams result chunks back as they are produced,
//! through one reused buffer (see [`mod@crate::protocol`] for when it is
//! written out).
//!
//! ## Cancellation
//!
//! The hello frame gives each session a `(conn_id, secret)` pair. Any
//! connection may send `{"cmd":"cancel","conn_id":..,"secret":..}` —
//! out-of-band, PostgreSQL style — which trips the target session's
//! [`CancelHub`]. The in-flight query observes the token at its next
//! morsel boundary and unwinds with a `cancelled` error frame; an idle
//! target makes the cancel a no-op (`cancelled:false`). Statement
//! timeouts (`SET statement_timeout`) travel the same path and surface as
//! `cancelled` errors with a timeout message.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bfq::prelude::{BfqError, CancelHub, CancelReason, Engine, PreparedStatement, QueryStream};
use bfq_obs::Counter;
use bfq_sql::{parse_set, strip_explain, ExplainMode};
use bfq_storage::Chunk;

use crate::json::Json;
use crate::protocol::{
    encode_chunk, error_frame, error_frame_parts, type_name, Hello, Request, CODE_PROTOCOL,
    CODE_SERVER_BUSY, PROTOCOL_VERSION, WIRE_CHUNK_ROWS,
};

/// Longest request line the server accepts (bytes, newline included).
const MAX_REQUEST_BYTES: usize = 8 << 20;
/// Buffered response bytes that make the session write mid-sequence.
const FLUSH_BYTES: usize = 64 << 10;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Session worker threads — the number of concurrently-served clients.
    pub workers: usize,
    /// Accepted connections allowed to wait for a free worker. A
    /// connection arriving with the queue full is rejected
    /// (`server_busy`). 0 means "no waiting": all workers busy → reject.
    pub queue_depth: usize,
    /// How often blocked reads wake to check for shutdown.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 16,
            poll_interval: Duration::from_millis(100),
        }
    }
}

/// Server-side observability, rendered into the `metrics` command response
/// after the engine's own registry.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections handed to a session worker.
    pub connections_accepted: Counter,
    /// Connections rejected by admission control.
    pub connections_rejected: Counter,
    /// Sessions that have ended (hangup, quit, or shutdown).
    pub connections_closed: Counter,
    /// Request frames parsed and dispatched.
    pub requests: Counter,
    /// Queries (query/execute) started.
    pub queries_started: Counter,
    /// Queries finished, successfully or not.
    pub queries_finished: Counter,
    /// Queries that ended by client cancellation.
    pub queries_cancelled: Counter,
    /// Queries that ended by statement timeout.
    pub queries_timed_out: Counter,
    /// Cancel requests that actually fired a token.
    pub cancels_delivered: Counter,
}

impl ServerMetrics {
    /// Sessions currently being served.
    pub fn active_connections(&self) -> u64 {
        self.connections_accepted
            .get()
            .saturating_sub(self.connections_closed.get())
    }

    /// Queries currently executing or streaming.
    pub fn in_flight_queries(&self) -> u64 {
        self.queries_started
            .get()
            .saturating_sub(self.queries_finished.get())
    }

    fn to_prometheus_text(&self, queued_now: usize) -> String {
        let counters: &[(&str, u64)] = &[
            (
                "bfq_server_connections_accepted_total",
                self.connections_accepted.get(),
            ),
            (
                "bfq_server_connections_rejected_total",
                self.connections_rejected.get(),
            ),
            (
                "bfq_server_connections_closed_total",
                self.connections_closed.get(),
            ),
            ("bfq_server_requests_total", self.requests.get()),
            (
                "bfq_server_queries_started_total",
                self.queries_started.get(),
            ),
            (
                "bfq_server_queries_finished_total",
                self.queries_finished.get(),
            ),
            (
                "bfq_server_queries_cancelled_total",
                self.queries_cancelled.get(),
            ),
            (
                "bfq_server_queries_timed_out_total",
                self.queries_timed_out.get(),
            ),
            (
                "bfq_server_cancels_delivered_total",
                self.cancels_delivered.get(),
            ),
        ];
        let gauges: &[(&str, u64)] = &[
            ("bfq_server_active_connections", self.active_connections()),
            ("bfq_server_queued_connections", queued_now as u64),
            ("bfq_server_in_flight_queries", self.in_flight_queries()),
        ];
        let mut out = String::new();
        for (name, value) in counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        out
    }
}

/// The per-session entry the out-of-band cancel path looks up.
struct SessionEntry {
    secret: u64,
    hub: Arc<CancelHub>,
}

/// Admission state: the wait queue plus the busy-worker count, under one
/// lock so the accept thread's admit/reject decision is race-free.
#[derive(Default)]
struct QueueState {
    queue: VecDeque<TcpStream>,
    /// Workers currently serving a session.
    busy: usize,
}

/// State shared by the accept thread, the workers, and the handle.
struct Shared {
    engine: Arc<Engine>,
    config: ServerConfig,
    shutdown: AtomicBool,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    registry: Mutex<HashMap<u64, SessionEntry>>,
    next_conn_id: AtomicU64,
    metrics: ServerMetrics,
}

/// A running server. Dropping the handle shuts the server down and joins
/// every thread (see [`Server::shutdown`]).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

/// Poison-tolerant lock: a session that panicked while holding server
/// state must not cascade into aborting every other thread that touches
/// the same mutex, so poisoned state is simply adopted.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Server {
    /// Bind and start serving `engine` with `config`. Returns once the
    /// listener is live; `local_addr` gives the bound address (useful with
    /// port 0).
    pub fn start(engine: Arc<Engine>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            engine,
            config,
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(QueueState::default()),
            queue_cv: Condvar::new(),
            registry: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            metrics: ServerMetrics::default(),
        });
        let mut threads = Vec::with_capacity(workers + 1);
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("bfq-accept".into())
                    .spawn(move || accept_loop(&shared, listener))?,
            );
        }
        for i in 0..workers {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("bfq-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(Server {
            shared,
            addr,
            threads,
        })
    }

    /// The bound listener address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server-side counters (engine metrics live on the engine).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Engine + server metrics in Prometheus text format — the same text
    /// the `metrics` command serves.
    pub fn metrics_text(&self) -> String {
        metrics_text(&self.shared)
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Stop accepting, cancel in-flight queries, and join all threads.
    /// Sessions see the shutdown flag at their next poll tick and close.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Interrupt running queries so sessions notice promptly.
        for entry in lock(&self.shared.registry).values() {
            entry.hub.cancel();
        }
        self.shared.queue_cv.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Drop connections that were queued but never served.
        lock(&self.shared.queue).queue.clear();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown_inner();
        }
    }
}

fn metrics_text(shared: &Shared) -> String {
    let queued = lock(&shared.queue).queue.len();
    let mut text = shared.engine.metrics().to_prometheus_text();
    text.push_str(&shared.metrics.to_prometheus_text(queued));
    text
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    let workers = shared.config.workers.max(1);
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let mut state = lock(&shared.queue);
        // A connection may wait in the queue only while every worker is
        // busy: admit up to (idle workers + queue_depth) at once.
        let idle = workers.saturating_sub(state.busy);
        if state.queue.len() >= idle + shared.config.queue_depth {
            drop(state);
            shared.metrics.connections_rejected.inc();
            reject(stream);
            continue;
        }
        state.queue.push_back(stream);
        drop(state);
        shared.queue_cv.notify_one();
    }
}

/// Tell an unadmitted client why, then hang up. Best-effort: the client
/// may already be gone.
fn reject(mut stream: TcpStream) {
    let frame = error_frame_parts(
        CODE_SERVER_BUSY,
        "server at capacity: admission queue full, try again later",
    );
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = writeln!(stream, "{frame}");
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut state = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(s) = state.queue.pop_front() {
                    // Claimed under the lock so admission sees this worker
                    // as busy before the queue slot frees up.
                    state.busy += 1;
                    break s;
                }
                state = shared
                    .queue_cv
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        shared.metrics.connections_accepted.inc();
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed) + 1;
        // Best-effort unpredictability: the secret only guards against
        // accidental cross-session cancels, not adversaries.
        let secret = splitmix64(conn_id ^ clock_entropy());
        // Client hangups are routine (the Err is not actionable), and a
        // panicking session must not take the worker down with it: either
        // way the cleanup below runs, so the busy count and the cancel
        // registry stay balanced and the server keeps serving.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_session(shared, stream, conn_id, secret)
        }));
        lock(&shared.registry).remove(&conn_id);
        shared.metrics.connections_closed.inc();
        lock(&shared.queue).busy -= 1;
    }
}

fn clock_entropy() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One session: hello, then request/response until hangup or quit.
fn serve_session(shared: &Shared, stream: TcpStream, conn_id: u64, secret: u64) -> io::Result<()> {
    stream.set_read_timeout(Some(shared.config.poll_interval))?;
    // Bounded writes, mirroring reads: streaming to a stalled client wakes
    // every poll tick to check the shutdown flag instead of blocking
    // forever in `write` (which would hang `Server::shutdown`'s join).
    stream.set_write_timeout(Some(shared.config.poll_interval))?;
    stream.set_nodelay(true).ok();
    let mut writer = FrameWriter {
        stream: stream.try_clone()?,
        shutdown: &shared.shutdown,
        buf: Vec::new(),
        text: String::new(),
    };
    let mut reader = BufReader::new(stream);

    let conn = shared.engine.connect();
    lock(&shared.registry).insert(
        conn_id,
        SessionEntry {
            secret,
            hub: conn.cancel_hub().clone(),
        },
    );

    let hello = Hello {
        conn_id,
        secret,
        version: PROTOCOL_VERSION,
    };
    writer.send(&hello.to_json())?;
    writer.flush()?;

    let mut session = Session {
        conn,
        statements: HashMap::new(),
    };
    let mut line = Vec::new();
    loop {
        line.clear();
        match read_line_polled(&mut reader, &mut line, &shared.shutdown) {
            Ok(0) => return Ok(()), // EOF or shutdown
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized frame: the stream is beyond recovery.
                writer.send(&error_frame_parts(CODE_PROTOCOL, "request line too long"))?;
                return writer.flush();
            }
            Err(e) => return Err(e),
        }
        let text = match std::str::from_utf8(&line) {
            Ok(t) => t.trim_end_matches(['\r', '\n']),
            Err(_) => {
                writer.send(&error_frame_parts(CODE_PROTOCOL, "request is not UTF-8"))?;
                writer.flush()?;
                continue;
            }
        };
        if text.trim().is_empty() {
            continue;
        }
        let request = match Json::parse(text).and_then(|v| Request::from_json(&v)) {
            Ok(r) => r,
            Err(msg) => {
                writer.send(&error_frame_parts(CODE_PROTOCOL, &msg))?;
                writer.flush()?;
                continue;
            }
        };
        shared.metrics.requests.inc();
        let quit = matches!(request, Request::Quit);
        dispatch(shared, &mut session, &mut writer, request)?;
        writer.flush()?;
        if quit {
            return Ok(());
        }
    }
}

/// Per-session state: the engine connection (SET options, cancel hub) and
/// the named server-side prepared statements.
struct Session {
    conn: bfq::Connection,
    statements: HashMap<String, PreparedStatement>,
}

fn dispatch(
    shared: &Shared,
    session: &mut Session,
    writer: &mut FrameWriter<'_>,
    request: Request,
) -> io::Result<()> {
    match request {
        Request::Query { sql } => {
            if let Some((key, value)) = parse_set(&sql) {
                return match session.conn.set(&key, &value) {
                    Ok(()) => writer.send(&ok_frame([])),
                    Err(e) => writer.send(&error_frame(&e)),
                };
            }
            run_query(shared, session, writer, &sql)
        }
        Request::Prepare { name, sql } => match session.conn.prepare(&sql) {
            Ok(stmt) => {
                let frame = ok_frame([
                    ("name", Json::Str(name.clone())),
                    ("params", Json::Int(stmt.param_count() as i64)),
                    (
                        "columns",
                        Json::Arr(
                            stmt.column_names()
                                .iter()
                                .map(|c| Json::Str(c.clone()))
                                .collect(),
                        ),
                    ),
                ]);
                // Re-preparing a name replaces the old statement.
                session.statements.insert(name, stmt);
                writer.send(&frame)
            }
            Err(e) => writer.send(&error_frame(&e)),
        },
        Request::Execute { name, params } => {
            let Some(stmt) = session.statements.get(&name) else {
                return writer.send(&error_frame(&BfqError::invalid(format!(
                    "no prepared statement named `{name}`"
                ))));
            };
            // The execution-only settings follow the session's current SET
            // state, not the values captured at PREPARE time.
            let stmt = stmt.with_session_options(session.conn.settings().exec);
            shared.metrics.queries_started.inc();
            let outcome = stmt.execute_stream(&params);
            finish_query(shared, session, writer, outcome)
        }
        Request::Close { name } => {
            session.statements.remove(&name);
            writer.send(&ok_frame([]))
        }
        Request::Set { key, value } => match session.conn.set(&key, &value) {
            Ok(()) => writer.send(&ok_frame([])),
            Err(e) => writer.send(&error_frame(&e)),
        },
        Request::Cancel { conn_id, secret } => {
            let fired = {
                let registry = lock(&shared.registry);
                match registry.get(&conn_id) {
                    Some(entry) if entry.secret == secret => entry.hub.cancel(),
                    _ => false,
                }
            };
            if fired {
                shared.metrics.cancels_delivered.inc();
            }
            writer.send(&ok_frame([("cancelled", Json::Bool(fired))]))
        }
        Request::Metrics => {
            let text = metrics_text(shared);
            writer.send(&Json::obj([(
                "metrics",
                Json::obj([("text", Json::Str(text))]),
            )]))
        }
        Request::Ping => writer.send(&ok_frame([])),
        Request::Quit => writer.send(&ok_frame([])),
    }
}

/// Run a `query` command: EXPLAIN variants gather (their result is a
/// rendered plan, not data), everything else streams.
fn run_query(
    shared: &Shared,
    session: &mut Session,
    writer: &mut FrameWriter<'_>,
    sql: &str,
) -> io::Result<()> {
    let (mode, _) = strip_explain(sql);
    shared.metrics.queries_started.inc();
    if mode != ExplainMode::None {
        let outcome = session.conn.run_sql(sql);
        shared.metrics.queries_finished.inc();
        // EXPLAIN ANALYZE executes (and can time out or be cancelled) like
        // any other query: claim a fired token's reason here too, so it is
        // never left on the hub for the next query's counters.
        settle_cancel_counters(shared, session);
        return match outcome {
            Ok(result) => {
                send_header(writer, &result.column_names, &column_types(&result.chunk))?;
                match send_chunk_rows(writer, &result.chunk)? {
                    Ok(()) => writer.send(&done_frame(result.chunk.rows() as u64)),
                    Err(e) => writer.send(&error_frame(&e)),
                }
            }
            Err(e) => writer.send(&error_frame(&e)),
        };
    }
    let outcome = session.conn.execute_stream(sql);
    finish_query(shared, session, writer, outcome)
}

/// Stream a started query (or report its startup error), then settle the
/// cancellation/timeout counters.
fn finish_query(
    shared: &Shared,
    session: &Session,
    writer: &mut FrameWriter<'_>,
    outcome: bfq::common::Result<QueryStream>,
) -> io::Result<()> {
    let io_result = match outcome {
        Ok(stream) => stream_rows(writer, stream),
        Err(e) => writer.send(&error_frame(&e)),
    };
    shared.metrics.queries_finished.inc();
    // The stream (and its ExecGuard) is gone now, so a fired token's
    // reason has been recorded on the session's hub.
    settle_cancel_counters(shared, session);
    io_result
}

/// Claim a fired cancel token's recorded reason (if any) into the
/// cancellation/timeout counters. Every query path must call this once the
/// execution is over — `last_fired` clears on read, so an unclaimed reason
/// would be mis-attributed to the session's next query.
fn settle_cancel_counters(shared: &Shared, session: &Session) {
    match session.conn.cancel_hub().last_fired() {
        Some(CancelReason::Cancelled) => shared.metrics.queries_cancelled.inc(),
        Some(CancelReason::Timeout) => shared.metrics.queries_timed_out.inc(),
        None => {}
    }
}

/// Send header, chunks and done for a streaming query. An engine error
/// mid-stream becomes an error frame terminating the response sequence.
fn stream_rows(writer: &mut FrameWriter<'_>, mut stream: QueryStream) -> io::Result<()> {
    let columns = stream.column_names.clone();
    let types: Vec<_> = stream.types().to_vec();
    send_header(writer, &columns, &types)?;
    let mut rows_sent: u64 = 0;
    let failure = loop {
        match stream.next() {
            Some(Ok(chunk)) => {
                rows_sent += chunk.rows() as u64;
                if let Err(e) = send_chunk_rows(writer, &chunk)? {
                    break Some(e);
                }
            }
            Some(Err(e)) => break Some(e),
            None => break None,
        }
    };
    // Dropping the stream disarms the session's cancel hub (recording a
    // fired token's reason) before the terminating frame goes out.
    drop(stream);
    match failure {
        Some(e) => writer.send(&error_frame(&e)),
        None => writer.send(&done_frame(rows_sent)),
    }
}

fn done_frame(rows: u64) -> Json {
    Json::obj([("done", Json::obj([("rows", Json::Int(rows as i64))]))])
}

fn column_types(chunk: &Chunk) -> Vec<bfq::prelude::DataType> {
    chunk.columns().iter().map(|c| c.data_type()).collect()
}

fn send_header(
    writer: &mut FrameWriter<'_>,
    columns: &[String],
    types: &[bfq::prelude::DataType],
) -> io::Result<()> {
    writer.send(&Json::obj([(
        "rows",
        Json::obj([
            (
                "columns",
                Json::Arr(columns.iter().map(|c| Json::Str(c.clone())).collect()),
            ),
            (
                "types",
                Json::Arr(
                    types
                        .iter()
                        .map(|t| Json::Str(type_name(*t).into()))
                        .collect(),
                ),
            ),
        ]),
    )]))
}

/// Queue a result chunk as chunk frames of at most [`WIRE_CHUNK_ROWS`]
/// rows. The inner `Err` is a frame over the payload cap, which ends the
/// response sequence with an error frame instead.
fn send_chunk_rows(
    writer: &mut FrameWriter<'_>,
    chunk: &Chunk,
) -> io::Result<Result<(), BfqError>> {
    let rows = chunk.rows();
    let mut start = 0;
    while start < rows {
        let end = (start + WIRE_CHUNK_ROWS).min(rows);
        if let Err(e) = encode_chunk(chunk, start..end, &mut writer.buf) {
            return Ok(Err(BfqError::Execution(e)));
        }
        writer.queued()?;
        start = end;
    }
    Ok(Ok(()))
}

fn ok_frame(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::obj([("ok", Json::obj(fields))])
}

/// A session's response channel. JSON frames (as lines) and chunk frames
/// go out through one reused buffer, written at the end of each response
/// sequence
/// ([`FrameWriter::flush`]) and whenever it reaches [`FLUSH_BYTES`]. The
/// write loop is bounded: the socket carries the poll-interval write
/// timeout, and every timeout tick re-checks the shutdown flag — so a
/// session streaming results to a stalled client cannot hang
/// [`Server::shutdown`] in an indefinitely blocked `write`.
struct FrameWriter<'a> {
    stream: TcpStream,
    shutdown: &'a AtomicBool,
    buf: Vec<u8>,
    /// Scratch text for one JSON frame.
    text: String,
}

impl FrameWriter<'_> {
    /// Queue one JSON frame as a line.
    fn send(&mut self, frame: &Json) -> io::Result<()> {
        self.text.clear();
        frame.write_to(&mut self.text);
        self.buf.extend_from_slice(self.text.as_bytes());
        self.buf.push(b'\n');
        self.queued()
    }

    /// Write the buffer out if what was just queued filled it.
    fn queued(&mut self) -> io::Result<()> {
        if self.buf.len() >= FLUSH_BYTES {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Write out everything queued, resuming from partial writes.
    fn flush(&mut self) -> io::Result<()> {
        let bytes = &self.buf[..];
        let mut written = 0;
        while written < bytes.len() {
            if self.shutdown.load(Ordering::SeqCst) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "server shutting down",
                ));
            }
            match self.stream.write(&bytes[written..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "client stopped accepting data",
                    ))
                }
                Ok(n) => written += n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        Ok(())
    }
}

/// Read one `\n`-terminated line via `fill_buf`/`consume`, tolerating the
/// poll-interval read timeout: timeouts just loop (checking the shutdown
/// flag), so a session blocks on an idle client yet still notices
/// shutdown. The length cap is enforced on each buffered chunk *before* it
/// is accumulated, so a client streaming bytes with no newline can never
/// grow `buf` past `MAX_REQUEST_BYTES`. Returns `Ok(0)` on EOF or
/// shutdown; `InvalidData` marks an oversized line.
fn read_line_polled(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> io::Result<usize> {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(0);
        }
        let available = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            // EOF: a partial line that never got its newline is a hangup.
            return Ok(0);
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |pos| pos + 1);
        if buf.len() + take > MAX_REQUEST_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "line too long"));
        }
        buf.extend_from_slice(&available[..take]);
        reader.consume(take);
        if newline.is_some() {
            return Ok(buf.len());
        }
    }
}
