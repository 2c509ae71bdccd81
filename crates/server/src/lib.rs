//! # bfq-server — a network front-end for the bfq engine
//!
//! Serves one shared [`bfq::Engine`] to many clients over TCP: requests
//! and control frames are JSON lines, result rows travel as binary column
//! chunks (see [`mod@protocol`] for the wire format). The design goals, in
//! order:
//!
//! 1. **Admission control** — a bounded worker pool and a bounded wait
//!    queue; the server sheds load by rejecting (`server_busy`) instead
//!    of queueing unboundedly.
//! 2. **Interruptibility** — per-statement timeouts, out-of-band client
//!    cancellation (PostgreSQL-style `(conn_id, secret)` credentials) and
//!    per-query memory budgets, all riding the engine's cooperative
//!    cancellation tokens: a query unwinds at its next morsel boundary,
//!    leaking no threads and leaving the shared engine reusable.
//! 3. **Streaming delivery** — result chunks go out as the pipeline
//!    produces them, gathered into one socket write per 64 KiB (a short
//!    response is a single write); a slow client exerts backpressure
//!    through TCP instead of buffering the whole result server-side.
//!
//! ## Quick start
//!
//! ```no_run
//! use bfq::prelude::*;
//! use bfq_server::{Client, Server, ServerConfig};
//!
//! let db = bfq::tpch::gen::generate(0.01, 42).unwrap();
//! let engine = Engine::new(db, EngineConfig::default());
//! let server = Server::start(engine, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.set("statement_timeout", "5000").unwrap();
//! let rows = client.query("select count(*) from lineitem").unwrap();
//! println!("{:?}", rows.rows[0][0]);
//! client.quit().unwrap();
//! server.shutdown();
//! ```

pub mod client;
pub mod json;
pub mod protocol;
pub mod server;

pub use client::{
    Client, ClientError, ClientResult, RemoteError, RowSet, RowStream, StatementInfo,
};
pub use protocol::{Hello, Request, CODE_PROTOCOL, CODE_SERVER_BUSY, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, ServerMetrics};
