//! # bfq — Bloom-Filter-aware Query optimization
//!
//! A from-scratch analytical query engine built to reproduce
//! *"Including Bloom Filters in Bottom-up Optimization"* (Zeyl et al.,
//! SIGMOD-Companion 2025). This facade crate re-exports the public API of
//! every workspace crate so applications can depend on `bfq` alone.
//!
//! ## Quick start
//!
//! The public surface is three-tiered: one shared, thread-safe [`Engine`]
//! (catalog + config + plan cache), cheap per-client [`Connection`]s, and
//! [`PreparedStatement`]s that are optimized once and executed many times.
//!
//! ```
//! use bfq::prelude::*;
//!
//! // Generate a tiny TPC-H instance and build the shared engine with
//! // Bloom-filter-aware cost-based optimization (BF-CBO).
//! let db = bfq::tpch::gen::generate(0.001, 42).unwrap();
//! let engine = Engine::new(
//!     db,
//!     EngineConfig::default()
//!         .with_bloom_mode(BloomMode::Cbo)
//!         .with_index_mode(IndexMode::ZoneMapBloom),
//! );
//!
//! // Per-client connections are cheap and carry their own SET state.
//! let conn = engine.connect();
//! let sql = "select count(*) from lineitem, orders where l_orderkey = o_orderkey and o_orderdate < date '1995-01-01'";
//! let result = conn.run_sql(sql).unwrap();
//! assert_eq!(result.chunk.width(), 1);
//!
//! // Prepared statements bind `?` / `$n` parameters without re-planning.
//! let stmt = conn
//!     .prepare("select count(*) from orders where o_orderdate < ?")
//!     .unwrap();
//! let jan95 = Datum::Date(bfq::common::date::parse_date("1995-01-01").unwrap());
//! let again = stmt.execute(&[jan95]).unwrap();
//! assert_eq!(again.chunk.rows(), 1);
//!
//! // Identical SQL under the same optimizer config hits the shared plan
//! // cache: parse/bind/optimize are skipped.
//! let rerun = conn.run_sql(sql).unwrap();
//! assert!(rerun.cache_hit);
//! assert!(engine.cache_stats().hits > 0);
//! ```

pub use bfq_bloom as bloom;
pub use bfq_catalog as catalog;
pub use bfq_common as common;
pub use bfq_core as core;
pub use bfq_cost as cost;
pub use bfq_exec as exec;
pub use bfq_expr as expr;
pub use bfq_index as index;
pub use bfq_obs as obs;
pub use bfq_plan as plan;
pub use bfq_sql as sql;
pub use bfq_storage as storage;
pub use bfq_tpch as tpch;

pub mod connection;
pub mod engine;
pub mod settings;
pub mod statement;

pub use connection::{Connection, QueryStream};
pub use engine::{Engine, EngineConfig, QueryResult};
pub use settings::Settings;
pub use statement::{BoundStatement, PreparedStatement};

/// Commonly used items, importable with `use bfq::prelude::*`.
pub mod prelude {
    pub use crate::connection::{Connection, QueryStream};
    pub use crate::engine::{Engine, EngineConfig, QueryResult};
    pub use crate::settings::Settings;
    pub use crate::statement::{BoundStatement, PreparedStatement};
    pub use bfq_common::{
        BfqError, CancelHub, CancelReason, CancelToken, DataType, Datum, RelSet, Result,
    };
    pub use bfq_core::{BloomMode, PlanCacheStats};
    pub use bfq_index::IndexMode;
    pub use bfq_obs::{MetricsSnapshot, PhaseBreakdown, QueryProfile};
    pub use bfq_storage::{Chunk, Table};
}
