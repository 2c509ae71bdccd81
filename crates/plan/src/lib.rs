//! Query plan representation.
//!
//! Three layers:
//! * [`block`] — the *query block*: base relations (with aliases bound to
//!   virtual table ids), equi-join clauses, local and complex predicates.
//!   This is the unit over which the paper's bottom-up optimization runs
//!   ("a single select-project-join block", §3.8).
//! * [`logical`] — the logical tree above and around blocks: aggregation,
//!   projection, sort, limit, and derived-table nesting.
//! * [`physical`] — executable plans: scans with Bloom-filter applications,
//!   hash and nested-loop joins with Bloom-filter builds, exchange
//!   operators for SMP streaming, plus EXPLAIN-style formatting.
//!
//! [`pipeline`] decomposes physical plans into morsel-driven pipelines
//! (streamable chains bounded by blocking operators) — the shared
//! definition the executor, EXPLAIN output and tests all use.

pub mod block;
pub mod logical;
pub mod physical;
pub mod pipeline;

pub use block::{BaseRel, Bindings, EquiClause, QueryBlock, RelBinding, RelKind, RelSource};
pub use logical::{AggExpr, AggFunc, LogicalPlan, OutputColumn, SortKey};
pub use physical::{
    BloomApply, BloomBuild, Distribution, ExchangeKind, FilterSchedule, JoinKind, PhysicalNode,
    PhysicalPlan,
};
pub use pipeline::{blocking_children, decompose, is_streamable, streaming_child, PipelineSpec};
