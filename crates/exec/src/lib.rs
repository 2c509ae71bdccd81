//! The vectorized, multi-threaded execution engine.
//!
//! One executor over physical plans: the **morsel-driven pipeline**
//! (module [`pipeline`]). Plans decompose into pipelines at blocking
//! operators, worker threads pull chunk-sized morsels through fused
//! scan → filter → probe → project chains and drain the pipeline's sink
//! partitions themselves, each in morsel sequence, through a bounded
//! reorder window. Every fan-out runs on one persistent [`WorkerPool`]
//! (module [`parallel`]) that the execution's [`ExecOptions`] carry: an
//! engine's, or a private one. It has exactly two entry
//! points, each taking `(plan, catalog, ExecOptions)`:
//!
//! * [`execute_plan`] gathers the result into one [`QueryOutput`];
//! * [`execute_plan_stream`] returns a [`ChunkStream`] whose final pipeline
//!   the consumer pulls one morsel at a time.
//!
//! Exchange operators implement the paper's streaming strategies (`RD`
//! repartition, `BC` broadcast, gather); hash joins execute their **build
//! side first**, build any planned Bloom filters (one
//! [`bfq_bloom::RuntimeFilter`] per build, whatever the join's
//! distribution), publish them to the
//! [`bfq_bloom::FilterHub`], and only then execute the probe side — so
//! scans that wait on filters never deadlock, including the
//! chained-filter plans of paper Fig. 3d.
//!
//! Results are specified by the reference interpreter (`bfq-ref`, a
//! dev-only crate sharing no code with this one): every plan, filter
//! placement, layout and dop must return what it returns, as a normalized
//! multiset. Per-node actual row counts are recorded in [`ExecStats`]
//! (enabling the paper's §4.2 estimated-vs-actual cardinality comparison),
//! alongside a buffered-rows high-water mark.

pub mod agg;
pub mod data;
pub mod exchange;
pub mod executor;
pub mod join;
pub mod parallel;
pub mod pipeline;
pub mod scan;
pub mod util;

pub use bfq_index::IndexMode;
pub use data::{ExecStats, PartitionedData, ScanPruneStats};
pub use executor::{ExecConfig, ExecContext, ExecOptions, QueryOutput};
pub use parallel::WorkerPool;
pub use pipeline::{execute_plan, execute_plan_stream, ChunkStream, REORDER_WINDOW_PER_WORKER};
pub use util::MorselScratch;
