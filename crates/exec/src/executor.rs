//! Per-query execution state ([`ExecConfig`], [`ExecOptions`], [`ExecContext`],
//! [`QueryOutput`]) and the blocking-operator kernels the morsel pipeline
//! seals its breakers with: hash-join build sides with their runtime Bloom
//! filters and sort.

use std::sync::Arc;

use bfq_bloom::{FilterHub, RuntimeFilter};
use bfq_catalog::Catalog;
use bfq_common::{BfqError, CancelToken, DataType, Result};
use bfq_expr::{eval, Layout};
use bfq_index::IndexMode;
use bfq_plan::{Distribution, ExchangeKind, PhysicalNode, PhysicalPlan};
use bfq_storage::{Chunk, Column, ColumnRef};

use crate::data::{ExecStats, PartitionedData};
use crate::join::BuildTable;
use crate::parallel::par_map;
use crate::util::{col_cmp, slots_for};

/// The execution-only settings: read when a plan runs, never by the
/// optimizer, so no value here can change which plan is picked (and none of
/// it is part of the plan-cache key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Collect per-node runtime profiles (wall time, morsels) during
    /// pipelined execution. Defaults to on: recording is per-worker and
    /// merged at pipeline seal, so the steady-state cost is a pair of
    /// monotonic-clock reads per operator per morsel. Turn off to measure
    /// the floor.
    pub profile: bool,
    /// Per-statement wall-clock limit in milliseconds (`0` = no limit).
    /// Whoever starts the query turns it into the deadline of
    /// [`ExecOptions::interrupt`]; the executor only polls that token.
    pub statement_timeout_ms: u64,
    /// Per-query cap on rows simultaneously resident in inter-operator
    /// buffers ([`ExecStats::buffered_rows_now`]); exceeded → the query
    /// fails with an execution error. `0` disables the budget.
    pub memory_budget_rows: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            profile: true,
            statement_timeout_ms: 0,
            memory_budget_rows: 0,
        }
    }
}

/// Everything one execution is told besides the plan and the catalog: the
/// two values the plan was costed under that the executor must honour
/// (`dop`, `index_mode`), the execution-only [`ExecConfig`], and the
/// per-execution interruption handle.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Degree of parallelism.
    pub dop: usize,
    /// How much of the per-chunk index scans consult (data skipping).
    pub index_mode: IndexMode,
    /// Profiling, statement timeout, buffered-rows budget.
    pub exec: ExecConfig,
    /// Cooperative interruption: polled at every morsel claim and every
    /// streamed pull. `None` means the query cannot be cancelled and has
    /// no statement deadline.
    pub interrupt: Option<Arc<CancelToken>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            dop: 1,
            index_mode: IndexMode::default(),
            exec: ExecConfig::default(),
            interrupt: None,
        }
    }
}

impl ExecOptions {
    /// Options with the given DOP and defaults elsewhere.
    pub fn with_dop(dop: usize) -> Self {
        ExecOptions {
            dop,
            ..Default::default()
        }
    }
}

/// Shared execution context for one query.
pub struct ExecContext {
    /// The catalog (base table data).
    pub catalog: Arc<Catalog>,
    /// What this execution was asked to run under (`dop` floored at 1).
    pub options: ExecOptions,
    /// Bloom filter rendezvous.
    pub hub: FilterHub,
    /// Per-node actual row counts.
    pub stats: ExecStats,
    /// How long a scan waits for a filter before declaring a planning bug.
    pub filter_wait_ms: u64,
}

impl ExecContext {
    /// A context over `catalog` under `options`.
    pub fn with_options(catalog: Arc<Catalog>, mut options: ExecOptions) -> Self {
        options.dop = options.dop.max(1);
        ExecContext {
            catalog,
            options,
            hub: FilterHub::new(),
            stats: ExecStats::new(),
            filter_wait_ms: 120_000,
        }
    }

    /// Poll the query's interruption sources: the cancel/timeout token and
    /// the buffered-rows memory budget. Called at every morsel claim (all
    /// scheduler paths) and every streamed pull, so interruption latency
    /// is bounded by one morsel's work.
    #[inline]
    pub fn check_interrupts(&self) -> Result<()> {
        if let Some(token) = &self.options.interrupt {
            token.check()?;
        }
        let budget = self.options.exec.memory_budget_rows;
        if budget > 0 {
            let now = self.stats.buffered_rows_now();
            if now > budget {
                return Err(BfqError::Execution(format!(
                    "memory budget exceeded: {now} buffered rows over a budget of {budget} \
                     (raise memory_budget_rows or set it to 0)"
                )));
            }
        }
        Ok(())
    }
}

/// A finished query: one result chunk plus runtime statistics.
pub struct QueryOutput {
    /// The gathered result rows.
    pub chunk: Chunk,
    /// Actual row counts per plan node id.
    pub stats: ExecStats,
}

/// Logical row count of a node's output (broadcast counts one copy).
pub(crate) fn logical_rows_of(node: &PhysicalNode, out: &PartitionedData) -> u64 {
    match node {
        PhysicalNode::Exchange {
            kind: ExchangeKind::Broadcast,
            ..
        } => {
            if out.num_partitions() == 0 {
                0
            } else {
                out.partitions[0].iter().map(|c| c.rows() as u64).sum()
            }
        }
        _ => out.total_rows() as u64,
    }
}

/// A sealed hash-join build side: per-partition hash tables plus the build
/// column types — everything the probe side needs, with all planned Bloom
/// filters already published to the hub.
pub(crate) struct SealedBuild {
    /// One hash table per build partition.
    pub tables: Vec<BuildTable>,
    /// Build-side column types (for LEFT OUTER null columns).
    pub inner_types: Vec<DataType>,
    /// Rows indexed across all tables (buffer accounting).
    pub rows: u64,
}

/// Concatenate and index a hash join's build side, then build and publish
/// its planned Bloom filters. This must complete before the probe side's
/// scans run.
pub(crate) fn seal_build_side(
    ctx: &ExecContext,
    inner: &Arc<PhysicalPlan>,
    keys: &[(bfq_common::ColumnId, bfq_common::ColumnId)],
    builds: &[bfq_plan::BloomBuild],
    inner_data: PartitionedData,
) -> Result<SealedBuild> {
    let inner_types = inner_data.types.clone();
    let ikeys: Vec<_> = keys.iter().map(|(_, i)| *i).collect();
    let inner_slots = slots_for(&inner.layout, &ikeys)?;
    let inner_replicated = inner.distribution == Distribution::Replicated;
    let rows = inner_data.total_rows() as u64;

    // Concatenate per partition and index. The flat table's directory is
    // sized from the planner's distinct-key estimate: the Bloom builds'
    // `expected_ndv` when present (it estimates NDV of the build keys),
    // else the build side's row estimate. Partition-hashed sides split
    // their distinct keys across partitions; replicated sides don't.
    let n_parts = inner_data.num_partitions();
    let planned_ndv = builds
        .iter()
        .map(|b| b.expected_ndv)
        .fold(f64::NAN, f64::max);
    let ndv_estimate = if planned_ndv.is_finite() && planned_ndv >= 1.0 {
        planned_ndv
    } else {
        inner.est_rows
    };
    let per_part_ndv = if inner_replicated {
        ndv_estimate
    } else {
        ndv_estimate / n_parts.max(1) as f64
    };
    let ndv_hint = if per_part_ndv.is_finite() && per_part_ndv >= 1.0 {
        Some(per_part_ndv.ceil() as usize)
    } else {
        None
    };
    let tables: Vec<BuildTable> = par_map(n_parts, |p| {
        let chunk = inner_data.partition_chunk(p)?;
        Ok(BuildTable::build_with_ndv(
            chunk,
            inner_slots.clone(),
            ndv_hint,
        ))
    })?;

    // Build and publish planned Bloom filters: one filter per build over
    // every partition's keys, or over one copy of a replicated build side
    // (§3.9 case 1: the copies are redundant).
    let copies = if inner_replicated {
        &tables[..tables.len().min(1)]
    } else {
        &tables[..]
    };
    for b in builds {
        let slot = inner.layout.slot_of(b.column).ok_or_else(|| {
            BfqError::internal(format!("bloom build column {} not in build side", b.column))
        })?;
        let keys: Vec<Column> = copies
            .iter()
            .map(|t| t.chunk.column(slot).as_ref().clone())
            .collect();
        let started = std::time::Instant::now();
        let filter = RuntimeFilter::build(&keys, b.expected_ndv.max(1.0) as usize);
        // Builds happen once per filter per query — cheap to time
        // unconditionally, and `Engine::metrics()` wants the count
        // even with per-node profiling off.
        ctx.stats
            .note_filter_build(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        ctx.hub.publish(b.filter, filter);
    }
    Ok(SealedBuild {
        tables,
        inner_types,
        rows,
    })
}

/// Sort a gathered chunk by the given keys.
pub(crate) fn sort_chunk(
    chunk: &Chunk,
    layout: &Layout,
    keys: &[bfq_plan::SortKey],
    limit: Option<usize>,
) -> Result<Chunk> {
    let key_cols: Vec<ColumnRef> = keys
        .iter()
        .map(|k| eval(&k.expr, chunk, layout))
        .collect::<Result<_>>()?;
    let mut idx: Vec<u32> = (0..chunk.rows() as u32).collect();
    idx.sort_by(|&a, &b| {
        for (k, col) in keys.iter().zip(&key_cols) {
            let mut ord = col_cmp(col, a as usize, col, b as usize);
            if k.descending {
                ord = ord.reverse();
            }
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.cmp(&b) // stable tie-break: equal keys keep input order
    });
    if let Some(n) = limit {
        idx.truncate(n);
    }
    Ok(chunk.take(&idx))
}

/// Compute output types for a plan's layout (exported for the session layer
/// to label results). Falls back to Int64 for unknown columns.
pub fn output_types(chunk: &Chunk) -> Vec<DataType> {
    (0..chunk.width())
        .map(|i| chunk.column(i).data_type())
        .collect()
}
