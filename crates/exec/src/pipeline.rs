//! The morsel-driven pipeline executor — the only executor.
//!
//! [`execute_plan`] runs a [`PhysicalPlan`] as a set of *pipelines*
//! (decomposed by [`bfq_plan::pipeline`]): maximal chains of streamable
//! operators — scan → filter → probe → project — fused into one per-morsel
//! function, bounded by *pipeline breakers* (hash-join builds,
//! aggregation, sort, limit, exchanges, scalar subqueries). A morsel is
//! one storage chunk, reusing the existing chunk/partition model. A
//! pipeline runs on up to `dop` workers — the calling thread plus the
//! parked helpers of the execution's [`crate::WorkerPool`], which the
//! caller stands in for when none is free (see [`crate::parallel`]) —
//! that claim morsels from a shared atomic cursor, so a fast worker steals
//! work from a slow one instead of idling on a fixed partition.
//! [`execute_plan_stream`] runs everything below the last breaker the same
//! way and hands the *final* pipeline to the consumer, who pulls it one
//! morsel at a time ([`ChunkStream`]).
//!
//! **Sinks.** A pipeline ends in a sink of one or more partitions:
//! collect and LIMIT have one, hash aggregation one per worker
//! (`agg::AggSink`). Inside the morsel, the worker cuts the
//! output into one piece per sink partition. Partition `p` consumes its
//! piece of morsel `seq` only after that of `seq − 1`, and the workers
//! drain the partitions themselves: one that has just published a morsel,
//! or that is held at the reorder window, consumes from every partition
//! whose lock it can take. Held workers sleep on a condvar, woken by
//! publishes and by drains that move the window.
//!
//! **Determinism contract.** Results are bit-exact run to run at a fixed
//! (query, data, dop), and equal to the reference interpreter (`bfq-ref`)
//! as a normalized multiset: every morsel carries a worker-partition and a
//! sequence position in *partition-major order* (partition `p` owns table
//! chunks `p`, `p + dop`, …, or all of a scan the plan records as
//! `Single`; partitions follow one another), and every
//! sink partition consumes in sequence — collected output keeps source
//! order, LIMIT a prefix, and each aggregation group (whose rows all route
//! to one partition) folds its rows, floats included, in input order. The
//! reorder window, which starts at the slowest sink partition's next
//! sequence, is also what keeps memory flat: at most `workers ×
//! REORDER_WINDOW_PER_WORKER` morsels are published ahead of it (the
//! window starts narrow and widens adaptively under stall pressure, up to
//! that cap), so a scan-heavy query never materializes a whole table
//! between operators (observable via
//! [`crate::ExecStats::peak_buffered_rows`]; holds are counted in
//! [`crate::ExecStats::window_stalls`]).
//!
//! **Statistics.** Per-node row counts and [`crate::ScanPruneStats`] are
//! accumulated per morsel into the shared [`crate::ExecStats`] (interior
//! mutex), so totals do not depend on which worker ran which morsel.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use bfq_catalog::Catalog;
use bfq_common::{BfqError, ColumnId, DataType, Datum, Result, TableId};
use bfq_expr::{eval, eval_predicate, Expr, Layout};
use bfq_index::{IndexMode, TableIndex};
use bfq_plan::{
    pipeline::{is_streamable, streaming_child},
    Distribution, ExchangeKind, JoinKind, OutputColumn, PhysicalNode, PhysicalPlan,
};
use bfq_storage::{Chunk, Column, Table};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::agg::{AggPart, AggPiece, AggSink};
use crate::data::{ExecStats, PartitionedData, ScanPruneStats};
use crate::exchange;
use crate::executor::{
    logical_rows_of, output_types, seal_build_side, sort_chunk, ExecContext, ExecOptions,
    QueryOutput,
};
use crate::join::{probe_partition, BuildTable};
use crate::scan::{check_predicate, fetch_filters, prune_chunk, scan_chunk, ScanFilter};
use crate::util::{expr_types, select_rows, slots_for, substitute_placeholder, MorselScratch};

/// Cap on morsels the workers may publish ahead of the slowest sink
/// partition, per worker. Small enough to keep buffered rows near
/// `workers × chunk`, large enough that a slow morsel does not stall the
/// whole pool. The live window starts at a quarter of the cap and doubles
/// under sustained stalls.
pub const REORDER_WINDOW_PER_WORKER: usize = 4;

/// One unit of work: the chunk at `seq` in partition-major order,
/// belonging to worker-partition `partition`.
struct Morsel {
    partition: usize,
    input: MorselInput,
}

enum MorselInput {
    /// Index into the source table's chunk list.
    TableChunk(usize),
    /// An already-materialized chunk (sealed output of a breaker).
    Chunk(Chunk),
}

/// Where a pipeline's morsels come from.
enum ChainSource {
    /// A base-table scan: chunks are pruned via the per-chunk index and
    /// scanned (predicate, Bloom probes, projection) inside the morsel.
    Table {
        node_id: u32,
        table: Arc<Table>,
        full_layout: Layout,
        projection: Vec<u32>,
        predicate: Option<Expr>,
        filters: Vec<ScanFilter>,
        index: Option<Arc<TableIndex>>,
        rel_id: TableId,
    },
    /// Sealed output of a pipeline breaker, re-chunked into morsels.
    Materialized,
}

/// One fused streamable operator, applied per morsel.
enum ChainOp {
    /// Standalone filter over the input layout.
    Filter {
        node_id: u32,
        layout: Layout,
        predicate: Expr,
    },
    /// Projection evaluating output expressions.
    Project {
        node_id: u32,
        layout: Layout,
        exprs: Vec<OutputColumn>,
    },
    /// Hash-join probe against the sealed build tables.
    Probe {
        node_id: u32,
        tables: Vec<BuildTable>,
        probe_slots: Vec<usize>,
        kind: JoinKind,
        extra: Option<Expr>,
        joined_layout: Layout,
        inner_types: Vec<DataType>,
        build_rows: u64,
    },
    /// Derived-scan relabel/filter/Bloom application (no chunk index).
    Derived {
        node_id: u32,
        layout: Layout,
        predicate: Option<Expr>,
        filters: Vec<ScanFilter>,
    },
    /// Scalar-subquery filter with the scalar already substituted.
    ScalarFilter {
        node_id: u32,
        layout: Layout,
        predicate: Expr,
    },
    /// A fused Gather exchange: a pure no-op on morsel content (the
    /// executor already preserves partition-major order); operators above
    /// it see worker-partition 0.
    Gather { node_id: u32 },
}

/// A fully prepared pipeline: all blocking children sealed (hash tables
/// built, Bloom filters published, scalar subqueries evaluated), every
/// operator's state owned, ready to process morsels from any thread.
struct PreparedChain {
    source: ChainSource,
    /// Ops in application order (source upward).
    ops: Vec<ChainOp>,
    /// Output column types of the chain head.
    types: Vec<DataType>,
    /// Worker-partition count of the chain output.
    partitions: usize,
    index_mode: IndexMode,
    /// Whether to record per-node wall times into the worker's
    /// [`crate::data::ProfileScratch`] (see [`crate::ExecConfig::profile`]).
    profile: bool,
}

impl PreparedChain {
    /// Rows materialized into sealed build sides (released when the
    /// pipeline finishes).
    fn sealed_rows(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                ChainOp::Probe { build_rows, .. } => *build_rows,
                _ => 0,
            })
            .sum()
    }

    /// Run one morsel through the fused chain, recording per-node stats.
    /// `scratch` holds the calling worker's reusable probe buffers.
    fn process(
        &self,
        morsel: &Morsel,
        stats: &ExecStats,
        scratch: &mut MorselScratch,
    ) -> Result<Vec<Chunk>> {
        let source_started = self.profile.then(std::time::Instant::now);
        let mut chunks: Vec<Chunk> = match (&self.source, &morsel.input) {
            (
                ChainSource::Table {
                    node_id,
                    table,
                    full_layout,
                    projection,
                    predicate,
                    filters,
                    index,
                    rel_id,
                },
                MorselInput::TableChunk(ci),
            ) => {
                let chunk = &table.chunks()[*ci];
                let mut prune = ScanPruneStats {
                    chunks: 1,
                    ..ScanPruneStats::default()
                };
                let skipped = match index.as_ref().and_then(|t| t.chunk(*ci)) {
                    Some(cidx)
                        if prune_chunk(
                            cidx,
                            *rel_id,
                            predicate,
                            filters,
                            self.index_mode,
                            &mut prune,
                        ) =>
                    {
                        prune.rows_pruned += chunk.rows() as u64;
                        true
                    }
                    _ => false,
                };
                let out = if skipped {
                    None
                } else {
                    scan_chunk(
                        chunk,
                        full_layout,
                        predicate,
                        filters,
                        Some(projection),
                        scratch,
                    )?
                };
                stats.record_prune(*node_id, &prune);
                stats.record(*node_id, out.as_ref().map_or(0, |c| c.rows() as u64));
                out.into_iter().collect()
            }
            (ChainSource::Materialized, MorselInput::Chunk(chunk)) => vec![chunk.clone()],
            _ => return Err(BfqError::internal("morsel does not match chain source")),
        };
        if let (Some(started), ChainSource::Table { node_id, .. }) = (source_started, &self.source)
        {
            scratch
                .profile
                .note_node(*node_id, crate::data::elapsed_ns(started), 1);
        }
        let mut partition = morsel.partition;
        for op in &self.ops {
            if matches!(op, ChainOp::Gather { .. }) {
                partition = 0;
            }
            let op_started = self.profile.then(std::time::Instant::now);
            chunks = op.apply(chunks, partition, stats, scratch)?;
            if let Some(started) = op_started {
                scratch
                    .profile
                    .note_node(op.node_id(), crate::data::elapsed_ns(started), 1);
            }
        }
        Ok(chunks)
    }

    /// The output worker-partition a morsel's chunks land in (0 once a
    /// gather is fused anywhere in the chain).
    fn output_partition(&self, morsel: &Morsel) -> usize {
        if self.gathered() {
            0
        } else {
            morsel.partition
        }
    }

    fn gathered(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, ChainOp::Gather { .. }))
    }
}

impl ChainOp {
    /// The physical-plan node this op executes (for profile attribution).
    fn node_id(&self) -> u32 {
        match self {
            ChainOp::Filter { node_id, .. }
            | ChainOp::Project { node_id, .. }
            | ChainOp::Probe { node_id, .. }
            | ChainOp::Derived { node_id, .. }
            | ChainOp::ScalarFilter { node_id, .. }
            | ChainOp::Gather { node_id } => *node_id,
        }
    }

    fn apply(
        &self,
        chunks: Vec<Chunk>,
        partition: usize,
        stats: &ExecStats,
        scratch: &mut MorselScratch,
    ) -> Result<Vec<Chunk>> {
        let mut out = Vec::with_capacity(chunks.len());
        let node_id = match self {
            ChainOp::Filter {
                node_id,
                layout,
                predicate,
            } => {
                for chunk in &chunks {
                    let sel = eval_predicate(predicate, chunk, layout)?;
                    if !sel.is_empty() {
                        out.push(select_rows(chunk, &sel));
                    }
                }
                *node_id
            }
            ChainOp::Project {
                node_id,
                layout,
                exprs,
            } => {
                for chunk in &chunks {
                    if chunk.is_empty() {
                        continue;
                    }
                    let cols: Vec<_> = exprs
                        .iter()
                        .map(|e| eval(&e.expr, chunk, layout))
                        .collect::<Result<_>>()?;
                    out.push(Chunk::new(cols)?);
                }
                *node_id
            }
            ChainOp::Probe {
                node_id,
                tables,
                probe_slots,
                kind,
                extra,
                joined_layout,
                inner_types,
                ..
            } => {
                let table = &tables[partition % tables.len()];
                out = probe_partition(
                    &chunks,
                    table,
                    probe_slots,
                    *kind,
                    extra,
                    joined_layout,
                    inner_types,
                    scratch,
                )?;
                *node_id
            }
            ChainOp::Derived {
                node_id,
                layout,
                predicate,
                filters,
            } => {
                for chunk in &chunks {
                    if let Some(c) = scan_chunk(chunk, layout, predicate, filters, None, scratch)? {
                        out.push(c);
                    }
                }
                *node_id
            }
            ChainOp::ScalarFilter {
                node_id,
                layout,
                predicate,
            } => {
                for chunk in &chunks {
                    let sel = eval_predicate(predicate, chunk, layout)?;
                    if !sel.is_empty() {
                        out.push(select_rows(chunk, &sel));
                    }
                }
                *node_id
            }
            ChainOp::Gather { node_id } => {
                out = chunks;
                *node_id
            }
        };
        stats.record(node_id, out.iter().map(|c| c.rows() as u64).sum());
        Ok(out)
    }
}

/// Walk the streamable chain down from `head`, sealing blocking children
/// top-down (build before probe: paper §3.9), and return the prepared
/// chain plus its morsels in partition-major sequence order.
fn prepare_chain(
    head: &Arc<PhysicalPlan>,
    ctx: &Arc<ExecContext>,
) -> Result<(PreparedChain, Vec<Morsel>)> {
    // Pass 1 (top-down): collect chain nodes and seal blocking children —
    // each probe join's build side completes (and publishes its Bloom
    // filters) before anything below it starts.
    let mut nodes: Vec<Arc<PhysicalPlan>> = Vec::new();
    let mut sealed: Vec<SealedAux> = Vec::new();
    let mut cursor = head.clone();
    while let Some(child) = streaming_child(&cursor.node).cloned() {
        sealed.push(seal_blocking(&cursor, ctx)?);
        nodes.push(cursor);
        cursor = child;
    }

    // `cursor` is the source: a base scan, or a breaker sealed recursively.
    let (source, mut types, partitions, morsels) = match &cursor.node {
        PhysicalNode::Scan {
            base,
            rel_id,
            projection,
            predicate,
            blooms,
            ..
        } => {
            let table = ctx.catalog.data(*base)?.clone();
            let schema = table.schema();
            let full_layout = Layout::new(
                (0..schema.len())
                    .map(|i| ColumnId::new(*rel_id, i as u32))
                    .collect(),
            );
            if let Some(pred) = predicate {
                check_predicate(pred, schema, &full_layout)?;
            }
            let types: Vec<DataType> = projection
                .iter()
                .map(|&i| schema.field(i as usize).data_type)
                .collect();
            // Fetch (wait for) filters last: every build this scan depends
            // on was sealed above.
            let filters = fetch_filters(ctx, blooms, &full_layout)?;
            let index = if ctx.options.index_mode.zonemaps() {
                ctx.catalog.index(*base).cloned()
            } else {
                None
            };
            // A scan the plan records as `Single` runs on one stream, like a
            // derived scan; any other is spread over the workers.
            let dop = if cursor.distribution == Distribution::Single {
                1
            } else {
                ctx.options.dop
            };
            let n_chunks = table.chunks().len();
            // Partition-major enumeration: chunks are dealt round-robin, so
            // chunk `ci` belongs to partition `ci % dop`, and a gather reads
            // the partitions one after another.
            let mut morsels = Vec::with_capacity(n_chunks);
            for p in 0..dop {
                for ci in (p..n_chunks).step_by(dop.max(1)) {
                    morsels.push(Morsel {
                        partition: p,
                        input: MorselInput::TableChunk(ci),
                    });
                }
            }
            let source = ChainSource::Table {
                node_id: cursor.id,
                table,
                full_layout,
                projection: projection.clone(),
                predicate: predicate.clone(),
                filters,
                index,
                rel_id: *rel_id,
            };
            (source, types, dop, morsels)
        }
        _ => {
            // Breaker source: run its own pipelines to completion, then
            // re-chunk the sealed output into morsels.
            let data = execute_pipelined(&cursor, ctx)?;
            let types = data.types.clone();
            let partitions = data.num_partitions();
            let mut morsels = Vec::new();
            for (p, chunks) in data.partitions.into_iter().enumerate() {
                for chunk in chunks {
                    morsels.push(Morsel {
                        partition: p,
                        input: MorselInput::Chunk(chunk),
                    });
                }
            }
            (ChainSource::Materialized, types, partitions, morsels)
        }
    };

    // Pass 2 (bottom-up): finalize op state with the type/layout flow.
    let mut ops: Vec<ChainOp> = Vec::new();
    for (node, aux) in nodes.into_iter().rev().zip(sealed.into_iter().rev()) {
        let input = streaming_child(&node.node).expect("chain node has streaming child");
        let op = match (&node.node, aux) {
            (PhysicalNode::Filter { predicate, .. }, SealedAux::None) => ChainOp::Filter {
                node_id: node.id,
                layout: input.layout.clone(),
                predicate: predicate.clone(),
            },
            (PhysicalNode::Project { exprs, .. }, SealedAux::None) => {
                let expr_refs: Vec<&Expr> = exprs.iter().map(|e| &e.expr).collect();
                types = expr_types(&expr_refs, &input.layout, &types)?;
                ChainOp::Project {
                    node_id: node.id,
                    layout: input.layout.clone(),
                    exprs: exprs.clone(),
                }
            }
            (
                PhysicalNode::HashJoin {
                    inner,
                    kind,
                    keys,
                    extra,
                    ..
                },
                SealedAux::Build(build),
            ) => {
                let okeys: Vec<_> = keys.iter().map(|(o, _)| *o).collect();
                let probe_slots = slots_for(&input.layout, &okeys)?;
                let joined_layout = input.layout.concat(&inner.layout);
                if kind.emits_inner_columns() {
                    types.extend_from_slice(&build.inner_types);
                }
                ChainOp::Probe {
                    node_id: node.id,
                    tables: build.tables,
                    probe_slots,
                    kind: *kind,
                    extra: extra.clone(),
                    joined_layout,
                    inner_types: build.inner_types,
                    build_rows: build.rows,
                }
            }
            (
                PhysicalNode::DerivedScan {
                    rel_id,
                    predicate,
                    blooms,
                    ..
                },
                SealedAux::None,
            ) => {
                let width = types.len();
                let full_layout = Layout::new(
                    (0..width)
                        .map(|i| ColumnId::new(*rel_id, i as u32))
                        .collect(),
                );
                let filters = fetch_filters(ctx, blooms, &full_layout)?;
                ChainOp::Derived {
                    node_id: node.id,
                    layout: full_layout,
                    predicate: predicate.clone(),
                    filters,
                }
            }
            (
                PhysicalNode::ScalarSubst {
                    pred, placeholder, ..
                },
                SealedAux::Scalar(value),
            ) => ChainOp::ScalarFilter {
                node_id: node.id,
                layout: input.layout.clone(),
                predicate: substitute_placeholder(pred, *placeholder, &value),
            },
            (
                PhysicalNode::Exchange {
                    kind: ExchangeKind::Gather,
                    ..
                },
                SealedAux::None,
            ) => ChainOp::Gather { node_id: node.id },
            _ => return Err(BfqError::internal("unexpected chain node/aux pairing")),
        };
        ops.push(op);
    }

    let chain = PreparedChain {
        source,
        ops,
        types,
        partitions,
        index_mode: ctx.options.index_mode,
        profile: ctx.options.exec.profile,
    };
    let partitions = if chain.gathered() {
        1
    } else {
        chain.partitions
    };
    Ok((
        PreparedChain {
            partitions,
            ..chain
        },
        morsels,
    ))
}

/// Sealed state of a chain node's blocking children.
enum SealedAux {
    None,
    Build(crate::executor::SealedBuild),
    Scalar(Datum),
}

fn seal_blocking(node: &Arc<PhysicalPlan>, ctx: &Arc<ExecContext>) -> Result<SealedAux> {
    match &node.node {
        PhysicalNode::HashJoin {
            inner,
            keys,
            builds,
            ..
        } => {
            let inner_data = execute_pipelined(inner, ctx)?;
            let started = ctx.options.exec.profile.then(std::time::Instant::now);
            let sealed = seal_build_side(ctx, inner, keys, builds, inner_data)?;
            if let Some(started) = started {
                ctx.stats
                    .record_build_ns(node.id, crate::data::elapsed_ns(started));
            }
            Ok(SealedAux::Build(sealed))
        }
        PhysicalNode::ScalarSubst { subquery, .. } => {
            let sub = execute_pipelined(subquery, ctx)?;
            let in_rows = sub.total_rows() as u64;
            let sub_chunk = exchange::gather(sub).partition_chunk(0)?;
            ctx.stats.buffer_shrink(in_rows);
            let value = if sub_chunk.rows() == 0 {
                Datum::Null
            } else {
                sub_chunk.column(0).get(0)
            };
            Ok(SealedAux::Scalar(value))
        }
        _ => Ok(SealedAux::None),
    }
}

// ---------------------------------------------------------------------------
// The morsel scheduler: workers claim morsels dynamically and drain the
// pipeline's sink themselves, each sink partition strictly in sequence,
// through a bounded reorder window.
// ---------------------------------------------------------------------------

/// What a pipeline feeds: partitions that each consume their share of every
/// morsel strictly in morsel sequence. The morsel workers drain the
/// partitions themselves, so two workers can consume two partitions at
/// once.
trait Sink: Send + Sync + 'static {
    /// One partition's share of one morsel's output.
    type Piece: Send + 'static;
    /// One partition's state.
    type Part: Send + 'static;

    /// Cut the output of morsel `seq` (landing in worker-partition
    /// `partition`) into one piece per sink partition. Runs inside the
    /// morsel, on the worker that processed it. A morsel without output
    /// chunks is neither split nor consumed: it would change no sink.
    fn split(
        &self,
        seq: usize,
        partition: usize,
        chunks: Vec<Chunk>,
        scratch: &mut MorselScratch,
    ) -> Result<Vec<Self::Piece>>;

    /// Consume a partition's next piece. Returning `Ok(false)` cancels the
    /// remaining morsels (LIMIT early-exit). A morsel's rows are counted
    /// into the buffer gauge when it is published; `consume` owns the
    /// matching release (sinks that discard rows shrink, collecting sinks
    /// keep them counted).
    fn consume(&self, part: &mut Self::Part, piece: Self::Piece, stats: &ExecStats)
        -> Result<bool>;
}

/// A sink partition's entry for one morsel in the reorder queue.
enum Slot<I> {
    /// The morsel is not published yet.
    Pending,
    /// The morsel had no output: there is nothing to consume.
    Empty,
    /// The partition's piece of the morsel's output.
    Piece(I),
}

/// The reorder state every worker shares, under one short-held lock.
struct Sched<I> {
    /// Per sink partition, its slots by sequence from `next[p]` on.
    ready: Vec<VecDeque<Slot<I>>>,
    /// Per sink partition, the next sequence it consumes.
    next: Vec<usize>,
    /// Live reorder-window size in morsels. Starts narrow and doubles
    /// under sustained stall pressure, up to [`Shared::window_cap`] —
    /// trading bounded extra memory for fewer worker stalls when morsel
    /// costs are skewed.
    window: usize,
    /// Stalls observed since the pipeline started (drives window growth).
    stalls: u64,
    /// Workers asleep on the condvar: publishes and drains wake them only
    /// when there are any.
    waiting: usize,
}

impl<I> Sched<I> {
    /// The slowest partition's next sequence: where the window starts.
    fn low(&self) -> usize {
        self.next.iter().copied().min().unwrap_or_default()
    }

    /// Whether morsel `seq` is beyond the window.
    fn held(&self, seq: usize) -> bool {
        seq >= self.low() + self.window
    }

    /// Queue morsel `seq`'s pieces, one per partition, or an empty slot in
    /// each partition for a morsel without output.
    fn publish(&mut self, seq: usize, pieces: Option<Vec<I>>) {
        let mut pieces = pieces.map(Vec::into_iter);
        for p in 0..self.next.len() {
            let slot = match &mut pieces {
                Some(pieces) => Slot::Piece(pieces.next().expect("one piece per partition")),
                None => Slot::Empty,
            };
            let at = seq - self.next[p];
            let queue = &mut self.ready[p];
            if queue.len() <= at {
                queue.resize_with(at + 1, || Slot::Pending);
            }
            queue[at] = slot;
            self.skip_empty(p);
        }
    }

    /// Step partition `p` past the morsels at its front that had no output.
    fn skip_empty(&mut self, p: usize) {
        while let Some(Slot::Empty) = self.ready[p].front() {
            self.ready[p].pop_front();
            self.next[p] += 1;
        }
    }

    /// Whether partition `p`'s next piece is published.
    fn ready_at(&self, p: usize) -> bool {
        matches!(self.ready[p].front(), Some(Slot::Piece(_)))
    }

    /// Take partition `p`'s next piece, which [`Sched::ready_at`] saw
    /// published.
    fn take(&mut self, p: usize) -> I {
        let Some(Slot::Piece(piece)) = self.ready[p].pop_front() else {
            unreachable!("partition {p} has no published piece")
        };
        self.next[p] += 1;
        self.skip_empty(p);
        piece
    }
}

/// One pipeline run's shared state: the morsel cursor, the sink's
/// partitions, the reorder state and the condvar blocked workers wait on.
/// The pool's workers each hold it through an `Arc`.
struct Shared<S: Sink> {
    chain: PreparedChain,
    morsels: Vec<Morsel>,
    ctx: Arc<ExecContext>,
    sink: Arc<S>,
    parts: Vec<Mutex<S::Part>>,
    claim: AtomicUsize,
    cancel: AtomicBool,
    sched: Mutex<Sched<S::Piece>>,
    /// Where held workers sleep; woken by publishes, by drains that move
    /// the window, and by [`Shared::stop`].
    cond: Condvar,
    /// Hard ceiling for the adaptive window: `workers ×
    /// REORDER_WINDOW_PER_WORKER` morsels — the memory bound
    /// `peak_buffered_rows` is asserted against.
    window_cap: usize,
    workers: usize,
}

/// The held reorder lock of a pipeline run.
type SchedGuard<'s, S> = MutexGuard<'s, Sched<<S as Sink>::Piece>>;

impl<S: Sink> Shared<S> {
    fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// Stop every worker. The flag is set under the reorder lock, so a
    /// worker about to wait cannot miss the wake-up.
    fn stop(&self) {
        let sched = self.sched.lock();
        self.cancel.store(true, Ordering::Release);
        drop(sched);
        self.cond.notify_all();
    }

    /// Wake the workers asleep at the window, if any; `sched` is the held
    /// reorder lock, so none can fall asleep unseen.
    fn wake(&self, sched: &Sched<S::Piece>) {
        if sched.waiting > 0 {
            self.cond.notify_all();
        }
    }

    /// One worker: claim, process and split morsels, publish the pieces in
    /// sequence, and drain whatever partitions it can lock.
    fn work(&self, w: usize, scratch: &mut MorselScratch) -> Result<()> {
        let (chain, ctx) = (&self.chain, &self.ctx);
        loop {
            if self.cancelled() {
                return Ok(());
            }
            let seq = self.claim.fetch_add(1, Ordering::Relaxed);
            let Some(morsel) = self.morsels.get(seq) else {
                return Ok(());
            };
            // Cancellation/timeout/budget are polled at the claim, so
            // interruption latency is bounded by one morsel's work per
            // worker; an interrupted worker takes the same stop path as a
            // failed morsel. A morsel without output (a pruned chunk, say)
            // is published as such, without a sink split.
            let processed = ctx
                .check_interrupts()
                .and_then(|()| chain.process(morsel, &ctx.stats, scratch))
                .and_then(|chunks| {
                    let rows: u64 = chunks.iter().map(|c| c.rows() as u64).sum();
                    let partition = chain.output_partition(morsel);
                    let pieces = (!chunks.is_empty())
                        .then(|| self.sink.split(seq, partition, chunks, scratch))
                        .transpose()?;
                    Ok((pieces, rows))
                });
            let (pieces, rows) = match processed {
                Ok(out) => out,
                Err(e) => {
                    self.stop();
                    return Err(e);
                }
            };
            let mut sched = self.sched.lock();
            if !self.cancelled() && sched.held(seq) {
                // Count the stall, and widen the window (up to the cap)
                // when stalls keep coming — a whole pool's worth of stalls
                // per doubling.
                ctx.stats.note_window_stall();
                sched.stalls += 1;
                if sched.stalls.is_multiple_of(4 * self.workers as u64)
                    && sched.window < self.window_cap
                {
                    sched.window = (sched.window * 2).min(self.window_cap);
                    self.wake(&sched);
                }
            }
            while !self.cancelled() && sched.held(seq) {
                // Held at the window: help drain, then sleep until a
                // publish or a drain changes what there is to do.
                sched = self.drain(w, sched)?;
                if !self.cancelled() && sched.held(seq) {
                    sched.waiting += 1;
                    self.cond.wait(&mut sched);
                    sched.waiting -= 1;
                }
            }
            if self.cancelled() {
                return Ok(());
            }
            ctx.stats.buffer_grow(rows);
            sched.publish(seq, pieces);
            self.wake(&sched);
            drop(self.drain(w, sched)?);
        }
    }

    /// Consume the published pieces of every partition this worker can
    /// lock, each in sequence, starting at partition `w` so that workers
    /// spread over the partitions. Called and returns with the reorder lock
    /// held; it is let go around each consume.
    fn drain<'s>(&'s self, w: usize, mut sched: SchedGuard<'s, S>) -> Result<SchedGuard<'s, S>> {
        let n = self.parts.len();
        for p in (0..n).map(|k| (w + k) % n) {
            if !sched.ready_at(p) {
                continue;
            }
            let Some(mut part) = self.parts[p].try_lock() else {
                continue;
            };
            while !self.cancelled() && sched.ready_at(p) {
                let low = sched.low();
                let piece = sched.take(p);
                if sched.low() != low {
                    self.wake(&sched);
                }
                drop(sched);
                let consumed = self.sink.consume(&mut part, piece, &self.ctx.stats);
                if !matches!(consumed, Ok(true)) {
                    self.stop();
                }
                consumed?;
                sched = self.sched.lock();
            }
            // Let go of the partition under the reorder lock: a piece
            // published after the last look finds it free.
            drop(part);
        }
        Ok(sched)
    }
}

/// The worker count of a pipeline over `morsels` morsels: the session's
/// dop, but never more workers than morsels.
fn chain_workers(ctx: &ExecContext, morsels: usize) -> usize {
    ctx.options.dop.min(morsels).max(1)
}

/// Run a prepared chain over its morsels into `sink`, whose partitions
/// start as `parts`; returns the partitions' final states. The
/// [`chain_workers`] workers are the items of one job on the engine's
/// [`crate::parallel::WorkerPool`]: worker 0 is the calling thread, and so
/// is every worker no helper has started by the time it is done, so a
/// dop-1 pipeline (or a short one) runs on the caller alone.
fn run_chain<S: Sink>(
    chain: PreparedChain,
    morsels: Vec<Morsel>,
    ctx: &Arc<ExecContext>,
    sink: Arc<S>,
    parts: Vec<S::Part>,
) -> Result<Vec<S::Part>> {
    let workers = chain_workers(ctx, morsels.len());
    let window_cap = workers * REORDER_WINDOW_PER_WORKER;
    let shared = Arc::new(Shared {
        chain,
        morsels,
        ctx: Arc::clone(ctx),
        sink,
        claim: AtomicUsize::new(0),
        cancel: AtomicBool::new(false),
        sched: Mutex::new(Sched {
            ready: parts.iter().map(|_| VecDeque::new()).collect(),
            next: vec![0; parts.len()],
            // Start at a quarter of the cap (at least one morsel per
            // worker): smooth pipelines never pay for the full window.
            window: (window_cap / 4).max(workers),
            stalls: 0,
            waiting: 0,
        }),
        parts: parts.into_iter().map(Mutex::new).collect(),
        cond: Condvar::new(),
        window_cap,
        workers,
    });

    // An unwinding worker (a panic in an operator or in the sink) must stop
    // the others and wake every waiter — otherwise workers blocked on the
    // condvar would wait forever and the job would hang the query instead
    // of surfacing the panic.
    struct StopOnPanic<'s, S: Sink>(&'s Shared<S>);
    impl<S: Sink> Drop for StopOnPanic<'_, S> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.stop();
            }
        }
    }
    let worker = {
        let shared = Arc::clone(&shared);
        move |w: usize| -> Result<()> {
            let _stop_on_panic = StopOnPanic(&shared);
            // One scratch per worker, reused for every morsel it claims:
            // steady-state probing allocates nothing.
            let mut scratch = MorselScratch::new();
            let out = shared.work(w, &mut scratch);
            crate::util::flush_scratch_stats(&shared.ctx.stats, &mut scratch);
            out
        }
    };
    ctx.options.pool.run(workers, worker)?;
    let shared = Arc::into_inner(shared)
        .ok_or_else(|| BfqError::internal("a pipeline worker outlived its job"))?;
    Ok(shared.parts.into_iter().map(Mutex::into_inner).collect())
}

/// Collects a chain's output by partition of origin, in source order
/// within each partition: one sink partition holding every output
/// partition.
struct CollectSink;

impl Sink for CollectSink {
    type Piece = (usize, Vec<Chunk>);
    type Part = Vec<Vec<Chunk>>;

    fn split(
        &self,
        _seq: usize,
        partition: usize,
        chunks: Vec<Chunk>,
        _scratch: &mut MorselScratch,
    ) -> Result<Vec<Self::Piece>> {
        Ok(vec![(partition, chunks)])
    }

    fn consume(
        &self,
        part: &mut Self::Part,
        (partition, chunks): Self::Piece,
        _stats: &ExecStats,
    ) -> Result<bool> {
        // Rows stay counted in the buffer gauge: the collected output is
        // the materialized input of the consuming breaker.
        part[partition].extend(chunks);
        Ok(true)
    }
}

/// Streaming LIMIT: keeps morsel outputs in sequence until `n` rows
/// arrived, then cancels the pipeline. One sink partition.
struct LimitSink {
    n: usize,
}

impl Sink for LimitSink {
    type Piece = Vec<Chunk>;
    /// The kept chunks and their rows.
    type Part = (Vec<Chunk>, usize);

    fn split(
        &self,
        _seq: usize,
        _partition: usize,
        chunks: Vec<Chunk>,
        _scratch: &mut MorselScratch,
    ) -> Result<Vec<Self::Piece>> {
        Ok(vec![chunks])
    }

    fn consume(
        &self,
        (kept, rows_seen): &mut Self::Part,
        chunks: Self::Piece,
        stats: &ExecStats,
    ) -> Result<bool> {
        stats.buffer_shrink(chunks.iter().map(|c| c.rows() as u64).sum());
        for chunk in chunks {
            if *rows_seen < self.n {
                *rows_seen += chunk.rows();
                kept.push(chunk);
            }
        }
        Ok(*rows_seen < self.n)
    }
}

/// Hash aggregation: one sink partition per worker, rows routed by key
/// hash inside the morsel (see [`crate::agg`]).
impl Sink for AggSink {
    type Piece = AggPiece;
    type Part = AggPart;

    fn split(
        &self,
        seq: usize,
        _partition: usize,
        chunks: Vec<Chunk>,
        scratch: &mut MorselScratch,
    ) -> Result<Vec<Self::Piece>> {
        let seq =
            u32::try_from(seq).map_err(|_| BfqError::Execution("more than 2^32 morsels".into()))?;
        AggSink::split(self, seq, &chunks, &mut scratch.group_tmp)
    }

    fn consume(
        &self,
        part: &mut Self::Part,
        piece: Self::Piece,
        stats: &ExecStats,
    ) -> Result<bool> {
        AggSink::consume(self, part, &piece)?;
        stats.buffer_shrink(piece.rows());
        Ok(true)
    }
}

/// Run a chain into a collecting sink: [`PartitionedData`] by partition
/// of origin, in source order within each partition.
fn run_chain_collect(head: &Arc<PhysicalPlan>, ctx: &Arc<ExecContext>) -> Result<PartitionedData> {
    let (chain, morsels) = prepare_chain(head, ctx)?;
    let empty = vec![Vec::new(); chain.partitions];
    let (sealed_rows, types) = (chain.sealed_rows(), chain.types.clone());
    let collected = run_chain(chain, morsels, ctx, Arc::new(CollectSink), vec![empty])?;
    let [partitions] = <[_; 1]>::try_from(collected)
        .map_err(|_| BfqError::internal("collect sink has one partition"))?;
    ctx.stats.buffer_shrink(sealed_rows);
    Ok(PartitionedData { types, partitions })
}

/// Execute a plan to completion, gathering the result into one chunk.
///
/// Every pipeline, the final one included, runs on the worker pool;
/// intermediate materialization stays bounded by the reorder window
/// wherever a sink that keeps no rows (aggregation, LIMIT) consumes a
/// pipeline.
pub fn execute_plan(
    plan: &Arc<PhysicalPlan>,
    catalog: Arc<Catalog>,
    options: ExecOptions,
) -> Result<QueryOutput> {
    let ctx = Arc::new(ExecContext::with_options(catalog, options));
    let data = execute_pipelined(plan, &ctx)?;
    let chunk = data.into_single_chunk()?;
    Ok(QueryOutput {
        chunk,
        stats: sole_context(ctx)?.stats,
    })
}

/// The query's context once every pipeline has run: no pool job refers to
/// it any more.
fn sole_context(ctx: Arc<ExecContext>) -> Result<ExecContext> {
    Arc::into_inner(ctx).ok_or_else(|| BfqError::internal("a pool job outlived its query"))
}

/// Recursively execute `plan`: streamable chains as morsel pipelines,
/// with breakers sealing their inputs.
pub(crate) fn execute_pipelined(
    plan: &Arc<PhysicalPlan>,
    ctx: &Arc<ExecContext>,
) -> Result<PartitionedData> {
    // Breaker nodes are profiled inclusively: the span covers the breaker's
    // own work *and* its input pipelines (chain ops inside those pipelines
    // additionally self-report through the per-morsel path).
    let started = ctx.options.exec.profile.then(std::time::Instant::now);
    match &plan.node {
        // Streamable heads and bare scans: one fused pipeline into a
        // collecting sink.
        PhysicalNode::Scan { .. }
        | PhysicalNode::Filter { .. }
        | PhysicalNode::Project { .. }
        | PhysicalNode::HashJoin { .. }
        | PhysicalNode::DerivedScan { .. }
        | PhysicalNode::ScalarSubst { .. } => run_chain_collect(plan, ctx),

        PhysicalNode::OneRow => {
            let out = PartitionedData {
                types: vec![],
                partitions: vec![vec![Chunk::of_rows(1)]],
            };
            seal_node(plan, &out, 0, ctx, started);
            Ok(out)
        }

        PhysicalNode::Exchange {
            kind: ExchangeKind::Gather,
            ..
        } => run_chain_collect(plan, ctx),

        PhysicalNode::Exchange { input, kind } => {
            let data = execute_pipelined(input, ctx)?;
            let in_rows = data.total_rows() as u64;
            let out = match kind {
                // Gather exchanges were already routed to the fused chain
                // path by the arm above.
                ExchangeKind::Gather => unreachable!("gather runs fused in a pipeline chain"),
                ExchangeKind::Broadcast => exchange::broadcast(data, ctx.options.dop),
                ExchangeKind::Repartition(cols) => exchange::repartition(
                    &ctx.options.pool,
                    data,
                    &input.layout,
                    cols,
                    ctx.options.dop,
                )?,
            };
            seal_node(plan, &out, in_rows, ctx, started);
            Ok(out)
        }

        PhysicalNode::HashAgg {
            input,
            group_by,
            aggs,
            having,
            est_groups,
        } => {
            // The blocking sink par excellence — but its input pipeline
            // feeds it morsel by morsel instead of materializing first, and
            // the workers fold the morsels themselves: one hash partition
            // per worker, each folding its groups' rows in sequence order,
            // so float accumulation order is a function of the plan and dop
            // alone.
            let (chain, morsels) = prepare_chain(input, ctx)?;
            let workers = chain_workers(ctx, morsels.len());
            let sink = Arc::new(AggSink::new(
                &input.layout,
                &chain.types,
                group_by,
                aggs,
                workers,
            )?);
            let parts = (0..sink.partitions())
                .map(|_| {
                    let mut part = sink.partition();
                    sink.reserve(&mut part, *est_groups, input.est_rows);
                    part
                })
                .collect();
            let sealed_rows = chain.sealed_rows();
            let parts = run_chain(chain, morsels, ctx, Arc::clone(&sink), parts)?;
            ctx.stats.buffer_shrink(sealed_rows);
            let out = sink.finish(parts, having, &plan.layout)?;
            let types = output_types(&out);
            let out = PartitionedData {
                types,
                partitions: vec![vec![out]],
            };
            seal_node(plan, &out, 0, ctx, started);
            Ok(out)
        }

        PhysicalNode::Sort { input, keys, limit } => {
            let data = execute_pipelined(input, ctx)?;
            let in_rows = data.total_rows() as u64;
            let types = data.types.clone();
            let chunk = exchange::gather(data).partition_chunk(0)?;
            let sorted = sort_chunk(&chunk, &input.layout, keys, *limit)?;
            let out = PartitionedData {
                types,
                partitions: vec![vec![sorted]],
            };
            seal_node(plan, &out, in_rows, ctx, started);
            Ok(out)
        }

        PhysicalNode::Limit { input, n } => {
            // Streaming LIMIT: consume morsel outputs in order and cancel
            // the pipeline the moment enough rows arrived.
            let (chain, morsels) = prepare_chain(input, ctx)?;
            let (sealed_rows, types) = (chain.sealed_rows(), chain.types.clone());
            let limit = Arc::new(LimitSink { n: *n });
            let kept = run_chain(chain, morsels, ctx, limit, vec![(Vec::new(), 0)])?;
            let collected: Vec<Chunk> = kept.into_iter().flat_map(|(chunks, _)| chunks).collect();
            ctx.stats.buffer_shrink(sealed_rows);
            let chunk = if collected.is_empty() {
                Chunk::new(
                    types
                        .iter()
                        .map(|dt| Arc::new(Column::nulls(*dt, 0)))
                        .collect(),
                )?
            } else {
                Chunk::concat(&collected)?
            };
            let keep = (*n).min(chunk.rows());
            let sel: Vec<u32> = (0..keep as u32).collect();
            let out = PartitionedData {
                types,
                partitions: vec![vec![chunk.take(&sel)]],
            };
            seal_node(plan, &out, 0, ctx, started);
            Ok(out)
        }

        PhysicalNode::NestLoopJoin {
            outer,
            inner,
            kind,
            predicate,
        } => {
            let inner_data = execute_pipelined(inner, ctx)?;
            let outer_data = execute_pipelined(outer, ctx)?;
            let in_rows = (inner_data.total_rows() + outer_data.total_rows()) as u64;
            let joined_layout = outer.layout.concat(&inner.layout);
            let out = crate::join::nestloop_join(
                &ctx.options.pool,
                outer_data,
                inner_data,
                *kind,
                predicate.clone(),
                joined_layout,
            )?;
            seal_node(plan, &out, in_rows, ctx, started);
            Ok(out)
        }
    }
}

/// Record a breaker node's output rows and settle the buffer gauge: its
/// output is now materialized, its inputs released. When profiling, the
/// breaker's inclusive wall time (from pipeline start to seal) lands in
/// the node profile with `morsels = 0` — breakers consume whole inputs,
/// not morsels.
fn seal_node(
    plan: &Arc<PhysicalPlan>,
    out: &PartitionedData,
    in_rows: u64,
    ctx: &ExecContext,
    started: Option<std::time::Instant>,
) {
    let logical = logical_rows_of(&plan.node, out);
    ctx.stats.record(plan.id, logical);
    ctx.stats.buffer_grow(logical);
    ctx.stats.buffer_shrink(in_rows);
    if let Some(started) = started {
        ctx.stats
            .record_node_profile(plan.id, crate::data::elapsed_ns(started), 0);
    }
}

// ---------------------------------------------------------------------------
// Incremental result delivery: the final pipeline pulled by the consumer.
// ---------------------------------------------------------------------------

/// How the remaining chunks are produced.
enum StreamState {
    /// The final pipeline's chain: one morsel is processed per pull.
    Pipeline {
        chain: Box<PreparedChain>,
        morsels: Vec<Morsel>,
        /// Next morsel to process.
        next: usize,
        /// Chunks produced by the current morsel, not yet handed out.
        pending: VecDeque<Chunk>,
        /// The consumer thread's reusable probe buffers.
        scratch: Box<MorselScratch>,
    },
    /// The plan root is a pipeline breaker (aggregate, sort, …): it ran to
    /// completion at stream creation; chunks are handed out as-is.
    Materialized(VecDeque<Chunk>),
    /// A morsel failed; the stream is fused.
    Finished,
}

/// An iterator over a query's result chunks.
///
/// Yields `Result<Chunk>`; after the first error (or after exhaustion) the
/// stream is fused. Use [`ChunkStream::gather`] to drain into the single
/// chunk a non-streaming execution would have produced.
pub struct ChunkStream {
    ctx: ExecContext,
    types: Vec<DataType>,
    state: StreamState,
}

impl ChunkStream {
    /// Output column types, available before any chunk is pulled.
    pub fn types(&self) -> &[DataType] {
        &self.types
    }

    /// Runtime statistics recorded so far. Counts for the final pipeline's
    /// operators grow as morsels are pulled; everything below the last
    /// breaker is final once the stream exists.
    pub fn stats(&self) -> &ExecStats {
        &self.ctx.stats
    }

    /// Drain the remaining chunks into one gathered chunk plus the final
    /// statistics — the classic [`QueryOutput`] shape.
    pub fn gather(mut self) -> Result<QueryOutput> {
        let mut chunks = Vec::new();
        for chunk in self.by_ref() {
            chunks.push(chunk?);
        }
        let chunk = if chunks.is_empty() {
            Chunk::new(
                self.types
                    .iter()
                    .map(|dt| Arc::new(Column::nulls(*dt, 0)))
                    .collect(),
            )?
        } else {
            Chunk::concat(&chunks)?
        };
        Ok(QueryOutput {
            chunk,
            stats: self.ctx.stats,
        })
    }

    /// Consume the stream, returning the accumulated statistics.
    pub fn into_stats(self) -> ExecStats {
        self.ctx.stats
    }
}

impl Iterator for ChunkStream {
    type Item = Result<Chunk>;

    fn next(&mut self) -> Option<Result<Chunk>> {
        match &mut self.state {
            StreamState::Pipeline {
                chain,
                morsels,
                next,
                pending,
                scratch,
            } => loop {
                // Poll interruption before handing anything out: a
                // cancelled stream stops promptly even with chunks still
                // pending from the previous morsel.
                if let Err(e) = self.ctx.check_interrupts() {
                    self.state = StreamState::Finished;
                    return Some(Err(e));
                }
                if let Some(chunk) = pending.pop_front() {
                    return Some(Ok(chunk));
                }
                if *next >= morsels.len() {
                    return None;
                }
                let morsel = &morsels[*next];
                *next += 1;
                let result = chain.process(morsel, &self.ctx.stats, scratch);
                crate::util::flush_scratch_stats(&self.ctx.stats, scratch);
                match result {
                    Ok(chunks) => {
                        pending.extend(chunks.into_iter().filter(|c| !c.is_empty()));
                    }
                    Err(e) => {
                        self.state = StreamState::Finished;
                        return Some(Err(e));
                    }
                }
            },
            StreamState::Materialized(chunks) => chunks.pop_front().map(Ok),
            StreamState::Finished => None,
        }
    }
}

/// Execute a plan, returning its results as an incremental [`ChunkStream`].
///
/// The stream is a real incremental consumer of the plan's *final
/// pipeline*: everything below the last pipeline breaker executes here
/// (hash-join builds must see their whole build side, and Bloom filters
/// must be complete before probe scans start — paper §3.9), but the final
/// streamable chain — typically scan → probe → project — runs **one morsel
/// per pull**, on the consumer's thread. No pool job outlives this call,
/// so dropping the stream mid-way leaves no work behind; undrained morsels
/// are simply never scanned.
///
/// Chunk order is partition-major: concatenating the stream yields exactly
/// the chunk [`execute_plan`] gathers for the same plan and options.
pub fn execute_plan_stream(
    plan: &Arc<PhysicalPlan>,
    catalog: Arc<Catalog>,
    options: ExecOptions,
) -> Result<ChunkStream> {
    let ctx = Arc::new(ExecContext::with_options(catalog, options));
    if is_streamable(&plan.node) || matches!(plan.node, PhysicalNode::Scan { .. }) {
        // Seal everything below the final pipeline, then pull lazily.
        let (chain, morsels) = prepare_chain(plan, &ctx)?;
        let types = chain.types.clone();
        Ok(ChunkStream {
            ctx: sole_context(ctx)?,
            types,
            state: StreamState::Pipeline {
                chain: Box::new(chain),
                morsels,
                next: 0,
                pending: VecDeque::new(),
                scratch: Box::new(MorselScratch::new()),
            },
        })
    } else {
        let data = execute_pipelined(plan, &ctx)?;
        let types = data.types.clone();
        let pending: VecDeque<Chunk> = data
            .partitions
            .into_iter()
            .flatten()
            .filter(|c| !c.is_empty())
            .collect();
        Ok(ChunkStream {
            ctx: sole_context(ctx)?,
            types,
            state: StreamState::Materialized(pending),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_common::{ColumnId, TableId};
    use bfq_expr::BinOp;
    use bfq_plan::OutputColumn;
    use bfq_storage::{Field, Schema};

    fn fixture() -> (Arc<Catalog>, TableId) {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let mk_chunk =
            |vals: &[i64]| Chunk::new(vec![Arc::new(Column::Int64(vals.to_vec(), None))]).unwrap();
        let table = Table::new(
            "t",
            schema,
            vec![mk_chunk(&[1, 2, 3]), mk_chunk(&[4, 5]), mk_chunk(&[6])],
        )
        .unwrap();
        let mut cat = Catalog::new();
        let id = cat.register(table, vec![0]).unwrap();
        (Arc::new(cat), id)
    }

    fn project_plan(base: TableId) -> Arc<PhysicalPlan> {
        let rel = TableId(1 << 24);
        let col = ColumnId::new(rel, 0);
        let scan = PhysicalPlan::new(
            PhysicalNode::Scan {
                base,
                rel_id: rel,
                alias: "t".into(),
                projection: vec![0],
                predicate: None,
                blooms: vec![],
            },
            Layout::new(vec![col]),
            6.0,
            Distribution::AnyPartitioned,
        );
        let out_col = ColumnId::new(TableId((1 << 24) + 1), 0);
        let doubled =
            bfq_expr::Expr::binary(BinOp::Mul, bfq_expr::Expr::col(col), bfq_expr::Expr::int(2));
        let project = PhysicalPlan::new(
            PhysicalNode::Project {
                input: scan,
                exprs: vec![OutputColumn {
                    expr: doubled,
                    name: "k2".into(),
                    id: out_col,
                }],
            },
            Layout::new(vec![out_col]),
            6.0,
            Distribution::Single,
        );
        let mut next = 1;
        project.with_ids(&mut next)
    }

    #[test]
    fn stream_concat_equals_gathered_output() {
        let (catalog, base) = fixture();
        let plan = project_plan(base);
        let gathered = execute_plan(&plan, catalog.clone(), ExecOptions::with_dop(2)).unwrap();
        let stream = execute_plan_stream(&plan, catalog.clone(), ExecOptions::with_dop(2)).unwrap();
        assert_eq!(stream.types(), &[DataType::Int64]);
        let chunks: Vec<Chunk> = stream.map(|c| c.unwrap()).collect();
        assert!(chunks.len() > 1, "multiple chunks emitted incrementally");
        let concat = Chunk::concat(&chunks).unwrap();
        assert_eq!(concat.rows(), gathered.chunk.rows());
        for i in 0..concat.rows() {
            assert_eq!(concat.row(i), gathered.chunk.row(i));
        }
        // Partition-major at dop 2: chunks 0 and 2, then chunk 1, doubled.
        let doubled: Vec<i64> = concat.column(0).as_i64().unwrap().to_vec();
        assert_eq!(doubled, [2, 4, 6, 12, 8, 10]);
    }

    #[test]
    fn stream_records_root_rows_incrementally() {
        let (catalog, base) = fixture();
        let plan = project_plan(base);
        let root_id = plan.id;
        let mut stream = execute_plan_stream(&plan, catalog, ExecOptions::with_dop(2)).unwrap();
        let first = stream.next().unwrap().unwrap();
        let after_one = stream.stats().actual(root_id).unwrap_or(0);
        assert_eq!(after_one, first.rows() as u64, "stats grow with pulls");
        let out = stream.gather().unwrap();
        assert_eq!(out.stats.actual(root_id), Some(6));
    }

    #[test]
    fn dropping_a_stream_leaves_morsels_unscanned() {
        let (catalog, base) = fixture();
        let plan = project_plan(base);
        let root_id = plan.id;
        let mut stream =
            execute_plan_stream(&plan, catalog.clone(), ExecOptions::with_dop(2)).unwrap();
        let _first = stream.next().unwrap().unwrap();
        let pulled = stream.stats().actual(root_id).unwrap_or(0);
        drop(stream);
        // Only the pulled morsel ever ran; no background worker drained the
        // rest behind our back, and the engine is still fully usable.
        assert!(pulled < 6);
        let again = execute_plan(&plan, catalog, ExecOptions::with_dop(2)).unwrap();
        assert_eq!(again.chunk.rows(), 6);
    }

    #[test]
    fn gather_of_empty_stream_is_typed() {
        let (catalog, base) = fixture();
        let rel = TableId(1 << 24);
        let col = ColumnId::new(rel, 0);
        // k < 0 matches nothing.
        let pred =
            bfq_expr::Expr::binary(BinOp::Lt, bfq_expr::Expr::col(col), bfq_expr::Expr::int(0));
        let scan = PhysicalPlan::new(
            PhysicalNode::Scan {
                base,
                rel_id: rel,
                alias: "t".into(),
                projection: vec![0],
                predicate: Some(pred),
                blooms: vec![],
            },
            Layout::new(vec![col]),
            0.0,
            Distribution::AnyPartitioned,
        );
        let mut next = 1;
        let plan = scan.with_ids(&mut next);
        let out = execute_plan_stream(&plan, catalog, ExecOptions::with_dop(2))
            .unwrap()
            .gather()
            .unwrap();
        assert_eq!(out.chunk.rows(), 0);
        assert_eq!(out.chunk.width(), 1);
    }
}
