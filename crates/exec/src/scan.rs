//! Table scans with predicate evaluation, Bloom filter application, and
//! chunk-level data skipping.
//!
//! Before any row-level work on a chunk, the scan consults the table's
//! per-chunk index (`bfq-index`, built at load time) under the session's
//! [`IndexMode`]:
//!
//! 1. zone maps vs the scan's local predicate — a chunk whose min/max can
//!    not satisfy the predicate is skipped whole;
//! 2. chunk Bloom probes — equality literals in the predicate, and the
//!    build-key hashes shipped with small runtime filters, are probed
//!    against the chunk's Bloom index.
//!
//! Skipped chunks are counted per scan node in
//! [`crate::data::ScanPruneStats`].

use std::sync::Arc;
use std::time::Duration;

use bfq_bloom::RuntimeFilter;
use bfq_common::{BfqError, ColumnId, Result, TableId};
use bfq_expr::{eval_predicate, Expr, Layout};
use bfq_index::{chunk_prune, rf_chunk_prune, ChunkIndex, IndexMode, PruneOutcome};
use bfq_plan::BloomApply;
use bfq_storage::{Chunk, Column, Schema};

use crate::data::ScanPruneStats;
use crate::executor::ExecContext;
use crate::util::{select_rows, MorselScratch};

/// A runtime filter ready to probe: raw `FilterId`, the filter, and the
/// apply column's slot in the scan layout. The id rides along so probe
/// sites can attribute observed pass counts to the planner's filter.
pub(crate) type ScanFilter = (u32, Arc<RuntimeFilter>, usize);

/// Wait for every filter a scan needs. This is the paper's §3.9 contract:
/// "table scans wait for all Bloom filter partitions to become available
/// before scanning can proceed".
pub(crate) fn fetch_filters(
    ctx: &ExecContext,
    blooms: &[BloomApply],
    layout: &Layout,
) -> Result<Vec<ScanFilter>> {
    blooms
        .iter()
        .map(|b| {
            let slot = layout.slot_of(b.column).ok_or_else(|| {
                BfqError::internal(format!("bloom apply column {} not in scan", b.column))
            })?;
            let filter = ctx
                .hub
                .wait_get(b.filter, Duration::from_millis(ctx.filter_wait_ms))
                .ok_or_else(|| {
                    BfqError::Execution(format!(
                        "bloom filter {} was never built (planning bug)",
                        b.filter
                    ))
                })?;
            Ok((b.filter.0, filter, slot))
        })
        .collect()
}

/// Type-check a scan predicate once, before any chunk is read or skipped,
/// by evaluating it over zero rows of the table's schema. The evaluator
/// resolves operand types before it reads a row, so a mistyped conjunct
/// fails here even when chunk skipping, or an empty table, would keep it
/// from ever running: errors never depend on the data or the index mode.
pub(crate) fn check_predicate(predicate: &Expr, schema: &Schema, layout: &Layout) -> Result<()> {
    let columns = schema.fields().iter();
    let empty = columns.map(|f| Arc::new(Column::nulls(f.data_type, 0)));
    eval_predicate(predicate, &Chunk::new(empty.collect())?, layout).map(drop)
}

/// Decide whether a whole chunk can be skipped, attributing the decision to
/// the tier that proved it. Returns `true` when the chunk is skippable.
pub(crate) fn prune_chunk(
    index: &ChunkIndex,
    rel_id: TableId,
    predicate: &Option<Expr>,
    filters: &[ScanFilter],
    mode: IndexMode,
    prune: &mut ScanPruneStats,
) -> bool {
    // Local predicate vs zone maps and chunk Blooms. Scan predicates
    // reference this relation's columns as (rel_id, schema ordinal); any
    // other relation's column must not resolve (it would read the wrong
    // column's zone map and could prove a false skip).
    if let Some(pred) = predicate {
        let resolve = |c: ColumnId| (c.table == rel_id).then_some(c.index as usize);
        match chunk_prune(index, pred, &resolve, mode) {
            PruneOutcome::SkipZone => {
                prune.skipped_zonemap += 1;
                return true;
            }
            PruneOutcome::SkipBloom => {
                prune.skipped_bloom += 1;
                return true;
            }
            PruneOutcome::Keep => {}
        }
    }
    // Runtime-filter build keys vs the chunk index on the apply column.
    for (_, filter, slot) in filters {
        let Some(ci) = index.columns.get(*slot) else {
            continue;
        };
        if rf_chunk_prune(ci, filter.key_hashes(), mode) != PruneOutcome::Keep {
            prune.skipped_rfilter += 1;
            return true;
        }
    }
    false
}

/// Scan one chunk: local predicate, then every Bloom filter (batched,
/// allocation-free through the worker's scratch), then the gather of the
/// projected columns only — columns the plan does not read are never
/// copied.
pub(crate) fn scan_chunk(
    chunk: &Chunk,
    full_layout: &Layout,
    predicate: &Option<Expr>,
    filters: &[ScanFilter],
    projection: Option<&[u32]>,
    scratch: &mut MorselScratch,
) -> Result<Option<Chunk>> {
    if chunk.is_empty() {
        return Ok(None);
    }
    let pred_sel: Option<Vec<u32>> = match predicate {
        Some(p) => Some(eval_predicate(p, chunk, full_layout)?),
        None => None,
    };
    if pred_sel.as_ref().is_some_and(|s| s.is_empty()) {
        return Ok(None);
    }
    // Filters probe the column hashed once per chunk, ping-ponging the
    // surviving selection between the scratch's two reusable buffers;
    // `None` means "all rows", so a predicate-free scan never materializes
    // an identity selection vector.
    let mut cur = std::mem::take(&mut scratch.probe.sel_a);
    let mut next = std::mem::take(&mut scratch.probe.sel_b);
    let mut applied = false;
    for (filter_id, filter, slot) in filters {
        let sel: Option<&[u32]> = if applied {
            Some(&cur)
        } else {
            pred_sel.as_deref()
        };
        if sel.is_some_and(|s| s.is_empty()) {
            break;
        }
        let rows_in = sel.map_or(chunk.rows(), <[u32]>::len) as u64;
        filter.probe_into(chunk.column(*slot), sel, &mut scratch.probe, &mut next);
        // Observed pass counts per filter — the runtime ground truth the
        // estimator's predicted pass fraction is judged against.
        scratch
            .profile
            .note_filter(*filter_id, rows_in, next.len() as u64);
        std::mem::swap(&mut cur, &mut next);
        applied = true;
    }
    let final_sel: Option<&[u32]> = if applied {
        Some(&cur)
    } else {
        pred_sel.as_deref()
    };
    // Project (sharing columns), then gather the survivors of what is left;
    // with no predicate and no filters the whole morsel passes through.
    let projected = match projection {
        Some(cols) => chunk.project(&cols.iter().map(|&c| c as usize).collect::<Vec<_>>()),
        None => chunk.clone(),
    };
    let out = match final_sel {
        Some([]) => None,
        Some(s) => Some(select_rows(&projected, s)),
        None => Some(projected),
    };
    scratch.probe.sel_a = cur;
    scratch.probe.sel_b = next;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_common::{DataType, Datum};
    use bfq_expr::BinOp;
    use bfq_storage::ColumnBuilder;

    const TYPES: [DataType; 5] = [
        DataType::Int64,
        DataType::Float64,
        DataType::Utf8,
        DataType::Date,
        DataType::Bool,
    ];

    fn col(i: usize) -> Expr {
        Expr::col(ColumnId::new(TableId(0), i as u32))
    }

    /// Twelve columns cycling through every type, each with NULLs at a
    /// different stride.
    fn wide_nullable_chunk(rows: usize) -> (Chunk, Layout) {
        let columns = (0..12).map(|c| {
            let dt = TYPES[c % TYPES.len()];
            let mut b = ColumnBuilder::new(dt);
            for i in 0..rows {
                let k = (i * 7 + c) % 13;
                let d = match dt {
                    _ if (i + c) % (c + 3) == 0 => Datum::Null,
                    DataType::Int64 => Datum::Int(k as i64),
                    DataType::Float64 => Datum::Float(k as f64 * 0.5),
                    DataType::Utf8 => Datum::str(format!("s{k}")),
                    DataType::Date => Datum::Date(9000 + k as i32),
                    DataType::Bool => Datum::Bool(k.is_multiple_of(2)),
                };
                b.push_datum(&d).unwrap();
            }
            Arc::new(b.finish())
        });
        let chunk = Chunk::new(columns.collect()).unwrap();
        let layout = Layout::new((0..12).map(|i| ColumnId::new(TableId(0), i)).collect());
        (chunk, layout)
    }

    #[test]
    fn project_then_take_equals_take_then_project() {
        let (chunk, layout) = wide_nullable_chunk(1000);
        let projection = [7u32, 2, 9, 4, 2];
        let slots: Vec<usize> = projection.iter().map(|&c| c as usize).collect();
        let some = Expr::binary(BinOp::Lt, col(0), Expr::int(6)).and(Expr::Like {
            expr: Box::new(col(2)),
            pattern: "s1%".into(),
            negated: true,
        });
        let all = Expr::binary(BinOp::GtEq, col(5), Expr::int(0)).or(Expr::Unary {
            op: bfq_expr::UnOp::IsNull,
            expr: Box::new(col(5)),
        });
        let none = Expr::binary(BinOp::Gt, col(0), Expr::int(99));
        let mut scratch = MorselScratch::new();
        let rows = |p: &Expr| eval_predicate(p, &chunk, &layout).unwrap().len();
        assert_eq!(rows(&all), chunk.rows());
        assert!((1..chunk.rows()).contains(&rows(&some)));
        for pred in [Some(some), Some(all), Some(none), None] {
            let got = scan_chunk(&chunk, &layout, &pred, &[], Some(&projection), &mut scratch);
            let sel = match &pred {
                Some(p) => eval_predicate(p, &chunk, &layout).unwrap(),
                None => (0..chunk.rows() as u32).collect(),
            };
            let want = chunk.take(&sel).project(&slots);
            match got.unwrap() {
                None => assert!(sel.is_empty()),
                Some(got) => {
                    assert_eq!((got.rows(), got.width()), (want.rows(), want.width()));
                    for (c, &slot) in slots.iter().enumerate() {
                        assert_eq!(got.column(c), want.column(c), "column {c}");
                        if sel.len() == chunk.rows() {
                            // Every row passed: the scan shares, never copies.
                            assert!(Arc::ptr_eq(got.column(c), chunk.column(slot)));
                        }
                    }
                }
            }
        }
    }
}
