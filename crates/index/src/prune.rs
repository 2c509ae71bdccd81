//! The conservative chunk-pruning evaluator.
//!
//! [`chunk_prune`] decides, from a chunk's index alone, whether a predicate
//! can possibly be TRUE for any row of the chunk. The contract is one-sided:
//! a *skip* answer must be a proof (no false negatives — property-tested),
//! while *keep* is always allowed. SQL three-valued logic works in the
//! evaluator's favor: a WHERE clause keeps only rows where the predicate is
//! TRUE, and no comparison is TRUE on a NULL input, so zone maps over
//! non-null values suffice.
//!
//! [`rf_chunk_prune`] is the runtime-filter counterpart: a scan that was
//! planned to apply a join Bloom filter (`BloomApply`) can skip a whole
//! chunk when the build side was small enough to ship its exact key hashes
//! and none of them hits the chunk's Bloom index.

use bfq_bloom::BLOOM_SEED;
use bfq_common::hash::{hash_bytes, hash_f64, hash_i64};
use bfq_common::{ColumnId, DataType, Datum};
use bfq_expr::{BinOp, Expr, UnOp};

use crate::{ChunkIndex, ColumnIndex, IndexMode};

/// The result of a chunk-level prune check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneOutcome {
    /// The chunk may contain matching rows; scan it.
    Keep,
    /// A zone map proved no row can match.
    SkipZone,
    /// A chunk Bloom probe proved no row can match.
    SkipBloom,
}

/// Resolver from predicate column ids to chunk schema ordinals.
pub type Resolve<'a> = dyn Fn(ColumnId) -> Option<usize> + 'a;

/// Decide whether `pred` can be TRUE for any row of the indexed chunk.
///
/// Zone maps are tried first; if they keep the chunk and `mode` enables
/// Bloom probes, equality literals are additionally tested against the
/// chunk's Bloom filters. The returned outcome names the tier that proved
/// the skip.
pub fn chunk_prune(
    idx: &ChunkIndex,
    pred: &Expr,
    resolve: &Resolve<'_>,
    mode: IndexMode,
) -> PruneOutcome {
    if !mode.zonemaps() {
        return PruneOutcome::Keep;
    }
    if !may_match(idx, pred, resolve, false) {
        return PruneOutcome::SkipZone;
    }
    if mode.blooms() && !may_match(idx, pred, resolve, true) {
        return PruneOutcome::SkipBloom;
    }
    PruneOutcome::Keep
}

/// Decide whether any row of the indexed column can survive a runtime join
/// filter whose build side shipped the exact `key_hashes` of its keys
/// (hashed with the shared [`BLOOM_SEED`]; `None` for a large build).
pub fn rf_chunk_prune(
    ci: &ColumnIndex,
    key_hashes: Option<&[u64]>,
    mode: IndexMode,
) -> PruneOutcome {
    if !mode.zonemaps() {
        return PruneOutcome::Keep;
    }
    // A NULL join key never passes a runtime filter probe.
    if ci.all_null() {
        return PruneOutcome::SkipZone;
    }
    if mode.blooms() {
        if let Some(keys) = key_hashes {
            // An empty build side passes nothing, chunk Bloom or not.
            if keys.is_empty() {
                return PruneOutcome::SkipBloom;
            }
            if let Some(bloom) = ci.bloom.as_ref() {
                if keys.iter().all(|&h| !bloom.contains_hash(h)) {
                    return PruneOutcome::SkipBloom;
                }
            }
        }
    }
    PruneOutcome::Keep
}

/// Hash a literal the way [`bfq_storage::Column::hash_one`] hashes a value
/// of the column's type, coercing compatible numerics. `None` means the
/// literal cannot be hashed consistently (no Bloom conclusion possible).
fn hash_literal(d: &Datum, dt: DataType) -> Option<u64> {
    match (dt, d) {
        (DataType::Int64, Datum::Int(v)) => Some(hash_i64(*v, BLOOM_SEED)),
        (DataType::Int64, Datum::Date(v)) => Some(hash_i64(*v as i64, BLOOM_SEED)),
        (DataType::Date, Datum::Date(v)) => Some(hash_i64(*v as i64, BLOOM_SEED)),
        (DataType::Date, Datum::Int(v)) => Some(hash_i64(*v, BLOOM_SEED)),
        (DataType::Float64, Datum::Float(v)) => Some(hash_f64(*v, BLOOM_SEED)),
        (DataType::Float64, Datum::Int(v)) => Some(hash_f64(*v as f64, BLOOM_SEED)),
        (DataType::Utf8, Datum::Str(s)) => Some(hash_bytes(s.as_bytes(), BLOOM_SEED)),
        (DataType::Bool, Datum::Bool(b)) => Some(hash_i64(*b as i64, BLOOM_SEED)),
        _ => None,
    }
}

/// Core recursion: whether `e` can evaluate to TRUE for some row.
fn may_match(idx: &ChunkIndex, e: &Expr, resolve: &Resolve<'_>, use_bloom: bool) -> bool {
    match e {
        Expr::Literal(Datum::Bool(b)) => *b,
        // A NULL predicate is never TRUE.
        Expr::Literal(Datum::Null) => false,
        Expr::Binary { op, left, right } => match op {
            BinOp::And => {
                may_match(idx, left, resolve, use_bloom)
                    && may_match(idx, right, resolve, use_bloom)
            }
            BinOp::Or => {
                may_match(idx, left, resolve, use_bloom)
                    || may_match(idx, right, resolve, use_bloom)
            }
            op if op.is_comparison() => cmp_may_match(idx, *op, left, right, resolve, use_bloom),
            _ => true,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => between_may_match(idx, expr, low, high, *negated, resolve),
        Expr::InList {
            expr,
            list,
            negated: false,
        } => list
            .iter()
            .any(|item| cmp_may_match(idx, BinOp::Eq, expr, item, resolve, use_bloom)),
        Expr::Unary { op, expr } => match op {
            UnOp::IsNull => column_index(idx, expr, resolve).is_none_or(|ci| ci.null_count > 0),
            UnOp::IsNotNull => column_index(idx, expr, resolve).is_none_or(|ci| !ci.all_null()),
            _ => true,
        },
        _ => true,
    }
}

/// The chunk's index entry for a bare column expression, if resolvable.
fn column_index<'a>(
    idx: &'a ChunkIndex,
    e: &Expr,
    resolve: &Resolve<'_>,
) -> Option<&'a ColumnIndex> {
    match e {
        Expr::Column(c) => resolve(*c).and_then(|ord| idx.columns.get(ord)),
        _ => None,
    }
}

/// Whether `left op right` can be TRUE for some row, for a comparison that
/// normalizes to column-vs-constant.
fn cmp_may_match(
    idx: &ChunkIndex,
    op: BinOp,
    left: &Expr,
    right: &Expr,
    resolve: &Resolve<'_>,
    use_bloom: bool,
) -> bool {
    // Normalize to column-op-constant (mirrors the selectivity estimator).
    let (ci, constant, op) = match (column_index(idx, left, resolve), right.const_eval()) {
        (Some(ci), Some(k)) => (ci, k, op),
        _ => match (column_index(idx, right, resolve), left.const_eval()) {
            (Some(ci), Some(k)) => (ci, k, op.swap().unwrap_or(op)),
            _ => return true,
        },
    };
    if constant.is_null() {
        // Comparison with NULL is never TRUE.
        return false;
    }
    if ci.all_null() {
        // Comparison on an all-NULL column is never TRUE.
        return false;
    }
    let k = constant.as_f64();
    match op {
        BinOp::Eq => {
            if let (Some(zone), Some(k)) = (ci.zone, k) {
                if k < zone.min || k > zone.max {
                    return false;
                }
            }
            if use_bloom {
                if let (Some(bloom), Some(h)) =
                    (ci.bloom.as_ref(), hash_literal(&constant, ci.data_type))
                {
                    return bloom.contains_hash(h);
                }
            }
            true
        }
        BinOp::NotEq => match (ci.zone, k) {
            // Single-valued chunk equal to the constant: `<>` never TRUE.
            (Some(zone), Some(k)) => !(zone.min == zone.max && zone.min == k),
            _ => true,
        },
        BinOp::Lt => match (ci.zone, k) {
            (Some(zone), Some(k)) => zone.min < k,
            _ => true,
        },
        BinOp::LtEq => match (ci.zone, k) {
            (Some(zone), Some(k)) => zone.min <= k,
            _ => true,
        },
        BinOp::Gt => match (ci.zone, k) {
            (Some(zone), Some(k)) => zone.max > k,
            _ => true,
        },
        BinOp::GtEq => match (ci.zone, k) {
            (Some(zone), Some(k)) => zone.max >= k,
            _ => true,
        },
        _ => true,
    }
}

/// Whether `expr [NOT] BETWEEN low AND high` can be TRUE for some row.
fn between_may_match(
    idx: &ChunkIndex,
    expr: &Expr,
    low: &Expr,
    high: &Expr,
    negated: bool,
    resolve: &Resolve<'_>,
) -> bool {
    let Some(ci) = column_index(idx, expr, resolve) else {
        return true;
    };
    if ci.all_null() {
        return false;
    }
    let (Some(zone), Some(lo), Some(hi)) = (
        ci.zone,
        low.const_eval().and_then(|d| d.as_f64()),
        high.const_eval().and_then(|d| d.as_f64()),
    ) else {
        return true;
    };
    if negated {
        // NOT BETWEEN is TRUE only for values outside [lo, hi].
        zone.min < lo || zone.max > hi
    } else {
        zone.max >= lo && zone.min <= hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_chunk_index;
    use bfq_common::TableId;
    use bfq_storage::{Bitmap, Chunk, Column};
    use std::sync::Arc;

    fn cid(i: u32) -> ColumnId {
        ColumnId::new(TableId(0), i)
    }

    fn resolve(c: ColumnId) -> Option<usize> {
        Some(c.index as usize)
    }

    /// Chunk: ints 10..=19, dates 100..=109, strings "v10".."v19",
    /// floats 0.10..0.19, and an int column with nulls.
    fn fixture() -> ChunkIndex {
        let ints: Vec<i64> = (10..20).collect();
        let dates: Vec<i32> = (100..110).collect();
        let strs: bfq_storage::StrData = (10..20).map(|i| format!("v{i}")).collect();
        let floats: Vec<f64> = (10..20).map(|i| i as f64 / 100.0).collect();
        let nully = Column::Int64(
            (0..10).collect(),
            Some(Bitmap::from_bools((0..10).map(|i| i % 2 == 0))),
        );
        let chunk = Chunk::new(vec![
            Arc::new(Column::Int64(ints, None)),
            Arc::new(Column::Date(dates, None)),
            Arc::new(Column::Utf8(strs, None)),
            Arc::new(Column::Float64(floats, None)),
            Arc::new(nully),
        ])
        .unwrap();
        build_chunk_index(&chunk)
    }

    fn prune(pred: &Expr, mode: IndexMode) -> PruneOutcome {
        chunk_prune(&fixture(), pred, &resolve, mode)
    }

    #[test]
    fn zone_range_pruning() {
        let out_of_range = Expr::binary(BinOp::Gt, Expr::col(cid(0)), Expr::int(100));
        assert_eq!(
            prune(&out_of_range, IndexMode::ZoneMap),
            PruneOutcome::SkipZone
        );
        assert_eq!(prune(&out_of_range, IndexMode::Off), PruneOutcome::Keep);
        let in_range = Expr::binary(BinOp::Gt, Expr::col(cid(0)), Expr::int(15));
        assert_eq!(prune(&in_range, IndexMode::ZoneMap), PruneOutcome::Keep);
        // Constant on the left swaps: 5 > col means col < 5; min is 10.
        let swapped = Expr::binary(BinOp::Gt, Expr::int(5), Expr::col(cid(0)));
        assert_eq!(prune(&swapped, IndexMode::ZoneMap), PruneOutcome::SkipZone);
        // Boundary inclusivity.
        let at_max = Expr::binary(BinOp::GtEq, Expr::col(cid(0)), Expr::int(19));
        assert_eq!(prune(&at_max, IndexMode::ZoneMap), PruneOutcome::Keep);
        let past_max = Expr::binary(BinOp::Gt, Expr::col(cid(0)), Expr::int(19));
        assert_eq!(prune(&past_max, IndexMode::ZoneMap), PruneOutcome::SkipZone);
    }

    #[test]
    fn zone_equality_and_between() {
        let eq_out = Expr::col(cid(1)).eq(Expr::lit(Datum::Date(500)));
        assert_eq!(prune(&eq_out, IndexMode::ZoneMap), PruneOutcome::SkipZone);
        let between_out = Expr::Between {
            expr: Box::new(Expr::col(cid(1))),
            low: Box::new(Expr::lit(Datum::Date(200))),
            high: Box::new(Expr::lit(Datum::Date(300))),
            negated: false,
        };
        assert_eq!(
            prune(&between_out, IndexMode::ZoneMap),
            PruneOutcome::SkipZone
        );
        let between_in = Expr::Between {
            expr: Box::new(Expr::col(cid(1))),
            low: Box::new(Expr::lit(Datum::Date(105))),
            high: Box::new(Expr::lit(Datum::Date(300))),
            negated: false,
        };
        assert_eq!(prune(&between_in, IndexMode::ZoneMap), PruneOutcome::Keep);
        // NOT BETWEEN over a covering range can never be TRUE.
        let not_between_covering = Expr::Between {
            expr: Box::new(Expr::col(cid(1))),
            low: Box::new(Expr::lit(Datum::Date(0))),
            high: Box::new(Expr::lit(Datum::Date(1000))),
            negated: true,
        };
        assert_eq!(
            prune(&not_between_covering, IndexMode::ZoneMap),
            PruneOutcome::SkipZone
        );
    }

    #[test]
    fn bloom_equality_pruning() {
        // 55 is inside the int zone [10, 19]? No — use a value inside the
        // zone that is absent: zone is 10..=19 and all present, so use the
        // string column instead (no zone, bloom only).
        let miss = Expr::col(cid(2)).eq(Expr::lit(Datum::str("v99")));
        assert_eq!(prune(&miss, IndexMode::ZoneMap), PruneOutcome::Keep);
        assert_eq!(
            prune(&miss, IndexMode::ZoneMapBloom),
            PruneOutcome::SkipBloom
        );
        let hit = Expr::col(cid(2)).eq(Expr::lit(Datum::str("v15")));
        assert_eq!(prune(&hit, IndexMode::ZoneMapBloom), PruneOutcome::Keep);
        // IN list: kept iff any member may be present.
        let in_miss = Expr::InList {
            expr: Box::new(Expr::col(cid(2))),
            list: vec![Expr::lit(Datum::str("v98")), Expr::lit(Datum::str("v99"))],
            negated: false,
        };
        assert_eq!(
            prune(&in_miss, IndexMode::ZoneMapBloom),
            PruneOutcome::SkipBloom
        );
        let in_hit = Expr::InList {
            expr: Box::new(Expr::col(cid(2))),
            list: vec![Expr::lit(Datum::str("v98")), Expr::lit(Datum::str("v12"))],
            negated: false,
        };
        assert_eq!(prune(&in_hit, IndexMode::ZoneMapBloom), PruneOutcome::Keep);
    }

    #[test]
    fn conjunction_and_disjunction() {
        let dead = Expr::binary(BinOp::Gt, Expr::col(cid(0)), Expr::int(100));
        let live = Expr::binary(BinOp::Lt, Expr::col(cid(0)), Expr::int(100));
        assert_eq!(
            prune(&dead.clone().and(live.clone()), IndexMode::ZoneMap),
            PruneOutcome::SkipZone
        );
        assert_eq!(
            prune(&dead.clone().or(live.clone()), IndexMode::ZoneMap),
            PruneOutcome::Keep
        );
        assert_eq!(
            prune(&dead.clone().or(dead), IndexMode::ZoneMap),
            PruneOutcome::SkipZone
        );
    }

    #[test]
    fn null_semantics() {
        // Comparisons with a NULL literal are never TRUE.
        let null_cmp = Expr::col(cid(0)).eq(Expr::lit(Datum::Null));
        assert_eq!(prune(&null_cmp, IndexMode::ZoneMap), PruneOutcome::SkipZone);
        // IS NULL prunes only when the chunk column has no nulls.
        let is_null_c0 = Expr::Unary {
            op: UnOp::IsNull,
            expr: Box::new(Expr::col(cid(0))),
        };
        assert_eq!(
            prune(&is_null_c0, IndexMode::ZoneMap),
            PruneOutcome::SkipZone
        );
        let is_null_c4 = Expr::Unary {
            op: UnOp::IsNull,
            expr: Box::new(Expr::col(cid(4))),
        };
        assert_eq!(prune(&is_null_c4, IndexMode::ZoneMap), PruneOutcome::Keep);
    }

    #[test]
    fn float_literal_coercion_probes_float_bloom_consistently() {
        // Float columns carry no bloom, so only the zone map applies — and
        // integer literals land on the same axis.
        let miss = Expr::binary(BinOp::Gt, Expr::col(cid(3)), Expr::int(1));
        assert_eq!(
            prune(&miss, IndexMode::ZoneMapBloom),
            PruneOutcome::SkipZone
        );
        // Int column probed with an exactly-representable float behaves
        // like the int literal on the zone axis.
        let f_eq = Expr::col(cid(0)).eq(Expr::lit(Datum::Float(500.0)));
        assert_eq!(
            prune(&f_eq, IndexMode::ZoneMapBloom),
            PruneOutcome::SkipZone
        );
    }

    #[test]
    fn unknown_shapes_keep_the_chunk() {
        let col_vs_col = Expr::col(cid(0)).eq(Expr::col(cid(1)));
        assert_eq!(
            prune(&col_vs_col, IndexMode::ZoneMapBloom),
            PruneOutcome::Keep
        );
        let unresolved = Expr::col(ColumnId::new(TableId(9), 77)).eq(Expr::int(1));
        let none_resolve = |_c: ColumnId| -> Option<usize> { None };
        assert_eq!(
            chunk_prune(
                &fixture(),
                &unresolved,
                &none_resolve,
                IndexMode::ZoneMapBloom
            ),
            PruneOutcome::Keep
        );
        let like = Expr::Like {
            expr: Box::new(Expr::col(cid(2))),
            pattern: "v%".into(),
            negated: false,
        };
        assert_eq!(prune(&like, IndexMode::ZoneMapBloom), PruneOutcome::Keep);
    }

    #[test]
    fn runtime_filter_pruning() {
        let idx = fixture();
        let ints = &idx.columns[0]; // values 10..=19
        let absent = hash_literal(&Datum::Int(999), DataType::Int64).unwrap();
        let present = hash_literal(&Datum::Int(12), DataType::Int64).unwrap();
        // Exact key hashes prune via the chunk Bloom.
        assert_eq!(
            rf_chunk_prune(ints, Some(&[absent]), IndexMode::ZoneMapBloom),
            PruneOutcome::SkipBloom
        );
        assert_eq!(
            rf_chunk_prune(ints, Some(&[absent, present]), IndexMode::ZoneMapBloom),
            PruneOutcome::Keep
        );
        // Empty build side prunes everything.
        assert_eq!(
            rf_chunk_prune(ints, Some(&[]), IndexMode::ZoneMapBloom),
            PruneOutcome::SkipBloom
        );
        // A large build ships no hashes, so nothing proves a skip.
        assert_eq!(
            rf_chunk_prune(ints, None, IndexMode::ZoneMapBloom),
            PruneOutcome::Keep
        );
        // Bloom-tier evidence needs the bloom mode.
        assert_eq!(
            rf_chunk_prune(ints, Some(&[absent]), IndexMode::ZoneMap),
            PruneOutcome::Keep
        );
        assert_eq!(
            rf_chunk_prune(ints, Some(&[]), IndexMode::Off),
            PruneOutcome::Keep
        );
    }

    #[test]
    fn all_null_column_prunes_everything() {
        let chunk = Chunk::new(vec![Arc::new(Column::nulls(DataType::Int64, 5))]).unwrap();
        let idx = build_chunk_index(&chunk);
        let cmp = Expr::binary(BinOp::Lt, Expr::col(cid(0)), Expr::int(100));
        assert_eq!(
            chunk_prune(&idx, &cmp, &resolve, IndexMode::ZoneMap),
            PruneOutcome::SkipZone
        );
        assert_eq!(
            rf_chunk_prune(&idx.columns[0], None, IndexMode::ZoneMap),
            PruneOutcome::SkipZone
        );
    }
}
