//! Property tests for chunk pruning: the one-sided contract that a *skip*
//! verdict is a proof.
//!
//! * Local-predicate pruning: if [`chunk_prune`] skips a chunk, evaluating
//!   the predicate row-by-row must select nothing — for arbitrary data
//!   (with nulls), arbitrary AND/OR predicate trees, and every
//!   [`IndexMode`] tier.
//! * Runtime-filter pruning: if [`rf_chunk_prune`] skips a chunk, no chunk
//!   value may equal any actual build key (rows admitted only by the
//!   runtime filter's false positives are legal to drop — the filter is
//!   planned only where dropping non-matching rows is safe).

use std::sync::Arc;

use bfq_bloom::RuntimeFilter;
use bfq_common::{ColumnId, Datum, TableId};
use bfq_expr::{eval_predicate, BinOp, Expr, Layout, UnOp};
use bfq_index::{build_chunk_index, chunk_prune, rf_chunk_prune, IndexMode, PruneOutcome};
use bfq_storage::{Bitmap, Chunk, Column, StrData};
use proptest::prelude::*;

fn cid(i: u32) -> ColumnId {
    ColumnId::new(TableId(0), i)
}

/// Build a 3-column chunk (Int64 with nulls, Date, Utf8) from raw values.
fn make_chunk(ints: &[i64], nulls: &[bool]) -> Chunk {
    let validity: Vec<bool> = ints
        .iter()
        .enumerate()
        .map(|(i, _)| !nulls[i % nulls.len()])
        .collect();
    let has_null = validity.iter().any(|v| !v);
    let dates: Vec<i32> = ints.iter().map(|&v| v as i32).collect();
    let strs: StrData = ints.iter().map(|v| format!("s{v}")).collect();
    Chunk::new(vec![
        Arc::new(Column::Int64(
            ints.to_vec(),
            has_null.then(|| Bitmap::from_bools(validity.clone())),
        )),
        Arc::new(Column::Date(dates, None)),
        Arc::new(Column::Utf8(strs, None)),
    ])
    .unwrap()
}

/// Derive one predicate term from a `(col, op, lit)` triple.
fn make_term(col: u8, op: u8, lit: i64) -> Expr {
    let col = (col % 3) as u32;
    let column = Expr::col(cid(col));
    let literal = match col {
        0 => Expr::lit(Datum::Int(lit)),
        1 => Expr::lit(Datum::Date(lit as i32)),
        _ => Expr::lit(Datum::str(format!("s{lit}"))),
    };
    match op % 7 {
        0 => Expr::binary(BinOp::Eq, column, literal),
        1 => Expr::binary(BinOp::Lt, column, literal),
        2 => Expr::binary(BinOp::GtEq, column, literal),
        3 if col != 2 => Expr::Between {
            expr: Box::new(column),
            low: Box::new(literal),
            high: Box::new(match col {
                0 => Expr::lit(Datum::Int(lit + 10)),
                _ => Expr::lit(Datum::Date(lit as i32 + 10)),
            }),
            negated: lit % 2 == 0,
        },
        4 => Expr::Unary {
            op: if lit % 2 == 0 {
                UnOp::IsNull
            } else {
                UnOp::IsNotNull
            },
            expr: Box::new(column),
        },
        5 => Expr::InList {
            expr: Box::new(column),
            list: vec![
                literal,
                match col {
                    0 => Expr::lit(Datum::Int(lit + 1)),
                    1 => Expr::lit(Datum::Date(lit as i32 + 1)),
                    _ => Expr::lit(Datum::str(format!("s{}", lit + 1))),
                },
            ],
            negated: false,
        },
        // Constant-on-the-left comparison exercises operand swapping.
        _ => Expr::binary(BinOp::Gt, literal, column),
    }
}

proptest! {
    /// Skip verdicts are proofs: a pruned chunk has zero matching rows.
    #[test]
    fn pruning_never_skips_matching_rows(
        ints in proptest::collection::vec(-50i64..50, 1..200),
        nulls in proptest::collection::vec(any::<bool>(), 1..8),
        terms in proptest::collection::vec((0u8..12, 0u8..12, -60i64..60), 1..5),
        connectives in proptest::collection::vec(any::<bool>(), 1..5),
    ) {
        let chunk = make_chunk(&ints, &nulls);
        let index = build_chunk_index(&chunk);
        let layout = Layout::new(vec![cid(0), cid(1), cid(2)]);
        let resolve = |c: ColumnId| Some(c.index as usize);

        let mut pred = make_term(terms[0].0, terms[0].1, terms[0].2);
        for (i, &(c, o, l)) in terms.iter().enumerate().skip(1) {
            let term = make_term(c, o, l);
            pred = if connectives[i % connectives.len()] {
                pred.and(term)
            } else {
                pred.or(term)
            };
        }

        let selected = eval_predicate(&pred, &chunk, &layout).unwrap();
        for mode in IndexMode::ALL {
            let verdict = chunk_prune(&index, &pred, &resolve, mode);
            if verdict != PruneOutcome::Keep {
                prop_assert!(
                    selected.is_empty(),
                    "{mode:?} pruned a chunk with {} matching rows; pred = {pred}",
                    selected.len()
                );
            }
            if mode == IndexMode::Off {
                prop_assert_eq!(verdict, PruneOutcome::Keep);
            }
        }
    }

    /// Runtime-filter skip verdicts are proofs: a pruned chunk shares no
    /// key with the filter's build side.
    #[test]
    fn rf_pruning_never_skips_joinable_rows(
        chunk_keys in proptest::collection::vec(-100i64..100, 1..300),
        build_keys in proptest::collection::vec(-100i64..100, 0..60),
    ) {
        let intersects = chunk_keys.iter().any(|k| build_keys.contains(k));
        let col = Column::Int64(chunk_keys, None);
        let ci = build_chunk_index(&Chunk::new(vec![Arc::new(col)]).unwrap());
        let ci = &ci.columns[0];
        let filter = RuntimeFilter::build(
            &[Column::Int64(build_keys.clone(), None)],
            build_keys.len().max(1),
        );
        for mode in IndexMode::ALL {
            let verdict = rf_chunk_prune(ci, filter.key_hashes(), mode);
            if verdict != PruneOutcome::Keep {
                prop_assert!(!intersects, "{mode:?} pruned a chunk that shares build keys");
            }
            if mode == IndexMode::Off {
                prop_assert_eq!(verdict, PruneOutcome::Keep);
            }
        }
    }
}
