//! `eval_predicate` (selection-vector refinement with typed kernels) must
//! select exactly the rows where the general three-valued evaluation —
//! `eval` to a Bool column over the whole chunk — is TRUE, and fail exactly
//! when it fails.
//!
//! Random trees combine AND/OR/NOT over comparisons, BETWEEN, IN, LIKE,
//! IS NULL and bare literals, over nullable columns of every type, with
//! literals on either side, NULL literals, NaN and ±0.0, cross-type
//! numerics, arithmetic operands, type errors and empty chunks.

use std::sync::Arc;

use bfq_common::{ColumnId, DataType, Datum, TableId};
use bfq_expr::{eval, eval_predicate, BinOp, Expr, Layout, UnOp};
use bfq_storage::{Chunk, ColumnBuilder};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const TYPES: [DataType; 5] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Utf8,
    DataType::Date,
    DataType::Bool,
];

/// Columns per type, so two columns of one type can meet.
const PER_TYPE: usize = 2;
const WIDTH: usize = TYPES.len() * PER_TYPE;

const FLOATS: [f64; 7] = [0.0, -0.0, f64::NAN, 1.0, 2.5, -1.0, 3.0];
const STRS: [&str; 6] = ["", "a", "ab", "b", "ba", "abc"];
const PATTERNS: [&str; 9] = ["a%", "%b", "%a%", "_", "a_", "%", "", "ab", "%a_%"];

fn col(i: usize) -> Expr {
    Expr::col(ColumnId::new(TableId(0), i as u32))
}

/// A value of type `dt` from a small domain, so comparisons hit.
fn value(rng: &mut TestRng, dt: DataType) -> Datum {
    let k = rng.below(6) as usize;
    match dt {
        DataType::Int64 => Datum::Int(k as i64 - 2),
        DataType::Float64 => Datum::Float(FLOATS[rng.below(FLOATS.len() as u64) as usize]),
        DataType::Utf8 => Datum::str(STRS[k]),
        DataType::Date => Datum::Date(9000 + k as i32),
        DataType::Bool => Datum::Bool(k.is_multiple_of(2)),
    }
}

/// [`PER_TYPE`] columns of each type (column `i` has type
/// `TYPES[i % 5]`), each nullable or not, cut to `rows` rows.
fn chunk(rng: &mut TestRng) -> Chunk {
    let rows = if rng.below(8) == 0 { 0 } else { rng.below(60) };
    let columns = (0..WIDTH).map(|i| {
        let dt = TYPES[i % TYPES.len()];
        let nullable = rng.below(2) == 0;
        let mut b = ColumnBuilder::new(dt);
        for _ in 0..rows {
            let d = if nullable && rng.below(4) == 0 {
                Datum::Null
            } else {
                value(rng, dt)
            };
            b.push_datum(&d).unwrap();
        }
        Arc::new(b.finish())
    });
    Chunk::new(columns.collect()).unwrap()
}

/// A literal of any type, or NULL.
fn literal(rng: &mut TestRng) -> Expr {
    if rng.below(8) == 0 {
        return Expr::lit(Datum::Null);
    }
    let dt = TYPES[rng.below(TYPES.len() as u64) as usize];
    Expr::lit(value(rng, dt))
}

/// A comparison operand: mostly a column or a literal, sometimes
/// arithmetic over them.
fn operand(rng: &mut TestRng) -> Expr {
    match rng.below(7) {
        0..=2 => col(rng.below(WIDTH as u64) as usize),
        3..=5 => literal(rng),
        _ => {
            let op = [BinOp::Plus, BinOp::Minus, BinOp::Mul, BinOp::Div][rng.below(4) as usize];
            Expr::binary(op, operand(rng), operand(rng))
        }
    }
}

/// The tested expression of BETWEEN/IN/LIKE: mostly a column.
fn tested(rng: &mut TestRng) -> Box<Expr> {
    Box::new(if rng.below(6) == 0 {
        literal(rng)
    } else {
        col(rng.below(WIDTH as u64) as usize)
    })
}

fn leaf(rng: &mut TestRng) -> Expr {
    match rng.below(12) {
        0..=4 => {
            let op = [
                BinOp::Eq,
                BinOp::NotEq,
                BinOp::Lt,
                BinOp::LtEq,
                BinOp::Gt,
                BinOp::GtEq,
            ][rng.below(6) as usize];
            Expr::binary(op, operand(rng), operand(rng))
        }
        5 | 6 => Expr::Between {
            expr: tested(rng),
            low: Box::new(operand(rng)),
            high: Box::new(operand(rng)),
            negated: rng.below(2) == 0,
        },
        7 | 8 => Expr::InList {
            expr: tested(rng),
            list: (0..rng.below(5)).map(|_| operand(rng)).collect(),
            negated: rng.below(2) == 0,
        },
        9 => Expr::Like {
            expr: tested(rng),
            pattern: PATTERNS[rng.below(PATTERNS.len() as u64) as usize].into(),
            negated: rng.below(2) == 0,
        },
        10 => Expr::Unary {
            op: [UnOp::IsNull, UnOp::IsNotNull][rng.below(2) as usize],
            expr: Box::new(operand(rng)),
        },
        _ => literal(rng),
    }
}

fn tree(rng: &mut TestRng, depth: u32) -> Expr {
    if depth == 0 || rng.below(3) == 0 {
        return leaf(rng);
    }
    match rng.below(5) {
        0 | 1 => tree(rng, depth - 1).and(tree(rng, depth - 1)),
        2 | 3 => tree(rng, depth - 1).or(tree(rng, depth - 1)),
        _ => Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(tree(rng, depth - 1)),
        },
    }
}

/// The Kleene path: the TRUE rows of the predicate's Bool column.
fn general(expr: &Expr, chunk: &Chunk, layout: &Layout) -> Option<Vec<u32>> {
    let col = eval(expr, chunk, layout).ok()?;
    let vals = col.as_bool()?;
    Some(
        (0..vals.len() as u32)
            .filter(|&i| vals[i as usize] && !col.is_null(i as usize))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn selection_refinement_matches_the_kleene_path(seed in any::<u64>()) {
        let mut rng = TestRng::for_case(seed);
        let chunk = chunk(&mut rng);
        let layout = Layout::new((0..WIDTH as u32).map(|i| ColumnId::new(TableId(0), i)).collect());
        let expr = tree(&mut rng, 3);
        let got = eval_predicate(&expr, &chunk, &layout).ok();
        prop_assert_eq!(got, general(&expr, &chunk, &layout), "{}", expr);
    }
}

#[test]
fn a_type_error_fails_behind_a_conjunct_that_selects_nothing() {
    let mut rng = TestRng::for_case(7);
    let chunk = loop {
        let c = chunk(&mut rng);
        if c.rows() > 0 {
            break c;
        }
    };
    let layout = Layout::new(
        (0..WIDTH as u32)
            .map(|i| ColumnId::new(TableId(0), i))
            .collect(),
    );
    let nothing = Expr::binary(BinOp::Gt, col(0), Expr::int(100));
    assert!(eval_predicate(&nothing, &chunk, &layout)
        .unwrap()
        .is_empty());
    // Type errors in a kernel shape whose operand types do not fit (a
    // string against a number, LIKE on a number) and on the general path
    // (arithmetic on a string).
    for bad in [
        Expr::binary(BinOp::Lt, col(2), Expr::int(5)),
        Expr::binary(
            BinOp::Eq,
            Expr::binary(BinOp::Plus, col(2), Expr::int(1)),
            Expr::int(1),
        ),
        Expr::Like {
            expr: Box::new(col(0)),
            pattern: "a%".into(),
            negated: false,
        },
    ] {
        assert!(eval(&bad, &chunk, &layout).is_err(), "{bad}");
        let pred = nothing.clone().and(bad.clone());
        assert!(eval_predicate(&pred, &chunk, &layout).is_err(), "{pred}");
        let pred = Expr::lit(Datum::Bool(true)).or(bad.clone());
        assert!(eval_predicate(&pred, &chunk, &layout).is_err(), "{pred}");
    }
}
