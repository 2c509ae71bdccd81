//! Helpers shared by the integration suites.

// Each suite uses its own subset.
#![allow(dead_code)]

use std::cmp::Ordering;
use std::sync::Arc;

use bfq::catalog::Catalog;
use bfq::expr::Expr;
use bfq::plan::{Bindings, LogicalPlan};
use bfq::prelude::*;
use bfq::sql::BoundQuery;
use bfq::storage::{Column, Field, Schema};

/// One result row.
pub type Row = Vec<Datum>;

/// Snapshot a chunk's rows as strings, normalizing float noise so results
/// from different plans/modes compare exactly.
pub fn rows_of(chunk: &Chunk) -> Vec<Vec<String>> {
    (0..chunk.rows())
        .map(|i| {
            chunk
                .row(i)
                .into_iter()
                .map(|d| match d {
                    Datum::Float(f) => format!("{f:.4}"),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect()
}

/// A chunk's rows as exact datums, for bit-exact comparisons.
pub fn exact_rows(chunk: &Chunk) -> Vec<Row> {
    (0..chunk.rows()).map(|i| chunk.row(i)).collect()
}

/// Whether two rows are the same result row: equal datum by datum, with
/// floats equal to six significant digits (the engine may add floats in a
/// different order than the reference does).
pub fn same_row(a: &[Datum], b: &[Datum]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (Datum::Float(x), Datum::Float(y)) => (x - y).abs() <= 1e-6 * x.abs().max(y.abs()),
            (x, y) => x == y,
        })
}

/// Put a multiset of rows into the order two results are lined up in
/// before they are compared pairwise with [`same_row`]: by every non-float
/// value first, so float noise can only reorder rows that agree everywhere
/// else.
pub fn canonical_order(rows: Vec<Row>) -> Vec<Row> {
    let mut keyed: Vec<(Vec<String>, Vec<f64>, Row)> = Vec::with_capacity(rows.len());
    for row in rows {
        let (floats, exact): (Vec<&Datum>, Vec<&Datum>) =
            row.iter().partition(|d| matches!(d, Datum::Float(_)));
        let exact = exact.iter().map(|d| d.to_string()).collect();
        let floats = floats.iter().filter_map(|d| d.as_f64()).collect();
        keyed.push((exact, floats, row));
    }
    keyed.sort_by(|(ea, fa, _), (eb, fb, _)| {
        let by_floats = || fa.partial_cmp(fb).unwrap_or(Ordering::Equal);
        ea.cmp(eb).then_with(by_floats)
    });
    keyed.into_iter().map(|(_, _, row)| row).collect()
}

/// Whether `query`'s ORDER BY fixes the order of `rows` (its reference
/// result) completely: there is a top-level sort, every key is a visible
/// output column, and no two adjacent rows tie on all keys in
/// [`same_row`]'s terms. Only then is row order part of the expected result.
pub fn order_is_total(query: &BoundQuery, rows: &[Row]) -> bool {
    let mut node = &query.plan;
    let (keys, sorted) = loop {
        match node {
            LogicalPlan::Limit { input, .. } | LogicalPlan::Project { input, .. } => node = input,
            LogicalPlan::Sort { input, keys } => break (keys, input.as_ref()),
            _ => return false,
        }
    };
    let LogicalPlan::Project { exprs, .. } = sorted else {
        return false;
    };
    let width = rows.first().map_or(0, Vec::len);
    let mut slots = Vec::new();
    for key in keys {
        let Expr::Column(id) = &key.expr else {
            return false;
        };
        match exprs.iter().position(|e| e.id == *id) {
            Some(slot) if slot < width => slots.push(slot),
            _ => return false,
        }
    }
    let key_of = |row: &Row| slots.iter().map(|&s| row[s].clone()).collect::<Row>();
    rows.windows(2)
        .all(|w| !same_row(&key_of(&w[0]), &key_of(&w[1])))
}

/// What the reference interpreter (`bfq-ref`) says a statement returns:
/// the specification engine results are compared to.
pub struct Expected {
    /// The rows, in result order.
    pub rows: Vec<Row>,
    /// Whether the statement's ORDER BY fixes that order completely; if
    /// not, only the multiset of rows is specified.
    pub ordered: bool,
}

/// Evaluate `sql` over `catalog` with the reference interpreter.
pub fn expected(catalog: &Catalog, sql: &str) -> Expected {
    let mut bindings = Bindings::new();
    let bound = bfq::sql::plan_sql(sql, catalog, &mut bindings)
        .unwrap_or_else(|e| panic!("reference bind of {sql}: {e}"));
    let rows = bfq_ref::reference_rows(&bound, &bindings, catalog)
        .unwrap_or_else(|e| panic!("reference run of {sql}: {e}"));
    Expected {
        ordered: order_is_total(&bound, &rows),
        rows,
    }
}

impl Expected {
    /// `None` when `chunk` is the expected result: the same rows (floats
    /// equal to six significant digits) as a multiset, and in the same
    /// order where the order is specified. Otherwise a description of the
    /// first difference.
    pub fn mismatch(&self, chunk: &Chunk) -> Option<String> {
        let (mut got, mut want) = (exact_rows(chunk), self.rows.clone());
        if !self.ordered {
            got = canonical_order(got);
            want = canonical_order(want);
        }
        let differs = |(g, w): (&Row, &Row)| !same_row(g, w);
        let at = match got.iter().zip(&want).position(differs) {
            Some(at) => at,
            None if got.len() == want.len() => return None,
            None => got.len().min(want.len()),
        };
        Some(format!(
            "engine returned {} rows, reference {} ({}); first difference at row {at}: \
             engine {:?}, reference {:?}",
            got.len(),
            want.len(),
            if self.ordered {
                "in ORDER BY order"
            } else {
                "as multisets"
            },
            got.get(at),
            want.get(at),
        ))
    }

    /// Panic with `context` unless `chunk` is the expected result.
    pub fn assert_matches(&self, chunk: &Chunk, context: &str) {
        if let Some(diff) = self.mismatch(chunk) {
            panic!("{context}: engine differs from the reference interpreter: {diff}");
        }
    }
}

/// A statement whose engine result is known to differ from the reference.
/// `tests/reference_equivalence.rs` asserts, per entry, that the reference
/// returns the right answer *and* that the engine still diverges, so a fix
/// has to delete the entry: it cannot silently change a result. The other
/// suites skip only the reference comparison for these statements.
pub struct KnownDivergence {
    pub name: &'static str,
    pub sql: String,
    /// One line: why the engine is wrong.
    pub cause: &'static str,
    /// What makes the reference's answer the right one.
    pub reference_is_right: fn(&Expected) -> bool,
}

/// All entries are one bug: a `DerivedScan`'s plan layout is built from
/// the pruned `projection` in `costing.rs::scan_subplan`, but
/// `ChainOp::Derived` emits the derived plan's full-width rows, so the
/// parent reads slot 0 where it means a later column. (Fixing it changes
/// the Q13 and Q15 checksums in `bench/e2e/expected/`; see ROADMAP.)
pub fn known_divergences(sf: f64) -> Vec<KnownDivergence> {
    const CAUSE: &str = "DerivedScan layout is pruned to `projection` but its rows are full-width";
    vec![
        KnownDivergence {
            name: "max over the second column of a derived table",
            sql: "select max(x) from (select l_suppkey as a, l_extendedprice as x from lineitem) r"
                .into(),
            cause: CAUSE,
            // The engine answers max(a), an integer; prices are floats.
            reference_is_right: |e| e.rows.len() == 1 && matches!(e.rows[0][..], [Datum::Float(_)]),
        },
        KnownDivergence {
            name: "Q13",
            sql: bfq::tpch::query_text(13, sf),
            cause: CAUSE,
            // A third of the customers have no orders, so the largest group
            // is `c_count = 0`; the engine groups by `c_custkey` (slot 0)
            // instead and returns one group of one per customer.
            reference_is_right: |e| {
                e.rows[0][0] == Datum::Int(0) && e.rows[0][1].as_i64() > Some(1)
            },
        },
        KnownDivergence {
            name: "Q15",
            sql: bfq::tpch::query_text(15, sf),
            cause: CAUSE,
            // Some supplier has the maximum revenue; the engine returns none.
            reference_is_right: |e| !e.rows.is_empty(),
        },
    ]
}

/// The reference's answer to TPC-H query `q` — `None` where the engine is
/// pinned as diverging from it (see [`known_divergences`]).
pub fn tpch_expected(catalog: &Catalog, q: usize, sf: f64) -> Option<Expected> {
    let sql = bfq::tpch::query_text(q, sf);
    let pinned = known_divergences(sf).iter().any(|k| k.sql == sql);
    (!pinned).then(|| expected(catalog, &sql))
}

// ---------------------------------------------------------------------------
// Synthetic snowflake whose per-join filters are each too weak to pay.
// ---------------------------------------------------------------------------

fn int_table(cat: &mut Catalog, name: &str, cols: &[(&str, Vec<i64>)], unique: Vec<u32>) {
    const CHUNK: usize = 4096;
    let schema = Arc::new(Schema::new(
        cols.iter()
            .map(|(n, _)| Field::new(*n, DataType::Int64))
            .collect::<Vec<_>>(),
    ));
    let rows = cols[0].1.len();
    let chunks = (0..rows)
        .step_by(CHUNK)
        .map(|lo| {
            let hi = (lo + CHUNK).min(rows);
            Chunk::new(
                cols.iter()
                    .map(|(_, v)| Arc::new(Column::Int64(v[lo..hi].to_vec(), None)))
                    .collect(),
            )
            .unwrap()
        })
        .collect();
    cat.register(Table::new(name, schema, chunks).unwrap(), unique)
        .unwrap();
}

/// Fact (600k rows) → two dimension chains, each dim (4k rows) → sub-dim
/// (100 rows) carrying the predicate. Each chain's end-to-end selectivity
/// is 0.7 — too weak for the per-filter 2/3 selectivity gate (Heuristic
/// 6), although both chains together halve the fact table.
pub fn snowflake() -> Catalog {
    let mut cat = Catalog::new();
    let dim = 4_000i64;
    let sub = 100i64;
    let fact = 600_000i64;
    int_table(
        &mut cat,
        "a2",
        &[
            ("a2key", (0..sub).collect()),
            ("a2attr", (0..sub).map(|i| i % 10).collect()),
        ],
        vec![0],
    );
    int_table(
        &mut cat,
        "da",
        &[
            ("akey", (0..dim).collect()),
            ("a2k", (0..dim).map(|i| i % sub).collect()),
        ],
        vec![0],
    );
    int_table(
        &mut cat,
        "b2",
        &[
            ("b2key", (0..sub).collect()),
            ("b2attr", (0..sub).map(|i| i % 10).collect()),
        ],
        vec![0],
    );
    int_table(
        &mut cat,
        "db",
        &[
            ("bkey", (0..dim).collect()),
            ("b2k", (0..dim).map(|i| i % sub).collect()),
        ],
        vec![0],
    );
    int_table(
        &mut cat,
        "fact",
        &[
            ("ak", (0..fact).map(|i| i % dim).collect()),
            ("bk", (0..fact).map(|i| (i * 7 + 3) % dim).collect()),
            ("val", (0..fact).map(|i| i % 1000).collect()),
        ],
        vec![],
    );
    cat
}

/// The 5-way join over [`snowflake`]; its answer is 149 340 000.
pub const SNOWFLAKE_SQL: &str = "select sum(f.val) from fact f, da, a2, db, b2 \
                                 where f.ak = da.akey and da.a2k = a2.a2key \
                                 and f.bk = db.bkey and db.b2k = b2.b2key \
                                 and a2.a2attr < 7 and b2.b2attr < 7";
