//! `bfq-ref` — the reference interpreter the executor is tested against.
//!
//! [`reference_rows`] evaluates a bound query's *logical* plan one row at a
//! time: no Bloom filters, no chunk index, no threads, no physical plan,
//! and no code shared with `bfq-exec`, the optimizer or
//! `bfq_expr::eval`. It is the specification every filter, layout and
//! dop lane is held to — a runtime filter may change cost,
//! never results — so it is written to be checked by reading, not to be
//! fast. The only concession to speed is that joins look their partners
//! up in a `std` map keyed on the equi-clause values instead of scanning
//! the other side, so eight-relation blocks finish in debug builds.
//!
//! Engine results are compared to it as multisets of rows with floats
//! equal to six significant digits (the engine may add floats in another
//! order), plus row order wherever the query's ORDER BY pins it
//! completely; that policy lives with the suites, in `tests/common`.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bfq_catalog::Catalog;
use bfq_common::{BfqError, ColumnId, Datum, RelSet, Result};
use bfq_expr::{BinOp, Expr, UnOp};
use bfq_plan::{
    AggExpr, AggFunc, BaseRel, Bindings, LogicalPlan, QueryBlock, RelKind, RelSource, SortKey,
};
use bfq_sql::BoundQuery;

/// One result row.
pub type Row = Vec<Datum>;

/// Evaluate `query` over `catalog`, returning its rows in result order.
pub fn reference_rows(
    query: &BoundQuery,
    bindings: &Bindings,
    catalog: &Catalog,
) -> Result<Vec<Row>> {
    Ok(Interp { bindings, catalog }.run(&query.plan)?.rows)
}

/// A materialized relation: the column id each slot carries, and the rows.
struct Rel {
    cols: Vec<ColumnId>,
    rows: Vec<Row>,
}

/// Column id → slot.
type Slots = HashMap<ColumnId, usize>;

fn slots_of(cols: &[ColumnId]) -> Slots {
    cols.iter().enumerate().map(|(i, c)| (*c, i)).collect()
}

struct Interp<'a> {
    bindings: &'a Bindings,
    catalog: &'a Catalog,
}

impl Interp<'_> {
    fn run(&self, plan: &LogicalPlan) -> Result<Rel> {
        match plan {
            LogicalPlan::Block(block) => self.run_block(block),
            LogicalPlan::OneRow => Ok(Rel {
                cols: vec![],
                rows: vec![vec![]],
            }),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                having,
            } => {
                let input = self.run(input)?;
                let slots = slots_of(&input.cols);
                // Groups in first-seen order; a scalar aggregate has exactly
                // one group even over zero rows.
                let mut groups: Vec<(Row, Vec<&Row>)> = Vec::new();
                let mut index: HashMap<Vec<Key>, usize> = HashMap::new();
                if group_by.is_empty() {
                    groups.push((vec![], vec![]));
                    index.insert(vec![], 0);
                }
                for row in &input.rows {
                    let key: Row = group_by
                        .iter()
                        .map(|g| eval(&g.expr, &slots, row))
                        .collect::<Result<_>>()?;
                    let norm: Vec<Key> = key.iter().map(Key::of).collect();
                    let g = *index.entry(norm).or_insert_with(|| {
                        groups.push((key, vec![]));
                        groups.len() - 1
                    });
                    groups[g].1.push(row);
                }
                let cols: Vec<ColumnId> = group_by
                    .iter()
                    .map(|g| g.id)
                    .chain(aggs.iter().map(|a| a.output))
                    .collect();
                let out_slots = slots_of(&cols);
                let mut rows = Vec::new();
                for (key, members) in groups {
                    let mut row = key;
                    for agg in aggs {
                        row.push(aggregate(agg, &members, &slots)?);
                    }
                    if all_true(having.iter(), &out_slots, &row)? {
                        rows.push(row);
                    }
                }
                Ok(Rel { cols, rows })
            }
            LogicalPlan::Project { input, exprs } => {
                let input = self.run(input)?;
                let slots = slots_of(&input.cols);
                let cols = exprs.iter().map(|e| e.id).collect();
                let project = |row| exprs.iter().map(|e| eval(&e.expr, &slots, row)).collect();
                let rows = input.rows.iter().map(project).collect::<Result<_>>()?;
                Ok(Rel { cols, rows })
            }
            LogicalPlan::Sort { input, keys } => {
                let mut input = self.run(input)?;
                let rows = std::mem::take(&mut input.rows);
                input.rows = sort_rows(rows, keys, &slots_of(&input.cols))?;
                Ok(input)
            }
            LogicalPlan::Limit { input, n } => {
                let mut input = self.run(input)?;
                input.rows.truncate(*n);
                Ok(input)
            }
            LogicalPlan::ScalarFilter {
                input,
                subquery,
                pred,
                placeholder,
            } => {
                let sub = self.run(subquery)?;
                // The subquery's single value (NULL when it has no row)
                // rides along as one extra slot named by the placeholder.
                let value = match sub.rows.as_slice() {
                    [] => Datum::Null,
                    [row] => row.first().cloned().unwrap_or(Datum::Null),
                    _ => return Err(exec_err("scalar subquery returned more than one row")),
                };
                let mut input = self.run(input)?;
                let width = input.cols.len();
                let mut slots = slots_of(&input.cols);
                slots.insert(*placeholder, width);
                let mut rows = std::mem::take(&mut input.rows);
                rows.iter_mut().for_each(|row| row.push(value.clone()));
                input.rows = keep_true(rows, [pred], &slots)?;
                input.rows.iter_mut().for_each(|row| row.truncate(width));
                Ok(input)
            }
        }
    }

    /// One block relation: every row of its source, relabelled to the
    /// relation's virtual column ids, with its local predicates applied.
    fn scan(&self, rel: &BaseRel) -> Result<Rel> {
        let (width, rows): (usize, Vec<Row>) = match &rel.source {
            RelSource::Table(base) => {
                let table = self.catalog.data(*base)?;
                let rows = table
                    .chunks()
                    .iter()
                    .flat_map(|chunk| (0..chunk.rows()).map(move |i| chunk.row(i)))
                    .collect();
                (table.schema().len(), rows)
            }
            RelSource::Derived(plan) => {
                let sub = self.run(plan)?;
                (sub.cols.len(), sub.rows)
            }
        };
        let bound = self.bindings.get(rel.rel_id)?.schema.len();
        if bound != width {
            return Err(BfqError::internal(format!(
                "relation {} is bound with {bound} columns but produces {width}",
                rel.alias
            )));
        }
        let cols: Vec<ColumnId> = (0..width as u32)
            .map(|i| ColumnId::new(rel.rel_id, i))
            .collect();
        let rows = keep_true(rows, &rel.local_preds, &slots_of(&cols))?;
        Ok(Rel { cols, rows })
    }

    /// A select-project-join block: the inner relations joined left-deep
    /// (a relation connected to the joined set by an equi clause is taken
    /// before one that would need a cross product), then the semi / anti /
    /// left-outer relations attached in ordinal order. Every complex
    /// predicate is evaluated at the first join where all the relations it
    /// references are present.
    fn run_block(&self, block: &QueryBlock) -> Result<Rel> {
        let n = block.num_rels();
        let inner: Vec<usize> = (0..n)
            .filter(|&i| block.rel(i).kind == RelKind::Inner)
            .collect();
        let mut order: Vec<usize> = Vec::new();
        while order.len() < inner.len() {
            let joined = RelSet::from_iter(order.iter().copied());
            let pending = || inner.iter().copied().filter(|&i| !joined.contains(i));
            let linked = |i: &usize| !block.clauses_between(joined, RelSet::single(*i)).is_empty();
            let next = pending().find(linked).or_else(|| pending().next());
            order.push(next.expect("a pending inner relation"));
        }
        order.extend((0..n).filter(|i| !inner.contains(i)));
        let Some((&first, rest)) = order.split_first() else {
            return Err(BfqError::internal("query block without relations"));
        };

        let rels_of = |pred: &Expr| {
            let ordinal = |c: &ColumnId| block.ordinal_of(c.table);
            RelSet::from_iter(pred.columns().iter().filter_map(ordinal))
        };
        let mut applied = vec![false; block.complex_preds.len()];
        let mut clauses_used = 0;
        // Relations whose columns the accumulated rows carry.
        let mut present = RelSet::single(first);
        let mut acc = self.scan(block.rel(first))?;
        for &i in rest {
            let right = self.scan(block.rel(i))?;
            let mut keys = Vec::new();
            for c in &block.equi_clauses {
                if c.left_rel == i && present.contains(c.right_rel) {
                    keys.push((c.right, c.left));
                } else if c.right_rel == i && present.contains(c.left_rel) {
                    keys.push((c.left, c.right));
                }
            }
            clauses_used += keys.len();
            let mut extra = Vec::new();
            for (p, pred) in block.complex_preds.iter().enumerate() {
                if !applied[p] && rels_of(pred).is_subset_of(present.with(i)) {
                    applied[p] = true;
                    extra.push(pred);
                }
            }
            let kind = block.rel(i).kind;
            acc = attach(acc, &right, kind, &keys, &extra)?;
            if matches!(kind, RelKind::Inner | RelKind::LeftOuter) {
                present = present.with(i);
            }
        }
        if clauses_used != block.equi_clauses.len() || applied.contains(&false) {
            let msg = "a join condition references a relation that is absent where it attaches";
            return Err(exec_err(msg));
        }
        Ok(acc)
    }
}

/// Join `right` onto `left`. `keys` are `(left column, right column)`
/// equalities; `extra` are further conditions over the concatenated row.
/// A pair matches when every key pair is equal (NULL equals nothing) and
/// every extra condition is TRUE.
fn attach(
    left: Rel,
    right: &Rel,
    kind: RelKind,
    keys: &[(ColumnId, ColumnId)],
    extra: &[&Expr],
) -> Result<Rel> {
    let (left_slots, right_slots) = (slots_of(&left.cols), slots_of(&right.cols));
    let (mut left_keys, mut right_keys) = (Vec::new(), Vec::new());
    for (l, r) in keys {
        left_keys.push(slot_of(&left_slots, *l)?);
        right_keys.push(slot_of(&right_slots, *r)?);
    }
    // With no keys every row has the empty tuple as its key, so the lookup
    // degenerates to the cross product.
    let mut by_key: HashMap<Vec<Key>, Vec<&Row>> = HashMap::new();
    for row in &right.rows {
        if let Some(key) = join_key(row, &right_keys) {
            by_key.entry(key).or_default().push(row);
        }
    }
    let mut joined_cols = left.cols.clone();
    joined_cols.extend_from_slice(&right.cols);
    let joined_slots = slots_of(&joined_cols);

    let mut rows = Vec::new();
    for left_row in left.rows {
        let partners = join_key(&left_row, &left_keys).and_then(|k| by_key.get(&k));
        let mut matches = Vec::new();
        for right_row in partners.into_iter().flatten() {
            let mut row = left_row.clone();
            row.extend_from_slice(right_row);
            if all_true(extra.iter().copied(), &joined_slots, &row)? {
                matches.push(row);
            }
        }
        match kind {
            RelKind::Inner => rows.extend(matches),
            RelKind::LeftOuter if matches.is_empty() => {
                let mut row = left_row;
                row.resize(joined_cols.len(), Datum::Null);
                rows.push(row);
            }
            RelKind::LeftOuter => rows.extend(matches),
            RelKind::Semi if !matches.is_empty() => rows.push(left_row),
            RelKind::Anti if matches.is_empty() => rows.push(left_row),
            RelKind::Semi | RelKind::Anti => {}
        }
    }
    let cols = match kind {
        RelKind::Inner | RelKind::LeftOuter => joined_cols,
        RelKind::Semi | RelKind::Anti => left.cols,
    };
    Ok(Rel { cols, rows })
}

/// A hashable stand-in for a datum in join keys, group keys and DISTINCT
/// sets. Integers, dates and integral floats share one key space, so
/// `1 = 1.0` joins; NULL is a key only for grouping.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Null,
    Int(i64),
    Float(u64),
    Str(Arc<str>),
    Bool(bool),
}

impl Key {
    fn of(d: &Datum) -> Key {
        match d {
            Datum::Null => Key::Null,
            Datum::Int(v) => Key::Int(*v),
            Datum::Date(v) => Key::Int(*v as i64),
            Datum::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Key::Int(*f as i64),
            Datum::Float(f) => Key::Float(f.to_bits()),
            Datum::Str(s) => Key::Str(s.clone()),
            Datum::Bool(b) => Key::Bool(*b),
        }
    }
}

/// The join key of `row`, or `None` when any key value is NULL.
fn join_key(row: &Row, key_slots: &[usize]) -> Option<Vec<Key>> {
    key_slots
        .iter()
        .map(|&s| match Key::of(&row[s]) {
            Key::Null => None,
            key => Some(key),
        })
        .collect()
}

/// One aggregate over a group's rows. NULL arguments are skipped; DISTINCT
/// drops repeated values first; over no values `count` is 0 and every
/// other function is NULL. `sum` of integers is an integer.
fn aggregate(agg: &AggExpr, members: &[&Row], slots: &Slots) -> Result<Datum> {
    let Some(arg) = &agg.arg else {
        return Ok(Datum::Int(members.len() as i64)); // COUNT(*)
    };
    let mut values = Vec::new();
    let mut seen = HashSet::new();
    for row in members {
        let v = eval(arg, slots, row)?;
        if !v.is_null() && (!agg.distinct || seen.insert(Key::of(&v))) {
            values.push(v);
        }
    }
    let float_sum = || {
        values.iter().try_fold(0.0, |acc, v| {
            v.as_f64()
                .map(|x| acc + x)
                .ok_or_else(|| type_err(format!("cannot sum {v}")))
        })
    };
    let extreme = |want: Ordering| {
        let mut best = values[0].clone();
        for v in &values[1..] {
            if compare(v, &best)? == Some(want) {
                best = v.clone();
            }
        }
        Ok(best)
    };
    match agg.func {
        AggFunc::Count | AggFunc::CountStar => Ok(Datum::Int(values.len() as i64)),
        _ if values.is_empty() => Ok(Datum::Null),
        AggFunc::Sum if values.iter().all(|v| matches!(v, Datum::Int(_))) => Ok(Datum::Int(
            values.iter().filter_map(Datum::as_i64).sum::<i64>(),
        )),
        AggFunc::Sum => Ok(Datum::Float(float_sum()?)),
        AggFunc::Avg => Ok(Datum::Float(float_sum()? / values.len() as f64)),
        AggFunc::Min => extreme(Ordering::Less),
        AggFunc::Max => extreme(Ordering::Greater),
    }
}

/// Stable sort by `keys`; NULLs sort after every value ascending (so
/// first descending).
fn sort_rows(rows: Vec<Row>, keys: &[SortKey], slots: &Slots) -> Result<Vec<Row>> {
    let mut keyed: Vec<(Row, Row)> = Vec::with_capacity(rows.len());
    for row in rows {
        let key = keys
            .iter()
            .map(|k| eval(&k.expr, slots, &row))
            .collect::<Result<_>>()?;
        keyed.push((key, row));
    }
    let mut failure = None;
    keyed.sort_by(|(a, _), (b, _)| {
        for (k, (x, y)) in keys.iter().zip(a.iter().zip(b)) {
            let ord = match (x.is_null(), y.is_null()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => match compare(x, y) {
                    Ok(ord) => ord.unwrap_or(Ordering::Equal),
                    Err(e) => {
                        failure = Some(e);
                        Ordering::Equal
                    }
                },
            };
            if ord != Ordering::Equal {
                return if k.descending { ord.reverse() } else { ord };
            }
        }
        Ordering::Equal
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(keyed.into_iter().map(|(_, row)| row).collect()),
    }
}

// ---------------------------------------------------------------------------
// Scalar expressions: SQL three-valued logic over single datums. Booleans
// are `Datum::Bool`, UNKNOWN is `Datum::Null`.
// ---------------------------------------------------------------------------

fn exec_err(msg: &str) -> BfqError {
    BfqError::Execution(format!("reference: {msg}"))
}

fn type_err(msg: String) -> BfqError {
    BfqError::Type(format!("reference: {msg}"))
}

fn slot_of(slots: &Slots, col: ColumnId) -> Result<usize> {
    slots
        .get(&col)
        .copied()
        .ok_or_else(|| BfqError::internal(format!("reference: column {col} is not in scope")))
}

/// The rows for which every predicate is TRUE.
fn keep_true<'e>(
    rows: Vec<Row>,
    preds: impl IntoIterator<Item = &'e Expr> + Clone,
    slots: &Slots,
) -> Result<Vec<Row>> {
    let mut kept = Vec::new();
    for row in rows {
        if all_true(preds.clone(), slots, &row)? {
            kept.push(row);
        }
    }
    Ok(kept)
}

/// Whether every predicate evaluates to TRUE (not FALSE, not UNKNOWN).
fn all_true<'e>(
    preds: impl IntoIterator<Item = &'e Expr>,
    slots: &Slots,
    row: &Row,
) -> Result<bool> {
    for pred in preds {
        match eval(pred, slots, row)? {
            Datum::Bool(true) => {}
            Datum::Bool(false) | Datum::Null => return Ok(false),
            other => return Err(type_err(format!("predicate evaluated to {other}"))),
        }
    }
    Ok(true)
}

fn as_truth(d: Datum) -> Result<Option<bool>> {
    match d {
        Datum::Null => Ok(None),
        Datum::Bool(b) => Ok(Some(b)),
        other => Err(type_err(format!("expected a boolean, got {other}"))),
    }
}

fn from_truth(t: Option<bool>) -> Datum {
    t.map_or(Datum::Null, Datum::Bool)
}

/// Kleene AND: false dominates, then unknown.
fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// Kleene OR: true dominates, then unknown.
fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// SQL comparison: `None` when either side is NULL. Strings, booleans,
/// integers and dates compare within their type; any other pair of
/// numbers or dates compares as floats.
fn compare(a: &Datum, b: &Datum) -> Result<Option<Ordering>> {
    Ok(match (a, b) {
        (Datum::Null, _) | (_, Datum::Null) => None,
        (Datum::Str(x), Datum::Str(y)) => Some(x.cmp(y)),
        (Datum::Bool(x), Datum::Bool(y)) => Some(x.cmp(y)),
        (Datum::Int(x), Datum::Int(y)) => Some(x.cmp(y)),
        (Datum::Date(x), Datum::Date(y)) => Some(x.cmp(y)),
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x.partial_cmp(&y),
            _ => return Err(type_err(format!("cannot compare {a} with {b}"))),
        },
    })
}

fn comparison(op: BinOp, a: &Datum, b: &Datum) -> Result<Option<bool>> {
    Ok(compare(a, b)?.map(|ord| match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("{op} is not a comparison"),
    }))
}

/// Arithmetic. NULL in, NULL out; integers stay integers except under
/// `/`, which is always a float and NULL on a zero divisor; a date moves
/// by integer days and two dates subtract to days.
fn arithmetic(op: BinOp, a: &Datum, b: &Datum) -> Result<Datum> {
    use Datum::{Date, Float, Int, Null};
    Ok(match (op, a, b) {
        (_, Null, _) | (_, _, Null) => Null,
        (BinOp::Plus, Int(x), Int(y)) => Int(x.wrapping_add(*y)),
        (BinOp::Minus, Int(x), Int(y)) => Int(x.wrapping_sub(*y)),
        (BinOp::Mul, Int(x), Int(y)) => Int(x.wrapping_mul(*y)),
        (BinOp::Plus, Date(d), Int(n)) | (BinOp::Plus, Int(n), Date(d)) => Date(d + *n as i32),
        (BinOp::Minus, Date(d), Int(n)) => Date(d - *n as i32),
        (BinOp::Minus, Date(x), Date(y)) => Int((x - y) as i64),
        (_, Int(_) | Float(_), Int(_) | Float(_)) => {
            let (x, y) = (a.as_f64().unwrap_or(0.0), b.as_f64().unwrap_or(0.0));
            match op {
                BinOp::Plus => Float(x + y),
                BinOp::Minus => Float(x - y),
                BinOp::Mul => Float(x * y),
                BinOp::Div if y == 0.0 => Null,
                BinOp::Div => Float(x / y),
                _ => unreachable!("{op} is not arithmetic"),
            }
        }
        _ => return Err(type_err(format!("cannot evaluate {a} {op} {b}"))),
    })
}

/// `%` matches any run of characters, `_` exactly one.
fn like(text: &[char], pattern: &[char]) -> bool {
    match pattern.split_first() {
        None => text.is_empty(),
        Some(('%', rest)) => (0..=text.len()).any(|skip| like(&text[skip..], rest)),
        Some(('_', rest)) => !text.is_empty() && like(&text[1..], rest),
        Some((c, rest)) => text.first() == Some(c) && like(&text[1..], rest),
    }
}

/// `(year, month)` of a day count since 1970-01-01 in the proleptic
/// Gregorian calendar (the days-from-civil inverse, era by era).
fn year_month(days: i32) -> (i64, i64) {
    let z = days as i64 + 719_468; // days since 0000-03-01
    let era = z.div_euclid(146_097);
    let day_of_era = z.rem_euclid(146_097);
    let year_of_era =
        (day_of_era - day_of_era / 1_460 + day_of_era / 36_524 - day_of_era / 146_096) / 365;
    let day_of_year = day_of_era - (365 * year_of_era + year_of_era / 4 - year_of_era / 100);
    let month = ((5 * day_of_year + 2) / 153 + 2) % 12 + 1; // the era's year starts in March
    let year = year_of_era + era * 400 + i64::from(month <= 2);
    (year, month)
}

fn eval(expr: &Expr, slots: &Slots, row: &Row) -> Result<Datum> {
    let sub = |e: &Expr| eval(e, slots, row);
    Ok(match expr {
        Expr::Column(id) => row[slot_of(slots, *id)?].clone(),
        Expr::Literal(d) => d.clone(),
        Expr::Param(i) => return Err(exec_err(&format!("unbound parameter ${}", i + 1))),
        Expr::Binary { op, left, right } => {
            let (l, r) = (sub(left)?, sub(right)?);
            match op {
                BinOp::And => from_truth(and3(as_truth(l)?, as_truth(r)?)),
                BinOp::Or => from_truth(or3(as_truth(l)?, as_truth(r)?)),
                op if op.is_comparison() => from_truth(comparison(*op, &l, &r)?),
                op => arithmetic(*op, &l, &r)?,
            }
        }
        Expr::Unary { op, expr } => {
            let v = sub(expr)?;
            match op {
                UnOp::Not => from_truth(as_truth(v)?.map(|b| !b)),
                UnOp::IsNull => Datum::Bool(v.is_null()),
                UnOp::IsNotNull => Datum::Bool(!v.is_null()),
                UnOp::Neg => match v {
                    Datum::Null => Datum::Null,
                    Datum::Int(x) => Datum::Int(-x),
                    Datum::Float(x) => Datum::Float(-x),
                    other => return Err(type_err(format!("cannot negate {other}"))),
                },
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = sub(expr)?;
            let inside = and3(
                comparison(BinOp::GtEq, &v, &sub(low)?)?,
                comparison(BinOp::LtEq, &v, &sub(high)?)?,
            );
            from_truth(inside.map(|b| b != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = sub(expr)?;
            let mut found = Some(false);
            for item in list {
                found = or3(found, comparison(BinOp::Eq, &v, &sub(item)?)?);
            }
            from_truth(found.map(|b| b != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => match sub(expr)? {
            Datum::Null => Datum::Null,
            Datum::Str(s) => {
                let text: Vec<char> = s.chars().collect();
                let pattern: Vec<char> = pattern.chars().collect();
                Datum::Bool(like(&text, &pattern) != *negated)
            }
            other => return Err(type_err(format!("LIKE over {other}"))),
        },
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (cond, value) in branches {
                if as_truth(sub(cond)?)? == Some(true) {
                    return sub(value);
                }
            }
            match else_expr {
                Some(e) => sub(e)?,
                None => Datum::Null,
            }
        }
        Expr::ExtractYear(e) | Expr::ExtractMonth(e) => match sub(e)? {
            Datum::Null => Datum::Null,
            Datum::Date(days) if matches!(expr, Expr::ExtractYear(_)) => {
                Datum::Int(year_month(days).0)
            }
            Datum::Date(days) => Datum::Int(year_month(days).1),
            other => return Err(type_err(format!("EXTRACT from {other}"))),
        },
        Expr::Substring { expr, start, len } => match sub(expr)? {
            Datum::Null => Datum::Null,
            Datum::Str(s) => {
                // Positions max(start, 1) through start + len - 1, 1-based.
                let first = (*start).max(1);
                let end = start.saturating_add(*len);
                let piece: String = s
                    .chars()
                    .skip(first - 1)
                    .take(end.saturating_sub(first))
                    .collect();
                Datum::str(piece)
            }
            other => return Err(type_err(format!("SUBSTRING of {other}"))),
        },
    })
}

#[cfg(test)]
mod tests;
