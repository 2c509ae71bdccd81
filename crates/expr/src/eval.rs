//! Vectorized expression evaluation over chunks.
//!
//! Evaluation is column-at-a-time with SQL three-valued-logic null handling:
//! comparisons on NULL yield NULL, `AND`/`OR` follow Kleene logic, and a
//! WHERE clause keeps only rows whose predicate is *true* (not NULL).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

use bfq_common::{date, BfqError, ColumnId, DataType, Datum, Result};
use bfq_storage::{Bitmap, Chunk, Column, ColumnBuilder, ColumnRef, StrData};

use crate::like::Matcher;
use crate::{BinOp, Expr, UnOp};

/// Maps chunk slots back to the [`ColumnId`]s they carry.
///
/// Every physical operator's output is described by a `Layout`; expression
/// evaluation resolves `Expr::Column(id)` to a slot through it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Layout {
    columns: Vec<ColumnId>,
}

impl Layout {
    /// A layout over the given column ids.
    pub fn new(columns: Vec<ColumnId>) -> Self {
        Layout { columns }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the layout has no slots.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The column ids in slot order.
    pub fn columns(&self) -> &[ColumnId] {
        &self.columns
    }

    /// The slot carrying `id`, if any.
    pub fn slot_of(&self, id: ColumnId) -> Option<usize> {
        self.columns.iter().position(|c| *c == id)
    }

    /// Concatenated layout (join output = left slots then right slots).
    pub fn concat(&self, other: &Layout) -> Layout {
        let mut columns = self.columns.clone();
        columns.extend_from_slice(&other.columns);
        Layout { columns }
    }

    /// Whether every column of `expr` is available in this layout.
    pub fn covers(&self, expr: &Expr) -> bool {
        expr.columns().iter().all(|c| self.slot_of(*c).is_some())
    }
}

/// A boolean vector with three-valued logic (value + validity).
#[derive(Debug, Clone)]
struct BoolVec {
    vals: Vec<bool>,
    valid: Option<Vec<bool>>,
}

impl BoolVec {
    fn new(vals: Vec<bool>) -> Self {
        BoolVec { vals, valid: None }
    }

    fn len(&self) -> usize {
        self.vals.len()
    }

    fn is_valid(&self, i: usize) -> bool {
        self.valid.as_ref().is_none_or(|v| v[i])
    }

    fn set_invalid(&mut self, i: usize) {
        if self.valid.is_none() {
            self.valid = Some(vec![true; self.vals.len()]);
        }
        self.valid.as_mut().unwrap()[i] = false;
    }

    fn into_column(self) -> Column {
        let validity = self.valid.map(Bitmap::from_bools);
        Column::Bool(self.vals, validity)
    }

    fn from_column(col: &Column) -> Result<Self> {
        let vals = col
            .as_bool()
            .ok_or_else(|| BfqError::Type(format!("expected BOOL, got {}", col.data_type())))?
            .to_vec();
        let valid = col
            .validity()
            .map(|bm| (0..col.len()).map(|i| bm.get(i)).collect());
        Ok(BoolVec { vals, valid })
    }

    /// Kleene NOT.
    fn not(mut self) -> Self {
        for v in &mut self.vals {
            *v = !*v;
        }
        self
    }

    /// Kleene AND.
    fn and(self, other: BoolVec) -> Self {
        let n = self.len();
        let mut out = BoolVec::new(vec![false; n]);
        for i in 0..n {
            let (lv, ln) = (self.vals[i], !self.is_valid(i));
            let (rv, rn) = (other.vals[i], !other.is_valid(i));
            // F if either side is definitively false; N if unknown remains.
            if (!ln && !lv) || (!rn && !rv) {
                out.vals[i] = false;
            } else if ln || rn {
                out.set_invalid(i);
            } else {
                out.vals[i] = true;
            }
        }
        out
    }

    /// Kleene OR.
    fn or(self, other: BoolVec) -> Self {
        let n = self.len();
        let mut out = BoolVec::new(vec![false; n]);
        for i in 0..n {
            let (lv, ln) = (self.vals[i], !self.is_valid(i));
            let (rv, rn) = (other.vals[i], !other.is_valid(i));
            if (!ln && lv) || (!rn && rv) {
                out.vals[i] = true;
            } else if ln || rn {
                out.set_invalid(i);
            } else {
                out.vals[i] = false;
            }
        }
        out
    }
}

/// The slot carrying `id` in `layout`, or the evaluator's missing-column
/// error.
pub(crate) fn slot(layout: &Layout, id: ColumnId) -> Result<usize> {
    layout
        .slot_of(id)
        .ok_or_else(|| BfqError::internal(format!("column {id} not present in layout")))
}

/// Evaluate `expr` over `chunk`, producing one output column.
///
/// A column reference shares the chunk's column (an `Arc` clone); only
/// computed expressions allocate.
pub fn eval(expr: &Expr, chunk: &Chunk, layout: &Layout) -> Result<ColumnRef> {
    let rows = chunk.rows();
    let col = match expr {
        Expr::Column(id) => return Ok(Arc::clone(chunk.column(slot(layout, *id)?))),
        Expr::Literal(d) => broadcast_literal(d, rows),
        Expr::Param(i) => {
            return Err(BfqError::Execution(format!(
                "unbound parameter ${} (bind values before executing)",
                i + 1
            )))
        }
        Expr::Binary { op, left, right } => {
            if op.is_logical() {
                let l = BoolVec::from_column(&*eval(left, chunk, layout)?)?;
                let r = BoolVec::from_column(&*eval(right, chunk, layout)?)?;
                let out = match op {
                    BinOp::And => l.and(r),
                    BinOp::Or => l.or(r),
                    _ => unreachable!(),
                };
                out.into_column()
            } else {
                let l = operand(left, chunk, layout)?;
                let r = operand(right, chunk, layout)?;
                if op.is_comparison() {
                    compare(*op, &l, &r, rows)?.into_column()
                } else {
                    arith(*op, &l, &r, rows)?
                }
            }
        }
        Expr::Unary { op, expr } => match op {
            UnOp::Not => {
                let v = BoolVec::from_column(&*eval(expr, chunk, layout)?)?;
                v.not().into_column()
            }
            UnOp::Neg => negate_column(&*eval(expr, chunk, layout)?)?,
            UnOp::IsNull | UnOp::IsNotNull => {
                let c = eval(expr, chunk, layout)?;
                let want_null = matches!(op, UnOp::IsNull);
                let vals = (0..c.len()).map(|i| c.is_null(i) == want_null).collect();
                Column::Bool(vals, None)
            }
        },
        Expr::Between {
            expr: e,
            low,
            high,
            negated,
        } => {
            let v = operand(e, chunk, layout)?;
            let lo = operand(low, chunk, layout)?;
            let hi = operand(high, chunk, layout)?;
            let ge = compare(BinOp::GtEq, &v, &lo, rows)?;
            let le = compare(BinOp::LtEq, &v, &hi, rows)?;
            let mut out = ge.and(le);
            if *negated {
                out = out.not();
            }
            out.into_column()
        }
        Expr::InList {
            expr: e,
            list,
            negated,
        } => {
            let v = operand(e, chunk, layout)?;
            let mut acc: Option<BoolVec> = None;
            for item in list {
                let eq = compare(BinOp::Eq, &v, &operand(item, chunk, layout)?, rows)?;
                acc = Some(match acc {
                    None => eq,
                    Some(a) => a.or(eq),
                });
            }
            let mut out = acc.unwrap_or_else(|| BoolVec::new(vec![false; rows]));
            if *negated {
                out = out.not();
            }
            out.into_column()
        }
        Expr::Like {
            expr: e,
            pattern,
            negated,
        } => {
            let c = eval(e, chunk, layout)?;
            let s = c
                .as_str()
                .ok_or_else(|| BfqError::Type("LIKE requires a string operand".into()))?;
            let matcher = Matcher::new(pattern);
            let mut out = BoolVec::new(vec![false; rows]);
            for i in 0..rows {
                if c.is_null(i) {
                    out.set_invalid(i);
                } else {
                    let m = matcher.matches(s.get(i));
                    out.vals[i] = m != *negated;
                }
            }
            out.into_column()
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            let conds: Vec<BoolVec> = branches
                .iter()
                .map(|(c, _)| BoolVec::from_column(&*eval(c, chunk, layout)?))
                .collect::<Result<_>>()?;
            let vals: Vec<ColumnRef> = branches
                .iter()
                .map(|(_, v)| eval(v, chunk, layout))
                .collect::<Result<_>>()?;
            let else_col = match else_expr {
                Some(e) => Some(eval(e, chunk, layout)?),
                None => None,
            };
            let out_type = vals
                .first()
                .map(|c| c.data_type())
                .or(else_col.as_ref().map(|c| c.data_type()))
                .ok_or_else(|| BfqError::Type("CASE with no branches".into()))?;
            let mut builder = ColumnBuilder::with_capacity(out_type, rows);
            for i in 0..rows {
                let mut chosen: Option<Datum> = None;
                for (cond, val) in conds.iter().zip(&vals) {
                    if cond.is_valid(i) && cond.vals[i] {
                        chosen = Some(val.get(i));
                        break;
                    }
                }
                let datum = chosen
                    .unwrap_or_else(|| else_col.as_ref().map(|c| c.get(i)).unwrap_or(Datum::Null));
                builder.push_datum(&datum)?;
            }
            builder.finish()
        }
        Expr::ExtractYear(e) => extract_date_part(e, chunk, layout, date::year_of)?,
        Expr::ExtractMonth(e) => extract_date_part(e, chunk, layout, |d| date::month_of(d) as i32)?,
        Expr::Substring {
            expr: e,
            start,
            len,
        } => {
            let c = eval(e, chunk, layout)?;
            let s = c
                .as_str()
                .ok_or_else(|| BfqError::Type("SUBSTRING requires a string operand".into()))?;
            let (skip, take) = substring_chars(*start, *len);
            // The pieces fit in the input's bytes, whatever `FOR` asks.
            let mut out = StrData::with_capacity(rows, take.min(s.payload_bytes() / rows.max(1)));
            for i in 0..rows {
                out.push(substring(s.get(i), skip, take));
            }
            Column::Utf8(out, c.validity().cloned())
        }
    };
    Ok(Arc::new(col))
}

/// SQL's `SUBSTRING(… FROM start FOR len)` as characters to skip and to
/// take: positions `max(start, 1)` through `start + len − 1`, 1-based, so a
/// start of 0 takes one character less.
fn substring_chars(start: usize, len: usize) -> (usize, usize) {
    let skip = start.saturating_sub(1);
    (skip, start.saturating_add(len).saturating_sub(skip + 1))
}

/// Characters `skip..skip + take` of `text`, sliced by byte bounds: an
/// ASCII prefix up to the end bound needs no character walk.
#[inline]
fn substring(text: &str, skip: usize, take: usize) -> &str {
    let end = skip.saturating_add(take);
    if text.as_bytes()[..end.min(text.len())].is_ascii() {
        return &text[skip.min(text.len())..end.min(text.len())];
    }
    let mut bounds = text.char_indices().map(|(at, _)| at).chain([text.len()]);
    let from = bounds.nth(skip).unwrap_or(text.len());
    let to = match take {
        0 => from,
        _ => bounds.nth(take - 1).unwrap_or(text.len()),
    };
    &text[from..to]
}

fn extract_date_part(
    e: &Expr,
    chunk: &Chunk,
    layout: &Layout,
    part: impl Fn(i32) -> i32,
) -> Result<Column> {
    let c = eval(e, chunk, layout)?;
    let days = c
        .as_date()
        .ok_or_else(|| BfqError::Type("EXTRACT requires a date operand".into()))?;
    let vals: Vec<i64> = days.iter().map(|&d| part(d) as i64).collect();
    let validity = c.validity().cloned();
    Ok(Column::Int64(vals, validity))
}

fn broadcast_literal(d: &Datum, rows: usize) -> Column {
    match d {
        Datum::Null => Column::nulls(DataType::Int64, rows),
        Datum::Int(v) => Column::Int64(vec![*v; rows], None),
        Datum::Float(v) => Column::Float64(vec![*v; rows], None),
        Datum::Bool(b) => Column::Bool(vec![*b; rows], None),
        Datum::Date(v) => Column::Date(vec![*v; rows], None),
        Datum::Str(s) => {
            let mut sd = StrData::with_capacity(rows, s.len());
            for _ in 0..rows {
                sd.push(s);
            }
            Column::Utf8(sd, None)
        }
    }
}

fn cmp_matches(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("not a comparison"),
    }
}

/// One operand of a comparison or arithmetic kernel: a column, or a
/// non-NULL literal read as a scalar instead of broadcast. A NULL literal
/// is evaluated (an all-NULL INT64 column), which is what types it.
enum Operand<'a> {
    Col(ColumnRef),
    Lit(&'a Datum),
}

fn operand<'a>(e: &'a Expr, chunk: &Chunk, layout: &Layout) -> Result<Operand<'a>> {
    Ok(match e {
        Expr::Literal(d) if !d.is_null() => Operand::Lit(d),
        _ => Operand::Col(eval(e, chunk, layout)?),
    })
}

/// An operand's values on one typed axis: a column's (borrowed, or
/// converted once) or one literal.
enum Vals<'a, T: Clone> {
    Col(Cow<'a, [T]>),
    Lit(T),
}

impl<T: Copy> Vals<'_, T> {
    /// `f(row)` for each of `n` rows.
    fn map<U>(&self, n: usize, f: impl Fn(T) -> U) -> Vec<U> {
        match self {
            Vals::Col(a) => a.iter().map(|&x| f(x)).collect(),
            Vals::Lit(x) => (0..n).map(|_| f(*x)).collect(),
        }
    }

    /// The values converted to another axis; a literal stays one.
    fn cast<U: Clone>(&self, f: impl Fn(T) -> U) -> Vals<'static, U> {
        match self {
            Vals::Col(a) => Vals::Col(Cow::Owned(a.iter().map(|&x| f(x)).collect())),
            Vals::Lit(x) => Vals::Lit(f(*x)),
        }
    }

    /// `f(self[row], other[row])` for each of `n` rows.
    fn zip<U>(&self, other: &Vals<'_, T>, n: usize, f: impl Fn(T, T) -> U) -> Vec<U> {
        match (self, other) {
            (Vals::Col(a), Vals::Col(b)) => {
                a.iter().zip(b.iter()).map(|(&x, &y)| f(x, y)).collect()
            }
            (Vals::Col(a), Vals::Lit(y)) => a.iter().map(|&x| f(x, *y)).collect(),
            (Vals::Lit(x), Vals::Col(b)) => b.iter().map(|&y| f(*x, y)).collect(),
            (Vals::Lit(x), Vals::Lit(y)) => (0..n).map(|_| f(*x, *y)).collect(),
        }
    }
}

impl Operand<'_> {
    fn data_type(&self) -> DataType {
        match self {
            Operand::Col(c) => c.data_type(),
            Operand::Lit(d) => d.data_type().expect("a NULL literal is a column"),
        }
    }

    fn is_null(&self, i: usize) -> bool {
        matches!(self, Operand::Col(c) if c.is_null(i))
    }

    fn nullable(&self) -> bool {
        matches!(self, Operand::Col(c) if c.validity().is_some())
    }

    /// INT64 values (the caller has checked the type).
    fn ints(&self) -> Vals<'_, i64> {
        match self {
            Operand::Col(c) => Vals::Col(Cow::Borrowed(c.as_i64().expect("INT64 operand"))),
            Operand::Lit(d) => Vals::Lit(d.as_i64().expect("INT64 operand")),
        }
    }

    /// DATE values (the caller has checked the type).
    fn dates(&self) -> Vals<'_, i32> {
        match self {
            Operand::Col(c) => Vals::Col(Cow::Borrowed(c.as_date().expect("DATE operand"))),
            Operand::Lit(Datum::Date(v)) => Vals::Lit(*v),
            Operand::Lit(_) => unreachable!("DATE operand"),
        }
    }

    /// UTF8 values (the caller has checked the type).
    fn strs(&self) -> Vals<'_, &str> {
        match self {
            Operand::Col(c) => Vals::Col(Cow::Owned(
                c.as_str().expect("UTF8 operand").iter().collect(),
            )),
            Operand::Lit(d) => Vals::Lit(d.as_str().expect("UTF8 operand")),
        }
    }

    /// Values on the shared numeric axis (ints, dates and booleans widened
    /// once, floats borrowed); strings have none.
    fn floats(&self) -> Result<Vals<'_, f64>> {
        let not_numeric = || BfqError::Type("cannot compare a string with a numeric value".into());
        Ok(match self {
            Operand::Col(c) => match c.as_ref() {
                Column::Float64(v, _) => Vals::Col(Cow::Borrowed(v.as_slice())),
                Column::Int64(v, _) => Vals::Col(Cow::Borrowed(v.as_slice())).cast(|x| x as f64),
                Column::Date(v, _) => Vals::Col(Cow::Borrowed(v.as_slice())).cast(|x| x as f64),
                Column::Bool(v, _) => {
                    Vals::Col(Cow::Borrowed(v.as_slice())).cast(|x| x as u8 as f64)
                }
                Column::Utf8(..) => return Err(not_numeric()),
            },
            Operand::Lit(Datum::Bool(b)) => Vals::Lit(*b as u8 as f64),
            Operand::Lit(d) => Vals::Lit(d.as_f64().ok_or_else(not_numeric)?),
        })
    }
}

/// Row validity of a binary result: valid where neither operand is NULL
/// and `extra_null` (if any) is false; `None` when no operand can be NULL
/// and no row is forced NULL.
fn valid_rows(
    l: &Operand,
    r: &Operand,
    n: usize,
    extra_null: Option<&[bool]>,
) -> Option<Vec<bool>> {
    let forced = extra_null.is_some_and(|e| e.contains(&true));
    if !l.nullable() && !r.nullable() && !forced {
        return None;
    }
    Some(
        (0..n)
            .map(|i| !l.is_null(i) && !r.is_null(i) && !extra_null.is_some_and(|e| e[i]))
            .collect(),
    )
}

fn compare(op: BinOp, l: &Operand, r: &Operand, n: usize) -> Result<BoolVec> {
    let m = |ord| cmp_matches(op, ord);
    let vals = match (l.data_type(), r.data_type()) {
        (DataType::Utf8, DataType::Utf8) => l.strs().zip(&r.strs(), n, |a, b| m(a.cmp(b))),
        (DataType::Int64, DataType::Int64) => l.ints().zip(&r.ints(), n, |a, b| m(a.cmp(&b))),
        (DataType::Date, DataType::Date) => l.dates().zip(&r.dates(), n, |a, b| m(a.cmp(&b))),
        // Numeric cross-type comparison on the f64 axis, or error.
        _ => {
            let (a, b) = (l.floats()?, r.floats()?);
            a.zip(&b, n, |a, b| {
                m(a.partial_cmp(&b).unwrap_or(Ordering::Equal))
            })
        }
    };
    Ok(BoolVec {
        vals,
        valid: valid_rows(l, r, n, None),
    })
}

fn arith(op: BinOp, l: &Operand, r: &Operand, n: usize) -> Result<Column> {
    let (lt, rt) = (l.data_type(), r.data_type());
    let bitmap = |valid: Option<Vec<bool>>| valid.map(Bitmap::from_bools);
    if lt == DataType::Date || rt == DataType::Date {
        return date_arith(op, l, r, n);
    }
    if !lt.is_numeric() || !rt.is_numeric() {
        return Err(BfqError::Type(format!(
            "arithmetic on non-numeric types {lt} {op} {rt}"
        )));
    }
    if op == BinOp::Div {
        let (a, d) = (l.floats()?, r.floats()?);
        let zero = d.map(n, |d| d == 0.0);
        let vals = a.zip(&d, n, |a, d| if d == 0.0 { 0.0 } else { a / d });
        return Ok(Column::Float64(
            vals,
            bitmap(valid_rows(l, r, n, Some(&zero))),
        ));
    }
    let validity = bitmap(valid_rows(l, r, n, None));
    if lt == DataType::Float64 || rt == DataType::Float64 {
        let (a, b) = (l.floats()?, r.floats()?);
        let vals = match op {
            BinOp::Plus => a.zip(&b, n, |x, y| x + y),
            BinOp::Minus => a.zip(&b, n, |x, y| x - y),
            BinOp::Mul => a.zip(&b, n, |x, y| x * y),
            _ => unreachable!(),
        };
        Ok(Column::Float64(vals, validity))
    } else {
        let (a, b) = (l.ints(), r.ints());
        let vals = match op {
            BinOp::Plus => a.zip(&b, n, i64::wrapping_add),
            BinOp::Minus => a.zip(&b, n, i64::wrapping_sub),
            BinOp::Mul => a.zip(&b, n, i64::wrapping_mul),
            _ => unreachable!(),
        };
        Ok(Column::Int64(vals, validity))
    }
}

fn date_arith(op: BinOp, l: &Operand, r: &Operand, n: usize) -> Result<Column> {
    let validity = valid_rows(l, r, n, None).map(Bitmap::from_bools);
    match (l.data_type(), r.data_type(), op) {
        (DataType::Date, DataType::Date, BinOp::Minus) => {
            let vals = l.dates().zip(&r.dates(), n, |a, b| (a - b) as i64);
            Ok(Column::Int64(vals, validity))
        }
        (DataType::Date, DataType::Int64, BinOp::Plus | BinOp::Minus) => {
            let (d, k) = (l.dates(), r.ints().cast(|k| k as i32));
            let vals = match op {
                BinOp::Plus => d.zip(&k, n, |a, b| a + b),
                _ => d.zip(&k, n, |a, b| a - b),
            };
            Ok(Column::Date(vals, validity))
        }
        (DataType::Int64, DataType::Date, BinOp::Plus) => {
            let k = l.ints().cast(|k| k as i32);
            let vals = k.zip(&r.dates(), n, |a, b| a + b);
            Ok(Column::Date(vals, validity))
        }
        _ => Err(BfqError::Type(format!(
            "unsupported date arithmetic {} {op} {}",
            l.data_type(),
            r.data_type()
        ))),
    }
}

fn negate_column(c: &Column) -> Result<Column> {
    match c {
        Column::Int64(v, val) => Ok(Column::Int64(v.iter().map(|x| -x).collect(), val.clone())),
        Column::Float64(v, val) => Ok(Column::Float64(v.iter().map(|x| -x).collect(), val.clone())),
        _ => Err(BfqError::Type(format!("cannot negate {}", c.data_type()))),
    }
}

/// Scalar binary evaluation used by constant folding and the binder.
pub fn scalar_binary(op: BinOp, l: &Datum, r: &Datum) -> Result<Datum> {
    if l.is_null() || r.is_null() {
        return Ok(Datum::Null);
    }
    if op.is_comparison() {
        let ord = l
            .sql_cmp(r)
            .ok_or_else(|| BfqError::Type(format!("cannot compare {l} with {r}")))?;
        return Ok(Datum::Bool(cmp_matches(op, ord)));
    }
    match op {
        BinOp::And | BinOp::Or => {
            let (a, b) = (
                l.as_bool()
                    .ok_or_else(|| BfqError::Type("AND/OR on non-bool".into()))?,
                r.as_bool()
                    .ok_or_else(|| BfqError::Type("AND/OR on non-bool".into()))?,
            );
            Ok(Datum::Bool(if op == BinOp::And { a && b } else { a || b }))
        }
        _ => match (l, r) {
            (Datum::Int(a), Datum::Int(b)) => Ok(match op {
                BinOp::Plus => Datum::Int(a.wrapping_add(*b)),
                BinOp::Minus => Datum::Int(a.wrapping_sub(*b)),
                BinOp::Mul => Datum::Int(a.wrapping_mul(*b)),
                BinOp::Div => {
                    if *b == 0 {
                        Datum::Null
                    } else {
                        Datum::Float(*a as f64 / *b as f64)
                    }
                }
                _ => unreachable!(),
            }),
            (Datum::Date(a), Datum::Int(b)) => Ok(match op {
                BinOp::Plus => Datum::Date(a + *b as i32),
                BinOp::Minus => Datum::Date(a - *b as i32),
                _ => return Err(BfqError::Type("bad date arithmetic".into())),
            }),
            (Datum::Date(a), Datum::Date(b)) if op == BinOp::Minus => {
                Ok(Datum::Int((*a - *b) as i64))
            }
            _ => {
                let (a, b) = (
                    l.as_f64()
                        .ok_or_else(|| BfqError::Type(format!("arith on {l}")))?,
                    r.as_f64()
                        .ok_or_else(|| BfqError::Type(format!("arith on {r}")))?,
                );
                Ok(match op {
                    BinOp::Plus => Datum::Float(a + b),
                    BinOp::Minus => Datum::Float(a - b),
                    BinOp::Mul => Datum::Float(a * b),
                    BinOp::Div => {
                        if b == 0.0 {
                            Datum::Null
                        } else {
                            Datum::Float(a / b)
                        }
                    }
                    _ => unreachable!(),
                })
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval_predicate;
    use bfq_common::TableId;
    use std::sync::Arc as StdArc;

    fn cid(i: u32) -> ColumnId {
        ColumnId::new(TableId(0), i)
    }

    fn test_chunk() -> (Chunk, Layout) {
        let c0 = Column::Int64(vec![1, 2, 3, 4], None);
        let c1 = Column::Float64(vec![10.0, 20.0, 30.0, 40.0], None);
        let c2 = Column::Utf8(
            ["apple", "banana", "cherry", "apricot"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            None,
        );
        let c3 = Column::Date(vec![0, 100, 200, 300], None);
        let chunk = Chunk::new(vec![
            StdArc::new(c0),
            StdArc::new(c1),
            StdArc::new(c2),
            StdArc::new(c3),
        ])
        .unwrap();
        let layout = Layout::new(vec![cid(0), cid(1), cid(2), cid(3)]);
        (chunk, layout)
    }

    #[test]
    fn column_and_literal() {
        let (chunk, layout) = test_chunk();
        let c = eval(&Expr::col(cid(0)), &chunk, &layout).unwrap();
        assert_eq!(c.as_i64(), Some(&[1i64, 2, 3, 4][..]));
        let l = eval(&Expr::int(7), &chunk, &layout).unwrap();
        assert_eq!(l.as_i64(), Some(&[7i64, 7, 7, 7][..]));
        assert!(eval(&Expr::col(ColumnId::new(TableId(9), 0)), &chunk, &layout).is_err());
    }

    #[test]
    fn a_column_reference_shares_the_chunks_column() {
        let (chunk, layout) = test_chunk();
        for slot in 0..chunk.width() {
            let c = eval(&Expr::col(cid(slot as u32)), &chunk, &layout).unwrap();
            assert!(StdArc::ptr_eq(&c, chunk.column(slot)), "slot {slot}");
        }
    }

    #[test]
    fn comparisons_and_predicates() {
        let (chunk, layout) = test_chunk();
        let pred = Expr::binary(BinOp::Gt, Expr::col(cid(0)), Expr::int(2));
        assert_eq!(eval_predicate(&pred, &chunk, &layout).unwrap(), vec![2, 3]);
        // Cross-type: int column > float literal.
        let pred = Expr::binary(BinOp::GtEq, Expr::col(cid(0)), Expr::lit(Datum::Float(2.5)));
        assert_eq!(eval_predicate(&pred, &chunk, &layout).unwrap(), vec![2, 3]);
        // String comparison.
        let pred = Expr::binary(
            BinOp::Lt,
            Expr::col(cid(2)),
            Expr::lit(Datum::str("banana")),
        );
        assert_eq!(eval_predicate(&pred, &chunk, &layout).unwrap(), vec![0, 3]);
        // String vs numeric errors.
        let bad = Expr::binary(BinOp::Lt, Expr::col(cid(2)), Expr::int(1));
        assert!(eval(&bad, &chunk, &layout).is_err());
    }

    #[test]
    fn predicate_kernels_match_general_path() {
        // Nullable Int64 column so the kernels' validity handling is
        // exercised; general path computed by evaluating the Bool column.
        let vals: Vec<i64> = (0..100).map(|i| (i * 7) % 23).collect();
        let validity = Bitmap::from_bools((0..100).map(|i| i % 9 != 0).collect::<Vec<_>>());
        let dates: Vec<i32> = (0..100).map(|i| (i * 3) % 41).collect();
        let chunk = Chunk::new(vec![
            StdArc::new(Column::Int64(vals, Some(validity.clone()))),
            StdArc::new(Column::Date(dates, Some(validity))),
        ])
        .unwrap();
        let layout = Layout::new(vec![cid(0), cid(1)]);
        let general = |pred: &Expr| -> Vec<u32> {
            let col = eval(pred, &chunk, &layout).unwrap();
            let vals = col.as_bool().unwrap();
            (0..vals.len() as u32)
                .filter(|&i| vals[i as usize] && !col.is_null(i as usize))
                .collect()
        };
        for op in [
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ] {
            let pred = Expr::binary(op, Expr::col(cid(0)), Expr::int(11));
            assert_eq!(
                eval_predicate(&pred, &chunk, &layout).unwrap(),
                general(&pred),
                "int64 {op:?}"
            );
            // Flipped operand order takes the mirrored kernel.
            let flipped = Expr::binary(op, Expr::int(11), Expr::col(cid(0)));
            assert_eq!(
                eval_predicate(&flipped, &chunk, &layout).unwrap(),
                general(&flipped),
                "flipped {op:?}"
            );
            let dpred = Expr::binary(op, Expr::col(cid(1)), Expr::lit(Datum::Date(20)));
            assert_eq!(
                eval_predicate(&dpred, &chunk, &layout).unwrap(),
                general(&dpred),
                "date {op:?}"
            );
        }
        // A NULL literal selects nothing.
        let pred = Expr::binary(BinOp::Eq, Expr::col(cid(0)), Expr::lit(Datum::Null));
        assert!(eval_predicate(&pred, &chunk, &layout).unwrap().is_empty());
    }

    #[test]
    fn arithmetic_types() {
        let (chunk, layout) = test_chunk();
        let e = Expr::binary(BinOp::Plus, Expr::col(cid(0)), Expr::int(10));
        assert_eq!(
            eval(&e, &chunk, &layout).unwrap().as_i64(),
            Some(&[11i64, 12, 13, 14][..])
        );
        let e = Expr::binary(BinOp::Mul, Expr::col(cid(1)), Expr::lit(Datum::Float(0.5)));
        assert_eq!(
            eval(&e, &chunk, &layout).unwrap().as_f64(),
            Some(&[5.0, 10.0, 15.0, 20.0][..])
        );
        // Int / Int is float.
        let e = Expr::binary(BinOp::Div, Expr::col(cid(0)), Expr::int(2));
        let c = eval(&e, &chunk, &layout).unwrap();
        assert_eq!(c.data_type(), DataType::Float64);
        assert_eq!(c.as_f64().unwrap()[1], 1.0);
    }

    #[test]
    fn literal_operands_match_their_broadcast_columns() {
        // A literal is read as a scalar, never broadcast; every operator
        // must give what it gives over the same literal broadcast into a
        // column (slot 4), bit for bit: values, validity and type.
        let valid = Some(Bitmap::from_bools([true, false, true, true, true, true]));
        let base = [
            Column::Int64(vec![-2, 0, 3, 7, i64::MAX, 1], valid.clone()),
            Column::Float64(vec![0.5, -0.0, f64::NAN, 3.0, 1e300, -2.0], None),
            Column::Date(vec![9000, 9001, -5, 0, 12000, 9002], valid),
            Column::Utf8(
                ["", "a", "b", "ab", "ba", "b"]
                    .map(String::from)
                    .into_iter()
                    .collect(),
                None,
            ),
        ];
        let literals = [
            Datum::Int(3),
            Datum::Int(0),
            Datum::Float(0.0),
            Datum::Float(2.5),
            Datum::Float(f64::NAN),
            Datum::Date(9001),
            Datum::str("b"),
            Datum::Bool(true),
        ];
        let ops = [
            BinOp::Plus,
            BinOp::Minus,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ];
        let layout = Layout::new((0..5).map(cid).collect());
        let show = |r: Result<ColumnRef>| r.map(|c| format!("{c:?}")).map_err(|_| ());
        for lit in &literals {
            let mut columns: Vec<ColumnRef> = base.iter().cloned().map(StdArc::new).collect();
            columns.push(StdArc::new(broadcast_literal(lit, 6)));
            let chunk = Chunk::new(columns).unwrap();
            for op in ops {
                for c in 0..4 {
                    for (l, r, b) in [
                        (
                            Expr::col(cid(c)),
                            Expr::lit(lit.clone()),
                            (Expr::col(cid(c)), Expr::col(cid(4))),
                        ),
                        (
                            Expr::lit(lit.clone()),
                            Expr::col(cid(c)),
                            (Expr::col(cid(4)), Expr::col(cid(c))),
                        ),
                    ] {
                        let scalar = Expr::binary(op, l, r);
                        let column = Expr::binary(op, b.0, b.1);
                        assert_eq!(
                            show(eval(&scalar, &chunk, &layout)),
                            show(eval(&column, &chunk, &layout)),
                            "{scalar}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn division_by_zero_is_null() {
        let (chunk, layout) = test_chunk();
        let e = Expr::binary(BinOp::Div, Expr::col(cid(0)), Expr::int(0));
        let c = eval(&e, &chunk, &layout).unwrap();
        assert!(c.is_null(0) && c.is_null(3));
    }

    #[test]
    fn date_arithmetic() {
        let (chunk, layout) = test_chunk();
        let e = Expr::binary(BinOp::Plus, Expr::col(cid(3)), Expr::int(5));
        let c = eval(&e, &chunk, &layout).unwrap();
        assert_eq!(c.data_type(), DataType::Date);
        assert_eq!(c.as_date().unwrap()[1], 105);
        let e = Expr::binary(BinOp::Minus, Expr::col(cid(3)), Expr::col(cid(3)));
        let c = eval(&e, &chunk, &layout).unwrap();
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.as_i64().unwrap(), &[0, 0, 0, 0]);
    }

    #[test]
    fn between_in_like() {
        let (chunk, layout) = test_chunk();
        let between = Expr::Between {
            expr: Box::new(Expr::col(cid(0))),
            low: Box::new(Expr::int(2)),
            high: Box::new(Expr::int(3)),
            negated: false,
        };
        assert_eq!(
            eval_predicate(&between, &chunk, &layout).unwrap(),
            vec![1, 2]
        );
        let not_between = Expr::Between {
            expr: Box::new(Expr::col(cid(0))),
            low: Box::new(Expr::int(2)),
            high: Box::new(Expr::int(3)),
            negated: true,
        };
        assert_eq!(
            eval_predicate(&not_between, &chunk, &layout).unwrap(),
            vec![0, 3]
        );
        let inlist = Expr::InList {
            expr: Box::new(Expr::col(cid(2))),
            list: vec![
                Expr::lit(Datum::str("apple")),
                Expr::lit(Datum::str("cherry")),
            ],
            negated: false,
        };
        assert_eq!(
            eval_predicate(&inlist, &chunk, &layout).unwrap(),
            vec![0, 2]
        );
        let like = Expr::Like {
            expr: Box::new(Expr::col(cid(2))),
            pattern: "ap%".into(),
            negated: false,
        };
        assert_eq!(eval_predicate(&like, &chunk, &layout).unwrap(), vec![0, 3]);
    }

    #[test]
    fn three_valued_logic() {
        let c0 = Column::Int64(vec![1, 2, 3], Some(Bitmap::from_bools([true, false, true])));
        let chunk = Chunk::new(vec![StdArc::new(c0)]).unwrap();
        let layout = Layout::new(vec![cid(0)]);
        // NULL = 2 is unknown, filtered out.
        let pred = Expr::col(cid(0)).eq(Expr::int(2));
        assert!(eval_predicate(&pred, &chunk, &layout).unwrap().is_empty());
        // x = 1 OR x IS NULL keeps rows 0 and 1.
        let pred = Expr::col(cid(0)).eq(Expr::int(1)).or(Expr::Unary {
            op: UnOp::IsNull,
            expr: Box::new(Expr::col(cid(0))),
        });
        assert_eq!(eval_predicate(&pred, &chunk, &layout).unwrap(), vec![0, 1]);
        // NOT (x = 2): row1 has NULL -> stays unknown -> excluded.
        let pred = Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(Expr::col(cid(0)).eq(Expr::int(2))),
        };
        assert_eq!(eval_predicate(&pred, &chunk, &layout).unwrap(), vec![0, 2]);
    }

    #[test]
    fn case_expression() {
        let (chunk, layout) = test_chunk();
        let e = Expr::Case {
            branches: vec![(
                Expr::binary(BinOp::Lt, Expr::col(cid(0)), Expr::int(3)),
                Expr::int(100),
            )],
            else_expr: Some(Box::new(Expr::int(200))),
        };
        let c = eval(&e, &chunk, &layout).unwrap();
        assert_eq!(c.as_i64(), Some(&[100i64, 100, 200, 200][..]));
        // No ELSE -> NULL.
        let e = Expr::Case {
            branches: vec![(
                Expr::binary(BinOp::Lt, Expr::col(cid(0)), Expr::int(2)),
                Expr::int(1),
            )],
            else_expr: None,
        };
        let c = eval(&e, &chunk, &layout).unwrap();
        assert!(!c.is_null(0) && c.is_null(3));
    }

    #[test]
    fn extract_parts() {
        let (chunk, layout) = test_chunk();
        let y = eval(
            &Expr::ExtractYear(Box::new(Expr::col(cid(3)))),
            &chunk,
            &layout,
        )
        .unwrap();
        assert_eq!(y.as_i64(), Some(&[1970i64, 1970, 1970, 1970][..]));
        let m = eval(
            &Expr::ExtractMonth(Box::new(Expr::col(cid(3)))),
            &chunk,
            &layout,
        )
        .unwrap();
        assert_eq!(m.as_i64(), Some(&[1i64, 4, 7, 10][..]));
    }

    #[test]
    fn scalar_binary_cases() {
        assert_eq!(
            scalar_binary(BinOp::Plus, &Datum::Int(1), &Datum::Int(2)).unwrap(),
            Datum::Int(3)
        );
        assert_eq!(
            scalar_binary(BinOp::Lt, &Datum::Int(1), &Datum::Float(1.5)).unwrap(),
            Datum::Bool(true)
        );
        assert_eq!(
            scalar_binary(BinOp::Plus, &Datum::Date(10), &Datum::Int(5)).unwrap(),
            Datum::Date(15)
        );
        assert_eq!(
            scalar_binary(BinOp::Eq, &Datum::Null, &Datum::Int(1)).unwrap(),
            Datum::Null
        );
        assert!(scalar_binary(BinOp::Plus, &Datum::str("x"), &Datum::Int(1)).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(500))]

        /// The byte-bounds SUBSTRING agrees with a `chars()` reference of
        /// SQL's rule over ASCII and non-ASCII text, for every start in
        /// `0..len + 2` and length in `0..len + 2`.
        #[test]
        fn substring_by_byte_bounds_matches_a_char_walk(seed in proptest::prelude::any::<u64>()) {
            const CHARS: [char; 6] = ['a', 'b', ' ', 'é', '日', '🦀'];
            let mut rng = proptest::test_runner::TestRng::for_case(seed);
            let alphabet = if rng.below(2) == 0 { 3 } else { CHARS.len() as u64 };
            let text: String = (0..rng.below(12))
                .map(|_| CHARS[rng.below(alphabet) as usize])
                .collect();
            let chars = text.chars().count();
            for start in 0..chars + 2 {
                for len in 0..chars + 2 {
                    let (skip, take) = substring_chars(start, len);
                    let expected: String = (text.chars().enumerate())
                        .filter(|&(i, _)| i + 1 >= start && i + 1 < start + len)
                        .map(|(_, c)| c)
                        .collect();
                    proptest::prop_assert_eq!(substring(&text, skip, take), expected);
                }
            }
        }
    }

    #[test]
    fn layout_operations() {
        let l1 = Layout::new(vec![cid(0), cid(1)]);
        let l2 = Layout::new(vec![cid(2)]);
        let both = l1.concat(&l2);
        assert_eq!(both.len(), 3);
        assert_eq!(both.slot_of(cid(2)), Some(2));
        assert!(both.covers(&Expr::col(cid(1)).eq(Expr::col(cid(2)))));
        assert!(!l1.covers(&Expr::col(cid(2)).eq(Expr::int(1))));
    }
}
