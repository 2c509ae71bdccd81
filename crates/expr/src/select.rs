//! Predicate evaluation as selection-vector refinement.
//!
//! [`eval_predicate`] returns the rows where a predicate is TRUE without
//! materializing a Bool column for the shapes scans and joins filter on:
//!
//! * `AND` refines one selection vector: the right side runs only over the
//!   rows the left side kept.
//! * Column-vs-literal comparisons (either operand order), `BETWEEN` with
//!   literal bounds, `IN` over literals, `LIKE`, and comparisons of two
//!   columns of one type compact the selection vector straight off the
//!   typed values — no Bool column, no broadcast literal.
//! * Every other shape falls back to the general three-valued evaluation
//!   ([`eval`]) over the selected rows' columns, and keeps the rows whose
//!   result is TRUE.
//!
//! The kernels reproduce the general path exactly: a NULL operand row is
//! never TRUE, and on the f64 axis an unordered pair (NaN) compares as
//! equal, as `partial_cmp(..).unwrap_or(Equal)` does there.
//!
//! **Errors never depend on the data.** A side that an earlier conjunct
//! left with no rows is still refined, over an empty selection: a kernel
//! resolves its operand types before it reads a row, and the general path
//! evaluates the side over zero rows. So `n_name < 5` fails whether or not
//! anything before it selected a row.

use bfq_common::{BfqError, Datum, Result};
use bfq_storage::{Bitmap, Chunk, Column, StrData};

use crate::eval::{eval, slot, Layout};
use crate::like::Matcher;
use crate::{BinOp, Expr};

/// Evaluate a predicate to the ascending rows of `chunk` where it is TRUE.
pub fn eval_predicate(expr: &Expr, chunk: &Chunk, layout: &Layout) -> Result<Vec<u32>> {
    refine(expr, chunk, layout, None)
}

/// The rows of `sel` (`None`: every row of `chunk`) where `expr` is TRUE.
fn refine(expr: &Expr, chunk: &Chunk, layout: &Layout, sel: Option<Vec<u32>>) -> Result<Vec<u32>> {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let kept = refine(left, chunk, layout, sel)?;
            refine(right, chunk, layout, Some(kept))
        }
        _ => match kernel(expr, chunk, layout)? {
            Some(k) => Ok(k.run(sel, chunk.rows())),
            None => general(expr, chunk, layout, sel),
        },
    }
}

/// The general path: evaluate `expr` to a Bool column over the selected
/// rows (only the columns it references are gathered) and keep the TRUE
/// ones.
fn general(expr: &Expr, chunk: &Chunk, layout: &Layout, sel: Option<Vec<u32>>) -> Result<Vec<u32>> {
    let col = match &sel {
        None => eval(expr, chunk, layout)?,
        Some(rows) => {
            let ids = expr.columns();
            let slots = ids.iter().map(|&id| slot(layout, id));
            let slots = slots.collect::<Result<Vec<_>>>()?;
            eval(expr, &chunk.project(&slots).take(rows), &Layout::new(ids))?
        }
    };
    let vals = col
        .as_bool()
        .ok_or_else(|| BfqError::Type(format!("predicate has type {}", col.data_type())))?;
    let mut kept = match col.validity() {
        None => compact(None, vals.len(), |i| vals[i]),
        Some(bm) => compact(None, vals.len(), |i| vals[i] & bm.get(i)),
    };
    if let Some(rows) = sel {
        for k in &mut kept {
            *k = rows[*k as usize];
        }
    }
    Ok(kept)
}

/// Keep the rows of `sel` (`None`: `0..n`) for which `keep(row)` holds:
/// write every row, advance past the kept ones. In place for a given
/// selection, whose write index never passes its read index.
#[inline]
fn compact(sel: Option<Vec<u32>>, n: usize, keep: impl Fn(usize) -> bool) -> Vec<u32> {
    let mut k = 0usize;
    let mut out = match sel {
        None => {
            let mut out = vec![0u32; n];
            for i in 0..n {
                out[k] = i as u32;
                k += keep(i) as usize;
            }
            out
        }
        Some(mut rows) => {
            for j in 0..rows.len() {
                let i = rows[j];
                rows[k] = i;
                k += keep(i as usize) as usize;
            }
            rows
        }
    };
    out.truncate(k);
    out
}

/// The general path's ordering on one comparison axis: total for integers
/// and strings; on the f64 axis an unordered pair compares as equal.
trait AxisOrd: Copy {
    fn less(self, other: Self) -> bool;
    fn greater(self, other: Self) -> bool;
    #[inline]
    fn equal(self, other: Self) -> bool {
        !self.less(other) && !self.greater(other)
    }
}

macro_rules! total_axis {
    ($($t:ty),*) => {$(
        impl AxisOrd for $t {
            #[inline]
            fn less(self, other: Self) -> bool {
                self < other
            }
            #[inline]
            fn greater(self, other: Self) -> bool {
                self > other
            }
            #[inline]
            fn equal(self, other: Self) -> bool {
                self == other
            }
        }
    )*};
}
total_axis!(i64, i32, &str);

impl AxisOrd for f64 {
    #[inline]
    fn less(self, other: Self) -> bool {
        self < other
    }
    #[inline]
    fn greater(self, other: Self) -> bool {
        self > other
    }
}

/// A column read on one comparison axis, with literal operands converted
/// to that axis.
enum Typed<'a> {
    Int(&'a [i64], Vec<i64>),
    Date(&'a [i32], Vec<i32>),
    /// INT64, DATE or FLOAT64 values widened to f64 (cross-type numerics).
    Float(&'a Column, Vec<f64>),
    Str(&'a StrData, Vec<&'a str>),
}

/// Run `$body` with `$get` reading row `i` of a [`Typed`] column on its
/// axis and `$lits` its literals, monomorphized per axis.
macro_rules! on_axis {
    ($typed:expr, |$get:ident, $lits:ident| $body:expr) => {
        match $typed {
            Typed::Int(v, $lits) => {
                let $get = |i: usize| v[i];
                $body
            }
            Typed::Date(v, $lits) => {
                let $get = |i: usize| v[i];
                $body
            }
            Typed::Str(s, $lits) => {
                let $get = |i: usize| s.get(i);
                $body
            }
            Typed::Float(c, $lits) => match c {
                Column::Int64(v, _) => {
                    let $get = |i: usize| v[i] as f64;
                    $body
                }
                Column::Date(v, _) => {
                    let $get = |i: usize| v[i] as f64;
                    $body
                }
                Column::Float64(v, _) => {
                    let $get = |i: usize| v[i];
                    $body
                }
                _ => unreachable!("f64 axis over a non-numeric column"),
            },
        }
    };
}

/// The axis the general path compares `col` with every literal of `lits`
/// on, if it is one axis and a kernel has it. `None` (NULL, BOOL or mixed
/// literals, type errors) leaves the shape to the general path.
fn typed<'a>(col: &'a Column, lits: &[&'a Datum]) -> Option<Typed<'a>> {
    let all = |f: fn(&Datum) -> bool| lits.iter().all(|d| f(d));
    Some(match col {
        Column::Utf8(s, _) => {
            Typed::Str(s, lits.iter().map(|d| d.as_str()).collect::<Option<_>>()?)
        }
        Column::Int64(v, _) if all(|d| matches!(d, Datum::Int(_))) => {
            Typed::Int(v, lits.iter().filter_map(|d| d.as_i64()).collect())
        }
        Column::Date(v, _) if all(|d| matches!(d, Datum::Date(_))) => {
            let days = lits.iter().filter_map(|d| match d {
                Datum::Date(x) => Some(*x),
                _ => None,
            });
            Typed::Date(v, days.collect())
        }
        Column::Int64(..) | Column::Date(..) | Column::Float64(..) => {
            // An INT64/INT or DATE/DATE pair compares exactly, not on the
            // f64 axis, so it must not mix in.
            let exact = |d: &&Datum| {
                matches!(
                    (col, d),
                    (Column::Int64(..), Datum::Int(_)) | (Column::Date(..), Datum::Date(_))
                )
            };
            if lits.iter().any(exact) {
                return None;
            }
            Typed::Float(col, lits.iter().map(|d| d.as_f64()).collect::<Option<_>>()?)
        }
        Column::Bool(..) => return None,
    })
}

/// A predicate shape with a typed kernel, its operand types resolved.
enum Kernel<'a> {
    /// `column op literal`.
    Cmp(BinOp, &'a Column, Typed<'a>),
    /// `column [NOT] BETWEEN literal AND literal`.
    Between(bool, &'a Column, Typed<'a>),
    /// `column [NOT] IN (literal, ...)`.
    In(bool, &'a Column, Typed<'a>),
    /// `column [NOT] LIKE pattern`.
    Like(bool, &'a Column, &'a StrData, &'a str),
    /// `column op column`, both of one type.
    Cols(BinOp, &'a Column, &'a Column),
}

/// The kernel for `expr`, if its shape and operand types have one. Reads
/// types only, never rows; a missing column is the evaluator's error.
fn kernel<'a>(expr: &'a Expr, chunk: &'a Chunk, layout: &Layout) -> Result<Option<Kernel<'a>>> {
    let column = |e: &Expr| -> Result<Option<&'a Column>> {
        match e {
            Expr::Column(id) => Ok(Some(chunk.column(slot(layout, *id)?).as_ref())),
            _ => Ok(None),
        }
    };
    let literal = |e: &'a Expr| match e {
        Expr::Literal(d) => Some(d),
        _ => None,
    };
    Ok(match expr {
        Expr::Binary { op, left, right } if op.is_comparison() => {
            match (column(left)?, column(right)?) {
                (Some(a), Some(b)) => match (a, b) {
                    (Column::Int64(..), Column::Int64(..))
                    | (Column::Date(..), Column::Date(..))
                    | (Column::Float64(..), Column::Float64(..))
                    | (Column::Utf8(..), Column::Utf8(..)) => Some(Kernel::Cols(*op, a, b)),
                    _ => None,
                },
                (Some(c), None) => literal(right)
                    .and_then(|d| typed(c, &[d]))
                    .map(|t| Kernel::Cmp(*op, c, t)),
                (None, Some(c)) => literal(left)
                    .and_then(|d| typed(c, &[d]))
                    .map(|t| Kernel::Cmp(op.swap().expect("comparison"), c, t)),
                (None, None) => None,
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => match (column(expr)?, literal(low), literal(high)) {
            (Some(c), Some(lo), Some(hi)) => {
                typed(c, &[lo, hi]).map(|t| Kernel::Between(*negated, c, t))
            }
            _ => None,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } if !list.is_empty() => {
            let lits: Option<Vec<&Datum>> = list.iter().map(literal).collect();
            match (column(expr)?, lits) {
                (Some(c), Some(lits)) => typed(c, &lits).map(|t| Kernel::In(*negated, c, t)),
                _ => None,
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => match column(expr)? {
            Some(c @ Column::Utf8(s, _)) => Some(Kernel::Like(*negated, c, s, pattern)),
            _ => None,
        },
        _ => None,
    })
}

impl Kernel<'_> {
    /// Refine `sel` (`None`: `0..n`) to the rows where the predicate is
    /// TRUE: NULL operand rows first, then one typed compaction.
    fn run(self, sel: Option<Vec<u32>>, n: usize) -> Vec<u32> {
        match self {
            Kernel::Cmp(op, c, t) => {
                let sel = non_null(sel, n, c.validity());
                on_axis!(t, |get, lits| {
                    let lit = lits[0];
                    cmp(op, sel, n, get, |_| lit)
                })
            }
            Kernel::Between(negated, c, t) => {
                let sel = non_null(sel, n, c.validity());
                on_axis!(t, |get, lits| {
                    let (lo, hi) = (lits[0], lits[1]);
                    compact(sel, n, |i| {
                        let x = get(i);
                        (!x.less(lo) && !x.greater(hi)) != negated
                    })
                })
            }
            Kernel::In(negated, c, t) => {
                let sel = non_null(sel, n, c.validity());
                on_axis!(t, |get, lits| {
                    compact(sel, n, |i| {
                        let x = get(i);
                        lits.iter().any(|&l| x.equal(l)) != negated
                    })
                })
            }
            Kernel::Like(negated, c, s, pattern) => {
                let sel = non_null(sel, n, c.validity());
                let matcher = Matcher::new(pattern);
                compact(sel, n, |i| matcher.matches(s.get(i)) != negated)
            }
            Kernel::Cols(op, a, b) => {
                let sel = non_null(non_null(sel, n, a.validity()), n, b.validity());
                match (a, b) {
                    (Column::Int64(x, _), Column::Int64(y, _)) => {
                        cmp(op, sel, n, |i| x[i], |i| y[i])
                    }
                    (Column::Date(x, _), Column::Date(y, _)) => cmp(op, sel, n, |i| x[i], |i| y[i]),
                    (Column::Float64(x, _), Column::Float64(y, _)) => {
                        cmp(op, sel, n, |i| x[i], |i| y[i])
                    }
                    (Column::Utf8(x, _), Column::Utf8(y, _)) => {
                        cmp(op, sel, n, |i| x.get(i), |i| y.get(i))
                    }
                    _ => unreachable!("resolved to one type"),
                }
            }
        }
    }
}

/// `sel` without the rows `validity` marks NULL.
fn non_null(sel: Option<Vec<u32>>, n: usize, validity: Option<&Bitmap>) -> Option<Vec<u32>> {
    match validity {
        None => sel,
        Some(bm) => Some(compact(sel, n, |i| bm.get(i))),
    }
}

/// Keep the rows where `a(row) op b(row)`, dispatching on `op` once,
/// outside the loop.
#[inline]
fn cmp<T: AxisOrd>(
    op: BinOp,
    sel: Option<Vec<u32>>,
    n: usize,
    a: impl Fn(usize) -> T,
    b: impl Fn(usize) -> T,
) -> Vec<u32> {
    match op {
        BinOp::Eq => compact(sel, n, |i| a(i).equal(b(i))),
        BinOp::NotEq => compact(sel, n, |i| !a(i).equal(b(i))),
        BinOp::Lt => compact(sel, n, |i| a(i).less(b(i))),
        BinOp::LtEq => compact(sel, n, |i| !a(i).greater(b(i))),
        BinOp::Gt => compact(sel, n, |i| a(i).greater(b(i))),
        BinOp::GtEq => compact(sel, n, |i| !a(i).less(b(i))),
        _ => unreachable!("not a comparison"),
    }
}
