//! Scalar expressions: representation, vectorized evaluation, selectivity.
//!
//! Expressions reference columns by stable [`ColumnId`] (base-table or
//! binder-allocated virtual ids), never by position. A [`Layout`] maps the
//! slots of a concrete [`bfq_storage::Chunk`] back to column ids at
//! evaluation time, so the same expression tree works unchanged at any point
//! in a plan — which is exactly what Bloom-filter planning needs when it
//! re-attaches a filter's apply column deep under intermediate operators.

pub mod eval;
pub mod like;
pub mod select;
pub mod selectivity;

use std::fmt;

use bfq_common::{ColumnId, DataType, Datum};

pub use eval::{eval, Layout};
pub use like::like_match;
pub use select::eval_predicate;
pub use selectivity::{estimate_selectivity, StatsProvider, DEFAULT_EQ_SEL, DEFAULT_INEQ_SEL};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// Whether this is a comparison producing a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    /// Whether this is `AND`/`OR`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// The comparison with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swap(self) -> Option<BinOp> {
        Some(match self {
            BinOp::Eq => BinOp::Eq,
            BinOp::NotEq => BinOp::NotEq,
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            _ => return None,
        })
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::Plus => "+",
            BinOp::Minus => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical negation (3-valued).
    Not,
    /// Arithmetic negation.
    Neg,
    /// `IS NULL`
    IsNull,
    /// `IS NOT NULL`
    IsNotNull,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference.
    Column(ColumnId),
    /// A constant.
    Literal(Datum),
    /// A query parameter placeholder (`?` / `$n`), 0-indexed.
    ///
    /// Parameters survive binding and optimization so a prepared plan can be
    /// cached once and re-executed with different values: executing binds
    /// each `Param(i)` to `params[i]` via [`Expr::bind_params`] (the
    /// estimator treats an unbound parameter like an unknown constant).
    /// Evaluating an unbound parameter is an error.
    Param(u32),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `expr [NOT] BETWEEN low AND high` (inclusive).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
        /// NOT BETWEEN if true.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)` over literal/scalar expressions.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// NOT IN if true.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'` with `%`/`_` wildcards.
    Like {
        /// Tested string expression.
        expr: Box<Expr>,
        /// Pattern.
        pattern: String,
        /// NOT LIKE if true.
        negated: bool,
    },
    /// `CASE WHEN c1 THEN v1 ... [ELSE e] END` (searched form).
    Case {
        /// `(condition, value)` pairs.
        branches: Vec<(Expr, Expr)>,
        /// ELSE value; NULL if absent.
        else_expr: Option<Box<Expr>>,
    },
    /// `EXTRACT(YEAR FROM date_expr)` as Int64.
    ExtractYear(Box<Expr>),
    /// `EXTRACT(MONTH FROM date_expr)` as Int64.
    ExtractMonth(Box<Expr>),
    /// `SUBSTRING(str_expr FROM start FOR len)` with 1-based `start`.
    Substring {
        /// String operand.
        expr: Box<Expr>,
        /// 1-based start position.
        start: usize,
        /// Length in characters.
        len: usize,
    },
}

impl Expr {
    /// Shorthand for a column reference.
    pub fn col(id: ColumnId) -> Expr {
        Expr::Column(id)
    }

    /// Shorthand for a literal.
    pub fn lit(d: Datum) -> Expr {
        Expr::Literal(d)
    }

    /// Shorthand for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Datum::Int(v))
    }

    /// Shorthand for a binary expression.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Eq, self, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(BinOp::And, self, other)
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Or, self, other)
    }

    /// Conjoin a list of predicates; `None` when empty.
    pub fn conjunction(mut preds: Vec<Expr>) -> Option<Expr> {
        let mut acc = preds.pop()?;
        while let Some(p) = preds.pop() {
            acc = p.and(acc);
        }
        Some(acc)
    }

    /// Split an expression into its top-level AND conjuncts.
    pub fn split_conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut out = left.split_conjuncts();
                out.extend(right.split_conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Collect every referenced [`ColumnId`] into `out`.
    pub fn collect_columns(&self, out: &mut Vec<ColumnId>) {
        match self {
            Expr::Column(c) => out.push(*c),
            Expr::Literal(_) | Expr::Param(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Unary { expr, .. } => expr.collect_columns(out),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            Expr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            Expr::Like { expr, .. } => expr.collect_columns(out),
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, v) in branches {
                    c.collect_columns(out);
                    v.collect_columns(out);
                }
                if let Some(e) = else_expr {
                    e.collect_columns(out);
                }
            }
            Expr::ExtractYear(e) | Expr::ExtractMonth(e) => e.collect_columns(out),
            Expr::Substring { expr, .. } => expr.collect_columns(out),
        }
    }

    /// All referenced columns (deduplicated, sorted).
    pub fn columns(&self) -> Vec<ColumnId> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort();
        out.dedup();
        out
    }

    /// Whether this expression references no columns.
    pub fn is_constant(&self) -> bool {
        let mut cols = Vec::new();
        self.collect_columns(&mut cols);
        cols.is_empty()
    }

    /// Infer the result type given a column-type resolver. Unbound
    /// parameters type as `None` (use [`Expr::data_type_with`] to supply
    /// inferred parameter types).
    pub fn data_type(&self, resolve: &dyn Fn(ColumnId) -> Option<DataType>) -> Option<DataType> {
        self.data_type_with(resolve, &|_| None)
    }

    /// Infer the result type given a column-type resolver and a parameter
    /// type resolver (the binder's prepare-time parameter inference).
    pub fn data_type_with(
        &self,
        resolve: &dyn Fn(ColumnId) -> Option<DataType>,
        param: &dyn Fn(u32) -> Option<DataType>,
    ) -> Option<DataType> {
        match self {
            Expr::Column(c) => resolve(*c),
            Expr::Literal(d) => d.data_type(),
            // An unbound parameter types only through the supplied
            // resolver; comparisons containing one still type as Bool via
            // the Binary arm below.
            Expr::Param(i) => param(*i),
            Expr::Binary { op, left, right } => {
                if op.is_comparison() || op.is_logical() {
                    return Some(DataType::Bool);
                }
                let lt = left.data_type_with(resolve, param)?;
                let rt = right.data_type_with(resolve, param)?;
                Some(match (op, lt, rt) {
                    (BinOp::Div, _, _) => DataType::Float64,
                    (_, DataType::Float64, _) | (_, _, DataType::Float64) => DataType::Float64,
                    // date ± int stays a date; date - date is days (int).
                    (BinOp::Minus, DataType::Date, DataType::Date) => DataType::Int64,
                    (_, DataType::Date, _) | (_, _, DataType::Date) => DataType::Date,
                    _ => DataType::Int64,
                })
            }
            Expr::Unary { op, expr } => match op {
                UnOp::Not | UnOp::IsNull | UnOp::IsNotNull => Some(DataType::Bool),
                UnOp::Neg => expr.data_type_with(resolve, param),
            },
            Expr::Between { .. } | Expr::InList { .. } | Expr::Like { .. } => Some(DataType::Bool),
            Expr::Case {
                branches,
                else_expr,
            } => branches
                .first()
                .and_then(|(_, v)| v.data_type_with(resolve, param))
                .or_else(|| {
                    else_expr
                        .as_ref()
                        .and_then(|e| e.data_type_with(resolve, param))
                }),
            Expr::ExtractYear(_) | Expr::ExtractMonth(_) => Some(DataType::Int64),
            Expr::Substring { .. } => Some(DataType::Utf8),
        }
    }

    /// Evaluate a constant expression to a datum, if possible.
    pub fn const_eval(&self) -> Option<Datum> {
        match self {
            Expr::Literal(d) => Some(d.clone()),
            Expr::Unary {
                op: UnOp::Neg,
                expr,
            } => match expr.const_eval()? {
                Datum::Int(v) => Some(Datum::Int(-v)),
                Datum::Float(v) => Some(Datum::Float(-v)),
                _ => None,
            },
            Expr::Binary { op, left, right } => {
                let l = left.const_eval()?;
                let r = right.const_eval()?;
                eval::scalar_binary(*op, &l, &r).ok()
            }
            _ => None,
        }
    }

    /// Rebuild this tree top-down, replacing every subtree for which `f`
    /// returns `Some` (replaced subtrees are not descended into).
    ///
    /// This is the shared machinery behind group-expression rewriting,
    /// scalar-subquery substitution and parameter binding.
    pub fn rewrite(&self, f: &mut dyn FnMut(&Expr) -> Option<Expr>) -> Expr {
        if let Some(replacement) = f(self) {
            return replacement;
        }
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Param(_) => self.clone(),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.rewrite(f)),
                right: Box::new(right.rewrite(f)),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.rewrite(f)),
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(expr.rewrite(f)),
                low: Box::new(low.rewrite(f)),
                high: Box::new(high.rewrite(f)),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.rewrite(f)),
                list: list.iter().map(|e| e.rewrite(f)).collect(),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.rewrite(f)),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.rewrite(f), v.rewrite(f)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(e.rewrite(f))),
            },
            Expr::ExtractYear(e) => Expr::ExtractYear(Box::new(e.rewrite(f))),
            Expr::ExtractMonth(e) => Expr::ExtractMonth(Box::new(e.rewrite(f))),
            Expr::Substring { expr, start, len } => Expr::Substring {
                expr: Box::new(expr.rewrite(f)),
                start: *start,
                len: *len,
            },
        }
    }

    /// Visit every node of the tree (parents before children).
    pub fn walk(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Param(_) => {}
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::Like { expr, .. } => expr.walk(f),
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, v) in branches {
                    c.walk(f);
                    v.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::ExtractYear(e) | Expr::ExtractMonth(e) => e.walk(f),
            Expr::Substring { expr, .. } => expr.walk(f),
        }
    }

    /// Highest parameter index referenced, if any parameter appears.
    pub fn max_param(&self) -> Option<u32> {
        let mut max = None;
        self.walk(&mut |e| {
            if let Expr::Param(i) = e {
                max = Some(max.map_or(*i, |m: u32| m.max(*i)));
            }
        });
        max
    }

    /// Replace every `Param(i)` with `Literal(params[i])`.
    ///
    /// Out-of-range indices are left in place; callers validate arity
    /// beforehand (the executor rejects any parameter that survives).
    pub fn bind_params(&self, params: &[Datum]) -> Expr {
        self.rewrite(&mut |e| match e {
            Expr::Param(i) => params.get(*i as usize).map(|d| Expr::Literal(d.clone())),
            _ => None,
        })
    }

    /// Pretty-print with a column-name resolver.
    pub fn display_with(&self, resolve: &dyn Fn(ColumnId) -> String) -> String {
        match self {
            Expr::Column(c) => resolve(*c),
            Expr::Literal(d) => d.to_string(),
            Expr::Param(i) => format!("${}", i + 1),
            Expr::Binary { op, left, right } => format!(
                "({} {op} {})",
                left.display_with(resolve),
                right.display_with(resolve)
            ),
            Expr::Unary { op, expr } => match op {
                UnOp::Not => format!("NOT {}", expr.display_with(resolve)),
                UnOp::Neg => format!("-{}", expr.display_with(resolve)),
                UnOp::IsNull => format!("{} IS NULL", expr.display_with(resolve)),
                UnOp::IsNotNull => format!("{} IS NOT NULL", expr.display_with(resolve)),
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => format!(
                "{}{} BETWEEN {} AND {}",
                expr.display_with(resolve),
                if *negated { " NOT" } else { "" },
                low.display_with(resolve),
                high.display_with(resolve)
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<_> = list.iter().map(|e| e.display_with(resolve)).collect();
                format!(
                    "{}{} IN ({})",
                    expr.display_with(resolve),
                    if *negated { " NOT" } else { "" },
                    items.join(", ")
                )
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => format!(
                "{}{} LIKE '{pattern}'",
                expr.display_with(resolve),
                if *negated { " NOT" } else { "" }
            ),
            Expr::Case {
                branches,
                else_expr,
            } => {
                let mut s = String::from("CASE");
                for (c, v) in branches {
                    s.push_str(&format!(
                        " WHEN {} THEN {}",
                        c.display_with(resolve),
                        v.display_with(resolve)
                    ));
                }
                if let Some(e) = else_expr {
                    s.push_str(&format!(" ELSE {}", e.display_with(resolve)));
                }
                s.push_str(" END");
                s
            }
            Expr::ExtractYear(e) => format!("EXTRACT(YEAR FROM {})", e.display_with(resolve)),
            Expr::ExtractMonth(e) => format!("EXTRACT(MONTH FROM {})", e.display_with(resolve)),
            Expr::Substring { expr, start, len } => format!(
                "SUBSTRING({} FROM {start} FOR {len})",
                expr.display_with(resolve)
            ),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_with(&|c: ColumnId| c.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_common::TableId;

    fn cid(t: u32, i: u32) -> ColumnId {
        ColumnId::new(TableId(t), i)
    }

    #[test]
    fn conjunct_split_roundtrip() {
        let a = Expr::col(cid(0, 0)).eq(Expr::int(1));
        let b = Expr::col(cid(0, 1)).eq(Expr::int(2));
        let c = Expr::col(cid(1, 0)).eq(Expr::int(3));
        let all = Expr::conjunction(vec![a.clone(), b.clone(), c.clone()]).unwrap();
        let parts = all.split_conjuncts();
        assert_eq!(parts.len(), 3);
        assert!(parts.contains(&a) && parts.contains(&b) && parts.contains(&c));
        assert!(Expr::conjunction(vec![]).is_none());
    }

    #[test]
    fn column_collection_dedups() {
        let e = Expr::col(cid(0, 0))
            .eq(Expr::col(cid(1, 0)))
            .and(Expr::col(cid(0, 0)).eq(Expr::int(5)));
        assert_eq!(e.columns(), vec![cid(0, 0), cid(1, 0)]);
        assert!(!e.is_constant());
        assert!(Expr::int(3).is_constant());
    }

    #[test]
    fn type_inference() {
        let resolve = |c: ColumnId| -> Option<DataType> {
            Some(match c.index {
                0 => DataType::Int64,
                1 => DataType::Float64,
                _ => DataType::Date,
            })
        };
        let int_plus_float = Expr::binary(BinOp::Plus, Expr::col(cid(0, 0)), Expr::col(cid(0, 1)));
        assert_eq!(int_plus_float.data_type(&resolve), Some(DataType::Float64));
        let date_minus_date =
            Expr::binary(BinOp::Minus, Expr::col(cid(0, 2)), Expr::col(cid(0, 2)));
        assert_eq!(date_minus_date.data_type(&resolve), Some(DataType::Int64));
        let date_plus_int = Expr::binary(BinOp::Plus, Expr::col(cid(0, 2)), Expr::int(30));
        assert_eq!(date_plus_int.data_type(&resolve), Some(DataType::Date));
        let cmp = Expr::col(cid(0, 0)).eq(Expr::int(1));
        assert_eq!(cmp.data_type(&resolve), Some(DataType::Bool));
        let div = Expr::binary(BinOp::Div, Expr::int(1), Expr::int(2));
        assert_eq!(div.data_type(&resolve), Some(DataType::Float64));
    }

    #[test]
    fn const_eval_folds() {
        let e = Expr::binary(BinOp::Plus, Expr::int(2), Expr::int(3));
        assert_eq!(e.const_eval(), Some(Datum::Int(5)));
        let e = Expr::binary(
            BinOp::Mul,
            Expr::lit(Datum::Float(2.0)),
            Expr::lit(Datum::Float(0.5)),
        );
        assert_eq!(e.const_eval(), Some(Datum::Float(1.0)));
        assert_eq!(Expr::col(cid(0, 0)).const_eval(), None);
    }

    #[test]
    fn display_renders_sql_like_text() {
        let e = Expr::col(cid(0, 0)).eq(Expr::int(1));
        assert_eq!(e.to_string(), "(t0.c0 = 1)");
        let b = Expr::Between {
            expr: Box::new(Expr::col(cid(0, 1))),
            low: Box::new(Expr::int(1)),
            high: Box::new(Expr::int(9)),
            negated: false,
        };
        assert_eq!(b.to_string(), "t0.c1 BETWEEN 1 AND 9");
    }

    #[test]
    fn params_collect_display_and_bind() {
        // l_quantity < $1 AND l_shipdate >= $2
        let e = Expr::binary(BinOp::Lt, Expr::col(cid(0, 0)), Expr::Param(0)).and(Expr::binary(
            BinOp::GtEq,
            Expr::col(cid(0, 1)),
            Expr::Param(1),
        ));
        assert_eq!(e.max_param(), Some(1));
        assert!(e.to_string().contains("$1") && e.to_string().contains("$2"));
        // Parameters reference no columns and never type on their own.
        assert_eq!(e.columns(), vec![cid(0, 0), cid(0, 1)]);
        assert_eq!(Expr::Param(0).data_type(&|_| None), None);
        assert_eq!(Expr::Param(0).const_eval(), None);
        // Binding replaces parameters with literals; the result is
        // parameter-free.
        let bound = e.bind_params(&[Datum::Int(24), Datum::Date(9000)]);
        assert_eq!(bound.max_param(), None);
        let parts = bound.split_conjuncts();
        assert!(matches!(
            &parts[0],
            Expr::Binary { right, .. } if **right == Expr::Literal(Datum::Int(24))
        ));
        // Out-of-range params stay in place (arity is validated upstream).
        assert_eq!(Expr::Param(7).bind_params(&[Datum::Int(1)]), Expr::Param(7));
    }

    #[test]
    fn rewrite_replaces_subtrees() {
        let e = Expr::col(cid(0, 0))
            .eq(Expr::int(1))
            .and(Expr::int(2).eq(Expr::int(2)));
        let rewritten = e.rewrite(&mut |n| match n {
            Expr::Literal(Datum::Int(2)) => Some(Expr::int(9)),
            _ => None,
        });
        let mut nines = 0;
        rewritten.walk(&mut |n| {
            if *n == Expr::int(9) {
                nines += 1;
            }
        });
        assert_eq!(nines, 2);
    }

    #[test]
    fn binop_swap() {
        assert_eq!(BinOp::Lt.swap(), Some(BinOp::Gt));
        assert_eq!(BinOp::Eq.swap(), Some(BinOp::Eq));
        assert_eq!(BinOp::Plus.swap(), None);
    }
}
