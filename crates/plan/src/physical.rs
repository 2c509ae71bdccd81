//! Physical (executable) plans.
//!
//! Every node carries its output [`Layout`] (which virtual columns sit in
//! which slots), the optimizer's row estimate (`est_rows` — compared against
//! actuals for the paper's §4.2 cardinality-MAE experiment), and a plan-wide
//! node id assigned by [`PhysicalPlan::with_ids`].
//!
//! Bloom filters appear in two places, mirroring the paper's runtime design:
//! * [`BloomBuild`] on a hash join — build a filter from the build-side join
//!   key while the hash table is built;
//! * [`BloomApply`] on a scan — wait for the filter and drop non-matching
//!   rows during the scan, below every intermediate operator.

use std::sync::Arc;

use bfq_common::{ColumnId, FilterId, TableId};
use bfq_expr::{Expr, Layout};

use crate::logical::{AggExpr, OutputColumn, SortKey};

/// Join semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Left outer join (outer side preserved).
    LeftOuter,
    /// Left semi join (EXISTS).
    Semi,
    /// Left anti join (NOT EXISTS).
    Anti,
}

impl JoinKind {
    /// Whether the join output includes the inner side's columns.
    pub fn emits_inner_columns(self) -> bool {
        matches!(self, JoinKind::Inner | JoinKind::LeftOuter)
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            JoinKind::Inner => "Inner",
            JoinKind::LeftOuter => "LeftOuter",
            JoinKind::Semi => "Semi",
            JoinKind::Anti => "Anti",
        }
    }
}

/// How data is spread across the DOP worker threads — the optimizer's
/// distribution property (one of the "interesting properties" sub-plans are
/// pruned against).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// All rows on a single worker.
    Single,
    /// Partitioned across workers with no particular key (round-robin).
    AnyPartitioned,
    /// Hash-partitioned on the given columns.
    Hash(Vec<ColumnId>),
    /// Every worker holds a full copy.
    Replicated,
}

impl Distribution {
    /// Whether rows with equal values of `cols` are guaranteed co-located.
    pub fn colocates(&self, cols: &[ColumnId]) -> bool {
        match self {
            Distribution::Single | Distribution::Replicated => true,
            Distribution::Hash(h) => !h.is_empty() && h.iter().all(|c| cols.contains(c)),
            Distribution::AnyPartitioned => false,
        }
    }
}

/// Exchange operator flavor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExchangeKind {
    /// Replicate every row to all workers (paper's `BC`).
    Broadcast,
    /// Hash-repartition on the given columns (paper's `RD`).
    Repartition(Vec<ColumnId>),
    /// Merge all partitions into one stream.
    Gather,
}

impl ExchangeKind {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            ExchangeKind::Broadcast => "BC",
            ExchangeKind::Repartition(_) => "RD",
            ExchangeKind::Gather => "GATHER",
        }
    }
}

/// Application of a planned Bloom filter at a scan.
#[derive(Debug, Clone, PartialEq)]
pub struct BloomApply {
    /// Links to the building hash join.
    pub filter: FilterId,
    /// The apply column (paper's `a`), a column of the scanned relation.
    pub column: ColumnId,
    /// The estimator's predicted false-positive rate for this filter
    /// (§3.5), kept on the plan so `EXPLAIN ANALYZE` can place the
    /// observed probe pass rate next to the prediction that justified it.
    pub predicted_fpr: f64,
    /// Predicted row pass-through fraction
    /// `sel_semi + (1 − sel_semi) · fpr` (paper §3.5).
    pub predicted_pass: f64,
}

/// Construction of a planned Bloom filter at a hash join.
#[derive(Debug, Clone, PartialEq)]
pub struct BloomBuild {
    /// Links to the applying scan.
    pub filter: FilterId,
    /// The build column (paper's `b`), a column of the join's inner side.
    pub column: ColumnId,
    /// Upper-bound distinct-value estimate used to size the filter (§3.5).
    pub expected_ndv: f64,
}

/// Kept only because `bench/e2e` reads `PhysicalPlan::schedule`; the
/// optimizer never builds one and no executor reads it.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct FilterSchedule {
    /// Always empty.
    pub steps: Vec<Arc<PhysicalPlan>>,
}

/// The operator variants.
#[derive(Debug, Clone)]
pub enum PhysicalNode {
    /// A single synthetic row with no columns (FROM-less selects).
    OneRow,
    /// Scan of a catalog base table.
    Scan {
        /// Catalog table holding the data.
        base: TableId,
        /// Virtual relation id whose columns this scan produces.
        rel_id: TableId,
        /// Display alias.
        alias: String,
        /// Base-schema ordinals retained (pruned projection).
        projection: Vec<u32>,
        /// Local predicate evaluated during the scan.
        predicate: Option<Expr>,
        /// Bloom filters applied during the scan.
        blooms: Vec<BloomApply>,
    },
    /// A derived relation (planned subtree) exposed as a leaf.
    DerivedScan {
        /// The subtree producing the rows.
        input: Arc<PhysicalPlan>,
        /// Virtual relation id whose columns this scan produces.
        rel_id: TableId,
        /// Display alias.
        alias: String,
        /// Local predicate on the derived output.
        predicate: Option<Expr>,
        /// Bloom filters applied to the derived output.
        blooms: Vec<BloomApply>,
    },
    /// Standalone filter.
    Filter {
        /// Input.
        input: Arc<PhysicalPlan>,
        /// Predicate.
        predicate: Expr,
    },
    /// Hash join: `outer` probes the table built from `inner`.
    HashJoin {
        /// Probe side.
        outer: Arc<PhysicalPlan>,
        /// Build side.
        inner: Arc<PhysicalPlan>,
        /// Semantics.
        kind: JoinKind,
        /// Equi-key pairs `(outer_col, inner_col)`.
        keys: Vec<(ColumnId, ColumnId)>,
        /// Residual non-equi predicate.
        extra: Option<Expr>,
        /// Bloom filters built here.
        builds: Vec<BloomBuild>,
    },
    /// Nested-loop join (general predicates, small inputs).
    NestLoopJoin {
        /// Outer side.
        outer: Arc<PhysicalPlan>,
        /// Inner side.
        inner: Arc<PhysicalPlan>,
        /// Semantics.
        kind: JoinKind,
        /// Join predicate (may be `None` for a cross join).
        predicate: Option<Expr>,
    },
    /// SMP exchange.
    Exchange {
        /// Input.
        input: Arc<PhysicalPlan>,
        /// Flavor.
        kind: ExchangeKind,
    },
    /// Projection.
    Project {
        /// Input.
        input: Arc<PhysicalPlan>,
        /// Output columns.
        exprs: Vec<OutputColumn>,
    },
    /// Hash aggregation (runs single-stream after a Gather in this engine).
    HashAgg {
        /// Input.
        input: Arc<PhysicalPlan>,
        /// Group-by columns.
        group_by: Vec<OutputColumn>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
        /// HAVING filter over the aggregated output.
        having: Option<Expr>,
        /// Planner estimate of the group count *before* HAVING (the
        /// node's `est_rows` is post-HAVING). Executors use it to decide
        /// whether partial aggregation reduces enough to pay for its
        /// merge.
        est_groups: f64,
    },
    /// Sort (optionally top-N).
    Sort {
        /// Input.
        input: Arc<PhysicalPlan>,
        /// Keys, most significant first.
        keys: Vec<SortKey>,
        /// Top-N bound.
        limit: Option<usize>,
    },
    /// Row-count limit.
    Limit {
        /// Input.
        input: Arc<PhysicalPlan>,
        /// Maximum rows.
        n: usize,
    },
    /// Scalar-subquery substitution filter (see
    /// [`crate::logical::LogicalPlan::ScalarFilter`]).
    ScalarSubst {
        /// Input rows.
        input: Arc<PhysicalPlan>,
        /// Plan computing the scalar.
        subquery: Arc<PhysicalPlan>,
        /// Predicate with `placeholder` standing for the scalar.
        pred: Expr,
        /// Placeholder id.
        placeholder: ColumnId,
    },
}

/// A physical plan node with its metadata.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The operator.
    pub node: PhysicalNode,
    /// Output layout (slot → virtual column).
    pub layout: Layout,
    /// Optimizer cardinality estimate for this node's output.
    pub est_rows: f64,
    /// Output distribution across workers.
    pub distribution: Distribution,
    /// Plan-wide id; 0 until [`PhysicalPlan::with_ids`] assigns ids.
    pub id: u32,
    /// Always `None`: kept only because `bench/e2e` reads it.
    #[doc(hidden)]
    pub schedule: Option<Arc<FilterSchedule>>,
}

impl PhysicalPlan {
    /// Wrap a node with metadata (id assigned later).
    pub fn new(
        node: PhysicalNode,
        layout: Layout,
        est_rows: f64,
        distribution: Distribution,
    ) -> Arc<Self> {
        Arc::new(PhysicalPlan {
            node,
            layout,
            est_rows,
            distribution,
            id: 0,
            schedule: None,
        })
    }

    /// Children of this node, in execution order (inputs before the node).
    pub fn children(&self) -> Vec<&Arc<PhysicalPlan>> {
        match &self.node {
            PhysicalNode::OneRow | PhysicalNode::Scan { .. } => vec![],
            PhysicalNode::DerivedScan { input, .. }
            | PhysicalNode::Filter { input, .. }
            | PhysicalNode::Exchange { input, .. }
            | PhysicalNode::Project { input, .. }
            | PhysicalNode::HashAgg { input, .. }
            | PhysicalNode::Sort { input, .. }
            | PhysicalNode::Limit { input, .. } => vec![input],
            PhysicalNode::HashJoin { outer, inner, .. }
            | PhysicalNode::NestLoopJoin { outer, inner, .. } => vec![outer, inner],
            PhysicalNode::ScalarSubst {
                input, subquery, ..
            } => vec![input, subquery],
        }
    }

    /// Rebuild the tree with depth-first ids assigned from `next` upward.
    pub fn with_ids(self: &Arc<Self>, next: &mut u32) -> Arc<PhysicalPlan> {
        let mut clone = (**self).clone();
        clone.node = match clone.node {
            PhysicalNode::OneRow | PhysicalNode::Scan { .. } => clone.node,
            PhysicalNode::DerivedScan {
                input,
                rel_id,
                alias,
                predicate,
                blooms,
            } => PhysicalNode::DerivedScan {
                input: input.with_ids(next),
                rel_id,
                alias,
                predicate,
                blooms,
            },
            PhysicalNode::Filter { input, predicate } => PhysicalNode::Filter {
                input: input.with_ids(next),
                predicate,
            },
            PhysicalNode::Exchange { input, kind } => PhysicalNode::Exchange {
                input: input.with_ids(next),
                kind,
            },
            PhysicalNode::Project { input, exprs } => PhysicalNode::Project {
                input: input.with_ids(next),
                exprs,
            },
            PhysicalNode::HashAgg {
                input,
                group_by,
                aggs,
                having,
                est_groups,
            } => PhysicalNode::HashAgg {
                input: input.with_ids(next),
                group_by,
                aggs,
                having,
                est_groups,
            },
            PhysicalNode::Sort { input, keys, limit } => PhysicalNode::Sort {
                input: input.with_ids(next),
                keys,
                limit,
            },
            PhysicalNode::Limit { input, n } => PhysicalNode::Limit {
                input: input.with_ids(next),
                n,
            },
            PhysicalNode::HashJoin {
                outer,
                inner,
                kind,
                keys,
                extra,
                builds,
            } => PhysicalNode::HashJoin {
                outer: outer.with_ids(next),
                inner: inner.with_ids(next),
                kind,
                keys,
                extra,
                builds,
            },
            PhysicalNode::NestLoopJoin {
                outer,
                inner,
                kind,
                predicate,
            } => PhysicalNode::NestLoopJoin {
                outer: outer.with_ids(next),
                inner: inner.with_ids(next),
                kind,
                predicate,
            },
            PhysicalNode::ScalarSubst {
                input,
                subquery,
                pred,
                placeholder,
            } => PhysicalNode::ScalarSubst {
                input: input.with_ids(next),
                subquery: subquery.with_ids(next),
                pred,
                placeholder,
            },
        };
        clone.id = *next;
        *next += 1;
        Arc::new(clone)
    }

    /// Visit every expression embedded in this node (not its children).
    fn for_each_local_expr<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        match &self.node {
            PhysicalNode::Scan { predicate, .. }
            | PhysicalNode::DerivedScan { predicate, .. }
            | PhysicalNode::NestLoopJoin { predicate, .. } => {
                if let Some(p) = predicate {
                    f(p);
                }
            }
            PhysicalNode::Filter { predicate, .. } => f(predicate),
            PhysicalNode::HashJoin { extra, .. } => {
                if let Some(p) = extra {
                    f(p);
                }
            }
            PhysicalNode::Project { exprs, .. } => {
                for oc in exprs {
                    f(&oc.expr);
                }
            }
            PhysicalNode::HashAgg {
                group_by,
                aggs,
                having,
                ..
            } => {
                for g in group_by {
                    f(&g.expr);
                }
                for a in aggs {
                    if let Some(arg) = &a.arg {
                        f(arg);
                    }
                }
                if let Some(h) = having {
                    f(h);
                }
            }
            PhysicalNode::Sort { keys, .. } => {
                for k in keys {
                    f(&k.expr);
                }
            }
            PhysicalNode::ScalarSubst { pred, .. } => f(pred),
            PhysicalNode::OneRow | PhysicalNode::Exchange { .. } | PhysicalNode::Limit { .. } => {}
        }
    }

    /// Visit every expression in the tree (children first, like
    /// [`PhysicalPlan::visit`]). Used e.g. to count parameter slots in a
    /// prepared plan.
    pub fn visit_exprs<'a>(self: &'a Arc<Self>, f: &mut dyn FnMut(&'a Expr)) {
        self.visit(&mut |node| node.for_each_local_expr(f));
    }

    /// Rebuild the tree with `rewrite` applied to every embedded expression,
    /// preserving node ids, layouts, estimates and distributions.
    ///
    /// This is how a cached (prepared) plan is specialized before
    /// execution: binding `Expr::Param` slots to concrete literals without
    /// re-running the optimizer.
    pub fn map_exprs(self: &Arc<Self>, rewrite: &dyn Fn(&Expr) -> Expr) -> Arc<PhysicalPlan> {
        let mut clone = (**self).clone();
        let opt = |e: &Option<Expr>| e.as_ref().map(rewrite);
        clone.node = match &self.node {
            PhysicalNode::OneRow => PhysicalNode::OneRow,
            PhysicalNode::Scan {
                base,
                rel_id,
                alias,
                projection,
                predicate,
                blooms,
            } => PhysicalNode::Scan {
                base: *base,
                rel_id: *rel_id,
                alias: alias.clone(),
                projection: projection.clone(),
                predicate: opt(predicate),
                blooms: blooms.clone(),
            },
            PhysicalNode::DerivedScan {
                input,
                rel_id,
                alias,
                predicate,
                blooms,
            } => PhysicalNode::DerivedScan {
                input: input.map_exprs(rewrite),
                rel_id: *rel_id,
                alias: alias.clone(),
                predicate: opt(predicate),
                blooms: blooms.clone(),
            },
            PhysicalNode::Filter { input, predicate } => PhysicalNode::Filter {
                input: input.map_exprs(rewrite),
                predicate: rewrite(predicate),
            },
            PhysicalNode::HashJoin {
                outer,
                inner,
                kind,
                keys,
                extra,
                builds,
            } => PhysicalNode::HashJoin {
                outer: outer.map_exprs(rewrite),
                inner: inner.map_exprs(rewrite),
                kind: *kind,
                keys: keys.clone(),
                extra: opt(extra),
                builds: builds.clone(),
            },
            PhysicalNode::NestLoopJoin {
                outer,
                inner,
                kind,
                predicate,
            } => PhysicalNode::NestLoopJoin {
                outer: outer.map_exprs(rewrite),
                inner: inner.map_exprs(rewrite),
                kind: *kind,
                predicate: opt(predicate),
            },
            PhysicalNode::Exchange { input, kind } => PhysicalNode::Exchange {
                input: input.map_exprs(rewrite),
                kind: kind.clone(),
            },
            PhysicalNode::Project { input, exprs } => PhysicalNode::Project {
                input: input.map_exprs(rewrite),
                exprs: exprs
                    .iter()
                    .map(|oc| OutputColumn {
                        expr: rewrite(&oc.expr),
                        name: oc.name.clone(),
                        id: oc.id,
                    })
                    .collect(),
            },
            PhysicalNode::HashAgg {
                input,
                group_by,
                aggs,
                having,
                est_groups,
            } => PhysicalNode::HashAgg {
                input: input.map_exprs(rewrite),
                group_by: group_by
                    .iter()
                    .map(|g| OutputColumn {
                        expr: rewrite(&g.expr),
                        name: g.name.clone(),
                        id: g.id,
                    })
                    .collect(),
                aggs: aggs
                    .iter()
                    .map(|a| AggExpr {
                        func: a.func,
                        arg: a.arg.as_ref().map(rewrite),
                        distinct: a.distinct,
                        output: a.output,
                    })
                    .collect(),
                having: opt(having),
                est_groups: *est_groups,
            },
            PhysicalNode::Sort { input, keys, limit } => PhysicalNode::Sort {
                input: input.map_exprs(rewrite),
                keys: keys
                    .iter()
                    .map(|k| SortKey {
                        expr: rewrite(&k.expr),
                        descending: k.descending,
                    })
                    .collect(),
                limit: *limit,
            },
            PhysicalNode::Limit { input, n } => PhysicalNode::Limit {
                input: input.map_exprs(rewrite),
                n: *n,
            },
            PhysicalNode::ScalarSubst {
                input,
                subquery,
                pred,
                placeholder,
            } => PhysicalNode::ScalarSubst {
                input: input.map_exprs(rewrite),
                subquery: subquery.map_exprs(rewrite),
                pred: rewrite(pred),
                placeholder: *placeholder,
            },
        };
        Arc::new(clone)
    }

    /// Visit every node (children first).
    pub fn visit<'a>(self: &'a Arc<Self>, f: &mut dyn FnMut(&'a Arc<PhysicalPlan>)) {
        for child in self.children() {
            child.visit(f);
        }
        f(self);
    }

    /// Total node count.
    pub fn node_count(self: &Arc<Self>) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Operator name for display.
    pub fn op_name(&self) -> String {
        match &self.node {
            PhysicalNode::OneRow => "OneRow".into(),
            PhysicalNode::Scan { alias, blooms, .. } => {
                if blooms.is_empty() {
                    format!("Scan {alias}")
                } else {
                    let ids: Vec<String> = blooms.iter().map(|b| b.filter.to_string()).collect();
                    format!("Scan {alias} [apply {}]", ids.join(","))
                }
            }
            PhysicalNode::DerivedScan { alias, blooms, .. } => {
                if blooms.is_empty() {
                    format!("DerivedScan {alias}")
                } else {
                    let ids: Vec<String> = blooms.iter().map(|b| b.filter.to_string()).collect();
                    format!("DerivedScan {alias} [apply {}]", ids.join(","))
                }
            }
            PhysicalNode::Filter { .. } => "Filter".into(),
            PhysicalNode::HashJoin { kind, builds, .. } => {
                if builds.is_empty() {
                    format!("HashJoin {}", kind.label())
                } else {
                    let ids: Vec<String> = builds.iter().map(|b| b.filter.to_string()).collect();
                    format!("HashJoin {} [build {}]", kind.label(), ids.join(","))
                }
            }
            PhysicalNode::NestLoopJoin { kind, .. } => format!("NestLoopJoin {}", kind.label()),
            PhysicalNode::Exchange { kind, .. } => format!("Exchange {}", kind.label()),
            PhysicalNode::Project { .. } => "Project".into(),
            PhysicalNode::HashAgg { group_by, .. } => {
                format!("HashAgg groups={}", group_by.len())
            }
            PhysicalNode::Sort { limit, .. } => match limit {
                Some(n) => format!("TopN {n}"),
                None => "Sort".into(),
            },
            PhysicalNode::Limit { n, .. } => format!("Limit {n}"),
            PhysicalNode::ScalarSubst { .. } => "ScalarSubst".into(),
        }
    }

    /// EXPLAIN-style indented tree with estimates.
    pub fn explain(self: &Arc<Self>, resolve: &dyn Fn(ColumnId) -> String) -> String {
        self.explain_annotated(resolve, &|_| String::new())
    }

    /// [`PhysicalPlan::explain`] with per-node annotations: `annotate` is
    /// called once per node and its output is appended inside the node's
    /// `(est_rows=…)` parenthesis — `EXPLAIN ANALYZE` uses this to place
    /// actual rows, q-error and wall time next to the estimates.
    pub fn explain_annotated(
        self: &Arc<Self>,
        resolve: &dyn Fn(ColumnId) -> String,
        annotate: &dyn Fn(&PhysicalPlan) -> String,
    ) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, resolve, annotate);
        out
    }

    fn explain_into(
        self: &Arc<Self>,
        out: &mut String,
        depth: usize,
        resolve: &dyn Fn(ColumnId) -> String,
        annotate: &dyn Fn(&PhysicalPlan) -> String,
    ) {
        let pad = "  ".repeat(depth);
        out.push_str(&format!(
            "{pad}{} (est_rows={:.0}{})",
            self.op_name(),
            self.est_rows,
            annotate(self)
        ));
        match &self.node {
            PhysicalNode::Scan { predicate, .. } | PhysicalNode::DerivedScan { predicate, .. } => {
                if let Some(p) = predicate {
                    out.push_str(&format!(" filter: {}", p.display_with(resolve)));
                }
            }
            PhysicalNode::HashJoin { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(l, r)| format!("{} = {}", resolve(*l), resolve(*r)))
                    .collect();
                out.push_str(&format!(" on {}", ks.join(" AND ")));
            }
            _ => {}
        }
        out.push('\n');
        for child in self.children() {
            child.explain_into(out, depth + 1, resolve, annotate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_common::Datum;

    fn scan(alias: &str, rel: u32) -> Arc<PhysicalPlan> {
        PhysicalPlan::new(
            PhysicalNode::Scan {
                base: TableId(0),
                rel_id: TableId(rel),
                alias: alias.into(),
                projection: vec![0],
                predicate: None,
                blooms: vec![],
            },
            Layout::new(vec![ColumnId::new(TableId(rel), 0)]),
            100.0,
            Distribution::AnyPartitioned,
        )
    }

    fn join(outer: Arc<PhysicalPlan>, inner: Arc<PhysicalPlan>) -> Arc<PhysicalPlan> {
        let keys = vec![(outer.layout.columns()[0], inner.layout.columns()[0])];
        let layout = outer.layout.concat(&inner.layout);
        PhysicalPlan::new(
            PhysicalNode::HashJoin {
                outer,
                inner,
                kind: JoinKind::Inner,
                keys,
                extra: None,
                builds: vec![],
            },
            layout,
            50.0,
            Distribution::AnyPartitioned,
        )
    }

    #[test]
    fn id_assignment_is_depth_first_and_unique() {
        let plan = join(scan("a", 100), scan("b", 101));
        let mut next = 1;
        let plan = plan.with_ids(&mut next);
        let mut ids = Vec::new();
        plan.visit(&mut |n| ids.push(n.id));
        assert_eq!(ids.len(), 3);
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "duplicate ids: {ids:?}");
        assert_eq!(plan.id, 3); // root numbered last
    }

    #[test]
    fn children_and_counts() {
        let plan = join(scan("a", 100), scan("b", 101));
        assert_eq!(plan.children().len(), 2);
        assert_eq!(plan.node_count(), 3);
        assert_eq!(scan("x", 102).node_count(), 1);
    }

    #[test]
    fn explain_renders_tree() {
        let plan = join(scan("a", 100), scan("b", 101));
        let text = plan.explain(&|c| format!("v{}.{}", c.table.0, c.index));
        assert!(text.contains("HashJoin Inner"));
        assert!(text.contains("Scan a"));
        assert!(text.contains("est_rows=50"));
        assert!(text.contains("v100.0 = v101.0"));
        // Indentation: scans are one level deeper.
        assert!(text.contains("\n  Scan"));
    }

    #[test]
    fn bloom_annotations_in_op_name() {
        let mut s = (*scan("l", 100)).clone();
        if let PhysicalNode::Scan { blooms, .. } = &mut s.node {
            blooms.push(BloomApply {
                filter: FilterId(3),
                column: ColumnId::new(TableId(100), 0),
                predicted_fpr: 0.01,
                predicted_pass: 0.25,
            });
        }
        assert!(s.op_name().contains("apply bf3"));
    }

    #[test]
    fn map_exprs_rewrites_everywhere_and_keeps_metadata() {
        let filtered = PhysicalPlan::new(
            PhysicalNode::Filter {
                input: scan("a", 100),
                predicate: Expr::col(ColumnId::new(TableId(100), 0)).eq(Expr::Param(0)),
            },
            Layout::new(vec![ColumnId::new(TableId(100), 0)]),
            10.0,
            Distribution::AnyPartitioned,
        );
        let top = PhysicalPlan::new(
            PhysicalNode::Sort {
                input: filtered,
                keys: vec![SortKey {
                    expr: Expr::col(ColumnId::new(TableId(100), 0)),
                    descending: false,
                }],
                limit: None,
            },
            Layout::new(vec![ColumnId::new(TableId(100), 0)]),
            10.0,
            Distribution::Single,
        );
        let mut next = 1;
        let top = top.with_ids(&mut next);

        let mut params = 0;
        top.visit_exprs(&mut |e| {
            e.walk(&mut |n| {
                if matches!(n, Expr::Param(_)) {
                    params += 1;
                }
            })
        });
        assert_eq!(params, 1);

        let bound = top.map_exprs(&|e| e.bind_params(&[Datum::Int(7)]));
        let mut bound_params = 0;
        let mut saw_literal = false;
        bound.visit_exprs(&mut |e| {
            e.walk(&mut |n| match n {
                Expr::Param(_) => bound_params += 1,
                Expr::Literal(Datum::Int(7)) => saw_literal = true,
                _ => {}
            })
        });
        assert_eq!(bound_params, 0);
        assert!(saw_literal);
        // Node ids, estimates and shape survive the rewrite.
        let ids = |p: &Arc<PhysicalPlan>| {
            let mut v = Vec::new();
            p.visit(&mut |n| v.push((n.id, n.est_rows as i64)));
            v
        };
        assert_eq!(ids(&top), ids(&bound));
    }

    #[test]
    fn distribution_colocation() {
        let c = ColumnId::new(TableId(1), 0);
        let d = ColumnId::new(TableId(1), 1);
        assert!(Distribution::Single.colocates(&[c]));
        assert!(Distribution::Replicated.colocates(&[c]));
        assert!(Distribution::Hash(vec![c]).colocates(&[c, d]));
        assert!(!Distribution::Hash(vec![c, d]).colocates(&[c]));
        assert!(!Distribution::AnyPartitioned.colocates(&[c]));
    }

    #[test]
    fn filter_node_label() {
        let f = PhysicalPlan::new(
            PhysicalNode::Filter {
                input: scan("a", 100),
                predicate: Expr::lit(Datum::Bool(true)),
            },
            Layout::new(vec![]),
            1.0,
            Distribution::Single,
        );
        assert_eq!(f.op_name(), "Filter");
        assert_eq!(ExchangeKind::Broadcast.label(), "BC");
        assert_eq!(ExchangeKind::Repartition(vec![]).label(), "RD");
    }
}
