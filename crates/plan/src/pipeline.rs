//! Pipeline decomposition over physical plans.
//!
//! The morsel-driven executor (Leis et al., "Morsel-Driven Parallelism")
//! runs a plan as a set of *pipelines*: maximal chains of streamable
//! operators bounded below by a source (a base-table scan or the sealed
//! output of another pipeline) and above by a *pipeline breaker* — an
//! operator that must see its whole input before producing anything (hash
//! aggregation, sort, exchange) or whose non-streaming child must be
//! sealed first (a hash join's build side, a scalar subquery).
//!
//! Tuple flow inside a pipeline is fused: each morsel (one chunk of the
//! source, reusing the storage chunk/partition model) passes through
//! filter → probe → project steps without inter-operator materialization.
//! This module only *describes* the decomposition — which edges stream and
//! which block — so the executor (`bfq-exec`), EXPLAIN output, and tests
//! share one definition of the boundaries.
//!
//! Every breaker consumes the morsel outputs of the pipeline feeding it in
//! sequence order (the executor states the resulting contract once, in
//! `bfq-exec`'s `pipeline` module doc); a breaker node named here is where
//! the pipeline ends and its output materializes.

use std::sync::Arc;

use crate::physical::{ExchangeKind, PhysicalNode, PhysicalPlan};

/// The child of `node` that continues the tuple flow of the pipeline the
/// node belongs to, or `None` when the node is a pipeline breaker (its
/// pipeline *starts* above it) or a leaf.
///
/// * `Filter`, `Project` — stream their input.
/// * `HashJoin` — streams its probe (outer) side; the build (inner) side
///   is a blocking child sealed before the pipeline runs.
/// * `ScalarSubst` — streams its input; the scalar subquery is a blocking
///   child.
/// * `DerivedScan` — streams its input (the derived rows are relabeled and
///   filtered on the fly).
/// * `Exchange(Gather)` — streams: gathering is a pure reordering into the
///   morsel sequence order the executor already preserves; operators above
///   it just see worker-partition 0.
/// * Everything else (scan, broadcast/repartition exchanges, aggregation,
///   sort, limit, merge and nested-loop joins) breaks the pipeline.
pub fn streaming_child(node: &PhysicalNode) -> Option<&Arc<PhysicalPlan>> {
    match node {
        PhysicalNode::Filter { input, .. }
        | PhysicalNode::Project { input, .. }
        | PhysicalNode::DerivedScan { input, .. }
        | PhysicalNode::ScalarSubst { input, .. }
        | PhysicalNode::Exchange {
            input,
            kind: ExchangeKind::Gather,
        } => Some(input),
        PhysicalNode::HashJoin { outer, .. } => Some(outer),
        _ => None,
    }
}

/// Children of `node` that must be fully executed (sealed) before the
/// pipeline containing `node` may pull its first morsel: hash-join build
/// sides and scalar subqueries. The build-before-probe order here is what
/// guarantees every planned Bloom filter is published before the scans
/// that wait on it (paper §3.9).
pub fn blocking_children(node: &PhysicalNode) -> Vec<&Arc<PhysicalPlan>> {
    match node {
        PhysicalNode::HashJoin { inner, .. } => vec![inner],
        PhysicalNode::ScalarSubst { subquery, .. } => vec![subquery],
        _ => Vec::new(),
    }
}

/// Whether `node` can sit *inside* a pipeline (between source and sink)
/// rather than breaking it.
pub fn is_streamable(node: &PhysicalNode) -> bool {
    streaming_child(node).is_some()
}

/// One pipeline: the streamable chain `ops` (top-down, possibly empty)
/// rooted at `head`, pulling morsels from `source`.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// The topmost node of the chain (equal to `source` for a bare scan).
    pub head: Arc<PhysicalPlan>,
    /// Streamable operators from `head` down to (excluding) `source`.
    pub ops: Vec<Arc<PhysicalPlan>>,
    /// Where morsels come from: a `Scan` leaf, or a breaker node whose own
    /// pipelines run first and whose sealed output is re-chunked.
    pub source: Arc<PhysicalPlan>,
}

impl PipelineSpec {
    /// Number of operators fused into this pipeline, counting the source.
    pub fn fused_len(&self) -> usize {
        self.ops.len() + 1
    }
}

/// Decompose `plan` into its pipelines, dependencies first: a pipeline
/// appears after every pipeline that feeds it (blocking children of its
/// chain, and the pipelines below its source when the source is itself a
/// breaker). The final entry is the pipeline producing the query result.
pub fn decompose(plan: &Arc<PhysicalPlan>) -> Vec<PipelineSpec> {
    let mut out = Vec::new();
    decompose_into(plan, &mut out);
    out
}

fn decompose_into(plan: &Arc<PhysicalPlan>, out: &mut Vec<PipelineSpec>) {
    // Walk the streamable chain down from `plan`, collecting dependencies
    // in the order the executor seals them: for each chain node top-down,
    // its blocking children; then the source's own pipelines.
    let mut ops = Vec::new();
    let mut cursor = plan.clone();
    let mut pending_blockers: Vec<Arc<PhysicalPlan>> = Vec::new();
    loop {
        for b in blocking_children(&cursor.node) {
            pending_blockers.push(b.clone());
        }
        match streaming_child(&cursor.node) {
            Some(child) => {
                ops.push(cursor.clone());
                cursor = child.clone();
            }
            None => break,
        }
    }
    // `cursor` is now the source: a Scan leaf or a breaker.
    if !matches!(cursor.node, PhysicalNode::Scan { .. }) {
        // A breaker source: its inputs form their own pipelines.
        for child in cursor.children() {
            decompose_into(child, out);
        }
    }
    for b in &pending_blockers {
        decompose_into(b, out);
    }
    out.push(PipelineSpec {
        head: plan.clone(),
        ops,
        source: cursor,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::OutputColumn;
    use crate::physical::{Distribution, JoinKind};
    use bfq_common::{ColumnId, TableId};
    use bfq_expr::{Expr, Layout};

    fn scan(rel: u32) -> Arc<PhysicalPlan> {
        PhysicalPlan::new(
            PhysicalNode::Scan {
                base: TableId(0),
                rel_id: TableId(rel),
                alias: format!("t{rel}"),
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

    fn agg(input: Arc<PhysicalPlan>) -> Arc<PhysicalPlan> {
        let layout = input.layout.clone();
        PhysicalPlan::new(
            PhysicalNode::HashAgg {
                input,
                group_by: vec![],
                aggs: vec![],
                having: None,
                est_groups: 1.0,
            },
            layout,
            1.0,
            Distribution::Single,
        )
    }

    fn project(input: Arc<PhysicalPlan>) -> Arc<PhysicalPlan> {
        let col = input.layout.columns()[0];
        let layout = input.layout.clone();
        PhysicalPlan::new(
            PhysicalNode::Project {
                input,
                exprs: vec![OutputColumn {
                    expr: Expr::col(col),
                    name: "c".into(),
                    id: col,
                }],
            },
            layout,
            100.0,
            Distribution::AnyPartitioned,
        )
    }

    #[test]
    fn scan_project_is_one_pipeline() {
        let plan = project(scan(100));
        let pipes = decompose(&plan);
        assert_eq!(pipes.len(), 1);
        assert_eq!(pipes[0].ops.len(), 1, "project fused");
        assert!(matches!(pipes[0].source.node, PhysicalNode::Scan { .. }));
        assert_eq!(pipes[0].fused_len(), 2);
    }

    #[test]
    fn join_breaks_at_build_side() {
        // project(join(scan a, scan b)): the build side (b) is its own
        // pipeline, sealed before the probe pipeline runs.
        let plan = project(join(scan(100), scan(101)));
        let pipes = decompose(&plan);
        assert_eq!(pipes.len(), 2);
        // Build pipeline first.
        assert!(
            matches!(pipes[0].source.node, PhysicalNode::Scan { rel_id, .. } if rel_id == TableId(101))
        );
        // Probe pipeline fuses project + join-probe over scan a.
        assert_eq!(pipes[1].ops.len(), 2);
        assert!(
            matches!(pipes[1].source.node, PhysicalNode::Scan { rel_id, .. } if rel_id == TableId(100))
        );
    }

    #[test]
    fn agg_is_a_breaker_source() {
        // project(agg(scan)): the aggregate seals scan's pipeline; the
        // projection then streams over the (single-chunk) aggregate output.
        let plan = project(agg(scan(100)));
        let pipes = decompose(&plan);
        assert_eq!(pipes.len(), 2);
        assert!(matches!(pipes[0].source.node, PhysicalNode::Scan { .. }));
        assert!(matches!(pipes[1].source.node, PhysicalNode::HashAgg { .. }));
        assert!(is_streamable(&plan.node));
        assert!(!is_streamable(&pipes[1].source.node));
    }
}
