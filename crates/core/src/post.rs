//! Post-processing application of Bloom filters (paper §3.7).
//!
//! This is both (a) the **BF-Post baseline** — optimize without Bloom
//! filters, then decorate the finished plan — and (b) the retained final
//! pass after BF-CBO ("Bloom filters are added in places where either
//! costing has determined they should be or where the pre-existing
//! post-processing approach would have marked one").
//!
//! For every hash join we try to push a filter built from each join key's
//! build side down to the probe-side scan of the key's relation. The pass
//! repeats the correctness rules and the selectivity/size/lossless
//! heuristics, but — crucially, and faithfully to post-processing — it does
//! **not** update any cardinality estimates: the plan shape is already
//! fixed, which is exactly the deficiency BF-CBO removes.

use std::sync::Arc;

use bfq_common::{FilterId, RelSet, TableId};
use bfq_cost::{BfAssumption, Estimator};
use bfq_plan::{BloomApply, BloomBuild, JoinKind, PhysicalNode, PhysicalPlan, QueryBlock};

use crate::OptimizerConfig;

/// Add post-processing Bloom filters to a finished block plan. Returns the
/// rewritten plan and the number of filters added.
pub fn add_post_filters(
    plan: &Arc<PhysicalPlan>,
    block: &QueryBlock,
    est: &Estimator<'_>,
    config: &OptimizerConfig,
    next_filter: &mut u32,
) -> (Arc<PhysicalPlan>, usize) {
    let mut added = 0;
    let plan = rewrite(plan, block, est, config, next_filter, &mut added);
    (plan, added)
}

/// Relations (block ordinals) scanned within a subtree.
fn subtree_rels(plan: &Arc<PhysicalPlan>, block: &QueryBlock) -> RelSet {
    let mut set = RelSet::EMPTY;
    plan.visit(&mut |p| {
        if let PhysicalNode::Scan { rel_id, .. } | PhysicalNode::DerivedScan { rel_id, .. } =
            &p.node
        {
            if let Some(ord) = block.ordinal_of(*rel_id) {
                set = set.with(ord);
            }
        }
    });
    set
}

fn rewrite(
    plan: &Arc<PhysicalPlan>,
    block: &QueryBlock,
    est: &Estimator<'_>,
    config: &OptimizerConfig,
    next_filter: &mut u32,
    added: &mut usize,
) -> Arc<PhysicalPlan> {
    // Rebuild children first so nested joins get their chances.
    let mut node = rebuild_children(plan, |child| {
        rewrite(child, block, est, config, next_filter, added)
    });

    if let PhysicalNode::HashJoin {
        outer,
        inner,
        kind,
        keys,
        builds,
        ..
    } = &mut node
    {
        // Filters may be built at inner and semi joins; building from the
        // inner of an anti or outer join is unsound (§3.3).
        if matches!(kind, JoinKind::Inner | JoinKind::Semi) {
            let delta = subtree_rels(inner, block);
            for &(outer_col, inner_col) in keys.iter() {
                let Some(apply_rel) = block.ordinal_of(outer_col.table) else {
                    continue;
                };
                let bf = BfAssumption {
                    apply_rel,
                    apply_col: outer_col,
                    build_rel: block.ordinal_of(inner_col.table).unwrap_or(apply_rel),
                    build_col: inner_col,
                    delta,
                };
                // Heuristic 2: apply relation large enough.
                if est.base_rows(apply_rel) < config.bf_min_apply_rows {
                    continue;
                }
                // Heuristic 3: lossless FK→PK filters are useless.
                if est.bf_is_lossless(&bf) {
                    continue;
                }
                // Heuristic 5: size budget.
                let ndv = est.effective_build_ndv(inner_col, delta);
                if ndv > config.bf_max_build_ndv {
                    continue;
                }
                // Heuristic 6: selectivity threshold.
                if est.bf_semi_selectivity(&bf) > config.bf_selectivity_threshold {
                    continue;
                }
                let id = FilterId(*next_filter);
                let apply = BloomApply {
                    filter: id,
                    column: outer_col,
                    predicted_fpr: est.bf_fpr(&bf),
                    predicted_pass: est.bf_pass_fraction(&bf),
                };
                if let Some(new_outer) = attach_apply(outer, outer_col.table, &apply) {
                    *next_filter += 1;
                    *outer = new_outer;
                    builds.push(BloomBuild {
                        filter: id,
                        column: inner_col,
                        expected_ndv: ndv,
                    });
                    *added += 1;
                }
            }
        }
    }

    let mut rebuilt = (**plan).clone();
    rebuilt.node = node;
    Arc::new(rebuilt)
}

/// Clone a node, mapping each child through `f`.
fn rebuild_children(
    plan: &Arc<PhysicalPlan>,
    mut f: impl FnMut(&Arc<PhysicalPlan>) -> Arc<PhysicalPlan>,
) -> PhysicalNode {
    let mut node = plan.node.clone();
    match &mut node {
        PhysicalNode::OneRow | PhysicalNode::Scan { .. } => {}
        PhysicalNode::DerivedScan { input, .. }
        | PhysicalNode::Filter { input, .. }
        | PhysicalNode::Exchange { input, .. }
        | PhysicalNode::Project { input, .. }
        | PhysicalNode::HashAgg { input, .. }
        | PhysicalNode::Sort { input, .. }
        | PhysicalNode::Limit { input, .. } => *input = f(input),
        PhysicalNode::HashJoin { outer, inner, .. }
        | PhysicalNode::NestLoopJoin { outer, inner, .. } => {
            *outer = f(outer);
            *inner = f(inner);
        }
        PhysicalNode::ScalarSubst {
            input, subquery, ..
        } => {
            *input = f(input);
            *subquery = f(subquery);
        }
    }
    node
}

/// Attach a [`BloomApply`] to the scan of `rel_id` inside `plan`, if it can
/// be reached without crossing an illegal boundary. Returns the rewritten
/// subtree, or `None` if the scan is unreachable or already filters this
/// column.
fn attach_apply(
    plan: &Arc<PhysicalPlan>,
    rel_id: TableId,
    apply: &BloomApply,
) -> Option<Arc<PhysicalPlan>> {
    let column = apply.column;
    let new_node = match &plan.node {
        PhysicalNode::Scan {
            rel_id: scan_rel,
            blooms,
            base,
            alias,
            projection,
            predicate,
        } if *scan_rel == rel_id => {
            if blooms.iter().any(|b| b.column == column) {
                return None; // already filtered on this column (e.g. by CBO)
            }
            let mut blooms = blooms.clone();
            blooms.push(apply.clone());
            PhysicalNode::Scan {
                base: *base,
                rel_id: *scan_rel,
                alias: alias.clone(),
                projection: projection.clone(),
                predicate: predicate.clone(),
                blooms,
            }
        }
        PhysicalNode::DerivedScan {
            rel_id: scan_rel,
            blooms,
            input,
            alias,
            predicate,
        } if *scan_rel == rel_id => {
            if blooms.iter().any(|b| b.column == column) {
                return None;
            }
            let mut blooms = blooms.clone();
            blooms.push(apply.clone());
            PhysicalNode::DerivedScan {
                input: input.clone(),
                rel_id: *scan_rel,
                alias: alias.clone(),
                predicate: predicate.clone(),
                blooms,
            }
        }
        PhysicalNode::Scan { .. } | PhysicalNode::DerivedScan { .. } => return None,
        PhysicalNode::Filter { input, predicate } => PhysicalNode::Filter {
            input: attach_apply(input, rel_id, apply)?,
            predicate: predicate.clone(),
        },
        PhysicalNode::Exchange { input, kind } => PhysicalNode::Exchange {
            input: attach_apply(input, rel_id, apply)?,
            kind: kind.clone(),
        },
        PhysicalNode::HashJoin {
            outer,
            inner,
            kind,
            keys,
            extra,
            builds,
        } => {
            let (new_outer, new_inner) = descend_join(outer, inner, *kind, rel_id, apply)?;
            PhysicalNode::HashJoin {
                outer: new_outer,
                inner: new_inner,
                kind: *kind,
                keys: keys.clone(),
                extra: extra.clone(),
                builds: builds.clone(),
            }
        }
        PhysicalNode::NestLoopJoin {
            outer,
            inner,
            kind,
            predicate,
        } => {
            let (new_outer, new_inner) = descend_join(outer, inner, *kind, rel_id, apply)?;
            PhysicalNode::NestLoopJoin {
                outer: new_outer,
                inner: new_inner,
                kind: *kind,
                predicate: predicate.clone(),
            }
        }
        // Aggregations/projections change the row space; pushing a filter
        // through them is left to the paper's future work.
        _ => return None,
    };
    let mut rebuilt = (**plan).clone();
    rebuilt.node = new_node;
    Some(Arc::new(rebuilt))
}

/// Push into the side of a join holding `rel_id`, enforcing the boundary
/// rules: never across an anti join; never into the preserved side of a
/// left outer join.
fn descend_join(
    outer: &Arc<PhysicalPlan>,
    inner: &Arc<PhysicalPlan>,
    kind: JoinKind,
    rel_id: TableId,
    apply: &BloomApply,
) -> Option<(Arc<PhysicalPlan>, Arc<PhysicalPlan>)> {
    if kind == JoinKind::Anti {
        return None;
    }
    let in_outer = outer.layout.slot_of(apply.column).is_some();
    if in_outer {
        if kind == JoinKind::LeftOuter {
            // Outer side is row-preserving: filtering it is unsound.
            return None;
        }
        let new_outer = attach_apply(outer, rel_id, apply)?;
        Some((new_outer, inner.clone()))
    } else {
        let new_inner = attach_apply(inner, rel_id, apply)?;
        Some((outer.clone(), new_inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costing::{initial_plan_lists, required_cols_per_rel};
    use crate::phase2::run_dp;
    use crate::synth::{chain_block, running_example, ChainSpec, Fixture};
    use crate::{BloomMode, OptimizerConfig};
    use bfq_cost::CostModel;
    use std::collections::HashMap;

    fn plain_plan(fx: &Fixture, config: &OptimizerConfig) -> Arc<PhysicalPlan> {
        let est = fx.estimator();
        let model = CostModel::new(config.dop);
        let required = required_cols_per_rel(&fx.block, &[]);
        let mut next_filter = 0;
        let initial = initial_plan_lists(
            &fx.block,
            &est,
            &model,
            config,
            &[],
            &required,
            &HashMap::new(),
            &mut next_filter,
        )
        .unwrap();
        let space = crate::enumerate::join_space(&fx.block);
        run_dp(&fx.block, &est, &model, config, &space, initial)
            .unwrap()
            .0
            .plan
    }

    fn count_filters(plan: &Arc<PhysicalPlan>) -> (usize, usize) {
        let (mut applies, mut builds) = (0, 0);
        plan.visit(&mut |p| match &p.node {
            PhysicalNode::Scan { blooms, .. } | PhysicalNode::DerivedScan { blooms, .. } => {
                applies += blooms.len()
            }
            PhysicalNode::HashJoin { builds: b, .. } => builds += b.len(),
            _ => {}
        });
        (applies, builds)
    }

    #[test]
    fn post_adds_filter_on_filtered_build_side() {
        let fx = chain_block(&[
            ChainSpec::new("a", 50_000),
            ChainSpec::new("b", 1_000).filtered(0.1),
        ]);
        let config = OptimizerConfig::with_mode(BloomMode::Post);
        let plan = plain_plan(&fx, &config);
        let est = fx.estimator();
        let mut next = 0;
        let (rewritten, added) = add_post_filters(&plan, &fx.block, &est, &config, &mut next);
        assert_eq!(added, 1, "{}", rewritten.explain(&|c| c.to_string()));
        let (applies, builds) = count_filters(&rewritten);
        assert_eq!((applies, builds), (1, 1));
        // Estimates unchanged: the scan of `a` still claims its full rows.
        rewritten.visit(&mut |p| {
            if let PhysicalNode::Scan { alias, blooms, .. } = &p.node {
                if alias == "a" {
                    assert_eq!(blooms.len(), 1);
                    assert!(p.est_rows >= 49_000.0, "post must not re-estimate");
                }
            }
        });
    }

    #[test]
    fn post_skips_lossless_fk_filter() {
        // Unfiltered PK build side: Heuristic 3 blocks the filter. This is
        // the paper's Figure 1a scenario ("a Bloom filter cannot filter any
        // probe side rows in this case").
        let fx = chain_block(&[ChainSpec::new("a", 50_000), ChainSpec::new("b", 1_000)]);
        let config = OptimizerConfig::with_mode(BloomMode::Post);
        let plan = plain_plan(&fx, &config);
        let est = fx.estimator();
        let mut next = 0;
        let (_, added) = add_post_filters(&plan, &fx.block, &est, &config, &mut next);
        assert_eq!(added, 0);
    }

    #[test]
    fn post_respects_row_threshold() {
        let fx = chain_block(&[
            ChainSpec::new("a", 5_000),
            ChainSpec::new("b", 500).filtered(0.1),
        ]);
        let mut config = OptimizerConfig::with_mode(BloomMode::Post);
        config.bf_min_apply_rows = 10_000.0;
        let plan = plain_plan(&fx, &config);
        let est = fx.estimator();
        let mut next = 0;
        let (_, added) = add_post_filters(&plan, &fx.block, &est, &config, &mut next);
        assert_eq!(added, 0);
    }

    #[test]
    fn post_does_not_duplicate_cbo_filters() {
        // Run BF-CBO to get a plan that already carries a filter, then run
        // the post pass on it: the same (scan, column) must not get two.
        let fx = running_example(1.0);
        let mut config = OptimizerConfig::with_mode(BloomMode::Cbo);
        config.bf_min_apply_rows = 100.0;
        let est = fx.estimator();
        let model = CostModel::new(config.dop);
        let mut cands = crate::candidates::mark_candidates(&fx.block, &est, &config);
        let space = crate::enumerate::join_space(&fx.block);
        crate::phase1::collect_deltas(&est, &space, &mut cands, &config);
        let required = required_cols_per_rel(&fx.block, &[]);
        let mut next_filter = 0;
        let initial = initial_plan_lists(
            &fx.block,
            &est,
            &model,
            &config,
            &cands,
            &required,
            &HashMap::new(),
            &mut next_filter,
        )
        .unwrap();
        let (best, _) = run_dp(&fx.block, &est, &model, &config, &space, initial).unwrap();
        let (before_applies, _) = count_filters(&best.plan);
        assert!(before_applies >= 1);
        let (rewritten, _) =
            add_post_filters(&best.plan, &fx.block, &est, &config, &mut next_filter);
        // No scan may filter the same column twice.
        rewritten.visit(&mut |p| {
            if let PhysicalNode::Scan { blooms, .. } = &p.node {
                let mut cols: Vec<_> = blooms.iter().map(|b| b.column).collect();
                let n = cols.len();
                cols.sort();
                cols.dedup();
                assert_eq!(cols.len(), n, "duplicate filter on one column");
            }
        });
    }
}
