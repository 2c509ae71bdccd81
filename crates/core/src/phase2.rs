//! Second bottom-up phase: the costed DP over enlarged plan lists
//! (paper §3.6).
//!
//! Ordinary Selinger-style dynamic programming — one join method per split
//! (a hash join when an equi clause connects the sides, otherwise a nested
//! loop), all distribution (streaming) alternatives — plus the Bloom filter
//! legality rules:
//!
//! * a pending filter whose δ is fully covered by the build side **resolves**
//!   there; the join must be a hash join and gains a [`BloomBuild`];
//! * a pending filter whose δ *partially* overlaps the build side is illegal
//!   (Fig. 3b), **unless** the build side is itself a Bloom-filter sub-plan
//!   whose own pending δ's cover the outstanding relations (Fig. 3c) — the
//!   chained filter transfers the missing relations' filtering;
//! * a pending filter disjoint from the build side propagates unchanged;
//! * a build-side pending filter whose δ overlaps the probe side can never
//!   resolve (its build relations ended up on the apply side), so the
//!   combination is discarded;
//! * on resolution "the cardinality estimate simply becomes the original
//!   estimate for the joined relation".

use std::collections::HashMap;
use std::sync::Arc;

use bfq_common::{BfqError, ColumnId, RelSet, Result};
use bfq_cost::{BfAssumption, Cost, CostModel, Estimator};
use bfq_expr::Expr;
use bfq_plan::{
    BloomBuild, Distribution, ExchangeKind, JoinKind, PhysicalNode, PhysicalPlan, QueryBlock,
};

use crate::costing::ProgramSpec;
use crate::enumerate::{enumerate_sets, pred_rels, splits, Split};
use crate::subplan::{PendingBf, PlanList, SubPlan};
use crate::OptimizerConfig;

/// Statistics from the costed DP.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Phase2Stats {
    /// Relation sets processed.
    pub sets: usize,
    /// (outer sub-plan, inner sub-plan) combinations examined.
    pub pairs: usize,
    /// Sub-plans generated (before plan-list pruning).
    pub generated: usize,
    /// Sub-plans surviving in plan lists at the end.
    pub kept: usize,
}

/// One distribution alternative for a join.
struct DistOpt {
    outer_ex: Option<ExchangeKind>,
    inner_ex: Option<ExchangeKind>,
    out_dist: Distribution,
    single_stream: bool,
    build_replicated: bool,
}

/// Run the costed bottom-up DP. `initial` holds the per-relation plan lists
/// from [`crate::costing::initial_plan_lists`]; `program` is the block's
/// semijoin program when one was built (its lane is enumerated alongside
/// the per-join lane and the cheapest complete plan of either wins).
/// Returns the winning sub-plan for the full relation set.
pub fn run_dp(
    block: &QueryBlock,
    est: &Estimator<'_>,
    model: &CostModel,
    config: &OptimizerConfig,
    initial: Vec<PlanList>,
    program: Option<&ProgramSpec>,
) -> Result<(SubPlan, Phase2Stats)> {
    let n = block.num_rels();
    let mut stats = Phase2Stats::default();
    let mut lists: HashMap<u64, PlanList> = HashMap::new();
    for (rel, list) in initial.into_iter().enumerate() {
        lists.insert(RelSet::single(rel).0, list);
    }

    let sets = enumerate_sets(block);
    for set in sets {
        if set.len() < 2 {
            continue;
        }
        stats.sets += 1;
        let mut list = PlanList::new();
        for split in splits(block, set) {
            let (Some(outer_list), Some(inner_list)) =
                (lists.get(&split.outer.0), lists.get(&split.inner.0))
            else {
                continue;
            };
            for outer_sp in outer_list.plans() {
                for inner_sp in inner_list.plans() {
                    stats.pairs += 1;
                    try_join(
                        block, est, model, &split, outer_sp, inner_sp, program, &mut list,
                        &mut stats,
                    );
                }
            }
        }
        if config.h7_enabled {
            list.apply_heuristic7(config.h7_max_subplans);
        }
        stats.kept += list.len();
        lists.insert(set.0, list);
    }

    let full = RelSet::all(n);
    let best = lists
        .get(&full.0)
        .and_then(|l| l.best_resolved())
        .cloned()
        .ok_or_else(|| BfqError::Plan("no complete plan found for query block".into()))?;
    Ok((best, stats))
}

/// Classify the pending filters of a candidate join. Returns `None` when the
/// combination is illegal.
struct PendingSplit {
    resolved: Vec<PendingBf>,
    remaining: Vec<PendingBf>,
}

fn classify_pendings(
    outer_sp: &SubPlan,
    inner_sp: &SubPlan,
    outer_set: RelSet,
    inner_set: RelSet,
) -> Option<PendingSplit> {
    let mut resolved = Vec::new();
    let mut remaining = Vec::new();
    let inner_cover = inner_sp
        .pending
        .iter()
        .fold(RelSet::EMPTY, |acc, p| acc.union(p.bf.delta));
    for p in &outer_sp.pending {
        if p.bf.delta.is_subset_of(inner_set) {
            resolved.push(p.clone());
        } else if p.bf.delta.overlaps(inner_set) {
            // Fig. 3b/3c: partial coverage is illegal unless the inner side's
            // own pending filters transfer the outstanding relations.
            let outstanding = p.bf.delta.difference(inner_set);
            if outstanding.is_subset_of(inner_cover) {
                resolved.push(p.clone());
            } else {
                return None;
            }
        } else {
            remaining.push(p.clone());
        }
    }
    for p in &inner_sp.pending {
        if p.bf.delta.overlaps(outer_set) {
            // A δ relation landed on the apply side: unresolvable forever.
            return None;
        }
        remaining.push(p.clone());
    }
    Some(PendingSplit {
        resolved,
        remaining,
    })
}

fn hash_dist_opts(
    outer: &SubPlan,
    inner: &SubPlan,
    okeys: &[ColumnId],
    ikeys: &[ColumnId],
    kind: JoinKind,
) -> Vec<DistOpt> {
    let mut opts = Vec::new();
    if outer.dist == Distribution::Single && inner.dist == Distribution::Single {
        opts.push(DistOpt {
            outer_ex: None,
            inner_ex: None,
            out_dist: Distribution::Single,
            single_stream: true,
            build_replicated: false,
        });
    }
    // Repartition both sides on the join keys (skipping sides already
    // partitioned exactly right — the paper's partition-aligned case).
    let outer_aligned = outer.dist == Distribution::Hash(okeys.to_vec());
    let inner_aligned = inner.dist == Distribution::Hash(ikeys.to_vec());
    opts.push(DistOpt {
        outer_ex: (!outer_aligned).then(|| ExchangeKind::Repartition(okeys.to_vec())),
        inner_ex: (!inner_aligned).then(|| ExchangeKind::Repartition(ikeys.to_vec())),
        out_dist: Distribution::Hash(okeys.to_vec()),
        single_stream: false,
        build_replicated: false,
    });
    // Broadcast the build side (paper §3.9 case 1).
    if outer.dist != Distribution::Replicated {
        let single = outer.dist == Distribution::Single;
        opts.push(DistOpt {
            outer_ex: None,
            inner_ex: Some(ExchangeKind::Broadcast),
            out_dist: outer.dist.clone(),
            single_stream: single,
            build_replicated: !single,
        });
    }
    // Broadcast the probe side (paper §3.9 case 2) — inner joins only:
    // duplicated probe rows would corrupt semi/anti/outer semantics.
    if kind == JoinKind::Inner
        && matches!(
            inner.dist,
            Distribution::AnyPartitioned | Distribution::Hash(_)
        )
    {
        opts.push(DistOpt {
            outer_ex: Some(ExchangeKind::Broadcast),
            inner_ex: None,
            out_dist: Distribution::AnyPartitioned,
            single_stream: false,
            build_replicated: false,
        });
    }
    opts
}

fn simple_dist_opts(outer: &SubPlan, inner: &SubPlan) -> Vec<DistOpt> {
    let mut opts = Vec::new();
    if outer.dist == Distribution::Single && inner.dist == Distribution::Single {
        opts.push(DistOpt {
            outer_ex: None,
            inner_ex: None,
            out_dist: Distribution::Single,
            single_stream: true,
            build_replicated: false,
        });
    }
    if outer.dist != Distribution::Replicated {
        let single = outer.dist == Distribution::Single;
        opts.push(DistOpt {
            outer_ex: None,
            inner_ex: Some(ExchangeKind::Broadcast),
            out_dist: outer.dist.clone(),
            single_stream: single,
            build_replicated: !single,
        });
    }
    opts
}

fn wrap_exchange(plan: &Arc<PhysicalPlan>, kind: ExchangeKind, rows: f64) -> Arc<PhysicalPlan> {
    let dist = match &kind {
        ExchangeKind::Broadcast => Distribution::Replicated,
        ExchangeKind::Repartition(cols) => Distribution::Hash(cols.clone()),
        ExchangeKind::Gather => Distribution::Single,
    };
    PhysicalPlan::new(
        PhysicalNode::Exchange {
            input: plan.clone(),
            kind,
        },
        plan.layout.clone(),
        rows,
        dist,
    )
}

fn exchange_cost(model: &CostModel, kind: &Option<ExchangeKind>, rows: f64) -> Cost {
    match kind {
        None => Cost::ZERO,
        Some(ExchangeKind::Broadcast) => model.broadcast(rows),
        Some(ExchangeKind::Repartition(_)) => model.repartition(rows),
        Some(ExchangeKind::Gather) => model.gather(rows),
    }
}

#[allow(clippy::too_many_arguments)]
fn try_join(
    block: &QueryBlock,
    est: &Estimator<'_>,
    model: &CostModel,
    split: &Split,
    outer_sp: &SubPlan,
    inner_sp: &SubPlan,
    program: Option<&ProgramSpec>,
    list: &mut PlanList,
    stats: &mut Phase2Stats,
) {
    // The per-join and program lanes never mix: a program-lane scan's row
    // count assumes its scheduled reducers ran, which only holds when the
    // whole plan is the program's probe pass.
    if outer_sp.program != inner_sp.program {
        return;
    }
    let Some(pending) = classify_pendings(outer_sp, inner_sp, split.outer, split.inner) else {
        return;
    };
    let s_all = split.outer.union(split.inner);

    // Oriented equi keys.
    let clauses = block.clauses_between(split.outer, split.inner);
    let mut okeys = Vec::with_capacity(clauses.len());
    let mut ikeys = Vec::with_capacity(clauses.len());
    for c in &clauses {
        if split.outer.contains(c.left_rel) {
            okeys.push(c.left);
            ikeys.push(c.right);
        } else {
            okeys.push(c.right);
            ikeys.push(c.left);
        }
    }
    if !pending.resolved.is_empty() && okeys.is_empty() {
        return; // resolution needs a hash join, which needs equi keys
    }

    // Complex predicates that become evaluable exactly at this join.
    let extra_preds: Vec<Expr> = block
        .complex_preds
        .iter()
        .filter(|p| {
            let rels = pred_rels(block, p);
            rels.is_subset_of(s_all)
                && !rels.is_subset_of(split.outer)
                && !rels.is_subset_of(split.inner)
        })
        .cloned()
        .collect();
    let extra = Expr::conjunction(extra_preds);

    // Output cardinality under the surviving assumptions. In the program
    // lane the assumptions are the scheduled reducers still pruning this
    // set (§3.5's pass-fraction model applied per active tree edge).
    let remaining_bfs: Vec<BfAssumption> = if outer_sp.program {
        program
            .map(|spec| spec.active_assumptions(s_all))
            .unwrap_or_default()
    } else {
        pending.remaining.iter().map(|p| p.bf.clone()).collect()
    };
    let rows_out = est.joined_rows(s_all, &remaining_bfs);

    // Bloom builds for resolved filters.
    let builds: Vec<BloomBuild> = pending
        .resolved
        .iter()
        .map(|p| BloomBuild {
            filter: p.id,
            column: p.bf.build_col,
            expected_ndv: est.effective_build_ndv(p.bf.build_col, p.bf.delta),
        })
        .collect();

    let out_layout = if split.kind.emits_inner_columns() {
        outer_sp.plan.layout.concat(&inner_sp.plan.layout)
    } else {
        outer_sp.plan.layout.clone()
    };

    // A hash join whenever an equi clause connects the sides, a nested
    // loop only when none does: a hash join over an inner side that really
    // has 1 row costs microseconds more, a nested loop over one estimated
    // at 1 that has thousands costs seconds.
    let hash = !okeys.is_empty();
    let dist_opts = if hash {
        hash_dist_opts(outer_sp, inner_sp, &okeys, &ikeys, split.kind)
    } else {
        simple_dist_opts(outer_sp, inner_sp)
    };
    for opt in dist_opts {
        let outer_plan = match &opt.outer_ex {
            Some(kind) => wrap_exchange(&outer_sp.plan, kind.clone(), outer_sp.rows),
            None => outer_sp.plan.clone(),
        };
        let inner_plan = match &opt.inner_ex {
            Some(kind) => wrap_exchange(&inner_sp.plan, kind.clone(), inner_sp.rows),
            None => inner_sp.plan.clone(),
        };
        let (join_cost, node) = if hash {
            (
                model.hash_join(
                    inner_sp.rows,
                    outer_sp.rows,
                    rows_out,
                    builds.len(),
                    opt.build_replicated,
                    opt.single_stream,
                ),
                PhysicalNode::HashJoin {
                    outer: outer_plan,
                    inner: inner_plan,
                    kind: split.kind,
                    keys: okeys.iter().copied().zip(ikeys.iter().copied()).collect(),
                    extra: extra.clone(),
                    builds: builds.clone(),
                },
            )
        } else {
            (
                model.nestloop_join(outer_sp.rows, inner_sp.rows, rows_out, opt.single_stream),
                PhysicalNode::NestLoopJoin {
                    outer: outer_plan,
                    inner: inner_plan,
                    kind: split.kind,
                    predicate: extra.clone(),
                },
            )
        };
        let cost = outer_sp
            .cost
            .plus(inner_sp.cost)
            .plus(exchange_cost(model, &opt.outer_ex, outer_sp.rows))
            .plus(exchange_cost(model, &opt.inner_ex, inner_sp.rows))
            .plus(join_cost);
        let plan = PhysicalPlan::new(node, out_layout.clone(), rows_out, opt.out_dist.clone());
        stats.generated += 1;
        list.add(SubPlan {
            plan,
            rows: rows_out,
            cost,
            dist: opt.out_dist,
            pending: pending.remaining.clone(),
            program: outer_sp.program,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::mark_candidates;
    use crate::costing::{initial_plan_lists, required_cols_per_rel};
    use crate::phase1::collect_deltas;
    use crate::synth::{chain_block, running_example, star_block, ChainSpec, Fixture};
    use crate::{BloomMode, OptimizerConfig};

    fn optimize_fixture(fx: &Fixture, config: &OptimizerConfig) -> (SubPlan, Phase2Stats) {
        let est = fx.estimator();
        let model = CostModel::new(config.dop);
        let mut cands = if config.bloom_mode == BloomMode::Cbo {
            mark_candidates(&fx.block, &est, config)
        } else {
            vec![]
        };
        collect_deltas(&fx.block, &est, &mut cands, config);
        let required = required_cols_per_rel(&fx.block, &[]);
        let mut next_filter = 0;
        let initial = initial_plan_lists(
            &fx.block,
            &est,
            &model,
            config,
            &cands,
            &required,
            &HashMap::new(),
            None,
            &mut next_filter,
        )
        .unwrap();
        run_dp(&fx.block, &est, &model, config, initial, None).unwrap()
    }

    fn count_nodes(plan: &Arc<PhysicalPlan>, pred: impl Fn(&PhysicalNode) -> bool) -> usize {
        let mut n = 0;
        plan.visit(&mut |p| {
            if pred(&p.node) {
                n += 1;
            }
        });
        n
    }

    #[test]
    fn plain_dp_produces_complete_plan() {
        let fx = chain_block(&[
            ChainSpec::new("a", 10_000),
            ChainSpec::new("b", 1_000).filtered(0.2),
            ChainSpec::new("c", 100),
        ]);
        let config = OptimizerConfig::with_mode(BloomMode::None);
        let (best, stats) = optimize_fixture(&fx, &config);
        assert!(best.pending.is_empty());
        assert!(stats.pairs > 0);
        // Plan contains exactly two joins over three scans.
        let joins = count_nodes(&best.plan, |n| {
            matches!(
                n,
                PhysicalNode::HashJoin { .. } | PhysicalNode::NestLoopJoin { .. }
            )
        });
        assert_eq!(joins, 2);
        let scans = count_nodes(&best.plan, |n| matches!(n, PhysicalNode::Scan { .. }));
        assert_eq!(scans, 3);
    }

    #[test]
    fn one_row_inner_gets_a_hash_join_unless_no_clause_connects_it() {
        let is_nestloop = |n: &PhysicalNode| matches!(n, PhysicalNode::NestLoopJoin { .. });
        let is_hash = |n: &PhysicalNode| matches!(n, PhysicalNode::HashJoin { .. });

        // Tiny inputs at any dop: every equi-join is a hash join, however
        // little a competing plan would claim to cost.
        for dop in [1, 2, 4] {
            let config = OptimizerConfig::with_mode(BloomMode::None).dop(dop);
            for outer_rows in [10_000, 1] {
                let fx = chain_block(&[
                    ChainSpec::new("outer", outer_rows),
                    ChainSpec::new("one", 1),
                ]);
                assert_eq!(fx.estimator().base_rows(1), 1.0);
                let (best, _) = optimize_fixture(&fx, &config);
                let shown = best.plan.explain(&|c| format!("{c}"));
                assert_eq!(count_nodes(&best.plan, is_hash), 1, "dop {dop}:\n{shown}");
            }
        }

        // Replace the equi clause with a non-equi predicate: nothing to hash.
        let config = OptimizerConfig::with_mode(BloomMode::None);
        let mut fx = chain_block(&[ChainSpec::new("big", 10_000), ChainSpec::new("one", 1)]);
        let clause = fx.block.equi_clauses.pop().unwrap();
        fx.block.complex_preds.push(Expr::binary(
            bfq_expr::BinOp::Lt,
            Expr::col(clause.left),
            Expr::col(clause.right),
        ));
        let (best, _) = optimize_fixture(&fx, &config);
        assert_eq!(count_nodes(&best.plan, is_nestloop), 1);
        assert_eq!(count_nodes(&best.plan, is_hash), 0);
    }

    #[test]
    fn bf_cbo_resolves_all_filters_in_final_plan() {
        let fx = running_example(1.0);
        let mut config = OptimizerConfig::with_mode(BloomMode::Cbo);
        config.bf_min_apply_rows = 100.0;
        let (best, _) = optimize_fixture(&fx, &config);
        assert!(best.pending.is_empty(), "root must have no pending filters");
        // If a scan applies filter N, some hash join must build filter N.
        let mut applied = Vec::new();
        let mut built = Vec::new();
        best.plan.visit(&mut |p| match &p.node {
            PhysicalNode::Scan { blooms, .. } => applied.extend(blooms.iter().map(|b| b.filter)),
            PhysicalNode::HashJoin { builds, .. } => built.extend(builds.iter().map(|b| b.filter)),
            _ => {}
        });
        applied.sort();
        built.sort();
        assert_eq!(applied, built, "every applied filter must be built once");
        assert!(
            !applied.is_empty(),
            "BF-CBO should have used a Bloom filter"
        );
    }

    #[test]
    fn bf_cbo_wins_over_plain_on_transfer_heavy_chain() {
        // The paper's headline effect: with a filtered small relation at the
        // end of a chain, BF-CBO's best plan must be at least as cheap as
        // plain CBO's (it explores a superset of plans).
        let fx = running_example(1.0);
        let mut cbo = OptimizerConfig::with_mode(BloomMode::Cbo);
        cbo.bf_min_apply_rows = 100.0;
        let plain = OptimizerConfig::with_mode(BloomMode::None);
        let (best_cbo, _) = optimize_fixture(&fx, &cbo);
        let (best_plain, _) = optimize_fixture(&fx, &plain);
        assert!(
            best_cbo.cost.total <= best_plain.cost.total * (1.0 + 1e-9),
            "BF-CBO {} vs plain {}",
            best_cbo.cost.total,
            best_plain.cost.total
        );
        // And its estimate of output rows should not be larger.
        assert!(best_cbo.rows <= best_plain.rows * 1.01);
    }

    #[test]
    fn star_query_gets_multiple_filters() {
        let fx = star_block(
            ChainSpec::new("fact", 200_000),
            &[
                ChainSpec::new("d1", 1_000).filtered(0.05),
                ChainSpec::new("d2", 1_000).filtered(0.1),
            ],
        );
        let mut config = OptimizerConfig::with_mode(BloomMode::Cbo);
        config.bf_min_apply_rows = 1_000.0;
        let (best, _) = optimize_fixture(&fx, &config);
        let applies = count_nodes(
            &best.plan,
            |n| matches!(n, PhysicalNode::Scan { blooms, .. } if !blooms.is_empty()),
        );
        assert!(applies >= 1, "expected at least one Bloom-filtered scan");
    }

    #[test]
    fn search_stats_grow_with_bloom_mode() {
        let fx = running_example(0.5);
        let mut cbo = OptimizerConfig::with_mode(BloomMode::Cbo);
        cbo.bf_min_apply_rows = 50.0;
        let plain = OptimizerConfig::with_mode(BloomMode::None);
        let (_, s_cbo) = optimize_fixture(&fx, &cbo);
        let (_, s_plain) = optimize_fixture(&fx, &plain);
        assert!(
            s_cbo.pairs >= s_plain.pairs,
            "BF-CBO must search at least as much: {} vs {}",
            s_cbo.pairs,
            s_plain.pairs
        );
    }

    #[test]
    fn exchanges_present_in_parallel_plans() {
        let fx = chain_block(&[ChainSpec::new("a", 100_000), ChainSpec::new("b", 50_000)]);
        let config = OptimizerConfig::with_mode(BloomMode::None).dop(8);
        let (best, _) = optimize_fixture(&fx, &config);
        let exchanges = count_nodes(&best.plan, |n| matches!(n, PhysicalNode::Exchange { .. }));
        assert!(
            exchanges >= 1,
            "parallel join should use RD or BC:\n{}",
            best.plan.explain(&|c| format!("{c}"))
        );
    }
}
