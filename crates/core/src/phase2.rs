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
//!
//! Most alternatives lose to a sub-plan already in their set's plan list, so
//! a join is costed and tested from numbers first — keys, predicates and
//! the join cardinality come once per split, each pending filter carries
//! its pass fraction — and its plan node is built only if the list admits
//! it (`PlanList::admits`).

use std::collections::HashMap;
use std::sync::Arc;

use bfq_common::{BfqError, ColumnId, RelSet, Result};
use bfq_cost::{Cost, CostModel, Estimator};
use bfq_expr::Expr;
use bfq_plan::{
    BloomBuild, Distribution, ExchangeKind, JoinKind, PhysicalNode, PhysicalPlan, QueryBlock,
};

use crate::costing::ProgramSpec;
use crate::enumerate::{pred_rels, SetSplits, Split};
use crate::subplan::{PendingBf, PlanList, SubPlan};
use crate::OptimizerConfig;

/// Statistics from the costed DP.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Phase2Stats {
    /// Relation sets processed.
    pub sets: usize,
    /// (outer sub-plan, inner sub-plan) combinations examined.
    pub pairs: usize,
    /// Sub-plans generated (before plan-list pruning): every legal
    /// distribution alternative of every pair, each one costed.
    pub generated: usize,
    /// Generated sub-plans a plan list admitted, the only ones built as
    /// plan nodes; the rest were rejected on cost, rows and properties.
    /// `kept ≤ built ≤ generated`.
    pub built: usize,
    /// Sub-plans surviving in plan lists at the end.
    pub kept: usize,
}

/// A data movement on one join input.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Replicate to every worker (paper's `BC`).
    Broadcast,
    /// Hash-repartition on the side's join keys (paper's `RD`).
    Repartition,
}

/// One distribution alternative for a join.
struct DistOpt<'a> {
    outer_ex: Option<Move>,
    inner_ex: Option<Move>,
    out_dist: &'a Distribution,
    single_stream: bool,
    build_replicated: bool,
}

static SINGLE: Distribution = Distribution::Single;
static ANY_PARTITIONED: Distribution = Distribution::AnyPartitioned;

/// What every sub-plan pair of one split shares, computed once per split.
struct SplitCtx {
    split: Split,
    /// Oriented equi keys, `okeys[i] = ikeys[i]`; empty when no equi clause
    /// connects the sides.
    okeys: Vec<ColumnId>,
    ikeys: Vec<ColumnId>,
    /// `Hash(okeys)` and `Hash(ikeys)`: a side already partitioned like
    /// this needs no repartition.
    outer_hash: Distribution,
    inner_hash: Distribution,
    /// Complex predicates that become evaluable exactly at this join.
    extra: Option<Expr>,
    /// `join_card(outer ∪ inner)`.
    join_card: f64,
    /// The program lane's output rows, when the block has a program.
    program_rows: Option<f64>,
}

impl SplitCtx {
    fn new(block: &QueryBlock, split: Split, join_card: f64, program_rows: Option<f64>) -> Self {
        let mut okeys = Vec::new();
        let mut ikeys = Vec::new();
        for c in &block.equi_clauses {
            if split.outer.contains(c.left_rel) && split.inner.contains(c.right_rel) {
                okeys.push(c.left);
                ikeys.push(c.right);
            } else if split.outer.contains(c.right_rel) && split.inner.contains(c.left_rel) {
                okeys.push(c.right);
                ikeys.push(c.left);
            }
        }
        let all = split.outer.union(split.inner);
        let extra = Expr::conjunction(
            block
                .complex_preds
                .iter()
                .filter(|p| {
                    let rels = pred_rels(block, p);
                    rels.is_subset_of(all)
                        && !rels.is_subset_of(split.outer)
                        && !rels.is_subset_of(split.inner)
                })
                .cloned()
                .collect(),
        );
        SplitCtx {
            split,
            outer_hash: Distribution::Hash(okeys.clone()),
            inner_hash: Distribution::Hash(ikeys.clone()),
            okeys,
            ikeys,
            extra,
            join_card,
            program_rows,
        }
    }

    /// A hash join whenever an equi clause connects the sides, a nested
    /// loop only when none does: a hash join over an inner side that really
    /// has 1 row costs microseconds more, a nested loop over one estimated
    /// at 1 that has thousands costs seconds.
    fn is_hash(&self) -> bool {
        !self.okeys.is_empty()
    }

    /// The distribution alternatives for joining `outer` to `inner` here.
    fn dist_opts<'a>(
        &'a self,
        outer: &'a SubPlan,
        inner: &SubPlan,
    ) -> impl Iterator<Item = DistOpt<'a>> {
        let hash = self.is_hash();
        let single = (outer.dist == Distribution::Single && inner.dist == Distribution::Single)
            .then_some(DistOpt {
                outer_ex: None,
                inner_ex: None,
                out_dist: &SINGLE,
                single_stream: true,
                build_replicated: false,
            });
        // Repartition both sides on the join keys (skipping sides already
        // partitioned exactly right — the paper's partition-aligned case).
        let repartition = hash.then(|| DistOpt {
            outer_ex: (outer.dist != self.outer_hash).then_some(Move::Repartition),
            inner_ex: (inner.dist != self.inner_hash).then_some(Move::Repartition),
            out_dist: &self.outer_hash,
            single_stream: false,
            build_replicated: false,
        });
        // Broadcast the build side (paper §3.9 case 1).
        let broadcast_build = (outer.dist != Distribution::Replicated).then(|| {
            let single = outer.dist == Distribution::Single;
            DistOpt {
                outer_ex: None,
                inner_ex: Some(Move::Broadcast),
                out_dist: &outer.dist,
                single_stream: single,
                build_replicated: !single,
            }
        });
        // Broadcast the probe side (paper §3.9 case 2) — inner hash joins
        // only: duplicated probe rows would corrupt semi/anti/outer
        // semantics.
        let broadcast_probe = (hash
            && self.split.kind == JoinKind::Inner
            && matches!(
                inner.dist,
                Distribution::AnyPartitioned | Distribution::Hash(_)
            ))
        .then_some(DistOpt {
            outer_ex: Some(Move::Broadcast),
            inner_ex: None,
            out_dist: &ANY_PARTITIONED,
            single_stream: false,
            build_replicated: false,
        });
        [single, repartition, broadcast_build, broadcast_probe]
            .into_iter()
            .flatten()
    }
}

/// Run the costed bottom-up DP over the block's join space
/// ([`crate::enumerate::join_space`]). `initial` holds the per-relation
/// plan lists from [`crate::costing::initial_plan_lists`]; `program` is the
/// block's semijoin program when one was built (its lane is enumerated
/// alongside the per-join lane and the cheapest complete plan of either
/// wins). Returns the winning sub-plan for the full relation set.
pub fn run_dp(
    block: &QueryBlock,
    est: &Estimator<'_>,
    model: &CostModel,
    config: &OptimizerConfig,
    space: &[SetSplits],
    initial: Vec<PlanList>,
    program: Option<&ProgramSpec>,
) -> Result<(SubPlan, Phase2Stats)> {
    let n = block.num_rels();
    let mut stats = Phase2Stats::default();
    let mut lists: HashMap<u64, PlanList> = HashMap::new();
    for (rel, list) in initial.into_iter().enumerate() {
        lists.insert(RelSet::single(rel).0, list);
    }

    // The filters pending above the join being costed, reused across pairs.
    let mut remaining = Vec::new();
    for entry in space {
        let set = entry.set;
        stats.sets += 1;
        let join_card = est.join_card(set);
        // In the program lane the surviving assumptions are the scheduled
        // reducers still pruning this set (§3.5's pass-fraction model
        // applied per active tree edge), so its rows depend on the set only.
        let program_rows = program.map(|spec| est.joined_rows(set, &spec.active_assumptions(set)));
        let mut list = PlanList::new();
        for &split in &entry.splits {
            let (Some(outer_list), Some(inner_list)) =
                (lists.get(&split.outer.0), lists.get(&split.inner.0))
            else {
                continue;
            };
            let ctx = SplitCtx::new(block, split, join_card, program_rows);
            for outer_sp in outer_list.plans() {
                for inner_sp in inner_list.plans() {
                    stats.pairs += 1;
                    try_join(
                        est,
                        model,
                        &ctx,
                        outer_sp,
                        inner_sp,
                        &mut remaining,
                        &mut list,
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

/// The legality of a candidate join's pending filters. Returns how many of
/// the outer side's filters resolve at this join (those whose δ overlaps
/// the build side), or `None` when the combination is illegal. The others,
/// and all of the inner side's, stay pending.
fn resolving_filters(
    outer_sp: &SubPlan,
    inner_sp: &SubPlan,
    outer_set: RelSet,
    inner_set: RelSet,
) -> Option<usize> {
    let inner_cover = inner_sp
        .pending
        .iter()
        .fold(RelSet::EMPTY, |acc, p| acc.union(p.bf.delta));
    let mut resolving = 0;
    for p in &outer_sp.pending {
        if p.bf.delta.is_subset_of(inner_set) {
            resolving += 1;
        } else if p.bf.delta.overlaps(inner_set) {
            // Fig. 3b/3c: partial coverage is illegal unless the inner side's
            // own pending filters transfer the outstanding relations.
            let outstanding = p.bf.delta.difference(inner_set);
            if !outstanding.is_subset_of(inner_cover) {
                return None;
            }
            resolving += 1;
        }
    }
    // A δ relation landed on the apply side: unresolvable forever.
    if inner_sp
        .pending
        .iter()
        .any(|p| p.bf.delta.overlaps(outer_set))
    {
        return None;
    }
    Some(resolving)
}

fn exchange_cost(model: &CostModel, ex: Option<Move>, rows: f64) -> Cost {
    match ex {
        None => Cost::ZERO,
        Some(Move::Broadcast) => model.broadcast(rows),
        Some(Move::Repartition) => model.repartition(rows),
    }
}

/// Cost every distribution alternative of `outer_sp ⋈ inner_sp` across
/// `ctx`'s split, and build the plan node of each one `list` admits.
#[allow(clippy::too_many_arguments)]
fn try_join(
    est: &Estimator<'_>,
    model: &CostModel,
    ctx: &SplitCtx,
    outer_sp: &SubPlan,
    inner_sp: &SubPlan,
    remaining: &mut Vec<PendingBf>,
    list: &mut PlanList,
    stats: &mut Phase2Stats,
) {
    // The per-join and program lanes never mix: a program-lane scan's row
    // count assumes its scheduled reducers ran, which only holds when the
    // whole plan is the program's probe pass.
    if outer_sp.program != inner_sp.program {
        return;
    }
    let Some(resolving) = resolving_filters(outer_sp, inner_sp, ctx.split.outer, ctx.split.inner)
    else {
        return;
    };
    if resolving > 0 && !ctx.is_hash() {
        return; // resolution needs a hash join, which needs equi keys
    }
    remaining.clear();
    remaining.extend(
        outer_sp
            .pending
            .iter()
            .filter(|p| !p.bf.delta.overlaps(ctx.split.inner))
            .cloned(),
    );
    remaining.extend(inner_sp.pending.iter().cloned());

    // Output cardinality under the surviving assumptions: each pending
    // filter scales the join's estimate by its pass fraction, in the order
    // `Estimator::joined_rows` multiplies them.
    let rows_out = match ctx.program_rows {
        Some(rows) if outer_sp.program => rows,
        _ => remaining
            .iter()
            .fold(ctx.join_card, |rows, p| rows * p.pass)
            .max(1.0),
    };

    for opt in ctx.dist_opts(outer_sp, inner_sp) {
        let join_cost = if ctx.is_hash() {
            model.hash_join(
                inner_sp.rows,
                outer_sp.rows,
                rows_out,
                resolving,
                opt.build_replicated,
                opt.single_stream,
            )
        } else {
            model.nestloop_join(outer_sp.rows, inner_sp.rows, rows_out, opt.single_stream)
        };
        let cost = outer_sp
            .cost
            .plus(inner_sp.cost)
            .plus(exchange_cost(model, opt.outer_ex, outer_sp.rows))
            .plus(exchange_cost(model, opt.inner_ex, inner_sp.rows))
            .plus(join_cost);
        stats.generated += 1;
        if !list.admits(
            opt.out_dist,
            outer_sp.program,
            cost.total,
            rows_out,
            remaining,
        ) {
            continue;
        }
        stats.built += 1;
        list.insert(SubPlan {
            plan: build_join(est, ctx, outer_sp, inner_sp, &opt, rows_out),
            rows: rows_out,
            cost,
            dist: opt.out_dist.clone(),
            pending: remaining.clone(),
            program: outer_sp.program,
        });
    }
}

/// `sp`'s plan, behind the exchange `ex` when there is one.
fn wrap_exchange(sp: &SubPlan, ex: Option<Move>, keys: &[ColumnId]) -> Arc<PhysicalPlan> {
    let (kind, dist) = match ex {
        None => return sp.plan.clone(),
        Some(Move::Broadcast) => (ExchangeKind::Broadcast, Distribution::Replicated),
        Some(Move::Repartition) => (
            ExchangeKind::Repartition(keys.to_vec()),
            Distribution::Hash(keys.to_vec()),
        ),
    };
    PhysicalPlan::new(
        PhysicalNode::Exchange {
            input: sp.plan.clone(),
            kind,
        },
        sp.plan.layout.clone(),
        sp.rows,
        dist,
    )
}

/// The plan node of an admitted join alternative.
fn build_join(
    est: &Estimator<'_>,
    ctx: &SplitCtx,
    outer_sp: &SubPlan,
    inner_sp: &SubPlan,
    opt: &DistOpt<'_>,
    rows_out: f64,
) -> Arc<PhysicalPlan> {
    let outer = wrap_exchange(outer_sp, opt.outer_ex, &ctx.okeys);
    let inner = wrap_exchange(inner_sp, opt.inner_ex, &ctx.ikeys);
    let kind = ctx.split.kind;
    let node = if ctx.is_hash() {
        // Bloom builds for the outer side's filters resolving here.
        let builds = outer_sp
            .pending
            .iter()
            .filter(|p| p.bf.delta.overlaps(ctx.split.inner))
            .map(|p| BloomBuild {
                filter: p.id,
                column: p.bf.build_col,
                expected_ndv: est.effective_build_ndv(p.bf.build_col, p.bf.delta),
            })
            .collect();
        PhysicalNode::HashJoin {
            outer,
            inner,
            kind,
            keys: ctx
                .okeys
                .iter()
                .copied()
                .zip(ctx.ikeys.iter().copied())
                .collect(),
            extra: ctx.extra.clone(),
            builds,
        }
    } else {
        PhysicalNode::NestLoopJoin {
            outer,
            inner,
            kind,
            predicate: ctx.extra.clone(),
        }
    };
    let layout = if kind.emits_inner_columns() {
        outer_sp.plan.layout.concat(&inner_sp.plan.layout)
    } else {
        outer_sp.plan.layout.clone()
    };
    PhysicalPlan::new(node, layout, rows_out, opt.out_dist.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::mark_candidates;
    use crate::costing::{initial_plan_lists, required_cols_per_rel};
    use crate::enumerate::join_space;
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
        let space = join_space(&fx.block);
        collect_deltas(&est, &space, &mut cands, config);
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
        run_dp(&fx.block, &est, &model, config, &space, initial, None).unwrap()
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
    fn only_admitted_subplans_are_built() {
        let fixtures = [
            running_example(1.0),
            chain_block(&[
                ChainSpec::new("a", 50_000),
                ChainSpec::new("b", 5_000).filtered(0.2),
                ChainSpec::new("c", 500),
                ChainSpec::new("d", 50).filtered(0.5),
            ]),
            star_block(
                ChainSpec::new("fact", 200_000),
                &[
                    ChainSpec::new("d1", 1_000).filtered(0.05),
                    ChainSpec::new("d2", 1_000).filtered(0.1),
                    ChainSpec::new("d3", 100),
                ],
            ),
        ];
        for (i, fx) in fixtures.iter().enumerate() {
            for mode in [BloomMode::None, BloomMode::Cbo] {
                for dop in [1, 4] {
                    let mut config = OptimizerConfig::with_mode(mode).dop(dop);
                    config.bf_min_apply_rows = 100.0;
                    let (_, s) = optimize_fixture(fx, &config);
                    // A DP that built every alternative before testing it
                    // would read `built == generated`.
                    assert!(
                        s.kept <= s.built && s.built < s.generated,
                        "fixture {i} {mode:?} dop {dop}: {s:?}"
                    );
                }
            }
        }
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
