//! Second bottom-up phase: the costed DP over enlarged plan lists
//! (paper §3.6).
//!
//! Ordinary Selinger-style dynamic programming — one join method per split
//! (a hash join when an equi clause connects the sides, otherwise a nested
//! loop), all distribution (streaming) alternatives at dop ≥ 2 and only the
//! single stream at dop 1 — plus the Bloom filter legality rules:
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
//! its pass fraction. A join the list admits (`PlanList::admits`) is not
//! built either: it is recorded as a `JoinRecipe` in the block's
//! append-only `Arena`, and its sub-plan names it by index
//! ([`PlanRef::Join`]). Most recorded joins are evicted later; once the DP
//! ends, `materialize` builds the winner's tree, and only that one, from
//! its recipes.

use std::collections::HashMap;
use std::sync::Arc;

use bfq_common::{BfqError, ColumnId, FilterId, RelSet, Result};
use bfq_cost::{Cost, CostModel, Estimator};
use bfq_expr::Expr;
use bfq_plan::{
    BloomBuild, Distribution, ExchangeKind, JoinKind, PhysicalNode, PhysicalPlan, QueryBlock,
};

use crate::enumerate::{JoinGraph, JoinSpace, Split};
use crate::subplan::{DistId, DistInterner, PendingBf, PlanList, PlanRef, SubPlan};
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
    /// Generated sub-plans a plan list admitted, each recorded as a join
    /// recipe; the rest were rejected on cost, rows and properties. Only
    /// the winner's recipes are ever built into plan nodes.
    /// `kept ≤ built ≤ generated`.
    pub built: usize,
    /// Sub-plans surviving in plan lists at the end.
    pub kept: usize,
    /// Bloom-filter sub-plans Heuristic 7 dropped, from the relations'
    /// initial plan lists and from each joined set's list.
    pub h7_pruned: usize,
}

/// A data movement on one join input.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Replicate to every worker (paper's `BC`).
    Broadcast,
    /// Hash-repartition on the side's join keys (paper's `RD`).
    Repartition,
}

/// One distribution alternative for a join. It runs on a single stream
/// when its output is `Single`, and every worker builds the whole inner
/// side when that side is broadcast to the workers.
struct DistOpt {
    outer_ex: Option<Move>,
    inner_ex: Option<Move>,
    out_dist: DistId,
}

/// What every sub-plan pair of one split shares, computed once per split.
struct SplitCtx {
    split: Split,
    /// Oriented equi keys, `okeys[i] = ikeys[i]`; empty when no equi clause
    /// connects the sides.
    okeys: Vec<ColumnId>,
    ikeys: Vec<ColumnId>,
    /// `Hash(okeys)` and `Hash(ikeys)`, interned: a side already
    /// partitioned like this needs no repartition.
    outer_hash: DistId,
    inner_hash: DistId,
    /// Complex predicates that become evaluable exactly at this join.
    extra: Option<Expr>,
    /// `join_card(outer ∪ inner)`.
    join_card: f64,
}

impl SplitCtx {
    fn new(
        block: &QueryBlock,
        graph: &JoinGraph,
        dists: &mut DistInterner,
        split: Split,
        join_card: f64,
    ) -> Self {
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
                .zip(graph.pred_rels())
                .filter(|(_, &rels)| {
                    rels.is_subset_of(all)
                        && !rels.is_subset_of(split.outer)
                        && !rels.is_subset_of(split.inner)
                })
                .map(|(p, _)| p.clone())
                .collect(),
        );
        SplitCtx {
            split,
            outer_hash: dists.hash(&okeys),
            inner_hash: dists.hash(&ikeys),
            okeys,
            ikeys,
            extra,
            join_card,
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
    /// On one stream every side is that stream, and an exchange would move
    /// nothing: the move-free single-stream join is the only alternative.
    fn dist_opts(
        &self,
        model: &CostModel,
        outer: &SubPlan,
        inner: &SubPlan,
    ) -> impl Iterator<Item = DistOpt> {
        let (hash, parallel) = (self.is_hash(), !model.single_stream());
        let single =
            (outer.dist == DistId::SINGLE && inner.dist == DistId::SINGLE).then_some(DistOpt {
                outer_ex: None,
                inner_ex: None,
                out_dist: DistId::SINGLE,
            });
        // Repartition both sides on the join keys (skipping sides already
        // partitioned exactly right — the paper's partition-aligned case).
        let repartition = (parallel && hash).then(|| DistOpt {
            outer_ex: (outer.dist != self.outer_hash).then_some(Move::Repartition),
            inner_ex: (inner.dist != self.inner_hash).then_some(Move::Repartition),
            out_dist: self.outer_hash,
        });
        // Broadcast the build side (paper §3.9 case 1).
        let broadcast_build = (parallel && outer.dist != DistId::REPLICATED).then_some(DistOpt {
            outer_ex: None,
            inner_ex: Some(Move::Broadcast),
            out_dist: outer.dist,
        });
        // Broadcast the probe side (paper §3.9 case 2) — inner hash joins
        // only: duplicated probe rows would corrupt semi/anti/outer
        // semantics.
        let broadcast_probe = (parallel
            && hash
            && self.split.kind == JoinKind::Inner
            && (inner.dist == DistId::ANY_PARTITIONED || inner.dist.is_hash()))
        .then_some(DistOpt {
            outer_ex: Some(Move::Broadcast),
            inner_ex: None,
            out_dist: DistId::ANY_PARTITIONED,
        });
        [single, repartition, broadcast_build, broadcast_probe]
            .into_iter()
            .flatten()
    }
}

/// An admitted join alternative, recorded instead of built: what
/// [`build_join`] needs to make its plan node should it end up in the
/// winning tree.
struct JoinRecipe {
    /// The split's context, an index into [`Arena::ctxs`].
    ctx: usize,
    outer: PlanRef,
    inner: PlanRef,
    outer_ex: Option<Move>,
    inner_ex: Option<Move>,
    /// Estimated output rows.
    rows: f64,
    /// Output distribution.
    dist: DistId,
    /// `(filter, build column, δ)` of each outer-side filter resolving at
    /// this join.
    builds: Vec<(FilterId, ColumnId, RelSet)>,
}

/// One block's recorded joins, append-only: a [`PlanRef::Join`] indexes
/// `joins`, and each recipe its split's context in `ctxs`. `dists` interns
/// the block's distributions.
#[derive(Default)]
struct Arena {
    ctxs: Vec<SplitCtx>,
    joins: Vec<JoinRecipe>,
    dists: DistInterner,
}

/// Run the costed bottom-up DP over the block's join space
/// ([`crate::enumerate::join_space`]). `initial` holds the per-relation
/// plan lists from [`crate::costing::initial_plan_lists`]. Returns the tree
/// of the cheapest sub-plan of the whole relation set with no pending
/// filter, and its cost.
pub fn run_dp(
    block: &QueryBlock,
    est: &Estimator<'_>,
    model: &CostModel,
    config: &OptimizerConfig,
    space: &JoinSpace,
    initial: Vec<PlanList>,
) -> Result<(Arc<PhysicalPlan>, Cost, Phase2Stats)> {
    let (arena, best, stats) = search(block, est, model, config, space, initial)?;
    Ok((materialize(est, &arena, &best.plan), best.cost, stats))
}

/// The DP itself: the recorded joins and the winning sub-plan, unbuilt.
fn search(
    block: &QueryBlock,
    est: &Estimator<'_>,
    model: &CostModel,
    config: &OptimizerConfig,
    space: &JoinSpace,
    initial: Vec<PlanList>,
) -> Result<(Arena, SubPlan, Phase2Stats)> {
    let n = block.num_rels();
    let mut stats = Phase2Stats::default();
    let mut arena = Arena::default();
    let mut lists: HashMap<u64, PlanList> = HashMap::new();
    for (rel, mut list) in initial.into_iter().enumerate() {
        heuristic7(config, &mut list, &mut stats);
        lists.insert(RelSet::single(rel).0, list);
    }

    // The filters pending above the join being costed, reused across pairs.
    let mut remaining = Vec::new();
    for entry in &space.sets {
        let set = entry.set;
        stats.sets += 1;
        let join_card = est.join_card(set);
        let mut list = PlanList::new();
        for &split in &entry.splits {
            let (Some(outer_list), Some(inner_list)) =
                (lists.get(&split.outer.0), lists.get(&split.inner.0))
            else {
                continue;
            };
            let ctx = arena.ctxs.len();
            let split_ctx = SplitCtx::new(block, &space.graph, &mut arena.dists, split, join_card);
            arena.ctxs.push(split_ctx);
            let recorded = arena.joins.len();
            for outer_sp in outer_list.plans() {
                for inner_sp in inner_list.plans() {
                    stats.pairs += 1;
                    try_join(
                        model,
                        &mut arena,
                        ctx,
                        outer_sp,
                        inner_sp,
                        &mut remaining,
                        &mut list,
                        &mut stats,
                    );
                }
            }
            // A context no recipe refers to would only hold memory until
            // the block ends.
            if arena.joins.len() == recorded {
                arena.ctxs.pop();
            }
        }
        heuristic7(config, &mut list, &mut stats);
        stats.kept += list.len();
        lists.insert(set.0, list);
    }

    let full = RelSet::all(n);
    let best = lists
        .get(&full.0)
        .and_then(|l| l.best_resolved())
        .cloned()
        .ok_or_else(|| BfqError::Plan("no complete plan found for query block".into()))?;
    Ok((arena, best, stats))
}

/// Heuristic 7, when enabled, on a complete plan list: a relation's list
/// as costing seeded it, or a joined set's once every split is costed.
fn heuristic7(config: &OptimizerConfig, list: &mut PlanList, stats: &mut Phase2Stats) {
    if config.h7_enabled {
        stats.h7_pruned += list.apply_heuristic7(config.h7_max_subplans);
    }
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

/// Cost every distribution alternative of `outer_sp ⋈ inner_sp` across the
/// split of `arena.ctxs[ctx]`, and record a recipe for each one `list`
/// admits.
#[allow(clippy::too_many_arguments)]
fn try_join(
    model: &CostModel,
    arena: &mut Arena,
    ctx_id: usize,
    outer_sp: &SubPlan,
    inner_sp: &SubPlan,
    remaining: &mut Vec<PendingBf>,
    list: &mut PlanList,
    stats: &mut Phase2Stats,
) {
    let ctx = &arena.ctxs[ctx_id];
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
    let rows_out = remaining
        .iter()
        .fold(ctx.join_card, |rows, p| rows * p.pass)
        .max(1.0);

    for opt in ctx.dist_opts(model, outer_sp, inner_sp) {
        let single_stream = opt.out_dist == DistId::SINGLE;
        let join_cost = if ctx.is_hash() {
            let build_replicated = matches!(opt.inner_ex, Some(Move::Broadcast)) && !single_stream;
            model.hash_join(
                inner_sp.rows,
                outer_sp.rows,
                rows_out,
                resolving,
                build_replicated,
                single_stream,
            )
        } else {
            model.nestloop_join(outer_sp.rows, inner_sp.rows, rows_out, single_stream)
        };
        let cost = outer_sp
            .cost
            .plus(inner_sp.cost)
            .plus(exchange_cost(model, opt.outer_ex, outer_sp.rows))
            .plus(exchange_cost(model, opt.inner_ex, inner_sp.rows))
            .plus(join_cost);
        stats.generated += 1;
        if !list.admits(opt.out_dist, cost.total, rows_out, remaining) {
            continue;
        }
        stats.built += 1;
        let id = arena.joins.len();
        arena.joins.push(JoinRecipe {
            ctx: ctx_id,
            outer: outer_sp.plan.clone(),
            inner: inner_sp.plan.clone(),
            outer_ex: opt.outer_ex,
            inner_ex: opt.inner_ex,
            rows: rows_out,
            dist: opt.out_dist,
            builds: outer_sp
                .pending
                .iter()
                .filter(|p| p.bf.delta.overlaps(ctx.split.inner))
                .map(|p| (p.id, p.bf.build_col, p.bf.delta))
                .collect(),
        });
        list.insert(SubPlan {
            plan: PlanRef::Join(id),
            rows: rows_out,
            cost,
            dist: opt.out_dist,
            pending: remaining.clone(),
        });
    }
}

/// The tree `node` names: a leaf as it is, a join built from its recipe
/// over its children's trees. Each recipe of the tree is built once.
fn materialize(est: &Estimator<'_>, arena: &Arena, node: &PlanRef) -> Arc<PhysicalPlan> {
    let id = match node {
        PlanRef::Leaf(plan) => return plan.clone(),
        PlanRef::Join(id) => *id,
    };
    let recipe = &arena.joins[id];
    let outer = materialize(est, arena, &recipe.outer);
    let inner = materialize(est, arena, &recipe.inner);
    let dist = arena.dists.resolve(recipe.dist);
    build_join(est, &arena.ctxs[recipe.ctx], recipe, dist, outer, inner)
}

/// `input`, behind the exchange `ex` when there is one.
fn wrap_exchange(
    input: Arc<PhysicalPlan>,
    ex: Option<Move>,
    keys: &[ColumnId],
) -> Arc<PhysicalPlan> {
    let (kind, dist) = match ex {
        None => return input,
        Some(Move::Broadcast) => (ExchangeKind::Broadcast, Distribution::Replicated),
        Some(Move::Repartition) => (
            ExchangeKind::Repartition(keys.to_vec()),
            Distribution::Hash(keys.to_vec()),
        ),
    };
    let (layout, rows) = (input.layout.clone(), input.est_rows);
    PhysicalPlan::new(PhysicalNode::Exchange { input, kind }, layout, rows, dist)
}

/// The plan node of a recorded join, whose output distribution is `dist`,
/// over its built children.
fn build_join(
    est: &Estimator<'_>,
    ctx: &SplitCtx,
    recipe: &JoinRecipe,
    dist: Distribution,
    outer: Arc<PhysicalPlan>,
    inner: Arc<PhysicalPlan>,
) -> Arc<PhysicalPlan> {
    let kind = ctx.split.kind;
    let layout = if kind.emits_inner_columns() {
        outer.layout.concat(&inner.layout)
    } else {
        outer.layout.clone()
    };
    let outer = wrap_exchange(outer, recipe.outer_ex, &ctx.okeys);
    let inner = wrap_exchange(inner, recipe.inner_ex, &ctx.ikeys);
    let node = if ctx.is_hash() {
        let builds = recipe
            .builds
            .iter()
            .map(|&(filter, column, delta)| BloomBuild {
                filter,
                column,
                expected_ndv: est.effective_build_ndv(column, delta),
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
    PhysicalPlan::new(node, layout, recipe.rows, dist)
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
    use bfq_plan::RelKind;

    /// Run the DP over `fx`: the recorded joins, the winning sub-plan and
    /// the statistics.
    fn search_fixture(fx: &Fixture, config: &OptimizerConfig) -> (Arena, SubPlan, Phase2Stats) {
        let est = fx.estimator();
        let model = CostModel::new(config.dop);
        let space = join_space(&fx.block);
        let initial = initial_lists(fx, config);
        search(&fx.block, &est, &model, config, &space, initial).unwrap()
    }

    /// The relations' plan lists as costing seeds them for `search`.
    fn initial_lists(fx: &Fixture, config: &OptimizerConfig) -> Vec<PlanList> {
        let est = fx.estimator();
        let mut cands = if config.bloom_mode == BloomMode::Cbo {
            mark_candidates(&fx.block, &est, config)
        } else {
            vec![]
        };
        collect_deltas(&est, &join_space(&fx.block), &mut cands, config);
        let required = required_cols_per_rel(&fx.block, &[]);
        let mut next_filter = 0;
        initial_plan_lists(
            &fx.block,
            &est,
            &CostModel::new(config.dop),
            config,
            &cands,
            &required,
            &HashMap::new(),
            &mut next_filter,
        )
        .unwrap()
    }

    /// The winner's tree, its cost, and the statistics.
    fn optimize_fixture(
        fx: &Fixture,
        config: &OptimizerConfig,
    ) -> (Arc<PhysicalPlan>, Cost, Phase2Stats) {
        let (arena, best, stats) = search_fixture(fx, config);
        let plan = materialize(&fx.estimator(), &arena, &best.plan);
        (plan, best.cost, stats)
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

    /// The filter ids the tree's scans apply and its joins build, each
    /// sorted.
    fn filter_ids(plan: &Arc<PhysicalPlan>) -> (Vec<FilterId>, Vec<FilterId>) {
        let mut applied = Vec::new();
        let mut built = Vec::new();
        plan.visit(&mut |p| match &p.node {
            PhysicalNode::Scan { blooms, .. } | PhysicalNode::DerivedScan { blooms, .. } => {
                applied.extend(blooms.iter().map(|b| b.filter))
            }
            PhysicalNode::HashJoin { builds, .. } => built.extend(builds.iter().map(|b| b.filter)),
            _ => {}
        });
        applied.sort();
        built.sort();
        (applied, built)
    }

    /// The fixtures the DP tests sweep: a chain, a star, the running
    /// example, a semi-joined tail, and joins a complex predicate decides.
    fn fixtures() -> Vec<Fixture> {
        let mut semi = chain_block(&[
            ChainSpec::new("a", 20_000),
            ChainSpec::new("b", 2_000).filtered(0.3),
            ChainSpec::new("c", 200).filtered(0.5),
        ]);
        semi.block.rels[2].kind = RelKind::Semi;
        // `b` reaches `c` only through a non-equi predicate, and `a` and
        // `c` share one more: a nested loop and a hash join with an extra
        // predicate.
        let mut complex = chain_block(&[
            ChainSpec::new("a", 10_000),
            ChainSpec::new("b", 1_000).filtered(0.2),
            ChainSpec::new("c", 100),
        ]);
        let clause = complex.block.equi_clauses.pop().unwrap();
        let lt = |l, r| Expr::binary(bfq_expr::BinOp::Lt, Expr::col(l), Expr::col(r));
        complex
            .block
            .complex_preds
            .push(lt(clause.left, clause.right));
        let (a_val, c_val) = (complex.col(0, 2), complex.col(2, 2));
        complex.block.complex_preds.push(lt(a_val, c_val));
        vec![
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
            semi,
            complex,
        ]
    }

    #[test]
    fn plain_dp_produces_complete_plan() {
        let fx = chain_block(&[
            ChainSpec::new("a", 10_000),
            ChainSpec::new("b", 1_000).filtered(0.2),
            ChainSpec::new("c", 100),
        ]);
        let config = OptimizerConfig::with_mode(BloomMode::None);
        let (best, _, stats) = optimize_fixture(&fx, &config);
        assert_eq!(filter_ids(&best), (vec![], vec![]));
        assert!(stats.pairs > 0);
        // Plan contains exactly two joins over three scans.
        let joins = count_nodes(&best, |n| {
            matches!(
                n,
                PhysicalNode::HashJoin { .. } | PhysicalNode::NestLoopJoin { .. }
            )
        });
        assert_eq!(joins, 2);
        let scans = count_nodes(&best, |n| matches!(n, PhysicalNode::Scan { .. }));
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
                let (best, _, _) = optimize_fixture(&fx, &config);
                let shown = best.explain(&|c| format!("{c}"));
                assert_eq!(count_nodes(&best, is_hash), 1, "dop {dop}:\n{shown}");
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
        let (best, _, _) = optimize_fixture(&fx, &config);
        assert_eq!(count_nodes(&best, is_nestloop), 1);
        assert_eq!(count_nodes(&best, is_hash), 0);
    }

    #[test]
    fn bf_cbo_resolves_all_filters_in_final_plan() {
        let fx = running_example(1.0);
        let mut config = OptimizerConfig::with_mode(BloomMode::Cbo);
        config.bf_min_apply_rows = 100.0;
        let (arena, best, _) = search_fixture(&fx, &config);
        assert!(best.pending.is_empty(), "root must have no pending filters");
        // If a scan applies filter N, some hash join must build filter N.
        let (applied, built) = filter_ids(&materialize(&fx.estimator(), &arena, &best.plan));
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
        let (best_cbo, cost_cbo, _) = optimize_fixture(&fx, &cbo);
        let (best_plain, cost_plain, _) = optimize_fixture(&fx, &plain);
        assert!(
            cost_cbo.total <= cost_plain.total * (1.0 + 1e-9),
            "BF-CBO {} vs plain {}",
            cost_cbo.total,
            cost_plain.total
        );
        // And its estimate of output rows should not be larger.
        assert!(best_cbo.est_rows <= best_plain.est_rows * 1.01);
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
        let (best, _, _) = optimize_fixture(&fx, &config);
        let applies = count_nodes(
            &best,
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
        let (_, _, s_cbo) = optimize_fixture(&fx, &cbo);
        let (_, _, s_plain) = optimize_fixture(&fx, &plain);
        assert!(
            s_cbo.pairs >= s_plain.pairs,
            "BF-CBO must search at least as much: {} vs {}",
            s_cbo.pairs,
            s_plain.pairs
        );
    }

    #[test]
    fn only_admitted_subplans_are_built() {
        for (i, fx) in fixtures().iter().enumerate() {
            for mode in [BloomMode::None, BloomMode::Cbo] {
                for dop in [1, 4] {
                    let mut config = OptimizerConfig::with_mode(mode).dop(dop);
                    config.bf_min_apply_rows = 100.0;
                    let (arena, _, s) = search_fixture(fx, &config);
                    // A DP that recorded every alternative before testing
                    // it would read `built == generated`.
                    assert!(
                        s.kept <= s.built && s.built < s.generated,
                        "fixture {i} {mode:?} dop {dop}: {s:?}"
                    );
                    assert_eq!(arena.joins.len(), s.built);
                    // Every kept context is some recipe's.
                    let mut used: Vec<usize> = arena.joins.iter().map(|j| j.ctx).collect();
                    used.dedup();
                    assert_eq!(used, (0..arena.ctxs.len()).collect::<Vec<_>>());
                }
            }
        }
    }

    /// Check the wiring of one materialized node and its subtree; returns
    /// how many joins the subtree holds.
    fn check_wiring(plan: &Arc<PhysicalPlan>, at: &str) -> usize {
        let mut joins = 0;
        match &plan.node {
            PhysicalNode::Exchange { input, .. } => {
                assert_eq!(plan.est_rows, input.est_rows, "{at}: exchange rows");
                assert_eq!(plan.layout, input.layout, "{at}: exchange layout");
            }
            PhysicalNode::HashJoin {
                outer, inner, kind, ..
            }
            | PhysicalNode::NestLoopJoin {
                outer, inner, kind, ..
            } => {
                joins += 1;
                let expected = if kind.emits_inner_columns() {
                    outer.layout.concat(&inner.layout)
                } else {
                    outer.layout.clone()
                };
                assert_eq!(plan.layout, expected, "{at}: {kind:?} join layout");
            }
            _ => {}
        }
        joins
            + plan
                .children()
                .into_iter()
                .map(|c| check_wiring(c, at))
                .sum::<usize>()
    }

    #[test]
    fn the_winner_is_materialized_as_its_recipes_describe() {
        // Nested loops, non-inner joins, exchanges and Bloom builds seen.
        let mut seen = [0; 4];
        for (i, fx) in fixtures().iter().enumerate() {
            for mode in [BloomMode::None, BloomMode::Cbo] {
                for dop in [1, 4] {
                    let at = format!("fixture {i} {mode:?} dop {dop}");
                    let mut config = OptimizerConfig::with_mode(mode).dop(dop);
                    config.bf_min_apply_rows = 100.0;
                    let (arena, best, _) = search_fixture(fx, &config);
                    let plan = materialize(&fx.estimator(), &arena, &best.plan);
                    assert_eq!(plan.est_rows, best.rows, "{at}: root rows");
                    let dist = arena.dists.resolve(best.dist);
                    assert_eq!(plan.distribution, dist, "{at}: root distribution");
                    // One join per relation joined, so each recipe of the
                    // winner was built exactly once.
                    let joins = check_wiring(&plan, &at);
                    assert_eq!(joins, fx.block.num_rels() - 1, "{at}");
                    // Each filter is built by one join and applied by one
                    // scan.
                    let (applied, built) = filter_ids(&plan);
                    assert_eq!(applied, built, "{at}: filters");
                    let mut distinct = built.clone();
                    distinct.dedup();
                    assert_eq!(distinct, built, "{at}: a filter built twice");
                    if mode == BloomMode::None {
                        assert!(built.is_empty(), "{at}");
                    }
                    seen[0] +=
                        count_nodes(&plan, |n| matches!(n, PhysicalNode::NestLoopJoin { .. }));
                    seen[1] += count_nodes(
                        &plan,
                        |n| matches!(n, PhysicalNode::HashJoin { kind, .. } if !kind.emits_inner_columns()),
                    );
                    seen[2] += count_nodes(&plan, |n| matches!(n, PhysicalNode::Exchange { .. }));
                    seen[3] += built.len();
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }

    #[test]
    fn heuristic7_caps_every_plan_list_and_counts_what_it_drops() {
        // Each relation of a filtered chain can take its filter from any
        // prefix of the chain beyond it: several δ's, several sub-plans.
        let fx = chain_block(&[
            ChainSpec::new("a", 50_000),
            ChainSpec::new("b", 5_000).filtered(0.2),
            ChainSpec::new("c", 500).filtered(0.3),
            ChainSpec::new("d", 50).filtered(0.5),
        ]);
        let mut config = OptimizerConfig::with_mode(BloomMode::Cbo);
        config.bf_min_apply_rows = 100.0;
        config.h7_enabled = false;
        let (_, _, off) = search_fixture(&fx, &config);
        assert_eq!(off.h7_pruned, 0);
        // A cap of 0 bites wherever two Bloom sub-plans meet in one list.
        config.h7_enabled = true;
        config.h7_max_subplans = 0;
        let (arena, best, capped) = search_fixture(&fx, &config);
        assert!(capped.kept < off.kept, "{capped:?} vs {off:?}");
        let (applied, built) = filter_ids(&materialize(&fx.estimator(), &arena, &best.plan));
        assert_eq!(applied, built);
        // Capped by hand first, the seeded lists lose nothing more: the
        // count is what the seeded lists lost plus what the joined sets did.
        let mut seeded = 0;
        let mut precapped = initial_lists(&fx, &config);
        for list in &mut precapped {
            seeded += list.apply_heuristic7(0);
        }
        assert!(seeded > 0, "no relation seeded two Bloom sub-plans");
        let est = fx.estimator();
        let model = CostModel::new(config.dop);
        let space = join_space(&fx.block);
        let (_, _, joined) = search(&fx.block, &est, &model, &config, &space, precapped).unwrap();
        assert_eq!(capped.h7_pruned, seeded + joined.h7_pruned, "{capped:?}");
        assert!(joined.h7_pruned > 0, "{joined:?}");
    }

    #[test]
    fn dop_1_offers_one_move_free_option_per_split() {
        let side = |dist| SubPlan {
            plan: PlanRef::Join(0),
            rows: 1_000.0,
            cost: Cost::ZERO,
            dist,
            pending: vec![],
        };
        for (i, fx) in fixtures().iter().enumerate() {
            for mode in [BloomMode::None, BloomMode::Cbo] {
                let mut config = OptimizerConfig::with_mode(mode).dop(1);
                config.bf_min_apply_rows = 100.0;
                // Costing seeds every relation as the one stream ...
                for list in initial_lists(fx, &config) {
                    assert!(list.plans().iter().all(|sp| sp.dist == DistId::SINGLE));
                }
                // ... so every split offers the single-stream join alone,
                // where dop 2 offers more for every equi-join.
                let space = join_space(&fx.block);
                let mut dists = DistInterner::default();
                let single = side(DistId::SINGLE);
                let partitioned = side(DistId::ANY_PARTITIONED);
                for split in space.sets.iter().flat_map(|e| e.splits.iter().copied()) {
                    let ctx = SplitCtx::new(&fx.block, &space.graph, &mut dists, split, 1.0);
                    let opts: Vec<DistOpt> = ctx
                        .dist_opts(&CostModel::new(1), &single, &single)
                        .collect();
                    assert_eq!(opts.len(), 1, "fixture {i}: {split:?}");
                    assert!(opts[0].outer_ex.is_none() && opts[0].inner_ex.is_none());
                    assert_eq!(opts[0].out_dist, DistId::SINGLE);
                    let parallel = ctx
                        .dist_opts(&CostModel::new(2), &partitioned, &partitioned)
                        .count();
                    assert!(parallel >= 2 || !ctx.is_hash(), "fixture {i}: {split:?}");
                }
                // The DP records no exchange and costs one alternative per
                // legal pair.
                let (arena, _, stats) = search_fixture(fx, &config);
                assert!(arena
                    .joins
                    .iter()
                    .all(|j| j.outer_ex.is_none() && j.inner_ex.is_none()));
                assert!(stats.generated <= stats.pairs, "fixture {i}: {stats:?}");
            }
        }
    }

    #[test]
    fn exchanges_present_in_parallel_plans() {
        let fx = chain_block(&[ChainSpec::new("a", 100_000), ChainSpec::new("b", 50_000)]);
        let config = OptimizerConfig::with_mode(BloomMode::None).dop(8);
        let (best, _, _) = optimize_fixture(&fx, &config);
        let exchanges = count_nodes(&best, |n| matches!(n, PhysicalNode::Exchange { .. }));
        assert!(
            exchanges >= 1,
            "parallel join should use RD or BC:\n{}",
            best.explain(&|c| format!("{c}"))
        );
    }
}
