//! The optimizer driver: runs the BF-CBO pipeline over a query block, and
//! plans full logical trees (blocks + aggregation/projection/sort/limit and
//! derived relations).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bfq_catalog::Catalog;
use bfq_common::{BfqError, ColumnId, Datum, Result};
use bfq_cost::{Cost, CostModel, Estimator};
use bfq_expr::{estimate_selectivity, Expr, Layout};
use bfq_plan::{
    Bindings, Distribution, ExchangeKind, LogicalPlan, PhysicalNode, PhysicalPlan, QueryBlock,
    RelSource,
};

use crate::candidates::mark_candidates;
use crate::costing::{initial_plan_lists, required_cols_per_rel, DerivedPlans};
use crate::enumerate::{join_space, MAX_BLOCK_RELS};
use crate::naive::{naive_optimize, NaiveStats};
use crate::phase1::{collect_deltas, Phase1Stats};
use crate::phase2::{run_dp, Phase2Stats};
use crate::post::add_post_filters;
use crate::subplan::SubPlan;
use crate::{BloomMode, OptimizerConfig};

/// Aggregated optimizer telemetry (per query; block stats summed).
#[derive(Debug, Clone, Default)]
pub struct OptimizerStats {
    /// Total planning wall-clock milliseconds.
    pub planning_ms: f64,
    /// Number of query blocks optimized.
    pub blocks: usize,
    /// Bloom filter candidates marked.
    pub candidates: usize,
    /// Phase-1 telemetry (summed over blocks).
    pub phase1: Phase1Stats,
    /// Phase-2 telemetry (summed over blocks).
    pub phase2: Phase2Stats,
    /// Filters placed by cost-based optimization.
    pub cbo_filters: usize,
    /// Filters added by the post-processing pass.
    pub post_filters: usize,
    /// Always 0: kept only because `bench/e2e` reads it.
    #[doc(hidden)]
    pub programs: usize,
    /// Naïve-mode telemetry, when [`BloomMode::Naive`] ran.
    pub naive: Option<NaiveStats>,
}

impl OptimizerStats {
    fn merge_block(&mut self, other: BlockStats) {
        self.blocks += 1;
        self.candidates += other.candidates;
        self.phase1.sets_visited += other.phase1.sets_visited;
        self.phase1.pairs_visited += other.phase1.pairs_visited;
        self.phase1.total_join_input += other.phase1.total_join_input;
        self.phase1.max_join_input = self.phase1.max_join_input.max(other.phase1.max_join_input);
        self.phase1.deltas_recorded += other.phase1.deltas_recorded;
        self.phase1.deltas_pruned_lossless += other.phase1.deltas_pruned_lossless;
        self.phase2.sets += other.phase2.sets;
        self.phase2.pairs += other.phase2.pairs;
        self.phase2.generated += other.phase2.generated;
        self.phase2.built += other.phase2.built;
        self.phase2.kept += other.phase2.kept;
        self.cbo_filters += other.cbo_filters;
        self.post_filters += other.post_filters;
        if other.naive.is_some() {
            self.naive = other.naive;
        }
    }
}

/// Per-block telemetry.
#[derive(Debug, Clone, Default)]
struct BlockStats {
    candidates: usize,
    phase1: Phase1Stats,
    phase2: Phase2Stats,
    cbo_filters: usize,
    post_filters: usize,
    naive: Option<NaiveStats>,
}

/// A fully optimized query.
#[derive(Debug, Clone)]
pub struct OptimizedQuery {
    /// Executable physical plan with node ids assigned.
    pub plan: Arc<PhysicalPlan>,
    /// Telemetry.
    pub stats: OptimizerStats,
}

/// Optimize a single query block (the paper's unit of optimization).
///
/// `required` lists the virtual columns the block must output; `derived`
/// maps relation ordinals to pre-planned derived sub-plans.
pub fn optimize_block(
    block: &QueryBlock,
    bindings: &Bindings,
    catalog: &Catalog,
    required: &[ColumnId],
    derived: &DerivedPlans,
    config: &OptimizerConfig,
    next_filter: &mut u32,
) -> Result<(SubPlan, OptimizerStats)> {
    let start = Instant::now();
    let (sub, bstats) = optimize_block_inner(
        block,
        bindings,
        catalog,
        required,
        derived,
        config,
        next_filter,
    )?;
    let mut stats = OptimizerStats::default();
    stats.merge_block(bstats);
    stats.planning_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok((sub, stats))
}

fn optimize_block_inner(
    block: &QueryBlock,
    bindings: &Bindings,
    catalog: &Catalog,
    required: &[ColumnId],
    derived: &DerivedPlans,
    config: &OptimizerConfig,
    next_filter: &mut u32,
) -> Result<(SubPlan, BlockStats)> {
    if block.num_rels() > MAX_BLOCK_RELS {
        return Err(BfqError::Plan(format!(
            "a query block joins {} relations; the optimizer enumerates at most {MAX_BLOCK_RELS}",
            block.num_rels()
        )));
    }
    let est = Estimator::with_index_mode(block, bindings, catalog, config.index_mode);
    let model = CostModel {
        params: config.cost.clone(),
        dop: config.dop,
    };
    let mut bstats = BlockStats::default();

    // §3.3: mark candidates (BF-CBO and the naïve strawman only — BF-Post
    // sees them during its own pass).
    let mut cands = match config.bloom_mode {
        BloomMode::Cbo | BloomMode::Naive => mark_candidates(block, &est, config),
        BloomMode::None | BloomMode::Post => Vec::new(),
    };
    bstats.candidates = cands.len();

    if config.bloom_mode == BloomMode::Naive {
        bstats.naive = Some(naive_optimize(
            block,
            &est,
            &cands,
            config,
            Duration::from_millis(config.naive_time_limit_ms),
        ));
        // The naïve mode is a measurement device; fall back to plain
        // planning for the executable plan.
        cands.clear();
    }

    // Both bottom-up passes walk the same connected sets and splits.
    let space = join_space(block);

    // §3.4: first bottom-up pass — Δ collection.
    if !cands.is_empty() {
        bstats.phase1 = collect_deltas(&est, &space, &mut cands, config);
        // Heuristic 8: small queries skip Bloom planning entirely.
        if config.h8_enabled && bstats.phase1.total_join_input < config.h8_min_join_input {
            cands.clear();
        }
    }

    // §3.5: costed Bloom filter scan sub-plans.
    let required_per_rel = required_cols_per_rel(block, required);
    let initial = initial_plan_lists(
        block,
        &est,
        &model,
        config,
        &cands,
        &required_per_rel,
        derived,
        next_filter,
    )?;

    // §3.6: second bottom-up pass.
    let (mut best, p2) = run_dp(block, &est, &model, config, &space, initial)?;
    bstats.phase2 = p2;
    best.plan.visit(&mut |p| {
        if let PhysicalNode::HashJoin { builds, .. } = &p.node {
            bstats.cbo_filters += builds.len();
        }
    });

    // §3.7: retained post-processing pass (BF-Post baseline, and the final
    // sweep after BF-CBO).
    if matches!(config.bloom_mode, BloomMode::Post | BloomMode::Cbo) {
        let (plan, added) = add_post_filters(&best.plan, block, &est, config, next_filter);
        best.plan = plan;
        bstats.post_filters = added;
    }
    Ok((best, bstats))
}

/// Optimize a full logical plan tree.
pub fn optimize(
    logical: &LogicalPlan,
    bindings: &mut Bindings,
    catalog: &Catalog,
    config: &OptimizerConfig,
) -> Result<OptimizedQuery> {
    let start = Instant::now();
    let mut planner = Planner {
        catalog,
        config,
        bindings,
        stats: OptimizerStats::default(),
        next_filter: 0,
    };
    let (plan, _cost) = planner.plan_node(logical, &[])?;
    let mut next_id = 1;
    let plan = plan.with_ids(&mut next_id);
    let mut stats = planner.stats;
    stats.planning_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(OptimizedQuery { plan, stats })
}

struct Planner<'a> {
    catalog: &'a Catalog,
    config: &'a OptimizerConfig,
    bindings: &'a mut Bindings,
    stats: OptimizerStats,
    next_filter: u32,
}

impl Planner<'_> {
    fn model(&self) -> CostModel {
        CostModel {
            params: self.config.cost.clone(),
            dop: self.config.dop,
        }
    }

    fn plan_node(
        &mut self,
        lp: &LogicalPlan,
        needed: &[ColumnId],
    ) -> Result<(Arc<PhysicalPlan>, Cost)> {
        match lp {
            LogicalPlan::Block(block) => self.plan_block(block, needed),
            LogicalPlan::OneRow => Ok((
                PhysicalPlan::new(
                    PhysicalNode::OneRow,
                    Layout::new(vec![]),
                    1.0,
                    Distribution::Single,
                ),
                Cost::of(0.0),
            )),
            LogicalPlan::Project { input, exprs } => {
                let mut child_needed = Vec::new();
                for oc in exprs {
                    child_needed.extend(oc.expr.columns());
                }
                let (child, cost) = self.plan_node(input, &child_needed)?;
                let layout = Layout::new(exprs.iter().map(|e| e.id).collect());
                let rows = child.est_rows;
                let work = Cost::of(rows * self.config.cost.cpu_operator * exprs.len() as f64);
                let node = PhysicalPlan::new(
                    PhysicalNode::Project {
                        input: child,
                        exprs: exprs.clone(),
                    },
                    layout,
                    rows,
                    Distribution::Single,
                );
                Ok((node, cost.plus(work)))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                having,
            } => {
                let mut child_needed = Vec::new();
                for g in group_by {
                    child_needed.extend(g.expr.columns());
                }
                for a in aggs {
                    if let Some(arg) = &a.arg {
                        child_needed.extend(arg.columns());
                    }
                }
                let (child, cost) = self.plan_node(input, &child_needed)?;
                let in_rows = child.est_rows;
                let groups = self.estimate_groups(group_by, in_rows);
                let mut rows = groups;
                if let Some(h) = having {
                    rows *= estimate_selectivity(h, &*self.bindings);
                }
                let rows = rows.max(1.0);
                let mut layout_cols: Vec<ColumnId> = group_by.iter().map(|g| g.id).collect();
                layout_cols.extend(aggs.iter().map(|a| a.output));
                let work = self.model().agg(in_rows, groups);
                let node = PhysicalPlan::new(
                    PhysicalNode::HashAgg {
                        input: child,
                        group_by: group_by.clone(),
                        aggs: aggs.clone(),
                        having: having.clone(),
                        est_groups: groups,
                    },
                    Layout::new(layout_cols),
                    rows,
                    Distribution::Single,
                );
                Ok((node, cost.plus(work)))
            }
            LogicalPlan::Sort { input, keys } => {
                let mut child_needed = needed.to_vec();
                for k in keys {
                    child_needed.extend(k.expr.columns());
                }
                let (child, cost) = self.plan_node(input, &child_needed)?;
                let rows = child.est_rows;
                let work = self.model().sort(rows);
                let layout = child.layout.clone();
                let node = PhysicalPlan::new(
                    PhysicalNode::Sort {
                        input: child,
                        keys: keys.clone(),
                        limit: None,
                    },
                    layout,
                    rows,
                    Distribution::Single,
                );
                Ok((node, cost.plus(work)))
            }
            LogicalPlan::Limit { input, n } => {
                let (child, cost) = self.plan_node(input, needed)?;
                let rows = child.est_rows.min(*n as f64);
                let layout = child.layout.clone();
                // ORDER BY + LIMIT fuses into a Top-N sort: the sort
                // truncates while it sorts, so both executors can bound
                // sort memory by the limit instead of the input.
                if let PhysicalNode::Sort {
                    input: sort_input,
                    keys,
                    limit: None,
                } = &child.node
                {
                    let node = PhysicalPlan::new(
                        PhysicalNode::Sort {
                            input: sort_input.clone(),
                            keys: keys.clone(),
                            limit: Some(*n),
                        },
                        layout,
                        rows,
                        Distribution::Single,
                    );
                    return Ok((node, cost));
                }
                let node = PhysicalPlan::new(
                    PhysicalNode::Limit {
                        input: child,
                        n: *n,
                    },
                    layout,
                    rows,
                    Distribution::Single,
                );
                Ok((node, cost))
            }
            LogicalPlan::ScalarFilter {
                input,
                subquery,
                pred,
                placeholder,
            } => {
                let (sub, sub_cost) = self.plan_node(subquery, &[])?;
                let mut child_needed = needed.to_vec();
                child_needed.extend(pred.columns().into_iter().filter(|c| c != placeholder));
                let (child, cost) = self.plan_node(input, &child_needed)?;
                let rows = (child.est_rows / 3.0).max(1.0);
                let layout = child.layout.clone();
                let work = Cost::of(child.est_rows * self.config.cost.cpu_operator);
                let node = PhysicalPlan::new(
                    PhysicalNode::ScalarSubst {
                        input: child,
                        subquery: sub,
                        pred: pred.clone(),
                        placeholder: *placeholder,
                    },
                    layout,
                    rows,
                    Distribution::Single,
                );
                Ok((node, cost.plus(sub_cost).plus(work)))
            }
        }
    }

    fn plan_block(
        &mut self,
        block: &QueryBlock,
        needed: &[ColumnId],
    ) -> Result<(Arc<PhysicalPlan>, Cost)> {
        // Pre-plan derived relations and refresh their statistics so the
        // estimator sees realistic row counts.
        let mut derived = DerivedPlans::new();
        for rel in &block.rels {
            if let RelSource::Derived(lp) = &rel.source {
                let (dplan, dcost) = self.plan_node(lp, &[])?;
                let binding = self.bindings.get(rel.rel_id)?;
                let mut stats = binding.stats.clone();
                stats.rows = dplan.est_rows.max(1.0);
                for cs in &mut stats.columns {
                    cs.ndv = cs.ndv.min(stats.rows).max(1.0);
                }
                self.bindings.set_stats(rel.rel_id, stats)?;
                derived.insert(rel.ordinal, (dplan, dcost));
            }
        }
        let (mut best, bstats) = optimize_block_inner(
            block,
            self.bindings,
            self.catalog,
            needed,
            &derived,
            self.config,
            &mut self.next_filter,
        )?;
        self.stats.merge_block(bstats);
        // Blocks hand a single stream to the operators above.
        let mut cost = best.cost;
        if best.dist != Distribution::Single {
            cost = cost.plus(self.model().gather(best.rows));
            let layout = best.plan.layout.clone();
            let rows = best.rows;
            best.plan = PhysicalPlan::new(
                PhysicalNode::Exchange {
                    input: best.plan,
                    kind: ExchangeKind::Gather,
                },
                layout,
                rows,
                Distribution::Single,
            );
        }
        Ok((best.plan, cost))
    }

    fn estimate_groups(&self, group_by: &[bfq_plan::OutputColumn], in_rows: f64) -> f64 {
        if group_by.is_empty() {
            return 1.0;
        }
        let mut groups = 1.0f64;
        for g in group_by {
            let ndv = match &g.expr {
                Expr::Column(c) => self
                    .bindings
                    .column_stats(*c)
                    .map(|s| s.ndv)
                    .unwrap_or_else(|| in_rows.sqrt()),
                Expr::Literal(Datum::Null) => 1.0,
                _ => in_rows.sqrt(),
            };
            groups *= ndv.max(1.0);
        }
        groups.clamp(1.0, in_rows.max(1.0))
    }
}

/// Convenience: optimize a bare block wrapped in nothing (used by tests and
/// experiment binaries working directly with synthetic blocks).
pub fn optimize_bare_block(
    block: &QueryBlock,
    bindings: &mut Bindings,
    catalog: &Catalog,
    config: &OptimizerConfig,
) -> Result<OptimizedQuery> {
    let logical = LogicalPlan::Block(block.clone());
    optimize(&logical, bindings, catalog, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{chain_block, running_example, ChainSpec};

    #[test]
    fn optimize_assigns_unique_ids_and_gathers() {
        let mut fx = running_example(0.1);
        let config = OptimizerConfig::with_mode(BloomMode::None);
        let catalog = fx.catalog.clone();
        let out = optimize_bare_block(&fx.block, &mut fx.bindings, &catalog, &config).unwrap();
        let mut ids = Vec::new();
        out.plan.visit(&mut |p| ids.push(p.id));
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert!(out.stats.planning_ms >= 0.0);
        assert_eq!(out.stats.blocks, 1);
        // Root is a Gather (plan output is single-stream).
        assert!(matches!(
            &out.plan.node,
            PhysicalNode::Exchange {
                kind: ExchangeKind::Gather,
                ..
            }
        ));
    }

    #[test]
    fn cbo_mode_places_filters_and_reports_stats() {
        let mut fx = running_example(1.0);
        let mut config = OptimizerConfig::with_mode(BloomMode::Cbo);
        config.bf_min_apply_rows = 100.0;
        let catalog = fx.catalog.clone();
        let out = optimize_bare_block(&fx.block, &mut fx.bindings, &catalog, &config).unwrap();
        assert!(out.stats.candidates >= 2);
        assert!(out.stats.cbo_filters >= 1);
        assert!(out.stats.phase1.pairs_visited > 0);
        assert!(out.stats.phase2.pairs > 0);
    }

    #[test]
    fn post_mode_adds_filters_without_changing_join_order() {
        let mut fx = chain_block(&[
            ChainSpec::new("a", 50_000),
            ChainSpec::new("b", 1_000).filtered(0.1),
        ]);
        let catalog = fx.catalog.clone();
        let none = optimize_bare_block(
            &fx.block,
            &mut fx.bindings,
            &catalog,
            &OptimizerConfig::with_mode(BloomMode::None),
        )
        .unwrap();
        let post = optimize_bare_block(
            &fx.block,
            &mut fx.bindings,
            &catalog,
            &OptimizerConfig::with_mode(BloomMode::Post),
        )
        .unwrap();
        assert_eq!(post.stats.cbo_filters, 0);
        assert!(post.stats.post_filters >= 1);
        // Join structure identical to the no-BF plan (same op sequence,
        // ignoring bloom annotations).
        let shape = |p: &Arc<PhysicalPlan>| {
            let mut ops = Vec::new();
            p.visit(&mut |n| {
                ops.push(std::mem::discriminant(&n.node));
            });
            ops
        };
        assert_eq!(shape(&none.plan), shape(&post.plan));
    }

    #[test]
    fn h8_gate_disables_bloom_for_small_queries() {
        let mut fx = running_example(0.05);
        let mut config = OptimizerConfig::with_mode(BloomMode::Cbo);
        config.bf_min_apply_rows = 10.0;
        config.h8_enabled = true;
        config.h8_min_join_input = 1e12;
        let catalog = fx.catalog.clone();
        let out = optimize_bare_block(&fx.block, &mut fx.bindings, &catalog, &config).unwrap();
        assert_eq!(
            out.stats.cbo_filters, 0,
            "H8 should have gated Bloom planning"
        );
    }

    #[test]
    fn naive_mode_records_stats_and_still_plans() {
        let mut fx = running_example(0.05);
        let mut config = OptimizerConfig::with_mode(BloomMode::Naive);
        config.bf_min_apply_rows = 10.0;
        config.naive_time_limit_ms = 2_000;
        let catalog = fx.catalog.clone();
        let out = optimize_bare_block(&fx.block, &mut fx.bindings, &catalog, &config).unwrap();
        let naive = out.stats.naive.expect("naive stats recorded");
        assert!(naive.steps > 0);
        assert!(out.plan.node_count() > 1, "fallback plan still produced");
    }
}
