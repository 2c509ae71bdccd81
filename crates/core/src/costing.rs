//! Costing Bloom filter sub-plans (paper §3.5) and building the initial
//! per-relation plan lists.
//!
//! After phase 1, every candidate carries a list of feasible δ's. For each
//! relation we create:
//! * one plain scan sub-plan, and
//! * one Bloom-filter scan sub-plan per combination of δ choices across the
//!   relation's surviving candidates — *all* candidates apply simultaneously
//!   (Heuristic 4), but "we do allow for various combinations of δs".
//!
//! Heuristic 5 (filter size) and Heuristic 6 (selectivity threshold) prune
//! δ options; the δ-superset dominance rule prunes sub-plans as they enter
//! the plan list; Heuristic 7 optionally caps the surviving BF sub-plans.

use std::collections::HashMap;
use std::sync::Arc;

use bfq_common::{ColumnId, FilterId, Result};
use bfq_cost::{BfAssumption, Cost, CostModel, Estimator};
use bfq_expr::{Expr, Layout};
use bfq_plan::{BloomApply, Distribution, PhysicalNode, PhysicalPlan, QueryBlock, RelSource};

use crate::candidates::BfCandidate;
use crate::subplan::{PendingBf, PlanList, SubPlan};
use crate::OptimizerConfig;

/// A pre-planned derived relation: its physical plan and cumulative cost.
pub type DerivedPlans = HashMap<usize, (Arc<PhysicalPlan>, Cost)>;

/// Compute, per relation ordinal, the base-schema column ordinals that must
/// survive the scan: everything referenced above the scan (join clauses,
/// complex predicates, required outputs). Local predicate columns evaluate
/// inside the scan and need not be projected unless referenced elsewhere.
pub fn required_cols_per_rel(block: &QueryBlock, extra: &[ColumnId]) -> Vec<Vec<u32>> {
    let mut per_rel: Vec<Vec<u32>> = vec![Vec::new(); block.num_rels()];
    let mut add = |col: ColumnId| {
        if let Some(ord) = block.ordinal_of(col.table) {
            if !per_rel[ord].contains(&col.index) {
                per_rel[ord].push(col.index);
            }
        }
    };
    for clause in &block.equi_clauses {
        add(clause.left);
        add(clause.right);
    }
    for pred in &block.complex_preds {
        for col in pred.columns() {
            add(col);
        }
    }
    for col in extra {
        add(*col);
    }
    for (ord, cols) in per_rel.iter_mut().enumerate() {
        // A scan must produce at least one column to carry row counts.
        if cols.is_empty() {
            cols.push(0);
        }
        cols.sort_unstable();
        let _ = ord;
    }
    per_rel
}

/// Build the scan [`SubPlan`] for relation `rel` with the given Bloom
/// filter applications.
pub fn make_scan_subplan(
    block: &QueryBlock,
    est: &Estimator<'_>,
    model: &CostModel,
    rel: usize,
    pendings: Vec<PendingBf>,
    projection: &[u32],
    derived: &DerivedPlans,
) -> Result<SubPlan> {
    let base_rel = block.rel(rel);
    let rel_id = base_rel.rel_id;
    let predicate = Expr::conjunction(base_rel.local_preds.clone());
    let n_preds = base_rel.local_preds.len();
    // Multiple filters apply simultaneously (Heuristic 4).
    let rows_out = if pendings.is_empty() {
        est.base_rows(rel)
    } else {
        pendings
            .iter()
            .fold(est.base_rows(rel), |rows, p| rows * p.pass)
            .max(1.0)
    };
    let blooms: Vec<BloomApply> = pendings
        .iter()
        .map(|p| BloomApply {
            filter: p.id,
            column: p.bf.apply_col,
            predicted_fpr: est.bf_fpr(&p.bf),
            predicted_pass: p.pass,
        })
        .collect();
    let layout = Layout::new(
        projection
            .iter()
            .map(|&i| ColumnId::new(rel_id, i))
            .collect(),
    );

    let (node, dist, cost) = match &base_rel.source {
        RelSource::Table(base) => {
            // Read volume reflects chunk-level data skipping: chunks the
            // zone maps rule out are never touched.
            let cost = model.scan_with_blooms(
                est.scan_read_rows(rel),
                est.base_rows(rel),
                rows_out,
                n_preds,
                blooms.len(),
            );
            let node = PhysicalNode::Scan {
                base: *base,
                rel_id,
                alias: base_rel.alias.clone(),
                projection: projection.to_vec(),
                predicate,
                blooms,
            };
            (node, Distribution::AnyPartitioned, cost)
        }
        RelSource::Derived(_) => {
            let (input, input_cost) = derived
                .get(&rel)
                .ok_or_else(|| {
                    bfq_common::BfqError::internal(format!(
                        "derived relation {rel} was not pre-planned"
                    ))
                })?
                .clone();
            // Derived output arrives gathered on a single worker; predicates
            // and Bloom probes run there.
            let work = model.scan_with_blooms(
                est.raw_rows(rel) * model.dop as f64, // single-stream: undo the dop divisor
                est.base_rows(rel) * model.dop as f64,
                rows_out * model.dop as f64,
                n_preds,
                blooms.len(),
            );
            let node = PhysicalNode::DerivedScan {
                input,
                rel_id,
                alias: base_rel.alias.clone(),
                predicate,
                blooms,
            };
            (node, Distribution::Single, input_cost.plus(work))
        }
    };
    let plan = PhysicalPlan::new(node, layout, rows_out, dist.clone());
    Ok(SubPlan {
        plan,
        rows: rows_out,
        cost,
        dist,
        pending: pendings,
    })
}

/// Filter one candidate's Δ by Heuristics 5 and 6, returning the surviving
/// assumptions.
fn surviving_options(
    cand: &BfCandidate,
    est: &Estimator<'_>,
    config: &OptimizerConfig,
) -> Vec<BfAssumption> {
    let mut out = Vec::new();
    for &delta in &cand.deltas {
        let bf = BfAssumption {
            apply_rel: cand.apply_rel,
            apply_col: cand.apply_col,
            build_rel: cand.build_rel,
            build_col: cand.build_col,
            delta,
        };
        // Heuristic 5: filter must fit the size budget (upper-bound NDV).
        if est.effective_build_ndv(bf.build_col, delta) > config.bf_max_build_ndv {
            continue;
        }
        // Heuristic 6: must be selective enough (excluding false positives).
        if est.bf_semi_selectivity(&bf) > config.bf_selectivity_threshold {
            continue;
        }
        out.push(bf);
    }
    out
}

/// Build the initial plan list of every relation: the plain scan plus the
/// Bloom-filter scan sub-plans of §3.5.
#[allow(clippy::too_many_arguments)] // mirrors the paper's §3.5 inputs
pub fn initial_plan_lists(
    block: &QueryBlock,
    est: &Estimator<'_>,
    model: &CostModel,
    config: &OptimizerConfig,
    candidates: &[BfCandidate],
    required: &[Vec<u32>],
    derived: &DerivedPlans,
    next_filter: &mut u32,
) -> Result<Vec<PlanList>> {
    let mut lists = Vec::with_capacity(block.num_rels());
    for (rel, projection) in required.iter().enumerate().take(block.num_rels()) {
        let mut list = PlanList::new();
        // Plain scan.
        list.add(make_scan_subplan(
            block,
            est,
            model,
            rel,
            Vec::new(),
            projection,
            derived,
        )?);

        // Bloom filter scan sub-plans.
        let rel_cands: Vec<Vec<BfAssumption>> = candidates
            .iter()
            .filter(|c| c.apply_rel == rel)
            .map(|c| surviving_options(c, est, config))
            .filter(|opts| !opts.is_empty())
            .collect();
        if !rel_cands.is_empty() {
            let mut combos: Vec<Vec<BfAssumption>> = vec![Vec::new()];
            for options in &rel_cands {
                let mut next = Vec::new();
                for combo in &combos {
                    for opt in options {
                        if next.len() + combos.len() > config.max_bf_subplans_per_rel {
                            break;
                        }
                        let mut c = combo.clone();
                        c.push(opt.clone());
                        next.push(c);
                    }
                }
                combos = next;
            }
            for combo in combos {
                if combo.is_empty() {
                    continue;
                }
                let pendings: Vec<PendingBf> = combo
                    .into_iter()
                    .map(|bf| {
                        let id = FilterId(*next_filter);
                        *next_filter += 1;
                        let pass = est.bf_pass_fraction(&bf);
                        PendingBf { id, bf, pass }
                    })
                    .collect();
                let sp = make_scan_subplan(block, est, model, rel, pendings, projection, derived)?;
                list.add(sp);
            }
        }
        if config.h7_enabled {
            list.apply_heuristic7(config.h7_max_subplans);
        }
        lists.push(list);
    }
    Ok(lists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::mark_candidates;
    use crate::enumerate::join_space;
    use crate::phase1::collect_deltas;
    use crate::synth::{running_example, ChainSpec};
    use bfq_common::RelSet;

    fn plan_lists_for(
        fx: &crate::synth::Fixture,
        config: &OptimizerConfig,
    ) -> (Vec<PlanList>, u32) {
        let est = fx.estimator();
        let model = CostModel::new(config.dop);
        let mut cands = mark_candidates(&fx.block, &est, config);
        collect_deltas(&est, &join_space(&fx.block), &mut cands, config);
        let required = required_cols_per_rel(&fx.block, &[]);
        let mut next_filter = 0;
        let lists = initial_plan_lists(
            &fx.block,
            &est,
            &model,
            config,
            &cands,
            &required,
            &HashMap::new(),
            &mut next_filter,
        )
        .unwrap();
        (lists, next_filter)
    }

    #[test]
    fn plain_scan_always_present() {
        let fx = running_example(0.1);
        let config = OptimizerConfig {
            bf_min_apply_rows: 100.0,
            ..Default::default()
        };
        let (lists, _) = plan_lists_for(&fx, &config);
        for (rel, list) in lists.iter().enumerate() {
            assert!(
                list.plans().iter().any(|p| !p.has_pending()),
                "relation {rel} lost its plain scan"
            );
        }
    }

    #[test]
    fn bf_subplans_created_with_reduced_rows() {
        let fx = running_example(1.0);
        let config = OptimizerConfig {
            bf_min_apply_rows: 100.0,
            ..Default::default()
        };
        let (lists, filters) = plan_lists_for(&fx, &config);
        // t1 must have at least one BF sub-plan with far fewer rows than the
        // plain scan (t2 is filtered to ~50%).
        let t1 = &lists[0];
        let plain = t1.plans().iter().find(|p| !p.has_pending()).unwrap();
        let bf: Vec<_> = t1.plans().iter().filter(|p| p.has_pending()).collect();
        assert!(!bf.is_empty(), "no BF sub-plan on t1");
        for sp in &bf {
            assert!(sp.rows < plain.rows);
            // Scan node carries the BloomApply annotation.
            match &sp.plan.node {
                PhysicalNode::Scan { blooms, .. } => assert_eq!(blooms.len(), sp.pending.len()),
                other => panic!("expected scan, got {other:?}"),
            }
        }
        assert!(filters > 0, "no filter ids allocated");
    }

    #[test]
    fn delta_superset_with_equal_rows_is_pruned() {
        // Paper Example 3.3: t1's δ={t2,t3} sub-plan has the same estimated
        // rows as δ={t2} (t3 is unfiltered, FK-joined: no extra transfer),
        // so only δ={t2} survives.
        let fx = running_example(1.0);
        let config = OptimizerConfig {
            bf_min_apply_rows: 100.0,
            ..Default::default()
        };
        let (lists, _) = plan_lists_for(&fx, &config);
        let t1_bf: Vec<_> = lists[0]
            .plans()
            .iter()
            .filter(|p| p.has_pending())
            .collect();
        assert_eq!(t1_bf.len(), 1, "expected exactly one surviving BF sub-plan");
        assert_eq!(t1_bf[0].pending[0].bf.delta, RelSet::single(1));
    }

    #[test]
    fn heuristic6_drops_unselective_filters() {
        // b barely filters a: selectivity close to 1 > 2/3 threshold.
        let fx = crate::synth::chain_block(&[
            ChainSpec::new("a", 50_000),
            ChainSpec::new("b", 1_000).filtered(0.9),
        ]);
        let (lists, _) = plan_lists_for(&fx, &OptimizerConfig::default());
        assert!(
            lists[0].plans().iter().all(|p| !p.has_pending()),
            "unselective filter should be dropped by Heuristic 6"
        );
    }

    #[test]
    fn heuristic5_drops_oversized_filters() {
        let fx = crate::synth::chain_block(&[
            ChainSpec::new("a", 50_000),
            ChainSpec::new("b", 1_000).filtered(0.2),
        ]);
        let config = OptimizerConfig {
            bf_max_build_ndv: 10.0, // absurdly small budget
            ..Default::default()
        };
        let (lists, _) = plan_lists_for(&fx, &config);
        assert!(lists[0].plans().iter().all(|p| !p.has_pending()));
    }

    #[test]
    fn heuristic7_caps_bf_subplans() {
        let fx = running_example(1.0);
        let config = OptimizerConfig {
            bf_min_apply_rows: 100.0,
            h7_enabled: true,
            h7_max_subplans: 0, // force the cap to bite
            ..Default::default()
        };
        let (lists, _) = plan_lists_for(&fx, &config);
        for list in &lists {
            assert!(list.plans().iter().filter(|p| p.has_pending()).count() <= 1);
        }
    }

    #[test]
    fn required_cols_cover_clauses_and_extras() {
        let fx = running_example(0.01);
        let extra = vec![fx.col(0, 2)];
        let req = required_cols_per_rel(&fx.block, &extra);
        // t1 needs fk (clause) and val (extra).
        assert!(req[0].contains(&1) && req[0].contains(&2));
        // t2 needs pk and fk (two clauses).
        assert!(req[1].contains(&0) && req[1].contains(&1));
        // t3 needs pk only.
        assert_eq!(req[2], vec![0]);
    }
}
