//! The naïve single-phase integration of Bloom filters into bottom-up CBO
//! (paper §3.1) — the strawman whose planning-time explosion motivates the
//! two-phase design.
//!
//! "A naïve solution may maintain several uncosted sub-plans with unresolved
//! Bloom filter information. These uncosted, unresolved sub-plans would
//! inevitably be combined with relations that do not provide the build side
//! of the Bloom filter and, while uncosted, these sub-plans cannot be
//! pruned, so the number of sub-plans that need to be maintained would grow
//! exponentially with each join that does not resolve the Bloom filter."
//!
//! This module reproduces that behaviour measurably: scan sub-plans carry
//! unresolved candidate subsets; plan lists prune *only* fully-costed
//! sub-plans; every (outer × inner × join-variant) combination of
//! unprunable sub-plans is materialized. A step budget and wall-clock limit
//! let the blow-up experiment (§3.1 reports 28 ms / 375 ms / 56 s / >30 min
//! for 3/4/5/6-way joins) terminate.

use std::time::{Duration, Instant};

use bfq_common::RelSet;
use bfq_cost::{BfAssumption, Estimator};
use bfq_plan::QueryBlock;

use crate::candidates::BfCandidate;
use crate::enumerate::{enumerate_sets, splits, JoinGraph};

/// Outcome of a naïve optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveStats {
    /// Wall-clock planning time.
    pub elapsed: Duration,
    /// Sub-plan combinations examined.
    pub steps: u64,
    /// Sub-plans materialized across all plan lists.
    pub subplans: u64,
    /// Whether the run finished within its budgets.
    pub completed: bool,
}

/// A naïve sub-plan: cost is `None` while any Bloom filter is unresolved.
#[derive(Debug, Clone)]
struct NaiveSubPlan {
    rows: f64,
    cost: Option<f64>,
    /// Indices into the candidate list that are applied but unresolved.
    unresolved: Vec<u8>,
    /// Distinguishes join variants (algorithm × distribution) so unprunable
    /// sub-plans multiply exactly as they would in a real plan list.
    #[allow(dead_code)]
    variant: u8,
}

/// Join variants enumerated per pair (≈ a real join's distribution
/// alternatives: co-located, repartitioned, broadcast).
const VARIANTS: u8 = 3;

/// Run the naïve single-phase optimization, stopped after `step_budget`
/// sub-plan combinations or `time_limit`, whichever comes first.
pub fn naive_optimize(
    block: &QueryBlock,
    est: &Estimator<'_>,
    candidates: &[BfCandidate],
    step_budget: u64,
    time_limit: Duration,
) -> NaiveStats {
    let start = Instant::now();
    let mut steps: u64 = 0;
    let mut subplans: u64 = 0;
    let deadline = start + time_limit;

    let n = block.num_rels();
    let graph = JoinGraph::new(block);
    let sets = enumerate_sets(&graph);
    let mut lists: Vec<Vec<NaiveSubPlan>> = vec![Vec::new(); 1usize << n];

    // Scan sub-plans: the plain scan plus one uncosted sub-plan per
    // non-empty subset of the relation's candidates (unknown δ ⇒ unknown
    // cardinality ⇒ uncosted).
    for rel in 0..n {
        let list = &mut lists[RelSet::single(rel).0 as usize];
        list.push(NaiveSubPlan {
            rows: est.base_rows(rel),
            cost: Some(est.raw_rows(rel)),
            unresolved: Vec::new(),
            variant: 0,
        });
        let mine: Vec<u8> = candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.apply_rel == rel)
            .map(|(i, _)| i as u8)
            .collect();
        // All non-empty subsets of this relation's candidates.
        for mask in 1u32..(1u32 << mine.len().min(8)) {
            let subset: Vec<u8> = mine
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &c)| c)
                .collect();
            list.push(NaiveSubPlan {
                rows: est.base_rows(rel),
                cost: None,
                unresolved: subset,
                variant: 0,
            });
            subplans += 1;
        }
    }

    'outer: for set in &sets {
        if set.len() < 2 {
            continue;
        }
        let mut new_list: Vec<NaiveSubPlan> = Vec::new();
        let mut best_costed: Option<f64> = None;
        for split in splits(&graph, *set) {
            let outer_list = std::mem::take(&mut lists[split.outer.0 as usize]);
            let inner_list = std::mem::take(&mut lists[split.inner.0 as usize]);
            for osp in &outer_list {
                for isp in &inner_list {
                    for variant in 0..VARIANTS {
                        steps += 1;
                        if steps.is_multiple_of(4096) && Instant::now() > deadline {
                            lists[split.outer.0 as usize] = outer_list;
                            lists[split.inner.0 as usize] = inner_list;
                            break 'outer;
                        }
                        if steps > step_budget {
                            lists[split.outer.0 as usize] = outer_list;
                            lists[split.inner.0 as usize] = inner_list;
                            break 'outer;
                        }
                        // Resolve any unresolved candidate whose build
                        // relation appears on the inner side. Resolution is
                        // "a necessarily recursive process in which the
                        // sub-plan is traversed to the leaf table scan" —
                        // modelled by the per-δ estimator evaluation.
                        let mut unresolved = Vec::new();
                        let mut rows = osp.rows * isp.rows.max(1.0).sqrt();
                        for &ci in &osp.unresolved {
                            let cand = &candidates[ci as usize];
                            if split.inner.contains(cand.build_rel) {
                                let bf = BfAssumption {
                                    apply_rel: cand.apply_rel,
                                    apply_col: cand.apply_col,
                                    build_rel: cand.build_rel,
                                    build_col: cand.build_col,
                                    delta: split.inner,
                                };
                                rows *= est.bf_pass_fraction(&bf);
                            } else {
                                unresolved.push(ci);
                            }
                        }
                        unresolved.extend(isp.unresolved.iter().copied());
                        unresolved.sort_unstable();
                        unresolved.dedup();

                        let costed =
                            unresolved.is_empty() && osp.cost.is_some() && isp.cost.is_some();
                        if costed {
                            let c = osp.cost.unwrap_or(0.0)
                                + isp.cost.unwrap_or(0.0)
                                + rows
                                + variant as f64;
                            // Costed sub-plans prune normally: keep the best.
                            if best_costed.is_none_or(|b| c < b) {
                                best_costed = Some(c);
                            }
                        } else {
                            // Uncosted: CANNOT be pruned — keep every one.
                            new_list.push(NaiveSubPlan {
                                rows,
                                cost: None,
                                unresolved,
                                variant,
                            });
                            subplans += 1;
                        }
                    }
                }
            }
            lists[split.outer.0 as usize] = outer_list;
            lists[split.inner.0 as usize] = inner_list;
        }
        if let Some(c) = best_costed {
            new_list.push(NaiveSubPlan {
                rows: est.join_card(*set),
                cost: Some(c),
                unresolved: Vec::new(),
                variant: 0,
            });
            subplans += 1;
        }
        lists[set.0 as usize] = new_list;
    }

    let elapsed = start.elapsed();
    let completed = steps <= step_budget && Instant::now() <= deadline;
    NaiveStats {
        elapsed,
        steps,
        subplans,
        completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::mark_candidates;
    use crate::synth::{chain_block, ChainSpec};
    use crate::OptimizerConfig;

    fn chain_fixture(n: usize) -> crate::synth::Fixture {
        let specs: Vec<ChainSpec> = (0..n)
            .map(|i| {
                let rows = 100_000usize >> i; // decreasing sizes
                ChainSpec::new(format!("t{i}"), rows.max(100)).filtered(0.5)
            })
            .collect();
        chain_block(&specs)
    }

    fn run(n: usize, budget: u64) -> NaiveStats {
        let fx = chain_fixture(n);
        let est = fx.estimator();
        let config = OptimizerConfig {
            bf_min_apply_rows: 10.0,
            ..Default::default()
        };
        let cands = mark_candidates(&fx.block, &est, &config);
        naive_optimize(&fx.block, &est, &cands, budget, Duration::from_secs(10))
    }

    #[test]
    fn small_joins_complete() {
        let s3 = run(3, 10_000_000);
        assert!(s3.completed);
        assert!(s3.steps > 0);
    }

    #[test]
    fn steps_grow_super_exponentially() {
        let s2 = run(2, u64::MAX);
        let s3 = run(3, u64::MAX);
        let s4 = run(4, u64::MAX);
        assert!(
            s3.steps > s2.steps * 2,
            "3-way {} vs 2-way {}",
            s3.steps,
            s2.steps
        );
        assert!(
            s4.steps as f64 > s3.steps as f64 * 4.0,
            "4-way {} vs 3-way {}",
            s4.steps,
            s3.steps
        );
        // The growth *rate* itself grows (super-exponential shape).
        let r32 = s3.steps as f64 / s2.steps.max(1) as f64;
        let r43 = s4.steps as f64 / s3.steps.max(1) as f64;
        assert!(r43 > r32, "rates {r32} -> {r43} should accelerate");
    }

    #[test]
    fn budget_aborts_cleanly() {
        let s = run(6, 10_000);
        assert!(!s.completed);
        assert!(s.steps >= 10_000);
    }
}
