//! First bottom-up phase: Δ collection (paper §3.4).
//!
//! "We simulate the process of combining relations as in normal bottom-up
//! CBO. However, instead of costing any sub-plans, we only populate the list
//! of δ relation sets, Δ, that are observed during this process."
//!
//! For every ordered join pair whose outer side contains a candidate's apply
//! relation and whose inner (build) side supplies the candidate's build
//! relation, the inner set is a feasible δ. Heuristic 3 prunes δ's whose
//! filter would be lossless (FK on the apply side referencing a primary key
//! that the δ join leaves unfiltered); Heuristic 9 candidates additionally
//! require the δ join to be smaller than the apply relation.

use bfq_cost::{BfAssumption, Estimator};

use crate::candidates::BfCandidate;
use crate::enumerate::JoinSpace;
use crate::OptimizerConfig;

/// Statistics gathered during the first pass (feeds Heuristic 8 and the
/// experiment harness).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Phase1Stats {
    /// Number of relation sets visited.
    pub sets_visited: usize,
    /// Number of ordered join pairs visited.
    pub pairs_visited: usize,
    /// Cumulative estimated cardinality of all join inputs (Heuristic 8's
    /// "total join-input cardinality").
    pub total_join_input: f64,
    /// Largest single join input seen.
    pub max_join_input: f64,
    /// Number of δ's recorded across all candidates.
    pub deltas_recorded: usize,
    /// Number of δ's pruned by Heuristic 3.
    pub deltas_pruned_lossless: usize,
}

/// Run the first bottom-up pass over the block's join space
/// ([`crate::enumerate::join_space`]), populating each candidate's Δ list.
pub fn collect_deltas(
    est: &Estimator<'_>,
    space: &JoinSpace,
    candidates: &mut [BfCandidate],
    _config: &OptimizerConfig,
) -> Phase1Stats {
    let mut stats = Phase1Stats::default();
    for entry in &space.sets {
        stats.sets_visited += 1;
        for split in &entry.splits {
            stats.pairs_visited += 1;
            let outer_rows = est.join_card(split.outer);
            let inner_rows = est.join_card(split.inner);
            stats.total_join_input += outer_rows + inner_rows;
            stats.max_join_input = stats.max_join_input.max(outer_rows).max(inner_rows);

            for cand in candidates.iter_mut() {
                // The Bloom filter must be buildable on the inner (build)
                // side and applied somewhere inside the outer side.
                if !split.outer.contains(cand.apply_rel) || !split.inner.contains(cand.build_rel) {
                    continue;
                }
                let delta = split.inner;
                if cand.deltas.contains(&delta) {
                    continue;
                }
                let assumption = BfAssumption {
                    apply_rel: cand.apply_rel,
                    apply_col: cand.apply_col,
                    build_rel: cand.build_rel,
                    build_col: cand.build_col,
                    delta,
                };
                // Heuristic 3: a lossless FK→PK filter removes nothing.
                if est.bf_is_lossless(&assumption) {
                    stats.deltas_pruned_lossless += 1;
                    continue;
                }
                // Heuristic 9 candidates: δ must be smaller than the apply
                // relation (otherwise the "small side" filter is pointless).
                if cand.via_h9 && est.join_card(delta) >= est.base_rows(cand.apply_rel) {
                    continue;
                }
                cand.add_delta(delta);
                stats.deltas_recorded += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::mark_candidates;
    use crate::enumerate::join_space;
    use crate::synth::{chain_block, running_example, ChainSpec};
    use bfq_common::RelSet;

    #[test]
    fn paper_example_delta_lists() {
        // The §3 running example: BFC on t1 (build t2) and on t3 (build t2).
        // Expected after phase 1 (Example 3.2):
        //   t1.bfc1: Δ = [{t2}, {t2,t3}]
        //   t3.bfc1: Δ = [{t2}, {t1,t2}]
        // (modulo Heuristic 3, which does not fire for t1 because t2 is
        //  filtered; t3's candidate builds from t2's FK column, not a PK, so
        //  H3 does not fire there either.)
        let fx = running_example(1.0);
        let est = fx.estimator();
        let config = OptimizerConfig {
            bf_min_apply_rows: 100.0, // scaled-down fixture
            ..Default::default()
        };
        let mut cands = mark_candidates(&fx.block, &est, &config);
        assert_eq!(cands.len(), 2, "{cands:?}");
        let stats = collect_deltas(&est, &join_space(&fx.block), &mut cands, &config);
        assert!(stats.pairs_visited >= 6);
        let t1_cand = cands.iter().find(|c| c.apply_rel == 0).unwrap();
        assert_eq!(
            t1_cand.deltas,
            vec![RelSet::single(1), RelSet::from_iter([1, 2])]
        );
        let t3_cand = cands.iter().find(|c| c.apply_rel == 2).unwrap();
        assert_eq!(
            t3_cand.deltas,
            vec![RelSet::single(1), RelSet::from_iter([0, 1])]
        );
    }

    #[test]
    fn heuristic3_prunes_lossless_pk_delta() {
        // Chain a(big) -> b(unfiltered): a.fk references b.pk and b has no
        // local predicate, so δ={b} is lossless and must be pruned.
        let fx = chain_block(&[ChainSpec::new("a", 50_000), ChainSpec::new("b", 1_000)]);
        let est = fx.estimator();
        let config = OptimizerConfig::default();
        let mut cands = mark_candidates(&fx.block, &est, &config);
        assert_eq!(cands.len(), 1);
        let stats = collect_deltas(&est, &join_space(&fx.block), &mut cands, &config);
        assert!(cands[0].deltas.is_empty(), "{:?}", cands[0].deltas);
        assert!(stats.deltas_pruned_lossless >= 1);
    }

    #[test]
    fn filtered_pk_delta_survives_h3() {
        let fx = chain_block(&[
            ChainSpec::new("a", 50_000),
            ChainSpec::new("b", 1_000).filtered(0.1),
        ]);
        let est = fx.estimator();
        let config = OptimizerConfig::default();
        let mut cands = mark_candidates(&fx.block, &est, &config);
        collect_deltas(&est, &join_space(&fx.block), &mut cands, &config);
        assert_eq!(cands[0].deltas, vec![RelSet::single(1)]);
    }

    #[test]
    fn join_input_cardinality_accumulates() {
        let fx = running_example(0.1);
        let est = fx.estimator();
        let config = OptimizerConfig {
            bf_min_apply_rows: 10.0,
            ..Default::default()
        };
        let mut cands = mark_candidates(&fx.block, &est, &config);
        let stats = collect_deltas(&est, &join_space(&fx.block), &mut cands, &config);
        assert!(stats.total_join_input > 0.0);
        assert!(stats.max_join_input <= stats.total_join_input);
        assert!(stats.max_join_input >= est.base_rows(0));
    }

    #[test]
    fn h9_candidate_requires_small_delta() {
        // Both relations large and similar: the H9 reverse candidate's δ
        // (the big side) is not smaller than its apply side, so no δ.
        let fx = chain_block(&[ChainSpec::new("big", 60_000), ChainSpec::new("mid", 50_000)]);
        let est = fx.estimator();
        let config = OptimizerConfig {
            h9_enabled: true,
            ..Default::default()
        };
        let mut cands = mark_candidates(&fx.block, &est, &config);
        collect_deltas(&est, &join_space(&fx.block), &mut cands, &config);
        let h9 = cands.iter().find(|c| c.via_h9).unwrap();
        assert!(h9.deltas.is_empty());
    }
}
