//! Sub-plans and plan lists with property-based pruning.
//!
//! A [`SubPlan`] is one concrete way to realize a relation set. Plan lists
//! keep "the lowest cost method with a specific set of properties" (paper
//! §3.1); the properties here are the output [`Distribution`] and the set of
//! *pending* (unresolved) Bloom filters with their δ's. The δ-dominance rule
//! of §3.5 — a sub-plan needing a superset δ survives only with strictly
//! fewer rows — falls out of the general dominance test.

use std::sync::Arc;

use bfq_common::FilterId;
use bfq_cost::{BfAssumption, Cost};
use bfq_plan::{Distribution, PhysicalPlan};

/// An unresolved Bloom filter riding on a sub-plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingBf {
    /// Runtime id linking the apply-side scan to the future build join.
    pub id: FilterId,
    /// The filter's columns and required build set δ.
    pub bf: BfAssumption,
    /// The filter's row-pass fraction (§3.5), fixed when the filter is
    /// created: every join the filter stays pending across scales its
    /// estimate by it.
    pub pass: f64,
}

/// One costed way to realize a relation set.
#[derive(Debug, Clone)]
pub struct SubPlan {
    /// The physical plan fragment.
    pub plan: Arc<PhysicalPlan>,
    /// Estimated output rows (pending filters already accounted).
    pub rows: f64,
    /// Cumulative cost.
    pub cost: Cost,
    /// Output distribution.
    pub dist: Distribution,
    /// Unresolved Bloom filters (each δ is disjoint from this sub-plan's
    /// relation set — the invariant joins must maintain).
    pub pending: Vec<PendingBf>,
}

impl SubPlan {
    /// Whether this sub-plan carries unresolved Bloom filters.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Dominance: `self` dominates `other` when it is at least as good on
    /// cost and rows, has the same distribution, and imposes a subset of the
    /// join-order constraints (its pending filters are a subset, each with a
    /// δ no larger).
    pub fn dominates(&self, other: &SubPlan) -> bool {
        self.dominates_candidate(&other.dist, other.cost.total, other.rows, &other.pending)
    }

    /// [`SubPlan::dominates`] against a candidate given by its properties
    /// alone, so a join can be tested before its plan node exists. The
    /// scalar comparisons come first: most rejections are decided there.
    fn dominates_candidate(
        &self,
        dist: &Distribution,
        cost: f64,
        rows: f64,
        pending: &[PendingBf],
    ) -> bool {
        if self.cost.total > cost * (1.0 + 1e-9) || self.rows > rows * (1.0 + 1e-9) {
            return false;
        }
        if self.dist != *dist {
            return false;
        }
        // Every pending filter of `self` must exist in the candidate with a
        // superset δ; the candidate may carry extra pendings (extra
        // constraints).
        self.pending.iter().all(|p| {
            pending.iter().any(|q| {
                q.bf.apply_col == p.bf.apply_col
                    && q.bf.build_col == p.bf.build_col
                    && p.bf.delta.is_subset_of(q.bf.delta)
            })
        })
    }
}

/// The plan list of one relation set.
#[derive(Debug, Clone, Default)]
pub struct PlanList {
    plans: Vec<SubPlan>,
}

impl PlanList {
    /// An empty list.
    pub fn new() -> Self {
        PlanList::default()
    }

    /// Try to add `candidate`; returns `true` if it was kept.
    ///
    /// Implements the paper's plan-list behaviour: the candidate is rejected
    /// if an existing sub-plan dominates it, and evicts any existing
    /// sub-plans it dominates. Equivalent to `admits` followed, when it
    /// admits, by `insert`.
    pub fn add(&mut self, candidate: SubPlan) -> bool {
        let admitted = self.admits(
            &candidate.dist,
            candidate.cost.total,
            candidate.rows,
            &candidate.pending,
        );
        if admitted {
            self.insert(candidate);
        }
        admitted
    }

    /// Whether a sub-plan with these properties would be kept: no retained
    /// sub-plan dominates it. Lets the DP reject a join from its cost and
    /// rows before building its plan node.
    pub(crate) fn admits(
        &self,
        dist: &Distribution,
        cost: f64,
        rows: f64,
        pending: &[PendingBf],
    ) -> bool {
        !self
            .plans
            .iter()
            .any(|existing| existing.dominates_candidate(dist, cost, rows, pending))
    }

    /// Keep `candidate`, evicting every retained sub-plan it dominates. Call
    /// only after `admits` said yes to its properties.
    pub(crate) fn insert(&mut self, candidate: SubPlan) {
        self.plans.retain(|existing| !candidate.dominates(existing));
        self.plans.push(candidate);
    }

    /// All retained sub-plans.
    pub fn plans(&self) -> &[SubPlan] {
        &self.plans
    }

    /// Number of retained sub-plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// The cheapest sub-plan with no pending filters.
    pub fn best_resolved(&self) -> Option<&SubPlan> {
        self.plans
            .iter()
            .filter(|p| !p.has_pending())
            .min_by(|a, b| a.cost.total.total_cmp(&b.cost.total))
    }

    /// Heuristic 7 (paper §3.10/§4.4): if more than `max` Bloom-filter
    /// sub-plans accumulated, keep only the one with the fewest rows
    /// (ties broken by cost), alongside all non-BF sub-plans.
    pub fn apply_heuristic7(&mut self, max: usize) {
        let bf_count = self.plans.iter().filter(|p| p.has_pending()).count();
        if bf_count <= max {
            return;
        }
        let best = self
            .plans
            .iter()
            .enumerate()
            .filter(|(_, p)| p.has_pending())
            .min_by(|(_, a), (_, b)| {
                a.rows
                    .total_cmp(&b.rows)
                    .then(a.cost.total.total_cmp(&b.cost.total))
            })
            .map(|(i, _)| i);
        if let Some(keep) = best {
            self.plans = std::mem::take(&mut self.plans)
                .into_iter()
                .enumerate()
                .filter(|(i, p)| !p.has_pending() || *i == keep)
                .map(|(_, p)| p)
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_common::{ColumnId, RelSet, TableId};
    use bfq_expr::Layout;
    use bfq_plan::{Distribution, PhysicalNode};
    use proptest::prelude::*;

    fn dummy_plan() -> Arc<PhysicalPlan> {
        PhysicalPlan::new(
            PhysicalNode::Scan {
                base: TableId(0),
                rel_id: TableId(100),
                alias: "t".into(),
                projection: vec![0],
                predicate: None,
                blooms: vec![],
            },
            Layout::new(vec![ColumnId::new(TableId(100), 0)]),
            100.0,
            Distribution::AnyPartitioned,
        )
    }

    fn sp(rows: f64, cost: f64, pending: Vec<PendingBf>) -> SubPlan {
        SubPlan {
            plan: dummy_plan(),
            rows,
            cost: Cost::of(cost),
            dist: Distribution::AnyPartitioned,
            pending,
        }
    }

    fn pend(delta: RelSet) -> PendingBf {
        PendingBf {
            id: FilterId(1),
            bf: BfAssumption {
                apply_rel: 0,
                apply_col: ColumnId::new(TableId(100), 1),
                build_rel: 1,
                build_col: ColumnId::new(TableId(101), 0),
                delta,
            },
            pass: 0.5,
        }
    }

    #[test]
    fn cheaper_same_properties_dominates() {
        let mut list = PlanList::new();
        assert!(list.add(sp(100.0, 10.0, vec![])));
        // Worse cost, same rows -> rejected.
        assert!(!list.add(sp(100.0, 20.0, vec![])));
        // Better cost -> kept, evicts old.
        assert!(list.add(sp(100.0, 5.0, vec![])));
        assert_eq!(list.len(), 1);
        assert_eq!(list.plans()[0].cost.total, 5.0);
    }

    #[test]
    fn different_distribution_coexists() {
        let mut list = PlanList::new();
        list.add(sp(100.0, 10.0, vec![]));
        let mut single = sp(100.0, 20.0, vec![]);
        single.dist = Distribution::Single;
        assert!(list.add(single));
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn paper_delta_superset_rule() {
        // Example 3.3: sub-plan with δ={t2} at 22M rows; a second sub-plan
        // with δ={t2,t3} and the SAME rows must be pruned...
        let mut list = PlanList::new();
        assert!(list.add(sp(22e6, 10.0, vec![pend(RelSet::single(1))])));
        assert!(!list.add(sp(22e6, 10.0, vec![pend(RelSet::from_iter([1, 2]))])));
        // ...but kept when it has strictly fewer rows.
        assert!(list.add(sp(1e6, 10.0, vec![pend(RelSet::from_iter([1, 2]))])));
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn pending_plans_never_dominate_plain_ones() {
        let mut list = PlanList::new();
        // A BF sub-plan with fewer rows and same cost must NOT evict the
        // plain sub-plan: it carries join-order constraints.
        assert!(list.add(sp(100.0, 10.0, vec![])));
        assert!(list.add(sp(10.0, 10.0, vec![pend(RelSet::single(1))])));
        assert_eq!(list.len(), 2);
        // But a plain sub-plan that is better on both axes evicts a BF one.
        assert!(list.add(sp(5.0, 5.0, vec![])));
        assert_eq!(
            list.plans().iter().filter(|p| p.has_pending()).count(),
            0,
            "dominated BF sub-plan should be gone"
        );
    }

    #[test]
    fn best_resolved_ignores_pending() {
        let mut list = PlanList::new();
        list.add(sp(10.0, 1.0, vec![pend(RelSet::single(1))]));
        assert!(list.best_resolved().is_none());
        list.add(sp(100.0, 50.0, vec![]));
        assert_eq!(list.len(), 2);
        assert_eq!(list.best_resolved().unwrap().cost.total, 50.0);
    }

    #[test]
    fn heuristic7_prunes_to_single_bf_subplan() {
        let mut list = PlanList::new();
        list.add(sp(1000.0, 1.0, vec![]));
        // Five BF sub-plans with distinct deltas (no mutual dominance).
        for i in 0..5 {
            let rows = 100.0 - i as f64 * 10.0;
            list.add(sp(rows, 2.0 + i as f64, vec![pend(RelSet::single(i + 1))]));
        }
        assert_eq!(list.len(), 6);
        list.apply_heuristic7(4);
        let bf: Vec<_> = list.plans().iter().filter(|p| p.has_pending()).collect();
        assert_eq!(bf.len(), 1);
        // Fewest rows kept: 100 - 4*10 = 60.
        assert_eq!(bf[0].rows, 60.0);
        assert_eq!(list.len(), 2);
        // Under the cap nothing happens.
        let mut small = PlanList::new();
        small.add(sp(10.0, 1.0, vec![pend(RelSet::single(1))]));
        small.apply_heuristic7(4);
        assert_eq!(small.len(), 1);
    }

    /// A candidate decoded from random bits: one of a few distributions,
    /// costs and rows from a small grid that includes values
    /// within the 1e-9 tie fuzz of each other, and up to two pending
    /// filters with random δ's over three relations.
    fn candidate(bits: u64) -> SubPlan {
        let mut rest = bits;
        let mut take = |n: u64| {
            let v = rest % n;
            rest /= n;
            v
        };
        let col = |t: u32, i: u32| ColumnId::new(TableId(t), i);
        let dist = match take(5) {
            0 => Distribution::Single,
            1 => Distribution::AnyPartitioned,
            2 => Distribution::Hash(vec![col(100, 0)]),
            3 => Distribution::Hash(vec![col(100, 1)]),
            _ => Distribution::Replicated,
        };
        let grid = [1.0, 2.0, 2.0 + 1e-12, 3.0, 1e6];
        let cost = grid[take(5) as usize];
        let rows = grid[take(5) as usize];
        let pending = (0..take(3))
            .map(|_| {
                let mut p = pend(RelSet(take(7) + 1));
                p.bf.apply_col = col(100, take(2) as u32);
                p.bf.build_col = col(101, take(2) as u32);
                p
            })
            .collect();
        let mut c = sp(rows, cost, pending);
        c.dist = dist;
        c
    }

    /// Everything plan-list pruning looks at, comparable across lists.
    fn shape(list: &[SubPlan]) -> Vec<(Distribution, u64, u64, Vec<PendingBf>)> {
        list.iter()
            .map(|p| {
                let (cost, rows) = (p.cost.total.to_bits(), p.rows.to_bits());
                (p.dist.clone(), cost, rows, p.pending.clone())
            })
            .collect()
    }

    /// The dominance rule as first written (distribution tested first):
    /// the oracle for the scalar-first reordering.
    fn reference_dominates(a: &SubPlan, b: &SubPlan) -> bool {
        if a.dist != b.dist {
            return false;
        }
        if a.cost.total > b.cost.total * (1.0 + 1e-9) || a.rows > b.rows * (1.0 + 1e-9) {
            return false;
        }
        a.pending.iter().all(|p| {
            b.pending.iter().any(|q| {
                q.bf.apply_col == p.bf.apply_col
                    && q.bf.build_col == p.bf.build_col
                    && p.bf.delta.is_subset_of(q.bf.delta)
            })
        })
    }

    proptest! {
        #[test]
        fn admit_then_insert_is_add(stream in proptest::collection::vec(any::<u64>(), 1..48)) {
            let mut added = PlanList::new();
            let mut split = PlanList::new();
            let mut reference: Vec<SubPlan> = Vec::new();
            for bits in stream {
                let c = candidate(bits);
                let admitted = split.admits(&c.dist, c.cost.total, c.rows, &c.pending);
                let kept = added.add(c.clone());
                let reference_kept = !reference.iter().any(|e| reference_dominates(e, &c));
                if reference_kept {
                    reference.retain(|e| !reference_dominates(&c, e));
                    reference.push(c.clone());
                }
                prop_assert_eq!(admitted, kept);
                prop_assert_eq!(kept, reference_kept);
                if admitted {
                    split.insert(c);
                }
                prop_assert_eq!(shape(split.plans()), shape(added.plans()));
                prop_assert_eq!(shape(added.plans()), shape(&reference));
            }
        }
    }
}
