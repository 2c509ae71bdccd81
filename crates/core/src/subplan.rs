//! Sub-plans and plan lists with property-based pruning.
//!
//! A [`SubPlan`] is one concrete way to realize a relation set. Plan lists
//! keep "the lowest cost method with a specific set of properties" (paper
//! §3.1); the properties here are the output distribution and the set of
//! *pending* (unresolved) Bloom filters with their δ's. The δ-dominance rule
//! of §3.5 — a sub-plan needing a superset δ survives only with strictly
//! fewer rows — falls out of the general dominance test.
//!
//! A sub-plan's distribution is a [`DistId`], interned once per block: the
//! DP compares distributions as ids and resolves one back to a
//! [`Distribution`] only when it builds the winning tree.

use std::collections::HashMap;
use std::sync::Arc;

use bfq_common::{ColumnId, FilterId};
use bfq_cost::{BfAssumption, Cost};
use bfq_plan::{Distribution, PhysicalPlan};

/// An output distribution, interned by its block: two ids of one block
/// are equal exactly when their distributions are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistId(u32);

impl DistId {
    /// [`Distribution::Single`].
    pub(crate) const SINGLE: DistId = DistId(0);
    /// [`Distribution::AnyPartitioned`].
    pub(crate) const ANY_PARTITIONED: DistId = DistId(1);
    /// [`Distribution::Replicated`].
    pub(crate) const REPLICATED: DistId = DistId(2);
    /// The first id a `Hash` distribution gets.
    const FIRST_HASH: u32 = 3;

    /// Whether this is a [`Distribution::Hash`].
    pub(crate) fn is_hash(self) -> bool {
        self.0 >= Self::FIRST_HASH
    }
}

/// One block's distributions: fixed ids for the three without columns, one
/// id per distinct `Hash` column list (order matters: `Hash([a, b])` and
/// `Hash([b, a])` are different distributions).
#[derive(Debug, Default)]
pub(crate) struct DistInterner {
    hashes: Vec<Vec<ColumnId>>,
    ids: HashMap<Vec<ColumnId>, DistId>,
}

impl DistInterner {
    /// The id of `Hash(cols)`, interning it on first sight.
    pub(crate) fn hash(&mut self, cols: &[ColumnId]) -> DistId {
        if let Some(&id) = self.ids.get(cols) {
            return id;
        }
        let id = DistId(DistId::FIRST_HASH + self.hashes.len() as u32);
        self.hashes.push(cols.to_vec());
        self.ids.insert(cols.to_vec(), id);
        id
    }

    /// The distribution `id` stands for.
    pub(crate) fn resolve(&self, id: DistId) -> Distribution {
        match id {
            DistId::SINGLE => Distribution::Single,
            DistId::ANY_PARTITIONED => Distribution::AnyPartitioned,
            DistId::REPLICATED => Distribution::Replicated,
            DistId(i) => Distribution::Hash(self.hashes[(i - DistId::FIRST_HASH) as usize].clone()),
        }
    }
}

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

/// Where a sub-plan's tree comes from.
#[derive(Debug, Clone)]
pub enum PlanRef {
    /// A scan, built when the relation's plan list was seeded.
    Leaf(Arc<PhysicalPlan>),
    /// A join recorded in the block DP's arena by index, built only if it
    /// is part of the winning tree ([`crate::phase2`]).
    Join(usize),
}

/// One costed way to realize a relation set.
#[derive(Debug, Clone)]
pub struct SubPlan {
    /// The plan fragment.
    pub plan: PlanRef,
    /// Estimated output rows (pending filters already accounted).
    pub rows: f64,
    /// Cumulative cost.
    pub cost: Cost,
    /// Output distribution.
    pub dist: DistId,
    /// Unresolved Bloom filters (each δ is disjoint from this sub-plan's
    /// relation set — the invariant joins must maintain).
    pub pending: Vec<PendingBf>,
}

impl SubPlan {
    /// Whether this sub-plan carries unresolved Bloom filters.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }
}

/// What the dominance screen compares before it looks at pending filters:
/// distribution, cost and rows.
#[derive(Debug, Clone, Copy)]
struct Key {
    dist: DistId,
    cost: f64,
    rows: f64,
}

impl Key {
    fn of(sp: &SubPlan) -> Key {
        Key {
            dist: sp.dist,
            cost: sp.cost.total,
            rows: sp.rows,
        }
    }

    /// Whether a sub-plan keyed `self` may dominate one keyed `other`: the
    /// same distribution and no worse on cost and rows, up to a 1e-9 fuzz.
    fn screens(self, other: Key) -> bool {
        // Written as "not worse", not as "better or equal", so that NaN
        // compares as the rule always has.
        !(self.dist != other.dist
            || self.cost > other.cost * (1.0 + 1e-9)
            || self.rows > other.rows * (1.0 + 1e-9))
    }
}

/// The δ-superset rule: a sub-plan pending `mine` imposes no join-order
/// constraint that one pending `theirs` does not, when each of its filters
/// is pending in `theirs` with a superset δ (`theirs` may carry extra
/// filters).
fn pending_subsumed(mine: &[PendingBf], theirs: &[PendingBf]) -> bool {
    mine.iter().all(|p| {
        theirs.iter().any(|q| {
            q.bf.apply_col == p.bf.apply_col
                && q.bf.build_col == p.bf.build_col
                && p.bf.delta.is_subset_of(q.bf.delta)
        })
    })
}

/// The plan list of one relation set.
///
/// A retained sub-plan dominates a candidate when it has the same
/// distribution, is at least as good on cost and rows (up to a 1e-9 fuzz),
/// and imposes a subset of the join-order constraints: each of its pending
/// filters is pending in the candidate with a superset δ.
#[derive(Debug, Clone, Default)]
pub struct PlanList {
    plans: Vec<SubPlan>,
    /// Each retained sub-plan's `Key`, in `plans`' order: most dominance
    /// tests read only this.
    keys: Vec<Key>,
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
            candidate.dist,
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
    /// rows before recording it.
    pub(crate) fn admits(&self, dist: DistId, cost: f64, rows: f64, pending: &[PendingBf]) -> bool {
        let candidate = Key { dist, cost, rows };
        !self.keys.iter().zip(&self.plans).any(|(key, existing)| {
            key.screens(candidate) && pending_subsumed(&existing.pending, pending)
        })
    }

    /// Keep `candidate`, evicting every retained sub-plan it dominates. Call
    /// only after `admits` said yes to its properties.
    pub(crate) fn insert(&mut self, candidate: SubPlan) {
        let key = Key::of(&candidate);
        // Compact the survivors in place, keeping their order.
        let mut kept = 0;
        for i in 0..self.plans.len() {
            let evicted = key.screens(self.keys[i])
                && pending_subsumed(&candidate.pending, &self.plans[i].pending);
            if !evicted {
                self.plans.swap(kept, i);
                self.keys.swap(kept, i);
                kept += 1;
            }
        }
        self.plans.truncate(kept);
        self.keys.truncate(kept);
        self.plans.push(candidate);
        self.keys.push(key);
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
    /// (ties broken by cost), alongside all non-BF sub-plans. Returns how
    /// many sub-plans it dropped.
    pub fn apply_heuristic7(&mut self, max: usize) -> usize {
        let bf_count = self.plans.iter().filter(|p| p.has_pending()).count();
        if bf_count <= max {
            return 0;
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
            (self.plans, self.keys) = std::mem::take(&mut self.plans)
                .into_iter()
                .zip(std::mem::take(&mut self.keys))
                .enumerate()
                .filter(|(i, (p, _))| !p.has_pending() || *i == keep)
                .map(|(_, retained)| retained)
                .unzip();
        }
        bf_count - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_common::{RelSet, TableId};
    use bfq_expr::Layout;
    use bfq_plan::PhysicalNode;
    use proptest::prelude::*;

    /// Whether `list.keys` describes `list.plans`, one for one.
    fn keys_in_step(list: &PlanList) -> bool {
        list.keys.len() == list.plans.len()
            && list.keys.iter().zip(&list.plans).all(|(k, p)| {
                let of = Key::of(p);
                (k.dist, k.cost.to_bits(), k.rows.to_bits())
                    == (of.dist, of.cost.to_bits(), of.rows.to_bits())
            })
    }

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
            plan: PlanRef::Leaf(dummy_plan()),
            rows,
            cost: Cost::of(cost),
            dist: DistId::ANY_PARTITIONED,
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
        single.dist = DistId::SINGLE;
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
        assert_eq!(list.apply_heuristic7(4), 4);
        assert!(keys_in_step(&list));
        let bf: Vec<_> = list.plans().iter().filter(|p| p.has_pending()).collect();
        assert_eq!(bf.len(), 1);
        // Fewest rows kept: 100 - 4*10 = 60.
        assert_eq!(bf[0].rows, 60.0);
        assert_eq!(list.len(), 2);
        // Under the cap nothing happens.
        let mut small = PlanList::new();
        small.add(sp(10.0, 1.0, vec![pend(RelSet::single(1))]));
        assert_eq!(small.apply_heuristic7(4), 0);
        assert_eq!(small.len(), 1);
    }

    /// The id `dists` gives `dist`.
    fn intern(dists: &mut DistInterner, dist: &Distribution) -> DistId {
        match dist {
            Distribution::Single => DistId::SINGLE,
            Distribution::AnyPartitioned => DistId::ANY_PARTITIONED,
            Distribution::Replicated => DistId::REPLICATED,
            Distribution::Hash(cols) => dists.hash(cols),
        }
    }

    #[test]
    fn interned_ids_are_exact() {
        let col = |i| ColumnId::new(TableId(100), i);
        let mut dists = DistInterner::default();
        let fixed = [
            Distribution::Single,
            Distribution::AnyPartitioned,
            Distribution::Replicated,
        ];
        let hashes = [
            Distribution::Hash(vec![col(0)]),
            Distribution::Hash(vec![col(0), col(1)]),
            Distribution::Hash(vec![col(1), col(0)]),
            Distribution::Hash(vec![col(0), col(1), col(2)]),
        ];
        let ids: Vec<DistId> = fixed
            .iter()
            .chain(&hashes)
            .map(|d| intern(&mut dists, d))
            .collect();
        for (i, d) in fixed.iter().chain(&hashes).enumerate() {
            assert_eq!(intern(&mut dists, d), ids[i], "{d:?} interned twice");
            assert_eq!(&dists.resolve(ids[i]), d);
            assert_eq!(ids[i].is_hash(), i >= fixed.len());
            for j in 0..i {
                assert_ne!(ids[i], ids[j]);
            }
        }
        assert_eq!(
            ids[..3],
            [DistId::SINGLE, DistId::ANY_PARTITIONED, DistId::REPLICATED]
        );
    }

    /// A candidate decoded from random bits: its distribution, drawn from
    /// a set that has `Hash` lists differing only in order and one that is
    /// a prefix of another, and the sub-plan carrying that distribution's
    /// id in `dists`. Costs and rows come from a small grid that includes
    /// values within the 1e-9 tie fuzz of each other, and up to two pending
    /// filters with random δ's over three relations.
    fn candidate(bits: u64, dists: &mut DistInterner) -> (Distribution, SubPlan) {
        let mut rest = bits;
        let mut take = |n: u64| {
            let v = rest % n;
            rest /= n;
            v
        };
        let col = |t: u32, i: u32| ColumnId::new(TableId(t), i);
        let dist = match take(8) {
            0 => Distribution::Single,
            1 => Distribution::AnyPartitioned,
            2 => Distribution::Replicated,
            3 => Distribution::Hash(vec![col(100, 0)]),
            4 => Distribution::Hash(vec![col(100, 1)]),
            5 => Distribution::Hash(vec![col(100, 0), col(100, 1)]),
            6 => Distribution::Hash(vec![col(100, 1), col(100, 0)]),
            _ => Distribution::Hash(vec![col(100, 0), col(100, 1), col(101, 0)]),
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
        c.dist = intern(dists, &dist);
        (dist, c)
    }

    type Shape = Vec<(Distribution, u64, u64, Vec<PendingBf>)>;

    /// Everything plan-list pruning looks at, comparable across lists, in
    /// list order.
    fn shape(list: &[SubPlan], dists: &DistInterner) -> Shape {
        list.iter()
            .map(|p| {
                let (cost, rows) = (p.cost.total.to_bits(), p.rows.to_bits());
                (dists.resolve(p.dist), cost, rows, p.pending.clone())
            })
            .collect()
    }

    fn reference_shape(list: &[(Distribution, SubPlan)]) -> Shape {
        list.iter()
            .map(|(d, p)| {
                let (cost, rows) = (p.cost.total.to_bits(), p.rows.to_bits());
                (d.clone(), cost, rows, p.pending.clone())
            })
            .collect()
    }

    /// The dominance rule as first written, over distributions compared by
    /// value and tested first: the oracle for the interned, screened lists.
    fn reference_dominates(a: &(Distribution, SubPlan), b: &(Distribution, SubPlan)) -> bool {
        let ((a_dist, a), (b_dist, b)) = (a, b);
        if a_dist != b_dist {
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

    /// Feed `stream` to a list through `add`, to another through `admits`
    /// then `insert`, and to the oracle: every answer and every ordered
    /// list must agree.
    fn admit_then_insert_case(stream: Vec<u64>) {
        let mut dists = DistInterner::default();
        let mut added = PlanList::new();
        let mut split = PlanList::new();
        let mut reference: Vec<(Distribution, SubPlan)> = Vec::new();
        for bits in stream {
            let c = candidate(bits, &mut dists);
            let sub = &c.1;
            let admitted = split.admits(sub.dist, sub.cost.total, sub.rows, &sub.pending);
            let kept = added.add(sub.clone());
            let reference_kept = !reference.iter().any(|e| reference_dominates(e, &c));
            prop_assert_eq!(admitted, kept);
            prop_assert_eq!(kept, reference_kept);
            if admitted {
                split.insert(c.1.clone());
            }
            if reference_kept {
                reference.retain(|e| !reference_dominates(&c, e));
                reference.push(c);
            }
            prop_assert_eq!(shape(split.plans(), &dists), shape(added.plans(), &dists));
            prop_assert_eq!(shape(added.plans(), &dists), reference_shape(&reference));
            prop_assert!(keys_in_step(&split));
        }
    }

    proptest! {
        #[test]
        fn admit_then_insert_is_add(stream in proptest::collection::vec(any::<u64>(), 1..96)) {
            admit_then_insert_case(stream);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        #[ignore = "long run: cargo test --release -p bfq-core -- --ignored"]
        fn admit_then_insert_is_add_long(
            stream in proptest::collection::vec(any::<u64>(), 1..96)
        ) {
            admit_then_insert_case(stream);
        }
    }
}
