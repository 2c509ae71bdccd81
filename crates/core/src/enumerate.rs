//! Join-order enumeration utilities shared by both bottom-up passes.
//!
//! Both phases walk the same space: connected relation sets in increasing
//! size, split into ordered `(outer, inner)` pairs. Dependent relations
//! (semi/anti/left-outer) constrain the space — they join as a singleton
//! inner side once all their join partners are available.
//!
//! Every test the walk makes is a bitmask operation on the block's
//! [`JoinGraph`], which reads the block's clauses and predicates once.

use bfq_common::RelSet;
use bfq_expr::Expr;
use bfq_plan::{JoinKind, QueryBlock, RelKind};

/// An ordered join split: `outer ⋈ inner` with the given semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// Probe / row-preserving side.
    pub outer: RelSet,
    /// Build side.
    pub inner: RelSet,
    /// Join semantics (derived from the inner side's relation kind).
    pub kind: JoinKind,
}

/// The most relations one block may join: [`enumerate_sets`] walks every
/// subset of the block's relations.
pub const MAX_BLOCK_RELS: usize = 24;

/// A multi-relation set of the join space with its legal splits.
#[derive(Debug, Clone)]
pub struct SetSplits {
    /// The relation set.
    pub set: RelSet,
    /// Its legal ordered splits ([`splits`]).
    pub splits: Vec<Split>,
}

/// A block's join space: its join graph, and every constructible connected
/// set of two or more relations, in [`enumerate_sets`] order, with its legal
/// splits. Both bottom-up phases walk it; the driver computes it once per
/// block.
#[derive(Debug, Clone)]
pub struct JoinSpace {
    /// The graph the sets and splits were enumerated from.
    pub graph: JoinGraph,
    /// The sets of two or more relations with their splits.
    pub sets: Vec<SetSplits>,
}

/// A block's join graph as relation bitmasks. Edges are the equi clauses
/// and the complex predicates; a complex predicate is a hyperedge over
/// every relation it references.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    /// Each relation's kind.
    kinds: Vec<RelKind>,
    /// Per relation: the relations an equi clause connects it to.
    neighbours: Vec<RelSet>,
    /// Per complex predicate, in block order: the relations it references.
    pred_rels: Vec<RelSet>,
    /// The dependent (non-`Inner`) relations.
    dependent: RelSet,
    /// Per relation: [`QueryBlock::dependency_of`] for a dependent
    /// relation, empty for an inner one.
    deps: Vec<RelSet>,
}

impl JoinGraph {
    /// Read `block`'s clauses, predicates and relation kinds.
    pub fn new(block: &QueryBlock) -> Self {
        let n = block.num_rels();
        let mut neighbours = vec![RelSet::EMPTY; n];
        for c in &block.equi_clauses {
            neighbours[c.left_rel] = neighbours[c.left_rel].with(c.right_rel);
            neighbours[c.right_rel] = neighbours[c.right_rel].with(c.left_rel);
        }
        let pred_rels = block
            .complex_preds
            .iter()
            .map(|p| pred_rels(block, p))
            .collect();
        let kinds: Vec<RelKind> = block.rels.iter().map(|r| r.kind).collect();
        let dependent = RelSet::from_iter((0..n).filter(|&r| kinds[r] != RelKind::Inner));
        let deps = (0..n)
            .map(|r| {
                if dependent.contains(r) {
                    block.dependency_of(r)
                } else {
                    RelSet::EMPTY
                }
            })
            .collect();
        JoinGraph {
            kinds,
            neighbours,
            pred_rels,
            dependent,
            deps,
        }
    }

    /// The relations each complex predicate references, in the block's
    /// `complex_preds` order.
    pub fn pred_rels(&self) -> &[RelSet] {
        &self.pred_rels
    }

    /// The relations outside `set` an equi clause connects to it.
    fn neighbours_of(&self, set: RelSet) -> RelSet {
        set.iter()
            .fold(RelSet::EMPTY, |acc, r| acc.union(self.neighbours[r]))
            .difference(set)
    }

    /// Whether two disjoint sets are connected by at least one equi clause
    /// or complex predicate (a cross join would otherwise be required).
    pub fn joinable(&self, a: RelSet, b: RelSet) -> bool {
        self.neighbours_of(a).overlaps(b)
            || self
                .pred_rels
                .iter()
                .any(|p| p.overlaps(a) && p.overlaps(b))
    }

    /// Connectivity of `set` over the join graph: grow from its first
    /// relation along every edge that stays inside `set`.
    pub fn is_connected(&self, set: RelSet) -> bool {
        let Some(start) = set.first() else {
            return false;
        };
        let mut reached = RelSet::single(start);
        loop {
            let mut next = reached.union(self.neighbours_of(reached).intersect(set));
            for &p in &self.pred_rels {
                if p.overlaps(reached) {
                    next = next.union(p.intersect(set));
                }
            }
            if next == reached {
                return reached == set;
            }
            reached = next;
        }
    }

    /// Whether every dependent relation inside `set` has its dependencies
    /// inside `set` (i.e. the set is constructible as a join result).
    pub fn deps_satisfied(&self, set: RelSet) -> bool {
        set.intersect(self.dependent)
            .iter()
            .all(|r| self.deps[r].is_subset_of(set))
    }
}

/// The relations a predicate references within the block.
fn pred_rels(block: &QueryBlock, pred: &Expr) -> RelSet {
    let mut set = RelSet::EMPTY;
    pred.walk(&mut |e| {
        if let Expr::Column(col) = e {
            if let Some(o) = block.ordinal_of(col.table) {
                set = set.with(o);
            }
        }
    });
    set
}

/// All constructible connected relation sets, ordered by size then bitmask.
///
/// Singletons are always included (they are scan leaves even when their
/// dependencies live elsewhere).
pub fn enumerate_sets(graph: &JoinGraph) -> Vec<RelSet> {
    let n = graph.kinds.len();
    assert!(
        n <= MAX_BLOCK_RELS,
        "query block too large for exhaustive enumeration"
    );
    let mut sets = Vec::new();
    for mask in 1u64..(1u64 << n) {
        let set = RelSet(mask);
        if set.len() == 1 {
            sets.push(set);
            continue;
        }
        if graph.is_connected(set) && graph.deps_satisfied(set) {
            sets.push(set);
        }
    }
    sets.sort_by_key(|s| (s.len(), s.0));
    sets
}

/// The block's join space ([`JoinSpace`]).
pub fn join_space(block: &QueryBlock) -> JoinSpace {
    let graph = JoinGraph::new(block);
    let sets = enumerate_sets(&graph)
        .into_iter()
        .filter(|set| set.len() >= 2)
        .map(|set| SetSplits {
            set,
            splits: splits(&graph, set),
        })
        .collect();
    JoinSpace { graph, sets }
}

fn rel_kind_to_join(kind: RelKind) -> JoinKind {
    match kind {
        RelKind::Inner => JoinKind::Inner,
        RelKind::Semi => JoinKind::Semi,
        RelKind::Anti => JoinKind::Anti,
        RelKind::LeftOuter => JoinKind::LeftOuter,
    }
}

/// All legal ordered splits of `set` (paper Example 3.2 walks exactly this
/// enumeration for a 3-relation query).
pub fn splits(graph: &JoinGraph, set: RelSet) -> Vec<Split> {
    let mut out = Vec::new();
    if set.len() < 2 {
        return out;
    }
    for outer in set.proper_subsets() {
        let inner = set.difference(outer);
        // The outer side must be a constructible join result.
        if !graph.deps_satisfied(outer) {
            continue;
        }
        if outer.len() > 1 && !graph.is_connected(outer) {
            continue;
        }
        // Classify the inner side.
        let kind = if inner.len() == 1 {
            let rel = inner.first().expect("singleton");
            let rk = graph.kinds[rel];
            // Dependent relation: every dependency must already be in the
            // outer side.
            if rk != RelKind::Inner && !graph.deps[rel].is_subset_of(outer) {
                continue;
            }
            rel_kind_to_join(rk)
        } else {
            // Multi-relation inner sides may not contain dependent rels
            // whose dependencies are outside, and must be connected.
            if !graph.deps_satisfied(inner) || !graph.is_connected(inner) {
                continue;
            }
            // A dependent relation that already attached *within* the inner
            // side is fine; the join between the sides is a plain join.
            JoinKind::Inner
        };
        // Dependent relations attach as the inner side only; an outer side
        // that is exactly one dependent relation is never legal.
        if outer.len() == 1 {
            let rel = outer.first().expect("singleton");
            if graph.kinds[rel] != RelKind::Inner && !graph.deps[rel].is_empty() {
                continue;
            }
        }
        if !graph.joinable(outer, inner) {
            continue;
        }
        out.push(Split { outer, inner, kind });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{chain_block, star_block, ChainSpec};
    use bfq_common::{ColumnId, TableId};
    use bfq_expr::BinOp;
    use bfq_plan::{BaseRel, EquiClause, RelSource};
    use proptest::prelude::*;

    fn chain3() -> crate::synth::Fixture {
        chain_block(&[
            ChainSpec::new("t1", 1000),
            ChainSpec::new("t2", 100),
            ChainSpec::new("t3", 50),
        ])
    }

    fn sets_of(block: &QueryBlock) -> Vec<RelSet> {
        enumerate_sets(&JoinGraph::new(block))
    }

    fn splits_of(block: &QueryBlock, set: RelSet) -> Vec<Split> {
        splits(&JoinGraph::new(block), set)
    }

    #[test]
    fn chain_sets_exclude_disconnected() {
        let fx = chain3();
        let sets = sets_of(&fx.block);
        // Singletons: 3. Pairs: {0,1}, {1,2} (NOT {0,2}). Triple: 1.
        assert_eq!(sets.len(), 3 + 2 + 1);
        assert!(!sets.contains(&RelSet::from_iter([0, 2])));
        assert!(sets.contains(&RelSet::from_iter([0, 1, 2])));
        // Ordered by size.
        assert!(sets[0].len() <= sets[5].len());
    }

    #[test]
    fn chain_splits_match_paper_example() {
        // Example 3.2 enumerates for (t1,t2,t3):
        //   (t1,t2) JOIN t3, t3 JOIN (t1,t2), (t2,t3) JOIN t1, t1 JOIN (t2,t3)
        // — note (t1,t3) is not connected so it never appears as a side.
        let fx = chain3();
        let full = RelSet::all(3);
        let got = splits_of(&fx.block, full);
        assert_eq!(got.len(), 4);
        let pairs: Vec<(u64, u64)> = got.iter().map(|s| (s.outer.0, s.inner.0)).collect();
        assert!(pairs.contains(&(0b011, 0b100)));
        assert!(pairs.contains(&(0b100, 0b011)));
        assert!(pairs.contains(&(0b110, 0b001)));
        assert!(pairs.contains(&(0b001, 0b110)));
        for s in &got {
            assert_eq!(s.kind, JoinKind::Inner);
        }
    }

    #[test]
    fn star_allows_all_dimension_orders() {
        let fx = star_block(
            ChainSpec::new("f", 10_000),
            &[ChainSpec::new("d1", 100), ChainSpec::new("d2", 100)],
        );
        let sets = sets_of(&fx.block);
        // {d1,d2} is disconnected (both connect only to the fact table).
        assert!(!sets.contains(&RelSet::from_iter([1, 2])));
        assert!(sets.contains(&RelSet::from_iter([0, 1])));
        assert!(sets.contains(&RelSet::from_iter([0, 2])));
    }

    #[test]
    fn dependent_relation_joins_as_singleton_inner() {
        let mut fx = chain3();
        fx.block.rels[2].kind = RelKind::Semi;
        let full = RelSet::all(3);
        let got = splits_of(&fx.block, full);
        // Legal shapes: t3 semi-joins last as the inner side, or it already
        // attached within a side (t2 ⋉ t3) and the final join is plain.
        assert_eq!(got.len(), 3, "{got:?}");
        let semi: Vec<_> = got.iter().filter(|s| s.kind == JoinKind::Semi).collect();
        assert_eq!(semi.len(), 1);
        assert_eq!(semi[0].inner, RelSet::single(2));
        // t3 never appears as the sole outer side, and never in a side
        // without its dependency t2.
        for s in &got {
            assert_ne!(s.outer, RelSet::single(2));
            for side in [s.outer, s.inner] {
                if side.contains(2) && side.len() > 1 {
                    assert!(side.contains(1), "t3 without t2 in {side:?}");
                }
            }
        }
        // Sets containing t3 without its dependency t2 are excluded...
        let sets = sets_of(&fx.block);
        assert!(!sets.contains(&RelSet::from_iter([0, 2])));
        // ...but the singleton {t3} leaf remains.
        assert!(sets.contains(&RelSet::single(2)));
    }

    #[test]
    fn complex_pred_provides_connectivity() {
        let mut fx = chain3();
        // Add a complex predicate between t1 and t3 (no equi clause).
        let p = Expr::binary(BinOp::Lt, Expr::col(fx.col(0, 2)), Expr::col(fx.col(2, 2)));
        fx.block.complex_preds.push(p);
        let sets = sets_of(&fx.block);
        assert!(sets.contains(&RelSet::from_iter([0, 2])));
        let graph = JoinGraph::new(&fx.block);
        assert!(graph.joinable(RelSet::single(0), RelSet::single(2)));
        assert_eq!(graph.pred_rels(), &[RelSet::from_iter([0, 2])]);
    }

    #[test]
    fn anti_relation_never_outer() {
        // Two-relation chain with an anti-joined second relation: the only
        // legal split is t1 ANTI-JOIN t2 with t2 as the inner side.
        let mut fx = chain_block(&[ChainSpec::new("t1", 1000), ChainSpec::new("t2", 100)]);
        fx.block.rels[1].kind = RelKind::Anti;
        let got = splits_of(&fx.block, RelSet::from_iter([0, 1]));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].kind, JoinKind::Anti);
        assert_eq!(got[0].inner, RelSet::single(1));
        // In the 3-chain, t2's dependencies span both neighbours, so the
        // pair {t1, t2} is not even constructible.
        let mut fx3 = chain3();
        fx3.block.rels[1].kind = RelKind::Anti;
        assert!(splits_of(&fx3.block, RelSet::from_iter([0, 1])).is_empty());
    }

    /// The join space as first written: every test rescans the block's
    /// clauses and re-walks its predicates. The oracle for the bitmask
    /// [`JoinGraph`].
    mod oracle {
        use super::super::{pred_rels, rel_kind_to_join, SetSplits, Split};
        use bfq_common::RelSet;
        use bfq_plan::{JoinKind, QueryBlock, RelKind};

        fn joinable(block: &QueryBlock, a: RelSet, b: RelSet) -> bool {
            let crosses = |l: usize, r: usize| a.contains(l) && b.contains(r);
            if block
                .equi_clauses
                .iter()
                .any(|c| crosses(c.left_rel, c.right_rel) || crosses(c.right_rel, c.left_rel))
            {
                return true;
            }
            block.complex_preds.iter().any(|p| {
                let rels = pred_rels(block, p);
                rels.overlaps(a) && rels.overlaps(b)
            })
        }

        fn is_connected(block: &QueryBlock, set: RelSet) -> bool {
            let Some(start) = set.first() else {
                return false;
            };
            if set.len() == 1 {
                return true;
            }
            let mut reached = RelSet::single(start);
            loop {
                let frontier = set.difference(reached);
                let mut grew = false;
                for rel in frontier.iter() {
                    if joinable(block, reached, RelSet::single(rel)) {
                        reached = reached.with(rel);
                        grew = true;
                    }
                }
                if reached == set {
                    return true;
                }
                if !grew {
                    return false;
                }
            }
        }

        fn deps_satisfied(block: &QueryBlock, set: RelSet) -> bool {
            set.iter().all(|rel| {
                block.rel(rel).kind == RelKind::Inner || block.dependency_of(rel).is_subset_of(set)
            })
        }

        fn enumerate_sets(block: &QueryBlock) -> Vec<RelSet> {
            let mut sets: Vec<RelSet> = (1u64..(1u64 << block.num_rels()))
                .map(RelSet)
                .filter(|&set| {
                    set.len() == 1 || (is_connected(block, set) && deps_satisfied(block, set))
                })
                .collect();
            sets.sort_by_key(|s| (s.len(), s.0));
            sets
        }

        fn splits(block: &QueryBlock, set: RelSet) -> Vec<Split> {
            let mut out = Vec::new();
            for outer in set.proper_subsets() {
                let inner = set.difference(outer);
                if !deps_satisfied(block, outer) {
                    continue;
                }
                if outer.len() > 1 && !is_connected(block, outer) {
                    continue;
                }
                let kind = if inner.len() == 1 {
                    let rel = inner.first().expect("singleton");
                    let rk = block.rel(rel).kind;
                    if rk != RelKind::Inner && !block.dependency_of(rel).is_subset_of(outer) {
                        continue;
                    }
                    rel_kind_to_join(rk)
                } else {
                    if !deps_satisfied(block, inner) || !is_connected(block, inner) {
                        continue;
                    }
                    JoinKind::Inner
                };
                if outer.len() == 1 {
                    let rel = outer.first().expect("singleton");
                    if block.rel(rel).kind != RelKind::Inner && !block.dependency_of(rel).is_empty()
                    {
                        continue;
                    }
                }
                if !joinable(block, outer, inner) {
                    continue;
                }
                out.push(Split { outer, inner, kind });
            }
            out
        }

        /// `(all sets, the join space)` under the oracle.
        pub fn space(block: &QueryBlock) -> (Vec<RelSet>, Vec<SetSplits>) {
            let sets = enumerate_sets(block);
            let space = sets
                .iter()
                .filter(|set| set.len() >= 2)
                .map(|&set| SetSplits {
                    set,
                    splits: splits(block, set),
                })
                .collect();
            (sets, space)
        }
    }

    /// A block of 2..=7 relations decoded from random bits: a chain, star
    /// or cycle of equi clauses (some doubled, as composite keys are),
    /// extra random clauses, up to three complex predicates over two or
    /// more relations each, and some relations made semi, anti or left
    /// outer.
    fn random_block(bits: &[u64]) -> QueryBlock {
        let mut words = bits.iter().copied().cycle();
        let mut rest = words.next().unwrap();
        let mut take = |n: u64| {
            if rest < n {
                rest = words.next().unwrap() | (1 << 63);
            }
            let v = rest % n;
            rest /= n;
            v
        };
        let n = 2 + take(6) as usize;
        let rel_id = |r: usize| TableId(100 + r as u32);
        let col = |r: usize, i: u32| ColumnId::new(rel_id(r), i);
        let rels = (0..n)
            .map(|r| BaseRel {
                ordinal: r,
                rel_id: rel_id(r),
                source: RelSource::Table(TableId(r as u32)),
                alias: format!("t{r}"),
                kind: match (r > 0).then(|| take(8)) {
                    Some(5) => RelKind::Semi,
                    Some(6) => RelKind::Anti,
                    Some(7) => RelKind::LeftOuter,
                    _ => RelKind::Inner,
                },
                local_preds: vec![],
            })
            .collect();
        let mut edges: Vec<(usize, usize)> = match take(3) {
            0 => (1..n).map(|r| (r - 1, r)).collect(),
            1 => (1..n).map(|r| (0, r)).collect(),
            _ => (1..n).map(|r| (r - 1, r)).chain([(n - 1, 0)]).collect(),
        };
        for _ in 0..take(3) {
            let (a, b) = (take(n as u64) as usize, take(n as u64) as usize);
            if a != b {
                edges.push((a, b));
            }
        }
        let mut equi_clauses = Vec::new();
        for (a, b) in edges {
            for key in 0..1 + take(3) / 2 {
                equi_clauses.push(EquiClause {
                    left: col(a, key as u32),
                    right: col(b, key as u32),
                    left_rel: a,
                    right_rel: b,
                });
            }
        }
        let complex_preds = (0..take(4))
            .filter_map(|_| {
                let rels: Vec<usize> = RelSet(take(1 << n)).iter().collect();
                let (&first, others) = rels.split_first()?;
                let sum = others
                    .iter()
                    .map(|&r| Expr::col(col(r, 9)))
                    .reduce(|a, b| Expr::binary(BinOp::Plus, a, b))?;
                Some(Expr::binary(BinOp::Lt, Expr::col(col(first, 9)), sum))
            })
            .collect();
        QueryBlock {
            rels,
            equi_clauses,
            complex_preds,
        }
    }

    proptest! {
        #[test]
        fn join_graph_space_matches_the_clause_scans(
            bits in proptest::collection::vec(any::<u64>(), 1..4)
        ) {
            let block = random_block(&bits);
            let (sets, expected) = oracle::space(&block);
            let graph = JoinGraph::new(&block);
            prop_assert_eq!(enumerate_sets(&graph), sets);
            let got = join_space(&block).sets;
            prop_assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                prop_assert_eq!(g.set, e.set);
                prop_assert_eq!(&g.splits, &e.splits);
            }
        }
    }

    #[test]
    fn random_blocks_cover_every_shape() {
        // The property above is only as good as the blocks it draws: make
        // sure dependent relations, complex predicates and disconnected
        // sets all occur.
        let (mut dependent, mut preds, mut pruned) = (0, 0, 0);
        for seed in 0..200u64 {
            let bits = [seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1, seed ^ 0x5555];
            let block = random_block(&bits);
            dependent += block.rels.iter().any(|r| r.kind != RelKind::Inner) as usize;
            preds += !block.complex_preds.is_empty() as usize;
            let sets = enumerate_sets(&JoinGraph::new(&block));
            pruned += (sets.len() + 1 < 1 << block.num_rels()) as usize;
        }
        assert!(
            dependent > 20 && preds > 20 && pruned > 20,
            "{dependent} {preds} {pruned}"
        );
    }
}
