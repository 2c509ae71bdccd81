//! Join-order enumeration utilities shared by both bottom-up passes.
//!
//! Both phases walk the same space: connected relation sets in increasing
//! size, split into ordered `(outer, inner)` pairs. Dependent relations
//! (semi/anti/left-outer) constrain the space — they join as a singleton
//! inner side once all their join partners are available.

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

/// The relations a predicate references within the block.
pub fn pred_rels(block: &QueryBlock, pred: &Expr) -> RelSet {
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

/// Whether two disjoint sets are connected by at least one equi clause or
/// complex predicate (a cross join would otherwise be required).
pub fn joinable(block: &QueryBlock, a: RelSet, b: RelSet) -> bool {
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

/// Connectivity over the join graph whose edges are equi clauses *and*
/// complex predicates.
pub fn is_connected(block: &QueryBlock, set: RelSet) -> bool {
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

/// Whether every dependent relation inside `set` has its dependencies
/// inside `set` (i.e. the set is constructible as a join result).
pub fn deps_satisfied(block: &QueryBlock, set: RelSet) -> bool {
    for rel in set.iter() {
        if block.rel(rel).kind != RelKind::Inner && !block.dependency_of(rel).is_subset_of(set) {
            return false;
        }
    }
    true
}

/// All constructible connected relation sets, ordered by size then bitmask.
///
/// Singletons are always included (they are scan leaves even when their
/// dependencies live elsewhere).
pub fn enumerate_sets(block: &QueryBlock) -> Vec<RelSet> {
    let n = block.num_rels();
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
        if is_connected(block, set) && deps_satisfied(block, set) {
            sets.push(set);
        }
    }
    sets.sort_by_key(|s| (s.len(), s.0));
    sets
}

/// The block's join space: every constructible connected set of two or
/// more relations, in [`enumerate_sets`] order, with its legal splits. Both
/// bottom-up phases walk it; the driver computes it once per block.
pub fn join_space(block: &QueryBlock) -> Vec<SetSplits> {
    enumerate_sets(block)
        .into_iter()
        .filter(|set| set.len() >= 2)
        .map(|set| SetSplits {
            set,
            splits: splits(block, set),
        })
        .collect()
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
pub fn splits(block: &QueryBlock, set: RelSet) -> Vec<Split> {
    let mut out = Vec::new();
    if set.len() < 2 {
        return out;
    }
    for outer in set.proper_subsets() {
        let inner = set.difference(outer);
        // The outer side must be a constructible join result.
        if !deps_satisfied(block, outer) {
            continue;
        }
        if outer.len() > 1 && !is_connected(block, outer) {
            continue;
        }
        // Classify the inner side.
        let kind = if inner.len() == 1 {
            let rel = inner.first().expect("singleton");
            let rk = block.rel(rel).kind;
            if rk != RelKind::Inner {
                // Dependent relation: every dependency must already be in
                // the outer side.
                if !block.dependency_of(rel).is_subset_of(outer) {
                    continue;
                }
            }
            rel_kind_to_join(rk)
        } else {
            // Multi-relation inner sides may not contain dependent rels
            // whose dependencies are outside, and must be connected.
            if !deps_satisfied(block, inner) || !is_connected(block, inner) {
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
            if block.rel(rel).kind != RelKind::Inner && !block.dependency_of(rel).is_empty() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{chain_block, star_block, ChainSpec};

    fn chain3() -> crate::synth::Fixture {
        chain_block(&[
            ChainSpec::new("t1", 1000),
            ChainSpec::new("t2", 100),
            ChainSpec::new("t3", 50),
        ])
    }

    #[test]
    fn chain_sets_exclude_disconnected() {
        let fx = chain3();
        let sets = enumerate_sets(&fx.block);
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
        let got = splits(&fx.block, full);
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
        let sets = enumerate_sets(&fx.block);
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
        let got = splits(&fx.block, full);
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
        let sets = enumerate_sets(&fx.block);
        assert!(!sets.contains(&RelSet::from_iter([0, 2])));
        // ...but the singleton {t3} leaf remains.
        assert!(sets.contains(&RelSet::single(2)));
    }

    #[test]
    fn complex_pred_provides_connectivity() {
        let mut fx = chain3();
        // Add a complex predicate between t1 and t3 (no equi clause).
        let p = bfq_expr::Expr::binary(
            bfq_expr::BinOp::Lt,
            bfq_expr::Expr::col(fx.col(0, 2)),
            bfq_expr::Expr::col(fx.col(2, 2)),
        );
        fx.block.complex_preds.push(p);
        let sets = enumerate_sets(&fx.block);
        assert!(sets.contains(&RelSet::from_iter([0, 2])));
        assert!(joinable(&fx.block, RelSet::single(0), RelSet::single(2)));
    }

    #[test]
    fn anti_relation_never_outer() {
        // Two-relation chain with an anti-joined second relation: the only
        // legal split is t1 ANTI-JOIN t2 with t2 as the inner side.
        let mut fx = chain_block(&[ChainSpec::new("t1", 1000), ChainSpec::new("t2", 100)]);
        fx.block.rels[1].kind = RelKind::Anti;
        let got = splits(&fx.block, RelSet::from_iter([0, 1]));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].kind, JoinKind::Anti);
        assert_eq!(got[0].inner, RelSet::single(1));
        // In the 3-chain, t2's dependencies span both neighbours, so the
        // pair {t1, t2} is not even constructible.
        let mut fx3 = chain3();
        fx3.block.rels[1].kind = RelKind::Anti;
        assert!(splits(&fx3.block, RelSet::from_iter([0, 1])).is_empty());
    }
}
