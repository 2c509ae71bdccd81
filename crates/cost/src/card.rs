//! Cardinality estimation over a query block.

use std::cell::RefCell;
use std::collections::HashMap;

use bfq_catalog::Catalog;
use bfq_common::{ColumnId, RelSet};
use bfq_expr::{estimate_selectivity, Expr};
use bfq_index::IndexMode;
use bfq_plan::{Bindings, QueryBlock, RelKind, RelSource};

/// Floor applied to anti-join selectivity so estimates never hit zero.
const MIN_SEL: f64 = 1e-6;

/// A Bloom filter assumption attached to a sub-plan: "the scan of
/// `apply_rel` was reduced by a filter on `apply_col` built from `build_col`
/// over the join of the relations in `delta`" (paper §3.5's `(a, b, δ)`).
#[derive(Debug, Clone, PartialEq)]
pub struct BfAssumption {
    /// Ordinal of the relation the filter applies to.
    pub apply_rel: usize,
    /// Apply column (paper's `a`).
    pub apply_col: ColumnId,
    /// Ordinal of the relation providing the build column.
    pub build_rel: usize,
    /// Build column (paper's `b`).
    pub build_col: ColumnId,
    /// Required build-side relation set (paper's `δ`).
    pub delta: RelSet,
}

/// Cardinality estimator for one query block.
///
/// All estimates are memoized — the two bottom-up passes of BF-CBO evaluate
/// the same relation sets and δ's many times.
pub struct Estimator<'a> {
    block: &'a QueryBlock,
    bindings: &'a Bindings,
    catalog: &'a Catalog,
    /// Rows of each relation after its local predicates.
    base_rows: Vec<f64>,
    /// Local-predicate selectivity of each relation.
    base_sel: Vec<f64>,
    /// Rows a scan must actually read, after chunk-level data skipping
    /// (zone-map upper bound; equals the raw rows when indexes are off).
    read_rows: Vec<f64>,
    join_memo: RefCell<HashMap<u64, f64>>,
    ndv_memo: RefCell<HashMap<(ColumnId, u64), f64>>,
    /// [`Estimator::bf_fpr`] by the bits of the effective build NDV: the
    /// blocked-FPR walk sums a Poisson pmf term by term, and every δ
    /// combination of a relation asks for its filters' rates again.
    fpr_memo: RefCell<HashMap<u64, f64>>,
    /// Data-skipping mode in effect; with zone maps on, clustered apply
    /// columns tighten [`Estimator::bf_pass_fraction`].
    index_mode: IndexMode,
}

impl<'a> Estimator<'a> {
    /// Build an estimator, pre-computing filtered base cardinalities
    /// (no chunk-index feedback; see [`Estimator::with_index_mode`]).
    pub fn new(block: &'a QueryBlock, bindings: &'a Bindings, catalog: &'a Catalog) -> Self {
        Self::with_index_mode(block, bindings, catalog, IndexMode::Off)
    }

    /// Build an estimator that additionally consults per-chunk zone maps
    /// (`bfq-index`): each base relation's post-predicate cardinality and
    /// scan *read* volume are clamped by the rows of chunks the pruning
    /// evaluator cannot rule out, so data skipping feeds back into join
    /// ordering and Bloom-filter placement.
    pub fn with_index_mode(
        block: &'a QueryBlock,
        bindings: &'a Bindings,
        catalog: &'a Catalog,
        index_mode: IndexMode,
    ) -> Self {
        let mut base_rows = Vec::with_capacity(block.num_rels());
        let mut base_sel = Vec::with_capacity(block.num_rels());
        let mut read_rows = Vec::with_capacity(block.num_rels());
        for rel in &block.rels {
            let rows = bindings.rows(rel.rel_id).unwrap_or(1.0);
            let sel: f64 = rel
                .local_preds
                .iter()
                .map(|p| estimate_selectivity(p, bindings))
                .product();
            base_sel.push(sel);
            base_rows.push((rows * sel).max(1.0));
            read_rows.push(rows.max(1.0));
        }
        if index_mode.zonemaps() {
            for (ord, rel) in block.rels.iter().enumerate() {
                let RelSource::Table(base) = rel.source else {
                    continue;
                };
                let Some(tindex) = catalog.index(base) else {
                    continue;
                };
                let Some(pred) = Expr::conjunction(rel.local_preds.clone()) else {
                    continue;
                };
                let rel_id = rel.rel_id;
                let resolve = move |c: ColumnId| (c.table == rel_id).then_some(c.index as usize);
                let (bound, _chunks) = tindex.matching_rows(&pred, &resolve, index_mode);
                let bound = bound as f64;
                read_rows[ord] = read_rows[ord].min(bound.max(1.0));
                base_rows[ord] = base_rows[ord].min(bound).max(1.0);
            }
        }
        Estimator {
            block,
            bindings,
            catalog,
            base_rows,
            base_sel,
            read_rows,
            join_memo: RefCell::new(HashMap::new()),
            ndv_memo: RefCell::new(HashMap::new()),
            fpr_memo: RefCell::new(HashMap::new()),
            index_mode,
        }
    }

    /// Rows of relation `rel` after local predicates (before any Bloom
    /// filter).
    pub fn base_rows(&self, rel: usize) -> f64 {
        self.base_rows[rel]
    }

    /// Rows the scan of `rel` must read after chunk-level data skipping
    /// (equals [`Estimator::raw_rows`] when indexes are off).
    pub fn scan_read_rows(&self, rel: usize) -> f64 {
        self.read_rows[rel]
    }

    /// Unfiltered row count of relation `rel`.
    pub fn raw_rows(&self, rel: usize) -> f64 {
        self.bindings
            .rows(self.block.rel(rel).rel_id)
            .unwrap_or(1.0)
    }

    /// Local-predicate selectivity of relation `rel`.
    pub fn local_selectivity(&self, rel: usize) -> f64 {
        self.base_sel[rel]
    }

    /// Cardenas / distinct-after-selection: expected distinct values left
    /// when selecting `n` of `total` rows over `d` distinct values.
    pub fn distinct_after_selection(d: f64, n: f64, total: f64) -> f64 {
        if d <= 0.0 || total <= 0.0 {
            return 0.0;
        }
        if n >= total {
            return d;
        }
        if n <= 0.0 {
            return 0.0;
        }
        (d * (1.0 - (1.0 - n / total).powf(total / d))).clamp(1.0, d)
    }

    /// NDV of `col` within its relation after local predicates.
    pub fn col_ndv(&self, col: ColumnId) -> f64 {
        let Some(rel_ord) = self.block.ordinal_of(col.table) else {
            return self
                .bindings
                .column_stats(col)
                .map(|s| s.ndv)
                .unwrap_or(1.0);
        };
        let d = self
            .bindings
            .column_stats(col)
            .map(|s| s.ndv)
            .unwrap_or(1.0);
        let total = self.raw_rows(rel_ord);
        Self::distinct_after_selection(d, self.base_rows[rel_ord], total)
    }

    /// Unfiltered NDV of `col`.
    pub fn col_ndv_raw(&self, col: ColumnId) -> f64 {
        self.bindings
            .column_stats(col)
            .map(|s| s.ndv)
            .unwrap_or(1.0)
    }

    /// Estimated cardinality of the join of the relations in `set`
    /// (the "original estimate for the joined relation" the paper reverts to
    /// when a Bloom filter resolves, §3.6).
    pub fn join_card(&self, set: RelSet) -> f64 {
        if let Some(&c) = self.join_memo.borrow().get(&set.0) {
            return c;
        }
        let card = self.compute_join_card(set);
        self.join_memo.borrow_mut().insert(set.0, card);
        card
    }

    fn compute_join_card(&self, set: RelSet) -> f64 {
        // A set of dependent relations alone — the δ of a filter built from
        // an IN / EXISTS inner side — has no partner to semi-join or
        // null-extend against, so it produces what its largest member does.
        if set
            .iter()
            .all(|rel| self.block.rel(rel).kind != RelKind::Inner)
        {
            return set
                .iter()
                .map(|rel| self.base_rows[rel])
                .fold(1.0, f64::max);
        }
        let mut card = 1.0f64;
        // Freely-joined relations multiply in.
        for rel in set.iter() {
            if self.block.rel(rel).kind == RelKind::Inner {
                card *= self.base_rows[rel];
            }
        }
        // Equi clauses between inner relations divide by max NDV.
        for clause in &self.block.equi_clauses {
            if set.contains(clause.left_rel)
                && set.contains(clause.right_rel)
                && self.block.rel(clause.left_rel).kind == RelKind::Inner
                && self.block.rel(clause.right_rel).kind == RelKind::Inner
            {
                let d = self
                    .col_ndv(clause.left)
                    .max(self.col_ndv(clause.right))
                    .max(1.0);
                card /= d;
            }
        }
        // Complex predicates whose columns are all in `set`.
        for pred in &self.block.complex_preds {
            if self.pred_rels(pred).is_subset_of(set) {
                card *= estimate_selectivity(pred, self.bindings);
            }
        }
        // Dependent relations adjust multiplicatively.
        for rel in set.iter() {
            match self.block.rel(rel).kind {
                RelKind::Inner => {}
                RelKind::Semi => card *= self.dependent_semi_sel(rel, set),
                RelKind::Anti => card *= (1.0 - self.dependent_semi_sel(rel, set)).max(MIN_SEL),
                RelKind::LeftOuter => card *= self.left_outer_factor(rel, set),
            }
        }
        card.max(1.0)
    }

    /// The relations referenced by a predicate.
    fn pred_rels(&self, pred: &Expr) -> RelSet {
        let mut set = RelSet::EMPTY;
        for col in pred.columns() {
            if let Some(o) = self.block.ordinal_of(col.table) {
                set = set.with(o);
            }
        }
        set
    }

    /// Semi-join selectivity of dependent relation `rel` against the
    /// partners present in `set` (PostgreSQL-style `min(1, d_inner/d_outer)`
    /// per clause).
    fn dependent_semi_sel(&self, rel: usize, set: RelSet) -> f64 {
        let mut sel = 1.0f64;
        for clause in &self.block.equi_clauses {
            let (me, other) = if clause.left_rel == rel {
                (clause.left, (clause.right_rel, clause.right))
            } else if clause.right_rel == rel {
                (clause.right, (clause.left_rel, clause.left))
            } else {
                continue;
            };
            if !set.contains(other.0) {
                continue;
            }
            let d_inner = self.col_ndv(me);
            let d_outer = self.col_ndv(other.1).max(1.0);
            sel = sel.min((d_inner / d_outer).min(1.0));
        }
        sel
    }

    /// Expansion factor of a left-outer dependent relation: like an inner
    /// join but never below 1 (preserved rows stay).
    fn left_outer_factor(&self, rel: usize, set: RelSet) -> f64 {
        let mut factor = self.base_rows[rel];
        let mut has_clause = false;
        for clause in &self.block.equi_clauses {
            let on_me = clause.left_rel == rel || clause.right_rel == rel;
            if !on_me {
                continue;
            }
            let other = if clause.left_rel == rel {
                clause.right_rel
            } else {
                clause.left_rel
            };
            if !set.contains(other) {
                continue;
            }
            has_clause = true;
            let d = self
                .col_ndv(clause.left)
                .max(self.col_ndv(clause.right))
                .max(1.0);
            factor /= d;
        }
        if !has_clause {
            // Cross outer join — degenerate, treat as full expansion.
            return self.base_rows[rel].max(1.0);
        }
        factor.max(1.0)
    }

    /// Effective distinct values of `build_col` within the join of `delta` —
    /// the quantity that shrinks as predicate transfer kicks in (paper §3.1:
    /// `|R0 ⋉ R1| ≥ |R0 ⋉ (R1, R2, …)|`).
    pub fn effective_build_ndv(&self, build_col: ColumnId, delta: RelSet) -> f64 {
        let key = (build_col, delta.0);
        if let Some(&d) = self.ndv_memo.borrow().get(&key) {
            return d;
        }
        let d = self.compute_effective_build_ndv(build_col, delta);
        self.ndv_memo.borrow_mut().insert(key, d);
        d
    }

    fn compute_effective_build_ndv(&self, build_col: ColumnId, delta: RelSet) -> f64 {
        let Some(owner) = self.block.ordinal_of(build_col.table) else {
            return self.col_ndv_raw(build_col);
        };
        let d_total = self.col_ndv_raw(build_col);
        let owner_total = self.raw_rows(owner);
        // Rows of the owner relation that survive into the δ join: bounded by
        // both the owner's filtered rows and the join's cardinality.
        let join_rows = self.join_card(delta);
        let n_eff = self.base_rows[owner].min(join_rows);
        Self::distinct_after_selection(d_total, n_eff, owner_total)
    }

    /// Semi-join selectivity of a Bloom filter assumption (before false
    /// positives): the fraction of apply-side rows whose key appears among
    /// the effective build keys.
    pub fn bf_semi_selectivity(&self, bf: &BfAssumption) -> f64 {
        let d_build = self.effective_build_ndv(bf.build_col, bf.delta);
        let d_apply = self.col_ndv(bf.apply_col).max(1.0);
        let null_frac = self
            .bindings
            .column_stats(bf.apply_col)
            .map(|s| s.null_frac)
            .unwrap_or(0.0);
        ((d_build / d_apply).min(1.0) * (1.0 - null_frac)).clamp(0.0, 1.0)
    }

    /// False-positive rate of the filter, sized (as the runtime will size
    /// it) for the effective build NDV — including the block-collision
    /// correction ([`bfq_bloom::math::blocked_fpr`]) of the filter the
    /// runtime builds, so plan choice sees it.
    pub fn bf_fpr(&self, bf: &BfAssumption) -> f64 {
        let d_build = self.effective_build_ndv(bf.build_col, bf.delta);
        *self
            .fpr_memo
            .borrow_mut()
            .entry(d_build.to_bits())
            .or_insert_with(|| bfq_bloom::math::default_fpr(d_build))
    }

    /// Row-pass-through fraction of one Bloom filter:
    /// `sel_semi + (1 − sel_semi) · fpr` (paper §3.5).
    ///
    /// When zone maps are on and the apply column is the table's clustering
    /// column, the FPR term is tightened: rows matching the surviving build
    /// keys are physically contiguous, so chunk-level skipping with the
    /// exact key hashes the filter ships (small builds only) never reads
    /// most non-matching chunks, and false positives can only surface in
    /// the roughly `sel_semi` fraction of the table that is read at all.
    pub fn bf_pass_fraction(&self, bf: &BfAssumption) -> f64 {
        let sel = self.bf_semi_selectivity(bf);
        let fpr = self.bf_fpr(bf);
        let exposure = if self.index_mode.zonemaps() && self.is_clustered(bf.apply_col) {
            sel
        } else {
            1.0
        };
        (sel + exposure * (1.0 - sel) * fpr).clamp(0.0, 1.0)
    }

    /// Whether the apply table is physically clustered on `col` (exact
    /// sortedness recorded at stats time).
    fn is_clustered(&self, col: ColumnId) -> bool {
        self.bindings
            .column_stats(col)
            .map(|s| s.clustered)
            .unwrap_or(false)
    }

    /// Rows coming out of the scan of `rel` with the given Bloom filters
    /// applied (multiple candidates apply simultaneously, Heuristic 4).
    pub fn bf_scan_rows(&self, rel: usize, bfs: &[BfAssumption]) -> f64 {
        let mut rows = self.base_rows[rel];
        for bf in bfs {
            debug_assert_eq!(bf.apply_rel, rel);
            rows *= self.bf_pass_fraction(bf);
        }
        rows.max(1.0)
    }

    /// Cardinality of the join of `set` under outstanding (unresolved) Bloom
    /// filter assumptions — each pending filter scales the estimate by its
    /// pass fraction, exactly as it scaled the leaf scan.
    pub fn joined_rows(&self, set: RelSet, pending: &[BfAssumption]) -> f64 {
        let mut rows = self.join_card(set);
        for bf in pending {
            rows *= self.bf_pass_fraction(bf);
        }
        rows.max(1.0)
    }

    /// Whether the Bloom filter described by `bf` is *lossless* — i.e. the
    /// effective build keys cover the apply column's domain so nothing gets
    /// filtered (the Heuristic 3 test: "a foreign key on the apply side
    /// referencing a lossless primary key on the build side").
    pub fn bf_is_lossless(&self, bf: &BfAssumption) -> bool {
        // FK(apply) → unique(build): the apply keys are drawn from the build
        // domain; the filter is lossless iff the δ-join preserves the whole
        // build domain.
        let fk = self
            .bindings
            .is_foreign_key(self.catalog, bf.apply_col, bf.build_col)
            || self.bindings.is_unique(bf.build_col);
        if !fk {
            return false;
        }
        let d_total = self.col_ndv_raw(bf.build_col);
        let d_eff = self.effective_build_ndv(bf.build_col, bf.delta);
        d_eff >= d_total * 0.999
    }

    /// Access to the bindings (used by the optimizer for stats lookups).
    pub fn bindings(&self) -> &Bindings {
        self.bindings
    }

    /// Access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_common::DataType;
    use bfq_expr::BinOp;
    use bfq_plan::{BaseRel, EquiClause, RelSource};
    use bfq_storage::{Chunk, Column, Field, Schema, Table};
    use std::sync::Arc;

    /// Build a catalog with three relations shaped like the paper's running
    /// example (scaled down):
    ///   t1: 6000 rows, c2 references t2.c1
    ///   t2: 800 rows with a filterable c3
    ///   t3: 1000 rows, PK c1; t2.c2 is an FK of t3.c1
    fn fixture() -> (Catalog, QueryBlock, Bindings) {
        let mut cat = Catalog::new();

        // t2 first (both others reference it conceptually).
        let t2_schema = Arc::new(Schema::new(vec![
            Field::new("c1", DataType::Int64),
            Field::new("c2", DataType::Int64),
            Field::new("c3", DataType::Int64),
        ]));
        let t2_rows = 800usize;
        let t2_chunk = Chunk::new(vec![
            Arc::new(Column::Int64((0..t2_rows as i64).collect(), None)),
            Arc::new(Column::Int64(
                (0..t2_rows as i64).map(|i| i % 1000).collect(),
                None,
            )),
            Arc::new(Column::Int64(
                (0..t2_rows as i64).map(|i| i % 200).collect(),
                None,
            )),
        ])
        .unwrap();
        let t2 = cat
            .register(
                Table::new("t2", t2_schema, vec![t2_chunk]).unwrap(),
                vec![0],
            )
            .unwrap();

        let t1_schema = Arc::new(Schema::new(vec![
            Field::new("c1", DataType::Int64),
            Field::new("c2", DataType::Int64),
        ]));
        let t1_rows = 6000usize;
        let t1_chunk = Chunk::new(vec![
            Arc::new(Column::Int64((0..t1_rows as i64).collect(), None)),
            Arc::new(Column::Int64(
                (0..t1_rows as i64).map(|i| i % 800).collect(),
                None,
            )),
        ])
        .unwrap();
        let t1 = cat
            .register(
                Table::new("t1", t1_schema, vec![t1_chunk]).unwrap(),
                vec![0],
            )
            .unwrap();

        let t3_schema = Arc::new(Schema::new(vec![Field::new("c1", DataType::Int64)]));
        let t3_rows = 1000usize;
        let t3_chunk = Chunk::new(vec![Arc::new(Column::Int64(
            (0..t3_rows as i64).collect(),
            None,
        ))])
        .unwrap();
        let t3 = cat
            .register(
                Table::new("t3", t3_schema, vec![t3_chunk]).unwrap(),
                vec![0],
            )
            .unwrap();

        // FK: t1.c2 -> t2.c1 and t2.c2 -> t3.c1.
        cat.add_foreign_key(ColumnId::new(t1, 1), ColumnId::new(t2, 0))
            .unwrap();
        cat.add_foreign_key(ColumnId::new(t2, 1), ColumnId::new(t3, 0))
            .unwrap();

        let mut bindings = Bindings::new();
        let v1 = bindings.bind_table(&cat, t1).unwrap();
        let v2 = bindings.bind_table(&cat, t2).unwrap();
        let v3 = bindings.bind_table(&cat, t3).unwrap();

        // t2 filtered: c3 < 100 (half of the 0..200 domain).
        let t2_pred = Expr::binary(BinOp::Lt, Expr::col(ColumnId::new(v2, 2)), Expr::int(100));
        let block = QueryBlock {
            rels: vec![
                BaseRel {
                    ordinal: 0,
                    rel_id: v1,
                    source: RelSource::Table(t1),
                    alias: "t1".into(),
                    kind: RelKind::Inner,
                    local_preds: vec![],
                },
                BaseRel {
                    ordinal: 1,
                    rel_id: v2,
                    source: RelSource::Table(t2),
                    alias: "t2".into(),
                    kind: RelKind::Inner,
                    local_preds: vec![t2_pred],
                },
                BaseRel {
                    ordinal: 2,
                    rel_id: v3,
                    source: RelSource::Table(t3),
                    alias: "t3".into(),
                    kind: RelKind::Inner,
                    local_preds: vec![],
                },
            ],
            equi_clauses: vec![
                EquiClause {
                    left: ColumnId::new(v1, 1),
                    right: ColumnId::new(v2, 0),
                    left_rel: 0,
                    right_rel: 1,
                },
                EquiClause {
                    left: ColumnId::new(v2, 1),
                    right: ColumnId::new(v3, 0),
                    left_rel: 1,
                    right_rel: 2,
                },
            ],
            complex_preds: vec![],
        };
        (cat, block, bindings)
    }

    fn vcol(block: &QueryBlock, rel: usize, idx: u32) -> ColumnId {
        ColumnId::new(block.rel(rel).rel_id, idx)
    }

    #[test]
    fn base_rows_apply_local_selectivity() {
        let (cat, block, bindings) = fixture();
        let est = Estimator::new(&block, &bindings, &cat);
        assert_eq!(est.base_rows(0), 6000.0);
        // c3 < 100 over uniform 0..200 -> about half.
        assert!((est.base_rows(1) - 400.0).abs() < 40.0);
        assert_eq!(est.base_rows(2), 1000.0);
        assert!(est.local_selectivity(1) < 0.6);
    }

    #[test]
    fn distinct_after_selection_behaviour() {
        // Selecting everything keeps all distincts.
        assert_eq!(
            Estimator::distinct_after_selection(100.0, 1000.0, 1000.0),
            100.0
        );
        // Tiny samples keep few distincts.
        let d = Estimator::distinct_after_selection(100.0, 10.0, 1000.0);
        assert!(d > 5.0 && d < 15.0, "{d}");
        // Unique column: distincts track rows selected.
        let d = Estimator::distinct_after_selection(1000.0, 10.0, 1000.0);
        assert!((d - 10.0).abs() < 1.0, "{d}");
        assert_eq!(Estimator::distinct_after_selection(0.0, 10.0, 100.0), 0.0);
    }

    #[test]
    fn join_cardinality_uses_ndv_containment() {
        let (cat, block, bindings) = fixture();
        let est = Estimator::new(&block, &bindings, &cat);
        // t1 join t2 on t1.c2 = t2.c1 (t2 filtered to ~400 of 800 keys).
        // |t1|*|t2f| / max(ndv) = 6000*400/800 = 3000.
        let card = est.join_card(RelSet::from_iter([0, 1]));
        assert!(card > 1500.0 && card < 4500.0, "card = {card}");
        // Memoization returns identical results.
        assert_eq!(card, est.join_card(RelSet::from_iter([0, 1])));
        // Full 3-way join is no larger than t1-t2 expansion by t3 clause.
        let full = est.join_card(RelSet::from_iter([0, 1, 2]));
        assert!(full <= card * 1.01, "full {full} vs pair {card}");
    }

    #[test]
    fn effective_build_ndv_shrinks_with_delta() {
        let (cat, block, bindings) = fixture();
        let est = Estimator::new(&block, &bindings, &cat);
        // Build column t2.c1 with δ = {t2}: ~half the keys survive the filter.
        let d_small = est.effective_build_ndv(vcol(&block, 1, 0), RelSet::single(1));
        assert!(d_small < 500.0, "{d_small}");
        // δ = {t2, t3}: join with t3 cannot increase distinct keys.
        let d_big = est.effective_build_ndv(vcol(&block, 1, 0), RelSet::from_iter([1, 2]));
        assert!(d_big <= d_small * 1.01, "{d_big} vs {d_small}");
    }

    #[test]
    fn bf_selectivity_and_rows() {
        let (cat, block, bindings) = fixture();
        let est = Estimator::new(&block, &bindings, &cat);
        // Filter on t1.c2 built from t2.c1 with δ={t2}.
        let bf = BfAssumption {
            apply_rel: 0,
            apply_col: vcol(&block, 0, 1),
            build_rel: 1,
            build_col: vcol(&block, 1, 0),
            delta: RelSet::single(1),
        };
        let sel = est.bf_semi_selectivity(&bf);
        // t2 halved -> about half of t1's keys survive.
        assert!(sel > 0.3 && sel < 0.7, "sel = {sel}");
        let fpr = est.bf_fpr(&bf);
        assert!(fpr > 0.0 && fpr < 0.1);
        let rows = est.bf_scan_rows(0, std::slice::from_ref(&bf));
        assert!(rows < 6000.0 * 0.7 && rows > 6000.0 * 0.3, "rows = {rows}");
        // Pending-filter join estimate scales the same way.
        let joined = est.joined_rows(RelSet::from_iter([0, 2]), std::slice::from_ref(&bf));
        let plain = est.join_card(RelSet::from_iter([0, 2]));
        assert!(joined < plain);
    }

    #[test]
    fn memoized_fpr_is_each_build_ndvs_own_walk() {
        let (cat, block, bindings) = fixture();
        let est = Estimator::new(&block, &bindings, &cat);
        // Filters on t2.c2 from t3 (unfiltered, 1000 keys) and on t1.c2
        // from t2 (filtered to about 400): two build NDVs, asked in turn.
        let from_t3 = BfAssumption {
            apply_rel: 1,
            apply_col: vcol(&block, 1, 1),
            build_rel: 2,
            build_col: vcol(&block, 2, 0),
            delta: RelSet::single(2),
        };
        let from_t2 = BfAssumption {
            apply_rel: 0,
            apply_col: vcol(&block, 0, 1),
            build_rel: 1,
            build_col: vcol(&block, 1, 0),
            delta: RelSet::single(1),
        };
        let walk = |bf: &BfAssumption| {
            let d_build = est.effective_build_ndv(bf.build_col, bf.delta);
            bfq_bloom::math::default_fpr(d_build).to_bits()
        };
        assert_ne!(walk(&from_t3), walk(&from_t2));
        for bf in [&from_t3, &from_t2, &from_t3, &from_t2] {
            assert_eq!(est.bf_fpr(bf).to_bits(), walk(bf));
        }
    }

    #[test]
    fn lossless_fk_detection() {
        let (cat, block, bindings) = fixture();
        let est = Estimator::new(&block, &bindings, &cat);
        // t1.c2 -> t2.c1 is an FK, but t2 is filtered, so NOT lossless.
        let filtered = BfAssumption {
            apply_rel: 0,
            apply_col: vcol(&block, 0, 1),
            build_rel: 1,
            build_col: vcol(&block, 1, 0),
            delta: RelSet::single(1),
        };
        assert!(!est.bf_is_lossless(&filtered));
        // t2.c2 -> t3.c1 FK with t3 unfiltered: lossless — filter would
        // remove nothing (Heuristic 3 scenario).
        let lossless = BfAssumption {
            apply_rel: 1,
            apply_col: vcol(&block, 1, 1),
            build_rel: 2,
            build_col: vcol(&block, 2, 0),
            delta: RelSet::single(2),
        };
        assert!(est.bf_is_lossless(&lossless));
    }

    #[test]
    fn index_mode_clamps_base_and_read_rows() {
        // Two chunks clustered on c0: [0, 100) and [100, 200). A predicate
        // touching only the first chunk should clamp both the scan's read
        // volume and its output estimate under zone-map feedback.
        let mut cat = Catalog::new();
        let schema = Arc::new(bfq_storage::Schema::new(vec![bfq_storage::Field::new(
            "c0",
            DataType::Int64,
        )]));
        let chunk = |lo: i64| {
            Chunk::new(vec![Arc::new(Column::Int64(
                (lo..lo + 100).collect(),
                None,
            ))])
            .unwrap()
        };
        let t = cat
            .register(
                Table::new("t", schema, vec![chunk(0), chunk(100)]).unwrap(),
                vec![0],
            )
            .unwrap();
        let mut bindings = Bindings::new();
        let v = bindings.bind_table(&cat, t).unwrap();
        let pred = Expr::binary(BinOp::Lt, Expr::col(ColumnId::new(v, 0)), Expr::int(50));
        let block = QueryBlock {
            rels: vec![BaseRel {
                ordinal: 0,
                rel_id: v,
                source: RelSource::Table(t),
                alias: "t".into(),
                kind: RelKind::Inner,
                local_preds: vec![pred],
            }],
            equi_clauses: vec![],
            complex_preds: vec![],
        };
        let off = Estimator::new(&block, &bindings, &cat);
        assert_eq!(off.scan_read_rows(0), 200.0);
        let zoned =
            Estimator::with_index_mode(&block, &bindings, &cat, bfq_index::IndexMode::ZoneMap);
        assert_eq!(zoned.scan_read_rows(0), 100.0);
        assert!(zoned.base_rows(0) <= 100.0);
        assert!(zoned.base_rows(0) <= off.base_rows(0));
    }

    #[test]
    fn clustered_apply_column_tightens_pass_fraction() {
        let (cat, block, bindings) = fixture();
        // t1.c1 is 0..6000 in row order — the table's clustering column;
        // t1.c2 (i % 800) is not.
        let clustered = BfAssumption {
            apply_rel: 0,
            apply_col: vcol(&block, 0, 0),
            build_rel: 1,
            build_col: vcol(&block, 1, 0),
            delta: RelSet::single(1),
        };
        let shuffled = BfAssumption {
            apply_col: vcol(&block, 0, 1),
            ..clustered.clone()
        };
        let off = Estimator::new(&block, &bindings, &cat);
        let zoned =
            Estimator::with_index_mode(&block, &bindings, &cat, bfq_index::IndexMode::ZoneMap);
        // With zone maps, the clustered column's FPR exposure shrinks to
        // the matching fraction: sel + sel·(1−sel)·fpr.
        let sel = zoned.bf_semi_selectivity(&clustered);
        let fpr = zoned.bf_fpr(&clustered);
        let tightened = zoned.bf_pass_fraction(&clustered);
        assert!((tightened - (sel + sel * (1.0 - sel) * fpr)).abs() < 1e-12);
        assert!(tightened < off.bf_pass_fraction(&clustered));
        // Without zone maps there is nothing to skip; unclustered apply
        // columns keep the untightened §3.5 formula either way.
        let sel_off = off.bf_semi_selectivity(&clustered);
        let fpr_off = off.bf_fpr(&clustered);
        assert!(
            (off.bf_pass_fraction(&clustered) - (sel_off + (1.0 - sel_off) * fpr_off)).abs()
                < 1e-12
        );
        assert_eq!(
            zoned.bf_pass_fraction(&shuffled),
            off.bf_pass_fraction(&shuffled)
        );
    }

    #[test]
    fn semi_join_dependent_relation() {
        let (cat, mut block, bindings) = fixture();
        block.rels[2].kind = RelKind::Semi;
        let est = Estimator::new(&block, &bindings, &cat);
        // Semi t3 cannot expand the t1-t2 join.
        let with_semi = est.join_card(RelSet::from_iter([0, 1, 2]));
        let without = est.join_card(RelSet::from_iter([0, 1]));
        assert!(with_semi <= without * 1.01);
    }

    #[test]
    fn anti_join_dependent_relation() {
        let (cat, mut block, bindings) = fixture();
        block.rels[2].kind = RelKind::Anti;
        let est = Estimator::new(&block, &bindings, &cat);
        let with_anti = est.join_card(RelSet::from_iter([0, 1, 2]));
        let without = est.join_card(RelSet::from_iter([0, 1]));
        assert!(with_anti <= without * 1.01);
        assert!(with_anti >= 1.0);
    }

    const KINDS: [RelKind; 4] = [
        RelKind::Inner,
        RelKind::Semi,
        RelKind::Anti,
        RelKind::LeftOuter,
    ];

    #[test]
    fn singleton_set_produces_its_base_rows_for_every_kind() {
        for kind in KINDS {
            let (cat, mut block, bindings) = fixture();
            for rel in &mut block.rels {
                rel.kind = kind;
            }
            let est = Estimator::new(&block, &bindings, &cat);
            for r in 0..block.num_rels() {
                assert_eq!(
                    est.join_card(RelSet::single(r)),
                    est.base_rows(r),
                    "{kind:?} rel {r}"
                );
            }
        }
    }

    #[test]
    fn dependent_owner_delta_keeps_the_owners_ndv() {
        // t2 as the inner side of an IN / EXISTS: a filter on t2.c1 built
        // from δ = {t2} holds every key t2's local predicate keeps.
        for kind in [RelKind::Semi, RelKind::Anti, RelKind::LeftOuter] {
            let (cat, mut block, bindings) = fixture();
            block.rels[1].kind = kind;
            let est = Estimator::new(&block, &bindings, &cat);
            let col = vcol(&block, 1, 0);
            assert_eq!(
                est.effective_build_ndv(col, RelSet::single(1)),
                est.col_ndv(col),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn dependent_only_delta_is_never_below_its_largest_member() {
        for kind in [RelKind::Semi, RelKind::Anti, RelKind::LeftOuter] {
            let (cat, mut block, bindings) = fixture();
            block.rels[1].kind = kind;
            block.rels[2].kind = kind;
            let est = Estimator::new(&block, &bindings, &cat);
            let delta = RelSet::from_iter([1, 2]);
            let largest = est.base_rows(1).max(est.base_rows(2));
            assert!(est.join_card(delta) >= largest, "{kind:?}");
        }
    }

    #[test]
    fn left_outer_never_shrinks_preserved_side() {
        let (cat, mut block, bindings) = fixture();
        block.rels[2].kind = RelKind::LeftOuter;
        let est = Estimator::new(&block, &bindings, &cat);
        let with_outer = est.join_card(RelSet::from_iter([0, 1, 2]));
        let preserved = est.join_card(RelSet::from_iter([0, 1]));
        assert!(with_outer >= preserved * 0.99);
    }
}
