//! Query blocks and relation bindings.
//!
//! The binder assigns every relation occurrence in a block — base table,
//! repeated alias (`nation n1, nation n2`), or derived table — a fresh
//! *virtual* [`TableId`]. Expressions reference columns through these virtual
//! ids, so `n1.n_name` and `n2.n_name` stay distinct everywhere. The
//! [`Bindings`] side table maps virtual ids back to base tables (for data
//! access and statistics) or to derived sub-plans.

use std::collections::HashMap;

use bfq_catalog::{Catalog, ColumnStats, TableStats};
use bfq_common::{BfqError, ColumnId, RelSet, Result, TableId};
use bfq_expr::selectivity::{ColStatsView, StatsProvider};
use bfq_expr::Expr;
use bfq_storage::SchemaRef;

use crate::logical::LogicalPlan;

/// How a relation participates in its block's join structure.
///
/// `Inner` relations are freely reorderable by the DP. The other kinds are
/// *dependent*: they attach to the rest of the block as the inner side of the
/// stated join once all their join partners are available. This is how
/// decorrelated `EXISTS` / `NOT EXISTS` / `IN` subqueries and `LEFT JOIN`
/// enter bottom-up optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelKind {
    /// Plain inner-join participant.
    Inner,
    /// Attaches via `LEFT SEMI JOIN` (EXISTS / IN).
    Semi,
    /// Attaches via `LEFT ANTI JOIN` (NOT EXISTS / NOT IN).
    Anti,
    /// Attaches via `LEFT OUTER JOIN`; the rest of the block is the
    /// row-preserving side.
    LeftOuter,
}

/// The data source behind a block relation.
#[derive(Debug, Clone)]
pub enum RelSource {
    /// A catalog base table.
    Table(TableId),
    /// A derived table (sub-select in FROM) or decorrelated subquery,
    /// planned as its own tree whose output acts as this relation.
    Derived(Box<LogicalPlan>),
}

/// One relation occurrence in a query block.
#[derive(Debug, Clone)]
pub struct BaseRel {
    /// Position in the block; bit `ordinal` in every [`RelSet`].
    pub ordinal: usize,
    /// The virtual table id expressions use for this relation's columns.
    pub rel_id: TableId,
    /// Data source.
    pub source: RelSource,
    /// Display alias.
    pub alias: String,
    /// How the relation attaches to the block (see [`RelKind`]).
    pub kind: RelKind,
    /// Single-relation predicates (pushed into the scan).
    pub local_preds: Vec<Expr>,
}

/// An equality join clause `left = right` between two block relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquiClause {
    /// Column on one side (virtual id).
    pub left: ColumnId,
    /// Column on the other side (virtual id).
    pub right: ColumnId,
    /// Ordinal of the relation owning `left`.
    pub left_rel: usize,
    /// Ordinal of the relation owning `right`.
    pub right_rel: usize,
}

impl EquiClause {
    /// The set of the two relations this clause connects.
    pub fn rels(&self) -> RelSet {
        RelSet::single(self.left_rel).with(self.right_rel)
    }

    /// Given one side's ordinal, the column on that side (if the clause
    /// touches it).
    pub fn column_for(&self, rel: usize) -> Option<ColumnId> {
        if self.left_rel == rel {
            Some(self.left)
        } else if self.right_rel == rel {
            Some(self.right)
        } else {
            None
        }
    }
}

/// A single select-project-join block — the optimizer's unit of work.
#[derive(Debug, Clone, Default)]
pub struct QueryBlock {
    /// Relations, indexed by ordinal.
    pub rels: Vec<BaseRel>,
    /// Equality join clauses.
    pub equi_clauses: Vec<EquiClause>,
    /// Multi-relation predicates that are not simple equalities (e.g. the
    /// OR-of-nation-pairs in TPC-H Q7); evaluated at the first join where
    /// all referenced relations are present.
    pub complex_preds: Vec<Expr>,
}

impl QueryBlock {
    /// Number of relations.
    pub fn num_rels(&self) -> usize {
        self.rels.len()
    }

    /// The relation with ordinal `i`.
    pub fn rel(&self, i: usize) -> &BaseRel {
        &self.rels[i]
    }

    /// Ordinal of the relation with virtual id `rel_id`.
    pub fn ordinal_of(&self, rel_id: TableId) -> Option<usize> {
        self.rels.iter().position(|r| r.rel_id == rel_id)
    }

    /// The set of freely-reorderable (`Inner`) relations.
    pub fn inner_rels(&self) -> RelSet {
        RelSet::from_iter(
            self.rels
                .iter()
                .filter(|r| r.kind == RelKind::Inner)
                .map(|r| r.ordinal),
        )
    }

    /// The relations a dependent relation's clauses reference besides itself
    /// (it may attach only after all of these are joined).
    pub fn dependency_of(&self, ordinal: usize) -> RelSet {
        let mut deps = RelSet::EMPTY;
        for c in &self.equi_clauses {
            if c.left_rel == ordinal {
                deps = deps.with(c.right_rel);
            } else if c.right_rel == ordinal {
                deps = deps.with(c.left_rel);
            }
        }
        for p in &self.complex_preds {
            let cols = p.columns();
            let touches_me = cols
                .iter()
                .any(|c| self.ordinal_of(c.table) == Some(ordinal));
            if touches_me {
                for c in cols {
                    if let Some(o) = self.ordinal_of(c.table) {
                        if o != ordinal {
                            deps = deps.with(o);
                        }
                    }
                }
            }
        }
        deps
    }

    /// Equi clauses connecting `left` and `right` (one rel on each side).
    pub fn clauses_between(&self, left: RelSet, right: RelSet) -> Vec<EquiClause> {
        self.equi_clauses
            .iter()
            .filter(|c| {
                (left.contains(c.left_rel) && right.contains(c.right_rel))
                    || (left.contains(c.right_rel) && right.contains(c.left_rel))
            })
            .copied()
            .collect()
    }
}

/// What a virtual table id is bound to.
#[derive(Debug, Clone)]
pub struct RelBinding {
    /// The virtual id.
    pub rel_id: TableId,
    /// Underlying catalog table, if this is a base-table occurrence.
    pub base: Option<TableId>,
    /// Output schema of the relation.
    pub schema: SchemaRef,
    /// Statistics (copied from the catalog for base tables; estimated by the
    /// planner for derived relations).
    pub stats: TableStats,
    /// Ordinals of unique columns.
    pub unique_columns: Vec<u32>,
}

/// Side table mapping virtual table ids to their bindings.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    map: HashMap<TableId, RelBinding>,
    next_virtual: u32,
}

/// Virtual table ids start here; catalog ids are far below this.
pub const FIRST_VIRTUAL_TABLE: u32 = 1 << 24;

impl Bindings {
    /// Empty bindings.
    pub fn new() -> Self {
        Bindings {
            map: HashMap::new(),
            next_virtual: FIRST_VIRTUAL_TABLE,
        }
    }

    /// Allocate a fresh virtual table id.
    pub fn fresh_id(&mut self) -> TableId {
        let id = TableId(self.next_virtual);
        self.next_virtual += 1;
        id
    }

    /// Bind a base-table occurrence to a fresh virtual id, copying schema,
    /// stats and uniqueness from the catalog.
    pub fn bind_table(&mut self, catalog: &Catalog, base: TableId) -> Result<TableId> {
        let meta = catalog.meta(base)?;
        let rel_id = self.fresh_id();
        self.map.insert(
            rel_id,
            RelBinding {
                rel_id,
                base: Some(base),
                schema: meta.schema.clone(),
                stats: meta.stats.clone(),
                unique_columns: meta.unique_columns.clone(),
            },
        );
        Ok(rel_id)
    }

    /// Bind a derived relation under a specific (previously allocated) id.
    pub fn insert_binding(&mut self, rel_id: TableId, schema: SchemaRef, stats: TableStats) {
        self.map.insert(
            rel_id,
            RelBinding {
                rel_id,
                base: None,
                schema,
                stats,
                unique_columns: vec![],
            },
        );
    }

    /// Bind a derived relation (planner-estimated stats).
    pub fn bind_derived(
        &mut self,
        schema: SchemaRef,
        stats: TableStats,
        unique_columns: Vec<u32>,
    ) -> TableId {
        let rel_id = self.fresh_id();
        self.map.insert(
            rel_id,
            RelBinding {
                rel_id,
                base: None,
                schema,
                stats,
                unique_columns,
            },
        );
        rel_id
    }

    /// The binding for `rel_id`.
    pub fn get(&self, rel_id: TableId) -> Result<&RelBinding> {
        self.map
            .get(&rel_id)
            .ok_or_else(|| BfqError::internal(format!("unbound relation id {rel_id}")))
    }

    /// Update the stats stored for `rel_id` (used after planning a derived
    /// relation).
    pub fn set_stats(&mut self, rel_id: TableId, stats: TableStats) -> Result<()> {
        let b = self
            .map
            .get_mut(&rel_id)
            .ok_or_else(|| BfqError::internal(format!("unbound relation id {rel_id}")))?;
        b.stats = stats;
        Ok(())
    }

    /// Map a virtual column to its base-table column, if any.
    pub fn base_column(&self, col: ColumnId) -> Option<ColumnId> {
        let b = self.map.get(&col.table)?;
        b.base.map(|t| ColumnId::new(t, col.index))
    }

    /// Column statistics for a (virtual) column.
    pub fn column_stats(&self, col: ColumnId) -> Option<&ColumnStats> {
        self.map
            .get(&col.table)?
            .stats
            .columns
            .get(col.index as usize)
    }

    /// Row count of the relation owning `rel_id`.
    pub fn rows(&self, rel_id: TableId) -> Option<f64> {
        self.map.get(&rel_id).map(|b| b.stats.rows)
    }

    /// Whether `col` carries a single-column uniqueness guarantee.
    pub fn is_unique(&self, col: ColumnId) -> bool {
        self.map
            .get(&col.table)
            .is_some_and(|b| b.unique_columns.contains(&col.index))
    }

    /// Whether `from = to` is a foreign key → unique key clause, consulting
    /// the catalog through the virtual→base mapping.
    pub fn is_foreign_key(&self, catalog: &Catalog, from: ColumnId, to: ColumnId) -> bool {
        match (self.base_column(from), self.base_column(to)) {
            (Some(f), Some(t)) => catalog.is_foreign_key(f, t),
            _ => false,
        }
    }

    /// Pretty name for a column (alias-aware callers should prefer their own
    /// resolver; this falls back to schema names).
    pub fn column_name(&self, col: ColumnId) -> String {
        match self.map.get(&col.table) {
            Some(b) => b
                .schema
                .fields()
                .get(col.index as usize)
                .map(|f| f.name.clone())
                .unwrap_or_else(|| col.to_string()),
            None => col.to_string(),
        }
    }
}

impl StatsProvider for Bindings {
    fn stats(&self, col: ColumnId) -> Option<ColStatsView> {
        let b = self.map.get(&col.table)?;
        let cs = b.stats.columns.get(col.index as usize)?;
        Some(ColStatsView {
            rows: b.stats.rows,
            ndv: cs.ndv,
            null_frac: cs.null_frac,
            min: cs.min.as_ref().and_then(|d| d.as_f64()),
            max: cs.max.as_ref().and_then(|d| d.as_f64()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_common::{DataType, Datum};
    use bfq_storage::{Chunk, Column, Field, Schema, Table};
    use std::sync::Arc;

    fn catalog_with(name: &str, keys: &[i64]) -> (Catalog, TableId) {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let chunk = Chunk::new(vec![Arc::new(Column::Int64(keys.to_vec(), None))]).unwrap();
        let table = Table::new(name, schema, vec![chunk]).unwrap();
        let mut cat = Catalog::new();
        let id = cat.register(table, vec![0]).unwrap();
        (cat, id)
    }

    fn two_rel_block() -> QueryBlock {
        let r0 = TableId(FIRST_VIRTUAL_TABLE);
        let r1 = TableId(FIRST_VIRTUAL_TABLE + 1);
        QueryBlock {
            rels: vec![
                BaseRel {
                    ordinal: 0,
                    rel_id: r0,
                    source: RelSource::Table(TableId(0)),
                    alias: "a".into(),
                    kind: RelKind::Inner,
                    local_preds: vec![],
                },
                BaseRel {
                    ordinal: 1,
                    rel_id: r1,
                    source: RelSource::Table(TableId(0)),
                    alias: "b".into(),
                    kind: RelKind::Inner,
                    local_preds: vec![],
                },
            ],
            equi_clauses: vec![EquiClause {
                left: ColumnId::new(r0, 0),
                right: ColumnId::new(r1, 0),
                left_rel: 0,
                right_rel: 1,
            }],
            complex_preds: vec![],
        }
    }

    #[test]
    fn bindings_allocate_distinct_virtual_ids() {
        let (cat, base) = catalog_with("t", &[1, 2, 3]);
        let mut b = Bindings::new();
        let v1 = b.bind_table(&cat, base).unwrap();
        let v2 = b.bind_table(&cat, base).unwrap();
        assert_ne!(v1, v2);
        assert_eq!(b.get(v1).unwrap().base, Some(base));
        assert_eq!(b.rows(v1), Some(3.0));
        // Virtual columns resolve independently but share base stats.
        let c1 = ColumnId::new(v1, 0);
        let c2 = ColumnId::new(v2, 0);
        assert_eq!(b.base_column(c1), Some(ColumnId::new(base, 0)));
        assert_eq!(b.column_stats(c1).unwrap().ndv, 3.0);
        assert_eq!(b.column_stats(c2).unwrap().ndv, 3.0);
        assert!(b.is_unique(c1));
    }

    #[test]
    fn stats_provider_view() {
        let (cat, base) = catalog_with("t", &[1, 2, 3, 3]);
        let mut b = Bindings::new();
        let v = b.bind_table(&cat, base).unwrap();
        let view = StatsProvider::stats(&b, ColumnId::new(v, 0)).unwrap();
        assert_eq!(view.rows, 4.0);
        assert_eq!(view.ndv, 3.0);
        assert_eq!(view.min, Some(1.0));
        assert_eq!(view.max, Some(3.0));
    }

    #[test]
    fn derived_bindings() {
        let mut b = Bindings::new();
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Float64)]));
        let stats = TableStats {
            rows: 42.0,
            columns: vec![ColumnStats {
                ndv: 10.0,
                null_frac: 0.0,
                min: Some(Datum::Float(0.0)),
                max: Some(Datum::Float(1.0)),
                clustered: false,
            }],
        };
        let v = b.bind_derived(schema, stats, vec![]);
        assert_eq!(b.get(v).unwrap().base, None);
        assert_eq!(b.rows(v), Some(42.0));
        assert_eq!(b.base_column(ColumnId::new(v, 0)), None);
        // set_stats replaces.
        let mut new_stats = b.get(v).unwrap().stats.clone();
        new_stats.rows = 7.0;
        b.set_stats(v, new_stats).unwrap();
        assert_eq!(b.rows(v), Some(7.0));
    }

    #[test]
    fn foreign_key_through_virtual_ids() {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let mk = |name: &str, keys: &[i64]| {
            let chunk = Chunk::new(vec![Arc::new(Column::Int64(keys.to_vec(), None))]).unwrap();
            Table::new(name, schema.clone(), vec![chunk]).unwrap()
        };
        let mut cat = Catalog::new();
        let dim = cat.register(mk("dim", &[1, 2]), vec![0]).unwrap();
        let fact = cat.register(mk("fact", &[1, 1, 2]), vec![]).unwrap();
        cat.add_foreign_key(ColumnId::new(fact, 0), ColumnId::new(dim, 0))
            .unwrap();
        let mut b = Bindings::new();
        let vf = b.bind_table(&cat, fact).unwrap();
        let vd = b.bind_table(&cat, dim).unwrap();
        assert!(b.is_foreign_key(&cat, ColumnId::new(vf, 0), ColumnId::new(vd, 0)));
        assert!(!b.is_foreign_key(&cat, ColumnId::new(vd, 0), ColumnId::new(vf, 0)));
    }

    #[test]
    fn equi_clause_rels_and_sides() {
        let block = two_rel_block();
        let clause = &block.equi_clauses[0];
        assert_eq!(clause.rels(), RelSet::from_iter([0, 1]));
        assert_eq!(clause.column_for(0), Some(clause.left));
        assert_eq!(clause.column_for(1), Some(clause.right));
        assert_eq!(clause.column_for(5), None);
    }

    #[test]
    fn clauses_between_sides() {
        let block = two_rel_block();
        let got = block.clauses_between(RelSet::single(0), RelSet::single(1));
        assert_eq!(got.len(), 1);
        let none = block.clauses_between(RelSet::single(0), RelSet::single(0));
        assert!(none.is_empty());
    }

    #[test]
    fn dependency_tracking() {
        let mut block = two_rel_block();
        block.rels[1].kind = RelKind::Semi;
        assert_eq!(block.dependency_of(1), RelSet::single(0));
        assert_eq!(block.inner_rels(), RelSet::single(0));
    }
}
