//! Synthetic query-block generators.
//!
//! Used by unit tests throughout this crate and by the experiment harness:
//! the §3.1 naïve blow-up measurement runs on chain and star join queries
//! built here, and the Figure 4 running example is a 3-relation chain.
//!
//! A *chain* of `n` relations joins `tᵢ.fk = tᵢ₊₁.pk`; a *star* joins a fact
//! table's `fkᵢ` to dimension `i`'s `pk`. Every table has the schema
//! `(pk: Int64 unique, fk…: Int64, val: Int64 uniform 0..1000)` with real
//! data behind it, so catalog statistics are exact.

use std::sync::Arc;

use bfq_catalog::Catalog;
use bfq_common::{ColumnId, DataType, TableId};
use bfq_expr::{BinOp, Expr};
use bfq_plan::{BaseRel, Bindings, EquiClause, QueryBlock, RelKind, RelSource};
use bfq_storage::{Chunk, Column, Field, Schema, Table};

use bfq_cost::Estimator;

/// Specification of one relation in a synthetic query.
#[derive(Debug, Clone)]
pub struct ChainSpec {
    /// Table name / alias.
    pub name: String,
    /// Row count.
    pub rows: usize,
    /// If set, add a local predicate keeping roughly this fraction of rows
    /// (`val < keep * 1000`).
    pub keep: Option<f64>,
}

impl ChainSpec {
    /// A relation with `rows` rows and no local predicate.
    pub fn new(name: impl Into<String>, rows: usize) -> Self {
        ChainSpec {
            name: name.into(),
            rows,
            keep: None,
        }
    }

    /// Add a local predicate keeping roughly `keep` of the rows.
    pub fn filtered(mut self, keep: f64) -> Self {
        self.keep = Some(keep.clamp(0.0, 1.0));
        self
    }
}

/// A self-contained synthetic query: catalog + block + bindings.
#[derive(Debug)]
pub struct Fixture {
    /// Catalog holding the generated tables.
    pub catalog: Catalog,
    /// The query block.
    pub block: QueryBlock,
    /// Relation bindings.
    pub bindings: Bindings,
}

impl Fixture {
    /// A cardinality estimator over this fixture.
    pub fn estimator(&self) -> Estimator<'_> {
        Estimator::new(&self.block, &self.bindings, &self.catalog)
    }

    /// The virtual column id `(rel ordinal, column ordinal)`.
    pub fn col(&self, rel: usize, idx: u32) -> ColumnId {
        ColumnId::new(self.block.rel(rel).rel_id, idx)
    }
}

const VAL_DOMAIN: i64 = 1000;

/// Build one synthetic table with `n_fks` foreign-key columns.
///
/// Schema: `pk`, `fk0..fk{n_fks-1}`, `val`. `fk_domains[i]` gives the key
/// domain the i-th fk draws from (the referenced table's row count).
fn make_table(name: &str, rows: usize, fk_domains: &[usize]) -> Table {
    let mut fields = vec![Field::new("pk", DataType::Int64)];
    for i in 0..fk_domains.len() {
        fields.push(Field::new(format!("fk{i}"), DataType::Int64));
    }
    fields.push(Field::new("val", DataType::Int64));
    let schema = Arc::new(Schema::new(fields));

    let mut columns: Vec<Arc<Column>> = Vec::new();
    columns.push(Arc::new(Column::Int64((0..rows as i64).collect(), None)));
    for (fi, &domain) in fk_domains.iter().enumerate() {
        let d = domain.max(1) as i64;
        // A cheap deterministic spread that decorrelates the fk columns.
        // The multiplier must be coprime with the domain or the fk would
        // cover only a fraction of the referenced keys.
        fn gcd(a: i64, b: i64) -> i64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let mut mult = 2 * fi as i64 + 3;
        while gcd(mult, d) != 1 {
            mult += 2;
        }
        let vals: Vec<i64> = (0..rows as i64)
            .map(|k| (k * mult + fi as i64) % d)
            .collect();
        columns.push(Arc::new(Column::Int64(vals, None)));
    }
    let vals: Vec<i64> = (0..rows as i64)
        .map(|k| (k * 7 + 13) % VAL_DOMAIN)
        .collect();
    columns.push(Arc::new(Column::Int64(vals, None)));

    Table::new(name, schema, vec![Chunk::new(columns).unwrap()]).unwrap()
}

fn keep_pred(rel_id: TableId, val_idx: u32, keep: f64) -> Expr {
    Expr::binary(
        BinOp::Lt,
        Expr::col(ColumnId::new(rel_id, val_idx)),
        Expr::int((keep * VAL_DOMAIN as f64) as i64),
    )
}

/// Build a chain query: `t0.fk0 = t1.pk AND t1.fk0 = t2.pk AND …`.
pub fn chain_block(specs: &[ChainSpec]) -> Fixture {
    assert!(!specs.is_empty());
    let mut catalog = Catalog::new();
    let mut base_ids = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let next_rows = specs.get(i + 1).map(|s| s.rows).unwrap_or(1);
        let fk_domains = if i + 1 < specs.len() {
            vec![next_rows]
        } else {
            vec![1]
        };
        let table = make_table(&spec.name, spec.rows, &fk_domains);
        let id = catalog.register(table, vec![0]).unwrap();
        base_ids.push(id);
    }
    // Declare FKs along the chain (fk0 -> next.pk).
    for i in 0..specs.len() - 1 {
        catalog
            .add_foreign_key(
                ColumnId::new(base_ids[i], 1),
                ColumnId::new(base_ids[i + 1], 0),
            )
            .unwrap();
    }

    let mut bindings = Bindings::new();
    let mut rels = Vec::new();
    let mut rel_ids = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let rel_id = bindings.bind_table(&catalog, base_ids[i]).unwrap();
        rel_ids.push(rel_id);
        let val_idx = 2; // pk, fk0, val
        let local_preds = spec
            .keep
            .map(|k| vec![keep_pred(rel_id, val_idx, k)])
            .unwrap_or_default();
        rels.push(BaseRel {
            ordinal: i,
            rel_id,
            source: RelSource::Table(base_ids[i]),
            alias: spec.name.clone(),
            kind: RelKind::Inner,
            local_preds,
        });
    }
    let mut equi_clauses = Vec::new();
    for i in 0..specs.len() - 1 {
        equi_clauses.push(EquiClause {
            left: ColumnId::new(rel_ids[i], 1),
            right: ColumnId::new(rel_ids[i + 1], 0),
            left_rel: i,
            right_rel: i + 1,
        });
    }
    Fixture {
        catalog,
        block: QueryBlock {
            rels,
            equi_clauses,
            complex_preds: vec![],
        },
        bindings,
    }
}

/// Build a star query: fact relation 0 joins `fact.fkᵢ = dimᵢ.pk`.
pub fn star_block(fact: ChainSpec, dims: &[ChainSpec]) -> Fixture {
    let mut catalog = Catalog::new();
    let dim_domains: Vec<usize> = dims.iter().map(|d| d.rows).collect();
    let fact_table = make_table(&fact.name, fact.rows, &dim_domains);
    let fact_id = catalog.register(fact_table, vec![0]).unwrap();
    let mut dim_ids = Vec::new();
    for d in dims {
        let t = make_table(&d.name, d.rows, &[1]);
        dim_ids.push(catalog.register(t, vec![0]).unwrap());
    }
    for (i, &dim_id) in dim_ids.iter().enumerate() {
        catalog
            .add_foreign_key(
                ColumnId::new(fact_id, 1 + i as u32),
                ColumnId::new(dim_id, 0),
            )
            .unwrap();
    }

    let mut bindings = Bindings::new();
    let fact_rel = bindings.bind_table(&catalog, fact_id).unwrap();
    let fact_val_idx = 1 + dims.len() as u32; // pk, fks..., val
    let mut rels = vec![BaseRel {
        ordinal: 0,
        rel_id: fact_rel,
        source: RelSource::Table(fact_id),
        alias: fact.name.clone(),
        kind: RelKind::Inner,
        local_preds: fact
            .keep
            .map(|k| vec![keep_pred(fact_rel, fact_val_idx, k)])
            .unwrap_or_default(),
    }];
    let mut equi_clauses = Vec::new();
    for (i, d) in dims.iter().enumerate() {
        let rel_id = bindings.bind_table(&catalog, dim_ids[i]).unwrap();
        rels.push(BaseRel {
            ordinal: i + 1,
            rel_id,
            source: RelSource::Table(dim_ids[i]),
            alias: d.name.clone(),
            kind: RelKind::Inner,
            local_preds: d
                .keep
                .map(|k| vec![keep_pred(rel_id, 2, k)])
                .unwrap_or_default(),
        });
        equi_clauses.push(EquiClause {
            left: ColumnId::new(fact_rel, 1 + i as u32),
            right: ColumnId::new(rel_id, 0),
            left_rel: 0,
            right_rel: i + 1,
        });
    }
    Fixture {
        catalog,
        block: QueryBlock {
            rels,
            equi_clauses,
            complex_preds: vec![],
        },
        bindings,
    }
}

/// The paper's §3 running example, scaled by `scale` (1.0 ⇒ 600k/807/1k
/// rows × 1000 — full paper sizes are 600M/807K/1M which are impractical in
/// a unit test; the *ratios* are what matters).
pub fn running_example(scale: f64) -> Fixture {
    let t1_rows = ((600_000.0 * scale) as usize).max(10);
    let t2_rows = ((807.0 * scale) as usize).max(5);
    let t3_rows = ((1_000.0 * scale) as usize).max(5);
    chain_block(&[
        ChainSpec::new("t1", t1_rows),
        ChainSpec::new("t2", t2_rows).filtered(0.5),
        ChainSpec::new("t3", t3_rows),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::JoinGraph;
    use bfq_common::RelSet;

    #[test]
    fn chain_block_shape() {
        let fx = chain_block(&[
            ChainSpec::new("a", 1000),
            ChainSpec::new("b", 100).filtered(0.3),
            ChainSpec::new("c", 10),
        ]);
        assert_eq!(fx.block.num_rels(), 3);
        assert_eq!(fx.block.equi_clauses.len(), 2);
        assert!(JoinGraph::new(&fx.block).is_connected(RelSet::all(3)));
        assert_eq!(fx.block.rels[1].local_preds.len(), 1);
        let est = fx.estimator();
        assert_eq!(est.base_rows(0), 1000.0);
        assert!(est.base_rows(1) < 50.0);
    }

    #[test]
    fn chain_fks_declared() {
        let fx = chain_block(&[ChainSpec::new("a", 100), ChainSpec::new("b", 50)]);
        let a_fk = fx.bindings.base_column(fx.col(0, 1)).unwrap();
        let b_pk = fx.bindings.base_column(fx.col(1, 0)).unwrap();
        assert!(fx.catalog.is_foreign_key(a_fk, b_pk));
    }

    #[test]
    fn star_block_shape() {
        let fx = star_block(
            ChainSpec::new("fact", 10_000),
            &[
                ChainSpec::new("d1", 100).filtered(0.2),
                ChainSpec::new("d2", 50),
                ChainSpec::new("d3", 10),
            ],
        );
        assert_eq!(fx.block.num_rels(), 4);
        assert_eq!(fx.block.equi_clauses.len(), 3);
        assert!(JoinGraph::new(&fx.block).is_connected(RelSet::all(4)));
        // Every clause touches the fact table.
        for c in &fx.block.equi_clauses {
            assert_eq!(c.left_rel, 0);
        }
    }

    #[test]
    fn running_example_ratios() {
        let fx = running_example(0.01);
        let est = fx.estimator();
        // t1 much larger than t2 and t3.
        assert!(est.base_rows(0) > est.base_rows(1) * 100.0);
        assert!(est.base_rows(2) > est.base_rows(1));
    }
}
