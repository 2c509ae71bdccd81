//! Catalog: table registry, statistics and key constraints.
//!
//! The optimizer consumes three things from here:
//! * per-table row counts and per-column NDV/min/max statistics
//!   ([`TableStats`], [`ColumnStats`]) — computed exactly at load time,
//!   standing in for the ANALYZE pipeline of a production system;
//! * uniqueness (primary key / unique constraints), which powers the
//!   FK→lossless-PK pruning of Bloom filter candidates (paper Heuristic 3);
//! * foreign-key edges, declared "in compliance with TPC-H documentation"
//!   (paper §4.1).

pub mod stats;

use std::collections::HashMap;
use std::sync::Arc;

use bfq_common::{BfqError, ColumnId, DataType, Result, TableId};
use bfq_index::TableIndex;
use bfq_storage::{SchemaRef, Table};

pub use stats::{compute_stats, ColumnStats, TableStats};

/// A declared foreign-key relationship between single columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing column (the FK side).
    pub column: ColumnId,
    /// Referenced column (the PK/unique side).
    pub references: ColumnId,
}

/// Everything the system knows about one registered table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// The table's id (its index in the catalog).
    pub id: TableId,
    /// Registered name.
    pub name: String,
    /// Column names/types.
    pub schema: SchemaRef,
    /// Collected statistics.
    pub stats: TableStats,
    /// Ordinals of columns with a single-column uniqueness guarantee.
    pub unique_columns: Vec<u32>,
}

impl TableMeta {
    /// Whether column `index` is unique (PK or unique constraint).
    pub fn is_unique(&self, index: u32) -> bool {
        self.unique_columns.contains(&index)
    }
}

/// The catalog: metadata plus the in-memory data of every registered table.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    metas: Vec<TableMeta>,
    data: Vec<Arc<Table>>,
    indexes: Vec<Arc<TableIndex>>,
    by_name: HashMap<String, TableId>,
    foreign_keys: Vec<ForeignKey>,
    /// Bumped on every registration or replacement. Plan caches key on
    /// this so no cached plan can outlive the schema/statistics it was
    /// optimized against.
    version: u64,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The catalog's version: incremented by [`Catalog::register`] and
    /// [`Catalog::replace`]. Two catalogs with equal versions that share a
    /// lineage hold identical table sets.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Kept for the frozen end-to-end benchmark, which passes the result to
    /// [`TableIndex::build_layout`]; there is one chunk-filter layout, so
    /// it carries nothing. Remove with the benchmark-maintenance change
    /// (ROADMAP item 1).
    #[doc(hidden)]
    pub fn index_bloom_layout(&self) {}

    /// Register a table, computing exact statistics from its data.
    ///
    /// `unique_columns` lists ordinals with a uniqueness guarantee. Returns
    /// the assigned [`TableId`] and bumps [`Catalog::version`].
    pub fn register(&mut self, table: Table, unique_columns: Vec<u32>) -> Result<TableId> {
        let name = table.name().to_string();
        if self.by_name.contains_key(&name) {
            return Err(BfqError::Catalog(format!(
                "table `{name}` already registered"
            )));
        }
        for &u in &unique_columns {
            if u as usize >= table.schema().len() {
                return Err(BfqError::Catalog(format!(
                    "unique column ordinal {u} out of range for `{name}`"
                )));
            }
        }
        let id = TableId(self.metas.len() as u32);
        let stats = compute_stats(&table)?;
        // Per-chunk zone maps and Bloom indexes, built once at load time —
        // the ANALYZE-adjacent step a columnar store runs while sealing
        // segments. Consultation is gated by the session's `IndexMode`.
        let index = TableIndex::build(&table);
        self.metas.push(TableMeta {
            id,
            name: name.clone(),
            schema: table.schema().clone(),
            stats,
            unique_columns,
        });
        self.data.push(Arc::new(table));
        self.indexes.push(Arc::new(index));
        self.by_name.insert(name, id);
        self.version += 1;
        Ok(id)
    }

    /// Replace a registered table's data in place (same name, same
    /// [`TableId`]), recomputing statistics and the per-chunk index, and
    /// bumping [`Catalog::version`]. The new schema must be provided by
    /// the table itself; `unique_columns` replaces the old declaration.
    pub fn replace(&mut self, table: Table, unique_columns: Vec<u32>) -> Result<TableId> {
        let name = table.name().to_string();
        let id = *self
            .by_name
            .get(&name)
            .ok_or_else(|| BfqError::Catalog(format!("no table named `{name}` to replace")))?;
        for &u in &unique_columns {
            if u as usize >= table.schema().len() {
                return Err(BfqError::Catalog(format!(
                    "unique column ordinal {u} out of range for `{name}`"
                )));
            }
        }
        let stats = compute_stats(&table)?;
        let index = TableIndex::build(&table);
        let slot = id.0 as usize;
        self.metas[slot] = TableMeta {
            id,
            name,
            schema: table.schema().clone(),
            stats,
            unique_columns,
        };
        self.data[slot] = Arc::new(table);
        self.indexes[slot] = Arc::new(index);
        self.version += 1;
        Ok(id)
    }

    /// Declare a foreign key `from → to`. Both columns must exist and `to`
    /// must be unique on its table.
    pub fn add_foreign_key(&mut self, from: ColumnId, to: ColumnId) -> Result<()> {
        let to_meta = self.meta(to.table)?;
        if !to_meta.is_unique(to.index) {
            return Err(BfqError::Catalog(format!(
                "foreign key target {to} is not declared unique"
            )));
        }
        let from_meta = self.meta(from.table)?;
        if from.index as usize >= from_meta.schema.len() {
            return Err(BfqError::Catalog(format!(
                "foreign key source {from} out of range"
            )));
        }
        self.foreign_keys.push(ForeignKey {
            column: from,
            references: to,
        });
        Ok(())
    }

    /// Metadata by id.
    pub fn meta(&self, id: TableId) -> Result<&TableMeta> {
        self.metas
            .get(id.0 as usize)
            .ok_or_else(|| BfqError::Catalog(format!("no table with id {id}")))
    }

    /// Metadata by name.
    pub fn meta_by_name(&self, name: &str) -> Result<&TableMeta> {
        let id = self
            .by_name
            .get(name)
            .ok_or_else(|| BfqError::Catalog(format!("no table named `{name}`")))?;
        self.meta(*id)
    }

    /// Table data by id.
    pub fn data(&self, id: TableId) -> Result<&Arc<Table>> {
        self.data
            .get(id.0 as usize)
            .ok_or_else(|| BfqError::Catalog(format!("no table with id {id}")))
    }

    /// Per-chunk zone-map/Bloom index of a table, if registered.
    pub fn index(&self, id: TableId) -> Option<&Arc<TableIndex>> {
        self.indexes.get(id.0 as usize)
    }

    /// All registered tables.
    pub fn tables(&self) -> &[TableMeta] {
        &self.metas
    }

    /// Whether `from → to` is a declared foreign key.
    pub fn is_foreign_key(&self, from: ColumnId, to: ColumnId) -> bool {
        self.foreign_keys
            .iter()
            .any(|fk| fk.column == from && fk.references == to)
    }

    /// All declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Column statistics for `col`.
    pub fn column_stats(&self, col: ColumnId) -> Result<&ColumnStats> {
        let meta = self.meta(col.table)?;
        meta.stats
            .columns
            .get(col.index as usize)
            .ok_or_else(|| BfqError::Catalog(format!("no stats for column {col}")))
    }

    /// The data type of `col`.
    pub fn column_type(&self, col: ColumnId) -> Result<DataType> {
        let meta = self.meta(col.table)?;
        meta.schema
            .fields()
            .get(col.index as usize)
            .map(|f| f.data_type)
            .ok_or_else(|| BfqError::Catalog(format!("no column {col}")))
    }

    /// The name of `col` as `table.column`.
    pub fn column_name(&self, col: ColumnId) -> String {
        match self.meta(col.table) {
            Ok(meta) => {
                let cname = meta
                    .schema
                    .fields()
                    .get(col.index as usize)
                    .map(|f| f.name.as_str())
                    .unwrap_or("?");
                format!("{}.{}", meta.name, cname)
            }
            Err(_) => col.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_common::DataType;
    use bfq_storage::{Chunk, Column, Field, Schema};

    fn small_table(name: &str, keys: &[i64]) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]));
        let chunk = Chunk::new(vec![
            Arc::new(Column::Int64(keys.to_vec(), None)),
            Arc::new(Column::Float64(
                keys.iter().map(|&k| k as f64 * 1.5).collect(),
                None,
            )),
        ])
        .unwrap();
        Table::new(name, schema, vec![chunk]).unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut cat = Catalog::new();
        assert_eq!(cat.version(), 0);
        let id = cat.register(small_table("a", &[1, 2, 3]), vec![0]).unwrap();
        assert_eq!(id, TableId(0));
        assert_eq!(cat.version(), 1);
        assert_eq!(cat.meta_by_name("a").unwrap().id, id);
        assert_eq!(cat.data(id).unwrap().rows(), 3);
        assert!(cat.meta_by_name("missing").is_err());
        assert!(cat.register(small_table("a", &[1]), vec![]).is_err());
        assert_eq!(cat.version(), 1, "failed registration does not bump");
    }

    #[test]
    fn replace_keeps_id_and_bumps_version() {
        let mut cat = Catalog::new();
        let id = cat.register(small_table("a", &[1, 2, 3]), vec![0]).unwrap();
        let _b = cat.register(small_table("b", &[9]), vec![0]).unwrap();
        assert_eq!(cat.version(), 2);
        let rid = cat
            .replace(small_table("a", &[4, 5, 6, 7]), vec![0])
            .unwrap();
        assert_eq!(rid, id, "replacement keeps the table id");
        assert_eq!(cat.version(), 3);
        assert_eq!(cat.data(id).unwrap().rows(), 4);
        assert_eq!(cat.meta(id).unwrap().stats.rows, 4.0);
        // Fresh per-chunk index for the new data.
        let ci = cat.index(id).unwrap().chunk(0).unwrap();
        assert_eq!(ci.columns[0].zone.map(|z| (z.min, z.max)), Some((4.0, 7.0)));
        // Replacing an unknown table errors without bumping.
        assert!(cat.replace(small_table("zzz", &[1]), vec![]).is_err());
        assert_eq!(cat.version(), 3);
    }

    #[test]
    fn chunk_index_built_on_register() {
        let mut cat = Catalog::new();
        let id = cat.register(small_table("a", &[1, 2, 3]), vec![0]).unwrap();
        let index = cat.index(id).expect("index built at register");
        assert_eq!(index.len(), 1);
        let ci = index.chunk(0).unwrap();
        assert_eq!(ci.rows, 3);
        // Key column: zone map + bloom. Float column: zone map only.
        assert_eq!(ci.columns[0].zone.map(|z| (z.min, z.max)), Some((1.0, 3.0)));
        assert!(ci.columns[0].bloom.is_some());
        assert!(ci.columns[1].zone.is_some());
        assert!(ci.columns[1].bloom.is_none());
        assert!(cat.index(TableId(9)).is_none());
    }

    #[test]
    fn stats_computed_on_register() {
        let mut cat = Catalog::new();
        let id = cat
            .register(small_table("a", &[1, 2, 2, 3]), vec![])
            .unwrap();
        let meta = cat.meta(id).unwrap();
        assert_eq!(meta.stats.rows, 4.0);
        assert_eq!(meta.stats.columns[0].ndv, 3.0);
        let cs = cat.column_stats(ColumnId::new(id, 0)).unwrap();
        assert_eq!(cs.min.as_ref().and_then(|d| d.as_i64()), Some(1));
        assert_eq!(cs.max.as_ref().and_then(|d| d.as_i64()), Some(3));
    }

    #[test]
    fn foreign_keys_require_unique_target() {
        let mut cat = Catalog::new();
        let pk = cat
            .register(small_table("dim", &[1, 2, 3]), vec![0])
            .unwrap();
        let fk = cat
            .register(small_table("fact", &[1, 1, 2, 3, 3]), vec![])
            .unwrap();
        let from = ColumnId::new(fk, 0);
        let to = ColumnId::new(pk, 0);
        cat.add_foreign_key(from, to).unwrap();
        assert!(cat.is_foreign_key(from, to));
        assert!(!cat.is_foreign_key(to, from));
        // Non-unique target rejected.
        assert!(cat.add_foreign_key(to, ColumnId::new(fk, 0)).is_err());
    }

    #[test]
    fn column_metadata_accessors() {
        let mut cat = Catalog::new();
        let id = cat.register(small_table("a", &[1]), vec![0]).unwrap();
        assert_eq!(
            cat.column_type(ColumnId::new(id, 1)).unwrap(),
            DataType::Float64
        );
        assert_eq!(cat.column_name(ColumnId::new(id, 0)), "a.k");
        assert!(cat.column_type(ColumnId::new(id, 9)).is_err());
        assert!(cat.meta(id).unwrap().is_unique(0));
        assert!(!cat.meta(id).unwrap().is_unique(1));
    }
}
