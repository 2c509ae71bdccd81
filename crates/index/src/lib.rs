//! Per-chunk zone maps and Bloom indexes with scan-time data skipping.
//!
//! The paper puts Bloom filters *inside* the optimizer for join pruning;
//! this crate extends the same machinery downward into storage, the way
//! production columnar stores (segment min/max metadata, SST-level Bloom
//! filters) skip whole blocks before touching a row:
//!
//! * a [`ZoneMap`] records per-chunk min/max of each numeric/date column,
//!   so range and equality predicates can prove a chunk empty;
//! * a chunk-level [`bfq_bloom::BloomFilter`] over key and string columns
//!   answers "could this value be in this chunk?" for equality probes —
//!   both literal predicates (`o_orderkey = k`) and the runtime
//!   `BloomApply` join keys (when the build side is small enough that its
//!   exact key hashes travel with the [`bfq_bloom::RuntimeFilter`]);
//! * [`prune::chunk_prune`] is the conservative evaluator: it may only
//!   answer *skip* when no row of the chunk can satisfy the predicate, so
//!   pruning never changes query results (property-tested in
//!   `tests/prop_index.rs`); [`prune::rf_chunk_prune`] holds a runtime
//!   filter's shipped key hashes to the same contract, and a large build,
//!   which ships none, never skips a chunk.
//!
//! [`IndexMode`] selects how much of this a scan consults — `off`,
//! `zonemap`, or `zonemap+bloom` — so experiments can ablate each tier.

pub mod builder;
pub mod prune;

use std::str::FromStr;

use bfq_bloom::BloomFilter;
use bfq_common::DataType;

pub use builder::{build_chunk_index, build_column_index};
pub use prune::{chunk_prune, rf_chunk_prune, PruneOutcome};

/// How much of the chunk index a scan consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndexMode {
    /// No data skipping: every chunk is scanned row by row.
    Off,
    /// Min/max zone maps only.
    ZoneMap,
    /// Zone maps plus chunk Bloom probes (literal equality keys and small
    /// runtime-filter key sets).
    #[default]
    ZoneMapBloom,
}

impl IndexMode {
    /// Whether zone maps are consulted.
    pub fn zonemaps(self) -> bool {
        !matches!(self, IndexMode::Off)
    }

    /// Whether chunk Bloom indexes are consulted.
    pub fn blooms(self) -> bool {
        matches!(self, IndexMode::ZoneMapBloom)
    }

    /// Display label (also the accepted `FromStr` spellings).
    pub fn label(self) -> &'static str {
        match self {
            IndexMode::Off => "off",
            IndexMode::ZoneMap => "zonemap",
            IndexMode::ZoneMapBloom => "zonemap+bloom",
        }
    }

    /// All modes, weakest first (ablation order).
    pub const ALL: [IndexMode; 3] = [IndexMode::Off, IndexMode::ZoneMap, IndexMode::ZoneMapBloom];
}

impl FromStr for IndexMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Ok(IndexMode::Off),
            "zonemap" | "zone" => Ok(IndexMode::ZoneMap),
            "zonemap+bloom" | "zonemap_bloom" | "bloom" | "full" => Ok(IndexMode::ZoneMapBloom),
            other => Err(format!(
                "unknown index mode `{other}` (expected off | zonemap | zonemap+bloom)"
            )),
        }
    }
}

impl std::fmt::Display for IndexMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Min/max of a column's non-null values on the shared numeric axis
/// (ints, floats and dates all project onto `f64`, matching the
/// selectivity estimator's [`ColStatsView`](bfq_expr::selectivity::ColStatsView)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneMap {
    /// Smallest non-null value.
    pub min: f64,
    /// Largest non-null value.
    pub max: f64,
}

/// Index entry for one column of one chunk.
#[derive(Debug, Clone)]
pub struct ColumnIndex {
    /// The column's type (needed to hash probe literals consistently).
    pub data_type: DataType,
    /// Rows in the chunk.
    pub rows: usize,
    /// Null rows in this column.
    pub null_count: usize,
    /// Zone map, present for numeric/date columns with ≥ 1 non-null row.
    pub zone: Option<ZoneMap>,
    /// Membership filter, present for key (Int64/Date) and string columns.
    pub bloom: Option<BloomFilter>,
}

impl ColumnIndex {
    /// Whether every row of this column is NULL.
    pub fn all_null(&self) -> bool {
        self.null_count == self.rows
    }
}

/// Index of one chunk: per-column entries aligned with the schema.
#[derive(Debug, Clone)]
pub struct ChunkIndex {
    /// Rows in the chunk.
    pub rows: usize,
    /// One entry per schema column.
    pub columns: Vec<ColumnIndex>,
}

impl ChunkIndex {
    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|c| {
                std::mem::size_of::<ColumnIndex>() + c.bloom.as_ref().map_or(0, |b| b.size_bytes())
            })
            .sum()
    }
}

/// Per-chunk statistics for a whole table, built once at load time.
#[derive(Debug, Clone, Default)]
pub struct TableIndex {
    /// One index per table chunk, in chunk order.
    pub chunks: Vec<ChunkIndex>,
}

impl TableIndex {
    /// Build the index for every chunk of `table`.
    pub fn build(table: &bfq_storage::Table) -> TableIndex {
        TableIndex {
            chunks: table.chunks().iter().map(build_chunk_index).collect(),
        }
    }

    /// [`TableIndex::build`] under the name the frozen end-to-end benchmark
    /// calls; the `()` stands where a filter-layout choice used to be.
    /// Remove with the benchmark-maintenance change (ROADMAP item 1).
    #[doc(hidden)]
    pub fn build_layout(table: &bfq_storage::Table, _: ()) -> TableIndex {
        TableIndex::build(table)
    }

    /// Index of chunk `i`, if present.
    pub fn chunk(&self, i: usize) -> Option<&ChunkIndex> {
        self.chunks.get(i)
    }

    /// Number of indexed chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the table had zero chunks.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.size_bytes()).sum()
    }

    /// Upper bound on the rows that can satisfy `pred`, summing the rows of
    /// chunks the pruning evaluator cannot rule out. Returns
    /// `(surviving_rows, surviving_chunks)`. `resolve` maps predicate
    /// [`bfq_common::ColumnId`]s to schema ordinals (scans over a base table
    /// use the identity on `ColumnId::index`).
    ///
    /// This is the planning-side consumer of zone maps: the cardinality
    /// estimator clamps scan output rows and scan *read* rows with it, so
    /// data skipping feeds back into join-order and Bloom-filter choices.
    pub fn matching_rows(
        &self,
        pred: &bfq_expr::Expr,
        resolve: &dyn Fn(bfq_common::ColumnId) -> Option<usize>,
        mode: IndexMode,
    ) -> (usize, usize) {
        let mut rows = 0usize;
        let mut kept = 0usize;
        for chunk in &self.chunks {
            if chunk_prune(chunk, pred, resolve, mode) == PruneOutcome::Keep {
                rows += chunk.rows;
                kept += 1;
            }
        }
        (rows, kept)
    }
}
