//! Row-level helpers shared by joins, aggregation and exchanges, and the
//! flat hash `Directory` under both the join build and aggregation.

use bfq_common::hash::{combine, hash_u64};
use bfq_common::{BfqError, ColumnId, DataType, Datum, Result};
use bfq_expr::{Expr, Layout};
use bfq_storage::{Chunk, Column};

/// Seed for join/partition key hashing (distinct from the Bloom seeds).
pub const JOIN_SEED: u64 = 0x9d8f_3c2a_71b5_e604;

/// Per-worker reusable buffers for the morsel hot path: the Bloom-probe
/// scratch (hash columns plus selection ping-pong), the join-probe
/// buffers (combined key hashes, per-column staging, matched row pairs)
/// and an aggregation sink's group-key hash staging.
/// One scratch lives per worker and persists across every morsel it
/// processes, so steady-state execution performs zero filter-path
/// allocations; capacity growths are counted through the embedded
/// [`bfq_bloom::ProbeScratch`] and surfaced via
/// [`crate::ExecStats::filter_scratch_allocs`].
#[derive(Debug, Default)]
pub struct MorselScratch {
    /// Bloom filter probe scratch (hashes + selection vectors).
    pub probe: bfq_bloom::ProbeScratch,
    /// Combined join-key hashes of the current chunk.
    pub join_hash: Vec<u64>,
    /// Per-column staging for multi-key join hashing.
    pub join_tmp: Vec<u64>,
    /// Per-column staging for an aggregation sink's group-key hashing.
    pub group_tmp: Vec<u64>,
    /// Matched probe-row indices (parallel to `pair_build`).
    pub pair_probe: Vec<u32>,
    /// Matched build-row indices.
    pub pair_build: Vec<u32>,
    /// Per-probe-row chain heads from the flat join-table directory lookup.
    pub join_heads: Vec<u32>,
    /// Probe rows whose first directory slot collided (continued scalar-ly).
    pub join_pending: Vec<u32>,
    /// Candidate (probe, build) pairs emitted by directory lookup + chain
    /// expansion, before key verification. Flushed into
    /// [`crate::ExecStats`] at seal points.
    pub join_candidates: u64,
    /// Pairs surviving exact key verification (hash collisions removed).
    pub join_verified: u64,
    /// Per-worker profile accumulator (node timings, filter pass counts),
    /// merged into [`crate::ExecStats`] at the same seal points that flush
    /// the scratch-allocation counter.
    pub profile: crate::data::ProfileScratch,
}

impl MorselScratch {
    /// Empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        MorselScratch::default()
    }

    /// Total capacity growths across all embedded buffers.
    pub fn grows(&self) -> u64 {
        self.probe.grows()
    }

    /// Drain the growth counter (see [`bfq_bloom::ProbeScratch::take_grows`]).
    pub fn take_grows(&mut self) -> u64 {
        self.probe.take_grows()
    }

    /// Drain the join-probe candidate/verified counters.
    pub fn take_join_counts(&mut self) -> (u64, u64) {
        let counts = (self.join_candidates, self.join_verified);
        self.join_candidates = 0;
        self.join_verified = 0;
        counts
    }
}

/// Flush a worker scratch's accumulated counters and profile into the
/// shared [`crate::ExecStats`]. Called at seal points only (end of a
/// morsel run, partial drain, or stream pull) so the hot path touches
/// nothing shared.
pub(crate) fn flush_scratch_stats(stats: &crate::data::ExecStats, scratch: &mut MorselScratch) {
    stats.note_scratch_allocs(scratch.take_grows());
    let (candidates, verified) = scratch.take_join_counts();
    stats.note_join_probe(candidates, verified);
    stats.merge_profile(&mut scratch.profile);
}

/// Hash the given key columns of a chunk row-wise into one `u64` per row.
/// Null keys receive a sentinel; callers must also consult `keys_null`.
pub fn hash_keys(chunk: &Chunk, key_slots: &[usize], seed: u64) -> Vec<u64> {
    let mut combined = Vec::new();
    let mut tmp = Vec::new();
    hash_keys_into(chunk, key_slots, seed, &mut tmp, &mut combined);
    combined
}

/// [`hash_keys`] into caller-owned buffers: `tmp` stages one column's
/// hashes, `out` receives the combined per-row hash. Neither allocates
/// once grown to the largest chunk.
pub fn hash_keys_into(
    chunk: &Chunk,
    key_slots: &[usize],
    seed: u64,
    tmp: &mut Vec<u64>,
    out: &mut Vec<u64>,
) {
    out.clear();
    out.resize(chunk.rows(), 0);
    for (ki, &slot) in key_slots.iter().enumerate() {
        chunk.column(slot).hash_into(seed, tmp);
        if ki == 0 {
            out.copy_from_slice(tmp);
        } else {
            for (c, h) in out.iter_mut().zip(tmp.iter()) {
                *c = combine(*c, *h);
            }
        }
    }
    // Mix once more so partitioning on combined keys stays uniform.
    for c in out.iter_mut() {
        *c = hash_u64(*c, seed);
    }
}

/// Whether any key column is NULL at row `i`.
pub fn keys_null(chunk: &Chunk, key_slots: &[usize], i: usize) -> bool {
    key_slots.iter().any(|&s| chunk.column(s).is_null(i))
}

/// Exact equality of two column values (hash-collision recheck).
/// NULL never equals anything. Int64 and Date compare numerically.
pub fn col_eq(a: &Column, i: usize, b: &Column, j: usize) -> bool {
    if a.is_null(i) || b.is_null(j) {
        return false;
    }
    match (a, b) {
        (Column::Int64(x, _), Column::Int64(y, _)) => x[i] == y[j],
        (Column::Float64(x, _), Column::Float64(y, _)) => x[i] == y[j],
        (Column::Bool(x, _), Column::Bool(y, _)) => x[i] == y[j],
        (Column::Date(x, _), Column::Date(y, _)) => x[i] == y[j],
        (Column::Utf8(x, _), Column::Utf8(y, _)) => x.get(i) == y.get(j),
        (Column::Int64(x, _), Column::Date(y, _)) => x[i] == y[j] as i64,
        (Column::Date(x, _), Column::Int64(y, _)) => x[i] as i64 == y[j],
        (Column::Int64(x, _), Column::Float64(y, _)) => x[i] as f64 == y[j],
        (Column::Float64(x, _), Column::Int64(y, _)) => x[i] == y[j] as f64,
        _ => false,
    }
}

/// Total order over two column values for sorting.
/// NULLs sort after every value (SQL `NULLS LAST` for ascending order);
/// two NULLs compare equal.
pub fn col_cmp(a: &Column, i: usize, b: &Column, j: usize) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.is_null(i), b.is_null(j)) {
        (true, true) => return Ordering::Equal,
        (true, false) => return Ordering::Greater,
        (false, true) => return Ordering::Less,
        (false, false) => {}
    }
    match (a, b) {
        (Column::Int64(x, _), Column::Int64(y, _)) => x[i].cmp(&y[j]),
        (Column::Float64(x, _), Column::Float64(y, _)) => x[i].total_cmp(&y[j]),
        (Column::Bool(x, _), Column::Bool(y, _)) => x[i].cmp(&y[j]),
        (Column::Date(x, _), Column::Date(y, _)) => x[i].cmp(&y[j]),
        (Column::Utf8(x, _), Column::Utf8(y, _)) => x.get(i).cmp(y.get(j)),
        (Column::Int64(x, _), Column::Date(y, _)) => x[i].cmp(&(y[j] as i64)),
        (Column::Date(x, _), Column::Int64(y, _)) => (x[i] as i64).cmp(&y[j]),
        (Column::Int64(x, _), Column::Float64(y, _)) => (x[i] as f64).total_cmp(&y[j]),
        (Column::Float64(x, _), Column::Int64(y, _)) => x[i].total_cmp(&(y[j] as f64)),
        _ => Ordering::Equal,
    }
}

/// "No row": the join's chain end and a [`Directory::lookup`] miss.
pub(crate) const NONE: u32 = u32::MAX;

/// Stored hashes are remapped off 0, the hash of an empty slot.
#[inline]
fn norm_hash(h: u64) -> u64 {
    h | (h == 0) as u64
}

/// A flat open-addressing hash directory: power-of-two `(hash, payload)`
/// arrays probed linearly at load ≤ 1/2, where an empty slot holds hash 0.
/// Both start zeroed, so pages no key reaches are never touched. The payload
/// is the caller's: a chain head per distinct key hash for the hash join, a
/// group id per distinct key for aggregation, whose keys may share a hash.
pub(crate) struct Directory {
    hash: Vec<u64>,
    /// Payload of each occupied slot.
    pub(crate) payload: Vec<u32>,
    /// Occupied slots.
    len: usize,
}

impl Directory {
    /// A directory for about `keys` entries: two slots per key, at least 16.
    pub(crate) fn with_keys(keys: usize) -> Directory {
        let slots = keys.saturating_mul(2).next_power_of_two().max(16);
        Directory {
            hash: vec![0; slots],
            payload: vec![0; slots],
            len: 0,
        }
    }

    /// Occupied slots.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Allocated slots (a power of two).
    pub(crate) fn slots(&self) -> usize {
        self.hash.len()
    }

    /// The first slot holding `h` whose payload `accept` takes, or `Err`
    /// with the empty slot where such an entry belongs.
    #[inline]
    pub(crate) fn find(&self, h: u64, mut accept: impl FnMut(u32) -> bool) -> Result<usize, usize> {
        let (h, mask) = (norm_hash(h), self.slots() - 1);
        let mut slot = h as usize & mask;
        loop {
            match self.hash[slot] {
                0 => return Err(slot),
                sh if sh == h && accept(self.payload[slot]) => return Ok(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Fill the empty `slot` [`Directory::find`] returned for `h`, then
    /// double the directory if that passed half load.
    pub(crate) fn insert(&mut self, slot: usize, h: u64, payload: u32) {
        self.hash[slot] = norm_hash(h);
        self.payload[slot] = payload;
        self.len += 1;
        if self.len * 2 > self.slots() {
            let grown = Directory::with_keys(self.slots());
            let old = std::mem::replace(self, grown);
            for (&h, &p) in old.hash.iter().zip(&old.payload).filter(|&(&h, _)| h != 0) {
                self.insert(self.find(h, |_| false).unwrap_err(), h, p);
            }
        }
    }

    /// Batched lookup: the payload of the first entry holding each hash,
    /// or [`NONE`] (the hash join's one entry per hash; for aggregation, a
    /// candidate group its caller verifies). A branch-free first probe per
    /// hash settles almost every lookup at ≤ 1/2 load; rows whose first
    /// slot holds another hash are compacted into `pending` and re-probed.
    pub(crate) fn lookup(&self, hashes: &[u64], out: &mut Vec<u32>, pending: &mut Vec<u32>) {
        let (n, mask) = (hashes.len(), self.slots() - 1);
        out.clear();
        out.resize(n, NONE);
        if self.len == 0 {
            return;
        }
        pending.clear();
        pending.resize(n, 0);
        let mut np = 0usize;
        for (i, &h0) in hashes.iter().enumerate() {
            let h = norm_hash(h0);
            let slot = h as usize & mask;
            let sh = self.hash[slot];
            let hit = sh == h;
            out[i] = if hit { self.payload[slot] } else { NONE };
            pending[np] = i as u32;
            np += ((sh != 0) & !hit) as usize;
        }
        // Re-probe the rare collided lookups in full.
        for &pi in &pending[..np] {
            if let Ok(slot) = self.find(hashes[pi as usize], |_| true) {
                out[pi as usize] = self.payload[slot];
            }
        }
    }
}

/// Resolve expression column slots against a layout, erroring on misses.
pub fn slots_for(layout: &Layout, cols: &[ColumnId]) -> Result<Vec<usize>> {
    cols.iter()
        .map(|c| {
            layout
                .slot_of(*c)
                .ok_or_else(|| BfqError::internal(format!("column {c} missing from layout")))
        })
        .collect()
}

/// The rows of `chunk` an ascending, duplicate-free selection keeps (what
/// `eval_predicate` and the Bloom probes return): the chunk itself, its
/// columns shared, when every row passed.
pub(crate) fn select_rows(chunk: &Chunk, sel: &[u32]) -> Chunk {
    if sel.len() == chunk.rows() {
        chunk.clone()
    } else {
        chunk.take(sel)
    }
}

/// Compute output types of expressions given input layout + types.
pub fn expr_types(
    exprs: &[&Expr],
    layout: &Layout,
    input_types: &[DataType],
) -> Result<Vec<DataType>> {
    let resolve = |c: ColumnId| -> Option<DataType> { layout.slot_of(c).map(|s| input_types[s]) };
    exprs
        .iter()
        .map(|e| {
            e.data_type(&resolve)
                .ok_or_else(|| BfqError::Type(format!("cannot infer type of expression {e}")))
        })
        .collect()
}

/// Replace references to `placeholder` with a literal value (scalar subquery
/// substitution).
pub fn substitute_placeholder(expr: &Expr, placeholder: ColumnId, value: &Datum) -> Expr {
    expr.rewrite(&mut |e| match e {
        Expr::Column(c) if *c == placeholder => Some(Expr::Literal(value.clone())),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_common::TableId;
    use bfq_storage::StrData;
    use std::sync::Arc;

    fn two_col_chunk() -> Chunk {
        Chunk::new(vec![
            Arc::new(Column::Int64(vec![1, 2, 1], None)),
            Arc::new(Column::Int64(vec![10, 20, 10], None)),
        ])
        .unwrap()
    }

    #[test]
    fn multi_key_hash_distinguishes_rows() {
        let chunk = two_col_chunk();
        let h = hash_keys(&chunk, &[0, 1], JOIN_SEED);
        assert_eq!(h[0], h[2]);
        assert_ne!(h[0], h[1]);
        // Column order matters for multi-key combination.
        let h2 = hash_keys(&chunk, &[1, 0], JOIN_SEED);
        assert_ne!(h[1], h2[0]);
    }

    #[test]
    fn col_eq_cross_types() {
        let i = Column::Int64(vec![5], None);
        let d = Column::Date(vec![5], None);
        let f = Column::Float64(vec![5.0], None);
        let s: Column = Column::Utf8(
            ["5"].iter().map(|x| x.to_string()).collect::<StrData>(),
            None,
        );
        assert!(col_eq(&i, 0, &d, 0));
        assert!(col_eq(&i, 0, &f, 0));
        assert!(!col_eq(&i, 0, &s, 0));
    }

    #[test]
    fn nulls_never_equal() {
        let a = Column::nulls(DataType::Int64, 1);
        let b = Column::Int64(vec![0], None);
        assert!(!col_eq(&a, 0, &b, 0));
        assert!(!col_eq(&a, 0, &a, 0));
    }

    #[test]
    fn substitution_replaces_placeholder() {
        let ph = ColumnId::new(TableId(99), 0);
        let e = Expr::binary(
            bfq_expr::BinOp::Lt,
            Expr::col(ColumnId::new(TableId(1), 0)),
            Expr::col(ph),
        );
        let sub = substitute_placeholder(&e, ph, &Datum::Float(2.5));
        assert_eq!(sub.to_string(), "(t1.c0 < 2.5)");
    }

    #[test]
    fn expr_type_resolution() {
        let layout = Layout::new(vec![ColumnId::new(TableId(1), 0)]);
        let types = vec![DataType::Int64];
        let e = Expr::binary(
            bfq_expr::BinOp::Plus,
            Expr::col(ColumnId::new(TableId(1), 0)),
            Expr::int(1),
        );
        let out = expr_types(&[&e], &layout, &types).unwrap();
        assert_eq!(out, vec![DataType::Int64]);
    }
}
