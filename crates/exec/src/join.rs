//! Join execution: hash join (with Bloom filter builds) for every equi-join,
//! nested-loop join for joins with no equi clause.
//!
//! The hash-join build side is a *flat open-addressing table*
//! ([`BuildTable`]): the flat hash directory aggregation also uses, with
//! chain heads as payloads, plus one contiguous row-index arena for
//! duplicate chains — no per-key `Vec` allocations, sized up front from the
//! planner's distinct-key estimate. Probing is fully batched: one columnar
//! [`hash_keys_into`] pass, a branch-free directory lookup over the hash
//! column, in-order chain expansion into candidate `(probe, build)` pairs,
//! then a columnar typed key-verification kernel that compacts the pair
//! selection vectors in place. All buffers come from the worker's
//! [`MorselScratch`], so steady-state probing allocates nothing.

use std::sync::Arc;

use bfq_common::{DataType, Result};
use bfq_expr::{eval_predicate, Expr, Layout};
use bfq_plan::JoinKind;
use bfq_storage::{Chunk, Column};

use crate::data::PartitionedData;
use crate::parallel::WorkerPool;
use crate::util::{
    col_eq, hash_keys, hash_keys_into, keys_null, slots_for, Directory, MorselScratch, JOIN_SEED,
    NONE,
};

/// Builds of at most this many rows ignore the planner's distinct-key hint
/// and grow from the minimum directory to fit their distinct key hashes.
const SMALL_BUILD_ROWS: usize = 4096;

/// A flat open-addressing hash table over one build partition.
///
/// Layout: a hash directory whose payload is a chain head, one slot per
/// distinct key hash; `next` is the duplicate-chain arena (one `u32` per
/// build row). Rows sharing a 64-bit key hash chain under one slot in
/// ascending build-row order; exact-key verification happens in the probe
/// kernel, so hash collisions only cost candidates, never correctness.
pub struct BuildTable {
    /// All build rows of the partition as one chunk.
    pub chunk: Chunk,
    /// Key-column slots within the build layout.
    pub key_slots: Vec<usize>,
    /// Distinct key hash → head of its row chain.
    dir: Directory,
    /// Duplicate-chain links: `next[row]` = next build row with the same
    /// hash, [`NONE`] at chain end.
    next: Vec<u32>,
    /// Indexed (non-null-key) rows.
    len: usize,
}

impl BuildTable {
    /// Build over a partition's concatenated rows (null keys excluded),
    /// growing the directory on demand from a small seed size.
    pub fn build(chunk: Chunk, key_slots: Vec<usize>) -> BuildTable {
        BuildTable::build_with_ndv(chunk, key_slots, None)
    }

    /// Build with a planner distinct-key hint sizing the directory up
    /// front. The hint is clamped to the row count, so a heavily duplicated
    /// build never allocates a rows-sized directory the way the seed's
    /// `HashMap::with_capacity(chunk.rows())` did.
    pub fn build_with_ndv(
        chunk: Chunk,
        key_slots: Vec<usize>,
        ndv_hint: Option<usize>,
    ) -> BuildTable {
        let rows = chunk.rows();
        let hashes = hash_keys(&chunk, &key_slots, JOIN_SEED);
        let keys_may_be_null = key_slots
            .iter()
            .any(|&s| chunk.column(s).validity().is_some());
        // Planner hint (never more distinct keys than rows), or a modest
        // seed the insert loop doubles from.
        let ndv = match rows {
            0..=SMALL_BUILD_ROWS => 0,
            _ => ndv_hint.unwrap_or(rows / 4).min(rows),
        };
        let mut table = BuildTable {
            chunk,
            key_slots,
            dir: Directory::with_keys(ndv),
            next: vec![NONE; rows],
            len: 0,
        };
        // Reverse insertion order: chains are built head-first, so walking
        // `head, next[head], …` at probe time yields ascending build-row
        // order, which makes the pair sequence a function of the data alone.
        for i in (0..rows).rev() {
            if keys_may_be_null && keys_null(&table.chunk, &table.key_slots, i) {
                continue;
            }
            match table.dir.find(hashes[i], |_| true) {
                // Existing chain: push in front of the current head.
                Ok(slot) => {
                    table.next[i] = std::mem::replace(&mut table.dir.payload[slot], i as u32);
                }
                Err(slot) => table.dir.insert(slot, hashes[i], i as u32),
            }
            table.len += 1;
        }
        table
    }

    /// Batched directory lookup: for each probe hash, the matching chain
    /// head (or `u32::MAX` = no match).
    pub fn lookup_heads(&self, hashes: &[u64], heads: &mut Vec<u32>, pending: &mut Vec<u32>) {
        self.dir.lookup(hashes, heads, pending);
    }

    /// Expand chain heads into candidate `(probe, build)` pairs, in probe
    /// order with each chain in ascending build-row order — once verified,
    /// the pair sequence a nested loop over (probe row, build row) yields.
    pub fn expand_pairs(&self, heads: &[u32], probe_sel: &mut Vec<u32>, build_sel: &mut Vec<u32>) {
        for (i, &head) in heads.iter().enumerate() {
            let mut b = head;
            while b != NONE {
                probe_sel.push(i as u32);
                build_sel.push(b);
                b = self.next[b as usize];
            }
        }
    }

    /// Number of indexed (non-null-key) rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table indexes no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Occupied directory slots — the number of distinct key hashes.
    pub fn distinct_hashes(&self) -> usize {
        self.dir.len()
    }

    /// Directory slots allocated (capacity; a power of two).
    pub fn directory_slots(&self) -> usize {
        self.dir.slots()
    }
}

/// Columnar key verification: compact the candidate pair vectors down to
/// the pairs whose key columns are exactly equal (hash-collision recheck,
/// NULL never equal). One typed pass per key column; each pass is a simple
/// indexable loop with a branch-free ascending in-place compaction, so the
/// overwrite never clobbers a live slot and LLVM can vectorize the
/// null-free fast paths.
pub fn verify_pairs(
    probe: &Chunk,
    probe_slots: &[usize],
    build: &Chunk,
    build_slots: &[usize],
    probe_sel: &mut Vec<u32>,
    build_sel: &mut Vec<u32>,
) {
    for (&ps, &bs) in probe_slots.iter().zip(build_slots) {
        if probe_sel.is_empty() {
            return;
        }
        let pc: &Column = probe.column(ps);
        let bc: &Column = build.column(bs);
        match (pc, bc) {
            (Column::Int64(x, None), Column::Int64(y, None)) => {
                compact_pairs(probe_sel, build_sel, |p, b| x[p] == y[b]);
            }
            (Column::Date(x, None), Column::Date(y, None)) => {
                compact_pairs(probe_sel, build_sel, |p, b| x[p] == y[b]);
            }
            (Column::Int64(x, None), Column::Date(y, None)) => {
                compact_pairs(probe_sel, build_sel, |p, b| x[p] == y[b] as i64);
            }
            (Column::Date(x, None), Column::Int64(y, None)) => {
                compact_pairs(probe_sel, build_sel, |p, b| x[p] as i64 == y[b]);
            }
            (Column::Float64(x, None), Column::Float64(y, None)) => {
                compact_pairs(probe_sel, build_sel, |p, b| x[p] == y[b]);
            }
            // Nullable or string/bool keys: the general typed compare.
            _ => compact_pairs(probe_sel, build_sel, |p, b| col_eq(pc, p, bc, b)),
        }
    }
}

/// Keep the pairs `keep(probe_row, build_row)` accepts, compacting both
/// selection vectors in place. `k ≤ j` throughout, so writes never clobber
/// an unread slot.
#[inline]
fn compact_pairs(
    probe_sel: &mut Vec<u32>,
    build_sel: &mut Vec<u32>,
    mut keep: impl FnMut(usize, usize) -> bool,
) {
    let n = probe_sel.len().min(build_sel.len());
    let mut k = 0usize;
    for j in 0..n {
        let (p, b) = (probe_sel[j], build_sel[j]);
        probe_sel[k] = p;
        build_sel[k] = b;
        k += keep(p as usize, b as usize) as usize;
    }
    probe_sel.truncate(k);
    build_sel.truncate(k);
}

/// Null columns for the inner side of an unmatched left-outer row.
fn null_inner_chunk(types: &[DataType], rows: usize) -> Result<Chunk> {
    Chunk::new(
        types
            .iter()
            .map(|dt| Arc::new(Column::nulls(*dt, rows)))
            .collect(),
    )
}

/// Probe one partition of the outer side against a build table. Fully
/// batched: one columnar [`hash_keys_into`] pass, the flat directory
/// lookup, in-order chain expansion, then columnar key verification — all
/// buffers from the worker's reusable scratch. Null probe keys need no
/// pre-filter: their hashes can only reach verification, which rejects
/// NULL, so they fall out of the pair set like any hash collision.
#[allow(clippy::too_many_arguments)]
pub fn probe_partition(
    outer_chunks: &[Chunk],
    table: &BuildTable,
    probe_slots: &[usize],
    kind: JoinKind,
    extra: &Option<Expr>,
    joined_layout: &Layout,
    inner_types: &[DataType],
    scratch: &mut MorselScratch,
) -> Result<Vec<Chunk>> {
    let mut out = Vec::new();
    for chunk in outer_chunks {
        if chunk.is_empty() {
            continue;
        }
        let hash_cap = scratch.join_hash.capacity()
            + scratch.join_tmp.capacity()
            + scratch.join_heads.capacity()
            + scratch.join_pending.capacity();
        let mut hashes = std::mem::take(&mut scratch.join_hash);
        let mut tmp = std::mem::take(&mut scratch.join_tmp);
        let mut heads = std::mem::take(&mut scratch.join_heads);
        let mut pending = std::mem::take(&mut scratch.join_pending);
        hash_keys_into(chunk, probe_slots, JOIN_SEED, &mut tmp, &mut hashes);
        table.lookup_heads(&hashes, &mut heads, &mut pending);
        let pair_cap = scratch.pair_probe.capacity() + scratch.pair_build.capacity();
        let mut probe_sel = std::mem::take(&mut scratch.pair_probe);
        let mut build_sel = std::mem::take(&mut scratch.pair_build);
        probe_sel.clear();
        build_sel.clear();
        table.expand_pairs(&heads, &mut probe_sel, &mut build_sel);
        scratch.join_candidates += probe_sel.len() as u64;
        verify_pairs(
            chunk,
            probe_slots,
            &table.chunk,
            &table.key_slots,
            &mut probe_sel,
            &mut build_sel,
        );
        scratch.join_verified += probe_sel.len() as u64;
        // Residual predicate filters candidate pairs (compacting in place —
        // `keep` is ascending, so the overwrite never clobbers a live slot).
        if let Some(pred) = extra {
            if !probe_sel.is_empty() {
                let (pairs, layout) = residual_input(
                    pred,
                    chunk,
                    &table.chunk,
                    joined_layout,
                    &probe_sel,
                    &build_sel,
                )?;
                let keep = eval_predicate(pred, &pairs, &layout)?;
                for (j, &k) in keep.iter().enumerate() {
                    probe_sel[j] = probe_sel[k as usize];
                    build_sel[j] = build_sel[k as usize];
                }
                probe_sel.truncate(keep.len());
                build_sel.truncate(keep.len());
            }
        }
        let emitted = emit_join_rows(
            chunk,
            &table.chunk,
            kind,
            &probe_sel,
            &build_sel,
            inner_types,
            &mut out,
        );
        scratch.join_hash = hashes;
        scratch.join_tmp = tmp;
        scratch.join_heads = heads;
        scratch.join_pending = pending;
        if scratch.join_hash.capacity()
            + scratch.join_tmp.capacity()
            + scratch.join_heads.capacity()
            + scratch.join_pending.capacity()
            > hash_cap
        {
            scratch.probe.note_growth();
        }
        scratch.pair_probe = probe_sel;
        scratch.pair_build = build_sel;
        if scratch.pair_probe.capacity() + scratch.pair_build.capacity() > pair_cap {
            scratch.probe.note_growth();
        }
        emitted?;
    }
    Ok(out)
}

/// The candidate pairs' values of just the columns a residual predicate
/// reads, gathered from whichever side carries each one, and their layout.
fn residual_input(
    pred: &Expr,
    probe: &Chunk,
    build: &Chunk,
    joined_layout: &Layout,
    probe_sel: &[u32],
    build_sel: &[u32],
) -> Result<(Chunk, Layout)> {
    let ids = pred.columns();
    let columns =
        slots_for(joined_layout, &ids)?
            .into_iter()
            .map(|s| match s.checked_sub(probe.width()) {
                None => Arc::new(probe.column(s).take(probe_sel)),
                Some(b) => Arc::new(build.column(b).take(build_sel)),
            });
    let columns: Vec<_> = columns.collect();
    let pairs = if columns.is_empty() {
        Chunk::of_rows(probe_sel.len())
    } else {
        Chunk::new(columns)?
    };
    Ok((pairs, Layout::new(ids)))
}

/// Emit the output chunks of one probed chunk's matched pairs.
fn emit_join_rows(
    chunk: &Chunk,
    build_chunk: &Chunk,
    kind: JoinKind,
    probe_sel: &[u32],
    build_sel: &[u32],
    inner_types: &[DataType],
    out: &mut Vec<Chunk>,
) -> Result<()> {
    match kind {
        JoinKind::Inner => {
            if !probe_sel.is_empty() {
                out.push(Chunk::zip(
                    &chunk.take(probe_sel),
                    &build_chunk.take(build_sel),
                )?);
            }
        }
        JoinKind::LeftOuter => {
            if !probe_sel.is_empty() {
                out.push(Chunk::zip(
                    &chunk.take(probe_sel),
                    &build_chunk.take(build_sel),
                )?);
            }
            let mut matched = vec![false; chunk.rows()];
            for &p in probe_sel {
                matched[p as usize] = true;
            }
            let unmatched: Vec<u32> = (0..chunk.rows() as u32)
                .filter(|&i| !matched[i as usize])
                .collect();
            if !unmatched.is_empty() {
                out.push(Chunk::zip(
                    &chunk.take(&unmatched),
                    &null_inner_chunk(inner_types, unmatched.len())?,
                )?);
            }
        }
        JoinKind::Semi | JoinKind::Anti => {
            let mut matched = vec![false; chunk.rows()];
            for &p in probe_sel {
                matched[p as usize] = true;
            }
            let want = kind == JoinKind::Semi;
            let rows: Vec<u32> = (0..chunk.rows() as u32)
                .filter(|&i| matched[i as usize] == want)
                .collect();
            if !rows.is_empty() {
                out.push(chunk.take(&rows));
            }
        }
    }
    Ok(())
}

/// Nested-loop join: every outer row against the full inner partition,
/// one outer partition per item of a `pool` job.
pub fn nestloop_join(
    pool: &WorkerPool,
    outer: PartitionedData,
    inner: PartitionedData,
    kind: JoinKind,
    predicate: Option<Expr>,
    joined_layout: Layout,
) -> Result<PartitionedData> {
    let types = if kind.emits_inner_columns() {
        let mut t = outer.types.clone();
        t.extend_from_slice(&inner.types);
        t
    } else {
        outer.types.clone()
    };
    let (outer, inner) = (Arc::new(outer), Arc::new(inner));
    let partitions = pool.run(outer.num_partitions(), move |p| {
        let ichunk = inner.partition_chunk(p % inner.num_partitions())?;
        let mut out = Vec::new();
        for ochunk in &outer.partitions[p] {
            for row in 0..ochunk.rows() {
                let repeated = ochunk.take(&vec![row as u32; ichunk.rows()]);
                let matches: Vec<u32> = if ichunk.rows() == 0 {
                    Vec::new()
                } else {
                    let pairs = Chunk::zip(&repeated, &ichunk)?;
                    match &predicate {
                        Some(pred) => eval_predicate(pred, &pairs, &joined_layout)?,
                        None => (0..ichunk.rows() as u32).collect(),
                    }
                };
                match kind {
                    JoinKind::Inner => {
                        if !matches.is_empty() {
                            let taken_i = ichunk.take(&matches);
                            let taken_o = ochunk.take(&vec![row as u32; matches.len()]);
                            out.push(Chunk::zip(&taken_o, &taken_i)?);
                        }
                    }
                    JoinKind::LeftOuter => {
                        if matches.is_empty() {
                            let one = ochunk.take(&[row as u32]);
                            out.push(Chunk::zip(&one, &null_inner_chunk(&inner.types, 1)?)?);
                        } else {
                            let taken_i = ichunk.take(&matches);
                            let taken_o = ochunk.take(&vec![row as u32; matches.len()]);
                            out.push(Chunk::zip(&taken_o, &taken_i)?);
                        }
                    }
                    JoinKind::Semi => {
                        if !matches.is_empty() {
                            out.push(ochunk.take(&[row as u32]));
                        }
                    }
                    JoinKind::Anti => {
                        if matches.is_empty() {
                            out.push(ochunk.take(&[row as u32]));
                        }
                    }
                }
            }
        }
        Ok(out)
    })?;
    Ok(PartitionedData { types, partitions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_common::{ColumnId, TableId};

    fn chunk1(vals: &[i64]) -> Chunk {
        Chunk::new(vec![Arc::new(Column::Int64(vals.to_vec(), None))]).unwrap()
    }

    fn pd(parts: Vec<Vec<i64>>) -> PartitionedData {
        PartitionedData {
            types: vec![DataType::Int64],
            partitions: parts
                .into_iter()
                .map(|v| {
                    if v.is_empty() {
                        vec![]
                    } else {
                        vec![chunk1(&v)]
                    }
                })
                .collect(),
        }
    }

    fn layout_of_join() -> Layout {
        Layout::new(vec![
            ColumnId::new(TableId(0), 0),
            ColumnId::new(TableId(1), 0),
        ])
    }

    /// Probe one outer chunk against `table` on column 0; returns the
    /// concatenated output (or `None` when no row survives) and the probe
    /// counters `(candidates, verified)`.
    fn probe(
        outer: &[i64],
        table: &BuildTable,
        kind: JoinKind,
        extra: &Option<Expr>,
    ) -> (Option<Chunk>, (u64, u64)) {
        let mut scratch = MorselScratch::new();
        let out = probe_partition(
            &[chunk1(outer)],
            table,
            &[0],
            kind,
            extra,
            &layout_of_join(),
            &[DataType::Int64],
            &mut scratch,
        )
        .unwrap();
        let joined = (!out.is_empty()).then(|| Chunk::concat(&out).unwrap());
        (joined, scratch.take_join_counts())
    }

    /// Candidate build rows for one probe hash through the directory's
    /// scalar probe: the oracle for the batched lookup.
    fn candidates(t: &BuildTable, h: u64) -> Vec<u32> {
        let mut out = Vec::new();
        if let Ok(slot) = t.dir.find(h, |_| true) {
            let mut b = t.dir.payload[slot];
            while b != NONE {
                out.push(b);
                b = t.next[b as usize];
            }
        }
        out
    }

    #[test]
    fn build_table_skips_null_keys() {
        let col = Column::Int64(
            vec![1, 2, 3],
            Some(bfq_storage::Bitmap::from_bools([true, false, true])),
        );
        let chunk = Chunk::new(vec![Arc::new(col)]).unwrap();
        let t = BuildTable::build(chunk, vec![0]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.distinct_hashes(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn directory_sized_by_distinct_keys_not_rows() {
        // 4096 rows, 4 distinct keys: the seed's map reserved a rows-sized
        // capacity; a small build grows from the minimum directory, which
        // 4 keys never outgrow.
        let vals: Vec<i64> = (0..4096).map(|i| i % 4).collect();
        let t = BuildTable::build(chunk1(&vals), vec![0]);
        assert_eq!(t.len(), 4096);
        assert_eq!(t.distinct_hashes(), 4);
        assert!(
            t.directory_slots() <= 16,
            "4 distinct keys need no more than the minimum directory, got {}",
            t.directory_slots()
        );
        // Large duplicated builds take the planner hint instead — still far
        // below a rows-sized directory once the hint reflects the NDV.
        let vals: Vec<i64> = (0..50_000).map(|i| i % 4).collect();
        let t = BuildTable::build_with_ndv(chunk1(&vals), vec![0], Some(4));
        assert_eq!(t.len(), 50_000);
        assert_eq!(t.distinct_hashes(), 4);
        assert!(t.directory_slots() <= 16);
    }

    #[test]
    fn directory_grows_past_a_small_hint() {
        let vals: Vec<i64> = (0..5000).collect();
        let t = BuildTable::build_with_ndv(chunk1(&vals), vec![0], Some(8));
        assert_eq!(t.len(), 5000);
        assert_eq!(t.distinct_hashes(), 5000);
        // Load factor stays ≤ 1/2 even when the hint lied.
        assert!(t.directory_slots() >= 2 * 5000);
        for (i, &v) in vals.iter().enumerate() {
            let h = hash_keys(&chunk1(&[v]), &[0], JOIN_SEED)[0];
            assert_eq!(candidates(&t, h), vec![i as u32], "key {v}");
        }
    }

    #[test]
    fn batched_lookup_matches_scalar_candidates() {
        // Heavy duplication: every chain shape from singleton to 64-long.
        let vals: Vec<i64> = (0..1024).map(|i| i % 37).collect();
        let t = BuildTable::build(chunk1(&vals), vec![0]);
        let probe_vals: Vec<i64> = (-5..45).collect();
        let probe_chunk = chunk1(&probe_vals);
        let hashes = hash_keys(&probe_chunk, &[0], JOIN_SEED);
        let (mut heads, mut pending) = (Vec::new(), Vec::new());
        t.lookup_heads(&hashes, &mut heads, &mut pending);
        let (mut ps, mut bs) = (Vec::new(), Vec::new());
        t.expand_pairs(&heads, &mut ps, &mut bs);
        let mut expect = Vec::new();
        for (i, &h) in hashes.iter().enumerate() {
            for b in candidates(&t, h) {
                expect.push((i as u32, b));
            }
        }
        let got: Vec<(u32, u32)> = ps.iter().copied().zip(bs.iter().copied()).collect();
        assert_eq!(got, expect);
        // Chains expand in ascending build-row order per probe row.
        for w in got.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1);
            }
        }
    }

    #[test]
    fn inner_hash_join_matches() {
        let build = BuildTable::build(chunk1(&[1, 2, 2]), vec![0]);
        let (out, _) = probe(&[2, 3, 1], &build, JoinKind::Inner, &None);
        // 2 matches twice, 1 once, 3 never: 3 output rows.
        let c = out.unwrap();
        assert_eq!(c.rows(), 3);
        assert_eq!(c.width(), 2);
    }

    #[test]
    fn left_outer_preserves_unmatched() {
        let build = BuildTable::build(chunk1(&[1]), vec![0]);
        let (out, _) = probe(&[1, 5], &build, JoinKind::LeftOuter, &None);
        let c = out.unwrap();
        assert_eq!(c.rows(), 2);
        // One row has a NULL inner column.
        let nulls = (0..2).filter(|&i| c.column(1).is_null(i)).count();
        assert_eq!(nulls, 1);
    }

    #[test]
    fn semi_and_anti() {
        let build = BuildTable::build(chunk1(&[1, 1, 2]), vec![0]);
        let (semi, _) = probe(&[1, 3, 2, 1], &build, JoinKind::Semi, &None);
        // Semi: each qualifying outer row once, no duplication from 2 builds.
        assert_eq!(semi.unwrap().column(0).as_i64().unwrap(), &[1, 2, 1]);
        let (anti, _) = probe(&[1, 3, 2, 1], &build, JoinKind::Anti, &None);
        assert_eq!(anti.unwrap().column(0).as_i64().unwrap(), &[3]);
    }

    #[test]
    fn extra_predicate_filters_pairs() {
        // Join on key, keep only pairs where outer value < inner value is
        // simulated via a predicate comparing the two columns.
        let build = BuildTable::build(chunk1(&[1, 1]), vec![0]);
        let extra = Expr::binary(
            bfq_expr::BinOp::Lt,
            Expr::col(ColumnId::new(TableId(0), 0)),
            Expr::col(ColumnId::new(TableId(1), 0)),
        );
        let (out, _) = probe(&[1], &build, JoinKind::Inner, &Some(extra));
        // 1 < 1 is false: everything filtered.
        assert!(out.is_none());
    }

    #[test]
    fn probe_counters_accumulate() {
        let build = BuildTable::build(chunk1(&[1, 1, 2]), vec![0]);
        let (_, counts) = probe(&[1, 3, 2], &build, JoinKind::Inner, &None);
        // Probe 1 → chain {1,1}; probe 2 → chain {2}; probe 3 → miss.
        assert_eq!(counts, (3, 3));
    }

    #[test]
    fn nestloop_cross_and_filtered() {
        let pool = WorkerPool::lazy();
        let inner = pd(vec![vec![10, 20, 30]]);
        let cross = nestloop_join(
            &pool,
            pd(vec![vec![1, 2]]),
            inner.clone(),
            JoinKind::Inner,
            None,
            layout_of_join(),
        )
        .unwrap();
        assert_eq!(cross.total_rows(), 6);
        let pred = Expr::binary(
            bfq_expr::BinOp::Gt,
            Expr::col(ColumnId::new(TableId(1), 0)),
            Expr::int(15),
        );
        let filtered = nestloop_join(
            &pool,
            pd(vec![vec![1, 2]]),
            inner,
            JoinKind::Inner,
            Some(pred.clone()),
            layout_of_join(),
        )
        .unwrap();
        assert_eq!(filtered.total_rows(), 4);
        let anti = nestloop_join(
            &pool,
            pd(vec![vec![1, 2]]),
            pd(vec![vec![]]),
            JoinKind::Anti,
            Some(pred),
            layout_of_join(),
        )
        .unwrap();
        assert_eq!(anti.total_rows(), 2);
    }
}
