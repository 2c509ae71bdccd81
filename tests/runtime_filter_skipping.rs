//! Runtime filters and chunk Bloom indexes at the scan.
//!
//! * Build sides with ≤ 1024 distinct keys ship exact key hashes, letting
//!   scans probe per-chunk Bloom indexes and skip the key-clustered fact
//!   chunks that hold none of them (`ScanPruneStats::skipped_rfilter`).
//! * Chunk Bloom indexes prove point lookups empty where zone maps cannot.
//! * Allocation discipline: steady-state morsel execution performs zero
//!   filter-path allocations — the scratch-growth counter stays a small
//!   constant while the scan processes hundreds of morsels.

use bfq::prelude::*;
use bfq::storage::{Column, Field, Schema, Table};
use std::sync::Arc;

/// A fact table of `n_chunks` chunks, each a contiguous key range (the
/// key-clustered layout a time-ordered fact table has after sorting).
fn clustered_fact(name: &str, n_chunks: usize, chunk_rows: i64) -> Table {
    let schema = Arc::new(Schema::new(vec![
        Field::new("f_key", DataType::Int64),
        Field::new("f_val", DataType::Int64),
    ]));
    let chunks = (0..n_chunks)
        .map(|c| {
            let lo = c as i64 * chunk_rows;
            let keys: Vec<i64> = (lo..lo + chunk_rows).collect();
            let vals: Vec<i64> = keys.iter().map(|k| k % 97).collect();
            Chunk::new(vec![
                Arc::new(Column::Int64(keys, None)),
                Arc::new(Column::Int64(vals, None)),
            ])
            .unwrap()
        })
        .collect();
    Table::new(name, schema, chunks).unwrap()
}

/// A dimension of ten keys in two clusters with a wide gap: few enough to
/// ship exact key hashes, and leaving most of the fact table's chunks
/// without a single key.
fn gapped_dim(name: &str) -> Table {
    let schema = Arc::new(Schema::new(vec![Field::new("d_key", DataType::Int64)]));
    let mut keys: Vec<i64> = (0..5).map(|k| k * 300).collect();
    keys.extend((0..5).map(|k| 38_000 + k * 300));
    let chunk = Chunk::new(vec![Arc::new(Column::Int64(keys, None))]).unwrap();
    Table::new(name, schema, vec![chunk]).unwrap()
}

fn engine_with(mode: IndexMode) -> Arc<Engine> {
    let mut config = EngineConfig::default()
        .with_bloom_mode(BloomMode::Cbo)
        .with_dop(2)
        .with_index_mode(mode);
    // The H2 apply threshold is calibrated for big tables; lower it so
    // this synthetic join plans its runtime filter.
    config.settings.plan.bf_min_apply_rows = 50.0;
    let engine = Engine::over_catalog(Arc::new(bfq::catalog::Catalog::new()), config);
    engine
        .register_table(clustered_fact("fact", 20, 2_000), vec![0])
        .unwrap();
    // No uniqueness declared: this synthetic dimension is not referentially
    // complete, so the FK→PK losslessness heuristic (H3) must not prune the
    // filter candidate.
    engine.register_table(gapped_dim("dim"), vec![]).unwrap();
    engine
        .catalog()
        .meta_by_name("fact")
        .expect("fact registered");
    engine
}

const JOIN_SQL: &str = "select sum(f_val) as s, count(*) as n from fact, dim where f_key = d_key";

#[test]
fn small_build_sides_skip_chunks_via_their_key_hashes() {
    let engine = engine_with(IndexMode::ZoneMapBloom);
    let out = engine.connect().run_sql(JOIN_SQL).unwrap();
    let prune = out.exec_stats.prune_totals();

    // The keys live in chunks 0 and 19; the 18 chunks between hold none.
    // A chunk is kept when any of the ten key hashes is a false positive of
    // its Bloom index, and those odds compound per key: 9 of the 18 are
    // skipped, so ask for a third.
    assert!(
        prune.skipped_rfilter >= 6,
        "key hashes skipped only {} of 18 keyless chunks: {prune:?}",
        prune.skipped_rfilter
    );
    assert!(
        out.explain().contains("filterkeys"),
        "explain does not surface the key-hash tier:\n{}",
        out.explain()
    );

    // Correctness: identical result with all skipping disabled.
    let baseline = engine_with(IndexMode::Off)
        .connect()
        .run_sql(JOIN_SQL)
        .unwrap();
    assert_eq!(baseline.exec_stats.prune_totals().skipped(), 0);
    let rows = |c: &Chunk| (0..c.rows()).map(|i| c.row(i)).collect::<Vec<_>>();
    assert_eq!(rows(&out.chunk), rows(&baseline.chunk));
    // Sanity: the join matched exactly the ten dimension keys.
    assert_eq!(out.chunk.row(0)[1], Datum::Int(10));
}

/// A synthetic star join whose fact side spans many chunks: 256 chunks of
/// 2 048 rows probing a restricted 64-key dimension — the shape where a
/// planned Bloom filter does real row-level work on every morsel. `f_key`
/// is deliberately spread across chunks (so the filter cannot be satisfied
/// by chunk skipping); `f_seq` is clustered and even-valued (so the chunk
/// index can prove point lookups empty via zone maps *and* the Bloom tier).
fn star_catalog() -> bfq::catalog::Catalog {
    let mut cat = bfq::catalog::Catalog::new();
    let fact_schema = Arc::new(Schema::new(vec![
        Field::new("f_key", DataType::Int64),
        Field::new("f_seq", DataType::Int64),
    ]));
    let chunks: Vec<Chunk> = (0..256)
        .map(|c| {
            let keys: Vec<i64> = (0..2048).map(|i| (c * 2048 + i) * 7919 % 1000).collect();
            let seqs: Vec<i64> = (0..2048).map(|i| (c * 2048 + i) * 2).collect();
            Chunk::new(vec![
                Arc::new(Column::Int64(keys, None)),
                Arc::new(Column::Int64(seqs, None)),
            ])
            .unwrap()
        })
        .collect();
    let fact = Table::new("fact", fact_schema, chunks).unwrap();
    cat.register(fact, vec![]).unwrap();
    let dim_schema = Arc::new(Schema::new(vec![Field::new("d_key", DataType::Int64)]));
    let dim_chunk = Chunk::new(vec![Arc::new(Column::Int64((0..64).collect(), None))]).unwrap();
    let dim = Table::new("dim", dim_schema, vec![dim_chunk]).unwrap();
    cat.register(dim, vec![0]).unwrap();
    cat
}

/// The dimension restriction keeps the filter from looking lossless
/// (Heuristic 3 would prune an unrestricted unique-key build side).
const STAR_SQL: &str = "select count(*) from fact, dim where f_key = d_key and d_key < 32";

#[test]
fn steady_state_morsel_execution_is_filter_allocation_free() {
    let star = Arc::new(star_catalog());
    let expected = (0..256 * 2048i64).filter(|r| r * 7919 % 1000 < 32).count() as i64;
    for dop in [1usize, 4] {
        let engine = Engine::over_catalog(
            star.clone(),
            EngineConfig::default()
                .with_bloom_mode(BloomMode::Cbo)
                .with_dop(dop),
        );
        let out = engine.connect().run_sql(STAR_SQL).expect("star join");
        assert_eq!(out.chunk.row(0)[0], Datum::Int(expected), "[dop={dop}]");
        let mut filters = 0usize;
        out.optimized.plan.visit(&mut |node| {
            if let bfq::plan::PhysicalNode::Scan { blooms, .. }
            | bfq::plan::PhysicalNode::DerivedScan { blooms, .. } = &node.node
            {
                filters += blooms.len();
            }
        });
        assert!(
            filters >= 1,
            "[dop={dop}] expected a planned Bloom filter on the fact scan"
        );
        let morsels = out.exec_stats.prune_totals().chunks;
        assert!(
            morsels >= 256,
            "[dop={dop}] fact scan should process every chunk, saw {morsels}"
        );
        // Zero per-morsel filter allocations: every buffer grows to the
        // (uniform) chunk size once per worker and never again, so the
        // growth count is a small per-worker constant — orders of
        // magnitude below one-per-morsel.
        let allocs = out.exec_stats.filter_scratch_allocs();
        let budget = 12 * dop as u64 + 16;
        assert!(
            allocs <= budget,
            "[dop={dop}] {allocs} scratch growths for {morsels} morsels \
             (budget {budget}): filter path is allocating per morsel"
        );
    }
}

#[test]
fn chunk_bloom_indexes_skip_point_lookups() {
    // An odd probe value inside the clustered range: zone maps skip every
    // chunk except the one covering it, whose Bloom index proves the (even
    // valued) column cannot contain it — all 256 chunks skipped, at least
    // one via the Bloom tier.
    let engine = Engine::over_catalog(
        Arc::new(star_catalog()),
        EngineConfig::default().with_index_mode(IndexMode::ZoneMapBloom),
    );
    let out = engine
        .connect()
        .run_sql("select count(*) from fact where f_seq = 100001")
        .expect("point lookup");
    let p = out.exec_stats.prune_totals();
    assert_eq!(p.skipped(), 256, "every chunk is provably empty");
    assert!(
        p.skipped_bloom >= 1,
        "the covering chunk must be skipped by its Bloom index"
    );
    assert_eq!(out.chunk.row(0)[0], Datum::Int(0));
}
