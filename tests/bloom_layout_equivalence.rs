//! Blocked-layout correctness: the `bloom_layout` knob must never change
//! query results, only probe cost.
//!
//! * Full matrix: every TPC-H query × `BloomLayout` × `IndexMode` is
//!   bit-identical to the `standard` oracle (exact `Datum` equality,
//!   floats included) — Bloom layouts may differ only in which
//!   false-positive rows they pass, and the join above removes those
//!   either way.
//! * Blocked per-chunk indexes (catalog registered under
//!   `set_index_bloom_layout(Blocked)`) keep data skipping working and
//!   results identical.
//! * Allocation discipline: steady-state morsel execution performs zero
//!   filter-path allocations — the scratch-growth counter stays a small
//!   constant while the scan processes hundreds of morsels.
//! * The SET plumbing: `bloom_layout` participates in options and the
//!   plan-cache key.

use bfq::prelude::*;
use bfq::storage::{Column, Field, Schema};
use bfq::tpch;
use std::sync::Arc;

const SF: f64 = 0.005;
const SEED: u64 = 20260731;

fn exact_rows(chunk: &Chunk) -> Vec<Vec<Datum>> {
    (0..chunk.rows()).map(|i| chunk.row(i)).collect()
}

#[test]
fn blocked_layout_is_bit_identical_to_standard_oracle() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let catalog = Arc::new(db.catalog);
    for mode in IndexMode::ALL {
        // Oracle pass: the standard layout.
        let mut oracle: Vec<(usize, Vec<Vec<Datum>>)> = Vec::new();
        let std_engine = Engine::over_catalog(
            catalog.clone(),
            EngineConfig::default()
                .with_bloom_mode(BloomMode::Cbo)
                .with_dop(4)
                .with_index_mode(mode)
                .with_bloom_layout(BloomLayout::Standard),
        );
        let std_conn = std_engine.connect();
        for q in tpch::supported_queries() {
            let sql = tpch::query_text(q, SF);
            let out = std_conn
                .run_sql(&sql)
                .unwrap_or_else(|e| panic!("Q{q} [{mode} standard]: {e}"));
            oracle.push((q, exact_rows(&out.chunk)));
        }
        // Blocked pass, via the SET path (exercising the session plumbing).
        let blk_engine = Engine::over_catalog(
            catalog.clone(),
            EngineConfig::default()
                .with_bloom_mode(BloomMode::Cbo)
                .with_dop(4)
                .with_index_mode(mode),
        );
        let mut blk_conn = blk_engine.connect();
        blk_conn.set("bloom_layout", "blocked").expect("SET");
        for (q, expected) in &oracle {
            let sql = tpch::query_text(*q, SF);
            let out = blk_conn
                .run_sql(&sql)
                .unwrap_or_else(|e| panic!("Q{q} [{mode} blocked]: {e}"));
            assert_eq!(
                &exact_rows(&out.chunk),
                expected,
                "Q{q} [{mode}]: blocked layout diverges from standard oracle"
            );
        }
    }
}

/// A synthetic star join whose fact side spans many chunks: 256 chunks of
/// 2 048 rows probing a restricted 64-key dimension — the shape where a
/// planned Bloom filter does real row-level work on every morsel. `f_key`
/// is deliberately spread across chunks (so the filter cannot be satisfied
/// by chunk skipping); `f_seq` is clustered and even-valued (so the chunk
/// index can prove point lookups empty via zone maps *and* the Bloom tier).
fn star_catalog(index_layout: BloomLayout) -> bfq::catalog::Catalog {
    let mut cat = bfq::catalog::Catalog::new();
    cat.set_index_bloom_layout(index_layout);
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
    let fact = bfq::storage::Table::new("fact", fact_schema, chunks).unwrap();
    cat.register(fact, vec![]).unwrap();
    let dim_schema = Arc::new(Schema::new(vec![Field::new("d_key", DataType::Int64)]));
    let dim_chunk = Chunk::new(vec![Arc::new(Column::Int64((0..64).collect(), None))]).unwrap();
    let dim = bfq::storage::Table::new("dim", dim_schema, vec![dim_chunk]).unwrap();
    cat.register(dim, vec![0]).unwrap();
    cat
}

/// The dimension restriction keeps the filter from looking lossless
/// (Heuristic 3 would prune an unrestricted unique-key build side).
const STAR_SQL: &str = "select count(*) from fact, dim where f_key = d_key and d_key < 32";

fn run_star(layout: BloomLayout, dop: usize) -> (i64, u64, usize, u64) {
    let cat = Arc::new(star_catalog(layout));
    let engine = Engine::over_catalog(
        cat,
        EngineConfig::default()
            .with_bloom_mode(BloomMode::Cbo)
            .with_dop(dop)
            .with_bloom_layout(layout),
    );
    let out = engine.connect().run_sql(STAR_SQL).expect("star join");
    let count = match out.chunk.row(0)[0] {
        Datum::Int(v) => v,
        ref d => panic!("unexpected count type {d:?}"),
    };
    let mut filters = 0usize;
    out.optimized.plan.visit(&mut |node| {
        if let bfq::plan::PhysicalNode::Scan { blooms, .. }
        | bfq::plan::PhysicalNode::DerivedScan { blooms, .. } = &node.node
        {
            filters += blooms.len();
        }
    });
    let morsels = out.exec_stats.prune_totals().chunks;
    (
        count,
        out.exec_stats.filter_scratch_allocs(),
        filters,
        morsels,
    )
}

#[test]
fn steady_state_morsel_execution_is_filter_allocation_free() {
    for layout in BloomLayout::ALL {
        for dop in [1usize, 4] {
            let (count, allocs, filters, morsels) = run_star(layout, dop);
            // The join itself fixes the answer regardless of layout: keys
            // 0..64 appear as (i*7919) % 1000 hits in 0..64.
            assert!(count > 0, "star join returned nothing");
            assert!(
                filters >= 1,
                "[{layout} dop={dop}] expected a planned Bloom filter on the fact scan"
            );
            assert!(
                morsels >= 256,
                "[{layout} dop={dop}] fact scan should process every chunk, saw {morsels}"
            );
            // Zero per-morsel filter allocations: every buffer grows to the
            // (uniform) chunk size once per worker and never again, so the
            // growth count is a small per-worker constant — orders of
            // magnitude below one-per-morsel.
            let budget = 12 * dop as u64 + 16;
            assert!(
                allocs <= budget,
                "[{layout} dop={dop}] {allocs} scratch growths for {morsels} morsels \
                 (budget {budget}): filter path is allocating per morsel"
            );
        }
    }
    // Same answer on both layouts.
    let (std_count, ..) = run_star(BloomLayout::Standard, 4);
    let (blk_count, ..) = run_star(BloomLayout::Blocked, 4);
    assert_eq!(std_count, blk_count);
}

#[test]
fn blocked_chunk_indexes_skip_and_match_standard() {
    // Point lookup on a clustered key: the chunk Bloom/zone tier must skip
    // chunks under either index layout and return identical rows.
    let std_cat = Arc::new(star_catalog(BloomLayout::Standard));
    let blk_cat = Arc::new(star_catalog(BloomLayout::Blocked));
    // An odd probe value inside the clustered range: zone maps skip every
    // chunk except the one covering it, whose Bloom index proves the (even
    // valued) column cannot contain it — all 256 chunks skipped, at least
    // one via the Bloom tier, under either index layout.
    let sql = "select count(*) from fact where f_seq = 100001";
    let mut results = Vec::new();
    for cat in [std_cat, blk_cat] {
        let engine = Engine::over_catalog(
            cat,
            EngineConfig::default().with_index_mode(IndexMode::ZoneMapBloom),
        );
        let out = engine.connect().run_sql(sql).expect("point lookup");
        let p = out.exec_stats.prune_totals();
        assert_eq!(p.skipped(), 256, "every chunk is provably empty");
        assert!(
            p.skipped_bloom >= 1,
            "the covering chunk must be skipped by its Bloom index"
        );
        results.push(exact_rows(&out.chunk));
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn bloom_layout_set_plumbing_and_cache_separation() {
    let db = tpch::gen::generate(0.001, SEED).expect("generate");
    let engine = Engine::new(db, EngineConfig::default().with_dop(2));
    let mut conn = engine.connect();
    assert!(conn.set("bloom_layout", "sideways").is_err());
    conn.set("bloom_layout", "blocked").expect("SET blocked");
    assert_eq!(
        conn.settings().plan.bloom_layout,
        BloomLayout::Blocked,
        "SET must record the value"
    );
    let sql = "select count(*) from orders where o_orderkey < 100";
    conn.run_sql(sql).unwrap();
    // A different layout is a different plan-cache entry: flipping the knob
    // must miss, not reuse the blocked plan.
    conn.set("bloom_layout", "standard").expect("SET standard");
    let r = conn.run_sql(sql).unwrap();
    assert!(!r.cache_hit, "layouts must not share cached plans");
    conn.set("bloom_layout", "default").expect("RESET");
    assert_eq!(
        conn.settings().plan.bloom_layout,
        engine.config().settings.plan.bloom_layout
    );
}
