//! Runtime-filter chunk skipping beyond the exact-hash limit.
//!
//! Build sides with ≤ 1024 distinct keys ship exact key hashes, letting
//! scans probe per-chunk Bloom indexes. Above that limit skipping used to
//! silently disable; the filter now carries a merged per-partition
//! [`bfq::bloom::KeySummary`] so key-clustered fact chunks are still
//! skipped — and `ScanPruneStats::skipped_rfsummary` makes the tier that
//! proved each skip observable.

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

/// A dimension whose keys form two clusters with a wide gap — more than
/// 1024 distinct keys (so exact hashes are dropped), but leaving most of
/// the fact table's key range provably empty.
fn gapped_dim(name: &str) -> Table {
    let schema = Arc::new(Schema::new(vec![Field::new("d_key", DataType::Int64)]));
    let mut keys: Vec<i64> = (0..1000).collect();
    keys.extend(30_000..31_000);
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
    config.settings.plan.bf_max_build_ndv = 1_000_000.0;
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
fn large_build_sides_still_skip_chunks_via_the_summary_tier() {
    let engine = engine_with(IndexMode::ZoneMapBloom);
    let out = engine.connect().run_sql(JOIN_SQL).unwrap();
    let prune = out.exec_stats.prune_totals();

    // The build side has 2000 distinct keys — beyond the exact-hash limit —
    // yet the gap chunks (keys 2000..30000, chunks 1..=14) are skipped, and
    // the stats name the tier that proved it.
    assert!(
        prune.skipped_rfsummary >= 10,
        "summary tier skipped only {} chunks: {prune:?}",
        prune.skipped_rfsummary
    );
    // Chunks past the build-key maximum (31000+) fall to the bounds tier.
    assert!(
        prune.skipped_rfilter >= 1,
        "bounds tier skipped nothing: {prune:?}"
    );
    // The explain output surfaces the tier.
    assert!(
        out.explain().contains("filtersummary"),
        "explain does not surface the summary tier:\n{}",
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
    // Sanity: the join matched exactly the 2000 dimension keys.
    assert_eq!(out.chunk.row(0)[1], Datum::Int(2_000));
}
