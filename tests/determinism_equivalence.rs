//! `determinism = strict | fast` equivalence and plumbing.
//!
//! `strict` (the default) is bit-exact run to run and equal to the
//! reference interpreter as a normalized multiset — that contract is
//! pinned by `pipeline_equivalence.rs`. This suite pins what
//! `fast` is allowed to change and what it must preserve:
//!
//! * Full matrix: every TPC-H query × `IndexMode` × dop ∈ {1, 4, 16}
//!   returns the same row multiset as strict mode (normalized float
//!   rendering, since parallel partial aggregation reassociates float
//!   sums), and the same row *order* wherever the query's ORDER BY pins a
//!   total order.
//! * `fast` at dop 1 is bit-identical to `strict` (exact `Datum`
//!   equality): the serial partial path folds morsels in sequence order,
//!   so there is nothing to reassociate.
//! * `fast` is run-to-run deterministic at a fixed dop: static morsel
//!   assignment plus worker-ordered merges, not arrival order.
//! * The SET plumbing: `determinism` participates in options, EXPLAIN, and
//!   the plan-cache key.
//! * The fast sort sink buffers bounded per-worker runs for Top-N queries
//!   instead of the whole sequence-ordered input, and needs no reorder
//!   window (zero window stalls).
//! * The strict reorder window is configurable via `ExecOptions`.
//! * Fast-mode workers are scoped: no thread leaks.

mod common;

use bfq::exec::{execute_plan, ExecOptions, SORT_RUN_ROWS};
use bfq::prelude::*;
use bfq::storage::{Column, Field, Schema, Table};
use bfq::tpch;
use common::rows_of;
use std::sync::Arc;

const SF: f64 = 0.005;
const SEED: u64 = 20260731;

/// Queries whose ORDER BY keys form a unique key over the output (group-by
/// columns, or a single aggregate row): `fast` must reproduce the strict
/// oracle row for row, not merely as a set.
const TOTALLY_ORDERED: &[usize] = &[1, 4, 6, 7, 12, 14, 16, 17, 19, 22];

fn exact_rows(chunk: &Chunk) -> Vec<Vec<Datum>> {
    (0..chunk.rows()).map(|i| chunk.row(i)).collect()
}

/// Normalized rows as an order-insensitive multiset.
fn row_set(chunk: &Chunk) -> Vec<Vec<String>> {
    let mut rows = rows_of(chunk);
    rows.sort();
    rows
}

#[test]
fn fast_mode_matches_strict_oracle_on_tpch() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let catalog = Arc::new(db.catalog);
    for mode in IndexMode::ALL {
        for dop in [1usize, 4, 16] {
            let config = EngineConfig::default()
                .with_bloom_mode(BloomMode::Cbo)
                .with_dop(dop)
                .with_index_mode(mode);
            let strict_conn = Engine::over_catalog(catalog.clone(), config.clone()).connect();
            let fast_conn =
                Engine::over_catalog(catalog.clone(), config.with_determinism(Determinism::Fast))
                    .connect();
            for q in tpch::supported_queries() {
                let sql = tpch::query_text(q, SF);
                let strict = strict_conn
                    .run_sql(&sql)
                    .unwrap_or_else(|e| panic!("Q{q} [{mode} dop={dop}] strict: {e}"));
                let fast = fast_conn
                    .run_sql(&sql)
                    .unwrap_or_else(|e| panic!("Q{q} [{mode} dop={dop}] fast: {e}"));
                assert_eq!(
                    row_set(&fast.chunk),
                    row_set(&strict.chunk),
                    "Q{q} [{mode} dop={dop}]: fast row multiset diverges from strict"
                );
                if TOTALLY_ORDERED.contains(&q) {
                    assert_eq!(
                        rows_of(&fast.chunk),
                        rows_of(&strict.chunk),
                        "Q{q} [{mode} dop={dop}]: fast row order diverges under a total ORDER BY"
                    );
                }
                if dop == 1 {
                    // One worker folds morsels in sequence order through a
                    // single partial state: nothing reassociates, so fast
                    // is exactly strict — floats included.
                    assert_eq!(
                        exact_rows(&fast.chunk),
                        exact_rows(&strict.chunk),
                        "Q{q} [{mode}]: fast at dop 1 must be bit-identical to strict"
                    );
                } else if mode == IndexMode::ZoneMapBloom {
                    // Run-to-run determinism at a fixed dop: static morsel
                    // assignment makes a repeat bit-identical to itself.
                    let again = fast_conn
                        .run_sql(&sql)
                        .unwrap_or_else(|e| panic!("Q{q} [{mode} dop={dop}] fast rerun: {e}"));
                    assert_eq!(
                        exact_rows(&again.chunk),
                        exact_rows(&fast.chunk),
                        "Q{q} [dop={dop}]: fast mode is not run-to-run deterministic"
                    );
                }
            }
        }
    }
}

#[test]
fn determinism_set_plumbing_and_cache_separation() {
    let db = tpch::gen::generate(0.001, SEED).expect("generate");
    let engine = Engine::new(db, EngineConfig::default().with_dop(2));
    let mut conn = engine.connect();
    assert!(conn.set("determinism", "sloppy").is_err());
    let sql = "select count(*) from orders where o_orderkey < 100";
    // Strict is the default, and EXPLAIN says so.
    let strict = conn.run_sql(sql).unwrap();
    assert_eq!(strict.determinism, Determinism::Strict);
    assert!(
        strict.explain().contains("determinism: strict"),
        "EXPLAIN must report the mode:\n{}",
        strict.explain()
    );
    conn.set("determinism", "fast").expect("SET fast");
    assert_eq!(
        conn.options().determinism,
        Some(Determinism::Fast),
        "SET must record the override"
    );
    // A different mode is a different plan-cache entry: flipping the knob
    // must miss, not reuse the strict plan.
    let fast = conn.run_sql(sql).unwrap();
    assert!(!fast.cache_hit, "modes must not share cached plans");
    assert_eq!(fast.determinism, Determinism::Fast);
    assert!(fast.explain().contains("determinism: fast"));
    assert_eq!(exact_rows(&fast.chunk), exact_rows(&strict.chunk));
    conn.set("determinism", "default").expect("RESET");
    assert_eq!(conn.options().determinism, None);
}

/// A single-column table with far more rows than the fast sort sink's run
/// size, so the bound on buffered rows is observable: 256 chunks × 512
/// rows.
const CHUNKS: usize = 256;
const CHUNK_ROWS: usize = 512;
const DOP: usize = 4;

fn wide_catalog() -> Arc<bfq::catalog::Catalog> {
    let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Float64)]));
    let chunks = (0..CHUNKS)
        .map(|c| {
            let vals: Vec<f64> = (0..CHUNK_ROWS)
                .map(|i| ((c * CHUNK_ROWS + i) * 7919 % 1_000_003) as f64 * 0.25)
                .collect();
            Chunk::new(vec![Arc::new(Column::Float64(vals, None))]).unwrap()
        })
        .collect();
    let mut cat = bfq::catalog::Catalog::new();
    cat.register(Table::new("wide", schema, chunks).unwrap(), vec![])
        .unwrap();
    Arc::new(cat)
}

#[test]
fn fast_top_n_sort_buffers_bounded_runs() {
    let catalog = wide_catalog();
    let run = |mode: Determinism| {
        let engine = Engine::over_catalog(
            catalog.clone(),
            EngineConfig::default()
                .with_dop(DOP)
                // Pruning off so the scan really touches every chunk.
                .with_index_mode(IndexMode::Off)
                .with_determinism(mode),
        );
        engine
            .connect()
            .run_sql("select v from wide order by v desc limit 16")
            .expect("top-n")
    };
    let strict = run(Determinism::Strict);
    let fast = run(Determinism::Fast);
    // Distinct sort keys pin a total order, and the values flow straight
    // from the scan: the Top-N answer is exactly equal.
    assert_eq!(exact_rows(&fast.chunk), exact_rows(&strict.chunk));

    let table_rows = (CHUNKS * CHUNK_ROWS) as u64;
    let strict_peak = strict.exec_stats.peak_buffered_rows();
    let fast_peak = fast.exec_stats.peak_buffered_rows();
    assert!(
        strict_peak >= table_rows,
        "strict sort must buffer the sequence-ordered input ({strict_peak} < {table_rows})"
    );
    // Each fast worker buffers at most one run of pending rows plus the
    // morsel being folded; flushed runs are truncated to the limit. The
    // extra CHUNK_ROWS of slack absorbs the Top-N output and the
    // truncated runs awaiting the seal merge.
    let bound = (DOP * (SORT_RUN_ROWS + 2 * CHUNK_ROWS)) as u64 + CHUNK_ROWS as u64;
    assert!(
        fast_peak <= bound,
        "fast sort peak {fast_peak} exceeds the run bound {bound}"
    );
    assert!(fast_peak < strict_peak);
    // Fast sinks fold partials instead of consuming through the reorder
    // window, so nothing ever stalls waiting for sequence order.
    assert_eq!(
        fast.exec_stats.window_stalls(),
        0,
        "fast mode must not take the reorder-window path"
    );
}

#[test]
fn reorder_window_is_configurable() {
    let catalog = wide_catalog();
    let engine = Engine::over_catalog(
        catalog.clone(),
        EngineConfig::default()
            .with_dop(DOP)
            .with_index_mode(IndexMode::Off),
    );
    let piped = engine
        .connect()
        .run_sql("select sum(v) from wide where v >= 0")
        .expect("pipeline");
    let plan = &piped.optimized.plan;
    let tight = execute_plan(
        plan,
        catalog.clone(),
        ExecOptions {
            dop: DOP,
            index_mode: IndexMode::Off,
            reorder_window: 1,
            ..Default::default()
        },
    )
    .expect("tight window");
    assert_eq!(exact_rows(&tight.chunk), exact_rows(&piped.chunk));
    // One morsel of window per worker, plus one in flight per worker and
    // the one being consumed: the backpressure bound scales down with the
    // configured window.
    let tight_bound = ((DOP + DOP + 1) * CHUNK_ROWS) as u64;
    assert!(
        tight.stats.peak_buffered_rows() <= tight_bound,
        "peak {} exceeds the tightened window bound {tight_bound}",
        tight.stats.peak_buffered_rows()
    );
}

#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn fast_mode_leaks_no_worker_threads() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let engine = Engine::new(
        db,
        EngineConfig::default()
            .with_bloom_mode(BloomMode::Cbo)
            .with_dop(16)
            .with_determinism(Determinism::Fast),
    );
    let conn = engine.connect();
    #[cfg(target_os = "linux")]
    let before = live_threads();
    // Aggregation, sort, and repartition all take their fast sinks here.
    let out = conn
        .run_sql(&tpch::query_text(18, SF))
        .expect("q18 under fast mode");
    assert_eq!(out.determinism, Determinism::Fast);
    #[cfg(target_os = "linux")]
    {
        // Scoped workers from other tests in this binary may be mid-exit
        // at either sample, so retry; a leaked worker never exits.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let after = live_threads();
            if after <= before {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "fast-mode execution leaked worker threads ({before} before, {after} after)"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }
}
