//! The morsel pipeline against its specification.
//!
//! On every TPC-H query, under every `IndexMode`, at dop ∈ {1, 4, 16}:
//!
//! * the result **equals the reference interpreter's** (`bfq-ref`) as a
//!   normalized multiset, and in order where ORDER BY pins the order;
//! * **strict is bit-exact**: two runs at the same (query, data, dop,
//!   index mode) are exactly `Datum`-equal (floats included: every sink
//!   partition consumes morsels in sequence order, so float accumulation
//!   order is fixed), and the streamed chunk sequence concatenates to
//!   exactly the gathered chunk;
//! * **per-node actuals agree**: the root's actual row count is the
//!   reference's row count, per-node actuals are identical with `profile`
//!   on and off, and — under every Bloom mode, without early-exiting
//!   LIMITs — identical across dop;
//! * **a plan keeps its streams**: a dop-1 plan, whose scans are `Single`
//!   and whose joins carry no exchange, gives its dop-1 answer at dop 4.
//!
//! Also verified here: dropping a `ChunkStream` mid-stream leaks no worker
//! threads (the final pipeline runs on the consumer's thread), a timeout
//! or a cancel stops a parallel aggregation without leaking its workers,
//! and scan-heavy queries materialize a bounded reorder window instead of
//! a full-table intermediate (`ExecStats::peak_buffered_rows`).

mod common;

use bfq::exec::{execute_plan, ExecOptions};
use bfq::plan::PhysicalPlan;
use bfq::prelude::*;
use bfq::tpch;
use common::{canonical_order, exact_rows, same_row, tpch_expected};
use std::sync::Arc;

const SF: f64 = 0.005;
const SEED: u64 = 20260731;

/// `(node id, operator, actual rows)` for every node of `plan`.
fn actuals(plan: &Arc<PhysicalPlan>, stats: &bfq::exec::ExecStats) -> Vec<(u32, String, u64)> {
    let mut out = Vec::new();
    plan.visit(&mut |node| {
        out.push((
            node.id,
            node.op_name().to_string(),
            stats.actual(node.id).unwrap_or(0),
        ))
    });
    out
}

#[test]
fn morsel_pipeline_matches_the_reference_and_is_bit_exact() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let catalog = Arc::new(db.catalog);
    let queries = tpch::supported_queries();
    let want: Vec<_> = queries
        .iter()
        .map(|&q| tpch_expected(&catalog, q, SF))
        .collect();
    for mode in IndexMode::ALL {
        for dop in [1usize, 4, 16] {
            let config = EngineConfig::default()
                .with_bloom_mode(BloomMode::Cbo)
                .with_dop(dop)
                .with_index_mode(mode);
            let conn = Engine::over_catalog(catalog.clone(), config.clone()).connect();
            // A second engine (its own plan cache) with profiling off.
            let unprofiled =
                Engine::over_catalog(catalog.clone(), config.with_profile(false)).connect();
            for (&q, want) in queries.iter().zip(&want) {
                let context = format!("Q{q} [{mode} dop={dop}]");
                let sql = tpch::query_text(q, SF);
                let first = conn
                    .run_sql(&sql)
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                let plan = &first.optimized.plan;
                if let Some(want) = want {
                    want.assert_matches(&first.chunk, &context);
                    assert_eq!(
                        first.exec_stats.actual(plan.id),
                        Some(want.rows.len() as u64),
                        "{context}: root actual is not the reference row count"
                    );
                }

                // Bit-exact run to run, profiling on or off.
                let second = unprofiled
                    .run_sql(&sql)
                    .unwrap_or_else(|e| panic!("{context} rerun: {e}"));
                assert_eq!(
                    exact_rows(&first.chunk),
                    exact_rows(&second.chunk),
                    "{context}: two strict runs differ"
                );
                // Per-node actuals do not depend on profiling — except
                // under an early-exiting LIMIT, where how far the scan got
                // before the cancel is a scheduling matter.
                let has_limit = sql.to_ascii_lowercase().contains("limit");
                if !has_limit {
                    assert_eq!(
                        actuals(plan, &first.exec_stats),
                        actuals(&second.optimized.plan, &second.exec_stats),
                        "{context}: per-node actuals differ with profile on vs off"
                    );
                }

                // Streamed morsels concatenate to the identical chunk.
                let stream = conn
                    .execute_stream(&sql)
                    .unwrap_or_else(|e| panic!("{context} stream: {e}"));
                let streamed: Vec<Vec<Datum>> = stream
                    .map(|c| c.unwrap_or_else(|e| panic!("{context} chunk: {e}")))
                    .flat_map(|c| exact_rows(&c))
                    .collect();
                assert_eq!(
                    streamed,
                    exact_rows(&first.chunk),
                    "{context}: stream concat differs from the gathered chunk"
                );
            }
        }
    }
}

#[test]
fn per_node_actuals_do_not_depend_on_dop() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let catalog = Arc::new(db.catalog);
    // Runtime filters included: a join builds one filter over all of its
    // build keys however dop partitions them, so what a filter lets
    // through — false positives too — is the same at every dop.
    for mode in [BloomMode::None, BloomMode::Post, BloomMode::Cbo] {
        let config = EngineConfig::default().with_bloom_mode(mode).with_dop(4);
        let conn = Engine::over_catalog(catalog.clone(), config).connect();
        for q in tpch::supported_queries() {
            let sql = tpch::query_text(q, SF);
            if sql.to_ascii_lowercase().contains("limit") {
                continue;
            }
            // One plan, executed at every dop: the optimizer may pick another
            // plan for another dop, and then there is nothing to line up.
            let plan = conn.plan_sql_only(&sql).expect("plan").plan;
            let run = |dop: usize| {
                let out = execute_plan(&plan, catalog.clone(), ExecOptions::with_dop(dop))
                    .unwrap_or_else(|e| panic!("Q{q} {mode:?} dop={dop}: {e}"));
                (exact_rows(&out.chunk).len(), actuals(&plan, &out.stats))
            };
            let serial = run(1);
            for dop in [4usize, 16] {
                assert_eq!(
                    run(dop),
                    serial,
                    "Q{q} {mode:?}: dop={dop} differs from dop=1"
                );
            }
        }
    }
}

/// A plan runs on the streams its distributions record, whatever dop it
/// is executed at: a dop-1 plan seeds its scans `Single` and carries no
/// exchange, and at dop 4 its joins still see every row on one stream.
#[test]
fn a_dop_1_plan_gives_its_dop_1_answer_at_dop_4() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let catalog = Arc::new(db.catalog);
    for mode in [BloomMode::None, BloomMode::Post, BloomMode::Cbo] {
        let config = EngineConfig::default().with_bloom_mode(mode).with_dop(1);
        let conn = Engine::over_catalog(catalog.clone(), config).connect();
        for q in tpch::supported_queries() {
            let plan = conn
                .plan_sql_only(&tpch::query_text(q, SF))
                .expect("plan")
                .plan;
            let run = |dop: usize| {
                let out = execute_plan(&plan, catalog.clone(), ExecOptions::with_dop(dop))
                    .unwrap_or_else(|e| panic!("Q{q} {mode:?} dop={dop}: {e}"));
                canonical_order(exact_rows(&out.chunk))
            };
            let (serial, parallel) = (run(1), run(4));
            assert_eq!(parallel.len(), serial.len(), "Q{q} {mode:?}: row count");
            for (a, b) in parallel.iter().zip(&serial) {
                assert!(same_row(a, b), "Q{q} {mode:?}: {a:?} vs {b:?}");
            }
        }
    }
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
fn dropping_a_stream_mid_way_leaks_no_worker_threads() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let engine = Engine::new(
        db,
        EngineConfig::default()
            .with_bloom_mode(BloomMode::Cbo)
            .with_dop(4),
    );
    let conn = engine.connect();
    // A join query whose build phase spawns workers at stream creation:
    // they must all be joined before the stream is handed out.
    let sql = "select l_orderkey, l_extendedprice from lineitem, orders \
               where l_orderkey = o_orderkey and o_orderdate < date '1995-06-01'";
    #[cfg(target_os = "linux")]
    let before = live_threads();
    let mut stream = conn.execute_stream(sql).expect("stream");
    let _first = stream.next().expect("at least one chunk").expect("chunk");
    drop(stream);
    #[cfg(target_os = "linux")]
    {
        // Other tests in this binary may have scoped workers alive at
        // either sample, so retry: their threads exit on their own, while
        // a thread leaked by the dropped stream never would.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let after = live_threads();
            if after <= before {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "dropping a part-consumed stream leaked worker threads \
                 ({before} before, {after} after)"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }
    // The engine keeps working after the abandoned stream.
    let out = conn.run_sql("select count(*) from lineitem").expect("ok");
    assert_eq!(out.chunk.rows(), 1);
}

#[test]
fn scan_heavy_queries_no_longer_materialize_the_table() {
    use bfq::exec::REORDER_WINDOW_PER_WORKER;
    use bfq::storage::{Column, Field, Schema, Table};

    // A Q6-style scan → aggregate over a table with many more chunks than
    // the reorder window, so the window bound is observable regardless of
    // worker/sink timing: 64 chunks × 512 rows.
    const CHUNKS: usize = 64;
    const CHUNK_ROWS: usize = 512;
    const DOP: usize = 4;
    let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Float64)]));
    let chunks = (0..CHUNKS)
        .map(|c| {
            let vals: Vec<f64> = (0..CHUNK_ROWS)
                .map(|i| (c * CHUNK_ROWS + i) as f64 * 0.25)
                .collect();
            Chunk::new(vec![Arc::new(Column::Float64(vals, None))]).unwrap()
        })
        .collect();
    let mut cat = bfq::catalog::Catalog::new();
    cat.register(Table::new("wide", schema, chunks).unwrap(), vec![])
        .unwrap();
    let catalog = Arc::new(cat);
    let engine = Engine::over_catalog(
        catalog.clone(),
        EngineConfig::default()
            .with_dop(DOP)
            // Pruning off so the scan really touches every chunk.
            .with_index_mode(IndexMode::Off),
    );
    let conn = engine.connect();
    let sql = "select sum(v) from wide where v >= 0";
    let piped = conn.run_sql(sql).expect("pipeline");
    common::expected(&catalog, sql).assert_matches(&piped.chunk, "sum over wide");
    let options = ExecOptions {
        dop: DOP,
        index_mode: IndexMode::Off,
        ..Default::default()
    };
    let morsel = execute_plan(&piped.optimized.plan, catalog.clone(), options).expect("morsel");
    assert_eq!(exact_rows(&morsel.chunk), exact_rows(&piped.chunk));

    // The pipeline buffers at most the reorder window (plus one morsel per
    // worker in flight) — a hard bound enforced by backpressure, not a
    // timing accident — which is a fraction of the table the scan reads.
    let table_rows = (CHUNKS * CHUNK_ROWS) as u64;
    let morsel_peak = morsel.stats.peak_buffered_rows();
    let window_bound = ((DOP * REORDER_WINDOW_PER_WORKER + DOP + 1) * CHUNK_ROWS) as u64;
    assert!(
        morsel_peak <= window_bound,
        "morsel peak {morsel_peak} exceeds the reorder-window bound {window_bound}"
    );
    assert!(
        window_bound < table_rows,
        "fixture too small to show the bound"
    );

    // The real TPC-H Q6 never holds lineitem either (it has few chunks at
    // test scale, so only the comparison with the table is timing-independent).
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let tpch_catalog = Arc::new(db.catalog);
    let tpch_engine = Engine::over_catalog(
        tpch_catalog.clone(),
        EngineConfig::default()
            .with_bloom_mode(BloomMode::Cbo)
            .with_dop(DOP)
            .with_index_mode(IndexMode::Off),
    );
    let q6_piped = tpch_engine
        .connect()
        .run_sql(&tpch::query_text(6, SF))
        .expect("q6 pipeline");
    let lineitem = tpch_catalog.meta_by_name("lineitem").expect("lineitem").id;
    let lineitem_rows = tpch_catalog.data(lineitem).expect("data").rows() as u64;
    assert!(
        q6_piped.exec_stats.peak_buffered_rows() < lineitem_rows,
        "Q6 buffered the whole of lineitem"
    );
}

#[test]
fn cancelled_stream_dropped_mid_iteration_leaks_nothing_and_engine_survives() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let engine = Engine::new(
        db,
        EngineConfig::default()
            .with_bloom_mode(BloomMode::Cbo)
            .with_dop(4),
    );
    let conn = engine.connect();
    let sql = "select l1.l_orderkey, l1.l_extendedprice from lineitem l1, lineitem l2 \
               where l1.l_orderkey = l2.l_orderkey";
    #[cfg(target_os = "linux")]
    let before = live_threads();

    let mut stream = conn.execute_stream(sql).expect("stream");
    let _first = stream.next().expect("at least one chunk").expect("chunk");
    // Out-of-band cancellation, as a server would deliver it: the hub is
    // armed while the stream is live.
    assert!(conn.cancel_hub().cancel(), "stream should be armed");
    // The very next poll observes the token and fails with `cancelled`.
    let interrupted = stream.next().expect("poll after cancel");
    match interrupted {
        Err(BfqError::Cancelled(msg)) => {
            assert!(msg.contains("cancelled by client"), "message: {msg}")
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // Abandon the stream mid-iteration without draining it.
    drop(stream);

    // Dropping disarmed the hub and recorded why the token fired…
    assert_eq!(
        conn.cancel_hub().last_fired(),
        Some(CancelReason::Cancelled)
    );
    assert_eq!(conn.cancel_hub().last_fired(), None, "reason is taken once");
    // …and a cancel with nothing armed is a no-op.
    assert!(!conn.cancel_hub().cancel());

    #[cfg(target_os = "linux")]
    {
        // No leaked pipeline workers: same retry discipline as
        // `dropping_a_stream_mid_way_leaks_no_worker_threads`.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let after = live_threads();
            if after <= before {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "cancelled stream leaked worker threads ({before} before, {after} after)"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    // The engine is not poisoned: the same connection keeps working, and a
    // fresh run of the same statement completes.
    let recount = conn.run_sql("select count(*) from lineitem").expect("ok");
    assert_eq!(recount.chunk.rows(), 1);
    let full = conn.run_sql(sql).expect("same statement reruns");
    assert!(full.chunk.rows() > 0);
}

#[test]
fn statement_timeout_interrupts_streams_and_reports_timeout() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let engine = Engine::new(db, EngineConfig::default().with_dop(2));
    let mut conn = engine.connect();
    conn.set("statement_timeout", "1").expect("set");
    let sql = "select l1.l_orderkey from lineitem l1, lineitem l2, lineitem l3 \
               where l1.l_orderkey = l2.l_orderkey and l2.l_orderkey = l3.l_orderkey";
    // The deadline is checked lazily at morsel boundaries, so either the
    // gather fails (usual) or an absurdly fast machine finishes first.
    match conn.run_sql(sql) {
        Err(BfqError::Cancelled(msg)) => {
            assert!(msg.contains("timeout"), "message: {msg}");
            assert_eq!(conn.cancel_hub().last_fired(), Some(CancelReason::Timeout));
        }
        Err(other) => panic!("expected Cancelled, got {other}"),
        Ok(_) => {}
    }
    // Turning the timeout off restores normal operation.
    conn.set("statement_timeout", "0").expect("reset");
    let out = conn.run_sql("select count(*) from orders").expect("ok");
    assert_eq!(out.chunk.rows(), 1);
}

/// An interrupted statement's outcome: `Cancelled` naming `reason`, with
/// the hub recording it, or — on a machine that finished first — a result.
fn cancelled_or_done(out: Result<QueryResult>, conn: &Connection, reason: CancelReason) {
    let text = match reason {
        CancelReason::Timeout => "timeout",
        CancelReason::Cancelled => "cancelled by client",
    };
    match out {
        Err(BfqError::Cancelled(msg)) => {
            assert!(msg.contains(text), "message: {msg}");
            assert_eq!(conn.cancel_hub().last_fired(), Some(reason));
        }
        Err(other) => panic!("expected Cancelled, got {other}"),
        Ok(_) => {}
    }
}

#[test]
fn interrupts_stop_a_parallel_grouped_aggregation() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let engine = Engine::new(db, EngineConfig::default().with_dop(4));
    let mut conn = engine.connect();
    // Not streamed: the aggregation's workers drain its hash partitions
    // themselves, so the interrupt has to reach them there.
    let sql = "select l_orderkey, sum(l_quantity) from lineitem group by l_orderkey";
    let want = conn.run_sql(sql).expect("uninterrupted run");
    #[cfg(target_os = "linux")]
    let before = live_threads();

    conn.set("statement_timeout", "1").expect("set");
    cancelled_or_done(conn.run_sql(sql), &conn, CancelReason::Timeout);
    conn.set("statement_timeout", "0").expect("reset");

    // Cancelled from another thread as soon as the statement is armed.
    let done = AtomicBool::new(false);
    let hub = Arc::clone(conn.cancel_hub());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) && !hub.cancel() {
                std::thread::yield_now();
            }
        });
        let out = conn.run_sql(sql);
        done.store(true, Ordering::Release);
        cancelled_or_done(out, &conn, CancelReason::Cancelled);
    });

    #[cfg(target_os = "linux")]
    {
        // Same retry discipline as
        // `dropping_a_stream_mid_way_leaks_no_worker_threads`.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let after = live_threads();
            if after <= before {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "interrupted aggregation leaked worker threads ({before} before, {after} after)"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    // The same connection reruns the statement to the same answer.
    let again = conn.run_sql(sql).expect("same statement reruns");
    assert_eq!(exact_rows(&again.chunk), exact_rows(&want.chunk));
}
