//! Concurrency: one shared `Engine`, many client threads.
//!
//! N threads each open a `Connection` and run a mix of prepared and ad-hoc
//! TPC-H queries. Every thread must see exactly the rows a single-threaded
//! run produces, and re-execution must be served from the shared plan cache
//! (hit counters > 0).

use bfq::prelude::*;
use bfq::tpch;

mod common;
use common::rows_of;

const SF: f64 = 0.005;
const SEED: u64 = 20260731;
const QUERIES: [usize; 5] = [1, 3, 6, 12, 14];

#[test]
fn shared_engine_across_threads_matches_single_threaded_run() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let engine = Engine::new(
        db,
        EngineConfig::default()
            .with_bloom_mode(BloomMode::Cbo)
            .with_dop(2),
    );

    // Single-threaded reference results.
    let reference: Vec<Vec<Vec<String>>> = {
        let conn = engine.connect();
        QUERIES
            .iter()
            .map(|&q| {
                let r = conn
                    .run_sql(&tpch::query_text(q, SF))
                    .unwrap_or_else(|e| panic!("Q{q}: {e}"));
                rows_of(&r.chunk)
            })
            .collect()
    };

    // A prepared statement shared by every thread.
    let shared_stmt = engine
        .connect()
        .prepare("select count(*) from lineitem where l_quantity < $1")
        .expect("prepare shared");
    let expected_counts: Vec<Vec<Vec<String>>> = [10i64, 25, 50]
        .iter()
        .map(|&q| {
            let r = shared_stmt.execute(&[Datum::Int(q)]).expect("bind shared");
            rows_of(&r.chunk)
        })
        .collect();

    const THREADS: usize = 6;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = engine.clone();
            let reference = &reference;
            let shared_stmt = &shared_stmt;
            let expected_counts = &expected_counts;
            scope.spawn(move || {
                let conn = engine.connect();
                // Ad-hoc: every TPC-H query, rotated so threads overlap on
                // different statements at different times.
                for i in 0..QUERIES.len() {
                    let q = QUERIES[(i + t) % QUERIES.len()];
                    let r = conn
                        .run_sql(&tpch::query_text(q, SF))
                        .unwrap_or_else(|e| panic!("thread {t} Q{q}: {e}"));
                    assert_eq!(
                        rows_of(&r.chunk),
                        reference[(i + t) % QUERIES.len()],
                        "thread {t} Q{q}: results differ from single-threaded run"
                    );
                }
                // Prepared: same statement object shared across threads,
                // different bindings.
                for (i, &qty) in [10i64, 25, 50].iter().enumerate() {
                    let r = shared_stmt
                        .execute(&[Datum::Int(qty)])
                        .unwrap_or_else(|e| panic!("thread {t} prepared: {e}"));
                    assert_eq!(rows_of(&r.chunk), expected_counts[i]);
                }
                // And a thread-local prepared statement.
                let local = conn
                    .prepare("select count(*) from orders where o_orderkey = ?")
                    .expect("prepare local");
                let r = local.execute(&[Datum::Int(1)]).expect("bind local");
                assert_eq!(r.chunk.rows(), 1);
            });
        }
    });

    let stats = engine.cache_stats();
    assert!(
        stats.hits > 0,
        "re-executed statements must hit the shared plan cache: {stats:?}"
    );
    // Repeat ad-hoc executions should be cache-dominated; prepared
    // re-executions never even consult the cache (the statement holds its
    // plan), so misses stay bounded by the distinct (sql, config) pairs
    // plus benign planning races.
    assert!(
        stats.hits > stats.misses,
        "repeat executions should be cache-dominated: {stats:?}"
    );
}

#[test]
fn metrics_and_flight_recorder_are_thread_safe_and_bounded() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    const CAPACITY: usize = 8;
    let engine = Engine::new(
        db,
        EngineConfig::default()
            .with_bloom_mode(BloomMode::Cbo)
            .with_dop(2)
            .with_flight_recorder_capacity(CAPACITY),
    );

    const THREADS: usize = 6;
    const ROUNDS: usize = 3;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = engine.clone();
            scope.spawn(move || {
                let conn = engine.connect();
                for i in 0..ROUNDS {
                    let q = QUERIES[(i + t) % QUERIES.len()];
                    conn.run_sql(&tpch::query_text(q, SF))
                        .unwrap_or_else(|e| panic!("thread {t} Q{q}: {e}"));
                    // Reads interleave with concurrent writers: the ring
                    // never exceeds its bound mid-flight either.
                    assert!(engine.recent_queries().len() <= CAPACITY);
                }
            });
        }
    });

    // Every completed query was counted, none double-counted.
    let snap = engine.metrics();
    assert_eq!(
        snap.counter("bfq_queries_total"),
        Some((THREADS * ROUNDS) as u64)
    );
    assert_eq!(
        snap.summary("bfq_query_seconds").unwrap().count,
        (THREADS * ROUNDS) as u64
    );
    // The ring holds exactly its capacity (more queries ran than fit).
    let recent = engine.recent_queries();
    assert_eq!(recent.len(), CAPACITY);
    for p in &recent {
        assert!(p.phases.execute_ns > 0);
        assert!(p.plan_fingerprint != 0);
    }
    // Pass rows can never exceed probe rows, even merged across threads.
    assert!(
        snap.counter("bfq_filter_pass_rows_total").unwrap()
            <= snap.counter("bfq_filter_probe_rows_total").unwrap()
    );
}

#[test]
fn connection_options_isolate_plans_but_not_results() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let engine = Engine::new(db, EngineConfig::default().with_dop(2));

    let mut cbo = engine.connect();
    cbo.set("bloom_mode", "cbo").unwrap();
    let mut none = engine.connect();
    none.set("bloom_mode", "none").unwrap();
    none.set("index_mode", "off").unwrap();

    let sql = tpch::query_text(12, SF);
    let r_cbo = cbo.run_sql(&sql).expect("cbo");
    let r_none = none.run_sql(&sql).expect("none");
    assert_eq!(rows_of(&r_cbo.chunk), rows_of(&r_none.chunk));
    // Different effective configs ⇒ different cache entries, no false hits.
    assert!(!r_cbo.cache_hit && !r_none.cache_hit);
    assert_eq!(engine.cache_stats().insertions, 2);

    // Same connection again: now a hit.
    let again = cbo.run_sql(&sql).expect("cbo again");
    assert!(again.cache_hit);
    assert!(again.explain().contains("plan cache: hit"));

    // Unknown keys and values are rejected.
    assert!(cbo.set("bloom_mode", "sideways").is_err());
    assert!(cbo.set("whatever", "1").is_err());
    assert!(cbo.set("dop", "0").is_err());
    // Reset restores the engine default.
    cbo.set("bloom_mode", "default").unwrap();
    assert_eq!(
        cbo.settings().plan.bloom_mode,
        engine.config().settings.plan.bloom_mode
    );
}
