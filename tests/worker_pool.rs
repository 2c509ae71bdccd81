//! The engine's worker pool, watched from outside the process's threads.
//!
//! An engine at dop 4 starts exactly three helper threads; running all
//! 22 TPC-H queries at dop 4 under every `bloom_mode` never adds another
//! (pipelines, repartitions, build seals and nested-loop joins all fan out
//! on those helpers); dropping the engine and its connections joins them.
//! A direct `execute_plan` caller's private pool is gone when the call
//! returns.
//!
//! One test in a binary of its own: no other test's threads are alive
//! while this one counts.

use bfq::exec::{execute_plan, ExecOptions};
use bfq::prelude::*;
use bfq::tpch;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SF: f64 = 0.005;
const SEED: u64 = 20260731;
const DOP: usize = 4;

#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// Wait (up to 10 s) for the thread count to fall to `want`: a joined
/// thread can linger in the count for a moment after its join returns.
#[cfg(target_os = "linux")]
fn settles_to(want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = live_threads();
        if now <= want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: {now} threads, want at most {want}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(target_os = "linux")]
#[test]
fn one_pool_per_engine_and_no_thread_per_pipeline() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let catalog = Arc::new(db.catalog);
    let config = EngineConfig::default().with_dop(DOP);
    let before = live_threads();

    let engine = Engine::over_catalog(Arc::clone(&catalog), config.clone());
    assert_eq!(
        live_threads(),
        before + DOP - 1,
        "an engine at dop {DOP} starts dop − 1 helpers"
    );

    // A watcher samples the count while every query runs; it is one more
    // thread itself.
    let ceiling = before + DOP - 1 + 1;
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let watcher = {
        let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                peak.fetch_max(live_threads(), Ordering::AcqRel);
                std::thread::sleep(Duration::from_micros(100));
            }
        })
    };
    let mut connections = Vec::new();
    let mut rows = 0;
    for mode in ["none", "post", "cbo"] {
        let mut conn = engine.connect();
        conn.set("bloom_mode", mode).expect("set bloom_mode");
        conn.set("dop", &DOP.to_string()).expect("set dop");
        for q in tpch::supported_queries() {
            let out = conn
                .run_sql(&tpch::query_text(q, SF))
                .unwrap_or_else(|e| panic!("Q{q} under {mode}: {e}"));
            rows += out.chunk.rows();
        }
        // A stream abandoned after its first chunk holds no helper.
        let mut stream = conn
            .execute_stream(&tpch::query_text(3, SF))
            .expect("stream");
        stream.next().expect("a chunk").expect("chunk");
        drop(stream);
        connections.push(conn);
    }
    stop.store(true, Ordering::Release);
    watcher.join().expect("watcher");
    assert!(rows > 0);
    let peak = peak.load(Ordering::Acquire);
    assert!(
        peak <= ceiling,
        "{peak} threads seen while queries ran, more than the engine's {ceiling}"
    );

    drop(connections);
    drop(engine);
    settles_to(before, "dropping the engine and its connections");

    // A direct caller's default options carry a private pool: its helpers
    // start with the first fan-out and are joined before the call returns.
    let planned = Engine::over_catalog(Arc::clone(&catalog), config)
        .connect()
        .plan_sql_only(&tpch::query_text(5, SF))
        .expect("plan");
    settles_to(before, "dropping a second engine");
    let out = execute_plan(&planned.plan, catalog, ExecOptions::with_dop(DOP)).expect("execute");
    assert!(out.chunk.rows() > 0);
    settles_to(before, "a direct execute_plan caller's private pool");
}
