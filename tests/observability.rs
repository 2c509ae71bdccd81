//! Observability: `EXPLAIN ANALYZE`, phase spans, the engine metrics
//! registry, and the query flight recorder.
//!
//! Verified here:
//! * `EXPLAIN ANALYZE` on every supported TPC-H query annotates each
//!   executed node with actual rows, est-vs-actual q-error and wall time,
//!   and places observed runtime-filter pass rates next to the estimator's
//!   predicted FPR (§3.5) — the planner's est-vs-actual feedback loop.
//!   Hash joins also show their build-side seal time, which only
//!   profiling records.
//! * Phase spans nest: parse + bind + optimize + execute ≤ total, and a
//!   plan-cache hit zeroes the planning spans.
//! * Profiling instrumentation perturbs neither results nor per-node
//!   actual row counts: both are identical with profiling on and off, and
//!   the result is the reference interpreter's.
//! * `Engine::metrics()` renders to Prometheus text and parses back to the
//!   identical snapshot.
//! * The flight recorder ring is bounded and newest-first.

use bfq::prelude::*;
use bfq::tpch;
use std::sync::Arc;

mod common;
use common::rows_of;

const SF: f64 = 0.005;
const SEED: u64 = 20260731;

fn tpch_engine(dop: usize) -> Arc<Engine> {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    Engine::new(
        db,
        EngineConfig::default()
            .with_bloom_mode(BloomMode::Cbo)
            .with_dop(dop),
    )
}

/// Rows of a one-column `plan` result joined back into the rendered text.
fn plan_text(r: &QueryResult) -> String {
    assert_eq!(r.column_names, vec!["plan".to_string()]);
    rows_of(&r.chunk)
        .into_iter()
        .map(|row| row.into_iter().next().unwrap())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn explain_analyze_annotates_every_tpch_query() {
    let engine = tpch_engine(4);
    let conn = engine.connect();
    for q in tpch::supported_queries() {
        let sql = tpch::query_text(q, SF);
        let r = conn
            .run_sql(&format!("explain analyze {sql}"))
            .unwrap_or_else(|e| panic!("Q{q}: {e}"));
        let text = plan_text(&r);
        // Every node the executor touched carries its actual row count and
        // q-error; profiled nodes carry wall time.
        assert!(text.contains("actual_rows="), "Q{q}: no actuals\n{text}");
        assert!(text.contains("q_err="), "Q{q}: no q-error\n{text}");
        assert!(text.contains("time="), "Q{q}: no wall times\n{text}");
        assert!(text.contains("phases: parse"), "Q{q}: no phases\n{text}");
        // The per-node claims are checkable against the stats the run kept.
        r.optimized.plan.visit(&mut |node| {
            if let Some(actual) = r.exec_stats.actual(node.id) {
                assert!(
                    text.contains(&format!("actual_rows={actual}")),
                    "Q{q}: node {} actual {actual} missing\n{text}",
                    node.id
                );
            }
        });
        // Queries whose plans carry Bloom filters must show the predicted
        // pass fraction next to the observed one.
        let mut blooms = 0;
        r.optimized.plan.visit(&mut |node| {
            if let bfq::plan::PhysicalNode::Scan { blooms: b, .. }
            | bfq::plan::PhysicalNode::DerivedScan { blooms: b, .. } = &node.node
            {
                blooms += b.len();
            }
        });
        if blooms > 0 {
            assert!(text.contains("runtime filters:"), "Q{q}:\n{text}");
            assert!(text.contains("predicted pass"), "Q{q}:\n{text}");
            assert!(
                text.contains("observed pass") || text.contains("no rows probed"),
                "Q{q}:\n{text}"
            );
        }
    }
}

#[test]
fn explain_plans_without_executing() {
    let engine = tpch_engine(2);
    let conn = engine.connect();
    let before = engine.metrics().counter("bfq_queries_total").unwrap();
    let r = conn
        .run_sql("EXPLAIN select count(*) from lineitem where l_quantity < 10")
        .expect("explain");
    let text = plan_text(&r);
    assert!(text.contains("Scan lineitem"), "{text}");
    assert!(text.contains("est_rows="), "{text}");
    // Plan-only: nothing executed, nothing counted, no actuals annotated.
    assert!(!text.contains("actual_rows="), "{text}");
    let after = engine.metrics().counter("bfq_queries_total").unwrap();
    assert_eq!(before, after, "EXPLAIN must not count as an executed query");
}

#[test]
fn phase_spans_nest_and_cache_hits_skip_planning() {
    let engine = tpch_engine(2);
    let conn = engine.connect();
    let sql = tpch::query_text(6, SF);
    let cold = conn.run_sql(&sql).expect("cold");
    assert!(!cold.cache_hit);
    let p = cold.phases;
    assert!(p.parse_ns > 0, "parse span missing: {p:?}");
    assert!(p.bind_ns > 0, "bind span missing: {p:?}");
    assert!(p.optimize_ns > 0, "optimize span missing: {p:?}");
    assert!(p.execute_ns > 0, "execute span missing: {p:?}");
    // The four spans nest inside the end-to-end total.
    assert!(
        p.phase_sum_ns() <= p.total_ns,
        "phase sum {} exceeds total {}",
        p.phase_sum_ns(),
        p.total_ns
    );
    // The un-attributed remainder (cache lookup, result assembly) is small
    // relative to the work itself.
    assert!(
        p.total_ns - p.phase_sum_ns() <= p.phase_sum_ns() + 10_000_000,
        "un-attributed overhead dominates: {p:?}"
    );

    let warm = conn.run_sql(&sql).expect("warm");
    assert!(warm.cache_hit);
    assert_eq!(warm.phases.planning_ns(), 0, "cache hit must skip planning");
    assert!(warm.phases.execute_ns > 0);

    // The rendering surfaces all five spans.
    let rendered = warm.explain_analyze();
    for label in ["parse", "bind", "optimize", "execute", "total"] {
        assert!(rendered.contains(label), "missing `{label}`:\n{rendered}");
    }

    // A parameterised prepared execute nests the same way, with parameter
    // binding inside the spans: nothing of the call is outside `total_ns`
    // but the result hand-over.
    let stmt = conn
        .prepare("select count(*) from orders where o_orderkey < ?")
        .expect("prepare");
    let wall = std::time::Instant::now();
    let bound = stmt.execute(&[Datum::Int(1000)]).expect("execute");
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let p = bound.phases;
    assert_eq!(p.planning_ns(), 0, "prepared execute must not plan");
    assert!(p.execute_ns > 0);
    assert!(
        p.phase_sum_ns() <= p.total_ns && p.total_ns <= wall_ns,
        "spans do not nest inside the call: {p:?} vs wall {wall_ns}"
    );
}

#[test]
fn profiling_does_not_perturb_results_or_actuals() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let catalog = Arc::new(db.catalog);
    let queries = [1usize, 3, 6, 12, 14];
    let want: Vec<_> = queries
        .iter()
        .map(|&q| common::tpch_expected(&catalog, q, SF).expect("not a pinned divergence"))
        .collect();
    for mode in IndexMode::ALL {
        for dop in [1usize, 4] {
            let run = |profile: bool, q: usize| {
                let engine = Engine::over_catalog(
                    catalog.clone(),
                    EngineConfig::default()
                        .with_bloom_mode(BloomMode::Cbo)
                        .with_dop(dop)
                        .with_index_mode(mode)
                        .with_profile(profile),
                );
                engine
                    .connect()
                    .run_sql(&tpch::query_text(q, SF))
                    .unwrap_or_else(|e| panic!("Q{q} [{mode} dop={dop} profile={profile}]: {e}"))
            };
            for (&q, want) in queries.iter().zip(&want) {
                let (on, off) = (run(true, q), run(false, q));
                let context = format!("Q{q} [{mode} dop={dop}]");
                want.assert_matches(&on.chunk, &context);
                assert_eq!(
                    common::exact_rows(&on.chunk),
                    common::exact_rows(&off.chunk),
                    "{context}: profiling changed the result"
                );
                // Q3 ends in a LIMIT over a sort, not over a scan: nothing
                // exits early, so every node's actuals are reproducible.
                on.optimized.plan.visit(&mut |node| {
                    assert_eq!(
                        on.exec_stats.actual(node.id),
                        off.exec_stats.actual(node.id),
                        "{context} node {}: actuals differ with profile on vs off",
                        node.id
                    );
                });
                assert_eq!(
                    on.exec_stats.actual(on.optimized.plan.id),
                    Some(want.rows.len() as u64),
                    "{context}: root actual is not the reference row count"
                );
                // The root is always profiled (sealed or chained).
                assert!(
                    on.exec_stats.profile_of(on.optimized.plan.id).is_some(),
                    "{context}: root node unprofiled"
                );
                assert!(
                    off.exec_stats.profiles().is_empty(),
                    "{context}: profiling off but profiles recorded"
                );
            }
        }
    }
}

#[test]
fn hash_joins_show_their_build_time_only_when_profiled() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let catalog = Arc::new(db.catalog);
    for profile in [true, false] {
        let engine = Engine::over_catalog(
            catalog.clone(),
            EngineConfig::default()
                .with_bloom_mode(BloomMode::Cbo)
                .with_dop(2)
                .with_profile(profile),
        );
        let conn = engine.connect();
        let mut joins = 0;
        for q in [3usize, 5, 9, 18, 21] {
            let r = conn
                .run_sql(&tpch::query_text(q, SF))
                .unwrap_or_else(|e| panic!("Q{q}: {e}"));
            let text = r.explain_analyze();
            for line in text
                .lines()
                .filter(|l| l.trim_start().starts_with("HashJoin"))
            {
                joins += 1;
                assert_eq!(
                    line.contains(", build="),
                    profile,
                    "Q{q} profile={profile}: {line}\n{text}"
                );
            }
            // The seal is timed apart from the join's probe time.
            r.optimized.plan.visit(&mut |node| {
                if let bfq::plan::PhysicalNode::HashJoin { .. } = node.node {
                    let build_ns = r.exec_stats.profile_of(node.id).map(|p| p.build_ns);
                    assert_eq!(build_ns.is_some_and(|ns| ns > 0), profile, "Q{q}");
                }
            });
        }
        assert!(joins > 10, "{joins} hash joins");
    }
}

#[test]
fn engine_metrics_prometheus_round_trip() {
    let engine = tpch_engine(2);
    let conn = engine.connect();
    let sql = tpch::query_text(3, SF);
    conn.run_sql(&sql).expect("q3");
    conn.run_sql(&sql).expect("q3 again");
    conn.run_sql(&tpch::query_text(6, SF)).expect("q6");

    let snap = engine.metrics();
    assert_eq!(snap.counter("bfq_queries_total"), Some(3));
    assert_eq!(
        snap.counter("bfq_plan_cache_hits_total"),
        Some(engine.cache_stats().hits)
    );
    // Q3 builds and probes runtime filters at this scale under CBO.
    assert!(snap.counter("bfq_filter_builds_total").unwrap() > 0);
    let probed = snap.counter("bfq_filter_probe_rows_total").unwrap();
    let passed = snap.counter("bfq_filter_pass_rows_total").unwrap();
    assert!(probed > 0, "no probe rows recorded");
    assert!(passed <= probed, "pass rows exceed probe rows");
    let q = snap.summary("bfq_query_seconds").unwrap();
    assert_eq!(q.count, 3);
    assert!(q.q50_ns <= q.q95_ns && q.q95_ns <= q.q99_ns);

    let text = snap.to_prometheus_text();
    let parsed = MetricsSnapshot::parse_prometheus_text(&text).expect("parse");
    assert_eq!(parsed, snap, "Prometheus text must round-trip exactly");
}

#[test]
fn flight_recorder_ring_is_bounded_newest_first() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let engine = Engine::new(
        db,
        EngineConfig::default()
            .with_dop(2)
            .with_flight_recorder_capacity(3),
    );
    let conn = engine.connect();
    for limit in 1..=5usize {
        conn.run_sql(&format!("select l_orderkey from lineitem limit {limit}"))
            .expect("query");
    }
    let recent = engine.recent_queries();
    assert_eq!(recent.len(), 3, "ring must hold exactly its capacity");
    assert!(recent[0].sql.ends_with("limit 5"), "{:?}", recent[0].sql);
    assert!(recent[2].sql.ends_with("limit 3"), "{:?}", recent[2].sql);
    for p in &recent {
        assert!(p.plan_fingerprint != 0);
        assert!(p.phases.execute_ns > 0);
        assert_eq!(p.rows_out as usize, {
            let l: usize = p.sql.rsplit(' ').next().unwrap().parse().unwrap();
            l
        });
    }
    // Prepared executions are recorded too, flagged as cache hits.
    let stmt = conn
        .prepare("select count(*) from orders where o_orderkey = ?")
        .expect("prepare");
    stmt.execute(&[Datum::Int(1)]).expect("execute");
    let recent = engine.recent_queries();
    assert!(recent[0].cache_hit);
    assert!(recent[0].sql.contains("o_orderkey"));
}

#[test]
fn explain_surfaces_stall_and_scratch_counters() {
    let engine = tpch_engine(4);
    let conn = engine.connect();
    let r = conn.run_sql(&tpch::query_text(12, SF)).expect("q12");
    let text = r.explain();
    assert!(text.contains("window stalls: "), "{text}");
    assert!(text.contains("filter scratch allocs: "), "{text}");
    // And the analyzed rendering keeps the same footer.
    let analyzed = r.explain_analyze();
    assert!(analyzed.contains("window stalls: "), "{analyzed}");
    assert!(analyzed.contains("filter scratch allocs: "), "{analyzed}");
}

#[test]
fn streams_record_on_gather() {
    let engine = tpch_engine(2);
    let conn = engine.connect();
    let r = conn
        .execute_stream(&tpch::query_text(6, SF))
        .expect("stream")
        .gather()
        .expect("gather");
    assert!(r.phases.execute_ns > 0);
    assert_eq!(engine.metrics().counter("bfq_queries_total"), Some(1));
    assert_eq!(engine.recent_queries().len(), 1);
}

#[test]
fn timeout_and_budget_knobs_show_in_the_explain_footer() {
    let engine = tpch_engine(2);
    let mut conn = engine.connect();
    // Off by default: the footer stays silent about them.
    let plain = conn.run_sql("select count(*) from nation").expect("run");
    let footer = plain.explain();
    assert!(!footer.contains("statement timeout"), "footer: {footer}");
    assert!(!footer.contains("memory budget"), "footer: {footer}");

    conn.set("statement_timeout", "30000").expect("set timeout");
    conn.set("memory_budget_rows", "5000000")
        .expect("set budget");
    let tuned = conn.run_sql("select count(*) from nation").expect("run");
    let footer = tuned.explain_analyze();
    assert!(
        footer.contains("statement timeout: 30000ms"),
        "footer: {footer}"
    );
    assert!(
        footer.contains("memory budget: 5000000 rows"),
        "footer: {footer}"
    );

    // Execution-only knobs: both runs hit the same cached plan.
    assert!(
        tuned.cache_hit,
        "timeout/budget must not fork the plan cache"
    );

    // A budget that cannot hold the hash-join build fails cleanly.
    conn.set("memory_budget_rows", "10")
        .expect("set tiny budget");
    let outcome =
        conn.run_sql("select count(*) from lineitem, orders where l_orderkey = o_orderkey");
    match outcome {
        Err(err) => assert!(
            err.to_string().contains("memory budget exceeded"),
            "error: {err}"
        ),
        Ok(_) => panic!("budget of 10 rows should have tripped"),
    }
}
