//! End-to-end integration: every TPC-H query parses, binds, optimizes under
//! every Bloom mode, executes, and — the critical invariant — **returns
//! identical results in all three modes**. Bloom filters are an optimization,
//! never a semantics change.

use bfq::common::ColumnId;
use bfq::expr::{BinOp, Expr};
use bfq::plan::{PhysicalNode, PhysicalPlan};
use bfq::prelude::*;
use bfq::tpch;
use std::sync::Arc;

mod common;
use common::rows_of as chunk_to_rows;

const SF: f64 = 0.005;
const SEED: u64 = 20260610;

fn session(mode: BloomMode) -> Connection {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    Engine::new(
        db,
        EngineConfig::default().with_bloom_mode(mode).with_dop(3),
    )
    .connect()
}

fn run(conn: &Connection, q: usize) -> QueryResult {
    let sql = tpch::query_text(q, SF);
    conn.run_sql(&sql)
        .unwrap_or_else(|e| panic!("Q{q} failed: {e}"))
}

#[test]
fn all_queries_agree_across_bloom_modes() {
    let none = session(BloomMode::None);
    let post = session(BloomMode::Post);
    let cbo = session(BloomMode::Cbo);
    for q in tpch::supported_queries() {
        let r_none = run(&none, q);
        let r_post = run(&post, q);
        let r_cbo = run(&cbo, q);
        let rows_none = chunk_to_rows(&r_none.chunk);
        let rows_post = chunk_to_rows(&r_post.chunk);
        let rows_cbo = chunk_to_rows(&r_cbo.chunk);
        assert_eq!(
            rows_none,
            rows_post,
            "Q{q}: BF-Post results differ from No-BF\nplan:\n{}",
            r_post.explain()
        );
        assert_eq!(
            rows_none,
            rows_cbo,
            "Q{q}: BF-CBO results differ from No-BF\nplan:\n{}",
            r_cbo.explain()
        );
    }
}

#[test]
fn bloom_modes_actually_place_filters() {
    let cbo = session(BloomMode::Cbo);
    let mut total_filters = 0;
    for q in tpch::TABLE2_QUERIES {
        let sql = tpch::query_text(q, SF);
        let planned = cbo.plan_sql_only(&sql).unwrap();
        total_filters += planned.stats.cbo_filters + planned.stats.post_filters;
    }
    assert!(
        total_filters >= 5,
        "expected several Bloom filters across Table-2 queries, got {total_filters}"
    );
}

/// Whether some conjunct of `pred` equates a column of `outer` with one of
/// `inner` — an equi-join the planner should have hashed.
fn equates_sides(pred: &Expr, outer: &PhysicalPlan, inner: &PhysicalPlan) -> bool {
    pred.clone().split_conjuncts().iter().any(|c| match c {
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => match (&**left, &**right) {
            (Expr::Column(a), Expr::Column(b)) => {
                let on = |p: &PhysicalPlan, c: &ColumnId| p.layout.slot_of(*c).is_some();
                (on(outer, a) && on(inner, b)) || (on(outer, b) && on(inner, a))
            }
            _ => false,
        },
        _ => false,
    })
}

#[test]
fn equi_joins_are_never_nested_loops() {
    for mode in [BloomMode::None, BloomMode::Post, BloomMode::Cbo] {
        let conn = session(mode);
        for q in tpch::supported_queries() {
            let planned = conn.plan_sql_only(&tpch::query_text(q, SF)).unwrap();
            let mut nestloops = 0;
            planned.plan.visit(&mut |node| {
                if let PhysicalNode::NestLoopJoin {
                    outer,
                    inner,
                    predicate,
                    ..
                } = &node.node
                {
                    nestloops += 1;
                    let equi = predicate
                        .as_ref()
                        .is_some_and(|p| equates_sides(p, outer, inner));
                    assert!(!equi, "Q{q} {mode:?}: equi-key nested loop\n{node:?}");
                }
            });
            if q == 20 && mode == BloomMode::Cbo {
                assert_eq!(nestloops, 0, "Q20 under BF-CBO has a nested loop");
            }
        }
    }
}

#[test]
fn q20_filter_pass_fraction_is_predicted_within_2x() {
    // Q20's filter is built from `part`, the inner side of an IN
    // subquery: a dependent relation whose δ must still count its rows.
    // At SF 0.005 `partsupp` is too small to be worth filtering.
    let sf = 0.02;
    let db = tpch::gen::generate(sf, SEED).expect("generate");
    let conn = Engine::new(
        db,
        EngineConfig::default()
            .with_bloom_mode(BloomMode::Cbo)
            .with_dop(3),
    )
    .connect();
    let r = conn.run_sql(&tpch::query_text(20, sf)).expect("Q20");
    let mut checked = 0;
    r.optimized.plan.visit(&mut |node| {
        let PhysicalNode::Scan { blooms, alias, .. } = &node.node else {
            return;
        };
        for apply in blooms {
            let observed = r
                .exec_stats
                .filter_observation(apply.filter.0)
                .and_then(|o| o.pass_rate())
                .unwrap_or_else(|| panic!("{alias}: filter {:?} never probed", apply.filter));
            let ratio = apply.predicted_pass / observed;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{alias}: predicted pass {} vs observed {observed}\n{}",
                apply.predicted_pass,
                r.explain()
            );
            checked += 1;
        }
    });
    assert!(checked > 0, "Q20 under BF-CBO applies no filter");
}

#[test]
fn index_modes_never_change_results() {
    // Data skipping is an optimization, never a semantics change: every
    // supported query returns identical rows with chunk indexes off and
    // fully on.
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let catalog = Arc::new(db.catalog);
    let session_with = |mode: IndexMode| {
        Engine::over_catalog(
            catalog.clone(),
            EngineConfig::default()
                .with_bloom_mode(BloomMode::Cbo)
                .with_dop(3)
                .with_index_mode(mode),
        )
        .connect()
    };
    let off = session_with(IndexMode::Off);
    let zb = session_with(IndexMode::ZoneMapBloom);
    for q in tpch::supported_queries() {
        let r_off = run(&off, q);
        let r_zb = run(&zb, q);
        assert_eq!(
            chunk_to_rows(&r_off.chunk),
            chunk_to_rows(&r_zb.chunk),
            "Q{q}: zonemap+bloom results differ from index off\nplan:\n{}",
            r_zb.explain()
        );
    }
}

#[test]
fn index_modes_never_change_errors() {
    // A mistyped conjunct fails the statement under every index mode, even
    // where a zone map or chunk Bloom proves every chunk empty before the
    // conjunct would run, and over a table with no rows at all.
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let catalog = Arc::new(db.catalog);
    let empty = bfq::storage::Table::new(
        "empty",
        Arc::new(bfq::storage::Schema::new(vec![
            bfq::storage::Field::new("e_key", DataType::Int64),
            bfq::storage::Field::new("e_name", DataType::Utf8),
        ])),
        vec![],
    )
    .unwrap();
    let sessions: Vec<(IndexMode, Connection)> = IndexMode::ALL
        .iter()
        .map(|&mode| {
            let engine = Engine::over_catalog(
                catalog.clone(),
                EngineConfig::default().with_dop(3).with_index_mode(mode),
            );
            engine.register_table(empty.clone(), vec![]).unwrap();
            (mode, engine.connect())
        })
        .collect();
    for sql in [
        "select count(*) from lineitem where l_shipdate < date '1990-01-01' and l_comment < 5",
        "select count(*) from orders where o_orderkey = -5 and o_comment + 1 > 3",
        "select count(*) from orders where o_orderkey = -5 and o_comment < 3",
        "select count(*) from empty where e_name < 5",
    ] {
        let errors: Vec<String> = sessions
            .iter()
            .map(|(mode, conn)| match conn.run_sql(sql) {
                Err(e @ BfqError::Type(_)) => e.to_string(),
                other => panic!("{mode}: `{sql}` gave {:?}", other.map(|r| r.chunk.row(0))),
            })
            .collect();
        assert!(
            errors.iter().all(|e| *e == errors[0]),
            "`{sql}`: errors differ across index modes: {errors:?}"
        );
    }
}

#[test]
fn q6_skips_most_lineitem_chunks() {
    // Q6's one-year l_shipdate window must skip the majority of the
    // date-clustered lineitem chunks via zone maps. Use a scale where
    // lineitem spans plenty of chunks.
    let db = tpch::gen::generate(0.02, SEED).expect("generate");
    let session = Engine::new(
        db,
        EngineConfig::default()
            .with_bloom_mode(BloomMode::Cbo)
            .with_dop(3)
            .with_index_mode(IndexMode::ZoneMapBloom),
    )
    .connect();
    let sql = tpch::query_text(6, 0.02);
    let r = session.run_sql(&sql).expect("Q6");
    let mut prune = None;
    r.optimized.plan.visit(&mut |node| {
        if let bfq::plan::PhysicalNode::Scan { alias, .. } = &node.node {
            if alias == "lineitem" {
                prune = r.exec_stats.prune_of(node.id);
            }
        }
    });
    let p = prune.expect("lineitem scan records prune counters");
    assert!(
        p.chunks >= 10,
        "expected many lineitem chunks, got {}",
        p.chunks
    );
    assert!(
        p.skipped() * 2 > p.chunks,
        "expected >50% of lineitem chunks skipped, got {p:?}"
    );
    assert!(
        p.skipped_zonemap > 0,
        "Q6 pruning should be zone-map driven: {p:?}"
    );
    assert!(
        r.explain().contains("index pruning:"),
        "explain surfaces counters"
    );
}

#[test]
fn q17_q18_lineitem_scans_skip_chunks_through_runtime_filter_keys() {
    // The one TPC-H query family where a runtime filter skips chunks: the
    // build sides of Q17 (one brand and container) and Q18 (orders with a
    // large total quantity) are small enough to ship their exact key
    // hashes, and the lineitem chunks whose Bloom index holds none of them
    // are skipped whole. Seed 42 is the end-to-end benchmark's.
    let db = tpch::gen::generate(0.02, 42).expect("generate");
    let catalog = Arc::new(db.catalog);
    for mode in [BloomMode::Post, BloomMode::Cbo] {
        let session = Engine::over_catalog(
            catalog.clone(),
            EngineConfig::default()
                .with_bloom_mode(mode)
                .with_dop(3)
                .with_index_mode(IndexMode::ZoneMapBloom),
        )
        .connect();
        for q in [17, 18] {
            let r = session.run_sql(&tpch::query_text(q, 0.02)).expect("query");
            let (mut chunks, mut skipped) = (0, 0);
            r.optimized.plan.visit(&mut |node| {
                if let PhysicalNode::Scan { alias, .. } = &node.node {
                    if alias == "lineitem" {
                        let p = r.exec_stats.prune_of(node.id).expect("prune counters");
                        chunks = chunks.max(p.chunks);
                        skipped += p.skipped_rfilter;
                    }
                }
            });
            // The parent measured 15 of 15 chunks (Q17) and 12 of 15 (Q18).
            assert!(
                chunks >= 10 && skipped * 2 > chunks,
                "{mode:?} Q{q}: runtime filter keys skipped {skipped} of {chunks} lineitem chunks"
            );
        }
    }
}

#[test]
fn query_results_have_expected_shapes() {
    let s = session(BloomMode::Cbo);
    // Q1: at most 4 (returnflag, linestatus) groups at tiny SF.
    let r = run(&s, 1);
    assert!(r.chunk.rows() >= 2 && r.chunk.rows() <= 6);
    assert_eq!(r.chunk.width(), 10);
    assert_eq!(r.column_names.len(), 10);
    // Q3: at most 10 rows (LIMIT).
    let r = run(&s, 3);
    assert!(r.chunk.rows() <= 10);
    // Q6: scalar.
    let r = run(&s, 6);
    assert_eq!(r.chunk.rows(), 1);
    // Q19: scalar.
    let r = run(&s, 19);
    assert_eq!(r.chunk.rows(), 1);
}
