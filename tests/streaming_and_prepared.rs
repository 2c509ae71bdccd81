//! Streaming execution and prepared-statement semantics.
//!
//! * `execute_stream` must yield chunks whose concatenation is exactly
//!   the gathered `QueryResult.chunk` — which in turn is what the
//!   reference interpreter (`bfq-ref`) returns — on every TPC-H query,
//!   under all three `IndexMode`s.
//! * Prepared statements must return exactly the rows the equivalent
//!   literal SQL returns, for every binding, without re-planning.

use bfq::common::date::parse_date;
use bfq::prelude::*;
use bfq::settings::{SettingClass, SETTINGS};
use bfq::tpch;
use std::sync::Arc;

mod common;
use common::{exact_rows, rows_of, tpch_expected};

const SF: f64 = 0.005;
const SEED: u64 = 20260610;

#[test]
fn stream_concat_equals_gathered_on_all_tpch_queries_and_index_modes() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let catalog = Arc::new(db.catalog);
    let queries = tpch::supported_queries();
    let want: Vec<_> = queries
        .iter()
        .map(|&q| tpch_expected(&catalog, q, SF))
        .collect();
    for mode in IndexMode::ALL {
        let engine = Engine::over_catalog(
            catalog.clone(),
            EngineConfig::default()
                .with_bloom_mode(BloomMode::Cbo)
                .with_dop(3)
                .with_index_mode(mode),
        );
        let conn = engine.connect();
        for (&q, want) in queries.iter().zip(&want) {
            let sql = tpch::query_text(q, SF);
            let gathered = conn
                .run_sql(&sql)
                .unwrap_or_else(|e| panic!("Q{q} [{mode}]: {e}"));
            if let Some(want) = want {
                want.assert_matches(&gathered.chunk, &format!("Q{q} [{mode}]"));
            }
            // Streaming, chunk by chunk.
            let stream = conn
                .execute_stream(&sql)
                .unwrap_or_else(|e| panic!("Q{q} [{mode}] stream: {e}"));
            let chunks: Vec<Chunk> = stream
                .map(|c| c.unwrap_or_else(|e| panic!("Q{q} [{mode}] chunk: {e}")))
                .collect();
            let streamed: Vec<Vec<Datum>> = chunks.iter().flat_map(exact_rows).collect();
            assert_eq!(
                streamed,
                exact_rows(&gathered.chunk),
                "Q{q} [{mode}]: stream concat differs from gathered result"
            );
        }
    }
}

#[test]
fn prepared_bindings_match_literal_sql() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let engine = Engine::new(
        db,
        EngineConfig::default()
            .with_bloom_mode(BloomMode::Cbo)
            .with_dop(2),
    );
    let conn = engine.connect();

    // A parameterized Q6 (date window + discount band + quantity cap);
    // every binding must match the literal-SQL answer.
    let stmt = conn
        .prepare(
            "select sum(l_extendedprice * l_discount) as revenue
             from lineitem
             where l_shipdate >= $1 and l_shipdate < $2
               and l_discount between $3 and $4 and l_quantity < $5",
        )
        .expect("prepare q6");
    assert_eq!(stmt.param_count(), 5);
    assert_eq!(stmt.column_names(), ["revenue"]);
    for (year, disc, qty) in [(1994, 0.06, 24i64), (1995, 0.05, 30), (1996, 0.03, 10)] {
        let lo = Datum::Date(parse_date(&format!("{year}-01-01")).unwrap());
        let hi = Datum::Date(parse_date(&format!("{}-01-01", year + 1)).unwrap());
        let bound = stmt
            .bind(&[
                lo,
                hi,
                Datum::Float(disc - 0.01),
                Datum::Float(disc + 0.01),
                Datum::Int(qty),
            ])
            .expect("bind");
        let prepared = bound.execute().expect("execute");
        let literal = conn
            .run_sql(&format!(
                "select sum(l_extendedprice * l_discount) as revenue
                 from lineitem
                 where l_shipdate >= date '{year}-01-01'
                   and l_shipdate < date '{}-01-01'
                   and l_discount between {} and {}
                   and l_quantity < {qty}",
                year + 1,
                disc - 0.01,
                disc + 0.01
            ))
            .expect("literal");
        assert_eq!(
            rows_of(&prepared.chunk),
            rows_of(&literal.chunk),
            "binding (y={year}, d={disc}, q={qty}) differs from literal SQL"
        );
        // Streaming the bound statement agrees with gathering it.
        let streamed: Vec<Chunk> = stmt
            .execute_stream(&[
                Datum::Date(parse_date(&format!("{year}-01-01")).unwrap()),
                Datum::Date(parse_date(&format!("{}-01-01", year + 1)).unwrap()),
                Datum::Float(disc - 0.01),
                Datum::Float(disc + 0.01),
                Datum::Int(qty),
            ])
            .expect("stream")
            .map(|c| c.expect("chunk"))
            .collect();
        assert_eq!(
            rows_of(&Chunk::concat(&streamed).unwrap()),
            rows_of(&prepared.chunk)
        );
    }

    // String parameters through a join: positional `?` style.
    let stmt = conn
        .prepare(
            "select count(*) from orders, customer
             where o_custkey = c_custkey and c_mktsegment = ? and o_orderdate < ?",
        )
        .expect("prepare join");
    assert_eq!(stmt.param_count(), 2);
    for seg in ["BUILDING", "AUTOMOBILE"] {
        let cutoff = Datum::Date(parse_date("1995-03-15").unwrap());
        let prepared = stmt
            .execute(&[Datum::str(seg), cutoff])
            .expect("execute join");
        let literal = conn
            .run_sql(&format!(
                "select count(*) from orders, customer
                 where o_custkey = c_custkey and c_mktsegment = '{seg}'
                   and o_orderdate < date '1995-03-15'"
            ))
            .expect("literal join");
        assert_eq!(rows_of(&prepared.chunk), rows_of(&literal.chunk), "{seg}");
    }

    // Preparing the same text again is a plan-cache hit.
    let again = conn
        .prepare(
            "select count(*) from orders, customer
             where o_custkey = c_custkey and c_mktsegment = ? and o_orderdate < ?",
        )
        .expect("re-prepare");
    assert!(again.from_cache());
    assert!(engine.cache_stats().hits > 0);
}

#[test]
fn parameter_arity_and_adhoc_params_are_rejected() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let conn = Engine::new(db, EngineConfig::default()).connect();
    let stmt = conn
        .prepare("select count(*) from orders where o_orderkey = ?")
        .expect("prepare");
    assert_eq!(stmt.param_count(), 1);
    assert!(stmt.bind(&[]).is_err(), "too few params");
    assert!(
        stmt.bind(&[Datum::Int(1), Datum::Int(2)]).is_err(),
        "too many params"
    );
    // Executing an unbound parameterized statement ad hoc is an error.
    assert!(conn
        .run_sql("select count(*) from orders where o_orderkey = ?")
        .is_err());
}

#[test]
fn unknown_set_option_is_a_typed_error_naming_every_option() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let mut conn = Engine::new(db, EngineConfig::default()).connect();
    let before = format!("{:?}", conn.settings());
    let names: Vec<&str> = SETTINGS.iter().map(|row| row.name).collect();
    // Removed options: one sink set, one Bloom filter layout, one DP lane.
    for (removed, value) in [
        ("determinism", "fast"),
        ("bloom_layout", "blocked"),
        ("semijoin", "off"),
    ] {
        let err = conn
            .set(removed, value)
            .expect_err("a removed option is not settable");
        assert!(matches!(err, BfqError::Invalid(_)), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("unknown option `{removed}`")),
            "{msg}"
        );
        // The message's option list is exactly the settings table, in order.
        let open = msg.find('(').expect("option list");
        let listed: Vec<&str> = msg[open + 1..msg.rfind(')').expect("option list")]
            .split('|')
            .collect();
        assert_eq!(listed, names);
    }
    assert_eq!(names.len(), 6);
    for name in names {
        conn.set(name, "default")
            .unwrap_or_else(|e| panic!("listed option `{name}` is not settable: {e}"));
    }
    // The failed SET changed nothing and the session keeps working.
    assert_eq!(format!("{:?}", conn.settings()), before);
    let out = conn.run_sql("select count(*) from region").expect("query");
    assert_eq!(rows_of(&out.chunk), vec![vec!["5".to_string()]]);
}

#[test]
fn plan_settings_fork_the_plan_cache_and_exec_settings_never_do() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let engine = Engine::new(db, EngineConfig::default());
    let sql = "select count(*) from lineitem, orders where l_orderkey = o_orderkey";
    let plan_text = |r: &QueryResult| r.optimized.plan.explain(&|c| c.to_string());
    let base = engine.connect().run_sql(sql).expect("cold");
    assert!(!base.cache_hit);
    for row in &SETTINGS {
        // Some value other than the default; a new row must name one here.
        let value = match row.name {
            "bloom_mode" => "post",
            "index_mode" => "zonemap",
            "dop" => "3",
            "profile" => "off",
            "statement_timeout" => "60000",
            "memory_budget_rows" => "100000000",
            other => panic!("no non-default value chosen for `{other}`"),
        };
        let mut conn = engine.connect();
        conn.set(row.name, value).expect("set");
        assert_ne!(
            format!("{:?}", conn.settings()),
            format!("{:?}", engine.config().settings),
            "{} = {value} is the default",
            row.name
        );
        let r = conn.run_sql(sql).expect("run");
        match row.class {
            SettingClass::Plan => assert!(
                !r.cache_hit,
                "plan setting {} = {value} reused a plan made without it",
                row.name
            ),
            SettingClass::Exec => {
                assert!(r.cache_hit, "exec setting {} forked the cache", row.name);
                assert_eq!(plan_text(&r), plan_text(&base), "{}", row.name);
            }
        }
        assert_eq!(rows_of(&r.chunk), rows_of(&base.chunk), "{}", row.name);
    }
}

#[test]
fn cache_normalizes_whitespace_and_case() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let engine = Engine::new(db, EngineConfig::default());
    let conn = engine.connect();
    let a = conn
        .run_sql("select count(*) from nation where n_regionkey = 1")
        .unwrap();
    assert!(!a.cache_hit);
    let b = conn
        .run_sql("SELECT COUNT(*)   FROM nation -- comment\n WHERE n_regionkey = 1")
        .unwrap();
    assert!(b.cache_hit, "normalized statements share one plan");
    assert_eq!(rows_of(&a.chunk), rows_of(&b.chunk));
}

#[test]
fn parameters_bind_without_type_context() {
    // Regression: `?` used to fail to bind wherever the binder had no type
    // context. Prepare-time inference now types parameters from their
    // surroundings, with a documented Int64 default for bare positions.
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let engine = Engine::new(db, EngineConfig::default());
    let conn = engine.connect();

    // Bare `select ?`: the documented Int64 default.
    let stmt = conn.prepare("select ?").expect("bare param binds");
    assert_eq!(stmt.param_count(), 1);
    let out = stmt.execute(&[Datum::Int(7)]).expect("execute");
    assert_eq!(rows_of(&out.chunk), vec![vec!["7".to_string()]]);

    // Arithmetic context: `? + 1` types through the other operand.
    let stmt = conn.prepare("select ? + 1").expect("arith param binds");
    let out = stmt.execute(&[Datum::Int(41)]).expect("execute");
    assert_eq!(rows_of(&out.chunk), vec![vec!["42".to_string()]]);

    // Comparison context against a column.
    let stmt = conn
        .prepare("select count(*) from region where r_regionkey = ?")
        .expect("where col = ? binds");
    let hit = stmt.execute(&[Datum::Int(1)]).expect("execute");
    let miss = stmt.execute(&[Datum::Int(999)]).expect("execute");
    assert_eq!(rows_of(&hit.chunk), vec![vec!["1".to_string()]]);
    assert_eq!(rows_of(&miss.chunk), vec![vec!["0".to_string()]]);

    // One parameter used with two irreconcilable types is the clear
    // bind error (not a silent guess).
    let err = conn
        .prepare("select count(*) from region where r_regionkey = $1 and r_name = $1")
        .expect_err("conflicting parameter types must not bind");
    let msg = err.to_string();
    assert!(msg.contains("conflicting types"), "unexpected error: {msg}");
}

#[test]
fn plan_cache_invalidates_on_catalog_mutation() {
    use bfq::storage::{Column, Field, Schema, Table};

    let make_table = |keys: &[i64]| {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let chunk = Chunk::new(vec![Arc::new(Column::Int64(keys.to_vec(), None))]).unwrap();
        Table::new("t", schema, vec![chunk]).unwrap()
    };

    let engine = Engine::over_catalog(
        Arc::new(bfq::catalog::Catalog::new()),
        EngineConfig::default(),
    );
    engine
        .register_table(make_table(&[1, 2, 3]), vec![0])
        .unwrap();
    let conn = engine.connect();

    let first = conn.run_sql("select count(*) from t").unwrap();
    assert!(!first.cache_hit);
    assert_eq!(rows_of(&first.chunk), vec![vec!["3".to_string()]]);
    let again = conn.run_sql("select count(*) from t").unwrap();
    assert!(again.cache_hit, "repeat under unchanged catalog hits");

    // Replacing the table bumps the catalog version and clears the cache:
    // the same SQL re-plans and sees the new data — never a stale plan.
    engine
        .replace_table(make_table(&[10, 20, 30, 40, 50]), vec![0])
        .unwrap();
    let after = conn.run_sql("select count(*) from t").unwrap();
    assert!(!after.cache_hit, "mutation must invalidate the cached plan");
    assert_eq!(rows_of(&after.chunk), vec![vec!["5".to_string()]]);

    // Registering a *new* table invalidates too (its name may shadow
    // nothing, but statistics-driven plans are stale all the same).
    engine
        .register_table(
            {
                let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
                let chunk = Chunk::new(vec![Arc::new(Column::Int64(vec![9], None))]).unwrap();
                Table::new("u", schema, vec![chunk]).unwrap()
            },
            vec![],
        )
        .unwrap();
    let third = conn.run_sql("select count(*) from t").unwrap();
    assert!(!third.cache_hit, "register must invalidate cached plans");
    // And the new table is immediately queryable.
    let u = conn.run_sql("select count(*) from u").unwrap();
    assert_eq!(rows_of(&u.chunk), vec![vec!["1".to_string()]]);
}
