//! Engine ↔ reference-interpreter equivalence.
//!
//! The paper's load-bearing invariant is that a Bloom filter changes
//! cost, never results. Here every TPC-H query under every `bloom_mode`
//! × dop, and the snowflake fixture with semijoin programs off and on,
//! must return what `bfq-ref` returns: an interpreter of the *logical*
//! plan that shares no code with the executor, the optimizer or the
//! vectorized expression evaluator (rows compare as normalized multisets,
//! and in order wherever ORDER BY pins the order).
//!
//! Where the engine is known to be wrong, the statement is listed in
//! `common::known_divergences` with its diagnosed cause. Such an entry
//! asserts here both that the reference returns the right answer and that
//! the engine *still* diverges, so the fix has to delete the entry: it
//! cannot silently change a result.

mod common;

use std::sync::Arc;

use bfq::catalog::Catalog;
use bfq::prelude::*;
use bfq::tpch;
use common::{expected, known_divergences, Expected, KnownDivergence, SNOWFLAKE_SQL};

const SF: f64 = 0.005;
const SEED: u64 = 20260731;

fn engine(catalog: &Arc<Catalog>, bloom: BloomMode, dop: usize) -> Arc<Engine> {
    Engine::over_catalog(
        catalog.clone(),
        EngineConfig::default().with_bloom_mode(bloom).with_dop(dop),
    )
}

#[test]
fn tpch_matches_the_reference_under_every_bloom_mode_and_dop() {
    let catalog = Arc::new(tpch::gen::generate(SF, SEED).expect("generate").catalog);
    let known = known_divergences(SF);
    let mut cases: Vec<(String, String, Expected, Option<&KnownDivergence>)> = Vec::new();
    for q in tpch::supported_queries() {
        let sql = tpch::query_text(q, SF);
        let pinned = known.iter().find(|k| k.sql == sql);
        cases.push((
            format!("Q{q}"),
            sql.clone(),
            expected(&catalog, &sql),
            pinned,
        ));
    }
    for k in &known {
        if !cases.iter().any(|c| c.1 == k.sql) {
            let want = expected(&catalog, &k.sql);
            cases.push((k.name.to_string(), k.sql.clone(), want, Some(k)));
        }
    }
    for k in &known {
        let (_, _, want, _) = cases.iter().find(|c| c.1 == k.sql).expect("listed above");
        assert!(
            (k.reference_is_right)(want),
            "{}: the reference's own answer looks wrong: {:?}",
            k.name,
            want.rows.first()
        );
    }

    let mut failures = Vec::new();
    for bloom in [BloomMode::None, BloomMode::Post, BloomMode::Cbo] {
        for dop in [1usize, 4] {
            let conn = engine(&catalog, bloom, dop).connect();
            for (name, sql, want, pinned) in &cases {
                let context = format!("{name} [bloom_mode={bloom:?} dop={dop}]");
                let got = conn
                    .run_sql(sql)
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                match (pinned, want.mismatch(&got.chunk)) {
                    (None, None) | (Some(_), Some(_)) => {}
                    (None, Some(diff)) => failures.push(format!("{context}: {diff}")),
                    (Some(k), None) => failures.push(format!(
                        "{context}: the engine now agrees with the reference — the bug ({}) \
                         is fixed; delete this entry from `known_divergences`",
                        k.cause
                    )),
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "engine differs from the reference interpreter:\n{}",
        failures.join("\n")
    );
}

#[test]
fn snowflake_matches_the_reference_with_and_without_semijoin_programs() {
    let catalog = Arc::new(common::snowflake());
    let want = expected(&catalog, SNOWFLAKE_SQL);
    assert_eq!(want.rows, [[Datum::Int(149_340_000)]]);
    for semijoin in ["off", "auto"] {
        for dop in [1usize, 4] {
            let mut conn = engine(&catalog, BloomMode::Cbo, dop).connect();
            conn.set("semijoin", semijoin).expect("set semijoin");
            let got = conn.run_sql(SNOWFLAKE_SQL).expect("run");
            let programs = got.optimized.stats.programs;
            assert_eq!(programs, usize::from(semijoin == "auto"), "lane taken");
            want.assert_matches(
                &got.chunk,
                &format!("snowflake [semijoin={semijoin} dop={dop}]"),
            );
        }
    }
}

/// The comparison itself: what counts as "the same result".
#[test]
fn comparison_policy() {
    use common::{canonical_order, same_row};
    use Datum::{Float, Int, Null};
    // Six significant digits, with no rounding boundary to straddle (Q22's
    // sum of two-decimal balances lands on ….65 at dop 4 and ….6499… at 1).
    assert!(same_row(
        &[Float(35857.649999), Null],
        &[Float(35857.650001), Null]
    ));
    assert!(!same_row(&[Float(35857.6)], &[Float(35857.7)]));
    assert!(!same_row(&[Int(1)], &[Float(1.0)]));
    assert!(!same_row(&[Int(1)], &[Int(1), Int(1)]));
    // Multisets line up by the exact values first, then by the floats.
    let text = |s: &str| Datum::str(s);
    assert_eq!(
        canonical_order(vec![
            vec![Float(1.0), text("b")],
            vec![Float(3.0), text("a")],
            vec![Float(2.0), text("a")],
        ]),
        [
            vec![Float(2.0), text("a")],
            vec![Float(3.0), text("a")],
            vec![Float(1.0), text("b")],
        ]
    );

    // Row order is part of the expectation only where ORDER BY pins it.
    let catalog = Arc::new(tpch::gen::generate(0.001, SEED).expect("generate").catalog);
    let ordered = |sql: &str| expected(&catalog, sql).ordered;
    assert!(ordered(
        "select n_nationkey, n_regionkey from nation order by n_nationkey"
    ));
    assert!(ordered(
        "select n_nationkey from nation order by n_nationkey limit 3"
    ));
    assert!(!ordered(
        "select n_nationkey, n_regionkey from nation order by n_regionkey"
    ));
    assert!(
        !ordered("select n_nationkey from nation order by n_name"),
        "hidden sort column"
    );
    assert!(!ordered("select n_nationkey from nation"), "no ORDER BY");

    // An unordered expectation accepts any permutation; an ordered one does not.
    let conn = engine(&catalog, BloomMode::None, 1).connect();
    let desc = conn
        .run_sql("select n_nationkey from nation order by n_nationkey desc")
        .expect("run");
    assert!(expected(&catalog, "select n_nationkey from nation")
        .mismatch(&desc.chunk)
        .is_none());
    assert!(expected(
        &catalog,
        "select n_nationkey from nation order by n_nationkey"
    )
    .mismatch(&desc.chunk)
    .is_some());
}
