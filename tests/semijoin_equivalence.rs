//! Semijoin programs against the reference interpreter.
//!
//! Three guarantees for the Yannakakis-style semijoin programs the DP can
//! select (`semijoin=auto`, the default):
//!
//! 1. **Programs never change results on TPC-H.** With programs enabled
//!    and disabled, every supported TPC-H query under every `IndexMode` at
//!    dop ∈ {1, 4, 16} returns what the reference interpreter (`bfq-ref`)
//!    returns. Programs are a *physical* rewrite: whichever lane the DP
//!    picks, the answer is the logical plan's.
//! 2. **Programs genuinely reduce work.** On a synthetic 5-way snowflake
//!    engineered so the per-filter selectivity gate (H6) blocks every
//!    per-join Bloom filter while the *product* of the program's reducers
//!    is strong, the DP selects the program, results match the reference
//!    (as `semijoin=off` does), and the probe-pass scan of the fact table
//!    reads strictly fewer rows than the filterless per-join plan.
//! 3. **GYO never accepts cyclic graphs.** Property test: join graphs
//!    containing a chordless cycle of length ≥ 3 on distinct attributes
//!    (plus arbitrary acyclic attachments and arbitrary row counts) are
//!    always rejected by `join_tree`.

mod common;

use std::sync::Arc;

use bfq::plan::PhysicalNode;
use bfq::prelude::*;
use bfq::tpch;
use common::{exact_rows, expected, snowflake, tpch_expected, SNOWFLAKE_SQL};

const SF: f64 = 0.005;
const SEED: u64 = 20260731;

#[test]
fn tpch_matches_the_reference_with_and_without_semijoin_programs() {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let catalog = Arc::new(db.catalog);
    let queries = tpch::supported_queries();
    let want: Vec<_> = queries
        .iter()
        .map(|&q| tpch_expected(&catalog, q, SF))
        .collect();
    for mode in IndexMode::ALL {
        for dop in [1usize, 4, 16] {
            let engine = Engine::over_catalog(
                catalog.clone(),
                EngineConfig::default()
                    .with_bloom_mode(BloomMode::Cbo)
                    .with_dop(dop)
                    .with_index_mode(mode),
            );
            for semijoin in ["auto", "off"] {
                let mut conn = engine.connect();
                conn.set("semijoin", semijoin).expect("set semijoin");
                for (&q, want) in queries.iter().zip(&want) {
                    let context = format!("Q{q} [{mode} dop={dop} semijoin={semijoin}]");
                    let run = conn
                        .run_sql(&tpch::query_text(q, SF))
                        .unwrap_or_else(|e| panic!("{context}: {e}"));
                    if let Some(want) = want {
                        want.assert_matches(&run.chunk, &context);
                    }
                }
            }
        }
    }
}

/// Sum of actual rows produced by scans of `base` anywhere in the plan
/// (probe pass and reducer-pass schedule steps alike).
fn scanned_rows(run: &QueryResult, base: bfq::common::TableId) -> u64 {
    let mut total = 0u64;
    run.optimized.plan.visit(&mut |node| {
        if let PhysicalNode::Scan { base: b, .. } = &node.node {
            if *b == base {
                total += run.exec_stats.actual(node.id).unwrap_or(0);
            }
        }
    });
    total
}

#[test]
fn snowflake_program_reduces_probe_rows_and_matches_off() {
    let catalog = Arc::new(snowflake());
    let fact_id = catalog.meta_by_name("fact").unwrap().id;
    let want = expected(&catalog, SNOWFLAKE_SQL);
    for mode in IndexMode::ALL {
        for dop in [1usize, 4, 16] {
            let engine = Engine::over_catalog(
                catalog.clone(),
                EngineConfig::default()
                    .with_bloom_mode(BloomMode::Cbo)
                    .with_dop(dop)
                    .with_index_mode(mode),
            );
            let conn = engine.connect();
            let context = format!("snowflake [{mode} dop={dop}]");
            let auto = conn.run_sql(SNOWFLAKE_SQL).expect("semijoin=auto");
            assert_eq!(
                auto.optimized.stats.programs, 1,
                "[{mode} dop={dop}] DP must select the semijoin program"
            );
            assert_eq!(
                auto.optimized.stats.program_reducers, 4,
                "[{mode} dop={dop}] one reducer per join-tree edge"
            );

            let mut off_conn = engine.connect();
            off_conn.set("semijoin", "off").unwrap();
            let off = off_conn.run_sql(SNOWFLAKE_SQL).expect("semijoin=off");
            assert_eq!(off.optimized.stats.programs, 0);
            assert_eq!(
                off.optimized.stats.cbo_filters, 0,
                "[{mode} dop={dop}] H6 must gate every per-join filter, \
                 else the snowflake no longer isolates the program's win"
            );

            // Both lanes return the reference's answer (an integer sum:
            // exactly).
            want.assert_matches(&auto.chunk, &format!("{context} semijoin=auto"));
            want.assert_matches(&off.chunk, &format!("{context} semijoin=off"));
            assert_eq!(exact_rows(&auto.chunk), [[Datum::Int(149_340_000)]]);

            // The program's final reducers must strictly reduce the
            // probe-pass fact scan versus the filterless per-join plan.
            let auto_fact = scanned_rows(&auto, fact_id);
            let off_fact = scanned_rows(&off, fact_id);
            assert!(
                auto_fact < off_fact,
                "[{mode} dop={dop}] program scanned {auto_fact} fact rows, \
                 per-join plan {off_fact}: no reduction"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// GYO rejects cyclic join graphs.
// ---------------------------------------------------------------------------

mod gyo {
    use bfq::common::{ColumnId, TableId};
    use bfq::core::join_tree;
    use bfq::plan::block::FIRST_VIRTUAL_TABLE;
    use bfq::plan::{BaseRel, EquiClause, QueryBlock, RelKind, RelSource};
    use proptest::prelude::*;

    /// A block of `n` inner base-table rels joined by the given clauses
    /// (`(left_rel, left_col, right_rel, right_col)`).
    fn block(n: usize, clauses: &[(usize, u32, usize, u32)]) -> QueryBlock {
        let rels = (0..n)
            .map(|i| BaseRel {
                ordinal: i,
                rel_id: TableId(FIRST_VIRTUAL_TABLE + i as u32),
                source: RelSource::Table(TableId(i as u32)),
                alias: format!("t{i}"),
                kind: RelKind::Inner,
                local_preds: vec![],
            })
            .collect();
        let equi_clauses = clauses
            .iter()
            .map(|&(lr, li, rr, ri)| EquiClause {
                left: ColumnId::new(TableId(FIRST_VIRTUAL_TABLE + lr as u32), li),
                right: ColumnId::new(TableId(FIRST_VIRTUAL_TABLE + rr as u32), ri),
                left_rel: lr,
                right_rel: rr,
            })
            .collect();
        QueryBlock {
            rels,
            equi_clauses,
            complex_preds: vec![],
        }
    }

    proptest! {
        /// A chordless cycle of length ≥ 3 on pairwise-distinct attributes
        /// is cyclic no matter how many acyclic ears hang off it and no
        /// matter the row counts biasing ear-removal order.
        #[test]
        fn join_tree_rejects_cyclic_graphs(
            cycle_len in 3usize..=6,
            extras in proptest::collection::vec(any::<usize>(), 0..=3),
            rows in proptest::collection::vec(1.0f64..1e7, 9),
        ) {
            let n = cycle_len + extras.len();
            let mut clauses = Vec::new();
            // The cycle: rel i's col 1 joins rel i+1's col 0. Distinct
            // (rel, col) pairs per edge, so no attribute sharing can
            // dissolve the cycle (unlike the shared-attribute star).
            for i in 0..cycle_len {
                clauses.push((i, 1u32, (i + 1) % cycle_len, 0u32));
            }
            // Acyclic attachments: each extra rel hangs off an earlier rel
            // on a fresh column — valid ears GYO will strip, exposing the
            // irreducible cycle underneath.
            for (j, pick) in extras.iter().enumerate() {
                let leaf = cycle_len + j;
                let parent = pick % leaf;
                clauses.push((parent, 2 + j as u32, leaf, 0u32));
            }
            let b = block(n, &clauses);
            prop_assert!(
                join_tree(&b, &rows[..n]).is_none(),
                "GYO accepted a cyclic join graph ({n} rels)"
            );
        }
    }
}
