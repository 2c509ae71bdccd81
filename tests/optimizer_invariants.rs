//! Property-based invariants of the optimizer and estimator, over randomized
//! synthetic query blocks.

use std::sync::Arc;

use bfq::common::RelSet;
use bfq::core::synth::{chain_block, star_block, ChainSpec, Fixture};
use bfq::core::{optimize_bare_block, BloomMode, OptimizerConfig};
use bfq::cost::BfAssumption;
use bfq::exec::{execute_plan, ExecOptions};
use bfq::plan::LogicalPlan;
use bfq::sql::BoundQuery;
use proptest::prelude::*;

/// How many rows the fixture's join block has, per the reference interpreter.
fn reference_row_count(fx: &Fixture) -> usize {
    let bound = BoundQuery {
        plan: LogicalPlan::Block(fx.block.clone()),
        output_names: vec![],
        param_count: 0,
    };
    bfq_ref::reference_rows(&bound, &fx.bindings, &fx.catalog)
        .expect("reference")
        .len()
}

fn chain_specs(sizes: &[(u32, u8)]) -> Vec<ChainSpec> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, (rows, keep))| {
            let spec = ChainSpec::new(format!("t{i}"), (*rows as usize).max(20));
            if *keep < 100 {
                spec.filtered(*keep as f64 / 100.0)
            } else {
                spec
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever filters a mode places, the plan returns as many rows as the
    /// reference interpreter finds in the join block.
    #[test]
    fn cbo_never_costs_more_and_agrees_with_plain(
        sizes in proptest::collection::vec((500u32..20_000, 2u8..110), 2..4)
    ) {
        let specs = chain_specs(&sizes);
        let run = |mode: BloomMode| {
            let mut fx = chain_block(&specs);
            let mut config = OptimizerConfig::with_mode(mode).dop(2);
            config.bf_min_apply_rows = 50.0;
            let catalog = Arc::new(fx.catalog.clone());
            let planned = optimize_bare_block(&fx.block, &mut fx.bindings, &catalog, &config)
                .expect("optimize");
            let out = execute_plan(&planned.plan, catalog, ExecOptions::with_dop(2))
                .expect("execute");
            out.chunk.rows()
        };
        let want = reference_row_count(&chain_block(&specs));
        prop_assert_eq!(run(BloomMode::None), want, "no-BF differs from the reference");
        prop_assert_eq!(run(BloomMode::Post), want, "BF-Post changed results");
        prop_assert_eq!(run(BloomMode::Cbo), want, "BF-CBO changed results");
    }

    /// The paper's §3.1 inequality: a larger δ can only shrink the effective
    /// build NDV, and hence the Bloom-filtered scan estimate.
    #[test]
    fn effective_ndv_monotone_in_delta(
        r0 in 2_000u32..50_000,
        r1 in 200u32..5_000,
        keep in 2u8..95,
    ) {
        let fx = chain_block(&[
            ChainSpec::new("r0", r0 as usize),
            ChainSpec::new("r1", r1 as usize),
            ChainSpec::new("r2", 200).filtered(keep as f64 / 100.0),
        ]);
        let est = fx.estimator();
        let build_col = fx.col(1, 0);
        let small = est.effective_build_ndv(build_col, RelSet::single(1));
        let big = est.effective_build_ndv(build_col, RelSet::from_iter([1, 2]));
        prop_assert!(big <= small * 1.0001, "δ-superset increased NDV: {big} > {small}");

        let mk = |delta| BfAssumption {
            apply_rel: 0,
            apply_col: fx.col(0, 1),
            build_rel: 1,
            build_col,
            delta,
        };
        let rows_small = est.bf_scan_rows(0, &[mk(RelSet::single(1))]);
        let rows_big = est.bf_scan_rows(0, &[mk(RelSet::from_iter([1, 2]))]);
        prop_assert!(rows_big <= rows_small * 1.0001);
    }

    /// Join cardinality estimates are symmetric in enumeration order and
    /// never below one row.
    #[test]
    fn join_card_sane(
        fact in 1_000u32..20_000,
        d1 in 50u32..2_000,
        d2 in 50u32..2_000,
    ) {
        let fx = star_block(
            ChainSpec::new("f", fact as usize),
            &[ChainSpec::new("d1", d1 as usize), ChainSpec::new("d2", d2 as usize)],
        );
        let est = fx.estimator();
        let full = est.join_card(RelSet::all(3));
        prop_assert!(full >= 1.0);
        // Adding a dimension (FK join) should not inflate cardinality beyond
        // a small estimation tolerance.
        let partial = est.join_card(RelSet::from_iter([0, 1]));
        prop_assert!(full <= partial * 1.5, "full {full} vs partial {partial}");
    }
}

/// Deterministic regression: every BF applied in a winning plan is built by
/// exactly one hash join above it, for a variety of shapes.
#[test]
fn filters_always_pair_up() {
    let shapes: Vec<Vec<ChainSpec>> = vec![
        chain_specs(&[(30_000, 100), (1_000, 20)]),
        chain_specs(&[(50_000, 100), (5_000, 50), (500, 10)]),
        chain_specs(&[(20_000, 80), (2_000, 100), (300, 5), (100, 50)]),
    ];
    for specs in shapes {
        let mut fx = chain_block(&specs);
        let mut config = OptimizerConfig::with_mode(BloomMode::Cbo).dop(3);
        config.bf_min_apply_rows = 50.0;
        let catalog = Arc::new(fx.catalog.clone());
        let planned =
            optimize_bare_block(&fx.block, &mut fx.bindings, &catalog, &config).expect("optimize");
        let (mut applied, mut built) = (Vec::new(), Vec::new());
        planned.plan.visit(&mut |n| match &n.node {
            bfq::plan::PhysicalNode::Scan { blooms, .. } => {
                applied.extend(blooms.iter().map(|b| b.filter))
            }
            bfq::plan::PhysicalNode::HashJoin { builds, .. } => {
                built.extend(builds.iter().map(|b| b.filter))
            }
            _ => {}
        });
        applied.sort();
        built.sort();
        assert_eq!(applied, built, "unpaired filters in {specs:?}");
        // Executing must terminate without filter-wait timeouts.
        let out = execute_plan(&planned.plan, catalog, ExecOptions::with_dop(3)).expect("execute");
        assert_eq!(out.chunk.rows(), reference_row_count(&fx));
    }
}

/// Heuristic 7 keeps plans executable and results identical.
#[test]
fn heuristic7_preserves_results() {
    let specs = chain_specs(&[(40_000, 100), (4_000, 30), (400, 10)]);
    let run = |h7: bool| {
        let mut fx = chain_block(&specs);
        let mut config = OptimizerConfig::with_mode(BloomMode::Cbo).dop(2);
        config.bf_min_apply_rows = 50.0;
        config.h7_enabled = h7;
        config.h7_max_subplans = 1;
        let catalog = Arc::new(fx.catalog.clone());
        let planned =
            optimize_bare_block(&fx.block, &mut fx.bindings, &catalog, &config).expect("optimize");
        execute_plan(&planned.plan, catalog, ExecOptions::with_dop(2))
            .expect("execute")
            .chunk
            .rows()
    };
    let want = reference_row_count(&chain_block(&specs));
    assert_eq!(run(false), want);
    assert_eq!(run(true), want);
}

/// BF-CBO's search stays within a constant factor of the plain DP's: its
/// enlarged plan lists may cost phase 2 at most 1.5× the sub-plans and 2×
/// the (outer, inner) pairs, summed over the 22 TPC-H queries at engine
/// defaults, dop 2.
#[test]
fn bloom_aware_search_stays_within_a_constant_factor_of_the_plain_dp() {
    let db = bfq::tpch::gen::generate(0.005, 20260731).expect("generate");
    let engine = bfq::Engine::new(db, bfq::EngineConfig::default().with_dop(2));
    let search = |mode: &str| {
        let mut conn = engine.connect();
        conn.set("bloom_mode", mode).expect("set bloom_mode");
        let (mut generated, mut pairs) = (0usize, 0usize);
        for q in bfq::tpch::supported_queries() {
            let sql = bfq::tpch::query_text(q, 0.005);
            let stats = conn.plan_sql_only(&sql).expect("plan").stats;
            generated += stats.phase2.generated;
            pairs += stats.phase2.pairs;
        }
        (generated as f64, pairs as f64)
    };
    let (cbo_generated, cbo_pairs) = search("cbo");
    let (none_generated, none_pairs) = search("none");
    assert!(
        cbo_generated <= 1.5 * none_generated,
        "phase-2 sub-plans: cbo {cbo_generated} vs none {none_generated}"
    );
    assert!(
        cbo_pairs <= 2.0 * none_pairs,
        "phase-2 pairs: cbo {cbo_pairs} vs none {none_pairs}"
    );
}
