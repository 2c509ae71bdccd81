//! Property-based invariants of the optimizer and estimator, over randomized
//! synthetic query blocks.

use std::sync::Arc;

use bfq::catalog::Catalog;
use bfq::common::RelSet;
use bfq::core::synth::{chain_block, star_block, ChainSpec, Fixture};
use bfq::core::{optimize, optimize_bare_block, BloomMode, OptimizedQuery, OptimizerConfig};
use bfq::cost::BfAssumption;
use bfq::exec::{execute_plan, ExecOptions};
use bfq::plan::{Bindings, LogicalPlan, PhysicalNode, PhysicalPlan};
use bfq::sql::{plan_sql, BoundQuery};
use bfq::Settings;
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
/// enlarged plan lists may cost phase 2 at most 1.15× the sub-plans and
/// 1.25× the (outer, inner) pairs, summed over the 22 TPC-H queries at
/// engine defaults (Heuristic 7 on), dop 2.
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
        cbo_generated <= 1.15 * none_generated,
        "phase-2 sub-plans: cbo {cbo_generated} vs none {none_generated}"
    );
    assert!(
        cbo_pairs <= 1.25 * none_pairs,
        "phase-2 pairs: cbo {cbo_pairs} vs none {none_pairs}"
    );
}

/// Plan `sql` over `catalog` under `config`, as a connection plans an
/// ad-hoc statement.
fn plan_with(catalog: &Catalog, sql: &str, config: &OptimizerConfig) -> OptimizedQuery {
    let mut bindings = Bindings::new();
    let bound = plan_sql(sql, catalog, &mut bindings).expect("bind");
    optimize(&bound.plan, &mut bindings, catalog, config).expect("optimize")
}

/// The engine's optimizer configuration at `dop`, with Heuristic 7 on (the
/// default) and off.
fn h7_on_and_off(dop: usize) -> (OptimizerConfig, OptimizerConfig) {
    let on = Settings::default().plan.dop(dop);
    assert!(on.h7_enabled, "Heuristic 7 is on by default");
    let off = OptimizerConfig {
        h7_enabled: false,
        ..on.clone()
    };
    (on, off)
}

/// Heuristic 7 is on by default because it changes no TPC-H plan: all 22
/// queries EXPLAIN byte-identically with it on and off at engine defaults.
#[test]
fn heuristic7_leaves_every_tpch_plan_unchanged() {
    let sf = 0.01;
    let catalog = bfq::tpch::gen::generate(sf, 20260731)
        .expect("generate")
        .catalog;
    for dop in [1, 2, 4] {
        let (on, off) = h7_on_and_off(dop);
        for q in bfq::tpch::supported_queries() {
            let sql = bfq::tpch::query_text(q, sf);
            let explain = |config| {
                plan_with(&catalog, &sql, config)
                    .plan
                    .explain(&|c| c.to_string())
            };
            let (capped, uncapped) = (explain(&on), explain(&off));
            assert_eq!(capped, uncapped, "Q{q} at dop {dop}");
        }
    }
}

/// The prepared 4-way join of `bench/e2e`'s `serve_mix`, which runs every
/// session at dop 1.
const SERVE_JOIN_SQL: &str = "select count(*) \
     from orders, customer, nation, region \
     where o_custkey = c_custkey and c_nationkey = n_nationkey \
       and n_regionkey = r_regionkey and o_orderkey = ?";

fn exchanges(plan: &Arc<PhysicalPlan>) -> usize {
    let mut n = 0;
    plan.visit(&mut |p| {
        if matches!(p.node, PhysicalNode::Exchange { .. }) {
            n += 1;
        }
    });
    n
}

/// At dop 1 there is one stream, so an exchange moves nothing: no plan of
/// the 22 TPC-H queries under any Bloom mode carries one, nor does
/// `serve_mix`'s prepared join, and phase 2, which enumerates no
/// distribution alternative there, generates at most a tenth of the
/// sub-plans it does at dop 2.
#[test]
fn dop_1_plans_have_no_exchange_and_search_a_tenth_of_dop_2() {
    let sf = 0.01;
    let db = bfq::tpch::gen::generate(sf, 20260731).expect("generate");
    for mode in [BloomMode::None, BloomMode::Post, BloomMode::Cbo] {
        let generated = |dop| {
            let config = OptimizerConfig {
                bloom_mode: mode,
                ..Settings::default().plan.dop(dop)
            };
            let mut sum = 0;
            for q in bfq::tpch::supported_queries() {
                let planned = plan_with(&db.catalog, &bfq::tpch::query_text(q, sf), &config);
                if dop == 1 {
                    let shown = planned.plan.explain(&|c| c.to_string());
                    assert_eq!(exchanges(&planned.plan), 0, "Q{q} {mode:?}:\n{shown}");
                }
                sum += planned.stats.phase2.generated;
            }
            sum
        };
        let (one, two) = (generated(1), generated(2));
        assert!(
            10 * one <= two,
            "{mode:?}: phase 2 generated {one} sub-plans at dop 1 against {two} at dop 2"
        );
    }
    let engine = bfq::Engine::new(db, bfq::EngineConfig::default().with_dop(1));
    for mode in ["none", "post", "cbo"] {
        let mut conn = engine.connect();
        conn.set("bloom_mode", mode).expect("set bloom_mode");
        let stmt = conn.prepare(SERVE_JOIN_SQL).expect("prepare");
        let shown = stmt.plan().explain(&|c| c.to_string());
        assert_eq!(exchanges(stmt.plan()), 0, "{mode}:\n{shown}");
    }
}

/// One relation of a wide join: its table, alias and local predicate's
/// column and comparison; the literal comes from a [`LITERALS`] row.
struct WideRel {
    table: &'static str,
    alias: &'static str,
    pred: &'static str,
}

const fn rel(table: &'static str, alias: &'static str, pred: &'static str) -> WideRel {
    WideRel { table, alias, pred }
}

/// The three 8-relation shapes `ablation_heuristics` plans (a chain, a star
/// around lineitem, a widened Q5 cycle), each as its relations in join
/// order and its join clauses with the aliases they connect. Every prefix
/// of 6 or more relations is connected.
#[allow(clippy::type_complexity)]
const WIDE_SHAPES: [(&str, [WideRel; 8], &[(&str, &str, &str)]); 3] = [
    (
        "chain",
        [
            rel("region", "r1", "r1.r_name ="),
            rel("nation", "n1", "n1.n_name ="),
            rel("customer", "c", "c.c_acctbal >"),
            rel("orders", "o", "o.o_orderdate <"),
            rel("lineitem", "l", "l.l_extendedprice <"),
            rel("supplier", "s", "s.s_acctbal >"),
            rel("nation", "n2", "n2.n_name ="),
            rel("region", "r2", "r2.r_name ="),
        ],
        &[
            ("r1", "n1", "r1.r_regionkey = n1.n_regionkey"),
            ("n1", "c", "n1.n_nationkey = c.c_nationkey"),
            ("c", "o", "c.c_custkey = o.o_custkey"),
            ("o", "l", "o.o_orderkey = l.l_orderkey"),
            ("l", "s", "l.l_suppkey = s.s_suppkey"),
            ("s", "n2", "s.s_nationkey = n2.n_nationkey"),
            ("n2", "r2", "n2.n_regionkey = r2.r_regionkey"),
        ],
    ),
    (
        "star",
        [
            rel("lineitem", "l", "l.l_extendedprice <"),
            rel("orders", "o", "o.o_orderdate <"),
            rel("part", "p", "p.p_retailprice <"),
            rel("supplier", "s", "s.s_acctbal >"),
            rel("partsupp", "ps", "ps.ps_availqty >"),
            rel("customer", "c", "c.c_acctbal >"),
            rel("nation", "n2", "n2.n_name ="),
            rel("nation", "n1", "n1.n_name ="),
        ],
        &[
            ("l", "o", "l.l_orderkey = o.o_orderkey"),
            ("l", "p", "l.l_partkey = p.p_partkey"),
            ("l", "s", "l.l_suppkey = s.s_suppkey"),
            (
                "l",
                "ps",
                "l.l_partkey = ps.ps_partkey and l.l_suppkey = ps.ps_suppkey",
            ),
            ("o", "c", "o.o_custkey = c.c_custkey"),
            ("s", "n2", "s.s_nationkey = n2.n_nationkey"),
            ("c", "n1", "c.c_nationkey = n1.n_nationkey"),
        ],
    ),
    (
        "cycle",
        [
            rel("customer", "c", "c.c_acctbal >"),
            rel("orders", "o", "o.o_orderdate <"),
            rel("lineitem", "l", "l.l_extendedprice <"),
            rel("supplier", "s", "s.s_acctbal >"),
            rel("nation", "n1", "n1.n_name ="),
            rel("region", "r1", "r1.r_name ="),
            rel("part", "p", "p.p_retailprice <"),
            rel("partsupp", "ps", "ps.ps_availqty >"),
        ],
        &[
            ("c", "o", "c.c_custkey = o.o_custkey"),
            ("o", "l", "o.o_orderkey = l.l_orderkey"),
            ("l", "s", "l.l_suppkey = s.s_suppkey"),
            ("c", "s", "c.c_nationkey = s.s_nationkey"),
            ("s", "n1", "s.s_nationkey = n1.n_nationkey"),
            ("n1", "r1", "n1.n_regionkey = r1.r_regionkey"),
            ("l", "p", "l.l_partkey = p.p_partkey"),
            (
                "ps",
                "p",
                "ps.ps_partkey = p.p_partkey and ps.ps_suppkey = s.s_suppkey",
            ),
        ],
    ),
];

/// Literal sets for the wide joins' local predicates, by alias: the first
/// is `ablation_heuristics`' own.
const LITERALS: [&[(&str, &str)]; 3] = [
    &[
        ("r1", "'ASIA'"),
        ("n1", "'JAPAN'"),
        ("c", "4500"),
        ("o", "date '1995-06-15'"),
        ("l", "40000"),
        ("s", "4500"),
        ("n2", "'GERMANY'"),
        ("r2", "'EUROPE'"),
        ("p", "1500"),
        ("ps", "4500"),
    ],
    &[
        ("r1", "'EUROPE'"),
        ("n1", "'FRANCE'"),
        ("c", "4400"),
        ("o", "date '1995-06-01'"),
        ("l", "39000"),
        ("s", "4600"),
        ("n2", "'CHINA'"),
        ("r2", "'ASIA'"),
        ("p", "1480"),
        ("ps", "4600"),
    ],
    &[
        ("r1", "'AMERICA'"),
        ("n1", "'BRAZIL'"),
        ("c", "4600"),
        ("o", "date '1995-06-28'"),
        ("l", "41000"),
        ("s", "4400"),
        ("n2", "'INDIA'"),
        ("r2", "'AFRICA'"),
        ("p", "1520"),
        ("ps", "4400"),
    ],
];

/// The `select count(*)` over the first `n` relations of `rels`, with the
/// clauses among them and each relation's predicate under `literals`.
fn wide_join(
    rels: &[WideRel],
    clauses: &[(&str, &str, &str)],
    n: usize,
    literals: &[(&str, &str)],
) -> String {
    let rels = &rels[..n];
    let has = |alias: &str| rels.iter().any(|r| r.alias == alias);
    let from: Vec<String> = rels
        .iter()
        .map(|r| format!("{} {}", r.table, r.alias))
        .collect();
    let mut conditions: Vec<String> = clauses
        .iter()
        .filter(|(a, b, _)| has(a) && has(b))
        .map(|(_, _, clause)| clause.to_string())
        .collect();
    for r in rels {
        let (_, literal) = literals
            .iter()
            .find(|(alias, _)| *alias == r.alias)
            .expect("a literal per alias");
        conditions.push(format!("{} {literal}", r.pred));
    }
    format!(
        "select count(*) from {} where {}",
        from.join(", "),
        conditions.join(" and ")
    )
}

/// Heuristic 7 may give up plan quality only within a stated margin: on
/// the chain, star and cycle joins of 6 to 8 relations, under three literal
/// sets, the plan it picks is estimated at most 5% above the uncapped
/// search's, per statement.
#[test]
fn heuristic7_costs_wide_joins_at_most_five_percent_more() {
    let sf = 0.05;
    let catalog = bfq::tpch::gen::generate(sf, 20260731)
        .expect("generate")
        .catalog;
    let mut worst = (1.0f64, String::new());
    for dop in [1, 4] {
        let (on, off) = h7_on_and_off(dop);
        for (shape, rels, clauses) in &WIDE_SHAPES {
            for n in 6..=8 {
                for (set, literals) in LITERALS.iter().enumerate() {
                    let sql = wide_join(rels, clauses, n, literals);
                    let capped = plan_with(&catalog, &sql, &on).stats.est_cost;
                    let uncapped = plan_with(&catalog, &sql, &off).stats.est_cost;
                    assert!(uncapped > 0.0, "{shape}{n}: {sql}");
                    let ratio = capped / uncapped;
                    if ratio > worst.0 {
                        worst = (ratio, format!("{shape}{n}, literal set {set}, dop {dop}"));
                    }
                }
            }
        }
    }
    assert!(
        worst.0 <= 1.05,
        "H7 plan cost {:.4}x the uncapped search's: {}",
        worst.0,
        worst.1
    );
}

/// `h7_pruned` counts the Bloom sub-plans Heuristic 7 drops: some on the
/// 8-relation star join with it on, none with it off.
#[test]
fn h7_pruned_counts_what_heuristic7_drops() {
    let sf = 0.01;
    let catalog = bfq::tpch::gen::generate(sf, 20260731)
        .expect("generate")
        .catalog;
    let (_, rels, clauses) = &WIDE_SHAPES[1];
    let sql = wide_join(rels, clauses, 8, LITERALS[0]);
    let (on, off) = h7_on_and_off(2);
    let capped = plan_with(&catalog, &sql, &on).stats.phase2;
    let uncapped = plan_with(&catalog, &sql, &off).stats.phase2;
    assert!(capped.h7_pruned > 0, "{capped:?}");
    assert_eq!(uncapped.h7_pruned, 0, "{uncapped:?}");
    assert!(capped.generated < uncapped.generated);
}
