//! **Ablation** — how each search-space heuristic affects planner effort and
//! plan quality on the Table-2 TPC-H queries.
//!
//! The paper motivates Heuristics 1–9 qualitatively (§3.10) and measures
//! only H7 (Table 3). This ablation fills in the rest: each row disables or
//! re-tunes one knob relative to the default BF-CBO configuration (H7 on,
//! so the `h7_off` row is the uncapped search) and
//! reports total planning time, DP pairs examined, sub-plans generated and
//! built (admitted to a plan list, the only ones materialized as plan
//! nodes), and the number of Bloom filters in the winning plans.
//!
//! It is also the optimizer's exact plan gate. Each configuration reports
//! the sub-plans its plan lists kept and a checksum of its winning plans'
//! `explain()` text, and three 8-relation joins (a chain, a star and a
//! cycle over the TPC-H schema) are planned under the default
//! configuration with their own search counts and checksums. With
//! `--json`, the `*_plan_checksum` keys gate exactly, so a change that
//! alters any plan has to say so, and `bf_cbo_{generated,pairs}_ratio`
//! hold BF-CBO's search size over the plain DP's as counts.

use std::sync::Arc;

use bfq_bench::harness::{BenchEnv, JsonReport};
use bfq_catalog::Catalog;
use bfq_core::{optimize, BloomMode, OptimizedQuery, OptimizerConfig};
use bfq_obs::fingerprint;
use bfq_plan::Bindings;
use bfq_sql::plan_sql;
use bfq_tpch::{query_text, TABLE2_QUERIES};

/// Three 8-relation joins over the TPC-H schema with fixed literals: the
/// longest key path, a star around lineitem, and the Q5 customer-orders-
/// lineitem-supplier cycle widened by the part/partsupp cycle.
const WIDE_JOINS: [(&str, &str); 3] = [
    (
        "chain",
        "select count(*) from region r1, nation n1, customer c, orders o, lineitem l, \
         supplier s, nation n2, region r2 \
         where r1.r_regionkey = n1.n_regionkey and n1.n_nationkey = c.c_nationkey \
         and c.c_custkey = o.o_custkey and o.o_orderkey = l.l_orderkey \
         and l.l_suppkey = s.s_suppkey and s.s_nationkey = n2.n_nationkey \
         and n2.n_regionkey = r2.r_regionkey \
         and r1.r_name = 'ASIA' and n1.n_name = 'JAPAN' and c.c_acctbal > 4500 \
         and o.o_orderdate < date '1995-06-15' and l.l_extendedprice < 40000 \
         and s.s_acctbal > 4500 and n2.n_name = 'GERMANY' and r2.r_name = 'EUROPE'",
    ),
    (
        "star",
        "select count(*) from lineitem l, orders o, part p, supplier s, partsupp ps, \
         customer c, nation n2, nation n1 \
         where l.l_orderkey = o.o_orderkey and l.l_partkey = p.p_partkey \
         and l.l_suppkey = s.s_suppkey \
         and l.l_partkey = ps.ps_partkey and l.l_suppkey = ps.ps_suppkey \
         and o.o_custkey = c.c_custkey and s.s_nationkey = n2.n_nationkey \
         and c.c_nationkey = n1.n_nationkey \
         and l.l_extendedprice < 40000 and o.o_orderdate < date '1995-06-15' \
         and p.p_retailprice < 1500 and s.s_acctbal > 4500 and ps.ps_availqty > 4500 \
         and c.c_acctbal > 4500 and n2.n_name = 'GERMANY' and n1.n_name = 'JAPAN'",
    ),
    (
        "cycle",
        "select count(*) from customer c, orders o, lineitem l, supplier s, nation n1, \
         region r1, part p, partsupp ps \
         where c.c_custkey = o.o_custkey and o.o_orderkey = l.l_orderkey \
         and l.l_suppkey = s.s_suppkey and c.c_nationkey = s.s_nationkey \
         and s.s_nationkey = n1.n_nationkey and n1.n_regionkey = r1.r_regionkey \
         and l.l_partkey = p.p_partkey \
         and ps.ps_partkey = p.p_partkey and ps.ps_suppkey = s.s_suppkey \
         and c.c_acctbal > 4500 and o.o_orderdate < date '1995-06-15' \
         and l.l_extendedprice < 40000 and s.s_acctbal > 4500 and n1.n_name = 'JAPAN' \
         and r1.r_name = 'ASIA' and p.p_retailprice < 1500 and ps.ps_availqty > 4500",
    ),
];

#[derive(Default)]
struct Row {
    plan_ms: f64,
    pairs: usize,
    generated: usize,
    built: usize,
    kept: usize,
    filters: usize,
    candidates: usize,
    /// The winning plans' `explain()` fingerprints, folded in order.
    plan_checksum: u64,
}

impl Row {
    fn add(&mut self, planned: &OptimizedQuery) {
        let stats = &planned.stats;
        self.plan_ms += stats.planning_ms;
        self.pairs += stats.phase2.pairs;
        self.generated += stats.phase2.generated;
        self.built += stats.phase2.built;
        self.kept += stats.phase2.kept;
        self.filters += stats.cbo_filters + stats.post_filters;
        self.candidates += stats.candidates;
        let text = planned.plan.explain(&|c| c.to_string());
        self.plan_checksum = self
            .plan_checksum
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(fingerprint(&text));
    }

    /// The checksum as a JSON number holds it exactly: 32 bits.
    fn checksum(&self) -> f64 {
        ((self.plan_checksum >> 32) ^ (self.plan_checksum & 0xffff_ffff)) as f64
    }

    fn print(&self, label: &str) {
        println!(
            "  {:<24} {:>9.1} {:>10} {:>11} {:>9} {:>7} {:>8} {:>6} {:>10}",
            label,
            self.plan_ms,
            self.pairs,
            self.generated,
            self.built,
            self.kept,
            self.filters,
            self.candidates,
            self.checksum()
        );
    }
}

fn plan(catalog: &Arc<Catalog>, sql: &str, cfg: &OptimizerConfig) -> OptimizedQuery {
    let mut bindings = Bindings::new();
    let bound = plan_sql(sql, catalog, &mut bindings).expect("bind");
    optimize(&bound.plan, &mut bindings, catalog, cfg).expect("optimize")
}

fn sweep(catalog: &Arc<Catalog>, env: &BenchEnv, cfg: &OptimizerConfig) -> Row {
    let mut row = Row::default();
    for q in TABLE2_QUERIES {
        row.add(&plan(catalog, &query_text(q, env.sf), cfg));
    }
    row
}

fn main() {
    let env = BenchEnv::load();
    let catalog = env.load_db();
    let base = env.config(BloomMode::Cbo);

    let mut variants: Vec<(&'static str, OptimizerConfig)> = Vec::new();
    variants.push(("bf-cbo default", base.clone()));
    variants.push(("no-bf baseline", env.config(BloomMode::None)));
    variants.push(("bf-post baseline", env.config(BloomMode::Post)));
    {
        // H2 off: mark candidates on arbitrarily small relations.
        let mut c = base.clone();
        c.bf_min_apply_rows = 0.0;
        variants.push(("H2 off (no row floor)", c));
    }
    {
        // H6 off: keep unselective filters.
        let mut c = base.clone();
        c.bf_selectivity_threshold = 1.0;
        variants.push(("H6 off (sel<=1.0)", c));
    }
    {
        // H6 strict: only very selective filters.
        let mut c = base.clone();
        c.bf_selectivity_threshold = 0.2;
        variants.push(("H6 strict (sel<=0.2)", c));
    }
    {
        // H5 tiny: cap filter size hard.
        let mut c = base.clone();
        c.bf_max_build_ndv = 1_000.0;
        variants.push(("H5 tiny (ndv<=1k)", c));
    }
    {
        // H7 off: the search the paper's Table 2 runs, every Bloom-filter
        // sub-plan kept.
        let mut c = base.clone();
        c.h7_enabled = false;
        variants.push(("H7 off (uncapped BF-CBO)", c));
    }
    {
        // H9 on: both-side candidates.
        let mut c = base.clone();
        c.h9_enabled = true;
        variants.push(("H9 on (both sides)", c));
    }
    {
        // H8 on with a high gate: Bloom planning mostly skipped.
        let mut c = base.clone();
        c.h8_enabled = true;
        c.h8_min_join_input = 1e15;
        variants.push(("H8 gate (skip all)", c));
    }

    println!(
        "# heuristic ablation over the {} Table-2 queries (SF {})",
        TABLE2_QUERIES.len(),
        env.sf
    );
    println!(
        "# {:<24} {:>9} {:>10} {:>11} {:>9} {:>7} {:>8} {:>6} {:>10}",
        "variant", "plan_ms", "dp_pairs", "generated", "built", "kept", "filters", "cands", "plans"
    );
    let mut json = JsonReport::from_args("ablation_heuristics");
    json.add("sf", env.sf);
    let mut bf_cbo = Row::default();
    let mut no_bf = Row::default();
    for (label, cfg) in &variants {
        let r = sweep(&catalog, &env, cfg);
        r.print(label);
        // Slug: first token of the label ("bf-cbo", "H2", "H6", ...).
        let slug = label
            .split_whitespace()
            .next()
            .unwrap_or("variant")
            .to_ascii_lowercase()
            .replace('-', "_");
        let slug = match *label {
            "H6 off (sel<=1.0)" => "h6_off".to_string(),
            "H6 strict (sel<=0.2)" => "h6_strict".to_string(),
            "H7 off (uncapped BF-CBO)" => "h7_off".to_string(),
            "no-bf baseline" => "no_bf".to_string(),
            "bf-post baseline" => "bf_post".to_string(),
            "bf-cbo default" => "bf_cbo".to_string(),
            _ => slug,
        };
        json.add(&format!("{slug}_pairs"), r.pairs as f64);
        json.add(&format!("{slug}_generated"), r.generated as f64);
        json.add(&format!("{slug}_built"), r.built as f64);
        json.add(&format!("{slug}_filters"), r.filters as f64);
        json.add(&format!("{slug}_candidates"), r.candidates as f64);
        json.add(&format!("{slug}_plan_ms"), r.plan_ms);
        json.add(&format!("{slug}_kept"), r.kept as f64);
        json.add(&format!("{slug}_plan_checksum"), r.checksum());
        match slug.as_str() {
            "bf_cbo" => bf_cbo = r,
            "no_bf" => no_bf = r,
            _ => {}
        }
    }
    // The price of Bloom-aware planning as search size, against the plain
    // DP over the same queries: counts, so they gate exactly where timings
    // can only trend.
    let generated_ratio = bf_cbo.generated as f64 / no_bf.generated as f64;
    let pairs_ratio = bf_cbo.pairs as f64 / no_bf.pairs as f64;
    println!(
        "# bf-cbo search over no-bf: generated {generated_ratio:.3}x, pairs {pairs_ratio:.3}x"
    );
    json.add("bf_cbo_generated_ratio", generated_ratio);
    json.add("bf_cbo_pairs_ratio", pairs_ratio);
    println!("# 8-relation joins under the bf-cbo default configuration");
    for (shape, sql) in WIDE_JOINS {
        let mut r = Row::default();
        r.add(&plan(&catalog, sql, &base));
        r.print(&format!("{shape}8"));
        json.add(&format!("wide_{shape}_pairs"), r.pairs as f64);
        json.add(&format!("wide_{shape}_generated"), r.generated as f64);
        json.add(&format!("wide_{shape}_built"), r.built as f64);
        json.add(&format!("wide_{shape}_kept"), r.kept as f64);
        json.add(&format!("wide_{shape}_plan_checksum"), r.checksum());
    }
    println!("# expectations: H2/H6-off inflate candidates and planner time;");
    println!("# H5-tiny and H8 suppress filters; H7 off adds pairs; H9 adds candidates.");
    if let Some(path) = json.finish().expect("write json report") {
        eprintln!("\n# wrote {path}");
    }
}
