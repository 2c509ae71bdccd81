//! **Ablation** — how each search-space heuristic affects planner effort and
//! plan quality on the Table-2 TPC-H queries.
//!
//! The paper motivates Heuristics 1–9 qualitatively (§3.10) and measures
//! only H7 (Table 3). This ablation fills in the rest: each row disables or
//! re-tunes one knob relative to the default BF-CBO configuration and
//! reports total planning time, DP pairs examined, sub-plans generated and
//! built (admitted to a plan list, the only ones materialized as plan
//! nodes), and the number of Bloom filters in the winning plans.

use std::sync::Arc;

use bfq_bench::harness::{BenchEnv, JsonReport};
use bfq_catalog::Catalog;
use bfq_core::{optimize, BloomMode, OptimizerConfig};
use bfq_plan::Bindings;
use bfq_sql::plan_sql;
use bfq_tpch::{query_text, TABLE2_QUERIES};

struct Row {
    label: &'static str,
    plan_ms: f64,
    pairs: usize,
    generated: usize,
    built: usize,
    filters: usize,
    candidates: usize,
}

fn sweep(
    catalog: &Arc<Catalog>,
    env: &BenchEnv,
    label: &'static str,
    cfg: &OptimizerConfig,
) -> Row {
    let mut row = Row {
        label,
        plan_ms: 0.0,
        pairs: 0,
        generated: 0,
        built: 0,
        filters: 0,
        candidates: 0,
    };
    for q in TABLE2_QUERIES {
        let sql = query_text(q, env.sf);
        let mut bindings = Bindings::new();
        let bound = plan_sql(&sql, catalog, &mut bindings).expect("bind");
        let planned = optimize(&bound.plan, &mut bindings, catalog, cfg).expect("optimize");
        row.plan_ms += planned.stats.planning_ms;
        row.pairs += planned.stats.phase2.pairs;
        row.generated += planned.stats.phase2.generated;
        row.built += planned.stats.phase2.built;
        row.filters += planned.stats.cbo_filters + planned.stats.post_filters;
        row.candidates += planned.stats.candidates;
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
        // H7 on, paper setting.
        let mut c = base.clone();
        c.h7_enabled = true;
        c.h7_max_subplans = 4;
        variants.push(("H7 on (cap 4 -> 1)", c));
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
        "# {:<22} {:>9} {:>10} {:>11} {:>9} {:>8} {:>6}",
        "variant", "plan_ms", "dp_pairs", "generated", "built", "filters", "cands"
    );
    let mut json = JsonReport::from_args("ablation_heuristics");
    json.add("sf", env.sf);
    for (label, cfg) in &variants {
        let r = sweep(&catalog, &env, label, cfg);
        println!(
            "  {:<22} {:>9.1} {:>10} {:>11} {:>9} {:>8} {:>6}",
            r.label, r.plan_ms, r.pairs, r.generated, r.built, r.filters, r.candidates
        );
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
    }
    println!("# expectations: H2/H6-off inflate candidates and planner time;");
    println!("# H5-tiny and H8 suppress filters; H7 trims pairs; H9 adds candidates.");
    if let Some(path) = json.finish().expect("write json report") {
        eprintln!("\n# wrote {path}");
    }
}
