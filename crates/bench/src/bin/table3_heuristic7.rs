//! **E6 — Paper Table 3**: the Table 2 sweep with Heuristic 7 off and on
//! (cap Bloom-filter sub-plans per relation; prune to the fewest-rows one).
//! H7 is on by default, so the `cbo` column turns it off to stand for the
//! paper's uncapped BF-CBO and the `cbo_h7` column runs the default.
//!
//! Expected shape: planner latency drops versus plain BF-CBO (paper: 540.7 →
//! 421.9 ms total) while total query latency degrades slightly (32.8% →
//! 31.4% improvement over BF-Post), with individual queries occasionally
//! regressing (the paper's Q8).

use bfq_bench::harness::{filters_in_plan, measure_query, measure_tpch, BenchEnv, JsonReport};
use bfq_core::BloomMode;
use bfq_tpch::{query_text, TABLE2_QUERIES};

fn main() {
    let env = BenchEnv::load();
    let catalog = env.load_db();
    let mut json = JsonReport::from_args("table3_heuristic7");
    json.add("sf", env.sf);

    println!(
        "# Table 3 reproduction (Heuristic 7 off vs on) — TPC-H SF {} DOP {}",
        env.sf, env.dop
    );
    println!(
        "# {:>3} {:>10} {:>10} {:>10} | {:>10} {:>10}",
        "Q#", "cbo_ms", "cbo_h7_ms", "h7_delta%", "plan_cbo", "plan_h7"
    );
    let (mut sum_cbo, mut sum_h7) = (0.0, 0.0);
    let (mut plan_cbo, mut plan_h7) = (0.0, 0.0);
    let (mut sum_post, mut sum_none) = (0.0, 0.0);
    let (mut filters_cbo, mut filters_h7) = (0usize, 0usize);
    for q in TABLE2_QUERIES {
        let none = measure_tpch(&catalog, &env, q, BloomMode::None).expect("none");
        let post = measure_tpch(&catalog, &env, q, BloomMode::Post).expect("post");
        let mut uncapped = env.config(BloomMode::Cbo);
        uncapped.h7_enabled = false;
        let cbo =
            measure_query(&catalog, &query_text(q, env.sf), &uncapped, env.runs).expect("cbo");
        let h7 = measure_tpch(&catalog, &env, q, BloomMode::Cbo).expect("cbo+h7");
        println!(
            "  {:>3} {:>10.2} {:>10.2} {:>10.1} | {:>10.2} {:>10.2}",
            q,
            cbo.exec_ms,
            h7.exec_ms,
            100.0 * (h7.exec_ms - cbo.exec_ms) / cbo.exec_ms,
            cbo.plan_ms,
            h7.plan_ms
        );
        sum_cbo += cbo.exec_ms;
        sum_h7 += h7.exec_ms;
        plan_cbo += cbo.plan_ms;
        plan_h7 += h7.plan_ms;
        sum_post += post.exec_ms;
        sum_none += none.exec_ms;
        filters_cbo += filters_in_plan(&cbo);
        filters_h7 += filters_in_plan(&h7);
    }
    println!(
        "# exec totals: no-bf {sum_none:.1} | bf-post {sum_post:.1} | bf-cbo {sum_cbo:.1} | bf-cbo+H7 {sum_h7:.1} ms"
    );
    println!(
        "# improvement over bf-post: cbo {:.1}% vs cbo+H7 {:.1}% (paper: 32.8% vs 31.4%)",
        100.0 * (1.0 - sum_cbo / sum_post),
        100.0 * (1.0 - sum_h7 / sum_post)
    );
    println!(
        "# planner totals: cbo {plan_cbo:.1} ms vs cbo+H7 {plan_h7:.1} ms (paper: 540.7 vs 421.9)"
    );
    json.add("filters_cbo", filters_cbo as f64);
    json.add("filters_h7", filters_h7 as f64);
    json.add("cbo_total_ms", sum_cbo);
    json.add("h7_total_ms", sum_h7);
    json.add("plan_cbo_total_ms", plan_cbo);
    json.add("plan_h7_total_ms", plan_h7);
    if let Some(path) = json.finish().expect("write json report") {
        eprintln!("\n# wrote {path}");
    }
}
