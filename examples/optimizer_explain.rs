//! A look inside the two-phase optimizer: candidate marking, Δ collection,
//! and the costed Bloom-filter sub-plans — the paper's Examples 3.1–3.4 on
//! its running example.
//!
//! Run with: `cargo run --release --example optimizer_explain`

use bfq::core::candidates::mark_candidates;
use bfq::core::costing::{initial_plan_lists, required_cols_per_rel};
use bfq::core::enumerate::join_space;
use bfq::core::phase1::collect_deltas;
use bfq::core::synth::running_example;
use bfq::core::{optimize_bare_block, BloomMode, OptimizerConfig};
use bfq::cost::CostModel;
use bfq::prelude::*;
use std::collections::HashMap;

fn main() -> Result<()> {
    let mut fx = running_example(1.0);
    let mut config = OptimizerConfig::with_mode(BloomMode::Cbo);
    config.bf_min_apply_rows = 100.0;
    let est = fx.estimator();

    // Example 3.1: marking Bloom filter candidates.
    let mut cands = mark_candidates(&fx.block, &est, &config);
    println!("## Phase 0 — candidates (paper Example 3.1)");
    for c in &cands {
        println!(
            "  BFC on {}: apply col {}, build col {} (rel {})",
            fx.block.rel(c.apply_rel).alias,
            c.apply_col,
            c.build_col,
            fx.block.rel(c.build_rel).alias
        );
    }

    // Example 3.2: first bottom-up pass populates Δ.
    let p1 = collect_deltas(&est, &join_space(&fx.block), &mut cands, &config);
    println!("\n## Phase 1 — Δ collection (paper Example 3.2)");
    println!("  pairs visited: {}", p1.pairs_visited);
    for c in &cands {
        println!("  {}: Δ = {:?}", fx.block.rel(c.apply_rel).alias, c.deltas);
    }

    // Example 3.3: costed Bloom filter scan sub-plans.
    let model = CostModel::new(config.dop);
    let required = required_cols_per_rel(&fx.block, &[]);
    let mut next_filter = 0;
    let lists = initial_plan_lists(
        &fx.block,
        &est,
        &model,
        &config,
        &cands,
        &required,
        &HashMap::new(),
        None,
        &mut next_filter,
    )?;
    println!("\n## Costing — plan lists per relation (paper Example 3.3)");
    for (rel, list) in lists.iter().enumerate() {
        println!("  {}:", fx.block.rel(rel).alias);
        for sp in list.plans() {
            let deltas: Vec<String> = sp
                .pending
                .iter()
                .map(|p| format!("{:?}", p.bf.delta))
                .collect();
            println!(
                "    rows={:>9.0} cost={:>10.1} bloom δ={}",
                sp.rows,
                sp.cost.total,
                if deltas.is_empty() {
                    "-".into()
                } else {
                    deltas.join(",")
                }
            );
        }
    }
    drop(est);

    // Example 3.4 / Figure 4: the winning plan.
    let catalog = fx.catalog.clone();
    let out = optimize_bare_block(&fx.block, &mut fx.bindings, &catalog, &config)?;
    println!("\n## Phase 2 — winning plan (paper Example 3.4 / Figure 4b)");
    println!("{}", out.plan.explain(&|c| c.to_string()));
    println!(
        "stats: {} DP pairs, {} sub-plans generated, {} kept",
        out.stats.phase2.pairs, out.stats.phase2.generated, out.stats.phase2.kept
    );

    // Execute the winning plan and show the chunk-skipping counters the
    // per-chunk zone-map/Bloom index records for every scan (bfq-index).
    let exec = bfq::exec::execute_plan(
        &out.plan,
        std::sync::Arc::new(catalog),
        bfq::exec::ExecOptions {
            dop: config.dop,
            index_mode: config.index_mode,
            ..Default::default()
        },
    )?;
    let p = exec.stats.prune_totals();
    println!(
        "## Executor — chunk-index data skipping ({})",
        config.index_mode
    );
    println!(
        "result rows: {}   chunks considered: {}   skipped: {} (zonemap {}, bloom {}, filterkeys {}), {} rows pruned",
        exec.chunk.rows(),
        p.chunks,
        p.skipped(),
        p.skipped_zonemap,
        p.skipped_bloom,
        p.skipped_rfilter,
        p.rows_pruned
    );
    Ok(())
}
