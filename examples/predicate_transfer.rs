//! Predicate transfer through chained Bloom filters (paper §2 and Fig. 3d).
//!
//! A selective predicate on a small relation at the end of a join chain can
//! reduce every other relation — if the optimizer arranges the join order so
//! filters can be built. This example contrasts plan and latency of BF-Post
//! vs BF-CBO on a chain engineered for transfer.
//!
//! Run with: `cargo run --release --example predicate_transfer`

use std::sync::Arc;

use bfq::core::synth::{chain_block, ChainSpec};
use bfq::core::{optimize_bare_block, BloomMode, OptimizerConfig};
use bfq::exec::{execute_plan, ExecOptions};
use bfq::prelude::*;

fn main() -> Result<()> {
    // fact(500k) -> mid(50k) -> dim(2k, keeps 2%): the dim predicate is
    // worth transferring all the way to fact.
    let fx = chain_block(&[
        ChainSpec::new("fact", 500_000),
        ChainSpec::new("mid", 50_000),
        ChainSpec::new("dim", 2_000).filtered(0.02),
    ]);
    let catalog = Arc::new(fx.catalog.clone());

    for mode in [BloomMode::None, BloomMode::Post, BloomMode::Cbo] {
        let mut fx = chain_block(&[
            ChainSpec::new("fact", 500_000),
            ChainSpec::new("mid", 50_000),
            ChainSpec::new("dim", 2_000).filtered(0.02),
        ]);
        let mut config = OptimizerConfig::with_mode(mode);
        config.bf_min_apply_rows = 1_000.0;
        let cat = Arc::new(fx.catalog.clone());
        let planned = optimize_bare_block(&fx.block, &mut fx.bindings, &cat, &config)?;
        let t = std::time::Instant::now();
        let out = execute_plan(
            &planned.plan,
            cat.clone(),
            ExecOptions::with_dop(config.dop),
        )?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        println!("== {mode:?} ==");
        println!("{}", planned.plan.explain(&|c| c.to_string()));
        println!(
            "rows={}  filters(cbo={}, post={})  latency={ms:.1} ms\n",
            out.chunk.rows(),
            planned.stats.cbo_filters,
            planned.stats.post_filters,
        );
    }
    let _ = catalog;
    Ok(())
}
