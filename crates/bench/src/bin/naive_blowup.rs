//! **E7 — Paper §3.1**: planning-time explosion of the naïve single-phase
//! integration versus the two-phase BF-CBO.
//!
//! The paper measured 28 ms (3-way), 375 ms (4-way), 56 s (5-way) and gave
//! up after 30 min on a 6-way join. We sweep chain joins of 2..=N relations
//! (`BFQ_NAIVE_MAX`, default 6) and report naïve wall time / steps next to
//! the two-phase optimizer's time on the same block. The super-exponential
//! growth curve is the reproduced artifact.

use std::time::Duration;

use bfq_bench::harness::JsonReport;
use bfq_core::candidates::mark_candidates;
use bfq_core::naive::naive_optimize;
use bfq_core::synth::{chain_block, ChainSpec};
use bfq_core::{optimize_bare_block, BloomMode, OptimizerConfig};

fn main() {
    let mut json = JsonReport::from_args("naive_blowup");
    let max_n: usize = std::env::var("BFQ_NAIVE_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    let time_limit_s: u64 = std::env::var("BFQ_NAIVE_LIMIT_S")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60);

    println!("# Naive single-phase vs two-phase planning time (chain joins)");
    println!(
        "# {:>3} {:>12} {:>14} {:>10} {:>12} {:>10}",
        "n", "naive_ms", "naive_steps", "done", "twophase_ms", "ratio"
    );
    for n in 2..=max_n {
        let specs: Vec<ChainSpec> = (0..n)
            .map(|i| ChainSpec::new(format!("t{i}"), 200_000 >> i.min(4)).filtered(0.5))
            .collect();
        let mut fx = chain_block(&specs);
        let mut config = OptimizerConfig::with_mode(BloomMode::Cbo);
        config.bf_min_apply_rows = 10.0;

        // Naive single-phase.
        let est = fx.estimator();
        let cands = mark_candidates(&fx.block, &est, &config);
        let stats = naive_optimize(
            &fx.block,
            &est,
            &cands,
            u64::MAX,
            Duration::from_secs(time_limit_s),
        );
        drop(est);

        // Two-phase BF-CBO on the same block.
        let catalog = fx.catalog.clone();
        let t = std::time::Instant::now();
        let _ = optimize_bare_block(&fx.block, &mut fx.bindings, &catalog, &config)
            .expect("two-phase optimize");
        let two_ms = t.elapsed().as_secs_f64() * 1e3;

        let naive_ms = stats.elapsed.as_secs_f64() * 1e3;
        println!(
            "  {:>3} {:>12.1} {:>14} {:>10} {:>12.1} {:>10.1}",
            n,
            naive_ms,
            stats.steps,
            if stats.completed { "yes" } else { "TIMEOUT" },
            two_ms,
            naive_ms / two_ms.max(0.001)
        );
        // Step counts are deterministic only for runs that complete (a
        // timed-out run counts steps until the machine-speed-dependent
        // cutoff), so gate completed step counts and trend the rest.
        if stats.completed {
            json.add(&format!("n{n}_steps"), stats.steps as f64);
        }
        json.add(&format!("n{n}_naive_ms"), naive_ms);
        json.add(&format!("n{n}_twophase_ms"), two_ms);
    }
    println!("# paper shape: 28 ms -> 375 ms -> 56 s -> >30 min for 3/4/5/6-way joins");
    if let Some(path) = json.finish().expect("write json report") {
        eprintln!("\n# wrote {path}");
    }
}
