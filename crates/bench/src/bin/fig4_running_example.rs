//! **E4 — Paper Figure 4 (and Examples 3.1–3.4)**: the running example.
//!
//! Three relations t1 (600k×scale), t2 (807×scale, filtered ~50%), t3
//! (1000×scale) chained t1.c2 = t2.c1, t2.c2 = t3.c1. BF-Post applies no
//! filter (t2→t3 is a lossless FK and t1 is on the build side of the
//! baseline plan); BF-CBO reorders so a filter built from the filtered t2
//! prunes t1's scan — the join inputs collapse, exactly Figure 4(b).

use bfq_bench::harness::JsonReport;
use bfq_core::synth::running_example;
use bfq_core::{optimize_bare_block, BloomMode, OptimizerConfig};
use bfq_exec::{execute_plan, ExecOptions};
use std::sync::Arc;

fn main() {
    let scale: f64 = std::env::var("BFQ_SYN_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let mut fx = running_example(scale);
    let catalog = Arc::new(fx.catalog.clone());
    let mut json = JsonReport::from_args("fig4_running_example");
    json.add("scale", scale);

    println!("# Figure 4 reproduction — running example at scale {scale}\n");
    for (label, mode) in [
        ("(a) BF-Post", BloomMode::Post),
        ("(b) BF-CBO", BloomMode::Cbo),
    ] {
        let mut config = OptimizerConfig::with_mode(mode);
        config.bf_min_apply_rows = 100.0;
        let out =
            optimize_bare_block(&fx.block, &mut fx.bindings, &catalog, &config).expect("optimize");
        let t = std::time::Instant::now();
        let result = execute_plan(
            &out.plan,
            catalog.clone(),
            ExecOptions::with_dop(config.dop),
        )
        .expect("execute");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        println!("## {label}\n");
        println!("{}", out.plan.explain(&|c| c.to_string()));
        // Observed (actual) input rows per join, as in the figure.
        out.plan.visit(&mut |n| {
            if let bfq_plan::PhysicalNode::HashJoin { outer, inner, .. } = &n.node {
                println!(
                    "   join actual inputs: outer={} inner={} -> out={}",
                    result.stats.actual(outer.id).unwrap_or(0),
                    result.stats.actual(inner.id).unwrap_or(0),
                    result.stats.actual(n.id).unwrap_or(0)
                );
            }
        });
        println!(
            "   filters: cbo={} post={}   output rows={}   latency={ms:.2} ms\n",
            out.stats.cbo_filters,
            out.stats.post_filters,
            result.chunk.rows()
        );
        let slug = if mode == BloomMode::Post {
            "post"
        } else {
            "cbo"
        };
        json.add(&format!("{slug}_filters_cbo"), out.stats.cbo_filters as f64);
        json.add(
            &format!("{slug}_filters_post"),
            out.stats.post_filters as f64,
        );
        json.add(&format!("{slug}_rows"), result.chunk.rows() as f64);
        json.add(&format!("{slug}_ms"), ms);
    }
    if let Some(path) = json.finish().expect("write json report") {
        eprintln!("\n# wrote {path}");
    }
}
