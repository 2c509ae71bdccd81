//! Criterion benchmark: hash join execution with and without a Bloom filter
//! pushed to the probe-side scan (the runtime mechanism the optimizer is
//! trading off).

use bfq_core::synth::{chain_block, ChainSpec};
use bfq_core::{optimize_bare_block, BloomMode, OptimizerConfig};
use bfq_exec::{execute_plan, ExecOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec_join");
    g.sample_size(10);
    for (label, mode) in [("no_bf", BloomMode::None), ("bf_cbo", BloomMode::Cbo)] {
        // fact(300k) ⋈ dim(10k filtered to 5%): the filter prunes ~95% of
        // the probe side before the join.
        let mut fx = chain_block(&[
            ChainSpec::new("fact", 300_000),
            ChainSpec::new("dim", 10_000).filtered(0.05),
        ]);
        let mut config = OptimizerConfig::with_mode(mode).dop(4);
        config.bf_min_apply_rows = 1_000.0;
        let catalog = Arc::new(fx.catalog.clone());
        let planned =
            optimize_bare_block(&fx.block, &mut fx.bindings, &catalog, &config).expect("plan");
        g.bench_function(label, |b| {
            b.iter(|| {
                black_box(
                    execute_plan(
                        black_box(&planned.plan),
                        catalog.clone(),
                        ExecOptions::with_dop(config.dop),
                    )
                    .expect("execute"),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_join);
criterion_main!(benches);
