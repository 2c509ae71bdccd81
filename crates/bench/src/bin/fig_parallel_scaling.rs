//! **E13 — determinism-mode parallel scaling**: warm latency of
//! `determinism = strict` vs `determinism = fast` at dop 1 / 4 / 16 on
//! aggregation- (Q1), join- (Q5), and Top-N-heavy (Q18) TPC-H queries.
//!
//! `strict` pins every order-sensitive sink to morsel sequence order
//! (bit-exact run to run at a fixed dop); `fast` unclamps them — workers
//! fold partial aggregates, bounded sorted runs, and streamed exchange
//! buckets that merge in worker order at seal. Both modes run the *same
//! optimized plan*; the bin asserts their results are equal as normalized
//! row multisets, and each mode's per-dop result checksum is gated exactly
//! in CI (fast is run-to-run deterministic at a fixed dop by design).
//!
//! The headline claim — fast at dop 16 beats strict on Q1 and Q18 — is
//! reported as a gated 0/1 structural metric; raw latencies are recorded
//! for trending only.

use bfq_bench::harness::{measure_query_pair, result_checksum, BenchEnv, JsonReport};
use bfq_common::{Datum, Determinism};
use bfq_core::BloomMode;
use bfq_storage::Chunk;
use bfq_tpch::query_text;

const QUERIES: [usize; 3] = [1, 5, 18];
const DOPS: [usize; 3] = [1, 4, 16];

/// Rows as an order-insensitive multiset with float noise normalized:
/// fast-mode partial aggregation may reassociate float sums, and sorts
/// with non-unique keys may order ties differently.
fn row_set(chunk: &Chunk) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (0..chunk.rows())
        .map(|i| {
            chunk
                .row(i)
                .into_iter()
                .map(|d| match d {
                    Datum::Float(f) => format!("{f:.4}"),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

fn main() {
    let env = BenchEnv::load();
    let catalog = env.load_db();
    let mut json = JsonReport::from_args("fig_parallel_scaling");
    json.add("sf", env.sf);

    println!(
        "# determinism=strict vs fast — TPC-H SF {} ({} runs)",
        env.sf, env.runs
    );
    println!(
        "{:<6} {:>5} {:>12} {:>12} {:>9}",
        "query", "dop", "strict_ms", "fast_ms", "speedup"
    );

    for &dop in &DOPS {
        let mut strict_checksum = 0u64;
        let mut fast_checksum = 0u64;
        for &q in &QUERIES {
            let sql = query_text(q, env.sf);
            let mut strict_cfg = env.config(BloomMode::Cbo);
            strict_cfg.dop = dop;
            strict_cfg.determinism = Determinism::Strict;
            let mut fast_cfg = strict_cfg.clone();
            fast_cfg.determinism = Determinism::Fast;
            // Interleaved rounds with a floor well above BFQ_RUNS: the
            // headline is a mode *comparison*, so it needs drift-paired
            // samples and a stable min even when CI trims runs. The
            // gated dop-16 cells get the deepest sampling.
            let rounds = env.runs.max(if dop == 16 { 24 } else { 8 });
            let paired = measure_query_pair(&catalog, &sql, &strict_cfg, &fast_cfg, rounds)
                .expect("measure strict/fast pair");
            let (strict, fast) = (&paired.a, &paired.b);

            // Correctness gate: same rows, order-insensitively.
            assert_eq!(
                row_set(&strict.chunk),
                row_set(&fast.chunk),
                "Q{q} dop={dop}: fast mode diverges from strict"
            );
            strict_checksum += result_checksum(&strict.chunk) as u64;
            fast_checksum += result_checksum(&fast.chunk) as u64;

            // Compare fastest warm runs. Interleaving cancels drift and
            // min-of-N sheds scheduler noise, which is one-sided — a
            // median can still be dragged by a noisy stretch of rounds,
            // but the best round of each side is noise-free.
            let speedup = strict.exec_min_ms / fast.exec_min_ms.max(1e-9);
            println!(
                "Q{q:<5} {dop:>5} {:>12.2} {:>12.2} {speedup:>8.2}x",
                strict.exec_min_ms, fast.exec_min_ms
            );
            json.add(&format!("q{q}_d{dop}_strict_ms"), strict.exec_min_ms);
            json.add(&format!("q{q}_d{dop}_fast_ms"), fast.exec_min_ms);
            if dop == 16 && (q == 1 || q == 18) {
                // The headline structural claim: unclamped sinks win where
                // strict's sequence-ordered consumption serializes.
                json.add(
                    &format!("q{q}_d16_fast_beats_strict"),
                    f64::from(speedup > 1.0),
                );
            }
        }
        // Each mode is deterministic at a fixed dop, so both checksums
        // gate exactly; at dop 1 they must coincide (fast degenerates to
        // the strict serial fold).
        json.add(&format!("d{dop}_strict_checksum"), strict_checksum as f64);
        json.add(&format!("d{dop}_fast_checksum"), fast_checksum as f64);
        if dop == 1 {
            assert_eq!(
                strict_checksum, fast_checksum,
                "fast at dop 1 must be bit-identical to strict"
            );
        }
    }

    if let Some(path) = json.finish().expect("write json report") {
        eprintln!("\n# wrote {path}");
    }
}
