//! **E12 — Bloom probe throughput: row-at-a-time vs batched probing of the
//! cache-line-blocked filter.**
//!
//! Two series at three filter sizes (64 KiB L1/L2-resident, 1 MiB L2-edge,
//! 16 MiB beyond L2):
//!
//! * **row-at-a-time** — one `Column::hash_one` call and one scalar
//!   `contains_hash` per row, and a fresh selection vector per chunk;
//! * **batched** — the executor's path: columnar hashing (`hash_into` once
//!   per chunk) through reused scratch buffers and branch-free selection
//!   compaction.
//!
//! Both probe the same filter, so they admit the same rows; the bin prints
//! the target features it was compiled for next to the rates.
//!
//! With `--json`, structural metrics (false-positive survivor counts and
//! the no-false-negative member counts — deterministic for the fixed keys
//! and hash seed) gate in CI; `*_ms` timings and the speedup ratios are
//! recorded for trending only.

use std::time::Instant;

use bfq_bench::harness::{target_features, JsonReport};
use bfq_bloom::{BloomFilter, ProbeScratch, RuntimeFilter, BLOOM_SEED};
use bfq_storage::Column;

const CHUNK_ROWS: usize = 8192;

/// Build the probe workload: chunks alternating member / non-member keys.
fn probe_chunks(n_keys: i64, total_probes: usize) -> Vec<Column> {
    (0..total_probes / CHUNK_ROWS)
        .map(|c| {
            let vals: Vec<i64> = (0..CHUNK_ROWS as i64)
                .map(|i| {
                    let g = c as i64 * CHUNK_ROWS as i64 + i;
                    if g % 2 == 0 {
                        (g / 2) % n_keys // member
                    } else {
                        n_keys + g // guaranteed miss
                    }
                })
                .collect();
            Column::Int64(vals, None)
        })
        .collect()
}

/// Row-at-a-time probing: per-row hashing, scalar bit tests, a fresh
/// selection vector per chunk. Returns (survivors, ms).
fn run_rowwise(filter: &BloomFilter, chunks: &[Column], repeats: usize) -> (u64, f64) {
    let mut survivors = 0u64;
    let start = Instant::now();
    for _ in 0..repeats {
        survivors = 0;
        for col in chunks {
            let mut sel = Vec::with_capacity(col.len());
            for i in 0..col.len() {
                if filter.contains_hash(col.hash_one(i, BLOOM_SEED)) {
                    sel.push(i as u32);
                }
            }
            survivors += sel.len() as u64;
        }
    }
    (
        survivors,
        start.elapsed().as_secs_f64() * 1e3 / repeats as f64,
    )
}

/// The batched path: probe every chunk through one reused scratch.
fn run_batched(filter: &RuntimeFilter, chunks: &[Column], repeats: usize) -> (u64, f64) {
    let mut scratch = ProbeScratch::new();
    let mut out = Vec::new();
    let mut survivors = 0u64;
    // Warm-up pass sizes the buffers and faults the filter in.
    for col in chunks {
        filter.probe_into(col, None, &mut scratch, &mut out);
    }
    let start = Instant::now();
    for _ in 0..repeats {
        survivors = 0;
        for col in chunks {
            filter.probe_into(col, None, &mut scratch, &mut out);
            survivors += out.len() as u64;
        }
    }
    (
        survivors,
        start.elapsed().as_secs_f64() * 1e3 / repeats as f64,
    )
}

fn main() {
    let mut json = JsonReport::from_args("fig_bloom_probe_throughput");

    println!("# Bloom probe throughput — row-at-a-time vs batched");
    println!("# compiled for {}", target_features());
    println!(
        "\n{:<8} {:>10} {:>13} {:>13} {:>11}",
        "filter", "keys", "row Mk/s", "batch Mk/s", "batch/row"
    );

    let total_probes = 4 * 1024 * 1024;
    for (label, n_keys) in [("64kib", 1i64 << 16), ("1mib", 1 << 20), ("16mib", 1 << 24)] {
        let keys = Column::Int64((0..n_keys).collect(), None);
        let chunks = probe_chunks(n_keys, total_probes);
        let repeats = if n_keys >= 1 << 24 { 3 } else { 5 };
        let members = total_probes as u64 / 2;
        let mut f = BloomFilter::with_expected_ndv(n_keys as usize);
        f.insert_column(&keys);
        f.set_ndv_hint(n_keys as u64);
        assert_eq!(
            f.size_bytes(),
            n_keys as usize,
            "{label}: 8 bits/key sizing drifted"
        );

        let (row_survivors, row_ms) = run_rowwise(&f, &chunks, repeats);
        let (survivors, batch_ms) = run_batched(&RuntimeFilter::new(f), &chunks, repeats);
        assert!(survivors >= members, "{label}: false negatives!");
        assert_eq!(
            row_survivors, survivors,
            "{label}: both paths probe one filter"
        );
        let row_rate = total_probes as f64 / 1e3 / row_ms;
        let batch_rate = total_probes as f64 / 1e3 / batch_ms;
        println!(
            "{:<8} {:>10} {:>13.1} {:>13.1} {:>10.2}x",
            label,
            n_keys,
            row_rate,
            batch_rate,
            batch_rate / row_rate
        );
        json.add(&format!("{label}_row_ms"), row_ms);
        json.add(&format!("{label}_batch_ms"), batch_ms);
        json.add(&format!("speedup_vs_row_{label}_ms"), batch_rate / row_rate);
        // Deterministic for the fixed key set and hash seed: gate it.
        json.add(&format!("{label}_fp"), (survivors - members) as f64);
        // No false negatives is a hard invariant: exact-match metric.
        json.add(&format!("{label}_members_checksum"), members as f64);
    }

    if let Some(path) = json.finish().expect("write json report") {
        eprintln!("\n# wrote {path}");
    }
}
