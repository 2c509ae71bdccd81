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
//! Part two times the scan kernel the probes sit in: the local predicate
//! (selection-vector refinement) and the gather of the projected columns,
//! in ns per scanned row, over the chunks of the TPC-H table scanned. Each
//! shape is the filtered scan the optimizer plans for a query —
//! **q1** (lineitem: one date bound that keeps every generated row, seven
//! columns gathered), **q6** (lineitem: a date range, a `BETWEEN` and a
//! bound on three columns, a few percent kept, two gathered), **q13**
//! (orders: `o_comment NOT LIKE '%special%requests%'`, two inner pieces
//! searched in each comment) and **q9** (part: `p_name LIKE '%green%'`) —
//! reported as min, median and spread (max − min) over repeated passes.
//!
//! With `--json`, structural metrics (false-positive survivor counts and
//! the no-false-negative member counts — deterministic for the fixed keys
//! and hash seed; the scan shapes' selected rows and result checksums)
//! gate in CI; `*_ms`/`*_ns` timings and the speedup ratios are recorded
//! for trending only.

use std::sync::Arc;
use std::time::Instant;

use bfq_bench::harness::{result_checksum, target_features, BenchEnv, JsonReport};
use bfq_bloom::{BloomFilter, ProbeScratch, RuntimeFilter, BLOOM_SEED};
use bfq_catalog::Catalog;
use bfq_common::{ColumnId, TableId};
use bfq_core::{optimize, BloomMode};
use bfq_expr::{eval_predicate, Expr, Layout};
use bfq_plan::{Bindings, PhysicalNode, PhysicalPlan};
use bfq_sql::plan_sql;
use bfq_storage::{Chunk, Column};
use bfq_tpch::query_text;

const CHUNK_ROWS: usize = 8192;

/// Timed passes per scan shape, after one warm-up pass.
const SCAN_PASSES: usize = 9;

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

/// A query's filtered scan of one table as the optimizer plans it: the
/// pushed-down predicate over the table's full layout and the projected
/// columns.
struct ScanShape {
    label: &'static str,
    table: TableId,
    predicate: Expr,
    layout: Layout,
    projection: Vec<usize>,
}

fn find_scan(plan: &PhysicalPlan, table: TableId) -> Option<&PhysicalNode> {
    match &plan.node {
        node @ PhysicalNode::Scan { base, .. } if *base == table => Some(node),
        _ => plan
            .children()
            .into_iter()
            .find_map(|c| find_scan(c, table)),
    }
}

fn filtered_scan(
    catalog: &Arc<Catalog>,
    env: &BenchEnv,
    q: usize,
    table: &str,
    label: &'static str,
) -> ScanShape {
    let mut bindings = Bindings::new();
    let bound = plan_sql(&query_text(q, env.sf), catalog, &mut bindings).expect("bind");
    let config = env.config(BloomMode::None);
    let planned = optimize(&bound.plan, &mut bindings, catalog, &config).expect("optimize");
    let meta = catalog.meta_by_name(table).expect("table");
    let Some(PhysicalNode::Scan {
        rel_id,
        projection,
        predicate: Some(predicate),
        ..
    }) = find_scan(&planned.plan, meta.id)
    else {
        panic!("Q{q}: no filtered {table} scan");
    };
    let width = catalog.data(meta.id).expect("table data").schema().len();
    ScanShape {
        label,
        table: meta.id,
        predicate: predicate.clone(),
        layout: Layout::new(
            (0..width as u32)
                .map(|i| ColumnId::new(*rel_id, i))
                .collect(),
        ),
        projection: projection.iter().map(|&c| c as usize).collect(),
    }
}

/// Scan every chunk once for the output (selected rows, gathered chunks),
/// then [`SCAN_PASSES`] more times for the timing: predicate and gather ns
/// per scanned row of each pass, each sorted.
fn run_scan(shape: &ScanShape, chunks: &[Chunk]) -> (u64, Chunk, Vec<f64>, Vec<f64>) {
    let rows: usize = chunks.iter().map(Chunk::rows).sum();
    let pass = || {
        let start = Instant::now();
        let sels: Vec<Vec<u32>> = (chunks.iter())
            .map(|c| eval_predicate(&shape.predicate, c, &shape.layout).expect("predicate"))
            .collect();
        let predicate_ns = start.elapsed().as_nanos() as f64 / rows as f64;
        let start = Instant::now();
        let out: Vec<Chunk> = (chunks.iter().zip(&sels))
            .map(|(c, sel)| c.project(&shape.projection).take(sel))
            .collect();
        let gather_ns = start.elapsed().as_nanos() as f64 / rows as f64;
        (sels, out, predicate_ns, gather_ns)
    };
    let (sels, out, _, _) = pass();
    let (mut predicate_ns, mut gather_ns): (Vec<f64>, Vec<f64>) = (0..SCAN_PASSES)
        .map(|_| {
            let (_, _, p, g) = std::hint::black_box(pass());
            (p, g)
        })
        .unzip();
    predicate_ns.sort_by(f64::total_cmp);
    gather_ns.sort_by(f64::total_cmp);
    let selected = sels.iter().map(|s| s.len() as u64).sum();
    let out = Chunk::concat(&out).expect("same schema");
    (selected, out, predicate_ns, gather_ns)
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

    let env = BenchEnv::load();
    let catalog = env.load_db();
    json.add("sf", env.sf);
    println!("\n# Scan kernel — selection-vector predicate, then gather of the projected columns");
    println!("# compiled for {}", target_features());
    println!(
        "{:<6} {:>8} {:>9} {:>15} {:>8} {:>7} {:>15} {:>8} {:>7}",
        "shape",
        "rows",
        "selected",
        "pred min ns/row",
        "median",
        "spread",
        "gather min ns/row",
        "median",
        "spread"
    );
    for shape in [
        filtered_scan(&catalog, &env, 1, "lineitem", "q1"),
        filtered_scan(&catalog, &env, 6, "lineitem", "q6"),
        filtered_scan(&catalog, &env, 13, "orders", "q13"),
        filtered_scan(&catalog, &env, 9, "part", "q9"),
    ] {
        let chunks = catalog.data(shape.table).expect("table data").chunks();
        let rows: usize = chunks.iter().map(Chunk::rows).sum();
        let (selected, out, predicate_ns, gather_ns) = run_scan(&shape, chunks);
        let stats = |ns: &[f64]| (ns[0], ns[ns.len() / 2], ns[ns.len() - 1] - ns[0]);
        let (p_min, p_median, p_spread) = stats(&predicate_ns);
        let (g_min, g_median, g_spread) = stats(&gather_ns);
        let tag = format!("scan_{}", shape.label);
        // Deterministic for the fixed data set: gate exactly.
        json.add(&format!("{tag}_selected_checksum"), selected as f64);
        json.add(
            &format!("{tag}_result_checksum"),
            result_checksum(&out) as f64,
        );
        json.add(&format!("{tag}_predicate_min_ns"), p_min);
        json.add(&format!("{tag}_predicate_median_ns"), p_median);
        json.add(&format!("{tag}_predicate_spread_ns"), p_spread);
        json.add(&format!("{tag}_gather_min_ns"), g_min);
        json.add(&format!("{tag}_gather_median_ns"), g_median);
        json.add(&format!("{tag}_gather_spread_ns"), g_spread);
        println!(
            "{:<6} {:>8} {:>9} {:>15.2} {:>8.2} {:>7.2} {:>15.2} {:>8.2} {:>7.2}",
            shape.label, rows, selected, p_min, p_median, p_spread, g_min, g_median, g_spread
        );
    }

    if let Some(path) = json.finish().expect("write json report") {
        eprintln!("\n# wrote {path}");
    }
}
