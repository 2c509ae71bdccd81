//! **E13 — Hash-join probe throughput of the flat open-addressing table
//! with batched probe kernels.**
//!
//! Three build sizes (64 KiB cache-resident, 1 MiB L2-edge, 16 MiB beyond
//! L2; 8-byte keys), each under two duplicate distributions, probed
//! through the production path: the power-of-two `(hash, head)` directory
//! with linear probing and a contiguous chain arena — one columnar
//! `hash_keys_into` pass, a branch-free directory lookup over the hash
//! column, in-order chain expansion, then typed columnar key
//! verification, all through one reused `MorselScratch`.
//!
//! Skews: **low** (all build keys distinct — the high-cardinality case)
//! and **high** (16 rows per key, so probing is chain-walk-bound).
//!
//! The emitted (probe, build) pair sequence must be the one the workload
//! defines in closed form (ascending probe row, then ascending build row);
//! its checksum is asserted in-process and the pair count gated exactly in
//! CI.
//!
//! Part two times the aggregation kernel, which groups on the same flat
//! directory, on two shapes of a 300 000-row lineitem: **q1** (two Utf8
//! keys, 6 groups, four float sums, three float averages and `count(*)`)
//! and **q18** (one Int64 key, 75 000 groups of 4 rows in scrambled order,
//! one float sum). It reports ns per input row as min, median and spread
//! (max − min) over repeated passes, with the target features compiled in.
//!
//! Part three runs the join-heaviest TPC-H queries (Q5, Q9, Q18) end to
//! end and gates their result checksums.
//!
//! With `--json`, pair counts, group counts and result checksums gate in
//! CI; `*_ms` and `*_ns` timings trend only.

use std::sync::Arc;
use std::time::Instant;

use bfq_bench::harness::{measure_tpch, result_checksum, target_features, BenchEnv, JsonReport};
use bfq_common::{ColumnId, DataType, TableId};
use bfq_core::BloomMode;
use bfq_exec::agg::AggState;
use bfq_exec::join::BuildTable;
use bfq_exec::util::{hash_keys_into, MorselScratch, JOIN_SEED};
use bfq_expr::{Expr, Layout};
use bfq_plan::{AggExpr, AggFunc, OutputColumn};
use bfq_storage::{Chunk, Column, StrData};

const CHUNK_ROWS: usize = 8192;

/// Input rows of each aggregation shape (lineitem at SF 0.05).
const AGG_ROWS: usize = 300_000;

/// Timed passes per aggregation shape, after one warm-up pass.
const AGG_PASSES: usize = 9;

fn int_chunk(vals: Vec<i64>) -> Chunk {
    Chunk::new(vec![Arc::new(Column::Int64(vals, None))]).unwrap()
}

/// Probe chunks alternating member / guaranteed-miss keys over a key
/// domain of `n_keys`.
fn probe_chunks(n_keys: i64, total_probes: usize) -> Vec<Chunk> {
    (0..total_probes / CHUNK_ROWS)
        .map(|c| {
            int_chunk(
                (0..CHUNK_ROWS as i64)
                    .map(|i| {
                        let g = c as i64 * CHUNK_ROWS as i64 + i;
                        if g % 2 == 0 {
                            (g / 2) % n_keys // member
                        } else {
                            n_keys + g // guaranteed miss
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Order-sensitive FNV-style fold over the emitted (probe, build) pairs.
#[inline]
fn fold_pair(cs: u64, p: u32, b: u32) -> u64 {
    (cs ^ ((p as u64) << 32 | b as u64)).wrapping_mul(0x100_0000_01b3)
}

/// What [`probe_chunks`] over a build side of `dup` rows per key (row `b`
/// holds key `b % n_keys`) must emit: every member probe row, in order,
/// paired with its build rows in ascending order. Returns (pairs, checksum).
fn expected_pairs(n_keys: usize, dup: usize, total_probes: usize) -> (u64, u64) {
    let (mut pairs, mut checksum) = (0u64, 0u64);
    for g in (0..total_probes).step_by(2) {
        let key = (g / 2) % n_keys;
        for d in 0..dup {
            pairs += 1;
            checksum = fold_pair(checksum, (g % CHUNK_ROWS) as u32, (key + d * n_keys) as u32);
        }
    }
    (pairs, checksum)
}

/// The batched path: directory lookup + chain expansion + columnar
/// verification through one reused scratch. Returns (pairs, checksum, ms).
fn run_flat(table: &BuildTable, chunks: &[Chunk], repeats: usize) -> (u64, u64, f64) {
    let mut scratch = MorselScratch::new();
    let (mut pairs, mut checksum) = (0u64, 0u64);
    // Warm-up pass sizes the scratch and faults the directory in.
    probe_once(table, chunks, &mut scratch);
    let start = Instant::now();
    for _ in 0..repeats {
        pairs = 0;
        checksum = 0;
        for chunk in chunks {
            hash_keys_into(
                chunk,
                &[0],
                JOIN_SEED,
                &mut scratch.join_tmp,
                &mut scratch.join_hash,
            );
            table.lookup_heads(
                &scratch.join_hash,
                &mut scratch.join_heads,
                &mut scratch.join_pending,
            );
            scratch.pair_probe.clear();
            scratch.pair_build.clear();
            table.expand_pairs(
                &scratch.join_heads,
                &mut scratch.pair_probe,
                &mut scratch.pair_build,
            );
            bfq_exec::join::verify_pairs(
                chunk,
                &[0],
                &table.chunk,
                &table.key_slots,
                &mut scratch.pair_probe,
                &mut scratch.pair_build,
            );
            pairs += scratch.pair_probe.len() as u64;
            for (&p, &b) in scratch.pair_probe.iter().zip(&scratch.pair_build) {
                checksum = fold_pair(checksum, p, b);
            }
        }
    }
    let ms = start.elapsed().as_secs_f64() * 1e3 / repeats as f64;
    (pairs, checksum, ms)
}

fn probe_once(table: &BuildTable, chunks: &[Chunk], scratch: &mut MorselScratch) {
    for chunk in chunks {
        hash_keys_into(
            chunk,
            &[0],
            JOIN_SEED,
            &mut scratch.join_tmp,
            &mut scratch.join_hash,
        );
        table.lookup_heads(
            &scratch.join_hash,
            &mut scratch.join_heads,
            &mut scratch.join_pending,
        );
        scratch.pair_probe.clear();
        scratch.pair_build.clear();
        table.expand_pairs(
            &scratch.join_heads,
            &mut scratch.pair_probe,
            &mut scratch.pair_build,
        );
    }
}

/// One aggregation kernel input: typed columns cut into chunks, grouped
/// by `keys` (column indexes) into `groups` groups.
struct AggShape {
    label: &'static str,
    types: Vec<DataType>,
    chunks: Vec<Chunk>,
    keys: Vec<u32>,
    aggs: Vec<(AggFunc, Option<u32>)>,
    groups: usize,
}

fn col(i: u32) -> ColumnId {
    ColumnId::new(TableId(0), i)
}

/// `columns` (each a function of the row number) over [`AGG_ROWS`] rows,
/// cut into chunks.
fn agg_chunks(columns: &[&dyn Fn(std::ops::Range<usize>) -> Column]) -> Vec<Chunk> {
    (0..AGG_ROWS)
        .step_by(CHUNK_ROWS)
        .map(|start| {
            let rows = start..(start + CHUNK_ROWS).min(AGG_ROWS);
            Chunk::new(columns.iter().map(|c| Arc::new(c(rows.clone()))).collect()).unwrap()
        })
        .collect()
}

fn floats(rows: std::ops::Range<usize>, f: impl Fn(usize) -> f64) -> Column {
    Column::Float64(rows.map(f).collect(), None)
}

fn strs(rows: std::ops::Range<usize>, f: impl Fn(usize) -> &'static str) -> Column {
    Column::Utf8(rows.map(|i| f(i).to_string()).collect::<StrData>(), None)
}

/// Q1's aggregation: `l_returnflag`, `l_linestatus` (6 combinations);
/// sums of four float columns, averages of three, and `count(*)`.
fn q1_shape() -> AggShape {
    use AggFunc::{Avg, CountStar, Sum};
    AggShape {
        label: "q1",
        types: [[DataType::Utf8; 2].as_slice(), &[DataType::Float64; 4]].concat(),
        chunks: agg_chunks(&[
            &|r| strs(r, |i| ["A", "N", "R"][i % 3]),
            &|r| strs(r, |i| ["F", "O"][i / 3 % 2]),
            &|r| floats(r, |i| (i % 50 + 1) as f64),
            &|r| floats(r, |i| (i % 1000) as f64 * 1.01),
            &|r| floats(r, |i| (i % 11) as f64 * 0.01),
            &|r| floats(r, |i| (i % 9) as f64 * 0.01),
        ]),
        keys: vec![0, 1],
        aggs: vec![
            (Sum, Some(2)),
            (Sum, Some(3)),
            (Sum, Some(4)),
            (Sum, Some(5)),
            (Avg, Some(2)),
            (Avg, Some(3)),
            (Avg, Some(4)),
            (CountStar, None),
        ],
        groups: 6,
    }
}

/// Q18's inner aggregation: `sum(l_quantity)` by `l_orderkey`, 75 000
/// groups of 4 rows each, in the scrambled key order of a lineitem that is
/// clustered on ship date rather than order key.
fn q18_shape() -> AggShape {
    const GROUPS: usize = 75_000;
    AggShape {
        label: "q18",
        types: vec![DataType::Int64, DataType::Float64],
        chunks: agg_chunks(&[
            &|r| Column::Int64(r.map(|i| (i * 7919 % GROUPS) as i64).collect(), None),
            &|r| floats(r, |i| (i % 50 + 1) as f64),
        ]),
        keys: vec![0],
        aggs: vec![(AggFunc::Sum, Some(1))],
        groups: GROUPS,
    }
}

/// Aggregate `shape` once for its output, then [`AGG_PASSES`] more times
/// for the timing: ns per input row of each pass, sorted.
fn run_agg(shape: &AggShape) -> (Chunk, Vec<f64>) {
    let layout = Layout::new((0..shape.types.len() as u32).map(col).collect());
    let group_by: Vec<OutputColumn> = (shape.keys.iter())
        .map(|&k| OutputColumn {
            expr: Expr::col(col(k)),
            name: format!("k{k}"),
            id: ColumnId::new(TableId(1), k),
        })
        .collect();
    let aggs: Vec<AggExpr> = (shape.aggs.iter().zip(0u32..))
        .map(|(&(func, arg), i)| AggExpr {
            func,
            arg: arg.map(|a| Expr::col(col(a))),
            distinct: false,
            output: ColumnId::new(TableId(2), i),
        })
        .collect();
    let pass = || {
        let mut state = AggState::new(&layout, &shape.types, &group_by, &aggs).unwrap();
        state.reserve(shape.groups as f64, AGG_ROWS as f64);
        for chunk in &shape.chunks {
            state.update(chunk).unwrap();
        }
        state.finish(&None, &layout).unwrap()
    };
    let out = pass();
    let mut ns: Vec<f64> = (0..AGG_PASSES)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(pass());
            start.elapsed().as_nanos() as f64 / AGG_ROWS as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    (out, ns)
}

fn main() {
    let env = BenchEnv::load();
    let mut json = JsonReport::from_args("fig_join_probe_throughput");
    json.add("sf", env.sf);

    println!("# Join probe throughput — flat directory, batched probe kernels");
    println!(
        "\n{:<8} {:<6} {:>10} {:>12}",
        "build", "skew", "rows", "flat Mp/s"
    );

    for (label, build_rows) in [
        ("64kib", 1usize << 13),
        ("1mib", 1 << 17),
        ("16mib", 1 << 21),
    ] {
        for (skew, dup) in [("low", 1usize), ("high", 16)] {
            let n_keys = (build_rows / dup).max(1);
            let build_vals: Vec<i64> = (0..build_rows as i64).map(|i| i % n_keys as i64).collect();
            let total_probes = if dup == 1 { 1 << 21 } else { 1 << 19 };
            let chunks = probe_chunks(n_keys as i64, total_probes);
            let repeats = if build_rows >= 1 << 21 { 2 } else { 4 };

            let flat = BuildTable::build_with_ndv(int_chunk(build_vals), vec![0], Some(n_keys));
            let (pairs, checksum, ms) = run_flat(&flat, &chunks, repeats);
            // Half the probes are members; each matches `dup` build rows.
            assert_eq!(
                (pairs, checksum),
                expected_pairs(n_keys, dup, total_probes),
                "{label}/{skew}: pair sequence diverges from the workload's definition"
            );

            let tag = format!("{label}_{skew}");
            json.add(&format!("{tag}_flat_ms"), ms);
            // Deterministic for the fixed workload: gate exactly.
            json.add(&format!("{tag}_pairs_checksum"), pairs as f64);
            println!(
                "{:<8} {:<6} {:>10} {:>12.1}",
                label,
                skew,
                build_rows,
                total_probes as f64 / 1e3 / ms
            );
        }
    }

    println!("\n# Aggregation kernel — flat directory, typed group ids, column accumulators");
    println!("# compiled for {}", target_features());
    println!(
        "{:<6} {:>8} {:>8} {:>12} {:>12} {:>12}",
        "shape", "rows", "groups", "min ns/row", "median", "spread"
    );
    for shape in [q1_shape(), q18_shape()] {
        let (out, ns) = run_agg(&shape);
        assert_eq!(out.rows(), shape.groups, "{}: group count", shape.label);
        let (min, median, spread) = (ns[0], ns[ns.len() / 2], ns[ns.len() - 1] - ns[0]);
        let tag = format!("agg_{}", shape.label);
        // Deterministic for the fixed input: gate exactly.
        json.add(&format!("{tag}_groups_checksum"), out.rows() as f64);
        json.add(
            &format!("{tag}_result_checksum"),
            result_checksum(&out) as f64,
        );
        json.add(&format!("{tag}_row_min_ns"), min);
        json.add(&format!("{tag}_row_median_ns"), median);
        json.add(&format!("{tag}_row_spread_ns"), spread);
        println!(
            "{:<6} {:>8} {:>8} {:>12.1} {:>12.1} {:>12.1}",
            shape.label, AGG_ROWS, shape.groups, min, median, spread
        );
    }

    // End-to-end: the join-heaviest TPC-H queries.
    let catalog = env.load_db();
    println!("\n{:<6} {:>10} {:>12}", "query", "exec_ms", "checksum");
    for q in [5usize, 9, 18] {
        let m =
            measure_tpch(&catalog, &env, q, BloomMode::Cbo).unwrap_or_else(|e| panic!("Q{q}: {e}"));
        let checksum = result_checksum(&m.chunk);
        json.add(&format!("q{q}_blocked_ms"), m.exec_ms);
        json.add(&format!("q{q}_checksum"), checksum as f64);
        println!("Q{:<5} {:>10.2} {:>12}", q, m.exec_ms, checksum);
    }

    if let Some(path) = json.finish().expect("write json report") {
        eprintln!("\n# wrote {path}");
    }
}
