//! The flat open-addressing join table against a nested-loop enumeration.
//!
//! The flat `BuildTable` (power-of-two directory + contiguous chain arena,
//! batched branch-free probing) has one contract: for any build-side
//! duplicate distribution — including all-duplicate and empty builds, null
//! keys on either side, and lying NDV hints — the batched probe emits
//! exactly the matching `(probe row, build row)` pairs a naive O(n·m)
//! nested loop finds, in ascending probe row, then ascending build row.
//! Verified here three ways:
//!
//! 1. **Property test** over arbitrary build/probe multisets, null masks
//!    and NDV hints: `probe_partition` == the nested loop for every join
//!    kind, datum for datum and in order.
//! 2. **Edge cases** the generator can't hit deterministically: empty
//!    build, all-null build, every-row-identical build.
//! 3. **TPC-H spot check**: the join-heaviest queries through the whole
//!    engine return the reference interpreter's result at dop 1 and 4,
//!    which lay the build tables out in different partitions. (The
//!    exhaustive TPC-H × index-mode × dop matrix lives in
//!    `pipeline_equivalence.rs`.)

mod common;

use std::sync::Arc;

use bfq::common::{ColumnId, DataType, Datum, TableId};
use bfq::exec::join::{probe_partition, BuildTable};
use bfq::exec::util::MorselScratch;
use bfq::expr::Layout;
use bfq::plan::JoinKind;
use bfq::prelude::*;
use bfq::storage::{Bitmap, Column};
use bfq::tpch;
use common::tpch_expected;
use proptest::prelude::*;

fn int_chunk(vals: &[i64], nulls: &[bool]) -> Chunk {
    let validity = if nulls.iter().any(|&n| n) {
        Some(Bitmap::from_bools(
            nulls.iter().map(|&n| !n).collect::<Vec<_>>(),
        ))
    } else {
        None
    };
    Chunk::new(vec![Arc::new(Column::Int64(vals.to_vec(), validity))]).unwrap()
}

fn layout_of_join() -> Layout {
    Layout::new(vec![
        ColumnId::new(TableId(0), 0),
        ColumnId::new(TableId(1), 0),
    ])
}

fn exact_rows(chunks: &[Chunk]) -> Vec<Vec<Datum>> {
    chunks
        .iter()
        .flat_map(|c| (0..c.rows()).map(|i| c.row(i)))
        .collect()
}

/// What joining one probe chunk to `build` returns, found the slow way:
/// every probe row (ascending) against every build row (ascending); a pair
/// matches when all its key values are non-NULL and equal. Returns the
/// matching pair count and the output rows — pairs in that order; for a
/// left-outer join the unmatched probe rows follow, null-extended; semi
/// and anti joins keep probe rows in probe order.
fn nested_loop_join(
    build: &Chunk,
    build_keys: &[usize],
    probe: &Chunk,
    probe_keys: &[usize],
    kind: JoinKind,
) -> (usize, Vec<Vec<Datum>>) {
    let (mut pairs, mut out, mut unmatched) = (0, Vec::new(), Vec::new());
    for p in 0..probe.rows() {
        let probe_row = probe.row(p);
        let mut matched = false;
        for b in 0..build.rows() {
            let build_row = build.row(b);
            let equal = probe_keys
                .iter()
                .zip(build_keys)
                .all(|(&pk, &bk)| !probe_row[pk].is_null() && probe_row[pk] == build_row[bk]);
            if equal {
                pairs += 1;
                matched = true;
                if matches!(kind, JoinKind::Inner | JoinKind::LeftOuter) {
                    out.push([probe_row.clone(), build_row].concat());
                }
            }
        }
        match kind {
            JoinKind::Semi if matched => out.push(probe_row),
            JoinKind::Anti if !matched => out.push(probe_row),
            JoinKind::LeftOuter if !matched => {
                let nulls = vec![Datum::Null; build.width()];
                unmatched.push([probe_row, nulls].concat());
            }
            _ => {}
        }
    }
    out.extend(unmatched);
    (pairs, out)
}

/// Probe one outer chunk against a flat table over `build_vals`; for every
/// join kind the output must be the nested loop's.
fn assert_probe_equivalence(
    build_vals: &[i64],
    build_nulls: &[bool],
    probe_vals: &[i64],
    probe_nulls: &[bool],
    ndv_hint: Option<usize>,
) {
    let build_chunk = int_chunk(build_vals, build_nulls);
    let probe_chunks = [int_chunk(probe_vals, probe_nulls)];
    let flat = BuildTable::build_with_ndv(build_chunk.clone(), vec![0], ndv_hint);
    let indexed = build_nulls.iter().filter(|&&null| !null).count();
    assert_eq!(flat.len(), indexed, "every non-NULL build key is indexed");
    for kind in [
        JoinKind::Inner,
        JoinKind::LeftOuter,
        JoinKind::Semi,
        JoinKind::Anti,
    ] {
        let mut scratch = MorselScratch::new();
        let got = probe_partition(
            &probe_chunks,
            &flat,
            &[0],
            kind,
            &None,
            &layout_of_join(),
            &[DataType::Int64],
            &mut scratch,
        )
        .unwrap();
        let (pairs, want) = nested_loop_join(&build_chunk, &[0], &probe_chunks[0], &[0], kind);
        assert_eq!(
            exact_rows(&got),
            want,
            "{kind:?}: flat probe differs from the nested loop"
        );
        // Verification keeps exactly the true pairs; the candidate count
        // may only exceed them (directory hash collisions).
        assert_eq!(scratch.join_verified as usize, pairs, "{kind:?}: pairs");
        assert!(
            scratch.join_candidates >= scratch.join_verified,
            "{kind:?}: candidates below verified"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any duplicate distribution: keys drawn from a small domain so
    /// chains get long, with ~10% null masks on both sides and an
    /// arbitrary (often wrong) NDV hint (0 = no hint).
    #[test]
    fn flat_probe_equals_nested_loop(
        build in proptest::collection::vec((0i64..32, 0u8..10), 0..300),
        probe in proptest::collection::vec((-4i64..36, 0u8..10), 0..200),
        hint in 0usize..64,
    ) {
        let (build_vals, build_nulls): (Vec<i64>, Vec<bool>) =
            build.into_iter().map(|(v, n)| (v, n == 0)).unzip();
        let (probe_vals, probe_nulls): (Vec<i64>, Vec<bool>) =
            probe.into_iter().map(|(v, n)| (v, n == 0)).unzip();
        let hint = if hint == 0 { None } else { Some(hint) };
        assert_probe_equivalence(&build_vals, &build_nulls, &probe_vals, &probe_nulls, hint);
    }

    /// High-cardinality distribution: mostly-unique keys exercise the
    /// branch-free first-probe path and directory growth.
    #[test]
    fn flat_probe_equals_nested_loop_unique_keys(
        build in proptest::collection::vec(0i64..1_000_000, 0..400),
        probe in proptest::collection::vec(0i64..1_000_000, 0..200),
    ) {
        let bn = vec![false; build.len()];
        let pn = vec![false; probe.len()];
        assert_probe_equivalence(&build, &bn, &probe, &pn, None);
    }
}

#[test]
fn edge_cases_empty_all_null_all_duplicate() {
    // Empty build side.
    assert_probe_equivalence(&[], &[], &[1, 2, 3], &[false; 3], None);
    assert_probe_equivalence(&[], &[], &[], &[], Some(7));
    // All build keys null: table indexes nothing, everything misses.
    assert_probe_equivalence(&[1, 2, 3], &[true; 3], &[1, 2, 3], &[false; 3], None);
    // All-duplicate build: one directory slot, one maximal chain.
    let dup = vec![42i64; 500];
    assert_probe_equivalence(&dup, &vec![false; 500], &[42, 41, 42], &[false; 3], Some(1));
    // All probe keys null: no output pairs for inner/semi, full anti.
    assert_probe_equivalence(&[1, 2, 3], &[false; 3], &[1, 2], &[true; 2], None);
}

#[test]
fn multi_key_probe_equivalence() {
    // Two key columns with correlated duplicates; the second column
    // disambiguates hash-equal candidates via the verification kernel.
    let k1: Vec<i64> = (0..200).map(|i| i % 5).collect();
    let k2: Vec<i64> = (0..200).map(|i| i % 7).collect();
    let build_chunk = Chunk::new(vec![
        Arc::new(Column::Int64(k1.clone(), None)),
        Arc::new(Column::Int64(k2.clone(), None)),
    ])
    .unwrap();
    let probe_chunks = [Chunk::new(vec![
        Arc::new(Column::Int64((0..40).map(|i| i % 6).collect(), None)),
        Arc::new(Column::Int64((0..40).map(|i| i % 8).collect(), None)),
    ])
    .unwrap()];
    let layout = Layout::new(vec![
        ColumnId::new(TableId(0), 0),
        ColumnId::new(TableId(0), 1),
        ColumnId::new(TableId(1), 0),
        ColumnId::new(TableId(1), 1),
    ]);
    let flat = BuildTable::build(build_chunk.clone(), vec![0, 1]);
    let types = [DataType::Int64, DataType::Int64];
    let mut s1 = MorselScratch::new();
    let got = probe_partition(
        &probe_chunks,
        &flat,
        &[0, 1],
        JoinKind::Inner,
        &None,
        &layout,
        &types,
        &mut s1,
    )
    .unwrap();
    let (pairs, want) = nested_loop_join(
        &build_chunk,
        &[0, 1],
        &probe_chunks[0],
        &[0, 1],
        JoinKind::Inner,
    );
    assert_eq!(exact_rows(&got), want);
    assert_eq!(s1.join_verified as usize, pairs);
    assert!(pairs > 0, "degenerate test: no matches");
}

#[test]
fn scratch_reuse_stays_allocation_free() {
    // Second probe of same-shaped chunks through a warmed scratch must not
    // grow any buffer.
    let build = BuildTable::build(int_chunk(&(0..2048).collect::<Vec<_>>(), &[]), vec![0]);
    let probe_chunks = [int_chunk(
        &(0..4096).map(|i| i % 3000).collect::<Vec<_>>(),
        &[],
    )];
    let mut scratch = MorselScratch::new();
    let run = |scratch: &mut MorselScratch| {
        probe_partition(
            &probe_chunks,
            &build,
            &[0],
            JoinKind::Inner,
            &None,
            &layout_of_join(),
            &[DataType::Int64],
            scratch,
        )
        .unwrap();
    };
    run(&mut scratch);
    let grows_after_warmup = scratch.take_grows();
    assert!(grows_after_warmup > 0, "first probe must size the buffers");
    run(&mut scratch);
    assert_eq!(scratch.take_grows(), 0, "warm probe reallocated");
}

#[test]
fn tpch_join_results_match_the_reference_across_layouts_and_dop() {
    const SF: f64 = 0.005;
    const SEED: u64 = 20260731;
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    let catalog = Arc::new(db.catalog);
    // Q5/Q9/Q18 are the join-heaviest supported queries; dop 1 vs 4 also
    // shifts partition counts and therefore directory sizes per table.
    for q in [5usize, 9, 18] {
        let sql = tpch::query_text(q, SF);
        let want = tpch_expected(&catalog, q, SF).expect("not a pinned divergence");
        for dop in [1usize, 4] {
            let engine = Engine::over_catalog(
                catalog.clone(),
                EngineConfig::default()
                    .with_bloom_mode(BloomMode::Cbo)
                    .with_dop(dop),
            );
            let out = engine
                .connect()
                .run_sql(&sql)
                .unwrap_or_else(|e| panic!("Q{q} [dop={dop}]: {e}"));
            want.assert_matches(&out.chunk, &format!("Q{q} [dop={dop}]"));
        }
    }
}
