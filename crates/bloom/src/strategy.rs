//! The SMP streaming strategies of paper §3.9.
//!
//! How a Bloom filter is built and applied depends on how the owning hash
//! join streams its inputs across threads. [`StreamingStrategy`] names the
//! cases; [`build_filter`] turns per-thread build-side key columns into the
//! [`RuntimeFilter`] the apply-side scan will use. The paper's case 4
//! (partition join, apply side partitioned the same way) runs as case 3:
//! the executor repartitions the join's inputs itself, so a scan never
//! sees rows already split the way the partial filters are.

use bfq_storage::Column;

use crate::filter::{BloomFilter, BLOOM_SEED};
use crate::hub::RuntimeFilter;
use crate::partitioned::PartitionedBloomFilter;
use crate::summary::KeySummary;

/// Build sides with at most this many distinct keys ship their exact key
/// hashes with the filter, so scans can probe per-chunk Bloom indexes and
/// skip whole chunks (`bfq-index`). Probing ≤ 1024 keys per chunk is far
/// cheaper than row-level work on an 8192-row chunk. Larger numeric builds
/// fall back to a merged per-partition [`KeySummary`] so chunk skipping
/// does not cliff to zero past this limit.
pub const SMALL_KEY_LIMIT: usize = 1024;

/// Build-key metadata that travels with a runtime filter: numeric-axis
/// min/max of the non-null keys, the sorted deduplicated hashes of every
/// key (small build sides), or the occupancy summary (large numeric build
/// sides).
type KeyInfo = (Option<(f64, f64)>, Option<Vec<u64>>, Option<KeySummary>);

/// Compute the [`KeyInfo`] for the key columns a filter was built from.
fn key_info(thread_keys: &[Column]) -> KeyInfo {
    let mut bounds: Option<(f64, f64)> = None;
    for col in thread_keys {
        if let Some((lo, hi)) = col.min_max_axis() {
            bounds = Some(match bounds {
                None => (lo, hi),
                Some((a, b)) => (a.min(lo), b.max(hi)),
            });
        }
    }
    let total_rows: usize = thread_keys.iter().map(|c| c.len()).sum();
    let hashes = (total_rows <= 4 * SMALL_KEY_LIMIT).then(|| {
        let mut out = Vec::new();
        let mut hashes = Vec::new();
        for col in thread_keys {
            col.hash_into(BLOOM_SEED, &mut hashes);
            for (i, &h) in hashes.iter().enumerate() {
                if !col.is_null(i) {
                    out.push(h);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    });
    let hashes = hashes.filter(|h| h.len() <= SMALL_KEY_LIMIT);
    // The summary is the large-build fallback: only built when exact hashes
    // were dropped (small builds already carry strictly stronger evidence).
    let summary = if hashes.is_none() && bounds.is_some() {
        KeySummary::from_partitions(thread_keys)
    } else {
        None
    };
    (bounds, hashes, summary)
}

/// How the hash join that owns a Bloom filter streams its inputs (paper §3.9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamingStrategy {
    /// Build side broadcast to every thread: the `n` hash tables are
    /// redundant, so build **one** filter from one copy (§3.9 case 1).
    BroadcastBuild,
    /// Probe side broadcast: the build side's `n` threads hold disjoint key
    /// subsets, so build `n` partials and **merge** them by bit-vector union
    /// (§3.9 case 2).
    BroadcastProbe,
    /// Partition join where the apply-side relation is *not* partitioned the
    /// same way: build `n` partials, probe by **distributed lookup** on the
    /// partitioning column (§3.9 case 3).
    PartitionUnaligned,
}

impl StreamingStrategy {
    /// Human-readable label used in EXPLAIN output.
    pub fn label(self) -> &'static str {
        match self {
            StreamingStrategy::BroadcastBuild => "broadcast-build",
            StreamingStrategy::BroadcastProbe => "broadcast-probe",
            StreamingStrategy::PartitionUnaligned => "partition-unaligned",
        }
    }
}

/// Build the runtime filter for a join given per-thread build-side key
/// columns (`thread_keys[i]` = the join-key column seen by build thread `i`).
///
/// `expected_ndv` is the planner's distinct estimate — the same number its
/// cost model used to size the filter (paper §3.5). Key metadata is computed
/// before the filter is allocated, so when a small build side ships its
/// deduplicated key hashes the filter is sized for `max(expected_ndv, exact
/// distinct keys)`: an estimate that came in low cannot overload it, and
/// the FPR the planner modelled is the FPR that runs. The exact count (else
/// the estimate) is recorded as the filter's NDV hint, so the FPR the
/// filter reports follows the keys it holds rather than a duplicate-counting
/// tally.
pub fn build_filter(
    strategy: StreamingStrategy,
    thread_keys: &[Column],
    expected_ndv: usize,
) -> RuntimeFilter {
    assert!(!thread_keys.is_empty(), "no build-side threads");
    // A broadcast build's threads hold identical copies; thread 0's is it.
    let keys = match strategy {
        StreamingStrategy::BroadcastBuild => &thread_keys[..1],
        _ => thread_keys,
    };
    let (bounds, hashes, summary) = key_info(keys);
    let exact_ndv = hashes.as_ref().map(Vec::len);
    let size_ndv = expected_ndv.max(exact_ndv.unwrap_or(0)).max(1);
    let ndv_hint = exact_ndv.unwrap_or(expected_ndv).max(1) as u64;
    let filter = match strategy {
        StreamingStrategy::BroadcastBuild => {
            let mut f = BloomFilter::with_expected_ndv(size_ndv);
            f.insert_column(&keys[0]);
            f.set_ndv_hint(ndv_hint);
            RuntimeFilter::single(f)
        }
        StreamingStrategy::BroadcastProbe => {
            // Disjoint per-thread subsets: build same-sized partials, merge.
            let bits = crate::math::bits_for_ndv(size_ndv, crate::math::DEFAULT_BITS_PER_KEY);
            let mut merged = BloomFilter::with_bits(bits);
            for keys in thread_keys {
                let mut partial = BloomFilter::with_bits(bits);
                partial.insert_column(keys);
                merged.union_with(&partial);
            }
            merged.set_ndv_hint(ndv_hint);
            RuntimeFilter::single(merged)
        }
        StreamingStrategy::PartitionUnaligned => {
            let n = thread_keys.len();
            let mut pf = PartitionedBloomFilter::new(n, size_ndv);
            for keys in thread_keys {
                // Keys within a partition join partition still route by key
                // hash so partial `i` holds exactly partition `i`'s keys.
                pf.insert_column_routed(keys);
            }
            // Each partial holds an even share of the distinct keys.
            let per_part = ndv_hint.div_ceil(n as u64).max(1);
            for p in 0..n {
                pf.part_mut(p).set_ndv_hint(per_part);
            }
            RuntimeFilter::partitioned(pf)
        }
    };
    filter.with_key_info(bounds, hashes, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col(vals: &[i64]) -> Column {
        Column::Int64(vals.to_vec(), None)
    }

    fn survivors(f: &RuntimeFilter, probe: &Column) -> Vec<u32> {
        let all: Vec<u32> = (0..probe.len() as u32).collect();
        f.probe(probe, &all)
    }

    #[test]
    fn broadcast_build_uses_single_copy() {
        let keys = int_col(&[1, 2, 3]);
        // Three redundant copies (what a broadcast build side looks like).
        let f = build_filter(
            StreamingStrategy::BroadcastBuild,
            &[keys.clone(), keys.clone(), keys.clone()],
            3,
        );
        match f.core() {
            crate::hub::FilterCore::Single(bf) => assert_eq!(bf.inserted_keys(), 3),
            _ => panic!("expected single filter"),
        }
        let s = survivors(&f, &int_col(&[2, 999]));
        assert!(s.contains(&0));
        // Key metadata: bounds span the inserted copy, hashes are deduped.
        assert_eq!(f.key_bounds(), Some((1.0, 3.0)));
        assert_eq!(f.key_hashes().map(|h| h.len()), Some(3));
    }

    #[test]
    fn key_info_bounds_and_small_hashes() {
        let f = build_filter(
            StreamingStrategy::BroadcastProbe,
            &[int_col(&[5, 10]), int_col(&[-3, 10])],
            4,
        );
        assert_eq!(f.key_bounds(), Some((-3.0, 10.0)));
        // 3 distinct keys after dedup across threads.
        assert_eq!(f.key_hashes().map(|h| h.len()), Some(3));
    }

    #[test]
    fn key_hashes_dropped_for_large_build_sides() {
        let big: Vec<i64> = (0..(4 * SMALL_KEY_LIMIT as i64) + 1).collect();
        let f = build_filter(
            StreamingStrategy::BroadcastProbe,
            &[int_col(&big)],
            big.len(),
        );
        assert!(f.key_hashes().is_none());
        assert_eq!(f.key_bounds(), Some((0.0, big[big.len() - 1] as f64)));
        // The large build carries the summary fallback instead.
        let summary = f.key_summary().expect("summary for large build");
        assert!(summary.overlaps_range(10.0, 20.0));
    }

    #[test]
    fn small_builds_skip_the_summary_large_clustered_builds_use_it() {
        let small = build_filter(StreamingStrategy::BroadcastBuild, &[int_col(&[1, 2])], 2);
        assert!(
            small.key_summary().is_none(),
            "hashes are stronger evidence"
        );
        // Two key clusters far apart: summary proves the gap empty even
        // though the global bounds cover it.
        let mut keys: Vec<i64> = (0..3000).collect();
        keys.extend(1_000_000..1_003_000);
        let cols: Vec<Column> = keys.chunks(1500).map(int_col).collect();
        let f = build_filter(StreamingStrategy::PartitionUnaligned, &cols, keys.len());
        assert!(f.key_hashes().is_none());
        let summary = f.key_summary().expect("summary for large build");
        assert!(summary.overlaps_range(100.0, 200.0));
        assert!(!summary.overlaps_range(200_000.0, 800_000.0));
    }

    #[test]
    fn string_keys_have_no_bounds_but_ship_hashes() {
        let keys: bfq_storage::StrData = ["FRANCE", "GERMANY"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = build_filter(
            StreamingStrategy::BroadcastBuild,
            &[Column::Utf8(keys, None)],
            2,
        );
        assert!(f.key_bounds().is_none());
        assert_eq!(f.key_hashes().map(|h| h.len()), Some(2));
    }

    #[test]
    fn partitioned_strategy_ships_small_key_hashes() {
        let part = build_filter(
            StreamingStrategy::PartitionUnaligned,
            &[int_col(&[1, 2]), int_col(&[3, 4])],
            4,
        );
        assert_eq!(part.key_hashes().map(|h| h.len()), Some(4));
    }

    #[test]
    fn broadcast_probe_merges_disjoint_partials() {
        let f = build_filter(
            StreamingStrategy::BroadcastProbe,
            &[int_col(&[1, 2]), int_col(&[100, 200]), int_col(&[5000])],
            5,
        );
        let s = survivors(&f, &int_col(&[1, 200, 5000, 777_777]));
        assert!(s.contains(&0) && s.contains(&1) && s.contains(&2));
    }

    #[test]
    fn partitioned_strategy_probes_correctly() {
        let keys: Vec<i64> = (0..2000).collect();
        // Split keys across 4 "threads" arbitrarily.
        let cols: Vec<Column> = keys.chunks(500).map(int_col).collect();
        let f = build_filter(StreamingStrategy::PartitionUnaligned, &cols, keys.len());
        let s = survivors(&f, &int_col(&keys));
        assert_eq!(s.len(), keys.len(), "lost rows");
        let miss: Vec<i64> = (1_000_000..1_000_500).collect();
        let misses = survivors(&f, &int_col(&miss));
        assert!(misses.len() < 100, "too many false positives");
    }

    #[test]
    fn low_estimate_small_build_is_sized_for_its_exact_keys() {
        // The planner expected 1 key; the build holds 311 (with duplicates).
        let keys: Vec<i64> = (0..311).map(|k| k * 7).collect();
        let mut doubled = keys.clone();
        doubled.extend(&keys);
        let cols: Vec<Column> = doubled.chunks(200).map(int_col).collect();
        let absent: Vec<i64> = (0..100_000).map(|k| 10_000_000 + k).collect();
        let absent = int_col(&absent);
        let bound = 2.0 * crate::math::default_fpr(311.0);
        for strategy in [
            StreamingStrategy::BroadcastBuild,
            StreamingStrategy::BroadcastProbe,
            StreamingStrategy::PartitionUnaligned,
        ] {
            let threads = match strategy {
                StreamingStrategy::BroadcastBuild => vec![int_col(&keys); 3],
                _ => cols.clone(),
            };
            let f = build_filter(strategy, &threads, 1);
            assert_eq!(survivors(&f, &int_col(&keys)).len(), keys.len());
            let fpr = survivors(&f, &absent).len() as f64 / absent.len() as f64;
            assert!(fpr <= bound, "{strategy:?}: fpr {fpr} > {bound}");
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(StreamingStrategy::BroadcastBuild.label(), "broadcast-build");
        assert_eq!(
            StreamingStrategy::PartitionUnaligned.label(),
            "partition-unaligned"
        );
    }
}
