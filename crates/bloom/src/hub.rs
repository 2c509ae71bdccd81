//! The runtime rendezvous between filter producers (hash joins) and
//! consumers (table scans).
//!
//! The paper's runtime makes "table scans wait for all Bloom filter
//! partitions to become available before scanning can proceed, regardless of
//! streaming strategy" (§3.9, and the Q18 discussion in §4.3). [`FilterHub`]
//! implements exactly that contract: producers [`FilterHub::publish`] under a
//! [`FilterId`]; consumers [`FilterHub::wait_get`] and block until the filter
//! exists.
//!
//! What a producer publishes is one [`RuntimeFilter`] per planned build.
//! §3.9 distinguishes how a join streams its build side across threads:
//! broadcast build (every thread holds a copy), broadcast probe and the two
//! partition joins (the threads hold disjoint key subsets). The executor
//! seals a build side before it builds any filter, so every partition's keys
//! are at hand at once, and every case builds the same thing
//! ([`RuntimeFilter::build`]): one [`BloomFilter`] sized for the whole
//! build, holding the keys of one copy (broadcast build) or of every
//! partition (the other cases). That is bit for bit the union of same-sized
//! per-partition partials — case 2's merge without the partials — and it
//! replaces case 3's per-partition lookup: a probe is one block test
//! whatever the join's distribution, and the filter is the one the
//! estimator priced (§3.5), however the degree of parallelism split the
//! build.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bfq_common::FilterId;
use bfq_storage::Column;
use parking_lot::{Condvar, Mutex};

use crate::filter::{BloomFilter, BLOOM_SEED};
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

/// Compute the [`KeyInfo`] for the key columns a filter is built from.
fn key_info(partitions: &[Column]) -> KeyInfo {
    let mut bounds: Option<(f64, f64)> = None;
    for col in partitions {
        if let Some((lo, hi)) = col.min_max_axis() {
            bounds = Some(match bounds {
                None => (lo, hi),
                Some((a, b)) => (a.min(lo), b.max(hi)),
            });
        }
    }
    let total_rows: usize = partitions.iter().map(|c| c.len()).sum();
    let hashes = (total_rows <= 4 * SMALL_KEY_LIMIT).then(|| {
        let mut out = Vec::new();
        let mut hashes = Vec::new();
        for col in partitions {
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
        KeySummary::from_partitions(partitions)
    } else {
        None
    };
    (bounds, hashes, summary)
}

/// Reusable buffers for batched filter probes: the key hash column plus a
/// pair of selection vectors the executor ping-pongs between
/// filters. One scratch lives per worker thread and is reused across every
/// morsel it processes, so steady-state probing allocates nothing — each
/// buffer grows to the largest chunk once and stays there.
///
/// [`ProbeScratch::grows`] counts capacity growths across all buffers; the
/// executor surfaces the total so tests can assert the steady state (the
/// count stops rising after warm-up no matter how many morsels follow).
#[derive(Debug, Default)]
pub struct ProbeScratch {
    hashes: Vec<u64>,
    /// Selection vector A (executor ping-pong; take with `std::mem::take`).
    pub sel_a: Vec<u32>,
    /// Selection vector B.
    pub sel_b: Vec<u32>,
    grows: u64,
}

impl ProbeScratch {
    /// Empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        ProbeScratch::default()
    }

    /// How many times any buffer had to grow its capacity.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Drain the growth counter (returns the count since the last drain) —
    /// for callers that report incrementally into shared statistics.
    pub fn take_grows(&mut self) -> u64 {
        std::mem::take(&mut self.grows)
    }

    /// Record an externally observed buffer growth (the executor's own
    /// selection buffers share this scratch's accounting).
    pub fn note_growth(&mut self) {
        self.grows += 1;
    }

    /// Hash `col` with [`BLOOM_SEED`] into the reusable buffer.
    fn hash_column(&mut self, col: &Column) {
        let cap = self.hashes.capacity();
        col.hash_into(BLOOM_SEED, &mut self.hashes);
        if self.hashes.capacity() > cap {
            self.grows += 1;
        }
    }
}

/// A filter as it exists at runtime: the Bloom filter plus optional
/// build-key metadata that enables *chunk-level* skipping at scans.
///
/// When the build keys are numeric their min/max travel with the filter, so
/// a scan can compare them against a chunk's zone map; when the build side
/// is small the exact key hashes travel too, so a scan can probe
/// a chunk's Bloom index with them (`bfq-index`). Large numeric builds
/// instead carry a [`KeySummary`] — the merged per-partition occupancy
/// bitmap — so chunk skipping survives past the exact-hash limit. All are
/// sound: a row the skip would drop could never match any actual build key,
/// and a filter is only planned where dropping non-matching rows is legal.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeFilter {
    filter: BloomFilter,
    key_bounds: Option<(f64, f64)>,
    key_hashes: Option<Vec<u64>>,
    key_summary: Option<KeySummary>,
}

impl RuntimeFilter {
    /// A runtime filter without key metadata.
    pub fn new(filter: BloomFilter) -> Self {
        RuntimeFilter {
            filter,
            key_bounds: None,
            key_hashes: None,
            key_summary: None,
        }
    }

    /// Build the runtime filter for a join from its build-side key columns,
    /// one per build partition (a broadcast build side passes one copy).
    ///
    /// `expected_ndv` is the planner's distinct estimate — the same number
    /// its cost model used to size the filter (paper §3.5). Key metadata is
    /// computed before the filter is allocated, so when a small build side
    /// ships its deduplicated key hashes the filter is sized for
    /// `max(expected_ndv, exact distinct keys)`: an estimate that came in
    /// low cannot overload it, and the FPR the planner modelled is the FPR
    /// that runs. The exact count (else the estimate) is recorded as the
    /// filter's NDV hint, so the FPR the filter reports follows the keys it
    /// holds rather than a duplicate-counting tally.
    ///
    /// Neither the filter nor its metadata depends on how the keys are
    /// split across `partitions`.
    pub fn build(partitions: &[Column], expected_ndv: usize) -> RuntimeFilter {
        let (key_bounds, key_hashes, key_summary) = key_info(partitions);
        let exact_ndv = key_hashes.as_ref().map(Vec::len);
        let size_ndv = expected_ndv.max(exact_ndv.unwrap_or(0)).max(1);
        let mut filter = BloomFilter::with_expected_ndv(size_ndv);
        for keys in partitions {
            filter.insert_column(keys);
        }
        filter.set_ndv_hint(exact_ndv.unwrap_or(expected_ndv).max(1) as u64);
        RuntimeFilter {
            filter,
            key_bounds,
            key_hashes,
            key_summary,
        }
    }

    /// Min/max of the non-null build keys on the numeric axis, if known.
    pub fn key_bounds(&self) -> Option<(f64, f64)> {
        self.key_bounds
    }

    /// Exact [`BLOOM_SEED`] hashes of the distinct build keys, sorted, when
    /// the build side was small enough to ship them (possibly empty: an
    /// empty build side passes nothing).
    pub fn key_hashes(&self) -> Option<&[u64]> {
        self.key_hashes.as_deref()
    }

    /// The build-key occupancy summary carried for large numeric builds
    /// (the zone-style fallback when exact key hashes were dropped).
    pub fn key_summary(&self) -> Option<&KeySummary> {
        self.key_summary.as_ref()
    }

    /// Batched probe: hash `col` once into `scratch`, test the rows
    /// selected by `sel` (all rows when `None`), and write survivors into
    /// the caller-owned `out` (cleared first). Null keys never survive.
    ///
    /// This is the executor's hot path: one columnar hash pass per chunk
    /// and zero allocations once the scratch and `out` reach steady-state capacity.
    /// When `sel` keeps only a sliver of the chunk (an upstream predicate
    /// already did the work), hashing the whole column would cost more
    /// than it saves — those probes take a scalar per-selected-row path
    /// instead.
    pub fn probe_into(
        &self,
        col: &Column,
        sel: Option<&[u32]>,
        scratch: &mut ProbeScratch,
        out: &mut Vec<u32>,
    ) {
        // Columnar hashing costs ~len; scalar hashing costs ~|sel| with
        // worse per-key constants. Cross over at 1/4 density.
        if let Some(sel) = sel {
            if sel.len() * 4 < col.len() {
                return self.probe_sparse(col, sel, scratch, out);
            }
        }
        scratch.hash_column(col);
        let cap = out.capacity();
        self.filter
            .probe_hashes_into(&scratch.hashes, col.validity(), sel, out);
        if out.capacity() > cap {
            scratch.grows += 1;
        }
    }

    /// Sparse-selection probe: hash only the selected rows, row at a time
    /// (still allocation-free — survivors go into the caller's `out`).
    fn probe_sparse(
        &self,
        col: &Column,
        sel: &[u32],
        scratch: &mut ProbeScratch,
        out: &mut Vec<u32>,
    ) {
        let cap = out.capacity();
        out.clear();
        out.extend(sel.iter().copied().filter(|&i| {
            let i = i as usize;
            !col.is_null(i) && self.filter.contains_hash(col.hash_one(i, BLOOM_SEED))
        }));
        if out.capacity() > cap {
            scratch.grows += 1;
        }
    }

    /// Probe `col` rows selected by `sel`; returns the surviving selection
    /// (allocating wrapper over [`RuntimeFilter::probe_into`]).
    pub fn probe(&self, col: &Column, sel: &[u32]) -> Vec<u32> {
        let mut scratch = ProbeScratch::new();
        let mut out = Vec::with_capacity(sel.len());
        self.probe_into(col, Some(sel), &mut scratch, &mut out);
        out
    }
}

/// Shared registry of built filters, keyed by the planner's [`FilterId`].
#[derive(Default)]
pub struct FilterHub {
    inner: Mutex<HashMap<FilterId, Arc<RuntimeFilter>>>,
    ready: Condvar,
}

impl FilterHub {
    /// An empty hub.
    pub fn new() -> Self {
        FilterHub::default()
    }

    /// Publish a built filter. Publishing the same id twice replaces the
    /// filter (used by retry paths in tests); waiting consumers wake either
    /// way.
    pub fn publish(&self, id: FilterId, filter: RuntimeFilter) {
        let mut map = self.inner.lock();
        map.insert(id, Arc::new(filter));
        self.ready.notify_all();
    }

    /// Non-blocking lookup.
    pub fn try_get(&self, id: FilterId) -> Option<Arc<RuntimeFilter>> {
        self.inner.lock().get(&id).cloned()
    }

    /// Block until the filter identified by `id` is published.
    ///
    /// `timeout` bounds the wait so a planning bug (a scan waiting on a
    /// filter nobody builds) surfaces as `None` instead of a hang.
    pub fn wait_get(&self, id: FilterId, timeout: Duration) -> Option<Arc<RuntimeFilter>> {
        let mut map = self.inner.lock();
        if let Some(f) = map.get(&id) {
            return Some(f.clone());
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let res = self.ready.wait_until(&mut map, deadline);
            if let Some(f) = map.get(&id) {
                return Some(f.clone());
            }
            if res.timed_out() {
                return None;
            }
        }
    }

    /// Number of published filters.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether no filters are published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn single_filter(keys: &[i64]) -> RuntimeFilter {
        let mut f = BloomFilter::with_expected_ndv(keys.len().max(1));
        for &k in keys {
            f.insert_i64(k);
        }
        RuntimeFilter::new(f)
    }

    #[test]
    fn publish_then_get() {
        let hub = FilterHub::new();
        assert!(hub.is_empty());
        hub.publish(FilterId(1), single_filter(&[1, 2, 3]));
        assert_eq!(hub.len(), 1);
        let f = hub.try_get(FilterId(1)).unwrap();
        let col = Column::Int64(vec![2, 99], None);
        assert!(f.probe(&col, &[0, 1]).contains(&0));
        assert!(hub.try_get(FilterId(2)).is_none());
    }

    #[test]
    fn wait_get_blocks_until_published() {
        let hub = Arc::new(FilterHub::new());
        let hub2 = hub.clone();
        let waiter = std::thread::spawn(move || {
            hub2.wait_get(FilterId(7), Duration::from_secs(5))
                .expect("filter should arrive")
        });
        std::thread::sleep(Duration::from_millis(20));
        hub.publish(FilterId(7), single_filter(&[42]));
        let f = waiter.join().unwrap();
        let col = Column::Int64(vec![42], None);
        assert_eq!(f.probe(&col, &[0]), vec![0]);
    }

    #[test]
    fn wait_get_times_out_for_missing_filter() {
        let hub = FilterHub::new();
        let got = hub.wait_get(FilterId(9), Duration::from_millis(30));
        assert!(got.is_none());
    }

    fn int_col(vals: &[i64]) -> Column {
        Column::Int64(vals.to_vec(), None)
    }

    fn survivors(f: &RuntimeFilter, probe: &Column) -> Vec<u32> {
        let all: Vec<u32> = (0..probe.len() as u32).collect();
        f.probe(probe, &all)
    }

    #[test]
    fn one_filter_holds_every_partition() {
        let f = RuntimeFilter::build(
            &[int_col(&[1, 2]), int_col(&[100, 200]), int_col(&[5000])],
            5,
        );
        assert_eq!(f.filter.inserted_keys(), 5);
        assert_eq!(f.filter.ndv_hint(), Some(5));
        let s = survivors(&f, &int_col(&[1, 200, 5000, 777_777]));
        assert!(s.contains(&0) && s.contains(&1) && s.contains(&2));
    }

    #[test]
    fn key_info_bounds_and_small_hashes() {
        let f = RuntimeFilter::build(&[int_col(&[5, 10]), int_col(&[-3, 10])], 4);
        assert_eq!(f.key_bounds(), Some((-3.0, 10.0)));
        // 3 distinct keys after dedup across partitions.
        assert_eq!(f.key_hashes().map(|h| h.len()), Some(3));
    }

    #[test]
    fn key_hashes_dropped_for_large_build_sides() {
        let big: Vec<i64> = (0..(4 * SMALL_KEY_LIMIT as i64) + 1).collect();
        let f = RuntimeFilter::build(&[int_col(&big)], big.len());
        assert!(f.key_hashes().is_none());
        assert_eq!(f.key_bounds(), Some((0.0, big[big.len() - 1] as f64)));
        // The large build carries the summary fallback instead.
        let summary = f.key_summary().expect("summary for large build");
        assert!(summary.overlaps_range(10.0, 20.0));
    }

    #[test]
    fn small_builds_skip_the_summary_large_clustered_builds_use_it() {
        let small = RuntimeFilter::build(&[int_col(&[1, 2])], 2);
        assert!(
            small.key_summary().is_none(),
            "hashes are stronger evidence"
        );
        // Two key clusters far apart: summary proves the gap empty even
        // though the global bounds cover it.
        let mut keys: Vec<i64> = (0..3000).collect();
        keys.extend(1_000_000..1_003_000);
        let cols: Vec<Column> = keys.chunks(1500).map(int_col).collect();
        let f = RuntimeFilter::build(&cols, keys.len());
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
        let f = RuntimeFilter::build(&[Column::Utf8(keys, None)], 2);
        assert!(f.key_bounds().is_none());
        assert_eq!(f.key_hashes().map(|h| h.len()), Some(2));
    }

    #[test]
    fn every_key_passes_and_misses_are_filtered() {
        let keys: Vec<i64> = (0..2000).collect();
        // Split keys across 4 partitions arbitrarily.
        let cols: Vec<Column> = keys.chunks(500).map(int_col).collect();
        let f = RuntimeFilter::build(&cols, keys.len());
        let s = survivors(&f, &int_col(&keys));
        assert_eq!(s.len(), keys.len(), "lost rows");
        let miss: Vec<i64> = (1_000_000..1_000_500).collect();
        let misses = survivors(&f, &int_col(&miss));
        assert!(misses.len() < 100, "too many false positives");
    }

    #[test]
    fn partitioning_does_not_change_the_filter() {
        let keys: Vec<i64> = (0..3000).map(|k| k * 13 % 2000).collect();
        for expected_ndv in [1, 2000] {
            let whole = RuntimeFilter::build(&[int_col(&keys)], expected_ndv);
            // 2000 distinct keys: too many to ship, so the filter is sized
            // and hinted from the estimate — the filter the estimator prices.
            assert_eq!(
                whole.filter.estimated_fpr(),
                crate::math::default_fpr(expected_ndv as f64)
            );
            for parts in [2, 3, 4, 7] {
                let cols: Vec<Column> = keys
                    .chunks(keys.len().div_ceil(parts))
                    .map(int_col)
                    .collect();
                assert_eq!(
                    RuntimeFilter::build(&cols, expected_ndv),
                    whole,
                    "{parts} partitions"
                );
            }
        }
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
        let f = RuntimeFilter::build(&cols, 1);
        assert_eq!(f.filter.ndv_hint(), Some(311));
        assert_eq!(survivors(&f, &int_col(&keys)).len(), keys.len());
        let fpr = survivors(&f, &absent).len() as f64 / absent.len() as f64;
        assert!(fpr <= bound, "fpr {fpr} > {bound}");
    }
}
