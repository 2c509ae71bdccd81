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

/// Build sides with at most this many distinct keys ship their exact key
/// hashes with the filter, so scans can probe per-chunk Bloom indexes and
/// skip whole chunks (`bfq-index`). Probing ≤ 1024 keys per chunk is far
/// cheaper than row-level work on an 8192-row chunk. Larger builds ship
/// none: their scans apply the filter row by row (§3.9).
pub const SMALL_KEY_LIMIT: usize = 1024;

/// The sorted, deduplicated [`BLOOM_SEED`] hashes of the non-null keys in
/// `partitions`, or `None` when the build holds more than
/// [`SMALL_KEY_LIMIT`] distinct keys.
fn key_hashes(partitions: &[Column]) -> Option<Vec<u64>> {
    let total_rows: usize = partitions.iter().map(|c| c.len()).sum();
    if total_rows > 4 * SMALL_KEY_LIMIT {
        return None;
    }
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
    (out.len() <= SMALL_KEY_LIMIT).then_some(out)
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

/// A filter as it exists at runtime: the Bloom filter plus, for a small
/// build side, the exact hashes of its keys.
///
/// The hashes enable *chunk-level* skipping at scans: a scan probes a
/// chunk's Bloom index with them (`bfq-index`) and skips the chunk when
/// none hits. That is sound: a row the skip would drop could never match
/// any actual build key, and a filter is only planned where dropping
/// non-matching rows is legal.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeFilter {
    filter: BloomFilter,
    key_hashes: Option<Vec<u64>>,
}

impl RuntimeFilter {
    /// A runtime filter without key hashes.
    pub fn new(filter: BloomFilter) -> Self {
        RuntimeFilter {
            filter,
            key_hashes: None,
        }
    }

    /// Build the runtime filter for a join from its build-side key columns,
    /// one per build partition (a broadcast build side passes one copy).
    ///
    /// `expected_ndv` is the planner's distinct estimate — the same number
    /// its cost model used to size the filter (paper §3.5). Key hashes are
    /// computed before the filter is allocated, so when a small build side
    /// ships its deduplicated key hashes the filter is sized for
    /// `max(expected_ndv, exact distinct keys)`: an estimate that came in
    /// low cannot overload it, and the FPR the planner modelled is the FPR
    /// that runs. The exact count (else the estimate) is recorded as the
    /// filter's NDV hint, so the FPR the filter reports follows the keys it
    /// holds rather than a duplicate-counting tally.
    ///
    /// Neither the filter nor its key hashes depend on how the keys are
    /// split across `partitions`.
    pub fn build(partitions: &[Column], expected_ndv: usize) -> RuntimeFilter {
        let key_hashes = key_hashes(partitions);
        let exact_ndv = key_hashes.as_ref().map(Vec::len);
        let size_ndv = expected_ndv.max(exact_ndv.unwrap_or(0)).max(1);
        let mut filter = BloomFilter::with_expected_ndv(size_ndv);
        for keys in partitions {
            filter.insert_column(keys);
        }
        filter.set_ndv_hint(exact_ndv.unwrap_or(expected_ndv).max(1) as u64);
        RuntimeFilter { filter, key_hashes }
    }

    /// Exact [`BLOOM_SEED`] hashes of the distinct build keys, sorted, when
    /// the build side was small enough to ship them (possibly empty: an
    /// empty build side passes nothing).
    pub fn key_hashes(&self) -> Option<&[u64]> {
        self.key_hashes.as_deref()
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
        hub.publish(FilterId(1), single_filter(&[1, 2, 3]));
        let f = hub.wait_get(FilterId(1), Duration::ZERO).unwrap();
        let col = Column::Int64(vec![2, 99], None);
        assert!(f.probe(&col, &[0, 1]).contains(&0));
        assert!(hub.wait_get(FilterId(2), Duration::ZERO).is_none());
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
    fn key_hashes_ship_only_for_small_builds() {
        // Sorted, deduplicated across partitions, NULL keys left out.
        let with_null = Column::Int64(
            vec![7, 0],
            Some(bfq_storage::Bitmap::from_bools([true, false])),
        );
        let f = RuntimeFilter::build(&[int_col(&[5, 10]), int_col(&[-3, 10]), with_null], 4);
        let mut want: Vec<u64> = [5, 10, -3, 7]
            .iter()
            .map(|&k| bfq_common::hash::hash_i64(k, BLOOM_SEED))
            .collect();
        want.sort_unstable();
        assert_eq!(f.key_hashes(), Some(&want[..]));
        // String keys ship hashes too.
        let keys: bfq_storage::StrData = ["FRANCE", "GERMANY", "FRANCE"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = RuntimeFilter::build(&[Column::Utf8(keys, None)], 2);
        assert_eq!(f.key_hashes().map(<[u64]>::len), Some(2));
        // An empty build ships an empty key set: it passes nothing.
        let f = RuntimeFilter::build(&[int_col(&[])], 1);
        assert_eq!(f.key_hashes(), Some(&[][..]));
        // Up to the limit the hashes ship; one distinct key more, or more
        // rows than the dedup pass reads, and they do not.
        let limit = SMALL_KEY_LIMIT as i64;
        let at_limit: Vec<i64> = (0..4 * limit).map(|k| k % limit).collect();
        let f = RuntimeFilter::build(&[int_col(&at_limit)], 1);
        assert_eq!(f.key_hashes().map(<[u64]>::len), Some(SMALL_KEY_LIMIT));
        let over: Vec<i64> = (0..=limit).collect();
        assert!(RuntimeFilter::build(&[int_col(&over)], 1)
            .key_hashes()
            .is_none());
        let long: Vec<i64> = (0..=4 * limit).map(|k| k % 3).collect();
        assert!(RuntimeFilter::build(&[int_col(&long)], 1)
            .key_hashes()
            .is_none());
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
