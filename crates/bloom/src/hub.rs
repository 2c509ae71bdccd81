//! The runtime rendezvous between filter producers (hash joins) and
//! consumers (table scans).
//!
//! The paper's runtime makes "table scans wait for all Bloom filter
//! partitions to become available before scanning can proceed, regardless of
//! streaming strategy" (§3.9, and the Q18 discussion in §4.3). [`FilterHub`]
//! implements exactly that contract: producers [`FilterHub::publish`] under a
//! [`FilterId`]; consumers [`FilterHub::wait_get`] and block until the filter
//! exists.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bfq_common::FilterId;
use bfq_storage::Column;
use parking_lot::{Condvar, Mutex};

use crate::filter::{BloomFilter, BLOOM_SEED};
use crate::partitioned::PartitionedBloomFilter;

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

/// The filter proper: merged single or per-partition.
#[derive(Debug, Clone)]
pub enum FilterCore {
    /// One filter applied to every row.
    Single(BloomFilter),
    /// Per-partition partials probed by distributed lookup.
    Partitioned(PartitionedBloomFilter),
}

/// A filter as it exists at runtime: the bit array(s) plus optional
/// build-key metadata that enables *chunk-level* skipping at scans.
///
/// When the build keys are numeric their min/max travel with the filter, so
/// a scan can compare them against a chunk's zone map; when the build side
/// is small the exact key hashes travel too, so a scan can probe
/// a chunk's Bloom index with them (`bfq-index`). Large numeric builds
/// instead carry a [`crate::KeySummary`] — the merged per-partition occupancy
/// bitmap — so chunk skipping survives past the exact-hash limit. All are
/// sound: a row the skip would drop could never match any actual build key,
/// and a filter is only planned where dropping non-matching rows is legal.
#[derive(Debug, Clone)]
pub struct RuntimeFilter {
    core: FilterCore,
    key_bounds: Option<(f64, f64)>,
    key_hashes: Option<Vec<u64>>,
    key_summary: Option<crate::summary::KeySummary>,
}

impl RuntimeFilter {
    /// A single-filter runtime filter without key metadata.
    pub fn single(f: BloomFilter) -> Self {
        RuntimeFilter {
            core: FilterCore::Single(f),
            key_bounds: None,
            key_hashes: None,
            key_summary: None,
        }
    }

    /// A partitioned runtime filter without key metadata.
    pub fn partitioned(pf: PartitionedBloomFilter) -> Self {
        RuntimeFilter {
            core: FilterCore::Partitioned(pf),
            key_bounds: None,
            key_hashes: None,
            key_summary: None,
        }
    }

    /// Attach build-key metadata (builder style).
    pub fn with_key_info(
        mut self,
        bounds: Option<(f64, f64)>,
        hashes: Option<Vec<u64>>,
        summary: Option<crate::summary::KeySummary>,
    ) -> Self {
        self.key_bounds = bounds;
        self.key_hashes = hashes;
        self.key_summary = summary;
        self
    }

    /// The underlying filter.
    pub fn core(&self) -> &FilterCore {
        &self.core
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
    pub fn key_summary(&self) -> Option<&crate::summary::KeySummary> {
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
        match &self.core {
            FilterCore::Single(f) => f.probe_hashes_into(&scratch.hashes, col.validity(), sel, out),
            FilterCore::Partitioned(pf) => {
                pf.probe_routed_hashes_into(&scratch.hashes, col.validity(), sel, out)
            }
        }
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
            if col.is_null(i) {
                return false;
            }
            let h = col.hash_one(i, BLOOM_SEED);
            match &self.core {
                FilterCore::Single(f) => f.contains_hash(h),
                FilterCore::Partitioned(pf) => {
                    let p = crate::partitioned::partition_of(h, pf.partitions());
                    pf.part(p).contains_hash(h)
                }
            }
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

    /// Total size in bytes (planning feedback / tests).
    pub fn size_bytes(&self) -> usize {
        match &self.core {
            FilterCore::Single(f) => f.size_bytes(),
            FilterCore::Partitioned(pf) => pf.size_bytes(),
        }
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
        RuntimeFilter::single(f)
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

    #[test]
    fn partitioned_filter_probes_by_routing() {
        let mut pf = PartitionedBloomFilter::new(2, 10);
        pf.insert_column_routed(&Column::Int64(vec![1, 2, 3, 4], None));
        let rf = RuntimeFilter::partitioned(pf);
        let col = Column::Int64(vec![1, 2, 3, 4], None);
        // Routed probe must find everything.
        assert_eq!(rf.probe(&col, &[0, 1, 2, 3]).len(), 4);
        assert!(rf.size_bytes() > 0);
    }
}
