//! Data moving between operators, and execution statistics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bfq_common::{DataType, Result};
use bfq_storage::Chunk;
use parking_lot::Mutex;

/// Rows flowing between operators: `partitions.len()` worker streams, each a
/// list of chunks, plus the column types (needed to materialize typed NULL
/// columns and empty results).
#[derive(Debug, Clone)]
pub struct PartitionedData {
    /// Output column types, aligned with the owning plan node's layout.
    pub types: Vec<DataType>,
    /// One entry per worker.
    pub partitions: Vec<Vec<Chunk>>,
}

impl PartitionedData {
    /// Empty data with the given shape.
    pub fn empty(types: Vec<DataType>, partitions: usize) -> Self {
        PartitionedData {
            types,
            partitions: vec![Vec::new(); partitions],
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total rows across all partitions.
    pub fn total_rows(&self) -> usize {
        self.partitions
            .iter()
            .flat_map(|p| p.iter())
            .map(|c| c.rows())
            .sum()
    }

    /// Concatenate everything into one chunk (the query result path).
    pub fn into_single_chunk(self) -> Result<Chunk> {
        let all: Vec<Chunk> = self.partitions.into_iter().flatten().collect();
        if all.is_empty() {
            // Typed empty result.
            let cols = self
                .types
                .iter()
                .map(|dt| std::sync::Arc::new(bfq_storage::Column::nulls(*dt, 0)))
                .collect();
            return Chunk::new(cols);
        }
        Chunk::concat(&all)
    }

    /// Concatenate one partition's chunks into a single chunk, or a typed
    /// empty chunk when the partition is empty.
    pub fn partition_chunk(&self, p: usize) -> Result<Chunk> {
        if self.partitions[p].is_empty() {
            let cols = self
                .types
                .iter()
                .map(|dt| std::sync::Arc::new(bfq_storage::Column::nulls(*dt, 0)))
                .collect();
            return Chunk::new(cols);
        }
        Chunk::concat(&self.partitions[p])
    }
}

/// Chunk-skipping counters for one scan node (`bfq-index` data skipping).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanPruneStats {
    /// Chunks the scan considered.
    pub chunks: u64,
    /// Chunks skipped because a zone map proved the local predicate empty.
    pub skipped_zonemap: u64,
    /// Chunks skipped because a chunk Bloom probe proved it empty.
    pub skipped_bloom: u64,
    /// Chunks skipped by runtime-filter key-hash probes (small build sides
    /// that ship exact key hashes) or because the join key column is all
    /// NULL.
    pub skipped_rfilter: u64,
    /// Rows inside skipped chunks (never touched row-by-row).
    pub rows_pruned: u64,
}

impl ScanPruneStats {
    /// Total chunks skipped across all tiers.
    pub fn skipped(&self) -> u64 {
        self.skipped_zonemap + self.skipped_bloom + self.skipped_rfilter
    }

    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, other: &ScanPruneStats) {
        self.chunks += other.chunks;
        self.skipped_zonemap += other.skipped_zonemap;
        self.skipped_bloom += other.skipped_bloom;
        self.skipped_rfilter += other.skipped_rfilter;
        self.rows_pruned += other.rows_pruned;
    }
}

/// Saturating nanoseconds since `start` (monotonic clock).
pub(crate) fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runtime profile for one plan node: wall time and morsels processed.
///
/// For fused chain operators this is *self* time summed across workers (it
/// can exceed query wall clock at dop > 1); for pipeline breakers it is the
/// inclusive wall time of the breaker's stage, children included.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeProfile {
    /// Nanoseconds spent in this node.
    pub wall_ns: u64,
    /// Morsels this node processed (0 for breaker seal work).
    pub morsels: u64,
    /// Nanoseconds a hash join spent sealing its build side (indexing it
    /// and building its Bloom filters) before its probe pipeline ran. Not
    /// part of `wall_ns`: the seal runs inside the enclosing pipeline's
    /// set-up, under no node's clock. 0 for other nodes.
    pub build_ns: u64,
}

impl NodeProfile {
    /// Accumulate another profile into this one.
    pub fn merge(&mut self, other: &NodeProfile) {
        self.wall_ns += other.wall_ns;
        self.morsels += other.morsels;
        self.build_ns += other.build_ns;
    }
}

/// Observed rows in/out of one runtime Bloom filter's probe sites — the
/// runtime ground truth next to the estimator's predicted `bf_fpr`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FilterObservation {
    /// Rows offered to the filter's probes.
    pub rows_in: u64,
    /// Rows that passed.
    pub rows_out: u64,
}

impl FilterObservation {
    /// Accumulate another observation into this one.
    pub fn merge(&mut self, other: &FilterObservation) {
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
    }

    /// Observed pass rate, or `None` before any row was probed.
    pub fn pass_rate(&self) -> Option<f64> {
        if self.rows_in == 0 {
            None
        } else {
            Some(self.rows_out as f64 / self.rows_in as f64)
        }
    }
}

/// Per-worker profile accumulator (lives inside `MorselScratch`).
///
/// Workers record node timings and filter pass counts into these small
/// linear vectors — no locks, no hashing on the morsel hot path — and the
/// executor merges them into the shared [`ExecStats`] exactly once, at
/// pipeline seal (the same points that flush scratch-allocation counts).
#[derive(Debug, Default)]
pub struct ProfileScratch {
    nodes: Vec<(u32, NodeProfile)>,
    filters: Vec<(u32, FilterObservation)>,
}

impl ProfileScratch {
    /// Accumulate wall time and a morsel count for a node.
    pub fn note_node(&mut self, node_id: u32, wall_ns: u64, morsels: u64) {
        let add = NodeProfile {
            wall_ns,
            morsels,
            build_ns: 0,
        };
        match self.nodes.iter_mut().find(|(id, _)| *id == node_id) {
            Some((_, p)) => p.merge(&add),
            None => self.nodes.push((node_id, add)),
        }
    }

    /// Accumulate observed rows in/out for a runtime filter.
    pub fn note_filter(&mut self, filter: u32, rows_in: u64, rows_out: u64) {
        let add = FilterObservation { rows_in, rows_out };
        match self.filters.iter_mut().find(|(id, _)| *id == filter) {
            Some((_, f)) => f.merge(&add),
            None => self.filters.push((filter, add)),
        }
    }

    /// True when nothing has been recorded since the last merge.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.filters.is_empty()
    }
}

/// Actual row counts per plan-node id, recorded during execution, plus
/// per-scan chunk-skipping counters, per-node runtime profiles, observed
/// runtime-filter pass rates, and a buffered-rows high-water mark.
///
/// The scalar counters are relaxed atomics, so recording never serializes
/// workers; the per-node maps stay behind mutexes because they are touched
/// only at per-worker merge points (pipeline seal), never per morsel.
#[derive(Debug, Default)]
pub struct ExecStats {
    rows: Mutex<HashMap<u32, u64>>,
    prune: Mutex<HashMap<u32, ScanPruneStats>>,
    /// Per-node wall time and morsel counts (merged from worker scratch).
    profile: Mutex<HashMap<u32, NodeProfile>>,
    /// Observed per-filter probe pass counts, keyed by raw `FilterId`.
    filter_obs: Mutex<HashMap<u32, FilterObservation>>,
    /// Currently buffered rows across every inter-operator buffer of the
    /// query: the chunks resident in the pipeline's bounded reorder
    /// windows plus every breaker's sealed input, so what a plan
    /// materializes at once is observable.
    buffered_now: AtomicU64,
    /// Peak of `buffered_now` over the query's lifetime.
    buffered_peak: AtomicU64,
    /// Capacity growths of the reusable filter-probe scratch buffers
    /// (hashes + selection vectors) across all workers. Steady-state
    /// morsel execution performs zero filter-path allocations, so this
    /// stays bounded by `pipelines × workers × buffers` no matter how many
    /// morsels run — asserted by the allocation-discipline tests.
    scratch_allocs: AtomicU64,
    /// Times a morsel worker was held at the reorder window (produced
    /// output beyond the slowest sink partition's window).
    window_stalls: AtomicU64,
    /// Runtime Bloom filters built (one per executed `BloomBuild`).
    filter_builds: AtomicU64,
    /// Nanoseconds spent building runtime filters (attributed to the
    /// owning hash join's profile as well).
    filter_build_ns: AtomicU64,
    /// Candidate (probe, build) pairs emitted by the flat join table's
    /// directory lookup + chain expansion, before key verification.
    join_probe_candidates: AtomicU64,
    /// Candidate pairs surviving exact key verification. The gap to
    /// `join_probe_candidates` is pure hash-collision overhead in the
    /// join-table directory.
    join_probe_verified: AtomicU64,
}

impl ExecStats {
    /// Fresh, empty stats.
    pub fn new() -> Self {
        ExecStats::default()
    }

    /// Record (accumulate) actual output rows for a node.
    pub fn record(&self, node_id: u32, rows: u64) {
        *self.rows.lock().entry(node_id).or_insert(0) += rows;
    }

    /// Actual rows recorded for a node.
    pub fn actual(&self, node_id: u32) -> Option<u64> {
        self.rows.lock().get(&node_id).copied()
    }

    /// Snapshot of all recorded counts.
    pub fn snapshot(&self) -> HashMap<u32, u64> {
        self.rows.lock().clone()
    }

    /// Record (accumulate) chunk-skipping counters for a scan node.
    pub fn record_prune(&self, node_id: u32, stats: &ScanPruneStats) {
        self.prune.lock().entry(node_id).or_default().merge(stats);
    }

    /// Chunk-skipping counters recorded for a scan node.
    pub fn prune_of(&self, node_id: u32) -> Option<ScanPruneStats> {
        self.prune.lock().get(&node_id).copied()
    }

    /// Chunk-skipping counters summed over every scan in the plan.
    pub fn prune_totals(&self) -> ScanPruneStats {
        let mut total = ScanPruneStats::default();
        for s in self.prune.lock().values() {
            total.merge(s);
        }
        total
    }

    /// Note `rows` entering an inter-operator buffer, updating the peak.
    pub fn buffer_grow(&self, rows: u64) {
        let now = self.buffered_now.fetch_add(rows, Ordering::Relaxed) + rows;
        self.buffered_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Note `rows` leaving an inter-operator buffer.
    pub fn buffer_shrink(&self, rows: u64) {
        // Saturating decrement: concurrent shrinks must never wrap.
        let _ = self
            .buffered_now
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(rows))
            });
    }

    /// Highest number of rows simultaneously resident in inter-operator
    /// buffers during execution.
    pub fn peak_buffered_rows(&self) -> u64 {
        self.buffered_peak.load(Ordering::Relaxed)
    }

    /// Rows resident in inter-operator buffers right now — the live gauge
    /// per-query memory budgets are enforced against.
    pub fn buffered_rows_now(&self) -> u64 {
        self.buffered_now.load(Ordering::Relaxed)
    }

    /// Record `n` capacity growths of a worker's filter-probe scratch.
    pub fn note_scratch_allocs(&self, n: u64) {
        if n > 0 {
            self.scratch_allocs.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Total filter-probe scratch buffer growths across all workers.
    pub fn filter_scratch_allocs(&self) -> u64 {
        self.scratch_allocs.load(Ordering::Relaxed)
    }

    /// Record one reorder-window stall (a worker held behind the slowest
    /// sink partition).
    pub fn note_window_stall(&self) {
        self.window_stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Total reorder-window stalls across all workers and pipelines.
    pub fn window_stalls(&self) -> u64 {
        self.window_stalls.load(Ordering::Relaxed)
    }

    /// Merge a worker's profile scratch into the shared maps, draining it.
    ///
    /// Called once per worker at pipeline seal (and per pull on the
    /// streaming path) — never per morsel.
    pub fn merge_profile(&self, scratch: &mut ProfileScratch) {
        if scratch.is_empty() {
            return;
        }
        if !scratch.nodes.is_empty() {
            let mut profile = self.profile.lock();
            for (node_id, p) in scratch.nodes.drain(..) {
                profile.entry(node_id).or_default().merge(&p);
            }
        }
        if !scratch.filters.is_empty() {
            let mut obs = self.filter_obs.lock();
            for (filter, f) in scratch.filters.drain(..) {
                obs.entry(filter).or_default().merge(&f);
            }
        }
    }

    /// Record wall time / morsels for a node directly (breaker seal path).
    pub fn record_node_profile(&self, node_id: u32, wall_ns: u64, morsels: u64) {
        self.profile
            .lock()
            .entry(node_id)
            .or_default()
            .merge(&NodeProfile {
                wall_ns,
                morsels,
                build_ns: 0,
            });
    }

    /// Record a hash join's build-side seal time (see
    /// [`NodeProfile::build_ns`]).
    pub fn record_build_ns(&self, node_id: u32, build_ns: u64) {
        self.profile.lock().entry(node_id).or_default().build_ns += build_ns;
    }

    /// Runtime profile recorded for a node, if any.
    pub fn profile_of(&self, node_id: u32) -> Option<NodeProfile> {
        self.profile.lock().get(&node_id).copied()
    }

    /// Snapshot of all per-node runtime profiles.
    pub fn profiles(&self) -> HashMap<u32, NodeProfile> {
        self.profile.lock().clone()
    }

    /// Observed probe rows for a runtime filter (raw `FilterId`), if any.
    pub fn filter_observation(&self, filter: u32) -> Option<FilterObservation> {
        self.filter_obs.lock().get(&filter).copied()
    }

    /// Snapshot of all observed runtime-filter pass counts.
    pub fn filter_observations(&self) -> HashMap<u32, FilterObservation> {
        self.filter_obs.lock().clone()
    }

    /// Record one runtime-filter build taking `ns` nanoseconds.
    pub fn note_filter_build(&self, ns: u64) {
        self.filter_builds.fetch_add(1, Ordering::Relaxed);
        self.filter_build_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Runtime filters built during execution.
    pub fn filter_builds(&self) -> u64 {
        self.filter_builds.load(Ordering::Relaxed)
    }

    /// Nanoseconds spent building runtime filters.
    pub fn filter_build_ns(&self) -> u64 {
        self.filter_build_ns.load(Ordering::Relaxed)
    }

    /// Record a batch of join-probe counter deltas (candidate pairs seen,
    /// pairs surviving key verification). Called at scratch seal points.
    pub fn note_join_probe(&self, candidates: u64, verified: u64) {
        if candidates > 0 {
            self.join_probe_candidates
                .fetch_add(candidates, Ordering::Relaxed);
        }
        if verified > 0 {
            self.join_probe_verified
                .fetch_add(verified, Ordering::Relaxed);
        }
    }

    /// Total candidate (probe, build) pairs emitted by join-table lookups.
    pub fn join_probe_candidates(&self) -> u64 {
        self.join_probe_candidates.load(Ordering::Relaxed)
    }

    /// Total candidate pairs surviving exact key verification.
    pub fn join_probe_verified(&self) -> u64 {
        self.join_probe_verified.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_storage::Column;
    use std::sync::Arc;

    fn chunk(vals: &[i64]) -> Chunk {
        Chunk::new(vec![Arc::new(Column::Int64(vals.to_vec(), None))]).unwrap()
    }

    #[test]
    fn totals_and_concat() {
        let pd = PartitionedData {
            types: vec![DataType::Int64],
            partitions: vec![vec![chunk(&[1, 2])], vec![chunk(&[3])], vec![]],
        };
        assert_eq!(pd.num_partitions(), 3);
        assert_eq!(pd.total_rows(), 3);
        let single = pd.into_single_chunk().unwrap();
        assert_eq!(single.rows(), 3);
    }

    #[test]
    fn empty_data_is_typed() {
        let pd = PartitionedData::empty(vec![DataType::Utf8, DataType::Int64], 2);
        assert_eq!(pd.total_rows(), 0);
        let c = pd.partition_chunk(0).unwrap();
        assert_eq!(c.width(), 2);
        assert_eq!(c.rows(), 0);
        let single = pd.into_single_chunk().unwrap();
        assert_eq!(single.width(), 2);
    }

    #[test]
    fn stats_accumulate() {
        let s = ExecStats::new();
        s.record(1, 10);
        s.record(1, 5);
        s.record(2, 7);
        assert_eq!(s.actual(1), Some(15));
        assert_eq!(s.actual(2), Some(7));
        assert_eq!(s.actual(3), None);
        assert_eq!(s.snapshot().len(), 2);
    }

    #[test]
    fn prune_stats_accumulate_and_total() {
        let s = ExecStats::new();
        let a = ScanPruneStats {
            chunks: 4,
            skipped_zonemap: 2,
            skipped_bloom: 1,
            skipped_rfilter: 0,
            rows_pruned: 100,
        };
        let b = ScanPruneStats {
            chunks: 3,
            skipped_zonemap: 0,
            skipped_bloom: 0,
            skipped_rfilter: 2,
            rows_pruned: 8,
        };
        s.record_prune(5, &a);
        s.record_prune(5, &b);
        s.record_prune(9, &b);
        let five = s.prune_of(5).unwrap();
        assert_eq!(five.chunks, 7);
        assert_eq!(five.skipped(), 5);
        assert_eq!(five.rows_pruned, 108);
        assert_eq!(s.prune_of(1), None);
        let total = s.prune_totals();
        assert_eq!(total.chunks, 10);
        assert_eq!(total.skipped(), 7);
    }

    #[test]
    fn profile_scratch_merges_once() {
        let s = ExecStats::new();
        let mut scratch = ProfileScratch::default();
        scratch.note_node(3, 100, 1);
        scratch.note_node(3, 50, 2);
        scratch.note_node(7, 10, 1);
        scratch.note_filter(2, 1000, 150);
        scratch.note_filter(2, 500, 50);
        assert!(!scratch.is_empty());
        s.merge_profile(&mut scratch);
        assert!(scratch.is_empty());
        // A second merge of the drained scratch is a no-op.
        s.merge_profile(&mut scratch);
        assert_eq!(
            s.profile_of(3),
            Some(NodeProfile {
                wall_ns: 150,
                morsels: 3,
                build_ns: 0,
            })
        );
        assert_eq!(s.profile_of(7).unwrap().morsels, 1);
        assert_eq!(s.profile_of(99), None);
        let obs = s.filter_observation(2).unwrap();
        assert_eq!(obs.rows_in, 1500);
        assert_eq!(obs.rows_out, 200);
        assert!((obs.pass_rate().unwrap() - 200.0 / 1500.0).abs() < 1e-12);
        assert_eq!(FilterObservation::default().pass_rate(), None);
        // Direct breaker-path recording accumulates into the same map.
        s.record_node_profile(3, 25, 0);
        assert_eq!(s.profile_of(3).unwrap().wall_ns, 175);
        // A build seal adds to its own field only.
        s.record_build_ns(3, 40);
        let p = s.profile_of(3).unwrap();
        assert_eq!((p.wall_ns, p.morsels, p.build_ns), (175, 3, 40));
        assert_eq!(s.profiles().len(), 2);
    }

    #[test]
    fn filter_builds_count() {
        let s = ExecStats::new();
        assert_eq!(s.filter_builds(), 0);
        s.note_filter_build(500);
        s.note_filter_build(300);
        assert_eq!(s.filter_builds(), 2);
        assert_eq!(s.filter_build_ns(), 800);
    }

    #[test]
    fn buffered_rows_track_peak() {
        let s = ExecStats::new();
        assert_eq!(s.peak_buffered_rows(), 0);
        s.buffer_grow(100);
        s.buffer_grow(50);
        s.buffer_shrink(120);
        s.buffer_grow(10);
        assert_eq!(s.peak_buffered_rows(), 150);
        // Shrinking below zero saturates instead of wrapping.
        s.buffer_shrink(10_000);
        s.buffer_grow(1);
        assert_eq!(s.peak_buffered_rows(), 150);
    }
}
