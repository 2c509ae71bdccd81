//! Partitioned Bloom filters for partitioned hash joins (paper §3.9,
//! strategy 3).
//!
//! A partition join builds `n` partial hash joins, one per partition of the
//! build side; we build one partial Bloom filter per partition. On the apply
//! side each row routes to a partial filter by hashing its key with the
//! partitioning hash ("distributed lookup"), or the partials are merged into
//! one filter when the partition column is unavailable. The paper's case 4
//! (apply side already partitioned like the build side) runs as case 3
//! after the executor's repartition.

use bfq_common::hash::hash_u64;
use bfq_storage::{Bitmap, Column};

use crate::filter::{BloomFilter, BLOOM_SEED};

/// Seed of the *partitioning* hash — deliberately distinct from the filter
/// seed so partition routing is independent of bit placement.
pub const PARTITION_SEED: u64 = 0x2545_f491_4f6c_dd1d;

/// Route a key hash to one of `n` partitions.
#[inline]
pub fn partition_of(key_hash: u64, n: usize) -> usize {
    // Re-mixing the key hash with its own seed decorrelates the partition
    // from the filter's block and bit choice; the modulo's bias over a
    // 64-bit hash is negligible for any partition count.
    (hash_u64(key_hash, PARTITION_SEED) % n as u64) as usize
}

/// `n` partial Bloom filters, one per hash-join partition.
#[derive(Debug, Clone)]
pub struct PartitionedBloomFilter {
    parts: Vec<BloomFilter>,
}

impl PartitionedBloomFilter {
    /// Create `partitions` partial filters, each sized for an even share of
    /// `expected_ndv` keys.
    pub fn new(partitions: usize, expected_ndv: usize) -> Self {
        assert!(partitions > 0, "need at least one partition");
        let per_part = expected_ndv.div_ceil(partitions);
        PartitionedBloomFilter {
            parts: (0..partitions)
                .map(|_| BloomFilter::with_expected_ndv(per_part))
                .collect(),
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Access a partial filter.
    pub fn part(&self, i: usize) -> &BloomFilter {
        &self.parts[i]
    }

    /// Mutable access to a partial filter (the build side of partition `i`
    /// inserts its keys here).
    pub fn part_mut(&mut self, i: usize) -> &mut BloomFilter {
        &mut self.parts[i]
    }

    /// Insert a column routing each row to its partition by key hash
    /// (build side not yet partitioned).
    pub fn insert_column_routed(&mut self, col: &Column) {
        let mut hashes = Vec::new();
        col.hash_into(BLOOM_SEED, &mut hashes);
        let n = self.parts.len();
        for (i, &h) in hashes.iter().enumerate() {
            if !col.is_null(i) {
                self.parts[partition_of(h, n)].insert_hash(h);
            }
        }
    }

    /// Batched unaligned probe over pre-hashed keys: rows selected by `sel`
    /// (all rows when `None`) route to their partial filter by the
    /// partitioning hash; survivors are appended to the caller-owned `out`
    /// (cleared first).
    pub fn probe_routed_hashes_into(
        &self,
        hashes: &[u64],
        validity: Option<&Bitmap>,
        sel: Option<&[u32]>,
        out: &mut Vec<u32>,
    ) {
        let n = self.parts.len();
        crate::filter::probe_loop(hashes.len(), validity, sel, out, |i| {
            self.parts[partition_of(hashes[i], n)].contains_hash(hashes[i])
        });
    }

    /// Unaligned probe with distributed lookup (§3.9 case 3): each row picks
    /// its partial filter via the partitioning hash of its own key.
    /// Allocating wrapper over [`PartitionedBloomFilter::probe_routed_hashes_into`].
    pub fn probe_routed(&self, col: &Column, sel: &[u32]) -> Vec<u32> {
        let mut hashes = Vec::new();
        col.hash_into(BLOOM_SEED, &mut hashes);
        let mut out = Vec::with_capacity(sel.len());
        self.probe_routed_hashes_into(&hashes, col.validity(), Some(sel), &mut out);
        out
    }

    /// Merge all partials into one filter by bit-vector union (the fallback
    /// when the partitioning column is unavailable on the apply side).
    ///
    /// Partial filters are same-sized by construction, so the union is
    /// well-defined.
    pub fn merge(&self) -> BloomFilter {
        let mut merged = self.parts[0].clone();
        for p in &self.parts[1..] {
            merged.union_with(p);
        }
        merged
    }

    /// Total memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col(vals: &[i64]) -> Column {
        Column::Int64(vals.to_vec(), None)
    }

    #[test]
    fn routed_insert_then_routed_probe_has_no_false_negatives() {
        let keys: Vec<i64> = (0..5000).collect();
        let mut pf = PartitionedBloomFilter::new(8, keys.len());
        pf.insert_column_routed(&int_col(&keys));
        let probe = int_col(&keys);
        let all: Vec<u32> = (0..keys.len() as u32).collect();
        let survivors = pf.probe_routed(&probe, &all);
        assert_eq!(survivors.len(), keys.len(), "lost rows in routed probe");
    }

    #[test]
    fn routed_probe_filters_misses() {
        let mut pf = PartitionedBloomFilter::new(4, 1000);
        pf.insert_column_routed(&int_col(&(0..1000).collect::<Vec<_>>()));
        let misses: Vec<i64> = (100_000..101_000).collect();
        let probe = int_col(&misses);
        let all: Vec<u32> = (0..misses.len() as u32).collect();
        let survivors = pf.probe_routed(&probe, &all);
        assert!(
            survivors.len() < misses.len() / 5,
            "too many false positives: {}",
            survivors.len()
        );
    }

    #[test]
    fn merge_unions_all_partitions() {
        let mut pf = PartitionedBloomFilter::new(4, 100);
        pf.insert_column_routed(&int_col(&(0..100).collect::<Vec<_>>()));
        let merged = pf.merge();
        for v in 0..100 {
            assert!(merged.contains_i64(v));
        }
        assert_eq!(merged.inserted_keys(), 100);
    }

    #[test]
    fn partition_routing_is_deterministic_and_spread() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for k in 0..8000u64 {
            let h = bfq_common::hash::hash_u64(k, BLOOM_SEED);
            counts[partition_of(h, n)] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "partition badly balanced: {counts:?}");
        }
    }

    #[test]
    fn size_accounting() {
        let pf = PartitionedBloomFilter::new(4, 4096);
        assert_eq!(pf.partitions(), 4);
        assert!(pf.size_bytes() >= 4096); // 4096 keys * 8 bits / 8 = 4096 B
    }
}
