//! Compact build-key summaries for chunk-level skipping on *large* builds.
//!
//! Small build sides (≤ [`crate::hub::SMALL_KEY_LIMIT`] distinct keys)
//! ship their exact key hashes with the [`crate::RuntimeFilter`], so scans
//! can probe per-chunk Bloom indexes and skip whole chunks. Above that
//! limit exact hashes are dropped — which used to silently disable chunk
//! skipping for big joins. A [`KeySummary`] is the fallback: each build
//! partition marks the value-range buckets its keys occupy, the partition
//! summaries are unioned, and a scan skips any chunk whose zone-map range
//! touches no occupied bucket. It is a zone-style proof (no false skips):
//! an unoccupied bucket range contains no build key, so no row in a chunk
//! confined to that range can survive the join filter.

use bfq_storage::Column;

/// Number of value-range buckets in a summary. 4096 bits = 512 bytes — a
/// rounding error next to the Bloom filter it rides along with, yet enough
/// that a build side covering 1/8 of a clustered fact table's key range
/// leaves 7/8 of the buckets provably empty.
pub const SUMMARY_BUCKETS: usize = 4096;

/// An occupancy bitmap over the numeric key axis `[lo, hi]`.
///
/// One bitmap represents the union of every build partition's summary —
/// all partitions share the global key bounds, so inserting each
/// partition's keys into the shared bitmap is that union.
#[derive(Debug, Clone, PartialEq)]
pub struct KeySummary {
    lo: f64,
    hi: f64,
    words: Vec<u64>,
}

impl KeySummary {
    /// An empty summary over the key range `[lo, hi]` (`lo <= hi`).
    pub fn new(lo: f64, hi: f64) -> KeySummary {
        KeySummary {
            lo,
            hi,
            words: vec![0u64; SUMMARY_BUCKETS / 64],
        }
    }

    /// The bucket index a key value falls into (values are clamped, so
    /// callers may pass the summary range's own endpoints safely).
    #[inline]
    fn bucket(&self, v: f64) -> usize {
        if self.hi <= self.lo {
            return 0;
        }
        let frac = ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        ((frac * SUMMARY_BUCKETS as f64) as usize).min(SUMMARY_BUCKETS - 1)
    }

    #[inline]
    fn set(&mut self, bucket: usize) {
        self.words[bucket / 64] |= 1u64 << (bucket % 64);
    }

    #[inline]
    fn get(&self, bucket: usize) -> bool {
        self.words[bucket / 64] & (1u64 << (bucket % 64)) != 0
    }

    /// Mark the buckets of every non-null value of one build partition's
    /// key column. Non-numeric columns mark nothing (and callers should
    /// not build summaries for them).
    pub fn insert_column(&mut self, col: &Column) {
        match col {
            Column::Int64(vals, validity) => {
                for (i, &v) in vals.iter().enumerate() {
                    if validity.as_ref().is_none_or(|bm| bm.get(i)) {
                        let b = self.bucket(v as f64);
                        self.set(b);
                    }
                }
            }
            Column::Date(vals, validity) => {
                for (i, &v) in vals.iter().enumerate() {
                    if validity.as_ref().is_none_or(|bm| bm.get(i)) {
                        let b = self.bucket(v as f64);
                        self.set(b);
                    }
                }
            }
            Column::Float64(vals, validity) => {
                for (i, &v) in vals.iter().enumerate() {
                    if validity.as_ref().is_none_or(|bm| bm.get(i)) {
                        let b = self.bucket(v);
                        self.set(b);
                    }
                }
            }
            Column::Utf8(..) | Column::Bool(..) => {}
        }
    }

    /// Build the merged summary of every build partition's key column over
    /// their shared global key bounds. `None` when no column yields
    /// numeric values.
    ///
    /// All partitions share one `[lo, hi]` range, so inserting each
    /// partition's keys into a single bitmap *is* the union of the
    /// per-partition summaries — no intermediate partials needed.
    pub fn from_partitions(thread_keys: &[Column]) -> Option<KeySummary> {
        let mut bounds: Option<(f64, f64)> = None;
        for col in thread_keys {
            if let Some((lo, hi)) = col.min_max_axis() {
                bounds = Some(match bounds {
                    None => (lo, hi),
                    Some((a, b)) => (a.min(lo), b.max(hi)),
                });
            }
        }
        let (lo, hi) = bounds?;
        let mut merged = KeySummary::new(lo, hi);
        for col in thread_keys {
            merged.insert_column(col);
        }
        Some(merged)
    }

    /// Whether any occupied bucket intersects the value range `[min, max]`
    /// (a chunk's zone map). `false` is a proof that no build key can fall
    /// inside the range.
    pub fn overlaps_range(&self, min: f64, max: f64) -> bool {
        if max < self.lo || min > self.hi {
            return false;
        }
        let first = self.bucket(min);
        let last = self.bucket(max);
        (first..=last).any(|b| self.get(b))
    }

    /// Fraction of buckets occupied (1.0 means the summary can prove
    /// nothing — e.g. uniformly scattered build keys).
    pub fn occupancy(&self) -> f64 {
        let set: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        set as f64 / SUMMARY_BUCKETS as f64
    }

    /// Memory footprint of the bitmap in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_storage::Bitmap;

    fn int_col(vals: &[i64]) -> Column {
        Column::Int64(vals.to_vec(), None)
    }

    #[test]
    fn no_false_skips_on_inserted_values() {
        let keys: Vec<i64> = (0..5000).collect();
        let s = KeySummary::from_partitions(&[int_col(&keys)]).unwrap();
        for probe in [0i64, 1, 2500, 4999] {
            assert!(
                s.overlaps_range(probe as f64, probe as f64),
                "false skip for inserted key {probe}"
            );
        }
    }

    #[test]
    fn skips_gaps_in_clustered_keys() {
        // Two clusters with a wide gap: the gap range must be provably empty.
        let mut keys: Vec<i64> = (0..1000).collect();
        keys.extend(1_000_000..1_001_000);
        let s = KeySummary::from_partitions(&[int_col(&keys)]).unwrap();
        assert!(s.overlaps_range(0.0, 999.0));
        assert!(s.overlaps_range(1_000_000.0, 1_000_500.0));
        assert!(!s.overlaps_range(200_000.0, 800_000.0), "gap not skipped");
        // Outside the global bounds entirely.
        assert!(!s.overlaps_range(-50.0, -1.0));
        assert!(!s.overlaps_range(2_000_000.0, 3_000_000.0));
        assert!(s.occupancy() < 0.01);
    }

    #[test]
    fn partition_summaries_union() {
        let s = KeySummary::from_partitions(&[
            int_col(&(0..500).collect::<Vec<_>>()),
            int_col(&(100_000..100_500).collect::<Vec<_>>()),
        ])
        .unwrap();
        assert!(s.overlaps_range(250.0, 250.0));
        assert!(s.overlaps_range(100_250.0, 100_250.0));
        assert!(!s.overlaps_range(10_000.0, 90_000.0));
    }

    #[test]
    fn nulls_and_non_numeric_columns() {
        let with_nulls = Column::Int64(vec![5, 999], Some(Bitmap::from_bools([true, false])));
        let s = KeySummary::from_partitions(&[with_nulls]).unwrap();
        // The null 999 was never inserted; min_max_axis ignored it too, so
        // the range is the single value 5.
        assert!(s.overlaps_range(5.0, 5.0));
        let strs: bfq_storage::StrData = ["a", "b"].iter().map(|s| s.to_string()).collect();
        assert!(KeySummary::from_partitions(&[Column::Utf8(strs, None)]).is_none());
    }

    #[test]
    fn degenerate_single_value_range() {
        let s = KeySummary::from_partitions(&[int_col(&[7, 7, 7])]).unwrap();
        assert!(s.overlaps_range(7.0, 7.0));
        assert!(s.overlaps_range(0.0, 100.0));
        assert!(!s.overlaps_range(8.0, 100.0));
        assert_eq!(s.size_bytes(), SUMMARY_BUCKETS / 8);
    }
}
