//! The Bloom filter: k = 2 bits per key (paper §3.5), both inside one
//! 512-bit block — one cache line — so a probe is a single load-miss
//! followed by register-resident bit tests (Putze et al., *Cache-, Hash-
//! and Space-Efficient Bloom Filters*; the Parquet split-block filter).
//!
//! Everything derives from a **single** 64-bit key hash `h`:
//!
//! * the block index via multiply-shift range reduction on the high 32
//!   bits (`(h >> 32) * nblocks >> 32` — unbiased for any block count);
//! * the two in-block bit positions from the low 32 bits via two distinct
//!   odd multipliers, taking the top `log2(512) = 9` product bits (a
//!   2-universal multiply-shift family, independent of the block choice).
//!
//! The price is block-local collisions: block loads vary
//! (Poisson-distributed), overfull blocks answer misses positively more
//! often, and the two derived positions coincide for 1/512 of probes
//! (effectively k = 1). [`crate::math::blocked_fpr`] quantifies the
//! resulting FPR so the optimizer costs the filter that runs.

use bfq_common::hash;
use bfq_storage::{Bitmap, Column};

use crate::math::{bits_for_ndv, blocked_fpr, BLOCK_BITS, DEFAULT_BITS_PER_KEY};

/// Seed of the key hash. The value is an arbitrary odd 64-bit constant;
/// what matters is that it differs from the executor's partitioning seed.
pub const BLOOM_SEED: u64 = 0x51ed_270b_9f9c_17e3;

/// 64-bit words per 512-bit block.
const BLOCK_WORDS: usize = BLOCK_BITS / 64;

/// One cache line of filter bits.
type Block = [u64; BLOCK_WORDS];

/// Odd multiplier deriving the first in-block bit (from the SBBF salt
/// family; any fixed odd constants work, they just must differ).
const ODD_MULT_1: u32 = 0x47b6_137b;
/// Odd multiplier deriving the second in-block bit.
const ODD_MULT_2: u32 = 0x4463_6a91;

/// The block a key hash routes to, of `nblocks` total.
#[inline]
fn block_of(h: u64, nblocks: usize) -> usize {
    // Multiply-shift range reduction on the high half: unbiased, no modulo,
    // and decorrelated from the low half that picks the in-block bits.
    (((h >> 32) * nblocks as u64) >> 32) as usize
}

/// The two in-block bit positions (0..512) derived from a key hash.
#[inline]
fn bits_of(h: u64) -> (usize, usize) {
    let low = h as u32;
    let b1 = (low.wrapping_mul(ODD_MULT_1) >> 23) as usize;
    let b2 = (low.wrapping_mul(ODD_MULT_2) >> 23) as usize;
    (b1, b2)
}

/// Test a key hash against `blocks`.
///
/// This is the probe kernel the batched paths monomorphize around: typing
/// the block as `[u64; 8]` lets the compiler prove the two in-block word
/// indexes (9-bit positions shifted down to 0..8) in range, so the per-key
/// work is one block lookup, three multiplies, two same-line reads and an
/// AND — short enough that the out-of-order window keeps many consecutive
/// keys' (single) cache misses in flight.
#[inline]
fn contains_in(blocks: &[Block], h: u64) -> bool {
    let block = &blocks[block_of(h, blocks.len())];
    let (b1, b2) = bits_of(h);
    // One cache line: both words live in the block loaded by the first
    // access. `&` the tests before comparing so the pair stays branch-free.
    let w1 = block[b1 / 64] >> (b1 % 64);
    let w2 = block[b2 / 64] >> (b2 % 64);
    (w1 & w2 & 1) == 1
}

/// A Bloom filter over single-column key hashes.
///
/// Inserting never fails; as the filter saturates the false-positive rate
/// degrades gracefully (observable via [`BloomFilter::saturation`], which
/// the paper's future-work section proposes monitoring).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    blocks: Vec<Block>,
    inserted: u64,
    /// Distinct-key estimate for [`BloomFilter::estimated_fpr`]; `inserted`
    /// counts duplicates, which overstates the load of non-unique builds.
    ndv_hint: Option<u64>,
}

impl BloomFilter {
    /// A filter sized for `expected_ndv` distinct keys at the default
    /// bits-per-key budget.
    pub fn with_expected_ndv(expected_ndv: usize) -> Self {
        Self::with_bits(bits_for_ndv(expected_ndv, DEFAULT_BITS_PER_KEY))
    }

    /// A filter with exactly `bits` bits: a positive multiple of the
    /// 512-bit block ([`bits_for_ndv`] sizing always is one).
    pub fn with_bits(bits: usize) -> Self {
        assert!(
            bits >= BLOCK_BITS && bits.is_multiple_of(BLOCK_BITS),
            "bad filter size {bits}: not a positive multiple of {BLOCK_BITS} bits"
        );
        BloomFilter {
            blocks: vec![[0u64; BLOCK_WORDS]; bits / BLOCK_BITS],
            inserted: 0,
            ndv_hint: None,
        }
    }

    /// Number of bits in the filter.
    pub fn num_bits(&self) -> usize {
        self.blocks.len() * BLOCK_BITS
    }

    /// Number of keys inserted so far (counting duplicates).
    pub fn inserted_keys(&self) -> u64 {
        self.inserted
    }

    /// Record the builder's distinct-key estimate, used by
    /// [`BloomFilter::estimated_fpr`] in place of the duplicate-counting
    /// insert tally — so a reported FPR matches the sizing math the
    /// optimizer used (which reasons in distinct keys).
    pub fn set_ndv_hint(&mut self, ndv: u64) {
        self.ndv_hint = Some(ndv);
    }

    /// The recorded distinct-key estimate, if any.
    pub fn ndv_hint(&self) -> Option<u64> {
        self.ndv_hint
    }

    /// Memory footprint of the bit array in bytes.
    pub fn size_bytes(&self) -> usize {
        self.num_bits() / 8
    }

    /// Insert a key by its [`BLOOM_SEED`] hash.
    #[inline]
    pub fn insert_hash(&mut self, h: u64) {
        let n = self.blocks.len();
        let block = &mut self.blocks[block_of(h, n)];
        let (b1, b2) = bits_of(h);
        block[b1 / 64] |= 1u64 << (b1 % 64);
        block[b2 / 64] |= 1u64 << (b2 % 64);
        self.inserted += 1;
    }

    /// Test a key by its [`BLOOM_SEED`] hash.
    #[inline]
    pub fn contains_hash(&self, h: u64) -> bool {
        contains_in(&self.blocks, h)
    }

    /// Insert one integer key (convenience for tests and examples).
    pub fn insert_i64(&mut self, v: i64) {
        self.insert_hash(hash::hash_i64(v, BLOOM_SEED));
    }

    /// Test one integer key.
    pub fn contains_i64(&self, v: i64) -> bool {
        self.contains_hash(hash::hash_i64(v, BLOOM_SEED))
    }

    /// Insert every non-null value of a column.
    pub fn insert_column(&mut self, col: &Column) {
        let mut hashes = Vec::new();
        col.hash_into(BLOOM_SEED, &mut hashes);
        match col.validity() {
            None => {
                for &h in &hashes {
                    self.insert_hash(h);
                }
            }
            Some(bm) => {
                for (i, &h) in hashes.iter().enumerate() {
                    if bm.get(i) {
                        self.insert_hash(h);
                    }
                }
            }
        }
    }

    /// Batch probe over pre-hashed keys: test the rows selected by `sel`
    /// (every row when `None`), appending survivors to the caller-owned
    /// `out` (cleared first). Rows `validity` marks null never survive — a
    /// NULL join key cannot match any build row.
    ///
    /// This is the executor's hot path: the per-row work is branch-light
    /// bit tests over hashes computed columnarly by the caller, and no
    /// allocation occurs once `out` has reached its steady-state capacity.
    pub fn probe_hashes_into(
        &self,
        hashes: &[u64],
        validity: Option<&Bitmap>,
        sel: Option<&[u32]>,
        out: &mut Vec<u32>,
    ) {
        let blocks = &self.blocks[..];
        // Survivors are written branch-free: every candidate index is stored
        // and the write cursor advances by the predicate — the classic
        // selection-vector compaction. Membership is data-random, so a
        // conditional push would mispredict on roughly every other key; the
        // unconditional store costs one predictable write and lets
        // consecutive keys' filter loads overlap.
        out.clear();
        out.resize(sel.map_or(hashes.len(), <[u32]>::len), 0);
        let mut k = 0usize;
        match (sel, validity) {
            (None, None) => {
                for (i, &h) in hashes.iter().enumerate() {
                    out[k] = i as u32;
                    k += contains_in(blocks, h) as usize;
                }
            }
            (Some(sel), None) => {
                for &i in sel {
                    out[k] = i;
                    k += contains_in(blocks, hashes[i as usize]) as usize;
                }
            }
            (None, Some(bm)) => {
                for (i, &h) in hashes.iter().enumerate() {
                    out[k] = i as u32;
                    k += (bm.get(i) & contains_in(blocks, h)) as usize;
                }
            }
            (Some(sel), Some(bm)) => {
                for &i in sel {
                    let i = i as usize;
                    out[k] = i as u32;
                    k += (bm.get(i) & contains_in(blocks, hashes[i])) as usize;
                }
            }
        }
        out.truncate(k);
    }

    /// Probe every row of `col`, returning the selection of survivors
    /// (without materializing an intermediate full selection vector).
    pub fn probe_all(&self, col: &Column) -> Vec<u32> {
        let mut hashes = Vec::new();
        col.hash_into(BLOOM_SEED, &mut hashes);
        let mut out = Vec::new();
        self.probe_hashes_into(&hashes, col.validity(), None, &mut out);
        out
    }

    /// Fraction of bits set; near-1.0 means the filter is saturated and
    /// filters nothing.
    pub fn saturation(&self) -> f64 {
        let set: u64 = self
            .blocks
            .iter()
            .flatten()
            .map(|w| w.count_ones() as u64)
            .sum();
        set as f64 / self.num_bits() as f64
    }

    /// Theoretical FPR at the current load ([`blocked_fpr`]), using the
    /// distinct-key estimate when the builder recorded one (falling back to
    /// the duplicate-counting insert tally).
    pub fn estimated_fpr(&self) -> f64 {
        let n = self.ndv_hint.unwrap_or(self.inserted);
        blocked_fpr(self.num_bits() as f64, n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_storage::Bitmap;

    #[test]
    fn block_routing_is_in_range_and_spread() {
        let n = 37; // deliberately not a power of two
        let mut counts = vec![0usize; n];
        for k in 0..37_000u64 {
            let h = hash::hash_u64(k, 0x5eed);
            let b = block_of(h, n);
            assert!(b < n);
            counts[b] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "blocks badly balanced: {counts:?}");
        }
    }

    #[test]
    fn bit_positions_cover_the_block() {
        let mut seen = [false; BLOCK_BITS];
        for k in 0..100_000u64 {
            let h = hash::hash_u64(k, 0xbeef);
            let (b1, b2) = bits_of(h);
            assert!(b1 < BLOCK_BITS && b2 < BLOCK_BITS);
            seen[b1] = true;
            seen[b2] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "some in-block positions unreachable"
        );
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_expected_ndv(1000);
        for v in 0..1000i64 {
            f.insert_i64(v);
        }
        for v in 0..1000i64 {
            assert!(f.contains_i64(v), "false negative for {v}");
        }
    }

    #[test]
    fn false_positive_rate_in_expected_band() {
        let n = 10_000i64;
        let mut f = BloomFilter::with_expected_ndv(n as usize);
        for v in 0..n {
            f.insert_i64(v);
        }
        let mut fp = 0usize;
        let probes = 100_000i64;
        for v in n..n + probes {
            if f.contains_i64(v) {
                fp += 1;
            }
        }
        let observed = fp as f64 / probes as f64;
        let theoretical = f.estimated_fpr();
        assert!(
            observed < theoretical * 2.0 + 0.01,
            "observed fpr {observed} vs theoretical {theoretical}"
        );
    }

    #[test]
    fn column_insert_and_probe() {
        let build = Column::Int64(vec![1, 2, 3, 4, 5], None);
        let mut f = BloomFilter::with_expected_ndv(5);
        f.insert_column(&build);
        let probe = Column::Int64(vec![3, 99, 1, 77_777], None);
        let sel = f.probe_all(&probe);
        // 3 and 1 must survive; the others may only survive as false
        // positives (essentially impossible at this load).
        assert!(sel.contains(&0) && sel.contains(&2));
        assert!(sel.len() <= 3);
    }

    #[test]
    fn null_keys_are_filtered_out() {
        let build = Column::Int64(vec![1, 2], None);
        let mut f = BloomFilter::with_expected_ndv(2);
        f.insert_column(&build);
        let probe = Column::Int64(vec![1, 1], Some(Bitmap::from_bools([true, false])));
        assert_eq!(f.probe_all(&probe), vec![0]);
    }

    #[test]
    fn null_build_keys_not_inserted() {
        let build = Column::Int64(vec![7, 8], Some(Bitmap::from_bools([true, false])));
        let mut f = BloomFilter::with_expected_ndv(16);
        f.insert_column(&build);
        assert_eq!(f.inserted_keys(), 1);
        assert!(f.contains_i64(7));
    }

    #[test]
    fn batch_probe_respects_input_selection() {
        let build = Column::Int64(vec![10, 20], None);
        let mut f = BloomFilter::with_expected_ndv(2);
        f.insert_column(&build);
        let probe = Column::Int64(vec![10, 20, 10, 20], None);
        let mut hashes = Vec::new();
        probe.hash_into(BLOOM_SEED, &mut hashes);
        let mut sel = Vec::new();
        f.probe_hashes_into(&hashes, None, Some(&[1, 3]), &mut sel);
        assert_eq!(sel, vec![1, 3]);
    }

    #[test]
    fn batch_probe_matches_scalar_probe() {
        let mut f = BloomFilter::with_bits(4096);
        for v in (0..512i64).step_by(3) {
            f.insert_i64(v);
        }
        let vals: Vec<i64> = (0..512).collect();
        let col = Column::Int64(vals.clone(), None);
        let batch = f.probe_all(&col);
        let scalar: Vec<u32> = (0..vals.len() as u32)
            .filter(|&i| f.contains_i64(vals[i as usize]))
            .collect();
        assert_eq!(batch, scalar, "batch/scalar divergence");
    }

    #[test]
    fn saturation_grows_with_load() {
        let mut f = BloomFilter::with_bits(512);
        assert_eq!(f.saturation(), 0.0);
        for v in 0..64 {
            f.insert_i64(v);
        }
        let s1 = f.saturation();
        for v in 64..512 {
            f.insert_i64(v);
        }
        assert!(f.saturation() > s1);
        assert!(f.saturation() <= 1.0);
    }

    #[test]
    fn ndv_hint_drives_estimated_fpr() {
        let mut f = BloomFilter::with_expected_ndv(1000);
        // 10 distinct keys inserted 100x each: `inserted` says 1000.
        for _ in 0..100 {
            for v in 0..10i64 {
                f.insert_i64(v);
            }
        }
        let duplicate_counting = f.estimated_fpr();
        f.set_ndv_hint(10);
        assert_eq!(f.ndv_hint(), Some(10));
        let distinct = f.estimated_fpr();
        assert!(
            distinct < duplicate_counting,
            "hint must shrink the reported load: {distinct} vs {duplicate_counting}"
        );
        // The hinted FPR is the sizing math's number for 10 keys.
        assert_eq!(distinct, blocked_fpr(f.num_bits() as f64, 10.0));
    }

    #[test]
    fn string_keys() {
        let build: bfq_storage::StrData = ["FRANCE", "GERMANY"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut f = BloomFilter::with_expected_ndv(4);
        f.insert_column(&Column::Utf8(build, None));
        let probe: bfq_storage::StrData =
            ["GERMANY", "JAPAN"].iter().map(|s| s.to_string()).collect();
        let sel = f.probe_all(&Column::Utf8(probe, None));
        assert!(sel.contains(&0));
    }
}
