//! The core Bloom filter.

use bfq_common::hash;
use bfq_storage::{Bitmap, Column};

use crate::blocked;
use crate::math::{bits_for_ndv, fpr_for_layout, BloomLayout, BLOCK_BITS, DEFAULT_BITS_PER_KEY};

/// Seeds for the two hash functions (paper §3.5 fixes k = 2). The values are
/// arbitrary odd 64-bit constants; what matters is that they differ from each
/// other and from the executor's partitioning seed.
pub const BLOOM_SEED_1: u64 = 0x51ed_270b_9f9c_17e3;
/// Second hash seed (unused by the blocked layout, which derives both bit
/// positions from the first hash — see [`BloomFilter::needs_second_hash`]).
pub const BLOOM_SEED_2: u64 = 0xb492_b66f_be98_f273;

/// A Bloom filter over single-column hash keys.
///
/// Power-of-two sized so probes mask rather than mod. The physical bit
/// placement is selected by [`BloomLayout`]: `standard` spreads both bits
/// over the whole array, `blocked` confines them to one 64-byte block so a
/// probe costs a single cache miss ([`crate::blocked`]). Inserting never
/// fails; as the filter saturates the false-positive rate degrades
/// gracefully (observable via [`BloomFilter::saturation`], which the
/// paper's future-work section proposes monitoring).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    words: Vec<u64>,
    mask: u64,
    inserted: u64,
    layout: BloomLayout,
    /// Distinct-key estimate for [`BloomFilter::estimated_fpr`]; `inserted`
    /// counts duplicates, which overstates the load of non-unique builds.
    ndv_hint: Option<u64>,
}

impl BloomFilter {
    /// A standard-layout filter sized for `expected_ndv` distinct keys at
    /// the default bits-per-key budget.
    pub fn with_expected_ndv(expected_ndv: usize) -> Self {
        Self::with_expected_ndv_layout(expected_ndv, BloomLayout::Standard)
    }

    /// A filter sized for `expected_ndv` distinct keys under `layout`.
    pub fn with_expected_ndv_layout(expected_ndv: usize, layout: BloomLayout) -> Self {
        Self::with_bits_layout(bits_for_ndv(expected_ndv, DEFAULT_BITS_PER_KEY), layout)
    }

    /// A standard-layout filter with exactly `bits` bits (`bits` must be a
    /// power of two ≥ 64).
    pub fn with_bits(bits: usize) -> Self {
        Self::with_bits_layout(bits, BloomLayout::Standard)
    }

    /// A filter with exactly `bits` bits under `layout`. Blocked filters
    /// must hold at least one whole 512-bit block ([`crate::math::MIN_BITS`]
    /// sizing always satisfies this).
    pub fn with_bits_layout(bits: usize, layout: BloomLayout) -> Self {
        let min = match layout {
            BloomLayout::Standard => 64,
            BloomLayout::Blocked => BLOCK_BITS,
        };
        assert!(
            bits.is_power_of_two() && bits >= min,
            "bad filter size {bits} for {layout} layout"
        );
        BloomFilter {
            words: vec![0u64; bits / 64],
            mask: (bits - 1) as u64,
            inserted: 0,
            layout,
            ndv_hint: None,
        }
    }

    /// The filter's bit-placement layout.
    pub fn layout(&self) -> BloomLayout {
        self.layout
    }

    /// Whether probes of this filter consume the second key hash. The
    /// blocked layout derives both bit positions from the first hash, so
    /// batch callers can skip hashing the column with [`BLOOM_SEED_2`].
    pub fn needs_second_hash(&self) -> bool {
        self.layout.needs_second_hash()
    }

    /// Number of 512-bit blocks (blocked layout).
    #[inline]
    fn nblocks(&self) -> usize {
        self.words.len() / blocked::BLOCK_WORDS
    }

    /// Number of bits in the filter.
    pub fn num_bits(&self) -> usize {
        self.words.len() * 64
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
        self.words.len() * 8
    }

    #[inline]
    fn set_bit(&mut self, bit: u64) {
        let bit = bit & self.mask;
        self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
    }

    #[inline]
    fn test_bit(&self, bit: u64) -> bool {
        let bit = bit & self.mask;
        self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
    }

    /// Insert a pre-hashed key (pass hashes from the two bloom seeds; the
    /// blocked layout ignores `h2`).
    #[inline]
    pub fn insert_hashes(&mut self, h1: u64, h2: u64) {
        match self.layout {
            BloomLayout::Standard => {
                self.set_bit(h1);
                self.set_bit(h2);
            }
            BloomLayout::Blocked => {
                let n = self.nblocks();
                blocked::insert(&mut self.words, n, h1);
            }
        }
        self.inserted += 1;
    }

    /// Test a pre-hashed key.
    #[inline]
    pub fn contains_hashes(&self, h1: u64, h2: u64) -> bool {
        match self.layout {
            BloomLayout::Standard => self.test_bit(h1) && self.test_bit(h2),
            BloomLayout::Blocked => blocked::contains(&self.words, self.nblocks(), h1),
        }
    }

    /// Insert one integer key (convenience for tests and examples).
    pub fn insert_i64(&mut self, v: i64) {
        self.insert_hashes(
            hash::hash_i64(v, BLOOM_SEED_1),
            hash::hash_i64(v, BLOOM_SEED_2),
        );
    }

    /// Test one integer key.
    pub fn contains_i64(&self, v: i64) -> bool {
        self.contains_hashes(
            hash::hash_i64(v, BLOOM_SEED_1),
            hash::hash_i64(v, BLOOM_SEED_2),
        )
    }

    /// Insert every non-null value of a column.
    pub fn insert_column(&mut self, col: &Column) {
        let mut h1 = Vec::new();
        let mut h2 = Vec::new();
        col.hash_into(BLOOM_SEED_1, &mut h1);
        if self.needs_second_hash() {
            col.hash_into(BLOOM_SEED_2, &mut h2);
        }
        let second = |i: usize| if h2.is_empty() { 0 } else { h2[i] };
        match col.validity() {
            None => {
                for (i, &h) in h1.iter().enumerate() {
                    self.insert_hashes(h, second(i));
                }
            }
            Some(bm) => {
                for (i, &h) in h1.iter().enumerate() {
                    if bm.get(i) {
                        self.insert_hashes(h, second(i));
                    }
                }
            }
        }
    }

    /// Batch probe over pre-hashed keys: test the rows selected by `sel`
    /// (every row when `None`), appending survivors to the caller-owned
    /// `out` (cleared first). Rows `validity` marks null never survive — a
    /// NULL join key cannot match any build row. `h2` is unread for
    /// blocked-layout filters and may be empty then.
    ///
    /// This is the executor's hot path: the layout dispatch happens once
    /// per call, the per-row work is branch-light bit tests over hashes
    /// computed columnarly by the caller, and no allocation occurs once
    /// `out` has reached its steady-state capacity.
    pub fn probe_hashes_into(
        &self,
        h1: &[u64],
        h2: &[u64],
        validity: Option<&Bitmap>,
        sel: Option<&[u32]>,
        out: &mut Vec<u32>,
    ) {
        match self.layout {
            BloomLayout::Standard => {
                debug_assert_eq!(h1.len(), h2.len(), "standard layout needs both hashes");
                // `&` not `&&`: both loads issue unconditionally, so the
                // loop carries no data-dependent branch and the CPU overlaps
                // the (up to two) cache misses of consecutive keys.
                if let (None, None) = (sel, validity) {
                    // Hot shape (predicate-free scan): iterate the hash
                    // columns directly, no per-key index checks.
                    out.clear();
                    out.resize(h1.len(), 0);
                    let mut k = 0usize;
                    for (i, (&a, &b)) in h1.iter().zip(h2).enumerate() {
                        out[k] = i as u32;
                        k += (self.test_bit(a) & self.test_bit(b)) as usize;
                    }
                    out.truncate(k);
                } else {
                    probe_loop(h1.len(), validity, sel, out, |i| {
                        self.test_bit(h1[i]) & self.test_bit(h2[i])
                    });
                }
            }
            BloomLayout::Blocked => {
                let (blocks, rest) = self.words.as_chunks::<{ blocked::BLOCK_WORDS }>();
                debug_assert!(rest.is_empty());
                match (sel, validity) {
                    (None, None) => {
                        out.clear();
                        out.resize(h1.len(), 0);
                        let mut k = 0usize;
                        for (i, &h) in h1.iter().enumerate() {
                            out[k] = i as u32;
                            k += blocked::contains_blocks(blocks, h) as usize;
                        }
                        out.truncate(k);
                    }
                    (Some(sel), None) => {
                        out.clear();
                        out.resize(sel.len(), 0);
                        let mut k = 0usize;
                        for &i in sel {
                            out[k] = i;
                            k += blocked::contains_blocks(blocks, h1[i as usize]) as usize;
                        }
                        out.truncate(k);
                    }
                    _ => probe_loop(h1.len(), validity, sel, out, |i| {
                        blocked::contains_blocks(blocks, h1[i])
                    }),
                }
            }
        }
    }

    /// Probe the rows of `col` selected by `sel`, returning the surviving
    /// subset of `sel` (null keys never survive). Allocating convenience
    /// wrapper over [`BloomFilter::probe_hashes_into`]; hot paths hash the
    /// column once into reusable buffers instead.
    pub fn probe_selected(&self, col: &Column, sel: &[u32]) -> Vec<u32> {
        let mut h1 = Vec::new();
        let mut h2 = Vec::new();
        col.hash_into(BLOOM_SEED_1, &mut h1);
        if self.needs_second_hash() {
            col.hash_into(BLOOM_SEED_2, &mut h2);
        }
        let mut out = Vec::with_capacity(sel.len());
        self.probe_hashes_into(&h1, &h2, col.validity(), Some(sel), &mut out);
        out
    }

    /// Probe every row of `col`, returning the selection of survivors
    /// (without materializing an intermediate full selection vector).
    pub fn probe_all(&self, col: &Column) -> Vec<u32> {
        let mut h1 = Vec::new();
        let mut h2 = Vec::new();
        col.hash_into(BLOOM_SEED_1, &mut h1);
        if self.needs_second_hash() {
            col.hash_into(BLOOM_SEED_2, &mut h2);
        }
        let mut out = Vec::new();
        self.probe_hashes_into(&h1, &h2, col.validity(), None, &mut out);
        out
    }

    /// Bitwise union with a same-sized, same-layout filter (the merge
    /// operation used for broadcast-probe streaming, paper §3.9 strategy 2).
    ///
    /// # Panics
    /// Panics if the filters have different sizes or layouts — merging
    /// incompatible filters is a planning bug.
    pub fn union_with(&mut self, other: &BloomFilter) {
        assert_eq!(
            self.num_bits(),
            other.num_bits(),
            "cannot union differently sized Bloom filters"
        );
        assert_eq!(
            self.layout, other.layout,
            "cannot union differently laid-out Bloom filters"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
        self.inserted += other.inserted;
        self.ndv_hint = match (self.ndv_hint, other.ndv_hint) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
    }

    /// Fraction of bits set; near-1.0 means the filter is saturated and
    /// filters nothing.
    pub fn saturation(&self) -> f64 {
        let set: u64 = self.words.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / self.num_bits() as f64
    }

    /// Theoretical FPR at the current load under this filter's layout,
    /// using the distinct-key estimate when the builder recorded one
    /// (falling back to the duplicate-counting insert tally).
    pub fn estimated_fpr(&self) -> f64 {
        let n = self.ndv_hint.unwrap_or(self.inserted);
        fpr_for_layout(self.layout, self.num_bits() as f64, n as f64)
    }
}

/// Shared selection/validity iteration for batch probes; `test` is the
/// layout-specialized membership check, monomorphized per call site.
///
/// Survivors are written branch-free: every candidate index is stored and
/// the write cursor advances by the predicate — the classic selection-vector
/// compaction. Membership is data-random, so a conditional push would
/// mispredict on roughly every other key; the unconditional store costs one
/// predictable write and lets consecutive keys' filter loads overlap.
pub(crate) fn probe_loop(
    rows: usize,
    validity: Option<&Bitmap>,
    sel: Option<&[u32]>,
    out: &mut Vec<u32>,
    test: impl Fn(usize) -> bool,
) {
    let upper = sel.map_or(rows, <[u32]>::len);
    out.clear();
    out.resize(upper, 0);
    let mut k = 0usize;
    match (sel, validity) {
        (Some(sel), None) => {
            for &i in sel {
                out[k] = i;
                k += test(i as usize) as usize;
            }
        }
        (Some(sel), Some(bm)) => {
            for &i in sel {
                out[k] = i;
                k += (bm.get(i as usize) & test(i as usize)) as usize;
            }
        }
        (None, None) => {
            for i in 0..rows as u32 {
                out[k] = i;
                k += test(i as usize) as usize;
            }
        }
        (None, Some(bm)) => {
            for i in 0..rows as u32 {
                out[k] = i;
                k += (bm.get(i as usize) & test(i as usize)) as usize;
            }
        }
    }
    out.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_storage::Bitmap;

    #[test]
    fn no_false_negatives() {
        for layout in BloomLayout::ALL {
            let mut f = BloomFilter::with_expected_ndv_layout(1000, layout);
            for v in 0..1000i64 {
                f.insert_i64(v);
            }
            for v in 0..1000i64 {
                assert!(f.contains_i64(v), "false negative for {v} ({layout})");
            }
        }
    }

    #[test]
    fn false_positive_rate_in_expected_band() {
        for layout in BloomLayout::ALL {
            let n = 10_000i64;
            let mut f = BloomFilter::with_expected_ndv_layout(n as usize, layout);
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
                "observed fpr {observed} vs theoretical {theoretical} ({layout})"
            );
        }
    }

    #[test]
    fn column_insert_and_probe() {
        for layout in BloomLayout::ALL {
            let build = Column::Int64(vec![1, 2, 3, 4, 5], None);
            let mut f = BloomFilter::with_expected_ndv_layout(5, layout);
            f.insert_column(&build);
            let probe = Column::Int64(vec![3, 99, 1, 77_777], None);
            let sel = f.probe_all(&probe);
            // 3 and 1 must survive; the others may only survive as false
            // positives (essentially impossible at this load).
            assert!(sel.contains(&0) && sel.contains(&2));
            assert!(sel.len() <= 3);
        }
    }

    #[test]
    fn null_keys_are_filtered_out() {
        for layout in BloomLayout::ALL {
            let build = Column::Int64(vec![1, 2], None);
            let mut f = BloomFilter::with_expected_ndv_layout(2, layout);
            f.insert_column(&build);
            let probe = Column::Int64(vec![1, 1], Some(Bitmap::from_bools([true, false])));
            assert_eq!(f.probe_all(&probe), vec![0]);
        }
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
    fn probe_selected_respects_input_selection() {
        for layout in BloomLayout::ALL {
            let build = Column::Int64(vec![10, 20], None);
            let mut f = BloomFilter::with_expected_ndv_layout(2, layout);
            f.insert_column(&build);
            let probe = Column::Int64(vec![10, 20, 10, 20], None);
            let sel = f.probe_selected(&probe, &[1, 3]);
            assert_eq!(sel, vec![1, 3]);
        }
    }

    #[test]
    fn batch_probe_matches_scalar_probe() {
        for layout in BloomLayout::ALL {
            let mut f = BloomFilter::with_bits_layout(4096, layout);
            for v in (0..512i64).step_by(3) {
                f.insert_i64(v);
            }
            let vals: Vec<i64> = (0..512).collect();
            let col = Column::Int64(vals.clone(), None);
            let batch = f.probe_all(&col);
            let scalar: Vec<u32> = (0..vals.len() as u32)
                .filter(|&i| f.contains_i64(vals[i as usize]))
                .collect();
            assert_eq!(batch, scalar, "batch/scalar divergence ({layout})");
        }
    }

    #[test]
    fn union_or_bits_together() {
        for layout in BloomLayout::ALL {
            let mut a = BloomFilter::with_bits_layout(1024, layout);
            let mut b = BloomFilter::with_bits_layout(1024, layout);
            a.insert_i64(1);
            b.insert_i64(2);
            assert!(!a.contains_i64(2));
            a.union_with(&b);
            assert!(a.contains_i64(1) && a.contains_i64(2));
            assert_eq!(a.inserted_keys(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "differently sized")]
    fn union_size_mismatch_panics() {
        let mut a = BloomFilter::with_bits(1024);
        let b = BloomFilter::with_bits(2048);
        a.union_with(&b);
    }

    #[test]
    #[should_panic(expected = "differently laid-out")]
    fn union_layout_mismatch_panics() {
        let mut a = BloomFilter::with_bits_layout(1024, BloomLayout::Standard);
        let b = BloomFilter::with_bits_layout(1024, BloomLayout::Blocked);
        a.union_with(&b);
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
        let expect = crate::math::false_positive_rate(f.num_bits() as f64, 2.0, 10.0);
        assert!((distinct - expect).abs() < 1e-12);
    }

    #[test]
    fn string_keys() {
        for layout in BloomLayout::ALL {
            let build: bfq_storage::StrData = ["FRANCE", "GERMANY"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let mut f = BloomFilter::with_expected_ndv_layout(4, layout);
            f.insert_column(&Column::Utf8(build, None));
            let probe: bfq_storage::StrData =
                ["GERMANY", "JAPAN"].iter().map(|s| s.to_string()).collect();
            let sel = f.probe_all(&Column::Utf8(probe, None));
            assert!(sel.contains(&0));
        }
    }
}
