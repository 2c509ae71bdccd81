//! Property-based tests for the Bloom filter substrate: the no-false-negative
//! guarantee under arbitrary key sets (both bit layouts), merge semantics,
//! strategy equivalence, batch-probe/scalar-probe agreement, and the
//! blocked layout's FPR band.

use bfq_bloom::strategy::{build_filter, StreamingStrategy};
use bfq_bloom::{BloomFilter, BloomLayout, ProbeScratch};
use bfq_storage::Column;
use proptest::prelude::*;

proptest! {
    /// The defining property: no false negatives, for any key multiset and
    /// any (power-of-two) size, under either bit layout.
    #[test]
    fn never_false_negative(
        keys in proptest::collection::vec(any::<i64>(), 1..500),
        bits_log2 in 9u32..14,
    ) {
        for layout in BloomLayout::ALL {
            let mut f = BloomFilter::with_bits_layout(1 << bits_log2, layout);
            for &k in &keys {
                f.insert_i64(k);
            }
            for &k in &keys {
                prop_assert!(f.contains_i64(k), "false negative under {layout}");
            }
        }
    }

    /// Union contains exactly what either side would report.
    #[test]
    fn union_is_superset(
        a_keys in proptest::collection::vec(any::<i64>(), 0..200),
        b_keys in proptest::collection::vec(any::<i64>(), 0..200),
        probes in proptest::collection::vec(any::<i64>(), 1..100),
    ) {
        for layout in BloomLayout::ALL {
            let bits = 1 << 12;
            let mut a = BloomFilter::with_bits_layout(bits, layout);
            let mut b = BloomFilter::with_bits_layout(bits, layout);
            for &k in &a_keys { a.insert_i64(k); }
            for &k in &b_keys { b.insert_i64(k); }
            let mut u = a.clone();
            u.union_with(&b);
            for &p in &probes {
                // Anything either filter admits, the union admits. (The union
                // may admit additional false positives — bits set by different
                // keys can combine — so only this direction is a law.)
                if a.contains_i64(p) || b.contains_i64(p) {
                    prop_assert!(u.contains_i64(p));
                }
            }
        }
    }

    /// Every multi-thread §3.9 streaming strategy admits every inserted key
    /// (their survivor sets may differ only in false positives), under both
    /// layouts.
    #[test]
    fn strategies_admit_all_keys(
        keys in proptest::collection::vec(-10_000i64..10_000, 4..400),
        threads in 1usize..5,
    ) {
        let per = keys.len().div_ceil(threads);
        let cols: Vec<Column> = keys
            .chunks(per)
            .map(|c| Column::Int64(c.to_vec(), None))
            .collect();
        let probe = Column::Int64(keys.clone(), None);
        let all: Vec<u32> = (0..keys.len() as u32).collect();
        for layout in BloomLayout::ALL {
            for strat in [
                StreamingStrategy::BroadcastProbe,
                StreamingStrategy::PartitionUnaligned,
            ] {
                let f = build_filter(strat, &cols, keys.len(), layout);
                let survivors = f.probe(&probe, &all);
                prop_assert_eq!(
                    survivors.len(),
                    keys.len(),
                    "{:?}/{} dropped inserted keys", strat, layout
                );
            }
        }
    }

    /// The batched probe over pre-hashed columns returns exactly the rows
    /// the scalar probe admits — for any keys, probes, selection, and
    /// layout.
    #[test]
    fn batch_probe_equals_scalar_probe(
        keys in proptest::collection::vec(any::<i64>(), 1..300),
        probes in proptest::collection::vec(any::<i64>(), 1..300),
        layout_blocked in any::<bool>(),
    ) {
        let layout = if layout_blocked { BloomLayout::Blocked } else { BloomLayout::Standard };
        let mut f = BloomFilter::with_expected_ndv_layout(keys.len(), layout);
        for &k in &keys { f.insert_i64(k); }
        let rf = bfq_bloom::RuntimeFilter::single(f.clone());
        let col = Column::Int64(probes.clone(), None);
        // Every other row, as an arbitrary non-trivial selection.
        let sel: Vec<u32> = (0..probes.len() as u32).step_by(2).collect();
        let mut scratch = ProbeScratch::new();
        let mut out = Vec::new();
        rf.probe_into(&col, Some(&sel), &mut scratch, &mut out);
        let scalar: Vec<u32> = sel
            .iter()
            .copied()
            .filter(|&i| f.contains_i64(probes[i as usize]))
            .collect();
        prop_assert_eq!(out, scalar, "batch/scalar divergence under {}", layout);
    }

    /// Saturation is monotone under insertion and bounded by 1.
    #[test]
    fn saturation_monotone(keys in proptest::collection::vec(any::<i64>(), 1..300)) {
        let mut f = BloomFilter::with_bits(1 << 10);
        let mut last = 0.0f64;
        for &k in &keys {
            f.insert_i64(k);
            let s = f.saturation();
            prop_assert!(s >= last && s <= 1.0);
            last = s;
        }
    }
}

/// The blocked layout's observed false-positive rate lands in the band the
/// corrected theory predicts — above the uncorrected standard formula's
/// neighborhood is allowed, runaway collision behavior is not.
#[test]
fn blocked_fpr_within_theoretical_band() {
    for n in [4_096i64, 65_536] {
        let mut f = BloomFilter::with_expected_ndv_layout(n as usize, BloomLayout::Blocked);
        for v in 0..n {
            f.insert_i64(v);
        }
        let probes = 200_000i64;
        let fp = (n..n + probes).filter(|&v| f.contains_i64(v)).count();
        let observed = fp as f64 / probes as f64;
        let theory = bfq_bloom::blocked_fpr(f.num_bits() as f64, n as f64);
        assert!(
            observed < theory * 1.5 + 0.005,
            "n={n}: observed {observed} way above blocked theory {theory}"
        );
        assert!(
            observed > theory * 0.5 - 0.005,
            "n={n}: observed {observed} implausibly below blocked theory {theory}"
        );
    }
}
