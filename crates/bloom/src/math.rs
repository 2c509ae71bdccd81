//! Sizing and false-positive math shared by the runtime and the cost model.

use std::str::FromStr;

/// Number of hash functions; the paper fixes this at two (§3.5).
pub const NUM_HASHES: u32 = 2;

/// Bits per cache-line block in the blocked layout (64 bytes — one line).
pub const BLOCK_BITS: usize = 512;

/// Physical bit-placement layout of a Bloom filter.
///
/// Both layouts are k = 2 filters over the same key hashes; they differ
/// only in *where* the two bits live:
///
/// * `Standard` spreads both bits uniformly over the whole bit array —
///   the textbook layout, two independent cache misses per probe;
/// * `Blocked` confines both bits to one 512-bit (64-byte) block chosen
///   by the key's first hash, so a probe touches exactly one cache line
///   (the register-blocked design of Putze et al. and the Parquet
///   split-block filter). Block-local collisions raise the FPR slightly;
///   [`blocked_fpr`] quantifies the correction so the cost model stays
///   honest about the layout it runs.
///
/// `Blocked` is the default: with the probe path bandwidth-shaped, the
/// one-miss-per-probe layout wins end to end and the estimator's FPR math
/// follows it. `Standard` stays selectable (`SET bloom_layout = standard`);
/// a layout changes which rows a filter lets through by mistake, never a
/// query's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BloomLayout {
    /// Uniform bit placement over the whole array.
    Standard,
    /// Cache-line-blocked placement: one block, one miss per probe.
    #[default]
    Blocked,
}

impl BloomLayout {
    /// Display label (also the accepted `FromStr` spellings).
    pub fn label(self) -> &'static str {
        match self {
            BloomLayout::Standard => "standard",
            BloomLayout::Blocked => "blocked",
        }
    }

    /// All layouts.
    pub const ALL: [BloomLayout; 2] = [BloomLayout::Standard, BloomLayout::Blocked];

    /// Whether filters of this layout consume the second key hash: the
    /// blocked layout derives both bit positions from the first.
    pub fn needs_second_hash(self) -> bool {
        self == BloomLayout::Standard
    }
}

impl FromStr for BloomLayout {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "standard" | "std" => Ok(BloomLayout::Standard),
            "blocked" | "block" | "cacheline" => Ok(BloomLayout::Blocked),
            other => Err(format!(
                "unknown bloom layout `{other}` (expected standard | blocked)"
            )),
        }
    }
}

impl std::fmt::Display for BloomLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Default bits budgeted per expected distinct key.
///
/// With k = 2 and 8 bits/key the theoretical FPR is
/// `(1 - e^(-2/8))^2 ≈ 4.9%`, in the range production systems use for
/// join-pruning filters.
pub const DEFAULT_BITS_PER_KEY: usize = 8;

/// Smallest filter we ever allocate (64 bytes — one cache line).
pub const MIN_BITS: usize = 512;

/// Number of filter bits for an expected `ndv` distinct keys: the next power
/// of two ≥ `ndv * bits_per_key` (power-of-two sizing lets probes mask
/// instead of mod).
pub fn bits_for_ndv(ndv: usize, bits_per_key: usize) -> usize {
    let want = ndv.saturating_mul(bits_per_key).max(MIN_BITS);
    want.next_power_of_two()
}

/// Theoretical false-positive rate of a Bloom filter with `m` bits, `k`
/// hashes and `n` inserted keys: `(1 - e^(-kn/m))^k`.
pub fn false_positive_rate(m_bits: f64, k: f64, n_keys: f64) -> f64 {
    if m_bits <= 0.0 || n_keys <= 0.0 {
        return 0.0;
    }
    (1.0 - (-k * n_keys / m_bits).exp()).powf(k).clamp(0.0, 1.0)
}

/// Theoretical false-positive rate of a *blocked* filter: `m` total bits in
/// 512-bit blocks, k = 2 bits per key confined to the key's block.
///
/// The number of keys landing in one block is Binomial(n, B/m) ≈
/// Poisson(λ = nB/m); a block holding `j` keys answers a miss positively
/// with probability `(1 − 1/B)·p² + (1/B)·p` where `p = 1 − e^(−2j/B)` is
/// the per-position fill — the `1/B` term is the probe whose two derived
/// positions coincide (effectively k = 1). The overall FPR is the Poisson
/// mixture of the per-block rates, which is strictly ≥ the standard-layout
/// formula at the same size: the variance of the block loads is the price
/// of the single cache miss.
pub fn blocked_fpr(m_bits: f64, n_keys: f64) -> f64 {
    if m_bits <= 0.0 || n_keys <= 0.0 {
        return 0.0;
    }
    let b = BLOCK_BITS as f64;
    let lambda = n_keys * b / m_bits;
    // Walk the Poisson pmf iteratively until the remaining tail is noise.
    let mut pmf = (-lambda).exp();
    let mut fpr = 0.0;
    let mut covered = 0.0;
    let mut j = 0.0f64;
    loop {
        let p = 1.0 - (-2.0 * j / b).exp();
        fpr += pmf * ((1.0 - 1.0 / b) * p * p + (1.0 / b) * p);
        covered += pmf;
        if covered > 1.0 - 1e-12 || j > lambda + 12.0 * lambda.sqrt() + 40.0 {
            // Whatever tail mass remains belongs to overfull blocks; count
            // it as certain false positives so the estimate stays an upper
            // bound rather than silently optimistic.
            fpr += 1.0 - covered;
            break;
        }
        j += 1.0;
        pmf *= lambda / j;
    }
    fpr.clamp(0.0, 1.0)
}

/// FPR of a filter with `m` bits and `n` keys under the given layout.
pub fn fpr_for_layout(layout: BloomLayout, m_bits: f64, n_keys: f64) -> f64 {
    match layout {
        BloomLayout::Standard => false_positive_rate(m_bits, NUM_HASHES as f64, n_keys),
        BloomLayout::Blocked => blocked_fpr(m_bits, n_keys),
    }
}

/// FPR for the engine's default configuration given `ndv` expected keys.
pub fn default_fpr(ndv: f64) -> f64 {
    default_fpr_layout(BloomLayout::Standard, ndv)
}

/// FPR for the engine's default sizing given `ndv` expected keys, under the
/// layout the runtime will actually build — the quantity the cost model
/// must use so plan choice reflects the configured layout.
pub fn default_fpr_layout(layout: BloomLayout, ndv: f64) -> f64 {
    let m = bits_for_ndv(ndv.max(1.0) as usize, DEFAULT_BITS_PER_KEY) as f64;
    fpr_for_layout(layout, m, ndv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_is_power_of_two_and_bounded_below() {
        assert_eq!(bits_for_ndv(0, 8), MIN_BITS);
        assert_eq!(bits_for_ndv(1, 8), MIN_BITS);
        let bits = bits_for_ndv(1000, 8);
        assert!(bits >= 8000);
        assert!(bits.is_power_of_two());
    }

    #[test]
    fn fpr_matches_closed_form() {
        // m = 8n, k = 2: (1 - e^-0.25)^2.
        let expected = (1.0 - (-0.25f64).exp()).powi(2);
        let got = false_positive_rate(8000.0, 2.0, 1000.0);
        assert!((got - expected).abs() < 1e-12);
    }

    #[test]
    fn fpr_monotone_in_load() {
        let f1 = false_positive_rate(1024.0, 2.0, 10.0);
        let f2 = false_positive_rate(1024.0, 2.0, 100.0);
        let f3 = false_positive_rate(1024.0, 2.0, 1000.0);
        assert!(f1 < f2 && f2 < f3);
        assert!(f3 <= 1.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(false_positive_rate(0.0, 2.0, 10.0), 0.0);
        assert_eq!(false_positive_rate(100.0, 2.0, 0.0), 0.0);
    }

    #[test]
    fn default_fpr_reasonable() {
        let f = default_fpr(1_000_000.0);
        assert!(f > 0.0 && f < 0.10, "default fpr {f} out of expected band");
    }

    #[test]
    fn blocked_fpr_exceeds_standard_but_stays_close() {
        for ndv in [1_000.0, 100_000.0, 2_000_000.0] {
            let std = default_fpr_layout(BloomLayout::Standard, ndv);
            let blk = default_fpr_layout(BloomLayout::Blocked, ndv);
            assert!(blk > std, "blocked fpr must include the correction");
            // The correction is real but small at 8 bits/key: well under 2x.
            assert!(blk < std * 2.0, "blocked {blk} vs standard {std} at {ndv}");
        }
    }

    #[test]
    fn blocked_fpr_monotone_and_bounded() {
        let f1 = blocked_fpr(8192.0, 100.0);
        let f2 = blocked_fpr(8192.0, 1_000.0);
        let f3 = blocked_fpr(8192.0, 10_000.0);
        assert!(f1 < f2 && f2 < f3);
        assert!(f3 <= 1.0);
        assert_eq!(blocked_fpr(0.0, 10.0), 0.0);
        assert_eq!(blocked_fpr(8192.0, 0.0), 0.0);
    }

    #[test]
    fn layout_labels_round_trip() {
        for layout in BloomLayout::ALL {
            assert_eq!(layout.label().parse::<BloomLayout>(), Ok(layout));
        }
        assert!("nope".parse::<BloomLayout>().is_err());
        assert_eq!(BloomLayout::default(), BloomLayout::Blocked);
    }
}
