//! Sizing and false-positive math shared by the runtime and the cost model.

/// Bits per cache-line block (64 bytes — one line), which is also the
/// smallest filter ever allocated.
pub const BLOCK_BITS: usize = 512;

/// Default bits budgeted per expected distinct key.
///
/// With k = 2 and 8 bits/key the textbook FPR is `(1 - e^(-2/8))^2 ≈ 4.9%`
/// and the blocked filter's ([`blocked_fpr`]) a little above it, in the
/// range production systems use for join-pruning filters.
pub const DEFAULT_BITS_PER_KEY: usize = 8;

/// Number of filter bits for an expected `ndv` distinct keys: the next power
/// of two ≥ `ndv * bits_per_key`, and at least one block.
pub fn bits_for_ndv(ndv: usize, bits_per_key: usize) -> usize {
    let want = ndv.saturating_mul(bits_per_key).max(BLOCK_BITS);
    want.next_power_of_two()
}

/// Theoretical false-positive rate of the filter: `m` total bits in 512-bit
/// blocks, k = 2 bits per key confined to the key's block.
///
/// The number of keys landing in one block is Binomial(n, B/m) ≈
/// Poisson(λ = nB/m); a block holding `j` keys answers a miss positively
/// with probability `(1 − 1/B)·p² + (1/B)·p` where `p = 1 − e^(−2j/B)` is
/// the per-position fill — the `1/B` term is the probe whose two derived
/// positions coincide (effectively k = 1). The overall FPR is the Poisson
/// mixture of the per-block rates, which is strictly ≥ the textbook
/// `(1 − e^(−2n/m))²` at the same size: the variance of the block loads is
/// the price of the single cache miss.
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

/// FPR of a filter sized at the default budget for `ndv` expected keys —
/// the quantity the cost model prices (paper §3.5's `fpr`).
pub fn default_fpr(ndv: f64) -> f64 {
    let m = bits_for_ndv(ndv.max(1.0) as usize, DEFAULT_BITS_PER_KEY) as f64;
    blocked_fpr(m, ndv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_is_power_of_two_and_bounded_below() {
        assert_eq!(bits_for_ndv(0, 8), BLOCK_BITS);
        assert_eq!(bits_for_ndv(1, 8), BLOCK_BITS);
        let bits = bits_for_ndv(1000, 8);
        assert!(bits >= 8000);
        assert!(bits.is_power_of_two());
    }

    #[test]
    fn default_fpr_reasonable() {
        let f = default_fpr(1_000_000.0);
        assert!(f > 0.0 && f < 0.10, "default fpr {f} out of expected band");
    }

    #[test]
    fn blocked_fpr_exceeds_textbook_but_stays_close() {
        for ndv in [1_000.0, 100_000.0, 2_000_000.0] {
            let m = bits_for_ndv(ndv as usize, DEFAULT_BITS_PER_KEY) as f64;
            let textbook = (1.0 - (-2.0 * ndv / m).exp()).powi(2);
            let blk = default_fpr(ndv);
            assert!(blk > textbook, "blocked fpr must include the correction");
            // The correction is real but small at 8 bits/key: well under 2x.
            assert!(
                blk < textbook * 2.0,
                "blocked {blk} vs textbook {textbook} at {ndv}"
            );
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
}
