//! Observability core for the bfq engine.
//!
//! Everything here is allocation-light and lock-free on the hot path:
//!
//! * [`Counter`] / [`Gauge`] — single relaxed atomics.
//! * [`LatencyHistogram`] — 64 log-bucketed (power-of-two nanosecond)
//!   atomic buckets plus count and sum, so recording a latency is three
//!   relaxed `fetch_add`s and quantiles (p50/p95/p99) are computed only at
//!   snapshot time.
//! * [`SpanTimer`] / [`PhaseBreakdown`] — wall-clock spans for the
//!   parse / bind / optimize / execute phases of a query.
//! * [`MetricsSnapshot`] — a point-in-time copy of an engine's counters and
//!   summaries with a Prometheus text-exposition renderer
//!   ([`MetricsSnapshot::to_prometheus_text`]) and the matching parser
//!   ([`MetricsSnapshot::parse_prometheus_text`]) so snapshots round-trip.
//! * [`FlightRecorder`] — a bounded ring of per-query [`QueryProfile`]s
//!   (sql, plan fingerprint, phase breakdown, cache outcome).
//!
//! The design contract mirrors the executor's `MorselScratch` pattern: all
//! per-morsel recording happens in per-worker scratch buffers owned by the
//! executor and is merged into shared state once at pipeline seal, so the
//! steady-state overhead of instrumentation stays near zero.

mod metrics;
mod phase;
mod recorder;
mod snapshot;

pub use metrics::{Counter, EngineMetrics, Gauge, HistogramSnapshot, LatencyHistogram};
pub use phase::{PhaseBreakdown, SpanTimer};
pub use recorder::{FlightRecorder, QueryProfile};
pub use snapshot::{MetricsSnapshot, SummarySnapshot};

/// FNV-1a fingerprint of a rendered plan (or any other text).
///
/// Used as the `plan_fingerprint` in [`QueryProfile`]: two queries share a
/// fingerprint exactly when their optimized plans render identically.
pub fn fingerprint(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint("Scan l"), fingerprint("Scan l"));
        assert_ne!(fingerprint("Scan l"), fingerprint("Scan o"));
        assert_ne!(fingerprint(""), fingerprint(" "));
    }
}
