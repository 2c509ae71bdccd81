//! The query flight recorder: a bounded ring of per-query profiles.

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::phase::PhaseBreakdown;

/// One completed query, as remembered by the [`FlightRecorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// The statement text as submitted.
    pub sql: String,
    /// FNV-1a fingerprint of the rendered optimized plan (see
    /// [`crate::fingerprint`]) — equal fingerprints mean identical plans.
    pub plan_fingerprint: u64,
    /// Wall-clock phase breakdown.
    pub phases: PhaseBreakdown,
    /// Whether the plan came from the shared plan cache.
    pub cache_hit: bool,
    /// Rows delivered.
    pub rows_out: u64,
}

/// A bounded, thread-safe ring buffer of recent [`QueryProfile`]s.
///
/// Recording is a short critical section (push + possible pop) on a
/// `parking_lot` mutex — queries record once at completion, never on the
/// morsel hot path, so contention is bounded by query throughput.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<QueryProfile>>,
}

impl FlightRecorder {
    /// A recorder remembering at most `capacity` queries (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// The fixed ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of profiles currently held (`<= capacity()`).
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// True when no query has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Record a completed query, evicting the oldest at capacity.
    pub fn record(&self, profile: QueryProfile) {
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(profile);
    }

    /// The recorded profiles, most recent first.
    pub fn recent(&self) -> Vec<QueryProfile> {
        let ring = self.ring.lock();
        ring.iter().rev().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(n: u64) -> QueryProfile {
        QueryProfile {
            sql: format!("select {n}"),
            plan_fingerprint: n,
            phases: PhaseBreakdown::default(),
            cache_hit: n.is_multiple_of(2),
            rows_out: n,
        }
    }

    #[test]
    fn ring_is_bounded_and_newest_first() {
        let rec = FlightRecorder::new(3);
        assert!(rec.is_empty());
        for n in 0..7 {
            rec.record(profile(n));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.capacity(), 3);
        let recent = rec.recent();
        let fps: Vec<u64> = recent.iter().map(|p| p.plan_fingerprint).collect();
        assert_eq!(fps, vec![6, 5, 4]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let rec = FlightRecorder::new(0);
        rec.record(profile(1));
        rec.record(profile(2));
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.recent()[0].plan_fingerprint, 2);
    }
}
