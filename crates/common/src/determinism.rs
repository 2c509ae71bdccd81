//! The `determinism` execution knob.
//!
//! [`Determinism`] selects how much ordering the morsel pipeline's sinks
//! and exchanges must preserve. Both modes are deterministic — running the
//! same query twice at the same degree of parallelism yields bitwise
//! identical results — the knob only chooses *which* deterministic order:
//!
//! * [`Determinism::Strict`] (the default): sinks consume morsel outputs
//!   in morsel-sequence order (partition-major), so results — float
//!   accumulation order included — are bit-exact run to run at a fixed
//!   (query, data, dop), and equal to the reference interpreter
//!   (`bfq-ref`) as a normalized multiset. This is the baseline `fast` is
//!   tested against.
//! * [`Determinism::Fast`]: morsels are assigned to workers round-robin
//!   and each worker folds a private partial state (aggregate hash table,
//!   sorted runs, repartition buckets) merged at seal in worker-index
//!   order. Row *sets* equal strict mode exactly; row order — and float
//!   accumulation order — may differ wherever the query does not impose a
//!   total ORDER BY.

use std::fmt;
use std::str::FromStr;

use crate::error::BfqError;

/// How much ordering the pipeline's sinks and exchanges preserve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Determinism {
    /// Sequence-ordered sinks: bit-exact run to run at a fixed (query,
    /// data, dop); equal to the reference interpreter as a normalized
    /// multiset.
    #[default]
    Strict,
    /// Per-worker partial states merged at seal: same row set, stable
    /// run-to-run order at fixed DOP, but not strict mode's order.
    Fast,
}

impl Determinism {
    /// Canonical knob spelling, as accepted by `SET determinism`.
    pub fn label(self) -> &'static str {
        match self {
            Determinism::Strict => "strict",
            Determinism::Fast => "fast",
        }
    }
}

impl fmt::Display for Determinism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Determinism {
    type Err = BfqError;

    fn from_str(s: &str) -> Result<Self, BfqError> {
        match s.to_ascii_lowercase().as_str() {
            "strict" => Ok(Determinism::Strict),
            "fast" => Ok(Determinism::Fast),
            other => Err(BfqError::invalid(format!(
                "unknown determinism `{other}` (strict|fast)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for mode in [Determinism::Strict, Determinism::Fast] {
            assert_eq!(mode.label().parse::<Determinism>().unwrap(), mode);
            assert_eq!(mode.to_string(), mode.label());
        }
        assert_eq!("FAST".parse::<Determinism>().unwrap(), Determinism::Fast);
        assert!("loose".parse::<Determinism>().is_err());
        assert_eq!(Determinism::default(), Determinism::Strict);
    }
}
