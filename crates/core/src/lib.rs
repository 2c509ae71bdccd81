//! **BF-CBO**: Bloom-filter-aware bottom-up cost-based optimization.
//!
//! This crate is the reproduction of the paper's contribution (Zeyl et al.,
//! SIGMOD-Companion 2025). The pipeline over one query block:
//!
//! 1. [`candidates`] — *Marking Bloom filter candidates* (§3.3): pick
//!    `(apply, build)` column pairs from hashable join clauses, applying
//!    Heuristics 1–2 and the outer/anti-join correctness restrictions.
//! 2. [`phase1`] — *First bottom-up phase* (§3.4): enumerate join
//!    combinations without costing anything, populating each candidate's
//!    `Δ = [δ₀, δ₁, …]` of feasible build-side relation sets, pruning
//!    lossless FK→PK δ's (Heuristic 3).
//! 3. [`costing`] — *Costing Bloom filter sub-plans* (§3.5): create fully
//!    costed Bloom-filter scan sub-plans per δ combination (Heuristic 4
//!    applies all candidates simultaneously; Heuristics 5–6 drop oversized
//!    or unselective filters) and insert them into the relations' plan
//!    lists under δ-dominance pruning.
//! 4. [`phase2`] — *Second bottom-up phase* (§3.6): ordinary bottom-up DP
//!    over the enlarged plan lists subject to δ-legality: resolution only at
//!    hash joins whose build side covers δ, the Figure-3c chained-filter
//!    exception, and propagation of unresolved filters.
//! 5. [`post`] — *Post-processing* (§3.7): the BF-Post baseline, also run
//!    after BF-CBO to catch filters costing could not see.
//!
//! [`naive`] implements the strawman single-phase integration whose
//! super-exponential planning time motivates the two-phase design (§3.1).

pub mod cache;
pub mod candidates;
pub mod costing;
pub mod driver;
pub mod enumerate;
pub mod naive;
pub mod phase1;
pub mod phase2;
pub mod post;
pub mod subplan;
pub mod synth;

pub use cache::{CachedPlan, PlanCache, PlanCacheStats};
pub use candidates::{mark_candidates, BfCandidate};
pub use driver::{optimize, optimize_bare_block, optimize_block, OptimizedQuery, OptimizerStats};
pub use subplan::{PendingBf, PlanList, PlanRef, SubPlan};

use bfq_cost::CostParams;
pub use bfq_index::IndexMode;

/// How Bloom filters participate in optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BloomMode {
    /// No Bloom filters anywhere (the paper's "No BF" baseline).
    None,
    /// Optimize without Bloom filters, then add them in a post-processing
    /// walk (the paper's BF-Post baseline, §3.7/§4).
    Post,
    /// Full two-phase Bloom-filter-aware CBO (the paper's BF-CBO),
    /// followed by the retained post-processing pass.
    Cbo,
}

/// Optimizer configuration: mode, DOP, cost parameters and the heuristic
/// thresholds of §3.10/§4.1.
///
/// Every field can change the plan the optimizer picks, so the whole struct
/// is the plan-cache fingerprint ([`OptimizerConfig::cache_fingerprint`]).
/// A setting the optimizer does not read does not belong here — the
/// execution-only ones live in `bfq_exec::ExecConfig`.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Bloom filter mode.
    pub bloom_mode: BloomMode,
    /// Degree of parallelism assumed by the cost model and executor.
    pub dop: usize,
    /// Cost model constants.
    pub cost: CostParams,
    /// Heuristic 2: only mark candidates on relations with at least this
    /// many (estimated, post-local-predicate) rows. Paper: 10 000.
    pub bf_min_apply_rows: f64,
    /// Heuristic 6: keep a filter only if its semi-join selectivity
    /// (excluding false positives) is at most this. Paper: 2/3.
    pub bf_selectivity_threshold: f64,
    /// Heuristic 5: drop filters whose upper-bound build-side NDV exceeds
    /// this (keeps filters L2-resident). Paper: 2 000 000.
    pub bf_max_build_ndv: f64,
    /// Heuristic 7 master switch: cap Bloom-filter sub-plans per relation
    /// set. On by default: it changes no TPC-H plan at engine defaults and
    /// shrinks BF-CBO's search by about a quarter.
    pub h7_enabled: bool,
    /// Heuristic 7: if a relation set accumulates more than this many BF
    /// sub-plans, prune to the single fewest-rows one. Paper: 4.
    pub h7_max_subplans: usize,
    /// Heuristic 8 master switch: skip Bloom planning entirely for small
    /// queries.
    pub h8_enabled: bool,
    /// Heuristic 8: total join-input cardinality below which Bloom
    /// candidates are skipped.
    pub h8_min_join_input: f64,
    /// Heuristic 9: also consider candidates on the *smaller* relation of a
    /// clause, keeping only δ's smaller than the apply side.
    pub h9_enabled: bool,
    /// Cap on Bloom-filter scan sub-plans generated per relation (safety
    /// valve against pathological Δ products; far above anything TPC-H
    /// produces).
    pub max_bf_subplans_per_rel: usize,
    /// How much of the per-chunk zone-map/Bloom index (`bfq-index`) scans
    /// consult at runtime — and the estimator consults at plan time, so
    /// data skipping feeds back into plan choice. Off / zone maps only /
    /// zone maps + chunk Bloom probes.
    pub index_mode: IndexMode,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            bloom_mode: BloomMode::Cbo,
            dop: 4,
            cost: CostParams::default(),
            bf_min_apply_rows: 10_000.0,
            bf_selectivity_threshold: 2.0 / 3.0,
            bf_max_build_ndv: 2_000_000.0,
            h7_enabled: true,
            h7_max_subplans: 4,
            h8_enabled: false,
            h8_min_join_input: 100_000.0,
            h9_enabled: false,
            max_bf_subplans_per_rel: 64,
            index_mode: IndexMode::default(),
        }
    }
}

impl OptimizerConfig {
    /// A config with the given mode and defaults elsewhere.
    pub fn with_mode(mode: BloomMode) -> Self {
        OptimizerConfig {
            bloom_mode: mode,
            ..Default::default()
        }
    }

    /// Builder-style DOP override.
    pub fn dop(mut self, dop: usize) -> Self {
        self.dop = dop.max(1);
        self
    }

    /// Builder-style index-mode override (data-skipping ablation knob).
    pub fn index_mode(mut self, mode: IndexMode) -> Self {
        self.index_mode = mode;
        self
    }
}
