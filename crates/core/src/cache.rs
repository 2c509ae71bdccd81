//! A shared, thread-safe plan cache.
//!
//! The paper's BF-CBO pays its optimization cost once per plan; a serving
//! engine amortizes that cost across repeated executions. The cache maps a
//! *normalized* SQL text plus an [`crate::OptimizerConfig`] fingerprint to
//! the optimized physical plan (which may still contain `Expr::Param`
//! slots), so re-running the same statement — ad hoc or prepared — skips
//! parse/bind/optimize entirely.
//!
//! Keying on the config fingerprint is load-bearing: two connections with
//! different `bloom_mode` / `index_mode` / `dop` settings must not share
//! plans, because those knobs change both plan choice and the cost model.
//!
//! Eviction is LRU over a monotonic touch stamp. The map is small (default
//! 128 entries) so the O(n) eviction scan is noise next to one optimizer
//! run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::driver::OptimizedQuery;
use crate::OptimizerConfig;

/// A cached, optimized statement: everything needed to execute it again
/// without touching the SQL front end or the optimizer.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The optimized plan (may contain unbound `Expr::Param` slots).
    pub optimized: OptimizedQuery,
    /// Output column names, aligned with the final projection.
    pub output_names: Vec<String>,
    /// Parameter slots the statement requires.
    pub param_count: usize,
}

/// Snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found a usable plan.
    pub hits: u64,
    /// Lookups that missed (and triggered an optimizer run).
    pub misses: u64,
    /// Plans inserted.
    pub insertions: u64,
    /// Plans evicted to stay within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries (0 = caching disabled).
    pub capacity: usize,
}

impl PlanCacheStats {
    /// Hit fraction over all lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry {
    plan: Arc<CachedPlan>,
    touched: u64,
}

/// A thread-safe LRU plan cache keyed by normalized SQL + config
/// fingerprint (combined into one string by [`PlanCache::key`]).
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<HashMap<String, Entry>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    capacity: usize,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans; 0 disables caching (every
    /// lookup misses and insertions are dropped).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity,
        }
    }

    /// Combine normalized SQL and a config fingerprint into one cache key
    /// (built once per statement; lookups then borrow it).
    pub fn key(sql: &str, config_key: &str) -> String {
        // NUL never appears in tokenized SQL or a Debug fingerprint, so the
        // separator cannot collide.
        format!("{config_key}\u{0}{sql}")
    }

    /// Look up a plan by its combined key, recording a hit or miss.
    pub fn get(&self, key: &str) -> Option<Arc<CachedPlan>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut map = self.inner.lock();
        match map.get_mut(key) {
            Some(entry) => {
                entry.touched = self.clock.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.plan.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or replace) a plan, evicting the least-recently-used entry
    /// when over capacity.
    pub fn insert(&self, key: String, plan: Arc<CachedPlan>) {
        if self.capacity == 0 {
            return;
        }
        let mut map = self.inner.lock();
        let touched = self.clock.fetch_add(1, Ordering::Relaxed);
        map.insert(key, Entry { plan, touched });
        self.insertions.fetch_add(1, Ordering::Relaxed);
        while map.len() > self.capacity {
            let oldest = map
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone())
                .expect("non-empty map over capacity");
            map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop every cached plan (counters are preserved).
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().len(),
            capacity: self.capacity,
        }
    }
}

impl OptimizerConfig {
    /// A fingerprint of the whole config, used as part of the plan cache
    /// key so sessions with different optimizer settings never share plans.
    ///
    /// The `Debug` rendering covers all fields by construction, so a newly
    /// added field is included without further bookkeeping.
    pub fn cache_fingerprint(&self) -> String {
        format!("{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::OptimizerStats;
    use bfq_common::TableId;
    use bfq_expr::Layout;
    use bfq_plan::{Distribution, PhysicalNode, PhysicalPlan};

    fn dummy_plan() -> Arc<CachedPlan> {
        let plan = PhysicalPlan::new(
            PhysicalNode::Scan {
                base: TableId(0),
                rel_id: TableId(1 << 24),
                alias: "t".into(),
                projection: vec![],
                predicate: None,
                blooms: vec![],
            },
            Layout::new(vec![]),
            1.0,
            Distribution::Single,
        );
        Arc::new(CachedPlan {
            optimized: OptimizedQuery {
                plan,
                stats: OptimizerStats::default(),
            },
            output_names: vec![],
            param_count: 0,
        })
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = PlanCache::with_capacity(4);
        let k = PlanCache::key("select 1", "cfg");
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), dummy_plan());
        assert!(cache.get(&k).is_some());
        // A different config fingerprint is a different plan.
        assert!(cache
            .get(&PlanCache::key("select 1", "other-cfg"))
            .is_none());
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.insertions, 1);
        assert_eq!(s.entries, 1);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::with_capacity(2);
        cache.insert("a".into(), dummy_plan());
        cache.insert("b".into(), dummy_plan());
        // Touch `a` so `b` is the LRU victim.
        assert!(cache.get("a").is_some());
        cache.insert("d".into(), dummy_plan());
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none(), "LRU entry evicted");
        assert!(cache.get("d").is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::with_capacity(0);
        cache.insert("a".into(), dummy_plan());
        assert!(cache.get("a").is_none());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn config_fingerprint_distinguishes_plan_knobs() {
        let a = OptimizerConfig::default();
        let b = OptimizerConfig {
            dop: a.dop + 1,
            ..Default::default()
        };
        assert_ne!(a.cache_fingerprint(), b.cache_fingerprint());
        let c = OptimizerConfig {
            index_mode: crate::IndexMode::Off,
            ..Default::default()
        };
        assert_ne!(a.cache_fingerprint(), c.cache_fingerprint());
        let g = OptimizerConfig {
            semijoin: crate::SemijoinMode::Off,
            ..Default::default()
        };
        assert_ne!(a.cache_fingerprint(), g.cache_fingerprint());
        assert_eq!(
            a.cache_fingerprint(),
            OptimizerConfig::default().cache_fingerprint()
        );
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = PlanCache::with_capacity(4);
        cache.insert("a".into(), dummy_plan());
        assert!(cache.get("a").is_some());
        cache.clear();
        assert!(cache.get("a").is_none());
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.hits, 1);
    }
}
