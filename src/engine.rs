//! The shared, thread-safe engine: catalog + configuration + plan cache.
//!
//! [`Engine`] is the process-wide object a serving deployment creates once
//! and shares across every client thread (it is `Send + Sync`; hand out
//! `Arc<Engine>` clones freely). Per-client state lives in cheap
//! [`Connection`]s created with [`Engine::connect`].
//!
//! The engine owns an LRU [`PlanCache`] keyed by *normalized SQL* plus the
//! [`OptimizerConfig`] fingerprint: re-executing the same statement under
//! the same optimizer settings — ad hoc or prepared — skips
//! parse/bind/optimize entirely. This amortizes BF-CBO's optimization cost
//! across the repetitive workloads where Bloom-aware plans pay off, exactly
//! the regime the paper targets.

use std::sync::Arc;

use bfq_catalog::Catalog;
use bfq_common::{Result, TableId};
use bfq_core::{optimize, CachedPlan, OptimizedQuery, OptimizerConfig, PlanCache, PlanCacheStats};
use bfq_exec::{ExecConfig, ExecStats};
use bfq_obs::{fingerprint, EngineMetrics, FlightRecorder, SpanTimer};
use bfq_plan::{Bindings, PhysicalNode};
use bfq_sql::{bind, normalize_sql, parse_select};
use bfq_storage::{Chunk, Table};
use bfq_tpch::TpchDb;
use parking_lot::RwLock;

use crate::connection::Connection;
use crate::settings::Settings;

pub use bfq_core::BloomMode;
pub use bfq_index::IndexMode;
pub use bfq_obs::{MetricsSnapshot, PhaseBreakdown, QueryProfile};

/// Engine-wide configuration: the default [`Settings`] plus cache sizing.
///
/// Immutable once the engine exists. Every connection starts from a copy of
/// `settings` and changes its own copy with [`Connection::set`];
/// `SET x = default` copies `x` back from here.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The settings every connection starts from: the optimizer's config
    /// (Bloom mode, DOP, heuristics) and the execution-only ones.
    pub settings: Settings,
    /// Maximum plans held by the shared plan cache (0 disables caching).
    pub plan_cache_capacity: usize,
    /// Queries remembered by the flight recorder ring
    /// ([`Engine::recent_queries`]); clamped to at least 1.
    pub flight_recorder_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            settings: Settings::default(),
            plan_cache_capacity: 128,
            flight_recorder_capacity: 32,
        }
    }
}

impl EngineConfig {
    /// Set the Bloom filter mode.
    pub fn with_bloom_mode(mut self, mode: BloomMode) -> Self {
        self.settings.plan.bloom_mode = mode;
        self
    }

    /// Set the degree of parallelism.
    pub fn with_dop(mut self, dop: usize) -> Self {
        self.settings.plan.dop = dop.max(1);
        self
    }

    /// Set the data-skipping index mode (off / zonemap / zonemap+bloom).
    pub fn with_index_mode(mut self, mode: IndexMode) -> Self {
        self.settings.plan.index_mode = mode;
        self
    }

    /// Set the plan cache capacity (0 disables plan caching).
    pub fn with_plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan_cache_capacity = capacity;
        self
    }

    /// Set how many recent queries the flight recorder remembers.
    pub fn with_flight_recorder_capacity(mut self, capacity: usize) -> Self {
        self.flight_recorder_capacity = capacity;
        self
    }

    /// Toggle per-node runtime profiling (`EXPLAIN ANALYZE` timings).
    pub fn with_profile(mut self, enabled: bool) -> Self {
        self.settings.exec.profile = enabled;
        self
    }

    /// Set the default per-statement timeout in milliseconds (0 = off).
    /// Connections can override it per session via `SET statement_timeout`.
    pub fn with_statement_timeout_ms(mut self, ms: u64) -> Self {
        self.settings.exec.statement_timeout_ms = ms;
        self
    }

    /// Set the default per-query buffered-rows budget (0 = off).
    /// Connections can override it via `SET memory_budget_rows`.
    pub fn with_memory_budget_rows(mut self, rows: u64) -> Self {
        self.settings.exec.memory_budget_rows = rows;
        self
    }
}

/// The result of running one query to completion.
pub struct QueryResult {
    /// Result rows, gathered into one chunk.
    pub chunk: Chunk,
    /// Output column names.
    pub column_names: Vec<String>,
    /// The optimized plan (EXPLAIN material).
    pub optimized: OptimizedQuery,
    /// Runtime per-node row counts.
    pub exec_stats: ExecStats,
    /// Whether planning was skipped for this execution: `true` on a shared
    /// plan-cache hit, and always `true` when executing a prepared
    /// statement (it holds its plan from prepare time).
    pub cache_hit: bool,
    /// Wall-clock phase breakdown (parse / bind / optimize are zero on a
    /// plan-cache hit or prepared execution — those phases did not run).
    pub phases: PhaseBreakdown,
    /// The execution-only settings this query ran under.
    pub exec: ExecConfig,
}

/// The q-error of an estimate: `max(est/actual, actual/est)`, both sides
/// floored at one row so empty results don't divide by zero. Always `>= 1`;
/// 1 means the estimate was exact.
fn q_error(est: f64, actual: u64) -> f64 {
    let est = est.max(1.0);
    let actual = (actual as f64).max(1.0);
    (est / actual).max(actual / est)
}

impl QueryResult {
    /// EXPLAIN-style rendering of the executed plan, followed by the
    /// chunk-skipping counters of every scan that consulted the per-chunk
    /// index (`bfq-index` data skipping) and the plan-cache outcome.
    pub fn explain(&self) -> String {
        let mut out = self.optimized.plan.explain(&|c| c.to_string());
        let mut prune_lines = Vec::new();
        self.optimized.plan.visit(&mut |node| {
            if let PhysicalNode::Scan { alias, .. } = &node.node {
                if let Some(p) = self.exec_stats.prune_of(node.id) {
                    if p.skipped() > 0 {
                        prune_lines.push(format!(
                            "  {alias}: {}/{} chunks skipped \
                             (zonemap {}, bloom {}, filterkeys {}), \
                             {} rows pruned",
                            p.skipped(),
                            p.chunks,
                            p.skipped_zonemap,
                            p.skipped_bloom,
                            p.skipped_rfilter,
                            p.rows_pruned
                        ));
                    }
                }
            }
        });
        if !prune_lines.is_empty() {
            out.push_str("index pruning:\n");
            for line in prune_lines {
                out.push_str(&line);
                out.push('\n');
            }
        }
        self.push_footer(&mut out);
        out
    }

    /// `EXPLAIN ANALYZE`-style rendering: the executed plan annotated with
    /// per-node actual rows, est-vs-actual q-error, wall time and morsel
    /// counts, followed by observed-vs-predicted runtime-filter pass rates,
    /// the phase breakdown, and the counters [`QueryResult::explain`] shows.
    ///
    /// Chain operators report *self* time summed across workers (it can
    /// exceed the query's wall clock at dop > 1); pipeline breakers report
    /// the wall time of their whole stage, sealed once (`morsels` omitted).
    pub fn explain_analyze(&self) -> String {
        let stats = &self.exec_stats;
        let mut out = self
            .optimized
            .plan
            .explain_annotated(&|c| c.to_string(), &|node| {
                let mut s = String::new();
                if let Some(actual) = stats.actual(node.id) {
                    s.push_str(&format!(
                        ", actual_rows={actual}, q_err={:.2}",
                        q_error(node.est_rows, actual)
                    ));
                }
                if let Some(p) = stats.profile_of(node.id) {
                    s.push_str(&format!(", time={:.2}ms", p.wall_ns as f64 / 1e6));
                    if p.morsels > 0 {
                        s.push_str(&format!(", morsels={}", p.morsels));
                    }
                }
                s
            });
        // Observed probe pass rates next to the predictions (§3.5) that
        // justified placing each filter — the planner's feedback signal.
        let mut filter_lines = Vec::new();
        self.optimized.plan.visit(&mut |node| {
            let (alias, blooms) = match &node.node {
                PhysicalNode::Scan { alias, blooms, .. }
                | PhysicalNode::DerivedScan { alias, blooms, .. } => (alias, blooms),
                _ => return,
            };
            for b in blooms {
                let observed = match stats.filter_observation(b.filter.0) {
                    Some(o) => match o.pass_rate() {
                        Some(rate) => format!(
                            "observed pass {rate:.4} ({}/{} rows)",
                            o.rows_out, o.rows_in
                        ),
                        None => "no rows probed".to_string(),
                    },
                    None => "no rows probed".to_string(),
                };
                filter_lines.push(format!(
                    "  {} @ {alias}: predicted pass {:.4} (fpr {:.4}), {observed}",
                    b.filter, b.predicted_pass, b.predicted_fpr
                ));
            }
        });
        if !filter_lines.is_empty() {
            out.push_str("runtime filters:\n");
            for line in filter_lines {
                out.push_str(&line);
                out.push('\n');
            }
        }
        if stats.filter_builds() > 0 {
            out.push_str(&format!(
                "filter builds: {} ({:.2}ms)\n",
                stats.filter_builds(),
                stats.filter_build_ns() as f64 / 1e6
            ));
        }
        // Directory-collision overhead of the flat join tables: candidates
        // the directory lookup emitted vs pairs that survived exact key
        // verification (the gap is hash-collision work, analogous to the
        // Bloom FPR lines above).
        if stats.join_probe_candidates() > 0 {
            out.push_str(&format!(
                "join probes: {} candidates, {} matched\n",
                stats.join_probe_candidates(),
                stats.join_probe_verified()
            ));
        }
        out.push_str(&format!("phases: {}\n", self.phases.render()));
        self.push_footer(&mut out);
        out
    }

    /// The footer shared by [`QueryResult::explain`] and
    /// [`QueryResult::explain_analyze`]: executor health counters, the
    /// plan-cache outcome, and the ordering contract.
    fn push_footer(&self, out: &mut String) {
        out.push_str(&format!(
            "window stalls: {}\n",
            self.exec_stats.window_stalls()
        ));
        out.push_str(&format!(
            "filter scratch allocs: {}\n",
            self.exec_stats.filter_scratch_allocs()
        ));
        out.push_str(if self.cache_hit {
            "plan cache: hit\n"
        } else {
            "plan cache: miss\n"
        });
        if self.exec.statement_timeout_ms > 0 {
            out.push_str(&format!(
                "statement timeout: {}ms\n",
                self.exec.statement_timeout_ms
            ));
        }
        if self.exec.memory_budget_rows > 0 {
            out.push_str(&format!(
                "memory budget: {} rows (peak buffered {})\n",
                self.exec.memory_budget_rows,
                self.exec_stats.peak_buffered_rows()
            ));
        }
    }
}

/// The shared query engine. Create once, share via `Arc`, connect per
/// client.
#[derive(Debug)]
pub struct Engine {
    /// The current catalog snapshot. Mutation
    /// ([`Engine::register_table`] / [`Engine::replace_table`]) swaps in a
    /// new snapshot; in-flight queries keep executing against the `Arc`
    /// they already cloned.
    catalog: RwLock<Arc<Catalog>>,
    /// Serializes catalog mutators so the expensive rebuild (statistics +
    /// per-chunk indexes) happens outside the `catalog` lock without two
    /// mutators losing each other's updates.
    mutation: parking_lot::Mutex<()>,
    config: EngineConfig,
    cache: PlanCache,
    /// Engine-wide counters and latency histograms ([`Engine::metrics`]).
    metrics: EngineMetrics,
    /// Bounded ring of recent query profiles ([`Engine::recent_queries`]).
    recorder: FlightRecorder,
}

impl Engine {
    /// An engine over a generated TPC-H database.
    pub fn new(db: TpchDb, config: EngineConfig) -> Arc<Engine> {
        Engine::over_catalog(Arc::new(db.catalog), config)
    }

    /// An engine over an arbitrary catalog.
    pub fn over_catalog(catalog: Arc<Catalog>, config: EngineConfig) -> Arc<Engine> {
        let cache = PlanCache::with_capacity(config.plan_cache_capacity);
        let recorder = FlightRecorder::new(config.flight_recorder_capacity);
        Arc::new(Engine {
            catalog: RwLock::new(catalog),
            mutation: parking_lot::Mutex::new(()),
            config,
            cache,
            metrics: EngineMetrics::new(),
            recorder,
        })
    }

    /// Open a new connection: cheap, with its own copy of the settings.
    pub fn connect(self: &Arc<Self>) -> Connection {
        Connection::new(self.clone())
    }

    /// The current catalog snapshot.
    pub fn catalog(&self) -> Arc<Catalog> {
        self.catalog.read().clone()
    }

    /// Register a new table, making it visible to subsequent queries.
    ///
    /// The plan cache is invalidated (and every cache key carries the
    /// catalog version besides), so no statement can keep executing a plan
    /// optimized against the previous catalog.
    pub fn register_table(&self, table: Table, unique_columns: Vec<u32>) -> Result<TableId> {
        self.mutate_catalog(|catalog| catalog.register(table, unique_columns))
    }

    /// Replace a registered table's data (same name, same id), refreshing
    /// statistics and per-chunk indexes, and invalidating the plan cache.
    pub fn replace_table(&self, table: Table, unique_columns: Vec<u32>) -> Result<TableId> {
        self.mutate_catalog(|catalog| catalog.replace(table, unique_columns))
    }

    fn mutate_catalog<T>(&self, f: impl FnOnce(&mut Catalog) -> Result<T>) -> Result<T> {
        // Serialize mutators, but do the expensive part (statistics and
        // per-chunk index rebuilds inside `f`) on a private copy with no
        // catalog lock held — concurrent planning keeps reading the old
        // snapshot. Copy-on-write: queries already holding the old Arc are
        // undisturbed either way.
        let _mutators = self.mutation.lock();
        let mut next = (**self.catalog.read()).clone();
        let out = f(&mut next)?;
        *self.catalog.write() = Arc::new(next);
        // Belt and braces: the version in the cache key already isolates
        // old plans, but they can never be reached again — drop them now.
        self.clear_plan_cache();
        Ok(out)
    }

    /// The engine-wide configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Plan-cache effectiveness counters (hits, misses, evictions, …).
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
    }

    /// A point-in-time snapshot of the engine-wide metrics: queries run,
    /// rows delivered, plan-cache and prune counters, runtime-filter
    /// build/probe totals, and p50/p95/p99 latency histograms per phase.
    /// Render with [`MetricsSnapshot::to_prometheus_text`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let cache = self.cache.stats();
        self.metrics.snapshot(&[
            ("bfq_plan_cache_hits_total", cache.hits),
            ("bfq_plan_cache_misses_total", cache.misses),
            ("bfq_plan_cache_insertions_total", cache.insertions),
            ("bfq_plan_cache_evictions_total", cache.evictions),
        ])
    }

    /// The flight recorder's ring of recent query profiles, newest first.
    pub fn recent_queries(&self) -> Vec<QueryProfile> {
        self.recorder.recent()
    }

    /// Fold one completed query into the metrics registry and the flight
    /// recorder. Called once per statement at completion — never on the
    /// morsel hot path.
    pub(crate) fn observe_query(
        &self,
        sql: &str,
        optimized: &OptimizedQuery,
        cache_hit: bool,
        stats: &ExecStats,
        rows_out: u64,
        phases: PhaseBreakdown,
    ) {
        let m = &self.metrics;
        m.queries.inc();
        m.rows_out.add(rows_out);
        let prune = stats.prune_totals();
        m.prune_chunks.add(prune.chunks);
        m.prune_chunks_skipped.add(prune.skipped());
        m.prune_rows.add(prune.rows_pruned);
        m.filter_builds.add(stats.filter_builds());
        let (probe, pass) = stats
            .filter_observations()
            .values()
            .fold((0, 0), |(p, s), o| (p + o.rows_in, s + o.rows_out));
        m.filter_probe_rows.add(probe);
        m.filter_pass_rows.add(pass);
        m.window_stalls.add(stats.window_stalls());
        m.filter_scratch_allocs.add(stats.filter_scratch_allocs());
        m.join_probe_candidates.add(stats.join_probe_candidates());
        m.join_probe_verified.add(stats.join_probe_verified());
        m.record_phases(&phases);
        self.recorder.record(QueryProfile {
            sql: sql.to_string(),
            plan_fingerprint: fingerprint(&optimized.plan.explain(&|c| c.to_string())),
            phases,
            cache_hit,
            rows_out,
        });
    }

    /// Drop all cached plans (counters survive). Useful after statistics
    /// or configuration changes that should invalidate prior planning.
    pub fn clear_plan_cache(&self) {
        self.cache.clear();
    }

    /// Parse, bind and optimize `sql` under `optimizer`, consulting the
    /// shared plan cache first. Returns the catalog snapshot the plan was
    /// made against, the (possibly still parameterized) plan, whether it
    /// was a cache hit, and the wall-clock planning phases (all zero on a
    /// hit — the cached plan skips parse/bind/optimize entirely).
    ///
    /// The cache key includes [`Catalog::version`], so registering or
    /// replacing a table can never serve a stale plan.
    pub(crate) fn plan_statement(
        &self,
        sql: &str,
        optimizer: &OptimizerConfig,
    ) -> Result<(Arc<Catalog>, Arc<CachedPlan>, bool, PhaseBreakdown)> {
        let catalog = self.catalog();
        let config_key = format!("v{}:{}", catalog.version(), optimizer.cache_fingerprint());
        let key = PlanCache::key(&normalize_sql(sql)?, &config_key);
        if let Some(hit) = self.cache.get(&key) {
            return Ok((catalog, hit, true, PhaseBreakdown::default()));
        }
        let mut phases = PhaseBreakdown::default();
        let span = SpanTimer::start();
        let stmt = parse_select(sql)?;
        phases.parse_ns = span.elapsed_ns();
        let mut bindings = Bindings::new();
        let span = SpanTimer::start();
        let bound = bind(&stmt, &catalog, &mut bindings)?;
        phases.bind_ns = span.elapsed_ns();
        let span = SpanTimer::start();
        let optimized = optimize(&bound.plan, &mut bindings, &catalog, optimizer)?;
        phases.optimize_ns = span.elapsed_ns();
        let cached = Arc::new(CachedPlan {
            optimized,
            output_names: bound.output_names,
            param_count: bound.param_count,
        });
        self.cache.insert(key, cached.clone());
        Ok((catalog, cached, false, phases))
    }
}
