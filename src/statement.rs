//! Prepared statements: optimize once, execute many times.
//!
//! A [`PreparedStatement`] holds the optimized plan of a statement that may
//! contain `?` / `$n` parameter placeholders. [`PreparedStatement::bind`]
//! specializes the cached plan by substituting concrete [`Datum`] values
//! into the parameter slots — a cheap tree rewrite, no re-optimization —
//! and the resulting [`BoundStatement`] executes gathered or streaming.
//!
//! The plan is *generic*: the optimizer estimated parameterized predicates
//! like unknown constants, so one plan serves every binding. This is the
//! classic prepared-plan trade-off, and it is what makes BF-CBO's
//! optimization cost amortizable across a repetitive workload.

use std::sync::Arc;

use bfq_catalog::Catalog;
use bfq_common::{BfqError, CancelHub, Datum, Result};
use bfq_core::{CachedPlan, OptimizedQuery, OptimizerConfig};
use bfq_exec::{execute_plan, execute_plan_stream};
use bfq_obs::{PhaseBreakdown, SpanTimer};
use bfq_plan::PhysicalPlan;

use crate::connection::{QueryOptions, QueryStream};
use crate::engine::{Engine, QueryResult};

/// A statement parsed, bound and optimized once, executable many times.
///
/// Shareable across threads (`Send + Sync`); cloning is cheap.
///
/// The optimizer config — including execution-only knobs like
/// `statement_timeout_ms` — is captured at prepare time, so a later `SET`
/// on the preparing session does not change how this statement executes.
/// Use [`PreparedStatement::with_session_options`] to re-apply a session's
/// current execution-only knobs at execute time.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    engine: Arc<Engine>,
    /// The catalog snapshot the plan was optimized against. Executing
    /// against this snapshot keeps plan and data consistent even if the
    /// engine's catalog is mutated after prepare.
    catalog: Arc<Catalog>,
    optimizer: OptimizerConfig,
    cached: Arc<CachedPlan>,
    cache_hit: bool,
    /// The statement text as prepared, kept for flight-recorder entries.
    sql: String,
    /// The preparing session's cancel hub: executions arm their token here
    /// so the session's out-of-band CANCEL reaches prepared queries too.
    hub: Arc<CancelHub>,
}

impl PreparedStatement {
    pub(crate) fn new(
        engine: Arc<Engine>,
        catalog: Arc<Catalog>,
        optimizer: OptimizerConfig,
        cached: Arc<CachedPlan>,
        cache_hit: bool,
        sql: String,
        hub: Arc<CancelHub>,
    ) -> PreparedStatement {
        PreparedStatement {
            engine,
            catalog,
            optimizer,
            cached,
            cache_hit,
            sql,
            hub,
        }
    }

    /// The statement text this was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The shared engine this statement was prepared on.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Number of parameter values [`PreparedStatement::bind`] expects.
    pub fn param_count(&self) -> usize {
        self.cached.param_count
    }

    /// Output column names.
    pub fn column_names(&self) -> &[String] {
        &self.cached.output_names
    }

    /// The generic (unbound) optimized plan.
    pub fn plan(&self) -> &Arc<PhysicalPlan> {
        &self.cached.optimized.plan
    }

    /// Whether preparing found the plan in the shared plan cache.
    pub fn from_cache(&self) -> bool {
        self.cache_hit
    }

    /// A copy of this statement whose *execution-only* knobs —
    /// `statement_timeout_ms`, `memory_budget_rows` and `profile` — are
    /// re-read from `options` (a session's current `SET` state) instead of
    /// the values captured at prepare time. The cached plan is reused
    /// as-is: these knobs are normalized out of the plan-cache
    /// fingerprint, so no replanning happens. Plan-shaping knobs
    /// (bloom/index modes, dop) intentionally stay as prepared.
    pub fn with_session_options(&self, options: &QueryOptions) -> PreparedStatement {
        let current = options.effective(&self.engine.config().optimizer);
        let mut stmt = self.clone();
        stmt.optimizer.statement_timeout_ms = current.statement_timeout_ms;
        stmt.optimizer.memory_budget_rows = current.memory_budget_rows;
        stmt.optimizer.profile = current.profile;
        stmt
    }

    /// Bind parameter values into the cached plan, producing an executable
    /// statement. `params.len()` must equal [`PreparedStatement::param_count`].
    pub fn bind(&self, params: &[Datum]) -> Result<BoundStatement> {
        if params.len() != self.cached.param_count {
            return Err(BfqError::invalid(format!(
                "statement expects {} parameter(s), got {}",
                self.cached.param_count,
                params.len()
            )));
        }
        let plan = if params.is_empty() {
            self.cached.optimized.plan.clone()
        } else {
            self.cached
                .optimized
                .plan
                .map_exprs(&|e| e.bind_params(params))
        };
        Ok(BoundStatement {
            stmt: self.clone(),
            plan,
        })
    }

    /// Convenience: bind and execute to a gathered result.
    pub fn execute(&self, params: &[Datum]) -> Result<QueryResult> {
        self.bind(params)?.execute()
    }

    /// Convenience: bind and execute, streaming result chunks.
    pub fn execute_stream(&self, params: &[Datum]) -> Result<QueryStream> {
        self.bind(params)?.execute_stream()
    }
}

/// A prepared statement with concrete parameter values substituted in.
#[derive(Debug, Clone)]
pub struct BoundStatement {
    stmt: PreparedStatement,
    plan: Arc<PhysicalPlan>,
}

impl BoundStatement {
    /// The executable (parameter-free) plan.
    pub fn plan(&self) -> &Arc<PhysicalPlan> {
        &self.plan
    }

    /// Execute to a gathered [`QueryResult`].
    ///
    /// The result's `cache_hit` is `true`: executing a prepared statement
    /// always reuses the plan held at prepare time — parse/optimize never
    /// run here (use [`PreparedStatement::from_cache`] for the
    /// prepare-time cache outcome).
    pub fn execute(&self) -> Result<QueryResult> {
        let span = SpanTimer::start();
        let (options, _guard) =
            crate::connection::armed_exec_options(&self.stmt.optimizer, &self.stmt.hub);
        let out = execute_plan(&self.plan, self.stmt.catalog.clone(), options)?;
        // Prepared executions skip parse/bind/optimize; their spans stay 0.
        let phases = PhaseBreakdown {
            execute_ns: span.elapsed_ns(),
            total_ns: span.elapsed_ns(),
            ..PhaseBreakdown::default()
        };
        let optimized = self.optimized();
        self.stmt.engine.observe_query(
            &self.stmt.sql,
            &optimized,
            true,
            &out.stats,
            out.chunk.rows() as u64,
            phases,
        );
        Ok(QueryResult {
            chunk: out.chunk,
            column_names: self.stmt.cached.output_names.clone(),
            optimized,
            exec_stats: out.stats,
            cache_hit: true,
            phases,
            statement_timeout_ms: self.stmt.optimizer.statement_timeout_ms,
            memory_budget_rows: self.stmt.optimizer.memory_budget_rows,
        })
    }

    /// Execute, yielding result chunks incrementally (`cache_hit` as in
    /// [`BoundStatement::execute`]).
    pub fn execute_stream(&self) -> Result<QueryStream> {
        let (options, guard) =
            crate::connection::armed_exec_options(&self.stmt.optimizer, &self.stmt.hub);
        let stream = execute_plan_stream(&self.plan, self.stmt.catalog.clone(), options)?;
        Ok(QueryStream::from_parts(
            self.stmt.cached.output_names.clone(),
            self.optimized(),
            true,
            stream,
            self.stmt.engine.clone(),
            self.stmt.sql.clone(),
            PhaseBreakdown::default(),
            guard,
        ))
    }

    fn optimized(&self) -> OptimizedQuery {
        OptimizedQuery {
            plan: self.plan.clone(),
            stats: self.stmt.cached.optimized.stats.clone(),
        }
    }
}
