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
use bfq_core::{CachedPlan, OptimizedQuery};
use bfq_exec::{execute_plan, execute_plan_stream, ExecConfig, ExecOptions};
use bfq_obs::{PhaseBreakdown, SpanTimer};
use bfq_plan::PhysicalPlan;

use crate::connection::{arm, QueryStream};
use crate::engine::{Engine, QueryResult};

/// A statement parsed, bound and optimized once, executable many times.
///
/// Shareable across threads (`Send + Sync`); cloning is cheap.
///
/// What the statement executes under — the plan settings the executor
/// honours and the execution-only [`ExecConfig`] — is captured at prepare
/// time, so a later `SET` on the preparing session does not change how this
/// statement executes. Use [`PreparedStatement::with_session_options`] to
/// re-apply a session's current [`ExecConfig`] at execute time.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    engine: Arc<Engine>,
    /// The catalog snapshot the plan was optimized against. Executing
    /// against this snapshot keeps plan and data consistent even if the
    /// engine's catalog is mutated after prepare.
    catalog: Arc<Catalog>,
    /// The preparing session's executor options (no interruption token:
    /// each execution arms its own).
    options: ExecOptions,
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
        options: ExecOptions,
        cached: Arc<CachedPlan>,
        cache_hit: bool,
        sql: String,
        hub: Arc<CancelHub>,
    ) -> PreparedStatement {
        PreparedStatement {
            engine,
            catalog,
            options,
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

    /// A copy of this statement that executes under `exec` (a session's
    /// current [`crate::Settings::exec`]) instead of the [`ExecConfig`]
    /// captured at prepare time. The cached plan is reused as-is — nothing
    /// in an `ExecConfig` can change a plan — and the plan settings stay as
    /// prepared.
    pub fn with_session_options(&self, exec: ExecConfig) -> PreparedStatement {
        let mut stmt = self.clone();
        stmt.options.exec = exec;
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

    /// Convenience: bind and execute to a gathered result. Binding counts
    /// towards the result's `execute_ns` / `total_ns`.
    pub fn execute(&self, params: &[Datum]) -> Result<QueryResult> {
        let span = SpanTimer::start();
        self.bind(params)?.execute_from(span)
    }

    /// Convenience: bind and execute, streaming result chunks (binding
    /// timed as in [`PreparedStatement::execute`]).
    pub fn execute_stream(&self, params: &[Datum]) -> Result<QueryStream> {
        let span = SpanTimer::start();
        self.bind(params)?.execute_stream_from(span)
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
        self.execute_from(SpanTimer::start())
    }

    /// [`BoundStatement::execute`], timed from `span`.
    fn execute_from(&self, span: SpanTimer) -> Result<QueryResult> {
        let (options, _guard) = arm(self.stmt.options.clone(), &self.stmt.hub);
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
            exec: self.stmt.options.exec,
        })
    }

    /// Execute, yielding result chunks incrementally (`cache_hit` as in
    /// [`BoundStatement::execute`]).
    pub fn execute_stream(&self) -> Result<QueryStream> {
        self.execute_stream_from(SpanTimer::start())
    }

    /// [`BoundStatement::execute_stream`], timed from `span`.
    fn execute_stream_from(&self, span: SpanTimer) -> Result<QueryStream> {
        let (options, guard) = arm(self.stmt.options.clone(), &self.stmt.hub);
        let stream = execute_plan_stream(&self.plan, self.stmt.catalog.clone(), options)?;
        Ok(QueryStream::from_parts(
            self.stmt.cached.output_names.clone(),
            self.optimized(),
            true,
            stream,
            self.stmt.engine.clone(),
            self.stmt.sql.clone(),
            PhaseBreakdown::default(),
            span,
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
