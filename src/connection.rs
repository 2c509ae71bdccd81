//! Per-client connections and session-level (`SET`-style) options.
//!
//! A [`Connection`] is cheap to create — an `Arc` clone of the shared
//! [`Engine`] plus a copy of its [`Settings`] — so a server can open one
//! per client or per request. Connections are independent: a `SET` on one
//! never affects another, while all of them share the engine's catalog and
//! plan cache.

use std::sync::Arc;

use bfq_common::{BfqError, CancelHub, CancelToken, DataType, Result};
use bfq_core::OptimizedQuery;
use bfq_exec::{
    execute_plan, execute_plan_stream, ChunkStream, ExecConfig, ExecOptions, ExecStats,
};
use bfq_obs::{PhaseBreakdown, SpanTimer};
use bfq_plan::Bindings;
use bfq_sql::{plan_sql, strip_explain, ExplainMode};
use bfq_storage::{Chunk, Column, StrData};

use crate::engine::{Engine, QueryResult};
use crate::settings::Settings;
use crate::statement::PreparedStatement;

/// A client connection to a shared [`Engine`].
#[derive(Debug, Clone)]
pub struct Connection {
    engine: Arc<Engine>,
    /// This session's settings, resolved: a copy of the engine defaults
    /// with every `SET` since applied.
    settings: Settings,
    /// Rendezvous for out-of-band cancellation of this session's in-flight
    /// query. Clones of a connection share the hub (they are the same
    /// session); fresh connections get their own.
    cancel_hub: Arc<CancelHub>,
}

impl Connection {
    pub(crate) fn new(engine: Arc<Engine>) -> Connection {
        let settings = engine.config().settings.clone();
        Connection {
            engine,
            settings,
            cancel_hub: CancelHub::new(),
        }
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The session's cancellation hub. Another thread holding this `Arc`
    /// can interrupt whatever query the connection is running
    /// ([`CancelHub::cancel`]) — a no-op when the session is idle.
    pub fn cancel_hub(&self) -> &Arc<CancelHub> {
        &self.cancel_hub
    }

    /// The settings this connection currently plans and executes under.
    /// `settings().plan` is what keys the plan cache, so two connections
    /// that differ there never share plans.
    pub fn settings(&self) -> &Settings {
        &self.settings
    }

    /// `SET key = value` for this connection. The accepted keys and values
    /// are the rows of [`crate::settings::SETTINGS`]; the value `default`
    /// resets a key to the engine default.
    pub fn set(&mut self, key: &str, value: &str) -> Result<()> {
        self.settings
            .set(key, value, &self.engine.config().settings)
    }

    /// Run a parameter-free statement to completion (plan-cache aware).
    ///
    /// An `EXPLAIN` prefix plans without executing and returns the rendered
    /// plan as rows; `EXPLAIN ANALYZE` executes the statement and returns
    /// the plan annotated with actual rows, per-node wall times and
    /// observed runtime-filter pass rates
    /// ([`QueryResult::explain_analyze`]).
    ///
    /// Otherwise executes on the morsel-driven pipeline executor;
    /// [`Connection::execute_stream`] delivers the identical rows (same
    /// order) incrementally instead of gathered.
    pub fn run_sql(&self, sql: &str) -> Result<QueryResult> {
        let (mode, stmt) = strip_explain(sql);
        match mode {
            ExplainMode::None => self.run_select(stmt),
            ExplainMode::Plan => {
                let total = SpanTimer::start();
                let (_catalog, cached, cache_hit, mut phases) =
                    self.engine.plan_statement(stmt, &self.settings.plan)?;
                phases.total_ns = total.elapsed_ns();
                let mut result = QueryResult {
                    chunk: Chunk::of_rows(0),
                    column_names: vec!["plan".into()],
                    optimized: cached.optimized.clone(),
                    exec_stats: ExecStats::new(),
                    cache_hit,
                    phases,
                    exec: self.settings.exec,
                };
                result.chunk = text_chunk(&result.explain());
                Ok(result)
            }
            ExplainMode::Analyze => {
                let mut result = self.run_select(stmt)?;
                result.chunk = text_chunk(&result.explain_analyze());
                result.column_names = vec!["plan".into()];
                Ok(result)
            }
        }
    }

    /// Plan (cache-aware), execute gathered, and record the query in the
    /// engine's metrics and flight recorder.
    fn run_select(&self, sql: &str) -> Result<QueryResult> {
        let total = SpanTimer::start();
        let (catalog, cached, cache_hit, mut phases) = self.plan_parameter_free(sql)?;
        let span = SpanTimer::start();
        let (options, _guard) = arm(self.exec_options(), &self.cancel_hub);
        let out = execute_plan(&cached.optimized.plan, catalog, options)?;
        phases.execute_ns = span.elapsed_ns();
        phases.total_ns = total.elapsed_ns();
        self.engine.observe_query(
            sql,
            &cached.optimized,
            cache_hit,
            &out.stats,
            out.chunk.rows() as u64,
            phases,
        );
        Ok(QueryResult {
            chunk: out.chunk,
            column_names: cached.output_names.clone(),
            optimized: cached.optimized.clone(),
            exec_stats: out.stats,
            cache_hit,
            phases,
            exec: self.settings.exec,
        })
    }

    /// Run a parameter-free statement, returning results incrementally.
    pub fn execute_stream(&self, sql: &str) -> Result<QueryStream> {
        let (catalog, cached, cache_hit, phases) = self.plan_parameter_free(sql)?;
        let exec_span = SpanTimer::start();
        let (options, guard) = arm(self.exec_options(), &self.cancel_hub);
        let stream = execute_plan_stream(&cached.optimized.plan, catalog, options)?;
        Ok(QueryStream {
            column_names: cached.output_names.clone(),
            optimized: cached.optimized.clone(),
            cache_hit,
            stream,
            engine: self.engine.clone(),
            sql: sql.to_string(),
            phases,
            exec_span,
            guard,
        })
    }

    #[allow(clippy::type_complexity)]
    fn plan_parameter_free(
        &self,
        sql: &str,
    ) -> Result<(
        std::sync::Arc<bfq_catalog::Catalog>,
        std::sync::Arc<bfq_core::CachedPlan>,
        bool,
        PhaseBreakdown,
    )> {
        let (catalog, cached, cache_hit, phases) =
            self.engine.plan_statement(sql, &self.settings.plan)?;
        if cached.param_count > 0 {
            return Err(BfqError::invalid(format!(
                "statement has {} parameter(s); use prepare() and bind()",
                cached.param_count
            )));
        }
        Ok((catalog, cached, cache_hit, phases))
    }

    /// Prepare a statement (with optional `?` / `$n` placeholders) for
    /// repeated execution: parsed, bound and optimized once. The statement
    /// pins the catalog snapshot it was planned against.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement> {
        let (catalog, cached, cache_hit, _phases) =
            self.engine.plan_statement(sql, &self.settings.plan)?;
        Ok(PreparedStatement::new(
            self.engine.clone(),
            catalog,
            self.exec_options(),
            cached,
            cache_hit,
            sql.to_string(),
            self.cancel_hub.clone(),
        ))
    }

    /// Plan only (no execution, no caching) — used by planner-latency
    /// experiments where each run must pay the full optimization cost.
    pub fn plan_sql_only(&self, sql: &str) -> Result<OptimizedQuery> {
        let catalog = self.engine.catalog();
        let mut bindings = Bindings::new();
        let bound = plan_sql(sql, &catalog, &mut bindings)?;
        bfq_core::optimize(&bound.plan, &mut bindings, &catalog, &self.settings.plan)
    }

    /// What an execution under this session's settings is told: the two
    /// plan settings the executor must honour, the execution-only ones
    /// whole, the engine's worker pool, and no interruption token yet (see
    /// [`arm`]).
    fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            dop: self.settings.plan.dop,
            index_mode: self.settings.plan.index_mode,
            exec: self.settings.exec,
            interrupt: None,
            pool: Arc::clone(self.engine.pool()),
        }
    }
}

/// Give `options` a fresh [`CancelToken`] (carrying its statement timeout)
/// armed on the session's [`CancelHub`]. The returned [`ExecGuard`]
/// disarms the hub when dropped — hold it for the query's whole lifetime
/// (streamed queries stash it in the [`QueryStream`]).
pub(crate) fn arm(mut options: ExecOptions, hub: &Arc<CancelHub>) -> (ExecOptions, ExecGuard) {
    let token = CancelToken::with_timeout_ms(options.exec.statement_timeout_ms);
    hub.arm(token.clone());
    options.interrupt = Some(token);
    let guard = ExecGuard {
        hub: hub.clone(),
        exec: options.exec,
    };
    (options, guard)
}

/// Keeps a session's [`CancelHub`] armed for the duration of one query
/// execution; disarms on drop (normal completion, error, or mid-stream
/// abandonment alike), recording a fired token's reason on the hub.
pub(crate) struct ExecGuard {
    hub: Arc<CancelHub>,
    /// The execution-only settings this execution ran under (explain
    /// footer).
    pub(crate) exec: ExecConfig,
}

impl Drop for ExecGuard {
    fn drop(&mut self) {
        self.hub.disarm();
    }
}

/// Pack rendered explain text into a one-column `plan` chunk, line per row.
fn text_chunk(text: &str) -> Chunk {
    let data: StrData = text.lines().map(|l| l.to_string()).collect();
    Chunk::new(vec![Arc::new(Column::Utf8(data, None))])
        .expect("single-column chunk lengths trivially agree")
}

/// A streaming query result: column names plus an iterator of chunks.
///
/// [`QueryResult`] is the gathered convenience wrapper over this: calling
/// [`QueryStream::gather`] drains the stream and concatenates — the rows
/// and their order are identical.
pub struct QueryStream {
    /// Output column names.
    pub column_names: Vec<String>,
    /// The optimized plan (EXPLAIN material).
    pub optimized: OptimizedQuery,
    /// Whether the plan came from the shared plan cache.
    pub cache_hit: bool,
    stream: ChunkStream,
    /// The engine whose metrics and flight recorder this query reports to
    /// when gathered.
    engine: Arc<Engine>,
    /// The statement text, for the flight-recorder entry.
    sql: String,
    /// Planning phases (execute/total filled in at gather time).
    phases: PhaseBreakdown,
    /// Started when execution began; stops at gather.
    exec_span: SpanTimer,
    /// Keeps the session's cancel hub armed while the stream is live;
    /// disarmed on drop (gathered, errored, or abandoned mid-iteration).
    guard: ExecGuard,
}

impl QueryStream {
    #[allow(clippy::too_many_arguments)] // one slot per public field plus provenance
    pub(crate) fn from_parts(
        column_names: Vec<String>,
        optimized: OptimizedQuery,
        cache_hit: bool,
        stream: ChunkStream,
        engine: Arc<Engine>,
        sql: String,
        phases: PhaseBreakdown,
        exec_span: SpanTimer,
        guard: ExecGuard,
    ) -> QueryStream {
        QueryStream {
            column_names,
            optimized,
            cache_hit,
            stream,
            engine,
            sql,
            phases,
            exec_span,
            guard,
        }
    }

    /// Output column types.
    pub fn types(&self) -> &[DataType] {
        self.stream.types()
    }

    /// Runtime statistics recorded so far (root counters grow with pulls).
    pub fn stats(&self) -> &ExecStats {
        self.stream.stats()
    }

    /// Drain the remaining chunks into a gathered [`QueryResult`], and
    /// record the completed query in the engine's metrics and flight
    /// recorder. (A stream that is dropped without being fully drained is
    /// never recorded — the engine only counts completed queries.)
    pub fn gather(self) -> Result<QueryResult> {
        let out = self.stream.gather()?;
        let mut phases = self.phases;
        phases.execute_ns = self.exec_span.elapsed_ns();
        phases.total_ns = phases.phase_sum_ns();
        self.engine.observe_query(
            &self.sql,
            &self.optimized,
            self.cache_hit,
            &out.stats,
            out.chunk.rows() as u64,
            phases,
        );
        Ok(QueryResult {
            chunk: out.chunk,
            column_names: self.column_names,
            optimized: self.optimized,
            exec_stats: out.stats,
            cache_hit: self.cache_hit,
            phases,
            exec: self.guard.exec,
        })
    }
}

impl Iterator for QueryStream {
    type Item = Result<Chunk>;

    fn next(&mut self) -> Option<Result<Chunk>> {
        self.stream.next()
    }
}
