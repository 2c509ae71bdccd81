//! Per-client connections and session-level (`SET`-style) options.
//!
//! A [`Connection`] is cheap to create — an `Arc` clone of the shared
//! [`Engine`] plus a handful of option overrides — so a server can open one
//! per client or per request. Connections are independent: options set on
//! one never affect another, while all of them share the engine's catalog
//! and plan cache.

use std::sync::Arc;

use bfq_common::{BfqError, CancelHub, CancelToken, DataType, Result};
use bfq_core::{BloomLayout, BloomMode, OptimizedQuery, OptimizerConfig, SemijoinMode};
use bfq_exec::{execute_plan, execute_plan_stream, ChunkStream, ExecOptions, ExecStats};
use bfq_index::IndexMode;
use bfq_obs::{PhaseBreakdown, SpanTimer};
use bfq_plan::Bindings;
use bfq_sql::{plan_sql, strip_explain, ExplainMode};
use bfq_storage::{Chunk, Column, StrData};

use crate::engine::{Engine, QueryResult};
use crate::statement::PreparedStatement;

/// Per-query optimizer overrides carried by a connection, settable through
/// [`Connection::set`] like SQL `SET` variables.
///
/// `None` means "use the engine default". The overrides participate in the
/// plan-cache key (via the effective [`OptimizerConfig`] fingerprint), so
/// two connections with different options never share plans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryOptions {
    /// Override the Bloom filter mode (`none` / `post` / `cbo` / `naive`).
    pub bloom_mode: Option<BloomMode>,
    /// Override the Bloom filter bit-placement layout
    /// (`standard` / `blocked`).
    pub bloom_layout: Option<BloomLayout>,
    /// Override the data-skipping index mode.
    pub index_mode: Option<IndexMode>,
    /// Override the degree of parallelism.
    pub dop: Option<usize>,
    /// Override the semijoin-program rewrite mode (`off` / `auto`).
    /// Plan-affecting: participates in the plan-cache fingerprint.
    pub semijoin: Option<SemijoinMode>,
    /// Override per-node runtime profiling (`on` / `off`). Execution-only:
    /// toggling it keeps hitting the same cached plans.
    pub profile: Option<bool>,
    /// Override the per-statement timeout in milliseconds (0 = off).
    /// Execution-only, like `profile`: normalized out of the plan-cache
    /// fingerprint.
    pub statement_timeout_ms: Option<u64>,
    /// Override the per-query buffered-rows memory budget (0 = off).
    /// Execution-only; stays out of the plan-cache fingerprint.
    pub memory_budget_rows: Option<u64>,
}

impl QueryOptions {
    /// The engine-default config with this connection's overrides applied.
    pub fn effective(&self, base: &OptimizerConfig) -> OptimizerConfig {
        let mut config = base.clone();
        if let Some(mode) = self.bloom_mode {
            config.bloom_mode = mode;
        }
        if let Some(layout) = self.bloom_layout {
            config.bloom_layout = layout;
        }
        if let Some(mode) = self.index_mode {
            config.index_mode = mode;
        }
        if let Some(dop) = self.dop {
            config.dop = dop.max(1);
        }
        if let Some(mode) = self.semijoin {
            config.semijoin = mode;
        }
        if let Some(profile) = self.profile {
            config.profile = profile;
        }
        if let Some(ms) = self.statement_timeout_ms {
            config.statement_timeout_ms = ms;
        }
        if let Some(rows) = self.memory_budget_rows {
            config.memory_budget_rows = rows;
        }
        config
    }
}

/// A client connection to a shared [`Engine`].
#[derive(Debug, Clone)]
pub struct Connection {
    engine: Arc<Engine>,
    options: QueryOptions,
    /// Rendezvous for out-of-band cancellation of this session's in-flight
    /// query. Clones of a connection share the hub (they are the same
    /// session); fresh connections get their own.
    cancel_hub: Arc<CancelHub>,
}

impl Connection {
    pub(crate) fn new(engine: Arc<Engine>) -> Connection {
        Connection {
            engine,
            options: QueryOptions::default(),
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

    /// The current option overrides.
    pub fn options(&self) -> &QueryOptions {
        &self.options
    }

    /// Mutable access for programmatic option changes.
    pub fn options_mut(&mut self) -> &mut QueryOptions {
        &mut self.options
    }

    /// `SET key = value` for this connection.
    ///
    /// Keys: `bloom_mode` (`none|post|cbo|naive`), `bloom_layout`
    /// (`standard|blocked`), `index_mode` (`off|zonemap|zonemap+bloom`),
    /// `dop` (positive integer), `semijoin` (`off|auto`), `profile`
    /// (`on|off`), `statement_timeout` (milliseconds, 0 = off) and
    /// `memory_budget_rows` (buffered rows, 0 = off). The value `default`
    /// resets a key to the engine default.
    pub fn set(&mut self, key: &str, value: &str) -> Result<()> {
        let key = key.trim().to_ascii_lowercase();
        let value = value.trim().to_ascii_lowercase();
        let reset = value == "default";
        match key.as_str() {
            "bloom_mode" => {
                self.options.bloom_mode = if reset {
                    None
                } else {
                    Some(match value.as_str() {
                        "none" | "off" => BloomMode::None,
                        "post" => BloomMode::Post,
                        "cbo" => BloomMode::Cbo,
                        "naive" => BloomMode::Naive,
                        other => {
                            return Err(BfqError::invalid(format!(
                                "unknown bloom_mode `{other}` (none|post|cbo|naive)"
                            )))
                        }
                    })
                }
            }
            "bloom_layout" => {
                self.options.bloom_layout = if reset {
                    None
                } else {
                    Some(value.parse().map_err(BfqError::invalid)?)
                }
            }
            "index_mode" => {
                self.options.index_mode = if reset {
                    None
                } else {
                    Some(value.parse().map_err(BfqError::invalid)?)
                }
            }
            "dop" => {
                self.options.dop = if reset {
                    None
                } else {
                    let dop: usize = value
                        .parse()
                        .map_err(|_| BfqError::invalid(format!("bad dop `{value}`")))?;
                    if dop == 0 {
                        return Err(BfqError::invalid("dop must be at least 1"));
                    }
                    Some(dop)
                }
            }
            "semijoin" => self.options.semijoin = if reset { None } else { Some(value.parse()?) },
            "profile" => {
                self.options.profile = if reset {
                    None
                } else {
                    Some(match value.as_str() {
                        "on" | "true" | "1" => true,
                        "off" | "false" | "0" => false,
                        other => {
                            return Err(BfqError::invalid(format!(
                                "unknown profile setting `{other}` (on|off)"
                            )))
                        }
                    })
                }
            }
            "statement_timeout" => {
                self.options.statement_timeout_ms = if reset {
                    None
                } else {
                    Some(value.parse().map_err(|_| {
                        BfqError::invalid(format!(
                            "bad statement_timeout `{value}` (milliseconds, 0 = off)"
                        ))
                    })?)
                }
            }
            "memory_budget_rows" => {
                self.options.memory_budget_rows = if reset {
                    None
                } else {
                    Some(value.parse().map_err(|_| {
                        BfqError::invalid(format!(
                            "bad memory_budget_rows `{value}` (rows, 0 = off)"
                        ))
                    })?)
                }
            }
            other => {
                return Err(BfqError::invalid(format!(
                    "unknown option `{other}` \
                     (bloom_mode|bloom_layout|index_mode|dop|semijoin|profile\
                     |statement_timeout|memory_budget_rows)"
                )))
            }
        }
        Ok(())
    }

    /// The optimizer config this connection currently plans under.
    pub fn effective_config(&self) -> OptimizerConfig {
        self.options.effective(&self.engine.config().optimizer)
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
                let optimizer = self.effective_config();
                let total = SpanTimer::start();
                let (_catalog, cached, cache_hit, mut phases) =
                    self.engine.plan_statement(stmt, &optimizer)?;
                phases.total_ns = total.elapsed_ns();
                let mut result = QueryResult {
                    chunk: Chunk::of_rows(0),
                    column_names: vec!["plan".into()],
                    optimized: cached.optimized.clone(),
                    exec_stats: ExecStats::new(),
                    cache_hit,
                    phases,
                    statement_timeout_ms: optimizer.statement_timeout_ms,
                    memory_budget_rows: optimizer.memory_budget_rows,
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
        let optimizer = self.effective_config();
        let total = SpanTimer::start();
        let (catalog, cached, cache_hit, mut phases) = self.plan_parameter_free(sql, &optimizer)?;
        let span = SpanTimer::start();
        let (options, _guard) = armed_exec_options(&optimizer, &self.cancel_hub);
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
            statement_timeout_ms: optimizer.statement_timeout_ms,
            memory_budget_rows: optimizer.memory_budget_rows,
        })
    }

    /// Run a parameter-free statement, returning results incrementally.
    pub fn execute_stream(&self, sql: &str) -> Result<QueryStream> {
        let optimizer = self.effective_config();
        let (catalog, cached, cache_hit, phases) = self.plan_parameter_free(sql, &optimizer)?;
        let exec_span = SpanTimer::start();
        let (options, guard) = armed_exec_options(&optimizer, &self.cancel_hub);
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
        optimizer: &OptimizerConfig,
    ) -> Result<(
        std::sync::Arc<bfq_catalog::Catalog>,
        std::sync::Arc<bfq_core::CachedPlan>,
        bool,
        PhaseBreakdown,
    )> {
        let (catalog, cached, cache_hit, phases) = self.engine.plan_statement(sql, optimizer)?;
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
        let optimizer = self.effective_config();
        let (catalog, cached, cache_hit, _phases) = self.engine.plan_statement(sql, &optimizer)?;
        Ok(PreparedStatement::new(
            self.engine.clone(),
            catalog,
            optimizer,
            cached,
            cache_hit,
            sql.to_string(),
            self.cancel_hub.clone(),
        ))
    }

    /// Plan only (no execution, no caching) — used by planner-latency
    /// experiments where each run must pay the full optimization cost.
    pub fn plan_sql_only(&self, sql: &str) -> Result<OptimizedQuery> {
        let optimizer = self.effective_config();
        let catalog = self.engine.catalog();
        let mut bindings = Bindings::new();
        let bound = plan_sql(sql, &catalog, &mut bindings)?;
        bfq_core::optimize(&bound.plan, &mut bindings, &catalog, &optimizer)
    }
}

/// The executor options an optimizer config implies (no interruption
/// token; see [`armed_exec_options`] for the cancellable variant).
pub(crate) fn exec_options(optimizer: &OptimizerConfig) -> ExecOptions {
    ExecOptions {
        dop: optimizer.dop,
        index_mode: optimizer.index_mode,
        bloom_layout: optimizer.bloom_layout,
        profile: optimizer.profile,
        memory_budget_rows: optimizer.memory_budget_rows,
        ..Default::default()
    }
}

/// Executor options with a fresh [`CancelToken`] (carrying the optimizer's
/// statement timeout) armed on the session's [`CancelHub`]. The returned
/// [`ExecGuard`] disarms the hub when dropped — hold it for the query's
/// whole lifetime (streamed queries stash it in the [`QueryStream`]).
pub(crate) fn armed_exec_options(
    optimizer: &OptimizerConfig,
    hub: &Arc<CancelHub>,
) -> (ExecOptions, ExecGuard) {
    let token = CancelToken::with_timeout_ms(optimizer.statement_timeout_ms);
    hub.arm(token.clone());
    let mut options = exec_options(optimizer);
    options.interrupt = Some(token);
    (
        options,
        ExecGuard {
            hub: hub.clone(),
            timeout_ms: optimizer.statement_timeout_ms,
            budget_rows: optimizer.memory_budget_rows,
        },
    )
}

/// Keeps a session's [`CancelHub`] armed for the duration of one query
/// execution; disarms on drop (normal completion, error, or mid-stream
/// abandonment alike), recording a fired token's reason on the hub.
pub(crate) struct ExecGuard {
    hub: Arc<CancelHub>,
    /// The statement timeout this execution ran under (explain footer).
    pub(crate) timeout_ms: u64,
    /// The buffered-rows budget this execution ran under (explain footer).
    pub(crate) budget_rows: u64,
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
            exec_span: SpanTimer::start(),
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
            statement_timeout_ms: self.guard.timeout_ms,
            memory_budget_rows: self.guard.budget_rows,
        })
    }
}

impl Iterator for QueryStream {
    type Item = Result<Chunk>;

    fn next(&mut self) -> Option<Result<Chunk>> {
        self.stream.next()
    }
}
