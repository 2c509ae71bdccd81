//! Shared infrastructure for the experiment binaries.

use std::sync::Arc;
use std::time::Instant;

use bfq_catalog::Catalog;
use bfq_common::Result;
use bfq_core::{optimize, BloomMode, IndexMode, OptimizedQuery, OptimizerConfig};
use bfq_exec::{execute_plan, ExecOptions, ExecStats};
use bfq_plan::Bindings;
use bfq_sql::plan_sql;
use bfq_storage::Chunk;
use bfq_tpch::{gen, query_text};

/// Experiment-wide knobs, read from the environment.
#[derive(Debug, Clone)]
pub struct BenchEnv {
    /// TPC-H scale factor (`BFQ_SF`, default 0.05).
    pub sf: f64,
    /// Degree of parallelism (`BFQ_DOP`, default 4).
    pub dop: usize,
    /// Generator seed (`BFQ_SEED`, default 42).
    pub seed: u64,
    /// Timed runs per measurement (`BFQ_RUNS`, default 3: one warm-up plus
    /// the average of the rest; the paper uses 5 with the average of the
    /// last 4 — set `BFQ_RUNS=5` to match).
    pub runs: usize,
    /// Data-skipping index mode (`BFQ_INDEX_MODE`: `off` | `zonemap` |
    /// `zonemap+bloom`; default `zonemap+bloom`).
    pub index_mode: IndexMode,
}

impl BenchEnv {
    /// Read the environment.
    pub fn load() -> BenchEnv {
        let get = |k: &str, d: f64| -> f64 {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        BenchEnv {
            sf: get("BFQ_SF", 0.05),
            dop: get("BFQ_DOP", 4.0) as usize,
            seed: get("BFQ_SEED", 42.0) as u64,
            runs: (get("BFQ_RUNS", 3.0) as usize).max(2),
            index_mode: match std::env::var("BFQ_INDEX_MODE") {
                // A typo here must not silently fall back to the full
                // index — that would corrupt ablation results.
                Ok(v) => v.parse().expect("BFQ_INDEX_MODE"),
                Err(_) => IndexMode::default(),
            },
        }
    }

    /// Generate (or reuse) the TPC-H catalog for this environment.
    pub fn load_db(&self) -> Arc<Catalog> {
        eprintln!(
            "# generating TPC-H SF={} seed={} (dop={})",
            self.sf, self.seed, self.dop
        );
        let db = gen::generate(self.sf, self.seed).expect("generate TPC-H");
        Arc::new(db.catalog)
    }

    /// The optimizer config for a mode under this environment.
    pub fn config(&self, mode: BloomMode) -> OptimizerConfig {
        let mut c = OptimizerConfig::with_mode(mode).dop(self.dop);
        // The paper's H2 threshold (10k rows) is calibrated for SF100;
        // scale it so small instances exercise the same plan shapes.
        c.bf_min_apply_rows = (10_000.0 * self.sf).clamp(50.0, 10_000.0);
        c.bf_max_build_ndv = 2_000_000.0;
        c.index_mode = self.index_mode;
        c
    }
}

/// One measured query execution.
pub struct Measured {
    /// The optimized plan and optimizer telemetry.
    pub planned: OptimizedQuery,
    /// Result rows.
    pub chunk: Chunk,
    /// Executor per-node actuals from the final run.
    pub exec_stats: ExecStats,
    /// Average execution latency (milliseconds, warm).
    pub exec_ms: f64,
    /// Fastest warm run (milliseconds). Use this for A/B comparisons:
    /// min-of-N discards scheduler noise spikes that inflate the mean.
    pub exec_min_ms: f64,
    /// Planning latency (milliseconds).
    pub plan_ms: f64,
}

/// One timed execution of an already-optimized plan.
fn timed_exec(
    catalog: &Arc<Catalog>,
    planned: &OptimizedQuery,
    config: &OptimizerConfig,
) -> Result<(bfq_exec::QueryOutput, f64)> {
    let t = Instant::now();
    let out = execute_plan(
        &planned.plan,
        catalog.clone(),
        ExecOptions {
            dop: config.dop,
            index_mode: config.index_mode,
            ..Default::default()
        },
    )?;
    Ok((out, t.elapsed().as_secs_f64() * 1e3))
}

/// Plan and repeatedly execute a query; returns warm-average latency.
pub fn measure_query(
    catalog: &Arc<Catalog>,
    sql: &str,
    config: &OptimizerConfig,
    runs: usize,
) -> Result<Measured> {
    let mut bindings = Bindings::new();
    let t0 = Instant::now();
    let bound = plan_sql(sql, catalog, &mut bindings)?;
    let planned = optimize(&bound.plan, &mut bindings, catalog, config)?;
    let plan_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut last = None;
    let mut total_ms = 0.0;
    let mut min_ms = f64::INFINITY;
    let timed_runs = runs.saturating_sub(1).max(1);
    for i in 0..runs.max(2) {
        let (out, ms) = timed_exec(catalog, &planned, config)?;
        if i > 0 {
            total_ms += ms;
            min_ms = min_ms.min(ms);
        }
        last = Some(out);
    }
    let out = last.expect("ran at least once");
    Ok(Measured {
        planned,
        chunk: out.chunk,
        exec_stats: out.stats,
        exec_ms: total_ms / timed_runs as f64,
        exec_min_ms: min_ms,
        plan_ms,
    })
}

/// Run one TPC-H query under a mode.
pub fn measure_tpch(
    catalog: &Arc<Catalog>,
    env: &BenchEnv,
    q: usize,
    mode: BloomMode,
) -> Result<Measured> {
    let sql = query_text(q, env.sf);
    measure_query(catalog, &sql, &env.config(mode), env.runs)
}

/// Mean absolute error between estimated and actual rows over all plan
/// nodes (paper §4.2's intermediate-cardinality MAE).
pub fn cardinality_mae(m: &Measured) -> f64 {
    let mut total = 0.0f64;
    let mut n = 0usize;
    m.planned.plan.visit(&mut |node| {
        if let Some(actual) = m.exec_stats.actual(node.id) {
            total += (node.est_rows - actual as f64).abs();
            n += 1;
        }
    });
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Mean est-vs-actual q-error (`max(est/actual, actual/est)`, both floored
/// at one row) over all plan nodes with a recorded actual. Complements the
/// MAE: q-error is scale-free, so a 10x miss on a small node counts the
/// same as a 10x miss on a large one.
pub fn cardinality_q_error(m: &Measured) -> f64 {
    let mut total = 0.0f64;
    let mut n = 0usize;
    m.planned.plan.visit(&mut |node| {
        if let Some(actual) = m.exec_stats.actual(node.id) {
            let est = node.est_rows.max(1.0);
            let actual = (actual as f64).max(1.0);
            total += (est / actual).max(actual / est);
            n += 1;
        }
    });
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Mean est-vs-actual q-error over *scan* nodes only, split by whether the
/// scan is reduced by runtime Bloom filters or left unreduced. BF-CBO's
/// re-estimation claim lives in the reduced bucket — those are the scans
/// whose cardinality the optimizer predicts through the §3.5 pass-fraction
/// model — while the unreduced bucket is the control where both modes see
/// identical inputs.
/// Returns `(reduced, unreduced)`; a side is `None` when no scan with a
/// recorded actual falls in that bucket.
pub fn scan_q_error_split(m: &Measured) -> (Option<f64>, Option<f64>) {
    let mut reduced = (0.0f64, 0usize);
    let mut unreduced = (0.0f64, 0usize);
    m.planned.plan.visit(&mut |node| {
        if let bfq_plan::PhysicalNode::Scan { blooms, .. }
        | bfq_plan::PhysicalNode::DerivedScan { blooms, .. } = &node.node
        {
            if let Some(actual) = m.exec_stats.actual(node.id) {
                let est = node.est_rows.max(1.0);
                let actual = (actual as f64).max(1.0);
                let bucket = if blooms.is_empty() {
                    &mut unreduced
                } else {
                    &mut reduced
                };
                bucket.0 += (est / actual).max(actual / est);
                bucket.1 += 1;
            }
        }
    });
    let mean = |(total, n): (f64, usize)| (n > 0).then(|| total / n as f64);
    (mean(reduced), mean(unreduced))
}

/// Predicted vs observed runtime-filter pass fractions, aggregated over
/// every applied Bloom filter the run actually probed. The predicted side
/// is the estimator's `sel_semi + (1 − sel_semi)·fpr` (§3.5), weighted by
/// each filter's probe rows so it is comparable to the observed fraction
/// `Σ rows_out / Σ rows_in`. `None` when the plan probed no filters.
pub fn filter_pass_rates(m: &Measured) -> Option<(f64, f64)> {
    let mut predicted_weighted = 0.0f64;
    let (mut rows_in, mut rows_out) = (0u64, 0u64);
    m.planned.plan.visit(&mut |node| {
        if let bfq_plan::PhysicalNode::Scan { blooms, .. }
        | bfq_plan::PhysicalNode::DerivedScan { blooms, .. } = &node.node
        {
            for b in blooms {
                if let Some(o) = m.exec_stats.filter_observation(b.filter.0) {
                    predicted_weighted += b.predicted_pass * o.rows_in as f64;
                    rows_in += o.rows_in;
                    rows_out += o.rows_out;
                }
            }
        }
    });
    if rows_in == 0 {
        None
    } else {
        Some((
            predicted_weighted / rows_in as f64,
            rows_out as f64 / rows_in as f64,
        ))
    }
}

/// Count Bloom filters applied in a plan.
pub fn filters_in_plan(m: &Measured) -> usize {
    let mut n = 0;
    m.planned.plan.visit(&mut |node| {
        if let bfq_plan::PhysicalNode::Scan { blooms, .. }
        | bfq_plan::PhysicalNode::DerivedScan { blooms, .. } = &node.node
        {
            n += blooms.len();
        }
    });
    n
}

/// FNV-1a over the debug rendering of every result row — the shared
/// result-correctness checksum the experiment bins gate exactly in CI.
pub fn result_checksum(chunk: &Chunk) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..chunk.rows() {
        for d in chunk.row(i) {
            for b in format!("{d:?}|").bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (h >> 32) as u32 ^ h as u32
}

/// The SIMD features this binary was compiled for.
pub fn target_features() -> String {
    let features = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    let on: Vec<&str> = features.iter().filter(|f| f.1).map(|f| f.0).collect();
    format!("{} [{}]", std::env::consts::ARCH, on.join(" "))
}

/// Run `f` once and return `(result, elapsed_millis)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Machine-readable metric sink for the perf-regression gate.
///
/// Every experiment binary accepts a `--json` flag; when present, metrics
/// recorded here are written to `BENCH_<name>.json` in the working
/// directory on [`JsonReport::finish`]. CI compares the file against the
/// committed baseline in `bench/baselines/` (see
/// `scripts/bench_gate.py`): structural metrics gate with a tight
/// tolerance, `*_ms` and `*_ns` timings are recorded for trending but not
/// gated (CI machines are noisy).
#[derive(Debug)]
pub struct JsonReport {
    name: String,
    enabled: bool,
    metrics: Vec<(String, f64)>,
}

impl JsonReport {
    /// A report for experiment `name`, enabled when `--json` is among the
    /// process arguments.
    pub fn from_args(name: &str) -> JsonReport {
        JsonReport {
            name: name.to_string(),
            enabled: std::env::args().any(|a| a == "--json"),
            metrics: Vec::new(),
        }
    }

    /// Whether `--json` was requested.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record one metric (last write wins on duplicate keys).
    pub fn add(&mut self, key: &str, value: f64) {
        self.metrics.retain(|(k, _)| k != key);
        self.metrics.push((key.to_string(), value));
    }

    /// Write `BENCH_<name>.json` if enabled. Returns the path written.
    pub fn finish(&self) -> std::io::Result<Option<String>> {
        if !self.enabled {
            return Ok(None);
        }
        let path = format!("BENCH_{}.json", self.name);
        let mut body = String::from("{\n");
        body.push_str(&format!("  \"name\": \"{}\",\n", self.name));
        body.push_str("  \"metrics\": {\n");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let sep = if i + 1 == self.metrics.len() { "" } else { "," };
            if !v.is_finite() {
                // A NaN/inf metric is a broken measurement; fail loudly
                // rather than writing a bogus number the CI gate trusts.
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("metric `{k}` is not finite ({v})"),
                ));
            }
            body.push_str(&format!("    \"{k}\": {v}{sep}\n"));
        }
        body.push_str("  }\n}\n");
        std::fs::write(&path, body)?;
        Ok(Some(path))
    }
}
