//! `bfq-e2e`: the repository's end-to-end benchmark.
//!
//! One process runs one workload: it builds its inputs from `--seed`, sets
//! the system up, warms it, measures for `--seconds`, checks every result,
//! and prints each metric by name, then one JSON object on the last line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` repeats a third
//! of the rounds with `profile = on` and the benchmark's span recorder, and
//! reports the per-layer metrics. See `README.md` for what each one means.
//!
//! The system is driven only through its stable surface (TPC-H generator
//! and query texts, `Engine`, `Connection`, `PreparedStatement`, the
//! `QueryResult` fields, `Server`, `Client`), and all configuration goes
//! in as `SET`-style strings.

mod checksum;
mod layers;
mod serve;
mod spans;
mod statements;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bfq_server::json::Json;
use layers::Obs;

/// Scale factor of a full run, and of a `--quick` smoke run.
const SF_FULL: f64 = 0.05;
const SF_QUICK: f64 = 0.01;
/// Seed of the TPC-H data every measurement runs on. The data is the same
/// for every `--seed`, so that the amount of work is: the seed chooses the
/// order of the statements, the keys and ranges requested, the predicates of
/// the generated joins, and the data of the cross-mode check.
pub const DATA_SEED: u64 = 42;
/// Scale factor of the seeded data set the cross-mode check runs on.
pub const CHECK_SF: f64 = 0.01;
/// Degree of parallelism of the single-caller workloads' sessions.
pub const DOP: usize = 2;
/// `dop` of every `serve_mix` session: two sessions of one worker each fill
/// the two cores the benchmark assumes. At `dop = 2` a 16 µs point lookup
/// spends 0.2 ms waking its second worker, and which core that worker lands
/// on made the small classes' medians jump by 40% from run to run.
pub const SERVE_DOP: usize = 1;
/// Load-generator threads and connections of `serve_mix`, cores permitting.
const CLIENTS: usize = 2;
/// Safety net: a statement that hits it counts as failed.
pub const STATEMENT_TIMEOUT_MS: u64 = 20_000;
/// How often the system is set up in one run; `setup_s` is the median.
const SETUPS: usize = 3;

pub const WORKLOADS: [&str; 5] = [
    "tpch_cbo",
    "tpch_post",
    "tpch_nobf",
    "plan_cold",
    "serve_mix",
];

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("total_ms", "ms"),
    ("geomean_ms", "ms"),
    ("worst_op_ms", "ms"),
    ("p50_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// metric a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 61] = [
    ("sql.parse_ms", "ms"),
    ("sql.bind_ms", "ms"),
    ("core.optimize_ms", "ms"),
    ("core.phase1_pairs", "count"),
    ("core.phase2_generated", "count"),
    ("core.phase2_kept", "count"),
    ("core.keep_ratio", "ratio"),
    ("core.candidates", "count"),
    ("core.cbo_filters", "count"),
    ("core.post_filters", "count"),
    ("core.programs", "count"),
    ("core.cache_hit_rate", "ratio"),
    ("cost.q_error_geomean", "ratio"),
    ("cost.q_error_max", "ratio"),
    ("cost.pass_fraction_abs_err", "ratio"),
    ("exec.execute_ms", "ms"),
    ("exec.scan_self_ms", "ms"),
    ("exec.hashjoin_self_ms", "ms"),
    ("exec.nestloop_self_ms", "ms"),
    ("exec.agg_self_ms", "ms"),
    ("exec.sort_self_ms", "ms"),
    ("exec.exchange_self_ms", "ms"),
    ("exec.other_self_ms", "ms"),
    ("exec.rows_scanned", "count"),
    ("exec.join_probe_candidates", "count"),
    ("exec.join_probe_verified", "count"),
    ("exec.probe_verify_ratio", "ratio"),
    ("exec.window_stalls", "count"),
    ("exec.worst_op_nestloop_share", "ratio"),
    ("bloom.filters_built", "count"),
    ("bloom.filter_build_ms", "ms"),
    ("bloom.rows_probed", "count"),
    ("bloom.rows_passed", "count"),
    ("bloom.pass_ratio", "ratio"),
    ("bloom.build_ns_per_key", "ns"),
    ("bloom.probe_ns_per_key", "ns"),
    ("index.chunks_total", "count"),
    ("index.chunks_skipped_zonemap", "count"),
    ("index.chunks_skipped_bloom", "count"),
    ("index.skip_ratio", "ratio"),
    ("index.build_s", "s"),
    ("index.size_bytes", "bytes"),
    ("tpch.gen_s", "s"),
    ("server.wire_overhead_us.point", "us"),
    ("server.wire_overhead_us.join", "us"),
    ("server.wire_overhead_us.adhoc", "us"),
    ("server.wire_overhead_us.range", "us"),
    ("server.json_us_per_krow", "us"),
    ("server.busy_rejections", "count"),
    ("server.timeouts", "count"),
    ("facade.prepared_exec_us.point", "us"),
    ("facade.prepared_exec_us.join", "us"),
    ("facade.layer_sum_gap_pct", "%"),
    ("facade.wall_gap_pct", "%"),
    ("obs.trace_overhead_pct", "%"),
    ("failed_share", "ratio"),
    ("lat.samples", "count"),
    ("lat.p95_ms", "ms"),
    ("lat.tail_pct", "%"),
    ("lat.tail_ms", "ms"),
    ("warmup_s", "s"),
];

/// Per-layer counts that are exact: the same inputs must give the same
/// number on every run, so `compare.py` fails on any difference.
const EXACT_COUNTS: [&str; 16] = [
    "core.phase1_pairs",
    "core.phase2_generated",
    "core.phase2_kept",
    "core.candidates",
    "core.cbo_filters",
    "core.post_filters",
    "core.programs",
    "exec.rows_scanned",
    "exec.join_probe_candidates",
    "exec.join_probe_verified",
    "bloom.filters_built",
    "bloom.rows_probed",
    "bloom.rows_passed",
    "index.chunks_total",
    "index.chunks_skipped_zonemap",
    "index.chunks_skipped_bloom",
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: small scale factor, one short cycle. Its numbers are
    /// labelled and never comparable with a full run's.
    pub quick: bool,
    /// Load-generator threads (and connections) of `serve_mix`.
    pub clients: usize,
    /// Directory holding `sf<sf>-seed<seed>.json` expected checksums.
    pub expected_dir: Option<PathBuf>,
    /// Where to write the detailed result.
    pub out: Option<PathBuf>,
    /// Directory a traced run writes `trace-<workload>.json` into.
    pub out_dir: Option<PathBuf>,
    /// Print the checksums of this run in the expected-file format.
    pub print_expected: bool,
}

impl Args {
    pub fn sf(&self) -> f64 {
        if self.quick {
            SF_QUICK
        } else {
            SF_FULL
        }
    }

    /// The `dop` this workload's sessions are set to.
    pub fn dop(&self) -> usize {
        if self.workload == "serve_mix" {
            SERVE_DOP
        } else {
            DOP
        }
    }

    /// Rounds in a measurement cycle; see [`statements`].
    pub fn rounds_per_cycle(&self) -> usize {
        if self.quick {
            2
        } else {
            3
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        quick: false,
        clients: CLIENTS.min(nproc()),
        expected_dir: None,
        out: None,
        out_dir: None,
        print_expected: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--clients" => {
                args.clients = value()?.parse().map_err(|e| format!("--clients: {e}"))?
            }
            "--expected" => args.expected_dir = Some(PathBuf::from(value()?)),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--out-dir" => args.out_dir = Some(PathBuf::from(value()?)),
            "--quick" => args.quick = true,
            "--print-expected" => args.print_expected = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    // The load generator must not compete with the system for cores it
    // does not have: more clients than cores measures queueing.
    if args.clients == 0 || args.clients > nproc() {
        return Err(format!(
            "--clients {} refused: this box has {} core(s)",
            args.clients,
            nproc()
        ));
    }
    Ok(args)
}

/// SplitMix64: the benchmark's own generator, so that a seed means the
/// same inputs on every commit.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Statements attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one attempted statement; `problem` says why it failed, if so.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(problem);
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 10usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// Latency samples of one statement (or one request class), in ms.
pub struct OpSamples {
    pub name: String,
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

/// What a workload hands back to be turned into metrics.
pub struct Report {
    pub tally: Tally,
    /// Median of the set-ups, plus the warm-up pass.
    pub setup_s: f64,
    pub gen_s: f64,
    pub warmup_s: f64,
    pub ops: Vec<OpSamples>,
    /// Requests completed per second of the timed section, when several
    /// callers ran at once; a single caller's rate follows from `ops`.
    pub concurrent_qps: Option<f64>,
    /// Layer observations of the traced executions, combined.
    pub layers: Obs,
    /// Counts that differed between rounds of the same statement.
    pub unsteady: Vec<&'static str>,
    /// Per-layer metrics a workload computes under their final name.
    pub extra: BTreeMap<&'static str, f64>,
    pub spans: Vec<spans::Span>,
    /// `name=checksum` lines for `--print-expected`.
    pub checksums: Vec<(String, String)>,
}

/// Run `build` [`SETUPS`] times, tearing down all but the last, and return
/// the last environment with the median build time in seconds.
pub fn timed_setups<E>(mut build: impl FnMut() -> E, mut teardown: impl FnMut(E)) -> (E, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let started = Instant::now();
        last = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    (
        last.expect("SETUPS is at least one"),
        stats::median(&mut times),
    )
}

/// Time the public `BloomFilter` directly on a fixed key set: the figure
/// that says how fast this box is, printed with every result.
fn calibrate() -> (f64, f64) {
    const KEYS: i64 = 1_000_000;
    let mut filter = bfq::bloom::BloomFilter::with_expected_ndv(KEYS as usize);
    let started = Instant::now();
    for key in 0..KEYS {
        filter.insert_i64(std::hint::black_box(key * 7));
    }
    let build_ns = started.elapsed().as_nanos() as f64 / KEYS as f64;
    // First half hits (multiples of 7 below 7·KEYS), second half misses.
    let started = Instant::now();
    let mut hits = 0u64;
    for key in 0..KEYS {
        let probe = if key < KEYS / 2 { key * 7 } else { key * 7 + 3 };
        hits += u64::from(filter.contains_i64(std::hint::black_box(probe)));
    }
    let probe_ns = started.elapsed().as_nanos() as f64 / KEYS as f64;
    std::hint::black_box(hits);
    (build_ns, probe_ns)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

/// Every untraced latency sample of the run, ascending.
fn all_latencies(report: &Report) -> Vec<f64> {
    let mut all: Vec<f64> = report
        .ops
        .iter()
        .flat_map(|op| op.untraced.iter().copied())
        .collect();
    all.sort_by(f64::total_cmp);
    all
}

fn end_to_end(report: &Report) -> Metrics {
    let mut medians: Vec<f64> = report
        .ops
        .iter()
        .filter(|op| !op.untraced.is_empty())
        .map(|op| stats::median(&mut op.untraced.clone()))
        .collect();
    medians.sort_by(f64::total_cmp);
    let total_ms: f64 = medians.iter().sum();
    // One caller: statements per second of one pass at median latency.
    let qps = report
        .concurrent_qps
        .unwrap_or_else(|| stats::ratio(1e3 * medians.len() as f64, total_ms));
    // Callers at once: the median request. One caller runs every statement
    // equally often, and the pooled median of such a mix is ill-conditioned
    // (it falls in the gap between two statements' clusters and flips with
    // one sample more or less), so it is the median statement instead.
    let p50 = if report.concurrent_qps.is_some() {
        stats::percentile(&all_latencies(report), 50.0)
    } else {
        stats::median(&mut medians.clone())
    };
    let values = [
        total_ms,
        stats::geomean(&medians),
        medians.last().copied().unwrap_or(0.0),
        p50,
        qps,
        report.setup_s,
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect()
}

fn per_layer(report: &Report, calibration: (f64, f64)) -> Metrics {
    let layer = |key: &str| report.layers.get(key).copied().unwrap_or(0.0);
    let ms = |key: &str| layer(key) / 1e6;
    let all = all_latencies(report);
    let mut traced_all = Vec::new();
    let (mut untraced_total, mut traced_total) = (0.0, 0.0);
    for op in &report.ops {
        traced_all.extend_from_slice(&op.traced);
        if !op.traced.is_empty() && !op.untraced.is_empty() {
            untraced_total += stats::median(&mut op.untraced.clone());
            traced_total += stats::median(&mut op.traced.clone());
        }
    }
    let p50 = stats::percentile(&all, 50.0);
    // Tracing overhead on the workload's headline figure: the median
    // request where callers run at once, else the cost of one pass.
    let overhead = if report.concurrent_qps.is_some() {
        stats::ratio(stats::median(&mut traced_all) - p50, p50)
    } else {
        stats::ratio(traced_total - untraced_total, untraced_total)
    };
    let tail = stats::supported_tail(all.len()).unwrap_or(50.0);
    let phase_sum = layer("sql.parse_ns")
        + layer("sql.bind_ns")
        + layer("core.optimize_ns")
        + layer("exec.execute_ns");
    let computed: BTreeMap<&str, f64> = BTreeMap::from([
        ("sql.parse_ms", ms("sql.parse_ns")),
        ("sql.bind_ms", ms("sql.bind_ns")),
        ("core.optimize_ms", ms("core.optimize_ns")),
        (
            "core.keep_ratio",
            stats::ratio(layer("core.phase2_kept"), layer("core.phase2_generated")),
        ),
        (
            "cost.q_error_geomean",
            stats::ratio(layer("cost.q_log_sum"), layer("cost.q_nodes")).exp(),
        ),
        ("cost.q_error_max", layer("cost.q_error_max").max(1.0)),
        (
            "cost.pass_fraction_abs_err",
            stats::ratio(layer("cost.pass_abs_err_sum"), layer("cost.pass_filters")),
        ),
        ("exec.execute_ms", ms("exec.execute_ns")),
        ("exec.scan_self_ms", ms("exec.scan_self_ns")),
        ("exec.hashjoin_self_ms", ms("exec.hashjoin_self_ns")),
        ("exec.nestloop_self_ms", ms("exec.nestloop_self_ns")),
        ("exec.agg_self_ms", ms("exec.agg_self_ns")),
        ("exec.sort_self_ms", ms("exec.sort_self_ns")),
        ("exec.exchange_self_ms", ms("exec.exchange_self_ns")),
        ("exec.other_self_ms", ms("exec.other_self_ns")),
        (
            "exec.probe_verify_ratio",
            stats::ratio(
                layer("exec.join_probe_verified"),
                layer("exec.join_probe_candidates"),
            ),
        ),
        ("bloom.filter_build_ms", ms("bloom.filter_build_ns")),
        (
            "bloom.pass_ratio",
            stats::ratio(layer("bloom.rows_passed"), layer("bloom.rows_probed")),
        ),
        ("bloom.build_ns_per_key", calibration.0),
        ("bloom.probe_ns_per_key", calibration.1),
        (
            "index.skip_ratio",
            stats::ratio(layer("index.chunks_skipped"), layer("index.chunks_total")),
        ),
        ("tpch.gen_s", report.gen_s),
        (
            "facade.layer_sum_gap_pct",
            100.0
                * stats::ratio(
                    (layer("facade.total_ns") - phase_sum).abs(),
                    layer("facade.total_ns"),
                ),
        ),
        (
            "facade.wall_gap_pct",
            100.0
                * stats::ratio(
                    (layer("wall_ns") - layer("facade.total_ns")).abs(),
                    layer("wall_ns"),
                ),
        ),
        ("obs.trace_overhead_pct", 100.0 * overhead),
        (
            "failed_share",
            stats::ratio(report.tally.failed as f64, report.tally.attempted as f64),
        ),
        ("lat.samples", all.len() as f64),
        ("lat.p95_ms", stats::percentile(&all, 95.0)),
        ("lat.tail_pct", tail),
        ("lat.tail_ms", stats::percentile(&all, tail)),
        ("warmup_s", report.warmup_s),
    ]);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = computed
                .get(name)
                .or_else(|| report.extra.get(name))
                .copied()
                .unwrap_or_else(|| layer(name));
            (name, unit, if value.is_finite() { value } else { 0.0 })
        })
        .collect()
}

fn object(fields: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn strings<'a>(items: impl IntoIterator<Item = &'a (impl AsRef<str> + 'a)>) -> Json {
    Json::Arr(
        items
            .into_iter()
            .map(|s| Json::Str(s.as_ref().to_string()))
            .collect(),
    )
}

fn metrics_json(metrics: &Metrics) -> Json {
    object(metrics.iter().map(|&(name, unit, value)| {
        let fields = [
            ("value", Json::Float(value)),
            ("unit", Json::Str(unit.into())),
        ];
        (name, object(fields))
    }))
}

/// The per-layer table of a traced run: self time per layer, its share of
/// the traced wall time, and what the layers do not account for.
fn print_layer_table(report: &Report) {
    let layer = |key: &str| report.layers.get(key).copied().unwrap_or(0.0) / 1e6;
    let wall = layer("wall_ns");
    if wall == 0.0 {
        return;
    }
    println!("# per-layer budget of the traced statements (self time, share of wall)");
    let rows = [
        (
            "sql (parse + bind)",
            layer("sql.parse_ns") + layer("sql.bind_ns"),
        ),
        ("core (optimize)", layer("core.optimize_ns")),
        ("exec (execute)", layer("exec.execute_ns")),
    ];
    let mut accounted = 0.0;
    for (name, ms) in rows {
        accounted += ms;
        println!("#   {name:<28} {ms:>12.3} ms {:>6.1}%", 100.0 * ms / wall);
    }
    let facade = layer("facade.total_ns") - accounted;
    println!(
        "#   {:<28} {facade:>12.3} ms {:>6.1}%",
        "facade (total - phases)",
        100.0 * facade / wall
    );
    let gap = wall - layer("facade.total_ns");
    println!(
        "#   {:<28} {gap:>12.3} ms {:>6.1}%   (wall {wall:.3} ms)",
        "unaccounted (wall - total)",
        100.0 * gap / wall
    );
    println!("#   inside exec, by operator class (chain operators sum over workers):");
    for class in [
        "scan", "hashjoin", "nestloop", "agg", "sort", "exchange", "other",
    ] {
        let key = format!("exec.{class}_self_ns");
        let ms = layer(&key);
        println!(
            "#     {class:<26} {ms:>12.3} ms {:>6.1}% of execute",
            100.0 * stats::ratio(ms, layer("exec.execute_ns"))
        );
    }
    let by_name = spans::self_time_by_name(&report.spans);
    println!("#   benchmark spans, self time by name:");
    for (name, ns) in by_name {
        println!("#     {name:<26} {:>12.3} ms", ns as f64 / 1e6);
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let calibration = calibrate();
    let report = match args.workload.as_str() {
        "serve_mix" => serve::run(args)?,
        _ => statements::run(args)?,
    };
    let e2e = end_to_end(&report);
    let layer_metrics = if args.trace {
        per_layer(&report, calibration)
    } else {
        Vec::new()
    };
    let correct = report.tally.failed == 0;

    let mode = if args.quick { "quick" } else { "full" };
    println!(
        "# bfq-e2e workload={} seed={} sf={} dop={} clients={} nproc={} seconds={} trace={} mode={mode}",
        args.workload,
        args.seed,
        args.sf(),
        args.dop(),
        args.clients,
        nproc(),
        args.seconds,
        u8::from(args.trace),
    );
    if args.quick {
        println!("# QUICK MODE: smoke numbers, never to be compared with a full run");
    }
    println!(
        "# calibration: bloom build {:.2} ns/key, probe {:.2} ns/key",
        calibration.0, calibration.1
    );
    println!(
        "# statements attempted {} failed {}",
        report.tally.attempted, report.tally.failed
    );
    for failure in &report.tally.failures {
        println!("# FAILED: {failure}");
    }
    for (name, unit, value) in &e2e {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    if args.trace {
        for (name, unit, value) in &layer_metrics {
            println!("{name:<36} {value:>16.4} {unit}");
        }
        if !report.unsteady.is_empty() {
            println!(
                "# counts that differed between rounds: {}",
                report.unsteady.join(", ")
            );
        }
        print_layer_table(&report);
    }
    if args.print_expected {
        let sums = report.checksums.iter();
        let lines: Vec<String> = sums
            .map(|(name, sum)| format!("  {}: {}", Json::Str(name.clone()), Json::Str(sum.clone())))
            .collect();
        println!("EXPECTED {{\n{}\n}}", lines.join(",\n"));
    }

    if let (Some(dir), true) = (&args.out_dir, args.trace) {
        let path = dir.join(format!("trace-{}.json", args.workload));
        std::fs::write(
            &path,
            spans::to_json(&args.workload, args.seed, &report.spans),
        )
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let tally = &report.tally;
    if let Some(path) = &args.out {
        let medians = report
            .ops
            .iter()
            .filter(|op| !op.untraced.is_empty())
            .map(|op| {
                let median = stats::median(&mut op.untraced.clone());
                (op.name.as_str(), Json::Float(median))
            });
        let detail = object([
            ("workload", Json::Str(args.workload.clone())),
            ("seed", Json::Int(args.seed as i64)),
            ("mode", Json::Str(mode.into())),
            ("trace", Json::Int(i64::from(args.trace))),
            ("sf", Json::Float(args.sf())),
            ("dop", Json::Int(args.dop() as i64)),
            ("clients", Json::Int(args.clients as i64)),
            ("nproc", Json::Int(nproc() as i64)),
            ("seconds", Json::Float(args.seconds)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(tally.attempted as i64)),
            ("failed", Json::Int(tally.failed as i64)),
            (
                "calibration",
                object([
                    ("bloom.build_ns_per_key", Json::Float(calibration.0)),
                    ("bloom.probe_ns_per_key", Json::Float(calibration.1)),
                ]),
            ),
            ("end_to_end", metrics_json(&e2e)),
            ("per_layer", metrics_json(&layer_metrics)),
            ("exact_counts", strings(&EXACT_COUNTS)),
            ("unsteady_counts", strings(&report.unsteady)),
            ("statement_median_ms", object(medians)),
            ("failures", strings(&tally.failures)),
        ]);
        std::fs::write(path, format!("{detail}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    // The driver reads the last line: exactly these four keys.
    let last = object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(tally.attempted.max(1) as i64)),
        ("failed", Json::Int(tally.failed as i64)),
        (
            "metrics",
            metrics_json(if args.trace { &layer_metrics } else { &e2e }),
        ),
    ]);
    println!("{last}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bfq-e2e: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        // Wrong results are reported in the JSON (`correct`, `failed`);
        // only a benchmark that could not run at all exits non-zero.
        Ok(_) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bfq-e2e: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_metrics_this_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect("a list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let printed = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), printed(&END_TO_END));
        assert_eq!(listed("per_layer"), printed(&PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("a list")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }

    #[test]
    fn a_seed_always_gives_the_same_sequence() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        let draws: Vec<u64> = (0..5).map(|_| a.below(1000)).collect();
        assert_eq!(draws, (0..5).map(|_| b.below(1000)).collect::<Vec<_>>());
        assert_ne!(draws, (0..5).map(|_| a.below(1000)).collect::<Vec<_>>());
        assert!((0..100).all(|_| (3..=5).contains(&a.between(3, 5))));
    }
}
