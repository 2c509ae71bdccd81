//! `serve_mix`: an in-process `bfq_server::Server` on loopback and a closed
//! loop of client connections, each issuing a seeded mix of prepared point
//! lookups, prepared 4-way joins, ad-hoc point lookups over a hot key set
//! and ad-hoc range scans. Every answer must equal what the same statement
//! returns in-process (its *twin*).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bfq::prelude::{Connection, Datum, Engine, EngineConfig, PreparedStatement, QueryResult};
use bfq_server::json::Json;
use bfq_server::protocol::{datum_from_json, datum_to_json};
use bfq_server::{Client, RowSet, Server, ServerConfig, CODE_SERVER_BUSY};

use crate::checksum::Checksum;
use crate::layers::{self, Obs};
use crate::spans::Recorder;
use crate::{Args, OpSamples, Report, Rng, Tally, DATA_SEED, SERVE_DOP, STATEMENT_TIMEOUT_MS};

const POINT_SQL: &str = "select count(*) from orders where o_orderkey = ?";
/// The statement of `fig_prepared_throughput`: planning it costs real
/// time, executing it touches few rows.
const JOIN_SQL: &str = "select count(*) \
     from orders, customer, nation, region \
     where o_custkey = c_custkey and c_nationkey = n_nationkey \
       and n_regionkey = r_regionkey and o_orderkey = ?";

/// Request classes, their share of the mix in percent, and how many
/// distinct statements or keys each draws from.
const CLASSES: [&str; 4] = ["point", "join", "adhoc", "range"];
const MIX_PERCENT: [u64; 4] = [72, 24, 2, 2];
const POOL_SIZES: [usize; 4] = [4096, 1024, 16, 64];
const POINT: usize = 0;
const JOIN: usize = 1;
/// Rows a range scan should return, give or take.
const RANGE_ROWS: i64 = 3000;
/// Requests per client of the warm-up pass, and of a `--quick` run.
const WARMUP_REQUESTS: usize = 300;
const QUICK_REQUESTS: usize = 2000;

/// What the requests are drawn from: keys for the prepared classes, whole
/// statements for the ad-hoc ones. The plan cache keys on literal values,
/// so an ad-hoc statement hits after its first sight.
struct Pools {
    keys: [Vec<i64>; 2],
    sql: [Vec<String>; 2],
}

impl Pools {
    fn new(seed: u64, min_key: i64, max_key: i64, orders: i64) -> Pools {
        let mut rng = Rng::new(seed ^ 0x7365_7276);
        let mut keys =
            |n: usize| -> Vec<i64> { (0..n).map(|_| rng.between(min_key, max_key)).collect() };
        let (point, join, hot) = (
            keys(POOL_SIZES[0]),
            keys(POOL_SIZES[1]),
            keys(POOL_SIZES[2]),
        );
        let width = (RANGE_ROWS * (max_key - min_key + 1) / orders.max(1)).max(1);
        let ranges = (0..POOL_SIZES[3])
            .map(|_| {
                let from = rng.between(min_key, (max_key - width).max(min_key));
                format!(
                    "select o_orderkey, o_custkey, o_totalprice, o_orderdate from orders \
                     where o_orderkey >= {from} and o_orderkey < {}",
                    from + width
                )
            })
            .collect();
        Pools {
            keys: [point, join],
            sql: [
                hot.iter()
                    .map(|k| format!("select count(*) from orders where o_orderkey = {k}"))
                    .collect(),
                ranges,
            ],
        }
    }
}

/// The in-process side: the same statements through `Connection` and
/// `PreparedStatement`, with the server's session settings.
struct Twin {
    conn: Connection,
    prepared: [PreparedStatement; 2],
}

impl Twin {
    fn new(engine: &Arc<Engine>, profile: &str) -> Result<Twin, String> {
        let mut conn = engine.connect();
        for (key, value) in session_settings(profile) {
            conn.set(key, &value)
                .map_err(|e| format!("SET {key} = {value}: {e}"))?;
        }
        let prepare = |sql| conn.prepare(sql).map_err(|e| format!("prepare: {e}"));
        let prepared = [prepare(POINT_SQL)?, prepare(JOIN_SQL)?];
        Ok(Twin { conn, prepared })
    }

    fn execute(
        &self,
        pools: &Pools,
        class: usize,
        index: usize,
    ) -> bfq::prelude::Result<QueryResult> {
        if class <= JOIN {
            self.prepared[class].execute(&[Datum::Int(pools.keys[class][index])])
        } else {
            self.conn.run_sql(&pools.sql[class - 2][index])
        }
    }
}

fn session_settings(profile: &str) -> [(&'static str, String); 3] {
    [
        ("dop", SERVE_DOP.to_string()),
        ("profile", profile.to_string()),
        ("statement_timeout", STATEMENT_TIMEOUT_MS.to_string()),
    ]
}

fn remote(
    client: &mut Client,
    pools: &Pools,
    class: usize,
    index: usize,
) -> bfq_server::ClientResult<RowSet> {
    if class <= JOIN {
        client.execute(CLASSES[class], &[Datum::Int(pools.keys[class][index])])
    } else {
        client.query(&pools.sql[class - 2][index])
    }
}

fn connect(server: &Server) -> Result<Client, String> {
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    for (key, value) in session_settings("off") {
        client
            .set(key, &value)
            .map_err(|e| format!("SET {key} = {value}: {e}"))?;
    }
    for (name, sql) in [(CLASSES[POINT], POINT_SQL), (CLASSES[JOIN], JOIN_SQL)] {
        client
            .prepare(name, sql)
            .map_err(|e| format!("prepare {name}: {e}"))?;
    }
    Ok(client)
}

struct Env {
    engine: Arc<Engine>,
    server: Server,
    clients: Vec<Client>,
}

fn build(args: &Args, gen_times: &mut Vec<f64>) -> Result<Env, String> {
    let started = Instant::now();
    let db =
        bfq::tpch::gen::generate(args.sf(), DATA_SEED).map_err(|e| format!("generate: {e}"))?;
    gen_times.push(started.elapsed().as_secs_f64());
    let engine = Engine::new(db, EngineConfig::default());
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            workers: args.clients,
            queue_depth: args.clients,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("server start: {e}"))?;
    let clients = (0..args.clients)
        .map(|_| connect(&server))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Env {
        engine,
        server,
        clients,
    })
}

fn teardown(env: Env) {
    for client in env.clients {
        // A session that is already gone has nothing left to close.
        let _ = client.quit();
    }
    env.server.shutdown();
}

fn rows_checksum(rows: &[Vec<Datum>]) -> Checksum {
    Checksum::of(rows.iter().map(Vec::as_slice), &[])
}

/// The `index`-th request of a client's seeded sequence.
fn draw(rng: &mut Rng) -> (usize, usize) {
    let roll = rng.below(100);
    let mut class = 0;
    let mut edge = MIX_PERCENT[0];
    while roll >= edge {
        class += 1;
        edge += MIX_PERCENT[class];
    }
    (class, rng.below(POOL_SIZES[class] as u64) as usize)
}

/// What one client thread brings back from the timed section.
struct ClientRun {
    tally: Tally,
    /// Latency in ms per class, untraced and traced.
    untraced: [Vec<f64>; 4],
    traced: [Vec<f64>; 4],
    /// In-process time in ms of the twin of each traced request.
    twins: [Vec<f64>; 4],
    recorder: Recorder,
    untraced_wall_s: f64,
    busy: u64,
}

/// What the clients of one pass over the server share.
struct Pass<'a> {
    engine: &'a Arc<Engine>,
    pools: &'a Pools,
    /// The twin's answer to each pool statement.
    expected: &'a [Vec<Option<Checksum>>],
    /// Seeds the clients' request sequences.
    seed: u64,
    /// Run the last third of the budget traced.
    trace: bool,
    /// Share of the budget used after `n` requests and `s` seconds.
    progress: &'a (dyn Fn(usize, f64) -> f64 + Sync),
}

/// Closed loop, one thread per connection.
fn drive_all(clients: &mut [Client], pass: &Pass) -> Vec<ClientRun> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| scope.spawn(move || drive(client, pass, i as u64)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Issue requests until the budget is used; with `trace`, its last third
/// runs with `profile = on`, spans, and a twin per request.
fn drive(client: &mut Client, pass: &Pass, client_index: u64) -> ClientRun {
    let Pass {
        engine,
        pools,
        expected,
        trace,
        progress,
        ..
    } = *pass;
    let mut rng = Rng::new(pass.seed ^ (client_index + 1) << 40);
    let mut run = ClientRun {
        tally: Tally::default(),
        untraced: Default::default(),
        traced: Default::default(),
        twins: Default::default(),
        recorder: Recorder::new(),
        untraced_wall_s: 0.0,
        busy: 0,
    };
    let mut twin: Option<Twin> = None;
    let started = Instant::now();
    let mut issued = 0usize;
    loop {
        let done = progress(issued, started.elapsed().as_secs_f64());
        if done >= 1.0 {
            break;
        }
        if trace && twin.is_none() && done >= 2.0 / 3.0 {
            run.untraced_wall_s = started.elapsed().as_secs_f64();
            let switched = client
                .set("profile", "on")
                .map_err(|e| e.to_string())
                .and_then(|()| Twin::new(engine, "on"));
            match switched {
                Ok(t) => twin = Some(t),
                Err(e) => {
                    run.tally.record(Some(format!("switching to traced: {e}")));
                    break;
                }
            }
        }
        let (class, index) = draw(&mut rng);
        let stmt = client_index << 32 | issued as u64;
        issued += 1;
        let start_ns = run.recorder.now_ns();
        let sent = Instant::now();
        let answer = remote(client, pools, class, index);
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        let end_ns = run.recorder.now_ns();
        let problem = match &answer {
            Ok(rows) if Some(rows_checksum(&rows.rows)) == expected[class][index] => None,
            Ok(_) => Some(format!(
                "{} #{index}: the server's answer differs from the in-process twin's",
                CLASSES[class]
            )),
            Err(e) => {
                run.busy += u64::from(e.is_code(CODE_SERVER_BUSY));
                Some(format!("{} #{index}: {e}", CLASSES[class]))
            }
        };
        let broken = matches!(answer, Err(bfq_server::ClientError::Io(_)));
        run.tally.record(problem);
        if broken {
            break;
        }
        let Some(twin) = &twin else {
            run.untraced[class].push(ms);
            continue;
        };
        run.traced[class].push(ms);
        // The twin: the same statement in-process, right after, under
        // the same load. What the round trip costs beyond it is the wire.
        let twin_started = Instant::now();
        let result = twin.execute(pools, class, index);
        let twin_ns = twin_started.elapsed().as_nanos() as u64;
        let twin_end = run.recorder.now_ns();
        let request = run.recorder.add("request", start_ns, twin_end, None, stmt);
        run.recorder
            .add("client_roundtrip", start_ns, end_ns, Some(request), stmt);
        let twin_start = twin_end.saturating_sub(twin_ns);
        let twin_span =
            run.recorder
                .add("inprocess_twin", twin_start, twin_end, Some(request), stmt);
        if let Ok(result) = result {
            let planned = twin_start + result.phases.planning_ns();
            let name = if result.cache_hit {
                "cache_hit"
            } else {
                "parse+bind+optimize"
            };
            run.recorder
                .add(name, twin_start, planned, Some(twin_span), stmt);
            run.recorder.add(
                "execute",
                planned,
                planned + result.phases.execute_ns,
                Some(twin_span),
                stmt,
            );
            run.twins[class].push(twin_ns as f64 / 1e6);
        }
    }
    if twin.is_none() {
        run.untraced_wall_s = started.elapsed().as_secs_f64();
    }
    run
}

/// Microseconds to encode and decode 1000 rows of `rows` the way the
/// server and the client do, with the crate's public encoders.
fn json_us_per_krow(rows: &RowSet) -> f64 {
    if rows.rows.is_empty() {
        return 0.0;
    }
    let mut times = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let body: Vec<Json> = rows
            .rows
            .iter()
            .map(|row| Json::Arr(row.iter().map(datum_to_json).collect()))
            .collect();
        let line = Json::obj([("chunk", Json::Arr(body))]).to_string();
        let decoded = Json::parse(&line).ok().and_then(|frame| {
            let chunk = frame.get("chunk")?.as_arr()?;
            let mut cells = 0usize;
            for row in chunk {
                for (ty, cell) in rows.types.iter().zip(row.as_arr()?) {
                    std::hint::black_box(datum_from_json(*ty, cell).ok()?);
                    cells += 1;
                }
            }
            Some(cells)
        });
        std::hint::black_box(decoded);
        times.push(started.elapsed().as_secs_f64() * 1e6);
    }
    crate::stats::median(&mut times) * 1000.0 / rows.rows.len() as f64
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut gen_times = Vec::new();
    let mut failure = None;
    let (env, build_s) = crate::timed_setups(
        || {
            build(args, &mut gen_times)
                .map_err(|e| failure = Some(e))
                .ok()
        },
        |env| {
            if let Some(env) = env {
                teardown(env)
            }
        },
    );
    let mut env = env.ok_or_else(|| failure.unwrap_or_else(|| "set-up failed".to_string()))?;
    let gen_s = crate::stats::median(&mut gen_times);
    let mut tally = Tally::default();

    // Reference pass (untimed): every statement of every pool in-process.
    // It fixes the answers the server must give, times the facade alone,
    // and — being the same statements on every run — gives the layer
    // counts that must repeat exactly.
    let twin = Twin::new(&env.engine, if args.trace { "on" } else { "off" })?;
    let domain = twin
        .conn
        .run_sql("select min(o_orderkey), max(o_orderkey), count(*) from orders")
        .map_err(|e| format!("key domain: {e}"))?;
    let cell = |i: usize| domain.chunk.row(0)[i].as_i64().unwrap_or(1);
    let pools = Pools::new(args.seed, cell(0), cell(1), cell(2));
    let mut expected: Vec<Vec<Option<Checksum>>> = Vec::new();
    let mut in_process: [Vec<f64>; 4] = Default::default();
    let mut reference_obs: Vec<Obs> = Vec::new();
    for class in 0..CLASSES.len() {
        let mut answers = Vec::with_capacity(POOL_SIZES[class]);
        for index in 0..POOL_SIZES[class] {
            let started = Instant::now();
            let result = twin.execute(&pools, class, index);
            let wall_ns = started.elapsed().as_nanos() as u64;
            match result {
                Ok(result) => {
                    in_process[class].push(wall_ns as f64 / 1e3);
                    let rows: Vec<Vec<Datum>> = (0..result.chunk.rows())
                        .map(|i| result.chunk.row(i))
                        .collect();
                    answers.push(Some(rows_checksum(&rows)));
                    if args.trace {
                        reference_obs.push(layers::observe(&result, wall_ns, SERVE_DOP));
                    }
                    tally.record(None);
                }
                Err(e) => {
                    answers.push(None);
                    tally.record(Some(format!("{} #{index} in-process: {e}", CLASSES[class])));
                }
            }
        }
        expected.push(answers);
    }

    // Warm-up pass: each client runs the head of a sequence of its own.
    let warmup_started = Instant::now();
    let mut pass = Pass {
        engine: &env.engine,
        pools: &pools,
        expected: &expected,
        seed: args.seed ^ 0x7761_726d,
        trace: false,
        progress: &|n, _| n as f64 / WARMUP_REQUESTS as f64,
    };
    for run in drive_all(&mut env.clients, &pass) {
        tally.absorb(run.tally);
    }
    let warmup_s = warmup_started.elapsed().as_secs_f64();

    // Timed section.
    let budget = |n: usize, elapsed_s: f64| {
        if args.quick {
            n as f64 / QUICK_REQUESTS as f64
        } else {
            elapsed_s / args.seconds
        }
    };
    pass = Pass {
        seed: args.seed,
        trace: args.trace,
        progress: &budget,
        ..pass
    };
    let cache_before = env.engine.cache_stats();
    let runs = drive_all(&mut env.clients, &pass);
    let cache_after = env.engine.cache_stats();

    let mut ops: Vec<OpSamples> = CLASSES
        .iter()
        .map(|name| OpSamples {
            name: name.to_string(),
            untraced: Vec::new(),
            traced: Vec::new(),
        })
        .collect();
    let mut twins: [Vec<f64>; 4] = Default::default();
    let mut recorder = Recorder::new();
    let (mut qps, mut busy) = (0.0, 0);
    for run in runs {
        let completed: usize = run.untraced.iter().map(Vec::len).sum();
        qps += crate::stats::ratio(completed as f64, run.untraced_wall_s);
        busy += run.busy;
        for class in 0..CLASSES.len() {
            ops[class].untraced.extend_from_slice(&run.untraced[class]);
            ops[class].traced.extend_from_slice(&run.traced[class]);
            twins[class].extend_from_slice(&run.twins[class]);
        }
        recorder.absorb(run.recorder);
        tally.absorb(run.tally);
    }

    let mut extra = BTreeMap::new();
    let lookups =
        (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses);
    extra.insert(
        "core.cache_hit_rate",
        crate::stats::ratio(
            (cache_after.hits - cache_before.hits) as f64,
            lookups as f64,
        ),
    );
    let wire_names = [
        "server.wire_overhead_us.point",
        "server.wire_overhead_us.join",
        "server.wire_overhead_us.adhoc",
        "server.wire_overhead_us.range",
    ];
    for class in 0..CLASSES.len() {
        let roundtrip = crate::stats::median(&mut ops[class].traced.clone());
        let inside = crate::stats::median(&mut twins[class]);
        extra.insert(wire_names[class], (roundtrip - inside) * 1e3);
    }
    extra.insert(
        "facade.prepared_exec_us.point",
        crate::stats::median(&mut in_process[POINT]),
    );
    extra.insert(
        "facade.prepared_exec_us.join",
        crate::stats::median(&mut in_process[JOIN]),
    );
    let metrics = env.server.metrics();
    extra.insert(
        "server.busy_rejections",
        (metrics.connections_rejected.get() + busy) as f64,
    );
    extra.insert("server.timeouts", metrics.queries_timed_out.get() as f64);
    if args.trace {
        let sample = env.clients[0]
            .query(&pools.sql[1][0])
            .map_err(|e| format!("range scan for the JSON figure: {e}"))?;
        extra.insert("server.json_us_per_krow", json_us_per_krow(&sample));
        let (index_s, bytes) = layers::index_cost(&env.engine);
        extra.insert("index.build_s", index_s);
        extra.insert("index.size_bytes", bytes);
    }

    teardown(env);
    Ok(Report {
        tally,
        setup_s: build_s + warmup_s,
        gen_s,
        warmup_s,
        ops,
        concurrent_qps: Some(qps),
        // The reference pass ran the same statements on every run, alone.
        layers: layers::over_statements(reference_obs.iter()),
        unsteady: Vec::new(),
        extra,
        spans: recorder.spans,
        checksums: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_has_the_stated_shares() {
        assert_eq!(MIX_PERCENT.iter().sum::<u64>(), 100);
        let mut rng = Rng::new(1);
        let mut seen = [0u32; 4];
        for _ in 0..100_000 {
            let (class, index) = draw(&mut rng);
            assert!(index < POOL_SIZES[class]);
            seen[class] += 1;
        }
        for (count, percent) in seen.iter().zip(MIX_PERCENT) {
            let share = f64::from(*count) / 1000.0;
            assert!((share - percent as f64).abs() < 1.0, "{seen:?}");
        }
    }

    #[test]
    fn pools_follow_the_seed() {
        let a = Pools::new(42, 1, 300_000, 75_000);
        let b = Pools::new(42, 1, 300_000, 75_000);
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.sql, b.sql);
        assert_ne!(a.keys, Pools::new(7, 1, 300_000, 75_000).keys);
        assert_eq!(a.sql[0].len(), 16);
        assert_eq!(a.sql[1].len(), 64);
    }
}
