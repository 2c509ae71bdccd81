//! The single-caller workloads: the 22 TPC-H queries executed ad hoc under
//! one Bloom mode (`tpch_cbo`, `tpch_post`, `tpch_nobf`), and planning alone
//! over those queries plus ten generated wide joins (`plan_cold`).
//!
//! Measurement runs in *cycles* of a few rounds. A round issues every
//! statement once, except that a statement whose warm-up took more than a
//! second runs only in the first round of a cycle. The clock is read at
//! cycle boundaries, so every run holds the statements in the same
//! proportion and its percentiles mean the same thing.

use std::sync::Arc;
use std::time::Instant;

use bfq::core::OptimizedQuery;
use bfq::prelude::{Connection, Datum, Engine, EngineConfig, QueryResult};
use bfq_server::json::Json;

use crate::checksum::{hash_text, order_by_columns, Checksum};
use crate::layers::{self, Obs};
use crate::spans::Recorder;
use crate::{Args, OpSamples, Report, Rng, Tally, CHECK_SF, DATA_SEED, DOP, STATEMENT_TIMEOUT_MS};

/// A warm-up slower than this moves a statement to once per cycle.
const SLOW_NS: u64 = 1_000_000_000;

struct Statement {
    name: String,
    sql: String,
}

#[derive(Clone, Copy)]
enum Kind {
    /// Execute under `mode`; results must equal those under `reference`.
    Execute {
        mode: &'static str,
        reference: &'static str,
    },
    /// Plan only: no cache, no execution.
    PlanOnly,
}

fn kind_of(workload: &str) -> Kind {
    // Each mode is checked against another one, so that the three runs
    // together show none = post = cbo on any seed.
    match workload {
        "tpch_cbo" => Kind::Execute {
            mode: "cbo",
            reference: "none",
        },
        "tpch_post" => Kind::Execute {
            mode: "post",
            reference: "none",
        },
        "tpch_nobf" => Kind::Execute {
            mode: "none",
            reference: "post",
        },
        _ => Kind::PlanOnly,
    }
}

struct Env {
    engine: Arc<Engine>,
    conn: Connection,
    /// Same settings with `profile = on`, for the traced rounds.
    traced: Connection,
}

fn session(engine: &Arc<Engine>, mode: &str, profile: &str) -> Result<Connection, String> {
    let mut conn = engine.connect();
    for (key, value) in [
        ("bloom_mode", mode),
        ("dop", &DOP.to_string()),
        ("profile", profile),
        ("statement_timeout", &STATEMENT_TIMEOUT_MS.to_string()),
    ] {
        conn.set(key, value)
            .map_err(|e| format!("SET {key} = {value}: {e}"))?;
    }
    Ok(conn)
}

/// What one call returned: rows, or only a plan.
enum Outcome {
    Rows(Box<QueryResult>),
    Plan(OptimizedQuery),
}

impl Outcome {
    /// What must repeat: the result checksum, or the plan's shape.
    fn signature(&self, sql: &str) -> String {
        match self {
            Outcome::Rows(result) if result.phases.execute_ns > 0 => checksum_of(result, sql),
            Outcome::Rows(result) => plan_shape(&result.optimized),
            Outcome::Plan(plan) => plan_shape(plan),
        }
    }
}

fn checksum_of(result: &QueryResult, sql: &str) -> String {
    let rows: Vec<Vec<Datum>> = (0..result.chunk.rows())
        .map(|i| result.chunk.row(i))
        .collect();
    let order_cols = order_by_columns(sql, &result.column_names);
    Checksum::of(rows.iter().map(Vec::as_slice), &order_cols).render()
}

fn plan_shape(plan: &OptimizedQuery) -> String {
    format!(
        "plan:{:016x}",
        hash_text(&plan.plan.explain(&|c| c.to_string()))
    )
}

/// Issue one statement the way the workload's user would and time it.
fn issue(env: &Env, kind: Kind, sql: &str, traced: bool) -> (u64, Result<Outcome, String>) {
    let conn = if traced { &env.traced } else { &env.conn };
    if matches!(kind, Kind::PlanOnly) && !traced {
        let started = Instant::now();
        let plan = conn.plan_sql_only(sql);
        let wall = started.elapsed().as_nanos() as u64;
        return (wall, plan.map(Outcome::Plan).map_err(|e| e.to_string()));
    }
    // Ad hoc: every statement pays parse + bind + optimize. A traced
    // planning call goes through EXPLAIN, which plans without executing
    // and returns the phase split that `plan_sql_only` does not.
    let explain;
    let sql = match kind {
        Kind::Execute { .. } => sql,
        Kind::PlanOnly => {
            explain = format!("explain {sql}");
            &explain
        }
    };
    env.engine.clear_plan_cache();
    let started = Instant::now();
    let result = conn.run_sql(sql);
    let wall = started.elapsed().as_nanos() as u64;
    let outcome = result.map(|r| Outcome::Rows(Box::new(r)));
    (wall, outcome.map_err(|e| e.to_string()))
}

/// Count the statement, failing it on an error or a signature that differs
/// from `expected`; returns the outcome when it is usable.
fn settle(
    tally: &mut Tally,
    statement: &Statement,
    outcome: Result<Outcome, String>,
    expected: Option<&str>,
) -> Option<Outcome> {
    match outcome {
        Err(e) => {
            tally.record(Some(format!("{}: {e}", statement.name)));
            None
        }
        Ok(outcome) => {
            let signature = outcome.signature(&statement.sql);
            let problem = expected
                .filter(|e| *e != signature)
                .map(|e| format!("{}: returned {signature}, expected {e}", statement.name));
            tally.record(problem);
            Some(outcome)
        }
    }
}

fn tpch_statements(sf: f64) -> Vec<Statement> {
    bfq::tpch::supported_queries()
        .into_iter()
        .map(|q| Statement {
            name: format!("Q{q}"),
            sql: bfq::tpch::query_text(q, sf),
        })
        .collect()
}

/// One relation of a generated join.
struct Rel {
    table: &'static str,
    alias: &'static str,
}

const R1: Rel = Rel {
    table: "region",
    alias: "r1",
};
const N1: Rel = Rel {
    table: "nation",
    alias: "n1",
};
const C: Rel = Rel {
    table: "customer",
    alias: "c",
};
const O: Rel = Rel {
    table: "orders",
    alias: "o",
};
const L: Rel = Rel {
    table: "lineitem",
    alias: "l",
};
const S: Rel = Rel {
    table: "supplier",
    alias: "s",
};
const N2: Rel = Rel {
    table: "nation",
    alias: "n2",
};
const R2: Rel = Rel {
    table: "region",
    alias: "r2",
};
const P: Rel = Rel {
    table: "part",
    alias: "p",
};
const PS: Rel = Rel {
    table: "partsupp",
    alias: "ps",
};

/// The local predicate of `rel`. The column is fixed and the literal is
/// drawn from a narrow band of near-equal selectivity: the estimates decide
/// which filters the optimizer weighs and so how long it plans, and that
/// must not follow the seed.
fn local_predicate(rel: &Rel, rng: &mut Rng) -> String {
    let a = rel.alias;
    match rel.table {
        "region" => format!("{a}.r_name = '{}'", rng.pick(&bfq::tpch::schema::REGIONS)),
        "nation" => format!("{a}.n_name = '{}'", rng.pick(&bfq::tpch::schema::NATIONS).0),
        "customer" => format!("{a}.c_acctbal > {}", rng.between(4400, 4600)),
        "orders" => format!("{a}.o_orderdate < date '1995-06-{:02}'", rng.between(1, 28)),
        "lineitem" => format!("{a}.l_extendedprice < {}", rng.between(39_000, 41_000)),
        "supplier" => format!("{a}.s_acctbal > {}", rng.between(4400, 4600)),
        "part" => format!("{a}.p_retailprice < {}", rng.between(1480, 1520)),
        _ => format!("{a}.ps_availqty > {}", rng.between(4400, 4600)),
    }
}

fn join_statement(name: String, rels: &[&Rel], edges: &[&str], rng: &mut Rng) -> Statement {
    let from: Vec<String> = rels
        .iter()
        .map(|r| format!("{} {}", r.table, r.alias))
        .collect();
    let mut conditions: Vec<String> = edges.iter().map(|e| e.to_string()).collect();
    conditions.extend(rels.iter().map(|r| local_predicate(r, rng)));
    Statement {
        name,
        sql: format!(
            "select count(*) from {} where {}",
            from.join(", "),
            conditions.join(" and ")
        ),
    }
}

/// Ten joins of 6 to 8 relations over the TPC-H schema: chains, stars and
/// cycles. The shapes are fixed, because planning time grows steeply with
/// the number of relations; the seed draws the literals of the local
/// predicates. They are planned, never executed.
fn wide_joins(seed: u64) -> Vec<Statement> {
    let mut rng = Rng::new(seed ^ 0x7769_6465);
    // The longest key path of the schema; edge i joins relations i, i + 1.
    let path = [&R1, &N1, &C, &O, &L, &S, &N2, &R2];
    let path_edges = [
        "r1.r_regionkey = n1.n_regionkey",
        "n1.n_nationkey = c.c_nationkey",
        "c.c_custkey = o.o_custkey",
        "o.o_orderkey = l.l_orderkey",
        "l.l_suppkey = s.s_suppkey",
        "s.s_nationkey = n2.n_nationkey",
        "n2.n_regionkey = r2.r_regionkey",
    ];
    // lineitem in the middle, then second-level arms.
    let star = [&L, &O, &P, &S, &PS, &C, &N2, &N1];
    let star_edges = [
        "l.l_orderkey = o.o_orderkey",
        "l.l_partkey = p.p_partkey",
        "l.l_suppkey = s.s_suppkey",
        "l.l_partkey = ps.ps_partkey and l.l_suppkey = ps.ps_suppkey",
        "o.o_custkey = c.c_custkey",
        "s.s_nationkey = n2.n_nationkey",
        "c.c_nationkey = n1.n_nationkey",
    ];
    // The Q5 cycle customer-orders-lineitem-supplier-customer, widened by
    // the part/partsupp cycle.
    let cycle = [&C, &O, &L, &S, &N1, &R1, &P, &PS];
    let cycle_edges = [
        "c.c_custkey = o.o_custkey",
        "o.o_orderkey = l.l_orderkey",
        "l.l_suppkey = s.s_suppkey",
        "c.c_nationkey = s.s_nationkey",
        "s.s_nationkey = n1.n_nationkey",
        "n1.n_regionkey = r1.r_regionkey",
        "l.l_partkey = p.p_partkey",
        "ps.ps_partkey = p.p_partkey and ps.ps_suppkey = s.s_suppkey",
    ];
    // (shape, relations, first relation of a chain)
    let shapes = [
        ("chain", 6, 1),
        ("star", 6, 0),
        ("cycle", 6, 0),
        ("chain", 7, 0),
        ("star", 7, 0),
        ("cycle", 7, 0),
        ("chain", 8, 0),
        ("star", 8, 0),
        ("cycle", 8, 0),
        ("chain", 7, 1),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(shape, n, from))| {
            let name = format!("W{i}_{shape}{n}");
            match shape {
                "chain" => join_statement(
                    name,
                    &path[from..from + n],
                    &path_edges[from..from + n - 1],
                    &mut rng,
                ),
                "star" => join_statement(name, &star[..n], &star_edges[..n - 1], &mut rng),
                _ => join_statement(name, &cycle[..n], &cycle_edges[..n], &mut rng),
            }
        })
        .collect()
}

/// The frozen checksums for this scale factor and seed, when committed.
fn load_expected(args: &Args) -> Result<Option<Json>, String> {
    let Some(dir) = &args.expected_dir else {
        return Ok(None);
    };
    let path = dir.join(format!("sf{}-seed{DATA_SEED}.json", args.sf()));
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The paper's "filters change cost, never results", on data nobody picked:
/// a small data set generated from `--seed`, every TPC-H query under the
/// workload's mode and under its reference mode.
fn seeded_cross_check(
    args: &Args,
    mode: &str,
    other: &str,
    tally: &mut Tally,
) -> Result<(), String> {
    let db = bfq::tpch::gen::generate(CHECK_SF, args.seed).map_err(|e| format!("generate: {e}"))?;
    let engine = Engine::new(db, EngineConfig::default());
    let (ours, theirs) = (
        session(&engine, mode, "off")?,
        session(&engine, other, "off")?,
    );
    for statement in tpch_statements(CHECK_SF) {
        let run = |conn: &Connection, mode: &str| {
            engine.clear_plan_cache();
            conn.run_sql(&statement.sql)
                .map(|r| Outcome::Rows(Box::new(r)))
                .map_err(|e| format!("seed {} under bloom_mode = {mode}: {e}", args.seed))
        };
        let expected = settle(tally, &statement, run(&theirs, other), None)
            .map(|outcome| outcome.signature(&statement.sql));
        settle(tally, &statement, run(&ours, mode), expected.as_deref());
    }
    Ok(())
}

/// A seeded permutation of `0..n`: the order of one round's statements.
fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Record the spans of one traced call: the request as the benchmark saw
/// it, and inside it the phases the engine reported, laid end to end.
fn record_spans(recorder: &mut Recorder, stmt: u64, end_ns: u64, wall_ns: u64, outcome: &Outcome) {
    let start = end_ns.saturating_sub(wall_ns);
    let request = recorder.add("request", start, end_ns, None, stmt);
    let Outcome::Rows(result) = outcome else {
        return;
    };
    let phases = &result.phases;
    let planned = start + phases.planning_ns();
    if result.cache_hit {
        recorder.add("cache_hit", start, planned, Some(request), stmt);
    } else {
        recorder.add("parse+bind+optimize", start, planned, Some(request), stmt);
    }
    if phases.execute_ns > 0 {
        recorder.add(
            "execute",
            planned,
            planned + phases.execute_ns,
            Some(request),
            stmt,
        );
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let kind = kind_of(&args.workload);
    let sf = args.sf();
    let mut statements = tpch_statements(sf);
    if matches!(kind, Kind::PlanOnly) {
        statements.extend(wide_joins(args.seed));
    }
    let mode = match kind {
        Kind::Execute { mode, .. } => mode,
        Kind::PlanOnly => "cbo",
    };

    // Set-up, several times over: generate, build the engine, open sessions.
    let mut gen_times = Vec::new();
    let mut failure = None;
    let (env, build_s) = crate::timed_setups(
        || {
            let started = Instant::now();
            let db = bfq::tpch::gen::generate(sf, DATA_SEED);
            gen_times.push(started.elapsed().as_secs_f64());
            let db = db.map_err(|e| format!("generate: {e}")).ok()?;
            let engine = Engine::new(db, EngineConfig::default());
            let sessions = session(&engine, mode, "off")
                .and_then(|conn| Ok((conn, session(&engine, mode, "on")?)));
            match sessions {
                Ok((conn, traced)) => Some(Env {
                    engine,
                    conn,
                    traced,
                }),
                Err(e) => {
                    failure = Some(e);
                    None
                }
            }
        },
        drop,
    );
    let env = env.ok_or_else(|| failure.unwrap_or_else(|| "set-up failed".to_string()))?;
    let gen_s = crate::stats::median(&mut gen_times);

    let mut tally = Tally::default();

    // Reference pass (untimed): what each statement must return. For the
    // executing workloads that is the result under another Bloom mode,
    // itself held against the frozen checksum where a file is committed.
    let mut reference: Vec<Option<String>> = vec![None; statements.len()];
    if let Kind::Execute {
        reference: other, ..
    } = kind
    {
        let expected = load_expected(args)?;
        let conn = session(&env.engine, other, "off")?;
        for (statement, slot) in statements.iter().zip(reference.iter_mut()) {
            env.engine.clear_plan_cache();
            let outcome = conn
                .run_sql(&statement.sql)
                .map(|r| Outcome::Rows(Box::new(r)))
                .map_err(|e| format!("under bloom_mode = {other}: {e}"));
            let frozen = expected
                .as_ref()
                .and_then(|e| e.get("checksums")?.get(&statement.name)?.as_str());
            *slot = settle(&mut tally, statement, outcome, frozen)
                .map(|outcome| outcome.signature(&statement.sql));
        }
        seeded_cross_check(args, mode, other, &mut tally)?;
    }

    // Warm-up pass: fills caches, finds the slow statements, and for
    // planning fixes the shape each later plan must repeat.
    let warmup_started = Instant::now();
    let mut slow = vec![false; statements.len()];
    for (i, statement) in statements.iter().enumerate() {
        let (wall_ns, outcome) = issue(&env, kind, &statement.sql, false);
        slow[i] = wall_ns > SLOW_NS;
        let outcome = settle(&mut tally, statement, outcome, reference[i].as_deref());
        if reference[i].is_none() {
            reference[i] = outcome.map(|o| o.signature(&statement.sql));
        }
    }
    let warmup_s = warmup_started.elapsed().as_secs_f64();

    // Timed cycles.
    let rounds_per_cycle = args.rounds_per_cycle();
    let mut ops: Vec<OpSamples> = statements
        .iter()
        .map(|s| OpSamples {
            name: s.name.clone(),
            untraced: Vec::new(),
            traced: Vec::new(),
        })
        .collect();
    let mut observed: Vec<Vec<Obs>> = vec![Vec::new(); statements.len()];
    let mut recorder = Recorder::new();
    let mut executions = 0u64;
    let cache_before = env.engine.cache_stats();
    let started = Instant::now();
    let mut cycle = 0;
    // Each round issues the statements in an order of its own, so that no
    // statement always runs in the wake of the same neighbour.
    let mut order_rng = Rng::new(args.seed ^ 0x6f72_6465);
    loop {
        for round in 0..rounds_per_cycle {
            let traced = args.trace && round == cycle % rounds_per_cycle;
            for i in shuffled(statements.len(), &mut order_rng) {
                let statement = &statements[i];
                if slow[i] && round != 0 {
                    continue;
                }
                let (wall_ns, outcome) = issue(&env, kind, &statement.sql, traced);
                let end_ns = recorder.now_ns();
                executions += 1;
                let outcome = settle(&mut tally, statement, outcome, reference[i].as_deref());
                let ms = wall_ns as f64 / 1e6;
                if !traced {
                    ops[i].untraced.push(ms);
                    continue;
                }
                ops[i].traced.push(ms);
                if let Some(outcome) = outcome {
                    record_spans(&mut recorder, executions, end_ns, wall_ns, &outcome);
                    if let Outcome::Rows(result) = outcome {
                        observed[i].push(layers::observe(&result, wall_ns, DOP));
                    }
                }
            }
        }
        cycle += 1;
        if args.quick || started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let cache_after = env.engine.cache_stats();

    let mut unsteady = Vec::new();
    let per_statement: Vec<Obs> = observed
        .iter()
        .map(|rounds| {
            let (combined, keys) = layers::over_rounds(rounds);
            for key in keys {
                if !unsteady.contains(&key) {
                    unsteady.push(key);
                }
            }
            combined
        })
        .collect();
    let mut extra = std::collections::BTreeMap::new();
    let lookups =
        (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses);
    extra.insert(
        "core.cache_hit_rate",
        crate::stats::ratio(
            (cache_after.hits - cache_before.hits) as f64,
            lookups as f64,
        ),
    );
    // The cliff detector's second half: how much of the worst statement's
    // execution a nested loop did.
    let worst = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| !op.untraced.is_empty())
        .map(|(i, op)| (i, crate::stats::median(&mut op.untraced.clone())))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    if let Some((i, _)) = worst {
        let obs = &per_statement[i];
        let get = |key: &str| obs.get(key).copied().unwrap_or(0.0);
        extra.insert(
            "exec.worst_op_nestloop_share",
            crate::stats::ratio(get("exec.nestloop_self_ns"), get("exec.execute_ns")),
        );
    }
    if args.trace {
        let (build_s, bytes) = layers::index_cost(&env.engine);
        extra.insert("index.build_s", build_s);
        extra.insert("index.size_bytes", bytes);
    }

    let checksums = statements
        .iter()
        .zip(&reference)
        .filter_map(|(s, r)| Some((s.name.clone(), r.clone()?)))
        .collect();
    Ok(Report {
        tally,
        setup_s: build_s + warmup_s,
        gen_s,
        warmup_s,
        ops,
        concurrent_qps: None,
        layers: layers::over_statements(per_statement.iter()),
        unsteady,
        extra,
        spans: recorder.spans,
        checksums,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_joins_follow_the_seed_and_the_asked_shapes() {
        let a = wide_joins(42);
        let b = wide_joins(42);
        assert_eq!(a.len(), 10);
        assert!(a.iter().zip(&b).all(|(x, y)| x.sql == y.sql));
        assert!(wide_joins(7).iter().zip(&a).any(|(x, y)| x.sql != y.sql));
        for statement in &a {
            let from = statement
                .sql
                .split(" where ")
                .next()
                .expect("a FROM clause");
            let relations = from.matches(',').count() + 1;
            assert!(
                statement.name.ends_with(&relations.to_string()),
                "{}",
                statement.sql
            );
        }
        let mut order = shuffled(32, &mut Rng::new(1));
        order.sort_unstable();
        assert_eq!(order, (0..32).collect::<Vec<_>>());
        for shape in ["chain", "star", "cycle"] {
            assert!(a.iter().any(|s| s.name.contains(shape)));
        }
    }
}
