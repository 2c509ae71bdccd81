//! Per-layer observations, read off what the engine already returns with a
//! result: phase times, optimizer counters, node profiles, prune and probe
//! counters. Layers are the repository's crates.

use std::collections::BTreeMap;
use std::sync::Arc;

use bfq::exec::ExecStats;
use bfq::index::TableIndex;
use bfq::plan::{PhysicalNode, PhysicalPlan};
use bfq::prelude::{Engine, QueryResult};

/// One execution's observations (or a combination of several), by name.
/// Names ending in `_ns` are times; `cost.q_error_max` is a maximum; every
/// other entry is a count.
pub type Obs = BTreeMap<&'static str, f64>;

/// Operator classes that node self time is attributed to.
const CLASSES: [(&str, &str); 7] = [
    ("Scan", "exec.scan_self_ns"),
    ("HashJoin", "exec.hashjoin_self_ns"),
    ("NestLoopJoin", "exec.nestloop_self_ns"),
    ("HashAgg", "exec.agg_self_ns"),
    ("Sort", "exec.sort_self_ns"),
    ("TopN", "exec.sort_self_ns"),
    ("Exchange", "exec.exchange_self_ns"),
];
const OTHER_CLASS: &str = "exec.other_self_ns";

fn class_of(node: &PhysicalPlan) -> &'static str {
    let name = node.op_name();
    let head = name.split_whitespace().next().unwrap_or("");
    CLASSES
        .iter()
        .find(|(op, _)| *op == head)
        .map_or(OTHER_CLASS, |(_, key)| key)
}

fn add(obs: &mut Obs, key: &'static str, value: f64) {
    *obs.entry(key).or_insert(0.0) += value;
}

/// Attribute the subtree's profiled time to operator classes and return
/// how much of the enclosing breaker's wall time the subtree accounts for.
///
/// The engine profiles pipeline breakers inclusively (their wall time
/// covers their whole input subtree) and fused chain operators as self
/// time summed over workers. So a breaker's self time is its wall time
/// minus what its subtree accounts for, and a chain operator accounts for
/// `1/dop` of its summed time plus whatever is below it.
fn attribute(node: &Arc<PhysicalPlan>, stats: &ExecStats, dop: f64, obs: &mut Obs) -> f64 {
    let below: f64 = node
        .children()
        .into_iter()
        .map(|child| attribute(child, stats, dop, obs))
        .sum();
    let Some(profile) = stats.profile_of(node.id) else {
        return below;
    };
    let wall = profile.wall_ns as f64;
    if profile.morsels == 0 {
        add(obs, class_of(node), (wall - below).max(0.0));
        wall.max(below)
    } else {
        add(obs, class_of(node), wall);
        wall / dop + below
    }
}

/// Everything one executed statement tells about the layers below the
/// facade. `wall_ns` is the time the benchmark saw the call take.
pub fn observe(result: &QueryResult, wall_ns: u64, dop: usize) -> Obs {
    let mut obs = Obs::new();
    let phases = &result.phases;
    for (key, ns) in [
        ("wall_ns", wall_ns),
        ("facade.total_ns", phases.total_ns),
        ("sql.parse_ns", phases.parse_ns),
        ("sql.bind_ns", phases.bind_ns),
        ("core.optimize_ns", phases.optimize_ns),
        ("exec.execute_ns", phases.execute_ns),
    ] {
        add(&mut obs, key, ns as f64);
    }

    // A plan that came from the cache or a prepared statement carries the
    // optimizer counters of the run that made it: no search ran this time.
    if phases.optimize_ns > 0 {
        let opt = &result.optimized.stats;
        for (key, count) in [
            ("core.phase1_pairs", opt.phase1.pairs_visited),
            ("core.phase2_generated", opt.phase2.generated),
            ("core.phase2_kept", opt.phase2.kept),
            ("core.candidates", opt.candidates),
            ("core.cbo_filters", opt.cbo_filters),
            ("core.post_filters", opt.post_filters),
            ("core.programs", opt.programs),
        ] {
            add(&mut obs, key, count as f64);
        }
    }

    let stats = &result.exec_stats;
    let plan = &result.optimized.plan;
    if let Some(schedule) = &plan.schedule {
        for step in &schedule.steps {
            attribute(step, stats, dop as f64, &mut obs);
        }
    }
    attribute(plan, stats, dop as f64, &mut obs);

    let mut q_max: f64 = 1.0;
    plan.visit(&mut |node| {
        if let Some(actual) = stats.actual(node.id) {
            let (est, actual) = (node.est_rows.max(1.0), (actual as f64).max(1.0));
            let q = (est / actual).max(actual / est);
            q_max = q_max.max(q);
            add(&mut obs, "cost.q_log_sum", q.ln());
            add(&mut obs, "cost.q_nodes", 1.0);
            if node.op_name().starts_with("Scan ") {
                add(&mut obs, "exec.rows_scanned", actual);
            }
        }
        let blooms = match &node.node {
            PhysicalNode::Scan { blooms, .. } | PhysicalNode::DerivedScan { blooms, .. } => blooms,
            _ => return,
        };
        for apply in blooms {
            let observed = stats
                .filter_observation(apply.filter.0)
                .and_then(|o| o.pass_rate());
            if let Some(observed) = observed {
                add(
                    &mut obs,
                    "cost.pass_abs_err_sum",
                    (apply.predicted_pass - observed).abs(),
                );
                add(&mut obs, "cost.pass_filters", 1.0);
            }
        }
    });
    obs.insert("cost.q_error_max", q_max);

    for filter in stats.filter_observations().values() {
        add(&mut obs, "bloom.rows_probed", filter.rows_in as f64);
        add(&mut obs, "bloom.rows_passed", filter.rows_out as f64);
    }
    let prune = stats.prune_totals();
    for (key, count) in [
        ("exec.join_probe_candidates", stats.join_probe_candidates()),
        ("exec.join_probe_verified", stats.join_probe_verified()),
        ("exec.window_stalls", stats.window_stalls()),
        ("bloom.filters_built", stats.filter_builds()),
        ("bloom.filter_build_ns", stats.filter_build_ns()),
        ("index.chunks_total", prune.chunks),
        ("index.chunks_skipped_zonemap", prune.skipped_zonemap),
        ("index.chunks_skipped_bloom", prune.skipped_bloom),
        ("index.chunks_skipped", prune.skipped()),
    ] {
        add(&mut obs, key, count as f64);
    }
    obs
}

/// What the per-chunk indexes cost: seconds to build them again for every
/// table, and the bytes the catalog's own copies hold.
pub fn index_cost(engine: &Engine) -> (f64, f64) {
    let catalog = engine.catalog();
    let layout = catalog.index_bloom_layout();
    let mut bytes = 0;
    let started = std::time::Instant::now();
    for meta in catalog.tables() {
        if let Ok(table) = catalog.data(meta.id) {
            std::hint::black_box(TableIndex::build_layout(table, layout));
        }
        bytes += catalog.index(meta.id).map_or(0, |index| index.size_bytes());
    }
    (started.elapsed().as_secs_f64(), bytes as f64)
}

fn is_time(key: &str) -> bool {
    key.ends_with("_ns")
}

/// Combine the observations of one statement over several rounds: times
/// become their median, counts are taken from the first round. The second
/// value lists the counts that did not repeat exactly in every round.
pub fn over_rounds(rounds: &[Obs]) -> (Obs, Vec<&'static str>) {
    let mut combined = Obs::new();
    let mut unsteady = Vec::new();
    let Some(first) = rounds.first() else {
        return (combined, unsteady);
    };
    for (&key, &value) in first {
        if is_time(key) {
            let mut values: Vec<f64> = rounds
                .iter()
                .map(|o| o.get(key).copied().unwrap_or(0.0))
                .collect();
            combined.insert(key, crate::stats::median(&mut values));
        } else {
            if rounds.iter().any(|o| o.get(key) != Some(&value)) {
                unsteady.push(key);
            }
            combined.insert(key, value);
        }
    }
    (combined, unsteady)
}

/// Combine the observations of several statements: everything sums, except
/// the largest q-error, which stays a maximum.
pub fn over_statements<'a>(statements: impl Iterator<Item = &'a Obs>) -> Obs {
    let mut combined = Obs::new();
    for obs in statements {
        for (&key, &value) in obs {
            if key == "cost.q_error_max" {
                let slot = combined.entry(key).or_insert(1.0);
                *slot = slot.max(value);
            } else {
                add(&mut combined, key, value);
            }
        }
    }
    combined
}
