//! The operator cost model.
//!
//! Costs are abstract work units roughly proportional to wall time on one
//! worker. Parallel (partitioned) operators process `rows / dop`; broadcast
//! replication makes every worker ingest the *full* row count while
//! hash-repartitioning makes each ingest `rows / dop` — which is exactly the
//! trade-off behind the paper's `BC` vs `RD` plan differences (Figures 1, 6).
//!
//! Bloom filter terms (paper §3.5):
//! * apply: `k · input_rows`, with `k` **smaller than a hash-table probe**;
//! * build: accounted via `bf_build_per_row`, which defaults to `0.0` ("in
//!   practice we found this cost to be negligible, so it is set to zero").

/// Tunable per-row constants.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// Emitting one tuple from any operator.
    pub cpu_tuple: f64,
    /// Evaluating one predicate/expression on one row.
    pub cpu_operator: f64,
    /// Reading one row in a scan (per retained column).
    pub scan_per_row: f64,
    /// Inserting one row into a join hash table.
    pub hash_build: f64,
    /// Probing a join hash table with one row.
    pub hash_probe: f64,
    /// Applying a Bloom filter to one row — the paper's `k`, strictly less
    /// than `hash_probe`.
    pub bf_apply: f64,
    /// Inserting one row into a Bloom filter (paper sets this to zero).
    pub bf_build_per_row: f64,
    /// Moving one row through a repartition/broadcast exchange.
    pub transfer: f64,
    /// Per-row-per-comparison sort constant.
    pub sort_cmp: f64,
    /// Aggregating one row into a hash group.
    pub agg_per_row: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            cpu_tuple: 0.01,
            cpu_operator: 0.0025,
            scan_per_row: 0.01,
            hash_build: 0.015,
            hash_probe: 0.01,
            bf_apply: 0.005,
            bf_build_per_row: 0.0,
            transfer: 0.02,
            sort_cmp: 0.004,
            agg_per_row: 0.012,
        }
    }
}

/// A cost value. Kept as a struct so a startup component could be added, but
/// comparisons use `total`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Total work units.
    pub total: f64,
}

impl Cost {
    /// Zero cost.
    pub const ZERO: Cost = Cost { total: 0.0 };

    /// A cost of `total` units.
    pub fn of(total: f64) -> Cost {
        Cost { total }
    }

    /// Sum.
    pub fn plus(self, other: Cost) -> Cost {
        Cost {
            total: self.total + other.total,
        }
    }

    /// Whether `self` is cheaper than `other` by more than a relative fuzz
    /// (used for pruning: plans within 1e-9 are "equal").
    pub fn cheaper_than(self, other: Cost) -> bool {
        self.total < other.total * (1.0 - 1e-9)
    }
}

/// The cost model: parameters plus the degree of parallelism.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Per-row constants.
    pub params: CostParams,
    /// Degree of parallelism (the paper runs DOP 48; we default smaller).
    pub dop: usize,
}

impl CostModel {
    /// A model with default parameters at the given DOP.
    pub fn new(dop: usize) -> Self {
        CostModel {
            params: CostParams::default(),
            dop: dop.max(1),
        }
    }

    fn dop_f(&self) -> f64 {
        self.dop as f64
    }

    /// Whether plans for this model run on one stream. There a broadcast,
    /// repartition or gather moves nothing, so the optimizer seeds every
    /// scan `Single` and places no exchange.
    pub fn single_stream(&self) -> bool {
        self.dop <= 1
    }

    /// Scan cost: read `input_rows`, evaluate `n_preds` predicates and
    /// `n_bloom` Bloom filters per row, emit `output_rows`. Scans are always
    /// partitioned across workers.
    pub fn scan(&self, input_rows: f64, output_rows: f64, n_preds: usize, n_bloom: usize) -> Cost {
        self.scan_with_blooms(input_rows, input_rows, output_rows, n_preds, n_bloom)
    }

    /// Scan cost with the Bloom-apply term charged on the
    /// post-local-predicate rows: read `raw_rows`, evaluate `n_preds`
    /// predicates per raw row, probe `n_bloom` filters per surviving
    /// (`filtered_rows`) row, emit `output_rows`.
    pub fn scan_with_blooms(
        &self,
        raw_rows: f64,
        filtered_rows: f64,
        output_rows: f64,
        n_preds: usize,
        n_bloom: usize,
    ) -> Cost {
        let per_worker = raw_rows / self.dop_f();
        let read = per_worker * self.params.scan_per_row;
        let preds = per_worker * n_preds as f64 * self.params.cpu_operator;
        let bloom = (filtered_rows / self.dop_f()) * n_bloom as f64 * self.params.bf_apply;
        let emit = (output_rows / self.dop_f()) * self.params.cpu_tuple;
        Cost::of(read + preds + bloom + emit)
    }

    /// Hash join cost (per-worker): build `build_rows`, probe `probe_rows`,
    /// emit `output_rows`. `build_replicated` means every worker builds the
    /// full table (broadcast inner); `single_stream` disables the DOP
    /// divisor entirely.
    pub fn hash_join(
        &self,
        build_rows: f64,
        probe_rows: f64,
        output_rows: f64,
        n_bloom_builds: usize,
        build_replicated: bool,
        single_stream: bool,
    ) -> Cost {
        let dop = if single_stream { 1.0 } else { self.dop_f() };
        let build_per_worker = if build_replicated || single_stream {
            build_rows
        } else {
            build_rows / dop
        };
        let build = build_per_worker * self.params.hash_build;
        let bf_build = build_per_worker * n_bloom_builds as f64 * self.params.bf_build_per_row;
        let probe = (probe_rows / dop) * self.params.hash_probe;
        let emit = (output_rows / dop) * self.params.cpu_tuple;
        Cost::of(build + bf_build + probe + emit)
    }

    /// Nested-loop join: outer × inner predicate evaluations.
    pub fn nestloop_join(
        &self,
        outer_rows: f64,
        inner_rows: f64,
        output_rows: f64,
        single_stream: bool,
    ) -> Cost {
        let dop = if single_stream { 1.0 } else { self.dop_f() };
        let compare = (outer_rows / dop) * inner_rows.max(1.0) * self.params.cpu_operator;
        let emit = (output_rows / dop) * self.params.cpu_tuple;
        Cost::of(compare + emit)
    }

    /// Exchange cost by flavor: broadcast makes each worker ingest all rows;
    /// repartition spreads them.
    pub fn broadcast(&self, rows: f64) -> Cost {
        Cost::of(rows * self.params.transfer)
    }

    /// Hash repartition cost.
    pub fn repartition(&self, rows: f64) -> Cost {
        Cost::of((rows / self.dop_f()) * self.params.transfer)
    }

    /// Gather-to-single cost.
    pub fn gather(&self, rows: f64) -> Cost {
        Cost::of(rows * self.params.transfer * 0.25)
    }

    /// Sort cost (single stream in this engine).
    pub fn sort(&self, rows: f64) -> Cost {
        if rows <= 1.0 {
            return Cost::ZERO;
        }
        Cost::of(rows * rows.log2().max(1.0) * self.params.sort_cmp)
    }

    /// Hash aggregation cost.
    pub fn agg(&self, input_rows: f64, groups: f64) -> Cost {
        Cost::of(input_rows * self.params.agg_per_row + groups * self.params.cpu_tuple)
    }

    /// Standalone filter cost.
    pub fn filter(&self, rows: f64, single_stream: bool) -> Cost {
        let dop = if single_stream { 1.0 } else { self.dop_f() };
        Cost::of((rows / dop) * self.params.cpu_operator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_satisfy_paper_constraints() {
        let p = CostParams::default();
        // Paper §3.5: k is smaller than the cost of a hash-table lookup.
        assert!(p.bf_apply < p.hash_probe);
        // Paper §3.5: build cost is accounted for but set to zero.
        assert_eq!(p.bf_build_per_row, 0.0);
    }

    #[test]
    fn bloom_filters_add_scan_cost_but_cheapen_parents() {
        let m = CostModel::new(4);
        let plain = m.scan(1_000_000.0, 1_000_000.0, 0, 0);
        let with_bf = m.scan(1_000_000.0, 100_000.0, 0, 1);
        // The filter itself costs something...
        let bf_only_cost = m.scan(1_000_000.0, 1_000_000.0, 0, 1);
        assert!(bf_only_cost.total > plain.total);
        // ...but the downstream join sees 10x fewer probe rows.
        let join_plain = m.hash_join(1000.0, 1_000_000.0, 1_000_000.0, 0, false, false);
        let join_bf = m.hash_join(1000.0, 100_000.0, 100_000.0, 0, false, false);
        assert!(
            with_bf.total + join_bf.total < plain.total + join_plain.total,
            "BF should pay for itself when selective"
        );
    }

    #[test]
    fn broadcast_beats_repartition_only_for_small_inputs() {
        let m = CostModel::new(8);
        // Broadcasting a small build side is cheaper than repartitioning
        // both sides of a big join.
        let small = 1000.0;
        let big = 10_000_000.0;
        let bc_plan = m.broadcast(small).total; // probe side stays put
        let rd_plan = m.repartition(small).total + m.repartition(big).total;
        assert!(bc_plan < rd_plan);
        // Broadcasting a big input is worse than repartitioning it.
        assert!(m.broadcast(big).total > m.repartition(big).total);
    }

    #[test]
    fn replicated_build_costs_full_rows_per_worker() {
        let m = CostModel::new(8);
        let partitioned = m.hash_join(8000.0, 80_000.0, 80_000.0, 0, false, false);
        let replicated = m.hash_join(8000.0, 80_000.0, 80_000.0, 0, true, false);
        assert!(replicated.total > partitioned.total);
    }

    #[test]
    fn single_stream_removes_dop_divisor() {
        let m = CostModel::new(8);
        let par = m.hash_join(1000.0, 1000.0, 1000.0, 0, false, false);
        let single = m.hash_join(1000.0, 1000.0, 1000.0, 0, false, true);
        assert!(single.total > par.total);
        assert!(m.filter(800.0, true).total > m.filter(800.0, false).total);
    }

    #[test]
    fn nestloop_scales_quadratically() {
        let m = CostModel::new(1);
        let small = m.nestloop_join(100.0, 100.0, 100.0, true);
        let big = m.nestloop_join(1000.0, 1000.0, 1000.0, true);
        assert!(big.total > small.total * 50.0);
    }

    #[test]
    fn sort_is_superlinear() {
        let m = CostModel::new(1);
        let s1 = m.sort(1000.0).total;
        let s2 = m.sort(2000.0).total;
        assert!(s2 > s1 * 2.0);
        assert_eq!(m.sort(1.0).total, 0.0);
    }

    #[test]
    fn cost_comparisons() {
        let a = Cost::of(1.0);
        let b = Cost::of(2.0);
        assert!(a.cheaper_than(b));
        assert!(!b.cheaper_than(a));
        assert!(!a.cheaper_than(a));
        assert_eq!(a.plus(b).total, 3.0);
        assert_eq!(Cost::ZERO.total, 0.0);
    }
}
