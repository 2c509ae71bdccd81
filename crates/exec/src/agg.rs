//! Hash aggregation with grouping, DISTINCT and HAVING: a columnar kernel
//! on the flat hash directory the hash join builds on.
//!
//! Per chunk, a grouper hashes the group keys in one pass, finds or inserts
//! each row's group — verifying keys against the group's first row — and
//! writes dense group ids into a reused `Vec<u32>`; each aggregate then
//! folds its argument column, in row order, into per-group vectors. Group
//! ids follow first-seen row order and floats accumulate in row order, so
//! the output depends only on the sequence of rows fed: not on how they are
//! cut into chunks, and not on the hash seed, which is random per grouper
//! because keys come from table data and a fixed seed would let crafted
//! keys collide.

use std::cmp::Ordering;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

use bfq_common::{BfqError, DataType, Datum, Result};
use bfq_expr::{eval, eval_predicate, Expr, Layout};
use bfq_plan::{AggExpr, AggFunc, OutputColumn};
use bfq_storage::{Bitmap, Chunk, Column, ColumnBuilder};

use crate::util::{col_eq, hash_keys_into, Directory};

/// The output type of an aggregate given its argument type.
pub fn agg_output_type(func: AggFunc, arg: Option<DataType>) -> DataType {
    match func {
        AggFunc::Count | AggFunc::CountStar => DataType::Int64,
        AggFunc::Avg => DataType::Float64,
        AggFunc::Sum => match arg {
            Some(DataType::Int64) => DataType::Int64,
            _ => DataType::Float64,
        },
        AggFunc::Min | AggFunc::Max => arg.unwrap_or(DataType::Int64),
    }
}

/// Group-key equality: NULL equals NULL, and floats are equal when `==`
/// (so `-0.0` is `0.0`) or bit-identical (so a NaN matches itself).
#[inline]
fn key_eq(a: &Column, i: usize, b: &Column, j: usize) -> bool {
    match (a.is_null(i), b.is_null(j), a, b) {
        (false, false, Column::Int64(x, _), Column::Int64(y, _)) => x[i] == y[j],
        (true, true, ..) => true,
        (false, false, Column::Float64(x, _), Column::Float64(y, _)) => {
            x[i] == y[j] || x[i].to_bits() == y[j].to_bits()
        }
        (false, false, ..) => col_eq(a, i, b, j),
        _ => false,
    }
}

/// Dense ids, in first-seen order, for the distinct rows of some key
/// columns: a [`Directory`] from key hash to group id, each candidate
/// verified against its group's first row.
struct Grouper {
    seed: u64,
    dir: Directory,
    /// Each group's key row, in group-id order, one chunk per input chunk
    /// that brought new groups.
    keys: Vec<Chunk>,
    /// Each group's key row as (index into `keys`, row).
    at: Vec<(u32, u32)>,
    /// Reused per-chunk buffers: column and row key hashes.
    tmp: Vec<u64>,
    hashes: Vec<u64>,
}

impl Grouper {
    fn new() -> Grouper {
        Grouper {
            seed: RandomState::new().hash_one(0u64),
            dir: Directory::with_keys(0),
            keys: Vec::new(),
            at: Vec::new(),
            tmp: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// Append the group id of each row of `keys` to `ids`; returns the rows
    /// that started a group.
    fn assign(&mut self, keys: &Chunk, ids: &mut Vec<u32>) -> Result<Vec<u32>> {
        let width: Vec<usize> = (0..keys.width()).collect();
        hash_keys_into(keys, &width, self.seed, &mut self.tmp, &mut self.hashes);
        let (part, first) = (self.keys.len(), self.at.len());
        // Groups first seen here point into this chunk until it is
        // compacted to their rows below.
        self.keys.push(keys.clone());
        let mut new_rows = Vec::new();
        for (i, &h) in self.hashes.iter().enumerate() {
            let (stored, at) = (&self.keys, &self.at);
            let found = self.dir.find(h, |g| {
                let (p, r) = at[g as usize];
                let p = &stored[p as usize];
                (0..keys.width()).all(|k| key_eq(p.column(k), r as usize, keys.column(k), i))
            });
            ids.push(match found {
                Ok(slot) => self.dir.payload[slot],
                Err(slot) => {
                    let g = u32::try_from(self.at.len())
                        .map_err(|_| BfqError::Execution("more than 2^32 groups".into()))?;
                    self.dir.insert(slot, h, g);
                    self.at.push((part as u32, i as u32));
                    new_rows.push(i as u32);
                    g
                }
            });
        }
        if new_rows.is_empty() {
            self.keys.pop();
        } else {
            self.keys[part] = keys.take(&new_rows);
            for (row, at) in self.at[first..].iter_mut().enumerate() {
                at.1 = row as u32;
            }
        }
        Ok(new_rows)
    }

    /// The rows of `col` whose value is the first of its group in `ids`,
    /// with their group ids: what a DISTINCT aggregate folds.
    fn first_seen(&mut self, col: &Arc<Column>, ids: &[u32]) -> Result<(Column, Vec<u32>)> {
        let groups = Column::Int64(ids.iter().map(|&g| g as i64).collect(), None);
        let pairs = Chunk::new(vec![Arc::new(groups), Arc::clone(col)])?;
        let keep = self.assign(&pairs, &mut Vec::with_capacity(ids.len()))?;
        let ids = keep.iter().map(|&i| ids[i as usize]).collect();
        Ok((col.take(&keep), ids))
    }
}

/// The group-key columns of `input`.
fn eval_keys(group_by: &[OutputColumn], input: &Chunk, layout: &Layout) -> Result<Chunk> {
    let keys = group_by.iter().map(|g| eval(&g.expr, input, layout));
    Chunk::new(keys.collect::<Result<_>>()?)
}

/// Call `f(group, row)` for each non-null row of `col`, in row order.
#[inline]
fn rows(col: &Column, ids: &[u32], mut f: impl FnMut(usize, usize)) {
    for (i, &g) in ids.iter().enumerate() {
        if !col.is_null(i) {
            f(g as usize, i);
        }
    }
}

/// [`rows`] with each row's numeric value (ints and dates widened, as
/// `Datum::as_f64` does); strings and booleans have none.
#[inline]
fn numeric(col: &Column, ids: &[u32], mut f: impl FnMut(usize, f64)) {
    match col {
        Column::Float64(v, _) => rows(col, ids, |g, i| f(g, v[i])),
        Column::Int64(v, _) => rows(col, ids, |g, i| f(g, v[i] as f64)),
        Column::Date(v, _) => rows(col, ids, |g, i| f(g, v[i] as f64)),
        Column::Utf8(..) | Column::Bool(..) => {}
    }
}

/// One aggregate's per-group state: values folded (rows for `COUNT(*)`,
/// numeric values for SUM/AVG), their sum (wrapping `ints` for an Int64
/// SUM, else `floats` in row order), or the MIN/MAX so far, which a value
/// replaces only when strictly beyond it (ties and NaNs keep the first).
struct Acc {
    func: AggFunc,
    out: DataType,
    n: Vec<i64>,
    ints: Vec<i64>,
    floats: Vec<f64>,
    best: Vec<Datum>,
}

impl Acc {
    /// Grow to `len` groups.
    fn resize(&mut self, len: usize) {
        self.n.resize(len, 0);
        match self.func {
            AggFunc::Sum if self.out == DataType::Int64 => self.ints.resize(len, 0),
            AggFunc::Sum | AggFunc::Avg => self.floats.resize(len, 0.0),
            AggFunc::Min | AggFunc::Max => self.best.resize(len, Datum::Null),
            AggFunc::Count | AggFunc::CountStar => {}
        }
    }

    /// Fold `arg` (`None` for `COUNT(*)`) into each row's group in row order.
    fn fold(&mut self, arg: Option<&Column>, ids: &[u32]) {
        let Some(col) = arg else {
            return ids.iter().for_each(|&g| self.n[g as usize] += 1);
        };
        let wins = match (self.func, col) {
            (AggFunc::Count | AggFunc::CountStar, _) => {
                return rows(col, ids, |g, _| self.n[g] += 1)
            }
            (AggFunc::Min, _) => Ordering::Less,
            (AggFunc::Max, _) => Ordering::Greater,
            (_, Column::Int64(v, _)) if self.out == DataType::Int64 => {
                return rows(col, ids, |g, i| {
                    self.n[g] += 1;
                    self.ints[g] = self.ints[g].wrapping_add(v[i]);
                });
            }
            _ => {
                return numeric(col, ids, |g, x| {
                    self.n[g] += 1;
                    self.floats[g] += x;
                });
            }
        };
        rows(col, ids, |g, i| {
            let v = col.get(i);
            if self.best[g].is_null() || v.sql_cmp(&self.best[g]) == Some(wins) {
                self.best[g] = v;
            }
        });
    }

    fn into_column(self) -> Result<Column> {
        let valid = self.n.iter().map(|&c| c > 0).collect::<Vec<_>>();
        let valid = valid.contains(&false).then(|| Bitmap::from_bools(valid));
        Ok(match self.func {
            AggFunc::Count | AggFunc::CountStar => Column::Int64(self.n, None),
            AggFunc::Sum if self.out == DataType::Int64 => Column::Int64(self.ints, valid),
            AggFunc::Sum => Column::Float64(self.floats, valid),
            AggFunc::Avg => {
                let avg = self.floats.iter().zip(&self.n);
                let avg = avg.map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 });
                Column::Float64(avg.collect(), valid)
            }
            AggFunc::Min | AggFunc::Max => {
                let mut column = ColumnBuilder::with_capacity(self.out, self.best.len());
                self.best.iter().try_for_each(|v| column.push_datum(v))?;
                column.finish()
            }
        })
    }
}

/// Incremental hash-aggregation state: feed it chunks one at a time with
/// [`AggState::update`], then [`AggState::finish`]. The result depends only
/// on the sequence of rows fed, not on how they are cut into chunks.
pub struct AggState {
    input_layout: Layout,
    group_by: Vec<OutputColumn>,
    aggs: Vec<AggExpr>,
    /// `None` for scalar aggregation, whose one group needs no lookup.
    grouper: Option<Grouper>,
    accs: Vec<Acc>,
    /// A (group id, value) grouper per DISTINCT aggregate.
    distinct: Vec<Option<Grouper>>,
    /// Group id of each row of the current chunk.
    ids: Vec<u32>,
}

impl AggState {
    /// Fresh state for the given grouping/aggregate shape over inputs of
    /// `input_types` laid out as `input_layout`.
    pub fn new(
        input_layout: &Layout,
        input_types: &[DataType],
        group_by: &[OutputColumn],
        aggs: &[AggExpr],
    ) -> Result<AggState> {
        let resolve = |c: bfq_common::ColumnId| -> Option<DataType> {
            input_layout.slot_of(c).map(|s| input_types[s])
        };
        // Scalar aggregation always has exactly one group, even over zero
        // rows.
        let groups = usize::from(group_by.is_empty());
        let accs = aggs.iter().map(|a| {
            let arg = a.arg.as_ref().and_then(|e| e.data_type(&resolve));
            let mut acc = Acc {
                func: a.func,
                out: agg_output_type(a.func, arg),
                n: Vec::new(),
                ints: Vec::new(),
                floats: Vec::new(),
                best: Vec::new(),
            };
            acc.resize(groups);
            acc
        });
        let grouper = if group_by.is_empty() {
            None
        } else {
            // Keys evaluated over no rows type the key columns of a result
            // with no groups.
            let no_rows = input_types.iter().map(|&t| ColumnBuilder::new(t).finish());
            let no_rows = Chunk::new(no_rows.map(Arc::new).collect())?;
            let keys = vec![eval_keys(group_by, &no_rows, input_layout)?];
            Some(Grouper {
                keys,
                ..Grouper::new()
            })
        };
        Ok(AggState {
            input_layout: input_layout.clone(),
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
            grouper,
            accs: accs.collect(),
            distinct: aggs
                .iter()
                .map(|a| (a.distinct && a.arg.is_some()).then(Grouper::new))
                .collect(),
            ids: Vec::new(),
        })
    }

    /// Accumulate one input chunk: group ids for every row, then one fold
    /// per aggregate, each in row order.
    pub fn update(&mut self, input: &Chunk) -> Result<()> {
        self.ids.clear();
        match &mut self.grouper {
            None => self.ids.resize(input.rows(), 0),
            Some(grouper) => {
                let keys = eval_keys(&self.group_by, input, &self.input_layout)?;
                grouper.assign(&keys, &mut self.ids)?;
            }
        }
        let groups = self.grouper.as_ref().map_or(1, |g| g.at.len());
        for ((acc, agg), distinct) in self.accs.iter_mut().zip(&self.aggs).zip(&mut self.distinct) {
            acc.resize(groups);
            let Some(arg) = &agg.arg else {
                acc.fold(None, &self.ids);
                continue;
            };
            let col = eval(arg, input, &self.input_layout)?;
            match distinct {
                None => acc.fold(Some(&col), &self.ids),
                Some(seen) => {
                    let (col, ids) = seen.first_seen(&col, &self.ids)?;
                    acc.fold(Some(&col), &ids);
                }
            }
        }
        Ok(())
    }

    /// Pre-size the group directory, before the first
    /// [`AggState::update`], for the planner's group estimate capped by
    /// the input's row estimate (a group needs at least one row) and by
    /// 2^21, so a wild estimate allocates nothing it cannot use. The
    /// directory doubles on demand past this size.
    pub fn reserve(&mut self, est_groups: f64, est_input_rows: f64) {
        if let Some(g) = self.grouper.as_mut().filter(|g| g.at.is_empty()) {
            let groups = est_groups.min(est_input_rows).clamp(0.0, (1 << 21) as f64);
            g.dir = Directory::with_keys(groups as usize);
        }
    }

    /// Materialize the aggregated output (group columns then aggregate
    /// columns, one column at a time), applying the `having` filter over
    /// `out_layout`.
    pub fn finish(self, having: &Option<Expr>, out_layout: &Layout) -> Result<Chunk> {
        let mut columns = match self.grouper {
            Some(g) => Chunk::concat(&g.keys)?.columns().to_vec(),
            None => Vec::new(),
        };
        for acc in self.accs {
            columns.push(Arc::new(acc.into_column()?));
        }
        let out = Chunk::new(columns)?;
        Ok(match having {
            Some(h) => {
                let sel = eval_predicate(h, &out, out_layout)?;
                out.take(&sel)
            }
            None => out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_common::{ColumnId, TableId};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use AggFunc::{Avg, Count, CountStar, Max, Min, Sum};

    const TYPES: [DataType; 4] = [
        DataType::Int64,
        DataType::Float64,
        DataType::Utf8,
        DataType::Date,
    ];

    /// Input columns and rows, group-key columns, aggregates as (function,
    /// argument column, DISTINCT).
    struct Case {
        types: Vec<DataType>,
        rows: Vec<Vec<Datum>>,
        keys: Vec<usize>,
        aggs: Vec<(AggFunc, Option<usize>, bool)>,
    }

    /// A nullable value of `dt` from a small domain, so keys repeat; floats
    /// include both zeros and NaNs of both signs.
    fn value(rng: &mut TestRng, dt: DataType) -> Datum {
        if rng.below(5) == 0 {
            return Datum::Null;
        }
        let k = rng.below(6) as usize;
        match dt {
            DataType::Int64 => Datum::Int(k as i64 - 2),
            DataType::Float64 => Datum::Float([0.0, -0.0, f64::NAN, -f64::NAN, 0.1, -2.5e15][k]),
            DataType::Utf8 => Datum::str(["", "a", "b", "ab", "ba", "c"][k]),
            DataType::Date => Datum::Date(9000 + k as i32),
            DataType::Bool => unreachable!("not generated"),
        }
    }

    fn case(rng: &mut TestRng) -> Case {
        let width = 1 + rng.below(4) as usize;
        let types: Vec<DataType> = (0..width).map(|_| TYPES[rng.below(4) as usize]).collect();
        let n = if rng.below(8) == 0 { 0 } else { rng.below(80) };
        let rows = (0..n)
            .map(|_| types.iter().map(|&t| value(rng, t)).collect())
            .collect();
        let keys = (0..rng.below(4))
            .map(|_| rng.below(width as u64) as usize)
            .collect();
        let aggs = (0..1 + rng.below(4))
            .map(|_| {
                let func = [Count, CountStar, Sum, Min, Max, Avg][rng.below(6) as usize];
                let arg = (func != CountStar).then(|| rng.below(width as u64) as usize);
                (func, arg, arg.is_some() && rng.below(3) == 0)
            })
            .collect();
        Case {
            types,
            rows,
            keys,
            aggs,
        }
    }

    /// Chunk boundaries over `n` rows, empty chunks included.
    fn cuts(rng: &mut TestRng, n: usize) -> Vec<usize> {
        let mut cuts: Vec<usize> = (0..rng.below(5))
            .map(|_| rng.below(n as u64 + 1) as usize)
            .collect();
        cuts.extend([0, n]);
        cuts.sort_unstable();
        cuts
    }

    fn state(c: &Case) -> AggState {
        let cid = |i: usize| ColumnId::new(TableId(0), i as u32);
        let layout = Layout::new((0..c.types.len()).map(cid).collect());
        let group_by: Vec<OutputColumn> = (c.keys.iter().enumerate())
            .map(|(i, &k)| OutputColumn {
                expr: Expr::col(cid(k)),
                name: format!("k{i}"),
                id: ColumnId::new(TableId(1), i as u32),
            })
            .collect();
        let aggs: Vec<AggExpr> = (c.aggs.iter().enumerate())
            .map(|(i, &(func, arg, distinct))| AggExpr {
                func,
                arg: arg.map(|a| Expr::col(cid(a))),
                distinct,
                output: ColumnId::new(TableId(2), i as u32),
            })
            .collect();
        AggState::new(&layout, &c.types, &group_by, &aggs).unwrap()
    }

    /// Feed `c`'s rows cut at `cuts`; the output rows, floats as bits.
    fn feed(mut state: AggState, c: &Case, cuts: &[usize]) -> Vec<Vec<String>> {
        for w in cuts.windows(2) {
            let columns = c.types.iter().enumerate().map(|(j, &t)| {
                let mut column = ColumnBuilder::new(t);
                (c.rows[w[0]..w[1]].iter()).for_each(|row| column.push_datum(&row[j]).unwrap());
                Arc::new(column.finish())
            });
            state
                .update(&Chunk::new(columns.collect()).unwrap())
                .unwrap();
        }
        let out = state.finish(&None, &Layout::new(Vec::new())).unwrap();
        (0..out.rows())
            .map(|i| out.row(i).iter().map(bits).collect())
            .collect()
    }

    /// A datum with floats as bits, except that every NaN is one: the sign
    /// and payload of a NaN that arithmetic returns are unspecified.
    fn bits(d: &Datum) -> String {
        match d {
            Datum::Float(x) if x.is_nan() => "Float(NaN)".into(),
            Datum::Float(x) => format!("Float({:#x})", x.to_bits()),
            d => format!("{d:?}"),
        }
    }

    /// Key identity: NULL is NULL, `-0.0` is `0.0`, other floats by bits.
    fn same(a: &Datum, b: &Datum) -> bool {
        let key = |x: f64| if x == 0.0 { 0 } else { x.to_bits() };
        match (a, b) {
            (Datum::Float(x), Datum::Float(y)) => key(*x) == key(*y),
            _ => a == b,
        }
    }

    /// Row at a time: groups in first-seen order, each aggregate over the
    /// values it folds (one per row for `COUNT(*)`, non-null otherwise,
    /// first occurrences only under DISTINCT), sums in row order.
    fn reference(c: &Case) -> Vec<Vec<String>> {
        let mut groups: Vec<(Vec<Datum>, Vec<Vec<Datum>>)> = Vec::new();
        if c.keys.is_empty() {
            groups.push((Vec::new(), vec![Vec::new(); c.aggs.len()]));
        }
        for row in &c.rows {
            let key: Vec<Datum> = c.keys.iter().map(|&k| row[k].clone()).collect();
            let g = match (groups.iter())
                .position(|(k, _)| k.iter().zip(&key).all(|(a, b)| same(a, b)))
            {
                Some(g) => g,
                None => {
                    groups.push((key, vec![Vec::new(); c.aggs.len()]));
                    groups.len() - 1
                }
            };
            for (folded, &(_, arg, distinct)) in groups[g].1.iter_mut().zip(&c.aggs) {
                let v = arg.map_or(Datum::Int(1), |a| row[a].clone());
                let repeat = distinct && folded.iter().any(|f| same(f, &v));
                if !v.is_null() && !repeat {
                    folded.push(v);
                }
            }
        }
        let result = |&(func, arg, _): &(AggFunc, Option<usize>, bool), vals: &[Datum]| {
            let nums: Vec<f64> = vals.iter().filter_map(Datum::as_f64).collect();
            let sum = nums.iter().fold(0.0, |s, x| s + x);
            match func {
                Count | CountStar => Datum::Int(vals.len() as i64),
                _ if vals.is_empty() => Datum::Null,
                Sum if arg.map(|a| c.types[a]) == Some(DataType::Int64) => Datum::Int(
                    vals.iter()
                        .map(|v| v.as_i64().unwrap())
                        .fold(0, i64::wrapping_add),
                ),
                Sum | Avg if nums.is_empty() => Datum::Null,
                Sum => Datum::Float(sum),
                Avg => Datum::Float(sum / nums.len() as f64),
                Min | Max => vals.iter().fold(Datum::Null, |best, v| {
                    let wins = if func == Max {
                        Ordering::Greater
                    } else {
                        Ordering::Less
                    };
                    if best.is_null() || v.sql_cmp(&best) == Some(wins) {
                        v.clone()
                    } else {
                        best
                    }
                }),
            }
        };
        (groups.into_iter())
            .map(|(key, folded)| {
                let aggs = c.aggs.iter().zip(&folded).map(|(a, vals)| result(a, vals));
                key.iter().cloned().chain(aggs).map(|d| bits(&d)).collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn kernel_matches_a_row_at_a_time_reference(seed in any::<u64>()) {
            let mut rng = TestRng::for_case(seed);
            let c = case(&mut rng);
            let n = c.rows.len();
            let once = feed(state(&c), &c, &cuts(&mut rng, n));
            prop_assert_eq!(&once, &reference(&c));
            prop_assert_eq!(&once, &feed(state(&c), &c, &cuts(&mut rng, n)));
            if n == 0 {
                prop_assert_eq!(once.len(), usize::from(c.keys.is_empty()));
            }
        }
    }

    #[test]
    fn key_equality_groups_nulls_and_both_zeros() {
        let valid = |v: [bool; 2]| Some(Bitmap::from_bools(v));
        let floats = Column::Float64(vec![0.0, -0.0, f64::NAN, -f64::NAN], None);
        let nulls = Column::Float64(vec![0.0, 0.0], valid([true, false]));
        let ints = Column::Int64(vec![0, 0], valid([true, false]));
        assert!(key_eq(&floats, 0, &floats, 1), "-0.0 is 0.0");
        assert!(key_eq(&floats, 2, &floats, 2), "a NaN is itself");
        assert!(
            !key_eq(&floats, 2, &floats, 3),
            "NaNs with other bits differ"
        );
        assert!(key_eq(&nulls, 1, &ints, 1), "NULL is NULL");
        assert!(!key_eq(&nulls, 0, &nulls, 1) && !key_eq(&ints, 0, &ints, 1));
    }

    #[test]
    fn hash_seeds_are_random_per_state_and_never_reach_the_output() {
        let c = Case {
            types: vec![DataType::Utf8, DataType::Int64],
            rows: (0..200)
                .map(|i| vec![Datum::str(format!("k{}", i % 37)), Datum::Int(i)])
                .collect(),
            keys: vec![0],
            aggs: vec![(Sum, Some(1), false), (Count, Some(1), true)],
        };
        let (a, b) = (state(&c), state(&c));
        let seed = |s: &AggState| s.grouper.as_ref().unwrap().seed;
        assert_ne!(seed(&a), seed(&b));
        assert_eq!(feed(a, &c, &[0, 77, 200]), feed(b, &c, &[0, 77, 200]));
    }

    #[test]
    fn directory_reserve_is_capped_by_input_rows() {
        let c = Case {
            types: vec![DataType::Int64],
            rows: (0..10).map(|i| vec![Datum::Int(i % 4)]).collect(),
            keys: vec![0],
            aggs: vec![(CountStar, None, false)],
        };
        let slots = |s: &AggState| s.grouper.as_ref().unwrap().dir.slots();
        // A wild group estimate over a 10-row input: sized for 10 groups.
        let mut s = state(&c);
        s.reserve(1e12, 10.0);
        assert_eq!(slots(&s), Directory::with_keys(10).slots());
        assert_eq!(feed(s, &c, &[0, 10]).len(), 4);
        // A small estimate over a large input keeps the minimum directory.
        let mut s = state(&c);
        s.reserve(4.0, 1e9);
        assert_eq!(slots(&s), Directory::with_keys(0).slots());
    }
}
