//! Hash aggregation with grouping, DISTINCT and HAVING: a columnar kernel
//! on the flat hash directory the hash join builds on, cut into hash
//! partitions that separate workers fold side by side.
//!
//! An `AggSink` holds one aggregation's shape and hash seed. Inside a
//! morsel, `AggSink::split` evaluates the group keys, the aggregate
//! arguments and the key hashes, and routes each row to one of the sink's
//! partitions by the hash's high bits (the directory indexes by the low
//! bits): one `AggPiece` per partition, a selection over the evaluated
//! columns, nothing copied. Each `AggPart` owns a grouper, which keeps each
//! key column's group values as one typed column in group-id order and
//! assigns a piece's rows a column at a time — a batched directory lookup
//! for candidate groups, one typed key check per column, and a row-at-a-time
//! find or insert only for the rows left unresolved — writing dense group
//! ids into a reused `Vec<u32>`; each aggregate then folds its argument
//! column, through the piece's selection in row order, into per-group
//! vectors.
//!
//! All rows of a group land in one partition, and a partition consumes its
//! pieces in morsel order, so every group folds its rows in input order,
//! floats included. A partition also records where each group's first row
//! sits in the input, and `AggSink::finish` filters each partition's groups
//! by `HAVING`, then merges the survivors by that position, which restores
//! first-seen group order over the whole input. The output therefore
//! depends only on the sequence of rows fed: not on the partition count,
//! not on how the rows are cut into chunks or morsels, and not on the hash
//! seed, which is random per aggregation because keys come from table data
//! and a fixed seed would let crafted keys collide. [`AggState`] is the
//! one-partition form for a caller that feeds chunks itself.

use std::cmp::Ordering;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

use bfq_common::{BfqError, DataType, Datum, Result};
use bfq_expr::{eval, eval_predicate, Expr, Layout};
use bfq_plan::{AggExpr, AggFunc, OutputColumn};
use bfq_storage::{Bitmap, Chunk, Column, ColumnBuilder, ColumnRef};

use crate::util::{hash_keys_into, select_rows, Directory, NONE};

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

/// Group-key equality of group `g`'s value in `stored` and row `i` of
/// `col`, one type: NULL equals NULL, and floats are equal when `==` (so
/// `-0.0` is `0.0`) or bit-identical (so a NaN matches itself).
#[inline]
fn key_eq(stored: &ColumnBuilder, g: usize, col: &Column, i: usize) -> bool {
    let (a, b) = (stored_valid(stored).0[g], !col.is_null(i));
    if !(a && b) {
        return a == b;
    }
    match (stored, col) {
        (ColumnBuilder::Int64(x, ..), Column::Int64(y, _)) => x[g] == y[i],
        (ColumnBuilder::Date(x, ..), Column::Date(y, _)) => x[g] == y[i],
        (ColumnBuilder::Float64(x, ..), Column::Float64(y, _)) => float_eq(x[g], y[i]),
        (ColumnBuilder::Utf8(x, ..), Column::Utf8(y, _)) => x.bytes(g) == y.bytes(i),
        (ColumnBuilder::Bool(x, ..), Column::Bool(y, _)) => x[g] == y[i],
        _ => unreachable!("group keys keep their type"),
    }
}

#[inline]
fn float_eq(a: f64, b: f64) -> bool {
    a == b || a.to_bits() == b.to_bits()
}

/// Each group's validity in a key column, and whether any group is NULL.
#[inline]
fn stored_valid(stored: &ColumnBuilder) -> (&[bool], bool) {
    match stored {
        ColumnBuilder::Int64(_, v, n)
        | ColumnBuilder::Float64(_, v, n)
        | ColumnBuilder::Utf8(_, v, n)
        | ColumnBuilder::Bool(_, v, n)
        | ColumnBuilder::Date(_, v, n) => (v, *n),
    }
}

/// Clear each candidate group in `cand` (one per row of `rows`, [`NONE`]
/// for none) whose value in the key column `stored` differs from its row's
/// in `col`: one typed pass per column, with no validity reads when
/// neither side holds a NULL.
fn verify(stored: &ColumnBuilder, col: &Column, rows: &[u32], cand: &mut [u32]) {
    let ((groups, any_null), rows_valid) = (stored_valid(stored), col.validity());
    let nulls = (any_null || rows_valid.is_some()).then_some((groups, rows_valid));
    match (stored, col) {
        (ColumnBuilder::Int64(x, ..), Column::Int64(y, _)) => {
            keep(cand, rows, nulls, |g, i| x[g] == y[i]);
        }
        (ColumnBuilder::Date(x, ..), Column::Date(y, _)) => {
            keep(cand, rows, nulls, |g, i| x[g] == y[i]);
        }
        (ColumnBuilder::Float64(x, ..), Column::Float64(y, _)) => {
            keep(cand, rows, nulls, |g, i| float_eq(x[g], y[i]));
        }
        (ColumnBuilder::Utf8(x, ..), Column::Utf8(y, _)) => {
            keep(cand, rows, nulls, |g, i| x.bytes(g) == y.bytes(i));
        }
        (ColumnBuilder::Bool(x, ..), Column::Bool(y, _)) => {
            keep(cand, rows, nulls, |g, i| x[g] == y[i]);
        }
        _ => unreachable!("group keys keep their type"),
    }
}

/// [`verify`] for one type: `eq(group, row)` compares two non-null values;
/// `nulls` holds the groups' and the rows' validity, `None` when neither
/// side has a NULL.
#[inline]
fn keep(
    cand: &mut [u32],
    rows: &[u32],
    nulls: Option<(&[bool], Option<&Bitmap>)>,
    eq: impl Fn(usize, usize) -> bool,
) {
    let pairs = cand.iter_mut().zip(rows).filter(|(g, _)| **g != NONE);
    match nulls {
        None => {
            for (g, &i) in pairs {
                if !eq(*g as usize, i as usize) {
                    *g = NONE;
                }
            }
        }
        Some((groups, rows)) => {
            for (g, &i) in pairs {
                let (a, b) = (groups[*g as usize], rows.is_none_or(|v| v.get(i as usize)));
                let same = if a && b {
                    eq(*g as usize, i as usize)
                } else {
                    a == b
                };
                if !same {
                    *g = NONE;
                }
            }
        }
    }
}

/// Group-key equality of rows `a` and `b` of `col`, as [`key_eq`].
#[inline]
fn rows_eq(col: &Column, a: usize, b: usize) -> bool {
    match (col.is_null(a), col.is_null(b)) {
        (false, false) => match col {
            Column::Int64(v, _) => v[a] == v[b],
            Column::Date(v, _) => v[a] == v[b],
            Column::Float64(v, _) => float_eq(v[a], v[b]),
            Column::Utf8(v, _) => v.bytes(a) == v.bytes(b),
            Column::Bool(v, _) => v[a] == v[b],
        },
        (a, b) => a == b,
    }
}

/// Append the `rows` of `col` to the key column `stored`, of its type.
fn append_keys(stored: &mut ColumnBuilder, col: &Column, rows: &[u32]) {
    fn gather<T: Copy>(x: &mut Vec<T>, y: &[T], rows: &[u32]) {
        x.extend(rows.iter().map(|&i| y[i as usize]));
    }
    let (valid, has_null) = match stored {
        ColumnBuilder::Int64(_, v, n)
        | ColumnBuilder::Float64(_, v, n)
        | ColumnBuilder::Utf8(_, v, n)
        | ColumnBuilder::Bool(_, v, n)
        | ColumnBuilder::Date(_, v, n) => (v, n),
    };
    match col.validity() {
        None => valid.resize(valid.len() + rows.len(), true),
        Some(bm) => {
            valid.extend(rows.iter().map(|&i| bm.get(i as usize)));
            *has_null |= rows.iter().any(|&i| !bm.get(i as usize));
        }
    }
    match (stored, col) {
        (ColumnBuilder::Int64(x, ..), Column::Int64(y, _)) => gather(x, y, rows),
        (ColumnBuilder::Date(x, ..), Column::Date(y, _)) => gather(x, y, rows),
        (ColumnBuilder::Float64(x, ..), Column::Float64(y, _)) => gather(x, y, rows),
        (ColumnBuilder::Bool(x, ..), Column::Bool(y, _)) => gather(x, y, rows),
        (ColumnBuilder::Utf8(x, ..), Column::Utf8(y, _)) => {
            rows.iter().for_each(|&i| x.push(y.get(i as usize)));
        }
        _ => unreachable!("group keys keep their type"),
    }
}

/// The sink partition a key hash routes to, of `parts`: the hash's high 32
/// bits scaled to `0..parts`, so the low bits stay uniform for the
/// partition's directory.
#[inline]
fn partition_of(h: u64, parts: usize) -> usize {
    (((h >> 32) * parts as u64) >> 32) as usize
}

/// Dense ids, in first-seen order, for the distinct rows of some key
/// columns: a [`Directory`] from key hash to group id, and each key
/// column's group values as one growable typed column in group-id order.
struct Grouper {
    seed: u64,
    dir: Directory,
    /// Each key column's value per group, in group-id order. A grouper
    /// built without key columns takes their types from its first keys.
    keys: Vec<ColumnBuilder>,
    /// Reused buffers of [`Grouper::assign`]: the rows `0..n` of a piece
    /// without a selection, the selected rows' hashes, each row's candidate
    /// group and the directory lookup's collided rows.
    all: Vec<u32>,
    probe: Vec<u64>,
    cand: Vec<u32>,
    pending: Vec<u32>,
    /// Whether the batched passes run on the next piece: whether most rows
    /// of the last piece found a group that existed before it.
    batch: bool,
    /// Reused buffers of [`Grouper::first_seen`]: column and row hashes.
    tmp: Vec<u64>,
    hashes: Vec<u64>,
}

impl Grouper {
    fn new(seed: u64, keys: Vec<ColumnBuilder>) -> Grouper {
        Grouper {
            seed,
            dir: Directory::with_keys(0),
            keys,
            all: Vec::new(),
            probe: Vec::new(),
            cand: Vec::new(),
            pending: Vec::new(),
            batch: false,
            tmp: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// Groups so far: the directory holds one entry per group.
    fn len(&self) -> usize {
        self.dir.len()
    }

    /// Append to `ids` the group id of each row of `keys` that `sel`
    /// selects (every row for `None`), given each row's key hash in
    /// `hashes`; returns the rows that started a group.
    ///
    /// Three passes: a batched directory lookup gives each row a candidate
    /// among the groups that existed before this call, one typed pass per
    /// key column clears the candidates whose key differs, and only the
    /// rows left without a group find or insert theirs one at a time, in
    /// row order, so new groups take their ids in first-seen order. The
    /// first two run only while most rows find an existing group; the
    /// third alone assigns the same ids.
    fn assign(
        &mut self,
        keys: &Chunk,
        hashes: &[u64],
        sel: Option<&[u32]>,
        ids: &mut Vec<u32>,
    ) -> Result<Vec<u32>> {
        if self.keys.is_empty() {
            self.keys = (keys.columns().iter())
                .map(|c| ColumnBuilder::new(c.data_type()))
                .collect();
        }
        let types = self.keys.iter().map(ColumnBuilder::data_type);
        if !types.eq(keys.columns().iter().map(|c| c.data_type())) {
            return Err(BfqError::internal("group key types changed between chunks"));
        }
        let Grouper {
            dir,
            keys: stored,
            all,
            probe,
            cand,
            pending,
            batch,
            ..
        } = self;
        let rows: &[u32] = match sel {
            Some(sel) => sel,
            None => {
                // `0..n` for every piece of at most `all.len()` rows.
                let n = keys.rows() as u32;
                all.extend(all.len() as u32..n);
                &all[..n as usize]
            }
        };
        let base = ids.len();
        if *batch {
            let probe: &[u64] = match sel {
                Some(sel) => {
                    probe.clear();
                    probe.extend(sel.iter().map(|&i| hashes[i as usize]));
                    probe
                }
                None => hashes,
            };
            dir.lookup(probe, cand, pending);
            for (stored, col) in stored.iter().zip(keys.columns()) {
                verify(stored, col, rows, cand);
            }
            ids.extend_from_slice(cand);
        } else {
            ids.resize(base + rows.len(), NONE);
        }
        // Groups from `born` on start in this piece: their keys are the
        // rows in `new_rows` until the piece ends and they are appended.
        let (mut new_rows, born) = (Vec::new(), dir.len());
        let mut existing = 0;
        for (id, &i) in ids[base..].iter_mut().zip(rows) {
            if *id != NONE {
                existing += 1;
                continue;
            }
            let (h, i) = (hashes[i as usize], i as usize);
            let found = dir.find(h, |g| match (g as usize).checked_sub(born) {
                None => (stored.iter().zip(keys.columns()))
                    .all(|(k, col)| key_eq(k, g as usize, col, i)),
                Some(n) => (keys.columns().iter()).all(|col| rows_eq(col, new_rows[n] as usize, i)),
            });
            *id = match found {
                Ok(slot) => {
                    let g = dir.payload[slot];
                    existing += usize::from((g as usize) < born);
                    g
                }
                Err(slot) => {
                    let g = u32::try_from(dir.len())
                        .ok()
                        .filter(|&g| g != NONE)
                        .ok_or_else(|| BfqError::Execution("more than 2^32 groups".into()))?;
                    dir.insert(slot, h, g);
                    new_rows.push(i as u32);
                    g
                }
            };
        }
        for (k, col) in stored.iter_mut().zip(keys.columns()) {
            append_keys(k, col, &new_rows);
        }
        // The batched passes pay when most rows find a group that existed
        // before their piece; for keys mostly seen first, they only add
        // directory probes to the continuation's.
        *batch = 2 * existing >= rows.len();
        Ok(new_rows)
    }

    /// The rows of `col` whose value is the first of its group in `ids`,
    /// with their group ids: what a DISTINCT aggregate folds.
    fn first_seen(&mut self, col: &ColumnRef, ids: &[u32]) -> Result<(Column, Vec<u32>)> {
        let groups = Column::Int64(ids.iter().map(|&g| g as i64).collect(), None);
        let pairs = Chunk::new(vec![Arc::new(groups), Arc::clone(col)])?;
        let mut hashes = std::mem::take(&mut self.hashes);
        hash_keys_into(&pairs, &[0, 1], self.seed, &mut self.tmp, &mut hashes);
        let keep = self.assign(&pairs, &hashes, None, &mut Vec::with_capacity(ids.len()));
        self.hashes = hashes;
        let keep = keep?;
        let ids = keep.iter().map(|&i| ids[i as usize]).collect();
        Ok((col.take(&keep), ids))
    }
}

/// The group-key columns of `input`.
fn eval_keys(group_by: &[OutputColumn], input: &Chunk, layout: &Layout) -> Result<Chunk> {
    let keys = group_by.iter().map(|g| eval(&g.expr, input, layout));
    Chunk::new(keys.collect::<Result<_>>()?)
}

/// Call `f(group, row)` for each non-null row of `col` that `sel` selects
/// (every row for `None`), in row order; `ids` holds the selected rows'
/// groups.
#[inline]
fn rows(col: &Column, sel: Option<&[u32]>, ids: &[u32], mut f: impl FnMut(usize, usize)) {
    match sel {
        None => {
            for (i, &g) in ids.iter().enumerate() {
                if !col.is_null(i) {
                    f(g as usize, i);
                }
            }
        }
        Some(sel) => {
            for (&i, &g) in sel.iter().zip(ids) {
                if !col.is_null(i as usize) {
                    f(g as usize, i as usize);
                }
            }
        }
    }
}

/// [`rows`] with each row's numeric value (ints and dates widened, as
/// `Datum::as_f64` does); strings and booleans have none.
#[inline]
fn numeric(col: &Column, sel: Option<&[u32]>, ids: &[u32], mut f: impl FnMut(usize, f64)) {
    match col {
        Column::Float64(v, _) => rows(col, sel, ids, |g, i| f(g, v[i])),
        Column::Int64(v, _) => rows(col, sel, ids, |g, i| f(g, v[i] as f64)),
        Column::Date(v, _) => rows(col, sel, ids, |g, i| f(g, v[i] as f64)),
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

    /// Fold `arg` (`None` for `COUNT(*)`) into each selected row's group in
    /// row order.
    fn fold(&mut self, arg: Option<&Column>, sel: Option<&[u32]>, ids: &[u32]) {
        let Some(col) = arg else {
            return ids.iter().for_each(|&g| self.n[g as usize] += 1);
        };
        let wins = match (self.func, col) {
            (AggFunc::Count | AggFunc::CountStar, _) => {
                return rows(col, sel, ids, |g, _| self.n[g] += 1)
            }
            (AggFunc::Min, _) => Ordering::Less,
            (AggFunc::Max, _) => Ordering::Greater,
            (_, Column::Int64(v, _)) if self.out == DataType::Int64 => {
                return rows(col, sel, ids, |g, i| {
                    self.n[g] += 1;
                    self.ints[g] = self.ints[g].wrapping_add(v[i]);
                });
            }
            _ => {
                return numeric(col, sel, ids, |g, x| {
                    self.n[g] += 1;
                    self.floats[g] += x;
                });
            }
        };
        rows(col, sel, ids, |g, i| {
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

/// One input chunk as the partitions fold it, evaluated once, inside the
/// morsel that produced it.
struct Evaluated {
    /// Input position of row 0: the morsel's sequence number in the high
    /// 32 bits, the row's offset within the morsel's output below.
    pos: u64,
    rows: usize,
    /// The group-key columns (none for scalar aggregation).
    keys: Chunk,
    /// Each row's key hash under the aggregation's seed.
    hashes: Vec<u64>,
    /// Each aggregate's argument column (`None` for `COUNT(*)`).
    args: Vec<Option<ColumnRef>>,
}

/// One partition's share of one morsel: for each of the morsel's evaluated
/// chunks, the rows whose key hash routes to the partition (`None`: all).
pub(crate) struct AggPiece(Vec<(Arc<Evaluated>, Option<Vec<u32>>)>);

impl AggPiece {
    /// Input rows the piece folds.
    pub(crate) fn rows(&self) -> u64 {
        (self.0.iter())
            .map(|(ev, sel)| sel.as_ref().map_or(ev.rows, Vec::len) as u64)
            .sum()
    }
}

/// One hash partition's aggregation state: the groups whose key hash
/// routes here, with their accumulators.
pub(crate) struct AggPart {
    /// `None` for scalar aggregation, whose one group needs no lookup.
    grouper: Option<Grouper>,
    accs: Vec<Acc>,
    /// A (group id, value) grouper per DISTINCT aggregate.
    distinct: Vec<Option<Grouper>>,
    /// Input position of each group's first row, in group-id order (so
    /// ascending).
    first: Vec<u64>,
    /// Group id of each selected row of the current chunk.
    ids: Vec<u32>,
}

impl AggPart {
    /// The partition's groups as rows: key columns, then one column per
    /// aggregate.
    fn into_chunk(self) -> Result<Chunk> {
        let mut columns = match self.grouper {
            Some(g) => (g.keys.into_iter()).map(|k| Arc::new(k.finish())).collect(),
            None => Vec::new(),
        };
        for acc in self.accs {
            columns.push(Arc::new(acc.into_column()?));
        }
        Chunk::new(columns)
    }
}

/// One aggregation's shape and hash seed, shared by its partitions: splits
/// morsels into per-partition pieces ([`AggSink::split`]), folds a piece
/// into its partition ([`AggSink::consume`]), and merges the partitions
/// into the result ([`AggSink::finish`]).
pub(crate) struct AggSink {
    input_layout: Layout,
    group_by: Vec<OutputColumn>,
    aggs: Vec<AggExpr>,
    /// Each aggregate's output type.
    outs: Vec<DataType>,
    /// One seed for every grouper of the aggregation, so a key hashes the
    /// same in the morsel that routes it and in the partition that groups
    /// it.
    seed: u64,
    parts: usize,
    /// The key columns' types; `None` for scalar aggregation.
    key_types: Option<Vec<DataType>>,
}

impl AggSink {
    /// A sink with `parts` hash partitions (one for scalar aggregation,
    /// whose one group cannot be split) for the given grouping/aggregate
    /// shape over inputs of `input_types` laid out as `input_layout`.
    pub(crate) fn new(
        input_layout: &Layout,
        input_types: &[DataType],
        group_by: &[OutputColumn],
        aggs: &[AggExpr],
        parts: usize,
    ) -> Result<AggSink> {
        let resolve = |c: bfq_common::ColumnId| -> Option<DataType> {
            input_layout.slot_of(c).map(|s| input_types[s])
        };
        let outs = aggs.iter().map(|a| {
            let arg = a.arg.as_ref().and_then(|e| e.data_type(&resolve));
            agg_output_type(a.func, arg)
        });
        let key_types = if group_by.is_empty() {
            None
        } else {
            let no_rows = input_types.iter().map(|&t| ColumnBuilder::new(t).finish());
            let no_rows = Chunk::new(no_rows.map(Arc::new).collect())?;
            let no_keys = eval_keys(group_by, &no_rows, input_layout)?;
            Some(no_keys.columns().iter().map(|c| c.data_type()).collect())
        };
        Ok(AggSink {
            input_layout: input_layout.clone(),
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
            outs: outs.collect(),
            seed: RandomState::new().hash_one(0u64),
            parts: if group_by.is_empty() { 1 } else { parts.max(1) },
            key_types,
        })
    }

    /// The partition count: what [`AggSink::split`] cuts a morsel into.
    pub(crate) fn partitions(&self) -> usize {
        self.parts
    }

    /// A fresh partition. Scalar aggregation always has exactly one group,
    /// even over zero rows.
    pub(crate) fn partition(&self) -> AggPart {
        let groups = usize::from(self.group_by.is_empty());
        let accs = self.aggs.iter().zip(&self.outs).map(|(a, &out)| {
            let mut acc = Acc {
                func: a.func,
                out,
                n: Vec::new(),
                ints: Vec::new(),
                floats: Vec::new(),
                best: Vec::new(),
            };
            acc.resize(groups);
            acc
        });
        AggPart {
            grouper: (self.key_types.as_ref()).map(|types| {
                let keys = types.iter().map(|&t| ColumnBuilder::new(t)).collect();
                Grouper::new(self.seed, keys)
            }),
            accs: accs.collect(),
            distinct: (self.aggs.iter())
                .map(|a| (a.distinct && a.arg.is_some()).then(|| Grouper::new(self.seed, vec![])))
                .collect(),
            first: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Pre-size a fresh partition's group directory for its share of the
    /// planner's group estimate, capped by the input's row estimate (a
    /// group needs at least one row) and by 2^21, so a wild estimate
    /// allocates nothing it cannot use. The directory doubles on demand
    /// past this size.
    pub(crate) fn reserve(&self, part: &mut AggPart, est_groups: f64, est_input_rows: f64) {
        if let Some(g) = part.grouper.as_mut().filter(|g| g.len() == 0) {
            let groups = est_groups.min(est_input_rows).clamp(0.0, (1 << 21) as f64);
            g.dir = Directory::with_keys((groups / self.parts as f64) as usize);
        }
    }

    /// Evaluate morsel `seq`'s output chunks — group keys, aggregate
    /// arguments, key hashes — and cut them into one piece per partition.
    /// `tmp` stages one key column's hashes.
    pub(crate) fn split(
        &self,
        seq: u32,
        chunks: &[Chunk],
        tmp: &mut Vec<u64>,
    ) -> Result<Vec<AggPiece>> {
        let mut pieces: Vec<AggPiece> = (0..self.parts).map(|_| AggPiece(Vec::new())).collect();
        let mut row = 0u64;
        for chunk in chunks.iter().filter(|c| !c.is_empty()) {
            let keys = eval_keys(&self.group_by, chunk, &self.input_layout)?;
            let mut hashes = Vec::new();
            if keys.width() > 0 {
                let width: Vec<usize> = (0..keys.width()).collect();
                hash_keys_into(&keys, &width, self.seed, tmp, &mut hashes);
            }
            let args = (self.aggs.iter())
                .map(|a| (a.arg.as_ref()).map(|e| eval(e, chunk, &self.input_layout)))
                .map(Option::transpose)
                .collect::<Result<_>>()?;
            let ev = Arc::new(Evaluated {
                pos: (u64::from(seq) << 32) | row,
                rows: chunk.rows(),
                keys,
                hashes,
                args,
            });
            row += chunk.rows() as u64;
            if self.parts == 1 {
                pieces[0].0.push((ev, None));
                continue;
            }
            let mut sels = vec![Vec::new(); self.parts];
            for (i, &h) in ev.hashes.iter().enumerate() {
                sels[partition_of(h, self.parts)].push(i as u32);
            }
            for (piece, sel) in pieces.iter_mut().zip(sels) {
                match sel.len() {
                    0 => {}
                    n if n == ev.rows => piece.0.push((Arc::clone(&ev), None)),
                    _ => piece.0.push((Arc::clone(&ev), Some(sel))),
                }
            }
        }
        Ok(pieces)
    }

    /// Fold one piece into its partition: group ids for every selected row,
    /// then one fold per aggregate, each in row order. A partition must
    /// consume its pieces in morsel order.
    pub(crate) fn consume(&self, part: &mut AggPart, piece: &AggPiece) -> Result<()> {
        for (ev, sel) in &piece.0 {
            let sel = sel.as_deref();
            part.ids.clear();
            match &mut part.grouper {
                None => part.ids.resize(ev.rows, 0),
                Some(grouper) => {
                    let new_rows = grouper.assign(&ev.keys, &ev.hashes, sel, &mut part.ids)?;
                    (part.first).extend(new_rows.iter().map(|&i| ev.pos + u64::from(i)));
                }
            }
            let groups = part.grouper.as_ref().map_or(1, Grouper::len);
            for ((acc, arg), distinct) in part.accs.iter_mut().zip(&ev.args).zip(&mut part.distinct)
            {
                acc.resize(groups);
                match (arg, distinct) {
                    (None, _) => acc.fold(None, None, &part.ids),
                    (Some(col), None) => acc.fold(Some(col), sel, &part.ids),
                    (Some(col), Some(seen)) => {
                        let col = sel.map_or_else(|| Arc::clone(col), |s| Arc::new(col.take(s)));
                        let (col, ids) = seen.first_seen(&col, &part.ids)?;
                        acc.fold(Some(&col), None, &ids);
                    }
                }
            }
        }
        Ok(())
    }

    /// Materialize the aggregated output (group columns then aggregate
    /// columns) of the groups that pass the `having` filter over
    /// `out_layout`, in first-seen order across all partitions: each
    /// partition's groups are filtered first, so the merge orders only the
    /// survivors.
    pub(crate) fn finish(
        &self,
        parts: Vec<AggPart>,
        having: &Option<Expr>,
        out_layout: &Layout,
    ) -> Result<Chunk> {
        let merge = parts.len() > 1;
        let (mut chunks, mut firsts) = (Vec::new(), Vec::new());
        for mut part in parts {
            let mut first = std::mem::take(&mut part.first);
            let mut chunk = part.into_chunk()?;
            if let Some(h) = having {
                let sel = eval_predicate(h, &chunk, out_layout)?;
                chunk = select_rows(&chunk, &sel);
                if merge {
                    first = sel.iter().map(|&g| first[g as usize]).collect();
                }
            }
            chunks.push(chunk);
            firsts.push(first);
        }
        if !merge {
            return chunks
                .pop()
                .ok_or_else(|| BfqError::internal("no partitions"));
        }
        Ok(Chunk::concat(&chunks)?.take(&first_seen_order(&firsts)))
    }
}

/// The rows of the partitions' concatenated groups in the order of their
/// first input rows: a merge of the partitions' ascending `firsts`.
fn first_seen_order(firsts: &[Vec<u64>]) -> Vec<u32> {
    let mut base = Vec::with_capacity(firsts.len());
    let mut total = 0;
    for first in firsts {
        base.push(total);
        total += first.len();
    }
    let mut at = vec![0usize; firsts.len()];
    let mut order = Vec::with_capacity(total);
    for _ in 0..total {
        let p = (0..firsts.len())
            .filter(|&p| at[p] < firsts[p].len())
            .min_by_key(|&p| firsts[p][at[p]])
            .expect("a partition has groups left");
        order.push((base[p] + at[p]) as u32);
        at[p] += 1;
    }
    order
}

/// One-partition hash aggregation for a caller that feeds chunks itself:
/// [`AggState::update`] per chunk, then [`AggState::finish`]. The result
/// depends only on the sequence of rows fed, not on how they are cut into
/// chunks.
pub struct AggState {
    sink: AggSink,
    part: AggPart,
    /// Chunks fed so far: each is its own morsel.
    seq: u32,
    tmp: Vec<u64>,
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
        let sink = AggSink::new(input_layout, input_types, group_by, aggs, 1)?;
        Ok(AggState {
            part: sink.partition(),
            sink,
            seq: 0,
            tmp: Vec::new(),
        })
    }

    /// Accumulate one input chunk.
    pub fn update(&mut self, input: &Chunk) -> Result<()> {
        let pieces = self
            .sink
            .split(self.seq, std::slice::from_ref(input), &mut self.tmp)?;
        self.seq += 1;
        pieces
            .iter()
            .try_for_each(|piece| self.sink.consume(&mut self.part, piece))
    }

    /// Pre-size the group directory before the first
    /// [`AggState::update`], for the planner's group estimate capped by the
    /// input's row estimate (a group needs at least one row) and by 2^21.
    pub fn reserve(&mut self, est_groups: f64, est_input_rows: f64) {
        self.sink
            .reserve(&mut self.part, est_groups, est_input_rows);
    }

    /// Materialize the aggregated output (group columns then aggregate
    /// columns, groups in first-seen order), applying the `having` filter
    /// over `out_layout`.
    pub fn finish(self, having: &Option<Expr>, out_layout: &Layout) -> Result<Chunk> {
        self.sink.finish(vec![self.part], having, out_layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::hash_keys;
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
    /// argument column, DISTINCT), and `HAVING` as (aggregate, bound): the
    /// groups whose aggregate, a count, exceeds the bound.
    struct Case {
        types: Vec<DataType>,
        rows: Vec<Vec<Datum>>,
        keys: Vec<usize>,
        aggs: Vec<(AggFunc, Option<usize>, bool)>,
        having: Option<(usize, i64)>,
    }

    /// A value of `dt` from a small domain, so keys repeat, NULL in one row
    /// of five when `nullable`; floats include both zeros and NaNs of both
    /// signs.
    fn value(rng: &mut TestRng, dt: DataType, nullable: bool) -> Datum {
        if nullable && rng.below(5) == 0 {
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
        // Null-free columns in some cases, so the key checks' null-free
        // passes run; long inputs in some, so groups recur across pieces.
        let nullable: Vec<bool> = types.iter().map(|_| rng.below(2) == 0).collect();
        let n = match rng.below(8) {
            0 => 0,
            1 | 2 => rng.below(400),
            _ => rng.below(80),
        };
        let rows = (0..n)
            .map(|_| {
                (types.iter().zip(&nullable))
                    .map(|(&t, &nullable)| value(rng, t, nullable))
                    .collect()
            })
            .collect();
        let keys = (0..rng.below(4))
            .map(|_| rng.below(width as u64) as usize)
            .collect();
        let aggs: Vec<_> = (0..1 + rng.below(4))
            .map(|_| {
                let func = [Count, CountStar, Sum, Min, Max, Avg][rng.below(6) as usize];
                let arg = (func != CountStar).then(|| rng.below(width as u64) as usize);
                (func, arg, arg.is_some() && rng.below(3) == 0)
            })
            .collect();
        let counts: Vec<usize> = (0..aggs.len())
            .filter(|&a| matches!(aggs[a].0, Count | CountStar))
            .collect();
        let having = (!counts.is_empty() && rng.below(2) == 0).then(|| {
            (
                counts[rng.below(counts.len() as u64) as usize],
                rng.below(4) as i64,
            )
        });
        Case {
            types,
            rows,
            keys,
            aggs,
            having,
        }
    }

    /// Chunk boundaries over `n` rows, empty chunks included.
    fn cuts(rng: &mut TestRng, n: usize) -> Vec<usize> {
        let mut cuts: Vec<usize> = (0..rng.below(9))
            .map(|_| rng.below(n as u64 + 1) as usize)
            .collect();
        cuts.extend([0, n]);
        cuts.sort_unstable();
        cuts
    }

    fn state(c: &Case) -> AggState {
        let (layout, group_by, aggs) = shape(c);
        AggState::new(&layout, &c.types, &group_by, &aggs).unwrap()
    }

    /// `c`'s input layout, group keys and aggregates.
    fn shape(c: &Case) -> (Layout, Vec<OutputColumn>, Vec<AggExpr>) {
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
        (layout, group_by, aggs)
    }

    /// `c`'s rows cut at `cuts` into chunks.
    fn chunks(c: &Case, cuts: &[usize]) -> Vec<Chunk> {
        (cuts.windows(2))
            .map(|w| {
                let columns = c.types.iter().enumerate().map(|(j, &t)| {
                    let mut column = ColumnBuilder::new(t);
                    (c.rows[w[0]..w[1]].iter()).for_each(|row| column.push_datum(&row[j]).unwrap());
                    Arc::new(column.finish())
                });
                Chunk::new(columns.collect()).unwrap()
            })
            .collect()
    }

    /// The output rows, floats as bits.
    fn output(out: Chunk) -> Vec<Vec<String>> {
        (0..out.rows())
            .map(|i| out.row(i).iter().map(bits).collect())
            .collect()
    }

    /// `c`'s `HAVING` filter over the output layout (keys, then aggregates).
    fn having(c: &Case) -> (Option<Expr>, Layout) {
        let (_, group_by, aggs) = shape(c);
        let layout = Layout::new(
            (group_by.iter().map(|g| g.id))
                .chain(aggs.iter().map(|a| a.output))
                .collect(),
        );
        let having = (c.having).map(|(a, bound)| {
            Expr::binary(
                bfq_expr::BinOp::Gt,
                Expr::col(aggs[a].output),
                Expr::int(bound),
            )
        });
        (having, layout)
    }

    /// Feed `c`'s rows cut at `cuts`; the output rows, floats as bits.
    fn feed(mut state: AggState, c: &Case, cuts: &[usize]) -> Vec<Vec<String>> {
        for chunk in chunks(c, cuts) {
            state.update(&chunk).unwrap();
        }
        let (having, layout) = having(c);
        output(state.finish(&having, &layout).unwrap())
    }

    /// Feed `c`'s rows cut at `cuts` through a sink of `parts` partitions
    /// as a pipeline does: consecutive chunks grouped into morsels, the
    /// morsels split in a random order, and each partition consuming its
    /// pieces in morsel order while the partitions interleave at random.
    fn feed_partitioned(
        c: &Case,
        cuts: &[usize],
        parts: usize,
        rng: &mut TestRng,
    ) -> Vec<Vec<String>> {
        let (layout, group_by, aggs) = shape(c);
        let sink = AggSink::new(&layout, &c.types, &group_by, &aggs, parts).unwrap();
        let chunks = chunks(c, cuts);
        let mut morsels: Vec<&[Chunk]> = Vec::new();
        let mut rest = &chunks[..];
        while !rest.is_empty() {
            let (morsel, tail) = rest.split_at(1 + rng.below(rest.len() as u64) as usize);
            morsels.push(morsel);
            rest = tail;
        }
        let mut order: Vec<usize> = (0..morsels.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut pieces: Vec<Vec<AggPiece>> = (0..morsels.len()).map(|_| Vec::new()).collect();
        let mut tmp = Vec::new();
        for seq in order {
            pieces[seq] = sink.split(seq as u32, morsels[seq], &mut tmp).unwrap();
        }
        let mut states: Vec<AggPart> = (0..sink.partitions()).map(|_| sink.partition()).collect();
        let mut next = vec![0usize; states.len()];
        loop {
            let open: Vec<usize> = (0..states.len())
                .filter(|&p| next[p] < morsels.len())
                .collect();
            if open.is_empty() {
                break;
            }
            let p = open[rng.below(open.len() as u64) as usize];
            sink.consume(&mut states[p], &pieces[next[p]][p]).unwrap();
            next[p] += 1;
        }
        let (having, layout) = having(c);
        output(sink.finish(states, &having, &layout).unwrap())
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
            .filter(|(_, folded)| {
                (c.having).is_none_or(|(a, bound)| folded[a].len() as i64 > bound)
            })
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
            if n == 0 && c.having.is_none() {
                prop_assert_eq!(once.len(), usize::from(c.keys.is_empty()));
            }
        }

        #[test]
        fn partitioned_sink_matches_one_state(seed in any::<u64>()) {
            let mut rng = TestRng::for_case(seed);
            let c = case(&mut rng);
            let cuts = cuts(&mut rng, c.rows.len());
            let once = feed(state(&c), &c, &cuts);
            for parts in 1..=4 {
                prop_assert_eq!(&feed_partitioned(&c, &cuts, parts, &mut rng), &once);
            }
        }
    }

    #[test]
    fn key_equality_groups_nulls_and_both_zeros() {
        let valid = |v: [bool; 2]| Some(Bitmap::from_bools(v));
        let floats = Column::Float64(vec![0.0, -0.0, f64::NAN, -f64::NAN], None);
        let nulls = Column::Float64(vec![0.0, 0.0], valid([true, false]));
        let ints = Column::Int64(vec![0, 0], valid([true, false]));
        let stored = |col: &Column| {
            let mut k = ColumnBuilder::new(col.data_type());
            append_keys(&mut k, col, &(0..col.len() as u32).collect::<Vec<_>>());
            k
        };
        let (sf, sn, si) = (stored(&floats), stored(&nulls), stored(&ints));
        assert!(key_eq(&sf, 0, &floats, 1), "-0.0 is 0.0");
        assert!(key_eq(&sf, 2, &floats, 2), "a NaN is itself");
        assert!(!key_eq(&sf, 2, &floats, 3), "NaNs with other bits differ");
        assert!(
            key_eq(&sn, 1, &nulls, 1) && key_eq(&si, 1, &ints, 1),
            "NULL is NULL"
        );
        assert!(!key_eq(&sn, 0, &nulls, 1) && !key_eq(&si, 1, &ints, 0));
        assert!(rows_eq(&floats, 0, 1) && rows_eq(&floats, 2, 2) && !rows_eq(&floats, 2, 3));
        assert!(rows_eq(&nulls, 1, 1) && !rows_eq(&nulls, 0, 1));
        // The batched check agrees, with and without validity reads.
        let mut cand = vec![0, 2, 2, NONE];
        verify(&sf, &floats, &[1, 2, 3, 0], &mut cand);
        assert_eq!(cand, [0, 2, NONE, NONE]);
        let mut cand = vec![1, 1, 0];
        verify(&si, &ints, &[1, 0, 0], &mut cand);
        assert_eq!(cand, [1, NONE, 0]);
    }

    /// Every row given one hash, so each candidate group and each find is
    /// settled by the key checks alone: the ids, and the groups' keys,
    /// equal those under the real hashes, through both the batched and the
    /// row-at-a-time pieces, with and without a selection.
    #[test]
    fn colliding_hashes_still_group_by_key() {
        let chunk = |piece: i64| {
            let c = Case {
                types: vec![DataType::Int64, DataType::Utf8],
                rows: (0..40)
                    .map(|i| {
                        let k = (i * 7 + piece) % 9;
                        let s = ["a", "b", ""][(i % 3) as usize];
                        let int = if k == 4 { Datum::Null } else { Datum::Int(k) };
                        vec![int, Datum::str(s)]
                    })
                    .collect(),
                keys: vec![],
                aggs: vec![],
                having: None,
            };
            chunks(&c, &[0, 40]).remove(0)
        };
        let sel: Vec<u32> = (0..40).filter(|i| i % 3 != 1).collect();
        let run = |collide: bool| {
            let mut g = Grouper::new(7, vec![]);
            let mut ids = Vec::new();
            for piece in 0..6 {
                let keys = chunk(piece);
                let mut hashes = hash_keys(&keys, &[0, 1], 7);
                if collide {
                    hashes.iter_mut().for_each(|h| *h = 42);
                }
                let sel = (piece % 2 == 1).then_some(&sel[..]);
                g.assign(&keys, &hashes, sel, &mut ids).unwrap();
            }
            let keys: Vec<Column> = g.keys.into_iter().map(ColumnBuilder::finish).collect();
            (ids, keys)
        };
        let (ids, keys) = run(false);
        assert_eq!(keys[0].len(), 27, "9 ints (one NULL) by 3 strings");
        assert_eq!(run(true), (ids, keys));
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
            having: None,
        };
        let (a, b) = (state(&c), state(&c));
        let seed = |s: &AggState| s.sink.seed;
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
            having: None,
        };
        let slots = |s: &AggState| s.part.grouper.as_ref().unwrap().dir.slots();
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
