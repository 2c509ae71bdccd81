//! Hash aggregation with grouping, DISTINCT and HAVING.

use std::collections::{HashMap, HashSet};

use bfq_common::{BfqError, DataType, Datum, Result};
use bfq_expr::{eval, eval_predicate, Expr, Layout};
use bfq_plan::{AggExpr, AggFunc, OutputColumn};
use bfq_storage::{Chunk, ChunkBuilder, Column, Field, Schema};

use crate::util::NormKey;

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

/// One accumulator instance.
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    SumInt(i64, bool),
    SumFloat(f64, bool),
    Min(Option<Datum>),
    Max(Option<Datum>),
    Avg(f64, i64),
}

impl Acc {
    fn new(func: AggFunc, out_type: DataType) -> Acc {
        match func {
            AggFunc::Count | AggFunc::CountStar => Acc::Count(0),
            AggFunc::Sum => {
                if out_type == DataType::Int64 {
                    Acc::SumInt(0, false)
                } else {
                    Acc::SumFloat(0.0, false)
                }
            }
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg(0.0, 0),
        }
    }

    fn update(&mut self, v: &Datum) {
        match self {
            Acc::Count(n) => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            Acc::SumInt(s, seen) => {
                if let Some(x) = v.as_i64() {
                    *s += x;
                    *seen = true;
                }
            }
            Acc::SumFloat(s, seen) => {
                if let Some(x) = v.as_f64() {
                    *s += x;
                    *seen = true;
                }
            }
            Acc::Min(m) => {
                if !v.is_null()
                    && m.as_ref()
                        .is_none_or(|cur| v.sql_cmp(cur) == Some(std::cmp::Ordering::Less))
                {
                    *m = Some(v.clone());
                }
            }
            Acc::Max(m) => {
                if !v.is_null()
                    && m.as_ref()
                        .is_none_or(|cur| v.sql_cmp(cur) == Some(std::cmp::Ordering::Greater))
                {
                    *m = Some(v.clone());
                }
            }
            Acc::Avg(s, n) => {
                if let Some(x) = v.as_f64() {
                    *s += x;
                    *n += 1;
                }
            }
        }
    }

    fn update_star(&mut self) {
        if let Acc::Count(n) = self {
            *n += 1;
        }
    }

    fn finish(&self) -> Datum {
        match self {
            Acc::Count(n) => Datum::Int(*n),
            Acc::SumInt(s, seen) => {
                if *seen {
                    Datum::Int(*s)
                } else {
                    Datum::Null
                }
            }
            Acc::SumFloat(s, seen) => {
                if *seen {
                    Datum::Float(*s)
                } else {
                    Datum::Null
                }
            }
            Acc::Min(m) | Acc::Max(m) => m.clone().unwrap_or(Datum::Null),
            Acc::Avg(s, n) => {
                if *n == 0 {
                    Datum::Null
                } else {
                    Datum::Float(*s / *n as f64)
                }
            }
        }
    }
}

/// Per-group state: plain accumulators plus DISTINCT value sets.
struct GroupState {
    key: Vec<Datum>,
    accs: Vec<Acc>,
    distinct: Vec<Option<HashSet<NormKey>>>,
}

/// Incremental hash-aggregation state: feed it chunks one at a time with
/// [`AggState::update`], then [`AggState::finish`].
///
/// Group output order is first-seen row order across the fed chunks, and
/// float accumulation happens in exact row order — so the result depends
/// only on the sequence of rows fed, not on how they are cut into chunks.
pub struct AggState {
    input_layout: Layout,
    group_by: Vec<OutputColumn>,
    aggs: Vec<AggExpr>,
    agg_types: Vec<DataType>,
    group_field_types: Vec<DataType>,
    groups: HashMap<Vec<NormKey>, usize>,
    states: Vec<GroupState>,
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
        // Output types drive accumulator construction.
        let resolve = |c: bfq_common::ColumnId| -> Option<DataType> {
            input_layout.slot_of(c).map(|s| input_types[s])
        };
        let agg_types: Vec<DataType> = aggs
            .iter()
            .map(|a| {
                let arg_t = a.arg.as_ref().and_then(|e| e.data_type(&resolve));
                agg_output_type(a.func, arg_t)
            })
            .collect();
        let group_field_types = group_by
            .iter()
            .map(|g| {
                g.expr
                    .data_type(&resolve)
                    .ok_or_else(|| BfqError::Type(format!("untyped group expression {}", g.expr)))
            })
            .collect::<Result<Vec<_>>>()?;
        let mut state = AggState {
            input_layout: input_layout.clone(),
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
            agg_types,
            group_field_types,
            groups: HashMap::new(),
            states: Vec::new(),
        };
        // Scalar aggregation always has exactly one group, even over zero
        // rows.
        if state.group_by.is_empty() {
            let empty = state.new_state(Vec::new());
            state.groups.insert(Vec::new(), 0);
            state.states.push(empty);
        }
        Ok(state)
    }

    fn new_state(&self, key: Vec<Datum>) -> GroupState {
        GroupState {
            key,
            accs: self
                .aggs
                .iter()
                .zip(&self.agg_types)
                .map(|(a, t)| Acc::new(a.func, *t))
                .collect(),
            distinct: self
                .aggs
                .iter()
                .map(|a| {
                    if a.distinct {
                        Some(HashSet::new())
                    } else {
                        None
                    }
                })
                .collect(),
        }
    }

    /// Accumulate one input chunk, row by row in order.
    pub fn update(&mut self, input: &Chunk) -> Result<()> {
        // Evaluate group and argument expressions once, column-at-a-time.
        let group_cols: Vec<Column> = self
            .group_by
            .iter()
            .map(|g| eval(&g.expr, input, &self.input_layout))
            .collect::<Result<_>>()?;
        let arg_cols: Vec<Option<Column>> = self
            .aggs
            .iter()
            .map(|a| match &a.arg {
                Some(e) => eval(e, input, &self.input_layout).map(Some),
                None => Ok(None),
            })
            .collect::<Result<_>>()?;

        // One normalized-key buffer reused across rows: group lookups hit
        // the map through a borrow, so only first-seen groups allocate.
        let mut key_buf: Vec<NormKey> = Vec::with_capacity(self.group_by.len());
        for row in 0..input.rows() {
            key_buf.clear();
            key_buf.extend(group_cols.iter().map(|c| NormKey::from_datum(&c.get(row))));
            let idx = match self.groups.get(&key_buf) {
                Some(&i) => i,
                None => {
                    let key: Vec<Datum> = group_cols.iter().map(|c| c.get(row)).collect();
                    let i = self.states.len();
                    self.groups.insert(key_buf.clone(), i);
                    let fresh = self.new_state(key);
                    self.states.push(fresh);
                    i
                }
            };
            let state = &mut self.states[idx];
            for (ai, arg_col) in arg_cols.iter().enumerate() {
                match arg_col {
                    None => state.accs[ai].update_star(),
                    Some(col) => {
                        let v = col.get(row);
                        if let Some(set) = &mut state.distinct[ai] {
                            if v.is_null() || !set.insert(NormKey::from_datum(&v)) {
                                continue; // already counted this distinct value
                            }
                        }
                        state.accs[ai].update(&v);
                    }
                }
            }
        }
        Ok(())
    }

    /// Pre-size the group table for an expected group count (a planner
    /// estimate): dense aggregations then build their groups without
    /// mid-stream growth rehashes.
    pub fn reserve(&mut self, groups: usize) {
        self.groups.reserve(groups);
        self.states.reserve(groups);
    }

    /// Materialize the aggregated output (group columns then aggregate
    /// columns), applying the `having` filter over `out_layout`.
    pub fn finish(self, having: &Option<Expr>, out_layout: &Layout) -> Result<Chunk> {
        let mut fields = Vec::new();
        for (g, t) in self.group_by.iter().zip(&self.group_field_types) {
            fields.push(Field::new(g.name.clone(), *t));
        }
        for (a, t) in self.aggs.iter().zip(&self.agg_types) {
            fields.push(Field::new(a.func.name(), *t));
        }
        let schema = std::sync::Arc::new(Schema::new(fields));
        let mut builder = ChunkBuilder::with_capacity(&schema, self.states.len());
        for state in &self.states {
            let mut row: Vec<Datum> = state.key.clone();
            row.extend(state.accs.iter().map(|a| a.finish()));
            builder.push_row(&row)?;
        }
        let mut out = builder.finish()?;

        if let Some(h) = having {
            let sel = eval_predicate(h, &out, out_layout)?;
            out = out.take(&sel);
        }
        Ok(out)
    }
}
