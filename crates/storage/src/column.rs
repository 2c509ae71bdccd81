//! Typed, immutable columns.

use std::sync::Arc;

use bfq_common::hash::{hash_bytes, hash_f64, hash_i64};
use bfq_common::{DataType, Datum};

use crate::bitmap::Bitmap;

/// Shared handle to an immutable column.
pub type ColumnRef = Arc<Column>;

/// Compact string storage: all payloads in one buffer plus `n+1` offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrData {
    buf: String,
    offsets: Vec<u32>,
}

impl StrData {
    /// An empty string container.
    pub fn new() -> Self {
        StrData {
            buf: String::new(),
            offsets: vec![0],
        }
    }

    /// Pre-size for `rows` strings of roughly `avg_len` bytes.
    pub fn with_capacity(rows: usize, avg_len: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        StrData {
            buf: String::with_capacity(rows * avg_len),
            offsets,
        }
    }

    /// Append one string.
    pub fn push(&mut self, s: &str) {
        self.buf.push_str(s);
        self.offsets.push(self.buf.len() as u32);
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the container holds zero strings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow string `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        &self.buf[start..end]
    }

    /// Borrow string `i`'s bytes, without the character-boundary checks
    /// of slicing a `str`: what an equality test or a hash needs.
    #[inline]
    pub fn bytes(&self, i: usize) -> &[u8] {
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        &self.buf.as_bytes()[start..end]
    }

    /// Iterate all strings.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Total payload bytes (for memory accounting).
    pub fn payload_bytes(&self) -> usize {
        self.buf.len()
    }
}

impl Default for StrData {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<String> for StrData {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut s = StrData::new();
        for item in iter {
            s.push(&item);
        }
        s
    }
}

/// An immutable typed column with optional null validity.
///
/// `validity` bit `i` set means row `i` is non-null; `None` means the column
/// has no nulls at all (the common case — TPC-H base data is null-free; nulls
/// arise only from outer joins).
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int64(Vec<i64>, Option<Bitmap>),
    /// 64-bit floats.
    Float64(Vec<f64>, Option<Bitmap>),
    /// UTF-8 strings.
    Utf8(StrData, Option<Bitmap>),
    /// Booleans, stored unpacked for simple vectorized logic.
    Bool(Vec<bool>, Option<Bitmap>),
    /// Dates as days since the epoch.
    Date(Vec<i32>, Option<Bitmap>),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v, _) => v.len(),
            Column::Float64(v, _) => v.len(),
            Column::Utf8(v, _) => v.len(),
            Column::Bool(v, _) => v.len(),
            Column::Date(v, _) => v.len(),
        }
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(..) => DataType::Int64,
            Column::Float64(..) => DataType::Float64,
            Column::Utf8(..) => DataType::Utf8,
            Column::Bool(..) => DataType::Bool,
            Column::Date(..) => DataType::Date,
        }
    }

    /// The validity bitmap, if the column may contain nulls.
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Column::Int64(_, v)
            | Column::Float64(_, v)
            | Column::Utf8(_, v)
            | Column::Bool(_, v)
            | Column::Date(_, v) => v.as_ref(),
        }
    }

    /// Whether row `i` is null.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self.validity() {
            Some(bm) => !bm.get(i),
            None => false,
        }
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        match self.validity() {
            Some(bm) => bm.len() - bm.count_set(),
            None => 0,
        }
    }

    /// Read row `i` as a [`Datum`] (boundary/test use; hot paths use slices).
    pub fn get(&self, i: usize) -> Datum {
        if self.is_null(i) {
            return Datum::Null;
        }
        match self {
            Column::Int64(v, _) => Datum::Int(v[i]),
            Column::Float64(v, _) => Datum::Float(v[i]),
            Column::Utf8(v, _) => Datum::str(v.get(i)),
            Column::Bool(v, _) => Datum::Bool(v[i]),
            Column::Date(v, _) => Datum::Date(v[i]),
        }
    }

    /// Integer values slice, if this is an Int64 column.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            Column::Int64(v, _) => Some(v),
            _ => None,
        }
    }

    /// Float values slice, if this is a Float64 column.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Column::Float64(v, _) => Some(v),
            _ => None,
        }
    }

    /// Date values slice, if this is a Date column.
    pub fn as_date(&self) -> Option<&[i32]> {
        match self {
            Column::Date(v, _) => Some(v),
            _ => None,
        }
    }

    /// Bool values slice, if this is a Bool column.
    pub fn as_bool(&self) -> Option<&[bool]> {
        match self {
            Column::Bool(v, _) => Some(v),
            _ => None,
        }
    }

    /// String container, if this is a Utf8 column.
    pub fn as_str(&self) -> Option<&StrData> {
        match self {
            Column::Utf8(v, _) => Some(v),
            _ => None,
        }
    }

    /// Gather rows by selection vector into a new column.
    pub fn take(&self, sel: &[u32]) -> Column {
        let gather_validity = |v: &Option<Bitmap>| -> Option<Bitmap> {
            v.as_ref()
                .map(|bm| Bitmap::from_bools(sel.iter().map(|&i| bm.get(i as usize))))
        };
        match self {
            Column::Int64(v, val) => Column::Int64(
                sel.iter().map(|&i| v[i as usize]).collect(),
                gather_validity(val),
            ),
            Column::Float64(v, val) => Column::Float64(
                sel.iter().map(|&i| v[i as usize]).collect(),
                gather_validity(val),
            ),
            Column::Utf8(v, val) => {
                let mut out = StrData::with_capacity(
                    sel.len(),
                    if v.is_empty() {
                        0
                    } else {
                        v.payload_bytes() / v.len().max(1)
                    },
                );
                for &i in sel {
                    out.push(v.get(i as usize));
                }
                Column::Utf8(out, gather_validity(val))
            }
            Column::Bool(v, val) => Column::Bool(
                sel.iter().map(|&i| v[i as usize]).collect(),
                gather_validity(val),
            ),
            Column::Date(v, val) => Column::Date(
                sel.iter().map(|&i| v[i as usize]).collect(),
                gather_validity(val),
            ),
        }
    }

    /// Concatenate columns of the same type into one.
    pub fn concat(parts: &[&Column]) -> Column {
        assert!(!parts.is_empty(), "concat of zero columns");
        let total: usize = parts.iter().map(|c| c.len()).sum();
        let any_nulls = parts.iter().any(|c| c.validity().is_some());
        let build_validity = || -> Option<Bitmap> {
            if !any_nulls {
                return None;
            }
            let mut bm = Bitmap::new(total, true);
            let mut base = 0usize;
            for part in parts {
                if let Some(v) = part.validity() {
                    for i in 0..part.len() {
                        if !v.get(i) {
                            bm.set(base + i, false);
                        }
                    }
                }
                base += part.len();
            }
            Some(bm)
        };
        match parts[0] {
            Column::Int64(..) => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.as_i64().expect("type mismatch in concat"));
                }
                Column::Int64(out, build_validity())
            }
            Column::Float64(..) => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.as_f64().expect("type mismatch in concat"));
                }
                Column::Float64(out, build_validity())
            }
            Column::Utf8(..) => {
                let mut out = StrData::new();
                for p in parts {
                    for s in p.as_str().expect("type mismatch in concat").iter() {
                        out.push(s);
                    }
                }
                Column::Utf8(out, build_validity())
            }
            Column::Bool(..) => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.as_bool().expect("type mismatch in concat"));
                }
                Column::Bool(out, build_validity())
            }
            Column::Date(..) => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.as_date().expect("type mismatch in concat"));
                }
                Column::Date(out, build_validity())
            }
        }
    }

    /// Hash every row with `seed`, writing into `out` (resized to fit).
    ///
    /// Null rows hash to a fixed sentinel; equality logic elsewhere ensures
    /// nulls never *match*, the sentinel just keeps vector shapes aligned.
    pub fn hash_into(&self, seed: u64, out: &mut Vec<u64>) {
        const NULL_SENTINEL: u64 = 0x6e75_6c6c_6e75_6c6c; // "nullnull"
        out.clear();
        out.reserve(self.len());
        match self {
            Column::Int64(v, _) => out.extend(v.iter().map(|&x| hash_i64(x, seed))),
            Column::Float64(v, _) => out.extend(v.iter().map(|&x| hash_f64(x, seed))),
            Column::Utf8(v, _) => out.extend((0..v.len()).map(|i| hash_bytes(v.bytes(i), seed))),
            Column::Bool(v, _) => out.extend(v.iter().map(|&b| hash_i64(b as i64, seed))),
            Column::Date(v, _) => out.extend(v.iter().map(|&x| hash_i64(x as i64, seed))),
        }
        if let Some(bm) = self.validity() {
            for (i, h) in out.iter_mut().enumerate() {
                if !bm.get(i) {
                    *h = NULL_SENTINEL;
                }
            }
        }
    }

    /// Hash a single row with `seed` (must agree with [`Column::hash_into`]).
    #[inline]
    pub fn hash_one(&self, i: usize, seed: u64) -> u64 {
        const NULL_SENTINEL: u64 = 0x6e75_6c6c_6e75_6c6c; // "nullnull"
        if self.is_null(i) {
            return NULL_SENTINEL;
        }
        match self {
            Column::Int64(v, _) => hash_i64(v[i], seed),
            Column::Float64(v, _) => hash_f64(v[i], seed),
            Column::Utf8(v, _) => hash_bytes(v.get(i).as_bytes(), seed),
            Column::Bool(v, _) => hash_i64(v[i] as i64, seed),
            Column::Date(v, _) => hash_i64(v[i] as i64, seed),
        }
    }

    /// An all-null column of `len` rows and the given type.
    pub fn nulls(dt: DataType, len: usize) -> Column {
        let bm = Some(Bitmap::new(len, false));
        match dt {
            DataType::Int64 => Column::Int64(vec![0; len], bm),
            DataType::Float64 => Column::Float64(vec![0.0; len], bm),
            DataType::Utf8 => {
                let mut s = StrData::new();
                for _ in 0..len {
                    s.push("");
                }
                Column::Utf8(s, bm)
            }
            DataType::Bool => Column::Bool(vec![false; len], bm),
            DataType::Date => Column::Date(vec![0; len], bm),
        }
    }

    /// Min/max of the non-null values on the shared numeric axis (ints,
    /// floats, dates — the same axis the selectivity estimator uses).
    /// `None` for non-numeric columns or when every row is null.
    pub fn min_max_axis(&self) -> Option<(f64, f64)> {
        fn fold<T: Copy>(
            vals: &[T],
            validity: Option<&Bitmap>,
            to_f64: impl Fn(T) -> f64,
        ) -> Option<(f64, f64)> {
            let mut acc: Option<(f64, f64)> = None;
            for (i, &v) in vals.iter().enumerate() {
                if validity.is_some_and(|bm| !bm.get(i)) {
                    continue;
                }
                let x = to_f64(v);
                acc = Some(match acc {
                    None => (x, x),
                    Some((lo, hi)) => (lo.min(x), hi.max(x)),
                });
            }
            acc
        }
        match self {
            Column::Int64(v, val) => fold(v, val.as_ref(), |x| x as f64),
            Column::Float64(v, val) => fold(v, val.as_ref(), |x| x),
            Column::Date(v, val) => fold(v, val.as_ref(), |x| x as f64),
            Column::Utf8(..) | Column::Bool(..) => None,
        }
    }

    /// Count distinct non-null values (exact; used to build statistics).
    pub fn count_distinct(&self) -> usize {
        use std::collections::HashSet;
        match self {
            Column::Int64(v, val) => {
                let mut set = HashSet::new();
                for (i, x) in v.iter().enumerate() {
                    if val.as_ref().is_none_or(|bm| bm.get(i)) {
                        set.insert(*x);
                    }
                }
                set.len()
            }
            Column::Date(v, val) => {
                let mut set = HashSet::new();
                for (i, x) in v.iter().enumerate() {
                    if val.as_ref().is_none_or(|bm| bm.get(i)) {
                        set.insert(*x);
                    }
                }
                set.len()
            }
            Column::Float64(v, val) => {
                let mut set = HashSet::new();
                for (i, x) in v.iter().enumerate() {
                    if val.as_ref().is_none_or(|bm| bm.get(i)) {
                        set.insert(x.to_bits());
                    }
                }
                set.len()
            }
            Column::Bool(v, val) => {
                let mut seen = [false; 2];
                for (i, x) in v.iter().enumerate() {
                    if val.as_ref().is_none_or(|bm| bm.get(i)) {
                        seen[*x as usize] = true;
                    }
                }
                seen.iter().filter(|&&b| b).count()
            }
            Column::Utf8(v, val) => {
                let mut set = HashSet::new();
                for i in 0..v.len() {
                    if val.as_ref().is_none_or(|bm| bm.get(i)) {
                        set.insert(v.get(i));
                    }
                }
                set.len()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col(vals: &[i64]) -> Column {
        Column::Int64(vals.to_vec(), None)
    }

    #[test]
    fn basic_accessors() {
        let c = int_col(&[1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.get(1), Datum::Int(2));
        assert_eq!(c.as_i64(), Some(&[1i64, 2, 3][..]));
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn str_data_round_trips() {
        let mut s = StrData::new();
        s.push("hello");
        s.push("");
        s.push("world");
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0), "hello");
        assert_eq!(s.get(1), "");
        assert_eq!(s.get(2), "world");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec!["hello", "", "world"]);
        assert_eq!(s.payload_bytes(), 10);
    }

    #[test]
    fn take_gathers_and_preserves_nulls() {
        let validity = Bitmap::from_bools([true, false, true, true]);
        let c = Column::Int64(vec![10, 20, 30, 40], Some(validity));
        let t = c.take(&[3, 1, 0]);
        assert_eq!(t.get(0), Datum::Int(40));
        assert_eq!(t.get(1), Datum::Null);
        assert_eq!(t.get(2), Datum::Int(10));
    }

    #[test]
    fn take_strings() {
        let s: StrData = ["a", "bb", "ccc"].iter().map(|s| s.to_string()).collect();
        let c = Column::Utf8(s, None);
        let t = c.take(&[2, 0]);
        assert_eq!(t.get(0), Datum::str("ccc"));
        assert_eq!(t.get(1), Datum::str("a"));
    }

    #[test]
    fn concat_mixed_validity() {
        let a = int_col(&[1, 2]);
        let b = Column::Int64(vec![3, 4], Some(Bitmap::from_bools([false, true])));
        let c = Column::concat(&[&a, &b]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(2), Datum::Null);
        assert_eq!(c.get(3), Datum::Int(4));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn hashes_are_stable_and_distinguish_values() {
        let c = int_col(&[1, 2, 1]);
        let mut h = Vec::new();
        c.hash_into(7, &mut h);
        assert_eq!(h.len(), 3);
        assert_eq!(h[0], h[2]);
        assert_ne!(h[0], h[1]);
    }

    #[test]
    fn date_hash_matches_int_semantics() {
        // Dates and ints with the same numeric value must hash identically so
        // date-keyed joins against int columns work.
        let d = Column::Date(vec![100], None);
        let i = int_col(&[100]);
        let (mut hd, mut hi) = (Vec::new(), Vec::new());
        d.hash_into(3, &mut hd);
        i.hash_into(3, &mut hi);
        assert_eq!(hd, hi);
    }

    #[test]
    fn nulls_column_is_fully_null() {
        let c = Column::nulls(DataType::Utf8, 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 3);
        assert_eq!(c.get(0), Datum::Null);
    }

    #[test]
    fn min_max_axis_respects_type_and_nulls() {
        assert_eq!(int_col(&[3, -1, 7]).min_max_axis(), Some((-1.0, 7.0)));
        assert_eq!(
            Column::Date(vec![10, 5], None).min_max_axis(),
            Some((5.0, 10.0))
        );
        let with_nulls = Column::Int64(
            vec![100, 1, 2],
            Some(Bitmap::from_bools([false, true, true])),
        );
        assert_eq!(with_nulls.min_max_axis(), Some((1.0, 2.0)));
        assert_eq!(Column::nulls(DataType::Int64, 3).min_max_axis(), None);
        let s: StrData = ["a"].iter().map(|s| s.to_string()).collect();
        assert_eq!(Column::Utf8(s, None).min_max_axis(), None);
    }

    #[test]
    fn count_distinct_ignores_nulls() {
        let c = Column::Int64(
            vec![1, 1, 2, 99],
            Some(Bitmap::from_bools([true, true, true, false])),
        );
        assert_eq!(c.count_distinct(), 2);
        let s: StrData = ["a", "a", "b"].iter().map(|s| s.to_string()).collect();
        assert_eq!(Column::Utf8(s, None).count_distinct(), 2);
        assert_eq!(Column::Bool(vec![true, true], None).count_distinct(), 1);
    }
}
