//! Result checksums: order-insensitive over whole rows, order-sensitive
//! over the `ORDER BY` key columns.
//!
//! Two executions agree when they return the same multiset of rows and the
//! same sequence of sort-key values. Rows that tie on the sort key may come
//! back in any order, and floats are compared at six significant digits,
//! because a different join order sums them in a different order.

use bfq::prelude::Datum;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash = (hash ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a of a text, for things that must merely repeat (a plan's shape).
pub fn hash_text(text: &str) -> u64 {
    fnv(FNV_OFFSET, text.as_bytes())
}

/// The text a cell is hashed as: a type tag, then the value. Floats are
/// rendered with six significant digits, and `-0` as `0`.
pub fn normalise(cell: &Datum) -> String {
    match cell {
        Datum::Null => "N".to_string(),
        Datum::Int(v) => format!("I{v}"),
        Datum::Float(v) if v.is_nan() => "Fnan".to_string(),
        Datum::Float(v) => format!("F{:.5e}", if *v == 0.0 { 0.0 } else { *v }),
        Datum::Str(s) => format!("S{s}"),
        Datum::Bool(b) => format!("B{}", u8::from(*b)),
        Datum::Date(d) => format!("D{d}"),
    }
}

fn hash_cells<'a>(seed: u64, cells: impl Iterator<Item = &'a Datum>) -> u64 {
    cells.fold(seed, |hash, cell| {
        fnv(fnv(hash, normalise(cell).as_bytes()), &[0x1f])
    })
}

/// What a statement returned, reduced to three numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum {
    pub rows: u64,
    /// Wrapping sum of per-row hashes: the same for any row order.
    pub bag: u64,
    /// Hash of the sort-key cells in output order (0 columns: constant).
    pub ordered: u64,
}

impl Checksum {
    /// Checksum `rows`; `order_cols` are the output ordinals of the
    /// `ORDER BY` items, most significant first.
    pub fn of<'a>(rows: impl Iterator<Item = &'a [Datum]>, order_cols: &[usize]) -> Checksum {
        let mut sum = Checksum {
            rows: 0,
            bag: 0,
            ordered: FNV_OFFSET,
        };
        for row in rows {
            sum.rows += 1;
            // The multiply keeps the sum from cancelling on swapped cells.
            let row_hash = hash_cells(FNV_OFFSET, row.iter()).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            sum.bag = sum.bag.wrapping_add(row_hash);
            sum.ordered = fnv(
                hash_cells(sum.ordered, order_cols.iter().map(|c| &row[*c])),
                &[0x1e],
            );
        }
        sum
    }

    /// `rows:bag:ordered`, as stored in the expected-results file.
    pub fn render(&self) -> String {
        format!("{}:{:016x}:{:016x}", self.rows, self.bag, self.ordered)
    }
}

/// Output ordinals of the statement's top-level `ORDER BY` items: the
/// longest prefix of items that are plain output column names.
pub fn order_by_columns(sql: &str, column_names: &[String]) -> Vec<usize> {
    let lower = sql.to_ascii_lowercase();
    let bytes = lower.as_bytes();
    // Byte offsets at parenthesis depth 0, so subquery clauses are skipped.
    let mut depth = 0usize;
    let mut top_level = vec![false; bytes.len()];
    for (i, b) in bytes.iter().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => depth = depth.saturating_sub(1),
            _ => {}
        }
        top_level[i] = depth == 0;
    }
    let find_top = |needle: &str, from: usize| {
        lower[from..]
            .match_indices(needle)
            .map(|(i, _)| i + from)
            .filter(|i| top_level[*i])
            .last()
    };
    let Some(start) = find_top("order by", 0) else {
        return Vec::new();
    };
    let start = start + "order by".len();
    let end = find_top("limit", start).unwrap_or(lower.len());
    let mut cols = Vec::new();
    for item in lower[start..end].split(',') {
        let mut words = item.split_whitespace();
        let name = words.next().unwrap_or("");
        let plain = matches!(
            (words.next(), words.next()),
            (None | Some("asc" | "desc"), None)
        );
        match column_names
            .iter()
            .position(|c| plain && c.eq_ignore_ascii_case(name))
        {
            Some(ordinal) => cols.push(ordinal),
            None => break,
        }
    }
    cols
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(rows: &[Vec<Datum>], order_cols: &[usize]) -> Checksum {
        Checksum::of(rows.iter().map(Vec::as_slice), order_cols)
    }

    #[test]
    fn floats_compare_at_six_significant_digits() {
        assert_eq!(normalise(&Datum::Float(1234.56789)), "F1.23457e3");
        assert_eq!(
            normalise(&Datum::Float(0.1 + 0.2)),
            normalise(&Datum::Float(0.3))
        );
        assert_ne!(
            normalise(&Datum::Float(1.00001)),
            normalise(&Datum::Float(1.00002))
        );
        assert_eq!(
            normalise(&Datum::Float(-0.0)),
            normalise(&Datum::Float(0.0))
        );
    }

    #[test]
    fn types_do_not_collide() {
        assert_ne!(normalise(&Datum::Int(1)), normalise(&Datum::Float(1.0)));
        assert_ne!(normalise(&Datum::Int(1)), normalise(&Datum::Date(1)));
        assert_ne!(normalise(&Datum::str("N")), normalise(&Datum::Null));
    }

    #[test]
    fn row_order_is_ignored_without_sort_keys() {
        let a = vec![
            vec![Datum::Int(1), Datum::str("x")],
            vec![Datum::Int(2), Datum::str("y")],
        ];
        let b = vec![a[1].clone(), a[0].clone()];
        assert_eq!(sum(&a, &[]), sum(&b, &[]));
        // Swapping cells between rows is a different result.
        let c = vec![
            vec![Datum::Int(1), Datum::str("y")],
            vec![Datum::Int(2), Datum::str("x")],
        ];
        assert_ne!(sum(&a, &[]), sum(&c, &[]));
    }

    #[test]
    fn sort_keys_are_compared_in_order_and_ties_are_free() {
        let a = vec![
            vec![Datum::Int(1), Datum::str("x")],
            vec![Datum::Int(1), Datum::str("y")],
            vec![Datum::Int(2), Datum::str("z")],
        ];
        let ties_swapped = vec![a[1].clone(), a[0].clone(), a[2].clone()];
        assert_eq!(sum(&a, &[0]), sum(&ties_swapped, &[0]));
        let out_of_order = vec![a[2].clone(), a[0].clone(), a[1].clone()];
        assert_ne!(sum(&a, &[0]), sum(&out_of_order, &[0]));
        assert_eq!(sum(&a, &[]), sum(&out_of_order, &[]));
    }

    #[test]
    fn order_by_items_resolve_to_output_ordinals() {
        let names: Vec<String> = ["s_name", "revenue", "o_orderdate"]
            .map(String::from)
            .to_vec();
        let sql = "select s_name, sum(x) as revenue, o_orderdate from t \
                   where k in (select k from u order by k) \
                   order by revenue desc, o_orderdate\nlimit 10";
        assert_eq!(order_by_columns(sql, &names), vec![1, 2]);
        assert_eq!(order_by_columns("select s_name from t", &names), vec![]);
        // An expression ends the prefix.
        let sql = "select s_name, revenue from t order by s_name, revenue + 1, o_orderdate";
        assert_eq!(order_by_columns(sql, &names), vec![0]);
    }
}
