//! The binary chunk codec and the JSON tree writer.
//!
//! * `encode_chunk` then `decode_chunk` give back exactly the rows of the
//!   chunk, floats compared by bit pattern, over random chunks of all five
//!   types, nullable and null-free columns, NaN, ±inf, −0.0,
//!   `i64::MIN`/`MAX`, negative dates, strings with quotes, backslashes,
//!   control characters and non-ASCII text, zero-width and empty chunks,
//!   row ranges that cross `WIRE_CHUNK_ROWS`, and a whole chunk split into
//!   frames as the server splits it.
//! * A frame cut short at any offset, or with random bytes overwritten,
//!   decodes to `Err` or to rows, never panics, and leaves rows already
//!   gathered as they were. `mutated_frames_never_panic_long` runs the same
//!   check over many more cases (`cargo test --release -- --ignored`).
//! * `Json::write_to`, which control frames still use, writes exactly the
//!   bytes of a formatter-based serializer for the tree of those chunks.

use std::ops::Range;
use std::sync::Arc;

use bfq_common::{DataType, Datum};
use bfq_server::json::Json;
use bfq_server::protocol::{
    chunk_payload_len, datum_to_json, decode_chunk, encode_chunk, CHUNK_HEADER_BYTES,
    WIRE_CHUNK_ROWS,
};
use bfq_storage::{Bitmap, Chunk, Column, StrData};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const TYPES: [DataType; 5] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Utf8,
    DataType::Bool,
    DataType::Date,
];

const INTS: [i64; 6] = [0, -1, 7, i64::MIN, i64::MAX, 1 << 53];
const FLOATS: [f64; 11] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    3.0,
    0.1,
    -2.5e-300,
    1e300,
    f64::MIN_POSITIVE,
    5e-324,
];
const DATES: [i32; 5] = [0, -1, -719_528, i32::MIN, i32::MAX];
const PIECES: [&str; 12] = [
    "",
    "a",
    "\"",
    "\\",
    "\n",
    "\r\t",
    "\u{1}",
    "\u{1f}\u{7f}",
    "é",
    "日本",
    "😀",
    "/",
];

fn pick<T: Copy>(rng: &mut TestRng, pool: &[T]) -> T {
    pool[rng.below(pool.len() as u64) as usize]
}

/// No bitmap, an all-valid one, or one with nulls.
fn validity(rng: &mut TestRng, rows: usize) -> Option<Bitmap> {
    match rng.below(3) {
        0 => None,
        1 => Some(Bitmap::new(rows, true)),
        _ => Some(Bitmap::from_bools((0..rows).map(|_| rng.below(4) != 0))),
    }
}

fn column(rng: &mut TestRng, ty: DataType, rows: usize) -> Column {
    let valid = validity(rng, rows);
    match ty {
        DataType::Int64 => Column::Int64(
            (0..rows)
                .map(|_| match rng.below(2) {
                    0 => pick(rng, &INTS),
                    _ => rng.next_u64() as i64,
                })
                .collect(),
            valid,
        ),
        DataType::Float64 => Column::Float64(
            (0..rows)
                .map(|_| match rng.below(2) {
                    0 => pick(rng, &FLOATS),
                    _ => f64::from_bits(rng.next_u64()),
                })
                .collect(),
            valid,
        ),
        DataType::Utf8 => Column::Utf8(
            (0..rows)
                .map(|_| (0..rng.below(4)).map(|_| pick(rng, &PIECES)).collect())
                .collect::<StrData>(),
            valid,
        ),
        DataType::Bool => Column::Bool((0..rows).map(|_| rng.below(2) == 0).collect(), valid),
        DataType::Date => Column::Date(
            (0..rows)
                .map(|_| match rng.below(2) {
                    0 => pick(rng, &DATES),
                    _ => rng.next_u64() as i32,
                })
                .collect(),
            valid,
        ),
    }
}

/// A random chunk and a row range of it. One case in eight is longer than
/// `WIRE_CHUNK_ROWS`, with a range across that boundary.
fn chunk_and_range(rng: &mut TestRng) -> (Chunk, Range<usize>) {
    let width = rng.below(6) as usize;
    let long = rng.below(8) == 0;
    let rows = match (long, rng.below(6)) {
        (true, _) => WIRE_CHUNK_ROWS + 1 + rng.below(64) as usize,
        (false, 0) => 0,
        (false, _) => rng.below(24) as usize,
    };
    let chunk = if width == 0 {
        Chunk::of_rows(rows)
    } else {
        let columns = (0..width)
            .map(|_| {
                let ty = pick(rng, &TYPES);
                Arc::new(column(rng, ty, rows))
            })
            .collect();
        Chunk::new(columns).expect("equal-length columns")
    };
    let range = if long {
        let past = rows - WIRE_CHUNK_ROWS;
        WIRE_CHUNK_ROWS - rng.below(40) as usize
            ..WIRE_CHUNK_ROWS + 1 + rng.below(past as u64) as usize
    } else {
        let start = rng.below(rows as u64 + 1) as usize;
        start..start + rng.below((rows - start) as u64 + 1) as usize
    };
    (chunk, range)
}

/// The rows of `chunk` as a JSON tree, as `datum_to_json` spells them.
fn tree(chunk: &Chunk, rows: Range<usize>) -> Json {
    let body = rows
        .map(|i| Json::Arr(chunk.row(i).iter().map(datum_to_json).collect()))
        .collect();
    Json::obj([("chunk", Json::Arr(body))])
}

/// The tree's text as a formatter-based serializer writes it: the
/// byte-for-byte reference for `Json::write_to`.
fn formatted(v: &Json) -> String {
    use std::fmt::Write;
    fn escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    let mut out = String::new();
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => write!(out, "{b}").unwrap(),
        Json::Int(n) => write!(out, "{n}").unwrap(),
        Json::Float(f) if f.is_finite() => write!(out, "{f:?}").unwrap(),
        Json::Float(_) => out.push_str("null"),
        Json::Str(s) => escaped(&mut out, s),
        Json::Arr(items) => {
            let items: Vec<_> = items.iter().map(formatted).collect();
            write!(out, "[{}]", items.join(",")).unwrap();
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escaped(&mut out, k);
                out.push(':');
                out.push_str(&formatted(item));
            }
            out.push('}');
        }
    }
    out
}

/// Decode the chunk frames that fill `bytes`, one after another, as the
/// client reads them off the socket.
fn decode_frames(mut bytes: &[u8], types: &[DataType]) -> Result<Vec<Vec<Datum>>, String> {
    let mut rows = Vec::new();
    while !bytes.is_empty() {
        let (header, rest) = bytes
            .split_first_chunk::<CHUNK_HEADER_BYTES>()
            .ok_or("truncated frame header")?;
        let len = chunk_payload_len(header)?;
        let (payload, rest) = rest.split_at_checked(len).ok_or("truncated payload")?;
        decode_chunk(payload, types, &mut rows)?;
        bytes = rest;
    }
    Ok(rows)
}

fn types_of(chunk: &Chunk) -> Vec<DataType> {
    chunk.columns().iter().map(|c| c.data_type()).collect()
}

/// Rows with every float replaced by its bit pattern, so NaN payloads and
/// the sign of zero count.
fn exact(rows: impl IntoIterator<Item = Vec<Datum>>) -> Vec<Vec<Result<Datum, u64>>> {
    rows.into_iter()
        .map(|row| {
            row.into_iter()
                .map(|d| match d {
                    Datum::Float(f) => Err(f.to_bits()),
                    d => Ok(d),
                })
                .collect()
        })
        .collect()
}

fn rows_of(chunk: &Chunk, rows: Range<usize>) -> Vec<Vec<Datum>> {
    rows.map(|i| chunk.row(i)).collect()
}

/// The whole chunk as the server sends it: frames of `WIRE_CHUNK_ROWS`.
fn server_frames(chunk: &Chunk, out: &mut Vec<u8>) {
    let mut start = 0;
    while start < chunk.rows() {
        let end = (start + WIRE_CHUNK_ROWS).min(chunk.rows());
        encode_chunk(chunk, start..end, out).expect("under the cap");
        start = end;
    }
}

/// Cut the frames short at `cut` or overwrite a few random bytes, then
/// decode: rows or `Err`, no panic, and earlier rows untouched on `Err`.
fn check_mutation(rng: &mut TestRng, frames: &[u8], types: &[DataType], cut: Option<usize>) {
    let mut bytes = frames.to_vec();
    match cut {
        Some(at) => bytes.truncate(at),
        None => {
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] = match rng.below(3) {
                    0 => rng.next_u64() as u8,
                    1 => bytes[at] ^ (1 << rng.below(8)),
                    _ => pick(rng, &[0, 1, 0x7f, 0x80, 0xc1, 0xff]),
                };
            }
        }
    }
    let earlier = vec![vec![Datum::str("earlier")]];
    let mut rest = &bytes[..];
    let mut out = earlier.clone();
    while let Some((header, tail)) = rest.split_first_chunk::<CHUNK_HEADER_BYTES>() {
        let Ok(len) = chunk_payload_len(header) else {
            break;
        };
        let Some((payload, tail)) = tail.split_at_checked(len) else {
            break;
        };
        let before = out.clone();
        if decode_chunk(payload, types, &mut out).is_err() {
            assert_eq!(out, before, "a failed decode changed the output");
            break;
        }
        rest = tail;
    }
    assert_eq!(out[..1], earlier[..], "earlier rows were changed");
}

/// One mutation case: a random chunk's frames, cut at every offset when
/// they are short (at a few random ones otherwise), and with bytes
/// overwritten.
fn mutation_case(seed: u64) {
    let mut rng = TestRng::for_case(seed);
    let (chunk, range) = chunk_and_range(&mut rng);
    let mut frames = Vec::new();
    encode_chunk(&chunk, range, &mut frames).expect("under the cap");
    if rng.below(4) == 0 {
        server_frames(&chunk, &mut frames);
    }
    // One case in four reads the frames under a header of other types.
    let mut types = types_of(&chunk);
    if !types.is_empty() && rng.below(4) == 0 {
        let c = rng.below(types.len() as u64) as usize;
        types[c] = pick(&mut rng, &TYPES);
    }
    if frames.len() <= 2048 {
        for at in 0..frames.len() {
            check_mutation(&mut rng, &frames, &types, Some(at));
        }
    } else {
        for _ in 0..8 {
            let at = rng.below(frames.len() as u64) as usize;
            check_mutation(&mut rng, &frames, &types, Some(at));
        }
    }
    for _ in 0..8 {
        check_mutation(&mut rng, &frames, &types, None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn chunk_frames_roundtrip(seed in any::<u64>()) {
        let mut rng = TestRng::for_case(seed);
        let (chunk, range) = chunk_and_range(&mut rng);
        // The encoder appends: what the buffer already holds stays.
        let mut frames = b"queued".to_vec();
        encode_chunk(&chunk, range.clone(), &mut frames).expect("under the cap");
        server_frames(&chunk, &mut frames);
        prop_assert_eq!(&frames[..6], b"queued");
        let decoded = decode_frames(&frames[6..], &types_of(&chunk)).expect("intact frames");
        let mut expected = rows_of(&chunk, range);
        expected.extend(rows_of(&chunk, 0..chunk.rows()));
        prop_assert_eq!(exact(decoded), exact(expected));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn mutated_frames_never_panic(seed in any::<u64>()) {
        mutation_case(seed);
    }

    #[test]
    fn json_tree_writes_the_formatter_bytes(seed in any::<u64>()) {
        let mut rng = TestRng::for_case(seed);
        let (chunk, range) = chunk_and_range(&mut rng);
        let frame = tree(&chunk, range);
        prop_assert_eq!(frame.to_string(), formatted(&frame));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    #[ignore = "long run: cargo test --release -p bfq-server -- --ignored"]
    fn mutated_frames_never_panic_long(seed in any::<u64>()) {
        mutation_case(seed);
    }
}
