//! The result-row codec against the JSON tree it stands in for.
//!
//! * `encode_chunk_frame` and `Json::write_to` write exactly the bytes the
//!   formatter-based serializer wrote for the tree built from
//!   `datum_to_json` of each cell, over random chunks of all five types,
//!   nullable and null-free columns, NaN, ±inf, −0.0, `i64::MIN`/`MAX`,
//!   negative dates, strings with quotes, backslashes, control characters
//!   and non-ASCII text, empty chunks, and row ranges that cross
//!   `WIRE_CHUNK_ROWS`.
//! * `decode_stream_frame` returns exactly the rows that `Json::parse`
//!   followed by `datum_from_json` returns, and fails exactly when that
//!   does, on those frames and on mutated ones: truncations, byte flips,
//!   whitespace between tokens, wrong row widths, int↔float tokens,
//!   out-of-range dates, foreign cells, extra members and headers whose
//!   types disagree with the cells. An intact frame decodes back to the
//!   chunk's own rows, which also checks the string and number scanning
//!   both decoders share.

use std::ops::Range;
use std::sync::Arc;

use bfq_common::{DataType, Datum};
use bfq_server::json::Json;
use bfq_server::protocol::{
    datum_from_json, datum_to_json, decode_stream_frame, encode_chunk_frame, StreamFrame,
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

/// The frame as a tree: what the server built before the direct encoder.
fn tree(chunk: &Chunk, rows: Range<usize>) -> Json {
    let body = rows
        .map(|i| Json::Arr(chunk.row(i).iter().map(datum_to_json).collect()))
        .collect();
    Json::obj([("chunk", Json::Arr(body))])
}

/// The tree's text as the formatter-based serializer wrote it before
/// `Json::write_to`: the byte-for-byte reference for both encoders.
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

/// Any JSON value, from a small pool of every kind.
fn foreign(rng: &mut TestRng) -> Json {
    match rng.below(9) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Int(pick(rng, &INTS)),
        3 => Json::Int(i64::from(i32::MAX) + 1 + rng.below(4) as i64),
        4 => Json::Int(i64::from(i32::MIN) - 1 - rng.below(4) as i64),
        5 => Json::Float(pick(rng, &FLOATS)),
        6 => Json::Str(pick(rng, &PIECES).into()),
        7 => Json::Arr(vec![Json::Int(1)]),
        _ => Json::obj([("date", Json::Int(1))]),
    }
}

/// One random edit of the tree: a cell, a row, the body or the frame.
fn mutate_tree(rng: &mut TestRng, frame: &mut Json) {
    let Json::Obj(fields) = frame else { return };
    let edit = rng.below(10);
    match edit {
        // Another member before or after the body.
        7 => {
            let key = pick(rng, &["done", "error", "chunk", "x"]);
            let member = (key.to_string(), foreign(rng));
            if rng.below(2) == 0 {
                fields.insert(0, member);
            } else {
                fields.push(member);
            }
            return;
        }
        // A frame that is not an object.
        8 => {
            *frame = std::mem::replace(&mut fields[0].1, Json::Null);
            return;
        }
        9 => {
            fields[0].0 = pick(rng, &["chunks", "", "Chunk"]).into();
            return;
        }
        _ => {}
    }
    let body = &mut fields[0].1;
    let Json::Arr(rows) = body else { return };
    if edit == 6 || rows.is_empty() {
        // A body that is not an array.
        *body = foreign(rng);
        return;
    }
    let r = rng.below(rows.len() as u64) as usize;
    let row = &mut rows[r];
    if edit == 5 {
        // A row that is not an array.
        *row = foreign(rng);
        return;
    }
    let Json::Arr(cells) = row else { return };
    match edit {
        // Int tokens become floats and floats ints.
        0 | 1 => {
            for cell in cells {
                match *cell {
                    Json::Int(v) => *cell = Json::Float(v as f64),
                    Json::Float(v) if v.is_finite() => *cell = Json::Int(v as i64),
                    _ => {}
                }
            }
        }
        // A cell replaced by any value, dates out of range included.
        2 | 3 if !cells.is_empty() => {
            let c = rng.below(cells.len() as u64) as usize;
            cells[c] = foreign(rng);
        }
        // Rows one cell narrower or wider.
        _ if !cells.is_empty() && rng.below(2) == 0 => {
            cells.pop();
        }
        _ => cells.push(foreign(rng)),
    }
}

/// Render with random whitespace between tokens.
fn spaced(rng: &mut TestRng, v: &Json, out: &mut String) {
    fn ws(rng: &mut TestRng, out: &mut String) {
        for _ in 0..rng.below(4).saturating_sub(2) {
            out.push(pick(rng, &[' ', '\t', '\r', '\n']));
        }
    }
    ws(rng, out);
    match v {
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                spaced(rng, item, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                Json::Str(k.clone()).write_to(out);
                ws(rng, out);
                out.push(':');
                spaced(rng, item, out);
            }
            ws(rng, out);
            out.push('}');
        }
        leaf => leaf.write_to(out),
    }
    ws(rng, out);
}

/// Cut the text short, or overwrite one ASCII byte with a JSON-significant
/// one (the text stays UTF-8: the client hands the decoder a `str`).
fn mutate_bytes(rng: &mut TestRng, text: &mut String) {
    if text.is_empty() {
        return;
    }
    let mut at = rng.below(text.len() as u64) as usize;
    if rng.below(2) == 0 {
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        text.truncate(at);
    } else if text.as_bytes()[at].is_ascii() {
        let b = pick(rng, b"\"\\,[]{}:0-.eE+ ntfux\t");
        text.replace_range(at..at + 1, std::str::from_utf8(&[b]).expect("ASCII"));
    }
}

/// What a frame read while a stream is open amounts to.
#[derive(Debug, PartialEq)]
enum Outcome {
    NotJson,
    Rows(Vec<Vec<Datum>>),
    BadChunk,
    Control(Json),
}

/// `Json::parse`, then `datum_from_json` on every cell of the first
/// `chunk` member, unless the frame has an `error` or `done` member.
fn reference(text: &str, types: &[DataType]) -> Outcome {
    let Ok(frame) = Json::parse(text) else {
        return Outcome::NotJson;
    };
    if frame.get("error").is_some() || frame.get("done").is_some() {
        return Outcome::Control(frame);
    }
    let Some(body) = frame.get("chunk") else {
        return Outcome::Control(frame);
    };
    let Some(rows) = body.as_arr() else {
        return Outcome::BadChunk;
    };
    let mut out = Vec::new();
    for row in rows {
        let Some(cells) = row.as_arr().filter(|cells| cells.len() == types.len()) else {
            return Outcome::BadChunk;
        };
        let decoded = cells
            .iter()
            .zip(types)
            .map(|(cell, ty)| datum_from_json(*ty, cell))
            .collect();
        match decoded {
            Ok(decoded) => out.push(decoded),
            Err(_) => return Outcome::BadChunk,
        }
    }
    Outcome::Rows(out)
}

fn typed(text: &str, types: &[DataType]) -> Outcome {
    // Rows already gathered survive any frame, and only a chunk adds any.
    let earlier = vec![vec![Datum::str("earlier")]];
    let mut out = earlier.clone();
    let outcome = match decode_stream_frame(text, types, &mut out) {
        Err(_) => Outcome::NotJson,
        Ok(StreamFrame::Chunk) => return Outcome::Rows(out.split_off(1)),
        Ok(StreamFrame::BadChunk(_)) => Outcome::BadChunk,
        Ok(StreamFrame::Control(frame)) => Outcome::Control(frame),
    };
    assert_eq!(out, earlier, "a non-chunk frame changed the output: {text}");
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn chunk_encoder_writes_the_tree_bytes(seed in any::<u64>()) {
        let mut rng = TestRng::for_case(seed);
        let (chunk, range) = chunk_and_range(&mut rng);
        let frame = tree(&chunk, range.clone());
        let expected = formatted(&frame);
        prop_assert_eq!(&frame.to_string(), &expected);
        // The encoder appends: what the buffer already holds stays.
        let mut direct = String::from("queued\n");
        encode_chunk_frame(&chunk, range, &mut direct);
        prop_assert_eq!(direct, format!("queued\n{expected}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn typed_decoder_agrees_with_the_tree_decoder(seed in any::<u64>()) {
        let mut rng = TestRng::for_case(seed);
        let (chunk, range) = chunk_and_range(&mut rng);
        let mut header: Vec<_> = chunk.columns().iter().map(|c| c.data_type()).collect();
        let retyped = !header.is_empty() && rng.below(4) == 0;
        if retyped {
            let c = rng.below(header.len() as u64) as usize;
            header[c] = pick(&mut rng, &TYPES);
        }
        let mut frame = tree(&chunk, range.clone());
        let edited = rng.below(2) == 0;
        if edited {
            mutate_tree(&mut rng, &mut frame);
        }
        let mut text = String::new();
        if rng.below(3) == 0 {
            spaced(&mut rng, &frame, &mut text);
        } else {
            frame.write_to(&mut text);
        }
        let damaged = rng.below(4) == 0;
        if damaged {
            mutate_bytes(&mut rng, &mut text);
        }
        let outcome = typed(&text, &header);
        prop_assert_eq!(&outcome, &reference(&text, &header), "frame {}", text);
        if !(retyped || edited || damaged) {
            // An intact frame gives back the chunk's rows; non-finite
            // floats travel as null.
            let rows = range
                .map(|i| {
                    let row = chunk.row(i).into_iter();
                    row.map(|d| match d {
                        Datum::Float(f) if !f.is_finite() => Datum::Null,
                        d => d,
                    })
                    .collect()
                })
                .collect();
            prop_assert_eq!(outcome, Outcome::Rows(rows), "frame {}", text);
        }
    }
}

#[test]
fn chunk_members_decode_in_any_spelling() {
    let types = [DataType::Int64, DataType::Utf8];
    let row = vec![Datum::Int(1), Datum::str("é\"")];
    for text in [
        r#"{"chunk":[[1,"é\""]]}"#,
        " { \"chunk\" :\t[ [ 1 , \"\\u00e9\\\"\" ] ] } ",
        r#"{"chunk":[[1,"é\""]],"x":null}"#,
        r#"{"x":[],"chunk":[[1,"é\""]],"chunk":5}"#,
    ] {
        assert_eq!(
            typed(text, &types),
            Outcome::Rows(vec![row.clone()]),
            "{text}"
        );
        assert_eq!(typed(text, &types), reference(text, &types), "{text}");
    }
    for text in [
        r#"{"chunk":[[1,"x"]],"done":{"rows":1}}"#,
        r#"{"error":{"code":"c"},"chunk":[[1,"x"]]}"#,
        r#"{"chunk":[[1.0,"x"]],"done":{"rows":1}}"#,
    ] {
        assert!(matches!(typed(text, &types), Outcome::Control(_)), "{text}");
        assert_eq!(typed(text, &types), reference(text, &types), "{text}");
    }
}
