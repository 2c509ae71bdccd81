//! Wire protocol: JSON-line control frames and binary result chunks.
//!
//! Requests and every frame but result rows are one JSON object on one
//! line (`\n`-terminated); neither side ever sends a literal newline
//! inside such a frame. The server speaks first with a [`Hello`] frame,
//! then the client sends [`Request`]s and reads one *response sequence*
//! per request:
//!
//! * most commands answer with a single `{"ok":{...}}` or
//!   `{"error":{"code","message"}}` frame;
//! * `query` / `execute` stream: one `{"rows":{"columns","types"}}` header,
//!   zero or more binary chunk frames, then `{"done":{"rows":N}}` — or an
//!   `{"error":...}` frame at any point, which terminates the sequence
//!   (results are never resumed after an error);
//! * `metrics` answers `{"metrics":{"text":"..."}}`.
//!
//! A reader tells the two kinds apart by their first byte: a JSON frame
//! starts with `{`, a chunk frame with [`CHUNK_TAG`], a byte that never
//! occurs in UTF-8 text. A chunk frame outside a rows sequence is a
//! protocol error.
//!
//! The server writes a response into one per-session buffer and sends it
//! at the end of every response sequence, and mid-sequence whenever the
//! buffer reaches 64 KiB: a short response is one socket write, and a long
//! result still streams under TCP backpressure.
//!
//! ## Chunk frames
//!
//! A chunk frame carries at most [`WIRE_CHUNK_ROWS`] rows, column by
//! column in the header's order. All integers are little-endian.
//!
//! ```text
//! frame   = tag:u8 (0xC1)  len:u32  payload[len]     len <= MAX_CHUNK_PAYLOAD
//! payload = rows:u32  column*                         one per header column
//! column  = 0x00 values                               no NULLs
//!         | 0x01 bitmap[ceil(rows/8)] values          bit i (LSB first) set = row i valid
//! values  = int64:   rows x i64
//!         | float64: rows x f64 bit pattern
//!         | date:    rows x i32
//!         | bool:    rows x u8 (0 or 1)
//!         | utf8:    rows x u32 end offset, then the bytes up to the last end
//! ```
//!
//! A NULL row still has a value slot, whose content is ignored. The
//! client checks every count, flag, offset and byte against the payload
//! before using it ([`decode_chunk`]).
//!
//! ## Commands
//!
//! | request                                            | response |
//! |----------------------------------------------------|----------|
//! | `{"cmd":"query","sql":S}`                          | rows / ok (for `SET ...`) |
//! | `{"cmd":"prepare","name":N,"sql":S}`               | `ok{name,params,columns}` |
//! | `{"cmd":"execute","name":N,"params":[...]}`        | rows |
//! | `{"cmd":"close","name":N}`                         | ok |
//! | `{"cmd":"set","key":K,"value":V}`                  | ok |
//! | `{"cmd":"cancel","conn_id":I,"secret":S}`          | `ok{cancelled:bool}` |
//! | `{"cmd":"metrics"}`                                | metrics |
//! | `{"cmd":"ping"}`                                   | ok |
//! | `{"cmd":"quit"}`                                   | ok, then close |
//!
//! ## Values
//!
//! Result cells are typed by the header's `types` array (`int64`,
//! `float64`, `utf8`, `bool`, `date`) and travel in chunk frames as above:
//! dates as days since 1970-01-01, floats bit-exact (NaN, ±inf and −0.0
//! arrive as themselves), NULL in the column's bitmap. `execute` params
//! are JSON and carry their own types structurally: integers and floats as
//! JSON numbers, strings as strings, NULL as `null`, and a `{"date":D}`
//! object spells a date parameter (plain numbers bind as int64). JSON has
//! no NaN or infinity, so a non-finite float parameter travels as `null`.
//!
//! ## Errors
//!
//! `code` is the engine's [`BfqError::kind`] (`parse`, `bind`, `catalog`,
//! `plan`, `execution`, `type`, `invalid`, `cancelled`, `internal`) plus
//! two server-side codes: `server_busy` (admission queue full — sent in
//! place of the hello, then the connection closes) and `protocol`
//! (malformed frame).

use std::ops::Range;

use bfq::prelude::{BfqError, DataType, Datum};
use bfq_storage::{Chunk, Column};

use crate::json::Json;

/// Protocol version in the hello frame. Bump on incompatible changes.
pub const PROTOCOL_VERSION: i64 = 2;

/// Error code for a connection rejected by admission control.
pub const CODE_SERVER_BUSY: &str = "server_busy";
/// Error code for malformed frames (bad JSON, unknown command, bad field).
pub const CODE_PROTOCOL: &str = "protocol";

/// Rows per chunk frame: engine chunks larger than this are split so no
/// single frame grows unboundedly.
pub const WIRE_CHUNK_ROWS: usize = 4096;

/// The server's opening frame: identifies the session and hands the client
/// the out-of-band cancellation credentials (PostgreSQL-style: any
/// connection may cancel session `conn_id` by presenting the `secret`).
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// Server-assigned session id.
    pub conn_id: u64,
    /// Per-session cancellation secret.
    pub secret: u64,
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub version: i64,
}

impl Hello {
    /// Render as a wire frame (no trailing newline).
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "hello",
            Json::obj([
                ("conn_id", Json::Int(self.conn_id as i64)),
                ("secret", Json::Int(self.secret as i64)),
                ("version", Json::Int(self.version)),
            ]),
        )])
    }

    /// Parse from a received frame.
    pub fn from_json(v: &Json) -> Result<Hello, String> {
        let h = v.get("hello").ok_or("expected hello frame")?;
        Ok(Hello {
            conn_id: h
                .get("conn_id")
                .and_then(Json::as_i64)
                .ok_or("hello missing conn_id")? as u64,
            secret: h
                .get("secret")
                .and_then(Json::as_i64)
                .ok_or("hello missing secret")? as u64,
            version: h
                .get("version")
                .and_then(Json::as_i64)
                .ok_or("hello missing version")?,
        })
    }
}

/// A client request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a statement (`SELECT ...`, `EXPLAIN ...`, or `SET ...`).
    Query { sql: String },
    /// Prepare a named server-side statement.
    Prepare { name: String, sql: String },
    /// Execute a prepared statement with parameter values.
    Execute { name: String, params: Vec<Datum> },
    /// Close (forget) a prepared statement.
    Close { name: String },
    /// Set a session option.
    Set { key: String, value: String },
    /// Cancel the in-flight query of session `conn_id` (out-of-band).
    Cancel { conn_id: u64, secret: u64 },
    /// Fetch engine + server metrics in Prometheus text format.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Orderly goodbye; the server acknowledges and closes.
    Quit,
}

impl Request {
    /// Render as a wire frame.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Query { sql } => Json::obj([
                ("cmd", Json::Str("query".into())),
                ("sql", Json::Str(sql.clone())),
            ]),
            Request::Prepare { name, sql } => Json::obj([
                ("cmd", Json::Str("prepare".into())),
                ("name", Json::Str(name.clone())),
                ("sql", Json::Str(sql.clone())),
            ]),
            Request::Execute { name, params } => Json::obj([
                ("cmd", Json::Str("execute".into())),
                ("name", Json::Str(name.clone())),
                (
                    "params",
                    Json::Arr(params.iter().map(param_to_json).collect()),
                ),
            ]),
            Request::Close { name } => Json::obj([
                ("cmd", Json::Str("close".into())),
                ("name", Json::Str(name.clone())),
            ]),
            Request::Set { key, value } => Json::obj([
                ("cmd", Json::Str("set".into())),
                ("key", Json::Str(key.clone())),
                ("value", Json::Str(value.clone())),
            ]),
            Request::Cancel { conn_id, secret } => Json::obj([
                ("cmd", Json::Str("cancel".into())),
                ("conn_id", Json::Int(*conn_id as i64)),
                ("secret", Json::Int(*secret as i64)),
            ]),
            Request::Metrics => Json::obj([("cmd", Json::Str("metrics".into()))]),
            Request::Ping => Json::obj([("cmd", Json::Str("ping".into()))]),
            Request::Quit => Json::obj([("cmd", Json::Str("quit".into()))]),
        }
    }

    /// Parse a request frame. Errors are protocol errors.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("frame missing string `cmd`")?;
        let text = |field: &str| -> Result<String, String> {
            v.get(field)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("`{cmd}` missing string `{field}`"))
        };
        match cmd {
            "query" => Ok(Request::Query { sql: text("sql")? }),
            "prepare" => Ok(Request::Prepare {
                name: text("name")?,
                sql: text("sql")?,
            }),
            "execute" => {
                let params = v
                    .get("params")
                    .and_then(Json::as_arr)
                    .ok_or("`execute` missing array `params`")?
                    .iter()
                    .map(param_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Execute {
                    name: text("name")?,
                    params,
                })
            }
            "close" => Ok(Request::Close {
                name: text("name")?,
            }),
            "set" => Ok(Request::Set {
                key: text("key")?,
                value: text("value")?,
            }),
            "cancel" => {
                let int = |field: &str| -> Result<u64, String> {
                    v.get(field)
                        .and_then(Json::as_i64)
                        .map(|n| n as u64)
                        .ok_or(format!("`cancel` missing integer `{field}`"))
                };
                Ok(Request::Cancel {
                    conn_id: int("conn_id")?,
                    secret: int("secret")?,
                })
            }
            "metrics" => Ok(Request::Metrics),
            "ping" => Ok(Request::Ping),
            "quit" => Ok(Request::Quit),
            other => Err(format!("unknown command `{other}`")),
        }
    }
}

/// Spell a parameter value structurally (no column type available):
/// `{"date":D}` distinguishes dates from plain int64s.
pub fn param_to_json(d: &Datum) -> Json {
    match d {
        Datum::Null => Json::Null,
        Datum::Int(v) => Json::Int(*v),
        Datum::Float(v) => Json::Float(*v),
        Datum::Str(s) => Json::Str(s.to_string()),
        Datum::Bool(b) => Json::Bool(*b),
        Datum::Date(d) => Json::obj([("date", Json::Int(*d as i64))]),
    }
}

/// Inverse of [`param_to_json`].
pub fn param_from_json(v: &Json) -> Result<Datum, String> {
    match v {
        Json::Null => Ok(Datum::Null),
        Json::Int(n) => Ok(Datum::Int(*n)),
        Json::Float(f) => Ok(Datum::Float(*f)),
        Json::Str(s) => Ok(Datum::str(s.as_str())),
        Json::Bool(b) => Ok(Datum::Bool(*b)),
        Json::Obj(_) => {
            let days = v
                .get("date")
                .and_then(Json::as_i64)
                .ok_or("object parameter must be {\"date\": days}")?;
            i32::try_from(days)
                .map(Datum::Date)
                .map_err(|_| "date parameter out of range".to_string())
        }
        Json::Arr(_) => Err("array is not a valid parameter".into()),
    }
}

/// A value as a JSON tree, dates as bare day numbers: the column type
/// disambiguates on the way back ([`datum_from_json`]). Result rows travel
/// in binary chunk frames ([`encode_chunk`]); this is for callers that
/// want cells as JSON.
pub fn datum_to_json(d: &Datum) -> Json {
    match d {
        Datum::Null => Json::Null,
        Datum::Int(v) => Json::Int(*v),
        Datum::Float(v) => Json::Float(*v),
        Datum::Str(s) => Json::Str(s.to_string()),
        Datum::Bool(b) => Json::Bool(*b),
        Datum::Date(d) => Json::Int(*d as i64),
    }
}

/// Decode one [`datum_to_json`] value by its column type.
pub fn datum_from_json(ty: DataType, v: &Json) -> Result<Datum, String> {
    if matches!(v, Json::Null) {
        return Ok(Datum::Null);
    }
    let datum = match ty {
        DataType::Int64 => v.as_i64().map(Datum::Int),
        DataType::Float64 => v.as_f64().map(Datum::Float),
        DataType::Utf8 => v.as_str().map(Datum::str),
        DataType::Bool => v.as_bool().map(Datum::Bool),
        DataType::Date => v
            .as_i64()
            .and_then(|n| i32::try_from(n).ok())
            .map(Datum::Date),
    };
    datum.ok_or_else(|| expected(ty))
}

/// The error for a cell that does not decode as `ty`.
fn expected(ty: DataType) -> String {
    match ty {
        DataType::Int64 => "expected int64",
        DataType::Float64 => "expected float64",
        DataType::Utf8 => "expected string",
        DataType::Bool => "expected bool",
        DataType::Date => "expected date day-count",
    }
    .into()
}

/// First byte of a binary chunk frame. It never occurs in UTF-8 text, so no
/// JSON frame starts with it.
pub const CHUNK_TAG: u8 = 0xC1;
/// Bytes before a chunk frame's payload: [`CHUNK_TAG`] and the payload
/// length as a `u32` LE.
pub const CHUNK_HEADER_BYTES: usize = 5;
/// Largest chunk payload either side accepts, in bytes.
pub const MAX_CHUNK_PAYLOAD: usize = 1 << 30;

/// Append the binary chunk frame for `rows` of `chunk` to `out`: the tag,
/// the payload length, then the payload laid out as the module docs say.
/// `Err`, with `out` as it was, when the payload would exceed
/// [`MAX_CHUNK_PAYLOAD`].
///
/// # Panics
///
/// If `rows` reaches past the end of the chunk or spans more than
/// [`WIRE_CHUNK_ROWS`] rows.
pub fn encode_chunk(chunk: &Chunk, rows: Range<usize>, out: &mut Vec<u8>) -> Result<(), String> {
    assert!(
        rows.len() <= WIRE_CHUNK_ROWS,
        "a chunk frame carries at most {WIRE_CHUNK_ROWS} rows"
    );
    let start = out.len();
    out.push(CHUNK_TAG);
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&wire_u32(rows.len()).to_le_bytes());
    for column in chunk.columns() {
        encode_column(column, rows.clone(), out).inspect_err(|_| out.truncate(start))?;
    }
    let payload = out.len() - start - CHUNK_HEADER_BYTES;
    if payload > MAX_CHUNK_PAYLOAD {
        out.truncate(start);
        return Err(too_large(payload));
    }
    out[start + 1..start + CHUNK_HEADER_BYTES].copy_from_slice(&wire_u32(payload).to_le_bytes());
    Ok(())
}

/// One column's null flag, bitmap and values.
fn encode_column(column: &Column, rows: Range<usize>, out: &mut Vec<u8>) -> Result<(), String> {
    match column.validity() {
        None => out.push(0),
        Some(valid) => {
            out.push(1);
            let bitmap = out.len();
            out.resize(bitmap + rows.len().div_ceil(8), 0);
            for (k, i) in rows.clone().enumerate() {
                out[bitmap + k / 8] |= u8::from(valid.get(i)) << (k % 8);
            }
        }
    }
    match column {
        Column::Int64(v, _) => v[rows]
            .iter()
            .for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
        Column::Float64(v, _) => v[rows]
            .iter()
            .for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
        Column::Date(v, _) => v[rows]
            .iter()
            .for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
        Column::Bool(v, _) => out.extend(v[rows].iter().map(|&b| u8::from(b))),
        Column::Utf8(v, _) => {
            let mut end = 0;
            for i in rows.clone() {
                end += v.get(i).len();
                if end > MAX_CHUNK_PAYLOAD {
                    return Err(too_large(end));
                }
                out.extend_from_slice(&wire_u32(end).to_le_bytes());
            }
            for i in rows {
                out.extend_from_slice(v.get(i).as_bytes());
            }
        }
    }
    Ok(())
}

/// A count the caller has bounded by [`MAX_CHUNK_PAYLOAD`], as a `u32`.
fn wire_u32(n: usize) -> u32 {
    u32::try_from(n).expect("counts on the wire are bounded by MAX_CHUNK_PAYLOAD")
}

fn too_large(bytes: usize) -> String {
    format!("chunk payload of {bytes} bytes exceeds the {MAX_CHUNK_PAYLOAD}-byte cap")
}

/// The payload length a chunk frame's header announces. `Err` when the
/// header does not start with [`CHUNK_TAG`] or the length exceeds
/// [`MAX_CHUNK_PAYLOAD`].
pub fn chunk_payload_len(header: &[u8; CHUNK_HEADER_BYTES]) -> Result<usize, String> {
    let [tag, len @ ..] = *header;
    if tag != CHUNK_TAG {
        return Err(format!(
            "expected chunk tag 0x{CHUNK_TAG:02X}, got 0x{tag:02X}"
        ));
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_CHUNK_PAYLOAD {
        return Err(too_large(len));
    }
    Ok(len)
}

/// Decode one chunk payload by the header's column `types`, appending its
/// rows to `out`. Every count, flag, offset and byte is checked against
/// the payload before it is used, and rows are allocated only once the
/// payload is long enough to hold them. On `Err`, `out` is as it was.
pub fn decode_chunk(
    payload: &[u8],
    types: &[DataType],
    out: &mut Vec<Vec<Datum>>,
) -> Result<(), String> {
    let before = out.len();
    decode_columns(payload, types, out, before).inspect_err(|_| out.truncate(before))
}

fn decode_columns(
    mut rest: &[u8],
    types: &[DataType],
    out: &mut Vec<Vec<Datum>>,
    before: usize,
) -> Result<(), String> {
    let n = take(&mut rest, 4)?;
    let n = u32::from_le_bytes(n.try_into().expect("4-byte row count")) as usize;
    if n > WIRE_CHUNK_ROWS {
        return Err(format!(
            "chunk of {n} rows exceeds the {WIRE_CHUNK_ROWS}-row limit"
        ));
    }
    // Each column needs at least its flag and `n` fixed-width values.
    let least = types.iter().fold(0usize, |sum, &ty| {
        sum.saturating_add(1 + n * value_width(ty))
    });
    if rest.len() < least {
        return Err(format!(
            "chunk payload too short for {n} rows of {} columns",
            types.len()
        ));
    }
    out.extend((0..n).map(|_| Vec::with_capacity(types.len())));
    let rows = &mut out[before..];
    for &ty in types {
        let valid = match take(&mut rest, 1)?[0] {
            0 => None,
            1 => Some(take(&mut rest, n.div_ceil(8))?),
            flag => return Err(format!("bad null flag {flag}")),
        };
        let is_valid = |i: usize| valid.is_none_or(|v| v[i / 8] >> (i % 8) & 1 == 1);
        let values = take(&mut rest, n * value_width(ty))?;
        match ty {
            DataType::Int64 => push_fixed(rows, values, is_valid, |b| {
                Some(Datum::Int(i64::from_le_bytes(b)))
            })?,
            DataType::Float64 => push_fixed(rows, values, is_valid, |b| {
                Some(Datum::Float(f64::from_le_bytes(b)))
            })?,
            DataType::Date => push_fixed(rows, values, is_valid, |b| {
                Some(Datum::Date(i32::from_le_bytes(b)))
            })?,
            DataType::Bool => push_fixed(rows, values, is_valid, |[b]: [u8; 1]| match b {
                0 | 1 => Some(Datum::Bool(b == 1)),
                _ => None,
            })?,
            DataType::Utf8 => {
                let end_of = |i: usize| {
                    let b = values[4 * i..4 * i + 4].try_into().expect("4-byte offset");
                    u32::from_le_bytes(b) as usize
                };
                let len = if n == 0 { 0 } else { end_of(n - 1) };
                let text = std::str::from_utf8(take(&mut rest, len)?)
                    .map_err(|e| format!("utf8 column is not UTF-8: {e}"))?;
                let mut start = 0;
                for (i, row) in rows.iter_mut().enumerate() {
                    let end = end_of(i);
                    // `get` refuses an end before the start, past the text
                    // or inside a character.
                    let s = text
                        .get(start..end)
                        .ok_or_else(|| format!("bad utf8 offset {end} after {start}"))?;
                    row.push(if is_valid(i) {
                        Datum::str(s)
                    } else {
                        Datum::Null
                    });
                    start = end;
                }
            }
        }
    }
    if !rest.is_empty() {
        return Err(format!("{} bytes left over after the chunk", rest.len()));
    }
    Ok(())
}

/// Bytes per value: `utf8` counts its end offset.
fn value_width(ty: DataType) -> usize {
    match ty {
        DataType::Int64 | DataType::Float64 => 8,
        DataType::Date | DataType::Utf8 => 4,
        DataType::Bool => 1,
    }
}

/// The next `len` bytes of `rest`.
fn take<'a>(rest: &mut &'a [u8], len: usize) -> Result<&'a [u8], String> {
    let (head, tail) = rest
        .split_at_checked(len)
        .ok_or_else(|| format!("chunk payload ends {} bytes early", len - rest.len()))?;
    *rest = tail;
    Ok(head)
}

/// Append one cell per row from `W`-byte values; `datum` refuses a value
/// with `None`.
fn push_fixed<const W: usize>(
    rows: &mut [Vec<Datum>],
    values: &[u8],
    is_valid: impl Fn(usize) -> bool,
    datum: impl Fn([u8; W]) -> Option<Datum>,
) -> Result<(), String> {
    for (i, (row, value)) in rows.iter_mut().zip(values.chunks_exact(W)).enumerate() {
        let value = value.try_into().expect("chunks_exact yields W bytes");
        let d = datum(value).ok_or_else(|| format!("bad value byte in row {i}"))?;
        row.push(if is_valid(i) { d } else { Datum::Null });
    }
    Ok(())
}

/// The wire name of a column type.
pub fn type_name(ty: DataType) -> &'static str {
    match ty {
        DataType::Int64 => "int64",
        DataType::Float64 => "float64",
        DataType::Utf8 => "utf8",
        DataType::Bool => "bool",
        DataType::Date => "date",
    }
}

/// Parse a wire type name.
pub fn type_from_name(name: &str) -> Result<DataType, String> {
    match name {
        "int64" => Ok(DataType::Int64),
        "float64" => Ok(DataType::Float64),
        "utf8" => Ok(DataType::Utf8),
        "bool" => Ok(DataType::Bool),
        "date" => Ok(DataType::Date),
        other => Err(format!("unknown type `{other}`")),
    }
}

/// Build an error frame from an engine error.
pub fn error_frame(err: &BfqError) -> Json {
    // `code` already carries the kind, so the message goes bare (no
    // "kind error:" prefix as in the Display impl).
    error_frame_parts(err.kind(), err.message())
}

/// Build an error frame from explicit code + message.
pub fn error_frame_parts(code: &str, message: &str) -> Json {
    Json::obj([(
        "error",
        Json::obj([
            ("code", Json::Str(code.into())),
            ("message", Json::Str(message.into())),
        ]),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let cases = [
            Request::Query {
                sql: "select 1".into(),
            },
            Request::Prepare {
                name: "s1".into(),
                sql: "select * from t where k = ?".into(),
            },
            Request::Execute {
                name: "s1".into(),
                params: vec![
                    Datum::Int(7),
                    Datum::Float(0.5),
                    Datum::str("x"),
                    Datum::Bool(true),
                    Datum::Date(9131),
                    Datum::Null,
                ],
            },
            Request::Close { name: "s1".into() },
            Request::Set {
                key: "dop".into(),
                value: "8".into(),
            },
            Request::Cancel {
                conn_id: 3,
                secret: 0xDEAD_BEEF,
            },
            Request::Metrics,
            Request::Ping,
            Request::Quit,
        ];
        for req in cases {
            let line = req.to_json().to_string();
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            let back = Request::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, req, "frame `{line}`");
        }
    }

    #[test]
    fn hello_roundtrips() {
        let hello = Hello {
            conn_id: 42,
            secret: 0x1234_5678_9ABC,
            version: PROTOCOL_VERSION,
        };
        let back = Hello::from_json(&Json::parse(&hello.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, hello);
    }

    #[test]
    fn datums_roundtrip_by_type() {
        let cases = [
            (DataType::Int64, Datum::Int(-5)),
            (DataType::Float64, Datum::Float(2.5)),
            (DataType::Float64, Datum::Float(3.0)), // integral float survives
            (DataType::Utf8, Datum::str("héllo")),
            (DataType::Bool, Datum::Bool(false)),
            (DataType::Date, Datum::Date(-1)),
            (DataType::Int64, Datum::Null),
        ];
        for (ty, d) in cases {
            let encoded = datum_to_json(&d).to_string();
            let back = datum_from_json(ty, &Json::parse(&encoded).unwrap()).unwrap();
            assert_eq!(back, d, "type {ty:?} value {encoded}");
        }
        // Ints widen to float when the column says float64 (a whole-valued
        // float serialized by a foreign client as `3` still decodes).
        let widened = datum_from_json(DataType::Float64, &Json::Int(3)).unwrap();
        assert_eq!(widened, Datum::Float(3.0));
    }

    #[test]
    fn type_names_roundtrip() {
        for ty in [
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
            DataType::Bool,
            DataType::Date,
        ] {
            assert_eq!(type_from_name(type_name(ty)).unwrap(), ty);
        }
        assert!(type_from_name("decimal").is_err());
    }

    #[test]
    fn bad_frames_are_rejected() {
        for bad in [
            r#"{"sql":"select 1"}"#,
            r#"{"cmd":"nope"}"#,
            r#"{"cmd":"prepare","name":"s"}"#,
            r#"{"cmd":"execute","name":"s"}"#,
            r#"{"cmd":"cancel","conn_id":1}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(Request::from_json(&v).is_err(), "accepted `{bad}`");
        }
    }
}
