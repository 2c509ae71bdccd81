//! Wire protocol: newline-delimited JSON frames.
//!
//! Every frame is one JSON object on one line (`\n`-terminated); neither
//! side ever sends a literal newline inside a frame. The server speaks
//! first with a [`Hello`] frame, then the client sends [`Request`]s and
//! reads one *response sequence* per request:
//!
//! * most commands answer with a single `{"ok":{...}}` or
//!   `{"error":{"code","message"}}` frame;
//! * `query` / `execute` stream: one `{"rows":{"columns","types"}}` header,
//!   zero or more `{"chunk":[[row],...]}` frames, then `{"done":{"rows":N}}`
//!   — or an `{"error":...}` frame at any point, which terminates the
//!   sequence (results are never resumed after an error);
//! * `metrics` answers `{"metrics":{"text":"..."}}`.
//!
//! A `chunk` frame carries at most [`WIRE_CHUNK_ROWS`] rows. The server
//! writes a response into one per-session buffer and sends it at the end
//! of every response sequence, and mid-sequence whenever the buffer
//! reaches 64 KiB: a short response is one socket write, and a long
//! result still streams under TCP backpressure.
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
//! Datums are typed by the header's `types` array (`int64`, `float64`,
//! `utf8`, `bool`, `date`): integers and dates travel as JSON numbers
//! (dates as days since 1970-01-01), floats as shortest-roundtrip JSON
//! numbers, strings as strings, NULL as `null`. `execute` params carry
//! their own types structurally; a `{"date":D}` object spells a date
//! parameter (plain numbers bind as int64).
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

use crate::json::{write_escaped, write_f64, write_i64, Json, Number, Parser};

/// Protocol version in the hello frame. Bump on incompatible changes.
pub const PROTOCOL_VERSION: i64 = 1;

/// Error code for a connection rejected by admission control.
pub const CODE_SERVER_BUSY: &str = "server_busy";
/// Error code for malformed frames (bad JSON, unknown command, bad field).
pub const CODE_PROTOCOL: &str = "protocol";

/// Rows per `chunk` frame: engine chunks larger than this are split so no
/// single response line grows unboundedly.
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

/// Encode one result cell. The column type disambiguates on the way back
/// ([`datum_from_json`]), so dates travel as bare day numbers here.
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

/// Decode one result cell using the column type from the rows header.
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

/// Append the frame `{"chunk":[[row],...]}` for `rows` of `chunk` to `out`,
/// with no trailing newline. The bytes are those of the [`Json`] tree built
/// from [`datum_to_json`] of each cell, written straight from the columns.
///
/// # Panics
///
/// If `rows` reaches past the end of the chunk.
pub fn encode_chunk_frame(chunk: &Chunk, rows: Range<usize>, out: &mut String) {
    let columns: Vec<_> = chunk
        .columns()
        .iter()
        .map(|c| (c.as_ref(), c.validity()))
        .collect();
    out.push_str("{\"chunk\":[");
    for i in rows.clone() {
        if i > rows.start {
            out.push(',');
        }
        out.push('[');
        for (j, &(column, validity)) in columns.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            if validity.is_some_and(|v| !v.get(i)) {
                out.push_str("null");
                continue;
            }
            match column {
                Column::Int64(v, _) => write_i64(out, v[i]),
                Column::Float64(v, _) => write_f64(out, v[i]),
                Column::Utf8(v, _) => write_escaped(out, v.get(i)),
                Column::Bool(v, _) => out.push_str(if v[i] { "true" } else { "false" }),
                Column::Date(v, _) => write_i64(out, i64::from(v[i])),
            }
        }
        out.push(']');
    }
    out.push_str("]}");
}

/// A frame read while a result stream is open, as [`decode_stream_frame`]
/// classifies it.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamFrame {
    /// A `chunk` frame: its rows were appended to the output.
    Chunk,
    /// A `chunk` frame whose body does not fit the header: not an array of
    /// rows, a row of the wrong width, or a cell of the wrong type.
    BadChunk(String),
    /// Any other frame (`done`, `error`, or one that does not belong in a
    /// stream), as a tree.
    Control(Json),
}

/// Decode one frame of an open result stream by the header's column
/// `types`. A `chunk` frame's rows are parsed straight into [`Datum`]s and
/// appended to `out`, with no [`Json`] node in between; every other frame
/// comes back as a tree. Decides exactly as [`Json::parse`] followed by
/// [`datum_from_json`] on each cell: an object with an `error` or `done`
/// member is a control frame, otherwise its first `chunk` member is the
/// body. `Err` means the text is not one JSON document; `out` is left as
/// it was unless the result is [`StreamFrame::Chunk`].
pub fn decode_stream_frame(
    text: &str,
    types: &[DataType],
    out: &mut Vec<Vec<Datum>>,
) -> Result<StreamFrame, String> {
    let before = out.len();
    let frame = stream_frame(text, types, out);
    if !matches!(frame, Ok(StreamFrame::Chunk)) {
        out.truncate(before);
    }
    frame
}

fn stream_frame(
    text: &str,
    types: &[DataType],
    out: &mut Vec<Vec<Datum>>,
) -> Result<StreamFrame, String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    if p.peek() != Some(b'{') {
        let frame = p.value(0)?;
        p.end()?;
        return Ok(StreamFrame::Control(frame));
    }
    let mut fields = Vec::new();
    let mut body = None;
    p.members(|p, key| {
        if key == "chunk" && body.is_none() {
            let start = p.pos();
            body = Some(match chunk_body(p, types, out) {
                Ok(()) => Ok(()),
                Err(BodyError::Syntax(e)) => return Err(e),
                Err(BodyError::Mismatch(e)) => {
                    // Parse the body again as a tree: a syntax error
                    // anywhere in it still makes the frame unreadable.
                    p.seek(start);
                    p.value(1)?;
                    Err(e)
                }
            });
        } else {
            fields.push((key, p.value(1)?));
        }
        Ok(())
    })?;
    p.end()?;
    let control = fields.iter().any(|(k, _)| k == "error" || k == "done");
    match body {
        Some(Ok(())) if !control => Ok(StreamFrame::Chunk),
        Some(Err(e)) if !control => Ok(StreamFrame::BadChunk(e)),
        // A control frame that also carries a `chunk` member: rare enough
        // to read again as a whole tree.
        Some(_) => Json::parse(text).map(StreamFrame::Control),
        None => Ok(StreamFrame::Control(Json::Obj(fields))),
    }
}

/// Why a `chunk` body stopped decoding.
enum BodyError {
    /// The text is not JSON.
    Syntax(String),
    /// Valid JSON so far, but not rows of the header's types.
    Mismatch(String),
}

impl From<String> for BodyError {
    fn from(e: String) -> BodyError {
        BodyError::Syntax(e)
    }
}

/// Pull the rows of a `chunk` body into `out`.
fn chunk_body(
    p: &mut Parser<'_>,
    types: &[DataType],
    out: &mut Vec<Vec<Datum>>,
) -> Result<(), BodyError> {
    if p.peek() != Some(b'[') {
        return Err(BodyError::Mismatch(
            "expected chunk frame: `chunk` is not an array".into(),
        ));
    }
    let mut text = String::new();
    p.elements(|p| {
        if p.peek() != Some(b'[') {
            return Err(BodyError::Mismatch("chunk row must be an array".into()));
        }
        let mut row = Vec::with_capacity(types.len());
        p.elements(|p| {
            let Some(&ty) = types.get(row.len()) else {
                return Err(BodyError::Mismatch(format!(
                    "row wider than header width {}",
                    types.len()
                )));
            };
            row.push(cell(p, ty, &mut text)?);
            Ok(())
        })?;
        if row.len() != types.len() {
            return Err(BodyError::Mismatch(format!(
                "row width {} does not match header width {}",
                row.len(),
                types.len()
            )));
        }
        out.push(row);
        Ok(())
    })
}

/// One cell of type `ty`; `text` is scratch space for strings.
fn cell(p: &mut Parser<'_>, ty: DataType, text: &mut String) -> Result<Datum, BodyError> {
    let mismatch = || BodyError::Mismatch(expected(ty));
    match (p.peek(), ty) {
        (Some(b'n'), _) => {
            p.eat_lit("null")?;
            Ok(Datum::Null)
        }
        (Some(b'-' | b'0'..=b'9'), DataType::Int64 | DataType::Float64 | DataType::Date) => {
            match (p.number()?, ty) {
                (Number::Int(v), DataType::Int64) => Ok(Datum::Int(v)),
                (Number::Int(v), DataType::Float64) => Ok(Datum::Float(v as f64)),
                (Number::Float(v), DataType::Float64) => Ok(Datum::Float(v)),
                (Number::Int(v), DataType::Date) => {
                    i32::try_from(v).map(Datum::Date).map_err(|_| mismatch())
                }
                _ => Err(mismatch()),
            }
        }
        (Some(b'"'), DataType::Utf8) => {
            text.clear();
            p.string_into(text)?;
            Ok(Datum::str(text.as_str()))
        }
        (Some(b't'), DataType::Bool) => {
            p.eat_lit("true")?;
            Ok(Datum::Bool(true))
        }
        (Some(b'f'), DataType::Bool) => {
            p.eat_lit("false")?;
            Ok(Datum::Bool(false))
        }
        _ => Err(mismatch()),
    }
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
