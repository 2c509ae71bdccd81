//! A blocking client for the bfq wire protocol.
//!
//! Used by the integration tests and the `bench/e2e` benchmark; it is also
//! a reference implementation of the client side of the protocol. One
//! [`Client`] is one server session: requests go out one at a time and
//! responses are read synchronously.
//!
//! ```no_run
//! use bfq_server::Client;
//!
//! let mut client = Client::connect("127.0.0.1:4242").unwrap();
//! let rows = client.query("select count(*) from orders").unwrap();
//! println!("{:?}", rows.rows[0][0]);
//! ```

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use bfq::prelude::{DataType, Datum};

use crate::json::Json;
use crate::protocol::{
    chunk_payload_len, decode_chunk, type_from_name, Hello, Request, CHUNK_HEADER_BYTES, CHUNK_TAG,
    CODE_PROTOCOL, PROTOCOL_VERSION,
};

/// An error frame received from the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteError {
    /// Error code: the engine's error kind, or `server_busy` / `protocol`.
    pub code: String,
    /// Human-readable message.
    pub message: String,
}

/// Anything that can go wrong on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (server gone, connection reset, ...).
    Io(io::Error),
    /// The server sent something this client cannot parse.
    Protocol(String),
    /// The server answered with an error frame.
    Server(RemoteError),
}

impl ClientError {
    /// The server-side error, if that is what this is.
    pub fn remote(&self) -> Option<&RemoteError> {
        match self {
            ClientError::Server(e) => Some(e),
            _ => None,
        }
    }

    /// Whether this is a server error with the given code.
    pub fn is_code(&self, code: &str) -> bool {
        self.remote().is_some_and(|e| e.code == code)
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(e) => write!(f, "server error [{}]: {}", e.code, e.message),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Client-side result alias.
pub type ClientResult<T> = Result<T, ClientError>;

/// A gathered query result.
#[derive(Debug, Clone, PartialEq)]
pub struct RowSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output column types.
    pub types: Vec<DataType>,
    /// Row-major values.
    pub rows: Vec<Vec<Datum>>,
}

/// What `prepare` reported back.
#[derive(Debug, Clone, PartialEq)]
pub struct StatementInfo {
    /// The statement name as registered on the server.
    pub name: String,
    /// Number of `?` / `$n` parameters `execute` must supply.
    pub params: usize,
    /// Output column names.
    pub columns: Vec<String>,
}

/// A blocking connection to a bfq server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The frame being read; reused for every frame.
    line: Vec<u8>,
    hello: Hello,
}

impl Client {
    /// Connect and read the server's hello. A `server_busy` rejection
    /// surfaces as [`ClientError::Server`], a server speaking another
    /// protocol version as [`ClientError::Protocol`].
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        let frame = read_json_frame(&mut reader, &mut line)?;
        if let Some(err) = parse_error(&frame) {
            return Err(ClientError::Server(err));
        }
        let hello = Hello::from_json(&frame).map_err(ClientError::Protocol)?;
        if hello.version != PROTOCOL_VERSION {
            return Err(ClientError::Protocol(format!(
                "server speaks protocol version {}, this client speaks version {PROTOCOL_VERSION}",
                hello.version
            )));
        }
        Ok(Client {
            reader,
            writer,
            line,
            hello,
        })
    }

    /// This session's id (the target of out-of-band `cancel`).
    pub fn conn_id(&self) -> u64 {
        self.hello.conn_id
    }

    /// This session's cancellation secret.
    pub fn secret(&self) -> u64 {
        self.hello.secret
    }

    /// Run a statement and gather all rows. `SET ...` statements return an
    /// empty [`RowSet`].
    pub fn query(&mut self, sql: &str) -> ClientResult<RowSet> {
        self.send(&Request::Query { sql: sql.into() })?;
        self.read_rows_or_ok()
    }

    /// Run a statement, reading chunks incrementally through the returned
    /// stream. Dropping the stream early drains (discards) the remaining
    /// frames to keep the connection usable.
    pub fn query_stream(&mut self, sql: &str) -> ClientResult<RowStream<'_>> {
        self.send(&Request::Query { sql: sql.into() })?;
        self.read_stream_header()
    }

    /// Prepare a named server-side statement.
    pub fn prepare(&mut self, name: &str, sql: &str) -> ClientResult<StatementInfo> {
        self.send(&Request::Prepare {
            name: name.into(),
            sql: sql.into(),
        })?;
        let ok = self.read_ok()?;
        Ok(StatementInfo {
            name: ok
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or(name)
                .to_string(),
            params: ok.get("params").and_then(Json::as_i64).unwrap_or(0) as usize,
            columns: ok
                .get("columns")
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// Execute a prepared statement and gather all rows.
    pub fn execute(&mut self, name: &str, params: &[Datum]) -> ClientResult<RowSet> {
        self.send(&Request::Execute {
            name: name.into(),
            params: params.to_vec(),
        })?;
        self.read_rows_or_ok()
    }

    /// Execute a prepared statement, streaming chunks.
    pub fn execute_stream(&mut self, name: &str, params: &[Datum]) -> ClientResult<RowStream<'_>> {
        self.send(&Request::Execute {
            name: name.into(),
            params: params.to_vec(),
        })?;
        self.read_stream_header()
    }

    /// Close (forget) a prepared statement.
    pub fn close_statement(&mut self, name: &str) -> ClientResult<()> {
        self.send(&Request::Close { name: name.into() })?;
        self.read_ok().map(|_| ())
    }

    /// Set a session option (`SET key = value`).
    pub fn set(&mut self, key: &str, value: &str) -> ClientResult<()> {
        self.send(&Request::Set {
            key: key.into(),
            value: value.into(),
        })?;
        self.read_ok().map(|_| ())
    }

    /// Cancel the in-flight query of another session, identified by the
    /// `(conn_id, secret)` from its hello. Returns whether a query was
    /// actually interrupted (an idle or unknown target returns `false`).
    pub fn cancel(&mut self, conn_id: u64, secret: u64) -> ClientResult<bool> {
        self.send(&Request::Cancel { conn_id, secret })?;
        let ok = self.read_ok()?;
        Ok(ok.get("cancelled").and_then(Json::as_bool).unwrap_or(false))
    }

    /// Fetch engine + server metrics in Prometheus text format.
    pub fn metrics(&mut self) -> ClientResult<String> {
        self.send(&Request::Metrics)?;
        let frame = self.read_response_frame()?;
        frame
            .get("metrics")
            .and_then(|m| m.get("text"))
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("expected metrics frame".into()))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> ClientResult<()> {
        self.send(&Request::Ping)?;
        self.read_ok().map(|_| ())
    }

    /// Orderly goodbye: the server acknowledges and closes the session.
    pub fn quit(mut self) -> ClientResult<()> {
        self.send(&Request::Quit)?;
        self.read_ok().map(|_| ())
    }

    fn send(&mut self, request: &Request) -> ClientResult<()> {
        let mut line = String::new();
        request.to_json().write_to(&mut line);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(())
    }

    /// Read one frame, translating error frames into `ClientError::Server`.
    fn read_response_frame(&mut self) -> ClientResult<Json> {
        let frame = read_json_frame(&mut self.reader, &mut self.line)?;
        match parse_error(&frame) {
            Some(err) => Err(ClientError::Server(err)),
            None => Ok(frame),
        }
    }

    /// Read one frame of an open result stream, appending a chunk's rows
    /// to `out`. `Err` here means the frame could not be read at all, so
    /// the frames after it cannot be found either.
    fn read_stream_frame(
        &mut self,
        types: &[DataType],
        out: &mut Vec<Vec<Datum>>,
    ) -> ClientResult<StreamFrame> {
        if peek(&mut self.reader)? != CHUNK_TAG {
            return read_json_frame(&mut self.reader, &mut self.line).map(StreamFrame::Control);
        }
        let truncated = |e: io::Error| match e.kind() {
            io::ErrorKind::UnexpectedEof => ClientError::Protocol("truncated chunk frame".into()),
            _ => ClientError::Io(e),
        };
        let mut header = [0; CHUNK_HEADER_BYTES];
        self.reader.read_exact(&mut header).map_err(truncated)?;
        let len = chunk_payload_len(&header).map_err(ClientError::Protocol)?;
        // Read what arrives rather than allocating `len` up front.
        self.line.clear();
        let got = (&mut self.reader)
            .take(len as u64)
            .read_to_end(&mut self.line)?;
        if got < len {
            return Err(ClientError::Protocol(format!(
                "truncated chunk frame: {got} of {len} payload bytes"
            )));
        }
        Ok(match decode_chunk(&self.line, types, out) {
            Ok(()) => StreamFrame::Chunk,
            Err(e) => StreamFrame::BadChunk(e),
        })
    }

    fn read_ok(&mut self) -> ClientResult<Json> {
        let frame = self.read_response_frame()?;
        frame
            .get("ok")
            .cloned()
            .ok_or_else(|| ClientError::Protocol(format!("expected ok frame, got `{frame}`")))
    }

    /// Read a response that is either a rows header (gather it fully) or a
    /// bare ok (e.g. a `SET` routed through `query`).
    fn read_rows_or_ok(&mut self) -> ClientResult<RowSet> {
        let frame = self.read_response_frame()?;
        if frame.get("ok").is_some() {
            return Ok(RowSet {
                columns: Vec::new(),
                types: Vec::new(),
                rows: Vec::new(),
            });
        }
        let (columns, types) = parse_header(&frame)?;
        let mut rows = Vec::new();
        loop {
            match self.read_stream_frame(&types, &mut rows)? {
                StreamFrame::Chunk => {}
                StreamFrame::BadChunk(msg) => return Err(ClientError::Protocol(msg)),
                StreamFrame::Control(frame) => {
                    end_of_stream(&frame)?;
                    return Ok(RowSet {
                        columns,
                        types,
                        rows,
                    });
                }
            }
        }
    }

    fn read_stream_header(&mut self) -> ClientResult<RowStream<'_>> {
        let frame = self.read_response_frame()?;
        let (columns, types) = parse_header(&frame)?;
        Ok(RowStream {
            client: self,
            columns,
            types,
            total_rows: None,
        })
    }
}

/// A frame read while a result stream is open.
enum StreamFrame {
    /// A chunk frame: its rows were appended to the output.
    Chunk,
    /// A chunk frame read whole whose payload does not fit the header.
    BadChunk(String),
    /// A JSON frame: `done`, `error`, or one that does not belong here.
    Control(Json),
}

/// An in-progress streaming result borrowed from a [`Client`].
///
/// Call [`RowStream::next_chunk`] until it returns `Ok(None)` (all rows
/// delivered) or an error. Dropping the stream before that drains the
/// remaining frames so the connection stays usable — for a large result,
/// cancel the query first (from another connection) to cut the drain
/// short.
pub struct RowStream<'a> {
    client: &'a mut Client,
    /// Output column names.
    columns: Vec<String>,
    /// Output column types.
    types: Vec<DataType>,
    /// Set once the `done` frame arrives.
    total_rows: Option<u64>,
}

impl RowStream<'_> {
    /// Output column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Output column types.
    pub fn types(&self) -> &[DataType] {
        &self.types
    }

    /// Total row count, available after the `done` frame has been read.
    pub fn total_rows(&self) -> Option<u64> {
        self.total_rows
    }

    /// The next batch of rows, or `Ok(None)` after the final frame.
    pub fn next_chunk(&mut self) -> ClientResult<Option<Vec<Vec<Datum>>>> {
        if self.total_rows.is_some() {
            return Ok(None);
        }
        let mut rows = Vec::new();
        // A frame that cannot be read, or any frame but a chunk, ends the
        // response sequence: nothing is left to drain.
        let frame = self
            .client
            .read_stream_frame(&self.types, &mut rows)
            .inspect_err(|_| self.total_rows = Some(0))?;
        match frame {
            StreamFrame::Chunk => Ok(Some(rows)),
            StreamFrame::BadChunk(msg) => Err(ClientError::Protocol(msg)),
            StreamFrame::Control(frame) => {
                let total = end_of_stream(&frame);
                self.total_rows = Some(total.as_ref().map_or(0, |&n| n));
                total.map(|_| None)
            }
        }
    }
}

impl Drop for RowStream<'_> {
    fn drop(&mut self) {
        // Drain whatever the server still has buffered for this response
        // so the next request's response is not polluted. Best effort: an
        // IO error means the connection is dead anyway.
        while self.total_rows.is_none() {
            match self.next_chunk() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }
}

/// The next byte the server sent, without consuming it.
fn peek(reader: &mut BufReader<TcpStream>) -> ClientResult<u8> {
    reader.fill_buf()?.first().copied().ok_or_else(closed)
}

fn closed() -> ClientError {
    ClientError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "server closed the connection",
    ))
}

/// Read one JSON frame. A chunk frame is out of place here: it belongs
/// only between a rows header and the frame that ends the stream.
fn read_json_frame(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> ClientResult<Json> {
    if peek(reader)? == CHUNK_TAG {
        return Err(ClientError::Protocol(
            "chunk frame outside a result stream".into(),
        ));
    }
    Json::parse(read_line(reader, buf)?).map_err(ClientError::Protocol)
}

/// Read one line into `buf` and return it without its line ending.
fn read_line<'a>(reader: &mut BufReader<TcpStream>, buf: &'a mut Vec<u8>) -> ClientResult<&'a str> {
    buf.clear();
    if reader.read_until(b'\n', buf)? == 0 {
        return Err(closed());
    }
    let line = std::str::from_utf8(buf).map_err(|_| {
        ClientError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    })?;
    Ok(line.trim_end_matches(['\r', '\n']))
}

fn parse_error(frame: &Json) -> Option<RemoteError> {
    let e = frame.get("error")?;
    Some(RemoteError {
        code: e
            .get("code")
            .and_then(Json::as_str)
            .unwrap_or(CODE_PROTOCOL)
            .to_string(),
        message: e
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
    })
}

fn parse_header(frame: &Json) -> ClientResult<(Vec<String>, Vec<DataType>)> {
    let protocol = |msg: &str| ClientError::Protocol(msg.into());
    let header = frame
        .get("rows")
        .ok_or_else(|| ClientError::Protocol(format!("expected rows header, got `{frame}`")))?;
    let columns = header
        .get("columns")
        .and_then(Json::as_arr)
        .ok_or_else(|| protocol("header missing columns"))?
        .iter()
        .map(|c| {
            c.as_str()
                .map(str::to_string)
                .ok_or_else(|| protocol("column name must be a string"))
        })
        .collect::<ClientResult<Vec<_>>>()?;
    let types = header
        .get("types")
        .and_then(Json::as_arr)
        .ok_or_else(|| protocol("header missing types"))?
        .iter()
        .map(|t| {
            t.as_str()
                .ok_or("type name must be a string".to_string())
                .and_then(type_from_name)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(ClientError::Protocol)?;
    if columns.len() != types.len() {
        return Err(ClientError::Protocol(format!(
            "header has {} columns but {} types",
            columns.len(),
            types.len()
        )));
    }
    Ok((columns, types))
}

/// The row count of the frame that ended a result stream: a `done` frame
/// with an integer `rows`, or else the error it reports.
fn end_of_stream(frame: &Json) -> ClientResult<u64> {
    if let Some(err) = parse_error(frame) {
        return Err(ClientError::Server(err));
    }
    let done = frame
        .get("done")
        .ok_or_else(|| ClientError::Protocol(format!("expected chunk frame, got `{frame}`")))?;
    done.get("rows")
        .and_then(Json::as_i64)
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| ClientError::Protocol(format!("done frame without a row count: `{frame}`")))
}

#[cfg(test)]
mod tests {
    use std::net::{SocketAddr, TcpListener};
    use std::sync::Arc;
    use std::thread::JoinHandle;

    use bfq_storage::{Chunk, Column};

    use super::*;
    use crate::protocol::{encode_chunk, MAX_CHUNK_PAYLOAD, WIRE_CHUNK_ROWS};

    const HEADER: &str = r#"{"rows":{"columns":["a"],"types":["int64"]}}"#;
    const TEXT_HEADER: &str = r#"{"rows":{"columns":["s"],"types":["utf8"]}}"#;

    /// A JSON frame as the server sends it.
    fn line(frame: &str) -> Vec<u8> {
        format!("{frame}\n").into_bytes()
    }

    /// A chunk frame around `payload`.
    fn chunk_frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = vec![CHUNK_TAG];
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// The chunk frame of one int64 column holding `values`.
    fn ints(values: &[i64]) -> Vec<u8> {
        let chunk =
            Chunk::new(vec![Arc::new(Column::Int64(values.to_vec(), None))]).expect("one column");
        let mut frame = Vec::new();
        encode_chunk(&chunk, 0..values.len(), &mut frame).expect("under the cap");
        frame
    }

    /// A server that sends a hello of protocol `version`, then answers the
    /// first request with `frames`, then hangs up.
    fn serve_script(version: i64, frames: &[Vec<u8>]) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let hello = line(&format!(
            r#"{{"hello":{{"conn_id":1,"secret":2,"version":{version}}}}}"#
        ));
        let script = frames.concat();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            writer.write_all(&hello).expect("send hello");
            let mut request = String::new();
            BufReader::new(stream)
                .read_line(&mut request)
                .expect("read request");
            writer.write_all(&script).expect("send frames");
        });
        (addr, server)
    }

    /// A client whose server sends a hello, then answers the first request
    /// with `frames`.
    fn scripted(frames: &[Vec<u8>]) -> (Client, JoinHandle<()>) {
        let (addr, server) = serve_script(PROTOCOL_VERSION, frames);
        (Client::connect(addr).expect("connect"), server)
    }

    fn assert_protocol_error(err: &ClientError, needle: &str) {
        assert!(
            matches!(err, ClientError::Protocol(m) if m.contains(needle)),
            "expected a protocol error about {needle:?}, got {err}"
        );
    }

    #[test]
    fn a_hello_of_another_protocol_version_is_refused() {
        let (addr, server) = serve_script(PROTOCOL_VERSION - 1, &[]);
        let err = Client::connect(addr)
            .err()
            .expect("accepted a hello of another version");
        assert_protocol_error(
            &err,
            &format!(
                "version {}, this client speaks version {PROTOCOL_VERSION}",
                PROTOCOL_VERSION - 1
            ),
        );
        server.join().expect("scripted server");
    }

    #[test]
    fn a_non_string_column_name_is_a_protocol_error() {
        let (mut client, server) = scripted(&[
            line(r#"{"rows":{"columns":["a",7],"types":["int64","int64"]}}"#),
            line(r#"{"done":{"rows":0}}"#),
        ]);
        let err = client
            .query("select 1")
            .expect_err("accepted a numeric name");
        assert_protocol_error(&err, "column name must be a string");
        server.join().expect("scripted server");
    }

    #[test]
    fn a_header_with_more_types_than_columns_is_a_protocol_error() {
        let (mut client, server) = scripted(&[
            line(r#"{"rows":{"columns":["a"],"types":["int64","utf8"]}}"#),
            line(r#"{"done":{"rows":0}}"#),
        ]);
        let err = client
            .query("select 1")
            .expect_err("accepted a ragged header");
        assert_protocol_error(&err, "1 columns but 2 types");
        server.join().expect("scripted server");
    }

    #[test]
    fn a_done_frame_without_an_integer_row_count_is_a_protocol_error() {
        let chunk = ints(&[1]);
        let done = line(r#"{"done":{"rows":1}}"#);
        let (mut client, server) = scripted(&[line(HEADER), chunk.clone(), done]);
        let mut stream = client.query_stream("select 1").expect("header");
        assert_eq!(
            stream.next_chunk().expect("chunk"),
            Some(vec![vec![Datum::Int(1)]])
        );
        assert_eq!(stream.next_chunk().expect("done"), None);
        assert_eq!(stream.total_rows(), Some(1));
        drop(stream);
        server.join().expect("scripted server");

        for done in [
            r#"{"done":{}}"#,
            r#"{"done":{"rows":"1"}}"#,
            r#"{"done":{"rows":1.0}}"#,
            r#"{"done":{"rows":-1}}"#,
        ] {
            let frames = [line(HEADER), chunk.clone(), line(done)];
            let (mut client, server) = scripted(&frames);
            let mut stream = client.query_stream("select 1").expect("header");
            assert!(stream.next_chunk().expect("chunk").is_some());
            let err = stream.next_chunk().expect_err(done);
            assert_protocol_error(&err, "without a row count");
            // The malformed frame still ended the response sequence.
            assert_eq!(stream.next_chunk().expect("ended"), None);
            drop(stream);
            server.join().expect("scripted server");

            let (mut client, server) = scripted(&frames);
            let err = client.query("select 1").expect_err(done);
            assert_protocol_error(&err, "without a row count");
            server.join().expect("scripted server");
        }
    }

    #[test]
    fn a_chunk_frame_outside_a_result_stream_is_a_protocol_error() {
        let (mut client, server) = scripted(&[ints(&[1])]);
        let err = client.ping().expect_err("accepted a chunk as the pong");
        assert_protocol_error(&err, "outside a result stream");
        server.join().expect("scripted server");
    }

    #[test]
    fn a_bad_chunk_frame_is_a_protocol_error() {
        // A frame of `rows` rows whose columns are `body`.
        let payload = |rows: usize, body: &[u8]| {
            let mut payload = (rows as u32).to_le_bytes().to_vec();
            payload.extend_from_slice(body);
            chunk_frame(&payload)
        };
        let one_string = |ends: &[u32], bytes: &[u8]| {
            let mut body = vec![0];
            ends.iter()
                .for_each(|e| body.extend_from_slice(&e.to_le_bytes()));
            body.extend_from_slice(bytes);
            payload(ends.len(), &body)
        };
        let mut oversized = vec![CHUNK_TAG];
        oversized.extend_from_slice(&(MAX_CHUNK_PAYLOAD as u32 + 1).to_le_bytes());
        let mut truncated = ints(&[1, 2, 3]);
        truncated.truncate(truncated.len() - 5);
        let one_int = [0, 1, 0, 0, 0, 0, 0, 0, 0];
        let bool_header = r#"{"rows":{"columns":["b"],"types":["bool"]}}"#;
        let cases = [
            (HEADER, truncated, "truncated chunk frame"),
            (HEADER, oversized, "exceeds the 1073741824-byte cap"),
            (
                HEADER,
                payload(WIRE_CHUNK_ROWS + 1, &[0; 1 + 8 * (WIRE_CHUNK_ROWS + 1)]),
                "exceeds the 4096-row limit",
            ),
            (TEXT_HEADER, one_string(&[2], &[0xff, 0xfe]), "not UTF-8"),
            (
                TEXT_HEADER,
                one_string(&[2, 1, 3], b"abc"),
                "bad utf8 offset 1 after 2",
            ),
            (
                HEADER,
                payload(1, &[one_int, [9; 9]].concat()),
                "9 bytes left over",
            ),
            (
                HEADER,
                payload(1, &[2, 0, 0, 0, 0, 0, 0, 0, 0]),
                "bad null flag 2",
            ),
            (bool_header, payload(1, &[0, 2]), "bad value byte in row 0"),
        ];
        for (header, frame, needle) in cases {
            let (mut client, server) = scripted(&[line(header), frame]);
            let err = client.query("select 1").expect_err(needle);
            assert_protocol_error(&err, needle);
            server.join().expect("scripted server");
        }
        // A bad payload read whole leaves the stream readable to its end.
        let done = line(r#"{"done":{"rows":3}}"#);
        let frames = [line(TEXT_HEADER), one_string(&[2, 1, 3], b"abc"), done];
        let (mut client, server) = scripted(&frames);
        let mut stream = client.query_stream("select 1").expect("header");
        let err = stream.next_chunk().expect_err("accepted a bad offset");
        assert_protocol_error(&err, "bad utf8 offset");
        assert_eq!(stream.next_chunk().expect("done"), None);
        assert_eq!(stream.total_rows(), Some(3));
        drop(stream);
        server.join().expect("scripted server");
    }
}
