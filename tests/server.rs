//! bfq-server integration tests: a real TCP server over a real engine.
//!
//! Covered here:
//! * concurrent clients get results identical to a direct in-process run;
//! * admission control rejects with `server_busy` when the queue is full,
//!   and recovers once capacity frees up;
//! * out-of-band CANCEL interrupts a streaming query mid-flight, the
//!   session stays usable, and no engine worker threads leak;
//! * `SET statement_timeout` fails slow queries with a timeout message,
//!   also after some chunks have gone out;
//! * the `metrics` command reports exact server-side counters.

use std::sync::Arc;
use std::time::Duration;

use bfq::prelude::*;
use bfq::tpch;
use bfq_server::{Client, Server, ServerConfig, CODE_PROTOCOL, CODE_SERVER_BUSY};

const SF: f64 = 0.01;
const SEED: u64 = 20260809;

fn test_engine() -> Arc<Engine> {
    let db = tpch::gen::generate(SF, SEED).expect("generate");
    Engine::new(
        db,
        EngineConfig::default()
            .with_bloom_mode(BloomMode::Cbo)
            .with_dop(2),
    )
}

fn start(engine: Arc<Engine>, workers: usize, queue_depth: usize) -> Server {
    Server::start(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue_depth,
            poll_interval: Duration::from_millis(20),
        },
    )
    .expect("server start")
}

/// Pull one metric value out of Prometheus text.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
        .trim()
        .parse()
        .expect("metric value")
}

#[test]
fn concurrent_clients_get_identical_results() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 3;
    let engine = test_engine();
    let sql = "select o_orderpriority, count(*) as n from orders, lineitem \
               where l_orderkey = o_orderkey and o_orderdate < date '1996-01-01' \
               group by o_orderpriority order by o_orderpriority";
    // Reference: the same engine, in process.
    let reference = engine.connect().run_sql(sql).expect("reference");
    let expected: Vec<Vec<Datum>> = (0..reference.chunk.rows())
        .map(|i| reference.chunk.row(i))
        .collect();

    let server = start(engine, CLIENTS, CLIENTS);
    let addr = server.local_addr();
    let results: Vec<Vec<Vec<Vec<Datum>>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    // Mix ad-hoc and prepared executions of the same query.
                    client.prepare("q", sql).expect("prepare");
                    let mut runs = Vec::new();
                    for round in 0..ROUNDS {
                        let rows = if round % 2 == 0 {
                            client.query(sql).expect("query").rows
                        } else {
                            client.execute("q", &[]).expect("execute").rows
                        };
                        runs.push(rows);
                    }
                    client.quit().expect("quit");
                    runs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    for (i, runs) in results.iter().enumerate() {
        for (j, rows) in runs.iter().enumerate() {
            assert_eq!(rows, &expected, "client {i} run {j} diverged");
        }
    }
    assert_eq!(
        server.metrics().queries_started.get(),
        (CLIENTS * ROUNDS) as u64
    );
    // `quit` acks before the worker finishes closing the session, so the
    // active-connections gauge drains shortly after, not instantly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.metrics().active_connections() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "sessions never closed: {} still active",
            server.metrics().active_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn typed_values_roundtrip_over_the_wire() {
    let engine = test_engine();
    let sql = "select o_orderkey, o_orderdate, o_orderpriority, o_totalprice \
               from orders order by o_orderkey limit 5";
    let reference = engine.connect().run_sql(sql).expect("reference");
    let expected: Vec<Vec<Datum>> = (0..reference.chunk.rows())
        .map(|i| reference.chunk.row(i))
        .collect();
    let server = start(engine, 2, 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let rows = client.query(sql).expect("query");
    assert_eq!(
        rows.types,
        vec![
            DataType::Int64,
            DataType::Date,
            DataType::Utf8,
            DataType::Float64
        ]
    );
    assert_eq!(rows.rows, expected, "wire roundtrip altered values");

    // Parameters bind over the wire too (a date parameter, structurally).
    client
        .prepare("byday", "select count(*) from orders where o_orderdate < ?")
        .expect("prepare");
    let cutoff = Datum::Date(bfq::common::date::parse_date("1995-01-01").expect("date"));
    let narrow = client.execute("byday", &[cutoff]).expect("execute");
    let wide = client
        .execute(
            "byday",
            &[Datum::Date(
                bfq::common::date::parse_date("1999-01-01").expect("date"),
            )],
        )
        .expect("execute");
    let n = |rs: &bfq_server::RowSet| rs.rows[0][0].as_i64().expect("count");
    assert!(n(&narrow) < n(&wide), "{} !< {}", n(&narrow), n(&wide));

    // EXPLAIN and SET travel through the `query` command.
    let plan = client
        .query("explain select count(*) from orders")
        .expect("explain");
    assert_eq!(plan.columns, vec!["plan".to_string()]);
    assert!(plan
        .rows
        .iter()
        .any(|r| r[0].as_str().is_some_and(|line| line.contains("HashAgg"))));
    let set = client.query("set dop = 1").expect("set via query");
    assert!(set.rows.is_empty());
    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn admission_control_rejects_when_full_then_recovers() {
    let engine = test_engine();
    let server = start(engine, 1, 0);
    let addr = server.local_addr();

    // First client occupies the only worker.
    let mut first = Client::connect(addr).expect("first connect");
    first.ping().expect("ping");

    // With no queue, the second connection is rejected outright.
    match Client::connect(addr) {
        Err(e) if e.is_code(CODE_SERVER_BUSY) => {}
        Err(other) => panic!("expected server_busy, got {other}"),
        Ok(_) => panic!("expected server_busy, got an admitted connection"),
    }
    assert_eq!(server.metrics().connections_rejected.get(), 1);

    // Capacity frees up when the first client leaves.
    first.quit().expect("quit");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut third = loop {
        match Client::connect(addr) {
            Ok(c) => break c,
            Err(e) if e.is_code(CODE_SERVER_BUSY) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "server never recovered after quit"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    };
    third.ping().expect("ping after recovery");
    third.quit().expect("quit");
    server.shutdown();
}

#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn cancel_interrupts_a_streaming_query_mid_flight() {
    let engine = test_engine();
    let server = start(engine, 2, 2);
    let addr = server.local_addr();

    let mut victim = Client::connect(addr).expect("victim connect");
    let mut canceller = Client::connect(addr).expect("canceller connect");
    let (conn_id, secret) = (victim.conn_id(), victim.secret());

    // A wrong secret never cancels.
    assert!(!canceller.cancel(conn_id, secret ^ 1).expect("bad secret"));
    // Cancelling an idle session is a no-op.
    assert!(!canceller.cancel(conn_id, secret).expect("idle cancel"));

    // The self-join inflates lineitem ~7x, so the result far exceeds the
    // socket buffers: the server still streams when the cancel lands.
    let big = "select l1.l_orderkey, l1.l_extendedprice, l2.l_extendedprice \
               from lineitem l1, lineitem l2 where l1.l_orderkey = l2.l_orderkey";
    #[cfg(target_os = "linux")]
    let threads_before = live_threads();
    let outcome = {
        let mut stream = victim.query_stream(big).expect("stream starts");
        let first = stream.next_chunk().expect("first chunk");
        assert!(first.is_some(), "expected at least one chunk before cancel");
        assert!(
            canceller.cancel(conn_id, secret).expect("cancel"),
            "cancel should find the query in flight"
        );
        // Keep reading: the error frame arrives once the engine unwinds.
        loop {
            match stream.next_chunk() {
                Ok(Some(_)) => {}
                Ok(None) => break Ok(stream.total_rows()),
                Err(e) => break Err(e),
            }
        }
    };
    match outcome {
        Err(e) if e.is_code("cancelled") => {
            let msg = &e.remote().expect("remote").message;
            assert!(msg.contains("cancelled by client"), "message: {msg}");
        }
        other => panic!("expected cancelled error, got {other:?}"),
    }

    // The victim session survives the cancelled query.
    let after = victim
        .query("select count(*) from orders")
        .expect("victim lives");
    assert_eq!(after.rows.len(), 1);

    // No engine worker threads leaked (server pool threads persist, so the
    // count returns to the pre-query level).
    #[cfg(target_os = "linux")]
    {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let now = live_threads();
            if now <= threads_before {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "cancelled server query leaked threads ({threads_before} before, {now} after)"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    let text = victim.metrics().expect("metrics");
    assert_eq!(metric(&text, "bfq_server_queries_cancelled_total"), 1);
    assert_eq!(metric(&text, "bfq_server_cancels_delivered_total"), 1);
    victim.quit().expect("quit");
    canceller.quit().expect("quit");
    server.shutdown();
}

#[test]
fn statement_timeout_fails_slow_queries_over_the_wire() {
    let engine = test_engine();
    let server = start(engine, 1, 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set("dop", "1").expect("set dop");
    client.set("statement_timeout", "1").expect("set timeout");
    let slow = "select l1.l_orderkey from lineitem l1, lineitem l2, lineitem l3 \
                where l1.l_orderkey = l2.l_orderkey and l2.l_orderkey = l3.l_orderkey";
    match client.query(slow) {
        Err(e) if e.is_code("cancelled") => {
            let msg = &e.remote().expect("remote").message;
            assert!(msg.contains("timeout"), "message: {msg}");
            let text = client.metrics().expect("metrics");
            assert_eq!(metric(&text, "bfq_server_queries_timed_out_total"), 1);
        }
        Err(other) => panic!("expected timeout, got {other}"),
        // Lazy deadline checks mean an absurdly fast machine could finish
        // first; that is not a failure of the mechanism.
        Ok(_) => {}
    }
    // `SET statement_timeout = 0` turns it back off.
    client.set("statement_timeout", "0").expect("reset");
    let ok = client.query("select count(*) from lineitem").expect("runs");
    assert_eq!(ok.rows.len(), 1);
    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn statement_timeout_mid_stream_delivers_the_chunks_sent_then_the_error() {
    const TIMEOUT_MS: u64 = 3000;
    let engine = test_engine();
    // Far more output than the socket buffers hold, so the server is still
    // streaming when the deadline passes.
    let sql = "select l1.l_orderkey, l3.l_comment from lineitem l1, lineitem l2, lineitem l3 \
               where l1.l_orderkey = l2.l_orderkey and l2.l_orderkey = l3.l_orderkey";
    let server = start(engine.clone(), 1, 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set("dop", "1").expect("set dop");
    client
        .set("statement_timeout", &TIMEOUT_MS.to_string())
        .expect("set timeout");
    let started = std::time::Instant::now();
    let mut received = Vec::new();
    let outcome = {
        let mut stream = client.query_stream(sql).expect("rows header first");
        let first = stream.next_chunk().expect("first chunk");
        received.extend(first.expect("a chunk frame before the deadline"));
        // Stop reading until the deadline has passed: the server blocks
        // writing, and its next pull from the query finds it expired.
        std::thread::sleep(
            Duration::from_millis(TIMEOUT_MS + 300).saturating_sub(started.elapsed()),
        );
        loop {
            match stream.next_chunk() {
                Ok(Some(rows)) => received.extend(rows),
                Ok(None) => break Ok(stream.total_rows()),
                Err(e) => break Err(e),
            }
        }
    };
    match outcome {
        Err(e) if e.is_code("cancelled") => {
            let msg = &e.remote().expect("remote").message;
            assert!(msg.contains("timeout"), "message: {msg}");
        }
        other => panic!(
            "expected a timeout after {} rows, got {other:?}",
            received.len()
        ),
    }
    // The chunks that did arrive are the query's first rows, in order.
    let mut reference = engine.connect();
    reference.set("dop", "1").expect("set dop");
    let mut expected = Vec::new();
    for chunk in reference.execute_stream(sql).expect("reference stream") {
        let chunk = chunk.expect("reference chunk");
        expected.extend((0..chunk.rows()).map(|i| chunk.row(i)));
        if expected.len() >= received.len() {
            break;
        }
    }
    expected.truncate(received.len());
    assert!(
        received == expected,
        "delivered rows are not the query's prefix"
    );
    // Nothing else is left on the wire: the session answers the next query.
    client.set("statement_timeout", "0").expect("reset");
    let n = client
        .query("select count(*) from nation")
        .expect("session lives");
    assert_eq!(n.rows, vec![vec![Datum::Int(25)]]);
    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn metrics_counters_are_exact() {
    let engine = test_engine();
    let server = start(engine, 2, 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client.ping().expect("ping");
    for _ in 0..3 {
        client.query("select count(*) from nation").expect("query");
    }
    client
        .prepare("n", "select n_name from nation where n_nationkey = ?")
        .expect("prepare");
    for key in [1_i64, 2] {
        let rows = client.execute("n", &[Datum::Int(key)]).expect("execute");
        assert_eq!(rows.rows.len(), 1);
    }
    client.close_statement("n").expect("close");

    let text = client.metrics().expect("metrics");
    // ping + 3 query + prepare + 2 execute + close + this metrics request.
    assert_eq!(metric(&text, "bfq_server_requests_total"), 9);
    assert_eq!(metric(&text, "bfq_server_queries_started_total"), 5);
    assert_eq!(metric(&text, "bfq_server_queries_finished_total"), 5);
    assert_eq!(metric(&text, "bfq_server_queries_cancelled_total"), 0);
    assert_eq!(metric(&text, "bfq_server_queries_timed_out_total"), 0);
    assert_eq!(metric(&text, "bfq_server_connections_accepted_total"), 1);
    assert_eq!(metric(&text, "bfq_server_connections_rejected_total"), 0);
    assert_eq!(metric(&text, "bfq_server_active_connections"), 1);
    assert_eq!(metric(&text, "bfq_server_in_flight_queries"), 0);
    // The engine's registry rides along in the same text.
    assert!(text.contains("bfq_queries_total"));

    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn malformed_frames_get_protocol_errors_without_killing_the_session() {
    use std::io::{BufRead, BufReader, Write};
    let engine = test_engine();
    let server = start(engine, 1, 1);
    let stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello");
    assert!(line.contains("\"hello\""), "got: {line}");

    for (bad, expect_code) in [
        ("this is not json\n", CODE_PROTOCOL),
        ("{\"cmd\":\"warp\"}\n", CODE_PROTOCOL),
        ("{\"cmd\":\"query\"}\n", CODE_PROTOCOL),
        (
            "{\"cmd\":\"query\",\"sql\":\"select nope from nowhere\"}\n",
            "catalog",
        ),
    ] {
        writer.write_all(bad.as_bytes()).expect("write");
        line.clear();
        reader.read_line(&mut line).expect("response");
        assert!(
            line.contains(&format!("\"code\":\"{expect_code}\"")),
            "for {bad:?} got: {line}"
        );
    }
    // The session still works after every error.
    writer
        .write_all(b"{\"cmd\":\"ping\"}\n")
        .expect("write ping");
    line.clear();
    reader.read_line(&mut line).expect("pong");
    assert!(line.contains("\"ok\""), "got: {line}");
    server.shutdown();
}

#[test]
fn shutdown_interrupts_idle_and_queued_sessions() {
    let engine = test_engine();
    let server = start(engine, 2, 4);
    let addr = server.local_addr();
    let _idle1 = Client::connect(addr).expect("idle client");
    let _idle2 = Client::connect(addr).expect("idle client");
    // Shutdown returns only after joining every thread — idle sessions
    // must not hold it hostage.
    server.shutdown();
}

#[test]
fn endless_line_without_newline_is_cut_off_at_the_request_cap() {
    use std::io::Write;
    let engine = test_engine();
    let server = start(engine, 1, 1);
    let addr = server.local_addr();
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_write_timeout(Some(Duration::from_secs(2)))
        .expect("write timeout");
    let mut writer = stream.try_clone().expect("clone");

    // Stream junk with no newline, forever as far as the client is
    // concerned. The server must stop consuming at its 8 MiB request cap
    // and hang up, rather than buffering the line without bound — so well
    // under this 64 MiB budget, our writes must start failing (connection
    // closed) or time out (server stopped reading).
    let chunk = vec![b'x'; 1 << 20];
    let mut accepted: usize = 0;
    for _ in 0..64 {
        match writer.write_all(&chunk) {
            Ok(()) => accepted += chunk.len(),
            Err(_) => break,
        }
    }
    assert!(
        accepted < 32 << 20,
        "server consumed {accepted} bytes of a newline-less line; \
         the request cap should have cut it off near 8 MiB"
    );

    // The server survives the abuse: fresh sessions still work.
    let mut client = Client::connect(addr).expect("connect after abuse");
    client.ping().expect("ping");
    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn set_statement_timeout_applies_to_already_prepared_statements() {
    let engine = test_engine();
    let server = start(engine, 1, 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set("dop", "1").expect("set dop");
    let slow = "select l1.l_orderkey from lineitem l1, lineitem l2, lineitem l3 \
                where l1.l_orderkey = l2.l_orderkey and l2.l_orderkey = l3.l_orderkey";
    // Prepare *before* SET: the timeout must still apply at EXECUTE time.
    client.prepare("slow", slow).expect("prepare");
    client.set("statement_timeout", "1").expect("set timeout");
    match client.execute("slow", &[]) {
        Err(e) if e.is_code("cancelled") => {
            let msg = &e.remote().expect("remote").message;
            assert!(msg.contains("timeout"), "message: {msg}");
        }
        Err(other) => panic!("expected timeout, got {other}"),
        // Lazy deadline checks mean an absurdly fast machine could finish
        // first; that is not a failure of the mechanism.
        Ok(_) => {}
    }
    // Resetting the knob applies to already-prepared statements too.
    client
        .prepare("fast", "select count(*) from nation")
        .expect("prepare fast");
    client.set("statement_timeout", "default").expect("reset");
    let ok = client.execute("fast", &[]).expect("runs");
    assert_eq!(ok.rows.len(), 1);
    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn explain_analyze_timeout_is_counted_against_the_explain_itself() {
    let engine = test_engine();
    let server = start(engine, 1, 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set("dop", "1").expect("set dop");
    client.set("statement_timeout", "1").expect("set timeout");
    let slow = "explain analyze select l1.l_orderkey from lineitem l1, lineitem l2, lineitem l3 \
                where l1.l_orderkey = l2.l_orderkey and l2.l_orderkey = l3.l_orderkey";
    match client.query(slow) {
        Err(e) if e.is_code("cancelled") => {
            // The timed-out EXPLAIN must settle the counter immediately —
            // not leave the fired token's reason on the session hub for
            // the next query to claim.
            let text = client.metrics().expect("metrics");
            assert_eq!(metric(&text, "bfq_server_queries_timed_out_total"), 1);
            client.set("statement_timeout", "0").expect("reset");
            client.query("select count(*) from nation").expect("query");
            let text = client.metrics().expect("metrics");
            assert_eq!(metric(&text, "bfq_server_queries_timed_out_total"), 1);
            assert_eq!(metric(&text, "bfq_server_queries_cancelled_total"), 0);
        }
        Err(other) => panic!("expected timeout, got {other}"),
        Ok(_) => {} // absurdly fast machine; mechanism not at fault
    }
    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn shutdown_completes_while_streaming_to_a_stalled_client() {
    use std::io::Write;
    let engine = test_engine();
    let server = start(engine, 1, 1);
    let addr = server.local_addr();
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    // Ask for a large result, then never read a byte: once the socket
    // buffers fill, the session blocks in write. Shutdown must still
    // complete — the write timeout wakes the session to see the flag.
    writer
        .write_all(b"{\"cmd\":\"query\",\"sql\":\"select l_orderkey, l_comment from lineitem\"}\n")
        .expect("send query");
    std::thread::sleep(Duration::from_millis(300));
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown hung on a session blocked writing to a stalled client");
    drop(stream);
}
