//! End-to-end serving pin over a real loopback socket: the HTTP front
//! end stays up and well-formed while delta ingest republishes snapshots
//! under it, and once ingest settles, the bytes it serves are identical
//! to what a from-scratch rebuild of the view would serve — readers can
//! never tell the incremental path apart from a full rebuild.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use datatamer::core::fusion::{BlockedErConfig, FusedEntity, GroupingStrategy};
use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer::model::{Record, RecordId, SourceId, Value};
use datatamer::query::http::render_result;
use datatamer::query::prelude::*;
use datatamer::serve::ServeSession;

fn show(id: u64, name: &str, price: &str) -> Record {
    Record::from_pairs(
        SourceId(0),
        RecordId(id),
        vec![("SHOW_NAME", Value::from(name)), ("CHEAPEST_PRICE", Value::from(price))],
    )
}

fn config() -> DataTamerConfig {
    DataTamerConfig {
        extent_size: 64 * 1024,
        shards: 2,
        grouping: GroupingStrategy::BlockedEr(BlockedErConfig::default()),
        ..Default::default()
    }
}

/// One blocking GET on a fresh connection; returns `(status_line, body)`.
/// It asks for `Connection: close`, so reading to EOF terminates.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send(&mut stream, &format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"));
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("recv");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// Write a whole request in one call (several small writes would meet
/// Nagle's algorithm and delayed ACKs on a kept connection).
fn send(stream: &mut TcpStream, request: &str) {
    stream.write_all(request.as_bytes()).expect("send");
}

/// One response read off a connection that may stay open: the head, then
/// exactly `Content-Length` body bytes. Bytes past the response stay in
/// `pending` for the next call. Returns `(head, body)`.
fn read_response(stream: &mut TcpStream, pending: &mut Vec<u8>) -> (String, String) {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(at) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
            break at + 4;
        }
        let n = stream.read(&mut chunk).expect("recv head");
        assert!(n > 0, "connection closed before the response head ended");
        pending.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(pending[..head_end].to_vec()).expect("UTF-8 head");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length");
    while pending.len() < head_end + len {
        let n = stream.read(&mut chunk).expect("recv body");
        assert!(n > 0, "connection closed inside the body");
        pending.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(pending[head_end..head_end + len].to_vec()).expect("UTF-8");
    pending.drain(..head_end + len);
    (head, body)
}

/// True once the server has closed `stream` (a read sees EOF or a reset).
fn closed_by_server(stream: &mut TcpStream) -> bool {
    let mut byte = [0u8; 1];
    matches!(stream.read(&mut byte), Ok(0) | Err(_))
}

/// A session serving a two-show collection as `shows`.
fn two_show_session(cfg: ServerConfig) -> (ServeSession, String) {
    let mut dt = DataTamer::new(config());
    let shows = [show(0, "Solo Show", "$9"), show(1, "Other Play", "$12")];
    dt.run(PipelinePlan::new().structured("s1", &shows)).expect("seed run");
    let mut session = ServeSession::bind("127.0.0.1:0", cfg).expect("bind loopback");
    session.publish("shows", &dt, IndexSpec::default().hash_on("CHEAPEST_PRICE"));
    let key = dt.context().fused[0].key.replace(' ', "%20");
    (session, format!("/collections/shows/entity/{key}"))
}

#[test]
fn serving_stays_live_and_deterministic_across_delta_ingest() {
    // Seed: 8 groups of near-duplicate shows, so deltas cause real merges.
    let name = |i: u64| format!("Group{} Title{}", i % 8, i % 8);
    let corpus: Vec<Record> =
        (0..40).map(|i| show(i, &name(i), &format!("${}", 10 + i % 3))).collect();
    let (seed, deltas) = corpus.split_at(20);

    let mut dt = DataTamer::new(config());
    dt.run(PipelinePlan::new().structured("s1", seed)).expect("seed run");

    let spec = IndexSpec::default().hash_on("CHEAPEST_PRICE").ordered_on("_members");
    let mut session =
        ServeSession::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    session.publish("shows", &dt, spec.clone());
    let addr = session.addr();

    // Concurrent readers: hammer every route while ingest republishes.
    let done = Arc::new(AtomicBool::new(false));
    let key_path =
        format!("/collections/shows/entity/{}", dt.context().fused[0].key.replace(' ', "%20"));
    let routes: Vec<String> = vec![
        "/collections".to_string(),
        "/collections/shows/stats".to_string(),
        "/collections/shows/query?agg=count".to_string(),
        "/collections/shows/query?where=_members>=1&order=_key&limit=3".to_string(),
        key_path,
    ];
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let done = Arc::clone(&done);
            let routes = routes.clone();
            std::thread::spawn(move || {
                let mut served = 0usize;
                while !done.load(Ordering::SeqCst) || served == 0 {
                    let path = &routes[(served + r) % routes.len()];
                    let (status, body) = http_get(addr, path);
                    // The entity route may briefly 404 while a merge renames
                    // its cluster key; everything else must be a 200. Every
                    // response must be complete JSON either way.
                    if path.contains("/entity/") {
                        assert!(
                            status.contains("200 OK") || status.contains("404"),
                            "{path}: {status}"
                        );
                    } else {
                        assert!(status.contains("200 OK"), "{path}: {status} {body}");
                    }
                    assert!(
                        body.starts_with('{') && body.ends_with('}'),
                        "{path}: truncated body {body:?}"
                    );
                    served += 1;
                }
                served
            })
        })
        .collect();

    // Ingest: five delta batches, republishing after each. Readers keep
    // being served from whole snapshots throughout.
    for batch in deltas.chunks(4) {
        dt.consolidate_delta(batch).expect("delta ingest");
        session.publish("shows", &dt, spec.clone());
    }
    done.store(true, Ordering::SeqCst);
    for r in readers {
        let served = r.join().expect("reader thread");
        assert!(served > 0, "reader never completed a request");
    }

    // The published view was maintained incrementally — one full build at
    // seed publish, one delta sync per batch, no rebuilds in between.
    let m = session.view("shows").expect("view exists").maintenance().clone();
    assert_eq!(m.full_builds, 1, "{m:?}");
    assert_eq!(m.delta_syncs, 5, "{m:?}");

    // Post-ingest: the live server's bytes equal what a from-scratch view
    // over the same fused output renders — plan, candidates, and rows.
    let ctx = dt.context();
    let mut fresh = CollectionView::new(spec);
    fresh.sync(&ctx.fused, &ctx.fusion_groups, None);
    let fresh_snap = fresh.snapshot(Vec::new());
    let checks: Vec<(&str, Query)> = vec![
        (
            "/collections/shows/query?agg=count",
            Query::filtered(Predicate::True).aggregate(Aggregate::Count),
        ),
        (
            "/collections/shows/query?where=_members>=1&order=_key&limit=3",
            Query::filtered(Predicate::Gte("_members".into(), Value::Int(1)))
                .order_by("_key", Order::Asc)
                .take(3),
        ),
        (
            "/collections/shows/query?agg=group:CHEAPEST_PRICE",
            Query::filtered(Predicate::True)
                .aggregate(Aggregate::GroupBy("CHEAPEST_PRICE".into())),
        ),
    ];
    for (path, q) in checks {
        let (status, live_body) = http_get(addr, path);
        assert!(status.contains("200 OK"), "{path}: {status}");
        let run = fresh_snap.execute(&q);
        let rebuilt = render_result(&run.result, run.plan.name(), run.candidates);
        assert_eq!(live_body, rebuilt, "served bytes diverge from a rebuild for {path}");
        let oracle = execute_oracle(&ctx.fused, &q).clone();
        assert_eq!(format!("{:?}", run.result), format!("{oracle:?}"), "rebuild vs oracle");
    }

    session.stop();
}

#[test]
fn malformed_and_unknown_requests_get_clean_errors() {
    let mut dt = DataTamer::new(config());
    dt.run(PipelinePlan::new().structured("s1", &[show(0, "Solo Show", "$9")]))
        .expect("seed run");
    let mut session =
        ServeSession::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    session.publish("shows", &dt, IndexSpec::default());
    let addr = session.addr();

    let (status, body) = http_get(addr, "/collections/nope/stats");
    assert!(status.contains("404"), "{status}");
    assert!(body.contains("error"), "{body}");

    let (status, _) = http_get(addr, "/collections/shows/unknown");
    assert!(status.contains("404"), "{status}");

    let (status, body) = http_get(addr, "/collections/shows/query?bogus=1");
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("unknown parameter"), "{body}");

    let (status, _) = http_get(addr, "/collections/shows/query?where=PRICE");
    assert!(status.contains("400"), "{status}");

    // Non-GET methods are refused, not crashed on.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /collections/shows/query HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("recv");
    assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");

    // The point-lookup route works and serves the fused record.
    let key = dt.context().fused[0].key.replace(' ', "%20");
    let (status, body) = http_get(addr, &format!("/collections/shows/entity/{key}"));
    assert!(status.contains("200 OK"), "{status}");
    assert!(body.contains("\"member_count\":1"), "{body}");
    assert!(body.contains("Solo Show"), "{body}");

    session.stop();
}

#[test]
fn heads_that_never_complete_are_refused_not_routed() {
    let (session, _) = two_show_session(ServerConfig::default());
    let addr = session.addr();
    let oversized = format!("GET /collections HTTP/1.1\r\nX-Pad: {}", "a".repeat(20 * 1024));
    let cases: [(&str, &str); 4] = [
        (&oversized, "HTTP/1.1 431 "),
        ("GET /collections HTTP/1.1\r\nHost: x\r\n", "HTTP/1.1 400 "),
        ("GET /collections HTTP/1.1\r\n", "HTTP/1.1 400 "),
        ("GET /collections HTTP/1.1", "HTTP/1.1 400 "),
    ];
    for (sent, want) in cases {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(sent.as_bytes()).expect("send");
        // Only the oversized head is still open: the others end at EOF.
        if sent.len() < 1024 {
            stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        }
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("recv");
        let shown = &sent[..sent.len().min(40)];
        assert!(raw.starts_with(want), "{shown:?}: {raw}");
        assert!(raw.contains("Connection: close\r\n"), "{shown:?}: {raw}");
        assert!(!raw.contains("\"collections\""), "{shown:?} was routed: {raw}");
    }
    session.stop();
}

#[test]
fn keep_alive_serves_many_requests_per_connection() {
    let (session, entity_path) = two_show_session(ServerConfig::default());
    let addr = session.addr();
    let routes = [
        "/collections".to_string(),
        "/collections/shows/stats".to_string(),
        "/collections/shows/query?agg=count".to_string(),
        "/collections/shows/query?where=CHEAPEST_PRICE=$9&limit=1".to_string(),
        entity_path,
    ];
    let fresh: Vec<String> = routes.iter().map(|p| http_get(addr, p).1).collect();

    // 100 requests on one connection: the same bodies as fresh ones.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut pending = Vec::new();
    for i in 0..100 {
        let k = i % routes.len();
        send(&mut stream, &format!("GET {} HTTP/1.1\r\nHost: loopback\r\n\r\n", routes[k]));
        let (head, body) = read_response(&mut stream, &mut pending);
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
        assert_eq!(body, fresh[k], "request {i} on a kept connection");
    }

    // Two requests pipelined in one write: two responses, in order.
    let two = format!(
        "GET {} HTTP/1.1\r\nHost: x\r\n\r\nGET {} HTTP/1.1\r\nHost: x\r\n\r\n",
        routes[2], routes[0]
    );
    stream.write_all(two.as_bytes()).expect("send pipelined");
    assert_eq!(read_response(&mut stream, &mut pending).1, fresh[2]);
    assert_eq!(read_response(&mut stream, &mut pending).1, fresh[0]);

    // `Connection: close` is honoured, said, and done.
    send(&mut stream, &format!("GET {} HTTP/1.1\r\nConnection: close\r\n\r\n", routes[0]));
    let (head, body) = read_response(&mut stream, &mut pending);
    assert!(head.contains("Connection: close\r\n"), "{head}");
    assert_eq!(body, fresh[0]);
    assert!(closed_by_server(&mut stream), "connection left open after close");

    // HTTP/1.0 closes by default and stays open only when asked to.
    for (extra, keeps) in [("", false), ("Connection: keep-alive\r\n", true)] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut pending = Vec::new();
        send(&mut stream, &format!("GET {} HTTP/1.0\r\n{extra}\r\n", routes[0]));
        let (head, body) = read_response(&mut stream, &mut pending);
        assert_eq!(body, fresh[0]);
        let said = if keeps { "keep-alive" } else { "close" };
        assert!(head.contains(&format!("Connection: {said}\r\n")), "{head}");
        if keeps {
            send(&mut stream, &format!("GET {} HTTP/1.0\r\n\r\n", routes[2]));
            assert_eq!(read_response(&mut stream, &mut pending).1, fresh[2]);
        }
        assert!(closed_by_server(&mut stream), "HTTP/1.0 connection left open");
    }
    session.stop();
}

// Timing the server from outside is the point of this test; the clock
// never feeds a served byte.
#[allow(clippy::disallowed_methods)]
#[test]
fn idle_keep_alive_connections_never_pin_workers() {
    use std::time::{Duration, Instant};
    // An idle limit far beyond the assertions: only yielding can pass.
    let cfg =
        ServerConfig { workers: 4, read_timeout: Duration::from_secs(30), ..Default::default() };
    let (session, _) = two_show_session(cfg);
    let addr = session.addr();

    // Four clients, one per worker, each left idle after one request.
    let idle: Vec<TcpStream> = (0..4)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            send(&mut stream, "GET /collections HTTP/1.1\r\n\r\n");
            let (head, _) = read_response(&mut stream, &mut Vec::new());
            assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
            stream
        })
        .collect();

    // A fifth client is served at once: an idle worker yields to it.
    let started = Instant::now();
    let (status, body) = http_get(addr, "/collections");
    let waited = started.elapsed();
    assert!(status.contains("200 OK"), "{status}");
    assert_eq!(body, "{\"collections\":[\"shows\"]}");
    assert!(waited < Duration::from_secs(1), "fifth client waited {waited:?}");

    // Stopping does not wait for the idle clients to leave.
    let started = Instant::now();
    session.stop();
    let stopping = started.elapsed();
    assert!(stopping < Duration::from_secs(1), "stop took {stopping:?}");
    drop(idle);
}

/// `+` is a literal byte in a URL path (RFC 3986): only a form-encoded
/// query string reads it as a space, so `C++` and `C  ` are two keys.
#[test]
fn a_plus_in_an_entity_path_is_literal() {
    let entity = |key: &str, n: i64| FusedEntity {
        key: key.to_string(),
        record: Record::from_pairs(SourceId(0), RecordId(n as u64), vec![("N", Value::Int(n))]),
        member_count: 1,
        confidence: None,
    };
    let views = SharedViews::new();
    let entities = vec![entity("C++", 1), entity("C  ", 2)];
    views.publish("langs", CollectionSnapshot::from_entities(entities, IndexSpec::default()));
    let server = QueryServer::bind("127.0.0.1:0", views, ServerConfig::default()).expect("bind");
    for (path, key) in [("C++", "C++"), ("C%2B%2B", "C++"), ("C%20%20", "C  ")] {
        let (status, body) = http_get(server.addr(), &format!("/collections/langs/entity/{path}"));
        assert!(status.ends_with("200 OK"), "{path}: {status}");
        assert!(body.starts_with(&format!("{{\"key\":\"{key}\",")), "{path}: {body}");
    }
    server.stop();
}
