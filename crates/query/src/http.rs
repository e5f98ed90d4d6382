//! Hand-rolled HTTP/1.1 front end over published collection snapshots.
//!
//! No registry dependencies: requests are parsed byte-by-byte off a
//! `std::net::TcpListener`, like the persist encoding hand-rolls its
//! framing. A bounded worker pool serves connections, and every response
//! is rendered from an immutable [`CollectionSnapshot`] grabbed via one
//! `Arc` load — ingest publishes a *new* snapshot atomically, so readers
//! never observe a torn view and never block the pipeline.
//!
//! Routes (GET only):
//!
//! | route | payload |
//! |---|---|
//! | `/` or `/collections` | collection names |
//! | `/collections/{c}/stats` | snapshot + index + ingest counters |
//! | `/collections/{c}/entity/{key}` | point lookup by entity key |
//! | `/collections/{c}/query?...` | filter / project / aggregate |
//!
//! Query parameters: `where` (comma-separated `attr OP value` clauses,
//! ops `>=` `<=` `!=` `==` `=` `~=` (contains) `>` `<`, plus `has:attr`),
//! `project` (comma-separated attrs), `order` (`attr` or `attr:desc`),
//! `limit`, `agg` (`count` | `sum:attr` | `min:attr` | `max:attr` |
//! `group:attr`); any other parameter is a 400 — the planner alone picks
//! probe vs scan. Values parse as JSON-ish scalars (`null`, booleans,
//! numbers, else strings; quotes optional). Responses are `application/json`, rendered with a
//! deterministic serializer so equal results are byte-equal bodies.

use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use datatamer_model::Value;

use crate::ast::{Aggregate, Order, Predicate, Query, QueryResult};
use crate::exec::CollectionSnapshot;

/// Tunables for [`QueryServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Per-read socket timeout (slow clients are dropped, not waited on).
    pub read_timeout: Duration,
    /// Hard cap on request size in bytes.
    pub max_request_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            read_timeout: Duration::from_millis(2000),
            max_request_bytes: 16 * 1024,
        }
    }
}

/// The registry of published snapshots, shared between ingest (writer)
/// and the server (readers). Publishing swaps an `Arc`, so a reader
/// either sees the whole old snapshot or the whole new one.
#[derive(Clone, Default)]
pub struct SharedViews {
    inner: Arc<RwLock<BTreeMap<String, Arc<CollectionSnapshot>>>>,
}

impl SharedViews {
    /// An empty registry.
    pub fn new() -> Self {
        SharedViews::default()
    }

    /// Atomically publish (or replace) a collection's snapshot.
    pub fn publish(&self, name: impl Into<String>, snapshot: CollectionSnapshot) {
        self.inner.write().insert(name.into(), Arc::new(snapshot));
    }

    /// The current snapshot of a collection.
    pub fn get(&self, name: &str) -> Option<Arc<CollectionSnapshot>> {
        self.inner.read().get(name).cloned()
    }

    /// Published collection names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner.read().keys().cloned().collect()
    }
}

/// A running HTTP server; dropped connections and worker threads are
/// reaped by [`QueryServer::stop`].
pub struct QueryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl QueryServer {
    /// Bind and start serving `views` on `addr` (use port 0 for an
    /// ephemeral port; the bound address is [`QueryServer::addr`]).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        views: SharedViews,
        cfg: ServerConfig,
    ) -> std::io::Result<QueryServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::with_capacity(cfg.workers + 1);
        for _ in 0..cfg.workers.max(1) {
            let rx = Arc::clone(&rx);
            let views = views.clone();
            let cfg = cfg.clone();
            // dtlint::allow(thread-spawn, reason = "serving worker pool; request handling is read-only over immutable snapshots and never feeds back into pipeline output")
            threads.push(std::thread::spawn(move || loop {
                let next = rx.lock().recv();
                match next {
                    Ok(stream) => serve_connection(stream, &views, &cfg),
                    Err(_) => break,
                }
            }));
        }
        let accept_stop = Arc::clone(&stop);
        // dtlint::allow(thread-spawn, reason = "accept loop for the serving front end; not part of pipeline computation")
        threads.push(std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
            }
        }));
        Ok(QueryServer { addr, stop, threads })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain workers, and join every thread.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

// Wall-clock here is intentional and serving-only: socket timeouts and the
// drip-feed deadline bound how long a slow client can hold a worker. The
// clock never influences which rows a query returns.
#[allow(clippy::disallowed_methods)]
fn serve_connection(mut stream: TcpStream, views: &SharedViews, cfg: &ServerConfig) {
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.read_timeout));
    // dtlint::allow(wall-clock, reason = "connection read deadline against drip-feeding clients; never influences query results")
    let started = std::time::Instant::now();
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    // Read until the end of the request head; the per-read socket timeout
    // bounds each read and the deadline bounds the whole request, so a
    // stalled or drip-feeding client is dropped instead of waited on.
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n")
            || buf.len() > cfg.max_request_bytes
            || started.elapsed() > cfg.read_timeout.saturating_mul(2)
        {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let response = match parse_request(&buf) {
        Some((method, target)) if method == "GET" => route(&target, views),
        Some(_) => error_response(405, "only GET is supported"),
        None => error_response(400, "malformed request"),
    };
    let _ = stream.write_all(&response);
    let _ = stream.flush();
}

/// Extract `(method, target)` from the request line.
fn parse_request(buf: &[u8]) -> Option<(String, String)> {
    let head = buf.split(|&b| b == b'\r').next()?;
    let line = std::str::from_utf8(head).ok()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?.to_string();
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    Some((method, target))
}

fn route(target: &str, views: &SharedViews) -> Vec<u8> {
    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let segs: Vec<String> =
        path.split('/').filter(|s| !s.is_empty()).map(percent_decode).collect();
    match segs.as_slice() {
        [] => ok_response(&render_collections(views)),
        [c] if c == "collections" => ok_response(&render_collections(views)),
        [c, name, tail @ ..] if c == "collections" => {
            let Some(snap) = views.get(name) else {
                return error_response(404, &format!("no collection {name:?}"));
            };
            match tail {
                [s] if s == "stats" => ok_response(&render_stats(name, &snap)),
                [e, key] if e == "entity" => match snap.point_lookup(key) {
                    Some(entity) => ok_response(&render_entity(entity)),
                    None => error_response(404, &format!("no entity {key:?}")),
                },
                [q] if q == "query" => match parse_query(query_string) {
                    Ok(query) => {
                        let run = snap.execute(&query);
                        ok_response(&render_result(&run.result, run.plan.name(), run.candidates))
                    }
                    Err(e) => error_response(400, &e),
                },
                _ => error_response(404, "unknown route"),
            }
        }
        _ => error_response(404, "unknown route"),
    }
}

// ---------------------------------------------------------------- parsing

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| -> Option<u8> {
                    match b {
                        b'0'..=b'9' => Some(b - b'0'),
                        b'a'..=b'f' => Some(b - b'a' + 10),
                        b'A'..=b'F' => Some(b - b'A' + 10),
                        _ => None,
                    }
                };
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(h), Some(l)) => {
                        out.push(h * 16 + l);
                        i += 2;
                    }
                    _ => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// `key=value&key=value` → decoded pairs.
fn query_params(qs: &str) -> Vec<(String, String)> {
    qs.split('&')
        .filter(|p| !p.is_empty())
        .map(|p| match p.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(p), String::new()),
        })
        .collect()
}

/// Parse a scalar operand: `null`, booleans, integers, floats, else a
/// string (surrounding quotes stripped).
fn parse_operand(raw: &str) -> Value {
    let s = raw.trim();
    match s {
        "null" => return Value::Null,
        "true" => return Value::Bool(true),
        "false" => return Value::Bool(false),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = s.parse::<f64>() {
        return Value::Float(f);
    }
    let unquoted = s
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .or_else(|| s.strip_prefix('\'').and_then(|t| t.strip_suffix('\'')))
        .unwrap_or(s);
    Value::Str(unquoted.to_string())
}

fn parse_clause(clause: &str) -> Result<Predicate, String> {
    let c = clause.trim();
    if c.is_empty() {
        return Err("empty where clause".to_string());
    }
    if let Some(attr) = c.strip_prefix("has:") {
        return Ok(Predicate::Exists(attr.trim().to_string()));
    }
    // Two-char operators first so `>=` does not parse as `>` + `=...`.
    for (op, make) in [
        (">=", Predicate::Gte as fn(String, Value) -> Predicate),
        ("<=", Predicate::Lte),
        ("!=", Predicate::Ne),
        ("==", Predicate::Eq),
        ("~=", |a, v: Value| Predicate::Contains(a, v.to_text())),
        (">", Predicate::Gt),
        ("<", Predicate::Lt),
        ("=", Predicate::Eq),
    ] {
        if let Some(idx) = c.find(op) {
            let (attr, rest) = c.split_at(idx);
            let attr = attr.trim();
            let operand = &rest[op.len()..];
            if attr.is_empty() {
                return Err(format!("missing attribute in clause {c:?}"));
            }
            return Ok(make(attr.to_string(), parse_operand(operand)));
        }
    }
    Err(format!("no operator in clause {c:?}"))
}

fn parse_query(qs: &str) -> Result<Query, String> {
    let mut q = Query::default();
    for (k, v) in query_params(qs) {
        match k.as_str() {
            "where" => {
                let mut clauses = Vec::new();
                for part in v.split(',').filter(|p| !p.trim().is_empty()) {
                    clauses.push(parse_clause(part)?);
                }
                q.filter = match clauses.len() {
                    0 => Predicate::True,
                    1 => clauses.pop().unwrap_or(Predicate::True),
                    _ => Predicate::And(clauses),
                };
            }
            "project" => {
                q.project =
                    v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
            }
            "order" => {
                let (attr, dir) = match v.split_once(':') {
                    Some((a, d)) => (a, d),
                    None => (v.as_str(), "asc"),
                };
                let order = match dir {
                    "desc" => Order::Desc,
                    "asc" => Order::Asc,
                    other => return Err(format!("bad order direction {other:?}")),
                };
                q.order_by = Some((attr.trim().to_string(), order));
            }
            "limit" => {
                q.limit =
                    Some(v.parse::<usize>().map_err(|_| format!("bad limit {v:?}"))?);
            }
            "agg" => {
                q.aggregate = Some(match v.split_once(':') {
                    None if v == "count" => Aggregate::Count,
                    Some(("sum", a)) => Aggregate::Sum(a.to_string()),
                    Some(("min", a)) => Aggregate::Min(a.to_string()),
                    Some(("max", a)) => Aggregate::Max(a.to_string()),
                    Some(("group", a)) => Aggregate::GroupBy(a.to_string()),
                    _ => return Err(format!("bad agg {v:?}")),
                });
            }
            other => return Err(format!("unknown parameter {other:?}")),
        }
    }
    Ok(q)
}

// -------------------------------------------------------------- rendering

/// Deterministic JSON string escape.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Deterministic JSON rendering of a [`Value`]. Non-finite floats have no
/// JSON encoding; they render as tagged strings.
pub fn json_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) if f.is_finite() => format!("{f}"),
        Value::Float(f) => format!("\"{f}\""),
        Value::Str(s) => format!("\"{}\"", json_escape(s)),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(json_value).collect();
            format!("[{}]", inner.join(","))
        }
        Value::Doc(d) => {
            let inner: Vec<String> = d
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_value(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

fn render_collections(views: &SharedViews) -> String {
    let names: Vec<String> =
        views.names().iter().map(|n| format!("\"{}\"", json_escape(n))).collect();
    format!("{{\"collections\":[{}]}}", names.join(","))
}

fn render_stats(name: &str, snap: &CollectionSnapshot) -> String {
    let s = snap.stats();
    let mut counters: Vec<String> = s
        .index
        .counter_pairs()
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    counters.extend(s.counters.iter().map(|(k, v)| format!("\"{}\":{v}", json_escape(k))));
    format!(
        "{{\"collection\":\"{}\",\"entities\":{},\"revision\":{},\"counters\":{{{}}}}}",
        json_escape(name),
        s.entities,
        s.revision,
        counters.join(","),
    )
}

fn render_entity(e: &datatamer_core::fusion::FusedEntity) -> String {
    let fields: Vec<String> = e
        .record
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_value(v)))
        .collect();
    let confidence = match e.confidence {
        Some(c) => json_value(&Value::Float(c)),
        None => "null".to_string(),
    };
    format!(
        "{{\"key\":\"{}\",\"member_count\":{},\"confidence\":{},\"record\":{{{}}}}}",
        json_escape(&e.key),
        e.member_count,
        confidence,
        fields.join(","),
    )
}

/// Render an executed result. Equal [`QueryResult`]s render to byte-equal
/// bodies (the serving test's no-torn-reads pin relies on this).
pub fn render_result(result: &QueryResult, plan: &str, candidates: usize) -> String {
    let head = format!("\"plan\":\"{plan}\",\"candidates\":{candidates}");
    match result {
        QueryResult::Count(n) => format!("{{{head},\"count\":{n}}}"),
        QueryResult::Value(v) => {
            let rendered = match v {
                Some(v) => json_value(v),
                None => "null".to_string(),
            };
            format!("{{{head},\"value\":{rendered}}}")
        }
        QueryResult::Groups(groups) => {
            let inner: Vec<String> = groups
                .iter()
                .map(|(v, n)| format!("{{\"value\":{},\"count\":{n}}}", json_value(v)))
                .collect();
            format!("{{{head},\"groups\":[{}]}}", inner.join(","))
        }
        QueryResult::Rows(rows) => {
            let inner: Vec<String> = rows
                .iter()
                .map(|r| {
                    let fields: Vec<String> = r
                        .fields
                        .iter()
                        .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_value(v)))
                        .collect();
                    format!(
                        "{{\"key\":\"{}\",\"member_count\":{},\"fields\":{{{}}}}}",
                        json_escape(&r.key),
                        r.member_count,
                        fields.join(","),
                    )
                })
                .collect();
            format!("{{{head},\"rows\":[{}]}}", inner.join(","))
        }
    }
}

fn http_response(status: u16, reason: &str, body: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len(),
        )
        .as_bytes(),
    );
    out.extend_from_slice(body.as_bytes());
    out
}

fn ok_response(body: &str) -> Vec<u8> {
    http_response(200, "OK", body)
}

fn error_response(status: u16, message: &str) -> Vec<u8> {
    let reason = match status {
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    http_response(status, reason, &format!("{{\"error\":\"{}\"}}", json_escape(message)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_and_clause_parsing() {
        assert_eq!(parse_operand("42"), Value::Int(42));
        assert_eq!(parse_operand("4.5"), Value::Float(4.5));
        assert_eq!(parse_operand("null"), Value::Null);
        assert_eq!(parse_operand("\"42\""), Value::from("42"));
        assert_eq!(parse_operand("musical"), Value::from("musical"));
        assert_eq!(
            parse_clause("PRICE>=20").unwrap(),
            Predicate::Gte("PRICE".into(), Value::Int(20)),
        );
        assert_eq!(
            parse_clause("KIND=musical").unwrap(),
            Predicate::Eq("KIND".into(), Value::from("musical")),
        );
        assert_eq!(parse_clause("has:PRICE").unwrap(), Predicate::Exists("PRICE".into()));
        assert!(parse_clause("PRICE").is_err());
    }

    #[test]
    fn query_string_parsing() {
        let q = parse_query("where=PRICE>10,KIND=play&order=PRICE:desc&limit=3").unwrap();
        assert_eq!(
            q.filter,
            Predicate::And(vec![
                Predicate::Gt("PRICE".into(), Value::Int(10)),
                Predicate::Eq("KIND".into(), Value::from("play")),
            ]),
        );
        assert_eq!(q.order_by, Some(("PRICE".to_string(), Order::Desc)));
        assert_eq!(q.limit, Some(3));
        assert!(parse_query("nope=1").is_err());
        let q = parse_query("agg=group:KIND").unwrap();
        assert_eq!(q.aggregate, Some(Aggregate::GroupBy("KIND".into())));

        // The planner alone chooses the plan: the old scan-mode override is
        // an unknown parameter like any other.
        let views = SharedViews::new();
        views.publish(
            "c",
            CollectionSnapshot::from_entities(Vec::new(), crate::view::IndexSpec::default()),
        );
        for mode in ["columnar", "full"] {
            let qs = format!("where=KIND=play&mode={mode}");
            assert!(parse_query(&qs).is_err());
            let resp = route(&format!("/collections/c/query?{qs}"), &views);
            assert!(resp.starts_with(b"HTTP/1.1 400 "), "mode={mode} must be rejected");
        }
        let ok = route("/collections/c/query?where=KIND=play", &views);
        assert!(ok.starts_with(b"HTTP/1.1 200 "));
    }

    #[test]
    fn json_rendering_is_escaped() {
        let v = Value::Array(vec![
            Value::from("he said \"hi\"\n"),
            Value::Int(3),
            Value::Float(2.5),
            Value::Null,
        ]);
        assert_eq!(json_value(&v), "[\"he said \\\"hi\\\"\\n\",3,2.5,null]");
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c%3D"), "a b c=");
        assert_eq!(percent_decode("100%"), "100%");
    }
}
