//! Hand-rolled HTTP/1.1 front end over published collection snapshots.
//!
//! No registry dependencies: requests are parsed byte-by-byte off a
//! `std::net::TcpListener`, like the storage encoding hand-rolls its
//! framing. A bounded worker pool serves connections, and every response
//! is rendered from an immutable [`CollectionSnapshot`] grabbed via one
//! `Arc` load — ingest publishes a *new* snapshot atomically, so readers
//! never observe a torn view and never block the pipeline.
//!
//! Connection lifecycle. A worker serves requests on one connection in a
//! loop (`TCP_NODELAY` set):
//!
//! * **Keep-alive.** HTTP/1.1 connections stay open unless the client
//!   sends `Connection: close`; HTTP/1.0 ones close unless it sends
//!   `Connection: keep-alive`. A request with a body closes (bodies are
//!   never read). Every response says `Connection: keep-alive` or
//!   `Connection: close`, and the server does what it says.
//! * **Pipelining.** Bytes read past one request head are the start of
//!   the next; responses go out in request order.
//! * **Incomplete heads are never routed.** A head cut off by EOF or not
//!   complete within `read_timeout` gets `400`, one larger than
//!   `max_request_bytes` gets `431`, both with `Connection: close`.
//! * **Yielding.** Between requests the worker reads in 20 ms slices and
//!   gives the connection up when the server is stopping or another
//!   accepted connection is waiting for a worker (one `AtomicUsize`
//!   counts those). A response written while one waits says `Connection:
//!   close`, so no worker holds a connection while another waits.
//! * **Idle limit.** A connection silent for longer than
//!   [`ServerConfig::read_timeout`] between requests is closed.
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
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use datatamer_model::Value;

use crate::ast::{Aggregate, Order, Predicate, Query, QueryResult};
use crate::exec::CollectionSnapshot;

/// Tunables for [`QueryServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// How long a connection may stay silent between requests (the
    /// keep-alive idle limit), and how long one request head may take to
    /// arrive; also the write timeout. Slow clients are dropped, not
    /// waited on.
    pub read_timeout: Duration,
    /// Hard cap on a request head's size in bytes.
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

/// Between requests a worker reads in slices this long, so it notices
/// within one slice that the server is stopping or that an accepted
/// connection is waiting for a worker.
const READ_SLICE: Duration = Duration::from_millis(20);

/// What every worker shares with the accept loop.
struct Worker {
    views: SharedViews,
    cfg: ServerConfig,
    stop: Arc<AtomicBool>,
    /// Accepted connections not yet taken by a worker.
    waiting: Arc<AtomicUsize>,
}

impl Worker {
    /// Whether the current connection should be given up for another.
    fn should_yield(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || self.waiting.load(Ordering::SeqCst) > 0
    }
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
        let waiting = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::with_capacity(cfg.workers + 1);
        for _ in 0..cfg.workers.max(1) {
            let rx = Arc::clone(&rx);
            let worker = Worker {
                views: views.clone(),
                cfg: cfg.clone(),
                stop: Arc::clone(&stop),
                waiting: Arc::clone(&waiting),
            };
            // dtlint::allow(thread-spawn, reason = "serving worker pool; request handling is read-only over immutable snapshots and never feeds back into pipeline output")
            threads.push(std::thread::spawn(move || loop {
                let next = rx.lock().recv();
                match next {
                    Ok(stream) => {
                        worker.waiting.fetch_sub(1, Ordering::SeqCst);
                        serve_connection(stream, &worker);
                    }
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
                    waiting.fetch_add(1, Ordering::SeqCst);
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

    /// Stop accepting, drain workers, and join every thread. Idle
    /// keep-alive connections are closed within one read slice.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

// Wall-clock here is intentional and serving-only: the idle limit and the
// head deadline bound how long a silent or drip-feeding client can hold a
// worker. The clock never influences which rows a query returns.
#[allow(clippy::disallowed_methods)]
fn now() -> Instant {
    // dtlint::allow(wall-clock, reason = "connection idle limit and head deadline against slow clients; never influences query results")
    Instant::now()
}

/// Serve requests on one connection until either side ends it.
fn serve_connection(mut stream: TcpStream, worker: &Worker) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_SLICE));
    let _ = stream.set_write_timeout(Some(worker.cfg.read_timeout));
    // Bytes read but not yet consumed: the start of the next request head,
    // and with pipelining possibly more requests after it.
    let mut buf = Vec::with_capacity(1024);
    loop {
        let (reply, wants_keep_alive) = match next_head(&mut stream, &mut buf, worker) {
            Ok(None) => return,
            Ok(Some(len)) => {
                let reply = match parse_head(&buf[..len]) {
                    Ok(head) if head.method == "GET" => {
                        (route(head.target, &worker.views), head.keep_alive)
                    }
                    Ok(_) => (Reply::error(405, "only GET is supported"), false),
                    Err(why) => (Reply::error(400, why), false),
                };
                buf.drain(..len);
                reply
            }
            Err(reply) => (reply, false),
        };
        let keep_alive = wants_keep_alive && !worker.should_yield();
        if stream.write_all(&reply.to_bytes(keep_alive)).is_err() {
            return;
        }
        if !keep_alive {
            // Half-close, then discard what the client still sends (one
            // slice, bounded), so unread input does not turn the close into
            // a reset that destroys the response in flight.
            let _ = stream.shutdown(Shutdown::Write);
            let mut sink = [0u8; 4096];
            let mut budget = worker.cfg.max_request_bytes;
            while let Ok(n @ 1..) = stream.read(&mut sink) {
                budget = budget.saturating_sub(n);
                if budget == 0 {
                    break;
                }
            }
            return;
        }
    }
}

/// Read until `buf` starts with a complete request head and return the
/// head's length. `Ok(None)` ends the connection quietly: the client
/// closed it or went silent between requests, or the worker yields it.
/// `Err` is the reply for a head that cannot complete — cut off by EOF,
/// larger than `max_request_bytes`, or slower than `read_timeout`.
fn next_head(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    worker: &Worker,
) -> Result<Option<usize>, Reply> {
    let cfg = &worker.cfg;
    let incomplete = || Reply::error(400, "incomplete request head");
    // Idle since, while `buf` is empty; else when this head began.
    let mut since = now();
    let mut scanned = 0;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(at) = buf[scanned..].windows(4).position(|w| w == b"\r\n\r\n") {
            let len = scanned + at + 4;
            if len > cfg.max_request_bytes {
                return Err(Reply::error(431, "request head too large"));
            }
            return Ok(Some(len));
        }
        if buf.len() > cfg.max_request_bytes {
            return Err(Reply::error(431, "request head too large"));
        }
        scanned = buf.len().saturating_sub(3);
        match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return Ok(None),
            Ok(0) => return Err(incomplete()),
            Ok(n) => {
                if buf.is_empty() {
                    since = now();
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if (buf.is_empty() && worker.should_yield()) || worker.stop.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(_) => return Ok(None),
        }
        if since.elapsed() > cfg.read_timeout {
            return if buf.is_empty() { Ok(None) } else { Err(incomplete()) };
        }
    }
}

/// The parts of a request head the server acts on.
struct Head<'a> {
    method: &'a str,
    target: &'a str,
    /// Whether the client lets the connection stay open after the reply:
    /// HTTP/1.1 unless it sent `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`, and never for a request with a body
    /// (bodies are not read, so their bytes would pose as the next head).
    keep_alive: bool,
}

/// Parse a complete head (request line, header lines, blank line).
fn parse_head(head: &[u8]) -> Result<Head<'_>, &'static str> {
    let text = std::str::from_utf8(head).map_err(|_| "request head is not UTF-8")?;
    let mut lines = text.split("\r\n");
    let mut parts = lines.next().unwrap_or_default().split_whitespace();
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err("malformed request line");
    };
    if !version.starts_with("HTTP/1.") {
        return Err("unsupported protocol version");
    }
    let (mut close, mut asked_keep_alive, mut has_body) = (false, false, false);
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line.split_once(':').ok_or("malformed header line")?;
        let name = name.trim();
        if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',').map(str::trim) {
                close |= token.eq_ignore_ascii_case("close");
                asked_keep_alive |= token.eq_ignore_ascii_case("keep-alive");
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding")
            || (name.eq_ignore_ascii_case("content-length") && value.trim() != "0")
        {
            has_body = true;
        }
    }
    let keep_alive = !close && !has_body && (version != "HTTP/1.0" || asked_keep_alive);
    Ok(Head { method, target, keep_alive })
}

fn route(target: &str, views: &SharedViews) -> Reply {
    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let segs: Vec<String> =
        path.split('/').filter(|s| !s.is_empty()).map(percent_decode).collect();
    match segs.as_slice() {
        [] => Reply::ok(render_collections(views)),
        [c] if c == "collections" => Reply::ok(render_collections(views)),
        [c, name, tail @ ..] if c == "collections" => {
            let Some(snap) = views.get(name) else {
                return Reply::error(404, &format!("no collection {name:?}"));
            };
            match tail {
                [s] if s == "stats" => Reply::ok(render_stats(name, &snap)),
                [e, key] if e == "entity" => match snap.point_lookup(key) {
                    Some(entity) => Reply::ok(render_entity(entity)),
                    None => Reply::error(404, &format!("no entity {key:?}")),
                },
                [q] if q == "query" => match parse_query(query_string) {
                    Ok(query) => {
                        let run = snap.execute(&query);
                        Reply::ok(render_result(&run.result, run.plan.name(), run.candidates))
                    }
                    Err(e) => Reply::error(400, &e),
                },
                _ => Reply::error(404, "unknown route"),
            }
        }
        _ => Reply::error(404, "unknown route"),
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

/// `key=value&key=value` → (decoded key, still-encoded value) pairs. The
/// value stays raw so list parameters can split on a literal `,` before
/// decoding: an encoded `%2C` then stays inside its item.
fn query_params(qs: &str) -> Vec<(String, &str)> {
    qs.split('&')
        .filter(|p| !p.is_empty())
        .map(|p| {
            let (k, v) = p.split_once('=').unwrap_or((p, ""));
            (percent_decode(k), v)
        })
        .collect()
}

/// The non-blank items of a raw comma-separated parameter, each decoded.
fn decoded_items(raw: &str) -> impl Iterator<Item = String> + '_ {
    raw.split(',').map(percent_decode).filter(|item| !item.trim().is_empty())
}

/// Parse a scalar operand: `null`, booleans, integers, finite floats, else
/// a string (surrounding quotes stripped). JSON has no infinities or NaN,
/// so `inf`, `Infinity` and `nan` stay strings.
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
    if let Some(f) = s.parse::<f64>().ok().filter(|f| f.is_finite()) {
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
    // The clause splits at its leftmost operator, so an operand may itself
    // contain operator characters (`TITLE=a<b`). Two-char operators are
    // listed first so that at one position `>=` wins over `>` + `=...`.
    let ops = [
        (">=", Predicate::Gte as fn(String, Value) -> Predicate),
        ("<=", Predicate::Lte),
        ("!=", Predicate::Ne),
        ("==", Predicate::Eq),
        ("~=", |a, v: Value| Predicate::Contains(a, v.to_text())),
        (">", Predicate::Gt),
        ("<", Predicate::Lt),
        ("=", Predicate::Eq),
    ];
    let split = c.char_indices().find_map(|(idx, _)| {
        ops.iter().find(|(op, _)| c[idx..].starts_with(op)).map(|&(op, make)| (idx, op, make))
    });
    let Some((idx, op, make)) = split else {
        return Err(format!("no operator in clause {c:?}"));
    };
    let attr = c[..idx].trim();
    if attr.is_empty() {
        return Err(format!("missing attribute in clause {c:?}"));
    }
    Ok(make(attr.to_string(), parse_operand(&c[idx + op.len()..])))
}

fn parse_query(qs: &str) -> Result<Query, String> {
    let mut q = Query::default();
    for (k, raw) in query_params(qs) {
        let v = percent_decode(raw);
        match k.as_str() {
            "where" => {
                let mut clauses = Vec::new();
                for part in decoded_items(raw) {
                    clauses.push(parse_clause(&part)?);
                }
                q.filter = match clauses.len() {
                    0 => Predicate::True,
                    1 => clauses.pop().unwrap_or(Predicate::True),
                    _ => Predicate::And(clauses),
                };
            }
            "project" => {
                q.project = decoded_items(raw).map(|item| item.trim().to_string()).collect();
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

/// A response before its head is rendered: whether the connection stays
/// open is decided only when it is written.
struct Reply {
    status: u16,
    body: String,
}

impl Reply {
    fn ok(body: String) -> Reply {
        Reply { status: 200, body }
    }

    fn error(status: u16, message: &str) -> Reply {
        Reply { status, body: format!("{{\"error\":\"{}\"}}", json_escape(message)) }
    }

    /// The bytes on the wire; `Connection` says truthfully whether the
    /// server keeps the connection open after this response.
    fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            431 => "Request Header Fields Too Large",
            _ => "Error",
        };
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut out = Vec::with_capacity(self.body.len() + 128);
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
                self.status,
                self.body.len(),
            )
            .as_bytes(),
        );
        out.extend_from_slice(self.body.as_bytes());
        out
    }
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
        // JSON has no non-finite numbers: these words stay strings.
        assert_eq!(parse_operand("Infinity"), Value::from("Infinity"));
        assert_eq!(parse_operand("nan"), Value::from("nan"));
        assert_eq!(parse_operand("-inf"), Value::from("-inf"));
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
        assert!(parse_clause("=x").is_err());

        // The leftmost operator splits the clause; operator characters
        // later on belong to the operand.
        assert_eq!(
            parse_clause("TITLE=a<b").unwrap(),
            Predicate::Eq("TITLE".into(), Value::from("a<b")),
        );
        assert_eq!(
            parse_clause("NAME=x>=y").unwrap(),
            Predicate::Eq("NAME".into(), Value::from("x>=y")),
        );
        assert_eq!(
            parse_clause("NAME=a~=b").unwrap(),
            Predicate::Eq("NAME".into(), Value::from("a~=b")),
        );

        // The clause shapes the benchmark client sends.
        assert_eq!(
            parse_clause("GENRE=musical").unwrap(),
            Predicate::Eq("GENRE".into(), Value::from("musical")),
        );
        assert_eq!(
            parse_clause("PRICE>=40").unwrap(),
            Predicate::Gte("PRICE".into(), Value::Int(40)),
        );
        assert_eq!(
            parse_clause("SHOW_NAME~=matilda").unwrap(),
            Predicate::Contains("SHOW_NAME".into(), "matilda".into()),
        );
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

        // An encoded comma belongs to its clause; only a literal one splits.
        let q = parse_query("where=NAME=Smith%2C%20John").unwrap();
        assert_eq!(q.filter, Predicate::Eq("NAME".into(), Value::from("Smith, John")));
        let q = parse_query("project=A%2CB,C").unwrap();
        assert_eq!(q.project, vec!["A,B".to_string(), "C".to_string()]);

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
            assert_eq!(resp.status, 400, "mode={mode} must be rejected");
        }
        let ok = route("/collections/c/query?where=KIND=play", &views);
        assert_eq!(ok.status, 200);
    }

    #[test]
    fn heads_decide_keep_alive() {
        let keeps = |head: &str| parse_head(head.as_bytes()).map(|h| h.keep_alive);
        assert_eq!(keeps("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), Ok(true));
        assert_eq!(keeps("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"), Ok(false));
        assert_eq!(keeps("GET / HTTP/1.0\r\n\r\n"), Ok(false));
        assert_eq!(keeps("GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n"), Ok(true));
        assert_eq!(keeps("GET / HTTP/1.0\r\nConnection: close, keep-alive\r\n\r\n"), Ok(false));
        assert_eq!(keeps("GET / HTTP/1.1\r\nContent-Length: 3\r\n\r\n"), Ok(false));
        assert_eq!(keeps("GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n"), Ok(true));
        assert!(keeps("GET / HTTP/2\r\n\r\n").is_err());
        assert!(keeps("GET /\r\n\r\n").is_err());
        assert!(keeps("GET / HTTP/1.1\r\nno colon\r\n\r\n").is_err());
        let reply = Reply::error(431, "too large").to_bytes(false);
        assert!(reply.starts_with(b"HTTP/1.1 431 Request Header Fields Too Large\r\n"));
        assert!(reply.windows(19).any(|w| w == b"Connection: close\r\n"));
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
