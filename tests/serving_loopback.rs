//! End-to-end serving pin over a real loopback socket: the HTTP front
//! end stays up and well-formed while delta ingest republishes snapshots
//! under it, and once ingest settles, the bytes it serves are identical
//! to what a from-scratch rebuild of the view would serve — readers can
//! never tell the incremental path apart from a full rebuild.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use datatamer::core::fusion::{BlockedErConfig, GroupingStrategy};
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

/// One blocking GET; returns `(status_line, body)`. The server sends
/// `Connection: close`, so reading to EOF terminates.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: loopback\r\n\r\n").expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("recv");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
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
