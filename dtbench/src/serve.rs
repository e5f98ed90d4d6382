//! The serving workloads: `serve_read` (closed-loop reads over a static
//! snapshot), `serve_ingest` (a writer applying delta batches beside an
//! open-loop reader) and `restart` (rebuild from the sources plus the
//! write-ahead log until the pre-kill snapshot is served again).

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use datatamer_core::fusion::{BlockedErConfig, FusedEntity, GroupingStrategy};
use datatamer_core::{DataTamer, DataTamerConfig, DeltaLogConfig, PipelinePlan};
use datatamer_model::{Record, Value};
use datatamer_query::http::{json_value, render_result, QueryServer, ServerConfig, SharedViews};
use datatamer_query::view::{CollectionView, IndexSpec};
use datatamer_query::{
    execute_oracle, Aggregate, CollectionSnapshot, Order, PlanKind, Predicate, Query, QueryResult,
};

use crate::batch::fused_fingerprint;
use crate::gen::{
    Catalogue, DeltaStream, Fingerprint, Rng, Zipf, GENRE, GENRES, MAX_PRICE, PRICE, SHOW_NAME,
    THEATER,
};
use crate::http::{encode, Client, Response};
use crate::layers::wal_replay;
use crate::spec::{first_set_up, Outcome, Sizing};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::RunArgs;

const COLLECTION: &str = "shows";
const REBUILD: &str = "rebuild";
/// Requests compared between the live and the rebuilt collection after
/// the last delta.
const FINAL_PASS: usize = 200;
/// One served body in this many is compared with the in-process oracle.
const ORACLE_EVERY: u64 = 64;

fn index_spec() -> IndexSpec {
    IndexSpec::default().hash_on(GENRE).ordered_on(PRICE)
}

/// The serving configuration. A log path names a log that starts empty
/// with the system: a file an earlier run left there is removed.
fn config(log: Option<&Path>) -> DataTamerConfig {
    if let Some(path) = log {
        let _ = std::fs::remove_file(path);
    }
    DataTamerConfig {
        grouping: GroupingStrategy::BlockedEr(BlockedErConfig {
            incremental: true,
            ..Default::default()
        }),
        delta_log: log.map(DeltaLogConfig::at),
        ..Default::default()
    }
}

// ------------------------------------------------------------ the system

/// A resident Data Tamer plus the view it publishes from.
struct System {
    dt: DataTamer,
    view: CollectionView,
    views: SharedViews,
}

/// When each step of one publication ended, from `start`.
struct Published {
    start: Instant,
    synced: Instant,
    snapshotted: Instant,
    published: Instant,
}

impl Published {
    /// The three steps as spans of operation `op` under `parent`.
    fn record(&self, tracer: &mut Tracer, parent: usize, op: u64) {
        tracer.record("query.sync", Some(parent), op, self.start, self.synced);
        tracer.record(
            "query.snapshot",
            Some(parent),
            op,
            self.synced,
            self.snapshotted,
        );
        tracer.record(
            "query.publish",
            Some(parent),
            op,
            self.snapshotted,
            self.published,
        );
    }
}

impl System {
    /// A fresh system and its base run over `records`; nothing is
    /// published yet.
    fn start(
        config: DataTamerConfig,
        records: &[Record],
        views: SharedViews,
    ) -> Result<System, String> {
        let mut dt = DataTamer::new(config);
        dt.run(PipelinePlan::new().structured("catalogue", records))
            .map_err(|e| e.to_string())?;
        Ok(System {
            dt,
            view: CollectionView::new(index_spec()),
            views,
        })
    }

    /// Index sync, snapshot, atomic swap: after this a reader sees the
    /// pipeline's current fused output.
    fn publish(&mut self, name: &str) -> Published {
        let start = Instant::now();
        let ctx = self.dt.context();
        self.view
            .sync(&ctx.fused, &ctx.fusion_groups, ctx.fused_changed.as_deref());
        let synced = Instant::now();
        let snapshot = self.view.snapshot(Vec::new());
        let snapshotted = Instant::now();
        self.views.publish(name, snapshot);
        Published {
            start,
            synced,
            snapshotted,
            published: Instant::now(),
        }
    }
}

// ------------------------------------------------------------ the traffic

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Point,
    Probe,
    Range,
    Scan,
    Stats,
}

impl Class {
    const ALL: [Class; 5] = [
        Class::Point,
        Class::Probe,
        Class::Range,
        Class::Scan,
        Class::Stats,
    ];

    fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Probe => "probe",
            Class::Range => "range",
            Class::Scan => "scan",
            Class::Stats => "stats",
        }
    }
}

/// What a correct response to a request holds.
enum Expect {
    Entity(String),
    Result(Query),
    Stats,
}

struct Request {
    class: Class,
    /// Path below `/collections/{name}`.
    tail: String,
    expect: Expect,
}

impl Request {
    fn path(&self, collection: &str) -> String {
        format!("/collections/{collection}{}", self.tail)
    }
}

/// The read mix: 50 % point lookups (keys zipf s=1), 25 % hash probes,
/// 10 % ordered ranges, 10 % analytic scans, 5 % stats.
struct Mix {
    rng: Rng,
    zipf: Zipf,
    keys: Vec<String>,
}

impl Mix {
    fn new(seed: u64, stream: u64, snapshot: &CollectionSnapshot) -> Mix {
        let keys: Vec<String> = snapshot.entities().iter().map(|e| e.key.clone()).collect();
        Mix {
            rng: Rng::new(seed, stream),
            zipf: Zipf::new(keys.len(), 1.0),
            keys,
        }
    }

    fn key(&mut self) -> &str {
        &self.keys[self.zipf.sample(&mut self.rng)]
    }

    fn next(&mut self) -> Request {
        let query = |class, params: String, q: Query| Request {
            class,
            tail: format!("/query?{params}"),
            expect: Expect::Result(q),
        };
        match self.rng.below(100) {
            0..=49 => {
                let key = self.key().to_string();
                Request {
                    class: Class::Point,
                    tail: format!("/entity/{}", encode(&key)),
                    expect: Expect::Entity(key),
                }
            }
            50..=74 => {
                let genre = GENRES[self.rng.below(GENRES.len())];
                query(
                    Class::Probe,
                    format!("where={}&limit=20", encode(&format!("{GENRE}={genre}"))),
                    Query::filtered(Predicate::Eq(GENRE.into(), Value::from(genre))).take(20),
                )
            }
            75..=84 => {
                let floor = 10 + self.rng.below((MAX_PRICE - 10) as usize) as i64;
                query(
                    Class::Range,
                    format!(
                        "where={}&order={}&limit=20",
                        encode(&format!("{PRICE}>={floor}")),
                        encode(&format!("{PRICE}:desc"))
                    ),
                    Query::filtered(Predicate::Gte(PRICE.into(), Value::Int(floor)))
                        .order_by(PRICE, Order::Desc)
                        .take(20),
                )
            }
            85..=89 => query(
                Class::Scan,
                format!("agg={}", encode(&format!("group:{THEATER}"))),
                Query::default().aggregate(Aggregate::GroupBy(THEATER.into())),
            ),
            90..=94 => {
                // A word of some entity's name: a substring scan with hits.
                let word = self.key().split(' ').next().unwrap_or("").to_string();
                query(
                    Class::Scan,
                    format!("where={}", encode(&format!("{SHOW_NAME}~={word}"))),
                    Query::filtered(Predicate::Contains(SHOW_NAME.into(), word)),
                )
            }
            _ => Request {
                class: Class::Stats,
                tail: "/stats".to_string(),
                expect: Expect::Stats,
            },
        }
    }
}

/// The entity body the server must send, rendered independently of it.
fn entity_body(e: &FusedEntity) -> String {
    let text = |s: &str| json_value(&Value::from(s));
    let fields: Vec<String> = e
        .record
        .iter()
        .map(|(k, v)| format!("{}:{}", text(k), json_value(v)))
        .collect();
    format!(
        "{{\"key\":{},\"member_count\":{},\"confidence\":{},\"record\":{{{}}}}}",
        text(&e.key),
        e.member_count,
        e.confidence
            .map_or("null".to_string(), |c| json_value(&Value::Float(c))),
        fields.join(","),
    )
}

/// `"name":value` read out of a JSON body's first occurrence.
fn body_field<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let rest = &body[body.find(&format!("\"{name}\":"))? + name.len() + 3..];
    Some(rest[..rest.find([',', '}'])?].trim_matches('"'))
}

/// Compare a served body with what the naive in-process oracle says.
fn check_against_oracle(
    request: &Request,
    response: &Response,
    snapshot: &CollectionSnapshot,
) -> Result<(), String> {
    let body = std::str::from_utf8(&response.body).map_err(|_| "body is not UTF-8".to_string())?;
    let expected = match &request.expect {
        Expect::Entity(key) => snapshot
            .entities()
            .iter()
            .find(|e| &e.key == key)
            .map(entity_body)
            .ok_or_else(|| format!("key {key:?} is not in the snapshot"))?,
        Expect::Result(q) => {
            // Plan and candidate count describe how, not what; take them
            // from the response and check only the result against the oracle.
            let plan = body_field(body, "plan").ok_or("no plan in body")?;
            let candidates: usize = body_field(body, "candidates")
                .and_then(|c| c.parse().ok())
                .ok_or("no candidates in body")?;
            render_result(&execute_oracle(snapshot.entities(), q), plan, candidates)
        }
        Expect::Stats => {
            let entities = body_field(body, "entities").and_then(|n| n.parse::<usize>().ok());
            return if entities == Some(snapshot.entities().len()) {
                Ok(())
            } else {
                Err(format!(
                    "stats report {entities:?} entities, snapshot has {}",
                    snapshot.entities().len()
                ))
            };
        }
    };
    if body == expected {
        Ok(())
    } else {
        Err(format!(
            "{} body differs from the oracle: {:.120} vs {:.120}",
            request.tail, body, expected
        ))
    }
}

/// One load-generating thread's record.
struct ReadLog {
    /// `(class, send → last byte, due → last byte)` in ms per request.
    requests: Vec<(Class, f64, f64)>,
    failures: Vec<String>,
    late: u64,
    connects: u64,
    tracer: Tracer,
}

impl ReadLog {
    fn new(origin: Instant) -> ReadLog {
        ReadLog {
            requests: Vec::new(),
            failures: Vec::new(),
            late: 0,
            connects: 0,
            tracer: Tracer::new(origin),
        }
    }
}

/// Send `request`, time it from `due`, record it. `oracle` is the static
/// snapshot to compare sampled bodies with; without one (the snapshot
/// moves under the reader) only the status is checked, and a point lookup
/// may find its entity merged away.
fn send(
    client: &mut Client,
    log: &mut ReadLog,
    request: &Request,
    due: Instant,
    oracle: Option<&CollectionSnapshot>,
    trace: bool,
) {
    let sent = Instant::now();
    let response = client.get(&request.path(COLLECTION));
    let done = Instant::now();
    let op = log.requests.len() as u64;
    log.requests.push((
        request.class,
        done.duration_since(sent).as_secs_f64() * 1e3,
        done.duration_since(due).as_secs_f64() * 1e3,
    ));
    if trace {
        log.tracer.record(
            &format!("http.{}", request.class.name()),
            None,
            op,
            sent,
            done,
        );
    }
    let verdict = match (&response, oracle) {
        (Err(e), _) => Err(format!("{}: {e}", request.tail)),
        (Ok(r), Some(snapshot)) if r.status == 200 => {
            if op.is_multiple_of(ORACLE_EVERY) {
                check_against_oracle(request, r, snapshot)
            } else {
                Ok(())
            }
        }
        (Ok(r), None) if r.status == 200 || (r.status == 404 && request.class == Class::Point) => {
            Ok(())
        }
        (Ok(r), _) => Err(format!("{}: status {}", request.tail, r.status)),
    };
    if let Err(why) = verdict {
        log.failures.push(why);
    }
}

/// Fold the threads' logs into the outcome; all requests and the merged trace.
fn absorb_logs(
    out: &mut Outcome,
    logs: Vec<ReadLog>,
    tracer: &mut Tracer,
) -> (Vec<(Class, f64, f64)>, f64, f64) {
    let mut requests = Vec::new();
    let (mut late, mut connects) = (0, 0);
    for log in logs {
        out.attempted += log.requests.len() as u64;
        for why in log.failures {
            out.fail(why);
        }
        late += log.late;
        connects += log.connects;
        requests.extend(log.requests);
        tracer.absorb(log.tracer);
    }
    let n = requests.len().max(1) as f64;
    (requests, late as f64 / n, connects as f64 / n)
}

/// Send → last byte per query class, as `query.http_ms_p50.<class>`.
fn set_http_by_class(out: &mut Outcome, requests: &[(Class, f64, f64)]) {
    for class in Class::ALL {
        let of_class = requests.iter().filter(|r| r.0 == class).map(|r| r.1);
        let d = Samples::new(of_class.collect());
        out.set(
            &format!("query.http_ms_p50.{}", class.name()),
            d.median(),
            d.len(),
        );
    }
}

// ------------------------------------------------------------- serve_read

struct ReadSetup {
    system: System,
    server: QueryServer,
}

fn set_up_read(
    seed: u64,
    entities: usize,
    sizing: &Sizing,
    log: Option<&Path>,
) -> Result<(ReadSetup, Vec<Record>), String> {
    let records = Catalogue { seed }.seed_records(entities, sizing.spellings);
    let views = SharedViews::new();
    let mut system = System::start(config(log), &records, views.clone())?;
    system.publish(COLLECTION);
    let server = QueryServer::bind("127.0.0.1:0", views, ServerConfig::default())
        .map_err(|e| e.to_string())?;
    Ok((ReadSetup { system, server }, records))
}

fn stop_server((setup, _): (ReadSetup, Vec<Record>)) {
    setup.server.stop();
}

fn input_fingerprint(records: &[Record]) -> String {
    let mut fp = Fingerprint::default();
    fp.records(records);
    fp.hex()
}

/// Closed loop: `clients` threads, each sending its next request when the
/// previous reply has fully arrived, for `seconds`.
fn closed_loop(
    args: &RunArgs,
    setup: &ReadSetup,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> (Vec<(Class, f64, f64)>, f64, f64) {
    let snapshot = setup
        .system
        .views
        .get(COLLECTION)
        .expect("published at seed");
    let addr = setup.server.addr();
    let origin = Instant::now();
    let min_ops = args.sizing.min_ops;
    let logs: Vec<ReadLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.sizing.clients)
            .map(|c| {
                let snapshot = &snapshot;
                scope.spawn(move || {
                    let mut mix = Mix::new(args.seed, 100 + c as u64, snapshot);
                    let mut client = Client::new(addr);
                    let mut log = ReadLog::new(origin);
                    while origin.elapsed().as_secs_f64() < seconds || log.requests.len() < min_ops {
                        let request = mix.next();
                        send(
                            &mut client,
                            &mut log,
                            &request,
                            Instant::now(),
                            Some(snapshot),
                            trace,
                        );
                    }
                    log.connects = client.connects;
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = origin.elapsed().as_secs_f64();
    let failed_before = out.failed;
    let (requests, _, connects) = absorb_logs(out, logs, tracer);
    let correct = requests.len() as u64 - (out.failed - failed_before);
    (requests, correct as f64 / wall, connects)
}

pub fn run_read(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let set_up = |_| set_up_read(args.seed, args.sizing.read_entities, &args.sizing, None);
    let Some(((setup, records), setup_s)) = first_set_up(&mut out, &set_up) else {
        return out;
    };
    out.note(format!("input_fingerprint {}", input_fingerprint(&records)));
    let mut tracer = Tracer::new(Instant::now());

    let untraced_seconds = if args.trace {
        args.seconds * 0.3
    } else {
        args.seconds
    };
    let (requests, rps, _) =
        closed_loop(args, &setup, untraced_seconds, false, &mut out, &mut tracer);
    let all = Samples::new(requests.iter().map(|r| r.1).collect());
    if let Some((p, v)) = all.tail() {
        out.note(format!("read_ms p{p} {v:.4} (n={})", all.len()));
    }

    if !args.trace {
        let built = ((setup, records), setup_s);
        out.finish_end_to_end(&args.sizing, built, &set_up, stop_server, &all, rps);
        return out;
    }

    let (traced, _, connects) = closed_loop(
        args,
        &setup,
        args.seconds * 0.5,
        true,
        &mut out,
        &mut tracer,
    );
    let traced_all = Samples::new(traced.iter().map(|r| r.1).collect());
    out.set("read_ms_p50", traced_all.median(), traced_all.len());
    out.set("read_ms_p99", traced_all.at(99.0), traced_all.len());
    out.set(
        "bench.trace_overhead_share",
        traced_all.median() / all.median() - 1.0,
        0,
    );
    out.set("query.connects_per_request", connects, 0);
    set_http_by_class(&mut out, &traced);
    in_process_reads(args, &setup, &mut out, &mut tracer);
    setup.server.stop();
    args.write_trace("serve_read", &tracer, &mut out);
    out
}

const PLANS: [PlanKind; 4] = [
    PlanKind::HashProbe,
    PlanKind::OrderedProbe,
    PlanKind::ColumnarScan,
    PlanKind::FullScan,
];

/// The same mix executed and rendered in process, so the HTTP round trip
/// can be split into execute, render and everything else.
fn in_process_reads(args: &RunArgs, setup: &ReadSetup, out: &mut Outcome, tracer: &mut Tracer) {
    let snapshot = setup
        .system
        .views
        .get(COLLECTION)
        .expect("published at seed");
    let mut mix = Mix::new(args.seed, 200, &snapshot);
    let (mut candidates, mut rows) = (0usize, 0usize);
    let mut plans = [0usize; 4];
    let mut planned = 0usize;
    for op in 0..2000u64 {
        let request = mix.next();
        let class = request.class.name();
        match &request.expect {
            Expect::Entity(key) => {
                let (found, _) = tracer.span(&format!("execute.{class}"), None, op, || {
                    snapshot.point_lookup(key)
                });
                if let Some(e) = found {
                    tracer.span(&format!("render.{class}"), None, op, || {
                        std::hint::black_box(entity_body(e))
                    });
                }
            }
            Expect::Result(q) => {
                let (run, _) = tracer.span(&format!("execute.{class}"), None, op, || {
                    snapshot.execute(q)
                });
                tracer.span(&format!("render.{class}"), None, op, || {
                    std::hint::black_box(render_result(
                        &run.result,
                        run.plan.name(),
                        run.candidates,
                    ))
                });
                candidates += run.candidates;
                rows += match &run.result {
                    QueryResult::Rows(r) => r.len(),
                    QueryResult::Groups(g) => g.len(),
                    QueryResult::Count(_) | QueryResult::Value(_) => 1,
                };
                planned += 1;
                plans[PLANS
                    .iter()
                    .position(|p| *p == run.plan)
                    .expect("a listed plan")] += 1;
            }
            Expect::Stats => {}
        }
    }
    for class in [Class::Point, Class::Probe, Class::Range, Class::Scan] {
        out.set_median_of(
            tracer,
            &format!("execute.{}", class.name()),
            &format!("query.execute_ms_p50.{}", class.name()),
        );
    }
    let render = Samples::new(
        tracer
            .spans
            .iter()
            .filter(|s| s.name.starts_with("render."))
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .collect(),
    );
    out.set("query.render_ms_p50", render.median(), render.len());
    let overhead = out.get("query.http_ms_p50.point").unwrap_or(0.0)
        - tracer.durations_ms("execute.point").median()
        - tracer.durations_ms("render.point").median();
    out.set("query.http_overhead_ms_p50", overhead, 0);
    out.set(
        "query.candidates_per_row",
        candidates as f64 / rows.max(1) as f64,
        0,
    );
    for (plan, n) in PLANS.iter().zip(plans) {
        let share = n as f64 / planned.max(1) as f64;
        out.set(&format!("query.plan_share.{}", plan.name()), share, 0);
    }
}

// ----------------------------------------------------------- serve_ingest

pub fn run_ingest(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let sizing = &args.sizing;
    let set_up = |round: usize| {
        let log = args.scratch.join(format!("ingest-{round}.log"));
        let (mut setup, records) =
            set_up_read(args.seed, sizing.ingest_entities, sizing, Some(&log))?;
        // Seeds the resident ER state, so the first timed delta is a delta.
        setup
            .system
            .dt
            .consolidate_delta(&[])
            .map_err(|e| e.to_string())?;
        Ok((setup, records))
    };
    let Some(((mut setup, records), setup_s)) = first_set_up(&mut out, &set_up) else {
        return out;
    };
    out.note(format!("input_fingerprint {}", input_fingerprint(&records)));

    let seed_snapshot = setup
        .system
        .views
        .get(COLLECTION)
        .expect("published at seed");
    let addr = setup.server.addr();
    let mut deltas = DeltaStream::new(
        Catalogue { seed: args.seed },
        sizing.ingest_entities,
        records.len(),
        sizing.delta_records,
    );
    let mut batches: Vec<Vec<Record>> = Vec::new();
    let mut counts = [0usize; 5];
    let writer_done = AtomicBool::new(false);
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let interval = Duration::from_secs_f64(1.0 / sizing.open_loop_rate);

    let reader_log = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut mix = Mix::new(args.seed, 300, &seed_snapshot);
            let mut client = Client::new(addr);
            let mut log = ReadLog::new(origin);
            let mut due = origin;
            while !writer_done.load(Ordering::SeqCst) {
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if Instant::now().duration_since(due) > Duration::from_millis(1) {
                    log.late += 1;
                }
                let request = mix.next();
                send(&mut client, &mut log, &request, due, None, args.trace);
                due += interval;
            }
            log.connects = client.connects;
            log
        });

        // The writer: back-to-back deltas on this thread for `--seconds`.
        while origin.elapsed().as_secs_f64() < args.seconds || batches.len() < sizing.min_ops {
            let batch = deltas.next_batch();
            let start = Instant::now();
            let report = setup.system.dt.consolidate_delta(&batch);
            let consolidated = Instant::now();
            let published = setup.system.publish(COLLECTION);
            out.attempted += 1;
            match report {
                Ok(d) => {
                    for (slot, n) in counts.iter_mut().zip([
                        d.probed_buckets,
                        d.scored_pairs,
                        d.memo_hits,
                        d.dirty_clusters,
                        d.reused_clusters,
                    ]) {
                        *slot += n;
                    }
                }
                Err(e) => out.fail(format!("delta {}: {e}", batches.len())),
            }
            // Both modes time the same four calls, so tracing adds nothing
            // to a delta.
            let op = batches.len() as u64;
            let root = tracer.record("delta_visible", None, op, start, published.published);
            tracer.record(
                "core.delta_consolidate",
                Some(root),
                op,
                start,
                consolidated,
            );
            published.record(&mut tracer, root, op);
            batches.push(batch);
        }
        writer_done.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread")
    });
    let writer_wall = origin.elapsed().as_secs_f64();

    let visible = tracer.durations_ms("delta_visible");
    let ingested: usize = batches.iter().map(Vec::len).sum();
    if let Some((p, v)) = visible.tail() {
        out.note(format!(
            "delta_visible_ms p{p} {v:.4} (n={})",
            visible.len()
        ));
    }
    let (reads, late_share, connects) = absorb_logs(&mut out, vec![reader_log], &mut tracer);
    let from_due = Samples::new(reads.iter().map(|r| r.2).collect());
    out.note(format!(
        "reads beside the writer: {} at {}/s, p50 {:.4} ms, p99 {:.4} ms from due time, late_share {late_share:.4}",
        from_due.len(),
        sizing.open_loop_rate,
        from_due.median(),
        from_due.at(99.0)
    ));

    final_pass(args, &setup, &records, &batches, &mut out);

    if args.trace {
        for (span, metric) in [
            ("core.delta_consolidate", "core.delta_consolidate_ms_p50"),
            ("query.sync", "query.sync_ms_p50"),
            ("query.snapshot", "query.snapshot_ms_p50"),
            ("query.publish", "query.publish_ms_p50"),
        ] {
            out.set_median_of(&tracer, span, metric);
        }
        out.set("delta_visible_ms_p50", visible.median(), visible.len());
        out.set("delta_visible_ms_p95", visible.at(95.0), visible.len());
        for (name, n) in [
            "entity.delta_probed_buckets",
            "entity.delta_scored_pairs",
            "entity.delta_memo_hits",
            "entity.delta_dirty_clusters",
            "entity.delta_reused_clusters",
        ]
        .iter()
        .zip(counts)
        {
            out.set(name, n as f64, 0);
        }
        let maintenance = setup.system.view.maintenance();
        out.set("query.index_full_builds", maintenance.full_builds as f64, 0);
        out.set(
            "query.clusters_reindexed",
            maintenance.clusters_reindexed as f64,
            0,
        );
        out.set(
            "query.clusters_reused",
            maintenance.clusters_reused as f64,
            0,
        );
        out.set("read_ms_p50", from_due.median(), from_due.len());
        out.set("read_ms_p99", from_due.at(99.0), from_due.len());
        out.set("loadgen.late_share", late_share, 0);
        out.set("query.connects_per_request", connects, 0);
        set_http_by_class(&mut out, &reads);
        out.set("bench.trace_overhead_share", 0.0, 0);
        wal_replay(&mut out, &mut tracer, &batches, &args.scratch);
        args.write_trace("serve_ingest", &tracer, &mut out);
        setup.server.stop();
    } else {
        let (built, per_s) = (((setup, records), setup_s), ingested as f64 / writer_wall);
        out.finish_end_to_end(sizing, built, &set_up, stop_server, &visible, per_s);
    }
    out
}

/// After the last delta: one pass of the mix against the live collection
/// must be served byte-for-byte as from a from-scratch rebuild over the
/// seed records plus every delta.
fn final_pass(
    args: &RunArgs,
    setup: &ReadSetup,
    seed: &[Record],
    batches: &[Vec<Record>],
    out: &mut Outcome,
) {
    out.attempted += 1;
    let mut all: Vec<Record> = seed.to_vec();
    all.extend(batches.iter().flatten().cloned());
    match System::start(config(None), &all, setup.system.views.clone()) {
        Ok(mut rebuilt) => rebuilt.publish(REBUILD),
        Err(e) => return out.fail(format!("from-scratch rebuild: {e}")),
    };
    let live = setup.system.views.get(COLLECTION).expect("published");
    out.note(format!(
        "served_fingerprint {}",
        fused_fingerprint(live.entities())
    ));
    let mut mix = Mix::new(args.seed, 400, &live);
    let mut client = Client::new(setup.server.addr());
    let mut differing = 0;
    for _ in 0..FINAL_PASS {
        let request = mix.next();
        if request.class == Class::Stats {
            continue; // revision and maintenance counters differ by design
        }
        let a = client.get(&request.path(COLLECTION));
        let b = client.get(&request.path(REBUILD));
        match (a, b) {
            (Ok(a), Ok(b)) if a == b && a.status == 200 => {}
            (a, b) => {
                differing += 1;
                if differing == 1 {
                    let brief = |r: std::io::Result<Response>| match r {
                        Ok(r) => format!("{} {:.120}", r.status, String::from_utf8_lossy(&r.body)),
                        Err(e) => e.to_string(),
                    };
                    out.note(format!(
                        "{}: live {} vs rebuild {}",
                        request.tail,
                        brief(a),
                        brief(b)
                    ));
                }
            }
        }
    }
    if differing > 0 {
        out.fail(format!(
            "{differing} of {FINAL_PASS} final-pass bodies differ from the from-scratch rebuild"
        ));
    }
}

// ---------------------------------------------------------------- restart

/// What survives the kill: the sources, the configuration (with the log
/// path) and the fingerprint that was being served.
struct Killed {
    config: DataTamerConfig,
    records: Vec<Record>,
    batches: Vec<Vec<Record>>,
    fingerprint: String,
}

fn set_up_restart(args: &RunArgs, round: usize) -> Result<Killed, String> {
    let sizing = &args.sizing;
    let log = args.scratch.join(format!("restart-{round}.log"));
    let config = config(Some(&log));
    let records =
        Catalogue { seed: args.seed }.seed_records(sizing.ingest_entities, sizing.spellings);
    let mut system = System::start(config.clone(), &records, SharedViews::new())?;
    let mut deltas = DeltaStream::new(
        Catalogue { seed: args.seed },
        sizing.ingest_entities,
        records.len(),
        sizing.delta_records,
    );
    let batches: Vec<Vec<Record>> = (0..sizing.restart_deltas)
        .map(|_| deltas.next_batch())
        .collect();
    for batch in &batches {
        system
            .dt
            .consolidate_delta(batch)
            .map_err(|e| e.to_string())?;
    }
    system.publish(COLLECTION);
    let served = system.views.get(COLLECTION).expect("published");
    Ok(Killed {
        config,
        records,
        batches,
        fingerprint: fused_fingerprint(served.entities()),
    })
}

pub fn run_restart(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let set_up = |round| set_up_restart(args, round);
    let Some((killed, setup_s)) = first_set_up(&mut out, &set_up) else {
        return out;
    };
    out.note(format!(
        "input_fingerprint {}",
        input_fingerprint(&killed.records)
    ));
    out.note(format!("served_fingerprint {}", killed.fingerprint));

    let mut tracer = Tracer::new(Instant::now());
    let begin = Instant::now();
    let mut op = 0u64;
    while begin.elapsed().as_secs_f64() < args.seconds || (op as usize) < args.sizing.min_ops {
        out.attempted += 1;
        let start = Instant::now();
        let restarted = (|| {
            let views = SharedViews::new();
            let mut system = System::start(killed.config.clone(), &killed.records, views.clone())?;
            let based = Instant::now();
            system
                .dt
                .consolidate_delta(&[])
                .map_err(|e| e.to_string())?;
            let replayed = Instant::now();
            system.publish(COLLECTION);
            let served = views.get(COLLECTION).expect("published");
            Ok::<_, String>((based, replayed, fused_fingerprint(served.entities())))
        })();
        let end = Instant::now();
        match restarted {
            Ok((based, replayed, fingerprint)) => {
                let root = tracer.record("restart", None, op, start, end);
                tracer.record("core.restart_base_run", Some(root), op, start, based);
                tracer.record("core.restart_replay", Some(root), op, based, replayed);
                tracer.record("query.restart_publish", Some(root), op, replayed, end);
                if fingerprint != killed.fingerprint {
                    out.fail(format!(
                        "restart {op} serves {fingerprint}, before the kill {}",
                        killed.fingerprint
                    ));
                }
            }
            Err(e) => out.fail(format!("restart {op}: {e}")),
        }
        op += 1;
    }
    let restarts = tracer.durations_ms("restart");
    let recovered = killed.records.len() + killed.batches.iter().map(Vec::len).sum::<usize>();

    if args.trace {
        for (span, metric) in [
            ("core.restart_base_run", "core.restart_base_run_ms"),
            ("core.restart_replay", "core.restart_replay_ms"),
            ("query.restart_publish", "query.restart_publish_ms"),
        ] {
            out.set_median_of(&tracer, span, metric);
        }
        out.set("bench.trace_overhead_share", 0.0, 0);
        wal_replay(&mut out, &mut tracer, &killed.batches, &args.scratch);
        args.write_trace("restart", &tracer, &mut out);
    } else {
        let per_s = recovered as f64 / (restarts.mean() / 1e3);
        out.finish_end_to_end(
            &args.sizing,
            (killed, setup_s),
            &set_up,
            drop,
            &restarts,
            per_s,
        );
    }
    out
}
