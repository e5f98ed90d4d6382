//! Single-layer replays for the traced run: each drives one crate's public
//! calls over the inputs the workload just used, so a layer's own time and
//! counts can be read apart from the pipeline around it.

use std::path::Path;
use std::time::Instant;

use datatamer_core::fusion::BlockedErConfig;
use datatamer_core::ingest::{ENTITY_COLLECTION, INSTANCE_COLLECTION};
use datatamer_core::pipeline::GLOBAL_RECORDS_COLLECTION;
use datatamer_core::stage::PipelineContext;
use datatamer_entity::cluster::cluster_pairs;
use datatamer_model::{Document, Record};
use datatamer_storage::{Collection, DeltaLog};
use datatamer_text::DomainParser;

use crate::spec::Outcome;
use crate::trace::Tracer;

/// Repeat `f` until `budget` seconds are spent (at least twice); the last
/// value and how often it ran.
fn repeat<T>(budget: f64, mut f: impl FnMut(u64) -> T) -> (T, u64) {
    let begin = Instant::now();
    let mut op = 0;
    loop {
        let value = f(op);
        op += 1;
        if op >= 2 && begin.elapsed().as_secs_f64() >= budget {
            return (value, op);
        }
    }
}

/// `text`: the domain parser over every fragment.
pub fn text_replay(
    out: &mut Outcome,
    tracer: &mut Tracer,
    parser: &DomainParser,
    fragments: &[(&str, &str)],
    budget: f64,
) {
    let (mentions, _) = repeat(budget, |op| {
        tracer
            .span("text.parse", None, op, || {
                fragments
                    .iter()
                    .map(|(text, _)| parser.parse(text).mentions.len())
                    .sum::<usize>()
            })
            .0
    });
    let d = out.set_median_of(tracer, "text.parse", "text.parse_ms");
    out.set(
        "text.fragments_per_s",
        fragments.len() as f64 / (d.median() / 1e3),
        d.len(),
    );
    out.set("text.mentions", mentions as f64, 0);
}

/// `storage`: scan the run's collections, re-insert every document into a
/// fresh collection of the same configuration.
pub fn storage_replay(out: &mut Outcome, tracer: &mut Tracer, ctx: &PipelineContext, budget: f64) {
    let collections: Vec<_> = [
        INSTANCE_COLLECTION,
        ENTITY_COLLECTION,
        GLOBAL_RECORDS_COLLECTION,
    ]
    .iter()
    .filter_map(|name| ctx.store.collection(name))
    .collect();
    let (result, _) = repeat(budget, |op| {
        let (docs, _) = tracer.span("storage.scan", None, op, || {
            let mut docs: Vec<Document> = Vec::new();
            for col in &collections {
                docs.extend(col.parallel_scan(|_, d| Some(d.clone()))?);
            }
            Ok::<_, datatamer_model::DtError>(docs)
        });
        let docs = docs?;
        let fresh = Collection::new("replay", ctx.config().collection_config())?;
        tracer
            .span("storage.insert", None, op, || {
                fresh.insert_many(docs.iter())
            })
            .0?;
        Ok::<_, datatamer_model::DtError>((docs.len(), fresh.storage_report()))
    });
    match result {
        Ok((docs, report)) => {
            let decode_errors: u64 = collections
                .iter()
                .map(|c| c.storage_report().decode_errors())
                .sum::<u64>()
                + report.decode_errors();
            out.set("storage.docs", docs as f64, 0);
            out.set(
                "storage.extents",
                report.shards.iter().map(|s| s.extents).sum::<usize>() as f64,
                0,
            );
            out.set("storage.decode_errors", decode_errors as f64, 0);
        }
        Err(e) => out.fail(format!("storage replay: {e}")),
    }
    out.attempted += 1;
    out.set_median_of(tracer, "storage.scan", "storage.scan_ms");
    out.set_median_of(tracer, "storage.insert", "storage.insert_ms");
}

/// `entity`: the four phases of blocked ER over the consolidation input,
/// called the way `GroupingStrategy::BlockedEr` calls them.
pub fn entity_replay(
    out: &mut Outcome,
    tracer: &mut Tracer,
    ctx: &PipelineContext,
    config: &BlockedErConfig,
    budget: f64,
) {
    let mut records: Vec<Record> = ctx.structured_records.clone();
    records.extend(ctx.text_show_records.iter().cloned());
    let blocker = config.build_blocker();
    let scorer = config.scorer.build();
    let ((candidates, accepted, degraded, clusters), _) = repeat(budget, |op| {
        let (prepared, _) = tracer.span("entity.prepare", None, op, || scorer.prepare(&records));
        let (outcome, _) = tracer.span("entity.block", None, op, || {
            blocker.candidates_with_report_keyed(&records, &|| {
                prepared
                    .sort_keys(&config.key_attr)
                    .expect("rules context serves sort keys")
            })
        });
        let (accepted, _) = tracer.span("entity.score", None, op, || {
            prepared.accepted_pairs(&outcome.pairs, config.accept_threshold)
        });
        let (clusters, _) = tracer.span("entity.cluster", None, op, || {
            cluster_pairs(records.len(), &accepted)
        });
        (
            outcome.pairs.len(),
            accepted.len(),
            outcome.degraded_buckets,
            clusters.len(),
        )
    });
    out.set_median_of(tracer, "entity.prepare", "entity.prepare_ms");
    out.set_median_of(tracer, "entity.block", "entity.block_ms");
    let score = out.set_median_of(tracer, "entity.score", "entity.score_ms");
    out.set_median_of(tracer, "entity.cluster", "entity.cluster_ms");
    out.set("entity.candidate_pairs", candidates as f64, 0);
    out.set("entity.accepted_pairs", accepted as f64, 0);
    out.set(
        "entity.accept_ratio",
        accepted as f64 / candidates.max(1) as f64,
        0,
    );
    out.set("entity.degraded_buckets", degraded as f64, 0);
    out.set("entity.clusters", clusters as f64, 0);
    out.set(
        "entity.pairs_per_s",
        candidates as f64 / (score.median() / 1e3),
        score.len(),
    );
}

/// Bytes of user data in a record: attribute names plus value text.
fn record_bytes(r: &Record) -> usize {
    r.iter().map(|(k, v)| k.len() + v.to_text().len()).sum()
}

/// `storage` write-ahead log: append the workload's batches to a scratch
/// log, then replay it.
pub fn wal_replay(out: &mut Outcome, tracer: &mut Tracer, batches: &[Vec<Record>], scratch: &Path) {
    out.attempted += 1;
    let path = scratch.join("wal-replay.log");
    let result = (|| {
        let mut log = DeltaLog::open(&path)?;
        for (op, batch) in batches.iter().enumerate() {
            tracer
                .span("storage.wal_append", None, op as u64, || log.append(batch))
                .0?;
        }
        let (replayed, _) = tracer.span("storage.wal_replay", None, 0, || log.replay_records());
        Ok::<_, datatamer_model::DtError>(replayed?.len())
    })();
    let expected: usize = batches.iter().map(Vec::len).sum();
    match result {
        Ok(n) if n == expected => {}
        Ok(n) => out.fail(format!(
            "WAL replayed {n} records, {expected} were appended"
        )),
        Err(e) => out.fail(format!("WAL replay: {e}")),
    }
    let wal_bytes = std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
    let user_bytes: usize = batches.iter().flatten().map(record_bytes).sum();
    out.set_median_of(tracer, "storage.wal_append", "storage.wal_append_ms_p50");
    out.set_median_of(tracer, "storage.wal_replay", "storage.wal_replay_ms");
    out.set("storage.wal_bytes", wal_bytes, 0);
    out.set(
        "storage.wal_bytes_per_record_byte",
        wal_bytes / user_bytes.max(1) as f64,
        0,
    );
    let _ = std::fs::remove_file(&path);
}
