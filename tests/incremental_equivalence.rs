//! The incremental-consolidation correctness pin: splitting a corpus into
//! any prefix + any sequence of delta batches and feeding it through
//! [`DataTamer::consolidate_delta`] must produce byte-identical fused
//! entities and cluster membership to a from-scratch full run over the
//! concatenated corpus — at any thread count. The full run is a staged
//! `DataTamer::run`, which consolidates the whole corpus in one ingest of
//! the same resident engine; the split proptest also pins its clusters to
//! the batch engine (block → prepare → accept → cluster), so the oracle
//! itself is anchored outside the engine under test.
//!
//! The resident state this guards: the scoring context and blocking
//! indices extend in place, only touched buckets are probed (never
//! old-vs-old), accepted pairs merge into a persistent union-find, and
//! there is one resident ER state: the one a staged run's consolidation
//! leaves in the context, which every delta extends. Accepted batches are
//! the last segment of the context's corpus, so a later run consolidates
//! them with everything else, once. Fused entities re-resolve only for
//! clusters whose membership changed — the others are moved over from the
//! previous fused vector, which the reuse-safety tests at the bottom guard
//! against every way that vector can go stale.

use std::sync::atomic::{AtomicUsize, Ordering};

use datatamer::core::fusion::{
    group_records, merge_groups_with, BlockedErConfig, FusedEntity, FusionGroup,
    GroupingStrategy, RegistryConfig, CHEAPEST_PRICE, SHOW_NAME,
};
use datatamer::core::stage::stage_names;
use datatamer::core::{
    fuse_records_with, DataTamer, DataTamerConfig, DeltaLogConfig, DeltaReport, PipelinePlan,
    StageReport,
};
use datatamer::corpus::ftables::{self, FtablesConfig};
use datatamer::corpus::webtext::{WebTextConfig, WebTextCorpus};
use datatamer::entity::cluster::cluster_pairs;
use datatamer::model::{Record, RecordId, SourceId, Value};
use datatamer::text::normalize::canonical_name;
use datatamer::text::DomainParser;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

/// Distinguishes delta-log temp dirs across tests in one process.
static LOG_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A record already in canonical shape (upper-case global attributes,
/// clean-stable values): schema mapping and cleaning are identities for
/// it, so raw delta batches and staged registration yield byte-identical
/// corpus records — the precondition for comparing the two paths.
fn show(id: u64, name: &str, price: &str) -> Record {
    Record::from_pairs(
        SourceId(0),
        RecordId(id),
        vec![(SHOW_NAME, Value::from(name)), (CHEAPEST_PRICE, Value::from(price))],
    )
}

fn config() -> DataTamerConfig {
    config_with(None)
}

/// Like [`config`], but (optionally) with a persistent delta log.
fn config_with(delta_log: Option<DeltaLogConfig>) -> DataTamerConfig {
    DataTamerConfig {
        extent_size: 64 * 1024,
        shards: 2,
        grouping: GroupingStrategy::BlockedEr(BlockedErConfig::default()),
        delta_log,
        ..Default::default()
    }
}

/// Every observable consolidation output, flattened to comparable blobs:
/// the fused composites (key, member count, confidence, full record) and
/// the cluster membership behind them.
fn fingerprint(dt: &DataTamer) -> (String, String) {
    let fused: String = dt
        .context()
        .fused
        .iter()
        .map(|f| format!("{}|{}|{:?}|{:?}\n", f.key, f.member_count, f.confidence, f.record))
        .collect();
    (fused, format!("{:?}", dt.context().fusion_groups))
}

/// Seed with `prefix` through the staged pipeline, then ingest each batch
/// through the resident-state delta path.
fn incremental_run(
    prefix: &[Record],
    batches: &[&[Record]],
) -> ((String, String), Vec<DeltaReport>) {
    let mut dt = DataTamer::new(config());
    let mut plan = PipelinePlan::new();
    if !prefix.is_empty() {
        plan = plan.structured("s1", prefix);
    }
    dt.run(plan).expect("staged seed run");
    let reports: Vec<DeltaReport> =
        batches.iter().map(|b| dt.consolidate_delta(b).expect("delta ingest")).collect();
    (fingerprint(&dt), reports)
}

/// From-scratch run over the whole corpus as one structured source.
fn full_run(corpus: &[Record]) -> (String, String) {
    let mut dt = DataTamer::new(config());
    let mut plan = PipelinePlan::new();
    if !corpus.is_empty() {
        plan = plan.structured("s1", corpus);
    }
    dt.run(plan).expect("full run");
    fingerprint(&dt)
}

/// The batch engine's clusters over `corpus` (every record of these
/// corpora has a show name, so every cluster forms a group).
fn batch_engine_clusters(corpus: &[Record]) -> Vec<Vec<usize>> {
    let config = BlockedErConfig::default();
    let prepared = config.scorer.prepare(corpus);
    let outcome = config
        .build_blocker()
        .candidates_with_report_keyed(corpus, &|| prepared.sort_keys_from(&config.key_attr, 0));
    let accepted = prepared.accepted_pairs(&outcome.pairs, config.accept_threshold);
    cluster_pairs(corpus.len(), &accepted)
}

/// The members of every group a staged run over `corpus` forms.
fn staged_clusters(corpus: &[Record]) -> Vec<Vec<usize>> {
    let mut dt = DataTamer::new(config());
    dt.run(PipelinePlan::new().structured("s1", corpus)).expect("full run");
    dt.context().fusion_groups.iter().map(|(_, members)| members.clone()).collect()
}

/// Run over `prefix`, consolidate `batches[..kill_after]`, then *drop the
/// whole system* — the kill. Reopen over the same delta log, run over the
/// same prefix, consolidate the remaining batches, and return the final
/// fingerprint. Only the log survives the kill; the resident ER state is
/// lost with the first instance.
fn restarted_run(
    prefix: &[Record],
    batches: &[&[Record]],
    kill_after: usize,
    compact_after_frames: usize,
) -> (String, String) {
    let seq = LOG_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dt_restart_{}_{seq}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = DeltaLogConfig {
        path: dir.join("delta.log"),
        compact_after_frames,
    };
    let cfg = config_with(Some(log));

    {
        let mut dt = DataTamer::new(cfg.clone());
        let mut plan = PipelinePlan::new();
        if !prefix.is_empty() {
            plan = plan.structured("s1", prefix);
        }
        dt.run(plan).expect("staged seed run");
        for b in &batches[..kill_after] {
            dt.consolidate_delta(b).expect("delta ingest before the kill");
        }
        // Dropped here: the kill. Nothing in-memory survives.
    }

    let mut dt = DataTamer::new(cfg);
    let mut plan = PipelinePlan::new();
    if !prefix.is_empty() {
        plan = plan.structured("s1", prefix);
    }
    dt.run(plan).expect("staged run after the restart");
    for b in &batches[kill_after..] {
        dt.consolidate_delta(b).expect("delta ingest after restart");
    }
    // Force the log replay even when the kill came after the last batch
    // (an empty delta must surface the replayed state and change nothing
    // else).
    dt.consolidate_delta(&[]).expect("no-op delta after restart");
    let fp = fingerprint(&dt);
    std::fs::remove_dir_all(&dir).ok();
    fp
}

/// Random corpora with real consolidation structure: a handful of entity
/// groups, each spawning exact duplicates, word-order swaps, typo
/// variants, and cross-group-token variants, at slightly varying prices —
/// so runs contain merges, near-misses, and singletons.
fn corpus_strategy() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec((0u64..8, 0u8..4, 0u8..3), 0..60).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (g, variant, p))| {
                let name = match variant {
                    0 => format!("Group{g} Title{g}"),
                    1 => format!("Title{g} Group{g}"),
                    2 => format!("Group{g} Titl{g}"),
                    _ => format!("Common Group{g} Title{g}"),
                };
                show(i as u64, &name, &format!("${}", 10 + u64::from(p)))
            })
            .collect()
    })
}

/// Map raw cut bytes onto sorted positions in `corpus`: the segments
/// between them are a prefix and one batch per byte (empty segments
/// included — an empty delta must be a no-op).
fn split<'a>(corpus: &'a [Record], cut_bytes: &[u8]) -> (&'a [Record], Vec<&'a [Record]>) {
    let mut cuts: Vec<usize> =
        cut_bytes.iter().map(|&b| (usize::from(b) * corpus.len()) / 256).collect();
    cuts.sort_unstable();
    let ends = cuts.iter().skip(1).copied().chain([corpus.len()]);
    let batches = cuts.iter().zip(ends).map(|(&from, to)| &corpus[from..to]).collect();
    (&corpus[..cuts[0]], batches)
}

/// After a run over `base`, apply each `(kind, segment)` step: 0 runs over
/// the segment as a new structured source (an empty plan when it is
/// empty), 1 consolidates it as a delta, 2 runs over an empty plan and
/// drops it. After the base run and every step, returns the fingerprint
/// beside a from-scratch run over the sources so far, then the accepted
/// batches so far.
fn interleaved(base: &[Record], steps: &[(u8, &[Record])]) -> Vec<[(String, String); 2]> {
    let mut dt = DataTamer::new(config());
    let (mut sources, mut batches) = (Vec::new(), Vec::new());
    let mut states = Vec::new();
    for (i, &(kind, segment)) in [(0, base)].iter().chain(steps).enumerate() {
        if kind == 1 {
            dt.consolidate_delta(segment).expect("delta");
            batches.extend_from_slice(segment);
        } else {
            let mut plan = PipelinePlan::new();
            if kind == 0 && !segment.is_empty() {
                plan = plan.structured(format!("s{i}"), segment);
                sources.extend_from_slice(segment);
            }
            dt.run(plan).expect("run");
        }
        states.push([fingerprint(&dt), full_run(&[&sources[..], &batches].concat())]);
    }
    states
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_prefix_delta_split_matches_a_full_rebuild(
        corpus in corpus_strategy(),
        cut_bytes in prop::collection::vec(any::<u8>(), 1..5),
    ) {
        let (prefix, batches) = split(&corpus, &cut_bytes);
        let serial = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap();

        let full_serial = serial.install(|| full_run(&corpus));
        prop_assert_eq!(
            serial.install(|| staged_clusters(&corpus)),
            batch_engine_clusters(&corpus),
            "the staged run's clusters diverged from the batch engine"
        );
        let (inc_serial, reports_serial) =
            serial.install(|| incremental_run(prefix, &batches));
        prop_assert_eq!(
            &inc_serial, &full_serial,
            "incremental (serial) diverged from the full rebuild"
        );

        let full_wide = wide.install(|| full_run(&corpus));
        let (inc_wide, reports_wide) = wide.install(|| incremental_run(prefix, &batches));
        prop_assert_eq!(&full_wide, &full_serial, "full rebuild is thread-count dependent");
        prop_assert_eq!(&inc_wide, &full_serial, "incremental (wide) diverged");
        prop_assert_eq!(reports_wide, reports_serial, "delta reports are thread-count dependent");
    }

    // The PR-7 pin: kill the system at *any* batch boundary, reopen it
    // over the same delta log — and the final fused output is still
    // byte-identical to a from-scratch rebuild, at 1 and 8 threads.
    #[test]
    fn kill_restart_at_any_boundary_matches_a_full_rebuild(
        corpus in corpus_strategy(),
        cut_bytes in prop::collection::vec(any::<u8>(), 1..4),
        kill_byte in any::<u8>(),
        compact_sel in 0usize..2,
    ) {
        let (prefix, batches) = split(&corpus, &cut_bytes);
        // 0 = killed before any delta landed; len = killed after the last.
        let kill_after = (usize::from(kill_byte) * (batches.len() + 1)) / 256;
        // 0 compacts the log after every append; 64 never compacts here.
        let compact_after_frames = [0usize, 64][compact_sel];

        let serial = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap();

        let full = serial.install(|| full_run(&corpus));
        let rs = serial
            .install(|| restarted_run(prefix, &batches, kill_after, compact_after_frames));
        prop_assert_eq!(
            &rs, &full,
            "restart-and-replay (serial) diverged from the full rebuild (kill_after={})",
            kill_after
        );
        let rw =
            wide.install(|| restarted_run(prefix, &batches, kill_after, compact_after_frames));
        prop_assert_eq!(
            &rw, &full,
            "restart-and-replay (wide) diverged (kill_after={})", kill_after
        );
    }

    // Runs and deltas in any order: after every step, the fused output and
    // cluster membership equal a from-scratch run over the sources and the
    // accepted batches, at 1 and 8 threads.
    #[test]
    fn interleaved_runs_and_deltas_match_a_full_rebuild_after_every_step(
        corpus in corpus_strategy(),
        steps in prop::collection::vec((0u8..3, any::<u8>()), 1..7),
    ) {
        let cut_bytes: Vec<u8> = steps.iter().map(|&(_, b)| b).collect();
        let (base, segments) = split(&corpus, &cut_bytes);
        let steps: Vec<(u8, &[Record])> =
            steps.iter().map(|&(kind, _)| kind).zip(segments).collect();

        let serial = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        let states = serial.install(|| interleaved(base, &steps));
        for (k, [got, want]) in states.iter().enumerate() {
            let shape: Vec<(u8, usize)> = steps.iter().map(|&(kind, s)| (kind, s.len())).collect();
            prop_assert_eq!(got, want, "diverged after step {} of {:?}", k, shape);
        }
        prop_assert_eq!(
            wide.install(|| interleaved(base, &steps)), states, "thread-count dependent"
        );
    }
}

#[test]
fn only_dirty_clusters_reresolve() {
    // Token-unique names: each record blocks alone, so the corpus settles
    // into one cluster per distinct name — a delta duplicating one name
    // must dirty exactly that cluster and reuse every other.
    let corpus: Vec<Record> =
        (0..30).map(|i| show(i, &format!("Unique{i} Show{i}"), "$10")).collect();
    let mut dt = DataTamer::new(config());
    dt.run(PipelinePlan::new().structured("s1", &corpus)).expect("seed run");
    let noop = dt.consolidate_delta(&[]).expect("no-op delta");
    assert_eq!(noop.total_records, 30);

    let d = dt.consolidate_delta(&[show(100, "Unique7 Show7", "$10")]).expect("delta");
    assert_eq!(d.dirty_clusters, 1, "{d:?}");
    assert_eq!(d.reused_clusters, 29, "{d:?}");
    assert_eq!(d.accepted_pairs, 1, "{d:?}");
    assert!(d.scored_pairs <= 2, "a one-record delta must not rescore the corpus: {d:?}");
    assert!(d.reused_context_fraction > 0.96, "{d:?}");

    // And the merged view agrees with a rebuild over the concatenation.
    let mut all = corpus.clone();
    all.push(show(100, "Unique7 Show7", "$10"));
    assert_eq!(fingerprint(&dt), full_run(&all));
}

// ---------------------------------------------------------------------
// Reuse safety. A delta moves clean clusters' composites out of the
// context's previous `fused` vector instead of re-resolving them; each
// test below makes that vector stale (or nearly so) in a different way
// and checks the result against a from-scratch rebuild at 1 and 8 threads.

/// Run `scenario` on a serial and an 8-wide pool; the two must agree.
fn at_1_and_8_threads<T: PartialEq + std::fmt::Debug>(scenario: impl Fn() -> T + Sync) -> T {
    let serial = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
    let out = serial.install(&scenario);
    assert_eq!(wide.install(&scenario), out, "scenario is thread-count dependent");
    out
}

#[test]
fn a_run_between_deltas_consolidates_the_accepted_batch() {
    let s1: Vec<Record> =
        (0..12).map(|i| show(i, &format!("Alphashow{i} One{i}"), "$10")).collect();
    let s2: Vec<Record> =
        (0..6).map(|i| show(50 + i, &format!("Betashow{i} Two{i}"), "$20")).collect();
    let b1 = vec![show(100, "Alphashow2 One2", "$9")];
    let b2 = vec![show(101, "Betashow1 Two1", "$20"), show(102, "Alphashow2 One2", "$8")];

    let inc = at_1_and_8_threads(|| {
        let mut dt = DataTamer::new(config());
        dt.run(PipelinePlan::new().structured("s1", &s1)).expect("seed run");
        dt.consolidate_delta(&b1).expect("first delta");
        // The first delta is part of the context's corpus, so the staged
        // run consolidates and fuses it with both sources, once: its
        // `fused` holds every accepted record and comes from the batch
        // fusion stage, not from a delta.
        dt.run(PipelinePlan::new().structured("s2", &s2)).expect("second source");
        assert_eq!(fingerprint(&dt), full_run(&[&s1[..], &s2, &b1].concat()));
        assert_eq!(dt.context().fused_changed, None, "the run ends on its fusion stage");
        let d = dt.consolidate_delta(&b2).expect("delta after the run");
        assert_eq!(d.total_records, 21, "s1 + s2 + the first delta + this one");
        assert_eq!(d.batch_records, 2, "the run already consolidated the first delta");
        // The delta extends the run's ER state and reuses its composites:
        // only Alphashow2's and Betashow1's clusters re-resolve.
        let changed = dt.context().fused_changed.clone().expect("delta path sets it");
        assert_eq!((changed.len(), changed.iter().filter(|&&c| c).count()), (18, 2));
        fingerprint(&dt)
    });
    let all: Vec<Record> = [s1, s2, b1, b2].concat();
    assert_eq!(inc, full_run(&all));
}

#[test]
fn staged_run_over_the_same_corpus_invalidates_reuse() {
    let s1: Vec<Record> =
        (0..12).map(|i| show(i, &format!("Alphashow{i} One{i}"), "$10")).collect();
    let b1 = vec![show(100, "Alphashow2 One2", "$11")];
    let b2 = vec![show(101, "Alphashow7 One7", "$10")];
    let all: Vec<Record> = [s1.clone(), b1.clone(), b2.clone()].concat();

    // No new source, but the run consolidates and fuses the whole corpus,
    // the accepted batch included, so none of the delta's composites is
    // reused: the run's fusion stage resolves every cluster.
    let inc = at_1_and_8_threads(|| {
        let mut dt = DataTamer::new(config());
        dt.run(PipelinePlan::new().structured("s1", &s1)).expect("seed run");
        dt.consolidate_delta(&b1).expect("first delta");
        dt.run(PipelinePlan::new()).expect("staged run between the deltas");
        assert_eq!(dt.context().fused_changed, None, "no composite in the context is reused");
        assert_eq!(fingerprint(&dt), full_run(&[&s1[..], &b1].concat()));
        let d = dt.consolidate_delta(&b2).expect("delta after the run");
        assert_eq!(d.dirty_clusters, 1, "the run's consolidator was kept: {d:?}");
        fingerprint(&dt)
    });
    assert_eq!(inc, full_run(&all));
}

#[test]
fn a_failed_log_append_keeps_the_batch_through_a_reseed() {
    let seq = LOG_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dt_logfail_{}_{seq}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("delta.log");
    let s1: Vec<Record> =
        (0..8).map(|i| show(i, &format!("Alphashow{i} One{i}"), "$10")).collect();
    let s2: Vec<Record> =
        (0..4).map(|i| show(50 + i, &format!("Betashow{i} Two{i}"), "$20")).collect();
    let [b1, b2, b3] = [100, 101, 102].map(|id| vec![show(id, "Alphashow2 One2", "$10")]);

    let mut dt = DataTamer::new(config_with(Some(DeltaLogConfig::at(&path))));
    dt.run(PipelinePlan::new().structured("s1", &s1)).expect("seed run");
    dt.consolidate_delta(&b1).expect("logged delta");
    // Break the log under the live system: a directory where the file was.
    std::fs::remove_file(&path).unwrap();
    std::fs::create_dir(&path).unwrap();
    dt.consolidate_delta(&b2).expect_err("the append fails and is reported");
    assert_eq!(fingerprint(&dt), full_run(&[s1.clone(), b1.clone(), b2.clone()].concat()));

    // The base corpus grows: the run consolidates both accepted batches,
    // the one the log never got included, and the frozen log stays quiet.
    dt.run(PipelinePlan::new().structured("s2", &s2)).expect("second source");
    assert_eq!(fingerprint(&dt), full_run(&[&s1[..], &s2, &b1, &b2].concat()));
    dt.consolidate_delta(&b3).expect("no further appends are attempted");
    assert_eq!(fingerprint(&dt), full_run(&[s1, s2, b1, b2, b3].concat()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merging_two_clean_clusters_then_an_empty_delta() {
    // "Midnight Harbor" and "Harbor Lights" score under the accept
    // threshold against each other and over it against the bridge, so the
    // bridge merges two clusters that were both clean until then.
    let mut corpus: Vec<Record> =
        (0..10).map(|i| show(i, &format!("Unique{i} Show{i}"), "$10")).collect();
    corpus.insert(3, show(20, "Midnight Harbor", "$10"));
    corpus.insert(7, show(21, "Harbor Lights", "$10"));
    let bridge = vec![show(100, "Midnight Harbor Lights", "$10")];

    let inc = at_1_and_8_threads(|| {
        let mut dt = DataTamer::new(config());
        dt.run(PipelinePlan::new().structured("s1", &corpus)).expect("seed run");
        dt.consolidate_delta(&[]).expect("no-op delta");
        assert_eq!(dt.context().fused.len(), 12);

        dt.consolidate_delta(&bridge).expect("bridging delta");
        let changed = dt.context().fused_changed.clone().expect("delta path sets it");
        assert_eq!(changed.len(), 11, "the later cluster vanished into the earlier one");
        assert_eq!(changed.iter().filter(|&&d| d).count(), 1, "{changed:?}");
        let merged = fingerprint(&dt);

        dt.consolidate_delta(&[]).expect("empty delta");
        let changed = dt.context().fused_changed.clone().expect("delta path sets it");
        assert!(changed.iter().all(|&d| !d), "{changed:?}");
        assert_eq!(fingerprint(&dt), merged, "an empty delta moved every composite verbatim");
        merged
    });
    let all: Vec<Record> = [corpus, bridge].concat();
    assert_eq!(inc, full_run(&all));
}

// ---------------------------------------------------------------------
// One ER pass. There is one resident ER state: a staged run leaves it and
// every delta extends it, so a restart consolidates the log tail, not the
// base corpus again, and reuses the run's composites for every cluster
// the tail leaves alone. A run on a live delta system consolidates and
// fuses once, the accepted batches included, and the log is replayed once
// per process.

#[test]
fn a_restart_consolidates_only_the_log_tail() {
    let seq = LOG_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dt_tail_{}_{seq}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = config_with(Some(DeltaLogConfig::at(dir.join("delta.log"))));
    let base: Vec<Record> =
        (0..40).map(|i| show(i, &format!("Unique{i} Show{i}"), "$10")).collect();
    let batches = [
        vec![show(100, "Unique3 Show3", "$9")],
        vec![show(101, "Brand New", "$12"), show(102, "Unique8 Show8", "$10")],
    ];
    {
        let mut dt = DataTamer::new(cfg.clone());
        dt.run(PipelinePlan::new().structured("s1", &base)).expect("seed run");
        for b in &batches {
            dt.consolidate_delta(b).expect("logged delta");
        }
    }

    let (fp, report, changed) = at_1_and_8_threads(|| {
        let mut dt = DataTamer::new(cfg.clone());
        dt.run(PipelinePlan::new().structured("s1", &base)).expect("restart run");
        let report = dt.consolidate_delta(&[]).expect("replaying delta");
        let changed = dt.context().fused_changed.clone().expect("delta path sets it");
        (fingerprint(&dt), report, changed)
    });
    assert_eq!((report.batch_records, report.total_records), (3, 43), "{report:?}");
    assert!(report.scored_pairs <= 6, "only tail pairs are decided: {report:?}");
    // Unique3's and Unique8's clusters grew and "Brand New" is new: three
    // of 41 groups re-resolve; the staged run's other composites carry over.
    assert_eq!((changed.len(), changed.iter().filter(|&&c| c).count()), (41, 3));
    assert_eq!(fp, full_run(&[base, batches.concat()].concat()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_delta_extends_the_er_state_of_the_latest_run() {
    let s1: Vec<Record> =
        (0..10).map(|i| show(i, &format!("Alphashow{i} One{i}"), "$10")).collect();
    let s2: Vec<Record> =
        (0..5).map(|i| show(50 + i, &format!("Betashow{i} Two{i}"), "$20")).collect();
    let b1 = vec![show(100, "Alphashow2 One2", "$9")];

    let inc = at_1_and_8_threads(|| {
        let mut dt = DataTamer::new(config());
        dt.run(PipelinePlan::new().structured("s1", &s1)).expect("seed run");
        // A second run grows the corpus: the first run's ER state covers s1
        // only and is replaced by the second's, which the delta extends
        // with its composites — only the cluster the delta touches
        // re-resolves. (A corpus grown behind a run's state is consolidated
        // afresh; see `pipeline::tests::a_delta_over_a_corpus_grown_since_the_run_starts_a_fresh_consolidator`.)
        dt.run(PipelinePlan::new().structured("s2", &s2)).expect("second source");
        let d = dt.consolidate_delta(&b1).expect("delta");
        assert_eq!(d.total_records, 16, "{d:?}");
        let changed = dt.context().fused_changed.clone().expect("delta path sets it");
        assert_eq!((changed.len(), changed.iter().filter(|&&c| c).count()), (15, 1));
        fingerprint(&dt)
    });
    assert_eq!(inc, full_run(&[s1, s2, b1].concat()));
}

#[test]
fn a_run_on_a_live_delta_system_consolidates_once() {
    let s1: Vec<Record> =
        (0..10).map(|i| show(i, &format!("Alphashow{i} One{i}"), "$10")).collect();
    let s2: Vec<Record> =
        (0..5).map(|i| show(50 + i, &format!("Betashow{i} Two{i}"), "$20")).collect();
    let b1 = vec![show(100, "Alphashow2 One2", "$9"), show(101, "Betashow3 Two3", "$20")];

    let inc = at_1_and_8_threads(|| {
        let mut dt = DataTamer::new(config());
        dt.run(PipelinePlan::new().structured("s1", &s1)).expect("first run");
        dt.consolidate_delta(&b1).expect("delta");
        let runs = dt.context().runs().len();
        dt.run(PipelinePlan::new().structured("s2", &s2)).expect("run on the live system");
        assert_eq!(dt.context().runs().len(), runs + 5, "one stage run per stage, no delta pair");
        match dt.context().report_of(stage_names::ENTITY_CONSOLIDATION) {
            Some(StageReport::EntityConsolidation { records, delta, .. }) => {
                assert_eq!(*records, s1.len() + s2.len() + b1.len());
                assert_eq!(*delta, None, "the stage consolidated the accepted batch");
            }
            other => panic!("wrong report variant: {other:?}"),
        }
        assert_eq!(dt.context().fused_changed, None, "fused once, by the fusion stage");
        fingerprint(&dt)
    });
    assert_eq!(inc, full_run(&[s1, s2, b1].concat()));
}

#[test]
fn a_restart_replays_the_log_exactly_once() {
    let seq = LOG_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dt_once_{}_{seq}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = config_with(Some(DeltaLogConfig::at(dir.join("delta.log"))));
    let base: Vec<Record> =
        (0..12).map(|i| show(i, &format!("Unique{i} Show{i}"), "$10")).collect();
    let b1 = vec![show(100, "Unique3 Show3", "$9"), show(101, "Brand New", "$12")];
    {
        let mut dt = DataTamer::new(cfg.clone());
        dt.run(PipelinePlan::new().structured("s1", &base)).expect("run before the kill");
        dt.consolidate_delta(&b1).expect("logged delta");
    }

    let want = base.len() + b1.len();
    let fp = at_1_and_8_threads(|| {
        let mut dt = DataTamer::new(cfg.clone());
        dt.run(PipelinePlan::new().structured("s1", &base)).expect("run after the restart");
        let d = dt.consolidate_delta(&[]).expect("replaying delta");
        assert_eq!((d.batch_records, d.total_records), (b1.len(), want), "{d:?}");
        dt.run(PipelinePlan::new()).expect("run on the live system");
        match dt.context().report_of(stage_names::ENTITY_CONSOLIDATION) {
            Some(StageReport::EntityConsolidation { records, .. }) => assert_eq!(*records, want),
            other => panic!("wrong report variant: {other:?}"),
        }
        let d = dt.consolidate_delta(&[]).expect("second empty delta");
        assert_eq!((d.batch_records, d.total_records), (0, want), "{d:?}");
        fingerprint(&dt)
    });
    assert_eq!(fp, full_run(&[base, b1].concat()));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// The text segment. Consolidation and fusion read the context's corpus in
// place — structured records, then text show records, then accepted delta
// batches — so a run over structured sources plus web text must equal an
// oracle fed one explicit `structured ++ text` Vec, under either grouping.

/// Fused composites and group membership, as [`fingerprint`] flattens them.
fn blobs(fused: &[FusedEntity], groups: &[FusionGroup]) -> (String, String) {
    let fused: String = fused
        .iter()
        .map(|f| format!("{}|{}|{:?}|{:?}\n", f.key, f.member_count, f.confidence, f.record))
        .collect();
    (fused, format!("{groups:?}"))
}

/// Blocked ER over `all` by hand: one ingest of a fresh consolidator, one
/// group per cluster keyed by its first member's canonical key value.
fn blocked_er_oracle(all: &[Record], config: &BlockedErConfig) -> (String, String) {
    let mut consolidator = config.build_incremental();
    consolidator.ingest(all);
    let groups: Vec<FusionGroup> = consolidator
        .clusters()
        .iter()
        .filter_map(|members| {
            let key = canonical_name(&all[*members.first()?].get_text(&config.key_attr)?);
            (!key.is_empty()).then(|| (key, members.clone()))
        })
        .collect();
    blobs(&merge_groups_with(all, &groups, &RegistryConfig::broadway()), &groups)
}

#[test]
fn structured_plus_text_runs_match_an_oracle_over_the_concatenation() {
    let sources = ftables::generate(&FtablesConfig { num_sources: 4, ..Default::default() }, 0);
    let web = WebTextCorpus::generate(&WebTextConfig { num_fragments: 120, ..Default::default() });
    let fragments: Vec<(&str, &str)> =
        web.fragments.iter().map(|f| (f.text.as_str(), f.kind.label())).collect();
    let er = BlockedErConfig::default();

    for grouping in [GroupingStrategy::CanonicalName, GroupingStrategy::BlockedEr(er.clone())] {
        at_1_and_8_threads(|| {
            let mut dt = DataTamer::new(DataTamerConfig { grouping: grouping.clone(), ..config() });
            let mut plan = PipelinePlan::new()
                .webtext(DomainParser::with_gazetteer(web.gazetteer.clone()), fragments.clone());
            for s in &sources {
                plan = plan.structured(&s.name, &s.records);
            }
            dt.run(plan).expect("run");
            let (structured, text) = (dt.structured_records(), dt.text_show_records());
            assert!(!structured.is_empty() && !text.is_empty(), "both segments take part");
            let all: Vec<Record> = [structured, text].concat();
            let threshold = dt.context().config().fusion_threshold;
            let oracle = match &grouping {
                GroupingStrategy::CanonicalName => {
                    let groups = group_records(&all, threshold);
                    let fused = fuse_records_with(&all, threshold, &RegistryConfig::broadway());
                    blobs(&fused, &groups)
                }
                GroupingStrategy::BlockedEr(er) => blocked_er_oracle(&all, er),
            };
            assert_eq!(fingerprint(&dt), oracle, "{grouping:?}");
            let text_at = structured.len();
            let cross_segment = dt.context().fusion_groups.iter().any(|(_, members)| {
                members.first() < Some(&text_at) && members.last() >= Some(&text_at)
            });
            assert!(cross_segment, "some group spans both segments");
            if let GroupingStrategy::CanonicalName = grouping {
                return fingerprint(&dt);
            }

            // A delta of exact duplicates from both segments extends the
            // same view with its third segment.
            let batch: Vec<Record> =
                text.iter().take(4).chain(structured.iter().take(4)).cloned().collect();
            let all: Vec<Record> = [&all[..], &batch].concat();
            dt.consolidate_delta(&batch).expect("delta");
            assert_eq!(fingerprint(&dt), blocked_er_oracle(&all, &er), "after one delta");
            fingerprint(&dt)
        });
    }
}
