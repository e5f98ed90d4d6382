//! Resident entity-resolution state: what
//! [`crate::DataTamer::consolidate_delta`] extends between calls.
//!
//! There is one resident ER state, the context's [`ResidentEr`]: the
//! incremental consolidator and the `fused_revision` whose composites were
//! resolved from its clusters. A blocked-ER consolidation stage leaves it
//! after one ingest of the whole corpus, and each delta extends it. The
//! corpus is the context's own, read in place: its structured records,
//! then its text show records, then every accepted delta batch (a
//! [`crate::corpus::Corpus`] view). A later run therefore consolidates the
//! accepted batches together with everything else, and nothing is ever
//! replayed but the write-ahead log, once per process.
//!
//! The corpus only grows, so a consolidator as long as the corpus holds
//! all of it, and a delta keeps it. In every other case (no state yet, or
//! a stage prefix grew the corpus without consolidating it) the delta
//! starts a fresh consolidator. Either way it then ingests the corpus past
//! what the consolidator holds.
//!
//! There is no fused-entity cache: the context's previous `fused` /
//! `fusion_groups` vectors *are* the cache. Both are ordered by stable
//! cluster id (smallest member), as are the consolidator's clusters, so
//! [`consolidate_delta`] merge-walks the two and **moves** the group and
//! composite of every cluster whose membership is unchanged into the new
//! vectors, resolving only the others, provided the context still holds
//! what the state installed. Otherwise (a fusion stage ran since, or the
//! consolidator is fresh) every cluster re-resolves. Grouping and resolver
//! routing are the context's configuration, fixed for its life, so the
//! state never has to track either: only corpus growth makes it stale.

use datatamer_entity::incremental::{DeltaReport, IncrementalConsolidator};
use datatamer_model::{DtError, Record, Result};
use datatamer_storage::DeltaLog;
use rayon::prelude::*;

use crate::config::DeltaLogConfig;
use crate::fusion::grouping::cluster_key;
use crate::fusion::{merge_group, FusedEntity, FusionGroup, GroupingReport, GroupingStrategy};
use crate::stage::{PipelineContext, StageReport};

/// The accepted-batch write-ahead log ([`DeltaLogConfig`]), when
/// configured. The accepted batches themselves are the last segment of
/// the context's corpus; the log is only read by the first delta of a
/// process.
pub(crate) struct Journal {
    /// The log and the frame count past which it compacts.
    log: Option<(DeltaLog, usize)>,
    /// An append failed: the log is frozen — no further appends, though
    /// its existing frames still replay after a restart.
    log_failed: bool,
}

impl Journal {
    fn open(config: Option<&DeltaLogConfig>) -> Result<Journal> {
        let log = match config {
            Some(c) => Some((DeltaLog::open(&c.path)?, c.compact_after_frames)),
            None => None,
        };
        Ok(Journal { log, log_failed: false })
    }

    /// The batches an earlier process logged, flattened in arrival order.
    fn replay(&self) -> Result<Vec<Record>> {
        match &self.log {
            Some((log, _)) => log.replay_records(),
            None => Ok(Vec::new()),
        }
    }

    /// Write-ahead: persist `batch` before it is consolidated, so a crash
    /// between the two replays it instead of losing it. A persistence
    /// error is returned for the caller to surface *after* the batch is
    /// consolidated: an append failure freezes the log; a compaction
    /// failure leaves the multi-frame log valid on disk and appends go on.
    fn accept(&mut self, batch: &[Record]) -> Option<DtError> {
        let (log, compact_after) = self.log.as_mut().filter(|_| !self.log_failed)?;
        if batch.is_empty() {
            return None;
        }
        match log.append(batch) {
            Ok(()) if log.frames() > *compact_after => log.compact().err(),
            Ok(()) => None,
            Err(e) => {
                self.log_failed = true;
                Some(e)
            }
        }
    }
}

/// The one resident ER state (see the module docs).
pub(crate) struct ResidentEr {
    /// The consolidator over a prefix of the context's corpus: all of it,
    /// unless a stage prefix grew the corpus since.
    pub(crate) consolidator: IncrementalConsolidator,
    /// The `fused_revision` whose composites were resolved from exactly
    /// these clusters — set by [`crate::DataTamer::run`] once its fusion
    /// stage installed them, and by every delta.
    pub(crate) installed_revision: Option<u64>,
}

/// Journal `batch`, append it to the context's accepted batches and
/// consolidate it into the resident ER state, then install the updated
/// groups and composites in `ctx` (bumping `fused_revision`, setting
/// `fused_changed` to the exact re-resolved set) and log the delta as
/// consolidation + fusion stage runs. The first call of a process opens
/// the configured log into `journal` and consolidates what it replays
/// ahead of `batch`. The context is fully updated even when `Err` reports
/// that persistence degraded — do not re-submit the batch.
pub(crate) fn consolidate_delta(
    ctx: &mut PipelineContext,
    journal: &mut Option<Journal>,
    batch: &[Record],
) -> Result<DeltaReport> {
    let GroupingStrategy::BlockedEr(config) = &ctx.config.grouping else {
        return Err(DtError::Config(
            "consolidate_delta requires GroupingStrategy::BlockedEr; the \
             canonical-name scan has no resident ER state to be incremental against"
                .to_owned(),
        ));
    };
    // Opening and replaying the log are the only steps that can fail, so
    // they come first: an error leaves the context as it was.
    let mut replayed = Vec::new();
    let journal = match journal {
        Some(journal) => journal,
        None => {
            let opened = Journal::open(ctx.config.delta_log.as_ref())?;
            replayed = opened.replay()?;
            journal.insert(opened)
        }
    };
    let corpus_len = ctx.corpus().len();
    let ResidentEr { mut consolidator, installed_revision } = match ctx.er.take() {
        Some(er) if er.consolidator.len() == corpus_len => er,
        _ => ResidentEr { consolidator: config.build_incremental(), installed_revision: None },
    };
    ctx.accepted.extend(replayed);
    let log_error = journal.accept(batch);
    ctx.accepted.extend_from_slice(batch);
    let delta = consolidator.ingest(ctx.corpus().iter().skip(consolidator.len()));

    // Stale output is dropped before its replacement is built.
    let mut prev_groups = std::mem::take(&mut ctx.fusion_groups);
    let mut prev_fused = std::mem::take(&mut ctx.fused);
    if installed_revision != Some(ctx.fused_revision) {
        prev_groups.clear();
        prev_fused.clear();
    }
    debug_assert_eq!(prev_groups.len(), prev_fused.len());
    let mut prev = prev_groups.into_iter().zip(prev_fused).peekable();

    // A cluster whose membership is unchanged since the installed
    // revision has the same first member, hence the same key: it carries
    // over exactly when it formed a group then. Comparing members (not
    // the last ingest's dirty flags) keeps this exact across a replayed
    // log and any number of ingests since.
    let corpus = ctx.corpus();
    let clusters = consolidator.clusters();
    let mut groups: Vec<FusionGroup> = Vec::with_capacity(clusters.len());
    let mut slots: Vec<Option<FusedEntity>> = Vec::with_capacity(clusters.len());
    for cluster in clusters {
        let Some(&id) = cluster.first() else { continue };
        // Previous groups below this id were merged away or re-keyed.
        while prev.next_if(|((_, members), _)| members.first() < Some(&id)).is_some() {}
        if let Some((group, entity)) = prev.next_if(|((_, m), _)| m == cluster) {
            groups.push(group);
            slots.push(Some(entity));
            continue;
        }
        let Some(key) = cluster_key(corpus.get(id), config) else {
            continue;
        };
        groups.push((key, cluster.clone()));
        slots.push(None);
    }

    let changed: Vec<bool> = slots.iter().map(Option::is_none).collect();
    let registry = &ctx.config.fusion_resolvers;
    let todo: Vec<&FusionGroup> =
        groups.iter().zip(&changed).filter_map(|(g, &c)| c.then_some(g)).collect();
    let mut resolved = todo
        .par_iter()
        .map(|g| merge_group(|i| corpus.get(i), g, registry))
        .collect::<Vec<_>>()
        .into_iter();
    // One resolution per empty slot, in slot order.
    let fused: Vec<FusedEntity> =
        slots.into_iter().filter_map(|slot| slot.or_else(|| resolved.next())).collect();
    debug_assert_eq!(fused.len(), groups.len());

    // Delta-scope pair counts, corpus-scope group counts.
    ctx.record_delta_runs(
        StageReport::EntityConsolidation {
            records: delta.total_records,
            groups: groups.len(),
            multi_member_groups: groups.iter().filter(|(_, m)| m.len() > 1).count(),
            largest_group: groups.iter().map(|(_, m)| m.len()).max().unwrap_or(0),
            blocking: GroupingReport {
                candidate_pairs: delta.candidate_pairs,
                accepted_pairs: delta.accepted_pairs,
                degraded_buckets: delta.degraded_buckets,
            },
            delta: Some(delta),
        },
        StageReport::Fusion {
            entities: fused.len(),
            members: fused.iter().map(|f| f.member_count).sum(),
        },
    );
    ctx.fusion_groups = groups;
    ctx.fused = fused;
    ctx.fused_revision += 1;
    ctx.fused_changed = Some(changed);
    ctx.er = Some(ResidentEr { consolidator, installed_revision: Some(ctx.fused_revision) });
    log_error.map_or(Ok(delta), Err)
}
