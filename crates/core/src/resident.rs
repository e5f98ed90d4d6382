//! Resident delta state: the one owner of everything
//! [`crate::DataTamer::consolidate_delta`] carries between calls.
//!
//! A [`ResidentSession`] holds the incremental consolidator, the only copy
//! of the records it has ingested, the configuration it was built under,
//! the write-ahead [`Journal`], and the `fused_revision` it last
//! installed. There is no fused-entity cache: the context's previous
//! `fused` / `fusion_groups` vectors *are* the cache. Both are ordered by
//! stable cluster id (smallest member), as are the consolidator's
//! clusters, so [`ResidentSession::apply`] merge-walks the two and
//! **moves** every clean cluster's group and composite into the new
//! vectors, resolving only dirty and new clusters — provided the context
//! still holds what this session installed, under the routing it was
//! resolved with. Otherwise (first delta after a seed, a staged run bumped
//! the revision, the routing changed) every cluster re-resolves.

use datatamer_entity::incremental::{DeltaReport, IncrementalConsolidator};
use datatamer_model::{DtError, Record, Result};
use datatamer_storage::DeltaLog;
use rayon::prelude::*;

use crate::config::DeltaLogConfig;
use crate::fusion::grouping::cluster_key;
use crate::fusion::{
    merge_group, BlockedErConfig, FusedEntity, FusionGroup, GroupingReport, RegistryConfig,
};
use crate::stage::{PipelineContext, StageReport};

/// The durable half of the accepted-batch journal: the write-ahead log
/// ([`DeltaLogConfig`]), when configured. The in-memory half is the tail
/// of [`ResidentSession::records`] past the seeded corpus, which is what a
/// reseed replays; the log is only read on a process's first seed.
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

/// Resident entity-resolution state between deltas (see the module docs).
pub(crate) struct ResidentSession {
    consolidator: IncrementalConsolidator,
    /// Every record the consolidator has ingested, in ingest order — what
    /// cluster members index: the seeded corpus, then every accepted delta
    /// batch (replayed or applied).
    records: Vec<Record>,
    /// The blocked-ER configuration the consolidator was built from; a
    /// change in the grouping-in-effect makes the session stale.
    config: BlockedErConfig,
    /// The routing the installed composites were resolved under. Clusters
    /// are routing-independent, so a change keeps the consolidator and
    /// only forfeits reuse of the previous composites.
    resolvers: RegistryConfig,
    /// Context record counts at seed time — if `register_structured` /
    /// `run` / `ingest_webtext` grew them since, the resident corpus is
    /// stale and the next delta reseeds (replaying the accepted batches).
    seeded_structured: usize,
    seeded_text: usize,
    journal: Journal,
    /// The `fused_revision` this session last installed; the context's
    /// `fused` is this session's previous output only while it still
    /// carries that revision.
    installed_revision: Option<u64>,
}

impl ResidentSession {
    /// True when the grouping-in-effect changed or the base corpus grew
    /// since seeding.
    pub(crate) fn is_stale(&self, ctx: &PipelineContext, config: &BlockedErConfig) -> bool {
        self.config != *config
            || self.seeded_structured != ctx.structured_records.len()
            || self.seeded_text != ctx.text_show_records.len()
    }

    /// What the session replacing this stale one carries over: the log
    /// handle and every accepted batch.
    pub(crate) fn into_journal(mut self) -> (Journal, Vec<Record>) {
        let accepted = self.records.split_off(self.seeded_structured + self.seeded_text);
        (self.journal, accepted)
    }

    /// Build a session over the context's current corpus (integrated
    /// structured records, then text show records) and replay the accepted
    /// batches on top — `carried` from the stale session being replaced,
    /// or, on the first seed of a process, whatever the configured log
    /// holds. Replay never re-appends.
    pub(crate) fn seed(
        ctx: &PipelineContext,
        config: BlockedErConfig,
        carried: Option<(Journal, Vec<Record>)>,
    ) -> Result<ResidentSession> {
        let (journal, accepted) = match carried {
            Some(carried) => carried,
            None => {
                let journal = Journal::open(ctx.config().delta_log.as_ref())?;
                let accepted = journal.replay()?;
                (journal, accepted)
            }
        };
        let mut consolidator = config.build_incremental();
        let mut records =
            Vec::with_capacity(ctx.structured_records.len() + ctx.text_show_records.len());
        records.extend(ctx.structured_records.iter().cloned());
        records.extend(ctx.text_show_records.iter().cloned());
        if !records.is_empty() {
            consolidator.ingest(&records);
        }
        if !accepted.is_empty() {
            consolidator.ingest(&accepted);
            records.extend(accepted);
        }
        Ok(ResidentSession {
            consolidator,
            records,
            config,
            resolvers: ctx.fusion_resolvers.clone(),
            seeded_structured: ctx.structured_records.len(),
            seeded_text: ctx.text_show_records.len(),
            journal,
            installed_revision: None,
        })
    }

    /// Journal and consolidate `batch`, then install the updated groups
    /// and composites in `ctx` (bumping `fused_revision`, setting
    /// `fused_changed` to the exact re-resolved set) and log the delta as
    /// consolidation + fusion stage runs. The in-memory session is fully
    /// updated even when `Err` reports that persistence degraded — do not
    /// re-submit the batch.
    pub(crate) fn apply(
        &mut self,
        ctx: &mut PipelineContext,
        batch: &[Record],
    ) -> Result<DeltaReport> {
        let log_error = self.journal.accept(batch);
        let delta = self.consolidator.ingest(batch);
        self.records.extend_from_slice(batch);

        let mut reuse = self.installed_revision == Some(ctx.fused_revision);
        if self.resolvers != ctx.fusion_resolvers {
            self.resolvers = ctx.fusion_resolvers.clone();
            reuse = false;
        }
        // Stale output is dropped before its replacement is built.
        let mut prev_groups = std::mem::take(&mut ctx.fusion_groups);
        let mut prev_fused = std::mem::take(&mut ctx.fused);
        if !reuse {
            prev_groups.clear();
            prev_fused.clear();
        }
        debug_assert_eq!(prev_groups.len(), prev_fused.len());
        let mut prev = prev_groups.into_iter().zip(prev_fused).peekable();

        // A clean cluster kept its membership and first member, hence its
        // key: it carries over exactly when it formed a group last time.
        let records = &self.records;
        let clusters = self.consolidator.clusters();
        let mut groups: Vec<FusionGroup> = Vec::with_capacity(clusters.len());
        let mut slots: Vec<Option<FusedEntity>> = Vec::with_capacity(clusters.len());
        for (cluster, &dirty) in clusters.iter().zip(self.consolidator.dirty()) {
            let id = cluster[0];
            // Previous groups below this id were merged away or re-keyed.
            while prev.next_if(|((_, members), _)| members[0] < id).is_some() {}
            if reuse && !dirty {
                if let Some((group, entity)) = prev.next_if(|((_, m), _)| m[0] == id) {
                    groups.push(group);
                    slots.push(Some(entity));
                }
                continue;
            }
            let Some(key) = cluster_key(&records[id], &self.config) else {
                continue;
            };
            groups.push((key, cluster.clone()));
            slots.push(None);
        }

        let changed: Vec<bool> = slots.iter().map(Option::is_none).collect();
        let registry = ctx.fusion_resolvers.build();
        let todo: Vec<&FusionGroup> = groups
            .iter()
            .zip(&changed)
            .filter_map(|(g, &c)| c.then_some(g))
            .collect();
        let mut resolved = todo
            .par_iter()
            .map(|g| merge_group(records, g, &registry))
            .collect::<Vec<_>>()
            .into_iter();
        let fused: Vec<FusedEntity> = slots
            .into_iter()
            .map(|slot| {
                slot.or_else(|| resolved.next())
                    .expect("one resolution per empty slot")
            })
            .collect();

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
        self.installed_revision = Some(ctx.fused_revision);
        log_error.map_or(Ok(delta), Err)
    }
}
