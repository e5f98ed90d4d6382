//! Resident delta state: the one owner of everything
//! [`crate::DataTamer::consolidate_delta`] carries between calls.
//!
//! A [`ResidentSession`] holds the incremental consolidator, the accepted
//! delta batches (the context's structured and text records are the rest
//! of its corpus), the blocked-ER configuration it was built from, the
//! write-ahead [`Journal`], and the `fused_revision` it last installed.
//! There is no fused-entity cache: the context's previous `fused` /
//! `fusion_groups` vectors *are* the cache. Both are ordered by stable
//! cluster id (smallest member), as are the consolidator's clusters, so
//! [`ResidentSession::apply`] merge-walks the two and **moves** the group
//! and composite of every cluster whose membership is unchanged into the
//! new vectors, resolving only the others — provided the context still
//! holds what this session installed. Otherwise (a staged run bumped the
//! revision) every cluster re-resolves. Grouping and resolver routing are
//! the context's configuration, fixed for its life, so a session never
//! has to track either: only corpus growth makes it stale.
//!
//! **One ER pass.** A staged blocked-ER run consolidates through the same
//! resident engine and leaves its consolidator behind as a [`StagedEr`].
//! Seeding adopts it instead of consolidating the corpus a second time,
//! and when the staged run also installed the context's composites, the
//! first delta reuses them. A restart therefore pays for the base run and
//! the log tail, not for the base corpus twice.

use datatamer_entity::incremental::{DeltaReport, IncrementalConsolidator};
use datatamer_model::{DtError, Record, Result};
use datatamer_storage::DeltaLog;
use rayon::prelude::*;

use crate::config::DeltaLogConfig;
use crate::fusion::grouping::cluster_key;
use crate::fusion::{merge_group, BlockedErConfig, FusedEntity, FusionGroup, GroupingReport};
use crate::stage::{PipelineContext, StageReport};

/// The durable half of the accepted-batch journal: the write-ahead log
/// ([`DeltaLogConfig`]), when configured. The in-memory half is
/// [`ResidentSession::accepted`], which is what a reseed replays; the log
/// is only read on a process's first seed.
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

/// The resident ER state a staged blocked-ER run leaves in the context
/// for the next seed to adopt (see the module docs).
pub(crate) struct StagedEr {
    /// The consolidator after one ingest of the staged corpus.
    pub(crate) consolidator: IncrementalConsolidator,
    /// Context record counts it consolidated (structured, then text).
    pub(crate) structured: usize,
    pub(crate) text: usize,
    /// The `fused_revision` whose composites were resolved from exactly
    /// these clusters — set by [`crate::DataTamer::run`] once its fusion
    /// stage installed them.
    pub(crate) installed_revision: Option<u64>,
}

/// Resident entity-resolution state between deltas (see the module docs).
pub(crate) struct ResidentSession {
    consolidator: IncrementalConsolidator,
    /// Every accepted delta batch (replayed or applied), in arrival order.
    /// Cluster members index the context's first `seeded_structured`
    /// structured records, then its first `seeded_text` text records, then
    /// these. A replayed tail the consolidator has not ingested yet is
    /// ingested by the next [`ResidentSession::apply`].
    accepted: Vec<Record>,
    /// The configured blocked-ER grouping the consolidator was built from
    /// (it keys the groups of new clusters).
    config: BlockedErConfig,
    /// Context record counts at seed time — if `register_structured` /
    /// `run` / `ingest_webtext` grew them since, the resident corpus is
    /// stale and the next delta reseeds (replaying the accepted batches).
    seeded_structured: usize,
    seeded_text: usize,
    journal: Journal,
    /// The `fused_revision` this session last installed (or adopted from
    /// a staged run); the context's `fused` is this session's previous
    /// output only while it still carries that revision.
    installed_revision: Option<u64>,
}

/// The consolidator's corpus by member index: the context's seeded
/// structured records, then its seeded text records, then the accepted
/// batches.
struct Corpus<'a> {
    structured: &'a [Record],
    text: &'a [Record],
    accepted: &'a [Record],
}

impl<'a> Corpus<'a> {
    fn get(&self, i: usize) -> &'a Record {
        let text_at = self.structured.len();
        let accepted_at = text_at + self.text.len();
        if i < text_at {
            &self.structured[i]
        } else if i < accepted_at {
            &self.text[i - text_at]
        } else {
            &self.accepted[i - accepted_at]
        }
    }
}

impl ResidentSession {
    /// True when the base corpus grew since seeding.
    pub(crate) fn is_stale(&self, ctx: &PipelineContext) -> bool {
        self.seeded_structured != ctx.structured_records.len()
            || self.seeded_text != ctx.text_show_records.len()
    }

    /// What the session replacing this stale one carries over: the log
    /// handle and every accepted batch.
    pub(crate) fn into_journal(self) -> (Journal, Vec<Record>) {
        (self.journal, self.accepted)
    }

    /// Build a session over the context's current corpus (integrated
    /// structured records, then text show records) with the accepted
    /// batches queued on top — `carried` from the stale session being
    /// replaced, or, on the first seed of a process, whatever the
    /// configured log holds. `staged` is adopted when it was built over
    /// exactly this corpus; otherwise the corpus is consolidated here under
    /// `config`, the context's configured blocked-ER grouping. Replay never
    /// re-appends.
    pub(crate) fn seed(
        ctx: &PipelineContext,
        config: &BlockedErConfig,
        staged: Option<StagedEr>,
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
        let (structured, text) = (&ctx.structured_records, &ctx.text_show_records);
        let (consolidator, installed_revision) = match staged {
            Some(s) if (s.structured, s.text) == (structured.len(), text.len()) => {
                (s.consolidator, s.installed_revision)
            }
            _ => {
                let mut consolidator = config.build_incremental();
                for part in [structured, text] {
                    if !part.is_empty() {
                        consolidator.ingest(part);
                    }
                }
                (consolidator, None)
            }
        };
        Ok(ResidentSession {
            consolidator,
            accepted,
            config: config.clone(),
            seeded_structured: structured.len(),
            seeded_text: text.len(),
            journal,
            installed_revision,
        })
    }

    /// Journal and consolidate `batch` (after any replayed tail not yet
    /// ingested), then install the updated groups and composites in `ctx`
    /// (bumping `fused_revision`, setting `fused_changed` to the exact
    /// re-resolved set) and log the delta as consolidation + fusion stage
    /// runs. The in-memory session is fully updated even when `Err`
    /// reports that persistence degraded — do not re-submit the batch.
    pub(crate) fn apply(
        &mut self,
        ctx: &mut PipelineContext,
        batch: &[Record],
    ) -> Result<DeltaReport> {
        let log_error = self.journal.accept(batch);
        let base = self.seeded_structured + self.seeded_text;
        let ingested = self.consolidator.len() - base;
        self.accepted.extend_from_slice(batch);
        let delta = self.consolidator.ingest(&self.accepted[ingested..]);

        // Stale output is dropped before its replacement is built.
        let mut prev_groups = std::mem::take(&mut ctx.fusion_groups);
        let mut prev_fused = std::mem::take(&mut ctx.fused);
        if self.installed_revision != Some(ctx.fused_revision) {
            prev_groups.clear();
            prev_fused.clear();
        }
        debug_assert_eq!(prev_groups.len(), prev_fused.len());
        let mut prev = prev_groups.into_iter().zip(prev_fused).peekable();

        // A cluster whose membership is unchanged since the installed
        // revision has the same first member, hence the same key: it carries
        // over exactly when it formed a group then. Comparing members (not
        // the last ingest's dirty flags) keeps this exact across a replayed
        // tail and any number of ingests since.
        let corpus = Corpus {
            structured: &ctx.structured_records[..self.seeded_structured],
            text: &ctx.text_show_records[..self.seeded_text],
            accepted: &self.accepted,
        };
        let clusters = self.consolidator.clusters();
        let mut groups: Vec<FusionGroup> = Vec::with_capacity(clusters.len());
        let mut slots: Vec<Option<FusedEntity>> = Vec::with_capacity(clusters.len());
        for cluster in clusters {
            let id = cluster[0];
            // Previous groups below this id were merged away or re-keyed.
            while prev.next_if(|((_, members), _)| members[0] < id).is_some() {}
            if let Some((group, entity)) = prev.next_if(|((_, m), _)| m == cluster) {
                groups.push(group);
                slots.push(Some(entity));
                continue;
            }
            let Some(key) = cluster_key(corpus.get(id), &self.config) else {
                continue;
            };
            groups.push((key, cluster.clone()));
            slots.push(None);
        }

        let changed: Vec<bool> = slots.iter().map(Option::is_none).collect();
        let registry = ctx.config().fusion_resolvers.build();
        let todo: Vec<&FusionGroup> = groups
            .iter()
            .zip(&changed)
            .filter_map(|(g, &c)| c.then_some(g))
            .collect();
        let mut resolved = todo
            .par_iter()
            .map(|g| merge_group(|i| corpus.get(i), g, &registry))
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
