//! Facade glue between the pipeline and the query/serving subsystem:
//! one [`ServeSession`] owns a running [`QueryServer`] plus the
//! per-collection [`CollectionView`]s it publishes from.
//!
//! The flow is: run the pipeline (batch or [`DataTamer::consolidate_delta`]),
//! then [`ServeSession::publish`] — which syncs the named view from the
//! pipeline context (using the delta path's dirty-cluster set for
//! incremental index maintenance when the view is exactly one fused
//! revision behind, comparing index entries otherwise), stamps the
//! snapshot with the run's `DeltaReport` and `StorageReport` counters, and
//! atomically swaps it into the server's shared registry. Readers hitting the HTTP routes in
//! between always see a complete snapshot — old or new, never torn.

use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs};

use datatamer_core::stage::{stage_names, StageReport};
use datatamer_core::pipeline::GLOBAL_RECORDS_COLLECTION;
use datatamer_core::DataTamer;
use datatamer_query::http::{QueryServer, ServerConfig, SharedViews};
use datatamer_query::view::{CollectionView, IndexSpec};

/// A pipeline-facing handle on the serving subsystem.
pub struct ServeSession {
    views: SharedViews,
    server: QueryServer,
    /// Each published view with the `fused_revision` it was last synced at.
    collections: BTreeMap<String, (CollectionView, u64)>,
}

impl ServeSession {
    /// Bind the HTTP front end (use `127.0.0.1:0` for an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: ServerConfig) -> std::io::Result<ServeSession> {
        let views = SharedViews::new();
        let server = QueryServer::bind(addr, views.clone(), cfg)?;
        Ok(ServeSession { views, server, collections: BTreeMap::new() })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The snapshot registry (shareable with extra readers).
    pub fn views(&self) -> &SharedViews {
        &self.views
    }

    /// Sync `name`'s view from the pipeline's current fused output and
    /// publish an immutable snapshot. The first publish builds indexes
    /// from scratch; after one `consolidate_delta`, only dirty clusters are
    /// examined; a publish that skipped a revision (two deltas, one
    /// publish, or a batch run) compares every cluster's index entries
    /// instead, because `fused_changed` only covers the last revision —
    /// either way only clusters whose entries changed are rewritten, and
    /// the snapshot shares everything else with the one it replaces. The
    /// snapshot carries `storage.*` counters from the run's reports for the
    /// stats endpoint, and `delta.*` counters when the latest
    /// consolidation was a delta (not a run's consolidation stage).
    pub fn publish(&mut self, name: &str, dt: &DataTamer, spec: IndexSpec) {
        let ctx = dt.context();
        let (view, synced) = self
            .collections
            .entry(name.to_string())
            .or_insert_with(|| (CollectionView::new(spec), 0));
        let changed = ctx.fused_changed.as_deref().filter(|_| ctx.fused_revision == *synced + 1);
        view.sync(&ctx.fused, &ctx.fusion_groups, changed);
        *synced = ctx.fused_revision;

        let mut counters: Vec<(String, u64)> = Vec::new();
        if let Some(StageReport::EntityConsolidation { delta: Some(d), .. }) =
            ctx.report_of(stage_names::ENTITY_CONSOLIDATION)
        {
            counters.extend([
                ("delta.batch_records".to_string(), d.batch_records as u64),
                ("delta.total_records".to_string(), d.total_records as u64),
                ("delta.candidate_pairs".to_string(), d.candidate_pairs as u64),
                ("delta.scored_pairs".to_string(), d.scored_pairs as u64),
                ("delta.dirty_clusters".to_string(), d.dirty_clusters as u64),
                ("delta.reused_clusters".to_string(), d.reused_clusters as u64),
                ("delta.memo_hits".to_string(), d.memo_hits as u64),
            ]);
        }
        if let Some(col) = dt.collection(GLOBAL_RECORDS_COLLECTION) {
            counters.extend(
                col.storage_report()
                    .counter_pairs()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v)),
            );
        }
        self.views.publish(name, view.snapshot(counters));
    }

    /// The mutable view behind a published collection, for inspection.
    pub fn view(&self, name: &str) -> Option<&CollectionView> {
        self.collections.get(name).map(|(view, _)| view)
    }

    /// Shut the server down, joining its threads.
    pub fn stop(self) {
        self.server.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_core::fusion::{BlockedErConfig, GroupingStrategy, CHEAPEST_PRICE, SHOW_NAME};
    use datatamer_core::{DataTamerConfig, PipelinePlan};
    use datatamer_model::{Record, RecordId, SourceId, Value};
    use datatamer_query::prelude::*;

    fn show(id: u64, name: &str, price: &str) -> Record {
        Record::from_pairs(
            SourceId(0),
            RecordId(id),
            vec![(SHOW_NAME, Value::from(name)), (CHEAPEST_PRICE, Value::from(price))],
        )
    }

    #[test]
    fn a_publish_that_skipped_a_revision_reindexes_the_skipped_delta() {
        let mut dt = DataTamer::new(DataTamerConfig {
            grouping: GroupingStrategy::BlockedEr(BlockedErConfig::default()),
            ..Default::default()
        });
        let corpus: Vec<Record> =
            (0..10).map(|i| show(i, &format!("Unique{i} Show{i}"), "$20")).collect();
        dt.run(PipelinePlan::new().structured("s1", &corpus)).expect("seed run");
        let mut session = ServeSession::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let spec = IndexSpec::default().hash_on(CHEAPEST_PRICE);
        session.publish("shows", &dt, spec.clone());

        // Delta 1 lowers one entity's hash-indexed price; delta 2 leaves that
        // entity clean. Only then is the view published.
        dt.consolidate_delta(&[show(100, "Unique3 Show3", "$19")]).expect("delta 1");
        dt.consolidate_delta(&[show(101, "Brand New", "$20")]).expect("delta 2");
        session.publish("shows", &dt, spec);

        let snap = session.views().get("shows").expect("published");
        let q = Query::filtered(Predicate::Eq(CHEAPEST_PRICE.into(), Value::from("$19")));
        let run = snap.execute(&q);
        assert_eq!(run.plan, PlanKind::HashProbe);
        assert_eq!(run.result, execute_oracle(&dt.context().fused, &q));
        assert!(matches!(&run.result, QueryResult::Rows(rows) if rows.len() == 1), "{:?}", run.result);
        // No rebuild: the skipped delta's cluster and the new one are the
        // only clusters whose index entries were rewritten.
        let m = session.view("shows").expect("published").maintenance();
        assert_eq!((m.full_builds, m.delta_syncs, m.clusters_reindexed), (1, 1, 2), "{m:?}");
        session.stop();
    }
}
