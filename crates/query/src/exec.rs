//! Query planning and execution over an immutable collection snapshot.
//!
//! The planner picks from the predicate alone, in order: a **hash probe**
//! (an equality/`In` conjunct on a hash-indexed attribute), an **ordered
//! probe** (a comparison conjunct on an ordered-indexed attribute), or a
//! **full scan** over the fused entities. Probes only ever produce a
//! candidate *superset* — every candidate is re-checked against the full
//! predicate — so plan choice can change work done but never results.
//!
//! Determinism: scans fan out with rayon over row ranges (the shim's
//! order-preserving fork-join keeps positions ascending), while
//! everything order-sensitive — aggregation folds, sorting, projection —
//! runs sequentially over the already-ordered position list. Every plan
//! funnels into one `finish` routine, which is also the entire body of
//! [`execute_oracle`]: the oracle and the planned paths cannot drift.

use datatamer_core::fusion::FusedEntity;
use datatamer_model::Value;
use datatamer_sim::FnvBuildHasher;
use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use crate::ast::{
    Aggregate, AttrSource, Order, Predicate, Query, QueryResult, Row, CONFIDENCE_ATTR, KEY_ATTR,
    MEMBERS_ATTR,
};
use crate::index::{EntityIndexes, IndexMaintenance};
use crate::key::AttrKey;

/// Which plan actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Candidates from a hash-index equality probe.
    HashProbe,
    /// Candidates from an ordered-index range probe.
    OrderedProbe,
    /// No longer produced: snapshots carry no columnar projection. Kept
    /// so consumers that enumerate every plan name keep compiling (and
    /// report a zero share for it).
    ColumnarScan,
    /// Row-parallel scan over the fused entities.
    FullScan,
}

impl PlanKind {
    /// Stable name for stats/bench output.
    pub fn name(self) -> &'static str {
        match self {
            PlanKind::HashProbe => "hash_probe",
            PlanKind::OrderedProbe => "ordered_probe",
            PlanKind::ColumnarScan => "columnar_scan",
            PlanKind::FullScan => "full_scan",
        }
    }
}

/// A query result plus how it was produced.
#[derive(Debug, Clone)]
pub struct Executed {
    /// The result (byte-identical across plans).
    pub result: QueryResult,
    /// The plan that ran.
    pub plan: PlanKind,
    /// Rows the plan had to post-filter (scans: every row).
    pub candidates: usize,
}

/// Counters a snapshot carries for the stats endpoint.
#[derive(Debug, Clone, Default)]
pub struct SnapshotStats {
    /// Number of fused entities.
    pub entities: usize,
    /// View revision the snapshot was taken at.
    pub revision: u64,
    /// Index maintenance counters at snapshot time.
    pub index: IndexMaintenance,
    /// Extra `(name, value)` counters (storage/delta reports).
    pub counters: Vec<(String, u64)>,
}

/// An immutable, query-ready copy of a collection: entities + their
/// cluster ids + secondary indexes. Cheap to share behind an `Arc`;
/// readers never block ingest.
#[derive(Debug, Clone)]
pub struct CollectionSnapshot {
    entities: Vec<FusedEntity>,
    cluster_ids: Vec<usize>,
    /// cluster id → row position; probed only, never iterated.
    pos: HashMap<usize, u32, FnvBuildHasher>,
    indexes: EntityIndexes,
    stats: SnapshotStats,
}

impl CollectionSnapshot {
    /// Assemble from view parts.
    pub(crate) fn assemble(
        entities: Vec<FusedEntity>,
        cluster_ids: Vec<usize>,
        pos: HashMap<usize, u32, FnvBuildHasher>,
        indexes: EntityIndexes,
        stats: SnapshotStats,
    ) -> Self {
        CollectionSnapshot { entities, cluster_ids, pos, indexes, stats }
    }

    /// A snapshot straight from entities, with default point-lookup
    /// indexes — convenient for tests and benches.
    pub fn from_entities(entities: Vec<FusedEntity>, spec: crate::view::IndexSpec) -> Self {
        let mut view = crate::view::CollectionView::new(spec);
        let groups: Vec<(String, Vec<usize>)> =
            entities.iter().enumerate().map(|(i, e)| (e.key.clone(), vec![i])).collect();
        view.sync(&entities, &groups, None);
        view.snapshot(Vec::new())
    }

    /// The fused entities, in pipeline group order.
    pub fn entities(&self) -> &[FusedEntity] {
        &self.entities
    }

    /// Stable cluster id of each row.
    pub fn cluster_ids(&self) -> &[usize] {
        &self.cluster_ids
    }

    /// The secondary indexes.
    pub fn indexes(&self) -> &EntityIndexes {
        &self.indexes
    }

    /// Snapshot stats.
    pub fn stats(&self) -> &SnapshotStats {
        &self.stats
    }

    /// Point lookup by entity key, through the `_key` hash index when
    /// present (falls back to a linear scan).
    pub fn point_lookup(&self, key: &str) -> Option<&FusedEntity> {
        let needle = Value::from(key);
        if let Some(ix) = self.indexes.hash_index(KEY_ATTR) {
            let row = ix
                .lookup(&needle)
                .iter()
                .filter_map(|cid| self.pos.get(cid))
                .map(|&r| r as usize)
                .min()?;
            return self.entities.get(row);
        }
        self.entities.iter().find(|e| e.key == key)
    }

    /// Plan and run `q`: an index probe when a conjunct allows one, else
    /// a row-parallel full scan.
    pub fn execute(&self, q: &Query) -> Executed {
        match self.plan_probe(&q.filter) {
            Some((plan, cids)) => {
                // Translate stable cluster ids to row positions, then
                // re-check the full predicate in ascending row order.
                let mut rows: Vec<usize> = cids
                    .iter()
                    .filter_map(|cid| self.pos.get(cid))
                    .map(|&r| r as usize)
                    .collect();
                rows.sort_unstable();
                rows.dedup();
                let candidates = rows.len();
                rows.retain(|&i| q.filter.matches(&self.entities[i]));
                Executed { result: finish(q, &rows, &self.entities), plan, candidates }
            }
            None => {
                let n = self.entities.len();
                let positions: Vec<usize> = (0..n)
                    .into_par_iter()
                    .filter(|&i| q.filter.matches(&self.entities[i]))
                    .collect();
                Executed {
                    result: finish(q, &positions, &self.entities),
                    plan: PlanKind::FullScan,
                    candidates: n,
                }
            }
        }
    }

    /// Find an indexable top-level conjunct. Returns the candidate
    /// cluster-id set — always a superset of the rows the full predicate
    /// accepts, because probe keys use the same `total_cmp` semantics as
    /// predicate equality, and range probes over-approximate across type
    /// families.
    fn plan_probe(&self, filter: &Predicate) -> Option<(PlanKind, Vec<usize>)> {
        let conjuncts = filter.conjuncts();
        for c in &conjuncts {
            match c {
                Predicate::Eq(attr, v) => {
                    if let Some(ix) = self.indexes.hash_index(attr) {
                        return Some((PlanKind::HashProbe, ix.lookup(v).to_vec()));
                    }
                }
                Predicate::In(attr, options) => {
                    if let Some(ix) = self.indexes.hash_index(attr) {
                        let mut cids = Vec::new();
                        for v in options {
                            cids.extend_from_slice(ix.lookup(v));
                        }
                        return Some((PlanKind::HashProbe, cids));
                    }
                }
                _ => {}
            }
        }
        for c in &conjuncts {
            let (attr, lo, hi): (&str, Bound<&Value>, Bound<&Value>) = match c {
                Predicate::Eq(a, v) => (a, Bound::Included(v), Bound::Included(v)),
                Predicate::Gt(a, v) => (a, Bound::Excluded(v), Bound::Unbounded),
                Predicate::Gte(a, v) => (a, Bound::Included(v), Bound::Unbounded),
                Predicate::Lt(a, v) => (a, Bound::Unbounded, Bound::Excluded(v)),
                Predicate::Lte(a, v) => (a, Bound::Unbounded, Bound::Included(v)),
                _ => continue,
            };
            if let Some(ix) = self.indexes.ordered_index(attr) {
                return Some((PlanKind::OrderedProbe, ix.range(lo, hi)));
            }
        }
        None
    }
}

/// Execute `q` the dumb way: sequential filter over every entity, then the
/// same shared `finish`. This is the oracle every plan is pinned against.
pub fn execute_oracle(entities: &[FusedEntity], q: &Query) -> QueryResult {
    let positions: Vec<usize> =
        (0..entities.len()).filter(|&i| q.filter.matches(&entities[i])).collect();
    finish(q, &positions, entities)
}

/// Turn an ordered position list into the final result. Shared by every
/// plan and the oracle; strictly sequential.
fn finish(q: &Query, positions: &[usize], entities: &[FusedEntity]) -> QueryResult {
    if let Some(agg) = &q.aggregate {
        return aggregate(agg, positions, entities);
    }
    let mut rows: Vec<usize> = positions.to_vec();
    if let Some((attr, order)) = &q.order_by {
        let keys: Vec<Option<Value>> =
            rows.iter().map(|&i| first_value(&entities[i], attr)).collect();
        let mut tagged: Vec<(usize, usize)> = (0..rows.len()).map(|k| (k, rows[k])).collect();
        tagged.sort_by(|(ka, _), (kb, _)| {
            let cmp = cmp_opt(&keys[*ka], &keys[*kb]);
            match order {
                Order::Asc => cmp,
                Order::Desc => cmp.reverse(),
            }
        });
        rows = tagged.into_iter().map(|(_, row)| row).collect();
    }
    if let Some(limit) = q.limit {
        rows.truncate(limit);
    }
    let out = rows.iter().map(|&i| project(&entities[i], &q.project)).collect();
    QueryResult::Rows(out)
}

/// `None` (attribute absent) sorts before every value.
fn cmp_opt(a: &Option<Value>, b: &Option<Value>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => x.total_cmp(y),
    }
}

fn first_value(e: &FusedEntity, attr: &str) -> Option<Value> {
    let mut vals = Vec::new();
    e.attr_values(attr, &mut vals);
    vals.into_iter().next()
}

fn project(e: &FusedEntity, attrs: &[String]) -> Row {
    let fields = if attrs.is_empty() {
        e.record.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    } else {
        let mut out = Vec::with_capacity(attrs.len());
        for attr in attrs {
            let v = match attr.as_str() {
                KEY_ATTR => Some(Value::Str(e.key.clone())),
                MEMBERS_ATTR => Some(Value::Int(e.member_count as i64)),
                CONFIDENCE_ATTR => Some(match e.confidence {
                    Some(c) => Value::Float(c),
                    None => Value::Null,
                }),
                other => e.record.get(other).cloned(),
            };
            if let Some(v) = v {
                out.push((attr.clone(), v));
            }
        }
        out
    };
    Row { key: e.key.clone(), member_count: e.member_count, fields }
}

fn aggregate(agg: &Aggregate, positions: &[usize], entities: &[FusedEntity]) -> QueryResult {
    let mut vals = Vec::new();
    match agg {
        Aggregate::Count => QueryResult::Count(positions.len() as u64),
        Aggregate::Sum(attr) => {
            // Collect every numeric value in row order, then fold once:
            // exact i64 while all ints, f64 as soon as any float appears.
            let mut nums: Vec<Value> = Vec::new();
            for &i in positions {
                vals.clear();
                entities[i].attr_values(attr, &mut vals);
                nums.extend(
                    vals.drain(..).filter(|v| matches!(v, Value::Int(_) | Value::Float(_))),
                );
            }
            if nums.is_empty() {
                return QueryResult::Value(None);
            }
            if nums.iter().any(|v| matches!(v, Value::Float(_))) {
                let mut total = 0.0f64;
                for v in &nums {
                    total += match v {
                        Value::Int(i) => *i as f64,
                        Value::Float(f) => *f,
                        _ => 0.0,
                    };
                }
                QueryResult::Value(Some(Value::Float(total)))
            } else {
                let mut total = 0i64;
                for v in &nums {
                    if let Value::Int(i) = v {
                        total = total.wrapping_add(*i);
                    }
                }
                QueryResult::Value(Some(Value::Int(total)))
            }
        }
        Aggregate::Min(attr) | Aggregate::Max(attr) => {
            let want_min = matches!(agg, Aggregate::Min(_));
            let mut best: Option<Value> = None;
            for &i in positions {
                vals.clear();
                entities[i].attr_values(attr, &mut vals);
                for v in vals.drain(..) {
                    if v.is_null() {
                        continue;
                    }
                    best = Some(match best.take() {
                        None => v,
                        Some(b) => {
                            let keep_new = match v.total_cmp(&b) {
                                Ordering::Less => want_min,
                                Ordering::Greater => !want_min,
                                Ordering::Equal => false,
                            };
                            if keep_new {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
            }
            QueryResult::Value(best)
        }
        Aggregate::GroupBy(attr) => {
            let mut groups: BTreeMap<AttrKey, u64> = BTreeMap::new();
            for &i in positions {
                vals.clear();
                entities[i].attr_values(attr, &mut vals);
                for v in vals.drain(..) {
                    *groups.entry(AttrKey(v)).or_insert(0) += 1;
                }
            }
            QueryResult::Groups(groups.into_iter().map(|(k, n)| (k.0, n)).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::IndexSpec;
    use datatamer_model::{Record, RecordId, SourceId};

    fn entity(key: &str, price: i64, kind: &str) -> FusedEntity {
        FusedEntity {
            key: key.to_string(),
            record: Record::from_pairs(
                SourceId(0),
                RecordId(0),
                vec![("PRICE", Value::Int(price)), ("KIND", Value::from(kind))],
            ),
            member_count: 1,
            confidence: None,
        }
    }

    fn snap() -> CollectionSnapshot {
        let es = vec![
            entity("a", 30, "musical"),
            entity("b", 10, "play"),
            entity("c", 20, "musical"),
            entity("d", 40, "opera"),
        ];
        CollectionSnapshot::from_entities(
            es,
            IndexSpec::default().hash_on("KIND").ordered_on("PRICE"),
        )
    }

    fn rows_keys(r: &QueryResult) -> Vec<String> {
        match r {
            QueryResult::Rows(rows) => rows.iter().map(|r| r.key.clone()).collect(),
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn plans_agree_and_probe_is_used() {
        let s = snap();
        let q = Query::filtered(Predicate::Eq("KIND".into(), "musical".into()));
        let probe = s.execute(&q);
        assert_eq!(probe.plan, PlanKind::HashProbe);
        assert_eq!(probe.candidates, 2);
        let oracle = execute_oracle(s.entities(), &q);
        assert_eq!(probe.result, oracle);
        assert_eq!(rows_keys(&oracle), vec!["a", "c"]);
    }

    #[test]
    fn range_probe_and_order_limit() {
        let s = snap();
        let q = Query::filtered(Predicate::Gte("PRICE".into(), Value::Int(20)))
            .order_by("PRICE", Order::Desc)
            .take(2)
            .project(vec!["_key", "PRICE"]);
        let run = s.execute(&q);
        assert_eq!(run.plan, PlanKind::OrderedProbe);
        assert_eq!(run.result, execute_oracle(s.entities(), &q));
        assert_eq!(rows_keys(&run.result), vec!["d", "a"]);
    }

    #[test]
    fn aggregates_match_oracle() {
        let s = snap();
        for agg in [
            Aggregate::Count,
            Aggregate::Sum("PRICE".into()),
            Aggregate::Min("PRICE".into()),
            Aggregate::Max("PRICE".into()),
            Aggregate::GroupBy("KIND".into()),
        ] {
            let q = Query::filtered(Predicate::Gt("PRICE".into(), Value::Int(10)))
                .aggregate(agg.clone());
            assert_eq!(
                s.execute(&q).result,
                execute_oracle(s.entities(), &q),
                "aggregate {agg:?}"
            );
        }
        let q = Query::filtered(Predicate::True).aggregate(Aggregate::Sum("PRICE".into()));
        assert_eq!(s.execute(&q).result, QueryResult::Value(Some(Value::Int(100))));
    }

    #[test]
    fn point_lookup_goes_through_key_index() {
        let s = snap();
        assert_eq!(s.point_lookup("c").unwrap().record.get("PRICE"), Some(&Value::Int(20)));
        assert!(s.point_lookup("zz").is_none());
    }

    #[test]
    fn unindexed_filters_fall_back_to_full_scan() {
        let s = snap();
        let q = Query::filtered(Predicate::Contains("KIND".into(), "usic".into()));
        let run = s.execute(&q);
        assert_eq!(run.plan, PlanKind::FullScan);
        assert_eq!(run.candidates, s.entities().len());
        assert_eq!(run.result, execute_oracle(s.entities(), &q));
    }
}
