//! Query planning and execution over an immutable collection snapshot.
//!
//! The planner picks from the predicate alone, in order: a **hash probe**
//! (an equality/`In` conjunct on an
//! [`IndexSpec::hash`](crate::IndexSpec::hash) attribute: each operand's
//! postings, looked up in that attribute's index), an **ordered probe**
//! (a comparison conjunct on an
//! [`IndexSpec::ordered`](crate::IndexSpec::ordered) attribute: the
//! postings of every key in range), or a **full scan** over the fused
//! entities. Both probes read the one posting structure,
//! [`OrderedIndex`]; the plan names say which lookup ran. Probes only
//! ever produce a candidate *superset* — every candidate is re-checked
//! against the full predicate — so plan choice can change work done but
//! never results.
//!
//! Two push-down rules let a probe stop re-checking early. Both hand
//! `finish` the same rows it would otherwise keep, so they are exact:
//!
//! * **(a) limit** — a probe with `limit` k and neither `order_by` nor an
//!   aggregate re-checks its sorted, deduplicated candidate rows in
//!   ascending order and stops after k matches. `finish` keeps the first k
//!   matches in row order, which are exactly these.
//! * **(b) ordered top-k** — with `order_by` on an ordered-indexed
//!   attribute A, a `limit` k, no aggregate and no hash-probe conjunct,
//!   when the range conjunct the ordered probe would use is on A and
//!   leaves open the end the order starts from (`>`/`>=` with `Desc`,
//!   `<`/`<=` with `Asc`), its range is walked key group by key group
//!   from that open end, each row re-checked once, so it checks a subset
//!   of the rows the plain probe would. The walk stops after the group
//!   with key K once k matched rows have a sort key (`first_value(A)`) at
//!   least as good as K. Every row not yet reached
//!   has all of its A values strictly worse than K — the range covers
//!   every key on the walked side of its bound, across type families — so
//!   it sorts strictly after those k rows and cannot enter the top k. Only
//!   rows whose *sort key* reached K count: a multi-valued row reached
//!   through a later value may still sort below an unvisited row.
//!
//! Either way [`Executed::candidates`] counts the rows actually
//! re-checked.
//!
//! Determinism: scans fan out with rayon over row ranges (the shim
//! concatenates chunk outputs in chunk order, so positions stay
//! ascending; a served request's scan runs on its worker alone), while
//! everything order-sensitive — aggregation folds, sorting, projection —
//! runs sequentially over the already-ordered position list. Group-by
//! keys come out in `total_cmp` order whatever the map that counted them:
//! string keys are counted in a hash map that is only probed, never
//! iterated, the rest in a sorted map, and one sort of the distinct keys
//! orders them; each group keeps the first value seen of its key. Every plan
//! funnels into one `finish` routine, which is also the entire body of
//! [`execute_oracle`]: the oracle and the planned paths cannot drift.

use datatamer_core::fusion::FusedEntity;
use datatamer_model::{AttrKey, Value};
use datatamer_sim::FnvBuildHasher;
use rayon::prelude::*;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;
use std::sync::Arc;

use crate::ast::{
    pseudo_value, Aggregate, AttrSource, Order, Predicate, Prepared, Query, QueryResult, Row,
    KEY_ATTR,
};
use crate::index::{EntityIndexes, IndexMaintenance, OrderedIndex};

/// Which plan actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Candidates from an equality probe: each operand's postings.
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
    /// Rows the plan had to post-filter: the rows actually re-checked
    /// against the predicate (scans: every row; a probe that stopped at
    /// its limit: only those before the stop).
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

/// An immutable, query-ready state of a collection: entities + their
/// cluster ids + secondary indexes, shared with the view it was taken
/// from rather than copied (see [`crate::view`]). Cheap to share behind an
/// `Arc`; readers never block ingest.
#[derive(Debug, Clone)]
pub struct CollectionSnapshot {
    entities: Arc<[FusedEntity]>,
    cluster_ids: Arc<[usize]>,
    /// cluster id → row position; probed only, never iterated.
    pos: Arc<HashMap<usize, u32, FnvBuildHasher>>,
    indexes: EntityIndexes,
    stats: SnapshotStats,
}

impl CollectionSnapshot {
    /// Assemble from view parts.
    pub(crate) fn assemble(
        entities: Arc<[FusedEntity]>,
        cluster_ids: Arc<[usize]>,
        pos: Arc<HashMap<usize, u32, FnvBuildHasher>>,
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

    /// Point lookup by entity key, through the `_key` equality index when
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
        let filter = q.filter.prepare();
        let (plan, rows, candidates) = match self.plan_probe(q) {
            Some(Probe::Candidates(plan, cids)) => {
                // Translate stable cluster ids to row positions, then
                // re-check the full predicate in ascending row order —
                // stopping at the limit when nothing reorders the rows.
                let mut rows: Vec<usize> = cids
                    .iter()
                    .filter_map(|cid| self.pos.get(cid))
                    .map(|&r| r as usize)
                    .collect();
                rows.sort_unstable();
                rows.dedup();
                let stop_at = match (&q.order_by, &q.aggregate) {
                    (None, None) => q.limit.unwrap_or(usize::MAX),
                    _ => usize::MAX,
                };
                let mut matched = Vec::new();
                let mut checked = 0;
                for &row in &rows {
                    if matched.len() >= stop_at {
                        break;
                    }
                    checked += 1;
                    if filter.matches(&self.entities[row]) {
                        matched.push(row);
                    }
                }
                (plan, matched, checked)
            }
            Some(Probe::TopK(walk)) => {
                let (rows, checked) = self.top_k(&filter, walk);
                (PlanKind::OrderedProbe, rows, checked)
            }
            None => {
                let n = self.entities.len();
                let positions: Vec<usize> =
                    (0..n).into_par_iter().filter(|&i| filter.matches(&self.entities[i])).collect();
                (PlanKind::FullScan, positions, n)
            }
        };
        Executed { result: finish(q, &rows, &self.entities), plan, candidates }
    }

    /// Find an indexable top-level conjunct. A hash probe wins; else the
    /// first comparison conjunct on an ordered-indexed attribute, walked
    /// top-k when the query qualifies (see the module doc) and probed as a
    /// range otherwise. Candidate sets are always a superset of the rows
    /// the full predicate accepts, because probe keys use the same
    /// `total_cmp` semantics as predicate equality, and range probes
    /// over-approximate across type families.
    fn plan_probe<'q>(&'q self, q: &'q Query) -> Option<Probe<'q>> {
        let conjuncts = q.filter.conjuncts();
        for c in &conjuncts {
            match c {
                Predicate::Eq(attr, v) => {
                    if let Some(ix) = self.indexes.hash_index(attr) {
                        let cids = Cow::Borrowed(ix.lookup(v));
                        return Some(Probe::Candidates(PlanKind::HashProbe, cids));
                    }
                }
                Predicate::In(attr, options) => {
                    if let Some(ix) = self.indexes.hash_index(attr) {
                        let mut cids = Vec::new();
                        for v in options {
                            cids.extend_from_slice(ix.lookup(v));
                        }
                        return Some(Probe::Candidates(PlanKind::HashProbe, Cow::Owned(cids)));
                    }
                }
                _ => {}
            }
        }
        let (attr, lo, hi, index) = conjuncts.iter().find_map(|c| {
            let (attr, lo, hi) = range_of(c)?;
            Some((attr, lo, hi, self.indexes.ordered_index(attr)?))
        })?;
        if let (None, Some((by, order)), Some(k)) = (&q.aggregate, &q.order_by, q.limit) {
            // The walk starts at the end the order starts from, so that end
            // of the range must be open.
            let open_start = match order {
                Order::Asc => matches!(lo, Bound::Unbounded),
                Order::Desc => matches!(hi, Bound::Unbounded),
            };
            if by == attr && open_start {
                return Some(Probe::TopK(TopKWalk { index, attr, lo, hi, order: *order, k }));
            }
        }
        Some(Probe::Candidates(PlanKind::OrderedProbe, Cow::Owned(index.range(lo, hi))))
    }

    /// Rule (b) of the module doc: walk the ordered index's key groups from
    /// the end the order starts at, re-check each row once, and stop once
    /// `k` matched rows sort at least as well as the current key. Returns
    /// the matched rows in ascending order and how many rows were checked.
    fn top_k(&self, filter: &Prepared<'_>, walk: TopKWalk<'_>) -> (Vec<usize>, usize) {
        let TopKWalk { index, attr, lo, hi, order, k } = walk;
        // `cmp_opt(sort_key, Some(key))` — `finish`'s comparator — so "at
        // least as good" here is exactly "not sorted after" there.
        let at_least_as_good = |sort_key: &Option<Cow<'_, Value>>, key: &Value| {
            let cmp = sort_key.as_deref().map_or(Ordering::Less, |v| v.total_cmp(key));
            match order {
                Order::Asc => cmp != Ordering::Greater,
                Order::Desc => cmp != Ordering::Less,
            }
        };
        let mut checked: HashSet<usize, FnvBuildHasher> = HashSet::default();
        let mut matched = Vec::new();
        // Sort keys of matched rows that a not-yet-visited row could still
        // beat: rows reached through a value other than their first.
        let mut unsettled: Vec<Option<Cow<'_, Value>>> = Vec::new();
        let mut settled = 0;
        for (key, postings) in index.groups(lo, hi, order) {
            if settled >= k {
                break;
            }
            for cid in postings {
                let Some(&row) = self.pos.get(cid) else { continue };
                let row = row as usize;
                if checked.insert(row) && filter.matches(&self.entities[row]) {
                    matched.push(row);
                    unsettled.push(first_value(&self.entities[row], attr));
                }
            }
            unsettled.retain(|sort_key| {
                let settles = at_least_as_good(sort_key, key);
                settled += usize::from(settles);
                !settles
            });
        }
        matched.sort_unstable();
        (matched, checked.len())
    }
}

/// What [`CollectionSnapshot::plan_probe`] chose.
enum Probe<'q> {
    /// Candidate cluster ids to re-check: a superset of the matches. A
    /// single-value hash probe lends the index's posting list.
    Candidates(PlanKind, Cow<'q, [usize]>),
    /// An ordered top-k walk over one index.
    TopK(TopKWalk<'q>),
}

/// The inputs of an ordered top-k walk: the index on the `order_by`
/// attribute, the range conjunct's bounds on it, the order and the limit.
struct TopKWalk<'q> {
    index: &'q OrderedIndex,
    attr: &'q str,
    lo: Bound<&'q Value>,
    hi: Bound<&'q Value>,
    order: Order,
    k: usize,
}

/// The `(attr, lo, hi)` key range a comparison conjunct probes.
fn range_of(c: &Predicate) -> Option<(&str, Bound<&Value>, Bound<&Value>)> {
    Some(match c {
        Predicate::Eq(a, v) => (a, Bound::Included(v), Bound::Included(v)),
        Predicate::Gt(a, v) => (a, Bound::Excluded(v), Bound::Unbounded),
        Predicate::Gte(a, v) => (a, Bound::Included(v), Bound::Unbounded),
        Predicate::Lt(a, v) => (a, Bound::Unbounded, Bound::Excluded(v)),
        Predicate::Lte(a, v) => (a, Bound::Unbounded, Bound::Included(v)),
        _ => return None,
    })
}

/// Execute `q` the dumb way: sequential filter over every entity, then the
/// same shared `finish`. This is the oracle every plan is pinned against.
pub fn execute_oracle(entities: &[FusedEntity], q: &Query) -> QueryResult {
    let filter = q.filter.prepare();
    let positions: Vec<usize> =
        (0..entities.len()).filter(|&i| filter.matches(&entities[i])).collect();
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
        let mut keyed: Vec<(Option<Cow<'_, Value>>, usize)> =
            rows.iter().map(|&i| (first_value(&entities[i], attr), i)).collect();
        keyed.sort_by(|(a, _), (b, _)| {
            let cmp = cmp_opt(a.as_deref(), b.as_deref());
            match order {
                Order::Asc => cmp,
                Order::Desc => cmp.reverse(),
            }
        });
        rows = keyed.into_iter().map(|(_, row)| row).collect();
    }
    if let Some(limit) = q.limit {
        rows.truncate(limit);
    }
    let out = rows.iter().map(|&i| project(&entities[i], &q.project)).collect();
    QueryResult::Rows(out)
}

/// `None` (attribute absent) sorts before every value.
fn cmp_opt(a: Option<&Value>, b: Option<&Value>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => x.total_cmp(y),
    }
}

fn first_value<'a>(e: &'a FusedEntity, attr: &str) -> Option<Cow<'a, Value>> {
    let mut first = None;
    e.any_value(attr, |v| {
        first = Some(v);
        true
    });
    first
}

fn project(e: &FusedEntity, attrs: &[String]) -> Row {
    let fields = if attrs.is_empty() {
        e.record.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    } else {
        let mut out = Vec::with_capacity(attrs.len());
        for attr in attrs {
            if let Some(v) = pseudo_value(e, attr).or_else(|| e.record.get(attr).cloned()) {
                out.push((attr.clone(), v));
            }
        }
        out
    };
    Row { key: e.key.clone(), member_count: e.member_count, fields }
}

fn aggregate(agg: &Aggregate, positions: &[usize], entities: &[FusedEntity]) -> QueryResult {
    match agg {
        Aggregate::Count => QueryResult::Count(positions.len() as u64),
        Aggregate::Sum(attr) => {
            // Exact i64 while all values are ints; else the f64 fold of
            // every numeric value in row order, kept beside it.
            let (mut ints, mut floats, mut any, mut any_float) = (0i64, 0.0f64, false, false);
            for &i in positions {
                entities[i].any_value(attr, |v| {
                    match *v {
                        Value::Int(x) => {
                            ints = ints.wrapping_add(x);
                            floats += x as f64;
                        }
                        Value::Float(x) => {
                            floats += x;
                            any_float = true;
                        }
                        _ => return false,
                    }
                    any = true;
                    false
                });
            }
            let total = if any_float { Value::Float(floats) } else { Value::Int(ints) };
            QueryResult::Value(any.then_some(total))
        }
        Aggregate::Min(attr) | Aggregate::Max(attr) => {
            let want_min = matches!(agg, Aggregate::Min(_));
            let mut best: Option<Cow<'_, Value>> = None;
            for &i in positions {
                entities[i].any_value(attr, |v| {
                    let keep_new = !v.is_null()
                        && best.as_deref().is_none_or(|b| match v.total_cmp(b) {
                            Ordering::Less => want_min,
                            Ordering::Greater => !want_min,
                            Ordering::Equal => false,
                        });
                    if keep_new {
                        best = Some(v);
                    }
                    false
                });
            }
            QueryResult::Value(best.map(Cow::into_owned))
        }
        Aggregate::GroupBy(attr) => {
            // Two strings are `total_cmp`-equal exactly when their bytes
            // are, so string keys are counted by their text, cloned on
            // first sight only; `slots` only finds a key's place in
            // `groups` and is never iterated. Every other key is counted
            // in `others`, and one sort restores `total_cmp` order.
            let mut groups: Vec<(Value, u64)> = Vec::new();
            let mut slots: HashMap<Cow<'_, str>, usize, FnvBuildHasher> = HashMap::default();
            let mut others: BTreeMap<AttrKey, u64> = BTreeMap::new();
            for &i in positions {
                entities[i].any_value(attr, |v| {
                    let text = match v {
                        Cow::Borrowed(Value::Str(s)) => Cow::Borrowed(s.as_str()),
                        Cow::Owned(Value::Str(s)) => Cow::Owned(s),
                        other => {
                            *others.entry(AttrKey(other.into_owned())).or_insert(0) += 1;
                            return false;
                        }
                    };
                    let slot = *slots.entry(text).or_insert_with_key(|text| {
                        groups.push((Value::Str(text.to_string()), 0));
                        groups.len() - 1
                    });
                    groups[slot].1 += 1;
                    false
                });
            }
            groups.extend(others.into_iter().map(|(k, n)| (k.0, n)));
            groups.sort_unstable_by(|(a, _), (b, _)| a.total_cmp(b));
            QueryResult::Groups(groups)
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
    fn limits_push_down_into_probes() {
        let s = snap();
        // (a): the first match in row order ends the hash probe's re-check.
        let q = Query::filtered(Predicate::Eq("KIND".into(), "musical".into())).take(1);
        let run = s.execute(&q);
        assert_eq!((run.plan, run.candidates), (PlanKind::HashProbe, 1));
        assert_eq!(rows_keys(&run.result), vec!["a"]);
        // (b): the walk from the top of PRICE stops at the second key.
        let q = Query::filtered(Predicate::Gt("PRICE".into(), Value::Int(0)))
            .order_by("PRICE", Order::Desc)
            .take(2);
        let run = s.execute(&q);
        assert_eq!((run.plan, run.candidates), (PlanKind::OrderedProbe, 2));
        assert_eq!(run.result, execute_oracle(s.entities(), &q));
        // A bounded start end is not walked: the plain probe checks all.
        let q = Query::filtered(Predicate::Lt("PRICE".into(), Value::Int(100)))
            .order_by("PRICE", Order::Desc)
            .take(2);
        assert_eq!(s.execute(&q).candidates, 4);
    }

    #[test]
    fn top_k_counts_only_rows_whose_sort_key_reached_the_walk() {
        let with_prices = |key: &str, prices: Vec<Value>| FusedEntity {
            key: key.to_string(),
            record: Record::from_pairs(
                SourceId(0),
                RecordId(0),
                vec![("PRICE", Value::Array(prices))],
            ),
            member_count: 1,
            confidence: None,
        };
        // `a` is reached first (through 100) but sorts by its first value,
        // 1; `b` (50) must still win the top spot, and in ascending order
        // `c` (reached through -100, sorting by 5) must lose to `b` (0).
        let es = vec![
            with_prices("a", vec![Value::Int(1), Value::Int(100)]),
            with_prices("b", vec![Value::Int(50), Value::Int(0)]),
            with_prices("c", vec![Value::Int(5), Value::Int(-100)]),
            with_prices("d", vec![Value::from("zz"), Value::Int(7)]),
        ];
        let s = CollectionSnapshot::from_entities(es, IndexSpec::default().ordered_on("PRICE"));
        for (pred, order, k) in [
            (Predicate::Gte("PRICE".into(), Value::Int(0)), Order::Desc, 2),
            (Predicate::Gte("PRICE".into(), Value::Int(0)), Order::Desc, 3),
            (Predicate::Lt("PRICE".into(), Value::Int(60)), Order::Asc, 1),
            (Predicate::Lte("PRICE".into(), Value::Float(1.0)), Order::Asc, 2),
        ] {
            let q = Query::filtered(pred).order_by("PRICE", order).take(k);
            let run = s.execute(&q);
            assert_eq!(run.plan, PlanKind::OrderedProbe);
            assert_eq!(run.result, execute_oracle(s.entities(), &q), "{q:?}");
        }
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
