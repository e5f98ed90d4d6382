//! The query-subsystem correctness pin: every plan the executor can pick
//! (hash probe, ordered probe, full scan) must produce a result
//! byte-identical to the naive sequential full-scan oracle, over
//! random corpora and random predicates, at any thread count — and a
//! [`CollectionView`] kept in sync *incrementally* across
//! `consolidate_delta` batches must serve exactly what a from-scratch
//! view serves, without ever rebuilding its indexes.

use datatamer::core::fusion::{BlockedErConfig, FusedEntity, GroupingStrategy};
use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer::model::{AttrKey, Record, RecordId, SourceId, Value};
use datatamer::query::prelude::*;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use std::ops::Bound;

/// Byte-exact fingerprint of a result: Debug is total (NaN prints as
/// `NaN`), whereas `Value`'s `PartialEq` is not (NaN != NaN), so equal
/// results containing NaN would spuriously differ under `==`.
fn fp(r: &QueryResult) -> String {
    format!("{r:?}")
}

// ---------------------------------------------------------------------
// Part A: random synthetic entities, random queries, whichever plan the
// planner picks.
// ---------------------------------------------------------------------

/// One entity from a compact spec. The per-attribute pools deliberately
/// mix types (GENRE is mostly strings but sometimes an int, RATING is
/// mostly floats but sometimes an int) so index keys and predicates meet
/// cross-type comparisons, and NaN/Null/absent are all reachable. PRICE
/// and RATING are sometimes arrays — whose first element (the sort key)
/// lies outside a probe's range, or is a string beside numbers — and tie
/// heavily, `Int(3)` beside `Float(3.0)`, so ordered top-k walks meet
/// rows reached through a value that is not their sort key.
fn entity(i: usize, spec: (u8, u8, u8, u8, u8, u8)) -> FusedEntity {
    let (g, p, r, t, c, m) = spec;
    let mut pairs: Vec<(&str, Value)> = Vec::new();
    match g {
        0 => {}
        1 => pairs.push(("GENRE", Value::Null)),
        2 => pairs.push(("GENRE", Value::from("alpha"))),
        3 => pairs.push(("GENRE", Value::from("Beta"))),
        4 => pairs.push(("GENRE", Value::from("gamma ray"))),
        _ => pairs.push(("GENRE", Value::Int(7))),
    }
    match p {
        0 => {}
        1..=5 => pairs.push(("PRICE", Value::Int(i64::from(p) * 3 - 6))),
        6 => pairs.push(("PRICE", Value::Float(2.5))),
        7 => pairs.push(("PRICE", Value::Float(f64::NAN))),
        8 => pairs.push(("PRICE", Value::Array(vec![Value::Int(-6), Value::Int(9)]))),
        9 => pairs.push(("PRICE", Value::Array(vec![Value::Int(12), Value::Float(0.5)]))),
        10 => pairs.push(("PRICE", Value::Array(vec![Value::from("alpha"), Value::Int(3)]))),
        _ => pairs.push(("PRICE", Value::Float(3.0))),
    }
    match r {
        0 => {}
        1..=4 => pairs.push(("RATING", Value::Float(f64::from(r) / 2.0))),
        5 => pairs.push(("RATING", Value::Int(3))),
        6 => pairs.push(("RATING", Value::Float(3.0))),
        7 => pairs.push(("RATING", Value::Array(vec![Value::Float(0.5), Value::Int(3)]))),
        _ => pairs.push(("RATING", Value::Array(vec![Value::from("Beta"), Value::Float(1.0)]))),
    }
    match t {
        0 => {}
        1 => pairs.push(("TAGS", Value::Array(vec![Value::from("x"), Value::Int(1)]))),
        2 => pairs.push(("TAGS", Value::Array(Vec::new()))),
        3 => pairs.push(("TAGS", Value::from("x"))),
        _ => pairs.push(("TAGS", Value::Array(vec![Value::from("y")]))),
    }
    FusedEntity {
        key: format!("k{i:03}"),
        record: Record::from_pairs(SourceId(0), RecordId(i as u64), pairs),
        member_count: usize::from(m),
        confidence: if c == 0 { None } else { Some(f64::from(c) / 4.0) },
    }
}

const ATTRS: [&str; 7] = ["GENRE", "PRICE", "RATING", "TAGS", "_key", "_members", "_confidence"];

fn operand(sel: u8) -> Value {
    match sel {
        0 => Value::Int(0),
        1 => Value::Int(3),
        2 => Value::Float(3.0),
        3 => Value::Float(1.25),
        4 => Value::from("alpha"),
        5 => Value::from("Beta"),
        6 => Value::Bool(true),
        7 => Value::Null,
        _ => Value::Float(f64::NAN),
    }
}

fn leaf(spec: (u8, u8, u8)) -> Predicate {
    let (attr_sel, op_sel, val_sel) = spec;
    let a = ATTRS[usize::from(attr_sel) % ATTRS.len()].to_string();
    let v = operand(val_sel);
    match op_sel {
        0 => Predicate::Eq(a, v),
        1 => Predicate::Ne(a, v),
        2 => Predicate::Gt(a, v),
        3 => Predicate::Gte(a, v),
        4 => Predicate::Lt(a, v),
        5 => Predicate::Lte(a, v),
        6 => Predicate::In(a, vec![v, operand(val_sel.wrapping_add(3) % 9)]),
        7 => Predicate::Contains(a, if val_sel % 2 == 0 { "a".into() } else { "gamma".into() }),
        8 => Predicate::Exists(a),
        _ => Predicate::True,
    }
}

fn predicate(leaves: &[(u8, u8, u8)], shape: u8) -> Predicate {
    let ps: Vec<Predicate> = leaves.iter().map(|&l| leaf(l)).collect();
    match shape {
        0 => ps[0].clone(),
        1 => Predicate::And(ps),
        2 => Predicate::Or(ps),
        3 => Predicate::Not(Box::new(ps[0].clone())),
        _ => {
            let (first, rest) = ps.split_first().unwrap();
            Predicate::And(vec![first.clone(), Predicate::Or(rest.to_vec())])
        }
    }
}

fn query(filter: Predicate, agg: u8, order: u8, limit: u8, project: u8) -> Query {
    let mut q = Query::filtered(filter);
    q = match agg {
        0 => q,
        1 => q.aggregate(Aggregate::Count),
        2 => q.aggregate(Aggregate::Sum("PRICE".into())),
        3 => q.aggregate(Aggregate::Min("RATING".into())),
        4 => q.aggregate(Aggregate::Max("PRICE".into())),
        _ => q.aggregate(Aggregate::GroupBy("GENRE".into())),
    };
    q = match order {
        0 => q,
        1 => q.order_by("PRICE", Order::Asc),
        2 => q.order_by("PRICE", Order::Desc),
        3 => q.order_by("_key", Order::Asc),
        _ => q.order_by("_confidence", Order::Desc),
    };
    if limit > 0 {
        q = q.take(usize::from(limit) - 1);
    }
    match project {
        0 => q,
        1 => q.project(vec!["GENRE", "PRICE"]),
        2 => q.project(vec!["_key", "_members", "_confidence"]),
        _ => q.project(vec!["PRICE", "TAGS", "RATING"]),
    }
}

fn entity_specs(max: usize) -> impl Strategy<Value = Vec<(u8, u8, u8, u8, u8, u8)>> {
    prop::collection::vec((0u8..6, 0u8..12, 0u8..9, 0u8..5, 0u8..4, 1u8..4), 0..max)
}

fn index_spec() -> IndexSpec {
    IndexSpec::default().hash_on("GENRE").ordered_on("PRICE").ordered_on("RATING")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_plan_matches_the_oracle_at_any_thread_count(
        specs in entity_specs(50),
        leaves in prop::collection::vec((0u8..14, 0u8..10, 0u8..9), 1..4),
        shape in 0u8..5,
        agg_sel in 0u8..6,
        order_sel in 0u8..5,
        limit_sel in 0u8..12,
        project_sel in 0u8..4,
    ) {
        let entities: Vec<FusedEntity> =
            specs.into_iter().enumerate().map(|(i, s)| entity(i, s)).collect();
        let q = query(predicate(&leaves, shape), agg_sel, order_sel, limit_sel, project_sel);
        let spec = index_spec();

        // The oracle: sequential filter over the raw entity slice.
        let want = fp(&execute_oracle(&entities, &q));

        for threads in [1usize, 8] {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let (plan, have) = pool.install(|| {
                // Snapshot assembly itself is parallel (index extraction)
                // — run it inside the pool too.
                let snap = CollectionSnapshot::from_entities(entities.clone(), spec.clone());
                let ex = snap.execute(&q);
                (ex.plan, fp(&ex.result))
            });
            prop_assert_eq!(
                &have, &want,
                "{:?} plan diverged from the oracle at {} threads (query: {:?})",
                plan, threads, q
            );
        }
    }
}

// Limited queries only — plain `limit`, and `order` + `limit` on an
// ordered-indexed attribute beside a range conjunct on it — so the limit
// and top-k push-downs run, over the multi-valued and tied keys of
// `entity`. Collections stay small so that a limit often ends a walk
// right where a multi-valued row could be ranked wrongly. A push-down may
// only ever check fewer rows.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn limit_and_top_k_push_down_match_the_oracle(
        specs in entity_specs(16),
        range in (0u8..2, 0u8..4, 0u8..9),
        extra in prop::collection::vec((0u8..14, 0u8..10, 0u8..9), 0..2),
        order_sel in 0u8..10,
        limit in 0usize..8,
    ) {
        let entities: Vec<FusedEntity> =
            specs.into_iter().enumerate().map(|(i, s)| entity(i, s)).collect();
        let (attr_sel, op_sel, val_sel) = range;
        let (attr, other) = if attr_sel == 0 { ("PRICE", "RATING") } else { ("RATING", "PRICE") };
        let (a, v) = (attr.to_string(), operand(val_sel));
        let mut conjuncts = vec![match op_sel {
            0 => Predicate::Gt(a, v),
            1 => Predicate::Gte(a, v),
            2 => Predicate::Lt(a, v),
            _ => Predicate::Lte(a, v),
        }];
        conjuncts.extend(extra.iter().map(|&l| leaf(l)));
        let filter = match conjuncts.len() {
            1 => conjuncts.remove(0),
            _ => Predicate::And(conjuncts),
        };
        // Mostly ordered by the range's own attribute: the walked case.
        let unlimited = match order_sel {
            0 => Query::filtered(filter),
            1..=3 => Query::filtered(filter).order_by(attr, Order::Asc),
            4..=6 => Query::filtered(filter).order_by(attr, Order::Desc),
            7 => Query::filtered(filter).order_by(other, Order::Asc),
            8 => Query::filtered(filter).order_by(other, Order::Desc),
            _ => Query::filtered(filter).order_by("_key", Order::Asc),
        };
        let q = unlimited.clone().take(limit);
        let want = fp(&execute_oracle(&entities, &q));

        for threads in [1usize, 8] {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let (limited, all) = pool.install(|| {
                let snap = CollectionSnapshot::from_entities(entities.clone(), index_spec());
                (snap.execute(&q), snap.execute(&unlimited))
            });
            prop_assert_eq!(
                fp(&limited.result), want.clone(),
                "{:?} plan diverged from the oracle at {} threads (query: {:?})",
                limited.plan, threads, q
            );
            prop_assert_eq!(limited.plan, all.plan, "a limit changed the plan: {:?}", q);
            prop_assert!(
                limited.candidates <= all.candidates,
                "{} rows checked with the limit, {} without (query: {:?})",
                limited.candidates, all.candidates, q
            );
        }
    }
}

/// `Int(2^53 + 1)` rounds to `2^53` as an `f64`, so comparing through
/// that rounding would make these three values a cycle rather than a
/// total order. Indexed in any insertion order, under either index kind,
/// every probe must still answer what the oracle answers.
#[test]
fn integers_beyond_2_pow_53_probe_like_the_oracle() {
    let big = 1i64 << 53;
    let xs = [Value::Int(big), Value::Int(big + 1), Value::Float(big as f64)];
    let x = || "X".to_string();
    let specs = [
        (IndexSpec::default().hash_on("X"), PlanKind::HashProbe),
        (IndexSpec::default().ordered_on("X"), PlanKind::OrderedProbe),
    ];
    for (spec, plan) in &specs {
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let entities: Vec<FusedEntity> = order
                .iter()
                .enumerate()
                .map(|(i, &j)| FusedEntity {
                    key: format!("k{i}"),
                    record: Record::from_pairs(
                        SourceId(0),
                        RecordId(i as u64),
                        vec![("X", xs[j].clone())],
                    ),
                    member_count: 1,
                    confidence: None,
                })
                .collect();
            let snap = CollectionSnapshot::from_entities(entities.clone(), spec.clone());
            for v in &xs {
                let filters = match plan {
                    PlanKind::HashProbe => vec![
                        Predicate::Eq(x(), v.clone()),
                        Predicate::In(x(), vec![v.clone(), Value::Int(0)]),
                    ],
                    _ => vec![
                        Predicate::Gt(x(), v.clone()),
                        Predicate::Gte(x(), v.clone()),
                        Predicate::Lt(x(), v.clone()),
                        Predicate::Lte(x(), v.clone()),
                    ],
                };
                for filter in filters {
                    let q = Query::filtered(filter);
                    let ex = snap.execute(&q);
                    assert_eq!(ex.plan, *plan, "{q:?}");
                    assert_eq!(
                        fp(&ex.result),
                        fp(&execute_oracle(&entities, &q)),
                        "{:?} diverged from the oracle, insertion order {order:?}: {q:?}",
                        ex.plan
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Part B: pipeline-fed views synced incrementally across delta batches.
// ---------------------------------------------------------------------

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

/// Random corpora with real consolidation structure (duplicates, swaps,
/// typos) so deltas produce genuine merges, dirty clusters, and reuse.
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

/// The fixed query battery run against every snapshot pair: an ordered
/// probe, a hash probe with a sort, and three full scans (a filter, a
/// group-by and a top-k sort). The test asserts each plan family shows up,
/// so a planner regression that turns probes into scans fails it.
fn battery() -> Vec<Query> {
    vec![
        Query::filtered(Predicate::Gte("_members".into(), Value::Int(2)))
            .aggregate(Aggregate::Count),
        Query::filtered(Predicate::Eq("CHEAPEST_PRICE".into(), Value::from("$10")))
            .order_by("_key", Order::Asc)
            .project(vec!["SHOW_NAME"]),
        Query::filtered(Predicate::Contains("SHOW_NAME".into(), "title".into()))
            .aggregate(Aggregate::Count),
        Query::filtered(Predicate::True).aggregate(Aggregate::GroupBy("CHEAPEST_PRICE".into())),
        Query::filtered(Predicate::True).order_by("_members", Order::Desc).take(5),
    ]
}

/// Every index of `snap` as `(attribute, key, postings)`, one per key,
/// listed by the same key walk a range probe uses. Keys compare as
/// `AttrKey`s: which of two `total_cmp`-equal values an index holds as
/// the key depends on insertion order, and is never observable.
fn index_listing(
    snap: &CollectionSnapshot,
    spec: &IndexSpec,
) -> Vec<(String, AttrKey, Vec<usize>)> {
    let ix = snap.indexes();
    let hash = spec.hash.iter().map(|a| (a, ix.hash_index(a)));
    let ordered = spec.ordered.iter().map(|a| (a, ix.ordered_index(a)));
    hash.chain(ordered)
        .flat_map(|(attr, index)| {
            let index = index.expect("every configured attribute is indexed");
            let keys = index.groups(Bound::Unbounded, Bound::Unbounded, Order::Asc);
            keys.map(move |(key, cids)| (attr.clone(), AttrKey(key.clone()), cids.to_vec()))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn incrementally_synced_views_serve_identical_results(
        corpus in corpus_strategy(),
        cut_bytes in prop::collection::vec(any::<u8>(), 1..5),
    ) {
        // Segments between sorted cut points: a prefix plus 1..=5 deltas.
        let mut cuts: Vec<usize> = cut_bytes
            .iter()
            .map(|&b| (usize::from(b) * corpus.len()) / 256)
            .collect();
        cuts.sort_unstable();
        let prefix = &corpus[..cuts[0]];
        let mut batches: Vec<&[Record]> = Vec::new();
        for w in cuts.windows(2) {
            batches.push(&corpus[w[0]..w[1]]);
        }
        batches.push(&corpus[*cuts.last().unwrap()..]);

        let spec = IndexSpec::default().hash_on("CHEAPEST_PRICE").ordered_on("_members");
        let mut dt = DataTamer::new(config());
        let mut plan = PipelinePlan::new();
        if !prefix.is_empty() {
            plan = plan.structured("s1", prefix);
        }
        dt.run(plan).expect("seed run");

        // The long-lived view: one full build at seed time, then strictly
        // incremental syncs driven by each delta's dirty-cluster set. A
        // second view skips every other delta and syncs without a bitmap,
        // as a publish that fell behind does. A snapshot taken at seed time
        // must keep answering as of then while both views write on.
        let mut view = CollectionView::new(spec.clone());
        let mut skipping = CollectionView::new(spec.clone());
        let seed_fused = {
            let ctx = dt.context();
            view.sync(&ctx.fused, &ctx.fusion_groups, ctx.fused_changed.as_deref());
            skipping.sync(&ctx.fused, &ctx.fusion_groups, ctx.fused_changed.as_deref());
            ctx.fused.clone()
        };
        let seed_snap = view.snapshot(Vec::new());
        for (k, b) in batches.iter().enumerate() {
            dt.consolidate_delta(b).expect("delta ingest");
            let ctx = dt.context();
            view.sync(&ctx.fused, &ctx.fusion_groups, ctx.fused_changed.as_deref());
            if k % 2 == 1 || k + 1 == batches.len() {
                skipping.sync(&ctx.fused, &ctx.fusion_groups, None);
            }
        }

        let m = view.maintenance();
        prop_assert_eq!(m.full_builds, 1, "delta syncs must never rebuild: {:?}", m);
        prop_assert_eq!(m.delta_syncs, batches.len() as u64, "{:?}", m);
        let m = skipping.maintenance();
        prop_assert_eq!(m.full_builds, 1, "a sync that skipped revisions must not rebuild: {:?}", m);

        // A control view built from scratch over the final fused output.
        let mut fresh = CollectionView::new(spec);
        let ctx = dt.context();
        fresh.sync(&ctx.fused, &ctx.fusion_groups, None);

        let inc_snap = view.snapshot(Vec::new());
        let fresh_snap = fresh.snapshot(Vec::new());
        let skip_snap = skipping.snapshot(Vec::new());
        prop_assert_eq!(
            format!("{:?}", inc_snap.entities()),
            format!("{:?}", fresh_snap.entities()),
            "incrementally synced view holds different entities"
        );

        // Every candidate is re-checked, so a stale posting would not show
        // in a result: compare the indexes themselves, key by key.
        let want_listing = index_listing(&fresh_snap, fresh.spec());
        let listing = |snap: &CollectionSnapshot| index_listing(snap, fresh.spec());
        prop_assert_eq!(&listing(&inc_snap), &want_listing, "incremental view's indexes");
        prop_assert_eq!(&listing(&skip_snap), &want_listing, "skipping view's indexes");

        let serial = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        let mut plans = Vec::new();
        for q in battery() {
            let want = fp(&execute_oracle(ctx.fused.as_slice(), &q));
            let a = serial.install(|| inc_snap.execute(&q));
            let b = wide.install(|| inc_snap.execute(&q));
            let c = wide.install(|| fresh_snap.execute(&q));
            let skip = skip_snap.execute(&q);
            prop_assert_eq!(fp(&skip.result), want, "skipping view diverged: {:?}", q);
            prop_assert_eq!(
                fp(&seed_snap.execute(&q).result),
                fp(&execute_oracle(&seed_fused, &q)),
                "the seed-time snapshot changed under later syncs: {:?}", q
            );
            prop_assert_eq!(fp(&a.result), want, "incremental (serial) diverged: {:?}", q);
            prop_assert_eq!(fp(&b.result), want, "incremental (wide) diverged: {:?}", q);
            prop_assert_eq!(fp(&c.result), want, "fresh diverged: {:?}", q);
            prop_assert_eq!(a.plan, c.plan, "plan depends on the predicate alone: {:?}", q);
            prop_assert_eq!(
                (a.candidates, b.candidates, skip.candidates),
                (c.candidates, c.candidates, c.candidates),
                "rows checked differ from the fresh view's: {:?}", q
            );
            plans.push(a.plan);
        }
        for family in [PlanKind::HashProbe, PlanKind::OrderedProbe, PlanKind::FullScan] {
            prop_assert!(plans.contains(&family), "no {:?} in the battery: {:?}", family, plans);
        }
    }
}

// ---------------------------------------------------------------------
// Part C: the evaluator every plan shares, against an independent
// reference. `execute_oracle` and the planned paths all call
// `Predicate::matches` and one aggregation routine, so Parts A and B
// cannot see a slip in either. The reference below reads every value by
// cloning it and lowercases both sides of a `Contains` on every row, as
// the evaluator once did.
// ---------------------------------------------------------------------

mod reference {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::BTreeMap;

    /// Every value at `attr`, cloned: a pseudo-attribute, or one record
    /// field with arrays flattened one level (multikey).
    fn values(e: &FusedEntity, attr: &str) -> Vec<Value> {
        match attr {
            "_key" => vec![Value::Str(e.key.clone())],
            "_members" => vec![Value::Int(e.member_count as i64)],
            "_confidence" => vec![e.confidence.map_or(Value::Null, Value::Float)],
            _ => match e.record.get(attr) {
                Some(Value::Array(items)) => items.clone(),
                Some(v) => vec![v.clone()],
                None => Vec::new(),
            },
        }
    }

    fn same_family(a: &Value, b: &Value) -> bool {
        matches!(
            (a, b),
            (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_))
                | (Value::Str(_), Value::Str(_))
                | (Value::Bool(_), Value::Bool(_))
        )
    }

    pub fn matches(p: &Predicate, e: &FusedEntity) -> bool {
        let any = |attr: &str, test: &dyn Fn(&Value) -> bool| values(e, attr).iter().any(test);
        let cmp = |x: &Value, v: &Value| x.total_cmp(v);
        match p {
            Predicate::True => true,
            Predicate::Eq(a, v) => any(a, &|x| cmp(x, v) == Ordering::Equal),
            Predicate::Ne(a, v) => !any(a, &|x| cmp(x, v) == Ordering::Equal),
            Predicate::Gt(a, v) => any(a, &|x| same_family(x, v) && cmp(x, v) == Ordering::Greater),
            Predicate::Gte(a, v) => any(a, &|x| same_family(x, v) && cmp(x, v) != Ordering::Less),
            Predicate::Lt(a, v) => any(a, &|x| same_family(x, v) && cmp(x, v) == Ordering::Less),
            Predicate::Lte(a, v) => {
                any(a, &|x| same_family(x, v) && cmp(x, v) != Ordering::Greater)
            }
            Predicate::In(a, vs) => any(a, &|x| vs.iter().any(|v| cmp(x, v) == Ordering::Equal)),
            Predicate::Contains(a, needle) => {
                let needle = needle.to_lowercase();
                any(a, &|x| matches!(x, Value::Str(s) if s.to_lowercase().contains(&needle)))
            }
            Predicate::Exists(a) => any(a, &|x| !x.is_null()),
            Predicate::And(ps) => ps.iter().all(|p| matches(p, e)),
            Predicate::Or(ps) => ps.iter().any(|p| matches(p, e)),
            Predicate::Not(p) => !matches(p, e),
        }
    }

    /// The aggregate over `rows`, folding cloned values; group keys are
    /// counted in a map sorted by `total_cmp` that keeps each key's first
    /// value seen.
    pub fn aggregate(agg: &Aggregate, rows: &[&FusedEntity]) -> QueryResult {
        let all = |attr: &str| rows.iter().flat_map(|e| values(e, attr)).collect::<Vec<_>>();
        match agg {
            Aggregate::Count => QueryResult::Count(rows.len() as u64),
            Aggregate::Sum(attr) => {
                let nums: Vec<Value> = all(attr)
                    .into_iter()
                    .filter(|v| matches!(v, Value::Int(_) | Value::Float(_)))
                    .collect();
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
                for v in all(attr).into_iter().filter(|v| !v.is_null()) {
                    let keep_new = best.as_ref().is_none_or(|b| match v.total_cmp(b) {
                        Ordering::Less => want_min,
                        Ordering::Greater => !want_min,
                        Ordering::Equal => false,
                    });
                    if keep_new {
                        best = Some(v);
                    }
                }
                QueryResult::Value(best)
            }
            Aggregate::GroupBy(attr) => {
                let mut groups: BTreeMap<AttrKey, u64> = BTreeMap::new();
                for v in all(attr) {
                    *groups.entry(AttrKey(v)).or_insert(0) += 1;
                }
                QueryResult::Groups(groups.into_iter().map(|(k, n)| (k.0, n)).collect())
            }
        }
    }
}

/// Strings whose lowercase changes their bytes or their length, or turns
/// non-ASCII into ASCII: KELVIN SIGN lowercases to `k`, `İ` to `i` plus a
/// combining dot, a capital sigma to a final or medial sigma.
const TEXTS: [&str; 10] = [
    "",
    "Kelvin",
    "\u{212A}ELVIN",
    "İstanbul",
    "ΟΔΟΣ",
    "Σίσυφος",
    "straße",
    "MiXeD case",
    "a",
    "Matilda",
];

const NEEDLES: [&str; 14] =
    ["", "k", "K", "kelvin", "\u{212A}", "i", "i\u{307}", "İ", "ς", "σ", "ΟΣ", "SS", "ed c", "A"];

/// One value from a pool that holds every edge the evaluator must agree
/// on: arrays, `Null`, NaN, ±0.0, `Int(3)` beside `Float(3.0)`, booleans
/// and the strings of [`TEXTS`].
fn edge_value(sel: u8) -> Value {
    match sel {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        2 => Value::Float(0.0),
        3 => Value::Float(-0.0),
        4 => Value::Int(0),
        5 => Value::Int(3),
        6 => Value::Float(3.0),
        7 => Value::Int(-2),
        8 => Value::Bool(true),
        9 => Value::Array(vec![Value::Int(3), Value::from("Kelvin"), Value::Null]),
        10 => Value::Array(vec![Value::Float(-0.0), Value::from("\u{212A}ELVIN")]),
        11 => Value::Array(Vec::new()),
        12 => Value::Array(vec![Value::Array(vec![Value::Int(1)]), Value::Float(3.0)]),
        n => Value::from(TEXTS[usize::from(n - 13) % TEXTS.len()]),
    }
}

const EDGE_ATTRS: [&str; 5] = ["A", "B", "_key", "_members", "_confidence"];

fn edge_entity(i: usize, (key, a, b, members, conf): (u8, u8, u8, u8, u8)) -> FusedEntity {
    let mut pairs = Vec::new();
    if a < 23 {
        pairs.push(("A", edge_value(a)));
    }
    if b < 23 {
        pairs.push(("B", edge_value(b)));
    }
    FusedEntity {
        key: TEXTS[usize::from(key) % TEXTS.len()].to_string(),
        record: Record::from_pairs(SourceId(0), RecordId(i as u64), pairs),
        member_count: usize::from(members),
        confidence: match conf {
            0 => None,
            1 => Some(f64::NAN),
            2 => Some(-0.0),
            c => Some(f64::from(c) / 2.0),
        },
    }
}

fn edge_leaf((attr, op, operand): (u8, u8, u8)) -> Predicate {
    let a = EDGE_ATTRS[usize::from(attr) % EDGE_ATTRS.len()].to_string();
    let v = edge_value(operand);
    match op {
        0 => Predicate::Eq(a, v),
        1 => Predicate::Ne(a, v),
        2 => Predicate::Gt(a, v),
        3 => Predicate::Gte(a, v),
        4 => Predicate::Lt(a, v),
        5 => Predicate::Lte(a, v),
        6 => Predicate::In(a, vec![v, edge_value(operand.wrapping_add(7) % 23)]),
        7 | 8 => Predicate::Contains(a, NEEDLES[usize::from(operand) % NEEDLES.len()].into()),
        _ => Predicate::Exists(a),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_shared_evaluator_matches_the_clone_based_reference(
        specs in prop::collection::vec((0u8..10, 0u8..26, 0u8..26, 0u8..4, 0u8..5), 0..12),
        leaves in prop::collection::vec((0u8..5, 0u8..10, 0u8..23), 1..4),
        shape in 0u8..5,
        agg_attr in 0u8..5,
    ) {
        let entities: Vec<FusedEntity> =
            specs.into_iter().enumerate().map(|(i, s)| edge_entity(i, s)).collect();
        let ps: Vec<Predicate> = leaves.iter().map(|&l| edge_leaf(l)).collect();
        let filter = match shape {
            0 => ps[0].clone(),
            1 => Predicate::And(ps),
            2 => Predicate::Or(ps),
            3 => Predicate::Not(Box::new(ps[0].clone())),
            _ => Predicate::Not(Box::new(Predicate::Or(ps))),
        };
        let mut kept = Vec::new();
        for e in &entities {
            let want = reference::matches(&filter, e);
            prop_assert_eq!(filter.matches(e), want, "{:?} on {:?}", filter, e);
            if want {
                kept.push(e);
            }
        }
        let attr = EDGE_ATTRS[usize::from(agg_attr)].to_string();
        let snap = CollectionSnapshot::from_entities(entities.clone(), IndexSpec::default());
        for agg in [
            Aggregate::Count,
            Aggregate::Sum(attr.clone()),
            Aggregate::Min(attr.clone()),
            Aggregate::Max(attr.clone()),
            Aggregate::GroupBy(attr.clone()),
        ] {
            let q = Query::filtered(filter.clone()).aggregate(agg);
            let want = fp(&reference::aggregate(q.aggregate.as_ref().unwrap(), &kept));
            prop_assert_eq!(fp(&execute_oracle(&entities, &q)), want.clone(), "{:?}", q);
            prop_assert_eq!(fp(&snap.execute(&q).result), want, "{:?}", q);
        }
    }
}

/// The generated cases above reach the edges the evaluator must agree on.
/// Each pair here is one of them, checked directly.
#[test]
fn contains_keeps_full_unicode_lowercasing() {
    let e = edge_entity(0, (2, 13 + 2, 13 + 3, 1, 0));
    let holds = |attr: &str, needle: &str| {
        let p = Predicate::Contains(attr.into(), needle.into());
        assert_eq!(p.matches(&e), reference::matches(&p, &e), "{p:?}");
        p.matches(&e)
    };
    // "\u{212A}ELVIN" lowercases to the ASCII "kelvin".
    assert!(holds("A", "k") && holds("A", "KELVIN") && holds("_key", "\u{212A}"));
    // "İstanbul" lowercases to "i\u{307}stanbul": the dotted I is not an ASCII i.
    assert!(holds("B", "i\u{307}s") && holds("B", "İ") && !holds("B", "ist"));
    assert!(holds("A", "") && !holds("_members", ""));
}
