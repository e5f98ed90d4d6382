//! The query-subsystem correctness pin: every plan the executor can pick
//! (hash probe, ordered probe, full scan) must produce a result
//! byte-identical to the naive sequential full-scan oracle, over
//! random corpora and random predicates, at any thread count — and a
//! [`CollectionView`] kept in sync *incrementally* across
//! `consolidate_delta` batches must serve exactly what a from-scratch
//! view serves, without ever rebuilding its indexes.

use datatamer::core::fusion::{BlockedErConfig, FusedEntity, GroupingStrategy};
use datatamer::core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer::model::{Record, RecordId, SourceId, Value};
use datatamer::query::prelude::*;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

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
/// cross-type comparisons, and NaN/Null/absent are all reachable.
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
        _ => pairs.push(("PRICE", Value::Float(f64::NAN))),
    }
    match r {
        0 => {}
        1..=4 => pairs.push(("RATING", Value::Float(f64::from(r) / 2.0))),
        _ => pairs.push(("RATING", Value::Int(3))),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_plan_matches_the_oracle_at_any_thread_count(
        specs in prop::collection::vec((0u8..6, 0u8..8, 0u8..6, 0u8..5, 0u8..4, 1u8..4), 0..50),
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
        let spec = IndexSpec::default()
            .hash_on("GENRE")
            .ordered_on("PRICE")
            .ordered_on("RATING");

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
        grouping: GroupingStrategy::BlockedEr(BlockedErConfig {
            incremental: true,
            ..Default::default()
        }),
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
        // incremental syncs driven by each delta's dirty-cluster set.
        let mut view = CollectionView::new(spec.clone());
        {
            let ctx = dt.context();
            view.sync(&ctx.fused, &ctx.fusion_groups, ctx.fused_changed.as_deref());
        }
        for b in &batches {
            dt.consolidate_delta(b).expect("delta ingest");
            let ctx = dt.context();
            view.sync(&ctx.fused, &ctx.fusion_groups, ctx.fused_changed.as_deref());
        }

        let m = view.maintenance();
        prop_assert_eq!(m.full_builds, 1, "delta syncs must never rebuild: {:?}", m);
        prop_assert_eq!(m.delta_syncs, batches.len() as u64, "{:?}", m);

        // A control view built from scratch over the final fused output.
        let mut fresh = CollectionView::new(spec);
        let ctx = dt.context();
        fresh.sync(&ctx.fused, &ctx.fusion_groups, None);

        let inc_snap = view.snapshot(Vec::new());
        let fresh_snap = fresh.snapshot(Vec::new());
        prop_assert_eq!(
            format!("{:?}", inc_snap.entities()),
            format!("{:?}", fresh_snap.entities()),
            "incrementally synced view holds different entities"
        );

        let serial = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        let mut plans = Vec::new();
        for q in battery() {
            let want = fp(&execute_oracle(ctx.fused.as_slice(), &q));
            let a = serial.install(|| inc_snap.execute(&q));
            let b = wide.install(|| inc_snap.execute(&q));
            let c = wide.install(|| fresh_snap.execute(&q));
            prop_assert_eq!(fp(&a.result), want, "incremental (serial) diverged: {:?}", q);
            prop_assert_eq!(fp(&b.result), want, "incremental (wide) diverged: {:?}", q);
            prop_assert_eq!(fp(&c.result), want, "fresh diverged: {:?}", q);
            prop_assert_eq!(a.plan, c.plan, "plan depends on the predicate alone: {:?}", q);
            plans.push(a.plan);
        }
        for family in [PlanKind::HashProbe, PlanKind::OrderedProbe, PlanKind::FullScan] {
            prop_assert!(plans.contains(&family), "no {:?} in the battery: {:?}", family, plans);
        }
    }
}
