//! Integration tests for schema integration against generator ground truth:
//! matching accuracy, expert-panel effects, and threshold behaviour
//! (Figs 2–3).

use datatamer::core::ExpertPanelResolver;
use datatamer::corpus::ftables::{self, FtablesConfig};
use datatamer::corpus::truth::GroundTruth;
use datatamer::model::{AttrId, SourceSchema};
use datatamer::schema::{Decision, IntegrationConfig, SchemaIntegrator};

fn sources() -> Vec<ftables::GeneratedSource> {
    ftables::generate(&FtablesConfig::default(), 0)
}

/// Integrate all sources, tracking each global attribute's canonical
/// identity via ground truth; returns (correct, wrong, new) mapping counts.
fn run_and_grade(
    integrator: &mut SchemaIntegrator,
    srcs: &[ftables::GeneratedSource],
    resolver: Option<&mut ExpertPanelResolver>,
) -> (usize, usize, usize) {
    let gt = GroundTruth::from_sources(srcs);
    let mut canon: std::collections::HashMap<AttrId, &'static str> = Default::default();
    let (mut correct, mut wrong, mut created) = (0, 0, 0);
    let mut resolver = resolver;
    for s in srcs {
        let schema = SourceSchema::profile_records(s.id, &s.name, &s.records);
        let report = match resolver.as_deref_mut() {
            Some(r) => integrator.integrate_with(&schema, r),
            None => integrator.integrate(&schema),
        };
        for sugg in &report.suggestions {
            let truth_canon = gt.canonical_of(&s.name, &sugg.source_attr);
            match sugg.decision.mapped_attr() {
                Some(id) => {
                    if canon.get(&id).copied() == truth_canon {
                        correct += 1;
                    } else {
                        wrong += 1;
                    }
                }
                None => {
                    created += 1;
                    if let (Some(tc), Some(g)) =
                        (truth_canon, integrator.global().by_name(&sugg.source_attr))
                    {
                        canon.entry(g.id).or_insert(tc);
                    }
                }
            }
        }
    }
    (correct, wrong, created)
}

#[test]
fn threshold_only_integration_is_mostly_correct() {
    let srcs = sources();
    let mut integrator = SchemaIntegrator::broadway();
    let (correct, wrong, created) = run_and_grade(&mut integrator, &srcs, None);
    let mapped = correct + wrong;
    assert!(mapped > 80, "enough mappings to grade: {mapped}");
    let accuracy = correct as f64 / mapped as f64;
    assert!(accuracy > 0.85, "mapping accuracy {accuracy:.3} ({correct}/{mapped})");
    assert!(created < 20, "schema must not proliferate: {created} creations");
}

#[test]
fn perfect_experts_beat_threshold_only_on_wrong_mappings() {
    let srcs = sources();

    let mut plain = SchemaIntegrator::broadway();
    let (_, wrong_plain, _) = run_and_grade(&mut plain, &srcs, None);

    // Expert panel with ground-truth oracle at 100% accuracy. Truth closure
    // compares candidate canonical identity via a shared mutable map filled
    // the same way run_and_grade fills it — here we re-derive it by name:
    // global attribute names are source spellings, so their canonical is
    // whatever ground truth says about the (seed-source, spelling) pair.
    let gt = GroundTruth::from_sources(&srcs);
    let name_canon: std::collections::HashMap<String, &'static str> = gt
        .attr_mappings
        .iter()
        .map(|((_, attr), canon)| (attr.clone(), *canon))
        .collect();
    let gt_map = gt.attr_mappings.clone();
    let truth = Box::new(move |attr: &str, candidate: &str| {
        let truth_canon = gt_map
            .iter()
            .find(|((_, a), _)| a == attr)
            .map(|(_, c)| *c);
        match (truth_canon, name_canon.get(candidate)) {
            (Some(t), Some(c)) => t == *c,
            _ => false,
        }
    });
    let mut panel = ExpertPanelResolver::homogeneous(3, 1.0, 1.0, 5, truth).unwrap();
    let mut assisted = SchemaIntegrator::broadway();
    let (_, wrong_assisted, _) = run_and_grade(&mut assisted, &srcs, Some(&mut panel));

    assert!(
        wrong_assisted <= wrong_plain,
        "perfect experts must not increase wrong mappings: {wrong_assisted} vs {wrong_plain}"
    );
    assert!(panel.stats().escalations > 0, "panel must have been consulted");
}

#[test]
fn stricter_threshold_trades_recall_for_precision() {
    let srcs = sources();
    let strict = IntegrationConfig { accept_threshold: 0.95, ..Default::default() };
    let lax = IntegrationConfig { accept_threshold: 0.60, escalate_threshold: 0.55, ..Default::default() };

    let count_autos = |config: IntegrationConfig| {
        let mut integ = SchemaIntegrator::new(config);
        let mut autos = 0usize;
        for s in &srcs {
            let schema = SourceSchema::profile_records(s.id, &s.name, &s.records);
            let report = integ.integrate(&schema);
            autos += report.auto_accepted();
        }
        autos
    };
    let strict_autos = count_autos(strict);
    let lax_autos = count_autos(lax);
    assert!(
        strict_autos < lax_autos,
        "raising the threshold must reduce auto-accepts: {strict_autos} vs {lax_autos}"
    );
}

#[test]
fn integration_order_does_not_blow_up_schema() {
    let srcs = sources();
    // Reverse order: dirty-spelling sources first (the seed source with
    // clean canonical names arrives last).
    let mut reversed: Vec<_> = srcs.clone();
    reversed.reverse();
    let mut integ = SchemaIntegrator::broadway();
    for s in &reversed {
        let schema = SourceSchema::profile_records(s.id, &s.name, &s.records);
        integ.integrate(&schema);
    }
    let n = integ.global().len();
    assert!(
        (10..=20).contains(&n),
        "order-robust convergence: {n} attrs ({:?})",
        integ.global().attribute_names()
    );
}

#[test]
fn suggestions_expose_fig3_scores() {
    let srcs = sources();
    let mut integ = SchemaIntegrator::broadway();
    for s in &srcs[..10] {
        let schema = SourceSchema::profile_records(s.id, &s.name, &s.records);
        integ.integrate(&schema);
    }
    // Fig 3's content: per-attribute ranked candidates with scores.
    let schema = SourceSchema::profile_records(srcs[10].id, &srcs[10].name, &srcs[10].records);
    let scored = integ.dry_run(&schema);
    assert_eq!(scored.len(), schema.arity());
    for (attr, candidates) in &scored {
        assert!(!candidates.is_empty(), "{attr} got no candidates from a mature schema");
        for w in candidates.windows(2) {
            assert!(w[0].score >= w[1].score, "candidates must rank by score");
        }
        for c in candidates {
            assert!((0.0..=1.0).contains(&c.score));
        }
    }
    // Decision taxonomy is visible in reports.
    let report = integ.integrate(&schema);
    for s in &report.suggestions {
        match &s.decision {
            Decision::AutoAccept { score, .. } => assert!(*score >= 0.8),
            Decision::ExpertAccept { score, .. } => assert!(*score < 0.8),
            _ => {}
        }
    }
}
