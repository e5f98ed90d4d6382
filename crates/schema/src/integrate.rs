//! The schema-integration loop.
//!
//! For each attribute of an incoming source: score against every global
//! attribute, then
//!
//! * score ≥ `accept_threshold` → auto-accept (map + merge profiles);
//! * `escalate_threshold` ≤ score < `accept_threshold` → ask the resolver
//!   (the expert-sourcing hook; the paper's "user can pick the acceptance
//!   threshold ... below which the suggested matching targets require expert
//!   assessment");
//! * score < `escalate_threshold` → the Fig 2 "no counterpart" alert; the
//!   attribute is added to the global schema as new.
//!
//! Each call prepares the matcher's features once: it fits IDF over the
//! global schema as the call finds it and prepares every global attribute,
//! then prepares each source attribute once as the loop reaches it.
//! [`SchemaIntegrator::integrate_with`] and [`SchemaIntegrator::dry_run`]
//! rank candidates through the same function. The features prepared at the
//! start stay exact for the whole call: every global attribute the call
//! maps onto or adds is claimed at once, and a claimed attribute is never a
//! candidate again within that call.

use datatamer_model::{AttrId, AttributeDef, SourceSchema};

use crate::global::GlobalSchema;
use crate::matchers::{AttrFeatures, Matcher};
use crate::suggestion::{Decision, MatchCandidate, MatchSuggestion};
use crate::synonyms::SynonymDict;

/// Integration thresholds and knobs.
#[derive(Debug, Clone)]
pub struct IntegrationConfig {
    /// Scores at or above this map automatically.
    pub accept_threshold: f64,
    /// Scores at or above this (but below accept) go to the resolver.
    pub escalate_threshold: f64,
    /// Maximum candidates listed per suggestion (the Fig 2 drop-down).
    pub max_candidates: usize,
}

impl Default for IntegrationConfig {
    fn default() -> Self {
        IntegrationConfig { accept_threshold: 0.8, escalate_threshold: 0.55, max_candidates: 5 }
    }
}

/// Outcome summary of integrating one source.
#[derive(Debug, Clone)]
pub struct IntegrationReport {
    /// The source's name.
    pub source_name: String,
    /// Per-attribute suggestions with decisions, in source order.
    pub suggestions: Vec<MatchSuggestion>,
}

impl IntegrationReport {
    /// Count of automatic mappings.
    pub fn auto_accepted(&self) -> usize {
        self.suggestions
            .iter()
            .filter(|s| matches!(s.decision, Decision::AutoAccept { .. }))
            .count()
    }

    /// Count of decisions that needed a human.
    pub fn human_interventions(&self) -> usize {
        self.suggestions.iter().filter(|s| s.decision.required_human()).count()
    }

    /// Count of new global attributes created.
    pub fn new_attributes(&self) -> usize {
        self.suggestions
            .iter()
            .filter(|s| {
                matches!(s.decision, Decision::NewAttribute | Decision::ExpertNewAttribute)
            })
            .count()
    }

    /// Fraction of attributes that resolved without a human.
    pub fn automation_rate(&self) -> f64 {
        if self.suggestions.is_empty() {
            return 1.0;
        }
        1.0 - self.human_interventions() as f64 / self.suggestions.len() as f64
    }
}

/// A resolver answers escalated suggestions (the expert-sourcing hook).
///
/// Receives the source attribute and its ranked candidates; returns the
/// decision. The trivial resolver accepts the best candidate.
pub trait EscalationResolver {
    /// Decide an escalated suggestion.
    fn resolve(&mut self, source_attr: &AttributeDef, candidates: &[MatchCandidate]) -> Decision;
}

/// Accepts the top candidate of every escalation (threshold-only operation;
/// what you get with no humans attached).
#[derive(Debug, Default, Clone, Copy)]
pub struct AcceptBest;

impl EscalationResolver for AcceptBest {
    fn resolve(&mut self, _attr: &AttributeDef, candidates: &[MatchCandidate]) -> Decision {
        match candidates.first() {
            Some(best) => Decision::ExpertAccept { attr: best.attr, score: best.score },
            None => Decision::ExpertNewAttribute,
        }
    }
}

/// The integrator: owns the growing global schema and the matcher's
/// synonym dictionary.
pub struct SchemaIntegrator {
    global: GlobalSchema,
    synonyms: SynonymDict,
    config: IntegrationConfig,
}

impl SchemaIntegrator {
    /// Start with an empty global schema (Fig 2's initial state), matching
    /// with the Broadway synonym dictionary.
    pub fn new(config: IntegrationConfig) -> Self {
        assert!(
            config.escalate_threshold <= config.accept_threshold,
            "escalate threshold must not exceed accept threshold"
        );
        SchemaIntegrator { global: GlobalSchema::new(), synonyms: SynonymDict::broadway(), config }
    }

    /// Default Broadway-domain integrator.
    pub fn broadway() -> Self {
        Self::new(IntegrationConfig::default())
    }

    /// The current global schema.
    pub fn global(&self) -> &GlobalSchema {
        &self.global
    }

    /// Mutable access (used by curation steps like display renames).
    pub fn global_mut(&mut self) -> &mut GlobalSchema {
        &mut self.global
    }

    /// The active configuration.
    pub fn config(&self) -> &IntegrationConfig {
        &self.config
    }

    /// Integrate a source with thresholds only (escalations auto-accept the
    /// best candidate).
    pub fn integrate(&mut self, source: &SourceSchema) -> IntegrationReport {
        self.integrate_with(source, &mut AcceptBest)
    }

    /// Integrate a source, routing escalations through `resolver`.
    pub fn integrate_with(
        &mut self,
        source: &SourceSchema,
        resolver: &mut dyn EscalationResolver,
    ) -> IntegrationReport {
        let (matcher, prepared) = Matcher::fit(&self.synonyms, &self.global);
        let mut suggestions = Vec::with_capacity(source.attributes.len());
        // Attributes of one source are distinct by construction: a global
        // attribute already claimed by this source is excluded from the
        // candidates of its remaining attributes (prevents a source's own
        // columns from collapsing onto each other).
        let mut claimed: Vec<AttrId> = Vec::new();
        for attr in &source.attributes {
            let features = matcher.prepare(&attr.name, &attr.profile);
            let candidates = self.rank(&matcher, &prepared, &features, &claimed);

            let best = candidates.first().map(|c| c.score).unwrap_or(0.0);
            let no_counterpart_alert = best < self.config.escalate_threshold;
            let decision = if best >= self.config.accept_threshold {
                let c = &candidates[0];
                Decision::AutoAccept { attr: c.attr, score: c.score }
            } else if best >= self.config.escalate_threshold {
                resolver.resolve(attr, &candidates)
            } else {
                Decision::NewAttribute
            };

            // Apply the decision to the global schema. Every attribute this
            // changes or adds is claimed, so the features prepared before
            // the loop stay exact for every attribute still ranked.
            match &decision {
                Decision::AutoAccept { attr: id, .. } | Decision::ExpertAccept { attr: id, .. } => {
                    self.global.map_attribute(*id, source.source, attr);
                    claimed.push(*id);
                }
                Decision::NewAttribute | Decision::ExpertNewAttribute => {
                    let id = self.global.add_attribute(source.source, attr);
                    claimed.push(id);
                }
                Decision::Ignore => {}
            }

            suggestions.push(MatchSuggestion {
                source_attr: attr.name.clone(),
                candidates,
                no_counterpart_alert,
                decision,
            });
        }
        IntegrationReport { source_name: source.name.clone(), suggestions }
    }

    /// Score one source against the current schema *without* mutating it
    /// (powers threshold sweeps: same matching, different thresholds).
    pub fn dry_run(&self, source: &SourceSchema) -> Vec<(String, Vec<MatchCandidate>)> {
        let (matcher, prepared) = Matcher::fit(&self.synonyms, &self.global);
        source
            .attributes
            .iter()
            .map(|attr| {
                let features = matcher.prepare(&attr.name, &attr.profile);
                (attr.name.clone(), self.rank(&matcher, &prepared, &features, &[]))
            })
            .collect()
    }

    /// The best `max_candidates` unclaimed global attributes for one source
    /// attribute, best first (ties keep schema order). `prepared` covers the
    /// schema as [`Matcher::fit`] found it; attributes added since are
    /// appended after those and claimed, so zipping skips nothing ranked.
    fn rank(
        &self,
        matcher: &Matcher,
        prepared: &[AttrFeatures],
        attr: &AttrFeatures,
        claimed: &[AttrId],
    ) -> Vec<MatchCandidate> {
        let mut candidates: Vec<MatchCandidate> = self
            .global
            .iter()
            .zip(prepared)
            .filter(|(g, _)| !claimed.contains(&g.id))
            .map(|(g, features)| MatchCandidate {
                attr: g.id,
                name: g.name.clone(),
                score: matcher.score(attr, features),
            })
            .collect();
        candidates.sort_by(|a, b| {
            b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal)
        });
        candidates.truncate(self.config.max_candidates);
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{Record, RecordId, SourceId, Value};

    fn source(id: u32, name: &str, rows: Vec<Vec<(&str, &str)>>) -> SourceSchema {
        let sid = SourceId(id);
        let records: Vec<Record> = rows
            .into_iter()
            .enumerate()
            .map(|(i, fields)| {
                Record::from_pairs(
                    sid,
                    RecordId(i as u64),
                    fields.into_iter().map(|(k, v)| (k, Value::from(v))).collect(),
                )
            })
            .collect();
        SourceSchema::profile_records(sid, name, &records)
    }

    fn shows_source(id: u32, name: &str, show_attr: &str, price_attr: &str) -> SourceSchema {
        source(
            id,
            name,
            vec![
                vec![(show_attr, "Matilda"), (price_attr, "$27")],
                vec![(show_attr, "Wicked"), (price_attr, "$99")],
                vec![(show_attr, "Annie"), (price_attr, "$45")],
            ],
        )
    }

    #[test]
    fn first_source_seeds_schema_with_alerts() {
        let mut integ = SchemaIntegrator::broadway();
        let report = integ.integrate(&shows_source(1, "s1", "show_name", "cheapest_price"));
        assert_eq!(integ.global().len(), 2);
        assert_eq!(report.new_attributes(), 2);
        assert!(report.suggestions.iter().all(|s| s.no_counterpart_alert));
        assert_eq!(report.auto_accepted(), 0);
        assert_eq!(report.source_name, "s1");
    }

    #[test]
    fn second_source_auto_maps_synonyms() {
        let mut integ = SchemaIntegrator::broadway();
        integ.integrate(&shows_source(1, "s1", "show_name", "cheapest_price"));
        let report = integ.integrate(&shows_source(2, "s2", "title", "cost"));
        assert_eq!(
            integ.global().len(),
            2,
            "synonym attributes must map, not proliferate: {:?}",
            integ.global().attribute_names()
        );
        assert_eq!(report.auto_accepted() + report.human_interventions(), 2);
        // Provenance grew.
        let show = integ.global().by_name("show_name").unwrap();
        assert_eq!(show.source_count(), 2);
    }

    #[test]
    fn unrelated_attribute_becomes_new() {
        let mut integ = SchemaIntegrator::broadway();
        integ.integrate(&shows_source(1, "s1", "show_name", "cheapest_price"));
        let s2 = source(
            2,
            "s2",
            vec![
                vec![("title", "Matilda"), ("box_office_phone", "(212) 555-0101")],
                vec![("title", "Pippin"), ("box_office_phone", "(212) 555-0188")],
            ],
        );
        let report = integ.integrate(&s2);
        assert_eq!(integ.global().len(), 3);
        let phone_suggestion = report
            .suggestions
            .iter()
            .find(|s| s.source_attr == "box_office_phone")
            .unwrap();
        assert!(matches!(phone_suggestion.decision, Decision::NewAttribute));
    }

    #[test]
    fn non_finite_price_still_maps_onto_price() {
        let prices = |id: u32, price_attr: &str, prices: [f64; 2]| {
            let sid = SourceId(id);
            let records: Vec<Record> = ["Matilda", "Wicked"]
                .iter()
                .zip(prices)
                .enumerate()
                .map(|(i, (show, price))| {
                    Record::from_pairs(
                        sid,
                        RecordId(i as u64),
                        vec![("show_name", Value::from(*show)), (price_attr, Value::Float(price))],
                    )
                })
                .collect();
            SourceSchema::profile_records(sid, format!("s{id}"), &records)
        };
        let mut integ = SchemaIntegrator::broadway();
        integ.integrate(&prices(1, "price", [27.0, 99.0]));
        let report = integ.integrate(&prices(2, "cost", [f64::NAN, 45.0]));
        let cost = &report.suggestions[1];
        assert!(cost.candidates.iter().all(|c| !c.score.is_nan()), "{:?}", cost.candidates);
        let price = integ.global().by_name("price").unwrap().id;
        assert_eq!(cost.decision.mapped_attr(), Some(price), "{:?}", cost.decision);
    }

    #[test]
    fn escalation_goes_to_resolver() {
        struct CountingResolver(usize);
        impl EscalationResolver for CountingResolver {
            fn resolve(&mut self, _a: &AttributeDef, c: &[MatchCandidate]) -> Decision {
                self.0 += 1;
                Decision::ExpertAccept { attr: c[0].attr, score: c[0].score }
            }
        }
        let mut integ = SchemaIntegrator::new(
            // Wide escalation band: everything 0.2..0.99 asks the resolver.
            IntegrationConfig { accept_threshold: 0.99, escalate_threshold: 0.2, max_candidates: 3 },
        );
        integ.integrate(&shows_source(1, "s1", "show_name", "cheapest_price"));
        let mut resolver = CountingResolver(0);
        // Disjoint values: content overlap cannot reach the 0.99 threshold,
        // so the synonym-name evidence lands in the escalation band.
        let s2 = source(
            2,
            "s2",
            vec![
                vec![("title", "Pippin"), ("cost", "$60")],
                vec![("title", "Once"), ("cost", "$75")],
            ],
        );
        let report = integ.integrate_with(&s2, &mut resolver);
        assert!(resolver.0 > 0, "resolver must be consulted");
        assert_eq!(report.human_interventions(), resolver.0);
    }

    #[test]
    fn human_intervention_drops_as_schema_matures() {
        // Fig 2's narrative: early stages need more intervention.
        let mut integ =
            SchemaIntegrator::new(IntegrationConfig { accept_threshold: 0.75, ..Default::default() });
        let spellings = [
            ("show_name", "cheapest_price"),
            ("title", "cost"),
            ("production", "ticket_price"),
            ("show", "price"),
            ("name", "from_price"),
        ];
        let mut interventions = Vec::new();
        for (i, (s, p)) in spellings.iter().enumerate() {
            let report = integ.integrate(&shows_source(i as u32, &format!("s{i}"), s, p));
            interventions.push(report.human_interventions());
        }
        assert_eq!(interventions[0], 0, "seed source has nothing to ask about");
        let early: usize = interventions[1..3].iter().sum();
        let late: usize = interventions[3..].iter().sum();
        assert!(
            late <= early,
            "maturing schema must not need more human help: {interventions:?}"
        );
        assert_eq!(integ.global().len(), 2, "{:?}", integ.global().attribute_names());
    }

    #[test]
    fn dry_run_does_not_mutate() {
        let mut integ = SchemaIntegrator::broadway();
        integ.integrate(&shows_source(1, "s1", "show_name", "cheapest_price"));
        let before = integ.global().len();
        let s2 = shows_source(2, "s2", "title", "cost");
        let scored = integ.dry_run(&s2);
        assert_eq!(integ.global().len(), before);
        assert_eq!(scored.len(), 2);
        assert!(scored[0].1.len() <= integ.config().max_candidates);
        // One ranking: nothing is claimed before the first attribute, so
        // integrating ranks it exactly as the dry run did.
        let report = integ.integrate(&s2);
        assert_eq!(scored[0].1, report.suggestions[0].candidates);
    }

    #[test]
    #[should_panic(expected = "escalate threshold")]
    fn inverted_thresholds_panic() {
        SchemaIntegrator::new(IntegrationConfig {
            accept_threshold: 0.3,
            escalate_threshold: 0.6,
            max_candidates: 5,
        });
    }
}
