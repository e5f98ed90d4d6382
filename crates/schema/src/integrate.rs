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
//! The integrator carries the matcher's fit of the global schema from call
//! to call: the features of every global attribute, the vocabulary with
//! the document frequencies IDF is computed from, and the name signal of
//! every pair of attribute names scored so far. A call reads its source
//! once: each sampled value is tokenised once, and each source attribute is
//! prepared against the fit as the call found it.
//! [`SchemaIntegrator::integrate_with`] and [`SchemaIntegrator::dry_run`]
//! rank candidates through the same function. That fit stays exact for the
//! whole call: every global attribute the call maps onto or adds is claimed
//! at once, and a claimed attribute is never a candidate again within that
//! call. When the call ends, the fit folds in exactly the claimed
//! attributes, taking their new values' tokens from the call's read of the
//! source, and re-weights, so one more source costs what it adds rather
//! than what the schema holds.

use datatamer_model::{AttrId, AttributeDef, DtError, Result, SourceSchema};

use crate::global::{GlobalAttribute, GlobalSchema};
use crate::matchers::{self, AttrFeatures, Fit, NameSignals};
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

impl IntegrationConfig {
    /// Check the thresholds: the escalation band must not start above the
    /// acceptance threshold. An integrator runs under any configuration
    /// (inverted thresholds leave it no escalation band); the pipeline's
    /// schema-integration stage refuses one that fails this check.
    pub fn validate(&self) -> Result<()> {
        if self.escalate_threshold > self.accept_threshold {
            return Err(DtError::Config(
                "escalate threshold must not exceed accept threshold".to_owned(),
            ));
        }
        Ok(())
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

/// The integrator: owns the growing global schema, the matcher's synonym
/// dictionary, the matcher's fit of the schema and its memo of name
/// signals.
pub struct SchemaIntegrator {
    global: GlobalSchema,
    synonyms: SynonymDict,
    config: IntegrationConfig,
    fit: Fit,
    names: NameSignals,
}

impl SchemaIntegrator {
    /// Start with an empty global schema (Fig 2's initial state), matching
    /// with the Broadway synonym dictionary. See
    /// [`IntegrationConfig::validate`] for the thresholds' invariant.
    pub fn new(config: IntegrationConfig) -> Self {
        SchemaIntegrator {
            global: GlobalSchema::new(),
            synonyms: SynonymDict::broadway(),
            config,
            fit: Fit::default(),
            names: NameSignals::default(),
        }
    }

    /// Default Broadway-domain integrator.
    pub fn broadway() -> Self {
        Self::new(IntegrationConfig::default())
    }

    /// The current global schema.
    pub fn global(&self) -> &GlobalSchema {
        &self.global
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
        let (tokens, features) = self.fit.read_source(source);
        let mut ranking = Ranking {
            synonyms: &self.synonyms,
            config: &self.config,
            prepared: self.fit.features(),
            names: &mut self.names,
        };
        let (report, claimed) = ranking.integrate(&mut self.global, &features, source, resolver);
        self.fit.update(&self.global, &claimed, source, &tokens);
        report
    }

    /// Score one source against the current schema *without* changing it
    /// (powers threshold sweeps: same matching, different thresholds). It
    /// takes `&mut self` because reading the source admits its tokens to
    /// the fit's vocabulary and memoises its name signals; neither changes
    /// the schema or any score.
    pub fn dry_run(&mut self, source: &SourceSchema) -> Vec<(String, Vec<MatchCandidate>)> {
        let (_, features) = self.fit.read_source(source);
        let mut ranking = Ranking {
            synonyms: &self.synonyms,
            config: &self.config,
            prepared: self.fit.features(),
            names: &mut self.names,
        };
        source
            .attributes
            .iter()
            .zip(&features)
            .map(|(attr, features)| (attr.name.clone(), ranking.rank(&self.global, features, &[])))
            .collect()
    }
}

/// What ranks a source attribute's candidates: the matcher's synonyms, the
/// thresholds, the prepared features of the global schema as the call
/// found it, and the memo of name signals.
struct Ranking<'a> {
    synonyms: &'a SynonymDict,
    config: &'a IntegrationConfig,
    prepared: &'a [AttrFeatures],
    names: &'a mut NameSignals,
}

impl Ranking<'_> {
    /// Decide every attribute of `source`, prepared as `features`, and
    /// apply each decision to `global`. Returns the report and the global
    /// attributes the call mapped onto or added, each with the index of the
    /// source attribute it took, in decision order.
    fn integrate(
        &mut self,
        global: &mut GlobalSchema,
        features: &[AttrFeatures],
        source: &SourceSchema,
        resolver: &mut dyn EscalationResolver,
    ) -> (IntegrationReport, Vec<(AttrId, usize)>) {
        let mut suggestions = Vec::with_capacity(source.attributes.len());
        // Attributes of one source are distinct by construction: a global
        // attribute already claimed by this source is excluded from the
        // candidates of its remaining attributes (prevents a source's own
        // columns from collapsing onto each other).
        let mut claimed: Vec<(AttrId, usize)> = Vec::new();
        for (at, (attr, features)) in source.attributes.iter().zip(features).enumerate() {
            let candidates = self.rank(global, features, &claimed);

            let top = candidates.first();
            let best = top.map(|c| c.score).unwrap_or(0.0);
            let no_counterpart_alert = best < self.config.escalate_threshold;
            let decision = match top {
                Some(c) if best >= self.config.accept_threshold => {
                    Decision::AutoAccept { attr: c.attr, score: c.score }
                }
                _ if best >= self.config.escalate_threshold => resolver.resolve(attr, &candidates),
                _ => Decision::NewAttribute,
            };

            // Apply the decision to the global schema. Every attribute this
            // changes or adds is claimed, so the features prepared before
            // the call stay exact for every attribute still ranked.
            match &decision {
                Decision::AutoAccept { attr: id, .. } | Decision::ExpertAccept { attr: id, .. } => {
                    // A resolver may name an attribute the schema does not
                    // have: the source attribute then starts a new one
                    // instead of being lost.
                    let id = match global.map_attribute(*id, source.source, attr) {
                        Ok(()) => *id,
                        Err(_) => global.add_attribute(source.source, attr),
                    };
                    claimed.push((id, at));
                }
                Decision::NewAttribute | Decision::ExpertNewAttribute => {
                    claimed.push((global.add_attribute(source.source, attr), at));
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
        (IntegrationReport { source_name: source.name.clone(), suggestions }, claimed)
    }

    /// The best `max_candidates` unclaimed global attributes for one source
    /// attribute, best first (ties keep schema order). `prepared` covers the
    /// schema as the call found it; attributes added since are appended
    /// after those and claimed, so zipping skips nothing ranked.
    fn rank(
        &mut self,
        global: &GlobalSchema,
        attr: &AttrFeatures,
        claimed: &[(AttrId, usize)],
    ) -> Vec<MatchCandidate> {
        let mut scored: Vec<(&GlobalAttribute, f64)> = global
            .iter()
            .zip(self.prepared)
            .filter(|(g, _)| !claimed.iter().any(|&(id, _)| id == g.id))
            .map(|(g, features)| {
                let name = self.names.get(self.synonyms, attr, features);
                (g, matchers::score(name, attr, features))
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(self.config.max_candidates);
        scored
            .into_iter()
            .map(|(g, score)| MatchCandidate { attr: g.id, name: g.name.clone(), score })
            .collect()
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
    fn an_unknown_attribute_from_the_resolver_starts_a_new_one() {
        struct Bogus;
        impl EscalationResolver for Bogus {
            fn resolve(&mut self, _a: &AttributeDef, _c: &[MatchCandidate]) -> Decision {
                Decision::ExpertAccept { attr: AttrId(999), score: 0.5 }
            }
        }
        let mut integ = SchemaIntegrator::new(
            // Every score below 1.0 escalates.
            IntegrationConfig { accept_threshold: 1.01, escalate_threshold: 0.0, max_candidates: 3 },
        );
        integ.integrate(&shows_source(1, "s1", "show_name", "cheapest_price"));
        integ.integrate_with(&shows_source(2, "s2", "title", "cost"), &mut Bogus);
        assert_eq!(integ.global().attribute_names(), ["show_name", "cheapest_price", "title", "cost"]);
        assert!(integ.global().get(AttrId(999)).is_none());
    }

    #[test]
    fn zero_thresholds_over_an_empty_schema_add_attributes() {
        // No candidate scores 0.0 >= 0.0: the decision must not read a
        // first candidate that is not there.
        let mut integ = SchemaIntegrator::new(IntegrationConfig {
            accept_threshold: 0.0,
            escalate_threshold: 0.0,
            max_candidates: 3,
        });
        let report = integ.integrate(&shows_source(1, "s1", "show_name", "cheapest_price"));
        assert_eq!(integ.global().len(), 2);
        assert!(report.suggestions.iter().all(|s| s.decision == Decision::ExpertNewAttribute));
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
        // It stays one ranking as the carried fit grows, source by source.
        let spellings = [
            ("production", "ticket_price"),
            ("show", "price"),
            ("name", "from_price"),
            ("venue", "seats"),
            ("show_title", "lowest_price"),
        ];
        for (i, (show, price)) in spellings.iter().enumerate() {
            let next = shows_source(3 + i as u32, &format!("s{}", 3 + i), show, price);
            let scored = integ.dry_run(&next);
            let report = integ.integrate(&next);
            assert_eq!(scored[0].1, report.suggestions[0].candidates, "source {}", 3 + i);
        }
    }

    // Inverted thresholds are a `DtError`; `unwrap` turns it into the
    // panic the test expects.
    #[test]
    #[should_panic(expected = "escalate threshold")]
    fn inverted_thresholds_panic() {
        IntegrationConfig { accept_threshold: 0.3, escalate_threshold: 0.6, max_candidates: 5 }
            .validate()
            .unwrap();
    }

    // ---- The oracle property: the carried fit against a refit per call. ----

    use crate::matchers::oracle::{bits, random_attr, Matcher, Rng};
    use proptest::prelude::*;

    /// The integrator as it was before the fit was carried: every call
    /// refits IDF and prepares every global attribute from scratch.
    struct Refitting {
        global: GlobalSchema,
        synonyms: SynonymDict,
        config: IntegrationConfig,
    }

    impl Refitting {
        /// Refit, prepare `source`, and rank under a fresh name memo.
        fn with_ranking<T>(
            &mut self,
            source: &SourceSchema,
            f: impl FnOnce(&mut Ranking, &mut GlobalSchema, &[AttrFeatures]) -> T,
        ) -> T {
            let (mut matcher, prepared) = Matcher::fit(&self.global);
            let features: Vec<AttrFeatures> =
                source.attributes.iter().map(|a| matcher.prepare(&a.name, &a.profile)).collect();
            let mut ranking = Ranking {
                synonyms: &self.synonyms,
                config: &self.config,
                prepared: &prepared,
                names: &mut NameSignals::default(),
            };
            f(&mut ranking, &mut self.global, &features)
        }

        fn integrate_with(
            &mut self,
            source: &SourceSchema,
            resolver: &mut dyn EscalationResolver,
        ) -> IntegrationReport {
            self.with_ranking(source, |ranking, global, features| {
                ranking.integrate(global, features, source, resolver).0
            })
        }

        fn dry_run(&mut self, source: &SourceSchema) -> Vec<(String, Vec<MatchCandidate>)> {
            self.with_ranking(source, |ranking, global, features| {
                let ranked = features.iter().map(|f| ranking.rank(global, f, &[]));
                source.attributes.iter().map(|a| a.name.clone()).zip(ranked).collect()
            })
        }
    }

    /// Answers each escalation from its own stream: the best candidate, a
    /// random candidate, a new attribute, or `Ignore`.
    struct RandomResolver(Rng);

    impl EscalationResolver for RandomResolver {
        fn resolve(&mut self, _attr: &AttributeDef, candidates: &[MatchCandidate]) -> Decision {
            let pick = &candidates[self.0.below(candidates.len())];
            match self.0.below(4) {
                0 => Decision::ExpertAccept { attr: candidates[0].attr, score: candidates[0].score },
                1 => Decision::ExpertAccept { attr: pick.attr, score: pick.score },
                2 => Decision::ExpertNewAttribute,
                _ => Decision::Ignore,
            }
        }
    }

    /// A column of 200–400 distinct values, mostly new per source, so a
    /// global sample fills past its cap of 256 over a few sources.
    fn wide_attr(rng: &mut Rng) -> AttributeDef {
        let mut profile = datatamer_model::AttributeProfile::default();
        let offset = rng.below(600);
        for i in 0..200 + rng.below(201) {
            let n = offset + i;
            let v = match n % 3 {
                0 => format!("Show {n}"),
                1 => format!("SHOW {}", n - 1),
                _ => format!("{n}"),
            };
            profile.observe(&Value::from(v));
        }
        AttributeDef { name: ["listing", "Listing", "catalogue"][rng.below(3)].to_owned(), profile }
    }

    /// A column whose values lead with a run of zeros that shortens as
    /// `id` grows: a token that sorts before every token of the earlier
    /// sources' leading columns.
    fn leading_attr(rng: &mut Rng, id: u32) -> AttributeDef {
        let mut profile = datatamer_model::AttributeProfile::default();
        let zeros = "0".repeat(16usize.saturating_sub(id as usize).max(1));
        for _ in 0..1 + rng.below(4) {
            profile.observe(&Value::from(format!("{zeros} {}", ["Aa", "Zz", "Wicked"][rng.below(3)])));
        }
        AttributeDef { name: ["code", "Code", "ref"][rng.below(3)].to_owned(), profile }
    }

    /// A source of 1–6 attributes with distinct names.
    fn random_source(rng: &mut Rng, id: u32) -> SourceSchema {
        let mut schema = SourceSchema::new(SourceId(id), format!("s{id}"));
        for _ in 0..1 + rng.below(6) {
            let attr = match rng.below(10) {
                0 | 1 => wide_attr(rng),
                2 => leading_attr(rng, id),
                _ => random_attr(rng),
            };
            if schema.attribute(&attr.name).is_none() {
                schema.attributes.push(attr);
            }
        }
        schema
    }

    /// What a sequence exercised, so the property can check its coverage.
    #[derive(Default)]
    struct Seen {
        capped: bool,
        later_collision: bool,
        non_finite: bool,
        tokenless: bool,
        ignored: bool,
        expert_accepted: bool,
        new_token_first: bool,
    }

    /// Integrate a random source sequence through the carried fit and a
    /// per-call refit, checking after every call that they agree bit for
    /// bit.
    fn run_sequence(seed: u64, seen: &mut Seen) {
        let mut rng = Rng(seed | 1);
        let config =
            IntegrationConfig { accept_threshold: 0.85, escalate_threshold: 0.35, max_candidates: 4 };
        let mut carried = SchemaIntegrator::new(config.clone());
        let mut refitting =
            Refitting { global: GlobalSchema::new(), synonyms: SynonymDict::broadway(), config };
        let stream = rng.below(1 << 30) as u64 | 1;
        let (mut ours, mut theirs) = (RandomResolver(Rng(stream)), RandomResolver(Rng(stream)));
        for id in 0..2 + rng.below(14) as u32 {
            let source = random_source(&mut rng, id);
            for attr in &source.attributes {
                let sample = attr.profile.sample_values();
                seen.tokenless |= sample.iter().any(|v| datatamer_sim::tokenize(v).is_empty());
                seen.non_finite |=
                    sample.iter().any(|v| v.parse::<f64>().is_ok_and(|x| !x.is_finite()));
            }
            // A source that is only dry-run: its tokens enter the
            // vocabulary but no global bag.
            if rng.below(2) == 0 {
                let discarded = random_source(&mut rng, 100 + id);
                let vocab = carried.fit.vocabulary();
                let dry = carried.dry_run(&discarded);
                assert_eq!(dry, refitting.dry_run(&discarded), "discarded source {id}");
                seen.new_token_first |= ranked_first(&vocab, &carried.fit.vocabulary());
            }
            // Source attributes prepare alike under both fits.
            let vocab = carried.fit.vocabulary();
            let (_, prepared) = carried.fit.read_source(&source);
            seen.new_token_first |= ranked_first(&vocab, &carried.fit.vocabulary());
            let (mut matcher, _) = Matcher::fit(&refitting.global);
            for (attr, got) in source.attributes.iter().zip(&prepared) {
                let want = matcher.prepare(&attr.name, &attr.profile);
                assert_eq!(
                    bits(got, &carried.fit.vocabulary()),
                    bits(&want, &matcher.vocab),
                    "source {:?}",
                    attr.name
                );
            }
            let before: Vec<Vec<String>> = carried
                .global()
                .iter()
                .map(|g| g.profile.sample_values().to_vec())
                .collect();
            let dry = carried.dry_run(&source);
            let report = carried.integrate_with(&source, &mut ours);
            let reference = refitting.integrate_with(&source, &mut theirs);
            // `{:?}` prints each score's shortest round-trip form, which
            // tells every finite bit pattern apart.
            assert_eq!(format!("{report:?}"), format!("{reference:?}"), "source {id}");
            if let (Some((_, ranked)), Some(first)) = (dry.first(), report.suggestions.first()) {
                assert_eq!(ranked, &first.candidates, "dry run vs source {id}");
            }
            let (matcher, refit) = Matcher::fit(carried.global());
            let vocab = carried.fit.vocabulary();
            assert_eq!(carried.fit.features().len(), refit.len());
            for (i, (got, want)) in carried.fit.features().iter().zip(&refit).enumerate() {
                assert_eq!(
                    bits(got, &vocab),
                    bits(want, &matcher.vocab),
                    "global attribute {i} after source {id}"
                );
            }
            for s in &report.suggestions {
                seen.ignored |= s.decision == Decision::Ignore;
                seen.expert_accepted |= matches!(s.decision, Decision::ExpertAccept { .. });
            }
            for (g, old) in carried.global().iter().zip(&before) {
                let sample = g.profile.sample_values();
                seen.capped |= g.profile.sample_overflow && sample.len() > old.len();
                seen.later_collision |= sample[old.len()..].iter().any(|v| {
                    old.iter().any(|o| o != v && o.to_lowercase() == v.to_lowercase())
                });
            }
        }
    }

    /// Whether `after`, a vocabulary in rank order, ranks a token missing
    /// from `before` ahead of one `before` held.
    fn ranked_first(before: &[String], after: &[String]) -> bool {
        let Some(last) = before.last() else { return false };
        after.iter().any(|t| t < last && before.binary_search(t).is_err())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn carried_fit_matches_a_refit_on_every_call(seed in any::<u64>()) {
            run_sequence(seed, &mut Seen::default());
        }
    }

    #[test]
    fn the_oracle_property_covers_its_edge_cases() {
        let mut seen = Seen::default();
        for seed in 0..16 {
            run_sequence(0x5eed_0000 + seed, &mut seen);
        }
        assert!(seen.capped, "a global sample filled past its cap");
        assert!(seen.later_collision, "a lowercase collision arrived in a later source");
        assert!(seen.non_finite, "NaN or infinite numerics were profiled");
        assert!(seen.tokenless, "a value without tokens was sampled");
        assert!(seen.ignored, "the resolver answered Ignore");
        assert!(seen.expert_accepted, "the resolver answered ExpertAccept");
        assert!(seen.new_token_first, "a call ranked a new token before an old one");
    }
}
