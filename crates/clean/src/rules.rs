//! The per-attribute cleaning rule engine.

use datatamer_model::Record;
use rayon::prelude::*;

use crate::nulls;
use crate::transforms::Transform;

/// A cleaning rule: which attributes it covers and what it does.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Attribute the rule applies to (exact name match).
    pub attribute: String,
    /// The transformation.
    pub transform: Transform,
}

impl Rule {
    /// Convenience constructor.
    pub fn new(attribute: impl Into<String>, transform: Transform) -> Self {
        Rule { attribute: attribute.into(), transform }
    }
}

/// Change accounting for a cleaning run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CleaningReport {
    /// Records visited.
    pub records: usize,
    /// Null-ish strings canonicalised.
    pub nulls_canonicalized: usize,
    /// Rule applications that changed a value.
    pub values_transformed: usize,
}

impl CleaningReport {
    /// Fold another report's counts into this one (parallel-chunk merge).
    pub fn merge(&mut self, other: &CleaningReport) {
        self.records += other.records;
        self.nulls_canonicalized += other.nulls_canonicalized;
        self.values_transformed += other.values_transformed;
    }
}

/// The engine: null canonicalisation (always on) plus ordered rules.
#[derive(Debug, Clone, Default)]
pub struct CleaningEngine {
    rules: Vec<Rule>,
}

impl CleaningEngine {
    /// An engine with no rules (null canonicalisation only).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a rule (rules run in insertion order; later rules see the
    /// output of earlier ones).
    pub fn add_rule(&mut self, rule: Rule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// The standard engine for Broadway-domain records: prices to USD,
    /// opening dates to the paper's `M/D/YYYY`, whitespace tidied on every
    /// listed text attribute.
    pub fn broadway(price_attr: &str, date_attr: &str, text_attrs: &[&str]) -> Self {
        let mut e = CleaningEngine::new();
        e.add_rule(Rule::new(price_attr, Transform::CurrencyToUsd));
        e.add_rule(Rule::new(date_attr, Transform::DateToUs));
        for a in text_attrs {
            e.add_rule(Rule::new(*a, Transform::TidyWhitespace));
        }
        e
    }

    /// Clean one record in place; counts land in `report`.
    pub fn clean_record(&self, record: &mut Record, report: &mut CleaningReport) {
        report.records += 1;
        // Pass 1: null canonicalisation over all fields.
        let names: Vec<String> = record.field_names().map(str::to_owned).collect();
        for name in &names {
            if let Some(v) = record.get(name) {
                if let Some(replacement) = nulls::canonicalize(v) {
                    record.set(name.clone(), replacement);
                    report.nulls_canonicalized += 1;
                }
            }
        }
        // Pass 2: rules in order.
        for rule in &self.rules {
            if let Some(v) = record.get(&rule.attribute) {
                if let Some(new_value) = rule.transform.apply(v) {
                    if *v != new_value {
                        record.set(rule.attribute.clone(), new_value);
                        report.values_transformed += 1;
                    }
                }
            }
        }
    }

    /// Clean a batch with the records fanned out across the rayon thread
    /// team. Record mutations are per-record (no cross-record state), so
    /// the cleaned values are identical to cleaning each record in turn,
    /// at any thread count; per-chunk reports merge into one.
    pub fn clean_all_parallel(&self, records: &mut [Record]) -> CleaningReport {
        let chunk_reports: Vec<CleaningReport> = records
            .par_iter_mut()
            .map(|r| {
                let mut report = CleaningReport::default();
                self.clean_record(r, &mut report);
                report
            })
            .collect();
        let mut total = CleaningReport::default();
        for r in chunk_reports {
            total.merge(&r);
        }
        total
    }
}

/// Clean many sources concurrently: each `(name, records)` job runs the
/// engine built by `engine_for` over its records, in parallel across
/// sources (the paper's per-source curation step). Reports come back in
/// job order.
///
/// Each job's records clean through [`CleaningEngine::clean_all_parallel`],
/// so a single oversized source still spreads across the thread team (the
/// rayon shim runs a lone job inline, leaving the full width to the
/// per-record fan-out).
pub fn clean_sources_parallel(
    jobs: &mut [(String, Vec<Record>)],
    engine_for: impl Fn(&str) -> CleaningEngine + Sync,
) -> Vec<(String, CleaningReport)> {
    jobs.par_iter_mut()
        .map(|(name, records)| {
            let engine = engine_for(name);
            let report = engine.clean_all_parallel(records);
            (name.clone(), report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{RecordId, SourceId, Value};

    fn rec(fields: Vec<(&str, &str)>) -> Record {
        Record::from_pairs(
            SourceId(0),
            RecordId(0),
            fields.into_iter().map(|(k, v)| (k, Value::from(v))).collect(),
        )
    }

    #[test]
    fn broadway_engine_cleans_the_paper_cases() {
        let engine = CleaningEngine::broadway("price", "first", &["venue"]);
        let mut records = vec![
            rec(vec![("price", "€30"), ("first", "2013-03-04"), ("venue", "  Shubert  Theatre ")]),
            rec(vec![("price", "$27"), ("first", "3/4/2013"), ("venue", "Gershwin")]),
            rec(vec![("price", "N/A"), ("first", "-"), ("venue", "Palace")]),
        ];
        let report = engine.clean_all_parallel(&mut records);
        assert_eq!(records[0].get_text("price").as_deref(), Some("$39"));
        assert_eq!(records[0].get_text("first").as_deref(), Some("3/4/2013"));
        assert_eq!(records[0].get_text("venue").as_deref(), Some("Shubert Theatre"));
        // Already-clean values untouched.
        assert_eq!(records[1].get_text("price").as_deref(), Some("$27"));
        // Nulls canonicalised before rules, so CurrencyToUsd never sees "N/A".
        assert!(records[2].get("price").unwrap().is_null());
        assert!(records[2].get("first").unwrap().is_null());
        assert_eq!(report.records, 3);
        assert_eq!(report.nulls_canonicalized, 2);
        assert_eq!(report.values_transformed, 3, "{report:?}");
    }

    #[test]
    fn rules_apply_in_order() {
        let mut engine = CleaningEngine::new();
        engine
            .add_rule(Rule::new("x", Transform::TidyWhitespace))
            .add_rule(Rule::new("x", Transform::Uppercase));
        let mut r = rec(vec![("x", " a  b ")]);
        let mut report = CleaningReport::default();
        engine.clean_record(&mut r, &mut report);
        assert_eq!(r.get_text("x").as_deref(), Some("A B"));
        assert_eq!(report.values_transformed, 2);
    }

    #[test]
    fn engine_without_rules_still_fixes_nulls() {
        let engine = CleaningEngine::new();
        let mut r = rec(vec![("a", "n/a"), ("b", "keep")]);
        let mut report = CleaningReport::default();
        engine.clean_record(&mut r, &mut report);
        assert!(r.get("a").unwrap().is_null());
        assert_eq!(r.get_text("b").as_deref(), Some("keep"));
        assert_eq!(report.nulls_canonicalized, 1);
        assert_eq!(report.values_transformed, 0);
    }

    #[test]
    fn missing_attributes_are_skipped() {
        let engine = CleaningEngine::broadway("price", "first", &[]);
        let mut r = rec(vec![("other", "€30")]);
        let mut report = CleaningReport::default();
        engine.clean_record(&mut r, &mut report);
        assert_eq!(r.get_text("other").as_deref(), Some("€30"), "rule scoped to 'price'");
        assert_eq!(report.values_transformed, 0);
    }
}
