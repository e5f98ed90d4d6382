//! Per-source schemas and statistical attribute profiles.
//!
//! Schema integration in Data Tamer matches attributes by *name* and by
//! *content*. The content side needs compact per-attribute statistics:
//! lexical-type histogram, null fraction, value-length stats, numeric
//! moments, and a bounded sample of distinct values for set-overlap and
//! TF-IDF cosine matchers. [`AttributeProfile`] accumulates these in one
//! streaming pass over a source.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::infer::{infer_value, LexicalType};
use crate::record::{Record, SourceId};
use crate::value::Value;

/// Default cap on the distinct-value sample retained per attribute.
pub const DEFAULT_SAMPLE_CAP: usize = 256;

/// Streaming statistical profile of one attribute.
#[derive(Debug, Clone)]
pub struct AttributeProfile {
    /// Total observations (including nulls).
    pub count: u64,
    /// Null observations.
    pub nulls: u64,
    /// Histogram of lexical types over non-null observations.
    pub type_counts: HashMap<LexicalType, u64>,
    /// First-seen distinct non-null values (text form), capped.
    sample: Vec<String>,
    sample_set: HashMap<String, u64>,
    sample_cap: usize,
    /// True once more distinct values were seen than the sample holds.
    pub sample_overflow: bool,
    /// Sum of text lengths of non-null values.
    pub total_len: u64,
    // Streaming numeric moments (Welford) over numeric-typed values.
    num_n: u64,
    num_mean: f64,
    num_m2: f64,
    num_min: f64,
    num_max: f64,
}

impl Default for AttributeProfile {
    fn default() -> Self {
        Self::with_sample_cap(DEFAULT_SAMPLE_CAP)
    }
}

impl AttributeProfile {
    /// Create a profile retaining at most `cap` distinct sample values.
    pub fn with_sample_cap(cap: usize) -> Self {
        AttributeProfile {
            count: 0,
            nulls: 0,
            type_counts: HashMap::new(),
            sample: Vec::new(),
            sample_set: HashMap::new(),
            sample_cap: cap.max(1),
            sample_overflow: false,
            total_len: 0,
            num_n: 0,
            num_mean: 0.0,
            num_m2: 0.0,
            num_min: f64::INFINITY,
            num_max: f64::NEG_INFINITY,
        }
    }

    /// Observe one value.
    pub fn observe(&mut self, v: &Value) {
        self.count += 1;
        let ty = infer_value(v);
        if ty == LexicalType::Null {
            self.nulls += 1;
            return;
        }
        *self.type_counts.entry(ty).or_insert(0) += 1;
        let text = v.to_text();
        self.total_len += text.len() as u64;
        if let Some(x) = numeric_magnitude(v, ty) {
            self.num_n += 1;
            self.num_min = self.num_min.min(x);
            self.num_max = self.num_max.max(x);
            let delta = x - self.num_mean;
            self.num_mean += delta / self.num_n as f64;
            self.num_m2 += delta * (x - self.num_mean);
        }
        match self.sample_set.entry(text) {
            Entry::Occupied(mut e) => *e.get_mut() += 1,
            Entry::Vacant(e) => {
                if self.sample.len() < self.sample_cap {
                    self.sample.push(e.key().clone());
                    e.insert(1);
                } else {
                    self.sample_overflow = true;
                }
            }
        }
    }

    /// Number of non-null observations.
    pub fn non_null(&self) -> u64 {
        self.count - self.nulls
    }

    /// Null fraction over all observations (0 when empty).
    pub fn null_fraction(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.nulls as f64 / self.count as f64
        }
    }

    /// The retained distinct-value sample, in first-seen order.
    pub fn sample_values(&self) -> &[String] {
        &self.sample
    }

    /// Occurrence count of a sampled value.
    pub fn sample_frequency(&self, value: &str) -> u64 {
        self.sample_set.get(value).copied().unwrap_or(0)
    }

    /// Dominant lexical type (ties break toward the more specific type via
    /// the enum ordering), or `Null` when no non-null value was seen.
    pub fn dominant_type(&self) -> LexicalType {
        self.type_counts
            .iter()
            .max_by_key(|(ty, n)| (**n, std::cmp::Reverse(**ty)))
            .map(|(ty, _)| *ty)
            .unwrap_or(LexicalType::Null)
    }

    /// Mean text length of non-null values.
    pub fn mean_len(&self) -> f64 {
        let nn = self.non_null();
        if nn == 0 {
            0.0
        } else {
            self.total_len as f64 / nn as f64
        }
    }

    /// Numeric summary `(n, min, max, mean, std)` over numeric values, when any.
    pub fn numeric_stats(&self) -> Option<NumericStats> {
        if self.num_n == 0 {
            return None;
        }
        let var = if self.num_n > 1 {
            self.num_m2 / (self.num_n - 1) as f64
        } else {
            0.0
        };
        Some(NumericStats {
            n: self.num_n,
            min: self.num_min,
            max: self.num_max,
            mean: self.num_mean,
            std: var.max(0.0).sqrt(),
        })
    }

    /// Merge another profile into this one (sample union is capped; numeric
    /// moments merge exactly via Chan's parallel algorithm).
    pub fn merge(&mut self, other: &AttributeProfile) {
        self.count += other.count;
        self.nulls += other.nulls;
        self.total_len += other.total_len;
        for (ty, n) in &other.type_counts {
            *self.type_counts.entry(*ty).or_insert(0) += n;
        }
        for v in &other.sample {
            let freq = other.sample_frequency(v);
            match self.sample_set.entry(v.clone()) {
                Entry::Occupied(mut e) => *e.get_mut() += freq,
                Entry::Vacant(e) => {
                    if self.sample.len() < self.sample_cap {
                        self.sample.push(e.key().clone());
                        e.insert(freq);
                    } else {
                        self.sample_overflow = true;
                    }
                }
            }
        }
        self.sample_overflow |= other.sample_overflow;
        if other.num_n > 0 {
            let (na, nb) = (self.num_n as f64, other.num_n as f64);
            let delta = other.num_mean - self.num_mean;
            let n = na + nb;
            if self.num_n == 0 {
                self.num_mean = other.num_mean;
                self.num_m2 = other.num_m2;
            } else {
                self.num_mean += delta * nb / n;
                self.num_m2 += other.num_m2 + delta * delta * na * nb / n;
            }
            self.num_n += other.num_n;
            self.num_min = self.num_min.min(other.num_min);
            self.num_max = self.num_max.max(other.num_max);
        }
    }
}

/// Numeric summary of an attribute's numeric-typed values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericStats {
    pub n: u64,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub std: f64,
}

/// The magnitude a numeric observation adds to the moments, when it has a
/// finite one. A NaN or infinite value still counts toward its lexical type,
/// but would turn the mean (and every score read from it) into NaN.
fn numeric_magnitude(v: &Value, ty: LexicalType) -> Option<f64> {
    let x = match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        Value::Str(s) => match ty {
            LexicalType::Integer => crate::infer::parse_integer(s).map(|i| i as f64),
            LexicalType::Decimal => crate::infer::parse_decimal(s),
            LexicalType::Money => crate::infer::parse_money(s).map(|m| m.amount),
            LexicalType::Percent => {
                let t = s.trim().trim_end_matches('%');
                let t = t.trim_end_matches("percent").trim_end_matches("PERCENT");
                crate::infer::parse_decimal(t.trim())
            }
            _ => None,
        },
        _ => None,
    };
    x.filter(|x| x.is_finite())
}

/// One attribute of a source schema.
#[derive(Debug, Clone)]
pub struct AttributeDef {
    /// Attribute name as it appears in the source.
    pub name: String,
    /// Statistical profile accumulated over the source's records.
    pub profile: AttributeProfile,
}

/// The schema of one data source: its attributes with content profiles.
#[derive(Debug, Clone)]
pub struct SourceSchema {
    /// Which source this schema describes.
    pub source: SourceId,
    /// Human-readable source name.
    pub name: String,
    /// Attributes in first-seen order.
    pub attributes: Vec<AttributeDef>,
    /// Records profiled.
    pub record_count: u64,
}

impl SourceSchema {
    /// Create an empty schema.
    pub fn new(source: SourceId, name: impl Into<String>) -> Self {
        SourceSchema { source, name: name.into(), attributes: Vec::new(), record_count: 0 }
    }

    /// Build a schema by profiling a slice of records.
    pub fn profile_records(source: SourceId, name: impl Into<String>, records: &[Record]) -> Self {
        let mut schema = SourceSchema::new(source, name);
        for r in records {
            schema.observe(r);
        }
        schema
    }

    /// Observe one record: every field updates its attribute profile, and
    /// attributes absent from the record accrue an implicit null.
    pub fn observe(&mut self, record: &Record) {
        self.record_count += 1;
        for (name, value) in record.iter() {
            match self.attributes.iter_mut().find(|a| a.name == name) {
                Some(attr) => attr.profile.observe(value),
                None => {
                    // Back-fill nulls for records seen before this attribute.
                    let mut profile = AttributeProfile {
                        count: self.record_count - 1,
                        nulls: self.record_count - 1,
                        ..Default::default()
                    };
                    profile.observe(value);
                    self.attributes.push(AttributeDef { name: name.to_owned(), profile });
                }
            }
        }
        for attr in &mut self.attributes {
            if record.get(&attr.name).is_none() {
                attr.profile.observe(&Value::Null);
            }
        }
    }

    /// Look up an attribute by name.
    pub fn attribute(&self, name: &str) -> Option<&AttributeDef> {
        self.attributes.iter().find(|a| a.name == name)
    }

    /// Attribute names in order.
    pub fn attribute_names(&self) -> Vec<&str> {
        self.attributes.iter().map(|a| a.name.as_str()).collect()
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordId;

    fn profile_of(values: &[Value]) -> AttributeProfile {
        let mut p = AttributeProfile::default();
        for v in values {
            p.observe(v);
        }
        p
    }

    #[test]
    fn counts_and_null_fraction() {
        let p = profile_of(&[Value::Int(1), Value::Null, Value::from("x"), Value::Null]);
        assert_eq!(p.count, 4);
        assert_eq!(p.nulls, 2);
        assert_eq!(p.non_null(), 2);
        assert!((p.null_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dominant_type_and_purity() {
        let p = profile_of(&[
            Value::from("$27"),
            Value::from("$30"),
            Value::from("$99.50"),
            Value::from("cheap"),
        ]);
        assert_eq!(p.dominant_type(), LexicalType::Money);
        // Three of the four non-null values have the dominant type.
        assert_eq!(p.type_counts.get(&LexicalType::Money), Some(&3));
    }

    #[test]
    fn numeric_stats_parse_money_and_percent() {
        let p = profile_of(&[Value::from("$20"), Value::from("$40")]);
        let s = p.numeric_stats().unwrap();
        assert_eq!(s.n, 2);
        assert_eq!(s.min, 20.0);
        assert_eq!(s.max, 40.0);
        assert!((s.mean - 30.0).abs() < 1e-12);
        let p = profile_of(&[Value::from("50%"), Value::from("100%")]);
        assert!((p.numeric_stats().unwrap().mean - 75.0).abs() < 1e-12);
    }

    #[test]
    fn welford_std_matches_naive() {
        let xs = [3.0, 7.0, 7.0, 19.0];
        let p = profile_of(&xs.iter().map(|x| Value::Float(*x)).collect::<Vec<_>>());
        let s = p.numeric_stats().unwrap();
        let mean = xs.iter().sum::<f64>() / 4.0;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 3.0;
        assert!((s.std - var.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn non_finite_values_stay_out_of_numeric_stats() {
        let p = profile_of(&[
            Value::Float(f64::NAN),
            Value::Float(45.0),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
        ]);
        assert_eq!(p.type_counts.get(&LexicalType::Decimal), Some(&4), "still typed");
        let s = p.numeric_stats().unwrap();
        assert_eq!((s.n, s.min, s.max, s.mean, s.std), (1, 45.0, 45.0, 45.0, 0.0));
        let mut merged = profile_of(&[Value::Float(f64::NAN)]);
        assert_eq!(merged.numeric_stats(), None);
        merged.merge(&p);
        assert_eq!(merged.numeric_stats(), p.numeric_stats());
    }

    #[test]
    fn sample_caps_and_flags_overflow() {
        let mut p = AttributeProfile::with_sample_cap(3);
        for i in 0..10 {
            p.observe(&Value::Int(i));
        }
        assert_eq!(p.sample_values().len(), 3);
        assert!(p.sample_overflow);
        assert_eq!(p.sample_frequency("0"), 1);
    }

    #[test]
    fn sample_tracks_frequencies() {
        let p = profile_of(&[Value::from("a"), Value::from("a"), Value::from("b")]);
        assert_eq!(p.sample_frequency("a"), 2);
        assert_eq!(p.sample_frequency("b"), 1);
        assert_eq!(p.sample_frequency("zzz"), 0);
    }

    #[test]
    fn merge_combines_moments_exactly() {
        let mut a = profile_of(&[Value::Float(1.0), Value::Float(2.0)]);
        let b = profile_of(&[Value::Float(3.0), Value::Float(4.0), Value::Null]);
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.nulls, 1);
        let s = a.numeric_stats().unwrap();
        assert!((s.mean - 2.5).abs() < 1e-12);
        let direct = profile_of(&[
            Value::Float(1.0),
            Value::Float(2.0),
            Value::Float(3.0),
            Value::Float(4.0),
        ]);
        let ds = direct.numeric_stats().unwrap();
        assert!((s.std - ds.std).abs() < 1e-9);
    }

    #[test]
    fn schema_backfills_nulls_for_late_attributes() {
        let mut schema = SourceSchema::new(SourceId(1), "shows");
        let r1 = Record::from_pairs(SourceId(1), RecordId(1), vec![("a", Value::Int(1))]);
        let r2 = Record::from_pairs(
            SourceId(1),
            RecordId(2),
            vec![("a", Value::Int(2)), ("b", Value::from("x"))],
        );
        schema.observe(&r1);
        schema.observe(&r2);
        assert_eq!(schema.arity(), 2);
        let b = schema.attribute("b").unwrap();
        assert_eq!(b.profile.count, 2);
        assert_eq!(b.profile.nulls, 1);
        // r1 lacked "b"; r2 had both: "a" has no nulls.
        let a = schema.attribute("a").unwrap();
        assert_eq!(a.profile.nulls, 0);
        assert_eq!(schema.record_count, 2);
    }

    #[test]
    fn profile_records_builds_full_schema() {
        let recs = vec![
            Record::from_pairs(SourceId(2), RecordId(1), vec![("show", "Matilda"), ("price", "$27")]),
            Record::from_pairs(SourceId(2), RecordId(2), vec![("show", "Wicked"), ("price", "$99")]),
        ];
        let schema = SourceSchema::profile_records(SourceId(2), "ftable_0", &recs);
        assert_eq!(schema.attribute_names(), vec!["show", "price"]);
        assert_eq!(schema.attribute("price").unwrap().profile.dominant_type(), LexicalType::Money);
        assert_eq!(schema.record_count, 2);
    }
}
