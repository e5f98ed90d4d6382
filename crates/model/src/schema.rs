//! Per-source schemas and statistical attribute profiles.
//!
//! Schema integration in Data Tamer matches attributes by *name* and by
//! *content*. The content side needs compact per-attribute statistics:
//! lexical-type histogram, null fraction, value-length stats, numeric
//! moments, and a bounded sample of distinct values for set-overlap and
//! TF-IDF cosine matchers. [`AttributeProfile`] accumulates these in one
//! streaming pass over a source, allocating only when a value enters the
//! sample.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
    /// Histogram of lexical types over non-null observations, indexed by
    /// `LexicalType as usize` (the `Null` slot stays 0).
    pub type_counts: [u64; LexicalType::ALL.len()],
    /// First-seen distinct non-null values (text form), capped.
    sample: Vec<String>,
    /// Occurrences of each sampled value, parallel to `sample`.
    counts: Vec<u64>,
    /// Position in `sample`, keyed by the FNV-1a hash of the value's text
    /// ([`Self::find_in_sample`]): one hash and no key allocation per
    /// observation.
    sample_set: HashMap<u64, usize, BuildHasherDefault<Prehashed>>,
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
            type_counts: [0; LexicalType::ALL.len()],
            sample: Vec::new(),
            counts: Vec::new(),
            sample_set: HashMap::default(),
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
        self.type_counts[ty as usize] += 1;
        // A string is read in place; only other values are formatted.
        let formatted;
        let text = match v {
            Value::Str(s) => s.as_str(),
            other => {
                formatted = other.to_text();
                formatted.as_str()
            }
        };
        self.total_len += text.len() as u64;
        if let Some(x) = numeric_magnitude(v, ty) {
            self.num_n += 1;
            self.num_min = self.num_min.min(x);
            self.num_max = self.num_max.max(x);
            let delta = x - self.num_mean;
            self.num_mean += delta / self.num_n as f64;
            self.num_m2 += delta * (x - self.num_mean);
        }
        self.add_to_sample(text, 1);
    }

    /// Count `freq` occurrences of `text`, admitting it to the sample while
    /// there is room and flagging overflow once there is not.
    fn add_to_sample(&mut self, text: &str, freq: u64) {
        match self.find_in_sample(text) {
            Ok(at) => {
                if let Some(n) = self.counts.get_mut(at) {
                    *n += freq;
                }
            }
            Err(key) if self.sample.len() < self.sample_cap => {
                self.sample_set.insert(key, self.sample.len());
                self.sample.push(text.to_owned());
                self.counts.push(freq);
            }
            Err(_) => self.sample_overflow = true,
        }
    }

    /// The position of `text` in the sample, or the free key it would be
    /// indexed under. A value is keyed by the FNV-1a hash of its text; when
    /// another sampled value already holds that key it takes the next free
    /// one (`hash + 1`, ...). Nothing leaves the sample, so a lookup that
    /// probes keys from the hash meets its value before any free key. The
    /// sample is capped, so even values crafted to collide cost at most
    /// `sample_cap` probes each.
    fn find_in_sample(&self, text: &str) -> Result<usize, u64> {
        let mut key = fnv1a(text.as_bytes());
        loop {
            match self.sample_set.get(&key) {
                None => return Err(key),
                Some(&at) if self.sample.get(at).is_some_and(|s| s == text) => return Ok(at),
                Some(_) => key = key.wrapping_add(1),
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

    /// Occurrence count of each sampled value, parallel to
    /// [`AttributeProfile::sample_values`].
    pub fn sample_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Occurrence count of a sampled value.
    pub fn sample_frequency(&self, value: &str) -> u64 {
        self.find_in_sample(value).ok().and_then(|at| self.counts.get(at)).copied().unwrap_or(0)
    }

    /// Dominant lexical type (ties break toward the more specific type via
    /// the enum ordering), or `Null` when no non-null value was seen.
    pub fn dominant_type(&self) -> LexicalType {
        LexicalType::ALL
            .into_iter()
            .zip(self.type_counts)
            .filter(|&(_, n)| n > 0)
            .max_by_key(|&(ty, n)| (n, std::cmp::Reverse(ty)))
            .map_or(LexicalType::Null, |(ty, _)| ty)
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
        for (mine, theirs) in self.type_counts.iter_mut().zip(other.type_counts) {
            *mine += theirs;
        }
        for (v, &freq) in other.sample.iter().zip(&other.counts) {
            self.add_to_sample(v, freq);
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

/// FNV-1a of `bytes`: the key of a sampled value.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The hasher of a map keyed by a hash already computed ([`fnv1a`]): it
/// passes the key through. The map is never iterated, so its layout cannot
/// reach any output.
#[derive(Debug, Clone, Copy, Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = bytes.iter().fold(self.0, |h, &b| h.rotate_left(8) ^ u64::from(b));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
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
            LexicalType::Percent => crate::infer::parse_percent(s),
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
    ///
    /// Records of one source almost always share a field order, so the
    /// attribute after the previous field's is tried before the list is
    /// searched. A record's field names are unique, so a record with as
    /// many fields as the schema has attributes has every one of them, and
    /// the implicit-null pass is skipped.
    pub fn observe(&mut self, record: &Record) {
        self.record_count += 1;
        let mut next = 0;
        for (name, value) in record.iter() {
            let found = match self.attributes.get(next) {
                Some(a) if a.name == name => Some(next),
                _ => self.attributes.iter().position(|a| a.name == name),
            };
            let at = found.unwrap_or_else(|| {
                // Back-fill nulls for records seen before this attribute.
                let seen = self.record_count - 1;
                let profile = AttributeProfile { count: seen, nulls: seen, ..Default::default() };
                self.attributes.push(AttributeDef { name: name.to_owned(), profile });
                self.attributes.len() - 1
            });
            if let Some(attr) = self.attributes.get_mut(at) {
                attr.profile.observe(value);
            }
            next = at + 1;
        }
        if record.len() == self.attributes.len() {
            return;
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

/// Source profiling as it was before it stopped allocating, kept as the
/// test oracle for [`SourceSchema::observe`] and [`AttributeProfile`]:
/// every observation renders its text with `to_text`, types it with
/// `infer::oracle`, counts it in a `HashMap` histogram and moves the text
/// into the sample map's entry API; every field searches the attribute
/// list by name, and every attribute is looked up in every record for its
/// implicit null. It carries the `Percent` magnitude fix, so `"5 Percent"`
/// adds 5 to the moments on both sides.
#[cfg(test)]
mod oracle {
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::{AttributeProfile, SourceSchema, DEFAULT_SAMPLE_CAP};
    use crate::infer::{self, LexicalType};
    use crate::record::{Record, RecordId, SourceId};
    use crate::value::Value;

    #[derive(Debug, Clone)]
    struct Profile {
        count: u64,
        nulls: u64,
        types: HashMap<LexicalType, u64>,
        sample: Vec<String>,
        sample_set: HashMap<String, u64>,
        sample_cap: usize,
        sample_overflow: bool,
        total_len: u64,
        num_n: u64,
        num_mean: f64,
        num_m2: f64,
        num_min: f64,
        num_max: f64,
    }

    impl Profile {
        fn with_sample_cap(cap: usize) -> Self {
            Profile {
                count: 0,
                nulls: 0,
                types: HashMap::new(),
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

        fn observe(&mut self, v: &Value) {
            self.count += 1;
            let ty = match v {
                Value::Null => LexicalType::Null,
                Value::Bool(_) => LexicalType::Bool,
                Value::Int(_) => LexicalType::Integer,
                Value::Float(_) => LexicalType::Decimal,
                Value::Str(s) => infer::oracle::infer_str(s),
                Value::Array(_) | Value::Doc(_) => LexicalType::Text,
            };
            if ty == LexicalType::Null {
                self.nulls += 1;
                return;
            }
            *self.types.entry(ty).or_insert(0) += 1;
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

        fn dominant_type(&self) -> LexicalType {
            self.types
                .iter()
                .max_by_key(|(ty, n)| (**n, std::cmp::Reverse(**ty)))
                .map(|(ty, _)| *ty)
                .unwrap_or(LexicalType::Null)
        }

        fn merge(&mut self, other: &Profile) {
            self.count += other.count;
            self.nulls += other.nulls;
            self.total_len += other.total_len;
            for (ty, n) in &other.types {
                *self.types.entry(*ty).or_insert(0) += n;
            }
            for v in &other.sample {
                let freq = other.sample_set.get(v).copied().unwrap_or(0);
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

    fn numeric_magnitude(v: &Value, ty: LexicalType) -> Option<f64> {
        let x = match v {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Str(s) => match ty {
                LexicalType::Integer => infer::parse_integer(s).map(|i| i as f64),
                LexicalType::Decimal => infer::parse_decimal(s),
                LexicalType::Money => infer::parse_money(s).map(|m| m.amount),
                LexicalType::Percent => {
                    let t = s.trim().trim_end_matches('%');
                    // The fix: the word in any ASCII case, not just two.
                    let cut = t.len().saturating_sub("percent".len());
                    let t = match t.get(cut..) {
                        Some(w) if w.eq_ignore_ascii_case("percent") => t.get(..cut).unwrap_or(t),
                        _ => t,
                    };
                    infer::parse_decimal(t.trim())
                }
                _ => None,
            },
            _ => None,
        };
        x.filter(|x| x.is_finite())
    }

    /// The old `SourceSchema`: attributes in first-seen order.
    fn profile_records(records: &[Record]) -> (Vec<(String, Profile)>, u64) {
        let mut attributes: Vec<(String, Profile)> = Vec::new();
        let mut record_count = 0u64;
        for record in records {
            record_count += 1;
            for (name, value) in record.iter() {
                match attributes.iter_mut().find(|(a, _)| a == name) {
                    Some((_, profile)) => profile.observe(value),
                    None => {
                        let mut profile = Profile::with_sample_cap(DEFAULT_SAMPLE_CAP);
                        profile.count = record_count - 1;
                        profile.nulls = record_count - 1;
                        profile.observe(value);
                        attributes.push((name.to_owned(), profile));
                    }
                }
            }
            for (name, profile) in &mut attributes {
                if record.get(name).is_none() {
                    profile.observe(&Value::Null);
                }
            }
        }
        (attributes, record_count)
    }

    /// Field for field, with the numeric moments compared bit for bit.
    fn assert_same_profile(got: &AttributeProfile, want: &Profile) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.count, want.count);
        prop_assert_eq!(got.nulls, want.nulls);
        for ty in LexicalType::ALL {
            let n = want.types.get(&ty).copied().unwrap_or(0);
            prop_assert_eq!(got.type_counts[ty as usize], n, "{:?}", ty);
        }
        prop_assert_eq!(got.dominant_type(), want.dominant_type());
        prop_assert_eq!(&got.sample, &want.sample);
        prop_assert_eq!(got.sample_set.len(), want.sample_set.len());
        for v in &want.sample {
            prop_assert_eq!(got.sample_frequency(v), want.sample_set[v], "{:?}", v);
        }
        prop_assert_eq!(got.sample_counts().len(), got.sample_values().len());
        for (v, n) in got.sample_values().iter().zip(got.sample_counts()) {
            prop_assert_eq!(*n, want.sample_set[v], "count of {:?}", v);
        }
        prop_assert_eq!(got.sample_cap, want.sample_cap);
        prop_assert_eq!(got.sample_overflow, want.sample_overflow);
        prop_assert_eq!(got.total_len, want.total_len);
        prop_assert_eq!(got.num_n, want.num_n);
        let bits = |p: [f64; 4]| p.map(f64::to_bits);
        prop_assert_eq!(
            bits([got.num_mean, got.num_m2, got.num_min, got.num_max]),
            bits([want.num_mean, want.num_m2, want.num_min, want.num_max])
        );
        Ok(())
    }

    fn assert_same_schema(records: &[Record]) -> Result<(), TestCaseError> {
        let got = SourceSchema::profile_records(SourceId(7), "s", records);
        let (want, record_count) = profile_records(records);
        prop_assert_eq!(got.record_count, record_count);
        prop_assert_eq!(got.attributes.len(), want.len());
        for (g, (name, w)) in got.attributes.iter().zip(&want) {
            prop_assert_eq!(&g.name, name);
            assert_same_profile(&g.profile, w)?;
        }
        Ok(())
    }

    /// Scalars of every kind: strings from the inference oracle's
    /// adversarial pieces, non-finite floats, and a few repeats so samples
    /// count frequencies.
    fn value() -> impl Strategy<Value = Value> {
        (0..10usize, any::<i64>(), infer::oracle::adversarial()).prop_map(|(kind, i, s)| {
            match kind {
                0 => Value::Null,
                1 => Value::Bool(i & 1 == 1),
                2 => Value::Int(i),
                3 => Value::Int(i % 4),
                4 => Value::Float(
                    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.1, 1e300]
                        [i.unsigned_abs() as usize % 6],
                ),
                5 => Value::Float(i as f64 / 7.0),
                6 => Value::Array(vec![Value::Int(i % 3), Value::from("x")]),
                _ => Value::Str(s),
            }
        })
    }

    const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

    /// A record over a subset of the names, in schema order unless `order`
    /// says to rotate them.
    fn record() -> impl Strategy<Value = Record> {
        (0..64usize, 0..16usize, prop::collection::vec(value(), 6)).prop_map(
            |(mask, order, values)| {
                let mut pairs: Vec<(&str, Value)> = NAMES
                    .iter()
                    .zip(values)
                    .enumerate()
                    .filter(|(k, _)| mask & (1 << k) != 0 || mask == 0 && *k < 3)
                    .map(|(_, (n, v))| (*n, v))
                    .collect();
                if order >= 12 {
                    let by = order % pairs.len().max(1);
                    pairs.rotate_left(by);
                }
                Record::from_pairs(SourceId(7), RecordId(0), pairs)
            },
        )
    }

    #[test]
    fn fixed_sequences_profile_as_the_oracle_does() {
        let r = |pairs: Vec<(&str, Value)>| Record::from_pairs(SourceId(7), RecordId(0), pairs);
        let percents: Vec<Record> = ["5 Percent", "7 PerCent", "9 percent", "11 PERCENT", "3%"]
            .into_iter()
            .map(|p| r(vec![("p", Value::from(p))]))
            .collect();
        // More distinct values than the sample holds.
        let overflow: Vec<Record> =
            (0..300).map(|i| r(vec![("id", Value::Int(i)), ("k", Value::Int(i % 5))])).collect();
        // A late attribute, a missing one, a reordered record.
        let shapes = vec![
            r(vec![("a", Value::Int(1)), ("b", Value::from("x"))]),
            r(vec![("a", Value::Int(2)), ("b", Value::from("y")), ("c", Value::from("$5"))]),
            r(vec![("a", Value::Int(3)), ("c", Value::from("7pm"))]),
            r(vec![("c", Value::from("3/4/2013")), ("b", Value::Null), ("a", Value::Float(0.5))]),
            r(vec![]),
        ];
        for records in [percents, overflow, shapes] {
            if let Err(e) = assert_same_schema(&records) {
                panic!("{e:?}");
            }
        }
    }

    #[test]
    fn merging_into_a_full_sample_counts_as_the_oracle_does() {
        let values = |xs: &[&str]| -> Vec<Value> { xs.iter().map(|x| Value::from(*x)).collect() };
        // The left sample is at its cap of 3; the right one repeats two of
        // its values, in another order, and brings two it has no room for.
        let left = values(&["a", "b", "a", "c", "b", "a"]);
        let right = values(&["c", "d", "a", "e", "c"]);
        let (mut got, mut want) = (AttributeProfile::with_sample_cap(3), Profile::with_sample_cap(3));
        let (mut got_r, mut want_r) = (AttributeProfile::with_sample_cap(3), Profile::with_sample_cap(3));
        for v in &left {
            got.observe(v);
            want.observe(v);
        }
        for v in &right {
            got_r.observe(v);
            want_r.observe(v);
        }
        assert_eq!(got.sample_values().len(), 3);
        got.merge(&got_r);
        want.merge(&want_r);
        if let Err(e) = assert_same_profile(&got, &want) {
            panic!("{e:?}");
        }
        assert_eq!(got.sample_counts(), [4, 2, 3]);
        assert!(got.sample_overflow);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn profile_records_matches_the_oracle(records in prop::collection::vec(record(), 0..60)) {
            assert_same_schema(&records)?;
        }

        #[test]
        fn small_samples_observe_and_merge_as_the_oracle_does(
            left in prop::collection::vec(value(), 0..12),
            right in prop::collection::vec(value(), 0..12),
            cap in 1..6usize,
        ) {
            let (mut got, mut want) = (AttributeProfile::with_sample_cap(cap), Profile::with_sample_cap(cap));
            let (mut got_r, mut want_r) = (AttributeProfile::with_sample_cap(cap), Profile::with_sample_cap(cap));
            for v in &left {
                got.observe(v);
                want.observe(v);
            }
            for v in &right {
                got_r.observe(v);
                want_r.observe(v);
            }
            assert_same_profile(&got_r, &want_r)?;
            got.merge(&got_r);
            want.merge(&want_r);
            assert_same_profile(&got, &want)?;
        }
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
    fn a_value_whose_hash_is_taken_gets_the_next_free_key() {
        // Put "x" under the key of "b", as a hash collision would.
        let mut p = AttributeProfile::with_sample_cap(3);
        let key = fnv1a(b"b");
        p.sample.push("x".into());
        p.counts.push(1);
        p.sample_set.insert(key, 0);
        p.add_to_sample("b", 2);
        p.add_to_sample("b", 3);
        assert_eq!(p.sample_values(), ["x", "b"]);
        assert_eq!(p.sample_counts(), [1, 5]);
        assert_eq!(p.sample_set.get(&key.wrapping_add(1)), Some(&1));
        assert_eq!(p.sample_frequency("b"), 5);
        p.add_to_sample("c", 1);
        p.add_to_sample("d", 1);
        assert_eq!(p.sample_values(), ["x", "b", "c"]);
        assert!(p.sample_overflow);
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
        assert_eq!(p.type_counts[LexicalType::Money as usize], 3);
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
    fn percent_words_in_any_case_add_their_magnitude() {
        let p = profile_of(&[
            Value::from("5 Percent"),
            Value::from("7 PERCENT"),
            Value::from("9 percent"),
            Value::from("11 perCENT"),
        ]);
        assert_eq!(p.dominant_type(), LexicalType::Percent);
        let s = p.numeric_stats().unwrap();
        assert_eq!((s.n, s.min, s.max, s.mean), (4, 5.0, 11.0, 8.0));
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
        assert_eq!(p.type_counts[LexicalType::Decimal as usize], 4, "still typed");
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
