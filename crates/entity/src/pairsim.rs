//! Record-pair similarity scoring: prepare once, score many.
//!
//! Pair scoring is the consolidation hot path — blocking deliberately
//! *grows* the candidate set (progressive fallback) to protect recall, so
//! at paper scale one consolidation run scores millions of pairs, and a
//! record appearing in `k` candidate pairs used to pay its text
//! normalisation (`to_text`, money/decimal parsing, lowercasing, a fresh
//! `Vec<String>` → `HashSet<String>` tokenisation) `k` times over.
//!
//! The module is therefore layered in two:
//!
//! * **Naive scoring** — [`RecordSimilarity::score`] computes everything
//!   from the raw [`Record`]s on every call. It is the *semantic
//!   definition* of pair similarity and the test oracle.
//! * **Prepared scoring** — [`RecordSimilarity::prepare`] runs one pass over the
//!   records and builds a [`ScoringContext`] holding, per record and per
//!   non-null attribute: the interned attribute id, the `as_float` /
//!   numeric-ish parses, the lowercased text (one shared arena), and the
//!   token set as a sorted, deduplicated `Vec<u32>` of ids from a global
//!   [`sim::TokenInterner`]. [`ScoringContext::score_pair`] then does no
//!   per-value normalisation: Jaccard by sorted-slice merge
//!   ([`sim::jaccard_sorted`]), O(1) attribute-weight lookup through a
//!   vector indexed by attribute id, and string work reduced to arena
//!   slices. It allocates nothing on ASCII texts of up to 64 symbols; the
//!   bit-parallel [`sim::jaro()`] takes one scratch vector for a longer
//!   text and decodes non-ASCII text to `char`s. (Jaro used to build four
//!   vectors on every call and scan a quadratic match window; on ~400
//!   character text feeds that was nearly all of the scoring time.)
//!
//! Prepared scores are **bit-identical** to the naive path: preparation
//! only hoists the per-value normalisation (same expressions, same
//! evaluation order); interning changes equality *lookups*, never a float.
//! `tests/prepared_equivalence.rs` pins this property, and the
//! serial-vs-parallel byte-equivalence suite rides on it.
//!
//! ## Accept decisions: bound first, Jaro last
//!
//! Consolidation only needs `score >= threshold`, and most candidate pairs
//! are rejected. [`ScoringContext::accepts`] (what
//! [`ScoringContext::accepted_pairs`] runs) walks the shared fields in
//! the score's order and computes every cheap similarity exactly: numeric
//! fields, equal texts, and texts whose longer side fits one 64-bit word.
//! For each longer text it uses `0.6·1.0 + 0.4·jaccard` in place of
//! `0.6·jaro_winkler + 0.4·jaccard` (the Jaccard term is exact and cheap
//! from the prepared token ids). If that weighted bound is below the
//! threshold the pair is rejected without running Jaro; otherwise the
//! deferred Jaro-Winkler terms are computed and the score is accumulated
//! from the cached per-field values, so no field is scored twice.
//!
//! The bound needs no epsilon. It is summed in the same order as the
//! score, over the same weights, from termwise `>=` values. With weights
//! `>= 0`, IEEE multiplication, addition and division by the (identical)
//! total weight are monotone under rounding, so the rounded bound is never
//! below the rounded score. A negative or NaN weight breaks that, so such
//! a configuration takes the full score; so do records wider than the
//! stack buffer of cached terms. The decision is therefore exactly
//! `score_pair(i, j) >= threshold`, which `tests/prepared_equivalence.rs`
//! pins, including thresholds equal to a pair's score.
//!
//! The context is **growable**: [`ScoringContext::extend`] appends a batch
//! of new records in place — interners, arenas, and weights extend without
//! touching existing entries (token/attr ids are first-seen dense, so
//! growth preserves them), making `prepare(A)` + `extend(B)` structurally
//! identical to `prepare(A∥B)`. This is what lets the incremental
//! consolidator ([`crate::incremental`]) keep one context resident across
//! delta batches instead of re-preparing the corpus per run.

use datatamer_model::{Record, Value};
use datatamer_sim as sim;
use rayon::prelude::*;

/// Weighted per-attribute record similarity.
///
/// Shared attributes compare value-by-value with type-aware measures; the
/// result is the weighted mean over compared attributes. Attributes missing
/// on either side contribute nothing (curated sources are sparse — absence
/// is not evidence of difference).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordSimilarity {
    /// `(attribute, weight)`; attributes not listed get `default_weight`.
    pub weights: Vec<(String, f64)>,
    /// Weight of attributes not explicitly listed.
    pub default_weight: f64,
}

impl Default for RecordSimilarity {
    fn default() -> Self {
        RecordSimilarity { weights: Vec::new(), default_weight: 1.0 }
    }
}

impl RecordSimilarity {
    /// Build with explicit attribute weights.
    pub fn with_weights(weights: Vec<(String, f64)>, default_weight: f64) -> Self {
        RecordSimilarity { weights, default_weight }
    }

    /// A clone of this similarity. It exists only because the `dtbench`
    /// benchmark names it (`BlockedErConfig::scorer.build()`); the library
    /// calls [`RecordSimilarity::prepare`] on the similarity directly.
    pub fn build(&self) -> RecordSimilarity {
        self.clone()
    }

    /// Build a [`ScoringContext`] for `records`: one normalisation pass
    /// (each record visited exactly once), after which any number of pairs
    /// score without re-deriving features. The context owns a clone of
    /// this configuration, so it can stay resident across incremental runs.
    pub fn prepare(&self, records: &[Record]) -> ScoringContext {
        let mut ctx = ScoringContext {
            rs: self.clone(),
            attr_ids: sim::TokenInterner::new(),
            tokens: sim::TokenInterner::new(),
            weights: Vec::new(),
            nonnegative_weights: self.default_weight >= 0.0
                && self.weights.iter().all(|(_, w)| *w >= 0.0),
            records: Vec::new(),
            fields: Vec::new(),
            token_arena: Vec::new(),
            text_arena: String::new(),
            stats: PrepareStats::default(),
        };
        ctx.extend(records);
        ctx
    }

    fn weight_of(&self, attr: &str) -> f64 {
        self.weights
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, w)| *w)
            .unwrap_or(self.default_weight)
    }

    /// Similarity in `[0, 1]`; 0.0 when no attribute is comparable.
    ///
    /// Normalises both sides from scratch on every call; fine for a
    /// handful of pairs, quadratic waste on a candidate set. Batch callers
    /// go through [`RecordSimilarity::prepare`]; this stays as the oracle
    /// the prepared path is pinned against.
    pub fn score(&self, a: &Record, b: &Record) -> f64 {
        let mut total_weight = 0.0;
        let mut acc = 0.0;
        for (attr, va) in a.iter() {
            let Some(vb) = b.get(attr) else { continue };
            if va.is_null() || vb.is_null() {
                continue;
            }
            let w = self.weight_of(attr);
            if w == 0.0 {
                continue;
            }
            acc += w * value_similarity(va, vb);
            total_weight += w;
        }
        if total_weight == 0.0 {
            0.0
        } else {
            acc / total_weight
        }
    }
}

/// Counters from one [`RecordSimilarity::prepare`] pass — the observable proof
/// of its prepare-once contract (each record contributes to `records` and
/// `values` exactly once; scoring never mutates them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrepareStats {
    /// Records visited (always the full input length).
    pub records: usize,
    /// Non-null values normalised.
    pub values: usize,
    /// Distinct attribute names interned.
    pub distinct_attrs: usize,
    /// Distinct tokens interned across every value.
    pub distinct_tokens: usize,
}

/// One record's slice of the prepared-field arena.
///
/// Arena offsets here and in [`PreparedField`] are `usize`: at paper scale
/// (17.7 M fragments of ~400 bytes) the shared arenas pass 4 GiB, where a
/// `u32` offset would wrap and slice the wrong text. Lengths stay `u32`;
/// they count one record's fields or one value's bytes and tokens.
#[derive(Debug, Clone, Copy)]
struct PreparedRecord {
    field_start: usize,
    field_len: u32,
}

/// One non-null attribute value, fully normalised at prepare time.
#[derive(Debug, Clone, Copy)]
struct PreparedField {
    /// Interned attribute id — index into the weights vector.
    attr: u32,
    /// `Value::as_float` (native numerics).
    float: Option<f64>,
    /// [`parse_numericish`] of the text rendering (prices, years).
    numericish: Option<f64>,
    /// Lowercased text rendering: byte range into the shared text arena.
    lo_start: usize,
    lo_len: u32,
    /// Sorted, deduplicated interned token ids: range into the token arena.
    tok_start: usize,
    tok_len: u32,
}

/// One field pair's similarity, held back before the Jaro-Winkler term
/// when that is all that is left to compute.
#[derive(Debug, Clone, Copy)]
enum FieldSim<'a> {
    /// The final similarity.
    Exact(f64),
    /// Two distinct lowercased texts and their (exact) token Jaccard; the
    /// similarity is `0.6 · jaro_winkler + 0.4 · jaccard`.
    Text { la: &'a str, lb: &'a str, jaccard: f64 },
}

impl FieldSim<'_> {
    /// The similarity [`value_similarity`] returns for this field pair.
    fn resolve(self) -> f64 {
        match self {
            FieldSim::Exact(s) => s,
            FieldSim::Text { la, lb, jaccard } => 0.6 * sim::jaro_winkler(la, lb) + 0.4 * jaccard,
        }
    }

    /// An upper bound on [`FieldSim::resolve`]: Jaro-Winkler is at most
    /// 1, and every float operation after it is monotone.
    fn upper(self) -> f64 {
        match self {
            FieldSim::Exact(s) => s,
            FieldSim::Text { jaccard, .. } => 0.6 * 1.0 + 0.4 * jaccard,
        }
    }

    /// Resolve now when the longer text fits one 64-bit word: the
    /// bit-parallel Jaro then costs one word operation per symbol, too
    /// little to be worth deferring.
    fn resolve_if_short(self) -> Self {
        match self {
            FieldSim::Text { la, lb, .. } if la.len().max(lb.len()) <= 64 => {
                FieldSim::Exact(self.resolve())
            }
            other => other,
        }
    }
}

/// Shared weighted fields [`ScoringContext::accepts`] holds on the stack;
/// records with more fields take the full score instead.
const MAX_TERMS: usize = 16;

/// Per-run scoring context built by [`RecordSimilarity::prepare`]: every
/// per-value normalisation the naive path recomputes per pair, hoisted
/// into flat arenas once per record and shared (immutably, hence freely
/// across threads) by every pair scored afterwards. The interners stay
/// live so [`ScoringContext::extend`] can keep assigning consistent
/// first-seen ids to later batches.
#[derive(Debug, Clone)]
pub struct ScoringContext {
    /// The scorer configuration, kept so extension can weight attributes
    /// first seen in a later batch.
    rs: RecordSimilarity,
    /// Attribute-name interner (ids index [`ScoringContext::weights`]).
    attr_ids: sim::TokenInterner,
    /// Value-token interner (ids fill the token arena).
    tokens: sim::TokenInterner,
    /// Attribute weight by interned attribute id — replaces the per-pair
    /// linear scan of `RecordSimilarity::weight_of` with one indexed load.
    weights: Vec<f64>,
    /// Every configured weight is `>= 0` (so not NaN): the precondition
    /// of the accept bound in [`ScoringContext::accepts`].
    nonnegative_weights: bool,
    records: Vec<PreparedRecord>,
    fields: Vec<PreparedField>,
    token_arena: Vec<u32>,
    text_arena: String,
    stats: PrepareStats,
}

impl ScoringContext {
    /// Number of prepared records (pair indexes must stay below this).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records were prepared.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Counters from the prepare pass.
    pub fn stats(&self) -> PrepareStats {
        self.stats
    }

    /// Append a batch of records to the context in place. Every structure
    /// grows strictly by appending and every id already handed out is
    /// preserved (the interners assign dense first-seen ids over the
    /// concatenated stream), so `prepare(A)` followed by `extend(B)`
    /// scores bit-identically to `prepare(A∥B)` — the contract incremental
    /// consolidation rests on, pinned by the incremental equivalence suite.
    pub fn extend(&mut self, new_records: &[Record]) {
        let mut tok_buf: Vec<u32> = Vec::new();
        for r in new_records {
            let field_start = self.fields.len();
            for (attr, v) in r.iter() {
                if v.is_null() {
                    continue;
                }
                let attr_id = self.attr_ids.intern_str(attr);
                if attr_id as usize == self.weights.len() {
                    self.weights.push(self.rs.weight_of(attr));
                }
                let float = v.as_float();
                let text = v.to_text();
                let numericish = parse_numericish(&text);
                let lower = text.to_lowercase();
                tok_buf.clear();
                sim::for_each_token(&lower, |tok| tok_buf.push(self.tokens.intern_str(tok)));
                tok_buf.sort_unstable();
                tok_buf.dedup();
                let tok_start = self.token_arena.len();
                self.token_arena.extend_from_slice(&tok_buf);
                let lo_start = self.text_arena.len();
                self.text_arena.push_str(&lower);
                self.fields.push(PreparedField {
                    attr: attr_id,
                    float,
                    numericish,
                    lo_start,
                    lo_len: lower.len() as u32,
                    tok_start,
                    tok_len: tok_buf.len() as u32,
                });
                self.stats.values += 1;
            }
            self.records.push(PreparedRecord {
                field_start,
                field_len: (self.fields.len() - field_start) as u32,
            });
        }
        self.stats.records = self.records.len();
        self.stats.distinct_attrs = self.attr_ids.len();
        self.stats.distinct_tokens = self.tokens.len();
    }

    fn fields_of(&self, i: usize) -> &[PreparedField] {
        let r = self.records[i];
        &self.fields[r.field_start..r.field_start + r.field_len as usize]
    }

    fn lower_of(&self, f: &PreparedField) -> &str {
        &self.text_arena[f.lo_start..f.lo_start + f.lo_len as usize]
    }

    fn tokens_of(&self, f: &PreparedField) -> &[u32] {
        &self.token_arena[f.tok_start..f.tok_start + f.tok_len as usize]
    }

    /// The blocking sort axis for `attr` — each record's lowercased value,
    /// byte-identical to `Record::get_text(attr).to_lowercase()` but read
    /// from the prepared text arena instead of re-rendering and
    /// re-lowercasing every record. Always `Some`: the `Option` remains
    /// only because the `dtbench` benchmark unwraps it.
    pub fn sort_keys(&self, attr: &str) -> Option<Vec<Option<String>>> {
        Some(self.sort_keys_from(attr, 0))
    }

    /// [`ScoringContext::sort_keys`] restricted to records `start..len` —
    /// the incremental consolidator calls this with the previous corpus
    /// length after an [`ScoringContext::extend`], so growing its resident
    /// sort axis costs O(delta), not O(corpus).
    pub fn sort_keys_from(&self, attr: &str, start: usize) -> Vec<Option<String>> {
        let id = self.attr_ids.get(attr);
        (start..self.records.len())
            .map(|i| {
                let id = id?;
                self.fields_of(i)
                    .iter()
                    .find(|f| f.attr == id)
                    .map(|f| self.lower_of(f).to_owned())
            })
            .collect()
    }

    /// Mirrors [`value_similarity`] over prepared features — same branch
    /// order, same float expressions, hence bit-identical scores — stopping
    /// short of the Jaro-Winkler term so [`ScoringContext::accepts`] can
    /// bound it first.
    fn field_sim<'a>(&'a self, a: &PreparedField, b: &PreparedField) -> FieldSim<'a> {
        if let (Some(x), Some(y)) = (a.float, b.float) {
            return FieldSim::Exact(sim::relative_diff_similarity(x, y));
        }
        if let (Some(x), Some(y)) = (a.numericish, b.numericish) {
            return FieldSim::Exact(sim::relative_diff_similarity(x, y));
        }
        let la = self.lower_of(a);
        let lb = self.lower_of(b);
        if la == lb {
            return FieldSim::Exact(1.0);
        }
        let jaccard = sim::jaccard_sorted(self.tokens_of(a), self.tokens_of(b));
        FieldSim::Text { la, lb, jaccard }
    }

    /// The weighted fields `i` and `j` share, in `i`'s record order: the
    /// walk of [`RecordSimilarity::score`] (accumulation order is part of
    /// the bit-identical contract), matching `j`'s field by interned id and
    /// weighting by indexed lookup.
    fn shared_fields(&self, i: usize, j: usize) -> impl Iterator<Item = (f64, FieldSim<'_>)> {
        let fields_b = self.fields_of(j);
        self.fields_of(i).iter().filter_map(move |fa| {
            let fb = fields_b.iter().find(|f| f.attr == fa.attr)?;
            let w = self.weights[fa.attr as usize];
            (w != 0.0).then(|| (w, self.field_sim(fa, fb)))
        })
    }

    /// Score one prepared pair in `[0, 1]` — bit-identical to
    /// [`RecordSimilarity::score`] on the same records, and allocation-free
    /// for ASCII texts of up to 64 symbols.
    pub fn score_pair(&self, i: usize, j: usize) -> f64 {
        let mut total_weight = 0.0;
        let mut acc = 0.0;
        for (w, s) in self.shared_fields(i, j) {
            acc += w * s.resolve();
            total_weight += w;
        }
        weighted_mean(acc, total_weight)
    }

    /// Whether pair `(i, j)` is accepted at `threshold` — always equal to
    /// `score_pair(i, j) >= threshold`, but a pair whose float-exact score
    /// upper bound is already below `threshold` is rejected without running
    /// Jaro-Winkler on its long texts (see the module docs).
    pub fn accepts(&self, i: usize, j: usize, threshold: f64) -> bool {
        if !self.nonnegative_weights || self.records[i].field_len as usize > MAX_TERMS {
            return self.score_pair(i, j) >= threshold;
        }
        let mut terms = [(0.0, FieldSim::Exact(0.0)); MAX_TERMS];
        let mut n = 0;
        let mut total_weight = 0.0;
        let mut bound = 0.0;
        for (w, s) in self.shared_fields(i, j) {
            let s = s.resolve_if_short();
            bound += w * s.upper();
            total_weight += w;
            terms[n] = (w, s);
            n += 1;
        }
        if weighted_mean(bound, total_weight) < threshold {
            return false;
        }
        let mut acc = 0.0;
        for &(w, s) in &terms[..n] {
            acc += w * s.resolve();
        }
        weighted_mean(acc, total_weight) >= threshold
    }

    /// Decide candidate pairs in parallel and keep the accepted ones, in
    /// one fused pass (order preserved) — no intermediate `Vec<f64>` of
    /// scores is ever materialised.
    pub fn accepted_pairs(&self, pairs: &[(usize, usize)], threshold: f64) -> Vec<(usize, usize)> {
        pairs
            .par_iter()
            .filter_map(|&(i, j)| self.accepts(i, j, threshold).then_some((i, j)))
            .collect()
    }
}

/// `acc / total_weight`, or 0.0 when nothing was comparable.
fn weighted_mean(acc: f64, total_weight: f64) -> f64 {
    if total_weight == 0.0 {
        0.0
    } else {
        acc / total_weight
    }
}

/// Type-aware scalar similarity (the naive, per-call form; the prepared
/// path hoists every normalisation here into [`RecordSimilarity::prepare`]).
pub fn value_similarity(a: &Value, b: &Value) -> f64 {
    if let (Some(x), Some(y)) = (a.as_float(), b.as_float()) { return sim::relative_diff_similarity(x, y) }
    let (ta, tb) = (a.to_text(), b.to_text());
    // Numeric-looking strings (prices, years) compare numerically.
    if let (Some(x), Some(y)) = (parse_numericish(&ta), parse_numericish(&tb)) {
        return sim::relative_diff_similarity(x, y);
    }
    let la = ta.to_lowercase();
    let lb = tb.to_lowercase();
    if la == lb {
        return 1.0;
    }
    // Blend character- and token-level for robustness across lengths.
    let jw = sim::jaro_winkler(&la, &lb);
    let sa: std::collections::HashSet<String> = sim::tokenize(&la).into_iter().collect();
    let sb: std::collections::HashSet<String> = sim::tokenize(&lb).into_iter().collect();
    let jac = sim::jaccard(&sa, &sb);
    0.6 * jw + 0.4 * jac
}

fn parse_numericish(s: &str) -> Option<f64> {
    use datatamer_model::infer;
    if let Some(m) = infer::parse_money(s) {
        return Some(m.amount);
    }
    infer::parse_decimal(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::{RecordId, SourceId};

    fn rec(fields: Vec<(&str, &str)>) -> Record {
        Record::from_pairs(
            SourceId(0),
            RecordId(0),
            fields.into_iter().map(|(k, v)| (k, Value::from(v))).collect(),
        )
    }

    #[test]
    fn identical_records_score_one() {
        let a = rec(vec![("name", "Matilda"), ("price", "$27")]);
        let s = RecordSimilarity::default();
        assert!((s.score(&a, &a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn near_duplicates_score_high_distinct_low() {
        let s = RecordSimilarity::default();
        let a = rec(vec![("name", "Matilda"), ("price", "$27")]);
        let b = rec(vec![("name", "matilda"), ("price", "$28")]);
        let c = rec(vec![("name", "The Lion King"), ("price", "$150")]);
        assert!(s.score(&a, &b) > 0.9, "{}", s.score(&a, &b));
        assert!(s.score(&a, &c) < 0.5, "{}", s.score(&a, &c));
    }

    #[test]
    fn missing_and_null_attributes_are_neutral() {
        let s = RecordSimilarity::default();
        let a = rec(vec![("name", "Matilda"), ("venue", "Shubert")]);
        let mut b = rec(vec![("name", "Matilda")]);
        assert!((s.score(&a, &b) - 1.0).abs() < 1e-9, "venue absent on b is ignored");
        b.set("venue", Value::Null);
        assert!((s.score(&a, &b) - 1.0).abs() < 1e-9, "null venue is ignored");
        let empty = rec(vec![]);
        assert_eq!(s.score(&a, &empty), 0.0, "nothing comparable");
    }

    #[test]
    fn weights_shift_the_score() {
        let a = rec(vec![("name", "Matilda"), ("city", "New York")]);
        let b = rec(vec![("name", "Wicked"), ("city", "New York")]);
        let name_heavy = RecordSimilarity::with_weights(vec![("name".into(), 10.0)], 1.0);
        let city_heavy = RecordSimilarity::with_weights(vec![("city".into(), 10.0)], 1.0);
        assert!(city_heavy.score(&a, &b) > name_heavy.score(&a, &b));
    }

    #[test]
    fn numeric_strings_compare_numerically() {
        assert!(value_similarity(&Value::from("$27"), &Value::from("27 USD")) > 0.99);
        assert!(value_similarity(&Value::from("1900"), &Value::from("1901")) > 0.99);
        assert!(value_similarity(&Value::from("$20"), &Value::from("$200")) < 0.2);
        assert_eq!(value_similarity(&Value::Int(5), &Value::Int(5)), 1.0);
        assert_eq!(value_similarity(&Value::Float(f64::NAN), &Value::Int(0)), 0.0);
    }

    #[test]
    fn prepared_scores_match_naive_on_mixed_values() {
        let records = vec![
            rec(vec![("name", "Matilda the Musical"), ("price", "$27"), ("year", "2013")]),
            rec(vec![("name", "matilda musical"), ("price", "27 USD"), ("year", "2013")]),
            rec(vec![("name", "The Lion King"), ("price", "$150"), ("venue", "Minskoff")]),
            rec(vec![("other", "x")]),
            rec(vec![]),
        ];
        let scorer = RecordSimilarity::with_weights(
            vec![("name".into(), 3.0), ("venue".into(), 0.0)],
            1.0,
        );
        let ctx = scorer.prepare(&records);
        for i in 0..records.len() {
            for j in 0..records.len() {
                let naive = scorer.score(&records[i], &records[j]);
                let prepared = ctx.score_pair(i, j);
                assert_eq!(prepared.to_bits(), naive.to_bits(), "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn batch_scoring_matches_score_pair() {
        let records = vec![
            rec(vec![("name", "Wicked"), ("price", "$99")]),
            rec(vec![("name", "WICKED"), ("price", "$98")]),
            rec(vec![("name", "Annie"), ("price", "$45")]),
        ];
        let scorer = RecordSimilarity::default();
        let pairs = vec![(0, 1), (0, 2), (1, 2)];
        let ctx = scorer.prepare(&records);
        let one_by_one: Vec<(usize, usize)> =
            pairs.iter().copied().filter(|&(i, j)| ctx.score_pair(i, j) >= 0.75).collect();
        assert_eq!(ctx.accepted_pairs(&pairs, 0.75), one_by_one);
        assert_eq!(one_by_one, vec![(0, 1)]);
    }

    #[test]
    fn wide_records_decide_like_the_score() {
        // More shared fields than the cached-term buffer holds, one of
        // them a long text: the decision falls back to the full score.
        let feed = |show: &str| format!("{show} grossed 960,998 at the box office {}", "la ".repeat(30));
        let wide = |show: &str| {
            let mut fields: Vec<(String, String)> =
                (0..MAX_TERMS + 4).map(|k| (format!("attr{k}"), format!("v{}", k % 3))).collect();
            fields.push(("feed".into(), feed(show)));
            Record::from_pairs(
                SourceId(0),
                RecordId(0),
                fields.into_iter().map(|(k, v)| (k, Value::from(v))).collect(),
            )
        };
        let records = vec![wide("matilda"), wide("wicked"), rec(vec![("feed", &feed("annie"))])];
        let scorer = RecordSimilarity::default();
        let ctx = scorer.prepare(&records);
        for i in 0..records.len() {
            for j in 0..records.len() {
                let score = ctx.score_pair(i, j);
                for t in [0.5, score, score.next_up()] {
                    assert_eq!(ctx.accepts(i, j, t), score >= t, "pair ({i},{j}) at {t}");
                }
            }
        }
    }

    #[test]
    fn prepare_stats_count_one_visit_per_record() {
        let mut records = vec![
            rec(vec![("name", "Matilda"), ("price", "$27")]),
            rec(vec![("name", "Annie")]),
            rec(vec![]),
        ];
        records[1].set("venue", Value::Null);
        let scorer = RecordSimilarity::default();
        let ctx = scorer.prepare(&records);
        let stats = ctx.stats();
        assert_eq!(stats.records, 3);
        assert_eq!(stats.values, 3, "nulls and empty records add nothing");
        assert_eq!(stats.distinct_attrs, 2, "name + price (null venue skipped)");
        // Scoring must not re-prepare: stats are immutable after the pass.
        let _ = ctx.accepted_pairs(&[(0, 1), (1, 2), (0, 2)], 0.5);
        assert_eq!(ctx.stats(), stats);
    }
}
