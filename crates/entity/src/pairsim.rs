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
//!   non-null attribute of nonzero weight: the interned attribute id, the
//!   `as_float` / numeric-ish parses, the lowercased text (one shared
//!   arena), and the token set as a sorted, deduplicated `Vec<u32>` of ids
//!   from a global [`sim::TokenInterner`]. [`ScoringContext::score_pair`] then does no
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
//! fields and equal texts. For two distinct texts it uses
//! `0.6·1.0 + 0.4·jaccard` in place of `0.6·jaro_winkler + 0.4·jaccard`
//! (the Jaccard term is exact and cheap from the prepared token ids). If
//! that weighted bound is below the threshold the pair is rejected
//! without running Jaro. Otherwise the deferred Jaro-Winkler terms are
//! computed one at a time, in field order, and the bound is summed again
//! after each with that term exact, so the pair is rejected as soon as
//! the bound falls below the threshold. No field is scored twice, and once
//! every term is exact the bound is the score. Short texts are deferred
//! too: a structured record shares half a dozen short fields (theatre,
//! schedule, phone, website) with another, and the bound rejects most
//! such pairs before the first Jaro.
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
//! ## Weight-0 attributes are never prepared
//!
//! An attribute of weight exactly `0.0` contributes nothing to any score
//! (the naive walk skips it, and so does [`ScoringContext::score_pair`]),
//! so preparation skips its values too: the name is interned, keeping the
//! weights vector indexed by attribute id, but the value is not parsed,
//! lowercased into the arena or tokenised, and no prepared field is kept
//! for it. Scores are unchanged bit for bit. A text feed weighed 0 thus
//! costs the resident state nothing beyond its interned name.
//!
//! The one exception is the blocking key. The incremental consolidator
//! reads its progressive-window sort axis from the context (each record
//! keeps the offset of its key field, so the axis is a range into the
//! text arena), so the context it builds keeps the key attribute's values
//! whatever the key weighs. A context from [`RecordSimilarity::prepare`]
//! has no key, and [`ScoringContext::sort_keys`] answers `None` for an
//! attribute it skipped.
//!
//! ## One pass per record
//!
//! [`ScoringContext::extend`] normalises each record once, in two halves:
//!
//! * **In parallel**, over chunks of records on the rayon team, each value
//!   is rendered (a string is borrowed, not cloned) and gets its float,
//!   its numeric-ish parse (skipped for a text with no ASCII digit, which
//!   `parse_numericish` never accepts; read off the integer for an `Int`),
//!   its lowercase text and that text's tokens (an ASCII text byte by
//!   byte, any other through `to_lowercase` and [`sim::for_each_token`]).
//!   For a consolidator the key value's raw text is tokenised too: those
//!   tokens keep their camelCase splits, so they are a list of their own.
//!   A string or integer that repeats within the chunk (a genre, a
//!   theatre, a price) takes its first occurrence's features. Each chunk writes into buffers it
//!   owns, so no per-value `String` crosses threads.
//! * **In sequence**, chunk after chunk in record order, the attribute
//!   names and both token streams are interned and the arenas appended,
//!   so every id, arena byte and [`PrepareStats`] count is what a
//!   per-value loop gives at any width.
//!
//! The context is **growable**: [`ScoringContext::extend`] appends a batch
//! of new records in place — interners, arenas, and weights extend without
//! touching existing entries (token/attr ids are first-seen dense, so
//! growth preserves them), making `prepare(A)` + `extend(B)` structurally
//! identical to `prepare(A∥B)`. This is what lets the incremental
//! consolidator ([`crate::incremental`]) keep one context resident across
//! delta batches instead of re-preparing the corpus per run.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write;

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
        let mut ctx = self.keyed_context(None);
        ctx.extend(records);
        ctx
    }

    /// An empty [`ScoringContext`] that prepares `key_attr`'s values even
    /// when that attribute weighs 0, so the blocking sort axis can be read
    /// from it (see the module docs).
    pub(crate) fn keyed_context(&self, key_attr: Option<&str>) -> ScoringContext {
        ScoringContext {
            rs: self.clone(),
            key_attr: key_attr.map(str::to_owned),
            attr_ids: sim::TokenInterner::new(),
            tokens: TokenIds::default(),
            weights: Vec::new(),
            nonnegative_weights: self.default_weight >= 0.0
                && self.weights.iter().all(|(_, w)| *w >= 0.0),
            records: Vec::new(),
            fields: Vec::new(),
            token_arena: Vec::new(),
            text_arena: String::new(),
            stats: PrepareStats::default(),
        }
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
    /// Non-null values normalised: those of attributes of nonzero weight,
    /// plus the blocking key's in a consolidator's context. A weight-0
    /// attribute's values are skipped (see the module docs).
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
    /// The blocking key's field, as an offset into the record's fields, or
    /// [`NO_KEY`]: the sort axis is a range into the text arena, not a
    /// second copy. It fills what would be padding.
    key_field: u32,
}

/// [`PreparedRecord::key_field`] of a record with no key value.
const NO_KEY: u32 = u32::MAX;

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

/// Records one task of [`ScoringContext::extend`]'s parallel pass
/// normalises; a delta batch of at most this many records runs inline.
const NORMALISE_CHUNK: usize = 256;

/// The scoring-token and blocking-key-token interners in one map. Each
/// stream gets dense ids in first-seen order of its own, and a key token
/// that is a scoring token too (only camelCase splits tell the streams
/// apart) takes one probe for both ids.
#[derive(Debug, Clone, Default)]
struct TokenIds {
    ids: HashMap<Box<str>, [u32; 2], sim::FnvBuildHasher>,
    /// Ids handed out, per stream.
    len: [u32; 2],
}

/// The streams of [`TokenIds`].
const SCORING: usize = 0;
const KEY: usize = 1;

/// A [`TokenIds`] slot of a stream that has not seen the token.
const UNSEEN: u32 = u32::MAX;

impl TokenIds {
    /// `tok`'s id in each of `streams`, the next id of a stream that has
    /// not seen it.
    fn intern<const N: usize>(&mut self, tok: &str, streams: [usize; N]) -> [u32; N] {
        let len = &mut self.len;
        let mut assign = |slot: &mut [u32; 2]| {
            streams.map(|s| {
                if slot[s] == UNSEEN {
                    slot[s] = len[s];
                    len[s] += 1;
                }
                slot[s]
            })
        };
        if let Some(slot) = self.ids.get_mut(tok) {
            return assign(slot);
        }
        assign(self.ids.entry(tok.into()).or_insert([UNSEEN; 2]))
    }
}

/// Each record's distinct blocking-key token ids from one
/// [`ScoringContext::extend_keyed`], ascending: the ids
/// `blocking::distinct_token_ids` interns from `record.get_text(key)`.
/// They come from the raw text, which keeps the camelCase splits the
/// lowercased scoring tokens lose, so they are a stream of their own.
#[derive(Debug, Default)]
pub(crate) struct KeyTokens {
    ids: Vec<u32>,
    /// One past each record's last id in `ids`.
    ends: Vec<usize>,
}

impl KeyTokens {
    /// Each record's ids, in batch order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(a, &b)| &self.ids[a..b])
    }
}

/// One chunk of records normalised by one task, into buffers the chunk
/// owns, so no per-value `String` crosses threads.
#[derive(Debug, Default)]
struct Normalised<'r> {
    /// The distinct names of the chunk's non-null fields in first-seen
    /// order (interning them in this order assigns the ids interning every
    /// field's name would), each with whether its values are prepared: a
    /// weight-0 attribute other than the key is only interned.
    attrs: Vec<(&'r str, bool)>,
    /// Each record's number of prepared fields.
    record_fields: Vec<u32>,
    /// Every prepared field, in record order.
    fields: Vec<NormalisedField>,
    /// The prepared fields' lowercased texts, concatenated.
    lower: String,
    /// Every token, concatenated: each prepared field's scoring tokens,
    /// then, for a key field whose key tokens differ, its key tokens.
    token_text: String,
    /// One past each token's last byte in `token_text`.
    token_ends: Vec<usize>,
}

/// A value whose features a chunk computes once: a string's depend on
/// its text alone, an integer's on the integer.
#[derive(Debug, PartialEq, Eq, Hash)]
enum Repeatable<'r> {
    Str(&'r str),
    Int(i64),
}

/// One prepared field's features before interning.
#[derive(Debug)]
struct NormalisedField {
    /// Index into [`Normalised::attrs`].
    attr: u32,
    key: bool,
    /// The field of the chunk whose value this one repeats: its tokens
    /// are that field's, so none are kept for this one.
    repeats: Option<u32>,
    float: Option<f64>,
    numericish: Option<f64>,
    /// Byte range in [`Normalised::lower`].
    lo_start: usize,
    lo_len: u32,
    /// How many scoring tokens the field added to
    /// [`Normalised::token_ends`], and, for a key field, how many key
    /// tokens after them; `None` when those are the scoring tokens.
    tokens: u32,
    key_tokens: Option<u32>,
}

impl<'r> Normalised<'r> {
    fn of(records: &[&'r Record], rs: &RecordSimilarity, key_attr: Option<&str>) -> Self {
        let mut out = Normalised::default();
        let mut attr_ids: HashMap<&str, u32, sim::FnvBuildHasher> = HashMap::default();
        let mut seen: HashMap<Repeatable<'_>, u32, sim::FnvBuildHasher> = HashMap::default();
        let mut rendered = String::new();
        for r in records {
            let before = out.fields.len();
            for (attr, v) in r.iter() {
                if v.is_null() {
                    continue;
                }
                let is_key = key_attr == Some(attr);
                let local = *attr_ids.entry(attr).or_insert_with(|| {
                    out.attrs.push((attr, is_key || rs.weight_of(attr) != 0.0));
                    (out.attrs.len() - 1) as u32
                });
                if !out.attrs[local as usize].1 {
                    continue;
                }
                // A repeated string or integer has the features of its
                // first occurrence in the chunk, whose tokens the sequential
                // half will have interned already.
                let repeatable = match v {
                    Value::Str(s) if !is_key => Some(Repeatable::Str(s)),
                    Value::Int(i) if !is_key => Some(Repeatable::Int(*i)),
                    _ => None,
                };
                if let Some(value) = repeatable {
                    match seen.entry(value) {
                        Entry::Occupied(first) => {
                            out.repeat(local, *first.get());
                            continue;
                        }
                        Entry::Vacant(slot) => {
                            slot.insert(out.fields.len() as u32);
                        }
                    }
                }
                let text = match v {
                    Value::Str(s) => s.as_str(),
                    other => {
                        rendered.clear();
                        let _ = write!(rendered, "{other}");
                        rendered.as_str()
                    }
                };
                let numericish = match *v {
                    // What `parse_numericish` reads from an integer's
                    // digits; the one it cannot, `i64::MIN`, overflows.
                    Value::Int(i) => (i != i64::MIN).then_some(i as f64),
                    // It accepts nothing without an ASCII digit.
                    _ if !text.bytes().any(|b| b.is_ascii_digit()) => None,
                    _ => parse_numericish(text),
                };
                let (lo_start, tokens) = (out.lower.len(), out.token_ends.len());
                let raw_differs = out.lower_and_tokens(text);
                let scoring = out.token_ends.len() - tokens;
                let key_tokens = if is_key && raw_differs {
                    out.key_tokens(text, lo_start, tokens)
                } else {
                    None
                };
                out.fields.push(NormalisedField {
                    attr: local,
                    key: is_key,
                    repeats: None,
                    float: v.as_float(),
                    numericish,
                    lo_start,
                    lo_len: (out.lower.len() - lo_start) as u32,
                    tokens: scoring as u32,
                    key_tokens,
                });
            }
            out.record_fields.push((out.fields.len() - before) as u32);
        }
        out
    }

    /// Appends a field of attribute `attr` whose value repeats that of
    /// field `k` of the chunk, a non-key field too.
    fn repeat(&mut self, attr: u32, k: u32) {
        let first = &self.fields[k as usize];
        let (lo_len, float, numericish) = (first.lo_len, first.float, first.numericish);
        let lo_start = self.lower.len();
        self.lower.extend_from_within(first.lo_start..first.lo_start + lo_len as usize);
        self.fields.push(NormalisedField {
            attr,
            key: false,
            repeats: Some(k),
            float,
            numericish,
            lo_start,
            lo_len,
            tokens: 0,
            key_tokens: None,
        });
    }

    /// Appends the tokens of the key value `text`, whose lowercase form
    /// starts at `lo_start` and whose scoring tokens at token `tokens`, and
    /// returns how many; `None`, appending nothing, when they are its
    /// scoring tokens.
    fn key_tokens(&mut self, text: &str, lo_start: usize, tokens: usize) -> Option<u32> {
        let (token_text, ends) = (&mut self.token_text, &mut self.token_ends);
        let (text_at, key_start) = (token_text.len(), ends.len());
        let push = |tok: &str| {
            token_text.push_str(tok);
            ends.push(token_text.len());
        };
        if text.is_ascii() {
            ascii_tokens(text, &self.lower[lo_start..], true, push);
        } else {
            sim::for_each_token(text, push);
        }
        let n = ends.len() - key_start;
        let same = (0..n).all(|k| self.token(tokens + k) == self.token(key_start + k));
        if n == key_start - tokens && same {
            self.token_text.truncate(text_at);
            self.token_ends.truncate(key_start);
            return None;
        }
        Some(n as u32)
    }

    /// Appends `text.to_lowercase()` and its tokens, as
    /// [`sim::for_each_token`] splits it. Returns whether `text` itself
    /// may split into other tokens: it has a camelCase break, or is not
    /// ASCII.
    fn lower_and_tokens(&mut self, text: &str) -> bool {
        let (token_text, ends) = (&mut self.token_text, &mut self.token_ends);
        let push = |tok: &str| {
            token_text.push_str(tok);
            ends.push(token_text.len());
        };
        if text.is_ascii() {
            let start = self.lower.len();
            self.lower.push_str(text);
            self.lower[start..].make_ascii_lowercase();
            // A lowercase text has no camelCase break.
            ascii_tokens(text, &self.lower[start..], false, push)
        } else {
            let lower = text.to_lowercase();
            sim::for_each_token(&lower, push);
            self.lower.push_str(&lower);
            true
        }
    }

    /// Token `k` of the chunk.
    fn token(&self, k: usize) -> &str {
        let start = if k == 0 { 0 } else { self.token_ends[k - 1] };
        &self.token_text[start..self.token_ends[k]]
    }
}

/// The tokens [`sim::for_each_token`] lends for the ASCII text `raw`,
/// sliced from `lower`, its lowercase form (ASCII lowercases byte for
/// byte), and split at camelCase breaks only when `camel`. Returns whether
/// `raw` has such a break.
fn ascii_tokens(raw: &str, lower: &str, camel: bool, mut f: impl FnMut(&str)) -> bool {
    let (mut open, mut prev_lower, mut saw_break) = (None, false, false);
    for (k, b) in raw.bytes().enumerate() {
        let is_word = b.is_ascii_alphanumeric();
        let camel_break = b.is_ascii_uppercase() && prev_lower;
        saw_break |= camel_break;
        if let Some(start) = open.filter(|_| !is_word || (camel && camel_break)) {
            f(&lower[start..k]);
            open = None;
        }
        if is_word && open.is_none() {
            open = Some(k);
        }
        prev_lower = b.is_ascii_lowercase() || b.is_ascii_digit();
    }
    if let Some(start) = open {
        f(&lower[start..]);
    }
    saw_break
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
    /// The blocking key attribute, prepared even at weight 0; `None` for a
    /// context from [`RecordSimilarity::prepare`].
    key_attr: Option<String>,
    /// Attribute-name interner (ids index [`ScoringContext::weights`]).
    attr_ids: sim::TokenInterner,
    /// Value-token interner (scoring ids fill the token arena; key ids
    /// name a consolidator's blocking buckets).
    tokens: TokenIds,
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
    /// The batch is any sequence of records, so segments held apart extend
    /// in one call.
    pub fn extend<'a>(&mut self, new_records: impl IntoIterator<Item = &'a Record>) {
        let records: Vec<&Record> = new_records.into_iter().collect();
        self.extend_keyed(&records);
    }

    /// [`ScoringContext::extend`], returning each new record's
    /// blocking-key token ids (see [`KeyTokens`]; none without a key).
    /// This is the one pass (see the module docs): every record is
    /// normalised in parallel chunks, then the chunks' tokens are interned
    /// and their features appended in record order.
    pub(crate) fn extend_keyed(&mut self, records: &[&Record]) -> KeyTokens {
        let key_attr = self.key_attr.as_deref();
        let chunks: Vec<Normalised<'_>> = (0..records.len().div_ceil(NORMALISE_CHUNK))
            .into_par_iter()
            .map(|c| {
                let end = records.len().min((c + 1) * NORMALISE_CHUNK);
                Normalised::of(&records[c * NORMALISE_CHUNK..end], &self.rs, key_attr)
            })
            .collect();
        self.records.reserve(records.len());
        self.fields.reserve(chunks.iter().map(|c| c.fields.len()).sum());
        self.text_arena.reserve(chunks.iter().map(|c| c.lower.len()).sum());
        self.token_arena.reserve(chunks.iter().map(|c| c.token_ends.len()).sum());
        let mut keys = KeyTokens::default();
        for chunk in &chunks {
            self.append(chunk, &mut keys);
        }
        self.stats.records = self.records.len();
        self.stats.distinct_attrs = self.attr_ids.len();
        self.stats.distinct_tokens = self.tokens.len[SCORING] as usize;
        keys
    }

    /// The sequential half of the pass: interns one chunk's attribute
    /// names and both token streams in record order, and appends its
    /// features.
    fn append(&mut self, chunk: &Normalised<'_>, keys: &mut KeyTokens) {
        let attrs: Vec<u32> = chunk
            .attrs
            .iter()
            .map(|&(attr, _)| {
                let id = self.attr_ids.intern_str(attr);
                if id as usize == self.weights.len() {
                    self.weights.push(self.rs.weight_of(attr));
                }
                id
            })
            .collect();
        let (lower_at, chunk_fields) = (self.text_arena.len(), self.fields.len());
        self.text_arena.push_str(&chunk.lower);
        let (mut tok_buf, mut key_buf): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        let (mut fields, mut token) = (chunk.fields.iter(), 0);
        for &n in &chunk.record_fields {
            let field_start = self.fields.len();
            let mut key_field = NO_KEY;
            for f in fields.by_ref().take(n as usize) {
                let tok_start = self.token_arena.len();
                if let Some(k) = f.repeats {
                    let first = self.fields[chunk_fields + k as usize];
                    let first_tokens = first.tok_start..first.tok_start + first.tok_len as usize;
                    self.token_arena.extend_from_within(first_tokens);
                } else {
                    tok_buf.clear();
                    key_buf.clear();
                    let both = f.key && f.key_tokens.is_none();
                    for k in token..token + f.tokens as usize {
                        if both {
                            let [id, key_id] = self.tokens.intern(chunk.token(k), [SCORING, KEY]);
                            tok_buf.push(id);
                            key_buf.push(key_id);
                        } else {
                            tok_buf.extend(self.tokens.intern(chunk.token(k), [SCORING]));
                        }
                    }
                    token += f.tokens as usize;
                    for k in token..token + f.key_tokens.unwrap_or(0) as usize {
                        key_buf.extend(self.tokens.intern(chunk.token(k), [KEY]));
                    }
                    token += f.key_tokens.unwrap_or(0) as usize;
                    tok_buf.sort_unstable();
                    tok_buf.dedup();
                    self.token_arena.extend_from_slice(&tok_buf);
                }
                if f.key {
                    key_field = (self.fields.len() - field_start) as u32;
                    key_buf.sort_unstable();
                    key_buf.dedup();
                    keys.ids.extend_from_slice(&key_buf);
                }
                self.fields.push(PreparedField {
                    attr: attrs[f.attr as usize],
                    float: f.float,
                    numericish: f.numericish,
                    lo_start: lower_at + f.lo_start,
                    lo_len: f.lo_len,
                    tok_start,
                    tok_len: (self.token_arena.len() - tok_start) as u32,
                });
                self.stats.values += 1;
            }
            self.records.push(PreparedRecord {
                field_start,
                field_len: (self.fields.len() - field_start) as u32,
                key_field,
            });
            keys.ends.push(keys.ids.len());
        }
    }

    fn is_key(&self, attr: &str) -> bool {
        self.key_attr.as_deref() == Some(attr)
    }

    fn fields_of(&self, i: usize) -> &[PreparedField] {
        let r = self.records[i];
        &self.fields[r.field_start..r.field_start + r.field_len as usize]
    }

    /// Record `i`'s lowercased blocking key, read in place from the text
    /// arena: the progressive windows' sort axis. `None` when the record
    /// has no key value or the context no key.
    pub(crate) fn key_text(&self, i: usize) -> Option<&str> {
        let r = self.records[i];
        let field = self.fields.get(r.field_start + r.key_field as usize);
        field.filter(|_| r.key_field != NO_KEY).map(|f| self.lower_of(f))
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
    /// re-lowercasing every record. `None` when the context skipped `attr`:
    /// it weighs 0 and is not the context's blocking key, so its values
    /// were never prepared.
    pub fn sort_keys(&self, attr: &str) -> Option<Vec<Option<String>>> {
        let prepared = self.rs.weight_of(attr) != 0.0 || self.is_key(attr);
        prepared.then(|| self.sort_keys_from(attr, 0))
    }

    /// [`ScoringContext::sort_keys`] restricted to records `start..len`,
    /// copied out of the text arena. For an attribute the context skipped,
    /// every key is `None`.
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
    /// `score_pair(i, j) >= threshold`, but Jaro-Winkler terms run one at
    /// a time, and the pair is rejected as soon as its float-exact score
    /// upper bound falls below `threshold` (see the module docs).
    pub fn accepts(&self, i: usize, j: usize, threshold: f64) -> bool {
        if !self.nonnegative_weights || self.records[i].field_len as usize > MAX_TERMS {
            return self.score_pair(i, j) >= threshold;
        }
        let mut terms = [(0.0, FieldSim::Exact(0.0)); MAX_TERMS];
        let mut n = 0;
        let mut total_weight = 0.0;
        for (w, s) in self.shared_fields(i, j) {
            total_weight += w;
            terms[n] = (w, s);
            n += 1;
        }
        let terms = &mut terms[..n];
        // The weighted mean with every unresolved term at its upper bound.
        let bound = |terms: &[(f64, FieldSim<'_>)]| {
            let mut acc = 0.0;
            for &(w, s) in terms {
                acc += w * s.upper();
            }
            weighted_mean(acc, total_weight)
        };
        if bound(terms) < threshold {
            return false;
        }
        for k in 0..n {
            let (_, s) = terms[k];
            if let FieldSim::Text { .. } = s {
                terms[k].1 = FieldSim::Exact(s.resolve());
                if bound(terms) < threshold {
                    return false;
                }
            }
        }
        true
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
mod one_pass_tests;

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
    fn a_weight_zero_attribute_is_never_prepared() {
        // Every record gains a weight-0 `feed` whose tokens appear nowhere
        // else: preparing it would intern new tokens and count its values.
        let records = vec![
            rec(vec![("name", "Matilda"), ("price", "$27")]),
            rec(vec![("name", "matilda"), ("price", "27 USD"), ("venue", "Shubert")]),
            rec(vec![("name", "Wicked"), ("venue", "Gershwin")]),
            rec(vec![]),
        ];
        let with_feed: Vec<Record> = records
            .iter()
            .enumerate()
            .map(|(k, r)| {
                let mut r = r.clone();
                r.set("feed", Value::from(format!("zq{k}a zq{k}b grossed 960,998")));
                r
            })
            .collect();
        let scorer = RecordSimilarity::with_weights(vec![("feed".into(), 0.0)], 1.0);
        let plain = scorer.prepare(&records);
        let ctx = scorer.prepare(&with_feed);

        assert_eq!(ctx.stats().distinct_tokens, plain.stats().distinct_tokens);
        assert_eq!(ctx.stats().values, plain.stats().values, "feed values are not counted");
        let interned = plain.stats().distinct_attrs + 1;
        assert_eq!(ctx.stats().distinct_attrs, interned, "the name is interned");
        for i in 0..records.len() {
            for j in 0..records.len() {
                let score = ctx.score_pair(i, j);
                assert_eq!(score.to_bits(), plain.score_pair(i, j).to_bits(), "pair ({i},{j})");
                assert_eq!(score.to_bits(), scorer.score(&with_feed[i], &with_feed[j]).to_bits());
            }
        }
        assert_eq!(ctx.sort_keys("feed"), None, "a skipped attribute has no sort axis");
        assert!(ctx.sort_keys("name").is_some());

        // As a blocking key, the same attribute is prepared.
        let mut keyed = scorer.keyed_context(Some("feed"));
        keyed.extend(&with_feed);
        let expected: Vec<Option<String>> =
            with_feed.iter().map(|r| r.get_text("feed").map(|k| k.to_lowercase())).collect();
        assert_eq!(keyed.sort_keys("feed"), Some(expected));
        assert_eq!(keyed.stats().values, plain.stats().values + with_feed.len());
        for i in 0..records.len() {
            for j in 0..records.len() {
                assert_eq!(keyed.score_pair(i, j).to_bits(), plain.score_pair(i, j).to_bits());
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
