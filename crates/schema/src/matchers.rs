//! The attribute matcher: Data Tamer's ensemble of heuristic "experts".
//!
//! Four signals score a `(source attribute, global attribute)` pair in
//! `[0, 1]`: the names (Jaro-Winkler blended with synonym-aware token
//! similarity), the overlap of the sampled values (weighted Jaccard), the
//! value distribution (lexical type plus numeric or length shape) and the
//! TF-IDF cosine of the value bags. [`score`] blends them into the
//! "heuristic matching scores" the paper's Figs 2–3 display next to each
//! suggested match target.
//!
//! **What is prepared, and when.** Everything a signal reads from one
//! attribute is prepared once into an [`AttrFeatures`]: the name as written
//! (interned), lowercased and split into tokens, the lowercased sampled
//! values with their counts as a sorted vector, the TF-IDF vector of the
//! value bag (the sampled values joined by spaces), whether that bag is
//! empty, and the dominant type, numeric stats and mean length. The global
//! side is a [`Fit`] that the integrator carries from call to call.
//!
//! A call reads its source once ([`Fit::read_source`]): each sampled value
//! is tokenised once and its tokens are interned into the fit's vocabulary,
//! and each value's token ids are kept in per-call scratch
//! ([`SourceTokens`]). Tokens new to the vocabulary are sorted among
//! themselves and merged into the token order, and every global TF-IDF
//! vector is re-keyed to the new ranks (the remap keeps its order).
//! Each source attribute is then prepared from its ids: its TF-IDF vector
//! sorts ranks, not strings. A token in no global bag has document
//! frequency 0: it weighs in the norm and is left out of the vector.
//!
//! When the call ends, [`Fit::update`] folds in the global attributes it
//! mapped onto or added. A global sample is capped and append-only, and the
//! values a merge appends are a subsequence of the claimed source
//! attribute's sample, so the new values take that attribute's token ids
//! from the scratch instead of being tokenised again. Their tokens are
//! merged into the attribute's term counts and into one document-frequency
//! table over the whole schema, and the attribute's value counts (read by
//! sample index) and distribution stats are refreshed. The update then
//! re-weights every global TF-IDF vector from its carried counts under the
//! new IDF. The name signal is a function of the two names as written, so
//! [`NameSignals`] computes it once per pair of interned names; scoring a
//! pair otherwise merge-walks sorted vectors.
//!
//! **Why it is exact.** Tokenising the space-joined sample yields the
//! concatenation of the per-value tokenisations (the space ends a token and
//! resets the camel-case state), so the carried counts and a source
//! attribute's ids are the bag's token multiset. TF-IDF vectors are keyed
//! by a token's rank in the sorted vocabulary: they stay in token order, so
//! norms and dot products accumulate in the order the string-keyed
//! computation used, whatever else the vocabulary holds. Every signal
//! accumulates over sorted keys, and a product of two terms has the same
//! bits in either operand order. The name memo is keyed by the names as
//! written, not lowercased: `showName` and `showname` lowercase alike but
//! tokenise differently. Two oracles pin this: `oracle::Matcher::fit`
//! refits everything from the schema as found, and the carried fit must
//! equal it bit for bit after every call, with TF-IDF entries compared by
//! token text (`integrate::tests`); its scores must equal the map-based
//! computation from the raw profiles
//! (`tests::prepared_scores_are_bit_identical_to_the_profile_oracle`).

use std::collections::HashMap;
use std::hash::Hasher;
use std::ops::Range;

use datatamer_model::schema::NumericStats;
use datatamer_model::{AttrId, AttributeDef, AttributeProfile, LexicalType, SourceSchema};
use datatamer_sim as sim;

use crate::global::GlobalSchema;
use crate::synonyms::SynonymDict;

/// The name-led blend's share of the composite: the name weight plus half
/// the distribution weight, over the sum of the name (0.42), value-overlap
/// (0.22), distribution (0.16) and TF-IDF (0.20) weights.
const NAME_SHARE: f64 = (0.42 + 0.16 / 2.0) / (0.42 + 0.22 + 0.16 + 0.20);
const CONTENT_SHARE: f64 = 1.0 - NAME_SHARE;

/// One attribute as the four signals read it.
#[derive(Debug)]
pub(crate) struct AttrFeatures {
    /// The name as written, interned: what [`NameSignals`] is keyed by.
    name_id: u32,
    /// The name, lowercased.
    name: String,
    /// The name's word tokens.
    name_tokens: Vec<String>,
    /// Lowercased sampled value → its count, sorted by [`ValueKey`]. When
    /// two sampled values lowercase alike, the later one's count is kept.
    values: Vec<(ValueKey, f64)>,
    /// TF-IDF vector of the value bag, keyed by vocabulary rank (so in
    /// token order). A token in no global bag is left out; it still counts
    /// toward the norm.
    tfidf: Vec<(u32, f64)>,
    /// The value bag is the empty string.
    empty_bag: bool,
    dominant: LexicalType,
    numeric: Option<NumericStats>,
    mean_len: f64,
}

impl AttrFeatures {
    /// Features of an attribute with no profile read yet.
    fn named(name: &str, name_id: u32) -> Self {
        AttrFeatures {
            name_id,
            name: name.to_lowercase(),
            name_tokens: sim::tokenize(name),
            values: Vec::new(),
            tfidf: Vec::new(),
            empty_bag: true,
            dominant: LexicalType::Null,
            numeric: None,
            mean_len: 0.0,
        }
    }

    /// Features of an attribute read afresh from its profile, with the
    /// given TF-IDF vector.
    fn from_profile(
        name: &str,
        name_id: u32,
        profile: &AttributeProfile,
        tfidf: Vec<(u32, f64)>,
    ) -> Self {
        let mut values: Vec<(ValueKey, f64)> = profile
            .sample_values()
            .iter()
            .zip(profile.sample_counts())
            .map(|(v, &n)| (value_key(v), n as f64))
            .collect();
        // A stable sort keeps lowercase collisions in sample order, so the
        // later one's count survives, as a later map insert would.
        values.sort_by(|x, y| x.0.cmp(&y.0));
        values.dedup_by(|later, kept| {
            let collide = later.0 == kept.0;
            if collide {
                kept.1 = later.1;
            }
            collide
        });
        let mut features = AttrFeatures { values, tfidf, ..AttrFeatures::named(name, name_id) };
        features.read_distribution(profile);
        features
    }

    /// Refresh what is read from the profile as a whole: whether the bag
    /// is empty, and the distribution stats.
    fn read_distribution(&mut self, profile: &AttributeProfile) {
        // `join(" ")` is empty only for no values or one empty value.
        self.empty_bag = match profile.sample_values() {
            [] => true,
            [only] => only.is_empty(),
            _ => false,
        };
        self.dominant = profile.dominant_type();
        self.numeric = profile.numeric_stats();
        self.mean_len = profile.mean_len();
    }
}

/// A lowercased sampled value as value overlap orders it: by the FNV hash
/// of its text first, so a comparison rarely reads the text, then by the
/// text.
type ValueKey = (u64, String);

fn value_key(value: &str) -> ValueKey {
    let lower = value.to_lowercase();
    let mut hasher = sim::FnvHasher::default();
    hasher.write(lower.as_bytes());
    (hasher.finish(), lower)
}

/// Every token the fit has read: interned ids, how many global value bags
/// hold each (0 for a token only sources held), and each one's rank in
/// token order.
#[derive(Debug)]
struct Vocabulary {
    ids: sim::TokenInterner,
    /// Token text, by id.
    text: Vec<String>,
    /// Number of global value bags holding the token, by id.
    df: Vec<usize>,
    /// Ids in token order.
    sorted: Vec<u32>,
    /// Position in `sorted`, by id.
    rank: Vec<u32>,
    /// IDF by document frequency, for the current number of global
    /// attributes.
    idf: Vec<f64>,
}

impl Default for Vocabulary {
    fn default() -> Self {
        Vocabulary {
            ids: sim::TokenInterner::new(),
            text: Vec::new(),
            df: Vec::new(),
            sorted: Vec::new(),
            rank: Vec::new(),
            idf: vec![sim::idf(0, 0)],
        }
    }
}

impl Vocabulary {
    fn intern(&mut self, token: &str) -> u32 {
        let id = self.ids.intern_str(token);
        if id as usize == self.text.len() {
            self.text.push(token.to_owned());
            self.df.push(0);
        }
        id
    }

    /// Document frequency of the token at `rank`.
    fn df_at(&self, rank: u32) -> usize {
        self.df[self.sorted[rank as usize] as usize]
    }

    /// Rank the tokens interned since the last call: sort only those, and
    /// merge them into the ranked ones. Returns whether there were any.
    fn rank_new_tokens(&mut self) -> bool {
        let ranked = self.sorted.len();
        if ranked == self.text.len() {
            return false;
        }
        let text = &self.text;
        let mut new: Vec<u32> = (ranked as u32..text.len() as u32).collect();
        new.sort_unstable_by(|a, b| text[*a as usize].cmp(&text[*b as usize]));
        let mut merged = Vec::with_capacity(text.len());
        let mut old = std::mem::take(&mut self.sorted).into_iter().peekable();
        let mut new = new.into_iter().peekable();
        // Interned tokens are distinct, so no two compare equal.
        while let (Some(&a), Some(&b)) = (old.peek(), new.peek()) {
            if text[b as usize] < text[a as usize] {
                merged.push(b);
                new.next();
            } else {
                merged.push(a);
                old.next();
            }
        }
        merged.extend(old);
        merged.extend(new);
        self.sorted = merged;
        self.rank.resize(text.len(), 0);
        for (rank, &id) in self.sorted.iter().enumerate() {
            self.rank[id as usize] = rank as u32;
        }
        true
    }
}

/// One source's sampled values as token ids, read once per call and
/// dropped with it: what preparing its attributes and folding them into
/// the fit both read.
#[derive(Debug, Default)]
pub(crate) struct SourceTokens {
    /// Token ids of every sampled value, value after value, attribute after
    /// attribute.
    ids: Vec<u32>,
    /// Each sampled value's span of `ids`.
    values: Vec<Range<usize>>,
    /// Each attribute's span of `values`.
    attrs: Vec<Range<usize>>,
}

impl SourceTokens {
    /// The token ids of attribute `attr`'s sampled values, in sample order.
    fn values_of(&self, attr: usize) -> impl Iterator<Item = &[u32]> {
        let spans = self.attrs.get(attr).and_then(|a| self.values.get(a.clone()));
        spans
            .unwrap_or_default()
            .iter()
            .map(|span| self.ids.get(span.clone()).unwrap_or_default())
    }

    /// Every token id of attribute `attr`'s value bag.
    fn bag_of(&self, attr: usize) -> &[u32] {
        let span = self.attrs.get(attr).and_then(|a| {
            let first = self.values.get(a.start)?;
            let last = self.values.get(a.end.checked_sub(1)?)?;
            Some(first.start..last.end)
        });
        span.and_then(|span| self.ids.get(span)).unwrap_or_default()
    }
}

/// How one global attribute's features were last brought up to date.
#[derive(Debug, Default)]
struct Carried {
    /// Sample values already folded in.
    folded: usize,
    /// For each entry of the features' `values`, the sample index whose
    /// count it carries: the latest value that lowercases to it.
    value_src: Vec<usize>,
    /// `(token id, occurrences)` over the value bag, in token order. The
    /// features' TF-IDF vector has one entry per term, in the same order.
    terms: Vec<(u32, usize)>,
}

/// The matcher's fit of the global schema, carried from call to call: the
/// vocabulary of every value the fit has read, the interned attribute
/// names, and the features of every global attribute, in schema order.
#[derive(Debug, Default)]
pub(crate) struct Fit {
    vocab: Vocabulary,
    /// Attribute names as written, global and source alike.
    names: sim::TokenInterner,
    features: Vec<AttrFeatures>,
    carried: Vec<Carried>,
}

impl Fit {
    /// Features of every global attribute, in schema order.
    pub(crate) fn features(&self) -> &[AttrFeatures] {
        &self.features
    }

    /// Read `source` against the fit as it stands: tokenise each sampled
    /// value once, admit its tokens to the vocabulary (in no global bag
    /// yet), re-key the global TF-IDF vectors to the new ranks, and prepare
    /// every attribute. Admitting tokens changes no score.
    pub(crate) fn read_source(
        &mut self,
        source: &SourceSchema,
    ) -> (SourceTokens, Vec<AttrFeatures>) {
        let mut tokens = SourceTokens::default();
        for attr in &source.attributes {
            let first = tokens.values.len();
            for value in attr.profile.sample_values() {
                let start = tokens.ids.len();
                sim::for_each_token(value, |t| tokens.ids.push(self.vocab.intern(t)));
                tokens.values.push(start..tokens.ids.len());
            }
            tokens.attrs.push(first..tokens.values.len());
        }
        if self.vocab.rank_new_tokens() {
            let rank = &self.vocab.rank;
            for (features, carried) in self.features.iter_mut().zip(&self.carried) {
                for (entry, &(id, _)) in features.tfidf.iter_mut().zip(&carried.terms) {
                    entry.0 = rank[id as usize];
                }
            }
        }
        let mut prepared = Vec::with_capacity(source.attributes.len());
        for (i, attr) in source.attributes.iter().enumerate() {
            prepared.push(self.prepare(attr, tokens.bag_of(i)));
        }
        (tokens, prepared)
    }

    /// Prepare a source attribute whose value bag is `bag`, every token of
    /// it ranked.
    fn prepare(&mut self, attr: &AttributeDef, bag: &[u32]) -> AttrFeatures {
        let vocab = &self.vocab;
        let mut ranks: Vec<u32> = bag.iter().map(|&id| vocab.rank[id as usize]).collect();
        ranks.sort_unstable();
        let mut tfidf: Vec<(u32, f64)> = ranks
            .chunk_by(|x, y| x == y)
            .filter_map(|run| Some((*run.first()?, sim::damp(run.len()))))
            .collect();
        sim::normalize_tfidf(&mut tfidf, |&rank| vocab.idf[vocab.df_at(rank)]);
        tfidf.retain(|&(rank, _)| vocab.df_at(rank) > 0);
        let name_id = self.names.intern_str(&attr.name);
        AttrFeatures::from_profile(&attr.name, name_id, &attr.profile, tfidf)
    }

    /// Bring the fit up to date with `global` after a call over `source`
    /// that mapped onto or added exactly the `claimed` attributes:
    /// `(global attribute, index of the source attribute it took)` pairs,
    /// in decision order. `tokens` is what [`Fit::read_source`] read from
    /// `source`.
    pub(crate) fn update(
        &mut self,
        global: &GlobalSchema,
        claimed: &[(AttrId, usize)],
        source: &SourceSchema,
        tokens: &SourceTokens,
    ) {
        for g in global.iter().skip(self.features.len()) {
            let name_id = self.names.intern_str(&g.name);
            self.features.push(AttrFeatures::named(&g.name, name_id));
            self.carried.push(Carried::default());
        }
        let mut new_tokens: Vec<(usize, Vec<u32>)> = Vec::with_capacity(claimed.len());
        for (k, &(id, _)) in claimed.iter().enumerate() {
            let Some(g) = global.get(id) else { continue };
            if claimed[..k].iter().any(|&(earlier, _)| earlier == id) {
                continue;
            }
            // The source attributes merged into `g`, in merge order, each
            // sampled value with its token ids.
            let from = claimed.iter().filter(|&&(c, _)| c == id).flat_map(|&(_, a)| {
                let sample = source.attributes.get(a).map(|attr| attr.profile.sample_values());
                sample.unwrap_or_default().iter().map(String::as_str).zip(tokens.values_of(a))
            });
            let i = id.0 as usize;
            let (features, carried) = (&mut self.features[i], &mut self.carried[i]);
            let ids = fold_new_values(features, carried, &g.profile, from, &mut self.vocab);
            features.read_distribution(&g.profile);
            new_tokens.push((i, ids));
        }
        // Ranks what a value missing from the claimed samples interned in
        // `fold_new_values`; a merge never appends such a value.
        self.vocab.rank_new_tokens();
        for (i, mut ids) in new_tokens {
            let (vocab, carried) = (&mut self.vocab, &mut self.carried[i]);
            ids.sort_unstable_by_key(|&id| vocab.rank[id as usize]);
            let added = ids
                .chunk_by(|a, b| a == b)
                .filter_map(|run| Some((*run.first()?, run.len())));
            carried.terms = merge_terms(std::mem::take(&mut carried.terms), added, vocab);
        }
        let num_docs = self.features.len();
        self.vocab.idf = (0..=num_docs).map(|df| sim::idf(num_docs, df)).collect();
        let vocab = &self.vocab;
        for (features, carried) in self.features.iter_mut().zip(&self.carried) {
            features.tfidf.clear();
            features.tfidf.extend(
                carried.terms.iter().map(|&(id, n)| (vocab.rank[id as usize], sim::damp(n))),
            );
            sim::normalize_tfidf(&mut features.tfidf, |&rank| vocab.idf[vocab.df_at(rank)]);
        }
    }

    /// Every token of the vocabulary, in rank order.
    #[cfg(test)]
    pub(crate) fn vocabulary(&self) -> Vec<String> {
        self.vocab.sorted.iter().map(|&id| self.vocab.text[id as usize].clone()).collect()
    }
}

/// Merge `added` term counts into `terms`, both in token order, counting
/// each token new to the bag in its document frequency.
fn merge_terms(
    terms: Vec<(u32, usize)>,
    added: impl Iterator<Item = (u32, usize)>,
    vocab: &mut Vocabulary,
) -> Vec<(u32, usize)> {
    let mut merged = Vec::with_capacity(terms.len());
    let mut old = terms.into_iter().peekable();
    for (id, n) in added {
        let rank = vocab.rank[id as usize];
        while let Some(term) = old.next_if(|&(t, _)| vocab.rank[t as usize] < rank) {
            merged.push(term);
        }
        match old.next_if(|&(t, _)| t == id) {
            Some((_, m)) => merged.push((id, m + n)),
            None => {
                vocab.df[id as usize] += 1;
                merged.push((id, n));
            }
        }
    }
    merged.extend(old);
    merged
}

/// Fold the values that entered `profile`'s sample since the last update
/// into the attribute's value counts, refresh every value count, and
/// return the new values' token ids (one per occurrence). `from` yields
/// the sampled values of the source attributes merged in since, with
/// their token ids: a merge appends a subsequence of them, so each new
/// value is found by walking on. A value not found is tokenised afresh.
fn fold_new_values<'a>(
    features: &mut AttrFeatures,
    carried: &mut Carried,
    profile: &AttributeProfile,
    mut from: impl Iterator<Item = (&'a str, &'a [u32])>,
    vocab: &mut Vocabulary,
) -> Vec<u32> {
    let sample = profile.sample_values();
    let mut tokens = Vec::new();
    for (index, value) in sample.iter().enumerate().skip(carried.folded) {
        let key = value_key(value);
        match features.values.binary_search_by(|(v, _)| v.cmp(&key)) {
            // A later value that lowercases alike takes over the count.
            Ok(at) => carried.value_src[at] = index,
            Err(at) => {
                features.values.insert(at, (key, 0.0));
                carried.value_src.insert(at, index);
            }
        }
        match from.find(|&(v, _)| v == value) {
            Some((_, ids)) => tokens.extend_from_slice(ids),
            None => sim::for_each_token(value, |t| tokens.push(vocab.intern(t))),
        }
    }
    carried.folded = sample.len();
    let counts = profile.sample_counts();
    for ((_, count), &index) in features.values.iter_mut().zip(&carried.value_src) {
        *count = counts.get(index).copied().unwrap_or(0) as f64;
    }
    tokens
}

/// The name signal of every `(source name, global name)` pair scored so
/// far, keyed by the names' interned ids.
#[derive(Debug, Default)]
pub(crate) struct NameSignals(HashMap<(u32, u32), f64, sim::FnvBuildHasher>);

impl NameSignals {
    /// [`name_signal`] of the pair, computed on its first request.
    pub(crate) fn get(
        &mut self,
        synonyms: &SynonymDict,
        source: &AttrFeatures,
        global: &AttrFeatures,
    ) -> f64 {
        *self
            .0
            .entry((source.name_id, global.name_id))
            .or_insert_with(|| name_signal(synonyms, source, global))
    }
}

/// The combined score of a source attribute against a global one, given
/// their name signal.
///
/// A pair is credible when **either** the names agree strongly (synonym
/// dictionaries, abbreviations) **or** the contents overlap strongly
/// (shared value domains) — averaging the two starves both signals: price
/// columns have near-zero value overlap across sources even when the names
/// are exact synonyms. The composite therefore takes the max of a name-led
/// blend and a content-led blend, each seasoned with the distribution
/// signal, and the weaker blend contributes in proportion to its share.
pub(crate) fn score(name: f64, source: &AttrFeatures, global: &AttrFeatures) -> f64 {
    let value = value_overlap(source, global);
    let dist = distribution(source, global);
    let tfidf = tfidf(source, global);
    let name_led = 0.80 * name + 0.20 * dist;
    let content_led = 0.45 * value + 0.30 * tfidf + 0.25 * dist;
    if name_led >= content_led {
        name_led.max(name_led * NAME_SHARE + content_led * CONTENT_SHARE)
    } else {
        content_led.max(content_led * CONTENT_SHARE + name_led * NAME_SHARE)
    }
}

/// Jaro-Winkler on the lowercased names blended with synonym-aware
/// token-set similarity. The argument order matters: synonym matching is
/// greedy from the source side.
fn name_signal(synonyms: &SynonymDict, a: &AttrFeatures, b: &AttrFeatures) -> f64 {
    let jw = sim::jaro_winkler(&a.name, &b.name);
    let syn = synonyms.token_similarity(&a.name_tokens, &b.name_tokens);
    jw.max(syn) * 0.85 + jw.min(syn) * 0.15
}

/// Weighted Jaccard between the sampled value multisets; 0 when either
/// side has no sample. Its sums are of whole counts, which float addition
/// sums exactly in any order, so the score does not depend on the order
/// [`ValueKey`] walks the values in.
fn value_overlap(a: &AttrFeatures, b: &AttrFeatures) -> f64 {
    if a.values.is_empty() || b.values.is_empty() {
        return 0.0;
    }
    sim::weighted_jaccard(&a.values, &b.values)
}

/// Lexical-type agreement plus, for numeric columns, numeric-shape
/// similarity and, for text, length-profile similarity.
fn distribution(a: &AttrFeatures, b: &AttrFeatures) -> f64 {
    let (ta, tb) = (a.dominant, b.dominant);
    if ta == LexicalType::Null || tb == LexicalType::Null {
        return 0.0;
    }
    let type_score = if ta == tb {
        1.0
    } else if ta.is_numeric() == tb.is_numeric() {
        0.4
    } else {
        0.0
    };
    let shape_score = match (a.numeric, b.numeric) {
        (Some(a), Some(b)) => {
            sim::stats_similarity(a.mean, a.std, a.min, a.max, b.mean, b.std, b.min, b.max)
        }
        (None, None) => sim::relative_diff_similarity(a.mean_len, b.mean_len),
        _ => 0.0,
    };
    0.55 * type_score + 0.45 * shape_score
}

/// Cosine between the TF-IDF vectors of the value bags; 0 when either bag
/// is empty.
fn tfidf(a: &AttrFeatures, b: &AttrFeatures) -> f64 {
    if a.empty_bag || b.empty_bag {
        return 0.0;
    }
    sim::cosine(&a.tfidf, &b.tfidf)
}

/// The refit-everything path the carried [`Fit`] replaced, kept as its
/// oracle: every call tokenised every global value bag, fitted IDF over
/// those bags and vectorised every global attribute from scratch.
#[cfg(test)]
pub(crate) mod oracle {
    use std::collections::HashMap;

    use datatamer_model::Value;

    use super::*;

    /// Inverse document frequencies learned from a corpus of token bags.
    #[derive(Debug, Default)]
    pub(crate) struct TfIdfWeights {
        df: HashMap<String, usize>,
        num_docs: usize,
    }

    impl TfIdfWeights {
        /// Count, for each token, the documents holding it.
        pub(crate) fn fit<'a, I, D>(docs: I) -> Self
        where
            I: IntoIterator<Item = D>,
            D: IntoIterator<Item = &'a str>,
        {
            let mut weights = TfIdfWeights::default();
            let mut distinct: Vec<&str> = Vec::new();
            for doc in docs {
                weights.num_docs += 1;
                distinct.clear();
                distinct.extend(doc);
                distinct.sort_unstable();
                distinct.dedup();
                for tok in &distinct {
                    *weights.df.entry((*tok).to_owned()).or_insert(0) += 1;
                }
            }
            weights
        }

        /// IDF of a token; an unseen token gets the maximum-rarity weight.
        pub(crate) fn idf(&self, token: &str) -> f64 {
            sim::idf(self.num_docs, self.df.get(token).copied().unwrap_or(0))
        }
    }

    /// IDF fitted over the global schema as one call found it.
    pub(crate) struct Matcher {
        /// The distinct tokens of the global value bags, sorted: a token's
        /// position is its rank.
        pub(crate) vocab: Vec<String>,
        weights: TfIdfWeights,
        names: sim::TokenInterner,
    }

    impl Matcher {
        /// Fit IDF over the value bags of `global` and prepare every global
        /// attribute, in schema order.
        pub(crate) fn fit(global: &GlobalSchema) -> (Self, Vec<AttrFeatures>) {
            let bags: Vec<Vec<String>> = global.iter().map(|g| bag(&g.profile)).collect();
            let weights =
                TfIdfWeights::fit(bags.iter().map(|tokens| tokens.iter().map(String::as_str)));
            let mut vocab: Vec<String> = bags.iter().flatten().cloned().collect();
            vocab.sort_unstable();
            vocab.dedup();
            let mut matcher = Matcher { vocab, weights, names: sim::TokenInterner::new() };
            let prepared = global
                .iter()
                .zip(&bags)
                .map(|(g, bag)| matcher.features(&g.name, &g.profile, bag))
                .collect();
            (matcher, prepared)
        }

        /// Prepare one attribute under this fit.
        pub(crate) fn prepare(&mut self, name: &str, profile: &AttributeProfile) -> AttrFeatures {
            self.features(name, profile, &bag(profile))
        }

        fn features(&mut self, name: &str, profile: &AttributeProfile, bag: &[String]) -> AttrFeatures {
            let tfidf = self
                .vectorize(bag)
                .into_iter()
                .filter_map(|(tok, w)| Some((self.vocab.binary_search(&tok).ok()? as u32, w)))
                .collect();
            let name_id = self.names.intern_str(name);
            AttrFeatures::from_profile(name, name_id, profile, tfidf)
        }

        /// TF-IDF vector of a token bag, as `(token, weight)` entries sorted
        /// by token with no repeats.
        fn vectorize(&self, tokens: &[String]) -> Vec<(String, f64)> {
            let mut sorted: Vec<&String> = tokens.iter().collect();
            sorted.sort_unstable();
            let mut entries: Vec<(String, f64)> = sorted
                .chunk_by(|x, y| x == y)
                .filter_map(|run| Some(((*run.first()?).clone(), sim::damp(run.len()))))
                .collect();
            sim::normalize_tfidf(&mut entries, |tok| self.weights.idf(tok));
            entries
        }
    }

    /// The tokens of the sampled values joined by spaces.
    fn bag(profile: &AttributeProfile) -> Vec<String> {
        sim::tokenize(&profile.sample_values().join(" "))
    }

    /// Every field of `features` but the name id, floats as their bits and
    /// TF-IDF entries keyed by token text: `vocab` holds the tokens in rank
    /// order of the fit that prepared them.
    pub(crate) fn bits(features: &AttrFeatures, vocab: &[String]) -> impl PartialEq + std::fmt::Debug {
        let f = features;
        (
            (f.name.clone(), f.name_tokens.clone()),
            f.values.iter().map(|((_, v), n)| (v.clone(), n.to_bits())).collect::<Vec<_>>(),
            f.tfidf.iter().map(|(rank, w)| (vocab[*rank as usize].clone(), w.to_bits())).collect::<Vec<_>>(),
            (f.empty_bag, f.dominant),
            f.numeric.map(|n| (n.n, [n.min, n.max, n.mean, n.std].map(f64::to_bits))),
            f.mean_len.to_bits(),
        )
    }

    /// xorshift64*: a deterministic stream for the randomized profiles.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }
    }

    const NAMES: &[&str] = &[
        "show_name", "title", "Show Name", "showName", "showname", "cheapest_price", "cost", "PRICE",
        "venue", "theatre", "Théâtre", "x", "", "runtime_min", "seats", "ticket price",
    ];

    /// Text values, with case variants that collide after lowercasing, a
    /// value with no tokens, and values that never reach the sample (`""`,
    /// blanks and `"null"` profile as nulls).
    const TEXTS: &[&str] = &[
        "Matilda", "MATILDA", "matilda", "Wicked", "wicked", "The Lion King", "the lion king",
        "225 W. 44th St", "W 44th Street", "Shubert Theatre", "shubert", "---", "Straße",
        "STRASSE", "ÉCOLE", "école", "a", "A", "", "  ", "null", "La La Land", "la la land",
        "Hamilton at the Richard Rodgers", "the the the",
    ];

    fn numeric_value(rng: &mut Rng) -> Value {
        match rng.below(9) {
            0 => Value::Int(rng.below(3000) as i64 - 50),
            1 => Value::Float(rng.below(1000) as f64 / 8.0),
            2 => Value::from(format!("${}", rng.below(200))),
            3 => Value::from(format!("{}.{}", rng.below(100), rng.below(100))),
            4 => Value::from(format!("{}%", rng.below(101))),
            5 => Value::from(format!("{}", 1990 + rng.below(40))),
            6 => Value::Float(f64::INFINITY),
            7 => Value::Float(f64::NEG_INFINITY),
            _ => Value::Float(f64::NAN),
        }
    }

    /// A numeric, text or mixed column of 0–11 values, repeats likely.
    pub(crate) fn random_attr(rng: &mut Rng) -> AttributeDef {
        let kind = rng.below(3);
        let mut profile = AttributeProfile::default();
        for _ in 0..rng.below(12) {
            let numeric = kind == 0 || (kind == 2 && rng.below(2) == 0);
            let v = if numeric {
                numeric_value(rng)
            } else {
                Value::from(TEXTS[rng.below(TEXTS.len())])
            };
            profile.observe(&v);
        }
        AttributeDef { name: NAMES[rng.below(NAMES.len())].to_owned(), profile }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::oracle::{random_attr, Matcher, Rng, TfIdfWeights};
    use super::*;
    use crate::global::GlobalAttribute;
    use datatamer_model::{AttributeDef, Record, RecordId, SourceId, SourceSchema, Value};

    fn attr(name: &str, values: &[&str]) -> AttributeDef {
        let sid = SourceId(1);
        let records: Vec<Record> = values
            .iter()
            .enumerate()
            .map(|(i, v)| Record::from_pairs(sid, RecordId(i as u64), vec![(name, Value::from(*v))]))
            .collect();
        let schema = SourceSchema::profile_records(sid, "s", &records);
        schema.attributes[0].clone()
    }

    /// Features of `attrs` with IDF fitted over all of them.
    fn prepared(attrs: &[&AttributeDef]) -> Vec<AttrFeatures> {
        let mut g = GlobalSchema::new();
        for a in attrs {
            g.add_attribute(SourceId(0), a);
        }
        Matcher::fit(&g).1
    }

    #[test]
    fn name_matcher_uses_synonyms() {
        let syn = SynonymDict::broadway();
        let f = prepared(
            &[
                &attr("price", &["$27"]),
                &attr("cost", &["$30"]),
                &attr("venue", &["Shubert"]),
                &attr("price", &["$1"]),
            ],
        );
        assert!(name_signal(&syn, &f[0], &f[1]) > 0.8, "synonyms must score high");
        assert!(name_signal(&syn, &f[0], &f[2]) < 0.5);
        assert!(name_signal(&syn, &f[0], &f[3]) > 0.99);
    }

    #[test]
    fn value_overlap_detects_shared_domains() {
        let f = prepared(
            &[
                &attr("show", &["Matilda", "Wicked", "Annie", "Pippin"]),
                &attr("title", &["Matilda", "Wicked", "Chicago", "Annie"]),
                &attr("venue", &["Shubert", "Gershwin", "Palace"]),
            ],
        );
        assert!(value_overlap(&f[0], &f[1]) > 0.4, "shared shows overlap");
        assert_eq!(value_overlap(&f[0], &f[2]), 0.0, "disjoint domains");
    }

    #[test]
    fn distribution_matcher_separates_types() {
        let empty = AttributeDef { name: "empty".into(), profile: AttributeProfile::default() };
        let f = prepared(
            &[
                &attr("p1", &["$20", "$45", "$99"]),
                &attr("p2", &["$25", "$50", "$110"]),
                &attr("desc", &["a lovely show", "great fun tonight"]),
                &empty,
            ],
        );
        assert!(distribution(&f[0], &f[1]) > 0.6);
        assert!(distribution(&f[0], &f[2]) < 0.3);
        assert_eq!(distribution(&f[3], &f[1]), 0.0);
    }

    #[test]
    fn distribution_matcher_separates_ranges() {
        // Same lexical type (integer) but disjoint ranges: years vs seats.
        let f = prepared(
            &[
                &attr("year", &["2010", "2011", "2012", "2013"]),
                &attr("seats", &["400", "900", "1500", "1800"]),
                &attr("yr", &["2009", "2012", "2014"]),
            ],
        );
        assert!(distribution(&f[0], &f[2]) > distribution(&f[0], &f[1]));
    }

    #[test]
    fn tfidf_matcher_scores_content() {
        let f = prepared(
            &[
                &attr("addr1", &["225 W. 44th St", "219 W. 49th St"]),
                &attr("addr2", &["225 W. 44th St", "1634 Broadway"]),
                &attr("names", &["Matilda", "Annie"]),
            ],
        );
        assert!(tfidf(&f[0], &f[1]) > tfidf(&f[0], &f[2]));
    }

    #[test]
    fn composite_prefers_true_match() {
        let syn = SynonymDict::broadway();
        let mut g = GlobalSchema::new();
        g.add_attribute(SourceId(0), &attr("show_name", &["Matilda", "Wicked", "Annie"]));
        g.add_attribute(SourceId(0), &attr("cheapest_price", &["$27", "$45", "$99"]));
        let (mut matcher, globals) = Matcher::fit(&g);
        let incoming = attr("title", &["Matilda", "Pippin", "Wicked"]);
        let title = matcher.prepare(&incoming.name, &incoming.profile);
        let to_show = score(name_signal(&syn, &title, &globals[0]), &title, &globals[0]);
        let to_price = score(name_signal(&syn, &title, &globals[1]), &title, &globals[1]);
        assert!(to_show > to_price, "title→show_name must beat title→price ({to_show} vs {to_price})");
        assert!(to_show > 0.5);
    }

    // ---- The oracle: the map-based matcher bodies these features replace,
    // kept verbatim apart from taking the synonyms and fitted IDF as
    // arguments. ----

    fn oracle_weighted_jaccard(a: &HashMap<String, f64>, b: &HashMap<String, f64>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let mut keys: Vec<&String> = a.keys().chain(b.keys()).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut num = 0.0;
        let mut den = 0.0;
        for k in keys {
            let fa = a.get(k).copied().unwrap_or(0.0);
            let fb = b.get(k).copied().unwrap_or(0.0);
            num += fa.min(fb);
            den += fa.max(fb);
        }
        if den == 0.0 {
            return 1.0;
        }
        num / den
    }

    fn oracle_vectorize(idf: &TfIdfWeights, tokens: &[String]) -> HashMap<String, f64> {
        let mut tf: HashMap<String, f64> = HashMap::new();
        for t in tokens {
            *tf.entry(t.clone()).or_insert(0.0) += 1.0;
        }
        let mut entries: Vec<(String, f64)> = tf.into_iter().collect();
        entries.sort_unstable_by(|x, y| x.0.cmp(&y.0));
        let mut norm = 0.0;
        for (tok, f) in entries.iter_mut() {
            *f = (1.0 + f.ln()) * idf.idf(tok);
            norm += *f * *f;
        }
        let norm = norm.sqrt();
        if norm > 0.0 {
            for (_, f) in entries.iter_mut() {
                *f /= norm;
            }
        }
        entries.into_iter().collect()
    }

    fn oracle_dot(a: &HashMap<String, f64>, b: &HashMap<String, f64>) -> f64 {
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let mut terms: Vec<(&String, f64)> = small.iter().map(|(k, v)| (k, *v)).collect();
        terms.sort_unstable_by(|x, y| x.0.cmp(y.0));
        terms.into_iter().filter_map(|(k, va)| large.get(k).map(|vb| va * vb)).sum()
    }

    /// `[name, value overlap, distribution, tfidf, composite]`.
    fn oracle(
        synonyms: &SynonymDict,
        idf: &TfIdfWeights,
        source: &AttributeDef,
        global: &GlobalAttribute,
    ) -> [f64; 5] {
        let name = {
            let a = source.name.to_lowercase();
            let b = global.name.to_lowercase();
            let jw = sim::jaro_winkler(&a, &b);
            let ta = sim::tokenize(&source.name);
            let tb = sim::tokenize(&global.name);
            let syn = synonyms.token_similarity(&ta, &tb);
            jw.max(syn) * 0.85 + jw.min(syn) * 0.15
        };
        let value = {
            let to_map = |attr: &AttributeProfile| -> HashMap<String, f64> {
                attr.sample_values()
                    .iter()
                    .map(|v| (v.to_lowercase(), attr.sample_frequency(v) as f64))
                    .collect()
            };
            let a = to_map(&source.profile);
            let b = to_map(&global.profile);
            if a.is_empty() || b.is_empty() {
                0.0
            } else {
                oracle_weighted_jaccard(&a, &b)
            }
        };
        let dist = {
            let ta = source.profile.dominant_type();
            let tb = global.profile.dominant_type();
            if ta == LexicalType::Null || tb == LexicalType::Null {
                0.0
            } else {
                let type_score = if ta == tb {
                    1.0
                } else if ta.is_numeric() == tb.is_numeric() {
                    0.4
                } else {
                    0.0
                };
                let shape_score =
                    match (source.profile.numeric_stats(), global.profile.numeric_stats()) {
                        (Some(a), Some(b)) => sim::stats_similarity(
                            a.mean, a.std, a.min, a.max, b.mean, b.std, b.min, b.max,
                        ),
                        (None, None) => sim::relative_diff_similarity(
                            source.profile.mean_len(),
                            global.profile.mean_len(),
                        ),
                        _ => 0.0,
                    };
                0.55 * type_score + 0.45 * shape_score
            }
        };
        let tfidf = {
            let a = source.profile.sample_values().join(" ");
            let b = global.profile.sample_values().join(" ");
            if a.is_empty() || b.is_empty() {
                0.0
            } else {
                let va = oracle_vectorize(idf, &sim::tokenize(&a));
                let vb = oracle_vectorize(idf, &sim::tokenize(&b));
                oracle_dot(&va, &vb).clamp(0.0, 1.0)
            }
        };
        // The composite under the default weights.
        let (w_name, w_value, w_dist, w_tfidf) = (0.42, 0.22, 0.16, 0.20);
        let name_led = 0.80 * name + 0.20 * dist;
        let content_led = 0.45 * value + 0.30 * tfidf + 0.25 * dist;
        let name_share = (w_name + w_dist / 2.0) / (w_name + w_value + w_dist + w_tfidf);
        let content_share = 1.0 - name_share;
        let composite = if name_led >= content_led {
            name_led.max(name_led * name_share + content_led * content_share)
        } else {
            content_led.max(content_led * content_share + name_led * name_share)
        };
        [name, value, dist, tfidf, composite]
    }

    #[test]
    fn prepared_scores_are_bit_identical_to_the_profile_oracle() {
        let synonyms = SynonymDict::broadway();
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut checked = 0;
        for _ in 0..400 {
            let mut global = GlobalSchema::new();
            for _ in 0..rng.below(7) {
                let id = global.add_attribute(SourceId(0), &random_attr(&mut rng));
                if rng.below(3) == 0 {
                    global.map_attribute(id, SourceId(1), &random_attr(&mut rng)).unwrap();
                }
            }
            let bags: Vec<Vec<String>> = global
                .iter()
                .map(|g| sim::tokenize(&g.profile.sample_values().join(" ")))
                .collect();
            let idf = TfIdfWeights::fit(bags.iter().map(|t| t.iter().map(String::as_str)));
            let (mut matcher, prepared) = Matcher::fit(&global);
            // Fresh source attributes, and each global attribute as a source
            // (identical bags: every token is shared).
            let mut sources: Vec<AttributeDef> = (0..3).map(|_| random_attr(&mut rng)).collect();
            sources.extend(global.iter().map(|g| AttributeDef {
                name: g.name.clone(),
                profile: g.profile.clone(),
            }));
            for source in &sources {
                let features = matcher.prepare(&source.name, &source.profile);
                for (g, gf) in global.iter().zip(&prepared) {
                    let got = [
                        name_signal(&synonyms, &features, gf),
                        value_overlap(&features, gf),
                        distribution(&features, gf),
                        tfidf(&features, gf),
                        score(name_signal(&synonyms, &features, gf), &features, gf),
                    ];
                    let want = oracle(&synonyms, &idf, source, g);
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{:?} vs {:?}: got {got:?}, want {want:?}",
                        source.name,
                        g.name
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 3000, "{checked} pairs checked");
    }
}
