//! The domain-specific parser: raw fragments → hierarchical documents.
//!
//! This is Figure 1's "user-defined module". It layers three extractors —
//! gazetteers, pattern scanners, and contextual heuristics — over a text
//! fragment and emits:
//!
//! * one hierarchical **instance document** (the WEBINSTANCE row): the
//!   fragment text plus its extracted entity array and scanned attributes;
//! * one flat **entity document** per mention (the WEBENTITIES rows).
//!
//! A fragment is read once. It is lexed in one pass ([`Tokenized`]): each
//! token carries its class flags, and each word its lowercase form in one
//! shared buffer. The parser then probes its lexicon once per word. The
//! lexicon is the gazetteer's word map, which also holds the heuristics'
//! and scanners' keywords, added once when the parser is built
//! ([`DomainParser::with_gazetteer`]); a probe gives the word's phrase-token
//! id and its keyword bits. Every extractor reads that result: the trie
//! walk follows only `(node, token)` edges, the heuristics test bits, and
//! the token scanners run as one walk over the flagged tokens. No extractor
//! re-tokenises, compares a word against a keyword list, or allocates a
//! `String` per token. [`DomainParser::parse_tokenized`] takes a fragment
//! already lexed, so a caller that reads the words first (the text ingest's
//! junk filter) shares the one pass.

use datatamer_model::{doc, Document, Value};

use crate::gazetteer::{keys, Gazetteer, Lexeme};
use crate::mention::{EntityType, Mention};
use crate::normalize::{canonical_name, STOPWORDS};
use crate::scan::{scan, Span, SpanKind, MONEY_CONTEXT, MONEY_SUFFIXES};
use crate::tokenize::Tokenized;

/// Honorifics that mark the next capitalised run as a person.
const HONORIFICS: &[&str] = &["mr", "mrs", "ms", "dr", "prof", "sen", "rep"];
/// Company designators that mark the preceding capitalised run as a company.
const COMPANY_SUFFIXES: &[&str] = &["inc", "corp", "ltd", "llc", "co"];
/// Facility designators.
const FACILITY_SUFFIXES: &[&str] = &["theatre", "theater", "hall", "stadium", "arena", "center"];
/// Position titles.
const POSITIONS: &[&str] = &[
    "ceo", "cto", "cfo", "president", "director", "chairman", "producer", "manager",
    "actor", "actress", "playwright", "composer", "senator", "governor", "editor",
];
/// Speech verbs: a capitalised run right before one is probably a person.
const SPEECH_VERBS: &[&str] = &["said", "told", "announced", "stated", "added", "wrote", "argued"];

/// Every keyword list with its lexicon bit. A word token never ends in
/// `.` (a mark is internal only before an alphanumeric), so the honorific
/// and company-suffix lists need no trimmed forms.
const KEYWORDS: [(&[&str], u16); 9] = [
    (POSITIONS, keys::POSITION),
    (HONORIFICS, keys::HONORIFIC),
    (COMPANY_SUFFIXES, keys::COMPANY_SUFFIX),
    (FACILITY_SUFFIXES, keys::FACILITY_SUFFIX),
    (SPEECH_VERBS, keys::SPEECH_VERB),
    (STOPWORDS, keys::STOPWORD),
    (MONEY_CONTEXT, keys::MONEY_CONTEXT),
    (MONEY_SUFFIXES, keys::MONEY_SUFFIX),
    (&["percent"], keys::PERCENT),
];

/// The instance document's lists of scanned spans, `(field, span kinds)`,
/// in field order after `entities`. A list with no span is left out.
pub const SPAN_LISTS: [(&str, &[SpanKind]); 4] = [
    ("amounts", &[SpanKind::Money, SpanKind::Gross]),
    ("dates", &[SpanKind::Date]),
    ("times", &[SpanKind::Time]),
    ("percents", &[SpanKind::Percent]),
];

/// A fully parsed fragment.
#[derive(Debug, Clone)]
pub struct ParsedFragment {
    /// The raw fragment text.
    pub text: String,
    /// Resolved, non-overlapping entity mentions.
    pub mentions: Vec<Mention>,
    /// Scanned non-entity spans (money, dates, times, percents).
    pub spans: Vec<Span>,
}

impl ParsedFragment {
    /// Convert to the hierarchical WEBINSTANCE document. The text ingest
    /// writes this document's encoding straight from the parse instead;
    /// this form is what its bytes are checked against.
    ///
    /// Shape: `{ fragment, chars, entities: [{type, name, canonical,
    /// start, end, confidence}...], amounts: [...], dates: [...],
    /// times: [...], percents: [...] }`.
    pub fn to_instance_doc(&self) -> Document {
        let entities: Vec<Value> = self
            .mentions
            .iter()
            .map(|m| {
                Value::Doc(doc! {
                    "type" => m.entity_type.name(),
                    "name" => m.text.clone(),
                    "canonical" => canonical_name(&m.text),
                    "start" => m.start,
                    "end" => m.end,
                    "confidence" => m.confidence
                })
            })
            .collect();
        let mut d = doc! {
            "fragment" => self.text.clone(),
            "chars" => self.text.len()
        };
        if !entities.is_empty() {
            d.set("entities", Value::Array(entities));
        }
        for (name, kinds) in SPAN_LISTS {
            let items: Vec<Value> = self
                .spans
                .iter()
                .filter(|s| kinds.contains(&s.kind))
                .map(|s| Value::Str(s.text.clone()))
                .collect();
            if !items.is_empty() {
                d.set(name, Value::Array(items));
            }
        }
        d
    }

    /// Flat entity documents (WEBENTITIES rows), one per mention, each
    /// carrying a context window of the surrounding fragment. Like
    /// [`Self::to_instance_doc`], the form the text ingest's encoded bytes
    /// are checked against.
    pub fn entity_docs(&self) -> Vec<Document> {
        self.mentions
            .iter()
            .map(|m| {
                doc! {
                    "type" => m.entity_type.name(),
                    "name" => m.text.clone(),
                    "canonical" => canonical_name(&m.text),
                    "confidence" => m.confidence,
                    "context" => self.context(m)
                }
            })
            .collect()
    }

    /// The context window an entity document carries for mention `m`: up to
    /// 31 characters of the fragment before the mention, the mention, and
    /// up to 30 after (`""` for a span that is not the fragment's).
    pub fn context(&self, m: &Mention) -> &str {
        let (Some(before), Some(after)) = (self.text.get(..m.start), self.text.get(m.end..))
        else {
            return "";
        };
        let ctx_start = before.char_indices().rev().nth(30).map_or(0, |(i, _)| i);
        let ctx_end = after.char_indices().nth(30).map_or(self.text.len(), |(i, _)| m.end + i);
        self.text.get(ctx_start..ctx_end).unwrap_or("")
    }
}

/// The domain-specific parser.
#[derive(Debug, Clone)]
pub struct DomainParser {
    /// The phrases, and the lexicon of their words and every keyword.
    gazetteer: Gazetteer,
}

impl Default for DomainParser {
    fn default() -> Self {
        Self::with_gazetteer(Gazetteer::new())
    }
}

impl DomainParser {
    /// A parser with an empty gazetteer (heuristics + scanners only).
    pub fn new() -> Self {
        Self::default()
    }

    /// A parser seeded with a gazetteer. The heuristics' and scanners'
    /// keywords join the gazetteer's lexicon here, once.
    pub fn with_gazetteer(mut gazetteer: Gazetteer) -> Self {
        for (words, key) in KEYWORDS {
            gazetteer.add_keywords(words, key);
        }
        DomainParser { gazetteer }
    }

    /// Each word's lexicon entry, in word order: the one probe per word
    /// that every extractor reads.
    pub(crate) fn lexemes(&self, fragment: &Tokenized) -> Vec<Lexeme> {
        fragment.words().map(|(_, lower)| self.gazetteer.probe(lower)).collect()
    }

    /// Parse one fragment.
    pub fn parse(&self, text: &str) -> ParsedFragment {
        self.parse_tokenized(&Tokenized::new(text))
    }

    /// Parse a fragment that is already tokenised: the same result as
    /// [`Self::parse`] of its text, without tokenising it again.
    pub fn parse_tokenized(&self, fragment: &Tokenized) -> ParsedFragment {
        let text = fragment.text();
        let lexemes = self.lexemes(fragment);
        let spans = scan(fragment, &lexemes);
        let mut mentions = self.gazetteer.find_lexed(fragment, &lexemes);

        // URLs from the scanner are entity mentions of type URL.
        for s in &spans {
            if s.kind == SpanKind::Url {
                mentions.push(Mention::new(EntityType::Url, &s.text, s.start, s.end, 0.99));
            }
        }
        // Quoted Title-Case runs not already covered: movie/show candidates.
        for s in &spans {
            if s.kind == SpanKind::QuotedTitle {
                let covered = mentions
                    .iter()
                    .any(|m| m.start < s.end && s.start < m.end);
                if !covered {
                    mentions.push(Mention::new(EntityType::Movie, &s.text, s.start, s.end, 0.6));
                }
            }
        }
        heuristic_mentions(fragment, &lexemes, &mut mentions);
        let mentions = resolve_overlaps(mentions);
        let spans = spans
            .into_iter()
            .filter(|s| !matches!(s.kind, SpanKind::Url | SpanKind::QuotedTitle))
            .collect();
        ParsedFragment { text: text.to_owned(), mentions, spans }
    }
}

/// Contextual heuristics over capitalised runs of word tokens; `lexemes`
/// holds each word's lexicon entry.
fn heuristic_mentions(fragment: &Tokenized, lexemes: &[Lexeme], out: &mut Vec<Mention>) {
    let text = fragment.text();
    // A word past the end carries no keyword and is not capitalised.
    let is = |i: usize, key: u16| lexemes.get(i).is_some_and(|l| l.is(key));
    let capitalized = |i: usize| fragment.word(i).is_some_and(|t| t.is_capitalized());

    // Position titles are direct dictionary hits.
    for i in (0..fragment.word_count()).filter(|&i| is(i, keys::POSITION)) {
        if let Some(t) = fragment.word(i) {
            out.push(Mention::new(EntityType::Position, t.text, t.start, t.end, 0.8));
        }
    }

    // Capitalised runs (2+ letters, not sentence-initial-only heuristic:
    // we accept all runs and let context decide the type).
    let mut i = 0usize;
    while let Some(first) = fragment.word(i) {
        if !run_starts_here(fragment, lexemes, i) {
            i += 1;
            continue;
        }
        let mut j = i;
        while capitalized(j) && j - i < 4 {
            j += 1;
        }
        let run_len = j - i;
        let start = first.start;
        let end = fragment.word(j - 1).map_or(first.end, |t| t.end);
        let surface = &text[start..end];

        // Company: run ending in (or followed by) a company designator,
        // e.g. "Recorded Future Inc" / "Recorded Future inc".
        let run_ends_in_suffix = run_len >= 2 && is(j - 1, keys::COMPANY_SUFFIX);
        if run_ends_in_suffix {
            out.push(Mention::new(EntityType::Company, surface, start, end, 0.85));
            i = j;
            continue;
        }
        if let Some(suffix) = fragment.word(j).filter(|_| is(j, keys::COMPANY_SUFFIX)) {
            let end2 = suffix.end;
            out.push(Mention::new(EntityType::Company, &text[start..end2], start, end2, 0.85));
            i = j + 1;
            continue;
        }
        // Facility: run whose last token is a facility designator.
        if is(j - 1, keys::FACILITY_SUFFIX) && run_len >= 2 {
            out.push(Mention::new(EntityType::Facility, surface, start, end, 0.8));
            i = j;
            continue;
        }
        // Person: honorific before, or speech verb after, 2-3 token run.
        let honorific_before = i > 0 && is(i - 1, keys::HONORIFIC);
        let speech_after = is(j, keys::SPEECH_VERB);
        if (honorific_before || speech_after) && (1..=3).contains(&run_len) {
            out.push(Mention::new(EntityType::Person, surface, start, end, 0.75));
            i = j;
            continue;
        }
        i = j.max(i + 1);
    }
}

/// Whether a capitalised run may begin at word `i` — skip obviously
/// sentence-initial lone stopword-ish words ("The", "And").
fn run_starts_here(fragment: &Tokenized, lexemes: &[Lexeme], i: usize) -> bool {
    let capitalized = |i: usize| fragment.word(i).is_some_and(|t| t.is_capitalized());
    if !capitalized(i) {
        return false;
    }
    let next_cap = capitalized(i + 1);
    // A lone capitalised stopword is not a run start unless followed by
    // another capitalised token ("The Walking Dead").
    !lexemes.get(i).is_some_and(|l| l.is(keys::STOPWORD)) || next_cap
}

/// Drop overlapping mentions: higher confidence wins, then longer span.
/// Confidences order by `f64::total_cmp`, a total order even over a NaN
/// from a user gazetteer (the std sort may panic on one that is not).
fn resolve_overlaps(mut mentions: Vec<Mention>) -> Vec<Mention> {
    mentions.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then_with(|| (b.end - b.start).cmp(&(a.end - a.start)))
            .then_with(|| a.start.cmp(&b.start))
    });
    let mut kept: Vec<Mention> = Vec::new();
    for m in mentions {
        if !kept.iter().any(|k| k.overlaps(&m)) {
            kept.push(m);
        }
    }
    kept.sort_by_key(|m| (m.start, m.end));
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parser() -> DomainParser {
        let mut g = Gazetteer::new();
        g.add("Matilda", EntityType::Movie, 0.95);
        g.add("London", EntityType::City, 0.9);
        g.add("Broadway", EntityType::GeoEntity, 0.85);
        DomainParser::with_gazetteer(g)
    }

    #[test]
    fn gazetteer_mentions_found() {
        let p = parser();
        let f = p.parse("Matilda an award-winning import from London");
        let types: Vec<EntityType> = f.mentions.iter().map(|m| m.entity_type).collect();
        assert_eq!(types, vec![EntityType::Movie, EntityType::City]);
    }

    #[test]
    fn urls_become_url_entities() {
        let p = parser();
        let f = p.parse("see http://playbill.com/matilda for tickets");
        assert!(f
            .mentions
            .iter()
            .any(|m| m.entity_type == EntityType::Url && m.text.contains("playbill")));
    }

    #[test]
    fn quoted_titles_become_movie_candidates() {
        let p = parser();
        let f = p.parse("Fans discuss \"The Wolverine\" endlessly");
        let movie = f.mentions.iter().find(|m| m.entity_type == EntityType::Movie).unwrap();
        assert_eq!(movie.text, "The Wolverine");
        assert!(movie.confidence < 0.9, "non-gazetteer title is less confident");
    }

    #[test]
    fn gazetteer_beats_quoted_candidate_on_overlap() {
        let p = parser();
        let f = p.parse("Critics love \"Matilda\" this season");
        let movies: Vec<&Mention> =
            f.mentions.iter().filter(|m| m.entity_type == EntityType::Movie).collect();
        assert_eq!(movies.len(), 1);
        assert!(movies[0].confidence > 0.9, "gazetteer hit must win overlap");
    }

    #[test]
    fn person_heuristics() {
        let p = parser();
        let f = p.parse("Mr. Lloyd Webber said the production was ready");
        assert!(f
            .mentions
            .iter()
            .any(|m| m.entity_type == EntityType::Person && m.text.contains("Lloyd")));
        let f = p.parse("Thomas Schumacher announced a new tour");
        assert!(f
            .mentions
            .iter()
            .any(|m| m.entity_type == EntityType::Person && m.text == "Thomas Schumacher"));
    }

    #[test]
    fn company_and_facility_heuristics() {
        let p = parser();
        let f = p.parse("Recorded Future Inc aggregates the web");
        assert!(f
            .mentions
            .iter()
            .any(|m| m.entity_type == EntityType::Company && m.text.contains("Recorded Future")));
        let f = p.parse("playing at the Shubert Theatre nightly");
        assert!(f
            .mentions
            .iter()
            .any(|m| m.entity_type == EntityType::Facility && m.text == "Shubert Theatre"));
    }

    #[test]
    fn position_titles() {
        let p = parser();
        let f = p.parse("the producer and the director were thrilled");
        let positions: Vec<&str> = f
            .mentions
            .iter()
            .filter(|m| m.entity_type == EntityType::Position)
            .map(|m| m.text.as_str())
            .collect();
        assert_eq!(positions, vec!["producer", "director"]);
    }

    #[test]
    fn instance_doc_shape() {
        let p = parser();
        let f = p.parse("\"Matilda\" grossed 960,998, or 93 percent, opening 3/4/2013");
        let d = f.to_instance_doc();
        assert!(d.get("fragment").is_some());
        assert!(d.get("entities").is_some());
        let array = |key: &str| match d.get(key) {
            Some(Value::Array(items)) => items.clone(),
            other => panic!("{key} is not an array: {other:?}"),
        };
        assert_eq!(array("amounts")[0], Value::from("960,998"));
        assert_eq!(array("dates")[0], Value::from("3/4/2013"));
        assert_eq!(array("percents")[0], Value::from("93 percent"));
        // Entity subdocument carries canonical name.
        let ents = array("entities");
        let first = ents[0].as_doc().unwrap();
        assert_eq!(first.get("canonical"), Some(&Value::from("matilda")));
    }

    #[test]
    fn entity_docs_carry_context() {
        let p = parser();
        let f = p.parse("And Matilda an award-winning import from London grossed well");
        let docs = f.entity_docs();
        assert_eq!(docs.len(), 2);
        let matilda = &docs[0];
        assert_eq!(matilda.get("type"), Some(&Value::from("Movie")));
        let ctx = matilda.get("context").unwrap().as_str().unwrap();
        assert!(ctx.contains("Matilda"));
        assert!(ctx.len() <= f.text.len());
    }

    #[test]
    fn no_overlapping_mentions_survive() {
        let p = parser();
        let f = p.parse("\"The Walking Dead\" and Matilda and \"Matilda\" again on Broadway");
        for (i, a) in f.mentions.iter().enumerate() {
            for b in &f.mentions[i + 1..] {
                assert!(!a.overlaps(b), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn nan_gazetteer_confidence_does_not_panic() {
        // Regression: overlap resolution sorted with `partial_cmp` mapped
        // to `Equal`, which is not a total order once a confidence is NaN,
        // and the std sort panics on such comparators for long inputs.
        let phrases: Vec<String> = (0..60).map(|i| format!("Phrase{i}")).collect();
        let mut g = Gazetteer::new();
        for (i, phrase) in phrases.iter().enumerate() {
            let confidence = if i % 3 == 0 { f64::NAN } else { 0.5 + (i % 7) as f64 * 0.05 };
            g.add(phrase, EntityType::Movie, confidence);
        }
        let p = DomainParser::with_gazetteer(g);
        for n in 0..300usize {
            let words: Vec<&str> =
                (0..48).map(|k| phrases[(n * 7 + k * 13 + k * k) % 60].as_str()).collect();
            let f = p.parse(&words.join(" and "));
            assert_eq!(f.mentions.len(), 48, "fragment {n}");
            assert!(f.mentions.windows(2).all(|w| w[0].end <= w[1].start));
        }
    }

    #[test]
    fn empty_fragment_parses_empty() {
        let p = parser();
        let f = p.parse("");
        assert!(f.mentions.is_empty());
        assert!(f.spans.is_empty());
        let d = f.to_instance_doc();
        assert_eq!(d.get("chars"), Some(&Value::Int(0)));
    }
}

/// The parser as it was before the single pass, kept as the test oracle
/// for [`DomainParser::parse`]: it tokenises a fragment three times (the
/// scanners, the gazetteer, the heuristics), lowercases into a `String`
/// per token, keeps the gazetteer as a map of length-sorted phrase buckets,
/// and tries every capitalised token as the start of a date. The checks
/// below assert the parser's output equals this one's on generated corpora
/// and on adversarial strings.
#[cfg(test)]
mod oracle {
    use std::collections::HashMap;

    use datatamer_model::infer;
    use proptest::prelude::*;

    use super::{
        resolve_overlaps, DomainParser, ParsedFragment, COMPANY_SUFFIXES, FACILITY_SUFFIXES,
        HONORIFICS, POSITIONS, SPEECH_VERBS,
    };
    use crate::gazetteer::Gazetteer;
    use crate::mention::{EntityType, Mention};
    use crate::scan::{Span, SpanKind};
    use crate::tokenize::{tokenize, Token};

    const MONEY_CONTEXT: &[&str] = &["grossed", "gross", "earned", "made", "cost", "costs", "price", "priced"];

    /// The old gazetteer: first lowercase token -> phrases sharing it, longest
    /// first.
    #[derive(Default)]
    struct OracleGazetteer {
        by_first: HashMap<String, Vec<(Vec<String>, EntityType, f64)>>,
    }

    impl OracleGazetteer {
        fn add(&mut self, phrase: &str, entity_type: EntityType, confidence: f64) {
            let toks: Vec<String> = tokenize(phrase)
                .iter()
                .filter(|t| t.text.chars().any(char::is_alphanumeric))
                .map(|t| t.text.to_lowercase())
                .collect();
            if toks.is_empty() {
                return;
            }
            let first = toks[0].clone();
            let bucket = self.by_first.entry(first).or_default();
            if bucket.iter().any(|(p, t, _)| *p == toks && *t == entity_type) {
                return;
            }
            bucket.push((toks, entity_type, confidence));
            bucket.sort_by_key(|(p, _, _)| std::cmp::Reverse(p.len()));
        }

        fn find(&self, text: &str) -> Vec<Mention> {
            let tokens: Vec<Token> = tokenize(text)
                .into_iter()
                .filter(|t| t.text.chars().any(char::is_alphanumeric))
                .collect();
            let lowered: Vec<String> = tokens.iter().map(|t| t.text.to_lowercase()).collect();
            let mut out = Vec::new();
            let mut i = 0usize;
            while i < tokens.len() {
                let mut advanced = false;
                if let Some(bucket) = self.by_first.get(&lowered[i]) {
                    for (phrase, ty, conf) in bucket {
                        if i + phrase.len() <= tokens.len()
                            && lowered[i..i + phrase.len()] == phrase[..]
                        {
                            let start = tokens[i].start;
                            let end = tokens[i + phrase.len() - 1].end;
                            out.push(Mention::new(*ty, &text[start..end], start, end, *conf));
                            i += phrase.len();
                            advanced = true;
                            break;
                        }
                    }
                }
                if !advanced {
                    i += 1;
                }
            }
            out
        }
    }

    fn oracle_parse(gazetteer: &OracleGazetteer, text: &str) -> ParsedFragment {
        let spans = scan_all(text);
        let mut mentions = gazetteer.find(text);
        for s in &spans {
            if s.kind == SpanKind::Url {
                mentions.push(Mention::new(EntityType::Url, &s.text, s.start, s.end, 0.99));
            }
        }
        for s in &spans {
            if s.kind == SpanKind::QuotedTitle {
                let covered = mentions
                    .iter()
                    .any(|m| m.start < s.end && s.start < m.end);
                if !covered {
                    mentions.push(Mention::new(EntityType::Movie, &s.text, s.start, s.end, 0.6));
                }
            }
        }
        heuristic_mentions(text, &mut mentions);
        let mentions = resolve_overlaps(mentions);
        let spans = spans
            .into_iter()
            .filter(|s| !matches!(s.kind, SpanKind::Url | SpanKind::QuotedTitle))
            .collect();
        ParsedFragment { text: text.to_owned(), mentions, spans }
    }

    fn heuristic_mentions(text: &str, out: &mut Vec<Mention>) {
        let tokens: Vec<Token> = tokenize(text)
            .into_iter()
            .filter(|t| t.text.chars().any(char::is_alphanumeric))
            .collect();
        let lower: Vec<String> = tokens.iter().map(|t| t.text.to_lowercase()).collect();
        for (i, t) in tokens.iter().enumerate() {
            if POSITIONS.contains(&lower[i].as_str()) {
                out.push(Mention::new(EntityType::Position, t.text, t.start, t.end, 0.8));
            }
        }
        let mut i = 0usize;
        while i < tokens.len() {
            if !run_starts_here(&tokens, i) {
                i += 1;
                continue;
            }
            let mut j = i;
            while j < tokens.len() && tokens[j].is_capitalized() && j - i < 4 {
                j += 1;
            }
            let run_len = j - i;
            let start = tokens[i].start;
            let end = tokens[j - 1].end;
            let surface = &text[start..end];
            let run_ends_in_suffix =
                run_len >= 2 && COMPANY_SUFFIXES.contains(&lower[j - 1].trim_end_matches('.'));
            let followed_by_suffix =
                j < tokens.len() && COMPANY_SUFFIXES.contains(&lower[j].trim_end_matches('.'));
            if run_ends_in_suffix {
                out.push(Mention::new(EntityType::Company, surface, start, end, 0.85));
                i = j;
                continue;
            }
            if followed_by_suffix {
                let end2 = tokens[j].end;
                out.push(Mention::new(EntityType::Company, &text[start..end2], start, end2, 0.85));
                i = j + 1;
                continue;
            }
            if FACILITY_SUFFIXES.contains(&lower[j - 1].as_str()) && run_len >= 2 {
                out.push(Mention::new(EntityType::Facility, surface, start, end, 0.8));
                i = j;
                continue;
            }
            let honorific_before =
                i > 0 && HONORIFICS.contains(&lower[i - 1].trim_end_matches('.'));
            let speech_after = j < tokens.len() && SPEECH_VERBS.contains(&lower[j].as_str());
            if (honorific_before || speech_after) && (1..=3).contains(&run_len) {
                out.push(Mention::new(EntityType::Person, surface, start, end, 0.75));
                i = j;
                continue;
            }
            i = j.max(i + 1);
        }
    }

    fn run_starts_here(tokens: &[Token], i: usize) -> bool {
        if !tokens[i].is_capitalized() {
            return false;
        }
        let lower = tokens[i].text.to_lowercase();
        let next_cap = tokens.get(i + 1).is_some_and(|t| t.is_capitalized());
        !crate::normalize::is_stopword(&lower) || next_cap
    }

    fn scan_all(text: &str) -> Vec<Span> {
        let tokens = tokenize(text);
        let mut spans = Vec::new();
        scan_urls(text, &mut spans);
        scan_quoted_titles(text, &mut spans);
        scan_money(text, &tokens, &mut spans);
        scan_percent(text, &tokens, &mut spans);
        scan_dates(text, &tokens, &mut spans);
        scan_times(&tokens, &mut spans);
        spans.sort_by_key(|s| (s.start, s.end));
        spans
    }
    fn scan_urls(raw: &str, out: &mut Vec<Span>) {
        // The tokenizer splits at "://", so scan the raw text for scheme
        // markers and take each URL forward to the next whitespace.
        let mut search = 0usize;
        while search < raw.len() {
            let rest = &raw[search..];
            let rel = ["http://", "https://", "www."]
                .iter()
                .filter_map(|m| rest.find(m))
                .min();
            let Some(rel) = rel else { break };
            let start = search + rel;
            let end = raw[start..]
                .find(char::is_whitespace)
                .map(|i| start + i)
                .unwrap_or(raw.len());
            // Trim trailing punctuation.
            let mut end = end;
            while end > start {
                let last = raw[start..end].chars().next_back().unwrap();
                if matches!(last, '.' | ',' | ')' | '"' | '\'' | ';') {
                    end -= last.len_utf8();
                } else {
                    break;
                }
            }
            let candidate = &raw[start..end];
            if candidate.len() > 8 && candidate.contains('.') {
                out.push(Span {
                    kind: SpanKind::Url,
                    text: candidate.to_owned(),
                    start,
                    end,
                });
            }
            search = end.max(start + 1);
        }
    }

    fn scan_quoted_titles(text: &str, out: &mut Vec<Span>) {
        // Both straight and curly double quotes.
        let opens: &[char] = &['"', '\u{201c}'];
        let closes: &[char] = &['"', '\u{201d}'];
        let mut idx = 0usize;
        while idx < text.len() {
            let rest = &text[idx..];
            let Some(open_rel) = rest.find(opens) else { break };
            let open_abs = idx + open_rel;
            let open_char_len = text[open_abs..].chars().next().unwrap().len_utf8();
            let inner_start = open_abs + open_char_len;
            let Some(close_rel) = text[inner_start..].find(closes) else { break };
            let close_abs = inner_start + close_rel;
            let inner = &text[inner_start..close_abs];
            // A plausible title: 1..=8 words, at least one capitalised word,
            // no sentence punctuation inside.
            let words: Vec<&str> = inner.split_whitespace().collect();
            let ok = !words.is_empty()
                && words.len() <= 8
                && words.iter().any(|w| w.chars().next().is_some_and(char::is_uppercase))
                && !inner.contains(['.', ';', '!', '?']);
            if ok {
                out.push(Span {
                    kind: SpanKind::QuotedTitle,
                    text: inner.to_owned(),
                    start: inner_start,
                    end: close_abs,
                });
            }
            idx = close_abs + text[close_abs..].chars().next().unwrap().len_utf8();
        }
    }

    fn scan_money(text: &str, tokens: &[Token], out: &mut Vec<Span>) {
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            // Symbol-prefixed: "$" "960,998" (tokenizer splits the symbol off).
            if matches!(t.text, "$" | "€" | "£" | "¥") {
                if let Some(next) = tokens.get(i + 1) {
                    if next.is_numeric() {
                        out.push(Span {
                            kind: SpanKind::Money,
                            text: text[t.start..next.end].to_owned(),
                            start: t.start,
                            end: next.end,
                        });
                        i += 2;
                        continue;
                    }
                }
            }
            // Suffix code: "27 USD" / "27 dollars" / "27 euros".
            if t.is_numeric() {
                if let Some(next) = tokens.get(i + 1) {
                    let lower = next.text.to_lowercase();
                    if matches!(lower.as_str(), "usd" | "eur" | "gbp" | "dollars" | "euros" | "pounds")
                    {
                        out.push(Span {
                            kind: SpanKind::Money,
                            text: text[t.start..next.end].to_owned(),
                            start: t.start,
                            end: next.end,
                        });
                        i += 2;
                        continue;
                    }
                }
                // Context-word gross: "grossed 960,998".
                if i > 0 {
                    let prev = tokens[i - 1].text.to_lowercase();
                    if MONEY_CONTEXT.contains(&prev.as_str())
                        && infer::parse_integer(t.text).is_some_and(|v| v >= 1000)
                    {
                        out.push(Span {
                            kind: SpanKind::Gross,
                            text: t.text.to_owned(),
                            start: t.start,
                            end: t.end,
                        });
                    }
                }
            }
            i += 1;
        }
    }

    fn scan_percent(text: &str, tokens: &[Token], out: &mut Vec<Span>) {
        for i in 0..tokens.len() {
            if !tokens[i].is_numeric() {
                continue;
            }
            if let Some(next) = tokens.get(i + 1) {
                let is_pct = next.text == "%" || next.text.eq_ignore_ascii_case("percent");
                if is_pct {
                    out.push(Span {
                        kind: SpanKind::Percent,
                        text: text[tokens[i].start..next.end].to_owned(),
                        start: tokens[i].start,
                        end: next.end,
                    });
                }
            }
        }
    }

    fn scan_dates(text: &str, tokens: &[Token], out: &mut Vec<Span>) {
        for (i, t) in tokens.iter().enumerate() {
            // Slash-numeric dates arrive as one token? '/' is not internal punct,
            // so "3/4/2013" tokenizes as 3 / 4 / 2013 — stitch a 5-token window.
            if t.is_numeric() && tokens.get(i + 1).map(|x| x.text) == Some("/") {
                if let (Some(b), Some(s2), Some(c)) =
                    (tokens.get(i + 2), tokens.get(i + 3), tokens.get(i + 4))
                {
                    if b.is_numeric() && s2.text == "/" && c.is_numeric() {
                        let candidate = &text[t.start..c.end];
                        if infer::parse_date(candidate).is_some() {
                            out.push(Span {
                                kind: SpanKind::Date,
                                text: candidate.to_owned(),
                                start: t.start,
                                end: c.end,
                            });
                        }
                    }
                }
            }
            // Month-name dates: "March 4, 2013" => tokens [March][4][,?][2013].
            if t.is_capitalized() {
                let window_end = (i + 4).min(tokens.len());
                for j in (i + 2)..=window_end.saturating_sub(1) {
                    let candidate = text[t.start..tokens[j].end].to_owned();
                    if infer::parse_date(&candidate).is_some() {
                        out.push(Span {
                            kind: SpanKind::Date,
                            text: candidate,
                            start: t.start,
                            end: tokens[j].end,
                        });
                        break;
                    }
                }
            }
        }
    }

    fn scan_times(tokens: &[Token], out: &mut Vec<Span>) {
        for t in tokens {
            let lower = t.text.to_lowercase();
            let looks_like_time = (lower.ends_with("am") || lower.ends_with("pm"))
                && lower.chars().next().is_some_and(|c| c.is_ascii_digit());
            if looks_like_time && infer::infer_str(&lower) == infer::LexicalType::Time {
                out.push(Span { kind: SpanKind::Time, text: t.text.to_owned(), start: t.start, end: t.end });
            }
        }
    }

    /// The new parser and the oracle, seeded with the same phrases in the same
    /// order.
    fn pair(adds: &[(&str, EntityType, f64)]) -> (DomainParser, OracleGazetteer) {
        let mut gazetteer = Gazetteer::new();
        let mut oracle = OracleGazetteer::default();
        for &(phrase, ty, conf) in adds {
            gazetteer.add(phrase, ty, conf);
            oracle.add(phrase, ty, conf);
        }
        (DomainParser::with_gazetteer(gazetteer), oracle)
    }

    fn assert_same(parser: &DomainParser, oracle: &OracleGazetteer, text: &str) {
        let got = parser.parse(text);
        let want = oracle_parse(oracle, text);
        assert_eq!(got.mentions, want.mentions, "mentions of {text:?}");
        assert_eq!(got.spans, want.spans, "spans of {text:?}");
        assert_eq!(got.to_instance_doc(), want.to_instance_doc(), "instance doc of {text:?}");
        assert_eq!(got.entity_docs(), want.entity_docs(), "entity docs of {text:?}");
    }

    /// The type of the same name in this build of the crate (the corpus links
    /// its own).
    fn local_type(name: &str) -> EntityType {
        EntityType::ALL
            .into_iter()
            .find(|t| t.name() == name)
            .unwrap_or_else(|| panic!("unknown entity type {name}"))
    }

    #[test]
    fn corpus_fragments_parse_as_the_oracle_does() {
        use datatamer_corpus::{names, WebTextConfig, WebTextCorpus};
        for seed in [0xDA7A_7A3E, 7] {
            let corpus = WebTextCorpus::generate(&WebTextConfig {
                num_fragments: 250,
                seed,
                padding_sentences: 2,
                ..Default::default()
            });
            // Replay the generator's gazetteer seeding: every show, London for
            // the pinned feed, then each fragment's background surfaces.
            let mut adds: Vec<(&str, EntityType, f64)> =
                names::all_shows().into_iter().map(|s| (s, EntityType::Movie, 0.95)).collect();
            adds.push(("London", EntityType::City, 0.9));
            for f in corpus.fragments.iter().skip(1) {
                for (ty, surface) in f.embedded.iter().skip(1) {
                    adds.push((surface, local_type(ty.name()), 0.9));
                }
            }
            let mut replayed = Gazetteer::new();
            for &(phrase, ty, conf) in &adds {
                replayed.add(phrase, ty, conf);
            }
            assert_eq!(replayed.len(), corpus.gazetteer.len(), "seed {seed}");
            let (parser, oracle) = pair(&adds);
            let mut mentions = 0;
            for f in &corpus.fragments {
                assert_same(&parser, &oracle, &f.text);
                mentions += parser.parse(&f.text).mentions.len();
            }
            assert!(mentions > 3 * corpus.fragments.len(), "seed {seed}: {mentions} mentions");
        }
    }

    #[test]
    fn a_phrase_word_that_is_also_a_keyword_keeps_both_roles() {
        use crate::gazetteer::keys;
        // "Theatre" is a phrase word and a facility suffix; "The" is a
        // whole phrase and a stopword.
        let adds =
            [("Shubert Theatre", EntityType::Facility, 0.6), ("The", EntityType::Movie, 0.1)];
        let (parser, oracle) = pair(&adds);
        assert!(parser.gazetteer.probe("theatre").is(keys::FACILITY_SUFFIX));
        assert!(parser.gazetteer.probe("the").is(keys::STOPWORD));
        assert_eq!(parser.gazetteer.len(), 2);
        for text in [
            "playing at the Shubert Theatre nightly",
            "The Majestic Theatre and The Shubert Theatre",
            "THE SHUBERT THEATRE, The said",
            "Shubert Theatre Inc said the Theatre was full",
        ] {
            assert_same(&parser, &oracle, text);
        }
        let f = parser.parse("playing at the Shubert Theatre nightly");
        let got: Vec<(&str, EntityType, f64)> =
            f.mentions.iter().map(|m| (m.text.as_str(), m.entity_type, m.confidence)).collect();
        // The heuristic facility (0.8) outranks the gazetteer's (0.6); the
        // lone stopword "the" still matches its phrase.
        assert_eq!(
            got,
            vec![("the", EntityType::Movie, 0.1), ("Shubert Theatre", EntityType::Facility, 0.8)]
        );
    }

    /// Pieces the proptest glues into adversarial fragments.
    const PIECES: &[&str] = &[
        "Matilda", "MATILDA", "New", "York", "Times", "Recorded", "Future", "Inc", "inc.", "Corp",
        "Shubert", "Theatre", "Mr.", "Dr", "said", "announced", "The", "the", "And", "of",
        "producer", "CEO", "ΑΣ", "ΑΣ:Β", "Σ", "İstanbul", "ǅemal", "café", "Maé", "\u{212a}elvin",
        "\"", "\u{201c}", "\u{201d}", "'", ",", ".", ":", "/", "$", "€", "%", "percent", "USD",
        "Dollars", "GROSSED", "960,998", "1,250", "27", "7pm", "11AM", "19:30", "3/4/2013",
        "2/31/2013", "Feb 30, 2013", "February 29, 2012", "March 4, 2013", "Mar", "4", "2013",
        "Sept", "http://playbill.com/matilda", "www.broadway.org.", "https://x.y/z\"", "W.",
        "U.S.", "O'Brien", "award-winning",
    ];

    /// Gazetteer phrases the proptest seeds in a generated order, with
    /// equal-token duplicates of different types and confidences.
    const PHRASES: &[(&str, EntityType, f64)] = &[
        ("Matilda", EntityType::Movie, 0.95),
        ("matilda", EntityType::Person, 0.99),
        ("New York", EntityType::City, 0.9),
        ("New York Times", EntityType::Company, 0.9),
        ("new york times", EntityType::Organization, 0.7),
        ("Recorded Future", EntityType::Company, 0.8),
        ("Recorded, Future", EntityType::OrgEntity, 0.95),
        ("ΑΣ", EntityType::GeoEntity, 0.9),
        ("ας", EntityType::Product, 0.5),
        ("İstanbul", EntityType::City, 0.9),
        ("Shubert Theatre", EntityType::Facility, 0.6),
        ("The", EntityType::Movie, 0.1),
        ("...", EntityType::Movie, 1.0),
    ];

    proptest! {
        #[test]
        fn adversarial_fragments_parse_as_the_oracle_does(
            picks in prop::collection::vec(0..PIECES.len(), 0..30),
            glue in prop::collection::vec(0..4usize, 0..30),
            adds in prop::collection::vec(0..PHRASES.len(), 0..10),
        ) {
            let mut text = String::new();
            for (k, p) in picks.iter().enumerate() {
                text.push_str(PIECES[*p]);
                text.push_str([" ", "", ", ", "  "][glue.get(k).copied().unwrap_or(0)]);
            }
            let adds: Vec<_> = adds.iter().map(|&i| PHRASES[i]).collect();
            let (parser, oracle) = pair(&adds);
            assert_same(&parser, &oracle, &text);
        }
    }
}
