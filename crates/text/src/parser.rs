//! The domain-specific parser: raw fragments → hierarchical documents.
//!
//! This is Figure 1's "user-defined module". It layers three extractors —
//! gazetteers, pattern scanners, and contextual heuristics — over a text
//! fragment and emits:
//!
//! * one hierarchical **instance document** (the WEBINSTANCE row): the
//!   fragment text plus its extracted entity array and scanned attributes;
//! * one flat **entity document** per mention (the WEBENTITIES rows).

use datatamer_model::{doc, Document, Value};

use crate::gazetteer::Gazetteer;
use crate::mention::{EntityType, Mention};
use crate::normalize::canonical_name;
use crate::scan::{scan_all, Span, SpanKind};
use crate::tokenize::{tokenize, Token};

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
    /// Convert to the hierarchical WEBINSTANCE document.
    ///
    /// Shape: `{ fragment, chars, entities: [{type, name, canonical,
    /// start, end, confidence}...], amounts: [...], dates: [...],
    /// times: [...] }`.
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
        let collect_kind = |kinds: &[SpanKind]| -> Vec<Value> {
            self.spans
                .iter()
                .filter(|s| kinds.contains(&s.kind))
                .map(|s| Value::Str(s.text.clone()))
                .collect()
        };
        let mut d = doc! {
            "fragment" => self.text.clone(),
            "chars" => self.text.len()
        };
        if !entities.is_empty() {
            d.set("entities", Value::Array(entities));
        }
        let amounts = collect_kind(&[SpanKind::Money, SpanKind::Gross]);
        if !amounts.is_empty() {
            d.set("amounts", Value::Array(amounts));
        }
        let dates = collect_kind(&[SpanKind::Date]);
        if !dates.is_empty() {
            d.set("dates", Value::Array(dates));
        }
        let times = collect_kind(&[SpanKind::Time]);
        if !times.is_empty() {
            d.set("times", Value::Array(times));
        }
        let percents = collect_kind(&[SpanKind::Percent]);
        if !percents.is_empty() {
            d.set("percents", Value::Array(percents));
        }
        d
    }

    /// Flat entity documents (WEBENTITIES rows), one per mention, each
    /// carrying a context window of the surrounding fragment.
    pub fn entity_docs(&self) -> Vec<Document> {
        self.mentions
            .iter()
            .map(|m| {
                let ctx_start = self.text[..m.start]
                    .char_indices()
                    .rev()
                    .nth(30)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                let ctx_end = self.text[m.end..]
                    .char_indices()
                    .nth(30)
                    .map(|(i, _)| m.end + i)
                    .unwrap_or(self.text.len());
                doc! {
                    "type" => m.entity_type.name(),
                    "name" => m.text.clone(),
                    "canonical" => canonical_name(&m.text),
                    "confidence" => m.confidence,
                    "context" => self.text[ctx_start..ctx_end].to_owned()
                }
            })
            .collect()
    }
}

/// The domain-specific parser.
#[derive(Debug, Default, Clone)]
pub struct DomainParser {
    gazetteer: Gazetteer,
}

impl DomainParser {
    /// A parser with an empty gazetteer (heuristics + scanners only).
    pub fn new() -> Self {
        Self::default()
    }

    /// A parser seeded with a gazetteer.
    pub fn with_gazetteer(gazetteer: Gazetteer) -> Self {
        DomainParser { gazetteer }
    }

    /// Mutable access to the gazetteer for incremental seeding.
    pub fn gazetteer_mut(&mut self) -> &mut Gazetteer {
        &mut self.gazetteer
    }

    /// Parse one fragment.
    pub fn parse(&self, text: &str) -> ParsedFragment {
        let spans = scan_all(text);
        let mut mentions = self.gazetteer.find(text);

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
        self.heuristic_mentions(text, &mut mentions);
        let mentions = resolve_overlaps(mentions);
        let spans = spans
            .into_iter()
            .filter(|s| !matches!(s.kind, SpanKind::Url | SpanKind::QuotedTitle))
            .collect();
        ParsedFragment { text: text.to_owned(), mentions, spans }
    }

    /// Contextual heuristics over capitalised token runs.
    fn heuristic_mentions(&self, text: &str, out: &mut Vec<Mention>) {
        let tokens: Vec<Token> = tokenize(text)
            .into_iter()
            .filter(|t| t.text.chars().any(char::is_alphanumeric))
            .collect();
        let lower: Vec<String> = tokens.iter().map(|t| t.text.to_lowercase()).collect();

        // Position titles are direct dictionary hits.
        for (i, t) in tokens.iter().enumerate() {
            if POSITIONS.contains(&lower[i].as_str()) {
                out.push(Mention::new(EntityType::Position, t.text, t.start, t.end, 0.8));
            }
        }

        // Capitalised runs (2+ letters, not sentence-initial-only heuristic:
        // we accept all runs and let context decide the type).
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

            // Company: run ending in (or followed by) a company designator,
            // e.g. "Recorded Future Inc" / "Recorded Future inc".
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
                out.push(Mention::new(
                    EntityType::Company,
                    &text[start..end2],
                    start,
                    end2,
                    0.85,
                ));
                i = j + 1;
                continue;
            }
            // Facility: run whose last token is a facility designator.
            if FACILITY_SUFFIXES.contains(&lower[j - 1].as_str()) && run_len >= 2 {
                out.push(Mention::new(EntityType::Facility, surface, start, end, 0.8));
                i = j;
                continue;
            }
            // Person: honorific before, or speech verb after, 2-3 token run.
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
}

/// Whether a capitalised run may begin at token `i` — skip obviously
/// sentence-initial lone stopword-ish words ("The", "And").
fn run_starts_here(tokens: &[Token], i: usize) -> bool {
    if !tokens[i].is_capitalized() {
        return false;
    }
    let lower = tokens[i].text.to_lowercase();
    let next_cap = tokens.get(i + 1).is_some_and(|t| t.is_capitalized());
    // A lone capitalised stopword is not a run start unless followed by
    // another capitalised token ("The Walking Dead").
    !crate::normalize::is_stopword(&lower) || next_cap
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
        let amounts = d.get("amounts").unwrap().as_array().unwrap();
        assert_eq!(amounts[0], Value::from("960,998"));
        let dates = d.get("dates").unwrap().as_array().unwrap();
        assert_eq!(dates[0], Value::from("3/4/2013"));
        let pcts = d.get("percents").unwrap().as_array().unwrap();
        assert_eq!(pcts[0], Value::from("93 percent"));
        // Entity subdocument carries canonical name.
        let ents = d.get("entities").unwrap().as_array().unwrap();
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
