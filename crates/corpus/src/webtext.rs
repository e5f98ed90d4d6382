//! Seeded web-text fragment generator (the Recorded Future stand-in).
//!
//! Every fragment is a short news / blog / tweet-style text discussing one
//! *primary* show plus background entities. Three calibrations tie the
//! output to the paper:
//!
//! 1. **Table IV**: primary shows are drawn Zipf-weighted with the paper's
//!    ten most-discussed award-winning titles at the top ranks, so the
//!    "top-10 most discussed award-winning movies/shows" query reproduces
//!    the paper's list.
//! 2. **Table III**: background entity mentions are drawn from the paper's
//!    entity-type distribution, so the WEBENTITIES per-type histogram lands
//!    on the paper's proportions.
//! 3. **Table V**: one fragment is pinned to the paper's literal Matilda
//!    text feed, so the Matilda demo query returns the paper's TEXT_FEED.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use datatamer_text::{EntityType, Gazetteer};

use crate::names;

/// The paper's verbatim Matilda text feed (Table V / Table VI `TEXT_FEED`).
pub const MATILDA_FEED: &str = "..which began previews on Tuesday, grossed 659,391, \
or...And Matilda an award-winning import from London, grossed 960,998, or 93 percent \
of the maximum.";

/// Style of a generated fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragmentKind {
    News,
    Blog,
    Tweet,
}

impl FragmentKind {
    /// Label stored in the instance document's `source` field.
    pub fn label(self) -> &'static str {
        match self {
            FragmentKind::News => "news",
            FragmentKind::Blog => "blog",
            FragmentKind::Tweet => "twitter",
        }
    }
}

/// One generated fragment with its generation-time ground truth.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The text as the "web" serves it.
    pub text: String,
    /// Style.
    pub kind: FragmentKind,
    /// The primary show discussed.
    pub show: String,
    /// Entity mentions the generator embedded: `(type, surface)`.
    pub embedded: Vec<(EntityType, String)>,
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct WebTextConfig {
    /// Number of fragments to generate.
    pub num_fragments: usize,
    /// RNG seed; same seed → identical corpus.
    pub seed: u64,
    /// Zipf exponent for show discussion frequency (higher = steeper).
    pub zipf_exponent: f64,
    /// Mean background entity mentions per fragment.
    pub background_mentions: usize,
    /// Entity-free filler sentences appended per fragment. The paper's
    /// WEBINSTANCE fragments are full web-page excerpts (~27 KB/doc at
    /// 17.7M docs over 242×2 GB extents); padding lets the stats
    /// experiments reproduce that document-size contrast without changing
    /// entity counts.
    pub padding_sentences: usize,
}

impl Default for WebTextConfig {
    fn default() -> Self {
        WebTextConfig {
            num_fragments: 2_000,
            seed: 0xDA7A_7A3E,
            zipf_exponent: 0.7,
            background_mentions: 3,
            padding_sentences: 0,
        }
    }
}

/// The generated corpus plus calibration ground truth.
#[derive(Debug)]
pub struct WebTextCorpus {
    /// All fragments (pinned Matilda feed first).
    pub fragments: Vec<Fragment>,
    /// Gazetteer covering every embedded entity surface, typed.
    pub gazetteer: Gazetteer,
    /// Embedded mention counts per entity type.
    pub type_counts: HashMap<EntityType, u64>,
    /// Fragments-per-show discussion counts.
    pub discussion_counts: HashMap<String, u64>,
}

impl WebTextCorpus {
    /// Generate a corpus.
    pub fn generate(config: &WebTextConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let shows = names::all_shows();
        let zipf = ZipfTable::new(shows.len(), config.zipf_exponent);

        let mut gazetteer = Gazetteer::new();
        let mut type_counts: HashMap<EntityType, u64> = HashMap::new();
        let mut discussion_counts: HashMap<String, u64> = HashMap::new();
        // Seed the gazetteer with every show so primary mentions always parse.
        for s in &shows {
            gazetteer.add(s, EntityType::Movie, 0.95);
        }
        let type_sampler = TypeSampler::from_paper();

        let mut fragments = Vec::with_capacity(config.num_fragments.max(1));
        // Fragment 0: the paper's literal Matilda feed.
        gazetteer.add("London", EntityType::City, 0.9);
        fragments.push(Fragment {
            text: MATILDA_FEED.to_owned(),
            kind: FragmentKind::News,
            show: "Matilda".to_owned(),
            embedded: vec![
                (EntityType::Movie, "Matilda".to_owned()),
                (EntityType::City, "London".to_owned()),
            ],
        });
        *discussion_counts.entry("Matilda".to_owned()).or_insert(0) += 1;
        *type_counts.entry(EntityType::Movie).or_insert(0) += 1;
        *type_counts.entry(EntityType::City).or_insert(0) += 1;

        let award: std::collections::HashSet<&str> =
            crate::names::award_winning_shows().into_iter().collect();
        while fragments.len() < config.num_fragments {
            let show = shows[zipf.sample(&mut rng)];
            let kind = match rng.random_range(0..10) {
                0..=4 => FragmentKind::News,
                5..=7 => FragmentKind::Blog,
                _ => FragmentKind::Tweet,
            };
            let is_award = award.contains(show);
            let mut embedded = vec![(EntityType::Movie, show.to_owned())];
            let mut text = primary_sentence(&mut rng, show, kind, is_award);
            // Background entity sentences.
            let n_bg = rng.random_range(1..=config.background_mentions.max(1) * 2 - 1);
            for _ in 0..n_bg {
                let ty = type_sampler.sample(&mut rng);
                let (sentence, surface) = background_sentence(&mut rng, ty);
                gazetteer.add(&surface, ty, 0.9);
                embedded.push((ty, surface));
                text.push(' ');
                text.push_str(&sentence);
            }
            // Filler choice avoids the RNG so padded and unpadded corpora
            // share the same entity stream for a given seed.
            for k in 0..config.padding_sentences {
                text.push(' ');
                text.push_str(FILLER[(fragments.len() + k) % FILLER.len()]);
            }
            for (ty, _) in &embedded {
                *type_counts.entry(*ty).or_insert(0) += 1;
            }
            *discussion_counts.entry(show.to_owned()).or_insert(0) += 1;
            fragments.push(Fragment { text, kind, show: show.to_owned(), embedded });
        }

        WebTextCorpus { fragments, gazetteer, type_counts, discussion_counts }
    }
}

fn primary_sentence(rng: &mut StdRng, show: &str, kind: FragmentKind, award: bool) -> String {
    let (theater, _) = names::THEATERS[rng.random_range(0..names::THEATERS.len())];
    let gross = 100_000 + rng.random_range(0..900_000);
    let gross = format!("{},{:03}", gross / 1000, gross % 1000);
    let pct = rng.random_range(55..100);
    let price = rng.random_range(25..150);
    let weekday =
        ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday"][rng.random_range(0..5)];
    // Award-winning titles get the descriptor often enough that the Table IV
    // query can recover awardness from the text itself (the paper's feed
    // says "an award-winning import from London").
    let descriptor = if award && rng.random_bool(0.5) {
        " the award-winning production,"
    } else {
        ""
    };
    match kind {
        FragmentKind::News => {
            // Half the news items use the paper's "began previews" phrasing;
            // the other half avoid it so the organic IndustryTerm rate stays
            // near Table III's share.
            let verb = if rng.random_bool(0.5) { "began previews" } else { "opened" };
            format!(
                "\"{show}\",{descriptor} which {verb} on {weekday}, grossed {gross}, \
                 or {pct} percent of the maximum at the {theater} Theatre."
            )
        }
        FragmentKind::Blog => format!(
            "I finally caught \"{show}\",{descriptor} at the {theater} Theatre last {weekday} \
             and the ticket desk said seats start at ${price}."
        ),
        FragmentKind::Tweet => {
            format!("Just saw {show}!{descriptor} Tickets from ${price}, totally worth it.")
        }
    }
}

fn background_sentence(rng: &mut StdRng, ty: EntityType) -> (String, String) {
    match ty {
        EntityType::Person => {
            let p = names::random_person(rng);
            (format!("{p} said the production exceeded every expectation."), p)
        }
        EntityType::OrgEntity => {
            let last = names::LAST_NAMES[rng.random_range(0..names::LAST_NAMES.len())];
            let kind = ["Group", "Holdings", "Partners", "Ventures"][rng.random_range(0..4)];
            let o = format!("{last} {kind}");
            (format!("Backing came from {o} this season."), o)
        }
        EntityType::GeoEntity => {
            let g = names::GEO_ENTITIES[rng.random_range(0..names::GEO_ENTITIES.len())];
            (format!("Crowds gathered near {g} before curtain."), g.to_owned())
        }
        EntityType::Url => {
            let u = names::random_url(rng);
            (format!("Full schedule at {u} today."), u)
        }
        EntityType::IndustryTerm => {
            let t = names::INDUSTRY_TERMS[rng.random_range(0..names::INDUSTRY_TERMS.len())];
            (format!("Analysts noted the {t} trend continuing."), t.to_owned())
        }
        EntityType::Position => {
            let p = names::POSITIONS[rng.random_range(0..names::POSITIONS.len())];
            (format!("The {p} praised the ensemble warmly."), p.to_owned())
        }
        EntityType::Company => {
            let c = names::random_company(rng);
            (format!("{c} sponsored the gala performance."), c)
        }
        EntityType::Product => {
            let p = names::PRODUCTS[rng.random_range(0..names::PRODUCTS.len())];
            (format!("Fans followed along on their {p} devices."), p.to_owned())
        }
        EntityType::Organization => {
            let o = names::ORGANIZATIONS[rng.random_range(0..names::ORGANIZATIONS.len())];
            (format!("{o} hosted the opening reception."), o.to_owned())
        }
        EntityType::Facility => {
            let f = names::FACILITIES[rng.random_range(0..names::FACILITIES.len())];
            (format!("An afterparty followed at {f}."), f.to_owned())
        }
        EntityType::City => {
            let c = names::CITIES[rng.random_range(0..names::CITIES.len())];
            (format!("The touring company stops in {c} next."), c.to_owned())
        }
        EntityType::MedicalCondition => {
            let m = names::MEDICAL_CONDITIONS[rng.random_range(0..names::MEDICAL_CONDITIONS.len())];
            (format!("The understudy stepped in after a bout of {m}."), m.to_owned())
        }
        EntityType::Technology => {
            let t = names::TECHNOLOGIES[rng.random_range(0..names::TECHNOLOGIES.len())];
            (format!("The staging leans on {t} effects."), t.to_owned())
        }
        EntityType::Movie => {
            let s = names::all_shows();
            let m = s[rng.random_range(0..s.len())];
            (format!("Critics drew comparisons to {m} all week."), m.to_owned())
        }
        EntityType::ProvinceOrState => {
            let p = names::PROVINCES[rng.random_range(0..names::PROVINCES.len())];
            (format!("Bus tours arrived from across {p}."), p.to_owned())
        }
    }
}

/// Entity-free filler sentences (lowercase starts so the parser's
/// capitalised-run heuristics never fire on padding).
const FILLER: [&str; 8] = [
    "the crew rehearsed through the weekend without interruption.",
    "ushers reported steady walk-up interest at the ticket window.",
    "the orchestra tuned for several minutes while the hall filled slowly.",
    "stagehands reset the turntable twice between the afternoon runs.",
    "the lighting desk logged no faults during the evening.",
    "concession lines stretched into the lobby well before the bell.",
    "staff confirmed the balcony opened for the late seating.",
    "programs ran short again and reprints were ordered for the weekend.",
];

/// Precomputed Zipf sampling table over ranks `0..n`.
struct ZipfTable {
    cumulative: Vec<f64>,
}

impl ZipfTable {
    fn new(n: usize, exponent: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(exponent);
            cumulative.push(acc);
        }
        ZipfTable { cumulative }
    }

    fn sample(&self, rng: &mut impl RngExt) -> usize {
        let total = *self.cumulative.last().expect("non-empty table");
        let x = rng.random::<f64>() * total;
        self.cumulative.partition_point(|&c| c < x).min(self.cumulative.len() - 1)
    }
}

/// Samples entity types with the paper's Table III frequencies.
struct TypeSampler {
    cumulative: Vec<(u64, EntityType)>,
    total: u64,
}

impl TypeSampler {
    fn from_paper() -> Self {
        let mut cumulative = Vec::with_capacity(EntityType::ALL.len());
        let mut acc = 0u64;
        for ty in EntityType::ALL {
            acc += ty.paper_count();
            cumulative.push((acc, ty));
        }
        TypeSampler { cumulative, total: acc }
    }

    fn sample(&self, rng: &mut impl RngExt) -> EntityType {
        let x = rng.random_range(0..self.total);
        let idx = self.cumulative.partition_point(|(c, _)| *c <= x);
        self.cumulative[idx.min(self.cumulative.len() - 1)].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(n: usize, seed: u64) -> WebTextCorpus {
        WebTextCorpus::generate(&WebTextConfig {
            num_fragments: n,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn deterministic_per_seed() {
        let a = corpus(50, 7);
        let b = corpus(50, 7);
        assert_eq!(a.fragments.len(), b.fragments.len());
        for (x, y) in a.fragments.iter().zip(&b.fragments) {
            assert_eq!(x.text, y.text);
        }
        let c = corpus(50, 8);
        assert_ne!(a.fragments[5].text, c.fragments[5].text);
    }

    #[test]
    fn matilda_feed_is_pinned_first() {
        let c = corpus(10, 1);
        assert_eq!(c.fragments[0].text, MATILDA_FEED);
        assert_eq!(c.fragments[0].show, "Matilda");
    }

    #[test]
    fn discussion_counts_match_fragments() {
        let c = corpus(300, 2);
        let total: u64 = c.discussion_counts.values().sum();
        assert_eq!(total, 300);
        assert_eq!(c.fragments.len(), 300);
    }

    #[test]
    fn zipf_puts_table_iv_shows_on_top() {
        let c = corpus(5_000, 42);
        let mut by_count: Vec<(&String, &u64)> = c.discussion_counts.iter().collect();
        by_count.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        let top10: Vec<&str> = by_count.iter().take(10).map(|(s, _)| s.as_str()).collect();
        // All of the paper's ten should dominate the discussion ranking.
        let hits = names::TABLE_IV_SHOWS.iter().filter(|s| top10.contains(*s)).count();
        assert!(hits >= 9, "Table IV shows in generated top10: {hits} ({top10:?})");
        assert_eq!(top10[0], "The Walking Dead");
    }

    #[test]
    fn type_mix_tracks_table_iii_proportions() {
        let c = corpus(4_000, 11);
        let total = c.type_counts.values().sum::<u64>() as f64;
        let persons = *c.type_counts.get(&EntityType::Person).unwrap_or(&0) as f64;
        let movies = *c.type_counts.get(&EntityType::Movie).unwrap_or(&0) as f64;
        // Person is the most common background type in the paper (~26%);
        // Movie is inflated here because every fragment has a primary show.
        assert!(persons / total > 0.10, "person share too low: {}", persons / total);
        assert!(movies > 0.0);
        let states = *c.type_counts.get(&EntityType::ProvinceOrState).unwrap_or(&0) as f64;
        assert!(
            states < persons,
            "rare types must stay rarer than common ones"
        );
    }

    #[test]
    fn gazetteer_covers_embedded_entities() {
        let c = corpus(200, 3);
        for f in &c.fragments {
            let found = c.gazetteer.find(&f.text);
            for (ty, surface) in &f.embedded {
                if *ty == EntityType::Url {
                    // URLs are scanner territory, not gazetteer entries.
                    continue;
                }
                // Ambiguous surfaces ("Chicago" the show vs. the city) may
                // resolve to a different type — surface recall is what the
                // gazetteer guarantees.
                assert!(
                    found.iter().any(|m| m.text.eq_ignore_ascii_case(surface)),
                    "embedded ({ty:?}, {surface}) not found in: {}",
                    f.text
                );
            }
        }
    }

    #[test]
    fn fragment_kinds_all_appear() {
        let c = corpus(300, 4);
        let news = c.fragments.iter().filter(|f| f.kind == FragmentKind::News).count();
        let blog = c.fragments.iter().filter(|f| f.kind == FragmentKind::Blog).count();
        let tweet = c.fragments.iter().filter(|f| f.kind == FragmentKind::Tweet).count();
        assert!(news > 0 && blog > 0 && tweet > 0);
        assert_eq!(news + blog + tweet, 300);
        assert_eq!(FragmentKind::Tweet.label(), "twitter");
    }

    #[test]
    fn padding_grows_fragments_without_new_entities() {
        let base = WebTextConfig { num_fragments: 50, seed: 5, ..Default::default() };
        let padded = WebTextConfig { padding_sentences: 6, ..base.clone() };
        let a = WebTextCorpus::generate(&base);
        let b = WebTextCorpus::generate(&padded);
        let mean = |c: &WebTextCorpus| {
            c.fragments.iter().map(|f| f.text.len()).sum::<usize>() as f64
                / c.fragments.len() as f64
        };
        assert!(mean(&b) > mean(&a) * 2.0, "{} vs {}", mean(&a), mean(&b));
        assert_eq!(a.type_counts, b.type_counts, "padding adds no entities");
    }

    #[test]
    fn zipf_table_is_monotone_and_in_range() {
        let t = ZipfTable::new(5, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = [0usize; 5];
        for _ in 0..1000 {
            let s = t.sample(&mut rng);
            assert!(s < 5);
            seen[s] += 1;
        }
        assert!(seen[0] > seen[4], "rank 0 must dominate rank 4: {seen:?}");
    }
}
