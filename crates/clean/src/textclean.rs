//! The ML text-cleaning / pre-processing extension.
//!
//! The paper's §IV trains an ML classifier on web text and uses it "for
//! deduplication and data cleaning"; §1's pipeline pre-processes and filters
//! WEBINSTANCE fragments before import. This module is the cleaning half: a
//! naive-Bayes filter that separates content fragments from web junk
//! (ads, navigation chrome, cookie banners) so that only real prose reaches
//! the domain parser.
//!
//! The text ingest asks [`TextCleaner::is_junk_words`] with the words the
//! parser's tokeniser already split, so a fragment is tokenised once for
//! both; [`TextCleaner::is_junk`] walks raw text itself and decides the
//! same.

use datatamer_ml::features::{SparseVec, Vocabulary};
use datatamer_ml::NaiveBayes;
use datatamer_model::{DtError, Result};

/// Built-in junk exemplars (ad / chrome / boilerplate language).
pub const JUNK_SEEDS: &[&str] = &[
    "click here to subscribe to our newsletter today",
    "accept cookies to continue browsing this site",
    "advertisement sponsored content buy now limited offer",
    "sign up login register forgot password",
    "terms of service privacy policy all rights reserved",
    "follow us on social media like and share",
    "free shipping order now discount code checkout cart",
    "enable javascript to view this page correctly",
    "related articles you may also like trending now",
    "download our app rate us leave a review",
];

/// Built-in content exemplars (editorial prose about shows).
pub const CONTENT_SEEDS: &[&str] = &[
    "the musical grossed well during previews at the theatre",
    "critics praised the award-winning import from london",
    "the production opened on broadway to strong reviews",
    "tickets for the evening performance sold out quickly",
    "the revival stars a celebrated stage actress",
    "box office receipts climbed ninety percent of the maximum",
    "the playwright discussed the new staging with reporters",
    "audiences gathered near times square before curtain",
    "the touring company announced additional cities this fall",
    "the composer and director spoke after the matinee",
];

/// A trained junk-vs-content fragment classifier.
pub struct TextCleaner {
    vocab: Vocabulary,
    model: NaiveBayes,
}

/// Classes used by the cleaner.
const CLASS_JUNK: usize = 0;
const CLASS_CONTENT: usize = 1;

impl TextCleaner {
    /// Train from explicit junk/content exemplars. An empty class is the
    /// error.
    pub fn train(junk: &[&str], content: &[&str]) -> Result<Self> {
        if junk.is_empty() || content.is_empty() {
            return Err(DtError::Invalid(
                "the text cleaner needs exemplars of both classes".into(),
            ));
        }
        let mut vocab = Vocabulary::new();
        for t in junk.iter().chain(content.iter()) {
            vocab.fit_doc(t);
        }
        let mut examples: Vec<(SparseVec, usize)> = Vec::with_capacity(junk.len() + content.len());
        for t in junk {
            examples.push((vocab.counts(t), CLASS_JUNK));
        }
        for t in content {
            examples.push((vocab.counts(t), CLASS_CONTENT));
        }
        let model = NaiveBayes::train(&examples, 2, vocab.len(), 0.5)
            .map_err(|e| DtError::Invalid(format!("text cleaner: {e}")))?;
        Ok(TextCleaner { vocab, model })
    }

    /// Train from the built-in seed corpora.
    pub fn with_builtin_seeds() -> Result<Self> {
        Self::train(JUNK_SEEDS, CONTENT_SEEDS)
    }

    /// True when the fragment looks like junk/boilerplate.
    pub fn is_junk(&self, fragment: &str) -> bool {
        self.model.predict(&self.vocab.counts(fragment)) == CLASS_JUNK
    }

    /// [`Self::is_junk`] of a fragment given as its words, each a word's
    /// raw text and lowercase form in text order, as the word tokens of
    /// `datatamer_text::tokenize` give them (see
    /// [`Vocabulary::counts_words`]). The decision is the one `is_junk`
    /// makes on the fragment's text.
    pub fn is_junk_words<'w>(&self, words: impl IntoIterator<Item = (&'w str, &'w str)>) -> bool {
        self.model.predict(&self.vocab.counts_words(words)) == CLASS_JUNK
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_text::Tokenized;
    use proptest::prelude::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The words-based scores equal the raw-text scores bit for bit, and
    /// the two junk checks agree.
    fn assert_words_score_as_text(cleaner: &TextCleaner, fragment: &str) {
        let tokenized = Tokenized::new(fragment);
        let got = cleaner.model.scores(&cleaner.vocab.counts_words(tokenized.words()));
        let want = cleaner.model.scores(&cleaner.vocab.counts(fragment));
        assert_eq!(bits(&got), bits(&want), "{fragment:?}");
        assert_eq!(
            cleaner.is_junk_words(tokenized.words()),
            cleaner.is_junk(fragment),
            "{fragment:?}"
        );
    }

    #[test]
    fn builtin_cleaner_separates_obvious_cases() {
        let cleaner = TextCleaner::with_builtin_seeds().unwrap();
        assert!(cleaner.is_junk("subscribe now and accept cookies for free shipping"));
        assert!(!cleaner.is_junk("the musical grossed 960,998 during previews on broadway"));
        assert!(!cleaner.is_junk("Matilda an award-winning import from London opened at the theatre"));
        assert!(!cleaner.is_junk("the production opened to strong reviews at the theatre"));
        assert!(cleaner.is_junk("click here to subscribe and accept cookies now"));
        assert!(!cleaner.is_junk("tickets for the performance sold out during previews"));
    }

    #[test]
    fn unknown_vocabulary_defaults_reasonably() {
        let cleaner = TextCleaner::with_builtin_seeds().unwrap();
        // With no vocabulary word the count vector is empty and the
        // balanced seed sets give equal priors: a tie, which
        // `NaiveBayes::predict` resolves to the last class, content.
        for fragment in ["", "zzz qqq xxx yyy", " ,.; \u{201c}\u{201d} "] {
            let scores = cleaner.model.scores(&cleaner.vocab.counts(fragment));
            assert_eq!(scores[0].to_bits(), scores[1].to_bits(), "{fragment:?} ties");
            assert!(!cleaner.is_junk(fragment), "{fragment:?} is kept as content");
        }
    }

    /// The class scores as they were before `Vocabulary::counts` streamed
    /// its tokens: `tokenize`'s `String`s, looked up one by one.
    fn oracle_scores(cleaner: &TextCleaner, fragment: &str) -> Vec<f64> {
        let pairs = datatamer_sim::tokens::tokenize(fragment)
            .into_iter()
            .filter_map(|t| cleaner.vocab.id_of(&t).map(|id| (id, 1.0)))
            .collect();
        cleaner.model.scores(&SparseVec::from_pairs(pairs))
    }

    #[test]
    fn junk_decisions_are_bit_identical_to_the_tokenize_oracle() {
        use datatamer_corpus::{WebTextConfig, WebTextCorpus};
        let cleaner = TextCleaner::with_builtin_seeds().unwrap();
        for seed in [0xDA7A_7A3E, 7] {
            let corpus = WebTextCorpus::generate(&WebTextConfig {
                num_fragments: 250,
                seed,
                padding_sentences: 2,
                ..Default::default()
            });
            let mut fragments: Vec<String> =
                corpus.fragments.iter().map(|f| f.text.clone()).collect();
            // Junk-leaning and mixed inputs, so both classes are decided.
            for (k, junk) in JUNK_SEEDS.iter().enumerate() {
                fragments.push(junk.to_uppercase());
                fragments.push(format!("{junk} {}", corpus.fragments[k].text));
            }
            let mut junk = 0;
            for f in &fragments {
                let got = cleaner.model.scores(&cleaner.vocab.counts(f));
                let want = oracle_scores(&cleaner, f);
                assert_eq!(bits(&got), bits(&want), "{f:?}");
                assert_words_score_as_text(&cleaner, f);
                junk += usize::from(cleaner.is_junk(f));
            }
            assert!(junk >= JUNK_SEEDS.len(), "seed {seed}: {junk} junk");
            assert!(junk < fragments.len() / 2, "seed {seed}: {junk} junk");
        }
    }

    #[test]
    fn words_score_as_text_on_a_batch_text_shaped_corpus() {
        // The benchmark's `batch_text` sizing: 1,200 fragments, each padded
        // with 24 filler sentences and ~9 background mentions.
        use datatamer_corpus::{WebTextConfig, WebTextCorpus};
        let cleaner = TextCleaner::with_builtin_seeds().unwrap();
        let corpus = WebTextCorpus::generate(&WebTextConfig {
            num_fragments: 1_200,
            seed: 0xDA7A,
            zipf_exponent: 0.7,
            background_mentions: 9,
            padding_sentences: 24,
        });
        assert_eq!(corpus.fragments.len(), 1_200);
        let mut junk = 0;
        for f in &corpus.fragments {
            assert_words_score_as_text(&cleaner, &f.text);
            junk += usize::from(cleaner.is_junk(&f.text));
        }
        assert!(junk < corpus.fragments.len() / 2, "{junk} junk");
    }

    #[test]
    fn words_score_as_text_on_fixed_cases() {
        let cleaner = TextCleaner::with_builtin_seeds().unwrap();
        let mut fragments = vec![
            "",
            "camelCase clickHere acceptCookies",
            "3D printing 3d 42Buy 7pm",
            "grossed 960,998, or 93 percent",
            "O'Brien's sign-up log-in",
            "ΑΣ:Β ΑΣ σ",
            "İstanbul \u{212a}elvin CAFÉ café ǅemal Straße",
            "XMLHttpRequest SIGN UP NOW",
            "click_here privacy.policy terms/of/service",
        ];
        let upper: Vec<String> = JUNK_SEEDS.iter().map(|j| j.to_uppercase()).collect();
        fragments.extend(JUNK_SEEDS.iter().chain(CONTENT_SEEDS));
        fragments.extend(upper.iter().map(String::as_str));
        for f in fragments {
            assert_words_score_as_text(&cleaner, f);
        }
    }

    /// Pieces the proptest glues into fragments: the seeds' words in
    /// several cases, camel case, digits before capitals, internal marks,
    /// and non-ASCII letters whose lowercase differs in length or depends
    /// on the next character (the final sigma).
    const PIECES: &[&str] = &[
        "click", "Click", "CLICK", "clickHere", "subscribe", "newsletter", "cookies", "Cookies",
        "accept", "free", "shipping", "buy", "now", "the", "The", "theatre", "broadway", "musical",
        "grossed", "3D", "3d", "42Buy", "960,998", "O'Brien", "sign-up", "U.S.", "W.", "ΑΣ:Β",
        "ΑΣ", "Σ", "σ", "İstanbul", "\u{212a}elvin", "CAFÉ", "café", "ß", "ǅemal", "x\u{301}",
        "Ⅻ", "🎭", "日本", "_", "-", ".", ",", "'", ":", "\"", "/",
    ];

    proptest! {
        #[test]
        fn words_score_as_text_on_generated_fragments(
            picks in prop::collection::vec(0..PIECES.len(), 0..30),
            glue in prop::collection::vec(0..3usize, 0..30),
        ) {
            let mut text = String::new();
            for (k, p) in picks.iter().enumerate() {
                text.push_str(PIECES[*p]);
                text.push_str(["", " ", "  "][glue.get(k).copied().unwrap_or(0)]);
            }
            assert_words_score_as_text(&TextCleaner::with_builtin_seeds().unwrap(), &text);
        }

        #[test]
        fn words_score_as_text_on_arbitrary_unicode(
            code_points in prop::collection::vec((any::<bool>(), 0u32..0x11_0000), 0..40),
        ) {
            // Half ASCII, so words, marks and camel breaks form; half any
            // scalar value.
            let text: String = code_points
                .iter()
                .filter_map(|&(ascii, c)| char::from_u32(if ascii { c % 128 } else { c }))
                .collect();
            assert_words_score_as_text(&TextCleaner::with_builtin_seeds().unwrap(), &text);
        }
    }

    #[test]
    fn empty_class_is_an_error() {
        for (junk, content) in [(&[][..], &["x"][..]), (&["x"][..], &[][..])] {
            let err = TextCleaner::train(junk, content).err();
            assert!(
                matches!(&err, Some(DtError::Invalid(m)) if m.contains("both classes")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn custom_seeds_override_domain() {
        let cleaner = TextCleaner::train(
            &["lorem ipsum dolor sit amet"],
            &["real estate listings downtown"],
        )
        .unwrap();
        assert!(cleaner.is_junk("lorem ipsum dolor"));
        assert!(!cleaner.is_junk("downtown real estate"));
    }
}
