//! Seeded input generators. Everything a workload feeds the program is a
//! pure function of `--seed`, built here from the `datatamer-corpus`
//! public generators and this file's own generator; sizes are fixed per
//! sizing, so two seeds differ in content, not in amount of work.

use datatamer_corpus::ftables::{self, FtablesConfig};
use datatamer_corpus::names;
use datatamer_corpus::webtext::{WebTextConfig, WebTextCorpus};
use datatamer_model::{Record, RecordId, SourceId, Value};

/// SplitMix64: small, seedable, and owned by the benchmark, so a change to
/// the repo's `rand` shim cannot move the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n.max(1) {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// FNV-1a over a byte stream: the benchmark's fingerprint of inputs and
/// outputs, printed so two commits (or two seeds) can be compared by eye.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }
}

impl Fingerprint {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 = (self.0 ^ 0xFF).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn record(&mut self, r: &Record) {
        self.bytes(&r.source.0.to_le_bytes());
        self.bytes(&r.id.0.to_le_bytes());
        for (k, v) in r.iter() {
            self.bytes(k.as_bytes());
            self.bytes(format!("{v:?}").as_bytes());
        }
    }

    pub fn records(&mut self, records: &[Record]) {
        for r in records {
            self.record(r);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

// ----------------------------------------------------------------- batch

/// One spelling of a show name as a structured source would hold it:
/// usually clean, sometimes upper-cased, sometimes with two letters
/// swapped.
fn spelling(rng: &mut Rng, show: &str) -> String {
    match rng.below(100) {
        0..=9 => show.to_uppercase(),
        10..=17 if show.len() > 3 && show.is_ascii() => {
            let mut bytes = show.as_bytes().to_vec();
            let at = 1 + rng.below(bytes.len() - 2);
            bytes.swap(at, at - 1);
            String::from_utf8(bytes).expect("ASCII stays UTF-8")
        }
        _ => show.to_string(),
    }
}

/// Inputs of one batch workload: the FTABLES sources plus web text.
pub struct BatchInputs {
    pub sources: Vec<(String, Vec<Record>)>,
    pub corpus: WebTextCorpus,
}

impl BatchInputs {
    /// Both batch workloads' inputs, with the amount of work fixed and the
    /// content seeded.
    ///
    /// Blocked ER is quadratic in mentions per show, so a free draw of
    /// shows would make run time a function of the seed. Shows are
    /// therefore assigned by quota: every show gets the same number of
    /// structured rows, and text fragments follow the generator's own
    /// zipf(0.7) discussion law exactly instead of in expectation. The
    /// seed still decides which rows (prices, theaters, dates, dirt),
    /// which spellings and which fragments fill the quotas.
    ///
    /// The structured side is `rows_per_source` rows from each of the
    /// corpus crate's default 20 FTABLES sources (the schemas are that
    /// fixed catalogue, so schema integration sees the same 20 sources at
    /// every seed); the text side is `fragments` fragments picked from a
    /// four times larger seeded pool.
    pub fn generate(
        seed: u64,
        rows_per_source: usize,
        fragments: usize,
        padding_sentences: usize,
        background_mentions: usize,
    ) -> Self {
        let shows = names::all_shows();
        let mut rng = Rng::new(seed, 2);
        let mut slot = 0;
        let sources = ftables::generate(&FtablesConfig::default(), 0)
            .into_iter()
            .map(|s| {
                let show_attr = s
                    .mapping
                    .iter()
                    .find(|(_, canonical)| **canonical == ftables::canon::SHOW_NAME)
                    .map(|(attr, _)| attr.clone())
                    .expect("every FTABLES source names its show");
                let rows = (0..rows_per_source)
                    .map(|i| {
                        let mut r = s.records[rng.below(s.records.len())].clone();
                        r.id = RecordId(i as u64);
                        r.set(
                            show_attr.clone(),
                            Value::from(spelling(&mut rng, shows[slot % shows.len()])),
                        );
                        slot += 1;
                        r
                    })
                    .collect();
                (s.name, rows)
            })
            .collect();

        let mut corpus = WebTextCorpus::generate(&WebTextConfig {
            num_fragments: fragments * 4,
            seed: Rng::new(seed, 3).next_u64(),
            zipf_exponent: 0.7,
            background_mentions,
            padding_sentences,
        });
        let weights: Vec<f64> = (1..=shows.len())
            .map(|rank| (rank as f64).powf(-0.7))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut quota: Vec<usize> = weights
            .iter()
            .map(|w| (fragments as f64 * w / total) as usize)
            .collect();
        let short = fragments - quota.iter().sum::<usize>();
        for q in quota.iter_mut().take(short) {
            *q += 1;
        }
        let (mut picked, mut spare) = (Vec::with_capacity(fragments), Vec::new());
        for f in std::mem::take(&mut corpus.fragments) {
            match shows.iter().position(|s| *s == f.show) {
                Some(i) if quota[i] > 0 => {
                    quota[i] -= 1;
                    picked.push(f);
                }
                _ => spare.push(f),
            }
        }
        // A show the pool under-serves is topped up from the spares, so
        // the fragment count holds whatever the pool looked like.
        let missing = fragments - picked.len();
        picked.extend(spare.into_iter().take(missing));
        corpus.fragments = picked;
        BatchInputs { sources, corpus }
    }

    pub fn fragments(&self) -> Vec<(&str, &str)> {
        self.corpus
            .fragments
            .iter()
            .map(|f| (f.text.as_str(), f.kind.label()))
            .collect()
    }

    /// Structured rows plus fragments: the unit of `work_per_s`.
    pub fn input_records(&self) -> usize {
        self.sources.iter().map(|(_, r)| r.len()).sum::<usize>() + self.corpus.fragments.len()
    }

    pub fn fingerprint(&self) -> String {
        let mut fp = Fingerprint::default();
        for (name, records) in &self.sources {
            fp.bytes(name.as_bytes());
            fp.records(records);
        }
        for f in &self.corpus.fragments {
            fp.bytes(f.text.as_bytes());
            fp.bytes(f.kind.label().as_bytes());
        }
        fp.hex()
    }
}

// --------------------------------------------------------------- serving

pub const SHOW_NAME: &str = "SHOW_NAME";
pub const GENRE: &str = "GENRE";
pub const PRICE: &str = "PRICE";
pub const THEATER: &str = "THEATER";

pub const GENRES: [&str; 24] = [
    "musical",
    "drama",
    "comedy",
    "revival",
    "opera",
    "ballet",
    "cabaret",
    "tragedy",
    "farce",
    "mystery",
    "improv",
    "puppetry",
    "satire",
    "thriller",
    "romance",
    "fantasy",
    "history",
    "circus",
    "recital",
    "burlesque",
    "mime",
    "vaudeville",
    "operetta",
    "pantomime",
];
pub const THEATERS: usize = 200;
pub const MAX_PRICE: i64 = 400;

const SYLLABLES: [&str; 48] = [
    "ba", "cor", "del", "esh", "fin", "gor", "hal", "imo", "jen", "kar", "lum", "mir", "nor",
    "osk", "pel", "qua", "rin", "sol", "tam", "ull", "var", "wen", "xan", "yor", "zel", "bri",
    "cha", "dro", "eld", "fro", "gla", "hin", "isk", "jor", "kel", "lor", "mon", "nil", "orm",
    "pra", "ros", "sta", "tro", "umb", "vin", "wol", "yel", "zan",
];

fn word(rng: &mut Rng) -> String {
    let mut w = String::new();
    for _ in 0..3 {
        w.push_str(SYLLABLES[rng.below(SYLLABLES.len())]);
    }
    w
}

fn capitalised(w: &str) -> String {
    let mut c = w.chars();
    match c.next() {
        Some(f) => f.to_uppercase().chain(c).collect(),
        None => String::new(),
    }
}

/// The serving workloads' entity catalogue: entity `i` is a pure function
/// of `(seed, i)`, so the seed corpus, the delta stream and a from-scratch
/// rebuild all agree on it without sharing state.
#[derive(Debug, Clone, Copy)]
pub struct Catalogue {
    pub seed: u64,
}

impl Catalogue {
    fn entity(&self, i: usize) -> ([String; 2], &'static str, i64, usize) {
        let mut rng = Rng::new(self.seed, 0x1000 + i as u64);
        let words = [word(&mut rng), word(&mut rng)];
        let genre = GENRES[rng.below(GENRES.len())];
        let price = 10 + rng.below((MAX_PRICE - 10) as usize) as i64;
        (words, genre, price, rng.below(THEATERS))
    }

    /// One spelling of entity `i`, already in the global schema's shape
    /// (upper-case attribute names, plain values), so schema mapping and
    /// cleaning are identities for it and a delta batch — which bypasses
    /// both — yields the same record a staged run would. Variant 0 is the
    /// clean spelling; others damage case, word order or one letter of
    /// the name and leave the other attributes alone.
    pub fn record(&self, i: usize, variant: u64, id: u64) -> Record {
        let ([a, b], genre, price, theater) = self.entity(i);
        let name = match variant % 4 {
            0 => format!("{} {}", capitalised(&a), capitalised(&b)),
            1 => format!("{} {}", a.to_uppercase(), capitalised(&b)),
            2 => format!("{} {}", capitalised(&b), capitalised(&a)),
            _ => {
                let mut typo: Vec<char> = b.chars().collect();
                let at = 1 + (variant as usize / 4) % (typo.len() - 1);
                typo[at] = if typo[at] == 'x' { 'k' } else { 'x' };
                format!(
                    "{} {}",
                    capitalised(&a),
                    capitalised(&typo.into_iter().collect::<String>())
                )
            }
        };
        Record::from_pairs(
            SourceId(0),
            RecordId(id),
            vec![
                (SHOW_NAME, Value::from(name)),
                (GENRE, Value::from(genre)),
                (PRICE, Value::Int(price)),
                (THEATER, Value::from(format!("Theater {theater:03}"))),
            ],
        )
    }

    /// The seed corpus: `entities` entities, `spellings` records each,
    /// interleaved so near-duplicates are not adjacent.
    pub fn seed_records(&self, entities: usize, spellings: usize) -> Vec<Record> {
        let mut out = Vec::with_capacity(entities * spellings);
        for v in 0..spellings {
            for e in 0..entities {
                out.push(self.record(e, v as u64, out.len() as u64));
            }
        }
        out
    }
}

/// The delta stream: batch `k` holds `size/2` near-duplicates of
/// zipf-chosen known entities and `size/2` first sightings of new ones.
pub struct DeltaStream {
    catalogue: Catalogue,
    rng: Rng,
    zipf: Zipf,
    known_entities: usize,
    next_id: u64,
    size: usize,
}

impl DeltaStream {
    pub fn new(
        catalogue: Catalogue,
        seed_entities: usize,
        seed_records: usize,
        size: usize,
    ) -> Self {
        DeltaStream {
            catalogue,
            rng: Rng::new(catalogue.seed, 4),
            zipf: Zipf::new(seed_entities, 1.0),
            known_entities: seed_entities,
            next_id: seed_records as u64,
            size,
        }
    }

    pub fn next_batch(&mut self) -> Vec<Record> {
        let mut batch = Vec::with_capacity(self.size);
        for k in 0..self.size {
            let (entity, variant) = if k % 2 == 0 {
                (
                    self.zipf.sample(&mut self.rng),
                    1 + self.rng.next_u64() % 64,
                )
            } else {
                self.known_entities += 1;
                (self.known_entities - 1, 0)
            };
            batch.push(self.catalogue.record(entity, variant, self.next_id));
            self.next_id += 1;
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, 9);
            let zipf = Zipf::new(1000, 1.0);
            (0..200).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let ranks = draw(7);
        let head = ranks.iter().filter(|&&r| r < 10).count();
        assert!(
            head > 40 && head < 140,
            "zipf s=1 over 1000 puts ~39% on the top 10: {head}"
        );

        let records = |seed| {
            let mut fp = Fingerprint::default();
            let c = Catalogue { seed };
            fp.records(&c.seed_records(50, 3));
            let mut deltas = DeltaStream::new(c, 50, 150, 32);
            fp.records(&deltas.next_batch());
            fp.records(&deltas.next_batch());
            fp.hex()
        };
        assert_eq!(records(7), records(7));
        assert_ne!(records(7), records(8));
    }

    #[test]
    fn delta_batches_are_half_known_half_new_with_fresh_ids() {
        let c = Catalogue { seed: 3 };
        let mut deltas = DeltaStream::new(c, 100, 300, 32);
        let a = deltas.next_batch();
        let b = deltas.next_batch();
        assert_eq!(a.len(), 32);
        let ids: Vec<u64> = a.iter().chain(&b).map(|r| r.id.0).collect();
        assert_eq!(ids, (300..364).collect::<Vec<u64>>());
        // Odd slots are clean first sightings of entities 100, 101, ...
        assert_eq!(
            a[1].get_text(SHOW_NAME),
            c.record(100, 0, 0).get_text(SHOW_NAME)
        );
        assert_eq!(
            b[1].get_text(SHOW_NAME),
            c.record(116, 0, 0).get_text(SHOW_NAME)
        );
    }

    #[test]
    fn batch_inputs_have_a_stable_fingerprint_and_fixed_size() {
        let a = BatchInputs::generate(11, 8, 30, 1, 2);
        let b = BatchInputs::generate(11, 8, 30, 1, 2);
        let c = BatchInputs::generate(12, 8, 30, 1, 2);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.input_records(), 20 * 8 + 30);
        assert_eq!(c.input_records(), 20 * 8 + 30);
    }
}
