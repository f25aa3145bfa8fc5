//! Labeled synthetic news corpus for training and evaluating detectors.
//!
//! Structure follows the paper's citations: "72.3 % of the fake news is to
//! modify the news originated from the standard factual news … using the
//! words of negative emotions" (§I, citing Stanford work). Accordingly,
//! fake documents are mostly factual articles with emotionally loaded
//! insertions and a minority are whole-cloth fabrications; factual
//! documents are public-record articles, optionally lightly paraphrased.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use tn_factdb::corpus::{generate_corpus, CorpusConfig};
use tn_supplychain::ops::{apply, PropagationOp};

/// A labeled document.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledDoc {
    /// Article text.
    pub text: String,
    /// True when fake.
    pub fake: bool,
    /// Topic label (inherited from the source record where applicable).
    pub topic: String,
}

/// Corpus generation parameters.
#[derive(Debug, Clone)]
pub struct NewsCorpusConfig {
    /// Number of factual documents.
    pub n_factual: usize,
    /// Number of fake documents.
    pub n_fake: usize,
    /// Fraction of modified fakes written *subtly*: a single mild,
    /// insinuating sentence instead of overt emotional loading. Subtle
    /// fakes are genuinely hard for content-only detectors — the regime
    /// where the paper argues provenance must carry the load.
    pub subtlety: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NewsCorpusConfig {
    fn default() -> Self {
        NewsCorpusConfig {
            n_factual: 300,
            n_fake: 300,
            subtlety: 0.0,
            seed: 7,
        }
    }
}

/// Fraction of fakes that are *modified factual* articles (the rest are
/// fabricated from templates). Paper statistic: 0.723.
const MODIFIED_FRACTION: f64 = 0.723;

const FABRICATION_OPENERS: [&str; 6] = [
    "You will not believe what leaked tonight",
    "The shocking truth they are hiding from you",
    "Insiders reveal a terrifying secret plan",
    "This scandal will destroy everything you trusted",
    "Anonymous sources expose the outrageous lie",
    "The disgraceful cover-up nobody dares report",
];

/// Mild, insinuating sentences used by subtle fakes: no emotional
/// vocabulary, just unverifiable doubt.
const SUBTLE_INJECTIONS: [&str; 6] = [
    "Some commentators questioned the official account of events.",
    "Observers noted the timing raised further questions.",
    "Several posts suggested the figures may be incomplete.",
    "A few analysts said the report leaves key points unaddressed.",
    "Readers pointed out earlier statements that appear to differ.",
    "It remains unclear whether the full record has been released.",
];

const FABRICATION_BODIES: [&str; 6] = [
    "Secret documents allegedly prove the numbers were faked for years.",
    "A hidden network of elites controls every decision, whistleblowers claim.",
    "The so-called experts were paid to bury the real report.",
    "Millions will suffer while corrupt officials laugh in private.",
    "Evidence is being deleted as you read this, insiders warn.",
    "Share this everywhere before the censors take it down.",
];

/// Generates the labeled corpus. Factual and fake documents are shuffled
/// together deterministically.
pub fn generate_news_corpus(config: &NewsCorpusConfig) -> Vec<LabeledDoc> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Source pool of factual articles (larger than n_factual so fakes can
    // modify articles not in the factual training set — harder, more
    // realistic).
    let pool = generate_corpus(&CorpusConfig {
        size: config.n_factual + config.n_fake,
        seed: config.seed ^ 0xfac7,
        start_time: 0,
    });
    let mut docs = Vec::with_capacity(config.n_factual + config.n_fake);

    // Factual docs: the record itself, sometimes lightly extended with a
    // neutral sentence, split, or — like real journalism — a quoted note
    // of criticism (so mild-doubt phrasing is NOT a label give-away).
    for rec in pool.iter().take(config.n_factual) {
        let roll: f64 = rng.gen();
        let text = if roll < 0.55 {
            rec.content.clone()
        } else if roll < 0.7 {
            apply(PropagationOp::Insert, &[&rec.content], false, &mut rng)
        } else if roll < 0.85 {
            apply(PropagationOp::Split, &[&rec.content], false, &mut rng)
        } else {
            let inj = *SUBTLE_INJECTIONS.choose(&mut rng).expect("nonempty");
            tn_supplychain::ops::insert(&rec.content, &[inj], &mut rng)
        };
        docs.push(LabeledDoc {
            text,
            fake: false,
            topic: rec.topic.clone(),
        });
    }

    // Fake docs.
    for i in 0..config.n_fake {
        let modified = rng.gen_bool(MODIFIED_FRACTION);
        if modified {
            let rec = &pool[config.n_factual + i];
            let text = if rng.gen_bool(config.subtlety.clamp(0.0, 1.0)) {
                let inj = *SUBTLE_INJECTIONS.choose(&mut rng).expect("nonempty");
                tn_supplychain::ops::insert(&rec.content, &[inj], &mut rng)
            } else {
                apply(PropagationOp::Insert, &[&rec.content], true, &mut rng)
            };
            docs.push(LabeledDoc {
                text,
                fake: true,
                topic: rec.topic.clone(),
            });
        } else {
            let opener = FABRICATION_OPENERS.choose(&mut rng).expect("nonempty");
            let b1 = FABRICATION_BODIES.choose(&mut rng).expect("nonempty");
            let b2 = FABRICATION_BODIES.choose(&mut rng).expect("nonempty");
            let topic = pool[config.n_factual + i].topic.clone();
            docs.push(LabeledDoc {
                text: format!("{opener} about {topic} tonight. {b1} {b2}"),
                fake: true,
                topic,
            });
        }
    }
    docs.shuffle(&mut rng);
    docs
}

/// Splits a corpus into `(train, test)` with the given train fraction.
///
/// # Panics
///
/// Panics unless `0.0 < train_fraction < 1.0`.
pub fn train_test_split(
    docs: &[LabeledDoc],
    train_fraction: f64,
) -> (Vec<LabeledDoc>, Vec<LabeledDoc>) {
    assert!(
        train_fraction > 0.0 && train_fraction < 1.0,
        "train fraction must be in (0, 1)"
    );
    let cut = ((docs.len() as f64) * train_fraction).round() as usize;
    let cut = cut.clamp(1, docs.len().saturating_sub(1));
    (docs[..cut].to_vec(), docs[cut..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_labels() {
        let c = generate_news_corpus(&NewsCorpusConfig {
            n_factual: 50,
            n_fake: 30,
            ..NewsCorpusConfig::default()
        });
        assert_eq!(c.len(), 80);
        assert_eq!(c.iter().filter(|d| d.fake).count(), 30);
    }

    #[test]
    fn deterministic() {
        let cfg = NewsCorpusConfig::default();
        assert_eq!(generate_news_corpus(&cfg), generate_news_corpus(&cfg));
    }

    #[test]
    fn fakes_carry_emotional_vocabulary() {
        let c = generate_news_corpus(&NewsCorpusConfig::default());
        let emo = [
            "shocking",
            "corrupt",
            "scandal",
            "secret",
            "terrifying",
            "outrageous",
            "lie",
        ];
        let hits = |d: &LabeledDoc| {
            let lower = d.text.to_lowercase();
            emo.iter().filter(|w| lower.contains(**w)).count()
        };
        let fake_mean: f64 = c
            .iter()
            .filter(|d| d.fake)
            .map(|d| hits(d) as f64)
            .sum::<f64>()
            / c.iter().filter(|d| d.fake).count() as f64;
        let fact_mean: f64 = c
            .iter()
            .filter(|d| !d.fake)
            .map(|d| hits(d) as f64)
            .sum::<f64>()
            / c.iter().filter(|d| !d.fake).count() as f64;
        assert!(
            fake_mean > fact_mean + 0.5,
            "fake {fake_mean} vs fact {fact_mean}"
        );
    }

    #[test]
    fn split_fractions() {
        let c = generate_news_corpus(&NewsCorpusConfig {
            n_factual: 60,
            n_fake: 40,
            ..NewsCorpusConfig::default()
        });
        let (tr, te) = train_test_split(&c, 0.8);
        assert_eq!(tr.len(), 80);
        assert_eq!(te.len(), 20);
    }

    #[test]
    #[should_panic(expected = "train fraction")]
    fn bad_split_panics() {
        let c = generate_news_corpus(&NewsCorpusConfig {
            n_factual: 4,
            n_fake: 4,
            ..NewsCorpusConfig::default()
        });
        train_test_split(&c, 1.5);
    }
}
