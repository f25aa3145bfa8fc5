//! Multinomial naive Bayes fake-news classifier.

use crate::corpus::LabeledDoc;
use crate::features::{tokenize, Vocabulary};

/// A trained multinomial naive Bayes model with Laplace smoothing.
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    vocab: Vocabulary,
    /// log P(fake), log P(factual).
    log_prior: [f64; 2],
    /// Per-class log-likelihood per vocabulary index: `log_lik[class][term]`.
    log_lik: [Vec<f64>; 2],
}

const FAKE: usize = 0;
const FACT: usize = 1;

impl NaiveBayes {
    /// Trains on a labeled corpus.
    ///
    /// # Panics
    ///
    /// Panics if `docs` is empty or single-class.
    pub fn train(docs: &[LabeledDoc]) -> NaiveBayes {
        assert!(!docs.is_empty(), "training set must be nonempty");
        let n_fake = docs.iter().filter(|d| d.fake).count();
        let n_fact = docs.len() - n_fake;
        assert!(
            n_fake > 0 && n_fact > 0,
            "training set must contain both classes"
        );

        let vocab = Vocabulary::fit(docs.iter().map(|d| d.text.as_str()), 1);
        let v = vocab.len();
        let mut counts = [vec![0.0f64; v], vec![0.0f64; v]];
        let mut totals = [0.0f64; 2];
        for d in docs {
            let class = if d.fake { FAKE } else { FACT };
            for tok in tokenize(&d.text) {
                if let Some(i) = vocab.term_index(&tok) {
                    counts[class][i] += 1.0;
                    totals[class] += 1.0;
                }
            }
        }
        let mut log_lik = [vec![0.0f64; v], vec![0.0f64; v]];
        for class in [FAKE, FACT] {
            let denom = totals[class] + v as f64; // Laplace
            for i in 0..v {
                log_lik[class][i] = ((counts[class][i] + 1.0) / denom).ln();
            }
        }
        NaiveBayes {
            vocab,
            log_prior: [
                (n_fake as f64 / docs.len() as f64).ln(),
                (n_fact as f64 / docs.len() as f64).ln(),
            ],
            log_lik,
        }
    }

    /// Log-odds that `text` is fake: `log P(fake|x) − log P(factual|x)`.
    pub(crate) fn log_odds_fake(&self, text: &str) -> f64 {
        let mut scores = self.log_prior;
        for tok in tokenize(text) {
            if let Some(i) = self.vocab.term_index(&tok) {
                scores[FAKE] += self.log_lik[FAKE][i];
                scores[FACT] += self.log_lik[FACT][i];
            }
        }
        scores[FAKE] - scores[FACT]
    }

    /// Probability that `text` is fake (sigmoid of the log-odds).
    pub fn prob_fake(&self, text: &str) -> f64 {
        1.0 / (1.0 + (-self.log_odds_fake(text)).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate_news_corpus, train_test_split, NewsCorpusConfig};
    use crate::metrics::evaluate;

    fn corpus() -> Vec<LabeledDoc> {
        generate_news_corpus(&NewsCorpusConfig {
            n_factual: 200,
            n_fake: 200,
            ..NewsCorpusConfig::default()
        })
    }

    #[test]
    fn learns_the_synthetic_corpus() {
        let (train, test) = train_test_split(&corpus(), 0.8);
        let nb = NaiveBayes::train(&train);
        let preds: Vec<(bool, f64)> = test
            .iter()
            .map(|d| (d.fake, nb.prob_fake(&d.text)))
            .collect();
        let m = evaluate(&preds, 0.5);
        assert!(m.accuracy > 0.85, "accuracy {}", m.accuracy);
        assert!(m.f1 > 0.85, "f1 {}", m.f1);
    }

    #[test]
    fn obvious_cases() {
        let nb = NaiveBayes::train(&corpus());
        assert!(
            nb.prob_fake(
                "Shocking corrupt scandal exposed by anonymous insiders, share before deleted"
            ) > 0.5
        );
        assert!(nb.prob_fake(
            "The committee approved the amendment under docket 1234. The full document is in the public record."
        ) < 0.5);
    }

    #[test]
    fn prob_is_sigmoid_of_log_odds() {
        let nb = NaiveBayes::train(&corpus());
        let t = "officials published the audited report";
        let lo = nb.log_odds_fake(t);
        let p = nb.prob_fake(t);
        assert!((p - 1.0 / (1.0 + (-lo).exp())).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn empty_text_falls_back_to_prior() {
        let docs = corpus();
        let nb = NaiveBayes::train(&docs);
        let n_fake = docs.iter().filter(|d| d.fake).count() as f64;
        let n_fact = docs.len() as f64 - n_fake;
        let expect = (n_fake / docs.len() as f64).ln() - (n_fact / docs.len() as f64).ln();
        assert!((nb.log_odds_fake("") - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_training_panics() {
        let docs = vec![LabeledDoc {
            text: "a".into(),
            fake: false,
            topic: "t".into(),
        }];
        NaiveBayes::train(&docs);
    }
}
