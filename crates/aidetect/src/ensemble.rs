//! The combined detector the platform consumes: naive Bayes + logistic
//! regression + lexicon heuristics + stance, blended into one
//! probability-of-fake. This is the "AI algorithms" box of Figure 1's
//! fake-text-detection component.

use crate::corpus::LabeledDoc;
use crate::lexicon::LexiconFeatures;
use crate::logreg::LogisticRegression;
use crate::naive_bayes::NaiveBayes;
use crate::stance::{detect_stance, stance_score};

// Blend weights for the ensemble components, normalized by their total.
/// Naive-Bayes component.
const NB_WEIGHT: f64 = 0.35;
/// Logistic-regression component.
const LR_WEIGHT: f64 = 0.45;
/// Lexicon-heuristic component.
const LEXICON_WEIGHT: f64 = 0.20;

/// The trained ensemble detector.
#[derive(Debug)]
pub struct EnsembleDetector {
    nb: NaiveBayes,
    lr: LogisticRegression,
}

impl EnsembleDetector {
    /// Trains all learned components on the labeled corpus.
    ///
    /// # Panics
    ///
    /// Panics if the corpus is empty or single-class (component
    /// constraints).
    pub fn train(docs: &[LabeledDoc]) -> EnsembleDetector {
        EnsembleDetector {
            nb: NaiveBayes::train(docs),
            lr: LogisticRegression::train(docs),
        }
    }

    /// Probability that `text` is fake.
    pub fn prob_fake(&self, text: &str) -> f64 {
        let total = NB_WEIGHT + LR_WEIGHT + LEXICON_WEIGHT;
        let lex = LexiconFeatures::extract(text).heuristic_score();
        (NB_WEIGHT * self.nb.prob_fake(text)
            + LR_WEIGHT * self.lr.prob_fake(text)
            + LEXICON_WEIGHT * lex)
            / total
    }

    /// Probability that `text` is fake, adjusted by the stance of the body
    /// toward its `headline` (headline/body inconsistency is a fake
    /// signal; corroboration lowers the score).
    pub fn prob_fake_with_headline(&self, headline: &str, body: &str) -> f64 {
        let base = self.prob_fake(body);
        let s = stance_score(detect_stance(headline, body));
        // Stance acts as a 25 % component on top of the content score.
        0.75 * base + 0.25 * s
    }

    /// Probability that `text` is *factual* (what the supply-chain ranking
    /// consumes as its AI component).
    pub fn prob_factual(&self, text: &str) -> f64 {
        1.0 - self.prob_fake(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate_news_corpus, train_test_split, NewsCorpusConfig};
    use crate::metrics::evaluate;

    fn detector() -> (EnsembleDetector, Vec<LabeledDoc>) {
        let corpus = generate_news_corpus(&NewsCorpusConfig {
            n_factual: 250,
            n_fake: 250,
            ..NewsCorpusConfig::default()
        });
        let (train, test) = train_test_split(&corpus, 0.8);
        (EnsembleDetector::train(&train), test)
    }

    #[test]
    fn ensemble_beats_chance_comfortably() {
        let (det, test) = detector();
        let preds: Vec<(bool, f64)> = test
            .iter()
            .map(|d| (d.fake, det.prob_fake(&d.text)))
            .collect();
        let m = evaluate(&preds, 0.5);
        assert!(m.accuracy > 0.85, "accuracy {}", m.accuracy);
        assert!(m.auc > 0.92, "auc {}", m.auc);
    }

    #[test]
    fn factual_is_complement() {
        let (det, test) = detector();
        let t = &test[0].text;
        assert!((det.prob_fake(t) + det.prob_factual(t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contradicting_headline_raises_score() {
        let (det, _) = detector();
        let body = "Officials confirmed the committee approved the amendment; \
                    the record was published the same day.";
        let consistent = det.prob_fake_with_headline("Committee approves amendment", body);
        let refuting_body = "Claims that the committee approved the amendment are false; \
                             the chair denied it and called the report a hoax, not news.";
        let contradicted =
            det.prob_fake_with_headline("Committee approves amendment", refuting_body);
        assert!(contradicted > consistent, "{contradicted} vs {consistent}");
    }

    #[test]
    fn scores_bounded() {
        let (det, test) = detector();
        for d in test.iter().take(20) {
            let p = det.prob_fake(&d.text);
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
