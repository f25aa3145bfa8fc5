//! L2-regularized logistic regression trained with SGD on sparse TF-IDF
//! features — the linear stand-in for the paper's cited neural detectors
//! (TI-CNN \[11\]); see DESIGN.md for the substitution argument.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::corpus::LabeledDoc;
use crate::features::Vocabulary;

/// SGD epochs.
const EPOCHS: usize = 30;
/// Initial learning rate (decays as 1/(1+t·DECAY)).
const LEARNING_RATE: f64 = 0.5;
/// Learning-rate decay factor.
const DECAY: f64 = 0.01;
/// L2 regularization strength.
const L2: f64 = 1e-4;
/// Shuffle seed.
const SEED: u64 = 1;
/// Minimum document frequency for vocabulary terms.
const MIN_DF: usize = 1;

/// A trained logistic-regression classifier (positive class = fake).
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    vocab: Vocabulary,
    weights: Vec<f64>,
    bias: f64,
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegression {
    /// Trains on a labeled corpus.
    ///
    /// # Panics
    ///
    /// Panics if `docs` is empty or single-class.
    pub fn train(docs: &[LabeledDoc]) -> LogisticRegression {
        assert!(!docs.is_empty(), "training set must be nonempty");
        let n_fake = docs.iter().filter(|d| d.fake).count();
        assert!(
            n_fake > 0 && n_fake < docs.len(),
            "training set must contain both classes"
        );
        let vocab = Vocabulary::fit(docs.iter().map(|d| d.text.as_str()), MIN_DF);
        let features: Vec<(Vec<(usize, f64)>, f64)> = docs
            .iter()
            .map(|d| (vocab.tfidf(&d.text), if d.fake { 1.0 } else { 0.0 }))
            .collect();

        let mut weights = vec![0.0f64; vocab.len()];
        let mut bias = 0.0f64;
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut order: Vec<usize> = (0..features.len()).collect();
        let mut t = 0.0f64;
        for _ in 0..EPOCHS {
            order.shuffle(&mut rng);
            for &idx in &order {
                let (x, y) = &features[idx];
                let lr = LEARNING_RATE / (1.0 + DECAY * t);
                t += 1.0;
                let z = bias + x.iter().map(|(i, v)| weights[*i] * v).sum::<f64>();
                let err = sigmoid(z) - y;
                for (i, v) in x {
                    weights[*i] -= lr * (err * v + L2 * weights[*i]);
                }
                bias -= lr * err;
            }
        }
        LogisticRegression {
            vocab,
            weights,
            bias,
        }
    }

    /// Probability that `text` is fake.
    pub fn prob_fake(&self, text: &str) -> f64 {
        let x = self.vocab.tfidf(text);
        let z = self.bias + x.iter().map(|(i, v)| self.weights[*i] * v).sum::<f64>();
        sigmoid(z)
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
        let lr = LogisticRegression::train(&train);
        let preds: Vec<(bool, f64)> = test
            .iter()
            .map(|d| (d.fake, lr.prob_fake(&d.text)))
            .collect();
        let m = evaluate(&preds, 0.5);
        assert!(m.accuracy > 0.85, "accuracy {}", m.accuracy);
        assert!(m.auc > 0.9, "auc {}", m.auc);
    }

    #[test]
    fn training_is_deterministic() {
        let docs = corpus();
        let a = LogisticRegression::train(&docs);
        let b = LogisticRegression::train(&docs);
        let t = "the committee approved the shocking budget";
        assert!((a.prob_fake(t) - b.prob_fake(t)).abs() < 1e-12);
    }

    #[test]
    fn top_terms_are_emotional() {
        let lr = LogisticRegression::train(&corpus());
        // The highest-weight (most fake-indicative) terms.
        let mut terms: Vec<(&str, f64)> =
            lr.vocab.terms().map(|(t, i)| (t, lr.weights[i])).collect();
        terms.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<&str> = terms.iter().take(25).map(|(t, _)| *t).collect();
        let emotional = [
            "shocking",
            "corrupt",
            "scandal",
            "secret",
            "lie",
            "terrifying",
            "outrageous",
            "hidden",
            "anonymous",
            "insiders",
            "leaked",
        ];
        let hits = top.iter().filter(|t| emotional.contains(t)).count();
        assert!(
            hits >= 3,
            "expected emotional terms among top weights, got {top:?}"
        );
    }

    #[test]
    fn probabilities_bounded() {
        let lr = LogisticRegression::train(&corpus());
        for t in [
            "",
            "committee",
            "shocking scandal lies exposed",
            "zebra quartz",
        ] {
            let p = lr.prob_fake(t);
            assert!((0.0..=1.0).contains(&p), "p={p} for {t:?}");
        }
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_panics() {
        let docs = vec![
            LabeledDoc {
                text: "a b".into(),
                fake: true,
                topic: "t".into(),
            },
            LabeledDoc {
                text: "c d".into(),
                fake: true,
                topic: "t".into(),
            },
        ];
        LogisticRegression::train(&docs);
    }
}
