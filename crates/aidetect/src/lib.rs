//! # tn-aidetect
//!
//! The AI side of the platform: fake-text detection, stance detection and
//! fake-multimedia (deepfake) detection, plus the synthetic labeled corpus
//! and evaluation metrics the E4/E8 experiments run on.
//!
//! The paper's architecture (Figure 1) has dedicated components for "fake
//! text detection" and "fake multimedia detection" driven by AI
//! algorithms. The cited detectors are deep models on real corpora; per
//! DESIGN.md we substitute transparent, from-scratch models exercising the
//! identical platform interface (a probability-of-fake per item):
//!
//! - `features`: tokenizer, vocabulary, bag-of-words counts, TF-IDF.
//! - [`corpus`]: labeled synthetic news corpus with the paper's cited
//!   structure (72.3 % of fakes are modified factual articles carrying
//!   negative-emotion wording).
//! - [`naive_bayes`] and [`logreg`]: the learned text classifiers.
//! - [`lexicon`]: emotion/sensationalism/clickbait features and a
//!   no-training heuristic score.
//! - [`stance`]: Fake-News-Challenge-style headline/body stance detection.
//! - [`ensemble`]: the blended detector the platform consumes.
//! - [`media`]: synthetic video, deepfake-style region tampering, and two
//!   tamper detectors (temporal anomaly, provenance fingerprints).
//! - [`metrics`]: accuracy, precision, recall, F1 and ROC-AUC.
//!
//! # Example
//!
//! ```
//! use tn_aidetect::corpus::{generate_news_corpus, train_test_split, NewsCorpusConfig};
//! use tn_aidetect::ensemble::EnsembleDetector;
//!
//! let corpus = generate_news_corpus(&NewsCorpusConfig::default());
//! let (train, test) = train_test_split(&corpus, 0.8);
//! let det = EnsembleDetector::train(&train);
//! let p = det.prob_fake(&test[0].text);
//! assert!((0.0..=1.0).contains(&p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod corpus;
pub mod dense;
pub mod ensemble;
mod features;
pub mod lexicon;
pub mod logreg;
pub mod media;
pub mod metrics;
pub mod naive_bayes;
pub mod stance;
