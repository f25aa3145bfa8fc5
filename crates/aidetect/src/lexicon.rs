//! Emotion/sensationalism lexicon features.
//!
//! "The content of the news is often easy to carry personal emotions and
//! intentions, using the words of negative emotions" (§I). This module
//! scores a document on hand-built lexicons (negative emotion,
//! sensationalism, clickbait phrasing, hedging-by-anonymous-sourcing) plus
//! stylometric signals — the transparent, feature-based detector the
//! paper's cited WVU system pairs with its score.

use crate::features::tokenize;

/// Negative-emotion and outrage vocabulary.
pub(crate) const NEGATIVE_EMOTION: [&str; 24] = [
    "shocking",
    "outrageous",
    "disgraceful",
    "terrifying",
    "furious",
    "corrupt",
    "scandal",
    "betrayal",
    "destroy",
    "disaster",
    "horrifying",
    "evil",
    "catastrophe",
    "fraud",
    "lie",
    "lies",
    "liar",
    "crooked",
    "sick",
    "disgusting",
    "nightmare",
    "chaos",
    "traitor",
    "rigged",
];

/// Unverifiable-sourcing and conspiracy phrasing.
pub(crate) const CONSPIRACY: [&str; 16] = [
    "anonymous",
    "insiders",
    "whistleblower",
    "leaked",
    "secret",
    "hidden",
    "coverup",
    "suppressed",
    "censors",
    "censored",
    "elites",
    "allegedly",
    "unnamed",
    "underground",
    "plot",
    "hoax",
];

/// Clickbait / urgency phrasing.
pub(crate) const CLICKBAIT: [&str; 12] = [
    "share",
    "viral",
    "unbelievable",
    "believe",
    "exposed",
    "revealed",
    "must",
    "urgent",
    "breaking",
    "wow",
    "deleted",
    "banned",
];

/// Lexicon-derived feature vector for one document.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LexiconFeatures {
    /// Negative-emotion hits per 100 tokens.
    pub negative_rate: f64,
    /// Conspiracy-sourcing hits per 100 tokens.
    pub conspiracy_rate: f64,
    /// Clickbait hits per 100 tokens.
    pub clickbait_rate: f64,
    /// Exclamation marks per sentence-ish unit.
    pub exclamation_rate: f64,
    /// Fraction of fully upper-case words (length ≥ 3).
    pub allcaps_fraction: f64,
    /// Token count.
    pub tokens: usize,
}

impl LexiconFeatures {
    /// Extracts features from raw text.
    pub fn extract(text: &str) -> LexiconFeatures {
        let tokens = tokenize(text);
        let n = tokens.len();
        if n == 0 {
            return LexiconFeatures::default();
        }
        let count_in =
            |bank: &[&str]| tokens.iter().filter(|t| bank.contains(&t.as_str())).count() as f64;
        let per100 = |c: f64| c * 100.0 / n as f64;

        let sentences = text
            .split(['.', '!', '?'])
            .filter(|s| !s.trim().is_empty())
            .count();
        let exclamations = text.matches('!').count();
        let words: Vec<&str> = text.split_whitespace().collect();
        let caps = words
            .iter()
            .filter(|w| {
                let letters: Vec<char> = w.chars().filter(|c| c.is_alphabetic()).collect();
                letters.len() >= 3 && letters.iter().all(|c| c.is_uppercase())
            })
            .count();

        LexiconFeatures {
            negative_rate: per100(count_in(&NEGATIVE_EMOTION)),
            conspiracy_rate: per100(count_in(&CONSPIRACY)),
            clickbait_rate: per100(count_in(&CLICKBAIT)),
            exclamation_rate: exclamations as f64 / sentences.max(1) as f64,
            allcaps_fraction: if words.is_empty() {
                0.0
            } else {
                caps as f64 / words.len() as f64
            },
            tokens: n,
        }
    }

    /// A heuristic 0–1 fake-likelihood from the lexicon rates alone
    /// (logistic squash of a weighted sum). Useful as a no-training
    /// baseline and as an ensemble feature.
    pub fn heuristic_score(&self) -> f64 {
        let z = -2.0
            + 0.55 * self.negative_rate
            + 0.55 * self.conspiracy_rate
            + 0.35 * self.clickbait_rate
            + 1.2 * self.exclamation_rate
            + 3.0 * self.allcaps_fraction;
        1.0 / (1.0 + (-z).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FACTUAL: &str = "The committee approved the amendment under docket 4121. \
        The full transcript is in the public register.";
    const FAKE: &str = "SHOCKING corrupt scandal EXPOSED by anonymous insiders! \
        Leaked secret memo reveals the terrifying lie! Share before it is deleted!";

    #[test]
    fn rates_separate_fake_from_factual() {
        let f = LexiconFeatures::extract(FACTUAL);
        let k = LexiconFeatures::extract(FAKE);
        assert!(k.negative_rate > f.negative_rate);
        assert!(k.conspiracy_rate > f.conspiracy_rate);
        assert!(k.exclamation_rate > f.exclamation_rate);
        assert!(k.allcaps_fraction > f.allcaps_fraction);
    }

    #[test]
    fn heuristic_score_orders_correctly() {
        let f = LexiconFeatures::extract(FACTUAL).heuristic_score();
        let k = LexiconFeatures::extract(FAKE).heuristic_score();
        assert!(k > 0.6, "fake score {k}");
        assert!(f < 0.4, "factual score {f}");
    }

    #[test]
    fn empty_text_is_neutral_default() {
        let e = LexiconFeatures::extract("");
        assert_eq!(e, LexiconFeatures::default());
        assert!(e.heuristic_score() < 0.5);
    }

    #[test]
    fn allcaps_ignores_short_tokens() {
        let f = LexiconFeatures::extract("US GDP is UP a bit");
        // "GDP" counts (3 letters); "US"/"UP" too short; "is"/"a"/"bit" lower.
        assert!((f.allcaps_fraction - 1.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn rates_are_per_100_tokens() {
        let f = LexiconFeatures::extract("scandal scandal scandal scandal");
        assert_eq!(f.tokens, 4);
        assert!((f.negative_rate - 100.0).abs() < 1e-9);
    }
}
