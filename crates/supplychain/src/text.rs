//! Text similarity: the measurement behind "degree of modification".
//!
//! The paper ranks news by "the trace distance of graph from its root …
//! and the degree of the modifications … generated along the path" (§VI).
//! The degree of modification between a parent text and a derived text is
//! computed here as one minus the Jaccard similarity of their word
//! k-shingle sets, with word-level Levenshtein available as a second
//! opinion for tests and ablations.

use std::collections::HashSet;

/// Lowercases and splits text into alphanumeric word tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            tokens.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// Builds the set of word `k`-shingles (joined with a separator).
///
/// Texts shorter than `k` words produce a single shingle of the whole
/// text, so similarity remains meaningful for short fragments.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn shingles(text: &str, k: usize) -> HashSet<String> {
    assert!(k > 0, "shingle size must be positive");
    let tokens = tokenize(text);
    if tokens.is_empty() {
        return HashSet::new();
    }
    if tokens.len() <= k {
        let mut s = HashSet::new();
        s.insert(tokens.join(" "));
        return s;
    }
    tokens.windows(k).map(|w| w.join(" ")).collect()
}

/// Jaccard similarity of two sets: `|A ∩ B| / |A ∪ B|` (1.0 for two empty
/// sets).
pub fn jaccard(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Default shingle size used by the platform.
pub const DEFAULT_SHINGLE: usize = 3;

/// Similarity of two texts in `[0, 1]` via `k = 3` word shingles.
pub fn similarity(a: &str, b: &str) -> f64 {
    jaccard(&shingles(a, DEFAULT_SHINGLE), &shingles(b, DEFAULT_SHINGLE))
}

/// The paper's "degree of modification" between a parent and a derived
/// text: `1 − similarity`, in `[0, 1]`.
pub fn modification_degree(parent: &str, derived: &str) -> f64 {
    1.0 - similarity(parent, derived)
}

/// Word-level Levenshtein edit distance.
pub fn word_levenshtein(a: &str, b: &str) -> usize {
    let ta = tokenize(a);
    let tb = tokenize(b);
    if ta.is_empty() {
        return tb.len();
    }
    if tb.is_empty() {
        return ta.len();
    }
    let mut prev: Vec<usize> = (0..=tb.len()).collect();
    let mut cur = vec![0usize; tb.len() + 1];
    for (i, wa) in ta.iter().enumerate() {
        cur[0] = i + 1;
        for (j, wb) in tb.iter().enumerate() {
            let cost = usize::from(wa != wb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[tb.len()]
}

/// Splits text into sentences on `.`, `!`, `?` boundaries (trimmed,
/// non-empty).
pub fn sentences(text: &str) -> Vec<String> {
    text.split(['.', '!', '?'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tokenize_basic() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("it's 2019"), vec!["it", "s", "2019"]);
    }

    #[test]
    fn identical_texts_similarity_one() {
        let t = "the committee approved the solar subsidy amendment today";
        assert!((similarity(t, t) - 1.0).abs() < 1e-12);
        assert!(modification_degree(t, t) < 1e-12);
    }

    #[test]
    fn disjoint_texts_similarity_zero() {
        let a = "economic policy drives market growth steadily";
        let b = "penguins waddle across frozen antarctic shores";
        assert!(similarity(a, b) < 1e-12);
        assert!((modification_degree(a, b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_edit_small_modification() {
        let a =
            "the committee approved the solar subsidy amendment after a long debate in the chamber";
        let b = "the committee approved the solar subsidy amendment after a heated debate in the chamber";
        let m = modification_degree(a, b);
        assert!(m > 0.0 && m < 0.5, "m={m}");
    }

    #[test]
    fn bigger_edits_bigger_modification() {
        let base =
            "the committee approved the solar subsidy amendment after a long debate in the chamber";
        let small = "the committee approved the solar subsidy amendment after a heated debate in the chamber";
        let large = "sources say the corrupt committee secretly killed the solar plan amid outrage and scandal";
        assert!(
            modification_degree(base, small) < modification_degree(base, large),
            "monotonicity violated"
        );
    }

    #[test]
    fn shingles_short_text() {
        let s = shingles("two words", 3);
        assert_eq!(s.len(), 1);
        assert!(s.contains("two words"));
        assert!(shingles("", 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "shingle size must be positive")]
    fn zero_shingle_panics() {
        let _ = shingles("a b c", 0);
    }

    #[test]
    fn levenshtein_known_cases() {
        assert_eq!(word_levenshtein("a b c", "a b c"), 0);
        assert_eq!(word_levenshtein("a b c", "a x c"), 1);
        assert_eq!(word_levenshtein("a b c", "a b c d"), 1);
        assert_eq!(word_levenshtein("", "a b"), 2);
        assert_eq!(word_levenshtein("a b", ""), 2);
    }

    #[test]
    fn sentences_split() {
        let s = sentences("First thing. Second thing! Third? ");
        assert_eq!(s, vec!["First thing", "Second thing", "Third"]);
        assert!(sentences("").is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_similarity_symmetric(a in "[a-d ]{0,60}", b in "[a-d ]{0,60}") {
            prop_assert!((similarity(&a, &b) - similarity(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn prop_similarity_bounded(a in "[a-f ]{0,60}", b in "[a-f ]{0,60}") {
            let s = similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn prop_self_similarity_is_one(a in "[a-f ]{1,60}") {
            prop_assert!((similarity(&a, &a) - 1.0).abs() < 1e-12);
        }

        #[test]
        fn prop_levenshtein_triangle(
            a in "[ab ]{0,24}", b in "[ab ]{0,24}", c in "[ab ]{0,24}"
        ) {
            let ab = word_levenshtein(&a, &b);
            let bc = word_levenshtein(&b, &c);
            let ac = word_levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn prop_levenshtein_identity(a in "[a-e ]{0,40}") {
            prop_assert_eq!(word_levenshtein(&a, &a), 0);
        }
    }
}
