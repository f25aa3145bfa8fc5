//! Text similarity: the measurement behind "degree of modification".
//!
//! The paper ranks news by "the trace distance of graph from its root …
//! and the degree of the modifications … generated along the path" (§VI).
//! The degree of modification between a parent text and a derived text is
//! one minus the Jaccard similarity `|A ∩ B| / |A ∪ B|` (1 for two empty
//! sets) of their word k-shingle sets, k = [`DEFAULT_SHINGLE`]. A token is
//! a maximal alphanumeric run lowercased by `char::to_lowercase`
//! ([`tokenize`]); a shingle is k consecutive tokens, and a text of 1..=k
//! tokens is one shingle, all of it.
//!
//! The graph scores every parent edge it inserts, on every block, sync,
//! restart and replay, and the value enters its digest, so
//! [`shingle_similarity`] computes the definition exactly with a fixed
//! handful of buffers per call, nothing allocated per token or shingle.
//! Both texts are lowercased into one buffer as token spans; sorting the
//! spans numbers them, equal tokens sharing an id; a shingle is its window
//! of k ids, a short text one window padded with an id no token gets. The
//! definition joins a shingle's tokens with a space, which no token holds,
//! so joined shingles are equal exactly when windows are. Each side's
//! windows are sorted and deduplicated, and one merge counts the
//! intersection: `inter as f64 / union as f64`, bit for bit
//! (`tests/similarity_oracle.rs`, k = 1..=8). On `reader_mix`'s edges (~20
//! tokens a side): ~2 µs per edge against ~6–7 µs for the `HashSet<String>`
//! definition, 2.8–3.4× in one process (`cargo bench -p tn-bench --bench
//! traceback`, group `text`, 2-vCPU x86-64 container).

use std::cmp::Ordering;

/// Default shingle size used by the platform.
pub const DEFAULT_SHINGLE: usize = 3;

/// The id a short text's window is padded with; no token gets it.
const PAD: usize = usize::MAX;

/// Appends `text`'s tokens, lowercased, to `buf`, and each one's byte range
/// in `buf` to `spans`. ASCII takes `to_ascii_lowercase`, which is what
/// `to_lowercase` gives it.
fn lower_into(text: &str, buf: &mut String, spans: &mut Vec<(usize, usize)>) {
    let mut start = buf.len();
    for ch in text.chars().chain([' ']) {
        if ch.is_ascii_alphanumeric() {
            buf.push(ch.to_ascii_lowercase());
        } else if ch.is_alphanumeric() {
            buf.extend(ch.to_lowercase());
        } else {
            if buf.len() > start {
                spans.push((start, buf.len()));
            }
            start = buf.len();
        }
    }
}

/// Lowercases and splits text into alphanumeric word tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let (mut buf, mut spans) = (String::new(), Vec::new());
    lower_into(text, &mut buf, &mut spans);
    spans.iter().map(|&(s, e)| buf[s..e].to_string()).collect()
}

/// A token's first eight bytes as a number; equal tokens have equal heads.
fn head(token: &[u8]) -> u64 {
    token.iter().take(8).fold(0, |h, &b| h << 8 | u64::from(b))
}

/// The distinct windows of `ids`' k-shingles, as sorted start positions;
/// a text of 1..=k tokens is padded to one window first.
fn window_set(ids: &mut Vec<usize>, k: usize) -> Vec<usize> {
    if ids.is_empty() {
        return Vec::new();
    }
    if ids.len() < k {
        ids.resize(k, PAD);
    }
    let window = |s: usize| &ids[s..s + k];
    let mut starts: Vec<usize> = (0..=ids.len() - k).collect();
    starts.sort_unstable_by(|&x, &y| window(x).cmp(window(y)));
    starts.dedup_by(|x, y| window(*x) == window(*y));
    starts
}

/// Similarity of two texts in `[0, 1]`: the Jaccard index of their word
/// `k`-shingle sets (see the module docs).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn shingle_similarity(a: &str, b: &str, k: usize) -> f64 {
    assert!(k > 0, "shingle size must be positive");
    let (mut buf, mut spans) = (String::with_capacity(a.len() + b.len()), Vec::new());
    lower_into(a, &mut buf, &mut spans);
    let a_tokens = spans.len();
    lower_into(b, &mut buf, &mut spans);

    // Interned by sorting on (head, all bytes); most comparisons end at the head.
    let token = |i: usize| &buf.as_bytes()[spans[i].0..spans[i].1];
    let mut order: Vec<(u64, usize)> = (0..spans.len()).map(|i| (head(token(i)), i)).collect();
    order.sort_unstable_by(|x, y| x.0.cmp(&y.0).then_with(|| token(x.1).cmp(token(y.1))));
    let mut ids = vec![0; spans.len()];
    for pair in order.windows(2) {
        let ((prev_head, prev), (head, at)) = (pair[0], pair[1]);
        ids[at] = ids[prev] + usize::from(head != prev_head || token(at) != token(prev));
    }
    let mut ids_b = ids.split_off(a_tokens);
    let (set_a, set_b) = (window_set(&mut ids, k), window_set(&mut ids_b, k));
    if set_a.is_empty() && set_b.is_empty() {
        return 1.0;
    }

    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < set_a.len() && j < set_b.len() {
        let cmp = ids[set_a[i]..][..k].cmp(&ids_b[set_b[j]..][..k]);
        inter += usize::from(cmp == Ordering::Equal);
        i += usize::from(cmp != Ordering::Greater);
        j += usize::from(cmp != Ordering::Less);
    }
    let union = set_a.len() + set_b.len() - inter;
    inter as f64 / union as f64
}

/// Similarity of two texts in `[0, 1]` via `k = 3` word shingles.
pub fn similarity(a: &str, b: &str) -> f64 {
    shingle_similarity(a, b, DEFAULT_SHINGLE)
}

/// The paper's "degree of modification" between a parent and a derived
/// text: `1 − similarity`, in `[0, 1]`.
pub fn modification_degree(parent: &str, derived: &str) -> f64 {
    1.0 - similarity(parent, derived)
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
        // İ lowercases to two chars; a combining mark splits a word.
        assert_eq!(tokenize("İ cafe\u{301}"), vec!["i\u{307}", "cafe"]);
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
        // A text of ≤ k tokens is one shingle, equal only to the same words.
        assert_eq!(shingle_similarity("Two words", "two, WORDS", 3), 1.0);
        assert_eq!(shingle_similarity("two words", "two", 3), 0.0);
        assert_eq!(shingle_similarity("two words", "two words here", 3), 0.0);
        assert_eq!(shingle_similarity("", "...", 3), 1.0);
        assert_eq!(shingle_similarity("", "two words", 3), 0.0);
    }

    #[test]
    #[should_panic(expected = "shingle size must be positive")]
    fn zero_shingle_panics() {
        let _ = shingle_similarity("a b c", "a b c", 0);
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
    }
}
