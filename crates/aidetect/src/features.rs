//! Text feature extraction: vocabulary, bag-of-words counts and TF-IDF.

use std::collections::HashMap;

/// Lowercased alphanumeric word tokens: the supply-chain graph's
/// tokenizer, so the detector and the modification degree see the same
/// words.
pub use tn_supplychain::text::tokenize;

/// A fitted vocabulary mapping tokens to dense feature indices.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    index: HashMap<String, usize>,
    /// Document frequency per term (for IDF).
    doc_freq: Vec<usize>,
    /// Number of documents seen during fitting.
    n_docs: usize,
}

impl Vocabulary {
    /// Fits a vocabulary over a document collection, keeping terms that
    /// appear in at least `min_df` documents.
    pub fn fit<'a, I: IntoIterator<Item = &'a str>>(docs: I, min_df: usize) -> Vocabulary {
        let mut df: HashMap<String, usize> = HashMap::new();
        let mut n_docs = 0usize;
        for doc in docs {
            n_docs += 1;
            let mut seen: HashMap<String, ()> = HashMap::new();
            for tok in tokenize(doc) {
                seen.entry(tok).or_insert(());
            }
            for tok in seen.into_keys() {
                *df.entry(tok).or_insert(0) += 1;
            }
        }
        let mut terms: Vec<(String, usize)> = df
            .into_iter()
            .filter(|(_, c)| *c >= min_df.max(1))
            .collect();
        // Sort for deterministic index assignment.
        terms.sort();
        let mut index = HashMap::with_capacity(terms.len());
        let mut doc_freq = Vec::with_capacity(terms.len());
        for (i, (term, c)) in terms.into_iter().enumerate() {
            index.insert(term, i);
            doc_freq.push(c);
        }
        Vocabulary {
            index,
            doc_freq,
            n_docs,
        }
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no terms were kept.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Index of a term, if in vocabulary.
    pub fn term_index(&self, term: &str) -> Option<usize> {
        self.index.get(term).copied()
    }

    /// Iterates `(term, index)` pairs (unordered).
    pub fn terms(&self) -> impl Iterator<Item = (&str, usize)> {
        self.index.iter().map(|(t, i)| (t.as_str(), *i))
    }

    /// Sparse raw term counts for a document: `(index, count)` pairs
    /// sorted by index. Out-of-vocabulary tokens are dropped.
    pub fn counts(&self, text: &str) -> Vec<(usize, f64)> {
        let mut acc: HashMap<usize, f64> = HashMap::new();
        for tok in tokenize(text) {
            if let Some(&i) = self.index.get(&tok) {
                *acc.entry(i).or_insert(0.0) += 1.0;
            }
        }
        let mut v: Vec<(usize, f64)> = acc.into_iter().collect();
        v.sort_by_key(|(i, _)| *i);
        v
    }

    /// Sparse TF-IDF vector, L2-normalized. TF is raw count; IDF is
    /// `ln((1 + N) / (1 + df)) + 1` (smoothed, sklearn-style).
    pub fn tfidf(&self, text: &str) -> Vec<(usize, f64)> {
        let mut v = self.counts(text);
        let n = self.n_docs as f64;
        let mut norm = 0.0;
        for (i, val) in &mut v {
            let idf = ((1.0 + n) / (1.0 + self.doc_freq[*i] as f64)).ln() + 1.0;
            *val *= idf;
            norm += *val * *val;
        }
        if norm > 0.0 {
            let norm = norm.sqrt();
            for (_, val) in &mut v {
                *val /= norm;
            }
        }
        v
    }
}

/// Sparse dot product of two index-sorted vectors.
pub fn sparse_dot(a: &[(usize, f64)], b: &[(usize, f64)]) -> f64 {
    let mut i = 0;
    let mut j = 0;
    let mut sum = 0.0;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                sum += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    sum
}

/// Cosine similarity of two sparse vectors (0 for zero vectors).
pub fn cosine(a: &[(usize, f64)], b: &[(usize, f64)]) -> f64 {
    let na: f64 = a.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    sparse_dot(a, b) / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOCS: [&str; 4] = [
        "the committee approved the budget",
        "the committee rejected the amendment",
        "shocking scandal rocks the committee",
        "markets rally after budget approval",
    ];

    #[test]
    fn fit_and_lookup() {
        let v = Vocabulary::fit(DOCS, 1);
        assert!(v.len() > 5);
        assert!(v.term_index("committee").is_some());
        assert!(v.term_index("zebra").is_none());
    }

    #[test]
    fn min_df_filters_rare_terms() {
        let v = Vocabulary::fit(DOCS, 2);
        assert!(v.term_index("committee").is_some()); // appears in 3 docs
        assert!(v.term_index("scandal").is_none()); // appears in 1 doc
    }

    #[test]
    fn counts_are_sorted_and_correct() {
        let v = Vocabulary::fit(DOCS, 1);
        let c = v.counts("the committee and the committee");
        assert!(c.windows(2).all(|w| w[0].0 < w[1].0));
        let committee = v.term_index("committee").unwrap();
        let the = v.term_index("the").unwrap();
        assert!(c.contains(&(committee, 2.0)));
        assert!(c.contains(&(the, 2.0)));
        // "and" may be oov if absent from training docs.
    }

    #[test]
    fn tfidf_is_normalized() {
        let v = Vocabulary::fit(DOCS, 1);
        let t = v.tfidf(DOCS[0]);
        let norm: f64 = t.iter().map(|(_, x)| x * x).sum();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tfidf_downweights_common_terms() {
        let v = Vocabulary::fit(DOCS, 1);
        let t = v.tfidf("the scandal");
        let the_idx = v.term_index("the").unwrap();
        let scandal_idx = v.term_index("scandal").unwrap();
        let get = |idx| t.iter().find(|(i, _)| *i == idx).map(|(_, x)| *x).unwrap();
        assert!(
            get(scandal_idx) > get(the_idx),
            "rare term should weigh more"
        );
    }

    #[test]
    fn empty_and_oov_documents() {
        let v = Vocabulary::fit(DOCS, 1);
        assert!(v.counts("").is_empty());
        assert!(v.tfidf("xylophone quartz").is_empty());
    }

    #[test]
    fn sparse_ops() {
        let a = vec![(0, 1.0), (2, 2.0), (5, 3.0)];
        let b = vec![(2, 4.0), (5, 1.0), (9, 7.0)];
        assert!((sparse_dot(&a, &b) - 11.0).abs() < 1e-12);
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-12);
        assert_eq!(cosine(&a, &[]), 0.0);
        // Orthogonal.
        assert_eq!(sparse_dot(&[(0, 1.0)], &[(1, 1.0)]), 0.0);
    }
}
