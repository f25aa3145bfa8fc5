//! Text feature extraction: vocabulary, bag-of-words counts and TF-IDF.

use std::collections::HashMap;

/// Lowercased alphanumeric word tokens: the supply-chain graph's
/// tokenizer, so the detector and the modification degree see the same
/// words.
pub(crate) use tn_supplychain::text::tokenize;

/// A fitted vocabulary mapping tokens to dense feature indices.
#[derive(Debug, Clone, Default)]
pub(crate) struct Vocabulary {
    index: HashMap<String, usize>,
    /// Document frequency per term (for IDF).
    doc_freq: Vec<usize>,
    /// Number of documents seen during fitting.
    n_docs: usize,
}

impl Vocabulary {
    /// Fits a vocabulary over a document collection, keeping terms that
    /// appear in at least `min_df` documents.
    pub(crate) fn fit<'a, I: IntoIterator<Item = &'a str>>(docs: I, min_df: usize) -> Vocabulary {
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
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Index of a term, if in vocabulary.
    pub(crate) fn term_index(&self, term: &str) -> Option<usize> {
        self.index.get(term).copied()
    }

    /// Sparse raw term counts for a document: `(index, count)` pairs
    /// sorted by index. Out-of-vocabulary tokens are dropped.
    pub(crate) fn counts(&self, text: &str) -> Vec<(usize, f64)> {
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
    pub(crate) fn tfidf(&self, text: &str) -> Vec<(usize, f64)> {
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

#[cfg(test)]
mod tests {
    use super::*;

    impl Vocabulary {
        /// Iterates `(term, index)` pairs (unordered).
        pub(crate) fn terms(&self) -> impl Iterator<Item = (&str, usize)> {
            self.index.iter().map(|(t, i)| (t.as_str(), *i))
        }
    }

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
}
