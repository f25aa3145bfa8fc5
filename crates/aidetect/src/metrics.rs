//! Binary-classification evaluation metrics.

/// Confusion counts and derived metrics at a fixed threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// True positives (fake predicted fake).
    pub(crate) tp: usize,
    /// False positives (factual predicted fake).
    pub(crate) fp: usize,
    /// True negatives.
    pub(crate) tn: usize,
    /// False negatives.
    pub(crate) fn_: usize,
    /// (tp + tn) / total.
    pub accuracy: f64,
    /// tp / (tp + fp); 0 when undefined.
    pub(crate) precision: f64,
    /// tp / (tp + fn); 0 when undefined.
    pub recall: f64,
    /// Harmonic mean of precision and recall; 0 when undefined.
    pub f1: f64,
    /// Area under the ROC curve (threshold-free).
    pub auc: f64,
}

/// Evaluates `(label, score)` pairs — `label` true means fake, `score` is
/// the predicted probability of fake — at `threshold`, plus ROC-AUC.
///
/// # Panics
///
/// Panics if `preds` is empty.
pub fn evaluate(preds: &[(bool, f64)], threshold: f64) -> Metrics {
    assert!(!preds.is_empty(), "cannot evaluate an empty prediction set");
    let (mut tp, mut fp, mut tn, mut fn_) = (0usize, 0usize, 0usize, 0usize);
    for &(label, score) in preds {
        let positive = score > threshold;
        match (label, positive) {
            (true, true) => tp += 1,
            (false, true) => fp += 1,
            (false, false) => tn += 1,
            (true, false) => fn_ += 1,
        }
    }
    let total = preds.len() as f64;
    let accuracy = (tp + tn) as f64 / total;
    let precision = if tp + fp > 0 {
        tp as f64 / (tp + fp) as f64
    } else {
        0.0
    };
    let recall = if tp + fn_ > 0 {
        tp as f64 / (tp + fn_) as f64
    } else {
        0.0
    };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    Metrics {
        tp,
        fp,
        tn,
        fn_,
        accuracy,
        precision,
        recall,
        f1,
        auc: roc_auc(preds),
    }
}

/// ROC-AUC via the rank-sum (Mann–Whitney) formulation, with tie
/// correction. Returns 0.5 when one class is absent.
pub fn roc_auc(preds: &[(bool, f64)]) -> f64 {
    let n_pos = preds.iter().filter(|(l, _)| *l).count();
    let n_neg = preds.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Average ranks of scores.
    let mut idx: Vec<usize> = (0..preds.len()).collect();
    idx.sort_by(|&a, &b| {
        preds[a]
            .1
            .partial_cmp(&preds[b].1)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0f64; preds.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && (preds[idx[j + 1]].1 - preds[idx[i]].1).abs() < 1e-15 {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            ranks[idx[k]] = avg;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = preds
        .iter()
        .zip(&ranks)
        .filter(|((l, _), _)| *l)
        .map(|(_, r)| r)
        .sum();
    let u = rank_sum_pos - (n_pos as f64 * (n_pos as f64 + 1.0)) / 2.0;
    u / (n_pos as f64 * n_neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Points of the ROC curve `(false-positive rate, true-positive rate)` at
    /// each distinct threshold, from (0,0) to (1,1).
    fn roc_curve(preds: &[(bool, f64)]) -> Vec<(f64, f64)> {
        let n_pos = preds.iter().filter(|(l, _)| *l).count();
        let n_neg = preds.len() - n_pos;
        if n_pos == 0 || n_neg == 0 {
            return vec![(0.0, 0.0), (1.0, 1.0)];
        }
        let mut sorted: Vec<&(bool, f64)> = preds.iter().collect();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut curve = vec![(0.0, 0.0)];
        let (mut tp, mut fp) = (0usize, 0usize);
        let mut i = 0;
        while i < sorted.len() {
            let score = sorted[i].1;
            while i < sorted.len() && (sorted[i].1 - score).abs() < 1e-15 {
                if sorted[i].0 {
                    tp += 1;
                } else {
                    fp += 1;
                }
                i += 1;
            }
            curve.push((fp as f64 / n_neg as f64, tp as f64 / n_pos as f64));
        }
        curve
    }

    #[test]
    fn perfect_classifier() {
        let preds = vec![(true, 0.9), (true, 0.8), (false, 0.2), (false, 0.1)];
        let m = evaluate(&preds, 0.5);
        assert_eq!((m.tp, m.fp, m.tn, m.fn_), (2, 0, 2, 0));
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.f1, 1.0);
        assert_eq!(m.auc, 1.0);
    }

    #[test]
    fn inverted_classifier() {
        let preds = vec![(true, 0.1), (false, 0.9)];
        let m = evaluate(&preds, 0.5);
        assert_eq!(m.accuracy, 0.0);
        assert_eq!(m.auc, 0.0);
    }

    #[test]
    fn random_scores_auc_half() {
        // Symmetric construction: every positive ties with a negative.
        let preds = vec![(true, 0.5), (false, 0.5), (true, 0.3), (false, 0.3)];
        assert!((roc_auc(&preds) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_class_auc_is_half() {
        assert_eq!(roc_auc(&[(true, 0.9), (true, 0.1)]), 0.5);
    }

    #[test]
    fn precision_recall_arithmetic() {
        // tp=1 (0.9), fp=1 (0.8), fn=1 (0.3), tn=1 (0.2)
        let preds = vec![(true, 0.9), (false, 0.8), (true, 0.3), (false, 0.2)];
        let m = evaluate(&preds, 0.5);
        assert_eq!((m.tp, m.fp, m.tn, m.fn_), (1, 1, 1, 1));
        assert!((m.precision - 0.5).abs() < 1e-12);
        assert!((m.recall - 0.5).abs() < 1e-12);
        assert!((m.f1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn roc_curve_endpoints_and_monotonic() {
        let preds = vec![(true, 0.9), (false, 0.8), (true, 0.7), (false, 0.1)];
        let curve = roc_curve(&preds);
        assert_eq!(curve.first(), Some(&(0.0, 0.0)));
        assert_eq!(curve.last(), Some(&(1.0, 1.0)));
        for w in curve.windows(2) {
            assert!(
                w[1].0 >= w[0].0 && w[1].1 >= w[0].1,
                "non-monotonic: {curve:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty prediction set")]
    fn empty_panics() {
        evaluate(&[], 0.5);
    }
}
