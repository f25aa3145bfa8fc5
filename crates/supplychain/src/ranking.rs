//! Factualness scores from provenance traces, and rank-quality metrics.
//!
//! The paper: "The trace distance of graph from its root to the current
//! reported news and the degree of the modifications … can then be used to
//! rank the factualness of the news" (§VI). The trace score (Π of per-hop
//! retention) is the provenance signal `Platform::rank_item` blends with
//! the AI and crowd scores; Spearman correlation and precision@k quantify
//! rank quality in the E3 experiment.

use tn_crypto::Hash256;

use crate::graph::{TraceResult, TraceSummary};

/// Converts a trace result to a `[0, 1]` provenance score.
pub fn trace_score(trace: &TraceResult) -> f64 {
    provenance_score(trace.reaches_root, trace.score)
}

/// [`trace_score`] of a trace read without its path.
pub fn summary_score(trace: &TraceSummary) -> f64 {
    provenance_score(trace.reaches_root, trace.score)
}

fn provenance_score(reaches_root: bool, score: f64) -> f64 {
    if reaches_root {
        score.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Assigns average ranks (1-based, ties averaged) to values.
fn average_ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && (values[idx[j + 1]] - values[idx[i]]).abs() < 1e-12 {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            ranks[idx[k]] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation between two equal-length samples.
/// Returns 0.0 for degenerate inputs (length < 2 or zero variance).
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "samples must have equal length");
    if a.len() < 2 {
        return 0.0;
    }
    let ra = average_ranks(a);
    let rb = average_ranks(b);
    pearson(&ra, &rb)
}

/// Pearson correlation (0.0 for zero-variance inputs).
pub(crate) fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "samples must have equal length");
    let n = a.len() as f64;
    if a.is_empty() {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..a.len() {
        let da = a[i] - ma;
        let db = b[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Precision@k: of the top-k items by `score`, the fraction whose id is in
/// `relevant`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn precision_at_k(
    scored: &[(Hash256, f64)],
    relevant: &std::collections::HashSet<Hash256>,
    k: usize,
) -> f64 {
    assert!(k > 0, "k must be positive");
    let mut sorted: Vec<&(Hash256, f64)> = scored.iter().collect();
    sorted.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap_or(std::cmp::Ordering::Equal));
    let top = sorted
        .iter()
        .take(k)
        .filter(|(id, _)| relevant.contains(id))
        .count();
    top as f64 / k.min(scored.len()).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tn_crypto::sha256::sha256;

    #[test]
    fn spearman_perfect_and_inverse() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let up = [10.0, 20.0, 30.0, 40.0];
        let down = [9.0, 7.0, 5.0, 3.0];
        assert!((spearman(&a, &up) - 1.0).abs() < 1e-9);
        assert!((spearman(&a, &down) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn spearman_handles_ties_and_degenerate() {
        let a = [1.0, 1.0, 2.0];
        let b = [5.0, 5.0, 9.0];
        assert!(spearman(&a, &b) > 0.9);
        assert_eq!(spearman(&[1.0], &[2.0]), 0.0);
        assert_eq!(spearman(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn pearson_known_value() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 4.0, 6.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn precision_at_k_basic() {
        let ids: Vec<Hash256> = (0..5u8).map(|i| sha256(&[i])).collect();
        let scored: Vec<(Hash256, f64)> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| (*id, i as f64))
            .collect();
        // Highest scores are ids[4], ids[3].
        let relevant: HashSet<Hash256> = [ids[4], ids[0]].into_iter().collect();
        assert!((precision_at_k(&scored, &relevant, 2) - 0.5).abs() < 1e-9);
        assert!((precision_at_k(&scored, &relevant, 1) - 1.0).abs() < 1e-9);
    }
}
