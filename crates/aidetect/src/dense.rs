//! Logistic regression on dense feature vectors (standardized, SGD).
//!
//! The sparse TF-IDF model in [`crate::logreg`] classifies *text*; this
//! model classifies *feature vectors* — the tool for the paper's §VII
//! "fake news prediction algorithms to anticipate the onset of a fake
//! news propagation", where the inputs are publication-time signals
//! (author history, provenance structure, style features), not raw text.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// SGD epochs.
const EPOCHS: usize = 80;
/// Initial learning rate (decays as 1/(1+0.005·t)).
const LEARNING_RATE: f64 = 0.1;
/// L2 regularization.
const L2: f64 = 1e-4;
/// Shuffle seed.
const SEED: u64 = 1;

/// A trained dense logistic-regression model with built-in feature
/// standardization.
#[derive(Debug, Clone)]
pub struct DenseLogReg {
    weights: Vec<f64>,
    bias: f64,
    means: Vec<f64>,
    stds: Vec<f64>,
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl DenseLogReg {
    /// Trains on rows `x` (equal length) with labels `y` (true =
    /// positive class).
    ///
    /// # Panics
    ///
    /// Panics on empty/ragged input, length mismatch, or single-class
    /// labels.
    pub fn train(x: &[Vec<f64>], y: &[bool]) -> DenseLogReg {
        assert!(!x.is_empty(), "training set must be nonempty");
        assert_eq!(x.len(), y.len(), "features and labels must align");
        let dim = x[0].len();
        assert!(dim > 0, "need at least one feature");
        assert!(x.iter().all(|r| r.len() == dim), "ragged feature rows");
        let pos = y.iter().filter(|l| **l).count();
        assert!(
            pos > 0 && pos < y.len(),
            "training set must contain both classes"
        );

        // Standardize.
        let n = x.len() as f64;
        let mut means = vec![0.0; dim];
        for row in x {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; dim];
        for row in x {
            for ((s, v), m) in stds.iter_mut().zip(row).zip(&means) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt().max(1e-9);
        }
        let standardized: Vec<Vec<f64>> = x
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&means)
                    .zip(&stds)
                    .map(|((v, m), s)| (v - m) / s)
                    .collect()
            })
            .collect();

        let mut weights = vec![0.0; dim];
        let mut bias = 0.0;
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut order: Vec<usize> = (0..x.len()).collect();
        let mut t = 0.0f64;
        for _ in 0..EPOCHS {
            order.shuffle(&mut rng);
            for &i in &order {
                let lr = LEARNING_RATE / (1.0 + 0.005 * t);
                t += 1.0;
                let row = &standardized[i];
                let z = bias + row.iter().zip(&weights).map(|(v, w)| v * w).sum::<f64>();
                let err = sigmoid(z) - if y[i] { 1.0 } else { 0.0 };
                for (w, v) in weights.iter_mut().zip(row) {
                    *w -= lr * (err * v + L2 * *w);
                }
                bias -= lr * err;
            }
        }
        DenseLogReg {
            weights,
            bias,
            means,
            stds,
        }
    }

    /// Predicted probability of the positive class.
    ///
    /// # Panics
    ///
    /// Panics when the feature dimension differs from training.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.weights.len(),
            "feature dimension mismatch"
        );
        let z = self.bias
            + features
                .iter()
                .zip(&self.means)
                .zip(&self.stds)
                .zip(&self.weights)
                .map(|(((v, m), s), w)| (v - m) / s * w)
                .sum::<f64>();
        sigmoid(z)
    }

    /// The learned weights on standardized features (for inspection /
    /// feature-importance reporting).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn toy_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<bool>) {
        // Two informative dims + one noise dim.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let label = rng.gen_bool(0.5);
            let (m1, m2) = if label { (2.0, -1.0) } else { (0.0, 1.0) };
            x.push(vec![
                m1 + rng.gen_range(-1.0..1.0),
                m2 + rng.gen_range(-1.0..1.0),
                rng.gen_range(-10.0..10.0),
            ]);
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn learns_separable_data() {
        let (x, y) = toy_data(400, 3);
        let model = DenseLogReg::train(&x, &y);
        let (xt, yt) = toy_data(200, 99);
        let correct = xt
            .iter()
            .zip(&yt)
            .filter(|(row, l)| (model.predict(row) > 0.5) == **l)
            .count();
        assert!(
            correct as f64 / 200.0 > 0.9,
            "accuracy {}",
            correct as f64 / 200.0
        );
    }

    #[test]
    fn noise_feature_gets_small_weight() {
        let (x, y) = toy_data(600, 5);
        let model = DenseLogReg::train(&x, &y);
        let w = model.weights();
        assert!(w[0].abs() > 3.0 * w[2].abs(), "weights {w:?}");
    }

    #[test]
    fn deterministic() {
        let (x, y) = toy_data(100, 7);
        let a = DenseLogReg::train(&x, &y);
        let b = DenseLogReg::train(&x, &y);
        assert_eq!(a.predict(&x[0]), b.predict(&x[0]));
    }

    #[test]
    fn probabilities_bounded() {
        let (x, y) = toy_data(100, 9);
        let model = DenseLogReg::train(&x, &y);
        for row in &x {
            let p = model.predict(row);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_panics() {
        let x = vec![vec![1.0], vec![2.0]];
        let y = vec![true, true];
        DenseLogReg::train(&x, &y);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dims_panic() {
        let (x, y) = toy_data(50, 11);
        let model = DenseLogReg::train(&x, &y);
        model.predict(&[1.0]);
    }
}
