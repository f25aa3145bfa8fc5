//! Beta-distribution reputation for crowd validators.
//!
//! The platform's accountability makes every rating attributable, so a
//! validator's history of agreeing (or not) with eventually-confirmed
//! outcomes is public. That history is summarized as a Beta(α, β)
//! posterior: α counts confirmed-correct ratings, β confirmed-wrong ones;
//! the reputation weight is the posterior mean α/(α+β). New validators
//! start at Beta(1, 1) — weight 0.5, maximally uncertain — which also
//! bounds the damage a fresh Sybil identity can do (the "prevent bias …
//! originated from traditional majority decided crowd sourcing" claim of
//! §IV that E2 tests).

use std::collections::HashMap;
use std::fmt;

use tn_crypto::Address;

/// Typed reputation-update failure. Reputation maintenance runs on the
/// replica path, so a bad parameter must be reportable, not a panic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReputationError {
    /// A decay factor outside `(0, 1]`.
    BadDecayFactor(f64),
}

impl fmt::Display for ReputationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReputationError::BadDecayFactor(v) => {
                write!(f, "decay factor must be in (0, 1], got {v}")
            }
        }
    }
}

impl std::error::Error for ReputationError {}

/// One validator's reputation state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reputation {
    /// Correct-outcome evidence (starts at 1).
    pub alpha: f64,
    /// Wrong-outcome evidence (starts at 1).
    pub beta: f64,
}

impl Default for Reputation {
    fn default() -> Self {
        Reputation {
            alpha: 1.0,
            beta: 1.0,
        }
    }
}

impl Reputation {
    /// Posterior-mean weight in `(0, 1)`.
    pub fn weight(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// Total evidence (confidence proxy).
    pub fn evidence(&self) -> f64 {
        self.alpha + self.beta - 2.0
    }

    /// Records an outcome.
    pub fn record(&mut self, correct: bool) {
        if correct {
            self.alpha += 1.0;
        } else {
            self.beta += 1.0;
        }
    }

    /// Exponential forgetting: scales evidence toward the prior, so old
    /// behaviour fades and reformed (or newly corrupted) validators
    /// converge to their current behaviour.
    ///
    /// # Errors
    ///
    /// [`ReputationError::BadDecayFactor`] unless `0.0 < factor <= 1.0`
    /// (NaN included). The state is untouched on error.
    pub fn decay(&mut self, factor: f64) -> Result<(), ReputationError> {
        if !(factor > 0.0 && factor <= 1.0) {
            return Err(ReputationError::BadDecayFactor(factor));
        }
        self.alpha = 1.0 + (self.alpha - 1.0) * factor;
        self.beta = 1.0 + (self.beta - 1.0) * factor;
        Ok(())
    }
}

/// Reputation ledger for the whole validator population.
#[derive(Debug, Clone, Default)]
pub struct ReputationLedger {
    entries: HashMap<Address, Reputation>,
}

impl ReputationLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The reputation record for a validator (default prior when unseen).
    pub(crate) fn get(&self, who: &Address) -> Reputation {
        self.entries.get(who).copied().unwrap_or_default()
    }

    /// Current weight of a validator.
    pub fn weight(&self, who: &Address) -> f64 {
        self.get(who).weight()
    }

    /// Evidence-discounted weight: the posterior mean multiplied by
    /// `evidence / (evidence + k)`. A fresh identity (zero confirmed
    /// history) weighs ~0 regardless of how many of them an attacker
    /// mints — the Sybil-resistance weighting of E13. `k` sets how much
    /// confirmed history buys full weight.
    pub(crate) fn discounted_weight(&self, who: &Address, k: f64) -> f64 {
        let rep = self.get(who);
        let e = rep.evidence();
        rep.weight() * (e / (e + k.max(1e-9)))
    }

    /// Records a confirmed outcome for a validator.
    pub fn record(&mut self, who: &Address, correct: bool) {
        self.entries.entry(*who).or_default().record(correct);
    }

    /// Applies decay to every validator.
    ///
    /// # Errors
    ///
    /// [`ReputationError::BadDecayFactor`] unless `0.0 < factor <= 1.0`;
    /// no entry is modified on error.
    pub fn decay_all(&mut self, factor: f64) -> Result<(), ReputationError> {
        if !(factor > 0.0 && factor <= 1.0) {
            return Err(ReputationError::BadDecayFactor(factor));
        }
        for rep in self.entries.values_mut() {
            // Factor already validated, so per-entry decay cannot fail.
            let _ = rep.decay(factor);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_crypto::Keypair;

    impl ReputationLedger {
        /// Number of validators with recorded history.
        fn len(&self) -> usize {
            self.entries.len()
        }
    }

    fn addr(i: u64) -> Address {
        Keypair::from_seed(&i.to_le_bytes()).address()
    }

    #[test]
    fn prior_is_half() {
        let r = Reputation::default();
        assert!((r.weight() - 0.5).abs() < 1e-12);
        assert_eq!(r.evidence(), 0.0);
    }

    #[test]
    fn weight_tracks_accuracy() {
        let mut r = Reputation::default();
        for _ in 0..9 {
            r.record(true);
        }
        r.record(false);
        // Beta(10, 2) → 10/12.
        assert!((r.weight() - 10.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn consistently_wrong_sinks() {
        let mut r = Reputation::default();
        for _ in 0..20 {
            r.record(false);
        }
        assert!(r.weight() < 0.1);
    }

    #[test]
    fn decay_moves_toward_prior() {
        let mut r = Reputation::default();
        for _ in 0..30 {
            r.record(true);
        }
        let w_before = r.weight();
        r.decay(0.5).unwrap();
        let w_after = r.weight();
        assert!(w_after < w_before);
        assert!(w_after > 0.5);
        // Full decay resets to prior.
        let mut r2 = r;
        for _ in 0..60 {
            r2.decay(0.1).unwrap();
        }
        assert!((r2.weight() - 0.5).abs() < 0.01);
    }

    #[test]
    fn bad_decay_is_typed_error_and_leaves_state() {
        let mut r = Reputation::default();
        for _ in 0..5 {
            r.record(true);
        }
        let before = r;
        for bad in [0.0, -1.0, 1.5, f64::NAN] {
            assert!(matches!(
                r.decay(bad),
                Err(ReputationError::BadDecayFactor(_))
            ));
            assert_eq!(r, before, "state must be untouched on error");
        }
        let mut ledger = ReputationLedger::new();
        ledger.record(&addr(1), true);
        let w = ledger.weight(&addr(1));
        assert!(ledger.decay_all(0.0).is_err());
        assert_eq!(ledger.weight(&addr(1)), w);
    }

    #[test]
    fn ledger_defaults_and_leaderboard() {
        let mut ledger = ReputationLedger::new();
        assert!((ledger.weight(&addr(1)) - 0.5).abs() < 1e-12);
        for _ in 0..5 {
            ledger.record(&addr(1), true);
            ledger.record(&addr(2), false);
        }
        assert!(ledger.weight(&addr(1)) > 0.7 && ledger.weight(&addr(2)) < 0.3);
        assert_eq!(ledger.len(), 2);
    }

    #[test]
    fn decay_all_applies() {
        let mut ledger = ReputationLedger::new();
        for _ in 0..10 {
            ledger.record(&addr(1), true);
        }
        let before = ledger.weight(&addr(1));
        ledger.decay_all(0.5).unwrap();
        assert!(ledger.weight(&addr(1)) < before);
    }
}
