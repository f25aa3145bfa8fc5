//! Round-based crowd-ranking simulation with incentives — the engine of
//! the E2 robustness experiment.
//!
//! Each round, a batch of news items (with hidden ground truth) is rated
//! by the validator population; an aggregation strategy decides; decisions
//! are scored against the truth. The reputation ledger and incentive
//! balances update only from the subset of items whose truth is later
//! *confirmed* (on the platform: attested into the factual database by
//! fact checkers) — never from the crowd's own decision, which a wrong
//! majority could otherwise use to mint reputation for itself.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tn_crypto::sha256::tagged_hash;
use tn_crypto::{Address, Hash256, Keypair};

use crate::adversary::{Behavior, Validator};
use crate::aggregate::{majority, reputation_weighted, truth_discovery, Decision, Vote};
use crate::reputation::ReputationLedger;

/// Which aggregation strategy the platform runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Unweighted majority (the criticised baseline).
    Majority,
    /// Beta-reputation weighted voting.
    ReputationWeighted,
    /// EM truth discovery (no reputation history needed).
    TruthDiscovery,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Honest validators.
    pub n_honest: usize,
    /// Malicious validators (always invert).
    pub n_malicious: usize,
    /// Honest per-vote error rate.
    pub honest_error: f64,
    /// Number of rounds.
    pub rounds: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_honest: 20,
            n_malicious: 5,
            honest_error: 0.1,
            rounds: 15,
            seed: 7,
        }
    }
}

/// Items per round.
const ITEMS_PER_ROUND: usize = 20;
/// Fraction of items that are actually factual.
const FACTUAL_FRACTION: f64 = 0.6;
/// Tokens rewarded per correct vote / slashed per wrong vote.
const REWARD: i64 = 1;
/// Fraction of items whose true label is eventually confirmed by the
/// fact-checking pipeline (attested into the factual database).
/// Reputation and incentives update ONLY from confirmed items — the
/// platform never treats its own crowd decision as ground truth, which is
/// what makes reputation poisoning-resistant.
const CONFIRMATION_FRACTION: f64 = 0.3;

/// Results of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Fraction of decisions matching ground truth, per round.
    pub accuracy_per_round: Vec<f64>,
    /// Overall decision accuracy.
    pub overall_accuracy: f64,
    /// Final incentive balances.
    pub balances: HashMap<Address, i64>,
    /// Mean final reputation weight of honest validators.
    pub honest_weight: f64,
    /// Mean final reputation weight of malicious validators.
    pub malicious_weight: f64,
}

/// Builds the validator population for a config.
pub(crate) fn build_population(config: &SimConfig) -> Vec<Validator> {
    let mut pop = Vec::new();
    for i in 0..config.n_honest {
        pop.push(Validator {
            address: Keypair::from_seed(format!("honest-{i}").as_bytes()).address(),
            behavior: Behavior::Honest {
                error_rate: config.honest_error,
            },
        });
    }
    for i in 0..config.n_malicious {
        pop.push(Validator {
            address: Keypair::from_seed(format!("malicious-{i}").as_bytes()).address(),
            behavior: Behavior::Malicious,
        });
    }
    pop
}

/// Runs the simulation with the given strategy.
///
/// # Panics
///
/// Panics when the population or round configuration is empty.
pub fn run(config: &SimConfig, strategy: Strategy) -> SimResult {
    let population = build_population(config);
    assert!(!population.is_empty(), "population must be nonempty");
    assert!(config.rounds > 0, "need rounds");

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut ledger = ReputationLedger::new();
    let mut balances: HashMap<Address, i64> = HashMap::new();
    let mut accuracy_per_round = Vec::with_capacity(config.rounds);
    let mut total_correct = 0usize;
    let mut total_items = 0usize;

    for round in 0..config.rounds {
        // Generate this round's items and hidden truths.
        let items: Vec<(Hash256, bool)> = (0..ITEMS_PER_ROUND)
            .map(|i| {
                let id = tagged_hash(
                    "TN/sim-item",
                    format!("{}-{round}-{i}", config.seed).as_bytes(),
                );
                (id, rng.gen_bool(FACTUAL_FRACTION))
            })
            .collect();

        // Collect votes.
        let mut votes: Vec<Vote> = Vec::with_capacity(items.len() * population.len());
        for (item, truth) in &items {
            for v in &population {
                votes.push(v.vote(item, *truth, &mut rng));
            }
        }

        // Aggregate.
        let decisions: Vec<Decision> = match strategy {
            Strategy::Majority => majority(&votes),
            Strategy::ReputationWeighted => reputation_weighted(&votes, &ledger),
            // 10 iterations is statically nonzero, so the error arm is
            // unreachable; an empty decision set is the safe fallback.
            Strategy::TruthDiscovery => truth_discovery(&votes, 10)
                .map(|(d, _)| d)
                .unwrap_or_default(),
        };
        let decided: HashMap<Hash256, bool> =
            decisions.iter().map(|d| (d.item, d.factual)).collect();

        // Score against ground truth.
        let correct = items
            .iter()
            .filter(|(id, t)| decided.get(id) == Some(t))
            .count();
        accuracy_per_round.push(correct as f64 / items.len() as f64);
        total_correct += correct;
        total_items += items.len();

        // Update reputation and incentives — but only from items whose
        // truth is later *confirmed* by fact checkers (attested into the
        // factual database). Updating from the crowd's own decision would
        // let a wrong majority mint reputation for itself; grounding in
        // confirmed outcomes is the platform's defense.
        let confirmed: HashMap<Hash256, bool> = items
            .iter()
            .filter(|_| rng.gen_bool(CONFIRMATION_FRACTION))
            .map(|(id, t)| (*id, *t))
            .collect();
        for vote in &votes {
            if let Some(&truth) = confirmed.get(&vote.item) {
                let agreed = vote.factual == truth;
                ledger.record(&vote.voter, agreed);
                let delta = if agreed { REWARD } else { -REWARD };
                *balances.entry(vote.voter).or_insert(0) += delta;
            }
        }
    }

    let mean_weight = |prefix: &str| {
        let addrs: Vec<Address> = population
            .iter()
            .filter(|v| {
                matches!(
                    (prefix, v.behavior),
                    ("honest", Behavior::Honest { .. }) | ("malicious", Behavior::Malicious)
                )
            })
            .map(|v| v.address)
            .collect();
        if addrs.is_empty() {
            0.0
        } else {
            addrs.iter().map(|a| ledger.weight(a)).sum::<f64>() / addrs.len() as f64
        }
    };

    SimResult {
        accuracy_per_round,
        overall_accuracy: total_correct as f64 / total_items as f64,
        honest_weight: mean_weight("honest"),
        malicious_weight: mean_weight("malicious"),
        balances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_majority_all_strategies_work() {
        let config = SimConfig::default(); // 20 honest vs 5 malicious
        for strategy in [
            Strategy::Majority,
            Strategy::ReputationWeighted,
            Strategy::TruthDiscovery,
        ] {
            let r = run(&config, strategy);
            assert!(
                r.overall_accuracy > 0.9,
                "{strategy:?} accuracy {}",
                r.overall_accuracy
            );
        }
    }

    #[test]
    fn reputation_separates_honest_from_malicious() {
        let r = run(&SimConfig::default(), Strategy::ReputationWeighted);
        assert!(r.honest_weight > 0.75, "honest weight {}", r.honest_weight);
        assert!(
            r.malicious_weight < 0.25,
            "malicious weight {}",
            r.malicious_weight
        );
    }

    #[test]
    fn weighted_survives_near_majority_attack_where_majority_fails() {
        // 12 honest vs 10 malicious with 15% honest noise: majority is
        // fragile; reputation-weighted learns who to trust and stays
        // accurate.
        let config = SimConfig {
            n_honest: 12,
            n_malicious: 10,
            honest_error: 0.15,
            rounds: 25,
            ..SimConfig::default()
        };
        let maj = run(&config, Strategy::Majority);
        let rep = run(&config, Strategy::ReputationWeighted);
        assert!(
            rep.overall_accuracy > maj.overall_accuracy + 0.05,
            "rep {} vs maj {}",
            rep.overall_accuracy,
            maj.overall_accuracy
        );
        // After learning, late-round accuracy should be near-perfect.
        let late: f64 = rep.accuracy_per_round.iter().rev().take(5).sum::<f64>() / 5.0;
        assert!(late > 0.9, "late-round weighted accuracy {late}");
    }

    #[test]
    fn outright_malicious_majority_poisons_everything() {
        // With 60% malicious validators, no anonymous mechanism can win —
        // the paper's argument for identity + accountability rather than
        // pure crowd counting.
        let config = SimConfig {
            n_honest: 8,
            n_malicious: 12,
            rounds: 10,
            ..SimConfig::default()
        };
        let maj = run(&config, Strategy::Majority);
        assert!(
            maj.overall_accuracy < 0.3,
            "majority accuracy {}",
            maj.overall_accuracy
        );
    }

    #[test]
    fn incentives_accrue_to_honest_under_weighted_ranking() {
        let r = run(&SimConfig::default(), Strategy::ReputationWeighted);
        let pop = build_population(&SimConfig::default());
        let honest_mean: f64 = pop
            .iter()
            .filter(|v| matches!(v.behavior, Behavior::Honest { .. }))
            .map(|v| *r.balances.get(&v.address).unwrap_or(&0) as f64)
            .sum::<f64>()
            / 20.0;
        let malicious_mean: f64 = pop
            .iter()
            .filter(|v| matches!(v.behavior, Behavior::Malicious))
            .map(|v| *r.balances.get(&v.address).unwrap_or(&0) as f64)
            .sum::<f64>()
            / 5.0;
        assert!(honest_mean > 0.0, "honest mean balance {honest_mean}");
        assert!(
            malicious_mean < 0.0,
            "malicious mean balance {malicious_mean}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&SimConfig::default(), Strategy::ReputationWeighted);
        let b = run(&SimConfig::default(), Strategy::ReputationWeighted);
        assert_eq!(a.accuracy_per_round, b.accuracy_per_round);
        assert_eq!(a.overall_accuracy, b.overall_accuracy);
    }

    #[test]
    #[should_panic(expected = "population must be nonempty")]
    fn empty_population_panics() {
        let config = SimConfig {
            n_honest: 0,
            n_malicious: 0,
            ..SimConfig::default()
        };
        run(&config, Strategy::Majority);
    }
}
