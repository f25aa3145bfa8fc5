//! Rating-aggregation strategies.
//!
//! The paper criticises "traditional majority decided crowd sourcing
//! mechanisms" and claims its accountable, AI-assisted version prevents
//! their bias (§IV). Three aggregators make that claim testable:
//!
//! - [`majority`]: one account, one vote — the criticised baseline;
//! - [`reputation_weighted`]: votes weighted by the Beta-reputation
//!   ledger;
//! - `truth_discovery`: EM-style iteration that jointly estimates item
//!   truth and per-validator accuracy from the vote matrix alone (no
//!   history needed) — the "AI algorithm" flavour of aggregation.

use std::collections::HashMap;
use std::fmt;

use tn_crypto::{Address, Hash256};

use crate::reputation::ReputationLedger;

/// Typed aggregation failure. Aggregators run on the replica path against
/// adversary-supplied votes, so malformed input must surface as an error
/// a caller can handle — never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggregateError {
    /// `truth_discovery` was asked to run zero EM iterations.
    ZeroIterations,
}

impl fmt::Display for AggregateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregateError::ZeroIterations => {
                write!(f, "truth discovery needs at least one iteration")
            }
        }
    }
}

impl std::error::Error for AggregateError {}

/// One truthfulness vote: `true` = the validator believes the item is
/// factual.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// The validator.
    pub voter: Address,
    /// The item being rated.
    pub item: Hash256,
    /// The verdict.
    pub factual: bool,
}

/// Aggregated decision for one item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The item.
    pub(crate) item: Hash256,
    /// Final verdict: factual?
    pub factual: bool,
    /// Confidence in `[0.5, 1.0]` (share of weight on the winning side).
    pub confidence: f64,
    /// Number of votes aggregated.
    pub(crate) votes: usize,
}

fn group_by_item(votes: &[Vote]) -> HashMap<Hash256, Vec<&Vote>> {
    let mut map: HashMap<Hash256, Vec<&Vote>> = HashMap::new();
    for v in votes {
        map.entry(v.item).or_default().push(v);
    }
    map
}

/// Unweighted majority vote per item. Ties break toward *not factual*
/// (conservative).
pub fn majority(votes: &[Vote]) -> Vec<Decision> {
    let mut out: Vec<Decision> = group_by_item(votes)
        .into_iter()
        .map(|(item, vs)| {
            let yes = vs.iter().filter(|v| v.factual).count();
            let total = vs.len();
            let factual = yes * 2 > total;
            let winner = if factual { yes } else { total - yes };
            Decision {
                item,
                factual,
                confidence: winner as f64 / total as f64,
                votes: total,
            }
        })
        .collect();
    out.sort_by_key(|d| d.item);
    out
}

/// Reputation-weighted vote per item: each vote counts with the voter's
/// ledger weight. Ties break toward *not factual*.
pub fn reputation_weighted(votes: &[Vote], ledger: &ReputationLedger) -> Vec<Decision> {
    let mut out: Vec<Decision> = group_by_item(votes)
        .into_iter()
        .map(|(item, vs)| {
            let mut yes = 0.0;
            let mut total = 0.0;
            for v in &vs {
                let w = ledger.weight(&v.voter);
                total += w;
                if v.factual {
                    yes += w;
                }
            }
            let factual = yes * 2.0 > total;
            let winner = if factual { yes } else { total - yes };
            Decision {
                item,
                factual,
                confidence: if total > 0.0 { winner / total } else { 0.5 },
                votes: vs.len(),
            }
        })
        .collect();
    out.sort_by_key(|d| d.item);
    out
}

/// Reputation-weighted voting with evidence discounting: like
/// [`reputation_weighted`], but each vote's weight is
/// `ReputationLedger::discounted_weight` — fresh identities with no
/// confirmed history count for almost nothing, which is what defeats
/// Sybil swarms (identities are free; *confirmed history* is not).
pub fn evidence_weighted(votes: &[Vote], ledger: &ReputationLedger, k: f64) -> Vec<Decision> {
    let mut out: Vec<Decision> = group_by_item(votes)
        .into_iter()
        .map(|(item, vs)| {
            let mut yes = 0.0;
            let mut total = 0.0;
            for v in &vs {
                let w = ledger.discounted_weight(&v.voter, k);
                total += w;
                if v.factual {
                    yes += w;
                }
            }
            let factual = yes * 2.0 > total;
            let winner = if factual { yes } else { total - yes };
            Decision {
                item,
                factual,
                confidence: if total > 0.0 { winner / total } else { 0.5 },
                votes: vs.len(),
            }
        })
        .collect();
    out.sort_by_key(|d| d.item);
    out
}

/// EM-style truth discovery: alternates between estimating item truth
/// from accuracy-weighted votes (in log-odds space) and re-estimating
/// validator accuracy from agreement with the current truth estimate.
///
/// Returns the decisions and the inferred per-validator accuracies.
///
/// # Errors
///
/// [`AggregateError::ZeroIterations`] if `iterations == 0`.
pub(crate) fn truth_discovery(
    votes: &[Vote],
    iterations: usize,
) -> Result<(Vec<Decision>, HashMap<Address, f64>), AggregateError> {
    if iterations == 0 {
        return Err(AggregateError::ZeroIterations);
    }
    let by_item = group_by_item(votes);
    let mut accuracy: HashMap<Address, f64> = votes.iter().map(|v| (v.voter, 0.7)).collect();
    let mut beliefs: HashMap<Hash256, f64> = HashMap::new(); // P(factual)

    for _ in 0..iterations {
        // E-step: item beliefs from accuracies (log-odds sum).
        for (item, vs) in &by_item {
            let mut log_odds = 0.0f64;
            for v in vs {
                let a = accuracy[&v.voter].clamp(0.05, 0.95);
                let lr = (a / (1.0 - a)).ln();
                log_odds += if v.factual { lr } else { -lr };
            }
            beliefs.insert(*item, 1.0 / (1.0 + (-log_odds).exp()));
        }
        // M-step: accuracies from soft agreement.
        let mut agree: HashMap<Address, (f64, f64)> = HashMap::new();
        for v in votes {
            let p = beliefs[&v.item];
            let match_prob = if v.factual { p } else { 1.0 - p };
            let e = agree.entry(v.voter).or_insert((0.0, 0.0));
            e.0 += match_prob;
            e.1 += 1.0;
        }
        for (who, (hits, n)) in agree {
            // Laplace-smoothed.
            accuracy.insert(who, (hits + 1.0) / (n + 2.0));
        }
    }

    let mut out: Vec<Decision> = by_item
        .into_iter()
        .map(|(item, vs)| {
            let p = beliefs[&item];
            let factual = p > 0.5;
            Decision {
                item,
                factual,
                confidence: if factual { p } else { 1.0 - p },
                votes: vs.len(),
            }
        })
        .collect();
    out.sort_by_key(|d| d.item);
    Ok((out, accuracy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_crypto::sha256::sha256;
    use tn_crypto::Keypair;

    fn addr(i: u64) -> Address {
        Keypair::from_seed(&i.to_le_bytes()).address()
    }

    fn item(i: u8) -> Hash256 {
        sha256(&[i])
    }

    #[test]
    fn majority_counts() {
        let votes = vec![
            Vote {
                voter: addr(1),
                item: item(1),
                factual: true,
            },
            Vote {
                voter: addr(2),
                item: item(1),
                factual: true,
            },
            Vote {
                voter: addr(3),
                item: item(1),
                factual: false,
            },
        ];
        let d = majority(&votes);
        assert_eq!(d.len(), 1);
        assert!(d[0].factual);
        assert!((d[0].confidence - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(d[0].votes, 3);
    }

    #[test]
    fn majority_tie_is_conservative() {
        let votes = vec![
            Vote {
                voter: addr(1),
                item: item(1),
                factual: true,
            },
            Vote {
                voter: addr(2),
                item: item(1),
                factual: false,
            },
        ];
        assert!(!majority(&votes)[0].factual);
    }

    #[test]
    fn reputation_overrides_headcount() {
        // Three low-rep trolls vote fake; one high-rep expert votes factual.
        let mut ledger = ReputationLedger::new();
        for _ in 0..20 {
            ledger.record(&addr(10), true); // expert
            ledger.record(&addr(1), false);
            ledger.record(&addr(2), false);
            ledger.record(&addr(3), false);
        }
        let votes = vec![
            Vote {
                voter: addr(1),
                item: item(1),
                factual: false,
            },
            Vote {
                voter: addr(2),
                item: item(1),
                factual: false,
            },
            Vote {
                voter: addr(3),
                item: item(1),
                factual: false,
            },
            Vote {
                voter: addr(10),
                item: item(1),
                factual: true,
            },
        ];
        // Majority says fake; reputation says factual.
        assert!(!majority(&votes)[0].factual);
        assert!(reputation_weighted(&votes, &ledger)[0].factual);
    }

    #[test]
    fn evidence_discount_neutralizes_fresh_sybils() {
        let mut ledger = ReputationLedger::new();
        // 3 honest with 20 confirmed-correct ratings each.
        for _ in 0..20 {
            for h in 0..3 {
                ledger.record(&addr(h), true);
            }
        }
        // 50 fresh Sybil identities, no history, all voting "fake".
        let mut votes: Vec<Vote> = (0..3)
            .map(|h| Vote {
                voter: addr(h),
                item: item(1),
                factual: true,
            })
            .collect();
        for s in 100..150u64 {
            votes.push(Vote {
                voter: addr(s),
                item: item(1),
                factual: false,
            });
        }
        // Posterior-mean weighting (0.5 each) is outvoted by the swarm…
        assert!(!reputation_weighted(&votes, &ledger)[0].factual);
        // …but evidence discounting reduces the swarm to ~nothing.
        let d = evidence_weighted(&votes, &ledger, 10.0);
        assert!(d[0].factual);
        assert!(d[0].confidence > 0.9);
    }

    #[test]
    fn truth_discovery_finds_reliable_voters() {
        // 4 honest voters (right on all items), 2 adversaries (wrong on all).
        let truths = [true, false, true, true, false, true, false, true];
        let mut votes = Vec::new();
        for (i, t) in truths.iter().enumerate() {
            for h in 0..4 {
                votes.push(Vote {
                    voter: addr(h),
                    item: item(i as u8),
                    factual: *t,
                });
            }
            for a in 10..12 {
                votes.push(Vote {
                    voter: addr(a),
                    item: item(i as u8),
                    factual: !*t,
                });
            }
        }
        let (decisions, accuracy) = truth_discovery(&votes, 10).unwrap();
        for (i, t) in truths.iter().enumerate() {
            let d = decisions.iter().find(|d| d.item == item(i as u8)).unwrap();
            assert_eq!(d.factual, *t, "item {i}");
            assert!(d.confidence > 0.8);
        }
        assert!(accuracy[&addr(0)] > 0.8);
        assert!(accuracy[&addr(10)] < 0.2);
    }

    #[test]
    fn truth_discovery_majority_adversaries_with_minority_honest_consistency() {
        // 5 adversaries vote randomly-but-consistently wrong on half the
        // items; 3 honest always right. EM should still recover truth
        // because adversaries disagree with each other less consistently
        // than honest voters agree. Construct: adversaries wrong on
        // different item subsets.
        let truths: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let mut votes = Vec::new();
        for (i, t) in truths.iter().enumerate() {
            for h in 0..3 {
                votes.push(Vote {
                    voter: addr(h),
                    item: item(i as u8),
                    factual: *t,
                });
            }
            for a in 0..5u64 {
                // Adversary a is wrong only on items where (i + a) % 3 == 0.
                let wrong = (i as u64 + a).is_multiple_of(3);
                votes.push(Vote {
                    voter: addr(100 + a),
                    item: item(i as u8),
                    factual: if wrong { !*t } else { *t },
                });
            }
        }
        let (decisions, _) = truth_discovery(&votes, 15).unwrap();
        let correct = truths
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                decisions
                    .iter()
                    .find(|d| d.item == item(*i as u8))
                    .unwrap()
                    .factual
                    == **t
            })
            .count();
        assert!(correct >= 9, "correct {correct}/10");
    }

    #[test]
    fn empty_votes_empty_decisions() {
        assert!(majority(&[]).is_empty());
        assert!(reputation_weighted(&[], &ReputationLedger::new()).is_empty());
        let (d, a) = truth_discovery(&[], 3).unwrap();
        assert!(d.is_empty() && a.is_empty());
    }

    #[test]
    fn zero_iterations_is_typed_error() {
        assert_eq!(
            truth_discovery(&[], 0).unwrap_err(),
            AggregateError::ZeroIterations
        );
    }
}
