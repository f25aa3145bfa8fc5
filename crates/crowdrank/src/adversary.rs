//! Validator behaviour models, honest and adversarial.

use rand::Rng;

use tn_crypto::{Address, Hash256};

use crate::aggregate::Vote;

/// How a validator produces votes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Behavior {
    /// Votes the ground truth, flipping with the given error probability.
    Honest {
        /// Per-vote error probability.
        error_rate: f64,
    },
    /// Always votes the opposite of the truth (a coordinated smear /
    /// whitewash bloc when many share this behaviour).
    Malicious,
}

/// A simulated validator.
#[derive(Debug, Clone)]
pub(crate) struct Validator {
    /// Its platform identity.
    pub(crate) address: Address,
    /// Its behaviour.
    pub(crate) behavior: Behavior,
}

impl Validator {
    /// Produces this validator's vote on an item with known ground truth.
    pub(crate) fn vote<R: Rng>(&self, item: &Hash256, truth: bool, rng: &mut R) -> Vote {
        let factual = match self.behavior {
            Behavior::Honest { error_rate } => {
                if rng.gen_bool(error_rate.clamp(0.0, 1.0)) {
                    !truth
                } else {
                    truth
                }
            }
            Behavior::Malicious => !truth,
        };
        Vote {
            voter: self.address,
            item: *item,
            factual,
        }
    }
}

/// What a campaign participant is rating right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignTarget {
    /// The fake article the campaign is amplifying.
    FakeItem,
    /// The competing factual article the campaign wants buried.
    FactualItem,
    /// An uncontested background article (campaign-irrelevant).
    Background,
}

/// Adversarial participant roles for end-to-end misinformation campaigns
/// (E24). Unlike `Behavior` — which emits boolean votes for the in-crate
/// simulation — a role emits 0–100 *scores* for the on-chain ranking
/// contract, and its behaviour can change over time (turncoats flip).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CampaignRole {
    /// Rates factual content high and fake content low, with per-vote
    /// noise (so honest vote vectors never look coordinated).
    HonestRanker,
    /// Coordinated bot: amplifies the fake item and smears the factual
    /// one with *scripted identical scores* every round — the exact-vote
    /// fingerprint the coordination detector keys on.
    RingBot {
        /// The scripted score for the fake item (factual gets `100 - s`).
        script_score: u8,
    },
    /// Reputation-farming sybil: behaves like an honest ranker until
    /// `flip_round`, then joins the bot ring.
    TurncoatSybil {
        /// First round of ring behaviour.
        flip_round: usize,
        /// Ring script score after the flip.
        script_score: u8,
    },
    /// An established honest ranker who was bribed: honest on everything
    /// except the fake campaign item, which it boosts with individually
    /// distinct scores (evading exact-vote ring detection).
    BribedRanker,
}

impl CampaignRole {
    /// The participant's 0–100 rating for `target` at `round`.
    pub fn score<R: Rng>(&self, target: CampaignTarget, round: usize, rng: &mut R) -> u8 {
        let honest = |rng: &mut R| match target {
            CampaignTarget::FakeItem => rng.gen_range(2..=38),
            CampaignTarget::FactualItem => rng.gen_range(62..=98),
            CampaignTarget::Background => rng.gen_range(40..=90),
        };
        let ring = |script: u8| match target {
            CampaignTarget::FakeItem => script,
            CampaignTarget::FactualItem => 100 - script,
            CampaignTarget::Background => 50,
        };
        match *self {
            CampaignRole::HonestRanker => honest(rng),
            CampaignRole::RingBot { script_score } => ring(script_score),
            CampaignRole::TurncoatSybil {
                flip_round,
                script_score,
            } => {
                if round >= flip_round {
                    ring(script_score)
                } else {
                    honest(rng)
                }
            }
            CampaignRole::BribedRanker => match target {
                CampaignTarget::FakeItem => rng.gen_range(88..=100),
                _ => honest(rng),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tn_crypto::sha256::sha256;
    use tn_crypto::Keypair;

    fn validator(b: Behavior) -> Validator {
        Validator {
            address: Keypair::from_seed(b"v").address(),
            behavior: b,
        }
    }

    #[test]
    fn honest_votes_truth_mostly() {
        let v = validator(Behavior::Honest { error_rate: 0.1 });
        let mut rng = StdRng::seed_from_u64(1);
        let mut correct = 0;
        for i in 0..500u32 {
            let item = sha256(&i.to_le_bytes());
            let truth = i % 2 == 0;
            if v.vote(&item, truth, &mut rng).factual == truth {
                correct += 1;
            }
        }
        assert!((420..=480).contains(&correct), "correct={correct}");
    }

    #[test]
    fn malicious_always_inverts() {
        let v = validator(Behavior::Malicious);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..20u32 {
            let item = sha256(&i.to_le_bytes());
            assert!(!v.vote(&item, true, &mut rng).factual);
            assert!(v.vote(&item, false, &mut rng).factual);
        }
    }

    #[test]
    fn ring_bots_share_exact_scores_honest_do_not() {
        let mut rng = StdRng::seed_from_u64(3);
        let bot = CampaignRole::RingBot { script_score: 97 };
        for round in 0..10 {
            assert_eq!(bot.score(CampaignTarget::FakeItem, round, &mut rng), 97);
            assert_eq!(bot.score(CampaignTarget::FactualItem, round, &mut rng), 3);
        }
        // Honest scores land on the right side of 50 but vary.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let s = CampaignRole::HonestRanker.score(CampaignTarget::FakeItem, 0, &mut rng);
            assert!(s < 50);
            seen.insert(s);
        }
        assert!(seen.len() > 5, "honest noise should spread: {seen:?}");
    }

    #[test]
    fn turncoat_flips_at_round() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = CampaignRole::TurncoatSybil {
            flip_round: 5,
            script_score: 96,
        };
        for round in 0..5 {
            assert!(t.score(CampaignTarget::FakeItem, round, &mut rng) < 50);
        }
        for round in 5..10 {
            assert_eq!(t.score(CampaignTarget::FakeItem, round, &mut rng), 96);
        }
    }

    #[test]
    fn bribed_boosts_only_the_fake_item() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = CampaignRole::BribedRanker;
        for round in 0..20 {
            assert!(b.score(CampaignTarget::FakeItem, round, &mut rng) >= 88);
            assert!(b.score(CampaignTarget::FactualItem, round, &mut rng) > 50);
        }
    }
}
