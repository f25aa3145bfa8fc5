//! The trusting-news ecosystem simulation (Figure 2, experiment E10).
//!
//! All five roles act through the real platform APIs over multiple
//! rounds: publishers run news rooms, content creators publish (a
//! fraction of them distorting or fabricating), consumers rate what they
//! read, fact checkers attest new records into the factual database, and
//! an AI developer ships a detector partway through. The measured output
//! is the paper's central promise: the platform's combined ranking
//! separates factual from fake content, and the factual database grows
//! round over round.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use tn_contracts::builtin::{incentive_reward, incentive_slash};
use tn_crypto::{Hash256, Keypair};
use tn_factdb::record::{FactRecord, SourceKind};
use tn_supplychain::ops::{apply, PropagationOp};

use crate::platform::{Platform, PlatformConfig, PlatformError};
use crate::roles::Role;

/// Probability a creator publishes an item in a round.
const PUBLISH_PROB: f64 = 0.8;
/// Consumers rating each item (sampled).
const RATERS_PER_ITEM: usize = 5;
/// Consumer rating noise (probability of misjudging an item).
const RATING_NOISE: f64 = 0.15;
/// RNG seed.
const SEED: u64 = 2019;

/// Ecosystem population and schedule.
#[derive(Debug, Clone)]
pub struct EcosystemConfig {
    /// Rating consumers.
    pub n_consumers: usize,
    /// Honest content creators.
    pub n_creators: usize,
    /// Fake-news creators (authorized accounts gone rogue).
    pub n_fakers: usize,
    /// Fact checkers.
    pub n_checkers: usize,
    /// Simulation rounds.
    pub rounds: usize,
    /// Probability a fact checker proposes+attests a fresh public record
    /// each round.
    pub new_fact_prob: f64,
    /// Round at which the AI developer ships the trained detector
    /// (`None` = never).
    pub detector_round: Option<usize>,
    /// Platform parameters.
    pub platform: PlatformConfig,
}

impl Default for EcosystemConfig {
    fn default() -> Self {
        EcosystemConfig {
            n_consumers: 12,
            n_creators: 6,
            n_fakers: 2,
            n_checkers: 3,
            rounds: 10,
            new_fact_prob: 0.5,
            detector_round: Some(3),
            platform: PlatformConfig::default(),
        }
    }
}

/// Per-round measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: usize,
    /// Items published this round.
    pub published: usize,
    /// Of which fake.
    pub fake_published: usize,
    /// Records admitted to the factual DB this round.
    pub admitted_facts: usize,
    /// Mean combined rank of all factual items so far.
    pub mean_rank_factual: f64,
    /// Mean combined rank of all fake items so far.
    pub mean_rank_fake: f64,
    /// Mean incentive-point balance of consumers at round end.
    pub mean_consumer_points: f64,
    /// Factual-database size at round end.
    pub factdb_size: usize,
    /// Chain height at round end.
    pub chain_height: u64,
}

/// Full simulation output.
#[derive(Debug)]
pub struct EcosystemResult {
    /// Per-round stats.
    pub rounds: Vec<RoundStats>,
    /// The platform in its final state (for further inspection).
    pub platform: Platform,
    /// Ids and ground truth (`true` = fake) of all published items.
    pub truth: Vec<(Hash256, bool)>,
    /// Final rank separation: mean(factual) − mean(fake).
    pub final_separation: f64,
}

/// Runs the ecosystem simulation.
///
/// # Errors
///
/// Propagates platform errors (which indicate a bug in the harness — all
/// simulated actions are authorized).
pub fn run_ecosystem(config: &EcosystemConfig) -> Result<EcosystemResult, PlatformError> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut platform = Platform::new(config.platform.clone());

    // --- population setup -------------------------------------------------
    let publisher = Keypair::from_seed(b"eco-publisher");
    platform.register_identity(&publisher, "Platform Press", &[Role::Publisher])?;
    let consumers: Vec<Keypair> = (0..config.n_consumers)
        .map(|i| Keypair::from_seed(format!("eco-consumer-{i}").as_bytes()))
        .collect();
    for (i, c) in consumers.iter().enumerate() {
        platform.register_identity(c, &format!("Consumer {i}"), &[Role::Consumer])?;
    }
    let creators: Vec<Keypair> = (0..config.n_creators)
        .map(|i| Keypair::from_seed(format!("eco-creator-{i}").as_bytes()))
        .collect();
    let fakers: Vec<Keypair> = (0..config.n_fakers)
        .map(|i| Keypair::from_seed(format!("eco-faker-{i}").as_bytes()))
        .collect();
    for (i, c) in creators.iter().chain(fakers.iter()).enumerate() {
        platform.register_identity(c, &format!("Creator {i}"), &[Role::ContentCreator])?;
    }
    let checkers: Vec<Keypair> = (0..config.n_checkers)
        .map(|i| Keypair::from_seed(format!("eco-checker-{i}").as_bytes()))
        .collect();
    for (i, c) in checkers.iter().enumerate() {
        platform.register_identity(c, &format!("Checker {i}"), &[Role::FactChecker])?;
    }
    platform.produce_block()?;
    let authors: Vec<_> = creators
        .iter()
        .chain(&fakers)
        .map(Keypair::address)
        .collect();
    let room = platform.open_newsroom(&publisher, "Platform Press", "general", &authors)?;

    // --- rounds ------------------------------------------------------------
    let mut truth: Vec<(Hash256, bool)> = Vec::new();
    let mut rounds = Vec::with_capacity(config.rounds);
    let mut fact_counter = 0u64;

    for round in 0..config.rounds {
        let mut published = 0usize;
        let mut fake_published = 0usize;

        // AI developer ships the detector.
        if config.detector_round == Some(round) && !platform.has_detector() {
            let corpus = tn_aidetect::corpus::generate_news_corpus(
                &tn_aidetect::corpus::NewsCorpusConfig::default(),
            );
            platform.train_detector(&corpus);
        }

        // Fact checkers source fresh public records.
        let mut proposed: Vec<Hash256> = Vec::new();
        if rng.gen_bool(config.new_fact_prob.clamp(0.0, 1.0)) {
            fact_counter += 1;
            let record = FactRecord {
                source: SourceKind::VerifiedNews,
                speaker: "Recorder".into(),
                topic: "general".into(),
                content: format!(
                    "The council published the verified quarterly report number {fact_counter}. \
                     The figures were countersigned by independent auditors."
                ),
                recorded_at: 1_000 + fact_counter,
            };
            let id = platform.propose_fact(record)?;
            for checker in &checkers {
                platform.attest_fact(checker, &id)?;
            }
            proposed.push(id);
        }

        // Creators publish.
        let roots: Vec<FactRecord> = platform.factdb().iter().cloned().collect();
        for creator in &creators {
            if !rng.gen_bool(PUBLISH_PROB) {
                continue;
            }
            let root = roots.choose(&mut rng).expect("factdb seeded");
            let op = *[
                PropagationOp::Cite,
                PropagationOp::Relay,
                PropagationOp::Split,
            ]
            .choose(&mut rng)
            .expect("nonempty");
            let content = apply(op, &[&root.content], false, &mut rng);
            let id = platform.publish_news(
                creator,
                room,
                &root.topic,
                &content,
                vec![(root.id(), op)],
            )?;
            truth.push((id, false));
            published += 1;
        }
        for faker in &fakers {
            if !rng.gen_bool(PUBLISH_PROB) {
                continue;
            }
            let id = if rng.gen_bool(0.28) {
                // Fabricated from nothing.
                platform.publish_news(
                    faker,
                    room,
                    "general",
                    &format!(
                        "Shocking leaked memo exposes the corrupt cover-up, insiders warn. \
                         Share before the censors delete it. Report {round}-{published}."
                    ),
                    vec![],
                )?
            } else {
                // Distorted factual (the 72 % pattern).
                let root = roots.choose(&mut rng).expect("factdb seeded");
                let content = apply(PropagationOp::Insert, &[&root.content], true, &mut rng);
                platform.publish_news(
                    faker,
                    room,
                    &root.topic,
                    &content,
                    vec![(root.id(), PropagationOp::Insert)],
                )?
            };
            truth.push((id, true));
            published += 1;
            fake_published += 1;
        }

        let summary = platform.produce_block()?;

        // Consumers rate the round's new items (they can judge content
        // with some noise — the platform aggregates their scores). The
        // platform pays incentive points for ratings that agree with the
        // eventually-confirmed outcome and slashes disagreement (§V's
        // reward economy), exercised through the incentive contract.
        let new_items: Vec<(Hash256, bool)> = truth.iter().rev().take(published).copied().collect();
        for (item, is_fake) in &new_items {
            for rater in consumers.choose_multiple(&mut rng, RATERS_PER_ITEM) {
                let misjudge = rng.gen_bool(RATING_NOISE);
                let believes_factual = *is_fake == misjudge;
                let score: u8 = if believes_factual {
                    rng.gen_range(70..=100)
                } else {
                    rng.gen_range(0..=30)
                };
                platform.submit_rating(rater, item, score)?;
                let points = if believes_factual != *is_fake {
                    incentive_reward(&rater.address(), 2)
                } else {
                    incentive_slash(&rater.address(), 1)
                };
                platform.call(None, platform.pipeline().addrs().incentive, points, 10_000)?;
            }
        }
        platform.produce_block()?;
        // One more block so fact-DB re-anchors land.
        platform.produce_block()?;

        // Measure.
        let mut fact_ranks = Vec::new();
        let mut fake_ranks = Vec::new();
        for (id, is_fake) in &truth {
            let r = platform.rank_item(id)?;
            if *is_fake {
                fake_ranks.push(r.rank);
            } else {
                fact_ranks.push(r.rank);
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let mean_consumer_points = consumers
            .iter()
            .map(|c| platform.incentives().balance(&c.address()) as f64)
            .sum::<f64>()
            / consumers.len().max(1) as f64;
        rounds.push(RoundStats {
            round,
            published,
            fake_published,
            admitted_facts: summary.admitted_facts.len()
                + proposed
                    .iter()
                    .filter(|id| platform.factdb().contains(id))
                    .count(),
            mean_consumer_points,
            mean_rank_factual: mean(&fact_ranks),
            mean_rank_fake: mean(&fake_ranks),
            factdb_size: platform.factdb().len(),
            chain_height: platform.height(),
        });
    }

    let last = rounds.last().expect("at least one round");
    let final_separation = last.mean_rank_factual - last.mean_rank_fake;
    Ok(EcosystemResult {
        rounds,
        platform,
        truth,
        final_separation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> EcosystemConfig {
        EcosystemConfig {
            n_consumers: 6,
            n_creators: 3,
            n_fakers: 1,
            n_checkers: 2,
            rounds: 4,
            platform: PlatformConfig {
                factdb_seed: tn_factdb::corpus::CorpusConfig {
                    size: 20,
                    seed: 42,
                    start_time: 0,
                },
                ..PlatformConfig::default()
            },
            ..EcosystemConfig::default()
        }
    }

    #[test]
    fn ecosystem_runs_and_separates_fake_from_factual() {
        let r = run_ecosystem(&small()).expect("runs");
        assert_eq!(r.rounds.len(), 4);
        assert!(
            r.truth.iter().any(|(_, fake)| *fake),
            "some fakes published"
        );
        assert!(
            r.truth.iter().any(|(_, fake)| !*fake),
            "some factual published"
        );
        assert!(
            r.final_separation > 15.0,
            "expected clear rank separation, got {}",
            r.final_separation
        );
    }

    #[test]
    fn factdb_grows_over_rounds() {
        let cfg = EcosystemConfig {
            new_fact_prob: 1.0,
            ..small()
        };
        let r = run_ecosystem(&cfg).expect("runs");
        let first = r.rounds.first().unwrap().factdb_size;
        let last = r.rounds.last().unwrap().factdb_size;
        assert!(last > first, "factdb should grow: {first} → {last}");
        assert_eq!(last - 20, 4, "one admitted record per round");
    }

    #[test]
    fn chain_height_advances_every_round() {
        let r = run_ecosystem(&small()).expect("runs");
        for w in r.rounds.windows(2) {
            assert!(w[1].chain_height > w[0].chain_height);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_ecosystem(&small()).expect("runs");
        let b = run_ecosystem(&small()).expect("runs");
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn detector_round_improves_or_maintains_separation() {
        let with = run_ecosystem(&small()).expect("runs");
        let without = run_ecosystem(&EcosystemConfig {
            detector_round: None,
            ..small()
        })
        .expect("runs");
        assert!(
            with.final_separation >= without.final_separation - 5.0,
            "with detector {} vs without {}",
            with.final_separation,
            without.final_separation
        );
        assert!(with.platform.has_detector());
        assert!(!without.platform.has_detector());
    }
}
