//! Synthetic public-record corpus generator.
//!
//! The paper seeds the factual database from "the library of speech
//! records of law makers, and the official speech records of presidents
//! and public figures" (§VI). Those archives are not shippable, so this
//! module generates a deterministic synthetic equivalent: structured
//! statements with realistic topic/speaker/action composition. Content is
//! opaque to every downstream mechanism (hashing, provenance, ranking), so
//! the substitution preserves behaviour; only the text-classifier
//! experiments care about word statistics, and they consume this corpus
//! through the same perturbation pipeline the paper describes (fake news =
//! modified factual articles, per its Stanford citation).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::record::{FactRecord, SourceKind};

/// Topics covered by the synthetic public record.
pub(crate) const TOPICS: [&str; 8] = [
    "economy",
    "energy",
    "health",
    "elections",
    "security",
    "education",
    "climate",
    "trade",
];

const SPEAKERS: [&str; 12] = [
    "Senator Vale",
    "Senator Moss",
    "Representative Chen",
    "Representative Okafor",
    "President Hale",
    "Governor Ruiz",
    "Minister Larsen",
    "Judge Whitfield",
    "Mayor Donovan",
    "Secretary Iqbal",
    "Chancellor Weiss",
    "Ambassador Sato",
];

const ACTIONS: [&str; 10] = [
    "introduced a bill on",
    "voted to approve the amendment concerning",
    "signed the executive order on",
    "testified before the committee about",
    "announced new funding for",
    "released the audited report on",
    "ratified the bilateral agreement on",
    "issued the court ruling regarding",
    "published the official statistics on",
    "opened the public inquiry into",
];

const OBJECTS: [&str; 10] = [
    "renewable subsidies",
    "hospital staffing standards",
    "border infrastructure",
    "school curriculum reform",
    "carbon pricing",
    "export tariffs",
    "pension indexation",
    "broadband expansion",
    "vaccine procurement",
    "housing permits",
];

const DETAILS: [&str; 8] = [
    "The measure passed with a recorded vote.",
    "The full transcript is in the public register.",
    "Officials confirmed the figures at the briefing.",
    "The document was entered into the official record.",
    "Independent auditors countersigned the filing.",
    "The session was broadcast and archived.",
    "Committee minutes list every amendment considered.",
    "The ruling cites the statutory basis in detail.",
];

/// Configuration for corpus generation.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of records to generate.
    pub size: usize,
    /// RNG seed (generation is fully deterministic given this).
    pub seed: u64,
    /// Starting logical timestamp; records are spaced one tick apart.
    pub start_time: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            size: 200,
            seed: 42,
            start_time: 0,
        }
    }
}

/// Generates a deterministic synthetic public-record corpus.
///
/// Every record is unique (an index marker is embedded in the text), so
/// the whole corpus can be appended to a [`crate::db::FactualDatabase`]
/// without duplicate errors.
pub fn generate_corpus(config: &CorpusConfig) -> Vec<FactRecord> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let kinds = [
        SourceKind::LegislativeSpeech,
        SourceKind::PresidentialAddress,
        SourceKind::PublicFigureStatement,
        SourceKind::CourtRecord,
    ];
    (0..config.size)
        .map(|i| {
            let speaker = *SPEAKERS.choose(&mut rng).expect("nonempty");
            let topic = *TOPICS.choose(&mut rng).expect("nonempty");
            let action = *ACTIONS.choose(&mut rng).expect("nonempty");
            let object = *OBJECTS.choose(&mut rng).expect("nonempty");
            let detail = *DETAILS.choose(&mut rng).expect("nonempty");
            let reference = rng.gen_range(1000..9999);
            let content =
                format!("{speaker} {action} {object} under docket {reference}-{i}. {detail}");
            FactRecord {
                source: kinds[i % kinds.len()],
                speaker: speaker.to_string(),
                topic: topic.to_string(),
                content,
                recorded_at: config.start_time + i as u64,
            }
        })
        .collect()
}

/// Convenience: builds and fills a database from a generated corpus.
pub fn seeded_database(config: &CorpusConfig) -> crate::db::FactualDatabase {
    let mut db = crate::db::FactualDatabase::new();
    for rec in generate_corpus(config) {
        db.append(rec).expect("generated records are unique");
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_given_seed() {
        let cfg = CorpusConfig {
            size: 50,
            seed: 9,
            start_time: 0,
        };
        assert_eq!(generate_corpus(&cfg), generate_corpus(&cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_corpus(&CorpusConfig {
            size: 20,
            seed: 1,
            start_time: 0,
        });
        let b = generate_corpus(&CorpusConfig {
            size: 20,
            seed: 2,
            start_time: 0,
        });
        assert_ne!(a, b);
    }

    #[test]
    fn records_are_unique() {
        let corpus = generate_corpus(&CorpusConfig {
            size: 300,
            seed: 3,
            start_time: 0,
        });
        let ids: HashSet<_> = corpus.iter().map(FactRecord::id).collect();
        assert_eq!(ids.len(), 300);
    }

    #[test]
    fn seeded_database_fills() {
        let db = seeded_database(&CorpusConfig {
            size: 120,
            seed: 4,
            start_time: 10,
        });
        assert_eq!(db.len(), 120);
        assert!(!db.root().is_zero());
        // Topics drawn from the bank.
        for r in db.iter() {
            assert!(
                TOPICS.contains(&r.topic.as_str()),
                "unknown topic {}",
                r.topic
            );
        }
    }

    #[test]
    fn timestamps_progress_from_start() {
        let corpus = generate_corpus(&CorpusConfig {
            size: 5,
            seed: 5,
            start_time: 100,
        });
        let times: Vec<u64> = corpus.iter().map(|r| r.recorded_at).collect();
        assert_eq!(times, vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn covers_multiple_topics_and_speakers() {
        let corpus = generate_corpus(&CorpusConfig {
            size: 200,
            seed: 6,
            start_time: 0,
        });
        let topics: HashSet<_> = corpus.iter().map(|r| r.topic.clone()).collect();
        let speakers: HashSet<_> = corpus.iter().map(|r| r.speaker.clone()).collect();
        assert!(topics.len() >= 6, "topics: {}", topics.len());
        assert!(speakers.len() >= 8, "speakers: {}", speakers.len());
    }
}
