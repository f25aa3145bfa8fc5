//! Adversarial integration scenarios: coordinated attacks against
//! multiple platform mechanisms at once.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tn_aidetect::corpus::{generate_news_corpus, NewsCorpusConfig};
use tn_core::platform::{Platform, PlatformConfig};
use tn_core::roles::Role;
use tn_crowdrank::aggregate::{majority, reputation_weighted, Vote};
use tn_crowdrank::reputation::ReputationLedger;
use tn_crypto::{Hash256, Keypair};
use tn_supplychain::ops::{apply, PropagationOp};

/// A smear campaign: a bloc of rogue raters downvotes a well-sourced
/// story while honest readers upvote it. With reputation earned from
/// confirmed history, the bloc loses; with naive majority, it wins.
#[test]
fn smear_campaign_defeated_by_reputation_not_majority() {
    let story: Hash256 = tn_crypto::sha256::sha256(b"well sourced story");
    let honest: Vec<Keypair> = (0..4)
        .map(|i| Keypair::from_seed(format!("sm honest {i}").as_bytes()))
        .collect();
    let bloc: Vec<Keypair> = (0..6)
        .map(|i| Keypair::from_seed(format!("sm bloc {i}").as_bytes()))
        .collect();

    // History: honest raters were right on 10 confirmed items, the bloc
    // wrong on 10 (their past smears were exposed by fact checkers).
    let mut ledger = ReputationLedger::new();
    for _ in 0..10 {
        for h in &honest {
            ledger.record(&h.address(), true);
        }
        for b in &bloc {
            ledger.record(&b.address(), false);
        }
    }

    let mut votes = Vec::new();
    for h in &honest {
        votes.push(Vote {
            voter: h.address(),
            item: story,
            factual: true,
        });
    }
    for b in &bloc {
        votes.push(Vote {
            voter: b.address(),
            item: story,
            factual: false,
        });
    }

    let by_majority = &majority(&votes)[0];
    let by_reputation = &reputation_weighted(&votes, &ledger)[0];
    assert!(
        !by_majority.factual,
        "the 6-vs-4 bloc wins a naive majority"
    );
    assert!(
        by_reputation.factual,
        "reputation weighting resists the bloc"
    );
}

/// A laundering chain: a fabricated story is relayed through many honest-
/// looking accounts. Trace-back still reports no factual root, and the
/// fabricator remains identifiable from the ledger.
#[test]
fn laundering_chain_cannot_fake_provenance() {
    let mut platform = Platform::new(PlatformConfig::default());
    let publisher = Keypair::from_seed(b"lc publisher");
    platform
        .register_identity(&publisher, "LC Press", &[Role::Publisher])
        .unwrap();
    let relayers: Vec<Keypair> = (0..6)
        .map(|i| Keypair::from_seed(format!("lc relay {i}").as_bytes()))
        .collect();
    let fabricator = Keypair::from_seed(b"lc fabricator");
    platform
        .register_identity(&fabricator, "Fabricator", &[Role::ContentCreator])
        .unwrap();
    for (i, r) in relayers.iter().enumerate() {
        platform
            .register_identity(r, &format!("Relayer {i}"), &[Role::ContentCreator])
            .unwrap();
    }
    platform.produce_block().expect("identities");
    platform
        .create_publisher_platform(&publisher, "LC Press")
        .expect("platform");
    platform.produce_block().expect("block");
    let pid = platform
        .newsrooms()
        .find_platform("LC Press")
        .expect("registered");
    platform
        .create_news_room(&publisher, pid, "politics")
        .expect("room");
    platform.produce_block().expect("block");
    let room = platform.newsrooms().rooms().next().expect("room").0;
    platform
        .authorize_journalist(&publisher, room, &fabricator.address())
        .expect("authz");
    for r in &relayers {
        platform
            .authorize_journalist(&publisher, room, &r.address())
            .expect("authz");
    }
    platform.produce_block().expect("block");

    let fabricated = "Leaked dossier proves the vote was rigged by insiders. \
                      Share before deletion.";
    let mut prev = platform
        .publish_news(&fabricator, room, "politics", fabricated, vec![])
        .expect("fabricate");
    platform.produce_block().expect("block");
    for r in &relayers {
        prev = platform
            .publish_news(
                r,
                room,
                "politics",
                fabricated,
                vec![(prev, PropagationOp::Relay)],
            )
            .expect("relay");
        platform.produce_block().expect("block");
    }

    // Six hops of laundering change nothing: no factual root.
    let trace = platform.trace_item(&prev).expect("trace");
    assert!(!trace.reaches_root);
    let rank = platform.rank_item(&prev).expect("rank");
    assert!(
        rank.rank < 40.0,
        "laundered fabrication still ranks low: {}",
        rank.rank
    );
    // …and the origin is the fabricator, not the last relayer.
    assert_eq!(
        platform.origin_of(&prev).expect("query"),
        Some(fabricator.address())
    );
}

/// The AI detector generalizes across corpus seeds: train on one synthetic
/// world, evaluate on perturbations generated with a different seed.
#[test]
fn detector_generalizes_across_seeds() {
    let train = generate_news_corpus(&NewsCorpusConfig {
        seed: 1,
        ..NewsCorpusConfig::default()
    });
    let test = generate_news_corpus(&NewsCorpusConfig {
        seed: 999,
        n_factual: 150,
        n_fake: 150,
        ..NewsCorpusConfig::default()
    });
    let det = tn_aidetect::ensemble::EnsembleDetector::train(&train);
    let preds: Vec<(bool, f64)> = test
        .iter()
        .map(|d| (d.fake, det.prob_fake(&d.text)))
        .collect();
    let m = tn_aidetect::metrics::evaluate(&preds, 0.5);
    assert!(m.accuracy > 0.8, "cross-seed accuracy {}", m.accuracy);
    assert!(m.auc > 0.85, "cross-seed auc {}", m.auc);
}

/// Deep propagation with mixed ops keeps trace scores monotone: every
/// additional distortion can only lower (never raise) the provenance
/// score along a chain.
#[test]
fn trace_score_never_recovers_after_distortion() {
    use tn_supplychain::graph::SupplyChainGraph;

    let fact = "The committee approved the solar subsidy amendment. \
        The vote passed with a clear majority. The minister welcomed the outcome. \
        Industry groups published their reactions. A review is planned next year.";
    let mut g = SupplyChainGraph::new();
    let root = tn_crypto::sha256::sha256(b"mono root");
    g.add_fact_root(root, fact, "energy", 0).unwrap();

    let mut rng = StdRng::seed_from_u64(3);
    let author = Keypair::from_seed(b"mono author").address();
    let mut prev_id = root;
    let mut prev_text = fact.to_string();
    let mut prev_score = 1.0f64;
    for step in 0..8 {
        let op = if step % 3 == 2 {
            PropagationOp::Insert
        } else {
            PropagationOp::Relay
        };
        let text = apply(op, &[&prev_text], step % 2 == 0, &mut rng);
        let id = g
            .insert(
                author,
                &text,
                "energy",
                1,
                vec![(prev_id, op)],
                10 + step as u64,
            )
            .unwrap();
        let score = g.trace_back(&id).unwrap().score;
        assert!(
            score <= prev_score + 1e-9,
            "score rose along the chain at step {step}: {prev_score} → {score}"
        );
        prev_id = id;
        prev_text = text;
        prev_score = score;
    }
    assert!(prev_score < 1.0, "distortions must have reduced the score");
}
