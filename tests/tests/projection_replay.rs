//! Replay determinism: projections are pure functions of chain history.
//!
//! Covers the layered-pipeline guarantees end to end: a multi-block live
//! platform session replays from genesis into byte-identical projection
//! digests, a restored chain rebuilds the same projections (fed once,
//! while it is imported), a reorg leaves the projections of the branch
//! that won, and a 4-validator PBFT network derives the same digests on
//! every replica.

use tn_chain::Block;
use tn_core::pipeline::{bootstrap, ExecutionPipeline};
use tn_core::platform::{Platform, PlatformConfig};
use tn_core::roles::Role;
use tn_crypto::Keypair;
use tn_factdb::record::{FactRecord, SourceKind};
use tn_node::network::{run_pbft_cluster, ClusterConfig};
use tn_node::validator::ValidatorNode;
use tn_node::workload::scripted_workload;
use tn_supplychain::ops::PropagationOp;

/// The accounts of a session: a journalist authorized in `room`, two
/// registered fact checkers.
struct Cast {
    journo: Keypair,
    c1: Keypair,
    c2: Keypair,
    room: u64,
}

/// A platform four blocks in: identities registered, a publisher platform
/// with one newsroom, the journalist authorized in it. Deterministic: two
/// calls build the same chain, block for block.
fn newsroom_platform() -> (Platform, Cast) {
    let mut p = Platform::new(PlatformConfig::default());
    let publisher = Keypair::from_seed(b"pr-publisher");
    let journo = Keypair::from_seed(b"pr-journalist");
    let c1 = Keypair::from_seed(b"pr-checker-1");
    let c2 = Keypair::from_seed(b"pr-checker-2");

    p.register_identity(&publisher, "PR Press", &[Role::Publisher])
        .unwrap();
    p.register_identity(
        &journo,
        "PR Journalist",
        &[Role::ContentCreator, Role::Consumer],
    )
    .unwrap();
    p.register_identity(&c1, "PR Checker 1", &[Role::FactChecker])
        .unwrap();
    p.register_identity(&c2, "PR Checker 2", &[Role::FactChecker])
        .unwrap();
    p.produce_block().unwrap();

    p.create_publisher_platform(&publisher, "PR Press").unwrap();
    p.produce_block().unwrap();
    let pid = p.newsrooms().find_platform("PR Press").unwrap();
    p.create_news_room(&publisher, pid, "general").unwrap();
    p.produce_block().unwrap();
    let room = p.newsrooms().rooms().next().unwrap().0;
    p.authorize_journalist(&publisher, room, &journo.address())
        .unwrap();
    p.produce_block().unwrap();
    let cast = Cast {
        journo,
        c1,
        c2,
        room,
    };
    (p, cast)
}

fn fact(content: &str, recorded_at: u64) -> FactRecord {
    FactRecord {
        source: SourceKind::VerifiedNews,
        speaker: "PR Recorder".into(),
        topic: "general".into(),
        content: content.into(),
        recorded_at,
    }
}

/// Drives a platform through a multi-block session touching all four
/// projections: identities, newsroom setup, sourced + unsourced news,
/// a headline, ratings, and a fact admission with its re-anchor.
fn busy_platform() -> Platform {
    let (mut p, cast) = newsroom_platform();
    let Cast {
        journo,
        c1,
        c2,
        room,
    } = cast;

    let root = p.factdb().iter().next().unwrap().clone();
    let cited = p
        .publish_news(
            &journo,
            room,
            &root.topic,
            &root.content,
            vec![(root.id(), PropagationOp::Cite)],
        )
        .unwrap();
    p.publish_news_with_headline(
        &journo,
        room,
        "general",
        "Board certifies audit",
        "The board certified the audit.",
        vec![],
    )
    .unwrap();
    p.produce_block().unwrap();
    p.submit_rating(&journo, &cited, 90).unwrap();
    p.produce_block().unwrap();

    let record = fact("The replay audit committee approved the procedure.", 512);
    let id = p.propose_fact(record).unwrap();
    p.attest_fact(&c1, &id).unwrap();
    p.attest_fact(&c2, &id).unwrap();
    let summary = p.produce_block().unwrap();
    assert_eq!(
        summary.admitted_facts,
        vec![id],
        "fact must admit at threshold"
    );
    p.produce_block().unwrap(); // flush the automatic re-anchor
    p
}

#[test]
fn live_platform_replays_to_identical_digests() {
    let p = busy_platform();
    assert!(
        p.height() >= 8,
        "multi-block history expected, got {}",
        p.height()
    );

    let live = p.projection_digests();
    assert_eq!(live.len(), 4);
    let names: Vec<&str> = live.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, ["supplychain", "identity", "factdb", "headlines"]);

    let replayed = p
        .verify_replay()
        .expect("replay must match live projections");
    assert_eq!(replayed, live);
}

#[test]
fn restored_pipeline_rebuilds_identical_projections() {
    // Snapshot the live chain and restore it into a brand-new pipeline:
    // blocks are re-executed against a fresh contract registry and
    // applied to fresh projections as they are imported. Everything
    // derived — contract storage, projection digests, the whole execution
    // digest — must equal the live platform's.
    let p = busy_platform();
    let config = PlatformConfig::default();
    let snapshot = p.store().snapshot();
    let governor = p.governor_address();
    let seed: Vec<FactRecord> = tn_factdb::corpus::generate_corpus(&config.factdb_seed)
        .into_iter()
        .collect();
    let restored =
        tn_core::pipeline::ExecutionPipeline::restore(&snapshot, governor, seed).expect("restore");

    assert_eq!(restored.store().head_id(), p.store().head_id());
    assert_eq!(restored.projection_digests(), p.projection_digests());
    assert_eq!(restored.execution_digest(), p.execution_digest());
    restored
        .verify_replay()
        .expect("restored pipeline passes the replay audit");
}

/// Blocks of `p`'s canonical chain above `height`, lowest first.
fn blocks_above(p: &Platform, height: u64) -> Vec<Block> {
    let store = p.store();
    let mut ids = store.canonical_chain();
    ids.reverse();
    ids.iter()
        .skip(height as usize + 1)
        .map(|id| store.block(id).expect("canonical block"))
        .collect()
}

fn import_all(pipeline: &mut ExecutionPipeline, blocks: &[Block]) {
    for block in blocks {
        pipeline.apply_block(block).expect("imports");
    }
}

#[test]
fn a_reorg_leaves_the_projections_of_the_winning_branch() {
    // Two platforms share five blocks; the fifth proposes two facts. One
    // then produces a single block, the other two — the longer branch.
    // Both sides of the fork point hold a publish with a headline, an
    // identity registration and fact attestations. Contract storage is
    // not rolled back by a reorg (the registry is not fork-aware), so the
    // branches attest different records.
    let build = |winning: bool| {
        let (mut p, cast) = newsroom_platform();
        let r1 = p.propose_fact(fact("The first record.", 600)).unwrap();
        let r2 = p.propose_fact(fact("The second record.", 601)).unwrap();
        p.produce_block().unwrap();
        let fork_height = p.height();
        let (name, headline, record) = if winning {
            ("Late Reader", "Harbour plan approved", r1)
        } else {
            ("Early Reader", "Harbour plan rejected", r2)
        };
        let reader = Keypair::from_seed(name.as_bytes());
        p.register_identity(&reader, name, &[Role::Consumer])
            .unwrap();
        p.publish_news_with_headline(
            &cast.journo,
            cast.room,
            "general",
            headline,
            "The council voted on the harbour plan.",
            vec![],
        )
        .unwrap();
        p.attest_fact(&cast.c1, &record).unwrap();
        p.produce_block().unwrap();
        if winning {
            p.attest_fact(&cast.c2, &record).unwrap();
            let summary = p.produce_block().unwrap();
            assert_eq!(summary.admitted_facts, vec![record]);
        }
        (p, fork_height)
    };
    let (loser, fork_height) = build(false);
    let (winner, _) = build(true);
    let shared = blocks_above(&winner, 1);
    let (shared, winning) = shared.split_at(fork_height as usize - 1);
    assert_eq!(blocks_above(&loser, 1)[..shared.len()], *shared);
    let losing = blocks_above(&loser, fork_height);
    assert_eq!((losing.len(), winning.len()), (1, 2));

    let config = PlatformConfig::default();
    let mut forked = bootstrap(&config).pipeline;
    import_all(&mut forked, shared);
    import_all(&mut forked, &losing);
    assert_eq!(forked.projection_digests(), loser.projection_digests());
    forked.apply_block(&winning[0]).expect("side branch");
    assert_eq!(
        forked.projection_digests(),
        loser.projection_digests(),
        "a side branch moves no projection"
    );
    forked.apply_block(&winning[1]).expect("reorg");
    assert_eq!(forked.store().head_id(), winner.store().head_id());

    let mut straight = bootstrap(&config).pipeline;
    import_all(&mut straight, shared);
    import_all(&mut straight, winning);
    let digests = forked.projection_digests();
    assert_ne!(digests, loser.projection_digests());
    assert_eq!(digests, straight.projection_digests());
    assert_eq!(digests, winner.projection_digests());
    assert_eq!(forked.verify_replay(), Ok(digests));
    assert_eq!(forked.factdb().len(), winner.factdb().len());
}

#[test]
fn recovered_node_feeds_projections_once_during_import() {
    let config = PlatformConfig::default();
    let mut node = ValidatorNode::new(0, &config);
    for batch in scripted_workload(&config).chunks(3) {
        let payloads = tn_node::validator::encode_payloads(batch);
        node.apply_committed_batch(&payloads).expect("batch");
    }
    let recovered = ValidatorNode::recover(0, &config, &node.snapshot()).expect("recovers");
    assert_eq!(recovered.execution_digest(), node.execution_digest());
    assert_eq!(recovered.projection_digests(), node.projection_digests());
    // The import pass fed the projections; nothing replayed the chain
    // into them afterwards.
    let replays = |n: &ValidatorNode| n.metrics_snapshot().counter("chain.replays");
    assert_eq!(replays(&recovered).unwrap_or(0), 0);
    recovered.verify_replay().expect("audit passes");
    assert_eq!(replays(&recovered), Some(1), "the audit is a replay");
}

#[test]
fn four_replica_pbft_network_agrees_on_all_digests() {
    let config = ClusterConfig::default();
    assert_eq!(config.n_validators, 4);
    let txs = scripted_workload(&config.platform);
    let run = run_pbft_cluster(&config, &txs).expect("cluster run");

    let agreed = run
        .agreed_digest()
        .expect("replicas must agree on the execution digest");
    for report in &run.reports {
        assert_eq!(
            report.execution_digest, agreed,
            "replica {} diverged",
            report.id
        );
        assert_eq!(
            report.projection_digests, run.reports[0].projection_digests,
            "replica {} projection digests diverged",
            report.id
        );
        assert!(
            report.included > 0,
            "replica {} applied no transactions",
            report.id
        );
    }
    // And each replica independently passes the ledger-replay audit.
    for node in &run.nodes {
        node.verify_replay().expect("replica replay audit");
    }
    // The workload's fact admission happened on-chain, consistently.
    let db = run.nodes[0].pipeline().factdb();
    assert!(db.len() > 50, "admitted fact must extend the seeded corpus");
}
