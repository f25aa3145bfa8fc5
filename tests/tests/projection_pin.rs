//! Pins what the four platform projections answer and leave behind, as
//! bytes: their `(name, digest)` pairs in order, the replica's execution
//! digest, the checkpoint blob a forced checkpoint writes (extension
//! names, order and bytes) and the per-projection apply histograms.
//!
//! Recorded while the projections were plugins the chain store looked up
//! by name; whatever hosts them since must leave every constant here as
//! it is. A change that moves one changed a digest or checkpoint format.

use tn_chain::checkpoint::ChainCheckpoint;
use tn_chain::codec::Encodable;
use tn_chain::Transaction;
use tn_core::platform::PlatformConfig;
use tn_crypto::sha256::sha256;
use tn_crypto::Keypair;
use tn_node::validator::ValidatorNode;
use tn_node::workload::scripted_workload;
use tn_supplychain::index::NewsEvent;

const NAMES: [&str; 4] = ["supplychain", "identity", "factdb", "headlines"];

/// The scripted workload in consensus-sized batches on the in-memory
/// backend, then one forced checkpoint at the head.
fn node_after_workload() -> ValidatorNode {
    let config = PlatformConfig::default();
    let mut node = ValidatorNode::new(0, &config);
    for batch in scripted_workload(&config).chunks(3) {
        let payloads: Vec<Vec<u8>> = batch.iter().map(|tx| tx.to_bytes()).collect();
        node.apply_committed_batch(&payloads).expect("batch");
    }
    // The scripted workload publishes no headline; one story that carries
    // one puts an entry in the fourth projection.
    let governor = Keypair::from_seed(b"tn-platform-governor");
    let story = NewsEvent {
        headline: "Council approves the harbour plan".into(),
        content: "The council voted seven to two for the harbour plan.".into(),
        topic: "city".into(),
        room: 0,
        parents: vec![],
        published_at: 77,
    };
    let nonce = node
        .pipeline()
        .store()
        .head_state()
        .nonce(&governor.address());
    let tx = Transaction::signed(&governor, nonce, config.fee, story.into_payload());
    let outcome = node
        .apply_committed_batch(&[tx.to_bytes()])
        .expect("headline batch");
    assert_eq!(outcome.included, 1);
    node.checkpoint().expect("forced checkpoint");
    node
}

#[test]
fn digests_checkpoint_bytes_and_histograms_are_pinned() {
    let node = node_after_workload();
    assert_eq!(node.height(), 10);

    let digests: Vec<(&str, String)> = node
        .projection_digests()
        .into_iter()
        .map(|(name, digest)| (name, digest.to_string()))
        .collect();
    let expected = [
        "ce8c8f1d534fa1e8743116aea501ab6a914b24654a3987130ec1cbeda0764ae3",
        "1e1f44b9443e302d710f0d5619475d06775d7b76be10a7d5f0c3adc6977d1fd4",
        "dfef810a9c13822874050539ecf0534aae9addf8b309d39432e601ad3b9fe7d2",
        "ea03d5996a18a86e9543b725ba61b9cb5b6aa7edbee7e492ca7efae35c0738f3",
    ];
    assert_eq!(
        digests,
        NAMES
            .iter()
            .zip(expected)
            .map(|(name, digest)| (*name, digest.to_string()))
            .collect::<Vec<_>>()
    );
    assert_eq!(
        node.execution_digest().to_string(),
        "7b1148d7aa749143988fca2b5bd129d62fa008fca3d965656dee9527d059b715"
    );
    assert_eq!(
        node.verify_replay().expect("replay reproduces"),
        node.projection_digests()
    );

    let raw = node
        .pipeline()
        .store()
        .storage()
        .checkpoint_at_or_before(u64::MAX)
        .expect("backend answers")
        .expect("a checkpoint exists");
    assert_eq!(raw.height, node.height());
    assert_eq!(
        sha256(&raw.blob).to_string(),
        "5b79e13b73cad886b48f00a773a113ed33f8b543664ab9b9f733e9c378e3f82f"
    );
    let cp = ChainCheckpoint::from_bytes(&raw.blob).expect("decodes");
    let extensions: Vec<(&str, usize)> = cp
        .extensions
        .iter()
        .map(|(name, bytes)| (name.as_str(), bytes.len()))
        .collect();
    assert_eq!(
        extensions,
        [
            ("supplychain", 12773),
            ("identity", 211),
            ("factdb", 8976),
            ("headlines", 67),
            ("contracts.registry", 672),
        ]
    );

    let metrics = node.metrics_snapshot();
    for name in NAMES {
        let series = format!("chain.projection.{name}.apply_ns");
        let histogram = metrics
            .histogram(&series)
            .unwrap_or_else(|| panic!("{series} missing"));
        // One sample per block committed after the node wired telemetry
        // (the bootstrap anchor block came before).
        assert_eq!(histogram.count, node.height() - 1, "{series}");
    }
}
