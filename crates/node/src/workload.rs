//! Deterministic transaction workloads for cluster runs.
//!
//! Transactions are not invented here: a local [`Platform`] executes a
//! scripted ecosystem session (identities, a publisher platform, news
//! with provenance, ratings, a fact proposal and its attestations), and
//! the committed ledger — minus the bootstrap prefix every replica
//! already holds — becomes the request stream injected into consensus.
//! This guarantees the workload is valid platform traffic while leaving
//! the cluster free to re-batch it into its own blocks.

use tn_chain::prelude::*;
use tn_core::platform::{Platform, PlatformConfig, PlatformError};
use tn_core::roles::Role;
use tn_crypto::Keypair;
use tn_factdb::record::{FactRecord, SourceKind};

/// Runs a scripted session on a local platform built from `config` and
/// returns the committed transactions after the bootstrap anchor block,
/// oldest first.
pub fn scripted_workload(config: &PlatformConfig) -> Vec<Transaction> {
    scripted_session(config)
        .expect("the session signs only for accounts it registered with the roles each call needs")
}

/// The session behind [`scripted_workload`].
fn scripted_session(config: &PlatformConfig) -> Result<Vec<Transaction>, PlatformError> {
    let mut p = Platform::new(config.clone());
    let publisher = Keypair::from_seed(b"wl-publisher");
    let journo = Keypair::from_seed(b"wl-journalist");
    let checker1 = Keypair::from_seed(b"wl-checker-1");
    let checker2 = Keypair::from_seed(b"wl-checker-2");

    p.register_identity(&publisher, "Workload Press", &[Role::Publisher])?;
    p.register_identity(
        &journo,
        "Workload Journalist",
        &[Role::ContentCreator, Role::Consumer],
    )?;
    p.register_identity(&checker1, "Workload Checker 1", &[Role::FactChecker])?;
    p.register_identity(&checker2, "Workload Checker 2", &[Role::FactChecker])?;
    p.produce_block()?;
    let room = p.open_newsroom(&publisher, "Workload Press", "general", &[journo.address()])?;

    // Publish three items citing factual roots, plus one unsourced piece.
    let roots: Vec<_> = p.factdb().iter().take(3).cloned().collect();
    let mut items = Vec::new();
    for root in &roots {
        let item = p.publish_news(
            &journo,
            room,
            &root.topic,
            &root.content,
            vec![(root.id(), tn_supplychain::ops::PropagationOp::Cite)],
        )?;
        items.push(item);
    }
    p.publish_news(
        &journo,
        room,
        "general",
        "An unsourced rumor spreads quickly.",
        vec![],
    )?;
    p.produce_block()?;

    for (i, item) in items.iter().enumerate() {
        p.submit_rating(&journo, item, 60 + 10 * i as u8)?;
    }
    p.produce_block()?;

    // Propose a fresh fact and attest it to admission.
    let record = FactRecord {
        source: SourceKind::VerifiedNews,
        speaker: "Workload Recorder".into(),
        topic: "general".into(),
        content: "The oversight board certified the workload audit.".into(),
        recorded_at: 404,
    };
    let id = p.propose_fact(record)?;
    p.attest_fact(&checker1, &id)?;
    p.attest_fact(&checker2, &id)?;
    p.produce_block()?;
    // Flush the automatic re-anchor enqueued after admission.
    p.produce_block()?;

    Ok(extract_post_bootstrap(&p))
}

/// The committed blocks of `platform`'s chain above the bootstrap anchor
/// block (heights ≥ 2), oldest first.
pub fn post_bootstrap_blocks(platform: &Platform) -> impl Iterator<Item = Block> + '_ {
    let store = platform.store();
    let mut ids = store.canonical_chain();
    ids.reverse();
    ids.into_iter()
        .filter_map(|id| store.block(&id))
        .filter(|b| b.header.height >= 2)
}

/// The committed transactions of `platform`'s chain above the bootstrap
/// anchor block (heights ≥ 2), oldest first.
pub fn extract_post_bootstrap(platform: &Platform) -> Vec<Transaction> {
    post_bootstrap_blocks(platform)
        .flat_map(|b| b.transactions)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_nonempty_and_decodable() {
        use tn_chain::codec::{Decodable, Encodable};
        let txs = scripted_workload(&PlatformConfig::default());
        assert!(txs.len() >= 15, "got {}", txs.len());
        for tx in &txs {
            let rt = Transaction::from_bytes(&tx.to_bytes()).expect("round trip");
            assert_eq!(rt.id(), tx.id());
        }
    }
}
