//! A reader who runs NO node audits the platform: verifies the header
//! chain, proves a news event is on-chain, proves a cited fact is in the
//! factual database, audits that the database only ever grew between
//! anchors (append-only consistency, RFC 6962 style), and checks an
//! account's balance — and another account's absence — against a block
//! header's state root.
//!
//! Run with: `cargo run -p tn-examples --bin light_client_audit --release`

use tn_chain::codec::{Decodable, Encodable};
use tn_chain::transaction::Payload;
use tn_chain::AccountProof;
use tn_core::client::LightClient;
use tn_core::platform::{Platform, PlatformConfig};
use tn_core::roles::Role;
use tn_crypto::Keypair;
use tn_factdb::record::{FactRecord, SourceKind};
use tn_supplychain::index::NewsEvent;
use tn_supplychain::ops::PropagationOp;

fn main() {
    // ---- full node side: a populated platform -----------------------------
    let mut platform = Platform::new(PlatformConfig::default());
    let publisher = Keypair::from_seed(b"lca publisher");
    let journalist = Keypair::from_seed(b"lca journalist");
    let checkers: Vec<Keypair> = (0..2)
        .map(|i| Keypair::from_seed(format!("lca checker {i}").as_bytes()))
        .collect();
    platform
        .register_identity(&publisher, "LCA Press", &[Role::Publisher])
        .unwrap();
    platform
        .register_identity(&journalist, "LCA Journalist", &[Role::ContentCreator])
        .unwrap();
    for c in &checkers {
        platform
            .register_identity(c, "LCA Checker", &[Role::FactChecker])
            .unwrap();
    }
    platform.produce_block().expect("identities");
    let room = platform
        .open_newsroom(&publisher, "LCA Press", "energy", &[journalist.address()])
        .expect("newsroom");

    let old_size = platform.factdb().len();
    let record = FactRecord {
        source: SourceKind::VerifiedNews,
        speaker: "Grid Operator".into(),
        topic: "energy".into(),
        content: "The operator published verified outage statistics for June.".into(),
        recorded_at: 777,
    };
    let record_id = platform.propose_fact(record.clone()).unwrap();
    for c in &checkers {
        platform.attest_fact(c, &record_id).expect("attest");
    }
    platform.produce_block().expect("attest block");
    platform.produce_block().expect("anchor block");
    platform
        .publish_news(
            &journalist,
            room,
            "energy",
            &record.content,
            vec![(record_id, PropagationOp::Cite)],
        )
        .expect("publish");
    platform.produce_block().expect("publish block");
    println!(
        "full node: {} blocks, factdb {} records, anchored root {}",
        platform.height(),
        platform.factdb().len(),
        platform.anchored_fact_root().expect("anchored").short()
    );

    // ---- light client side ------------------------------------------------
    let mut client = LightClient::new();
    let mut chain = platform.store().canonical_chain();
    chain.reverse(); // oldest first
    let mut news_verified = 0;
    for block_id in chain {
        let block = platform
            .store()
            .block(&block_id)
            .expect("canonical")
            .clone();
        client.submit_block_header(&block).expect("header verifies");
        for (i, tx) in block.transactions.iter().enumerate() {
            let proof = block.prove_tx(i).expect("in range");
            if NewsEvent::from_payload(&tx.payload).is_some() {
                let event = client
                    .verify_news_event(&block_id, tx, &proof)
                    .expect("verifies");
                println!(
                    "verified on-chain news event in block {}: {:?}… by {}",
                    block_id.short(),
                    &event.content[..40.min(event.content.len())],
                    tx.from.short()
                );
                news_verified += 1;
            }
            if matches!(&tx.payload, Payload::AnchorRoot { namespace, .. } if namespace == "factdb")
            {
                client
                    .observe_anchor(&block_id, tx, &proof)
                    .expect("anchor verifies");
            }
        }
    }
    println!(
        "light client: {} headers, {} news events verified, {} anchors observed",
        client.len(),
        news_verified,
        client.anchor_trail().len()
    );

    // Prove the cited record against the anchored root.
    let (proof, _) = platform.factdb().prove(&record_id).expect("provable");
    client
        .verify_fact(&record, &proof)
        .expect("fact verifies against anchor");
    println!(
        "fact record {} verified against the on-chain anchor",
        record_id.short()
    );

    // Append-only audit between the two anchors.
    let consistency = platform
        .factdb()
        .prove_consistency(old_size)
        .expect("provable");
    client
        .verify_anchor_consistency(&consistency)
        .expect("append-only audit passes");
    println!(
        "append-only audit passed: anchor {} extends anchor {} ({} proof hashes)",
        client.anchor_trail().last().expect("trail").short(),
        client.anchor_trail()[client.anchor_trail().len() - 2].short(),
        consistency.hashes.len()
    );

    // Account state, from the head header alone: the full node hands over
    // a proof per address (as bytes), the client checks each against the
    // `state_root` of the header it already verified.
    let head = client.tip().expect("synced");
    let state = platform.store().head_state();
    let stranger = Keypair::from_seed(b"lca stranger").address();
    for (who, addr) in [("journalist", journalist.address()), ("stranger", stranger)] {
        let wire = state.prove(&addr).to_bytes();
        let account_proof = AccountProof::from_bytes(&wire).expect("proof decodes");
        let (hashes, bytes) = (account_proof.hashes(), wire.len());
        match client
            .verify_account(&head, &addr, &account_proof)
            .expect("proof verifies against the head header")
        {
            Some(acct) => {
                assert_eq!(acct, state.account(&addr));
                println!(
                    "account {who}: balance {} nonce {} proven under state root {} ({hashes} hashes, {bytes} bytes)",
                    acct.balance,
                    acct.nonce,
                    platform.store().head_header().state_root.short(),
                );
            }
            None => {
                assert_eq!(who, "stranger");
                println!(
                    "account {who}: proven absent from the state ({hashes} hashes, {bytes} bytes)"
                );
            }
        }
    }

    // And tampering is caught.
    let mut tampered = record.clone();
    tampered.content.push_str(" [stealth edit]");
    assert!(client.verify_fact(&tampered, &proof).is_err());
    println!("tampered record correctly rejected");
}
