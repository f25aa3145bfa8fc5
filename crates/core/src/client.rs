//! Light-client verification: readers check the platform's claims without
//! running a node.
//!
//! The paper's trust story requires that *anyone* can verify (a) a news
//! event really is on the immutable ledger and (b) a cited record really
//! is in the factual database — "the record is immutable and any changes
//! are easy to detect" (§IV). A light client holds only block headers:
//! it verifies proposer signatures and parent links, checks transaction
//! inclusion with Merkle proofs against the header's `tx_root`, checks an
//! account's balance and nonce — or that it has none — with an
//! [`AccountProof`] against the header's `state_root`, learns the
//! factual-database anchor from proven `AnchorRoot` transactions, and
//! verifies fact records against that anchor.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use tn_chain::block::{Block, BlockHeader};
use tn_chain::transaction::{Payload, Transaction};
use tn_chain::{AccountProof, AccountState};
use tn_crypto::history::{ConsistencyProof, InclusionProof};
use tn_crypto::merkle::MerkleProof;
use tn_crypto::{Address, Hash256, PublicKey, Signature};
use tn_factdb::db::FactualDatabase;
use tn_factdb::record::FactRecord;
use tn_supplychain::index::NewsEvent;

/// Errors raised by light-client verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Header signature or proposer mismatch.
    BadHeader,
    /// Header's parent is not the current tip.
    BrokenLink {
        /// Expected parent id.
        expected: Hash256,
        /// Parent id carried by the header.
        actual: Hash256,
    },
    /// The referenced block header is unknown to this client.
    UnknownBlock(Hash256),
    /// The Merkle proof did not verify.
    BadProof,
    /// The transaction's own signature is invalid.
    BadTransaction,
    /// The transaction is not a news event / anchor as claimed.
    WrongPayload,
    /// No factual-database anchor has been observed yet.
    NoAnchor,
    /// An append-only consistency audit failed: the new anchor does not
    /// extend the previous one (history was rewritten).
    HistoryRewritten,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::BadHeader => f.write_str("header signature invalid"),
            ClientError::BrokenLink { expected, actual } => {
                write!(
                    f,
                    "header parent {} != tip {}",
                    actual.short(),
                    expected.short()
                )
            }
            ClientError::UnknownBlock(h) => write!(f, "unknown block {}", h.short()),
            ClientError::BadProof => f.write_str("merkle proof failed"),
            ClientError::BadTransaction => f.write_str("transaction signature invalid"),
            ClientError::WrongPayload => f.write_str("payload is not of the claimed kind"),
            ClientError::NoAnchor => f.write_str("no factual-db anchor observed"),
            ClientError::HistoryRewritten => {
                f.write_str("factual-db anchor does not extend the previous anchor")
            }
        }
    }
}

impl Error for ClientError {}

/// A header accepted by the client.
#[derive(Debug, Clone)]
struct AcceptedHeader {
    header: BlockHeader,
}

/// The light client: a verified header chain plus the latest proven
/// factual-database anchor.
#[derive(Debug, Default)]
pub struct LightClient {
    headers: HashMap<Hash256, AcceptedHeader>,
    tip: Option<Hash256>,
    /// Latest proven `factdb` anchor root (and the height it was seen at).
    fact_anchor: Option<(Hash256, u64)>,
    /// Every proven anchor in observation order, for append-only audits.
    anchor_trail: Vec<Hash256>,
}

impl LightClient {
    /// New client with no state; the first header submitted becomes its
    /// trust root (in deployment this would be the known genesis).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current tip id.
    pub fn tip(&self) -> Option<Hash256> {
        self.tip
    }

    /// Number of accepted headers.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// True when no headers have been accepted.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// All proven anchors in observation order.
    pub fn anchor_trail(&self) -> &[Hash256] {
        &self.anchor_trail
    }

    /// Audits that the latest anchor *extends* the previous one via an
    /// append-only consistency proof (supplied by any full node; the proof
    /// is self-verifying against the two roots the client already holds).
    ///
    /// # Errors
    ///
    /// [`ClientError::NoAnchor`] with fewer than two observed anchors;
    /// [`ClientError::HistoryRewritten`] when the proof does not verify.
    pub fn verify_anchor_consistency(&self, proof: &ConsistencyProof) -> Result<(), ClientError> {
        let n = self.anchor_trail.len();
        if n < 2 {
            return Err(ClientError::NoAnchor);
        }
        let old = self.anchor_trail[n - 2];
        let new = self.anchor_trail[n - 1];
        if tn_crypto::history::HistoryTree::verify_consistency(&old, &new, proof) {
            Ok(())
        } else {
            Err(ClientError::HistoryRewritten)
        }
    }

    /// Submits the next header (with the proposer's key and signature).
    /// The first header is accepted as the trust root; later headers must
    /// extend the tip.
    ///
    /// # Errors
    ///
    /// [`ClientError::BadHeader`] or [`ClientError::BrokenLink`].
    pub(crate) fn submit_header(
        &mut self,
        header: BlockHeader,
        proposer_key: &PublicKey,
        signature: &Signature,
    ) -> Result<(), ClientError> {
        if proposer_key.address() != header.proposer
            || !proposer_key.verify(&header.digest(), signature)
        {
            return Err(ClientError::BadHeader);
        }
        if let Some(tip) = self.tip {
            if header.parent != tip {
                return Err(ClientError::BrokenLink {
                    expected: tip,
                    actual: header.parent,
                });
            }
        }
        let id = header.digest();
        self.headers.insert(id, AcceptedHeader { header });
        self.tip = Some(id);
        Ok(())
    }

    /// Convenience: submit a full block's header.
    ///
    /// # Errors
    ///
    /// Same as `Self::submit_header`.
    pub fn submit_block_header(&mut self, block: &Block) -> Result<(), ClientError> {
        self.submit_header(block.header.clone(), &block.proposer_key, &block.signature)
    }

    /// Verifies that `tx` is included in the accepted block `block_id`
    /// via `proof`, and that the transaction itself is validly signed.
    ///
    /// # Errors
    ///
    /// [`ClientError`] variants for unknown blocks, bad proofs or bad
    /// signatures.
    pub(crate) fn verify_transaction(
        &self,
        block_id: &Hash256,
        tx: &Transaction,
        proof: &MerkleProof,
    ) -> Result<(), ClientError> {
        let accepted = self
            .headers
            .get(block_id)
            .ok_or(ClientError::UnknownBlock(*block_id))?;
        if !Block::verify_tx_proof(&tx.id(), proof, &accepted.header.tx_root) {
            return Err(ClientError::BadProof);
        }
        tx.verify().map_err(|_| ClientError::BadTransaction)
    }

    /// Checks what the state after the accepted block `block_id` holds for
    /// `addr`: its record, or `None` when it has none. `proof` comes from
    /// any full node ([`tn_chain::State::prove`]) and is checked against
    /// the `state_root` of a header this client already verified.
    ///
    /// # Errors
    ///
    /// [`ClientError::UnknownBlock`], or [`ClientError::BadProof`] when
    /// the proof is malformed or commits to another root.
    pub fn verify_account(
        &self,
        block_id: &Hash256,
        addr: &Address,
        proof: &AccountProof,
    ) -> Result<Option<AccountState>, ClientError> {
        let accepted = self
            .headers
            .get(block_id)
            .ok_or(ClientError::UnknownBlock(*block_id))?;
        proof
            .verify(&accepted.header.state_root, addr)
            .map_err(|_| ClientError::BadProof)
    }

    /// Verifies an on-chain news event: inclusion + signature + payload
    /// decoding. Returns the decoded event (author = `tx.from`).
    ///
    /// # Errors
    ///
    /// Verification errors, or [`ClientError::WrongPayload`] when the
    /// transaction is not a news blob.
    pub fn verify_news_event(
        &self,
        block_id: &Hash256,
        tx: &Transaction,
        proof: &MerkleProof,
    ) -> Result<NewsEvent, ClientError> {
        self.verify_transaction(block_id, tx, proof)?;
        match NewsEvent::from_payload(&tx.payload) {
            Some(Ok(event)) => Ok(event),
            _ => Err(ClientError::WrongPayload),
        }
    }

    /// Processes a proven `AnchorRoot` transaction for the `factdb`
    /// namespace, updating the client's trusted anchor.
    ///
    /// # Errors
    ///
    /// Verification errors, or [`ClientError::WrongPayload`] for other
    /// payloads/namespaces.
    pub fn observe_anchor(
        &mut self,
        block_id: &Hash256,
        tx: &Transaction,
        proof: &MerkleProof,
    ) -> Result<Hash256, ClientError> {
        self.verify_transaction(block_id, tx, proof)?;
        let height = self
            .headers
            .get(block_id)
            .ok_or(ClientError::UnknownBlock(*block_id))?
            .header
            .height;
        match &tx.payload {
            Payload::AnchorRoot { namespace, root } if namespace == "factdb" => {
                // Keep the newest anchor by height.
                if self.fact_anchor.is_none_or(|(_, h)| height >= h) {
                    self.fact_anchor = Some((*root, height));
                    if self.anchor_trail.last() != Some(root) {
                        self.anchor_trail.push(*root);
                    }
                }
                Ok(*root)
            }
            _ => Err(ClientError::WrongPayload),
        }
    }

    /// Verifies that a fact record is committed under the client's latest
    /// proven anchor.
    ///
    /// # Errors
    ///
    /// [`ClientError::NoAnchor`] before any anchor is observed;
    /// [`ClientError::BadProof`] when verification fails.
    pub fn verify_fact(
        &self,
        record: &FactRecord,
        proof: &InclusionProof,
    ) -> Result<(), ClientError> {
        let (anchor, _) = self.fact_anchor.ok_or(ClientError::NoAnchor)?;
        if FactualDatabase::verify(record, proof, &anchor) {
            Ok(())
        } else {
            Err(ClientError::BadProof)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{Platform, PlatformConfig};
    use crate::roles::Role;
    use tn_crypto::Keypair;
    use tn_supplychain::ops::PropagationOp;

    impl LightClient {
        /// The latest proven factual-database anchor.
        fn fact_anchor(&self) -> Option<Hash256> {
            self.fact_anchor.map(|(r, _)| r)
        }
    }

    /// Builds a platform with one published item, then replays its chain
    /// into a light client.
    fn platform_with_news() -> (Platform, Hash256) {
        let mut p = Platform::new(PlatformConfig::default());
        let publisher = Keypair::from_seed(b"lc2 publisher");
        let journo = Keypair::from_seed(b"lc2 journalist");
        p.register_identity(&publisher, "LC Press", &[Role::Publisher])
            .unwrap();
        p.register_identity(&journo, "LC Journo", &[Role::ContentCreator])
            .unwrap();
        p.produce_block().unwrap();
        let room = p
            .open_newsroom(&publisher, "LC Press", "energy", &[journo.address()])
            .unwrap();
        let fact = p.factdb().iter().next().unwrap().clone();
        let item = p
            .publish_news(
                &journo,
                room,
                &fact.topic,
                &fact.content,
                vec![(fact.id(), PropagationOp::Cite)],
            )
            .unwrap();
        p.produce_block().unwrap();
        (p, item)
    }

    fn sync_client(p: &Platform) -> LightClient {
        let mut client = LightClient::new();
        let mut ids = p.store().canonical_chain();
        ids.reverse();
        for id in ids {
            let block = p.store().block(&id).expect("canonical");
            client.submit_block_header(&block).expect("valid header");
        }
        client
    }

    #[test]
    fn header_chain_sync_and_tip() {
        let (p, _) = platform_with_news();
        let client = sync_client(&p);
        assert_eq!(client.len() as u64, p.height() + 1);
        assert_eq!(client.tip(), Some(p.store().head_id()));
    }

    #[test]
    fn account_proofs_check_against_an_accepted_header() {
        let (p, _) = platform_with_news();
        let client = sync_client(&p);
        let head = p.store().head_id();
        let state = p.store().head_state();
        let journo = Keypair::from_seed(b"lc2 journalist").address();
        let nobody = Keypair::from_seed(b"lc2 nobody").address();
        let proof = state.prove(&journo);
        assert_eq!(
            client.verify_account(&head, &journo, &proof),
            Ok(Some(state.account(&journo)))
        );
        assert!(state.balance(&journo) > 0);
        assert_eq!(
            client.verify_account(&head, &nobody, &state.prove(&nobody)),
            Ok(None)
        );
        // The proof is for the head's state, not for an older header's.
        let older = p.store().canonical_chain()[2];
        assert_eq!(
            client.verify_account(&older, &journo, &proof),
            Err(ClientError::BadProof)
        );
        assert_eq!(
            client.verify_account(&journo.as_hash().clone(), &journo, &proof),
            Err(ClientError::UnknownBlock(*journo.as_hash()))
        );
    }

    #[test]
    fn broken_link_rejected() {
        let (p, _) = platform_with_news();
        let mut client = LightClient::new();
        let chain = p.store().canonical_chain();
        // Submit genesis, then skip a block: link broken.
        let genesis = p.store().block(chain.last().unwrap()).unwrap();
        client.submit_block_header(&genesis).unwrap();
        let head = p.store().head();
        assert!(matches!(
            client.submit_block_header(&head),
            Err(ClientError::BrokenLink { .. })
        ));
    }

    #[test]
    fn tampered_header_rejected() {
        let (p, _) = platform_with_news();
        let mut client = LightClient::new();
        let head = p.store().head();
        let mut header = head.header.clone();
        header.timestamp += 1;
        assert_eq!(
            client.submit_header(header, &head.proposer_key, &head.signature),
            Err(ClientError::BadHeader)
        );
    }

    #[test]
    fn verify_news_event_end_to_end() {
        let (p, _item) = platform_with_news();
        let client = sync_client(&p);
        // Find the news transaction and its block.
        let mut found = false;
        for block_id in p.store().canonical_chain() {
            let block = p.store().block(&block_id).unwrap().clone();
            for (i, tx) in block.transactions.iter().enumerate() {
                if NewsEvent::from_payload(&tx.payload).is_some() {
                    let proof = block.prove_tx(i).unwrap();
                    let event = client.verify_news_event(&block_id, tx, &proof).unwrap();
                    assert!(!event.content.is_empty());
                    assert_eq!(event.parents.len(), 1);
                    found = true;
                    // Wrong block id fails.
                    let bogus = tn_crypto::sha256::sha256(b"bogus block");
                    assert!(matches!(
                        client.verify_news_event(&bogus, tx, &proof),
                        Err(ClientError::UnknownBlock(_))
                    ));
                }
            }
        }
        assert!(found, "news event located and verified");
    }

    #[test]
    fn anchor_then_fact_verification() {
        let (p, _) = platform_with_news();
        let mut client = sync_client(&p);
        // Feed the anchor transaction with its proof.
        let mut anchored = false;
        for block_id in p.store().canonical_chain() {
            let block = p.store().block(&block_id).unwrap().clone();
            for (i, tx) in block.transactions.iter().enumerate() {
                if matches!(&tx.payload, Payload::AnchorRoot { namespace, .. } if namespace == "factdb")
                {
                    let proof = block.prove_tx(i).unwrap();
                    client.observe_anchor(&block_id, tx, &proof).unwrap();
                    anchored = true;
                }
            }
        }
        assert!(anchored);
        assert_eq!(client.fact_anchor(), Some(p.factdb().root()));

        // Now verify a record against the proven anchor.
        let record = p.factdb().iter().next().unwrap().clone();
        let (proof, _) = p.factdb().prove(&record.id()).unwrap();
        client.verify_fact(&record, &proof).unwrap();

        // Tampered record fails.
        let mut tampered = record.clone();
        tampered.content.push_str(" [edited]");
        assert_eq!(
            client.verify_fact(&tampered, &proof),
            Err(ClientError::BadProof)
        );
    }

    #[test]
    fn append_only_audit_between_anchors() {
        // Grow the factual DB through attestation, observe both anchors,
        // and audit that the new anchor extends the old one.
        let (mut p, _) = platform_with_news();
        let c1 = Keypair::from_seed(b"lc2 checker 1");
        let c2 = Keypair::from_seed(b"lc2 checker 2");
        p.register_identity(&c1, "C1", &[crate::roles::Role::FactChecker])
            .unwrap();
        p.register_identity(&c2, "C2", &[crate::roles::Role::FactChecker])
            .unwrap();
        p.produce_block().unwrap();
        let old_size = p.factdb().len();

        let record = tn_factdb::record::FactRecord {
            source: tn_factdb::record::SourceKind::VerifiedNews,
            speaker: "Auditor".into(),
            topic: "audit".into(),
            content: "A fresh verified record for the consistency audit.".into(),
            recorded_at: 4242,
        };
        let id = p.propose_fact(record).unwrap();
        p.attest_fact(&c1, &id).unwrap();
        p.attest_fact(&c2, &id).unwrap();
        p.produce_block().unwrap();
        p.produce_block().unwrap(); // re-anchor lands

        // Sync a client and feed it every anchor transaction with proofs,
        // oldest block first (anchors must be observed in order).
        let mut client = sync_client(&p);
        let mut chain = p.store().canonical_chain();
        chain.reverse();
        for block_id in chain {
            let block = p.store().block(&block_id).unwrap().clone();
            for (i, tx) in block.transactions.iter().enumerate() {
                if matches!(&tx.payload, Payload::AnchorRoot { namespace, .. } if namespace == "factdb")
                {
                    let proof = block.prove_tx(i).unwrap();
                    client.observe_anchor(&block_id, tx, &proof).unwrap();
                }
            }
        }
        assert!(client.anchor_trail().len() >= 2, "two anchors observed");

        // The platform (full node) serves the append-only proof; the
        // client verifies it against the roots it already holds.
        let proof = p.factdb().prove_consistency(old_size).unwrap();
        client.verify_anchor_consistency(&proof).unwrap();

        // A proof over the wrong boundary fails the audit.
        let bogus = p.factdb().prove_consistency(1).unwrap();
        assert_eq!(
            client.verify_anchor_consistency(&bogus),
            Err(ClientError::HistoryRewritten)
        );
    }

    #[test]
    fn no_anchor_means_no_fact_verification() {
        let (p, _) = platform_with_news();
        let client = sync_client(&p);
        let record = p.factdb().iter().next().unwrap().clone();
        let (proof, _) = p.factdb().prove(&record.id()).unwrap();
        assert_eq!(
            client.verify_fact(&record, &proof),
            Err(ClientError::NoAnchor)
        );
    }

    #[test]
    fn forged_transaction_rejected() {
        let (p, _) = platform_with_news();
        let client = sync_client(&p);
        let head_id = p.store().head_id();
        let head = p.store().head();
        // A transaction not in the block cannot be proven with another's
        // proof.
        if let (Some(tx0), Some(proof1)) = (head.transactions.first(), head.prove_tx(0)) {
            let forged =
                Transaction::signed(&Keypair::from_seed(b"forger"), 0, 0, tx0.payload.clone());
            assert_eq!(
                client.verify_transaction(&head_id, &forged, &proof1),
                Err(ClientError::BadProof)
            );
        }
    }
}
