//! On-chain encoding of news events and the ledger indexer.
//!
//! "Each news propagate from one entity to other entity will be recorded
//! as a transaction in the blockchain ledger" (§VI). A [`NewsEvent`] is
//! the blob payload of such a transaction; [`index_chain`] replays the
//! canonical ledger and reconstructs the supply-chain graph — the
//! transparency property the ranking and accountability mechanisms build
//! on.

use tn_chain::codec::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use tn_chain::{blob_tags, ChainStore, Payload, Transaction};
use tn_crypto::Hash256;

use crate::graph::{GraphError, SupplyChainGraph};
use crate::ops::PropagationOp;

/// The on-chain record of a news publication or propagation step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewsEvent {
    /// Optional headline (empty string = none). Carried on-chain so
    /// headline/body stance analysis is reproducible by anyone.
    pub headline: String,
    /// Full item text.
    pub content: String,
    /// Topic label.
    pub topic: String,
    /// News room id.
    pub room: u64,
    /// Parent item ids with the operation used (empty for original posts).
    pub parents: Vec<(Hash256, u8)>,
    /// Publication time.
    pub published_at: u64,
}

impl NewsEvent {
    /// Wraps the event into a transaction payload blob. Events with
    /// parents use the `NEWS_PROPAGATE` tag, originals `NEWS_PUBLISH`.
    pub fn into_payload(self) -> Payload {
        let tag = if self.parents.is_empty() {
            blob_tags::NEWS_PUBLISH
        } else {
            blob_tags::NEWS_PROPAGATE
        };
        Payload::Blob {
            tag,
            data: self.to_bytes(),
        }
    }

    /// Parses a payload blob back into an event (None for non-news blobs
    /// or other payload kinds).
    pub fn from_payload(payload: &Payload) -> Option<Result<NewsEvent, DecodeError>> {
        match payload {
            Payload::Blob { tag, data }
                if *tag == blob_tags::NEWS_PUBLISH || *tag == blob_tags::NEWS_PROPAGATE =>
            {
                Some(NewsEvent::from_bytes(data))
            }
            _ => None,
        }
    }
}

impl Encodable for NewsEvent {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.headline);
        enc.put_str(&self.content)
            .put_str(&self.topic)
            .put_u64(self.room);
        enc.put_varint(self.parents.len() as u64);
        for (id, op) in &self.parents {
            enc.put_hash(id).put_u8(*op);
        }
        enc.put_u64(self.published_at);
    }
}

impl Decodable for NewsEvent {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let headline = dec.get_str()?;
        let content = dec.get_str()?;
        let topic = dec.get_str()?;
        let room = dec.get_u64()?;
        let n = dec.get_varint()?;
        if n > 1024 {
            return Err(DecodeError::BadLength(n));
        }
        let mut parents = Vec::with_capacity(n as usize);
        for _ in 0..n {
            parents.push((dec.get_hash()?, dec.get_u8()?));
        }
        Ok(NewsEvent {
            headline,
            content,
            topic,
            room,
            parents,
            published_at: dec.get_u64()?,
        })
    }
}

/// Statistics from an indexing pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// News events successfully inserted into the graph.
    pub indexed: usize,
    /// Blobs skipped: undecodable bytes.
    pub malformed: usize,
    /// Events skipped: missing parents / duplicates / unknown ops.
    pub rejected: usize,
    /// Non-news transactions ignored.
    pub ignored: usize,
}

/// Replays the canonical chain into `graph`. Fact roots must already be
/// registered in the graph (they come from the factual database, not the
/// ledger). Invalid events are counted, not fatal — a public ledger can
/// contain garbage.
pub fn index_chain(store: &ChainStore, graph: &mut SupplyChainGraph) -> IndexStats {
    let mut stats = IndexStats::default();
    for tx in store.canonical_transactions() {
        index_transaction(&tx, graph, &mut stats);
    }
    stats
}

/// Indexes a single transaction (used incrementally as blocks commit).
pub fn index_transaction(tx: &Transaction, graph: &mut SupplyChainGraph, stats: &mut IndexStats) {
    let Some(parsed) = NewsEvent::from_payload(&tx.payload) else {
        stats.ignored += 1;
        return;
    };
    let event = match parsed {
        Ok(e) => e,
        Err(_) => {
            stats.malformed += 1;
            return;
        }
    };
    let mut parents = Vec::with_capacity(event.parents.len());
    for (id, op_tag) in &event.parents {
        match PropagationOp::from_tag(*op_tag) {
            Some(op) => parents.push((*id, op)),
            None => {
                stats.rejected += 1;
                return;
            }
        }
    }
    match graph.insert(
        tx.from,
        &event.content,
        &event.topic,
        event.room,
        parents,
        event.published_at,
    ) {
        Ok(_) => stats.indexed += 1,
        Err(GraphError::Duplicate(_) | GraphError::MissingParent(_) | GraphError::NotFound(_)) => {
            stats.rejected += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::item_id;
    use tn_chain::prelude::*;
    use tn_crypto::sha256::sha256;
    use tn_crypto::Keypair;

    const FACT: &str = "The committee approved the solar subsidy amendment. \
        The vote passed with a clear majority.";

    #[test]
    fn event_round_trip() {
        let e = NewsEvent {
            headline: "A headline".into(),
            content: "text".into(),
            topic: "energy".into(),
            room: 3,
            parents: vec![(sha256(b"p"), PropagationOp::Relay.tag())],
            published_at: 99,
        };
        let decoded = NewsEvent::from_bytes(&e.to_bytes()).unwrap();
        assert_eq!(decoded, e);
    }

    #[test]
    fn payload_tags_reflect_parents() {
        let orig = NewsEvent {
            headline: String::new(),
            content: "t".into(),
            topic: "x".into(),
            room: 0,
            parents: vec![],
            published_at: 0,
        };
        match orig.clone().into_payload() {
            Payload::Blob { tag, .. } => assert_eq!(tag, blob_tags::NEWS_PUBLISH),
            _ => panic!("expected blob"),
        }
        let prop = NewsEvent {
            parents: vec![(sha256(b"p"), 0)],
            ..orig
        };
        match prop.into_payload() {
            Payload::Blob { tag, .. } => assert_eq!(tag, blob_tags::NEWS_PROPAGATE),
            _ => panic!("expected blob"),
        }
    }

    #[test]
    fn chain_round_trip_to_graph() {
        let alice = Keypair::from_seed(b"alice");
        let bob = Keypair::from_seed(b"bob");
        let validator = Keypair::from_seed(b"validator");
        let genesis = State::genesis([(alice.address(), 1000), (bob.address(), 1000)]);
        let mut store = ChainStore::new(genesis, &validator);

        // Alice publishes an original citing nothing on-chain (roots live in
        // factdb); Bob relays it.
        let publish = NewsEvent {
            headline: String::new(),
            content: FACT.into(),
            topic: "energy".into(),
            room: 1,
            parents: vec![],
            published_at: 5,
        };
        let tx1 = Transaction::signed(&alice, 0, 1, publish.into_payload());
        let alice_item = item_id(&alice.address(), FACT, 5);

        let relay = NewsEvent {
            headline: String::new(),
            content: FACT.into(),
            topic: "energy".into(),
            room: 1,
            parents: vec![(alice_item, PropagationOp::Relay.tag())],
            published_at: 6,
        };
        let tx2 = Transaction::signed(&bob, 0, 1, relay.into_payload());

        let block = store.propose(&validator, 1, vec![tx1, tx2], &mut NoExecutor);
        store.import(&block, &mut NoExecutor).unwrap();

        let mut graph = SupplyChainGraph::new();
        let stats = index_chain(&store, &mut graph);
        assert_eq!(stats.indexed, 2);
        assert_eq!(stats.rejected, 0);
        assert_eq!(graph.len(), 2);
        let bob_item = item_id(&bob.address(), FACT, 6);
        let item = graph.get(&bob_item).expect("indexed");
        assert_eq!(item.parents.len(), 1);
        assert_eq!(item.parents[0].id, alice_item);
        assert!(item.parents[0].modification < 1e-9);
    }

    #[test]
    fn orphan_and_malformed_events_counted() {
        let alice = Keypair::from_seed(b"alice");
        let validator = Keypair::from_seed(b"v");
        let genesis = State::genesis([(alice.address(), 1000)]);
        let mut store = ChainStore::new(genesis, &validator);

        // Orphan: parent never published.
        let orphan = NewsEvent {
            headline: String::new(),
            content: "dangling".into(),
            topic: "t".into(),
            room: 1,
            parents: vec![(sha256(b"ghost"), 0)],
            published_at: 1,
        };
        let tx1 = Transaction::signed(&alice, 0, 1, orphan.into_payload());
        // Malformed blob bytes under a news tag.
        let tx2 = Transaction::signed(
            &alice,
            1,
            1,
            Payload::Blob {
                tag: blob_tags::NEWS_PUBLISH,
                data: vec![0xff, 0xff],
            },
        );
        // Unknown op tag.
        let badop = NewsEvent {
            headline: String::new(),
            content: "x".into(),
            topic: "t".into(),
            room: 1,
            parents: vec![(sha256(b"ghost"), 99)],
            published_at: 2,
        };
        let tx3 = Transaction::signed(&alice, 2, 1, badop.into_payload());
        // Non-news blob.
        let tx4 = Transaction::signed(
            &alice,
            3,
            1,
            Payload::Blob {
                tag: blob_tags::RATING,
                data: vec![],
            },
        );

        let block = store.propose(&validator, 1, vec![tx1, tx2, tx3, tx4], &mut NoExecutor);
        store.import(&block, &mut NoExecutor).unwrap();

        let mut graph = SupplyChainGraph::new();
        let stats = index_chain(&store, &mut graph);
        assert_eq!(stats.indexed, 0);
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.malformed, 1);
        assert!(stats.ignored >= 1);
        assert!(graph.is_empty());
    }
}
