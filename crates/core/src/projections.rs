//! The four platform projections: chain-derived views as [`BlockObserver`]s.
//!
//! Each projection is a pure function of canonical block history — it
//! consumes `(block, receipts)` pairs in order and exposes a state digest.
//! The supply-chain graph, identity registry, fact-admission ledger and
//! headline cache were previously maintained ad hoc inside `Platform`;
//! here each is an independent observer registered with the
//! [`ChainStore`](tn_chain::ChainStore), so:
//!
//! - a replay from genesis rebuilds every view bit-for-bit (the audit
//!   path — see [`ChainStore::replay_into`](tn_chain::ChainStore::replay_into));
//! - every replica of an N-validator network that commits the same blocks
//!   reports the same projection digests (the consensus path — see
//!   `tn-node`).
//!
//! Projections deliberately do not share state: the fact-admission logic
//! needed by both the factual database and the supply-chain graph is the
//! shared [`AdmissionLedger`] *type*, instantiated per projection, so each
//! observer remains independently replayable.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use tn_chain::codec::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use tn_chain::observer::BlockObserver;
use tn_chain::{blob_tags, Block, Payload, Receipt};
use tn_crypto::sha256::tagged_hash;
use tn_crypto::{Address, Hash256};
use tn_factdb::db::FactualDatabase;
use tn_factdb::record::FactRecord;
use tn_supplychain::graph::SupplyChainGraph;
use tn_supplychain::index::{index_transaction, IndexStats, NewsEvent};

use crate::roles::{IdentityRecord, IdentityRegistry};

/// Projection names, as registered with the chain store.
pub mod names {
    /// [`SupplyChainProjection`](super::SupplyChainProjection).
    pub const SUPPLY_CHAIN: &str = "supplychain";
    /// [`IdentityProjection`](super::IdentityProjection).
    pub const IDENTITY: &str = "identity";
    /// [`FactProjection`](super::FactProjection).
    pub const FACTDB: &str = "factdb";
    /// [`HeadlineProjection`](super::HeadlineProjection).
    pub const HEADLINES: &str = "headlines";
}

/// Chain-derived fact-admission state: candidates proposed on-chain
/// (`FACT_PROPOSE` blobs) and attester sets accumulated from successful
/// attestation calls to the admission contract. A record is admitted once
/// its distinct-attester count reaches the threshold.
///
/// The admission *authority* (who counts as a fact checker) is enforced
/// by the on-chain `FactDbAdmission` contract at execution time; the
/// ledger only trusts successful receipts, so it never re-implements the
/// authorization rules.
#[derive(Debug, Clone)]
pub struct AdmissionLedger {
    admission_addr: Address,
    threshold: usize,
    candidates: BTreeMap<Hash256, FactRecord>,
    attesters: BTreeMap<Hash256, BTreeSet<Address>>,
    admitted: BTreeSet<Hash256>,
}

impl AdmissionLedger {
    /// Creates an empty ledger watching `admission_addr` with the given
    /// attestation threshold.
    pub fn new(admission_addr: Address, threshold: usize) -> Self {
        AdmissionLedger {
            admission_addr,
            threshold,
            candidates: BTreeMap::new(),
            attesters: BTreeMap::new(),
            admitted: BTreeSet::new(),
        }
    }

    /// True when `record` is a known (pending or admitted) candidate.
    pub fn is_candidate(&self, record: &Hash256) -> bool {
        self.candidates.contains_key(record) || self.admitted.contains(record)
    }

    /// Distinct attesters observed for `record`.
    pub fn attestation_count(&self, record: &Hash256) -> usize {
        self.attesters.get(record).map_or(0, BTreeSet::len)
    }

    fn clear(&mut self) {
        self.candidates.clear();
        self.attesters.clear();
        self.admitted.clear();
    }

    /// Feeds one committed transaction (with its receipt) into the
    /// ledger's candidate/attestation state.
    fn observe(&mut self, from: &Address, payload: &Payload, receipt: &Receipt) {
        if !receipt.success {
            return;
        }
        match payload {
            Payload::Blob { tag, data } if *tag == blob_tags::FACT_PROPOSE => {
                if let Ok(record) = FactRecord::from_bytes(data) {
                    let id = record.id();
                    if !self.admitted.contains(&id) {
                        self.candidates.entry(id).or_insert(record);
                    }
                }
            }
            // Attest inputs are `op 1 || record hash`; any other op is
            // not an attestation. A successful receipt implies the
            // contract accepted the caller as a registered checker.
            Payload::ContractCall {
                contract, input, ..
            } if *contract == self.admission_addr && input.len() == 33 && input[0] == 1 => {
                let mut bytes = [0u8; 32];
                bytes.copy_from_slice(&input[1..]);
                let record = Hash256::from_bytes(bytes);
                self.attesters.entry(record).or_default().insert(*from);
            }
            _ => {}
        }
    }

    /// Evaluates admissions at a block boundary: every pending candidate
    /// at or above the threshold is admitted, in record-id order (so all
    /// replicas admit in the same order regardless of map internals).
    fn evaluate(&mut self) -> Vec<FactRecord> {
        let ready: Vec<Hash256> = self
            .candidates
            .keys()
            .filter(|id| self.attestation_count(id) >= self.threshold)
            .copied()
            .collect();
        let mut admitted = Vec::with_capacity(ready.len());
        for id in ready {
            let record = self.candidates.remove(&id).expect("key listed");
            self.admitted.insert(id);
            admitted.push(record);
        }
        admitted
    }

    /// Hash of the pending candidate/attester state (admitted records are
    /// digested by whatever store consumed them).
    fn pending_digest_into(&self, data: &mut Vec<u8>) {
        data.extend_from_slice(&(self.candidates.len() as u64).to_le_bytes());
        for id in self.candidates.keys() {
            data.extend_from_slice(id.as_bytes());
        }
        data.extend_from_slice(&(self.attesters.len() as u64).to_le_bytes());
        for (id, who) in &self.attesters {
            data.extend_from_slice(id.as_bytes());
            data.extend_from_slice(&(who.len() as u64).to_le_bytes());
            for a in who {
                data.extend_from_slice(a.as_hash().as_bytes());
            }
        }
    }

    /// Appends the candidate/attester/admitted sets to a checkpoint
    /// encoder. The admission address and threshold are construction-time
    /// configuration, re-supplied by whoever rebuilds the projection, so
    /// they are not serialized.
    fn save_into(&self, e: &mut Encoder) {
        e.put_varint(self.candidates.len() as u64);
        for rec in self.candidates.values() {
            e.put_bytes(&rec.to_bytes());
        }
        e.put_varint(self.attesters.len() as u64);
        for (id, who) in &self.attesters {
            e.put_hash(id).put_varint(who.len() as u64);
            for a in who {
                e.put_hash(a.as_hash());
            }
        }
        e.put_varint(self.admitted.len() as u64);
        for id in &self.admitted {
            e.put_hash(id);
        }
    }

    /// Restores the sets written by [`save_into`](AdmissionLedger::save_into),
    /// leaving the ledger untouched on error.
    fn load_from(&mut self, dec: &mut Decoder<'_>) -> Result<(), String> {
        let err = |e: DecodeError| format!("malformed admission ledger: {e}");
        let mut candidates = BTreeMap::new();
        let n = dec.get_varint().map_err(err)?;
        for _ in 0..n {
            let raw = dec.get_bytes().map_err(err)?;
            let rec = FactRecord::from_bytes(&raw)
                .map_err(|e| format!("malformed candidate record: {e}"))?;
            candidates.insert(rec.id(), rec);
        }
        let mut attesters = BTreeMap::new();
        let n = dec.get_varint().map_err(err)?;
        for _ in 0..n {
            let id = dec.get_hash().map_err(err)?;
            let m = dec.get_varint().map_err(err)?;
            let mut who = BTreeSet::new();
            for _ in 0..m {
                who.insert(Address::from_hash(dec.get_hash().map_err(err)?));
            }
            attesters.insert(id, who);
        }
        let mut admitted = BTreeSet::new();
        let n = dec.get_varint().map_err(err)?;
        for _ in 0..n {
            admitted.insert(dec.get_hash().map_err(err)?);
        }
        self.candidates = candidates;
        self.attesters = attesters;
        self.admitted = admitted;
        Ok(())
    }
}

/// Rebuilds the supply-chain graph from canonical news events, with
/// admitted fact records entering as graph roots.
#[derive(Debug)]
pub struct SupplyChainProjection {
    seed: Vec<FactRecord>,
    graph: SupplyChainGraph,
    stats: IndexStats,
    ledger: AdmissionLedger,
}

impl SupplyChainProjection {
    /// Creates the projection. `seed` is the genesis factual corpus; its
    /// records are planted as graph roots on every (re)build.
    pub fn new(seed: Vec<FactRecord>, admission_addr: Address, threshold: usize) -> Self {
        let mut p = SupplyChainProjection {
            seed,
            graph: SupplyChainGraph::new(),
            stats: IndexStats::default(),
            ledger: AdmissionLedger::new(admission_addr, threshold),
        };
        p.reset();
        p
    }

    /// The derived graph.
    pub fn graph(&self) -> &SupplyChainGraph {
        &self.graph
    }

    /// Indexing statistics over all observed blocks.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    fn plant_root(graph: &mut SupplyChainGraph, rec: &FactRecord) {
        // A duplicate root (record already planted) is harmless.
        graph
            .add_fact_root(rec.id(), &rec.content, &rec.topic, rec.recorded_at)
            .ok();
    }
}

impl BlockObserver for SupplyChainProjection {
    fn name(&self) -> &'static str {
        names::SUPPLY_CHAIN
    }

    fn on_block(&mut self, block: &Block, receipts: &[Receipt]) {
        for (tx, receipt) in block.transactions.iter().zip(receipts) {
            if !receipt.success {
                continue;
            }
            index_transaction(tx, &mut self.graph, &mut self.stats);
            self.ledger.observe(&tx.from, &tx.payload, receipt);
        }
        for rec in self.ledger.evaluate() {
            Self::plant_root(&mut self.graph, &rec);
        }
    }

    fn digest(&self) -> Hash256 {
        let mut data = Vec::new();
        data.extend_from_slice(self.graph.digest().as_bytes());
        for n in [
            self.stats.indexed,
            self.stats.malformed,
            self.stats.rejected,
            self.stats.ignored,
        ] {
            data.extend_from_slice(&(n as u64).to_le_bytes());
        }
        self.ledger.pending_digest_into(&mut data);
        tagged_hash("TN/proj-supplychain", &data)
    }

    fn reset(&mut self) {
        self.graph = SupplyChainGraph::new();
        self.stats = IndexStats::default();
        self.ledger.clear();
        for rec in &self.seed {
            Self::plant_root(&mut self.graph, rec);
        }
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut e = Encoder::new();
        e.put_bytes(&self.graph.to_bytes());
        for n in [
            self.stats.indexed,
            self.stats.malformed,
            self.stats.rejected,
            self.stats.ignored,
        ] {
            e.put_varint(n as u64);
        }
        self.ledger.save_into(&mut e);
        Some(e.finish())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let err = |e: DecodeError| format!("malformed supply-chain checkpoint: {e}");
        let mut dec = Decoder::new(bytes);
        let raw = dec.get_bytes().map_err(err)?;
        let graph = SupplyChainGraph::from_bytes(&raw)?;
        let mut stats = IndexStats::default();
        for field in [
            &mut stats.indexed,
            &mut stats.malformed,
            &mut stats.rejected,
            &mut stats.ignored,
        ] {
            *field = dec.get_varint().map_err(err)? as usize;
        }
        self.ledger.load_from(&mut dec)?;
        dec.expect_end().map_err(err)?;
        self.graph = graph;
        self.stats = stats;
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Rebuilds the verified-identity registry from IDENTITY blobs.
#[derive(Debug, Default)]
pub struct IdentityProjection {
    registry: IdentityRegistry,
}

impl IdentityProjection {
    /// Creates an empty projection.
    pub fn new() -> Self {
        Self::default()
    }

    /// The derived registry.
    pub fn registry(&self) -> &IdentityRegistry {
        &self.registry
    }
}

impl BlockObserver for IdentityProjection {
    fn name(&self) -> &'static str {
        names::IDENTITY
    }

    fn on_block(&mut self, block: &Block, receipts: &[Receipt]) {
        for (tx, receipt) in block.transactions.iter().zip(receipts) {
            if !receipt.success {
                continue;
            }
            if let Payload::Blob { tag, data } = &tx.payload {
                if *tag == blob_tags::IDENTITY {
                    if let Ok(rec) = IdentityRecord::from_bytes(data) {
                        self.registry.register(tx.from, &rec.name, &rec.roles);
                    }
                }
            }
        }
    }

    fn digest(&self) -> Hash256 {
        self.registry.digest()
    }

    fn reset(&mut self) {
        self.registry = IdentityRegistry::new();
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.registry.to_bytes())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.registry = IdentityRegistry::from_bytes(bytes)?;
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Rebuilds the factual database from the genesis corpus plus every
/// record admitted through the on-chain propose/attest pipeline.
#[derive(Debug)]
pub struct FactProjection {
    seed: Vec<FactRecord>,
    db: FactualDatabase,
    ledger: AdmissionLedger,
    /// Records admitted by blocks observed since the last
    /// [`take_newly_admitted`](FactProjection::take_newly_admitted) call.
    /// Deliberately excluded from the digest: it is a delivery buffer for
    /// the driving node, not projection state.
    newly_admitted: Vec<Hash256>,
}

impl FactProjection {
    /// Creates the projection over the genesis corpus `seed`.
    pub fn new(seed: Vec<FactRecord>, admission_addr: Address, threshold: usize) -> Self {
        let mut p = FactProjection {
            seed,
            db: FactualDatabase::new(),
            ledger: AdmissionLedger::new(admission_addr, threshold),
            newly_admitted: Vec::new(),
        };
        p.reset();
        p
    }

    /// The derived factual database.
    pub fn db(&self) -> &FactualDatabase {
        &self.db
    }

    /// The genesis seed corpus this projection was built with.
    pub fn seed(&self) -> &[FactRecord] {
        &self.seed
    }

    /// The attestation threshold.
    pub fn threshold(&self) -> usize {
        self.ledger.threshold
    }

    /// The chain-derived admission ledger.
    pub fn ledger(&self) -> &AdmissionLedger {
        &self.ledger
    }

    /// Drains the records admitted since the last call (the platform uses
    /// this to report admissions and trigger re-anchoring).
    pub fn take_newly_admitted(&mut self) -> Vec<Hash256> {
        std::mem::take(&mut self.newly_admitted)
    }
}

impl BlockObserver for FactProjection {
    fn name(&self) -> &'static str {
        names::FACTDB
    }

    fn on_block(&mut self, block: &Block, receipts: &[Receipt]) {
        for (tx, receipt) in block.transactions.iter().zip(receipts) {
            self.ledger.observe(&tx.from, &tx.payload, receipt);
        }
        for rec in self.ledger.evaluate() {
            let id = rec.id();
            if self.db.append(rec).is_ok() {
                self.newly_admitted.push(id);
            }
        }
    }

    fn digest(&self) -> Hash256 {
        let mut data = Vec::new();
        data.extend_from_slice(self.db.root().as_bytes());
        data.extend_from_slice(&(self.db.len() as u64).to_le_bytes());
        self.ledger.pending_digest_into(&mut data);
        tagged_hash("TN/proj-factdb", &data)
    }

    fn reset(&mut self) {
        self.db = FactualDatabase::new();
        self.ledger.clear();
        self.newly_admitted.clear();
        for rec in &self.seed {
            self.db
                .append(rec.clone())
                .expect("seed corpus records are unique");
        }
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        // The database is fully reconstructible from its append-ordered
        // record log, so that is all the checkpoint carries for it.
        let mut e = Encoder::new();
        e.put_varint(self.db.len() as u64);
        for rec in self.db.iter() {
            e.put_bytes(&rec.to_bytes());
        }
        self.ledger.save_into(&mut e);
        e.put_varint(self.newly_admitted.len() as u64);
        for id in &self.newly_admitted {
            e.put_hash(id);
        }
        Some(e.finish())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let err = |e: DecodeError| format!("malformed factdb checkpoint: {e}");
        let mut dec = Decoder::new(bytes);
        let n = dec.get_varint().map_err(err)?;
        let mut db = FactualDatabase::new();
        for _ in 0..n {
            let raw = dec.get_bytes().map_err(err)?;
            let rec =
                FactRecord::from_bytes(&raw).map_err(|e| format!("malformed fact record: {e}"))?;
            db.append(rec)
                .map_err(|e| format!("fact record replay rejected: {e}"))?;
        }
        let mut ledger = self.ledger.clone();
        ledger.load_from(&mut dec)?;
        let m = dec.get_varint().map_err(err)?;
        let mut newly_admitted = Vec::with_capacity((m as usize).min(1024));
        for _ in 0..m {
            newly_admitted.push(dec.get_hash().map_err(err)?);
        }
        dec.expect_end().map_err(err)?;
        self.db = db;
        self.ledger = ledger;
        self.newly_admitted = newly_admitted;
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Caches the headline of every news event that carries one, keyed by
/// item id — the input to headline/body stance analysis.
#[derive(Debug, Default)]
pub struct HeadlineProjection {
    headlines: HashMap<Hash256, String>,
}

impl HeadlineProjection {
    /// Creates an empty projection.
    pub fn new() -> Self {
        Self::default()
    }

    /// The headline recorded for `item`, if any.
    pub fn headline(&self, item: &Hash256) -> Option<&str> {
        self.headlines.get(item).map(String::as_str)
    }

    /// Number of cached headlines.
    pub fn len(&self) -> usize {
        self.headlines.len()
    }

    /// True when no headlines are cached.
    pub fn is_empty(&self) -> bool {
        self.headlines.is_empty()
    }
}

impl BlockObserver for HeadlineProjection {
    fn name(&self) -> &'static str {
        names::HEADLINES
    }

    fn on_block(&mut self, block: &Block, receipts: &[Receipt]) {
        for (tx, receipt) in block.transactions.iter().zip(receipts) {
            if !receipt.success {
                continue;
            }
            if let Some(Ok(event)) = NewsEvent::from_payload(&tx.payload) {
                if !event.headline.is_empty() {
                    let id = tn_supplychain::graph::item_id(
                        &tx.from,
                        &event.content,
                        event.published_at,
                    );
                    self.headlines.insert(id, event.headline);
                }
            }
        }
    }

    fn digest(&self) -> Hash256 {
        let mut entries: Vec<_> = self.headlines.iter().collect();
        entries.sort_by_key(|(id, _)| **id);
        let mut data = Vec::new();
        for (id, headline) in entries {
            data.extend_from_slice(id.as_bytes());
            data.extend_from_slice(&(headline.len() as u64).to_le_bytes());
            data.extend_from_slice(headline.as_bytes());
        }
        tagged_hash("TN/proj-headlines", &data)
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut entries: Vec<_> = self.headlines.iter().collect();
        entries.sort_by_key(|(id, _)| **id);
        let mut e = Encoder::new();
        e.put_varint(entries.len() as u64);
        for (id, headline) in entries {
            e.put_hash(id).put_str(headline);
        }
        Some(e.finish())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let err = |e: DecodeError| format!("malformed headline checkpoint: {e}");
        let mut dec = Decoder::new(bytes);
        let n = dec.get_varint().map_err(err)?;
        let mut headlines = HashMap::new();
        for _ in 0..n {
            let id = dec.get_hash().map_err(err)?;
            headlines.insert(id, dec.get_str().map_err(err)?);
        }
        dec.expect_end().map_err(err)?;
        self.headlines = headlines;
        Ok(())
    }

    fn reset(&mut self) {
        self.headlines.clear();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_chain::codec::Encodable;
    use tn_chain::prelude::*;
    use tn_crypto::Keypair;
    use tn_factdb::record::SourceKind;

    fn record(n: u64) -> FactRecord {
        FactRecord {
            source: SourceKind::VerifiedNews,
            speaker: format!("Speaker {n}"),
            topic: "energy".into(),
            content: format!("Statement number {n} was made on the record."),
            recorded_at: n,
        }
    }

    #[test]
    fn admission_ledger_admits_at_threshold_in_id_order() {
        let addr = Keypair::from_seed(b"admission").address();
        let mut ledger = AdmissionLedger::new(addr, 2);
        let (r1, r2) = (record(1), record(2));
        let (id1, id2) = (r1.id(), r2.id());
        let ok = Receipt {
            tx_id: Hash256::ZERO,
            success: true,
            gas_used: 0,
            output: Vec::new(),
            error: None,
        };

        for rec in [&r1, &r2] {
            ledger.observe(
                &Address::SYSTEM,
                &Payload::Blob {
                    tag: blob_tags::FACT_PROPOSE,
                    data: rec.to_bytes(),
                },
                &ok,
            );
        }
        assert!(ledger.is_candidate(&id1) && ledger.is_candidate(&id2));
        assert!(ledger.evaluate().is_empty(), "no attestations yet");

        let attest = |id: &Hash256| {
            let input = tn_contracts::builtin::admission_attest(id);
            Payload::ContractCall {
                contract: addr,
                input,
                gas_limit: 10_000,
            }
        };
        let c1 = Keypair::from_seed(b"c1").address();
        let c2 = Keypair::from_seed(b"c2").address();
        for id in [&id1, &id2] {
            ledger.observe(&c1, &attest(id), &ok);
            ledger.observe(&c2, &attest(id), &ok);
        }
        let admitted = ledger.evaluate();
        let mut expected = [(id1, r1), (id2, r2)];
        expected.sort_by_key(|(id, _)| *id);
        assert_eq!(
            admitted.iter().map(FactRecord::id).collect::<Vec<_>>(),
            expected.iter().map(|(id, _)| *id).collect::<Vec<_>>()
        );
        assert!(ledger.evaluate().is_empty(), "admission is one-shot");
    }

    #[test]
    fn admission_ledger_ignores_failed_receipts() {
        let addr = Keypair::from_seed(b"admission").address();
        let mut ledger = AdmissionLedger::new(addr, 1);
        let failed = Receipt {
            tx_id: Hash256::ZERO,
            success: false,
            gas_used: 0,
            output: Vec::new(),
            error: Some("not a checker".into()),
        };
        let input = tn_contracts::builtin::admission_attest(&record(1).id());
        ledger.observe(
            &Address::SYSTEM,
            &Payload::ContractCall {
                contract: addr,
                input,
                gas_limit: 10_000,
            },
            &failed,
        );
        assert_eq!(ledger.attestation_count(&record(1).id()), 0);
    }

    #[test]
    fn projections_replay_to_identical_digests() {
        // Build a small chain carrying one of every observed payload kind,
        // then check that feeding it twice produces identical digests.
        let author = Keypair::from_seed(b"author");
        let validator = Keypair::from_seed(b"validator");
        let admission_addr = Keypair::from_seed(b"admission").address();
        let genesis = State::genesis([(author.address(), 10_000)]);
        let mut store = ChainStore::new(genesis, &validator);

        let identity = IdentityRecord {
            name: "Jane".into(),
            roles: vec![crate::roles::Role::ContentCreator],
        };
        let event = tn_supplychain::index::NewsEvent {
            headline: "A headline".into(),
            content: "Original story text.".into(),
            topic: "energy".into(),
            room: 1,
            parents: vec![],
            published_at: 1,
        };
        let txs = vec![
            Transaction::signed(
                &author,
                0,
                1,
                Payload::Blob {
                    tag: blob_tags::IDENTITY,
                    data: identity.to_bytes(),
                },
            ),
            Transaction::signed(&author, 1, 1, event.into_payload()),
            Transaction::signed(
                &author,
                2,
                1,
                Payload::Blob {
                    tag: blob_tags::FACT_PROPOSE,
                    data: record(9).to_bytes(),
                },
            ),
        ];
        let block = store.propose(&validator, 1, txs, &mut NoExecutor);
        store.import(&block, &mut NoExecutor).unwrap();

        let seed = vec![record(100), record(101)];
        let fresh = || -> Vec<Box<dyn BlockObserver>> {
            vec![
                Box::new(SupplyChainProjection::new(seed.clone(), admission_addr, 2)),
                Box::new(IdentityProjection::new()),
                Box::new(FactProjection::new(seed.clone(), admission_addr, 2)),
                Box::new(HeadlineProjection::new()),
            ]
        };
        let mut a = fresh();
        let mut b = fresh();
        store.replay_into(&mut a);
        store.replay_into(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.digest(), y.digest(), "projection {}", x.name());
        }
        // The projections actually saw the data.
        let sc = a[0]
            .as_any()
            .downcast_ref::<SupplyChainProjection>()
            .unwrap();
        assert_eq!(sc.stats().indexed, 1);
        assert_eq!(sc.graph().root_count(), 2);
        let idp = a[1].as_any().downcast_ref::<IdentityProjection>().unwrap();
        assert!(idp.registry().is_verified(&author.address()));
        let fp = a[2].as_any().downcast_ref::<FactProjection>().unwrap();
        assert!(fp.ledger().is_candidate(&record(9).id()));
        let hp = a[3].as_any().downcast_ref::<HeadlineProjection>().unwrap();
        assert_eq!(hp.len(), 1);
    }

    #[test]
    fn projection_checkpoints_round_trip() {
        // Drive every projection with real payloads, checkpoint each one,
        // load the bytes into a fresh instance, and require digest
        // equality — the property the storage-recovery path depends on.
        let author = Keypair::from_seed(b"author");
        let validator = Keypair::from_seed(b"validator");
        let admission_addr = Keypair::from_seed(b"admission").address();
        let genesis = State::genesis([(author.address(), 10_000)]);
        let mut store = ChainStore::new(genesis, &validator);

        let identity = IdentityRecord {
            name: "Jane".into(),
            roles: vec![crate::roles::Role::ContentCreator],
        };
        let event = tn_supplychain::index::NewsEvent {
            headline: "A headline".into(),
            content: "Original story text.".into(),
            topic: "energy".into(),
            room: 1,
            parents: vec![],
            published_at: 1,
        };
        let txs = vec![
            Transaction::signed(
                &author,
                0,
                1,
                Payload::Blob {
                    tag: blob_tags::IDENTITY,
                    data: identity.to_bytes(),
                },
            ),
            Transaction::signed(&author, 1, 1, event.into_payload()),
            Transaction::signed(
                &author,
                2,
                1,
                Payload::Blob {
                    tag: blob_tags::FACT_PROPOSE,
                    data: record(9).to_bytes(),
                },
            ),
        ];
        let block = store.propose(&validator, 1, txs, &mut NoExecutor);
        store.import(&block, &mut NoExecutor).unwrap();

        let seed = vec![record(100), record(101)];
        let fresh = || -> Vec<Box<dyn BlockObserver>> {
            vec![
                Box::new(SupplyChainProjection::new(seed.clone(), admission_addr, 2)),
                Box::new(IdentityProjection::new()),
                Box::new(FactProjection::new(seed.clone(), admission_addr, 2)),
                Box::new(HeadlineProjection::new()),
            ]
        };
        let mut live = fresh();
        store.replay_into(&mut live);
        let mut restored = fresh();
        for (src, dst) in live.iter().zip(restored.iter_mut()) {
            let bytes = src.save_state().expect("projections support checkpoints");
            dst.load_state(&bytes).expect("load succeeds");
            assert_eq!(src.digest(), dst.digest(), "projection {}", src.name());
            // A second save of the restored state is byte-identical.
            assert_eq!(dst.save_state().unwrap(), bytes, "{}", src.name());
            // Trailing garbage is rejected, not silently ignored.
            let mut bad = bytes.clone();
            bad.push(0xFF);
            assert!(dst.load_state(&bad).is_err(), "{}", src.name());
        }
    }
}
