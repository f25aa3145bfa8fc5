//! The platform's four projections: what is derived from canonical block
//! history, as one typed value.
//!
//! [`Projections`] holds the supply-chain graph (with its indexing
//! statistics), the identity registry, the factual database and the
//! headline cache — the four [`View`]s — plus the two things more than
//! one of them needs: the genesis seed corpus (roots of the graph, first
//! records of the database) and the [`AdmissionLedger`] that decides when
//! a proposed fact has been attested often enough (the record then enters
//! graph and database in the same block). It is a pure function of the
//! `(block, receipts)` sequence it was [`apply`](Projections::apply)ed
//! to, so:
//!
//! - a replay from genesis rebuilds every view bit-for-bit
//!   ([`Projections::replay`], the audit and reorg path);
//! - every replica of an N-validator network that commits the same blocks
//!   reports the same digests (the consensus path — see `tn-node`).
//!
//! Each view keeps a digest and a checkpoint blob of its own, under its
//! own name, so replicas can say *which* view diverged and a checkpoint
//! reader finds each by name. The ledger's pending state is part of the
//! graph's and the database's digest and blob alike: both depend on it.
//!
//! The pipeline ([`crate::pipeline`]) owns the one live value and is the
//! only thing that feeds it; reads are plain field access.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use tn_chain::codec::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use tn_chain::{blob_tags, Block, ChainError, ChainStore, Payload, Receipt};
use tn_crypto::sha256::tagged_hash;
use tn_crypto::{Address, Hash256};
use tn_factdb::db::FactualDatabase;
use tn_factdb::record::FactRecord;
use tn_supplychain::graph::{item_id, SupplyChainGraph};
use tn_supplychain::index::{index_transaction, IndexStats, NewsEvent};

use crate::roles::{IdentityRecord, IdentityRegistry};

/// One of the four views [`Projections`] derives, in the order their
/// digests and checkpoint blobs are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// The news supply-chain graph and its indexing statistics.
    SupplyChain,
    /// The verified-identity registry.
    Identity,
    /// The factual database: seed corpus plus admitted records.
    FactDb,
    /// Headlines by item id.
    Headlines,
}

impl View {
    /// Every view, in reporting order.
    pub const ALL: [View; 4] = [
        View::SupplyChain,
        View::Identity,
        View::FactDb,
        View::Headlines,
    ];

    /// The view's stable name: in digest reports, as checkpoint-extension
    /// key, in `chain.projection.<name>.apply_ns` and `projection.<name>`.
    pub const fn name(self) -> &'static str {
        match self {
            View::SupplyChain => "supplychain",
            View::Identity => "identity",
            View::FactDb => "factdb",
            View::Headlines => "headlines",
        }
    }
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
        ready
            .into_iter()
            .filter_map(|id| {
                let record = self.candidates.remove(&id)?;
                self.admitted.insert(id);
                Some(record)
            })
            .collect()
    }

    /// Hash input of the pending candidate/attester state (admitted
    /// records are digested by the views that took them in).
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
    /// configuration, re-supplied by whoever rebuilds the projections, so
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

    /// A ledger of this one's configuration holding the sets
    /// [`save_into`](AdmissionLedger::save_into) wrote.
    fn decode_saved(&self, dec: &mut Decoder<'_>) -> Result<AdmissionLedger, String> {
        let err = |e: DecodeError| format!("malformed admission ledger: {e}");
        let mut ledger = AdmissionLedger {
            candidates: BTreeMap::new(),
            attesters: BTreeMap::new(),
            admitted: BTreeSet::new(),
            ..*self
        };
        let n = dec.get_varint().map_err(err)?;
        for _ in 0..n {
            let raw = dec.get_bytes().map_err(err)?;
            let rec = FactRecord::from_bytes(&raw)
                .map_err(|e| format!("malformed candidate record: {e}"))?;
            ledger.candidates.insert(rec.id(), rec);
        }
        let n = dec.get_varint().map_err(err)?;
        for _ in 0..n {
            let id = dec.get_hash().map_err(err)?;
            let m = dec.get_varint().map_err(err)?;
            let mut who = BTreeSet::new();
            for _ in 0..m {
                who.insert(Address::from_hash(dec.get_hash().map_err(err)?));
            }
            ledger.attesters.insert(id, who);
        }
        let n = dec.get_varint().map_err(err)?;
        for _ in 0..n {
            ledger.admitted.insert(dec.get_hash().map_err(err)?);
        }
        Ok(ledger)
    }
}

/// Everything the platform derives from canonical block history.
#[derive(Debug)]
pub struct Projections {
    /// The genesis factual corpus, planted on every (re)build.
    seed: Vec<FactRecord>,
    ledger: AdmissionLedger,
    graph: SupplyChainGraph,
    stats: IndexStats,
    identities: IdentityRegistry,
    factdb: FactualDatabase,
    /// Records admitted by blocks applied since the last
    /// [`take_newly_admitted`](Projections::take_newly_admitted) call.
    /// Deliberately excluded from every digest: it is a delivery buffer
    /// for the driving node, not derived state.
    newly_admitted: Vec<Hash256>,
    headlines: HashMap<Hash256, String>,
}

impl Projections {
    /// The genesis state: `seed` planted as graph roots and as the
    /// database's first records, nothing proposed or attested. Facts
    /// attested by `threshold` distinct callers of the contract at
    /// `admission_addr` are admitted.
    pub fn new(seed: Vec<FactRecord>, admission_addr: Address, threshold: usize) -> Self {
        let mut p = Projections {
            seed: Vec::new(),
            ledger: AdmissionLedger::new(admission_addr, threshold),
            graph: SupplyChainGraph::new(),
            stats: IndexStats::default(),
            identities: IdentityRegistry::new(),
            factdb: FactualDatabase::new(),
            newly_admitted: Vec::new(),
            headlines: HashMap::new(),
        };
        for rec in &seed {
            p.admit(rec.clone());
        }
        p.seed = seed;
        p
    }

    /// A genesis-state value of the same construction parameters.
    pub fn fresh(&self) -> Projections {
        Projections::new(
            self.seed.clone(),
            self.ledger.admission_addr,
            self.ledger.threshold,
        )
    }

    /// Takes `rec` in as a fact: a root of the graph, a record of the
    /// database. One the corpus or the chain names twice enters once.
    fn admit(&mut self, rec: FactRecord) -> bool {
        self.graph
            .add_fact_root(rec.id(), &rec.content, &rec.topic, rec.recorded_at)
            .ok();
        self.factdb.append(rec).is_ok()
    }

    /// Consumes the next canonical block and its execution receipts
    /// (`receipts[i]` belongs to `block.transactions[i]`).
    pub fn apply(&mut self, block: &Block, receipts: &[Receipt]) {
        for view in View::ALL {
            self.apply_view(view, block, receipts);
        }
    }

    /// `view`'s share of [`apply`](Projections::apply), for whoever times
    /// the views apart; a block is applied once all four, in order, ran.
    pub(crate) fn apply_view(&mut self, view: View, block: &Block, receipts: &[Receipt]) {
        let committed = || block.transactions.iter().zip(receipts);
        let succeeded = committed().filter_map(|(tx, r)| r.success.then_some(tx));
        match view {
            View::SupplyChain => {
                for tx in succeeded {
                    index_transaction(tx, &mut self.graph, &mut self.stats);
                }
            }
            View::Identity => {
                for tx in succeeded {
                    if let Payload::Blob { tag, data } = &tx.payload {
                        if *tag == blob_tags::IDENTITY {
                            if let Ok(rec) = IdentityRecord::from_bytes(data) {
                                self.identities.register(tx.from, &rec.name, &rec.roles);
                            }
                        }
                    }
                }
            }
            View::FactDb => {
                for (tx, receipt) in committed() {
                    self.ledger.observe(&tx.from, &tx.payload, receipt);
                }
                for rec in self.ledger.evaluate() {
                    let id = rec.id();
                    if self.admit(rec) {
                        self.newly_admitted.push(id);
                    }
                }
            }
            View::Headlines => {
                for tx in succeeded {
                    if let Some(Ok(event)) = NewsEvent::from_payload(&tx.payload) {
                        if !event.headline.is_empty() {
                            let id = item_id(&tx.from, &event.content, event.published_at);
                            self.headlines.insert(id, event.headline);
                        }
                    }
                }
            }
        }
    }

    /// Starts over from the genesis state and applies `store`'s canonical
    /// chain, genesis first; returns the number of blocks applied. On a
    /// fresh value this is the ledger-replay audit, on the live one the
    /// rebuild after a reorg.
    ///
    /// # Errors
    ///
    /// When canonical history cannot be read back (the disk is corrupt).
    pub fn replay(&mut self, store: &ChainStore) -> Result<u64, ChainError> {
        *self = self.fresh();
        let mut blocks = 0;
        store.for_each_canonical(&mut |block, receipts| {
            self.apply(block, receipts);
            blocks += 1;
        })?;
        Ok(blocks)
    }

    // --- digests and checkpoints -----------------------------------------

    /// `(name, digest)` of every view, in [`View::ALL`] order.
    pub fn digests(&self) -> Vec<(&'static str, Hash256)> {
        View::ALL
            .iter()
            .map(|&view| (view.name(), self.digest(view)))
            .collect()
    }

    /// A hash of everything `view` holds.
    fn digest(&self, view: View) -> Hash256 {
        let mut data = Vec::new();
        match view {
            View::SupplyChain => {
                data.extend_from_slice(self.graph.digest().as_bytes());
                for n in stat_fields(&self.stats) {
                    data.extend_from_slice(&(n as u64).to_le_bytes());
                }
                self.ledger.pending_digest_into(&mut data);
                tagged_hash("TN/proj-supplychain", &data)
            }
            View::Identity => self.identities.digest(),
            View::FactDb => {
                data.extend_from_slice(self.factdb.root().as_bytes());
                data.extend_from_slice(&(self.factdb.len() as u64).to_le_bytes());
                self.ledger.pending_digest_into(&mut data);
                tagged_hash("TN/proj-factdb", &data)
            }
            View::Headlines => {
                for (id, headline) in self.sorted_headlines() {
                    data.extend_from_slice(id.as_bytes());
                    data.extend_from_slice(&(headline.len() as u64).to_le_bytes());
                    data.extend_from_slice(headline.as_bytes());
                }
                tagged_hash("TN/proj-headlines", &data)
            }
        }
    }

    fn sorted_headlines(&self) -> Vec<(&Hash256, &String)> {
        let mut entries: Vec<_> = self.headlines.iter().collect();
        entries.sort_by_key(|(id, _)| **id);
        entries
    }

    /// The checkpoint extensions: every view's saved state under its
    /// name, in [`View::ALL`] order.
    pub fn save(&self) -> Vec<(String, Vec<u8>)> {
        View::ALL
            .iter()
            .map(|&view| (view.name().to_string(), self.save_view(view)))
            .collect()
    }

    fn save_view(&self, view: View) -> Vec<u8> {
        let mut e = Encoder::new();
        match view {
            View::SupplyChain => {
                e.put_bytes(&self.graph.to_bytes());
                for n in stat_fields(&self.stats) {
                    e.put_varint(n as u64);
                }
                self.ledger.save_into(&mut e);
            }
            View::Identity => return self.identities.to_bytes(),
            View::FactDb => {
                // The database is fully reconstructible from its
                // append-ordered record log, so that is all the
                // checkpoint carries for it.
                e.put_varint(self.factdb.len() as u64);
                for rec in self.factdb.iter() {
                    e.put_bytes(&rec.to_bytes());
                }
                self.ledger.save_into(&mut e);
                e.put_varint(self.newly_admitted.len() as u64);
                for id in &self.newly_admitted {
                    e.put_hash(id);
                }
            }
            View::Headlines => {
                let entries = self.sorted_headlines();
                e.put_varint(entries.len() as u64);
                for (id, headline) in entries {
                    e.put_hash(id).put_str(headline);
                }
            }
        }
        e.finish()
    }

    /// Replaces all four views with the state [`save`](Projections::save)
    /// wrote, found by name among `saved` (a checkpoint's extensions).
    /// Nothing changes unless every blob is there and decodes in full.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed blob.
    pub fn load(&mut self, saved: &[(String, Vec<u8>)]) -> Result<(), String> {
        let blob = |view: View| {
            let found = saved.iter().find(|(name, _)| name == view.name());
            found
                .map(|(_, bytes)| bytes.as_slice())
                .ok_or_else(|| format!("checkpoint missing projection '{}'", view.name()))
        };

        let err = |e: DecodeError| format!("malformed supply-chain checkpoint: {e}");
        let mut dec = Decoder::new(blob(View::SupplyChain)?);
        let graph = SupplyChainGraph::from_bytes(&dec.get_bytes().map_err(err)?)?;
        let mut stats = IndexStats::default();
        for field in [
            &mut stats.indexed,
            &mut stats.malformed,
            &mut stats.rejected,
            &mut stats.ignored,
        ] {
            *field = dec.get_varint().map_err(err)? as usize;
        }
        let ledger = self.ledger.decode_saved(&mut dec)?;
        dec.expect_end().map_err(err)?;

        let identities = IdentityRegistry::from_bytes(blob(View::Identity)?)?;

        let err = |e: DecodeError| format!("malformed factdb checkpoint: {e}");
        let mut dec = Decoder::new(blob(View::FactDb)?);
        let mut factdb = FactualDatabase::new();
        for _ in 0..dec.get_varint().map_err(err)? {
            let raw = dec.get_bytes().map_err(err)?;
            let rec =
                FactRecord::from_bytes(&raw).map_err(|e| format!("malformed fact record: {e}"))?;
            factdb
                .append(rec)
                .map_err(|e| format!("fact record replay rejected: {e}"))?;
        }
        // Graph and database were saved beside the one ledger both depend
        // on; two blobs that disagree about it were not written together.
        if self.ledger.decode_saved(&mut dec)? != ledger {
            return Err("checkpoint blobs disagree on the admission ledger".into());
        }
        let m = dec.get_varint().map_err(err)?;
        let mut newly_admitted = Vec::with_capacity((m as usize).min(1024));
        for _ in 0..m {
            newly_admitted.push(dec.get_hash().map_err(err)?);
        }
        dec.expect_end().map_err(err)?;

        let err = |e: DecodeError| format!("malformed headline checkpoint: {e}");
        let mut dec = Decoder::new(blob(View::Headlines)?);
        let mut headlines = HashMap::new();
        for _ in 0..dec.get_varint().map_err(err)? {
            let id = dec.get_hash().map_err(err)?;
            headlines.insert(id, dec.get_str().map_err(err)?);
        }
        dec.expect_end().map_err(err)?;

        self.ledger = ledger;
        self.graph = graph;
        self.stats = stats;
        self.identities = identities;
        self.factdb = factdb;
        self.newly_admitted = newly_admitted;
        self.headlines = headlines;
        Ok(())
    }

    // --- reads -----------------------------------------------------------

    /// The supply-chain graph.
    pub fn graph(&self) -> &SupplyChainGraph {
        &self.graph
    }

    /// Indexing statistics over all applied blocks.
    pub fn index_stats(&self) -> &IndexStats {
        &self.stats
    }

    /// The verified-identity registry.
    pub fn identities(&self) -> &IdentityRegistry {
        &self.identities
    }

    /// The factual database.
    pub fn factdb(&self) -> &FactualDatabase {
        &self.factdb
    }

    /// The chain-derived admission ledger (candidate queries).
    pub fn ledger(&self) -> &AdmissionLedger {
        &self.ledger
    }

    /// The headline recorded on-chain for `item`, if any.
    pub fn headline(&self, item: &Hash256) -> Option<&str> {
        self.headlines.get(item).map(String::as_str)
    }

    /// Drains the records admitted since the last call (the platform uses
    /// this to report admissions and trigger re-anchoring).
    pub fn take_newly_admitted(&mut self) -> Vec<Hash256> {
        std::mem::take(&mut self.newly_admitted)
    }
}

/// The statistics in the order digest and checkpoint carry them.
fn stat_fields(stats: &IndexStats) -> [usize; 4] {
    [
        stats.indexed,
        stats.malformed,
        stats.rejected,
        stats.ignored,
    ]
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

    fn receipt(success: bool) -> Receipt {
        Receipt {
            tx_id: Hash256::ZERO,
            success,
            gas_used: 0,
            output: Vec::new(),
            error: None,
        }
    }

    #[test]
    fn admission_ledger_admits_at_threshold_in_id_order() {
        let addr = Keypair::from_seed(b"admission").address();
        let mut ledger = AdmissionLedger::new(addr, 2);
        let (r1, r2) = (record(1), record(2));
        let (id1, id2) = (r1.id(), r2.id());
        let ok = receipt(true);

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
        let input = tn_contracts::builtin::admission_attest(&record(1).id());
        ledger.observe(
            &Address::SYSTEM,
            &Payload::ContractCall {
                contract: addr,
                input,
                gas_limit: 10_000,
            },
            &receipt(false),
        );
        assert_eq!(ledger.attestation_count(&record(1).id()), 0);
    }

    /// A one-block chain carrying one of every payload kind a view reads
    /// (identity, headline-bearing story, fact proposal), its author, and
    /// genesis projections over a two-record seed corpus.
    fn observed_chain() -> (ChainStore, Keypair, Projections) {
        let author = Keypair::from_seed(b"author");
        let validator = Keypair::from_seed(b"validator");
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
        let blob = |tag, data| Payload::Blob { tag, data };
        let txs = vec![
            Transaction::signed(
                &author,
                0,
                1,
                blob(blob_tags::IDENTITY, identity.to_bytes()),
            ),
            Transaction::signed(&author, 1, 1, event.into_payload()),
            Transaction::signed(
                &author,
                2,
                1,
                blob(blob_tags::FACT_PROPOSE, record(9).to_bytes()),
            ),
        ];
        store
            .commit(&validator, 1, txs, &mut NoExecutor)
            .expect("commits");
        let admission_addr = Keypair::from_seed(b"admission").address();
        let fresh = Projections::new(vec![record(100), record(101)], admission_addr, 2);
        (store, author, fresh)
    }

    #[test]
    fn projections_replay_to_identical_digests() {
        let (store, author, mut a) = observed_chain();
        let mut b = a.fresh();
        assert_eq!(a.replay(&store), Ok(2), "genesis and the block");
        b.replay(&store).expect("replays");
        assert_eq!(a.digests(), b.digests());
        let names: Vec<&str> = a.digests().iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["supplychain", "identity", "factdb", "headlines"]);
        // The views actually saw the data.
        assert_eq!(a.index_stats().indexed, 1);
        assert_eq!(a.graph().root_count(), 2);
        assert_eq!(a.factdb().len(), 2);
        assert!(a.identities().is_verified(&author.address()));
        assert!(a.ledger().is_candidate(&record(9).id()));
        let story = item_id(&author.address(), "Original story text.", 1);
        assert_eq!(a.headline(&story), Some("A headline"));
        // A second replay starts over: nothing is counted twice.
        a.replay(&store).expect("replays");
        assert_eq!(a.digests(), b.digests());
        assert_ne!(a.digests(), a.fresh().digests());
    }

    #[test]
    fn projection_checkpoints_round_trip() {
        // Drive every view with real payloads, checkpoint, load the blobs
        // into a fresh value, and require digest equality — the property
        // the storage-recovery path depends on.
        let (store, _, mut live) = observed_chain();
        live.replay(&store).expect("replays");
        let saved = live.save();
        let mut restored = live.fresh();
        restored.load(&saved).expect("load succeeds");
        assert_eq!(restored.digests(), live.digests());
        // A second save of the restored state is byte-identical.
        assert_eq!(restored.save(), saved);

        let genesis = live.fresh().digests();
        let mut untouched = live.fresh();
        for i in 0..saved.len() {
            // Trailing garbage is rejected, not silently ignored …
            let mut bad = saved.clone();
            bad[i].1.push(0xFF);
            assert!(untouched.load(&bad).is_err(), "{}", saved[i].0);
            // … and so is a checkpoint that lacks a view.
            let mut short = saved.clone();
            short.remove(i);
            assert!(untouched.load(&short).is_err(), "{}", saved[i].0);
        }
        // Graph and database blobs written at different heights carry
        // different ledgers: not one checkpoint.
        let mut mixed = saved.clone();
        mixed[2].1 = live.fresh().save().swap_remove(2).1;
        assert_eq!(
            untouched.load(&mixed),
            Err("checkpoint blobs disagree on the admission ledger".into())
        );
        assert_eq!(
            untouched.digests(),
            genesis,
            "a refused load changes nothing"
        );
    }
}
