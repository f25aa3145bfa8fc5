//! The AI blockchain trusting-news platform (Figure 1).
//!
//! [`Platform`] is a thin facade over the layered block-execution
//! pipeline: it holds the governor/validator keys and the AI detector,
//! signs each request at the sender's next nonce, and drives an
//! [`ExecutionPipeline`] — the single-node core that owns the mempool and
//! the block clock, and in which the chain store executes blocks and
//! notifies the four registered projections (supply-chain graph, identity
//! registry, factual database, headline cache). All state mutations flow
//! through signed transactions and block production — the platform never
//! mutates derived state out-of-band, so the ledger remains the complete
//! audit trail the paper's accountability story requires, and
//! [`Platform::verify_replay`] can prove it by rebuilding every
//! projection from genesis. (Consensus itself lives in `tn-consensus` and
//! is wired to the same pipeline by `tn-node`; here a single validator
//! produces blocks, which is faithful to a one-node deployment of the
//! permissioned network.)

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use tn_aidetect::ensemble::EnsembleDetector;
use tn_chain::codec::Encodable;
use tn_chain::prelude::*;
use tn_contracts::builtin::{
    admission_attest, admission_register_checker, newsroom_authorize, newsroom_create_room,
    newsroom_register_platform, newsroom_revoke, ranking_submit, IncentiveContract,
    NewsroomRegistry, RankingContract,
};
use tn_crypto::{Address, Hash256, Keypair};
use tn_factdb::corpus::CorpusConfig;
use tn_factdb::db::FactualDatabase;
use tn_factdb::record::FactRecord;
use tn_storage::StorageConfig;
use tn_supplychain::graph::{SupplyChainGraph, TraceResult};
use tn_supplychain::index::{IndexStats, NewsEvent};
use tn_supplychain::ops::PropagationOp;
use tn_supplychain::ranking::summary_score;

use crate::pipeline::ExecutionPipeline;
use crate::roles::{IdentityRecord, IdentityRegistry, Role};

/// Platform-level errors.
#[derive(Debug)]
pub enum PlatformError {
    /// Underlying chain rejection.
    Chain(ChainError),
    /// Supply-chain graph rejection.
    Graph(tn_supplychain::graph::GraphError),
    /// Contract-call failure.
    Contract(String),
    /// Caller lacks a required role or authorization.
    NotAuthorized(String),
    /// The account is not a verified identity.
    NotVerified(Address),
    /// Unknown news item.
    UnknownItem(Hash256),
    /// The mempool rejected a platform-built transaction.
    Mempool(ChainError),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Chain(e) => write!(f, "chain error: {e}"),
            PlatformError::Graph(e) => write!(f, "graph error: {e}"),
            PlatformError::Contract(e) => write!(f, "contract error: {e}"),
            PlatformError::NotAuthorized(e) => write!(f, "not authorized: {e}"),
            PlatformError::NotVerified(a) => write!(f, "account {} not verified", a.short()),
            PlatformError::UnknownItem(h) => write!(f, "unknown news item {}", h.short()),
            PlatformError::Mempool(e) => write!(f, "mempool rejection: {e}"),
        }
    }
}

impl Error for PlatformError {}

impl From<ChainError> for PlatformError {
    fn from(e: ChainError) -> Self {
        PlatformError::Chain(e)
    }
}

impl From<tn_supplychain::graph::GraphError> for PlatformError {
    fn from(e: tn_supplychain::graph::GraphError) -> Self {
        PlatformError::Graph(e)
    }
}

/// How the three ranking signals combine (§VI): provenance weighs as
/// much as the AI detector and the crowd together. The weights sum to 1.
const TRACE_WEIGHT: f64 = 0.5;
/// AI-detector weight (see [`TRACE_WEIGHT`]).
const AI_WEIGHT: f64 = 0.25;
/// Crowd-rating weight (see [`TRACE_WEIGHT`]).
const CROWD_WEIGHT: f64 = 0.25;

/// Front-door gateway parameters: admission rate limiting, bounded
/// ingress queueing, and batched mempool ingest.
///
/// The struct itself is plain data — `tn-gateway` validates it at
/// construction (a zero-capacity queue or zero-size ingest batch is a
/// typed configuration error there, never a silent stall; `workers == 0`
/// is clamped to one lane). It lives here so a single
/// [`PlatformConfig`] describes a complete front-door deployment and can
/// be threaded through bootstrap alongside storage and verify settings.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Ingress lanes (bounded queues) the gateway shards clients across.
    /// `0` is clamped to one lane at gateway construction.
    pub workers: usize,
    /// Capacity of each ingress lane in transactions. Zero is rejected at
    /// gateway construction: an unfillable queue would shed everything.
    pub queue_capacity: usize,
    /// Token-bucket sustained admission rate per client, in requests per
    /// second. Zero disables rate limiting (admission is queue-bounded
    /// only).
    pub rate_per_client: u64,
    /// Token-bucket burst depth per client, in requests. Clamped up to at
    /// least one whenever rate limiting is enabled.
    pub burst_per_client: u64,
    /// Maximum transactions moved per mempool-ingest call when a lane
    /// drains. Zero is rejected at gateway construction: a zero-size
    /// batch would never drain an admitted transaction.
    pub ingest_batch: usize,
    /// Mempool-occupancy watermark that pauses lane draining: while the
    /// node's mempool holds at least this many transactions, admitted
    /// work waits in the bounded ingress lanes instead of growing the
    /// mempool without bound (so overload sheds at the door, visibly).
    /// Zero disables the gate.
    pub mempool_watermark: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 4,
            queue_capacity: 4_096,
            rate_per_client: 200,
            burst_per_client: 50,
            ingest_batch: 256,
            mempool_watermark: 8_192,
        }
    }
}

/// Platform construction parameters.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Tokens granted to each newly verified identity.
    pub identity_grant: u64,
    /// Flat fee attached to platform transactions.
    pub fee: u64,
    /// Initial factual corpus.
    pub factdb_seed: CorpusConfig,
    /// Storage-engine configuration: backend selection (in-memory or
    /// on-disk), in-memory retention window, checkpoint cadence and
    /// segment/fsync sizing.
    pub storage: StorageConfig,
    /// Front-door gateway configuration: admission rate limits, ingress
    /// queue bounds, and mempool ingest batching (consumed by
    /// `tn-gateway`).
    pub gateway: GatewayConfig,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            identity_grant: 10_000,
            fee: 1,
            factdb_seed: CorpusConfig {
                size: 50,
                seed: 42,
                start_time: 0,
            },
            storage: StorageConfig::default(),
            gateway: GatewayConfig::default(),
        }
    }
}

/// The combined ranking of one news item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItemRank {
    /// Provenance score in `[0, 1]`.
    pub trace: f64,
    /// AI probability-factual in `[0, 1]` (0.5 when no detector trained).
    pub ai: f64,
    /// Crowd weighted-mean score in `[0, 1]` (0.5 when unrated).
    pub crowd: f64,
    /// Final 0–100 ranking.
    pub rank: f64,
    /// Whether the item traces to the factual database.
    pub reaches_root: bool,
}

/// Summary of one produced block.
#[derive(Debug, Clone)]
pub struct BlockSummary {
    /// Transactions included.
    pub included: usize,
    /// Transactions whose execution failed (still on-chain).
    pub failed: usize,
    /// Fact records admitted to the database in this round.
    pub admitted_facts: Vec<Hash256>,
}

/// The trusting-news platform: a facade over the execution pipeline.
pub struct Platform {
    config: PlatformConfig,
    governor: Keypair,
    validator: Keypair,
    pipeline: ExecutionPipeline,
    detector: Option<EnsembleDetector>,
    /// Fact ids proposed through this platform whose FACT_PROPOSE
    /// transaction may not have committed yet (pre-commit attest
    /// validation only; the authoritative candidate set is the fact
    /// projection's chain-derived ledger).
    pending_proposals: HashSet<Hash256>,
}

impl fmt::Debug for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Platform")
            .field("height", &self.pipeline.store().height())
            .field("factdb", &self.factdb().len())
            .field("graph", &self.graph().len())
            .field("identities", &self.identities().len())
            .field("pending", &self.pipeline.mempool().len())
            .finish()
    }
}

impl Platform {
    /// Boots a platform from the canonical replica bootstrap (shared with
    /// `tn-node` validators): governance accounts, the execution pipeline
    /// (contracts + seeded projections), and the committed factual-DB
    /// anchor block.
    pub fn new(config: PlatformConfig) -> Platform {
        let crate::pipeline::Bootstrap {
            governor,
            validator,
            pipeline,
        } = crate::pipeline::bootstrap(&config);
        Platform {
            config,
            governor,
            validator,
            pipeline,
            detector: None,
            pending_proposals: HashSet::new(),
        }
    }

    // --- accessors -------------------------------------------------------

    /// Current chain height.
    pub fn height(&self) -> u64 {
        self.pipeline.store().height()
    }

    /// The execution pipeline (chain + executor + projections).
    pub fn pipeline(&self) -> &ExecutionPipeline {
        &self.pipeline
    }

    /// The factual database (derived by the fact projection).
    pub fn factdb(&self) -> &FactualDatabase {
        self.pipeline.factdb()
    }

    /// The supply-chain graph (derived by the supply-chain projection).
    pub fn graph(&self) -> &SupplyChainGraph {
        self.pipeline.graph()
    }

    /// The identity registry (derived by the identity projection).
    pub fn identities(&self) -> &IdentityRegistry {
        self.pipeline.identities()
    }

    /// The chain store (read-only).
    pub fn store(&self) -> &ChainStore {
        self.pipeline.store()
    }

    /// Indexing statistics accumulated over all produced blocks.
    pub fn index_stats(&self) -> &IndexStats {
        self.pipeline.index_stats()
    }

    /// The governor account address (contract owner).
    pub fn governor_address(&self) -> Address {
        self.governor.address()
    }

    /// The on-chain anchor for the factual database, if any.
    pub fn anchored_fact_root(&self) -> Option<Hash256> {
        self.pipeline.store().head_state().anchor("factdb")
    }

    /// Per-projection state digests, in registration order.
    pub fn projection_digests(&self) -> Vec<(&'static str, Hash256)> {
        self.pipeline.projection_digests()
    }

    /// One hash over the full replica state (head, world state, contract
    /// storage, projections) — see
    /// [`ExecutionPipeline::execution_digest`].
    pub fn execution_digest(&self) -> Hash256 {
        self.pipeline.execution_digest()
    }

    /// Replays the ledger from genesis into fresh projections and checks
    /// that every digest matches the live ones.
    ///
    /// # Errors
    ///
    /// Returns the name of the first diverging projection.
    pub fn verify_replay(&self) -> Result<Vec<(&'static str, Hash256)>, String> {
        self.pipeline.verify_replay()
    }

    /// Typed read access to the newsroom registry contract.
    pub fn newsrooms(&self) -> &NewsroomRegistry {
        self.pipeline.builtin(self.pipeline.addrs().newsroom)
    }

    /// Typed read access to the ranking contract.
    pub(crate) fn ranking_contract(&self) -> &RankingContract {
        self.pipeline.builtin(self.pipeline.addrs().ranking)
    }

    /// Typed read access to the incentive contract.
    pub(crate) fn incentives(&self) -> &IncentiveContract {
        self.pipeline.builtin(self.pipeline.addrs().incentive)
    }

    // --- transaction plumbing -------------------------------------------

    /// Signs `payload` for `signer` (the governor when `None`) at its next
    /// nonce and submits it; a refused transaction leaves the nonce free.
    fn enqueue(
        &mut self,
        signer: Option<&Keypair>,
        fee: u64,
        payload: Payload,
    ) -> Result<(), PlatformError> {
        let signer = signer.unwrap_or(&self.governor);
        let nonce = self.pipeline.next_nonce(&signer.address());
        let tx = Transaction::signed(signer, nonce, fee, payload);
        self.pipeline.submit(tx).map_err(PlatformError::Mempool)
    }

    /// Enqueues a call of the built-in `contract` with `input` from one of
    /// `tn_contracts::builtin`'s encoders, signed by `signer` (the governor
    /// when `None`). The contract checks the caller when the block runs.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Mempool`] when the call cannot be enqueued.
    pub fn call(
        &mut self,
        signer: Option<&Keypair>,
        contract: Address,
        input: Vec<u8>,
        gas_limit: u64,
    ) -> Result<(), PlatformError> {
        let payload = Payload::ContractCall {
            contract,
            input,
            gas_limit,
        };
        self.enqueue(signer, self.config.fee, payload)
    }

    /// Produces one block from all pending transactions and imports it
    /// through the pipeline; the projections (supply-chain graph,
    /// identities, fact admissions, headlines) observe the committed
    /// block before this returns, and a re-anchor transaction is enqueued
    /// when the factual database grew.
    ///
    /// # Errors
    ///
    /// Chain-level import errors (should not occur for platform-built
    /// transactions).
    pub fn produce_block(&mut self) -> Result<BlockSummary, PlatformError> {
        let txs = self.pipeline.select(10_000);
        let timestamp = self.pipeline.next_timestamp();
        let (block, receipts) = self
            .pipeline
            .commit_batch(&self.validator, timestamp, txs)?;

        let failed = receipts.iter().filter(|r| !r.success).count();
        let admitted = self.pipeline.take_newly_admitted();
        for id in &admitted {
            self.pending_proposals.remove(id);
        }
        if !admitted.is_empty() {
            let root = self.pipeline.factdb().root();
            let anchor = Payload::AnchorRoot {
                namespace: "factdb".into(),
                root,
            };
            self.enqueue(None, self.config.fee, anchor)?;
        }

        Ok(BlockSummary {
            included: block.transactions.len(),
            failed,
            admitted_facts: admitted,
        })
    }

    // --- identity & governance -------------------------------------------

    /// Verifies an identity: the governor grants an initial token balance
    /// and the account registers its name and roles on-chain.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Mempool`] when a registration transaction cannot
    /// be enqueued.
    pub fn register_identity(
        &mut self,
        who: &Keypair,
        name: &str,
        roles: &[Role],
    ) -> Result<(), PlatformError> {
        let grant = Payload::Transfer {
            to: who.address(),
            amount: self.config.identity_grant,
        };
        self.enqueue(None, self.config.fee, grant)?;
        let record = IdentityRecord {
            name: name.into(),
            roles: roles.to_vec(),
        };
        // Registration is platform-subsidized (fee 0): the account may be
        // brand-new and unfunded until the grant above commits, and the
        // mempool orders by fee, not enqueue order.
        self.enqueue(
            Some(who),
            0,
            Payload::Blob {
                tag: blob_tags::IDENTITY,
                data: record.to_bytes(),
            },
        )?;
        // Fact checkers are also registered with the admission contract.
        if roles.contains(&Role::FactChecker) {
            let input = admission_register_checker(&who.address());
            self.call(None, self.pipeline.addrs().admission, input, 10_000)?;
        }
        Ok(())
    }

    fn require_role(&self, who: &Address, role: Role) -> Result<(), PlatformError> {
        if !self.identities().is_verified(who) {
            return Err(PlatformError::NotVerified(*who));
        }
        if !self.identities().has_role(who, role) {
            return Err(PlatformError::NotAuthorized(format!(
                "{} lacks role {role:?}",
                who.short()
            )));
        }
        Ok(())
    }

    /// A publisher applies to create a distribution platform (§V layer 1).
    ///
    /// # Errors
    ///
    /// Requires the `Publisher` role.
    pub fn create_publisher_platform(
        &mut self,
        publisher: &Keypair,
        name: &str,
    ) -> Result<(), PlatformError> {
        self.newsroom_call(publisher, newsroom_register_platform(name))
    }

    /// Creates a topical news room on an owned platform (§V layer 2).
    ///
    /// # Errors
    ///
    /// Requires the `Publisher` role (ownership is enforced by the
    /// contract at execution).
    pub fn create_news_room(
        &mut self,
        publisher: &Keypair,
        platform_id: u64,
        topic: &str,
    ) -> Result<(), PlatformError> {
        self.newsroom_call(publisher, newsroom_create_room(platform_id, topic))
    }

    /// Authorizes a journalist to publish in a room.
    ///
    /// # Errors
    ///
    /// Requires the `Publisher` role.
    pub fn authorize_journalist(
        &mut self,
        publisher: &Keypair,
        room: u64,
        journalist: &Address,
    ) -> Result<(), PlatformError> {
        self.newsroom_call(publisher, newsroom_authorize(room, journalist))
    }

    /// Opens a newsroom in three blocks: `publisher` registers the
    /// platform `name`, creates a `topic` room on it, and authorizes each
    /// of `authors` there. Returns the id of the room created under the
    /// new platform (not merely the first room on the ledger).
    ///
    /// # Errors
    ///
    /// Requires the `Publisher` role; [`PlatformError::Contract`] when the
    /// platform or its room was not created when its block committed.
    pub fn open_newsroom(
        &mut self,
        publisher: &Keypair,
        name: &str,
        topic: &str,
        authors: &[Address],
    ) -> Result<u64, PlatformError> {
        let owner = publisher.address();
        let known = self.newsrooms().platforms().last().map(|(id, _)| id);
        self.create_publisher_platform(publisher, name)?;
        self.produce_block()?;
        let platform = self
            .newsrooms()
            .platforms()
            .find(|(id, p)| Some(*id) > known && p.owner == owner && p.name == name)
            .map(|(id, _)| id)
            .ok_or_else(|| PlatformError::Contract(format!("platform {name:?} not created")))?;
        self.create_news_room(publisher, platform, topic)?;
        self.produce_block()?;
        let room = self
            .newsrooms()
            .rooms()
            .find(|(_, r)| r.platform == platform)
            .map(|(id, _)| id)
            .ok_or_else(|| PlatformError::Contract(format!("room {topic:?} not created")))?;
        for author in authors {
            self.authorize_journalist(publisher, room, author)?;
        }
        self.produce_block()?;
        Ok(room)
    }

    /// A `Publisher`-signed call of the newsroom registry.
    fn newsroom_call(&mut self, publisher: &Keypair, input: Vec<u8>) -> Result<(), PlatformError> {
        self.require_role(&publisher.address(), Role::Publisher)?;
        let newsroom = self.pipeline.addrs().newsroom;
        self.call(Some(publisher), newsroom, input, 10_000)
    }

    // --- news flow ---------------------------------------------------------

    /// Publishes a news item into a room. Parents (other items or factual
    /// records) establish the provenance edges of §VI.
    ///
    /// Returns the item id the event will have once the block commits.
    ///
    /// # Errors
    ///
    /// Requires a verified `ContentCreator` authorized in the room.
    pub fn publish_news(
        &mut self,
        author: &Keypair,
        room: u64,
        topic: &str,
        content: &str,
        parents: Vec<(Hash256, PropagationOp)>,
    ) -> Result<Hash256, PlatformError> {
        self.publish_news_with_headline(author, room, topic, "", content, parents)
    }

    /// [`Self::publish_news`] with an explicit headline. The headline is
    /// recorded on-chain with the event, and the platform's AI component
    /// runs headline/body stance analysis on it: a body that contradicts
    /// its own headline (or is unrelated to it) is a fake-news signal per
    /// the Fake News Challenge approach the paper cites \[33\].
    ///
    /// # Errors
    ///
    /// Same as [`Self::publish_news`].
    pub fn publish_news_with_headline(
        &mut self,
        author: &Keypair,
        room: u64,
        topic: &str,
        headline: &str,
        content: &str,
        parents: Vec<(Hash256, PropagationOp)>,
    ) -> Result<Hash256, PlatformError> {
        self.require_role(&author.address(), Role::ContentCreator)?;
        if !self.newsrooms().is_authorized(room, &author.address()) {
            return Err(PlatformError::NotAuthorized(format!(
                "{} not authorized in room {room}",
                author.address().short()
            )));
        }
        let published_at = self.pipeline.next_timestamp();
        let event = NewsEvent {
            headline: headline.to_string(),
            content: content.to_string(),
            topic: topic.to_string(),
            room,
            parents: parents.iter().map(|(id, op)| (*id, op.tag())).collect(),
            published_at,
        };
        let item_id = tn_supplychain::graph::item_id(&author.address(), content, published_at);
        self.enqueue(Some(author), self.config.fee, event.into_payload())?;
        Ok(item_id)
    }

    /// A consumer submits a 0–100 truthfulness rating for an item.
    ///
    /// # Errors
    ///
    /// Requires a verified identity (any role).
    pub fn submit_rating(
        &mut self,
        rater: &Keypair,
        item: &Hash256,
        score: u8,
    ) -> Result<(), PlatformError> {
        if !self.identities().is_verified(&rater.address()) {
            return Err(PlatformError::NotVerified(rater.address()));
        }
        let input = ranking_submit(item, score);
        self.call(Some(rater), self.pipeline.addrs().ranking, input, 10_000)
    }

    /// Proposes a record for factual-database admission as an on-chain
    /// `FACT_PROPOSE` transaction (governor-signed); fact checkers then
    /// attest it, and the fact projection admits it once the attestation
    /// threshold is reached. Returns the record id.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Mempool`] when the proposal cannot be enqueued.
    pub fn propose_fact(&mut self, record: FactRecord) -> Result<Hash256, PlatformError> {
        let id = record.id();
        let proposal = Payload::Blob {
            tag: blob_tags::FACT_PROPOSE,
            data: record.to_bytes(),
        };
        self.enqueue(None, self.config.fee, proposal)?;
        self.pending_proposals.insert(id);
        Ok(id)
    }

    /// A fact checker attests a proposed record.
    ///
    /// # Errors
    ///
    /// Requires the `FactChecker` role and a known candidate record
    /// (proposed on-chain, pending in the mempool, or already admitted).
    pub fn attest_fact(
        &mut self,
        checker: &Keypair,
        record_id: &Hash256,
    ) -> Result<(), PlatformError> {
        self.require_role(&checker.address(), Role::FactChecker)?;
        let known = self.pending_proposals.contains(record_id)
            || self.pipeline.admissions().is_candidate(record_id)
            || self.factdb().contains(record_id);
        if !known {
            return Err(PlatformError::UnknownItem(*record_id));
        }
        let input = admission_attest(record_id);
        let admission = self.pipeline.addrs().admission;
        self.call(Some(checker), admission, input, 10_000)
    }

    // --- AI & ranking -----------------------------------------------------

    /// Trains the platform's AI detector on a labeled corpus (the
    /// AI-developer role's contribution to the ecosystem).
    pub fn train_detector(&mut self, corpus: &[tn_aidetect::corpus::LabeledDoc]) {
        self.detector = Some(EnsembleDetector::train(corpus));
    }

    /// True when a detector has been trained.
    pub(crate) fn has_detector(&self) -> bool {
        self.detector.is_some()
    }

    /// Computes the combined ranking of an item: provenance trace × AI ×
    /// crowd, weighted 2 : 1 : 1.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownItem`] when the item is not in the graph.
    pub fn rank_item(&self, item: &Hash256) -> Result<ItemRank, PlatformError> {
        let graph = self.graph();
        let node = graph.get(item).ok_or(PlatformError::UnknownItem(*item))?;
        let trace = graph.trace_summary(item)?;
        let t = summary_score(&trace);
        let ai = match &self.detector {
            Some(d) => match self.pipeline.headline(item) {
                Some(headline) => 1.0 - d.prob_fake_with_headline(headline, &node.content),
                None => d.prob_factual(&node.content),
            },
            None => 0.5,
        };
        // Unrated — nobody rated the item, or no rating carries weight —
        // is the neutral 0.5, never a unanimous 0.
        let (_, mean_e4) = self.ranking_contract().ranking(item);
        let crowd = mean_e4.map_or(0.5, |m| (m as f64 / 10_000.0) / 100.0);
        let rank = 100.0 * (TRACE_WEIGHT * t + AI_WEIGHT * ai + CROWD_WEIGHT * crowd);
        Ok(ItemRank {
            trace: t,
            ai,
            crowd,
            rank,
            reaches_root: trace.reaches_root,
        })
    }

    /// Traces an item back toward the factual database.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Graph`] for unknown items.
    pub fn trace_item(&self, item: &Hash256) -> Result<TraceResult, PlatformError> {
        Ok(self.graph().trace_back(item)?)
    }

    /// The account that originated an item's content (§IV accountability).
    ///
    /// # Errors
    ///
    /// [`PlatformError::Graph`] for unknown items.
    pub fn origin_of(&self, item: &Hash256) -> Result<Option<Address>, PlatformError> {
        Ok(self.graph().origin_author(item)?)
    }

    /// The account that introduced the largest modification (≥ 0.1) along
    /// an item's provenance path — the distortion-accountability query.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Graph`] for unknown items.
    pub fn distortion_culprit_of(
        &self,
        item: &Hash256,
    ) -> Result<Option<(Address, f64)>, PlatformError> {
        Ok(self.graph().distortion_culprit(item, 0.1)?)
    }

    /// Suggests the top-k domain experts for a topic from ledger history
    /// (§VI expert identification).
    pub fn suggest_experts(
        &self,
        topic: &str,
        k: usize,
    ) -> Vec<tn_supplychain::expert::ExpertScore> {
        tn_supplychain::expert::experts_for_topic(self.graph(), topic, k)
    }

    // --- Management Act enforcement ---------------------------------------

    /// Enforces the "AI Blockchain Platform Management Act" (§V): scans the
    /// supply-chain graph for accounts that introduced heavy modifications
    /// (degree ≥ `threshold`) on `strikes` or more items, and revokes their
    /// authorization in every news room (by enqueueing the publisher-signed
    /// revocation calls — all enforcement actions are themselves on-chain).
    ///
    /// Returns the sanctioned accounts with their strike counts. The
    /// `enforcer` must own the affected rooms' platforms (the paper's "the
    /// distribution platform will be responsible for the trust of its
    /// content creators").
    pub fn enforce_management_act(
        &mut self,
        enforcer: &Keypair,
        threshold: f64,
        strikes: usize,
    ) -> Result<Vec<(Address, usize)>, PlatformError> {
        self.require_role(&enforcer.address(), Role::Publisher)?;
        // Count heavy-modification edges per author across the graph.
        let mut counts: HashMap<Address, usize> = HashMap::new();
        for item in self.graph().iter().filter(|i| !i.is_fact_root) {
            let heavy = item.parents.iter().any(|p| p.modification >= threshold);
            if heavy {
                *counts.entry(item.author).or_insert(0) += 1;
            }
        }
        let mut sanctioned: Vec<(Address, usize)> =
            counts.into_iter().filter(|(_, c)| *c >= strikes).collect();
        sanctioned.sort_by_key(|(a, c)| (std::cmp::Reverse(*c), *a));

        // Revoke each sanctioned account from every room on platforms the
        // enforcer owns.
        let rooms: Vec<u64> = self
            .newsrooms()
            .rooms()
            .filter(|(_, room)| {
                self.newsrooms()
                    .platform(room.platform)
                    .is_some_and(|p| p.owner == enforcer.address())
            })
            .map(|(id, _)| id)
            .collect();
        for (who, _) in &sanctioned {
            for room in &rooms {
                self.newsroom_call(enforcer, newsroom_revoke(*room, who))?;
            }
        }
        Ok(sanctioned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot() -> Platform {
        Platform::new(PlatformConfig::default())
    }

    fn kp(seed: &str) -> Keypair {
        Keypair::from_seed(seed.as_bytes())
    }

    #[test]
    fn boot_seeds_and_anchors_factdb() {
        let p = boot();
        assert_eq!(p.factdb().len(), 50);
        assert_eq!(p.graph().root_count(), 50);
        assert_eq!(p.anchored_fact_root(), Some(p.factdb().root()));
        assert!(p.height() >= 1);
    }

    #[test]
    fn identity_and_publisher_flow() {
        let mut p = boot();
        let pub_kp = kp("publisher");
        let journo = kp("journalist");
        p.register_identity(&pub_kp, "Daily Facts Inc", &[Role::Publisher])
            .unwrap();
        p.register_identity(&journo, "Jane Doe", &[Role::ContentCreator])
            .unwrap();
        p.produce_block().unwrap();
        assert!(p.identities().has_role(&pub_kp.address(), Role::Publisher));

        p.create_publisher_platform(&pub_kp, "Daily Facts").unwrap();
        p.produce_block().unwrap();
        let pid = p.newsrooms().find_platform("Daily Facts").expect("created");

        p.create_news_room(&pub_kp, pid, "energy").unwrap();
        p.produce_block().unwrap();
        let (rid, room) = p.newsrooms().rooms().next().expect("room exists");
        assert_eq!(room.topic, "energy");

        p.authorize_journalist(&pub_kp, rid, &journo.address())
            .unwrap();
        p.produce_block().unwrap();
        assert!(p.newsrooms().is_authorized(rid, &journo.address()));
    }

    /// Boots a platform with a publisher, a room and an authorized
    /// journalist; returns (platform, journalist, room id).
    fn with_room() -> (Platform, Keypair, u64) {
        let mut p = boot();
        let pub_kp = kp("publisher");
        let journo = kp("journalist");
        p.register_identity(&pub_kp, "Daily Facts Inc", &[Role::Publisher])
            .unwrap();
        p.register_identity(&journo, "Jane Doe", &[Role::ContentCreator, Role::Consumer])
            .unwrap();
        p.produce_block().unwrap();
        let rid = p
            .open_newsroom(&pub_kp, "Daily Facts", "energy", &[journo.address()])
            .unwrap();
        (p, journo, rid)
    }

    #[test]
    fn open_newsroom_returns_the_new_platforms_room() {
        let (mut p, journo, first) = with_room();
        let pub_kp = kp("publisher");
        let height = p.height();
        // The same name again: a second platform, whose room is not the
        // first room on the ledger.
        let second = p
            .open_newsroom(&pub_kp, "Daily Facts", "sports", &[])
            .unwrap();
        assert_eq!(p.height(), height + 3, "one block per step");
        assert_ne!(second, first);
        let room = p.newsrooms().room(second).unwrap();
        assert_eq!(room.topic, "sports");
        assert_ne!(room.platform, p.newsrooms().room(first).unwrap().platform);
        assert!(!p.newsrooms().is_authorized(second, &journo.address()));
        assert!(p.newsrooms().is_authorized(first, &journo.address()));

        // A platform the contract refuses (empty name) is an error, as is
        // a caller without the Publisher role.
        assert!(matches!(
            p.open_newsroom(&pub_kp, "", "energy", &[]),
            Err(PlatformError::Contract(_))
        ));
        assert!(matches!(
            p.open_newsroom(&journo, "Rogue Press", "energy", &[]),
            Err(PlatformError::NotAuthorized(_))
        ));
    }

    #[test]
    fn publish_cite_and_rank() {
        let (mut p, journo, rid) = with_room();
        // Cite a factual record verbatim.
        let root = p.factdb().iter().next().unwrap().clone();
        let item = p
            .publish_news(
                &journo,
                rid,
                &root.topic,
                &root.content,
                vec![(root.id(), PropagationOp::Cite)],
            )
            .unwrap();
        p.produce_block().unwrap();

        assert_eq!(p.index_stats().indexed, 1);
        let rank = p.rank_item(&item).unwrap();
        assert!(rank.reaches_root);
        assert!((rank.trace - 1.0).abs() < 1e-9);
        assert!(rank.rank > 60.0, "rank {}", rank.rank);

        // An unsourced fabrication ranks lower.
        let fake = p
            .publish_news(
                &journo,
                rid,
                "energy",
                "Secret memo reveals it was all a lie.",
                vec![],
            )
            .unwrap();
        p.produce_block().unwrap();
        let fake_rank = p.rank_item(&fake).unwrap();
        assert!(!fake_rank.reaches_root);
        assert!(fake_rank.rank < rank.rank);
    }

    #[test]
    fn unauthorized_publishing_rejected() {
        let (mut p, _journo, rid) = with_room();
        let stranger = kp("stranger");
        // Not verified at all.
        assert!(matches!(
            p.publish_news(&stranger, rid, "t", "text", vec![]),
            Err(PlatformError::NotVerified(_))
        ));
        // Verified consumer but not authorized in the room.
        p.register_identity(&stranger, "Stranger", &[Role::ContentCreator])
            .unwrap();
        p.produce_block().unwrap();
        assert!(matches!(
            p.publish_news(&stranger, rid, "t", "text", vec![]),
            Err(PlatformError::NotAuthorized(_))
        ));
    }

    #[test]
    fn ratings_flow_into_ranking() {
        let (mut p, journo, rid) = with_room();
        let root = p.factdb().iter().next().unwrap().clone();
        let item = p
            .publish_news(
                &journo,
                rid,
                &root.topic,
                &root.content,
                vec![(root.id(), PropagationOp::Cite)],
            )
            .unwrap();
        p.produce_block().unwrap();

        let neutral = p.rank_item(&item).unwrap();
        p.submit_rating(&journo, &item, 95).unwrap();
        p.produce_block().unwrap();
        let rated = p.rank_item(&item).unwrap();
        assert!(rated.crowd > neutral.crowd);
        assert!(rated.rank > neutral.rank);
    }

    /// Ratings that all weigh zero — every rater quarantined — are no
    /// crowd score: the item ranks exactly as it did before anyone rated.
    #[test]
    fn an_item_only_quarantined_raters_rated_ranks_as_unrated() {
        use tn_contracts::builtin::*;
        let (mut p, journo, rid) = with_room();
        let ranking = p.pipeline().addrs().ranking;
        let item = p
            .publish_news(&journo, rid, "topic", "text", vec![])
            .unwrap();
        p.produce_block().unwrap();
        let unrated = p.rank_item(&item).unwrap();
        let policy = DefensePolicy {
            min_bond: 50,
            decay_bps: 9_000,
            slash_bps: 2_500,
        };
        for input in [
            ranking_set_policy(&policy),
            ranking_grant_stake(&journo.address(), 100),
        ] {
            p.call(None, ranking, input, 10_000).unwrap();
        }
        p.produce_block().unwrap();
        p.call(Some(&journo), ranking, ranking_post_bond(100), 10_000)
            .unwrap();
        p.submit_rating(&journo, &item, 0).unwrap();
        p.produce_block().unwrap();
        assert_eq!(
            p.rank_item(&item).unwrap().crowd,
            0.0,
            "a bonded fake verdict"
        );
        p.call(None, ranking, ranking_quarantine(&journo.address()), 10_000)
            .unwrap();
        p.produce_block().unwrap();
        assert_eq!(p.rank_item(&item).unwrap(), unrated);
    }

    #[test]
    fn defense_policy_bond_quarantine_flow() {
        use tn_contracts::builtin::*;
        let (mut p, journo, rid) = with_room();
        let ranking = p.pipeline().addrs().ranking;
        let bot = kp("ring-bot");
        p.register_identity(&bot, "Ring Bot", &[Role::Consumer])
            .unwrap();
        p.produce_block().unwrap();
        let item = p
            .publish_news(&journo, rid, "topic", "text", vec![])
            .unwrap();
        let policy = DefensePolicy {
            min_bond: 50,
            decay_bps: 9_000,
            slash_bps: 2_500,
        };
        for input in [
            ranking_set_policy(&policy),
            ranking_grant_stake(&journo.address(), 200),
            ranking_grant_stake(&bot.address(), 200),
        ] {
            p.call(None, ranking, input, 10_000).unwrap();
        }
        p.produce_block().unwrap();
        for who in [&journo, &bot] {
            p.call(Some(who), ranking, ranking_post_bond(100), 10_000)
                .unwrap();
        }
        p.produce_block().unwrap();

        // Both bonded raters carry weight.
        p.submit_rating(&journo, &item, 80).unwrap();
        p.submit_rating(&bot, &item, 97).unwrap();
        p.produce_block().unwrap();
        let (count, _) = p.ranking_contract().ranking(&item);
        assert_eq!(count, 2);

        // Quarantining the bot zeroes its stored rating's weight.
        p.call(None, ranking, ranking_quarantine(&bot.address()), 10_000)
            .unwrap();
        p.produce_block().unwrap();
        assert!(p.ranking_contract().is_quarantined(&bot.address()));
        // The stored rating stays on-chain but its weight drops to zero:
        // the mean collapses to the honest rater's 80.
        let (count, mean_e4) = p.ranking_contract().ranking(&item);
        assert_eq!(count, 2);
        assert_eq!(mean_e4, Some(80 * 10_000));

        // A confirmed not-factual outcome slashes the contradicted bot.
        let (_, bonded_before) = p.ranking_contract().stake(&bot.address());
        p.call(None, ranking, ranking_record_outcome(&item, false), 50_000)
            .unwrap();
        p.produce_block().unwrap();
        let (_, bonded_after) = p.ranking_contract().stake(&bot.address());
        assert!(bonded_after < bonded_before);
        assert!(p.ranking_contract().treasury() > 0);
    }

    #[test]
    fn fact_attestation_grows_database_and_reanchors() {
        let mut p = boot();
        let c1 = kp("checker1");
        let c2 = kp("checker2");
        p.register_identity(&c1, "Checker One", &[Role::FactChecker])
            .unwrap();
        p.register_identity(&c2, "Checker Two", &[Role::FactChecker])
            .unwrap();
        p.produce_block().unwrap();

        let record = FactRecord {
            source: tn_factdb::record::SourceKind::VerifiedNews,
            speaker: "Mayor Donovan".into(),
            topic: "housing".into(),
            content: "The permit reform passed the council vote.".into(),
            recorded_at: 77,
        };
        let id = p.propose_fact(record).unwrap();
        let before_root = p.anchored_fact_root();
        let before_len = p.factdb().len();

        p.attest_fact(&c1, &id).unwrap();
        let s = p.produce_block().unwrap();
        assert!(
            s.admitted_facts.is_empty(),
            "one attestation below threshold"
        );

        p.attest_fact(&c2, &id).unwrap();
        let s = p.produce_block().unwrap();
        assert_eq!(s.admitted_facts, vec![id]);
        assert_eq!(p.factdb().len(), before_len + 1);
        assert!(p.factdb().contains(&id));

        // Re-anchor lands in the following block.
        p.produce_block().unwrap();
        assert_ne!(p.anchored_fact_root(), before_root);
        assert_eq!(p.anchored_fact_root(), Some(p.factdb().root()));
    }

    #[test]
    fn expert_suggestion_from_history() {
        let (mut p, journo, rid) = with_room();
        let roots: Vec<FactRecord> = p.factdb().iter().take(3).cloned().collect();
        for r in &roots {
            p.publish_news(
                &journo,
                rid,
                &r.topic,
                &r.content,
                vec![(r.id(), PropagationOp::Cite)],
            )
            .unwrap();
            p.produce_block().unwrap();
        }
        let topic = &roots[0].topic;
        let experts = p.suggest_experts(topic, 3);
        assert!(!experts.is_empty());
        assert_eq!(experts[0].author, journo.address());
    }

    #[test]
    fn origin_accountability() {
        let (mut p, journo, rid) = with_room();
        let fake = p
            .publish_news(
                &journo,
                rid,
                "energy",
                "Invented scandal content here.",
                vec![],
            )
            .unwrap();
        p.produce_block().unwrap();
        assert_eq!(p.origin_of(&fake).unwrap(), Some(journo.address()));
    }

    #[test]
    fn detector_changes_ai_component() {
        let (mut p, journo, rid) = with_room();
        let fake = p
            .publish_news(
                &journo,
                rid,
                "energy",
                "Shocking corrupt scandal exposed by anonymous insiders, share before deleted!",
                vec![],
            )
            .unwrap();
        p.produce_block().unwrap();
        let before = p.rank_item(&fake).unwrap();
        assert!((before.ai - 0.5).abs() < 1e-9, "no detector yet");

        let corpus = tn_aidetect::corpus::generate_news_corpus(
            &tn_aidetect::corpus::NewsCorpusConfig::default(),
        );
        p.train_detector(&corpus);
        let after = p.rank_item(&fake).unwrap();
        assert!(
            after.ai < 0.35,
            "detector should flag the fake, ai={}",
            after.ai
        );
        assert!(after.rank < before.rank);
    }

    #[test]
    fn contradictory_headline_lowers_ai_score() {
        let (mut p, journo, rid) = with_room();
        let corpus = tn_aidetect::corpus::generate_news_corpus(
            &tn_aidetect::corpus::NewsCorpusConfig::default(),
        );
        p.train_detector(&corpus);

        let body = "Officials confirmed the committee approved the amendment; \
                    the record was published and signed the same day.";
        let consistent = p
            .publish_news_with_headline(
                &journo,
                rid,
                "energy",
                "Committee approves amendment",
                body,
                vec![],
            )
            .unwrap();
        let refuting_body = "Claims that the committee approved the amendment are false; \
                             the chair denied the amendment approval and called the report \
                             a hoax, not news.";
        let contradicted = p
            .publish_news_with_headline(
                &journo,
                rid,
                "energy",
                "Committee approves amendment",
                refuting_body,
                vec![],
            )
            .unwrap();
        p.produce_block().unwrap();

        let rc = p.rank_item(&consistent).unwrap();
        let rx = p.rank_item(&contradicted).unwrap();
        assert!(
            rc.ai > rx.ai + 0.1,
            "stance should separate: consistent {} vs contradicted {}",
            rc.ai,
            rx.ai
        );
    }

    #[test]
    fn management_act_revokes_repeat_distorters() {
        let (mut p, journo, rid) = with_room();
        let pub_kp = kp("publisher");
        let tabloid = kp("ma tabloid");
        p.register_identity(&tabloid, "MA Tabloid", &[Role::ContentCreator])
            .unwrap();
        p.produce_block().unwrap();
        p.authorize_journalist(&pub_kp, rid, &tabloid.address())
            .unwrap();
        p.produce_block().unwrap();

        // Tabloid distorts three different factual records heavily;
        // journalist relays faithfully.
        let roots: Vec<_> = p.factdb().iter().take(3).cloned().collect();
        for r in &roots {
            let distorted = format!(
                "{} Insiders warn this is a shocking corrupt cover-up. \
                 They do not want you to know the terrifying truth. \
                 Share this before it gets deleted by the censors.",
                r.content
            );
            p.publish_news(
                &tabloid,
                rid,
                &r.topic,
                &distorted,
                vec![(r.id(), PropagationOp::Insert)],
            )
            .unwrap();
            p.publish_news(
                &journo,
                rid,
                &r.topic,
                &r.content,
                vec![(r.id(), PropagationOp::Cite)],
            )
            .unwrap();
            p.produce_block().unwrap();
        }

        let sanctioned = p.enforce_management_act(&pub_kp, 0.25, 3).unwrap();
        assert_eq!(sanctioned.len(), 1);
        assert_eq!(sanctioned[0].0, tabloid.address());
        assert_eq!(sanctioned[0].1, 3);
        p.produce_block().unwrap();

        // Revocation is effective: the tabloid can no longer publish.
        assert!(!p.newsrooms().is_authorized(rid, &tabloid.address()));
        assert!(matches!(
            p.publish_news(&tabloid, rid, "energy", "more spin", vec![]),
            Err(PlatformError::NotAuthorized(_))
        ));
        // The honest journalist is untouched.
        assert!(p.newsrooms().is_authorized(rid, &journo.address()));

        // Only publishers may enforce.
        assert!(matches!(
            p.enforce_management_act(&journo, 0.25, 3),
            Err(PlatformError::NotAuthorized(_))
        ));
    }

    #[test]
    fn chain_records_everything() {
        let (p, _journo, _rid) = with_room();
        // Every platform action above went through transactions.
        let txs = p.store().canonical_transactions();
        assert!(
            txs.len() >= 6,
            "expected a populated ledger, got {}",
            txs.len()
        );
    }

    #[test]
    fn ledger_replay_matches_live_projections() {
        let (mut p, journo, rid) = with_room();
        let root = p.factdb().iter().next().unwrap().clone();
        p.publish_news(
            &journo,
            rid,
            &root.topic,
            &root.content,
            vec![(root.id(), PropagationOp::Cite)],
        )
        .unwrap();
        p.submit_rating(&journo, &root.id(), 80).ok();
        p.produce_block().unwrap();

        let digests = p
            .verify_replay()
            .expect("replay must reproduce live digests");
        assert_eq!(digests.len(), 4);
        assert_eq!(digests, p.projection_digests());
    }

    #[test]
    fn mempool_rejection_surfaces_and_releases_nonce() {
        let mut p = Platform::new(PlatformConfig::default());
        // A two-slot pool, sharing the store's signature cache as the
        // pipeline's own pool does.
        let mut pool = Mempool::new(2);
        pool.set_sig_cache(p.pipeline.store().sig_cache());
        *p.pipeline.mempool_mut() = pool;
        let who = kp("tiny-pool user");
        // Two transactions fill the pool; registration enqueues exactly two
        // (grant transfer + identity blob) for a non-checker role.
        p.register_identity(&who, "User", &[Role::Consumer])
            .unwrap();

        let record = FactRecord {
            source: tn_factdb::record::SourceKind::CourtRecord,
            speaker: "Clerk".into(),
            topic: "records".into(),
            content: "The registry office archived the deed.".into(),
            recorded_at: 9,
        };
        let err = p.propose_fact(record.clone());
        assert!(matches!(err, Err(PlatformError::Mempool(_))), "got {err:?}");

        // The failed enqueue must not burn the governor's nonce: once the
        // pool drains, the same proposal enqueues and commits cleanly.
        p.produce_block().unwrap();
        p.propose_fact(record).unwrap();
        let s = p.produce_block().unwrap();
        assert_eq!(s.failed, 0, "a nonce gap would strand the proposal");
        assert_eq!(s.included, 1);
    }

    /// Chain depth is outside input (any account may relay its own item
    /// without end), so a ranking must not depend on stack depth. The
    /// chain is grafted onto the live projections through their checkpoint
    /// format: 100 000 signed publishes would say nothing more.
    #[test]
    fn rank_item_answers_on_a_100_000_hop_chain() {
        use crate::projections::View;
        use tn_chain::codec::{Decoder, Encoder};
        const HOPS: usize = 100_000;

        let mut p = boot();
        let root = p.factdb().iter().next().unwrap().clone();
        let projections = p.pipeline.projections_mut();
        let mut saved = projections.save();
        let state = std::mem::take(&mut saved[0].1);
        assert_eq!(saved[0].0, View::SupplyChain.name());
        let mut dec = Decoder::new(&state);
        let mut graph = SupplyChainGraph::from_bytes(&dec.get_bytes().unwrap()).unwrap();
        let rest = &state[state.len() - dec.remaining()..];

        let relayer = kp("tireless relayer").address();
        let mut tip = root.id();
        for i in 0..HOPS {
            let edge = vec![(tip, PropagationOp::Relay)];
            tip = graph
                .insert(relayer, &root.content, &root.topic, 1, edge, i as u64)
                .unwrap();
        }
        let mut grafted = Encoder::new();
        grafted.put_bytes(&graph.to_bytes()).put_raw(rest);
        saved[0].1 = grafted.finish();
        projections.load(&saved).unwrap();

        let rank = p.rank_item(&tip).unwrap();
        assert!(rank.reaches_root);
        assert_eq!(rank.trace, 1.0);
        assert_eq!(p.trace_item(&tip).unwrap().distance, Some(HOPS));
        assert_eq!(p.origin_of(&tip).unwrap(), Some(relayer));
        assert_eq!(p.distortion_culprit_of(&tip).unwrap(), None);
        assert_eq!(p.suggest_experts(&root.topic, 1)[0].items, HOPS);
    }
}
