//! The chain store: block validation against parent state, longest-chain
//! fork choice, and a bounded in-memory window over a durable
//! [`Storage`] backend.
//!
//! In the full platform the consensus layer (PBFT) decides a single block
//! per height, so forks never persist; the store nevertheless implements
//! fork choice so it can also back the PoA baseline (where brief forks are
//! possible) and so tests can exercise reorg behaviour.
//!
//! ## Storage layout
//!
//! The window holds fork-choice state, the backend holds bodies. For a
//! recent *window* of blocks (including fork branches) the store keeps
//! what validation and fork choice need — header and post-state (a
//! structurally shared [`State`]) — and nothing else; a block's
//! transactions and receipts live once, as the canonical bytes of its
//! backend record, for windowed and evicted heights alike. Every imported
//! block is first made durable in the backend's write-ahead log; when a height falls `retention` blocks behind the
//! head it is *finalized* into the backend (sealed into segment files on
//! the disk backend, fork siblings discarded) and evicted from the
//! window. The full height → id canonical map stays in memory (40 bytes
//! per block), so canonical-chain walks never touch the backend.
//!
//! Every query about a body — [`ChainStore::block`], the transaction and
//! account indexes, [`ChainStore::for_each_canonical`],
//! [`ChainStore::snapshot`] — reads the backend record, whatever the
//! height. Historical *states* of evicted
//! blocks are reconstructed by replaying forward from the nearest
//! checkpoint at or below the requested height. The replay uses
//! [`NoExecutor`], which is sound because contract execution cannot
//! write chain [`State`]: a [`TxExecutor`] is handed the caller, the
//! contract and its input, never the state (every replayed height is
//! held to its header's state root in the tests).
//!
//! ## Two ways in, one accept tail
//!
//! A block enters through [`ChainStore::commit`] — the proposer's one
//! pass: select (signatures no admission saw proved in shared equations),
//! execute against the real executor, sign, accept what execution left —
//! or through [`ChainStore::import`] — everyone else's
//! path: verify structure and signatures, check parent, height and
//! timestamp, re-execute and compare the state root. Import works on
//! **runs**: [`ChainStore::check_run`] hashes each block of a run once
//! and settles all the run's unseen signatures — proposers' and
//! transactions' — in shared equations before anything is executed
//! (the rule, and what a failed equation leaves behind, is stated in
//! [`crate::block`]); [`ChainStore::import_checked`] then takes the
//! blocks one by one through the remaining checks.
//! [`ChainStore::import`] is the run of one, [`ChainStore::import_run`]
//! the loop that stops at the first refusal. State sync hands over what
//! the peer served as one run; snapshot restore and WAL-tail replay
//! decode and hand over runs of at most one equation's worth of
//! signatures, so a stream of blocks is never held decoded whole. A
//! block an equation vouched for skips the signature check and nothing
//! else; one it did not is checked on its own, with the error a
//! sequential import reports. Both ways in end in the same tail: the
//! record reaches the backend before the block is
//! visible, then window, fork choice, canonical map, the hand-off to the
//! executor, eviction. The window's per-block post-states are persistent
//! tries that share whatever their blocks did not write, so a window
//! entry costs the written paths, not a copy of the state.
//!
//! ## One hand-off out
//!
//! The store calls out through one object: the [`TxExecutor`] every way
//! in receives. It executes contract payloads, and it is told what became
//! canonical — [`TxExecutor::block_connected`] when a block extended the
//! head (committed, imported, replayed from the WAL tail or decoded from a
//! snapshot alike), [`TxExecutor::history_replaced`] when a reorg made
//! another branch canonical, after which it re-derives what it holds from
//! [`ChainStore::for_each_canonical`]. A block on a side branch is stored
//! and announced to nobody. The store keeps no list of listeners and
//! knows no view by name: [`NoExecutor`] derives nothing, the platform's
//! pipeline lends its contract registry and projections as one executor.
//!
//! Checkpoints ([`ChainCheckpoint`]) bundle the head state with the
//! extension blobs the caller hands over; a restarted replica restores
//! the latest durable checkpoint and replays only the storage records
//! past it ([`ChainStore::open_recovering`] + [`ChainStore::replay_tail`]),
//! so restart cost is proportional to downtime, not chain length.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use tn_crypto::{Address, Hash256, Keypair};
use tn_storage::{BlockRecord, HeadMeta, Storage, StorageConfig, TxIndexEntry, TxLocation};
use tn_telemetry::TelemetrySink;
use tn_trace::{lanes, replica_span_id, span_id, TraceId, TraceSink};

use crate::block::{prove_run, prove_txs, Block, BlockHashes, BlockHeader, BATCH_CHUNK};
use crate::checkpoint::ChainCheckpoint;
use crate::codec::{Decodable, Decoder, Encodable, Encoder};
use crate::error::ChainError;
use crate::sigcache::SigCache;
use crate::state::{NoExecutor, Receipt, State, TxExecutor};
use crate::transaction::{Payload, Transaction};

/// What the window keeps of a block: enough to validate children against
/// it and to run fork choice. Transactions and receipts stay in the
/// backend record.
#[derive(Debug, Clone)]
struct StoredBlock {
    header: BlockHeader,
    post_state: State,
}

fn encode_block(block: &Block) -> Vec<u8> {
    let mut enc = Encoder::new();
    block.encode(&mut enc);
    enc.finish()
}

fn decode_block(bytes: &[u8]) -> Result<Block, ChainError> {
    let mut dec = Decoder::new(bytes);
    let block = Block::decode(&mut dec)?;
    dec.expect_end()?;
    Ok(block)
}

fn encode_receipts(receipts: &[Receipt]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_varint(receipts.len() as u64);
    for r in receipts {
        r.encode(&mut enc);
    }
    enc.finish()
}

fn decode_receipts(bytes: &[u8]) -> Result<Vec<Receipt>, ChainError> {
    let mut dec = Decoder::new(bytes);
    let n = dec.get_varint()? as usize;
    let mut receipts = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        receipts.push(Receipt::decode(&mut dec)?);
    }
    dec.expect_end()?;
    Ok(receipts)
}

/// A transaction's entry for the backend's indexes: its id and the
/// account keys it touches — always the sender, plus the transfer
/// recipient or called contract.
fn index_entry(tx: &Transaction, id: &Hash256) -> TxIndexEntry {
    let counterparty = match &tx.payload {
        Payload::Transfer { to, .. } => Some(to),
        Payload::ContractCall { contract, .. } => Some(contract),
        _ => None,
    };
    TxIndexEntry {
        id: *id.as_bytes(),
        sender: *tx.from.as_hash().as_bytes(),
        counterparty: counterparty.map(|a| *a.as_hash().as_bytes()),
    }
}

/// The backend record of `block`; `receipts` are its transactions'
/// receipts in order, which is where the index takes each id from.
fn block_record(block: &Block, id: &Hash256, receipts: &[Receipt]) -> BlockRecord {
    debug_assert_eq!(block.transactions.len(), receipts.len());
    BlockRecord {
        height: block.header.height,
        id: *id.as_bytes(),
        parent: *block.header.parent.as_bytes(),
        block_bytes: encode_block(block).into(),
        receipts_bytes: encode_receipts(receipts).into(),
        txs: block
            .transactions
            .iter()
            .zip(receipts)
            .map(|(tx, receipt)| index_entry(tx, &receipt.tx_id))
            .collect(),
    }
}

/// How one block is named on this replica: its id, its trace and its
/// `chain.import` span, which the import's child spans hang under. The
/// last two are zero-cost placeholders when tracing is off.
#[derive(Debug, Clone, Copy)]
struct BlockIds {
    block: Hash256,
    trace: TraceId,
    import: u64,
}

impl BlockIds {
    fn of(id: Hash256, sink: &TraceSink) -> BlockIds {
        let trace = if sink.is_enabled() {
            TraceId::from_seed(id.as_bytes())
        } else {
            TraceId::NONE
        };
        BlockIds {
            block: id,
            trace,
            import: replica_span_id(trace, "chain.import", sink.replica()),
        }
    }
}

/// What [`ChainStore::assemble`] hands back: the signed block and its id,
/// the state and receipts executing it produced, and when (trace clock)
/// the signature pass and the execution ran.
struct Proposal {
    block: Block,
    id: Hash256,
    post_state: State,
    receipts: Vec<Receipt>,
    verify_ns: (u64, u64),
    execute_ns: (u64, u64),
}

/// A block of a run that [`ChainStore::check_run`] has looked at: the
/// block, what it hashes to, and what is known of its signatures. Only
/// `check_run` makes one, so the hashes always belong to the block.
#[derive(Debug)]
pub struct CheckedBlock<'a> {
    block: &'a Block,
    hashes: BlockHashes,
    sigs: Sigs,
}

impl<'a> CheckedBlock<'a> {
    /// The block.
    pub fn block(&self) -> &'a Block {
        self.block
    }

    /// The block's id.
    pub fn id(&self) -> Hash256 {
        self.hashes.id
    }
}

/// What [`ChainStore::check_run`] learned about a block's signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sigs {
    /// Structure sound, every signature cached or proved in an equation
    /// that held: nothing of [`Block::verify_structure`] is left to check.
    Proved,
    /// An equation this block shared with other blocks failed, which says
    /// nothing about this one: it is checked again as a run of one.
    Shared,
    /// Nothing vouches for the block (an equation over it alone failed,
    /// its transaction root is off, or the store already holds it): the
    /// per-block check decides.
    Unproved,
}

/// Blocks decoded from a stream (a snapshot, the WAL tail), gathered into
/// runs for [`ChainStore::check_run`]: a run is handed back as soon as the
/// next block's signatures would no longer fit beside it in one equation,
/// so the stream is never held decoded whole.
#[derive(Default)]
struct RunBuffer {
    blocks: Vec<Block>,
    signatures: usize,
}

impl RunBuffer {
    /// Adds `block`; returns the run gathered before it when the two
    /// together would overflow one equation.
    fn push(&mut self, block: Block) -> Option<Vec<Block>> {
        let signatures = 1 + block.transactions.len();
        let full = (!self.blocks.is_empty() && self.signatures + signatures > BATCH_CHUNK)
            .then(|| self.take());
        self.signatures += signatures;
        self.blocks.push(block);
        full
    }

    /// The run gathered so far (possibly empty), leaving the buffer empty.
    fn take(&mut self) -> Vec<Block> {
        self.signatures = 0;
        std::mem::take(&mut self.blocks)
    }
}

/// Applies one signature-checked transaction (`tx_id` is its id) of
/// `proposer`'s block at `height` and, when tracing, records its
/// `tx.apply` span.
fn apply_traced(
    state: &mut State,
    tx: &Transaction,
    tx_id: Hash256,
    proposer: &Address,
    height: u64,
    executor: &mut dyn TxExecutor,
    trace: &TraceSink,
) -> Result<Receipt, ChainError> {
    let a0 = trace.now_ns();
    let receipt = state.apply_identified(tx, tx_id, proposer, executor)?;
    if trace.is_enabled() {
        // Each replica applies the tx; all of these spans parent to the
        // single cluster-wide `tx.commit` span, whose id is computable
        // from the tx trace without coordination.
        let tx_trace = TraceId::from_seed(tx_id.as_bytes());
        trace.complete(
            tx_trace,
            "tx.apply",
            span_id(tx_trace, "tx.commit"),
            lanes::EXECUTE,
            a0,
            &[("height", height)],
        );
    }
    Ok(receipt)
}

/// The block store and canonical-chain tracker.
///
/// It holds nothing derived from block contents but world state; what
/// the layer above derives belongs to the [`TxExecutor`] every way in
/// receives (the module docs, "One hand-off out").
pub struct ChainStore {
    /// Header and post-state of recent blocks (canonical and fork).
    /// Genesis stays pinned; everything else is evicted once finalized.
    window: HashMap<Hash256, StoredBlock>,
    /// Full canonical height → id map (covers genesis through head).
    canonical: BTreeMap<u64, Hash256>,
    backend: Box<dyn Storage>,
    /// Window size in blocks; heights more than this far behind the head
    /// are finalized into the backend and evicted.
    retention: u64,
    /// Periodic checkpoint spacing (0 = only explicit checkpoints).
    checkpoint_interval: u64,
    /// Height of the most recent checkpoint written (or restored).
    last_checkpoint: u64,
    /// True while `replay_tail` re-imports records the backend already
    /// holds (suppresses re-appending them).
    replaying: bool,
    /// Current head (tip of the canonical chain).
    head: Hash256,
    genesis: Hash256,
    telemetry: TelemetrySink,
    trace: TraceSink,
    /// Verified-transaction cache shared with the mempool and proposer so
    /// each signature pays for at most one EC verification per process.
    sig_cache: SigCache,
}

impl fmt::Debug for ChainStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChainStore")
            .field("backend", &self.backend.kind())
            .field("window", &self.window.len())
            .field("canonical", &self.canonical.len())
            .field("head", &self.head)
            .field("genesis", &self.genesis)
            .finish()
    }
}

impl ChainStore {
    /// Creates a store holding only a genesis block that commits
    /// `genesis_state`, on the default in-memory backend.
    pub fn new(genesis_state: State, genesis_proposer: &Keypair) -> ChainStore {
        Self::with_config(genesis_state, genesis_proposer, StorageConfig::default())
            .expect("in-memory backend construction cannot fail")
    }

    /// Creates a store on the backend selected by `config`.
    ///
    /// # Errors
    ///
    /// [`ChainError::Storage`] when the backend cannot be initialized
    /// (e.g. the disk directory already contains data — use
    /// [`ChainStore::open_recovering`] for that).
    pub fn with_config(
        genesis_state: State,
        genesis_proposer: &Keypair,
        config: StorageConfig,
    ) -> Result<ChainStore, ChainError> {
        let backend = config.build()?;
        Self::with_backend(genesis_state, genesis_proposer, backend, &config)
    }

    /// Creates a store on an explicit (fresh) backend instance.
    ///
    /// # Errors
    ///
    /// [`ChainError::Storage`] when writing the genesis record fails.
    pub fn with_backend(
        genesis_state: State,
        genesis_proposer: &Keypair,
        backend: Box<dyn Storage>,
        config: &StorageConfig,
    ) -> Result<ChainStore, ChainError> {
        let block = Block::build(
            genesis_proposer,
            0,
            Hash256::ZERO,
            genesis_state.root(),
            0,
            Vec::new(),
        );
        Self::from_genesis(block, genesis_state, backend, config)
    }

    /// Builds a store around an already-constructed genesis block,
    /// persisting the genesis record and a genesis checkpoint.
    fn from_genesis(
        block: Block,
        genesis_state: State,
        mut backend: Box<dyn Storage>,
        config: &StorageConfig,
    ) -> Result<ChainStore, ChainError> {
        let id = block.id();
        backend.append_block(block_record(&block, &id, &[]))?;
        backend.finalize(0, id.as_bytes())?;
        backend.set_head(HeadMeta {
            height: 0,
            id: *id.as_bytes(),
        })?;
        // The genesis checkpoint anchors both historical state replay and
        // crash recovery: `checkpoint_at_or_before` always finds at least
        // this one, and recovery needs it to reconstruct the genesis
        // state (block headers commit only the state root).
        let cp = ChainCheckpoint {
            height: 0,
            head_id: id,
            state: genesis_state.clone(),
            extensions: Vec::new(),
        };
        backend.put_checkpoint(0, id.as_bytes(), &cp.to_bytes())?;
        backend.flush()?;
        let mut window = HashMap::new();
        window.insert(
            id,
            StoredBlock {
                header: block.header,
                post_state: genesis_state,
            },
        );
        let mut canonical = BTreeMap::new();
        canonical.insert(0, id);
        Ok(ChainStore {
            window,
            canonical,
            backend,
            retention: config.retention.max(1),
            checkpoint_interval: config.checkpoint_interval,
            last_checkpoint: 0,
            replaying: false,
            head: id,
            genesis: id,
            telemetry: TelemetrySink::disabled(),
            trace: TraceSink::disabled(),
            sig_cache: SigCache::default(),
        })
    }

    /// Reopens a store from an existing backend (typically
    /// [`tn_storage::DiskBackend::open`]), restoring the newest usable
    /// checkpoint. Returns the store positioned at the checkpoint block
    /// together with the decoded checkpoint, so callers can restore the
    /// executor's state from its extensions before calling
    /// [`ChainStore::replay_tail`].
    ///
    /// Checkpoint selection is defensive: a checkpoint whose blob fails
    /// to decode, whose block is not durable, or whose state root does
    /// not match the block header is skipped in favor of the next older
    /// one (the genesis checkpoint is always a valid last resort).
    ///
    /// # Errors
    ///
    /// [`ChainError::Checkpoint`] when no usable checkpoint exists;
    /// [`ChainError::Storage`] on backend failures.
    pub fn open_recovering(
        mut backend: Box<dyn Storage>,
        config: &StorageConfig,
    ) -> Result<(ChainStore, ChainCheckpoint), ChainError> {
        // Genesis: id from the always-written genesis checkpoint, block
        // record by id (a freshly reopened disk backend holds it in the
        // WAL live set, not in finalized-height lookups), state from the
        // checkpoint (verified against the header's state root).
        let genesis_raw = backend
            .checkpoint_at_or_before(0)?
            .ok_or_else(|| ChainError::Checkpoint("genesis checkpoint missing".into()))?;
        let genesis_cp = ChainCheckpoint::from_bytes(&genesis_raw.blob)
            .map_err(|e| ChainError::Checkpoint(format!("genesis checkpoint malformed: {e}")))?;
        let genesis_rec = backend
            .block_by_id(genesis_cp.head_id.as_bytes())?
            .ok_or_else(|| ChainError::Checkpoint("genesis block missing from storage".into()))?;
        let genesis_block = decode_block(&genesis_rec.block_bytes)?;
        let genesis_id = genesis_block.id();
        if genesis_block.header.height != 0
            || genesis_cp.state.root() != genesis_block.header.state_root
            || genesis_cp.head_id != genesis_id
        {
            return Err(ChainError::Checkpoint(
                "genesis checkpoint does not match genesis block".into(),
            ));
        }

        // Canonical map from finalized history (id-only reads).
        let frontier = backend.finalized_height();
        let mut canonical = BTreeMap::new();
        canonical.insert(0u64, genesis_id);
        for h in 1..=frontier {
            match backend.finalized_id(h)? {
                Some(id) => {
                    canonical.insert(h, Hash256::from_bytes(id));
                }
                None => break,
            }
        }

        // Newest checkpoint whose block is durable and consistent AND
        // whose ancestry walks back to the finalized frontier (a crash
        // can lose finalize calls for heights the window had already
        // evicted; torn storage can lose whole record ranges — a
        // checkpoint stranded above such a hole is unusable, so selection
        // falls back to the next older one). The surviving walk is the
        // gap to re-finalize, ascending.
        let mut at = u64::MAX;
        let (cp, cp_header, gap) = loop {
            let Some(raw) = backend.checkpoint_at_or_before(at)? else {
                return Err(ChainError::Checkpoint("no usable checkpoint".into()));
            };
            let candidate = ChainCheckpoint::from_bytes(&raw.blob).ok().and_then(|cp| {
                let rec = backend.block_by_id(cp.head_id.as_bytes()).ok().flatten()?;
                // A record whose receipts do not decode is as unusable as
                // one whose block does not.
                let header = decode_block(&rec.block_bytes).ok()?.header;
                decode_receipts(&rec.receipts_bytes).ok()?;
                if header.state_root != cp.state.root() || header.height != cp.height {
                    return None;
                }
                let mut gap = Vec::new();
                let mut cur = cp.head_id;
                let mut h = cp.height;
                while h > frontier {
                    let rec = backend.block_by_id(cur.as_bytes()).ok().flatten()?;
                    if rec.height != h {
                        return None;
                    }
                    gap.push((h, cur));
                    cur = Hash256::from_bytes(rec.parent);
                    h -= 1;
                }
                (canonical.get(&h) == Some(&cur)).then_some((cp, header, gap))
            });
            match candidate {
                Some(found) => break found,
                None if raw.height == 0 => {
                    return Err(ChainError::Checkpoint("no usable checkpoint".into()));
                }
                None => at = raw.height - 1,
            }
        };
        // A backend reopened before its first segment was sealed reports
        // frontier 0 with genesis merely live in the WAL, not finalized.
        // Finalizing height 1 onto that would make the backend take 1 as
        // its base height and discard the genesis record as a dead fork
        // sibling, so genesis is re-finalized first.
        if backend.finalized_id(0)?.is_none() {
            backend.finalize(0, genesis_id.as_bytes())?;
        }
        for &(h, id) in gap.iter().rev() {
            backend.finalize(h, id.as_bytes())?;
            canonical.insert(h, id);
        }

        let mut window = HashMap::new();
        window.insert(
            genesis_id,
            StoredBlock {
                header: genesis_block.header,
                post_state: genesis_cp.state.clone(),
            },
        );
        let head = cp.head_id;
        if head != genesis_id {
            window.insert(
                head,
                StoredBlock {
                    header: cp_header,
                    post_state: cp.state.clone(),
                },
            );
        }
        let store = ChainStore {
            window,
            canonical,
            backend,
            retention: config.retention.max(1),
            checkpoint_interval: config.checkpoint_interval,
            last_checkpoint: cp.height,
            replaying: false,
            head,
            genesis: genesis_id,
            telemetry: TelemetrySink::disabled(),
            trace: TraceSink::disabled(),
            sig_cache: SigCache::default(),
        };
        Ok((store, cp))
    }

    /// Re-imports every storage record past the restored checkpoint (the
    /// WAL tail plus any finalized blocks above it), re-validating and
    /// re-executing each block, a run at a time
    /// ([`ChainStore::check_run`]). `executor`, restored from the
    /// checkpoint's extensions, is told of every tail block that extends
    /// the head, as on any import. Orphaned fork records (whose parents
    /// were discarded) are skipped and counted. Returns the number of
    /// blocks replayed.
    ///
    /// # Errors
    ///
    /// Validation or storage errors on canonical records (a canonical
    /// record that fails re-execution indicates corruption).
    pub fn replay_tail(&mut self, executor: &mut dyn TxExecutor) -> Result<u64, ChainError> {
        let _span = self.telemetry.span("chain.recover_replay_ns");
        let records = self.backend.blocks_after(self.last_checkpoint)?;
        self.replaying = true;
        let tally = self.replay_records(records, executor);
        self.replaying = false;
        let (replayed, orphaned) = tally?;
        self.telemetry
            .add("chain.recover.blocks_replayed", replayed);
        self.telemetry
            .add("chain.recover.orphans_skipped", orphaned);
        Ok(replayed)
    }

    /// The loop of [`ChainStore::replay_tail`]: decodes `records` into
    /// runs of at most one equation's worth of signatures and imports
    /// each run. Returns how many blocks were replayed and how many
    /// records were orphans.
    fn replay_records(
        &mut self,
        records: Vec<BlockRecord>,
        executor: &mut dyn TxExecutor,
    ) -> Result<(u64, u64), ChainError> {
        let (mut replayed, mut orphaned) = (0u64, 0u64);
        let mut import = |store: &mut Self, run: Vec<Block>| {
            for checked in store.check_run(&run) {
                match store.import_checked(checked, executor) {
                    Ok(_) => replayed += 1,
                    Err(ChainError::DuplicateBlock(_)) => {}
                    Err(
                        ChainError::UnknownParent(_)
                        | ChainError::BadHeight { .. }
                        | ChainError::TimestampRegression,
                    ) => orphaned += 1,
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        };
        let mut run = RunBuffer::default();
        let mut torn = 0u64;
        for rec in records {
            if self.window.contains_key(&Hash256::from_bytes(rec.id)) {
                continue;
            }
            match decode_block(&rec.block_bytes) {
                Ok(block) => {
                    if let Some(full) = run.push(block) {
                        import(self, full)?;
                    }
                }
                // A torn fork record past the last valid canonical
                // prefix; the WAL scan already truncated real tears,
                // so treat this as an orphan.
                Err(_) => torn += 1,
            }
        }
        import(self, run.take())?;
        Ok((replayed, orphaned + torn))
    }

    /// Routes the store's metrics (import latency, verification, reorg and
    /// recovery counters, backend `storage.*` series) to
    /// `sink`. The default sink is disabled, so an uninstrumented store
    /// records nothing.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.backend.set_telemetry(sink.clone());
        self.telemetry = sink;
    }

    /// Routes the store's spans to `sink`: per-block `chain.import` with
    /// `chain.execute` and, for a block no equation proved, `chain.verify`
    /// children; per-transaction `tx.apply`, and `tx.verify` from the
    /// per-block check. A sink changes what is recorded, never how a
    /// signature is checked.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The worker count the store verifies with: one, the calling thread.
    pub fn verify_pool(&self) -> tn_par::Pool {
        Default::default()
    }

    /// Replaces the verified-transaction cache. Use this to share one
    /// cache between the store and other pipeline stages (mempool,
    /// proposer) — see [`ChainStore::sig_cache`].
    pub fn set_sig_cache(&mut self, cache: SigCache) {
        self.sig_cache = cache;
    }

    /// A handle to the store's verified-transaction cache. Clones share
    /// the underlying cache, so handing this to the mempool means
    /// admission-time verification pre-warms block import.
    pub fn sig_cache(&self) -> SigCache {
        self.sig_cache.clone()
    }

    /// The genesis block id.
    pub fn genesis_id(&self) -> Hash256 {
        self.genesis
    }

    /// The canonical head block id.
    pub fn head_id(&self) -> Hash256 {
        self.head
    }

    /// Header of the canonical head block (always resident in the window).
    pub fn head_header(&self) -> &BlockHeader {
        &self.window[&self.head].header
    }

    /// The canonical head block, decoded from its backend record.
    ///
    /// # Panics
    ///
    /// When the backend cannot produce the head's record — it is appended
    /// before the block becomes head and never pruned while it is.
    pub fn head(&self) -> Block {
        self.block(&self.head)
            .expect("head block readable from the backend")
    }

    /// Height of the canonical head.
    pub fn height(&self) -> u64 {
        self.head_header().height
    }

    /// State after the canonical head.
    pub fn head_state(&self) -> &State {
        &self.window[&self.head].post_state
    }

    /// A shared reference to the storage backend.
    pub fn storage(&self) -> &dyn Storage {
        &*self.backend
    }

    /// Consumes the store, returning its backend (used by recovery tests
    /// and tooling to reopen the same storage).
    ///
    /// # Errors
    ///
    /// [`ChainError::Storage`] when the final flush fails.
    pub fn into_backend(mut self) -> Result<Box<dyn Storage>, ChainError> {
        self.backend.flush()?;
        Ok(self.backend)
    }

    /// Number of blocks whose header and post-state are held in the
    /// in-memory window (bounded by `retention` plus fork branches,
    /// regardless of chain length).
    pub fn resident_blocks(&self) -> usize {
        self.window.len()
    }

    /// True when the store holds the block `id` (canonical or fork),
    /// without reading it.
    pub fn contains(&self, id: &Hash256) -> bool {
        self.window.contains_key(id) || self.backend.contains_block(id.as_bytes())
    }

    /// Looks up a block by id, decoding it from its backend record
    /// (windowed and evicted heights alike).
    pub fn block(&self, id: &Hash256) -> Option<Block> {
        decode_block(&self.record(id).ok()?.block_bytes).ok()
    }

    /// Post-state of an arbitrary canonical block. Windowed blocks answer
    /// from memory; evicted heights are reconstructed by replaying from
    /// the nearest checkpoint at or below the height (sound with
    /// [`NoExecutor`]: contract execution never writes chain state).
    /// Returns `None` for unknown ids and for evicted non-canonical
    /// blocks (whose states are discarded with the fork).
    pub fn state_of(&self, id: &Hash256) -> Option<State> {
        if let Some(sb) = self.window.get(id) {
            return Some(sb.post_state.clone());
        }
        let rec = self.backend.block_by_id(id.as_bytes()).ok().flatten()?;
        if self.canonical.get(&rec.height) != Some(id) {
            return None;
        }
        self.state_at_height(rec.height)
    }

    /// Reconstructs the canonical state at `height` from checkpoint +
    /// forward replay.
    fn state_at_height(&self, height: u64) -> Option<State> {
        let _span = self.telemetry.span("chain.state_replay_ns");
        let raw = self
            .backend
            .checkpoint_at_or_before(height)
            .ok()
            .flatten()?;
        let cp = ChainCheckpoint::from_bytes(&raw.blob).ok()?;
        let mut state = cp.state;
        let mut replayed = 0u64;
        for h in cp.height + 1..=height {
            let rec = self.backend.block_by_height(h).ok().flatten()?;
            let block = decode_block(&rec.block_bytes).ok()?;
            for tx in &block.transactions {
                state
                    .apply_prechecked(tx, &block.header.proposer, &mut NoExecutor)
                    .ok()?;
            }
            replayed += 1;
        }
        self.telemetry.add("chain.state_replay_blocks", replayed);
        Some(state)
    }

    /// Receipts of an arbitrary stored block, decoded from its backend
    /// record.
    pub fn receipts_of(&self, id: &Hash256) -> Option<Vec<Receipt>> {
        decode_receipts(&self.record(id).ok()?.receipts_bytes).ok()
    }

    /// Index entries of the canonical blocks above the finalized frontier,
    /// lowest height first: the part of the chain the backend's own
    /// transaction and account indexes do not cover yet.
    fn unfinalized_index(&self) -> impl Iterator<Item = (u64, Arc<[TxIndexEntry]>)> + '_ {
        let frontier = self.backend.finalized_height();
        self.canonical
            .range(frontier + 1..)
            .filter_map(|(&h, id)| Some((h, self.record(id).ok()?.txs)))
    }

    /// Location (height, intra-block index) of a canonical transaction,
    /// covering both finalized history (backend index) and the recent
    /// window.
    pub fn tx_location(&self, tx: &Hash256) -> Option<TxLocation> {
        if let Ok(Some(loc)) = self.backend.tx_location(tx.as_bytes()) {
            return Some(loc);
        }
        self.unfinalized_index().find_map(|(height, txs)| {
            let index = txs.iter().position(|t| t.id == *tx.as_bytes())?;
            Some(TxLocation {
                height,
                index: index as u32,
            })
        })
    }

    /// Ids of canonical transactions touching `account` (sender,
    /// transfer recipient, or called contract), in chain order.
    pub fn account_txs(&self, account: &Address) -> Vec<Hash256> {
        let key = *account.as_hash().as_bytes();
        let mut out: Vec<Hash256> = self
            .backend
            .account_txs(&key)
            .unwrap_or_default()
            .into_iter()
            .map(Hash256::from_bytes)
            .collect();
        for (_, txs) in self.unfinalized_index() {
            out.extend(
                txs.iter()
                    .filter(|t| t.accounts().any(|a| *a == key))
                    .map(|t| Hash256::from_bytes(t.id)),
            );
        }
        out
    }

    /// Number of blocks known: the canonical chain plus windowed fork
    /// blocks (evicted forks are forgotten).
    pub fn len(&self) -> usize {
        let fork_blocks = self
            .window
            .iter()
            .filter(|(id, sb)| self.canonical.get(&sb.header.height) != Some(id))
            .count();
        self.canonical.len() + fork_blocks
    }

    /// Always false: the store always holds at least genesis.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Validates `block` against its parent and, if valid, makes it
    /// durable, stores it in the window and re-evaluates fork choice
    /// (longest chain; ties broken by smaller block id for determinism).
    ///
    /// This is the path of every block that arrives from elsewhere — a
    /// peer, state sync, the WAL on recovery, a snapshot — and trusts
    /// nothing about it: structure, signatures, parent, height, timestamp
    /// and state root are all checked before the record is appended. It is
    /// the run of one: [`ChainStore::check_run`], then
    /// [`ChainStore::import_checked`]. A proposer extending its own head
    /// uses [`ChainStore::commit`].
    ///
    /// # Errors
    ///
    /// Any structural or stateful [`ChainError`].
    pub fn import(
        &mut self,
        block: &Block,
        executor: &mut dyn TxExecutor,
    ) -> Result<Vec<Receipt>, ChainError> {
        let mut checked = [self.hashed(block)];
        self.prove(&mut checked);
        let [checked] = checked;
        self.import_checked(checked, executor)
    }

    /// Imports `blocks` in order — [`ChainStore::check_run`] over all of
    /// them, then [`ChainStore::import_checked`] one by one — and stops at
    /// the first block that is refused. Returns the receipts of the blocks
    /// imported and, when one was refused, why: verdict for verdict what
    /// calling [`ChainStore::import`] in a loop would have done.
    pub fn import_run(
        &mut self,
        blocks: &[Block],
        executor: &mut dyn TxExecutor,
    ) -> (Vec<Vec<Receipt>>, Result<(), ChainError>) {
        let mut imported = Vec::with_capacity(blocks.len());
        for checked in self.check_run(blocks) {
            match self.import_checked(checked, executor) {
                Ok(receipts) => imported.push(receipts),
                Err(err) => return (imported, Err(err)),
            }
        }
        (imported, Ok(()))
    }

    /// The signature pass over a run of blocks about to be imported in
    /// order: hashes every block once (`Block::hashes`) and settles all
    /// the signatures the run carries that this process has not seen —
    /// proposers' and transactions' alike — in equations of at most
    /// [`BATCH_CHUNK`] signatures, as many whole blocks to an equation as
    /// fit, before any block is executed ([`crate::block`] states the
    /// rule). Blocks the store already holds are left out: they are
    /// refused before any check.
    ///
    /// Changes nothing in the store but its sigcache, which only ever
    /// learns of signatures that verified. Hand each [`CheckedBlock`] to
    /// [`ChainStore::import_checked`], in order; what the caller does
    /// between two blocks (checkpoints, pruning) is its own business.
    pub fn check_run<'a>(&self, blocks: &'a [Block]) -> Vec<CheckedBlock<'a>> {
        let mut checked: Vec<_> = blocks.iter().map(|block| self.hashed(block)).collect();
        self.prove(&mut checked);
        checked
    }

    /// `block` with its hashes, nothing yet known of its signatures.
    fn hashed<'a>(&self, block: &'a Block) -> CheckedBlock<'a> {
        let _verify = self.telemetry.span("chain.verify_ns");
        CheckedBlock {
            block,
            hashes: block.hashes(),
            sigs: Sigs::Unproved,
        }
    }

    /// The signature pass of [`ChainStore::check_run`] over hashed blocks.
    fn prove(&self, checked: &mut [CheckedBlock<'_>]) {
        let _verify = self.telemetry.span("chain.verify_ns");
        let fresh: Vec<usize> = (0..checked.len())
            .filter(|&i| self.reject_known(&checked[i].hashes.id).is_ok())
            .collect();
        // One equation's worth of blocks at a time; a block larger than a
        // chunk is cut into several equations.
        let mut rest = fresh.as_slice();
        while !rest.is_empty() {
            let mut signatures = 0;
            let fits = |&&i: &&usize| {
                signatures += 1 + checked[i].block.transactions.len();
                signatures <= BATCH_CHUNK
            };
            let (together, later) = rest.split_at(rest.iter().take_while(fits).count().max(1));
            let run: Vec<(&Block, &BlockHashes)> = together
                .iter()
                .map(|&i| (checked[i].block, &checked[i].hashes))
                .collect();
            let proved = prove_run(&run, &self.sig_cache, &self.telemetry, BATCH_CHUNK);
            let unproved = if together.len() > 1 {
                Sigs::Shared
            } else {
                Sigs::Unproved
            };
            for (&i, proved) in together.iter().zip(proved) {
                checked[i].sigs = if proved { Sigs::Proved } else { unproved };
            }
            rest = later;
        }
    }

    /// Imports one block of a checked run: everything
    /// [`ChainStore::import`] checks, minus what
    /// [`ChainStore::check_run`] already settled.
    ///
    /// # Errors
    ///
    /// Any structural or stateful [`ChainError`], exactly the one
    /// [`ChainStore::import`] would report for the block at this point.
    pub fn import_checked(
        &mut self,
        checked: CheckedBlock<'_>,
        executor: &mut dyn TxExecutor,
    ) -> Result<Vec<Receipt>, ChainError> {
        if checked.sigs == Sigs::Shared {
            return self.import(checked.block, executor);
        }
        let block = checked.block;
        let ids = BlockIds::of(checked.hashes.id, &self.trace);
        self.timed_import(block, ids, |store| {
            let (post_state, receipts) = store.validate(&checked, executor, ids)?;
            store.accept(block, ids, post_state, receipts, executor)
        })
    }

    /// Counts a block this store refused.
    fn count_rejected(&self, err: &ChainError) {
        self.telemetry.incr("chain.blocks_rejected");
        self.telemetry.event("block_rejected", || err.to_string());
    }

    /// Runs `take` — whatever this store does to take `block` in — under
    /// the `chain.import` span and `chain.import_ns` timer, and counts
    /// the outcome.
    fn timed_import(
        &mut self,
        block: &Block,
        ids: BlockIds,
        take: impl FnOnce(&mut Self) -> Result<Vec<Receipt>, ChainError>,
    ) -> Result<Vec<Receipt>, ChainError> {
        let telemetry = self.telemetry.clone();
        let _span = telemetry.span("chain.import_ns");
        let trace = self.trace.clone();
        let t0 = trace.now_ns();
        let result = take(self);
        match &result {
            Ok(receipts) => {
                telemetry.incr("chain.blocks_imported");
                telemetry.add("chain.txs_executed", receipts.len() as u64);
                // The pipeline's commit span id is computable from the
                // block trace alone, so the link holds whether or not a
                // pipeline actually drove this import.
                trace.complete(
                    ids.trace,
                    "chain.import",
                    replica_span_id(ids.trace, "pipeline.commit", trace.replica()),
                    lanes::PIPELINE,
                    t0,
                    &[
                        ("height", block.header.height),
                        ("txs", block.transactions.len() as u64),
                    ],
                );
            }
            Err(err) => self.count_rejected(err),
        }
        result
    }

    /// Refuses a block the store already holds.
    fn reject_known(&self, id: &Hash256) -> Result<(), ChainError> {
        // During tail replay every record is, by definition, already in
        // the backend — only the window counts as "seen" then.
        if self.window.contains_key(id)
            || (!self.replaying && self.backend.contains_block(id.as_bytes()))
        {
            return Err(ChainError::DuplicateBlock(*id));
        }
        Ok(())
    }

    /// Checks everything about a block from elsewhere — not a duplicate,
    /// well-formed and signed (unless its run's signature pass proved
    /// that already), extends a known parent, re-executes to the state
    /// root its header claims — and returns the post-state and receipts
    /// that re-execution produced. Each transaction is hashed once: the
    /// ids [`ChainStore::check_run`] computed name the receipts.
    fn validate(
        &self,
        checked: &CheckedBlock<'_>,
        executor: &mut dyn TxExecutor,
        ids: BlockIds,
    ) -> Result<(State, Vec<Receipt>), ChainError> {
        let CheckedBlock {
            block,
            hashes,
            sigs,
        } = checked;
        self.reject_known(&ids.block)?;
        let trace = self.trace.clone();
        if *sigs != Sigs::Proved {
            let _verify = self.telemetry.span("chain.verify_ns");
            let v0 = trace.now_ns();
            let span = replica_span_id(ids.trace, "chain.verify", trace.replica());
            block.verify_hashed(hashes, &self.sig_cache, &self.telemetry, &trace, span)?;
            let txs = [("txs", block.transactions.len() as u64)];
            trace.complete(
                ids.trace,
                "chain.verify",
                ids.import,
                lanes::VERIFY,
                v0,
                &txs,
            );
        }
        let parent = self
            .window
            .get(&block.header.parent)
            .ok_or(ChainError::UnknownParent(block.header.parent))?;
        let expected_height = parent.header.height + 1;
        if block.header.height != expected_height {
            return Err(ChainError::BadHeight {
                expected: expected_height,
                actual: block.header.height,
            });
        }
        if block.header.timestamp < parent.header.timestamp {
            return Err(ChainError::TimestampRegression);
        }
        let mut state = parent.post_state.clone();
        let mut receipts = Vec::with_capacity(block.transactions.len());
        let e0 = trace.now_ns();
        let (proposer, height) = (&block.header.proposer, block.header.height);
        for (tx, tx_id) in block.transactions.iter().zip(&hashes.tx_ids) {
            // Signatures were checked by the signature pass; only
            // nonce/balance/execution remain.
            receipts.push(apply_traced(
                &mut state, tx, *tx_id, proposer, height, executor, &trace,
            )?);
        }
        trace.complete(
            ids.trace,
            "chain.execute",
            ids.import,
            lanes::EXECUTE,
            e0,
            &[("txs", block.transactions.len() as u64)],
        );
        if state.root() != block.header.state_root {
            return Err(ChainError::BadStateRoot);
        }
        Ok((state, receipts))
    }

    /// Takes a block whose post-state and receipts are known to be right —
    /// re-derived by [`ChainStore::import`], or just produced by
    /// [`ChainStore::commit`] — into the store: durable first, then the
    /// window, fork choice, the canonical map, the word to `executor` and
    /// eviction.
    fn accept(
        &mut self,
        block: &Block,
        ids: BlockIds,
        post_state: State,
        receipts: Vec<Receipt>,
        executor: &mut dyn TxExecutor,
    ) -> Result<Vec<Receipt>, ChainError> {
        let id = ids.block;
        // Durability before visibility: the record reaches the WAL before
        // the window or fork choice can see the block. During tail replay
        // the backend already holds the record.
        if !self.replaying {
            self.backend
                .append_block(block_record(block, &id, &receipts))?;
        }
        let height = block.header.height;
        let parent_id = block.header.parent;
        self.window.insert(
            id,
            StoredBlock {
                header: block.header.clone(),
                post_state,
            },
        );
        // Fork choice: longest chain, deterministic tie-break.
        let old_head = self.head;
        let head_height = self.height();
        if height > head_height || (height == head_height && id < self.head) {
            self.head = id;
        }
        if self.head == id {
            let extends = parent_id == old_head;
            if extends {
                self.canonical.insert(height, id);
            } else {
                // Reorg: the new head is not a child of the old one.
                self.telemetry.incr("chain.reorgs");
                self.rewrite_canonical();
            }
            self.backend.set_head(HeadMeta {
                height,
                id: *id.as_bytes(),
            })?;
            // Keep what the executor derives in step with the canonical
            // chain.
            if extends {
                executor.block_connected(block, &id, &receipts);
            } else {
                executor.history_replaced(self)?;
            }
            self.evict_and_finalize()?;
        }
        Ok(receipts)
    }

    /// Rewrites the canonical map after a reorg: walks the new head's
    /// ancestry (all within the window — reorg depth is bounded by the
    /// retention window) down to the fork point.
    fn rewrite_canonical(&mut self) {
        let mut cur = self.head;
        loop {
            let Some(sb) = self.window.get(&cur) else {
                // Ancestry left the window: impossible for a legal reorg
                // (fork parents below the finalized frontier are rejected
                // as UnknownParent), so this indicates a logic error.
                self.telemetry
                    .event("chain.reorg_below_window", String::new);
                break;
            };
            let h = sb.header.height;
            if self.canonical.get(&h) == Some(&cur) {
                break;
            }
            self.canonical.insert(h, cur);
            if h == 0 {
                break;
            }
            cur = sb.header.parent;
        }
        // Drop stale entries above the new head (only possible if the old
        // branch was longer, which fork choice forbids — kept for safety).
        let head_height = self.height();
        self.canonical.split_off(&(head_height + 1));
    }

    /// Finalizes heights that fell out of the retention window into the
    /// backend and evicts them (and any losing fork siblings) from
    /// memory. Genesis stays pinned.
    fn evict_and_finalize(&mut self) -> Result<(), ChainError> {
        let head_height = self.height();
        let bound = head_height.saturating_sub(self.retention);
        if bound == 0 {
            return Ok(());
        }
        let frontier = self.backend.finalized_height();
        for h in (frontier + 1)..=bound {
            let id = self.canonical.get(&h).ok_or_else(|| {
                ChainError::Storage(format!("canonical map has no block at height {h}"))
            })?;
            self.backend.finalize(h, id.as_bytes())?;
        }
        let genesis = self.genesis;
        self.window
            .retain(|id, sb| sb.header.height > bound || *id == genesis);
        Ok(())
    }

    /// True when the configured checkpoint interval has elapsed since the
    /// last checkpoint.
    pub fn checkpoint_due(&self) -> bool {
        self.checkpoint_interval > 0
            && self.height()
                >= self
                    .last_checkpoint
                    .saturating_add(self.checkpoint_interval)
    }

    /// Writes a checkpoint at the current head: the head state plus the
    /// caller's named `extensions`, in the order given (the saved state of
    /// whatever the executor derives: contract storage, projections).
    /// The WAL is
    /// flushed first so the checkpointed block is durable before the
    /// checkpoint that references it. Returns the checkpoint height.
    ///
    /// # Errors
    ///
    /// [`ChainError::Storage`] on backend write failures.
    pub fn checkpoint_now(
        &mut self,
        extensions: Vec<(String, Vec<u8>)>,
    ) -> Result<u64, ChainError> {
        let _span = self.telemetry.span("chain.checkpoint_ns");
        self.backend.flush()?;
        let height = self.height();
        let head_id = self.head;
        let cp = ChainCheckpoint {
            height,
            head_id,
            state: self.head_state().clone(),
            extensions,
        };
        self.backend
            .put_checkpoint(height, head_id.as_bytes(), &cp.to_bytes())?;
        self.last_checkpoint = height;
        self.telemetry.incr("chain.checkpoints");
        Ok(height)
    }

    /// Writes a checkpoint if one is due (see
    /// [`ChainStore::checkpoint_due`]); returns its height when written.
    ///
    /// # Errors
    ///
    /// [`ChainError::Storage`] on backend write failures.
    pub fn maybe_checkpoint(
        &mut self,
        extensions: Vec<(String, Vec<u8>)>,
    ) -> Result<Option<u64>, ChainError> {
        if self.checkpoint_due() {
            Ok(Some(self.checkpoint_now(extensions)?))
        } else {
            Ok(None)
        }
    }

    /// Forces buffered backend writes (WAL, head metadata) to durable
    /// storage.
    ///
    /// # Errors
    ///
    /// [`ChainError::Storage`] on fsync failure.
    pub fn flush(&mut self) -> Result<(), ChainError> {
        self.backend.flush()?;
        Ok(())
    }

    /// The backend record of a block the store knows.
    fn record(&self, id: &Hash256) -> Result<BlockRecord, ChainError> {
        self.backend
            .block_by_id(id.as_bytes())?
            .ok_or_else(|| ChainError::Storage(format!("backend has no record of block {id}")))
    }

    /// Walks the canonical chain genesis-first, decoding each block and
    /// its receipts from the backend and feeding them to `f`: the input
    /// every view derived from block history is a function of, for an
    /// audit replay or a rebuild after a reorg.
    ///
    /// # Errors
    ///
    /// [`ChainError::Storage`] when the backend lacks a canonical record
    /// or fails to read one; decode errors.
    pub fn for_each_canonical(
        &self,
        f: &mut dyn FnMut(&Block, &[Receipt]),
    ) -> Result<(), ChainError> {
        for id in self.canonical.values() {
            let rec = self.record(id)?;
            f(
                &decode_block(&rec.block_bytes)?,
                &decode_receipts(&rec.receipts_bytes)?,
            );
        }
        Ok(())
    }

    /// The proposer's one pass over `txs`: drops those whose signature
    /// does not verify, executes the rest in order against a copy of the
    /// head state — dropping, untouched, those the state refuses (nonce,
    /// balance) — and builds and signs the block over what is left. The
    /// signatures are settled as admission settles them ([`prove_txs`]);
    /// only a failed equation's share is checked alone, in order. Each
    /// transaction is hashed at most once: a bare one here, one paired with
    /// its id not at all; the id keys the sigcache, names the receipt and
    /// is the leaf of the transaction root.
    /// With `trace` enabled each applied transaction records its `tx.apply`
    /// span.
    fn assemble(
        &self,
        proposer: &Keypair,
        timestamp: u64,
        txs: Vec<impl Into<(Hash256, Transaction)>>,
        executor: &mut dyn TxExecutor,
        trace: &TraceSink,
    ) -> Proposal {
        let v0 = trace.now_ns();
        let mut txs: Vec<(Hash256, Transaction)> = {
            let _verify = self.telemetry.span("chain.verify_ns");
            let txs: Vec<_> = txs.into_iter().map(Into::into).collect();
            let (cache, telemetry) = (&self.sig_cache, &self.telemetry);
            let proved = prove_txs(
                &txs,
                |_| true,
                usize::MAX,
                b"TN/propose",
                BATCH_CHUNK,
                cache,
                telemetry,
            );
            let verified = |((id, tx), proved): &(_, bool)| {
                *proved || cache.verify_identified(tx, *id, telemetry).is_ok()
            };
            let txs = txs.into_iter().zip(proved).filter(verified);
            txs.map(|(tx, _)| tx).collect()
        };
        let e0 = trace.now_ns();
        let (address, height) = (proposer.address(), self.height() + 1);
        let mut post_state = self.head_state().clone();
        let mut receipts = Vec::with_capacity(txs.len());
        txs.retain(|(id, tx)| {
            apply_traced(&mut post_state, tx, *id, &address, height, executor, trace)
                .map(|receipt| receipts.push(receipt))
                .is_ok()
        });
        let e1 = trace.now_ns();
        let (parent, root) = (self.head, post_state.root());
        let (block, id) = Block::build_identified(proposer, height, parent, root, timestamp, txs);
        Proposal {
            block,
            id,
            post_state,
            receipts,
            verify_ns: (v0, e0),
            execute_ns: (e0, e1),
        }
    }

    /// Produces (but does not import) a block extending the canonical head,
    /// executing `txs` against the head state. Transactions that fail
    /// validation are skipped (like a real proposer dropping invalid txs).
    /// The header signature made here is noted in the store's sigcache,
    /// so importing the block into this store does not verify it again.
    pub fn propose(
        &self,
        proposer: &Keypair,
        timestamp: u64,
        txs: Vec<Transaction>,
        executor: &mut dyn TxExecutor,
    ) -> Block {
        let Proposal { block, id, .. } =
            self.assemble(proposer, timestamp, txs, executor, &TraceSink::disabled());
        self.sig_cache.insert(block.header_sig_memo(&id));
        block
    }

    /// Extends the canonical head with a block of this store's own making,
    /// in one pass: selects and executes `txs` as [`ChainStore::propose`]
    /// does — but against the authoritative `executor` — keeps the
    /// post-state and receipts that execution produced, signs the block
    /// and accepts it. Nothing is verified, executed or hashed a second
    /// time: the signatures were checked during selection, the transaction
    /// root and the state root were computed to build the header, and the
    /// header was signed here. `txs` may come with their ids, as
    /// [`Mempool::select_identified`](crate::mempool::Mempool::select_identified)
    /// hands them out, or bare, each then hashed once.
    ///
    /// Spans: `chain.propose` (selection to signature) with `chain.verify`
    /// and `chain.execute` beneath it, then `chain.import` around the
    /// accept.
    ///
    /// # Errors
    ///
    /// [`ChainError::TimestampRegression`] before anything is executed;
    /// afterwards only what accepting can raise (storage failures).
    pub fn commit(
        &mut self,
        proposer: &Keypair,
        timestamp: u64,
        txs: Vec<impl Into<(Hash256, Transaction)>>,
        executor: &mut dyn TxExecutor,
    ) -> Result<(Block, Vec<Receipt>), ChainError> {
        if timestamp < self.head_header().timestamp {
            let err = ChainError::TimestampRegression;
            self.count_rejected(&err);
            return Err(err);
        }
        let trace = self.trace.clone();
        let t0 = trace.now_ns();
        let Proposal {
            block,
            id,
            post_state,
            receipts,
            verify_ns,
            execute_ns,
        } = self.assemble(proposer, timestamp, txs, executor, &trace);
        debug_assert_eq!(block.verify_structure(), Ok(()));
        let ids = BlockIds::of(id, &trace);
        if trace.is_enabled() {
            // The block id exists only now, so the spans of the work that
            // led to it are recorded after the fact; ids are deterministic,
            // so the root span the pipeline records later still links up.
            let commit = replica_span_id(ids.trace, "pipeline.commit", trace.replica());
            let propose = replica_span_id(ids.trace, "chain.propose", trace.replica());
            let txs = [("txs", block.transactions.len() as u64)];
            for (name, lane, (start, end)) in [
                ("chain.verify", lanes::VERIFY, verify_ns),
                ("chain.execute", lanes::EXECUTE, execute_ns),
            ] {
                trace.complete_at(ids.trace, name, propose, lane, start, end, &txs);
            }
            trace.complete(
                ids.trace,
                "chain.propose",
                commit,
                lanes::PIPELINE,
                t0,
                &txs,
            );
        }
        let receipts = self.timed_import(&block, ids, |store| {
            store.reject_known(&ids.block)?;
            store.accept(&block, ids, post_state, receipts, executor)
        })?;
        Ok((block, receipts))
    }

    /// The canonical chain as block ids, head first down to genesis.
    pub fn canonical_chain(&self) -> Vec<Hash256> {
        self.canonical.values().rev().copied().collect()
    }

    /// Iterates all transactions on the canonical chain in execution order
    /// (genesis-era first). Used by the indexing layers (supply-chain graph,
    /// ratings ledger).
    pub fn canonical_transactions(&self) -> Vec<Transaction> {
        let mut out = Vec::new();
        self.for_each_canonical(&mut |block, _| {
            out.extend(block.transactions.iter().cloned());
        })
        .expect("canonical history readable");
        out
    }

    /// Convenience accessor: the balance of `addr` at the head state.
    pub fn balance(&self, addr: &Address) -> u64 {
        self.head_state().balance(addr)
    }

    /// Serializes the chain — genesis state, genesis block, the full
    /// canonical chain and any windowed fork blocks — into one snapshot
    /// blob (see [`ChainStore::restore`]). Evicted fork blocks are not
    /// included (they can never become canonical again).
    ///
    /// A record's block bytes are the block's canonical encoding, so the
    /// snapshot is assembled from them without decoding anything, in a
    /// buffer reserved once for the total.
    ///
    /// # Panics
    ///
    /// When a canonical block cannot be read back from the backend (the
    /// disk is corrupt).
    pub fn snapshot(&self) -> Vec<u8> {
        // Height order (parents before children), deterministic tie-break.
        let mut ids: Vec<(u64, Hash256)> = self
            .canonical
            .iter()
            .map(|(&h, id)| (h, *id))
            .chain(
                self.window
                    .iter()
                    .filter(|(id, sb)| self.canonical.get(&sb.header.height) != Some(id))
                    .map(|(id, sb)| (sb.header.height, *id)),
            )
            .collect();
        ids.sort_unstable();
        let bodies: Vec<Arc<[u8]>> = ids
            .iter()
            .map(|(_, id)| {
                self.record(id)
                    .expect("canonical block readable")
                    .block_bytes
            })
            .collect();
        let (genesis, rest) = bodies.split_first().expect("genesis is canonical");
        let mut enc = Encoder::new();
        self.window[&self.genesis].post_state.encode(&mut enc);
        // The block count is a varint of at most ten bytes.
        enc.reserve_exact(10 + bodies.iter().map(|b| b.len()).sum::<usize>());
        enc.put_raw(genesis).put_varint(rest.len() as u64);
        for body in rest {
            enc.put_raw(body);
        }
        enc.finish()
    }

    /// Restores a chain from a snapshot, re-validating and re-executing
    /// every block against `executor` (so the restored state is recomputed,
    /// never trusted from the snapshot). Blocks are decoded and imported a
    /// run at a time ([`ChainStore::import_run`]). The restored store runs
    /// on a fresh in-memory backend.
    ///
    /// # Errors
    ///
    /// Decode errors or any validation error hit during replay.
    pub fn restore(bytes: &[u8], executor: &mut dyn TxExecutor) -> Result<ChainStore, ChainError> {
        let mut dec = Decoder::new(bytes);
        let genesis_state = State::decode(&mut dec)?;
        let genesis_block = Block::decode(&mut dec)?;
        genesis_block.verify_structure()?;
        if genesis_block.header.height != 0
            || genesis_block.header.state_root != genesis_state.root()
        {
            return Err(ChainError::BadStateRoot);
        }
        let config = StorageConfig::default();
        let backend = config.build()?;
        let mut store = Self::from_genesis(genesis_block, genesis_state, backend, &config)?;
        let n = dec.get_varint()?;
        if n > 10_000_000 {
            return Err(crate::codec::DecodeError::BadLength(n).into());
        }
        // Decoded a run at a time, never whole: the buffer holds at most
        // one equation's worth of signatures.
        let mut run = RunBuffer::default();
        for _ in 0..n {
            match Block::decode(&mut dec) {
                Ok(block) => {
                    if let Some(full) = run.push(block) {
                        store.import_run(&full, executor).1?;
                    }
                }
                Err(err) => {
                    // What decoded before the damage is judged first, as
                    // it was when each block was imported on decoding.
                    store.import_run(&run.take(), executor).1?;
                    return Err(err.into());
                }
            }
        }
        store.import_run(&run.take(), executor).1?;
        dec.expect_end().map_err(ChainError::from)?;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NoExecutor;
    use crate::transaction::Payload;
    use tn_storage::MemBackend;

    fn alice() -> Keypair {
        Keypair::from_seed(b"alice")
    }

    fn proposer() -> Keypair {
        Keypair::from_seed(b"proposer")
    }

    fn store_with_funds() -> ChainStore {
        let state = State::genesis([(alice().address(), 10_000)]);
        ChainStore::new(state, &proposer())
    }

    fn blob(nonce: u64) -> Transaction {
        Transaction::signed(
            &alice(),
            nonce,
            1,
            Payload::Blob {
                tag: 1,
                data: vec![nonce as u8],
            },
        )
    }

    fn tight_config() -> StorageConfig {
        StorageConfig {
            retention: 4,
            checkpoint_interval: 8,
            ..StorageConfig::default()
        }
    }

    fn tight_store() -> ChainStore {
        let state = State::genesis([(alice().address(), 10_000)]);
        ChainStore::with_config(state, &proposer(), tight_config()).expect("builds")
    }

    #[test]
    fn genesis_is_head() {
        let store = store_with_funds();
        assert_eq!(store.height(), 0);
        assert_eq!(store.head_id(), store.genesis_id());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn propose_and_import_extends_chain() {
        let mut store = store_with_funds();
        let block = store.propose(&proposer(), 10, vec![blob(0), blob(1)], &mut NoExecutor);
        let receipts = store.import(&block, &mut NoExecutor).expect("imports");
        assert_eq!(receipts.len(), 2);
        assert!(receipts.iter().all(|r| r.success));
        assert_eq!(store.height(), 1);
        assert_eq!(store.head_id(), block.id());
        // Fees accrued to proposer.
        assert_eq!(store.balance(&proposer().address()), 2);
    }

    #[test]
    fn duplicate_block_rejected() {
        let mut store = store_with_funds();
        let block = store.propose(&proposer(), 10, vec![blob(0)], &mut NoExecutor);
        store.import(&block, &mut NoExecutor).expect("first import");
        assert!(matches!(
            store.import(&block, &mut NoExecutor),
            Err(ChainError::DuplicateBlock(_))
        ));
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut store = store_with_funds();
        let block = Block::build(
            &proposer(),
            1,
            tn_crypto::sha256::sha256(b"nowhere"),
            Hash256::ZERO,
            10,
            vec![],
        );
        assert!(matches!(
            store.import(&block, &mut NoExecutor),
            Err(ChainError::UnknownParent(_))
        ));
    }

    #[test]
    fn wrong_height_rejected() {
        let mut store = store_with_funds();
        let block = Block::build(
            &proposer(),
            5,
            store.head_id(),
            store.head_state().root(),
            10,
            vec![],
        );
        assert!(matches!(
            store.import(&block, &mut NoExecutor),
            Err(ChainError::BadHeight {
                expected: 1,
                actual: 5
            })
        ));
    }

    #[test]
    fn wrong_state_root_rejected() {
        let mut store = store_with_funds();
        let block = Block::build(
            &proposer(),
            1,
            store.head_id(),
            tn_crypto::sha256::sha256(b"bogus state"),
            10,
            vec![],
        );
        assert!(matches!(
            store.import(&block, &mut NoExecutor),
            Err(ChainError::BadStateRoot)
        ));
    }

    #[test]
    fn timestamp_regression_rejected() {
        let mut store = store_with_funds();
        let b1 = store.propose(&proposer(), 100, vec![], &mut NoExecutor);
        store.import(&b1, &mut NoExecutor).expect("imports");
        let mut state = store.head_state().clone();
        let b2 = Block::build(&proposer(), 2, store.head_id(), state.root(), 50, vec![]);
        let _ = &mut state;
        assert!(matches!(
            store.import(&b2, &mut NoExecutor),
            Err(ChainError::TimestampRegression)
        ));
    }

    #[test]
    fn longest_chain_wins_reorg() {
        let mut store = store_with_funds();
        let genesis = store.head_id();
        let p1 = proposer();
        let p2 = Keypair::from_seed(b"rival");

        // Branch A: one block on genesis.
        let a1 = store.propose(&p1, 10, vec![blob(0)], &mut NoExecutor);
        store.import(&a1, &mut NoExecutor).expect("a1");
        assert_eq!(store.head_id(), a1.id());

        // Branch B: two blocks on genesis → should win.
        let genesis_state = store.state_of(&genesis).expect("genesis state").clone();
        let b1 = Block::build(&p2, 1, genesis, genesis_state.root(), 11, vec![]);
        store.import(&b1, &mut NoExecutor).expect("b1");
        let b1_state = store.state_of(&b1.id()).expect("b1 state").clone();
        let b2 = Block::build(&p2, 2, b1.id(), b1_state.root(), 12, vec![]);
        store.import(&b2, &mut NoExecutor).expect("b2");

        assert_eq!(store.head_id(), b2.id());
        assert_eq!(store.height(), 2);
        let chain = store.canonical_chain();
        assert_eq!(chain, vec![b2.id(), b1.id(), genesis]);
    }

    #[test]
    fn canonical_transactions_in_order() {
        let mut store = store_with_funds();
        let b1 = store.propose(&proposer(), 1, vec![blob(0)], &mut NoExecutor);
        store.import(&b1, &mut NoExecutor).expect("b1");
        let b2 = store.propose(&proposer(), 2, vec![blob(1), blob(2)], &mut NoExecutor);
        store.import(&b2, &mut NoExecutor).expect("b2");
        let txs = store.canonical_transactions();
        assert_eq!(txs.len(), 3);
        let nonces: Vec<u64> = txs.iter().map(|t| t.nonce).collect();
        assert_eq!(nonces, vec![0, 1, 2]);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut store = store_with_funds();
        for i in 0..4u64 {
            let block = store.propose(&proposer(), 10 + i, vec![blob(i)], &mut NoExecutor);
            store.import(&block, &mut NoExecutor).expect("imports");
        }
        let snap = store.snapshot();
        let restored = ChainStore::restore(&snap, &mut NoExecutor).expect("restores");
        assert_eq!(restored.head_id(), store.head_id());
        assert_eq!(restored.height(), store.height());
        assert_eq!(restored.head_state().root(), store.head_state().root());
        assert_eq!(restored.canonical_chain(), store.canonical_chain());
        // The restored store keeps working.
        let mut restored = restored;
        let block = restored.propose(&proposer(), 99, vec![blob(4)], &mut NoExecutor);
        restored.import(&block, &mut NoExecutor).expect("extends");
        assert_eq!(restored.height(), 5);
    }

    #[test]
    fn restore_rejects_tampered_snapshot() {
        let mut store = store_with_funds();
        let block = store.propose(&proposer(), 10, vec![blob(0)], &mut NoExecutor);
        store.import(&block, &mut NoExecutor).expect("imports");
        let snap = store.snapshot();
        // Flip one byte near the end (inside the last block's signature or
        // payload): restore must fail, never silently accept.
        for flip in [snap.len() - 1, snap.len() / 2] {
            let mut bad = snap.clone();
            bad[flip] ^= 0xff;
            assert!(
                ChainStore::restore(&bad, &mut NoExecutor).is_err(),
                "tampered snapshot (byte {flip}) accepted"
            );
        }
        assert!(ChainStore::restore(&[], &mut NoExecutor).is_err());
    }

    #[test]
    fn propose_skips_invalid_txs() {
        let store = store_with_funds();
        // Bad nonce tx is dropped by the proposer.
        let good = blob(0);
        let bad = blob(7);
        let block = store.propose(&proposer(), 1, vec![bad, good], &mut NoExecutor);
        assert_eq!(block.transactions.len(), 1);
        assert_eq!(block.transactions[0].nonce, 0);
    }

    #[test]
    fn header_signature_is_recorded_by_signing_or_a_held_equation_only() {
        let mut store = store_with_funds();
        let block = store.propose(&proposer(), 1, vec![blob(0)], &mut NoExecutor);
        let memo = |b: &Block| b.header_sig_memo(&b.header.digest());
        assert!(store.sig_cache().contains(&memo(&block)), "signed here");
        // The memo covers the exact triple only: any other signature or
        // header on the same block misses it, fails its equation and the
        // real check after it, and leaves nothing behind.
        let mut resigned = block.clone();
        resigned.signature = alice().sign(&block.header.digest());
        let mut redated = block.clone();
        redated.header.timestamp += 1;
        for forged in [&resigned, &redated] {
            assert_eq!(
                store.import(forged, &mut NoExecutor),
                Err(ChainError::BadSignature)
            );
            assert!(!store.sig_cache().contains(&memo(forged)));
        }
        store.import(&block, &mut NoExecutor).expect("imports");
        // A store that did not propose the block proves the header beside
        // the transaction, in one equation, and records both.
        let mut follower = store_with_funds();
        follower.import(&block, &mut NoExecutor).expect("imports");
        assert!(follower.sig_cache().contains(&memo(&block)));
        assert_eq!(follower.sig_cache().len(), 2);
        // A run whose equation fails records nothing — not the bad block's
        // signatures, not its valid neighbour's. Each block is then checked
        // alone: block 1's own equation holds and is recorded, the forged
        // block's fails again and so does the real check after it.
        let mut cold = store_with_funds();
        let next = store.propose(&proposer(), 2, vec![blob(1)], &mut NoExecutor);
        let mut forged = next.clone();
        forged.signature = alice().sign(&next.header.digest());
        let (imported, verdict) = cold.import_run(&[block.clone(), forged], &mut NoExecutor);
        assert_eq!(imported.len(), 1);
        assert_eq!(verdict, Err(ChainError::BadSignature));
        assert!(
            cold.sig_cache().contains(&memo(&block)),
            "block 1 alone held"
        );
        assert!(!cold.sig_cache().contains(&memo(&next)));
        assert_eq!(cold.sig_cache().len(), 2, "block 1: header and transaction");
    }

    #[test]
    fn commit_is_propose_and_import_in_one_pass() {
        let mut one = store_with_funds();
        let mut two = store_with_funds();
        for (i, txs) in [vec![blob(0), blob(1)], vec![], vec![blob(7), blob(2)]]
            .into_iter()
            .enumerate()
        {
            let ts = 10 + i as u64;
            let (block, receipts) = one
                .commit(&proposer(), ts, txs.clone(), &mut NoExecutor)
                .expect("commits");
            let proposed = two.propose(&proposer(), ts, txs, &mut NoExecutor);
            assert_eq!(block, proposed);
            assert_eq!(
                receipts,
                two.import(&proposed, &mut NoExecutor).expect("imports")
            );
            assert_eq!(one.head_id(), block.id());
            assert_eq!(one.head_state(), two.head_state());
            assert_eq!(one.head_state().root(), block.header.state_root);
            assert_eq!(one.receipts_of(&block.id()), Some(receipts));
        }
        assert_eq!(one.height(), 3);
        assert_eq!(one.snapshot(), two.snapshot());
        // The bad-nonce blob(7) was dropped, not committed.
        assert_eq!(one.head().transactions.len(), 1);
        // Committing checked no header signature, so it noted none.
        let head = one.head();
        assert!(!one
            .sig_cache()
            .contains(&head.header_sig_memo(&head.header.digest())));
    }

    /// A block cut from the mempool is built on the ids admission computed:
    /// committing it hashes no transaction (the structural check a debug
    /// build runs on every block `commit` makes aside) and gives what
    /// committing the same transactions bare gives.
    #[test]
    fn committing_a_mempool_selection_hashes_no_transaction() {
        use crate::{mempool::Mempool, transaction::IDS_COMPUTED};
        let (mut one, mut two) = (store_with_funds(), store_with_funds());
        let mut pool = Mempool::new(16);
        for nonce in [0, 1, 2, 4] {
            pool.insert(blob(nonce), one.head_state()).expect("admits");
        }
        let (selected, bare) = (
            pool.select_identified(one.head_state(), 16),
            pool.select(one.head_state(), 16),
        );
        let ids = || IDS_COMPUTED.with(|count| count.get());
        let before = ids();
        let (block, receipts) = one
            .commit(&proposer(), 1, selected, &mut NoExecutor)
            .expect("commits");
        assert_eq!(ids() - before, if cfg!(debug_assertions) { 3 } else { 0 });
        let reference = two
            .commit(&proposer(), 1, bare, &mut NoExecutor)
            .expect("commits");
        assert_eq!(block.transactions.len(), 3, "nonce 4 waits behind a gap");
        assert_eq!(encode_block(&block), encode_block(&reference.0));
        assert_eq!(receipts, reference.1);
        assert_eq!(one.head_state().root(), two.head_state().root());
    }

    #[test]
    fn commit_refuses_a_timestamp_behind_the_head_before_executing() {
        let mut store = store_with_funds();
        store
            .commit(&proposer(), 100, vec![blob(0)], &mut NoExecutor)
            .expect("commits");
        let head = store.head_id();
        assert_eq!(
            store.commit(&proposer(), 99, vec![blob(1)], &mut NoExecutor),
            Err(ChainError::TimestampRegression)
        );
        assert_eq!(store.head_id(), head);
        assert_eq!(store.head_state().nonce(&alice().address()), 1);
    }

    /// Swapping two account entries of a snapshot's genesis table, or
    /// naming one address twice, fails in the decoder with a typed error —
    /// not later, as a state-root mismatch over whatever entry won.
    #[test]
    fn restore_rejects_a_non_canonical_state_table() {
        let bob = Keypair::from_seed(b"bob").address();
        let state = State::genesis([(alice().address(), 10_000), (bob, 5), (Address::SYSTEM, 1)]);
        let mut store = ChainStore::new(state, &proposer());
        store
            .commit(&proposer(), 10, vec![blob(0)], &mut NoExecutor)
            .expect("commits");
        let snap = store.snapshot();
        ChainStore::restore(&snap, &mut NoExecutor).expect("canonical snapshot restores");
        // Account count (1 byte), then 48-byte entries.
        let entry = |i: usize| 1 + 48 * i..1 + 48 * (i + 1);
        let mut swapped = snap.clone();
        swapped.copy_within(entry(2), entry(1).start);
        swapped[entry(2)].copy_from_slice(&snap[entry(1)]);
        let mut doubled = snap.clone();
        doubled.copy_within(entry(0), entry(1).start);
        for bad in [swapped, doubled] {
            assert_eq!(
                ChainStore::restore(&bad, &mut NoExecutor).err(),
                Some(ChainError::Decode(crate::codec::DecodeError::UnsortedKeys))
            );
        }
    }

    /// The header's state root is the oracle: whatever a block went
    /// through — committed here or imported, on the branch that lost and
    /// won again, still in the window or evicted and replayed from a
    /// checkpoint — `state_of` must hash to it.
    #[test]
    fn state_of_matches_header_roots_across_reorg_checkpoint_and_eviction() {
        let mut store = tight_store();
        let rival = Keypair::from_seed(b"rival");
        let genesis = store.genesis_id();
        let mut ids = vec![genesis];
        // Height 1 by commit; then a two-block rival branch from genesis
        // takes over (reorg), and the chain continues on it.
        store
            .commit(&proposer(), 10, vec![blob(0)], &mut NoExecutor)
            .expect("commits");
        let root0 = store.state_of(&genesis).expect("genesis state").root();
        let r1 = Block::build(&rival, 1, genesis, root0, 11, vec![]);
        store.import(&r1, &mut NoExecutor).expect("r1");
        let r2 = Block::build(&rival, 2, r1.id(), root0, 12, vec![]);
        store.import(&r2, &mut NoExecutor).expect("r2");
        assert_eq!(store.head_id(), r2.id(), "reorg onto the rival branch");
        ids.extend([r1.id(), r2.id()]);
        for i in 0..22u64 {
            let ts = 20 + i;
            let id = if i % 2 == 0 {
                let (block, _) = store
                    .commit(&proposer(), ts, vec![blob(i)], &mut NoExecutor)
                    .expect("commits");
                block.id()
            } else {
                let block = store.propose(&proposer(), ts, vec![blob(i)], &mut NoExecutor);
                store.import(&block, &mut NoExecutor).expect("imports");
                block.id()
            };
            ids.push(id);
            store.maybe_checkpoint(Vec::new()).expect("checkpoints");
        }
        assert_eq!(store.height(), 24);
        assert_eq!(store.storage().finalized_height(), 20);
        assert!(
            store
                .storage()
                .checkpoint_at_or_before(24)
                .unwrap()
                .unwrap()
                .height
                >= 16
        );
        assert!(store.resident_blocks() <= 5);
        for (h, id) in ids.iter().enumerate() {
            let header = store.block(id).expect("block readable").header;
            assert_eq!(header.height, h as u64);
            let state = store.state_of(id).expect("state available");
            assert_eq!(state.root(), header.state_root, "height {h}");
        }
    }

    #[test]
    fn eviction_bounds_window_and_serves_old_queries() {
        let mut store = tight_store();
        let mut ids = Vec::new();
        for i in 0..20u64 {
            let block = store.propose(&proposer(), 10 + i, vec![blob(i)], &mut NoExecutor);
            ids.push(block.id());
            store.import(&block, &mut NoExecutor).expect("imports");
        }
        // Window is bounded: retention blocks + pinned genesis.
        assert!(
            store.resident_blocks() <= 4 + 1,
            "window holds {} blocks",
            store.resident_blocks()
        );
        // Canonical map and chain walks still cover everything.
        assert_eq!(store.canonical_chain().len(), 21);
        assert_eq!(store.canonical_transactions().len(), 20);
        // Evicted blocks, receipts and states answer from the backend.
        let old = &ids[2];
        let block = store.block(old).expect("old block readable");
        assert_eq!(block.header.height, 3);
        let receipts = store.receipts_of(old).expect("old receipts readable");
        assert_eq!(receipts.len(), 1);
        let state = store.state_of(old).expect("old state reconstructed");
        assert_eq!(state.root(), block.header.state_root);
        // Evicted duplicate still rejected as duplicate.
        let dup = store.block(old).unwrap();
        assert!(matches!(
            store.import(&dup, &mut NoExecutor),
            Err(ChainError::DuplicateBlock(_))
        ));
    }

    #[test]
    fn tx_and_account_index_cover_window_and_finalized() {
        let mut store = tight_store();
        let mut tx_ids = Vec::new();
        for i in 0..12u64 {
            let tx = blob(i);
            tx_ids.push(tx.id());
            let block = store.propose(&proposer(), 10 + i, vec![tx], &mut NoExecutor);
            store.import(&block, &mut NoExecutor).expect("imports");
        }
        for (i, tx_id) in tx_ids.iter().enumerate() {
            let loc = store.tx_location(tx_id).expect("tx located");
            assert_eq!(loc.height, i as u64 + 1);
            assert_eq!(loc.index, 0);
        }
        let by_account = store.account_txs(&alice().address());
        assert_eq!(by_account, tx_ids);
    }

    #[test]
    fn checkpoint_recovery_round_trip() {
        let mut store = tight_store();
        for i in 0..19u64 {
            let block = store.propose(&proposer(), 10 + i, vec![blob(i)], &mut NoExecutor);
            store.import(&block, &mut NoExecutor).expect("imports");
            store.maybe_checkpoint(Vec::new()).expect("checkpoints");
        }
        let head = store.head_id();
        let height = store.height();
        let root = store.head_state().root();
        let chain = store.canonical_chain();

        // "Crash": drop the store, keep the backend, reopen.
        let backend = store.into_backend().expect("flushes");
        let (mut recovered, cp) =
            ChainStore::open_recovering(backend, &tight_config()).expect("recovers");
        assert_eq!(cp.height, 16, "latest periodic checkpoint");
        let replayed = recovered.replay_tail(&mut NoExecutor).expect("replays");
        assert_eq!(replayed, height - cp.height, "restart cost ∝ tail length");
        assert_eq!(recovered.head_id(), head);
        assert_eq!(recovered.height(), height);
        assert_eq!(recovered.head_state().root(), root);
        assert_eq!(recovered.canonical_chain(), chain);

        // The recovered store keeps working.
        let block = recovered.propose(&proposer(), 99, vec![blob(19)], &mut NoExecutor);
        recovered.import(&block, &mut NoExecutor).expect("extends");
        assert_eq!(recovered.height(), height + 1);
    }

    #[test]
    fn recovery_without_periodic_checkpoints_replays_from_genesis() {
        let cfg = StorageConfig {
            retention: 4,
            checkpoint_interval: 0,
            ..StorageConfig::default()
        };
        let state = State::genesis([(alice().address(), 10_000)]);
        let mut store =
            ChainStore::with_backend(state, &proposer(), Box::new(MemBackend::new()), &cfg)
                .expect("builds");
        for i in 0..9u64 {
            let block = store.propose(&proposer(), 10 + i, vec![blob(i)], &mut NoExecutor);
            store.import(&block, &mut NoExecutor).expect("imports");
        }
        let head = store.head_id();
        let backend = store.into_backend().expect("flushes");
        let (mut recovered, cp) = ChainStore::open_recovering(backend, &cfg).expect("recovers");
        assert_eq!(cp.height, 0, "only the genesis checkpoint exists");
        let replayed = recovered.replay_tail(&mut NoExecutor).expect("replays");
        assert_eq!(replayed, 9);
        assert_eq!(recovered.head_id(), head);
    }

    #[test]
    fn window_entries_hold_no_body() {
        let mut store = store_with_funds();
        let block = store.propose(&proposer(), 10, vec![blob(0), blob(1)], &mut NoExecutor);
        store.import(&block, &mut NoExecutor).expect("imports");
        // Exhaustive: a new field (a transaction list, say) fails to compile
        // here and has to be argued for.
        let StoredBlock { header, post_state } = &store.window[&block.id()];
        assert_eq!(*header, block.header);
        assert_eq!(post_state.root(), block.header.state_root);
        // The body and the receipts come from the backend record, and the
        // record's bytes are the canonical encoding.
        let rec = store.record(&block.id()).expect("record");
        assert_eq!(&rec.block_bytes[..], &encode_block(&block)[..]);
        assert_eq!(store.block(&block.id()), Some(block.clone()));
        assert_eq!(store.head(), block);
        assert_eq!(store.receipts_of(&block.id()).map(|r| r.len()), Some(2));
        assert!(store.contains(&block.id()));
        assert!(!store.contains(&tn_crypto::sha256::sha256(b"no such block")));
    }

    // Compaction is gone; the name is kept, the checkpoint half stays.
    #[test]
    fn pruned_checkpoints_still_serve_history_recovery_and_compaction() {
        // 60 blocks, a checkpoint every 8: the in-memory backend is left
        // with the genesis checkpoint and those at 48 and 56.
        let mut store = tight_store();
        let mut ids = vec![store.genesis_id()];
        for i in 0..60u64 {
            let block = store.propose(&proposer(), 10 + i, vec![blob(i)], &mut NoExecutor);
            ids.push(block.id());
            store.import(&block, &mut NoExecutor).expect("imports");
            store.maybe_checkpoint(Vec::new()).expect("checkpoints");
        }
        let at = |h| store.storage().checkpoint_at_or_before(h).unwrap().unwrap();
        assert_eq!((at(60).height, at(55).height, at(47).height), (56, 48, 0));
        // The header's state root is the oracle no pruning can move: every
        // evicted height's state, replayed from whichever checkpoint is
        // left below it, must hash to it.
        for (h, id) in ids.iter().enumerate() {
            let header = store.block(id).expect("block readable").header;
            assert_eq!(header.height, h as u64);
            let state = store.state_of(id).expect("state reconstructed");
            assert_eq!(state.root(), header.state_root, "height {h}");
        }

        // Recovery restores the newest checkpoint and replays the tail.
        let (head, root) = (store.head_id(), store.head_state().root());
        let backend = store.into_backend().expect("flushes");
        let (mut recovered, cp) =
            ChainStore::open_recovering(backend, &tight_config()).expect("recovers");
        assert_eq!(cp.height, 56);
        assert_eq!(recovered.replay_tail(&mut NoExecutor).expect("replays"), 4);
        assert_eq!(recovered.head_id(), head);
        assert_eq!(recovered.head_state().root(), root);
        let old = recovered
            .state_of(&ids[20])
            .expect("state below the kept checkpoints");
        assert_eq!(
            old.root(),
            recovered.block(&ids[20]).unwrap().header.state_root
        );
    }

    /// Test executor: no contracts, and a log of the canonical blocks it
    /// was told of — 32 id bytes and the count of successful receipts each,
    /// so sensitive to both sequence and content.
    #[derive(Debug, Default, PartialEq)]
    struct ChainTrace(Vec<u8>);

    impl ChainTrace {
        /// What a trace told of all of `store`'s canonical chain holds.
        fn replayed(store: &ChainStore) -> Result<ChainTrace, ChainError> {
            let mut trace = ChainTrace::default();
            store.for_each_canonical(&mut |block, receipts| trace.see(&block.id(), receipts))?;
            Ok(trace)
        }

        fn see(&mut self, id: &Hash256, receipts: &[Receipt]) {
            self.0.extend_from_slice(id.as_bytes());
            self.0
                .push(receipts.iter().filter(|r| r.success).count() as u8);
        }

        fn blocks_seen(&self) -> usize {
            self.0.len() / 33
        }
    }

    impl TxExecutor for ChainTrace {
        fn call(
            &mut self,
            caller: &Address,
            contract: &Address,
            input: &[u8],
            gas_limit: u64,
        ) -> Result<(u64, Vec<u8>), String> {
            NoExecutor.call(caller, contract, input, gas_limit)
        }

        fn block_connected(&mut self, _: &Block, id: &Hash256, receipts: &[Receipt]) {
            self.see(id, receipts);
        }

        fn history_replaced(&mut self, store: &ChainStore) -> Result<(), ChainError> {
            *self = ChainTrace::replayed(store)?;
            Ok(())
        }
    }

    #[test]
    fn observer_sees_imports_and_catches_up_on_registration() {
        let mut store = store_with_funds();
        let b1 = store.propose(&proposer(), 10, vec![blob(0)], &mut NoExecutor);
        store.import(&b1, &mut NoExecutor).expect("b1");

        // An executor that joins late catches up from canonical history
        // (genesis + b1), then follows imports and commits alike.
        let mut trace = ChainTrace::replayed(&store).expect("history readable");
        assert_eq!(trace.blocks_seen(), 2);
        let b2 = store.propose(&proposer(), 11, vec![blob(1)], &mut NoExecutor);
        store.import(&b2, &mut trace).expect("b2");
        assert_eq!(trace.blocks_seen(), 3);
        store
            .commit(&proposer(), 12, vec![blob(2)], &mut trace)
            .expect("b3");
        assert_eq!(trace.blocks_seen(), 4);

        // What it was told live is what a replay tells a fresh one.
        assert_eq!(ChainTrace::replayed(&store), Ok(trace));
    }

    #[test]
    fn reorg_rebuilds_observers_from_canonical_chain() {
        let mut store = store_with_funds();
        let mut trace = ChainTrace::replayed(&store).expect("genesis");
        let genesis = store.head_id();
        let p1 = proposer();
        let p2 = Keypair::from_seed(b"rival");

        // Branch A extends the head — the executor follows it live.
        let a1 = store.propose(&p1, 10, vec![blob(0)], &mut NoExecutor);
        store.import(&a1, &mut trace).expect("a1");
        let on_a = trace.0.clone();

        // Branch B (two empty blocks) wins the reorg; the executor must
        // now reflect B's history, not A's.
        let genesis_state = store.state_of(&genesis).expect("genesis state").clone();
        let b1 = Block::build(&p2, 1, genesis, genesis_state.root(), 11, vec![]);
        store.import(&b1, &mut trace).expect("b1");
        let b1_state = store.state_of(&b1.id()).expect("b1 state").clone();
        let b2 = Block::build(&p2, 2, b1.id(), b1_state.root(), 12, vec![]);
        store.import(&b2, &mut trace).expect("b2");
        assert_eq!(store.head_id(), b2.id());

        assert_eq!(trace.blocks_seen(), 3, "rebuilt over genesis, b1, b2");
        assert_ne!(on_a, trace.0);
        // And the rebuilt state matches a from-scratch replay.
        assert_eq!(ChainTrace::replayed(&store), Ok(trace));
    }

    #[test]
    fn non_canonical_import_does_not_notify() {
        let mut store = store_with_funds();
        let genesis = store.head_id();
        let b1 = store.propose(&proposer(), 10, vec![blob(0)], &mut NoExecutor);
        store.import(&b1, &mut NoExecutor).expect("b1");
        let mut trace = ChainTrace::replayed(&store).expect("history readable");

        // A same-height rival that loses the tie-break must not disturb
        // what the executor holds; one that wins it has it rebuilt.
        let rival = Keypair::from_seed(b"rival");
        let genesis_state = store.state_of(&genesis).expect("genesis state").clone();
        let r1 = Block::build(&rival, 1, genesis, genesis_state.root(), 11, vec![]);
        let (head_before, before) = (store.head_id(), trace.0.clone());
        store.import(&r1, &mut trace).expect("r1");
        assert_eq!(trace.blocks_seen(), 2);
        if store.head_id() == head_before {
            assert_eq!(trace.0, before);
        } else {
            assert_eq!(store.canonical_chain(), vec![r1.id(), genesis]);
            assert_ne!(trace.0, before);
        }
    }

    #[test]
    fn restored_observer_continues_through_tail_replay() {
        let mut store = tight_store();
        let mut trace = ChainTrace::replayed(&store).expect("genesis");
        for i in 0..19u64 {
            let block = store.propose(&proposer(), 10 + i, vec![blob(i)], &mut NoExecutor);
            store.import(&block, &mut trace).expect("imports");
            store
                .maybe_checkpoint(vec![("trace".into(), trace.0.clone())])
                .expect("checkpoints");
        }

        let backend = store.into_backend().expect("flushes");
        let (mut recovered, cp) =
            ChainStore::open_recovering(backend, &tight_config()).expect("recovers");
        let mut restored = ChainTrace(cp.extension("trace").expect("saved").to_vec());
        assert_eq!(restored.blocks_seen(), 17, "genesis and 16 blocks");
        recovered.replay_tail(&mut restored).expect("replays");
        assert_eq!(restored.blocks_seen(), 20);
        assert_eq!(restored, trace);
    }
}
