//! The layered block-execution pipeline.
//!
//! `ExecutionPipeline` is the deterministic core every node runs: a
//! [`ChainStore`] and, beside it, everything derived from the blocks the
//! store accepts — the contract registry (the built-ins' state) and the four
//! platform `Projections` (supply chain, identities, factual database,
//! headlines). The two derived halves are one `Host`, the
//! [`TxExecutor`] the pipeline lends the store on every call: the store
//! has it execute contract payloads and tells it which block became
//! canonical, and that is the only way anything gets from the store to
//! the projections, whichever way the block came in — committed here,
//! imported from a peer, replayed from the WAL tail or decoded from a
//! snapshot. It also owns the mempool and the block clock, both kept in
//! step with every block. Everything above it —
//! [`Platform`](crate::platform::Platform) locally, `tn-node` validators
//! in a consensus network — is a driver that decides *which* transactions
//! to commit; the pipeline guarantees that committing the same blocks
//! yields the same state and the same projection digests everywhere.

use std::time::Instant;

use tn_chain::prelude::*;
use tn_contracts::builtin::{
    FactDbAdmission, IncentiveContract, NewsroomRegistry, RankingContract,
};
use tn_contracts::executor::ContractRegistry;
use tn_crypto::{Address, Hash256, Keypair};
use tn_factdb::db::FactualDatabase;
use tn_factdb::record::FactRecord;
use tn_storage::{Storage, StorageConfig};
use tn_supplychain::graph::SupplyChainGraph;
use tn_supplychain::index::IndexStats;
use tn_telemetry::TelemetrySink;
use tn_trace::{lanes, replica_span_id, TraceId, TraceSink};

use crate::platform::PlatformConfig;
use crate::projections::{AdmissionLedger, Projections, View};
use crate::roles::IdentityRegistry;

/// Checkpoint-extension key under which the pipeline stores the contract
/// registry's serialized state (distinct from every projection name).
pub(crate) const REGISTRY_EXTENSION: &str = "contracts.registry";

/// Attestations required to admit a record to the factual database.
const FACT_THRESHOLD: usize = 2;

/// Maximum transactions a pipeline's mempool holds at once.
pub(crate) const MEMPOOL_CAPACITY: usize = 100_000;

/// The contract slot of [`ExecutionPipeline::execution_digest`]: 32 bytes
/// reserved for a commitment over the built-in contracts' state, which
/// no digest covers yet. Until then it holds the root of an empty
/// bytecode-contract store (`TN/contracts-root` over no bytes) — the
/// value the slot has had on every chain the platform runs — so no
/// execution digest moves.
pub(crate) fn contracts_slot() -> Hash256 {
    tn_crypto::sha256::tagged_hash("TN/contracts-root", &[])
}

/// Well-known addresses of the four governance built-in contracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuiltinAddrs {
    /// Newsroom registry (platforms, rooms, authorizations).
    pub(crate) newsroom: Address,
    /// Crowd-rating contract.
    pub ranking: Address,
    /// Incentive-points contract.
    pub(crate) incentive: Address,
    /// Fact-admission attestation gate.
    pub(crate) admission: Address,
}

/// What the pipeline derives from the blocks its store accepts, lent to
/// the store as the executor of every call.
struct Host {
    registry: ContractRegistry,
    projections: Projections,
    telemetry: TelemetrySink,
    trace: TraceSink,
}

impl Host {
    /// The genesis host: the four governance built-ins owned by
    /// `governor`, projections seeded with the genesis factual corpus.
    fn genesis(governor: Address, seed_corpus: Vec<FactRecord>) -> (Host, BuiltinAddrs) {
        let mut registry = ContractRegistry::new();
        let addrs = BuiltinAddrs {
            newsroom: registry.install_builtin(Box::new(NewsroomRegistry::new())),
            ranking: registry.install_builtin(Box::new(RankingContract::new(governor))),
            incentive: registry.install_builtin(Box::new(IncentiveContract::new(governor))),
            admission: registry
                .install_builtin(Box::new(FactDbAdmission::new(governor, FACT_THRESHOLD))),
        };
        let host = Host {
            registry,
            projections: Projections::new(seed_corpus, addrs.admission, FACT_THRESHOLD),
            telemetry: TelemetrySink::disabled(),
            trace: TraceSink::disabled(),
        };
        (host, addrs)
    }
}

/// [`Projections::replay`] of `store`'s canonical chain into
/// `projections`, counted (`chain.replays`, `chain.replay_blocks`,
/// `chain.replay_ns`).
fn replay_counted(
    projections: &mut Projections,
    store: &ChainStore,
    telemetry: &TelemetrySink,
) -> Result<(), ChainError> {
    let _span = telemetry.span("chain.replay_ns");
    telemetry.incr("chain.replays");
    let blocks = projections.replay(store)?;
    telemetry.add("chain.replay_blocks", blocks);
    Ok(())
}

impl TxExecutor for Host {
    fn call(
        &mut self,
        caller: &Address,
        contract: &Address,
        input: &[u8],
        gas_limit: u64,
    ) -> Result<(u64, Vec<u8>), String> {
        self.registry.call(caller, contract, input, gas_limit)
    }

    /// Applies the new head block to the four views, each under its own
    /// `chain.projection.<name>.apply_ns` sample and `projection.<name>`
    /// span, all under the block's `chain.projections` span (a child of
    /// the store's `chain.import`).
    fn block_connected(&mut self, block: &Block, id: &Hash256, receipts: &[Receipt]) {
        let (telemetry, trace) = (&self.telemetry, &self.trace);
        let block_trace = if trace.is_enabled() {
            TraceId::from_seed(id.as_bytes())
        } else {
            TraceId::NONE
        };
        let projections_span = replica_span_id(block_trace, "chain.projections", trace.replica());
        let p0 = trace.now_ns();
        for view in View::ALL {
            let o0 = trace.now_ns();
            let started = telemetry.is_enabled().then(Instant::now);
            self.projections.apply_view(view, block, receipts);
            if let Some(started) = started {
                telemetry.observe(
                    &format!("chain.projection.{}.apply_ns", view.name()),
                    started.elapsed().as_nanos() as u64,
                );
            }
            if trace.is_enabled() {
                trace.complete(
                    block_trace,
                    format!("projection.{}", view.name()),
                    projections_span,
                    lanes::PROJECTION,
                    o0,
                    &[],
                );
            }
        }
        trace.complete(
            block_trace,
            "chain.projections",
            replica_span_id(block_trace, "chain.import", trace.replica()),
            lanes::PROJECTION,
            p0,
            &[("projections", View::ALL.len() as u64)],
        );
    }

    fn history_replaced(&mut self, store: &ChainStore) -> Result<(), ChainError> {
        replay_counted(&mut self.projections, store, &self.telemetry)
    }
}

/// A deterministically bootstrapped replica: the well-known governance
/// keys plus a pipeline whose chain already holds the genesis-follow
/// anchor block. Every party built from the same [`PlatformConfig`] —
/// the local [`Platform`](crate::platform::Platform), every `tn-node`
/// validator — starts from this byte-identical prefix.
#[derive(Debug)]
pub struct Bootstrap {
    /// Contract owner / grant issuer (seeded key, same on all replicas).
    pub governor: Keypair,
    /// Block proposer (seeded key, same on all replicas).
    pub validator: Keypair,
    /// The pipeline, advanced past the factual-DB anchor block.
    pub pipeline: ExecutionPipeline,
}

/// What every bootstrap path shares: the well-known governance keys and
/// the seed corpus derived from `config`, handed to `build`.
fn bootstrap_with<R>(
    config: &PlatformConfig,
    build: impl FnOnce(
        &Keypair,
        &Keypair,
        Vec<FactRecord>,
    ) -> Result<(ExecutionPipeline, R), ChainError>,
) -> Result<(Bootstrap, R), ChainError> {
    let governor = Keypair::from_seed(b"tn-platform-governor");
    let validator = Keypair::from_seed(b"tn-platform-validator");
    let seed_corpus: Vec<FactRecord> = tn_factdb::corpus::generate_corpus(&config.factdb_seed)
        .into_iter()
        .collect();
    let (pipeline, extra) = build(&governor, &validator, seed_corpus)?;
    let bootstrap = Bootstrap {
        governor,
        validator,
        pipeline,
    };
    Ok((bootstrap, extra))
}

/// Builds the canonical replica start state for `config`: genesis balances
/// for governor and validator, the four governance contracts, the seeded
/// factual corpus, and one committed block anchoring the corpus root.
///
/// # Panics
///
/// When the configured storage backend cannot be created (a disk-backed
/// replica's directory is unwritable or already holds a chain — reopen
/// that with [`recover_bootstrap`]).
pub fn bootstrap(config: &PlatformConfig) -> Bootstrap {
    let (mut bootstrap, ()) = bootstrap_with(config, |governor, validator, seed_corpus| {
        let genesis = State::genesis([
            (governor.address(), 1_000_000_000),
            (validator.address(), 1_000_000),
        ]);
        let pipeline = ExecutionPipeline::with_storage(
            genesis,
            validator,
            governor.address(),
            seed_corpus,
            config.storage.clone(),
        )?;
        Ok((pipeline, ()))
    })
    .expect("storage backend initialization");
    let anchor = Transaction::signed(
        &bootstrap.governor,
        0,
        config.fee,
        Payload::AnchorRoot {
            namespace: "factdb".into(),
            root: bootstrap.pipeline.factdb().root(),
        },
    );
    bootstrap
        .pipeline
        .commit_batch(&bootstrap.validator, 1, vec![anchor])
        .expect("genesis anchor block");
    bootstrap
}

/// Reopens a disk-backed replica from its storage directory: re-derives
/// the well-known governance keys and seed corpus, restores the newest
/// checkpoint, and replays the durable WAL tail. Returns the bootstrap
/// and the number of tail blocks replayed — the measure that recovery
/// cost is proportional to blocks since the last checkpoint.
///
/// # Errors
///
/// [`ChainError::Checkpoint`] when `config` selects the in-memory
/// backend (there is nothing on disk to recover) or the stored state is
/// unusable; [`ChainError::Storage`] on backend failures.
pub fn recover_bootstrap(config: &PlatformConfig) -> Result<(Bootstrap, u64), ChainError> {
    bootstrap_with(config, |governor, _, seed_corpus| {
        let tn_storage::BackendKind::Disk(dir) = &config.storage.backend else {
            return Err(ChainError::Checkpoint(
                "recovery requires a disk storage backend".into(),
            ));
        };
        let backend = Box::new(tn_storage::DiskBackend::open(dir, &config.storage)?);
        ExecutionPipeline::recover(backend, &config.storage, governor.address(), seed_corpus)
    })
}

/// Rebuilds a replica from a [`ChainStore::snapshot`] taken by a node of
/// the same `config`: re-derives the well-known governance keys and seed
/// corpus, then restores the pipeline — every block re-validated,
/// re-executed and applied to fresh projections as it is imported. This
/// is the crash-recovery path: a restarted validator gets back exactly
/// the state it persisted, or an error if the ledger was damaged.
///
/// # Errors
///
/// Decode or validation errors from the snapshot.
pub fn restore_bootstrap(
    config: &PlatformConfig,
    snapshot: &[u8],
) -> Result<Bootstrap, ChainError> {
    let (bootstrap, ()) = bootstrap_with(config, |governor, _, seed_corpus| {
        let pipeline = ExecutionPipeline::restore(snapshot, governor.address(), seed_corpus)?;
        Ok((pipeline, ()))
    })?;
    Ok(bootstrap)
}

/// The deterministic execution core: the chain store and, as its
/// executor, the contract registry and the projections; beside them the
/// mempool and the next block's timestamp.
pub struct ExecutionPipeline {
    store: ChainStore,
    host: Host,
    addrs: BuiltinAddrs,
    mempool: Mempool,
    next_timestamp: u64,
}

impl std::fmt::Debug for ExecutionPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionPipeline")
            .field("height", &self.store.height())
            .finish()
    }
}

impl ExecutionPipeline {
    /// An empty mempool on the store's verified-tx cache (a signature
    /// checked at admission is a hit at proposal and import), the clock
    /// one past the head.
    fn assemble(store: ChainStore, host: Host, addrs: BuiltinAddrs) -> ExecutionPipeline {
        let mut mempool = Mempool::new(MEMPOOL_CAPACITY);
        mempool.set_sig_cache(store.sig_cache());
        ExecutionPipeline {
            next_timestamp: store.height() + 1,
            store,
            host,
            addrs,
            mempool,
        }
    }

    /// Builds a pipeline on `storage`: genesis state, the four governance
    /// built-ins owned by `governor`, and the four projections seeded with
    /// the genesis factual corpus. Two pipelines built with identical
    /// arguments are bit-identical, which is what lets every validator of
    /// a network boot the same replica.
    ///
    /// # Errors
    ///
    /// [`ChainError::Storage`] when the backend cannot be initialized
    /// (e.g. the disk directory already holds data; use
    /// [`ExecutionPipeline::recover`] for that).
    pub(crate) fn with_storage(
        genesis: State,
        validator: &Keypair,
        governor: Address,
        seed_corpus: Vec<FactRecord>,
        storage: StorageConfig,
    ) -> Result<ExecutionPipeline, ChainError> {
        let (host, addrs) = Host::genesis(governor, seed_corpus);
        let store = ChainStore::with_config(genesis, validator, storage)?;
        Ok(Self::assemble(store, host, addrs))
    }

    /// Reopens a pipeline from an existing storage backend: restores the
    /// newest usable checkpoint (chain state, contract registry, all four
    /// projections), then replays the durable WAL tail through full
    /// re-execution. Returns the pipeline and the number of replayed
    /// blocks — recovery work is proportional to blocks since the last
    /// checkpoint, not to chain length. The construction parameters must
    /// match the ones the stored chain was built with.
    ///
    /// # Errors
    ///
    /// [`ChainError::Checkpoint`] when checkpointed state is unusable,
    /// [`ChainError::Storage`] on backend failures.
    pub(crate) fn recover(
        backend: Box<dyn Storage>,
        config: &StorageConfig,
        governor: Address,
        seed_corpus: Vec<FactRecord>,
    ) -> Result<(ExecutionPipeline, u64), ChainError> {
        let (mut store, cp) = ChainStore::open_recovering(backend, config)?;
        let (mut host, addrs) = Host::genesis(governor, seed_corpus);
        // The genesis checkpoint was written before anything executed: it
        // carries no extensions and needs none, the tail replay starts at
        // height 1 on a genesis host.
        if cp.height != 0 {
            let saved = cp.extension(REGISTRY_EXTENSION).ok_or_else(|| {
                ChainError::Checkpoint("checkpoint missing contract-registry state".into())
            })?;
            host.registry
                .load_state(saved)
                .map_err(ChainError::Checkpoint)?;
            host.projections
                .load(&cp.extensions)
                .map_err(ChainError::Checkpoint)?;
        }
        let replayed = store.replay_tail(&mut host)?;
        Ok((Self::assemble(store, host, addrs), replayed))
    }

    /// Routes pipeline metrics (commit and per-projection apply timing,
    /// replay counters) to `sink` and forwards it to the chain store
    /// (import timing), contract registry (gas and execution counters)
    /// and mempool (admission counters). Disabled by default.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.store.set_telemetry(sink.clone());
        self.host.registry.set_telemetry(sink.clone());
        self.mempool.set_telemetry(sink.clone());
        self.host.telemetry = sink;
    }

    /// Routes pipeline spans to `sink` and forwards it to the chain store
    /// and contract registry. Each committed block records a
    /// `pipeline.commit` root span with `chain.propose` (selection,
    /// execution, signing) and `chain.import` (accept) children, the
    /// latter with `chain.projections` and one `projection.<name>` per
    /// view beneath it (and a `tx.admission` span per admitted
    /// transaction). Disabled by default.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.store.set_trace(sink.clone());
        self.host.registry.set_trace(sink.clone());
        self.mempool.set_trace(sink.clone());
        self.host.trace = sink;
    }

    /// Restores a pipeline from a [`ChainStore::snapshot`]: every block is
    /// re-validated and re-executed against a fresh contract registry (so
    /// contract state is recomputed, never trusted) and applied to fresh
    /// projections as it is imported — one pass over the snapshot. The
    /// construction parameters must match the ones the snapshotted chain
    /// was built with.
    ///
    /// # Errors
    ///
    /// Decode or validation errors from the snapshot.
    pub fn restore(
        snapshot: &[u8],
        governor: Address,
        seed_corpus: Vec<FactRecord>,
    ) -> Result<ExecutionPipeline, ChainError> {
        let (mut host, addrs) = Host::genesis(governor, seed_corpus);
        let store = ChainStore::restore(snapshot, &mut host)?;
        Ok(Self::assemble(store, host, addrs))
    }

    // --- admission --------------------------------------------------------

    /// Admission-checks `tx` against the head state and queues it in the
    /// mempool (counting `mempool.admitted` / `mempool.rejected`).
    ///
    /// # Errors
    ///
    /// Mempool admission errors (duplicate, full, bad nonce, signature).
    pub fn submit(&mut self, tx: Transaction) -> Result<(), ChainError> {
        self.mempool.insert(tx, self.store.head_state())
    }

    /// [`ExecutionPipeline::submit`] for each of `txs` in one pass: verdict
    /// `i` is the one the `i`-th submit of a loop would give (rejections
    /// never abort the batch), but the signatures are checked in
    /// [`Mempool::insert_batch`]'s batched equations.
    pub fn submit_batch(&mut self, txs: Vec<Transaction>) -> Vec<Result<(), ChainError>> {
        self.mempool.insert_batch(txs, self.store.head_state())
    }

    /// Up to `max` ready transactions with their ids, fee-prioritised and
    /// nonce-ordered per sender: the next block's content.
    pub fn select(&self, max: usize) -> Vec<(Hash256, Transaction)> {
        self.mempool.select_identified(self.store.head_state(), max)
    }

    /// The next free nonce of `who`, past its committed and pending ones.
    pub fn next_nonce(&self, who: &Address) -> u64 {
        let pending = self.mempool.next_nonce(who).unwrap_or(0);
        self.store.head_state().nonce(who).max(pending)
    }

    /// The timestamp the next committed block carries.
    pub fn next_timestamp(&self) -> u64 {
        self.next_timestamp
    }

    /// The pending transactions.
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    // --- commit path -----------------------------------------------------

    /// Builds a block from `txs` at `timestamp` on the head, commits it
    /// and returns it with its receipts. Projections observe the block
    /// before this returns; the mempool and the clock move past the block.
    ///
    /// One pass ([`ChainStore::commit`]): the transactions are selected
    /// and executed once, against the contract registry, and the state
    /// and receipts that execution left are what the store keeps. `txs`
    /// may come with their ids (a mempool selection) or bare.
    ///
    /// # Errors
    ///
    /// [`ChainError::TimestampRegression`], or a storage failure while the
    /// block was being accepted.
    pub fn commit_batch(
        &mut self,
        proposer: &Keypair,
        timestamp: u64,
        txs: Vec<impl Into<(Hash256, Transaction)>>,
    ) -> Result<(Block, Vec<Receipt>), ChainError> {
        let _span = self.host.telemetry.span("pipeline.commit_ns");
        let trace = self.host.trace.clone();
        let t0 = trace.now_ns();
        let (block, receipts) = self
            .store
            .commit(proposer, timestamp, txs, &mut self.host)?;
        let t1 = trace.now_ns();
        if trace.is_enabled() {
            // The block id exists only now, so the root span is recorded
            // after the fact — span ids are deterministic, so the children
            // the store recorded on the way already point at it.
            trace.complete_at(
                TraceId::from_seed(block.id().as_bytes()),
                "pipeline.commit",
                0,
                lanes::PIPELINE,
                t0,
                t1,
                &[
                    ("height", block.header.height),
                    ("timestamp", block.header.timestamp),
                ],
            );
        }
        self.host.telemetry.incr("pipeline.batches_committed");
        self.mempool.prune_block(&block, self.store.head_state());
        self.next_timestamp = self.next_timestamp.max(block.header.timestamp + 1);
        self.maybe_checkpoint()?;
        Ok((block, receipts))
    }

    /// Writes a storage checkpoint if one is due (per the configured
    /// interval), bundling every projection's saved state with the
    /// contract registry's; returns its height when written. The commit
    /// paths call this automatically.
    ///
    /// # Errors
    ///
    /// [`ChainError::Storage`] on backend write failures.
    pub(crate) fn maybe_checkpoint(&mut self) -> Result<Option<u64>, ChainError> {
        let due = self.store.checkpoint_due();
        due.then(|| self.checkpoint_now()).transpose()
    }

    /// Forces a storage checkpoint at the current head regardless of the
    /// interval (node shutdown, tests).
    ///
    /// # Errors
    ///
    /// [`ChainError::Storage`] on backend write failures.
    pub fn checkpoint_now(&mut self) -> Result<u64, ChainError> {
        let mut extensions = self.host.projections.save();
        extensions.push((
            REGISTRY_EXTENSION.to_string(),
            self.host.registry.save_state(),
        ));
        self.store.checkpoint_now(extensions)
    }

    /// Imports a block produced elsewhere (a peer validator) through the
    /// same executor + projection path as locally committed blocks.
    ///
    /// # Errors
    ///
    /// Chain-level import errors.
    pub fn apply_block(&mut self, block: &Block) -> Result<Vec<Receipt>, ChainError> {
        let receipts = self.store.import(block, &mut self.host)?;
        self.imported(block.header.timestamp)?;
        Ok(receipts)
    }

    /// [`ExecutionPipeline::apply_block`] for one block of a run whose
    /// signatures the store has already been through
    /// (`self.store().check_run(&blocks)`, then this for each block in
    /// order): a run of blocks pays one signature pass, not one per block.
    ///
    /// # Errors
    ///
    /// Chain-level import errors.
    pub fn apply_checked(&mut self, checked: CheckedBlock<'_>) -> Result<Vec<Receipt>, ChainError> {
        let timestamp = checked.block().header.timestamp;
        let receipts = self.store.import_checked(checked, &mut self.host)?;
        self.imported(timestamp)?;
        Ok(receipts)
    }

    /// Moves the clock past an imported block and sweeps the whole
    /// mempool: the import may have switched branches.
    fn imported(&mut self, timestamp: u64) -> Result<(), ChainError> {
        self.next_timestamp = self.next_timestamp.max(timestamp + 1);
        self.mempool.prune_committed(self.store.head_state());
        self.maybe_checkpoint()?;
        Ok(())
    }

    // --- digests ---------------------------------------------------------

    /// `(name, digest)` of every projection, in `View::ALL` order.
    pub fn projection_digests(&self) -> Vec<(&'static str, Hash256)> {
        self.host.projections.digests()
    }

    /// One hash summarizing the replica: head id, world-state root, the
    /// `contracts_slot`, and the projection root. Two nodes that agree
    /// on it agree on their chain and their projections; the built-in
    /// contracts' state is not in it yet.
    pub fn execution_digest(&self) -> Hash256 {
        let mut data = Vec::with_capacity(128);
        data.extend_from_slice(self.store.head_id().as_bytes());
        data.extend_from_slice(self.store.head_state().root().as_bytes());
        data.extend_from_slice(contracts_slot().as_bytes());
        data.extend_from_slice(projection_root(&self.projection_digests()).as_bytes());
        tn_crypto::sha256::tagged_hash("TN/execution", &data)
    }

    /// Replays the canonical chain into fresh projections and checks
    /// every digest against the live ones, returning the live
    /// `(name, digest)` pairs. This is the ledger-replay audit: it proves
    /// the projections are pure functions of chain history.
    ///
    /// # Errors
    ///
    /// The name of the first projection that diverged, or why canonical
    /// history could not be read back (the disk is corrupt).
    pub fn verify_replay(&self) -> Result<Vec<(&'static str, Hash256)>, String> {
        let mut fresh = self.host.projections.fresh();
        replay_counted(&mut fresh, &self.store, &self.host.telemetry)
            .map_err(|e| format!("ledger replay failed: {e}"))?;
        let live = self.projection_digests();
        match live.iter().zip(fresh.digests()).find(|(a, b)| **a != *b) {
            Some(((name, _), _)) => Err(format!("projection '{name}' diverged from ledger replay")),
            None => Ok(live),
        }
    }

    // --- read access -----------------------------------------------------

    /// The chain store.
    pub fn store(&self) -> &ChainStore {
        &self.store
    }

    /// The contract registry.
    pub fn registry(&self) -> &ContractRegistry {
        &self.host.registry
    }

    /// Typed read access to the built-in contract at `addr`. Panics when
    /// `addr` holds no `T`; each of the four [`BuiltinAddrs`] holds its own.
    pub fn builtin<T: 'static>(&self, addr: Address) -> &T {
        self.host
            .registry
            .builtin(&addr)
            .and_then(|b| b.as_any().downcast_ref())
            .expect("built-in installed at genesis")
    }

    /// Built-in contract addresses.
    pub fn addrs(&self) -> BuiltinAddrs {
        self.addrs
    }

    /// The supply-chain graph.
    pub fn graph(&self) -> &SupplyChainGraph {
        self.host.projections.graph()
    }

    /// Indexing statistics of the supply-chain graph.
    pub(crate) fn index_stats(&self) -> &IndexStats {
        self.host.projections.index_stats()
    }

    /// The verified-identity registry.
    pub(crate) fn identities(&self) -> &IdentityRegistry {
        self.host.projections.identities()
    }

    /// The factual database.
    pub fn factdb(&self) -> &FactualDatabase {
        self.host.projections.factdb()
    }

    /// The chain-derived fact-admission ledger (candidate queries).
    pub(crate) fn admissions(&self) -> &AdmissionLedger {
        self.host.projections.ledger()
    }

    /// Drains fact records admitted since the last call.
    pub(crate) fn take_newly_admitted(&mut self) -> Vec<Hash256> {
        self.host.projections.take_newly_admitted()
    }

    /// The headline recorded on-chain for `item`, if any.
    pub(crate) fn headline(&self, item: &Hash256) -> Option<&str> {
        self.host.projections.headline(item)
    }

    /// The live projections, for tests that graft state onto them.
    #[cfg(test)]
    pub(crate) fn projections_mut(&mut self) -> &mut Projections {
        &mut self.host.projections
    }

    /// The mempool, for tests that swap in a smaller one.
    #[cfg(test)]
    pub(crate) fn mempool_mut(&mut self) -> &mut Mempool {
        &mut self.mempool
    }
}
