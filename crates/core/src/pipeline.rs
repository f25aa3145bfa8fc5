//! The layered block-execution pipeline.
//!
//! `ExecutionPipeline` is the deterministic core every node runs: a
//! [`ChainStore`] with the contract registry as executor and the four
//! platform projections (supply chain, identities, factual database,
//! headlines) registered as block observers. Everything above it —
//! [`Platform`](crate::platform::Platform) locally, `tn-node` validators
//! in a consensus network — is a driver that decides *which* transactions
//! to commit; the pipeline guarantees that committing the same blocks
//! yields the same state and the same projection digests everywhere.

use tn_chain::observer::BlockObserver;
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
use tn_trace::{lanes, TraceId, TraceSink};

use crate::platform::PlatformConfig;
use crate::projections::{
    names, FactProjection, HeadlineProjection, IdentityProjection, SupplyChainProjection,
};
use crate::roles::IdentityRegistry;

/// Checkpoint-extension key under which the pipeline stores the contract
/// registry's serialized state (distinct from every projection name).
pub const REGISTRY_EXTENSION: &str = "contracts.registry";

/// Well-known addresses of the four governance built-in contracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuiltinAddrs {
    /// Newsroom registry (platforms, rooms, authorizations).
    pub newsroom: Address,
    /// Crowd-rating contract.
    pub ranking: Address,
    /// Incentive-points contract.
    pub incentive: Address,
    /// Fact-admission attestation gate.
    pub admission: Address,
}

/// Installs the four governance built-ins into a fresh registry.
fn install_builtins(governor: Address, fact_threshold: usize) -> (ContractRegistry, BuiltinAddrs) {
    let mut registry = ContractRegistry::new();
    let addrs = BuiltinAddrs {
        newsroom: registry.install_builtin(Box::new(NewsroomRegistry::new())),
        ranking: registry.install_builtin(Box::new(RankingContract::new(governor))),
        incentive: registry.install_builtin(Box::new(IncentiveContract::new(governor))),
        admission: registry
            .install_builtin(Box::new(FactDbAdmission::new(governor, fact_threshold))),
    };
    (registry, addrs)
}

/// The canonical projection set, in registration order.
fn projection_set(
    seed_corpus: Vec<FactRecord>,
    admission: Address,
    fact_threshold: usize,
) -> Vec<Box<dyn BlockObserver>> {
    vec![
        Box::new(SupplyChainProjection::new(
            seed_corpus.clone(),
            admission,
            fact_threshold,
        )),
        Box::new(IdentityProjection::new()),
        Box::new(FactProjection::new(seed_corpus, admission, fact_threshold)),
        Box::new(HeadlineProjection::new()),
    ]
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

/// What every bootstrap path shares: the well-known governance keys, the
/// seed corpus derived from `config`, and the verification knobs wired
/// into whatever pipeline `build` produces from them.
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
    let (mut pipeline, extra) = build(&governor, &validator, seed_corpus)?;
    pipeline.set_verify_workers(config.verify_workers);
    pipeline.set_verify_batch_chunk(config.verify_batch_chunk);
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
            config.fact_threshold,
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
        ExecutionPipeline::recover(
            backend,
            &config.storage,
            governor.address(),
            config.fact_threshold,
            seed_corpus,
        )
    })
}

/// Rebuilds a replica from a [`ChainStore::snapshot`] taken by a node of
/// the same `config`: re-derives the well-known governance keys and seed
/// corpus, then restores the pipeline — every block re-validated and
/// re-executed, projections replayed over the restored chain. This is the
/// crash-recovery path: a restarted validator gets back exactly the state
/// it persisted, or an error if the ledger was damaged.
///
/// # Errors
///
/// Decode or validation errors from the snapshot.
pub fn restore_bootstrap(
    config: &PlatformConfig,
    snapshot: &[u8],
) -> Result<Bootstrap, ChainError> {
    let (bootstrap, ()) = bootstrap_with(config, |governor, _, seed_corpus| {
        let pipeline = ExecutionPipeline::restore(
            snapshot,
            governor.address(),
            config.fact_threshold,
            seed_corpus,
        )?;
        Ok((pipeline, ()))
    })?;
    Ok(bootstrap)
}

/// The deterministic execution core: chain store + contract executor +
/// registered projections.
pub struct ExecutionPipeline {
    store: ChainStore,
    registry: ContractRegistry,
    addrs: BuiltinAddrs,
    telemetry: TelemetrySink,
    trace: TraceSink,
}

impl std::fmt::Debug for ExecutionPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionPipeline")
            .field("height", &self.store.height())
            .field("projections", &self.store.projection_digests().len())
            .finish()
    }
}

impl ExecutionPipeline {
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
    pub fn with_storage(
        genesis: State,
        validator: &Keypair,
        governor: Address,
        fact_threshold: usize,
        seed_corpus: Vec<FactRecord>,
        storage: StorageConfig,
    ) -> Result<ExecutionPipeline, ChainError> {
        let (registry, addrs) = install_builtins(governor, fact_threshold);
        let mut store = ChainStore::with_config(genesis, validator, storage)?;
        store.register_observers(projection_set(seed_corpus, addrs.admission, fact_threshold));
        Ok(ExecutionPipeline {
            store,
            registry,
            addrs,
            telemetry: TelemetrySink::disabled(),
            trace: TraceSink::disabled(),
        })
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
    pub fn recover(
        backend: Box<dyn Storage>,
        config: &StorageConfig,
        governor: Address,
        fact_threshold: usize,
        seed_corpus: Vec<FactRecord>,
    ) -> Result<(ExecutionPipeline, u64), ChainError> {
        let (mut store, cp) = ChainStore::open_recovering(backend, config)?;
        let (mut registry, addrs) = install_builtins(governor, fact_threshold);
        if let Some(bytes) = cp.extension(REGISTRY_EXTENSION) {
            registry.load_state(bytes).map_err(ChainError::Checkpoint)?;
        } else if cp.height != 0 {
            return Err(ChainError::Checkpoint(
                "checkpoint missing contract-registry state".into(),
            ));
        }
        for mut projection in projection_set(seed_corpus, addrs.admission, fact_threshold) {
            match cp.extension(projection.name()) {
                Some(bytes) => {
                    projection
                        .load_state(bytes)
                        .map_err(ChainError::Checkpoint)?;
                    store.register_observer_restored(projection);
                }
                // The genesis checkpoint (written before observers are
                // registered) has no extensions; fresh projections are
                // correct there because the tail replay starts at
                // height 1.
                None if cp.height == 0 => store.register_observer_restored(projection),
                None => {
                    return Err(ChainError::Checkpoint(format!(
                        "checkpoint missing projection '{}'",
                        projection.name()
                    )))
                }
            }
        }
        let mut pipeline = ExecutionPipeline {
            store,
            registry,
            addrs,
            telemetry: TelemetrySink::disabled(),
            trace: TraceSink::disabled(),
        };
        let replayed = pipeline.store.replay_tail(&mut pipeline.registry)?;
        Ok((pipeline, replayed))
    }

    /// Routes pipeline metrics to `sink` and forwards it to the chain
    /// store (import/projection timing) and contract registry (gas and
    /// execution counters). Disabled by default.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.store.set_telemetry(sink.clone());
        self.registry.set_telemetry(sink.clone());
        self.telemetry = sink;
    }

    /// Routes pipeline spans to `sink` and forwards it to the chain store
    /// and contract registry. Each committed block records a
    /// `pipeline.commit` root span with `chain.propose` (selection,
    /// execution, signing) and `chain.import` (accept) children. Disabled
    /// by default.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.store.set_trace(sink.clone());
        self.registry.set_trace(sink.clone());
        self.trace = sink;
    }

    /// Sizes the chain store's verification worker pool. `0` selects the
    /// machine's available parallelism; any other value is the exact
    /// worker count (1 = sequential). Verification results are
    /// byte-identical for every worker count, so this is purely a
    /// throughput knob.
    pub fn set_verify_workers(&mut self, workers: usize) {
        let pool = if workers == 0 {
            tn_par::Pool::auto()
        } else {
            tn_par::Pool::new(workers)
        };
        self.store.set_verify_pool(pool);
    }

    /// Configures the batched-Schnorr chunk size for block verification.
    /// `0` disables batching; any other value is the number of
    /// transactions folded into one batch equation. Accept/reject
    /// outcomes are identical for every setting (a failing batch falls
    /// back to the per-transaction scan), so this is purely a
    /// throughput knob.
    pub fn set_verify_batch_chunk(&mut self, chunk: usize) {
        let policy = if chunk == 0 {
            tn_chain::BatchVerifyPolicy::disabled()
        } else {
            tn_chain::BatchVerifyPolicy {
                enabled: true,
                chunk,
            }
        };
        self.store.set_batch_policy(policy);
    }

    /// Restores a pipeline from a [`ChainStore::snapshot`]: every block is
    /// re-validated and re-executed against a fresh contract registry (so
    /// contract state is recomputed, never trusted), then the projections
    /// are registered and replayed over the restored canonical chain. The
    /// construction parameters must match the ones the snapshotted chain
    /// was built with.
    ///
    /// # Errors
    ///
    /// Decode or validation errors from the snapshot.
    pub fn restore(
        snapshot: &[u8],
        governor: Address,
        fact_threshold: usize,
        seed_corpus: Vec<FactRecord>,
    ) -> Result<ExecutionPipeline, ChainError> {
        let (mut registry, addrs) = install_builtins(governor, fact_threshold);
        let mut store = ChainStore::restore(snapshot, &mut registry)?;
        store.register_observers(projection_set(seed_corpus, addrs.admission, fact_threshold));
        Ok(ExecutionPipeline {
            store,
            registry,
            addrs,
            telemetry: TelemetrySink::disabled(),
            trace: TraceSink::disabled(),
        })
    }

    // --- commit path -----------------------------------------------------

    /// Builds a block from `txs` at `timestamp` on the head, commits it
    /// and returns it with its receipts. Projections observe the block
    /// before this returns.
    ///
    /// One pass ([`ChainStore::commit`]): the transactions are selected
    /// and executed once, against the contract registry, and the state
    /// and receipts that execution left are what the store keeps.
    ///
    /// # Errors
    ///
    /// [`ChainError::TimestampRegression`], or a storage failure while the
    /// block was being accepted.
    pub fn commit_batch(
        &mut self,
        proposer: &Keypair,
        timestamp: u64,
        txs: Vec<Transaction>,
    ) -> Result<(Block, Vec<Receipt>), ChainError> {
        let _span = self.telemetry.span("pipeline.commit_ns");
        let trace = self.trace.clone();
        let t0 = trace.now_ns();
        let (block, receipts) = self
            .store
            .commit(proposer, timestamp, txs, &mut self.registry)?;
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
        self.telemetry.incr("pipeline.batches_committed");
        self.maybe_checkpoint()?;
        Ok((block, receipts))
    }

    /// Writes a storage checkpoint if one is due (per the configured
    /// interval), bundling the contract registry's serialized state with
    /// every projection's save-state; returns its height when written.
    /// The commit paths call this automatically.
    ///
    /// # Errors
    ///
    /// [`ChainError::Storage`] on backend write failures.
    pub fn maybe_checkpoint(&mut self) -> Result<Option<u64>, ChainError> {
        if !self.store.checkpoint_due() {
            return Ok(None);
        }
        let extras = vec![(REGISTRY_EXTENSION.to_string(), self.registry.save_state())];
        self.store.checkpoint_now(extras).map(Some)
    }

    /// Forces a storage checkpoint at the current head regardless of the
    /// interval (node shutdown, tests).
    ///
    /// # Errors
    ///
    /// [`ChainError::Storage`] on backend write failures.
    pub fn checkpoint_now(&mut self) -> Result<u64, ChainError> {
        let extras = vec![(REGISTRY_EXTENSION.to_string(), self.registry.save_state())];
        self.store.checkpoint_now(extras)
    }

    /// Imports a block produced elsewhere (a peer validator) through the
    /// same executor + projection path as locally committed blocks.
    ///
    /// # Errors
    ///
    /// Chain-level import errors.
    pub fn apply_block(&mut self, block: &Block) -> Result<Vec<Receipt>, ChainError> {
        let receipts = self.store.import(block, &mut self.registry)?;
        self.maybe_checkpoint()?;
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
        let receipts = self.store.import_checked(checked, &mut self.registry)?;
        self.maybe_checkpoint()?;
        Ok(receipts)
    }

    // --- digests ---------------------------------------------------------

    /// Per-projection state digests, in registration order.
    pub fn projection_digests(&self) -> Vec<(&'static str, Hash256)> {
        self.store.projection_digests()
    }

    /// One hash summarizing the replica: head id, world-state root,
    /// contract-storage root, and the projection root. Two nodes agree on
    /// their entire derived state iff they agree on this digest.
    pub fn execution_digest(&self) -> Hash256 {
        let mut data = Vec::with_capacity(128);
        data.extend_from_slice(self.store.head_id().as_bytes());
        data.extend_from_slice(self.store.head_state().root().as_bytes());
        data.extend_from_slice(self.registry.storage_root().as_bytes());
        data.extend_from_slice(self.store.projection_root().as_bytes());
        tn_crypto::sha256::tagged_hash("TN/execution", &data)
    }

    /// Replays the canonical chain into a fresh projection set and checks
    /// every digest against the live projections, returning the replayed
    /// `(name, live digest)` pairs. This is the ledger-replay audit: it
    /// proves the registered projections are pure functions of chain
    /// history.
    pub fn verify_replay(&self) -> Result<Vec<(&'static str, Hash256)>, String> {
        let mut fresh = self.fresh_projections();
        self.store.replay_into(&mut fresh);
        let live = self.projection_digests();
        for (observer, (name, digest)) in fresh.iter().zip(&live) {
            if observer.digest() != *digest {
                return Err(format!("projection '{name}' diverged from ledger replay"));
            }
        }
        Ok(live)
    }

    /// A fresh (genesis-state) copy of the registered projection set,
    /// suitable for [`ChainStore::replay_into`].
    pub fn fresh_projections(&self) -> Vec<Box<dyn BlockObserver>> {
        let fp = self
            .store
            .observer::<FactProjection>(names::FACTDB)
            .expect("fact projection");
        projection_set(fp.seed().to_vec(), self.addrs.admission, fp.threshold())
    }

    // --- read access -----------------------------------------------------

    /// The chain store.
    pub fn store(&self) -> &ChainStore {
        &self.store
    }

    /// Mutable chain store access (observer registration, tests).
    pub fn store_mut(&mut self) -> &mut ChainStore {
        &mut self.store
    }

    /// The contract registry.
    pub fn registry(&self) -> &ContractRegistry {
        &self.registry
    }

    /// Built-in contract addresses.
    pub fn addrs(&self) -> BuiltinAddrs {
        self.addrs
    }

    /// The supply-chain graph projection's derived graph.
    pub fn graph(&self) -> &SupplyChainGraph {
        self.store
            .observer::<SupplyChainProjection>(names::SUPPLY_CHAIN)
            .expect("supply-chain projection registered")
            .graph()
    }

    /// Indexing statistics from the supply-chain projection.
    pub fn index_stats(&self) -> &IndexStats {
        self.store
            .observer::<SupplyChainProjection>(names::SUPPLY_CHAIN)
            .expect("supply-chain projection registered")
            .stats()
    }

    /// The identity projection's derived registry.
    pub fn identities(&self) -> &IdentityRegistry {
        self.store
            .observer::<IdentityProjection>(names::IDENTITY)
            .expect("identity projection registered")
            .registry()
    }

    /// The fact projection's derived database.
    pub fn factdb(&self) -> &FactualDatabase {
        self.store
            .observer::<FactProjection>(names::FACTDB)
            .expect("fact projection")
            .db()
    }

    /// The fact projection (for candidate queries).
    pub fn fact_projection(&self) -> &FactProjection {
        self.store
            .observer::<FactProjection>(names::FACTDB)
            .expect("fact projection")
    }

    /// Drains fact records admitted since the last call.
    pub fn take_newly_admitted(&mut self) -> Vec<Hash256> {
        self.store
            .observer_mut::<FactProjection>(names::FACTDB)
            .expect("fact projection")
            .take_newly_admitted()
    }

    /// The headline recorded on-chain for `item`, if any.
    pub fn headline(&self, item: &Hash256) -> Option<&str> {
        self.store
            .observer::<HeadlineProjection>(names::HEADLINES)
            .expect("headline projection")
            .headline(item)
    }
}
