//! A validator node: the execution half of a network replica.
//!
//! Consensus (PBFT or PoA in `tn-consensus`) decides the *order* of
//! opaque request payloads; a [`ValidatorNode`] turns each committed
//! batch into a block through the shared
//! [`ExecutionPipeline`]. Because
//! every node bootstraps from the same [`PlatformConfig`] and proposes
//! with the same well-known validator key at a timestamp derived from the
//! batch sequence, agreeing on the batch order is sufficient to agree on
//! every block byte and every projection digest.

use std::error::Error;
use std::fmt;

use tn_chain::codec::{Decodable, Encodable};
use tn_chain::prelude::*;
use tn_core::pipeline::{
    bootstrap, recover_bootstrap, restore_bootstrap, Bootstrap, ExecutionPipeline,
};
use tn_core::platform::PlatformConfig;
use tn_crypto::{Hash256, Keypair};
use tn_monitor::{Alert, HealthState, MonitorConfig, ReplicaMonitor};
use tn_telemetry::{Registry, Snapshot, TelemetrySink};
use tn_trace::{lanes, span_id, TraceId, TraceSink};

/// Errors from applying a committed batch or recovering a replica.
#[derive(Debug)]
pub enum NodeError {
    /// The block built from a batch failed chain import.
    Chain(ChainError),
    /// A cluster or fault configuration was rejected before running.
    Config(String),
    /// A state-sync block failed verification against the local chain.
    Sync(String),
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Chain(e) => write!(f, "chain error applying batch: {e}"),
            NodeError::Config(e) => write!(f, "invalid cluster configuration: {e}"),
            NodeError::Sync(e) => write!(f, "state-sync verification failed: {e}"),
        }
    }
}

impl Error for NodeError {}

impl From<ChainError> for NodeError {
    fn from(e: ChainError) -> Self {
        NodeError::Chain(e)
    }
}

/// Outcome of applying one committed batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Height of the block the batch became.
    pub height: u64,
    /// Transactions included in the block.
    pub included: usize,
    /// Decoded transactions dropped by block proposal (invalid nonce,
    /// unfundable fee, …) — identically dropped on every replica.
    pub(crate) dropped: usize,
    /// Payloads that did not decode as transactions.
    pub(crate) undecodable: usize,
    /// Included transactions whose execution failed (still on-chain).
    pub failed: usize,
}

/// Outcome of one batched mempool ingest (see
/// [`ValidatorNode::submit_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestOutcome {
    /// Transactions the mempool admitted.
    pub accepted: usize,
    /// Transactions the mempool rejected (duplicate, full, bad nonce,
    /// signature) — each rejection is still counted in
    /// `mempool.rejected`, exactly as for single-transaction submits.
    pub rejected: usize,
}

/// One validator replica: a deterministic pipeline advanced batch by
/// batch in consensus order.
#[derive(Debug)]
pub struct ValidatorNode {
    id: usize,
    proposer: Keypair,
    pipeline: ExecutionPipeline,
    /// Per-replica metrics: block imports, projection apply times,
    /// consensus phase histograms, mempool admissions, contract gas.
    registry: Registry,
    /// Span sink for the execution path (disabled unless the cluster run
    /// enables tracing).
    trace: TraceSink,
    /// Live health plane: samples the registry at every commit and
    /// evaluates SLO rules (None unless the deployment enables it).
    monitor: Option<ReplicaMonitor>,
}

impl ValidatorNode {
    /// Boots replica `id` from the canonical bootstrap for `config`. All
    /// nodes built from the same config start byte-identical. Each node
    /// owns an enabled telemetry [`Registry`] wired through its pipeline;
    /// metrics never feed back into execution, so instrumented replicas
    /// stay byte-identical too.
    pub fn new(id: usize, config: &PlatformConfig) -> ValidatorNode {
        Self::assemble(id, bootstrap(config), false)
    }

    /// Wires a bootstrapped pipeline into a node with a fresh telemetry
    /// registry. `recovered` counts the restart in the fresh registry.
    fn assemble(id: usize, bootstrap: Bootstrap, recovered: bool) -> ValidatorNode {
        let Bootstrap {
            validator,
            mut pipeline,
            ..
        } = bootstrap;
        let registry = Registry::new();
        pipeline.set_telemetry(registry.sink());
        if recovered {
            registry.sink().incr("node.fault.recoveries");
        }
        ValidatorNode {
            id,
            proposer: validator,
            pipeline,
            registry,
            trace: TraceSink::disabled(),
            monitor: None,
        }
    }

    /// Serializes this node's full ledger (genesis state plus every stored
    /// block) into a restart-survivable snapshot; see
    /// [`ValidatorNode::recover`].
    pub fn snapshot(&self) -> Vec<u8> {
        self.pipeline.store().snapshot()
    }

    /// Restarts replica `id` from a persisted ledger `snapshot`: every
    /// block is re-validated, re-executed and applied to fresh projections
    /// in one import pass — a recovered node reports exactly the execution
    /// digest it had when the snapshot was taken. Counts `node.fault.recoveries` in the fresh registry.
    ///
    /// # Errors
    ///
    /// [`NodeError::Chain`] when the snapshot fails to decode or a
    /// restored block fails re-validation (a damaged ledger).
    pub fn recover(
        id: usize,
        config: &PlatformConfig,
        snapshot: &[u8],
    ) -> Result<ValidatorNode, NodeError> {
        let bootstrap = restore_bootstrap(config, snapshot)?;
        Ok(Self::assemble(id, bootstrap, true))
    }

    /// Restarts replica `id` from its on-disk storage directory (the
    /// `config.storage` backend must be [`Disk`](tn_storage::BackendKind)):
    /// restores the newest durable checkpoint — chain state, contract
    /// registry, and all four projections — then replays only the WAL
    /// tail written since it. Unlike [`ValidatorNode::recover`], which
    /// re-executes the full snapshotted ledger, reopening costs time
    /// proportional to blocks since the last checkpoint, not to chain
    /// length. Returns the node and the number of tail blocks replayed.
    /// Counts `node.fault.recoveries` in the fresh registry.
    ///
    /// # Errors
    ///
    /// [`NodeError::Chain`] when the directory holds no usable storage or
    /// checkpointed state fails to load.
    pub fn reopen(id: usize, config: &PlatformConfig) -> Result<(ValidatorNode, u64), NodeError> {
        let (bootstrap, replayed) = recover_bootstrap(config)?;
        Ok((Self::assemble(id, bootstrap, true), replayed))
    }

    /// Forces a storage checkpoint at the current head (clean shutdown:
    /// the next [`ValidatorNode::reopen`] then replays zero blocks).
    ///
    /// # Errors
    ///
    /// [`NodeError::Chain`] on backend write failures.
    pub fn checkpoint(&mut self) -> Result<u64, NodeError> {
        Ok(self.pipeline.checkpoint_now()?)
    }

    /// Routes this node's execution spans — mempool admission, pipeline
    /// commit, block verify/execute, per-tx apply, projections — to
    /// `sink`. Hand the same replica's sink to its consensus node so the
    /// consensus phases land in the same trace.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.pipeline.set_trace(sink.clone());
        self.trace = sink;
    }

    /// Replica id (the consensus node id).
    pub fn id(&self) -> usize {
        self.id
    }

    /// A sink recording into this node's metrics registry. Hand this to
    /// the consensus replica with the same id so PBFT/PoA phase metrics
    /// land next to the node's execution metrics.
    pub fn telemetry_sink(&self) -> TelemetrySink {
        self.registry.sink()
    }

    /// A point-in-time copy of this node's metrics.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Enables the live health plane on this replica: from now on every
    /// committed block samples the registry into a [`ReplicaMonitor`]
    /// (logical tick = block height) and evaluates the built-in SLO
    /// rules. The monitor only reads snapshots — execution, and
    /// therefore every digest, is unaffected.
    pub fn enable_monitor(&mut self, config: &MonitorConfig) {
        let mut monitor = ReplicaMonitor::new(self.id, config);
        // Baseline sample so pre-enable activity (bootstrap, recovery
        // counters) lands in the first window instead of the first
        // post-enable commit's.
        monitor.sample(self.height(), self.registry.snapshot());
        self.monitor = Some(monitor);
    }

    /// The replica's health plane, if enabled.
    pub fn monitor(&self) -> Option<&ReplicaMonitor> {
        self.monitor.as_ref()
    }

    /// Mutable access to the health plane (cluster rollups escalate
    /// replica state through it), if enabled.
    pub(crate) fn monitor_mut(&mut self) -> Option<&mut ReplicaMonitor> {
        self.monitor.as_mut()
    }

    /// Current health verdict: the monitor's state when enabled,
    /// [`HealthState::Healthy`] otherwise (an unmonitored replica has
    /// nothing to report).
    pub fn health(&self) -> HealthState {
        self.monitor
            .as_ref()
            .map(|m| m.health())
            .unwrap_or(HealthState::Healthy)
    }

    /// Samples the registry into the monitor at the current height and
    /// returns the alert transitions it produced (empty when the monitor
    /// is disabled). Runs automatically at every commit; callers may also
    /// invoke it on quiet replicas (e.g. a crashed node's last state).
    pub(crate) fn monitor_tick(&mut self) -> Vec<Alert> {
        match self.monitor.as_mut() {
            Some(monitor) => {
                let tick = self.pipeline.store().height();
                monitor.sample(tick, self.registry.snapshot())
            }
            None => Vec::new(),
        }
    }

    /// [`ExecutionPipeline::submit`]: admits `tx` to this node's mempool.
    ///
    /// # Errors
    ///
    /// Mempool admission errors (duplicate, full, bad nonce, signature).
    pub fn submit(&mut self, tx: Transaction) -> Result<(), ChainError> {
        self.pipeline.submit(tx)
    }

    /// The node's client-facing mempool (the pipeline's).
    pub fn mempool(&self) -> &Mempool {
        self.pipeline.mempool()
    }

    /// [`ExecutionPipeline::submit_batch`], the gateway's batched-ingest
    /// entry point. Counts `node.ingest.batches` and observes
    /// `node.ingest.batch_size` on top of the per-transaction metrics.
    pub fn submit_batch(&mut self, txs: Vec<Transaction>) -> IngestOutcome {
        let size = txs.len() as u64;
        let verdicts = self.pipeline.submit_batch(txs);
        let accepted = verdicts.iter().filter(|v| v.is_ok()).count();
        let out = IngestOutcome {
            accepted,
            rejected: verdicts.len() - accepted,
        };
        self.registry.sink().incr("node.ingest.batches");
        self.registry.sink().observe("node.ingest.batch_size", size);
        out
    }

    /// Builds and imports the next block from the mempool's ready
    /// transactions (up to `max_txs`, fee-prioritised, nonce-ordered) —
    /// local block production for single-node and gateway-driven
    /// deployments, running the exact consensus-batch commit path.
    /// Returns `None` without advancing the chain when no transaction is
    /// ready.
    ///
    /// # Errors
    ///
    /// [`NodeError::Chain`] when the built block fails import.
    pub fn produce_block_from_mempool(
        &mut self,
        max_txs: usize,
    ) -> Result<Option<BatchOutcome>, NodeError> {
        let txs = self.pipeline.select(max_txs);
        if txs.is_empty() {
            return Ok(None);
        }
        self.commit_txs(txs, 0).map(Some)
    }

    /// Applies one consensus-committed batch of payloads: decodes them as
    /// transactions, builds the next block, and imports it through the
    /// executor + projection path.
    ///
    /// # Errors
    ///
    /// [`NodeError::Chain`] when the built block fails import (cannot
    /// happen for batches produced by this node's own propose path).
    pub fn apply_committed_batch(
        &mut self,
        payloads: &[Vec<u8>],
    ) -> Result<BatchOutcome, NodeError> {
        let decode = |p: &Vec<u8>| Transaction::from_bytes(p).ok().map(Into::into);
        let txs: Vec<_> = payloads.iter().filter_map(decode).collect();
        let undecodable = payloads.len() - txs.len();
        self.commit_txs(txs, undecodable)
    }

    /// Shared commit tail of [`ValidatorNode::apply_committed_batch`] and
    /// [`ValidatorNode::produce_block_from_mempool`]: builds the next
    /// block at the pipeline's clock from already-decoded transactions and
    /// their ids, imports it, and records the cluster-once `tx.commit` spans.
    fn commit_txs(
        &mut self,
        txs: Vec<(Hash256, Transaction)>,
        undecodable: usize,
    ) -> Result<BatchOutcome, NodeError> {
        let t0 = self.trace.now_ns();
        let decoded = txs.len();
        let timestamp = self.pipeline.next_timestamp();
        let (block, receipts) = self.pipeline.commit_batch(&self.proposer, timestamp, txs)?;
        if self.trace.is_enabled() {
            // The cluster-once logical commit of each transaction: whichever
            // replica gets here first records it; every replica's `tx.apply`
            // parents under it by recomputing `span_id(trace, "tx.commit")`.
            for receipt in &receipts {
                let tx_trace = TraceId::from_seed(receipt.tx_id.as_bytes());
                self.trace.complete_once(
                    tx_trace,
                    "tx.commit",
                    span_id(tx_trace, "tx.admission"),
                    lanes::EXECUTE,
                    t0,
                    &[("height", block.header.height)],
                );
            }
        }
        if undecodable > 0 {
            self.registry
                .sink()
                .add("node.batch.undecodable", undecodable as u64);
        }
        self.monitor_tick();
        Ok(BatchOutcome {
            height: block.header.height,
            included: block.transactions.len(),
            dropped: decoded - block.transactions.len(),
            undecodable,
            failed: receipts.iter().filter(|r| !r.success).count(),
        })
    }

    /// The underlying pipeline (read access to chain and projections).
    pub fn pipeline(&self) -> &ExecutionPipeline {
        &self.pipeline
    }

    /// Id of the canonical head block.
    pub fn head_id(&self) -> Hash256 {
        self.pipeline.store().head_id()
    }

    /// True when the node's store holds `id` (canonical or fork).
    pub(crate) fn has_block(&self, id: &Hash256) -> bool {
        self.pipeline.store().contains(id)
    }

    /// Canonical blocks strictly above `height`, lowest first — what a
    /// peer serves to a catching-up replica.
    pub fn blocks_after(&self, height: u64) -> Vec<Block> {
        let store = self.pipeline.store();
        // Head first, one id per height: everything above `height` is the
        // leading `head − height` ids. Only those are decoded.
        let mut ids = store.canonical_chain();
        ids.truncate(store.height().saturating_sub(height) as usize);
        ids.iter().rev().filter_map(|id| store.block(id)).collect()
    }

    /// Applies one peer-fetched block during state-sync catch-up: the run
    /// of one of [`ValidatorNode::apply_synced_blocks`].
    ///
    /// # Errors
    ///
    /// [`NodeError::Sync`] when the parent is unknown, [`NodeError::Chain`]
    /// when verification rejects the block.
    pub fn apply_synced_block(&mut self, block: Block) -> Result<(), NodeError> {
        self.apply_synced_blocks(std::slice::from_ref(&block)).1
    }

    /// Applies a run of peer-fetched blocks, in order, during state-sync
    /// catch-up, stopping at the first one that is refused. All the
    /// signatures of the run — proposers' and transactions' — go through
    /// one pass of batched equations before any block is executed
    /// ([`ChainStore::check_run`]). Then, per block: one the store already
    /// holds is skipped (shared prefix); its linkage is checked (its
    /// parent must already be in the store); the import re-executes it and
    /// checks its post-state, so a tampered block is rejected before it
    /// can touch the ledger. Fork-choice runs on import: once the synced
    /// branch outgrows the local one, the head (and all projections) flip
    /// to it. Counts `node.catchup.blocks_applied`.
    ///
    /// Returns how many blocks were applied or skipped before the run
    /// ended, and why it ended early if it did: [`NodeError::Sync`] when a
    /// parent is unknown, [`NodeError::Chain`] when verification rejects a
    /// block.
    pub fn apply_synced_blocks(&mut self, blocks: &[Block]) -> (usize, Result<(), NodeError>) {
        let mut applied = 0;
        for checked in self.pipeline.store().check_run(blocks) {
            if let Err(err) = self.apply_checked(checked) {
                return (applied, Err(err));
            }
            applied += 1;
        }
        (applied, Ok(()))
    }

    /// One block's turn in [`ValidatorNode::apply_synced_blocks`].
    fn apply_checked(&mut self, checked: CheckedBlock<'_>) -> Result<(), NodeError> {
        if self.has_block(&checked.id()) {
            return Ok(()); // already have it (shared prefix)
        }
        let header = &checked.block().header;
        if !self.has_block(&header.parent) {
            return Err(NodeError::Sync(format!(
                "synced block at height {} links to unknown parent",
                header.height
            )));
        }
        self.pipeline.apply_checked(checked)?;
        self.registry.sink().incr("node.catchup.blocks_applied");
        Ok(())
    }

    /// Current chain height.
    pub fn height(&self) -> u64 {
        self.pipeline.store().height()
    }

    /// The replica-wide execution digest (head, state, storage,
    /// projections).
    pub fn execution_digest(&self) -> Hash256 {
        self.pipeline.execution_digest()
    }

    /// Per-projection digests.
    pub fn projection_digests(&self) -> Vec<(&'static str, Hash256)> {
        self.pipeline.projection_digests()
    }

    /// Ledger-replay audit: rebuilds all projections from genesis and
    /// compares against the live ones.
    ///
    /// # Errors
    ///
    /// Names the first diverging projection.
    pub fn verify_replay(&self) -> Result<Vec<(&'static str, Hash256)>, String> {
        self.pipeline.verify_replay()
    }

    /// The node's execution-path span sink (for recovery-path spans).
    pub(crate) fn trace_sink(&self) -> TraceSink {
        self.trace.clone()
    }
}

/// Encodes transactions into consensus request payloads.
pub fn encode_payloads(txs: &[Transaction]) -> Vec<Vec<u8>> {
    txs.iter().map(|tx| tx.to_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_boot_identically() {
        let config = PlatformConfig::default();
        let a = ValidatorNode::new(0, &config);
        let b = ValidatorNode::new(1, &config);
        assert_eq!(a.execution_digest(), b.execution_digest());
        assert_eq!(a.height(), 1, "bootstrap commits the anchor block");
    }

    #[test]
    fn snapshot_then_recover_preserves_the_digest() -> Result<(), String> {
        let config = PlatformConfig::default();
        let mut node = ValidatorNode::new(0, &config);
        // Advance past bootstrap so the snapshot holds real history.
        for batch in [vec![vec![1u8, 2, 3]], vec![vec![4u8, 5]]] {
            node.apply_committed_batch(&batch)
                .map_err(|e| format!("batch failed: {e}"))?;
        }
        let before = node.execution_digest();
        let snapshot = node.snapshot();
        let recovered = ValidatorNode::recover(0, &config, &snapshot)
            .map_err(|e| format!("recover failed: {e}"))?;
        assert_eq!(recovered.execution_digest(), before);
        assert_eq!(recovered.height(), node.height());
        recovered
            .verify_replay()
            .map_err(|e| format!("replay audit failed after recovery: {e}"))?;
        assert_eq!(
            recovered
                .metrics_snapshot()
                .counter("node.fault.recoveries"),
            Some(1)
        );
        Ok(())
    }

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!("tn-node-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn disk_config(dir: &std::path::Path) -> PlatformConfig {
        let mut config = PlatformConfig::default();
        config.storage.backend = tn_storage::BackendKind::Disk(dir.to_path_buf());
        config.storage.checkpoint_interval = 4;
        config.storage.fsync_interval = 1;
        config
    }

    #[test]
    fn disk_reopen_replays_only_the_wal_tail() -> Result<(), String> {
        let tmp = TempDir::new("reopen");
        let config = disk_config(&tmp.0);
        let mut node = ValidatorNode::new(0, &config);
        for i in 0..10u8 {
            node.apply_committed_batch(&[vec![i]])
                .map_err(|e| format!("batch failed: {e}"))?;
        }
        let before = node.execution_digest();
        let height = node.height();
        drop(node); // kill without a shutdown checkpoint
        let (reopened, replayed) =
            ValidatorNode::reopen(0, &config).map_err(|e| format!("reopen failed: {e}"))?;
        assert_eq!(reopened.height(), height);
        assert_eq!(reopened.execution_digest(), before);
        // Heights 1..=11 with a checkpoint every 4 blocks: the last
        // checkpoint landed at 8, so only the 3-block tail replays.
        assert_eq!(
            replayed,
            height - 8,
            "tail replay should skip checkpointed history"
        );
        reopened
            .verify_replay()
            .map_err(|e| format!("replay audit failed after reopen: {e}"))?;
        assert_eq!(
            reopened.metrics_snapshot().counter("node.fault.recoveries"),
            Some(1)
        );
        // The disk backend reports how many WAL records it re-read.
        assert!(
            reopened
                .metrics_snapshot()
                .counter("storage.wal.replays")
                .unwrap_or(0)
                > 0,
            "reopen must surface WAL replay work in telemetry"
        );
        Ok(())
    }

    #[test]
    fn clean_shutdown_checkpoint_makes_reopen_replay_free() -> Result<(), String> {
        let tmp = TempDir::new("clean-shutdown");
        let config = disk_config(&tmp.0);
        let mut node = ValidatorNode::new(0, &config);
        for i in 0..5u8 {
            node.apply_committed_batch(&[vec![i]])
                .map_err(|e| format!("batch failed: {e}"))?;
        }
        node.checkpoint()
            .map_err(|e| format!("checkpoint failed: {e}"))?;
        let before = node.execution_digest();
        drop(node);
        let (reopened, replayed) =
            ValidatorNode::reopen(0, &config).map_err(|e| format!("reopen failed: {e}"))?;
        assert_eq!(replayed, 0, "clean shutdown leaves no tail");
        assert_eq!(reopened.execution_digest(), before);
        Ok(())
    }

    #[test]
    fn reopened_node_keeps_committing() -> Result<(), String> {
        // A reopened replica is a full peer: it must keep producing
        // blocks that a never-crashed replica accepts byte-for-byte.
        let tmp = TempDir::new("continue");
        let config = disk_config(&tmp.0);
        let mut witness = ValidatorNode::new(1, &PlatformConfig::default());
        let mut node = ValidatorNode::new(0, &config);
        for i in 0..6u8 {
            let batch = vec![vec![i]];
            node.apply_committed_batch(&batch)
                .map_err(|e| format!("batch failed: {e}"))?;
            witness
                .apply_committed_batch(&batch)
                .map_err(|e| format!("witness batch failed: {e}"))?;
        }
        drop(node);
        let (mut reopened, _) =
            ValidatorNode::reopen(0, &config).map_err(|e| format!("reopen failed: {e}"))?;
        for i in 6..9u8 {
            let batch = vec![vec![i]];
            reopened
                .apply_committed_batch(&batch)
                .map_err(|e| format!("post-reopen batch failed: {e}"))?;
            witness
                .apply_committed_batch(&batch)
                .map_err(|e| format!("witness batch failed: {e}"))?;
        }
        assert_eq!(reopened.execution_digest(), witness.execution_digest());
        Ok(())
    }

    #[test]
    fn recover_rejects_a_damaged_snapshot() {
        let config = PlatformConfig::default();
        let node = ValidatorNode::new(0, &config);
        let mut snapshot = node.snapshot();
        let mid = snapshot.len() / 2;
        snapshot[mid] ^= 0xff;
        assert!(ValidatorNode::recover(0, &config, &snapshot).is_err());
    }

    #[test]
    fn synced_block_with_unknown_parent_is_rejected() -> Result<(), String> {
        let config = PlatformConfig::default();
        let mut peer = ValidatorNode::new(0, &config);
        peer.apply_committed_batch(&[vec![1u8, 2, 3]])
            .map_err(|e| format!("batch failed: {e}"))?;
        peer.apply_committed_batch(&[vec![4u8, 5, 6]])
            .map_err(|e| format!("batch failed: {e}"))?;
        let mut node = ValidatorNode::new(1, &config);
        let blocks = peer.blocks_after(node.height());
        assert_eq!(blocks.len(), 2);
        // Skipping the first block leaves the second without a parent.
        let err = node.apply_synced_block(blocks[1].clone());
        assert!(matches!(err, Err(NodeError::Sync(_))), "{err:?}");
        // In order, both apply and the digests converge.
        for b in blocks {
            node.apply_synced_block(b)
                .map_err(|e| format!("sync apply failed: {e}"))?;
        }
        assert_eq!(node.execution_digest(), peer.execution_digest());
        Ok(())
    }

    #[test]
    fn a_tampered_block_stops_a_synced_run_where_it_stands() -> Result<(), String> {
        let config = PlatformConfig::default();
        let mut peer = ValidatorNode::new(0, &config);
        for i in 0..4u8 {
            peer.apply_committed_batch(&[vec![i, 0xaa]])
                .map_err(|e| format!("batch failed: {e}"))?;
        }
        let mut node = ValidatorNode::new(1, &config);
        let good = peer.blocks_after(node.height());
        let mut served = good.clone();
        served[2].header.timestamp += 1;
        // The run's one equation fails, so every block is checked on its
        // own: the two before the tampered one are applied, it is refused
        // with the error a block-by-block sync reports, nothing after it
        // is touched.
        let (applied, verdict) = node.apply_synced_blocks(&served);
        assert_eq!(applied, 2);
        assert!(
            matches!(verdict, Err(NodeError::Chain(ChainError::BadSignature))),
            "{verdict:?}"
        );
        assert_eq!(node.height(), peer.height() - 2);
        // An honest copy of the same run finishes the job; the shared
        // prefix counts as applied, as it does block by block.
        let (applied, verdict) = node.apply_synced_blocks(&good);
        assert_eq!(applied, 4);
        verdict.map_err(|e| format!("honest run refused: {e}"))?;
        assert_eq!(node.execution_digest(), peer.execution_digest());
        Ok(())
    }

    #[test]
    fn submit_batch_counts_accepts_and_rejects() -> Result<(), String> {
        use crate::workload::scripted_workload;
        let config = PlatformConfig::default();
        let mut node = ValidatorNode::new(0, &config);
        let txs = scripted_workload(&config);
        let n = txs.len();
        let out = node.submit_batch(txs.clone());
        assert_eq!(out.accepted, n);
        assert_eq!(out.rejected, 0);
        // Resubmitting the same batch: every tx is now a duplicate.
        let out = node.submit_batch(txs);
        assert_eq!(out.accepted, 0);
        assert_eq!(out.rejected, n);
        let snap = node.metrics_snapshot();
        assert_eq!(snap.counter("node.ingest.batches"), Some(2));
        assert_eq!(snap.counter("mempool.admitted"), Some(n as u64));
        assert_eq!(snap.counter("mempool.rejected"), Some(n as u64));
        Ok(())
    }

    #[test]
    fn submit_batch_and_submit_reach_the_same_digest() -> Result<(), String> {
        use crate::workload::scripted_workload;
        let config = PlatformConfig::default();
        let stream = scripted_workload(&config);
        // A damaged signature and a repeat follow in a batch of their own:
        // same verdicts, and neither may reach a block on either node.
        let mut forged = stream[3].clone();
        forged.fee += 1;
        let tail = vec![forged, stream[0].clone()];
        let mut batched = ValidatorNode::new(0, &config);
        let mut single = ValidatorNode::new(1, &config);
        for (batch, rejected) in [(&stream, 0), (&tail, 2)] {
            let out = batched.submit_batch(batch.clone());
            let accepted = batch
                .iter()
                .filter(|tx| single.submit((*tx).clone()).is_ok())
                .count();
            assert_eq!(out.accepted, accepted);
            assert_eq!(out.rejected, rejected);
        }
        for node in [&mut batched, &mut single] {
            while node
                .produce_block_from_mempool(16)
                .map_err(|e| format!("produce failed: {e}"))?
                .is_some()
            {}
        }
        assert_eq!(batched.height(), single.height());
        assert_eq!(batched.execution_digest(), single.execution_digest());
        // The batched node paid its signature checks in equations, the
        // other one by one; both looked each signature up once.
        let (b, s) = (batched.metrics_snapshot(), single.metrics_snapshot());
        assert_eq!(
            b.counter("chain.verify.batch.txs"),
            Some(stream.len() as u64)
        );
        assert_eq!(b.counter("chain.verify.batch.fallback"), Some(1));
        assert_eq!(s.counter("chain.verify.batch.txs"), None);
        for name in ["chain.sigcache.hit", "chain.sigcache.miss"] {
            assert_eq!(b.counter(name), s.counter(name), "{name}");
        }
        Ok(())
    }

    #[test]
    fn produce_block_from_mempool_commits_ready_txs() -> Result<(), String> {
        use crate::workload::scripted_workload;
        let config = PlatformConfig::default();
        let mut node = ValidatorNode::new(0, &config);
        assert_eq!(
            node.produce_block_from_mempool(100)
                .map_err(|e| format!("empty produce failed: {e}"))?,
            None,
            "an empty mempool must not advance the chain"
        );
        let txs = scripted_workload(&config);
        let n = txs.len();
        node.submit_batch(txs);
        let mut included = 0usize;
        let mut blocks = 0usize;
        while let Some(out) = node
            .produce_block_from_mempool(8)
            .map_err(|e| format!("produce failed: {e}"))?
        {
            assert!(out.included <= 8);
            included += out.included;
            blocks += 1;
            assert!(blocks <= n, "production must terminate");
        }
        assert_eq!(included, n, "every admitted tx eventually commits");
        assert!(node.mempool().is_empty());
        assert_eq!(node.height(), 1 + blocks as u64);
        node.verify_replay()
            .map_err(|e| format!("replay audit failed after mempool production: {e}"))?;
        Ok(())
    }

    #[test]
    fn a_pool_a_peer_commits_leaves_with_its_nonces_and_the_clock_follows() -> Result<(), String> {
        use crate::workload::scripted_workload;
        let config = PlatformConfig::default();
        let stream = scripted_workload(&config);
        let mut peer = ValidatorNode::new(0, &config);
        let mut node = ValidatorNode::new(1, &config);
        assert_eq!(node.submit_batch(stream.clone()).accepted, stream.len());
        // The peer commits the node's whole pool in two blocks, then an
        // empty one: its head runs two timestamps past the node's clock.
        let (first, rest) = stream.split_at(stream.len() / 2);
        for batch in [first, rest, &[]] {
            peer.apply_committed_batch(&encode_payloads(batch))
                .map_err(|e| format!("peer batch failed: {e}"))?;
        }
        let (applied, verdict) = node.apply_synced_blocks(&peer.blocks_after(node.height()));
        assert!(applied == 3 && verdict.is_ok(), "{verdict:?}");
        assert!(node.mempool().is_empty());
        let head = node.pipeline().store().head_state();
        for tx in &stream {
            assert_eq!(node.pipeline().next_nonce(&tx.from), head.nonce(&tx.from));
        }
        // The node's next block, cut from its mempool, is stamped past the
        // peer's head, and the peer takes it.
        let peer_head = peer.pipeline().store().head();
        let governor = Keypair::from_seed(b"tn-platform-governor");
        let nonce = node.pipeline().next_nonce(&governor.address());
        let payload = Payload::Transfer {
            to: stream[0].from,
            amount: 1,
        };
        node.submit(Transaction::signed(&governor, nonce, config.fee, payload))
            .map_err(|e| format!("submit failed: {e}"))?;
        let produced = node.produce_block_from_mempool(8);
        assert!(matches!(
            produced,
            Ok(Some(BatchOutcome { included: 1, .. }))
        ));
        let head = node.pipeline().store().head();
        assert_eq!(head.header.timestamp, peer_head.header.timestamp + 1);
        peer.apply_synced_block(head)
            .map_err(|e| format!("the peer refused the block: {e}"))?;
        assert_eq!(peer.execution_digest(), node.execution_digest());
        Ok(())
    }

    #[test]
    fn undecodable_payloads_are_counted_not_fatal() -> Result<(), String> {
        let config = PlatformConfig::default();
        let mut node = ValidatorNode::new(0, &config);
        // A well-formed transaction whose payload carries tag 2, once
        // bytecode deployment, now retired.
        let mut deploy = Transaction::signed(
            &Keypair::from_seed(b"deployer"),
            0,
            config.fee,
            Payload::Blob {
                tag: 1,
                data: vec![0x01],
            },
        )
        .to_bytes();
        deploy[48] = 2;
        let out = node
            .apply_committed_batch(&[vec![0xde, 0xad], deploy])
            .map_err(|e| format!("applying an undecodable-only batch must not fail: {e}"))?;
        assert_eq!(out.undecodable, 2);
        assert_eq!(out.included, 0);
        assert_eq!(out.height, 2);
        assert_eq!(
            node.metrics_snapshot().counter("node.batch.undecodable"),
            Some(2)
        );
        Ok(())
    }
}
