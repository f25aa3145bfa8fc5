//! State-sync catch-up: closing a recovered replica's gap from peers.
//!
//! A replica that was down for k batches holds a prefix (PBFT) or a
//! holed fork (PoA) of the cluster's canonical chain. [`catch_up`]
//! fetches the missing canonical blocks from a peer that holds the
//! agreed execution digest, verifies them against the local chain before
//! applying — the signatures of the whole fetched run in one pass of
//! batched equations, then per block linkage, re-execution and state
//! root, exactly what block import checks — and reports whether the
//! replica converged. Fork choice handles the PoA case: the synced
//! branch overtakes the local one and the projections are rebuilt onto
//! it.

use std::error::Error;
use std::fmt;

use tn_crypto::Hash256;
use tn_trace::{lanes, TraceId};

use crate::validator::ValidatorNode;

/// Errors that end a catch-up attempt before convergence.
#[derive(Debug)]
pub enum SyncError {
    /// No peer reported the target execution digest.
    NoPeerAtTarget,
    /// Every candidate peer was tried and the replica still does not
    /// report the target digest.
    NotConverged {
        /// The digest the replica was syncing towards.
        target: Hash256,
        /// The digest it ended up with.
        actual: Hash256,
    },
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::NoPeerAtTarget => {
                write!(f, "no peer holds the target execution digest")
            }
            SyncError::NotConverged { target, actual } => write!(
                f,
                "catch-up exhausted all peers: at {actual}, target {target}"
            ),
        }
    }
}

impl Error for SyncError {}

/// What one catch-up pass did, for the cluster's fault report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatchupReport {
    /// The recovering replica.
    pub(crate) replica: usize,
    /// The peer that served the blocks (the first at the target digest
    /// that worked), if any.
    pub(crate) peer: Option<usize>,
    /// Replica chain height before catch-up.
    pub(crate) from_height: u64,
    /// Replica chain height after catch-up.
    pub(crate) to_height: u64,
    /// Canonical blocks fetched from peers across all attempts.
    pub(crate) blocks_fetched: usize,
    /// Blocks that passed verification and were applied.
    pub blocks_applied: usize,
    /// Blocks rejected by verification (tampered or mislinked).
    pub(crate) rejected_blocks: usize,
    /// True when the replica reports the target digest afterwards.
    pub converged: bool,
}

/// Highest height at which `node` already holds a block of `peer`'s
/// canonical chain — the point the two histories share. Blocks above it
/// are what the replica is missing (or has forked away from).
fn fork_height(node: &ValidatorNode, peer: &ValidatorNode) -> u64 {
    // Head first, one id per height, genesis last: counted from the far
    // end, a block's position is its height.
    let ids = peer.pipeline().store().canonical_chain();
    let held = ids.iter().rev().take_while(|id| node.has_block(id)).count();
    held.saturating_sub(1) as u64
}

/// Catches `node` up to `target` — the cluster's agreed execution digest
/// — by fetching missing canonical blocks from the first peer that holds
/// the target, verifying each before applying. Peers not at the target
/// are skipped; if a peer serves a block that fails verification the
/// remaining candidates are tried. Records a `node.catchup` span (trace
/// id derived from the target digest) and `node.catchup.*` counters on
/// the recovering node.
///
/// # Errors
///
/// [`SyncError::NoPeerAtTarget`] when no peer reports `target`;
/// [`SyncError::NotConverged`] when all candidates were tried and the
/// node still reports a different digest. The successful report is also
/// returned on convergence-without-work (the node was already at the
/// target).
pub fn catch_up(
    node: &mut ValidatorNode,
    peers: &[&ValidatorNode],
    target: Hash256,
) -> Result<CatchupReport, SyncError> {
    let trace = node.trace_sink();
    let t0 = trace.now_ns();
    let telemetry = node.telemetry_sink();
    let from_height = node.height();
    let mut report = CatchupReport {
        replica: node.id(),
        peer: None,
        from_height,
        to_height: from_height,
        blocks_fetched: 0,
        blocks_applied: 0,
        rejected_blocks: 0,
        converged: node.execution_digest() == target,
    };
    // Each peer is asked for its digest only when its turn comes: the
    // first one at the target that serves a good chain ends the scan.
    let mut any_at_target = false;
    for peer in peers {
        if report.converged {
            break;
        }
        if peer.execution_digest() != target {
            continue;
        }
        any_at_target = true;
        telemetry.incr("node.catchup.peers_tried");
        let base = fork_height(node, peer);
        let blocks = peer.blocks_after(base);
        report.blocks_fetched += blocks.len();
        let (applied, verdict) = node.apply_synced_blocks(&blocks);
        report.blocks_applied += applied;
        if verdict.is_err() {
            // Verification rejected a block; everything after would
            // mislink, so move on to the next candidate.
            report.rejected_blocks += 1;
            telemetry.incr("node.catchup.blocks_rejected");
        }
        report.converged = node.execution_digest() == target;
        if report.converged {
            report.peer = Some(peer.id());
        }
    }
    if !report.converged && !any_at_target {
        return Err(SyncError::NoPeerAtTarget);
    }
    report.to_height = node.height();
    if trace.is_enabled() {
        let trace_id = TraceId::from_seed(target.as_bytes());
        trace.complete(
            trace_id,
            "node.catchup",
            0,
            lanes::PIPELINE,
            t0,
            &[
                ("from_height", report.from_height),
                ("to_height", report.to_height),
                ("applied", report.blocks_applied as u64),
            ],
        );
    }
    if report.converged {
        Ok(report)
    } else {
        Err(SyncError::NotConverged {
            target,
            actual: node.execution_digest(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_core::platform::PlatformConfig;

    fn advanced_node(id: usize, config: &PlatformConfig, batches: usize) -> ValidatorNode {
        let mut node = ValidatorNode::new(id, config);
        for i in 0..batches {
            node.apply_committed_batch(&[vec![i as u8, 0xaa, 0xbb]])
                .expect("batch");
        }
        node
    }

    #[test]
    fn lagging_replica_converges_from_a_peer() {
        let config = PlatformConfig::default();
        let peer = advanced_node(0, &config, 4);
        let target = peer.execution_digest();
        let mut lagging = advanced_node(1, &config, 1);
        assert_ne!(lagging.execution_digest(), target);
        let report = catch_up(&mut lagging, &[&peer], target).expect("catch-up");
        assert!(report.converged);
        assert_eq!(report.peer, Some(0));
        assert_eq!(report.blocks_applied, 3);
        assert_eq!(report.rejected_blocks, 0);
        assert_eq!(lagging.execution_digest(), target);
        assert_eq!(
            lagging
                .metrics_snapshot()
                .counter("node.catchup.blocks_applied"),
            Some(3)
        );
    }

    #[test]
    fn peers_off_the_target_digest_are_not_trusted() {
        let config = PlatformConfig::default();
        let peer = advanced_node(0, &config, 2);
        let mut node = advanced_node(1, &config, 1);
        // Target digest that no peer holds: catch-up refuses to pick a
        // source rather than syncing to the wrong history.
        let bogus = Hash256::ZERO;
        let err = catch_up(&mut node, &[&peer], bogus);
        assert!(matches!(err, Err(SyncError::NoPeerAtTarget)), "{err:?}");
        assert_eq!(node.height(), 2, "nothing was applied");
    }

    #[test]
    fn tampered_blocks_are_rejected_and_counted() {
        let config = PlatformConfig::default();
        let peer = advanced_node(0, &config, 3);
        let target = peer.execution_digest();
        let mut node = advanced_node(1, &config, 1);
        // Serve the peer's blocks with one tampered in the middle: the
        // apply path must reject it (and everything after mislinks).
        let mut blocks = peer.blocks_after(node.height());
        blocks[0].header.timestamp += 1;
        let mut applied = 0usize;
        let mut rejected = 0usize;
        for block in blocks {
            match node.apply_synced_block(block) {
                Ok(()) => applied += 1,
                Err(_) => rejected += 1,
            }
        }
        assert_eq!(applied, 0, "tampering invalidates the whole suffix");
        assert_eq!(rejected, 2);
        assert_ne!(node.execution_digest(), target);
    }

    #[test]
    fn reopened_replica_catches_up_from_peers() -> Result<(), String> {
        // Kill a disk-backed replica, let the cluster advance, reopen it
        // from its storage directory (checkpoint + WAL tail), then close
        // the remaining gap from a live peer — the full restart story.
        struct TempDir(std::path::PathBuf);
        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let tmp = TempDir(
            std::env::temp_dir().join(format!("tn-node-sync-reopen-{}", std::process::id())),
        );
        let _ = std::fs::remove_dir_all(&tmp.0);
        let mut config = PlatformConfig::default();
        config.storage.backend = tn_storage::BackendKind::Disk(tmp.0.clone());
        config.storage.checkpoint_interval = 4;
        config.storage.fsync_interval = 1;
        let mut node = ValidatorNode::new(0, &config);
        let mut peer = ValidatorNode::new(1, &PlatformConfig::default());
        for i in 0..6u8 {
            let batch = vec![vec![i, 0xaa]];
            node.apply_committed_batch(&batch)
                .map_err(|e| format!("batch failed: {e}"))?;
            peer.apply_committed_batch(&batch)
                .map_err(|e| format!("peer batch failed: {e}"))?;
        }
        drop(node); // crash without a shutdown checkpoint
        for i in 6..9u8 {
            peer.apply_committed_batch(&[vec![i, 0xaa]])
                .map_err(|e| format!("peer batch failed: {e}"))?;
        }
        let target = peer.execution_digest();
        let (mut reopened, replayed) =
            ValidatorNode::reopen(0, &config).map_err(|e| format!("reopen failed: {e}"))?;
        assert!(
            replayed <= config.storage.checkpoint_interval,
            "tail replay ({replayed}) must be bounded by the checkpoint interval"
        );
        let report = catch_up(&mut reopened, &[&peer], target)
            .map_err(|e| format!("catch-up failed: {e}"))?;
        assert!(report.converged);
        assert_eq!(report.blocks_applied, 3, "only the downtime gap is fetched");
        assert_eq!(reopened.execution_digest(), target);
        Ok(())
    }

    #[test]
    fn catch_up_imports_through_the_batched_verifier() {
        // Multi-transaction blocks synced into a cold replica must take
        // the batched-Schnorr path: every synced transaction is counted
        // by `chain.verify.batch.txs`, no batch ever falls back, and the
        // replica still converges to the peer's exact digest.
        use tn_chain::codec::Encodable;
        use tn_chain::prelude::{Payload, Transaction};
        let config = PlatformConfig::default();
        let mut peer = ValidatorNode::new(0, &config);
        // Real signed transactions from the funded governor account
        // (nonce 0 was spent on the bootstrap anchor).
        let governor = tn_crypto::Keypair::from_seed(b"tn-platform-governor");
        let mut nonce = 1u64;
        for i in 0..3u8 {
            let batch: Vec<Vec<u8>> = (0..5u8)
                .map(|j| {
                    let tx = Transaction::signed(
                        &governor,
                        nonce,
                        config.fee,
                        Payload::Blob {
                            tag: 1,
                            data: vec![i, j],
                        },
                    );
                    nonce += 1;
                    tx.to_bytes()
                })
                .collect();
            peer.apply_committed_batch(&batch).expect("batch");
        }
        let target = peer.execution_digest();
        let mut lagging = ValidatorNode::new(1, &config);
        let synced_txs: u64 = peer
            .blocks_after(lagging.height())
            .iter()
            .map(|b| b.transactions.len() as u64)
            .sum();
        assert!(synced_txs >= 15, "expected multi-tx sync blocks");
        let report = catch_up(&mut lagging, &[&peer], target).expect("catch-up");
        assert!(report.converged);
        assert_eq!(lagging.execution_digest(), target);
        let snap = lagging.metrics_snapshot();
        assert_eq!(
            snap.counter(tn_chain::block::BATCH_TXS_COUNTER),
            Some(synced_txs),
            "every synced tx batch-verified"
        );
        assert_eq!(snap.counter(tn_chain::block::BATCH_FALLBACK_COUNTER), None);
        assert_eq!(
            snap.counter(tn_chain::sigcache::MISS_COUNTER),
            Some(synced_txs),
            "batch verification still counts one miss per cold tx"
        );
    }

    #[test]
    fn one_tx_blocks_catch_up_without_a_lone_verification() {
        // The chain consensus actually produces: one transaction per block,
        // two signatures each. Synced as a run, all forty go into a single
        // equation — no header and no transaction is verified on its own.
        use tn_chain::block::{
            BATCH_CHUNKS_COUNTER, BATCH_FALLBACK_COUNTER, BATCH_HEADERS_COUNTER, BATCH_TXS_COUNTER,
        };
        use tn_chain::codec::Encodable;
        use tn_chain::prelude::{Payload, Transaction};
        let config = PlatformConfig::default();
        let mut peer = ValidatorNode::new(0, &config);
        let governor = tn_crypto::Keypair::from_seed(b"tn-platform-governor");
        for nonce in 1..=20u64 {
            let payload = Payload::Blob {
                tag: 1,
                data: vec![nonce as u8],
            };
            let tx = Transaction::signed(&governor, nonce, config.fee, payload);
            let out = peer.apply_committed_batch(&[tx.to_bytes()]).expect("batch");
            assert_eq!(out.included, 1);
        }
        let target = peer.execution_digest();
        let mut lagging = ValidatorNode::new(1, &config);
        let report = catch_up(&mut lagging, &[&peer], target).expect("catch-up");
        assert_eq!((report.blocks_applied, report.rejected_blocks), (20, 0));
        let snap = lagging.metrics_snapshot();
        assert_eq!(snap.counter(BATCH_HEADERS_COUNTER), Some(20));
        assert_eq!(snap.counter(BATCH_TXS_COUNTER), Some(20));
        assert_eq!(snap.counter(BATCH_CHUNKS_COUNTER), Some(1));
        assert_eq!(snap.counter(tn_chain::sigcache::MISS_COUNTER), Some(20));
        assert_eq!(snap.counter(tn_chain::sigcache::HIT_COUNTER), None);
        assert_eq!(snap.counter(BATCH_FALLBACK_COUNTER), None);
    }

    #[test]
    fn already_converged_replica_reports_a_no_op() {
        let config = PlatformConfig::default();
        let peer = advanced_node(0, &config, 2);
        let mut node = advanced_node(1, &config, 2);
        let target = peer.execution_digest();
        assert_eq!(node.execution_digest(), target);
        let report = catch_up(&mut node, &[&peer], target).expect("no-op catch-up");
        assert!(report.converged);
        assert_eq!(report.blocks_applied, 0);
        assert_eq!(report.peer, None);
    }
}
