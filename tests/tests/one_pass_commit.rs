//! One-pass commit against its two-step reference.
//!
//! `ExecutionPipeline::commit_batch` selects, executes against the
//! contract registry, signs and accepts a block in one pass
//! (`ChainStore::commit`). The reference is what it replaced and what
//! followers still run: `ChainStore::propose` with `NoExecutor`, then a
//! full `import` under the registry. Two replicas are fed one scripted
//! stream, one each way, and must agree on everything at every height.

use tn_chain::codec::Encodable;
use tn_chain::prelude::*;
use tn_core::pipeline::{bootstrap, Bootstrap};
use tn_core::platform::PlatformConfig;
use tn_crypto::sha256::sha256;
use tn_crypto::{Hash256, Keypair};
use tn_node::{run_pbft_cluster, scripted_workload, ClusterConfig};

/// Canonical state roots, built-in contract state, projection digests,
/// execution digest.
type Fingerprint = (Vec<Hash256>, Vec<u8>, Vec<(&'static str, Hash256)>, Hash256);

/// Every digest a replica can be compared by, plus the state root of
/// every canonical block as its header commits it and the built-ins'
/// checkpoint bytes.
fn fingerprint(b: &Bootstrap) -> Fingerprint {
    let store = b.pipeline.store();
    let roots = store
        .canonical_chain()
        .iter()
        .map(|id| store.block(id).expect("canonical block").header.state_root)
        .collect();
    (
        roots,
        b.pipeline.registry().save_state(),
        b.pipeline.projection_digests(),
        b.pipeline.execution_digest(),
    )
}

#[test]
fn commit_equals_propose_then_import_at_every_height() {
    let config = PlatformConfig::default();
    let mut one = bootstrap(&config);
    let mut two = bootstrap(&config);
    assert_eq!(fingerprint(&one), fingerprint(&two));

    // The scripted platform session, re-cut into blocks of five, then the
    // cases a proposer has to get right on its own.
    let workload = scripted_workload(&config);
    let governor = one.governor.clone();
    let mallory = Keypair::from_seed(b"one-pass: mallory");
    let pauper = Keypair::from_seed(b"one-pass: pauper");
    let next = workload
        .iter()
        .filter(|tx| tx.from == governor.address())
        .count() as u64
        + 1;
    let fee = config.fee;
    let fund = Transaction::signed(
        &governor,
        next,
        fee,
        Payload::Transfer {
            to: mallory.address(),
            amount: 100 * fee + 50,
        },
    );
    // Fails in the contract (garbage input): fee paid, receipt says no.
    let bad_call = Transaction::signed(
        &mallory,
        0,
        fee,
        Payload::ContractCall {
            contract: one.pipeline.addrs().ranking,
            input: vec![0xff; 7],
            gas_limit: 10_000,
        },
    );
    // The governor owns "factdb": fee paid, anchor untouched.
    let squat = Transaction::signed(
        &mallory,
        1,
        fee,
        Payload::AnchorRoot {
            namespace: "factdb".into(),
            root: sha256(b"not the corpus"),
        },
    );
    // Skipped by selection: a nonce from the future, and two spenders who
    // cannot cover what they send.
    let bad_nonce = Transaction::signed(
        &mallory,
        9,
        fee,
        Payload::Blob {
            tag: 1,
            data: vec![1],
        },
    );
    let overdraft = Transaction::signed(
        &mallory,
        2,
        fee,
        Payload::Transfer {
            to: pauper.address(),
            amount: 1_000_000,
        },
    );
    let unfunded = Transaction::signed(
        &pauper,
        0,
        fee,
        Payload::Blob {
            tag: 1,
            data: vec![2],
        },
    );
    let fine = Transaction::signed(
        &mallory,
        2,
        fee,
        Payload::Blob {
            tag: 1,
            data: vec![3],
        },
    );

    let mut batches: Vec<Vec<Transaction>> = workload.chunks(5).map(<[_]>::to_vec).collect();
    batches.push(vec![fund]);
    batches.push(vec![
        bad_nonce.clone(),
        bad_call,
        unfunded.clone(),
        squat,
        overdraft.clone(),
        fine,
    ]);
    // Nothing selectable, and nothing offered: both still make a block.
    batches.push(vec![bad_nonce, unfunded, overdraft]);
    batches.push(Vec::new());

    let mut included = Vec::new();
    let mut failed = 0;
    for (i, batch) in batches.into_iter().enumerate() {
        let timestamp = 2 + i as u64;
        let (block, receipts) = one
            .pipeline
            .commit_batch(&one.validator, timestamp, batch.clone())
            .expect("one pass commits");
        let proposed =
            two.pipeline
                .store()
                .propose(&two.validator, timestamp, batch, &mut NoExecutor);
        let reference = two
            .pipeline
            .apply_block(&proposed)
            .expect("reference imports");
        assert_eq!(block.to_bytes(), proposed.to_bytes(), "block {i}");
        assert_eq!(receipts, reference, "receipts of block {i}");
        assert_eq!(fingerprint(&one), fingerprint(&two), "after block {i}");
        assert_eq!(
            one.pipeline.store().head_state().root(),
            block.header.state_root
        );
        included.push(block.transactions.len());
        failed += receipts.iter().filter(|r| !r.success).count();
    }
    // The special blocks did what the script meant them to.
    let n = included.len();
    assert_eq!(&included[n - 4..], [1, 3, 0, 0]);
    assert!(
        failed >= 2,
        "the bad call and the squat failed in execution"
    );
    let state = one.pipeline.store().head_state();
    assert_eq!(state.nonce(&mallory.address()), 3);
    assert_eq!(
        state.anchor("factdb"),
        two.pipeline.store().head_state().anchor("factdb")
    );
    assert_ne!(state.anchor("factdb"), Some(sha256(b"not the corpus")));
    assert_eq!(
        one.pipeline.store().snapshot(),
        two.pipeline.store().snapshot()
    );
    assert!(one.pipeline.verify_replay().is_ok());
}

#[test]
fn four_replicas_committing_in_one_pass_stay_consistent() {
    let config = ClusterConfig::default();
    let txs = scripted_workload(&config.platform);
    let run = run_pbft_cluster(&config, &txs).expect("cluster runs");
    assert!(run.is_consistent(), "replicas diverged");
    assert!(run
        .reports
        .iter()
        .all(|r| r.included == run.reports[0].included));
}
