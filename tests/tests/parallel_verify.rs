//! Regression tests for the parallel verification pipeline and the shared
//! verified-transaction cache.
//!
//! The invariant under test: across mempool admission → block proposal →
//! block import, each transaction signature pays for **exactly one**
//! elliptic-curve verification, observable through the
//! `chain.sigcache.{hit,miss}` telemetry counters. And verification
//! results are byte-identical for every worker-pool size.

use tn_chain::prelude::*;
use tn_chain::sigcache::{HIT_COUNTER, MISS_COUNTER};
use tn_core::platform::PlatformConfig;
use tn_crypto::Keypair;
use tn_node::validator::{encode_payloads, ValidatorNode};
use tn_par::Pool;
use tn_telemetry::Registry;

fn governor() -> Keypair {
    // Well-known bootstrap key (see tn-core::pipeline::bootstrap).
    Keypair::from_seed(b"tn-platform-governor")
}

fn transfer(nonce: u64, fee: u64) -> Transaction {
    Transaction::signed(
        &governor(),
        nonce,
        fee,
        Payload::Transfer {
            to: Keypair::from_seed(b"recipient").address(),
            amount: 1,
        },
    )
}

/// Mempool admission pre-warms the cache: K submitted transactions cost K
/// EC verifications total, then the proposer's one signature pass is pure
/// cache hits.
#[test]
fn one_ec_verify_per_tx_across_admission_proposal_import() {
    let config = PlatformConfig::default();
    let mut node = ValidatorNode::new(0, &config);
    const K: u64 = 8;
    // The bootstrap anchor consumed governor nonce 0.
    let txs: Vec<Transaction> = (1..=K).map(|n| transfer(n, config.fee)).collect();
    for tx in &txs {
        node.submit(tx.clone()).expect("admitted");
    }
    let snap = node.metrics_snapshot();
    assert_eq!(
        snap.counter(MISS_COUNTER),
        Some(K),
        "each admission verifies once"
    );
    assert_eq!(snap.counter(HIT_COUNTER), None, "no hits yet");

    let outcome = node
        .apply_committed_batch(&encode_payloads(&txs))
        .expect("commits");
    assert_eq!(outcome.included, K as usize);
    assert_eq!(outcome.failed, 0);

    let snap = node.metrics_snapshot();
    assert_eq!(
        snap.counter(MISS_COUNTER),
        Some(K),
        "the commit adds zero EC verifications"
    );
    assert_eq!(
        snap.counter(HIT_COUNTER),
        Some(K),
        "the commit looks each signature up once, and finds it"
    );
}

/// Importing a block whose transactions are already cached performs zero
/// EC verifications: the hit counter advances by exactly the tx count.
#[test]
fn warm_cache_import_skips_ec_verification_entirely() {
    let alice = Keypair::from_seed(b"alice");
    let proposer = Keypair::from_seed(b"proposer");
    let registry = Registry::new();
    let mut store = ChainStore::new(State::genesis([(alice.address(), 10_000)]), &proposer);
    store.set_telemetry(registry.sink());

    const K: usize = 16;
    let txs: Vec<Transaction> = (0..K as u64)
        .map(|n| {
            Transaction::signed(
                &alice,
                n,
                1,
                Payload::Blob {
                    tag: 1,
                    data: vec![n as u8],
                },
            )
        })
        .collect();
    // Proposing warms the cache: K misses, zero hits.
    let block = store.propose(&proposer, 10, txs, &mut NoExecutor);
    let before = registry.snapshot();
    assert_eq!(before.counter(MISS_COUNTER), Some(K as u64));
    assert_eq!(before.counter(HIT_COUNTER), None);

    store.import(&block, &mut NoExecutor).expect("imports");
    let after = registry.snapshot();
    assert_eq!(
        after.counter(MISS_COUNTER),
        Some(K as u64),
        "warm import must not re-verify any signature"
    );
    assert_eq!(
        after.counter(HIT_COUNTER),
        Some(K as u64),
        "hit count == tx count for the import"
    );
}

/// Replicas with different verification worker counts stay byte-identical:
/// the pool size is a throughput knob, never a consensus parameter.
#[test]
fn worker_count_does_not_change_execution() {
    let mk = |workers: usize| {
        let config = PlatformConfig {
            verify_workers: workers,
            ..PlatformConfig::default()
        };
        ValidatorNode::new(workers, &config)
    };
    let mut nodes = [mk(1), mk(2), mk(4)];
    let txs: Vec<Transaction> = (1..=6).map(|n| transfer(n, 1)).collect();
    let payloads = encode_payloads(&txs);
    for node in &mut nodes {
        node.apply_committed_batch(&payloads).expect("commits");
    }
    let digest = nodes[0].execution_digest();
    for node in &nodes {
        assert_eq!(node.execution_digest(), digest);
        node.verify_replay().expect("replay matches");
    }
}

/// The chain store accepts an explicit verification pool and produces the
/// same import results with it.
#[test]
fn explicit_pool_import_matches_sequential() {
    let alice = Keypair::from_seed(b"alice");
    let proposer = Keypair::from_seed(b"proposer");
    let build = |pool: Pool| {
        let mut store = ChainStore::new(State::genesis([(alice.address(), 10_000)]), &proposer);
        store.set_verify_pool(pool);
        let txs: Vec<Transaction> = (0..32u64)
            .map(|n| {
                Transaction::signed(
                    &alice,
                    n,
                    1,
                    Payload::Blob {
                        tag: 1,
                        data: vec![n as u8],
                    },
                )
            })
            .collect();
        let block = store.propose(&proposer, 10, txs, &mut NoExecutor);
        store.import(&block, &mut NoExecutor).expect("imports");
        (store.head_id(), store.head_state().root())
    };
    let sequential = build(Pool::sequential());
    for workers in [2usize, 4, 8] {
        assert_eq!(build(Pool::new(workers)), sequential, "workers={workers}");
    }
}
