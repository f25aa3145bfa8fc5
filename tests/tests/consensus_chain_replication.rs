//! Consensus × chain integration: real signed transactions are ordered by
//! the PBFT cluster, and every replica applies the committed batches to
//! its own `ChainStore` — all replicas must end at identical state roots
//! (the replicated-state-machine property the platform's trust guarantees
//! rest on).

use tn_chain::codec::{Decodable, Encodable};
use tn_chain::prelude::*;
use tn_consensus::pbft::{ByzMode, PbftConfig, PbftMsg, PbftReplica, Request};
use tn_consensus::sim::{NetworkConfig, Simulator};
use tn_crypto::Keypair;

fn make_txs(n: usize) -> Vec<Transaction> {
    let alice = Keypair::from_seed(b"rep alice");
    let bob = Keypair::from_seed(b"rep bob");
    (0..n)
        .map(|i| {
            Transaction::signed(
                &alice,
                i as u64,
                1,
                Payload::Transfer {
                    to: bob.address(),
                    amount: 10 + i as u64,
                },
            )
        })
        .collect()
}

fn genesis_state() -> State {
    State::genesis([(Keypair::from_seed(b"rep alice").address(), 1_000_000)])
}

#[test]
fn replicas_converge_to_identical_chains() {
    const N: usize = 4;
    let nodes: Vec<PbftReplica> = (0..N)
        .map(|id| PbftReplica::new(id, N, PbftConfig::default(), ByzMode::Honest))
        .collect();
    let mut sim = Simulator::new(nodes, NetworkConfig::default());

    // Inject real transactions as consensus requests.
    let txs = make_txs(30);
    for (i, tx) in txs.iter().enumerate() {
        let req = Request::new(tx.to_bytes(), 10 + i as u64 * 3);
        sim.inject_at(0, PbftMsg::Request(req), 10 + i as u64 * 3);
    }
    sim.run_until(500_000);

    // Each replica replays its committed sequence into its own chain.
    let validator = Keypair::from_seed(b"rep validator");
    let mut roots = Vec::new();
    let mut heights = Vec::new();
    for id in 0..N {
        let mut store = ChainStore::new(genesis_state(), &validator);
        for entry in &sim.node(id).committed {
            let batch: Vec<Transaction> = entry
                .requests
                .iter()
                .map(|r| Transaction::from_bytes(&r.payload).expect("valid tx bytes"))
                .collect();
            let block = store.propose(&validator, entry.committed_at, batch, &mut NoExecutor);
            store.import(&block, &mut NoExecutor).expect("imports");
        }
        roots.push(store.head_state().root());
        heights.push(store.height());
        // All 30 transfers executed.
        assert_eq!(
            store
                .head_state()
                .nonce(&Keypair::from_seed(b"rep alice").address()),
            30,
            "replica {id}"
        );
    }
    assert!(
        roots.windows(2).all(|w| w[0] == w[1]),
        "state roots diverged: {roots:?}"
    );
    assert!(
        heights.windows(2).all(|w| w[0] == w[1]),
        "heights diverged: {heights:?}"
    );
}

#[test]
fn replication_survives_crashed_backup() {
    const N: usize = 4;
    let nodes: Vec<PbftReplica> = (0..N)
        .map(|id| PbftReplica::new(id, N, PbftConfig::default(), ByzMode::Honest))
        .collect();
    let mut sim = Simulator::new(nodes, NetworkConfig::default());
    sim.crash(3);

    let txs = make_txs(10);
    for (i, tx) in txs.iter().enumerate() {
        let req = Request::new(tx.to_bytes(), 10 + i as u64 * 3);
        sim.inject_at(0, PbftMsg::Request(req), 10 + i as u64 * 3);
    }
    sim.run_until(500_000);

    let validator = Keypair::from_seed(b"rep validator");
    let mut roots = Vec::new();
    for id in 0..3 {
        let mut store = ChainStore::new(genesis_state(), &validator);
        for entry in &sim.node(id).committed {
            let batch: Vec<Transaction> = entry
                .requests
                .iter()
                .map(|r| Transaction::from_bytes(&r.payload).expect("valid tx bytes"))
                .collect();
            let block = store.propose(&validator, entry.committed_at, batch, &mut NoExecutor);
            store.import(&block, &mut NoExecutor).expect("imports");
        }
        assert_eq!(
            store
                .head_state()
                .nonce(&Keypair::from_seed(b"rep alice").address()),
            10,
            "replica {id}"
        );
        roots.push(store.head_state().root());
    }
    assert!(roots.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn tampered_request_bytes_are_rejected_at_the_chain_layer() {
    // Even if consensus ordered garbage, the chain's signature checks
    // refuse it — defense in depth.
    let txs = make_txs(1);
    let mut bytes = txs[0].to_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff; // corrupt the signature
    let tampered = Transaction::from_bytes(&bytes);
    match tampered {
        Err(_) => {} // decoding caught it
        Ok(tx) => assert!(tx.verify().is_err(), "tampered tx must not verify"),
    }
}
