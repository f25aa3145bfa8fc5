//! The full stack, replicated: platform-style transactions (news events,
//! contract calls, anchors) are ordered by a PBFT cluster, and each
//! replica independently executes the committed batches against its own
//! chain store, contract registry and supply-chain index. Every layer of
//! state must agree bit-for-bit across replicas — the replicated state
//! machine the paper's "trust in machines" rests on.

use tn_chain::codec::{Decodable, Encodable};
use tn_chain::prelude::*;
use tn_consensus::pbft::{ByzMode, PbftConfig, PbftMsg, PbftReplica, Request};
use tn_consensus::sim::{NetworkConfig, Simulator};
use tn_contracts::builtin::{
    admission_attest, admission_register_checker, ranking_submit, FactDbAdmission, RankingContract,
};
use tn_contracts::executor::ContractRegistry;
use tn_crypto::{Hash256, Keypair};
use tn_supplychain::graph::SupplyChainGraph;
use tn_supplychain::index::{index_transaction, IndexStats, NewsEvent};
use tn_supplychain::ops::PropagationOp;

const FACT: &str = "The committee approved the solar subsidy amendment. \
    The vote passed with a clear majority. The minister welcomed the outcome.";

/// One replica's full state.
struct Replica {
    store: ChainStore,
    registry: ContractRegistry,
    graph: SupplyChainGraph,
    stats: IndexStats,
}

fn governor() -> Keypair {
    Keypair::from_seed(b"rp governor")
}

fn make_replica(fact_root: Hash256) -> Replica {
    let validator = Keypair::from_seed(b"rp validator");
    let journalist = Keypair::from_seed(b"rp journalist");
    let rater = Keypair::from_seed(b"rp rater");
    let genesis = State::genesis([
        (governor().address(), 1_000_000),
        (journalist.address(), 100_000),
        (rater.address(), 100_000),
    ]);
    let store = ChainStore::new(genesis, &validator);
    let mut registry = ContractRegistry::new();
    registry.install_builtin(Box::new(RankingContract::new(governor().address())));
    registry.install_builtin(Box::new(FactDbAdmission::new(governor().address(), 1)));
    let mut graph = SupplyChainGraph::new();
    graph
        .add_fact_root(fact_root, FACT, "energy", 0)
        .expect("unique");
    Replica {
        store,
        registry,
        graph,
        stats: IndexStats::default(),
    }
}

/// Builds the workload: a realistic mix of platform transactions.
fn build_workload(fact_root: Hash256) -> Vec<Transaction> {
    let gov = governor();
    let journalist = Keypair::from_seed(b"rp journalist");
    let rater = Keypair::from_seed(b"rp rater");
    let ranking = tn_contracts::executor::builtin_address("ranking");
    let admission = tn_contracts::executor::builtin_address("factdb-admission");

    let mut txs = Vec::new();
    let mut jn = 0u64;
    let mut rn = 0u64;
    let mut gn = 0u64;

    // Governor registers the rater as a fact checker.
    txs.push(Transaction::signed(
        &gov,
        gn,
        1,
        Payload::ContractCall {
            contract: admission,
            input: admission_register_checker(&rater.address()),
            gas_limit: 10_000,
        },
    ));
    gn += 1;

    // Journalist publishes a chain of stories; rater rates each; checker
    // attests a record.
    let mut prev: Option<Hash256> = None;
    #[allow(clippy::explicit_counter_loop)] // jn/rn are account nonces, not loop counters
    for i in 0..6u64 {
        let content = if i == 0 {
            FACT.to_string()
        } else {
            format!("{FACT} Follow-up number {i}.")
        };
        let parents = match prev {
            None => vec![(fact_root, PropagationOp::Cite.tag())],
            Some(p) => vec![(p, PropagationOp::Insert.tag())],
        };
        let published_at = 100 + i;
        let item_id = tn_supplychain::graph::item_id(&journalist.address(), &content, published_at);
        let event = NewsEvent {
            headline: String::new(),
            content,
            topic: "energy".into(),
            room: 1,
            parents,
            published_at,
        };
        txs.push(Transaction::signed(
            &journalist,
            jn,
            1,
            event.into_payload(),
        ));
        jn += 1;

        txs.push(Transaction::signed(
            &rater,
            rn,
            1,
            Payload::ContractCall {
                contract: ranking,
                input: ranking_submit(&item_id, 60 + (i as u8) * 5),
                gas_limit: 10_000,
            },
        ));
        rn += 1;
        txs.push(Transaction::signed(
            &rater,
            rn,
            1,
            Payload::ContractCall {
                contract: admission,
                input: admission_attest(&item_id),
                gas_limit: 10_000,
            },
        ));
        rn += 1;
        prev = Some(item_id);
    }
    // Governor anchors the (simulated) factual-DB root.
    txs.push(Transaction::signed(
        &gov,
        gn,
        1,
        Payload::AnchorRoot {
            namespace: "factdb".into(),
            root: fact_root,
        },
    ));
    txs
}

#[test]
fn all_layers_agree_across_pbft_replicas() {
    let fact_root = tn_crypto::sha256::sha256(b"rp fact root");
    let txs = build_workload(fact_root);
    let n_txs = txs.len();

    // Order through PBFT.
    const N: usize = 4;
    let nodes: Vec<PbftReplica> = (0..N)
        .map(|id| PbftReplica::new(id, N, PbftConfig::default(), ByzMode::Honest))
        .collect();
    let mut sim = Simulator::new(nodes, NetworkConfig::default());
    for (i, tx) in txs.iter().enumerate() {
        let req = Request::new(tx.to_bytes(), 10 + i as u64 * 3);
        // Inject at one node so per-account nonce order survives arrival.
        sim.inject_at(0, PbftMsg::Request(req), 10 + i as u64 * 3);
    }
    sim.run_until(2_000_000);

    // Each replica executes its committed sequence.
    let validator = Keypair::from_seed(b"rp validator");
    let mut snapshots = Vec::new();
    for id in 0..N {
        let mut replica = make_replica(fact_root);
        let mut executed = 0usize;
        for entry in &sim.node(id).committed {
            let batch: Vec<Transaction> = entry
                .requests
                .iter()
                .map(|r| Transaction::from_bytes(&r.payload).expect("valid tx bytes"))
                .collect();
            executed += batch.len();
            // Block timestamps must be a deterministic function of the
            // agreed sequence (NOT local commit time, which differs per
            // replica) or block ids would diverge.
            let block = replica
                .store
                .propose(&validator, entry.seq, batch, &mut NoExecutor);
            let block_txs = block.transactions.clone();
            replica
                .store
                .import(&block, &mut replica.registry)
                .expect("imports");
            for tx in &block_txs {
                index_transaction(tx, &mut replica.graph, &mut replica.stats);
            }
        }
        assert_eq!(executed, n_txs, "replica {id} executed everything");
        snapshots.push(replica);
    }

    // Layer-by-layer agreement.
    let reference = &snapshots[0];
    assert!(reference.stats.indexed >= 6, "news events indexed");
    assert_ne!(
        reference.registry.save_state(),
        make_replica(fact_root).registry.save_state(),
        "the contract calls changed built-in state"
    );
    for (id, r) in snapshots.iter().enumerate().skip(1) {
        // Chain layer.
        assert_eq!(
            r.store.head_id(),
            reference.store.head_id(),
            "replica {id} head"
        );
        assert_eq!(
            r.store.head_state().root(),
            reference.store.head_state().root(),
            "replica {id} state root"
        );
        // Contract layer: every built-in's state (ratings, admissions).
        assert_eq!(
            r.registry.save_state(),
            reference.registry.save_state(),
            "replica {id} contract state"
        );
        // Supply-chain index.
        assert_eq!(
            r.graph.len(),
            reference.graph.len(),
            "replica {id} graph size"
        );
        for item in reference.graph.iter() {
            let other = r.graph.get(&item.id).expect("item replicated");
            assert_eq!(other.parents, item.parents, "replica {id} edges");
        }
        // Trace results agree.
        let t_ref: Vec<_> = reference.graph.trace_all();
        let t_other: Vec<_> = r.graph.trace_all();
        assert_eq!(t_ref.len(), t_other.len());
        for ((ia, ta), (ib, tb)) in t_ref.iter().zip(&t_other) {
            assert_eq!(ia, ib);
            assert!(
                (ta.score - tb.score).abs() < 1e-12,
                "replica {id} trace score"
            );
        }
    }

    // The replicated ranking contract agrees on crowd scores.
    let last_item = reference
        .graph
        .iter()
        .filter(|i| !i.is_fact_root)
        .last()
        .expect("items")
        .id;
    let rank_addr = tn_contracts::executor::builtin_address("ranking");
    let counts: Vec<(u64, Option<u64>)> = snapshots
        .iter()
        .map(|r| {
            r.registry
                .builtin(&rank_addr)
                .and_then(|b| b.as_any().downcast_ref::<RankingContract>())
                .expect("installed")
                .ranking(&last_item)
        })
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "crowd rankings agree: {counts:?}"
    );
    assert_eq!(counts[0].0, 1, "one rating per item");
}
