//! Regression test: a healthy cluster under sustained request load must
//! commit everything, at every replica, without any spurious view change
//! (fresh arrivals in the queue are not starvation).

use std::collections::HashSet;

use tn_consensus::pbft::{ByzMode, PbftConfig, PbftMsg, PbftReplica, Request};
use tn_consensus::sim::{NetworkConfig, Simulator};

#[test]
fn healthy_cluster_commits_all_and_stays_in_view_zero() {
    let n = 4;
    let nodes: Vec<PbftReplica> = (0..n)
        .map(|id| PbftReplica::new(id, n, PbftConfig::default(), ByzMode::Honest))
        .collect();
    let mut sim = Simulator::new(nodes, NetworkConfig::default());
    let mut ids = Vec::new();
    for i in 0..200usize {
        let t = 10 + (i as u64) * 4;
        let mut payload = format!("request-{i}-").into_bytes();
        payload.resize(64, b'x');
        let req = Request::new(payload, t);
        ids.push(req.id);
        sim.inject_at(0, PbftMsg::Request(req), t);
    }
    sim.run_until(5_000_000);
    for node in 0..n {
        let committed: HashSet<_> = sim
            .node(node)
            .committed
            .iter()
            .flat_map(|e| e.requests.iter().map(|r| r.id))
            .collect();
        assert_eq!(committed.len(), 200, "node {node} missed requests");
        assert!(ids.iter().all(|id| committed.contains(id)), "node {node}");
        assert_eq!(
            sim.node(node).view(),
            0,
            "node {node} changed view spuriously"
        );
    }
}

#[test]
fn checkpointing_bounds_log_growth() {
    let n = 4;
    let config = PbftConfig {
        max_batch: 4,
        checkpoint_interval: 8,
    };
    let nodes: Vec<PbftReplica> = (0..n)
        .map(|id| PbftReplica::new(id, n, config.clone(), ByzMode::Honest))
        .collect();
    let mut sim = Simulator::new(nodes, NetworkConfig::default());
    for i in 0..400usize {
        let t = 10 + (i as u64) * 3;
        let req = Request::new(format!("cp-req-{i}").into_bytes(), t);
        sim.inject_at(0, PbftMsg::Request(req), t);
    }
    sim.run_until(10_000_000);
    for node in 0..n {
        let r = sim.node(node);
        let total: usize = r.committed.iter().map(|e| e.requests.len()).sum();
        assert_eq!(total, 400, "node {node} committed");
        assert!(
            r.stable_checkpoint() >= 64,
            "node {node} checkpoint {}",
            r.stable_checkpoint()
        );
        // With ~100 batches executed, an unpruned log would hold ~100
        // entries; checkpoints every 8 seqs keep it far smaller.
        assert!(r.log_len() < 40, "node {node} log length {}", r.log_len());
    }
}

#[test]
fn checkpoint_digests_agree_across_replicas() {
    let n = 4;
    let config = PbftConfig {
        max_batch: 4,
        checkpoint_interval: 8,
    };
    let nodes: Vec<PbftReplica> = (0..n)
        .map(|id| PbftReplica::new(id, n, config.clone(), ByzMode::Honest))
        .collect();
    let mut sim = Simulator::new(nodes, NetworkConfig::default());
    for i in 0..100usize {
        let t = 10 + (i as u64) * 3;
        let req = Request::new(format!("cd-req-{i}").into_bytes(), t);
        sim.inject_at(0, PbftMsg::Request(req), t);
    }
    sim.run_until(10_000_000);
    // Stable checkpoints require 2f+1 matching digests, so they can only
    // advance if replicas' execution histories agree.
    let cps: Vec<u64> = (0..n).map(|i| sim.node(i).stable_checkpoint()).collect();
    assert!(cps.iter().all(|&c| c >= 8), "checkpoints advanced: {cps:?}");
}

#[test]
fn partition_heals_and_liveness_resumes() {
    // Partition isolates the primary with one backup (no quorum anywhere:
    // 2+2 split of n=4). No commits can happen during the partition; after
    // healing, the cluster must commit the full backlog.
    use std::collections::HashSet as Set;
    let n = 4;
    let nodes: Vec<PbftReplica> = (0..n)
        .map(|id| PbftReplica::new(id, n, PbftConfig::default(), ByzMode::Honest))
        .collect();
    let mut sim = Simulator::new(nodes, NetworkConfig::default());

    let mut ids = Vec::new();
    for i in 0..20usize {
        let t = 10 + (i as u64) * 5;
        let req = Request::new(format!("pt-req-{i}").into_bytes(), t);
        ids.push(req.id);
        sim.inject_at(1, PbftMsg::Request(req), t);
    }
    // Partition before traffic is processed.
    sim.partition(vec![
        [0usize, 1].into_iter().collect(),
        [2usize, 3].into_iter().collect(),
    ]);
    sim.run_until(50_000);
    // 2f+1 = 3 > 2: no side can commit.
    for node in 0..n {
        assert!(
            sim.node(node).committed.is_empty(),
            "node {node} committed during a no-quorum partition"
        );
    }
    // Heal; the view-change re-arm timers and client-request relays must
    // get the cluster moving again.
    sim.heal();
    // Re-inject the requests (the originals were dropped at the partition
    // boundary; clients retransmit in any real system).
    for (i, id) in ids.iter().enumerate() {
        let t = 60_000 + (i as u64) * 5;
        let req = Request::new(format!("pt-req-{i}").into_bytes(), 10 + (i as u64) * 5);
        assert_eq!(req.id, *id, "deterministic request ids");
        sim.inject_at(1, PbftMsg::Request(req), t);
    }
    sim.run_until(2_000_000);
    for node in 0..n {
        let committed: Set<_> = sim
            .node(node)
            .committed
            .iter()
            .flat_map(|e| e.requests.iter().map(|r| r.id))
            .collect();
        assert_eq!(committed.len(), 20, "node {node} after heal");
    }
}
