//! Round-robin Proof-of-Authority ordering — the non-BFT baseline.
//!
//! Each fixed-length slot has a designated leader (`slot mod n`) that
//! proposes a batch; followers accept the first proposal they see for a
//! slot and commit immediately, with no voting rounds. This is the
//! cheap/fast ordering service the E6 experiment compares PBFT against: one
//! one-way message delay per commit, `O(n)` messages per slot — but a
//! Byzantine leader can equivocate and split the cluster, which the tests
//! demonstrate.

use std::collections::{HashMap, HashSet};

use tn_crypto::sha256::tagged_hash;
use tn_crypto::Hash256;
use tn_telemetry::TelemetrySink;
use tn_trace::{lanes, replica_span_id, SpanContext, TraceId, TraceSink};

use crate::pbft::{CommittedEntry, Request};
use crate::sim::{Context, Node, NodeId, EXTERNAL};

/// PoA protocol messages.
#[derive(Debug, Clone)]
pub(crate) enum PoaMsg {
    /// Client request.
    Request(Request),
    /// Leader proposal for a slot.
    Proposal {
        /// Slot number.
        slot: u64,
        /// Batch digest.
        digest: Hash256,
        /// The batch.
        batch: Vec<Request>,
        /// Causal trace context: the leader's `poa.propose` span.
        /// Not part of the digest — tracing never affects agreement.
        span: SpanContext,
    },
}

/// Leader misbehaviour for fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoaMode {
    /// Follow the protocol.
    Honest,
    /// Send different batches to different followers when leading.
    EquivocatingLeader,
}

fn batch_digest(batch: &[Request]) -> Hash256 {
    let mut data = Vec::with_capacity(batch.len() * 32);
    for r in batch {
        data.extend_from_slice(r.id.as_bytes());
    }
    tagged_hash("TN/poa-batch", &data)
}

const TIMER_SLOT: u64 = 1;

/// Slot length in simulation ticks.
const SLOT_DURATION: u64 = 50;
/// Maximum requests per slot proposal.
const MAX_BATCH: usize = 64;

/// A PoA validator node.
#[derive(Debug)]
pub(crate) struct PoaValidator {
    id: NodeId,
    n: usize,
    mode: PoaMode,
    slot: u64,
    pending: Vec<Request>,
    pending_ids: HashSet<Hash256>,
    committed_ids: HashSet<Hash256>,
    seen_slots: HashMap<u64, Hash256>,
    /// Commit log, in local commit order (`seq` is the slot, `view` 0).
    pub(crate) committed: Vec<CommittedEntry>,
    /// Metrics sink (round/commit counters and request latency, in sim
    /// ticks). Disabled by default.
    telemetry: TelemetrySink,
    /// Span sink (`poa.propose` / `poa.commit`, wall-clock ns). Disabled
    /// by default.
    trace: TraceSink,
}

impl PoaValidator {
    /// Creates validator `id` in an `n`-node authority set.
    pub(crate) fn new(id: NodeId, n: usize, mode: PoaMode) -> PoaValidator {
        assert!(n >= 1, "PoA needs at least one validator");
        PoaValidator {
            id,
            n,
            mode,
            slot: 0,
            pending: Vec::new(),
            pending_ids: HashSet::new(),
            committed_ids: HashSet::new(),
            seen_slots: HashMap::new(),
            committed: Vec::new(),
            telemetry: TelemetrySink::disabled(),
            trace: TraceSink::disabled(),
        }
    }

    /// Routes this validator's metrics — `poa.slots_led`,
    /// `poa.slots_committed`, `poa.requests_committed` counters and the
    /// `poa.request_latency_ticks` histogram — to `sink`.
    pub(crate) fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// Routes this validator's slot spans — `poa.propose` on the leader,
    /// `poa.commit` on every validator, batch trace derived from the slot
    /// digest — to `sink`.
    pub(crate) fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    fn leader_of(&self, slot: u64) -> NodeId {
        (slot % self.n as u64) as usize
    }

    /// Commits `batch` for `slot`; `parent` is the causing span (the
    /// leader's `poa.propose`, locally computed or carried by the
    /// proposal message), 0 when untraced.
    fn commit(&mut self, slot: u64, digest: Hash256, batch: Vec<Request>, now: u64, parent: u64) {
        if self.seen_slots.contains_key(&slot) {
            return;
        }
        let t0 = self.trace.now_ns();
        self.seen_slots.insert(slot, digest);
        let fresh: Vec<Request> = batch
            .into_iter()
            .filter(|r| self.committed_ids.insert(r.id))
            .collect();
        for r in &fresh {
            if self.pending_ids.remove(&r.id) {
                self.pending.retain(|p| p.id != r.id);
            }
        }
        self.telemetry.incr("poa.slots_committed");
        self.telemetry
            .add("poa.requests_committed", fresh.len() as u64);
        for r in &fresh {
            self.telemetry.observe(
                "poa.request_latency_ticks",
                now.saturating_sub(r.submitted_at),
            );
        }
        if self.trace.is_enabled() {
            let batch_trace = TraceId::from_seed(digest.as_bytes());
            self.trace.complete(
                batch_trace,
                "poa.commit",
                parent,
                lanes::CONSENSUS,
                t0,
                &[("slot", slot), ("requests", fresh.len() as u64)],
            );
        }
        self.committed.push(CommittedEntry {
            seq: slot,
            view: 0,
            digest,
            requests: fresh,
            committed_at: now,
        });
    }
}

impl Node<PoaMsg> for PoaValidator {
    fn on_start(&mut self, ctx: &mut Context<'_, PoaMsg>) {
        ctx.set_timer(SLOT_DURATION, TIMER_SLOT);
    }

    fn on_revive(&mut self, ctx: &mut Context<'_, PoaMsg>) {
        // The slot timer chain died with the crash (timers to a crashed
        // node are consumed). Resync the local slot counter to wall clock
        // so this validator rejoins the rotation in the *current* slot
        // instead of replaying the ones it slept through, then re-arm.
        let elapsed_slots = ctx.now() / SLOT_DURATION;
        self.slot = self.slot.max(elapsed_slots + 1);
        ctx.set_timer(SLOT_DURATION, TIMER_SLOT);
    }

    fn on_message(&mut self, from: NodeId, msg: PoaMsg, ctx: &mut Context<'_, PoaMsg>) {
        match msg {
            PoaMsg::Request(req) => {
                if from == EXTERNAL
                    && !self.committed_ids.contains(&req.id)
                    && self.pending_ids.insert(req.id)
                {
                    self.pending.push(req);
                }
            }
            PoaMsg::Proposal {
                slot,
                digest,
                batch,
                span,
            } => {
                if from != self.leader_of(slot) {
                    return; // not the authorized leader for this slot
                }
                if batch_digest(&batch) != digest {
                    return;
                }
                self.commit(slot, digest, batch, ctx.now(), span.parent);
            }
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Context<'_, PoaMsg>) {
        if timer != TIMER_SLOT {
            return;
        }
        let slot = self.slot;
        self.slot += 1;
        ctx.set_timer(SLOT_DURATION, TIMER_SLOT);

        if self.leader_of(slot) != self.id || self.pending.is_empty() {
            return;
        }
        let t0 = self.trace.now_ns();
        let take = self.pending.len().min(MAX_BATCH);
        let batch: Vec<Request> = self.pending.drain(..take).collect();
        for r in &batch {
            self.pending_ids.remove(&r.id);
        }
        self.telemetry.incr("poa.slots_led");
        match self.mode {
            PoaMode::Honest => {
                let digest = batch_digest(&batch);
                let batch_trace = if self.trace.is_enabled() {
                    TraceId::from_seed(digest.as_bytes())
                } else {
                    TraceId::NONE
                };
                let propose_span = replica_span_id(batch_trace, "poa.propose", self.id);
                self.trace.complete(
                    batch_trace,
                    "poa.propose",
                    0,
                    lanes::CONSENSUS,
                    t0,
                    &[("slot", slot), ("requests", batch.len() as u64)],
                );
                self.commit(slot, digest, batch.clone(), ctx.now(), propose_span);
                ctx.broadcast(
                    PoaMsg::Proposal {
                        slot,
                        digest,
                        batch,
                        span: SpanContext::new(batch_trace, propose_span),
                    },
                    false,
                );
            }
            PoaMode::EquivocatingLeader => {
                // Two conflicting batches; halves of the cluster diverge —
                // exactly the failure PBFT's quorums prevent.
                let alt: Vec<Request> = batch.iter().rev().cloned().collect();
                let d1 = batch_digest(&batch);
                let d2 = batch_digest(&alt);
                for to in 0..self.n {
                    if to == self.id {
                        continue;
                    }
                    let (digest, b) = if to % 2 == 0 {
                        (d1, batch.clone())
                    } else {
                        (d2, alt.clone())
                    };
                    ctx.send(
                        to,
                        PoaMsg::Proposal {
                            slot,
                            digest,
                            batch: b,
                            span: SpanContext::NONE,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{NetworkConfig, Simulator};

    fn cluster(n: usize, modes: &[(NodeId, PoaMode)]) -> Simulator<PoaMsg, PoaValidator> {
        let mode_of = |id: NodeId| {
            modes
                .iter()
                .find(|(i, _)| *i == id)
                .map(|(_, m)| *m)
                .unwrap_or(PoaMode::Honest)
        };
        let nodes = (0..n)
            .map(|id| PoaValidator::new(id, n, mode_of(id)))
            .collect();
        Simulator::new(nodes, NetworkConfig::default())
    }

    fn inject(sim: &mut Simulator<PoaMsg, PoaValidator>, count: usize) {
        for i in 0..count {
            let t = 10 + (i as u64) * 3;
            let req = Request::new(format!("r{i}").into_bytes(), t);
            // PoA: requests are broadcast to all validators by the client.
            for node in 0..sim.nodes().count() {
                sim.inject_at(node, PoaMsg::Request(req.clone()), t);
            }
        }
    }

    fn committed_ids(v: &PoaValidator) -> Vec<Hash256> {
        v.committed
            .iter()
            .flat_map(|e| e.requests.iter().map(|r| r.id))
            .collect()
    }

    #[test]
    fn all_requests_commit_on_honest_cluster() {
        let mut sim = cluster(4, &[]);
        inject(&mut sim, 20);
        sim.run_until(5_000);
        for id in 0..4 {
            let mut ids = committed_ids(sim.node(id));
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), 20, "validator {id}");
        }
    }

    #[test]
    fn leaders_rotate() {
        let mut sim = cluster(3, &[]);
        inject(&mut sim, 30);
        sim.run_until(10_000);
        let slots: HashSet<u64> = sim.node(0).committed.iter().map(|e| e.seq % 3).collect();
        assert!(
            slots.len() > 1,
            "multiple leaders should have produced slots"
        );
    }

    #[test]
    fn equivocating_leader_splits_cluster() {
        // This is the safety failure PBFT prevents: with an equivocating
        // PoA leader, validators commit conflicting batches for a slot.
        let mut sim = cluster(4, &[(0, PoaMode::EquivocatingLeader)]);
        inject(&mut sim, 8);
        sim.run_until(5_000);
        let mut digests: HashMap<u64, HashSet<Hash256>> = HashMap::new();
        for id in 1..4 {
            for e in &sim.node(id).committed {
                digests.entry(e.seq).or_default().insert(e.digest);
            }
        }
        let split = digests.values().any(|d| d.len() > 1);
        assert!(
            split,
            "expected conflicting commits under an equivocating leader"
        );
    }

    #[test]
    fn crashed_leader_skips_slot_but_progress_continues() {
        let mut sim = cluster(3, &[]);
        sim.crash(0);
        inject(&mut sim, 10);
        sim.run_until(10_000);
        // Validators 1 and 2 still commit everything during their slots.
        for id in 1..3 {
            let mut ids = committed_ids(sim.node(id));
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), 10, "validator {id}");
        }
    }

    #[test]
    fn non_leader_proposals_rejected() {
        let mut sim = cluster(3, &[]);
        // Forge a proposal from node 2 for slot 0 (leader is node 0).
        let batch = vec![Request::new(b"forged".to_vec(), 1)];
        let digest = batch_digest(&batch);
        // Deliver it as if node 2 sent it: use inject to node 1 won't carry
        // `from`, so simulate via a direct message path: run a custom check.
        // Instead: leader_of(0) == 0, so a Proposal{slot: 0} delivered from
        // EXTERNAL-injection is from usize::MAX != 0 and must be ignored.
        sim.inject_at(
            1,
            PoaMsg::Proposal {
                slot: 0,
                digest,
                batch,
                span: SpanContext::NONE,
            },
            5,
        );
        sim.run_until(1_000);
        assert!(sim.node(1).committed.is_empty());
    }
}
