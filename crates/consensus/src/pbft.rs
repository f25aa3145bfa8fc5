//! Practical Byzantine Fault Tolerance (PBFT), simplified but faithful to
//! the three-phase core: pre-prepare / prepare / commit with `2f+1`
//! quorums, plus view changes for liveness under a faulty primary.
//!
//! The paper's platform assumes a permissioned ("Hyperledger-like")
//! blockchain whose validators are known identities. PBFT is the canonical
//! consensus for that setting and is what the E6 experiment scales across
//! validator counts.

use std::collections::{BTreeMap, HashMap, HashSet};

use tn_crypto::sha256::tagged_hash;
use tn_crypto::Hash256;
use tn_telemetry::TelemetrySink;
use tn_trace::{lanes, replica_span_id, SpanContext, TraceId, TraceSink};

use crate::sim::{Context, Node, NodeId, EXTERNAL};

/// A client request: an opaque payload to be totally ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Unique request id.
    pub id: Hash256,
    /// Opaque payload (e.g. an encoded transaction).
    pub payload: Vec<u8>,
    /// Simulation time the client submitted it (for latency accounting).
    pub(crate) submitted_at: u64,
}

impl Request {
    /// Builds a request whose id is a hash of the payload and submit time.
    pub fn new(payload: Vec<u8>, submitted_at: u64) -> Request {
        let mut data = payload.clone();
        data.extend_from_slice(&submitted_at.to_be_bytes());
        Request {
            id: tagged_hash("TN/request", &data),
            payload,
            submitted_at,
        }
    }
}

/// Digest committing to an ordered batch of requests.
fn batch_digest(batch: &[Request]) -> Hash256 {
    let mut data = Vec::with_capacity(batch.len() * 32);
    for r in batch {
        data.extend_from_slice(r.id.as_bytes());
    }
    tagged_hash("TN/batch", &data)
}

/// PBFT protocol messages.
#[derive(Debug, Clone)]
pub enum PbftMsg {
    /// Client request (injected externally or forwarded to the primary).
    Request(Request),
    /// Primary's ordering proposal for `(view, seq)`.
    PrePrepare {
        /// Current view.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Batch digest.
        digest: Hash256,
        /// The proposed batch.
        batch: Vec<Request>,
        /// Causal trace context: the primary's `pbft.propose` span.
        /// Not part of the digest — tracing never affects agreement.
        span: SpanContext,
    },
    /// Backup's agreement to the proposal.
    Prepare {
        /// View.
        view: u64,
        /// Sequence.
        seq: u64,
        /// Batch digest.
        digest: Hash256,
        /// Causal trace context: the sender's handling span.
        span: SpanContext,
    },
    /// Commit vote after the prepare quorum.
    Commit {
        /// View.
        view: u64,
        /// Sequence.
        seq: u64,
        /// Batch digest.
        digest: Hash256,
        /// Causal trace context: the sender's `pbft.prepare_phase` span.
        span: SpanContext,
    },
    /// Vote to move to `new_view`, carrying prepared-but-unexecuted batches.
    ViewChange {
        /// The view being voted for.
        new_view: u64,
        /// Prepared entries `(seq, digest, batch)` that must survive.
        prepared: Vec<(u64, Hash256, Vec<Request>)>,
    },
    /// New primary's announcement with re-proposals.
    NewView {
        /// The installed view.
        view: u64,
        /// Re-proposed prepared entries.
        reproposals: Vec<(u64, Hash256, Vec<Request>)>,
    },
    /// Periodic checkpoint vote: "I have executed through `seq` and my
    /// execution history digests to `digest`".
    Checkpoint {
        /// Last executed sequence number at the sender.
        seq: u64,
        /// Digest of the execution history up to `seq`.
        digest: Hash256,
    },
}

/// A prepared entry carried in view-change messages: `(seq, digest, batch)`.
pub(crate) type PreparedEntry = (u64, Hash256, Vec<Request>);

/// A batch a replica has finally committed (executed). PoA validators log
/// their committed slots in the same shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedEntry {
    /// Sequence number (PBFT: gapless, increasing; PoA: the slot).
    pub seq: u64,
    /// View in which it committed (PoA: always 0).
    pub(crate) view: u64,
    /// Batch digest.
    pub digest: Hash256,
    /// The requests, in order.
    pub requests: Vec<Request>,
    /// Simulation time of local execution.
    pub committed_at: u64,
}

/// Byzantine behaviours for fault-injection tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzMode {
    /// Follow the protocol.
    Honest,
    /// Never send anything (fail-silent while still counted in `n`).
    Silent,
    /// As primary, send conflicting batches to different backups.
    EquivocatingPrimary,
    /// Order honestly but tamper every request payload at execution time.
    /// Consensus-level digests still agree (the batch digest covers the
    /// untampered requests), so the corruption is only visible one layer
    /// up: the replica's *node-level* execution digest diverges from the
    /// honest quorum — the scenario the E19 quarantine logic must catch.
    CorruptExec,
}

#[derive(Debug, Default)]
struct LogEntry {
    digest: Option<Hash256>,
    batch: Vec<Request>,
    prepares: HashSet<NodeId>,
    commits: HashSet<NodeId>,
    commit_sent: bool,
    committed: bool,
    /// Sim time the proposal was first seen (for phase latency metrics).
    preprepare_at: Option<u64>,
    /// Sim time the prepare quorum was reached.
    prepared_at: Option<u64>,
    /// Trace this batch belongs to ([`TraceId::NONE`] when tracing is off).
    trace: TraceId,
    /// This replica's local handling span for the batch (`pbft.propose` on
    /// the primary, `pbft.preprepare` on backups); 0 when tracing is off.
    span_parent: u64,
    /// Wall-clock ns the proposal was first seen (trace timeline).
    preprepare_at_ns: Option<u64>,
    /// Wall-clock ns the prepare quorum was reached (trace timeline).
    prepared_at_ns: Option<u64>,
}

/// Timer ids.
const TIMER_BATCH: u64 = 1;
/// View timers encode the view they guard: `TIMER_VIEW_BASE + view`.
const TIMER_VIEW_BASE: u64 = 1000;

/// Primary batching delay (ticks) before proposing a partial batch.
const BATCH_DELAY: u64 = 20;
/// How long (ticks) a backup waits for progress before voting to change
/// view; a view change itself gets twice as long.
const VIEW_TIMEOUT: u64 = 600;

/// Protocol tuning knobs.
#[derive(Debug, Clone)]
pub struct PbftConfig {
    /// Maximum requests per batch.
    pub max_batch: usize,
    /// Emit a checkpoint every this many executed sequences; log entries
    /// at or below a stable (2f+1-agreed) checkpoint are pruned.
    pub checkpoint_interval: u64,
}

impl Default for PbftConfig {
    fn default() -> Self {
        PbftConfig {
            max_batch: 64,
            checkpoint_interval: 64,
        }
    }
}

/// A PBFT replica.
#[derive(Debug)]
pub struct PbftReplica {
    id: NodeId,
    n: usize,
    f: usize,
    config: PbftConfig,
    mode: ByzMode,

    view: u64,
    next_seq: u64,
    last_exec: u64,

    /// Requests awaiting ordering (id-deduped).
    pending: Vec<Request>,
    pending_ids: HashSet<Hash256>,
    /// Local arrival time of each pending request (for timeout checks).
    pending_since: HashMap<Hash256, u64>,
    executed_ids: HashSet<Hash256>,

    log: HashMap<(u64, u64), LogEntry>,
    /// Committed-but-not-yet-executed batches, keyed by seq.
    decided: BTreeMap<u64, (u64, Hash256, Vec<Request>)>,
    /// Execution log, in order.
    pub committed: Vec<CommittedEntry>,

    /// View-change votes per target view.
    vc_votes: HashMap<u64, HashMap<NodeId, Vec<PreparedEntry>>>,
    /// Highest view we have voted for.
    vc_voted: u64,

    /// Running digest of the execution history (chained batch digests).
    exec_digest: Hash256,
    /// Checkpoint votes: seq → digest → voters.
    checkpoint_votes: HashMap<u64, HashMap<Hash256, HashSet<NodeId>>>,
    /// Highest sequence with a 2f+1 checkpoint quorum.
    stable_checkpoint: u64,

    /// Metrics sink (phase latencies, commit counters, view changes).
    /// Disabled by default; times are sim ticks, not wall-clock.
    telemetry: TelemetrySink,
    /// Span sink (per-batch consensus phase spans, wall-clock ns).
    /// Disabled by default.
    trace: TraceSink,
}

impl PbftReplica {
    /// Creates replica `id` of an `n`-node cluster.
    pub fn new(id: NodeId, n: usize, config: PbftConfig, mode: ByzMode) -> PbftReplica {
        assert!(n >= 4, "PBFT needs n >= 4 (got {n})");
        PbftReplica {
            id,
            n,
            f: (n - 1) / 3,
            config,
            mode,
            view: 0,
            next_seq: 0,
            last_exec: 0,
            pending: Vec::new(),
            pending_ids: HashSet::new(),
            pending_since: HashMap::new(),
            executed_ids: HashSet::new(),
            log: HashMap::new(),
            decided: BTreeMap::new(),
            committed: Vec::new(),
            vc_votes: HashMap::new(),
            vc_voted: 0,
            exec_digest: Hash256::ZERO,
            checkpoint_votes: HashMap::new(),
            stable_checkpoint: 0,
            telemetry: TelemetrySink::disabled(),
            trace: TraceSink::disabled(),
        }
    }

    /// Routes this replica's metrics — `pbft.prepare_phase_ticks`,
    /// `pbft.commit_phase_ticks`, `pbft.request_latency_ticks` histograms
    /// and proposal/commit/view-change counters — to `sink`. All times are
    /// simulation ticks.
    pub(crate) fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// Routes this replica's consensus spans — `pbft.propose`,
    /// `pbft.preprepare`, `pbft.prepare_phase`, `pbft.commit_phase`, one
    /// each per ordered batch — to `sink`. The batch trace id is derived
    /// from the batch digest, so every replica lands in the same trace.
    pub(crate) fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The quorum size `2f + 1`.
    pub(crate) fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Highest sequence covered by a stable (quorum-agreed) checkpoint.
    pub fn stable_checkpoint(&self) -> u64 {
        self.stable_checkpoint
    }

    /// Number of live (unpruned) log entries — bounded by checkpointing
    /// under sustained load.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    fn primary_of(&self, view: u64) -> NodeId {
        (view % self.n as u64) as usize
    }

    fn is_primary(&self) -> bool {
        self.primary_of(self.view) == self.id && self.mode != ByzMode::Silent
    }

    fn enqueue_request(&mut self, req: Request, ctx: &mut Context<'_, PbftMsg>) {
        if self.executed_ids.contains(&req.id) || self.pending_ids.contains(&req.id) {
            return;
        }
        self.pending_ids.insert(req.id);
        self.pending_since.insert(req.id, ctx.now());
        self.pending.push(req);
        if self.is_primary() {
            if self.pending.len() >= self.config.max_batch {
                self.propose(ctx);
            } else {
                ctx.set_timer(BATCH_DELAY, TIMER_BATCH);
            }
        } else {
            // Guard liveness: expect the primary to commit it.
            ctx.set_timer(VIEW_TIMEOUT, TIMER_VIEW_BASE + self.view);
        }
    }

    fn propose(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if self.pending.is_empty() {
            return;
        }
        let t0 = self.trace.now_ns();
        let take = self.pending.len().min(self.config.max_batch);
        let batch: Vec<Request> = self.pending.drain(..take).collect();
        for r in &batch {
            self.pending_ids.remove(&r.id);
        }
        self.next_seq += 1;
        let seq = self.next_seq;
        let view = self.view;

        if self.mode == ByzMode::EquivocatingPrimary {
            // Split the batch into two conflicting proposals and send each
            // half of the cluster a different one.
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
                    PbftMsg::PrePrepare {
                        view,
                        seq,
                        digest,
                        batch: b,
                        span: SpanContext::NONE,
                    },
                );
            }
            return;
        }

        let digest = batch_digest(&batch);
        self.telemetry.incr("pbft.proposals");
        let trace = self.trace.clone();
        let batch_trace = if trace.is_enabled() {
            TraceId::from_seed(digest.as_bytes())
        } else {
            TraceId::NONE
        };
        let propose_span = replica_span_id(batch_trace, "pbft.propose", self.id);
        let entry = self.log.entry((view, seq)).or_default();
        entry.digest = Some(digest);
        entry.batch = batch.clone();
        entry.prepares.insert(self.id);
        entry.preprepare_at = Some(ctx.now());
        entry.trace = batch_trace;
        entry.span_parent = propose_span;
        entry.preprepare_at_ns = Some(t0);
        let n_reqs = batch.len() as u64;
        trace.complete(
            batch_trace,
            "pbft.propose",
            0,
            lanes::CONSENSUS,
            t0,
            &[("view", view), ("seq", seq), ("requests", n_reqs)],
        );
        ctx.broadcast(
            PbftMsg::PrePrepare {
                view,
                seq,
                digest,
                batch,
                span: SpanContext::new(batch_trace, propose_span),
            },
            false,
        );
    }

    // Mirrors the `PbftMsg::PrePrepare` fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    fn on_preprepare(
        &mut self,
        from: NodeId,
        view: u64,
        seq: u64,
        digest: Hash256,
        batch: Vec<Request>,
        span: SpanContext,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        if view != self.view || from != self.primary_of(view) {
            return;
        }
        if batch_digest(&batch) != digest {
            return; // malformed proposal
        }
        let trace = self.trace.clone();
        let t0 = trace.now_ns();
        let entry = self.log.entry((view, seq)).or_default();
        if let Some(existing) = entry.digest {
            if existing != digest {
                return; // equivocation detected: refuse the second proposal
            }
        }
        entry.digest = Some(digest);
        entry.batch = batch;
        entry.preprepare_at.get_or_insert(ctx.now());
        // Join the batch trace: derive the id from the digest so even a
        // span-less re-proposal (new-view path) lands in the right trace.
        // The pre-prepare arrival is the *start* of this replica's
        // prepare-phase span (no separate handler span); its parent is the
        // primary's propose span carried in the message, which is what
        // links the backup's phases to the primary across replicas.
        if trace.is_enabled() && entry.trace.is_none() {
            let batch_trace = if span.is_none() {
                TraceId::from_seed(digest.as_bytes())
            } else {
                span.trace
            };
            entry.trace = batch_trace;
            entry.span_parent = span.parent;
            entry.preprepare_at_ns = Some(t0);
        }
        let batch_trace = entry.trace;
        self.telemetry.incr("pbft.preprepares_accepted");
        // The pre-prepare counts as the primary's prepare; add our own too.
        entry.prepares.insert(from);
        entry.prepares.insert(self.id);
        ctx.broadcast(
            PbftMsg::Prepare {
                view,
                seq,
                digest,
                span: SpanContext::new(batch_trace, entry.span_parent),
            },
            false,
        );
        self.maybe_send_commit(view, seq, ctx);
    }

    fn on_prepare(
        &mut self,
        from: NodeId,
        view: u64,
        seq: u64,
        digest: Hash256,
        _span: SpanContext,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        if view != self.view {
            return;
        }
        let entry = self.log.entry((view, seq)).or_default();
        if entry.digest.is_some_and(|d| d != digest) {
            return;
        }
        entry.prepares.insert(from);
        self.maybe_send_commit(view, seq, ctx);
    }

    fn maybe_send_commit(&mut self, view: u64, seq: u64, ctx: &mut Context<'_, PbftMsg>) {
        if self.mode == ByzMode::Silent {
            return;
        }
        let quorum = self.quorum();
        let entry = match self.log.get_mut(&(view, seq)) {
            Some(e) => e,
            None => return,
        };
        let digest = match entry.digest {
            Some(d) => d,
            None => return,
        };
        if entry.commit_sent || entry.prepares.len() < quorum {
            return;
        }
        entry.commit_sent = true;
        entry.commits.insert(self.id);
        let now = ctx.now();
        entry.prepared_at = Some(now);
        let trace = self.trace.clone();
        let phase_span = replica_span_id(entry.trace, "pbft.prepare_phase", self.id);
        let span = SpanContext::new(entry.trace, phase_span);
        // The prepare-phase span covers first-sight of the proposal up to
        // the prepare quorum, parented under this replica's handling span.
        if let Some(start_ns) = entry.preprepare_at_ns {
            entry.prepared_at_ns = Some(trace.now_ns());
            let prepares = entry.prepares.len() as u64;
            trace.complete(
                entry.trace,
                "pbft.prepare_phase",
                entry.span_parent,
                lanes::CONSENSUS,
                start_ns,
                &[("view", view), ("seq", seq), ("prepares", prepares)],
            );
        }
        if let Some(since) = entry.preprepare_at {
            self.telemetry
                .observe("pbft.prepare_phase_ticks", now.saturating_sub(since));
        }
        ctx.broadcast(
            PbftMsg::Commit {
                view,
                seq,
                digest,
                span,
            },
            false,
        );
        self.maybe_commit(view, seq, ctx);
    }

    fn on_commit(
        &mut self,
        from: NodeId,
        view: u64,
        seq: u64,
        digest: Hash256,
        _span: SpanContext,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        // Accept commits for the current view (old-view commits are handled
        // by the view-change carry-over).
        if view != self.view {
            return;
        }
        let entry = self.log.entry((view, seq)).or_default();
        if entry.digest.is_some_and(|d| d != digest) {
            return;
        }
        entry.commits.insert(from);
        self.maybe_commit(view, seq, ctx);
    }

    fn maybe_commit(&mut self, view: u64, seq: u64, ctx: &mut Context<'_, PbftMsg>) {
        let quorum = self.quorum();
        let entry = match self.log.get_mut(&(view, seq)) {
            Some(e) => e,
            None => return,
        };
        if entry.committed
            || entry.digest.is_none()
            || entry.prepares.len() < quorum
            || entry.commits.len() < quorum
        {
            return;
        }
        entry.committed = true;
        self.telemetry.incr("pbft.batches_committed");
        if let Some(since) = entry.prepared_at {
            self.telemetry
                .observe("pbft.commit_phase_ticks", ctx.now().saturating_sub(since));
        }
        // Commit-phase span: prepare quorum to commit quorum, parented
        // under this replica's prepare-phase span (id recomputed, not
        // stored — that is the deterministic-id contract).
        if let Some(start_ns) = entry.prepared_at_ns {
            let commits = entry.commits.len() as u64;
            self.trace.complete(
                entry.trace,
                "pbft.commit_phase",
                replica_span_id(entry.trace, "pbft.prepare_phase", self.id),
                lanes::CONSENSUS,
                start_ns,
                &[("view", view), ("seq", seq), ("commits", commits)],
            );
        }
        let digest = entry.digest.expect("checked");
        let batch = entry.batch.clone();
        self.decided.entry(seq).or_insert((view, digest, batch));
        self.execute_ready(ctx);
    }

    fn execute_ready(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        while let Some((view, digest, batch)) = self.decided.remove(&(self.last_exec + 1)) {
            self.last_exec += 1;
            // Exactly-once execution: a request can appear in two batches
            // (e.g. re-queued by a late client retransmission between its
            // proposal and its execution); only its first occurrence
            // executes.
            let mut fresh: Vec<Request> = batch
                .into_iter()
                .filter(|r| self.executed_ids.insert(r.id))
                .collect();
            if self.mode == ByzMode::CorruptExec {
                // Tamper payloads after ordering: the batch digest (and
                // hence consensus agreement) covers the originals, so the
                // damage surfaces only in what this replica executes.
                for r in &mut fresh {
                    r.payload.reverse();
                }
            }
            for r in &fresh {
                if self.pending_ids.remove(&r.id) {
                    self.pending.retain(|p| p.id != r.id);
                }
                self.pending_since.remove(&r.id);
            }
            // Chain the execution digest and emit a checkpoint vote at
            // interval boundaries.
            let mut chained = Vec::with_capacity(64);
            chained.extend_from_slice(self.exec_digest.as_bytes());
            chained.extend_from_slice(digest.as_bytes());
            self.exec_digest = tagged_hash("TN/exec-chain", &chained);
            self.telemetry.incr("pbft.batches_executed");
            self.telemetry
                .add("pbft.requests_committed", fresh.len() as u64);
            let now = ctx.now();
            for r in &fresh {
                self.telemetry.observe(
                    "pbft.request_latency_ticks",
                    now.saturating_sub(r.submitted_at),
                );
            }
            self.committed.push(CommittedEntry {
                seq: self.last_exec,
                view,
                digest,
                requests: fresh,
                committed_at: ctx.now(),
            });
            if self.config.checkpoint_interval > 0
                && self
                    .last_exec
                    .is_multiple_of(self.config.checkpoint_interval)
            {
                let seq = self.last_exec;
                let cp_digest = self.exec_digest;
                self.record_checkpoint_vote(self.id, seq, cp_digest);
                ctx.broadcast(
                    PbftMsg::Checkpoint {
                        seq,
                        digest: cp_digest,
                    },
                    false,
                );
            }
        }
        // Primary keeps draining its queue.
        if self.is_primary() && !self.pending.is_empty() {
            self.propose(ctx);
        }
    }

    fn record_checkpoint_vote(&mut self, from: NodeId, seq: u64, digest: Hash256) {
        if seq <= self.stable_checkpoint {
            return;
        }
        let voters = self
            .checkpoint_votes
            .entry(seq)
            .or_default()
            .entry(digest)
            .or_default();
        voters.insert(from);
        if voters.len() >= self.quorum() {
            self.stable_checkpoint = seq;
            self.telemetry.incr("pbft.stable_checkpoints");
            // Prune everything the stable checkpoint covers.
            let cp = self.stable_checkpoint;
            self.log.retain(|(_, s), _| *s > cp);
            self.checkpoint_votes.retain(|s, _| *s > cp);
        }
    }

    fn prepared_entries(&self) -> Vec<(u64, Hash256, Vec<Request>)> {
        let quorum = self.quorum();
        let mut out: Vec<(u64, Hash256, Vec<Request>)> = self
            .log
            .iter()
            .filter(|((_, seq), e)| {
                *seq > self.last_exec && e.digest.is_some() && e.prepares.len() >= quorum
            })
            .map(|((_, seq), e)| (*seq, e.digest.expect("filtered"), e.batch.clone()))
            .collect();
        out.sort_by_key(|(seq, _, _)| *seq);
        out
    }

    fn start_view_change(&mut self, target: u64, ctx: &mut Context<'_, PbftMsg>) {
        if self.mode == ByzMode::Silent || target <= self.vc_voted {
            return;
        }
        self.vc_voted = target;
        self.telemetry.incr("pbft.view_changes");
        self.telemetry.event("view_change", || {
            format!("replica {} -> view {target}", self.id)
        });
        let prepared = self.prepared_entries();
        self.vc_votes
            .entry(target)
            .or_default()
            .insert(self.id, prepared.clone());
        ctx.broadcast(
            PbftMsg::ViewChange {
                new_view: target,
                prepared,
            },
            false,
        );
        // Re-arm in case the new primary is also faulty.
        ctx.set_timer(VIEW_TIMEOUT * 2, TIMER_VIEW_BASE + target);
        self.maybe_new_view(target, ctx);
    }

    fn on_view_change(
        &mut self,
        from: NodeId,
        new_view: u64,
        prepared: Vec<(u64, Hash256, Vec<Request>)>,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        if new_view <= self.view {
            return;
        }
        let votes = self.vc_votes.entry(new_view).or_default();
        votes.insert(from, prepared);
        let count = votes.len();
        // Join the view change once f+1 others want it (we are behind).
        if count > self.f && self.vc_voted < new_view {
            self.start_view_change(new_view, ctx);
        }
        self.maybe_new_view(new_view, ctx);
    }

    fn maybe_new_view(&mut self, new_view: u64, ctx: &mut Context<'_, PbftMsg>) {
        if self.primary_of(new_view) != self.id || self.view >= new_view {
            return;
        }
        if self.mode == ByzMode::Silent {
            return;
        }
        let Some(votes) = self.vc_votes.get(&new_view) else {
            return;
        };
        if votes.len() < self.quorum() {
            return;
        }
        // Merge the prepared sets: for each seq take any reported batch
        // (quorum intersection guarantees consistency among honest nodes).
        let mut merged: BTreeMap<u64, (Hash256, Vec<Request>)> = BTreeMap::new();
        for prepared in votes.values() {
            for (seq, digest, batch) in prepared {
                merged.entry(*seq).or_insert((*digest, batch.clone()));
            }
        }
        // Fill sequence holes with null batches (standard PBFT new-view
        // rule): a sequence proposed by a dead/partitioned primary that
        // never reached a prepare quorum would otherwise block execution
        // of every later sequence forever. Anything that actually
        // committed anywhere must appear in the merged prepared set
        // (quorum intersection), so null-filling only covers sequences
        // that provably never committed.
        if let Some(&max_seq) = merged.keys().next_back() {
            for seq in (self.last_exec + 1)..max_seq {
                merged
                    .entry(seq)
                    .or_insert_with(|| (batch_digest(&[]), Vec::new()));
            }
        }
        let reproposals: Vec<(u64, Hash256, Vec<Request>)> = merged
            .into_iter()
            .map(|(seq, (d, b))| (seq, d, b))
            .collect();
        self.install_view(new_view, &reproposals, ctx);
        ctx.broadcast(
            PbftMsg::NewView {
                view: new_view,
                reproposals,
            },
            false,
        );
    }

    fn on_new_view(
        &mut self,
        from: NodeId,
        view: u64,
        reproposals: Vec<(u64, Hash256, Vec<Request>)>,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        if view <= self.view || from != self.primary_of(view) {
            return;
        }
        self.install_view(view, &reproposals, ctx);
        // Treat each re-proposal as a pre-prepare in the new view. No span
        // context: the trace id is re-derived from the batch digest.
        for (seq, digest, batch) in reproposals {
            self.on_preprepare(from, view, seq, digest, batch, SpanContext::NONE, ctx);
        }
    }

    fn install_view(
        &mut self,
        view: u64,
        reproposals: &[(u64, Hash256, Vec<Request>)],
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        self.view = view;
        self.vc_votes.retain(|v, _| *v > view);
        // Seed the new primary's log with the re-proposals (it plays the
        // pre-prepare role for them).
        if self.primary_of(view) == self.id {
            let mut max_seq = self.last_exec;
            for (seq, digest, batch) in reproposals {
                let entry = self.log.entry((view, *seq)).or_default();
                entry.digest = Some(*digest);
                entry.batch = batch.clone();
                entry.prepares.insert(self.id);
                max_seq = max_seq.max(*seq);
            }
            self.next_seq = self.next_seq.max(max_seq);
            if !self.pending.is_empty() {
                // Defer the first proposal of the new view so the NewView
                // announcement (sent right after install) reaches backups
                // before the PrePrepare; otherwise they would drop it as
                // a future-view message and stall the view again.
                ctx.set_timer(BATCH_DELAY, TIMER_BATCH);
            }
        } else if !self.pending.is_empty() {
            ctx.set_timer(VIEW_TIMEOUT, TIMER_VIEW_BASE + view);
        }
    }
}

impl Node<PbftMsg> for PbftReplica {
    fn on_start(&mut self, _ctx: &mut Context<'_, PbftMsg>) {}

    fn on_revive(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if self.mode == ByzMode::Silent {
            return;
        }
        // Timer events addressed to a crashed node are consumed, so a
        // restarted replica must re-arm its liveness machinery: the batch
        // timer if it is the primary with work queued, the view-change
        // timer otherwise so a stalled primary is still detected.
        if !self.pending.is_empty() {
            if self.is_primary() {
                ctx.set_timer(BATCH_DELAY, TIMER_BATCH);
            } else {
                ctx.set_timer(VIEW_TIMEOUT, TIMER_VIEW_BASE + self.view);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: PbftMsg, ctx: &mut Context<'_, PbftMsg>) {
        if self.mode == ByzMode::Silent {
            return;
        }
        match msg {
            PbftMsg::Request(req) => {
                // Clients may inject at any replica; the receiver relays to
                // the whole cluster so every backup can arm its view-change
                // timer even when the primary is faulty.
                if from == EXTERNAL {
                    ctx.broadcast(PbftMsg::Request(req.clone()), false);
                }
                self.enqueue_request(req, ctx);
            }
            PbftMsg::PrePrepare {
                view,
                seq,
                digest,
                batch,
                span,
            } => {
                self.on_preprepare(from, view, seq, digest, batch, span, ctx);
            }
            PbftMsg::Prepare {
                view,
                seq,
                digest,
                span,
            } => {
                self.on_prepare(from, view, seq, digest, span, ctx);
            }
            PbftMsg::Commit {
                view,
                seq,
                digest,
                span,
            } => {
                self.on_commit(from, view, seq, digest, span, ctx);
            }
            PbftMsg::ViewChange { new_view, prepared } => {
                self.on_view_change(from, new_view, prepared, ctx);
            }
            PbftMsg::NewView { view, reproposals } => {
                self.on_new_view(from, view, reproposals, ctx);
            }
            PbftMsg::Checkpoint { seq, digest } => {
                self.record_checkpoint_vote(from, seq, digest);
            }
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Context<'_, PbftMsg>) {
        if self.mode == ByzMode::Silent {
            return;
        }
        if timer == TIMER_BATCH {
            if self.is_primary() {
                self.propose(ctx);
            }
            return;
        }
        if timer >= TIMER_VIEW_BASE {
            let guarded_view = timer - TIMER_VIEW_BASE;
            // Fire only if we are still stuck in (or before) the guarded
            // view AND some request has actually waited out the timeout —
            // merely having fresh arrivals in the queue is normal under
            // continuous load and must not trigger a view change.
            let now = ctx.now();
            let starved = self.pending.iter().any(|r| {
                self.pending_since
                    .get(&r.id)
                    .is_some_and(|since| now.saturating_sub(*since) >= VIEW_TIMEOUT)
            });
            if self.view <= guarded_view && starved {
                self.start_view_change(guarded_view + 1, ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{NetworkConfig, Simulator};

    fn cluster(
        n: usize,
        modes: &[(NodeId, ByzMode)],
        seed: u64,
    ) -> Simulator<PbftMsg, PbftReplica> {
        let mode_of = |id: NodeId| {
            modes
                .iter()
                .find(|(i, _)| *i == id)
                .map(|(_, m)| *m)
                .unwrap_or(ByzMode::Honest)
        };
        let nodes = (0..n)
            .map(|id| PbftReplica::new(id, n, PbftConfig::default(), mode_of(id)))
            .collect();
        Simulator::new(nodes, NetworkConfig { seed })
    }

    fn inject_requests(sim: &mut Simulator<PbftMsg, PbftReplica>, count: usize, start: u64) {
        for i in 0..count {
            let t = start + (i as u64) * 5;
            let req = Request::new(format!("req-{i}").into_bytes(), t);
            // Send to node 0 (the initial primary).
            sim.inject_at(0, PbftMsg::Request(req), t);
        }
    }

    fn committed_ids(replica: &PbftReplica) -> Vec<Hash256> {
        replica
            .committed
            .iter()
            .flat_map(|e| e.requests.iter().map(|r| r.id))
            .collect()
    }

    #[test]
    fn four_replicas_commit_all_requests() {
        let mut sim = cluster(4, &[], 1);
        inject_requests(&mut sim, 20, 10);
        sim.run_until(50_000);
        for id in 0..4 {
            assert_eq!(committed_ids(sim.node(id)).len(), 20, "replica {id}");
        }
    }

    #[test]
    fn all_honest_replicas_agree_on_order() {
        let mut sim = cluster(4, &[], 2);
        inject_requests(&mut sim, 50, 10);
        sim.run_until(100_000);
        let reference = committed_ids(sim.node(0));
        assert_eq!(reference.len(), 50);
        for id in 1..4 {
            assert_eq!(committed_ids(sim.node(id)), reference, "replica {id}");
        }
    }

    #[test]
    fn sequence_numbers_are_gapless() {
        let mut sim = cluster(4, &[], 3);
        inject_requests(&mut sim, 30, 10);
        sim.run_until(100_000);
        let seqs: Vec<u64> = sim.node(0).committed.iter().map(|e| e.seq).collect();
        let expect: Vec<u64> = (1..=seqs.len() as u64).collect();
        assert_eq!(seqs, expect);
    }

    #[test]
    fn tolerates_one_silent_backup() {
        let mut sim = cluster(4, &[(3, ByzMode::Silent)], 4);
        inject_requests(&mut sim, 20, 10);
        sim.run_until(100_000);
        for id in 0..3 {
            assert_eq!(committed_ids(sim.node(id)).len(), 20, "replica {id}");
        }
    }

    #[test]
    fn silent_primary_triggers_view_change_and_recovers() {
        // Node 0 is the view-0 primary and is silent: backups must view-change
        // to node 1 and then commit.
        let mut sim = cluster(4, &[(0, ByzMode::Silent)], 5);
        // Inject to a backup so it forwards to the (dead) primary, times out
        // and drives the view change.
        for i in 0..10 {
            let req = Request::new(format!("r{i}").into_bytes(), 10 + i);
            sim.inject_at(1, PbftMsg::Request(req), 10 + i);
        }
        sim.run_until(300_000);
        for id in 1..4 {
            assert_eq!(committed_ids(sim.node(id)).len(), 10, "replica {id}");
            assert!(
                sim.node(id).view() >= 1,
                "replica {id} should have changed view"
            );
        }
    }

    #[test]
    fn equivocating_primary_does_not_split_honest_replicas() {
        let mut sim = cluster(4, &[(0, ByzMode::EquivocatingPrimary)], 6);
        for i in 0..6 {
            let req = Request::new(format!("r{i}").into_bytes(), 10 + i);
            sim.inject_at(1, PbftMsg::Request(req), 10 + i);
        }
        sim.run_until(400_000);
        // Safety: no two honest replicas commit different digests at the
        // same sequence number.
        for a in 1..4 {
            for b in (a + 1)..4 {
                let ca = &sim.node(a).committed;
                let cb = &sim.node(b).committed;
                for ea in ca {
                    for eb in cb {
                        if ea.seq == eb.seq {
                            assert_eq!(
                                ea.digest, eb.digest,
                                "replicas {a} and {b} disagree at seq {}",
                                ea.seq
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn crash_of_f_nodes_preserves_liveness() {
        // n=7 tolerates f=2 crashes of backups.
        let mut sim = cluster(7, &[], 7);
        sim.crash(5);
        sim.crash(6);
        inject_requests(&mut sim, 15, 10);
        sim.run_until(200_000);
        for id in 0..5 {
            assert_eq!(committed_ids(sim.node(id)).len(), 15, "replica {id}");
        }
    }

    #[test]
    fn duplicate_request_executed_once() {
        let mut sim = cluster(4, &[], 8);
        let req = Request::new(b"dup".to_vec(), 10);
        sim.inject_at(0, PbftMsg::Request(req.clone()), 10);
        sim.inject_at(0, PbftMsg::Request(req.clone()), 12);
        sim.inject_at(1, PbftMsg::Request(req), 14);
        sim.run_until(50_000);
        let ids = committed_ids(sim.node(2));
        assert_eq!(ids.len(), 1);
    }

    #[test]
    #[should_panic(expected = "PBFT needs n >= 4")]
    fn rejects_tiny_clusters() {
        let _ = PbftReplica::new(0, 3, PbftConfig::default(), ByzMode::Honest);
    }

    #[test]
    fn commit_latency_is_recorded() {
        let mut sim = cluster(4, &[], 9);
        inject_requests(&mut sim, 5, 100);
        sim.run_until(50_000);
        for e in &sim.node(0).committed {
            for r in &e.requests {
                assert!(e.committed_at > r.submitted_at);
            }
        }
    }
}
