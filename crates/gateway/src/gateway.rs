//! The admission gateway: rate limit → bounded lane → batched ingest.
//!
//! A request's life at the front door:
//!
//! ```text
//! offer(client, tx, t) ──▶ token bucket ──▶ ingress lane ──▶ verdict
//!                           │ empty           │ full
//!                           ▼                 ▼
//!                      ShedRateLimit     ShedQueueFull
//!
//! drain_into(node) ──▶ mempool (≤ ingest_batch per call, watermark-gated)
//! ```
//!
//! Both shed verdicts happen *at the door*, before the transaction is
//! accepted — the explicit-backpressure contract. Past the door, work is
//! never dropped: a lane entry either ingests into the mempool (where
//! per-transaction admission may still reject it, visibly, as
//! `mempool.rejected`) or stays queued until capacity frees downstream.

use tn_core::platform::GatewayConfig;
use tn_node::validator::ValidatorNode;
use tn_telemetry::TelemetrySink;
use tn_trace::{lanes, span_id, TraceId, TraceSink};

use crate::limiter::RateLimiter;
use crate::queue::{IngressLane, QueuedTx};
use crate::GatewayError;

use tn_chain::prelude::Transaction;

/// The gateway's decision on one offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitVerdict {
    /// Accepted into an ingress lane; the gateway now owns the
    /// transaction and guarantees it reaches the mempool.
    Admitted,
    /// Shed: the client exceeded its token-bucket rate.
    ShedRateLimit,
    /// Shed: the client's ingress lane is at capacity (downstream
    /// backpressure reached the door).
    ShedQueueFull,
}

/// Deterministic admission accounting, kept separately from telemetry so
/// tests can compare exact decision streams without a registry attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GatewayStats {
    /// Requests offered (writes only; reads are counted by the caller).
    pub offered: u64,
    /// Requests admitted into a lane.
    pub admitted: u64,
    /// Requests shed by the rate limiter.
    pub shed_rate_limit: u64,
    /// Requests shed by a full lane.
    pub shed_queue_full: u64,
    /// Transactions handed to the mempool.
    pub(crate) ingested: u64,
    /// Of those, accepted by mempool admission.
    pub(crate) mempool_accepted: u64,
    /// Of those, rejected by mempool admission (duplicate/nonce/full) —
    /// visible rejections, not queue drops.
    pub mempool_rejected: u64,
}

/// Result of one [`Gateway::drain_into`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainReport {
    /// Transactions moved out of lanes this pass.
    pub ingested: usize,
    /// Accepted by the mempool.
    pub accepted: usize,
    /// Rejected by the mempool.
    pub rejected: usize,
    /// Ingest calls made (each ≤ `ingest_batch` transactions).
    pub(crate) batches: usize,
    /// True when the pass stopped early because the mempool watermark
    /// was reached (backpressure holding work in the bounded lanes).
    pub backpressured: bool,
}

/// The front-door admission layer for one validator node.
#[derive(Debug)]
pub struct Gateway {
    lanes: Vec<IngressLane>,
    limiter: RateLimiter,
    ingest_batch: usize,
    mempool_watermark: usize,
    stats: GatewayStats,
    telemetry: TelemetrySink,
    trace: TraceSink,
}

impl Gateway {
    /// Builds a gateway from `config`, validating it.
    ///
    /// `workers == 0` is clamped to one lane.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Config`] when `queue_capacity == 0` (a lane that
    /// can never accept work) or `ingest_batch == 0` (a drain that can
    /// never move work) — both would stall the front door silently.
    pub fn new(config: &GatewayConfig) -> Result<Gateway, GatewayError> {
        if config.queue_capacity == 0 {
            return Err(GatewayError::Config(
                "queue_capacity must be > 0: a zero-capacity ingress lane sheds every request"
                    .into(),
            ));
        }
        if config.ingest_batch == 0 {
            return Err(GatewayError::Config(
                "ingest_batch must be > 0: a zero-size batch never drains admitted work".into(),
            ));
        }
        let lanes = config.workers.max(1);
        Ok(Gateway {
            lanes: (0..lanes)
                .map(|_| IngressLane::new(config.queue_capacity))
                .collect(),
            limiter: RateLimiter::new(config.rate_per_client, config.burst_per_client),
            ingest_batch: config.ingest_batch,
            mempool_watermark: config.mempool_watermark,
            stats: GatewayStats::default(),
            telemetry: TelemetrySink::disabled(),
            trace: TraceSink::disabled(),
        })
    }

    /// Routes gateway metrics (`gateway.*`) to `sink`.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// Records `gateway.admission` / `gateway.ingest` spans to `sink`,
    /// linking each transaction's front-door hops into the same causal
    /// trace the mempool and pipeline continue.
    pub(crate) fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Transactions currently queued across all lanes.
    pub fn queued(&self) -> usize {
        self.lanes.iter().map(IngressLane::len).sum()
    }

    /// Deterministic admission accounting so far.
    pub fn stats(&self) -> &GatewayStats {
        &self.stats
    }

    /// The lane a client's requests always land in (client-sharded so a
    /// client's transactions stay FIFO relative to each other).
    fn lane_of(&self, client: u64) -> usize {
        // Multiplicative hash so adjacent client ids spread across lanes.
        (client.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) as usize % self.lanes.len()
    }

    /// Offers one write request at logical time `now_ns` and returns the
    /// explicit verdict. Counts `gateway.offered` / `gateway.admitted` /
    /// `gateway.shed.*`, observes per-lane depth, and records the
    /// transaction's `gateway.admission` root span when admitted.
    pub fn offer(&mut self, client: u64, tx: Transaction, now_ns: u64) -> AdmitVerdict {
        self.stats.offered += 1;
        self.telemetry.incr("gateway.offered");
        if !self.limiter.allow(client, now_ns) {
            self.stats.shed_rate_limit += 1;
            self.telemetry.incr("gateway.shed.rate_limit");
            return AdmitVerdict::ShedRateLimit;
        }
        let lane = self.lane_of(client);
        let t0 = self.trace.now_ns();
        let tx_trace = if self.trace.is_enabled() {
            TraceId::from_seed(tx.id().as_bytes())
        } else {
            TraceId::NONE
        };
        match self.lanes[lane].push(QueuedTx { tx, client }) {
            Ok(()) => {
                self.stats.admitted += 1;
                self.telemetry.incr("gateway.admitted");
                self.telemetry
                    .observe("gateway.lane_depth", self.lanes[lane].len() as u64);
                // The front-door root of the transaction's causal chain;
                // mempool admission and ingest recompute this id to
                // parent under it.
                self.trace.complete_once(
                    tx_trace,
                    "gateway.admission",
                    0,
                    lanes::ADMISSION,
                    t0,
                    &[("client", client), ("lane", lane as u64)],
                );
                AdmitVerdict::Admitted
            }
            Err(_) => {
                self.stats.shed_queue_full += 1;
                self.telemetry.incr("gateway.shed.queue_full");
                AdmitVerdict::ShedQueueFull
            }
        }
    }

    /// Reads bypass the ledger entirely, but still pass the same
    /// per-client token bucket: returns `true` when the read is within
    /// rate (counting `gateway.reads.{served,shed}`).
    pub fn offer_read(&mut self, client: u64, now_ns: u64) -> bool {
        if self.limiter.allow(client, now_ns) {
            self.telemetry.incr("gateway.reads.served");
            true
        } else {
            self.telemetry.incr("gateway.reads.shed");
            false
        }
    }

    /// Drains queued transactions into `node`'s mempool in chunks of at
    /// most `ingest_batch`, lane by lane, until the lanes are empty or
    /// the mempool watermark is reached. Every drained transaction gets
    /// a visible outcome (mempool accepted or rejected); none are
    /// dropped. Counts `gateway.ingest.batches` and observes
    /// `gateway.ingest.batch_size`.
    pub fn drain_into(&mut self, node: &mut ValidatorNode) -> DrainReport {
        let mut report = DrainReport::default();
        let mut batch: Vec<Transaction> = Vec::with_capacity(self.ingest_batch);
        let mut batch_spans: Vec<(TraceId, u64)> = Vec::new();
        loop {
            if self.mempool_watermark > 0 && node.mempool().len() >= self.mempool_watermark {
                report.backpressured = true;
                break;
            }
            // Fill one chunk, round-robin-free: take lanes in index order
            // (deterministic), preserving each lane's FIFO.
            batch.clear();
            batch_spans.clear();
            let t0 = self.trace.now_ns();
            let headroom = if self.mempool_watermark > 0 {
                self.mempool_watermark.saturating_sub(node.mempool().len())
            } else {
                usize::MAX
            };
            let take = self.ingest_batch.min(headroom);
            'fill: for lane in &mut self.lanes {
                while batch.len() < take {
                    match lane.pop() {
                        Some(entry) => {
                            if self.trace.is_enabled() {
                                let tx_trace = TraceId::from_seed(entry.tx.id().as_bytes());
                                batch_spans.push((tx_trace, entry.client));
                            }
                            batch.push(entry.tx);
                        }
                        None => continue 'fill,
                    }
                }
                break;
            }
            if batch.is_empty() {
                break;
            }
            let out = node.submit_batch(std::mem::take(&mut batch));
            for (tx_trace, client) in batch_spans.drain(..) {
                self.trace.complete(
                    tx_trace,
                    "gateway.ingest",
                    span_id(tx_trace, "gateway.admission"),
                    lanes::ADMISSION,
                    t0,
                    &[("client", client)],
                );
            }
            let moved = out.accepted + out.rejected;
            report.ingested += moved;
            report.accepted += out.accepted;
            report.rejected += out.rejected;
            report.batches += 1;
            self.stats.ingested += moved as u64;
            self.stats.mempool_accepted += out.accepted as u64;
            self.stats.mempool_rejected += out.rejected as u64;
            self.telemetry.incr("gateway.ingest.batches");
            self.telemetry
                .observe("gateway.ingest.batch_size", moved as u64);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_core::platform::PlatformConfig;
    use tn_crypto::Keypair;

    fn cfg() -> GatewayConfig {
        GatewayConfig {
            workers: 2,
            queue_capacity: 4,
            rate_per_client: 0,
            burst_per_client: 0,
            ingest_batch: 3,
            mempool_watermark: 0,
        }
    }

    fn tx(seed: &[u8], nonce: u64) -> Transaction {
        let kp = Keypair::from_seed(seed);
        Transaction::signed(
            &kp,
            nonce,
            1,
            tn_chain::prelude::Payload::Transfer {
                to: kp.address(),
                amount: 1,
            },
        )
    }

    #[test]
    fn zero_queue_capacity_is_a_typed_config_error() {
        let err = Gateway::new(&GatewayConfig {
            queue_capacity: 0,
            ..cfg()
        });
        assert!(matches!(err, Err(GatewayError::Config(_))), "{err:?}");
    }

    #[test]
    fn zero_ingest_batch_is_a_typed_config_error() {
        let err = Gateway::new(&GatewayConfig {
            ingest_batch: 0,
            ..cfg()
        });
        assert!(matches!(err, Err(GatewayError::Config(_))), "{err:?}");
    }

    #[test]
    fn zero_workers_clamps_to_one_lane() {
        let gw = Gateway::new(&GatewayConfig {
            workers: 0,
            ..cfg()
        })
        .unwrap();
        assert_eq!(gw.lanes.len(), 1);
    }

    #[test]
    fn full_lane_sheds_with_an_explicit_verdict() {
        let mut gw = Gateway::new(&GatewayConfig {
            workers: 1,
            queue_capacity: 2,
            ..cfg()
        })
        .unwrap();
        assert_eq!(gw.offer(1, tx(b"a", 0), 0), AdmitVerdict::Admitted);
        assert_eq!(gw.offer(1, tx(b"a", 1), 1), AdmitVerdict::Admitted);
        assert_eq!(gw.offer(1, tx(b"a", 2), 2), AdmitVerdict::ShedQueueFull);
        assert_eq!(gw.stats().admitted, 2);
        assert_eq!(gw.stats().shed_queue_full, 1);
        assert_eq!(gw.queued(), 2, "shed never evicts admitted work");
    }

    #[test]
    fn rate_limited_clients_shed_before_queueing() {
        let mut gw = Gateway::new(&GatewayConfig {
            rate_per_client: 1,
            burst_per_client: 1,
            ..cfg()
        })
        .unwrap();
        assert_eq!(gw.offer(5, tx(b"b", 0), 0), AdmitVerdict::Admitted);
        assert_eq!(gw.offer(5, tx(b"b", 1), 0), AdmitVerdict::ShedRateLimit);
        assert_eq!(gw.queued(), 1);
        assert!(!gw.offer_read(5, 0), "reads share the bucket");
    }

    #[test]
    fn drain_moves_everything_in_ingest_batch_chunks() {
        let config = PlatformConfig::default();
        let mut node = ValidatorNode::new(0, &config);
        let mut gw = Gateway::new(&GatewayConfig {
            queue_capacity: 16,
            ..cfg()
        })
        .unwrap();
        // The bootstrap governor is funded; its nonce 0 was spent on the
        // genesis anchor, so the session starts at 1.
        let kp = Keypair::from_seed(b"tn-platform-governor");
        for nonce in 1..=7 {
            let t = Transaction::signed(
                &kp,
                nonce,
                1,
                tn_chain::prelude::Payload::Transfer {
                    to: kp.address(),
                    amount: 1,
                },
            );
            assert_eq!(gw.offer(9, t, nonce), AdmitVerdict::Admitted);
        }
        let report = gw.drain_into(&mut node);
        assert_eq!(report.ingested, 7);
        assert_eq!(report.batches, 3, "7 txs in chunks of 3");
        assert_eq!(gw.queued(), 0);
        assert_eq!(report.accepted, 7);
        assert_eq!(
            gw.stats().ingested,
            gw.stats().mempool_accepted + gw.stats().mempool_rejected
        );
    }

    #[test]
    fn drain_batch_verifies_exactly_the_uncached_transactions() {
        let config = PlatformConfig::default();
        let mut node = ValidatorNode::new(0, &config);
        let mut gw = Gateway::new(&GatewayConfig {
            queue_capacity: 16,
            ..cfg()
        })
        .unwrap();
        // The funded bootstrap governor; its nonce 0 went to the genesis anchor.
        let txs: Vec<Transaction> = (1..=7)
            .map(|nonce| tx(b"tn-platform-governor", nonce))
            .collect();
        // One signature is already known to the node's sigcache.
        node.pipeline().store().sig_cache().insert(txs[4].id());
        for t in &txs {
            assert_eq!(gw.offer(9, t.clone(), t.nonce), AdmitVerdict::Admitted);
        }
        let report = gw.drain_into(&mut node);
        assert_eq!((report.ingested, report.accepted), (7, 7));
        // A pending transaction offered again never reaches an equation.
        assert_eq!(gw.offer(9, txs[0].clone(), 8), AdmitVerdict::Admitted);
        let again = gw.drain_into(&mut node);
        assert_eq!((again.ingested, again.rejected), (1, 1));
        let snap = node.metrics_snapshot();
        assert_eq!(snap.counter("chain.verify.batch.txs"), Some(6));
        assert_eq!(snap.counter("chain.sigcache.miss"), Some(6));
        assert_eq!(snap.counter("chain.sigcache.hit"), Some(1));
        // Door conservation: offered = admitted, admitted = ingested,
        // ingested = accepted + rejected, nothing left in the lanes.
        let stats = gw.stats();
        assert_eq!(stats.admitted, 8);
        assert_eq!(stats.ingested, stats.admitted);
        assert_eq!(
            stats.mempool_accepted + stats.mempool_rejected,
            stats.ingested
        );
        assert_eq!((stats.mempool_accepted, stats.mempool_rejected), (7, 1));
        assert_eq!(gw.queued(), 0);
        assert_eq!(node.mempool().len(), 7);
    }

    #[test]
    fn watermark_backpressure_holds_work_in_lanes() {
        let config = PlatformConfig::default();
        let mut node = ValidatorNode::new(0, &config);
        let mut gw = Gateway::new(&GatewayConfig {
            workers: 1,
            queue_capacity: 16,
            mempool_watermark: 2,
            ..cfg()
        })
        .unwrap();
        let kp = Keypair::from_seed(b"tn-platform-governor");
        for nonce in 1..=6 {
            let t = Transaction::signed(
                &kp,
                nonce,
                1,
                tn_chain::prelude::Payload::Transfer {
                    to: kp.address(),
                    amount: 1,
                },
            );
            assert_eq!(gw.offer(3, t, nonce), AdmitVerdict::Admitted);
        }
        let report = gw.drain_into(&mut node);
        assert!(report.backpressured);
        assert_eq!(report.ingested, 2, "drain stops at the watermark");
        assert_eq!(gw.queued(), 4, "the rest waits in the bounded lane");
        // Committing frees the mempool; the next drain resumes.
        node.produce_block_from_mempool(100).unwrap();
        let report = gw.drain_into(&mut node);
        assert!(report.ingested >= 2);
    }

    #[test]
    fn a_clients_transactions_stay_fifo_through_one_lane() {
        let mut gw = Gateway::new(&GatewayConfig {
            workers: 4,
            queue_capacity: 64,
            ..cfg()
        })
        .unwrap();
        for nonce in 0..10 {
            gw.offer(77, tx(b"c", nonce), nonce);
        }
        let lane = gw.lane_of(77);
        let mut nonces = Vec::new();
        while let Some(e) = gw.lanes[lane].pop() {
            nonces.push(e.tx.nonce);
        }
        assert_eq!(nonces, (0..10).collect::<Vec<_>>());
    }
}
