//! # tn-consensus
//!
//! Consensus layer for the trusting-news chain, evaluated on a
//! deterministic discrete-event network simulator.
//!
//! The paper calls for "a high performance blockchain network … \[that\] all
//! the global population can be the potential users of" (§VII) and builds
//! on the authors' ICDCS 2018 distributed/parallel blockchain work. This
//! crate supplies:
//!
//! - [`sim`]: the event-driven network simulator (latency, jitter, loss,
//!   partitions, crash faults) that makes every consensus experiment
//!   deterministic and laptop-scale.
//! - [`pbft`]: Practical Byzantine Fault Tolerance with the full
//!   three-phase commit and view changes — the permissioned-chain
//!   consensus in the Hyperledger mould the paper assumes.
//! - [`poa`]: round-robin Proof-of-Authority, the cheap non-BFT ordering
//!   baseline (fast, but an equivocating leader splits it — demonstrated
//!   in tests).
//! - [`harness`]: workload driver computing throughput/latency/message
//!   statistics for the E6 scaling experiment.
//! - [`fault`]: declarative [`fault::FaultPlan`] schedules — crashes,
//!   restarts, partitions, loss windows, byzantine modes — executed
//!   deterministically by the simulator for the E19 fault matrix.
//!
//! # Example
//!
//! ```
//! use tn_consensus::harness::{run_pbft, Workload};
//! use tn_consensus::sim::NetworkConfig;
//!
//! let stats = run_pbft(4, &[], &Workload { n_requests: 10, ..Workload::default() },
//!                      NetworkConfig::default(), 100_000);
//! assert_eq!(stats.committed, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod fault;
pub mod harness;
pub mod pbft;
pub mod poa;
pub mod sim;

pub use fault::{CrashFault, DropWindow, FaultPlan, PartitionFault};
pub use harness::{
    order_payloads_pbft_faulted, order_payloads_poa_faulted, run_pbft, run_poa, CommittedPayloads,
    OrderingRun, RunStats, Workload,
};
