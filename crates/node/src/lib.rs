//! # tn-node
//!
//! The network layer of the trusting-news platform: validator nodes that
//! couple `tn-consensus` ordering to the `tn-core` execution pipeline.
//!
//! - [`validator`]: [`ValidatorNode`] — applies consensus-committed
//!   payload batches as blocks through the shared
//!   [`ExecutionPipeline`](tn_core::pipeline::ExecutionPipeline).
//! - [`network`]: [`run_pbft_cluster`] / [`run_poa_cluster`] — simulate
//!   an N-validator network end to end and report per-replica execution
//!   digests; agreement on request order yields byte-identical derived
//!   state on every replica. Cluster runs carry a
//!   [`FaultPlan`](tn_consensus::fault::FaultPlan): scheduled crashes,
//!   partitions, loss windows, and byzantine modes, with per-replica
//!   fault reports and quarantine verdicts in the result.
//! - `statesync`: [`catch_up`] — a recovered
//!   replica fetches missing canonical blocks from peers at the agreed
//!   digest, verifying each before applying.
//! - [`workload`]: scripted, replayable platform traffic for cluster
//!   runs, and the walk over a session's committed blocks above the
//!   bootstrap prefix that `tn-gateway`'s generators split their ledgers
//!   with.
//!
//! # Example
//!
//! ```
//! use tn_node::network::{run_pbft_cluster, ClusterConfig};
//! use tn_node::workload::scripted_workload;
//!
//! let config = ClusterConfig::default(); // 4 validators
//! let txs = scripted_workload(&config.platform);
//! let run = run_pbft_cluster(&config, &txs)?;
//! assert!(run.is_consistent(), "all replicas agree on the execution digest");
//! # Ok::<(), tn_node::validator::NodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod network;
mod statesync;
pub mod validator;
pub mod workload;

pub use network::{
    run_pbft_cluster, run_poa_cluster, ClusterConfig, ClusterRun, ClusterVerdict, FaultReport,
    NodeReport, RecoveryReport, ReplicaVerdict,
};
pub use statesync::{catch_up, CatchupReport, SyncError};
pub use validator::{BatchOutcome, NodeError, ValidatorNode};
pub use workload::{extract_post_bootstrap, scripted_workload};
