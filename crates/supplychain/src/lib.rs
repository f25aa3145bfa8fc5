//! # tn-supplychain
//!
//! The news blockchain supply-chain graph — the paper's central technical
//! contribution (Figure 4, §VI): model news propagation as a blockchain
//! data-flow supply chain so that ranking, traceability and accountability
//! fall out of the recorded graph.
//!
//! - [`text`]: tokenization and word-shingle Jaccard similarity — the
//!   "degree of modification" measure.
//! - [`ops`]: the propagation operations (relay, cite, mix, split, merge,
//!   insert) with executable text transformations.
//! - [`graph`]: the supply-chain DAG; trace-back to the factual database
//!   and the origin / distortion (accountability) queries are answered
//!   from a summary stored on every node when it is inserted.
//! - [`ranking`]: factualness ranking from trace distance × modification
//!   degree, plus Spearman/precision@k rank-quality metrics.
//! - [`expert`]: domain-topic expert identification from ledger history.
//! - [`index`]: on-chain news-event encoding and the ledger indexer that
//!   reconstructs the graph from `tn-chain` blocks.
//! - [`process`]: the fixed-workflow process supply chain of Figure 3, the
//!   baseline for the E1 experiment.
//! - [`synth`]: the synthetic workload generator with ground truth used by
//!   experiments E1/E3/E9.
//!
//! # Example
//!
//! ```
//! use tn_supplychain::graph::SupplyChainGraph;
//! use tn_supplychain::ops::PropagationOp;
//! use tn_crypto::{Keypair, sha256::sha256};
//!
//! let mut g = SupplyChainGraph::new();
//! let root = sha256(b"fact-record");
//! g.add_fact_root(root, "The vote passed with a clear majority.", "energy", 0)?;
//! let relayer = Keypair::from_seed(b"relayer").address();
//! let item = g.insert(relayer, "The vote passed with a clear majority.",
//!                     "energy", 1, vec![(root, PropagationOp::Relay)], 10)?;
//! let trace = g.trace_back(&item)?;
//! assert!(trace.reaches_root);
//! # Ok::<(), tn_supplychain::graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod expert;
pub mod graph;
pub mod index;
pub mod ops;
pub mod process;
pub mod ranking;
pub mod synth;
pub mod text;

pub use graph::{GraphError, NewsItem, ParentRef, SupplyChainGraph, TraceResult, TraceSummary};
pub use ops::PropagationOp;
