//! # tn-core
//!
//! The AI blockchain platform for trusting news — the paper's headline
//! system (Figure 1) and ecosystem (Figure 2), assembled from every
//! substrate crate:
//!
//! - [`roles`]: verified identities and the five ecosystem roles.
//! - `projections`: `Projections`, the four views (supply-chain
//!   graph, identity registry, factual database, headline cache) derived
//!   purely from committed blocks.
//! - [`pipeline`]: the [`ExecutionPipeline`](pipeline::ExecutionPipeline)
//!   — chain store plus, as its executor, contract registry and
//!   projections, beside the mempool and block clock; the single-node core
//!   under the platform and validators.
//! - [`platform`]: the [`Platform`](platform::Platform) struct — a facade
//!   over the pipeline adding keys and the AI detector behind one
//!   transactional API (publish, rate, attest, rank, trace, suggest
//!   experts, `call`).
//! - [`ecosystem`]: the multi-round ecosystem simulation (experiment E10)
//!   in which consumers, creators, fact checkers, AI developers and
//!   publishers act through the real platform APIs.
//! - [`client`]: light-client verification — readers check news events,
//!   anchors and fact records from block headers and Merkle proofs alone.
//!
//! # Example
//!
//! ```
//! use tn_core::platform::{Platform, PlatformConfig};
//! use tn_core::roles::Role;
//! use tn_crypto::Keypair;
//!
//! let mut platform = Platform::new(PlatformConfig::default());
//! let publisher = Keypair::from_seed(b"pub");
//! platform.register_identity(&publisher, "Daily Facts", &[Role::Publisher])?;
//! platform.produce_block()?;
//! assert!(platform.identities().has_role(&publisher.address(), Role::Publisher));
//! # Ok::<(), tn_core::platform::PlatformError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

pub mod client;
pub mod ecosystem;
pub mod pipeline;
pub mod platform;
mod projections;
pub mod roles;
