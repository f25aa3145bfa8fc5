//! # tn-propagation
//!
//! News propagation over social networks: the dynamics the platform is
//! built to change. The paper's abstract promises that "factual-sourced
//! reporting can outpace the spread of fake news on social media"; this
//! crate supplies the network models, spreading dynamics, bot/cyborg
//! account models (per its citations) and intervention policies, and the
//! E5 race harness that tests the promise.
//!
//! - [`network`]: Barabási–Albert and Watts–Strogatz graph generators.
//! - [`cascade`]: independent-cascade spreading with account-type
//!   amplification, flagging multipliers and source blocking.
//! - `popularity`: Zipf-skewed item popularity for reader/ranker load
//!   generation.
//! - [`race`]: the fake-vs-factual race under platform interventions.
//!
//! # Example
//!
//! ```
//! use tn_propagation::network::barabasi_albert;
//! use tn_propagation::race::{run_race, Intervention, RaceConfig};
//!
//! let g = barabasi_albert(500, 3, 7);
//! let result = run_race(&g, &RaceConfig::default(), Intervention::None).unwrap();
//! assert!(result.fake.total_reach > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cascade;
pub mod network;
mod popularity;
pub mod race;

pub use cascade::{
    assign_accounts, independent_cascade, independent_cascade_with_receptivity, AccountKind,
    CascadeConfig, CascadeError, CascadeResult,
};
pub use popularity::ZipfSampler;
