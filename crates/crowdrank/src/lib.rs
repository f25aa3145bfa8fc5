//! # tn-crowdrank
//!
//! "AI blockchain based crowd sourcing fake news ranking mechanisms" —
//! contribution (3) of the paper. Every rating is an attributable
//! on-chain action, which enables reputation ("accountability and
//! traceability … can prevent bias concerns that might be originated from
//! traditional majority decided crowd sourcing mechanisms", §IV):
//!
//! - [`reputation`]: Beta-posterior validator reputation with decay.
//! - [`aggregate`]: majority (baseline), reputation-weighted voting, and
//!   EM truth discovery.
//! - [`adversary`]: the honest and malicious validator models E2 runs,
//!   plus the campaign participant roles (bot rings, turncoat sybils,
//!   bribed rankers) driven end-to-end by E24.
//! - [`defense`]: sliding-window coordination detection, whose verdicts
//!   E24 enforces through the on-chain `RankingContract` (`tn-contracts`:
//!   bonds, slashing, decay and quarantine).
//! - [`sim`]: the round-based simulation with incentive economics that
//!   powers the E2 robustness experiment.
//!
//! # Example
//!
//! ```
//! use tn_crowdrank::sim::{run, SimConfig, Strategy};
//!
//! let result = run(&SimConfig::default(), Strategy::ReputationWeighted);
//! assert!(result.overall_accuracy > 0.8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod adversary;
pub mod aggregate;
pub mod defense;
pub mod reputation;
pub mod sim;

pub use defense::{CoordinationDetector, CoordinationReport, ObservedVote};
