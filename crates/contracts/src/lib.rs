//! # tn-contracts
//!
//! Smart-contract execution for the trusting-news chain.
//!
//! The paper puts smart contracts at the center of platform governance:
//! distribution-platform authentication, crowd-source review, incentive
//! payouts and factual-database admission are all "managed and enforced by
//! various smart contracts" (§V). Each of those four rules is a typed,
//! native built-in here; there is no other kind of contract. This crate
//! provides:
//!
//! - [`builtin`]: the four platform contracts — newsroom registry, crowd
//!   ranking, incentives, factual-DB admission — and the encoders of
//!   their call inputs.
//! - [`executor`]: the [`ContractRegistry`] that installs them at
//!   well-known addresses, routes `ContractCall` payloads to them under a
//!   flat gas charge, checkpoints their state, and implements
//!   `tn_chain::TxExecutor`.
//!
//! # Example
//!
//! ```
//! use tn_contracts::builtin::{incentive_balance, incentive_reward, IncentiveContract};
//! use tn_contracts::executor::ContractRegistry;
//! use tn_chain::state::TxExecutor;
//! use tn_crypto::Keypair;
//!
//! # fn main() -> Result<(), String> {
//! let mut reg = ContractRegistry::new();
//! let owner = Keypair::from_seed(b"owner").address();
//! let reader = Keypair::from_seed(b"reader").address();
//! let addr = reg.install_builtin(Box::new(IncentiveContract::new(owner)));
//! reg.call(&owner, &addr, &incentive_reward(&reader, 5), 1_000)?;
//! let (_gas, out) = reg.call(&reader, &addr, &incentive_balance(&reader), 1_000)?;
//! assert_eq!(out, 5u64.to_le_bytes().to_vec());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod builtin;
pub mod executor;

pub use builtin::{
    BuiltinContract, DefensePolicy, FactDbAdmission, IncentiveContract, NewsroomRegistry,
    RankingContract,
};
pub use executor::{builtin_address, ContractRegistry};
