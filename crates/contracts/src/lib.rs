//! # tn-contracts
//!
//! Smart-contract execution for the trusting-news chain.
//!
//! The paper puts smart contracts at the center of platform governance:
//! distribution-platform authentication, crowd-source review, incentive
//! payouts and factual-database admission are all "managed and enforced by
//! various smart contracts" (§V), and §VII calls out scalable contract
//! execution as a key challenge. This crate provides:
//!
//! - [`vm`]: a deterministic, gas-metered stack VM with contract-local
//!   storage.
//! - [`asm`]: a two-pass assembler so contract programs stay legible in
//!   tests and examples.
//! - [`executor`]: the [`ContractRegistry`] that deploys bytecode, routes
//!   calls (bytecode or built-in), and implements `tn_chain::TxExecutor`.
//! - [`builtin`]: the four native platform contracts — newsroom registry,
//!   crowd ranking, incentives, factual-DB admission.
//!
//! # Example
//!
//! ```
//! use tn_contracts::asm::assemble;
//! use tn_contracts::executor::ContractRegistry;
//! use tn_chain::state::TxExecutor;
//! use tn_crypto::Keypair;
//!
//! # fn main() -> Result<(), String> {
//! let mut reg = ContractRegistry::new();
//! let alice = Keypair::from_seed(b"alice").address();
//! let code = assemble("push 2\npush 2\nadd\npush 1\nret").map_err(|e| e.to_string())?;
//! let addr = reg.deploy(&alice, 0, &code)?;
//! let (_gas, out) = reg.call(&alice, &addr, &[], 1_000)?;
//! assert_eq!(out, 4u64.to_le_bytes().to_vec());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod builtin;
pub mod executor;
pub mod vm;

pub use builtin::{
    BuiltinContract, DefensePolicy, FactDbAdmission, IncentiveContract, NewsroomRegistry,
    RankingContract,
};
pub use executor::{builtin_address, contract_address, ContractEntry, ContractRegistry};
pub use vm::{ExecEnv, ExecOutcome, Op, VmError, Word};
