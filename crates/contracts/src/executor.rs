//! The contract registry: holds the built-in contracts and executes calls
//! to them, plugging into `tn-chain` through the [`TxExecutor`] trait.

use std::collections::HashMap;

use tn_chain::state::TxExecutor;
use tn_crypto::sha256::tagged_hash;
use tn_crypto::Address;
use tn_telemetry::TelemetrySink;
use tn_trace::{lanes, TraceId, TraceSink};

use crate::builtin::BuiltinContract;

/// Derives the well-known address of a named built-in contract.
pub fn builtin_address(name: &str) -> Address {
    Address::from_hash(tagged_hash("TN/builtin", name.as_bytes()))
}

/// The registry of built-in contracts.
///
/// Implements [`TxExecutor`] so a `ChainStore` can execute `ContractCall`
/// payloads; also callable directly for read-only queries from the
/// platform layer.
#[derive(Debug, Default)]
pub struct ContractRegistry {
    builtins: HashMap<Address, Box<dyn BuiltinContract>>,
    telemetry: TelemetrySink,
    trace: TraceSink,
}

impl ContractRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes execution metrics — call counters, per-contract gas
    /// (`contracts.gas.<builtin name>`), and the `contracts.exec_ns`
    /// histogram — to `sink`. Disabled by default.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// Routes per-call `contract.call` spans to `sink`. Each span's trace
    /// is derived from the contract address, so all calls to one contract
    /// line up under one trace in the export.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Installs a built-in contract at its well-known address, returning
    /// that address.
    pub fn install_builtin(&mut self, contract: Box<dyn BuiltinContract>) -> Address {
        let addr = builtin_address(contract.name());
        self.builtins.insert(addr, contract);
        addr
    }

    /// Access a built-in by address (for typed in-process inspection).
    pub fn builtin(&self, addr: &Address) -> Option<&dyn BuiltinContract> {
        self.builtins.get(addr).map(AsRef::as_ref)
    }

    /// Serializes the save-states of every installed built-in, by name,
    /// for a chain checkpoint. Deterministic: identical registry state
    /// always produces identical bytes. The blob opens with a count of
    /// bytecode contracts, always 0, so it keeps the layout checkpoints
    /// were written in while the registry could also hold those.
    pub fn save_state(&self) -> Vec<u8> {
        use tn_chain::codec::Encoder;
        let mut e = Encoder::new();
        e.put_varint(0);
        let mut builtins: Vec<(&'static str, Vec<u8>)> = self
            .builtins
            .values()
            .map(|b| (b.name(), b.save_state()))
            .collect();
        builtins.sort_by_key(|(name, _)| *name);
        e.put_varint(builtins.len() as u64);
        for (name, state) in builtins {
            e.put_str(name).put_bytes(&state);
        }
        e.finish()
    }

    /// Restores a registry from [`ContractRegistry::save_state`] bytes.
    /// Built-ins must already be installed (the bootstrap installs them
    /// before recovery restores their state); a saved built-in with no
    /// installed counterpart is an error.
    ///
    /// # Errors
    ///
    /// A message when the blob is malformed, holds bytecode contracts, or
    /// names an uninstalled built-in.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        use tn_chain::codec::Decoder;
        let err = |e: tn_chain::codec::DecodeError| format!("malformed registry state: {e}");
        let mut dec = Decoder::new(bytes);
        let bytecode = dec.get_varint().map_err(err)?;
        if bytecode != 0 {
            return Err(format!(
                "checkpoint holds {bytecode} bytecode contracts; only built-ins run here"
            ));
        }
        let n = dec.get_varint().map_err(err)?;
        for _ in 0..n {
            let name = dec.get_str().map_err(err)?;
            let state = dec.get_bytes().map_err(err)?;
            let builtin = self
                .builtins
                .values_mut()
                .find(|b| b.name() == name)
                .ok_or_else(|| format!("checkpointed built-in {name} is not installed"))?;
            builtin.load_state(&state)?;
        }
        dec.expect_end().map_err(err)
    }

    /// Built-ins charge flat gas: 1 per input byte + 10 base.
    fn call_inner(
        &mut self,
        caller: &Address,
        contract: &Address,
        input: &[u8],
        gas_limit: u64,
    ) -> Result<(u64, Vec<u8>), String> {
        let builtin = self
            .builtins
            .get_mut(contract)
            .ok_or_else(|| format!("no contract at {}", contract.short()))?;
        let gas = 10 + input.len() as u64;
        if gas > gas_limit {
            return Err("out of gas (builtin)".into());
        }
        let out = builtin.call(caller, input)?;
        Ok((gas, out))
    }
}

impl TxExecutor for ContractRegistry {
    fn call(
        &mut self,
        caller: &Address,
        contract: &Address,
        input: &[u8],
        gas_limit: u64,
    ) -> Result<(u64, Vec<u8>), String> {
        let telemetry = self.telemetry.clone();
        let _span = telemetry.span("contracts.exec_ns");
        let trace = self.trace.clone();
        let c0 = trace.now_ns();
        let result = self.call_inner(caller, contract, input, gas_limit);
        if trace.is_enabled() {
            let gas = result.as_ref().map(|(gas, _)| *gas).unwrap_or(0);
            trace.complete(
                TraceId::from_seed(contract.as_hash().as_bytes()),
                "contract.call",
                0,
                lanes::CONTRACTS,
                c0,
                &[("gas", gas), ("ok", result.is_ok() as u64)],
            );
        }
        match &result {
            Ok((gas, _)) => {
                telemetry.incr("contracts.calls");
                telemetry.add("contracts.gas_total", *gas);
                if telemetry.is_enabled() {
                    if let Some(b) = self.builtins.get(contract) {
                        telemetry.add(&format!("contracts.gas.{}", b.name()), *gas);
                    }
                }
            }
            Err(_) => telemetry.incr("contracts.call_failures"),
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::{
        incentive_balance, incentive_reward, ranking_post_bond, ranking_submit, IncentiveContract,
        RankingContract,
    };
    use tn_chain::prelude::*;
    use tn_crypto::sha256::sha256;
    use tn_crypto::Keypair;

    #[test]
    fn call_unknown_contract_errors() {
        let mut reg = ContractRegistry::new();
        let a = Keypair::from_seed(b"a").address();
        assert!(reg.call(&a, &builtin_address("nope"), &[], 100).is_err());
    }

    #[test]
    fn contract_addresses_are_deterministic_and_distinct() {
        let names = [
            "newsroom-registry",
            "ranking",
            "incentive",
            "factdb-admission",
        ];
        for (i, a) in names.iter().enumerate() {
            assert_eq!(builtin_address(a), builtin_address(a));
            for b in &names[i + 1..] {
                assert_ne!(builtin_address(a), builtin_address(b));
            }
        }
    }

    #[test]
    fn failed_call_rolls_back_storage() {
        // A bond with no stake behind it is refused and leaves nothing —
        // not even a zero stake entry — in the checkpointed state.
        let owner = Keypair::from_seed(b"owner").address();
        let rater = Keypair::from_seed(b"rater").address();
        let mut reg = ContractRegistry::new();
        let rank = reg.install_builtin(Box::new(RankingContract::new(owner)));
        let before = reg.save_state();
        assert!(reg
            .call(&rater, &rank, &ranking_post_bond(5), 1000)
            .is_err());
        assert_eq!(reg.save_state(), before);
    }

    #[test]
    fn builtin_dispatch_and_gas() {
        let owner = Keypair::from_seed(b"owner").address();
        let mut reg = ContractRegistry::new();
        let addr = reg.install_builtin(Box::new(IncentiveContract::new(owner)));

        let who = Keypair::from_seed(b"v").address();
        let (gas, _) = reg
            .call(&owner, &addr, &incentive_reward(&who, 5), 1000)
            .unwrap();
        assert!(gas >= 10);
        let (_, out) = reg
            .call(&owner, &addr, &incentive_balance(&who), 1000)
            .unwrap();
        assert_eq!(u64::from_le_bytes(out.try_into().unwrap()), 5);
        // Gas limit enforced.
        assert!(reg
            .call(&owner, &addr, &incentive_balance(&who), 5)
            .is_err());
    }

    #[test]
    fn end_to_end_through_chain() {
        // A built-in call through real transactions and blocks. The
        // proposer executes against a throwaway registry (mirroring its
        // throwaway state clone); the importing validator executes against
        // the authoritative registry.
        let owner = Keypair::from_seed(b"owner");
        let validator = Keypair::from_seed(b"validator");
        let genesis = State::genesis([(owner.address(), 1_000_000)]);
        let mut store = ChainStore::new(genesis, &validator);
        let reader = Keypair::from_seed(b"reader").address();
        let registry = || {
            let mut reg = ContractRegistry::new();
            let addr = reg.install_builtin(Box::new(IncentiveContract::new(owner.address())));
            (reg, addr)
        };
        let (mut authoritative, addr) = registry();

        let reward = Transaction::signed(
            &owner,
            0,
            10,
            Payload::ContractCall {
                contract: addr,
                input: incentive_reward(&reader, 7),
                gas_limit: 1000,
            },
        );
        let block = store.propose(&validator, 1, vec![reward], &mut registry().0);
        let receipts = store.import(&block, &mut authoritative).unwrap();
        assert!(receipts[0].success);
        assert!(receipts[0].gas_used >= 10);
        let (_, out) = authoritative
            .call(&reader, &addr, &incentive_balance(&reader), 1000)
            .unwrap();
        assert_eq!(u64::from_le_bytes(out.try_into().unwrap()), 7);
    }

    #[test]
    fn registry_save_load_round_trip() {
        let owner = Keypair::from_seed(b"owner").address();
        let rater = Keypair::from_seed(b"rater").address();
        let mut reg = ContractRegistry::new();
        let inc = reg.install_builtin(Box::new(IncentiveContract::new(owner)));
        let rank = reg.install_builtin(Box::new(RankingContract::new(owner)));
        reg.call(&owner, &inc, &incentive_reward(&rater, 42), 1000)
            .unwrap();
        reg.call(&rater, &rank, &ranking_submit(&sha256(b"story"), 80), 1000)
            .unwrap();

        let saved = reg.save_state();
        let installed = || {
            let mut fresh = ContractRegistry::new();
            fresh.install_builtin(Box::new(IncentiveContract::new(owner)));
            fresh.install_builtin(Box::new(RankingContract::new(owner)));
            fresh
        };
        // Restoring into a fresh registry with the builtins installed
        // reproduces the exact state (byte-identical re-save).
        let mut restored = installed();
        restored.load_state(&saved).unwrap();
        assert_eq!(restored.save_state(), saved);
        let (_, out) = restored
            .call(&rater, &inc, &incentive_balance(&rater), 1000)
            .unwrap();
        assert_eq!(u64::from_le_bytes(out.try_into().unwrap()), 42);

        // Missing built-in is an error, as is trailing garbage.
        assert!(ContractRegistry::new().load_state(&saved).is_err());
        let mut garbled = saved.clone();
        garbled.push(0);
        assert!(installed().load_state(&garbled).is_err());

        // A blob that counts bytecode contracts is refused, not skipped.
        assert_eq!(saved[0], 0);
        let mut bytecode = saved;
        bytecode[0] = 1;
        let mut refused = installed();
        let err = refused.load_state(&bytecode).unwrap_err();
        assert!(err.contains("bytecode"), "{err}");
    }
}
