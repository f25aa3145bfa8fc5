//! The contract registry: deploys and executes contracts, plugging into
//! `tn-chain` through the [`TxExecutor`] trait.

use std::collections::{BTreeMap, HashMap};

use tn_chain::state::TxExecutor;
use tn_crypto::sha256::tagged_hash;
use tn_crypto::{Address, Hash256};
use tn_telemetry::TelemetrySink;
use tn_trace::{lanes, TraceId, TraceSink};

use crate::builtin::BuiltinContract;
use crate::vm::{execute, validate, ExecEnv, Word};

/// A deployed bytecode contract: its code and persistent storage.
#[derive(Debug, Clone, Default)]
pub struct ContractEntry {
    /// Validated VM bytecode.
    pub code: Vec<u8>,
    /// Word-addressed persistent storage.
    pub storage: BTreeMap<Word, Word>,
}

/// Derives the deterministic address of a contract deployed by
/// `deployer` at `nonce`.
pub fn contract_address(deployer: &Address, nonce: u64) -> Address {
    let mut data = Vec::with_capacity(40);
    data.extend_from_slice(deployer.as_hash().as_bytes());
    data.extend_from_slice(&nonce.to_le_bytes());
    Address::from_hash(tagged_hash("TN/contract", &data))
}

/// Derives the well-known address of a named built-in contract.
pub fn builtin_address(name: &str) -> Address {
    Address::from_hash(tagged_hash("TN/builtin", name.as_bytes()))
}

/// Converts call-input bytes into VM words (8-byte little-endian chunks,
/// final chunk zero-padded).
pub fn input_words(input: &[u8]) -> Vec<Word> {
    input
        .chunks(8)
        .map(|c| {
            let mut b = [0u8; 8];
            b[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(b)
        })
        .collect()
}

/// Converts VM output words back to bytes.
pub fn output_bytes(words: &[Word]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 8);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// The registry of bytecode and built-in contracts.
///
/// Implements [`TxExecutor`] so a `ChainStore` can execute
/// `ContractDeploy`/`ContractCall` payloads; also callable directly for
/// read-only queries from the platform layer.
#[derive(Debug, Default)]
pub struct ContractRegistry {
    contracts: HashMap<Address, ContractEntry>,
    builtins: HashMap<Address, Box<dyn BuiltinContract>>,
    telemetry: TelemetrySink,
    trace: TraceSink,
}

impl ContractRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes execution metrics — call/deploy counters, per-contract gas
    /// (`contracts.gas.<builtin name or address>`), and the
    /// `contracts.exec_ns` histogram — to `sink`. Disabled by default.
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

    /// Looks up a deployed bytecode contract.
    pub fn contract(&self, addr: &Address) -> Option<&ContractEntry> {
        self.contracts.get(addr)
    }

    /// Number of deployed bytecode contracts.
    pub fn len(&self) -> usize {
        self.contracts.len()
    }

    /// True when no bytecode contracts are deployed.
    pub fn is_empty(&self) -> bool {
        self.contracts.is_empty()
    }

    /// Hash of the full contract-storage state, for cross-node agreement
    /// checks in tests.
    pub fn storage_root(&self) -> Hash256 {
        let mut entries: Vec<(&Address, &ContractEntry)> = self.contracts.iter().collect();
        entries.sort_by_key(|(a, _)| **a);
        let mut data = Vec::new();
        for (addr, entry) in entries {
            data.extend_from_slice(addr.as_hash().as_bytes());
            for (k, v) in &entry.storage {
                data.extend_from_slice(&k.to_le_bytes());
                data.extend_from_slice(&v.to_le_bytes());
            }
        }
        tagged_hash("TN/contracts-root", &data)
    }

    /// Serializes the full registry — deployed bytecode contracts with
    /// their storage, plus the save-states of every installed built-in —
    /// for a chain checkpoint. Deterministic: identical registry state
    /// always produces identical bytes.
    pub fn save_state(&self) -> Vec<u8> {
        use tn_chain::codec::Encoder;
        let mut e = Encoder::new();
        let mut entries: Vec<(&Address, &ContractEntry)> = self.contracts.iter().collect();
        entries.sort_by_key(|(a, _)| **a);
        e.put_varint(entries.len() as u64);
        for (addr, entry) in entries {
            e.put_hash(addr.as_hash())
                .put_bytes(&entry.code)
                .put_varint(entry.storage.len() as u64);
            for (k, v) in &entry.storage {
                e.put_u64(*k).put_u64(*v);
            }
        }
        let mut builtins: Vec<(&'static str, Vec<u8>)> = self
            .builtins
            .values()
            .filter_map(|b| b.save_state().map(|s| (b.name(), s)))
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
    /// A message when the blob is malformed or names an uninstalled
    /// built-in.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        use tn_chain::codec::Decoder;
        let err = |e: tn_chain::codec::DecodeError| format!("malformed registry state: {e}");
        let mut dec = Decoder::new(bytes);
        let mut contracts = HashMap::new();
        let n = dec.get_varint().map_err(err)?;
        for _ in 0..n {
            let addr = Address::from_hash(dec.get_hash().map_err(err)?);
            let code = dec.get_bytes().map_err(err)?;
            let m = dec.get_varint().map_err(err)?;
            let mut storage = BTreeMap::new();
            for _ in 0..m {
                let k = dec.get_u64().map_err(err)?;
                let v = dec.get_u64().map_err(err)?;
                storage.insert(k, v);
            }
            contracts.insert(addr, ContractEntry { code, storage });
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
        dec.expect_end().map_err(err)?;
        self.contracts = contracts;
        Ok(())
    }
}

impl ContractRegistry {
    fn call_inner(
        &mut self,
        caller: &Address,
        contract: &Address,
        input: &[u8],
        gas_limit: u64,
    ) -> Result<(u64, Vec<u8>), String> {
        if let Some(b) = self.builtins.get_mut(contract) {
            // Built-ins charge flat gas: 1 per input byte + 10 base.
            let gas = 10 + input.len() as u64;
            if gas > gas_limit {
                return Err("out of gas (builtin)".into());
            }
            let out = b.call(caller, input)?;
            return Ok((gas, out));
        }
        let entry = self
            .contracts
            .get(contract)
            .ok_or_else(|| format!("no contract at {}", contract.short()))?;
        let env = ExecEnv {
            caller: caller.as_hash().to_u64_prefix(),
            input: input_words(input),
            gas_limit,
        };
        // Execute on a storage clone so failed calls leave state untouched.
        let mut storage = entry.storage.clone();
        let outcome = execute(&entry.code, &mut storage, &env).map_err(|e| e.to_string())?;
        self.contracts.get_mut(contract).expect("checked").storage = storage;
        Ok((outcome.gas_used, output_bytes(&outcome.output)))
    }
}

impl TxExecutor for ContractRegistry {
    fn deploy(&mut self, deployer: &Address, nonce: u64, code: &[u8]) -> Result<Address, String> {
        validate(code).map_err(|e| {
            self.telemetry.incr("contracts.deploy_failures");
            format!("invalid bytecode: {e}")
        })?;
        let addr = contract_address(deployer, nonce);
        if self.contracts.contains_key(&addr) || self.builtins.contains_key(&addr) {
            self.telemetry.incr("contracts.deploy_failures");
            return Err(format!("address collision at {}", addr.short()));
        }
        self.contracts.insert(
            addr,
            ContractEntry {
                code: code.to_vec(),
                storage: BTreeMap::new(),
            },
        );
        self.telemetry.incr("contracts.deploys");
        Ok(addr)
    }

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
                    // Per-contract gas attribution: builtins by name,
                    // bytecode contracts by short address.
                    let label = self
                        .builtins
                        .get(contract)
                        .map(|b| b.name().to_string())
                        .unwrap_or_else(|| contract.short());
                    telemetry.add(&format!("contracts.gas.{label}"), *gas);
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
    use crate::asm::assemble;
    use tn_chain::prelude::*;
    use tn_crypto::Keypair;

    fn counter_code() -> Vec<u8> {
        // storage[0] += 1; return storage[0]
        assemble("push 0\npush 0\nsload\npush 1\nadd\nsstore\npush 0\nsload\npush 1\nret").unwrap()
    }

    #[test]
    fn deploy_and_call_via_registry() {
        let mut reg = ContractRegistry::new();
        let alice = Keypair::from_seed(b"alice").address();
        let addr = reg.deploy(&alice, 0, &counter_code()).unwrap();
        let (gas, out) = reg.call(&alice, &addr, &[], 1000).unwrap();
        assert!(gas > 0);
        assert_eq!(u64::from_le_bytes(out.try_into().unwrap()), 1);
        let (_, out) = reg.call(&alice, &addr, &[], 1000).unwrap();
        assert_eq!(u64::from_le_bytes(out.try_into().unwrap()), 2);
    }

    #[test]
    fn deploy_rejects_invalid_bytecode() {
        let mut reg = ContractRegistry::new();
        let a = Keypair::from_seed(b"a").address();
        assert!(reg.deploy(&a, 0, &[0xff]).is_err());
    }

    #[test]
    fn failed_call_rolls_back_storage() {
        let mut reg = ContractRegistry::new();
        let a = Keypair::from_seed(b"a").address();
        // Stores then loops forever: runs out of gas after the store.
        let code = assemble("push 5\npush 9\nsstore\nloop:\npush loop\njmp").unwrap();
        let addr = reg.deploy(&a, 0, &code).unwrap();
        assert!(reg.call(&a, &addr, &[], 500).is_err());
        assert!(
            reg.contract(&addr).unwrap().storage.is_empty(),
            "rollback expected"
        );
    }

    #[test]
    fn call_unknown_contract_errors() {
        let mut reg = ContractRegistry::new();
        let a = Keypair::from_seed(b"a").address();
        assert!(reg.call(&a, &builtin_address("nope"), &[], 100).is_err());
    }

    #[test]
    fn contract_addresses_are_deterministic_and_distinct() {
        let a = Keypair::from_seed(b"a").address();
        assert_eq!(contract_address(&a, 0), contract_address(&a, 0));
        assert_ne!(contract_address(&a, 0), contract_address(&a, 1));
        let b = Keypair::from_seed(b"b").address();
        assert_ne!(contract_address(&a, 0), contract_address(&b, 0));
    }

    #[test]
    fn end_to_end_through_chain() {
        // Deploy + call through real transactions and blocks. The proposer
        // executes against a throwaway registry (mirroring its throwaway
        // state clone); the importing validator executes against the
        // authoritative registry.
        let alice = Keypair::from_seed(b"alice");
        let validator = Keypair::from_seed(b"validator");
        let genesis = State::genesis([(alice.address(), 1_000_000)]);
        let mut store = ChainStore::new(genesis, &validator);
        let mut authoritative = ContractRegistry::new();

        let deploy_tx = Transaction::signed(
            &alice,
            0,
            10,
            Payload::ContractDeploy {
                code: counter_code(),
            },
        );
        let expected_addr = contract_address(&alice.address(), 0);
        let block = store.propose(&validator, 1, vec![deploy_tx], &mut ContractRegistry::new());
        let receipts = store.import(&block, &mut authoritative).unwrap();
        assert!(receipts[0].success);
        assert_eq!(
            receipts[0].output,
            expected_addr.as_hash().as_bytes().to_vec()
        );
        assert!(authoritative.contract(&expected_addr).is_some());

        let call_tx = Transaction::signed(
            &alice,
            1,
            10,
            Payload::ContractCall {
                contract: expected_addr,
                input: vec![],
                gas_limit: 1000,
            },
        );
        let mut scratch = ContractRegistry::new();
        scratch
            .deploy(&alice.address(), 0, &counter_code())
            .unwrap();
        let block = store.propose(&validator, 2, vec![call_tx], &mut scratch);
        let receipts = store.import(&block, &mut authoritative).unwrap();
        assert!(receipts[0].success);
        assert!(receipts[0].gas_used > 0);
        assert_eq!(
            u64::from_le_bytes(receipts[0].output.clone().try_into().unwrap()),
            1
        );
        // The authoritative registry's counter really advanced.
        assert_eq!(
            authoritative
                .contract(&expected_addr)
                .unwrap()
                .storage
                .get(&0),
            Some(&1)
        );
    }

    #[test]
    fn builtin_dispatch_and_gas() {
        use crate::builtin::{incentive_balance, incentive_reward, IncentiveContract};
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
        // Gas limit enforced for builtins too.
        assert!(reg
            .call(&owner, &addr, &incentive_balance(&who), 5)
            .is_err());
    }

    #[test]
    fn storage_root_tracks_state() {
        let mut reg = ContractRegistry::new();
        let a = Keypair::from_seed(b"a").address();
        let r0 = reg.storage_root();
        let addr = reg.deploy(&a, 0, &counter_code()).unwrap();
        let r1 = reg.storage_root();
        assert_ne!(r0, r1);
        reg.call(&a, &addr, &[], 1000).unwrap();
        assert_ne!(reg.storage_root(), r1);
    }

    #[test]
    fn registry_save_load_round_trip() {
        use crate::builtin::{
            incentive_reward, ranking_submit, IncentiveContract, RankingContract,
        };
        use tn_crypto::sha256::sha256;

        let owner = Keypair::from_seed(b"owner").address();
        let rater = Keypair::from_seed(b"rater").address();
        let mut reg = ContractRegistry::new();
        let inc = reg.install_builtin(Box::new(IncentiveContract::new(owner)));
        let rank = reg.install_builtin(Box::new(RankingContract::new(owner)));
        let counter = reg.deploy(&owner, 0, &counter_code()).unwrap();
        reg.call(&owner, &counter, &[], 1000).unwrap();
        reg.call(&owner, &inc, &incentive_reward(&rater, 42), 1000)
            .unwrap();
        reg.call(&rater, &rank, &ranking_submit(&sha256(b"story"), 80), 1000)
            .unwrap();

        let saved = reg.save_state();
        // Restoring into a fresh registry with the builtins installed
        // reproduces the exact state (byte-identical re-save, same root).
        let mut restored = ContractRegistry::new();
        restored.install_builtin(Box::new(IncentiveContract::new(owner)));
        restored.install_builtin(Box::new(RankingContract::new(owner)));
        restored.load_state(&saved).unwrap();
        assert_eq!(restored.save_state(), saved);
        assert_eq!(restored.storage_root(), reg.storage_root());
        // Restored bytecode contract continues from its counter value.
        let (_, out) = restored.call(&owner, &counter, &[], 1000).unwrap();
        assert_eq!(u64::from_le_bytes(out.try_into().unwrap()), 2);

        // Missing built-in is an error, as is trailing garbage.
        let mut empty = ContractRegistry::new();
        assert!(empty.load_state(&saved).is_err());
        let mut garbled = saved.clone();
        garbled.push(0);
        let mut fresh = ContractRegistry::new();
        fresh.install_builtin(Box::new(IncentiveContract::new(owner)));
        fresh.install_builtin(Box::new(RankingContract::new(owner)));
        assert!(fresh.load_state(&garbled).is_err());
    }

    #[test]
    fn input_word_round_trip() {
        assert_eq!(input_words(&[]), Vec::<Word>::new());
        assert_eq!(input_words(&[1, 0, 0, 0, 0, 0, 0, 0]), vec![1]);
        // Partial chunk zero-pads.
        assert_eq!(input_words(&[0xff]), vec![0xff]);
        let bytes = output_bytes(&[1, 2]);
        assert_eq!(input_words(&bytes), vec![1, 2]);
    }
}
