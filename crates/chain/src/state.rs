//! The replicated world state and its transition function.
//!
//! A [`State`] is two tables behind one commitment. Accounts live in a
//! persistent Merkle radix trie (`crate::trie`): cloning a state is two
//! reference counts, a write copies and re-hashes only the path it
//! touches, and states derived from one another — the chain store keeps
//! one per windowed block — share everything they did not write. The
//! anchor table holds a handful of entries and is hashed flat, behind an
//! `Arc` of its own.
//!
//! `root() = tagged_hash("TN/state/2", accounts_root ‖ anchors_hash)`.
//! Both halves are functions of the tables' *contents*: the trie's shape
//! depends on the key set alone, so replicas that reached the same state
//! by different routes (block by block, from a checkpoint blob, from a
//! snapshot) hold the same root. Iteration is in ascending address order,
//! which is also the order of the canonical encoding.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use tn_crypto::sha256::tagged_hash;
use tn_crypto::{Address, Hash256};

use crate::block::Block;
use crate::codec::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use crate::error::ChainError;
use crate::store::ChainStore;
use crate::transaction::{Payload, Transaction};
use crate::trie::{AccountProof, AccountTrie};

/// Per-account record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccountState {
    /// Token balance (the incentive currency of the ecosystem).
    pub balance: u64,
    /// Next expected nonce.
    pub nonce: u64,
}

/// Outcome of executing one transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// Transaction id.
    pub tx_id: Hash256,
    /// Whether execution succeeded (failed txs still pay fees and bump the
    /// nonce, like mainstream chains).
    pub success: bool,
    /// Gas consumed by contract execution (0 for native payloads).
    pub gas_used: u64,
    /// Output bytes from contract execution, if any.
    pub output: Vec<u8>,
    /// Error message for failed executions.
    pub error: Option<String>,
}

/// What the chain hands to the layer above it, without depending on it.
/// The chain executes native payloads itself, delegates `ContractCall`
/// to [`call`](TxExecutor::call), and reports what became canonical
/// through [`block_connected`](TxExecutor::block_connected) and
/// [`history_replaced`](TxExecutor::history_replaced), so whatever the
/// executor derives from block history sees every canonical block once,
/// in order, and nothing else.
pub trait TxExecutor {
    /// Executes a call, returning `(gas_used, output)`. A call that
    /// fails must leave the executor's state as it found it.
    ///
    /// # Errors
    ///
    /// Implementations return a message describing why the call failed.
    fn call(
        &mut self,
        caller: &Address,
        contract: &Address,
        input: &[u8],
        gas_limit: u64,
    ) -> Result<(u64, Vec<u8>), String>;

    /// `block` (its id is `id`; `receipts[i]` belongs to
    /// `block.transactions[i]`) was accepted as the child of the canonical
    /// head and is the head now. The block is durable by the time this is
    /// called. A block that lands on a side branch is not announced.
    fn block_connected(&mut self, _block: &Block, _id: &Hash256, _receipts: &[Receipt]) {}

    /// A reorg replaced canonical history: the new head is not a child of
    /// the old one. Whatever was derived from the blocks announced so far
    /// has to be derived again from `store`'s canonical chain, genesis
    /// first ([`ChainStore::for_each_canonical`]).
    ///
    /// # Errors
    ///
    /// When canonical history cannot be read back from `store`.
    fn history_replaced(&mut self, _store: &ChainStore) -> Result<(), ChainError> {
        Ok(())
    }
}

/// Executor used when no contract registry is attached: all contract
/// calls fail cleanly.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoExecutor;

impl TxExecutor for NoExecutor {
    fn call(
        &mut self,
        _: &Address,
        _: &Address,
        _: &[u8],
        _: u64,
    ) -> Result<(u64, Vec<u8>), String> {
        Err("no contract executor attached".into())
    }
}

/// The state commitment over its two halves.
pub(crate) fn commitment(accounts_root: &Hash256, anchors_hash: &Hash256) -> Hash256 {
    let mut data = [0u8; 64];
    data[..32].copy_from_slice(accounts_root.as_bytes());
    data[32..].copy_from_slice(anchors_hash.as_bytes());
    tagged_hash("TN/state/2", &data)
}

/// Namespaced Merkle anchors (e.g. `"factdb"` → current factual-DB root)
/// with the owner allowed to update each, and the hash of the table once
/// someone asked for it.
#[derive(Debug, Clone, Default)]
struct Anchors {
    table: BTreeMap<String, (Address, Hash256)>,
    hash: OnceLock<Hash256>,
}

impl Anchors {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.table.len() as u64);
        for (ns, (owner, root)) in &self.table {
            enc.put_str(ns).put_hash(owner.as_hash()).put_hash(root);
        }
    }

    fn hash(&self) -> Hash256 {
        *self.hash.get_or_init(|| {
            let mut enc = Encoder::new();
            self.encode(&mut enc);
            tagged_hash("TN/state/anchors", &enc.finish())
        })
    }
}

/// The world state: account balances/nonces plus named anchor roots.
///
/// See the [module docs](self) for the layout and what a clone costs.
#[derive(Debug, Clone, Default)]
pub struct State {
    accounts: AccountTrie,
    anchors: Arc<Anchors>,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.accounts == other.accounts && self.anchors.table == other.anchors.table
    }
}

impl Eq for State {}

impl State {
    /// Empty state.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Builds a genesis state from initial balances.
    pub fn genesis<I: IntoIterator<Item = (Address, u64)>>(grants: I) -> Self {
        let mut s = State::new();
        for (addr, amount) in grants {
            s.accounts.update(&addr, |acct| {
                *acct = AccountState {
                    balance: amount,
                    nonce: 0,
                }
            });
        }
        s
    }

    /// Account record (zero-value default for unknown accounts).
    pub fn account(&self, addr: &Address) -> AccountState {
        self.accounts.get(addr).copied().unwrap_or_default()
    }

    /// Balance helper.
    pub fn balance(&self, addr: &Address) -> u64 {
        self.account(addr).balance
    }

    /// Next-nonce helper.
    pub fn nonce(&self, addr: &Address) -> u64 {
        self.account(addr).nonce
    }

    /// Number of accounts with state.
    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }

    /// Current anchor root for a namespace.
    pub fn anchor(&self, namespace: &str) -> Option<Hash256> {
        self.anchors.table.get(namespace).map(|(_, r)| *r)
    }

    /// Credits tokens (used by genesis and block rewards). The account
    /// gets a record even when `amount` is zero.
    pub fn credit(&mut self, addr: &Address, amount: u64) {
        self.accounts.update(addr, |acct| {
            acct.balance = acct.balance.saturating_add(amount)
        });
    }

    /// Canonical state commitment (format `TN/state/2`): a tagged hash
    /// over the account trie's root and the anchor table's hash. Hashes
    /// only what was written since the last call on this state or on one
    /// it was cloned from; at rest it is two cached reads and one hash.
    pub fn root(&self) -> Hash256 {
        commitment(&self.accounts.root_hash(), &self.anchors.hash())
    }

    /// Iterates accounts in canonical (address) order.
    pub fn accounts(&self) -> impl Iterator<Item = (&Address, &AccountState)> {
        self.accounts.iter()
    }

    /// A proof of `addr`'s record — or of its absence — that a reader
    /// holding only a block header checks with [`AccountProof::verify`]
    /// against the header's `state_root`.
    pub fn prove(&self, addr: &Address) -> AccountProof {
        self.accounts.prove(addr, self.anchors.hash())
    }

    /// Approximate heap bytes of the parts of this state that `base` does
    /// not share: what keeping both costs beyond keeping `base` alone
    /// (a window entry's price, with `base` the parent block's state).
    pub fn unshared_bytes(&self, base: &State) -> usize {
        let anchors = if Arc::ptr_eq(&self.anchors, &base.anchors) {
            0
        } else {
            self.anchors.table.len() * std::mem::size_of::<(String, (Address, Hash256))>()
        };
        self.accounts.unshared(&base.accounts).1 + anchors
    }

    /// Validates a transaction against current state without applying it,
    /// for transactions whose signatures were already verified
    /// (block-level batch verification, or a verified-transaction cache
    /// hit). Checks nonce and balance only.
    ///
    /// # Errors
    ///
    /// [`ChainError::BadNonce`] or [`ChainError::InsufficientBalance`].
    pub(crate) fn validate_prechecked(&self, tx: &Transaction) -> Result<(), ChainError> {
        let acct = self.account(&tx.from);
        if tx.nonce != acct.nonce {
            return Err(ChainError::BadNonce {
                account: tx.from,
                expected: acct.nonce,
                actual: tx.nonce,
            });
        }
        let needed = tx.total_debit();
        if acct.balance < needed {
            return Err(ChainError::InsufficientBalance {
                account: tx.from,
                needed,
                available: acct.balance,
            });
        }
        Ok(())
    }

    /// Applies a validated transaction, returning its receipt. `proposer`
    /// receives the fee.
    ///
    /// Contract calls are delegated to `executor`; a failed call still
    /// consumes the fee and bumps the nonce but produces a
    /// `success: false` receipt (and, per [`TxExecutor::call`], changes
    /// no contract state).
    ///
    /// # Errors
    ///
    /// Returns validation errors; execution failures are reported in the
    /// receipt, not as `Err`.
    pub fn apply(
        &mut self,
        tx: &Transaction,
        proposer: &Address,
        executor: &mut dyn TxExecutor,
    ) -> Result<Receipt, ChainError> {
        tx.verify()?;
        self.apply_prechecked(tx, proposer, executor)
    }

    /// [`State::apply`] minus the per-transaction signature verification,
    /// for transactions whose signatures were already checked at the block
    /// level (or found in a verified-transaction cache). This is what lets
    /// the import path verify each signature exactly once instead of
    /// twice.
    ///
    /// # Errors
    ///
    /// Same as [`State::apply`] except signature errors, which the caller
    /// has already ruled out.
    pub fn apply_prechecked(
        &mut self,
        tx: &Transaction,
        proposer: &Address,
        executor: &mut dyn TxExecutor,
    ) -> Result<Receipt, ChainError> {
        self.apply_identified(tx, tx.id(), proposer, executor)
    }

    /// [`State::apply_prechecked`] for a caller that already holds `tx`'s
    /// id (`tx_id` must be `tx.id()`), so the receipt does not hash the
    /// transaction again.
    pub(crate) fn apply_identified(
        &mut self,
        tx: &Transaction,
        tx_id: Hash256,
        proposer: &Address,
        executor: &mut dyn TxExecutor,
    ) -> Result<Receipt, ChainError> {
        self.validate_prechecked(tx)?;
        // Debit fee + value, bump nonce.
        let debit = tx.total_debit();
        self.accounts.update(&tx.from, |acct| {
            acct.balance -= debit;
            acct.nonce += 1;
        });
        self.credit(proposer, tx.fee);

        let mut receipt = Receipt {
            tx_id,
            success: true,
            gas_used: 0,
            output: Vec::new(),
            error: None,
        };
        match &tx.payload {
            Payload::Transfer { to, amount } => {
                self.credit(to, *amount);
            }
            Payload::Blob { .. } => {
                // Blobs have no native state effect; upper layers index them.
            }
            Payload::ContractCall {
                contract,
                input,
                gas_limit,
            } => match executor.call(&tx.from, contract, input, *gas_limit) {
                Ok((gas, out)) => {
                    receipt.gas_used = gas;
                    receipt.output = out;
                }
                Err(e) => {
                    receipt.success = false;
                    receipt.gas_used = *gas_limit;
                    receipt.error = Some(e);
                }
            },
            Payload::AnchorRoot { namespace, root } => match self.anchors.table.get(namespace) {
                Some((owner, _)) if owner != &tx.from => {
                    receipt.success = false;
                    receipt.error = Some(format!(
                        "anchor namespace {namespace:?} owned by {}",
                        owner.short()
                    ));
                }
                _ => {
                    let anchors = Arc::make_mut(&mut self.anchors);
                    anchors.hash.take();
                    anchors.table.insert(namespace.clone(), (tx.from, *root));
                }
            },
        }
        Ok(receipt)
    }
}

impl Encodable for State {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.accounts.len() as u64);
        for (addr, acct) in self.accounts.iter() {
            enc.put_hash(addr.as_hash())
                .put_u64(acct.balance)
                .put_u64(acct.nonce);
        }
        self.anchors.encode(enc);
    }
}

/// Bytes of one encoded account entry: address, balance, nonce.
const ACCOUNT_ENTRY_BYTES: usize = 32 + 8 + 8;

impl Decodable for State {
    /// Accepts the canonical encoding only: account addresses and anchor
    /// namespaces strictly ascending, so no entry can shadow another and
    /// the account trie is built bottom-up in one pass.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = dec.get_varint()?;
        if n > 10_000_000 {
            return Err(DecodeError::BadLength(n));
        }
        let mut entries: Vec<(Address, AccountState)> =
            Vec::with_capacity((n as usize).min(dec.remaining() / ACCOUNT_ENTRY_BYTES));
        for _ in 0..n {
            let addr = Address::from_hash(dec.get_hash()?);
            let balance = dec.get_u64()?;
            let nonce = dec.get_u64()?;
            if entries.last().is_some_and(|(prev, _)| *prev >= addr) {
                return Err(DecodeError::UnsortedKeys);
            }
            entries.push((addr, AccountState { balance, nonce }));
        }
        let m = dec.get_varint()?;
        if m > 1_000_000 {
            return Err(DecodeError::BadLength(m));
        }
        let mut table = BTreeMap::new();
        for _ in 0..m {
            let ns = dec.get_str()?;
            let owner = Address::from_hash(dec.get_hash()?);
            let root = dec.get_hash()?;
            if table.last_key_value().is_some_and(|(prev, _)| *prev >= ns) {
                return Err(DecodeError::UnsortedKeys);
            }
            table.insert(ns, (owner, root));
        }
        Ok(State {
            accounts: AccountTrie::from_sorted(&entries),
            anchors: Arc::new(Anchors {
                table,
                hash: OnceLock::new(),
            }),
        })
    }
}

impl Encodable for Receipt {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_hash(&self.tx_id)
            .put_bool(self.success)
            .put_u64(self.gas_used)
            .put_bytes(&self.output)
            .put_bool(self.error.is_some());
        if let Some(err) = &self.error {
            enc.put_str(err);
        }
    }
}

impl Decodable for Receipt {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let tx_id = dec.get_hash()?;
        let success = dec.get_bool()?;
        let gas_used = dec.get_u64()?;
        let output = dec.get_bytes()?;
        let error = if dec.get_bool()? {
            Some(dec.get_str()?)
        } else {
            None
        };
        Ok(Receipt {
            tx_id,
            success,
            gas_used,
            output,
            error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::blob_tags;
    use tn_crypto::Keypair;

    fn setup() -> (Keypair, Keypair, State) {
        let alice = Keypair::from_seed(b"alice");
        let bob = Keypair::from_seed(b"bob");
        let state = State::genesis([(alice.address(), 1000)]);
        (alice, bob, state)
    }

    #[test]
    fn genesis_balances() {
        let (alice, bob, state) = setup();
        assert_eq!(state.balance(&alice.address()), 1000);
        assert_eq!(state.balance(&bob.address()), 0);
        assert_eq!(state.nonce(&alice.address()), 0);
    }

    #[test]
    fn transfer_moves_balance_and_fee() {
        let (alice, bob, mut state) = setup();
        let proposer = Keypair::from_seed(b"proposer").address();
        let tx = Transaction::signed(
            &alice,
            0,
            10,
            Payload::Transfer {
                to: bob.address(),
                amount: 100,
            },
        );
        let r = state
            .apply(&tx, &proposer, &mut NoExecutor)
            .expect("applies");
        assert!(r.success);
        assert_eq!(state.balance(&alice.address()), 890);
        assert_eq!(state.balance(&bob.address()), 100);
        assert_eq!(state.balance(&proposer), 10);
        assert_eq!(state.nonce(&alice.address()), 1);
    }

    #[test]
    fn nonce_must_be_sequential() {
        let (alice, bob, mut state) = setup();
        let tx = Transaction::signed(
            &alice,
            5,
            0,
            Payload::Transfer {
                to: bob.address(),
                amount: 1,
            },
        );
        match state.apply(&tx, &Address::SYSTEM, &mut NoExecutor) {
            Err(ChainError::BadNonce {
                expected: 0,
                actual: 5,
                ..
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn replay_is_rejected_by_nonce() {
        let (alice, bob, mut state) = setup();
        let tx = Transaction::signed(
            &alice,
            0,
            1,
            Payload::Transfer {
                to: bob.address(),
                amount: 1,
            },
        );
        state
            .apply(&tx, &Address::SYSTEM, &mut NoExecutor)
            .expect("first");
        assert!(matches!(
            state.apply(&tx, &Address::SYSTEM, &mut NoExecutor),
            Err(ChainError::BadNonce { .. })
        ));
    }

    #[test]
    fn overspend_rejected() {
        let (alice, bob, mut state) = setup();
        let tx = Transaction::signed(
            &alice,
            0,
            1,
            Payload::Transfer {
                to: bob.address(),
                amount: 1000,
            },
        );
        assert!(matches!(
            state.apply(&tx, &Address::SYSTEM, &mut NoExecutor),
            Err(ChainError::InsufficientBalance {
                needed: 1001,
                available: 1000,
                ..
            })
        ));
    }

    #[test]
    fn anchor_ownership_enforced() {
        let (alice, bob, mut state) = setup();
        state.credit(&bob.address(), 100);
        let root1 = tn_crypto::sha256::sha256(b"r1");
        let tx = Transaction::signed(
            &alice,
            0,
            0,
            Payload::AnchorRoot {
                namespace: "factdb".into(),
                root: root1,
            },
        );
        let r = state
            .apply(&tx, &Address::SYSTEM, &mut NoExecutor)
            .expect("applies");
        assert!(r.success);
        assert_eq!(state.anchor("factdb"), Some(root1));

        // Bob cannot overwrite alice's namespace.
        let root2 = tn_crypto::sha256::sha256(b"r2");
        let tx = Transaction::signed(
            &bob,
            0,
            0,
            Payload::AnchorRoot {
                namespace: "factdb".into(),
                root: root2,
            },
        );
        let r = state
            .apply(&tx, &Address::SYSTEM, &mut NoExecutor)
            .expect("applies");
        assert!(!r.success);
        assert_eq!(state.anchor("factdb"), Some(root1));

        // Alice can update her own namespace.
        let tx = Transaction::signed(
            &alice,
            1,
            0,
            Payload::AnchorRoot {
                namespace: "factdb".into(),
                root: root2,
            },
        );
        assert!(
            state
                .apply(&tx, &Address::SYSTEM, &mut NoExecutor)
                .unwrap()
                .success
        );
        assert_eq!(state.anchor("factdb"), Some(root2));
    }

    #[test]
    fn contract_payloads_fail_cleanly_without_executor() {
        let (alice, _, mut state) = setup();
        let tx = Transaction::signed(
            &alice,
            0,
            5,
            Payload::ContractCall {
                contract: alice.address(),
                input: vec![1],
                gas_limit: 100,
            },
        );
        let r = state
            .apply(&tx, &Address::SYSTEM, &mut NoExecutor)
            .expect("applies");
        assert!(!r.success);
        assert!(r
            .error
            .as_deref()
            .unwrap_or("")
            .contains("no contract executor"));
        // Fee still charged, nonce bumped.
        assert_eq!(state.balance(&alice.address()), 995);
        assert_eq!(state.nonce(&alice.address()), 1);
    }

    #[test]
    fn state_root_changes_with_state() {
        let (alice, bob, mut state) = setup();
        let r0 = state.root();
        let tx = Transaction::signed(
            &alice,
            0,
            0,
            Payload::Transfer {
                to: bob.address(),
                amount: 1,
            },
        );
        state
            .apply(&tx, &Address::SYSTEM, &mut NoExecutor)
            .expect("applies");
        assert_ne!(state.root(), r0);
    }

    #[test]
    fn state_root_is_order_independent() {
        let a = Keypair::from_seed(b"a").address();
        let b = Keypair::from_seed(b"b").address();
        let s1 = State::genesis([(a, 1), (b, 2)]);
        let s2 = State::genesis([(b, 2), (a, 1)]);
        assert_eq!(s1.root(), s2.root());
    }

    #[test]
    fn blob_costs_only_fee() {
        let (alice, _, mut state) = setup();
        let tx = Transaction::signed(
            &alice,
            0,
            3,
            Payload::Blob {
                tag: blob_tags::NEWS_PUBLISH,
                data: b"story".to_vec(),
            },
        );
        let r = state
            .apply(&tx, &Address::SYSTEM, &mut NoExecutor)
            .expect("applies");
        assert!(r.success);
        assert_eq!(state.balance(&alice.address()), 997);
    }
}
