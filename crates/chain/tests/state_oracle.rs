//! Differential oracle for [`State`]: the persistent Merkle trie against a
//! `BTreeMap` model and against a definition-level reference of the root.
//!
//! The reference ([`reference_root`]) is the `TN/state/2` definition read
//! off the page: a recursion over the sorted account list that builds no
//! tree and remembers nothing between calls. The trie caches a hash in
//! every node and clears it on write, so the failure these tests are
//! written to catch is a cell that should have been cleared and was not —
//! hence roots taken *between* writes, on states that share nodes with
//! other states that are being written too.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tn_chain::prelude::*;
use tn_chain::AccountState;
use tn_crypto::sha256::{sha256, tagged_hash};
use tn_crypto::{Address, Hash256, Keypair};

fn nibble(addr: &Address, i: usize) -> u8 {
    let byte = addr.as_hash().as_bytes()[i / 2];
    if i & 1 == 0 {
        byte >> 4
    } else {
        byte & 0x0f
    }
}

/// `accounts_root` by definition: empty → zero; one account → its leaf
/// hash; otherwise a branch at the first nibble the addresses disagree in,
/// over the sub-roots of the groups that nibble splits them into.
fn reference_accounts_root(entries: &[(Address, AccountState)]) -> Hash256 {
    let Some(((first, acct), rest)) = entries.split_first() else {
        return Hash256::ZERO;
    };
    if rest.is_empty() {
        let mut data = vec![0x00];
        data.extend_from_slice(first.as_hash().as_bytes());
        data.extend_from_slice(&acct.balance.to_le_bytes());
        data.extend_from_slice(&acct.nonce.to_le_bytes());
        return sha256(&data);
    }
    let index = (0..64)
        .find(|&i| rest.iter().any(|(a, _)| nibble(a, i) != nibble(first, i)))
        .expect("distinct addresses differ somewhere");
    let mut bitmap = 0u16;
    let mut children = Vec::new();
    for value in 0..16u8 {
        let group: Vec<_> = entries
            .iter()
            .filter(|(a, _)| nibble(a, index) == value)
            .copied()
            .collect();
        if !group.is_empty() {
            bitmap |= 1 << value;
            children.extend_from_slice(reference_accounts_root(&group).as_bytes());
        }
    }
    let mut data = vec![0x01, index as u8];
    data.extend_from_slice(&bitmap.to_le_bytes());
    data.extend_from_slice(&children);
    sha256(&data)
}

type Anchors = BTreeMap<String, (Address, Hash256)>;

/// The model: what the state holds, as plain sorted maps.
#[derive(Debug, Clone, Default)]
struct Model {
    accounts: BTreeMap<Address, AccountState>,
    anchors: Anchors,
}

impl Model {
    fn entries(&self) -> Vec<(Address, AccountState)> {
        self.accounts.iter().map(|(a, s)| (*a, *s)).collect()
    }

    /// The canonical encoding, written out by hand.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_varint(self.accounts.len() as u64);
        for (addr, acct) in &self.accounts {
            enc.put_hash(addr.as_hash())
                .put_u64(acct.balance)
                .put_u64(acct.nonce);
        }
        self.encode_anchors(&mut enc);
        enc.finish()
    }

    fn encode_anchors(&self, enc: &mut Encoder) {
        enc.put_varint(self.anchors.len() as u64);
        for (ns, (owner, root)) in &self.anchors {
            enc.put_str(ns).put_hash(owner.as_hash()).put_hash(root);
        }
    }

    fn reference_root(&self) -> Hash256 {
        let mut enc = Encoder::new();
        self.encode_anchors(&mut enc);
        let mut data = Vec::new();
        data.extend_from_slice(reference_accounts_root(&self.entries()).as_bytes());
        data.extend_from_slice(tagged_hash("TN/state/anchors", &enc.finish()).as_bytes());
        tagged_hash("TN/state/2", &data)
    }

    fn credit(&mut self, addr: &Address, amount: u64) {
        let acct = self.accounts.entry(*addr).or_default();
        acct.balance = acct.balance.saturating_add(amount);
    }

    /// The transition function for the payloads the oracle drives, as the
    /// map-based state ran it.
    fn apply(&mut self, tx: &Transaction, proposer: &Address) -> bool {
        let from = self.accounts.get(&tx.from).copied().unwrap_or_default();
        if tx.nonce != from.nonce || from.balance < tx.total_debit() {
            return false;
        }
        let acct = self.accounts.entry(tx.from).or_default();
        acct.balance -= tx.total_debit();
        acct.nonce += 1;
        self.credit(proposer, tx.fee);
        match &tx.payload {
            Payload::Transfer { to, amount } => self.credit(to, *amount),
            Payload::AnchorRoot { namespace, root } => match self.anchors.get(namespace) {
                Some((owner, _)) if *owner != tx.from => {}
                _ => {
                    self.anchors.insert(namespace.clone(), (tx.from, *root));
                }
            },
            _ => {}
        }
        true
    }
}

/// Everything observable about `state` equals the model, and its root
/// equals the reference — also after a trip through the codec.
fn assert_agrees(state: &State, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(state.account_count(), model.accounts.len());
    let listed: Vec<(Address, AccountState)> = state.accounts().map(|(a, s)| (*a, *s)).collect();
    prop_assert_eq!(&listed, &model.entries());
    for (addr, acct) in &model.accounts {
        prop_assert_eq!(state.account(addr), *acct);
    }
    let bytes = state.to_bytes();
    prop_assert_eq!(&bytes, &model.to_bytes());
    let root = model.reference_root();
    prop_assert_eq!(state.root(), root);
    let decoded = State::from_bytes(&bytes).expect("canonical bytes decode");
    prop_assert_eq!(decoded.root(), root);
    prop_assert_eq!(&decoded, state);
    Ok(())
}

fn signers() -> Vec<Keypair> {
    (0..4)
        .map(|i| Keypair::from_seed(format!("oracle signer {i}").as_bytes()))
        .collect()
}

/// The address pool: the signers, hashes, and families that share long
/// prefixes (same first 4, 15 or 31 bytes) so branches sit deep and
/// compressed paths get split.
fn pool(signers: &[Keypair]) -> Vec<Address> {
    let mut pool: Vec<Address> = signers.iter().map(Keypair::address).collect();
    for i in 0u8..36 {
        let mut bytes = *sha256(&[i]).as_bytes();
        match i % 4 {
            0 => {}
            1 => bytes[..4].copy_from_slice(&[0xab; 4]),
            2 => bytes[..15].copy_from_slice(&[0x11; 15]),
            _ => {
                bytes = [0x77; 32];
                bytes[31] = i;
            }
        }
        pool.push(Address::from_hash(Hash256::from_bytes(bytes)));
    }
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of credits, transfers (some refused), anchor
    /// writes (some by a non-owner), clones that then diverge, and roots
    /// taken at random points, on up to six states that share structure.
    #[test]
    fn prop_trie_state_equals_map_model(
        ops in proptest::collection::vec((0u8..8, any::<u8>(), any::<u8>(), 0u64..2_000), 1..160)
    ) {
        let signers = signers();
        let pool = pool(&signers);
        let proposer = pool[7];
        let genesis: Vec<(Address, u64)> = signers.iter().map(|k| (k.address(), 5_000)).collect();
        let mut model = Model::default();
        for (addr, amount) in &genesis {
            model.accounts.insert(*addr, AccountState { balance: *amount, nonce: 0 });
        }
        let mut versions = vec![(State::genesis(genesis), model)];
        for (kind, a, b, amount) in ops {
            let at = usize::from(b) % versions.len();
            let addr = pool[usize::from(a) % pool.len()];
            let signer = &signers[usize::from(a) % signers.len()];
            match kind {
                0 | 1 => {
                    let (state, model) = &mut versions[at];
                    state.credit(&addr, amount);
                    model.credit(&addr, amount);
                }
                2..=4 => {
                    let (state, model) = &mut versions[at];
                    // Mostly the right nonce; sometimes stale, sometimes too rich.
                    let nonce = state.nonce(&signer.address()) + u64::from(amount % 7 == 0);
                    let payload = if kind == 4 {
                        let namespace = format!("ns{}", b % 3);
                        Payload::AnchorRoot { namespace, root: sha256(&amount.to_le_bytes()) }
                    } else {
                        Payload::Transfer { to: addr, amount: amount * u64::from(b % 5) }
                    };
                    let tx = Transaction::signed(signer, nonce, amount % 3, payload);
                    let applied = state.apply_prechecked(&tx, &proposer, &mut NoExecutor).is_ok();
                    prop_assert_eq!(applied, model.apply(&tx, &proposer));
                }
                5 if versions.len() < 6 => {
                    let copy = versions[at].clone();
                    versions.push(copy);
                }
                _ => {
                    let (state, model) = &versions[at];
                    prop_assert_eq!(state.root(), model.reference_root());
                }
            }
        }
        for (state, model) in &versions {
            assert_agrees(state, model)?;
        }
    }

    /// The root is a function of the contents: any insertion order, the
    /// bulk decode path and the incremental path agree.
    #[test]
    fn prop_root_ignores_insertion_order(
        picks in proptest::collection::vec((any::<u8>(), 1u64..1_000), 1..60),
        rotate in any::<u8>()
    ) {
        let pool = pool(&signers());
        let mut model = Model::default();
        for (a, amount) in &picks {
            model.accounts.insert(pool[usize::from(*a) % pool.len()], AccountState { balance: *amount, nonce: 0 });
        }
        let mut grants: Vec<(Address, u64)> = model.accounts.iter().map(|(a, s)| (*a, s.balance)).collect();
        let forward = State::genesis(grants.clone());
        grants.reverse();
        let backward = State::genesis(grants.clone());
        let turn = usize::from(rotate) % grants.len();
        grants.rotate_left(turn);
        let rotated = State::genesis(grants);
        let root = model.reference_root();
        prop_assert_eq!(forward.root(), root);
        prop_assert_eq!(backward.root(), root);
        prop_assert_eq!(rotated.root(), root);
        assert_agrees(&rotated, &model)?;
    }
}

#[test]
fn one_block_or_150_blocks_same_root() {
    let signers = signers();
    let proposer = Keypair::from_seed(b"oracle proposer").address();
    let genesis: Vec<(Address, u64)> = signers.iter().map(|k| (k.address(), 1_000_000)).collect();
    let txs: Vec<Transaction> = (0..150 * 8u64)
        .map(|i| {
            let to = Address::from_hash(sha256(&i.to_le_bytes()));
            let payload = Payload::Transfer {
                to,
                amount: 1 + i % 3,
            };
            Transaction::signed(&signers[(i % 4) as usize], i / 4, 1, payload)
        })
        .collect();

    let mut model = Model::default();
    for (addr, amount) in &genesis {
        model.credit(addr, *amount);
    }
    // 150 blocks: a root after every eight transfers, on a state that
    // keeps every earlier block's state alive beside it.
    let mut stepwise = State::genesis(genesis.clone());
    let mut window = Vec::new();
    for block in txs.chunks(8) {
        for tx in block {
            stepwise
                .apply_prechecked(tx, &proposer, &mut NoExecutor)
                .expect("applies");
            assert!(model.apply(tx, &proposer));
        }
        assert_eq!(stepwise.root(), model.reference_root());
        window.push((stepwise.clone(), stepwise.root()));
    }
    // One block: every transfer, then the first root ever taken.
    let mut at_once = State::genesis(genesis);
    for tx in &txs {
        at_once
            .apply_prechecked(tx, &proposer, &mut NoExecutor)
            .expect("applies");
    }
    assert_eq!(at_once.root(), stepwise.root());
    assert_eq!(at_once, stepwise);
    assert_eq!(at_once.to_bytes(), model.to_bytes());
    assert_eq!(
        State::from_bytes(&at_once.to_bytes()).unwrap().root(),
        model.reference_root()
    );
    // Later blocks wrote through nodes the earlier states still hold;
    // none of those states moved, and what they cache is what the same
    // contents hash to cold.
    for (state, root) in &window {
        assert_eq!(state.root(), *root);
        let cold = State::from_bytes(&state.to_bytes()).expect("decodes");
        assert_eq!(cold.root(), *root);
    }
}

#[test]
fn a_clone_is_isolated_from_its_original() {
    let signers = signers();
    let proposer = Keypair::from_seed(b"oracle proposer").address();
    let mut original = State::genesis(signers.iter().map(|k| (k.address(), 1_000)));
    let anchor = Transaction::signed(
        &signers[0],
        0,
        0,
        Payload::AnchorRoot {
            namespace: "factdb".into(),
            root: sha256(b"r0"),
        },
    );
    original
        .apply_prechecked(&anchor, &proposer, &mut NoExecutor)
        .expect("applies");
    let root = original.root();
    let bytes = original.to_bytes();

    let mut copy = original.clone();
    assert_eq!(copy.unshared_bytes(&original), 0);
    let payload = Payload::Transfer {
        to: Address::from_hash(sha256(b"newcomer")),
        amount: 10,
    };
    let transfer = Transaction::signed(&signers[1], 0, 1, payload);
    copy.apply_prechecked(&transfer, &proposer, &mut NoExecutor)
        .expect("applies");
    let reanchor = Transaction::signed(
        &signers[0],
        1,
        0,
        Payload::AnchorRoot {
            namespace: "factdb".into(),
            root: sha256(b"r1"),
        },
    );
    copy.apply_prechecked(&reanchor, &proposer, &mut NoExecutor)
        .expect("applies");

    assert_ne!(copy.root(), root);
    assert!(copy.unshared_bytes(&original) > 0);
    assert_eq!(original.root(), root);
    assert_eq!(original.to_bytes(), bytes);
    assert_eq!(original.anchor("factdb"), Some(sha256(b"r0")));
    assert_eq!(copy.anchor("factdb"), Some(sha256(b"r1")));
    assert_eq!(original.balance(&signers[1].address()), 1_000);
    assert_eq!(copy.balance(&signers[1].address()), 989);
    assert_eq!(original.account_count() + 1, copy.account_count());
}

#[test]
fn account_proofs_verify_against_the_state_root() {
    let signers = signers();
    let mut state = State::genesis(signers.iter().map(|k| (k.address(), 1_000)));
    for i in 0..200u32 {
        state.credit(&Address::from_hash(sha256(&i.to_le_bytes())), u64::from(i));
    }
    let root = state.root();
    let holder = signers[2].address();
    let proof = state.prove(&holder);
    assert_eq!(
        proof.verify(&root, &holder),
        Ok(Some(AccountState {
            balance: 1_000,
            nonce: 0
        }))
    );
    let nobody = Address::from_hash(sha256(b"nobody"));
    assert_eq!(state.prove(&nobody).verify(&root, &nobody), Ok(None));
    // The proof is bound to this root: not to the state one credit later.
    state.credit(&nobody, 1);
    assert!(proof.verify(&state.root(), &holder).is_err());
    assert!(proof.hashes() > 1 && proof.to_bytes().len() > 32 * proof.hashes());
}
