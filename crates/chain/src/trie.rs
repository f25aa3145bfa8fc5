//! The account table: a persistent, incrementally authenticated radix trie
//! over `Address → AccountState`, and the reader proofs it serves.
//!
//! ## Shape
//!
//! Keys are the 64 nibbles of an address. A *branch* exists only where two
//! keys diverge: it records the index of the nibble its children differ in
//! and holds one child per nibble value in use (a 16-bit occupancy bitmap
//! plus the children in nibble order). Everything between two branches is
//! skipped (path compression), and a *leaf* carries the full address. The
//! shape is therefore a function of the key set alone — whatever the
//! insertion or decode order — and so is the root hash. In-order traversal
//! visits leaves in ascending address order.
//!
//! ## Hashes
//!
//! `leaf = H(0x00 ‖ address ‖ balance ‖ nonce)`,
//! `branch = H(0x01 ‖ nibble index ‖ bitmap ‖ child hashes)` with `H` =
//! SHA-256 and integers little-endian, the empty trie hashes to zero.
//! Every node carries a lazily filled hash cell: a write clears the cells
//! on its path on the way down, [`crate::State::root`] fills whatever
//! is empty, so a block re-hashes the paths it wrote, once each.
//!
//! ## Sharing
//!
//! Children sit behind `Arc`. Cloning a trie is one reference count; a
//! write copies the nodes on its path (`Arc::make_mut`) and shares the
//! rest with every other clone.

use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

use tn_crypto::sha256::sha256;
use tn_crypto::{Address, Hash256};

use crate::codec::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use crate::state::{commitment, AccountState};

/// Nibbles in an address.
const NIBBLES: usize = 64;

/// Root hash of a trie holding no account.
const EMPTY_ROOT: Hash256 = Hash256::ZERO;

fn nibble(addr: &Address, index: usize) -> usize {
    let byte = addr.as_hash().as_bytes()[index / 2];
    usize::from(if index & 1 == 0 {
        byte >> 4
    } else {
        byte & 0x0f
    })
}

/// Index of the first nibble `a` and `b` differ in ([`NIBBLES`] when equal).
fn diverge(a: &Address, b: &Address) -> usize {
    let (a, b) = (a.as_hash().as_bytes(), b.as_hash().as_bytes());
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => 2 * i + usize::from((a[i] ^ b[i]) & 0xf0 == 0),
        None => NIBBLES,
    }
}

fn leaf_hash(addr: &Address, acct: &AccountState) -> Hash256 {
    // 0x00 ‖ address ‖ balance ‖ nonce.
    let mut input = [0u8; 49];
    input[1..33].copy_from_slice(addr.as_hash().as_bytes());
    input[33..41].copy_from_slice(&acct.balance.to_le_bytes());
    input[41..].copy_from_slice(&acct.nonce.to_le_bytes());
    sha256(&input)
}

/// A branch's hash: its header (`0x01`, the nibble index, the bitmap)
/// and the hashes of its children in nibble order, gathered into one
/// buffer so the hasher compresses the whole input in one run. At most
/// sixteen children: one per bit of `bitmap`.
fn branch_hash(index: u8, bitmap: u16, children: impl IntoIterator<Item = Hash256>) -> Hash256 {
    let mut input = [0u8; 4 + 32 * 16];
    let [lo, hi] = bitmap.to_le_bytes();
    input[..4].copy_from_slice(&[0x01, index, lo, hi]);
    let mut len = 4;
    for child in children {
        input[len..len + 32].copy_from_slice(child.as_bytes());
        len += 32;
    }
    sha256(&input[..len])
}

#[derive(Debug, Clone)]
struct Node {
    /// Hash of the subtree, when known. Emptied by every write below.
    hash: OnceLock<Hash256>,
    kind: Kind,
}

#[derive(Debug, Clone)]
enum Kind {
    Leaf {
        addr: Address,
        acct: AccountState,
    },
    Branch {
        /// The nibble the children differ in; they agree on all before it.
        index: u8,
        /// Bit `n` set: a child for nibble value `n` exists.
        bitmap: u16,
        /// One child per set bit, in nibble order.
        children: Vec<Arc<Node>>,
    },
}

/// Position among a branch's children of the child for the nibble whose
/// bit is `bit`.
fn rank(bitmap: u16, bit: u16) -> usize {
    (bitmap & (bit - 1)).count_ones() as usize
}

impl Node {
    fn new(kind: Kind) -> Arc<Node> {
        Arc::new(Node {
            hash: OnceLock::new(),
            kind,
        })
    }

    fn leaf(addr: &Address, f: impl FnOnce(&mut AccountState)) -> Arc<Node> {
        let mut acct = AccountState::default();
        f(&mut acct);
        Node::new(Kind::Leaf { addr: *addr, acct })
    }

    fn hash(&self) -> Hash256 {
        *self.hash.get_or_init(|| match &self.kind {
            Kind::Leaf { addr, acct } => leaf_hash(addr, acct),
            Kind::Branch {
                index,
                bitmap,
                children,
            } => branch_hash(*index, *bitmap, children.iter().map(|child| child.hash())),
        })
    }

    /// The address of some leaf that shares with `addr` every nibble the
    /// branches on the way tested — so its first difference from `addr`
    /// is where `addr` leaves the trie.
    fn nearest(&self, addr: &Address) -> &Address {
        let mut node = self;
        loop {
            match &node.kind {
                Kind::Leaf { addr, .. } => return addr,
                Kind::Branch {
                    index,
                    bitmap,
                    children,
                } => {
                    let bit = 1u16 << nibble(addr, usize::from(*index));
                    let pos = if bitmap & bit == 0 {
                        0
                    } else {
                        rank(*bitmap, bit)
                    };
                    node = &children[pos];
                }
            }
        }
    }

    /// Applies `f` to the record of `addr` below `slot`, creating it
    /// (zero-valued) first when absent; returns whether it was created.
    /// `depth` is where `addr` first differs from the leaves it shares a
    /// prefix with (`diverge(addr, nearest(addr))`) and `other` is their
    /// nibble there. Nodes on the path are unshared and lose their hash;
    /// nothing else is touched.
    fn update(
        slot: &mut Arc<Node>,
        addr: &Address,
        depth: usize,
        other: usize,
        f: impl FnOnce(&mut AccountState),
    ) -> bool {
        let below = match &slot.kind {
            Kind::Leaf { .. } => NIBBLES,
            Kind::Branch { index, .. } => usize::from(*index),
        };
        if depth < below {
            // Everything under `slot` agrees with `addr` up to `depth` and
            // differs there: a new branch goes in above it. The old subtree
            // moves under it as it is, hashes included.
            let nib = nibble(addr, depth);
            let (leaf, old) = (Node::leaf(addr, f), Arc::clone(slot));
            *slot = Node::new(Kind::Branch {
                index: depth as u8,
                bitmap: 1 << nib | 1 << other,
                children: if nib < other {
                    vec![leaf, old]
                } else {
                    vec![old, leaf]
                },
            });
            return true;
        }
        let node = Arc::make_mut(slot);
        node.hash.take();
        match &mut node.kind {
            Kind::Leaf { acct, .. } => {
                f(acct);
                false
            }
            Kind::Branch {
                index,
                bitmap,
                children,
            } => {
                let bit = 1u16 << nibble(addr, usize::from(*index));
                let pos = rank(*bitmap, bit);
                if *bitmap & bit == 0 {
                    debug_assert_eq!(usize::from(*index), depth);
                    children.insert(pos, Node::leaf(addr, f));
                    *bitmap |= bit;
                    true
                } else {
                    Node::update(&mut children[pos], addr, depth, other, f)
                }
            }
        }
    }

    /// Builds the subtree over `entries`, which must be non-empty and
    /// strictly ascending by address.
    fn build(entries: &[(Address, AccountState)]) -> Arc<Node> {
        let (first, last) = (&entries[0], &entries[entries.len() - 1]);
        if entries.len() == 1 {
            return Node::new(Kind::Leaf {
                addr: first.0,
                acct: first.1,
            });
        }
        // Sorted, so what first and last share, all share.
        let index = diverge(&first.0, &last.0);
        let mut bitmap = 0u16;
        let mut children = Vec::new();
        let mut rest = entries;
        while let Some((head, _)) = rest.first() {
            let nib = nibble(head, index);
            let run = rest.partition_point(|(a, _)| nibble(a, index) == nib);
            bitmap |= 1 << nib;
            children.push(Node::build(&rest[..run]));
            rest = &rest[run..];
        }
        Node::new(Kind::Branch {
            index: index as u8,
            bitmap,
            children,
        })
    }

    /// Approximate heap footprint of this node alone.
    fn heap_bytes(&self) -> usize {
        let children = match &self.kind {
            Kind::Leaf { .. } => 0,
            Kind::Branch { children, .. } => children.capacity() * std::mem::size_of::<Arc<Node>>(),
        };
        // Two reference counts precede the node in its `Arc` allocation.
        2 * std::mem::size_of::<usize>() + std::mem::size_of::<Node>() + children
    }
}

/// The account table. See the [module docs](self).
#[derive(Clone, Default)]
pub(crate) struct AccountTrie {
    root: Option<Arc<Node>>,
    len: usize,
}

impl AccountTrie {
    /// The record of `addr`, if it has one.
    pub(crate) fn get(&self, addr: &Address) -> Option<&AccountState> {
        let mut node = self.root.as_deref()?;
        loop {
            match &node.kind {
                Kind::Leaf { addr: at, acct } => return (at == addr).then_some(acct),
                Kind::Branch {
                    index,
                    bitmap,
                    children,
                } => {
                    let bit = 1u16 << nibble(addr, usize::from(*index));
                    if bitmap & bit == 0 {
                        return None;
                    }
                    node = &children[rank(*bitmap, bit)];
                }
            }
        }
    }

    /// Applies `f` to the record of `addr`, creating it zero-valued first
    /// when absent (so a no-op `f` still creates the record).
    pub(crate) fn update(&mut self, addr: &Address, f: impl FnOnce(&mut AccountState)) {
        let created = match &mut self.root {
            None => {
                self.root = Some(Node::leaf(addr, f));
                true
            }
            Some(root) => {
                let near = root.nearest(addr);
                let depth = diverge(addr, near);
                // Unused when `addr` is `near` itself (depth = NIBBLES).
                let other = nibble(near, depth.min(NIBBLES - 1));
                Node::update(root, addr, depth, other, f)
            }
        };
        self.len += usize::from(created);
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Records in ascending address order.
    pub(crate) fn iter(&self) -> Iter<'_> {
        Iter {
            stack: self.root.as_deref().into_iter().collect(),
        }
    }

    /// The commitment to the table. Costs one hash per node written since
    /// the last call on this trie or any clone it still shares them with.
    pub(crate) fn root_hash(&self) -> Hash256 {
        self.root.as_ref().map_or(EMPTY_ROOT, |root| root.hash())
    }

    /// Builds the table bottom-up from `entries`, which the caller has
    /// checked to be strictly ascending by address.
    pub(crate) fn from_sorted(entries: &[(Address, AccountState)]) -> AccountTrie {
        AccountTrie {
            root: (!entries.is_empty()).then(|| Node::build(entries)),
            len: entries.len(),
        }
    }

    /// A proof of what the table holds for `addr`, to be checked against
    /// the state root that commits to this table and `anchors_hash`: every
    /// branch on the address's path with the hashes of the children beside
    /// it, and the leaf the path ends at, if any.
    pub(crate) fn prove(&self, addr: &Address, anchors_hash: Hash256) -> AccountProof {
        let mut proof = AccountProof {
            steps: Vec::new(),
            leaf: None,
            anchors_hash,
        };
        let mut next = self.root.as_deref();
        while let Some(node) = next.take() {
            match &node.kind {
                Kind::Leaf { addr: at, acct } => proof.leaf = Some((*at, *acct)),
                Kind::Branch {
                    index,
                    bitmap,
                    children,
                } => {
                    let bit = 1u16 << nibble(addr, usize::from(*index));
                    let taken = (bitmap & bit != 0).then(|| rank(*bitmap, bit));
                    proof.steps.push(ProofStep {
                        index: *index,
                        bitmap: *bitmap,
                        siblings: children
                            .iter()
                            .enumerate()
                            .filter(|(pos, _)| Some(*pos) != taken)
                            .map(|(_, child)| child.hash())
                            .collect(),
                    });
                    next = taken.map(|pos| &*children[pos]);
                }
            }
        }
        proof
    }

    /// Count and approximate heap bytes of the nodes of `self` that `base`
    /// does not hold too: what keeping `self` costs beside `base`.
    pub(crate) fn unshared(&self, base: &AccountTrie) -> (usize, usize) {
        fn walk<'a>(root: Option<&'a Arc<Node>>, mut visit: impl FnMut(&'a Arc<Node>) -> bool) {
            let mut stack: Vec<&Arc<Node>> = root.into_iter().collect();
            while let Some(node) = stack.pop() {
                if !visit(node) {
                    continue;
                }
                if let Kind::Branch { children, .. } = &node.kind {
                    stack.extend(children);
                }
            }
        }
        let mut held = HashSet::new();
        walk(base.root.as_ref(), |node| held.insert(Arc::as_ptr(node)));
        let (mut nodes, mut bytes) = (0, 0);
        walk(self.root.as_ref(), |node| {
            let own = !held.contains(&Arc::as_ptr(node));
            if own {
                nodes += 1;
                bytes += node.heap_bytes();
            }
            own
        });
        (nodes, bytes)
    }
}

impl PartialEq for AccountTrie {
    fn eq(&self, other: &Self) -> bool {
        let same = match (&self.root, &other.root) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        same || (self.len == other.len && self.iter().eq(other.iter()))
    }
}

impl Eq for AccountTrie {}

impl fmt::Debug for AccountTrie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// In-order iterator over an [`AccountTrie`].
pub(crate) struct Iter<'a> {
    /// Subtrees still to visit, next one last.
    stack: Vec<&'a Node>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a Address, &'a AccountState);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match &self.stack.pop()?.kind {
                Kind::Leaf { addr, acct } => return Some((addr, acct)),
                Kind::Branch { children, .. } => {
                    self.stack.extend(children.iter().rev().map(|c| &**c));
                }
            }
        }
    }
}

/// One branch on a proof's path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ProofStep {
    index: u8,
    bitmap: u16,
    /// Hashes of the branch's children, in nibble order, minus the one the
    /// path continues through (all of them when it continues nowhere).
    siblings: Vec<Hash256>,
}

/// Why an [`AccountProof`] was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofError {
    /// The proof is not the path of the address asked about: a sibling
    /// count that contradicts a bitmap, a nibble index out of range, a
    /// path that stops or continues where it cannot.
    Malformed,
    /// The proof is well-formed but hashes to a different state root.
    RootMismatch,
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProofError::Malformed => "account proof is not a path of the address",
            ProofError::RootMismatch => "account proof does not hash to the state root",
        })
    }
}

impl std::error::Error for ProofError {}

/// What a reader needs to check one account — its record, or that it has
/// none — against the `state_root` of a block header, without the state:
/// the branches on the address's path with the hashes beside it, the leaf
/// the path ends at, and the hash of the anchor table the root also
/// commits to. Built by [`crate::State::prove`].
///
/// Absence is proved by where the path ends: at a branch with no child
/// for the address's nibble, at a leaf holding another address, or at
/// once (empty table). A present address always reaches its own leaf, so
/// either ending rules it out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountProof {
    /// Root first.
    steps: Vec<ProofStep>,
    leaf: Option<(Address, AccountState)>,
    anchors_hash: Hash256,
}

impl AccountProof {
    /// Checks the proof against `state_root` and returns what it proves
    /// about `addr`: `Some(record)`, or `None` when the state holds no
    /// record for it.
    ///
    /// # Errors
    ///
    /// [`ProofError::Malformed`] when the proof cannot be a path of `addr`,
    /// [`ProofError::RootMismatch`] when it commits to another root.
    pub fn verify(
        &self,
        state_root: &Hash256,
        addr: &Address,
    ) -> Result<Option<AccountState>, ProofError> {
        let mut below = self.leaf.as_ref().map(|(at, acct)| leaf_hash(at, acct));
        for step in self.steps.iter().rev() {
            if usize::from(step.index) >= NIBBLES {
                return Err(ProofError::Malformed);
            }
            let bit = 1u16 << nibble(addr, usize::from(step.index));
            let fanout = step.bitmap.count_ones() as usize;
            let hash = match (step.bitmap & bit != 0, below) {
                (true, Some(child)) if step.siblings.len() + 1 == fanout => {
                    let (left, right) = step.siblings.split_at(rank(step.bitmap, bit));
                    let children = left.iter().chain([&child]).chain(right);
                    branch_hash(step.index, step.bitmap, children.copied())
                }
                // Only the deepest step can have nothing below it.
                (false, None) if step.siblings.len() == fanout => {
                    branch_hash(step.index, step.bitmap, step.siblings.iter().copied())
                }
                _ => return Err(ProofError::Malformed),
            };
            below = Some(hash);
        }
        let accounts_root = below.unwrap_or(EMPTY_ROOT);
        if commitment(&accounts_root, &self.anchors_hash) != *state_root {
            return Err(ProofError::RootMismatch);
        }
        Ok(self
            .leaf
            .and_then(|(at, acct)| (at == *addr).then_some(acct)))
    }

    /// Number of hashes the proof carries.
    pub fn hashes(&self) -> usize {
        1 + self.steps.iter().map(|s| s.siblings.len()).sum::<usize>()
    }
}

impl Encodable for AccountProof {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.steps.len() as u64);
        for step in &self.steps {
            enc.put_u8(step.index)
                .put_u32(u32::from(step.bitmap))
                .put_varint(step.siblings.len() as u64);
            for sibling in &step.siblings {
                enc.put_hash(sibling);
            }
        }
        enc.put_bool(self.leaf.is_some());
        if let Some((addr, acct)) = &self.leaf {
            enc.put_hash(addr.as_hash())
                .put_u64(acct.balance)
                .put_u64(acct.nonce);
        }
        enc.put_hash(&self.anchors_hash);
    }
}

impl Decodable for AccountProof {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let depth = dec.get_varint()?;
        if depth > NIBBLES as u64 {
            return Err(DecodeError::BadLength(depth));
        }
        let mut steps = Vec::with_capacity(depth as usize);
        for _ in 0..depth {
            let index = dec.get_u8()?;
            let bitmap = dec.get_u32()?;
            let bitmap =
                u16::try_from(bitmap).map_err(|_| DecodeError::BadLength(bitmap.into()))?;
            let n = dec.get_varint()?;
            if n > 16 {
                return Err(DecodeError::BadLength(n));
            }
            let siblings = (0..n).map(|_| dec.get_hash()).collect::<Result<_, _>>()?;
            steps.push(ProofStep {
                index,
                bitmap,
                siblings,
            });
        }
        let leaf = if dec.get_bool()? {
            let addr = Address::from_hash(dec.get_hash()?);
            let balance = dec.get_u64()?;
            let nonce = dec.get_u64()?;
            Some((addr, AccountState { balance, nonce }))
        } else {
            None
        };
        let anchors_hash = dec.get_hash()?;
        Ok(AccountProof {
            steps,
            leaf,
            anchors_hash,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_crypto::sha256::sha256;

    fn addr(i: u32) -> Address {
        Address::from_hash(sha256(&i.to_le_bytes()))
    }

    fn acct(balance: u64) -> AccountState {
        AccountState { balance, nonce: 0 }
    }

    fn trie_of(n: u32) -> AccountTrie {
        let mut trie = AccountTrie::default();
        for i in 0..n {
            trie.update(&addr(i), |a| a.balance = u64::from(i) + 1);
        }
        trie
    }

    /// The state root a proof over `trie` alone is checked against.
    fn root_over(trie: &AccountTrie) -> Hash256 {
        commitment(&trie.root_hash(), &Hash256::ZERO)
    }

    #[test]
    fn nibbles_and_divergence() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        a[3] = 0x5a;
        b[3] = 0x5b;
        let (a, b) = (
            Address::from_hash(Hash256::from_bytes(a)),
            Address::from_hash(Hash256::from_bytes(b)),
        );
        assert_eq!((nibble(&a, 6), nibble(&a, 7)), (0x5, 0xa));
        assert_eq!(diverge(&a, &b), 7);
        assert_eq!(diverge(&a, &a), NIBBLES);
        let mut c = *b.as_hash().as_bytes();
        c[3] = 0x6b;
        assert_eq!(diverge(&a, &Address::from_hash(Hash256::from_bytes(c))), 6);
    }

    #[test]
    fn bulk_build_equals_incremental_in_any_order() {
        let mut entries: Vec<(Address, AccountState)> = (0..500)
            .map(|i| (addr(i), acct(u64::from(i) + 1)))
            .collect();
        entries.sort_by_key(|(a, _)| *a);
        let built = AccountTrie::from_sorted(&entries);
        let forward = trie_of(500);
        let mut backward = AccountTrie::default();
        for i in (0..500).rev() {
            backward.update(&addr(i), |a| a.balance = u64::from(i) + 1);
        }
        assert_eq!(built.root_hash(), forward.root_hash());
        assert_eq!(built.root_hash(), backward.root_hash());
        assert_eq!(built, forward);
        assert_eq!(built.len(), 500);
        // Nothing of the three is shared, and all are the same size: same shape.
        assert_eq!(built.unshared(&forward).0, forward.unshared(&built).0);
        let listed: Vec<Address> = forward.iter().map(|(a, _)| *a).collect();
        assert_eq!(
            listed,
            entries.iter().map(|(a, _)| *a).collect::<Vec<_>>(),
            "iteration is in address order"
        );
    }

    #[test]
    fn a_write_rehashes_its_path_and_nothing_stale_survives() {
        let mut trie = trie_of(300);
        let before = trie.root_hash();
        trie.update(&addr(7), |a| a.balance += 1);
        let after = trie.root_hash();
        assert_ne!(before, after);
        // The cached root equals the root of the same contents hashed cold.
        let cold: Vec<_> = trie.iter().map(|(a, s)| (*a, *s)).collect();
        assert_eq!(AccountTrie::from_sorted(&cold).root_hash(), after);
        trie.update(&addr(7), |a| a.balance -= 1);
        assert_eq!(trie.root_hash(), before, "same contents, same root");
    }

    #[test]
    fn a_clone_shares_all_but_the_path_it_wrote() {
        let original = trie_of(10_000);
        let root = original.root_hash();
        let mut copy = original.clone();
        assert_eq!(copy.unshared(&original), (0, 0));

        let target = addr(4_321);
        copy.update(&target, |a| a.nonce = 9);
        let depth = copy.prove(&target, Hash256::ZERO).steps.len();
        let (own, bytes) = copy.unshared(&original);
        assert!(own <= depth + 1, "{own} nodes unshared at depth {depth}");
        assert!(bytes > 0);
        assert_eq!(original.get(&target), Some(&acct(4_322)));
        assert_eq!(original.root_hash(), root);
        assert_ne!(copy.root_hash(), root);

        // A fresh key adds its leaf and at most one branch above the copies.
        let fresh = addr(999_999);
        let mut grown = original.clone();
        grown.update(&fresh, |_| {});
        let depth = grown.prove(&fresh, Hash256::ZERO).steps.len();
        assert!(grown.unshared(&original).0 <= depth + 1);
        assert_eq!(
            (grown.len(), original.len(), original.get(&fresh)),
            (10_001, 10_000, None)
        );
        assert_eq!(original.root_hash(), root);
    }

    #[test]
    fn proofs_cover_presence_and_every_kind_of_absence() {
        let empty = AccountTrie::default();
        let proof = empty.prove(&addr(1), Hash256::ZERO);
        assert_eq!(proof.verify(&root_over(&empty), &addr(1)), Ok(None));

        let single = trie_of(1);
        let root = root_over(&single);
        let proof = single.prove(&addr(0), Hash256::ZERO);
        assert_eq!(proof.verify(&root, &addr(0)), Ok(Some(acct(1))));
        // The path of an absent address ends at the only leaf.
        let proof = single.prove(&addr(5), Hash256::ZERO);
        assert_eq!(proof.verify(&root, &addr(5)), Ok(None));

        let trie = trie_of(2_000);
        let root = root_over(&trie);
        for i in [0, 1, 999, 1_999] {
            let proof = trie.prove(&addr(i), Hash256::ZERO);
            assert_eq!(
                proof.verify(&root, &addr(i)),
                Ok(Some(acct(u64::from(i) + 1)))
            );
            assert_eq!(AccountProof::from_bytes(&proof.to_bytes()), Ok(proof));
        }
        let (mut at_branch, mut at_leaf) = (0, 0);
        for i in 2_000..2_400 {
            let proof = trie.prove(&addr(i), Hash256::ZERO);
            assert_eq!(proof.verify(&root, &addr(i)), Ok(None), "absent {i}");
            match proof.leaf {
                None => at_branch += 1,
                Some(_) => at_leaf += 1,
            }
        }
        assert!(at_branch > 0 && at_leaf > 0, "{at_branch} / {at_leaf}");
    }

    #[test]
    fn tampered_proofs_are_refused() {
        let trie = trie_of(2_000);
        let root = root_over(&trie);
        let target = addr(77);
        let proof = trie.prove(&target, Hash256::ZERO);
        assert!(proof.steps.len() >= 2);

        let mut richer = proof.clone();
        richer.leaf = richer.leaf.map(|(a, s)| (a, acct(s.balance + 1)));
        assert_eq!(richer.verify(&root, &target), Err(ProofError::RootMismatch));

        let mut dropped = proof.clone();
        dropped.steps[0].siblings.pop();
        assert_eq!(dropped.verify(&root, &target), Err(ProofError::Malformed));

        let mut swapped = proof.clone();
        swapped.steps[0].siblings.swap(0, 1);
        assert_eq!(
            swapped.verify(&root, &target),
            Err(ProofError::RootMismatch)
        );

        let mut shortened = proof.clone();
        shortened.steps.remove(0);
        assert!(shortened.verify(&root, &target).is_err());

        let mut no_leaf = proof.clone();
        no_leaf.leaf = None;
        assert_eq!(no_leaf.verify(&root, &target), Err(ProofError::Malformed));

        let mut wild = proof.clone();
        wild.steps[1].index = 200;
        assert_eq!(wild.verify(&root, &target), Err(ProofError::Malformed));

        // Someone else's path: an address that leaves the root elsewhere.
        let other = (0..)
            .map(addr)
            .find(|a| nibble(a, 0) != nibble(&target, 0))
            .expect("some address starts with another nibble");
        assert!(proof.verify(&root, &other).is_err());

        // Another state: same accounts, other anchors; or other accounts.
        let elsewhere = commitment(&trie.root_hash(), &sha256(b"other anchors"));
        assert_eq!(
            proof.verify(&elsewhere, &target),
            Err(ProofError::RootMismatch)
        );
        let mut later = trie.clone();
        later.update(&addr(3), |a| a.balance += 1);
        assert_eq!(
            proof.verify(&root_over(&later), &target),
            Err(ProofError::RootMismatch)
        );
        assert_eq!(proof.verify(&root, &target), Ok(Some(acct(78))));
    }
}
