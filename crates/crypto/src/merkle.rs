//! Binary Merkle trees with inclusion proofs.
//!
//! Used for two things in the platform: committing a block's transaction
//! set in its header, and anchoring the factual-news database so any client
//! can verify that a record is part of the authenticated corpus with a
//! logarithmic proof.
//!
//! Odd levels duplicate the final node (Bitcoin-style). Leaf and interior
//! hashes are domain-separated to rule out second-preimage tricks where an
//! interior node is presented as a leaf.

use serde::{Deserialize, Serialize};

use crate::hash::Hash256;
use crate::sha256::{sha256, Sha256};

/// Domain-separated leaf hash: `sha256(0x00 ‖ leaf)`.
pub fn leaf_hash(data: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

/// Domain-separated interior hash: `sha256(0x01 ‖ left ‖ right)`, its
/// 65 bytes handed to the hasher in one piece.
pub(crate) fn node_hash(left: &Hash256, right: &Hash256) -> Hash256 {
    let mut input = [0x01; 65];
    input[1..33].copy_from_slice(left.as_bytes());
    input[33..].copy_from_slice(right.as_bytes());
    sha256(&input)
}

/// The level above `level`; an odd last node pairs with itself.
fn parent_level(level: &[Hash256]) -> Vec<Hash256> {
    level
        .chunks(2)
        .map(|pair| node_hash(&pair[0], &pair[pair.len() - 1]))
        .collect()
}

/// A full Merkle tree retaining all levels, supporting proof generation.
///
/// # Example
///
/// ```
/// use tn_crypto::merkle::{MerkleTree, leaf_hash};
///
/// let leaves: Vec<_> = [b"a".as_slice(), b"b", b"c"].iter().map(|d| leaf_hash(d)).collect();
/// let tree = MerkleTree::from_leaves(leaves.clone());
/// let proof = tree.prove(1).unwrap();
/// assert!(proof.verify(&leaves[1], &tree.root()));
/// ```
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// `levels[0]` = leaves, last level = `[root]`. Empty tree has no levels.
    levels: Vec<Vec<Hash256>>,
}

impl MerkleTree {
    /// Builds a tree over pre-hashed leaves.
    ///
    /// An empty leaf set produces the [`Hash256::ZERO`] root sentinel.
    pub fn from_leaves(leaves: Vec<Hash256>) -> MerkleTree {
        if leaves.is_empty() {
            return MerkleTree { levels: Vec::new() };
        }
        let mut levels = vec![leaves];
        while let Some(top) = levels.last().filter(|level| level.len() > 1) {
            levels.push(parent_level(top));
        }
        MerkleTree { levels }
    }

    /// The root commitment ([`Hash256::ZERO`] for an empty tree).
    pub fn root(&self) -> Hash256 {
        self.levels
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or(Hash256::ZERO)
    }

    /// Number of leaves.
    pub(crate) fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// Builds an inclusion proof for leaf `index`, or `None` if out of
    /// range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            let sibling = level.get(sibling_idx).unwrap_or(&level[idx]);
            siblings.push(*sibling);
            idx /= 2;
        }
        Some(MerkleProof { index, siblings })
    }
}

impl FromIterator<Hash256> for MerkleTree {
    fn from_iter<I: IntoIterator<Item = Hash256>>(iter: I) -> Self {
        MerkleTree::from_leaves(iter.into_iter().collect())
    }
}

/// An inclusion proof: the leaf index and the sibling hashes from leaf
/// level to the root.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub(crate) index: usize,
    /// Sibling hashes, one per tree level (leaf level first).
    pub siblings: Vec<Hash256>,
}

impl MerkleProof {
    /// Verifies that `leaf` (already leaf-hashed) is committed under `root`.
    pub fn verify(&self, leaf: &Hash256, root: &Hash256) -> bool {
        let mut cur = *leaf;
        let mut idx = self.index;
        for sibling in &self.siblings {
            cur = if idx.is_multiple_of(2) {
                node_hash(&cur, sibling)
            } else {
                node_hash(sibling, &cur)
            };
            idx /= 2;
        }
        cur == *root
    }
}

/// Computes just the Merkle root of an item list without retaining levels
/// (cheaper when proofs are not needed, e.g. block construction).
pub fn merkle_root<I, T>(items: I) -> Hash256
where
    I: IntoIterator<Item = T>,
    T: AsRef<[u8]>,
{
    merkle_root_of_leaves(items.into_iter().map(|d| leaf_hash(d.as_ref())).collect())
}

/// Computes the Merkle root over pre-hashed leaves.
pub fn merkle_root_of_leaves(mut level: Vec<Hash256>) -> Hash256 {
    if level.is_empty() {
        return Hash256::ZERO;
    }
    while level.len() > 1 {
        level = parent_level(&level);
    }
    level[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_tree_zero_root() {
        let t = MerkleTree::from_leaves(vec![]);
        assert_eq!(t.len(), 0);
        assert_eq!(t.root(), Hash256::ZERO);
        assert!(t.prove(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let leaf = leaf_hash(b"only");
        let t = MerkleTree::from_leaves(vec![leaf]);
        assert_eq!(t.root(), leaf);
        let proof = t.prove(0).expect("in range");
        assert!(proof.siblings.is_empty());
        assert!(proof.verify(&leaf, &t.root()));
    }

    #[test]
    fn all_proofs_verify_for_various_sizes() {
        for size in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33] {
            let leaves: Vec<Hash256> = (0..size)
                .map(|i| leaf_hash(format!("item-{i}").as_bytes()))
                .collect();
            let t = MerkleTree::from_leaves(leaves.clone());
            for (i, leaf) in leaves.iter().enumerate() {
                let proof = t.prove(i).expect("in range");
                assert!(proof.verify(leaf, &t.root()), "size={size} i={i}");
            }
            assert!(t.prove(size).is_none());
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf() {
        let leaves: Vec<Hash256> = (0..8).map(|i| leaf_hash(&[i as u8])).collect();
        let t = MerkleTree::from_leaves(leaves.clone());
        let proof = t.prove(3).expect("in range");
        assert!(!proof.verify(&leaves[4], &t.root()));
        assert!(!proof.verify(&leaf_hash(b"forged"), &t.root()));
    }

    #[test]
    fn proof_fails_for_wrong_root() {
        let leaves: Vec<Hash256> = (0..4).map(|i| leaf_hash(&[i as u8])).collect();
        let t = MerkleTree::from_leaves(leaves.clone());
        let proof = t.prove(0).expect("in range");
        assert!(!proof.verify(&leaves[0], &leaf_hash(b"not the root")));
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let base: Vec<Hash256> = (0..5).map(|i| leaf_hash(&[i as u8])).collect();
        let root = MerkleTree::from_leaves(base.clone()).root();
        for i in 0..5 {
            let mut modified = base.clone();
            modified[i] = leaf_hash(b"tampered");
            assert_ne!(MerkleTree::from_leaves(modified).root(), root, "leaf {i}");
        }
    }

    #[test]
    fn merkle_root_matches_tree() {
        let items: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 3]).collect();
        let via_fn = merkle_root(items.iter());
        let via_tree = MerkleTree::from_leaves(items.iter().map(|d| leaf_hash(d)).collect()).root();
        assert_eq!(via_fn, via_tree);
    }

    #[test]
    fn leaf_and_node_domains_differ() {
        // A leaf containing exactly (left||right) must not hash to the
        // interior node of those children.
        let a = leaf_hash(b"a");
        let b = leaf_hash(b"b");
        let mut concat = Vec::new();
        concat.extend_from_slice(a.as_bytes());
        concat.extend_from_slice(b.as_bytes());
        assert_ne!(leaf_hash(&concat), node_hash(&a, &b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_every_proof_verifies(n in 1usize..40, pick in 0usize..40) {
            let leaves: Vec<Hash256> = (0..n).map(|i| leaf_hash(&(i as u64).to_be_bytes())).collect();
            let t = MerkleTree::from_leaves(leaves.clone());
            let i = pick % n;
            let proof = t.prove(i).expect("in range");
            prop_assert!(proof.verify(&leaves[i], &t.root()));
            prop_assert_eq!(proof.siblings.len(), t.levels.len() - 1);
        }

        #[test]
        fn prop_proof_binds_index(n in 2usize..40, pick in 0usize..40) {
            let leaves: Vec<Hash256> = (0..n).map(|i| leaf_hash(&(i as u64).to_be_bytes())).collect();
            let t = MerkleTree::from_leaves(leaves.clone());
            let i = pick % n;
            let j = (i + 1) % n;
            let proof = t.prove(i).expect("in range");
            // Proving leaf i does not validate leaf j's content.
            prop_assert!(!proof.verify(&leaves[j], &t.root()));
        }
    }
}
