//! Append-only history trees with consistency proofs (RFC 6962 style).
//!
//! The factual database must be *append-only*: "no one can modify" (§VI).
//! A plain Merkle root proves membership but not append-only-ness — a
//! malicious operator could rewrite history and publish a fresh root. A
//! Certificate-Transparency-style history tree fixes that: between any
//! two anchored roots a logarithmic **consistency proof** shows the new
//! tree contains the old one as a prefix, so light clients can audit that
//! records were only ever added, never altered or removed.
//!
//! Tree shape follows RFC 6962: `MTH(D[n]) = H(MTH(D[0:k]), MTH(D[k:n]))`
//! with `k` the largest power of two `< n`. Leaf and interior hashes are
//! [`crate::merkle`]'s, domain separation included.

use serde::{Deserialize, Serialize};

use crate::hash::Hash256;
use crate::merkle::node_hash;

/// Largest power of two strictly less than `n` (n ≥ 2).
fn split_point(n: usize) -> usize {
    let mut k = 1usize;
    while k * 2 < n {
        k *= 2;
    }
    k
}

/// An append-only Merkle history tree over pre-hashed leaves.
#[derive(Debug, Clone, Default)]
pub struct HistoryTree {
    leaves: Vec<Hash256>,
}

/// Inclusion proof against a specific tree size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InclusionProof {
    /// Index of the proven leaf.
    pub(crate) index: usize,
    /// Tree size the proof targets.
    pub(crate) tree_size: usize,
    /// Audit path, leaf-to-root order.
    pub siblings: Vec<Hash256>,
}

/// Consistency proof between two tree sizes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConsistencyProof {
    /// Size of the older tree.
    pub(crate) old_size: usize,
    /// Size of the newer tree.
    pub(crate) new_size: usize,
    /// Proof hashes per RFC 6962 `PROOF(m, D[n])`.
    pub hashes: Vec<Hash256>,
}

impl HistoryTree {
    /// Appends a pre-hashed leaf, returning its index.
    pub fn push(&mut self, leaf: Hash256) -> usize {
        self.leaves.push(leaf);
        self.leaves.len() - 1
    }

    fn mth(leaves: &[Hash256]) -> Hash256 {
        match leaves.len() {
            0 => Hash256::ZERO,
            1 => leaves[0],
            n => {
                let k = split_point(n);
                node_hash(&Self::mth(&leaves[..k]), &Self::mth(&leaves[k..]))
            }
        }
    }

    /// Root over all leaves ([`Hash256::ZERO`] when empty).
    pub fn root(&self) -> Hash256 {
        Self::mth(&self.leaves)
    }

    /// Builds an inclusion proof for leaf `index` against the current
    /// tree. Returns `None` when out of range.
    pub fn prove_inclusion(&self, index: usize) -> Option<InclusionProof> {
        if index >= self.leaves.len() {
            return None;
        }
        fn path(index: usize, leaves: &[Hash256]) -> Vec<Hash256> {
            let n = leaves.len();
            if n <= 1 {
                return Vec::new();
            }
            let k = split_point(n);
            if index < k {
                let mut p = path(index, &leaves[..k]);
                p.push(HistoryTree::mth(&leaves[k..]));
                p
            } else {
                let mut p = path(index - k, &leaves[k..]);
                p.push(HistoryTree::mth(&leaves[..k]));
                p
            }
        }
        Some(InclusionProof {
            index,
            tree_size: self.leaves.len(),
            siblings: path(index, &self.leaves),
        })
    }

    /// Verifies an inclusion proof.
    pub fn verify_inclusion(leaf: &Hash256, proof: &InclusionProof, root: &Hash256) -> bool {
        if proof.index >= proof.tree_size {
            return false;
        }
        if proof.tree_size == 0 {
            return false;
        }
        // RFC 6962 compact verification: inner = bit length of
        // index ^ (size-1); below that boundary, direction follows the
        // index bits; above it, every sibling is a left sibling.
        let inner = usize::BITS - (proof.index ^ (proof.tree_size - 1)).leading_zeros();
        let inner = inner as usize;
        if proof.siblings.len() != inner + border_ones(proof.index, inner) {
            return false;
        }
        let mut res = *leaf;
        for (i, h) in proof.siblings.iter().take(inner).enumerate() {
            res = if (proof.index >> i) & 1 == 1 {
                node_hash(h, &res)
            } else {
                node_hash(&res, h)
            };
        }
        for h in proof.siblings.iter().skip(inner) {
            res = node_hash(h, &res);
        }
        res == *root
    }

    /// Builds a consistency proof from the first `old_size` leaves to the
    /// current tree. Returns `None` when `old_size > len()`.
    pub fn prove_consistency(&self, old_size: usize) -> Option<ConsistencyProof> {
        let n = self.leaves.len();
        if old_size > n {
            return None;
        }
        fn subproof(m: usize, leaves: &[Hash256], complete: bool) -> Vec<Hash256> {
            let n = leaves.len();
            if m == n {
                if complete {
                    Vec::new()
                } else {
                    vec![HistoryTree::mth(leaves)]
                }
            } else {
                let k = split_point(n);
                if m <= k {
                    let mut p = subproof(m, &leaves[..k], complete);
                    p.push(HistoryTree::mth(&leaves[k..]));
                    p
                } else {
                    let mut p = subproof(m - k, &leaves[k..], false);
                    p.push(HistoryTree::mth(&leaves[..k]));
                    p
                }
            }
        }
        let hashes = if old_size == 0 || old_size == n {
            Vec::new()
        } else {
            subproof(old_size, &self.leaves, true)
        };
        Some(ConsistencyProof {
            old_size,
            new_size: n,
            hashes,
        })
    }

    /// Verifies that the tree of size `new_size` with root `new_root`
    /// extends the tree of size `old_size` with root `old_root`.
    ///
    /// The verifier walks the same recursion the prover used — the
    /// recursion shape is fully determined by `(old_size, new_size)` — and
    /// reconstructs both roots from the proof hashes.
    pub fn verify_consistency(
        old_root: &Hash256,
        new_root: &Hash256,
        proof: &ConsistencyProof,
    ) -> bool {
        let (m, n) = (proof.old_size, proof.new_size);
        if m > n {
            return false;
        }
        if m == n {
            return proof.hashes.is_empty() && old_root == new_root;
        }
        if m == 0 {
            // Anything extends the empty tree (whose root is the zero
            // sentinel).
            return proof.hashes.is_empty() && *old_root == Hash256::ZERO;
        }

        /// Reconstructs `(old_subtree_root, new_subtree_root)` for the
        /// subtree covering `n` leaves of which the first `m` are old,
        /// consuming proof hashes in prover order.
        fn reconstruct<'a>(
            m: usize,
            n: usize,
            complete: bool,
            it: &mut std::slice::Iter<'a, Hash256>,
            old_root: &Hash256,
        ) -> Option<(Hash256, Hash256)> {
            if m == n {
                return if complete {
                    // This subtree IS the old tree; its root is known.
                    Some((*old_root, *old_root))
                } else {
                    let h = *it.next()?;
                    Some((h, h))
                };
            }
            let k = split_point(n);
            if m <= k {
                // Old leaves live entirely in the left child; the right
                // child is new-only and appears as one proof hash.
                let (o, nw) = reconstruct(m, k, complete, it, old_root)?;
                let right = *it.next()?;
                Some((o, node_hash(&nw, &right)))
            } else {
                // Left child is a complete old subtree (one proof hash);
                // recurse right.
                let (o_r, n_r) = reconstruct(m - k, n - k, false, it, old_root)?;
                let left = *it.next()?;
                Some((node_hash(&left, &o_r), node_hash(&left, &n_r)))
            }
        }

        let mut it = proof.hashes.iter();
        let Some((o, nw)) = reconstruct(m, n, true, &mut it, old_root) else {
            return false;
        };
        it.next().is_none() && o == *old_root && nw == *new_root
    }
}

/// Number of 1-bits of `index` at positions ≥ `inner` (the "border" length
/// of an inclusion proof).
fn border_ones(index: usize, inner: usize) -> usize {
    (index >> inner).count_ones() as usize
}

impl FromIterator<Hash256> for HistoryTree {
    fn from_iter<I: IntoIterator<Item = Hash256>>(iter: I) -> Self {
        HistoryTree {
            leaves: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merkle::leaf_hash;
    use proptest::prelude::*;

    impl HistoryTree {
        /// Root over the first `m` leaves (a historical version).
        ///
        /// # Panics
        ///
        /// Panics if `m > len()`.
        fn root_at(&self, m: usize) -> Hash256 {
            assert!(m <= self.leaves.len(), "size out of range");
            Self::mth(&self.leaves[..m])
        }
    }

    fn leaves(n: usize) -> Vec<Hash256> {
        (0..n)
            .map(|i| leaf_hash(&(i as u64).to_be_bytes()))
            .collect()
    }

    fn tree(n: usize) -> HistoryTree {
        leaves(n).into_iter().collect()
    }

    #[test]
    fn roots_match_rfc_shape() {
        // n=3: H(H(l0,l1), l2) — unbalanced, unlike duplicate-padding.
        let l = leaves(3);
        let expect = node_hash(&node_hash(&l[0], &l[1]), &l[2]);
        assert_eq!(tree(3).root(), expect);
        // Empty and single.
        assert_eq!(HistoryTree::default().root(), Hash256::ZERO);
        assert_eq!(tree(1).root(), l[0]);
    }

    #[test]
    fn root_at_matches_smaller_tree() {
        let t = tree(13);
        for m in 0..=13 {
            assert_eq!(t.root_at(m), tree(m).root(), "m={m}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn inclusion_proofs_verify_for_all_sizes() {
        for n in 1..=40usize {
            let t = tree(n);
            let root = t.root();
            let l = leaves(n);
            for i in 0..n {
                let p = t.prove_inclusion(i).expect("in range");
                assert!(
                    HistoryTree::verify_inclusion(&l[i], &p, &root),
                    "n={n} i={i}"
                );
                // Wrong leaf fails.
                let wrong = leaf_hash(b"wrong");
                assert!(!HistoryTree::verify_inclusion(&wrong, &p, &root));
            }
            assert!(t.prove_inclusion(n).is_none());
        }
    }

    #[test]
    fn consistency_proofs_verify_for_all_prefixes() {
        for n in 1..=32usize {
            let t = tree(n);
            let new_root = t.root();
            for m in 0..=n {
                let old_root = t.root_at(m);
                let p = t.prove_consistency(m).expect("in range");
                assert!(
                    HistoryTree::verify_consistency(&old_root, &new_root, &p),
                    "m={m} n={n}"
                );
            }
        }
    }

    #[test]
    fn consistency_detects_rewrites() {
        // Build a 10-leaf tree, anchor its root, then REWRITE leaf 3 and
        // extend: no valid consistency proof can exist.
        let mut honest = leaves(10);
        let old_root = HistoryTree::mth(&honest[..]);
        honest[3] = leaf_hash(b"rewritten history");
        honest.extend(leaves(14)[10..].iter().copied());
        let evil: HistoryTree = honest.into_iter().collect();
        let p = evil.prove_consistency(10).expect("sizes ok");
        assert!(
            !HistoryTree::verify_consistency(&old_root, &evil.root(), &p),
            "rewrite must be detected"
        );
    }

    #[test]
    fn consistency_rejects_wrong_sizes_and_roots() {
        let t = tree(12);
        let p = t.prove_consistency(5).expect("ok");
        let old = t.root_at(5);
        let new = t.root();
        // Tampered proof hash.
        let mut bad = p.clone();
        if !bad.hashes.is_empty() {
            bad.hashes[0] = leaf_hash(b"junk");
            assert!(!HistoryTree::verify_consistency(&old, &new, &bad));
        }
        // Wrong old root.
        assert!(!HistoryTree::verify_consistency(&leaf_hash(b"x"), &new, &p));
        // Wrong new root.
        assert!(!HistoryTree::verify_consistency(&old, &leaf_hash(b"y"), &p));
        // m > n nonsense.
        let nonsense = ConsistencyProof {
            old_size: 13,
            new_size: 12,
            hashes: vec![],
        };
        assert!(!HistoryTree::verify_consistency(&old, &new, &nonsense));
        // Out-of-range prover.
        assert!(t.prove_consistency(13).is_none());
    }

    #[test]
    fn proof_sizes_are_logarithmic() {
        let t = tree(1024);
        let p = t.prove_inclusion(777).expect("ok");
        assert!(
            p.siblings.len() <= 10,
            "inclusion {} hashes",
            p.siblings.len()
        );
        let c = t.prove_consistency(513).expect("ok");
        assert!(
            c.hashes.len() <= 22,
            "consistency {} hashes",
            c.hashes.len()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_inclusion(n in 1usize..120, pick in 0usize..120) {
            let t = tree(n);
            let i = pick % n;
            let p = t.prove_inclusion(i).expect("in range");
            prop_assert!(HistoryTree::verify_inclusion(&leaves(n)[i], &p, &t.root()));
        }

        #[test]
        fn prop_consistency(n in 1usize..120, pick in 0usize..120) {
            let t = tree(n);
            let m = pick % (n + 1);
            let p = t.prove_consistency(m).expect("in range");
            prop_assert!(HistoryTree::verify_consistency(&t.root_at(m), &t.root(), &p));
        }

        #[test]
        fn prop_consistency_binds_old_root(n in 2usize..80, pick in 0usize..80) {
            let t = tree(n);
            let m = 1 + pick % (n - 1);
            let p = t.prove_consistency(m).expect("in range");
            // A DIFFERENT old tree of the same size must not verify.
            let other: HistoryTree =
                (0..m).map(|i| leaf_hash(format!("other-{i}").as_bytes())).collect();
            prop_assert!(!HistoryTree::verify_consistency(&other.root(), &t.root(), &p));
        }
    }
}
