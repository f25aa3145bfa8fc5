//! The projection root: one hash over named projection digests.
//!
//! The paper's accountability claim is that every derived view of the
//! platform — supply-chain graph, identity registry, fact admissions,
//! headline cache — is a pure function of block history. The views
//! themselves live with whoever executes blocks (a
//! [`TxExecutor`](crate::state::TxExecutor) is told of every canonical
//! block, see [`crate::store`]); what the chain layer fixes is how their
//! digests combine, so two replicas — or a live node and a replay from
//! genesis — compare all of their derived state by one hash.

use tn_crypto::sha256::tagged_hash;
use tn_crypto::Hash256;

/// Combines named per-projection digests into one projection root:
/// `H("TN/projections" || (len(name) name digest)*)`.
///
/// Replicas agree on their full derived state iff they agree on this
/// root (given the same projections, in the same order).
pub fn projection_root(digests: &[(&'static str, Hash256)]) -> Hash256 {
    let mut data = Vec::with_capacity(digests.len() * 40);
    for (name, digest) in digests {
        data.extend_from_slice(&(name.len() as u64).to_le_bytes());
        data.extend_from_slice(name.as_bytes());
        data.extend_from_slice(digest.as_bytes());
    }
    tagged_hash("TN/projections", &data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_root_is_order_and_name_sensitive() {
        let a = ("alpha", tagged_hash("t", b"a"));
        let b = ("beta", tagged_hash("t", b"b"));
        let root_ab = projection_root(&[a, b]);
        let root_ba = projection_root(&[b, a]);
        assert_ne!(root_ab, root_ba);
        let renamed = ("alpha2", tagged_hash("t", b"b"));
        assert_ne!(projection_root(&[a, renamed]), projection_root(&[a, b]));
        assert_eq!(root_ab, projection_root(&[a, b]));
    }

    #[test]
    fn projection_root_of_empty_set_is_stable() {
        assert_eq!(projection_root(&[]), projection_root(&[]));
    }
}
