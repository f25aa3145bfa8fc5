//! The append-only, Merkle-authenticated factual database.
//!
//! "Only factual news can be stored in the factual database which is
//! managed by the blockchain smart contract for security and no one can
//! modify" (§VI). Here that is realised as: records are append-only,
//! content-addressed, committed under a Merkle root that the platform
//! anchors on-chain after every batch, and provable with logarithmic
//! inclusion proofs against any anchored root.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use tn_crypto::history::{ConsistencyProof, HistoryTree, InclusionProof};
use tn_crypto::Hash256;

use crate::record::FactRecord;

/// Errors from database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactDbError {
    /// The record is already present (content-addressed dedup).
    Duplicate(Hash256),
    /// Unknown record id.
    NotFound(Hash256),
}

impl fmt::Display for FactDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactDbError::Duplicate(h) => write!(f, "record {} already stored", h.short()),
            FactDbError::NotFound(h) => write!(f, "record {} not found", h.short()),
        }
    }
}

impl Error for FactDbError {}

/// The factual database.
///
/// # Example
///
/// ```
/// use tn_factdb::db::FactualDatabase;
/// use tn_factdb::record::{FactRecord, SourceKind};
///
/// let mut db = FactualDatabase::new();
/// let record = FactRecord {
///     source: SourceKind::PresidentialAddress,
///     speaker: "President Hale".into(),
///     topic: "economy".into(),
///     content: "We signed the infrastructure act today.".into(),
///     recorded_at: 1,
/// };
/// let id = db.append(record.clone())?;
/// let (proof, root) = db.prove(&id)?;
/// assert!(FactualDatabase::verify(&record, &proof, &root));
/// # Ok::<(), tn_factdb::db::FactDbError>(())
/// ```
#[derive(Debug, Default)]
pub struct FactualDatabase {
    /// Records in append order.
    records: Vec<FactRecord>,
    /// Append-only history tree over record leaf hashes.
    tree: HistoryTree,
    /// id → index.
    index: HashMap<Hash256, usize>,
}

impl FactualDatabase {
    /// New empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record, returning its content-addressed id.
    ///
    /// # Errors
    ///
    /// [`FactDbError::Duplicate`] when the identical record is present.
    pub fn append(&mut self, record: FactRecord) -> Result<Hash256, FactDbError> {
        let id = record.id();
        if self.index.contains_key(&id) {
            return Err(FactDbError::Duplicate(id));
        }
        let idx = self.records.len();
        self.index.insert(id, idx);
        self.tree.push(record.leaf_hash());
        self.records.push(record);
        Ok(id)
    }

    /// True when the record id is present.
    pub fn contains(&self, id: &Hash256) -> bool {
        self.index.contains_key(id)
    }

    /// Iterates records in append order.
    pub fn iter(&self) -> impl Iterator<Item = &FactRecord> {
        self.records.iter()
    }

    /// The current history-tree root over all records (the value anchored
    /// on-chain). [`Hash256::ZERO`] when empty.
    pub fn root(&self) -> Hash256 {
        self.tree.root()
    }

    /// Builds an inclusion proof for a record against the *current* root.
    ///
    /// # Errors
    ///
    /// [`FactDbError::NotFound`] for unknown ids.
    pub fn prove(&self, id: &Hash256) -> Result<(InclusionProof, Hash256), FactDbError> {
        let &idx = self.index.get(id).ok_or(FactDbError::NotFound(*id))?;
        let proof = self.tree.prove_inclusion(idx).expect("index in range");
        Ok((proof, self.tree.root()))
    }

    /// Verifies that `record` is committed under `root` by `proof` —
    /// the client-side check a reader runs against an on-chain anchor.
    pub fn verify(record: &FactRecord, proof: &InclusionProof, root: &Hash256) -> bool {
        HistoryTree::verify_inclusion(&record.leaf_hash(), proof, root)
    }

    /// Proves that the current database *extends* its state at `old_size`
    /// records — the append-only audit between two anchored roots ("no
    /// one can modify", §VI).
    ///
    /// # Errors
    ///
    /// [`FactDbError::NotFound`] (reusing the variant with a zero hash)
    /// when `old_size` exceeds the current length.
    pub fn prove_consistency(&self, old_size: usize) -> Result<ConsistencyProof, FactDbError> {
        self.tree
            .prove_consistency(old_size)
            .ok_or(FactDbError::NotFound(Hash256::ZERO))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SourceKind;
    use proptest::prelude::*;

    impl FactualDatabase {
        /// Looks up a record by id.
        fn get(&self, id: &Hash256) -> Option<&FactRecord> {
            self.index.get(id).map(|&i| &self.records[i])
        }
    }

    fn record(i: u64) -> FactRecord {
        FactRecord {
            source: SourceKind::ALL[(i % 5) as usize],
            speaker: format!("Speaker {}", i % 7),
            topic: format!("topic-{}", i % 3),
            content: format!("Statement number {i} about policy."),
            recorded_at: i,
        }
    }

    #[test]
    fn append_get_round_trip() {
        let mut db = FactualDatabase::new();
        let r = record(1);
        let id = db.append(r.clone()).unwrap();
        assert_eq!(db.get(&id), Some(&r));
        assert!(db.contains(&id));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn duplicate_rejected() {
        let mut db = FactualDatabase::new();
        db.append(record(1)).unwrap();
        assert!(matches!(
            db.append(record(1)),
            Err(FactDbError::Duplicate(_))
        ));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn proofs_verify_and_bind_content() {
        let mut db = FactualDatabase::new();
        let ids: Vec<Hash256> = (0..9).map(|i| db.append(record(i)).unwrap()).collect();
        let root = db.root();
        for (i, id) in ids.iter().enumerate() {
            let (proof, proof_root) = db.prove(id).unwrap();
            assert_eq!(proof_root, root);
            let rec = db.get(id).unwrap().clone();
            assert!(FactualDatabase::verify(&rec, &proof, &root), "record {i}");
            // Tampered record fails.
            let mut tampered = rec.clone();
            tampered.content.push_str(" [edited]");
            assert!(!FactualDatabase::verify(&tampered, &proof, &root));
        }
    }

    #[test]
    fn prove_unknown_id_errors() {
        let db = FactualDatabase::new();
        let bogus = tn_crypto::sha256::sha256(b"bogus");
        assert!(matches!(db.prove(&bogus), Err(FactDbError::NotFound(_))));
    }

    #[test]
    fn root_changes_on_every_append() {
        let mut db = FactualDatabase::new();
        let mut roots = vec![db.root()];
        for i in 0..8 {
            db.append(record(i)).unwrap();
            let r = db.root();
            assert!(!roots.contains(&r), "root repeated at {i}");
            roots.push(r);
        }
    }

    #[test]
    fn old_proofs_fail_against_new_root() {
        let mut db = FactualDatabase::new();
        let id = db.append(record(0)).unwrap();
        let (proof, old_root) = db.prove(&id).unwrap();
        db.append(record(1)).unwrap();
        let rec = db.get(&id).unwrap().clone();
        assert!(FactualDatabase::verify(&rec, &proof, &old_root));
        assert!(!FactualDatabase::verify(&rec, &proof, &db.root()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_all_proofs_verify(n in 1usize..30, pick in 0usize..30) {
            let mut db = FactualDatabase::new();
            let ids: Vec<Hash256> = (0..n as u64).map(|i| db.append(record(i)).unwrap()).collect();
            let id = ids[pick % n];
            let (proof, root) = db.prove(&id).unwrap();
            let rec = db.get(&id).unwrap().clone();
            prop_assert!(FactualDatabase::verify(&rec, &proof, &root));
        }

        #[test]
        fn prop_append_order_is_stable(n in 1usize..20) {
            let mut db = FactualDatabase::new();
            for i in 0..n as u64 {
                db.append(record(i)).unwrap();
            }
            let times: Vec<u64> = db.iter().map(|r| r.recorded_at).collect();
            let expect: Vec<u64> = (0..n as u64).collect();
            prop_assert_eq!(times, expect);
        }
    }
}
