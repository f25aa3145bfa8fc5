//! # tn-factdb
//!
//! The factual-news database: "a 'factual database' as a root of
//! blockchain data architecture … provides the ground truth and corner
//! stone for our system" (paper §VI).
//!
//! - [`record`]: content-addressed factual records with provenance classes
//!   (legislative speeches, official addresses, court records, …).
//! - [`db`]: the append-only store, Merkle-rooted so the platform can
//!   anchor its commitment on-chain and clients can verify membership with
//!   logarithmic proofs.
//! - [`corpus`]: a deterministic synthetic public-record generator standing
//!   in for the speech archives the paper assumes (see DESIGN.md for the
//!   substitution rationale).
//!
//! # Example
//!
//! ```
//! use tn_factdb::corpus::{seeded_database, CorpusConfig};
//!
//! let db = seeded_database(&CorpusConfig { size: 50, seed: 1, start_time: 0 });
//! assert_eq!(db.len(), 50);
//! let first = db.iter().next().expect("nonempty");
//! let (proof, root) = db.prove(&first.id())?;
//! assert!(tn_factdb::db::FactualDatabase::verify(first, &proof, &root));
//! # Ok::<(), tn_factdb::db::FactDbError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod corpus;
pub mod db;
pub mod record;

pub use record::{FactRecord, SourceKind};
