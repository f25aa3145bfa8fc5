//! # tn-chain
//!
//! The permissioned blockchain substrate of the trusting-news platform.
//!
//! The paper builds its trusting-news ecosystem on a Hyperledger-style
//! permissioned chain; this crate is that substrate, reimplemented from
//! scratch:
//!
//! - [`codec`]: canonical binary encoding (consensus-critical bytes are
//!   never produced by a general-purpose serializer).
//! - [`transaction`]: signed transactions. News publications, propagation
//!   edges, ratings and fact attestations all travel as transactions, which
//!   is what gives the platform its accountability ("each record is signed
//!   and easy to track") and immutability properties.
//! - [`block`]: proposer-signed, hash-linked blocks with Merkle transaction
//!   roots.
//! - [`state`]: the replicated world state — balances (the incentive
//!   currency), nonces, and namespaced anchor roots (the factual-DB root is
//!   anchored here) — plus the transition function with a pluggable
//!   contract executor. Accounts live in `trie`, a persistent Merkle
//!   radix trie: a clone is O(1), a block re-hashes the paths it wrote,
//!   and a reader checks one account against a header's state root with
//!   an [`AccountProof`].
//! - `store`: block storage, parent-state validation, longest-chain fork
//!   choice, and the word to the executor about what became canonical. A
//!   proposer executes and accepts its own block in one pass
//!   ([`ChainStore::commit`]); blocks from elsewhere are validated in full
//!   ([`ChainStore::import`]), a run of them with one signature pass ahead
//!   of execution ([`ChainStore::import_run`]).
//! - `observer`: how the digests of views derived from canonical block
//!   history (supply-chain graph, identity registry, fact admissions, …)
//!   combine into one projection root, so replicas and replays can be
//!   compared by hash.
//! - `mempool`: fee-prioritised pending-transaction pool.
//!
//! Consensus (who gets to append) lives in `tn-consensus`; contract
//! execution lives in `tn-contracts`, the derived views in `tn-core`, and
//! both plug in through [`state::TxExecutor`].
//!
//! # Example
//!
//! ```
//! use tn_chain::prelude::*;
//! use tn_crypto::Keypair;
//!
//! let alice = Keypair::from_seed(b"alice");
//! let validator = Keypair::from_seed(b"validator");
//! let genesis = State::genesis([(alice.address(), 1_000)]);
//! let mut store = ChainStore::new(genesis, &validator);
//!
//! let tx = Transaction::signed(
//!     &alice,
//!     0,
//!     1,
//!     Payload::Blob { tag: blob_tags::NEWS_PUBLISH, data: b"story bytes".to_vec() },
//! );
//! let block = store.propose(&validator, 1, vec![tx], &mut NoExecutor);
//! store.import(&block, &mut NoExecutor)?;
//! assert_eq!(store.height(), 1);
//! # Ok::<(), tn_chain::ChainError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

pub mod block;
pub mod checkpoint;
pub mod codec;
mod error;
mod mempool;
mod observer;
pub mod sigcache;
pub mod state;
mod store;
pub mod transaction;
mod trie;

pub use block::{Block, BlockHeader};
pub use error::ChainError;
pub use state::{AccountState, NoExecutor, Receipt, State, TxExecutor};
pub use store::{ChainStore, CheckedBlock};
pub use transaction::{blob_tags, Payload, Transaction};
pub use trie::{AccountProof, ProofError};

/// Common imports for downstream crates.
pub mod prelude {
    pub use crate::block::{Block, BlockHeader};
    pub use crate::codec::{Decodable, Decoder, Encodable, Encoder};
    pub use crate::error::ChainError;
    pub use crate::mempool::Mempool;
    pub use crate::observer::projection_root;
    pub use crate::sigcache::SigCache;
    pub use crate::state::{NoExecutor, Receipt, State, TxExecutor};
    pub use crate::store::{ChainStore, CheckedBlock};
    pub use crate::transaction::{blob_tags, Payload, Transaction};
}
