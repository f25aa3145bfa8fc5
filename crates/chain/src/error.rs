//! Chain-level error types.

use std::error::Error;
use std::fmt;

use tn_crypto::{Address, Hash256};

use crate::codec::DecodeError;

/// Errors raised while validating or applying transactions and blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// Signature did not verify against the sender's public key.
    BadSignature,
    /// The sender's declared public key does not hash to the `from` address.
    AddressMismatch,
    /// Transaction nonce does not match the account's next nonce.
    BadNonce {
        /// Account whose nonce mismatched.
        account: Address,
        /// Expected next nonce.
        expected: u64,
        /// Nonce carried by the transaction.
        actual: u64,
    },
    /// Sender balance is insufficient for value + fee.
    InsufficientBalance {
        /// Account that lacked funds.
        account: Address,
        /// Balance required.
        needed: u64,
        /// Balance available.
        available: u64,
    },
    /// Block references an unknown parent.
    UnknownParent(Hash256),
    /// Block height is not parent height + 1.
    BadHeight {
        /// Expected height.
        expected: u64,
        /// Height carried by the block.
        actual: u64,
    },
    /// Header transaction root does not match the block body.
    BadTxRoot,
    /// Header state root does not match the post-execution state.
    BadStateRoot,
    /// A block was submitted twice.
    DuplicateBlock(Hash256),
    /// A transaction was submitted twice.
    DuplicateTransaction(Hash256),
    /// Malformed binary encoding.
    Decode(DecodeError),
    /// The block's timestamp precedes its parent's.
    TimestampRegression,
    /// Contract execution failed (message from the executor).
    Execution(String),
    /// The mempool is full.
    MempoolFull,
    /// Anchor namespace updated by a non-authorized account.
    AnchorForbidden {
        /// Namespace being written.
        namespace: String,
    },
    /// The storage backend failed (I/O, corruption, protocol misuse).
    Storage(String),
    /// A checkpoint blob was missing, malformed, or inconsistent with the
    /// stored chain.
    Checkpoint(String),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::BadSignature => f.write_str("transaction signature invalid"),
            ChainError::AddressMismatch => {
                f.write_str("sender public key does not match from-address")
            }
            ChainError::BadNonce {
                account,
                expected,
                actual,
            } => write!(
                f,
                "bad nonce for {}: expected {expected}, got {actual}",
                account.short()
            ),
            ChainError::InsufficientBalance {
                account,
                needed,
                available,
            } => write!(
                f,
                "insufficient balance for {}: need {needed}, have {available}",
                account.short()
            ),
            ChainError::UnknownParent(h) => write!(f, "unknown parent block {}", h.short()),
            ChainError::BadHeight { expected, actual } => {
                write!(f, "bad block height: expected {expected}, got {actual}")
            }
            ChainError::BadTxRoot => f.write_str("transaction root mismatch"),
            ChainError::BadStateRoot => f.write_str("state root mismatch"),
            ChainError::DuplicateBlock(h) => write!(f, "duplicate block {}", h.short()),
            ChainError::DuplicateTransaction(h) => {
                write!(f, "duplicate transaction {}", h.short())
            }
            ChainError::Decode(e) => write!(f, "decode error: {e}"),
            ChainError::TimestampRegression => {
                f.write_str("block timestamp precedes parent timestamp")
            }
            ChainError::Execution(msg) => write!(f, "execution failed: {msg}"),
            ChainError::MempoolFull => f.write_str("mempool full"),
            ChainError::AnchorForbidden { namespace } => {
                write!(
                    f,
                    "account not authorized to anchor namespace {namespace:?}"
                )
            }
            ChainError::Storage(msg) => write!(f, "storage backend error: {msg}"),
            ChainError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
        }
    }
}

impl Error for ChainError {}

impl From<DecodeError> for ChainError {
    fn from(e: DecodeError) -> Self {
        ChainError::Decode(e)
    }
}

impl From<tn_storage::StorageError> for ChainError {
    fn from(e: tn_storage::StorageError) -> Self {
        ChainError::Storage(e.to_string())
    }
}
