//! # tn-par
//!
//! What is left of the worker pool: the engine hashes and verifies on the
//! caller's own stack, and [`Pool`] only answers `ChainStore::verify_pool`,
//! which the benchmark package compiles against. The crate goes with
//! ROADMAP item 1(g), the benchmark change that may rewrite its lock file.
//!
//! ```
//! assert_eq!(tn_par::Pool.workers(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

/// The worker count the store verifies with: always one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pool;

impl Pool {
    /// The worker count: 1, the caller itself.
    pub fn workers(&self) -> usize {
        1
    }
}
