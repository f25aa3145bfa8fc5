//! # tn-par
//!
//! A zero-dependency, scoped fork-join worker pool for the trusting-news
//! platform's embarrassingly parallel hot paths: per-transaction signature
//! verification, Merkle leaf hashing, and independent contract batches.
//!
//! The paper's scalability argument (§VII, building on the authors'
//! ICDCS'18 parallel-architecture work) requires the verification path to
//! scale with hardware. This crate supplies the one primitive that path
//! needs: *order-preserving static partitioning* of a work list over
//! `std::thread::scope` workers. There is no queue, no work stealing and
//! no shared mutable state — each worker owns a contiguous chunk, so
//! results (and errors) compose back deterministically regardless of
//! worker count.
//!
//! Design rules:
//!
//! - A [`Pool`] is just a worker count; it owns no threads. Every call
//!   spawns scoped workers and joins them before returning, so borrowed
//!   data can flow into workers without `'static` bounds or `Arc`s.
//! - Work is split into at most `workers` contiguous chunks. One worker
//!   (or a single-item list) short-circuits to an inline loop on the
//!   caller's thread — a `Pool::new(1)` call sequence is byte-identical
//!   to not using the pool at all.
//! - [`Pool::try_check`] reports the *lowest-index* failure, exactly the
//!   error a sequential scan would return, while still pruning work past
//!   the best error found so far.
//!
//! # Example
//!
//! ```
//! use tn_par::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.map(&[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // First-error selection matches a sequential scan.
//! let r = pool.try_check(&[2u64, 7, 4, 9], |i, x| if x % 2 == 0 { Ok(()) } else { Err(i) });
//! assert_eq!(r, Err((1, 1)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// A fork-join worker pool: a worker count plus the chunking policy.
///
/// Cloning or sharing is trivial (`Copy`); the pool holds no resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Default for Pool {
    /// Same as [`Pool::auto`].
    fn default() -> Self {
        Pool::auto()
    }
}

impl Pool {
    /// A pool with exactly `workers` workers. Zero is clamped to one, so
    /// a miscomputed worker count degrades to sequential execution
    /// instead of panicking.
    pub fn new(workers: usize) -> Pool {
        Pool {
            workers: workers.max(1),
        }
    }

    /// A pool sized to the machine: `std::thread::available_parallelism`,
    /// falling back to one worker when the machine cannot say.
    pub fn auto() -> Pool {
        Pool::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// A single-worker (sequential) pool.
    pub fn sequential() -> Pool {
        Pool::new(1)
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Contiguous chunk boundaries splitting `n` items over the workers.
    fn chunk_ranges(&self, n: usize) -> Vec<(usize, usize)> {
        let parts = self.workers.min(n).max(1);
        let base = n / parts;
        let rem = n % parts;
        let mut ranges = Vec::with_capacity(parts);
        let mut lo = 0;
        for p in 0..parts {
            let len = base + usize::from(p < rem);
            ranges.push((lo, lo + len));
            lo += len;
        }
        ranges
    }

    /// Order-preserving parallel map over a shared slice.
    ///
    /// Equivalent to `items.iter().map(f).collect()` for any worker
    /// count; with more than one worker the chunks run on scoped threads.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_index(items.len(), |i| f(&items[i]))
    }

    /// Order-preserving parallel map over the index range `0..n`.
    ///
    /// The building block for maps whose input is not a plain slice
    /// (e.g. hashing adjacent pairs of a Merkle level).
    pub fn map_index<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.workers.min(n) <= 1 {
            return (0..n).map(f).collect();
        }
        let f = &f;
        let mut chunks: Vec<Vec<R>> = Vec::with_capacity(self.workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .chunk_ranges(n)
                .into_iter()
                .map(|(lo, hi)| scope.spawn(move || (lo..hi).map(f).collect::<Vec<R>>()))
                .collect();
            for h in handles {
                chunks.push(h.join().expect("tn-par worker panicked"));
            }
        });
        chunks.into_iter().flatten().collect()
    }

    /// Order-preserving parallel map over **fixed-size chunks** of a
    /// slice: `f` receives each chunk's index and contents, and the
    /// per-chunk results come back in chunk order.
    ///
    /// Chunk boundaries depend only on `chunk_size` (clamped to ≥ 1) —
    /// never on the worker count — so anything derived from a chunk's
    /// contents (e.g. a batched signature equation) is bit-identical
    /// across machines with different parallelism. The chunks themselves
    /// are distributed over the workers like any other work list.
    pub fn map_chunks<T, R, F>(&self, items: &[T], chunk_size: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
        self.map_index(chunks.len(), |i| f(i, chunks[i]))
    }

    /// Checks every item, returning `Ok(())` when all pass or the
    /// **lowest-index** failure `(index, error)` otherwise — byte-identical
    /// to a sequential `for` loop's first error, for any worker count.
    ///
    /// Workers prune items whose index is already above the best (lowest)
    /// failing index found so far, so a corrupt item near the front stops
    /// most of the remaining work without affecting which error is
    /// reported.
    pub fn try_check<T, E, F>(&self, items: &[T], f: F) -> Result<(), (usize, E)>
    where
        T: Sync,
        E: Send,
        F: Fn(usize, &T) -> Result<(), E> + Sync,
    {
        let n = items.len();
        if self.workers.min(n) <= 1 {
            for (i, item) in items.iter().enumerate() {
                f(i, item).map_err(|e| (i, e))?;
            }
            return Ok(());
        }
        // Lowest failing index seen so far; workers skip anything later.
        // An item before the final minimum is never skipped (the bound
        // only ever holds indices of actual failures), so the minimum
        // found equals the sequential first error.
        let best = AtomicUsize::new(usize::MAX);
        let best = &best;
        let f = &f;
        let mut first: Option<(usize, E)> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .chunk_ranges(n)
                .into_iter()
                .map(|(lo, hi)| {
                    scope.spawn(move || {
                        for (i, item) in items.iter().enumerate().take(hi).skip(lo) {
                            if i >= best.load(Ordering::Relaxed) {
                                return None;
                            }
                            if let Err(e) = f(i, item) {
                                best.fetch_min(i, Ordering::Relaxed);
                                return Some((i, e));
                            }
                        }
                        None
                    })
                })
                .collect();
            for h in handles {
                if let Some((i, e)) = h.join().expect("tn-par worker panicked") {
                    if first.as_ref().is_none_or(|(fi, _)| i < *fi) {
                        first = Some((i, e));
                    }
                }
            }
        });
        match first {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.map(&[1, 2, 3], |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn auto_pool_has_workers() {
        assert!(Pool::auto().workers() >= 1);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for workers in 1..6 {
            let pool = Pool::new(workers);
            for n in 0..20 {
                let ranges = pool.chunk_ranges(n);
                let mut expect = 0;
                for (lo, hi) in &ranges {
                    assert_eq!(*lo, expect);
                    assert!(hi >= lo);
                    expect = *hi;
                }
                assert_eq!(expect, n, "workers={workers} n={n}");
                assert!(ranges.len() <= workers.max(1));
            }
        }
    }

    #[test]
    fn map_preserves_order_for_any_worker_count() {
        let items: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 7).collect();
        for workers in [1, 2, 3, 8, 64] {
            assert_eq!(Pool::new(workers).map(&items, |x| x * 7), expect);
        }
    }

    #[test]
    fn map_index_matches_map() {
        let items: Vec<u32> = (0..41).collect();
        let pool = Pool::new(4);
        assert_eq!(
            pool.map_index(items.len(), |i| items[i] + 1),
            pool.map(&items, |x| x + 1)
        );
    }

    #[test]
    fn empty_inputs_are_fine() {
        let pool = Pool::new(8);
        assert!(pool.map(&[] as &[u8], |x| *x).is_empty());
        assert_eq!(
            pool.try_check(&[] as &[u8], |_, _| Ok::<(), ()>(())),
            Ok(())
        );
    }

    #[test]
    fn try_check_all_pass() {
        let items: Vec<u64> = (0..100).collect();
        for workers in [1, 3, 7] {
            assert_eq!(
                Pool::new(workers).try_check(&items, |_, _| Ok::<(), String>(())),
                Ok(())
            );
        }
    }

    #[test]
    fn try_check_reports_lowest_index_error() {
        // Failures at several indices: every worker count must report the
        // first one, like a sequential scan.
        let bad = [17usize, 40, 41, 90];
        let items: Vec<usize> = (0..100).collect();
        for workers in [1, 2, 3, 4, 16] {
            let got = Pool::new(workers).try_check(&items, |i, _| {
                if bad.contains(&i) {
                    Err(format!("bad {i}"))
                } else {
                    Ok(())
                }
            });
            assert_eq!(got, Err((17, "bad 17".to_string())), "workers={workers}");
        }
    }

    #[test]
    fn map_chunks_partitioning_is_worker_independent() {
        let items: Vec<u32> = (0..103).collect();
        // Expected: per-chunk (index, sum) pairs from a sequential chunking.
        let expect: Vec<(usize, u32)> = items
            .chunks(10)
            .enumerate()
            .map(|(i, c)| (i, c.iter().sum()))
            .collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = Pool::new(workers).map_chunks(&items, 10, |i, c| (i, c.iter().sum::<u32>()));
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn map_chunks_edge_sizes() {
        let items: Vec<u8> = (0..7).collect();
        let pool = Pool::new(4);
        // Zero chunk size clamps to one (7 singleton chunks).
        assert_eq!(pool.map_chunks(&items, 0, |_, c| c.len()), vec![1; 7]);
        // Chunk larger than the list: one chunk with everything.
        assert_eq!(pool.map_chunks(&items, 100, |_, c| c.len()), vec![7]);
        // Empty input: no chunks at all.
        assert!(pool.map_chunks(&[] as &[u8], 4, |_, c| c.len()).is_empty());
    }

    #[test]
    fn try_check_single_item() {
        assert_eq!(
            Pool::new(4).try_check(&[5u8], |i, _| Err::<(), usize>(i)),
            Err((0, 0))
        );
    }
}
