//! Machine-local parallelism helpers: block-chunked, deterministic.
//!
//! Every engine's hot local loops fan out over a per-machine
//! [`ThreadPool`] via a [`ParallelCtx`]. The contract that keeps results
//! bitwise-identical at any thread count is simple and uniform:
//!
//! 1. chunk an *ordered* worklist into fixed-size blocks,
//! 2. compute per-block results from a read-only snapshot of shard state,
//! 3. commit the per-block results sequentially **in block-index order**.
//!
//! Step 3 is where floating-point folds and message emission happen, so
//! the schedule of step 2 can never leak into vertex data or NetStats.
//! DESIGN.md ("Two-level threading") documents the model.

use std::ops::Range;

use lazygraph_cluster::{CommError, ThreadPool};

/// Resolved per-machine parallelism settings, shared by all engines.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Threads per machine (≥ 1); resolved by
    /// [`crate::config::EngineConfig::resolve_threads`].
    pub threads: usize,
    /// Vertices (or worklist entries) per block.
    pub block_size: usize,
}

impl ParallelConfig {
    /// Sequential execution — what every engine gets when parallelism is
    /// not wired through (hybrid engine, unit tests).
    pub fn sequential() -> Self {
        ParallelConfig {
            threads: 1,
            block_size: usize::MAX,
        }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::sequential()
    }
}

/// One machine's pool plus chunking policy.
pub struct ParallelCtx {
    pool: ThreadPool,
    block_size: usize,
}

impl ParallelCtx {
    /// Starts the machine's pool; fails when the host refuses a thread.
    pub fn new(cfg: ParallelConfig) -> Result<Self, CommError> {
        Ok(ParallelCtx {
            pool: ThreadPool::new(cfg.threads.max(1))?,
            block_size: cfg.block_size.max(1),
        })
    }

    #[inline]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The pool itself, for callers that build their own block items
    /// (e.g. disjoint `&mut` chunks of shard state).
    #[inline]
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Runs `f` over block-sized chunks of `items`, results in block order.
    pub fn map_chunks<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a [T]) -> R + Sync,
    {
        self.pool
            .map(block_ranges(items.len(), self.block_size), |r| f(&items[r]))
    }
}

/// The block decomposition of `0..len`: every range is `block_size` long
/// except possibly the last.
pub fn block_ranges(len: usize, block_size: usize) -> Vec<Range<usize>> {
    let block_size = block_size.max(1);
    (0..len.div_ceil(block_size))
        .map(|b| b * block_size..((b + 1) * block_size).min(len))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_exactly() {
        for (len, bs) in [(0, 4), (1, 4), (4, 4), (5, 4), (1000, 7), (3, 1)] {
            let ranges = block_ranges(len, bs);
            let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
            assert_eq!(flat, (0..len).collect::<Vec<_>>(), "len={len} bs={bs}");
            assert!(ranges.iter().all(|r| r.len() <= bs));
        }
    }

    #[test]
    fn map_chunks_is_order_preserving() {
        let items: Vec<u64> = (0..997).collect();
        let expected: u64 = items.iter().sum();
        for threads in [1, 4] {
            let ctx = ParallelCtx::new(ParallelConfig {
                threads,
                block_size: 64,
            }).expect("spawn pool");
            let partials = ctx.map_chunks(&items, |c| c.iter().sum::<u64>());
            assert_eq!(partials.len(), block_ranges(items.len(), 64).len());
            assert_eq!(partials.iter().sum::<u64>(), expected);
            // Block order, not completion order.
            assert_eq!(partials[0], (0..64).sum::<u64>());
        }
    }

    #[test]
    fn sequential_config_uses_one_giant_block() {
        let ctx = ParallelCtx::new(ParallelConfig::sequential()).expect("spawn pool");
        assert_eq!(ctx.threads(), 1);
        let out = ctx.map_chunks(&[0u8; 10], <[u8]>::len);
        assert_eq!(out, vec![10]);
    }
}
