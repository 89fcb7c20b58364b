//! Shareable query execution for concurrent serving.
//!
//! [`crate::QueryEngine`] borrows its index, which is the right shape for
//! single-threaded experiments but awkward to hand to a worker pool. A
//! [`QueryExecutor`] owns `Arc` handles to the index and the buffer
//! manager instead: cloning one is two reference-count bumps plus an
//! empty `ScratchPool`, every query method takes `&self`, and the type
//! is statically `Send + Sync` — so a serving layer clones one executor
//! per worker thread and all workers share a single RAM-resident index
//! and one (lock-striped) buffer pool. Each query borrows a
//! [`crate::QueryScratch`] arena from its executor's pool and returns it,
//! so a worker's clone keeps reusing its own warm arena (steady-state
//! queries are allocation-free), and one executor shared through an `Arc`
//! lends each concurrent query an arena of its own instead of making them
//! wait on one.
//!
//! The execution vector size is fixed at construction (builder-style
//! [`QueryExecutor::with_vector_size`]); there is deliberately no `&mut`
//! setter, so an executor observed by many threads can never change
//! configuration under them.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use x100_corpus::{CollectionConfig, SyntheticCollection};
//! use x100_ir::{IndexConfig, InvertedIndex, QueryExecutor, SearchStrategy};
//!
//! let collection = SyntheticCollection::generate(&CollectionConfig::tiny());
//! let index = Arc::new(InvertedIndex::build(&collection, &IndexConfig::compressed()));
//! let executor = QueryExecutor::new(index);
//! let query = &collection.eval_queries[0];
//!
//! // Workers clone the executor; the index and buffer pool stay shared.
//! let handles: Vec<_> = (0..2)
//!     .map(|_| {
//!         let exec = executor.clone();
//!         let terms = query.terms.clone();
//!         std::thread::spawn(move || exec.search(&terms, SearchStrategy::Bm25, 10).unwrap())
//!     })
//!     .collect();
//! let mut responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
//! assert_eq!(responses[0].results, responses[1].results);
//! # let _ = responses.pop();
//! ```

use std::sync::Arc;

use x100_exec::ExecError;
use x100_storage::{BufferManager, BufferMode, DiskModel};
use x100_vector::VectorSize;

use crate::engine::{HitsResponse, QueryEngine, SearchResponse, SearchStrategy};
use crate::hot::ScratchPool;
use crate::index::InvertedIndex;

/// A cheaply clonable, thread-shareable query executor: `Arc`-owned index
/// and buffer pool, an immutable execution configuration, and a
/// `ScratchPool` that lends each query a [`crate::QueryScratch`] arena.
///
/// Query methods run the fused allocation-free path ([`crate::hot`]) over
/// a borrowed arena: buffers are cleared — not freed — between queries,
/// so a warmed executor answers queries without touching the allocator.
/// Concurrent queries on one executor each borrow an arena of their own,
/// so none waits for another; the usual shape is still one *clone* per
/// worker (the index and the lock-striped buffer pool stay shared).
pub struct QueryExecutor {
    index: Arc<InvertedIndex>,
    buffers: Arc<BufferManager>,
    vector_size: usize,
    scratch: ScratchPool,
}

impl Clone for QueryExecutor {
    /// Two reference-count bumps plus a fresh (empty) scratch pool — the
    /// arenas are per-executor working state, never shared by clones.
    fn clone(&self) -> Self {
        QueryExecutor {
            index: Arc::clone(&self.index),
            buffers: Arc::clone(&self.buffers),
            vector_size: self.vector_size,
            scratch: ScratchPool::new(),
        }
    }
}

// Compile-time guarantees: an executor can be handed to worker threads
// (`Send`), shared between them (`Sync`), and duplicated per worker
// (`Clone`). If a future field breaks any of these, this fails to build.
const _: () = {
    const fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
    assert_send_sync_clone::<QueryExecutor>();
};

impl QueryExecutor {
    /// Executor with hot (unbounded, warm-once) buffering and the default
    /// RAID disk model.
    pub fn new(index: Arc<InvertedIndex>) -> Self {
        Self::with_buffering(index, DiskModel::raid12(), BufferMode::Hot, 0)
    }

    /// Executor with an explicit disk model and buffer mode.
    pub fn with_buffering(
        index: Arc<InvertedIndex>,
        disk: DiskModel,
        mode: BufferMode,
        capacity_bytes: usize,
    ) -> Self {
        Self::with_buffer_manager(
            index,
            Arc::new(BufferManager::with_mode(disk, mode, capacity_bytes)),
        )
    }

    /// Executor over an externally owned buffer manager — the serving path
    /// keeps one persistent pool per node and clones executors over it.
    pub fn with_buffer_manager(index: Arc<InvertedIndex>, buffers: Arc<BufferManager>) -> Self {
        QueryExecutor {
            index,
            buffers,
            vector_size: VectorSize::DEFAULT.get(),
            scratch: ScratchPool::new(),
        }
    }

    /// Builder-style vector-size override, fixed for the executor's
    /// lifetime (and inherited by its clones).
    #[must_use]
    pub fn with_vector_size(mut self, size: impl Into<VectorSize>) -> Self {
        self.vector_size = size.into().get();
        self
    }

    /// The shared index.
    pub fn index(&self) -> &Arc<InvertedIndex> {
        &self.index
    }

    /// The shared buffer manager (for warming, evicting, stats).
    pub fn buffers(&self) -> &Arc<BufferManager> {
        &self.buffers
    }

    /// The configured vector size.
    pub fn vector_size(&self) -> usize {
        self.vector_size
    }

    /// A borrowed [`QueryEngine`] view over the shared index and pool —
    /// the per-query execution scratch. Construction is a few pointer
    /// copies; plans and decode buffers are built per query inside the
    /// engine's methods.
    pub fn engine(&self) -> QueryEngine<'_> {
        QueryEngine::with_buffer_manager(&self.index, self.buffers.clone())
            .with_vector_size(self.vector_size)
    }

    /// Runs one query: term ids in, ranked top-`n` out. Same response
    /// shape and bit-identical results as [`QueryEngine::search`], served
    /// by the fused scratch-arena path (the relational engine remains the
    /// differential oracle).
    pub fn search(
        &self,
        term_ids: &[u32],
        strategy: SearchStrategy,
        n: usize,
    ) -> Result<SearchResponse, ExecError> {
        let mut scratch = self.scratch.acquire();
        let response = self
            .engine()
            .search_with_scratch(term_ids, strategy, n, &mut scratch);
        self.scratch.release(scratch);
        response
    }

    /// The allocation-free query API for serving workers: fills `out`
    /// (cleared first) with up to `n` `(docid, score)` hits, best first,
    /// over an arena borrowed from this executor's pool. After a warmup
    /// query has grown the arena, a call performs zero heap allocations.
    /// See [`QueryEngine::search_hits_into`].
    pub fn search_hits_into(
        &self,
        term_ids: &[u32],
        strategy: SearchStrategy,
        n: usize,
        out: &mut Vec<(u32, f32)>,
    ) -> Result<HitsResponse, ExecError> {
        let mut scratch = self.scratch.acquire();
        let response = self
            .engine()
            .search_hits_into(term_ids, strategy, n, &mut scratch, out);
        self.scratch.release(scratch);
        response
    }

    /// Test hook: overwrites the arena the next query on this executor
    /// borrows with seed-derived garbage (see
    /// [`crate::QueryScratch::poison`]). Queries must produce
    /// bit-identical results regardless.
    pub fn poison_scratch(&self, seed: u64) {
        let mut scratch = self.scratch.acquire();
        scratch.poison(seed);
        self.scratch.release(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use x100_corpus::{CollectionConfig, SyntheticCollection};

    fn setup() -> (SyntheticCollection, QueryExecutor) {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let idx = Arc::new(InvertedIndex::build(&c, &IndexConfig::compressed()));
        let exec = QueryExecutor::new(idx);
        (c, exec)
    }

    #[test]
    fn executor_matches_borrowing_engine() {
        let (c, exec) = setup();
        let engine = QueryEngine::new(exec.index());
        for q in c.eval_queries.iter().take(3) {
            let a = exec.search(&q.terms, SearchStrategy::Bm25, 10).unwrap();
            let b = engine.search(&q.terms, SearchStrategy::Bm25, 10).unwrap();
            assert_eq!(a.results, b.results);
        }
    }

    #[test]
    fn clones_share_index_and_pool() {
        let (_, exec) = setup();
        let clone = exec.clone();
        assert!(Arc::ptr_eq(exec.index(), clone.index()));
        assert!(Arc::ptr_eq(exec.buffers(), clone.buffers()));
        assert_eq!(exec.vector_size(), clone.vector_size());
    }

    #[test]
    fn vector_size_is_construction_time_and_inherited() {
        let (c, exec) = setup();
        let tuned = exec.clone().with_vector_size(64usize);
        assert_eq!(tuned.vector_size(), 64);
        assert_eq!(tuned.clone().vector_size(), 64);
        let q = &c.eval_queries[0];
        assert_eq!(
            exec.search(&q.terms, SearchStrategy::Bm25, 10)
                .unwrap()
                .results,
            tuned
                .search(&q.terms, SearchStrategy::Bm25, 10)
                .unwrap()
                .results,
        );
    }

    #[test]
    fn concurrent_clones_agree_with_sequential() {
        let (c, exec) = setup();
        let queries: Vec<Vec<u32>> = c.eval_queries.iter().map(|q| q.terms.clone()).collect();
        let sequential: Vec<_> = queries
            .iter()
            .map(|q| {
                exec.search(q, SearchStrategy::Bm25TwoPass, 10)
                    .unwrap()
                    .results
            })
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let exec = exec.clone();
                let queries = &queries;
                let sequential = &sequential;
                s.spawn(move || {
                    for (q, expect) in queries.iter().zip(sequential) {
                        let got = exec.search(q, SearchStrategy::Bm25TwoPass, 10).unwrap();
                        assert_eq!(&got.results, expect);
                    }
                });
            }
        });
    }
}
