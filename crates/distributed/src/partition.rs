//! Document partitioning.
//!
//! The collection is split into `n` partitions round-robin by docid, so
//! every partition sees the same term distribution in expectation (the
//! paper's "we can easily split up the document collection into N
//! partitions"). Each partition's builder assigns *local* dense docids in
//! arrival order; the original global docid is recoverable via the
//! per-node `global_ids` mapping (and redundantly via the preserved
//! document names).
//!
//! Note the statistics consequence the paper's setup shares: each node
//! computes BM25 from its *local* `f_D`, `f_{T,D}` and `avgdl`. With
//! round-robin partitioning these are `1/n`-scaled views of the global
//! statistics, so idf (a ratio) and avgdl are nearly unchanged and per-node
//! scores are directly mergeable.

/// The one doc→partition placement rule: global docid `doc_id` lives on
/// partition `doc_id mod n`. Every placement path — the cluster's routing
/// loop and any networked router — must go through this function;
/// duplicated copies of the formula can silently drift, and a drift
/// corrupts global-id routing (a query would merge hits whose global ids
/// were minted under a different placement than the one used to route
/// documents).
///
/// # Panics
/// Panics if `n == 0`.
pub fn partition_of(doc_id: u32, n: usize) -> usize {
    (doc_id as usize) % n
}
