//! The simulated cluster: one real index per partition, broadcast + merge.
//!
//! Each node holds a genuine [`InvertedIndex`] over its partition and a
//! persistent buffer pool (the paper keeps the whole compressed index in
//! RAM for the distributed runs — "thanks to MonetDB/X100's data
//! compression, the whole index (10GB) could be kept in RAM, so that I/O is
//! eliminated as a performance factor"). Query execution on a node is the
//! actual single-node engine; only the *network* between nodes is modeled
//! (see [`crate::schedule`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use x100_corpus::{CollectionStream, CollectionTail, Document, SyntheticCollection};
use x100_ir::{
    ExecError, HitsResponse, IndexBuilder, IndexConfig, InvertedIndex, QueryExecutor,
    SearchStrategy, SegmentError, SpillConfig, SpillStats,
};
use x100_storage::{BufferManager, BufferMode, DiskModel, IoStats};

use crate::net::Coordinator;
use crate::partition::partition_of;

/// Why the unbudgeted constructors may unwrap the spill path's errors.
const NEVER_SPILLS: &str = "an unbounded budget never spills, so the build never touches disk";

/// A typed per-node failure the coordinator can report (and a failover
/// layer can consume) instead of aborting the whole scatter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The node's local search failed — the engine returned an error (e.g.
    /// a materialized-score strategy over a partition built without score
    /// columns) or the search panicked; the partition contributed nothing
    /// to the merge.
    NodeFailed {
        /// Which partition failed.
        partition: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NodeFailed { partition } => {
                write!(f, "node for partition {partition} failed mid-query")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// One node: a [`QueryExecutor`] over the partition's index and its
/// persistent buffer pool, the partition's local→global docid mapping, and
/// a test-only fault hook. The executor lends every concurrent search a
/// scratch arena of its own.
pub struct Node {
    executor: QueryExecutor,
    global_ids: Vec<u32>,
    /// Test-only fault hook: when set, the next local search panics, so
    /// suites can exercise panic containment in the scatter and network
    /// paths without a genuinely corrupt index.
    panic_on_search: AtomicBool,
}

impl Node {
    /// Arms the test-only fault hook: every subsequent local search on
    /// this node panics until disarmed. Exists so fault-injection suites
    /// can pin that a panicking node is *contained* — reported as
    /// [`ClusterError::NodeFailed`] in-process, served by a replica over
    /// the network — rather than aborting the coordinator.
    #[doc(hidden)]
    pub fn inject_search_panic_for_tests(&self, armed: bool) {
        self.panic_on_search.store(armed, Ordering::SeqCst);
    }

    /// The node-local search, and the only one: the in-process scatter,
    /// [`SimulatedCluster::measure_compute`] and every
    /// [`crate::net::NodeServer`] run it. Fills `out` (cleared first) with
    /// up to `n` **node-local** `(docid, score)` hits, best first, through
    /// [`QueryExecutor::search_hits_into`], so steady-state calls are
    /// heap-allocation-free and concurrent callers never serialize.
    /// Callers translate docids with [`Self::global_id`] as they consume
    /// the hits.
    pub fn search_hits_into(
        &self,
        terms: &[u32],
        strategy: SearchStrategy,
        n: usize,
        out: &mut Vec<(u32, f32)>,
    ) -> Result<HitsResponse, ExecError> {
        if self.panic_on_search.load(Ordering::SeqCst) {
            panic!("injected node fault (test hook)");
        }
        self.executor.search_hits_into(terms, strategy, n, out)
    }

    /// The node's index.
    pub fn index(&self) -> &InvertedIndex {
        self.executor.index()
    }

    /// The node's persistent buffer pool.
    pub fn buffers(&self) -> &Arc<BufferManager> {
        self.executor.buffers()
    }

    /// Maps a node-local docid to the global docid.
    pub fn global_id(&self, local: u32) -> u32 {
        self.global_ids[local as usize]
    }
}

/// A merged, globally ranked hit.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedResult {
    /// Global document id.
    pub docid: u32,
    /// Score as computed by the owning node.
    pub score: f32,
    /// Document name.
    pub name: String,
    /// Which node produced it.
    pub node: usize,
}

/// Per-node accounting for one scatter-gather search.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTiming {
    /// Node index.
    pub node: usize,
    /// Wall-clock time of the node's local search, as observed by the
    /// scatter around its call (at least `cpu_time`; under a preempted or
    /// oversubscribed core it exceeds it).
    pub wall: Duration,
    /// The node engine's own CPU-side execution time.
    pub cpu_time: Duration,
    /// Simulated I/O the node charged during this query (zero in the usual
    /// hot, RAM-resident configuration).
    pub io: IoStats,
    /// Execution passes of the node's local search (two-pass strategies
    /// reach 2 when the conjunctive first pass came up short); 1 for
    /// strategies without a fallback, and for failed searches.
    pub passes: u8,
}

/// The coordinator's view of one scattered query: the merged global top-N
/// plus per-node latency accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatterResponse {
    /// Globally ranked hits, best first: what [`SimulatedCluster::search`]
    /// returns when no node failed.
    pub results: Vec<MergedResult>,
    /// One timing record per node, in node order. The slowest entry gates
    /// the query (§3.4's load-imbalance effect, now observable directly).
    pub node_timings: Vec<NodeTiming>,
    /// Time the coordinator spent merging the per-node top-N lists and
    /// naming the merged hits.
    pub merge_time: Duration,
    /// Nodes whose local search errored or panicked mid-query (empty on
    /// the happy path). A failed node contributed no hits: `results`
    /// covers the surviving partitions only, and the caller decides
    /// whether partial coverage is acceptable — the networked coordinator
    /// consumes this shape by retrying the partition on a replica
    /// instead.
    pub failures: Vec<ClusterError>,
}

/// A document-partitioned cluster of query nodes. Nodes are `Arc`-shared
/// so serving layers (the in-process worker pool, the networked
/// [`crate::net::NodeServer`]s) can hold handles to the same partition
/// state the cluster owns.
pub struct SimulatedCluster {
    nodes: Vec<Arc<Node>>,
}

impl SimulatedCluster {
    /// Partitions `collection` into `num_partitions` nodes and indexes each.
    ///
    /// # Panics
    /// Panics if `num_partitions == 0`.
    pub fn build(
        collection: &SyntheticCollection,
        num_partitions: usize,
        index_config: &IndexConfig,
    ) -> Self {
        let vocab = &collection.vocab;
        Self::build_routed(vocab, num_partitions, index_config, usize::MAX, |route| {
            route(&collection.docs)
        })
        .expect(NEVER_SPILLS)
        .0
    }

    /// Builds the cluster by *streaming* the collection: documents are
    /// routed to per-partition builders as each chunk arrives, and dropped
    /// immediately after — the `medium`/`large` scale path, where
    /// materializing the whole [`SyntheticCollection`] would dominate
    /// memory.
    ///
    /// Returns the cluster together with the workload tail (judged queries
    /// + efficiency log), which only exists once the stream is drained.
    ///
    /// # Panics
    /// Panics if `num_partitions == 0`.
    pub fn build_streaming(
        stream: CollectionStream,
        num_partitions: usize,
        index_config: &IndexConfig,
        chunk_size: usize,
    ) -> (Self, CollectionTail) {
        let (cluster, tail, _) = Self::build_streaming_spill(
            stream,
            num_partitions,
            index_config,
            chunk_size,
            usize::MAX,
        )
        .expect(NEVER_SPILLS);
        (cluster, tail)
    }

    /// [`Self::build_streaming`] under a total posting-memory budget: each
    /// partition gets an equal share of `budget_bytes` and spills sorted
    /// runs to disk when its share fills ([`IndexBuilder`]), so the
    /// whole cluster build's posting accumulators stay within the budget.
    /// Returns per-partition [`SpillStats`] alongside the cluster and tail;
    /// each entry carries both the accumulator peak and the finish-phase
    /// peak (`finish_peak_bytes`) of its partition's streaming columnar
    /// merge. Partitions finish **sequentially**, so the process-wide
    /// finish-phase footprint at any instant is one partition's
    /// `finish_peak_bytes` plus the resident accumulators of the partitions
    /// still waiting — the accounting `scale_pipeline --mem-budget` asserts.
    ///
    /// # Panics
    /// Panics if `num_partitions == 0`.
    pub fn build_streaming_spill(
        mut stream: CollectionStream,
        num_partitions: usize,
        index_config: &IndexConfig,
        chunk_size: usize,
        budget_bytes: usize,
    ) -> Result<(Self, CollectionTail, Vec<SpillStats>), SegmentError> {
        let vocab = stream.vocab();
        let (cluster, stats) = Self::build_routed(
            &vocab,
            num_partitions,
            index_config,
            budget_bytes,
            |route| {
                // Lives only while routing: the builders' finish phase must
                // not also hold the last chunk of documents.
                let mut chunk = Vec::new();
                while stream.next_chunk_into(chunk_size, &mut chunk) > 0 {
                    route(&chunk)?;
                }
                Ok(())
            },
        )?;
        Ok((cluster, stream.finish(), stats))
    }

    /// The one build path behind every constructor that indexes documents:
    /// `feed` hands document slices (in global docid order) to the routing
    /// loop, which places each on its [`partition_of`] builder; the
    /// builders then finish one after another. An [`IndexBuilder`] whose
    /// share of `budget_bytes` is never reached builds in memory, so the
    /// unbudgeted constructors pass `usize::MAX`.
    fn build_routed(
        vocab: &[String],
        num_partitions: usize,
        index_config: &IndexConfig,
        budget_bytes: usize,
        feed: impl FnOnce(
            &mut dyn FnMut(&[Document]) -> Result<(), SegmentError>,
        ) -> Result<(), SegmentError>,
    ) -> Result<(Self, Vec<SpillStats>), SegmentError> {
        assert!(num_partitions > 0, "at least one partition required");
        let per_partition = (budget_bytes / num_partitions).max(1);
        let mut builders: Vec<IndexBuilder> = (0..num_partitions)
            .map(|_| {
                IndexBuilder::new(
                    vocab.len(),
                    index_config,
                    SpillConfig::with_budget(per_partition),
                )
            })
            .collect();
        let mut global_ids: Vec<Vec<u32>> = vec![Vec::new(); num_partitions];
        feed(&mut |docs| {
            for doc in docs {
                let p = partition_of(doc.id, num_partitions);
                builders[p].push_doc(&doc.name, &doc.terms, doc.len)?;
                global_ids[p].push(doc.id);
            }
            Ok(())
        })?;
        let mut stats = Vec::with_capacity(num_partitions);
        let mut parts = Vec::with_capacity(num_partitions);
        for (builder, ids) in builders.into_iter().zip(global_ids) {
            let (index, s) = builder.finish(vocab)?;
            stats.push(s);
            parts.push((index, ids));
        }
        Ok((Self::from_partition_indexes(parts), stats))
    }

    /// Assembles a cluster from already-finished per-partition indexes and
    /// their local→global docid mappings — the single assembly point every
    /// constructor ends in.
    ///
    /// # Panics
    /// Panics if `parts` is empty or a mapping's length disagrees with its
    /// index's document count.
    pub fn from_partition_indexes(parts: Vec<(InvertedIndex, Vec<u32>)>) -> Self {
        assert!(!parts.is_empty(), "at least one partition required");
        let nodes = parts
            .into_iter()
            .map(|(index, global_ids)| {
                assert_eq!(
                    index.stats().num_docs as usize,
                    global_ids.len(),
                    "global-id mapping does not cover the partition"
                );
                let executor = QueryExecutor::with_buffering(
                    Arc::new(index),
                    DiskModel::instant(), // index held in RAM (§3.4)
                    BufferMode::Hot,
                    0,
                );
                Arc::new(Node {
                    executor,
                    global_ids,
                    panic_on_search: AtomicBool::new(false),
                })
            })
            .collect();
        SimulatedCluster { nodes }
    }

    /// Writes one partition segment per node next to `base`: node `i` goes
    /// to `<base>.p<i>`, each carrying its local→global docid map. Returns
    /// the paths in node order — feed them back to [`Self::open_segments`]
    /// (typically in a fresh process) to reassemble this exact cluster.
    pub fn persist_segments(&self, base: impl AsRef<Path>) -> Result<Vec<PathBuf>, SegmentError> {
        let base = base.as_ref();
        let mut paths = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            let mut path = base.as_os_str().to_owned();
            path.push(format!(".p{i}"));
            let path = PathBuf::from(path);
            node.index()
                .write_partition_segment(&node.global_ids, &path)?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// Reassembles a cluster from partition segments written by
    /// [`Self::persist_segments`], one node per path. Every segment is
    /// fully verified at open; posting blocks stay on disk and are `pread`
    /// through each node's buffer pool on first touch, so a freshly opened
    /// cluster serves cold and warms as queries run. Search results are
    /// bit-identical to the cluster that wrote the segments.
    pub fn open_segments(paths: &[PathBuf]) -> Result<Self, SegmentError> {
        assert!(!paths.is_empty(), "at least one partition required");
        let mut parts = Vec::with_capacity(paths.len());
        for path in paths {
            parts.push(InvertedIndex::open_partition_segment(path)?);
        }
        Ok(Self::from_partition_indexes(parts))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes, as shareable handles — a networked serving layer clones
    /// one per [`crate::net::NodeServer`] replica.
    pub fn nodes(&self) -> &[Arc<Node>] {
        &self.nodes
    }

    /// Broadcast a query, merge per-node top-`n` into the global top-`n`:
    /// [`Self::search_scatter`]'s results, for callers that need every
    /// partition.
    ///
    /// Ties on score order by global docid, matching the single-node
    /// engine's earlier-row preference.
    ///
    /// # Panics
    /// Panics if a node's search fails: a merge over partial coverage
    /// would be a silently wrong answer.
    pub fn search(&self, terms: &[u32], strategy: SearchStrategy, n: usize) -> Vec<MergedResult> {
        let resp = self.search_scatter(terms, strategy, n);
        if let Some(e) = resp.failures.first() {
            panic!("cluster search lost coverage: {e}");
        }
        resp.results
    }

    /// One node's local top-`n` (node-local docids, into `out`) and its
    /// timing, through [`Node::search_hits_into`] — the path every
    /// [`crate::net::NodeServer`] serves — on the calling thread, its
    /// failure contained: an engine error or a panic is the node's
    /// [`ClusterError::NodeFailed`], and the caller keeps running.
    fn node_search(
        node: &Node,
        ni: usize,
        terms: &[u32],
        strategy: SearchStrategy,
        n: usize,
        out: &mut Vec<(u32, f32)>,
    ) -> Result<NodeTiming, ClusterError> {
        let started = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| {
            node.search_hits_into(terms, strategy, n, out)
        })) {
            Ok(Ok(resp)) => Ok(NodeTiming {
                node: ni,
                wall: started.elapsed(),
                cpu_time: resp.cpu_time,
                io: resp.io,
                passes: resp.passes,
            }),
            // A panic's payload is already printed by the default hook;
            // what the caller needs is the typed fact that this partition
            // reported nothing.
            Ok(Err(_)) | Err(_) => Err(ClusterError::NodeFailed { partition: ni }),
        }
    }

    /// The gather: maps each node's local hits (given in node order) to
    /// global docids, merges them with [`Coordinator::merge_hits`] — the
    /// one ordering contract, shared with the networked coordinator — and
    /// only then names the ≤ `n` merged hits, each from the node that
    /// returned it. A name that does not resolve fails its node: the
    /// error is that node's index.
    fn merge_named(
        &self,
        per_node: &[Vec<(u32, f32)>],
        n: usize,
    ) -> Result<Vec<MergedResult>, usize> {
        // (global docid, node, local docid) of every candidate.
        let mut owners = Vec::new();
        let mut lists = Vec::with_capacity(per_node.len());
        for (ni, (hits, node)) in per_node.iter().zip(&self.nodes).enumerate() {
            let mut global = Vec::with_capacity(hits.len());
            for &(local, score) in hits {
                let docid = node.global_id(local);
                owners.push((docid, ni, local));
                global.push((docid, score));
            }
            lists.push(global);
        }
        owners.sort_unstable();
        Coordinator::merge_hits(lists, n)
            .into_iter()
            .map(|(docid, score)| {
                let at = owners.partition_point(|o| o.0 < docid);
                let (_, ni, local) = owners[at];
                let name = self.nodes[ni].index().doc_name(local).map_err(|_| ni)?;
                Ok(MergedResult {
                    docid,
                    score,
                    name: name.unwrap_or_default(),
                    node: ni,
                })
            })
            .collect()
    }

    /// Scatter-gather search: the query is broadcast to every partition,
    /// each node runs [`Node::search_hits_into`] — the path every
    /// [`crate::net::NodeServer`] serves — over its persistent buffer
    /// pool, and the coordinator merges the per-node top-`n` lists into
    /// the global top-`n` — the paper's §3.4 serving architecture
    /// ("broadcast to all indexing nodes ... merged into a global top-N"),
    /// executed rather than modeled. The nodes run one after another on
    /// the calling thread: a node search costs less than a thread would,
    /// and the per-node lists are gathered in node order before the one
    /// deterministic merge.
    ///
    /// A node whose search *errors or panics* does not abort the query: it
    /// is reported as a [`ClusterError::NodeFailed`] entry in
    /// [`ScatterResponse::failures`] (with a zeroed timing slot), and the
    /// merge covers the surviving partitions. Callers that cannot accept
    /// partial coverage check `failures`; the networked coordinator instead
    /// retries the partition on a replica.
    pub fn search_scatter(
        &self,
        terms: &[u32],
        strategy: SearchStrategy,
        n: usize,
    ) -> ScatterResponse {
        let mut per_node = Vec::with_capacity(self.nodes.len());
        let mut node_timings = Vec::with_capacity(self.nodes.len());
        let mut failures = Vec::new();
        for (ni, node) in self.nodes.iter().enumerate() {
            let mut hits = Vec::new();
            let timing =
                Self::node_search(node, ni, terms, strategy, n, &mut hits).unwrap_or_else(|e| {
                    failures.push(e);
                    hits.clear();
                    NodeTiming {
                        node: ni,
                        wall: Duration::ZERO,
                        cpu_time: Duration::ZERO,
                        io: IoStats::default(),
                        passes: 1,
                    }
                });
            per_node.push(hits);
            node_timings.push(timing);
        }
        let merge_started = Instant::now();
        // A node whose hit could not be named failed: it contributes no
        // hits, and the merge covers the rest.
        let results = loop {
            match self.merge_named(&per_node, n) {
                Ok(results) => break results,
                Err(ni) => {
                    failures.push(ClusterError::NodeFailed { partition: ni });
                    per_node[ni].clear();
                }
            }
        };
        ScatterResponse {
            results,
            node_timings,
            merge_time: merge_started.elapsed(),
            failures,
        }
    }

    /// Measures, for each query, the *actual* per-node execution time of
    /// the local top-`n` search (hot data), as `compute[query][node]`:
    /// the matrix the discrete-event scheduler consumes. Each node is timed
    /// through the scatter's contained node call, one node after another
    /// on the calling thread, so every measurement is one query on an
    /// otherwise idle core — as on the paper's one-server-per-partition
    /// cluster — and not a share of an oversubscribed one. An error or a
    /// panic is reported as that node's [`ClusterError::NodeFailed`].
    pub fn measure_compute(
        &self,
        queries: &[Vec<u32>],
        strategy: SearchStrategy,
        n: usize,
    ) -> Result<Vec<Vec<Duration>>, ClusterError> {
        let mut compute = vec![Vec::new(); queries.len()];
        let mut out = Vec::with_capacity(n);
        for (ni, node) in self.nodes.iter().enumerate() {
            // Warm the node once so measurements reflect the paper's
            // hot-data condition.
            if let Some(q) = queries.first() {
                Self::node_search(node, ni, q, strategy, n, &mut out)?;
            }
            for (row, q) in compute.iter_mut().zip(queries) {
                row.push(Self::node_search(node, ni, q, strategy, n, &mut out)?.cpu_time);
            }
        }
        Ok(compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use x100_corpus::CollectionConfig;

    fn setup(n: usize) -> (SyntheticCollection, SimulatedCluster) {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let cluster = SimulatedCluster::build(&c, n, &IndexConfig::compressed());
        (c, cluster)
    }

    #[test]
    fn merged_results_are_globally_ranked() {
        // The gather names the merged hits after the merge, each from the
        // node that returned it: the name and the node must be the global
        // docid's own.
        for k in [3, 4] {
            let (c, cluster) = setup(k);
            for q in c.eval_queries.iter().take(5) {
                let scattered = cluster.search_scatter(&q.terms, SearchStrategy::Bm25, 20);
                assert!(scattered.failures.is_empty());
                let merged = &scattered.results;
                assert!(!merged.is_empty() && merged.len() <= 20);
                assert!(merged.windows(2).all(|w| w[0].score >= w[1].score));
                for r in merged {
                    assert_eq!(r.name, format!("doc-{:08}", r.docid));
                    assert_eq!(r.node, partition_of(r.docid, k), "doc {}", r.docid);
                }
            }
        }
    }

    #[test]
    fn distributed_approximates_single_node() {
        // Per-node statistics are 1/n-scaled, so rankings agree up to
        // boundary effects. On the 300-doc tiny fixture a 2-way split keeps
        // the per-node statistics close enough to require strong overlap;
        // wider splits over so few documents make df/avgdl genuinely noisy
        // (150 docs per node), which is a property of tiny partitions, not
        // of the merge logic (checked exactly by the 1-node test below).
        let (c, cluster) = setup(2);
        let idx = InvertedIndex::build(&c, &IndexConfig::compressed());
        let engine = QueryExecutor::new(Arc::new(idx));
        let mut total_overlap = 0usize;
        let mut total = 0usize;
        for q in &c.eval_queries {
            let single: HashSet<u32> = engine
                .search(&q.terms, SearchStrategy::Bm25, 20)
                .unwrap()
                .results
                .iter()
                .map(|r| r.docid)
                .collect();
            let dist: HashSet<u32> = cluster
                .search(&q.terms, SearchStrategy::Bm25, 20)
                .iter()
                .map(|r| r.docid)
                .collect();
            total_overlap += single.intersection(&dist).count();
            total += single.len().min(20);
        }
        assert!(
            total_overlap * 100 >= total * 80,
            "overlap {total_overlap}/{total}"
        );
    }

    #[test]
    fn one_node_cluster_equals_single_engine_exactly() {
        let (c, cluster) = setup(1);
        let idx = InvertedIndex::build(&c, &IndexConfig::compressed());
        let engine = QueryExecutor::new(Arc::new(idx));
        for q in c.eval_queries.iter().take(3) {
            let single: Vec<(u32, String)> = engine
                .search(&q.terms, SearchStrategy::Bm25, 10)
                .unwrap()
                .results
                .into_iter()
                .map(|r| (r.docid, r.name))
                .collect();
            let dist: Vec<(u32, String)> = cluster
                .search(&q.terms, SearchStrategy::Bm25, 10)
                .into_iter()
                .map(|r| (r.docid, r.name))
                .collect();
            assert_eq!(single, dist);
        }
    }

    #[test]
    fn compute_matrix_has_query_by_node_shape() {
        let (c, cluster) = setup(3);
        let queries: Vec<Vec<u32>> = c.efficiency_log.iter().take(5).cloned().collect();
        let m = cluster
            .measure_compute(&queries, SearchStrategy::Bm25, 20)
            .unwrap();
        assert_eq!(m.len(), 5);
        assert!(m.iter().all(|row| row.len() == 3));
    }

    #[test]
    fn empty_query_returns_empty() {
        let (_, cluster) = setup(2);
        assert!(cluster.search(&[], SearchStrategy::Bm25, 10).is_empty());
    }

    #[test]
    fn streaming_build_equals_batch_build() {
        let cfg = CollectionConfig::tiny();
        let (c, batch) = setup(3);
        let stream = CollectionStream::new(&cfg);
        let (streamed, tail) =
            SimulatedCluster::build_streaming(stream, 3, &IndexConfig::compressed(), 64);
        assert_eq!(streamed.num_nodes(), batch.num_nodes());
        for (a, b) in streamed.nodes().iter().zip(batch.nodes()) {
            assert_eq!(a.global_ids, b.global_ids);
            assert_eq!(
                a.index().td().column("docid").unwrap().read_all(),
                b.index().td().column("docid").unwrap().read_all()
            );
            assert_eq!(
                a.index().td().column("tf").unwrap().read_all(),
                b.index().td().column("tf").unwrap().read_all()
            );
        }
        assert_eq!(tail.efficiency_log, c.efficiency_log);
        // Merged search results agree exactly.
        for q in c.eval_queries.iter().take(3) {
            assert_eq!(
                streamed.search(&q.terms, SearchStrategy::Bm25, 10),
                batch.search(&q.terms, SearchStrategy::Bm25, 10)
            );
        }
    }

    #[test]
    fn spill_streaming_build_equals_streaming_build() {
        let cfg = CollectionConfig::tiny();
        let (plain, _) = SimulatedCluster::build_streaming(
            CollectionStream::new(&cfg),
            3,
            &IndexConfig::compressed(),
            64,
        );
        let (spilled, tail, stats) = SimulatedCluster::build_streaming_spill(
            CollectionStream::new(&cfg),
            3,
            &IndexConfig::compressed(),
            64,
            12 * 1024, // 4 KiB per partition: forces several runs each
        )
        .unwrap();
        assert!(stats.iter().all(|s| s.runs > 0), "{stats:?}");
        assert!(stats.iter().all(|s| s.peak_accum_bytes <= 4 * 1024));
        // Finish-phase accounting is populated for every partition merge.
        assert!(stats.iter().all(|s| s.finish_peak_bytes > 0), "{stats:?}");
        for (a, b) in spilled.nodes().iter().zip(plain.nodes()) {
            assert_eq!(a.global_ids, b.global_ids);
            assert_eq!(
                a.index().td().column("docid").unwrap().read_all(),
                b.index().td().column("docid").unwrap().read_all()
            );
            assert_eq!(
                a.index().td().column("tf").unwrap().read_all(),
                b.index().td().column("tf").unwrap().read_all()
            );
        }
        for q in tail.eval_queries.iter().take(3) {
            assert_eq!(
                spilled.search(&q.terms, SearchStrategy::Bm25, 10),
                plain.search(&q.terms, SearchStrategy::Bm25, 10)
            );
        }
    }

    #[test]
    fn scatter_records_one_timing_per_node() {
        let (c, cluster) = setup(3);
        let resp = cluster.search_scatter(&c.eval_queries[0].terms, SearchStrategy::Bm25, 10);
        assert_eq!(resp.node_timings.len(), 3);
        for (i, t) in resp.node_timings.iter().enumerate() {
            assert_eq!(t.node, i);
            // The scatter's wall window contains the engine's own
            // execution window.
            assert!(
                t.wall >= t.cpu_time,
                "node {i}: wall {:?} < cpu {:?}",
                t.wall,
                t.cpu_time
            );
        }
    }

    #[test]
    fn scatter_on_empty_query_returns_empty() {
        let (_, cluster) = setup(2);
        let resp = cluster.search_scatter(&[], SearchStrategy::Bm25, 10);
        assert!(resp.results.is_empty());
        assert_eq!(resp.node_timings.len(), 2);
    }

    #[test]
    fn reopened_segment_cluster_is_bit_identical() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let cluster = SimulatedCluster::build(&c, 3, &IndexConfig::materialized_q8());
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let base = std::env::temp_dir().join(format!(
            "x100-cluster-segments-{}-{}",
            std::process::id(),
            CALLS.fetch_add(1, Ordering::Relaxed)
        ));
        let paths = cluster.persist_segments(&base).unwrap();
        assert_eq!(paths.len(), 3);
        let reopened = SimulatedCluster::open_segments(&paths).unwrap();
        assert_eq!(reopened.num_nodes(), cluster.num_nodes());
        for q in c.eval_queries.iter().take(5) {
            assert_eq!(
                reopened.search(&q.terms, SearchStrategy::Bm25Materialized, 20),
                cluster.search(&q.terms, SearchStrategy::Bm25Materialized, 20)
            );
        }
        for p in paths {
            std::fs::remove_file(p).unwrap();
        }
    }

    /// A hit whose name page cannot be read — here every name page of node
    /// 1, its block magic overwritten on disk after the open — fails its
    /// node, like a failed search: never an empty name in the merge.
    #[test]
    fn unnamed_hit_fails_its_node() {
        let (c, cluster) = setup(3);
        let base =
            std::env::temp_dir().join(format!("x100-cluster-unnamed-{}", std::process::id()));
        let paths = cluster.persist_segments(&base).unwrap();
        let reopened = SimulatedCluster::open_segments(&paths).unwrap();
        let q = &c.eval_queries[0].terms;
        let healthy = reopened.search_scatter(q, SearchStrategy::Bm25, 20);
        assert!(healthy.failures.is_empty() && healthy.results.iter().any(|r| r.node == 1));

        let mut bytes = std::fs::read(&paths[1]).unwrap();
        let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let (toc, count) = (u64_at(&bytes, 16) as usize, bytes[8] as usize);
        let names = (0..count)
            .map(|i| toc + 32 * i)
            .find(|&slot| bytes[slot] == 3)
            .map(|slot| u64_at(&bytes, slot + 8) as usize)
            .expect("a document-name section");
        let pages = u64_at(&bytes, names + 24) as usize;
        let images = names + 32 + 8 * (pages + 1);
        for p in 0..pages {
            let at = images + u64_at(&bytes, names + 32 + 8 * p) as usize;
            bytes[at..at + 4].fill(0xFF);
        }
        std::fs::write(&paths[1], &bytes).unwrap();

        let resp = reopened.search_scatter(q, SearchStrategy::Bm25, 20);
        assert_eq!(resp.failures, [ClusterError::NodeFailed { partition: 1 }]);
        assert!(resp
            .results
            .iter()
            .all(|r| r.node != 1 && !r.name.is_empty()));
        for p in paths {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn streaming_zero_partitions_rejected() {
        let stream = CollectionStream::new(&CollectionConfig::tiny());
        let _ = SimulatedCluster::build_streaming(stream, 0, &IndexConfig::compressed(), 64);
    }

    #[test]
    fn placement_agrees_with_partition_of_and_covers_every_doc_once() {
        // The routing loop places every document where `partition_of` says,
        // exactly once, round-robin balanced, numbered densely per node.
        let cfg = CollectionConfig::tiny();
        for n in [1usize, 2, 3, 5, 8] {
            let (streamed, _) = SimulatedCluster::build_streaming(
                CollectionStream::new(&cfg),
                n,
                &IndexConfig::compressed(),
                64,
            );
            let mut seen = vec![false; cfg.num_docs];
            for (pi, node) in streamed.nodes().iter().enumerate() {
                assert_eq!(
                    node.index().stats().num_docs as usize,
                    node.global_ids.len()
                );
                assert!(node.global_ids.len().abs_diff(cfg.num_docs / n) <= 1);
                for &g in &node.global_ids {
                    assert_eq!(partition_of(g, n), pi, "doc {g} with {n} partitions");
                    assert!(!seen[g as usize], "doc {g} in two partitions");
                    seen[g as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn more_partitions_than_docs_leaves_empty_nodes_searchable() {
        let mut cfg = CollectionConfig::tiny();
        cfg.num_docs = 3;
        cfg.relevant_per_query = 2;
        let c = SyntheticCollection::generate(&cfg);
        let cluster = SimulatedCluster::build(&c, 8, &IndexConfig::compressed());
        let sizes: Vec<usize> = cluster.nodes().iter().map(|n| n.global_ids.len()).collect();
        assert_eq!(sizes, [1, 1, 1, 0, 0, 0, 0, 0]);
        let q = &c.eval_queries[0].terms;
        let resp = cluster.search_scatter(q, SearchStrategy::Bm25, 10);
        assert!(resp.failures.is_empty());
        assert!(!resp.results.is_empty());
        assert!(
            resp.results.iter().all(|r| r.node < 3),
            "{:?}",
            resp.results
        );
    }

    #[test]
    fn failed_node_search_is_a_typed_failure_not_an_empty_result() {
        // A materialized-score strategy over partitions built without score
        // columns is a planning error on every node. It used to merge as
        // "no hits"; it must surface per partition instead.
        let (c, cluster) = setup(3);
        let q = &c.eval_queries[0].terms;
        let resp = cluster.search_scatter(q, SearchStrategy::Bm25Materialized, 10);
        assert_eq!(
            resp.failures,
            (0..3)
                .map(|partition| ClusterError::NodeFailed { partition })
                .collect::<Vec<_>>()
        );
        assert!(resp.results.is_empty());
        assert_eq!(resp.node_timings.len(), 3);
        assert!(cluster
            .measure_compute(
                std::slice::from_ref(q),
                SearchStrategy::Bm25Materialized,
                10
            )
            .is_err());
        // The sequential reference refuses partial coverage outright.
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.search(q, SearchStrategy::Bm25Materialized, 10)
        }));
        assert!(refused.is_err());
    }

    #[test]
    fn panicking_node_is_contained_and_reported() {
        // A node panic must not abort the scatter: the query completes
        // over the surviving partitions and the dead node surfaces as a
        // typed `ClusterError::NodeFailed` the failover layer can consume.
        let (c, cluster) = setup(3);
        let q = &c.eval_queries[0].terms;
        let healthy = cluster.search_scatter(q, SearchStrategy::Bm25, 20);
        assert!(healthy.failures.is_empty());

        cluster.nodes()[1].inject_search_panic_for_tests(true);
        let resp = cluster.search_scatter(q, SearchStrategy::Bm25, 20);
        assert_eq!(
            resp.failures,
            vec![ClusterError::NodeFailed { partition: 1 }],
            "exactly the injected node reports failure"
        );
        assert_eq!(
            resp.node_timings.len(),
            3,
            "timing slots stay in node order"
        );
        // The merge covers the surviving partitions: every healthy hit
        // from a surviving node is still present, bit-identical and in
        // rank order (hits freed by node 1's absence may interleave below
        // the old truncation boundary).
        assert!(resp.results.iter().all(|r| r.node != 1));
        let expected: Vec<_> = healthy.results.iter().filter(|r| r.node != 1).collect();
        assert!(resp.results.len() >= expected.len());
        let mut remaining = resp.results.iter();
        for want in &expected {
            assert!(
                remaining
                    .any(|got| (got.docid, got.score.to_bits())
                        == (want.docid, want.score.to_bits())),
                "surviving hit {want:?} missing from degraded merge"
            );
        }

        // measure_compute reports the same typed failure instead of
        // panicking (the `:500` twin of the scatter-path bug).
        let queries: Vec<Vec<u32>> = c.efficiency_log.iter().take(2).cloned().collect();
        assert_eq!(
            cluster.measure_compute(&queries, SearchStrategy::Bm25, 10),
            Err(ClusterError::NodeFailed { partition: 1 })
        );

        // Both panics unwound on this thread and were contained there:
        // the caller is still running, not unwinding.
        assert!(!std::thread::panicking());

        // The disarmed node serves whole again, in both callers.
        cluster.nodes()[1].inject_search_panic_for_tests(false);
        let recovered = cluster.search_scatter(q, SearchStrategy::Bm25, 20);
        assert!(recovered.failures.is_empty());
        assert_eq!(recovered.results, healthy.results);
        let m = cluster
            .measure_compute(&queries, SearchStrategy::Bm25, 10)
            .unwrap();
        assert!(m.len() == 2 && m.iter().all(|row| row.len() == 3));
    }
}
