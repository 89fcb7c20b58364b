//! Concurrency differential suite: concurrent query execution over one
//! shared index and one shared (lock-striped) buffer pool must be
//! *observably sequential* — bit-identical hits for every query under
//! every [`SearchStrategy`], and the same accumulated I/O totals, no
//! matter how many threads interleave.
//!
//! This is the serving-path counterpart of `spill_vs_memory.rs`: there the
//! invariant is "spilling never changes the index"; here it is
//! "concurrency never changes the answer".

use std::sync::Arc;

use x100_corpus::{CollectionConfig, QueryLogGenerator, SyntheticCollection};
use x100_distributed::{run_closed_loop, ServeConfig, SimulatedCluster};
use x100_ir::{IndexConfig, InvertedIndex, QueryExecutor, SearchResult, SearchStrategy};
use x100_storage::{BufferManager, BufferMode, DiskModel, IoStats};

const TOP_N: usize = 15;

fn fixture() -> (Vec<Vec<u32>>, Arc<InvertedIndex>) {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    // A materialized-Q8 compressed index runs every strategy.
    let index = Arc::new(InvertedIndex::build(&c, &IndexConfig::materialized_q8()));
    let mut queries: Vec<Vec<u32>> = c.eval_queries.iter().map(|q| q.terms.clone()).collect();
    queries.extend(c.efficiency_log.iter().take(10).cloned());
    (queries, index)
}

/// A fresh hot pool: misses are charged exactly once per distinct block,
/// so total I/O is a set property of the workload — identical for any
/// execution order, which is what makes the stats differential exact.
fn hot_executor(index: &Arc<InvertedIndex>) -> QueryExecutor {
    QueryExecutor::with_buffer_manager(
        index.clone(),
        Arc::new(BufferManager::with_mode(
            DiskModel::raid12(),
            BufferMode::Hot,
            0,
        )),
    )
}

/// Runs every (query, strategy) job sequentially on a fresh pool.
fn sequential_reference(
    queries: &[Vec<u32>],
    index: &Arc<InvertedIndex>,
) -> (Vec<Vec<SearchResult>>, IoStats) {
    let exec = hot_executor(index);
    let mut results = Vec::new();
    for strategy in SearchStrategy::ALL {
        for q in queries {
            results.push(exec.search(q, strategy, TOP_N).expect("search").results);
        }
    }
    (results, exec.buffers().stats())
}

#[test]
fn threads_hammering_shared_pool_match_sequential_exactly() {
    let (queries, index) = fixture();
    let (reference, reference_io) = sequential_reference(&queries, &index);

    for num_threads in [2usize, 4, 8] {
        let exec = hot_executor(&index);
        // Job list in the same order as the reference.
        let jobs: Vec<(usize, SearchStrategy, &Vec<u32>)> = SearchStrategy::ALL
            .iter()
            .flat_map(|&s| queries.iter().map(move |q| (s, q)))
            .enumerate()
            .map(|(i, (s, q))| (i, s, q))
            .collect();
        std::thread::scope(|scope| {
            for t in 0..num_threads {
                let exec = exec.clone();
                let jobs = &jobs;
                let reference = &reference;
                scope.spawn(move || {
                    // Round-robin partition: every thread works a strided
                    // slice, so all strategies run concurrently with each
                    // other on the shared pool.
                    for &(i, strategy, q) in jobs.iter().skip(t).step_by(num_threads) {
                        let got = exec.search(q, strategy, TOP_N).expect("search").results;
                        assert_eq!(
                            got, reference[i],
                            "thread {t}/{num_threads} diverged on job {i} ({strategy:?})"
                        );
                    }
                });
            }
        });
        // Hot-pool I/O totals are a set property: same distinct blocks
        // touched => same reads, bytes and simulated time, bit for bit.
        assert_eq!(
            exec.buffers().stats(),
            reference_io,
            "{num_threads}-thread IoStats diverged from sequential"
        );
        exec.buffers().assert_consistent();
    }
}

#[test]
fn worker_pool_differential_over_generated_log() {
    // The same differential through the serving stack itself: generated
    // Zipf log, bounded-queue worker pool, per-strategy comparison.
    let (_, index) = fixture();
    let queries: Vec<Vec<u32>> =
        QueryLogGenerator::new(x100_corpus::QueryLogConfig::tiny(), 500, 7)
            .take(40)
            .collect();
    for strategy in SearchStrategy::ALL {
        let exec = hot_executor(&index);
        let reference: Vec<Vec<(u32, f32)>> = queries
            .iter()
            .map(|q| {
                exec.search(q, strategy, TOP_N)
                    .expect("search")
                    .results
                    .iter()
                    .map(|r| (r.docid, r.score))
                    .collect()
            })
            .collect();
        let concurrent = hot_executor(&index);
        let cfg = ServeConfig {
            workers: 3,
            queue_depth: 4,
            strategy,
            top_n: TOP_N,
            short_query_max_terms: None,
        };
        let report = run_closed_loop(&concurrent, &cfg, &queries);
        assert_eq!(report.completed, queries.len());
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.hits, reference[i], "{strategy:?} query {i}");
        }
        assert_eq!(
            concurrent.buffers().stats(),
            exec.buffers().stats(),
            "{strategy:?} pool totals diverged"
        );
    }
}

#[test]
fn scatter_gather_under_concurrent_load_matches_broadcast() {
    // Cluster serving: concurrent workers each scatter-gathering across
    // partitions must reproduce the sequential broadcast exactly.
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let cluster = Arc::new(SimulatedCluster::build(&c, 4, &IndexConfig::compressed()));
    let queries: Vec<Vec<u32>> = c.efficiency_log.iter().take(12).cloned().collect();
    let reference: Vec<Vec<(u32, f32)>> = queries
        .iter()
        .map(|q| {
            cluster
                .search(q, SearchStrategy::Bm25TwoPass, TOP_N)
                .into_iter()
                .map(|r| (r.docid, r.score))
                .collect()
        })
        .collect();
    let cfg = ServeConfig {
        workers: 2,
        queue_depth: 2,
        strategy: SearchStrategy::Bm25TwoPass,
        top_n: TOP_N,
        short_query_max_terms: None,
    };
    let report = run_closed_loop(&cluster, &cfg, &queries);
    for (i, outcome) in report.outcomes.iter().enumerate() {
        assert_eq!(outcome.hits, reference[i], "query {i}");
    }
}

#[test]
fn concurrent_queries_under_capacity_pressure_stay_correct() {
    // With a pool far smaller than the index, concurrent queries evict each
    // other's blocks constantly. I/O totals are then schedule-dependent —
    // but results must still be bit-identical, and the pool must stay
    // internally consistent and within budget.
    let (queries, index) = fixture();
    // Half the index's compressed bytes: every block individually fits,
    // but the columns together do not — guaranteed eviction churn.
    let capacity = ["docid", "tf", "score"]
        .iter()
        .filter_map(|n| index.td().column(n).ok())
        .flat_map(|c| (0..c.block_count()).map(move |b| c.block(b).compressed_bytes()))
        .sum::<usize>()
        / 2;
    let exec = QueryExecutor::with_buffer_manager(
        index.clone(),
        Arc::new(BufferManager::with_mode(
            DiskModel::raid12(),
            BufferMode::Cold,
            capacity,
        )),
    );
    let reference: Vec<Vec<SearchResult>> = {
        let seq = hot_executor(&index);
        queries
            .iter()
            .map(|q| {
                seq.search(q, SearchStrategy::Bm25, TOP_N)
                    .expect("search")
                    .results
            })
            .collect()
    };
    std::thread::scope(|scope| {
        for t in 0..4 {
            let exec = exec.clone();
            let queries = &queries;
            let reference = &reference;
            scope.spawn(move || {
                for _ in 0..3 {
                    for (i, q) in queries.iter().enumerate() {
                        let got = exec.search(q, SearchStrategy::Bm25, TOP_N).expect("search");
                        assert_eq!(got.results, reference[i], "thread {t} query {i}");
                    }
                }
            });
        }
    });
    exec.buffers().assert_consistent();
    assert!(
        exec.buffers().resident_bytes() <= capacity,
        "pool settled over its budget"
    );
    assert!(exec.buffers().stats().reads > 0);
}
