//! The allocation pin: steady-state query execution on the fused hot path
//! performs **zero heap allocations** per query.
//!
//! This binary installs [`x100_bench::alloc::CountingAlloc`] as its global
//! allocator (per-thread counters over `System`) and wraps warm queries in
//! `assert_no_allocs`. A warmup pass first grows every reusable buffer to
//! its steady-state size — the scratch arena's cursors, batch arrays and
//! heap, the caller's hits vector, the buffer pool's resident set — after
//! which each query must run without touching the allocator at all, for
//! every strategy of the Table 2 ladder, on the single-node executor, on
//! a segment-backed (disk-resident, warm) index, and inside per-node
//! scatter-gather worker threads.
//!
//! The counters are per-thread, so the parallel test harness cannot leak
//! another test's allocations into an assertion here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use x100_bench::alloc::{assert_no_allocs, count_allocs, CountingAlloc};
use x100_corpus::{CollectionConfig, SyntheticCollection};
use x100_distributed::SimulatedCluster;
use x100_ir::{IndexConfig, InvertedIndex, QueryExecutor, SearchStrategy};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const TOP_N: usize = 10;

fn fixture() -> (Vec<Vec<u32>>, Arc<InvertedIndex>) {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    // A materialized-Q8 compressed index runs all eight strategies.
    let index = Arc::new(InvertedIndex::build(&c, &IndexConfig::materialized_q8()));
    let mut queries: Vec<Vec<u32>> = c.eval_queries.iter().map(|q| q.terms.clone()).collect();
    queries.extend(c.efficiency_log.iter().take(10).cloned());
    (queries, index)
}

/// Guards the whole suite against a silent no-op: if the counting
/// allocator were not actually installed, every `assert_no_allocs` below
/// would pass vacuously.
#[test]
fn counting_allocator_is_live() {
    let (_, allocs, deallocs) = count_allocs(|| drop(std::hint::black_box(vec![1u8, 2, 3])));
    assert!(
        allocs >= 1 && deallocs >= 1,
        "counting allocator not installed: saw {allocs} allocs / {deallocs} deallocs"
    );
}

fn assert_steady_state_clean(
    label: &str,
    exec: &QueryExecutor,
    queries: &[Vec<u32>],
    strategies: &[SearchStrategy],
) {
    let mut out = Vec::new();
    // Warmup: grows the arena and hits buffer, faults every posting block
    // into the pool, and (on x86_64) runs CPU feature detection once.
    for &strategy in strategies {
        for q in queries {
            exec.search_hits_into(q, strategy, TOP_N, &mut out)
                .expect("warmup query failed");
        }
    }
    for &strategy in strategies {
        for (qi, q) in queries.iter().enumerate() {
            let context = format!("{label}: {strategy:?} query {qi}");
            assert_no_allocs(&context, || {
                exec.search_hits_into(q, strategy, TOP_N, &mut out)
                    .expect("warm query failed")
            });
        }
    }
}

#[test]
fn executor_steady_state_performs_zero_allocations() {
    let (queries, index) = fixture();
    let exec = QueryExecutor::new(index);
    assert_steady_state_clean("in-memory executor", &exec, &queries, &SearchStrategy::ALL);
}

#[test]
fn segment_backed_executor_is_allocation_free_once_warm() {
    let (queries, index) = fixture();
    let (reopened, path) = reopen_from_segment(&index);
    // Disk-backed blocks are `pread` and decoded on first touch (which
    // allocates); once resident, a block load is a slot hit handing out a
    // shared ref — the warmup inside drives all of that, after which the
    // assertions see the same zero-allocation path as the in-memory index.
    let exec = QueryExecutor::new(reopened);
    assert_steady_state_clean(
        "segment-backed executor",
        &exec,
        &queries,
        &SearchStrategy::ALL,
    );
    std::fs::remove_file(&path).expect("remove segment");
}

/// Persists `index` and reopens it segment-backed; the caller removes the
/// file once done.
fn reopen_from_segment(index: &InvertedIndex) -> (Arc<InvertedIndex>, std::path::PathBuf) {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "x100-hot-path-allocs-{}-{}.seg",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    index.write_segment(&path).expect("write segment");
    let reopened = Arc::new(InvertedIndex::open_segment(&path).expect("open segment"));
    (reopened, path)
}

#[test]
fn union_window_grows_once_for_the_widest_query_and_never_shrinks() {
    // The exhaustive union's buffers — accumulator, norms and presence
    // bitmap — are one window wide whatever the query; only the
    // conjunctive batch grows with the term count. A query wider than any
    // before it may allocate; from then on neither a narrower query nor
    // the wide one again may touch the allocator — no shrink, no second
    // growth — in the computed and in the materialized union.
    let (queries, index) = fixture();
    let mut wide: Vec<u32> = Vec::new();
    for &t in queries.iter().flatten() {
        if wide.len() < 12 && !wide.contains(&t) && !index.term_range(t).is_empty() {
            wide.push(t);
        }
    }
    assert_eq!(wide.len(), 12, "fixture too small for a 12-term query");
    let narrow = &wide[..2];
    let (reopened, path) = reopen_from_segment(&index);
    for (label, index) in [("in-memory", index), ("segment-backed", reopened)] {
        for strategy in [SearchStrategy::Bm25, SearchStrategy::Bm25Materialized] {
            let exec = QueryExecutor::new(index.clone());
            let mut out = Vec::new();
            let mut run = |q: &[u32]| {
                exec.search_hits_into(q, strategy, TOP_N, &mut out)
                    .expect("query failed")
            };
            run(narrow);
            run(&wide); // the widest query so far: 12 cursors
            for (what, q) in [("narrow after wide", narrow), ("wide again", &wide[..])] {
                assert_no_allocs(&format!("{label} {strategy:?}: {what}"), || run(q));
            }
        }
    }
    std::fs::remove_file(&path).expect("remove segment");
}

#[test]
fn scatter_gather_node_workers_are_allocation_free() {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let cluster = SimulatedCluster::build(&c, 3, &IndexConfig::materialized_q8());
    let queries: Vec<Vec<u32>> = c.eval_queries.iter().map(|q| q.terms.clone()).collect();
    // One thread per node, so that each node's search is counted by
    // per-thread counters of its own (`search_scatter` itself runs the
    // nodes one after another on the caller's thread): each thread warms
    // its node (pooling one scratch arena), then asserts its counters
    // stay untouched across warm queries. Spawning and the per-node
    // result handling may allocate — only the node-local search itself
    // is pinned.
    std::thread::scope(|s| {
        for (ni, node) in cluster.nodes().iter().enumerate() {
            let queries = &queries;
            s.spawn(move || {
                let mut out = Vec::new();
                for &strategy in &SearchStrategy::ALL {
                    for q in queries {
                        node.search_hits_into(q, strategy, TOP_N, &mut out)
                            .expect("warmup node query failed");
                    }
                }
                for &strategy in &SearchStrategy::ALL {
                    for (qi, q) in queries.iter().enumerate() {
                        let context = format!("node {ni}: {strategy:?} query {qi}");
                        assert_no_allocs(&context, || {
                            node.search_hits_into(q, strategy, TOP_N, &mut out)
                                .expect("warm node query failed")
                        });
                    }
                }
            });
        }
    });
}
