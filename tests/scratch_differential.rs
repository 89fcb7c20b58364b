//! Differential suite: the fused scratch-arena query path versus the
//! relational engine, bit for bit.
//!
//! The relational path (`QueryEngine::search`) allocates a fresh operator
//! tree per query and is kept as the oracle; the fused path
//! (`QueryExecutor::search` / `search_hits_into`) reuses a scratch arena
//! across queries. This suite holds the two against each other — docids,
//! score **bits** (`f32::to_bits`, not approximate equality), pass counts
//! and error outcomes — across all of `SearchStrategy::ALL` (the two
//! `*Pruned` aliases included; they are also pinned to their twins by work
//! counters), over compressed, materialized-f32 and materialized-q8
//! indexes, in-memory and segment-backed, with randomized queries that
//! include unknown terms and duplicates.
//!
//! Between queries the executor's arena is deliberately **poisoned**
//! (overwritten with seed-derived garbage, including NaNs and stale
//! cursor positions): equality afterwards proves the hot path depends
//! only on state each query re-initializes, never on leftovers — the
//! exact property that makes arena reuse safe.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use x100_corpus::{CollectionConfig, Document, SyntheticCollection};
use x100_ir::{
    ExecError, IndexConfig, InvertedIndex, QueryEngine, QueryExecutor, QueryScratch,
    SearchResponse, SearchResult, SearchStrategy,
};

struct Fixture {
    queries: Vec<Vec<u32>>,
    /// One index per materialization mode; all eight strategies run on the
    /// materialized ones, the materialized ones error on the plain
    /// compressed one (and must error identically on both paths).
    indexes: Vec<Arc<InvertedIndex>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let mut queries: Vec<Vec<u32>> = c.eval_queries.iter().map(|q| q.terms.clone()).collect();
        queries.extend(c.efficiency_log.iter().take(10).cloned());
        let indexes = [
            IndexConfig::compressed(),
            IndexConfig::materialized_f32(),
            IndexConfig::materialized_q8(),
        ]
        .iter()
        .map(|cfg| Arc::new(InvertedIndex::build(&c, cfg)))
        .collect();
        Fixture { queries, indexes }
    })
}

/// Exact-comparison form of a result list: docid plus the score's bits.
fn bits(results: &[SearchResult]) -> Vec<(u32, u32)> {
    results
        .iter()
        .map(|r| (r.docid, r.score.to_bits()))
        .collect()
}

/// Asserts the fused path (through `exec`, arena poisoned first) agrees
/// with the relational oracle on one query, including error outcomes.
fn check_one(
    exec: &QueryExecutor,
    oracle: &QueryEngine<'_>,
    terms: &[u32],
    strategy: SearchStrategy,
    n: usize,
    poison_seed: u64,
) {
    let relational = oracle.search(terms, strategy, n);
    check_against(exec, &relational, terms, strategy, n, poison_seed);
}

/// [`check_one`] against an oracle outcome computed once and held against
/// several executors.
fn check_against(
    exec: &QueryExecutor,
    relational: &Result<SearchResponse, ExecError>,
    terms: &[u32],
    strategy: SearchStrategy,
    n: usize,
    poison_seed: u64,
) {
    exec.poison_scratch(poison_seed);
    let fused = exec.search(terms, strategy, n);
    match (&fused, relational) {
        (Ok(f), Ok(r)) => {
            assert_eq!(
                bits(&f.results),
                bits(&r.results),
                "fused vs relational diverged: {strategy:?} n={n} terms={terms:?}"
            );
            // Names ride along identically (same docids, same D table).
            assert_eq!(f.results, r.results);
            assert_eq!(f.passes, r.passes, "{strategy:?} n={n} terms={terms:?}");
        }
        (Err(_), Err(_)) => {} // both reject (e.g. materialized strategy, plain index)
        (f, r) => panic!(
            "outcome mismatch for {strategy:?} n={n} terms={terms:?}: \
             fused {:?} vs relational {:?}",
            f.as_ref().map(|x| x.results.len()),
            r.as_ref().map(|x| x.results.len()),
        ),
    }
}

#[test]
fn every_strategy_matches_relational_oracle_with_poisoned_arena() {
    let fx = fixture();
    for index in &fx.indexes {
        let exec = QueryExecutor::new(index.clone());
        let oracle = QueryEngine::new(index);
        let mut seed = 0x5EED_0001u64;
        for &strategy in &SearchStrategy::ALL {
            for n in [0usize, 1, 3, 10, 100] {
                for q in &fx.queries {
                    seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                    check_one(&exec, &oracle, q, strategy, n, seed);
                }
            }
        }
    }
}

/// Persists `index` and reopens it segment-backed (the file is unlinked
/// right away; the open handle keeps serving reads).
fn reopen_from_segment(index: &InvertedIndex) -> InvertedIndex {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "x100-scratch-diff-{}-{}.seg",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    index.write_segment(&path).expect("write segment");
    let reopened = InvertedIndex::open_segment(&path).expect("open segment");
    std::fs::remove_file(&path).expect("remove segment");
    reopened
}

#[test]
fn segment_backed_fused_path_matches_relational_oracle() {
    let fx = fixture();
    // The q8 index runs all eight strategies; reopened from its segment the
    // posting blocks are disk-resident and flow through the buffer pool.
    let reopened = Arc::new(reopen_from_segment(&fx.indexes[2]));
    let exec = QueryExecutor::new(reopened.clone());
    let oracle = QueryEngine::new(&reopened);
    for &strategy in &SearchStrategy::ALL {
        for (qi, q) in fx.queries.iter().enumerate() {
            check_one(&exec, &oracle, q, strategy, 10, 0xD15C_0000 ^ qi as u64);
        }
    }
}

/// Hits plus the pass count of one fused-path query, score bits exact.
fn fused_bits(
    engine: &QueryEngine<'_>,
    terms: &[u32],
    strategy: SearchStrategy,
    scratch: &mut QueryScratch,
) -> (Vec<(u32, u32)>, u8) {
    let mut hits = Vec::new();
    let meta = engine
        .search_hits_into(terms, strategy, 10, scratch, &mut hits)
        .expect("fused search");
    let hits = hits.iter().map(|&(d, s)| (d, s.to_bits())).collect();
    (hits, meta.passes)
}

#[test]
fn alias_tags_do_the_work_of_their_twins() {
    // Equal hits would also hold for a pruning loop; equal strides decoded,
    // rows scored and pool admissions hold only if tags 6 / 7 run the very
    // plan of tags 2 / 4.
    let fx = fixture();
    let reopened = reopen_from_segment(&fx.indexes[2]);
    let tag = |t| SearchStrategy::from_wire_tag(t).expect("tag in use");
    for index in [&*fx.indexes[2], &reopened] {
        for q in &fx.queries {
            for (alias, twin) in [(6, 2), (7, 4)] {
                // A fresh pool and a fresh arena each: totals are deltas.
                let work = |strategy| {
                    let engine = QueryEngine::new(index);
                    let mut scratch = QueryScratch::new();
                    let hits = fused_bits(&engine, q, strategy, &mut scratch);
                    (hits, scratch.hot_stats(), engine.buffers().stats())
                };
                assert_eq!(work(tag(alias)), work(tag(twin)), "tag {alias} on {q:?}");
            }
        }
    }
}

#[test]
fn one_scratch_shared_by_two_segment_indexes_matches_fresh_scratches() {
    // Two segment-backed indexes over different collections: their paged
    // metadata (term offsets, doc freqs, doc lengths) differs, so a
    // metadata window staged for one and served to the other is a wrong
    // answer. One arena alternates between them anyway.
    let fx = fixture();
    let other = SyntheticCollection::generate(&CollectionConfig {
        seed: 0xD1FF_E4E7,
        ..CollectionConfig::tiny()
    });
    let indexes = [
        reopen_from_segment(&fx.indexes[2]),
        reopen_from_segment(&InvertedIndex::build(
            &other,
            &IndexConfig::materialized_q8(),
        )),
    ];
    let engines = [QueryEngine::new(&indexes[0]), QueryEngine::new(&indexes[1])];
    let mut shared = QueryScratch::new();
    for (qi, q) in fx.queries.iter().enumerate() {
        let strategy = SearchStrategy::ALL[qi % SearchStrategy::ALL.len()];
        for (ei, engine) in engines.iter().enumerate() {
            assert_eq!(
                fused_bits(engine, q, strategy, &mut shared),
                fused_bits(engine, q, strategy, &mut QueryScratch::new()),
                "shared scratch diverged: index {ei} {strategy:?} terms={q:?}"
            );
        }
    }
}

#[test]
fn reused_scratch_counts_the_same_cold_io_as_a_fresh_one() {
    // A cold rerun — `evict_all`, then the same queries — must charge the
    // pool identically whether the arena is fresh or carries windows from
    // the run before: a window may not sit on a block across queries and
    // skip the pin that would have counted the re-read.
    let fx = fixture();
    let reopened = reopen_from_segment(&fx.indexes[2]);
    let engine = QueryEngine::new(&reopened);
    let cold_run = |scratch: &mut QueryScratch| {
        engine.buffers().evict_all();
        let before = engine.buffers().stats();
        for (qi, q) in fx.queries.iter().enumerate() {
            let strategy = SearchStrategy::ALL[qi % SearchStrategy::ALL.len()];
            fused_bits(&engine, q, strategy, scratch);
        }
        engine.buffers().stats().delta_since(&before)
    };
    let mut reused = QueryScratch::new();
    let first = cold_run(&mut reused);
    assert!(first.reads > 0);
    assert_eq!(cold_run(&mut reused), first, "reused scratch under-counted");
    assert_eq!(cold_run(&mut QueryScratch::new()), first);
}

#[test]
fn one_scratch_arena_survives_interleaved_strategies_and_poisoning() {
    // A single engine-level arena serving wildly different queries in
    // sequence — strategies, result sizes and term counts interleaved,
    // poison in between — must match per-query fresh execution.
    let fx = fixture();
    let index = &fx.indexes[2];
    let engine = QueryEngine::new(index);
    let mut scratch = QueryScratch::new();
    let mut seed = 7u64;
    for round in 0..3u64 {
        for (qi, q) in fx.queries.iter().enumerate() {
            let strategy = SearchStrategy::ALL[(qi + round as usize) % SearchStrategy::ALL.len()];
            let n = [0usize, 2, 10, 50][qi % 4];
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(round);
            scratch.poison(seed);
            let reused = engine
                .search_with_scratch(q, strategy, n, &mut scratch)
                .unwrap();
            let fresh = engine.search(q, strategy, n).unwrap();
            assert_eq!(bits(&reused.results), bits(&fresh.results));
            assert_eq!(reused.passes, fresh.passes);
        }
    }
}

/// A collection written out by hand: `lists[t]` is term `t`'s ascending
/// docids over `num_docs` documents, and one more term — id `lists.len()` —
/// sits in every document, so none is empty. Term frequencies vary with the
/// docid so scores (and their ties) are not all alike.
fn crafted_collection(num_docs: u32, lists: &[Vec<u32>]) -> SyntheticCollection {
    let everywhere = lists.len() as u32;
    let mut docs: Vec<Document> = (0..num_docs)
        .map(|id| Document {
            id,
            name: format!("doc{id}"),
            terms: Vec::new(),
            len: 0,
        })
        .collect();
    for (t, list) in lists.iter().enumerate() {
        assert!(list.windows(2).all(|w| w[0] < w[1]), "list {t} must ascend");
        for &d in list {
            docs[d as usize]
                .terms
                .push((t as u32, 1 + (d + t as u32) % 5));
        }
    }
    for doc in &mut docs {
        doc.terms.push((everywhere, 1 + doc.id % 7));
        doc.len = doc.terms.iter().map(|&(_, tf)| tf).sum();
    }
    SyntheticCollection {
        config: CollectionConfig {
            num_docs: num_docs as usize,
            vocab_size: lists.len() + 1,
            ..CollectionConfig::tiny()
        },
        docs,
        vocab: (0..=lists.len()).map(|t| format!("term{t}")).collect(),
        eval_queries: Vec::new(),
        efficiency_log: Vec::new(),
    }
}

#[test]
fn union_window_edges_match_relational_oracle() {
    // The exhaustive union sums postings into a docid window of a private
    // power-of-two width W starting at the live minimum docid. The lists
    // below put postings exactly on the last slot of a window and on the
    // first docid past it for every W from 2^8 to 2^14, with the window
    // starting at docid 0 and at docid 5.
    const NUM_DOCS: u32 = 20_000;
    let powers = || (8..=14).map(|i| 1u32 << i);
    let mut lists: Vec<Vec<u32>> = vec![
        // 0, 1: base 0 — `base + W - 1` in one list, `base + W` in the other.
        std::iter::once(0).chain(powers().map(|p| p - 1)).collect(),
        powers().collect(),
        // 2, 3: the same edges with the first window starting at docid 5.
        std::iter::once(5).chain(powers().map(|p| p + 4)).collect(),
        powers().map(|p| p + 5).collect(),
        // 4: a single posting.
        vec![12_345],
        // 5, 6: dense, disjoint docid ranges — one live term per window.
        (0..3_000).collect(),
        (10_000..13_000).collect(),
        // 7, 8: spread over the whole collection.
        (0..NUM_DOCS).step_by(3).collect(),
        (0..NUM_DOCS).step_by(7).collect(),
    ];
    // 9..=20: twelve lists of different strides and phases (k = 12).
    lists.extend((0..12u32).map(|j| (j..NUM_DOCS).step_by(11 + j as usize).collect()));
    // 21, 22, 23: the fold order. Eight docids hold all three terms, whose
    // idfs are ln(2500), ln(2) and ln(20000/19999): contributions orders of
    // magnitude apart, so summing a docid's terms in any order but the
    // query's flips low bits of its score against the oracle (computed and
    // f32 scores; q8 codes are small integers and sum exactly). The
    // `everywhere` term (idf 0) already adds exact `+0.0` contributions.
    let fold = (21u32, 22u32, 23u32);
    lists.push((0..8).map(|i| 1 + 2 * (i * 1_237)).collect());
    lists.push((0..NUM_DOCS).filter(|d| d % 2 == 1).collect());
    lists.push((1..NUM_DOCS).collect());
    let everywhere = lists.len() as u32;
    let queries: Vec<Vec<u32>> = vec![
        vec![0, 1],
        vec![1, 0],
        vec![2, 3],
        vec![0, 1, 2, 3],
        vec![7, 7],       // duplicate terms keep their own row
        vec![0, 7, 0, 1], // duplicates around another term
        vec![7],          // k = 1
        vec![4],          // k = 1, one posting
        vec![everywhere], // k = 1, every docid
        vec![4, 7],       // a one-posting list beside a long one
        vec![5, 6],       // disjoint ranges
        vec![5, 6, 0, 1, 4],
        (9..=20).collect(), // k = 12
        vec![8, 1, 3, 6],
        vec![fold.0, fold.1, fold.2],
        vec![fold.2, fold.1, fold.0],
    ];
    let collection = crafted_collection(NUM_DOCS, &lists);
    let mut indexes: Vec<Arc<InvertedIndex>> = [
        IndexConfig::compressed(),
        IndexConfig::materialized_f32(),
        IndexConfig::materialized_q8(),
    ]
    .iter()
    .map(|cfg| Arc::new(InvertedIndex::build(&collection, cfg)))
    .collect();
    indexes.push(Arc::new(reopen_from_segment(&indexes[2])));
    let mut seed = 0xED6E_0001u64;
    for index in &indexes {
        // The oracle keeps its default vector size and answers each query
        // once; the fused path runs it at sizes that put batch flushes
        // before, on and after the window edges.
        let oracle = QueryEngine::new(index);
        let execs = [1usize, 7, 128, 1024, 4096]
            .map(|vector_size| QueryExecutor::new(index.clone()).with_vector_size(vector_size));
        for &strategy in &SearchStrategy::ALL {
            for (qi, q) in queries.iter().enumerate() {
                let n = [3, 50][qi % 2];
                let relational = oracle.search(q, strategy, n);
                for exec in &execs {
                    seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                    check_against(exec, &relational, q, strategy, n, seed);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized queries (unknown terms, duplicates, empty), random n,
    /// random strategy, random poison seed, over every index flavor.
    #[test]
    fn random_queries_agree_bit_for_bit(
        raw_terms in prop::collection::vec(any::<u32>(), 0..6),
        strategy_idx in 0usize..SearchStrategy::ALL.len(),
        n in 0usize..25,
        poison_seed in any::<u64>(),
    ) {
        let fx = fixture();
        let strategy = SearchStrategy::ALL[strategy_idx];
        for index in &fx.indexes {
            // Fold raw ids into a band slightly wider than the vocabulary
            // so most terms exist but unknown ids stay represented.
            let span = index.num_terms() as u32 + 7;
            let terms: Vec<u32> = raw_terms.iter().map(|&t| t % span).collect();
            let exec = QueryExecutor::new(index.clone());
            let oracle = QueryEngine::new(index);
            check_one(&exec, &oracle, &terms, strategy, n, poison_seed);
        }
    }
}
