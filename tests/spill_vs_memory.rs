//! Differential oracle for spill-to-disk index construction: for any
//! posting-memory budget, [`IndexBuilder`] must produce exactly the index
//! it builds in memory when the budget is never reached
//! ([`InvertedIndex::build`]) — same posting columns, same document
//! statistics, same BM25 top-k — down to the pathological budget that
//! forces a spill after every single document.

use monetdb_x100::compress::{Codec, PER_BLOCK_WIDTH};
use monetdb_x100::corpus::{CollectionConfig, CollectionStream, Scale, SyntheticCollection};
use monetdb_x100::distributed::SimulatedCluster;
use monetdb_x100::ir::{
    build_index_streaming, build_index_streaming_spill, IndexBuilder, IndexConfig, InvertedIndex,
    Materialize, QueryEngine, SearchStrategy, SpillConfig,
};
use monetdb_x100::storage::{ColumnBuilder, SectionKind, SegmentReader};

/// Full structural equality: posting columns, range index, document
/// metadata and collection statistics.
fn assert_indexes_equal(a: &InvertedIndex, b: &InvertedIndex, vocab_len: usize) {
    assert_eq!(a.num_postings(), b.num_postings());
    assert_eq!(
        a.td().column("docid").unwrap().read_all(),
        b.td().column("docid").unwrap().read_all()
    );
    assert_eq!(
        a.td().column("tf").unwrap().read_all(),
        b.td().column("tf").unwrap().read_all()
    );
    if a.has_materialized_scores() {
        assert_eq!(
            a.td().column("score").unwrap().read_all(),
            b.td().column("score").unwrap().read_all()
        );
    }
    for t in 0..vocab_len as u32 {
        assert_eq!(a.term_range(t), b.term_range(t), "term {t}");
        assert_eq!(a.doc_freq(t), b.doc_freq(t), "term {t}");
    }
    assert_eq!(a.doc_lens(), b.doc_lens());
    assert_eq!(a.stats().num_docs, b.stats().num_docs);
    assert_eq!(a.stats().avg_doc_len, b.stats().avg_doc_len);
    assert_eq!(a.doc_name(0), b.doc_name(0));
}

/// Every metadata lookup of `idx` against the collection it was built from.
/// Indexes answer through one lookup implementation however they were
/// built or stored, so comparing two of them proves nothing about it: the
/// source collection is the arbiter.
fn assert_metadata_matches_source(c: &SyntheticCollection, idx: &InvertedIndex) {
    assert_eq!(idx.num_terms(), c.vocab.len());
    assert_eq!(idx.term_id(""), Ok(None));
    for (t, s) in c.vocab.iter().enumerate() {
        assert_eq!(idx.term_id(s), Ok(Some(t as u32)), "{s}");
        // Sorts right after `s`, so every page boundary gets a probe.
        assert_eq!(idx.term_id(&format!("{s}\u{1}")), Ok(None), "{s}+1");
    }
    assert_eq!(idx.num_docs(), c.docs.len());
    for (d, doc) in c.docs.iter().enumerate() {
        assert_eq!(idx.doc_name(d as u32), Ok(Some(doc.name.clone())));
        assert_eq!(idx.doc_lens()[d], doc.len as i32, "doc {d}");
    }
    assert_eq!(idx.doc_name(c.docs.len() as u32), Ok(None));
    assert_eq!(idx.doc_name(u32::MAX), Ok(None));
    // `ftd` is not stored: it is the length of the term's range.
    let mut next = 0;
    for t in 0..c.vocab.len() as u32 {
        let (range, df) = (idx.term_range(t), c.document_frequency(t));
        assert_eq!(idx.doc_freq(t) as usize, df, "term {t}");
        assert_eq!(range.len(), df, "term {t}");
        assert_eq!(range.start, next, "term {t}");
        next = range.end;
    }
    assert_eq!(next, idx.num_postings());
}

/// Identical BM25 rankings (docids *and* scores) on the judged queries.
fn assert_same_topk(a: &InvertedIndex, b: &InvertedIndex, c: &SyntheticCollection) {
    let (ea, eb) = (QueryEngine::new(a), QueryEngine::new(b));
    for strategy in [SearchStrategy::Bm25, SearchStrategy::Bm25TwoPass] {
        for q in &c.eval_queries {
            let ra = ea.search(&q.terms, strategy, 10).unwrap().results;
            let rb = eb.search(&q.terms, strategy, 10).unwrap().results;
            assert_eq!(ra, rb, "{strategy:?} diverged on {:?}", q.terms);
        }
    }
}

/// The collection built in memory and under `budget`, plus the number of
/// runs the budgeted build spilled.
fn build_in_memory_and_spilled(
    c: &SyntheticCollection,
    config: &IndexConfig,
    budget: usize,
) -> (InvertedIndex, InvertedIndex, usize) {
    let batch = InvertedIndex::build(c, config);
    let mut spilling = IndexBuilder::new(c.vocab.len(), config, SpillConfig::with_budget(budget));
    spilling.push_docs(&c.docs).unwrap();
    let (spilled, stats) = spilling.finish(&c.vocab).unwrap();
    // A run holds either at most the budget (accumulator plus the run
    // writer's reserved pending blocks) or one document alone, which the
    // run writer's pending block may hold a second time while it drains.
    let max_doc_bytes = c.docs.iter().map(|d| d.terms.len() * 8).max().unwrap();
    assert!(
        stats.peak_accum_bytes <= budget.max(2 * max_doc_bytes),
        "peak {} exceeded budget {budget}",
        stats.peak_accum_bytes
    );
    (batch, spilled, stats.runs)
}

#[test]
fn in_memory_and_spilled_builds_agree_at_tiny_across_budgets_and_configs() {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let max_doc_bytes = c.docs.iter().map(|d| d.terms.len() * 8).max().unwrap();
    for config in [
        IndexConfig::uncompressed(),
        IndexConfig::compressed(),
        IndexConfig::materialized_f32(),
        IndexConfig::materialized_q8(),
    ] {
        for budget in [usize::MAX, 64 * 1024, 8 * 1024, max_doc_bytes] {
            let (batch, spilled, _) = build_in_memory_and_spilled(&c, &config, budget);
            assert_indexes_equal(&spilled, &batch, c.vocab.len());
            if config.materialize == Materialize::None {
                assert_same_topk(&spilled, &batch, &c);
            }
        }
    }
}

#[test]
fn metadata_matches_the_source_collection_built_spilled_and_reopened() {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let path = std::env::temp_dir().join(format!("x100-meta-source-{}", std::process::id()));
    for config in [
        IndexConfig::uncompressed(),
        IndexConfig::compressed(),
        IndexConfig::materialized_q8(),
    ] {
        let (batch, spilled, runs) = build_in_memory_and_spilled(&c, &config, 8 * 1024);
        let (_, spilled_64k, runs_64k) = build_in_memory_and_spilled(&c, &config, 64 * 1024);
        assert!(
            runs > 1 && runs_64k > 1,
            "spilled indexes must come from the merge"
        );
        batch.write_segment(&path).unwrap();
        // The writer streams the index's own pages, so the file's page
        // counts are the built index's: lookups must cross a page boundary
        // in both.
        let reader = SegmentReader::open(&path).unwrap();
        for kind in [SectionKind::Terms, SectionKind::DocNames] {
            let pages = reader.open_column(kind, "pages").unwrap().block_count();
            assert!(pages >= 2, "{kind:?} fits one page");
        }
        let reopened = InvertedIndex::open_segment(&path).unwrap();
        for idx in [&batch, &spilled, &spilled_64k, &reopened] {
            assert_metadata_matches_source(&c, idx);
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// The streaming columnar finish (run merge → `IndexColumnsWriter` →
/// block-at-a-time compression) against the pre-streaming reference
/// discipline: materialize the whole (term, docid)-sorted posting columns,
/// then compress them in one shot. Every block must serialize to the exact
/// same bytes, and the whole index persist to the same segment, at every
/// budget — including the never-spilled in-memory drain and the
/// one-run-per-document pathology — and the finish-phase peak accounting
/// must be populated.
#[test]
fn streaming_columnar_finish_bit_identical_to_materialize_then_compress() {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let mut config = IndexConfig::compressed();
    config.block_size = 256; // force many blocks even at tiny scale

    // Reference: the old materialize-then-compress path, reconstructed from
    // first principles (sort all postings, compress the full columns).
    let mut rows: Vec<(u32, u32, u32)> = Vec::new();
    for (docid, doc) in c.docs.iter().enumerate() {
        for &(term, tf) in &doc.terms {
            rows.push((term, docid as u32, tf));
        }
    }
    rows.sort_unstable();
    let per_block = PER_BLOCK_WIDTH;
    let mut ref_docid = ColumnBuilder::with_block_size(
        "docid",
        Codec::PforDelta { width: per_block },
        config.block_size,
    );
    let mut ref_tf =
        ColumnBuilder::with_block_size("tf", Codec::Pfor { width: per_block }, config.block_size);
    for &(_, d, f) in &rows {
        ref_docid.push(d);
        ref_tf.push(f);
    }
    let (ref_docid, ref_tf) = (ref_docid.finish(), ref_tf.finish());
    assert!(
        ref_docid.block_count() > 10,
        "fixture too small to be probative"
    );

    let batch = InvertedIndex::build(&c, &config);
    // The never-spilled build's segment, the first budget's: every
    // budgeted build must persist to the same bytes.
    let path = std::env::temp_dir().join(format!("x100-spill-bits-{}", std::process::id()));
    let mut unbudgeted_segment = None;
    for budget in [usize::MAX, 32 * 1024, 4 * 1024, 1] {
        let mut b = IndexBuilder::new(c.vocab.len(), &config, SpillConfig::with_budget(budget));
        b.push_docs(&c.docs).unwrap();
        let (idx, stats) = b.finish(&c.vocab).unwrap();
        assert!(stats.finish_peak_bytes > 0, "budget {budget}");
        idx.write_segment(&path).unwrap();
        let segment = std::fs::read(&path).unwrap();
        let expect = unbudgeted_segment.get_or_insert_with(|| segment.clone());
        assert!(*expect == segment, "segment diverged at budget {budget}");
        for (name, reference) in [("docid", &ref_docid), ("tf", &ref_tf)] {
            let col = idx.td().column(name).unwrap();
            assert_eq!(col.len(), reference.len(), "{name} budget={budget}");
            assert_eq!(
                col.block_count(),
                reference.block_count(),
                "{name} budget={budget}"
            );
            for i in 0..col.block_count() {
                assert_eq!(
                    col.block(i).to_bytes(),
                    reference.block(i).to_bytes(),
                    "{name} block {i} diverged at budget {budget}"
                );
            }
            assert_eq!(
                col.read_all(),
                reference.read_all(),
                "{name} budget={budget}"
            );
        }
        assert_same_topk(&idx, &batch, &c);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn pathological_budget_spills_after_every_document() {
    // A budget smaller than any document: every push flushes the previous
    // document as its own run, so the build degenerates to one run per
    // document — and must *still* merge back to the exact batch index.
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let config = IndexConfig::compressed();
    let batch = InvertedIndex::build(&c, &config);
    let mut spilling = IndexBuilder::new(c.vocab.len(), &config, SpillConfig::with_budget(1));
    spilling.push_docs(&c.docs).unwrap();
    let (spilled, stats) = spilling.finish(&c.vocab).unwrap();
    assert_eq!(stats.runs, c.docs.len(), "one run per document");
    assert_eq!(stats.spilled_postings as usize, batch.num_postings());
    assert_indexes_equal(&spilled, &batch, c.vocab.len());
    assert_same_topk(&spilled, &batch, &c);
}

#[test]
fn small_scale_streamed_spill_matches_unbudgeted() {
    let cfg = Scale::Small.config();
    let (plain, plain_tail) = build_index_streaming(
        CollectionStream::new(&cfg),
        &IndexConfig::compressed(),
        Scale::Small.chunk_size(),
    );
    let (spilled, tail, stats) = build_index_streaming_spill(
        CollectionStream::new(&cfg),
        &IndexConfig::compressed(),
        Scale::Small.chunk_size(),
        SpillConfig::with_budget(256 * 1024),
    )
    .unwrap();
    assert!(
        stats.runs > 4,
        "only {} runs at a 256 KiB budget",
        stats.runs
    );
    assert!(stats.peak_accum_bytes <= 256 * 1024);
    // The streamed finish stays far below the total posting volume: its
    // peak is one decoded block per run column plus two pending blocks.
    assert!(stats.finish_peak_bytes > 0);
    assert!(
        stats.finish_peak_bytes < spilled.num_postings() * 8 / 2,
        "finish peak {} should be well under the {}-byte materialized columns",
        stats.finish_peak_bytes,
        spilled.num_postings() * 8
    );
    assert_eq!(tail.efficiency_log, plain_tail.efficiency_log);
    assert_indexes_equal(&spilled, &plain, cfg.vocab_size);

    // Identical top-20 on the efficiency workload too.
    let (ep, es) = (QueryEngine::new(&plain), QueryEngine::new(&spilled));
    for q in tail.efficiency_log.iter().take(50) {
        assert_eq!(
            ep.search(q, SearchStrategy::Bm25TwoPass, 20)
                .unwrap()
                .results,
            es.search(q, SearchStrategy::Bm25TwoPass, 20)
                .unwrap()
                .results
        );
    }
}

#[test]
fn spilled_cluster_matches_unbudgeted_cluster() {
    let cfg = CollectionConfig::tiny();
    let (plain, _) = SimulatedCluster::build_streaming(
        CollectionStream::new(&cfg),
        4,
        &IndexConfig::compressed(),
        64,
    );
    let (spilled, tail, stats) = SimulatedCluster::build_streaming_spill(
        CollectionStream::new(&cfg),
        4,
        &IndexConfig::compressed(),
        64,
        16 * 1024,
    )
    .unwrap();
    assert!(stats.iter().all(|s| s.runs > 0));
    for q in &tail.eval_queries {
        assert_eq!(
            spilled.search(&q.terms, SearchStrategy::Bm25, 20),
            plain.search(&q.terms, SearchStrategy::Bm25, 20)
        );
    }
}

/// The medium-scale spill roundtrip the weekly CI smoke job runs: a 32 MiB
/// budget over ~16 M postings (~128 MiB of packed accumulator) forces a
/// real multi-run merge, and the result must match the unbudgeted build
/// posting-for-posting and ranking-for-ranking.
#[test]
#[ignore = "medium scale: run explicitly with --ignored (release mode recommended)"]
fn medium_scale_spill_roundtrip() {
    let scale = Scale::Medium;
    let cfg = scale.config();
    let (plain, _) = build_index_streaming(
        CollectionStream::new(&cfg),
        &IndexConfig::compressed(),
        scale.chunk_size(),
    );
    let (spilled, tail, stats) = build_index_streaming_spill(
        CollectionStream::new(&cfg),
        &IndexConfig::compressed(),
        scale.chunk_size(),
        SpillConfig::with_budget(32 << 20),
    )
    .unwrap();
    assert!(
        stats.runs >= 3,
        "only {} runs at a 32 MiB budget",
        stats.runs
    );
    assert!(stats.peak_accum_bytes <= 32 << 20);
    // ~128 MiB of packed postings merge through a finish phase that stays
    // within the budget too: the columns compress block by block.
    assert!(stats.finish_peak_bytes > 0);
    assert!(
        stats.finish_peak_bytes <= 32 << 20,
        "finish peak {} exceeded the budget",
        stats.finish_peak_bytes
    );
    assert_eq!(stats.spilled_postings as usize, plain.num_postings());
    assert_eq!(spilled.num_postings(), plain.num_postings());
    assert_eq!(
        spilled.td().column("docid").unwrap().read_all(),
        plain.td().column("docid").unwrap().read_all()
    );
    assert_eq!(
        spilled.td().column("tf").unwrap().read_all(),
        plain.td().column("tf").unwrap().read_all()
    );
    let (ep, es) = (QueryEngine::new(&plain), QueryEngine::new(&spilled));
    for q in &tail.eval_queries {
        assert_eq!(
            ep.search(&q.terms, SearchStrategy::Bm25TwoPass, 20)
                .unwrap()
                .results,
            es.search(&q.terms, SearchStrategy::Bm25TwoPass, 20)
                .unwrap()
                .results
        );
    }
}
