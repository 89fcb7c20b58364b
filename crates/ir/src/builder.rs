//! Incremental index construction — the scale path's build side.
//!
//! [`InvertedIndex::build`] wants the whole collection in memory; at
//! `medium`/`large` scale documents arrive in chunks from a
//! [`x100_corpus::CollectionStream`] and must be dropped as soon as their
//! postings are accounted. [`StreamingIndexBuilder`] accepts documents one
//! at a time (docids assigned densely in arrival order, matching the
//! stream's global order), accumulates per-term posting lists — which stay
//! docid-sorted for free because arrival order is docid order — and
//! [`finish`](StreamingIndexBuilder::finish)es into exactly the same
//! [`InvertedIndex`] the batch path produces.
//!
//! Peak memory is the postings themselves (8 bytes each, the same
//! intermediate the batch scatter uses) plus one document chunk, instead of
//! postings *plus* the whole materialized collection.

use x100_corpus::{CollectionStream, CollectionTail, Document};

use crate::columns::{IndexColumns, IndexColumnsWriter};
use crate::index::{IndexConfig, InvertedIndex};
use crate::paged::NamePagesBuilder;

/// Builds an [`InvertedIndex`] from documents pushed in docid order.
///
/// ```
/// use x100_corpus::{CollectionConfig, SyntheticCollection};
/// use x100_ir::{IndexConfig, InvertedIndex, StreamingIndexBuilder};
///
/// let c = SyntheticCollection::generate(&CollectionConfig::tiny());
/// let mut b = StreamingIndexBuilder::new(c.vocab.len(), &IndexConfig::default());
/// for doc in &c.docs {
///     b.push_doc(&doc.name, &doc.terms, doc.len);
/// }
/// let streamed = b.finish(&c.vocab);
/// let batch = InvertedIndex::build(&c, &IndexConfig::default());
/// assert_eq!(streamed.num_postings(), batch.num_postings());
/// ```
#[derive(Debug)]
pub struct StreamingIndexBuilder {
    config: IndexConfig,
    num_terms: usize,
    /// Per-term posting list, packed `docid << 32 | tf` to keep the
    /// accumulator at 8 bytes per posting. Grown lazily to the highest
    /// term id actually seen, so sparse or empty-vocab-tail workloads
    /// never pay an O(vocab) allocation upfront.
    postings: Vec<Vec<u64>>,
    /// The D table's `name` column: names go straight into 4 KiB record
    /// pages as documents arrive, never held as one `String` each.
    doc_names: NamePagesBuilder,
    doc_lens: Vec<i32>,
}

impl StreamingIndexBuilder {
    /// A builder over a vocabulary of `num_terms` term ids.
    pub fn new(num_terms: usize, config: &IndexConfig) -> Self {
        StreamingIndexBuilder {
            config: config.clone(),
            num_terms,
            postings: Vec::new(),
            doc_names: NamePagesBuilder::new(),
            doc_lens: Vec::new(),
        }
    }

    /// The builder's index configuration.
    pub(crate) fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Documents accepted so far (= the next docid to be assigned).
    pub fn num_docs(&self) -> usize {
        self.doc_lens.len()
    }

    /// Postings accumulated so far.
    pub fn num_postings(&self) -> usize {
        self.postings.iter().map(Vec::len).sum()
    }

    /// Accepts the next document and returns its assigned dense docid.
    ///
    /// `terms` must be sorted by term id with in-vocabulary ids, as
    /// [`Document::terms`] guarantees.
    ///
    /// # Panics
    /// Panics if a term id is out of range for the builder's vocabulary, or
    /// if `name` cannot fit one 4 KiB record page ("document name exceeds a
    /// page": 4088 bytes).
    pub fn push_doc(&mut self, name: &str, terms: &[(u32, u32)], len: u32) -> u32 {
        let docid = self.doc_lens.len() as u32;
        self.doc_names.push(name).unwrap_or_else(|e| panic!("{e}"));
        for &(t, tf) in terms {
            let slot = t as usize;
            assert!(
                slot < self.num_terms,
                "term id {t} out of range for vocabulary of {}",
                self.num_terms
            );
            if slot >= self.postings.len() {
                self.postings.resize_with(slot + 1, Vec::new);
            }
            self.postings[slot].push((u64::from(docid) << 32) | u64::from(tf));
        }
        self.doc_lens.push(len as i32);
        docid
    }

    /// Accepts a chunk of documents in order (each keeps the docid the
    /// builder assigns, not the one in [`Document::id`] — partition-local
    /// builders renumber on purpose).
    pub fn push_docs<'a>(&mut self, docs: impl IntoIterator<Item = &'a Document>) {
        for doc in docs {
            self.push_doc(&doc.name, &doc.terms, doc.len);
        }
    }

    /// Drains the per-term accumulator (document metadata stays), returning
    /// the packed posting lists indexed by term id — the spill path's flush
    /// hook. Lists beyond the highest term seen since the last drain are
    /// absent, matching the lazy growth.
    pub(crate) fn take_term_lists(&mut self) -> Vec<Vec<u64>> {
        std::mem::take(&mut self.postings)
    }

    /// Assembles the index around finished posting columns — the shared
    /// tail of this builder's drain and the spill path's merge.
    pub(crate) fn into_index(self, vocab: &[String], cols: IndexColumns) -> InvertedIndex {
        let names = self.doc_names.finish();
        InvertedIndex::from_columns(self.config, vocab, names, self.doc_lens, cols)
    }

    /// Assembles the index. `vocab` maps term ids to strings and must cover
    /// every id the builder was constructed for.
    ///
    /// # Panics
    /// Panics if `vocab` does not cover the builder's vocabulary size, or
    /// if a term cannot fit one 4 KiB vocabulary page ("term record exceeds
    /// a vocabulary page": 4084 bytes).
    pub fn finish(self, vocab: &[String]) -> InvertedIndex {
        self.finish_with_peak(vocab).0
    }

    /// [`Self::finish`], additionally returning the finish phase's peak
    /// intermediate footprint in bytes: resident packed postings (drained
    /// term by term into the columnar writer, each list freed as soon as it
    /// is written) plus the writer's pending uncompressed blocks. The old
    /// path materialized whole `docid`/`tf` columns next to the postings —
    /// a 2× peak this streaming drain no longer pays.
    pub(crate) fn finish_with_peak(mut self, vocab: &[String]) -> (InvertedIndex, usize) {
        assert_eq!(
            vocab.len(),
            self.num_terms,
            "vocabulary size does not match the builder's term count"
        );
        let mut writer = IndexColumnsWriter::new(&self.config, self.num_terms);
        let lists = std::mem::take(&mut self.postings);
        let resident: usize = lists.iter().map(|l| l.len() * 8).sum();
        for (term, list) in lists.into_iter().enumerate() {
            if !list.is_empty() {
                let term = u32::try_from(term).expect("term ids seen via push_doc fit u32");
                writer.push_term(term, &list);
            }
            // `list` drops here: accumulator memory is released
            // incrementally as the columns compress, not all at the end.
        }
        // Conservative joint peak: all postings resident at the start, plus
        // the writer's pending-block high-water (resident only shrinks as
        // buffered grows, so their true joint maximum never exceeds this).
        let finish_peak = resident + writer.peak_buffered_bytes();
        let cols = writer.finish();
        (self.into_index(vocab, cols), finish_peak)
    }
}

/// Drives a [`CollectionStream`] to completion through the streaming
/// builder: generate → index without ever materializing the collection.
/// Returns the index together with the workload tail (judged queries +
/// efficiency log). This is [`crate::build_index_streaming_spill`] with a
/// budget that is never reached — a spilling builder that never spills *is*
/// the [`StreamingIndexBuilder`] it embeds, so there is one drive loop.
pub fn build_index_streaming(
    stream: CollectionStream,
    index_config: &IndexConfig,
    chunk_size: usize,
) -> (InvertedIndex, CollectionTail) {
    let (index, tail, _) = crate::spill::build_index_streaming_spill(
        stream,
        index_config,
        chunk_size,
        crate::spill::SpillConfig::unbounded(),
    )
    .expect("an unbounded budget never spills, so the build never touches disk");
    (index, tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use x100_corpus::{CollectionConfig, SyntheticCollection};

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
        for t in 0..vocab_len as u32 {
            assert_eq!(a.term_range(t), b.term_range(t), "term {t}");
            assert_eq!(a.doc_freq(t), b.doc_freq(t), "term {t}");
        }
        assert_eq!(a.doc_lens(), b.doc_lens());
        assert_eq!(a.stats().num_docs, b.stats().num_docs);
        assert_eq!(a.stats().avg_doc_len, b.stats().avg_doc_len);
    }

    #[test]
    fn streaming_build_equals_batch_build() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        for config in [
            IndexConfig::uncompressed(),
            IndexConfig::compressed(),
            IndexConfig::materialized_f32(),
            IndexConfig::materialized_q8(),
        ] {
            let batch = InvertedIndex::build(&c, &config);
            let mut b = StreamingIndexBuilder::new(c.vocab.len(), &config);
            // Ragged chunking must not matter.
            for chunk in c.docs.chunks(37) {
                b.push_docs(chunk);
            }
            let streamed = b.finish(&c.vocab);
            assert_indexes_equal(&streamed, &batch, c.vocab.len());
            if config.materialize != crate::index::Materialize::None {
                assert_eq!(
                    streamed.td().column("score").unwrap().read_all(),
                    batch.td().column("score").unwrap().read_all()
                );
            }
        }
    }

    #[test]
    fn build_index_streaming_end_to_end() {
        let cfg = CollectionConfig::tiny();
        let c = SyntheticCollection::generate(&cfg);
        let batch = InvertedIndex::build(&c, &IndexConfig::compressed());
        let stream = x100_corpus::CollectionStream::new(&cfg);
        let (streamed, tail) = build_index_streaming(stream, &IndexConfig::compressed(), 64);
        assert_indexes_equal(&streamed, &batch, c.vocab.len());
        assert_eq!(tail.efficiency_log, c.efficiency_log);
        assert_eq!(streamed.term_id("term3"), Some(3));
        assert_eq!(streamed.doc_name(0).as_deref(), Some("doc-00000000"));
    }

    #[test]
    fn empty_builder_finishes() {
        let b = StreamingIndexBuilder::new(5, &IndexConfig::default());
        let idx = b.finish(&(0..5).map(|t| format!("term{t}")).collect::<Vec<_>>());
        assert_eq!(idx.num_postings(), 0);
        assert_eq!(idx.term_range(0), 0..0);
    }

    #[test]
    fn docids_assigned_densely() {
        let mut b = StreamingIndexBuilder::new(3, &IndexConfig::uncompressed());
        assert_eq!(b.push_doc("a", &[(0, 1)], 1), 0);
        assert_eq!(b.push_doc("b", &[(1, 2), (2, 1)], 3), 1);
        assert_eq!(b.num_docs(), 2);
        assert_eq!(b.num_postings(), 3);
    }

    #[test]
    fn lazy_allocation_tracks_max_seen_term() {
        // A huge vocabulary must not cost anything until terms appear.
        let mut b = StreamingIndexBuilder::new(100_000, &IndexConfig::uncompressed());
        assert!(b.postings.is_empty());
        b.push_doc("a", &[(3, 1)], 1);
        assert_eq!(b.postings.len(), 4);
        b.push_doc("b", &[(1, 2), (17, 1)], 3);
        assert_eq!(b.postings.len(), 18);
        let vocab: Vec<String> = (0..100_000).map(|t| format!("term{t}")).collect();
        let idx = b.finish(&vocab);
        assert_eq!(idx.num_postings(), 3);
        assert_eq!(idx.doc_freq(17), 1);
        assert_eq!(idx.doc_freq(99_999), 0);
        assert!(idx.term_range(99_999).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_vocab_term_panics() {
        let mut b = StreamingIndexBuilder::new(3, &IndexConfig::default());
        b.push_doc("a", &[(3, 1)], 1);
    }

    #[test]
    #[should_panic(expected = "document name exceeds a page")]
    fn name_larger_than_a_page_panics() {
        let mut b = StreamingIndexBuilder::new(3, &IndexConfig::default());
        b.push_doc("fits", &[(0, 1)], 1);
        b.push_doc(&"n".repeat(4089), &[(0, 1)], 1);
    }

    #[test]
    #[should_panic(expected = "term record exceeds a vocabulary page")]
    fn term_larger_than_a_page_panics() {
        let b = StreamingIndexBuilder::new(2, &IndexConfig::default());
        let _ = b.finish(&["fits".to_owned(), "t".repeat(4085)]);
    }

    #[test]
    #[should_panic(expected = "vocabulary size")]
    fn vocab_mismatch_rejected() {
        let b = StreamingIndexBuilder::new(5, &IndexConfig::default());
        let _ = b.finish(&["only".to_owned()]);
    }
}
