//! The inverted index as relational tables (§3.1).
//!
//! "To index the data, we used an inverted list data-structure, represented
//! by a relational table. This `[term, docid, tf]` (TD) table ... is ordered
//! on (term, docid), which allows the term column to be replaced by a range
//! index onto `[docid, tf]`". Alongside TD live the document table
//! `D[docid, name, length]` and per-term statistics `T[term, ftd]`, held
//! as paged columns (the `paged` module) — the same representation whether
//! the index was built in this process or reopened from a segment.
//!
//! Index variants reproduce the Table 2 ladder:
//!
//! * `compress = false` → raw 32-bit `docid`/`tf` columns (runs BoolAND,
//!   BoolOR, BM25, BM25T);
//! * `compress = true` → `docid` as PFOR-DELTA and `tf` as PFOR, every
//!   block choosing its own code width, where §3.3 fixed 8-bit code words
//!   for its "11.98 and 8.13 bits per tuple" (run BM25TC);
//! * [`Materialize::F32`] → adds a precomputed 32-bit ω score column
//!   (run BM25TCM — note this *increases* I/O volume vs compressed tf);
//! * [`Materialize::Quantized8`] → adds an 8-bit Global-By-Value quantized
//!   score column (run BM25TCMQ8).

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use x100_compress::Codec;
use x100_corpus::SyntheticCollection;
use x100_storage::column::DEFAULT_BLOCK_SIZE;
use x100_storage::{Column, ColumnBuilder, SegmentError, StorageError, Table};

use crate::bm25::{term_weight, Bm25Params, CollectionStats, Quantizer};
use crate::builder::NEVER_SPILLS;
use crate::columns::{score_codec, IndexColumns};
use crate::paged::{build_term_pages, PageDir, PagedMetadata, Records, PAGE_VALUES};

/// Which materialized score column to build (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Materialize {
    /// No score materialization.
    #[default]
    None,
    /// 32-bit float ω values (stored bit-cast in a raw u32 column; floats
    /// do not benefit from integer compression, which is exactly why the
    /// paper's BM25TCM cold run regressed).
    F32,
    /// 8-bit Global-By-Value quantized scores, PFOR-compressed.
    Quantized8,
}

/// Index build configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexConfig {
    /// Compress `docid` (PFOR-DELTA) and `tf` (PFOR) columns, code widths
    /// chosen per block.
    pub compress: bool,
    /// Score materialization variant.
    pub materialize: Materialize,
    /// BM25 constants used for materialization (must match query-time
    /// parameters, since materialized scores bake them in).
    pub params: Bm25Params,
    /// Storage block size in values: the unit a pool miss reads and parses.
    /// Defaults to [`x100_storage::column::DEFAULT_BLOCK_SIZE`].
    pub block_size: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            compress: true,
            materialize: Materialize::None,
            params: Bm25Params::default(),
            block_size: DEFAULT_BLOCK_SIZE,
        }
    }
}

impl IndexConfig {
    /// The uncompressed baseline (runs BoolAND / BoolOR / BM25 / BM25T).
    pub fn uncompressed() -> Self {
        IndexConfig {
            compress: false,
            ..Default::default()
        }
    }

    /// Compressed index (run BM25TC).
    pub fn compressed() -> Self {
        IndexConfig::default()
    }

    /// Compressed + materialized f32 scores (run BM25TCM).
    pub fn materialized_f32() -> Self {
        IndexConfig {
            materialize: Materialize::F32,
            ..Default::default()
        }
    }

    /// Compressed + 8-bit quantized materialized scores (run BM25TCMQ8).
    pub fn materialized_q8() -> Self {
        IndexConfig {
            materialize: Materialize::Quantized8,
            ..Default::default()
        }
    }
}

/// The index: TD/D/T tables plus the range index and lookup state.
#[derive(Debug)]
pub struct InvertedIndex {
    config: IndexConfig,
    /// TD table: `docid`, `tf`, and optionally `score` columns, ordered by
    /// (term, docid).
    td: Table,
    /// The D and T tables plus the term range index, as paged columns:
    /// memory-backed for a built index, disk-backed for a reopened one.
    meta: PagedMetadata,
    stats: CollectionStats,
    quantizer: Option<Quantizer>,
}

/// A `u32` column of dense per-term / per-doc metadata, paged at the same
/// granularity as the record pages.
fn metadata_column(name: &str, values: impl IntoIterator<Item = u32>) -> Column {
    let mut b = ColumnBuilder::with_block_size(name, Codec::Raw, PAGE_VALUES);
    for v in values {
        b.push(v);
    }
    b.finish()
}

impl InvertedIndex {
    /// Builds the index from a materialized collection.
    ///
    /// Pushes every document through an unbudgeted [`crate::IndexBuilder`]:
    /// the builder is the only build path.
    ///
    /// # Panics
    /// Panics if the vocabulary does not build: a duplicate term, or a
    /// term longer than a vocabulary page (4084 bytes).
    pub fn build(collection: &SyntheticCollection, config: &IndexConfig) -> Self {
        let mut builder = crate::IndexBuilder::new(
            collection.vocab.len(),
            config,
            crate::SpillConfig::unbounded(),
        );
        builder.push_docs(&collection.docs).expect(NEVER_SPILLS);
        match builder.finish(&collection.vocab) {
            Ok((index, _)) => index,
            Err(e) => panic!("{e}"),
        }
    }

    /// Assembles an index from already-compressed, (term, docid)-sorted
    /// posting columns — the shared back half of every build path, fed by
    /// the crate's columnar writer so no uncompressed posting column is
    /// ever materialized.
    ///
    /// Score materialization (when configured) streams over the compressed
    /// columns one block pair at a time, so its residency is O(block), not
    /// O(postings); the fitted quantizer and every score are bit-identical
    /// to what the old whole-column pass produced (same weights in the same
    /// order).
    ///
    /// # Errors
    /// The vocabulary pages' errors: a duplicate term
    /// ([`PageDir::scan`]), or a term longer than a page
    /// ([`build_term_pages`]).
    pub(crate) fn from_columns(
        config: IndexConfig,
        vocab: &[String],
        names: Column,
        doc_lens: Vec<i32>,
        cols: IndexColumns,
    ) -> Result<Self, SegmentError> {
        let IndexColumns { docid, tf, offsets } = cols;
        let num_terms = vocab.len();
        let num_docs = doc_lens.len();

        let avg_doc_len = if num_docs == 0 {
            1.0
        } else {
            doc_lens.iter().map(|&l| l as f64).sum::<f64>() as f32 / num_docs as f32
        };
        let stats = CollectionStats {
            num_docs: num_docs as u32,
            avg_doc_len,
        };

        // Optional score materialization (§3.3): ω is query-independent
        // once k1 and b are fixed, and every input (ftd from the offsets,
        // doc_lens, collection stats) is known by the time the posting
        // columns are sealed — so the score column streams off the blocks.
        let mut quantizer = None;
        let mut score_col = None;
        if config.materialize != Materialize::None {
            let weight_of = |t: usize, d: u32, f: u32| {
                term_weight(
                    config.params,
                    stats,
                    (offsets[t + 1] - offsets[t]) as u32,
                    f,
                    doc_lens[d as usize] as u32,
                )
            };
            let codec = score_codec(config.materialize).expect("materialized scores have a codec");
            match config.materialize {
                Materialize::F32 => {
                    let mut b = ColumnBuilder::with_block_size("score", codec, config.block_size);
                    for (t, d, f) in PostingStream::new(&docid, &tf, &offsets) {
                        b.push(weight_of(t, d, f).to_bits());
                    }
                    score_col = Some(b.finish());
                }
                Materialize::Quantized8 => {
                    // Two streaming passes: fit the global quantizer, then
                    // encode. Same weight sequence as fitting over a
                    // materialized column, hence the same quantizer.
                    let qz = Quantizer::fit(
                        PostingStream::new(&docid, &tf, &offsets)
                            .map(|(t, d, f)| weight_of(t, d, f)),
                        256,
                    );
                    let mut b = ColumnBuilder::with_block_size("score", codec, config.block_size);
                    for (t, d, f) in PostingStream::new(&docid, &tf, &offsets) {
                        b.push(qz.encode(weight_of(t, d, f)));
                    }
                    score_col = Some(b.finish());
                    quantizer = Some(qz);
                }
                Materialize::None => unreachable!(),
            }
        }

        let mut td = Table::new("TD");
        td.add_column(docid);
        td.add_column(tf);
        if let Some(score) = score_col {
            td.add_column(score);
        }

        // The vocabulary pages are sorted lexicographically, each record
        // carrying its term id.
        let mut order: Vec<u32> = (0..num_terms as u32).collect();
        order.sort_unstable_by(|&a, &b| vocab[a as usize].cmp(&vocab[b as usize]));
        let terms = build_term_pages(order.iter().map(|&id| (vocab[id as usize].as_str(), id)))?;
        // The same scan a segment open makes derives the directories.
        let meta = PagedMetadata {
            terms_dir: PageDir::scan(&terms, Records::Terms, num_terms)?,
            terms,
            names_dir: PageDir::scan(&names, Records::Names, num_docs)?,
            names,
            doc_lens: metadata_column("doc_lens", doc_lens.iter().map(|&l| l as u32)),
            offsets: metadata_column(
                "offsets",
                offsets.iter().map(|&o| {
                    u32::try_from(o).expect("posting count exceeds the u32 offset column")
                }),
            ),
            num_terms,
            num_postings: offsets[num_terms],
            lens_cache: OnceLock::new(),
        };

        Ok(InvertedIndex {
            config,
            td,
            meta,
            stats,
            quantizer,
        })
    }

    /// Assembles an index from the decoded parts of a persisted segment
    /// ([`crate::segment`]). No score re-materialization happens here — the
    /// score column (when present) comes back from disk bit-identical —
    /// and the collection statistics are restored from their exact bits in
    /// the segment meta, so a reopened index serves every strategy
    /// bit-identically to the one that was written without touching the
    /// document table.
    pub(crate) fn from_segment_parts(parts: crate::segment::SegmentParts) -> Self {
        let crate::segment::SegmentParts {
            config,
            stats,
            paged,
            docid,
            tf,
            score,
            quantizer,
        } = parts;
        let mut td = Table::new("TD");
        td.add_column(docid);
        td.add_column(tf);
        if let Some(score) = score {
            td.add_column(score);
        }
        InvertedIndex {
            config,
            td,
            meta: paged,
            stats,
            quantizer,
        }
    }

    /// The build configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The TD table (docid/tf/score columns).
    pub fn td(&self) -> &Table {
        &self.td
    }

    /// TD row range of a term's posting list (empty for unseen terms).
    ///
    /// # Panics
    /// Panics if the term's offsets page cannot be read: a segment open
    /// checks every page, so only a file that changed underneath a running
    /// process gets here. The fused query path reads offsets through
    /// pinned windows and returns a typed error instead.
    pub fn term_range(&self, term: u32) -> Range<usize> {
        self.meta
            .term_range(term)
            .unwrap_or_else(|e| panic!("offsets of term {term}: {e}"))
    }

    /// Resolves a term string to its id: the first keys of the
    /// vocabulary's page directory select one page, a binary search over
    /// its records finds the term.
    ///
    /// # Errors
    /// A vocabulary page that cannot be read, or that breaks its framing
    /// (the file changed after the open checked it), is a typed
    /// [`StorageError`].
    pub fn term_id(&self, term: &str) -> Result<Option<u32>, StorageError> {
        self.meta.term_id(term)
    }

    /// `ftd`: number of documents containing the term — the length of its
    /// range, one TD row per (term, document) pair.
    pub fn doc_freq(&self, term: u32) -> u32 {
        self.term_range(term).len() as u32
    }

    /// Document name by docid (owned: the lookup stages the name's page
    /// rather than keeping every name resident); `None` past the last
    /// document.
    ///
    /// # Errors
    /// As [`Self::term_id`], for the name pages; a name that is not UTF-8
    /// is one such error.
    pub fn doc_name(&self, docid: u32) -> Result<Option<String>, StorageError> {
        self.meta.doc_name(docid)
    }

    /// Dense docid-indexed document lengths (the D table's `length`),
    /// materialized from the paged column once, on first use — the
    /// relational (oracle) operators want a dense slice; the fused serving
    /// path reads lengths through block windows instead.
    pub fn doc_lens(&self) -> &Arc<Vec<i32>> {
        self.meta.materialized_lens()
    }

    /// Number of documents in the collection.
    pub fn num_docs(&self) -> usize {
        self.stats.num_docs as usize
    }

    /// The paged metadata the fused hot path and the segment writer read.
    pub(crate) fn meta(&self) -> &PagedMetadata {
        &self.meta
    }

    /// Collection statistics for BM25.
    pub fn stats(&self) -> CollectionStats {
        self.stats
    }

    /// The fitted quantizer, when `Materialize::Quantized8` was used.
    pub fn quantizer(&self) -> Option<&Quantizer> {
        self.quantizer.as_ref()
    }

    /// Whether a materialized score column exists.
    pub fn has_materialized_scores(&self) -> bool {
        self.config.materialize != Materialize::None
    }

    /// Number of postings (TD rows).
    pub fn num_postings(&self) -> usize {
        self.td.row_count()
    }

    /// Number of terms in the vocabulary.
    pub fn num_terms(&self) -> usize {
        self.meta.num_terms
    }

    /// Bits per tuple of the named TD column — the §3.3 accounting.
    pub fn column_bits_per_tuple(&self, name: &str) -> f64 {
        self.td
            .column(name)
            .map(|c| c.bits_per_value())
            .unwrap_or(f64::NAN)
    }
}

/// Streams `(term, docid, tf)` triples over aligned compressed posting
/// columns, decoding **one block pair at a time** — O(block) resident
/// memory regardless of collection size. Both columns are built with the
/// same block size, so their block boundaries coincide.
struct PostingStream<'a> {
    docid: &'a Column,
    tf: &'a Column,
    offsets: &'a [usize],
    /// Next block index to decode.
    block: usize,
    /// Global row of the next item.
    row: usize,
    /// Current term (advanced so `offsets[term + 1] > row`).
    term: usize,
    dbuf: Vec<u32>,
    tbuf: Vec<u32>,
    /// Position of the next item within the decoded buffers.
    in_block: usize,
}

impl<'a> PostingStream<'a> {
    fn new(docid: &'a Column, tf: &'a Column, offsets: &'a [usize]) -> Self {
        debug_assert_eq!(docid.len(), tf.len());
        debug_assert_eq!(docid.block_size(), tf.block_size());
        PostingStream {
            docid,
            tf,
            offsets,
            block: 0,
            row: 0,
            term: 0,
            dbuf: Vec::new(),
            tbuf: Vec::new(),
            in_block: 0,
        }
    }
}

impl Iterator for PostingStream<'_> {
    type Item = (usize, u32, u32);

    fn next(&mut self) -> Option<Self::Item> {
        if self.in_block == self.dbuf.len() {
            if self.block == self.docid.block_count() {
                return None;
            }
            self.docid.block(self.block).decode_into(&mut self.dbuf);
            self.tf.block(self.block).decode_into(&mut self.tbuf);
            self.block += 1;
            self.in_block = 0;
        }
        // Skip empty terms until the current row falls in `term`'s range.
        while self.offsets[self.term + 1] <= self.row {
            self.term += 1;
        }
        let item = (
            self.term,
            self.dbuf[self.in_block],
            self.tbuf[self.in_block],
        );
        self.row += 1;
        self.in_block += 1;
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x100_corpus::CollectionConfig;

    fn tiny_index(config: IndexConfig) -> (SyntheticCollection, InvertedIndex) {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let idx = InvertedIndex::build(&c, &config);
        (c, idx)
    }

    #[test]
    fn postings_sorted_by_term_then_docid() {
        let (c, idx) = tiny_index(IndexConfig::uncompressed());
        let docids = idx.td().column("docid").unwrap().read_all();
        for t in 0..c.vocab.len() as u32 {
            let r = idx.term_range(t);
            let list = &docids[r.clone()];
            assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "term {t} posting list not strictly increasing"
            );
            assert_eq!(list.len(), idx.doc_freq(t) as usize);
        }
    }

    #[test]
    fn posting_lists_match_source_documents() {
        let (c, idx) = tiny_index(IndexConfig::uncompressed());
        let docids = idx.td().column("docid").unwrap().read_all();
        let tfs = idx.td().column("tf").unwrap().read_all();
        // Spot-check every posting of a mid-frequency term.
        let term = 10u32;
        let r = idx.term_range(term);
        for i in r {
            let (d, tf) = (docids[i], tfs[i]);
            let doc = &c.docs[d as usize];
            let found = doc
                .terms
                .binary_search_by_key(&term, |&(t, _)| t)
                .map(|j| doc.terms[j].1)
                .unwrap();
            assert_eq!(found, tf);
        }
    }

    #[test]
    fn compressed_and_raw_indexes_agree() {
        let (_, raw) = tiny_index(IndexConfig::uncompressed());
        let (_, comp) = tiny_index(IndexConfig::compressed());
        assert_eq!(
            raw.td().column("docid").unwrap().read_all(),
            comp.td().column("docid").unwrap().read_all()
        );
        assert_eq!(
            raw.td().column("tf").unwrap().read_all(),
            comp.td().column("tf").unwrap().read_all()
        );
    }

    #[test]
    fn compression_shrinks_hot_columns() {
        let (_, comp) = tiny_index(IndexConfig::compressed());
        assert!(comp.column_bits_per_tuple("docid") < 16.0);
        assert!(comp.column_bits_per_tuple("tf") < 10.0);
    }

    #[test]
    fn term_dictionary_resolves() {
        let (_, idx) = tiny_index(IndexConfig::uncompressed());
        assert_eq!(idx.term_id("term3"), Ok(Some(3)));
        assert_eq!(idx.term_id("no-such-term"), Ok(None));
        assert_eq!(idx.term_range(9999), 0..0);
        assert_eq!(idx.doc_freq(9999), 0);
    }

    #[test]
    fn doc_metadata_accessible() {
        let (c, idx) = tiny_index(IndexConfig::uncompressed());
        assert_eq!(idx.doc_name(0), Ok(Some("doc-00000000".to_owned())));
        assert_eq!(idx.doc_lens().len(), c.docs.len());
        assert_eq!(idx.doc_lens()[5], c.docs[5].len as i32);
        let avg = idx.stats().avg_doc_len;
        assert!((avg as f64 - c.avg_doc_len()).abs() < 1.0);
    }

    #[test]
    fn materialized_f32_scores_match_formula() {
        let (_, idx) = tiny_index(IndexConfig::materialized_f32());
        let bits = idx.td().column("score").unwrap().read_all();
        let docids = idx.td().column("docid").unwrap().read_all();
        let tfs = idx.td().column("tf").unwrap().read_all();
        let term = 10u32;
        let r = idx.term_range(term);
        for i in r {
            let expect = term_weight(
                idx.config().params,
                idx.stats(),
                idx.doc_freq(term),
                tfs[i],
                idx.doc_lens()[docids[i] as usize] as u32,
            );
            assert_eq!(f32::from_bits(bits[i]), expect, "slot {i}");
        }
    }

    #[test]
    fn quantized_scores_in_range_and_monotone_per_doc() {
        let (_, idx) = tiny_index(IndexConfig::materialized_q8());
        let codes = idx.td().column("score").unwrap().read_all();
        assert!(codes.iter().all(|&c| (1..=256).contains(&c)));
        assert!(idx.quantizer().is_some());
    }

    #[test]
    fn posting_stream_walks_terms_rows_and_blocks() {
        // 10 rows over 4 terms (term 1 empty), block size 128 → one block;
        // then again with tiny values to force multi-block decoding via a
        // 128-value column.
        let offsets = vec![0usize, 3, 3, 7, 10];
        let docids: Vec<u32> = (0..10).collect();
        let tfs: Vec<u32> = (10..20).collect();
        let docid = Column::from_values("docid", Codec::Raw, &docids);
        let tf = Column::from_values("tf", Codec::Raw, &tfs);
        let got: Vec<(usize, u32, u32)> = PostingStream::new(&docid, &tf, &offsets).collect();
        let terms: Vec<usize> = got.iter().map(|&(t, _, _)| t).collect();
        assert_eq!(terms, vec![0, 0, 0, 2, 2, 2, 2, 3, 3, 3]); // term 1 skipped
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, &(_, d, f))| { d == docids[i] && f == tfs[i] }));
        // Multi-block: 300 rows at block size 128 → 3 blocks.
        let offsets = vec![0usize, 300];
        let vals: Vec<u32> = (0..300).collect();
        let mut b = ColumnBuilder::with_block_size("docid", Codec::Pfor { width: 8 }, 128);
        b.extend(&vals);
        let docid = b.finish();
        let mut b = ColumnBuilder::with_block_size("tf", Codec::Pfor { width: 8 }, 128);
        b.extend(&vals);
        let tf = b.finish();
        assert_eq!(docid.block_count(), 3);
        let got: Vec<(usize, u32, u32)> = PostingStream::new(&docid, &tf, &offsets).collect();
        assert_eq!(got.len(), 300);
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, &(t, d, f))| { t == 0 && d == i as u32 && f == i as u32 }));
    }

    #[test]
    fn empty_collection_builds() {
        let mut cfg = CollectionConfig::tiny();
        cfg.num_docs = 0;
        cfg.num_eval_queries = 0;
        cfg.relevant_per_query = 0;
        let c = SyntheticCollection::generate(&cfg);
        let idx = InvertedIndex::build(&c, &IndexConfig::default());
        assert_eq!(idx.num_postings(), 0);
        assert_eq!(idx.term_range(0), 0..0);
    }
}
