//! Index construction — the one builder behind every build path.
//!
//! [`IndexBuilder`] accepts documents one at a time (docids assigned densely
//! in arrival order, matching a [`x100_corpus::CollectionStream`]'s global
//! order), so the collection is never resident, and accumulates per-term
//! posting lists, docid-sorted for free because arrival order is docid order.
//! Under a [`SpillConfig`] budget it is an external sort ([`crate::spill`]):
//! a full accumulator is drained into one run segment and
//! [`finish`](IndexBuilder::finish) appends the runs' lists term by term,
//! in run order. A budget that is never reached ([`SpillConfig::unbounded`])
//! is the in-memory build, whose finish drains the term lists directly.
//! Runs, the merge and the in-memory drain all feed the same columnar
//! writer, which compresses blocks as they fill.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use x100_corpus::{CollectionStream, CollectionTail, Document};
use x100_storage::{DiskModel, IoStats, SegmentError};

use crate::columns::IndexColumnsWriter;
use crate::index::{IndexConfig, InvertedIndex};
use crate::paged::RecordPagesBuilder;
use crate::spill::{merge_runs, write_run, SpillConfig, SpillStats, RUN_WRITER_RESERVE};

/// Why callers building under [`SpillConfig::unbounded`] may unwrap the
/// builder's errors.
pub(crate) const NEVER_SPILLS: &str =
    "an unbounded budget never spills, so the build never touches disk";

/// Builds an [`InvertedIndex`] from documents pushed in docid order while
/// keeping posting-accumulator memory, run writer included, under
/// [`SpillConfig::budget_bytes`].
///
/// ```
/// use x100_corpus::{CollectionConfig, SyntheticCollection};
/// use x100_ir::{IndexBuilder, IndexConfig, SpillConfig};
///
/// let c = SyntheticCollection::generate(&CollectionConfig::tiny());
/// let build = |spill: SpillConfig| {
///     let mut b = IndexBuilder::new(c.vocab.len(), &IndexConfig::default(), spill);
///     b.push_docs(&c.docs).unwrap();
///     b.finish(&c.vocab).unwrap()
/// };
/// let (in_memory, stats) = build(SpillConfig::unbounded());
/// assert_eq!(stats.runs, 0); // an unreached budget never touches disk
/// let (spilled, stats) = build(SpillConfig::with_budget(16 * 1024));
/// assert!(stats.runs > 0); // tiny already overflows a 16 KiB budget
/// assert!(stats.peak_accum_bytes <= 16 * 1024);
/// assert_eq!(spilled.num_postings(), in_memory.num_postings());
/// ```
#[derive(Debug)]
pub struct IndexBuilder {
    config: IndexConfig,
    num_terms: usize,
    /// Per-term posting list, packed `docid << 32 | tf` to keep the
    /// accumulator at 8 bytes per posting. Grown lazily to the highest
    /// term id actually seen, so sparse or empty-vocab-tail workloads
    /// never pay an O(vocab) allocation upfront.
    postings: Vec<Vec<u64>>,
    /// The D table's `name` column: names go straight into 4 KiB record
    /// pages as documents arrive, never held as one `String` each.
    doc_names: RecordPagesBuilder,
    doc_lens: Vec<i32>,
    spill: SpillConfig,
    /// Bytes of packed postings currently resident in `postings`.
    mem_bytes: usize,
    peak_bytes: usize,
    /// Each run's path and size in bytes, in spill order.
    runs: Vec<(PathBuf, u64)>,
    guard: RunDirGuard,
    write_io: IoStats,
    spilled_postings: u64,
}

/// Best-effort on-drop removal of a builder's run files and its private
/// run directory. A separate guard (instead of `Drop` on the builder)
/// keeps the builder's fields movable in `finish` while still covering
/// every exit path: success, merge errors, and abandoned builders alike.
#[derive(Debug, Default)]
struct RunDirGuard {
    paths: Vec<PathBuf>,
    dir: Option<PathBuf>,
}

impl Drop for RunDirGuard {
    fn drop(&mut self) {
        for p in &self.paths {
            std::fs::remove_file(p).ok();
        }
        if let Some(dir) = &self.dir {
            std::fs::remove_dir(dir).ok();
        }
    }
}

impl IndexBuilder {
    /// A builder over a vocabulary of `num_terms` term ids.
    pub fn new(num_terms: usize, config: &IndexConfig, spill: SpillConfig) -> Self {
        IndexBuilder {
            config: config.clone(),
            num_terms,
            postings: Vec::new(),
            doc_names: RecordPagesBuilder::new("doc_names", "document name exceeds a page"),
            doc_lens: Vec::new(),
            spill,
            mem_bytes: 0,
            peak_bytes: 0,
            runs: Vec::new(),
            guard: RunDirGuard::default(),
            write_io: IoStats::default(),
            spilled_postings: 0,
        }
    }

    /// Documents accepted so far (= the next docid to be assigned).
    pub fn num_docs(&self) -> usize {
        self.doc_lens.len()
    }

    /// Postings accepted so far, resident and spilled together.
    pub fn num_postings(&self) -> u64 {
        self.mem_bytes as u64 / 8 + self.spilled_postings
    }

    /// Runs written so far.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Paths of the runs written so far, in spill order (the
    /// failure-injection suite corrupts these between pushes and `finish`).
    pub fn run_paths(&self) -> Vec<PathBuf> {
        self.runs.iter().map(|(path, _)| path.clone()).collect()
    }

    /// Packed-posting bytes currently resident in the accumulator (the
    /// unspilled tail). Drivers finishing several builders in sequence use
    /// this to account for the accumulators still waiting while another
    /// builder's finish phase runs.
    pub fn resident_accum_bytes(&self) -> usize {
        self.mem_bytes
    }

    /// Accepts the next document and returns its assigned dense docid,
    /// writing a run first whenever accepting it would leave less than the
    /// run writer's reserve of the budget.
    ///
    /// `terms` must be sorted by term id with in-vocabulary ids, as
    /// [`Document::terms`] guarantees.
    ///
    /// # Panics
    /// Panics if a term id is out of range for the builder's vocabulary, or
    /// if `name` cannot fit one 4 KiB record page ("document name exceeds a
    /// page": 4088 bytes).
    pub fn push_doc(
        &mut self,
        name: &str,
        terms: &[(u32, u32)],
        len: u32,
    ) -> Result<u32, SegmentError> {
        let doc_bytes = terms.len() * 8;
        if self.mem_bytes > 0
            && self.mem_bytes + doc_bytes + RUN_WRITER_RESERVE > self.spill.budget_bytes
        {
            self.spill_run()?;
        }
        let docid = self.doc_lens.len() as u32;
        self.doc_names
            .push(name.as_bytes())
            .unwrap_or_else(|e| panic!("{e}"));
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
        self.mem_bytes += doc_bytes;
        self.peak_bytes = self.peak_bytes.max(self.mem_bytes);
        Ok(docid)
    }

    /// Accepts a chunk of documents in order (each keeps the docid the
    /// builder assigns, not the one in [`Document::id`] — partition-local
    /// builders renumber on purpose).
    pub fn push_docs<'a>(
        &mut self,
        docs: impl IntoIterator<Item = &'a Document>,
    ) -> Result<(), SegmentError> {
        for doc in docs {
            self.push_doc(&doc.name, &doc.terms, doc.len)?;
        }
        Ok(())
    }

    /// Drains the current accumulator into one run segment.
    fn spill_run(&mut self) -> Result<(), SegmentError> {
        let dir = match &self.guard.dir {
            Some(d) => d.clone(),
            None => {
                // Each builder spills into its own uniquely named
                // subdirectory, so builders may share a `SpillConfig::dir`
                // parent without colliding on run names or removing each
                // other's files.
                let d = self
                    .spill
                    .dir
                    .clone()
                    .unwrap_or_else(std::env::temp_dir)
                    .join(unique_dir_name());
                std::fs::create_dir_all(&d)?;
                self.guard.dir = Some(d.clone());
                d
            }
        };
        let path = dir.join(format!("run-{:05}.x1sg", self.runs.len()));
        // Register with the drop guard up front so a partially written
        // run is cleaned up even when this write errors out.
        self.guard.paths.push(path.clone());
        // Draining the term lists releases the accumulator's memory —
        // the whole point — while document metadata stays.
        let lists = std::mem::take(&mut self.postings);
        let (bytes, pending_peak) = write_run(&path, lists, self.num_terms)?;
        // The writer's pending blocks fill while the lists drain.
        self.peak_bytes = self.peak_bytes.max(self.mem_bytes + pending_peak);
        self.write_io.record(
            bytes as usize,
            DiskModel::raid12().write_cost(bytes as usize),
        );
        self.spilled_postings += self.mem_bytes as u64 / 8;
        self.runs.push((path, bytes));
        self.mem_bytes = 0;
        Ok(())
    }

    /// Assembles the index, merging any runs, and returns it with the
    /// spill statistics. `vocab` maps term ids to strings and must
    /// cover every id the builder was constructed for.
    ///
    /// Run files (and the builder's private run directory) are removed by
    /// an internal drop guard — `finish` consumes the builder, so cleanup
    /// happens on every exit path: success, merge errors, and abandoned
    /// builders that never reach `finish` alike.
    ///
    /// # Errors
    /// A run that does not open (truncated, bit-flipped, missing) or whose
    /// contents are inconsistent — a `DocFreqs` column length other than the
    /// vocabulary size, `docid` and `tf` lengths that disagree, or a term
    /// list that does not strictly ascend inside a run or where two runs
    /// meet — is a typed [`SegmentError`]. So is a vocabulary that does
    /// not build: a duplicate term (`Corrupt`, "vocabulary terms not
    /// strictly ascending"), or a term that cannot fit one 4 KiB
    /// vocabulary page (`TooLarge`, "term record exceeds a vocabulary
    /// page": 4084 bytes).
    ///
    /// # Panics
    /// Panics if `vocab` does not cover the builder's vocabulary size.
    pub fn finish(mut self, vocab: &[String]) -> Result<(InvertedIndex, SpillStats), SegmentError> {
        assert_eq!(
            vocab.len(),
            self.num_terms,
            "vocabulary size does not match the builder's term count"
        );
        let num_terms = self.num_terms;
        let mut writer = IndexColumnsWriter::new(&self.config, num_terms);
        let mut read_io = IoStats::default();
        // Peak posting bytes held outside the writer during the finish.
        let live_peak = if self.runs.is_empty() {
            // Never spilled: drain the term lists into the writer. All
            // postings are resident at the start and only shrink as the
            // writer's buffer grows, so `mem_bytes` bounds the live side.
            for (term, list) in std::mem::take(&mut self.postings).into_iter().enumerate() {
                if !list.is_empty() {
                    writer.push_term(term, &list);
                }
                // `list` drops here: accumulator memory is released
                // incrementally as the columns compress, not all at the end.
            }
            self.mem_bytes
        } else {
            if self.mem_bytes > 0 {
                // One merge path: the resident tail becomes the last run.
                self.spill_run()?;
            }
            let (io, merge_peak) = merge_runs(&self.runs, num_terms, &mut writer)?;
            read_io = io;
            merge_peak
        };
        let stats = SpillStats {
            runs: self.runs.len(),
            spilled_postings: self.spilled_postings,
            peak_accum_bytes: self.peak_bytes,
            // Summing the two maxima slightly overcounts the true joint
            // peak — conservative is the right direction for a budget.
            finish_peak_bytes: live_peak + writer.peak_buffered_bytes(),
            write_io: self.write_io,
            read_io,
        };
        let cols = writer.finish();
        let names = self.doc_names.finish();
        let index = InvertedIndex::from_columns(self.config, vocab, names, self.doc_lens, cols)?;
        Ok((index, stats))
    }
}

/// A process-unique run-directory name.
fn unique_dir_name() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    format!(
        "x100-spill-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// Drives a [`CollectionStream`] to completion through an unbudgeted
/// builder: generate → index without ever materializing the collection.
/// Returns the index together with the workload tail (judged queries +
/// efficiency log). This is [`crate::build_index_streaming_spill`] with
/// [`SpillConfig::unbounded`], so there is one drive loop.
pub fn build_index_streaming(
    stream: CollectionStream,
    index_config: &IndexConfig,
    chunk_size: usize,
) -> (InvertedIndex, CollectionTail) {
    let (index, tail, _) = crate::spill::build_index_streaming_spill(
        stream,
        index_config,
        chunk_size,
        SpillConfig::unbounded(),
    )
    .expect(NEVER_SPILLS);
    (index, tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use x100_corpus::{CollectionConfig, SyntheticCollection};

    fn unbounded(num_terms: usize) -> IndexBuilder {
        IndexBuilder::new(num_terms, &IndexConfig::default(), SpillConfig::unbounded())
    }

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
    fn build_index_streaming_end_to_end() {
        let cfg = CollectionConfig::tiny();
        let c = SyntheticCollection::generate(&cfg);
        let batch = InvertedIndex::build(&c, &IndexConfig::compressed());
        let stream = x100_corpus::CollectionStream::new(&cfg);
        let (streamed, tail) = build_index_streaming(stream, &IndexConfig::compressed(), 64);
        assert_indexes_equal(&streamed, &batch, c.vocab.len());
        assert_eq!(tail.efficiency_log, c.efficiency_log);
        assert_eq!(streamed.term_id("term3"), Ok(Some(3)));
        assert_eq!(streamed.doc_name(0), Ok(Some("doc-00000000".to_owned())));
    }

    #[test]
    fn docids_assigned_densely() {
        let mut b = unbounded(3);
        assert_eq!(b.push_doc("a", &[(0, 1)], 1).unwrap(), 0);
        assert_eq!(b.push_doc("b", &[(1, 2), (2, 1)], 3).unwrap(), 1);
        assert_eq!(b.num_docs(), 2);
        assert_eq!(b.num_postings(), 3);
    }

    #[test]
    fn lazy_allocation_tracks_max_seen_term() {
        // A huge vocabulary must not cost anything until terms appear.
        let mut b = unbounded(100_000);
        assert!(b.postings.is_empty());
        b.push_doc("a", &[(3, 1)], 1).unwrap();
        assert_eq!(b.postings.len(), 4);
        b.push_doc("b", &[(1, 2), (17, 1)], 3).unwrap();
        assert_eq!(b.postings.len(), 18);
        let vocab: Vec<String> = (0..100_000).map(|t| format!("term{t}")).collect();
        let (idx, _) = b.finish(&vocab).unwrap();
        assert_eq!(idx.num_postings(), 3);
        assert_eq!(idx.doc_freq(17), 1);
        assert_eq!(idx.doc_freq(99_999), 0);
        assert!(idx.term_range(99_999).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_vocab_term_panics() {
        let _ = unbounded(3).push_doc("a", &[(3, 1)], 1);
    }

    #[test]
    fn term_larger_than_a_page_is_an_error() {
        let built = unbounded(2).finish(&["fits".to_owned(), "t".repeat(4085)]);
        assert_eq!(
            built.err(),
            Some(SegmentError::TooLarge(
                "term record exceeds a vocabulary page"
            ))
        );
    }

    #[test]
    fn duplicate_vocabulary_term_is_an_error_at_finish() {
        // A vocabulary with a duplicate term cannot be paged so that every
        // term is found; the spilled finish builds the same pages.
        let vocab = ["b", "a", "a"].map(str::to_owned);
        for (spill, spills) in [
            (SpillConfig::unbounded(), false),
            (SpillConfig::with_budget(1), true),
        ] {
            let mut b = IndexBuilder::new(3, &IndexConfig::default(), spill);
            b.push_doc("d0", &[(0, 1), (2, 1)], 2).unwrap();
            b.push_doc("d1", &[(1, 2)], 2).unwrap();
            assert_eq!(!b.runs.is_empty(), spills);
            assert_eq!(
                b.finish(&vocab).err(),
                Some(SegmentError::Corrupt(
                    "vocabulary terms not strictly ascending"
                ))
            );
        }
    }

    #[test]
    #[should_panic(expected = "vocabulary size")]
    fn vocab_mismatch_rejected() {
        let _ = unbounded(5).finish(&["only".to_owned()]);
    }
}
