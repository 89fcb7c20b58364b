//! The external sort under an explicit memory budget: its configuration,
//! statistics, and its runs — each one a segment.
//!
//! An accumulator that holds every posting in RAM caps the reachable
//! collection size at available memory. The paper indexes the 25 M-document
//! GOV2 corpus on hardware where that is impossible, so the build side needs
//! the classic external-sort discipline, which [`crate::IndexBuilder`]
//! implements:
//!
//! 1. accumulate postings until a **budget** (bytes of packed postings plus
//!    the run writer's pending blocks) is about to be exceeded;
//! 2. drain the accumulator through the columnar writer the in-memory
//!    finish uses, and write it as one **run**: a segment
//!    ([`x100_storage::SegmentWriter`]) of three column sections —
//!    `DocFreqs`, `ColDocid` and `ColTf` — in the index's per-block PFOR
//!    codecs, at a small run block size; then start over;
//! 3. on [`finish`](crate::IndexBuilder::finish), open every run
//!    ([`x100_storage::SegmentReader::open`] verifies every byte) and, for
//!    each term in ascending order, append each run's part of its list, in
//!    run order, into the index's columnar writer. One builder's runs are
//!    docid-disjoint and ascending, so that concatenation *is* the term's
//!    list; a list that does not strictly ascend — inside a run or where
//!    two runs meet — is a typed [`SegmentError::Corrupt`], never sorted.
//!    The merged `docid`/`tf` columns are **never materialized
//!    uncompressed**: the finish-side peak is one decoded block per run
//!    column plus the writer's two pending blocks
//!    ([`SpillStats::finish_peak_bytes`]), not the total posting volume.
//!
//! Peak posting-accumulator memory is bounded by the budget (plus one
//! document, when a single document alone exceeds it); run I/O is charged
//! to [`x100_storage::DiskModel::raid12`] and reported in [`SpillStats`].
//! The differential test-suite (`tests/spill_vs_memory.rs`) pins builder
//! equivalence across budgets down to the pathological
//! spill-after-every-document case — including per-block and per-segment
//! bit-identity against the in-memory build.

use std::path::{Path, PathBuf};

use x100_corpus::{CollectionStream, CollectionTail};
use x100_storage::{
    Column, ColumnBuilder, DiskModel, IoStats, SectionKind, SegmentError, SegmentReader,
    SegmentWriter,
};

use crate::builder::IndexBuilder;
use crate::columns::{IndexColumnsWriter, PFOR_PER_BLOCK, PFOR_POSTINGS};
use crate::index::{IndexConfig, InvertedIndex};
use crate::segment::block_error;

/// Block size, in values, of every run column: a small multiple of the
/// 128-value stride, so the run writer's pending blocks and the merge's
/// decoded blocks stay KiB-sized even under a 64 KiB node budget.
const RUN_BLOCK_SIZE: usize = 1 << 10;

/// Bytes the spill threshold reserves for the run writer's pending blocks:
/// one block of each posting column, 4 bytes per value.
pub(crate) const RUN_WRITER_RESERVE: usize = 2 * 4 * RUN_BLOCK_SIZE;

/// Configuration of the spill path: the posting-memory budget and where run
/// files live.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Budget in bytes for the build-side intermediate: packed postings (8
    /// bytes each) in the accumulator plus the run writer's pending blocks
    /// while it drains them. Document metadata (names, lengths), per-term
    /// arrays and the final merged index are *not* covered — the budget
    /// bounds what grows with collection size ahead of everything else.
    pub budget_bytes: usize,
    /// Parent directory for run storage; `None` uses the system temp dir.
    /// Each builder creates its own uniquely named subdirectory beneath
    /// it (removed again on drop), so many builders may safely share one
    /// parent.
    pub dir: Option<PathBuf>,
}

impl SpillConfig {
    /// A spill configuration with the given posting budget and temp-dir
    /// run storage.
    pub fn with_budget(budget_bytes: usize) -> Self {
        SpillConfig {
            budget_bytes,
            dir: None,
        }
    }

    /// An effectively unbounded budget: the builder never spills, which
    /// makes it the in-memory build.
    pub fn unbounded() -> Self {
        SpillConfig::with_budget(usize::MAX)
    }
}

/// What the spill path did: run counts, I/O volume and the accumulator's
/// high-water mark.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Number of runs written (0 = never exceeded the budget).
    pub runs: usize,
    /// Postings that went through runs.
    pub spilled_postings: u64,
    /// Peak bytes of the accumulate phase: packed postings resident in the
    /// accumulator, plus — while a run is written — the run writer's
    /// pending-block high-water.
    pub peak_accum_bytes: usize,
    /// Peak bytes of finish-phase intermediates: the merge's decoded run
    /// blocks (one per run column, plus one block in flight) plus the
    /// columnar writer's pending uncompressed blocks — and, on the
    /// never-spilled path, the resident accumulator being drained. The
    /// streaming columnar finish keeps this O(runs × block) instead of
    /// O(total postings).
    pub finish_peak_bytes: usize,
    /// Simulated write accounting: one request per run written, costed via
    /// [`x100_storage::DiskModel::write_cost`].
    pub write_io: IoStats,
    /// Simulated read accounting, costed via
    /// [`x100_storage::DiskModel::read_cost`]: per run, the open's
    /// whole-file verification pass, then its blocks read front to back as
    /// one sequential stream.
    pub read_io: IoStats,
}

impl SpillStats {
    /// Total spill traffic, both directions combined.
    pub fn total_io(&self) -> IoStats {
        let mut io = self.write_io;
        io.merge(&self.read_io);
        io
    }
}

/// Drains term lists (indexed by term id, packed `docid << 32 | tf`) into
/// a run segment at `path`. Each list is dropped once written, so the
/// accumulator shrinks as the run compresses. Returns the run's size in
/// bytes and the run writer's pending-block high-water.
pub(crate) fn write_run(
    path: &Path,
    lists: Vec<Vec<u64>>,
    num_terms: usize,
) -> Result<(u64, usize), SegmentError> {
    let mut writer = IndexColumnsWriter::with_layout(PFOR_POSTINGS, RUN_BLOCK_SIZE, num_terms);
    for (term, list) in lists.into_iter().enumerate() {
        if !list.is_empty() {
            writer.push_term(term, &list);
        }
    }
    let pending_peak = writer.peak_buffered_bytes();
    let cols = writer.finish();
    // One pending block at a time, after the posting columns sealed theirs:
    // each term's posting count, the length of its offset range.
    let mut doc_freqs = ColumnBuilder::with_block_size("doc_freqs", PFOR_PER_BLOCK, RUN_BLOCK_SIZE);
    for w in cols.offsets.windows(2) {
        doc_freqs.push((w[1] - w[0]) as u32);
    }
    let mut w = SegmentWriter::create(path)?;
    w.write_column_section(SectionKind::DocFreqs, &doc_freqs.finish())?;
    w.write_column_section(SectionKind::ColDocid, &cols.docid)?;
    w.write_column_section(SectionKind::ColTf, &cols.tf)?;
    Ok((w.finish()?, pending_peak))
}

/// One column of an open run, read front to back one decoded block at a
/// time.
struct RunColumn {
    column: Column,
    next_block: usize,
    values: Vec<u32>,
    pos: usize,
    /// Bytes of the block images read so far, and the largest one.
    bytes_read: usize,
    largest_image: usize,
}

impl RunColumn {
    fn new(column: Column) -> Self {
        RunColumn {
            column,
            next_block: 0,
            values: Vec::new(),
            pos: 0,
            bytes_read: 0,
            largest_image: 0,
        }
    }

    /// The unread rest of the decoded block, never empty, reading the next
    /// block once the current one is used up.
    fn peek(&mut self) -> Result<&[u32], SegmentError> {
        if self.pos == self.values.len() {
            let b = self.next_block;
            if b == self.column.block_count() {
                return Err(SegmentError::Corrupt("run doc_freqs exceed its postings"));
            }
            self.column
                .fetch(b)
                .map_err(block_error)?
                .decode_into(&mut self.values);
            if self.values.is_empty() {
                return Err(SegmentError::Corrupt("empty run block"));
            }
            let image = self.column.block_bytes(b);
            self.bytes_read += image;
            self.largest_image = self.largest_image.max(image);
            self.next_block += 1;
            self.pos = 0;
        }
        Ok(&self.values[self.pos..])
    }

    fn is_drained(&self) -> bool {
        self.pos == self.values.len() && self.next_block == self.column.block_count()
    }
}

/// An open run: its per-term document frequencies and posting columns.
struct Run {
    doc_freqs: RunColumn,
    docid: RunColumn,
    tf: RunColumn,
}

impl Run {
    fn open(path: &Path, num_terms: usize) -> Result<Self, SegmentError> {
        let segment = SegmentReader::open(path)?;
        let column = |kind, name| segment.open_column(kind, name).map(RunColumn::new);
        let run = Run {
            doc_freqs: column(SectionKind::DocFreqs, "doc_freqs")?,
            docid: column(SectionKind::ColDocid, "docid")?,
            tf: column(SectionKind::ColTf, "tf")?,
        };
        if run.doc_freqs.column.len() != num_terms {
            return Err(SegmentError::Corrupt(
                "run doc_freqs length differs from the vocabulary",
            ));
        }
        if run.docid.column.len() != run.tf.column.len() {
            return Err(SegmentError::Corrupt("run docid and tf lengths disagree"));
        }
        Ok(run)
    }
}

/// Appends every run's postings into `writer`: term by term in ascending
/// order and, within a term, run by run in spill order. `runs` are `(path,
/// size in bytes)` pairs. Returns the read accounting and the merge's peak
/// bytes outside the writer.
pub(crate) fn merge_runs(
    runs: &[(PathBuf, u64)],
    num_terms: usize,
    writer: &mut IndexColumnsWriter,
) -> Result<(IoStats, usize), SegmentError> {
    let disk = DiskModel::raid12();
    let mut read_io = IoStats::default();
    let mut open = Vec::with_capacity(runs.len());
    for (path, bytes) in runs {
        open.push(Run::open(path, num_terms)?);
        // The open verifies every byte: one sequential read of the run.
        read_io.record(*bytes as usize, disk.read_cost(*bytes as usize));
    }
    for term in 0..num_terms {
        let mut last = None;
        for run in &mut open {
            let mut left = run.doc_freqs.peek()?[0] as usize;
            run.doc_freqs.pos += 1;
            while left > 0 {
                let docids = run.docid.peek()?;
                let tfs = run.tf.peek()?;
                let n = left.min(docids.len()).min(tfs.len());
                let docids = &docids[..n];
                if last.is_some_and(|l| l >= docids[0]) || docids.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(SegmentError::Corrupt("run postings do not strictly ascend"));
                }
                last = Some(docids[n - 1]);
                writer.extend_term(term, docids, &tfs[..n]);
                run.docid.pos += n;
                run.tf.pos += n;
                left -= n;
            }
        }
    }
    let (mut decoded, mut in_flight) = (0, 0);
    for run in &open {
        if !run.docid.is_drained() || !run.tf.is_drained() {
            return Err(SegmentError::Corrupt(
                "run holds postings beyond its doc_freqs",
            ));
        }
        let cols = [&run.doc_freqs, &run.docid, &run.tf];
        // Held while reading: each column's decoded block, plus one block
        // in flight — its image, its parsed form and its decoded scratch.
        for col in cols {
            decoded += col.values.capacity() * 4;
            in_flight = in_flight.max(2 * col.largest_image + col.values.capacity() * 4);
        }
        // Each run is read front to back exactly once: one sequential
        // stream, however the runs interleave.
        let bytes = cols.iter().map(|col| col.bytes_read).sum();
        read_io.record(bytes, disk.read_cost(bytes));
    }
    Ok((read_io, decoded + in_flight))
}

/// Builds an index from a [`CollectionStream`] under a posting-memory
/// budget — the one drive loop, which [`crate::build_index_streaming`]
/// runs unbudgeted. Returns the index, the workload tail and the spill
/// statistics.
pub fn build_index_streaming_spill(
    mut stream: CollectionStream,
    index_config: &IndexConfig,
    chunk_size: usize,
    spill: SpillConfig,
) -> Result<(InvertedIndex, CollectionTail, SpillStats), SegmentError> {
    let vocab = stream.vocab();
    let mut builder = IndexBuilder::new(vocab.len(), index_config, spill);
    let mut chunk = Vec::new();
    while stream.next_chunk_into(chunk_size, &mut chunk) > 0 {
        builder.push_docs(&chunk)?;
    }
    let tail = stream.finish();
    let (index, stats) = builder.finish(&vocab)?;
    Ok((index, tail, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use x100_corpus::{CollectionConfig, SyntheticCollection};

    fn build_spilling(budget: usize) -> (SyntheticCollection, InvertedIndex, SpillStats) {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let mut b = IndexBuilder::new(
            c.vocab.len(),
            &IndexConfig::compressed(),
            SpillConfig::with_budget(budget),
        );
        b.push_docs(&c.docs).unwrap();
        let (idx, stats) = b.finish(&c.vocab).unwrap();
        (c, idx, stats)
    }

    fn pack(docid: u32, tf: u32) -> u64 {
        (u64::from(docid) << 32) | u64::from(tf)
    }

    /// The tiny collection pushed into a builder whose budget leaves
    /// several runs on disk.
    fn spilled_builder(c: &SyntheticCollection) -> IndexBuilder {
        let mut b = IndexBuilder::new(
            c.vocab.len(),
            &IndexConfig::compressed(),
            SpillConfig::with_budget(16 * 1024),
        );
        b.push_docs(&c.docs).unwrap();
        assert!(b.num_runs() >= 2);
        b
    }

    #[test]
    fn unbounded_budget_never_spills() {
        let (c, idx, stats) = build_spilling(usize::MAX);
        assert_eq!(stats.runs, 0);
        assert_eq!(stats.spilled_postings, 0);
        assert_eq!(stats.total_io(), IoStats::default());
        let batch = InvertedIndex::build(&c, &IndexConfig::compressed());
        assert_eq!(idx.num_postings(), batch.num_postings());
        assert_eq!(
            idx.td().column("docid").unwrap().read_all(),
            batch.td().column("docid").unwrap().read_all()
        );
    }

    #[test]
    fn tight_budget_spills_and_matches_batch() {
        let (c, idx, stats) = build_spilling(16 * 1024);
        assert!(stats.runs > 1, "expected multiple runs, got {}", stats.runs);
        assert!(stats.peak_accum_bytes <= 16 * 1024);
        // The streamed finish never materializes whole columns: its peak is
        // one decoded block per run column (three per run, one more run's
        // worth in flight) plus the writer's two pending blocks.
        let per_run = 3 * 4 * RUN_BLOCK_SIZE;
        let pending = 8 * idx.num_postings().min(IndexConfig::compressed().block_size);
        assert!(stats.finish_peak_bytes > 0);
        assert!(
            stats.finish_peak_bytes <= (stats.runs + 1) * per_run + pending,
            "finish peak {} for {} runs",
            stats.finish_peak_bytes,
            stats.runs
        );
        assert_eq!(stats.spilled_postings as usize, idx.num_postings());
        assert_eq!(stats.write_io.reads, stats.runs as u64);
        // Every run is read twice: the open's verification pass over the
        // whole file, then its blocks.
        assert_eq!(stats.read_io.reads, 2 * stats.runs as u64);
        assert!(stats.read_io.bytes > stats.write_io.bytes);
        assert!(stats.read_io.bytes < 2 * stats.write_io.bytes);
        // Compressed runs: well under the 8 bytes a packed posting takes.
        assert!(stats.write_io.bytes < stats.spilled_postings * 4);
        assert!(stats.total_io().sim_time > std::time::Duration::ZERO);
        let batch = InvertedIndex::build(&c, &IndexConfig::compressed());
        assert_eq!(
            idx.td().column("docid").unwrap().read_all(),
            batch.td().column("docid").unwrap().read_all()
        );
        assert_eq!(
            idx.td().column("tf").unwrap().read_all(),
            batch.td().column("tf").unwrap().read_all()
        );
        assert_eq!(idx.doc_lens(), batch.doc_lens());
    }

    #[test]
    #[should_panic(expected = "document name exceeds a page")]
    fn name_larger_than_a_page_panics() {
        let mut b = IndexBuilder::new(1, &IndexConfig::compressed(), SpillConfig::unbounded());
        let _ = b.push_doc(&"n".repeat(4089), &[(0, 1)], 1);
    }

    #[test]
    fn run_files_are_cleaned_up() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let b = spilled_builder(&c);
        let paths = b.run_paths();
        assert!(paths.iter().all(|p| p.exists()));
        let dir = paths[0].parent().unwrap().to_path_buf();
        let _ = b.finish(&c.vocab).unwrap();
        assert!(paths.iter().all(|p| !p.exists()));
        assert!(!dir.exists());
    }

    #[test]
    fn merge_handles_empty_and_disjoint_sources() {
        // One run per document: runs with disjoint term sets, terms absent
        // from every run, and a term whose list spans several runs.
        let docs: [&[(u32, u32)]; 4] = [&[(1, 2)], &[(4, 1)], &[(1, 1), (4, 3)], &[(5, 1)]];
        let build = |spill: SpillConfig| {
            let mut b = IndexBuilder::new(6, &IndexConfig::compressed(), spill);
            for (i, terms) in docs.iter().enumerate() {
                b.push_doc(&format!("d{i}"), terms, 3).unwrap();
            }
            b.finish(&(0..6).map(|t| format!("t{t}")).collect::<Vec<_>>())
                .unwrap()
        };
        let (expect, _) = build(SpillConfig::unbounded());
        let (got, stats) = build(SpillConfig::with_budget(1));
        assert_eq!(stats.runs, docs.len());
        for t in 0..6 {
            assert_eq!(got.doc_freq(t), expect.doc_freq(t), "term {t}");
            assert_eq!(got.term_range(t), expect.term_range(t), "term {t}");
        }
        assert_eq!(got.doc_freq(0), 0);
        assert_eq!(got.doc_freq(1), 2);
        assert_eq!(
            got.td().column("docid").unwrap().read_all(),
            vec![0, 2, 1, 2, 3]
        );
        assert_eq!(
            got.td().column("tf").unwrap().read_all(),
            expect.td().column("tf").unwrap().read_all()
        );
    }

    #[test]
    fn merge_rejects_out_of_order_source() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        // Descending and repeated docids inside one run are both corrupt:
        // the merge appends, it never sorts.
        for list in [vec![pack(5, 1), pack(3, 1)], vec![pack(5, 1), pack(5, 2)]] {
            let b = spilled_builder(&c);
            let mut lists = vec![Vec::new(); c.vocab.len()];
            lists[7] = list;
            write_run(&b.run_paths()[1], lists, c.vocab.len()).unwrap();
            assert_eq!(
                b.finish(&c.vocab).unwrap_err(),
                SegmentError::Corrupt("run postings do not strictly ascend")
            );
        }
    }

    #[test]
    fn builders_sharing_a_parent_dir_do_not_collide() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let parent = std::env::temp_dir().join(format!("x100-shared-spill-{}", std::process::id()));
        let spill_cfg = SpillConfig {
            budget_bytes: 16 * 1024,
            dir: Some(parent.clone()),
        };
        let mut a = IndexBuilder::new(c.vocab.len(), &IndexConfig::compressed(), spill_cfg.clone());
        let mut b = IndexBuilder::new(c.vocab.len(), &IndexConfig::compressed(), spill_cfg);
        // Interleave pushes so both builders spill into the shared parent
        // concurrently; private subdirectories must keep them apart.
        for doc in &c.docs {
            a.push_doc(&doc.name, &doc.terms, doc.len).unwrap();
            b.push_doc(&doc.name, &doc.terms, doc.len).unwrap();
        }
        assert!(a.num_runs() > 1 && b.num_runs() > 1);
        assert_ne!(a.run_paths()[0], b.run_paths()[0]);
        let batch = InvertedIndex::build(&c, &IndexConfig::compressed());
        let (ia, _) = a.finish(&c.vocab).unwrap();
        let (ib, _) = b.finish(&c.vocab).unwrap();
        for idx in [&ia, &ib] {
            assert_eq!(
                idx.td().column("docid").unwrap().read_all(),
                batch.td().column("docid").unwrap().read_all()
            );
        }
        std::fs::remove_dir(&parent).ok(); // subdirs already gone
    }

    #[test]
    fn abandoned_builder_cleans_up_on_drop() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let b = spilled_builder(&c);
        let paths = b.run_paths();
        assert!(paths.iter().all(|p| p.exists()));
        let dir = paths[0].parent().unwrap().to_path_buf();
        drop(b); // never finished
        assert!(paths.iter().all(|p| !p.exists()));
        assert!(!dir.exists());
    }

    #[test]
    fn finish_rejects_out_of_vocab_terms() {
        // A run written for a larger vocabulary carries doc_freqs for
        // terms the builder does not have.
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let b = spilled_builder(&c);
        let mut lists = vec![Vec::new(); c.vocab.len() + 1];
        lists[c.vocab.len()] = vec![pack(0, 1)];
        write_run(&b.run_paths()[0], lists, c.vocab.len() + 1).unwrap();
        let err = b.finish(&c.vocab).unwrap_err();
        assert_eq!(
            err,
            SegmentError::Corrupt("run doc_freqs length differs from the vocabulary")
        );
        assert!(err.to_string().contains("vocabulary"));
    }

    #[test]
    fn streaming_spill_build_matches_unbudgeted() {
        let cfg = CollectionConfig::tiny();
        let (plain, plain_tail) = crate::builder::build_index_streaming(
            CollectionStream::new(&cfg),
            &IndexConfig::compressed(),
            64,
        );
        let (spilled, tail, stats) = build_index_streaming_spill(
            CollectionStream::new(&cfg),
            &IndexConfig::compressed(),
            64,
            SpillConfig::with_budget(16 * 1024),
        )
        .unwrap();
        assert!(stats.runs > 0);
        assert_eq!(tail.efficiency_log, plain_tail.efficiency_log);
        assert_eq!(spilled.num_postings(), plain.num_postings());
        assert_eq!(
            spilled.td().column("docid").unwrap().read_all(),
            plain.td().column("docid").unwrap().read_all()
        );
    }

    #[test]
    fn empty_builder_finishes_without_disk() {
        let b = IndexBuilder::new(4, &IndexConfig::default(), SpillConfig::with_budget(1));
        let vocab: Vec<String> = (0..4).map(|t| format!("term{t}")).collect();
        let (idx, stats) = b.finish(&vocab).unwrap();
        assert_eq!(idx.num_postings(), 0);
        assert_eq!(stats.runs, 0);
        assert_eq!(stats.finish_peak_bytes, 0);
    }
}
