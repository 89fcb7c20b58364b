//! Spill-to-disk index construction under an explicit memory budget.
//!
//! [`crate::StreamingIndexBuilder`] accumulates every posting in RAM, which
//! caps the reachable collection size at available memory. The paper indexes
//! the 25 M-document GOV2 corpus on hardware where that is impossible, so
//! the build side needs the classic external-sort discipline:
//!
//! 1. accumulate postings until a **budget** (bytes of packed postings) is
//!    about to be exceeded;
//! 2. flush the whole accumulator as one sorted, term-ordered **run file**
//!    ([`x100_storage::runfile`]) and start over;
//! 3. on [`finish`](SpillingIndexBuilder::finish), **k-way merge** the runs
//!    back into one (term, docid)-ordered posting stream, fed term by term
//!    into the crate's columnar writer, which compresses column blocks as
//!    they fill — the merged `docid`/`tf` columns are **never materialized
//!    uncompressed**, so the finish-side peak is the merge's live segments
//!    plus the largest posting list plus two pending blocks
//!    ([`SpillStats::finish_peak_bytes`]), not the total posting volume.
//!
//! Peak posting-accumulator memory is bounded by the budget (plus one
//! document, when a single document alone exceeds it); run-file I/O is
//! charged to a [`DiskModel`] and reported in [`SpillStats`]. The
//! differential test-suite (`tests/spill_vs_memory.rs`) pins builder
//! equivalence across budgets down to the pathological
//! spill-after-every-document case — including per-block bit-identity
//! against the materialize-then-compress reference — and the merge is
//! property-tested against a collect-and-sort oracle on adversarial run
//! shapes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use x100_corpus::{CollectionStream, CollectionTail, Document};
use x100_storage::runfile::{RunFileReader, RunFileWriter, RunMeta, RunSource};
use x100_storage::{DiskModel, IoStats, RunFileError};

use crate::builder::StreamingIndexBuilder;
use crate::columns::IndexColumnsWriter;
use crate::index::{IndexConfig, InvertedIndex};

/// Error surfaced by the spill path: run-file corruption/IO, or a run whose
/// contents disagree with the vocabulary being finished against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillError {
    /// Run-file level failure (I/O, truncation, checksum, ordering).
    Run(RunFileError),
    /// A merged run contained a term id outside the build vocabulary.
    TermOutOfVocab {
        /// The offending term id.
        term: u32,
        /// The vocabulary size the builder was constructed with.
        num_terms: usize,
    },
    /// A term id too large for the run-file format's 32-bit term field.
    /// Surfaced instead of silently truncating when a vocabulary exceeds
    /// `u32::MAX` ids.
    TermIdOverflow {
        /// The offending term slot.
        term: usize,
    },
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Run(e) => write!(f, "spill run error: {e}"),
            SpillError::TermOutOfVocab { term, num_terms } => {
                write!(
                    f,
                    "run term {term} out of range for vocabulary of {num_terms}"
                )
            }
            SpillError::TermIdOverflow { term } => {
                write!(f, "term id {term} exceeds the run-file format's u32 range")
            }
        }
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillError::Run(e) => Some(e),
            SpillError::TermOutOfVocab { .. } | SpillError::TermIdOverflow { .. } => None,
        }
    }
}

impl From<RunFileError> for SpillError {
    fn from(e: RunFileError) -> Self {
        SpillError::Run(e)
    }
}

/// Configuration of the spill path: the posting-memory budget, where run
/// files live, and the disk model their I/O is charged to.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Budget in bytes of packed postings (8 bytes per posting) the
    /// accumulator may hold before flushing a run. Document metadata
    /// (names, lengths) and the final merged index are *not* covered —
    /// the budget bounds the build-side intermediate, which is what grows
    /// with collection size ahead of everything else.
    pub budget_bytes: usize,
    /// Parent directory for run storage; `None` uses the system temp dir.
    /// Each builder creates its own uniquely named subdirectory beneath
    /// it (removed again on drop), so many builders may safely share one
    /// parent.
    pub dir: Option<PathBuf>,
    /// Disk model run-file writes and merge reads are charged to.
    pub disk: DiskModel,
}

impl SpillConfig {
    /// A spill configuration with the given posting budget, temp-dir run
    /// storage and the default [`DiskModel::raid12`] cost model.
    pub fn with_budget(budget_bytes: usize) -> Self {
        SpillConfig {
            budget_bytes,
            dir: None,
            disk: DiskModel::raid12(),
        }
    }

    /// An effectively unbounded budget: the builder never spills and
    /// behaves exactly like [`crate::StreamingIndexBuilder`].
    pub fn unbounded() -> Self {
        SpillConfig::with_budget(usize::MAX)
    }
}

/// What the spill path did: run counts, I/O volume and the accumulator's
/// high-water mark.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Number of run files written (0 = never exceeded the budget).
    pub runs: usize,
    /// Postings that went through run files.
    pub spilled_postings: u64,
    /// Peak bytes of packed postings resident in the accumulator.
    pub peak_accum_bytes: usize,
    /// Peak bytes of finish-phase intermediates: the merge's live posting
    /// residency (one in-flight decoded segment per run source plus the
    /// merged-term buffer, see [`MergeStats`]) plus the columnar writer's
    /// pending uncompressed blocks — and, on the never-spilled path, the
    /// resident accumulator being drained. The streaming columnar finish
    /// keeps this O(sources + block + largest posting list) instead of
    /// O(total postings).
    pub finish_peak_bytes: usize,
    /// Simulated write accounting: one request per run flushed, costed via
    /// [`DiskModel::write_cost`].
    pub write_io: IoStats,
    /// Simulated read accounting: one request per run read back at merge,
    /// costed via [`DiskModel::read_cost`].
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

/// Builds an [`InvertedIndex`] from documents pushed in docid order while
/// keeping posting-accumulator memory under [`SpillConfig::budget_bytes`].
///
/// Drop-in sibling of [`crate::StreamingIndexBuilder`]: same push
/// discipline, same resulting index (the differential suite asserts
/// bit-equality of every column), but `push_doc` is fallible (a flush may
/// hit the filesystem) and [`finish`](Self::finish) returns the
/// [`SpillStats`] alongside the index.
///
/// ```
/// use x100_corpus::{CollectionConfig, SyntheticCollection};
/// use x100_ir::{IndexConfig, SpillConfig, SpillingIndexBuilder};
///
/// let c = SyntheticCollection::generate(&CollectionConfig::tiny());
/// let mut b = SpillingIndexBuilder::new(
///     c.vocab.len(),
///     &IndexConfig::default(),
///     SpillConfig::with_budget(16 * 1024),
/// );
/// for doc in &c.docs {
///     b.push_doc(&doc.name, &doc.terms, doc.len).unwrap();
/// }
/// let (index, stats) = b.finish(&c.vocab).unwrap();
/// assert!(stats.runs > 0); // tiny already overflows a 16 KiB budget
/// assert!(stats.peak_accum_bytes <= 16 * 1024);
/// assert_eq!(index.num_postings(), c.docs.iter().map(|d| d.terms.len()).sum::<usize>());
/// ```
#[derive(Debug)]
pub struct SpillingIndexBuilder {
    /// The in-memory accumulator between flushes: the spill builder *is*
    /// a [`StreamingIndexBuilder`], so the two paths share one push and
    /// one never-spilled finish and cannot drift apart.
    inner: StreamingIndexBuilder,
    spill: SpillConfig,
    num_terms: usize,
    /// Bytes of packed postings currently resident in `inner`.
    mem_bytes: usize,
    peak_bytes: usize,
    runs: Vec<RunMeta>,
    guard: RunDirGuard,
    write_io: IoStats,
    read_io: IoStats,
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

impl SpillingIndexBuilder {
    /// A budgeted builder over a vocabulary of `num_terms` term ids.
    pub fn new(num_terms: usize, config: &IndexConfig, spill: SpillConfig) -> Self {
        SpillingIndexBuilder {
            inner: StreamingIndexBuilder::new(num_terms, config),
            spill,
            num_terms,
            mem_bytes: 0,
            peak_bytes: 0,
            runs: Vec::new(),
            guard: RunDirGuard::default(),
            write_io: IoStats::default(),
            read_io: IoStats::default(),
            spilled_postings: 0,
        }
    }

    /// Documents accepted so far (= the next docid to be assigned).
    pub fn num_docs(&self) -> usize {
        self.inner.num_docs()
    }

    /// Postings accepted so far, resident and spilled together.
    pub fn num_postings(&self) -> u64 {
        self.mem_bytes as u64 / 8 + self.spilled_postings
    }

    /// Run files flushed so far.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Paths of the run files flushed so far (the failure-injection suite
    /// corrupts these between pushes and `finish`).
    pub fn run_paths(&self) -> Vec<PathBuf> {
        self.runs.iter().map(|r| r.path.clone()).collect()
    }

    /// High-water mark of packed-posting bytes resident in the accumulator.
    pub fn peak_accum_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Packed-posting bytes currently resident in the accumulator (the
    /// unspilled tail). Drivers finishing several builders in sequence use
    /// this to account for the accumulators still waiting while another
    /// builder's finish phase runs.
    pub fn resident_accum_bytes(&self) -> usize {
        self.mem_bytes
    }

    /// Accepts the next document and returns its assigned dense docid,
    /// flushing a run first whenever accepting it would exceed the budget.
    ///
    /// `terms` must be sorted by term id, as [`Document::terms`]
    /// guarantees.
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
    ) -> Result<u32, SpillError> {
        let doc_bytes = terms.len() * 8;
        if self.mem_bytes > 0 && self.mem_bytes + doc_bytes > self.spill.budget_bytes {
            self.spill_run()?;
        }
        let docid = self.inner.push_doc(name, terms, len);
        self.mem_bytes += doc_bytes;
        self.peak_bytes = self.peak_bytes.max(self.mem_bytes);
        Ok(docid)
    }

    /// Accepts a chunk of documents in order.
    pub fn push_docs<'a>(
        &mut self,
        docs: impl IntoIterator<Item = &'a Document>,
    ) -> Result<(), SpillError> {
        for doc in docs {
            self.push_doc(&doc.name, &doc.terms, doc.len)?;
        }
        Ok(())
    }

    /// Flushes the current accumulator as one sorted run file.
    fn spill_run(&mut self) -> Result<(), SpillError> {
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
                std::fs::create_dir_all(&d).map_err(RunFileError::from)?;
                self.guard.dir = Some(d.clone());
                d
            }
        };
        let path = dir.join(format!("run-{:05}.x1rn", self.runs.len()));
        let mut writer = RunFileWriter::create(&path)?;
        // Register with the drop guard up front so a partially written
        // run is cleaned up even when this flush errors out.
        self.guard.paths.push(path);
        // Draining the term lists releases the accumulator's memory —
        // the whole point — while document metadata stays in `inner`.
        let lists = self.inner.take_term_lists();
        for (term, list) in lists.iter().enumerate() {
            if !list.is_empty() {
                let term_id =
                    u32::try_from(term).map_err(|_| SpillError::TermIdOverflow { term })?;
                writer.push_term(term_id, list)?;
            }
        }
        let meta = writer.finish()?;
        self.write_io.record(
            meta.bytes as usize,
            self.spill.disk.write_cost(meta.bytes as usize),
        );
        self.spilled_postings += meta.num_postings;
        self.runs.push(meta);
        self.mem_bytes = 0;
        Ok(())
    }

    /// Assembles the index, merging any on-disk runs, and returns it with
    /// the spill statistics.
    ///
    /// Run files (and the builder's private run directory) are removed by
    /// an internal drop guard — `finish` consumes the builder, so cleanup
    /// happens on every exit path: success, merge errors, and abandoned
    /// builders that never reach `finish` alike.
    ///
    /// # Panics
    /// Panics if `vocab` does not cover the builder's vocabulary size, or
    /// if a term cannot fit one 4 KiB vocabulary page ("term record exceeds
    /// a vocabulary page": 4084 bytes).
    pub fn finish(mut self, vocab: &[String]) -> Result<(InvertedIndex, SpillStats), SpillError> {
        assert_eq!(
            vocab.len(),
            self.num_terms,
            "vocabulary size does not match the builder's term count"
        );
        if self.runs.is_empty() {
            // Never spilled: the accumulator *is* the in-memory builder,
            // whose finish drains term lists straight into the columnar
            // writer and reports the drain's peak.
            let mut stats = self.stats();
            let (index, finish_peak) = self.inner.finish_with_peak(vocab);
            stats.finish_peak_bytes = finish_peak;
            return Ok((index, stats));
        }
        if self.mem_bytes > 0 {
            // Uniform merge path: the resident tail becomes the final run.
            self.spill_run()?;
        }

        // Stream the k-way merge straight into compressed column blocks:
        // each merged term is written and dropped before the next arrives,
        // so the finish-side peak is the live term buffer plus the writer's
        // pending blocks — never whole uncompressed columns.
        let num_terms = self.num_terms;
        let mut writer = IndexColumnsWriter::new(self.inner.config(), num_terms);
        let mut sources = Vec::with_capacity(self.runs.len());
        for run in &self.runs {
            sources.push(RunFileReader::open(&run.path)?);
        }
        let merge_stats = merge_run_sources(sources, |term, merged| {
            if term as usize >= num_terms {
                return Err(SpillError::TermOutOfVocab { term, num_terms });
            }
            writer.push_term(term, merged);
            Ok(())
        })?;
        // Peak residency of the merge (in-flight segments + merged buffer)
        // plus the writer's pending-block high-water. Summing the two maxima
        // slightly overcounts the true joint peak — conservative is the
        // right direction for a budget guarantee.
        let finish_peak = merge_stats.peak_live_bytes + writer.peak_buffered_bytes();
        // Charge the merge's sequential read-back of every run.
        for run in &self.runs {
            self.read_io.record(
                run.bytes as usize,
                self.spill.disk.read_cost(run.bytes as usize),
            );
        }

        let mut stats = self.stats();
        stats.finish_peak_bytes = finish_peak;
        let cols = writer.finish();
        Ok((self.inner.into_index(vocab, cols), stats))
    }

    fn stats(&self) -> SpillStats {
        SpillStats {
            runs: self.runs.len(),
            spilled_postings: self.spilled_postings,
            peak_accum_bytes: self.peak_bytes,
            finish_peak_bytes: 0,
            write_io: self.write_io,
            read_io: self.read_io,
        }
    }
}

/// What a [`merge_run_sources`] call held live, for finish-phase peak
/// accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Peak bytes of posting data resident inside the merge at any
    /// instant: the in-flight decoded segments (one per source, awaiting
    /// their turn in the heap) **plus** the merged-term buffer. The
    /// writer's pending blocks are accounted separately by the caller.
    pub peak_live_bytes: usize,
}

/// K-way merges run sources into one ascending-term segment stream.
///
/// Sources are consumed segment by segment through a min-heap keyed on
/// `(term, source index)`; all segments sharing the minimal term are
/// concatenated in source order and sorted by packed posting word (docid
/// major, tf minor), so the output is correct even for adversarial runs
/// whose docid ranges interleave. `on_term` receives each merged term
/// exactly once, in strictly ascending term order; the slice it borrows is
/// **one buffer reused across terms** (it grows to the largest posting list
/// and stays there), so per-term consumers on the merge hot path never
/// trigger an allocation here. Returns [`MergeStats`] with the merge's
/// peak live posting residency (in-flight segments + merged buffer).
///
/// Errors from the sources (corrupt run files) and from `on_term`
/// propagate; a source that yields non-ascending terms is reported as
/// corrupt rather than silently mis-merged.
pub fn merge_run_sources<S: RunSource>(
    mut sources: Vec<S>,
    mut on_term: impl FnMut(u32, &[u64]) -> Result<(), SpillError>,
) -> Result<MergeStats, SpillError> {
    let mut pending: Vec<Option<(u32, Vec<u64>)>> = Vec::with_capacity(sources.len());
    let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
    // Bytes of decoded postings sitting in `pending`, maintained
    // incrementally; its high-water (together with the merged buffer) is
    // what the finish-phase budget accounting needs.
    let mut pending_bytes = 0usize;
    for (i, src) in sources.iter_mut().enumerate() {
        let seg = src.next_segment()?;
        if let Some((term, postings)) = &seg {
            heap.push(Reverse((*term, i)));
            pending_bytes += postings.len() * 8;
        }
        pending.push(seg);
    }
    let mut stats = MergeStats {
        peak_live_bytes: pending_bytes,
    };
    // Reused across terms: cleared (not shrunk) each round.
    let mut merged: Vec<u64> = Vec::new();
    while let Some(Reverse((term, _))) = heap.peek().copied() {
        merged.clear();
        while let Some(Reverse((t, i))) = heap.peek().copied() {
            if t != term {
                break;
            }
            heap.pop();
            let (_, postings) = pending[i].take().expect("heap entry without segment");
            pending_bytes -= postings.len() * 8;
            merged.extend_from_slice(&postings);
            let seg = sources[i].next_segment()?;
            if let Some((next_term, postings)) = &seg {
                // Enforce strict per-source ascent here (equal terms
                // included): with every source ascending, the heap order
                // makes the emitted stream ascend by construction.
                if *next_term <= term {
                    return Err(SpillError::Run(RunFileError::Corrupt(
                        "merge sources yielded terms out of order",
                    )));
                }
                heap.push(Reverse((*next_term, i)));
                pending_bytes += postings.len() * 8;
            }
            pending[i] = seg;
        }
        stats.peak_live_bytes = stats.peak_live_bytes.max(pending_bytes + merged.len() * 8);
        // Spill-path runs are docid-disjoint and already ordered, making
        // this near-linear; adversarial sources get full correctness.
        merged.sort_unstable();
        on_term(term, &merged)?;
    }
    Ok(stats)
}

/// Builds an index from a [`CollectionStream`] under a posting-memory
/// budget: the budgeted sibling of [`crate::build_index_streaming`].
/// Returns the index, the workload tail and the spill statistics.
pub fn build_index_streaming_spill(
    mut stream: CollectionStream,
    index_config: &IndexConfig,
    chunk_size: usize,
    spill: SpillConfig,
) -> Result<(InvertedIndex, CollectionTail, SpillStats), SpillError> {
    let vocab = stream.vocab();
    let mut builder = SpillingIndexBuilder::new(vocab.len(), index_config, spill);
    let mut chunk = Vec::new();
    while stream.next_chunk_into(chunk_size, &mut chunk) > 0 {
        builder.push_docs(&chunk)?;
    }
    let tail = stream.finish();
    let (index, stats) = builder.finish(&vocab)?;
    Ok((index, tail, stats))
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

#[cfg(test)]
mod tests {
    use super::*;
    use x100_corpus::{CollectionConfig, SyntheticCollection};
    use x100_storage::MemRun;

    fn build_spilling(budget: usize) -> (SyntheticCollection, InvertedIndex, SpillStats) {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let mut b = SpillingIndexBuilder::new(
            c.vocab.len(),
            &IndexConfig::compressed(),
            SpillConfig::with_budget(budget),
        );
        b.push_docs(&c.docs).unwrap();
        let (idx, stats) = b.finish(&c.vocab).unwrap();
        (c, idx, stats)
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
        let (c, idx, stats) = build_spilling(8 * 1024);
        assert!(stats.runs > 1, "expected multiple runs, got {}", stats.runs);
        assert!(stats.peak_accum_bytes <= 8 * 1024);
        // The streamed finish never materializes whole columns: its peak is
        // bounded by the pending column blocks plus the largest merged term
        // list, far below the total posting volume.
        assert!(stats.finish_peak_bytes > 0);
        assert!(
            stats.finish_peak_bytes <= idx.num_postings() * 8 + 16 * 1024,
            "finish peak {} for {} postings",
            stats.finish_peak_bytes,
            idx.num_postings()
        );
        assert_eq!(stats.write_io.reads, stats.runs as u64);
        assert_eq!(stats.read_io.reads, stats.runs as u64); // every run read back
        assert_eq!(stats.write_io.bytes, stats.read_io.bytes);
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
        let mut b =
            SpillingIndexBuilder::new(1, &IndexConfig::compressed(), SpillConfig::unbounded());
        let _ = b.push_doc(&"n".repeat(4089), &[(0, 1)], 1);
    }

    #[test]
    fn run_files_are_cleaned_up() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let mut b = SpillingIndexBuilder::new(
            c.vocab.len(),
            &IndexConfig::compressed(),
            SpillConfig::with_budget(4 * 1024),
        );
        b.push_docs(&c.docs).unwrap();
        let paths = b.run_paths();
        assert!(!paths.is_empty());
        assert!(paths.iter().all(|p| p.exists()));
        let dir = paths[0].parent().unwrap().to_path_buf();
        let _ = b.finish(&c.vocab).unwrap();
        assert!(paths.iter().all(|p| !p.exists()));
        assert!(!dir.exists());
    }

    #[test]
    fn merge_handles_empty_and_disjoint_sources() {
        let a = MemRun::new(vec![(1, vec![10]), (5, vec![11, 12])]);
        let b = MemRun::new(vec![]);
        let c = MemRun::new(vec![(0, vec![7]), (5, vec![2])]);
        let mut got = Vec::new();
        merge_run_sources(vec![a, b, c], |t, p| {
            got.push((t, p.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(got, vec![(0, vec![7]), (1, vec![10]), (5, vec![2, 11, 12])]);
    }

    #[test]
    fn merge_rejects_out_of_order_source() {
        let bad = MemRun::new(vec![(5, vec![1]), (3, vec![2])]);
        let err = merge_run_sources(vec![bad], |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, SpillError::Run(RunFileError::Corrupt(_))));
        // Equal terms from one source are just as corrupt as descending.
        let dup = MemRun::new(vec![(5, vec![1]), (5, vec![2])]);
        let err = merge_run_sources(vec![dup], |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, SpillError::Run(RunFileError::Corrupt(_))));
    }

    #[test]
    fn builders_sharing_a_parent_dir_do_not_collide() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let parent = std::env::temp_dir().join(format!("shared-{}", unique_dir_name()));
        let spill_cfg = SpillConfig {
            budget_bytes: 8 * 1024,
            dir: Some(parent.clone()),
            disk: DiskModel::raid12(),
        };
        let mut a =
            SpillingIndexBuilder::new(c.vocab.len(), &IndexConfig::compressed(), spill_cfg.clone());
        let mut b = SpillingIndexBuilder::new(c.vocab.len(), &IndexConfig::compressed(), spill_cfg);
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
        let mut b = SpillingIndexBuilder::new(
            c.vocab.len(),
            &IndexConfig::compressed(),
            SpillConfig::with_budget(4 * 1024),
        );
        b.push_docs(&c.docs).unwrap();
        let paths = b.run_paths();
        assert!(!paths.is_empty() && paths.iter().all(|p| p.exists()));
        let dir = paths[0].parent().unwrap().to_path_buf();
        drop(b); // never finished
        assert!(paths.iter().all(|p| !p.exists()));
        assert!(!dir.exists());
    }

    #[test]
    fn finish_rejects_out_of_vocab_terms() {
        let src = MemRun::new(vec![(9, vec![1])]);
        let err = merge_run_sources(vec![src], |term, _| {
            if term as usize >= 3 {
                return Err(SpillError::TermOutOfVocab { term, num_terms: 3 });
            }
            Ok(())
        })
        .unwrap_err();
        assert_eq!(
            err,
            SpillError::TermOutOfVocab {
                term: 9,
                num_terms: 3
            }
        );
        assert!(err.to_string().contains("out of range"));
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
        let b = SpillingIndexBuilder::new(4, &IndexConfig::default(), SpillConfig::with_budget(1));
        let vocab: Vec<String> = (0..4).map(|t| format!("term{t}")).collect();
        let (idx, stats) = b.finish(&vocab).unwrap();
        assert_eq!(idx.num_postings(), 0);
        assert_eq!(stats.runs, 0);
        assert_eq!(stats.finish_peak_bytes, 0);
    }

    #[test]
    fn term_id_overflow_is_a_typed_error() {
        // A vocabulary slot past u32::MAX cannot be represented in the
        // run-file format's 32-bit term field; the spill path surfaces a
        // typed error instead of the silent `as u32` truncation it used to
        // perform. (Constructing 2^32 real term lists is impractical, so
        // pin the error type and message directly.)
        let err = SpillError::TermIdOverflow {
            term: u32::MAX as usize + 1,
        };
        assert!(err.to_string().contains("u32 range"));
        assert!(std::error::Error::source(&err).is_none());
    }
}
