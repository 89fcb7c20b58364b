//! Allocation-free fused query execution over a reusable scratch arena.
//!
//! The relational path ([`crate::QueryEngine::search`]) builds a fresh
//! operator tree per query — scans, joins, projections, TopN — each with
//! its own staging buffers. That is the right shape for demonstrating the
//! paper's plans, but a serving worker answering thousands of queries per
//! second spends a measurable slice of its time in the allocator, and
//! allocator traffic is exactly the kind of per-tuple overhead §2 of the
//! paper rails against.
//!
//! This module is the serving hot path: a [`QueryScratch`] owns every
//! buffer a query needs (posting-cursor windows, batch score arrays, the
//! top-k heap, term/coefficient tables), *cleared — not freed — between
//! queries*. After a warmup query has grown the buffers to their
//! steady-state sizes, executing a query performs **zero heap
//! allocations** (pinned by `tests/hot_path_allocs.rs`).
//!
//! Results are bit-identical to the relational path for all six plans
//! [`SearchStrategy`] names (its last two variants are aliases: wire tags
//! 6 and 7 run the plans of 2 and 4); `tests/scratch_differential.rs` holds
//! the two paths against each other property-style, including after
//! deliberately corrupting the scratch with [`QueryScratch::poison`]. The
//! equivalence rests on three replicated contracts:
//!
//! * **Scoring arithmetic** — the exact expression shape the relational
//!   plan evaluates (`coef * (tf / (tf + norm))` folded left-to-right,
//!   absent outer-join terms contributing `tf = 0`), in plain IEEE f32
//!   with no FMA contraction, so every intermediate rounds identically.
//! * **Top-k selection** — a replica of `TopN`'s bounded heap including
//!   its IEEE `score <= min` cheap-reject (*not* equivalent to
//!   sort-then-truncate when `+0.0`/`-0.0` tie at the boundary) and its
//!   arrival-order tie-break.
//! * **Buffer accounting** — cursors refill entry-point-aligned windows
//!   clamped to block boundaries, take one [`BufferManager::pin`] per
//!   block entry (charged on a miss) and decode every refill inside the
//!   block from that pin, exactly like `ColumnScan`. Per column the pins
//!   and their count are the relational plan's; across terms the
//!   ranked union interleaves them term-major within a docid window
//!   (`run_ranked`), where the merge-join advances all lists in step.
//!
//! When the `simd` feature is enabled and the CPU has AVX2, the per-term
//! scoring loop over each candidate batch runs 8 lanes wide; conversion
//! (`i32 -> f32`), divide, multiply and add are all IEEE-exact operations,
//! so the wide kernels are bit-identical to the scalar loop (pinned by
//! `tests/scratch_differential.rs` against the forced-scalar fallback).

use std::ops::Range;
use std::sync::Arc;

use x100_compress::{CompressedBlock, ENTRY_POINT_STRIDE};
use x100_exec::ExecError;
use x100_storage::{BufferManager, Column, StorageError};

use crate::bm25::idf;
use crate::engine::SearchStrategy;
use crate::index::{InvertedIndex, Materialize};
use crate::paged::PagedMetadata;

/// A staged window of one column: decompressed values covering
/// `[start, start + stage.len())`, plus the window's pin on the block it is
/// inside — taken from (and charged by) the buffer manager on entry; every
/// refill inside the block decodes straight from it, with no lock and no
/// pool or column access, even if the pool evicts the block meanwhile.
///
/// A window does not know which column it staged, so its contents are
/// valid for one query at most: every query invalidates the windows it
/// will use before aiming them at its own columns.
///
/// The refill math mirrors `ColumnScan::refill` exactly: start at the
/// entry point at or below the read position, span enough strides to cover
/// one vector, clamp to the block end.
#[derive(Debug, Default)]
pub(crate) struct Window {
    stage: Vec<u32>,
    start: usize,
    pin: Option<(usize, Arc<CompressedBlock>)>,
    /// Lifetime count of 128-value strides decoded into the stage.
    /// Counting strides rather than refill events keeps the meter
    /// comparable between wide `vector_size`-span refills and the
    /// single-stride probes of [`TermCursor::seek`]. Monotone; never
    /// cleared.
    refills: u64,
}

impl Window {
    /// Forgets staged data and drops the block pin, keeping the capacity.
    fn invalidate(&mut self) {
        self.stage.clear();
        self.start = usize::MAX;
        self.pin = None;
    }

    /// The value at absolute position `pos`, refilling the window if `pos`
    /// is not staged.
    pub(crate) fn value_at(
        &mut self,
        col: &Column,
        buffers: &BufferManager,
        vector_size: usize,
        pos: usize,
    ) -> Result<u32, StorageError> {
        // `start` may be the usize::MAX sentinel; wrapping keeps the
        // in-range check branchless and correct (a huge offset misses).
        let off = pos.wrapping_sub(self.start);
        if off < self.stage.len() {
            return Ok(self.stage[off]);
        }
        let aligned = pos - pos % ENTRY_POINT_STRIDE;
        let block_size = col.block_size();
        let block_idx = aligned / block_size;
        let block_start = block_idx * block_size;
        let block_end = (block_start + block_size).min(col.len());
        let want_end = (pos + vector_size)
            .next_multiple_of(ENTRY_POINT_STRIDE)
            .min(block_end);
        let block = match &self.pin {
            Some((idx, block)) if *idx == block_idx => block,
            _ => {
                let block = buffers.pin(col, block_idx)?;
                &self.pin.insert((block_idx, block)).1
            }
        };
        block.decode_range_into(aligned - block_start, want_end - aligned, &mut self.stage)?;
        self.start = aligned;
        self.refills += (want_end - aligned).div_ceil(ENTRY_POINT_STRIDE) as u64;
        Ok(self.stage[pos - aligned])
    }
}

/// A reusable cursor over one term's posting range in the TD table:
/// current docid plus lazily windowed access to the payload column.
#[derive(Debug, Default)]
struct TermCursor {
    /// Absolute TD row bounds of this term's postings.
    end: usize,
    /// Absolute TD row of the current posting.
    pos: usize,
    /// Current docid, `None` once the range is exhausted.
    cur: Option<u32>,
    doc: Window,
    pay: Window,
}

impl TermCursor {
    /// Re-aims the cursor at a term range, invalidating staged data (but
    /// keeping buffer capacity) and loading the first docid.
    fn reset(
        &mut self,
        range: Range<usize>,
        doc_col: &Column,
        buffers: &BufferManager,
        vector_size: usize,
    ) -> Result<(), ExecError> {
        self.pos = range.start;
        self.end = range.end;
        self.doc.invalidate();
        self.pay.invalidate();
        self.load(doc_col, buffers, vector_size)
    }

    fn load(
        &mut self,
        doc_col: &Column,
        buffers: &BufferManager,
        vector_size: usize,
    ) -> Result<(), ExecError> {
        self.cur = if self.pos < self.end {
            Some(self.doc.value_at(doc_col, buffers, vector_size, self.pos)?)
        } else {
            None
        };
        Ok(())
    }

    fn advance(
        &mut self,
        doc_col: &Column,
        buffers: &BufferManager,
        vector_size: usize,
    ) -> Result<(), ExecError> {
        self.pos += 1;
        self.load(doc_col, buffers, vector_size)
    }

    /// Walks forward posting by posting to the first docid `>= target` —
    /// the full-scan catch-up of the merge-join plans (every window is
    /// decoded and charged, exactly like `ColumnScan`); [`Self::seek`] is
    /// the skipping one.
    fn walk_to(
        &mut self,
        target: u32,
        doc_col: &Column,
        buffers: &BufferManager,
        vector_size: usize,
    ) -> Result<(), ExecError> {
        while self.cur.is_some_and(|d| d < target) {
            self.advance(doc_col, buffers, vector_size)?;
        }
        Ok(())
    }

    /// The payload (tf or materialized score code) of the current posting.
    fn payload(
        &mut self,
        pay_col: &Column,
        buffers: &BufferManager,
        vector_size: usize,
    ) -> Result<u32, StorageError> {
        self.pay.value_at(pay_col, buffers, vector_size, self.pos)
    }

    /// Positions the cursor at the first posting whose docid is `>=
    /// target`, galloping then binary-searching over the docid column with
    /// single-stride probes — O(log gap) stride decodes, never a sequential
    /// walk. A cursor already at or past the target does not move.
    fn seek(
        &mut self,
        target: u32,
        doc_col: &Column,
        buffers: &BufferManager,
        vector_size: usize,
    ) -> Result<(), ExecError> {
        let past = |d: u32| d >= target;
        let Some(d) = self.cur else { return Ok(()) };
        if past(d) {
            return Ok(());
        }
        // Gallop: docid at `lo` fails the predicate; find a probe that
        // passes (or the range end), doubling the step each round.
        let mut lo = self.pos;
        let mut hi = self.end;
        let mut step = 1usize;
        loop {
            let probe = lo + step;
            if probe >= self.end {
                break;
            }
            let pd = self.doc.value_at(doc_col, buffers, 1, probe)?;
            if past(pd) {
                hi = probe;
                break;
            }
            lo = probe;
            step *= 2;
        }
        // Binary search (lo, hi]: first position passing the predicate.
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let pd = self.doc.value_at(doc_col, buffers, 1, mid)?;
            if past(pd) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        self.pos = hi;
        self.load(doc_col, buffers, vector_size)
    }
}

/// One retained top-k row: replica of `TopN`'s `HeapRow`. `seq` is the
/// 1-based arrival index among all candidate rows; the heap order is
/// `(score ascending by total_cmp, then *later* arrival first)`, so the
/// root is the row the next better candidate displaces.
#[derive(Debug, Clone, Copy, Default)]
struct HeapRow {
    score: f32,
    seq: u64,
    docid: u32,
}

/// `TopN`'s `HeapRow` ordering: ascending score (total order), ties broken
/// so the *later* arrival compares smaller (and is evicted first).
fn row_lt(a: &HeapRow, b: &HeapRow) -> bool {
    a.score
        .total_cmp(&b.score)
        .then_with(|| b.seq.cmp(&a.seq))
        .is_lt()
}

fn sift_up(heap: &mut [HeapRow], mut i: usize) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if row_lt(&heap[i], &heap[parent]) {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn sift_down(heap: &mut [HeapRow], mut i: usize) {
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut smallest = i;
        if l < heap.len() && row_lt(&heap[l], &heap[smallest]) {
            smallest = l;
        }
        if r < heap.len() && row_lt(&heap[r], &heap[smallest]) {
            smallest = r;
        }
        if smallest == i {
            return;
        }
        heap.swap(i, smallest);
        i = smallest;
    }
}

/// Offers one candidate row to the bounded min-heap, replicating `TopN`
/// exactly: a full heap cheap-rejects on IEEE `score <= root.score` (ties
/// keep the incumbent — and `+0.0` does *not* displace a `-0.0` root,
/// although it is total-order greater); otherwise push, then evict the
/// total-order minimum.
fn heap_offer(heap: &mut Vec<HeapRow>, n: usize, row: HeapRow) {
    if n == 0 {
        return;
    }
    if heap.len() == n && row.score <= heap[0].score {
        return;
    }
    heap.push(row);
    let last = heap.len() - 1;
    sift_up(heap, last);
    if heap.len() > n {
        let last = heap.len() - 1;
        heap.swap(0, last);
        heap.pop();
        sift_down(heap, 0);
    }
}

/// How candidate batches are scored.
#[derive(Debug, Clone, Copy)]
enum ScoreMode {
    /// Equation-2 BM25 from tf and document length at query time.
    Computed {
        /// `k1 * (1 - b)` — the constant part of the length normalizer.
        c0: f32,
        /// `k1 * b / avg_doc_len` — the per-length part.
        c1: f32,
    },
    /// Materialized f32 scores stored bit-cast in the payload column.
    MaterializedF32,
    /// Materialized quantized codes summed as small floats.
    MaterializedQ8,
}

/// Owned, reusable per-worker scratch for the fused query path.
///
/// Grown on first use, cleared — never freed — between queries: steady
/// state executes without touching the allocator. Construction is cheap
/// (all buffers start empty); each serving worker owns one, typically
/// behind the executor's internal mutex.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Query terms after dropping unknown/empty ones (duplicates kept,
    /// matching the relational path).
    terms: Vec<u32>,
    /// Per-term `idf * (k1 + 1)` constants (computed-BM25 modes).
    coefs: Vec<f32>,
    cursors: Vec<TermCursor>,
    /// Candidate docids of the batch being assembled.
    batch_docids: Vec<u32>,
    /// Term-major payload matrix: `payloads[t * vector_size + j]` is term
    /// `t`'s payload for batch row `j`, 0 where the term is absent (the
    /// outer join's missing-side convention).
    batch_payloads: Vec<u32>,
    /// Per-row length normalizers for the batch.
    norms: Vec<f32>,
    /// Per-row accumulated scores for the batch.
    scores: Vec<f32>,
    /// The bounded top-k heap.
    heap: Vec<HeapRow>,
    /// Hit staging for callers that materialize full responses.
    pub(crate) hits: Vec<(u32, f32)>,
    /// Window over the index's term-offset column.
    off_window: Window,
    /// Window over the index's doc-freq column.
    freq_window: Window,
    /// Window over the index's doc-len column.
    len_window: Window,
    /// Lifetime count of rows offered to the scoring fold. Monotone.
    rows_scored: u64,
    /// Per-term document frequencies (conjunctive skipping path).
    dfs: Vec<u32>,
    /// The ranked union's window matrix, term-major: term `t`'s payload
    /// for docid `base + s` at `t * UNION_WINDOW + s`; zero between windows.
    union_cells: Vec<u32>,
    /// One bit per window slot some term hit; zero between windows.
    union_present: Vec<u64>,
}

impl QueryScratch {
    /// An empty scratch; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Test hook: overwrites every buffer — staged column windows, batch
    /// arrays, heap, term tables, cursor positions and block pins — with
    /// garbage derived from `seed`. A subsequent query must produce
    /// bit-identical results anyway: correctness may depend only on state
    /// the query itself (re)initializes, never on leftovers.
    pub fn poison(&mut self, seed: u64) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        fn refill_u32(v: &mut Vec<u32>, next: &mut impl FnMut() -> u64) {
            let cap = v.capacity();
            v.clear();
            for _ in 0..cap {
                v.push(next() as u32);
            }
        }
        fn refill_f32(v: &mut Vec<f32>, next: &mut impl FnMut() -> u64) {
            let cap = v.capacity();
            v.clear();
            for _ in 0..cap {
                // Includes NaNs, infinities and negative zeros.
                v.push(f32::from_bits(next() as u32));
            }
        }
        refill_u32(&mut self.terms, &mut next);
        refill_f32(&mut self.coefs, &mut next);
        refill_u32(&mut self.batch_docids, &mut next);
        refill_u32(&mut self.batch_payloads, &mut next);
        refill_f32(&mut self.norms, &mut next);
        refill_f32(&mut self.scores, &mut next);
        let heap_cap = self.heap.capacity();
        self.heap.clear();
        for _ in 0..heap_cap {
            self.heap.push(HeapRow {
                score: f32::from_bits(next() as u32),
                seq: next(),
                docid: next() as u32,
            });
        }
        let hits_cap = self.hits.capacity();
        self.hits.clear();
        for _ in 0..hits_cap {
            self.hits
                .push((next() as u32, f32::from_bits(next() as u32)));
        }
        refill_u32(&mut self.dfs, &mut next);
        refill_u32(&mut self.union_cells, &mut next);
        let cap = self.union_present.capacity();
        self.union_present.clear();
        self.union_present.extend((0..cap).map(|_| next()));
        for c in &mut self.cursors {
            c.pos = next() as usize;
            c.end = next() as usize;
            c.cur = Some(next() as u32);
        }
        let cursor_windows = self
            .cursors
            .iter_mut()
            .flat_map(|c| [&mut c.doc, &mut c.pay]);
        let meta_windows = [
            &mut self.off_window,
            &mut self.freq_window,
            &mut self.len_window,
        ];
        // Every window becomes a *plausible* leftover from another index —
        // an in-range stride-aligned start over garbage values and a live
        // pin, at a low block index, on a block no column owns — which a
        // reader that skipped its invalidation would happily serve from.
        for w in cursor_windows.chain(meta_windows) {
            refill_u32(&mut w.stage, &mut next);
            w.start = (next() % 64) as usize * ENTRY_POINT_STRIDE;
            let block = CompressedBlock::Raw(w.stage.clone());
            w.pin = Some(((next() % 4) as usize, Arc::new(block)));
        }
    }

    /// Cumulative hot-path work counters since this scratch was created.
    /// Both meters are monotone; callers diff two snapshots to attribute
    /// work to a span of queries. The stride count covers the three
    /// metadata windows as well as the posting cursors', on every index.
    pub fn hot_stats(&self) -> HotPathStats {
        let mut refills =
            self.off_window.refills + self.freq_window.refills + self.len_window.refills;
        for c in &self.cursors {
            refills += c.doc.refills + c.pay.refills;
        }
        HotPathStats {
            window_refills: refills,
            rows_scored: self.rows_scored,
        }
    }
}

/// Cumulative work counters for one scratch arena: `window_refills` counts
/// 128-value strides decoded into column windows (a wide refill
/// of `vector_size` values counts every stride it spans; a single-stride
/// seek probe counts one) and `rows_scored` counts candidate rows pushed
/// through the scoring fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotPathStats {
    pub window_refills: u64,
    pub rows_scored: u64,
}

/// A pool of [`QueryScratch`] arenas for callers serving one shared
/// resource (e.g. a cluster node) from many threads at once.
///
/// [`Self::acquire`] pops a warmed arena or hands out a fresh empty one —
/// constructing an empty scratch does not allocate; its buffers grow
/// during the query it serves — and [`Self::release`] returns it. The
/// pool's high-water mark is the peak concurrency it ever saw, after
/// which acquire/release cycles are two short mutex sections and zero
/// heap traffic. Unlike a single mutex-guarded arena, concurrent queries
/// never serialize on each other: each gets its own arena.
#[derive(Debug, Default)]
pub struct ScratchPool {
    pool: std::sync::Mutex<Vec<QueryScratch>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pops a pooled arena, or a fresh empty one when all are in use.
    pub fn acquire(&self) -> QueryScratch {
        self.pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default()
    }

    /// Returns an arena to the pool for the next query.
    pub fn release(&self, scratch: QueryScratch) {
        self.pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(scratch);
    }
}

/// A term's TD row range: two windowed reads of the offset column, empty
/// for an unknown term and for offsets a valid segment cannot hold (past
/// the posting count, or descending).
fn term_range_of(
    meta: &PagedMetadata,
    window: &mut Window,
    buffers: &BufferManager,
    vector_size: usize,
    term: u32,
) -> Result<Range<usize>, ExecError> {
    let t = term as usize;
    if t >= meta.num_terms {
        return Ok(0..0);
    }
    let start = window.value_at(&meta.offsets, buffers, vector_size, t)? as usize;
    let end = (window.value_at(&meta.offsets, buffers, vector_size, t + 1)? as usize)
        .min(meta.num_postings);
    Ok(if start > end { 0..0 } else { start..end })
}

/// A term's document frequency: a windowed read of the doc-freq column, 0
/// for an unknown term.
fn doc_freq_of(
    meta: &PagedMetadata,
    window: &mut Window,
    buffers: &BufferManager,
    vector_size: usize,
    term: u32,
) -> Result<u32, StorageError> {
    if term as usize >= meta.num_terms {
        return Ok(0);
    }
    window.value_at(&meta.doc_freqs, buffers, vector_size, term as usize)
}

/// A document's length: a windowed read of the doc-len column.
fn doc_len_of(
    meta: &PagedMetadata,
    window: &mut Window,
    buffers: &BufferManager,
    vector_size: usize,
    docid: u32,
) -> Result<u32, StorageError> {
    window.value_at(&meta.doc_lens, buffers, vector_size, docid as usize)
}

/// The k-way union's next candidate: the smallest current docid among
/// `cursors`, `None` once all are exhausted.
fn min_docid(cursors: &[TermCursor]) -> Option<u32> {
    cursors.iter().filter_map(|c| c.cur).min()
}

/// The k-way intersection's next match: leapfrogs `cursors` to the next
/// docid all of them hold (`None` once any list is exhausted), bringing
/// each laggard up to the current target with `catch_up` — a posting walk
/// for the merge-join plans, a galloping seek for the skipping one.
fn next_common(
    cursors: &mut [TermCursor],
    mut catch_up: impl FnMut(&mut TermCursor, u32) -> Result<(), ExecError>,
) -> Result<Option<u32>, ExecError> {
    let Some(mut target) = cursors[0].cur else {
        return Ok(None);
    };
    let mut i = 1;
    while i < cursors.len() {
        catch_up(&mut cursors[i], target)?;
        match cursors[i].cur {
            None => return Ok(None),
            Some(d) if d == target => i += 1,
            Some(d) => {
                target = d;
                i = 0;
            }
        }
    }
    Ok(Some(target))
}

/// Conjunctive BM25 retrieval by galloping leapfrog intersection over the
/// scratch arena's term cursors — the skipping access path of
/// [`crate::QueryEngine::search_conjunctive_skipping`] with zero per-query
/// heap allocations in steady state (pinned by `tests/hot_path_allocs.rs`).
///
/// Matches are scored with the reference per-posting fold
/// ([`crate::bm25::term_weight`] summed in term order) and ranked through
/// the bounded heap; candidates arrive in ascending docid order, so the
/// heap's arrival tie-break reproduces the docid tie-break of the sorting
/// implementation this replaces.
pub(crate) fn conjunctive_skipping_into(
    index: &InvertedIndex,
    buffers: &BufferManager,
    vector_size: usize,
    term_ids: &[u32],
    n: usize,
    scratch: &mut QueryScratch,
    out: &mut Vec<(u32, f32)>,
) -> Result<(), ExecError> {
    out.clear();
    let meta = index.meta();
    let k = live_terms(meta, buffers, vector_size, term_ids, scratch)?;
    if k == 0 {
        return Ok(());
    }
    let td = index.td();
    let doc_col = td.column("docid").map_err(ExecError::from)?;
    let tf_col = td.column("tf").map_err(ExecError::from)?;
    scratch.dfs.clear();
    for i in 0..k {
        let t = scratch.terms[i];
        let df = doc_freq_of(meta, &mut scratch.freq_window, buffers, vector_size, t)?;
        scratch.dfs.push(df);
    }
    reset_cursors(meta, buffers, vector_size, scratch, doc_col)?;

    let QueryScratch {
        cursors,
        heap,
        len_window,
        dfs,
        ..
    } = scratch;
    let cursors = &mut cursors[..k];
    let v = vector_size;
    let params = index.config().params;
    let stats = index.stats();
    heap.clear();
    let mut seq = 0u64;
    // Leapfrog with galloping seeks: the laggard jumps to the current
    // target in O(log gap) stride probes instead of walking postings.
    while let Some(target) = next_common(cursors, |c, t| c.seek(t, doc_col, buffers, v))? {
        let doc_len = doc_len_of(meta, len_window, buffers, v, target)?;
        let mut score = 0.0f32;
        for (i, c) in cursors.iter_mut().enumerate() {
            let tf = c.payload(tf_col, buffers, v)?;
            score += crate::bm25::term_weight(params, stats, dfs[i], tf, doc_len);
            c.advance(doc_col, buffers, v)?;
        }
        heap_offer(
            heap,
            n,
            HeapRow {
                score,
                seq,
                docid: target,
            },
        );
        seq += 1;
    }
    scratch.rows_scored += seq;
    drain_heap(&mut scratch.heap, out);
    out.truncate(n);
    Ok(())
}

/// Runs one query through the fused path, appending up to `n`
/// `(docid, score)` hits to `out` (cleared first), best first. Returns the
/// number of passes (2 only when a two-pass strategy fell through to the
/// disjunctive plan). Bit-identical to [`crate::QueryEngine::search`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_into(
    index: &InvertedIndex,
    buffers: &BufferManager,
    vector_size: usize,
    term_ids: &[u32],
    strategy: SearchStrategy,
    n: usize,
    scratch: &mut QueryScratch,
    out: &mut Vec<(u32, f32)>,
) -> Result<u8, ExecError> {
    out.clear();
    if strategy.needs_materialized() && !index.has_materialized_scores() {
        return Err(ExecError::Plan(
            "strategy requires a materialized score column; build the index \
             with Materialize::F32 or Materialize::Quantized8"
                .into(),
        ));
    }
    let meta = index.meta();
    let k = live_terms(meta, buffers, vector_size, term_ids, scratch)?;
    if k == 0 {
        return Ok(1);
    }

    let td = index.td();
    let doc_col = td.column("docid").map_err(ExecError::from)?;
    let mut passes = 1u8;
    match strategy {
        SearchStrategy::BoolAnd | SearchStrategy::BoolOr => {
            reset_cursors(meta, buffers, vector_size, scratch, doc_col)?;
            run_boolean(
                buffers,
                vector_size,
                doc_col,
                &mut scratch.cursors[..k],
                strategy == SearchStrategy::BoolAnd,
                n,
                out,
            )?;
        }
        // Every ranked strategy; the two `*Pruned` aliases included.
        _ => {
            let materialized = strategy.needs_materialized();
            let mode = score_mode(index, buffers, vector_size, scratch, materialized)?;
            let pay_col = td
                .column(if materialized { "score" } else { "tf" })
                .map_err(ExecError::from)?;
            let two_pass = strategy.is_two_pass();
            // Single-pass strategies run the disjunctive plan directly;
            // two-pass tries conjunctive first (§3.3).
            reset_cursors(meta, buffers, vector_size, scratch, doc_col)?;
            let matched = run_ranked(
                meta,
                buffers,
                vector_size,
                doc_col,
                pay_col,
                scratch,
                mode,
                two_pass,
                n,
            )?;
            scratch.rows_scored += matched;
            if two_pass && (matched as usize) < n && k > 1 {
                passes = 2;
                reset_cursors(meta, buffers, vector_size, scratch, doc_col)?;
                let matched = run_ranked(
                    meta,
                    buffers,
                    vector_size,
                    doc_col,
                    pay_col,
                    scratch,
                    mode,
                    false,
                    n,
                )?;
                scratch.rows_scored += matched;
            }
            drain_heap(&mut scratch.heap, out);
        }
    }
    out.truncate(n);
    Ok(passes)
}

/// Opens a query on the scratch: fills `scratch.terms` with the query terms
/// that have postings (unknown and empty ones contribute nothing to any
/// strategy; duplicates are kept, matching the relational path), makes sure
/// a cursor exists for each, and returns their count.
fn live_terms(
    meta: &PagedMetadata,
    buffers: &BufferManager,
    vector_size: usize,
    term_ids: &[u32],
    scratch: &mut QueryScratch,
) -> Result<usize, ExecError> {
    // Query start: nothing staged for an earlier query — maybe over another
    // index's columns, or a pool emptied since — may be served to this one.
    scratch.off_window.invalidate();
    scratch.freq_window.invalidate();
    scratch.len_window.invalidate();
    scratch.terms.clear();
    for &t in term_ids {
        let range = term_range_of(meta, &mut scratch.off_window, buffers, vector_size, t)?;
        if !range.is_empty() {
            scratch.terms.push(t);
        }
    }
    let k = scratch.terms.len();
    while scratch.cursors.len() < k {
        scratch.cursors.push(TermCursor::default());
    }
    Ok(k)
}

/// Re-aims the first `terms.len()` cursors at their term ranges.
fn reset_cursors(
    meta: &PagedMetadata,
    buffers: &BufferManager,
    vector_size: usize,
    scratch: &mut QueryScratch,
    doc_col: &Column,
) -> Result<(), ExecError> {
    let QueryScratch {
        terms,
        cursors,
        off_window,
        ..
    } = scratch;
    for (i, &t) in terms.iter().enumerate() {
        let range = term_range_of(meta, off_window, buffers, vector_size, t)?;
        cursors[i].reset(range, doc_col, buffers, vector_size)?;
    }
    Ok(())
}

/// Resolves the scoring mode, filling per-term coefficients for the
/// computed variant (folded into the plan as constants relationally).
fn score_mode(
    index: &InvertedIndex,
    buffers: &BufferManager,
    vector_size: usize,
    scratch: &mut QueryScratch,
    materialized: bool,
) -> Result<ScoreMode, ExecError> {
    if materialized {
        return Ok(match index.config().materialize {
            Materialize::F32 => ScoreMode::MaterializedF32,
            Materialize::Quantized8 | Materialize::None => ScoreMode::MaterializedQ8,
        });
    }
    let params = index.config().params;
    let stats = index.stats();
    let QueryScratch {
        terms,
        coefs,
        freq_window,
        ..
    } = scratch;
    coefs.clear();
    for &t in terms.iter() {
        let df = doc_freq_of(index.meta(), freq_window, buffers, vector_size, t)?;
        coefs.push(idf(stats.num_docs, df) * (params.k1 + 1.0));
    }
    Ok(ScoreMode::Computed {
        c0: params.k1 * (1.0 - params.b),
        c1: params.k1 * params.b / stats.avg_doc_len,
    })
}

/// Unranked boolean retrieval: k-way docid merge (intersection or union),
/// emitting `(docid, 0.0)` in docid order with the relational path's
/// early exit after `n` hits.
fn run_boolean(
    buffers: &BufferManager,
    vector_size: usize,
    doc_col: &Column,
    cursors: &mut [TermCursor],
    conjunctive: bool,
    n: usize,
    out: &mut Vec<(u32, f32)>,
) -> Result<(), ExecError> {
    if conjunctive {
        while let Some(target) =
            next_common(cursors, |c, t| c.walk_to(t, doc_col, buffers, vector_size))?
        {
            out.push((target, 0.0));
            if out.len() >= n {
                break;
            }
            for c in cursors.iter_mut() {
                c.advance(doc_col, buffers, vector_size)?;
            }
        }
    } else {
        while let Some(d) = min_docid(cursors) {
            for c in cursors.iter_mut() {
                if c.cur == Some(d) {
                    c.advance(doc_col, buffers, vector_size)?;
                }
            }
            out.push((d, 0.0));
            if out.len() >= n {
                break;
            }
        }
    }
    Ok(())
}

/// Ranked retrieval: merges candidate docs (union or intersection) into
/// batches of `vector_size`, scores each batch with the wide-or-scalar
/// kernels, and offers every row to the top-k heap. Returns the total
/// candidate count (the two-pass quota check).
///
/// The union runs term-at-a-time over a docid window. With `base` the
/// smallest current docid, each term in query order scatters its postings
/// below `base + UNION_WINDOW` — two plain slices of its staged windows
/// between refills — into its row of a zeroed term-major matrix and marks
/// each slot in a presence bitmap; the set bits, ascending, become batch
/// rows (an absent term reads the matrix's 0) and the cells read are
/// zeroed again. `base` is live, not a grid: docid ranges no list touches
/// cost nothing. Rows, their order and their cells are those of a
/// posting-at-a-time merge.
#[allow(clippy::too_many_arguments)]
fn run_ranked(
    meta: &PagedMetadata,
    buffers: &BufferManager,
    vector_size: usize,
    doc_col: &Column,
    pay_col: &Column,
    scratch: &mut QueryScratch,
    mode: ScoreMode,
    conjunctive: bool,
    n: usize,
) -> Result<u64, ExecError> {
    let QueryScratch {
        terms,
        coefs,
        cursors,
        batch_docids,
        batch_payloads,
        norms,
        scores,
        heap,
        len_window,
        union_cells: cells,
        union_present: present,
        ..
    } = scratch;
    let k = terms.len();
    let cursors = &mut cursors[..k];
    let v = vector_size;
    heap.clear();
    batch_docids.clear();
    // Both arms store all `k` cells of a row before it is flushed, so
    // leftovers in the matrix are never read.
    if batch_payloads.len() < k * v {
        batch_payloads.resize(k * v, 0);
    }
    let mut seq = 0u64;

    macro_rules! flush {
        () => {
            flush_batch(
                mode,
                coefs,
                meta,
                len_window,
                buffers,
                batch_docids,
                batch_payloads,
                v,
                k,
                norms,
                scores,
                heap,
                n,
                &mut seq,
            )?;
            batch_docids.clear();
        };
    }

    if conjunctive {
        while let Some(target) = next_common(cursors, |c, t| c.walk_to(t, doc_col, buffers, v))? {
            let j = batch_docids.len();
            batch_docids.push(target);
            for (i, c) in cursors.iter_mut().enumerate() {
                batch_payloads[i * v + j] = c.payload(pay_col, buffers, v)?;
                c.advance(doc_col, buffers, v)?;
            }
            if batch_docids.len() == v {
                flush!();
            }
        }
    } else {
        // Between windows the matrix and the bitmap are all zero; nothing
        // an earlier query left in them may show through.
        cells.clear();
        cells.resize(k * UNION_WINDOW, 0);
        present.clear();
        present.resize(UNION_WINDOW / 64, 0);
        while let Some(base) = min_docid(cursors) {
            for (c, row) in cursors.iter_mut().zip(cells.chunks_mut(UNION_WINDOW)) {
                // A live `cur` means the docid window is staged at `pos`.
                while c.cur.is_some_and(|d| in_window(d, base)) {
                    c.payload(pay_col, buffers, v)?;
                    let docs = &c.doc.stage[c.pos - c.doc.start..];
                    let docs = &docs[..docs.len().min(c.end - c.pos)];
                    let pays = &c.pay.stage[c.pos - c.pay.start..];
                    c.pos += scatter(docs, pays, base, row, present);
                    c.load(doc_col, buffers, v)?;
                }
            }
            // This window's rows not yet gathered start at `j0`.
            let mut j0 = batch_docids.len();
            for (w, word) in present.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    batch_docids.push(base + w as u32 * 64 + bits.trailing_zeros());
                    bits &= bits - 1;
                    if batch_docids.len() == v {
                        gather(cells, base, batch_docids, batch_payloads, v, j0);
                        flush!();
                        j0 = 0;
                    }
                }
            }
            gather(cells, base, batch_docids, batch_payloads, v, j0);
        }
    }
    flush!();
    Ok(seq)
}

/// Width, in docids, of the ranked union's window (see [`run_ranked`]).
const UNION_WINDOW: usize = 2048;

/// Whether docid `d` is in the union window at `base`. A distance, never
/// `d < base + UNION_WINDOW`: that sum wraps near `u32::MAX`, silently in a
/// release build. A docid below `base` (a corrupt, non-ascending list)
/// wraps to a huge distance and waits for a later window.
fn in_window(d: u32, base: u32) -> bool {
    (d.wrapping_sub(base) as usize) < UNION_WINDOW
}

/// Scatters the leading postings of `docs`/`pays` that fall in the window
/// at `base` into the term's matrix `row`, marking their slots in
/// `present`; returns how many it consumed.
fn scatter(docs: &[u32], pays: &[u32], base: u32, row: &mut [u32], present: &mut [u64]) -> usize {
    let mut taken = 0;
    // Bits of one bitmap word collect in a register: a read-modify-write
    // per posting would serialize dense lists on store forwarding.
    let (mut word, mut bits) = (0, 0);
    for (&d, &p) in docs.iter().zip(pays) {
        if !in_window(d, base) {
            break;
        }
        let slot = (d - base) as usize;
        row[slot] = p;
        if slot / 64 != word {
            present[word] |= bits;
            (word, bits) = (slot / 64, 0);
        }
        bits |= 1 << (slot % 64);
        taken += 1;
    }
    present[word] |= bits;
    taken
}

/// Moves, for every term row of `cells`, the cell of each docid in batch
/// rows `j0..` (all in the window at `base`) into the term's batch row in
/// `out`, leaving the matrix zero where it read.
fn gather(cells: &mut [u32], base: u32, docids: &[u32], out: &mut [u32], v: usize, j0: usize) {
    for (i, row) in cells.chunks_mut(UNION_WINDOW).enumerate() {
        for (o, &d) in out[i * v + j0..].iter_mut().zip(&docids[j0..]) {
            *o = std::mem::take(&mut row[(d - base) as usize]);
        }
    }
}

/// Scores one assembled batch and offers every row to the heap.
#[allow(clippy::too_many_arguments)]
fn flush_batch(
    mode: ScoreMode,
    coefs: &[f32],
    meta: &PagedMetadata,
    len_window: &mut Window,
    buffers: &BufferManager,
    batch_docids: &[u32],
    batch_payloads: &[u32],
    v: usize,
    k: usize,
    norms: &mut Vec<f32>,
    scores: &mut Vec<f32>,
    heap: &mut Vec<HeapRow>,
    n: usize,
    seq: &mut u64,
) -> Result<(), ExecError> {
    let rows = batch_docids.len();
    if rows == 0 {
        return Ok(());
    }
    scores.clear();
    scores.resize(rows, 0.0);
    match mode {
        ScoreMode::Computed { c0, c1 } => {
            norms.clear();
            for &d in batch_docids {
                // Expression shape: c0 + c1 * cast_f32(gather(doclen)).
                norms.push(c0 + c1 * doc_len_of(meta, len_window, buffers, v, d)? as f32);
            }
            for i in 0..k {
                score_computed(
                    scores,
                    &batch_payloads[i * v..i * v + rows],
                    coefs[i],
                    norms,
                    i == 0,
                );
            }
        }
        ScoreMode::MaterializedF32 | ScoreMode::MaterializedQ8 => {
            let f32_bits = matches!(mode, ScoreMode::MaterializedF32);
            for i in 0..k {
                score_materialized(
                    scores,
                    &batch_payloads[i * v..i * v + rows],
                    f32_bits,
                    i == 0,
                );
            }
        }
    }
    for (j, &d) in batch_docids.iter().enumerate() {
        *seq += 1;
        heap_offer(
            heap,
            n,
            HeapRow {
                score: scores[j],
                seq: *seq,
                docid: d,
            },
        );
    }
    Ok(())
}

/// Sorts the heap's retained rows (descending score, ascending arrival)
/// and appends them to `out`, leaving the heap cleared.
fn drain_heap(heap: &mut Vec<HeapRow>, out: &mut Vec<(u32, f32)>) {
    heap.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.seq.cmp(&b.seq)));
    out.extend(heap.iter().map(|r| (r.docid, r.score)));
    heap.clear();
}

// ---- scoring kernels ----------------------------------------------------

/// One term's contribution to the batch: `acc[j] (op)= coef * (tf / (tf +
/// norm[j]))` with `tf = cast_f32(payload as i32)`, where `(op)=` is plain
/// assignment for the first term (the fold has no zero seed). Dispatches
/// to the AVX2 kernel when active; both paths are IEEE-exact per element,
/// hence bit-identical.
fn score_computed(acc: &mut [f32], tfs: &[u32], coef: f32, norms: &[f32], first: bool) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if x100_compress::simd_active() {
        // Safety: `simd_active` implies AVX2 was detected at runtime.
        unsafe { simd::score_computed_avx2(acc, tfs, coef, norms, first) };
        return;
    }
    score_computed_scalar(acc, tfs, coef, norms, first);
}

fn score_computed_scalar(acc: &mut [f32], tfs: &[u32], coef: f32, norms: &[f32], first: bool) {
    for j in 0..acc.len() {
        let tf = (tfs[j] as i32) as f32;
        let ts = coef * (tf / (tf + norms[j]));
        if first {
            acc[j] = ts;
        } else {
            acc[j] += ts;
        }
    }
}

/// One materialized term's contribution: the payload decoded as the plan
/// decodes it (`f32::from_bits` for F32 indexes, `cast_f32` for quantized
/// codes), assigned for the first term and summed for the rest.
fn score_materialized(acc: &mut [f32], payloads: &[u32], f32_bits: bool, first: bool) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if x100_compress::simd_active() {
        // Safety: `simd_active` implies AVX2 was detected at runtime.
        unsafe { simd::score_materialized_avx2(acc, payloads, f32_bits, first) };
        return;
    }
    score_materialized_scalar(acc, payloads, f32_bits, first);
}

fn score_materialized_scalar(acc: &mut [f32], payloads: &[u32], f32_bits: bool, first: bool) {
    for j in 0..acc.len() {
        let s = if f32_bits {
            f32::from_bits(payloads[j])
        } else {
            (payloads[j] as i32) as f32
        };
        if first {
            acc[j] = s;
        } else {
            acc[j] += s;
        }
    }
}

/// AVX2 scoring kernels: 8 candidate rows per iteration, scalar tail.
/// Every operation used — `cvtepi32_ps`, `div_ps`, `mul_ps`, `add_ps` —
/// is IEEE-exact, and multiplies/adds are kept separate (no FMA), so the
/// lanes compute bit-for-bit what the scalar loop computes.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn score_computed_avx2(
        acc: &mut [f32],
        tfs: &[u32],
        coef: f32,
        norms: &[f32],
        first: bool,
    ) {
        let n8 = acc.len() & !7;
        let c = _mm256_set1_ps(coef);
        let mut j = 0;
        while j < n8 {
            let tf = _mm256_cvtepi32_ps(_mm256_loadu_si256(tfs.as_ptr().add(j).cast()));
            let nm = _mm256_loadu_ps(norms.as_ptr().add(j));
            let ts = _mm256_mul_ps(c, _mm256_div_ps(tf, _mm256_add_ps(tf, nm)));
            let out = if first {
                ts
            } else {
                _mm256_add_ps(_mm256_loadu_ps(acc.as_ptr().add(j)), ts)
            };
            _mm256_storeu_ps(acc.as_mut_ptr().add(j), out);
            j += 8;
        }
        super::score_computed_scalar(&mut acc[n8..], &tfs[n8..], coef, &norms[n8..], first);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn score_materialized_avx2(
        acc: &mut [f32],
        payloads: &[u32],
        f32_bits: bool,
        first: bool,
    ) {
        let n8 = acc.len() & !7;
        let mut j = 0;
        while j < n8 {
            let raw = _mm256_loadu_si256(payloads.as_ptr().add(j).cast());
            let s = if f32_bits {
                _mm256_castsi256_ps(raw)
            } else {
                _mm256_cvtepi32_ps(raw)
            };
            let out = if first {
                s
            } else {
                _mm256_add_ps(_mm256_loadu_ps(acc.as_ptr().add(j)), s)
            };
            _mm256_storeu_ps(acc.as_mut_ptr().add(j), out);
            j += 8;
        }
        super::score_materialized_scalar(&mut acc[n8..], &payloads[n8..], f32_bits, first);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_replicates_ieee_cheap_reject_on_signed_zero() {
        // A -0.0 incumbent at the root must survive a +0.0 challenger:
        // IEEE `0.0 <= -0.0` is true, so TopN cheap-rejects — even though
        // total_cmp says +0.0 > -0.0. Sort-then-truncate would differ.
        let mut heap = Vec::new();
        heap_offer(
            &mut heap,
            1,
            HeapRow {
                score: -0.0,
                seq: 1,
                docid: 7,
            },
        );
        heap_offer(
            &mut heap,
            1,
            HeapRow {
                score: 0.0,
                seq: 2,
                docid: 9,
            },
        );
        assert_eq!(heap.len(), 1);
        assert_eq!(heap[0].docid, 7, "+0.0 must not displace a -0.0 incumbent");
    }

    #[test]
    fn heap_keeps_earliest_arrivals_on_ties() {
        let mut heap = Vec::new();
        for seq in 1..=5 {
            heap_offer(
                &mut heap,
                2,
                HeapRow {
                    score: 1.0,
                    seq,
                    docid: seq as u32,
                },
            );
        }
        let mut out = Vec::new();
        drain_heap(&mut heap, &mut out);
        assert_eq!(out, vec![(1, 1.0), (2, 1.0)], "ties keep first arrivals");
    }

    #[test]
    fn scalar_kernels_match_reference_fold() {
        let tfs = [3u32, 0, 17, 1, 0, 255, 42, 9, 2];
        let norms: Vec<f32> = (0..9).map(|i| 0.3 + i as f32 * 0.07).collect();
        let mut acc = vec![0.0f32; 9];
        score_computed_scalar(&mut acc, &tfs, -1.5, &norms, true);
        score_computed_scalar(&mut acc, &tfs, 2.25, &norms, false);
        for j in 0..9 {
            let tf = tfs[j] as f32;
            let expect = -1.5 * (tf / (tf + norms[j])) + 2.25 * (tf / (tf + norms[j]));
            assert_eq!(acc[j].to_bits(), expect.to_bits(), "row {j}");
        }
    }

    /// The set bits of a presence map, ascending, clearing it — the walk
    /// `run_ranked` makes between scatter and gather.
    fn drain_slots(present: &mut [u64]) -> Vec<usize> {
        let mut slots = Vec::new();
        for (w, word) in present.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                slots.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        slots
    }

    #[test]
    fn union_window_does_not_wrap_at_the_top_of_the_docid_space() {
        // `base + UNION_WINDOW` overflows u32 for these bases: a window
        // bound computed as that sum wraps to a small docid in a release
        // build and no posting would ever be inside it.
        let top = [u32::MAX - 3, u32::MAX - 2, u32::MAX - 1, u32::MAX];
        let pays = [7u32, 0, 9, 11];
        let (v, k) = (4, 2);
        let mut cells = vec![0u32; k * UNION_WINDOW];
        let mut present = vec![0u64; UNION_WINDOW / 64];
        let base = top[0];
        let (row0, row1) = cells.split_at_mut(UNION_WINDOW);
        assert_eq!(scatter(&top, &pays, base, row0, &mut present), 4);
        assert_eq!(scatter(&top[2..], &[5, 6], base, row1, &mut present), 2);
        let slots = drain_slots(&mut present);
        assert_eq!(slots, [0, 1, 2, 3]);
        let docids: Vec<u32> = slots.iter().map(|&s| base + s as u32).collect();
        assert_eq!(docids, top);
        let mut payloads = vec![u32::MAX; k * v];
        gather(&mut cells, base, &docids, &mut payloads, v, 0);
        assert_eq!(payloads, [7, 0, 9, 11, 0, 0, 5, 6]);
        assert!(
            cells.iter().all(|&c| c == 0),
            "gather re-zeroes what it read"
        );

        // A window whose last slot is u32::MAX - 2: the two docids past it
        // stay for the next window, which then starts at u32::MAX - 1.
        let base = u32::MAX - 1 - UNION_WINDOW as u32;
        let docs = [base, u32::MAX - 2, u32::MAX - 1, u32::MAX];
        assert_eq!(scatter(&docs, &pays, base, &mut cells, &mut present), 2);
        assert_eq!(drain_slots(&mut present), [0, UNION_WINDOW - 1]);
        assert!(!in_window(u32::MAX - 1, base) && in_window(u32::MAX, u32::MAX - 1));
        // A docid below the base (a corrupt, non-ascending list) is outside
        // every window that starts above it: it is left, not mis-slotted.
        assert_eq!(
            scatter(&[base - 1], &[1], base, &mut cells, &mut present),
            0
        );
    }

    #[test]
    fn poison_then_default_reset_is_safe() {
        let mut s = QueryScratch::new();
        s.poison(0xDEAD_BEEF);
        s.poison(1); // twice: poisoning must not corrupt Vec invariants
        assert!(s.terms.capacity() >= s.terms.len());
    }
}
