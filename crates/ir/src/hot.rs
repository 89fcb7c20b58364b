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
//!   plan evaluates (`coef * (tf / (tf + norm))` folded left-to-right;
//!   absent outer-join terms contribute `+0.0`, an exact no-op — see
//!   `run_ranked`), in plain IEEE f32 with no FMA contraction.
//! * **Top-k selection** — a replica of `TopN`'s bounded heap including
//!   its IEEE `score <= min` cheap-reject (*not* equivalent to
//!   sort-then-truncate when `+0.0`/`-0.0` tie at the boundary) and its
//!   arrival-order tie-break.
//! * **Buffer accounting** — cursors refill entry-point-aligned windows
//!   clamped to block boundaries, take one [`BufferManager::pin`] per
//!   block entry (charged on a miss) and decode every refill inside the
//!   block from that pin, exactly like `ColumnScan`. Per posting column
//!   the pins and their count are the relational plan's; across terms
//!   the ranked union interleaves them term-major within a docid window
//!   (`run_ranked`), where the merge-join advances all lists in step.
//!
//! On x86_64, when the CPU has AVX2 (detected at runtime), the per-term
//! scoring loop over each conjunctive batch runs 8 lanes wide; conversion
//! (`i32 -> f32`), divide, multiply and add are all IEEE-exact operations,
//! so the wide kernels are bit-identical to the scalar loop. So is the
//! union drain's threshold mask ([`nle_mask`]), a compare 8 slots wide.
//! Both are pinned by `tests/simd_scoring.rs` against the forced-scalar
//! fallback.

use std::ops::Range;
use std::sync::Arc;

use x100_compress::{Codec, CompressedBlock, ENTRY_POINT_STRIDE};
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
    /// single-stride probes of `PostingCursor::seek_docid`. Monotone;
    /// never cleared.
    pub(crate) refills: u64,
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
    ///
    /// # Errors
    /// [`StorageError::OutOfBounds`] for `pos >= col.len()` — a corrupt
    /// posting's docid looked up in the doc-len column, say — and whatever
    /// pinning or decoding the block returns.
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
        // Past the end, the refill below would clamp to the column's end
        // and stage a window that stops short of `pos`.
        if pos >= col.len() {
            return Err(StorageError::OutOfBounds {
                position: pos,
                len: col.len(),
            });
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
    /// decoded and charged, exactly like `ColumnScan`).
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

/// How a posting's payload becomes its term's score contribution.
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
    /// Candidate docids of the intersection's batch being assembled.
    batch_docids: Vec<u32>,
    /// The intersection's term-major payload matrix: term `t`'s payload
    /// for batch row `j` at `t * vector_size + j`.
    batch_payloads: Vec<u32>,
    /// Length normalizers: per batch row in the intersection, per window
    /// slot (staged stride by stride) in the union.
    norms: Vec<f32>,
    /// Accumulated scores: per batch row in the intersection; in the union,
    /// the window's accumulator, slot `s` for docid `base + s`, `+0.0`
    /// between windows.
    scores: Vec<f32>,
    /// The bounded top-k heap.
    heap: Vec<HeapRow>,
    /// Hit staging for callers that materialize full responses.
    pub(crate) hits: Vec<(u32, f32)>,
    /// Window over the index's term-offset column: ranges, and so `ftd`s.
    off_window: Window,
    /// Window over the index's doc-len column.
    len_window: Window,
    /// Lifetime count of rows offered to the scoring fold. Monotone.
    rows_scored: u64,
    /// Lifetime count of rows handed to [`heap_offer`]. Monotone.
    heap_offers: u64,
    /// One bit per union window slot some term hit; zero between windows.
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
        /// Refills `v` to its capacity with `value()`s.
        fn refill<T>(v: &mut Vec<T>, mut value: impl FnMut() -> T) {
            let cap = v.capacity();
            v.clear();
            v.extend((0..cap).map(|_| value()));
        }
        refill(&mut self.terms, || next() as u32);
        refill(&mut self.batch_docids, || next() as u32);
        refill(&mut self.batch_payloads, || next() as u32);
        refill(&mut self.union_present, &mut next);
        // f32 garbage includes NaNs, infinities and negative zeros.
        refill(&mut self.coefs, || f32::from_bits(next() as u32));
        refill(&mut self.norms, || f32::from_bits(next() as u32));
        refill(&mut self.scores, || f32::from_bits(next() as u32));
        refill(&mut self.hits, || {
            (next() as u32, f32::from_bits(next() as u32))
        });
        refill(&mut self.heap, || HeapRow {
            score: f32::from_bits(next() as u32),
            seq: next(),
            docid: next() as u32,
        });
        for c in &mut self.cursors {
            c.pos = next() as usize;
            c.end = next() as usize;
            c.cur = Some(next() as u32);
        }
        let cursor_windows = self
            .cursors
            .iter_mut()
            .flat_map(|c| [&mut c.doc, &mut c.pay]);
        let meta_windows = [&mut self.off_window, &mut self.len_window];
        // Every window becomes a *plausible* leftover from another index —
        // an in-range stride-aligned start over garbage values and a live
        // pin, at a low block index, on a block no column owns — which a
        // reader that skipped its invalidation would happily serve from.
        for w in cursor_windows.chain(meta_windows) {
            refill(&mut w.stage, || next() as u32);
            w.start = (next() % 64) as usize * ENTRY_POINT_STRIDE;
            let block = CompressedBlock::encode(&w.stage, Codec::Raw);
            w.pin = Some(((next() % 4) as usize, Arc::new(block)));
        }
    }

    /// Cumulative hot-path work counters since this scratch was created:
    /// `window_refills`, `rows_scored` and `heap_offers` (see
    /// [`HotPathStats`]). All three meters are monotone; callers diff two
    /// snapshots to attribute work to a span of queries. The stride count
    /// covers the two metadata windows as well as the posting cursors', on
    /// every index.
    pub fn hot_stats(&self) -> HotPathStats {
        let mut refills = self.off_window.refills + self.len_window.refills;
        for c in &self.cursors {
            refills += c.doc.refills + c.pay.refills;
        }
        HotPathStats {
            window_refills: refills,
            rows_scored: self.rows_scored,
            heap_offers: self.heap_offers,
        }
    }
}

/// Cumulative work counters for one scratch arena: `window_refills` counts
/// 128-value strides decoded into column windows (a wide refill
/// of `vector_size` values counts every stride it spans),
/// `rows_scored` counts candidate rows pushed through the scoring fold, and
/// `heap_offers` counts the rows of those that reached the top-k heap: every
/// intersection row, and the union rows that survived the drain's threshold
/// mask (counted once per 64-slot word). `heap_offers / rows_scored` is the
/// share of scored rows the heap had to look at.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotPathStats {
    pub window_refills: u64,
    pub rows_scored: u64,
    pub heap_offers: u64,
}

/// A pool of [`QueryScratch`] arenas: how a [`crate::QueryExecutor`]
/// lends scratch to queries that may run on many threads at once.
///
/// [`Self::acquire`] pops a warmed arena or hands out a fresh empty one —
/// constructing an empty scratch does not allocate; its buffers grow
/// during the query it serves — and [`Self::release`] returns it. The
/// pool's high-water mark is the peak concurrency it ever saw, after
/// which acquire/release cycles are two short mutex sections and zero
/// heap traffic. Unlike a single mutex-guarded arena, concurrent queries
/// never serialize on each other: each gets its own arena.
#[derive(Debug, Default)]
pub(crate) struct ScratchPool {
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

/// A term's TD row range: two windowed reads of the offset column, under
/// [`PagedMetadata::range_of`]'s rule. Its length is the term's `ftd`.
fn term_range_of(
    meta: &PagedMetadata,
    window: &mut Window,
    buffers: &BufferManager,
    vector_size: usize,
    term: u32,
) -> Result<Range<usize>, StorageError> {
    meta.range_of(term, |i| {
        window.value_at(&meta.offsets, buffers, vector_size, i)
    })
}

/// The k-way union's next candidate: the smallest current docid among
/// `cursors`, `None` once all are exhausted.
fn min_docid(cursors: &[TermCursor]) -> Option<u32> {
    cursors.iter().filter_map(|c| c.cur).min()
}

/// The k-way intersection's next match: leapfrogs `cursors` to the next
/// docid all of them hold (`None` once any list is exhausted), walking
/// each laggard posting by posting up to the current target, as the
/// merge-join plans do.
fn next_common(
    cursors: &mut [TermCursor],
    doc_col: &Column,
    buffers: &BufferManager,
    vector_size: usize,
) -> Result<Option<u32>, ExecError> {
    let Some(mut target) = cursors[0].cur else {
        return Ok(None);
    };
    let mut i = 1;
    while i < cursors.len() {
        cursors[i].walk_to(target, doc_col, buffers, vector_size)?;
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
    // A corrupt posting list can name a docid past the document count.
    // The computed strategies fail on its length lookup; the boolean and
    // materialized ones read no length, so the hits are checked here, at
    // most `n` compares outside every per-posting loop.
    let num_docs = meta.num_docs();
    if let Some(&(docid, _)) = out.iter().find(|h| h.0 as usize >= num_docs) {
        out.clear();
        return Err(ExecError::Storage(StorageError::OutOfBounds {
            position: docid as usize,
            len: num_docs,
        }));
    }
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
        off_window,
        ..
    } = scratch;
    coefs.clear();
    for &t in terms.iter() {
        // `ftd` is the length of the term's range, staged by `live_terms`.
        let df = term_range_of(index.meta(), off_window, buffers, vector_size, t)?.len();
        coefs.push(idf(stats.num_docs, df as u32) * (params.k1 + 1.0));
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
        while let Some(target) = next_common(cursors, doc_col, buffers, vector_size)? {
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

/// Ranked retrieval: offers every candidate doc (union or intersection) to
/// the top-k heap, in ascending docid order. Returns the total candidate
/// count (the two-pass quota check).
///
/// The intersection assembles batches of `vector_size` rows and scores
/// them with the wide-or-scalar kernels. The batch exists to feed the AVX2
/// kernels, measured 5–8 % faster on two-pass queries than scoring each
/// match in place (the fork table in `docs/ARCHITECTURE.md`).
///
/// The union is window-at-a-time: with `base` the smallest current docid,
/// each term in query order walks its staged windows as two plain slices
/// and adds the contribution of each posting below `base + UNION_WINDOW`
/// straight into its docid's slot of an `f32` accumulator, marking the
/// slot in a presence bitmap. The drain ([`drain_masked`]) then walks the
/// bitmap a 64-slot word at a time: once the heap is full, it compares the
/// word's slots against the heap floor 8 at a time ([`nle_mask`]) and
/// offers only the present rows that can enter the top `n`, each at the
/// arrival index it would have had in an unmasked drain, then clears the
/// word's slots back to `+0.0`.
/// `base` is live, not a grid: docid ranges no list touches cost nothing.
/// Computed BM25 first stages the length normalizer of every 128-docid
/// stride of D the window's postings touch, once per window.
///
/// The sums are the relational fold's bits. That fold adds all `k` terms
/// in query order, an absent one contributing `coef · 0/(0 + norm)` or a
/// zero payload: `+0.0`, as `idf = ln(N/df) >= 0` makes `coef >= 0` (and
/// `norm > 0` for `k1 >= 0`, `0 <= b <= 1`). Nor is a present contribution
/// `-0.0`, so `x + (+0.0) = x` for every partial sum the fold forms:
/// seeding a slot with `+0.0` and adding only the present terms, in query
/// order, drops exact no-ops only. A duplicated term adds twice, as it does
/// relationally. Batch rows are seeded with `+0.0` for the same reason.
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
        union_present: present,
        heap_offers,
        ..
    } = scratch;
    let k = terms.len();
    let cursors = &mut cursors[..k];
    let v = vector_size;
    heap.clear();
    let mut seq = 0u64;

    if conjunctive {
        batch_docids.clear();
        // Every row stores all `k` cells before the batch is flushed, so
        // leftovers in the matrix are never read.
        if batch_payloads.len() < k * v {
            batch_payloads.resize(k * v, 0);
        }
        loop {
            let next = next_common(cursors, doc_col, buffers, v)?;
            if let Some(target) = next {
                let j = batch_docids.len();
                batch_docids.push(target);
                for (i, c) in cursors.iter_mut().enumerate() {
                    batch_payloads[i * v + j] = c.payload(pay_col, buffers, v)?;
                    c.advance(doc_col, buffers, v)?;
                }
                if batch_docids.len() < v {
                    continue;
                }
            }
            let batch = (&batch_docids[..], &batch_payloads[..]);
            let lens = (meta, &mut *len_window, buffers);
            flush_batch(
                mode, coefs, lens, batch, v, k, norms, scores, heap, n, &mut seq,
            )?;
            *heap_offers += batch_docids.len() as u64;
            batch_docids.clear();
            if next.is_none() {
                return Ok(seq);
            }
        }
    }

    // Between windows the accumulator is `+0.0` and the bitmap zero;
    // nothing an earlier query left in them may show through.
    scores.clear();
    scores.resize(UNION_WINDOW, 0.0);
    norms.clear();
    norms.resize(UNION_WINDOW + ENTRY_POINT_STRIDE, 0.0);
    present.clear();
    present.resize(UNION_WINDOW / 64, 0);
    // `norms[i]` normalizes docid `nbase + i`, `nbase` the first docid of
    // the window's first length stride; bit `r` of `strides` marks the
    // stride at `nbase + 128 r` staged.
    let (mut nbase, mut strides, s) = (0, 0u32, ENTRY_POINT_STRIDE);
    while let Some(base) = min_docid(cursors) {
        // The stride the last window ended in may hold this one's start.
        // A list out of docid order can start a window below `nbase`: the
        // shift then wraps past 32 and nothing is carried.
        let shift = (base as usize / s * s).wrapping_sub(nbase) / s;
        nbase = base as usize / s * s;
        strides = if shift < 32 && strides >> shift & 1 == 1 {
            norms.copy_within(shift * s..shift * s + s, 0);
            1
        } else {
            0
        };
        for (i, c) in cursors.iter_mut().enumerate() {
            // A live `cur` means the docid window is staged at `pos`.
            while c.cur.is_some_and(|d| window_slot(d, base).is_some()) {
                c.payload(pay_col, buffers, v)?;
                let docs = &c.doc.stage[c.pos - c.doc.start..];
                let docs = &docs[..docs.len().min(c.end - c.pos)];
                let pays = &c.pay.stage[c.pos - c.pay.start..];
                let (acc, bitmap) = (&mut scores[..], &mut present[..]);
                c.pos += match mode {
                    ScoreMode::Computed { c0, c1 } => {
                        let lens = &meta.doc_lens;
                        // Expression shape: c0 + c1 * cast_f32(gather(doclen)).
                        let norm_of =
                            |x| Ok(c0 + c1 * len_window.value_at(lens, buffers, 1, x)? as f32);
                        stage_norms(docs, base, &mut strides, norms, lens.len(), norm_of)?;
                        let (coef, norms) = (coefs[i], &norms[base as usize - nbase..]);
                        accumulate(docs, pays, base, acc, bitmap, |p, slot| {
                            let tf = (p as i32) as f32;
                            coef * (tf / (tf + norms[slot]))
                        })
                    }
                    ScoreMode::MaterializedF32 => {
                        accumulate(docs, pays, base, acc, bitmap, |p, _| f32::from_bits(p))
                    }
                    ScoreMode::MaterializedQ8 => {
                        accumulate(docs, pays, base, acc, bitmap, |p, _| (p as i32) as f32)
                    }
                };
                c.load(doc_col, buffers, v)?;
            }
        }
        *heap_offers += drain_masked(base, scores, present, heap, n, &mut seq);
    }
    Ok(seq)
}

/// Width, in docids, of the ranked union's window (see [`run_ranked`]).
const UNION_WINDOW: usize = 2048;
const _: () = assert!(UNION_WINDOW / ENTRY_POINT_STRIDE < 32); // a u32 stride mask

/// Docid `d`'s slot in the union window at `base`, `None` outside it. A
/// distance, never `d < base + UNION_WINDOW`: that sum wraps near
/// `u32::MAX`, silently in a release build. The distance is taken in
/// `usize`, where a docid below `base` (a corrupt, non-ascending list)
/// wraps past every `u32` distance and waits for a later window; in `u32`
/// a small docid under a base near `u32::MAX` would wrap into the window.
fn window_slot(d: u32, base: u32) -> Option<usize> {
    let slot = (d as usize).wrapping_sub(base as usize);
    (slot < UNION_WINDOW).then_some(slot)
}

/// Adds `contrib(payload, slot)` of each leading posting of `docs`/`pays`
/// that falls in the window at `base` to its slot of the accumulator,
/// marking the slot in `present`; returns how many postings it consumed.
fn accumulate(
    docs: &[u32],
    pays: &[u32],
    base: u32,
    acc: &mut [f32],
    present: &mut [u64],
    contrib: impl Fn(u32, usize) -> f32,
) -> usize {
    let mut taken = 0;
    // Bits of one bitmap word collect in a register: a read-modify-write
    // per posting would serialize dense lists on store forwarding.
    let (mut word, mut bits) = (0, 0);
    for (&d, &p) in docs.iter().zip(pays) {
        let Some(slot) = window_slot(d, base) else {
            break;
        };
        acc[slot] += contrib(p, slot);
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

/// Stages `norms[d - nbase] = norm_of(d)`, `nbase` the first docid of
/// `base`'s length stride, for every docid `d` of each 128-docid stride of
/// D that a leading in-window posting of `docs` touches and `staged` (bit
/// `r` for the stride at `nbase + 128 r`) does not yet mark: a stride is
/// staged whole and once, however many terms touch it. The last stride of
/// D stops at `num_docs`, unless a (corrupt) posting points past it: that
/// docid's lookup returns [`StorageError::OutOfBounds`], and so does the query.
fn stage_norms(
    docs: &[u32],
    base: u32,
    staged: &mut u32,
    norms: &mut [f32],
    num_docs: usize,
    mut norm_of: impl FnMut(usize) -> Result<f32, StorageError>,
) -> Result<(), StorageError> {
    let s = ENTRY_POINT_STRIDE;
    let nbase = base as usize / s * s;
    for &d in docs.iter().take_while(|&&d| window_slot(d, base).is_some()) {
        let (d, first) = (d as usize, d as usize / s * s);
        let bit = 1 << ((first - nbase) / s);
        if *staged & bit == 0 {
            *staged |= bit;
            for x in first..(first + s).min(num_docs.max(d + 1)) {
                norms[x - nbase] = norm_of(x)?;
            }
        }
    }
    Ok(())
}

/// Drains the union window at `base` into the top-`n` heap, one 64-slot
/// word of the presence bitmap at a time, and leaves the accumulator `+0.0`
/// and the bitmap zero behind. Returns how many rows reached
/// [`heap_offer`].
///
/// Every present row takes the arrival index it would take if all of them
/// were offered in ascending slot order: a word starting at `seq` gives its
/// `i`-th set bit `seq + i + 1` (a popcount of the bits below it), then
/// advances `seq` by its popcount. Until the heap is full every present row
/// is offered. Once it is, a word offers only the rows that [`nle_mask`]
/// admits against the heap floor as the word starts, `!(score <= floor)`:
/// the floor only rises (the root is the total-order minimum of a set that
/// only gains larger rows), and `heap_offer` re-checks each row, so a row
/// the mask drops is one that `heap_offer` would reject, or admit only to
/// evict at once, at any later floor. Heap contents, tie order and the
/// returned candidate count are those of offering every row.
fn drain_masked(
    base: u32,
    acc: &mut [f32],
    present: &mut [u64],
    heap: &mut Vec<HeapRow>,
    n: usize,
    seq: &mut u64,
) -> u64 {
    let mut offers = 0;
    let (words, _) = acc.as_chunks_mut::<64>();
    for (w, (slots, word)) in words.iter_mut().zip(present.iter_mut()).enumerate() {
        let pw = std::mem::take(word);
        if pw == 0 {
            continue;
        }
        let mut candidates = if n == 0 {
            0
        } else if heap.len() < n {
            pw
        } else {
            pw & nle_mask(slots, heap[0].score)
        };
        offers += u64::from(candidates.count_ones());
        while candidates != 0 {
            let bit = candidates.trailing_zeros();
            candidates &= candidates - 1;
            let below = pw & ((1 << bit) - 1);
            let row = HeapRow {
                score: slots[bit as usize],
                seq: *seq + u64::from(below.count_ones()) + 1,
                docid: base + (w * 64) as u32 + bit,
            };
            heap_offer(heap, n, row);
        }
        *seq += u64::from(pw.count_ones());
        slots.fill(0.0);
    }
    offers
}

/// The ranked union's threshold mask over one 64-slot word of its
/// accumulator: bit `i` is set iff `!(slots[i] <= t)`, exactly the rows that
/// the heap's IEEE cheap-reject does *not* reject at floor `t`. So a NaN
/// slot or a NaN floor sets the bit, and `+0.0` against a `-0.0` floor does
/// not. Dispatches to the AVX2 kernel when active; the two are
/// bit-identical (pinned by `tests/simd_scoring.rs`).
pub fn nle_mask(slots: &[f32; 64], t: f32) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if x100_compress::simd_active() {
        // Safety: `simd_active` implies AVX2 was detected at runtime.
        return unsafe { simd::nle_mask_avx2(slots, t) };
    }
    nle_mask_scalar(slots, t)
}

// `!(x <= t)` is not `x > t`: it also holds for a NaN, as the mask must.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn nle_mask_scalar(slots: &[f32; 64], t: f32) -> u64 {
    (0..64).fold(0, |mask, i| mask | u64::from(!(slots[i] <= t)) << i)
}

/// Scores one assembled intersection batch (its `k` terms' payloads
/// term-major, rows `v` apart) and offers every row to the heap.
#[allow(clippy::too_many_arguments)]
fn flush_batch(
    mode: ScoreMode,
    coefs: &[f32],
    (meta, len_window, buffers): (&PagedMetadata, &mut Window, &BufferManager),
    (batch_docids, batch_payloads): (&[u32], &[u32]),
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
                let len = len_window.value_at(&meta.doc_lens, buffers, v, d as usize)?;
                norms.push(c0 + c1 * len as f32);
            }
            for i in 0..k {
                score_computed(
                    scores,
                    &batch_payloads[i * v..i * v + rows],
                    coefs[i],
                    norms,
                );
            }
        }
        ScoreMode::MaterializedF32 | ScoreMode::MaterializedQ8 => {
            let f32_bits = matches!(mode, ScoreMode::MaterializedF32);
            for i in 0..k {
                score_materialized(scores, &batch_payloads[i * v..i * v + rows], f32_bits);
            }
        }
    }
    for (&docid, &score) in batch_docids.iter().zip(scores.iter()) {
        *seq += 1;
        let seq = *seq;
        heap_offer(heap, n, HeapRow { score, seq, docid });
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

/// One term's contribution to the batch: `acc[j] += coef * (tf / (tf +
/// norm[j]))` with `tf = cast_f32(payload as i32)`, over rows seeded with
/// `+0.0` (exact: see [`run_ranked`]). Dispatches to the AVX2 kernel when
/// active; both paths are IEEE-exact per element, hence bit-identical.
fn score_computed(acc: &mut [f32], tfs: &[u32], coef: f32, norms: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if x100_compress::simd_active() {
        // Safety: `simd_active` implies AVX2 was detected at runtime.
        unsafe { simd::score_computed_avx2(acc, tfs, coef, norms) };
        return;
    }
    score_computed_scalar(acc, tfs, coef, norms);
}

fn score_computed_scalar(acc: &mut [f32], tfs: &[u32], coef: f32, norms: &[f32]) {
    for j in 0..acc.len() {
        let tf = (tfs[j] as i32) as f32;
        acc[j] += coef * (tf / (tf + norms[j]));
    }
}

/// One materialized term's contribution, summed into the batch: the
/// payload decoded as the plan decodes it (`f32::from_bits` for F32
/// indexes, `cast_f32` for quantized codes).
fn score_materialized(acc: &mut [f32], payloads: &[u32], f32_bits: bool) {
    #[cfg(target_arch = "x86_64")]
    if x100_compress::simd_active() {
        // Safety: `simd_active` implies AVX2 was detected at runtime.
        unsafe { simd::score_materialized_avx2(acc, payloads, f32_bits) };
        return;
    }
    score_materialized_scalar(acc, payloads, f32_bits);
}

fn score_materialized_scalar(acc: &mut [f32], payloads: &[u32], f32_bits: bool) {
    for j in 0..acc.len() {
        acc[j] += if f32_bits {
            f32::from_bits(payloads[j])
        } else {
            (payloads[j] as i32) as f32
        };
    }
}

/// AVX2 kernels. The scoring kernels take 8 candidate rows per iteration,
/// scalar tail. Every operation they use — `cvtepi32_ps`, `div_ps`,
/// `mul_ps`, `add_ps` — is IEEE-exact, and multiplies/adds are kept
/// separate (no FMA), so the lanes compute bit-for-bit what the scalar loop
/// computes. The drain's threshold mask compares 8 slots at a time.
#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::*;

    /// `_CMP_NLE_UQ` is `!(x <= t)`, true on unordered operands: the
    /// scalar mask's predicate lane for lane. (`_CMP_GT_OQ` would drop a
    /// NaN sum that the heap admits.) The 8 loads of 8 slots each stay
    /// inside the 64-slot array.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn nle_mask_avx2(slots: &[f32; 64], t: f32) -> u64 {
        let t = _mm256_set1_ps(t);
        let mut mask = 0;
        for i in 0..8 {
            let x = _mm256_loadu_ps(slots.as_ptr().add(8 * i));
            let nle = _mm256_cmp_ps::<_CMP_NLE_UQ>(x, t);
            mask |= u64::from(_mm256_movemask_ps(nle) as u8) << (8 * i);
        }
        mask
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn score_computed_avx2(
        acc: &mut [f32],
        tfs: &[u32],
        coef: f32,
        norms: &[f32],
    ) {
        let n8 = acc.len() & !7;
        let c = _mm256_set1_ps(coef);
        let mut j = 0;
        while j < n8 {
            let tf = _mm256_cvtepi32_ps(_mm256_loadu_si256(tfs.as_ptr().add(j).cast()));
            let nm = _mm256_loadu_ps(norms.as_ptr().add(j));
            let ts = _mm256_mul_ps(c, _mm256_div_ps(tf, _mm256_add_ps(tf, nm)));
            let out = _mm256_add_ps(_mm256_loadu_ps(acc.as_ptr().add(j)), ts);
            _mm256_storeu_ps(acc.as_mut_ptr().add(j), out);
            j += 8;
        }
        super::score_computed_scalar(&mut acc[n8..], &tfs[n8..], coef, &norms[n8..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn score_materialized_avx2(
        acc: &mut [f32],
        payloads: &[u32],
        f32_bits: bool,
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
            let out = _mm256_add_ps(_mm256_loadu_ps(acc.as_ptr().add(j)), s);
            _mm256_storeu_ps(acc.as_mut_ptr().add(j), out);
            j += 8;
        }
        super::score_materialized_scalar(&mut acc[n8..], &payloads[n8..], f32_bits);
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
        score_computed_scalar(&mut acc, &tfs, 1.5, &norms);
        score_computed_scalar(&mut acc, &tfs, 2.25, &norms);
        for j in 0..9 {
            let tf = tfs[j] as f32;
            let expect = 0.0 + 1.5 * (tf / (tf + norms[j])) + 2.25 * (tf / (tf + norms[j]));
            assert_eq!(acc[j].to_bits(), expect.to_bits(), "row {j}");
        }
    }

    /// Drains the window at `base` into a heap with room for every slot:
    /// the `(docid, score)` rows `run_ranked` offers to the heap, in
    /// arrival (ascending docid) order.
    fn drain_rows(base: u32, acc: &mut [f32], present: &mut [u64]) -> Vec<(u32, f32)> {
        let (mut heap, mut seq) = (Vec::new(), 0);
        let offers = drain_masked(base, acc, present, &mut heap, UNION_WINDOW, &mut seq);
        assert_eq!((offers, heap.len() as u64), (seq, seq), "every row offered");
        heap.sort_by_key(|r| r.seq);
        heap.iter().map(|r| (r.docid, r.score)).collect()
    }

    /// The drain the masked one must equal: every present row offered to
    /// the heap in ascending slot order, at the next arrival index.
    fn drain_every_row(
        base: u32,
        acc: &mut [f32],
        present: &mut [u64],
        heap: &mut Vec<HeapRow>,
        n: usize,
        seq: &mut u64,
    ) {
        for (w, word) in present.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                *seq += 1;
                let score = std::mem::take(&mut acc[slot]);
                let docid = base + slot as u32;
                heap_offer(
                    heap,
                    n,
                    HeapRow {
                        score,
                        seq: *seq,
                        docid,
                    },
                );
            }
        }
    }

    /// A heap's rows as `(docid, score bits, seq)`, in result order.
    fn heap_rows(heap: &[HeapRow]) -> Vec<(u32, u32, u64)> {
        let mut rows = heap.to_vec();
        rows.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.seq.cmp(&b.seq)));
        rows.iter()
            .map(|r| (r.docid, r.score.to_bits(), r.seq))
            .collect()
    }

    /// An empty window with `rows` present: `(slot, score)`.
    fn window(rows: &[(usize, f32)]) -> (Vec<f32>, Vec<u64>) {
        let mut acc = vec![0.0f32; UNION_WINDOW];
        let mut present = vec![0u64; UNION_WINDOW / 64];
        for &(slot, score) in rows {
            acc[slot] = score;
            present[slot / 64] |= 1 << (slot % 64);
        }
        (acc, present)
    }

    /// Drains `rows` as one window at `base` into `heap`, checking that the
    /// accumulator and bitmap are left clear; returns the rows offered.
    fn drain(
        base: u32,
        rows: &[(usize, f32)],
        heap: &mut Vec<HeapRow>,
        n: usize,
        seq: &mut u64,
    ) -> u64 {
        let (mut acc, mut present) = window(rows);
        let offers = drain_masked(base, &mut acc, &mut present, heap, n, seq);
        assert!(acc.iter().all(|s| s.to_bits() == 0) && present.iter().all(|&w| w == 0));
        offers
    }

    #[test]
    fn masked_drain_rejects_a_tie_at_the_floor_and_keeps_the_incumbent() {
        let (mut heap, mut seq) = (Vec::new(), 0);
        assert_eq!(drain(0, &[(5, 2.0), (9, 1.0)], &mut heap, 2, &mut seq), 2);
        // Floor 1.0: the tie in slot 3 and the 0.5 are masked out, the
        // 1.5 is offered and displaces docid 9.
        let rows = [(3, 1.0), (64, 0.5), (70, 1.5)];
        assert_eq!(drain(100, &rows, &mut heap, 2, &mut seq), 1);
        assert_eq!(seq, 5);
        assert_eq!(
            heap_rows(&heap),
            [(5, 2.0f32.to_bits(), 1), (170, 1.5f32.to_bits(), 5)]
        );
        // A tie with the new floor keeps the incumbent too.
        assert_eq!(drain(300, &[(0, 1.5)], &mut heap, 2, &mut seq), 0);
        assert_eq!(heap_rows(&heap)[1], (170, 1.5f32.to_bits(), 5));
        assert_eq!(seq, 6);
    }

    #[test]
    fn masked_drain_offers_every_row_of_the_word_in_which_the_heap_fills() {
        // n = 3 fills at the third row of word 0: the word's later rows
        // are offered all the same, and the heap rejects them itself.
        let (mut heap, mut seq) = (Vec::new(), 0);
        let word0 = [(0, 4.0), (1, 3.0), (2, 2.0), (3, 1.0), (60, 5.0)];
        // Word 1 sees the floor 3.0 that word 0 left: only 6.0 passes.
        let word1 = [(64, 3.0), (65, 6.0), (127, 2.5)];
        let rows: Vec<_> = word0.iter().chain(&word1).copied().collect();
        assert_eq!(drain(0, &rows, &mut heap, 3, &mut seq), 6);
        assert_eq!(seq, 8);
        let kept: Vec<(u32, u64)> = heap_rows(&heap).iter().map(|r| (r.0, r.2)).collect();
        assert_eq!(kept, [(65, 7), (60, 5), (0, 1)]);

        // n = 70 fills in the middle of the window (word 1): word 0's 64
        // rows and all of word 1's are offered, word 2 is masked.
        let (mut heap, mut seq) = (Vec::new(), 0);
        let mut rows: Vec<(usize, f32)> = (0..80).map(|s| (s, 1.0 + s as f32)).collect();
        rows.extend([(128, 5.0), (129, 500.0)]);
        assert_eq!(drain(0, &rows, &mut heap, 70, &mut seq), 81);
        assert_eq!((seq, heap.len()), (82, 70));
        assert_eq!(heap_rows(&heap)[0], (129, 500.0f32.to_bits(), 82));
    }

    #[test]
    fn masked_drain_keeps_a_negative_zero_floor_against_positive_zero_slots() {
        let (mut heap, mut seq) = (Vec::new(), 0);
        assert_eq!(drain(0, &[(0, -0.0)], &mut heap, 1, &mut seq), 1);
        // IEEE `+0.0 <= -0.0`: the heap would cheap-reject, so the mask
        // drops them — the present +0.0 sums and the absent slots alike.
        assert_eq!(
            drain(64, &[(1, 0.0), (700, 0.0)], &mut heap, 1, &mut seq),
            0
        );
        assert_eq!(seq, 3);
        assert_eq!(heap_rows(&heap), [(0, (-0.0f32).to_bits(), 1)]);
    }

    #[test]
    fn masked_drain_offers_a_nan_sum_as_the_heap_admits_it() {
        let (mut heap, mut seq) = (Vec::new(), 0);
        assert_eq!(drain(0, &[(0, 1.0)], &mut heap, 1, &mut seq), 1);
        assert_eq!(
            drain(64, &[(2, f32::NAN), (3, 0.5)], &mut heap, 1, &mut seq),
            1
        );
        // `NaN <= 1.0` is false: the heap takes it (a positive NaN is the
        // total-order maximum), exactly as offering every row would.
        assert_eq!(heap_rows(&heap), [(66, f32::NAN.to_bits(), 2)]);
        // A NaN floor masks nothing: every row is offered and rejected.
        assert_eq!(drain(128, &[(0, 9.0), (1, 0.0)], &mut heap, 1, &mut seq), 2);
        assert_eq!(heap_rows(&heap), [(66, f32::NAN.to_bits(), 2)]);
    }

    #[test]
    fn masked_drain_with_no_room_offers_nothing_but_counts_every_row() {
        let (mut heap, mut seq) = (Vec::new(), 0);
        let rows = [(0, 1.0), (63, 2.0), (64, 3.0), (2047, 4.0)];
        assert_eq!(drain(0, &rows, &mut heap, 0, &mut seq), 0);
        assert!(heap.is_empty());
        assert_eq!(seq, 4);
    }

    #[test]
    fn masked_drain_equals_offering_every_row_on_random_windows() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Few distinct scores, so ties at the floor are common; ±0.0 and
        // NaN among them.
        let palette = [0.0, -0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5, 7.0, f32::NAN];
        let mut masked = 0;
        for case in 0..200 {
            let n = [0, 1, 2, 5, 20, 64, 100][case % 7];
            let density = [1, 4, 16, 64][case / 7 % 4];
            let (mut heap, mut seq) = (Vec::new(), 0);
            let (mut ref_heap, mut ref_seq) = (Vec::new(), 0);
            let mut offers = 0;
            for win in 0..4u32 {
                let rows: Vec<(usize, f32)> = (0..UNION_WINDOW)
                    .filter_map(|slot| {
                        let r = next();
                        (r % 64 < density)
                            .then(|| (slot, palette[(r >> 8) as usize % palette.len()]))
                    })
                    .collect();
                let base = win * UNION_WINDOW as u32;
                offers += drain(base, &rows, &mut heap, n, &mut seq);
                let (mut acc, mut present) = window(&rows);
                drain_every_row(base, &mut acc, &mut present, &mut ref_heap, n, &mut ref_seq);
                assert_eq!(seq, ref_seq, "case {case} window {win}");
                assert_eq!(
                    heap_rows(&heap),
                    heap_rows(&ref_heap),
                    "case {case} window {win}"
                );
            }
            assert!(offers <= seq);
            masked += seq - offers;
        }
        assert!(masked > 0, "the mask dropped no row in any case");
    }

    #[test]
    fn union_window_does_not_wrap_at_the_top_of_the_docid_space() {
        // `base + UNION_WINDOW` overflows u32 for these bases: a window
        // bound computed as that sum wraps to a small docid in a release
        // build and no posting would ever be inside it.
        let top = [u32::MAX - 3, u32::MAX - 2, u32::MAX - 1, u32::MAX];
        let pays = [7u32, 0, 9, 11];
        let q8 = |p: u32, _| (p as i32) as f32;
        let mut acc = vec![0.0f32; UNION_WINDOW];
        let mut present = vec![0u64; UNION_WINDOW / 64];
        let all_zero = |acc: &[f32], present: &[u64]| {
            acc.iter().all(|s| s.to_bits() == 0) && present.iter().all(|&w| w == 0)
        };
        let base = top[0];
        assert_eq!(accumulate(&top, &pays, base, &mut acc, &mut present, q8), 4);
        assert_eq!(
            accumulate(&top[2..], &[5, 6], base, &mut acc, &mut present, q8),
            2
        );
        let rows = drain_rows(base, &mut acc, &mut present);
        assert_eq!(
            rows,
            [(top[0], 7.0), (top[1], 0.0), (top[2], 14.0), (top[3], 17.0)]
        );
        assert!(
            all_zero(&acc, &present),
            "the drain leaves the accumulator and the bitmap all zero"
        );

        // A window whose last slot is u32::MAX - 2: the two docids past it
        // stay for the next window, which then starts at u32::MAX - 1.
        let base = u32::MAX - 1 - UNION_WINDOW as u32;
        let docs = [base, u32::MAX - 2, u32::MAX - 1, u32::MAX];
        assert_eq!(
            accumulate(&docs, &pays, base, &mut acc, &mut present, q8),
            2
        );
        let rows = drain_rows(base, &mut acc, &mut present);
        assert_eq!(rows, [(base, 7.0), (base + UNION_WINDOW as u32 - 1, 0.0)]);
        assert_eq!(window_slot(u32::MAX - 1, base), None);
        assert_eq!(window_slot(u32::MAX, u32::MAX - 1), Some(1));
        // A docid below the base (a corrupt, non-ascending list) is outside
        // every window that starts above it: it is left, not mis-slotted.
        assert_eq!(
            accumulate(&[base - 1], &[1], base, &mut acc, &mut present, q8),
            0
        );
        // So is docid 0 under the top base, whose `u32` distance wraps to 1.
        assert_eq!(window_slot(0, u32::MAX), None);
        assert_eq!(
            accumulate(&[0], &[1], u32::MAX, &mut acc, &mut present, q8),
            0
        );
        assert!(all_zero(&acc, &present));
    }

    #[test]
    fn poison_then_default_reset_is_safe() {
        let mut s = QueryScratch::new();
        s.poison(0xDEAD_BEEF);
        s.poison(1); // twice: poisoning must not corrupt Vec invariants
        assert!(s.terms.capacity() >= s.terms.len());
    }
}
