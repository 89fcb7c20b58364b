//! The query engine: keyword search as relational query plans (§3.2–3.3).
//!
//! Every strategy in Table 2 is built from the same X100 operators:
//!
//! * **BoolAND** — `Join(ScanSelect(TD, t1), ScanSelect(TD, t2), ...)`:
//!   a fold of inner merge-joins over posting lists.
//! * **BoolOR** — the same fold with `MergeOuterJoin`.
//! * **BM25** — outer-join the lists keeping each term's `tf`, then a
//!   `Project` computing equation 2 with vectorized primitives (document
//!   length fetched by positional gather against the dense D table), then
//!   `TopN(score DESC, n)`.
//! * **+Two-pass (T)** — first run the plan with *inner* joins (documents
//!   containing all terms); only if fewer than `n` results come back, run
//!   the outer-join plan (§3.3's heuristic; the paper reports ~15 % of
//!   queries needing the second pass).
//! * **+Materialization (M/Q8)** — scan the precomputed `score` column
//!   instead of `tf`, skipping both the per-posting BM25 arithmetic and the
//!   D-table access: the final `Project` merely sums per-term scores.
//!
//! Compression (C) is an index-build property ([`crate::IndexConfig`]), not
//! a strategy: the same plans run over compressed or raw columns.

use std::sync::Arc;
use std::time::{Duration, Instant};

use x100_exec::prelude::*;
use x100_exec::ExecError;
use x100_storage::{BufferManager, BufferMode, DiskModel, IoStats};
use x100_vector::VectorSize;

use crate::bm25::idf;
use crate::hot::QueryScratch;
use crate::index::{InvertedIndex, Materialize};

/// The search strategies of the Table 2 ladder (compression excluded — that
/// lives in the index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Unranked conjunctive retrieval.
    BoolAnd,
    /// Unranked disjunctive retrieval.
    BoolOr,
    /// BM25 computed from tf/doclen at query time, single (outer) pass.
    Bm25,
    /// BM25 with the two-pass conjunctive-first optimization.
    Bm25TwoPass,
    /// Materialized per-term scores (f32 or quantized, per the index).
    Bm25Materialized,
    /// Materialized scores + two-pass.
    Bm25MaterializedTwoPass,
    /// Alias of [`SearchStrategy::Bm25`]: same plan, same work, same hits.
    /// Once selected a block-max pruned loop, which lost to the exhaustive
    /// one on the clock and was deleted; the variant and its wire tag stay
    /// because tags are never reused.
    Bm25Pruned,
    /// Alias of [`SearchStrategy::Bm25Materialized`], kept like
    /// [`SearchStrategy::Bm25Pruned`].
    Bm25MaterializedPruned,
}

impl SearchStrategy {
    /// Every strategy of the Table 2 ladder, in ladder order, followed by
    /// the two aliases.
    pub const ALL: [SearchStrategy; 8] = [
        SearchStrategy::BoolAnd,
        SearchStrategy::BoolOr,
        SearchStrategy::Bm25,
        SearchStrategy::Bm25TwoPass,
        SearchStrategy::Bm25Materialized,
        SearchStrategy::Bm25MaterializedTwoPass,
        SearchStrategy::Bm25Pruned,
        SearchStrategy::Bm25MaterializedPruned,
    ];

    /// The strategy's stable one-byte tag on the network wire. Tags are
    /// part of the framed search protocol: never reorder or reuse them,
    /// only append.
    pub fn wire_tag(self) -> u8 {
        match self {
            SearchStrategy::BoolAnd => 0,
            SearchStrategy::BoolOr => 1,
            SearchStrategy::Bm25 => 2,
            SearchStrategy::Bm25TwoPass => 3,
            SearchStrategy::Bm25Materialized => 4,
            SearchStrategy::Bm25MaterializedTwoPass => 5,
            SearchStrategy::Bm25Pruned => 6,
            SearchStrategy::Bm25MaterializedPruned => 7,
        }
    }

    /// Decodes a wire tag written by [`Self::wire_tag`]; `None` for bytes
    /// no strategy claims (a decoder surfaces that as a typed protocol
    /// error, never a panic).
    pub fn from_wire_tag(tag: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.wire_tag() == tag)
    }

    /// Whether the strategy needs a materialized score column.
    pub fn needs_materialized(self) -> bool {
        matches!(
            self,
            SearchStrategy::Bm25Materialized
                | SearchStrategy::Bm25MaterializedTwoPass
                | SearchStrategy::Bm25MaterializedPruned
        )
    }

    /// Whether the strategy is one of the two `*Pruned` aliases. Names the
    /// variants only: no plan prunes.
    pub fn is_pruned(self) -> bool {
        matches!(
            self,
            SearchStrategy::Bm25Pruned | SearchStrategy::Bm25MaterializedPruned
        )
    }

    /// Whether the strategy uses the two-pass heuristic.
    pub fn is_two_pass(self) -> bool {
        matches!(
            self,
            SearchStrategy::Bm25TwoPass | SearchStrategy::Bm25MaterializedTwoPass
        )
    }
}

/// One ranked search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Document id.
    pub docid: u32,
    /// Final (summed) score; 0 for boolean strategies.
    pub score: f32,
    /// Document name from the D table.
    pub name: String,
}

/// Results plus execution accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// Ranked hits, best first.
    pub results: Vec<SearchResult>,
    /// 1 or 2 (two-pass strategies only reach 2 when the first pass came
    /// up short).
    pub passes: u8,
    /// Simulated I/O charged during this search. Computed as a delta of
    /// the (shared) buffer pool's counters: exact when the pool serves one
    /// query at a time; with concurrent queries on the same pool it may
    /// include their interleaved misses (run-level pool totals stay
    /// exact).
    pub io: IoStats,
    /// Wall-clock execution time, real fetches behind pool misses
    /// included. The simulated I/O in [`Self::io`] is accounted beside it,
    /// never slept, so it is not part of this figure.
    pub cpu_time: Duration,
}

/// Accounting for a scratch-path search that returns raw `(docid, score)`
/// hits instead of materializing named results: the [`SearchResponse`]
/// metadata without its allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitsResponse {
    /// 1 or 2, as in [`SearchResponse::passes`].
    pub passes: u8,
    /// Simulated I/O delta, as in [`SearchResponse::io`].
    pub io: IoStats,
    /// Wall-clock execution time, as in [`SearchResponse::cpu_time`].
    pub cpu_time: Duration,
}

/// Executes keyword queries against an [`InvertedIndex`].
pub struct QueryEngine<'a> {
    index: &'a InvertedIndex,
    buffers: Arc<BufferManager>,
    vector_size: usize,
}

impl<'a> QueryEngine<'a> {
    /// Engine with hot (unbounded, warm-once) buffering and the default
    /// RAID disk model.
    pub fn new(index: &'a InvertedIndex) -> Self {
        Self::with_buffering(index, DiskModel::raid12(), BufferMode::Hot, 0)
    }

    /// Engine with explicit disk model and buffer mode.
    pub fn with_buffering(
        index: &'a InvertedIndex,
        disk: DiskModel,
        mode: BufferMode,
        capacity_bytes: usize,
    ) -> Self {
        Self::with_buffer_manager(
            index,
            Arc::new(BufferManager::with_mode(disk, mode, capacity_bytes)),
        )
    }

    /// Engine over an externally owned buffer manager — cluster nodes keep
    /// one persistent pool per node and hand short-lived engines to each
    /// query stream.
    pub fn with_buffer_manager(index: &'a InvertedIndex, buffers: Arc<BufferManager>) -> Self {
        QueryEngine {
            index,
            buffers,
            vector_size: VectorSize::DEFAULT.get(),
        }
    }

    /// The buffer manager (for warming, evicting, stats).
    pub fn buffers(&self) -> &BufferManager {
        &self.buffers
    }

    /// The index this engine queries.
    pub fn index(&self) -> &InvertedIndex {
        self.index
    }

    /// Builder-style vector-size override (the §4 demonstration knob),
    /// folded into construction so a finished engine is immutable: every
    /// query method takes `&self`, and engines can be shared or rebuilt
    /// per worker without interior mutability.
    #[must_use]
    pub fn with_vector_size(mut self, size: impl Into<VectorSize>) -> Self {
        self.vector_size = size.into().get();
        self
    }

    /// Current vector size.
    pub fn vector_size(&self) -> usize {
        self.vector_size
    }

    /// Runs one query: term ids in, ranked top-`n` out.
    pub fn search(
        &self,
        term_ids: &[u32],
        strategy: SearchStrategy,
        n: usize,
    ) -> Result<SearchResponse, ExecError> {
        if strategy.needs_materialized() && !self.index.has_materialized_scores() {
            return Err(ExecError::Plan(
                "strategy requires a materialized score column; build the index \
                 with Materialize::F32 or Materialize::Quantized8"
                    .into(),
            ));
        }
        // Drop unknown/empty terms: they contribute nothing to any strategy.
        let terms: Vec<u32> = term_ids
            .iter()
            .copied()
            .filter(|&t| !self.index.term_range(t).is_empty())
            .collect();

        let mut ranked = Vec::new();
        let meta = self.timed(|| {
            let mut passes = 1u8;
            if terms.is_empty() {
                return Ok(passes);
            }
            ranked = match strategy {
                SearchStrategy::BoolAnd => self.run_boolean(&terms, n, true)?,
                SearchStrategy::BoolOr => self.run_boolean(&terms, n, false)?,
                SearchStrategy::Bm25 | SearchStrategy::Bm25Pruned => {
                    self.run_ranked(&terms, n, false)?
                }
                SearchStrategy::Bm25Materialized | SearchStrategy::Bm25MaterializedPruned => {
                    self.run_ranked(&terms, n, true)?
                }
                SearchStrategy::Bm25TwoPass | SearchStrategy::Bm25MaterializedTwoPass => {
                    let materialized = strategy.needs_materialized();
                    // Pass 1: conjunctive. A document containing all query
                    // terms is likely to outscore one that does not.
                    let first = self.run_ranked_conjunctive(&terms, n, materialized)?;
                    if first.len() >= n || terms.len() == 1 {
                        first
                    } else {
                        passes = 2;
                        self.run_ranked(&terms, n, materialized)?
                    }
                }
            };
            ranked.truncate(n);
            Ok(passes)
        })?;
        self.named_response(ranked, meta)
    }

    /// Runs `query` between the I/O-counter and wall-clock snapshots every
    /// response carries; `query` returns its pass count.
    fn timed(
        &self,
        query: impl FnOnce() -> Result<u8, ExecError>,
    ) -> Result<HitsResponse, ExecError> {
        let io_before = self.buffers.stats();
        let started = Instant::now();
        let passes = query()?;
        let cpu_time = started.elapsed();
        let io = self.buffers.stats().delta_since(&io_before);
        Ok(HitsResponse {
            passes,
            io,
            cpu_time,
        })
    }

    /// Materializes `(docid, score)` hits into a full response: one D-table
    /// name lookup per hit. A name page that cannot be read is the query's
    /// [`ExecError::Storage`].
    fn named_response(
        &self,
        hits: impl IntoIterator<Item = (u32, f32)>,
        meta: HitsResponse,
    ) -> Result<SearchResponse, ExecError> {
        let results = hits
            .into_iter()
            .map(|(docid, score)| {
                Ok(SearchResult {
                    docid,
                    score,
                    name: self.index.doc_name(docid)?.unwrap_or_default(),
                })
            })
            .collect::<Result<_, ExecError>>()?;
        Ok(SearchResponse {
            results,
            passes: meta.passes,
            io: meta.io,
            cpu_time: meta.cpu_time,
        })
    }

    /// Runs one query through the fused allocation-free path
    /// ([`crate::hot`]), reusing the caller's scratch arena, and
    /// materializes a full [`SearchResponse`] (names included — this
    /// variant allocates for the response itself; serving workers that
    /// only need docids should use [`Self::search_hits_into`]).
    ///
    /// Bit-identical to [`Self::search`] for every strategy.
    pub fn search_with_scratch(
        &self,
        term_ids: &[u32],
        strategy: SearchStrategy,
        n: usize,
        scratch: &mut QueryScratch,
    ) -> Result<SearchResponse, ExecError> {
        // The hits are staged in the arena's own buffer, then named.
        let mut hits = std::mem::take(&mut scratch.hits);
        let meta = self.search_hits_into(term_ids, strategy, n, scratch, &mut hits);
        let response = meta.and_then(|meta| self.named_response(hits.iter().copied(), meta));
        scratch.hits = hits;
        response
    }

    /// The allocation-free core: runs one query through the fused path,
    /// filling `out` (cleared first) with up to `n` `(docid, score)` hits,
    /// best first. Steady state (scratch and `out` grown by a warmup
    /// query) performs zero heap allocations — pinned by
    /// `tests/hot_path_allocs.rs`.
    pub fn search_hits_into(
        &self,
        term_ids: &[u32],
        strategy: SearchStrategy,
        n: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<(u32, f32)>,
    ) -> Result<HitsResponse, ExecError> {
        self.timed(|| {
            crate::hot::search_into(
                self.index,
                &self.buffers,
                self.vector_size,
                term_ids,
                strategy,
                n,
                scratch,
                out,
            )
        })
    }

    // ---- plan builders ---------------------------------------------------

    /// Scan of one term's posting list with the given payload column.
    fn posting_scan(
        &'a self,
        term: u32,
        payload: Option<&str>,
    ) -> Result<Box<dyn Operator + 'a>, ExecError> {
        let range = self.index.term_range(term);
        let cols: Vec<&str> = match payload {
            Some(p) => vec!["docid", p],
            None => vec!["docid"],
        };
        Ok(Box::new(TableScan::with_range(
            self.index.td(),
            &self.buffers,
            &cols,
            range,
            self.vector_size,
        )?))
    }

    /// Boolean retrieval: fold of (outer) merge-joins over docid-only scans,
    /// then take the first `n` docids (no ranking — Table 2 shows why that
    /// is a bad idea).
    fn run_boolean(
        &self,
        terms: &[u32],
        n: usize,
        conjunctive: bool,
    ) -> Result<Vec<(u32, f32)>, ExecError> {
        let mut plan = self.posting_scan(terms[0], None)?;
        for &t in &terms[1..] {
            let right = self.posting_scan(t, None)?;
            // After each join: [docid_l, docid_r] -> [docid].
            let joined: Box<dyn Operator + '_> = if conjunctive {
                let j = MergeJoin::new(plan, right, 0, 0, self.vector_size)?;
                // Inner join: both docids equal; keep the left.
                Box::new(Project::new(Box::new(j), vec![Expr::col_i32(0)]))
            } else {
                let j = MergeOuterJoin::new(plan, right, 0, 0, self.vector_size)?;
                // Outer join: the missing side is 0; MAX recovers the docid.
                Box::new(Project::new(
                    Box::new(j),
                    vec![Expr::max(Expr::col_i32(0), Expr::col_i32(1))],
                ))
            };
            plan = joined;
        }
        // Unranked: emit in docid order, truncated to n.
        Self::drain_docids(plan, n)
    }

    /// Ranked retrieval over the disjunctive (outer-join) plan.
    fn run_ranked(
        &self,
        terms: &[u32],
        n: usize,
        materialized: bool,
    ) -> Result<Vec<(u32, f32)>, ExecError> {
        let plan = self.build_ranked_plan(terms, materialized, false)?;
        let score = self.score_expr(terms, materialized);
        self.run_topn(plan, score, n)
    }

    /// Ranked retrieval over the conjunctive (inner-join) plan — pass 1 of
    /// the two-pass strategy.
    fn run_ranked_conjunctive(
        &self,
        terms: &[u32],
        n: usize,
        materialized: bool,
    ) -> Result<Vec<(u32, f32)>, ExecError> {
        let plan = self.build_ranked_plan(terms, materialized, true)?;
        let score = self.score_expr(terms, materialized);
        self.run_topn(plan, score, n)
    }

    /// Builds the join tree producing `[docid, payload_1, ..., payload_k]`.
    fn build_ranked_plan(
        &'a self,
        terms: &[u32],
        materialized: bool,
        conjunctive: bool,
    ) -> Result<Box<dyn Operator + 'a>, ExecError> {
        let payload = if materialized { "score" } else { "tf" };
        let mut plan = self.posting_scan(terms[0], Some(payload))?;
        for (i, &t) in terms.iter().enumerate().skip(1) {
            let right = self.posting_scan(t, Some(payload))?;
            // Left shape: [docid, p_1..p_i]; right: [docid, p].
            // Joined: [docid_l, p_1..p_i, docid_r, p_r].
            let n_left = 1 + i;
            let joined: Box<dyn Operator + '_> = if conjunctive {
                Box::new(MergeJoin::new(plan, right, 0, 0, self.vector_size)?)
            } else {
                Box::new(MergeOuterJoin::new(plan, right, 0, 0, self.vector_size)?)
            };
            // Normalize back to [docid, p_1..p_{i+1}].
            let mut exprs = Vec::with_capacity(i + 2);
            exprs.push(if conjunctive {
                Expr::col_i32(0)
            } else {
                Expr::max(Expr::col_i32(0), Expr::col_i32(n_left))
            });
            for p in 1..n_left {
                exprs.push(Expr::col_i32(p));
            }
            exprs.push(Expr::col_i32(n_left + 1));
            plan = Box::new(Project::new(joined, exprs));
        }
        Ok(plan)
    }

    /// Appends the scoring projection + TopN over `[docid, p_1..p_k]` and
    /// drains the plan into `(docid, score)` pairs, best first.
    fn run_topn(
        &self,
        plan: Box<dyn Operator + '_>,
        score: Expr,
        n: usize,
    ) -> Result<Vec<(u32, f32)>, ExecError> {
        let projected = Project::new(plan, vec![Expr::col_i32(0), score]);
        let topn = TopN::new(Box::new(projected), 1, n, self.vector_size)?;
        let batches = x100_exec::collect_batches(topn)?;
        let mut out = Vec::with_capacity(n);
        for b in &batches {
            let ids = b.column(0).as_i32();
            let scores = b.column(1).as_f32();
            for (&d, &s) in ids.iter().zip(scores) {
                out.push((d as u32, s));
            }
        }
        Ok(out)
    }

    /// The scoring expression over `[docid, p_1..p_k]` for the given terms.
    fn score_expr(&self, terms: &[u32], materialized: bool) -> Expr {
        if materialized {
            // Sum the per-term materialized scores. For the f32 variant the
            // payload is stored bit-cast; for quantized it is a small code.
            let decode = |col: usize| match self.index.config().materialize {
                Materialize::F32 => Expr::f32_from_bits(Expr::col_i32(col)),
                Materialize::Quantized8 | Materialize::None => Expr::cast_f32(Expr::col_i32(col)),
            };
            let mut score = decode(1);
            for t in 1..terms.len() {
                score = Expr::add(score, decode(t + 1));
            }
            return score;
        }
        self.computed_bm25_expr(terms)
    }

    /// The computed-BM25 scoring expression (equations 1 and 2) for
    /// specific terms: per-term idf constants are folded into the plan.
    fn computed_bm25_expr(&self, terms: &[u32]) -> Expr {
        let params = self.index.config().params;
        let stats = self.index.stats();
        let doclen = Expr::cast_f32(Expr::gather_i32(
            self.index.doc_lens().clone(),
            Expr::col_i32(0),
        ));
        let norm = Expr::add(
            Expr::const_f32(params.k1 * (1.0 - params.b)),
            Expr::mul(
                Expr::const_f32(params.k1 * params.b / stats.avg_doc_len),
                doclen,
            ),
        );
        let mut score: Option<Expr> = None;
        for (i, &t) in terms.iter().enumerate() {
            let w_idf = idf(stats.num_docs, self.index.doc_freq(t));
            let tf = Expr::cast_f32(Expr::col_i32(i + 1));
            // idf * (k1+1) * tf / (tf + norm)
            let term_score = Expr::mul(
                Expr::const_f32(w_idf * (params.k1 + 1.0)),
                Expr::div(tf.clone(), Expr::add(tf, norm.clone())),
            );
            score = Some(match score {
                Some(acc) => Expr::add(acc, term_score),
                None => term_score,
            });
        }
        score.expect("at least one term")
    }

    /// Nested boolean retrieval (§3.2): compiles a [`crate::BooleanQuery`]
    /// tree to the paper's Join/OuterJoin plan and returns the matching
    /// documents in docid order (unranked — score is 0).
    ///
    /// Unlike the flat ranked API, boolean semantics are strict: a term that
    /// matches nothing empties every `AND` it participates in.
    pub fn search_boolean(
        &self,
        query: &crate::boolean::BooleanQuery,
        n: usize,
    ) -> Result<SearchResponse, ExecError> {
        let mut docids = Vec::new();
        let meta = self.timed(|| {
            docids = Self::drain_docids(self.boolean_plan(query)?, n)?;
            Ok(1)
        })?;
        self.named_response(docids, meta)
    }

    /// Drains a plan producing one docid column into the first `n`
    /// `(docid, 0.0)` rows — unranked, in docid order.
    fn drain_docids(
        mut op: Box<dyn Operator + '_>,
        n: usize,
    ) -> Result<Vec<(u32, f32)>, ExecError> {
        let mut out = Vec::new();
        op.open()?;
        'outer: while let Some(batch) = op.next()? {
            for &d in batch.column(0).as_i32() {
                if out.len() >= n {
                    break 'outer;
                }
                out.push((d as u32, 0.0));
            }
        }
        op.close();
        Ok(out)
    }

    /// Recursively compiles a boolean tree into an operator producing one
    /// strictly increasing docid column.
    fn boolean_plan(
        &'a self,
        query: &crate::boolean::BooleanQuery,
    ) -> Result<Box<dyn Operator + 'a>, ExecError> {
        use crate::boolean::BooleanQuery;
        match query {
            BooleanQuery::Term(t) => {
                // Unknown terms scan the empty range: strictly nothing.
                match self.index.term_id(t)? {
                    Some(t) => self.posting_scan(t, None),
                    None => Ok(Box::new(TableScan::with_range(
                        self.index.td(),
                        &self.buffers,
                        &["docid"],
                        0..0,
                        self.vector_size,
                    )?)),
                }
            }
            BooleanQuery::And(parts) | BooleanQuery::Or(parts) => {
                let conjunctive = matches!(query, BooleanQuery::And(_));
                let mut iter = parts.iter();
                let first = iter
                    .next()
                    .ok_or_else(|| ExecError::Plan("empty boolean AND/OR node".into()))?;
                let mut plan = self.boolean_plan(first)?;
                for part in iter {
                    let right = self.boolean_plan(part)?;
                    plan = if conjunctive {
                        let j = MergeJoin::new(plan, right, 0, 0, self.vector_size)?;
                        Box::new(Project::new(Box::new(j), vec![Expr::col_i32(0)]))
                    } else {
                        let j = MergeOuterJoin::new(plan, right, 0, 0, self.vector_size)?;
                        Box::new(Project::new(
                            Box::new(j),
                            vec![Expr::max(Expr::col_i32(0), Expr::col_i32(1))],
                        ))
                    };
                }
                Ok(plan)
            }
        }
    }

    /// Renders the paper-style relational plan for a query (the demo's
    /// "display the relational query plan" feature, §4).
    pub fn plan_text(&self, terms: &[&str], strategy: SearchStrategy, n: usize) -> String {
        let mut scans: Vec<String> = terms
            .iter()
            .map(|t| format!("ScanSelect( TD=TD, TD.term=\"{t}\" )"))
            .collect();
        if scans.is_empty() {
            return "Empty".to_owned();
        }
        let join_name = match strategy {
            SearchStrategy::BoolAnd => "MergeJoin",
            SearchStrategy::BoolOr => "MergeOuterJoin",
            SearchStrategy::Bm25
            | SearchStrategy::Bm25Materialized
            | SearchStrategy::Bm25Pruned
            | SearchStrategy::Bm25MaterializedPruned => "MergeOuterJoin",
            SearchStrategy::Bm25TwoPass | SearchStrategy::Bm25MaterializedTwoPass => {
                "MergeJoin|MergeOuterJoin"
            }
        };
        let mut tree = scans.remove(0);
        for s in scans {
            tree = format!("{join_name}(\n  {tree},\n  {s})");
        }
        match strategy {
            SearchStrategy::BoolAnd | SearchStrategy::BoolOr => tree,
            SearchStrategy::Bm25 | SearchStrategy::Bm25TwoPass | SearchStrategy::Bm25Pruned => {
                format!(
                    "TopN(\n Project(\n  {tree}\n  [ D.docname, score=BM25(tf, D.doclen, ftd) ]),\n [ score DESC ], {n})"
                )
            }
            SearchStrategy::Bm25Materialized
            | SearchStrategy::Bm25MaterializedTwoPass
            | SearchStrategy::Bm25MaterializedPruned => {
                format!(
                    "TopN(\n Project(\n  {tree}\n  [ docid, score=SUM(TD.score) ]),\n [ score DESC ], {n})"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexConfig, InvertedIndex};
    use std::collections::HashSet;
    use x100_corpus::{precision_at_k, CollectionConfig, SyntheticCollection};

    fn setup(config: IndexConfig) -> (SyntheticCollection, InvertedIndex) {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let idx = InvertedIndex::build(&c, &config);
        (c, idx)
    }

    /// Reference scorer: straight-line BM25 over the raw collection.
    fn reference_bm25(
        c: &SyntheticCollection,
        idx: &InvertedIndex,
        terms: &[u32],
        n: usize,
    ) -> Vec<(u32, f32)> {
        let params = idx.config().params;
        let stats = idx.stats();
        let mut scored: Vec<(u32, f32)> = c
            .docs
            .iter()
            .filter_map(|d| {
                let mut score = 0.0f32;
                let mut any = false;
                for &t in terms {
                    if let Ok(j) = d.terms.binary_search_by_key(&t, |&(t2, _)| t2) {
                        any = true;
                        score += crate::bm25::term_weight(
                            params,
                            stats,
                            idx.doc_freq(t),
                            d.terms[j].1,
                            d.len,
                        );
                    }
                }
                any.then_some((d.id, score))
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(n);
        scored
    }

    fn pick_terms(c: &SyntheticCollection, idx: &InvertedIndex) -> Vec<u32> {
        // Two mid-frequency terms guaranteed non-empty.
        let q = &c.eval_queries[0];
        q.terms
            .iter()
            .copied()
            .filter(|&t| idx.doc_freq(t) > 0)
            .take(3)
            .collect()
    }

    #[test]
    fn bm25_matches_reference_scorer() {
        let (c, idx) = setup(IndexConfig::uncompressed());
        let engine = QueryEngine::new(&idx);
        let terms = pick_terms(&c, &idx);
        let resp = engine.search(&terms, SearchStrategy::Bm25, 10).unwrap();
        let reference = reference_bm25(&c, &idx, &terms, 10);
        let got: Vec<u32> = resp.results.iter().map(|r| r.docid).collect();
        let expect: Vec<u32> = reference.iter().map(|&(d, _)| d).collect();
        assert_eq!(got, expect);
        for (r, &(_, s)) in resp.results.iter().zip(&reference) {
            assert!((r.score - s).abs() < 1e-3, "{} vs {s}", r.score);
        }
    }

    #[test]
    fn bm25_identical_on_compressed_index() {
        let (c, raw_idx) = setup(IndexConfig::uncompressed());
        let (_, comp_idx) = setup(IndexConfig::compressed());
        let terms = pick_terms(&c, &raw_idx);
        let raw_engine = QueryEngine::new(&raw_idx);
        let comp_engine = QueryEngine::new(&comp_idx);
        let a = raw_engine.search(&terms, SearchStrategy::Bm25, 20).unwrap();
        let b = comp_engine
            .search(&terms, SearchStrategy::Bm25, 20)
            .unwrap();
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn bool_and_returns_docs_with_all_terms() {
        let (c, idx) = setup(IndexConfig::uncompressed());
        let engine = QueryEngine::new(&idx);
        let terms = pick_terms(&c, &idx);
        let resp = engine
            .search(&terms, SearchStrategy::BoolAnd, 1000)
            .unwrap();
        for r in &resp.results {
            let doc = &c.docs[r.docid as usize];
            for &t in &terms {
                assert!(
                    doc.terms.binary_search_by_key(&t, |&(t2, _)| t2).is_ok(),
                    "doc {} missing term {t}",
                    r.docid
                );
            }
        }
        // And completeness: count matching docs directly.
        let expected = c
            .docs
            .iter()
            .filter(|d| {
                terms
                    .iter()
                    .all(|&t| d.terms.binary_search_by_key(&t, |&(t2, _)| t2).is_ok())
            })
            .count();
        assert_eq!(resp.results.len(), expected.min(1000));
    }

    #[test]
    fn bool_or_returns_docs_with_any_term() {
        let (c, idx) = setup(IndexConfig::uncompressed());
        let engine = QueryEngine::new(&idx);
        let terms = pick_terms(&c, &idx);
        let resp = engine
            .search(&terms, SearchStrategy::BoolOr, 100_000)
            .unwrap();
        let expected = c
            .docs
            .iter()
            .filter(|d| {
                terms
                    .iter()
                    .any(|&t| d.terms.binary_search_by_key(&t, |&(t2, _)| t2).is_ok())
            })
            .count();
        assert_eq!(resp.results.len(), expected);
    }

    #[test]
    fn two_pass_agrees_with_single_pass_on_top_n() {
        let (c, idx) = setup(IndexConfig::uncompressed());
        let engine = QueryEngine::new(&idx);
        for q in &c.eval_queries {
            let single = engine.search(&q.terms, SearchStrategy::Bm25, 5).unwrap();
            let two = engine
                .search(&q.terms, SearchStrategy::Bm25TwoPass, 5)
                .unwrap();
            // When the first pass fills the quota its results may differ in
            // membership only if a doc missing one term outranks conjunctive
            // matches — the paper accepts this approximation. Here we check
            // the weaker, always-true property: two-pass returns `n` results
            // whenever single-pass does.
            assert_eq!(single.results.len().min(5), two.results.len().min(5));
            assert!(two.passes <= 2);
        }
    }

    #[test]
    fn materialized_f32_ranking_matches_computed() {
        let (c, idx) = setup(IndexConfig::materialized_f32());
        let engine = QueryEngine::new(&idx);
        let terms = pick_terms(&c, &idx);
        let computed = engine.search(&terms, SearchStrategy::Bm25, 10).unwrap();
        let materialized = engine
            .search(&terms, SearchStrategy::Bm25Materialized, 10)
            .unwrap();
        let a: Vec<u32> = computed.results.iter().map(|r| r.docid).collect();
        let b: Vec<u32> = materialized.results.iter().map(|r| r.docid).collect();
        assert_eq!(a, b, "materialized scores must not change the ranking");
    }

    #[test]
    fn quantized_ranking_preserves_precision() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let idx_f = InvertedIndex::build(&c, &IndexConfig::materialized_f32());
        let idx_q = InvertedIndex::build(&c, &IndexConfig::materialized_q8());
        let ef = QueryEngine::new(&idx_f);
        let eq = QueryEngine::new(&idx_q);
        let mut pf = 0.0;
        let mut pq = 0.0;
        for q in &c.eval_queries {
            let rf: Vec<u32> = ef
                .search(&q.terms, SearchStrategy::Bm25Materialized, 20)
                .unwrap()
                .results
                .iter()
                .map(|r| r.docid)
                .collect();
            let rq: Vec<u32> = eq
                .search(&q.terms, SearchStrategy::Bm25Materialized, 20)
                .unwrap()
                .results
                .iter()
                .map(|r| r.docid)
                .collect();
            pf += precision_at_k(&rf, &q.relevant, 20);
            pq += precision_at_k(&rq, &q.relevant, 20);
        }
        // The paper: quantization to 8 bits loses no precision (Table 2
        // even shows a tiny gain). Allow a small tolerance.
        assert!(
            (pf - pq).abs() / c.eval_queries.len() as f64 <= 0.051,
            "p@20 float {pf} vs quantized {pq}"
        );
    }

    #[test]
    fn bm25_beats_boolean_on_planted_relevance() {
        // Needs a collection large enough that conjunctive result sets are
        // dominated by *non*-relevant documents (the tiny fixture's AND sets
        // are mostly the planted docs themselves, masking the gap that
        // Table 2 shows at TREC scale).
        let c = SyntheticCollection::generate(&CollectionConfig::small());
        let idx = InvertedIndex::build(&c, &IndexConfig::uncompressed());
        let engine = QueryEngine::new(&idx);
        let mut p_bool = 0.0;
        let mut p_bm25 = 0.0;
        for q in &c.eval_queries {
            let and: Vec<u32> = engine
                .search(&q.terms, SearchStrategy::BoolAnd, 20)
                .unwrap()
                .results
                .iter()
                .map(|r| r.docid)
                .collect();
            let bm: Vec<u32> = engine
                .search(&q.terms, SearchStrategy::Bm25, 20)
                .unwrap()
                .results
                .iter()
                .map(|r| r.docid)
                .collect();
            p_bool += precision_at_k(&and, &q.relevant, 20);
            p_bm25 += precision_at_k(&bm, &q.relevant, 20);
        }
        assert!(
            p_bm25 > p_bool * 2.0,
            "BM25 p@20 sum {p_bm25} should dominate boolean {p_bool}"
        );
    }

    #[test]
    fn unknown_terms_are_inert() {
        let (_, idx) = setup(IndexConfig::uncompressed());
        let engine = QueryEngine::new(&idx);
        let resp = engine.search(&[999_999], SearchStrategy::Bm25, 10).unwrap();
        assert!(resp.results.is_empty());
        // A string the vocabulary lacks resolves to no id, and a query left
        // with no ids is empty, not an error.
        assert_eq!(idx.term_id("no-such-term"), Ok(None));
        assert!(engine
            .search(&[], SearchStrategy::Bm25, 10)
            .unwrap()
            .results
            .is_empty());
    }

    #[test]
    fn single_term_query_works_everywhere() {
        let (c, idx) = setup(IndexConfig::uncompressed());
        let engine = QueryEngine::new(&idx);
        let t = pick_terms(&c, &idx)[0];
        for strat in [
            SearchStrategy::BoolAnd,
            SearchStrategy::BoolOr,
            SearchStrategy::Bm25,
            SearchStrategy::Bm25TwoPass,
        ] {
            let resp = engine.search(&[t], strat, 5).unwrap();
            assert!(!resp.results.is_empty(), "{strat:?}");
        }
    }

    #[test]
    fn materialized_strategy_requires_materialized_index() {
        let (_, idx) = setup(IndexConfig::compressed());
        let engine = QueryEngine::new(&idx);
        assert!(engine
            .search(&[1], SearchStrategy::Bm25Materialized, 5)
            .is_err());
    }

    #[test]
    fn io_accounting_cold_vs_hot() {
        let (c, idx) = setup(IndexConfig::compressed());
        let engine = QueryEngine::new(&idx);
        let terms = pick_terms(&c, &idx);
        let cold = engine.search(&terms, SearchStrategy::Bm25, 10).unwrap();
        let hot = engine.search(&terms, SearchStrategy::Bm25, 10).unwrap();
        assert!(cold.io.reads > 0, "first touch must hit the disk model");
        assert_eq!(hot.io.reads, 0, "hot repeat must be I/O-free");
        assert_eq!(cold.results, hot.results);
    }

    #[test]
    fn results_carry_names_and_order() {
        let (c, idx) = setup(IndexConfig::uncompressed());
        let engine = QueryEngine::new(&idx);
        let terms = pick_terms(&c, &idx);
        let resp = engine.search(&terms, SearchStrategy::Bm25, 10).unwrap();
        assert!(resp.results.windows(2).all(|w| w[0].score >= w[1].score));
        for r in &resp.results {
            assert_eq!(r.name, format!("doc-{:08}", r.docid));
        }
    }

    #[test]
    fn plan_text_mirrors_paper_shapes() {
        let (_, idx) = setup(IndexConfig::uncompressed());
        let engine = QueryEngine::new(&idx);
        let txt = engine.plan_text(&["information", "retrieval"], SearchStrategy::Bm25, 20);
        assert!(txt.contains("TopN"));
        assert!(txt.contains("MergeOuterJoin"));
        assert!(txt.contains("ScanSelect( TD=TD, TD.term=\"information\" )"));
        let txt = engine.plan_text(&["a", "b"], SearchStrategy::BoolAnd, 20);
        assert!(txt.starts_with("MergeJoin"));
        assert!(!txt.contains("TopN"));
        assert_eq!(engine.plan_text(&[], SearchStrategy::Bm25, 5), "Empty");
    }

    #[test]
    fn vector_size_does_not_change_results() {
        let (c, idx) = setup(IndexConfig::compressed());
        let terms = pick_terms(&c, &idx);
        let mut baseline: Option<Vec<SearchResult>> = None;
        for vs in [1usize, 7, 64, 1024, 100_000] {
            let engine = QueryEngine::new(&idx).with_vector_size(vs);
            let resp = engine.search(&terms, SearchStrategy::Bm25, 10).unwrap();
            match &baseline {
                None => baseline = Some(resp.results),
                Some(b) => assert_eq!(&resp.results, b, "vector size {vs}"),
            }
        }
    }

    #[test]
    fn wire_tags_roundtrip_and_reject_unknown_bytes() {
        for s in SearchStrategy::ALL {
            assert_eq!(SearchStrategy::from_wire_tag(s.wire_tag()), Some(s));
        }
        // Tags are dense from 0: every byte past the ladder is rejected.
        for tag in SearchStrategy::ALL.len() as u8..=u8::MAX {
            assert_eq!(SearchStrategy::from_wire_tag(tag), None);
        }
    }

    #[test]
    fn alias_tags_render_the_plan_they_run() {
        let (_, idx) = setup(IndexConfig::uncompressed());
        let engine = QueryEngine::new(&idx);
        let tag = |t| SearchStrategy::from_wire_tag(t).unwrap();
        for (alias, twin) in [(6, 2), (7, 4)] {
            assert!(tag(alias).is_pruned() && !tag(twin).is_pruned());
            assert_eq!(
                engine.plan_text(&["a", "b"], tag(alias), 10),
                engine.plan_text(&["a", "b"], tag(twin), 10)
            );
        }
    }

    #[test]
    fn relevant_sets_are_plausible() {
        // Sanity on the fixture itself: planted relevance is recoverable.
        let (c, idx) = setup(IndexConfig::uncompressed());
        let engine = QueryEngine::new(&idx);
        let q = &c.eval_queries[0];
        let top: Vec<u32> = engine
            .search(&q.terms, SearchStrategy::Bm25, 20)
            .unwrap()
            .results
            .iter()
            .map(|r| r.docid)
            .collect();
        let hits: HashSet<u32> = top.into_iter().collect();
        assert!(
            hits.intersection(&q.relevant).count() >= 1,
            "BM25 should surface at least one planted document"
        );
    }
}
