//! Skipping-based posting-list access.
//!
//! §2.1 motivates the entry points of the compressed block format with
//! inverted-list merging: "An entry point section holds for every 128 values
//! the offset to the next exception point ... This allows fine-granularity
//! access and skipping, which is especially useful during merging of
//! inverted-lists."
//!
//! The relational `MergeJoin` plan reads both posting lists in full. When
//! one list is much shorter than the other (a rare term ANDed with a common
//! one — precisely the queries the two-pass strategy sends down the
//! conjunctive path), most of the long list's decoded values are discarded.
//! [`PostingCursor`] is the standalone by-docid seekable cursor over one
//! list: galloping probe over entry-point-aligned windows, decoding only
//! the 128-value windows actually touched. The leapfrog *intersection* over
//! such cursors runs inside the scratch arena
//! ([`crate::QueryEngine::search_conjunctive_skipping`]); both stage
//! postings through the same `hot::Window`, so there is one copy of the
//! refill and block-pin accounting.

use std::ops::Range;

use x100_compress::ENTRY_POINT_STRIDE;
use x100_storage::{BufferManager, Column, StorageError};

use crate::hot::Window;
use crate::index::InvertedIndex;

/// A by-docid seekable cursor over one term's posting list.
///
/// Positions are relative to the term's TD range; decoding happens one
/// entry-point-aligned window at a time through the buffer manager, so
/// skipped windows are neither decompressed nor charged beyond their
/// block's residency.
pub struct PostingCursor<'a> {
    docids: &'a Column,
    buffers: &'a BufferManager,
    /// Absolute TD row range of this posting list.
    range: Range<usize>,
    /// Cursor position, absolute TD row.
    pos: usize,
    /// The staged docid window and the block it pins.
    window: Window,
}

impl<'a> PostingCursor<'a> {
    /// Opens a cursor over `term`'s posting list.
    pub fn new(index: &'a InvertedIndex, buffers: &'a BufferManager, term: u32) -> Self {
        let range = index.term_range(term);
        PostingCursor {
            docids: index
                .td()
                .column("docid")
                .expect("every index is built with a docid column"),
            buffers,
            pos: range.start,
            range,
            window: Window::default(),
        }
    }

    /// Number of postings in the list.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// Whether the cursor is past the end of the list.
    pub fn is_done(&self) -> bool {
        self.pos >= self.range.end
    }

    /// The docid at the current position.
    ///
    /// # Errors
    /// Propagates storage failures; `is_done()` must be false.
    pub fn current(&mut self) -> Result<u32, StorageError> {
        debug_assert!(!self.is_done());
        let pos = self.pos;
        self.docid_at(pos)
    }

    /// Docid at an absolute TD row, staging one stride per miss so a seek
    /// decodes only the windows its probes land in.
    fn docid_at(&mut self, pos: usize) -> Result<u32, StorageError> {
        self.window.value_at(self.docids, self.buffers, 1, pos)
    }

    /// Advances the cursor to the first posting with `docid >= target`,
    /// returning that docid (or `None` if the list is exhausted). Uses a
    /// galloping probe over window-aligned positions, then binary search
    /// inside the final window span — O(log distance) windows touched.
    pub fn seek_docid(&mut self, target: u32) -> Result<Option<u32>, StorageError> {
        if self.is_done() {
            return Ok(None);
        }
        if self.docid_at(self.pos)? >= target {
            return self.current().map(Some);
        }
        // Gallop: find a probe position whose docid is >= target. The
        // current stride is already staged and known to fall short, so the
        // first probe jumps a whole stride ahead.
        let mut step = ENTRY_POINT_STRIDE;
        let mut lo = self.pos; // docid_at(lo) < target
        let mut hi = loop {
            let probe = lo + step;
            if probe >= self.range.end {
                break self.range.end;
            }
            if self.docid_at(probe)? >= target {
                break probe;
            }
            lo = probe;
            step *= 2;
        };
        // Binary search in (lo, hi]: first position with docid >= target.
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if mid == self.range.end || self.docid_at(mid)? >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        self.pos = hi;
        if self.is_done() {
            Ok(None)
        } else {
            self.current().map(Some)
        }
    }

    /// Steps past the current posting.
    pub fn advance(&mut self) {
        self.pos += 1;
    }

    /// The current absolute TD row (to fetch aligned payload columns).
    pub fn td_row(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use x100_corpus::{CollectionConfig, SyntheticCollection};
    use x100_storage::{BufferMode, DiskModel};

    fn setup() -> (SyntheticCollection, InvertedIndex, BufferManager) {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let idx = InvertedIndex::build(&c, &IndexConfig::compressed());
        let bm = BufferManager::with_mode(DiskModel::instant(), BufferMode::Hot, 0);
        (c, idx, bm)
    }

    #[test]
    fn cursor_walks_whole_list_in_order() {
        let (_, idx, bm) = setup();
        let term = 10u32;
        let mut cur = PostingCursor::new(&idx, &bm, term);
        let mut seen = Vec::new();
        while !cur.is_done() {
            seen.push(cur.current().unwrap());
            cur.advance();
        }
        let docids = idx.td().column("docid").unwrap().read_all();
        let expect: Vec<u32> = docids[idx.term_range(term)].to_vec();
        assert_eq!(seen, expect);
    }

    #[test]
    fn seek_lands_on_first_geq() {
        let (_, idx, bm) = setup();
        let term = 10u32;
        let docids = idx.td().column("docid").unwrap().read_all();
        let list: Vec<u32> = docids[idx.term_range(term)].to_vec();
        assert!(list.len() > 4, "term 10 should be common in the fixture");
        for probe in [0u32, list[1], list[1] + 1, *list.last().unwrap(), u32::MAX] {
            let mut cur = PostingCursor::new(&idx, &bm, term);
            let got = cur.seek_docid(probe).unwrap();
            let expect = list.iter().copied().find(|&d| d >= probe);
            assert_eq!(got, expect, "probe {probe}");
        }
    }
}

#[cfg(test)]
mod engine_integration_tests {
    use crate::engine::{QueryEngine, SearchStrategy};
    use crate::hot::QueryScratch;
    use crate::index::{IndexConfig, InvertedIndex};
    use x100_corpus::{CollectionConfig, SyntheticCollection};

    /// The skipping conjunctive path must return exactly what the two-pass
    /// strategy's first (merge-join) pass returns whenever that pass fills
    /// the quota.
    #[test]
    fn skipping_path_matches_relational_first_pass() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let idx = InvertedIndex::build(&c, &IndexConfig::compressed());
        let engine = QueryEngine::new(&idx);
        let mut compared = 0;
        for q in &c.eval_queries {
            let relational = engine
                .search(&q.terms, SearchStrategy::Bm25TwoPass, 10)
                .unwrap();
            if relational.passes != 1 {
                continue; // fell through to the outer join; different set
            }
            let skipping = engine.search_conjunctive_skipping(&q.terms, 10).unwrap();
            let a: Vec<(u32, String)> = relational
                .results
                .iter()
                .map(|r| (r.docid, r.name.clone()))
                .collect();
            let b: Vec<(u32, String)> = skipping
                .results
                .iter()
                .map(|r| (r.docid, r.name.clone()))
                .collect();
            assert_eq!(a, b, "terms {:?}", q.terms);
            for (x, y) in relational.results.iter().zip(&skipping.results) {
                assert!(
                    (x.score - y.score).abs() < 1e-3,
                    "{} vs {}",
                    x.score,
                    y.score
                );
            }
            compared += 1;
        }
        assert!(
            compared > 0,
            "fixture must exercise at least one 1-pass query"
        );
    }

    /// A rare term ANDed with a common one: the galloping leapfrog must
    /// find the same documents as the full-scan conjunctive pass while
    /// decoding fewer posting strides.
    #[test]
    fn rare_common_skipping_decodes_fewer_strides_than_the_full_scan() {
        let c = SyntheticCollection::generate(&CollectionConfig::small());
        let idx = InvertedIndex::build(&c, &IndexConfig::compressed());
        let terms = 0..c.vocab.len() as u32;
        let common = terms.clone().max_by_key(|&t| idx.doc_freq(t)).unwrap();
        let rare = terms
            .filter(|&t| idx.doc_freq(t) >= 2)
            .min_by_key(|&t| idx.doc_freq(t))
            .unwrap();
        let engine = QueryEngine::new(&idx);
        let (mut skip, mut scan) = (QueryScratch::new(), QueryScratch::new());
        let (mut skipped, mut scanned) = (Vec::new(), Vec::new());
        engine
            .search_conjunctive_skipping_hits_into(&[rare, common], 1, &mut skip, &mut skipped)
            .unwrap();
        let full = engine
            .search_hits_into(
                &[rare, common],
                SearchStrategy::Bm25TwoPass,
                1,
                &mut scan,
                &mut scanned,
            )
            .unwrap();
        let docids = |hits: &[(u32, f32)]| hits.iter().map(|h| h.0).collect::<Vec<_>>();
        assert_eq!(
            full.passes, 1,
            "the fixture's rare term co-occurs with the common one"
        );
        assert_eq!(docids(&skipped), docids(&scanned));
        let (skip, scan) = (skip.hot_stats(), scan.hot_stats());
        assert!(
            skip.window_refills < scan.window_refills,
            "skipping decoded {} strides, the full scan {}",
            skip.window_refills,
            scan.window_refills
        );
    }

    #[test]
    fn skipping_path_handles_unknown_and_empty_queries() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let idx = InvertedIndex::build(&c, &IndexConfig::compressed());
        let engine = QueryEngine::new(&idx);
        assert!(engine
            .search_conjunctive_skipping(&[], 10)
            .unwrap()
            .results
            .is_empty());
        assert!(engine
            .search_conjunctive_skipping(&[9_999_999], 10)
            .unwrap()
            .results
            .is_empty());
    }
}
