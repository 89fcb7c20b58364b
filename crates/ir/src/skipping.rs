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
//! [`PostingCursor`] is the by-docid seekable cursor over one list:
//! galloping probe over entry-point-aligned windows, decoding only the
//! 128-value windows actually touched. No served path uses it: the fused
//! hot path's conjunctive pass walks its lists as the merge-join does, and
//! a gallop in its place did not decode fewer strides across the query
//! logs measured (the "walk vs gallop" row of `docs/ARCHITECTURE.md`'s
//! fork table). It stages docids through the same `hot::Window` as the hot
//! path, so there is one copy of the refill and block-pin accounting.

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
    use crate::engine::{QueryEngine, SearchStrategy};
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

    /// §2.1's skipping property: a rare term leapfrogged over a common one
    /// finds exactly the documents the conjunctive pass finds, while the
    /// common list's window decodes fewer strides than a posting walk to
    /// the same position would.
    #[test]
    fn rare_common_skipping_decodes_fewer_strides_than_the_full_scan() {
        let c = SyntheticCollection::generate(&CollectionConfig::small());
        let idx = InvertedIndex::build(&c, &IndexConfig::compressed());
        let bm = BufferManager::with_mode(DiskModel::instant(), BufferMode::Hot, 0);
        let terms = 0..c.vocab.len() as u32;
        let common = terms.clone().max_by_key(|&t| idx.doc_freq(t)).unwrap();
        let rare = terms
            .filter(|&t| idx.doc_freq(t) >= 2)
            .min_by_key(|&t| idx.doc_freq(t))
            .unwrap();
        let mut rare_cur = PostingCursor::new(&idx, &bm, rare);
        let mut common_cur = PostingCursor::new(&idx, &bm, common);
        let mut both = Vec::new();
        while !rare_cur.is_done() {
            let d = rare_cur.current().unwrap();
            match common_cur.seek_docid(d).unwrap() {
                None => break,
                Some(hit) if hit == d => both.push(d),
                Some(_) => {}
            }
            rare_cur.advance();
        }
        assert!(
            !both.is_empty(),
            "the fixture's rare term co-occurs with the common one"
        );

        // With `n` = the intersection's size the first pass fills the
        // quota, so the two-pass strategy stops after it.
        let full = QueryEngine::new(&idx)
            .search(&[rare, common], SearchStrategy::Bm25TwoPass, both.len())
            .unwrap();
        assert_eq!(full.passes, 1);
        let mut scanned: Vec<u32> = full.results.iter().map(|r| r.docid).collect();
        scanned.sort_unstable();
        assert_eq!(both, scanned);

        // A walk to the cursor's final position decodes every stride from
        // the list's first to that position's (the whole list once the
        // cursor is exhausted).
        let s = ENTRY_POINT_STRIDE;
        let walked =
            common_cur.td_row().min(common_cur.range.end - 1) / s - common_cur.range.start / s + 1;
        assert!(
            common_cur.window.refills < walked as u64,
            "seeking decoded {} strides, a walk {walked}",
            common_cur.window.refills
        );
    }
}
