//! Paged index metadata: the vocabulary and document table as 4 KiB
//! record pages served through the buffer pool, with small resident
//! directories derived from the pages.
//!
//! The index stores its variable-length metadata — the term strings and
//! the document names — as ordinary u32 [`Column`]s whose blocks are
//! self-framed **record pages**: [`PAGE_VALUES`] words each, one column
//! block per page, so the existing prefix-sum block directory,
//! `pread`-on-miss loading and buffer-pool eviction apply to strings
//! exactly as they do to posting columns. The columns are memory-backed
//! in a built index and disk-backed in a reopened one; the segment writes
//! them as they are. Every metadata column is Raw pages of
//! [`PAGE_VALUES`] values, so a lookup reads one block and views it in
//! place ([`PageView`]).
//!
//! A record column is its own directory: [`PageDir::scan`] reads its pages
//! once and derives the per-page record starts and, for the vocabulary,
//! the first term of every page. A build and a segment open both call it,
//! so nothing a reader can derive from the pages is stored beside them.
//!
//! # Page layout
//!
//! Every page is exactly [`PAGE_VALUES`] little-endian u32 words:
//!
//! ```text
//! word 0            record count n (≥ 1 for every written page)
//! words 1..=n       per-record end offsets into the data area, ascending
//! words n+1..       record bytes, packed 4 per word, zero padded
//! ```
//!
//! Record `j` spans data bytes `[end[j-1], end[j])` (with `end[-1] = 0`).
//! A vocabulary record is `[u32 term id][UTF-8 term]`, sorted
//! lexicographically across pages; a document-name record is the UTF-8
//! name, in docid order. A record that cannot fit a fresh page is a
//! [`SegmentError::TooLarge`] when the page is built, so the reader never
//! needs a record-spans-pages case.
//!
//! [`PageView::new`] is the one reader of a page's framing. It returns a
//! typed error, never panics, so a page that changes on disk after the
//! open checked it fails the lookup that reads it, not the worker.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use x100_compress::{Codec, CodecError, CompressedBlock, ENTRY_POINT_STRIDE};
use x100_storage::{Column, ColumnBuilder, SegmentError, StorageError};

use crate::segment::block_error;

/// Words (u32 values) per record page: 4 KiB, one column block per page.
pub(crate) const PAGE_VALUES: usize = 1024;

/// Bytes of embedded term id at the head of a vocabulary record.
pub(crate) const TERM_ID_BYTES: usize = 4;

const _: () = assert!(PAGE_VALUES.is_multiple_of(ENTRY_POINT_STRIDE));

/// A metadata page that breaks its framing, as the storage error a block
/// read returns.
fn corrupt(what: &'static str) -> StorageError {
    StorageError::Codec(CodecError::Corrupt(what))
}

/// Builds a records column page by page: records append into the current
/// page, which seals as a full [`PAGE_VALUES`]-word column block the moment
/// the next record would not fit.
#[derive(Debug)]
pub(crate) struct RecordPagesBuilder {
    builder: ColumnBuilder,
    /// Per-record end offsets of the open page's data area.
    ends: Vec<u32>,
    /// The open page's packed record bytes.
    bytes: Vec<u8>,
    too_large: &'static str,
}

impl RecordPagesBuilder {
    pub(crate) fn new(name: &str, too_large: &'static str) -> Self {
        RecordPagesBuilder {
            builder: ColumnBuilder::with_block_size(name, Codec::Raw, PAGE_VALUES),
            ends: Vec::new(),
            bytes: Vec::new(),
            too_large,
        }
    }

    fn fits(&self, extra: usize) -> bool {
        1 + (self.ends.len() + 1) + (self.bytes.len() + extra).div_ceil(4) <= PAGE_VALUES
    }

    /// Appends one record.
    pub(crate) fn push(&mut self, record: &[u8]) -> Result<(), SegmentError> {
        if !self.fits(record.len()) {
            if self.ends.is_empty() {
                return Err(SegmentError::TooLarge(self.too_large));
            }
            self.seal_page();
            if !self.fits(record.len()) {
                return Err(SegmentError::TooLarge(self.too_large));
            }
        }
        self.bytes.extend_from_slice(record);
        self.ends.push(self.bytes.len() as u32);
        Ok(())
    }

    fn seal_page(&mut self) {
        debug_assert!(!self.ends.is_empty(), "sealed an empty page");
        let n = self.ends.len();
        self.builder.push(n as u32);
        for &e in &self.ends {
            self.builder.push(e);
        }
        for chunk in self.bytes.chunks(4) {
            let mut w = [0u8; 4];
            w[..chunk.len()].copy_from_slice(chunk);
            self.builder.push(u32::from_le_bytes(w));
        }
        for _ in (1 + n + self.bytes.len().div_ceil(4))..PAGE_VALUES {
            self.builder.push(0);
        }
        self.ends.clear();
        self.bytes.clear();
    }

    /// Seals the open page (if any) and returns the finished column.
    pub(crate) fn finish(mut self) -> Column {
        if !self.ends.is_empty() {
            self.seal_page();
        }
        self.builder.finish()
    }
}

/// A structural view over one record page, in place in its Raw block: the
/// only reader of a page's record count and end offsets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageView<'a> {
    /// The per-record end offsets: ascending, the last inside `data`.
    ends: &'a [u32],
    /// The data area: the page's bytes after the count and the ends.
    data: &'a [u8],
}

impl<'a> PageView<'a> {
    /// Checks `page`'s framing: a Raw block of [`PAGE_VALUES`] values, a
    /// record count in `1..=PAGE_VALUES - 2`, and end offsets that each
    /// ascend and stay inside the data area. A fault is
    /// [`StorageError::Codec`], like any block that does not validate.
    pub(crate) fn new(page: &'a CompressedBlock) -> Result<Self, StorageError> {
        let words = raw_page(page)?;
        let (&count, rest) = words
            .split_first()
            .filter(|_| words.len() == PAGE_VALUES)
            .ok_or(corrupt("metadata page is not a raw page"))?;
        let count = count as usize;
        let ends = rest
            .get(..count)
            .filter(|_| count > 0 && count < PAGE_VALUES - 1)
            .ok_or(corrupt("record page count out of range"))?;
        // A Raw block's values are its image's little-endian bytes.
        let data = page
            .as_bytes()
            .get(page.sections().codes)
            .and_then(|bytes| bytes.get(4 * (1 + count)..))
            .ok_or(corrupt("metadata page is not a raw page"))?;
        let mut start = 0;
        for &end in ends {
            if end < start || end as usize > data.len() {
                return Err(corrupt("record page offsets out of order or past the page"));
            }
            start = end;
        }
        Ok(PageView { ends, data })
    }

    pub(crate) fn record_count(&self) -> usize {
        self.ends.len()
    }

    /// Record `j`'s bytes, or `None` past the page's last record.
    pub(crate) fn record(&self, j: usize) -> Option<&'a [u8]> {
        let start = match j.checked_sub(1) {
            Some(i) => *self.ends.get(i)?,
            None => 0,
        };
        self.data.get(start as usize..*self.ends.get(j)? as usize)
    }

    /// Every record's bytes, in page order.
    pub(crate) fn records(self) -> impl Iterator<Item = &'a [u8]> {
        (0..self.record_count()).map_while(move |j| self.record(j))
    }
}

/// The values of one metadata page, viewed in place; a block that is not
/// Raw is a typed error.
pub(crate) fn raw_page(block: &CompressedBlock) -> Result<&[u32], StorageError> {
    match block {
        CompressedBlock::Raw(page) => Ok(page.values()),
        _ => Err(corrupt("metadata page is not a raw page")),
    }
}

/// Checks that every block of a dense metadata column is a Raw page of
/// [`PAGE_VALUES`] values (the last may hold fewer), and, when
/// `ascending`, that the column's values never descend. A section's header
/// declares one codec but each block image carries its own, so a segment
/// open calls this: a PFOR block under a Raw header is a typed error
/// there. The offsets are checked `ascending` in the same pass: a
/// descending pair would read as an empty term, an overlapping one as
/// another term's postings.
pub(crate) fn check_raw_pages(col: &Column, ascending: bool) -> Result<(), SegmentError> {
    let mut last = 0;
    for idx in 0..col.block_count() {
        let block = col.fetch(idx).map_err(block_error)?;
        let expect = (col.len() - idx * PAGE_VALUES).min(PAGE_VALUES);
        let values = raw_page(&block)
            .ok()
            .filter(|values| values.len() == expect)
            .ok_or(SegmentError::Corrupt("metadata page is not a raw page"))?;
        if ascending {
            for &v in values {
                if v < last {
                    return Err(SegmentError::Corrupt("offsets do not ascend"));
                }
                last = v;
            }
        }
    }
    Ok(())
}

/// One value of a paged u32 column — an un-pooled read of the enclosing
/// page, indexed in place. Every index's `term_range()` comes through
/// here; the fused query path reads through the pinned windows in
/// `QueryScratch` instead.
pub(crate) fn col_value(col: &Column, idx: usize) -> Result<u32, StorageError> {
    let page = col.fetch(idx / PAGE_VALUES)?;
    raw_page(&page)?
        .get(idx % PAGE_VALUES)
        .copied()
        .ok_or(StorageError::OutOfBounds {
            position: idx,
            len: col.len(),
        })
}

/// Which record column a [`PageDir`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Records {
    /// The vocabulary: `[u32 term id][UTF-8 term]`, terms strictly
    /// ascending within and across pages.
    Terms,
    /// The document names: UTF-8, in docid order.
    Names,
}

/// The resident directory of a record column, derived from its pages by
/// [`PageDir::scan`].
#[derive(Debug)]
pub(crate) struct PageDir {
    /// Records before each page, then the record total: `pages + 1`
    /// prefix sums.
    pub(crate) starts: Vec<u32>,
    /// The first term of each page (the vocabulary's fence keys); empty
    /// for the names.
    pub(crate) keys: Vec<String>,
    /// UTF-8 bytes across every record's text (accounting only).
    pub(crate) text_bytes: u64,
}

impl PageDir {
    /// Reads every page of `col` once, through [`PageView`], and derives
    /// its directory. Checks the framing; that each record holds its id
    /// ([`TERM_ID_BYTES`] in the vocabulary, none in the names) and then
    /// UTF-8; that terms strictly ascend within and across pages, which
    /// [`lookup_term`] relies on to find every term; and that the pages
    /// hold `total` records, the declared term or document count.
    pub(crate) fn scan(col: &Column, records: Records, total: usize) -> Result<Self, SegmentError> {
        let mut dir = PageDir {
            starts: Vec::with_capacity(col.block_count() + 1),
            keys: Vec::new(),
            text_bytes: 0,
        };
        dir.starts.push(0);
        let (mut count, mut last_term) = (0, None::<String>);
        for idx in 0..col.block_count() {
            let block = col.fetch(idx).map_err(block_error)?;
            let view = PageView::new(&block).map_err(block_error)?;
            let mut prev = last_term.as_deref();
            for (j, record) in view.records().enumerate() {
                let text = match records {
                    Records::Terms => record.split_first_chunk::<TERM_ID_BYTES>().map(|(_, t)| t),
                    Records::Names => Some(record),
                };
                let text = text
                    .and_then(|t| std::str::from_utf8(t).ok())
                    .ok_or(SegmentError::Corrupt("record is not UTF-8"))?;
                if records == Records::Terms {
                    if prev.is_some_and(|p| p >= text) {
                        return Err(SegmentError::Corrupt(
                            "vocabulary terms not strictly ascending",
                        ));
                    }
                    if j == 0 {
                        dir.keys.push(text.to_owned());
                    }
                    prev = Some(text);
                }
                dir.text_bytes += text.len() as u64;
            }
            last_term = prev.map(str::to_owned);
            count += view.record_count();
            let start = u32::try_from(count).ok().filter(|_| count <= total).ok_or(
                SegmentError::Corrupt("record pages disagree with the declared count"),
            )?;
            dir.starts.push(start);
        }
        if count != total {
            return Err(SegmentError::Corrupt(
                "record pages disagree with the declared count",
            ));
        }
        Ok(dir)
    }

    /// Bytes the directory holds resident.
    pub(crate) fn resident_bytes(&self) -> usize {
        let keys = self
            .keys
            .iter()
            .map(|k| k.len() + std::mem::size_of::<String>());
        keys.sum::<usize>() + self.starts.len() * 4
    }
}

/// Builds the sorted, paged vocabulary column: records are
/// `[u32 term id][UTF-8 term]`, sorted lexicographically by the caller;
/// [`PageDir::scan`] checks the order.
///
/// # Errors
/// A term whose record exceeds a page is [`SegmentError::TooLarge`].
pub(crate) fn build_term_pages<'a>(
    sorted: impl Iterator<Item = (&'a str, u32)>,
) -> Result<Column, SegmentError> {
    let mut pages = RecordPagesBuilder::new("terms", "term record exceeds a vocabulary page");
    let mut rec = Vec::new();
    for (s, id) in sorted {
        rec.clear();
        rec.extend_from_slice(&id.to_le_bytes());
        rec.extend_from_slice(s.as_bytes());
        pages.push(&rec)?;
    }
    Ok(pages.finish())
}

/// Binary-searches the paged vocabulary: the directory's first keys
/// select the one page that can hold `term`, then a binary search over
/// that page's records finds it; the record's embedded id is the answer.
/// Cold path — reads one page per call.
pub(crate) fn lookup_term(
    terms: &Column,
    dir: &PageDir,
    term: &str,
) -> Result<Option<u32>, StorageError> {
    let p = dir.keys.partition_point(|k| k.as_str() <= term);
    let Some(p) = p.checked_sub(1) else {
        return Ok(None);
    };
    let page = terms.fetch(p)?;
    let view = PageView::new(&page)?;
    let (mut lo, mut hi) = (0usize, view.record_count());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let (id, text) = view
            .record(mid)
            .and_then(|rec| rec.split_first_chunk::<TERM_ID_BYTES>())
            .ok_or(corrupt("vocabulary record is shorter than its id"))?;
        match text.cmp(term.as_bytes()) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(Some(u32::from_le_bytes(*id))),
        }
    }
    Ok(None)
}

/// Fetches one document name from the paged name column. Cold path —
/// reads one page per call.
pub(crate) fn lookup_name(
    names: &Column,
    dir: &PageDir,
    docid: u32,
) -> Result<Option<String>, StorageError> {
    // `starts` ascends from 0, so a docid below the total has a page.
    let p = dir.starts.partition_point(|&s| s <= docid);
    if p == dir.starts.len() {
        return Ok(None);
    }
    let first = dir.starts[p - 1];
    let page = names.fetch(p - 1)?;
    let record = PageView::new(&page)?
        .record((docid - first) as usize)
        .ok_or(corrupt("record page count disagrees with its directory"))?;
    let name = std::str::from_utf8(record).map_err(|_| corrupt("record is not UTF-8"))?;
    Ok(Some(name.to_owned()))
}

/// Everything an index keeps of its metadata: four columns — memory-backed
/// when built in this process, disk-backed when reopened from a segment —
/// plus the two small directories derived from the record columns. A
/// term's document frequency is not among them: it is the length of the
/// term's offset range.
#[derive(Debug)]
pub(crate) struct PagedMetadata {
    pub(crate) terms: Column,
    pub(crate) terms_dir: PageDir,
    pub(crate) names: Column,
    pub(crate) names_dir: PageDir,
    pub(crate) doc_lens: Column,
    pub(crate) offsets: Column,
    pub(crate) num_terms: usize,
    pub(crate) num_postings: usize,
    /// Fully materialized doc lens, built lazily for the relational
    /// (oracle) paths that need a dense slice. The fused serving path never
    /// touches this.
    pub(crate) lens_cache: OnceLock<Arc<Vec<i32>>>,
}

impl PagedMetadata {
    pub(crate) fn term_id(&self, term: &str) -> Result<Option<u32>, StorageError> {
        lookup_term(&self.terms, &self.terms_dir, term)
    }

    pub(crate) fn doc_name(&self, docid: u32) -> Result<Option<String>, StorageError> {
        lookup_name(&self.names, &self.names_dir, docid)
    }

    /// A term's TD row range, un-pooled: the oracle's reader of the
    /// offset column.
    pub(crate) fn term_range(&self, term: u32) -> Result<Range<usize>, StorageError> {
        self.range_of(term, |i| col_value(&self.offsets, i))
    }
    /// The term-range rule, over the offsets `offset(i)` some reader
    /// supplies: an unknown term's range is empty, `end` is clamped to the
    /// posting count, and a descending pair (which a valid segment cannot
    /// hold) is empty.
    pub(crate) fn range_of<E>(
        &self,
        term: u32,
        mut offset: impl FnMut(usize) -> Result<u32, E>,
    ) -> Result<Range<usize>, E> {
        let t = term as usize;
        if t >= self.num_terms {
            return Ok(0..0);
        }
        let start = offset(t)? as usize;
        let end = (offset(t + 1)? as usize).min(self.num_postings);
        Ok(if start > end { 0..0 } else { start..end })
    }

    pub(crate) fn num_docs(&self) -> usize {
        self.doc_lens.len()
    }

    pub(crate) fn materialized_lens(&self) -> &Arc<Vec<i32>> {
        self.lens_cache.get_or_init(|| {
            Arc::new(
                self.doc_lens
                    .read_all()
                    .into_iter()
                    .map(|v| v as i32)
                    .collect(),
            )
        })
    }

    /// Bytes of metadata held outside the columns: the two derived page
    /// directories.
    pub(crate) fn resident_meta_bytes(&self) -> usize {
        self.terms_dir.resident_bytes() + self.names_dir.resident_bytes()
    }

    /// Bytes the version-1 fully materialized open held resident for the
    /// same metadata: owned vocabulary strings, the document-name column,
    /// and the dense doc-len / doc-freq / offset arrays.
    pub(crate) fn full_materialized_bytes(&self) -> usize {
        let num_docs = self.num_docs();
        let vocab =
            self.terms_dir.text_bytes as usize + self.num_terms * std::mem::size_of::<String>();
        let names = self.names_dir.text_bytes as usize + num_docs * 8;
        vocab + names + num_docs * 4 + self.num_terms * 4 + (self.num_terms + 1) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn name_pages(names: &[String]) -> (Column, PageDir) {
        let mut b = RecordPagesBuilder::new("doc_names", "document name exceeds a page");
        for n in names {
            b.push(n.as_bytes()).unwrap();
        }
        let col = b.finish();
        let dir = PageDir::scan(&col, Records::Names, names.len()).unwrap();
        (col, dir)
    }

    /// The vocabulary pages of `terms`, in the given order, and their
    /// directory.
    fn vocab_pages<'a>(
        terms: impl ExactSizeIterator<Item = (&'a str, u32)>,
    ) -> Result<(Column, PageDir), SegmentError> {
        let total = terms.len();
        let col = build_term_pages(terms)?;
        let dir = PageDir::scan(&col, Records::Terms, total)?;
        Ok((col, dir))
    }

    fn paged_vocab(terms: &[(String, u32)]) -> (Column, PageDir) {
        vocab_pages(terms.iter().map(|(s, id)| (s.as_str(), *id))).unwrap()
    }

    /// A vocabulary large enough to span several pages, with ids assigned
    /// in a deliberately non-sorted order.
    fn multi_page_vocab() -> Vec<(String, u32)> {
        let mut terms: Vec<String> = (0..700)
            .map(|i| format!("term-{i:04}-{}", "x".repeat(i % 37)))
            .collect();
        terms.sort();
        terms
            .into_iter()
            .enumerate()
            .map(|(i, s)| (s, (i as u32).wrapping_mul(2654435761) % 100_000))
            .collect()
    }

    #[test]
    fn unsorted_or_duplicate_terms_do_not_build() {
        // Second and third swapped: the check compares each term with the
        // one before it, not with a page's first key.
        let unsorted = [("a", 0), ("c", 1), ("b", 2), ("d", 3)];
        let duplicate = [("a", 0), ("b", 1), ("b", 2)];
        for vocab in [&unsorted[..], &duplicate[..]] {
            assert_eq!(
                vocab_pages(vocab.iter().copied()).err(),
                Some(SegmentError::Corrupt(
                    "vocabulary terms not strictly ascending"
                ))
            );
        }
        assert!(vocab_pages(duplicate[..2].iter().copied()).is_ok());
        // Across a page boundary: equal-length terms page identically
        // whatever their order, and page 1's first term swapped with page
        // 0's last keeps each page ascending on its own.
        let mut vocab: Vec<(String, u32)> = (0..2000).map(|i| (format!("t{i:06}"), i)).collect();
        let (_, dir) = paged_vocab(&vocab);
        let boundary = dir.starts[1] as usize;
        vocab.swap(boundary - 1, boundary);
        let records = vocab.iter().map(|(s, id)| (s.as_str(), *id));
        assert_eq!(
            vocab_pages(records).err(),
            Some(SegmentError::Corrupt(
                "vocabulary terms not strictly ascending"
            ))
        );
    }

    #[test]
    fn record_pages_roundtrip_including_empty_records() {
        let mut b = RecordPagesBuilder::new("r", "too big");
        let records: Vec<Vec<u8>> = (0..300).map(|i| vec![i as u8; i % 97]).collect();
        for r in &records {
            b.push(r).unwrap();
        }
        let col = b.finish();
        assert_eq!(col.len(), col.block_count() * PAGE_VALUES);
        check_raw_pages(&col, false).unwrap();
        // Framed well, but these records are bytes, not names.
        assert_eq!(
            PageDir::scan(&col, Records::Names, records.len()).err(),
            Some(SegmentError::Corrupt("record is not UTF-8"))
        );
        let mut i = 0;
        for page in 0..col.block_count() {
            let block = col.block(page);
            for record in PageView::new(&block).unwrap().records() {
                assert_eq!(record, records[i], "record {i}");
                i += 1;
            }
        }
        assert_eq!(i, 300);
    }

    #[test]
    fn oversized_record_is_too_large() {
        let mut b = RecordPagesBuilder::new("r", "record too big for a page");
        b.push(&[1, 2, 3]).unwrap();
        let big = vec![0u8; PAGE_VALUES * 4];
        assert!(matches!(
            b.push(&big),
            Err(SegmentError::TooLarge("record too big for a page"))
        ));
    }

    /// Every framing fault is a typed error from [`PageView::new`], checked
    /// at every end offset, not only the last: a middle end below the one
    /// before would otherwise slice backwards in [`PageView::record`].
    #[test]
    fn page_view_rejects_every_framing_fault() {
        let mut b = RecordPagesBuilder::new("r", "too big");
        for r in ["alpha", "beta", "gamma", "delta"] {
            b.push(r.as_bytes()).unwrap();
        }
        let good = b.finish().read_all();
        let page = |values: &[u32], codec| {
            let mut b = ColumnBuilder::with_block_size("r", codec, PAGE_VALUES);
            b.extend(values);
            b.finish().block(0)
        };
        let block = page(&good, Codec::Raw);
        let view = PageView::new(&block).unwrap();
        assert_eq!(view.record(1), Some(&b"beta"[..]));
        assert_eq!(view.record(4), None);
        let mutant = |at: usize, v: u32| {
            let mut values = good.clone();
            values[at] = v;
            values
        };
        let cases: [(Vec<u32>, Codec, &str); 7] = [
            (
                good.clone(),
                Codec::Pfor { width: 0 },
                "metadata page is not a raw page",
            ),
            (
                good[..PAGE_VALUES / 2].to_vec(),
                Codec::Raw,
                "metadata page is not a raw page",
            ),
            (mutant(0, 0), Codec::Raw, "record page count out of range"),
            (
                mutant(0, PAGE_VALUES as u32 - 1),
                Codec::Raw,
                "record page count out of range",
            ),
            (
                mutant(0, u32::MAX),
                Codec::Raw,
                "record page count out of range",
            ),
            (
                mutant(2, 1),
                Codec::Raw,
                "record page offsets out of order or past the page",
            ),
            (
                mutant(4, 1 << 20),
                Codec::Raw,
                "record page offsets out of order or past the page",
            ),
        ];
        for (values, codec, what) in cases {
            let block = page(&values, codec);
            assert_eq!(PageView::new(&block).err(), Some(corrupt(what)), "{what}");
        }
    }

    #[test]
    fn boundary_terms_of_every_page_resolve() {
        let vocab = multi_page_vocab();
        let (col, dir) = paged_vocab(&vocab);
        assert!(dir.keys.len() > 1, "fixture must span pages");
        assert_eq!(dir.starts.len(), dir.keys.len() + 1);
        assert_eq!(
            dir.text_bytes,
            vocab.iter().map(|(s, _)| s.len() as u64).sum::<u64>()
        );
        // First and last record of every page, located via the starts.
        for (p, w) in dir.starts.windows(2).enumerate() {
            assert_eq!(dir.keys[p], vocab[w[0] as usize].0, "page {p}");
            for at in [w[0], w[1] - 1] {
                let (s, id) = &vocab[at as usize];
                assert_eq!(
                    lookup_term(&col, &dir, s),
                    Ok(Some(*id)),
                    "page {p} term {at}"
                );
            }
        }
    }

    #[test]
    fn absent_terms_between_fence_keys_miss() {
        let vocab = multi_page_vocab();
        let (col, dir) = paged_vocab(&vocab);
        // Probes lexicographically adjacent to real terms, before the first
        // key and after the last — all absent.
        assert_eq!(lookup_term(&col, &dir, ""), Ok(None));
        assert_eq!(lookup_term(&col, &dir, "term-"), Ok(None));
        assert_eq!(lookup_term(&col, &dir, "zzzz"), Ok(None));
        for key in &dir.keys {
            let just_after = format!("{key}\u{1}");
            assert_eq!(
                lookup_term(&col, &dir, &just_after),
                Ok(None),
                "{just_after}"
            );
            let mut just_before = key.clone();
            just_before.pop();
            if !vocab.iter().any(|(s, _)| *s == just_before) {
                assert_eq!(lookup_term(&col, &dir, &just_before), Ok(None));
            }
        }
    }

    #[test]
    fn single_term_and_empty_vocabularies() {
        let (col, dir) = paged_vocab(&[("only".to_owned(), 7)]);
        assert_eq!(lookup_term(&col, &dir, "only"), Ok(Some(7)));
        assert_eq!(lookup_term(&col, &dir, "onl"), Ok(None));
        assert_eq!(lookup_term(&col, &dir, "onlyy"), Ok(None));
        let (col, dir) = paged_vocab(&[]);
        assert!(col.is_empty());
        assert_eq!(dir.starts, [0]);
        assert_eq!(lookup_term(&col, &dir, "anything"), Ok(None));
    }

    #[test]
    fn name_pages_resolve_every_docid_and_reject_out_of_range() {
        let names: Vec<String> = (0..2500).map(|i| format!("doc-{i:08}")).collect();
        let (col, dir) = name_pages(&names);
        assert!(dir.starts.len() > 2, "fixture must span pages");
        assert!(dir.keys.is_empty());
        for d in [0u32, 1, 137, 2499] {
            assert_eq!(
                lookup_name(&col, &dir, d),
                Ok(Some(names[d as usize].clone()))
            );
        }
        assert_eq!(lookup_name(&col, &dir, 2500), Ok(None));
        assert_eq!(lookup_name(&col, &dir, u32::MAX), Ok(None));
        // The pages hold a different count than the index declares.
        for total in [names.len() - 1, names.len() + 1] {
            assert_eq!(
                PageDir::scan(&col, Records::Names, total).err(),
                Some(SegmentError::Corrupt(
                    "record pages disagree with the declared count"
                ))
            );
        }
    }

    proptest! {
        /// Differential pin: paged lookup over arbitrary sorted unique
        /// vocabularies answers exactly like the old materialized
        /// `Vec<String>` binary search, for present and absent probes.
        #[test]
        fn paged_lookup_matches_materialized_binary_search(
            raw in prop::collection::vec(0u32..1_000_000, 0..200),
            probe_seeds in prop::collection::vec(0u32..1_200_000, 0..40),
        ) {
            // The shim has no string strategies, so derive strings of
            // varying length from integer seeds.
            let word = |seed: u32| {
                let mut s = String::new();
                let mut v = seed;
                for _ in 0..(seed % 13) {
                    s.push(char::from(b'a' + (v % 26) as u8));
                    v = v.wrapping_mul(2654435761).wrapping_add(1) >> 3;
                }
                s
            };
            let mut sorted: Vec<String> = raw.iter().map(|&s| word(s)).collect();
            sorted.sort();
            sorted.dedup();
            let probes: Vec<String> = probe_seeds.iter().map(|&s| word(s)).collect();
            let ids: Vec<u32> = (0..sorted.len() as u32).map(|i| i.wrapping_mul(97) ^ 5).collect();
            let (col, dir) = vocab_pages(
                sorted.iter().zip(&ids).map(|(s, &id)| (s.as_str(), id)),
            ).unwrap();
            for probe in probes.iter().chain(sorted.iter()) {
                let expect = sorted
                    .binary_search_by(|s| s.as_str().cmp(probe))
                    .ok()
                    .map(|i| ids[i]);
                prop_assert_eq!(lookup_term(&col, &dir, probe), Ok(expect), "{}", probe);
            }
        }
    }
}
