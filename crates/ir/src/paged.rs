//! Paged index metadata: the vocabulary and document table as 4 KiB
//! record pages served through the buffer pool, with small resident
//! directories.
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
//! place ([`raw_page`]). Beside them an index keeps only the per-page
//! directories defined here — [`TermFences`] (the lexicographically first
//! term of every vocabulary page) and [`NamesDir`] (the first docid of
//! every name page) — which is what makes a segment open O(block
//! directory) instead of O(collection).
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

use std::convert::Infallible;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use x100_compress::{Codec, CompressedBlock, ENTRY_POINT_STRIDE};
use x100_storage::{Column, ColumnBuilder, SegmentError};

use crate::segment::block_error;

/// Words (u32 values) per record page: 4 KiB, one column block per page.
pub(crate) const PAGE_VALUES: usize = 1024;

/// Bytes of embedded term id at the head of a vocabulary record.
pub(crate) const TERM_ID_BYTES: usize = 4;

const _: () = assert!(PAGE_VALUES.is_multiple_of(ENTRY_POINT_STRIDE));

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
    /// Records per sealed page.
    counts: Vec<u32>,
    total_bytes: u64,
    too_large: &'static str,
}

impl RecordPagesBuilder {
    pub(crate) fn new(name: &str, too_large: &'static str) -> Self {
        RecordPagesBuilder {
            builder: ColumnBuilder::with_block_size(name, Codec::Raw, PAGE_VALUES),
            ends: Vec::new(),
            bytes: Vec::new(),
            counts: Vec::new(),
            total_bytes: 0,
            too_large,
        }
    }

    fn fits(&self, extra: usize) -> bool {
        1 + (self.ends.len() + 1) + (self.bytes.len() + extra).div_ceil(4) <= PAGE_VALUES
    }

    /// Appends one record. Returns `true` when the record opened a new page
    /// (callers use this to collect per-page directory entries).
    pub(crate) fn push(&mut self, record: &[u8]) -> Result<bool, SegmentError> {
        if !self.fits(record.len()) {
            if self.ends.is_empty() {
                return Err(SegmentError::TooLarge(self.too_large));
            }
            self.seal_page();
            if !self.fits(record.len()) {
                return Err(SegmentError::TooLarge(self.too_large));
            }
        }
        let first_of_page = self.ends.is_empty();
        self.bytes.extend_from_slice(record);
        self.ends.push(self.bytes.len() as u32);
        self.total_bytes += record.len() as u64;
        Ok(first_of_page)
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
        self.counts.push(n as u32);
        self.ends.clear();
        self.bytes.clear();
    }

    /// Seals the open page (if any) and returns the finished column, the
    /// per-page record counts, and the total record bytes written.
    pub(crate) fn finish(mut self) -> (Column, Vec<u32>, u64) {
        if !self.ends.is_empty() {
            self.seal_page();
        }
        (self.builder.finish(), self.counts, self.total_bytes)
    }
}

/// A structural view over one record page, in place in its Raw block.
///
/// Construction panics on malformed pages, and so does [`Self::record`]:
/// a built index writes only well-formed pages, and a segment open rejects
/// any page of a reopened one that breaks the framing
/// ([`check_record_pages`]), so a failed assert here is a writer bug,
/// never bad input.
pub(crate) struct PageView<'a> {
    /// The record count, then the per-record end offsets.
    words: &'a [u32],
    /// The data area: the page's bytes after `words`.
    data: &'a [u8],
}

impl<'a> PageView<'a> {
    pub(crate) fn new(page: &'a CompressedBlock) -> Self {
        let words = raw_page(page);
        assert_eq!(words.len(), PAGE_VALUES, "record page has the wrong extent");
        let count = words[0] as usize;
        assert!(
            (1..=PAGE_VALUES - 2).contains(&count),
            "record page count out of range"
        );
        let total = words[count] as usize;
        assert!(
            1 + count + total.div_ceil(4) <= PAGE_VALUES,
            "record page overflows its extent"
        );
        // A Raw block's values are its image's little-endian bytes.
        let bytes = &page.as_bytes()[page.sections().codes];
        PageView {
            words: &words[..=count],
            data: &bytes[4 * (1 + count)..],
        }
    }

    pub(crate) fn record_count(&self) -> usize {
        self.words.len() - 1
    }

    /// Record `j`'s bytes.
    pub(crate) fn record(&self, j: usize) -> &'a [u8] {
        assert!(j < self.record_count(), "record index out of range");
        let start = if j == 0 { 0 } else { self.words[j] as usize };
        &self.data[start..self.words[j + 1] as usize]
    }
}

/// The values of one metadata page, viewed in place.
///
/// # Panics
/// Panics if the block is not Raw: a built index writes only Raw pages
/// and a segment open rejects any other block ([`check_raw_pages`]).
pub(crate) fn raw_page(block: &CompressedBlock) -> &[u32] {
    match block {
        CompressedBlock::Raw(page) => page.values(),
        other => panic!("metadata page is not raw: {other:?}"),
    }
}

/// Checks that every block of a metadata column is a Raw page of
/// [`PAGE_VALUES`] values (the last may hold fewer), and, when
/// `ascending`, that the column's values never descend. A section's header
/// declares one codec but each block image carries its own, so a segment
/// open calls this: a PFOR block under a Raw header is a typed error
/// there, never a panic in [`raw_page`] later. The offsets are checked
/// `ascending` in the same pass: a descending pair would read as an empty
/// term, an overlapping one as another term's postings.
pub(crate) fn check_raw_pages(col: &Column, ascending: bool) -> Result<(), SegmentError> {
    let mut last = 0;
    for idx in 0..col.block_count() {
        let block = col.fetch(idx).map_err(block_error)?;
        let expect = (col.len() - idx * PAGE_VALUES).min(PAGE_VALUES);
        let values = match &*block {
            CompressedBlock::Raw(page) if page.values().len() == expect => page.values(),
            _ => return Err(SegmentError::Corrupt("metadata page is not a raw page")),
        };
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

/// Checks every page of a record column (the vocabulary, given its
/// `fence_keys`, or the document names, `None`) against the framing that
/// [`PageView`] asserts, so no lookup can panic on a segment's pages: each
/// is a Raw page of [`PAGE_VALUES`] values; its record count is in
/// `1..=PAGE_VALUES - 2` and is the count its resident directory gives
/// (`counts`, one per page); its end offsets ascend and stay inside the
/// page; each record holds its id ([`TERM_ID_BYTES`] in the vocabulary,
/// none in the names) and then UTF-8. On the vocabulary it also checks
/// what [`lookup_term`] relies on to find every term: each page's first
/// term is its fence key, and terms strictly ascend within the page and
/// stay below the next page's key.
pub(crate) fn check_record_pages(
    col: &Column,
    counts: impl ExactSizeIterator<Item = u32>,
    fence_keys: Option<&[String]>,
) -> Result<(), SegmentError> {
    let corrupt = |what| Err(SegmentError::Corrupt(what));
    let id_bytes = fence_keys.map_or(0, |_| TERM_ID_BYTES);
    let key = |p: usize| Some(fence_keys?.get(p)?.as_bytes());
    if counts.len() != col.block_count() {
        return corrupt("record pages disagree with their directory");
    }
    for (idx, count) in counts.enumerate() {
        let block = col.fetch(idx).map_err(block_error)?;
        let words = match &*block {
            CompressedBlock::Raw(page) if page.values().len() == PAGE_VALUES => page.values(),
            _ => return corrupt("metadata page is not a raw page"),
        };
        let n = words[0] as usize;
        if !(1..=PAGE_VALUES - 2).contains(&n) {
            return corrupt("record page count out of range");
        }
        if n != count as usize {
            return corrupt("record page count disagrees with its directory");
        }
        let data = &block.as_bytes()[block.sections().codes][4 * (1 + n)..];
        let (mut start, mut prev) = (0, None);
        for (i, &end) in words[1..=n].iter().enumerate() {
            let end = end as usize;
            if end < start || end > data.len() {
                return corrupt("record page offsets out of order or past the page");
            }
            let record = &data[start..end];
            if record.len() < id_bytes || std::str::from_utf8(&record[id_bytes..]).is_err() {
                return corrupt("record is not UTF-8");
            }
            let text = &record[id_bytes..];
            if fence_keys.is_some() {
                if i == 0 && key(idx) != Some(text) {
                    return corrupt("vocabulary page disagrees with its fence key");
                }
                if prev.is_some_and(|prev| prev >= text) {
                    return corrupt("vocabulary terms not strictly ascending");
                }
            }
            (start, prev) = (end, Some(text));
        }
        // The page's last term sorts below the next page's fence key.
        if let (Some(last), Some(next)) = (prev, key(idx + 1)) {
            if last >= next {
                return corrupt("vocabulary terms not strictly ascending");
            }
        }
    }
    Ok(())
}

/// One value of a paged u32 column — an un-pooled read of the enclosing
/// page, indexed in place. Every index's `term_range()` comes through
/// here; the fused query path reads through the pinned windows in
/// `QueryScratch` instead.
pub(crate) fn col_value(col: &Column, idx: usize) -> u32 {
    raw_page(&col.block(idx / PAGE_VALUES))[idx % PAGE_VALUES]
}

/// The resident fence-key index over the paged vocabulary: the
/// lexicographically first term and the record count of every page.
#[derive(Debug)]
pub(crate) struct TermFences {
    /// Total UTF-8 bytes across all term strings (accounting only).
    pub(crate) total_bytes: u64,
    /// First (lexicographically lowest) term of each page, ascending.
    pub(crate) first_keys: Vec<String>,
    /// Records per page, aligned with `first_keys`.
    pub(crate) counts: Vec<u32>,
}

impl TermFences {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.total_bytes.to_le_bytes());
        out.extend_from_slice(&(self.first_keys.len() as u32).to_le_bytes());
        for (key, &count) in self.first_keys.iter().zip(&self.counts) {
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key.as_bytes());
        }
        out
    }

    /// Decodes and cross-validates the fences against the vocabulary page
    /// count and the declared term count.
    pub(crate) fn decode(
        bytes: &[u8],
        num_terms: usize,
        pages: usize,
    ) -> Result<Self, SegmentError> {
        if bytes.len() < 12 {
            return Err(SegmentError::Corrupt("term fences truncated"));
        }
        let total_bytes = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let page_count = usize::try_from(u32::from_le_bytes(bytes[8..12].try_into().unwrap()))
            .map_err(|_| SegmentError::Corrupt("fence page count out of range"))?;
        if page_count != pages {
            return Err(SegmentError::Corrupt(
                "fence count disagrees with vocabulary pages",
            ));
        }
        let mut rest = &bytes[12..];
        let mut first_keys = Vec::with_capacity(page_count.min(rest.len() / 8 + 1));
        let mut counts = Vec::with_capacity(page_count.min(rest.len() / 8 + 1));
        let mut records = 0u64;
        for _ in 0..page_count {
            if rest.len() < 8 {
                return Err(SegmentError::Corrupt("term fences truncated"));
            }
            let count = u32::from_le_bytes(rest[0..4].try_into().unwrap());
            if count == 0 {
                return Err(SegmentError::Corrupt("empty vocabulary page"));
            }
            let key_len = u32::from_le_bytes(rest[4..8].try_into().unwrap()) as usize;
            rest = &rest[8..];
            if rest.len() < key_len {
                return Err(SegmentError::Corrupt("term fences truncated"));
            }
            let key = std::str::from_utf8(&rest[..key_len])
                .map_err(|_| SegmentError::Corrupt("fence key is not UTF-8"))?;
            if first_keys
                .last()
                .is_some_and(|prev: &String| prev.as_str() >= key)
            {
                return Err(SegmentError::Corrupt("fence keys not strictly ascending"));
            }
            first_keys.push(key.to_owned());
            counts.push(count);
            records += u64::from(count);
            rest = &rest[key_len..];
        }
        if !rest.is_empty() {
            return Err(SegmentError::Corrupt("trailing bytes after term fences"));
        }
        if records != num_terms as u64 {
            return Err(SegmentError::Corrupt(
                "fence counts disagree with the term count",
            ));
        }
        Ok(TermFences {
            total_bytes,
            first_keys,
            counts,
        })
    }

    pub(crate) fn resident_bytes(&self) -> usize {
        self.first_keys
            .iter()
            .map(|k| k.len() + std::mem::size_of::<String>())
            .sum::<usize>()
            + self.counts.len() * 4
    }
}

/// The resident directory over the paged document names: the first docid
/// of each page (pages hold consecutive docids).
#[derive(Debug)]
pub(crate) struct NamesDir {
    /// Total UTF-8 bytes across all document names (accounting only).
    pub(crate) total_bytes: u64,
    /// First docid of each page, plus a final entry equal to `num_docs`.
    pub(crate) starts: Vec<u32>,
}

impl NamesDir {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.total_bytes.to_le_bytes());
        out.extend_from_slice(&((self.starts.len() - 1) as u32).to_le_bytes());
        for &s in &self.starts {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out
    }

    /// Decodes and cross-validates the directory against the name page
    /// count and the declared document count.
    pub(crate) fn decode(
        bytes: &[u8],
        num_docs: usize,
        pages: usize,
    ) -> Result<Self, SegmentError> {
        if bytes.len() < 12 {
            return Err(SegmentError::Corrupt("names directory truncated"));
        }
        let total_bytes = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let page_count = usize::try_from(u32::from_le_bytes(bytes[8..12].try_into().unwrap()))
            .map_err(|_| SegmentError::Corrupt("names page count out of range"))?;
        if page_count != pages {
            return Err(SegmentError::Corrupt(
                "names directory disagrees with name pages",
            ));
        }
        let expect = (page_count + 1)
            .checked_mul(4)
            .and_then(|n| n.checked_add(12))
            .ok_or(SegmentError::Corrupt("names page count overflows"))?;
        if bytes.len() != expect {
            return Err(SegmentError::Corrupt(
                "names directory has the wrong length",
            ));
        }
        let starts: Vec<u32> = bytes[12..]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        if starts[0] != 0 {
            return Err(SegmentError::Corrupt("names directory must start at zero"));
        }
        if starts.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SegmentError::Corrupt(
                "names directory not strictly ascending",
            ));
        }
        if u64::from(*starts.last().expect("pages + 1 >= 1")) != num_docs as u64 {
            return Err(SegmentError::Corrupt(
                "names directory disagrees with the document count",
            ));
        }
        Ok(NamesDir {
            total_bytes,
            starts,
        })
    }

    pub(crate) fn resident_bytes(&self) -> usize {
        self.starts.len() * 4
    }
}

/// Builds the sorted, paged vocabulary column: records are
/// `[u32 term id][UTF-8 term]`, sorted lexicographically by the caller.
///
/// # Errors
/// A term not strictly greater than the one before (a duplicate, or
/// unsorted input) is [`SegmentError::Corrupt`]: [`lookup_term`] could not
/// find every term, and a segment open would reject the pages. A term
/// whose record exceeds a page is [`SegmentError::TooLarge`].
pub(crate) fn build_term_pages<'a>(
    sorted: impl Iterator<Item = (&'a str, u32)>,
) -> Result<(Column, TermFences), SegmentError> {
    let mut pages = RecordPagesBuilder::new("terms", "term record exceeds a vocabulary page");
    let mut first_keys = Vec::new();
    let mut rec = Vec::new();
    let mut utf8_bytes = 0u64;
    let mut prev: Option<&str> = None;
    for (s, id) in sorted {
        if prev.is_some_and(|p| p >= s) {
            return Err(SegmentError::Corrupt(
                "vocabulary terms not strictly ascending",
            ));
        }
        prev = Some(s);
        rec.clear();
        rec.extend_from_slice(&id.to_le_bytes());
        rec.extend_from_slice(s.as_bytes());
        utf8_bytes += s.len() as u64;
        if pages.push(&rec)? {
            first_keys.push(s.to_owned());
        }
    }
    let (col, counts, _) = pages.finish();
    Ok((
        col,
        TermFences {
            total_bytes: utf8_bytes,
            first_keys,
            counts,
        },
    ))
}

/// Builds the paged document-name column incrementally: records are the
/// UTF-8 names, pushed in docid order.
#[derive(Debug)]
pub(crate) struct NamePagesBuilder(RecordPagesBuilder);

impl NamePagesBuilder {
    pub(crate) fn new() -> Self {
        NamePagesBuilder(RecordPagesBuilder::new(
            "doc_names",
            "document name exceeds a page",
        ))
    }

    /// Appends the next docid's name.
    pub(crate) fn push(&mut self, name: &str) -> Result<(), SegmentError> {
        self.0.push(name.as_bytes()).map(|_| ())
    }

    pub(crate) fn finish(self) -> (Column, NamesDir) {
        let (col, counts, total_bytes) = self.0.finish();
        let mut starts = Vec::with_capacity(counts.len() + 1);
        starts.push(0u32);
        for &c in &counts {
            let prev = *starts.last().expect("starts begins nonempty");
            starts.push(prev + c);
        }
        (
            col,
            NamesDir {
                total_bytes,
                starts,
            },
        )
    }
}

/// Binary-searches the paged vocabulary: the fence keys select the one
/// page that can hold `term`, then a binary search over that page's
/// records finds it; the record's embedded id is the answer. Cold path —
/// reads one page per call.
pub(crate) fn lookup_term(terms: &Column, fences: &TermFences, term: &str) -> Option<u32> {
    let p = fences.first_keys.partition_point(|k| k.as_str() <= term);
    if p == 0 {
        return None;
    }
    let page = terms.block(p - 1);
    let view = PageView::new(&page);
    let (mut lo, mut hi) = (0usize, view.record_count());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let rec = view.record(mid);
        match rec[TERM_ID_BYTES..].cmp(term.as_bytes()) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => {
                return Some(u32::from_le_bytes(rec[..TERM_ID_BYTES].try_into().unwrap()))
            }
        }
    }
    None
}

/// Fetches one document name from the paged name column. Cold path —
/// reads one page per call.
pub(crate) fn lookup_name(names: &Column, dir: &NamesDir, docid: u32) -> Option<String> {
    let &num_docs = dir.starts.last().expect("directory is never empty");
    if docid >= num_docs {
        return None;
    }
    let p = dir.starts.partition_point(|&s| s <= docid) - 1;
    let page = names.block(p);
    let rec = PageView::new(&page).record((docid - dir.starts[p]) as usize);
    let name = std::str::from_utf8(rec).expect("doc-name page holds the UTF-8 that was written");
    Some(name.to_owned())
}

/// Everything an index keeps of its metadata: four columns — memory-backed
/// when built in this process, disk-backed when reopened from a segment —
/// plus the two small resident directories. A term's document frequency is
/// not among them: it is the length of the term's offset range.
#[derive(Debug)]
pub(crate) struct PagedMetadata {
    pub(crate) terms: Column,
    pub(crate) fences: TermFences,
    pub(crate) names: Column,
    pub(crate) names_dir: NamesDir,
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
    pub(crate) fn term_id(&self, term: &str) -> Option<u32> {
        lookup_term(&self.terms, &self.fences, term)
    }

    pub(crate) fn doc_name(&self, docid: u32) -> Option<String> {
        lookup_name(&self.names, &self.names_dir, docid)
    }

    /// A term's TD row range, un-pooled: the oracle's reader of the
    /// offset column.
    pub(crate) fn term_range(&self, term: u32) -> Range<usize> {
        let Ok(range) = self.range_of(term, |i| Ok::<_, Infallible>(col_value(&self.offsets, i)));
        range
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

    /// Bytes of metadata held outside the columns: the fence keys and the
    /// two page directories.
    pub(crate) fn resident_meta_bytes(&self) -> usize {
        self.fences.resident_bytes() + self.names_dir.resident_bytes()
    }

    /// Bytes the version-1 fully materialized open held resident for the
    /// same metadata: owned vocabulary strings, the document-name column,
    /// and the dense doc-len / doc-freq / offset arrays.
    pub(crate) fn full_materialized_bytes(&self) -> usize {
        let num_docs = self.num_docs();
        let vocab =
            self.fences.total_bytes as usize + self.num_terms * std::mem::size_of::<String>();
        let names = self.names_dir.total_bytes as usize + num_docs * 8;
        vocab + names + num_docs * 4 + self.num_terms * 4 + (self.num_terms + 1) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn name_pages(names: &[String]) -> (Column, NamesDir) {
        let mut b = NamePagesBuilder::new();
        for n in names {
            b.push(n).unwrap();
        }
        b.finish()
    }

    fn paged_vocab(terms: &[(&str, u32)]) -> (Column, TermFences) {
        build_term_pages(terms.iter().map(|&(s, id)| (s, id))).unwrap()
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
                build_term_pages(vocab.iter().copied()).err(),
                Some(SegmentError::Corrupt(
                    "vocabulary terms not strictly ascending"
                ))
            );
        }
        assert!(build_term_pages(duplicate[..2].iter().copied()).is_ok());
    }

    #[test]
    fn record_pages_roundtrip_including_empty_records() {
        let mut b = RecordPagesBuilder::new("r", "too big");
        let records: Vec<Vec<u8>> = (0..300).map(|i| vec![i as u8; i % 97]).collect();
        for r in &records {
            b.push(r).unwrap();
        }
        let (col, counts, total) = b.finish();
        assert_eq!(total, records.iter().map(|r| r.len() as u64).sum::<u64>());
        assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), 300);
        assert_eq!(col.len(), counts.len() * PAGE_VALUES);
        check_raw_pages(&col, false).unwrap();
        // Framed well, but these records are bytes, not names.
        assert_eq!(
            check_record_pages(&col, counts.iter().copied(), None),
            Err(SegmentError::Corrupt("record is not UTF-8"))
        );
        let mut i = 0;
        for (page, &count) in counts.iter().enumerate() {
            let block = col.block(page);
            let view = PageView::new(&block);
            assert_eq!(view.record_count(), count as usize);
            for j in 0..view.record_count() {
                assert_eq!(view.record(j), records[i], "record {i}");
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

    #[test]
    fn boundary_terms_of_every_page_resolve() {
        let vocab = multi_page_vocab();
        let (col, fences) =
            build_term_pages(vocab.iter().map(|(s, id)| (s.as_str(), *id))).unwrap();
        assert!(fences.first_keys.len() > 1, "fixture must span pages");
        let keys = Some(&fences.first_keys[..]);
        check_record_pages(&col, fences.counts.iter().copied(), keys).unwrap();
        let shifted = fences.counts.iter().map(|&c| c + 1);
        assert_eq!(
            check_record_pages(&col, shifted, keys),
            Err(SegmentError::Corrupt(
                "record page count disagrees with its directory"
            ))
        );
        // Page 1's fence key moved to its second term, then below page 0's
        // last term: either way a lookup would miss a term the pages hold.
        let first_of_page_1 = fences.counts[0] as usize;
        let mut moved = fences.first_keys.clone();
        for (at, err) in [
            (
                first_of_page_1 + 1,
                "vocabulary page disagrees with its fence key",
            ),
            (
                first_of_page_1 - 2,
                "vocabulary terms not strictly ascending",
            ),
        ] {
            moved[1] = vocab[at].0.clone();
            assert_eq!(
                check_record_pages(&col, fences.counts.iter().copied(), Some(&moved)),
                Err(SegmentError::Corrupt(err))
            );
        }
        // First and last record of every page, located via the counts.
        let mut base = 0usize;
        for (p, &count) in fences.counts.iter().enumerate() {
            for j in [0, count as usize - 1] {
                let (s, id) = &vocab[base + j];
                assert_eq!(
                    lookup_term(&col, &fences, s),
                    Some(*id),
                    "page {p} slot {j}"
                );
            }
            base += count as usize;
        }
    }

    #[test]
    fn absent_terms_between_fence_keys_miss() {
        let vocab = multi_page_vocab();
        let (col, fences) =
            build_term_pages(vocab.iter().map(|(s, id)| (s.as_str(), *id))).unwrap();
        // Probes lexicographically adjacent to real terms, before the first
        // key and after the last — all absent.
        assert_eq!(lookup_term(&col, &fences, ""), None);
        assert_eq!(lookup_term(&col, &fences, "term-"), None);
        assert_eq!(lookup_term(&col, &fences, "zzzz"), None);
        for key in &fences.first_keys {
            let just_after = format!("{key}\u{1}");
            assert_eq!(
                lookup_term(&col, &fences, &just_after),
                None,
                "{just_after}"
            );
            let mut just_before = key.clone();
            just_before.pop();
            if !vocab.iter().any(|(s, _)| *s == just_before) {
                assert_eq!(lookup_term(&col, &fences, &just_before), None);
            }
        }
    }

    #[test]
    fn single_term_and_empty_vocabularies() {
        let (col, fences) = paged_vocab(&[("only", 7)]);
        assert_eq!(lookup_term(&col, &fences, "only"), Some(7));
        assert_eq!(lookup_term(&col, &fences, "onl"), None);
        assert_eq!(lookup_term(&col, &fences, "onlyy"), None);
        let (col, fences) = paged_vocab(&[]);
        assert!(col.is_empty());
        assert_eq!(lookup_term(&col, &fences, "anything"), None);
    }

    #[test]
    fn name_pages_resolve_every_docid_and_reject_out_of_range() {
        let names: Vec<String> = (0..2500).map(|i| format!("doc-{i:08}")).collect();
        let (col, dir) = name_pages(&names);
        assert!(dir.starts.len() > 2, "fixture must span pages");
        for d in [0u32, 1, 137, 2499] {
            assert_eq!(
                lookup_name(&col, &dir, d).as_deref(),
                Some(names[d as usize].as_str())
            );
        }
        assert_eq!(lookup_name(&col, &dir, 2500), None);
        assert_eq!(lookup_name(&col, &dir, u32::MAX), None);
    }

    #[test]
    fn fences_and_dir_roundtrip_through_their_sections() {
        let vocab = multi_page_vocab();
        let (col, fences) =
            build_term_pages(vocab.iter().map(|(s, id)| (s.as_str(), *id))).unwrap();
        let back = TermFences::decode(&fences.encode(), vocab.len(), col.block_count()).unwrap();
        assert_eq!(back.first_keys, fences.first_keys);
        assert_eq!(back.counts, fences.counts);
        assert_eq!(back.total_bytes, fences.total_bytes);
        let names: Vec<String> = (0..999).map(|i| format!("n{i}")).collect();
        let (ncol, dir) = name_pages(&names);
        let back = NamesDir::decode(&dir.encode(), names.len(), ncol.block_count()).unwrap();
        assert_eq!(back.starts, dir.starts);
        assert_eq!(back.total_bytes, dir.total_bytes);
        // Wrong declared counts are typed corruption.
        assert!(TermFences::decode(&fences.encode(), vocab.len() + 1, col.block_count()).is_err());
        assert!(TermFences::decode(&fences.encode(), vocab.len(), col.block_count() + 1).is_err());
        assert!(NamesDir::decode(&dir.encode(), names.len() - 1, ncol.block_count()).is_err());
        assert!(NamesDir::decode(&dir.encode(), names.len(), ncol.block_count() + 1).is_err());
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
            let (col, fences) = build_term_pages(
                sorted.iter().zip(&ids).map(|(s, &id)| (s.as_str(), id)),
            ).unwrap();
            for probe in probes.iter().chain(sorted.iter()) {
                let expect = sorted
                    .binary_search_by(|s| s.as_str().cmp(probe))
                    .ok()
                    .map(|i| ids[i]);
                prop_assert_eq!(lookup_term(&col, &fences, probe), expect, "{}", probe);
            }
        }
    }
}
