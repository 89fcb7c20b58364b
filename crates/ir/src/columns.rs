//! Streaming columnar finish — postings flow straight into compressed
//! column blocks.
//!
//! [`IndexColumnsWriter`] takes **one term's postings at a time** and
//! pushes values into [`x100_storage::ColumnBuilder`]s that compress and
//! seal a block as soon as one fills, so no uncompressed column ever
//! exists; the writer's uncompressed residency is two pending blocks,
//! tracked by [`IndexColumnsWriter::peak_buffered_bytes`]. Every build path
//! goes through it: [`crate::IndexBuilder::finish`]'s in-memory drain, each
//! spill run the builder writes (at the run block size), and the final
//! merge that appends every run's part of a term in run order.
//!
//! The produced blocks are **bit-identical** to compressing the
//! materialized columns in one go: a [`ColumnBuilder`] fed value-by-value
//! seals exactly the same blocks as one fed a whole column (pinned by the
//! differential suite in `tests/spill_vs_memory.rs`).

use x100_compress::{Codec, PER_BLOCK_WIDTH};
use x100_storage::{Column, ColumnBuilder};

use crate::index::{IndexConfig, Materialize};

/// PFOR whose every block picks its own code width and base.
pub(crate) const PFOR_PER_BLOCK: Codec = Codec::Pfor {
    width: PER_BLOCK_WIDTH,
};

/// `docid` as PFOR-DELTA and `tf` as PFOR, widths chosen per block: the
/// posting codecs of a compressed index and of every spill run.
pub(crate) const PFOR_POSTINGS: (Codec, Codec) = (
    Codec::PforDelta {
        width: PER_BLOCK_WIDTH,
    },
    PFOR_PER_BLOCK,
);

/// The posting-column codecs an [`IndexConfig`] selects:
/// [`PFOR_POSTINGS`] when compressing, raw otherwise.
pub(crate) fn posting_codecs(config: &IndexConfig) -> (Codec, Codec) {
    if config.compress {
        PFOR_POSTINGS
    } else {
        (Codec::Raw, Codec::Raw)
    }
}

/// The score column's codec for each materialization variant: f32 bits
/// raw, Q8 codes as PFOR with widths chosen per block.
pub(crate) fn score_codec(materialize: Materialize) -> Option<Codec> {
    match materialize {
        Materialize::None => None,
        Materialize::F32 => Some(Codec::Raw),
        Materialize::Quantized8 => Some(PFOR_PER_BLOCK),
    }
}

/// The finished TD posting columns plus the range index accumulated while
/// streaming: everything [`crate::InvertedIndex`] needs beyond the D-table
/// metadata.
#[derive(Debug)]
pub(crate) struct IndexColumns {
    /// Compressed `docid` column, (term, docid)-ordered.
    pub docid: Column,
    /// Compressed `tf` column, aligned with `docid`.
    pub tf: Column,
    /// `offsets[t]..offsets[t + 1]` is term `t`'s row range. Each row is
    /// one (term, document) pair, so the range's length is `ftd`.
    pub offsets: Vec<usize>,
}

/// Builds the TD posting columns incrementally, one term at a time.
///
/// Backed by block-at-a-time [`ColumnBuilder`]s: each pushed posting lands
/// in a pending block that compresses and seals the moment it reaches the
/// configured block size, so the writer never holds more than two pending
/// blocks of uncompressed values regardless of collection size.
#[derive(Debug)]
pub(crate) struct IndexColumnsWriter {
    docid: ColumnBuilder,
    tf: ColumnBuilder,
    offsets: Vec<usize>,
    /// Next term slot whose offset gap is still open.
    next_term: usize,
    num_terms: usize,
    block_size: usize,
    peak_buffered: usize,
}

impl IndexColumnsWriter {
    /// A writer over a vocabulary of `num_terms` term ids, with the codecs
    /// and block size the configuration selects.
    pub fn new(config: &IndexConfig, num_terms: usize) -> Self {
        Self::with_layout(posting_codecs(config), config.block_size, num_terms)
    }

    /// A writer with explicit `(docid, tf)` codecs and block size.
    pub fn with_layout(
        (docid_codec, tf_codec): (Codec, Codec),
        block_size: usize,
        num_terms: usize,
    ) -> Self {
        IndexColumnsWriter {
            docid: ColumnBuilder::with_block_size("docid", docid_codec, block_size),
            tf: ColumnBuilder::with_block_size("tf", tf_codec, block_size),
            offsets: vec![0; num_terms + 1],
            next_term: 0,
            num_terms,
            block_size,
            peak_buffered: 0,
        }
    }

    /// Appends one term's whole posting list (packed `docid << 32 | tf`,
    /// ascending by docid). Terms must arrive in strictly ascending order;
    /// skipped term ids become empty posting lists.
    ///
    /// # Panics
    /// Panics if `term` is out of range for the vocabulary or does not
    /// strictly exceed the previously pushed term — the in-memory term
    /// drain produces ascending terms by construction, so a violation here
    /// is a bug, not bad input.
    pub fn push_term(&mut self, term: usize, postings: &[u64]) {
        self.open_term(term);
        // The packing stores docid in the upper and tf in the lower 32 bits.
        self.append(postings.iter().map(|&p| ((p >> 32) as u32, p as u32)));
    }

    /// Appends postings to `term`'s list: either the term last written,
    /// continuing its list, or a new term above it. The run merge calls
    /// this once per run block a term's postings span, and checks docid
    /// ascent itself. `docids` and `tfs` pair up by position.
    ///
    /// # Panics
    /// Panics if `term` is out of range or lies below the last term written.
    pub fn extend_term(&mut self, term: usize, docids: &[u32], tfs: &[u32]) {
        if term + 1 != self.next_term {
            self.open_term(term);
        }
        self.append(docids.iter().copied().zip(tfs.iter().copied()));
    }

    /// Starts `term`'s list, closing the offset gap over absent (empty)
    /// terms.
    fn open_term(&mut self, term: usize) {
        assert!(
            term < self.num_terms,
            "term id {term} out of range for vocabulary of {}",
            self.num_terms
        );
        assert!(
            term >= self.next_term,
            "term {term} arrived out of order (next expected ≥ {})",
            self.next_term
        );
        for t in self.next_term..=term {
            self.offsets[t + 1] = self.offsets[t];
        }
        self.next_term = term + 1;
    }

    /// Appends postings to the open term, accounting the pending
    /// high-water they reach *before* pushing them (so the push loop stays
    /// branch-free): both builders fill in lockstep, climbing from the
    /// current pending level until a block seals at `block_size` values —
    /// whichever comes first.
    fn append(&mut self, postings: impl ExactSizeIterator<Item = (u32, u32)>) {
        let n = postings.len();
        self.offsets[self.next_term] += n;
        let intra_peak = (self.docid.pending_len() + n).min(self.block_size);
        self.peak_buffered = self.peak_buffered.max(intra_peak * 8); // 2 cols × 4 B
        for (docid, tf) in postings {
            self.docid.push(docid);
            self.tf.push(tf);
        }
    }

    /// High-water mark, across the writer's lifetime, of uncompressed
    /// bytes pending in the two column builders (4 bytes per value per
    /// column) — the writer's entire uncompressed residency, used for
    /// finish-side peak accounting. Tracked at intra-term granularity: a
    /// long posting list that fills and seals a block mid-term still
    /// registers the full-block moment.
    pub fn peak_buffered_bytes(&self) -> usize {
        self.peak_buffered
    }

    /// Seals the pending blocks and returns the finished columns.
    pub fn finish(mut self) -> IndexColumns {
        for t in self.next_term..self.num_terms {
            self.offsets[t + 1] = self.offsets[t];
        }
        IndexColumns {
            docid: self.docid.finish(),
            tf: self.tf.finish(),
            offsets: self.offsets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack(docid: u32, tf: u32) -> u64 {
        (u64::from(docid) << 32) | u64::from(tf)
    }

    #[test]
    fn writer_matches_whole_column_compression() {
        let config = IndexConfig::compressed();
        let mut w = IndexColumnsWriter::new(&config, 5);
        w.push_term(0, &[pack(1, 2), pack(7, 1)]);
        w.push_term(3, &[pack(2, 4)]); // terms 1, 2 absent
        let cols = w.finish();
        assert_eq!(cols.docid.read_all(), vec![1, 7, 2]);
        assert_eq!(cols.tf.read_all(), vec![2, 1, 4]);
        assert_eq!(cols.offsets, vec![0, 2, 2, 2, 3, 3]);
        // Same blocks as compressing the materialized columns in one go.
        let (dc, tc) = posting_codecs(&config);
        let whole = Column::from_values("docid", dc, &[1, 7, 2]);
        assert_eq!(cols.docid.block(0), whole.block(0));
        let whole_tf = Column::from_values("tf", tc, &[2, 1, 4]);
        assert_eq!(cols.tf.block(0), whole_tf.block(0));
    }

    #[test]
    fn empty_writer_finishes_to_empty_columns() {
        let w = IndexColumnsWriter::new(&IndexConfig::compressed(), 3);
        assert_eq!(w.peak_buffered_bytes(), 0);
        let cols = w.finish();
        assert!(cols.docid.is_empty());
        assert_eq!(cols.offsets, vec![0; 4]);
    }

    #[test]
    fn peak_buffered_registers_the_full_block_moment() {
        let mut config = IndexConfig::compressed();
        config.block_size = 128;
        let mut w = IndexColumnsWriter::new(&config, 2);
        // One long list that fills and seals a block mid-term: the peak is
        // the full-block moment (128 values × 2 columns × 4 bytes), even
        // though only 72 values per column are pending once it returns.
        let postings: Vec<u64> = (0..200u32).map(|d| pack(d, 1)).collect();
        w.push_term(0, &postings);
        assert_eq!(w.peak_buffered_bytes(), 128 * 4 * 2);
        // A later small term cannot lower the high-water mark.
        w.push_term(1, &[pack(0, 1)]);
        assert_eq!(w.peak_buffered_bytes(), 128 * 4 * 2);
        let cols = w.finish();
        assert_eq!(cols.docid.block_count(), 2);
        assert_eq!(cols.docid.read_all().len(), 201);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn non_ascending_terms_rejected() {
        let mut w = IndexColumnsWriter::new(&IndexConfig::compressed(), 5);
        w.push_term(2, &[pack(0, 1)]);
        w.push_term(2, &[pack(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_vocab_term_rejected() {
        let mut w = IndexColumnsWriter::new(&IndexConfig::compressed(), 2);
        w.push_term(2, &[pack(0, 1)]);
    }
}
