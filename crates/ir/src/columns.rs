//! Streaming columnar finish — postings flow straight into compressed
//! column blocks.
//!
//! The builders' `finish` paths used to materialize the merged `docid`/`tf`
//! columns as plain `Vec<u32>`s before compressing, so the finish-side peak
//! grew with total postings — the opposite of what the paper's block-at-a-
//! time storage layer is for. [`IndexColumnsWriter`] closes that gap: the
//! k-way run merge ([`crate::spill`]) and the in-memory term-list drain
//! ([`crate::StreamingIndexBuilder`]) feed it **one term's postings at a
//! time**, and it pushes values into [`x100_storage::ColumnBuilder`]s that
//! compress and seal a block as soon as one fills. At no point does an
//! uncompressed column exist; the writer's uncompressed residency is two
//! pending blocks, tracked by [`IndexColumnsWriter::peak_buffered_bytes`] and
//! reported through `SpillStats::finish_peak_bytes`.
//!
//! The produced blocks are **bit-identical** to the old materialize-then-
//! compress path: a [`ColumnBuilder`] fed value-by-value seals exactly the
//! same blocks as one fed a whole column (pinned by the differential suite
//! in `tests/spill_vs_memory.rs`).

use x100_compress::Codec;
use x100_storage::{Column, ColumnBuilder};

use crate::index::IndexConfig;

/// The posting-column codecs an [`IndexConfig`] selects: `docid` as
/// PFOR-DELTA and `tf` as PFOR (both 8-bit) when compressing, raw otherwise.
pub(crate) fn posting_codecs(config: &IndexConfig) -> (Codec, Codec) {
    if config.compress {
        (Codec::PforDelta { width: 8 }, Codec::Pfor { width: 8 })
    } else {
        (Codec::Raw, Codec::Raw)
    }
}

/// The finished TD posting columns plus the T-table statistics accumulated
/// while streaming: everything [`crate::InvertedIndex`] needs beyond the
/// D-table metadata.
#[derive(Debug)]
pub(crate) struct IndexColumns {
    /// Compressed `docid` column, (term, docid)-ordered.
    pub docid: Column,
    /// Compressed `tf` column, aligned with `docid`.
    pub tf: Column,
    /// Per-term document frequencies (`ftd`).
    pub doc_freqs: Vec<u32>,
    /// `offsets[t]..offsets[t + 1]` is term `t`'s row range.
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
    doc_freqs: Vec<u32>,
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
        let (docid_codec, tf_codec) = posting_codecs(config);
        IndexColumnsWriter {
            docid: ColumnBuilder::with_block_size("docid", docid_codec, config.block_size),
            tf: ColumnBuilder::with_block_size("tf", tf_codec, config.block_size),
            doc_freqs: vec![0; num_terms],
            offsets: vec![0; num_terms + 1],
            next_term: 0,
            num_terms,
            block_size: config.block_size,
            peak_buffered: 0,
        }
    }

    /// Appends one term's merged postings (packed `docid << 32 | tf`,
    /// ascending by docid). Terms must arrive in strictly ascending order;
    /// skipped term ids become empty posting lists.
    ///
    /// # Panics
    /// Panics if `term` is out of range for the vocabulary or does not
    /// strictly exceed the previously pushed term — callers (the k-way
    /// merge, the in-memory term drain) validate their streams first, so a
    /// violation here is a bug, not bad input.
    pub fn push_term(&mut self, term: u32, postings: &[u64]) {
        let slot = term as usize;
        assert!(
            slot < self.num_terms,
            "term id {term} out of range for vocabulary of {}",
            self.num_terms
        );
        assert!(
            slot >= self.next_term,
            "term {term} arrived out of order (next expected ≥ {})",
            self.next_term
        );
        // Close the offset gap over absent (empty) terms.
        for t in self.next_term..=slot {
            self.offsets[t + 1] = self.offsets[t];
        }
        self.next_term = slot + 1;
        self.doc_freqs[slot] = postings.len() as u32;
        self.offsets[slot + 1] = self.offsets[slot] + postings.len();
        // Account the *intra-term* pending high-water before pushing (so
        // the hot loop below stays branch-free): both builders fill in
        // lockstep, climbing from the current pending level until a block
        // seals at `block_size` values — whichever comes first.
        let intra_peak = (self.docid.pending_len() + postings.len()).min(self.block_size);
        self.peak_buffered = self.peak_buffered.max(intra_peak * 8); // 2 cols × 4 B
        for &packed in postings {
            // Both halves are exact: the packing discipline stores docid in
            // the upper and tf in the lower 32 bits.
            let docid = u32::try_from(packed >> 32).expect("upper packed half fits u32");
            let tf = packed as u32;
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
            doc_freqs: self.doc_freqs,
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
        assert_eq!(cols.doc_freqs, vec![2, 0, 0, 1, 0]);
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
        assert_eq!(cols.doc_freqs, vec![0; 3]);
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
