//! Compressed columns: sequences of compressed blocks.
//!
//! A [`Column`] is the on-"disk" representation of one attribute. Values are
//! `u32` (docids, term frequencies, quantized scores — every hot IR column
//! is a small integer); the IR layer frames variable-length attributes
//! (terms, document names) as record pages inside such columns.
//!
//! Each column is chopped into blocks of the builder's block size values,
//! and a block is what the buffer pool reads, validates and evicts as one
//! unit. The paper reads "blocks of several megabytes" to keep a 12-disk
//! RAID streaming; a segment served from the page cache pays per byte
//! instead, so the default ([`DEFAULT_BLOCK_SIZE`], 32 Ki values) is sized
//! for the pool miss.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use x100_compress::{Codec, CompressedBlock, ENTRY_POINT_STRIDE};

use crate::StorageError;

/// Globally unique column identity, used as the buffer-manager cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnId(u64);

static NEXT_COLUMN_ID: AtomicU64 = AtomicU64::new(0);

impl ColumnId {
    fn next() -> Self {
        ColumnId(NEXT_COLUMN_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// Default block size in values: 32 Ki values = 128 KB uncompressed.
///
/// Measured on the repository benchmark's `cold_segment` workload (the
/// sweep is in `docs/COMPRESSION.md`): a query misses the pool about as
/// often with 32 Ki-value blocks as with 256 Ki, so a miss reads and checks
/// ~7x fewer bytes. Below 32 Ki the misses per query start to climb and
/// the block directory an open pins keeps growing.
pub const DEFAULT_BLOCK_SIZE: usize = 1 << 15;
const _: () = assert!(DEFAULT_BLOCK_SIZE.is_multiple_of(ENTRY_POINT_STRIDE));

/// Builder for [`Column`]s: choose codec and block size, append values.
#[derive(Debug)]
pub struct ColumnBuilder {
    name: String,
    codec: Codec,
    block_size: usize,
    pending: Vec<u32>,
    blocks: Vec<Arc<CompressedBlock>>,
    len: usize,
}

impl ColumnBuilder {
    /// Starts a column with the given codec and [`DEFAULT_BLOCK_SIZE`].
    pub fn new(name: impl Into<String>, codec: Codec) -> Self {
        Self::with_block_size(name, codec, DEFAULT_BLOCK_SIZE)
    }

    /// Starts a column with an explicit block size in values.
    ///
    /// # Panics
    /// Panics if `block_size` is zero or not a multiple of the entry-point
    /// stride (128), which range decoding requires.
    pub fn with_block_size(name: impl Into<String>, codec: Codec, block_size: usize) -> Self {
        assert!(
            block_size > 0 && block_size.is_multiple_of(ENTRY_POINT_STRIDE),
            "block size must be a positive multiple of {ENTRY_POINT_STRIDE}"
        );
        ColumnBuilder {
            name: name.into(),
            codec,
            block_size,
            pending: Vec::new(),
            blocks: Vec::new(),
            len: 0,
        }
    }

    /// Appends one value.
    pub fn push(&mut self, value: u32) {
        self.pending.push(value);
        self.len += 1;
        if self.pending.len() == self.block_size {
            self.flush();
        }
    }

    /// Appends many values.
    pub fn extend(&mut self, values: &[u32]) {
        for &v in values {
            self.push(v);
        }
    }

    /// Values appended so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no values have been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Values buffered uncompressed, awaiting the next block flush. This is
    /// the builder's entire uncompressed footprint — everything before it
    /// already lives in compressed blocks — so streaming writers use
    /// `pending_len() * 4` for peak-memory accounting.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn flush(&mut self) {
        if !self.pending.is_empty() {
            self.blocks
                .push(Arc::new(CompressedBlock::encode(&self.pending, self.codec)));
            self.pending.clear();
        }
    }

    /// Finishes the column.
    pub fn finish(mut self) -> Column {
        self.flush();
        Column {
            id: ColumnId::next(),
            name: self.name,
            codec: self.codec,
            block_size: self.block_size,
            store: BlockStore::Mem(self.blocks),
            len: self.len,
        }
    }
}

/// The physical backing of a column's compressed blocks.
#[derive(Debug, Clone)]
enum BlockStore {
    /// Every block's image lives in RAM (a column built in this process).
    /// Blocks are shared, so a buffer-pool slot or a reader's pin holds the
    /// column's own block — no byte is ever held twice.
    Mem(Vec<Arc<CompressedBlock>>),
    /// The same images live in a segment file, each at an `(absolute file
    /// offset, image byte length)` extent validated against the file's real
    /// length at open time. The column keeps no block bytes itself: every
    /// fetch is a positional read, and the only cache is the
    /// [`crate::BufferManager`] the serving path pins through.
    Disk {
        file: Arc<File>,
        entries: Arc<[(u64, u32)]>,
    },
}

/// A compressed, immutable column of `u32` values.
#[derive(Debug, Clone)]
pub struct Column {
    id: ColumnId,
    name: String,
    codec: Codec,
    block_size: usize,
    store: BlockStore,
    len: usize,
}

impl Column {
    /// Builds a column from a slice in one call.
    pub fn from_values(name: impl Into<String>, codec: Codec, values: &[u32]) -> Self {
        let mut b = ColumnBuilder::new(name, codec);
        b.extend(values);
        b.finish()
    }

    /// Builds a disk-backed column over blocks stored in `file`, each at a
    /// pre-validated `(absolute offset, image byte length)` extent.
    /// Used by [`crate::SegmentReader`]; blocks are `pread` on demand.
    pub(crate) fn from_disk_blocks(
        name: impl Into<String>,
        codec: Codec,
        block_size: usize,
        len: usize,
        file: Arc<File>,
        entries: Vec<(u64, u32)>,
    ) -> Self {
        Column {
            id: ColumnId::next(),
            name: name.into(),
            codec,
            block_size,
            store: BlockStore::Disk {
                file,
                entries: entries.into(),
            },
            len,
        }
    }

    /// The column's unique identity.
    pub fn id(&self) -> ColumnId {
        self.id
    }

    /// The column's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The codec the column was built with.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Block size in values.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        match &self.store {
            BlockStore::Mem(blocks) => blocks.len(),
            BlockStore::Disk { entries, .. } => entries.len(),
        }
    }

    /// Fetches block `idx` from the column's store: a shared handle to an
    /// in-memory block, or — the one place block extents are read — one
    /// positional read of a disk-backed one straight into the new block's
    /// image, validated in place. Nothing is cached here:
    /// [`crate::BufferManager::pin`] is the caching caller, and build-side
    /// readers that take each block once (a spill run's merge) call this.
    ///
    /// A disk-backed block that cannot be read or validated returns
    /// [`StorageError::Io`] or [`StorageError::Codec`] rather than panicking.
    pub fn fetch(&self, idx: usize) -> Result<Arc<CompressedBlock>, StorageError> {
        if idx >= self.block_count() {
            return Err(StorageError::OutOfBounds {
                position: idx.saturating_mul(self.block_size),
                len: self.len,
            });
        }
        match &self.store {
            BlockStore::Mem(blocks) => Ok(Arc::clone(&blocks[idx])),
            BlockStore::Disk { file, entries } => {
                let (offset, len) = entries[idx];
                let block = CompressedBlock::read_image(len as usize, |buf| {
                    file.read_exact_at(buf, offset)
                        .map_err(|e| StorageError::Io(e.kind()))
                })?;
                Ok(Arc::new(block))
            }
        }
    }

    /// The compressed block at `idx`, un-pooled: for a disk-backed column
    /// an *uncached* positioned read — what build-side, offline and
    /// cold-path callers want. The serving path pins through
    /// [`crate::BufferManager::pin`] instead.
    ///
    /// # Panics
    /// Panics if `idx` is out of range, or if the read or validation fails:
    /// every segment is fully checksum-verified at open time, so a failure
    /// here means the file changed (or the device failed) underneath a
    /// running process. Offline callers treat that as fatal; `pin` returns
    /// it as a typed error.
    pub fn block(&self, idx: usize) -> Arc<CompressedBlock> {
        self.fetch(idx)
            .unwrap_or_else(|e| panic!("block {idx} of column {:?}: {e}", self.name))
    }

    /// Size in bytes of block `idx` as the I/O layer sees it — without
    /// loading the block. For in-memory columns this is the compressed
    /// payload size; for disk-backed columns the image extent read from
    /// the file (payload plus the image's header and alignment padding).
    pub fn block_bytes(&self, idx: usize) -> usize {
        match &self.store {
            BlockStore::Mem(blocks) => blocks[idx].compressed_bytes(),
            BlockStore::Disk { entries, .. } => entries[idx].1 as usize,
        }
    }

    /// Length in bytes of block `idx`'s image, without (for a disk-backed
    /// column) reading it.
    pub(crate) fn block_image_len(&self, idx: usize) -> usize {
        match &self.store {
            BlockStore::Mem(blocks) => blocks[idx].as_bytes().len(),
            BlockStore::Disk { entries, .. } => entries[idx].1 as usize,
        }
    }

    /// Whether the column's blocks live in a segment file rather than RAM.
    pub fn is_disk_backed(&self) -> bool {
        matches!(self.store, BlockStore::Disk { .. })
    }

    /// Total compressed size in bytes (without loading any disk-backed
    /// blocks).
    pub fn compressed_bytes(&self) -> usize {
        (0..self.block_count()).map(|i| self.block_bytes(i)).sum()
    }

    /// Effective bits per value across the whole column — the figure the
    /// paper quotes ("from 32 to 11.98 and 8.13 bits per tuple").
    pub fn bits_per_value(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.compressed_bytes() as f64 * 8.0 / self.len as f64
        }
    }

    /// Decodes the entire column (test/debug convenience — production reads
    /// go through [`crate::scan::ColumnScan`] at vector granularity).
    pub fn read_all(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        let mut scratch = Vec::new();
        for idx in 0..self.block_count() {
            let block = self.block(idx);
            if idx == 0 {
                // `decode_into` clears its target, keeping the capacity.
                block.decode_into(&mut out);
            } else {
                block.decode_into(&mut scratch);
                out.extend_from_slice(&scratch);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| i % 777).collect()
    }

    #[test]
    fn builder_splits_into_blocks() {
        let col = {
            let mut b = ColumnBuilder::with_block_size("c", Codec::Pfor { width: 8 }, 256);
            b.extend(&values(1000));
            b.finish()
        };
        assert_eq!(col.len(), 1000);
        assert_eq!(col.block_count(), 4); // 256*3 + 232
        assert_eq!(col.read_all(), values(1000));
    }

    #[test]
    fn column_ids_are_unique() {
        let a = Column::from_values("a", Codec::Raw, &[1]);
        let b = Column::from_values("b", Codec::Raw, &[1]);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn fetch_out_of_bounds() {
        let col = Column::from_values("c", Codec::Raw, &values(10));
        assert_eq!(col.fetch(0).unwrap().len(), 10);
        let err = col.fetch(1).unwrap_err();
        assert!(matches!(err, StorageError::OutOfBounds { .. }), "{err}");
    }

    #[test]
    fn builder_finish_empty_produces_zero_blocks() {
        for codec in [Codec::Raw, Codec::Pfor { width: 8 }] {
            let b = ColumnBuilder::with_block_size("c", codec, 256);
            assert!(b.is_empty());
            let col = b.finish();
            assert_eq!(col.len(), 0);
            assert_eq!(col.block_count(), 0);
            assert!(col.read_all().is_empty());
        }
    }

    #[test]
    fn builder_finish_flushes_pending_only_tail() {
        // Fewer values than one block: everything lives in `pending` until
        // finish, which must flush exactly one block.
        let mut b = ColumnBuilder::with_block_size("c", Codec::PforDelta { width: 8 }, 256);
        b.push(42);
        assert_eq!(b.len(), 1);
        assert_eq!(b.pending_len(), 1);
        let col = b.finish();
        assert_eq!(col.block_count(), 1);
        assert_eq!(col.read_all(), vec![42]);
    }

    #[test]
    fn builder_finish_exact_multiple_adds_no_empty_block() {
        let data = values(512);
        let mut b = ColumnBuilder::with_block_size("c", Codec::Pfor { width: 8 }, 256);
        b.extend(&data);
        assert_eq!(b.pending_len(), 0); // both blocks already flushed
        let col = b.finish();
        assert_eq!(col.block_count(), 2);
        assert_eq!(col.read_all(), data);
    }

    #[test]
    fn empty_column() {
        let col = Column::from_values("c", Codec::Pfor { width: 8 }, &[]);
        assert!(col.is_empty());
        assert_eq!(col.block_count(), 0);
        assert!(col.read_all().is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of 128")]
    fn misaligned_block_size_rejected() {
        ColumnBuilder::with_block_size("c", Codec::Raw, 100);
    }

    #[test]
    fn compression_accounting() {
        let data: Vec<u32> = (0..100_000u32).collect(); // sorted: delta-compresses well
        let raw = Column::from_values("raw", Codec::Raw, &data);
        let pfd = Column::from_values("pfd", Codec::PforDelta { width: 8 }, &data);
        assert_eq!(raw.bits_per_value(), 32.0);
        assert!(pfd.bits_per_value() < 10.0, "{}", pfd.bits_per_value());
        assert!(pfd.compressed_bytes() < raw.compressed_bytes() / 3);
    }
}
