//! Seekable column scans at vector granularity.
//!
//! A [`ColumnScan`] is the storage half of the X100 pipeline: each
//! `next_into()` decompresses *one vector's worth* of values — not a whole
//! block — directly into the caller's buffer, mirroring how the paper's
//! engine feeds decompressed vectors "directly into the operator pipeline,
//! without writing the uncompressed data back to main memory".
//!
//! `seek()` jumps to an arbitrary position using the entry points of the
//! underlying compressed blocks; inverted-list merge-joins use this to skip
//! over non-matching docid ranges.

use std::sync::Arc;

use x100_compress::{CompressedBlock, ENTRY_POINT_STRIDE};

use crate::buffer::BufferManager;
use crate::column::Column;
use crate::StorageError;

/// A cursor over one column, producing up to `vector_size` values per call.
#[derive(Debug)]
pub struct ColumnScan<'a> {
    column: &'a Column,
    buffers: &'a BufferManager,
    vector_size: usize,
    /// Logical read position in the column.
    pos: usize,
    /// Staging area: decompressed values covering
    /// `[stage_start, stage_start + staging.len())`. Entry-point alignment
    /// means we may decode slightly more than one vector; the surplus is
    /// served on the next call rather than re-decoded.
    staging: Vec<u32>,
    stage_start: usize,
    /// The block the scan is inside and its pin on it: taken from (and
    /// charged by) the buffer manager when the scan enters the block, not
    /// on every refill within it. The pin is a real reference, so refills
    /// decode straight from it — no lock, no pool or column access, no
    /// re-read — even if concurrent queries evict the block meanwhile.
    pin: Option<(usize, Arc<CompressedBlock>)>,
}

impl<'a> ColumnScan<'a> {
    /// Opens a scan at position 0.
    pub fn new(column: &'a Column, buffers: &'a BufferManager, vector_size: usize) -> Self {
        assert!(vector_size > 0, "vector size must be positive");
        ColumnScan {
            column,
            buffers,
            vector_size,
            pos: 0,
            staging: Vec::new(),
            stage_start: 0,
            pin: None,
        }
    }

    /// Current read position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Values remaining.
    pub fn remaining(&self) -> usize {
        self.column.len() - self.pos
    }

    /// Whether the scan is exhausted.
    pub fn is_done(&self) -> bool {
        self.pos >= self.column.len()
    }

    /// Moves the cursor to `pos` (for merge-join skipping). Cheap when `pos`
    /// is already inside the staged range; otherwise the next read decodes
    /// from the nearest entry point.
    pub fn seek(&mut self, pos: usize) -> Result<(), StorageError> {
        if pos > self.column.len() {
            return Err(StorageError::OutOfBounds {
                position: pos,
                len: self.column.len(),
            });
        }
        self.pos = pos;
        Ok(())
    }

    /// Reads the next vector into `out` (cleared first), returning how many
    /// values were produced (0 at end of column).
    pub fn next_into(&mut self, out: &mut Vec<u32>) -> Result<usize, StorageError> {
        out.clear();
        let want = self.vector_size.min(self.remaining());
        if want == 0 {
            return Ok(0);
        }
        let mut produced = 0;
        while produced < want {
            // Serve from staging if the current position is staged.
            let stage_end = self.stage_start + self.staging.len();
            if self.pos >= self.stage_start && self.pos < stage_end {
                let off = self.pos - self.stage_start;
                let take = (want - produced).min(stage_end - self.pos);
                out.extend_from_slice(&self.staging[off..off + take]);
                self.pos += take;
                produced += take;
                continue;
            }
            self.refill()?;
        }
        Ok(produced)
    }

    /// Decodes a fresh staging range covering the current position: starts
    /// at the entry point at or below `pos` and spans enough strides to
    /// cover one vector.
    fn refill(&mut self) -> Result<(), StorageError> {
        let aligned = self.pos - self.pos % ENTRY_POINT_STRIDE;
        // Decode enough to cover pos + vector_size, rounded up to strides,
        // clamped to the block end: a refill reads from exactly one block,
        // the one the scan holds a pin on.
        let block_size = self.column.block_size();
        let block_idx = aligned / block_size;
        let block_start = block_idx * block_size;
        let block_end = (block_start + block_size).min(self.column.len());
        let want_end = (self.pos + self.vector_size)
            .next_multiple_of(ENTRY_POINT_STRIDE)
            .min(block_end);
        // Pin (and charge) once per block *entry*, not per refill: only
        // crossing into a different block goes back to the buffer manager.
        let block = match &self.pin {
            Some((idx, block)) if *idx == block_idx => block,
            _ => {
                let block = self.buffers.pin(self.column, block_idx)?;
                &self.pin.insert((block_idx, block)).1
            }
        };
        block.decode_range_into(aligned - block_start, want_end - aligned, &mut self.staging)?;
        self.stage_start = aligned;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferMode;
    use crate::disk::DiskModel;
    use x100_compress::Codec;

    fn setup(n: usize, block: usize) -> (Column, BufferManager) {
        let values: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(7) % 100_000).collect();
        let mut b =
            crate::column::ColumnBuilder::with_block_size("c", Codec::Pfor { width: 8 }, block);
        b.extend(&values);
        (
            b.finish(),
            BufferManager::with_mode(DiskModel::raid12(), BufferMode::Hot, 0),
        )
    }

    #[test]
    fn full_scan_reproduces_column() {
        let (col, bm) = setup(5000, 1024);
        let expect = col.read_all();
        let mut scan = ColumnScan::new(&col, &bm, 600); // deliberately unaligned size
        let mut got = Vec::new();
        let mut v = Vec::new();
        loop {
            let n = scan.next_into(&mut v).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&v);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn vector_size_one_works() {
        let (col, bm) = setup(300, 128);
        let expect = col.read_all();
        let mut scan = ColumnScan::new(&col, &bm, 1);
        let mut v = Vec::new();
        for &e in &expect {
            assert_eq!(scan.next_into(&mut v).unwrap(), 1);
            assert_eq!(v[0], e);
        }
        assert_eq!(scan.next_into(&mut v).unwrap(), 0);
    }

    #[test]
    fn seek_skips_forward() {
        let (col, bm) = setup(5000, 1024);
        let expect = col.read_all();
        let mut scan = ColumnScan::new(&col, &bm, 128);
        let mut v = Vec::new();
        scan.seek(3000).unwrap();
        scan.next_into(&mut v).unwrap();
        assert_eq!(v, &expect[3000..3128]);
    }

    #[test]
    fn seek_backwards_also_works() {
        let (col, bm) = setup(1000, 256);
        let expect = col.read_all();
        let mut scan = ColumnScan::new(&col, &bm, 64);
        let mut v = Vec::new();
        scan.seek(900).unwrap();
        scan.next_into(&mut v).unwrap();
        scan.seek(10).unwrap();
        scan.next_into(&mut v).unwrap();
        assert_eq!(v, &expect[10..74]);
    }

    #[test]
    fn seek_past_end_rejected() {
        let (col, bm) = setup(100, 128);
        let mut scan = ColumnScan::new(&col, &bm, 10);
        assert!(scan.seek(101).is_err());
        assert!(scan.seek(100).is_ok()); // end position itself is fine
        let mut v = Vec::new();
        assert_eq!(scan.next_into(&mut v).unwrap(), 0);
    }

    #[test]
    fn scan_touches_buffer_manager_per_block() {
        let (col, bm) = setup(4096, 512); // 8 blocks
        let mut scan = ColumnScan::new(&col, &bm, 512);
        let mut v = Vec::new();
        while scan.next_into(&mut v).unwrap() > 0 {}
        assert_eq!(bm.stats().reads as usize, col.block_count());
    }

    #[test]
    fn skipping_scan_reads_fewer_blocks_than_full_scan() {
        let (col, bm) = setup(1 << 14, 1024); // 16 blocks
        let mut scan = ColumnScan::new(&col, &bm, 128);
        let mut v = Vec::new();
        // Touch only two far-apart regions.
        scan.seek(0).unwrap();
        scan.next_into(&mut v).unwrap();
        scan.seek(15 * 1024).unwrap();
        scan.next_into(&mut v).unwrap();
        assert!(bm.stats().reads < col.block_count() as u64);
    }

    #[test]
    fn scan_spans_block_boundaries_for_every_codec() {
        let data: Vec<u32> = (0..1000u32).map(|i| i % 777).collect();
        let bm = BufferManager::with_mode(DiskModel::raid12(), BufferMode::Hot, 0);
        for codec in [
            Codec::Raw,
            Codec::Pfor { width: 8 },
            Codec::PforDelta { width: 8 },
            Codec::Pdict { width: 8 },
        ] {
            let mut b = crate::column::ColumnBuilder::with_block_size("c", codec, 256);
            b.extend(&data);
            let col = b.finish();
            assert_eq!(col.block_count(), 4);
            let mut out = Vec::new();
            for (start, len) in [
                (0, 1000),  // all four blocks
                (128, 500), // mid-block start, two boundary crossings
                (256, 256), // exactly one whole block
                (768, 232), // into the short tail block
                (901, 99),  // unaligned start inside the tail block
            ] {
                let mut scan = ColumnScan::new(&col, &bm, len);
                scan.seek(start).unwrap();
                assert_eq!(scan.next_into(&mut out).unwrap(), len);
                assert_eq!(out, &data[start..start + len], "{codec:?} {start}+{len}");
            }
        }
    }

    #[test]
    fn empty_column_scan() {
        let col = Column::from_values("c", Codec::Raw, &[]);
        let bm = BufferManager::with_mode(DiskModel::raid12(), BufferMode::Hot, 0);
        let mut scan = ColumnScan::new(&col, &bm, 16);
        let mut v = Vec::new();
        assert_eq!(scan.next_into(&mut v).unwrap(), 0);
        assert!(scan.is_done());
    }
}
