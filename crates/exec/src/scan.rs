//! Table scans at vector granularity.
//!
//! [`TableScan`] reads one or more numeric columns of a stored
//! [`x100_storage::Table`] through the buffer manager, producing one batch
//! of `vector_size` rows per `next()`. A row-range restriction turns it
//! into the paper's `ScanSelect(TD, term=t)`: the IR layer's term range
//! index maps a term to a contiguous `[start, end)` slice of the TD table,
//! and the scan touches only the blocks covering that slice.
//!
//! Stored values are `u32`; they surface as `i32` vectors (docids and term
//! frequencies are far below `i32::MAX` — enforced at index build time).

use std::ops::Range;

use x100_storage::{BufferManager, ColumnScan, Table};
use x100_vector::{Batch, ValueType, Vector, VectorData};

use crate::{ExecError, Operator};

/// Scans a contiguous row range of selected columns of a table.
pub struct TableScan<'a> {
    table: &'a Table,
    buffers: &'a BufferManager,
    column_names: Vec<String>,
    schema: Vec<ValueType>,
    range: Range<usize>,
    vector_size: usize,
    scans: Vec<ColumnScan<'a>>,
    pos: usize,
    scratch: Vec<u32>,
}

impl<'a> TableScan<'a> {
    /// Full-table scan of the named columns.
    pub fn new(
        table: &'a Table,
        buffers: &'a BufferManager,
        columns: &[&str],
        vector_size: usize,
    ) -> Result<Self, ExecError> {
        Self::with_range(table, buffers, columns, 0..table.row_count(), vector_size)
    }

    /// Scan restricted to rows `[range.start, range.end)`.
    pub fn with_range(
        table: &'a Table,
        buffers: &'a BufferManager,
        columns: &[&str],
        range: Range<usize>,
        vector_size: usize,
    ) -> Result<Self, ExecError> {
        if vector_size == 0 {
            return Err(ExecError::Plan(
                "scan vector size must be at least 1".into(),
            ));
        }
        if range.end > table.row_count() || range.start > range.end {
            return Err(ExecError::Plan(format!(
                "scan range {range:?} invalid for table of {} rows",
                table.row_count()
            )));
        }
        // Validate the columns exist up front.
        for name in columns {
            table.column(name)?;
        }
        Ok(TableScan {
            table,
            buffers,
            column_names: columns.iter().map(|s| (*s).to_owned()).collect(),
            schema: vec![ValueType::I32; columns.len()],
            range,
            vector_size,
            scans: Vec::new(),
            pos: 0,
            scratch: Vec::new(),
        })
    }
}

impl Operator for TableScan<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.scans.clear();
        for name in &self.column_names {
            let col = self.table.column(name)?;
            let mut scan = ColumnScan::new(col, self.buffers, self.vector_size);
            scan.seek(self.range.start)?;
            self.scans.push(scan);
        }
        self.pos = self.range.start;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Batch>, ExecError> {
        if self.scans.is_empty() && !self.column_names.is_empty() {
            return Err(ExecError::Protocol("next() before open()"));
        }
        let remaining = self.range.end.saturating_sub(self.pos);
        if remaining == 0 {
            return Ok(None);
        }
        let want = self.vector_size.min(remaining);
        let mut columns = Vec::with_capacity(self.scans.len());
        for scan in &mut self.scans {
            // ColumnScan yields up to vector_size values; clamp to the
            // range end by re-seeking is unnecessary — just truncate.
            let produced = scan.next_into(&mut self.scratch)?;
            debug_assert!(produced >= want, "columns are equal length");
            self.scratch.truncate(want);
            let data: Vec<i32> = self.scratch.iter().map(|&v| v as i32).collect();
            columns.push(Vector::from_data(VectorData::I32(data)));
            // Keep all column cursors aligned with the logical position.
            scan.seek(self.pos + want)?;
        }
        self.pos += want;
        Ok(Some(Batch::new(columns)))
    }

    fn close(&mut self) {
        self.scans.clear();
    }

    fn schema(&self) -> &[ValueType] {
        &self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_i32_column;
    use x100_compress::Codec;
    use x100_storage::{BufferMode, Column, DiskModel};

    fn setup() -> (Table, BufferManager) {
        let docid: Vec<u32> = (0..3000u32).map(|i| i * 2).collect();
        let tf: Vec<u32> = (0..3000u32).map(|i| 1 + i % 9).collect();
        let mut table = Table::new("TD");
        table.add_column(Column::from_values(
            "docid",
            Codec::PforDelta { width: 8 },
            &docid,
        ));
        table.add_column(Column::from_values("tf", Codec::Pfor { width: 8 }, &tf));
        let bm = BufferManager::with_mode(DiskModel::raid12(), BufferMode::Hot, 0);
        (table, bm)
    }

    #[test]
    fn full_scan_matches_source() {
        let (table, bm) = setup();
        let scan = TableScan::new(&table, &bm, &["docid", "tf"], 512).unwrap();
        let docids = collect_i32_column(scan, 0).unwrap();
        assert_eq!(docids.len(), 3000);
        assert_eq!(docids[10], 20);
        let scan = TableScan::new(&table, &bm, &["tf"], 512).unwrap();
        let tf = collect_i32_column(scan, 0).unwrap();
        assert_eq!(tf[10], 1 + 10 % 9);
    }

    #[test]
    fn range_scan_is_scanselect() {
        let (table, bm) = setup();
        let scan = TableScan::with_range(&table, &bm, &["docid"], 100..228, 50).unwrap();
        let docids = collect_i32_column(scan, 0).unwrap();
        assert_eq!(docids.len(), 128);
        assert_eq!(docids[0], 200);
        assert_eq!(docids[127], 454);
    }

    #[test]
    fn empty_range_yields_nothing() {
        let (table, bm) = setup();
        let scan = TableScan::with_range(&table, &bm, &["docid"], 5..5, 50).unwrap();
        assert!(collect_i32_column(scan, 0).unwrap().is_empty());
    }

    #[test]
    fn invalid_range_rejected() {
        let (table, bm) = setup();
        assert!(TableScan::with_range(&table, &bm, &["docid"], 0..9999, 50).is_err());
    }

    #[test]
    fn zero_vector_size_rejected_at_build() {
        let (table, bm) = setup();
        assert!(TableScan::new(&table, &bm, &["docid"], 0).is_err());
        assert!(TableScan::with_range(&table, &bm, &["docid"], 0..10, 0).is_err());
    }

    #[test]
    fn unknown_column_rejected_at_build() {
        let (table, bm) = setup();
        assert!(TableScan::new(&table, &bm, &["nope"], 50).is_err());
    }

    #[test]
    fn vector_size_respected() {
        let (table, bm) = setup();
        let mut scan = TableScan::new(&table, &bm, &["docid"], 700).unwrap();
        scan.open().unwrap();
        let first = scan.next().unwrap().unwrap();
        assert_eq!(first.num_rows(), 700);
        scan.close();
    }
}

#[cfg(test)]
mod buffer_interaction_tests {
    use super::*;
    use crate::collect_i32_column;
    use x100_compress::Codec;
    use x100_storage::{BufferMode, Column, ColumnBuilder, DiskModel};

    fn multi_block_table() -> Table {
        let values: Vec<u32> = (0..2048u32).collect();
        let mut b = ColumnBuilder::with_block_size("v", Codec::PforDelta { width: 8 }, 256);
        b.extend(&values);
        let mut table = Table::new("t");
        table.add_column(b.finish());
        table
    }

    #[test]
    fn range_scan_touches_only_covering_blocks() {
        let table = multi_block_table();
        let bm = BufferManager::with_mode(DiskModel::raid12(), BufferMode::Hot, 0);
        // Rows 512..768 live entirely in block 2 of 8.
        let scan = TableScan::with_range(&table, &bm, &["v"], 512..768, 128).unwrap();
        let got = collect_i32_column(scan, 0).unwrap();
        assert_eq!(got.len(), 256);
        assert_eq!(bm.stats().reads, 1, "only one block should be charged");
    }

    #[test]
    fn full_scan_charges_every_block_once() {
        let table = multi_block_table();
        let bm = BufferManager::with_mode(DiskModel::raid12(), BufferMode::Hot, 0);
        let scan = TableScan::new(&table, &bm, &["v"], 100).unwrap();
        let got = collect_i32_column(scan, 0).unwrap();
        assert_eq!(got.len(), 2048);
        assert_eq!(bm.stats().reads, 8);
        // A second scan over a hot pool is free.
        let scan = TableScan::new(&table, &bm, &["v"], 100).unwrap();
        let _ = collect_i32_column(scan, 0).unwrap();
        assert_eq!(bm.stats().reads, 8);
    }

    #[test]
    fn two_column_scan_keeps_columns_aligned() {
        let a: Vec<u32> = (0..1000u32).collect();
        let b: Vec<u32> = (0..1000u32).map(|i| i * 7 % 997).collect();
        let mut table = Table::new("t");
        table.add_column(Column::from_values("a", Codec::Raw, &a));
        table.add_column(Column::from_values("b", Codec::Pfor { width: 8 }, &b));
        let bm = BufferManager::with_mode(DiskModel::instant(), BufferMode::Hot, 0);
        let mut scan = TableScan::with_range(&table, &bm, &["a", "b"], 100..900, 333).unwrap();
        scan.open().unwrap();
        while let Some(batch) = scan.next().unwrap() {
            let xs = batch.column(0).as_i32();
            let ys = batch.column(1).as_i32();
            for (x, y) in xs.iter().zip(ys) {
                assert_eq!(*y as u32, (*x as u32) * 7 % 997, "row misalignment at {x}");
            }
        }
        scan.close();
    }
}
