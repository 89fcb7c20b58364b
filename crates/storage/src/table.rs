//! Tables: named sets of equal-length columns.
//!
//! The IR layer of the paper represents its index as plain relational
//! tables — `TD[term, docid, tf]`, `D[docid, name, length]`, `T[term, ftd]`
//! (§3.1) — so the storage layer needs only the thinnest relational veneer:
//! a table is a name plus equal-length compressed [`Column`]s. The string
//! attributes (`name`, `term`) are record pages framed inside such columns
//! by the IR layer.

use std::collections::HashMap;

use crate::column::Column;
use crate::StorageError;

/// A named collection of equal-length columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    name: String,
    row_count: usize,
    columns: Vec<Column>,
    by_name: HashMap<String, usize>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows (0 until the first column is added).
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Adds a column.
    ///
    /// # Panics
    /// Panics if the column's length differs from existing columns.
    pub fn add_column(&mut self, column: Column) -> &mut Self {
        self.check_len(column.len());
        self.by_name
            .insert(column.name().to_owned(), self.columns.len());
        self.columns.push(column);
        self
    }

    fn check_len(&mut self, len: usize) {
        if self.columns.is_empty() {
            self.row_count = len;
        } else {
            assert_eq!(
                len, self.row_count,
                "column length must match table row count"
            );
        }
    }

    /// Looks up a column by name.
    pub fn column(&self, name: &str) -> Result<&Column, StorageError> {
        self.by_name
            .get(name)
            .map(|&i| &self.columns[i])
            .ok_or_else(|| StorageError::UnknownColumn(name.to_owned()))
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Total compressed bytes across all columns.
    pub fn compressed_bytes(&self) -> usize {
        self.columns.iter().map(Column::compressed_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x100_compress::Codec;

    #[test]
    fn add_and_lookup_columns() {
        let mut t = Table::new("TD");
        t.add_column(Column::from_values("docid", Codec::Raw, &[1, 2, 3]));
        t.add_column(Column::from_values("tf", Codec::Raw, &[5, 1, 2]));
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.column("tf").unwrap().read_all(), vec![5, 1, 2]);
        assert!(matches!(
            t.column("nope"),
            Err(StorageError::UnknownColumn(_))
        ));
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_lengths_rejected() {
        let mut t = Table::new("T");
        t.add_column(Column::from_values("a", Codec::Raw, &[1, 2]));
        t.add_column(Column::from_values("b", Codec::Raw, &[1]));
    }

    #[test]
    fn empty_table() {
        let t = Table::new("empty");
        assert_eq!(t.row_count(), 0);
        assert!(t.columns().is_empty());
    }
}
