//! Columnar batches — the unit of exchange in the operator pipeline.
//!
//! One `next()` call on an X100 operator produces one [`Batch`]: an aligned
//! set of vectors, one per output column, all of the same length. The
//! paper's Figure 1 shows such aligned vectors flowing up the operator
//! tree; in the IR plans (§3.2) they flow from `ScanSelect` through the
//! joins and `Project` into `TopN`.

use crate::vector::Vector;

/// An aligned set of column vectors.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    columns: Vec<Vector>,
}

impl Batch {
    /// Creates a batch from column vectors.
    ///
    /// # Panics
    /// Panics if the vectors have differing lengths — aligned vectors are
    /// the core invariant of the exchange format.
    pub fn new(columns: Vec<Vector>) -> Self {
        if let Some(first) = columns.first() {
            let len = first.len();
            assert!(
                columns.iter().all(|c| c.len() == len),
                "batch columns must be aligned (equal length)"
            );
        }
        Batch { columns }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Vector::len)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Borrows column `idx`.
    ///
    /// # Panics
    /// Panics if out of bounds — column indexes are resolved at plan time.
    #[inline]
    pub fn column(&self, idx: usize) -> &Vector {
        &self.columns[idx]
    }

    /// All columns.
    #[inline]
    pub fn columns(&self) -> &[Vector] {
        &self.columns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> Batch {
        Batch::new(vec![
            Vector::from_i32(&[1, 2, 3, 4]),
            Vector::from_f32(&[0.1, 0.2, 0.3, 0.4]),
        ])
    }

    #[test]
    fn new_checks_alignment() {
        let b = sample_batch();
        assert_eq!(b.num_rows(), 4);
        assert_eq!(b.num_columns(), 2);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_columns_rejected() {
        Batch::new(vec![Vector::from_i32(&[1]), Vector::from_i32(&[1, 2])]);
    }
}
