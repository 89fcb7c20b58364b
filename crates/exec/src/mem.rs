//! In-memory batch sources.
//!
//! [`MemSource`] replays a prepared sequence of batches through the operator
//! interface — the stand-in for a [`crate::scan::TableScan`] in the join,
//! projection and top-N tests and in examples.

use x100_vector::{Batch, ValueType};

use crate::{ExecError, Operator};

/// An operator that yields a fixed sequence of batches.
#[derive(Debug)]
pub struct MemSource {
    batches: Vec<Batch>,
    schema: Vec<ValueType>,
    cursor: usize,
    opened: bool,
}

impl MemSource {
    /// Creates a source over prepared batches.
    ///
    /// # Panics
    /// Panics if a batch's column count disagrees with the schema.
    pub fn new(batches: Vec<Batch>, schema: Vec<ValueType>) -> Self {
        for b in &batches {
            assert_eq!(
                b.num_columns(),
                schema.len(),
                "batch column count must match schema"
            );
        }
        MemSource {
            batches,
            schema,
            cursor: 0,
            opened: false,
        }
    }

    /// Creates a source from a single batch, inferring the schema.
    pub fn from_batch(batch: Batch) -> Self {
        let schema = batch.columns().iter().map(|c| c.value_type()).collect();
        MemSource {
            batches: vec![batch],
            schema,
            cursor: 0,
            opened: false,
        }
    }
}

impl Operator for MemSource {
    fn open(&mut self) -> Result<(), ExecError> {
        self.cursor = 0;
        self.opened = true;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Batch>, ExecError> {
        if !self.opened {
            return Err(ExecError::Protocol("next() before open()"));
        }
        if self.cursor >= self.batches.len() {
            return Ok(None);
        }
        let batch = self.batches[self.cursor].clone();
        self.cursor += 1;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.opened = false;
    }

    fn schema(&self) -> &[ValueType] {
        &self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x100_vector::Vector;

    #[test]
    fn replays_batches_in_order() {
        let mut src = MemSource::new(
            vec![
                Batch::new(vec![Vector::from_i32(&[1])]),
                Batch::new(vec![Vector::from_i32(&[2, 3])]),
            ],
            vec![ValueType::I32],
        );
        src.open().unwrap();
        assert_eq!(src.next().unwrap().unwrap().column(0).as_i32(), &[1]);
        assert_eq!(src.next().unwrap().unwrap().column(0).as_i32(), &[2, 3]);
        assert!(src.next().unwrap().is_none());
        src.close();
    }

    #[test]
    fn next_before_open_is_protocol_error() {
        let mut src = MemSource::new(vec![], vec![]);
        assert!(matches!(src.next(), Err(ExecError::Protocol(_))));
    }

    #[test]
    fn reopen_restarts() {
        let mut src = MemSource::from_batch(Batch::new(vec![Vector::from_i32(&[7])]));
        src.open().unwrap();
        assert!(src.next().unwrap().is_some());
        assert!(src.next().unwrap().is_none());
        src.open().unwrap();
        assert!(src.next().unwrap().is_some());
    }

    #[test]
    fn schema_inferred_from_batch() {
        let src = MemSource::from_batch(Batch::new(vec![
            Vector::from_i32(&[1]),
            Vector::from_f32(&[1.0]),
        ]));
        assert_eq!(src.schema(), &[ValueType::I32, ValueType::F32]);
    }

    #[test]
    #[should_panic(expected = "must match schema")]
    fn schema_mismatch_rejected() {
        MemSource::new(
            vec![Batch::new(vec![Vector::from_i32(&[1])])],
            vec![ValueType::I32, ValueType::F32],
        );
    }
}
