//! The TopN operator — IR ranking's missing relational primitive.
//!
//! The related-work discussion in the paper (§5) points at proposals to
//! extend relational algebra with a top-k operator; the paper's own BM25
//! query plan ends in `TopN(..., [score DESC], 20)` (§3.2). This operator
//! keeps the best `n` rows by a score column in a bounded min-heap — O(rows
//! · log n) with only `n` rows of state, never a full sort.
//!
//! Ties on the score break toward the earlier input row (lower docid for
//! posting-list inputs), making results deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use x100_vector::{Batch, ValueType, Vector, VectorData};

use crate::{ExecError, Operator};

/// One buffered value (rows can mix i32 and f32 columns).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cell {
    I32(i32),
    F32(f32),
}

/// A heap entry: score, arrival order, carried row.
#[derive(Debug, Clone)]
struct HeapRow {
    score: f32,
    seq: u64,
    row: Vec<Cell>,
}

impl PartialEq for HeapRow {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapRow {}

impl PartialOrd for HeapRow {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapRow {
    fn cmp(&self, other: &Self) -> Ordering {
        // Primary: score. Secondary: later arrivals order as *smaller*, so
        // on a tie the heap evicts the later row and keeps the earlier one.
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Keeps the top `n` rows by a score column, descending.
pub struct TopN<'a> {
    input: Box<dyn Operator + 'a>,
    score_col: usize,
    n: usize,
    vector_size: usize,
    schema: Vec<ValueType>,
    /// Sorted results, filled when the input is drained.
    results: Option<Vec<HeapRow>>,
    cursor: usize,
}

impl<'a> TopN<'a> {
    /// Creates a top-`n` over `input`, ordered by `score_col` descending
    /// (an i32 score column ranks by its value as f32).
    pub fn new(
        input: Box<dyn Operator + 'a>,
        score_col: usize,
        n: usize,
        vector_size: usize,
    ) -> Result<Self, ExecError> {
        if vector_size == 0 {
            return Err(ExecError::Plan(
                "TopN vector size must be at least 1".into(),
            ));
        }
        let schema = input.schema().to_vec();
        if score_col >= schema.len() {
            return Err(ExecError::Plan("TopN score column out of range".into()));
        }
        Ok(TopN {
            input,
            score_col,
            n,
            vector_size,
            schema,
            results: None,
            cursor: 0,
        })
    }

    fn drain(&mut self) -> Result<(), ExecError> {
        let mut heap: BinaryHeap<std::cmp::Reverse<HeapRow>> =
            BinaryHeap::with_capacity(self.n + 1);
        let mut seq = 0u64;
        while let Some(batch) = self.input.next()? {
            let rows = batch.num_rows();
            if rows == 0 {
                continue;
            }
            let scores: Vec<f32> = match batch.column(self.score_col).data() {
                VectorData::F32(v) => v.clone(),
                VectorData::I32(v) => v.iter().map(|&x| x as f32).collect(),
            };
            for r in 0..rows {
                let score = scores[r];
                seq += 1;
                if self.n == 0 {
                    continue;
                }
                // Cheap reject: full heap and the score does not beat the
                // current minimum (ties keep the incumbent).
                if heap.len() == self.n {
                    let min = &heap.peek().expect("non-empty").0;
                    if score <= min.score {
                        continue;
                    }
                }
                let row: Vec<Cell> = batch
                    .columns()
                    .iter()
                    .map(|c| match c.data() {
                        VectorData::I32(v) => Cell::I32(v[r]),
                        VectorData::F32(v) => Cell::F32(v[r]),
                    })
                    .collect();
                heap.push(std::cmp::Reverse(HeapRow { score, seq, row }));
                if heap.len() > self.n {
                    heap.pop();
                }
            }
        }
        let mut rows: Vec<HeapRow> = heap.into_iter().map(|r| r.0).collect();
        // Descending score, ascending arrival for ties.
        rows.sort_unstable_by(|a, b| b.cmp(a));
        self.results = Some(rows);
        self.cursor = 0;
        Ok(())
    }
}

impl Operator for TopN<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.results = None;
        self.cursor = 0;
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Batch>, ExecError> {
        if self.results.is_none() {
            self.drain()?;
        }
        let results = self.results.as_ref().expect("drained");
        if self.cursor >= results.len() {
            return Ok(None);
        }
        let end = (self.cursor + self.vector_size).min(results.len());
        let slice = &results[self.cursor..end];
        self.cursor = end;

        let mut columns: Vec<VectorData> = self
            .schema
            .iter()
            .map(|t| match t {
                ValueType::F32 => VectorData::F32(Vec::with_capacity(slice.len())),
                _ => VectorData::I32(Vec::with_capacity(slice.len())),
            })
            .collect();
        for hr in slice {
            for (c, cell) in hr.row.iter().enumerate() {
                match (cell, &mut columns[c]) {
                    (Cell::I32(v), VectorData::I32(col)) => col.push(*v),
                    (Cell::F32(v), VectorData::F32(col)) => col.push(*v),
                    _ => unreachable!("cell/type mismatch"),
                }
            }
        }
        Ok(Some(Batch::new(
            columns.into_iter().map(Vector::from_data).collect(),
        )))
    }

    fn close(&mut self) {
        self.results = None;
        self.input.close();
    }

    fn schema(&self) -> &[ValueType] {
        &self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_batches;
    use crate::mem::MemSource;

    fn src(ids: &[i32], scores: &[f32]) -> Box<dyn Operator> {
        Box::new(MemSource::from_batch(Batch::new(vec![
            Vector::from_i32(ids),
            Vector::from_f32(scores),
        ])))
    }

    fn top_rows(op: TopN) -> Vec<(i32, f32)> {
        let batches = collect_batches(op).unwrap();
        let mut rows = Vec::new();
        for b in &batches {
            for r in 0..b.num_rows() {
                rows.push((b.column(0).as_i32()[r], b.column(1).as_f32()[r]));
            }
        }
        rows
    }

    #[test]
    fn keeps_best_n_descending() {
        let op = TopN::new(src(&[1, 2, 3, 4, 5], &[0.5, 2.0, 1.0, 9.0, 0.1]), 1, 3, 16).unwrap();
        assert_eq!(top_rows(op), vec![(4, 9.0), (2, 2.0), (3, 1.0)]);
    }

    #[test]
    fn n_larger_than_input_returns_all_sorted() {
        let op = TopN::new(src(&[1, 2], &[1.0, 5.0]), 1, 20, 16).unwrap();
        assert_eq!(top_rows(op), vec![(2, 5.0), (1, 1.0)]);
    }

    #[test]
    fn ties_prefer_earlier_rows() {
        let op = TopN::new(src(&[10, 20, 30], &[1.0, 1.0, 1.0]), 1, 2, 16).unwrap();
        assert_eq!(top_rows(op), vec![(10, 1.0), (20, 1.0)]);
    }

    #[test]
    fn top_zero_is_empty() {
        let op = TopN::new(src(&[1], &[1.0]), 1, 0, 16).unwrap();
        assert!(top_rows(op).is_empty());
    }

    #[test]
    fn i32_score_column_works() {
        let op = TopN::new(
            Box::new(MemSource::from_batch(Batch::new(vec![Vector::from_i32(
                &[3, 9, 1],
            )]))),
            0,
            2,
            16,
        )
        .unwrap();
        let batches = collect_batches(op).unwrap();
        assert_eq!(batches[0].column(0).as_i32(), &[9, 3]);
    }

    #[test]
    fn negative_and_nan_free_scores_order_totally() {
        let op = TopN::new(src(&[1, 2, 3], &[-1.0, -3.0, 0.0]), 1, 3, 16).unwrap();
        assert_eq!(top_rows(op), vec![(3, 0.0), (1, -1.0), (2, -3.0)]);
    }

    #[test]
    fn bad_score_column_rejected() {
        assert!(TopN::new(src(&[], &[]), 7, 3, 16).is_err());
    }

    #[test]
    fn zero_vector_size_rejected_at_build() {
        assert!(TopN::new(src(&[1], &[1.0]), 1, 2, 0).is_err());
    }

    #[test]
    fn results_chunked_by_vector_size() {
        let ids: Vec<i32> = (0..50).collect();
        let scores: Vec<f32> = (0..50).map(|i| i as f32).collect();
        let mut op = TopN::new(src(&ids, &scores), 1, 40, 16).unwrap();
        op.open().unwrap();
        assert_eq!(op.next().unwrap().unwrap().num_rows(), 16);
        op.close();
    }
}
