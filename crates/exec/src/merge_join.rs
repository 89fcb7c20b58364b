//! Merge joins over sorted streams — how boolean retrieval maps to algebra.
//!
//! "The table is ordered on (term,docid), which ... allows the occurrence
//! lists of two arbitrary terms to be combined efficiently using merge-join"
//! (§3.1). Boolean `AND` over posting lists is [`MergeJoin`] (inner),
//! boolean `OR` is [`MergeOuterJoin`] (full outer) — the paper's translation
//! of `"information AND (storing OR retrieval)"` composes exactly these
//! operators (§3.2).
//!
//! Both operators require each input stream to be **strictly increasing** on
//! its key column — true by construction for posting lists, where a docid
//! appears at most once per term. The restriction is checked on every row,
//! in every build: a posting list read from a damaged file may break it,
//! and the join then returns [`ExecError::Protocol`].
//!
//! On the outer join, rows missing from one side carry that side's columns
//! as zero. Term frequency 0 makes the BM25 contribution of a missing term
//! vanish, and `MAX(TD1.docid, TD2.docid)` (the paper's own construction)
//! recovers the real docid — so zero-filling is semantically the paper's
//! NULL handling specialized to IR.

use x100_vector::{Batch, ValueType, Vector, VectorData};

use crate::{ExecError, Operator};

/// One side of a merge: pulls batches, skips empty ones, exposes a row cursor.
struct SideCursor<'a> {
    op: Box<dyn Operator + 'a>,
    batch: Option<Batch>,
    row: usize,
    key_col: usize,
    last_key: Option<i32>,
    done: bool,
}

impl<'a> SideCursor<'a> {
    fn new(op: Box<dyn Operator + 'a>, key_col: usize) -> Self {
        SideCursor {
            op,
            batch: None,
            row: 0,
            key_col,
            last_key: None,
            done: false,
        }
    }

    fn open(&mut self) -> Result<(), ExecError> {
        self.batch = None;
        self.row = 0;
        self.last_key = None;
        self.done = false;
        self.op.open()
    }

    /// Ensures a current row exists; returns false at end of stream.
    fn advance_to_valid(&mut self) -> Result<bool, ExecError> {
        loop {
            if self.done {
                return Ok(false);
            }
            if let Some(b) = &self.batch {
                if self.row < b.num_rows() {
                    return Ok(true);
                }
            }
            match self.op.next()? {
                Some(b) => {
                    self.row = 0;
                    self.batch = (!b.is_empty()).then_some(b);
                }
                None => {
                    self.done = true;
                    self.batch = None;
                    return Ok(false);
                }
            }
        }
    }

    /// Current key. Caller must have ensured a valid row.
    fn key(&self) -> i32 {
        let b = self.batch.as_ref().expect("valid row");
        b.column(self.key_col).as_i32()[self.row]
    }

    /// Copies the current row's columns into the output builders.
    fn emit_row(&self, out: &mut [Vec<i32>]) {
        let b = self.batch.as_ref().expect("valid row");
        for (c, sink) in out.iter_mut().enumerate() {
            sink.push(b.column(c).as_i32()[self.row]);
        }
    }

    /// Pushes zeros for this side's columns (outer-join miss).
    fn emit_nulls(out: &mut [Vec<i32>]) {
        for sink in out.iter_mut() {
            sink.push(0);
        }
    }

    /// Moves past the current row; a key not above the last one is an
    /// error.
    fn step(&mut self) -> Result<(), ExecError> {
        let key = self.key();
        if self.last_key.is_some_and(|last| key <= last) {
            return Err(ExecError::Protocol(
                "merge-join input must be strictly increasing on the key",
            ));
        }
        self.last_key = Some(key);
        self.row += 1;
        Ok(())
    }
}

/// How unmatched rows are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinKind {
    Inner,
    FullOuter,
}

/// Shared machinery behind [`MergeJoin`] and [`MergeOuterJoin`].
struct MergeJoinCore<'a> {
    left: SideCursor<'a>,
    right: SideCursor<'a>,
    kind: JoinKind,
    schema: Vec<ValueType>,
    n_left: usize,
    n_right: usize,
    vector_size: usize,
}

impl<'a> MergeJoinCore<'a> {
    fn new(
        left: Box<dyn Operator + 'a>,
        right: Box<dyn Operator + 'a>,
        left_key: usize,
        right_key: usize,
        kind: JoinKind,
        vector_size: usize,
    ) -> Result<Self, ExecError> {
        let n_left = left.schema().len();
        let n_right = right.schema().len();
        if vector_size == 0 {
            return Err(ExecError::Plan(
                "join vector size must be at least 1".into(),
            ));
        }
        if left_key >= n_left || right_key >= n_right {
            return Err(ExecError::Plan("join key column out of range".into()));
        }
        if left.schema().iter().any(|&t| t != ValueType::I32)
            || right.schema().iter().any(|&t| t != ValueType::I32)
        {
            return Err(ExecError::Plan(
                "merge join supports i32 columns (posting lists)".into(),
            ));
        }
        let schema = vec![ValueType::I32; n_left + n_right];
        Ok(MergeJoinCore {
            left: SideCursor::new(left, left_key),
            right: SideCursor::new(right, right_key),
            kind,
            schema,
            n_left,
            n_right,
            vector_size,
        })
    }

    fn open(&mut self) -> Result<(), ExecError> {
        self.left.open()?;
        self.right.open()
    }

    fn next(&mut self) -> Result<Option<Batch>, ExecError> {
        let mut sinks: Vec<Vec<i32>> = (0..self.n_left + self.n_right)
            .map(|_| Vec::with_capacity(self.vector_size))
            .collect();
        let mut produced = 0;
        while produced < self.vector_size {
            let l_ok = self.left.advance_to_valid()?;
            let r_ok = self.right.advance_to_valid()?;
            let (lsinks, rsinks) = sinks.split_at_mut(self.n_left);
            match (l_ok, r_ok) {
                (true, true) => {
                    let (lk, rk) = (self.left.key(), self.right.key());
                    match lk.cmp(&rk) {
                        std::cmp::Ordering::Equal => {
                            self.left.emit_row(lsinks);
                            self.right.emit_row(rsinks);
                            self.left.step()?;
                            self.right.step()?;
                            produced += 1;
                        }
                        std::cmp::Ordering::Less => {
                            if self.kind == JoinKind::FullOuter {
                                self.left.emit_row(lsinks);
                                SideCursor::emit_nulls(rsinks);
                                produced += 1;
                            }
                            self.left.step()?;
                        }
                        std::cmp::Ordering::Greater => {
                            if self.kind == JoinKind::FullOuter {
                                SideCursor::emit_nulls(lsinks);
                                self.right.emit_row(rsinks);
                                produced += 1;
                            }
                            self.right.step()?;
                        }
                    }
                }
                (true, false) => {
                    if self.kind == JoinKind::Inner {
                        break; // no more matches possible
                    }
                    self.left.emit_row(lsinks);
                    SideCursor::emit_nulls(rsinks);
                    self.left.step()?;
                    produced += 1;
                }
                (false, true) => {
                    if self.kind == JoinKind::Inner {
                        break;
                    }
                    SideCursor::emit_nulls(lsinks);
                    self.right.emit_row(rsinks);
                    self.right.step()?;
                    produced += 1;
                }
                (false, false) => break,
            }
        }
        if produced == 0 {
            return Ok(None);
        }
        let columns = sinks
            .into_iter()
            .map(|v| Vector::from_data(VectorData::I32(v)))
            .collect();
        Ok(Some(Batch::new(columns)))
    }

    fn close(&mut self) {
        self.left.op.close();
        self.right.op.close();
    }
}

/// Inner merge join on strictly increasing i32 keys — boolean `AND`.
///
/// Output columns: all left columns, then all right columns.
pub struct MergeJoin<'a> {
    core: MergeJoinCore<'a>,
}

impl<'a> MergeJoin<'a> {
    /// Creates an inner merge join of `left` and `right` on the given key
    /// columns.
    pub fn new(
        left: Box<dyn Operator + 'a>,
        right: Box<dyn Operator + 'a>,
        left_key: usize,
        right_key: usize,
        vector_size: usize,
    ) -> Result<Self, ExecError> {
        Ok(MergeJoin {
            core: MergeJoinCore::new(
                left,
                right,
                left_key,
                right_key,
                JoinKind::Inner,
                vector_size,
            )?,
        })
    }
}

impl Operator for MergeJoin<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.core.open()
    }

    fn next(&mut self) -> Result<Option<Batch>, ExecError> {
        self.core.next()
    }

    fn close(&mut self) {
        self.core.close();
    }

    fn schema(&self) -> &[ValueType] {
        &self.core.schema
    }
}

/// Full outer merge join on strictly increasing i32 keys — boolean `OR`.
///
/// Unmatched sides are zero-filled (see module docs for why that is the
/// right NULL semantics for BM25).
pub struct MergeOuterJoin<'a> {
    core: MergeJoinCore<'a>,
}

impl<'a> MergeOuterJoin<'a> {
    /// Creates a full outer merge join of `left` and `right` on the given
    /// key columns.
    pub fn new(
        left: Box<dyn Operator + 'a>,
        right: Box<dyn Operator + 'a>,
        left_key: usize,
        right_key: usize,
        vector_size: usize,
    ) -> Result<Self, ExecError> {
        Ok(MergeOuterJoin {
            core: MergeJoinCore::new(
                left,
                right,
                left_key,
                right_key,
                JoinKind::FullOuter,
                vector_size,
            )?,
        })
    }
}

impl Operator for MergeOuterJoin<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.core.open()
    }

    fn next(&mut self) -> Result<Option<Batch>, ExecError> {
        self.core.next()
    }

    fn close(&mut self) {
        self.core.close();
    }

    fn schema(&self) -> &[ValueType] {
        &self.core.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_batches;
    use crate::mem::MemSource;

    /// Posting list as (docid, tf) batches.
    fn postings(rows: &[(i32, i32)]) -> Box<dyn Operator> {
        let docid: Vec<i32> = rows.iter().map(|&(d, _)| d).collect();
        let tf: Vec<i32> = rows.iter().map(|&(_, t)| t).collect();
        Box::new(MemSource::from_batch(Batch::new(vec![
            Vector::from_i32(&docid),
            Vector::from_i32(&tf),
        ])))
    }

    fn rows_of(batches: &[Batch]) -> Vec<Vec<i32>> {
        let mut rows = Vec::new();
        for b in batches {
            for r in 0..b.num_rows() {
                rows.push(
                    (0..b.num_columns())
                        .map(|c| b.column(c).as_i32()[r])
                        .collect(),
                );
            }
        }
        rows
    }

    #[test]
    fn inner_join_is_boolean_and() {
        let left = postings(&[(1, 10), (3, 30), (5, 50), (9, 90)]);
        let right = postings(&[(3, 1), (4, 2), (9, 3)]);
        let join = MergeJoin::new(left, right, 0, 0, 1024).unwrap();
        let rows = rows_of(&collect_batches(join).unwrap());
        assert_eq!(rows, vec![vec![3, 30, 3, 1], vec![9, 90, 9, 3]]);
    }

    #[test]
    fn outer_join_is_boolean_or() {
        let left = postings(&[(1, 10), (3, 30)]);
        let right = postings(&[(2, 5), (3, 7)]);
        let join = MergeOuterJoin::new(left, right, 0, 0, 1024).unwrap();
        let rows = rows_of(&collect_batches(join).unwrap());
        assert_eq!(
            rows,
            vec![vec![1, 10, 0, 0], vec![0, 0, 2, 5], vec![3, 30, 3, 7],]
        );
    }

    #[test]
    fn inner_join_empty_side_is_empty() {
        let join = MergeJoin::new(postings(&[]), postings(&[(1, 1)]), 0, 0, 64).unwrap();
        assert!(collect_batches(join).unwrap().is_empty());
    }

    #[test]
    fn outer_join_empty_side_passes_other_through() {
        let join =
            MergeOuterJoin::new(postings(&[]), postings(&[(1, 1), (2, 2)]), 0, 0, 64).unwrap();
        let rows = rows_of(&collect_batches(join).unwrap());
        assert_eq!(rows, vec![vec![0, 0, 1, 1], vec![0, 0, 2, 2]]);
    }

    #[test]
    fn disjoint_lists_inner_empty_outer_full() {
        let inner = MergeJoin::new(postings(&[(1, 1)]), postings(&[(2, 2)]), 0, 0, 64).unwrap();
        assert!(collect_batches(inner).unwrap().is_empty());
        let outer =
            MergeOuterJoin::new(postings(&[(1, 1)]), postings(&[(2, 2)]), 0, 0, 64).unwrap();
        assert_eq!(rows_of(&collect_batches(outer).unwrap()).len(), 2);
    }

    #[test]
    fn respects_vector_size_in_output() {
        let left = postings(&(0..100).map(|i| (i, i)).collect::<Vec<_>>());
        let right = postings(&(0..100).map(|i| (i, i * 2)).collect::<Vec<_>>());
        let mut join = MergeJoin::new(left, right, 0, 0, 16).unwrap();
        join.open().unwrap();
        let first = join.next().unwrap().unwrap();
        assert_eq!(first.num_rows(), 16);
        join.close();
    }

    #[test]
    fn join_across_multiple_input_batches() {
        let left = Box::new(MemSource::new(
            vec![
                Batch::new(vec![Vector::from_i32(&[1, 2]), Vector::from_i32(&[1, 1])]),
                Batch::new(vec![Vector::from_i32(&[5, 8]), Vector::from_i32(&[1, 1])]),
            ],
            vec![ValueType::I32, ValueType::I32],
        ));
        let right = postings(&[(2, 9), (8, 9)]);
        let join = MergeJoin::new(left, right, 0, 0, 1024).unwrap();
        let rows = rows_of(&collect_batches(join).unwrap());
        assert_eq!(rows, vec![vec![2, 1, 2, 9], vec![8, 1, 8, 9]]);
    }

    #[test]
    fn key_out_of_range_rejected() {
        assert!(MergeJoin::new(postings(&[]), postings(&[]), 5, 0, 64).is_err());
    }

    /// A key that repeats or descends — a damaged posting list — is a
    /// typed error from either join, in every build, on either side.
    #[test]
    fn non_ascending_input_is_a_typed_error() {
        let expect = Err(ExecError::Protocol(
            "merge-join input must be strictly increasing on the key",
        ));
        for bad in [&[(1, 1), (5, 1), (3, 1)][..], &[(2, 1), (2, 1)]] {
            let inner = MergeJoin::new(postings(bad), postings(&[(1, 1), (9, 1)]), 0, 0, 64);
            assert_eq!(collect_batches(inner.unwrap()).map(|_| ()), expect);
            let outer = MergeOuterJoin::new(postings(&[(4, 1)]), postings(bad), 0, 0, 64);
            assert_eq!(collect_batches(outer.unwrap()).map(|_| ()), expect);
        }
    }

    #[test]
    fn zero_vector_size_rejected_at_build() {
        assert!(MergeJoin::new(postings(&[(1, 1)]), postings(&[(1, 1)]), 0, 0, 0).is_err());
        assert!(MergeOuterJoin::new(postings(&[(1, 1)]), postings(&[(1, 1)]), 0, 0, 0).is_err());
    }
}

#[cfg(test)]
mod protocol_tests {
    use super::*;
    use crate::mem::MemSource;

    fn empty_src() -> Box<dyn Operator> {
        Box::new(MemSource::new(vec![], vec![ValueType::I32, ValueType::I32]))
    }

    #[test]
    fn join_of_two_empty_streams() {
        let mut j = MergeJoin::new(empty_src(), empty_src(), 0, 0, 8).unwrap();
        j.open().unwrap();
        assert!(j.next().unwrap().is_none());
        j.close();
        let mut j = MergeOuterJoin::new(empty_src(), empty_src(), 0, 0, 8).unwrap();
        j.open().unwrap();
        assert!(j.next().unwrap().is_none());
        j.close();
    }

    #[test]
    fn reopen_restarts_join() {
        let mk = || -> Box<dyn Operator> {
            Box::new(MemSource::from_batch(Batch::new(vec![
                Vector::from_i32(&[1, 2, 3]),
                Vector::from_i32(&[9, 9, 9]),
            ])))
        };
        let mut j = MergeJoin::new(mk(), mk(), 0, 0, 8).unwrap();
        j.open().unwrap();
        let first = j.next().unwrap().unwrap().num_rows();
        assert_eq!(first, 3);
        assert!(j.next().unwrap().is_none());
        j.open().unwrap();
        assert_eq!(j.next().unwrap().unwrap().num_rows(), 3);
        j.close();
    }

    #[test]
    fn non_i32_inputs_rejected_at_build() {
        let floats = Box::new(MemSource::from_batch(Batch::new(vec![Vector::from_f32(
            &[1.0],
        )])));
        assert!(MergeJoin::new(floats, empty_src(), 0, 0, 8).is_err());
    }

    #[test]
    fn outer_join_schema_width_is_sum_of_inputs() {
        let j = MergeOuterJoin::new(empty_src(), empty_src(), 0, 0, 8).unwrap();
        assert_eq!(j.schema().len(), 4);
    }
}
