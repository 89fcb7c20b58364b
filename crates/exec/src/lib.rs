//! The X100 vectorized in-cache execution engine (§2, Figure 1).
//!
//! Operators follow the traditional Volcano `open()/next()/close()`
//! interface, but every `next()` returns a **vector of tuples** — a
//! [`Batch`] of aligned column vectors — instead of a single tuple.
//! "Vectorization of the iterator pipeline allows MonetDB/X100 primitives
//! ... to be implemented as simple loops over vectors", amortizing call
//! overhead over a full vector and letting the compiler emit data-parallel
//! code.
//!
//! The operator set is exactly what the paper's IR plans use (§3.2):
//!
//! * [`scan::TableScan`] — scan a (range of a) stored table at vector
//!   granularity; with a range restriction this is the paper's
//!   `ScanSelect(TD, term=t)` once the term range index resolves `t`.
//! * [`merge_join::MergeJoin`] / [`merge_join::MergeOuterJoin`] — combine
//!   sorted posting lists: boolean `AND` maps to the former, `OR` to the
//!   latter.
//! * [`project::Project`] — compute expressions ([`expr::Expr`]) built from
//!   vectorized primitives ([`primitives`]).
//! * [`topn::TopN`] — the top-N operator IR ranking needs.
//! * [`mem::MemSource`] — in-memory batches, the stand-in for a scan in
//!   tests and examples.
//!
//! X100's generic selection (selection vectors, `Select`) and hash
//! aggregation (Figure 1's `Aggregate`) are not reproduced: no IR plan
//! needs them.
//!
//! # Example: a tiny ranked OR
//!
//! ```
//! use x100_exec::prelude::*;
//! use x100_vector::{Batch, ValueType, Vector};
//!
//! // Two (docid, tf) posting lists.
//! let postings = |docid: &[i32], tf: &[i32]| -> Box<dyn Operator> {
//!     Box::new(MemSource::new(
//!         vec![Batch::new(vec![Vector::from_i32(docid), Vector::from_i32(tf)])],
//!         vec![ValueType::I32, ValueType::I32],
//!     ))
//! };
//! let a = postings(&[1, 2, 4], &[3, 1, 1]);
//! let b = postings(&[2, 4, 5], &[5, 1, 2]);
//! // a OR b: [docid_a, tf_a, docid_b, tf_b], the missing side zero-filled.
//! let joined = MergeOuterJoin::new(a, b, 0, 0, 1024).unwrap();
//! // [MAX(docid_a, docid_b), tf_a + tf_b]
//! let scored = Project::new(
//!     Box::new(joined),
//!     vec![
//!         Expr::max(Expr::col_i32(0), Expr::col_i32(2)),
//!         Expr::add(Expr::cast_f32(Expr::col_i32(1)), Expr::cast_f32(Expr::col_i32(3))),
//!     ],
//! );
//! let top = TopN::new(Box::new(scored), 1, 2, 1024).unwrap();
//! assert_eq!(collect_i32_column(top, 0).unwrap(), vec![2, 1]);
//! ```

pub mod expr;
pub mod mem;
pub mod merge_join;
pub mod primitives;
pub mod project;
pub mod scan;
pub mod topn;

use std::fmt;

use x100_vector::{Batch, ValueType};

/// Everything needed to assemble a pipeline.
pub mod prelude {
    pub use crate::expr::Expr;
    pub use crate::mem::MemSource;
    pub use crate::merge_join::{MergeJoin, MergeOuterJoin};
    pub use crate::project::Project;
    pub use crate::scan::TableScan;
    pub use crate::topn::TopN;
    pub use crate::{collect_batches, collect_f32_column, collect_i32_column, Operator};
}

/// Errors surfaced by query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Underlying storage failure.
    Storage(x100_storage::StorageError),
    /// Operator protocol misuse (e.g. `next()` before `open()`), or an
    /// input that breaks an operator's contract (a merge-join key that
    /// does not strictly increase).
    Protocol(&'static str),
    /// Plan shape error caught at runtime (column index/type mismatch).
    Plan(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::Protocol(what) => write!(f, "operator protocol violation: {what}"),
            ExecError::Plan(what) => write!(f, "plan error: {what}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<x100_storage::StorageError> for ExecError {
    fn from(e: x100_storage::StorageError) -> Self {
        ExecError::Storage(e)
    }
}

/// The pipelined operator interface: `open()`, then `next()` until it
/// returns `Ok(None)`, then `close()`.
pub trait Operator {
    /// Prepares the operator (allocates vector buffers, opens children).
    fn open(&mut self) -> Result<(), ExecError>;

    /// Produces the next vector of tuples, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Batch>, ExecError>;

    /// Releases resources (closes children).
    fn close(&mut self);

    /// Output column types.
    fn schema(&self) -> &[ValueType];
}

/// Runs a plan to completion, returning all non-empty batches.
pub fn collect_batches(mut op: impl Operator) -> Result<Vec<Batch>, ExecError> {
    op.open()?;
    let mut batches = Vec::new();
    while let Some(batch) = op.next()? {
        if !batch.is_empty() {
            batches.push(batch);
        }
    }
    op.close();
    Ok(batches)
}

/// Runs a plan and concatenates one `i32` output column.
pub fn collect_i32_column(op: impl Operator, col: usize) -> Result<Vec<i32>, ExecError> {
    let batches = collect_batches(op)?;
    let mut out = Vec::new();
    for b in &batches {
        out.extend_from_slice(b.column(col).as_i32());
    }
    Ok(out)
}

/// Runs a plan and concatenates one `f32` output column.
pub fn collect_f32_column(op: impl Operator, col: usize) -> Result<Vec<f32>, ExecError> {
    let batches = collect_batches(op)?;
    let mut out = Vec::new();
    for b in &batches {
        out.extend_from_slice(b.column(col).as_f32());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = ExecError::Plan("bad column".into());
        assert!(e.to_string().contains("bad column"));
        let e: ExecError = x100_storage::StorageError::UnknownColumn("x".into()).into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(ExecError::Protocol("next before open")
            .to_string()
            .contains("protocol"));
    }
}
