//! The Project operator: computing new columns with vectorized expressions.
//!
//! Project evaluates a list of [`Expr`]s against each input batch and emits
//! a batch of the results (Figure 1's `Project` node computing
//! `vat_price`). In the IR plans it narrows each join's output back to
//! `[docid, payload_1..payload_k]` and computes the BM25 score (§3.2).

use x100_vector::{Batch, ValueType};

use crate::expr::Expr;
use crate::{ExecError, Operator};

/// Computes expressions over each input batch.
pub struct Project<'a> {
    input: Box<dyn Operator + 'a>,
    exprs: Vec<Expr>,
    schema: Vec<ValueType>,
}

impl<'a> Project<'a> {
    /// Creates a projection of `exprs` over `input`.
    pub fn new(input: Box<dyn Operator + 'a>, exprs: Vec<Expr>) -> Self {
        let schema = exprs.iter().map(Expr::output_type).collect();
        Project {
            input,
            exprs,
            schema,
        }
    }
}

impl Operator for Project<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Batch>, ExecError> {
        let Some(batch) = self.input.next()? else {
            return Ok(None);
        };
        let mut columns = Vec::with_capacity(self.exprs.len());
        for e in &self.exprs {
            columns.push(e.eval(&batch)?);
        }
        Ok(Some(Batch::new(columns)))
    }

    fn close(&mut self) {
        self.input.close();
    }

    fn schema(&self) -> &[ValueType] {
        &self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_f32_column;
    use crate::mem::MemSource;
    use x100_vector::Vector;

    fn src(values: &[i32]) -> Box<dyn Operator> {
        Box::new(MemSource::from_batch(Batch::new(vec![Vector::from_i32(
            values,
        )])))
    }

    #[test]
    fn computes_expressions() {
        let p = Project::new(
            src(&[1, 2, 3]),
            vec![Expr::mul(
                Expr::cast_f32(Expr::col_i32(0)),
                Expr::const_f32(10.0),
            )],
        );
        assert_eq!(collect_f32_column(p, 0).unwrap(), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn multiple_output_columns() {
        let p = Project::new(
            src(&[4]),
            vec![
                Expr::col_i32(0),
                Expr::add(Expr::cast_f32(Expr::col_i32(0)), Expr::const_f32(1.0)),
            ],
        );
        assert_eq!(p.schema(), &[ValueType::I32, ValueType::F32]);
        assert_eq!(collect_f32_column(p, 1).unwrap(), vec![5.0]);
    }

    #[test]
    fn plan_errors_propagate() {
        let floats = Box::new(MemSource::from_batch(Batch::new(vec![Vector::from_f32(
            &[1.0],
        )])));
        let mut p = Project::new(floats, vec![Expr::col_i32(0)]);
        p.open().unwrap();
        assert!(matches!(p.next(), Err(ExecError::Plan(_))));
        p.close();
    }
}
