//! Expression trees evaluated one vector at a time.
//!
//! An [`Expr`] is the plan-side description of a computation; evaluating it
//! against a [`Batch`] dispatches to the vectorized primitives of
//! [`crate::primitives`] node by node. The per-node dispatch cost (a `match`
//! and a recursive call) is paid once per *vector*, not per value — exactly
//! the amortization argument of §2.
//!
//! The expression language is exactly what the IR plans build (§3.2):
//! `f32` arithmetic for BM25, `max` over two `i32` docid columns (the outer
//! join's `MAX(TD1.docid, TD2.docid)`), an i32→f32 cast, a bit-cast for
//! stored `f32` scores, and a positional *gather* through a shared lookup
//! array. The gather is how we express the paper's join with the dense
//! docid-indexed document table `D` (fetching `doclen[docid]` inside the
//! BM25 formula) without a general hash join on the hot path.

use std::sync::Arc;

use x100_vector::{Batch, ValueType, Vector, VectorData};

use crate::primitives as prim;
use crate::ExecError;

/// A typed, vectorized scalar expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Read an `i32` input column.
    ColI32(usize),
    /// An `f32` constant.
    ConstF32(f32),
    /// Element-wise addition (f32 only).
    Add(Box<Expr>, Box<Expr>),
    /// Element-wise multiplication (f32 only).
    Mul(Box<Expr>, Box<Expr>),
    /// Element-wise division (f32 only).
    Div(Box<Expr>, Box<Expr>),
    /// Element-wise maximum (i32 only) — `MAX(TD1.docid, TD2.docid)` in the
    /// paper's outer-join query.
    Max(Box<Expr>, Box<Expr>),
    /// Cast i32 to f32.
    CastF32(Box<Expr>),
    /// Reinterpret i32 *bits* as f32 (`f32::from_bits`). Materialized score
    /// columns are stored and merge-joined as opaque 32-bit integers; this
    /// node recovers the float at scoring time. The all-zero bit pattern an
    /// outer join emits for a missing side decodes to `0.0`, which is the
    /// correct "term absent" score.
    F32FromBits(Box<Expr>),
    /// `values[index[i]]` with an i32 index expression — positional join
    /// against a dense lookup table (document lengths).
    GatherI32 {
        values: Arc<Vec<i32>>,
        index: Box<Expr>,
    },
}

// The arithmetic constructors intentionally mirror the paper's primitive
// names (`map_add_*`, ...) rather than implementing `std::ops`: an `Expr` is
// a *plan node builder*, and `a + b` syntax would suggest eager evaluation.
#[allow(clippy::should_implement_trait)]
impl Expr {
    // -- ergonomic constructors ------------------------------------------

    /// An i32 column reference.
    pub fn col_i32(idx: usize) -> Expr {
        Expr::ColI32(idx)
    }

    /// An f32 constant.
    pub fn const_f32(v: f32) -> Expr {
        Expr::ConstF32(v)
    }

    /// `a + b`
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Box::new(a), Box::new(b))
    }

    /// `a * b`
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }

    /// `a / b`
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Div(Box::new(a), Box::new(b))
    }

    /// `max(a, b)`
    pub fn max(a: Expr, b: Expr) -> Expr {
        Expr::Max(Box::new(a), Box::new(b))
    }

    /// `a as f32`
    pub fn cast_f32(a: Expr) -> Expr {
        Expr::CastF32(Box::new(a))
    }

    /// `f32::from_bits(a as u32)`
    pub fn f32_from_bits(a: Expr) -> Expr {
        Expr::F32FromBits(Box::new(a))
    }

    /// `values[a]` (i32 payload).
    pub fn gather_i32(values: Arc<Vec<i32>>, index: Expr) -> Expr {
        Expr::GatherI32 {
            values,
            index: Box::new(index),
        }
    }

    /// The expression's output type given no context (types are intrinsic
    /// to the node shapes in this small language).
    pub fn output_type(&self) -> ValueType {
        match self {
            Expr::ColI32(_) | Expr::Max(..) | Expr::GatherI32 { .. } => ValueType::I32,
            Expr::ConstF32(_)
            | Expr::Add(..)
            | Expr::Mul(..)
            | Expr::Div(..)
            | Expr::CastF32(_)
            | Expr::F32FromBits(_) => ValueType::F32,
        }
    }

    /// Evaluates against a batch, producing one vector of `batch.num_rows()`
    /// values.
    pub fn eval(&self, batch: &Batch) -> Result<Vector, ExecError> {
        let n = batch.num_rows();
        match self {
            Expr::ColI32(idx) => {
                let col = get_col(batch, *idx)?;
                if col.value_type() != ValueType::I32 {
                    return Err(type_err("ColI32", col.value_type()));
                }
                Ok(col.clone())
            }
            Expr::ConstF32(v) => Ok(Vector::from_data(VectorData::F32(vec![*v; n]))),
            Expr::Add(a, b) => self.eval_binary(batch, a, b, BinOp::Add),
            Expr::Mul(a, b) => self.eval_binary(batch, a, b, BinOp::Mul),
            Expr::Div(a, b) => self.eval_binary(batch, a, b, BinOp::Div),
            Expr::Max(a, b) => {
                let (va, vb) = (a.eval(batch)?, b.eval(batch)?);
                let mut out = Vec::new();
                prim::map_max_i32_col_i32_col(as_i32(&va)?, as_i32(&vb)?, &mut out);
                Ok(Vector::from_data(VectorData::I32(out)))
            }
            Expr::CastF32(a) => {
                let va = a.eval(batch)?;
                let mut out = Vec::new();
                prim::map_i32_col_to_f32(as_i32(&va)?, &mut out);
                Ok(Vector::from_data(VectorData::F32(out)))
            }
            Expr::F32FromBits(a) => {
                let va = a.eval(batch)?;
                let bits = as_i32(&va)?;
                let out: Vec<f32> = bits.iter().map(|&x| f32::from_bits(x as u32)).collect();
                Ok(Vector::from_data(VectorData::F32(out)))
            }
            Expr::GatherI32 { values, index } => {
                let vi = index.eval(batch)?;
                let idx = as_i32(&vi)?;
                let mut out = Vec::with_capacity(idx.len());
                for &i in idx {
                    let v = values.get(i as usize).copied().ok_or_else(|| {
                        ExecError::Plan(format!("gather index {i} out of bounds"))
                    })?;
                    out.push(v);
                }
                Ok(Vector::from_data(VectorData::I32(out)))
            }
        }
    }

    fn eval_binary(
        &self,
        batch: &Batch,
        a: &Expr,
        b: &Expr,
        op: BinOp,
    ) -> Result<Vector, ExecError> {
        let (va, vb) = (a.eval(batch)?, b.eval(batch)?);
        let (ta, tb) = (va.value_type(), vb.value_type());
        if (ta, tb) != (ValueType::F32, ValueType::F32) {
            return Err(ExecError::Plan(format!(
                "arithmetic is f32-only, got {ta} and {tb}; insert CastF32"
            )));
        }
        let (xa, xb) = (va.as_f32(), vb.as_f32());
        let mut out = Vec::new();
        match op {
            BinOp::Add => prim::map_add_f32_col_f32_col(xa, xb, &mut out),
            BinOp::Mul => prim::map_mul_f32_col_f32_col(xa, xb, &mut out),
            BinOp::Div => prim::map_div_f32_col_f32_col(xa, xb, &mut out),
        }
        Ok(Vector::from_data(VectorData::F32(out)))
    }
}

#[derive(Clone, Copy)]
enum BinOp {
    Add,
    Mul,
    Div,
}

fn get_col(batch: &Batch, idx: usize) -> Result<&Vector, ExecError> {
    if idx >= batch.num_columns() {
        return Err(ExecError::Plan(format!(
            "column {idx} out of range ({} columns)",
            batch.num_columns()
        )));
    }
    Ok(batch.column(idx))
}

fn as_i32(v: &Vector) -> Result<&[i32], ExecError> {
    if v.value_type() != ValueType::I32 {
        return Err(type_err("i32 operand", v.value_type()));
    }
    Ok(v.as_i32())
}

fn type_err(expected: &str, got: ValueType) -> ExecError {
    ExecError::Plan(format!("expected {expected}, got {got}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use x100_vector::Vector;

    fn batch() -> Batch {
        Batch::new(vec![
            Vector::from_i32(&[1, 2, 3]),
            Vector::from_i32(&[2, 2, 2]),
        ])
    }

    #[test]
    fn column_refs_and_consts() {
        let b = batch();
        assert_eq!(Expr::col_i32(0).eval(&b).unwrap().as_i32(), &[1, 2, 3]);
        assert_eq!(
            Expr::const_f32(2.5).eval(&b).unwrap().as_f32(),
            &[2.5, 2.5, 2.5]
        );
    }

    #[test]
    fn arithmetic_f32() {
        let b = batch();
        let x = || Expr::cast_f32(Expr::col_i32(0));
        let e = Expr::div(x(), Expr::const_f32(2.0));
        assert_eq!(e.eval(&b).unwrap().as_f32(), &[0.5, 1.0, 1.5]);
        let e = Expr::add(x(), Expr::const_f32(0.5));
        assert_eq!(e.eval(&b).unwrap().as_f32(), &[1.5, 2.5, 3.5]);
        let e = Expr::mul(x(), x());
        assert_eq!(e.eval(&b).unwrap().as_f32(), &[1.0, 4.0, 9.0]);
    }

    #[test]
    fn cast_bridges_types() {
        let b = batch();
        let e = Expr::mul(Expr::cast_f32(Expr::col_i32(0)), Expr::const_f32(10.0));
        assert_eq!(e.eval(&b).unwrap().as_f32(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn mismatched_types_need_cast() {
        let b = batch();
        let e = Expr::add(Expr::col_i32(0), Expr::const_f32(1.0));
        assert!(matches!(e.eval(&b), Err(ExecError::Plan(_))));
        let e = Expr::max(Expr::col_i32(0), Expr::const_f32(1.0));
        assert!(matches!(e.eval(&b), Err(ExecError::Plan(_))));
    }

    #[test]
    fn integer_division_rejected() {
        let b = batch();
        let e = Expr::div(Expr::col_i32(0), Expr::col_i32(1));
        assert!(matches!(e.eval(&b), Err(ExecError::Plan(_))));
    }

    #[test]
    fn f32_from_bits_roundtrips() {
        let bits: Vec<i32> = [1.5f32, 0.0, -2.25]
            .iter()
            .map(|v| v.to_bits() as i32)
            .collect();
        let b = Batch::new(vec![Vector::from_i32(&bits)]);
        let e = Expr::f32_from_bits(Expr::col_i32(0));
        assert_eq!(e.eval(&b).unwrap().as_f32(), &[1.5, 0.0, -2.25]);
    }

    #[test]
    fn max_picks_larger() {
        let b = batch();
        let e = Expr::max(Expr::col_i32(0), Expr::col_i32(1));
        assert_eq!(e.eval(&b).unwrap().as_i32(), &[2, 2, 3]);
    }

    #[test]
    fn gather_looks_up_dense_table() {
        let b = batch();
        let lens = Arc::new(vec![100, 200, 300, 400]);
        let e = Expr::gather_i32(lens, Expr::col_i32(0));
        assert_eq!(e.eval(&b).unwrap().as_i32(), &[200, 300, 400]);
    }

    #[test]
    fn gather_out_of_bounds_is_plan_error() {
        let b = batch();
        let e = Expr::gather_i32(Arc::new(vec![1]), Expr::col_i32(0));
        assert!(matches!(e.eval(&b), Err(ExecError::Plan(_))));
    }

    #[test]
    fn bad_column_index_is_plan_error() {
        let b = batch();
        assert!(matches!(Expr::col_i32(9).eval(&b), Err(ExecError::Plan(_))));
    }

    #[test]
    fn output_types() {
        assert_eq!(Expr::col_i32(0).output_type(), ValueType::I32);
        assert_eq!(
            Expr::max(Expr::col_i32(0), Expr::col_i32(1)).output_type(),
            ValueType::I32
        );
        assert_eq!(
            Expr::add(Expr::const_f32(0.0), Expr::const_f32(1.0)).output_type(),
            ValueType::F32
        );
        assert_eq!(
            Expr::cast_f32(Expr::col_i32(0)).output_type(),
            ValueType::F32
        );
    }
}
