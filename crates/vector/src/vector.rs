//! The unary execution vector.
//!
//! "A vector is a unary array, containing a small slice of a single column"
//! (§2). Operators pass vectors between each other; primitives run tight
//! loops over the raw typed slices inside, which is what lets the compiler
//! emit data-parallel (SIMD-friendly) code.

use crate::types::ValueType;

/// The typed payload of a [`Vector`].
///
/// The enum dispatch happens once per *vector*, not once per *value* — the
/// whole point of vectorized execution is that the per-call overhead (here,
/// the `match`) is amortized over `VectorSize` values.
#[derive(Debug, Clone, PartialEq)]
pub enum VectorData {
    /// 32-bit signed integers (docids, term frequencies, lengths).
    I32(Vec<i32>),
    /// 32-bit floats (BM25 scores).
    F32(Vec<f32>),
}

/// A unary array of one scalar type: X100's unit of data flow.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    data: VectorData,
}

impl Vector {
    /// Wraps an existing buffer.
    pub fn from_data(data: VectorData) -> Self {
        Vector { data }
    }

    /// Builds an `i32` vector from a slice (test/ingest convenience).
    pub fn from_i32(values: &[i32]) -> Self {
        Vector {
            data: VectorData::I32(values.to_vec()),
        }
    }

    /// Builds an `f32` vector from a slice.
    pub fn from_f32(values: &[f32]) -> Self {
        Vector {
            data: VectorData::F32(values.to_vec()),
        }
    }

    /// Number of values currently held.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.data {
            VectorData::I32(v) => v.len(),
            VectorData::F32(v) => v.len(),
        }
    }

    /// Whether the vector holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scalar type of this vector.
    #[inline]
    pub fn value_type(&self) -> ValueType {
        match &self.data {
            VectorData::I32(_) => ValueType::I32,
            VectorData::F32(_) => ValueType::F32,
        }
    }

    /// Borrow the payload.
    #[inline]
    pub fn data(&self) -> &VectorData {
        &self.data
    }

    // ---- typed accessors -------------------------------------------------
    //
    // Primitives call exactly one of these once per vector, then loop over
    // the raw slice. Panicking on a type mismatch is deliberate: a mismatch
    // is a planner bug, not a data error, mirroring how X100 primitives are
    // bound to concrete types at plan-build time.

    /// Borrows the payload as `&[i32]`. Panics if the type differs.
    #[inline]
    pub fn as_i32(&self) -> &[i32] {
        match &self.data {
            VectorData::I32(v) => v,
            VectorData::F32(_) => panic!("vector type mismatch: expected i32, got f32"),
        }
    }

    /// Borrows the payload as `&[f32]`. Panics if the type differs.
    #[inline]
    pub fn as_f32(&self) -> &[f32] {
        match &self.data {
            VectorData::F32(v) => v,
            VectorData::I32(_) => panic!("vector type mismatch: expected f32, got i32"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn typed_accessor_panics_on_mismatch() {
        let v = Vector::from_i32(&[1]);
        let _ = v.as_f32();
    }
}
