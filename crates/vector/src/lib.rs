//! Vector and column primitives for the MonetDB/X100 reproduction.
//!
//! MonetDB/X100's central idea is *vectorized in-cache execution*: query
//! operators exchange **vectors** — small, unary arrays holding a slice of a
//! single column — instead of single tuples or whole columns. Each `next()`
//! call in the operator pipeline produces one vector per output column, sized
//! such that all vectors live in the query plan fit the CPU cache at once
//! (§2 of the paper, Figure 1).
//!
//! This crate provides the data representation the relational engine
//! (`x100-exec`) exchanges between operators:
//!
//! * [`Vector`] — a dynamically typed unary array of `i32` or `f32` values.
//! * [`Batch`] — the unit of exchange between operators: one vector per
//!   column, all of the same length.
//! * [`VectorSize`] — the tuning knob the paper's demonstration sweeps
//!   (§4, "varying MonetDB/X100 parameters, such as the vector size").
//!
//! # Example
//!
//! ```
//! use x100_vector::{Batch, Vector, VectorSize};
//!
//! let size = VectorSize::default(); // 1024 values, the X100 sweet spot
//! assert_eq!(size.get(), 1024);
//! let batch = Batch::new(vec![Vector::from_i32(&[7, 9]), Vector::from_f32(&[0.5, 1.5])]);
//! assert_eq!(batch.num_rows(), 2);
//! assert_eq!(batch.column(0).as_i32(), &[7, 9]);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod types;
pub mod vector;

pub use batch::Batch;
pub use types::ValueType;
pub use vector::{Vector, VectorData};

/// The number of values an execution vector holds.
///
/// The paper chooses the vector size "in such a way, that all vectors needed
/// by a query fit the CPU cache". Too small and per-`next()` interpretation
/// overhead dominates (the tuple-at-a-time pathology); too large and
/// intermediate results spill out of the cache into RAM. The
/// `ablation_vector_size` harness in `x100-bench` sweeps this knob to
/// reproduce the demonstration of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VectorSize(usize);

impl VectorSize {
    /// The default X100 vector size (1024 values), which the original system
    /// found to balance interpretation overhead against cache residency.
    pub const DEFAULT: VectorSize = VectorSize(1024);

    /// Smallest permitted vector size. A vector size of 1 degenerates the
    /// engine into a classical tuple-at-a-time Volcano iterator, which is
    /// exactly the comparison point of the ablation.
    pub const MIN: usize = 1;

    /// Largest permitted vector size (1 Mi values). Beyond cache capacity the
    /// engine degenerates into full-column materialization, MonetDB/MIL
    /// style.
    pub const MAX: usize = 1 << 20;

    /// Creates a vector size, clamping into `[MIN, MAX]`.
    pub fn new(n: usize) -> Self {
        VectorSize(n.clamp(Self::MIN, Self::MAX))
    }

    /// Returns the size in values.
    #[inline]
    pub fn get(self) -> usize {
        self.0
    }
}

impl Default for VectorSize {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl From<usize> for VectorSize {
    fn from(n: usize) -> Self {
        Self::new(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_size_clamps_low() {
        assert_eq!(VectorSize::new(0).get(), VectorSize::MIN);
    }

    #[test]
    fn vector_size_clamps_high() {
        assert_eq!(VectorSize::new(usize::MAX).get(), VectorSize::MAX);
    }

    #[test]
    fn vector_size_default_is_1024() {
        assert_eq!(VectorSize::default().get(), 1024);
    }

    #[test]
    fn vector_size_from_usize() {
        let s: VectorSize = 64.into();
        assert_eq!(s.get(), 64);
    }
}
