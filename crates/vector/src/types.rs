//! Scalar value types understood by the execution engine.
//!
//! X100 is a relational kernel; columns carry a fixed scalar type and the
//! primitive library is instantiated per type (e.g. `map_mul_flt_val_flt_col`
//! in Figure 1 of the paper). The IR plans need exactly two: 32-bit integers
//! for `docid`, `tf` and stored score payloads, and 32-bit floats for the
//! scores they compute.

use std::fmt;

/// The type of every value in one column or vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 32-bit signed integer — `docid`, `tf`, lengths, stored score bits.
    I32,
    /// 32-bit float — BM25 scores (§3.3).
    F32,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ValueType::I32 => "i32",
            ValueType::F32 => "f32",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(ValueType::I32.to_string(), "i32");
        assert_eq!(ValueType::F32.to_string(), "f32");
    }
}
