//! Vectorized primitives — the tight loops at the bottom of the engine.
//!
//! These correspond to X100's generated primitive functions, named
//! `map_<op>_<type>_<shape>` in Figure 1 (e.g. `map_mul_flt_val_flt_col`).
//! Each primitive is a branch-free loop over raw slices so the compiler can
//! pipeline and auto-vectorize it; "function call overheads \[are\]
//! amortized over a full vector of values instead of a single tuple".
//!
//! Naming follows the paper: `col` = per-value column operand. The set is
//! exactly what the IR plans' expressions evaluate (§3.2): the BM25
//! arithmetic over `f32`, the outer join's `MAX(docid, docid)`, and the
//! `i32` → `f32` bridge.

// ---- map: f32 ----------------------------------------------------------

/// `out[i] = a[i] + b[i]`
pub fn map_add_f32_col_f32_col(a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    debug_assert_eq!(a.len(), b.len());
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| x + y));
}

/// `out[i] = a[i] * b[i]`
pub fn map_mul_f32_col_f32_col(a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    debug_assert_eq!(a.len(), b.len());
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| x * y));
}

/// `out[i] = a[i] / b[i]`
pub fn map_div_f32_col_f32_col(a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    debug_assert_eq!(a.len(), b.len());
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| x / y));
}

// ---- map: i32 ----------------------------------------------------------

/// `out[i] = max(a[i], b[i])` — the paper's query uses
/// `MAX(TD1.docid, TD2.docid)` to pick the non-null side of an outer join.
pub fn map_max_i32_col_i32_col(a: &[i32], b: &[i32], out: &mut Vec<i32>) {
    debug_assert_eq!(a.len(), b.len());
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| x.max(y)));
}

/// `out[i] = a[i] as f32` — type bridge from integer columns (tf, doclen)
/// into the floating-point BM25 formula.
pub fn map_i32_col_to_f32(a: &[i32], out: &mut Vec<f32>) {
    out.clear();
    out.extend(a.iter().map(|&x| x as f32));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_f32_arithmetic() {
        let mut out = Vec::new();
        map_add_f32_col_f32_col(&[1.0, 2.0], &[3.0, 4.0], &mut out);
        assert_eq!(out, vec![4.0, 6.0]);
        map_div_f32_col_f32_col(&[9.0], &[3.0], &mut out);
        assert_eq!(out, vec![3.0]);
        map_mul_f32_col_f32_col(&[2.0, 3.0], &[4.0, 5.0], &mut out);
        assert_eq!(out, vec![8.0, 15.0]);
    }

    #[test]
    fn map_i32_ops() {
        let mut out = Vec::new();
        map_max_i32_col_i32_col(&[1, 9], &[4, 2], &mut out);
        assert_eq!(out, vec![4, 9]);
    }

    #[test]
    fn int_to_float_bridge() {
        let mut out = Vec::new();
        map_i32_col_to_f32(&[3, -1], &mut out);
        assert_eq!(out, vec![3.0, -1.0]);
    }

    #[test]
    fn empty_inputs() {
        let mut f = Vec::new();
        map_add_f32_col_f32_col(&[], &[], &mut f);
        assert!(f.is_empty());
        let mut i = vec![7];
        map_max_i32_col_i32_col(&[], &[], &mut i);
        assert!(i.is_empty());
    }
}
