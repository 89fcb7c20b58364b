//! Differential suite for the wide (AVX2) unpack kernels.
//!
//! Every bit width 1–32 is held against the generic oracle *and* against
//! the unrolled scalar kernels (via [`simd_force_scalar`]) on structured
//! extremes — all-zero, all-max, alternating — and on random data, at
//! group-aligned and unaligned range starts, including buffers short
//! enough that the wide path must hand trailing groups back to the scalar
//! kernels. Every x86_64 build compiles the wide path and runs it when the
//! CPU has AVX2; off x86_64, or without AVX2, it is inert and the suite
//! holds the scalar kernels against the oracle alone.
//!
//! The force-scalar toggle is process-wide, so everything here lives in
//! one `#[test]` per concern, sequenced inside this file's process.

use std::sync::Mutex;

use proptest::prelude::*;
use x100_compress::{bitpack, simd_available, simd_force_scalar};

/// The force-scalar switch is process-wide and the harness runs tests on
/// parallel threads: every test that toggles it holds this lock.
static TOGGLE_LOCK: Mutex<()> = Mutex::new(());

/// Decodes `values.len()` codes from `packed` twice — wide path allowed,
/// then forced scalar — and pins both against the generic oracle and the
/// expected (masked) values.
fn check_full(packed: &[u64], n: usize, b: u8, expect: &[u32]) {
    let mut oracle = Vec::new();
    bitpack::unpack_generic(packed, n, b, &mut oracle);
    assert_eq!(oracle, expect, "oracle vs masked input, width {b}");

    let mut wide = Vec::new();
    simd_force_scalar(false);
    bitpack::unpack(packed, n, b, &mut wide);
    let mut scalar = Vec::new();
    simd_force_scalar(true);
    bitpack::unpack(packed, n, b, &mut scalar);
    simd_force_scalar(false);

    assert_eq!(wide, oracle, "wide path vs oracle, width {b}, n {n}");
    assert_eq!(scalar, oracle, "scalar kernels vs oracle, width {b}, n {n}");
}

fn masked(values: &[u32], b: u8) -> Vec<u32> {
    values
        .iter()
        .map(|&v| (u64::from(v) & bitpack::mask(b)) as u32)
        .collect()
}

/// The fixed patterns of the satellite spec: all-zero, all-max (for the
/// width), alternating zero/max, plus a deterministic pseudo-random fill.
fn patterns(n: usize, b: u8) -> Vec<Vec<u32>> {
    let max = bitpack::mask(b) as u32;
    let mut rng_state = 0x9E37_79B9u32 ^ u32::from(b);
    let mut random = Vec::with_capacity(n);
    for _ in 0..n {
        // xorshift32: deterministic, width-seeded.
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 17;
        rng_state ^= rng_state << 5;
        random.push(rng_state);
    }
    vec![
        vec![0u32; n],
        vec![max; n],
        (0..n as u32)
            .map(|i| if i % 2 == 0 { max } else { 0 })
            .collect(),
        random,
    ]
}

#[test]
fn every_width_every_pattern_matches_oracle_and_scalar() {
    let _g = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Lengths probing group boundaries and the wide path's trailing-group
    // fallback (short buffers where batch loads would run off the end).
    for n in [0usize, 1, 31, 32, 33, 64, 127, 128, 129, 256, 1000] {
        for b in 1..=32u8 {
            for values in patterns(n, b) {
                let packed = bitpack::pack(&values, b);
                check_full(&packed, n, b, &masked(&values, b));
            }
        }
    }
}

#[test]
fn range_decodes_match_scalar_at_every_alignment() {
    let _g = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n = 700usize;
    for b in 1..=32u8 {
        for values in patterns(n, b) {
            let packed = bitpack::pack(&values, b);
            let expect = masked(&values, b);
            for (start, len) in [(0usize, n), (128, 512), (32, 33), (5, 200), (672, 28)] {
                let mut wide = Vec::new();
                simd_force_scalar(false);
                bitpack::unpack_range(&packed, start, len, b, &mut wide);
                let mut scalar = Vec::new();
                simd_force_scalar(true);
                bitpack::unpack_range(&packed, start, len, b, &mut scalar);
                simd_force_scalar(false);
                assert_eq!(wide, &expect[start..start + len], "b={b} start={start}");
                assert_eq!(scalar, &expect[start..start + len], "b={b} start={start}");
            }
        }
    }
}

#[test]
fn forced_fallback_is_really_scalar() {
    let _g = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The toggle must actually switch paths on SIMD-capable builds (and be
    // an inert no-op elsewhere) — this keeps the scalar kernels covered on
    // CI machines where the wide path would otherwise always win.
    simd_force_scalar(true);
    assert!(!x100_compress::simd_active());
    simd_force_scalar(false);
    assert_eq!(x100_compress::simd_active(), simd_available());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_values_and_widths_agree(
        values in prop::collection::vec(any::<u32>(), 0..1200),
        b in 1u8..=32,
        start_group in 0usize..8,
    ) {
        let _g = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let packed = bitpack::pack(&values, b);
        let expect = masked(&values, b);
        check_full(&packed, values.len(), b, &expect);

        // Aligned range decode from a random group start.
        let start = (start_group * 32).min(values.len());
        let len = values.len() - start;
        let mut wide = Vec::new();
        simd_force_scalar(false);
        bitpack::unpack_range(&packed, start, len, b, &mut wide);
        let mut scalar = Vec::new();
        simd_force_scalar(true);
        bitpack::unpack_range(&packed, start, len, b, &mut scalar);
        simd_force_scalar(false);
        prop_assert_eq!(&wide, &expect[start..], "wide range b={} start={}", b, start);
        prop_assert_eq!(&scalar, &expect[start..], "scalar range b={} start={}", b, start);
    }
}
