//! Property-based tests for the compression codecs.
//!
//! Core invariants:
//! * every codec round-trips arbitrary `u32` data, at any width;
//! * patched and naive decompression agree on the values they reconstruct;
//! * range decoding agrees with full decoding on every aligned window;
//! * a block image round-trips bit-exactly, every section 8-aligned;
//! * the per-block width chooser reaches every width 1–24;
//! * every word mutant of a valid image loads as an error or as a block
//!   that decodes, never a panic;
//! * the per-width unrolled bitpack kernels match the generic oracle on
//!   adversarial inputs, at every width 1–32.

use proptest::prelude::*;
use x100_compress::{
    bitpack, Codec, CompressedBlock, NaiveBlock, PdictBlock, PforBlock, PforDeltaBlock,
    ENTRY_POINT_STRIDE, PER_BLOCK_WIDTH,
};

/// Value distributions that stress different codec paths: uniform small
/// (codeable), uniform full-range (exception-heavy), and clustered.
fn value_vec() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        prop::collection::vec(0u32..256, 0..2000),
        prop::collection::vec(any::<u32>(), 0..600),
        prop::collection::vec(
            prop_oneof![
                Just(5u32),
                Just(17u32),
                1_000_000u32..1_000_100,
                any::<u32>()
            ],
            0..1500
        ),
    ]
}

proptest! {
    #[test]
    fn pfor_roundtrips(values in value_vec(), b in 1u8..=24) {
        let block = PforBlock::encode_with_width(&values, b);
        prop_assert_eq!(block.decode(), values);
    }

    #[test]
    fn pfor_auto_roundtrips(values in value_vec()) {
        let block = PforBlock::encode_auto(&values);
        prop_assert_eq!(block.decode(), values);
    }

    #[test]
    fn pfor_delta_roundtrips(values in value_vec(), b in 1u8..=24) {
        let block = PforDeltaBlock::encode_with_width(&values, b);
        prop_assert_eq!(block.decode(), values);
    }

    #[test]
    fn pdict_roundtrips(values in value_vec(), b in 1u8..=12) {
        let block = PdictBlock::encode(&values, b);
        prop_assert_eq!(block.decode(), values);
    }

    #[test]
    fn naive_roundtrips(values in value_vec(), b in 1u8..=24) {
        let base = values.iter().copied().min().unwrap_or(0);
        let block = NaiveBlock::encode(&values, b, base);
        prop_assert_eq!(block.decode(), values);
    }

    /// The headline Figure 3 equivalence: the patched decoder and the naive
    /// decoder are different *algorithms and formats* but must reconstruct
    /// identical data from identical input.
    #[test]
    fn patched_equals_naive(values in value_vec(), b in 1u8..=24) {
        let patched = PforBlock::encode_with_width(&values, b).decode();
        let base = x100_compress::pfor::choose_base(&values, b);
        let naive = NaiveBlock::encode(&values, b, base).decode();
        prop_assert_eq!(patched, naive);
    }

    /// Every aligned window of a PFOR block range-decodes to the same values
    /// as the corresponding slice of the full decode.
    #[test]
    fn pfor_range_decode_consistent(values in value_vec(), b in 1u8..=16) {
        let block = PforBlock::encode_with_width(&values, b);
        let full = block.decode();
        let mut out = Vec::new();
        for start in (0..values.len()).step_by(ENTRY_POINT_STRIDE) {
            let len = (values.len() - start).min(ENTRY_POINT_STRIDE * 2);
            block.decode_range_into(start, len, &mut out).unwrap();
            prop_assert_eq!(&out, &full[start..start + len]);
        }
    }

    #[test]
    fn pfor_delta_range_decode_consistent(values in value_vec(), b in 1u8..=16) {
        let block = PforDeltaBlock::encode_with_width(&values, b);
        let full = block.decode();
        let mut out = Vec::new();
        for start in (0..values.len()).step_by(ENTRY_POINT_STRIDE) {
            let len = (values.len() - start).min(ENTRY_POINT_STRIDE + 37);
            block.decode_range_into(start, len, &mut out).unwrap();
            prop_assert_eq!(&out, &full[start..start + len]);
        }
    }

    /// At the stride edges (0, 1, 127, 128, 129 values) and a full column
    /// block (32 Ki values), every codec's image starts each section on an
    /// 8-byte boundary, ends on a whole word, and survives both directions
    /// of the copy: `from_bytes(b.to_bytes()) == b` and
    /// `from_bytes(x).to_bytes() == x` byte for byte.
    #[test]
    fn serialization_roundtrips(values in value_vec()) {
        for n in [0usize, 1, 127, 128, 129, 1 << 15] {
            let values: Vec<u32> = values.iter().copied().chain([7]).cycle().take(n).collect();
            for codec in [
                Codec::Raw,
                Codec::Pfor { width: 8 },
                Codec::PforDelta { width: 8 },
                Codec::Pdict { width: 8 },
                Codec::Pfor { width: PER_BLOCK_WIDTH },
                Codec::PforDelta { width: PER_BLOCK_WIDTH },
            ] {
                let block = CompressedBlock::encode(&values, codec);
                let bytes = block.to_bytes();
                let s = block.sections();
                let offsets = [s.entry_points.start, s.codes.start, s.extras.start, s.exceptions.start];
                prop_assert!(offsets.iter().all(|o| o % 8 == 0), "{:?} n={} {:?}", codec, n, s);
                prop_assert_eq!((s.exceptions.end, bytes.len() % 8), (bytes.len(), 0));
                let back = CompressedBlock::from_bytes(&bytes).unwrap();
                prop_assert_eq!(&back, &block);
                prop_assert_eq!(back.to_bytes(), bytes);
            }
        }
    }

    /// The one-pass chooser reaches every width in 1..=24, and each block it
    /// shapes survives the path a pool miss takes: per-block encode
    /// (`encode_auto`) → `to_bytes` → `from_bytes` → `decode_range_into` on
    /// every aligned stride.
    /// Every offset from the block minimum has bit length exactly `b`;
    /// `noise` fills the low bits, `seed` places the minimum and, with
    /// `outlier`, one value no width up to 24 can code. PFOR-DELTA gets the
    /// same offsets as its deltas.
    #[test]
    fn chooser_reaches_every_width_and_its_blocks_roundtrip(
        noise in prop::collection::vec(any::<u32>(), 8..1500),
        seed in any::<u32>(),
        outlier in any::<bool>(),
    ) {
        let n = noise.len();
        let min_at = seed as usize % n;
        let outlier_at = (min_at + 1 + (seed as usize / n) % (n - 1)) % n;
        let base = seed >> 1; // base + 2^30 still fits a u32
        for b in 1..=24u8 {
            let top = 1u32 << (b - 1);
            let mut offsets: Vec<u32> =
                noise.iter().map(|&r| base + (top | (r & (top - 1)))).collect();
            offsets[min_at] = base;
            if outlier {
                offsets[outlier_at] = base + (1 << 30);
            }
            let sums: Vec<u32> = offsets
                .iter()
                .scan(0u32, |acc, &d| {
                    *acc = acc.wrapping_add(d);
                    Some(*acc)
                })
                .collect();
            for (codec, values) in [
                (Codec::Pfor { width: PER_BLOCK_WIDTH }, &offsets),
                (Codec::PforDelta { width: PER_BLOCK_WIDTH }, &sums),
            ] {
                let block = CompressedBlock::encode(values, codec);
                let width = match &block {
                    CompressedBlock::Pfor(p) => p.width(),
                    CompressedBlock::PforDelta(p) => p.width(),
                    other => panic!("not a PFOR block: {other:?}"),
                };
                prop_assert_eq!(width, b, "{:?}", codec);
                let back = CompressedBlock::from_bytes(&block.to_bytes()).unwrap();
                let mut out = Vec::new();
                for start in (0..n).step_by(ENTRY_POINT_STRIDE) {
                    let len = (n - start).min(ENTRY_POINT_STRIDE);
                    back.decode_range_into(start, len, &mut out).unwrap();
                    prop_assert_eq!(&out[..], &values[start..start + len]);
                }
            }
        }
    }

    /// Deserializing a truncated valid block must fail or produce the same
    /// values, never garbage.
    #[test]
    fn truncated_blocks_fail_cleanly(values in value_vec(), cut_frac in 0.0f64..1.0) {
        let bytes = CompressedBlock::encode(&values, Codec::Pfor { width: 8 }).to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(CompressedBlock::from_bytes(&bytes[..cut]).is_err());
        }
    }

    /// Compressed size accounting is an upper bound on what serialization
    /// actually produces (within the per-section length words).
    #[test]
    fn bits_per_value_sane(values in prop::collection::vec(0u32..200, 1..2000)) {
        let block = PforBlock::encode_with_width(&values, 8);
        prop_assert!(block.bits_per_value() >= 8.0);
        prop_assert!(block.bits_per_value() < 32.0 + 200.0 / values.len() as f64 * 8.0);
    }
}

/// Every 32-bit word of valid PFOR, PFOR-DELTA and PDICT images with
/// exceptions, at fixed and per-block widths and at 300 and 1 000 values,
/// set in turn to 0, 1, itself ± 1 and `u32::MAX`, and with its top bit
/// flipped. Each mutant either fails to load or loads as a block that
/// decodes, whole and stride by stride from every entry point: an `Err`
/// or values, never a panic. Exhaustive rather than sampled: uniform random
/// bytes pass the block magic with probability 2^-32, so only mutants of
/// valid images reach the validators behind the header.
#[test]
fn word_mutants_of_valid_images_load_as_errors_or_values() {
    let outliers = |n: usize, small: fn(u32) -> u32| -> Vec<u32> {
        (0..n as u32)
            .map(|i| if i % 37 == 0 { 1_000_000 + i } else { small(i) })
            .collect()
    };
    let mut cases = Vec::new();
    for n in [300, 1000] {
        let plain = outliers(n, |i| i % 200);
        let ascending: Vec<u32> = outliers(n, |i| 1 + i % 7)
            .iter()
            .scan(0u32, |acc, &gap| {
                *acc = acc.wrapping_add(gap);
                Some(*acc)
            })
            .collect();
        cases.extend([
            (Codec::Pfor { width: 8 }, plain.clone()),
            (
                Codec::Pfor {
                    width: PER_BLOCK_WIDTH,
                },
                plain,
            ),
            (Codec::PforDelta { width: 8 }, ascending.clone()),
            (
                Codec::PforDelta {
                    width: PER_BLOCK_WIDTH,
                },
                ascending,
            ),
            (Codec::Pdict { width: 4 }, outliers(n, |i| i % 20)),
        ]);
    }
    let (mut mutants, mut loaded, mut out) = (0, 0, Vec::new());
    for (codec, values) in &cases {
        let pristine = CompressedBlock::encode(values, *codec).to_bytes();
        let sections = CompressedBlock::from_bytes(&pristine).unwrap().sections();
        assert!(
            !sections.exceptions.is_empty(),
            "{codec:?} image has no exceptions"
        );
        let mut bytes = pristine.clone();
        for at in (0..pristine.len()).step_by(4) {
            let word = u32::from_le_bytes(pristine[at..at + 4].try_into().unwrap());
            let edits = [
                0,
                1,
                word.wrapping_add(1),
                word.wrapping_sub(1),
                u32::MAX,
                word ^ 1 << 31,
            ];
            for edit in edits {
                bytes[at..at + 4].copy_from_slice(&edit.to_le_bytes());
                mutants += 1;
                let decoded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let Ok(block) = CompressedBlock::from_bytes(&bytes) else {
                        return false;
                    };
                    block.decode_into(&mut out);
                    assert_eq!(out.len(), block.len());
                    for start in (0..block.len()).step_by(ENTRY_POINT_STRIDE) {
                        let len = (block.len() - start).min(ENTRY_POINT_STRIDE);
                        if block.decode_range_into(start, len, &mut out).is_ok() {
                            assert_eq!(out.len(), len);
                        }
                    }
                    true
                }));
                match decoded {
                    Ok(ok) => loaded += usize::from(ok),
                    Err(_) => panic!(
                        "{codec:?}, {} values: word at byte {at} set to {edit:#x} panicked",
                        values.len()
                    ),
                }
            }
            bytes[at..at + 4].copy_from_slice(&pristine[at..at + 4]);
        }
    }
    // Some mutants land in the packed codes and load: the property ran
    // past the header checks.
    assert!(
        0 < loaded && loaded < mutants,
        "{loaded} of {mutants} loaded"
    );
}

/// Adversarial value shapes for the bitpack kernels: all-zero (every word
/// identical), max-value (every code saturates its width), alternating
/// extremes (exception-heavy PFOR blocks look like this after encoding),
/// and arbitrary noise. Lengths deliberately straddle the 32-value group
/// boundary so both the unrolled body and the generic tail are exercised.
fn kernel_values() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        prop::collection::vec(Just(0u32), 0..300),
        prop::collection::vec(Just(u32::MAX), 0..300),
        (0usize..300).prop_map(|n| (0..n)
            .map(|i| if i % 2 == 0 { u32::MAX } else { 0 })
            .collect()),
        prop::collection::vec(any::<u32>(), 0..300),
    ]
}

proptest! {
    /// Every per-bit-width unrolled kernel reconstructs exactly what the
    /// generic oracle does, for every width — the correctness contract of
    /// the `BENCH_bitpack.json` speedups.
    #[test]
    fn unrolled_kernels_match_generic_oracle(values in kernel_values(), b in 1u8..=32) {
        let packed = bitpack::pack(&values, b);
        let mut fast = Vec::new();
        let mut oracle = Vec::new();
        bitpack::unpack(&packed, values.len(), b, &mut fast);
        bitpack::unpack_generic(&packed, values.len(), b, &mut oracle);
        prop_assert_eq!(&fast, &oracle, "width {}", b);
        // And both equal the masked input (pack truncates to b bits).
        let expect: Vec<u32> = values
            .iter()
            .map(|&v| (u64::from(v) & bitpack::mask(b)) as u32)
            .collect();
        prop_assert_eq!(fast, expect, "width {}", b);
    }

    /// Range decoding through the kernels agrees with the oracle at every
    /// start alignment (group-aligned starts take the unrolled path,
    /// unaligned starts the generic fallback).
    #[test]
    fn unrolled_range_matches_generic_oracle(
        values in kernel_values(),
        b in 1u8..=32,
        start_frac in 0.0f64..1.0,
    ) {
        let start = ((values.len() as f64) * start_frac) as usize;
        let len = values.len() - start;
        let packed = bitpack::pack(&values, b);
        let mut fast = Vec::new();
        let mut oracle = Vec::new();
        bitpack::unpack_range(&packed, start, len, b, &mut fast);
        bitpack::unpack_range_generic(&packed, start, len, b, &mut oracle);
        prop_assert_eq!(fast, oracle, "width {} start {}", b, start);
    }

    /// Exception-heavy PFOR blocks (the Figure 3 worst case) decode
    /// identically through the kernel-backed unpack.
    #[test]
    fn exception_heavy_pfor_roundtrips_through_kernels(
        exc_rate in 0.0f64..1.0,
        b in 1u8..=24,
        n in 0usize..800,
    ) {
        let values: Vec<u32> = (0..n)
            .map(|i| {
                let r = (i as f64 * 0.618_033_988_749) % 1.0;
                if r < exc_rate { 1_000_000 + i as u32 } else { (i % 100) as u32 }
            })
            .collect();
        let block = PforBlock::encode_with_width(&values, b);
        prop_assert_eq!(block.decode(), values);
    }
}
