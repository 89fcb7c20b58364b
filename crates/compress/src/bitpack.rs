//! Branch-free bit packing of small integer codes.
//!
//! PFOR code sections are "densely packed" (Figure 2): `n` codes of `b` bits
//! each occupy `ceil(n*b/64)` 64-bit words. The unpack loop is written
//! without any per-value `if`, in line with the paper's guideline that
//! "operations for (de)compressing subsequent values must be independent and
//! expressible as a simple loop without any if-then-else": every value is
//! extracted with an unconditional two-word read (the buffer is padded with
//! one trailing word to make this safe).
//!
//! # Two unpack paths
//!
//! Decompression is the hottest loop in the system — at the paper's target
//! bandwidths it must be memory-bound, not CPU-bound — so there are two
//! implementations of the same contract:
//!
//! * **Unrolled kernels** ([`unpack`], [`unpack_range`]): one fully
//!   unrolled, branch-free kernel per bit width (1–32), generated by the
//!   `unpack_kernels!` macro. Each kernel decodes an aligned group of
//!   [`GROUP_SIZE`] (= 32) values whose shifts, masks and word offsets are
//!   all compile-time constants: 32 codes of `b` bits occupy exactly `b`
//!   32-bit words, so group `g` starts at 32-bit word `g * b` with bit
//!   offset 0. The dispatch on `b` happens **once per call**, never per
//!   value.
//! * **Generic path** ([`unpack_generic`], [`unpack_range_generic`]): the
//!   original shift-computing loop, kept as the property-test oracle the
//!   kernels are verified against, and as the tail decoder for the final
//!   `n % 32` values.
//!
//! `x100-bench`'s `bench_bitpack` binary records the kernels-vs-oracle
//! throughput trajectory per width into `BENCH_bitpack.json`.

/// Maximum supported code width in bits. The paper uses 1..=24; we allow up
/// to 32 so that "uncompressed" round-trips are expressible too.
pub const MAX_WIDTH: u8 = 32;

/// Values per unrolled-kernel group: 32 codes of `b` bits fill exactly `b`
/// 32-bit words, so every group starts word-aligned at any width.
pub const GROUP_SIZE: usize = 32;

/// Number of `u64` words needed to hold `n` codes of `b` bits, **plus one
/// padding word** that lets the unpacker read two words unconditionally.
pub fn packed_len(n: usize, b: u8) -> usize {
    if n == 0 {
        return 1;
    }
    let bits = n * b as usize;
    bits.div_ceil(64) + 1
}

/// Packs `values[i] & mask(b)` into a fresh padded buffer.
///
/// Values wider than `b` bits are truncated — callers (the PFOR encoders)
/// guarantee values fit.
///
/// # Panics
/// Panics if `b == 0` or `b > MAX_WIDTH`.
pub fn pack(values: &[u32], b: u8) -> Vec<u64> {
    let mut buf = vec![0u64; packed_len(values.len(), b)];
    pack_into(values, b, &mut buf);
    buf
}

/// Packs `values[i] & mask(b)` into `buf`, which must be zeroed and at
/// least [`packed_len`] words long — a block image's code section.
///
/// # Panics
/// Panics if `b == 0` or `b > MAX_WIDTH`, or if `buf` is too short.
pub fn pack_into(values: &[u32], b: u8, buf: &mut [u64]) {
    assert!(
        (1..=MAX_WIDTH).contains(&b),
        "bit width {b} out of range 1..=32"
    );
    let mask = mask(b);
    for (i, &v) in values.iter().enumerate() {
        let bit = i * b as usize;
        let word = bit >> 6;
        let off = (bit & 63) as u32;
        let val = (u64::from(v) & mask) << off;
        buf[word] |= val;
        // Spill into the next word when the code straddles a boundary.
        // `checked_shr` keeps this branch-free at the ISA level on x86
        // (compiles to a conditional move); correctness is what matters here.
        let spill_shift = 64 - off;
        if spill_shift < 64 {
            buf[word + 1] |= (u64::from(v) & mask).checked_shr(spill_shift).unwrap_or(0);
        }
    }
}

/// Reads the `j`-th 32-bit word of the packed bitstream. The stream is
/// little-endian within each `u64`, so 32-bit word `2w` is the low half of
/// 64-bit word `w` and `2w + 1` its high half.
#[inline(always)]
fn word32(buf: &[u64], j: usize) -> u32 {
    (buf[j >> 1] >> ((j & 1) as u32 * 32)) as u32
}

/// Generates one fully unrolled unpack kernel per bit width.
///
/// Kernel `unpack32_B` decodes group `g` — values `g*32 .. g*32 + 32` of a
/// `B`-bit-packed stream — into a fixed-size output array. Because `B` and
/// the in-group index `i` are both compile-time constants, every word index
/// (`(i*B)/32`), bit offset (`(i*B)%32`) and mask folds to a constant: the
/// emitted code is a straight line of loads, constant shifts and ORs with no
/// data-dependent branches and no per-value offset arithmetic.
///
/// Each value is assembled from two consecutive 32-bit words (`lo`/`hi` in a
/// `u64`, truncated back to 32 bits), which is unconditionally safe: the
/// word after the group's last is either the next group's first word or the
/// [`packed_len`] padding word.
macro_rules! unpack_kernels {
    (@one $name:ident, $b:literal, [$($i:tt),+ $(,)?]) => {
        #[inline]
        fn $name(buf: &[u64], group: usize, out: &mut [u32; GROUP_SIZE]) {
            const B: usize = $b;
            const MASK: u32 = (((1u64 << B) - 1) & 0xFFFF_FFFF) as u32;
            // First 32-bit word of this group: 32 values * B bits / 32.
            let w0 = group * B;
            $(
                {
                    const BIT: usize = $i * B;
                    const W: usize = BIT >> 5;
                    const OFF: u32 = (BIT & 31) as u32;
                    let lo = u64::from(word32(buf, w0 + W)) >> OFF;
                    let hi = u64::from(word32(buf, w0 + W + 1)) << (32 - OFF);
                    out[$i] = ((lo | hi) as u32) & MASK;
                }
            )+
        }
    };
    ($(($name:ident, $b:literal)),+ $(,)?) => {
        $(
            unpack_kernels!(@one $name, $b, [
                 0,  1,  2,  3,  4,  5,  6,  7,
                 8,  9, 10, 11, 12, 13, 14, 15,
                16, 17, 18, 19, 20, 21, 22, 23,
                24, 25, 26, 27, 28, 29, 30, 31,
            ]);
        )+

        /// Kernel dispatch table: `KERNELS[b - 1]` decodes width `b`.
        static KERNELS: [fn(&[u64], usize, &mut [u32; GROUP_SIZE]); MAX_WIDTH as usize] =
            [$($name),+];
    };
}

unpack_kernels!(
    (unpack32_w1, 1),
    (unpack32_w2, 2),
    (unpack32_w3, 3),
    (unpack32_w4, 4),
    (unpack32_w5, 5),
    (unpack32_w6, 6),
    (unpack32_w7, 7),
    (unpack32_w8, 8),
    (unpack32_w9, 9),
    (unpack32_w10, 10),
    (unpack32_w11, 11),
    (unpack32_w12, 12),
    (unpack32_w13, 13),
    (unpack32_w14, 14),
    (unpack32_w15, 15),
    (unpack32_w16, 16),
    (unpack32_w17, 17),
    (unpack32_w18, 18),
    (unpack32_w19, 19),
    (unpack32_w20, 20),
    (unpack32_w21, 21),
    (unpack32_w22, 22),
    (unpack32_w23, 23),
    (unpack32_w24, 24),
    (unpack32_w25, 25),
    (unpack32_w26, 26),
    (unpack32_w27, 27),
    (unpack32_w28, 28),
    (unpack32_w29, 29),
    (unpack32_w30, 30),
    (unpack32_w31, 31),
    (unpack32_w32, 32),
);

/// Sets `out` to exactly `n` slots about to be fully overwritten, without
/// re-zeroing memory on buffer reuse: the decode loops write every slot, so
/// only *growth* beyond the current length needs initialization. Callers
/// that reuse one output vector across blocks (every hot decode loop) pay
/// the memset once, not per block.
fn prepare_out(out: &mut Vec<u32>, n: usize) {
    if out.len() < n {
        out.resize(n, 0);
    } else {
        out.truncate(n);
    }
}

/// Decodes values `start..start + len` with the generic two-word read,
/// writing into `out` (which must be `len` long). Used for the sub-group
/// tail after the unrolled kernels have taken the aligned prefix.
fn unpack_tail(buf: &[u64], start: usize, b: u8, out: &mut [u32]) {
    let m = mask(b);
    for (k, slot) in out.iter_mut().enumerate() {
        let bit = (start + k) * b as usize;
        let word = bit >> 6;
        let off = (bit & 63) as u32;
        let lo = buf[word] >> off;
        let hi = buf[word + 1].checked_shl(64 - off).unwrap_or(0);
        *slot = ((lo | hi) & m) as u32;
    }
}

/// Unpacks `n` codes of `b` bits from `buf` into `out` (cleared first).
///
/// Full groups of [`GROUP_SIZE`] values go through the per-width unrolled
/// kernel (selected once, outside the loop); the remaining `n % 32` values
/// take the generic tail. Output is bit-identical to [`unpack_generic`] —
/// the proptest suite holds the two paths against each other.
///
/// # Panics
/// Panics if `buf` is shorter than [`packed_len`]`(n, b)` or `b` is out of
/// range.
pub fn unpack(buf: &[u64], n: usize, b: u8, out: &mut Vec<u32>) {
    assert!(
        (1..=MAX_WIDTH).contains(&b),
        "bit width {b} out of range 1..=32"
    );
    assert!(
        buf.len() >= packed_len(n, b),
        "packed buffer too short: {} < {}",
        buf.len(),
        packed_len(n, b)
    );
    prepare_out(out, n);
    unpack_aligned(buf, 0, n, b, out);
}

/// Unpacks codes `start..start + len` of `b` bits from `buf` into `out`
/// (cleared first). Range decoding at entry-point granularity uses this to
/// avoid touching the whole code section; entry points sit every 128 values,
/// so `start` is group-aligned on that path and gets the unrolled kernels.
pub fn unpack_range(buf: &[u64], start: usize, len: usize, b: u8, out: &mut Vec<u32>) {
    assert!(
        (1..=MAX_WIDTH).contains(&b),
        "bit width {b} out of range 1..=32"
    );
    assert!(
        buf.len() >= packed_len(start + len, b),
        "packed buffer too short for range end {}",
        start + len
    );
    prepare_out(out, len);
    if start.is_multiple_of(GROUP_SIZE) {
        unpack_aligned(buf, start, len, b, out);
    } else {
        unpack_tail(buf, start, b, out);
    }
}

/// Kernel-decodes the full groups of `out` (whose start value index `start`
/// must be group-aligned), then generic-decodes the tail.
///
/// On x86_64 with the wide path active ([`crate::simd_active`]: the CPU
/// has AVX2 and it is not forced off), a prefix of the groups goes through
/// the AVX2 wide kernel instead; the scalar kernels finish whatever the
/// wide path leaves (its overlapping loads must stay inside `buf`, so
/// short buffers and trailing groups fall back). Both paths are
/// bit-identical by the proptest differential suite.
fn unpack_aligned(buf: &[u64], start: usize, len: usize, b: u8, out: &mut [u32]) {
    debug_assert_eq!(start % GROUP_SIZE, 0);
    let kernel = KERNELS[(b - 1) as usize];
    let first_group = start / GROUP_SIZE;
    let groups = len / GROUP_SIZE;
    #[cfg(target_arch = "x86_64")]
    let wide = crate::simd::unpack_groups(buf, first_group, groups, b, out);
    #[cfg(not(target_arch = "x86_64"))]
    let wide = 0;
    for g in wide..groups {
        let chunk: &mut [u32; GROUP_SIZE] = (&mut out[g * GROUP_SIZE..(g + 1) * GROUP_SIZE])
            .try_into()
            .expect("chunk is exactly one group");
        kernel(buf, first_group + g, chunk);
    }
    let done = groups * GROUP_SIZE;
    if done < len {
        unpack_tail(buf, start + done, b, &mut out[done..]);
    }
}

/// Reference unpack: the original per-value shift-computing loop.
///
/// Semantically identical to [`unpack`]; kept as the oracle the unrolled
/// kernels are property-tested against, and benchmarked as the baseline in
/// `BENCH_bitpack.json`.
pub fn unpack_generic(buf: &[u64], n: usize, b: u8, out: &mut Vec<u32>) {
    assert!(
        (1..=MAX_WIDTH).contains(&b),
        "bit width {b} out of range 1..=32"
    );
    assert!(
        buf.len() >= packed_len(n, b),
        "packed buffer too short: {} < {}",
        buf.len(),
        packed_len(n, b)
    );
    prepare_out(out, n);
    unpack_tail(buf, 0, b, out);
}

/// Reference range unpack (see [`unpack_generic`]).
pub fn unpack_range_generic(buf: &[u64], start: usize, len: usize, b: u8, out: &mut Vec<u32>) {
    assert!(
        (1..=MAX_WIDTH).contains(&b),
        "bit width {b} out of range 1..=32"
    );
    assert!(
        buf.len() >= packed_len(start + len, b),
        "packed buffer too short for range end {}",
        start + len
    );
    prepare_out(out, len);
    unpack_tail(buf, start, b, out);
}

/// Extracts the single code at position `i`.
///
/// Used by entry-point based range decoding; the bulk path is [`unpack`].
#[inline]
pub fn get(buf: &[u64], i: usize, b: u8) -> u32 {
    let bit = i * b as usize;
    let word = bit >> 6;
    let off = (bit & 63) as u32;
    let lo = buf[word] >> off;
    let hi = buf[word + 1].checked_shl(64 - off).unwrap_or(0);
    ((lo | hi) & mask(b)) as u32
}

/// The low-`b`-bits mask.
#[inline]
pub fn mask(b: u8) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32], b: u8) {
        let packed = pack(values, b);
        let mut out = Vec::new();
        unpack(&packed, values.len(), b, &mut out);
        let expect: Vec<u32> = values
            .iter()
            .map(|&v| (u64::from(v) & mask(b)) as u32)
            .collect();
        assert_eq!(out, expect, "width {b}");
        // The kernels and the oracle must agree bit for bit.
        let mut oracle = Vec::new();
        unpack_generic(&packed, values.len(), b, &mut oracle);
        assert_eq!(out, oracle, "kernel vs oracle, width {b}");
    }

    #[test]
    fn roundtrip_every_width() {
        let values: Vec<u32> = (0..300u32)
            .map(|i| i.wrapping_mul(2654435761) % 97)
            .collect();
        for b in 1..=32u8 {
            roundtrip(&values, b);
        }
    }

    #[test]
    fn roundtrip_group_boundary_lengths() {
        // Lengths straddling the 32-value kernel group: pure-tail, exactly
        // one group, group + 1, several groups − 1.
        let values: Vec<u32> = (0..257u32).map(|i| i.wrapping_mul(40503) % 1000).collect();
        for n in [1usize, 31, 32, 33, 63, 64, 65, 255, 256, 257] {
            for b in [1u8, 5, 8, 13, 17, 24, 31, 32] {
                roundtrip(&values[..n], b);
            }
        }
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[], 7);
    }

    #[test]
    fn roundtrip_single_value() {
        roundtrip(&[42], 8);
        roundtrip(&[1], 1);
    }

    #[test]
    fn roundtrip_max_values() {
        for b in 1..=32u8 {
            let max = (mask(b)) as u32;
            roundtrip(&[max, 0, max, max, 0], b);
            // Full groups of the extreme value at every width.
            let many: Vec<u32> = (0..96).map(|i| if i % 2 == 0 { max } else { 0 }).collect();
            roundtrip(&many, b);
        }
    }

    #[test]
    fn truncates_oversized_values() {
        let packed = pack(&[0xFFFF_FFFF], 4);
        let mut out = Vec::new();
        unpack(&packed, 1, 4, &mut out);
        assert_eq!(out, vec![0xF]);
    }

    #[test]
    fn get_matches_unpack() {
        let values: Vec<u32> = (0..257).map(|i| (i * 31) % 1000).collect();
        for b in [3u8, 8, 10, 17, 24] {
            let packed = pack(&values, b);
            let mut out = Vec::new();
            unpack(&packed, values.len(), b, &mut out);
            for (i, &expect) in out.iter().enumerate() {
                assert_eq!(get(&packed, i, b), expect, "i={i} b={b}");
            }
        }
    }

    #[test]
    fn unpack_range_all_alignments() {
        let values: Vec<u32> = (0..640u32)
            .map(|i| i.wrapping_mul(2246822519) % 512)
            .collect();
        for b in [1u8, 7, 9, 16, 27, 32] {
            let packed = pack(&values, b);
            let mut full = Vec::new();
            unpack(&packed, values.len(), b, &mut full);
            let mut out = Vec::new();
            // Group-aligned (kernel path), stride-aligned and odd starts
            // (generic fallback) must all agree with the full decode.
            for (start, len) in [(0usize, 640usize), (32, 64), (128, 300), (5, 40), (33, 31)] {
                unpack_range(&packed, start, len, b, &mut out);
                assert_eq!(out, &full[start..start + len], "start={start} b={b}");
                let mut oracle = Vec::new();
                unpack_range_generic(&packed, start, len, b, &mut oracle);
                assert_eq!(out, oracle, "range kernel vs oracle, start={start} b={b}");
            }
        }
    }

    #[test]
    fn packed_len_includes_padding() {
        assert_eq!(packed_len(0, 8), 1);
        assert_eq!(packed_len(8, 8), 2); // 64 bits data + 1 pad
        assert_eq!(packed_len(9, 8), 3); // 72 bits -> 2 words + pad
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_rejected() {
        pack(&[1], 0);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn unpack_checks_buffer_length() {
        let mut out = Vec::new();
        unpack(&[0u64], 100, 8, &mut out);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn unpack_generic_checks_buffer_length() {
        let mut out = Vec::new();
        unpack_generic(&[0u64], 100, 8, &mut out);
    }
}
