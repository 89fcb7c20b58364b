//! PFOR — Patched Frame-of-Reference compression (§2.1, Figure 2).
//!
//! Values are stored as small `b`-bit offsets from a per-block `base`.
//! Values outside `[base, base + 2^b)` become **exceptions**: they are kept
//! uncompressed in a separate section, and their code slot instead stores the
//! distance to the *next* exception, forming a linked list through the code
//! section. Decompression is then two branch-free loops:
//!
//! ```text
//! LOOP1: out[i] = base + code[i]        // decode regardless
//! LOOP2: walk the exception list, copying exception values over the
//!        incorrectly decoded slots      // patch it up
//! ```
//!
//! This avoids the branch-misprediction collapse of the naive
//! `if (code < MAXCODE)` decoder (see [`crate::naive`] and Figure 3).
//!
//! Because the gap between consecutive exceptions must itself fit in `b`
//! bits, encoding inserts **compulsory exceptions** whenever two natural
//! exceptions are more than `2^b - 1` positions apart.
//!
//! Entry points every [`ENTRY_POINT_STRIDE`] values record the next exception
//! position and its rank, which "allows fine-granularity access and skipping
//! ... especially useful during merging of inverted lists" (paper, §2.1).

use crate::bitpack;
use crate::image::{Image, TAG_PFOR};
use crate::patch::{check_range, patch_range};
use crate::CodecError;

pub use crate::patch::{EntryPoint, ENTRY_POINT_STRIDE, NO_EXCEPTION};

/// Maximum code width supported by PFOR, per the paper ("bit-widths b that
/// may vary 1 ≤ b ≤ 24").
pub const MAX_PFOR_WIDTH: u8 = 24;

/// A PFOR-compressed block of `u32` values: its block image, which every
/// accessor views in place (see [`crate::block`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PforBlock(pub(crate) Image);

impl PforBlock {
    /// Compresses `values` with the width and base [`choose_parameters`]
    /// picks for them in one pass.
    pub fn encode_auto(values: &[u32]) -> Self {
        let (b, base) = choose_parameters(values);
        Self::encode(values, b, base)
    }

    /// Compresses `values` with the given width, choosing the base
    /// automatically. The paper's IR experiments fix `b = 8` this way.
    pub fn encode_with_width(values: &[u32], b: u8) -> Self {
        let base = choose_base(values, b);
        Self::encode(values, b, base)
    }

    /// Compresses `values` as `b`-bit offsets from `base`.
    ///
    /// # Panics
    /// Panics if `b` is outside `1..=24`.
    pub fn encode(values: &[u32], b: u8, base: u32) -> Self {
        PforBlock(encode_image(TAG_PFOR, values, b, base))
    }

    fn image(&self) -> &Image {
        &self.0
    }

    crate::patch::patched_views!();

    /// Frame-of-reference base.
    pub fn base(&self) -> u32 {
        self.0.base()
    }

    /// Compressed size in bytes (code section + exceptions + entry points +
    /// fixed header), as accounted by the compression-ratio experiment.
    pub fn compressed_bytes(&self) -> usize {
        let header = 4 + 1 + 4 + 4; // n, b, base, first_exception
        let codes = (self.len() * self.width() as usize).div_ceil(8);
        let exceptions = self.exception_count() * 4;
        let entries = self.entry_points().len() * 8;
        header + codes + exceptions + entries
    }

    /// Decompresses the whole block into `out` (cleared first) using
    /// **patched** two-loop decoding.
    pub fn decode_into(&self, out: &mut Vec<u32>) {
        self.decode_range_into(0, self.len(), out)
            .expect("the whole block is an aligned range");
    }

    /// Decompresses `len` values starting at `start` (which must be a
    /// multiple of [`ENTRY_POINT_STRIDE`]) using the entry points, without
    /// touching the rest of the block. This is the "fine-granularity access
    /// and skipping" path used while merging inverted lists.
    ///
    /// # Errors
    /// Returns [`CodecError::Misaligned`] if `start` is not entry-aligned,
    /// or [`CodecError::OutOfBounds`] if the range exceeds the block.
    pub fn decode_range_into(
        &self,
        start: usize,
        len: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), CodecError> {
        check_range(start, len, self.len())?;
        // LOOP1 over the range only: unpack + apply base, branch-free.
        bitpack::unpack_range(self.0.codes(), start, len, self.width(), out);
        let base = self.base();
        for v in out.iter_mut() {
            *v = base.wrapping_add(*v);
        }
        // LOOP2: patch it up. The gap is recovered from the (incorrectly)
        // decoded slot: LOOP1 wrote base + gap there.
        patch_range(&self.0, start, out, |out, i| {
            out[i].wrapping_sub(base) as usize
        });
        Ok(())
    }
}

/// The PFOR image of `values` as `b`-bit offsets from `base`, under codec
/// `tag` (PFOR-DELTA lays its deltas out the same way).
pub(crate) fn encode_image(tag: u8, values: &[u32], b: u8, base: u32) -> Image {
    assert!(
        (1..=MAX_PFOR_WIDTH).contains(&b),
        "PFOR width {b} outside 1..=24"
    );
    // All 2^b codes are usable: exceptions are positional.
    crate::patch::encode(tag, b, base, values, |v| {
        let offset = v.wrapping_sub(base);
        (offset >> b == 0).then_some(offset)
    })
}

/// Chooses the base for a fixed width `b`: slides a window of width `2^b`
/// over the sorted values and keeps the start covering the most values
/// (fewest exceptions).
pub fn choose_base(values: &[u32], b: u8) -> u32 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let range = 1u64 << b;
    let mut best_base = sorted[0];
    let mut best_cover = 0usize;
    let mut lo = 0usize;
    for hi in 0..sorted.len() {
        while u64::from(sorted[hi]) - u64::from(sorted[lo]) >= range {
            lo += 1;
        }
        let cover = hi - lo + 1;
        if cover > best_cover {
            best_cover = cover;
            best_base = sorted[lo];
        }
    }
    best_base
}

/// Bits [`choose_parameters`] charges each exception on top of its 32-bit
/// value: LOOP2's patch work, priced in bits, so a narrower width must save
/// one code bit per value for every 64 values it patches. Fitted from
/// `fig3_patch_vs_naive`'s width sweep on tf-like data: the chooser lands on
/// `b = 6` (2.8 % exceptions), the fewest bits per value that still decodes
/// as fast as `b = 8`; `b = 4` patches 17.3 % and decodes slower.
pub const EXCEPTION_PATCH_BITS: u64 = 32;

/// Chooses `(width, base)` for one block in one pass, minimizing
/// `n·b + e(b)·(32 + EXCEPTION_PATCH_BITS)` bits over `b` in `1..=24`.
///
/// `base` is the block minimum, so a value is a natural exception at width
/// `b` exactly when `bitlen(v − base) > b`: one 33-bucket histogram of those
/// bit lengths gives `natural(b)` for every width at once. Once two or more
/// natural exceptions exist, the **compulsory** ones that bridge gaps wider
/// than `2^b − 1` are bounded from above by `(n − natural(b)) / (2^b − 1)`.
/// Without that term a dense block of small deltas with sparse outliers
/// picks `b = 1`, where nearly every slot after the first outlier becomes
/// an exception.
pub fn choose_parameters(values: &[u32]) -> (u8, u32) {
    let Some(&base) = values.iter().min() else {
        return (1, 0);
    };
    let mut hist = [0u64; 33];
    for &v in values {
        hist[(32 - (v - base).leading_zeros()) as usize] += 1;
    }
    let n = values.len() as u64;
    // Values whose bit length exceeds the width under consideration.
    let mut natural = n - hist[0];
    let mut best = (u64::MAX, 1u8);
    for b in 1..=MAX_PFOR_WIDTH {
        natural -= hist[usize::from(b)];
        // One natural exception links to nothing; trailing compulsory ones
        // are trimmed, so only gaps between naturals need bridging.
        let compulsory = if natural > 1 {
            (n - natural) / ((1u64 << b) - 1)
        } else {
            0
        };
        let cost = n * u64::from(b) + (natural + compulsory) * (32 + EXCEPTION_PATCH_BITS);
        if cost < best.0 {
            best = (cost, b);
        }
    }
    (best.1, base)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32], b: u8) {
        let base = choose_base(values, b);
        let block = PforBlock::encode(values, b, base);
        assert_eq!(block.decode(), values, "b={b} base={base}");
    }

    #[test]
    fn roundtrip_no_exceptions() {
        let values: Vec<u32> = (100..400).collect();
        let block = PforBlock::encode(&values, 9, 100);
        assert_eq!(block.exception_count(), 0);
        assert_eq!(block.decode(), values);
    }

    #[test]
    fn roundtrip_with_exceptions() {
        let mut values: Vec<u32> = (0..1000).map(|i| i % 200).collect();
        values[17] = 1_000_000;
        values[503] = 2_000_000_000;
        roundtrip(&values, 8);
    }

    #[test]
    fn roundtrip_all_exceptions() {
        // Base far away: every value is an exception.
        let values: Vec<u32> = (0..300).map(|i| 1_000_000 + i * 7).collect();
        let block = PforBlock::encode(&values, 4, 0);
        assert!(block.exception_rate() > 0.9);
        assert_eq!(block.decode(), values);
    }

    #[test]
    fn roundtrip_empty() {
        let block = PforBlock::encode(&[], 8, 0);
        assert!(block.is_empty());
        assert!(block.decode().is_empty());
    }

    #[test]
    fn roundtrip_single() {
        let block = PforBlock::encode(&[7], 3, 0);
        assert_eq!(block.decode(), vec![7]);
        let block = PforBlock::encode(&[900], 3, 0);
        assert_eq!(block.decode(), vec![900]);
    }

    #[test]
    fn pi_digits_example_from_figure_2() {
        // The paper's Figure 2: digits of pi stored with PFOR b=3, base=0.
        // Digits >= 8 are exceptions.
        let pi = [3u32, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2];
        let block = PforBlock::encode(&pi, 3, 0);
        // Exceptions are the digits 9, 8, 9, 9 (values >= 8).
        assert!(block.exceptions().eq([9, 8, 9, 9]));
        assert_eq!(block.first_exception(), 5);
        assert_eq!(block.decode(), pi);
    }

    #[test]
    fn compulsory_exceptions_bridge_long_gaps() {
        // b=2 => max gap 3. Two natural exceptions far apart force
        // intermediate compulsory exceptions.
        let mut values = vec![1u32; 64];
        values[0] = 1000; // natural exception
        values[63] = 2000; // natural exception
        let block = PforBlock::encode(&values, 2, 0);
        assert!(block.exception_count() > 2, "needs compulsory exceptions");
        assert_eq!(block.decode(), values);
    }

    #[test]
    fn no_trailing_compulsory_exceptions() {
        // Natural exception early, then a long codeable tail: the tail must
        // not accumulate forced exceptions.
        let mut values = vec![1u32; 1024];
        values[3] = 1_000_000;
        let block = PforBlock::encode(&values, 2, 0);
        assert_eq!(block.exception_count(), 1);
        assert_eq!(block.decode(), values);
    }

    #[test]
    fn width_boundaries() {
        let values: Vec<u32> = (0..500).map(|i| i * 37 % 1000).collect();
        roundtrip(&values, 1);
        roundtrip(&values, 24);
    }

    #[test]
    fn wrapping_base_handles_u32_extremes() {
        let values = [u32::MAX, 0, u32::MAX - 1, 1];
        let block = PforBlock::encode(&values, 8, u32::MAX - 10);
        assert_eq!(block.decode(), values);
    }

    #[test]
    fn decode_range_matches_full_decode() {
        let values: Vec<u32> = (0..1000)
            .map(|i| if i % 97 == 0 { 5_000_000 } else { i % 250 })
            .collect();
        let block = PforBlock::encode(&values, 8, 0);
        let full = block.decode();
        let mut out = Vec::new();
        for start in (0..values.len()).step_by(ENTRY_POINT_STRIDE) {
            let len = (values.len() - start).min(ENTRY_POINT_STRIDE);
            block.decode_range_into(start, len, &mut out).unwrap();
            assert_eq!(out, &full[start..start + len], "start={start}");
        }
        // A longer, multi-stride range.
        block.decode_range_into(128, 512, &mut out).unwrap();
        assert_eq!(out, &full[128..640]);
    }

    #[test]
    fn decode_range_rejects_misaligned_start() {
        let block = PforBlock::encode(&[1, 2, 3], 4, 0);
        let mut out = Vec::new();
        assert!(matches!(
            block.decode_range_into(1, 1, &mut out),
            Err(CodecError::Misaligned { .. })
        ));
    }

    #[test]
    fn decode_range_rejects_overflow() {
        let block = PforBlock::encode(&[1, 2, 3], 4, 0);
        let mut out = Vec::new();
        assert!(matches!(
            block.decode_range_into(0, 99, &mut out),
            Err(CodecError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn choose_base_prefers_dense_region() {
        // Most values cluster near 1000; outliers below should not drag the
        // base down.
        let mut values: Vec<u32> = (1000..1200).collect();
        values.push(0);
        values.push(5);
        let base = choose_base(&values, 8);
        assert_eq!(base, 1000);
    }

    #[test]
    fn choose_parameters_picks_small_width_for_small_range() {
        let values: Vec<u32> = (0..512).map(|i| i % 16).collect();
        let (b, base) = choose_parameters(&values);
        assert!(b <= 5, "b={b}");
        assert_eq!(base, 0);
    }

    #[test]
    fn chooser_counts_compulsory_exceptions() {
        // Docid-like deltas: mostly 1, an outlier every 50 values. Counting
        // natural exceptions alone picks b = 1, where every slot after the
        // first outlier is a compulsory exception.
        let deltas: Vec<u32> = (0..4096)
            .map(|i| if i % 50 == 49 { 1000 } else { 1 })
            .collect();
        assert_eq!(choose_parameters(&deltas), (6, 1));
        let auto = PforBlock::encode_auto(&deltas);
        assert_eq!(auto.exception_count(), 81, "only the natural exceptions");
        let fixed = PforBlock::encode_with_width(&deltas, 8);
        assert!(
            auto.compressed_bytes() < fixed.compressed_bytes(),
            "auto {} vs b = 8 {}",
            auto.compressed_bytes(),
            fixed.compressed_bytes()
        );
        assert_eq!(auto.decode(), deltas);
    }

    #[test]
    fn compressed_size_reflects_width() {
        let values: Vec<u32> = (0..10_000).map(|i| i % 200).collect();
        let block = PforBlock::encode_with_width(&values, 8);
        // ~8 bits/value plus small overhead.
        assert!(block.bits_per_value() < 10.0, "{}", block.bits_per_value());
        assert!(block.bits_per_value() >= 8.0);
    }

    #[test]
    fn entry_points_cover_all_strides() {
        let values: Vec<u32> = (0..300).collect();
        let block = PforBlock::encode_with_width(&values, 8);
        assert_eq!(block.entry_points().len(), 3); // ceil(300/128)
    }
}
