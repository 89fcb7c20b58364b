//! PFOR-DELTA — PFOR over the differences of subsequent values (§2.1).
//!
//! "PFOR-DELTA encodes the differences between subsequent values in a column
//! with PFOR." It is the codec of choice for the partially ordered `docid`
//! column of the inverted index: consecutive document ids in a term's
//! posting list are close together, so their deltas are small integers that
//! compress to ~8 bits (the paper reaches 11.98 bits/tuple from 32).
//!
//! To preserve the fine-granularity range access of the block format, the
//! running value at every [`ENTRY_POINT_STRIDE`]-aligned position is kept as
//! a **restart value**, so a range decode never has to prefix-sum from the
//! start of the block.

use crate::image::{Image, TAG_PFOR_DELTA};
use crate::pfor::{PforBlock, ENTRY_POINT_STRIDE};
use crate::CodecError;

/// A PFOR-DELTA-compressed block of `u32` values: a PFOR image over the
/// deltas whose extras section holds the restart values.
///
/// Deltas use wrapping arithmetic, so arbitrary (not only sorted) inputs
/// round-trip; sorted inputs are simply where the codec pays off.
#[derive(Debug, Clone, PartialEq)]
pub struct PforDeltaBlock(pub(crate) PforBlock);

impl PforDeltaBlock {
    /// Compresses `values`, choosing delta width and base automatically.
    pub fn encode_auto(values: &[u32]) -> Self {
        let deltas = to_deltas(values);
        let (b, base) = crate::pfor::choose_parameters(&deltas);
        Self::from_deltas(values, &deltas, b, base)
    }

    /// Compresses `values` with a fixed code width (the paper uses 8 bits
    /// for `docid` deltas), choosing the base automatically.
    ///
    /// # Panics
    /// Panics if `b` is outside `1..=24`.
    pub fn encode_with_width(values: &[u32], b: u8) -> Self {
        let deltas = to_deltas(values);
        let base = crate::pfor::choose_base(&deltas, b);
        Self::from_deltas(values, &deltas, b, base)
    }

    fn from_deltas(values: &[u32], deltas: &[u32], b: u8, base: u32) -> Self {
        let mut image = crate::pfor::encode_image(TAG_PFOR_DELTA, deltas, b, base);
        let restarts = values.iter().step_by(ENTRY_POINT_STRIDE);
        let extras = image.sections().extras;
        for (slot, &v) in image.section_mut::<u32>(extras).iter_mut().zip(restarts) {
            *slot = v;
        }
        PforDeltaBlock(PforBlock(image))
    }

    fn image(&self) -> &Image {
        &self.0 .0
    }

    crate::patch::patched_views!();

    /// Frame-of-reference base of the deltas.
    pub fn base(&self) -> u32 {
        self.0.base()
    }

    /// Restart values (one per entry-point stride).
    pub fn restarts(&self) -> &[u32] {
        self.image().extras()
    }

    /// Compressed size in bytes, including restart values.
    pub fn compressed_bytes(&self) -> usize {
        self.0.compressed_bytes() + self.restarts().len() * 4
    }

    /// Decompresses the whole block: patched PFOR decode of the deltas,
    /// then a prefix sum. Both loops are branch-free.
    pub fn decode_into(&self, out: &mut Vec<u32>) {
        self.decode_range_into(0, self.len(), out)
            .expect("the whole block is an aligned range");
    }

    /// Decompresses `len` values starting at entry-aligned `start`, using
    /// the restart value to seed the prefix sum.
    pub fn decode_range_into(
        &self,
        start: usize,
        len: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), CodecError> {
        self.0.decode_range_into(start, len, out)?;
        if len == 0 {
            return Ok(());
        }
        // `start` is stride-aligned (checked by the inner call), so a
        // restart value exists for it.
        let mut acc = self.image().extra(start / ENTRY_POINT_STRIDE);
        out[0] = acc;
        for v in out.iter_mut().skip(1) {
            acc = acc.wrapping_add(*v);
            *v = acc;
        }
        Ok(())
    }
}

/// Deltas with `deltas[0] = values[0]` (delta from zero), wrapping.
fn to_deltas(values: &[u32]) -> Vec<u32> {
    let mut deltas = Vec::with_capacity(values.len());
    let mut prev = 0u32;
    for &v in values {
        deltas.push(v.wrapping_sub(prev));
        prev = v;
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_sorted_docids() {
        let values: Vec<u32> = (0..5000u32).map(|i| i * 3 + (i % 7)).collect();
        let block = PforDeltaBlock::encode_with_width(&values, 8);
        assert_eq!(block.decode(), values);
    }

    #[test]
    fn roundtrip_unsorted_via_wrapping() {
        let values = [100u32, 5, u32::MAX, 0, 17, 17];
        let block = PforDeltaBlock::encode_with_width(&values, 8);
        assert_eq!(block.decode(), values);
    }

    #[test]
    fn roundtrip_empty_and_single() {
        assert!(PforDeltaBlock::encode_with_width(&[], 8)
            .decode()
            .is_empty());
        assert_eq!(
            PforDeltaBlock::encode_with_width(&[42], 8).decode(),
            vec![42]
        );
    }

    #[test]
    fn sorted_small_gaps_have_few_exceptions() {
        // Typical posting list: gaps of 1..=16.
        let mut values = Vec::new();
        let mut acc = 0u32;
        for i in 0..10_000u32 {
            acc += 1 + (i % 16);
            values.push(acc);
        }
        let block = PforDeltaBlock::encode_with_width(&values, 8);
        // Every delta (including v[0]'s delta-from-zero, which is small
        // here) fits 8 bits.
        assert_eq!(block.exception_count(), 0);
        assert!(block.bits_per_value() < 9.5, "{}", block.bits_per_value());
    }

    #[test]
    fn beats_plain_pfor_on_sorted_data() {
        let values: Vec<u32> = (0..8192u32).map(|i| 1_000_000 + i * 5).collect();
        let delta = PforDeltaBlock::encode_auto(&values);
        let plain = crate::pfor::PforBlock::encode_auto(&values);
        assert!(
            delta.compressed_bytes() < plain.compressed_bytes(),
            "delta {} vs plain {}",
            delta.compressed_bytes(),
            plain.compressed_bytes()
        );
    }

    #[test]
    fn decode_range_matches_full() {
        let values: Vec<u32> = (0..2000u32)
            .map(|i| i * 2 + if i % 211 == 0 { 100_000 } else { 0 })
            .scan(0u32, |acc, d| {
                *acc = acc.wrapping_add(d);
                Some(*acc)
            })
            .collect();
        let block = PforDeltaBlock::encode_with_width(&values, 8);
        let full = block.decode();
        assert_eq!(full, values);
        let mut out = Vec::new();
        for start in (0..values.len()).step_by(ENTRY_POINT_STRIDE) {
            let len = (values.len() - start).min(300);
            block.decode_range_into(start, len, &mut out).unwrap();
            assert_eq!(out, &full[start..start + len], "start={start}");
        }
    }

    #[test]
    fn decode_range_rejects_misaligned() {
        let block = PforDeltaBlock::encode_with_width(&[1, 2, 3], 8);
        let mut out = Vec::new();
        assert!(block.decode_range_into(7, 1, &mut out).is_err());
    }

    #[test]
    fn restart_count_matches_strides() {
        let values: Vec<u32> = (0..300).collect();
        let block = PforDeltaBlock::encode_with_width(&values, 8);
        assert_eq!(block.restarts().len(), 3);
        assert_eq!(block.restarts()[1], 128);
    }
}
