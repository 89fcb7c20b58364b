//! PDICT — patched dictionary compression (§2.1).
//!
//! PDICT maps frequent values to small `b`-bit dictionary codes; infrequent
//! values become exceptions handled with the same positional linked-list
//! patching as PFOR. Decompression is again two branch-free loops — LOOP1 is
//! a gather through the dictionary (`out[i] = dict[code[i]]`), LOOP2 patches
//! the exception slots.
//!
//! The dictionary is padded to the full `2^b` entries so that the gather in
//! LOOP1 can run unconditionally even over exception slots (whose code words
//! hold gap values, not dictionary indexes).

use std::collections::HashMap;

use crate::bitpack;
use crate::image::{Image, TAG_PDICT};
use crate::patch::{check_range, patch_range};
use crate::CodecError;

pub use crate::patch::ENTRY_POINT_STRIDE;

/// Maximum PDICT code width. Capped below PFOR's 24 to bound the padded
/// dictionary at 65 536 entries; IR columns (quantized scores, `tf`) need
/// at most a few thousand distinct values anyway.
pub const MAX_PDICT_WIDTH: u8 = 16;

/// A PDICT-compressed block of `u32` values: its block image, whose extras
/// section is the dictionary padded to `2^b` entries.
#[derive(Debug, Clone, PartialEq)]
pub struct PdictBlock(pub(crate) Image);

impl PdictBlock {
    /// Compresses `values` with a dictionary of at most `2^b` entries built
    /// from the most frequent values.
    ///
    /// # Panics
    /// Panics if `b` is outside `1..=16`.
    pub fn encode(values: &[u32], b: u8) -> Self {
        assert!(
            (1..=MAX_PDICT_WIDTH).contains(&b),
            "PDICT width {b} outside 1..=16"
        );

        // Frequency count, then keep the most frequent values.
        let mut freq: HashMap<u32, u32> = HashMap::new();
        for &v in values {
            *freq.entry(v).or_insert(0) += 1;
        }
        let mut by_freq: Vec<(u32, u32)> = freq.into_iter().collect();
        // Sort by descending frequency, ties by value for determinism.
        by_freq.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        by_freq.truncate(1 << b);
        let codes_of: HashMap<u32, u32> = by_freq
            .iter()
            .enumerate()
            .map(|(c, &(v, _))| (v, c as u32))
            .collect();

        let mut image =
            crate::patch::encode(TAG_PDICT, b, 0, values, |v| codes_of.get(&v).copied());
        // The image's dictionary is zero-padded to 2^b entries, so LOOP1's
        // gather never goes out of bounds.
        let extras = image.sections().extras;
        for (slot, &(v, _)) in image.section_mut::<u32>(extras).iter_mut().zip(&by_freq) {
            *slot = v;
        }
        PdictBlock(image)
    }

    fn image(&self) -> &Image {
        &self.0
    }

    crate::patch::patched_views!();

    /// The (padded) dictionary.
    pub fn dict(&self) -> &[u32] {
        self.0.extras()
    }

    /// Compressed size in bytes: header, codes, exceptions, entry points and
    /// the *used* dictionary.
    pub fn compressed_bytes(&self) -> usize {
        let header = 4 + 1 + 4;
        let codes = (self.len() * self.width() as usize).div_ceil(8);
        let exceptions = self.exception_count() * 4;
        let entries = self.entry_points().len() * 8;
        let dict = self.dict().len() * 4;
        header + codes + exceptions + entries + dict
    }

    /// Decompresses the whole block: branch-free dictionary gather, then the
    /// patch loop (which reads gaps from the raw code words).
    pub fn decode_into(&self, out: &mut Vec<u32>) {
        self.decode_range_into(0, self.len(), out)
            .expect("the whole block is an aligned range");
    }

    /// Decompresses `len` values starting at entry-aligned `start`.
    pub fn decode_range_into(
        &self,
        start: usize,
        len: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), CodecError> {
        check_range(start, len, self.len())?;
        let mut codes = Vec::new();
        bitpack::unpack_range(self.0.codes(), start, len, self.width(), &mut codes);
        out.clear();
        out.reserve(len);
        // LOOP1: gather through the padded dictionary — no bounds branch
        // because codes (including gap values) are < 2^b == dict.len().
        let dict = self.dict();
        out.extend(codes.iter().map(|&c| dict[c as usize]));
        // LOOP2: patch.
        patch_range(&self.0, start, out, |_, i| codes[i] as usize);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_skewed_values() {
        // Zipf-ish: a few very frequent values, a long tail of rare ones.
        let values: Vec<u32> = (0..5000u32)
            .map(|i| if i % 10 < 8 { i % 4 } else { 1_000_000 + i })
            .collect();
        let block = PdictBlock::encode(&values, 8);
        assert_eq!(block.decode(), values);
    }

    #[test]
    fn frequent_values_are_coded_not_exceptions() {
        let values: Vec<u32> = (0..1000u32).map(|i| i % 3).collect();
        let block = PdictBlock::encode(&values, 2);
        assert_eq!(block.exception_count(), 0);
        assert_eq!(block.decode(), values);
    }

    #[test]
    fn rare_values_become_exceptions() {
        // b=1: the dictionary holds only the two most frequent values (7 and
        // 8), so both rare values are exceptions — plus the compulsory chain
        // entries that bridge them (max gap is 1 for b=1).
        let mut values: Vec<u32> = (0..500u32).map(|i| 7 + (i % 2)).collect();
        values[100] = 123_456;
        values[300] = 654_321;
        let block = PdictBlock::encode(&values, 1);
        assert!(block.exception_count() >= 2);
        assert_eq!(block.decode(), values);
    }

    #[test]
    fn roundtrip_empty_and_single() {
        assert!(PdictBlock::encode(&[], 4).decode().is_empty());
        assert_eq!(PdictBlock::encode(&[9], 4).decode(), vec![9]);
    }

    #[test]
    fn more_distinct_values_than_dict_entries() {
        let values: Vec<u32> = (0..600u32).collect(); // 600 distinct, dict 16
        let block = PdictBlock::encode(&values, 4);
        assert_eq!(block.decode(), values);
        assert!(block.exception_rate() > 0.9);
    }

    #[test]
    fn decode_range_matches_full() {
        let values: Vec<u32> = (0..1500u32)
            .map(|i| if i % 5 == 0 { 888_888 + i } else { i % 7 })
            .collect();
        let block = PdictBlock::encode(&values, 3);
        let full = block.decode();
        assert_eq!(full, values);
        let mut out = Vec::new();
        for start in (0..values.len()).step_by(ENTRY_POINT_STRIDE) {
            let len = (values.len() - start).min(200);
            block.decode_range_into(start, len, &mut out).unwrap();
            assert_eq!(out, &full[start..start + len], "start={start}");
        }
    }

    #[test]
    fn deterministic_dictionary_order() {
        let values = [5u32, 5, 3, 3, 9, 9, 1];
        let a = PdictBlock::encode(&values, 2);
        let b = PdictBlock::encode(&values, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn compressed_smaller_than_raw_for_skewed_data() {
        let values: Vec<u32> = (0..100_000u32).map(|i| i % 16).collect();
        let block = PdictBlock::encode(&values, 4);
        assert!(block.compressed_bytes() < values.len() * 4 / 4);
    }
}
