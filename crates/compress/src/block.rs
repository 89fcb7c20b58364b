//! The compressed-block format — the physical layout of Figure 2, in RAM
//! and on disk alike.
//!
//! A block *is* its image: little-endian `u64` words that encoding writes
//! in place, [`CompressedBlock::to_bytes`] copies out, and
//! [`CompressedBlock::from_bytes`] (or a pool miss's `pread`) copies in and
//! validates. Every section starts on an 8-byte boundary:
//!
//! ```text
//! word 0      magic "X1CB" (u32) | codec tag (u8) | width b (u8) | 0 (u16)
//! word 1      value count n (u32) | exception count e (u32)
//! word 2      base (u32) | 0 (u32)               PFOR and PFOR-DELTA only
//! entries     ceil(n/128) × (next exception, its rank), u32 each
//! codes       packed_len(n, b) words: the b-bit codes, growing forward,
//!             then the padding word the unpack kernels read (Raw: values)
//! extras      PFOR-DELTA: ceil(n/128) restart values; PDICT: the
//!             dictionary, padded to 2^b entries (u32 each)
//! exceptions  e values (u32) growing backwards: the first is the image's
//!             last u32, as in Figure 2; an odd count has a zero u32 in front
//! ```
//!
//! Nothing a reader can derive is stored: section lengths follow from `n`,
//! `b` and `e`, and the first exception is entry point 0's. Loading checks
//! the magic, codec tag, width and exact length and, for the patched
//! codecs, the exception chain and entry points, returning [`CodecError`]
//! on corruption.

use crate::image::{Image, TAG_PFOR, TAG_PFOR_DELTA, TAG_RAW};
use crate::patch::check_range;
use crate::pdict::PdictBlock;
use crate::pfor::PforBlock;
use crate::pfor_delta::PforDeltaBlock;
use crate::CodecError;

pub use crate::image::Sections;

/// Magic number at the start of every block image (`X1CB`).
pub const BLOCK_MAGIC: u32 = 0x5831_4342;

/// The [`Codec`] width meaning "chosen per block": [`CompressedBlock::encode`]
/// gives each PFOR or PFOR-DELTA block the width and base
/// [`crate::pfor::choose_parameters`] picks for its values. Every block image
/// records its own width, so decoding never needs the column's.
pub const PER_BLOCK_WIDTH: u8 = 0;

/// Codec selection for a column, chosen at index-build time.
///
/// The paper compresses the partially ordered `docid` column with
/// PFOR-DELTA (8-bit codes) and the small-integer `tf` column with PFOR
/// (8-bit codes); the index lets every block choose its width instead
/// ([`PER_BLOCK_WIDTH`]). Quantized score columns suit PDICT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// No compression: values stored as raw little-endian `u32`s.
    Raw,
    /// Patched frame-of-reference with the given code width.
    Pfor {
        /// Code width in bits (1..=24), or [`PER_BLOCK_WIDTH`].
        width: u8,
    },
    /// PFOR over deltas of subsequent values.
    PforDelta {
        /// Code width in bits (1..=24), or [`PER_BLOCK_WIDTH`].
        width: u8,
    },
    /// Patched dictionary encoding.
    Pdict {
        /// Code width in bits (1..=12); the dictionary holds `2^width` entries.
        width: u8,
    },
}

/// Uncompressed values in a block image.
#[derive(Debug, Clone, PartialEq)]
pub struct RawBlock(Image);

impl RawBlock {
    /// The values.
    pub fn values(&self) -> &[u32] {
        self.0.values()
    }
}

/// A compressed block in memory: the unit ColumnBM keeps cached in RAM and
/// decompresses *at vector granularity* into the CPU cache. Each variant
/// owns the block's image and nothing else.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressedBlock {
    /// A [`RawBlock`].
    Raw(RawBlock),
    /// A [`PforBlock`].
    Pfor(PforBlock),
    /// A [`PforDeltaBlock`].
    PforDelta(PforDeltaBlock),
    /// A [`PdictBlock`].
    Pdict(PdictBlock),
}

impl CompressedBlock {
    /// Compresses `values` with the chosen codec.
    pub fn encode(values: &[u32], codec: Codec) -> Self {
        match codec {
            Codec::Raw => CompressedBlock::Raw(RawBlock(Image::raw(values))),
            Codec::Pfor {
                width: PER_BLOCK_WIDTH,
            } => CompressedBlock::Pfor(PforBlock::encode_auto(values)),
            Codec::PforDelta {
                width: PER_BLOCK_WIDTH,
            } => CompressedBlock::PforDelta(PforDeltaBlock::encode_auto(values)),
            Codec::Pfor { width } => {
                CompressedBlock::Pfor(PforBlock::encode_with_width(values, width))
            }
            Codec::PforDelta { width } => {
                CompressedBlock::PforDelta(PforDeltaBlock::encode_with_width(values, width))
            }
            Codec::Pdict { width } => CompressedBlock::Pdict(PdictBlock::encode(values, width)),
        }
    }

    /// Reads an image of `len` bytes with `fill` straight into the new
    /// block's buffer, then validates it in place — no parse, no second
    /// copy. A disk-backed column's pool miss passes a `pread` here.
    pub fn read_image<E: From<CodecError>>(
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<Self, E> {
        let image = Image::read(len, fill)?;
        Ok(match image.tag() {
            TAG_RAW => CompressedBlock::Raw(RawBlock(image)),
            TAG_PFOR => CompressedBlock::Pfor(PforBlock(image)),
            TAG_PFOR_DELTA => CompressedBlock::PforDelta(PforDeltaBlock(PforBlock(image))),
            // Validation admits no other tag.
            _ => CompressedBlock::Pdict(PdictBlock(image)),
        })
    }

    /// Copies a stored image into an aligned buffer and validates it.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CodecError> {
        Self::read_image(data.len(), |buf| {
            buf.copy_from_slice(data);
            Ok(())
        })
    }

    fn image(&self) -> &Image {
        match self {
            CompressedBlock::Raw(b) => &b.0,
            CompressedBlock::Pfor(b) => &b.0,
            CompressedBlock::PforDelta(b) => &b.0 .0,
            CompressedBlock::Pdict(b) => &b.0,
        }
    }

    /// The block's image, as stored on disk.
    pub fn as_bytes(&self) -> &[u8] {
        self.image().as_bytes()
    }

    /// An owned copy of the block's image.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }

    /// Byte ranges of the image's sections.
    pub fn sections(&self) -> Sections {
        self.image().sections()
    }

    /// Number of encoded values.
    pub fn len(&self) -> usize {
        self.image().len()
    }

    /// Whether the block holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decompresses all values into `out` (cleared first).
    pub fn decode_into(&self, out: &mut Vec<u32>) {
        self.decode_range_into(0, self.len(), out)
            .expect("the whole block is an aligned range");
    }

    /// Decompresses `len` values starting at entry-aligned `start`.
    ///
    /// # Errors
    /// [`CodecError::Misaligned`] for an unaligned `start` — Raw included,
    /// so no caller comes to rely on what only uncompressed columns allow —
    /// and [`CodecError::OutOfBounds`] past the block's end.
    pub fn decode_range_into(
        &self,
        start: usize,
        len: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), CodecError> {
        match self {
            CompressedBlock::Raw(b) => {
                let v = b.values();
                check_range(start, len, v.len())?;
                out.clear();
                out.extend_from_slice(&v[start..start + len]);
                Ok(())
            }
            CompressedBlock::Pfor(b) => b.decode_range_into(start, len, out),
            CompressedBlock::PforDelta(b) => b.decode_range_into(start, len, out),
            CompressedBlock::Pdict(b) => b.decode_range_into(start, len, out),
        }
    }

    /// In-memory compressed size in bytes (what the buffer manager accounts
    /// and what the simulated disk transfers).
    pub fn compressed_bytes(&self) -> usize {
        match self {
            CompressedBlock::Raw(b) => b.values().len() * 4,
            CompressedBlock::Pfor(b) => b.compressed_bytes(),
            CompressedBlock::PforDelta(b) => b.compressed_bytes(),
            CompressedBlock::Pdict(b) => b.compressed_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_values() -> Vec<u32> {
        (0..1000u32)
            .map(|i| if i % 37 == 0 { 1_000_000 + i } else { i % 200 })
            .collect()
    }

    fn roundtrip(codec: Codec) {
        let values = sample_values();
        let block = CompressedBlock::encode(&values, codec);
        let bytes = block.to_bytes();
        let back = CompressedBlock::from_bytes(&bytes).unwrap();
        assert_eq!(back, block, "{codec:?}");
        let mut out = Vec::new();
        back.decode_into(&mut out);
        assert_eq!(out, values, "{codec:?}");
    }

    #[test]
    fn serialize_roundtrip_all_codecs() {
        roundtrip(Codec::Raw);
        roundtrip(Codec::Pfor { width: 8 });
        roundtrip(Codec::PforDelta { width: 8 });
        roundtrip(Codec::Pdict { width: 8 });
        roundtrip(Codec::Pfor {
            width: PER_BLOCK_WIDTH,
        });
        roundtrip(Codec::PforDelta {
            width: PER_BLOCK_WIDTH,
        });
    }

    #[test]
    fn serialize_roundtrip_empty() {
        for codec in [
            Codec::Raw,
            Codec::Pfor { width: 8 },
            Codec::PforDelta { width: 8 },
            Codec::Pdict { width: 8 },
        ] {
            let block = CompressedBlock::encode(&[], codec);
            let back = CompressedBlock::from_bytes(&block.to_bytes()).unwrap();
            assert!(back.is_empty());
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = CompressedBlock::encode(&[1, 2, 3], Codec::Raw).to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            CompressedBlock::from_bytes(&bytes),
            Err(CodecError::BadMagic(_))
        ));
    }

    #[test]
    fn unknown_codec_rejected() {
        let mut bytes = CompressedBlock::encode(&[1, 2, 3], Codec::Raw).to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            CompressedBlock::from_bytes(&bytes),
            Err(CodecError::UnknownCodec(99))
        ));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let values = sample_values();
        for codec in [
            Codec::Pfor { width: 8 },
            Codec::PforDelta { width: 8 },
            Codec::Pdict { width: 8 },
        ] {
            let bytes = CompressedBlock::encode(&values, codec).to_bytes();
            // Chop at a few strategic points — every prefix must fail
            // cleanly, never panic.
            for cut in [0, 3, 5, 9, 12, bytes.len() / 2, bytes.len() - 1] {
                let r = CompressedBlock::from_bytes(&bytes[..cut]);
                assert!(r.is_err(), "{codec:?} cut={cut}");
            }
        }
    }

    #[test]
    fn corrupt_width_rejected() {
        let bytes = CompressedBlock::encode(&sample_values(), Codec::Pfor { width: 8 }).to_bytes();
        let mut corrupted = bytes.clone();
        corrupted[5] = 77; // width byte: 77 > 24
        assert!(matches!(
            CompressedBlock::from_bytes(&corrupted),
            Err(CodecError::UnsupportedWidth(77))
        ));
    }

    #[test]
    fn exceptions_physically_stored_backwards() {
        // Two exceptions: 111111 (first) and 222222 (second), close enough
        // together that no compulsory exceptions are inserted between them.
        // In the byte stream the *first* exception must come last (backward
        // growth).
        let mut values = vec![1u32; 300];
        values[10] = 111_111;
        values[12] = 222_222;
        let block = CompressedBlock::encode(&values, Codec::Pfor { width: 4 });
        let bytes = block.to_bytes();
        let tail_last = &bytes[bytes.len() - 4..];
        let tail_prev = &bytes[bytes.len() - 8..bytes.len() - 4];
        assert_eq!(u32::from_le_bytes(tail_last.try_into().unwrap()), 111_111);
        assert_eq!(u32::from_le_bytes(tail_prev.try_into().unwrap()), 222_222);
    }

    #[test]
    fn decode_range_dispatches_for_raw() {
        let values: Vec<u32> = (0..300).collect();
        let block = CompressedBlock::encode(&values, Codec::Raw);
        let mut out = Vec::new();
        block.decode_range_into(128, 2, &mut out).unwrap();
        assert_eq!(out, vec![128, 129]);
        assert!(block.decode_range_into(256, 99, &mut out).is_err());
    }

    #[test]
    fn decode_range_rejects_misaligned_start_for_every_codec() {
        let values: Vec<u32> = (0..600).map(|i| i % 777).collect();
        for codec in [
            Codec::Raw,
            Codec::Pfor { width: 8 },
            Codec::PforDelta { width: 8 },
            Codec::Pdict { width: 8 },
        ] {
            let block = CompressedBlock::encode(&values, codec);
            let mut out = Vec::new();
            for start in [1, 64, 127, 129, 300] {
                assert_eq!(
                    block.decode_range_into(start, 1, &mut out),
                    Err(CodecError::Misaligned {
                        position: start,
                        stride: 128
                    }),
                    "{codec:?} start={start}"
                );
            }
            // Aligned starts keep working, including the last partial stride.
            block.decode_range_into(512, 88, &mut out).unwrap();
            assert_eq!(out, &values[512..600], "{codec:?}");
        }
    }

    #[test]
    fn compressed_bytes_smaller_than_raw_for_compressible_data() {
        let values: Vec<u32> = (0..100_000u32).map(|i| i % 100).collect();
        let raw = CompressedBlock::encode(&values, Codec::Raw);
        let pfor = CompressedBlock::encode(&values, Codec::Pfor { width: 8 });
        assert!(pfor.compressed_bytes() * 3 < raw.compressed_bytes());
    }
}
