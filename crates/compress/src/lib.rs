//! Ultra light-weight RAM–CPU-cache compression (§2.1 of the paper).
//!
//! MonetDB/X100 increases *perceived* I/O bandwidth by keeping blocks
//! compressed both on disk and in RAM, decompressing on demand — at vector
//! granularity — directly into the CPU cache. That only pays off if
//! decompression runs at RAM speeds (gigabytes per second), which rules out
//! general-purpose codecs and motivates the three schemes implemented here:
//!
//! * [`pfor::PforBlock`] — **PFOR** (Patched Frame-of-Reference): values as
//!   `b`-bit offsets from a per-block base, with out-of-range values kept
//!   uncompressed as *exceptions*.
//! * [`pfor_delta::PforDeltaBlock`] — **PFOR-DELTA**: PFOR over the deltas of
//!   subsequent values; the codec for sorted `docid` posting lists.
//! * [`pdict::PdictBlock`] — **PDICT**: frequent values via a dictionary,
//!   rare ones as exceptions.
//!
//! All three share the *patched* decompression discipline (the internal `patch` module):
//! exception slots hold a linked list of gaps, so decoding is two tight,
//! branch-free loops instead of one loop with an unpredictable `if` — the
//! naive variant ([`naive::NaiveBlock`]) is provided as the measured baseline
//! for reproducing Figure 3, together with a branch-predictor model
//! ([`branch::TwoBitPredictor`]) standing in for the paper's CPU event
//! counters.
//!
//! A block is its image ([`block`]), one aligned layout in RAM and on disk
//! that follows Figure 2: forward-growing code section, backward-growing
//! exception section, and entry points every 128 values for
//! fine-granularity access during inverted-list merging.
//!
//! # Example
//!
//! ```
//! use x100_compress::pfor::PforBlock;
//!
//! // The paper's Figure 2 example: digits of pi with b=3, base=0.
//! let pi = [3u32, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2];
//! let block = PforBlock::encode(&pi, 3, 0);
//! assert!(block.exceptions().eq([9, 8, 9, 9])); // digits >= 8
//! assert_eq!(block.decode(), pi);
//! ```

#![warn(missing_docs)]

pub mod bitpack;
pub mod block;
pub mod branch;
mod image;
pub mod naive;
mod patch;
pub mod pdict;
pub mod pfor;
pub mod pfor_delta;
pub mod simd;

pub use block::{Codec, CompressedBlock, RawBlock, Sections, BLOCK_MAGIC, PER_BLOCK_WIDTH};
pub use branch::TwoBitPredictor;
pub use naive::NaiveBlock;
pub use patch::{EntryPoint, ENTRY_POINT_STRIDE, NO_EXCEPTION};
pub use pdict::PdictBlock;
pub use pfor::PforBlock;
pub use pfor_delta::PforDeltaBlock;
pub use simd::{simd_active, simd_available, simd_force_scalar};

use std::fmt;

/// Errors surfaced by decoding and by loading a block image.
///
/// Encoding never fails (any `u32` sequence is representable); errors arise
/// only from misuse of range decoding or from corrupt/truncated block
/// images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Range decode did not start at an entry-point boundary.
    Misaligned {
        /// The requested (unaligned) start position.
        position: usize,
        /// The entry-point stride positions must align to.
        stride: usize,
    },
    /// Range decode past the end of the block.
    OutOfBounds {
        /// The requested end position.
        position: usize,
        /// The number of values actually in the block.
        len: usize,
    },
    /// Block image does not start with [`BLOCK_MAGIC`].
    BadMagic(u32),
    /// Unrecognized codec tag byte.
    UnknownCodec(u8),
    /// Code width outside the codec's supported range.
    UnsupportedWidth(u8),
    /// Block image ends before its header says it does.
    Truncated,
    /// A structural invariant does not hold.
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Misaligned { position, stride } => write!(
                f,
                "range start {position} is not aligned to the entry-point stride {stride}"
            ),
            CodecError::OutOfBounds { position, len } => {
                write!(f, "range end {position} exceeds block length {len}")
            }
            CodecError::BadMagic(m) => write!(f, "bad block magic {m:#010x}"),
            CodecError::UnknownCodec(t) => write!(f, "unknown codec tag {t}"),
            CodecError::UnsupportedWidth(b) => write!(f, "unsupported code width {b}"),
            CodecError::Truncated => f.write_str("block image is truncated"),
            CodecError::Corrupt(what) => write!(f, "corrupt block: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = CodecError::Misaligned {
            position: 7,
            stride: 128,
        };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains("128"));
        assert!(CodecError::Truncated.to_string().contains("truncated"));
        assert!(CodecError::BadMagic(0xdead).to_string().contains("0x"));
    }
}
