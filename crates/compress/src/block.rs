//! Serialized compressed-block format — the physical layout of Figure 2.
//!
//! A block is laid out as:
//!
//! ```text
//! +--------+---------------+--------------------------+ - - - +-----------+
//! | header | entry points  | code section (forward)   |  gap  | exceptions|
//! |        |               | + codec-specific aux     |       | (backward)|
//! +--------+---------------+--------------------------+ - - - +-----------+
//! ```
//!
//! The code section is forward-growing and densely packed; the exception
//! section is written at the very end of the block, *growing backwards* —
//! the last exception in encounter order sits closest to the code section,
//! exactly as in the paper's Figure 2. Entry points hold, for every 128
//! values, the offset of the next exception in the code section and its
//! location in the exception section.
//!
//! Deserialization validates the magic number, codec tag and all section
//! bounds, returning [`CodecError`] on corruption — the storage layer's
//! failure-injection tests exercise these paths.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::patch::EntryPoint;
use crate::pdict::PdictBlock;
use crate::pfor::{PforBlock, NO_EXCEPTION};
use crate::pfor_delta::PforDeltaBlock;
use crate::CodecError;

/// Magic number at the start of every serialized block (`X1CB`).
pub const BLOCK_MAGIC: u32 = 0x5831_4342;

/// The [`Codec`] width meaning "chosen per block": [`CompressedBlock::encode`]
/// gives each PFOR or PFOR-DELTA block the width and base
/// [`crate::pfor::choose_parameters`] picks for its values. Every serialized
/// block records its own width, so decoding never needs the column's.
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

impl Codec {
    fn tag(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::Pfor { .. } => 1,
            Codec::PforDelta { .. } => 2,
            Codec::Pdict { .. } => 3,
        }
    }
}

/// A compressed block in memory: the unit ColumnBM keeps cached in RAM and
/// decompresses *at vector granularity* into the CPU cache.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressedBlock {
    /// Uncompressed values.
    Raw(Vec<u32>),
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
            Codec::Raw => CompressedBlock::Raw(values.to_vec()),
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

    /// Number of encoded values.
    pub fn len(&self) -> usize {
        match self {
            CompressedBlock::Raw(v) => v.len(),
            CompressedBlock::Pfor(b) => b.len(),
            CompressedBlock::PforDelta(b) => b.len(),
            CompressedBlock::Pdict(b) => b.len(),
        }
    }

    /// Whether the block holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decompresses all values into `out` (cleared first).
    pub fn decode_into(&self, out: &mut Vec<u32>) {
        match self {
            CompressedBlock::Raw(v) => {
                out.clear();
                out.extend_from_slice(v);
            }
            CompressedBlock::Pfor(b) => b.decode_into(out),
            CompressedBlock::PforDelta(b) => b.decode_into(out),
            CompressedBlock::Pdict(b) => b.decode_into(out),
        }
    }

    /// Decompresses `len` values starting at entry-aligned `start`.
    pub fn decode_range_into(
        &self,
        start: usize,
        len: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), CodecError> {
        match self {
            CompressedBlock::Raw(v) => {
                let end = start.saturating_add(len);
                if end > v.len() {
                    return Err(CodecError::OutOfBounds {
                        position: end,
                        len: v.len(),
                    });
                }
                out.clear();
                out.extend_from_slice(&v[start..end]);
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
            CompressedBlock::Raw(v) => v.len() * 4,
            CompressedBlock::Pfor(b) => b.compressed_bytes(),
            CompressedBlock::PforDelta(b) => b.compressed_bytes(),
            CompressedBlock::Pdict(b) => b.compressed_bytes(),
        }
    }

    /// Exact length of [`Self::to_bytes`]' image, computed from section
    /// lengths alone — a writer sizing a block directory needs the extent,
    /// not the image.
    pub fn serialized_len(&self) -> usize {
        // Magic + codec tag, then the per-codec layout `to_bytes` writes.
        5 + match self {
            CompressedBlock::Raw(values) => 4 + values.len() * 4,
            CompressedBlock::Pfor(b) => pfor_len(b),
            CompressedBlock::PforDelta(b) => pfor_len(b.inner()) + 4 + b.restarts().len() * 4,
            CompressedBlock::Pdict(b) => {
                (4 + 1 + 4)
                    + b.entry_points().len() * 8
                    + (4 + b.packed_codes().len() * 8)
                    + (4 + b.dict().len() * 4)
                    + (4 + b.exceptions().len() * 4)
            }
        }
    }

    /// Serializes into the Figure-2 physical layout.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u32_le(BLOCK_MAGIC);
        match self {
            CompressedBlock::Raw(values) => {
                buf.put_u8(Codec::Raw.tag());
                buf.put_u32_le(values.len() as u32);
                for &v in values {
                    buf.put_u32_le(v);
                }
            }
            CompressedBlock::Pfor(b) => {
                buf.put_u8(Codec::Pfor { width: b.width() }.tag());
                write_pfor(&mut buf, b);
            }
            CompressedBlock::PforDelta(b) => {
                buf.put_u8(Codec::PforDelta { width: b.width() }.tag());
                write_pfor(&mut buf, b.inner());
                buf.put_u32_le(b.restarts().len() as u32);
                for &r in b.restarts() {
                    buf.put_u32_le(r);
                }
            }
            CompressedBlock::Pdict(b) => {
                buf.put_u8(Codec::Pdict { width: b.width() }.tag());
                buf.put_u32_le(b.len() as u32);
                buf.put_u8(b.width());
                buf.put_u32_le(b.first_exception());
                write_entry_points(&mut buf, b.entry_points());
                write_packed(&mut buf, b.packed_codes());
                buf.put_u32_le(b.dict().len() as u32);
                for &d in b.dict() {
                    buf.put_u32_le(d);
                }
                write_exceptions_backward(&mut buf, b.exceptions());
            }
        }
        buf.freeze()
    }

    /// Deserializes and validates a block.
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, CodecError> {
        if data.remaining() < 5 {
            return Err(CodecError::Truncated);
        }
        let magic = data.get_u32_le();
        if magic != BLOCK_MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        let tag = data.get_u8();
        match tag {
            0 => {
                let n = read_u32(&mut data)? as usize;
                // Bound the pre-allocation by what the buffer can actually
                // hold, so a corrupt length field cannot trigger a giant
                // allocation before the truncation check fires.
                if data.remaining() < n * 4 {
                    return Err(CodecError::Truncated);
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(read_u32(&mut data)?);
                }
                Ok(CompressedBlock::Raw(values))
            }
            1 => Ok(CompressedBlock::Pfor(read_pfor(&mut data)?)),
            2 => {
                let inner = read_pfor(&mut data)?;
                let n_restarts = read_u32(&mut data)? as usize;
                let expected = inner.len().div_ceil(crate::patch::ENTRY_POINT_STRIDE);
                if n_restarts != expected {
                    return Err(CodecError::Corrupt("restart count does not match strides"));
                }
                let mut restarts = Vec::with_capacity(n_restarts);
                for _ in 0..n_restarts {
                    restarts.push(read_u32(&mut data)?);
                }
                Ok(CompressedBlock::PforDelta(PforDeltaBlock::from_raw_parts(
                    inner, restarts,
                )))
            }
            3 => {
                let n = read_u32(&mut data)?;
                let b = read_u8(&mut data)?;
                if !(1..=crate::pdict::MAX_PDICT_WIDTH).contains(&b) {
                    return Err(CodecError::UnsupportedWidth(b));
                }
                let first_exception = read_u32(&mut data)?;
                let entry_points = read_entry_points(&mut data, n as usize)?;
                let packed = read_packed(&mut data, n as usize, b)?;
                let dict_len = read_u32(&mut data)? as usize;
                if dict_len != 1usize << b {
                    return Err(CodecError::Corrupt("PDICT dictionary not padded to 2^b"));
                }
                let mut dict = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(read_u32(&mut data)?);
                }
                let exceptions = read_exceptions_backward(&mut data)?;
                validate_first_exception(n, first_exception, &exceptions)?;
                validate_exception_chain(n, b, &packed, first_exception, exceptions.len())?;
                Ok(CompressedBlock::Pdict(PdictBlock::from_raw_parts(
                    n,
                    b,
                    first_exception,
                    packed,
                    exceptions,
                    entry_points,
                    dict,
                )))
            }
            other => Err(CodecError::UnknownCodec(other)),
        }
    }
}

fn write_pfor(buf: &mut BytesMut, b: &PforBlock) {
    buf.put_u32_le(b.len() as u32);
    buf.put_u8(b.width());
    buf.put_u32_le(b.base());
    buf.put_u32_le(b.first_exception());
    write_entry_points(buf, b.entry_points());
    write_packed(buf, b.packed_codes());
    write_exceptions_backward(buf, b.exceptions());
}

/// Serialized length of [`write_pfor`]'s output.
fn pfor_len(b: &PforBlock) -> usize {
    (4 + 1 + 4 + 4)
        + b.entry_points().len() * 8
        + (4 + b.packed_codes().len() * 8)
        + (4 + b.exceptions().len() * 4)
}

fn read_pfor(data: &mut &[u8]) -> Result<PforBlock, CodecError> {
    let n = read_u32(data)?;
    let b = read_u8(data)?;
    if !(1..=crate::pfor::MAX_PFOR_WIDTH).contains(&b) {
        return Err(CodecError::UnsupportedWidth(b));
    }
    let base = read_u32(data)?;
    let first_exception = read_u32(data)?;
    let entry_points = read_entry_points(data, n as usize)?;
    let packed = read_packed(data, n as usize, b)?;
    let exceptions = read_exceptions_backward(data)?;
    validate_first_exception(n, first_exception, &exceptions)?;
    validate_exception_chain(n, b, &packed, first_exception, exceptions.len())?;
    Ok(PforBlock::from_raw_parts(
        n,
        b,
        base,
        first_exception,
        packed,
        exceptions,
        entry_points,
    ))
}

fn validate_first_exception(
    n: u32,
    first_exception: u32,
    exceptions: &[u32],
) -> Result<(), CodecError> {
    if exceptions.is_empty() {
        if first_exception != NO_EXCEPTION {
            return Err(CodecError::Corrupt(
                "first_exception set but exception section empty",
            ));
        }
    } else if first_exception >= n {
        return Err(CodecError::Corrupt("first_exception out of range"));
    }
    Ok(())
}

/// Walks the exception linked list of a deserialized block and verifies it
/// stays inside `0..n`. The hot decode loops are deliberately unchecked
/// (branch-free), so untrusted blocks must prove their chain here — one
/// `O(#exceptions)` pass at load time.
fn validate_exception_chain(
    n: u32,
    b: u8,
    packed: &[u64],
    first_exception: u32,
    num_exceptions: usize,
) -> Result<(), CodecError> {
    if num_exceptions == 0 {
        return Ok(());
    }
    let mut i = first_exception as u64;
    // The final exception's code word is a filler; only the links between
    // exceptions need to stay in bounds.
    for _ in 0..num_exceptions - 1 {
        if i >= u64::from(n) {
            return Err(CodecError::Corrupt("exception chain escapes the block"));
        }
        let gap = u64::from(crate::bitpack::get(packed, i as usize, b));
        i += gap;
    }
    if i >= u64::from(n) {
        return Err(CodecError::Corrupt("exception chain escapes the block"));
    }
    Ok(())
}

fn write_entry_points(buf: &mut BytesMut, entries: &[EntryPoint]) {
    for e in entries {
        buf.put_u32_le(e.next_exception);
        buf.put_u32_le(e.exception_rank);
    }
}

fn read_entry_points(data: &mut &[u8], n: usize) -> Result<Vec<EntryPoint>, CodecError> {
    let count = n.div_ceil(crate::patch::ENTRY_POINT_STRIDE);
    if data.remaining() < count * 8 {
        return Err(CodecError::Truncated);
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let next_exception = read_u32(data)?;
        let exception_rank = read_u32(data)?;
        entries.push(EntryPoint {
            next_exception,
            exception_rank,
        });
    }
    Ok(entries)
}

fn write_packed(buf: &mut BytesMut, packed: &[u64]) {
    buf.put_u32_le(packed.len() as u32);
    for &w in packed {
        buf.put_u64_le(w);
    }
}

fn read_packed(data: &mut &[u8], n: usize, b: u8) -> Result<Vec<u64>, CodecError> {
    let words = read_u32(data)? as usize;
    if words < crate::bitpack::packed_len(n, b) {
        return Err(CodecError::Corrupt("code section shorter than n*b bits"));
    }
    if data.remaining() < words * 8 {
        return Err(CodecError::Truncated);
    }
    let mut packed = Vec::with_capacity(words);
    for _ in 0..words {
        packed.push(data.get_u64_le());
    }
    Ok(packed)
}

/// Writes the exception section *backwards*: the serialized order is the
/// reverse of encounter order, so the first exception ends up at the block's
/// very end, mirroring Figure 2's backward-growing section.
fn write_exceptions_backward(buf: &mut BytesMut, exceptions: &[u32]) {
    buf.put_u32_le(exceptions.len() as u32);
    for &e in exceptions.iter().rev() {
        buf.put_u32_le(e);
    }
}

fn read_exceptions_backward(data: &mut &[u8]) -> Result<Vec<u32>, CodecError> {
    let count = read_u32(data)? as usize;
    if data.remaining() < count * 4 {
        return Err(CodecError::Truncated);
    }
    let mut exceptions = vec![0u32; count];
    for slot in exceptions.iter_mut().rev() {
        *slot = data.get_u32_le();
    }
    Ok(exceptions)
}

fn read_u32(data: &mut &[u8]) -> Result<u32, CodecError> {
    if data.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    Ok(data.get_u32_le())
}

fn read_u8(data: &mut &[u8]) -> Result<u8, CodecError> {
    if data.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    Ok(data.get_u8())
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
        assert_eq!(block.serialized_len(), bytes.len(), "{codec:?}");
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
            assert_eq!(block.serialized_len(), block.to_bytes().len());
            let back = CompressedBlock::from_bytes(&block.to_bytes()).unwrap();
            assert!(back.is_empty());
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = CompressedBlock::encode(&[1, 2, 3], Codec::Raw)
            .to_bytes()
            .to_vec();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            CompressedBlock::from_bytes(&bytes),
            Err(CodecError::BadMagic(_))
        ));
    }

    #[test]
    fn unknown_codec_rejected() {
        let mut bytes = CompressedBlock::encode(&[1, 2, 3], Codec::Raw)
            .to_bytes()
            .to_vec();
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
        let bytes = CompressedBlock::encode(&sample_values(), Codec::Pfor { width: 8 })
            .to_bytes()
            .to_vec();
        let mut corrupted = bytes.clone();
        corrupted[9] = 77; // width byte: 77 > 24
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
        let block = CompressedBlock::encode(&[1, 2, 3, 4], Codec::Raw);
        let mut out = Vec::new();
        block.decode_range_into(1, 2, &mut out).unwrap();
        assert_eq!(out, vec![2, 3]);
        assert!(block.decode_range_into(2, 9, &mut out).is_err());
    }

    #[test]
    fn compressed_bytes_smaller_than_raw_for_compressible_data() {
        let values: Vec<u32> = (0..100_000u32).map(|i| i % 100).collect();
        let raw = CompressedBlock::encode(&values, Codec::Raw);
        let pfor = CompressedBlock::encode(&values, Codec::Pfor { width: 8 });
        assert!(pfor.compressed_bytes() * 3 < raw.compressed_bytes());
    }
}
