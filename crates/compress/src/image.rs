//! The `X1CB` block image (layout in [`crate::block`]): one buffer of `u64`
//! words that encoders write in place, a reader fills in one copy and
//! validates there, and every accessor views at offsets fixed when the
//! image is made. Offsets are computed in `usize` from `u32` counts, which
//! cannot overflow on the 64-bit targets the workspace builds for.

use std::ops::Range;

use crate::block::BLOCK_MAGIC;
use crate::patch::{self, EntryPoint, ENTRY_POINT_STRIDE};
use crate::pdict::MAX_PDICT_WIDTH;
use crate::pfor::MAX_PFOR_WIDTH;
use crate::{bitpack, CodecError};

// The words *are* the stored little-endian bytes, viewed in place.
#[cfg(not(target_endian = "little"))]
compile_error!("the X1CB block image is viewed in place as little-endian words");

/// Codec tags, the image's byte 4.
pub(crate) const TAG_RAW: u8 = 0;
pub(crate) const TAG_PFOR: u8 = 1;
pub(crate) const TAG_PFOR_DELTA: u8 = 2;
pub(crate) const TAG_PDICT: u8 = 3;

/// Element types an image is viewed as.
///
/// # Safety
/// Implementors are plain data with no padding, every bit pattern is a
/// valid value, and their alignment divides `u64`'s.
pub(crate) unsafe trait Plain: Copy {}
// SAFETY: primitive integers.
unsafe impl Plain for u8 {}
// SAFETY: primitive integers.
unsafe impl Plain for u32 {}
// SAFETY: primitive integers.
unsafe impl Plain for u64 {}
// SAFETY: `EntryPoint` is `#[repr(C)]` over two `u32`s.
unsafe impl Plain for EntryPoint {}

/// Views image words as `T`s — the one place the buffer is reinterpreted.
fn view<T: Plain>(words: &[u64]) -> &[T] {
    // SAFETY: `T: Plain` accepts any bits and needs no more than `u64`'s
    // alignment, so the whole slice is the aligned middle.
    let (head, body, tail) = unsafe { words.align_to::<T>() };
    assert!(head.is_empty() && tail.is_empty());
    body
}

/// Mutable counterpart of [`view`].
fn view_mut<T: Plain>(words: &mut [u64]) -> &mut [T] {
    // SAFETY: as in `view`; any `T` written leaves valid `u64`s beneath.
    let (head, body, tail) = unsafe { words.align_to_mut::<T>() };
    assert!(head.is_empty() && tail.is_empty());
    body
}

/// Byte ranges of a block image's sections, in image order. Each starts on
/// an 8-byte boundary; an empty section is an empty range where it would
/// sit. A Raw block's values are its `codes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sections {
    /// Magic, codec tag, width, value and exception counts, PFOR base.
    pub header: Range<usize>,
    /// One [`EntryPoint`] per 128 values.
    pub entry_points: Range<usize>,
    /// The packed codes and their padding word (Raw: the values).
    pub codes: Range<usize>,
    /// PFOR-DELTA's restart values or PDICT's dictionary.
    pub extras: Range<usize>,
    /// The exception values, stored backwards; ends the image.
    pub exceptions: Range<usize>,
}

impl Sections {
    /// The layout of an image with this header: nothing a reader can derive
    /// from it is stored.
    fn new(tag: u8, b: u8, n: usize, e: usize) -> Self {
        let u32s = |count: usize| count.div_ceil(2) * 8;
        // Only the PFOR family stores a base, in header word 2.
        let header = if matches!(tag, TAG_PFOR | TAG_PFOR_DELTA) {
            24
        } else {
            16
        };
        let (entries, codes) = match tag {
            TAG_RAW => (0, u32s(n)),
            _ => (
                n.div_ceil(ENTRY_POINT_STRIDE) * 8,
                bitpack::packed_len(n, b) * 8,
            ),
        };
        let mut at = 0;
        let mut next = |len: usize| {
            at += len;
            at - len..at
        };
        Sections {
            header: next(header),
            entry_points: next(entries),
            codes: next(codes),
            extras: next(u32s(extras_len(tag, b, n))),
            exceptions: next(u32s(e)),
        }
    }
}

/// `u32`s in the extras section: PFOR-DELTA's restart per stride, PDICT's
/// `2^b`-entry dictionary.
fn extras_len(tag: u8, b: u8, n: usize) -> usize {
    match tag {
        TAG_PFOR_DELTA => n.div_ceil(ENTRY_POINT_STRIDE),
        TAG_PDICT => 1 << b,
        _ => 0,
    }
}

/// One block's image and the layout its header implies.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Image {
    words: Box<[u64]>,
    sections: Sections,
}

impl Image {
    /// A zeroed image with its header written, for an encoder to fill.
    pub(crate) fn new(tag: u8, b: u8, n: usize, e: usize, base: u32) -> Self {
        let sections = Sections::new(tag, b, n, e);
        let n32 = u32::try_from(n).expect("a block holds at most u32::MAX values");
        let mut words = vec![0u64; sections.exceptions.end / 8].into_boxed_slice();
        words[0] = u64::from(BLOCK_MAGIC) | u64::from(tag) << 32 | u64::from(b) << 40;
        words[1] = u64::from(n32) | (e as u64) << 32;
        if sections.header.end == 24 {
            words[2] = u64::from(base);
        }
        Image { words, sections }
    }

    /// A Raw image holding `values` uncompressed.
    pub(crate) fn raw(values: &[u32]) -> Self {
        let mut image = Image::new(TAG_RAW, 0, values.len(), 0, 0);
        let codes = image.sections().codes;
        image.section_mut::<u32>(codes)[..values.len()].copy_from_slice(values);
        image
    }

    /// Reads an image of `len` bytes with `fill` straight into a fresh
    /// buffer, then validates it in place: the header, the exact length
    /// and — for the patched codecs — the exception chain and entry points
    /// the unchecked decode loops follow.
    pub(crate) fn read<E: From<CodecError>>(
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut words = vec![0u64; len.div_ceil(8)].into_boxed_slice();
        fill(&mut view_mut::<u8>(&mut words)[..len])?;
        if len < 16 {
            return Err(CodecError::Truncated.into());
        }
        let magic = words[0] as u32;
        if magic != BLOCK_MAGIC {
            return Err(CodecError::BadMagic(magic).into());
        }
        let (tag, b) = ((words[0] >> 32) as u8, (words[0] >> 40) as u8);
        let widths = match tag {
            TAG_RAW => 0..=0,
            TAG_PFOR | TAG_PFOR_DELTA => 1..=MAX_PFOR_WIDTH,
            TAG_PDICT => 1..=MAX_PDICT_WIDTH,
            other => return Err(CodecError::UnknownCodec(other).into()),
        };
        if !widths.contains(&b) {
            return Err(CodecError::UnsupportedWidth(b).into());
        }
        let (n, e) = (words[1] as u32 as usize, (words[1] >> 32) as usize);
        if e > n || (tag == TAG_RAW && e > 0) {
            return Err(CodecError::Corrupt("more exceptions than codeable values").into());
        }
        let sections = Sections::new(tag, b, n, e);
        if len < sections.exceptions.end {
            return Err(CodecError::Truncated.into());
        }
        if len > sections.exceptions.end {
            return Err(CodecError::Corrupt("bytes past the end of the block image").into());
        }
        let image = Image { words, sections };
        if tag != TAG_RAW {
            patch::validate(n, b, image.codes(), image.entry_points(), e)?;
        }
        Ok(image)
    }

    /// The codec tag.
    pub(crate) fn tag(&self) -> u8 {
        (self.words[0] >> 32) as u8
    }

    /// Code width in bits (0 for Raw).
    pub(crate) fn width(&self) -> u8 {
        (self.words[0] >> 40) as u8
    }

    /// Number of encoded values.
    pub(crate) fn len(&self) -> usize {
        self.words[1] as u32 as usize
    }

    /// Number of exceptions.
    pub(crate) fn exception_count(&self) -> usize {
        (self.words[1] >> 32) as usize
    }

    /// The frame-of-reference base (PFOR and PFOR-DELTA).
    pub(crate) fn base(&self) -> u32 {
        self.words[2] as u32
    }

    /// Byte ranges of the sections.
    pub(crate) fn sections(&self) -> Sections {
        self.sections.clone()
    }

    /// The whole image, as stored.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        view(&self.words)
    }

    fn section<T: Plain>(&self, bytes: &Range<usize>) -> &[T] {
        view(&self.words[bytes.start / 8..bytes.end / 8])
    }

    /// One section, for an encoder to fill.
    pub(crate) fn section_mut<T: Plain>(&mut self, bytes: Range<usize>) -> &mut [T] {
        view_mut(&mut self.words[bytes.start / 8..bytes.end / 8])
    }

    /// Entry points, one per [`ENTRY_POINT_STRIDE`] values.
    pub(crate) fn entry_points(&self) -> &[EntryPoint] {
        self.section(&self.sections.entry_points)
    }

    /// Entry point `k`, read from its word without viewing the section —
    /// the range-decode path looks up one per call.
    pub(crate) fn entry_point(&self, k: usize) -> Option<EntryPoint> {
        let entries = &self.sections.entry_points;
        let word = *self.words[entries.start / 8..entries.end / 8].get(k)?;
        Some(EntryPoint {
            next_exception: word as u32,
            exception_rank: (word >> 32) as u32,
        })
    }

    /// The packed code section, padding word included.
    pub(crate) fn codes(&self) -> &[u64] {
        &self.words[self.sections.codes.start / 8..self.sections.codes.end / 8]
    }

    /// A Raw image's values.
    pub(crate) fn values(&self) -> &[u32] {
        &self.section(&self.sections.codes)[..self.len()]
    }

    /// The extras section: restart values or the dictionary.
    pub(crate) fn extras(&self) -> &[u32] {
        &self.section(&self.sections.extras)[..extras_len(self.tag(), self.width(), self.len())]
    }

    /// The `j`-th `u32` of the image, read from its word: the decode
    /// loops' single-value lookups skip viewing a whole section.
    fn u32_at(&self, j: usize) -> u32 {
        (self.words[j / 2] >> (j % 2 * 32)) as u32
    }

    /// Extras entry `i`: a restart value or a dictionary entry.
    pub(crate) fn extra(&self, i: usize) -> u32 {
        self.u32_at(self.sections.extras.start / 4 + i)
    }

    /// The exception of rank `r`: the section grows backwards from the
    /// image's end.
    pub(crate) fn exception(&self, rank: usize) -> u32 {
        self.u32_at(self.words.len() * 2 - 1 - rank)
    }
}
