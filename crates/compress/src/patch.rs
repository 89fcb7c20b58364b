//! Shared exception-patching machinery used by PFOR, PFOR-DELTA and PDICT.
//!
//! All three codecs of the paper share the same patch discipline: exception
//! slots hold the distance to the next exception (a linked list threaded
//! through the code section), bounded by the code width, with **compulsory
//! exceptions** inserted to bridge over-long gaps, and **entry points** every
//! 128 values for fine-granularity range access (Figure 2).
//!
//! [`encode`] lays a patched block out in its image; [`validate`] proves a
//! stored image's chain before the unchecked decode loops follow it.

use crate::bitpack;
use crate::image::Image;
use crate::CodecError;

/// Sentinel for "no exception".
pub const NO_EXCEPTION: u32 = u32::MAX;

/// Entry-point granularity: one entry per 128 values, as in the paper.
pub const ENTRY_POINT_STRIDE: usize = 128;

/// One entry point: resume information for decoding from a 128-aligned
/// position. Stored in the block image as two little-endian `u32`s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C)]
pub struct EntryPoint {
    /// Position of the first exception at or after this entry's position,
    /// or [`NO_EXCEPTION`].
    pub next_exception: u32,
    /// Index of that exception in the exception section.
    pub exception_rank: u32,
}

/// Computes the final exception positions given which positions are
/// *naturally* uncodeable, inserting compulsory exceptions so that no two
/// consecutive exceptions are more than `max_gap` apart, and trimming
/// compulsory entries that trail the last natural exception.
pub(crate) fn plan_exception_positions(natural: &[bool], max_gap: usize) -> Vec<u32> {
    let max_gap = max_gap.max(1);
    let mut positions: Vec<u32> = Vec::new();
    let mut last: Option<usize> = None;
    let mut last_natural: usize = 0; // index into `positions` one past the last natural
    for (i, &nat) in natural.iter().enumerate() {
        let forced = matches!(last, Some(prev) if i - prev >= max_gap);
        if nat || forced {
            positions.push(i as u32);
            last = Some(i);
            if nat {
                last_natural = positions.len();
            }
        }
    }
    positions.truncate(last_natural);
    positions
}

/// Fills one entry point per stride from the sorted exception positions.
pub(crate) fn build_entry_points(exc_positions: &[u32], out: &mut [EntryPoint]) {
    for (k, entry) in out.iter_mut().enumerate() {
        let pos = k * ENTRY_POINT_STRIDE;
        let rank = exc_positions.partition_point(|&p| (p as usize) < pos);
        *entry = EntryPoint {
            next_exception: exc_positions.get(rank).copied().unwrap_or(NO_EXCEPTION),
            exception_rank: rank as u32,
        };
    }
}

/// Lays out a patched block with codec `tag`: each value's `code`, or
/// `None` for a natural exception. Compulsory exceptions bridge gaps wider
/// than `2^b - 1`; every exception slot holds the gap to the next one (1 as
/// a harmless filler for the last: LOOP2's trip count stops the walk), and
/// the exception values are written backwards, as Figure 2 grows them.
pub(crate) fn encode(
    tag: u8,
    b: u8,
    base: u32,
    values: &[u32],
    code: impl Fn(u32) -> Option<u32>,
) -> Image {
    let (mut codes, natural): (Vec<u32>, Vec<bool>) = values
        .iter()
        .map(|&v| code(v).map_or((0, true), |c| (c, false)))
        .unzip();
    let exc_positions = plan_exception_positions(&natural, (1 << b) - 1);
    let mut image = Image::new(tag, b, values.len(), exc_positions.len(), base);
    let sections = image.sections();
    // Written backwards from the image's end, past any front padding.
    let exceptions = image.section_mut::<u32>(sections.exceptions);
    for (slot, (rank, &p)) in exceptions
        .iter_mut()
        .rev()
        .zip(exc_positions.iter().enumerate())
    {
        codes[p as usize] = exc_positions.get(rank + 1).map_or(1, |&next| next - p);
        *slot = values[p as usize];
    }
    build_entry_points(&exc_positions, image.section_mut(sections.entry_points));
    bitpack::pack_into(&codes, b, image.section_mut(sections.codes));
    image
}

/// The views every patched codec's block shares, generated inside its
/// `impl` from a private `fn image(&self) -> &Image`; the block supplies
/// its own `compressed_bytes` and `decode_into`.
macro_rules! patched_views {
    () => {
        /// Number of encoded values.
        pub fn len(&self) -> usize {
            self.image().len()
        }

        /// Whether the block is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Code width in bits.
        pub fn width(&self) -> u8 {
            self.image().width()
        }

        /// Number of exceptions (natural + compulsory).
        pub fn exception_count(&self) -> usize {
            self.image().exception_count()
        }

        /// Fraction of coded values (PFOR-DELTA: deltas) stored as
        /// exceptions.
        pub fn exception_rate(&self) -> f64 {
            if self.is_empty() {
                0.0
            } else {
                self.exception_count() as f64 / self.len() as f64
            }
        }

        /// Exception values in position order (the image stores them
        /// backwards; see [`crate::block`]).
        pub fn exceptions(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
            (0..self.exception_count()).map(|rank| self.image().exception(rank))
        }

        /// Entry points (one per [`crate::ENTRY_POINT_STRIDE`] values).
        pub fn entry_points(&self) -> &[crate::EntryPoint] {
            self.image().entry_points()
        }

        /// Position of the first exception, or [`crate::NO_EXCEPTION`].
        pub fn first_exception(&self) -> u32 {
            let entry = self.image().entry_point(0);
            entry.map_or(crate::NO_EXCEPTION, |ep| ep.next_exception)
        }

        /// Effective bits per encoded value.
        pub fn bits_per_value(&self) -> f64 {
            if self.is_empty() {
                0.0
            } else {
                self.compressed_bytes() as f64 * 8.0 / self.len() as f64
            }
        }

        /// Convenience wrapper allocating the output.
        pub fn decode(&self) -> Vec<u32> {
            let mut out = Vec::new();
            self.decode_into(&mut out);
            out
        }
    };
}
pub(crate) use patched_views;

/// Checks that a range decode of `len` values from `start` in an
/// `n`-value block starts on an entry point and stays inside the block.
pub(crate) fn check_range(start: usize, len: usize, n: usize) -> Result<(), CodecError> {
    if !start.is_multiple_of(ENTRY_POINT_STRIDE) {
        return Err(CodecError::Misaligned {
            position: start,
            stride: ENTRY_POINT_STRIDE,
        });
    }
    let end = start.saturating_add(len);
    if end > n {
        return Err(CodecError::OutOfBounds {
            position: end,
            len: n,
        });
    }
    Ok(())
}

/// LOOP2 of every patched decode. `out` holds LOOP1's output for values
/// `start..start + out.len()`, `start` entry-aligned: walk the exception
/// chain from the entry point covering `start`, reading each slot's gap
/// with `gap(out, slot)` before the exception overwrites it.
pub(crate) fn patch_range(
    image: &Image,
    start: usize,
    out: &mut [u32],
    gap: impl Fn(&[u32], usize) -> usize,
) {
    let Some(entry) = image.entry_point(start / ENTRY_POINT_STRIDE) else {
        return;
    };
    let mut i = entry.next_exception as usize;
    let mut rank = entry.exception_rank as usize;
    let end = start + out.len();
    if i >= end {
        return; // no exception in range: the common case, skipped cheaply
    }
    let e = image.exception_count();
    // Bound by the exception count as well as the range end: the last
    // exception's code word holds a filler gap, not a real link.
    while rank < e && i < end {
        let g = gap(out, i - start);
        out[i - start] = image.exception(rank);
        rank += 1;
        i += g;
    }
}

/// Proves a stored block's exception chain before the unchecked,
/// branch-free decode loops follow it: starting at entry point 0's next
/// exception, the `e` links must visit strictly increasing positions inside
/// `0..n`, and every entry point must be what [`build_entry_points`]
/// derives from those positions. One pass over the exceptions and entry
/// points, at load time.
pub(crate) fn validate(
    n: usize,
    b: u8,
    codes: &[u64],
    entries: &[EntryPoint],
    e: usize,
) -> Result<(), CodecError> {
    const DISAGREES: CodecError = CodecError::Corrupt("entry point disagrees with the exceptions");
    let mut pos = entries.first().map_or(NO_EXCEPTION, |ep| ep.next_exception) as usize;
    // Entry points before `k` are checked.
    let mut k = 0;
    for rank in 0..e {
        if pos >= n {
            return Err(CodecError::Corrupt("exception chain escapes the block"));
        }
        // This exception is the next one for every stride starting after
        // the previous exception and at or before it.
        let expected = EntryPoint {
            next_exception: pos as u32,
            exception_rank: rank as u32,
        };
        while k < entries.len() && k * ENTRY_POINT_STRIDE <= pos {
            if entries[k] != expected {
                return Err(DISAGREES);
            }
            k += 1;
        }
        // The last exception's code is a filler, not a link.
        if rank + 1 < e {
            let gap = bitpack::get(codes, pos, b) as usize;
            if gap == 0 {
                return Err(CodecError::Corrupt("exception chain link of gap 0"));
            }
            pos += gap;
        }
    }
    let past_last = EntryPoint {
        next_exception: NO_EXCEPTION,
        exception_rank: e as u32,
    };
    if entries[k..].iter().any(|&ep| ep != past_last) {
        return Err(DISAGREES);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_no_naturals_is_empty() {
        assert!(plan_exception_positions(&[false; 100], 3).is_empty());
    }

    #[test]
    fn plan_keeps_natural_positions() {
        let mut natural = vec![false; 10];
        natural[2] = true;
        natural[4] = true;
        assert_eq!(plan_exception_positions(&natural, 255), vec![2, 4]);
    }

    #[test]
    fn plan_inserts_compulsory_for_long_gap() {
        let mut natural = vec![false; 20];
        natural[0] = true;
        natural[15] = true;
        let plan = plan_exception_positions(&natural, 5);
        // Gaps between consecutive entries never exceed 5.
        assert!(plan.windows(2).all(|w| w[1] - w[0] <= 5), "{plan:?}");
        assert!(plan.contains(&0) && plan.contains(&15));
    }

    #[test]
    fn plan_trims_trailing_compulsory() {
        let mut natural = vec![false; 100];
        natural[1] = true;
        let plan = plan_exception_positions(&natural, 2);
        assert_eq!(plan, vec![1], "no chain needed after the last natural");
    }

    #[test]
    fn plan_gap_of_one_chains_everything_after_first() {
        let mut natural = vec![false; 6];
        natural[0] = true;
        natural[5] = true;
        let plan = plan_exception_positions(&natural, 1);
        assert_eq!(plan, vec![0, 1, 2, 3, 4, 5]);
    }

    fn entry_points(n: usize, excs: &[u32]) -> Vec<EntryPoint> {
        let mut eps = vec![EntryPoint::default(); n.div_ceil(ENTRY_POINT_STRIDE)];
        build_entry_points(excs, &mut eps);
        eps
    }

    #[test]
    fn entry_points_rank_and_next() {
        let excs = vec![5u32, 130, 200, 300];
        let eps = entry_points(400, &excs);
        assert_eq!(eps.len(), 4);
        assert_eq!(
            eps[0],
            EntryPoint {
                next_exception: 5,
                exception_rank: 0
            }
        );
        assert_eq!(
            eps[1],
            EntryPoint {
                next_exception: 130,
                exception_rank: 1
            }
        );
        assert_eq!(
            eps[2],
            EntryPoint {
                next_exception: 300,
                exception_rank: 3
            }
        );
        assert_eq!(
            eps[3],
            EntryPoint {
                next_exception: NO_EXCEPTION,
                exception_rank: 4
            }
        );
    }

    #[test]
    fn entry_points_empty_block() {
        assert!(entry_points(0, &[]).is_empty());
    }
}
