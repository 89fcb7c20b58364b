//! Runtime-dispatched wide unpack kernels (AVX2).
//!
//! The unrolled scalar kernels in [`crate::bitpack`] stay the differential
//! oracle; this module adds an 8-lane AVX2 variant of the same two-word
//! extraction and a process-wide switch deciding which one the dispatch in
//! `bitpack::unpack_aligned` (and the BM25 scoring loop in `x100-ir`) uses:
//!
//! * every x86_64 build compiles the AVX2 kernels, and [`simd_available`]
//!   reports whether the CPU supports AVX2 (detected at runtime);
//! * off x86_64, or on a CPU without AVX2, it is `false` and every query
//!   goes down the scalar path;
//! * [`simd_force_scalar`] forces the scalar path back on where AVX2 is
//!   available (the forced-fallback tests use this so the scalar kernels
//!   stay covered on SIMD-capable machines).
//!
//! The AVX2 kernel decodes one 32-value group as 4×8 lanes. For a batch of
//! 8 lanes it issues two overlapping unaligned 256-bit loads (the batch's
//! first 32-bit word, and the same plus one word), permutes each lane's
//! `lo`/`hi` word into place with a per-width constant index vector, then
//! applies per-lane variable shifts — x86 variable shifts zero out at
//! counts ≥ 32, which makes the `hi << (32 - 0)` edge case branch-free. A
//! batch may read up to 8 words past the lane it decodes, which can exceed
//! the single padding word [`crate::bitpack::packed_len`] guarantees, so
//! trailing groups whose loads would run off the buffer fall back to the
//! scalar kernel ([`crate::bitpack::unpack`] computes that bound per call).

use std::sync::atomic::{AtomicBool, Ordering};

/// When set, [`simd_active`] reports `false` even on AVX2-capable CPUs:
/// the scalar kernels run everywhere. Test-only in spirit, but harmless to
/// flip in production — results are bit-identical by construction.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Whether the wide kernels can run at all: the target is x86_64 and the
/// CPU reports AVX2.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the wide kernels are the currently selected unpack path:
/// [`simd_available`] and not forced back to scalar.
pub fn simd_active() -> bool {
    simd_available() && !FORCE_SCALAR.load(Ordering::Relaxed)
}

/// Forces the scalar kernels even when AVX2 is available (`true`), or
/// restores runtime detection (`false`). Process-wide; used by the
/// forced-fallback and differential tests.
pub fn simd_force_scalar(force: bool) {
    FORCE_SCALAR.store(force, Ordering::Relaxed);
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::unpack_groups;

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::simd_active;
    use crate::bitpack::GROUP_SIZE;

    /// Per-(width, batch) lane constants: for each of the 8 lanes, which
    /// 32-bit word (relative to the batch's first word) holds the low part,
    /// and the right/left shift counts assembling the value from `lo`/`hi`.
    #[derive(Clone, Copy)]
    struct Lanes {
        idx: [u32; 8],
        shr: [u32; 8],
        shl: [u32; 8],
    }

    /// `LANES[b - 1][j]` drives batch `j` (lanes `j*8 .. j*8+8`) of a
    /// `b`-bit group. Lane `l` of batch `j` starts at bit `(j*8 + l) * b`
    /// within the group; all three constants fold out of that.
    static LANES: [[Lanes; 4]; 32] = build_lanes();

    const fn build_lanes() -> [[Lanes; 4]; 32] {
        let zero = Lanes {
            idx: [0; 8],
            shr: [0; 8],
            shl: [0; 8],
        };
        let mut t = [[zero; 4]; 32];
        let mut b = 1usize;
        while b <= 32 {
            let mut j = 0usize;
            while j < 4 {
                let base_bit = j * 8 * b;
                let base_w = base_bit >> 5;
                let mut l = 0usize;
                while l < 8 {
                    let bit = base_bit + l * b;
                    let off = (bit & 31) as u32;
                    t[b - 1][j].idx[l] = ((bit >> 5) - base_w) as u32;
                    t[b - 1][j].shr[l] = off;
                    // 32 when off == 0: x86 variable shifts produce 0 at
                    // counts >= 32, exactly the "no hi contribution" case.
                    t[b - 1][j].shl[l] = 32 - off;
                    l += 1;
                }
                j += 1;
            }
            b += 1;
        }
        t
    }

    /// Decodes a prefix of the `groups` aligned groups starting at absolute
    /// group `first_group` into `out`, returning how many groups it took.
    /// Returns 0 (and touches nothing) when the wide path is inactive;
    /// stops early where the overlapping loads would run past `buf`, so the
    /// caller's scalar kernel finishes the tail groups.
    pub(crate) fn unpack_groups(
        buf: &[u64],
        first_group: usize,
        groups: usize,
        b: u8,
        out: &mut [u32],
    ) -> usize {
        if groups == 0 || !simd_active() {
            return 0;
        }
        let b = b as usize;
        // Batch j=3 of group g loads 8 words at 32-bit word
        // `g*b + ((24*b) >> 5) + 1`; the last word touched is that + 7.
        // Group g is safe iff that stays within the 2*buf.len() words.
        let words32 = buf.len() * 2;
        let Some(avail) = (words32 - 1).checked_sub(8 + ((24 * b) >> 5)) else {
            return 0;
        };
        let g_last = avail / b;
        if g_last < first_group {
            return 0;
        }
        let n = groups.min(g_last - first_group + 1);
        // SAFETY: simd_active() established AVX2 support; the group bound
        // above keeps every load inside `buf`; `out` holds `groups` full
        // groups by the caller's contract.
        unsafe { unpack_groups_avx2(buf, first_group, n, b, out) };
        n
    }

    /// # Safety
    /// Requires AVX2, `out.len() >= n * GROUP_SIZE`, and every 32-bit word
    /// `g*b + ((24*b) >> 5) + 8` for `g` in `first_group .. first_group+n`
    /// in bounds of `buf` (checked by [`unpack_groups`]).
    #[target_feature(enable = "avx2")]
    unsafe fn unpack_groups_avx2(
        buf: &[u64],
        first_group: usize,
        n: usize,
        b: usize,
        out: &mut [u32],
    ) {
        use core::arch::x86_64::*;
        let words = buf.as_ptr() as *const i32;
        let mask = _mm256_set1_epi32((((1u64 << b) - 1) & 0xFFFF_FFFF) as u32 as i32);
        let lanes = &LANES[b - 1];
        for g in 0..n {
            let w0 = (first_group + g) * b;
            let dst = out.as_mut_ptr().add(g * GROUP_SIZE);
            for (j, l) in lanes.iter().enumerate() {
                let base_w = w0 + ((j * 8 * b) >> 5);
                let v0 = _mm256_loadu_si256(words.add(base_w) as *const __m256i);
                let v1 = _mm256_loadu_si256(words.add(base_w + 1) as *const __m256i);
                let idx = _mm256_loadu_si256(l.idx.as_ptr() as *const __m256i);
                let lo = _mm256_permutevar8x32_epi32(v0, idx);
                let hi = _mm256_permutevar8x32_epi32(v1, idx);
                let shr = _mm256_loadu_si256(l.shr.as_ptr() as *const __m256i);
                let shl = _mm256_loadu_si256(l.shl.as_ptr() as *const __m256i);
                let val = _mm256_or_si256(_mm256_srlv_epi32(lo, shr), _mm256_sllv_epi32(hi, shl));
                _mm256_storeu_si256(dst.add(j * 8) as *mut __m256i, _mm256_and_si256(val, mask));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_round_trips() {
        assert_eq!(simd_active(), simd_available());
        simd_force_scalar(true);
        assert!(!simd_active());
        simd_force_scalar(false);
        assert_eq!(simd_active(), simd_available());
    }

    /// The default build carries the wide kernels: availability is the
    /// CPU's answer, not a build option's.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn available_exactly_when_cpu_has_avx2() {
        assert_eq!(
            simd_available(),
            std::arch::is_x86_feature_detected!("avx2")
        );
    }
}
