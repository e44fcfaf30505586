//! Explicit-SIMD variants of the packed conv inner loops, with runtime
//! dispatch and a verifier-licensed narrow (`i32`) accumulation path.
//!
//! # Dispatch ladder
//!
//! [`detect`] probes the CPU once (cached) and returns the best
//! [`SimdLevel`] available: AVX2 → SSE2 on `x86_64`, NEON on `aarch64`,
//! scalar everywhere else. The level is resolved at *plan* time
//! (`BlockPlan` stores it) and threaded into every row kernel, so the
//! per-row dispatch is a predictable match on a plan constant — never a
//! repeated feature probe.
//!
//! # Wide vs narrow lanes
//!
//! Every kernel comes in two accumulator widths:
//!
//! * **wide** (`i64` lanes) — always exact, mirroring the scalar kernels:
//!   AVX2 runs 4×`i64` lanes (`_mm256_mul_epi32` over sign-extended
//!   sources), NEON runs paired `vmlal` widening MACs. SSE2 has no usable
//!   signed 32×32→64 multiply (`_mm_mul_epi32` is SSE4.1), so its wide
//!   path deliberately falls back to the scalar loop.
//! * **narrow** (`i32` lanes, 8-wide on AVX2) — uses *wrapping*
//!   multiply-adds. Two's-complement wrapping arithmetic is exact modulo
//!   2³², so the narrow result is bit-identical to the wide one whenever
//!   the final per-element sum fits `i32` — which is exactly what the
//!   static verifier's interval analysis proves per instruction
//!   (`ecnn_isa::verify::InstrRange::narrow_acc`). The executor only
//!   routes an instruction here when its plan carries that proof;
//!   intermediate wraps (in products or partial sums) are harmless under
//!   the license.
//!
//! The scalar fallbacks are generic over the lane
//! ([`crate::kernels::Lane::mul_add`]); on the `i32` lane they use
//! explicit `wrapping_*` ops for the same modular semantics (the dev/test
//! profiles build with `overflow-checks = true`).
//!
//! # Safety
//!
//! This is the single module in the workspace allowed to contain `unsafe`
//! (the crate root relaxes `forbid(unsafe_code)` to `deny`, and CI greps
//! that the keyword appears nowhere else). All unsafe code is of exactly
//! two shapes, each with a `SAFETY` comment at the block:
//!
//! 1. calling a `#[target_feature]` function after [`detect`] confirmed
//!    the feature at runtime;
//! 2. unaligned vector loads/stores whose bounds the surrounding loop
//!    condition establishes (`j + LANES <= n`, with the row-slice length
//!    contracts documented on each public wrapper).
#![allow(unsafe_code)]

use crate::kernels::Lane;
use std::sync::OnceLock;

/// The instruction-set tier the row kernels dispatch on. All variants
/// exist on every architecture (so cross-arch code can name them); levels
/// foreign to the compilation target simply fall back to the scalar loop
/// and [`detect`] never returns them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// 256-bit AVX2: 8×`i32` narrow lanes, 4×`i64` wide lanes.
    Avx2,
    /// 128-bit SSE2: 4×`i32` narrow lanes (emulated `mullo`); the wide
    /// path is scalar (no signed 32×32→64 multiply before SSE4.1).
    Sse2,
    /// 128-bit NEON (`aarch64`): 4×`i32` narrow lanes, paired widening
    /// MACs for the wide path.
    Neon,
    /// Portable scalar loops (wrapping ops on the narrow path).
    Scalar,
}

impl SimdLevel {
    /// Stable lower-case name (`"avx2"`, `"sse2"`, `"neon"`, `"scalar"`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Neon => "neon",
            SimdLevel::Scalar => "scalar",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Best [`SimdLevel`] this CPU supports, probed once via
/// `is_x86_feature_detected!` / `is_aarch64_feature_detected!` and cached
/// for the process lifetime.
pub fn detect() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
            if is_x86_feature_detected!("sse2") {
                return SimdLevel::Sse2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return SimdLevel::Neon;
            }
        }
        SimdLevel::Scalar
    })
}

// --------------------------------------------------------------------------
// Scalar fallbacks (also the tail loops of every vector kernel), generic
// over the accumulator lane: `i64` exact, `i32` wrapping.
// --------------------------------------------------------------------------

fn scalar_ch_mac<L: Lane>(acc: &mut [L], src: &[i16], w: i32) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a = a.mul_add(w, s);
    }
}

// --------------------------------------------------------------------------
// AVX2 (x86_64)
// --------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    pub unsafe fn row_interior_narrow(acc: &mut [i32], row: &[i16], taps: [i32; 3]) {
        let n = acc.len();
        let (t0, t1, t2) = (
            _mm256_set1_epi32(taps[0]),
            _mm256_set1_epi32(taps[1]),
            _mm256_set1_epi32(taps[2]),
        );
        let mut j = 0usize;
        while j + 8 <= n {
            // SAFETY: `j + 8 <= n` and `row.len() >= n + 2` (wrapper
            // contract), so the three 128-bit source loads at offsets
            // `j..j+8+2` and the 256-bit accumulator load/store at
            // `j..j+8` are all in bounds. Unaligned-access intrinsics.
            unsafe {
                let s0 =
                    _mm256_cvtepi16_epi32(_mm_loadu_si128(row.as_ptr().add(j) as *const __m128i));
                let s1 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
                    row.as_ptr().add(j + 1) as *const __m128i
                ));
                let s2 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
                    row.as_ptr().add(j + 2) as *const __m128i
                ));
                let a = _mm256_loadu_si256(acc.as_ptr().add(j) as *const __m256i);
                let sum = _mm256_add_epi32(
                    _mm256_mullo_epi32(t0, s0),
                    _mm256_add_epi32(_mm256_mullo_epi32(t1, s1), _mm256_mullo_epi32(t2, s2)),
                );
                _mm256_storeu_si256(
                    acc.as_mut_ptr().add(j) as *mut __m256i,
                    _mm256_add_epi32(a, sum),
                );
            }
            j += 8;
        }
        crate::kernels::accum_row_interior(&mut acc[j..], &row[j..], taps);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn row_interior_wide(acc: &mut [i64], row: &[i16], taps: [i32; 3]) {
        let n = acc.len();
        let (t0, t1, t2) = (
            _mm256_set1_epi64x(taps[0] as i64),
            _mm256_set1_epi64x(taps[1] as i64),
            _mm256_set1_epi64x(taps[2] as i64),
        );
        let mut j = 0usize;
        while j + 4 <= n {
            // SAFETY: `j + 4 <= n` and `row.len() >= n + 2`, so the 64-bit
            // source loads at offsets `j..j+4+2` and the 256-bit
            // accumulator load/store at `j..j+4` are in bounds. The
            // sign-extended sources keep each value in their lanes' low 32
            // bits, so `_mm256_mul_epi32` (signed low-32 × low-32 → 64)
            // computes the exact `tap · sample` product.
            unsafe {
                let s0 =
                    _mm256_cvtepi16_epi64(_mm_loadl_epi64(row.as_ptr().add(j) as *const __m128i));
                let s1 = _mm256_cvtepi16_epi64(_mm_loadl_epi64(
                    row.as_ptr().add(j + 1) as *const __m128i
                ));
                let s2 = _mm256_cvtepi16_epi64(_mm_loadl_epi64(
                    row.as_ptr().add(j + 2) as *const __m128i
                ));
                let a = _mm256_loadu_si256(acc.as_ptr().add(j) as *const __m256i);
                let sum = _mm256_add_epi64(
                    _mm256_mul_epi32(t0, s0),
                    _mm256_add_epi64(_mm256_mul_epi32(t1, s1), _mm256_mul_epi32(t2, s2)),
                );
                _mm256_storeu_si256(
                    acc.as_mut_ptr().add(j) as *mut __m256i,
                    _mm256_add_epi64(a, sum),
                );
            }
            j += 4;
        }
        crate::kernels::accum_row_interior(&mut acc[j..], &row[j..], taps);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn ch_mac_narrow(acc: &mut [i32], src: &[i16], w: i32) {
        let n = acc.len().min(src.len());
        let wv = _mm256_set1_epi32(w);
        let mut j = 0usize;
        while j + 8 <= n {
            // SAFETY: `j + 8 <= n <= src.len()` bounds both the 128-bit
            // source load and the 256-bit accumulator load/store.
            unsafe {
                let s =
                    _mm256_cvtepi16_epi32(_mm_loadu_si128(src.as_ptr().add(j) as *const __m128i));
                let a = _mm256_loadu_si256(acc.as_ptr().add(j) as *const __m256i);
                _mm256_storeu_si256(
                    acc.as_mut_ptr().add(j) as *mut __m256i,
                    _mm256_add_epi32(a, _mm256_mullo_epi32(wv, s)),
                );
            }
            j += 8;
        }
        super::scalar_ch_mac(&mut acc[j..], &src[j..n], w);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn ch_mac_wide(acc: &mut [i64], src: &[i16], w: i32) {
        let n = acc.len().min(src.len());
        let wv = _mm256_set1_epi64x(w as i64);
        let mut j = 0usize;
        while j + 4 <= n {
            // SAFETY: `j + 4 <= n <= src.len()` bounds the 64-bit source
            // load and the 256-bit accumulator load/store; sign-extended
            // sources make `_mm256_mul_epi32` exact (see above).
            unsafe {
                let s =
                    _mm256_cvtepi16_epi64(_mm_loadl_epi64(src.as_ptr().add(j) as *const __m128i));
                let a = _mm256_loadu_si256(acc.as_ptr().add(j) as *const __m256i);
                _mm256_storeu_si256(
                    acc.as_mut_ptr().add(j) as *mut __m256i,
                    _mm256_add_epi64(a, _mm256_mul_epi32(wv, s)),
                );
            }
            j += 4;
        }
        super::scalar_ch_mac(&mut acc[j..], &src[j..n], w);
    }
}

// --------------------------------------------------------------------------
// SSE2 (x86_64 baseline)
// --------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::*;

    /// Sign-extends the low 4 `i16` lanes of `x` to 4 `i32` lanes without
    /// SSE4.1's `cvtepi16_epi32`: self-interleave puts each sample in the
    /// high half of a 32-bit lane, and the arithmetic right shift
    /// sign-extends it down.
    #[target_feature(enable = "sse2")]
    unsafe fn extend_lo_epi16(x: __m128i) -> __m128i {
        _mm_srai_epi32(_mm_unpacklo_epi16(x, x), 16)
    }

    /// SSE2 emulation of `_mm_mullo_epi32` (SSE4.1): the low 32 bits of a
    /// 32×32 product are sign-agnostic, so two unsigned even/odd-lane
    /// `_mm_mul_epu32` passes recombined lane-wise produce exactly the
    /// wrapping signed product the narrow path needs.
    #[target_feature(enable = "sse2")]
    unsafe fn mullo_epi32(a: __m128i, b: __m128i) -> __m128i {
        let even = _mm_mul_epu32(a, b);
        let odd = _mm_mul_epu32(_mm_srli_si128(a, 4), _mm_srli_si128(b, 4));
        _mm_unpacklo_epi32(
            _mm_shuffle_epi32::<0b00_00_10_00>(even),
            _mm_shuffle_epi32::<0b00_00_10_00>(odd),
        )
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn row_interior_narrow(acc: &mut [i32], row: &[i16], taps: [i32; 3]) {
        let n = acc.len();
        let (t0, t1, t2) = (
            _mm_set1_epi32(taps[0]),
            _mm_set1_epi32(taps[1]),
            _mm_set1_epi32(taps[2]),
        );
        let mut j = 0usize;
        while j + 4 <= n {
            // SAFETY: `j + 4 <= n` and `row.len() >= n + 2` bound the
            // 64-bit source loads at `j..j+4+2` and the 128-bit
            // accumulator load/store at `j..j+4`.
            unsafe {
                let s0 = extend_lo_epi16(_mm_loadl_epi64(row.as_ptr().add(j) as *const __m128i));
                let s1 =
                    extend_lo_epi16(_mm_loadl_epi64(row.as_ptr().add(j + 1) as *const __m128i));
                let s2 =
                    extend_lo_epi16(_mm_loadl_epi64(row.as_ptr().add(j + 2) as *const __m128i));
                let a = _mm_loadu_si128(acc.as_ptr().add(j) as *const __m128i);
                let sum = _mm_add_epi32(
                    mullo_epi32(t0, s0),
                    _mm_add_epi32(mullo_epi32(t1, s1), mullo_epi32(t2, s2)),
                );
                _mm_storeu_si128(
                    acc.as_mut_ptr().add(j) as *mut __m128i,
                    _mm_add_epi32(a, sum),
                );
            }
            j += 4;
        }
        crate::kernels::accum_row_interior(&mut acc[j..], &row[j..], taps);
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn ch_mac_narrow(acc: &mut [i32], src: &[i16], w: i32) {
        let n = acc.len().min(src.len());
        let wv = _mm_set1_epi32(w);
        let mut j = 0usize;
        while j + 4 <= n {
            // SAFETY: `j + 4 <= n <= src.len()` bounds the 64-bit source
            // load and the 128-bit accumulator load/store.
            unsafe {
                let s = extend_lo_epi16(_mm_loadl_epi64(src.as_ptr().add(j) as *const __m128i));
                let a = _mm_loadu_si128(acc.as_ptr().add(j) as *const __m128i);
                _mm_storeu_si128(
                    acc.as_mut_ptr().add(j) as *mut __m128i,
                    _mm_add_epi32(a, mullo_epi32(wv, s)),
                );
            }
            j += 4;
        }
        super::scalar_ch_mac(&mut acc[j..], &src[j..n], w);
    }
}

// --------------------------------------------------------------------------
// NEON (aarch64)
// --------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    #[target_feature(enable = "neon")]
    pub unsafe fn row_interior_narrow(acc: &mut [i32], row: &[i16], taps: [i32; 3]) {
        let n = acc.len();
        let mut j = 0usize;
        while j + 4 <= n {
            // SAFETY: `j + 4 <= n` and `row.len() >= n + 2` bound the
            // 4-lane source loads at `j..j+4+2` and the accumulator
            // load/store at `j..j+4`. NEON MLA wraps modularly, matching
            // the narrow path's licensed semantics.
            unsafe {
                let s0 = vmovl_s16(vld1_s16(row.as_ptr().add(j)));
                let s1 = vmovl_s16(vld1_s16(row.as_ptr().add(j + 1)));
                let s2 = vmovl_s16(vld1_s16(row.as_ptr().add(j + 2)));
                let mut a = vld1q_s32(acc.as_ptr().add(j));
                a = vmlaq_n_s32(a, s0, taps[0]);
                a = vmlaq_n_s32(a, s1, taps[1]);
                a = vmlaq_n_s32(a, s2, taps[2]);
                vst1q_s32(acc.as_mut_ptr().add(j), a);
            }
            j += 4;
        }
        crate::kernels::accum_row_interior(&mut acc[j..], &row[j..], taps);
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn row_interior_wide(acc: &mut [i64], row: &[i16], taps: [i32; 3]) {
        let n = acc.len();
        let mut j = 0usize;
        while j + 4 <= n {
            // SAFETY: same bounds as the narrow kernel; `vmlal_n_s32` is
            // the exact widening 32×32→64 multiply-accumulate.
            unsafe {
                let s0 = vmovl_s16(vld1_s16(row.as_ptr().add(j)));
                let s1 = vmovl_s16(vld1_s16(row.as_ptr().add(j + 1)));
                let s2 = vmovl_s16(vld1_s16(row.as_ptr().add(j + 2)));
                let mut lo = vld1q_s64(acc.as_ptr().add(j));
                let mut hi = vld1q_s64(acc.as_ptr().add(j + 2));
                lo = vmlal_n_s32(lo, vget_low_s32(s0), taps[0]);
                hi = vmlal_n_s32(hi, vget_high_s32(s0), taps[0]);
                lo = vmlal_n_s32(lo, vget_low_s32(s1), taps[1]);
                hi = vmlal_n_s32(hi, vget_high_s32(s1), taps[1]);
                lo = vmlal_n_s32(lo, vget_low_s32(s2), taps[2]);
                hi = vmlal_n_s32(hi, vget_high_s32(s2), taps[2]);
                vst1q_s64(acc.as_mut_ptr().add(j), lo);
                vst1q_s64(acc.as_mut_ptr().add(j + 2), hi);
            }
            j += 4;
        }
        crate::kernels::accum_row_interior(&mut acc[j..], &row[j..], taps);
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn ch_mac_narrow(acc: &mut [i32], src: &[i16], w: i32) {
        let n = acc.len().min(src.len());
        let mut j = 0usize;
        while j + 4 <= n {
            // SAFETY: `j + 4 <= n <= src.len()` bounds both accesses.
            unsafe {
                let s = vmovl_s16(vld1_s16(src.as_ptr().add(j)));
                let a = vld1q_s32(acc.as_ptr().add(j));
                vst1q_s32(acc.as_mut_ptr().add(j), vmlaq_n_s32(a, s, w));
            }
            j += 4;
        }
        super::scalar_ch_mac(&mut acc[j..], &src[j..n], w);
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn ch_mac_wide(acc: &mut [i64], src: &[i16], w: i32) {
        let n = acc.len().min(src.len());
        let mut j = 0usize;
        while j + 4 <= n {
            // SAFETY: `j + 4 <= n <= src.len()` bounds both accesses.
            unsafe {
                let s = vmovl_s16(vld1_s16(src.as_ptr().add(j)));
                let mut lo = vld1q_s64(acc.as_ptr().add(j));
                let mut hi = vld1q_s64(acc.as_ptr().add(j + 2));
                lo = vmlal_n_s32(lo, vget_low_s32(s), w);
                hi = vmlal_n_s32(hi, vget_high_s32(s), w);
                vst1q_s64(acc.as_mut_ptr().add(j), lo);
                vst1q_s64(acc.as_mut_ptr().add(j + 2), hi);
            }
            j += 4;
        }
        super::scalar_ch_mac(&mut acc[j..], &src[j..n], w);
    }
}

// --------------------------------------------------------------------------
// Safe dispatch wrappers
// --------------------------------------------------------------------------

/// SIMD [`crate::kernels::accum_row_interior`] on `i64` accumulators:
/// `acc[x] += t0·row[x] + t1·row[x+1] + t2·row[x+2]`. `row` must hold at
/// least `acc.len() + 2` samples. Bit-identical to the scalar kernel.
#[inline]
pub fn row_interior_wide(level: SimdLevel, acc: &mut [i64], row: &[i16], taps: [i32; 3]) {
    debug_assert!(row.len() >= acc.len() + 2);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level == Avx2` only when `detect` observed AVX2 support
        // on this CPU at runtime.
        SimdLevel::Avx2 => unsafe { avx2::row_interior_wide(acc, row, taps) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `level == Neon` only when `detect` observed NEON.
        SimdLevel::Neon => unsafe { neon::row_interior_wide(acc, row, taps) },
        // SSE2 has no signed widening multiply; scalar is the wide
        // fallback there and on every non-SIMD target.
        _ => crate::kernels::accum_row_interior(acc, row, taps),
    }
}

/// Narrow (`i32`, wrapping) counterpart of [`row_interior_wide`]. Only
/// exact under the verifier's `narrow_acc` license (final per-element sums
/// fit `i32`); see the module docs.
#[inline]
pub fn row_interior_narrow(level: SimdLevel, acc: &mut [i32], row: &[i16], taps: [i32; 3]) {
    debug_assert!(row.len() >= acc.len() + 2);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level == Avx2` only when `detect` observed AVX2.
        SimdLevel::Avx2 => unsafe { avx2::row_interior_narrow(acc, row, taps) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level == Sse2` only when `detect` observed SSE2.
        SimdLevel::Sse2 => unsafe { sse2::row_interior_narrow(acc, row, taps) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `level == Neon` only when `detect` observed NEON.
        SimdLevel::Neon => unsafe { neon::row_interior_narrow(acc, row, taps) },
        _ => crate::kernels::accum_row_interior(acc, row, taps),
    }
}

/// Flat channel-slice multiply-add on `i64` accumulators (the 1×1 stage):
/// `acc[i] += w · src[i]` over `min(acc.len(), src.len())` elements.
#[inline]
pub fn ch_mac_wide(level: SimdLevel, acc: &mut [i64], src: &[i16], w: i32) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level == Avx2` only when `detect` observed AVX2.
        SimdLevel::Avx2 => unsafe { avx2::ch_mac_wide(acc, src, w) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `level == Neon` only when `detect` observed NEON.
        SimdLevel::Neon => unsafe { neon::ch_mac_wide(acc, src, w) },
        _ => scalar_ch_mac(acc, src, w),
    }
}

/// Narrow (`i32`, wrapping) counterpart of [`ch_mac_wide`].
#[inline]
pub fn ch_mac_narrow(level: SimdLevel, acc: &mut [i32], src: &[i16], w: i32) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level == Avx2` only when `detect` observed AVX2.
        SimdLevel::Avx2 => unsafe { avx2::ch_mac_narrow(acc, src, w) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level == Sse2` only when `detect` observed SSE2.
        SimdLevel::Sse2 => unsafe { sse2::ch_mac_narrow(acc, src, w) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `level == Neon` only when `detect` observed NEON.
        SimdLevel::Neon => unsafe { neon::ch_mac_narrow(acc, src, w) },
        _ => scalar_ch_mac(acc, src, w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every level available on this host, scalar always included.
    fn levels() -> Vec<SimdLevel> {
        let mut ls = vec![SimdLevel::Scalar];
        if detect() != SimdLevel::Scalar {
            ls.push(detect());
        }
        #[cfg(target_arch = "x86_64")]
        if detect() == SimdLevel::Avx2 {
            ls.push(SimdLevel::Sse2);
        }
        ls
    }

    fn row(n: usize, seed: i64) -> Vec<i16> {
        (0..n)
            .map(|i| (((i as i64 * 2654435761 + seed * 97) % 509) - 254) as i16)
            .collect()
    }

    #[test]
    fn interior_matches_scalar_for_all_levels_and_ragged_widths() {
        // Widths straddling every lane count (and far past one vector).
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let r = row(n + 2, n as i64);
            let taps = [7, -1000, 313];
            let mut want64 = vec![5i64; n];
            crate::kernels::accum_row_interior(&mut want64, &r, taps);
            let mut want32 = vec![5i32; n];
            crate::kernels::accum_row_interior(&mut want32, &r, taps);
            for &l in &levels() {
                let mut a = vec![5i64; n];
                row_interior_wide(l, &mut a, &r, taps);
                assert_eq!(a, want64, "wide level {l} n {n}");
                let mut a = vec![5i32; n];
                row_interior_narrow(l, &mut a, &r, taps);
                assert_eq!(a, want32, "narrow level {l} n {n}");
            }
        }
    }

    #[test]
    fn padded_matches_scalar_for_all_levels_and_edge_widths() {
        use crate::kernels::{accum_row_interior, row_padded};
        for n in [1usize, 2, 3, 4, 5, 8, 9, 17, 33] {
            let r = row(n, n as i64 + 11);
            let taps = [-3, 12, 2];
            // Oracle: the scalar interior kernel over the explicitly
            // zero-padded row.
            let mut framed = vec![0i16];
            framed.extend_from_slice(&r);
            framed.push(0);
            let mut want = vec![-9i64; n];
            accum_row_interior(&mut want, &framed, taps);
            for &l in &levels() {
                let mut a = vec![-9i64; n];
                row_padded(l, &mut a, &r, taps);
                assert_eq!(a, want, "wide level {l} n {n}");
                let mut a = vec![-9i32; n];
                row_padded(l, &mut a, &r, taps);
                let widened: Vec<i64> = a.iter().map(|&v| v as i64).collect();
                assert_eq!(widened, want, "narrow level {l} n {n}");
            }
        }
    }

    #[test]
    fn ch_mac_matches_scalar_for_all_levels() {
        for n in [1usize, 4, 7, 8, 9, 40, 101] {
            let s = row(n, 3);
            let mut want = vec![17i64; n];
            scalar_ch_mac(&mut want, &s, -777);
            for &l in &levels() {
                let mut a = vec![17i64; n];
                ch_mac_wide(l, &mut a, &s, -777);
                assert_eq!(a, want, "wide level {l} n {n}");
                let mut a = vec![17i32; n];
                ch_mac_narrow(l, &mut a, &s, -777);
                let widened: Vec<i64> = a.iter().map(|&v| v as i64).collect();
                assert_eq!(widened, want, "narrow level {l} n {n}");
            }
        }
    }

    #[test]
    fn narrow_wraps_modularly_instead_of_panicking() {
        // Out-of-license inputs must wrap (mod 2^32), never trap — the
        // executor guarantees it only routes proven instructions here, but
        // the kernel itself is total.
        for &l in &levels() {
            let mut a = vec![i32::MAX; 9];
            let src = vec![i16::MAX; 9];
            ch_mac_narrow(l, &mut a, &src, i32::MAX);
            let want = (i32::MAX as i64
                + ((i32::MAX as i64 * i16::MAX as i64) & 0xFFFF_FFFF) as i32 as i64)
                as i32;
            assert!(a.iter().all(|&v| v == want), "level {l}");
        }
    }
}
