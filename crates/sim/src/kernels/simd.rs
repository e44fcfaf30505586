//! Explicit-SIMD microkernels of the packed conv nest, with runtime
//! dispatch and a verifier-licensed narrow (`i32`) accumulation path.
//!
//! # Dispatch ladder
//!
//! [`detect`] probes the CPU once (cached) and returns the best
//! [`SimdLevel`] available: AVX2 → SSE2 on `x86_64`, NEON on `aarch64`,
//! scalar everywhere else. The level is resolved at *plan* time
//! (`BlockPlan` stores it) and threaded into every kernel call, so the
//! per-row dispatch is a predictable match on a plan constant — never a
//! repeated feature probe.
//!
//! # The 3×3 microkernel: output-stationary pair MACs
//!
//! [`Lane::conv3_row`] computes one output
//! row of one register block ([`OC_BLOCK`] output channels) over every
//! input channel pair and every 3×3 tap. The input is channel-pair
//! interleaved (see [`PairRows`]): the two `i16` samples of input channels
//! `2p` and `2p+1` at one pixel form one 32-bit word, and so do the two
//! matching taps of one output channel. `_mm256_madd_epi16` on a broadcast
//! tap word and 8 input words yields 8 pair sums `w₀·a₀ + w₁·a₁` — 16 MACs
//! in one instruction. A tile of 16 columns (AVX2; 8 on SSE2) × 4 output
//! channels keeps its accumulators in registers from the bias to the final
//! store; only taps and input words move. Column tails reuse the vector
//! tile at `n − width`: the overlapped columns are recomputed to the same
//! values, so there is no masked tail. Rows narrower than one vector run
//! the scalar tile.
//!
//! # Wide vs narrow lanes
//!
//! * **narrow** (`i32` lanes) — wrapping arithmetic, exact modulo 2³², so
//!   the narrow result is bit-identical to the wide one whenever the final
//!   per-element sum fits `i32` — which is exactly what the static
//!   verifier's interval analysis proves per instruction
//!   (`ecnn_isa::verify::InstrRange::narrow_acc`). The executor only
//!   routes an instruction here when its plan carries that proof;
//!   intermediate wraps (in products or partial sums) are harmless under
//!   the license. `madd` needs no further argument: each `i16 × i16`
//!   product fits `i32`, and the one pair sum that does not —
//!   `(−32768)² + (−32768)² = 2³¹` — wraps to `−2³¹`, its correct residue
//!   modulo 2³².
//! * **wide** (`i64` lanes) — always exact. On AVX2 each `madd` pair sum is
//!   sign-extended into 4×`i64` accumulators; that is exact when no tap
//!   equals `i16::MIN` (`|w₀·a₀ + w₁·a₁| ≤ 2·32767·32768 < 2³¹`), which
//!   the plan records as `PackedConv3::madd_exact`; without it, and on
//!   SSE2 (no signed widening before SSE4.1) and NEON, the wide 3×3 lane
//!   runs the scalar tile.
//!
//! The scalar fallbacks are generic over the lane
//! ([`crate::kernels::Lane::pair_mac`] / [`crate::kernels::Lane::mul_add`]);
//! on the `i32` lane they use explicit `wrapping_*` ops for the same
//! modular semantics (the dev/test profiles build with
//! `overflow-checks = true`).
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
//!    condition establishes (`j + LANES <= n`, or a tile start
//!    `x + width <= n` together with the [`PairRows`] bounds its safe
//!    wrapper checks once per row).
#![allow(unsafe_code)]

use crate::kernels::Lane;
use ecnn_isa::params::{OC_BLOCK, PAIR_TAPS};
use std::sync::OnceLock;

/// The instruction-set tier the kernels dispatch on. All variants exist on
/// every architecture (so cross-arch code can name them); levels foreign
/// to the compilation target simply fall back to the scalar loop and
/// [`detect`] never returns them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// 256-bit AVX2: 16-column `madd` tiles (8×`i32` per vector) on the
    /// narrow lane, 8-column sign-extended `madd` tiles (4×`i64` per
    /// vector) on the wide lane.
    Avx2,
    /// 128-bit SSE2: 8-column `madd` tiles (4×`i32` per vector) on the
    /// narrow lane; the wide 3×3 lane is scalar (no signed widening
    /// before SSE4.1).
    Sse2,
    /// 128-bit NEON (`aarch64`): 4×`i32` / paired widening 1×1 MACs; the
    /// 3×3 stage runs the scalar tile.
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

/// Every level available on this host, scalar always included: the tiers
/// the kernel tests run.
#[cfg(test)]
pub(crate) fn levels() -> Vec<SimdLevel> {
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

/// The operands of one output row of one register block of the packed 3×3
/// nest.
///
/// The input is channel-pair interleaved: input pair `p` (channels `2p`,
/// `2p+1`) is a plane of rows of `(a₀, a₁)` `i16` words, and output column
/// `x` of this row reads words `x .. x+3` of rows `0 .. 3` of every pair.
#[derive(Clone, Copy, Debug)]
pub struct PairRows<'a> {
    /// The interleaved input from the top-left word this output row reads
    /// (pair 0, its first input row, column 0) to the end of the input.
    pub src: &'a [i16],
    /// `i16` elements from one input pair's plane to the next.
    pub pair_stride: usize,
    /// `i16` elements from one input row to the next (twice the width in
    /// words).
    pub row_stride: usize,
    /// The register block's channel-pair taps, [`PAIR_TAPS`] per input
    /// pair (`PackedConv3::block_taps`).
    pub taps: &'a [i16],
    /// One tap-row mask per input pair (`PackedConv3::block_live`); bit
    /// `ky` clear skips input row `ky` of that pair.
    pub live: &'a [u8],
    /// No tap equals `i16::MIN` (`PackedConv3::madd_exact`): every `madd`
    /// pair sum is exact in `i32`.
    pub madd_exact: bool,
}

impl PairRows<'_> {
    /// Panics unless every word an `n`-column output row reads lies in
    /// `src`: the contract every microkernel's unchecked loads rest on.
    fn check(&self, n: usize) {
        let pairs = self.live.len();
        assert_eq!(self.taps.len(), pairs * PAIR_TAPS, "taps per input pair");
        assert!(self.row_stride >= 2 * (n + 2), "row holds n + 2 words");
        if pairs > 0 {
            assert!(
                self.src.len()
                    >= (pairs - 1) * self.pair_stride + 2 * self.row_stride + 2 * (n + 2),
                "three input rows of every pair lie in src"
            );
        }
    }
}

// --------------------------------------------------------------------------
// Scalar fallbacks (also the 1×1 tail loops, and the 3×3 kernel for rows
// narrower than one vector), generic over the accumulator lane: `i64`
// exact, `i32` wrapping.
// --------------------------------------------------------------------------

fn scalar_ch_mac<L: Lane>(acc: &mut [L], src: &[i16], w: i32) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a = a.mul_add(w, s);
    }
}

/// Columns per scalar tile: 4 output channels × 8 columns of accumulators.
const SCALAR_TILE: usize = 8;

/// The scalar 3×3 row kernel: output-stationary tiles of
/// [`SCALAR_TILE`] columns (one column at a time on rows narrower than a
/// tile), every output channel of the block starting from its bias and
/// stored once. `rows` must satisfy [`PairRows::check`] for `out[0].len()`
/// columns.
fn scalar_conv3_row<L: Lane>(
    rows: &PairRows<'_>,
    bias: [L; OC_BLOCK],
    mut out: [&mut [L]; OC_BLOCK],
) {
    let n = out[0].len();
    if n < SCALAR_TILE {
        for x in 0..n {
            scalar_tile::<L, 1>(rows, &bias, &mut out, x);
        }
        return;
    }
    let mut x = 0;
    while x + SCALAR_TILE <= n {
        scalar_tile::<L, SCALAR_TILE>(rows, &bias, &mut out, x);
        x += SCALAR_TILE;
    }
    if x < n {
        // Overlapping last tile: its recomputed columns get the same values.
        scalar_tile::<L, SCALAR_TILE>(rows, &bias, &mut out, n - SCALAR_TILE);
    }
}

/// One scalar tile of `T` columns from `x` (`x + T <= out[o].len()`).
#[inline(always)]
fn scalar_tile<L: Lane, const T: usize>(
    rows: &PairRows<'_>,
    bias: &[L; OC_BLOCK],
    out: &mut [&mut [L]; OC_BLOCK],
    x: usize,
) {
    let mut acc = bias.map(|b| [b; T]);
    for (p, &live) in rows.live.iter().enumerate() {
        if live == 0 {
            continue;
        }
        let taps = &rows.taps[p * PAIR_TAPS..][..PAIR_TAPS];
        for ky in 0..3 {
            if live & (1 << ky) == 0 {
                continue;
            }
            let row =
                &rows.src[p * rows.pair_stride + ky * rows.row_stride + 2 * x..][..2 * (T + 2)];
            for kx in 0..3 {
                let w = &taps[(ky * 3 + kx) * OC_BLOCK * 2..][..OC_BLOCK * 2];
                let a = &row[2 * kx..][..2 * T];
                for t in 0..T {
                    let at = [a[2 * t], a[2 * t + 1]];
                    for (o, acc) in acc.iter_mut().enumerate() {
                        acc[t] = acc[t].pair_mac([w[2 * o], w[2 * o + 1]], at);
                    }
                }
            }
        }
    }
    for (dst, acc) in out.iter_mut().zip(&acc) {
        dst[x..x + T].copy_from_slice(acc);
    }
}

// --------------------------------------------------------------------------
// AVX2 (x86_64)
// --------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{PairRows, OC_BLOCK, PAIR_TAPS};
    use std::arch::x86_64::*;

    /// Broadcasts the `(w₀, w₁)` tap pair at `w` to every 32-bit lane.
    ///
    /// # Safety
    ///
    /// `w` must point at two readable `i16`s.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tap_pair(w: *const i16) -> __m256i {
        // SAFETY: the caller guarantees two readable `i16`s at `w`; the
        // read is unaligned-safe.
        _mm256_set1_epi32(unsafe { w.cast::<i32>().read_unaligned() })
    }

    /// One narrow tile: `V` vectors (8 columns each) from column `x`, for
    /// every output channel of the block.
    ///
    /// # Safety
    ///
    /// `rows.check(n)` has passed for `n = out[o].len()` and
    /// `x + 8·V <= n`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tile_narrow<const V: usize>(
        rows: &PairRows<'_>,
        bias: &[i32; OC_BLOCK],
        out: &mut [&mut [i32]; OC_BLOCK],
        x: usize,
    ) {
        let mut acc = [[_mm256_setzero_si256(); V]; OC_BLOCK];
        for (acc, &b) in acc.iter_mut().zip(bias) {
            *acc = [_mm256_set1_epi32(b); V];
        }
        for (p, &live) in rows.live.iter().enumerate() {
            if live == 0 {
                continue;
            }
            for ky in 0..3 {
                if live & (1 << ky) == 0 {
                    continue;
                }
                let row = p * rows.pair_stride + ky * rows.row_stride + 2 * x;
                for kx in 0..3 {
                    let w = p * PAIR_TAPS + (ky * 3 + kx) * OC_BLOCK * 2;
                    let mut a = [_mm256_setzero_si256(); V];
                    for (v, a) in a.iter_mut().enumerate() {
                        // SAFETY: this loads words `x+kx+8v .. x+kx+8v+8`
                        // of input row `ky` of pair `p`; with
                        // `x + 8V <= n` and `kx <= 2` they lie within the
                        // row's `n + 2` words, and `PairRows::check` put
                        // every such row inside `src`.
                        *a = unsafe {
                            _mm256_loadu_si256(
                                rows.src.as_ptr().add(row + 2 * (kx + 8 * v)) as *const __m256i
                            )
                        };
                    }
                    for (o, acc) in acc.iter_mut().enumerate() {
                        // SAFETY: `w + 2o + 2 <= (p + 1) · PAIR_TAPS`,
                        // inside `taps` (`PairRows::check`).
                        let wo = unsafe { tap_pair(rows.taps.as_ptr().add(w + 2 * o)) };
                        for (acc, &a) in acc.iter_mut().zip(&a) {
                            *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(wo, a));
                        }
                    }
                }
            }
        }
        for (dst, acc) in out.iter_mut().zip(&acc) {
            for (v, &acc) in acc.iter().enumerate() {
                // SAFETY: `x + 8v + 8 <= x + 8V <= n = dst.len()`.
                unsafe {
                    _mm256_storeu_si256(dst.as_mut_ptr().add(x + 8 * v) as *mut __m256i, acc)
                };
            }
        }
    }

    /// One wide tile of 8 columns from `x`: each `madd` pair sum is
    /// sign-extended into two 4×`i64` accumulators.
    ///
    /// # Safety
    ///
    /// `rows.check(n)` has passed for `n = out[o].len()`, `x + 8 <= n`,
    /// and `rows.madd_exact` holds (else the pair sums are not exact).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tile_wide(
        rows: &PairRows<'_>,
        bias: &[i64; OC_BLOCK],
        out: &mut [&mut [i64]; OC_BLOCK],
        x: usize,
    ) {
        let mut acc = [[_mm256_setzero_si256(); 2]; OC_BLOCK];
        for (acc, &b) in acc.iter_mut().zip(bias) {
            *acc = [_mm256_set1_epi64x(b); 2];
        }
        for (p, &live) in rows.live.iter().enumerate() {
            if live == 0 {
                continue;
            }
            for ky in 0..3 {
                if live & (1 << ky) == 0 {
                    continue;
                }
                let row = p * rows.pair_stride + ky * rows.row_stride + 2 * x;
                for kx in 0..3 {
                    let w = p * PAIR_TAPS + (ky * 3 + kx) * OC_BLOCK * 2;
                    // SAFETY: words `x+kx .. x+kx+8` of input row `ky` of
                    // pair `p`, in bounds as in `tile_narrow`.
                    let a = unsafe {
                        _mm256_loadu_si256(rows.src.as_ptr().add(row + 2 * kx) as *const __m256i)
                    };
                    for (o, acc) in acc.iter_mut().enumerate() {
                        // SAFETY: inside `taps`, as in `tile_narrow`.
                        let wo = unsafe { tap_pair(rows.taps.as_ptr().add(w + 2 * o)) };
                        let m = _mm256_madd_epi16(wo, a);
                        let lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m));
                        let hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(m));
                        acc[0] = _mm256_add_epi64(acc[0], lo);
                        acc[1] = _mm256_add_epi64(acc[1], hi);
                    }
                }
            }
        }
        for (dst, acc) in out.iter_mut().zip(&acc) {
            for (h, &acc) in acc.iter().enumerate() {
                // SAFETY: `x + 4h + 4 <= x + 8 <= n = dst.len()`.
                unsafe {
                    _mm256_storeu_si256(dst.as_mut_ptr().add(x + 4 * h) as *mut __m256i, acc)
                };
            }
        }
    }

    /// # Safety
    ///
    /// AVX2 is available and `rows.check(out[0].len())` has passed, with
    /// every `out` row the same length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn conv3_row_narrow(
        rows: &PairRows<'_>,
        bias: [i32; OC_BLOCK],
        mut out: [&mut [i32]; OC_BLOCK],
    ) {
        let n = out[0].len();
        if n < 8 {
            return super::scalar_conv3_row(rows, bias, out);
        }
        let mut x = 0;
        // SAFETY: the caller's `rows.check(n)`, and `x + width <= n` for
        // every tile: by each loop condition, and for the last tile, which
        // starts at `n - 8 >= 0` (recomputing the columns it overlaps
        // stores the same values again).
        unsafe {
            while x + 16 <= n {
                tile_narrow::<2>(rows, &bias, &mut out, x);
                x += 16;
            }
            if x + 8 <= n {
                tile_narrow::<1>(rows, &bias, &mut out, x);
                x += 8;
            }
            if x < n {
                tile_narrow::<1>(rows, &bias, &mut out, n - 8);
            }
        }
    }

    /// # Safety
    ///
    /// As [`conv3_row_narrow`], plus `rows.madd_exact`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn conv3_row_wide(
        rows: &PairRows<'_>,
        bias: [i64; OC_BLOCK],
        mut out: [&mut [i64]; OC_BLOCK],
    ) {
        let n = out[0].len();
        if n < 8 {
            return super::scalar_conv3_row(rows, bias, out);
        }
        let mut x = 0;
        // SAFETY: the caller's `rows.check(n)` and `madd_exact`, and
        // `x + 8 <= n` for every tile; the overlapping last tile starts at
        // `n - 8` (see `conv3_row_narrow`).
        unsafe {
            while x + 8 <= n {
                tile_wide(rows, &bias, &mut out, x);
                x += 8;
            }
            if x < n {
                tile_wide(rows, &bias, &mut out, n - 8);
            }
        }
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
            // load and the 256-bit accumulator load/store. The
            // sign-extended sources keep each value in their lanes' low 32
            // bits, so `_mm256_mul_epi32` (signed low-32 × low-32 → 64)
            // computes the exact `w · sample` product.
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
    use super::{PairRows, OC_BLOCK, PAIR_TAPS};
    use std::arch::x86_64::*;

    /// Sign-extends the low 4 `i16` lanes of `x` to 4 `i32` lanes without
    /// SSE4.1's `cvtepi16_epi32`: self-interleave puts each sample in the
    /// high half of a 32-bit lane, and the arithmetic right shift
    /// sign-extends it down.
    #[target_feature(enable = "sse2")]
    fn extend_lo_epi16(x: __m128i) -> __m128i {
        _mm_srai_epi32(_mm_unpacklo_epi16(x, x), 16)
    }

    /// SSE2 emulation of `_mm_mullo_epi32` (SSE4.1): the low 32 bits of a
    /// 32×32 product are sign-agnostic, so two unsigned even/odd-lane
    /// `_mm_mul_epu32` passes recombined lane-wise produce exactly the
    /// wrapping signed product the narrow path needs.
    #[target_feature(enable = "sse2")]
    fn mullo_epi32(a: __m128i, b: __m128i) -> __m128i {
        let even = _mm_mul_epu32(a, b);
        let odd = _mm_mul_epu32(_mm_srli_si128(a, 4), _mm_srli_si128(b, 4));
        _mm_unpacklo_epi32(
            _mm_shuffle_epi32::<0b00_00_10_00>(even),
            _mm_shuffle_epi32::<0b00_00_10_00>(odd),
        )
    }

    /// One narrow tile: `V` vectors (4 columns each) from column `x`.
    ///
    /// # Safety
    ///
    /// `rows.check(n)` has passed for `n = out[o].len()` and
    /// `x + 4·V <= n`.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn tile_narrow<const V: usize>(
        rows: &PairRows<'_>,
        bias: &[i32; OC_BLOCK],
        out: &mut [&mut [i32]; OC_BLOCK],
        x: usize,
    ) {
        let mut acc = [[_mm_setzero_si128(); V]; OC_BLOCK];
        for (acc, &b) in acc.iter_mut().zip(bias) {
            *acc = [_mm_set1_epi32(b); V];
        }
        for (p, &live) in rows.live.iter().enumerate() {
            if live == 0 {
                continue;
            }
            for ky in 0..3 {
                if live & (1 << ky) == 0 {
                    continue;
                }
                let row = p * rows.pair_stride + ky * rows.row_stride + 2 * x;
                for kx in 0..3 {
                    let w = p * PAIR_TAPS + (ky * 3 + kx) * OC_BLOCK * 2;
                    let mut a = [_mm_setzero_si128(); V];
                    for (v, a) in a.iter_mut().enumerate() {
                        // SAFETY: words `x+kx+4v .. x+kx+4v+4` of input row
                        // `ky` of pair `p`: within the row's `n + 2` words
                        // since `x + 4V <= n`, and inside `src` by
                        // `PairRows::check`.
                        *a = unsafe {
                            _mm_loadu_si128(
                                rows.src.as_ptr().add(row + 2 * (kx + 4 * v)) as *const __m128i
                            )
                        };
                    }
                    for (o, acc) in acc.iter_mut().enumerate() {
                        // SAFETY: `w + 2o + 2 <= (p + 1) · PAIR_TAPS`, inside
                        // `taps`; unaligned read.
                        let wo = _mm_set1_epi32(unsafe {
                            rows.taps
                                .as_ptr()
                                .add(w + 2 * o)
                                .cast::<i32>()
                                .read_unaligned()
                        });
                        for (acc, &a) in acc.iter_mut().zip(&a) {
                            *acc = _mm_add_epi32(*acc, _mm_madd_epi16(wo, a));
                        }
                    }
                }
            }
        }
        for (dst, acc) in out.iter_mut().zip(&acc) {
            for (v, &acc) in acc.iter().enumerate() {
                // SAFETY: `x + 4v + 4 <= x + 4V <= n = dst.len()`.
                unsafe { _mm_storeu_si128(dst.as_mut_ptr().add(x + 4 * v) as *mut __m128i, acc) };
            }
        }
    }

    /// # Safety
    ///
    /// SSE2 is available and `rows.check(out[0].len())` has passed, with
    /// every `out` row the same length.
    #[target_feature(enable = "sse2")]
    pub unsafe fn conv3_row_narrow(
        rows: &PairRows<'_>,
        bias: [i32; OC_BLOCK],
        mut out: [&mut [i32]; OC_BLOCK],
    ) {
        let n = out[0].len();
        if n < 4 {
            return super::scalar_conv3_row(rows, bias, out);
        }
        let mut x = 0;
        // SAFETY: the caller's `rows.check(n)`, and `x + width <= n` for
        // every tile; the overlapping last tile starts at `n - 4 >= 0`.
        unsafe {
            while x + 8 <= n {
                tile_narrow::<2>(rows, &bias, &mut out, x);
                x += 8;
            }
            if x + 4 <= n {
                tile_narrow::<1>(rows, &bias, &mut out, x);
                x += 4;
            }
            if x < n {
                tile_narrow::<1>(rows, &bias, &mut out, n - 4);
            }
        }
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
    pub unsafe fn ch_mac_narrow(acc: &mut [i32], src: &[i16], w: i32) {
        let n = acc.len().min(src.len());
        let mut j = 0usize;
        while j + 4 <= n {
            // SAFETY: `j + 4 <= n <= src.len()` bounds both accesses. NEON
            // MLA wraps modularly, matching the narrow path's licensed
            // semantics.
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
            // SAFETY: `j + 4 <= n <= src.len()` bounds both accesses;
            // `vmlal_n_s32` is the exact widening 32×32→64 multiply-add.
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

/// One output row of one register block on `i64` accumulators: output
/// channel `o`'s row `out[o]` is overwritten with
/// `bias[o] + Σ_{pair, ky, kx} w₀·a₀ + w₁·a₁` over `rows`. Exact at every
/// level.
///
/// # Panics
///
/// Panics if the `out` rows differ in length or `rows` does not cover
/// them (see [`PairRows`]).
#[inline]
pub fn conv3_row_wide(
    level: SimdLevel,
    rows: &PairRows<'_>,
    bias: [i64; OC_BLOCK],
    out: [&mut [i64]; OC_BLOCK],
) {
    let n = out[0].len();
    assert!(out.iter().all(|r| r.len() == n), "block rows share a width");
    rows.check(n);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level == Avx2` only when `detect` observed AVX2 support
        // on this CPU at runtime; `rows.check(n)` passed above and
        // `madd_exact` is tested in the guard.
        SimdLevel::Avx2 if rows.madd_exact => unsafe { avx2::conv3_row_wide(rows, bias, out) },
        // SSE2 and NEON have no cheap signed `i32 → i64` widening of the
        // pair sums; scalar is the wide fallback there and on every
        // non-SIMD target.
        _ => scalar_conv3_row(rows, bias, out),
    }
}

/// Narrow (`i32`, wrapping) counterpart of [`conv3_row_wide`]. Only exact
/// under the verifier's `narrow_acc` license (final per-element sums fit
/// `i32`); see the module docs.
///
/// # Panics
///
/// As [`conv3_row_wide`].
#[inline]
pub fn conv3_row_narrow(
    level: SimdLevel,
    rows: &PairRows<'_>,
    bias: [i32; OC_BLOCK],
    out: [&mut [i32]; OC_BLOCK],
) {
    let n = out[0].len();
    assert!(out.iter().all(|r| r.len() == n), "block rows share a width");
    rows.check(n);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level == Avx2` only when `detect` observed AVX2;
        // `rows.check(n)` passed above.
        SimdLevel::Avx2 => unsafe { avx2::conv3_row_narrow(rows, bias, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level == Sse2` only when `detect` observed SSE2;
        // `rows.check(n)` passed above.
        SimdLevel::Sse2 => unsafe { sse2::conv3_row_narrow(rows, bias, out) },
        _ => scalar_conv3_row(rows, bias, out),
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

    fn row(n: usize, seed: i64) -> Vec<i16> {
        (0..n)
            .map(|i| (((i as i64 * 2654435761 + seed * 97) % 509) - 254) as i16)
            .collect()
    }

    /// A block row's operands over `pairs` input pairs: 3 input rows of
    /// `n + 2` words per pair (plus one slack word per row, so the row
    /// stride exceeds the width), pseudo-random taps with tap row 1 of
    /// pair 1 zeroed (and masked out), and, with `frame`, zero first and
    /// last words on every row.
    struct Case {
        src: Vec<i16>,
        taps: Vec<i16>,
        live: Vec<u8>,
        n: usize,
    }

    impl Case {
        fn new(n: usize, pairs: usize, seed: i64, frame: bool) -> Self {
            let row_stride = 2 * (n + 3);
            let mut src = row(pairs * 3 * row_stride, seed);
            if frame {
                for r in src.chunks_exact_mut(row_stride) {
                    r[..2].fill(0);
                    r[2 * (n + 1)..].fill(0);
                }
            }
            let mut taps = row(pairs * PAIR_TAPS, seed + 5);
            let mut live = vec![0b111u8; pairs];
            if pairs > 1 {
                taps[PAIR_TAPS + 3 * OC_BLOCK * 2..][..3 * OC_BLOCK * 2].fill(0);
                live[1] = 0b101;
            }
            Self { src, taps, live, n }
        }

        fn rows(&self) -> PairRows<'_> {
            PairRows {
                src: &self.src,
                pair_stride: 3 * 2 * (self.n + 3),
                row_stride: 2 * (self.n + 3),
                taps: &self.taps,
                live: &self.live,
                madd_exact: !self.taps.contains(&i16::MIN),
            }
        }

        /// The block row computed by `f` from bias `-9 + o`, widened.
        fn run<L: Lane>(
            &self,
            f: impl FnOnce(&PairRows<'_>, [L; OC_BLOCK], [&mut [L]; OC_BLOCK]),
        ) -> Vec<Vec<i64>> {
            let mut out = vec![vec![L::default(); self.n]; OC_BLOCK];
            let [a, b, c, d] = &mut out[..] else {
                unreachable!()
            };
            f(
                &self.rows(),
                std::array::from_fn(|o| L::from_bias(o as i64 - 9)),
                [a, b, c, d],
            );
            out.iter()
                .map(|r| r.iter().map(|&v| v.into()).collect())
                .collect()
        }

        /// Independent oracle: the exact sum, straight from the layout.
        fn exact(&self) -> Vec<Vec<i64>> {
            let rows = self.rows();
            (0..OC_BLOCK)
                .map(|o| {
                    (0..self.n)
                        .map(|x| {
                            let mut acc = o as i64 - 9;
                            for p in 0..self.live.len() {
                                for ky in 0..3 {
                                    for kx in 0..3 {
                                        for h in 0..2 {
                                            let w = self.taps[p * PAIR_TAPS
                                                + ((ky * 3 + kx) * OC_BLOCK + o) * 2
                                                + h];
                                            let a = self.src[p * rows.pair_stride
                                                + ky * rows.row_stride
                                                + 2 * (x + kx)
                                                + h];
                                            acc += w as i64 * a as i64;
                                        }
                                    }
                                }
                            }
                            acc
                        })
                        .collect()
                })
                .collect()
        }
    }

    #[test]
    fn interior_matches_scalar_for_all_levels_and_ragged_widths() {
        // Widths below one vector, straddling every tile width, and far
        // past one tile (every overlapped-tail shape of 4/8/16 columns).
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let mut case = Case::new(n, 3, n as i64, false);
            for exact in [true, false] {
                if !exact {
                    // `(-32768)` taps revoke `madd_exact`: on pair 0, now
                    // all `i16::MIN`, every `madd` pair sum overflows `i32`,
                    // and the wide lane must stay exact through its scalar
                    // fallback.
                    let pair_stride = case.rows().pair_stride;
                    case.taps[..PAIR_TAPS].fill(i16::MIN);
                    case.src[..pair_stride].fill(i16::MIN);
                    case.live[0] = 0b111;
                }
                let want64 = case.run::<i64>(scalar_conv3_row);
                let want32 = case.run::<i32>(scalar_conv3_row);
                assert_eq!(want64, case.exact(), "scalar wide n {n}");
                for &l in &levels() {
                    let got = case.run::<i64>(|r, b, o| conv3_row_wide(l, r, b, o));
                    assert_eq!(got, want64, "wide level {l} n {n} exact {exact}");
                    let got = case.run::<i32>(|r, b, o| conv3_row_narrow(l, r, b, o));
                    assert_eq!(got, want32, "narrow level {l} n {n} exact {exact}");
                }
            }
        }
    }

    #[test]
    fn padded_matches_scalar_for_all_levels_and_edge_widths() {
        // Zero-framed rows (a zero-padded 3x3 after the gather's frame)
        // against the exact oracle; small samples keep every sum in `i32`,
        // so the narrow lane must match exactly too.
        for n in [1usize, 2, 3, 4, 5, 8, 9, 17, 33] {
            let mut case = Case::new(n, 2, n as i64 + 11, true);
            for v in case.src.iter_mut() {
                *v %= 64;
            }
            let want = case.exact();
            for &l in &levels() {
                let got = case.run::<i64>(|r, b, o| conv3_row_wide(l, r, b, o));
                assert_eq!(got, want, "wide level {l} n {n}");
                let got = case.run::<i32>(|r, b, o| conv3_row_narrow(l, r, b, o));
                assert_eq!(got, want, "narrow level {l} n {n}");
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
        // The one `madd` pair sum that overflows `i32`:
        // (-32768)·(-32768) + (-32768)·(-32768) = 2^31 wraps to -2^31, its
        // residue mod 2^32. Every level must agree with the scalar wrapping
        // lane and with the exact sum truncated to 32 bits.
        for n in [3usize, 9, 20] {
            let mut case = Case::new(n, 2, 1, false);
            case.src.fill(i16::MIN);
            case.taps.fill(i16::MIN);
            case.live.fill(0b111);
            let exact: Vec<Vec<i64>> = case
                .exact()
                .iter()
                .map(|r| r.iter().map(|&v| v as i32 as i64).collect())
                .collect();
            let want = case.run::<i32>(scalar_conv3_row);
            assert_eq!(want, exact, "scalar wrapping lane n {n}");
            for &l in &levels() {
                let got = case.run::<i32>(|r, b, o| conv3_row_narrow(l, r, b, o));
                assert_eq!(got, want, "level {l} n {n}");
            }
        }
    }
}
