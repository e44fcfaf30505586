//! The packed convolution nest, plus the kept scalar reference.
//!
//! [`execute`](crate::exec::execute) dispatches its accumulation inner
//! loops here. One 3×3 nest (`conv3`), one 1×1 leaf MAC (`conv1`), one
//! zero-padded border peel ([`row_padded`]) and one bias fill
//! (`fill_bias`) serve every packed execution. They consume the
//! plan-time [`PackedKernelParams`](ecnn_isa::params::PackedKernelParams)
//! cache — weights already widened to `i32` in tap-major order, biases
//! pre-aligned, zero taps masked — and drive each output row as raw
//! input-row slices with the 3 horizontal taps fused per row. Rows and
//! columns are split into a *border* (zero-padded inference only) and an
//! *interior* span that runs with no bounds checks and no branches.
//!
//! The nest is generic over the accumulator [`Lane`] and takes the
//! [`SimdLevel`] its row kernels dispatch to:
//!
//! * `i64` — exact accumulation, so any summation order produces
//!   bit-identical results. [`Kernels::Packed`](crate::exec::Kernels::Packed)
//!   is this lane at [`SimdLevel::Scalar`], the portable scalar tier.
//! * `i32` — wrapping accumulation, exact modulo 2³². Bit-identical to the
//!   `i64` lane after `widen_acc` if and only if the plan carries the
//!   instruction's `narrow_acc` range proof; the executor enforces that
//!   precondition.
//!
//! Every lane and level matches the [`mod@reference`] kernels exactly,
//! which the parity proptests in `tests/kernel_parity.rs` enforce against
//! the `conv3x3_fixed` / `conv1x1_fixed` goldens.
//!
//! The [`mod@reference`] submodule preserves the pre-packing scalar kernels
//! verbatim: they are the baseline `bench_kernels` measures speedups
//! against (see `BENCH_kernels.json`) and the oracle of the parity suite.

use ecnn_isa::instr::{Instruction, LEAF_CH};
use ecnn_isa::params::{PackedConv1, PackedConv3};
use ecnn_model::model::InferenceKind;
use ecnn_tensor::Tensor;

pub mod simd;

use simd::SimdLevel;

/// An accumulator lane of the packed nest: `i64` (exact) or `i32`
/// (wrapping, licensed by the verifier's `narrow_acc` proof). Each vector
/// method dispatches to the matching `simd::*_{wide,narrow}` entry point;
/// `Into<i64>` sign-extends an accumulator for the shared epilogue.
pub trait Lane: Copy + Default + Into<i64> {
    /// A pre-aligned bias as an accumulator start value. The `i32` lane
    /// truncates, which is exact modulo 2³² — all the narrow lane needs:
    /// under the license the *final* per-element sum fits `i32`, so a bias
    /// whose magnitude exceeds `i32` simply starts the modular
    /// accumulation from the congruent residue.
    fn from_bias(b: i64) -> Self;
    /// Scalar multiply-add `self + t·s` in the lane's arithmetic.
    fn mul_add(self, t: i32, s: i16) -> Self;
    /// `acc[x] += t0·row[x] + t1·row[x+1] + t2·row[x+2]`; `row` must hold
    /// at least `acc.len() + 2` samples.
    fn row_interior(level: SimdLevel, acc: &mut [Self], row: &[i16], taps: [i32; 3]);
    /// `acc[i] += w·src[i]` over `min(acc.len(), src.len())` elements.
    fn ch_mac(level: SimdLevel, acc: &mut [Self], src: &[i16], w: i32);
}

impl Lane for i64 {
    #[inline]
    fn from_bias(b: i64) -> Self {
        b
    }
    #[inline]
    fn mul_add(self, t: i32, s: i16) -> Self {
        self + t as i64 * s as i64
    }
    #[inline]
    fn row_interior(level: SimdLevel, acc: &mut [Self], row: &[i16], taps: [i32; 3]) {
        simd::row_interior_wide(level, acc, row, taps);
    }
    #[inline]
    fn ch_mac(level: SimdLevel, acc: &mut [Self], src: &[i16], w: i32) {
        simd::ch_mac_wide(level, acc, src, w);
    }
}

impl Lane for i32 {
    #[inline]
    fn from_bias(b: i64) -> Self {
        b as i32
    }
    #[inline]
    fn mul_add(self, t: i32, s: i16) -> Self {
        self.wrapping_add(t.wrapping_mul(s as i32))
    }
    #[inline]
    fn row_interior(level: SimdLevel, acc: &mut [Self], row: &[i16], taps: [i32; 3]) {
        simd::row_interior_narrow(level, acc, row, taps);
    }
    #[inline]
    fn ch_mac(level: SimdLevel, acc: &mut [Self], src: &[i16], w: i32) {
        simd::ch_mac_narrow(level, acc, src, w);
    }
}

/// Adds one fused 3-tap row into a fully interior accumulator span:
/// `acc[x] += t0·row[x] + t1·row[x+1] + t2·row[x+2]`. No bounds branches;
/// `row` must hold at least `acc.len() + 2` samples (the truncated-pyramid
/// geometry guarantees this for every row). The scalar tier of
/// [`Lane::row_interior`], and the tail loop of its vector kernels.
#[inline]
pub fn accum_row_interior<L: Lane>(acc: &mut [L], row: &[i16], taps: [i32; 3]) {
    let n = acc.len();
    let [t0, t1, t2] = taps;
    let r0 = &row[..n];
    let r1 = &row[1..n + 1];
    let r2 = &row[2..n + 2];
    for (((a, &s0), &s1), &s2) in acc.iter_mut().zip(r0).zip(r1).zip(r2) {
        *a = a.mul_add(t0, s0).mul_add(t1, s1).mul_add(t2, s2);
    }
}

/// The zero-padded variant of [`Lane::row_interior`]: `row` and `acc`
/// share a width, the first and last columns are peeled scalar (dropping
/// their out-of-image taps), and the interior span runs branch-free at
/// `level`.
#[inline]
pub fn row_padded<L: Lane>(level: SimdLevel, acc: &mut [L], row: &[i16], taps: [i32; 3]) {
    let n = acc.len();
    debug_assert_eq!(n, row.len());
    let [t0, t1, t2] = taps;
    if n == 1 {
        acc[0] = acc[0].mul_add(t1, row[0]);
        return;
    }
    acc[0] = acc[0].mul_add(t1, row[0]).mul_add(t2, row[1]);
    if n > 2 {
        // Interior element `x` (1 ≤ x ≤ n-2) reads `row[x-1..x+2]`: an
        // interior pass over `acc[1..n-1]` with the full row (length
        // `(n-2) + 2`) is exactly that window.
        L::row_interior(level, &mut acc[1..n - 1], row, taps);
    }
    acc[n - 1] = acc[n - 1].mul_add(t0, row[n - 2]).mul_add(t1, row[n - 1]);
}

/// Overwrites each of `acc`'s channels with its pre-aligned bias.
pub(crate) fn fill_bias<L: Lane>(acc: &mut Tensor<L>, bias: &[i64]) {
    for (oc, &b) in bias.iter().enumerate() {
        acc.channel_mut(oc).fill(L::from_bias(b));
    }
}

/// Sign-extends a narrow `i32` accumulator tensor into the shared `i64`
/// accumulator, so the epilogue (srcS, ReLU, requantization, tracing) is
/// identical for both lanes.
pub(crate) fn widen_acc(dst: &mut Tensor<i64>, src: &Tensor<i32>) {
    debug_assert_eq!(dst.shape(), src.shape());
    for (d, &s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d = s.into();
    }
}

/// Packed 3×3 accumulation of `input` into `acc` (already shaped to
/// `out_planes·32 × chh × cw`; every element is overwritten, starting from
/// the packed biases). Masked-out tap rows and channel pairs are skipped
/// without touching the weights; each row runs the `level` kernels of
/// lane `L`.
#[inline]
pub(crate) fn conv3<L: Lane>(
    ins: &Instruction,
    input: &Tensor<i16>,
    packed: &PackedConv3,
    acc: &mut Tensor<L>,
    level: SimdLevel,
) {
    let (_, chh, _) = acc.shape();
    let ih = input.height();
    let origin: isize = match ins.inference {
        InferenceKind::TruncatedPyramid => 1,
        InferenceKind::ZeroPadded => 0,
    };
    fill_bias(acc, &packed.bias);
    let interior = origin == 1;
    for op_ in 0..packed.out_planes {
        for ig in 0..packed.in_groups {
            let plane = op_ * packed.in_groups + ig;
            for oc in 0..LEAF_CH {
                let out_ch = op_ * LEAF_CH + oc;
                for ic in 0..LEAF_CH {
                    let m = packed.row_mask(plane, oc, ic);
                    if m == 0 {
                        continue;
                    }
                    let chan = ig * LEAF_CH + ic;
                    for ky in 0..3usize {
                        if m & (1 << ky) == 0 {
                            continue;
                        }
                        let taps = packed.taps(plane, ky, oc, ic);
                        for y in 0..chh {
                            let sy = y as isize + ky as isize - 1 + origin;
                            if sy < 0 || sy >= ih as isize {
                                continue;
                            }
                            let row = input.row(chan, sy as usize);
                            let arow = acc.row_mut(out_ch, y);
                            if interior {
                                L::row_interior(level, arow, row, taps);
                            } else {
                                row_padded(level, arow, row, taps);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Packed 1×1 accumulation of one leaf: for every output channel, only
/// the plan-compacted nonzero input columns contribute, each as one flat
/// channel-slice multiply-add. `chan_base` offsets into `input`'s channels
/// (the leaf's 32-channel group for `CONV1`, 0 for an ER mid plane).
#[inline]
pub(crate) fn conv1<L: Lane>(
    packed: &PackedConv1,
    leaf: usize,
    input: &Tensor<i16>,
    chan_base: usize,
    acc: &mut Tensor<L>,
    level: SimdLevel,
) {
    for oc in 0..LEAF_CH {
        for &(ic, wv) in packed.row(leaf, oc) {
            let src = input.channel(chan_base + ic as usize);
            L::ch_mac(level, acc.channel_mut(oc), src, wv);
        }
    }
}

/// The pre-packing scalar kernels, kept verbatim: per-MAC bounds-checked
/// `at()`/`at_mut()` accesses, per-pixel border branches, and per-call
/// bias `Vec` allocation. [`crate::exec::execute_with`] runs them with
/// [`crate::exec::Kernels::Reference`]; `bench_kernels` uses that path as
/// the measured baseline, and the parity proptests as the oracle.
pub mod reference {
    use super::*;

    /// Full-precision 3×3 convolution of `input` (all groups) producing
    /// `out_planes × 32` channels of `i64` accumulators in `acc` (already
    /// shaped by the caller; every element is overwritten).
    /// `weights(out_plane, in_group)` yields one leaf's 32×32×9 filter;
    /// `biases(out_plane)` yields accumulator-aligned biases.
    pub fn conv3_acc_into<'w>(
        ins: &Instruction,
        input: &Tensor<i16>,
        weights: &dyn Fn(usize, usize) -> &'w [i16],
        biases: &dyn Fn(usize) -> Vec<i64>,
        out_planes: usize,
        acc: &mut Tensor<i64>,
    ) {
        let (cw, chh) = ins.conv_out_size();
        let (ih, iw) = (input.height(), input.width());
        let origin: isize = match ins.inference {
            InferenceKind::TruncatedPyramid => 1,
            InferenceKind::ZeroPadded => 0,
        };
        debug_assert_eq!(acc.shape(), (out_planes * LEAF_CH, chh, cw));
        for op_ in 0..out_planes {
            let b = biases(op_);
            // `oc` addresses both the bias table and the plane offset.
            #[allow(clippy::needless_range_loop)]
            for oc in 0..LEAF_CH {
                for y in 0..chh {
                    for x in 0..cw {
                        *acc.at_mut(op_ * LEAF_CH + oc, y, x) = b[oc];
                    }
                }
            }
            for ig in 0..ins.in_groups {
                let w = weights(op_, ig);
                for oc in 0..LEAF_CH {
                    for ic in 0..LEAF_CH {
                        let wbase = (oc * LEAF_CH + ic) * 9;
                        let chan = ig * LEAF_CH + ic;
                        for ky in 0..3usize {
                            for kx in 0..3usize {
                                let wv = w[wbase + ky * 3 + kx] as i64;
                                if wv == 0 {
                                    continue;
                                }
                                for y in 0..chh {
                                    let sy = y as isize + ky as isize - 1 + origin;
                                    if sy < 0 || sy >= ih as isize {
                                        continue;
                                    }
                                    for x in 0..cw {
                                        let sx = x as isize + kx as isize - 1 + origin;
                                        if sx < 0 || sx >= iw as isize {
                                            continue;
                                        }
                                        *acc.at_mut(op_ * LEAF_CH + oc, y, x) +=
                                            wv * input.at(chan, sy as usize, sx as usize) as i64;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The pre-packing 1×1 accumulation for one leaf: scalar per-pixel
    /// MACs with the zero test inside the channel loops.
    pub fn conv1_leaf_acc(
        leaf_w1: &[i16],
        input: &Tensor<i16>,
        chan_base: usize,
        acc: &mut Tensor<i64>,
    ) {
        let (_, h, w) = acc.shape();
        for oc in 0..LEAF_CH {
            for ic in 0..LEAF_CH {
                let wv = leaf_w1[oc * LEAF_CH + ic] as i64;
                if wv == 0 {
                    continue;
                }
                for y in 0..h {
                    for x in 0..w {
                        *acc.at_mut(oc, y, x) += wv * input.at(chan_base + ic, y, x) as i64;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`row_padded`] on lane `L` at the host's best tier, from an
    /// all-`start` accumulator, widened back to `i64`.
    fn padded<L: Lane>(start: i64, row: &[i16], taps: [i32; 3]) -> Vec<i64> {
        let mut acc = vec![L::from_bias(start); row.len()];
        row_padded(simd::detect(), &mut acc, row, taps);
        acc.into_iter().map(Into::into).collect()
    }

    #[test]
    fn interior_row_fuses_three_taps() {
        let row: Vec<i16> = (1..=6).collect();
        let mut acc = vec![100i64; 4];
        accum_row_interior(&mut acc, &row, [1, 10, 100]);
        // acc[x] += row[x] + 10*row[x+1] + 100*row[x+2]
        assert_eq!(acc, vec![100 + 321, 100 + 432, 100 + 543, 100 + 654]);
    }

    #[test]
    fn padded_row_drops_border_taps() {
        let row: Vec<i16> = vec![2, 3, 4, 5];
        for acc in [
            padded::<i64>(0, &row, [1, 10, 100]),
            padded::<i32>(0, &row, [1, 10, 100]),
        ] {
            assert_eq!(acc[0], 10 * 2 + 100 * 3, "left border drops t0");
            assert_eq!(acc[1], 2 + 10 * 3 + 100 * 4);
            assert_eq!(acc[2], 3 + 10 * 4 + 100 * 5);
            assert_eq!(acc[3], 4 + 10 * 5, "right border drops t2");
        }
    }

    #[test]
    fn padded_row_handles_degenerate_widths() {
        for acc in [
            padded::<i64>(0, &[7], [1, 10, 100]),
            padded::<i32>(0, &[7], [1, 10, 100]),
        ] {
            assert_eq!(acc, vec![70], "1-wide row keeps only the center tap");
        }
        for acc in [
            padded::<i64>(0, &[3, 5], [1, 10, 100]),
            padded::<i32>(0, &[3, 5], [1, 10, 100]),
        ] {
            assert_eq!(acc, vec![10 * 3 + 100 * 5, 3 + 10 * 5]);
        }
    }

    #[test]
    fn padded_matches_interior_on_pre_padded_row() {
        // A padded row computed directly must equal an interior pass over
        // the same row with explicit zero padding, on both lanes.
        let row: Vec<i16> = vec![-3, 8, 0, 5, 2, -1, 9];
        let taps = [7, -2, 3];
        let mut wide = vec![0i16];
        wide.extend_from_slice(&row);
        wide.push(0);
        let mut interior = vec![5i64; row.len()];
        accum_row_interior(&mut interior, &wide, taps);
        assert_eq!(padded::<i64>(5, &row, taps), interior);
        assert_eq!(padded::<i32>(5, &row, taps), interior);
    }
}
