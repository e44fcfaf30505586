//! The packed convolution nest, plus the kept scalar reference.
//!
//! [`execute`](crate::exec::execute) dispatches its accumulation loops
//! here. One 3×3 nest (`conv3`), one 1×1 leaf MAC (`conv1`) and one bias
//! fill (`fill_bias`) serve every packed execution. They consume the
//! plan-time [`PackedKernelParams`](ecnn_isa::params::PackedKernelParams)
//! cache — 3×3 weights stored once as `i16` channel pairs, biases
//! pre-aligned, zero tap rows masked.
//!
//! # The output-stationary 3×3 nest
//!
//! The eCNN CIU keeps a 4×2-pixel tile of accumulators in place while the
//! weights and inputs of all 32×32 channels stream past. `conv3` does the
//! same in software: row band → register block of
//! [`OC_BLOCK`] output channels → output row → column tile (in the
//! [`Lane::conv3_row`] microkernel). A tile's accumulators start at the
//! bias, stay in registers across every (input pair, ky, kx), and are
//! stored once; the input rows of a band stay in cache across the
//! register blocks.
//!
//! The input arrives channel-pair interleaved: the executor's gather
//! writes input channels `2p` and `2p+1` of each pixel side by side
//! (`pairs × rows × 2·cols` `i16`), so one 32-bit word holds both samples
//! a pair multiply-add (`madd_epi16`) consumes. Zero-padded instructions
//! get a 1-pixel zero frame in the same copy, so every 3×3 runs as an
//! interior convolution with no border peel.
//!
//! The nest is generic over the accumulator [`Lane`] and takes the
//! [`SimdLevel`] its microkernel dispatches to:
//!
//! * `i64` — exact accumulation, so any summation order produces
//!   bit-identical results. [`Kernels::Packed`](crate::exec::Kernels::Packed)
//!   is this lane at [`SimdLevel::Scalar`], the portable scalar tier.
//! * `i32` — wrapping accumulation, exact modulo 2³². Bit-identical to the
//!   `i64` lane after `widen_acc` if and only if the plan carries the
//!   instruction's `narrow_acc` range proof; the executor enforces that
//!   precondition. A `madd` pair sum is itself exact modulo 2³² (see
//!   [`simd`]), so the 16-MAC instruction needs no proof of its own.
//!
//! Every lane and level matches the [`mod@reference`] kernels exactly,
//! which the parity proptests in `tests/kernel_parity.rs` enforce against
//! the `conv3x3_fixed` / `conv1x1_fixed` goldens.
//!
//! The [`mod@reference`] submodule preserves the pre-packing scalar kernels
//! verbatim: they read channel-planar input, are the baseline
//! `bench_kernels` measures speedups against (see `BENCH_kernels.json`),
//! and are the oracle of the parity suite.

use ecnn_isa::instr::{Instruction, LEAF_CH};
use ecnn_isa::params::{PackedConv1, PackedConv3, LEAF_PAIRS, OC_BLOCK};
use ecnn_model::model::InferenceKind;
use ecnn_tensor::Tensor;

pub mod simd;

use simd::{PairRows, SimdLevel};

/// Output rows per band of the 3×3 nest: a band's input rows (every input
/// pair, `ROW_BAND + 2` rows) stay in L2 while all register blocks sweep
/// it.
const ROW_BAND: usize = 8;

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
    /// Scalar pair multiply-add `self + w₀·a₀ + w₁·a₁` in the lane's
    /// arithmetic — one 32-bit lane of a `madd`.
    fn pair_mac(self, w: [i16; 2], a: [i16; 2]) -> Self;
    /// Overwrites `out[o]` with `bias[o]` plus the 3×3 sum over `rows` —
    /// one output row of one register block (see [`simd::PairRows`]).
    fn conv3_row(
        level: SimdLevel,
        rows: &PairRows<'_>,
        bias: [Self; OC_BLOCK],
        out: [&mut [Self]; OC_BLOCK],
    );
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
    fn pair_mac(self, w: [i16; 2], a: [i16; 2]) -> Self {
        // Each `i16` product fits `i32` exactly.
        self + (w[0] as i32 * a[0] as i32) as i64 + (w[1] as i32 * a[1] as i32) as i64
    }
    #[inline]
    fn conv3_row(
        level: SimdLevel,
        rows: &PairRows<'_>,
        bias: [Self; OC_BLOCK],
        out: [&mut [Self]; OC_BLOCK],
    ) {
        simd::conv3_row_wide(level, rows, bias, out);
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
    fn pair_mac(self, w: [i16; 2], a: [i16; 2]) -> Self {
        // Each `i16` product fits `i32`; only the pair sum can wrap.
        let p0 = w[0] as i32 * a[0] as i32;
        let p1 = w[1] as i32 * a[1] as i32;
        self.wrapping_add(p0.wrapping_add(p1))
    }
    #[inline]
    fn conv3_row(
        level: SimdLevel,
        rows: &PairRows<'_>,
        bias: [Self; OC_BLOCK],
        out: [&mut [Self]; OC_BLOCK],
    ) {
        simd::conv3_row_narrow(level, rows, bias, out);
    }
    #[inline]
    fn ch_mac(level: SimdLevel, acc: &mut [Self], src: &[i16], w: i32) {
        simd::ch_mac_narrow(level, acc, src, w);
    }
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

/// The 1-pixel zero frame a channel-pair-interleaved 3×3 input carries:
/// 1 for zero-padded inference (the frame stands in for the padding), 0
/// for truncated-pyramid inference (the input already has a 1-pixel
/// margin around the output).
pub(crate) fn pair_frame(ins: &Instruction) -> usize {
    match ins.inference {
        InferenceKind::TruncatedPyramid => 0,
        InferenceKind::ZeroPadded => 1,
    }
}

/// Writes the channels of `plane` into `dst` as channel-pair planes of
/// `(even, odd)` words inside a `frame`-pixel zero border (see
/// [`pair_frame`]): the input layout of [`conv3`]. `dst` holds
/// `channels / 2` planes of `s × 2s` elements, `s = side + 2·frame`.
pub(crate) fn interleave_pairs(plane: &Tensor<i16>, dst: &mut [i16], frame: usize) {
    let side = plane.width();
    let s = side + 2 * frame;
    for (q, pair) in dst.chunks_exact_mut(2 * s * s).enumerate() {
        let (even, odd) = (plane.channel(2 * q), plane.channel(2 * q + 1));
        pair[..2 * s * frame].fill(0);
        pair[2 * s * (s - frame)..].fill(0);
        let rows = pair.chunks_exact_mut(2 * s).skip(frame);
        for ((row, even), odd) in rows
            .zip(even.chunks_exact(side))
            .zip(odd.chunks_exact(side))
        {
            row[..2 * frame].fill(0);
            row[2 * (s - frame)..].fill(0);
            let words = row[2 * frame..2 * (s - frame)].chunks_exact_mut(2);
            for ((w, &a), &b) in words.zip(even).zip(odd) {
                w[0] = a;
                w[1] = b;
            }
        }
    }
}

/// Packed 3×3 accumulation of the channel-pair-interleaved `input`
/// (`pairs × rows × 2·cols`, framed per [`pair_frame`]) into `acc` (shaped
/// `out_planes·32 × chh × cw`; every element is overwritten, starting from
/// the packed biases): the output-stationary nest described in the module
/// docs, running the `level` microkernel of lane `L`.
///
/// # Panics
///
/// Panics if `input` holds fewer pairs than the packed filters read or is
/// smaller than `(chh + 2) × (cw + 2)` pixels.
#[inline]
pub(crate) fn conv3<L: Lane>(
    input: &Tensor<i16>,
    packed: &PackedConv3,
    acc: &mut Tensor<L>,
    level: SimdLevel,
) {
    let (_, chh, cw) = acc.shape();
    let (pairs, ih, iw2) = input.shape();
    assert!(pairs >= packed.in_groups * LEAF_PAIRS, "input pairs");
    assert!(
        ih >= chh + 2 && iw2 >= 2 * (cw + 2),
        "input covers the 3x3 window"
    );
    let plane = chh * cw;
    if plane == 0 {
        return;
    }
    let src = input.as_slice();
    let acc = acc.as_mut_slice();
    for y0 in (0..chh).step_by(ROW_BAND) {
        for (block, planes) in acc.chunks_exact_mut(OC_BLOCK * plane).enumerate() {
            let bias: [L; OC_BLOCK] =
                std::array::from_fn(|o| L::from_bias(packed.bias[block * OC_BLOCK + o]));
            let mut planes: [&mut [L]; OC_BLOCK] = {
                let mut it = planes.chunks_exact_mut(plane);
                std::array::from_fn(|_| it.next().expect("OC_BLOCK planes"))
            };
            for y in y0..chh.min(y0 + ROW_BAND) {
                let rows = PairRows {
                    src: &src[y * iw2..],
                    pair_stride: ih * iw2,
                    row_stride: iw2,
                    taps: packed.block_taps(block),
                    live: packed.block_live(block),
                    madd_exact: packed.madd_exact,
                };
                let out = planes.each_mut().map(|p| &mut p[y * cw..(y + 1) * cw]);
                L::conv3_row(level, &rows, bias, out);
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
    use ecnn_isa::compile::compile;
    use ecnn_isa::params::{QuantizedModel, PAIR_TAPS};
    use ecnn_model::layer::{Activation, Layer, Op};
    use ecnn_model::model::Model;

    /// One block row over a single input pair on lane `L` at every level:
    /// input row `ky` is `rows[ky]` on both channels of the pair (each
    /// `n + 2` samples), output channel 0 has taps `even[ky]` on the even
    /// channel and `odd[ky]` on the odd one, every other tap is zero.
    /// Returns output channel 0's row (widened) per level, after checking
    /// the other channels kept their bias `start`.
    fn block_row<L: Lane>(
        rows: [&[i16]; 3],
        even: [[i16; 3]; 3],
        odd: [[i16; 3]; 3],
        start: i64,
    ) -> Vec<Vec<i64>> {
        let n = rows[0].len() - 2;
        let src: Vec<i16> = rows
            .iter()
            .flat_map(|r| r.iter().flat_map(|&v| [v, v]))
            .collect();
        let mut taps = vec![0i16; PAIR_TAPS];
        for ky in 0..3 {
            for kx in 0..3 {
                taps[(ky * 3 + kx) * OC_BLOCK * 2] = even[ky][kx];
                taps[(ky * 3 + kx) * OC_BLOCK * 2 + 1] = odd[ky][kx];
            }
        }
        let live = [(0..3)
            .filter(|&ky| even[ky] != [0; 3] || odd[ky] != [0; 3])
            .fold(0u8, |m, ky| m | 1 << ky)];
        let rows = PairRows {
            src: &src,
            pair_stride: src.len(),
            row_stride: 2 * (n + 2),
            taps: &taps,
            live: &live,
            madd_exact: true,
        };
        simd::levels()
            .into_iter()
            .map(|level| {
                let mut out = vec![vec![L::default(); n]; OC_BLOCK];
                let [a, b, c, d] = &mut out[..] else {
                    unreachable!()
                };
                L::conv3_row(level, &rows, [L::from_bias(start); OC_BLOCK], [a, b, c, d]);
                for other in &out[1..] {
                    assert!(other.iter().all(|&v| v.into() == start), "level {level}");
                }
                out[0].iter().map(|&v| v.into()).collect()
            })
            .collect()
    }

    #[test]
    fn interior_row_fuses_three_taps() {
        let row: Vec<i16> = (1..=6).collect();
        let zero = [0i16; 6];
        let even = [[1, 10, 100], [0; 3], [0; 3]];
        let odd = [[1000, 0, 0], [0; 3], [0; 3]];
        // acc[x] += row[x] + 10*row[x+1] + 100*row[x+2] (even channel)
        //         + 1000*row[x] (odd channel)
        let want = vec![
            100 + 321 + 1000,
            100 + 432 + 2000,
            100 + 543 + 3000,
            100 + 654 + 4000,
        ];
        for got in block_row::<i64>([&row, &zero, &zero], even, odd, 100)
            .into_iter()
            .chain(block_row::<i32>([&row, &zero, &zero], even, odd, 100))
        {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn padded_row_drops_border_taps() {
        // The zero frame of a padded row stands in for its border taps.
        let row: Vec<i16> = vec![0, 2, 3, 4, 5, 0];
        let zero = [0i16; 6];
        let even = [[0; 3], [1, 10, 100], [0; 3]];
        for acc in block_row::<i64>([&zero, &row, &zero], even, [[0; 3]; 3], 0)
            .into_iter()
            .chain(block_row::<i32>([&zero, &row, &zero], even, [[0; 3]; 3], 0))
        {
            assert_eq!(acc[0], 10 * 2 + 100 * 3, "left border drops t0");
            assert_eq!(acc[1], 2 + 10 * 3 + 100 * 4);
            assert_eq!(acc[2], 3 + 10 * 4 + 100 * 5);
            assert_eq!(acc[3], 4 + 10 * 5, "right border drops t2");
        }
    }

    #[test]
    fn padded_row_handles_degenerate_widths() {
        let even = [[0; 3], [0; 3], [1, 10, 100]];
        let run = |row: &[i16]| {
            let zero = vec![0i16; row.len()];
            let mut all = block_row::<i64>([&zero, &zero, row], even, [[0; 3]; 3], 0);
            all.extend(block_row::<i32>([&zero, &zero, row], even, [[0; 3]; 3], 0));
            all
        };
        for acc in run(&[0, 7, 0]) {
            assert_eq!(acc, vec![70], "1-wide row keeps only the center tap");
        }
        for acc in run(&[0, 3, 5, 0]) {
            assert_eq!(acc, vec![10 * 3 + 100 * 5, 3 + 10 * 5]);
        }
    }

    #[test]
    fn padded_matches_interior_on_pre_padded_row() {
        // A zero-padded 3x3 through the pair nest (its border supplied by
        // the interleave's zero frame) must equal the reference kernel's
        // per-tap border tests, on both lanes at every level.
        let row: [i16; 7] = [-3, 8, 0, 5, 2, -1, 9];
        let side = row.len();
        let m = Model::new(
            "one-conv",
            32,
            32,
            vec![Layer::new(Op::Conv3x3 {
                in_c: 32,
                out_c: 32,
                act: Activation::None,
            })],
        )
        .unwrap()
        .with_inference(InferenceKind::ZeroPadded);
        let c = compile(&QuantizedModel::uniform(&m), side).unwrap();
        let ins = &c.program.instructions[0];
        let packed = PackedConv3::pack(ins, &c.leafs[0]);
        let input = Tensor::from_fn(LEAF_CH, side, side, |ch, y, x| row[(x + 2 * y + ch) % side]);
        let mut want = Tensor::zeros(LEAF_CH, side, side);
        reference::conv3_acc_into(
            ins,
            &input,
            &|_, ig| c.leafs[0][ig].w3.as_slice(),
            &|_| packed.bias.clone(),
            1,
            &mut want,
        );
        let s = side + 2;
        let mut framed = Tensor::zeros(LEAF_PAIRS, s, 2 * s);
        interleave_pairs(&input, framed.as_mut_slice(), pair_frame(ins));
        for level in simd::levels() {
            let mut wide = Tensor::zeros(LEAF_CH, side, side);
            conv3::<i64>(&framed, &packed, &mut wide, level);
            assert_eq!(wide, want, "wide level {level}");
            let mut narrow = Tensor::zeros(LEAF_CH, side, side);
            conv3::<i32>(&framed, &packed, &mut narrow, level);
            assert_eq!(narrow.map(|v| v as i64), want, "narrow level {level}");
        }
    }
}
